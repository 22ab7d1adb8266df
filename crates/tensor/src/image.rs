//! 8-bit interleaved raster images.

use crate::TensorError;

/// Pixel layout of an [`Image`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelFormat {
    /// Single luminance channel.
    Gray8,
    /// Interleaved red/green/blue.
    Rgb8,
}

impl PixelFormat {
    /// Number of channels per pixel.
    pub const fn channels(self) -> usize {
        match self {
            PixelFormat::Gray8 => 1,
            PixelFormat::Rgb8 => 3,
        }
    }
}

/// An 8-bit raster image in interleaved (HWC) layout.
///
/// This is the decoded form JPEG images take between decompression and
/// tensor conversion in the preprocessing pipeline.
///
/// # Examples
///
/// ```
/// use vserve_tensor::{Image, PixelFormat};
///
/// let mut img = Image::zeros(4, 3, PixelFormat::Rgb8);
/// img.put_pixel(1, 2, [10, 20, 30]);
/// assert_eq!(img.pixel(1, 2), [10, 20, 30]);
/// assert_eq!(img.raw_len(), 4 * 3 * 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    format: PixelFormat,
    data: Vec<u8>,
}

impl Image {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(width: usize, height: usize, format: PixelFormat) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Image {
            width,
            height,
            format,
            data: vec![0; width * height * format.channels()],
        }
    }

    /// Wraps an existing interleaved buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SizeMismatch`] if `data.len()` ≠
    /// `width × height × channels`, or [`TensorError::EmptyDimension`] for
    /// zero dimensions.
    pub fn from_raw(
        width: usize,
        height: usize,
        format: PixelFormat,
        data: Vec<u8>,
    ) -> Result<Self, TensorError> {
        if width == 0 || height == 0 {
            return Err(TensorError::EmptyDimension);
        }
        let expected = width * height * format.channels();
        if data.len() != expected {
            return Err(TensorError::SizeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Image {
            width,
            height,
            format,
            data,
        })
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel layout.
    pub fn format(&self) -> PixelFormat {
        self.format
    }

    /// Channels per pixel.
    pub fn channels(&self) -> usize {
        self.format.channels()
    }

    /// Total pixel count (`width × height`).
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Length of the raw buffer in bytes.
    pub fn raw_len(&self) -> usize {
        self.data.len()
    }

    /// Borrow of the interleaved bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable borrow of the interleaved bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consumes the image, returning the raw buffer.
    pub fn into_raw(self) -> Vec<u8> {
        self.data
    }

    #[inline]
    fn offset(&self, x: usize, y: usize) -> usize {
        (y * self.width + x) * self.channels()
    }

    /// Reads pixel `(x, y)` into a 3-element array; gray images replicate
    /// the luminance into all three lanes.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let o = self.offset(x, y);
        match self.format {
            PixelFormat::Gray8 => [self.data[o]; 3],
            PixelFormat::Rgb8 => [self.data[o], self.data[o + 1], self.data[o + 2]],
        }
    }

    /// Writes pixel `(x, y)`; gray images store the first component.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    pub fn put_pixel(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let o = self.offset(x, y);
        match self.format {
            PixelFormat::Gray8 => self.data[o] = rgb[0],
            PixelFormat::Rgb8 => {
                self.data[o] = rgb[0];
                self.data[o + 1] = rgb[1];
                self.data[o + 2] = rgb[2];
            }
        }
    }

    /// A smooth RGB test pattern (red ∝ x, green ∝ y, blue ∝ x+y), handy
    /// for codec and resize tests because it is band-limited.
    pub fn gradient(width: usize, height: usize) -> Self {
        let mut img = Image::zeros(width, height, PixelFormat::Rgb8);
        for y in 0..height {
            for x in 0..width {
                let r = (x * 255 / width.max(1)) as u8;
                let g = (y * 255 / height.max(1)) as u8;
                let b = (((x + y) * 255) / (width + height).max(1)) as u8;
                img.put_pixel(x, y, [r, g, b]);
            }
        }
        img
    }

    /// A checkerboard with `cell`-pixel squares — a worst case for DCT
    /// compression, used to exercise codec quality limits.
    pub fn checkerboard(width: usize, height: usize, cell: usize) -> Self {
        let cell = cell.max(1);
        let mut img = Image::zeros(width, height, PixelFormat::Rgb8);
        for y in 0..height {
            for x in 0..width {
                let v = if ((x / cell) + (y / cell)).is_multiple_of(2) {
                    230
                } else {
                    25
                };
                img.put_pixel(x, y, [v, v, v]);
            }
        }
        img
    }

    /// Deterministic pseudo-random noise image (xorshift on coordinates).
    pub fn noise(width: usize, height: usize, seed: u64) -> Self {
        let mut img = Image::zeros(width, height, PixelFormat::Rgb8);
        for y in 0..height {
            for x in 0..width {
                let mut s = seed ^ ((x as u64) << 32) ^ (y as u64) ^ 0x9e3779b97f4a7c15;
                let mut next = || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s & 0xff) as u8
                };
                img.put_pixel(x, y, [next(), next(), next()]);
            }
        }
        img
    }

    /// Converts to single-channel luminance using the BT.601 weights the
    /// JPEG color transform uses.
    pub fn to_gray(&self) -> Image {
        if self.format == PixelFormat::Gray8 {
            return self.clone();
        }
        let mut out = Image::zeros(self.width, self.height, PixelFormat::Gray8);
        for y in 0..self.height {
            for x in 0..self.width {
                let [r, g, b] = self.pixel(x, y);
                let yv = 0.299 * f32::from(r) + 0.587 * f32::from(g) + 0.114 * f32::from(b);
                out.put_pixel(x, y, [vserve_simd::round_u8(yv); 3]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_raw_validates() {
        assert_eq!(
            Image::from_raw(2, 2, PixelFormat::Rgb8, vec![0; 11]).unwrap_err(),
            TensorError::SizeMismatch {
                expected: 12,
                actual: 11
            }
        );
        assert_eq!(
            Image::from_raw(0, 2, PixelFormat::Rgb8, vec![]).unwrap_err(),
            TensorError::EmptyDimension
        );
        assert!(Image::from_raw(2, 2, PixelFormat::Gray8, vec![0; 4]).is_ok());
    }

    #[test]
    fn pixel_round_trip() {
        let mut img = Image::zeros(3, 2, PixelFormat::Rgb8);
        img.put_pixel(2, 1, [1, 2, 3]);
        assert_eq!(img.pixel(2, 1), [1, 2, 3]);
        assert_eq!(img.pixel(0, 0), [0, 0, 0]);
    }

    #[test]
    fn gray_replicates() {
        let mut img = Image::zeros(2, 2, PixelFormat::Gray8);
        img.put_pixel(0, 0, [77, 0, 0]);
        assert_eq!(img.pixel(0, 0), [77, 77, 77]);
    }

    #[test]
    #[should_panic(expected = "pixel out of bounds")]
    fn oob_read_panics() {
        let img = Image::zeros(2, 2, PixelFormat::Rgb8);
        let _ = img.pixel(2, 0);
    }

    #[test]
    fn generators_have_right_dims() {
        for img in [
            Image::gradient(5, 7),
            Image::checkerboard(5, 7, 2),
            Image::noise(5, 7, 42),
        ] {
            assert_eq!(img.width(), 5);
            assert_eq!(img.height(), 7);
            assert_eq!(img.raw_len(), 5 * 7 * 3);
        }
    }

    #[test]
    fn noise_is_deterministic() {
        assert_eq!(Image::noise(8, 8, 1), Image::noise(8, 8, 1));
        assert_ne!(Image::noise(8, 8, 1), Image::noise(8, 8, 2));
    }

    #[test]
    fn to_gray_constant_image() {
        let mut img = Image::zeros(2, 2, PixelFormat::Rgb8);
        for y in 0..2 {
            for x in 0..2 {
                img.put_pixel(x, y, [100, 100, 100]);
            }
        }
        let g = img.to_gray();
        assert_eq!(g.format(), PixelFormat::Gray8);
        assert_eq!(g.pixel(1, 1)[0], 100);
    }
}
