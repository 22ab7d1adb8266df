//! Preprocessing operators: resize, crop, tensor conversion, normalize.
//!
//! These mirror the torchvision-style transform stack executed by the
//! paper's preprocessing stage: decode → resize → (crop) → to-tensor →
//! normalize. All resizes treat pixel centers at half-integer coordinates
//! (align-corners = false), matching common DNN preprocessing.
//!
//! Each heavy operator has a `_with` variant taking a
//! [`Backend`](vserve_compute::Backend) that parallelizes over disjoint
//! output rows (resize, tensor conversion) or channel planes (normalize).
//! Every output element is a pure function of the input, so results are
//! bit-identical to the serial variants for any thread count.

use vserve_compute::Backend;
use vserve_simd::round_u8;

use crate::{Image, PixelFormat, Tensor};

/// Nearest-neighbour resize.
///
/// # Panics
///
/// Panics if either output dimension is zero.
///
/// # Examples
///
/// ```
/// use vserve_tensor::{Image, ops};
///
/// let img = Image::gradient(10, 10);
/// let out = ops::resize_nearest(&img, 5, 5);
/// assert_eq!((out.width(), out.height()), (5, 5));
/// ```
pub fn resize_nearest(src: &Image, out_w: usize, out_h: usize) -> Image {
    resize_nearest_with(&Backend::serial(), src, out_w, out_h)
}

/// [`resize_nearest`] parallelized over output rows.
///
/// # Panics
///
/// Panics if either output dimension is zero.
pub fn resize_nearest_with(bk: &Backend, src: &Image, out_w: usize, out_h: usize) -> Image {
    assert!(out_w > 0 && out_h > 0, "output dimensions must be non-zero");
    let mut dst = Image::zeros(out_w, out_h, src.format());
    let ch = src.channels();
    let sx = src.width() as f32 / out_w as f32;
    let sy = src.height() as f32 / out_h as f32;
    bk.par_chunks_mut(dst.as_bytes_mut(), out_w * ch, |y, row| {
        let src_y = (((y as f32 + 0.5) * sy - 0.5).round().max(0.0) as usize).min(src.height() - 1);
        for x in 0..out_w {
            let src_x =
                (((x as f32 + 0.5) * sx - 0.5).round().max(0.0) as usize).min(src.width() - 1);
            let p = src.pixel(src_x, src_y);
            row[x * ch..(x + 1) * ch].copy_from_slice(&p[..ch]);
        }
    });
    dst
}

/// The two source taps and the weight of the second for output coordinate
/// `i` of a bilinear resize with scale `s` onto a source whose last index
/// is `max` (pixel centers at half-integers, edges clamped). The position
/// is never negative, so the cast truncates exactly where `floor` would.
#[inline(always)]
fn bilinear_tap(i: usize, s: f32, max: usize) -> (usize, usize, f32) {
    let f = ((i as f32 + 0.5) * s - 0.5).clamp(0.0, max as f32);
    let i0 = f as usize;
    (i0, (i0 + 1).min(max), f - i0 as f32)
}

/// Bilinear resize, the default interpolation in the paper's pipelines.
///
/// # Panics
///
/// Panics if either output dimension is zero.
pub fn resize_bilinear(src: &Image, out_w: usize, out_h: usize) -> Image {
    resize_bilinear_with(&Backend::serial(), src, out_w, out_h)
}

/// [`resize_bilinear`] parallelized over output rows.
///
/// # Panics
///
/// Panics if either output dimension is zero.
pub fn resize_bilinear_with(bk: &Backend, src: &Image, out_w: usize, out_h: usize) -> Image {
    assert!(out_w > 0 && out_h > 0, "output dimensions must be non-zero");
    let mut dst = Image::zeros(out_w, out_h, src.format());
    let ch = src.channels();
    let sx = src.width() as f32 / out_w as f32;
    let sy = src.height() as f32 / out_h as f32;
    let max_x = src.width() - 1;
    let max_y = src.height() - 1;
    bk.par_chunks_mut(dst.as_bytes_mut(), out_w * ch, |y, row| {
        let (y0, y1, wy) = bilinear_tap(y, sy, max_y);
        for x in 0..out_w {
            let (x0, x1, wx) = bilinear_tap(x, sx, max_x);
            let p00 = src.pixel(x0, y0);
            let p10 = src.pixel(x1, y0);
            let p01 = src.pixel(x0, y1);
            let p11 = src.pixel(x1, y1);
            for c in 0..ch {
                let top = f32::from(p00[c]) * (1.0 - wx) + f32::from(p10[c]) * wx;
                let bot = f32::from(p01[c]) * (1.0 - wx) + f32::from(p11[c]) * wx;
                row[x * ch + c] = round_u8(top * (1.0 - wy) + bot * wy);
            }
        }
    });
    dst
}

/// Area (box-filter) resize — the correct filter for large downscales,
/// which is exactly what the paper's "large image → 224×224" path does.
///
/// Falls back to bilinear when upscaling.
///
/// # Panics
///
/// Panics if either output dimension is zero.
pub fn resize_area(src: &Image, out_w: usize, out_h: usize) -> Image {
    resize_area_with(&Backend::serial(), src, out_w, out_h)
}

/// [`resize_area`] parallelized over output rows.
///
/// # Panics
///
/// Panics if either output dimension is zero.
pub fn resize_area_with(bk: &Backend, src: &Image, out_w: usize, out_h: usize) -> Image {
    assert!(out_w > 0 && out_h > 0, "output dimensions must be non-zero");
    if out_w >= src.width() || out_h >= src.height() {
        return resize_bilinear_with(bk, src, out_w, out_h);
    }
    let mut dst = Image::zeros(out_w, out_h, src.format());
    let ch = src.channels();
    let sx = src.width() as f64 / out_w as f64;
    let sy = src.height() as f64 / out_h as f64;
    bk.par_chunks_mut(dst.as_bytes_mut(), out_w * ch, |y, row| {
        let y_start = (y as f64 * sy) as usize;
        let y_end = (((y + 1) as f64 * sy).ceil() as usize).min(src.height());
        for x in 0..out_w {
            let x_start = (x as f64 * sx) as usize;
            let x_end = (((x + 1) as f64 * sx).ceil() as usize).min(src.width());
            let mut acc = [0u64; 3];
            for yy in y_start..y_end {
                for xx in x_start..x_end {
                    let p = src.pixel(xx, yy);
                    for c in 0..3 {
                        acc[c] += u64::from(p[c]);
                    }
                }
            }
            // Round-half-up of the exact mean. The f64 quotient this
            // replaces rounded the same way: a mean that is not k + ½ is
            // at least 1/(2n) from it, far more than f64's error.
            let n = ((y_end - y_start) * (x_end - x_start)) as u64;
            for c in 0..ch {
                row[x * ch + c] = ((2 * acc[c] + n) / (2 * n)) as u8;
            }
        }
    });
    dst
}

/// Crops a centered `out_w × out_h` window.
///
/// # Panics
///
/// Panics if the crop is larger than the source in either dimension, or if
/// either output dimension is zero.
pub fn center_crop(src: &Image, out_w: usize, out_h: usize) -> Image {
    assert!(out_w > 0 && out_h > 0, "output dimensions must be non-zero");
    assert!(
        out_w <= src.width() && out_h <= src.height(),
        "crop {out_w}x{out_h} exceeds source {}x{}",
        src.width(),
        src.height()
    );
    let x0 = (src.width() - out_w) / 2;
    let y0 = (src.height() - out_h) / 2;
    let mut dst = Image::zeros(out_w, out_h, src.format());
    for y in 0..out_h {
        for x in 0..out_w {
            dst.put_pixel(x, y, src.pixel(x0 + x, y0 + y));
        }
    }
    dst
}

/// Crops the `w × h` window whose top-left corner is `(x0, y0)`.
///
/// The pipeline executor uses this to cut detection regions out of a
/// decoded frame before re-encoding them as stage-2 sub-requests.
///
/// # Panics
///
/// Panics if the window is empty or extends past the source image.
pub fn crop_rect(src: &Image, x0: usize, y0: usize, w: usize, h: usize) -> Image {
    assert!(w > 0 && h > 0, "crop window must be non-empty");
    assert!(
        x0 + w <= src.width() && y0 + h <= src.height(),
        "crop {w}x{h}+{x0}+{y0} exceeds source {}x{}",
        src.width(),
        src.height()
    );
    let mut dst = Image::zeros(w, h, src.format());
    for y in 0..h {
        for x in 0..w {
            dst.put_pixel(x, y, src.pixel(x0 + x, y0 + y));
        }
    }
    dst
}

/// Converts an image to an NCHW `f32` tensor scaled to `[0, 1]`, batch 1.
///
/// Gray images produce a single channel; RGB produce three.
pub fn to_tensor(src: &Image) -> Tensor {
    to_tensor_with(&Backend::serial(), src)
}

/// [`to_tensor`] parallelized over channel rows of the output tensor
/// (chunk `i` is row `i % h` of channel `i / h`).
pub fn to_tensor_with(bk: &Backend, src: &Image) -> Tensor {
    let (w, h, c) = (src.width(), src.height(), src.channels());
    let mut t = Tensor::zeros(&[1, c, h, w]);
    let bytes = src.as_bytes();
    bk.par_chunks_mut(t.as_mut_slice(), w, |i, row| {
        let ch = i / h;
        let y = i % h;
        for (x, v) in row.iter_mut().enumerate() {
            *v = f32::from(bytes[(y * w + x) * c + ch]) / 255.0;
        }
    });
    t
}

/// ImageNet channel means used by [`normalize_imagenet`].
pub const IMAGENET_MEAN: [f32; 3] = [0.485, 0.456, 0.406];
/// ImageNet channel standard deviations used by [`normalize_imagenet`].
pub const IMAGENET_STD: [f32; 3] = [0.229, 0.224, 0.225];

/// Per-channel normalization `(x − mean) / std` on an NCHW tensor.
///
/// # Panics
///
/// Panics if the tensor is not rank-4 or its channel count exceeds the
/// provided statistics.
pub fn normalize(t: &mut Tensor, mean: &[f32], std: &[f32]) {
    normalize_with(&Backend::serial(), t, mean, std);
}

/// [`normalize`] parallelized over `(batch, channel)` planes.
///
/// # Panics
///
/// Same conditions as [`normalize`].
pub fn normalize_with(bk: &Backend, t: &mut Tensor, mean: &[f32], std: &[f32]) {
    assert_eq!(t.rank(), 4, "normalize expects NCHW");
    let shape = t.shape().to_vec();
    let c = shape[1];
    let plane = shape[2] * shape[3];
    assert!(
        c <= mean.len() && c <= std.len(),
        "statistics cover {} channels, tensor has {c}",
        mean.len().min(std.len())
    );
    bk.par_chunks_mut(t.as_mut_slice(), plane, |i, chunk| {
        let ch = i % c;
        let m = mean[ch];
        let s = std[ch];
        for v in chunk.iter_mut() {
            *v = (*v - m) / s;
        }
    });
}

/// ImageNet-standard normalization, the exact transform in the paper's
/// preprocessing stage.
pub fn normalize_imagenet(t: &mut Tensor) {
    normalize(t, &IMAGENET_MEAN, &IMAGENET_STD);
}

/// Runs the complete standard preprocessing chain: bilinear resize to
/// `side × side`, tensor conversion, ImageNet normalization.
///
/// # Examples
///
/// ```
/// use vserve_tensor::{Image, ops};
///
/// let t = ops::standard_preprocess(&Image::gradient(500, 375), 224);
/// assert_eq!(t.shape(), &[1, 3, 224, 224]);
/// ```
pub fn standard_preprocess(src: &Image, side: usize) -> Tensor {
    standard_preprocess_with(&Backend::serial(), src, side)
}

/// [`standard_preprocess`] on a compute backend: resize, tensor
/// conversion, and normalization all parallelize over rows/planes, with
/// output bits identical to the serial chain.
pub fn standard_preprocess_with(bk: &Backend, src: &Image, side: usize) -> Tensor {
    let resized = if src.width() > 2 * side && src.height() > 2 * side {
        resize_area_with(bk, src, side, side)
    } else {
        resize_bilinear_with(bk, src, side, side)
    };
    let mut t = to_tensor_with(bk, &resized);
    if resized.format() == PixelFormat::Rgb8 {
        normalize_with(bk, &mut t, &IMAGENET_MEAN, &IMAGENET_STD);
    }
    t
}

/// Fused resize → to-tensor → normalize in a single pass.
///
/// Bilinear taps read the source image once and write the normalized f32
/// value straight into the `[1, c, side, side]` NCHW tensor — no resized
/// RGB intermediate and no separate scale/normalize passes over the
/// output. RGB sources get ImageNet statistics; gray sources are scaled
/// to `[0, 1]` only, matching [`standard_preprocess`].
///
/// Numerics differ slightly from the unfused chain (the chain rounds the
/// resized value back to u8 before converting; the fused kernel keeps it
/// in f32), so use this where throughput matters and the unfused chain
/// where bit-exact parity with the baseline stack is required.
pub fn fused_preprocess(src: &Image, side: usize) -> Tensor {
    fused_preprocess_with(&Backend::serial(), src, side)
}

/// [`fused_preprocess`] parallelized over output tensor rows (chunk `i`
/// is row `i % side` of channel `i / side`). Every output element is a
/// pure function of the source, so results are bit-identical across
/// thread counts.
///
/// # Panics
///
/// Panics if `side` is zero.
pub fn fused_preprocess_with(bk: &Backend, src: &Image, side: usize) -> Tensor {
    assert!(side > 0, "output side must be non-zero");
    let (w, h, c) = (src.width(), src.height(), src.channels());
    let rgb = src.format() == PixelFormat::Rgb8;
    let bytes = src.as_bytes();
    let sx = w as f32 / side as f32;
    let sy = h as f32 / side as f32;
    let mut t = Tensor::zeros(&[1, c, side, side]);
    // The x taps do not depend on the row: one stack table per block of
    // TAPS output columns (a single block up to side 256), byte offsets
    // premultiplied by the channel count, shared by every row and channel.
    const TAPS: usize = 256;
    let (mut x0c, mut x1c, mut wx) = ([0usize; TAPS], [0usize; TAPS], [0f32; TAPS]);
    for xb in (0..side).step_by(TAPS) {
        let cols = TAPS.min(side - xb);
        for j in 0..cols {
            let (x0, x1, wxj) = bilinear_tap(xb + j, sx, w - 1);
            (x0c[j], x1c[j], wx[j]) = (x0 * c, x1 * c, wxj);
        }
        bk.par_chunks_mut(t.as_mut_slice(), side, |i, row| {
            let ch = i / side;
            let (m, s) = if rgb {
                (IMAGENET_MEAN[ch], IMAGENET_STD[ch])
            } else {
                (0.0, 1.0)
            };
            let (y0, y1, wy) = bilinear_tap(i % side, sy, h - 1);
            let (r0, r1) = (&bytes[y0 * w * c + ch..], &bytes[y1 * w * c + ch..]);
            // Strip-at-a-time: gather the strided bilinear taps into
            // stack buffers, then lerp + normalize the whole strip in the
            // SIMD kernel (its scalar tail at `Level::Scalar`).
            const STRIP: usize = 64;
            let (mut p00, mut p10) = ([0f32; STRIP], [0f32; STRIP]);
            let (mut p01, mut p11) = ([0f32; STRIP], [0f32; STRIP]);
            for s0 in (0..cols).step_by(STRIP) {
                let len = STRIP.min(cols - s0);
                let taps = x0c[s0..s0 + len].iter().zip(&x1c[s0..s0 + len]);
                let top = p00.iter_mut().zip(&mut p10);
                let bot = p01.iter_mut().zip(&mut p11);
                for (((&a, &b), (t0, t1)), (b0, b1)) in taps.zip(top).zip(bot) {
                    *t0 = f32::from(r0[a]);
                    *t1 = f32::from(r0[b]);
                    *b0 = f32::from(r1[a]);
                    *b1 = f32::from(r1[b]);
                }
                vserve_simd::kernels::resize_norm_row(
                    &p00[..len],
                    &p10[..len],
                    &p01[..len],
                    &p11[..len],
                    &wx[s0..s0 + len],
                    wy,
                    m,
                    s,
                    &mut row[xb + s0..xb + s0 + len],
                );
            }
        });
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn constant_image(w: usize, h: usize, v: u8) -> Image {
        let mut img = Image::zeros(w, h, PixelFormat::Rgb8);
        for y in 0..h {
            for x in 0..w {
                img.put_pixel(x, y, [v, v, v]);
            }
        }
        img
    }

    #[test]
    fn resizes_preserve_constant_images() {
        let img = constant_image(17, 13, 99);
        for out in [
            resize_nearest(&img, 7, 5),
            resize_bilinear(&img, 7, 5),
            resize_area(&img, 7, 5),
            resize_bilinear(&img, 40, 30),
        ] {
            assert!(
                out.as_bytes().iter().all(|&b| b == 99),
                "constant image must stay constant"
            );
        }
    }

    #[test]
    fn identity_resize_is_identity() {
        let img = Image::gradient(16, 12);
        assert_eq!(resize_nearest(&img, 16, 12), img);
        assert_eq!(resize_bilinear(&img, 16, 12), img);
    }

    #[test]
    fn bilinear_midpoint_interpolates() {
        // 2x1 image: pixels 0 and 200; a 3x1 resize samples the midpoint.
        let mut img = Image::zeros(2, 1, PixelFormat::Gray8);
        img.put_pixel(0, 0, [0, 0, 0]);
        img.put_pixel(1, 0, [200, 0, 0]);
        let out = resize_bilinear(&img, 3, 1);
        // centers at fx = (x+0.5)*2/3-0.5 → 0, ~0.5, 1.0 → values 0, 100, 200
        assert_eq!(out.pixel(0, 0)[0], 0);
        assert_eq!(out.pixel(1, 0)[0], 100);
        assert_eq!(out.pixel(2, 0)[0], 200);
    }

    #[test]
    fn area_downscale_averages() {
        // 2x2 blocks of (0, 0, 100, 100) average to 50.
        let mut img = Image::zeros(2, 2, PixelFormat::Gray8);
        img.put_pixel(0, 0, [0, 0, 0]);
        img.put_pixel(1, 0, [0, 0, 0]);
        img.put_pixel(0, 1, [100, 0, 0]);
        img.put_pixel(1, 1, [100, 0, 0]);
        let out = resize_area(&img, 1, 1);
        assert_eq!(out.pixel(0, 0)[0], 50);
    }

    #[test]
    fn center_crop_takes_middle() {
        let img = Image::gradient(10, 10);
        let c = center_crop(&img, 4, 4);
        assert_eq!(c.pixel(0, 0), img.pixel(3, 3));
        assert_eq!(c.pixel(3, 3), img.pixel(6, 6));
    }

    #[test]
    #[should_panic(expected = "exceeds source")]
    fn center_crop_validates() {
        let img = Image::gradient(4, 4);
        let _ = center_crop(&img, 5, 4);
    }

    #[test]
    fn crop_rect_takes_window() {
        let img = Image::gradient(10, 8);
        let c = crop_rect(&img, 2, 3, 4, 5);
        assert_eq!((c.width(), c.height()), (4, 5));
        assert_eq!(c.pixel(0, 0), img.pixel(2, 3));
        assert_eq!(c.pixel(3, 4), img.pixel(5, 7));
    }

    #[test]
    #[should_panic(expected = "exceeds source")]
    fn crop_rect_validates() {
        let img = Image::gradient(4, 4);
        let _ = crop_rect(&img, 2, 0, 3, 4);
    }

    #[test]
    fn to_tensor_layout_and_scale() {
        let mut img = Image::zeros(2, 1, PixelFormat::Rgb8);
        img.put_pixel(0, 0, [255, 0, 0]);
        img.put_pixel(1, 0, [0, 255, 0]);
        let t = to_tensor(&img);
        assert_eq!(t.shape(), &[1, 3, 1, 2]);
        assert_eq!(t[&[0, 0, 0, 0][..]], 1.0); // R of pixel 0
        assert_eq!(t[&[0, 1, 0, 1][..]], 1.0); // G of pixel 1
        assert_eq!(t[&[0, 2, 0, 0][..]], 0.0);
    }

    #[test]
    fn normalize_matches_formula() {
        let mut t = Tensor::zeros(&[1, 3, 1, 1]);
        t.fill(0.5);
        normalize_imagenet(&mut t);
        for c in 0..3 {
            let expect = (0.5 - IMAGENET_MEAN[c]) / IMAGENET_STD[c];
            assert!((t[&[0, c, 0, 0][..]] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn standard_preprocess_shape() {
        let t = standard_preprocess(&Image::gradient(640, 480), 224);
        assert_eq!(t.shape(), &[1, 3, 224, 224]);
    }

    #[test]
    fn fused_preprocess_matches_unfused_chain_closely() {
        // The fused kernel skips the intermediate u8 rounding, so values
        // differ by at most one quantization step (1/255, scaled by the
        // per-channel std after normalization).
        let src = Image::noise(150, 90, 21);
        let want = standard_preprocess(&src, 96); // bilinear path (≤ 2× downscale)
        let got = fused_preprocess(&src, 96);
        assert_eq!(want.shape(), got.shape());
        let tol = (1.0 / 255.0) / IMAGENET_STD.iter().fold(f32::MAX, |a, &b| a.min(b)) + 1e-4;
        for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
            assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
        // Gray: [0, 1] scaling only, single channel.
        let gray = Image::gradient(64, 48).to_gray();
        let t = fused_preprocess(&gray, 32);
        assert_eq!(t.shape(), &[1, 1, 32, 32]);
        for &v in t.as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn fused_preprocess_bit_identical_across_threads() {
        for src in [Image::noise(300, 200, 5), Image::noise(97, 61, 6)] {
            let want = fused_preprocess(&src, 224);
            for threads in [2, 4] {
                let got = fused_preprocess_with(&Backend::new(threads), &src, 224);
                assert_eq!(want.as_slice(), got.as_slice(), "threads={threads}");
            }
        }
    }

    #[test]
    fn fused_preprocess_bit_identical_across_simd_levels() {
        // Odd output side (not a lane multiple) exercises the strip tail;
        // RGB and gray cover both normalization branches.
        for (src, side) in [
            (Image::noise(150, 90, 7), 97),
            (Image::noise(64, 48, 8).to_gray(), 33),
        ] {
            vserve_simd::set_level(vserve_simd::Level::Scalar);
            let want = fused_preprocess(&src, side);
            for level in vserve_simd::available_levels() {
                vserve_simd::set_level(level);
                let got = fused_preprocess(&src, side);
                assert_eq!(want.as_slice(), got.as_slice(), "level={level}");
            }
            vserve_simd::reset_level();
        }
    }

    #[test]
    fn parallel_ops_bit_identical_to_serial() {
        // Both resize filters (area for the large source, bilinear for the
        // small), plus tensor conversion and normalization.
        for src in [Image::noise(613, 411, 3), Image::noise(150, 90, 4)] {
            let want = standard_preprocess(&src, 224);
            for threads in [2, 4] {
                let bk = Backend::new(threads);
                let got = standard_preprocess_with(&bk, &src, 224);
                assert_eq!(want.as_slice(), got.as_slice(), "threads={threads}");
            }
        }
        // Gray path: single-channel rows.
        let gray = Image::gradient(300, 200).to_gray();
        let want = resize_bilinear(&gray, 97, 53);
        let got = resize_bilinear_with(&Backend::new(3), &gray, 97, 53);
        assert_eq!(want, got);
        let want = resize_nearest(&gray, 97, 53);
        let got = resize_nearest_with(&Backend::new(3), &gray, 97, 53);
        assert_eq!(want, got);
    }

    proptest! {
        #[test]
        fn resize_output_within_input_range(
            w in 2usize..24, h in 2usize..24,
            ow in 1usize..32, oh in 1usize..32,
            seed in any::<u64>()
        ) {
            let img = Image::noise(w, h, seed);
            let (lo, hi) = img.as_bytes().iter().fold((255u8, 0u8), |(lo, hi), &b| {
                (lo.min(b), hi.max(b))
            });
            for out in [resize_bilinear(&img, ow, oh), resize_area(&img, ow, oh),
                        resize_nearest(&img, ow, oh)] {
                for &b in out.as_bytes() {
                    prop_assert!(b >= lo && b <= hi);
                }
            }
        }

        #[test]
        fn to_tensor_in_unit_interval(w in 1usize..16, h in 1usize..16, seed in any::<u64>()) {
            let t = to_tensor(&Image::noise(w, h, seed));
            for &v in t.as_slice() {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn bilinear_tap_matches_the_per_element_floor_expression() {
        // The expression the resize loops evaluated per output element
        // before the taps were hoisted, `floor` call included.
        for src in 1..=300usize {
            for side in 1..=300usize {
                let s = src as f32 / side as f32;
                let max = src - 1;
                for i in 0..side {
                    let f = ((i as f32 + 0.5) * s - 0.5).clamp(0.0, max as f32);
                    let i0 = f.floor() as usize;
                    let want = (i0, (i0 + 1).min(max), (f - i0 as f32).to_bits());
                    let (g0, g1, gw) = bilinear_tap(i, s, max);
                    assert_eq!((g0, g1, gw.to_bits()), want, "src {src} side {side} i {i}");
                }
            }
        }
    }
}
