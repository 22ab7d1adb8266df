//! A from-scratch baseline JPEG codec.
//!
//! JPEG decoding is the dominant preprocessing cost in the paper's serving
//! pipelines, so this suite implements the codec rather than stubbing it:
//! color transform, optional 4:2:0 chroma subsampling, 8×8 DCT,
//! quality-scaled quantization, zigzag run-length coding, and canonical
//! Huffman entropy coding with JFIF framing — ITU-T T.81 baseline
//! sequential mode.
//!
//! The codec is used directly by the live-mode examples and to generate
//! the synthetic ImageNet-like payloads of `vserve-workload`; its
//! per-pixel/per-byte work profile grounds the preprocessing cost model in
//! `vserve-device`.
//!
//! # Examples
//!
//! ```
//! use vserve_codec::{decode, encode, EncodeOptions};
//! use vserve_tensor::Image;
//!
//! # fn main() -> Result<(), vserve_codec::DecodeJpegError> {
//! let img = Image::gradient(64, 48);
//! let jpeg = encode(&img, &EncodeOptions::default());
//! let back = decode(&jpeg)?;
//! assert_eq!((back.width(), back.height()), (64, 48));
//! assert!(vserve_codec::psnr(&img, &back) > 30.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod dct;
mod decode;
mod encode;
mod huffman;
#[cfg(test)]
mod pinned;
pub mod preproc;
pub mod tables;

pub use decode::{
    decode, decode_scaled, decode_scaled_with, decode_with, probe_dimensions, DecodeScale,
};
pub use encode::encode;
pub use preproc::{preprocess_jpeg, preprocess_jpeg_with, PreprocPlan};

use vserve_tensor::Image;

/// Chroma subsampling mode for [`encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Subsampling {
    /// No chroma subsampling (4:4:4): larger files, no chroma aliasing.
    S444,
    /// 2×2 chroma subsampling (4:2:0): the common photographic default.
    #[default]
    S420,
}

/// Options controlling [`encode`].
///
/// # Examples
///
/// ```
/// use vserve_codec::{EncodeOptions, Subsampling};
///
/// let high_fidelity = EncodeOptions { quality: 95, subsampling: Subsampling::S444, ..EncodeOptions::default() };
/// assert_eq!(EncodeOptions::default().quality, 85);
/// # let _ = high_fidelity;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodeOptions {
    /// JPEG quality in `[1, 100]`; 50 reproduces the Annex-K tables.
    pub quality: u8,
    /// Chroma subsampling mode.
    pub subsampling: Subsampling,
    /// Restart interval in MCUs (`None` disables DRI/RSTn markers).
    /// Restart markers bound error propagation and enable parallel
    /// decode — at a small size cost.
    pub restart_interval: Option<u16>,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            quality: 85,
            subsampling: Subsampling::S420,
            restart_interval: None,
        }
    }
}

/// Errors returned by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeJpegError {
    /// The data does not begin with an SOI marker.
    NotAJpeg,
    /// The stream ended (or hit a marker) where entropy data or a segment
    /// body was expected.
    UnexpectedEof,
    /// A frame type other than baseline sequential (SOF0) was found; the
    /// payload is the SOF marker code.
    UnsupportedFrame(u8),
    /// The scan referenced a quantization or Huffman table that was never
    /// defined; the payload names the table kind.
    MissingTable(&'static str),
    /// EOI was reached without any SOS scan.
    MissingScan,
    /// A bit pattern matched no Huffman code.
    BadHuffmanCode,
    /// A structural constraint was violated; the payload describes it.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeJpegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeJpegError::NotAJpeg => write!(f, "data does not start with a JPEG SOI marker"),
            DecodeJpegError::UnexpectedEof => write!(f, "unexpected end of JPEG data"),
            DecodeJpegError::UnsupportedFrame(m) => {
                write!(f, "unsupported JPEG frame type (marker 0xff{m:02x})")
            }
            DecodeJpegError::MissingTable(kind) => {
                write!(f, "scan references an undefined {kind} table")
            }
            DecodeJpegError::MissingScan => write!(f, "no scan data before end of image"),
            DecodeJpegError::BadHuffmanCode => write!(f, "invalid huffman code in entropy data"),
            DecodeJpegError::Malformed(what) => write!(f, "malformed JPEG: {what}"),
        }
    }
}

impl std::error::Error for DecodeJpegError {}

/// Peak signal-to-noise ratio between two same-sized images, in dB.
///
/// Returns `f64::INFINITY` for identical images.
///
/// # Panics
///
/// Panics if dimensions or channel counts differ.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    assert_eq!(a.width(), b.width(), "width mismatch");
    assert_eq!(a.height(), b.height(), "height mismatch");
    assert_eq!(a.channels(), b.channels(), "channel mismatch");
    let mse: f64 = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.raw_len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vserve_tensor::PixelFormat;

    fn round_trip(img: &Image, opts: &EncodeOptions) -> (Image, usize) {
        let bytes = encode(img, opts);
        let back = decode(&bytes).expect("decode own output");
        (back, bytes.len())
    }

    #[test]
    fn gradient_round_trip_high_quality() {
        let img = Image::gradient(160, 120);
        let (back, _) = round_trip(
            &img,
            &EncodeOptions {
                quality: 95,
                subsampling: Subsampling::S444,
                ..EncodeOptions::default()
            },
        );
        assert_eq!((back.width(), back.height()), (160, 120));
        let p = psnr(&img, &back);
        assert!(p > 35.0, "psnr {p}");
    }

    #[test]
    fn s420_round_trip_reasonable_quality() {
        let img = Image::gradient(97, 61); // non-multiple-of-16 dims
        let (back, _) = round_trip(&img, &EncodeOptions::default());
        let p = psnr(&img, &back);
        assert!(p > 28.0, "psnr {p}");
    }

    #[test]
    fn grayscale_round_trip() {
        let img = Image::gradient(40, 40).to_gray();
        let (back, _) = round_trip(
            &img,
            &EncodeOptions {
                quality: 90,
                subsampling: Subsampling::S444,
                ..EncodeOptions::default()
            },
        );
        assert_eq!(back.format(), PixelFormat::Gray8);
        let p = psnr(&img, &back);
        assert!(p > 35.0, "psnr {p}");
    }

    #[test]
    fn decode_bit_identical_across_simd_levels() {
        // Full decode (IDCT blocks + upsample/color-convert) must produce
        // the same bytes at every dispatch level. Odd width exercises the
        // strip tail; S420 exercises the subsampled gather path.
        for subsampling in [Subsampling::S444, Subsampling::S420] {
            let img = Image::gradient(97, 43);
            let bytes = encode(
                &img,
                &EncodeOptions {
                    quality: 85,
                    subsampling,
                    ..EncodeOptions::default()
                },
            );
            vserve_simd::set_level(vserve_simd::Level::Scalar);
            let want = decode(&bytes).expect("scalar decode");
            for level in vserve_simd::available_levels() {
                vserve_simd::set_level(level);
                let got = decode(&bytes).expect("decode");
                assert_eq!(
                    want.as_bytes(),
                    got.as_bytes(),
                    "level={level} subsampling={subsampling:?}"
                );
            }
            vserve_simd::reset_level();
        }
    }

    #[test]
    fn quality_controls_size_and_fidelity() {
        let img = Image::noise(96, 96, 3);
        let low = encode(
            &img,
            &EncodeOptions {
                quality: 20,
                subsampling: Subsampling::S420,
                ..EncodeOptions::default()
            },
        );
        let high = encode(
            &img,
            &EncodeOptions {
                quality: 95,
                subsampling: Subsampling::S420,
                ..EncodeOptions::default()
            },
        );
        assert!(
            low.len() < high.len(),
            "q20 {} bytes vs q95 {} bytes",
            low.len(),
            high.len()
        );
        let p_low = psnr(&img, &decode(&low).unwrap());
        let p_high = psnr(&img, &decode(&high).unwrap());
        assert!(p_high > p_low, "psnr {p_high} vs {p_low}");
    }

    #[test]
    fn s420_is_smaller_than_s444() {
        let img = Image::gradient(128, 128);
        let s420 = encode(
            &img,
            &EncodeOptions {
                quality: 85,
                subsampling: Subsampling::S420,
                ..EncodeOptions::default()
            },
        );
        let s444 = encode(
            &img,
            &EncodeOptions {
                quality: 85,
                subsampling: Subsampling::S444,
                ..EncodeOptions::default()
            },
        );
        assert!(s420.len() < s444.len());
    }

    #[test]
    fn tiny_images_survive() {
        for (w, h) in [(1, 1), (1, 9), (9, 1), (7, 7), (8, 8), (17, 17)] {
            let img = Image::gradient(w, h);
            let (back, _) = round_trip(&img, &EncodeOptions::default());
            assert_eq!((back.width(), back.height()), (w, h));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(&[]).unwrap_err(), DecodeJpegError::NotAJpeg);
        assert_eq!(
            decode(&[0x89, b'P', b'N', b'G']).unwrap_err(),
            DecodeJpegError::NotAJpeg
        );
        // SOI then EOI: no scan.
        assert_eq!(
            decode(&[0xff, 0xd8, 0xff, 0xd9]).unwrap_err(),
            DecodeJpegError::MissingScan
        );
    }

    #[test]
    fn decode_rejects_progressive() {
        // SOI + SOF2 header stub.
        let data = [
            0xff, 0xd8, 0xff, 0xc2, 0x00, 0x0b, 8, 0, 8, 0, 8, 1, 1, 0x11, 0,
        ];
        assert_eq!(
            decode(&data).unwrap_err(),
            DecodeJpegError::UnsupportedFrame(0xc2)
        );
    }

    #[test]
    fn sos_table_selector_out_of_range_is_an_error() {
        // One byte from the wire: the first component's Td/Ta selector.
        let mut bytes = encode(&Image::gradient(32, 32), &EncodeOptions::default());
        let sos = bytes
            .windows(2)
            .position(|w| w == [0xff, 0xda])
            .expect("has SOS");
        // FF DA, length (2), component count (1), component id (1), Td/Ta.
        bytes[sos + 6] = 0x50;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DecodeJpegError::Malformed("Huffman table id out of range")
        );
        bytes[sos + 6] = 0x05;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncated_scan_errors() {
        let img = Image::gradient(32, 32);
        let bytes = encode(&img, &EncodeOptions::default());
        let cut = &bytes[..bytes.len() * 2 / 3];
        assert!(decode(cut).is_err());
    }

    #[test]
    fn restart_intervals_round_trip() {
        let img = Image::gradient(96, 80);
        for dri in [1u16, 2, 3, 7] {
            for subsampling in [Subsampling::S444, Subsampling::S420] {
                let opts = EncodeOptions {
                    quality: 90,
                    subsampling,
                    restart_interval: Some(dri),
                };
                let bytes = encode(&img, &opts);
                // The stream actually contains RSTn markers.
                let rst = bytes
                    .windows(2)
                    .filter(|w| w[0] == 0xff && (0xd0..=0xd7).contains(&w[1]))
                    .count();
                assert!(rst > 0, "no RST markers at dri={dri}");
                let back = decode(&bytes).expect("decode with restarts");
                let p = psnr(&img, &back);
                assert!(p > 30.0, "psnr {p} at dri={dri} {subsampling:?}");
            }
        }
    }

    #[test]
    fn restart_interval_zero_is_disabled() {
        let img = Image::gradient(32, 32);
        let with = encode(
            &img,
            &EncodeOptions {
                restart_interval: Some(0),
                ..EncodeOptions::default()
            },
        );
        let without = encode(&img, &EncodeOptions::default());
        assert_eq!(with, without);
    }

    #[test]
    fn decode_with_threads_bit_identical() {
        use vserve_compute::{Backend, Scratch};
        let img = Image::gradient(97, 61); // ragged dims: partial edge MCUs
        for subsampling in [Subsampling::S444, Subsampling::S420] {
            let bytes = encode(
                &img,
                &EncodeOptions {
                    quality: 90,
                    subsampling,
                    ..EncodeOptions::default()
                },
            );
            let want = decode(&bytes).unwrap();
            for threads in [1, 2, 4] {
                let mut scratch = Scratch::new();
                let got = decode_with(&Backend::new(threads), &mut scratch, &bytes).unwrap();
                assert_eq!(
                    want.as_bytes(),
                    got.as_bytes(),
                    "threads={threads} {subsampling:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_decode_reuses_scratch() {
        use vserve_compute::{Backend, Scratch};
        let bytes = encode(&Image::gradient(64, 48), &EncodeOptions::default());
        let bk = Backend::serial();
        let mut scratch = Scratch::new();
        // The largest-first arena needs a few rounds to settle when big
        // and small requests interleave; then it must stop allocating.
        for _ in 0..4 {
            let _ = decode_with(&bk, &mut scratch, &bytes).unwrap();
        }
        let warm = scratch.allocations();
        for _ in 0..4 {
            let _ = decode_with(&bk, &mut scratch, &bytes).unwrap();
        }
        assert_eq!(scratch.allocations(), warm);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let img = Image::gradient(8, 8);
        assert_eq!(psnr(&img, &img), f64::INFINITY);
    }

    #[test]
    fn full_scale_decode_is_byte_identical_to_decode() {
        for (w, h) in [(64, 48), (97, 61)] {
            let bytes = encode(&Image::gradient(w, h), &EncodeOptions::default());
            let full = decode(&bytes).unwrap();
            let scaled = decode_scaled(&bytes, DecodeScale::Full).unwrap();
            assert_eq!(full.as_bytes(), scaled.as_bytes());
        }
    }

    #[test]
    fn scaled_decode_output_dimensions() {
        // Ragged sizes: output must be ceil(dim / denominator).
        let bytes = encode(&Image::gradient(97, 61), &EncodeOptions::default());
        for (scale, w, h) in [
            (DecodeScale::Half, 49, 31),
            (DecodeScale::Quarter, 25, 16),
            (DecodeScale::Eighth, 13, 8),
        ] {
            let img = decode_scaled(&bytes, scale).unwrap();
            assert_eq!((img.width(), img.height()), (w, h), "{scale:?}");
        }
    }

    #[test]
    fn eighth_scale_pixels_are_block_means() {
        // DC-only reconstruction: each output pixel is the mean of its
        // 8×8 block, so it must track the box average of the full decode.
        let img = Image::gradient(64, 64);
        let bytes = encode(
            &img,
            &EncodeOptions {
                quality: 95,
                subsampling: Subsampling::S444,
                ..EncodeOptions::default()
            },
        );
        let full = decode(&bytes).unwrap();
        let eighth = decode_scaled(&bytes, DecodeScale::Eighth).unwrap();
        assert_eq!((eighth.width(), eighth.height()), (8, 8));
        for by in 0..8 {
            for bx in 0..8 {
                for c in 0..3 {
                    let mut acc = 0f64;
                    for y in 0..8 {
                        for x in 0..8 {
                            acc += f64::from(full.pixel(bx * 8 + x, by * 8 + y)[c]);
                        }
                    }
                    let mean = acc / 64.0;
                    let got = f64::from(eighth.pixel(bx, by)[c]);
                    assert!(
                        (got - mean).abs() < 3.0,
                        "block ({bx},{by}) ch {c}: {got} vs mean {mean}"
                    );
                }
            }
        }
    }

    #[test]
    fn scaled_decode_bit_identical_across_threads() {
        use vserve_compute::{Backend, Scratch};
        let bytes = encode(&Image::gradient(97, 61), &EncodeOptions::default());
        for scale in [DecodeScale::Half, DecodeScale::Quarter, DecodeScale::Eighth] {
            let want = decode_scaled(&bytes, scale).unwrap();
            for threads in [2, 4] {
                let mut scratch = Scratch::new();
                let got = decode_scaled_with(&Backend::new(threads), &mut scratch, &bytes, scale)
                    .unwrap();
                assert_eq!(
                    want.as_bytes(),
                    got.as_bytes(),
                    "{scale:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn probe_dimensions_reads_header_only() {
        let bytes = encode(&Image::gradient(123, 45), &EncodeOptions::default());
        assert_eq!(probe_dimensions(&bytes).unwrap(), (123, 45));
        assert_eq!(
            probe_dimensions(&[1, 2, 3, 4]).unwrap_err(),
            DecodeJpegError::NotAJpeg
        );
        // Truncating right after the SOF segment must still succeed: the
        // probe never touches entropy data.
        let sos = bytes
            .windows(2)
            .position(|w| w == [0xff, 0xda])
            .expect("has SOS");
        assert_eq!(probe_dimensions(&bytes[..sos]).unwrap(), (123, 45));
    }

    /// Satellite regression: chroma upsampling index math at the right and
    /// bottom edges of 4:2:0 images whose dimensions are not multiples of
    /// 16 (partial edge MCUs). A future off-by-one in the subsampled-grid
    /// mapping would corrupt exactly these strips while leaving the global
    /// PSNR nearly unchanged, so the strips are checked in isolation.
    #[test]
    fn s420_edge_strips_survive_odd_dimensions() {
        let strip_psnr =
            |a: &Image, b: &Image, xs: std::ops::Range<usize>, ys: std::ops::Range<usize>| {
                let mut se = 0f64;
                let mut n = 0f64;
                for y in ys.clone() {
                    for x in xs.clone() {
                        for c in 0..3 {
                            let d = f64::from(a.pixel(x, y)[c]) - f64::from(b.pixel(x, y)[c]);
                            se += d * d;
                            n += 1.0;
                        }
                    }
                }
                10.0 * (255.0f64 * 255.0 / (se / n)).log10()
            };
        for (w, h) in [(17, 11), (23, 9), (33, 19), (97, 61)] {
            // Chroma-heavy content: red→blue ramp (strong Cb/Cr variation).
            let mut img = Image::zeros(w, h, PixelFormat::Rgb8);
            for y in 0..h {
                for x in 0..w {
                    let r = (x * 255 / w.max(2).saturating_sub(1).max(1)) as u8;
                    img.put_pixel(x, y, [r, 64, 255 - r]);
                }
            }
            let bytes = encode(
                &img,
                &EncodeOptions {
                    quality: 90,
                    subsampling: Subsampling::S420,
                    ..EncodeOptions::default()
                },
            );
            let back = decode(&bytes).unwrap();
            let right = strip_psnr(&img, &back, w.saturating_sub(2)..w, 0..h);
            let bottom = strip_psnr(&img, &back, 0..w, h.saturating_sub(2)..h);
            assert!(
                right > 24.0 && bottom > 24.0,
                "{w}x{h}: right strip {right:.1} dB, bottom strip {bottom:.1} dB"
            );
            // Scaled decode must handle the same ragged geometry.
            for scale in [DecodeScale::Half, DecodeScale::Quarter, DecodeScale::Eighth] {
                let s = decode_scaled(&bytes, scale).unwrap();
                assert_eq!(
                    (s.width(), s.height()),
                    (scale.apply(w), scale.apply(h)),
                    "{w}x{h} {scale:?}"
                );
            }
        }
    }

    /// DCT-domain scaled decode must track the reference chain (full
    /// decode + area downsample to the same dimensions) within a
    /// calibrated PSNR bound. The bound is loose enough for the filter
    /// mismatch (band-limited reconstruction vs box average) yet tight
    /// enough to catch normalization or indexing errors, which cost tens
    /// of dB.
    ///
    /// Asserted only where the scaled output is at least 8 px on both
    /// sides: below that it is a handful of ragged-edge blocks that are
    /// mostly encoder padding (replicated pixels) the reference never
    /// sees — a 16×18 image at 1/8 is 2×3 such pixels and reads 17.9 dB
    /// on correct code — so the number says nothing about the decoder.
    fn assert_scaled_tracks_area(w: usize, h: usize, seed: u64, quality: u8) {
        // Mildly textured content, like the synthetic workload: a
        // gradient with bounded noise so the PSNR bound is stable.
        let mut img = Image::gradient(w, h);
        let noise = Image::noise(w, h, seed);
        for (p, q) in img.as_bytes_mut().iter_mut().zip(noise.as_bytes()) {
            *p = ((u16::from(*p) * 3 + u16::from(*q)) / 4) as u8;
        }
        for subsampling in [Subsampling::S444, Subsampling::S420] {
            let opts = EncodeOptions {
                quality,
                subsampling,
                ..EncodeOptions::default()
            };
            let bytes = encode(&img, &opts);
            let full = decode(&bytes).unwrap();
            for scale in [DecodeScale::Half, DecodeScale::Quarter, DecodeScale::Eighth] {
                let (sw, sh) = (scale.apply(w), scale.apply(h));
                let scaled = decode_scaled(&bytes, scale).unwrap();
                assert_eq!((scaled.width(), scaled.height()), (sw, sh));
                if sw.min(sh) < 8 {
                    continue;
                }
                let reference = vserve_tensor::ops::resize_area(&full, sw, sh);
                let p = psnr(&reference, &scaled);
                assert!(
                    p > 19.0,
                    "{w}x{h} q{quality} {subsampling:?} {scale:?}: psnr {p:.1}"
                );
            }
        }
    }

    /// Every size of the proptest's range once, at a fixed seed rule and
    /// two qualities, so the bound does not depend on which cases a
    /// proptest seed happens to draw.
    #[test]
    fn scaled_decode_tracks_area_downsample_every_size() {
        for w in 16..80 {
            for h in 16..80 {
                for quality in [74, 95] {
                    assert_scaled_tracks_area(w, h, (w * 131 + h) as u64, quality);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_images_round_trip_with_bounded_error(
            w in 1usize..48, h in 1usize..48, seed in any::<u64>(),
            quality in 60u8..=95,
        ) {
            let img = Image::gradient(w, h); // band-limited: quality bound holds
            let _ = seed;
            let bytes = encode(&img, &EncodeOptions { quality, subsampling: Subsampling::S444, ..EncodeOptions::default() });
            let back = decode(&bytes).unwrap();
            prop_assert_eq!((back.width(), back.height()), (w, h));
            let p = psnr(&img, &back);
            prop_assert!(p > 25.0, "psnr {} at q{} {}x{}", p, quality, w, h);
        }

        /// Random sizes, seeds and qualities through
        /// [`assert_scaled_tracks_area`]; the exhaustive size sweep is
        /// `scaled_decode_tracks_area_downsample_every_size`.
        #[test]
        fn scaled_decode_tracks_area_downsample(
            w in 16usize..80, h in 16usize..80, seed in any::<u64>(),
            quality in 70u8..=95,
        ) {
            assert_scaled_tracks_area(w, h, seed, quality);
        }

        #[test]
        fn decoder_never_panics_on_mutations(
            cut in 0usize..mutation_target().len(),
            flip in 0usize..mutation_target().len(),
        ) {
            // Both drawn over the whole file, so the SOS header and the
            // entropy data behind it are in range, not just the tables.
            let mut bytes = mutation_target();
            bytes.truncate(bytes.len() - cut);
            let i = flip % bytes.len();
            bytes[i] ^= 0x55;
            let _ = decode(&bytes); // must not panic
        }
    }

    fn mutation_target() -> Vec<u8> {
        encode(&Image::gradient(24, 24), &EncodeOptions::default())
    }

    #[test]
    fn decoder_never_panics_on_any_single_byte_flip() {
        let bytes = mutation_target();
        for i in 0..bytes.len() {
            for mask in [0x55, 0xff, 0x01] {
                let mut hit = bytes.clone();
                hit[i] ^= mask;
                let _ = decode(&hit); // must not panic
            }
        }
    }
}
