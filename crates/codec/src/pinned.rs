//! Pinned output bits for the decode and preprocessing paths.
//!
//! The cross-level identity tests prove `SIMD == scalar` at whatever the
//! code is today; this test proves `today == before`. It hashes every
//! output of `decode`, `decode_scaled` ×3, `preprocess_jpeg` and the
//! baseline `vserve_tensor::ops` chain over a deterministic grid and
//! compares against constants **produced by commit `815211c`** (the last
//! commit whose pixel loops called `f32::round` / `f32::floor` per
//! element). A change to any rounding, tap or upsampling expression on
//! these paths must keep every constant; re-pin only when an output change
//! is the intent, and say so in the commit.

use vserve_tensor::{ops, Image, PixelFormat};

use crate::{
    decode, decode_scaled, encode, preprocess_jpeg, DecodeScale, EncodeOptions, Subsampling,
};

/// Constants generated at the parent commit, one per output family.
const PINNED: [(&str, u64); 5] = [
    ("decode", 0x6cd2_70d0_6851_1f0e),
    ("decode_scaled", 0x24e7_f7ea_a34b_9323),
    ("preprocess_jpeg", 0xb794_0668_0583_7ae5),
    ("baseline_ops", 0xf3ba_151b_c921_3f65),
    ("gray_restart_large", 0xdbc2_1046_608a_f6fe),
];

const SCALES: [DecodeScale; 3] = [DecodeScale::Half, DecodeScale::Quarter, DecodeScale::Eighth];

/// FNV-1a over the bytes fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn image(&mut self, img: &Image) {
        self.bytes(&(img.width() as u32).to_le_bytes());
        self.bytes(&(img.height() as u32).to_le_bytes());
        self.bytes(&[img.channels() as u8]);
        self.bytes(img.as_bytes());
    }

    fn tensor(&mut self, t: &vserve_tensor::Tensor) {
        for &d in t.shape() {
            self.bytes(&(d as u32).to_le_bytes());
        }
        for v in t.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Three kinds of content by `kind % 3`: textured gradient (the workload's
/// look), full-range noise (every coefficient busy), and salt-and-pepper
/// extremes (ringing overshoots [0, 255], so the clamp decides bits).
fn content(w: usize, h: usize, kind: u64) -> Image {
    let noise = Image::noise(w, h, kind);
    let mut img = Image::gradient(w, h);
    for (p, q) in img.as_bytes_mut().iter_mut().zip(noise.as_bytes()) {
        *p = match kind % 3 {
            0 => ((u16::from(*p) * 3 + u16::from(*q)) / 4) as u8,
            1 => *q,
            _ => {
                if *q & 1 == 0 {
                    0
                } else {
                    255
                }
            }
        };
    }
    img
}

fn families() -> [u64; 5] {
    let mut fam = [Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new()];
    let [dec, scaled, fast, base, misc] = &mut fam;

    // Every width 1..=89 with a ragged, unrelated height; both
    // subsamplings; three qualities.
    for w in 1..=89usize {
        let h = 1 + (w * 37) % 89;
        for subsampling in [Subsampling::S444, Subsampling::S420] {
            for quality in [30u8, 74, 95] {
                let img = content(w, h, (w + usize::from(quality)) as u64);
                let opts = EncodeOptions {
                    quality,
                    subsampling,
                    ..EncodeOptions::default()
                };
                let bytes = encode(&img, &opts);
                let full = decode(&bytes).expect("decode");
                dec.image(&full);
                for scale in SCALES {
                    scaled.image(&decode_scaled(&bytes, scale).expect("scaled decode"));
                }
                for side in [7, 16, 64] {
                    fast.tensor(&preprocess_jpeg(&bytes, side).expect("fast path"));
                }
                if w % 4 == 1 {
                    fast.tensor(&preprocess_jpeg(&bytes, 224).expect("fast path"));
                }
                // The baseline (`fast_preproc: false`) chain: area resize
                // above 2× downscale, bilinear otherwise, grey conversion.
                base.tensor(&ops::standard_preprocess(&full, 7));
                base.tensor(&ops::standard_preprocess(&full, 64));
                base.image(&ops::resize_bilinear(&full, 33, 21));
                base.image(&ops::resize_area(&full, w.div_ceil(3), h.div_ceil(2)));
                let gray = full.to_gray();
                base.image(&gray);
                base.image(&ops::resize_bilinear(&gray, 16, 16));
            }
        }
    }

    // Gray8 JPEGs (single-component assembly), restart intervals, and the
    // benchmark-sized images that run many strips per row and pick each
    // of the four decode scales for a 224 target.
    for w in (1..=70usize).step_by(3) {
        let h = 1 + (w * 11) % 53;
        let gray = content(w, h, w as u64).to_gray();
        assert_eq!(gray.format(), PixelFormat::Gray8);
        let bytes = encode(&gray, &EncodeOptions::default());
        misc.image(&decode(&bytes).expect("gray decode"));
        for scale in SCALES {
            misc.image(&decode_scaled(&bytes, scale).expect("gray scaled"));
        }
        misc.tensor(&preprocess_jpeg(&bytes, 16).expect("gray fast path"));
    }
    for (w, h, dri) in [(97usize, 61usize, 3u16), (40, 72, 1)] {
        let opts = EncodeOptions {
            restart_interval: Some(dri),
            ..EncodeOptions::default()
        };
        let bytes = encode(&content(w, h, 5), &opts);
        misc.image(&decode(&bytes).expect("restart decode"));
        misc.tensor(&preprocess_jpeg(&bytes, 32).expect("restart fast path"));
    }
    for (w, h) in [(500usize, 375usize), (640, 480), (1100, 950), (1800, 1800)] {
        let bytes = encode(&content(w, h, 9), &EncodeOptions::default());
        let full = decode(&bytes).expect("large decode");
        misc.image(&full);
        misc.tensor(&preprocess_jpeg(&bytes, 224).expect("large fast path"));
        misc.tensor(&preprocess_jpeg(&bytes, 300).expect("large fast path"));
        misc.tensor(&ops::standard_preprocess(&full, 224));
    }

    fam.map(|f| f.0)
}

#[test]
fn outputs_match_bits_pinned_at_parent_commit() {
    for level in vserve_simd::available_levels() {
        vserve_simd::set_level(level);
        let got = families();
        vserve_simd::reset_level();
        let moved: Vec<String> = PINNED
            .iter()
            .zip(got)
            .filter(|((_, want), got)| want != got)
            .map(|((name, want), got)| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
            .collect();
        assert!(moved.is_empty(), "level {level}: {moved:#?}");
    }
}
