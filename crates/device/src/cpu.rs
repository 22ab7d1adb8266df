//! Host CPU cost model: preprocessing, request dispatch, staging.

use crate::ImageSpec;

/// Per-pixel SIMD uplift measured by `cargo run --bin kernels` on the
/// reference AVX-512 host: geometric mean of the `jpeg_decode` and
/// `fused_preprocess` simd-vs-scalar speedups in `BENCH_kernels.json`.
/// Hosts without vector units run the same code at factor 1.0.
///
/// Latest full run (AVX-512): jpeg_decode serial 1.905x, fused_preprocess
/// 6.204x → geomean 3.44. Rounded down to stay conservative about the
/// decode share, which carries non-vector Huffman work inside the
/// measured end-to-end number.
pub const SIMD_PX_UPLIFT_MEASURED: f64 = 3.4;

/// Analytic cost model of the host CPU.
///
/// Preprocessing time is the sum of JPEG decode (per-pixel DCT/upsample
/// work plus per-byte Huffman work), resize (read source, write
/// destination), and normalization — the exact pipeline of `vserve-codec`
/// and `vserve-tensor`, whose measured per-element costs anchor the
/// coefficients. Defaults are calibrated so the paper's zero-load shares
/// reproduce: a medium image preprocesses in ≈1.6 ms (56 % of zero-load
/// latency against ViT-Base) and a large image in ≈74 ms (≈97 %).
///
/// # Examples
///
/// ```
/// use vserve_device::{CpuModel, ImageSpec};
///
/// let cpu = CpuModel::i9_13900k();
/// let t = cpu.preprocess_time(&ImageSpec::medium(), 224);
/// assert!(t > 1.2e-3 && t < 2.0e-3, "medium preprocess {t}s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Hardware threads available to the serving process.
    pub cores: usize,
    /// JPEG decode: per-pixel cost (IDCT, color convert), seconds.
    pub decode_s_per_px: f64,
    /// JPEG decode: per-compressed-byte cost (Huffman), seconds.
    pub decode_s_per_byte: f64,
    /// JPEG decode: fixed per-image cost (header parse, setup), seconds.
    pub decode_fixed_s: f64,
    /// Resize: per-source-pixel read cost, seconds.
    pub resize_s_per_src_px: f64,
    /// Resize: per-destination-pixel interpolation cost, seconds.
    pub resize_s_per_dst_px: f64,
    /// Normalize + tensor conversion: per-destination-pixel cost, seconds.
    pub normalize_s_per_px: f64,
    /// Request dispatch (HTTP parse, scheduling, bookkeeping): fixed
    /// seconds per request.
    pub dispatch_fixed_s: f64,
    /// Request dispatch: per-payload-byte copy cost, seconds.
    pub dispatch_s_per_byte: f64,
    /// Host staging bandwidth feeding accelerators (single pageable-copy
    /// path), bytes/second. Shared across all GPUs — the multi-GPU
    /// bottleneck of Fig 9.
    pub staging_bytes_per_s: f64,
    /// RPC fixed cost per request on the network path (frame parse,
    /// socket syscalls, response framing), seconds. Calibrated against
    /// the `vserve-net` loopback measurements (`BENCH_net.json`); zero
    /// when serving in-process.
    pub rpc_fixed_s: f64,
    /// Request serialization/transfer bandwidth of the network path,
    /// payload bytes per second — governs how the RPC leg grows with
    /// image size, the paper's data-transfer row.
    pub serialize_bytes_per_s: f64,
    /// Package idle power, watts.
    pub idle_w: f64,
    /// Marginal power per busy core under vectorized decode load, watts.
    pub core_w: f64,
    /// Vector-unit efficiency factor for the per-pixel arithmetic kernels
    /// (IDCT + color-convert, bilinear interpolation, normalization):
    /// those per-pixel costs are divided by this factor. `1.0` models the
    /// scalar kernels the coefficients were originally calibrated against;
    /// [`CpuModel::i9_13900k_simd`] plants the uplift measured by the
    /// `kernels` bench under runtime SIMD dispatch. Per-byte Huffman work
    /// and fixed per-request costs are sequential and stay uncut.
    pub simd_px_uplift: f64,
}

impl CpuModel {
    /// The paper's host: 13th-gen Intel Core i9-13900K (8P+16E, 32
    /// threads; 24 usable for serving after OS/driver overheads).
    pub fn i9_13900k() -> Self {
        CpuModel {
            cores: 24,
            decode_s_per_px: 5.0e-9,
            decode_s_per_byte: 1.5e-9,
            decode_fixed_s: 30e-6,
            resize_s_per_src_px: 0.8e-9,
            resize_s_per_dst_px: 4.0e-9,
            normalize_s_per_px: 0.5e-9,
            dispatch_fixed_s: 40e-6,
            dispatch_s_per_byte: 0.05e-9,
            staging_bytes_per_s: 8.0e9,
            rpc_fixed_s: 60e-6,
            serialize_bytes_per_s: 2.0e9,
            idle_w: 35.0,
            core_w: 8.0,
            simd_px_uplift: 1.0,
        }
    }

    /// [`i9_13900k`](Self::i9_13900k) with the per-pixel SIMD uplift
    /// measured by the `kernels` bench on an AVX-512 host (geometric mean
    /// of the IDCT + color-convert and fused resize/normalize kernel
    /// speedups under runtime dispatch vs forced-scalar; see
    /// `BENCH_kernels.json`). Huffman and fixed costs are unchanged, so
    /// large-image decode stays per-byte-bound exactly as the paper
    /// measures.
    pub fn i9_13900k_simd() -> Self {
        CpuModel {
            simd_px_uplift: SIMD_PX_UPLIFT_MEASURED,
            ..Self::i9_13900k()
        }
    }

    /// Returns the model with the per-pixel SIMD uplift factor replaced.
    /// Values are clamped to ≥ 1.0 — a vector unit never makes the scalar
    /// baseline slower in this model.
    pub fn with_simd_uplift(mut self, uplift: f64) -> Self {
        self.simd_px_uplift = uplift.max(1.0);
        self
    }

    /// Per-pixel cost divisor for the vectorizable kernels.
    fn px_uplift(&self) -> f64 {
        self.simd_px_uplift.max(1.0)
    }

    /// Single-thread JPEG decode time for `img`, seconds. The per-pixel
    /// IDCT/upsample/color-convert work is divided by the SIMD uplift;
    /// sequential Huffman and fixed setup are not.
    pub fn decode_time(&self, img: &ImageSpec) -> f64 {
        self.decode_fixed_s
            + self.decode_s_per_px * img.pixels() as f64 / self.px_uplift()
            + self.decode_s_per_byte * img.compressed_bytes as f64
    }

    /// Single-thread resize time from `img` to `dst_side²`, seconds. The
    /// per-destination-pixel interpolation arithmetic vectorizes; the
    /// strided source reads are memory-bound and do not.
    pub fn resize_time(&self, img: &ImageSpec, dst_side: usize) -> f64 {
        self.resize_s_per_src_px * img.pixels() as f64
            + self.resize_s_per_dst_px * (dst_side * dst_side) as f64 / self.px_uplift()
    }

    /// Single-thread normalization time at `dst_side²`, seconds.
    pub fn normalize_time(&self, dst_side: usize) -> f64 {
        self.normalize_s_per_px * (dst_side * dst_side * 3) as f64 / self.px_uplift()
    }

    /// Full single-thread preprocessing time (decode + resize + normalize)
    /// for one image resized to `dst_side²`, seconds.
    pub fn preprocess_time(&self, img: &ImageSpec, dst_side: usize) -> f64 {
        self.decode_time(img) + self.resize_time(img, dst_side) + self.normalize_time(dst_side)
    }

    /// Largest DCT-domain downscale denominator in {1, 2, 4, 8} whose
    /// scaled decode output still covers `dst_side²` — mirrors
    /// `vserve_codec::DecodeScale::for_target`.
    pub fn scale_denominator(img: &ImageSpec, dst_side: usize) -> usize {
        if dst_side == 0 {
            return 1;
        }
        for d in [8usize, 4, 2] {
            if img.width.div_ceil(d) >= dst_side && img.height.div_ceil(d) >= dst_side {
                return d;
            }
        }
        1
    }

    /// Single-thread scaled JPEG decode time at downscale denominator
    /// `denom`, seconds. Huffman (per-byte) work is inherently full-cost;
    /// the per-pixel IDCT/upsample/color work shrinks by `denom²`.
    pub fn decode_time_scaled(&self, img: &ImageSpec, denom: usize) -> f64 {
        let d2 = (denom * denom).max(1) as f64;
        self.decode_fixed_s
            + self.decode_s_per_px * img.pixels() as f64 / d2 / self.px_uplift()
            + self.decode_s_per_byte * img.compressed_bytes as f64
    }

    /// Single-thread preprocessing time on the fast path: DCT-domain
    /// scaled decode plus the fused resize→normalize→tensor kernel,
    /// seconds. The fused kernel reads the (scaled) source once and
    /// writes each normalized value in the same pass, so the separate
    /// normalization sweep of [`preprocess_time`](Self::preprocess_time)
    /// disappears into the destination write.
    pub fn preprocess_time_fast(&self, img: &ImageSpec, dst_side: usize) -> f64 {
        let d = Self::scale_denominator(img, dst_side);
        let scaled_px = (img.pixels() / (d * d)).max(1) as f64;
        self.decode_time_scaled(img, d)
            + self.resize_s_per_src_px * scaled_px
            + self.resize_s_per_dst_px * (dst_side * dst_side) as f64 / self.px_uplift()
    }

    /// Cost of serving a preprocessed tensor from the content-addressed
    /// cache: a content hash over the whole payload plus the map lookup,
    /// seconds. Calibrated against the live server's measured hit path
    /// (~1 byte/cycle hashing plus fixed bookkeeping).
    pub fn cache_hit_time(&self, img: &ImageSpec) -> f64 {
        const HASH_S_PER_BYTE: f64 = 0.25e-9;
        const LOOKUP_FIXED_S: f64 = 2e-6;
        LOOKUP_FIXED_S + HASH_S_PER_BYTE * img.compressed_bytes as f64
    }

    /// Per-request host dispatch time (runs on the CPU regardless of where
    /// preprocessing executes), seconds.
    pub fn dispatch_time(&self, img: &ImageSpec) -> f64 {
        self.dispatch_fixed_s + self.dispatch_s_per_byte * img.compressed_bytes as f64
    }

    /// Fixed RPC cost per request arriving over the network front-end
    /// (frame parse, socket syscalls, response framing) — the paper's
    /// serialization row, seconds. Charged only on the TCP path.
    pub fn rpc_time(&self) -> f64 {
        self.rpc_fixed_s
    }

    /// Time to move `payload` bytes of compressed request through the
    /// network path — the paper's client→server data-transfer row,
    /// seconds. Charged only on the TCP path.
    pub fn serialize_time(&self, payload_bytes: usize) -> f64 {
        if self.serialize_bytes_per_s <= 0.0 {
            0.0
        } else {
            payload_bytes as f64 / self.serialize_bytes_per_s
        }
    }

    /// Package power when `busy_cores` cores are active, watts.
    pub fn power(&self, busy_cores: f64) -> f64 {
        self.idle_w + self.core_w * busy_cores.clamp(0.0, self.cores as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuModel {
        CpuModel::i9_13900k()
    }

    #[test]
    fn preprocess_scales_with_size() {
        let s = cpu().preprocess_time(&ImageSpec::small(), 224);
        let m = cpu().preprocess_time(&ImageSpec::medium(), 224);
        let l = cpu().preprocess_time(&ImageSpec::large(), 224);
        assert!(s < m && m < l);
        // Calibration anchors (§4.2): medium ≈ 1.6 ms, large ≈ 74 ms.
        assert!((m - 1.6e-3).abs() < 0.3e-3, "medium {m}");
        assert!(l > 55e-3 && l < 95e-3, "large {l}");
    }

    #[test]
    fn fast_path_beats_baseline_and_matches_scale_selection() {
        let c = cpu();
        // Large images (denominator 8) shed most per-pixel work; medium
        // ones (denominator 1 at 224) only save the fused normalize pass.
        let l = ImageSpec::large();
        assert!(c.preprocess_time_fast(&l, 224) < c.preprocess_time(&l, 224) / 2.0);
        let m = ImageSpec::medium();
        assert!(c.preprocess_time_fast(&m, 224) < c.preprocess_time(&m, 224));
        // Huffman work is irreducible: fast can't drop below it.
        assert!(c.preprocess_time_fast(&l, 224) > c.decode_s_per_byte * l.compressed_bytes as f64);
        // Small images have no headroom: denominator 1 ≈ baseline decode.
        assert_eq!(CpuModel::scale_denominator(&ImageSpec::small(), 224), 1);
        assert_eq!(CpuModel::scale_denominator(&ImageSpec::medium(), 224), 1);
        assert_eq!(
            CpuModel::scale_denominator(&ImageSpec::new(500, 375, 0), 160),
            2
        );
        assert_eq!(CpuModel::scale_denominator(&ImageSpec::large(), 224), 8);
    }

    #[test]
    fn cache_hit_is_orders_cheaper_than_preprocess() {
        let c = cpu();
        let m = ImageSpec::medium();
        assert!(c.cache_hit_time(&m) < 0.05 * c.preprocess_time_fast(&m, 224));
    }

    #[test]
    fn decode_dominates_for_large() {
        let l = ImageSpec::large();
        assert!(cpu().decode_time(&l) > 0.6 * cpu().preprocess_time(&l, 224));
    }

    #[test]
    fn dispatch_much_cheaper_than_preprocess() {
        let m = ImageSpec::medium();
        assert!(cpu().dispatch_time(&m) < 0.1 * cpu().preprocess_time(&m, 224));
    }

    #[test]
    fn rpc_leg_small_but_grows_with_payload() {
        let c = cpu();
        let m = ImageSpec::medium();
        let l = ImageSpec::large();
        let rpc_m = c.rpc_time() + c.serialize_time(m.compressed_bytes);
        let rpc_l = c.rpc_time() + c.serialize_time(l.compressed_bytes);
        assert!(rpc_l > rpc_m, "bigger payloads cost more on the wire");
        // The paper's measurement: the RPC leg is a small slice of the
        // end-to-end time for a medium image, not a dominant stage.
        assert!(rpc_m < 0.25 * c.preprocess_time(&m, 224), "rpc {rpc_m}");
        assert!(rpc_m > 0.0);
    }

    #[test]
    fn simd_uplift_cuts_pixel_work_but_not_huffman() {
        let scalar = cpu();
        let simd = CpuModel::i9_13900k_simd();
        assert!(simd.simd_px_uplift > 1.0);
        let m = ImageSpec::medium();
        let l = ImageSpec::large();
        // Vectorized preprocessing is strictly faster...
        assert!(simd.preprocess_time(&m, 224) < scalar.preprocess_time(&m, 224));
        assert!(simd.preprocess_time_fast(&l, 224) < scalar.preprocess_time_fast(&l, 224));
        // ...but the sequential Huffman + fixed terms are untouched, so
        // the saving is bounded by the per-pixel share.
        let floor = scalar.decode_fixed_s + scalar.decode_s_per_byte * l.compressed_bytes as f64;
        assert!(simd.decode_time(&l) > floor);
        let px_share = scalar.decode_s_per_px * l.pixels() as f64;
        assert!(scalar.decode_time(&l) - simd.decode_time(&l) <= px_share);
        // The paper's headline ordering survives recalibration.
        let s_t = simd.preprocess_time(&ImageSpec::small(), 224);
        let m_t = simd.preprocess_time(&m, 224);
        let l_t = simd.preprocess_time(&l, 224);
        assert!(s_t < m_t && m_t < l_t);
    }

    #[test]
    fn simd_uplift_clamps_below_one() {
        let c = cpu().with_simd_uplift(0.25);
        assert_eq!(c.simd_px_uplift, 1.0);
        assert_eq!(c.preprocess_time(&ImageSpec::medium(), 224), {
            cpu().preprocess_time(&ImageSpec::medium(), 224)
        });
    }

    #[test]
    fn power_clamps_to_core_count() {
        let c = cpu();
        assert_eq!(c.power(0.0), c.idle_w);
        assert_eq!(c.power(1e9), c.idle_w + c.core_w * c.cores as f64);
    }
}
