//! The five vectorized hot kernels, written once against [`F32x`] and
//! dispatched at runtime, behind safe, length-checked entry points.
//!
//! Lane placement follows the bit-identity contract (crate docs): lanes
//! span independent output elements only —
//!
//! * [`gemm_tile_8x16`] — lanes across the 16 packed-`B` panel columns
//!   (the left 8 for a half tile); the `p` reduction stays a serial
//!   ascending loop of mul-then-add.
//! * [`gather_even_16`] — the stride-2 im2col copy: lanes across a
//!   panel granule's 16 columns, each a pure copy of an input float.
//! * [`idct8x8`] — both passes are broadcast-coefficient × contiguous
//!   8-wide basis/tmp rows; lanes across `x`, reduction over `u`/`v`
//!   serial ascending.
//! * [`ycbcr_to_rgb_row`] — lanes across pixels; the caller passes
//!   full-resolution Y/Cb/Cr rows (plane rows directly, upsampled
//!   strips for subsampled components), and the round-clamp-cast finish
//!   runs in the lanes too ([`F32x::store_rgb_u8`]: the
//!   truncate-and-compare identity of [`crate::round_u8`], exact for
//!   every `f32`).
//! * [`resize_norm_row`] — lanes across output pixels; the caller
//!   gathers the four bilinear taps into contiguous rows and passes `wx`
//!   as a slice of its per-call tap table, the
//!   lerp / `/255` / normalize arithmetic runs vectorized (division
//!   included — IEEE division is exactly rounded, so `div` is
//!   bit-identical to scalar `/`).
//!
//! Each kernel has a `*_ref` scalar reference twin: a verbatim copy of
//! the consuming crate's original scalar expression, used by the
//! differential tests as the oracle.

use crate::{dispatch, dispatch8, round_u8, F32x, SimdOp};

/// Rows of the GEMM register tile: one packed band of `A` (a conv's output
/// channels), stored p-major as `band[p * TILE_MR + r]`.
pub const TILE_MR: usize = 8;
/// Columns of the GEMM register tile: one packed panel of `B` (im2col
/// columns), stored p-major as `panel[p * TILE_NR + j]`.
pub const TILE_NR: usize = 16;

// ---------------------------------------------------------------- GEMM

/// The `TILE_MR × W` register tile over the first `W` columns of a panel.
struct GemmTile<'a, const W: usize> {
    band: &'a [f32],
    panel: &'a [f32],
    k: usize,
}

impl<const W: usize> SimdOp for GemmTile<'_, W> {
    type Out = [[f32; TILE_NR]; TILE_MR];

    #[inline(always)]
    unsafe fn run<S: F32x>(self) -> Self::Out {
        let GemmTile { band, panel, k } = self;
        let nv = W / S::LANES;
        // Rows per pass over the panel: all 8 when a row is one vector,
        // else 4, so the accumulators fit the register file (AVX2 has 16
        // ymm; 8 rows of two would spill). Each element's sum is the same
        // either way.
        let rows = if nv == 1 { TILE_MR } else { TILE_MR / 2 };
        let ap = band.as_ptr();
        let pp = panel.as_ptr();
        let mut out = [[0f32; TILE_NR]; TILE_MR];
        for r0 in (0..TILE_MR).step_by(rows) {
            let mut acc = [[S::splat(0.0); TILE_NR]; TILE_MR];
            for p in 0..k {
                let mut bv = [S::splat(0.0); TILE_NR];
                for (v, b) in bv.iter_mut().enumerate().take(nv) {
                    let at = p * TILE_NR + v * S::LANES;
                    debug_assert!(at + S::LANES <= panel.len(), "panel load past the end");
                    *b = S::load(pp.add(at));
                }
                for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                    let at = p * TILE_MR + r0 + r;
                    debug_assert!(at < band.len(), "band read past the end");
                    let av = S::splat(*ap.add(at));
                    for v in 0..nv {
                        accr[v] = accr[v].add(av.mul(bv[v]));
                    }
                }
            }
            for (outr, accr) in out[r0..r0 + rows].iter_mut().zip(&acc) {
                for (v, a) in accr.iter().enumerate().take(nv) {
                    debug_assert!((v + 1) * S::LANES <= outr.len(), "tile store past the row");
                    a.store(outr.as_mut_ptr().add(v * S::LANES));
                }
            }
        }
        out
    }
}

/// The `8 × 16` GEMM register micro-kernel: `out[r][j] = Σ_p band[p·8 + r]
/// · panel[p·16 + j]`, accumulated in ascending `p` with unfused
/// mul-then-add from `0.0`, so every element is bit-identical to the naive
/// `(i, p, j)` GEMM at every dispatch level. One zmm per row on AVX-512,
/// two ymm on AVX2 (four rows per pass), four NEON registers, sixteen
/// scalars.
///
/// `cols` is how many leading panel columns the caller keeps. At 8 or
/// fewer only the left half is computed, 8 wide (`dispatch8`: ymm on an
/// AVX-512 host), and `out[r][8..]` is left at zero; at batch 1 a late
/// ResNet layer's 2×2 plane fills 4 of 16 lanes, and the half tile does
/// the same work in the narrower, cheaper instructions.
///
/// # Panics
///
/// Panics if `cols ∉ 1..=16`, `band` is shorter than `8k` or `panel` is
/// shorter than `16k`.
pub fn gemm_tile_8x16(band: &[f32], panel: &[f32], k: usize, cols: usize) -> [[f32; 16]; 8] {
    assert!(
        (1..=TILE_NR).contains(&cols),
        "gemm_tile_8x16: cols {cols} out of range"
    );
    assert!(band.len() >= k * TILE_MR, "gemm_tile_8x16: band too short");
    assert!(
        panel.len() >= k * TILE_NR,
        "gemm_tile_8x16: panel too short"
    );
    if cols <= TILE_NR / 2 {
        dispatch8(GemmTile::<'_, 8> { band, panel, k })
    } else {
        dispatch(GemmTile::<'_, 16> { band, panel, k })
    }
}

/// Scalar reference for [`gemm_tile_8x16`]: the naive loop over the packed
/// layouts, all 16 columns.
pub fn gemm_tile_8x16_ref(band: &[f32], panel: &[f32], k: usize) -> [[f32; 16]; 8] {
    let mut acc = [[0f32; TILE_NR]; TILE_MR];
    for p in 0..k {
        let prow = &panel[p * TILE_NR..(p + 1) * TILE_NR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = band[p * TILE_MR + r];
            for (c, &bv) in accr.iter_mut().zip(prow) {
                *c += av * bv;
            }
        }
    }
    acc
}

// ---------------------------------------------------------------- im2col

/// `count` granules of [`gather_even_16`].
struct GatherEven16<'a> {
    src: &'a [f32],
    dst: &'a mut [f32],
    dst_stride: usize,
    count: usize,
}

impl SimdOp for GatherEven16<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<S: F32x>(self) {
        let GatherEven16 {
            src,
            dst,
            dst_stride,
            count,
        } = self;
        // A vector reads each granule's whole 32-float run, odd tail
        // included; a final run cut short by the end of `src` goes scalar.
        let whole = (src.len() / (2 * TILE_NR)).min(count);
        // SAFETY: for `g < whole` the granule's whole 32-float run lies in
        // `src` (`whole ≤ src.len() / 32`), and `gather_even_16` asserted
        // `dst.len() ≥ (count − 1)·dst_stride + 16`, so every 16-float
        // store of granule `g < count` lies in `dst`.
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        for g in 0..whole {
            for v in (0..TILE_NR).step_by(S::LANES) {
                debug_assert!(g * 2 * TILE_NR + 2 * (v + S::LANES) <= src.len());
                debug_assert!(g * dst_stride + v + S::LANES <= dst.len());
                S::load_even(sp.add(g * 2 * TILE_NR + 2 * v)).store(dp.add(g * dst_stride + v));
            }
        }
        for g in whole..count {
            for o in 0..TILE_NR {
                dst[g * dst_stride + o] = src[g * 2 * TILE_NR + 2 * o];
            }
        }
    }
}

/// The stride-2 im2col copy: `dst[g·dst_stride + o] = src[32·g + 2·o]`
/// for `g < count`, `o < 16`, i.e. the even elements of each 32-float run
/// of `src`, one 16-float panel granule per run. A stride-2 convolution
/// tap reads every other input pixel; this moves a run of them with two
/// loads and a lane permute per granule (one `vpermt2ps` on AVX-512, a
/// shuffle and a cross-lane permute per half on AVX2) instead of sixteen
/// scalar loads. A pure copy, so every level is bit-identical.
///
/// # Panics
///
/// Panics if `count > 0` and `src` is shorter than `32·count − 1` (the
/// last run's odd tail need not exist) or `dst` is shorter than
/// `(count − 1)·dst_stride + 16`.
pub fn gather_even_16(src: &[f32], dst: &mut [f32], dst_stride: usize, count: usize) {
    if count == 0 {
        return;
    }
    assert!(
        src.len() >= 2 * TILE_NR * count - 1,
        "gather_even_16: src too short"
    );
    assert!(
        dst.len() >= (count - 1) * dst_stride + TILE_NR,
        "gather_even_16: dst too short"
    );
    dispatch(GatherEven16 {
        src,
        dst,
        dst_stride,
        count,
    });
}

/// Scalar reference for [`gather_even_16`].
pub fn gather_even_16_ref(src: &[f32], dst: &mut [f32], dst_stride: usize, count: usize) {
    for g in 0..count {
        for o in 0..TILE_NR {
            dst[g * dst_stride + o] = src[g * 2 * TILE_NR + 2 * o];
        }
    }
}

// ---------------------------------------------------------------- IDCT

struct Idct8x8<'a> {
    coeffs: &'a [f32; 64],
    basis: &'a [[f32; 8]; 8],
}

impl SimdOp for Idct8x8<'_> {
    type Out = [f32; 64];

    #[inline(always)]
    unsafe fn run<S: F32x>(self) -> [f32; 64] {
        let Idct8x8 { coeffs, basis } = self;
        let nv = 8 / S::LANES;
        // rows: tmp[v][x] = Σu coeffs[v][u] C[u][x]
        let mut tmp = [0f32; 64];
        for v in 0..8 {
            for blk in 0..nv {
                let mut s = S::splat(0.0);
                for u in 0..8 {
                    let cu = S::load(basis[u].as_ptr().add(blk * S::LANES));
                    s = s.add(S::splat(coeffs[v * 8 + u]).mul(cu));
                }
                s.store(tmp.as_mut_ptr().add(v * 8 + blk * S::LANES));
            }
        }
        // cols: f[y][x] = Σv C[v][y] tmp[v][x]
        let mut out = [0f32; 64];
        for y in 0..8 {
            for blk in 0..nv {
                let mut s = S::splat(0.0);
                for v in 0..8 {
                    let tv = S::load(tmp.as_ptr().add(v * 8 + blk * S::LANES));
                    s = s.add(S::splat(basis[v][y]).mul(tv));
                }
                s.store(out.as_mut_ptr().add(y * 8 + blk * S::LANES));
            }
        }
        out
    }
}

/// Vectorized inverse 8×8 DCT over the caller's precomputed orthonormal
/// basis (`basis[u][x]`), lanes across `x`. Per-element accumulation
/// order matches the scalar triple loop exactly.
pub fn idct8x8(coeffs: &[f32; 64], basis: &[[f32; 8]; 8]) -> [f32; 64] {
    dispatch8(Idct8x8 { coeffs, basis })
}

/// Scalar reference for [`idct8x8`] — verbatim copy of the original
/// `vserve-codec` loops.
pub fn idct8x8_ref(coeffs: &[f32; 64], basis: &[[f32; 8]; 8]) -> [f32; 64] {
    let c = basis;
    let mut tmp = [0f32; 64];
    for v in 0..8 {
        for x in 0..8 {
            let mut s = 0.0;
            for u in 0..8 {
                s += coeffs[v * 8 + u] * c[u][x];
            }
            tmp[v * 8 + x] = s;
        }
    }
    let mut out = [0f32; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut s = 0.0;
            for v in 0..8 {
                s += c[v][y] * tmp[v * 8 + x];
            }
            out[y * 8 + x] = s;
        }
    }
    out
}

// ------------------------------------------------------------- YCbCr

struct YcbcrRow<'a> {
    y: &'a [f32],
    cb: &'a [f32],
    cr: &'a [f32],
    out: &'a mut [u8],
}

impl SimdOp for YcbcrRow<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<S: F32x>(self) {
        let YcbcrRow { y, cb, cr, out } = self;
        let n = y.len();
        let mut i = 0;
        if S::LANES > 1 {
            let c128 = S::splat(128.0);
            let kr = S::splat(1.402);
            let kgb = S::splat(0.344_136);
            let kgr = S::splat(0.714_136);
            let kb = S::splat(1.772);
            while i + S::LANES <= n {
                let yv = S::load(y.as_ptr().add(i));
                let cbv = S::load(cb.as_ptr().add(i)).sub(c128);
                let crv = S::load(cr.as_ptr().add(i)).sub(c128);
                let r = yv.add(kr.mul(crv));
                let g = yv.sub(kgb.mul(cbv)).sub(kgr.mul(crv));
                let b = yv.add(kb.mul(cbv));
                // In bounds: `out.len() == 3 * n` (checked by the safe
                // entry point) and `i + LANES <= n`.
                S::store_rgb_u8(r, g, b, out.as_mut_ptr().add(i * 3));
                i += S::LANES;
            }
        }
        while i < n {
            let (yv, cbv, crv) = (y[i], cb[i] - 128.0, cr[i] - 128.0);
            let r = yv + 1.402 * crv;
            let g = yv - 0.344_136 * cbv - 0.714_136 * crv;
            let b = yv + 1.772 * cbv;
            out[i * 3] = round_u8(r);
            out[i * 3 + 1] = round_u8(g);
            out[i * 3 + 2] = round_u8(b);
            i += 1;
        }
    }
}

/// BT.601 YCbCr→RGB for a row of gathered (upsampled) samples: `y`, `cb`,
/// `cr` are full-resolution rows, `out` receives interleaved RGB. `cb`
/// and `cr` are raw JPEG values (the −128 centering happens inside,
/// vectorized, IEEE-exact).
///
/// # Panics
///
/// Panics unless `y`, `cb`, `cr` have equal lengths and
/// `out.len() == 3 * y.len()`.
pub fn ycbcr_to_rgb_row(y: &[f32], cb: &[f32], cr: &[f32], out: &mut [u8]) {
    assert_eq!(y.len(), cb.len(), "ycbcr_to_rgb_row: cb length");
    assert_eq!(y.len(), cr.len(), "ycbcr_to_rgb_row: cr length");
    assert_eq!(out.len(), y.len() * 3, "ycbcr_to_rgb_row: out length");
    dispatch(YcbcrRow { y, cb, cr, out });
}

/// Scalar reference for [`ycbcr_to_rgb_row`] — verbatim copy of the
/// original `vserve-codec` per-pixel conversion.
pub fn ycbcr_to_rgb_row_ref(y: &[f32], cb: &[f32], cr: &[f32], out: &mut [u8]) {
    for i in 0..y.len() {
        let (yv, cbv, crv) = (y[i], cb[i] - 128.0, cr[i] - 128.0);
        let r = yv + 1.402 * crv;
        let g = yv - 0.344_136 * cbv - 0.714_136 * crv;
        let b = yv + 1.772 * cbv;
        out[i * 3] = r.round().clamp(0.0, 255.0) as u8;
        out[i * 3 + 1] = g.round().clamp(0.0, 255.0) as u8;
        out[i * 3 + 2] = b.round().clamp(0.0, 255.0) as u8;
    }
}

// --------------------------------------------------- fused preprocess

struct ResizeNormRow<'a> {
    p00: &'a [f32],
    p10: &'a [f32],
    p01: &'a [f32],
    p11: &'a [f32],
    wx: &'a [f32],
    wy: f32,
    mean: f32,
    std: f32,
    out: &'a mut [f32],
}

impl SimdOp for ResizeNormRow<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<S: F32x>(self) {
        let ResizeNormRow {
            p00,
            p10,
            p01,
            p11,
            wx,
            wy,
            mean,
            std,
            out,
        } = self;
        let n = out.len();
        let mut i = 0;
        if S::LANES > 1 {
            let one = S::splat(1.0);
            let wyv = S::splat(wy);
            let omwy = S::splat(1.0 - wy);
            let inv255 = S::splat(255.0);
            let mv = S::splat(mean);
            let sv = S::splat(std);
            while i + S::LANES <= n {
                let wxv = S::load(wx.as_ptr().add(i));
                let omwx = one.sub(wxv);
                let top = S::load(p00.as_ptr().add(i))
                    .mul(omwx)
                    .add(S::load(p10.as_ptr().add(i)).mul(wxv));
                let bot = S::load(p01.as_ptr().add(i))
                    .mul(omwx)
                    .add(S::load(p11.as_ptr().add(i)).mul(wxv));
                let v = top.mul(omwy).add(bot.mul(wyv)).div(inv255);
                v.sub(mv).div(sv).store(out.as_mut_ptr().add(i));
                i += S::LANES;
            }
        }
        while i < n {
            let top = p00[i] * (1.0 - wx[i]) + p10[i] * wx[i];
            let bot = p01[i] * (1.0 - wx[i]) + p11[i] * wx[i];
            let v = (top * (1.0 - wy) + bot * wy) / 255.0;
            out[i] = (v - mean) / std;
            i += 1;
        }
    }
}

/// The fused bilinear-resize + `/255` + normalize inner row: the caller
/// gathers the four tap rows and per-pixel `wx`, this computes
/// `((p00·(1−wx)+p10·wx)·(1−wy) + (p01·(1−wx)+p11·wx)·wy) / 255`, then
/// `(v − mean)/std`, lanes across pixels, bit-identical to the scalar
/// expression (division is IEEE-exact).
///
/// # Panics
///
/// Panics unless all five input rows have the same length as `out`.
#[allow(clippy::too_many_arguments)]
pub fn resize_norm_row(
    p00: &[f32],
    p10: &[f32],
    p01: &[f32],
    p11: &[f32],
    wx: &[f32],
    wy: f32,
    mean: f32,
    std: f32,
    out: &mut [f32],
) {
    let n = out.len();
    assert!(
        p00.len() == n && p10.len() == n && p01.len() == n && p11.len() == n && wx.len() == n,
        "resize_norm_row: row length mismatch"
    );
    dispatch(ResizeNormRow {
        p00,
        p10,
        p01,
        p11,
        wx,
        wy,
        mean,
        std,
        out,
    });
}

/// Scalar reference for [`resize_norm_row`] — verbatim copy of the
/// original `vserve-tensor` per-pixel expression.
#[allow(clippy::too_many_arguments)]
pub fn resize_norm_row_ref(
    p00: &[f32],
    p10: &[f32],
    p01: &[f32],
    p11: &[f32],
    wx: &[f32],
    wy: f32,
    mean: f32,
    std: f32,
    out: &mut [f32],
) {
    for i in 0..out.len() {
        let top = p00[i] * (1.0 - wx[i]) + p10[i] * wx[i];
        let bot = p01[i] * (1.0 - wx[i]) + p11[i] * wx[i];
        let v = (top * (1.0 - wy) + bot * wy) / 255.0;
        out[i] = (v - mean) / std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{available_levels, set_level, Level, MAX_LANES};
    use proptest::prelude::*;

    /// Deterministic pseudo-random f32s with awkward magnitudes.
    fn pseudo(seed: u64, n: usize, scale: f32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                let u = (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f32 / (1u64 << 24) as f32;
                (u - 0.5) * 2.0 * scale
            })
            .collect()
    }

    /// The dispatch level is process-wide: every test that sets it holds
    /// this lock, so no test runs its kernels at a level another one set.
    static LEVEL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn level_lock() -> std::sync::MutexGuard<'static, ()> {
        LEVEL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn for_each_level(mut f: impl FnMut(Level)) {
        let _level = level_lock();
        for l in available_levels() {
            assert_eq!(set_level(l), l);
            f(l);
        }
        crate::reset_level();
    }

    #[test]
    fn env_override_and_clamp() {
        let _level = level_lock();
        // Unsupported levels clamp to scalar, supported ones stick.
        for l in [Level::Scalar, Level::Neon, Level::Avx2, Level::Avx512] {
            let applied = set_level(l);
            if crate::supported(l) {
                assert_eq!(applied, l);
            } else {
                assert_eq!(applied, Level::Scalar);
            }
            assert_eq!(crate::active_level(), applied);
        }
        crate::reset_level();
    }

    #[test]
    fn level_names_round_trip() {
        for l in [Level::Scalar, Level::Neon, Level::Avx2, Level::Avx512] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("mmx"), None);
        assert!(Level::Scalar.lanes() == 1 && Level::Avx512.lanes() == 16);
    }

    /// Compares the first `cols` columns of every row bit for bit, and
    /// checks the half tile leaves the right half at zero.
    fn assert_tile_eq(got: &[[f32; 16]; 8], want: &[[f32; 16]; 8], cols: usize, what: &str) {
        for r in 0..TILE_MR {
            assert_eq!(
                got[r][..cols]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                want[r][..cols]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{what} row {r}"
            );
            if cols <= TILE_NR / 2 {
                assert!(got[r][TILE_NR / 2..].iter().all(|&v| v == 0.0), "{what}");
            }
        }
    }

    #[test]
    fn gemm_tile_matches_reference_all_levels_all_shapes() {
        for k in [0usize, 1, 2, 3, 7, 8, 9, 17, 64] {
            let band = pseudo(k as u64 * 31 + 1, k * TILE_MR, 4.0);
            let panel = pseudo(k as u64 * 77 + 5, k * TILE_NR, 4.0);
            let want = gemm_tile_8x16_ref(&band, &panel, k);
            for cols in [1, 8, 9, 16] {
                for_each_level(|l| {
                    let got = gemm_tile_8x16(&band, &panel, k, cols);
                    assert_tile_eq(&got, &want, cols, &format!("level {l} k {k} cols {cols}"));
                });
            }
        }
    }

    #[test]
    fn idct_matches_reference_all_levels() {
        // A plausible basis (the real one lives in vserve-codec).
        let mut basis = [[0f32; 8]; 8];
        for (u, row) in basis.iter_mut().enumerate() {
            let cu = if u == 0 {
                (1.0f64 / 2.0f64.sqrt()) / 2.0
            } else {
                0.5
            };
            for (x, v) in row.iter_mut().enumerate() {
                *v = (cu * ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos())
                    as f32;
            }
        }
        for seed in 0..8u64 {
            let vals = pseudo(seed, 64, 512.0);
            let mut coeffs = [0f32; 64];
            coeffs.copy_from_slice(&vals);
            let want = idct8x8_ref(&coeffs, &basis);
            for_each_level(|l| {
                let got = idct8x8(&coeffs, &basis);
                assert_eq!(
                    got.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "level {l} seed {seed}"
                );
            });
        }
    }

    /// The oracle `round_u8` replaces, libm call and all.
    fn round_u8_ref(v: f32) -> u8 {
        v.round().clamp(0.0, 255.0) as u8
    }

    /// Floats where rounding to `u8` can go wrong: ±64 ulp around every
    /// integer and every half from −2 to 257.5, and the specials.
    fn rounding_edge_cases() -> Vec<f32> {
        let mut out = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            0.499_999_97,
            8_388_607.5,
            8_388_608.0,
            -8_388_607.5,
            2_147_483_648.0,
            -2_147_483_904.0,
            4_294_967_296.0,
        ];
        for k in -2i32..=257 {
            for center in [k as f32, k as f32 + 0.5] {
                let bits = center.to_bits() as i64;
                for d in -64i64..=64 {
                    // Stepping the bit pattern walks ulps away from zero;
                    // either direction is "near `center`", which is all
                    // this needs (±0.0 crossings wrap to tiny/NaN bit
                    // patterns, which are fine inputs too).
                    out.push(f32::from_bits((bits + d) as u32));
                }
            }
        }
        out
    }

    #[test]
    fn round_u8_matches_f32_round_everywhere() {
        for v in rounding_edge_cases() {
            assert_eq!(
                round_u8(v),
                round_u8_ref(v),
                "{v:e} ({:#010x})",
                v.to_bits()
            );
        }
        // A 1-in-1024 stride over every bit pattern, offset so it is not
        // only the patterns whose low mantissa bits are zero.
        for i in 0..(1u32 << 22) {
            let v = f32::from_bits(i << 10 | (i.wrapping_mul(0x9e37) & 0x3ff));
            assert_eq!(round_u8(v), round_u8_ref(v), "{:#010x}", v.to_bits());
        }
    }

    #[test]
    fn ycbcr_row_rounds_like_the_oracle_on_edge_values_at_every_level() {
        // Neutral chroma makes r = g = b = y exactly (finite y), so the
        // edge cases reach the lanes' round-to-u8 finish unchanged; a
        // second pass puts them through the chroma terms as well.
        let edge = rounding_edge_cases();
        let n = edge.len();
        let neutral = vec![128.0f32; n];
        let shifted: Vec<f32> = edge.iter().map(|v| v + 128.0).collect();
        for (y, cb, cr) in [
            (&edge, &neutral, &neutral),
            (&neutral, &shifted, &neutral),
            (&neutral, &neutral, &shifted),
        ] {
            let mut want = vec![0u8; n * 3];
            ycbcr_to_rgb_row_ref(y, cb, cr, &mut want);
            for_each_level(|l| {
                let mut got = vec![0u8; n * 3];
                ycbcr_to_rgb_row(y, cb, cr, &mut got);
                assert_eq!(&got, &want, "level {l}");
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Widths 1..=2*max_lanes hit every lane-tail split at every level.
        #[test]
        fn ycbcr_row_bit_identical_across_levels(
            n in 1usize..=2 * MAX_LANES,
            seed in any::<u64>()
        ) {
            let y: Vec<f32> = pseudo(seed, n, 128.0).iter().map(|v| v + 128.0).collect();
            let cb: Vec<f32> = pseudo(seed ^ 1, n, 128.0).iter().map(|v| v + 128.0).collect();
            let cr: Vec<f32> = pseudo(seed ^ 2, n, 128.0).iter().map(|v| v + 128.0).collect();
            let mut want = vec![0u8; n * 3];
            ycbcr_to_rgb_row_ref(&y, &cb, &cr, &mut want);
            for_each_level(|l| {
                let mut got = vec![0u8; n * 3];
                ycbcr_to_rgb_row(&y, &cb, &cr, &mut got);
                assert_eq!(&got, &want, "level {l}");
            });
        }

        #[test]
        fn resize_norm_row_bit_identical_across_levels(
            n in 1usize..=2 * MAX_LANES,
            seed in any::<u64>(),
            wy in 0f32..1.0
        ) {
            let p00: Vec<f32> = pseudo(seed, n, 128.0).iter().map(|v| v + 128.0).collect();
            let p10: Vec<f32> = pseudo(seed ^ 3, n, 128.0).iter().map(|v| v + 128.0).collect();
            let p01: Vec<f32> = pseudo(seed ^ 4, n, 128.0).iter().map(|v| v + 128.0).collect();
            let p11: Vec<f32> = pseudo(seed ^ 5, n, 128.0).iter().map(|v| v + 128.0).collect();
            let wx: Vec<f32> = pseudo(seed ^ 6, n, 0.5).iter().map(|v| v + 0.5).collect();
            let mut want = vec![0f32; n];
            resize_norm_row_ref(&p00, &p10, &p01, &p11, &wx, wy, 0.485, 0.229, &mut want);
            for_each_level(|l| {
                let mut got = vec![0f32; n];
                resize_norm_row(&p00, &p10, &p01, &p11, &wx, wy, 0.485, 0.229, &mut got);
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(&gb, &wb, "level {l}");
            });
        }

        // Ragged operands as the packers leave them — band rows past `mr`
        // and panel columns past `cols` zero — with both slices starting
        // one float into their buffers, so no vector load is aligned.
        #[test]
        fn gemm_tile_ragged_misaligned_matches_ref_at_every_level(
            k in 1usize..300,
            mr in 1usize..=TILE_MR,
            cols in 1usize..=TILE_NR,
            seed in any::<u64>()
        ) {
            let vals_a = pseudo(seed, k * mr, 8.0);
            let vals_b = pseudo(seed ^ 7, k * cols, 8.0);
            let mut band = vec![0f32; 1 + k * TILE_MR];
            let mut panel = vec![0f32; 1 + k * TILE_NR];
            for p in 0..k {
                band[1 + p * TILE_MR..][..mr].copy_from_slice(&vals_a[p * mr..][..mr]);
                panel[1 + p * TILE_NR..][..cols].copy_from_slice(&vals_b[p * cols..][..cols]);
            }
            let want = gemm_tile_8x16_ref(&band[1..], &panel[1..], k);
            for_each_level(|l| {
                let got = gemm_tile_8x16(&band[1..], &panel[1..], k, cols);
                assert_tile_eq(&got, &want, cols, &format!("level {l} k {k} mr {mr} cols {cols}"));
            });
        }
    }

    #[test]
    fn mul_add_is_two_rounding() {
        // A case where fused a*b+c differs from round(a*b)+c: if some impl
        // switched to FMA this would catch it at the trait level.
        struct Probe {
            a: f32,
            b: f32,
            c: f32,
        }
        impl crate::SimdOp for Probe {
            type Out = f32;
            #[inline(always)]
            unsafe fn run<S: F32x>(self) -> f32 {
                let mut out = [0f32; MAX_LANES];
                S::splat(self.a)
                    .mul_add(S::splat(self.b), S::splat(self.c))
                    .store(out.as_mut_ptr());
                out[0]
            }
        }
        let (a, b, c) = (1.000_000_1f32, 1.000_000_1, -1.000_000_2);
        let want = a * b + c; // two roundings, what scalar code does
        let _level = level_lock();
        for l in available_levels() {
            set_level(l);
            let got = crate::dispatch(Probe { a, b, c });
            assert_eq!(got.to_bits(), want.to_bits(), "level {l}");
        }
        crate::reset_level();
    }

    #[test]
    fn hsum_is_ascending_order() {
        struct Probe<'a>(&'a [f32]);
        impl crate::SimdOp for Probe<'_> {
            type Out = f32;
            #[inline(always)]
            unsafe fn run<S: F32x>(self) -> f32 {
                // Only exercise when the input covers a full vector.
                if self.0.len() < S::LANES {
                    return self.0.iter().fold(0.0, |a, &v| a + v);
                }
                S::load(self.0.as_ptr()).hsum()
            }
        }
        let vals = pseudo(99, MAX_LANES, 1000.0);
        let _level = level_lock();
        for l in available_levels() {
            set_level(l);
            let got = crate::dispatch(Probe(&vals));
            let want = vals[..l.lanes().min(vals.len())]
                .iter()
                .fold(0.0f32, |a, &v| a + v);
            assert_eq!(got.to_bits(), want.to_bits(), "level {l}");
        }
        crate::reset_level();
    }

    #[test]
    fn min_max_lanewise() {
        struct Probe<'a>(&'a [f32], &'a [f32], &'a mut [f32], &'a mut [f32]);
        impl crate::SimdOp for Probe<'_> {
            type Out = ();
            #[inline(always)]
            unsafe fn run<S: F32x>(self) {
                let Probe(a, b, mn, mx) = self;
                let mut i = 0;
                while i + S::LANES <= a.len() {
                    let (va, vb) = (S::load(a.as_ptr().add(i)), S::load(b.as_ptr().add(i)));
                    va.min(vb).store(mn.as_mut_ptr().add(i));
                    va.max(vb).store(mx.as_mut_ptr().add(i));
                    i += S::LANES;
                }
                while i < a.len() {
                    mn[i] = a[i].min(b[i]);
                    mx[i] = a[i].max(b[i]);
                    i += 1;
                }
            }
        }
        let a = pseudo(7, 37, 10.0);
        let b = pseudo(8, 37, 10.0);
        let _level = level_lock();
        for l in available_levels() {
            set_level(l);
            let (mut mn, mut mx) = (vec![0f32; 37], vec![0f32; 37]);
            crate::dispatch(Probe(&a, &b, &mut mn, &mut mx));
            for i in 0..37 {
                assert_eq!(mn[i], a[i].min(b[i]), "level {l} min {i}");
                assert_eq!(mx[i], a[i].max(b[i]), "level {l} max {i}");
            }
        }
        crate::reset_level();
    }

    #[test]
    fn gather_even_matches_ref_at_every_level() {
        // Every count up to three granules, `src` cut to the shortest
        // legal length (the last odd tail missing) or one float longer,
        // both slices starting off a vector boundary, and a destination
        // stride that leaves gaps the kernel must not touch.
        for count in 0..=3usize {
            for extra in [0usize, 1, 2] {
                let len = (2 * TILE_NR * count + extra).saturating_sub(1);
                let src = pseudo(count as u64 * 3 + extra as u64, 1 + len, 9.0);
                let stride = TILE_NR + 5;
                let dst_len = 1 + count * stride;
                let mut want = vec![f32::NAN; dst_len];
                gather_even_16_ref(&src[1..], &mut want[1..], stride, count);
                for_each_level(|l| {
                    let mut got = vec![f32::NAN; dst_len];
                    gather_even_16(&src[1..], &mut got[1..], stride, count);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "level {l} count {count} extra {extra}"
                    );
                });
            }
        }
    }
}
