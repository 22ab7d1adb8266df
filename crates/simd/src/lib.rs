//! Portable SIMD lane layer for the vserve hot kernels.
//!
//! Every other crate in the workspace carries `#![forbid(unsafe_code)]`,
//! so this crate is the single home for vector intrinsics. It exposes:
//!
//! * [`F32x`] — a trait over f32 lane operations (splat / load / store /
//!   add / sub / mul / div / min / max / unfused [`F32x::mul_add`] /
//!   ascending-order [`F32x::hsum`] / round-to-`u8` interleaving
//!   [`F32x::store_rgb_u8`]), implemented for scalar, AVX2 (8 lanes),
//!   AVX-512 (16 lanes) and NEON (4 lanes).
//! * [`round_u8`] — the exact, libm-free `round().clamp(0, 255) as u8`
//!   every pixel loop in the workspace finishes with.
//! * [`SimdOp`] + [`dispatch`]/[`dispatch8`] — write a kernel once,
//!   generic over `S: F32x`, and run it at whatever level the host
//!   supports. [`dispatch8`] demotes AVX-512 to AVX2 for kernels whose
//!   natural row width is 8 (the GEMM panel and the 8×8 IDCT).
//! * [`kernels`] — the four vectorized hot kernels consumed by
//!   `vserve-dnn`, `vserve-codec` and `vserve-tensor` behind safe,
//!   length-checked entry points, plus their scalar reference twins.
//!
//! # Bit-identity contract
//!
//! The workspace pins `tiled == naive` GEMM and thread-count invariance
//! with *exact* equality, so vector paths must preserve the scalar
//! per-element arithmetic: lanes only ever span **independent output
//! elements** (panel columns, IDCT row entries, pixels), never the
//! reduction dimension, and accumulation runs in the same ascending-`p`
//! order with the same mul-then-add rounding sequence. For that reason
//! [`F32x::mul_add`] is deliberately a *two-rounding* composite
//! (`a*b + c` exactly as rustc compiles the scalar expression — rustc
//! does not contract to FMA by default) and implementations must not
//! override it with a fused instruction.
//!
//! Rounding a value that is about to be clamped to `[0, 255]` needs no
//! `f32::round` (an out-of-line `roundf` call on baseline x86-64, and the
//! one step earlier revisions kept scalar per lane): with
//! `c = v.clamp(0.0, 255.0)` and `t = c as i32` (truncation),
//! `t + (c - t as f32 >= 0.5)` equals `v.round().clamp(0.0, 255.0) as u8`
//! for **every** `f32`. Clamp commutes with round (round is monotone and
//! fixes 0 and 255), `c - t` is exact (a multiple of ulp(`c`) smaller
//! than 1), half-away-from-zero is half-up on `c ≥ 0`, and NaN ends at 0
//! both ways (`NaN as i32 == 0`, `NaN >= 0.5` is false). Truncating
//! convert, compare and integer add all exist as vector ops, so
//! [`round_u8`] and [`F32x::store_rgb_u8`] are bit-identical to the
//! `f32::round` oracle at every level
//! (`round_u8_matches_f32_round_everywhere`).
//!
//! # Dispatch order
//!
//! `VSERVE_SIMD=avx512|avx2|neon|scalar` overrides auto-detection; a
//! requested level the host cannot run falls back to scalar (never to a
//! different vector width, so an override is predictable). Otherwise the
//! best detected level wins: AVX-512 > AVX2 on x86-64, NEON on aarch64,
//! scalar elsewhere. [`set_level`] provides the same override
//! programmatically for benches and differential tests.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

pub mod kernels;
mod scalar;
pub use scalar::ScalarF32x;
#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Widest lane count of any [`F32x`] implementation.
const MAX_LANES: usize = 16;

/// `v.round().clamp(0.0, 255.0) as u8` for every `f32` (−0.0, ±∞ and NaN
/// included), without the `roundf` call `f32::round` compiles to below
/// SSE4.1: clamp first, truncate, then add one where the dropped fraction
/// is at least a half. See the crate docs for why this is exact.
#[inline(always)]
pub fn round_u8(v: f32) -> u8 {
    let c = v.clamp(0.0, 255.0);
    let t = c as i32;
    (t + i32::from(c - t as f32 >= 0.5)) as u8
}

/// Operations over a small vector of `f32` lanes.
///
/// All methods are `unsafe`: implementations use CPU intrinsics that are
/// only sound when the corresponding feature is actually enabled, which
/// the [`dispatch`] wrappers guarantee (they are `#[target_feature]`
/// functions selected by runtime detection). Methods must be
/// `#[inline(always)]` so the intrinsics inline into those wrappers.
pub trait F32x: Copy {
    /// Number of f32 lanes.
    const LANES: usize;
    /// Broadcast one value to all lanes.
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    unsafe fn splat(v: f32) -> Self;
    /// Unaligned load of `LANES` consecutive values.
    ///
    /// # Safety
    /// `ptr` must be valid for reading `LANES` f32s; feature must be on.
    unsafe fn load(ptr: *const f32) -> Self;
    /// Unaligned store of `LANES` consecutive values.
    ///
    /// # Safety
    /// `ptr` must be valid for writing `LANES` f32s; feature must be on.
    unsafe fn store(self, ptr: *mut f32);
    /// Lane-wise addition.
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    unsafe fn add(self, rhs: Self) -> Self;
    /// Lane-wise subtraction.
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    unsafe fn sub(self, rhs: Self) -> Self;
    /// Lane-wise multiplication.
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    unsafe fn mul(self, rhs: Self) -> Self;
    /// Lane-wise division (IEEE-exact, so bit-identical to scalar `/`).
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    unsafe fn div(self, rhs: Self) -> Self;
    /// Lane-wise minimum.
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    unsafe fn min(self, rhs: Self) -> Self;
    /// Lane-wise maximum.
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    unsafe fn max(self, rhs: Self) -> Self;
    /// `self * b + c` with **two roundings** — the same sequence rustc
    /// emits for the scalar expression. Never overridden with a fused
    /// multiply-add: FMA's single rounding would break the workspace's
    /// exact `vector == scalar` tests.
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    #[inline(always)]
    unsafe fn mul_add(self, b: Self, c: Self) -> Self {
        self.mul(b).add(c)
    }
    /// Horizontal sum in **ascending lane order** (`l0 + l1 + …`), so the
    /// result matches a scalar left-to-right fold over the lanes.
    ///
    /// # Safety
    /// Caller must ensure the implementation's CPU feature is enabled.
    unsafe fn hsum(self) -> f32;
    /// Rounds every lane of `r`, `g` and `b` to `u8` exactly as
    /// [`round_u8`] does and stores the `3 * LANES` bytes interleaved
    /// (`r0 g0 b0 r1 g1 b1 …`). The default goes lane by lane through
    /// [`round_u8`]; the x86 levels override it with the same identity in
    /// vector registers (truncating convert, `>=` mask, narrow, shuffle).
    ///
    /// # Safety
    /// `out` must be valid for writing `3 * LANES` bytes; feature must be on.
    #[inline(always)]
    unsafe fn store_rgb_u8(r: Self, g: Self, b: Self, out: *mut u8) {
        let mut lanes = [[0f32; MAX_LANES]; 3];
        r.store(lanes[0].as_mut_ptr());
        g.store(lanes[1].as_mut_ptr());
        b.store(lanes[2].as_mut_ptr());
        for l in 0..Self::LANES {
            for (c, ch) in lanes.iter().enumerate() {
                *out.add(l * 3 + c) = round_u8(ch[l]);
            }
        }
    }
}

/// A kernel written once against [`F32x`], monomorphized per level by
/// [`dispatch`]/[`dispatch8`].
pub trait SimdOp: Sized {
    /// Kernel result type.
    type Out;
    /// Run the kernel with lane type `S`.
    ///
    /// # Safety
    /// Must only be called from a context where `S`'s CPU feature is
    /// enabled (the dispatch wrappers). Implementations should be
    /// `#[inline(always)]` so lane ops inline into that context.
    unsafe fn run<S: F32x>(self) -> Self::Out;
}

/// Instruction-set level for the f32 lane layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Plain scalar code — the bit-identity oracle, available everywhere.
    Scalar,
    /// 128-bit NEON, 4 lanes (aarch64 baseline).
    Neon,
    /// 256-bit AVX2, 8 lanes.
    Avx2,
    /// 512-bit AVX-512F, 16 lanes.
    Avx512,
}

impl Level {
    /// Lowercase name, matching the `VSERVE_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Neon => "neon",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    /// Parse a `VSERVE_SIMD` value; `None` for unrecognized strings.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Level::Scalar),
            "neon" => Some(Level::Neon),
            "avx2" => Some(Level::Avx2),
            "avx512" => Some(Level::Avx512),
            _ => None,
        }
    }

    /// f32 lanes at this level.
    pub fn lanes(self) -> usize {
        match self {
            Level::Scalar => 1,
            Level::Neon => 4,
            Level::Avx2 => 8,
            Level::Avx512 => 16,
        }
    }

    /// `true` for [`Level::Scalar`].
    pub fn is_scalar(self) -> bool {
        self == Level::Scalar
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const LVL_UNINIT: u8 = 0;

fn encode(l: Level) -> u8 {
    match l {
        Level::Scalar => 1,
        Level::Neon => 2,
        Level::Avx2 => 3,
        Level::Avx512 => 4,
    }
}

fn decode(v: u8) -> Level {
    match v {
        1 => Level::Scalar,
        2 => Level::Neon,
        3 => Level::Avx2,
        4 => Level::Avx512,
        _ => unreachable!("corrupt simd level {v}"),
    }
}

static ACTIVE: AtomicU8 = AtomicU8::new(LVL_UNINIT);

/// Can this host actually execute `l`?
pub fn supported(l: Level) -> bool {
    match l {
        Level::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => is_x86_feature_detected!("avx512f"),
        #[cfg(target_arch = "aarch64")]
        Level::Neon => true,
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

fn detect_best() -> Level {
    for l in [Level::Avx512, Level::Avx2, Level::Neon] {
        if supported(l) {
            return l;
        }
    }
    Level::Scalar
}

/// Every level this host can run, scalar first, widest last. Tests use
/// this to assert bit-identity under *all* locally available dispatches.
pub fn available_levels() -> Vec<Level> {
    let mut out = vec![Level::Scalar];
    for l in [Level::Neon, Level::Avx2, Level::Avx512] {
        if supported(l) {
            out.push(l);
        }
    }
    out
}

/// The level [`dispatch`] currently routes to.
///
/// Resolved once from `VSERVE_SIMD` (falling back to scalar when the
/// requested level is unsupported, and to auto-detection when the value
/// is unrecognized or unset), then cached; [`set_level`] overrides it.
pub fn active_level() -> Level {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != LVL_UNINIT {
        return decode(v);
    }
    let resolved = match std::env::var("VSERVE_SIMD") {
        Ok(s) => match Level::parse(&s) {
            Some(req) if supported(req) => req,
            Some(_) => Level::Scalar,
            None => detect_best(),
        },
        Err(_) => detect_best(),
    };
    ACTIVE.store(encode(resolved), Ordering::Relaxed);
    resolved
}

/// Force the dispatch level (benches, differential tests). Unsupported
/// requests clamp to scalar. Returns the level actually applied.
pub fn set_level(l: Level) -> Level {
    let applied = if supported(l) { l } else { Level::Scalar };
    ACTIVE.store(encode(applied), Ordering::Relaxed);
    applied
}

/// Drop any cached/forced level; the next [`active_level`] re-resolves
/// from `VSERVE_SIMD` / auto-detection.
pub fn reset_level() {
    ACTIVE.store(LVL_UNINIT, Ordering::Relaxed);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<O: SimdOp>(op: O) -> O::Out {
    op.run::<x86::Avx2F32x>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<O: SimdOp>(op: O) -> O::Out {
    op.run::<x86::Avx512F32x>()
}

/// Run `op` at the active level, full width.
pub fn dispatch<O: SimdOp>(op: O) -> O::Out {
    // SAFETY: each arm is only reachable when `active_level()` returned a
    // level `supported()` said the host can execute, so the
    // `#[target_feature]` wrappers are sound to call.
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { run_avx512(op) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { run_avx2(op) },
        #[cfg(target_arch = "aarch64")]
        Level::Neon => unsafe { op.run::<neon::NeonF32x>() },
        _ => unsafe { op.run::<ScalarF32x>() },
    }
}

/// Run `op` at the active level, demoting AVX-512 to AVX2.
///
/// For kernels whose natural row width is 8 (the `GEMM_NR` panel, the
/// 8×8 IDCT) a 16-lane vector cannot fill; every avx512f machine also has
/// AVX2, so those kernels run 8-wide there instead of falling to scalar.
pub fn dispatch8<O: SimdOp>(op: O) -> O::Out {
    // SAFETY: as in `dispatch`; avx512f implies avx2.
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 | Level::Avx2 => unsafe { run_avx2(op) },
        #[cfg(target_arch = "aarch64")]
        Level::Neon => unsafe { op.run::<neon::NeonF32x>() },
        _ => unsafe { op.run::<ScalarF32x>() },
    }
}
