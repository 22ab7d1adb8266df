//! AVX2 (8-lane) and AVX-512F (16-lane) implementations of [`F32x`].
//!
//! Every method is `#[inline(always)]` so the intrinsics inline into the
//! `#[target_feature]` dispatch wrappers in `lib.rs` — both for codegen
//! quality and because an out-of-line body would be compiled without the
//! feature enabled. `mul_add` keeps its default two-rounding definition
//! (no `_mm*_fmadd_ps`), and `store_rgb_u8` is the truncate-and-compare
//! rounding identity in registers: see the bit-identity contract in the
//! crate docs.

use std::arch::x86_64::*;

use crate::F32x;

/// [`crate::round_u8`] on 8 lanes, results left in the 32-bit lanes.
#[inline(always)]
unsafe fn round_u8_epi32(v: __m256) -> __m256i {
    // `max_ps` returns its second operand when the first is NaN, so NaN
    // becomes 0 here exactly as `NaN as i32` does in the scalar helper.
    let c = _mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), _mm256_set1_ps(255.0));
    let t = _mm256_cvttps_epi32(c);
    let frac = _mm256_sub_ps(c, _mm256_cvtepi32_ps(t));
    let up = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    // True lanes of the mask are all ones, i.e. −1.
    _mm256_sub_epi32(t, _mm256_castps_si256(up))
}

/// [`round_u8_epi32`] on 16 lanes: the same steps with the compare in a
/// mask register, NaN → 0 by the same `max_ps` operand order.
#[inline(always)]
unsafe fn round_u8_epi32_512(v: __m512) -> __m512i {
    let c = _mm512_min_ps(_mm512_max_ps(v, _mm512_setzero_ps()), _mm512_set1_ps(255.0));
    let t = _mm512_cvttps_epi32(c);
    let frac = _mm512_sub_ps(c, _mm512_cvtepi32_ps(t));
    let up = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(frac, _mm512_set1_ps(0.5));
    _mm512_mask_add_epi32(t, up, t, _mm512_set1_epi32(1))
}

/// Stores 8 pixels held as `r | g << 8 | b << 16` in the 32-bit lanes of
/// `px` as 24 interleaved bytes.
#[inline(always)]
unsafe fn store_packed_rgb8(px: __m256i, out: *mut u8) {
    // Drop the empty fourth byte of every pixel inside each 128-bit half
    // (12 bytes = dwords 0..3 of the half), then pull the six full dwords
    // together across the halves.
    let drop4th = _mm256_setr_epi8(
        0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1, //
        0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1, -1, -1,
    );
    let halves = _mm256_shuffle_epi8(px, drop4th);
    let dense = _mm256_permutevar8x32_epi32(halves, _mm256_setr_epi32(0, 1, 2, 4, 5, 6, 3, 7));
    _mm_storeu_si128(out as *mut __m128i, _mm256_castsi256_si128(dense));
    _mm_storel_epi64(
        out.add(16) as *mut __m128i,
        _mm256_extracti128_si256::<1>(dense),
    );
}

/// 8 × f32 in a `__m256`.
#[derive(Clone, Copy)]
pub struct Avx2F32x(__m256);

impl F32x for Avx2F32x {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Avx2F32x(_mm256_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        Avx2F32x(_mm256_loadu_ps(ptr))
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        _mm256_storeu_ps(ptr, self.0);
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        Avx2F32x(_mm256_add_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn sub(self, rhs: Self) -> Self {
        Avx2F32x(_mm256_sub_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        Avx2F32x(_mm256_mul_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn div(self, rhs: Self) -> Self {
        Avx2F32x(_mm256_div_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn min(self, rhs: Self) -> Self {
        Avx2F32x(_mm256_min_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn max(self, rhs: Self) -> Self {
        Avx2F32x(_mm256_max_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn hsum(self) -> f32 {
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), self.0);
        lanes.iter().fold(0.0, |acc, &v| acc + v)
    }

    #[inline(always)]
    unsafe fn store_rgb_u8(r: Self, g: Self, b: Self, out: *mut u8) {
        let (r, g, b) = (
            round_u8_epi32(r.0),
            round_u8_epi32(g.0),
            round_u8_epi32(b.0),
        );
        let gb = _mm256_or_si256(_mm256_slli_epi32::<8>(g), _mm256_slli_epi32::<16>(b));
        store_packed_rgb8(_mm256_or_si256(r, gb), out);
    }
}

/// 16 × f32 in a `__m512`.
#[derive(Clone, Copy)]
pub struct Avx512F32x(__m512);

impl F32x for Avx512F32x {
    const LANES: usize = 16;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Avx512F32x(_mm512_set1_ps(v))
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        Avx512F32x(_mm512_loadu_ps(ptr))
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        _mm512_storeu_ps(ptr, self.0);
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        Avx512F32x(_mm512_add_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn sub(self, rhs: Self) -> Self {
        Avx512F32x(_mm512_sub_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        Avx512F32x(_mm512_mul_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn div(self, rhs: Self) -> Self {
        Avx512F32x(_mm512_div_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn min(self, rhs: Self) -> Self {
        Avx512F32x(_mm512_min_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn max(self, rhs: Self) -> Self {
        Avx512F32x(_mm512_max_ps(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn hsum(self) -> f32 {
        // NOT _mm512_reduce_add_ps: that reduces pairwise, which is a
        // different summation order than the scalar left-to-right fold.
        let mut lanes = [0f32; 16];
        _mm512_storeu_ps(lanes.as_mut_ptr(), self.0);
        lanes.iter().fold(0.0, |acc, &v| acc + v)
    }

    #[inline(always)]
    unsafe fn store_rgb_u8(r: Self, g: Self, b: Self, out: *mut u8) {
        let gb = _mm512_or_si512(
            _mm512_slli_epi32::<8>(round_u8_epi32_512(g.0)),
            _mm512_slli_epi32::<16>(round_u8_epi32_512(b.0)),
        );
        let px = _mm512_or_si512(round_u8_epi32_512(r.0), gb);
        // The byte shuffle is AVX-512BW at 512 bits; avx512f implies
        // avx2, so pack the two halves with the 256-bit routine.
        store_packed_rgb8(_mm512_castsi512_si256(px), out);
        store_packed_rgb8(_mm512_extracti64x4_epi64::<1>(px), out.add(24));
    }
}
