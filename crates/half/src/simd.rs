//! Runtime-dispatched vector kernels for bulk F32↔F16 conversion.
//!
//! Every path here is **bit-exact** against the canonical scalar
//! conversions in [`crate::convert`] — same round-to-nearest-even, same
//! subnormal generation, same overflow-to-infinity threshold (65520),
//! same NaN handling (quiet bit forced, top payload bits preserved) and
//! the same flush of f32-subnormal inputs to signed zero. Proptests in
//! `tests/proptests.rs` force every tier and compare against scalar,
//! including an exhaustive sweep of all 2^16 half patterns.
//!
//! * **AVX2 tier** uses the F16C hardware conversions (`vcvtps2ph` /
//!   `vcvtph2ps` with round-to-nearest), which implement exactly the
//!   scalar semantics above.
//! * **SSE4.2 tier** uses the classic integer+magic-float algorithm
//!   (Giesen-style `float_to_half_fast3_rtne`), modified to preserve NaN
//!   payload top bits and force the quiet bit like the scalar path does.
//! * Tails shorter than the vector width and the **scalar tier** run the
//!   scalar conversion loop, so `SCIML_SIMD=scalar` output is byte-for-
//!   byte the pre-dispatch behavior. Any host without the x86-64 tiers,
//!   aarch64 included, runs the scalar tier.
//!
//! The vector kernels are safe `#[target_feature]` fns over eight-value
//! chunks of both slices, so unequal lengths cannot overrun; the typed
//! loads and stores below are the only `unsafe` besides the dispatch.
//! Dispatch is decided per slice call via [`sciml_simd::active_level`]
//! and recorded in the shared dispatch counters so observability can
//! tell which path actually ran.

use crate::convert::{f16_bits_from_f32, f32_from_f16_bits};
use crate::F16;
use sciml_simd::{active_level, record, Kernel, SimdLevel};

#[inline]
fn narrow_scalar(src: &[f32], dst: &mut [F16]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16(f16_bits_from_f32(s));
    }
}

#[inline]
fn narrow_affine_scalar(src: &[f32], scale: f32, offset: f32, dst: &mut [F16]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16(f16_bits_from_f32((s - offset) * scale));
    }
}

#[inline]
fn widen_scalar(src: &[F16], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f32_from_f16_bits(s.0);
    }
}

/// Bulk `f32 -> f16`, dispatched. Caller guarantees equal lengths.
pub(crate) fn narrow_dispatch(src: &[f32], dst: &mut [F16]) {
    debug_assert_eq!(src.len(), dst.len());
    let lvl = active_level();
    record(Kernel::HalfNarrow, lvl);
    match lvl {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_level` returns Avx2 only where the probe
        // verified avx2+f16c+sse4.2 on this CPU.
        SimdLevel::Avx2 => unsafe { x86::narrow_avx2(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Sse42 from `active_level` implies the probe detected
        // sse4.2 (and thus sse2..sse4.1) on this CPU.
        SimdLevel::Sse42 => unsafe { x86::narrow_sse(src, dst) },
        _ => narrow_scalar(src, dst),
    }
}

/// Bulk fused `(x - offset) * scale` then `f32 -> f16`, dispatched.
/// Bit-exact versus the scalar expression because the vector sub/mul
/// are the same IEEE single-precision operations. Caller guarantees
/// equal lengths.
pub(crate) fn narrow_affine_dispatch(src: &[f32], scale: f32, offset: f32, dst: &mut [F16]) {
    debug_assert_eq!(src.len(), dst.len());
    let lvl = active_level();
    record(Kernel::HalfNarrow, lvl);
    match lvl {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `narrow_dispatch`, the probe verified avx2+f16c.
        SimdLevel::Avx2 => unsafe { x86::narrow_affine_avx2(src, scale, offset, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `narrow_dispatch`, the probe verified sse4.2.
        SimdLevel::Sse42 => unsafe { x86::narrow_affine_sse(src, scale, offset, dst) },
        _ => narrow_affine_scalar(src, scale, offset, dst),
    }
}

/// Bulk `f16 -> f32` (exact), dispatched. Caller guarantees equal
/// lengths.
pub(crate) fn widen_dispatch(src: &[F16], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    let lvl = active_level();
    record(Kernel::HalfWiden, lvl);
    match lvl {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `narrow_dispatch`, the probe verified avx2+f16c.
        SimdLevel::Avx2 => unsafe { x86::widen_avx2(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `narrow_dispatch`, the probe verified sse4.2.
        SimdLevel::Sse42 => unsafe { x86::widen_sse(src, dst) },
        _ => widen_scalar(src, dst),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{narrow_affine_scalar, narrow_scalar, widen_scalar};
    use crate::F16;
    use core::arch::x86_64::*;

    /// Eight values, loaded.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load8(v: &[f32; 8]) -> __m256 {
        // SAFETY: `v` is eight readable f32s; the load is unaligned.
        unsafe { _mm256_loadu_ps(v.as_ptr()) }
    }

    /// Eight values, stored.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store8(v: &mut [f32; 8], x: __m256) {
        // SAFETY: `v` is eight writable f32s; the store is unaligned.
        unsafe { _mm256_storeu_ps(v.as_mut_ptr(), x) }
    }

    /// Eight values as two vectors of four.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn load4x2(v: &[f32; 8]) -> [__m128; 2] {
        // SAFETY: `v` is eight readable f32s, four at each pointer; the
        // loads are unaligned.
        unsafe { [_mm_loadu_ps(v.as_ptr()), _mm_loadu_ps(v.as_ptr().add(4))] }
    }

    /// Two vectors of four values, stored as eight.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn store4x2(v: &mut [f32; 8], x: [__m128; 2]) {
        // SAFETY: `v` is eight writable f32s, four at each pointer; the
        // stores are unaligned.
        unsafe {
            _mm_storeu_ps(v.as_mut_ptr(), x[0]);
            _mm_storeu_ps(v.as_mut_ptr().add(4), x[1]);
        }
    }

    /// Eight halves, loaded as one 16-byte vector.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn load_halves(v: &[F16; 8]) -> __m128i {
        // SAFETY: `F16` is repr(transparent) over u16, so `v` is sixteen
        // readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(v.as_ptr().cast()) }
    }

    /// Eight halves, stored from one 16-byte vector.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn store_halves(v: &mut [F16; 8], x: __m128i) {
        // SAFETY: `F16` is repr(transparent) over u16, so `v` is sixteen
        // writable bytes, and every bit pattern is a valid `F16`; the
        // store is unaligned.
        unsafe { _mm_storeu_si128(v.as_mut_ptr().cast(), x) }
    }

    /// `f16 := round_to_nearest_even(f32)` for 8 lanes via F16C. The
    /// hardware instruction matches `f16_bits_from_f32` exactly: RTNE,
    /// subnormal generation, 65520 overflow threshold, f32 subnormals
    /// flushed only by the rounding itself (they are < 2^-126, far below
    /// the half subnormal tie at 2^-25, so both produce signed zero),
    /// and NaNs quieted with the top 9 payload bits kept.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn narrow_avx2(src: &[f32], dst: &mut [F16]) {
        let (src8, src_tail) = src.as_chunks::<8>();
        let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
        for (s, d) in src8.iter().zip(dst8) {
            store_halves(d, _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(load8(s)));
        }
        narrow_scalar(src_tail, dst_tail);
    }

    /// Fused affine + narrow for 8 lanes (same IEEE sub/mul as scalar,
    /// then the F16C conversion).
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn narrow_affine_avx2(src: &[f32], scale: f32, offset: f32, dst: &mut [F16]) {
        let off = _mm256_set1_ps(offset);
        let sc = _mm256_set1_ps(scale);
        let (src8, src_tail) = src.as_chunks::<8>();
        let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
        for (s, d) in src8.iter().zip(dst8) {
            let y = _mm256_mul_ps(_mm256_sub_ps(load8(s), off), sc);
            store_halves(d, _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(y));
        }
        narrow_affine_scalar(src_tail, scale, offset, dst_tail);
    }

    /// Exact `f16 -> f32` widening for 8 lanes via F16C. `vcvtph2ps` is
    /// exact and quiets signaling NaNs while preserving the payload —
    /// identical to `f32_from_f16_bits`.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn widen_avx2(src: &[F16], dst: &mut [f32]) {
        let (src8, src_tail) = src.as_chunks::<8>();
        let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
        for (s, d) in src8.iter().zip(dst8) {
            store8(d, _mm256_cvtph_ps(load_halves(s)));
        }
        widen_scalar(src_tail, dst_tail);
    }

    // ----- SSE tier: integer + magic-float conversion ----------------
    //
    // Narrowing algorithm per lane (all < 2^31 after sign strip, so
    // signed 32-bit compares are exact):
    //   sign = bits & 0x8000_0000;  a = bits & 0x7FFF_FFFF
    //   a >= 0x4780_0000 (65536):       inf, or NaN with payload kept
    //   a <  0x3880_0000 (2^-14):       subnormal result — float-add
    //       0.5 (exponent 126) so the FP adder performs the shift+RTNE,
    //       then subtract the 0.5 bit pattern to leave the mantissa
    //   otherwise:                      rebias exponent by (15-127)<<23
    //       and add 0xFFF + (bit 13) for RTNE; values in [65520, 65536)
    //       carry into exponent 31 = infinity, exactly like scalar
    //   result |= sign >> 16
    const SIGN32: i32 = 0x8000_0000u32 as i32;
    const NARROW_HI: i32 = 0x4780_0000; // 65536.0f32 bits
    const F32_INF: i32 = 0x7F80_0000;
    const SMALL: i32 = 0x3880_0000; // 2^-14 bits: below => subnormal half
    const HALF_MAGIC: i32 = 126 << 23; // 0.5f32 bits
    const REBIAS_RTNE: i32 = (((15 - 127) << 23) as u32).wrapping_add(0xFFF) as i32;

    /// Narrows 4 f32 lanes to 4 u16-valued u32 lanes (sign applied).
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn narrow4_sse(v: __m128) -> __m128i {
        let bits = _mm_castps_si128(v);
        let sign = _mm_and_si128(bits, _mm_set1_epi32(SIGN32));
        let a = _mm_andnot_si128(_mm_set1_epi32(SIGN32), bits);

        // Large magnitudes, infinities and NaNs.
        let is_big = _mm_cmpgt_epi32(a, _mm_set1_epi32(NARROW_HI - 1));
        let is_nan = _mm_cmpgt_epi32(a, _mm_set1_epi32(F32_INF));
        let payload = _mm_or_si128(
            _mm_set1_epi32(0x0200),
            _mm_and_si128(_mm_srli_epi32::<13>(a), _mm_set1_epi32(0x01FF)),
        );
        let big = _mm_or_si128(_mm_set1_epi32(0x7C00), _mm_and_si128(is_nan, payload));

        // Subnormal results: FP add against 0.5 shifts and rounds.
        let is_small = _mm_cmplt_epi32(a, _mm_set1_epi32(SMALL));
        let magic = _mm_castsi128_ps(_mm_set1_epi32(HALF_MAGIC));
        let small_f = _mm_add_ps(_mm_castsi128_ps(a), magic);
        let small = _mm_sub_epi32(_mm_castps_si128(small_f), _mm_set1_epi32(HALF_MAGIC));

        // Normal results: rebias + RTNE increment, then drop 13 bits.
        let odd = _mm_and_si128(_mm_srli_epi32::<13>(a), _mm_set1_epi32(1));
        let adj = _mm_add_epi32(a, _mm_set1_epi32(REBIAS_RTNE));
        let norm = _mm_srli_epi32::<13>(_mm_add_epi32(adj, odd));

        let res = _mm_blendv_epi8(norm, small, is_small);
        let res = _mm_blendv_epi8(res, big, is_big);
        _mm_or_si128(res, _mm_srli_epi32::<16>(sign))
    }

    /// Widens 4 u16 half patterns (in u32 lanes) to 4 f32 lanes.
    /// Normals rebias by (127-15)<<23; subnormals renormalize via one
    /// exact FP subtract (Sterbenz); inf/NaN get exponent 255 with the
    /// quiet bit forced on nonzero mantissas, matching scalar.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn widen4_sse(h32: __m128i) -> __m128 {
        let sign = _mm_slli_epi32::<16>(_mm_and_si128(h32, _mm_set1_epi32(0x8000)));
        let em = _mm_slli_epi32::<13>(_mm_and_si128(h32, _mm_set1_epi32(0x7FFF)));
        let exp = _mm_and_si128(em, _mm_set1_epi32(0x0F80_0000));

        let adjusted = _mm_add_epi32(em, _mm_set1_epi32((127 - 15) << 23));

        // Inf/NaN: exponent field becomes 255; quiet any NaN.
        let is_infnan = _mm_cmpeq_epi32(exp, _mm_set1_epi32(0x0F80_0000));
        let mant = _mm_and_si128(em, _mm_set1_epi32(0x007F_E000));
        let has_mant = _mm_andnot_si128(_mm_cmpeq_epi32(mant, _mm_setzero_si128()), is_infnan);
        let infnan = _mm_or_si128(
            _mm_add_epi32(adjusted, _mm_set1_epi32((128 - 16) << 23)),
            _mm_and_si128(has_mant, _mm_set1_epi32(0x0040_0000)),
        );

        // Zero / subnormal halves: treat the mantissa as a fixed-point
        // offset from 2^-14 and let one exact FP subtract renormalize.
        let is_zero_exp = _mm_cmpeq_epi32(exp, _mm_setzero_si128());
        let sub_bias = _mm_set1_epi32(0x3880_0000); // 2^-14
        let sub_f = _mm_sub_ps(
            _mm_castsi128_ps(_mm_add_epi32(em, sub_bias)),
            _mm_castsi128_ps(sub_bias),
        );
        let subn = _mm_castps_si128(sub_f);

        let res = _mm_blendv_epi8(adjusted, subn, is_zero_exp);
        let res = _mm_blendv_epi8(res, infnan, is_infnan);
        _mm_castsi128_ps(_mm_or_si128(res, sign))
    }

    /// Narrows both halves of eight lanes and packs them into eight u16s;
    /// both 4-lane results hold u16 values, so the unsigned pack is exact.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn narrow8_sse(v: [__m128; 2]) -> __m128i {
        _mm_packus_epi32(narrow4_sse(v[0]), narrow4_sse(v[1]))
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) fn narrow_sse(src: &[f32], dst: &mut [F16]) {
        let (src8, src_tail) = src.as_chunks::<8>();
        let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
        for (s, d) in src8.iter().zip(dst8) {
            store_halves(d, narrow8_sse(load4x2(s)));
        }
        narrow_scalar(src_tail, dst_tail);
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) fn narrow_affine_sse(src: &[f32], scale: f32, offset: f32, dst: &mut [F16]) {
        let off = _mm_set1_ps(offset);
        let sc = _mm_set1_ps(scale);
        let (src8, src_tail) = src.as_chunks::<8>();
        let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
        for (s, d) in src8.iter().zip(dst8) {
            let y = load4x2(s).map(|v| _mm_mul_ps(_mm_sub_ps(v, off), sc));
            store_halves(d, narrow8_sse(y));
        }
        narrow_affine_scalar(src_tail, scale, offset, dst_tail);
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) fn widen_sse(src: &[F16], dst: &mut [f32]) {
        let (src8, src_tail) = src.as_chunks::<8>();
        let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
        for (s, d) in src8.iter().zip(dst8) {
            let h8 = load_halves(s);
            let lo = widen4_sse(_mm_cvtepu16_epi32(h8));
            let hi = widen4_sse(_mm_cvtepu16_epi32(_mm_srli_si128::<8>(h8)));
            store4x2(d, [lo, hi]);
        }
        widen_scalar(src_tail, dst_tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_simd::{force, supported_levels};

    fn edge_f32s() -> Vec<f32> {
        let mut v: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            65504.0,
            65519.0,
            65519.5,
            65520.0,
            65536.0,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,        // f32 min normal: flushes to zero
            f32::MIN_POSITIVE / 2.0,  // f32 subnormal
            -f32::MIN_POSITIVE / 2.0, // negative f32 subnormal
            2f32.powi(-24),
            2f32.powi(-25),
            2f32.powi(-25) * 1.0001,
            1023.0 * 2f32.powi(-24),
            2f32.powi(-14) * (1.0 - 2f32.powi(-12)),
            1.0 + 2f32.powi(-11),
            1.0 + 3.0 * 2f32.powi(-11),
            2.0 - 2f32.powi(-20),
        ];
        // NaN payload variants, including a signaling pattern.
        v.push(f32::from_bits(0x7F80_0001));
        v.push(f32::from_bits(0xFFC0_1234));
        v.push(f32::from_bits(0x7FA0_0000));
        v
    }

    #[test]
    fn vector_narrow_matches_scalar_on_edge_values() {
        // Odd length exercises the tail path at every tier.
        let mut src = edge_f32s();
        src.push(std::f32::consts::PI);
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            let mut got = vec![F16::ZERO; src.len()];
            narrow_dispatch(&src, &mut got);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(
                    got[i].0,
                    f16_bits_from_f32(s),
                    "lvl {lvl:?} src {:#010x}",
                    s.to_bits()
                );
            }
        }
    }

    #[test]
    fn vector_widen_matches_scalar_for_all_half_patterns() {
        let src: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let mut want = vec![0.0f32; src.len()];
        widen_scalar(&src, &mut want);
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            let mut got = vec![0.0f32; src.len()];
            widen_dispatch(&src, &mut got);
            for h in 0..=u16::MAX as usize {
                assert_eq!(
                    got[h].to_bits(),
                    want[h].to_bits(),
                    "lvl {lvl:?} half {h:#06x}"
                );
            }
        }
    }

    #[test]
    fn vector_narrow_matches_scalar_for_all_half_neighborhoods() {
        // Every exactly-representable half value plus the f32 values one
        // ULP either side: covers every rounding boundary class.
        let mut src = Vec::with_capacity(3 * (1 << 16));
        for h in 0..=u16::MAX {
            let f = f32_from_f16_bits(h);
            src.push(f);
            src.push(f32::from_bits(f.to_bits().wrapping_add(1)));
            src.push(f32::from_bits(f.to_bits().wrapping_sub(1)));
        }
        let mut want = vec![F16::ZERO; src.len()];
        narrow_scalar(&src, &mut want);
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            let mut got = vec![F16::ZERO; src.len()];
            narrow_dispatch(&src, &mut got);
            for i in 0..src.len() {
                assert_eq!(
                    got[i].0,
                    want[i].0,
                    "lvl {lvl:?} src {:#010x}",
                    src[i].to_bits()
                );
            }
        }
    }

    #[test]
    fn affine_matches_scalar_expression() {
        let src = edge_f32s();
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            let mut got = vec![F16::ZERO; src.len()];
            narrow_affine_dispatch(&src, 0.25, 1.5, &mut got);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(
                    got[i].0,
                    f16_bits_from_f32((s - 1.5) * 0.25),
                    "lvl {lvl:?} src {s}"
                );
            }
        }
    }
}
