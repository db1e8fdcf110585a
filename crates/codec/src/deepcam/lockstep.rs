//! Pass 2 of the DeepCAM encoder: the quantiser of a group of [`LANES`]
//! lines stepping through their positions together, one line to a lane,
//! at the active SIMD tier.
//!
//! Inside a line every value is coded against the *reconstructed* one
//! before it, so each lane is one dependent chain of float operations;
//! what a tier buys is chains in flight side by side. Every tier
//! computes [`step`] lane by lane and [`settle`]s the lanes it flags; the
//! scalar tier is exactly that over plain arrays, and the canonical one.
//! The vector tiers keep the tolerance test off the chain: a lane carries
//! its reconstruction (or its value where the delta has no code), and a
//! rarely taken branch settles the ≈ 0.1 % of lanes the test escapes and
//! the rare ones `step` does not cover.
//!
//! | tier   | lanes a vector | vectors in flight |
//! |--------|----------------|-------------------|
//! | sse4.2 | 4              | 4                 |
//! | avx2   | 8              | 2                 |
//!
//! Both read rows four positions at a time and transpose them in
//! registers, and pack and transpose the codes back the same way.
//!
//! A group's layout, which `encode.rs` builds: `rows`, its lines, all of
//! one width (the spare lanes of a short group repeat a line); `bases`,
//! each value's segment base exponent, position-major (lane `l`'s value
//! `j` at `j * LANES + l`) with [`HEAD`] at segment heads; `codes`,
//! written lane-major (`l * width + j`; nothing meaningful at heads);
//! `active`, the mask of the lanes whose codes are read.

use super::encode::{quantize, EncoderConfig};
use super::{CODE_ESCAPE, CODE_ZERO, EXP_WINDOW};
use sciml_simd::SimdLevel;

/// Lines a group encodes together, one to a lane.
pub(super) const LANES: usize = 16;

/// The base-exponent row's entry at a segment head, which has no code.
/// Never a base: pass 1's are delta exponents, -126 or above, or 0.
pub(super) const HEAD: i8 = i8::MIN;

/// Pass 2 of one group at `level`, which must be a tier this CPU runs:
/// the one caller, `encode_channel`, passes `active_level()`.
pub(super) fn lockstep(
    level: SimdLevel,
    rows: &[&[f32]; LANES],
    bases: &[i8],
    codes: &mut [u8],
    active: u16,
    cfg: &EncoderConfig,
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is `active_level()`, which is Avx2 only where
        // the probe verified avx2 on this CPU.
        SimdLevel::Avx2 => unsafe { avx2::lockstep(rows, bases, codes, active, cfg) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level` is `active_level()`, which is Sse42 only where
        // the probe detected sse4.2 on this CPU.
        SimdLevel::Sse42 => unsafe { sse42::lockstep(rows, bases, codes, active, cfg) },
        _ => scalar(rows, bases, codes, active, cfg),
    }
}

/// One value of one lane through pass 2, as every tier computes it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    /// The code byte; escape where the delta has no code or the
    /// tolerance escaped.
    code: u8,
    /// What the chain carries on: the reconstruction, or the value where
    /// the delta has no code. Not the value where only the tolerance
    /// escaped: that test is off the chain.
    carried: f32,
    /// The tolerance escaped a coded delta.
    tol_escape: bool,
    /// A delta this arithmetic does not cover, whose `code` and
    /// `carried` mean nothing: a subnormal, or one whose code exponent
    /// `base + e_off` leaves -126..=127 (infinities and NaN included).
    rare: bool,
}

/// Pass 2's arithmetic for the value `x` after the carried `prev`, in a
/// segment of base exponent `base`, without a data branch: what
/// [`quantize`] computes, wherever the step is not `rare`. The vector
/// tiers compute the same, lane by lane.
///
/// The delta's magnitude rounded to four mantissa bits, ties away from
/// zero, is `r = (magnitude + 2¹⁸) >> 19`: exponent field and mantissa
/// `(field << 4) | m`, a mantissa carry moving into the exponent by
/// itself. Below the segment's range it rounds to the smallest code
/// magnitude, `2^base`, whose `r` is the floor `field(2^base) << 4`; the
/// two patterns that collide with the zero and the escape code move one
/// mantissa step. The code is `sign | (r - floor)`, and the delta it
/// stands for is `sign | r << 19` in float bits.
#[inline(always)]
fn step(x: f32, prev: f32, base: i32, cfg: &EncoderConfig) -> Step {
    let bits = (x - prev).to_bits();
    let magnitude = bits & 0x7FFF_FFFF;
    let sign = bits & 0x8000_0000;
    let floor = (base + 127) << 4;
    let r = (((magnitude + (1 << 18)) >> 19) as i32).max(floor);
    let r = if sign == 0 && r == floor {
        r + 1
    } else if sign != 0 && r == floor + 0x7F {
        r - 1
    } else {
        r
    };
    // Zero, or below half the smallest code magnitude.
    let zero = magnitude == 0 || (magnitude as i32) < (base + 126) << 23;
    let delta = if zero { 0 } else { sign | (r as u32) << 19 };
    let recon = prev + f32::from_bits(delta);
    let no_code = (r >> 4) - (base + 127) > EXP_WINDOW;
    let tol_escape =
        !no_code && ((recon - x) / x.abs().max(cfg.abs_floor)).abs() > cfg.escape_rel_tol;
    let code = if no_code || tol_escape {
        CODE_ESCAPE
    } else if zero {
        CODE_ZERO
    } else {
        (sign >> 24) as u8 | (r - floor) as u8
    };
    Step {
        code,
        carried: if no_code { x } else { recon },
        tol_escape,
        rare: (magnitude != 0 && magnitude < 1 << 23) || r >= 0xFF0,
    }
}

/// A lane's code, and the value its next step subtracts, once the
/// branch the vector tiers keep off the chain is taken: a rare step goes
/// to the scalar [`quantize`] from the value the lane carried in, a
/// tolerance escape carries the value itself.
#[inline(always)]
fn settle(s: Step, x: f32, prev: f32, base: i32, cfg: &EncoderConfig) -> (u8, f32) {
    if s.rare {
        quantize(x - prev, prev, x, base as i8, cfg)
    } else if s.tol_escape {
        (CODE_ESCAPE, x)
    } else {
        (s.code, s.carried)
    }
}

/// The scalar tier, the canonical one: at each position every active
/// lane takes its [`step`], then [`settle`]s it.
fn scalar(
    rows: &[&[f32]; LANES],
    bases: &[i8],
    codes: &mut [u8],
    active: u16,
    cfg: &EncoderConfig,
) {
    let width = rows[0].len();
    let mut prev = [0f32; LANES];
    for (j, column) in bases.as_chunks::<LANES>().0[..width].iter().enumerate() {
        for lane in (0..LANES).filter(|l| active >> l & 1 == 1) {
            let x = rows[lane][j];
            if column[lane] == HEAD {
                prev[lane] = x;
                continue;
            }
            let base = column[lane] as i32;
            let (code, carried) = settle(step(x, prev[lane], base, cfg), x, prev[lane], base, cfg);
            codes[lane * width + j] = code;
            prev[lane] = carried;
        }
    }
}

/// Loads, stores and transposes both vector tiers share, the decoder's
/// (`decode_lockstep.rs`) as well.
#[cfg(target_arch = "x86_64")]
pub(super) mod x86 {
    use core::arch::x86_64::*;

    /// Four consecutive values of a row.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    pub(in crate::deepcam) fn load4(v: &[f32; 4]) -> __m128 {
        // SAFETY: `v` is four readable f32s; the load is unaligned.
        unsafe { _mm_loadu_ps(v.as_ptr()) }
    }

    /// Four consecutive values of a row, stored.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    pub(in crate::deepcam) fn store4(v: &mut [f32; 4], x: __m128) {
        // SAFETY: `v` is four writable f32s; the store is unaligned.
        unsafe { _mm_storeu_ps(v.as_mut_ptr(), x) }
    }

    /// Eight consecutive values of a row, stored.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(in crate::deepcam) fn store8(v: &mut [f32; 8], x: __m256) {
        // SAFETY: `v` is eight writable f32s; the store is unaligned.
        unsafe { _mm256_storeu_ps(v.as_mut_ptr(), x) }
    }

    /// The group's sixteen base exponents at one position.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    pub(super) fn load16(column: &[i8; 16]) -> __m128i {
        // SAFETY: `column` is sixteen readable bytes; the load is
        // unaligned.
        unsafe { _mm_loadu_si128(column.as_ptr().cast()) }
    }

    /// Eight rows' values at four positions, one vector a position, and
    /// back (the transpose is its own inverse): rows `i` and `i + 4`
    /// share a register, and each 128-bit half transposes as in
    /// [`super::sse42`].
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(in crate::deepcam) fn transpose8(r: [__m256; 4]) -> [__m256; 4] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpacklo_ps(r[2], r[3]);
        let t2 = _mm256_unpackhi_ps(r[0], r[1]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        [
            _mm256_shuffle_ps::<0x44>(t0, t1),
            _mm256_shuffle_ps::<0xEE>(t0, t1),
            _mm256_shuffle_ps::<0x44>(t2, t3),
            _mm256_shuffle_ps::<0xEE>(t2, t3),
        ]
    }
}

/// Four lanes to a vector, four vectors in flight.
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use super::x86::{load16, load4};
    use super::{settle, step, EncoderConfig, EXP_WINDOW, HEAD, LANES};
    use core::arch::x86_64::*;

    /// The group's base exponents at one position, four lanes a vector.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn bases(column: &[i8; LANES]) -> [__m128i; 4] {
        let v = load16(column);
        [
            _mm_cvtepi8_epi32(v),
            _mm_cvtepi8_epi32(_mm_srli_si128::<4>(v)),
            _mm_cvtepi8_epi32(_mm_srli_si128::<8>(v)),
            _mm_cvtepi8_epi32(_mm_srli_si128::<12>(v)),
        ]
    }

    /// Four rows' values at four positions, one vector a position.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn transpose(r: [__m128; 4]) -> [__m128; 4] {
        let t0 = _mm_unpacklo_ps(r[0], r[1]);
        let t1 = _mm_unpacklo_ps(r[2], r[3]);
        let t2 = _mm_unpackhi_ps(r[0], r[1]);
        let t3 = _mm_unpackhi_ps(r[2], r[3]);
        [
            _mm_movelh_ps(t0, t1),
            _mm_movehl_ps(t1, t0),
            _mm_movelh_ps(t2, t3),
            _mm_movehl_ps(t3, t2),
        ]
    }

    /// [`step`] for four lanes, then [`settle`] for those it flags among
    /// the `fixable` ones: the codes (one a 32-bit lane) and what the
    /// chains carry.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn step4(
        x: __m128,
        prev: __m128,
        base: __m128i,
        fixable: i32,
        cfg: &EncoderConfig,
    ) -> (__m128i, __m128) {
        let zero_v = _mm_setzero_si128();
        let magnitude_mask = _mm_set1_epi32(0x7FFF_FFFF);
        let head = _mm_cmpeq_epi32(base, _mm_set1_epi32(HEAD as i32));
        let field = _mm_add_epi32(base, _mm_set1_epi32(127));
        let floor = _mm_slli_epi32::<4>(field);
        let bits = _mm_castps_si128(_mm_sub_ps(x, prev));
        let magnitude = _mm_and_si128(bits, magnitude_mask);
        let sign = _mm_andnot_si128(magnitude_mask, bits);
        let negative = _mm_srai_epi32::<31>(bits);
        let r = _mm_add_epi32(magnitude, _mm_set1_epi32(1 << 18));
        let r = _mm_max_epi32(_mm_srli_epi32::<19>(r), floor);
        // All-ones lanes: subtracting one moves the zero pattern up,
        // adding one moves the escape pattern down.
        let up = _mm_andnot_si128(negative, _mm_cmpeq_epi32(r, floor));
        let escape_pattern = _mm_add_epi32(floor, _mm_set1_epi32(0x7F));
        let down = _mm_and_si128(negative, _mm_cmpeq_epi32(r, escape_pattern));
        let r = _mm_add_epi32(_mm_sub_epi32(r, up), down);
        let half_floor = _mm_slli_epi32::<23>(_mm_sub_epi32(field, _mm_set1_epi32(1)));
        let zero = _mm_or_si128(
            _mm_cmpeq_epi32(magnitude, zero_v),
            _mm_cmplt_epi32(magnitude, half_floor),
        );
        let delta = _mm_andnot_si128(zero, _mm_or_si128(sign, _mm_slli_epi32::<19>(r)));
        let recon = _mm_add_ps(prev, _mm_castsi128_ps(delta));
        let e_off = _mm_sub_epi32(_mm_srli_epi32::<4>(r), field);
        let no_code = _mm_cmpgt_epi32(e_off, _mm_set1_epi32(EXP_WINDOW));
        let carried = _mm_blendv_ps(recon, x, _mm_castsi128_ps(_mm_or_si128(no_code, head)));

        // Off the chain: the tolerance, the code and the branch.
        let abs = _mm_castsi128_ps(magnitude_mask);
        let denom = _mm_max_ps(_mm_set1_ps(cfg.abs_floor), _mm_and_ps(x, abs));
        let rel = _mm_and_ps(_mm_div_ps(_mm_sub_ps(recon, x), denom), abs);
        let over = _mm_cmpgt_ps(rel, _mm_set1_ps(cfg.escape_rel_tol));
        let tol_escape = _mm_andnot_si128(no_code, _mm_castps_si128(over));
        let code = _mm_or_si128(_mm_srli_epi32::<24>(sign), _mm_sub_epi32(r, floor));
        let code = _mm_andnot_si128(zero, code);
        let escape = _mm_or_si128(no_code, tol_escape);
        let code = _mm_blendv_epi8(code, _mm_set1_epi32(0xFF), escape);
        let subnormal = _mm_andnot_si128(
            _mm_cmpeq_epi32(magnitude, zero_v),
            _mm_cmplt_epi32(magnitude, _mm_set1_epi32(1 << 23)),
        );
        let rare = _mm_or_si128(subnormal, _mm_cmpgt_epi32(r, _mm_set1_epi32(0xFEF)));
        let fix = _mm_andnot_si128(head, _mm_or_si128(tol_escape, rare));
        let fix = _mm_movemask_ps(_mm_castsi128_ps(fix)) & fixable;
        if fix == 0 {
            (code, carried)
        } else {
            settle4(fix, x, prev, base, code, carried, cfg)
        }
    }

    /// [`settle`]s the lanes of `fix`, recomputing each one's [`step`].
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "sse4.2")]
    fn settle4(
        fix: i32,
        x: __m128,
        prev: __m128,
        base: __m128i,
        code: __m128i,
        carried: __m128,
        cfg: &EncoderConfig,
    ) -> (__m128i, __m128) {
        let [x, prev, mut carried] = [x, prev, carried].map(|v| i32s(_mm_castps_si128(v)));
        let base = i32s(base);
        let mut code = i32s(code);
        for l in (0..4).filter(|l| fix >> l & 1 == 1) {
            let (x, prev) = (f32::from_bits(x[l] as u32), f32::from_bits(prev[l] as u32));
            let (c, v) = settle(step(x, prev, base[l], cfg), x, prev, base[l], cfg);
            (code[l], carried[l]) = (c as i32, v.to_bits() as i32);
        }
        (
            _mm_setr_epi32(code[0], code[1], code[2], code[3]),
            _mm_castsi128_ps(_mm_setr_epi32(
                carried[0], carried[1], carried[2], carried[3],
            )),
        )
    }

    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn i32s(v: __m128i) -> [i32; 4] {
        [
            _mm_cvtsi128_si32(v),
            _mm_extract_epi32::<1>(v),
            _mm_extract_epi32::<2>(v),
            _mm_extract_epi32::<3>(v),
        ]
    }

    /// Pass 2 of a group laid out as the module describes.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn lockstep(
        rows: &[&[f32]; LANES],
        bases_row: &[i8],
        codes: &mut [u8],
        active: u16,
        cfg: &EncoderConfig,
    ) {
        let width = rows[0].len();
        let columns = &bases_row.as_chunks::<LANES>().0[..width];
        let fixable = [0, 4, 8, 12].map(|s| (active >> s) as i32 & 0xF);
        let blocks = rows.map(|row| row.as_chunks::<4>().0);
        let transpose_codes = _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
        let mut prev = [_mm_setzero_ps(); 4];
        for (jb, block_columns) in columns.as_chunks::<4>().0.iter().enumerate() {
            // x[q][p]: position 4·jb + p of vector q's four lanes.
            let mut x = [[_mm_setzero_ps(); 4]; 4];
            for (q, xq) in x.iter_mut().enumerate() {
                let b = &blocks[4 * q..4 * q + 4];
                *xq = transpose([
                    load4(&b[0][jb]),
                    load4(&b[1][jb]),
                    load4(&b[2][jb]),
                    load4(&b[3][jb]),
                ]);
            }
            let mut c = [[_mm_setzero_si128(); 4]; 4];
            for (p, column) in block_columns.iter().enumerate() {
                let base = bases(column);
                for q in 0..4 {
                    (c[q][p], prev[q]) = step4(x[q][p], prev[q], base[q], fixable[q], cfg);
                }
            }
            // Four positions of four lanes to four lanes of four
            // positions, as bytes.
            for (q, cq) in c.iter().enumerate() {
                let bytes = _mm_packus_epi16(
                    _mm_packus_epi32(cq[0], cq[1]),
                    _mm_packus_epi32(cq[2], cq[3]),
                );
                let lanes = i32s(_mm_shuffle_epi8(bytes, transpose_codes));
                for (l, four) in lanes.iter().enumerate() {
                    let at = (4 * q + l) * width + 4 * jb;
                    codes[at..at + 4].copy_from_slice(&four.to_le_bytes());
                }
            }
        }
        for j in width / 4 * 4..width {
            let base = bases(&columns[j]);
            for q in 0..4 {
                let r = &rows[4 * q..4 * q + 4];
                let x = _mm_setr_ps(r[0][j], r[1][j], r[2][j], r[3][j]);
                let (code, carried) = step4(x, prev[q], base[q], fixable[q], cfg);
                prev[q] = carried;
                for (l, c) in i32s(code).iter().enumerate() {
                    codes[(4 * q + l) * width + j] = *c as u8;
                }
            }
        }
    }
}

/// Eight lanes to a vector, two vectors in flight: [`sse42`]'s kernel at
/// twice the width, line for line.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::x86::{load16, load4, transpose8};
    use super::{settle, step, EncoderConfig, EXP_WINDOW, HEAD, LANES};
    use core::arch::x86_64::*;

    /// The group's base exponents at one position, eight lanes a vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn bases(column: &[i8; LANES]) -> [__m256i; 2] {
        let v = load16(column);
        [
            _mm256_cvtepi8_epi32(v),
            _mm256_cvtepi8_epi32(_mm_srli_si128::<8>(v)),
        ]
    }

    /// Eight rows' values at four positions, one vector a position.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(b: &[&[[f32; 4]]], jb: usize) -> [__m256; 4] {
        let pair = |i: usize| _mm256_set_m128(load4(&b[i + 4][jb]), load4(&b[i][jb]));
        transpose8([pair(0), pair(1), pair(2), pair(3)])
    }

    /// [`super::sse42`]'s `step4` for eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn step8(
        x: __m256,
        prev: __m256,
        base: __m256i,
        fixable: i32,
        cfg: &EncoderConfig,
    ) -> (__m256i, __m256) {
        let zero_v = _mm256_setzero_si256();
        let magnitude_mask = _mm256_set1_epi32(0x7FFF_FFFF);
        let head = _mm256_cmpeq_epi32(base, _mm256_set1_epi32(HEAD as i32));
        let field = _mm256_add_epi32(base, _mm256_set1_epi32(127));
        let floor = _mm256_slli_epi32::<4>(field);
        let bits = _mm256_castps_si256(_mm256_sub_ps(x, prev));
        let magnitude = _mm256_and_si256(bits, magnitude_mask);
        let sign = _mm256_andnot_si256(magnitude_mask, bits);
        let negative = _mm256_srai_epi32::<31>(bits);
        let r = _mm256_add_epi32(magnitude, _mm256_set1_epi32(1 << 18));
        let r = _mm256_max_epi32(_mm256_srli_epi32::<19>(r), floor);
        let up = _mm256_andnot_si256(negative, _mm256_cmpeq_epi32(r, floor));
        let escape_pattern = _mm256_add_epi32(floor, _mm256_set1_epi32(0x7F));
        let down = _mm256_and_si256(negative, _mm256_cmpeq_epi32(r, escape_pattern));
        let r = _mm256_add_epi32(_mm256_sub_epi32(r, up), down);
        let half_floor = _mm256_slli_epi32::<23>(_mm256_sub_epi32(field, _mm256_set1_epi32(1)));
        let zero = _mm256_or_si256(
            _mm256_cmpeq_epi32(magnitude, zero_v),
            _mm256_cmpgt_epi32(half_floor, magnitude),
        );
        let delta = _mm256_andnot_si256(zero, _mm256_or_si256(sign, _mm256_slli_epi32::<19>(r)));
        let recon = _mm256_add_ps(prev, _mm256_castsi256_ps(delta));
        let e_off = _mm256_sub_epi32(_mm256_srli_epi32::<4>(r), field);
        let no_code = _mm256_cmpgt_epi32(e_off, _mm256_set1_epi32(EXP_WINDOW));
        let chosen = _mm256_castsi256_ps(_mm256_or_si256(no_code, head));
        let carried = _mm256_blendv_ps(recon, x, chosen);

        let abs = _mm256_castsi256_ps(magnitude_mask);
        let denom = _mm256_max_ps(_mm256_set1_ps(cfg.abs_floor), _mm256_and_ps(x, abs));
        let rel = _mm256_and_ps(_mm256_div_ps(_mm256_sub_ps(recon, x), denom), abs);
        let over = _mm256_cmp_ps::<_CMP_GT_OQ>(rel, _mm256_set1_ps(cfg.escape_rel_tol));
        let tol_escape = _mm256_andnot_si256(no_code, _mm256_castps_si256(over));
        let code = _mm256_or_si256(_mm256_srli_epi32::<24>(sign), _mm256_sub_epi32(r, floor));
        let code = _mm256_andnot_si256(zero, code);
        let escape = _mm256_or_si256(no_code, tol_escape);
        let code = _mm256_blendv_epi8(code, _mm256_set1_epi32(0xFF), escape);
        let subnormal = _mm256_andnot_si256(
            _mm256_cmpeq_epi32(magnitude, zero_v),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(1 << 23), magnitude),
        );
        let rare = _mm256_or_si256(subnormal, _mm256_cmpgt_epi32(r, _mm256_set1_epi32(0xFEF)));
        let fix = _mm256_andnot_si256(head, _mm256_or_si256(tol_escape, rare));
        let fix = _mm256_movemask_ps(_mm256_castsi256_ps(fix)) & fixable;
        if fix == 0 {
            (code, carried)
        } else {
            settle8(fix, x, prev, base, code, carried, cfg)
        }
    }

    /// [`settle`]s the lanes of `fix`, recomputing each one's [`step`].
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    fn settle8(
        fix: i32,
        x: __m256,
        prev: __m256,
        base: __m256i,
        code: __m256i,
        carried: __m256,
        cfg: &EncoderConfig,
    ) -> (__m256i, __m256) {
        let [x, prev, mut carried] = [x, prev, carried].map(|v| i32s(_mm256_castps_si256(v)));
        let base = i32s(base);
        let mut code = i32s(code);
        for l in (0..8).filter(|l| fix >> l & 1 == 1) {
            let (x, prev) = (f32::from_bits(x[l] as u32), f32::from_bits(prev[l] as u32));
            let (c, v) = settle(step(x, prev, base[l], cfg), x, prev, base[l], cfg);
            (code[l], carried[l]) = (c as i32, v.to_bits() as i32);
        }
        let [c, v] = [code, carried]
            .map(|a| _mm256_setr_epi32(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]));
        (c, _mm256_castsi256_ps(v))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn i32s(v: __m256i) -> [i32; 8] {
        [
            _mm256_extract_epi32::<0>(v),
            _mm256_extract_epi32::<1>(v),
            _mm256_extract_epi32::<2>(v),
            _mm256_extract_epi32::<3>(v),
            _mm256_extract_epi32::<4>(v),
            _mm256_extract_epi32::<5>(v),
            _mm256_extract_epi32::<6>(v),
            _mm256_extract_epi32::<7>(v),
        ]
    }

    /// Pass 2 of a group laid out as the module describes.
    #[target_feature(enable = "avx2")]
    pub(super) fn lockstep(
        rows: &[&[f32]; LANES],
        bases_row: &[i8],
        codes: &mut [u8],
        active: u16,
        cfg: &EncoderConfig,
    ) {
        let width = rows[0].len();
        let columns = &bases_row.as_chunks::<LANES>().0[..width];
        let fixable = [0, 8].map(|s| (active >> s) as i32 & 0xFF);
        let blocks = rows.map(|row| row.as_chunks::<4>().0);
        let transpose_codes = _mm256_setr_epi8(
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, //
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        );
        let mut prev = [_mm256_setzero_ps(); 2];
        for (jb, block_columns) in columns.as_chunks::<4>().0.iter().enumerate() {
            // x[h][p]: position 4·jb + p of vector h's eight lanes.
            let x = [transpose(&blocks[..8], jb), transpose(&blocks[8..], jb)];
            let mut c = [[_mm256_setzero_si256(); 4]; 2];
            for (p, column) in block_columns.iter().enumerate() {
                let base = bases(column);
                for h in 0..2 {
                    (c[h][p], prev[h]) = step8(x[h][p], prev[h], base[h], fixable[h], cfg);
                }
            }
            // Per 128-bit half, as in the sse4.2 kernel: four lanes of
            // four positions each.
            for (h, ch) in c.iter().enumerate() {
                let bytes = _mm256_packus_epi16(
                    _mm256_packus_epi32(ch[0], ch[1]),
                    _mm256_packus_epi32(ch[2], ch[3]),
                );
                let lanes = i32s(_mm256_shuffle_epi8(bytes, transpose_codes));
                for (l, four) in lanes.iter().enumerate() {
                    let at = (8 * h + l) * width + 4 * jb;
                    codes[at..at + 4].copy_from_slice(&four.to_le_bytes());
                }
            }
        }
        for j in width / 4 * 4..width {
            let base = bases(&columns[j]);
            for h in 0..2 {
                let r = &rows[8 * h..8 * h + 8];
                let x = _mm256_setr_ps(
                    r[0][j], r[1][j], r[2][j], r[3][j], r[4][j], r[5][j], r[6][j], r[7][j],
                );
                let (code, carried) = step8(x, prev[h], base[h], fixable[h], cfg);
                prev[h] = carried;
                for (l, c) in i32s(code).iter().enumerate() {
                    codes[(8 * h + l) * width + j] = *c as u8;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deepcam::exp2i;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 11
    }

    /// A settled [`step`] is [`quantize`], and a step that is not rare
    /// needs no settling but for a tolerance escape: on random pairs of
    /// values and on pairs `2^e` apart around every base, under the
    /// default, a tight and a loose configuration.
    #[test]
    fn a_settled_step_is_quantize() {
        let cfgs = [
            EncoderConfig::default(),
            EncoderConfig {
                escape_rel_tol: 0.0,
                abs_floor: 1e-30,
                min_values_per_segment: 8,
            },
            EncoderConfig {
                escape_rel_tol: 0.5,
                abs_floor: 10.0,
                min_values_per_segment: 8,
            },
        ];
        let mut state = 0x57E9_u64;
        let mut rare = 0;
        for cfg in &cfgs {
            for base in -128..=127i32 {
                for i in 0..400 {
                    let (x, prev) = match i % 4 {
                        0 => (
                            f32::from_bits(lcg(&mut state) as u32),
                            f32::from_bits(lcg(&mut state) as u32),
                        ),
                        1 => {
                            let prev = f32::from_bits(lcg(&mut state) as u32);
                            let e = (lcg(&mut state) % 20) as i32 - 10 + base;
                            let m = 1.0 + (lcg(&mut state) % 64) as f32 / 64.0;
                            (prev + m * exp2i(e.clamp(-149, 127)), prev)
                        }
                        2 => (1.0 + (lcg(&mut state) % 1000) as f32 * 1e-3, 1.0),
                        _ => (f32::from_bits(lcg(&mut state) as u32), 0.0),
                    };
                    // Pass 1 sends no non-finite value past a head.
                    if !x.is_finite() {
                        continue;
                    }
                    let s = step(x, prev, base, cfg);
                    let want = quantize(x - prev, prev, x, base as i8, cfg);
                    let got = settle(s, x, prev, base, cfg);
                    let what = format!("x={x:e} prev={prev:e} base={base} {cfg:?}: {s:?}");
                    assert_eq!(got.0, want.0, "{what}");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}");
                    if s.rare {
                        rare += 1;
                    } else {
                        assert_eq!(s.code, want.0, "{what}");
                        if !s.tol_escape {
                            assert_eq!(s.carried.to_bits(), want.1.to_bits(), "{what}");
                        }
                    }
                }
            }
        }
        assert!(rare > 0, "no rare step drawn");
    }
}
