//! The DeepCAM decoder's vector tier: sixteen lines of a sample decoded
//! together, one line to a lane, in the two passes `decode.rs` drives.
//!
//! Inside a line every value is the one before it plus a delta, so a
//! line is one chain of dependent float adds; what the tier buys is
//! sixteen chains in flight side by side. Pass 1 ([`delta_line`]) walks
//! one line's segments and turns their codes into their deltas' bits,
//! eight codes a step, off any chain. Pass 2 ([`prefix`]) steps the
//! sixteen chains through their positions together,
//! `v = reset ? d : prev + d`, which is each line's adds in the order the
//! fused per-line loop makes them, so every bit is that loop's.
//!
//! There is one such tier, avx2: pass 2 runs two vectors of eight lanes,
//! reading the rows four positions at a time and transposing them in
//! registers, as the encoder's pass 2 (`lockstep.rs`) does, and
//! transposing the results back in place. Everywhere else — the scalar
//! and sse4.2 tiers, aarch64 — [`tier`] finds none and the decoder runs
//! the fused loop line by line. (A four-lane sse4.2 form measured
//! 0.99–1.10× that loop on a 576×384×8 sample, its integer narrowing
//! being half of either side, so it was not kept.)
//!
//! A group's layout, which `decode.rs` builds: `rows`, sixteen rows of
//! `stride` blocks of four values (lane `l`'s position `j` at block
//! `l * stride + j / 4`), holding a value or a delta at each position;
//! `resets`, one word a position, whose bit `l` is set where lane `l`'s
//! row holds a value that restarts its chain, clear where it holds a
//! delta.

use super::lockstep::LANES;
use crate::CodecError;
use sciml_simd::{arch_level, SimdLevel};

/// The most values a pass-1 step writes past a segment's last code: a
/// row holds this many slots beyond its line.
pub(super) const OVERRUN: usize = 8;

/// Proof that this CPU runs the tier's kernels: its field is private to
/// this module, which makes one only where the probe verified avx2
/// ([`tier`], and [`cpu_tier`] for the tests), so safe code holding one
/// may call them. It cannot be made off x86_64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Tier(Kind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The tier's dispatch level.
    pub(super) fn level(self) -> SimdLevel {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => SimdLevel::Avx2,
        }
    }
}

/// The vector tier the host runs, if it runs one: only at avx2, which
/// `arch_level` returns only where the probe verified it (a forced
/// level is clamped to what the CPU has).
pub(super) fn tier() -> Option<Tier> {
    match arch_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => Some(Tier(Kind::Avx2)),
        _ => None,
    }
}

/// The vector tier this host's CPU has, whatever the active one.
#[cfg(test)]
pub(super) fn cpu_tier() -> Option<Tier> {
    #[cfg(target_arch = "x86_64")]
    if sciml_simd::is_supported(SimdLevel::Avx2) {
        return Some(Tier(Kind::Avx2));
    }
    None
}

/// Pass 1 of a delta line: `decode.rs`'s `delta_pass1`, compiled for
/// `tier` around that tier's `deltas` step.
pub(super) fn delta_line(
    tier: Tier,
    payload: &[u8],
    row: &mut [f32],
    width: usize,
    lane: usize,
    resets: &mut [u32],
) -> Result<(), CodecError> {
    match tier.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `Tier` is made only where the probe verified avx2 on
        // this CPU (`tier` from `arch_level`, `cpu_tier` from
        // `is_supported`), and only inside this module.
        Kind::Avx2 => unsafe { avx2::delta_line(payload, row, width, lane, resets) },
    }
}

/// Pass 2 of a group laid out as the module describes, over the first
/// `resets.len()` positions of every row, a multiple of four: each delta
/// replaced by its value. A chain starts from `+0.0`, but every line's
/// first position is a reset.
pub(super) fn prefix(tier: Tier, rows: &mut [[f32; 4]], stride: usize, resets: &[u32]) {
    let resets = resets.as_chunks::<4>().0;
    match tier.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `delta_line`, the probe verified avx2.
        Kind::Avx2 => unsafe { avx2::prefix(rows, stride, resets) },
    }
}

/// Eight lanes to a vector, two vectors in flight.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::super::decode::delta_pass1;
    use super::super::lockstep::x86::{load4, store4, store8, transpose8};
    use super::{CodecError, LANES, OVERRUN};
    use core::arch::x86_64::*;

    /// [`super::delta_line`] at this tier.
    #[target_feature(enable = "avx2")]
    pub(super) fn delta_line(
        payload: &[u8],
        row: &mut [f32],
        width: usize,
        lane: usize,
        resets: &mut [u32],
    ) -> Result<(), CodecError> {
        delta_pass1(
            payload,
            row,
            width,
            lane,
            resets,
            |codes, n, base_exp, out| deltas(codes, n, base_exp, out),
        )
    }

    /// Pass 1's step, eight codes at a time, over one segment whose base
    /// exponent `base_exp` is in the `CODE_BITS` identity's window
    /// `[-126, 120]`: into `out[i]` the delta of `codes[i]` for each of
    /// the first `n` codes, as bits `sign << 31 | ((code & 0x7F) << 19) +
    /// (base_exp + 127) << 23`, and `+0.0` for a zero code. The last step
    /// runs on past the `n` over the bytes after them (zeros past the end
    /// of `codes`), so `out` holds `n` rounded up to [`OVERRUN`] values.
    /// Returns whether a step read an escape: always where one of the `n`
    /// codes is one, rarely after.
    ///
    /// A code sign-extended and shifted by 19 has its sign in bit 31 and
    /// its exponent offset and mantissa in bits 19–25; the base's exponent
    /// field adds without a carry into the sign, and `psign` by the code's
    /// magnitude zeroes a zero code's slot.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn deltas(codes: &[u8], n: usize, base_exp: i8, out: &mut [f32]) -> bool {
        let exponent = _mm256_set1_epi32((base_exp as i32 + 127) << 23);
        let fields = _mm256_set1_epi32(0x83F8_0000u32 as i32);
        let mut escaped = 0;
        let mut step = |bytes: &[u8; OVERRUN], slots: &mut [f32; OVERRUN]| {
            let b = _mm_cvtsi64_si128(i64::from_le_bytes(*bytes));
            let c = _mm256_cvtepi8_epi32(b);
            let shifted = _mm256_and_si256(_mm256_slli_epi32::<19>(c), fields);
            let bits = _mm256_add_epi32(shifted, exponent);
            let bits = _mm256_sign_epi32(bits, _mm256_abs_epi32(c));
            store8(slots, _mm256_castsi256_ps(bits));
            escaped |= _mm_movemask_epi8(_mm_cmpeq_epi8(b, _mm_set1_epi8(-1)));
        };
        // Each full chunk of `codes`, then the bytes left, zero-padded,
        // if a step still falls short of the `n`.
        let slots = &mut out.as_chunks_mut::<OVERRUN>().0[..n.div_ceil(OVERRUN)];
        let (full, rest) = codes.as_chunks::<OVERRUN>();
        for (bytes, s) in full.iter().zip(slots.iter_mut()) {
            step(bytes, s);
        }
        if let Some(last) = slots.get_mut(full.len()) {
            let mut bytes = [0; OVERRUN];
            bytes[..rest.len()].copy_from_slice(rest);
            step(&bytes, last);
        }
        escaped != 0
    }

    /// [`super::prefix`] over the sixteen rows' blocks, eight lanes a
    /// vector: lane `l`'s reset bit shifted into the sign of its lane.
    /// Rows `i` and `i + 4` of each eight share a register for the
    /// transposes.
    #[target_feature(enable = "avx2")]
    pub(super) fn prefix(mut rows: &mut [[f32; 4]], stride: usize, resets: &[[u32; 4]]) {
        // The first `resets.len()` blocks of each of the sixteen rows.
        let rows: [&mut [[f32; 4]]; LANES] = std::array::from_fn(|_| {
            let (row, later) = std::mem::take(&mut rows).split_at_mut(stride);
            rows = later;
            &mut row[..resets.len()]
        });
        let shifts = [
            _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24),
            _mm256_setr_epi32(23, 22, 21, 20, 19, 18, 17, 16),
        ];
        let mut prev = [_mm256_setzero_ps(); 2];
        for (jb, words) in resets.iter().enumerate() {
            // x[h][p]: position 4·jb + p of vector h's eight lanes.
            let mut x =
                [0, 8].map(|h| {
                    transpose8([0, 1, 2, 3].map(|i| {
                        _mm256_set_m128(load4(&rows[h + i + 4][jb]), load4(&rows[h + i][jb]))
                    }))
                });
            for (p, &word) in words.iter().enumerate() {
                let word = _mm256_set1_epi32(word as i32);
                for h in 0..2 {
                    let d = x[h][p];
                    let reset = _mm256_castsi256_ps(_mm256_sllv_epi32(word, shifts[h]));
                    prev[h] = _mm256_blendv_ps(_mm256_add_ps(prev[h], d), d, reset);
                    x[h][p] = prev[h];
                }
            }
            for (h, xh) in x.iter().enumerate() {
                for (i, v) in transpose8(*xh).into_iter().enumerate() {
                    store4(&mut rows[8 * h + i][jb], _mm256_castps256_ps128(v));
                    store4(&mut rows[8 * h + i + 4][jb], _mm256_extractf128_ps::<1>(v));
                }
            }
        }
    }
}
