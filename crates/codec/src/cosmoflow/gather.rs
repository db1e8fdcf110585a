//! Runtime-dispatched LUT gather for the CosmoFlow decode hot loop.
//!
//! After the fused operator has been applied to the chunk's unique
//! values, decode is a pure gather: per voxel, read one key, copy one
//! 4×u16 LUT row into the four channel-major output planes. The gather
//! is pure data movement (no arithmetic), so every vector path is
//! trivially bit-exact; what the intrinsics buy is doing the
//! interleaved→planar transpose in registers instead of four scattered
//! u16 stores per voxel.
//!
//! Caller contract (upheld by `decode_view_into`, which validates the
//! max key against the table length before dispatching): every key
//! indexes inside `lut`, and all four destination slices have exactly
//! one slot per key. The kernels rely on this to skip per-voxel bounds
//! checks.

use sciml_data::cosmoflow::N_REDSHIFTS;
use sciml_half::F16;
use sciml_simd::{arch_level, record, Kernel, SimdLevel};

use super::KeyWidth;

// The vector kernels treat a LUT row as one 8-byte unit; a channel
// count change must revisit them.
const _: () = assert!(N_REDSHIFTS == 4 && std::mem::size_of::<[F16; N_REDSHIFTS]>() == 8);

/// Gathers LUT rows for one chunk into per-channel output slices,
/// dispatching on the active SIMD tier.
///
/// # Panics
/// Debug-asserts the caller contract (key count matches destination
/// lengths); release builds rely on `decode_view_into`'s validation.
#[allow(clippy::too_many_arguments)]
pub(super) fn gather_into(
    key_width: KeyWidth,
    keys: &[u8],
    lut: &[[F16; N_REDSHIFTS]],
    d0: &mut [F16],
    d1: &mut [F16],
    d2: &mut [F16],
    d3: &mut [F16],
) {
    let n = keys.len() / key_width.bytes();
    debug_assert_eq!(d0.len(), n);
    debug_assert_eq!(d1.len(), n);
    debug_assert_eq!(d2.len(), n);
    debug_assert_eq!(d3.len(), n);
    let lvl = arch_level();
    record(Kernel::CosmoGather, lvl);
    match (lvl, key_width) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only active when the probe (or a clamped
        // override) verified avx2 support; keys were validated < lut.len().
        (SimdLevel::Avx2, KeyWidth::U8) => unsafe {
            x86::gather_u8_avx2(keys, lut, d0, d1, d2, d3)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; u16 keys were validated < lut.len().
        (SimdLevel::Avx2, KeyWidth::U16) => unsafe {
            x86::gather_u16_avx2(keys, lut, d0, d1, d2, d3)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Sse42 implies sse2..sse4.2 were detected; keys validated.
        (SimdLevel::Sse42, KeyWidth::U8) => unsafe {
            x86::gather_u8_sse(keys, lut, d0, d1, d2, d3)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; u16 keys were validated < lut.len().
        (SimdLevel::Sse42, KeyWidth::U16) => unsafe {
            x86::gather_u16_sse(keys, lut, d0, d1, d2, d3)
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; keys validated < lut.len().
        (SimdLevel::Neon, KeyWidth::U8) => unsafe {
            neon::gather_u8_neon(keys, lut, d0, d1, d2, d3)
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above; u16 keys were validated < lut.len().
        (SimdLevel::Neon, KeyWidth::U16) => unsafe {
            neon::gather_u16_neon(keys, lut, d0, d1, d2, d3)
        },
        (_, KeyWidth::U8) => gather_u8_scalar(keys, lut, d0, d1, d2, d3),
        (_, KeyWidth::U16) => gather_u16_scalar(keys, lut, d0, d1, d2, d3),
    }
}

/// Canonical scalar gather (the pre-dispatch hot loop, unchanged): the
/// zipped per-channel subslices let the compiler drop all bounds checks
/// from the loop body.
fn gather_u8_scalar(
    keys: &[u8],
    lut: &[[F16; N_REDSHIFTS]],
    d0: &mut [F16],
    d1: &mut [F16],
    d2: &mut [F16],
    d3: &mut [F16],
) {
    for ((((&k, d0), d1), d2), d3) in keys
        .iter()
        .zip(d0.iter_mut())
        .zip(d1.iter_mut())
        .zip(d2.iter_mut())
        .zip(d3.iter_mut())
    {
        let row = &lut[k as usize];
        *d0 = row[0];
        *d1 = row[1];
        *d2 = row[2];
        *d3 = row[3];
    }
}

fn gather_u16_scalar(
    keys: &[u8],
    lut: &[[F16; N_REDSHIFTS]],
    d0: &mut [F16],
    d1: &mut [F16],
    d2: &mut [F16],
    d3: &mut [F16],
) {
    for ((((kb, d0), d1), d2), d3) in keys
        .chunks_exact(2)
        .zip(d0.iter_mut())
        .zip(d1.iter_mut())
        .zip(d2.iter_mut())
        .zip(d3.iter_mut())
    {
        let row = &lut[u16::from_le_bytes([kb[0], kb[1]]) as usize];
        *d0 = row[0];
        *d1 = row[1];
        *d2 = row[2];
        *d3 = row[3];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gather_u16_scalar, gather_u8_scalar, N_REDSHIFTS};
    use core::arch::x86_64::*;
    use sciml_half::F16;

    // AVX2 processes 8 voxels per iteration. Each LUT row is one u64
    // (4×u16); two rows share a 128-bit lane, so the interleaved→planar
    // transpose is three in-register shuffles:
    //
    //   g       = [row(k0) row(k1) | row(k2) row(k3)]   (per 256-bit reg)
    //   shuffle_epi8 pairs channels within a lane:
    //           [ (r0c0 r1c0) (r0c1 r1c1) | (r0c2 r1c2) ... ]
    //   permutevar8x32 with [0,4,1,5,2,6,3,7] interleaves the lanes:
    //           [ A0 B0 A1 B1 | A2 B2 A3 B3 ]  (A = rows 0-1, B = rows 2-3)
    //   unpacklo/hi_epi64 across the two key quads then yields one
    //   128-bit half per channel, stored with a single 16-byte write.

    /// shuffle_epi8 mask: per 128-bit lane, bytes
    /// [0,1,8,9, 2,3,10,11, 4,5,12,13, 6,7,14,15] — pairs channel z of
    /// the lane's two rows into one u32.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pair_mask() -> __m256i {
        _mm256_setr_epi8(
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15, //
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,
        )
    }

    /// Transposes 8 LUT rows (two registers of 4 rows) into four 8×u16
    /// channel vectors and stores them.
    ///
    /// # Safety
    /// `d0..d3 + i` must each be valid for an unaligned 16-byte write.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_transposed8(
        g0: __m256i,
        g1: __m256i,
        i: usize,
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let interleave = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mask = pair_mask();
        let p0 = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(g0, mask), interleave);
        let p1 = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(g1, mask), interleave);
        // q_lo = [chan0(rows0-7) | chan2(rows0-7)], q_hi = [chan1 | chan3].
        let q_lo = _mm256_unpacklo_epi64(p0, p1);
        let q_hi = _mm256_unpackhi_epi64(p0, p1);
        // SAFETY: caller guarantees 16 writable bytes at each pointer.
        unsafe {
            _mm_storeu_si128(
                d0.as_mut_ptr().add(i).cast::<__m128i>(),
                _mm256_castsi256_si128(q_lo),
            );
            _mm_storeu_si128(
                d1.as_mut_ptr().add(i).cast::<__m128i>(),
                _mm256_castsi256_si128(q_hi),
            );
            _mm_storeu_si128(
                d2.as_mut_ptr().add(i).cast::<__m128i>(),
                _mm256_extracti128_si256::<1>(q_lo),
            );
            _mm_storeu_si128(
                d3.as_mut_ptr().add(i).cast::<__m128i>(),
                _mm256_extracti128_si256::<1>(q_hi),
            );
        }
    }

    /// Loads 4 LUT rows by index into one 256-bit register.
    ///
    /// # Safety
    /// All indices must be `< lut.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_rows4(lut: &[[F16; N_REDSHIFTS]], k: [usize; 4]) -> __m256i {
        let base = lut.as_ptr().cast::<i64>();
        // SAFETY: each index is in bounds (caller contract), and a LUT
        // row is exactly 8 bytes, so `base + k` reads one whole row.
        unsafe {
            _mm256_set_epi64x(
                base.add(k[3]).read_unaligned(),
                base.add(k[2]).read_unaligned(),
                base.add(k[1]).read_unaligned(),
                base.add(k[0]).read_unaligned(),
            )
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_u8_avx2(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let n = keys.len();
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n so the 8 key reads are in bounds; the
            // destination slices are n long so the 16-byte stores fit;
            // keys were validated < lut.len() by the caller.
            unsafe {
                let k = keys.get_unchecked(i..i + 8);
                let g0 = load_rows4(
                    lut,
                    [k[0] as usize, k[1] as usize, k[2] as usize, k[3] as usize],
                );
                let g1 = load_rows4(
                    lut,
                    [k[4] as usize, k[5] as usize, k[6] as usize, k[7] as usize],
                );
                store_transposed8(g0, g1, i, d0, d1, d2, d3);
            }
            i += 8;
        }
        gather_u8_scalar(
            &keys[i..],
            lut,
            &mut d0[i..],
            &mut d1[i..],
            &mut d2[i..],
            &mut d3[i..],
        );
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_u16_avx2(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let n = keys.len() / 2;
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n so the 16 key bytes are in bounds; the
            // destination slices are n long; keys validated < lut.len().
            unsafe {
                let kb = keys.get_unchecked(i * 2..i * 2 + 16);
                let key = |j: usize| u16::from_le_bytes([kb[j * 2], kb[j * 2 + 1]]) as usize;
                let g0 = load_rows4(lut, [key(0), key(1), key(2), key(3)]);
                let g1 = load_rows4(lut, [key(4), key(5), key(6), key(7)]);
                store_transposed8(g0, g1, i, d0, d1, d2, d3);
            }
            i += 8;
        }
        gather_u16_scalar(
            &keys[i * 2..],
            lut,
            &mut d0[i..],
            &mut d1[i..],
            &mut d2[i..],
            &mut d3[i..],
        );
    }

    // SSE tier: 4 voxels per iteration; the same pairing shuffle, then
    // unpacklo/hi_epi32 splits channel pairs across two registers and
    // each channel is stored with one 8-byte write.

    /// # Safety
    /// All indices `< lut.len()`; `d0..d3 + i` valid for 8-byte writes.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    unsafe fn gather4_sse(
        lut: &[[F16; N_REDSHIFTS]],
        k: [usize; 4],
        i: usize,
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let base = lut.as_ptr().cast::<i64>();
        // SAFETY: indices in bounds (caller contract); rows are 8 bytes.
        unsafe {
            let x01 = _mm_set_epi64x(
                base.add(k[1]).read_unaligned(),
                base.add(k[0]).read_unaligned(),
            );
            let x23 = _mm_set_epi64x(
                base.add(k[3]).read_unaligned(),
                base.add(k[2]).read_unaligned(),
            );
            let mask = _mm_setr_epi8(0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15);
            let a = _mm_shuffle_epi8(x01, mask); // [A0 A1 A2 A3] (rows 0-1 pairs)
            let b = _mm_shuffle_epi8(x23, mask); // [B0 B1 B2 B3] (rows 2-3 pairs)
            let lo = _mm_unpacklo_epi32(a, b); // [chan0(4×u16) chan1(4×u16)]
            let hi = _mm_unpackhi_epi32(a, b); // [chan2 chan3]
            _mm_storel_epi64(d0.as_mut_ptr().add(i).cast::<__m128i>(), lo);
            _mm_storel_epi64(
                d1.as_mut_ptr().add(i).cast::<__m128i>(),
                _mm_srli_si128::<8>(lo),
            );
            _mm_storel_epi64(d2.as_mut_ptr().add(i).cast::<__m128i>(), hi);
            _mm_storel_epi64(
                d3.as_mut_ptr().add(i).cast::<__m128i>(),
                _mm_srli_si128::<8>(hi),
            );
        }
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn gather_u8_sse(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let n = keys.len();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds the key reads and the 8-byte
            // stores; keys were validated < lut.len() by the caller.
            unsafe {
                let k = keys.get_unchecked(i..i + 4);
                gather4_sse(
                    lut,
                    [k[0] as usize, k[1] as usize, k[2] as usize, k[3] as usize],
                    i,
                    d0,
                    d1,
                    d2,
                    d3,
                );
            }
            i += 4;
        }
        gather_u8_scalar(
            &keys[i..],
            lut,
            &mut d0[i..],
            &mut d1[i..],
            &mut d2[i..],
            &mut d3[i..],
        );
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn gather_u16_sse(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let n = keys.len() / 2;
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds the 8 key bytes and the 8-byte
            // stores; keys were validated < lut.len() by the caller.
            unsafe {
                let kb = keys.get_unchecked(i * 2..i * 2 + 8);
                let key = |j: usize| u16::from_le_bytes([kb[j * 2], kb[j * 2 + 1]]) as usize;
                gather4_sse(lut, [key(0), key(1), key(2), key(3)], i, d0, d1, d2, d3);
            }
            i += 4;
        }
        gather_u16_scalar(
            &keys[i * 2..],
            lut,
            &mut d0[i..],
            &mut d1[i..],
            &mut d2[i..],
            &mut d3[i..],
        );
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{gather_u16_scalar, gather_u8_scalar, N_REDSHIFTS};
    use core::arch::aarch64::*;
    use sciml_half::F16;

    // NEON: copy 4 rows into a contiguous 16×u16 scratch, then vld4
    // de-interleaves by channel in one instruction and each channel is
    // stored with one 8-byte write.

    /// # Safety
    /// All indices `< lut.len()`; `d0..d3 + i` valid for 8-byte writes.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn gather4_neon(
        lut: &[[F16; N_REDSHIFTS]],
        k: [usize; 4],
        i: usize,
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let mut scratch = [0u16; 16];
        for (j, &idx) in k.iter().enumerate() {
            // SAFETY: idx < lut.len() (caller contract).
            let row = unsafe { lut.get_unchecked(idx) };
            for z in 0..N_REDSHIFTS {
                scratch[j * N_REDSHIFTS + z] = row[z].0;
            }
        }
        // SAFETY: scratch holds 16 u16s; destinations valid for 4-lane
        // stores at offset i (caller contract).
        unsafe {
            let t = vld4_u16(scratch.as_ptr());
            vst1_u16(d0.as_mut_ptr().add(i).cast::<u16>(), t.0);
            vst1_u16(d1.as_mut_ptr().add(i).cast::<u16>(), t.1);
            vst1_u16(d2.as_mut_ptr().add(i).cast::<u16>(), t.2);
            vst1_u16(d3.as_mut_ptr().add(i).cast::<u16>(), t.3);
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gather_u8_neon(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let n = keys.len();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds the reads/stores; keys were
            // validated < lut.len() by the caller.
            unsafe {
                let k = keys.get_unchecked(i..i + 4);
                gather4_neon(
                    lut,
                    [k[0] as usize, k[1] as usize, k[2] as usize, k[3] as usize],
                    i,
                    d0,
                    d1,
                    d2,
                    d3,
                );
            }
            i += 4;
        }
        gather_u8_scalar(
            &keys[i..],
            lut,
            &mut d0[i..],
            &mut d1[i..],
            &mut d2[i..],
            &mut d3[i..],
        );
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gather_u16_neon(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        d0: &mut [F16],
        d1: &mut [F16],
        d2: &mut [F16],
        d3: &mut [F16],
    ) {
        let n = keys.len() / 2;
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds the reads/stores; keys were
            // validated < lut.len() by the caller.
            unsafe {
                let kb = keys.get_unchecked(i * 2..i * 2 + 8);
                let key = |j: usize| u16::from_le_bytes([kb[j * 2], kb[j * 2 + 1]]) as usize;
                gather4_neon(lut, [key(0), key(1), key(2), key(3)], i, d0, d1, d2, d3);
            }
            i += 4;
        }
        gather_u16_scalar(
            &keys[i * 2..],
            lut,
            &mut d0[i..],
            &mut d1[i..],
            &mut d2[i..],
            &mut d3[i..],
        );
    }
}
