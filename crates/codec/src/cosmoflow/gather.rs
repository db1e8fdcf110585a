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
//! The vector kernels are safe `#[target_feature]` fns over fixed-size
//! chunks of the keys and of the four planes, so no length can make
//! them overrun. What they do not check is a key against the table:
//! [`gather_into`] is `unsafe`, and its contract (every key indexes
//! inside `lut`) is what the unchecked row read below relies on. Its
//! dispatch is the kernels' only caller; `decode_view_into` upholds the
//! contract with `check_keys`.

use sciml_data::cosmoflow::N_REDSHIFTS;
use sciml_half::F16;
use sciml_simd::{active_level, record, Kernel, SimdLevel};

use super::KeyWidth;

// The vector kernels treat a LUT row as one 8-byte unit; a channel
// count change must revisit them.
const _: () = assert!(N_REDSHIFTS == 4 && std::mem::size_of::<[F16; N_REDSHIFTS]>() == 8);

/// Gathers LUT rows for one chunk into the four channel planes `dst`,
/// one slot a key, dispatching on the active SIMD tier.
///
/// # Safety
/// Every key in `keys` must be `< lut.len()`: the vector tiers read
/// rows unchecked. Lengths are no part of the contract: a plane of
/// another length than the key count is written in bounds, but its
/// contents are then unspecified.
pub(super) unsafe fn gather_into(
    key_width: KeyWidth,
    keys: &[u8],
    lut: &[[F16; N_REDSHIFTS]],
    dst: [&mut [F16]; N_REDSHIFTS],
) {
    debug_assert!(dst
        .iter()
        .all(|d| d.len() * key_width.bytes() == keys.len()));
    let lvl = active_level();
    record(Kernel::CosmoGather, lvl);
    match (lvl, key_width) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_level` returns Avx2 only where the probe
        // verified avx2 on this CPU; the keys are in range (our
        // contract).
        (SimdLevel::Avx2, KeyWidth::U8) => unsafe { x86::gather_u8_avx2(keys, lut, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (SimdLevel::Avx2, KeyWidth::U16) => unsafe { x86::gather_u16_avx2(keys, lut, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Sse42 from `active_level` implies the probe detected
        // sse4.2; the keys are in range (our contract).
        (SimdLevel::Sse42, KeyWidth::U8) => unsafe { x86::gather_u8_sse(keys, lut, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (SimdLevel::Sse42, KeyWidth::U16) => unsafe { x86::gather_u16_sse(keys, lut, dst) },
        (_, KeyWidth::U8) => gather_u8_scalar(keys, lut, dst),
        (_, KeyWidth::U16) => gather_u16_scalar(keys, lut, dst),
    }
}

/// Canonical scalar gather (the pre-dispatch hot loop, unchanged): the
/// zipped per-channel subslices let the compiler drop all bounds checks
/// from the loop body.
fn gather_u8_scalar(keys: &[u8], lut: &[[F16; N_REDSHIFTS]], dst: [&mut [F16]; N_REDSHIFTS]) {
    let [d0, d1, d2, d3] = dst;
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

fn gather_u16_scalar(keys: &[u8], lut: &[[F16; N_REDSHIFTS]], dst: [&mut [F16]; N_REDSHIFTS]) {
    let [d0, d1, d2, d3] = dst;
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

    /// `N` little-endian u16 keys from their `2 N` bytes.
    #[inline(always)]
    fn u16_keys<const N: usize>(bytes: &[u8]) -> [usize; N] {
        std::array::from_fn(|j| u16::from_le_bytes([bytes[2 * j], bytes[2 * j + 1]]).into())
    }

    /// One LUT row as the 64-bit lane the kernels move it in.
    ///
    /// # Safety
    /// `k < lut.len()`.
    #[inline(always)]
    unsafe fn row(lut: &[[F16; N_REDSHIFTS]], k: usize) -> i64 {
        // SAFETY: `k` is in bounds (our contract), and a row is exactly
        // 8 bytes, so the read covers one whole row; it is unaligned.
        unsafe { lut.as_ptr().add(k).cast::<i64>().read_unaligned() }
    }

    /// Eight halves of one plane, stored from one 16-byte vector.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn store8(v: &mut [F16; 8], x: __m128i) {
        // SAFETY: `F16` is repr(transparent) over u16, so `v` is sixteen
        // writable bytes, and every bit pattern is a valid `F16`; the
        // store is unaligned.
        unsafe { _mm_storeu_si128(v.as_mut_ptr().cast(), x) }
    }

    /// Four halves of one plane, stored from a vector's low 8 bytes.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn store4(v: &mut [F16; 4], x: __m128i) {
        // SAFETY: `v` is eight writable bytes, as in `store8`; the store
        // is unaligned.
        unsafe { _mm_storel_epi64(v.as_mut_ptr().cast(), x) }
    }

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

    /// Transposes 8 LUT rows into four 8×u16 channel vectors and stores
    /// them, one to a plane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_transposed8(r: [i64; 8], d: [&mut [F16; 8]; N_REDSHIFTS]) {
        // Per 128-bit lane, bytes [0,1,8,9, 2,3,10,11, 4,5,12,13,
        // 6,7,14,15]: channel z of the lane's two rows paired in a u32.
        let mask = _mm256_setr_epi8(
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15, //
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,
        );
        let interleave = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let g0 = _mm256_set_epi64x(r[3], r[2], r[1], r[0]);
        let g1 = _mm256_set_epi64x(r[7], r[6], r[5], r[4]);
        let p0 = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(g0, mask), interleave);
        let p1 = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(g1, mask), interleave);
        // q_lo = [chan0(rows0-7) | chan2(rows0-7)], q_hi = [chan1 | chan3].
        let q_lo = _mm256_unpacklo_epi64(p0, p1);
        let q_hi = _mm256_unpackhi_epi64(p0, p1);
        let [d0, d1, d2, d3] = d;
        store8(d0, _mm256_castsi256_si128(q_lo));
        store8(d1, _mm256_castsi256_si128(q_hi));
        store8(d2, _mm256_extracti128_si256::<1>(q_lo));
        store8(d3, _mm256_extracti128_si256::<1>(q_hi));
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gather_u8_avx2(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        dst: [&mut [F16]; N_REDSHIFTS],
    ) {
        let (keys8, key_tail) = keys.as_chunks::<8>();
        let [(c0, t0), (c1, t1), (c2, t2), (c3, t3)] = dst.map(|d| d.as_chunks_mut::<8>());
        for ((((k, d0), d1), d2), d3) in keys8.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
            // SAFETY: every key is < lut.len(), `gather_into`'s contract.
            let r = unsafe { k.map(|k| row(lut, k as usize)) };
            store_transposed8(r, [d0, d1, d2, d3]);
        }
        gather_u8_scalar(key_tail, lut, [t0, t1, t2, t3]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gather_u16_avx2(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        dst: [&mut [F16]; N_REDSHIFTS],
    ) {
        let (keys8, key_tail) = keys.as_chunks::<16>();
        let [(c0, t0), (c1, t1), (c2, t2), (c3, t3)] = dst.map(|d| d.as_chunks_mut::<8>());
        for ((((kb, d0), d1), d2), d3) in keys8.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
            // SAFETY: every key is < lut.len(), `gather_into`'s contract.
            let r = unsafe { u16_keys::<8>(kb).map(|k| row(lut, k)) };
            store_transposed8(r, [d0, d1, d2, d3]);
        }
        gather_u16_scalar(key_tail, lut, [t0, t1, t2, t3]);
    }

    // SSE tier: 4 voxels per iteration; the same pairing shuffle, then
    // unpacklo/hi_epi32 splits channel pairs across two registers and
    // each channel is stored with one 8-byte write.

    /// Transposes 4 LUT rows into four 4×u16 channel vectors and stores
    /// them, one to a plane.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn store_transposed4(r: [i64; 4], d: [&mut [F16; 4]; N_REDSHIFTS]) {
        let mask = _mm_setr_epi8(0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15);
        let a = _mm_shuffle_epi8(_mm_set_epi64x(r[1], r[0]), mask); // rows 0-1 pairs
        let b = _mm_shuffle_epi8(_mm_set_epi64x(r[3], r[2]), mask); // rows 2-3 pairs
        let lo = _mm_unpacklo_epi32(a, b); // [chan0(4×u16) chan1(4×u16)]
        let hi = _mm_unpackhi_epi32(a, b); // [chan2 chan3]
        let [d0, d1, d2, d3] = d;
        store4(d0, lo);
        store4(d1, _mm_srli_si128::<8>(lo));
        store4(d2, hi);
        store4(d3, _mm_srli_si128::<8>(hi));
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) fn gather_u8_sse(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        dst: [&mut [F16]; N_REDSHIFTS],
    ) {
        let (keys4, key_tail) = keys.as_chunks::<4>();
        let [(c0, t0), (c1, t1), (c2, t2), (c3, t3)] = dst.map(|d| d.as_chunks_mut::<4>());
        for ((((k, d0), d1), d2), d3) in keys4.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
            // SAFETY: every key is < lut.len(), `gather_into`'s contract.
            let r = unsafe { k.map(|k| row(lut, k as usize)) };
            store_transposed4(r, [d0, d1, d2, d3]);
        }
        gather_u8_scalar(key_tail, lut, [t0, t1, t2, t3]);
    }

    #[target_feature(enable = "sse4.2")]
    pub(super) fn gather_u16_sse(
        keys: &[u8],
        lut: &[[F16; N_REDSHIFTS]],
        dst: [&mut [F16]; N_REDSHIFTS],
    ) {
        let (keys4, key_tail) = keys.as_chunks::<8>();
        let [(c0, t0), (c1, t1), (c2, t2), (c3, t3)] = dst.map(|d| d.as_chunks_mut::<4>());
        for ((((kb, d0), d1), d2), d3) in keys4.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
            // SAFETY: every key is < lut.len(), `gather_into`'s contract.
            let r = unsafe { u16_keys::<4>(kb).map(|k| row(lut, k)) };
            store_transposed4(r, [d0, d1, d2, d3]);
        }
        gather_u16_scalar(key_tail, lut, [t0, t1, t2, t3]);
    }
}
