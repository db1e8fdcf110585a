//! The CosmoFlow wire parser and decoder as they stood before the
//! decoder read a borrowed [`super::CosmoView`], frozen as the oracle
//! the differential tests compare against: `from_bytes` copying every
//! chunk's table and keys out of the blob and checking each key in a
//! scalar loop, then `decode_impl` allocating its LUT, memo and seen
//! vectors per chunk and checking the keys again with the max-scan. Two
//! edits: the `rayon` branch is left out (a chunk decoded the same on
//! either), and `from_bytes` reserves for no more chunks than the blob
//! can hold (the 58 MB it used to reserve for 32 bytes were not part of
//! its answer).
//!
//! Test-only (`#[cfg(test)]` in `mod.rs`): nothing outside the tests may
//! call into it. Do not "fix" or speed up anything here — a change to
//! this file changes what "the same bits" means.

use super::{CosmoChunk, EncodedCosmo, KeyWidth, MAGIC, VERSION};
use crate::ops::{Op, OpCounter};
use crate::CodecError;
use sciml_data::cosmoflow::N_REDSHIFTS;
use sciml_half::F16;

/// Parses the wire format, validating chunk coverage and key ranges.
pub(crate) fn from_bytes(data: &[u8]) -> Result<EncodedCosmo, CodecError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| crate::wire::take(data, pos, n);
    if take(&mut pos, 4)? != MAGIC {
        return Err(CodecError::Corrupt("bad magic"));
    }
    if crate::wire::le_u32(take(&mut pos, 4)?) != VERSION {
        return Err(CodecError::Corrupt("unsupported version"));
    }
    let grid = crate::wire::le_u32(take(&mut pos, 4)?);
    if grid as u64 > 4096 {
        return Err(CodecError::Corrupt("implausible grid"));
    }
    let mut label = [0f32; 4];
    for l in &mut label {
        *l = crate::wire::le_f32(take(&mut pos, 4)?);
    }
    let n_chunks = crate::wire::le_u32(take(&mut pos, 4)?) as usize;
    let mut chunks = Vec::with_capacity(n_chunks.min(data.len() / 17));
    let mut covered = 0u64;
    for _ in 0..n_chunks {
        let n_voxels = crate::wire::le_u32(take(&mut pos, 4)?);
        let key_width = KeyWidth::from_code(take(&mut pos, 1)?[0])?;
        let n_groups = crate::wire::le_u32(take(&mut pos, 4)?) as usize;
        let max_groups = match key_width {
            KeyWidth::U8 => 256,
            KeyWidth::U16 => 65536,
        };
        if n_groups == 0 || n_groups > max_groups {
            return Err(CodecError::Corrupt("group count vs key width"));
        }
        let table_bytes = take(&mut pos, n_groups * 2 * N_REDSHIFTS)?;
        let table: Vec<[u16; N_REDSHIFTS]> = table_bytes
            .chunks_exact(2 * N_REDSHIFTS)
            .map(|g| {
                let mut arr = [0u16; N_REDSHIFTS];
                for (i, a) in arr.iter_mut().enumerate() {
                    *a = u16::from_le_bytes([g[2 * i], g[2 * i + 1]]);
                }
                arr
            })
            .collect();
        let key_bytes = (n_voxels as usize)
            .checked_mul(key_width.bytes())
            .ok_or(CodecError::Truncated)?;
        let keys = take(&mut pos, key_bytes)?.to_vec();
        let chunk = CosmoChunk {
            n_voxels,
            key_width,
            table,
            keys,
        };
        for i in 0..n_voxels as usize {
            if chunk.key(i) >= chunk.table.len() {
                return Err(CodecError::Corrupt("key out of table range"));
            }
        }
        covered += n_voxels as u64;
        chunks.push(chunk);
    }
    if pos != data.len() {
        return Err(CodecError::Inconsistent("trailing bytes"));
    }
    let enc = EncodedCosmo {
        grid,
        label,
        chunks,
    };
    if covered != enc.voxels() as u64 {
        return Err(CodecError::Inconsistent("chunks do not cover grid"));
    }
    Ok(enc)
}

/// Decodes into `out`, exactly `voxels × N_REDSHIFTS` long. `grid` must
/// not be zero: this decoder panics on it (`chunks_mut(0)`).
pub(crate) fn decode_into(
    enc: &EncodedCosmo,
    op: Op,
    counter: Option<&OpCounter>,
    out: &mut [F16],
) -> Result<(), CodecError> {
    let voxels = enc.voxels();
    let covered: u64 = enc.chunks.iter().map(|c| c.n_voxels as u64).sum();
    if covered != voxels as u64 {
        return Err(CodecError::Inconsistent("chunks do not cover grid"));
    }
    if out.len() != voxels * N_REDSHIFTS {
        return Err(CodecError::Inconsistent("output slice length mismatch"));
    }

    let mut channels: Vec<&mut [F16]> = out.chunks_mut(voxels).collect();

    let decode_chunk = |chunk: &CosmoChunk,
                        start: usize,
                        chans: &mut [&mut [F16]]|
     -> Result<(), CodecError> {
        let apply = |count: u16| -> F16 {
            let x = count as f32;
            let y = match counter {
                Some(c) => c.apply(op, x),
                None => op.apply(x),
            };
            F16::from_f32(y)
        };
        let mut lut: Vec<[F16; N_REDSHIFTS]> = vec![[F16::ZERO; N_REDSHIFTS]; chunk.table.len()];
        let (mut lo, mut hi) = (u16::MAX, u16::MIN);
        for g in &chunk.table {
            for &c in g {
                lo = lo.min(c);
                hi = hi.max(c);
            }
        }
        const DENSE_RANGE_MAX: usize = 1 << 15;
        if chunk.table.is_empty() {
            // Nothing to map; an empty table with voxels is caught by
            // the key-range check below.
        } else if ((hi - lo) as usize) < DENSE_RANGE_MAX {
            let range = (hi - lo) as usize + 1;
            let mut memo = vec![F16::ZERO; range];
            let mut seen = vec![false; range];
            for (gi, g) in chunk.table.iter().enumerate() {
                for (z, &c) in g.iter().enumerate() {
                    let o = (c - lo) as usize;
                    if !seen[o] {
                        seen[o] = true;
                        memo[o] = apply(c);
                    }
                    lut[gi][z] = memo[o];
                }
            }
        } else {
            let mut entries: Vec<(u16, u32)> = Vec::with_capacity(chunk.table.len() * N_REDSHIFTS);
            for (gi, g) in chunk.table.iter().enumerate() {
                for (z, &count) in g.iter().enumerate() {
                    entries.push((count, (gi * N_REDSHIFTS + z) as u32));
                }
            }
            entries.sort_unstable();
            let mut i = 0;
            while i < entries.len() {
                let count = entries[i].0;
                let h = apply(count);
                while i < entries.len() && entries[i].0 == count {
                    let slot = entries[i].1 as usize;
                    lut[slot / N_REDSHIFTS][slot % N_REDSHIFTS] = h;
                    i += 1;
                }
            }
        }
        let n = chunk.n_voxels as usize;
        if chunk.keys.len() != n * chunk.key_width.bytes() {
            return Err(CodecError::Corrupt("key payload size"));
        }
        let max_key = match chunk.key_width {
            KeyWidth::U8 => chunk.keys.iter().copied().max().map(usize::from),
            KeyWidth::U16 => chunk
                .keys
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
                .max(),
        };
        if max_key.is_some_and(|m| m >= lut.len()) {
            return Err(CodecError::Corrupt("key out of table range"));
        }
        if let [c0, c1, c2, c3] = chans {
            // SAFETY: every key was checked < lut.len() just above.
            unsafe {
                super::gather::gather_into(
                    chunk.key_width,
                    &chunk.keys,
                    &lut,
                    [
                        &mut c0[start..start + n],
                        &mut c1[start..start + n],
                        &mut c2[start..start + n],
                        &mut c3[start..start + n],
                    ],
                )
            };
        } else {
            for v in 0..n {
                let row = &lut[chunk.key(v)];
                for (z, chan) in chans.iter_mut().enumerate() {
                    chan[start + v] = row[z];
                }
            }
        }
        Ok(())
    };

    let mut start = 0usize;
    for chunk in &enc.chunks {
        decode_chunk(chunk, start, &mut channels)?;
        start += chunk.n_voxels as usize;
    }
    Ok(())
}
