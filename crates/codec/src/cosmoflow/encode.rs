//! CosmoFlow encoder: per-sample (or per-chunk) localized lookup tables.

use super::{CosmoChunk, EncodedCosmo, KeyWidth};
use crate::ops::{Op, OpCounter, CHUNK};
use sciml_data::cosmoflow::{CosmoSample, N_REDSHIFTS};
use sciml_half::F16;
use std::collections::HashMap;
use std::convert::Infallible;

/// Maximum groups a single chunk's table may hold (16-bit key space).
const MAX_GROUPS: usize = 65536;

/// Encodes a sample into keyed lookup tables.
///
/// Voxels are walked in flat order; whenever the running table would
/// exceed the 16-bit key space a chunk is closed and a fresh table
/// started — the paper's "multiple lookup tables" scheme for large
/// decompositions. Tables are sorted for deterministic output.
pub fn encode(sample: &CosmoSample) -> EncodedCosmo {
    let voxels = sample.voxels();
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < voxels {
        let (chunk, consumed) = encode_chunk(sample, start, voxels - start);
        chunks.push(chunk);
        start += consumed;
    }
    EncodedCosmo {
        grid: sample.grid as u32,
        label: sample.label.as_array(),
        chunks,
    }
}

/// Builds one chunk starting at flat voxel `start`, covering at most
/// `remaining` voxels. Returns the chunk and how many voxels it covers.
fn encode_chunk(sample: &CosmoSample, start: usize, remaining: usize) -> (CosmoChunk, usize) {
    // Pass 1: scan forward collecting unique groups until the table is
    // full.
    let mut first_seen: HashMap<[u16; N_REDSHIFTS], u32> = HashMap::new();
    let mut consumed = 0usize;
    while consumed < remaining {
        let g = sample.group(start + consumed);
        if !first_seen.contains_key(&g) {
            if first_seen.len() == MAX_GROUPS {
                break;
            }
            first_seen.insert(g, 0);
        }
        consumed += 1;
    }

    // Deterministic table: lexicographic group order.
    let mut table: Vec<[u16; N_REDSHIFTS]> = first_seen.keys().copied().collect();
    table.sort_unstable();
    for (i, g) in table.iter().enumerate() {
        if let Some(slot) = first_seen.get_mut(g) {
            *slot = i as u32;
        }
    }

    let key_width = if table.len() <= 256 {
        KeyWidth::U8
    } else {
        KeyWidth::U16
    };

    // Pass 2: emit keys.
    let mut keys = Vec::with_capacity(consumed * key_width.bytes());
    for v in 0..consumed {
        let idx = first_seen[&sample.group(start + v)];
        match key_width {
            KeyWidth::U8 => keys.push(idx as u8),
            KeyWidth::U16 => keys.extend_from_slice(&(idx as u16).to_le_bytes()),
        }
    }

    (
        CosmoChunk {
            n_voxels: consumed as u32,
            key_width,
            table,
            keys,
        },
        consumed,
    )
}

/// The baseline's per-voxel pass over any source of counts: `fill(start,
/// vals)` widens the counts from index `start` on into `vals` (4 096 of
/// them at most, a chunk on the stack), and the operator and the FP16
/// cast run over each chunk through [`Op::narrow_into`]. Every
/// slot of `out` is written unless `fill` fails, whose error is
/// returned as it is.
pub fn baseline_preprocess_with<E>(
    op: Op,
    out: &mut [F16],
    mut fill: impl FnMut(usize, &mut [f32]) -> Result<(), E>,
) -> Result<(), E> {
    let mut vals = [0f32; CHUNK];
    for (i, dst) in out.chunks_mut(CHUNK).enumerate() {
        let vals = &mut vals[..dst.len()];
        fill(i * CHUNK, vals)?;
        op.narrow_into(vals, dst);
    }
    Ok(())
}

/// [`baseline_preprocess_with`] over a sample's counts; `out` is as
/// long as they are.
fn preprocess_counts(counts: &[u16], op: Op, out: &mut [F16]) {
    let Ok(()) = baseline_preprocess_with(op, out, |start, vals| {
        for (v, &c) in vals.iter_mut().zip(&counts[start..]) {
            *v = c as f32;
        }
        Ok::<(), Infallible>(())
    });
}

/// The baseline preprocessing path: widen every count to f32, apply the
/// operator **per voxel value**, cast to FP16. Output layout is
/// channel-major, identical to the fused decoder's.
pub fn baseline_preprocess(sample: &CosmoSample, op: Op) -> Vec<F16> {
    let mut out = vec![F16::ZERO; sample.counts.len()];
    preprocess_counts(&sample.counts, op, &mut out);
    out
}

/// [`baseline_preprocess`] into a caller-provided slice, which must be
/// exactly `sample.counts.len()` long (a typed error otherwise, never a
/// panic). Every slot is written; callers may pass recycled buffers.
pub fn baseline_preprocess_into(
    sample: &CosmoSample,
    op: Op,
    out: &mut [F16],
) -> Result<(), crate::CodecError> {
    if out.len() != sample.counts.len() {
        return Err(crate::CodecError::Inconsistent(
            "output slice length mismatch",
        ));
    }
    preprocess_counts(&sample.counts, op, out);
    Ok(())
}

/// Baseline preprocessing with operator-invocation counting (used to
/// demonstrate the unique-value fusion advantage).
pub fn baseline_preprocess_with_counter(
    sample: &CosmoSample,
    op: Op,
    counter: &OpCounter,
) -> Vec<F16> {
    counter.add(sample.counts.len() as u64);
    baseline_preprocess(sample, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_data::cosmoflow::{sample_stats, CosmoFlowConfig, UniverseGenerator};

    fn small() -> CosmoSample {
        UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0)
    }

    #[test]
    fn single_chunk_for_small_samples() {
        let s = small();
        let e = encode(&s);
        assert_eq!(e.chunks.len(), 1);
        assert_eq!(e.chunks[0].n_voxels as usize, s.voxels());
    }

    #[test]
    fn table_matches_unique_group_count() {
        let s = small();
        let e = encode(&s);
        let stats = sample_stats(&s);
        assert_eq!(e.total_groups(), stats.unique_groups);
    }

    #[test]
    fn table_is_sorted_and_deduplicated() {
        let s = small();
        let e = encode(&s);
        let t = &e.chunks[0].table;
        assert!(t.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn key_width_follows_table_size() {
        let s = small();
        let e = encode(&s);
        let c = &e.chunks[0];
        if c.table.len() <= 256 {
            assert_eq!(c.key_width, KeyWidth::U8);
        } else {
            assert_eq!(c.key_width, KeyWidth::U16);
        }
    }

    #[test]
    fn compresses_relative_to_f32_baseline() {
        let s = small();
        let e = encode(&s);
        // Keys are at most 2B vs 16B of f32 per voxel-group: even with
        // table overhead the ratio must exceed 4.
        assert!(e.compression_ratio() > 4.0, "{}", e.compression_ratio());
    }

    #[test]
    fn chunking_kicks_in_when_groups_exceed_key_space() {
        // Craft a sample with > 65536 unique groups: strictly increasing
        // tuples.
        let grid = 48; // 110592 voxels
        let voxels = grid * grid * grid;
        let mut counts = vec![0u16; voxels * N_REDSHIFTS];
        for v in 0..voxels {
            let x = (v % 60000) as u16;
            counts[v] = x;
            counts[voxels + v] = x.wrapping_add((v / 60000) as u16);
            counts[2 * voxels + v] = x / 3;
            counts[3 * voxels + v] = (v / 7) as u16;
        }
        let s = CosmoSample {
            grid,
            counts,
            label: sciml_data::cosmoflow::CosmoParams::MEANS,
        };
        let e = encode(&s);
        assert!(e.chunks.len() > 1, "{} chunks", e.chunks.len());
        let covered: u32 = e.chunks.iter().map(|c| c.n_voxels).sum();
        assert_eq!(covered as usize, voxels);
        for c in &e.chunks {
            assert!(c.table.len() <= MAX_GROUPS);
        }
        // Lossless even in the chunked regime.
        let back = super::super::decode_counts(&e).unwrap();
        assert_eq!(back, s.counts);
    }

    #[test]
    fn baseline_counts_every_application() {
        let s = small();
        let counter = OpCounter::new();
        let out = baseline_preprocess_with_counter(&s, Op::Log1p, &counter);
        assert_eq!(out.len(), s.counts.len());
        assert_eq!(counter.count(), s.counts.len() as u64);
    }
}
