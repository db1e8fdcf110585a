//! CosmoFlow encoder: per-sample (or per-chunk) localized lookup tables.
//!
//! A voxel's group, its four counts, is packed into a `u64` with
//! channel 0 in the top 16 bits, so numeric order is the table's
//! lexicographic order. The four channel planes are read as slices, and
//! each voxel is looked up once in [`GroupTable`], a flat open-addressed
//! table (linear probing, at most half full) that hands out ids in
//! first-seen order; the id goes into a scratch list, one a voxel. A
//! chunk closes before the group that would be its 65 537th unique one,
//! or at `u32::MAX` voxels, the most its header can count. The chunk's
//! unique groups are then sorted once, each id is mapped to its rank,
//! and the ranks are written as the keys. The bytes are those of a
//! `HashMap`-based encoder that hashed every voxel twice
//! (`tests/reference_encode.rs`).
//!
//! The hash is a fixed multiply-shift, not a keyed one: its input is the
//! writer's own sample. Nothing read from a store or a peer reaches it.

use super::{CosmoChunk, EncodedCosmo, KeyWidth};
use crate::ops::{Op, OpCounter, CHUNK};
use sciml_data::cosmoflow::{CosmoSample, N_REDSHIFTS};
use sciml_half::F16;

/// Maximum groups a single chunk's table may hold (16-bit key space).
const MAX_GROUPS: usize = 65536;

/// Where a chunk closes: before its `groups + 1`th unique group, and
/// at `voxels` voxels.
#[derive(Debug, Clone, Copy)]
struct Limits {
    groups: usize,
    voxels: usize,
}

/// The wire's limits: a 16-bit key and a `u32` voxel count.
const WIRE: Limits = Limits {
    groups: MAX_GROUPS,
    voxels: u32::MAX as usize,
};

/// Encodes a sample into keyed lookup tables.
///
/// Voxels are walked in flat order; whenever the running table would
/// exceed the 16-bit key space a chunk is closed and a fresh table
/// started — the paper's "multiple lookup tables" scheme for large
/// decompositions — and a chunk also closes at `u32::MAX` voxels, the
/// most its header can count. Tables are sorted for deterministic
/// output.
pub fn encode(sample: &CosmoSample) -> EncodedCosmo {
    encode_within(sample, WIRE)
}

/// [`encode`] with chunks closed at `limits`.
fn encode_within(sample: &CosmoSample, limits: Limits) -> EncodedCosmo {
    assert!(limits.groups > 0 && limits.voxels > 0, "{limits:?}");
    let voxels = sample.voxels();
    let planes: [&[u16]; N_REDSHIFTS] =
        std::array::from_fn(|z| &sample.counts[z * voxels..(z + 1) * voxels]);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < voxels {
        let end = voxels.min(start.saturating_add(limits.voxels));
        let chunk = encode_chunk(planes.map(|p| &p[start..end]), limits.groups);
        start += chunk.n_voxels as usize;
        chunks.push(chunk);
    }
    EncodedCosmo {
        grid: sample.grid as u32,
        label: sample.label.as_array(),
        chunks,
    }
}

/// A group's four counts as one key, channel 0 in the top bits.
#[inline]
fn pack(a: u16, b: u16, c: u16, d: u16) -> u64 {
    (a as u64) << 48 | (b as u64) << 32 | (c as u64) << 16 | d as u64
}

/// The counts [`pack`] packed.
fn unpack(key: u64) -> [u16; N_REDSHIFTS] {
    std::array::from_fn(|z| (key >> (48 - 16 * z)) as u16)
}

/// Encodes the longest prefix of `planes` (one slice a channel, equally
/// long) that holds at most `max_groups` unique groups.
fn encode_chunk(planes: [&[u16]; N_REDSHIFTS], max_groups: usize) -> CosmoChunk {
    let [p0, p1, p2, p3] = planes;
    // No chunk meets more groups than it has voxels.
    let mut table = GroupTable::new(p0.len().min(max_groups));
    let mut ids = Vec::new();
    for (((&a, &b), &c), &d) in p0.iter().zip(p1).zip(p2).zip(p3) {
        let Some(id) = table.id_of(pack(a, b, c, d)) else {
            break;
        };
        ids.push(id);
    }

    // Deterministic table: lexicographic group order, and each
    // first-seen id's rank in it.
    let mut sorted: Vec<(u64, u16)> = table.keys.iter().copied().zip(0..=u16::MAX).collect();
    sorted.sort_unstable();
    let mut rank = vec![0u16; sorted.len()];
    for (r, &(_, id)) in sorted.iter().enumerate() {
        rank[usize::from(id)] = r as u16;
    }
    let key_width = if sorted.len() <= 256 {
        KeyWidth::U8
    } else {
        KeyWidth::U16
    };
    let keys = match key_width {
        KeyWidth::U8 => ids.iter().map(|&id| rank[usize::from(id)] as u8).collect(),
        KeyWidth::U16 => {
            let mut keys = vec![0u8; 2 * ids.len()];
            for (k, &id) in keys.as_chunks_mut().0.iter_mut().zip(ids.iter()) {
                *k = rank[usize::from(id)].to_le_bytes();
            }
            keys
        }
    };
    CosmoChunk {
        // At most `Limits::voxels`, which the wire's `u32` holds.
        n_voxels: ids.len() as u32,
        key_width,
        table: sorted.iter().map(|&(key, _)| unpack(key)).collect(),
        keys,
    }
}

/// A map from packed groups to ids handed out in first-seen order, up
/// to a fixed number of groups: open addressing with linear probing
/// over a power-of-two slot array at least twice that number. Every
/// `u64` is a legal key, so a slot's emptiness is its id, never its
/// key.
struct GroupTable {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash's top bits index a slot.
    shift: u32,
    /// The keys held, by id.
    keys: Vec<u64>,
    /// Keys the table may hold.
    max: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    /// [`EMPTY`], or the id of `key`.
    id: u32,
}

/// The id of a slot that holds no key: past every id a table hands out.
const EMPTY: u32 = u32::MAX;

impl GroupTable {
    /// A table for up to `groups` keys (at most [`MAX_GROUPS`], so that
    /// an id fits a `u16`).
    fn new(groups: usize) -> Self {
        assert!(groups <= MAX_GROUPS, "{groups} groups do not fit a u16 id");
        let len = (2 * groups).next_power_of_two().max(2);
        Self {
            slots: vec![Slot { key: 0, id: EMPTY }; len],
            shift: 64 - len.trailing_zeros(),
            keys: Vec::with_capacity(groups),
            max: groups,
        }
    }

    /// The id of `key`, handing out the next one if it is new and the
    /// table is not full; `None` where it is new and the table is.
    #[inline]
    fn id_of(&mut self, key: u64) -> Option<u16> {
        let mask = self.slots.len() - 1;
        // Fold the high half in, then multiply-shift: every key bit
        // reaches the top bits that pick the slot.
        let mut i = ((key ^ key >> 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.id == EMPTY {
                if self.keys.len() == self.max {
                    return None;
                }
                let id = self.keys.len() as u16;
                *slot = Slot {
                    key,
                    id: u32::from(id),
                };
                self.keys.push(key);
                return Some(id);
            }
            if slot.key == key {
                return Some(slot.id as u16);
            }
            i = (i + 1) & mask;
        }
    }
}

/// The baseline's per-voxel pass over a sample's counts: each chunk of
/// [`CHUNK`] is widened to f32 on the stack, and the operator and the
/// FP16 cast run over it through [`Op::narrow_into`]. `out` is as long
/// as the counts.
fn preprocess_counts(counts: &[u16], op: Op, out: &mut [F16]) {
    let mut vals = [0f32; CHUNK];
    for (dst, src) in out.chunks_mut(CHUNK).zip(counts.chunks(CHUNK)) {
        let vals = &mut vals[..dst.len()];
        for (v, &c) in vals.iter_mut().zip(src) {
            *v = c as f32;
        }
        op.narrow_into(vals, dst);
    }
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

    /// The chunking rule at limits a test can reach (a chunk of
    /// `u32::MAX` voxels is a 32 GiB sample), against a direct model of
    /// it: a chunk closes before the voxel whose group would be one too
    /// many, and once it holds `limits.voxels` voxels.
    #[test]
    fn chunks_close_at_the_group_limit_and_at_the_voxel_limit() {
        fn model(s: &CosmoSample, limits: Limits) -> Vec<u32> {
            let mut lens = Vec::new();
            let mut seen = std::collections::HashSet::new();
            let mut len = 0;
            for v in 0..s.voxels() {
                let g = s.group(v);
                if len == limits.voxels || (!seen.contains(&g) && seen.len() == limits.groups) {
                    lens.push(len as u32);
                    (len, seen) = (0, Default::default());
                }
                seen.insert(g);
                len += 1;
            }
            lens.push(len as u32);
            lens
        }
        let s = small();
        for (groups, voxels) in [
            (1, 1),
            (1, usize::MAX),
            (3, 5),
            (40, 1000),
            (256, 7),
            (257, 4096),
            (MAX_GROUPS, 4096),
            (MAX_GROUPS, 4095),
            (MAX_GROUPS, s.voxels() - 1),
        ] {
            let limits = Limits { groups, voxels };
            let e = encode_within(&s, limits);
            let lens: Vec<u32> = e.chunks.iter().map(|c| c.n_voxels).collect();
            assert_eq!(lens, model(&s, limits), "{limits:?}");
            assert!(
                e.chunks.iter().all(|c| c.table.len() <= groups),
                "{limits:?}"
            );
            assert_eq!(
                super::super::decode_counts(&e).unwrap(),
                s.counts,
                "{limits:?}"
            );
        }
        assert_eq!(encode(&s).chunks.len(), 1);
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
