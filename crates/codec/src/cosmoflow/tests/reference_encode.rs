//! The CosmoFlow encoder as it stood before it probed a flat table of
//! packed groups, frozen as the oracle the differential tests compare
//! against: each chunk scanned through `CosmoSample::group` into a
//! std `HashMap` of first-seen groups, its keys sorted, then every
//! voxel's group hashed a second time to emit its key.
//!
//! Test-only (`#[cfg(test)]` in `mod.rs`): nothing outside the tests may
//! call into it. Do not "fix" or speed up anything here — a change to
//! this file changes what "the same bytes" means.

use super::{CosmoChunk, EncodedCosmo, KeyWidth};
use sciml_data::cosmoflow::{CosmoSample, N_REDSHIFTS};
use std::collections::HashMap;

/// Maximum groups a single chunk's table may hold (16-bit key space).
const MAX_GROUPS: usize = 65536;

/// Encodes a sample into keyed lookup tables.
pub(crate) fn encode(sample: &CosmoSample) -> EncodedCosmo {
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
