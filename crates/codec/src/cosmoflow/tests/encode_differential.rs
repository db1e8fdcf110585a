//! The flat-table encoder against [`super::reference_encode`], the
//! `HashMap` encoder it replaced, under the rule the rewrite was made
//! under: a speed change may not change a byte. Every sample is encoded
//! both ways and must give the same chunks and the same wire bytes: the
//! generated samples, a sample the key space splits into chunks, a
//! chunk of exactly 2¹⁶ groups, tables either side of the U8 / U16 key
//! width, and the groups at both ends of the count range, `[u16::MAX;
//! 4]` among them, which no slot of the new table may mistake for an
//! empty one.

use super::{encode, reference_encode, EncodedCosmo, KeyWidth};
use sciml_data::cosmoflow::{
    CosmoFlowConfig, CosmoParams, CosmoSample, UniverseGenerator, N_REDSHIFTS,
};

fn generated(grid: usize, index: u64) -> CosmoSample {
    UniverseGenerator::new(CosmoFlowConfig {
        grid,
        halos: 6 + grid / 2,
        ..CosmoFlowConfig::test_small()
    })
    .generate(index)
}

/// The benchmark's sample shape: the default generator at 64³.
fn benchmark_sample(index: u64) -> CosmoSample {
    UniverseGenerator::new(CosmoFlowConfig {
        grid: 64,
        ..CosmoFlowConfig::default()
    })
    .generate(index)
}

fn sample_of(grid: usize, count: impl Fn(usize, usize) -> u16) -> CosmoSample {
    let voxels = grid * grid * grid;
    CosmoSample {
        grid,
        counts: (0..voxels * N_REDSHIFTS)
            .map(|i| count(i / voxels, i % voxels))
            .collect(),
        label: CosmoParams::MEANS,
    }
}

/// `grid³` voxels whose groups are `groups` distinct ones, each first
/// met in descending order (so the table's sort is not the scan's
/// order) and then repeated.
fn sample_with_groups(grid: usize, groups: usize) -> CosmoSample {
    sample_of(grid, |z, v| {
        let g = groups - 1 - v % groups;
        match z {
            0 => (g >> 8) as u16,
            1 => 7,
            2 => (g & 0xFF) as u16,
            _ => (g * 37 % 65521) as u16,
        }
    })
}

/// Both encoders over `sample`: the same chunks and the same bytes.
#[track_caller]
fn assert_same_encoding(sample: &CosmoSample, what: &str) -> EncodedCosmo {
    let want = reference_encode::encode(sample);
    let got = encode(sample);
    assert_eq!(got, want, "{what}");
    assert!(got.to_bytes() == want.to_bytes(), "{what}: wire bytes");
    got
}

/// The generated samples at five grids: `U8` keys at the small end,
/// `U16` from 16³ on, one chunk each; and the benchmark's own shape.
#[test]
fn generated_samples_encode_to_the_reference_bytes() {
    let mut widths = Vec::new();
    for grid in [4usize, 8, 16, 32, 64] {
        for index in 0..if grid < 64 { 4 } else { 1 } {
            let enc = assert_same_encoding(
                &generated(grid, index),
                &format!("grid {grid} sample {index}"),
            );
            assert_eq!(enc.chunks.len(), 1);
            widths.push(enc.chunks[0].key_width);
        }
    }
    assert!(widths.contains(&KeyWidth::U8) && widths.contains(&KeyWidth::U16));
    assert_same_encoding(&benchmark_sample(0), "benchmark 64^3");
}

/// More unique groups than a key can name: the chunking of
/// `decode_differential`'s forced sample, three tables, the second
/// closing before a new group while later voxels repeat old ones.
#[test]
fn a_sample_of_several_chunks_encodes_to_the_reference_bytes() {
    let enc = assert_same_encoding(
        &sample_of(48, |z, v| match z {
            0 => (v % 60000) as u16,
            1 => ((v % 60000) as u16).wrapping_add((v / 60000) as u16),
            2 => (v % 60000) as u16 / 3,
            _ => (v / 7) as u16,
        }),
        "forced multi-chunk",
    );
    assert!(enc.chunks.len() > 1, "{} chunks", enc.chunks.len());
    assert!(enc.chunks.iter().any(|c| c.table.len() == 65536));
}

/// A table of exactly 2¹⁶ groups is one chunk: the 65 536th group
/// still fits, with 41³ − 2¹⁶ repeats after it.
#[test]
fn a_chunk_of_exactly_65536_groups_encodes_to_the_reference_bytes() {
    let enc = assert_same_encoding(&sample_with_groups(41, 1 << 16), "65536 groups");
    assert_eq!(enc.chunks.len(), 1);
    assert_eq!(enc.chunks[0].table.len(), 1 << 16);
    assert_eq!(enc.chunks[0].key_width, KeyWidth::U16);
}

/// 256 groups are the largest `U8` table, 257 the smallest `U16` one.
#[test]
fn the_key_width_boundary_encodes_to_the_reference_bytes() {
    for (groups, width) in [
        (1, KeyWidth::U8),
        (255, KeyWidth::U8),
        (256, KeyWidth::U8),
        (257, KeyWidth::U16),
        (258, KeyWidth::U16),
    ] {
        let enc = assert_same_encoding(&sample_with_groups(9, groups), &format!("{groups} groups"));
        assert_eq!(enc.chunks.len(), 1);
        assert_eq!(enc.chunks[0].table.len(), groups);
        assert_eq!(enc.chunks[0].key_width, width, "{groups} groups");
    }
}

/// The groups at the ends of the count range, `[u16::MAX; 4]` first,
/// alone and among others, in one chunk and in the last of several.
#[test]
fn the_extreme_groups_encode_to_the_reference_bytes() {
    let ends = [0u16, 1, u16::MAX - 1, u16::MAX];
    for (name, sample) in [
        ("all ones", sample_of(3, |_, _| u16::MAX)),
        ("all zeros", sample_of(3, |_, _| 0)),
        (
            "every end",
            sample_of(7, |z, v| ends[(v >> (2 * z)) % ends.len()]),
        ),
        (
            "ones first, ones last",
            sample_of(6, |z, v| match v {
                0 | 215 => u16::MAX,
                _ => (v * (z + 1)) as u16,
            }),
        ),
    ] {
        let enc = assert_same_encoding(&sample, name);
        assert!(enc.chunks[0].table.contains(&[u16::MAX; 4]) || name == "all zeros");
    }
    // The all-ones group last in every table of a sample of several
    // chunks.
    let enc = assert_same_encoding(
        &sample_of(48, |z, v| match (z, v % 60000) {
            _ if v % 30000 == 29999 => u16::MAX,
            (0, r) => r as u16,
            (1, r) => (r as u16).wrapping_add((v / 60000) as u16),
            _ => (v / 5) as u16,
        }),
        "all ones in every chunk",
    );
    assert!(enc.chunks.len() > 1);
    assert!(enc
        .chunks
        .iter()
        .all(|c| c.table.last() == Some(&[u16::MAX; 4])));
}
