//! The view decoder against [`super::reference_decode`], the owned
//! parse and per-chunk-allocating decode it replaced, under the rule
//! the rewrite was made under: a speed change may not change a bit.
//! Every sample is decoded through an owned [`EncodedCosmo`] and
//! through a [`CosmoView`] parsed from its wire bytes, under all four
//! operators; every blob the frozen parser rejects must be rejected,
//! with its error. Two answers moved on purpose and are pinned here by
//! name: a zero grid is `Corrupt` at parse (the frozen decoder panics
//! on one), and the key-range check comes after the structural ones
//! (the view leaves it to the decoder, the owned parse runs it last).
//! Runs under every `SCIML_SIMD` tier in the ci simd-matrix: the tiers
//! differ in the gather, which both decoders share, so what this holds
//! still is everything in front of it.

use super::{
    decode, decode_into, decode_view_into, decode_with_counter, encode, reference_decode,
    CosmoChunk, CosmoView, EncodedCosmo, KeyWidth, Table,
};
use crate::ops::OpCounter;
use crate::{CodecError, Op};
use sciml_data::cosmoflow::{
    CosmoFlowConfig, CosmoParams, CosmoSample, UniverseGenerator, N_REDSHIFTS,
};
use sciml_half::F16;

const OPS: [Op; 4] = [
    Op::Identity,
    Op::Log1p,
    Op::Normalize {
        scale: 0.2,
        offset: 1.0,
    },
    Op::Log1pNormalize {
        scale: 0.5,
        offset: 2.0,
    },
];

const KEY_OUT_OF_RANGE: CodecError = CodecError::Corrupt("key out of table range");
const ZERO_GRID: CodecError = CodecError::Corrupt("zero grid");

fn generated(grid: usize, index: u64) -> CosmoSample {
    UniverseGenerator::new(CosmoFlowConfig {
        grid,
        halos: 6 + grid / 2,
        ..CosmoFlowConfig::test_small()
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

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// The owned decode of `enc` under `op` against the frozen one: the
/// same bits into a dirty buffer and the same operator count.
#[track_caller]
fn assert_same_decode(enc: &EncodedCosmo, op: Op, what: &str) -> Vec<F16> {
    let n = enc.voxels() * N_REDSHIFTS;
    let mut want = vec![F16::ZERO; n];
    let frozen_count = OpCounter::new();
    reference_decode::decode_into(enc, op, Some(&frozen_count), &mut want).unwrap();
    let mut got = vec![F16::ONE; n];
    decode_into(enc, op, &mut got).unwrap();
    assert!(got == want, "{what}: {op:?}: owned decode");
    let count = OpCounter::new();
    let counted = decode_with_counter(enc, op, &count).unwrap();
    assert!(counted == want, "{what}: {op:?}: counted decode");
    assert_eq!(count.count(), frozen_count.count(), "{what}: {op:?}");
    want
}

/// Both decoders over one sample, owned and from its wire bytes, under
/// each operator; and all three parsers over those bytes.
#[track_caller]
fn assert_same_sample(enc: &EncodedCosmo, what: &str) {
    let bytes = enc.to_bytes();
    assert_eq!(
        reference_decode::from_bytes(&bytes).as_ref(),
        Ok(enc),
        "{what}"
    );
    assert_eq!(EncodedCosmo::from_bytes(&bytes).as_ref(), Ok(enc), "{what}");
    let view = CosmoView::parse(&bytes).unwrap();
    assert_eq!(view.n_values(), enc.voxels() * N_REDSHIFTS, "{what}");
    assert_eq!(
        view.label.map(f32::to_bits),
        enc.label.map(f32::to_bits),
        "{what}"
    );
    for op in OPS {
        let want = assert_same_decode(enc, op, what);
        let mut got = vec![F16::ONE; want.len()];
        decode_view_into(&view, op, &mut got).unwrap();
        assert!(got == want, "{what}: {op:?}: parsed view");
    }
}

/// The generated samples at four grids: the dense memo, `U8` keys at
/// the small end and `U16` from 16³ on, one chunk each.
#[test]
fn generated_samples_decode_to_the_reference_bits() {
    let mut widths = Vec::new();
    for grid in [4usize, 8, 16, 32] {
        for index in 0..4 {
            let enc = encode(&generated(grid, index));
            assert_eq!(enc.chunks.len(), 1);
            widths.push(enc.chunks[0].key_width);
            assert_same_sample(&enc, &format!("grid {grid} sample {index}"));
        }
    }
    assert!(widths.contains(&KeyWidth::U8) && widths.contains(&KeyWidth::U16));
}

/// More unique groups than a key can name: the encoder's own chunking,
/// three tables, the last chunk starting mid-plane.
#[test]
fn a_sample_of_several_chunks_decodes_to_the_reference_bits() {
    let enc = encode(&sample_of(48, |z, v| match z {
        0 => (v % 60000) as u16,
        1 => ((v % 60000) as u16).wrapping_add((v / 60000) as u16),
        2 => (v % 60000) as u16 / 3,
        _ => (v / 7) as u16,
    }));
    assert!(enc.chunks.len() > 1, "{} chunks", enc.chunks.len());
    assert!(enc.chunks.iter().any(|c| c.table.len() == 65536));
    assert_same_sample(&enc, "forced multi-chunk");
}

/// Count ranges on both sides of the dense memo's limit, and at it: a
/// span of 2¹⁵ − 1 is the largest memo, 2¹⁵ the first sorted-run sweep.
#[test]
fn dense_memo_and_sorted_run_branches_decode_to_the_reference_bits() {
    for (lo, span) in [
        (0u16, 0u16),
        (7, 1),
        (100, (1 << 15) - 1),
        (100, 1 << 15),
        (0, u16::MAX),
        (u16::MAX, 0),
    ] {
        let mut state = 0xC05_u64 + span as u64;
        // Mostly a handful of values (shared memo slots, long runs of
        // equal counts), the range's two ends among them.
        let picks: Vec<u16> = (0..9)
            .map(|_| lo + (lcg(&mut state) % (span as u64 + 1)) as u16)
            .chain([lo, lo + span])
            .collect();
        for grid in [3usize, 8] {
            let counts: Vec<u16> = (0..grid * grid * grid * N_REDSHIFTS)
                .map(|_| picks[lcg(&mut state) as usize % picks.len()])
                .collect();
            let s = sample_of(grid, |z, v| counts[z * grid * grid * grid + v]);
            assert_same_sample(
                &encode(&s),
                &format!("counts {lo}..={} grid {grid}", lo + span),
            );
        }
    }
}

/// Chunk lists only a caller can build (every field of [`EncodedCosmo`]
/// is public): chunks of no voxels, a chunk of no table, one table
/// shared by unequal chunks. The owned decode alone: no parser lets an
/// empty table through.
#[test]
fn hand_built_chunk_lists_decode_to_the_reference_bits() {
    let chunk = |n_voxels: u32, table: Vec<[u16; 4]>, keys: Vec<u8>| CosmoChunk {
        n_voxels,
        key_width: KeyWidth::U8,
        table,
        keys,
    };
    let table = vec![[1, 2, 3, 4], [0, 0, 9, 40000], [65535, 1, 1, 2]];
    let enc = EncodedCosmo {
        grid: 2,
        label: [0.3, 0.8, 0.96, 0.7],
        chunks: vec![
            chunk(0, vec![], vec![]),
            chunk(5, table.clone(), vec![2, 0, 1, 1, 2]),
            chunk(0, table.clone(), vec![]),
            chunk(3, table[..2].to_vec(), vec![1, 1, 0]),
        ],
    };
    for op in OPS {
        assert_same_decode(&enc, op, "hand-built");
    }
    // Voxels behind an empty table: nothing can name a row of it.
    let enc = EncodedCosmo {
        chunks: vec![chunk(8, vec![], vec![0; 8])],
        ..enc
    };
    let mut out = [F16::ZERO; 32];
    assert_eq!(
        decode_into(&enc, Op::Log1p, &mut out),
        Err(KEY_OUT_OF_RANGE)
    );
    assert_eq!(
        reference_decode::decode_into(&enc, Op::Log1p, None, &mut out),
        Err(KEY_OUT_OF_RANGE)
    );
    // Keys that do not fill the chunk, either way.
    for keys in [vec![0u8; 7], vec![0; 9]] {
        let enc = EncodedCosmo {
            chunks: vec![chunk(8, table.clone(), keys)],
            ..enc.clone()
        };
        assert_eq!(
            decode_into(&enc, Op::Log1p, &mut out),
            Err(CodecError::Corrupt("key payload size"))
        );
    }
}

/// A key one past the table and a key of all ones, first and last in
/// the payload, under a header that is valid: the owned parse says so,
/// the view lends the keys unread and its decoder says so.
#[test]
fn keys_out_of_table_range_are_corrupt_at_from_bytes_and_at_the_view_decode() {
    for grid in [4usize, 16] {
        let enc = encode(&generated(grid, 1));
        let chunk = &enc.chunks[0];
        let width = chunk.key_width.bytes();
        let bytes = enc.to_bytes();
        let keys_at = bytes.len() - chunk.keys.len();
        let n_groups = chunk.table.len();
        assert!(n_groups < (1 << (8 * width)) - 1, "room for a bad key");
        for bad in [n_groups as u16, u16::MAX] {
            for at in [keys_at, bytes.len() - width] {
                let mut blob = bytes.clone();
                blob[at..at + width].copy_from_slice(&bad.to_le_bytes()[..width]);
                let what = format!("grid {grid} key {bad} at {at}");
                assert_eq!(
                    reference_decode::from_bytes(&blob),
                    Err(KEY_OUT_OF_RANGE),
                    "{what}"
                );
                assert_eq!(
                    EncodedCosmo::from_bytes(&blob),
                    Err(KEY_OUT_OF_RANGE),
                    "{what}"
                );
                let view = CosmoView::parse(&blob).unwrap();
                let mut out = vec![F16::ONE; view.n_values()];
                assert_eq!(
                    decode_view_into(&view, Op::Log1p, &mut out),
                    Err(KEY_OUT_OF_RANGE),
                    "{what}"
                );
            }
        }
    }
}

/// The 32-byte blob that used to kill a decode thread at
/// `chunks_mut(0)`: `CFLX`, version 1, grid 0, four label floats, no
/// chunks.
#[test]
fn a_zero_grid_is_rejected_at_parse_and_at_decode() {
    let mut blob = b"CFLX".to_vec();
    blob.extend_from_slice(&1u32.to_le_bytes());
    blob.extend_from_slice(&[0u8; 4 + 16 + 4]);
    assert_eq!(blob.len(), 32);
    // What it was: a sample, to the parser.
    assert!(reference_decode::from_bytes(&blob).is_ok());
    assert_eq!(EncodedCosmo::from_bytes(&blob), Err(ZERO_GRID));
    assert_eq!(CosmoView::parse(&blob).map(|_| ()), Err(ZERO_GRID));
    // Built by hand, past every parser.
    let enc = EncodedCosmo {
        grid: 0,
        label: [0.0; 4],
        chunks: vec![],
    };
    assert_eq!(decode_into(&enc, Op::Log1p, &mut []), Err(ZERO_GRID));
    assert_eq!(decode(&enc, Op::Log1p), Err(ZERO_GRID));
    assert_eq!(
        decode_with_counter(&enc, Op::Log1p, &OpCounter::new()),
        Err(ZERO_GRID)
    );
}

/// Parses `data` all three ways. Both new parsers run the frozen one's
/// structural checks in its order and leave the keys for after them
/// (the owned parser to its own check, the view to its decoder), so
/// they give the frozen parser's answer wherever it got past every
/// key; where it stopped at one, they stop at it too unless the blob is
/// damaged further on, which they then report instead. Returns whether
/// the blob parsed.
#[track_caller]
fn assert_parsers_agree(data: &[u8], what: &str) -> bool {
    let owned = EncodedCosmo::from_bytes(data);
    let view = CosmoView::parse(data);
    if data.len() >= 12 && data[..8] == *b"CFLX\x01\0\0\0" && data[8..12] == [0; 4] {
        assert_eq!(owned, Err(ZERO_GRID), "{what}");
        assert_eq!(view.map(|_| ()), Err(ZERO_GRID), "{what}");
        return false;
    }
    let frozen = reference_decode::from_bytes(data);
    // Label bits, not label values: a damaged label may be a NaN.
    let bits = |parsed: &Result<EncodedCosmo, CodecError>| {
        parsed
            .clone()
            .map(|e| (e.grid, e.label.map(f32::to_bits), e.chunks))
    };
    match (view, frozen) {
        (Ok(view), Ok(enc)) => {
            assert_eq!(bits(&owned), bits(&Ok(enc.clone())), "{what}: owned parse");
            assert_eq!(view.grid, enc.grid, "{what}");
            assert_eq!(
                view.label.map(f32::to_bits),
                enc.label.map(f32::to_bits),
                "{what}"
            );
            let mut chunks = view.chunks();
            for c in &enc.chunks {
                let lent = chunks.next().unwrap().unwrap();
                assert_eq!((lent.n_voxels, lent.key_width), (c.n_voxels, c.key_width));
                assert_eq!(lent.keys, &c.keys[..], "{what}");
                assert!(matches!(lent.table, Table::Wire(_)), "{what}");
                let mut groups = Vec::new();
                lent.table.for_each(|g| groups.push(g));
                assert_eq!(groups, c.table, "{what}");
            }
            assert!(chunks.next().is_none(), "{what}");
            let mut got = vec![F16::ONE; view.n_values()];
            let mut want = vec![F16::ZERO; view.n_values()];
            decode_view_into(&view, Op::Log1p, &mut got).unwrap();
            reference_decode::decode_into(&enc, Op::Log1p, None, &mut want).unwrap();
            assert!(got == want, "{what}: decode");
            true
        }
        (Ok(view), Err(KEY_OUT_OF_RANGE)) => {
            assert_eq!(owned, Err(KEY_OUT_OF_RANGE), "{what}: owned parse");
            let mut out = vec![F16::ONE; view.n_values()];
            assert_eq!(
                decode_view_into(&view, Op::Log1p, &mut out),
                Err(KEY_OUT_OF_RANGE),
                "{what}"
            );
            false
        }
        (Err(later), Err(KEY_OUT_OF_RANGE)) => {
            assert_eq!(owned, Err(later), "{what}: owned parse");
            false
        }
        (view, frozen) => {
            assert_eq!(bits(&owned), bits(&frozen), "{what}: owned parse");
            assert_eq!(view.map(|_| ()), frozen.map(|_| ()), "{what}: view parse");
            false
        }
    }
}

#[test]
fn view_parse_is_from_bytes_on_every_truncation_and_header() {
    let two_chunks = {
        let whole = encode(&generated(4, 2));
        let c = &whole.chunks[0];
        let half = |keys: &[u8]| CosmoChunk {
            n_voxels: keys.len() as u32,
            keys: keys.to_vec(),
            ..c.clone()
        };
        assert_eq!(c.key_width, KeyWidth::U8);
        EncodedCosmo {
            chunks: vec![half(&c.keys[..40]), half(&c.keys[40..])],
            ..whole
        }
    };
    for (name, width, enc) in [
        ("u8", KeyWidth::U8, encode(&generated(4, 0))),
        (
            "u16",
            KeyWidth::U16,
            encode(&sample_of(8, |z, v| (v >> z) as u16)),
        ),
        ("two chunks", KeyWidth::U8, two_chunks),
    ] {
        assert_eq!(enc.chunks[0].key_width, width, "{name}");
        let blob = enc.to_bytes();
        assert!(assert_parsers_agree(&blob, name));
        for cut in 0..blob.len() {
            assert_parsers_agree(&blob[..cut], &format!("{name} cut {cut}"));
        }
        // Every byte of the header and of the first chunk's, a stride
        // of the table and the keys, and every byte of the last 64
        // (the second chunk's header is among them), set to values a
        // length, a width or a key must reject.
        let fixed = 32 + 9;
        let tail = blob.len().saturating_sub(64).max(fixed);
        for at in (0..fixed)
            .chain((fixed..tail).step_by(7))
            .chain(tail..blob.len())
        {
            for v in [0u8, 1, 2, 3, 0x7F, 0xFF] {
                let mut bad = blob.clone();
                bad[at] = v;
                assert_parsers_agree(&bad, &format!("{name} byte {at} = {v:#04x}"));
            }
        }
    }
    // Random headers over a short tail: each field is mostly what an
    // honest one-chunk blob of a small grid holds, so that a share of
    // the rounds reaches the key check and the end checks, and
    // sometimes off by one or wild.
    fn draw(state: &mut u64, honest: u32) -> u32 {
        match lcg(state) % 16 {
            0 => lcg(state) as u32,
            1 => u32::MAX - (lcg(state) % 3) as u32,
            2 => (lcg(state) % 70_000) as u32,
            3 => honest.wrapping_add(1),
            4 => honest.wrapping_sub(1),
            _ => honest,
        }
    }
    let mut state = 0xC0F1_u64;
    let mut parsed = 0;
    const ROUNDS: usize = 20_000;
    for round in 0..ROUNDS {
        let state = &mut state;
        let honest_grid = 1 + (lcg(state) % 3) as u32;
        let grid = draw(state, honest_grid);
        let honest_width = 1 + (lcg(state) % 2) as u32;
        let width = draw(state, honest_width);
        let n_voxels = draw(state, grid.wrapping_pow(3));
        let honest_groups = 1 + (lcg(state) % 5) as u32;
        let n_groups = draw(state, honest_groups);
        let mut blob = b"CFLX".to_vec();
        blob.extend_from_slice(&draw(state, 1).to_le_bytes());
        blob.extend_from_slice(&grid.to_le_bytes());
        blob.extend_from_slice(&[0x3F; 16]);
        blob.extend_from_slice(&draw(state, 1).to_le_bytes());
        blob.extend_from_slice(&n_voxels.to_le_bytes());
        blob.push(width as u8);
        blob.extend_from_slice(&n_groups.to_le_bytes());
        let honest_tail = (n_groups % 512) * 8 + (n_voxels % 512) * (width % 3);
        let tail = draw(state, honest_tail) % 2048;
        // Table and key bytes below a small bound: under 1 they are all
        // keys of the first group, under 3 some name a group past the
        // table (always, where two bytes make a key).
        let bound = 1 + lcg(state) % 3;
        blob.extend((0..tail).map(|_| (lcg(state) % bound) as u8));
        parsed += assert_parsers_agree(&blob, &format!("header round {round}")) as usize;
    }
    assert!(parsed > ROUNDS / 20, "only {parsed} random headers parsed");
}
