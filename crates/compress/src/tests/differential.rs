//! Differential, golden and hostile-input tests: the rewritten hot loops
//! against [`crate::reference`], the implementation they replaced.
//!
//! The rule they enforce is the one the rewrite was made under: a speed
//! change may not change a token. Every `Level` must emit the stream the
//! reference emits, byte for byte, and every stream the reference
//! accepts must inflate to the same bytes.
//!
//! A *policy* change is a different thing, and there has been one: which
//! block type a given run of tokens is written as. `deflate` codes a
//! block only where that saves an eighth of its stored size, because a
//! reader pays for coded bytes and not for stored ones; the tokens, the
//! code lengths and the bits of each block type are what they were, and
//! the frozen reader inflates every stream. The oracle follows the
//! policy, not the other way round: `reference::compress` takes the same
//! rule through a test-only parameter, so the byte-identity tests below
//! still pin every token and every code of the production compressor,
//! and `reference::compress_smallest` is the chooser the oracle was
//! frozen with, kept for the tests that need incompressible data
//! Huffman-coded. Section (e) tests the rule itself.
//!
//! The second policy change is which bytes are searched at all: a block
//! is judged on its first 1 024 tokens before the rest is tokenized, and
//! where those fail the rule they are stored together with seven times
//! as many bytes after them, unsearched. Skipped positions still enter
//! the hash chains, so a position that is searched gets the token it got
//! before; `reference::compress` takes the probe too, and
//! `reference::compress_unprobed` is the stream before it. Section (f)
//! tests the probe and the matcher's skip.

use crate::{deflate_compress, gzip_compress, huffman, inflate, lz77, reference, Error, Level};
use proptest::prelude::*;

const LEVELS: [Level; 4] = [Level::Fastest, Level::Fast, Level::Default, Level::Best];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `n` bytes of a 64-bit LCG, the top `bits` bits of each step.
fn lcg(n: usize, seed: u64, bits: u32) -> Vec<u8> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> (64 - bits)) as u8
        })
        .collect()
}

fn text() -> Vec<u8> {
    let words = [
        "the",
        "paper",
        "gzip",
        "baseline",
        "decode",
        "pipeline",
        "sample",
        "of",
        "and",
        "host",
        "plugin",
        "storage",
        "tensor",
        "batch",
        "throughput",
        "a",
    ];
    let picks = lcg(6000, 17, 8);
    let mut out = Vec::new();
    for p in picks {
        out.extend_from_slice(words[(p & 15) as usize].as_bytes());
        out.push(if p & 0xE0 == 0 { b'\n' } else { b' ' });
    }
    out
}

/// One DeepCAM sample in the codec's differential encoding at the
/// benchmark's ingest shape, laid out as wire version 1 wrote it: the
/// header and line directory, the payload, then the label mask a byte a
/// pixel (574 533 B). A compressible head and tail around a payload
/// that does not compress: the shape the block rule and the probe were
/// made for, kept as it was so that the recorded digests and speed
/// floors go on measuring the compressor on the same bytes.
fn deepcam_blob() -> Vec<u8> {
    use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
    let sample = ClimateGenerator::new(DeepCamConfig {
        width: 288,
        height: 192,
        channels: 8,
        seed: 20220530,
        ..DeepCamConfig::default()
    })
    .generate(0);
    let cfg = sciml_codec::deepcam::EncoderConfig::default();
    let enc = sciml_codec::deepcam::encode(&sample, &cfg).0;
    let mut blob = enc.to_bytes();
    blob.truncate(20 + 9 * enc.lines.len() + 8 + enc.payload.len());
    blob[4..8].copy_from_slice(&1u32.to_le_bytes());
    blob.extend_from_slice(&(enc.mask.len() as u64).to_le_bytes());
    blob.extend_from_slice(&enc.mask);
    blob
}

/// One CosmoFlow FP32 baseline payload: what `CosmoGzip` stores at
/// `Level::Default`. The benchmark's `cosmo_gzip_dir` shape (1.77 MB).
fn cosmo_payload() -> Vec<u8> {
    use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
    let sample = UniverseGenerator::new(CosmoFlowConfig {
        grid: 48,
        seed: 20220530,
        ..CosmoFlowConfig::default()
    })
    .generate(0);
    sciml_data::serialize::cosmo_to_payload(&sample)
}

/// Full-entropy bytes: every block is cheapest stored, and 70 KB needs
/// two stored chunks (65 535 B each at most).
fn stored_forcing() -> Vec<u8> {
    lcg(70_000, 99, 8)
}

fn small_inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("empty", Vec::new()),
        ("1 byte", b"x".to_vec()),
        ("2 bytes", b"xy".to_vec()),
        ("3 bytes", b"xyz".to_vec()),
        ("300 x a", vec![b'a'; 300]),
        ("text", text()),
        // Six-bit symbols: Huffman-compressible, no matches to speak
        // of, and more than 32 Ki tokens, so several blocks.
        ("lcg noise 200 KB", lcg(200_000, 5, 6)),
        ("stored 70 KB", stored_forcing()),
    ]
}

/// The benchmark-shaped inputs are generated once per test binary.
fn large_inputs() -> &'static [(&'static str, Vec<u8>)] {
    static INPUTS: std::sync::OnceLock<Vec<(&'static str, Vec<u8>)>> = std::sync::OnceLock::new();
    INPUTS.get_or_init(|| {
        vec![
            ("deepcam blob", deepcam_blob()),
            ("cosmo payload", cosmo_payload()),
        ]
    })
}

fn input(name: &str) -> Vec<u8> {
    small_inputs()
        .into_iter()
        .chain(large_inputs().iter().cloned())
        .find(|(n, _)| *n == name)
        .map(|(_, data)| data)
        .expect("a known input name")
}

// ------------------------------------------------------- (a) byte identity

#[test]
fn every_level_emits_the_reference_stream() {
    for (name, data) in small_inputs() {
        for level in LEVELS {
            assert!(
                deflate_compress(&data, level) == reference::compress(&data, level),
                "{name} at {level:?}"
            );
        }
    }
}

/// The two benchmark payloads, at every level. The reference's deep
/// searches over 1.8 MB are slow without optimisation, so a debug build
/// checks the levels the benchmark stores them at and `scripts/ci.sh`
/// runs this test again in release mode, where it checks all four.
#[test]
fn every_level_emits_the_reference_stream_for_benchmark_payloads() {
    for (name, data) in large_inputs() {
        for level in LEVELS {
            if cfg!(debug_assertions) && matches!(level, Level::Default | Level::Best) {
                continue;
            }
            assert!(
                deflate_compress(data, level) == reference::compress(data, level),
                "{name} at {level:?}"
            );
        }
    }
}

#[test]
fn tokens_are_the_reference_tokens() {
    // Search limits no `Level` uses, including the ones where a match
    // shorter than MIN_MATCH could end a search.
    let data = [text(), lcg(20_000, 3, 2), vec![7u8; 700]].concat();
    for max_chain in [0, 1, 2, 16, 4096] {
        for good_enough in [0, 1, 2, 3, 4, 8, 258, 1000] {
            for lazy in [false, true] {
                assert!(
                    lz77::tokenize(&data, max_chain, good_enough, lazy)
                        == reference::tokenize(&data, max_chain, good_enough, lazy),
                    "chain {max_chain} good {good_enough} lazy {lazy}"
                );
            }
        }
    }
}

/// Random bytes with random run structure: literal stretches over an
/// alphabet of random size, runs of one byte, and copies of earlier
/// output at random distances.
fn structured_bytes() -> impl Strategy<Value = Vec<u8>> {
    let piece = (0u8..3, any::<u8>(), 1usize..400, 1usize..40_000, 1u32..=8);
    prop::collection::vec(piece, 0..24).prop_map(|pieces| {
        let mut out: Vec<u8> = Vec::new();
        for (which, byte, len, back, bits) in pieces {
            match which {
                0 => out.extend(lcg(len, byte as u64, bits)),
                1 => out.extend(std::iter::repeat_n(byte, len)),
                _ if out.is_empty() => out.push(byte),
                _ => {
                    let from = out.len() - 1 - (back - 1) % out.len();
                    for k in 0..len {
                        out.push(out[from + k]);
                    }
                }
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_structured_input_compresses_to_the_reference_stream(
        data in structured_bytes(),
        level in prop_oneof![
            Just(Level::Fastest), Just(Level::Fast), Just(Level::Default), Just(Level::Best)
        ],
    ) {
        let new = deflate_compress(&data, level);
        prop_assert!(new == reference::compress(&data, level));
        prop_assert!(inflate(&new).as_deref() == Ok(&data[..]));
    }
}

// ------------------------------------------------------ (b) golden digests

/// Lengths and FNV-1a digests of six streams, recorded from the
/// implementation that is now `reference` before anything was changed —
/// but for two rows, re-recorded when the policy changed. The DeepCAM
/// blob (574 533 B) was 485 166 B as the smallest-bits stream, 511 884 B
/// once blocks that coding cannot shrink by an eighth were stored, and is
/// longer again now that a failed probe stores its stride unsearched;
/// the oracle's old policies still give both old digests. `stored 70 KB`
/// was three stored blocks of 32 Ki tokens and is now nine runs of a
/// probe and its stride (five header bytes each). The other four rows
/// hold no block that either change treats differently.
#[test]
fn golden_digests_of_six_streams() {
    let golden: [(&str, Level, usize, u64); 6] = [
        ("300 x a", Level::Best, 6, 0x29D0B3A644AC5410),
        ("text", Level::Default, 6490, 0xFE9CF5F4E4EF8742),
        ("lcg noise 200 KB", Level::Fast, 154562, 0xA094822A34AF7E5A),
        ("stored 70 KB", Level::Default, 70045, 0x40AA63DB7BDA3234),
        ("deepcam blob", Level::Fast, 512098, 0x807A987C35FFC0EF),
        ("cosmo payload", Level::Default, 180768, 0x9FBF28D1BC51C8EC),
    ];
    for (name, level, len, digest) in golden {
        let out = deflate_compress(&input(name), level);
        assert_eq!((out.len(), fnv1a(&out)), (len, digest), "{name}");
    }
    let blob = input("deepcam blob");
    let unprobed = reference::compress_unprobed(&blob, Level::Fast);
    assert_eq!(
        (unprobed.len(), fnv1a(&unprobed)),
        (511884, 0xEBB891DF78EE4E09),
        "deepcam blob, every byte searched"
    );
    let smallest = reference::compress_smallest(&blob, Level::Fast);
    assert_eq!(
        (smallest.len(), fnv1a(&smallest)),
        (485166, 0x7FB903A76234A6DF),
        "deepcam blob, smallest-bits chooser"
    );
}

#[test]
fn gzip_framing_is_unchanged() {
    let data = text();
    for (level, xfl) in LEVELS.into_iter().zip([4, 0, 0, 2]) {
        let mut want = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, xfl, 255];
        want.extend(reference::compress(&data, level));
        want.extend(crate::crc32::crc32(&data).to_le_bytes());
        want.extend((data.len() as u32).to_le_bytes());
        assert!(gzip_compress(&data, level) == want, "{level:?}");
    }
}

// ------------------------------------------------------- (c) code lengths

#[test]
fn code_lengths_are_the_reference_lengths() {
    let check = |freqs: &[u32], max_len: u8| {
        assert_eq!(
            huffman::code_lengths(freqs, max_len),
            reference::code_lengths(freqs, max_len),
            "{freqs:?} at {max_len}"
        );
    };
    // n = 0, 1, 2 and the full literal/length alphabet.
    check(&[0, 0, 0], 15);
    check(&[0, 9, 0], 7);
    check(&[4, 0, 4], 7);
    check(&[1, 2], 1);
    check(&[1u32; 286], 15);
    check(&(1..=286).collect::<Vec<u32>>(), 15);
    check(&(0..286).map(|i| 1 << (i % 30)).collect::<Vec<u32>>(), 15);
    // Fibonacci weights want a code deeper than either limit.
    let mut fib = vec![1u32, 1];
    for i in 2..40 {
        fib.push(fib[i - 1] + fib[i - 2]);
    }
    check(&fib, 15);
    check(&fib[..19], 7);
    // All weights equal, and all ties between leaves and packages.
    check(&[5; 19], 7);
    check(&[1, 1, 2, 2, 4, 4, 8, 8, 16, 16], 7);
    check(&[2, 2, 2, 2, 4, 4, 8], 15);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_code_lengths_are_the_reference_lengths(
        // Small weights, so that ties are the rule; mostly-zero tails.
        freqs in prop::collection::vec(prop_oneof![Just(0u32), 0u32..6, 0u32..100_000], 0..286),
        deep in any::<bool>(),
    ) {
        let used = freqs.iter().filter(|&&f| f > 0).count();
        let max_len = if deep || used > 128 { 15 } else { 7 };
        prop_assert_eq!(
            huffman::code_lengths(&freqs, max_len),
            reference::code_lengths(&freqs, max_len)
        );
    }
}

// ------------------------------------------------------------ (d) inflate

/// A fixed-Huffman stream written symbol by symbol.
struct FixedBlock(reference::BitWriter);

impl FixedBlock {
    fn new() -> Self {
        let mut w = reference::BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        FixedBlock(w)
    }

    fn litlen(&mut self, sym: u16) {
        match sym {
            0..=143 => self.0.write_code(0x30 + sym, 8),
            144..=255 => self.0.write_code(0x190 + sym - 144, 9),
            256..=279 => self.0.write_code(sym - 256, 7),
            _ => self.0.write_code(0xC0 + sym - 280, 8),
        }
    }

    fn copy(&mut self, dist: u16, len: u16) {
        let (sym, extra_bits, extra) = reference::length_symbol(len);
        self.litlen(257 + sym as u16);
        self.0.write_bits(extra as u32, extra_bits as u32);
        let (sym, extra_bits, extra) = reference::dist_symbol(dist);
        self.0.write_code(sym as u16, 5);
        self.0.write_bits(extra as u32, extra_bits as u32);
    }

    fn finish(mut self) -> Vec<u8> {
        self.litlen(256);
        self.0.finish()
    }
}

/// Every overlapping copy, at every place relative to the end of the
/// output that the fast loop's margin cares about: 40 distinct bytes,
/// a copy of `len` from `dist` back, then `after` more literals, for
/// every `dist` 1..=40, `len` 3..=258 and `after` 0..=300 — decoded
/// both unsized and into a buffer of exactly the right size, where the
/// copy is `after` bytes from the end of the buffer and so falls to the
/// fast loop (`len + after >= 258 + 32`: the first literal goes through
/// the careful loop, and the fast loop checks its margin after every
/// third literal, the last time right before the copy) or to the tail.
///
/// A debug build thins this to the distances around the eight- and
/// sixteen-byte steps and the 32-byte round and, for every `len`, both
/// ends and both sides of the margin; the release run in
/// `scripts/ci.sh` covers all 3.1 million streams.
#[test]
fn overlapping_copies_at_every_distance_from_the_end() {
    let thin = cfg!(debug_assertions);
    let prefix: Vec<u8> = (0..40).map(|i| 100 + i as u8).collect();
    let dists =
        (1..=40usize).filter(|d| !thin || *d <= 9 || [15, 16, 17, 31, 32, 33, 40].contains(d));
    let afters = |len: usize| {
        let margin = 258 + 32 - len;
        (0..=300usize).filter(move |&a| !thin || a == 0 || a == 300 || a.abs_diff(margin) <= 1)
    };
    let mut out = Vec::new();
    for dist in dists {
        for len in 3..=258usize {
            let mut want = prefix.clone();
            for k in 0..len {
                want.push(want[40 - dist + k]);
            }
            for after in afters(len) {
                let mut block = FixedBlock::new();
                prefix.iter().for_each(|&b| block.litlen(b as u16));
                block.copy(dist as u16, len as u16);
                (0..after).for_each(|k| block.litlen((k % 251) as u16));
                let stream = block.finish();
                want.truncate(40 + len);
                want.extend((0..after).map(|k| (k % 251) as u8));

                assert!(
                    inflate(&stream).as_deref() == Ok(&want[..]),
                    "dist {dist} len {len} after {after}"
                );
                out.clear();
                out.reserve_exact(want.len());
                let sized = crate::inflate::inflate_into(&stream, &mut out, want.len());
                assert!(
                    sized == Ok(stream.len()) && out == want,
                    "sized: dist {dist} len {len} after {after}"
                );
            }
        }
    }
}

/// A dynamic block whose distance code has a codeword of every length
/// 1..=15: distance symbol `s` (distances 1..=256) takes `s + 1` bits,
/// and symbol 15 a second 15-bit codeword, which makes the code
/// complete. Codewords up to 10 bits are answered by the distance
/// table's primary level, the six longer ones by the second-level
/// table under its last slot. 3 000 matches cycle through the sixteen
/// symbols with random extra bits and lengths, between runs of zero to
/// two literals, after 256 literals that every distance can reach.
#[test]
fn a_distance_code_of_every_codeword_length_decodes_through_both_table_levels() {
    // Literals 9 bits, end of block and length 258 five, the other
    // lengths six: a complete code.
    let mut lit_lens = vec![9u8; 256];
    lit_lens.push(5);
    lit_lens.extend([6u8; 28]);
    lit_lens.push(5);
    let dist_lens: Vec<u8> = (1..=15).chain([15]).chain([0; 14]).collect();
    let lit_codes = reference::canonical_codes(&lit_lens);
    let dist_codes = reference::canonical_codes(&dist_lens);

    let mut w = reference::BitWriter::new();
    w.write_bits(1, 1);
    w.write_bits(0b10, 2);
    w.write_bits((lit_lens.len() - 257) as u32, 5);
    w.write_bits((dist_lens.len() - 1) as u32, 5);
    // The code-length code: symbols 0..=15 four bits each (symbol `k`'s
    // codeword is `k`), no repeat codes.
    w.write_bits(19 - 4, 4);
    for &sym in &reference::CLC_ORDER {
        w.write_bits(if sym < 16 { 4 } else { 0 }, 3);
    }
    for &len in lit_lens.iter().chain(&dist_lens) {
        w.write_code(len as u16, 4);
    }

    let literal = |w: &mut reference::BitWriter, sym: usize| {
        w.write_code(lit_codes[sym], lit_lens[sym] as u32)
    };
    let mut want = lcg(256, 61, 8);
    want.iter().for_each(|&b| literal(&mut w, b as usize));
    let picks = lcg(5 * 3000, 67, 8);
    for (i, pick) in picks.chunks(5).enumerate() {
        let sym = i % 16;
        let (base, extra_bits) = reference::DIST_CODES[sym];
        let extra = pick[0] as u16 % (1 << extra_bits);
        let len = 3 + pick[1] as u16 % 256;
        let (len_sym, len_extra_bits, len_extra) = reference::length_symbol(len);
        literal(&mut w, 257 + len_sym);
        w.write_bits(len_extra as u32, len_extra_bits as u32);
        w.write_code(dist_codes[sym], dist_lens[sym] as u32);
        w.write_bits(extra as u32, extra_bits as u32);
        let from = want.len() - (base + extra) as usize;
        for k in 0..len as usize {
            want.push(want[from + k]);
        }
        for &b in &pick[3..3 + pick[2] as usize % 3] {
            literal(&mut w, b as usize);
            want.push(b);
        }
    }
    literal(&mut w, 256);
    let stream = w.finish();

    assert!(reference::inflate(&stream).as_deref() == Ok(&want[..]));
    assert!(inflate(&stream).as_deref() == Ok(&want[..]));
    let mut out = Vec::new();
    out.reserve_exact(want.len());
    let sized = crate::inflate::inflate_into(&stream, &mut out, want.len());
    assert!(sized == Ok(stream.len()) && out == want, "sized");
}

/// Streams small enough to corrupt exhaustively, between them holding
/// all three block types, second-level table entries and long copies.
fn hostile_subjects() -> Vec<Vec<u8>> {
    let mixed = [
        &b"hostile "[..],
        &text()[..600],
        &lcg(300, 8, 8),
        &[0u8; 600],
    ]
    .concat();
    let skewed: Vec<u8> = lcg(1500, 21, 8)
        .iter()
        .map(|&b| b.trailing_zeros() as u8 * 17)
        .collect();
    vec![
        reference::compress(&mixed, Level::Default),
        reference::compress(&skewed, Level::Fast),
        reference::compress(&text()[..200], Level::Fastest),
    ]
}

/// A damaged stream gives the reference's answer: the same bytes or,
/// where the reference fails, an error; and with a limit, never more
/// than the limit.
fn assert_same_outcome(stream: &[u8], limit: usize, what: &str) {
    let want = reference::inflate(stream);
    let got = inflate(stream);
    match (&want, &got) {
        (Ok(w), Ok(g)) => assert!(w == g, "{what}: different bytes"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{what}: reference {:?}, new {:?}",
            want.as_ref().map(Vec::len),
            got.as_ref().map(Vec::len)
        ),
    }
    let mut out = Vec::new();
    let bounded = crate::inflate::inflate_into(stream, &mut out, limit);
    assert!(out.len() <= limit, "{what}: {} > limit {limit}", out.len());
    match want {
        Ok(w) if w.len() <= limit => assert!(bounded.is_ok() && out == w, "{what}: bounded"),
        Ok(_) => assert_eq!(bounded, Err(Error::OutputLimit), "{what}"),
        Err(_) => assert!(bounded.is_err(), "{what}: bounded"),
    }
}

#[test]
fn every_truncation_and_bit_flip_gives_the_reference_outcome() {
    for (n, stream) in hostile_subjects().into_iter().enumerate() {
        let len = reference::inflate(&stream).expect("a valid stream").len();
        assert_same_outcome(&stream, len, "intact");
        assert_same_outcome(&stream, len - 1, "intact, limit one short");
        for cut in 0..stream.len() {
            assert_same_outcome(&stream[..cut], len, &format!("stream {n} cut at {cut}"));
        }
        let mut damaged = stream.clone();
        for bit in 0..stream.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_same_outcome(&damaged, len + 64, &format!("stream {n} bit {bit}"));
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn output_limit_is_exact_and_typed() {
    // 1 KB of "dist 1, len 258" expands about a thousandfold.
    let mut block = FixedBlock::new();
    block.litlen(0);
    (0..600).for_each(|_| block.copy(1, 258));
    let stream = block.finish();
    let full = 1 + 600 * 258;
    assert_eq!(reference::inflate(&stream).map(|v| v.len()), Ok(full));
    // The last rows walk the limit down across the fast loop's margin.
    let limits = [0, 1, 2, 258, 259, 4096].into_iter();
    for limit in limits.chain((0..=258 + 32).map(|k| full - 1 - k)) {
        let mut out = Vec::new();
        let r = crate::gzip::decompress_into(&gzip_member(&stream, full), &mut out, limit);
        assert_eq!(r, Err(Error::OutputLimit), "limit {limit}");
        assert!(
            out.capacity() <= limit.max(8),
            "limit {limit}: {}",
            out.capacity()
        );
    }
    let mut out = Vec::new();
    crate::gzip::decompress_into(&gzip_member(&stream, full), &mut out, full).unwrap();
    assert_eq!(out, vec![0u8; full]);
    assert_eq!(out.capacity(), full, "sized once from the trailer");
}

/// Wraps a raw stream that inflates to `len` zero bytes as a gzip member.
fn gzip_member(stream: &[u8], len: usize) -> Vec<u8> {
    gzip_member_of(stream, &vec![0u8; len])
}

/// Wraps a raw stream as a gzip member whose trailer says it inflates
/// to `content`.
fn gzip_member_of(stream: &[u8], content: &[u8]) -> Vec<u8> {
    let mut gz = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
    gz.extend_from_slice(stream);
    gz.extend_from_slice(&crate::crc32::crc32(content).to_le_bytes());
    gz.extend_from_slice(&(content.len() as u32).to_le_bytes());
    gz
}

/// A fixed block of `literals` literals, a copy of 258 bytes from `dist`
/// back, and 40 more literals — enough input after the copy that a
/// fast loop that has room decodes it — and the bytes it writes after
/// `before`, the output ahead of it, if nothing stops the copy from
/// reaching into that (zeros where it reaches further still).
fn literals_then_copy(before: &[u8], literals: usize, dist: usize) -> (Vec<u8>, Vec<u8>) {
    let mut block = FixedBlock::new();
    let mut out = before.to_vec();
    let literal = |block: &mut FixedBlock, out: &mut Vec<u8>, k: usize| {
        block.litlen((k % 251) as u16);
        out.push((k % 251) as u8);
    };
    (0..literals).for_each(|k| literal(&mut block, &mut out, 100 + k));
    block.copy(dist as u16, 258);
    let from = out.len().checked_sub(dist);
    for k in 0..258 {
        out.push(from.map_or(0, |from| out[from + k]));
    }
    (0..40).for_each(|k| literal(&mut block, &mut out, k));
    (block.finish(), out.split_off(before.len()))
}

/// A match from one byte before the output: the first symbol of a
/// stream goes through the careful loop (there is no room for the
/// fast loop yet; `inflate.rs`'s `rejects_distance_before_start`), and
/// once the output has room every other symbol goes through the fast
/// loop, which must refuse it too. From exactly the first byte, it
/// decodes.
#[test]
fn the_fast_loop_refuses_a_distance_one_past_the_output_start() {
    for (dist, ok) in [(41, false), (40, true)] {
        let (stream, want) = literals_then_copy(&[], 40, dist);
        let mut out = Vec::with_capacity(4096);
        let got = crate::inflate::inflate_into(&stream, &mut out, usize::MAX);
        assert_eq!(got.is_ok(), ok, "dist {dist}: {got:?}");
        if ok {
            assert!(out == want && reference::inflate(&stream) == Ok(want));
        } else {
            let beyond = Err(Error::Corrupt("distance beyond output start"));
            assert_eq!(got, beyond);
            assert_eq!(inflate(&stream).map(|v| v.len()), beyond);
            assert_eq!(reference::inflate(&stream).map(|v| v.len()), beyond);
        }
    }
}

/// A stream inflated after other output starts its own window: a match
/// that reaches one byte into the output ahead of the stream is
/// corrupt, as the first symbol of the stream (the careful loop) and
/// after 40 literals (the fast loop: the first symbol grows the output
/// to twice the kilobyte ahead of it, so the margin holds). A match
/// that reaches exactly to the stream's own start decodes.
#[test]
fn a_stream_cannot_reach_into_the_output_ahead_of_it() {
    let before = text()[..1000].to_vec();
    for (literals, dist, ok) in [(0, 1, false), (40, 41, false), (40, 40, true)] {
        let (stream, after) = literals_then_copy(&before, literals, dist);
        let mut out = before.clone();
        let got = crate::inflate::inflate_into(&stream, &mut out, usize::MAX);
        let what = format!("{literals} literals, dist {dist}");
        if ok {
            assert_eq!(got, Ok(stream.len()), "{what}");
            assert!(out == [&before[..], &after].concat(), "{what}");
        } else {
            let beyond = Err(Error::Corrupt("distance beyond output start"));
            assert_eq!(got, beyond, "{what}");
        }
    }
}

/// The CosmoFlow payload's stream — the gzip baseline's, and the one
/// whose matches the fast loop spends its time on — cut at 200 places
/// spread over it and at each of its last 64 bytes: every cut is an
/// error, and none panics. The last 64 are inflated into a buffer of
/// the whole payload's size too, where the output's end and the
/// input's meet inside the fast loop's margins. Debug builds cut the
/// `Fast` stream (match-heavy too) at 20 spread places and every fourth
/// of its last 64 bytes.
#[test]
fn the_cosmo_payload_stream_cut_anywhere_is_an_error() {
    let thin = cfg!(debug_assertions);
    let payload = input("cosmo payload");
    let stream = deflate_compress(&payload, if thin { Level::Fast } else { Level::Default });
    let n = stream.len();
    let (spread, tail_step) = if thin { (20, 4) } else { (200, 1) };
    let mut out = Vec::new();
    let cuts = (0..spread)
        .map(|k| k * n / spread)
        .chain((n - 64..n).step_by(tail_step));
    for cut in cuts {
        assert!(inflate(&stream[..cut]).is_err(), "cut at {cut}");
        if cut >= n - 64 {
            out.clear();
            out.reserve(payload.len());
            let sized = crate::inflate::inflate_into(&stream[..cut], &mut out, payload.len());
            assert!(sized.is_err(), "sized, cut at {cut}");
        }
    }
}

// ------------------------------------------------------- (e) the block rule

/// Bytes of `n` input bytes written as stored blocks and nothing else:
/// five of header per 65 535, and one for the bits in front of the first.
fn stored_len(n: usize) -> usize {
    n + 5 * n.div_ceil(65535).max(1) + 1
}

/// BTYPE of the first block of a raw stream: 0 stored, 1 fixed, 2 dynamic.
fn first_block_type(stream: &[u8]) -> u8 {
    (stream[0] >> 1) & 3
}

/// 8 KiB with no matches in it, the first `six` bytes drawn from 64
/// values and the rest from 128: coding saves between an eighth (less
/// the code's header) and a quarter, and more the larger `six` is.
fn mixed_width_noise(six: usize) -> Vec<u8> {
    let mut data = lcg(six, 41, 6);
    data.extend(lcg(8192 - six, 43, 7));
    data
}

/// Walks the saving across one eighth in steps of 64 six-bit bytes. The
/// smallest-bits stream of the same block is its coded form (coding
/// always beats storing here), so its length is the coded cost to within
/// the last byte's padding, measured without the rule: wherever that
/// puts the block clear of the threshold, the block type must agree.
#[test]
fn a_block_is_coded_from_a_saving_of_one_eighth_up() {
    let stored_bits = 5 * 8 + 8192 * 8 + 7;
    let threshold = stored_bits - stored_bits / 8;
    let mut seen = [0usize; 2];
    let mut closest = [usize::MAX; 2];
    for six in (0..=8192).step_by(64) {
        let data = mixed_width_noise(six);
        let smallest = reference::compress_smallest(&data, Level::Fastest);
        assert_ne!(
            first_block_type(&smallest),
            0,
            "six {six}: coding beats storing"
        );
        let coded_bits_at_most = smallest.len() * 8;
        let out = deflate_compress(&data, Level::Fastest);
        assert!(inflate(&out).as_deref() == Ok(&data[..]), "six {six}");
        let coded = first_block_type(&out) != 0;
        if coded_bits_at_most <= threshold {
            assert!(
                coded && out == smallest,
                "six {six}: saves an eighth, must be coded"
            );
        } else if coded_bits_at_most - 7 > threshold {
            assert!(
                !coded,
                "six {six}: saves less than an eighth, must be stored"
            );
            assert_eq!(out.len(), stored_len(data.len()) - 1, "six {six}");
            assert_eq!(&out[..5], [1, 0, 0x20, 0xFF, 0xDF], "six {six}");
            assert_eq!(&out[5..], &data[..], "six {six}");
        }
        seen[coded as usize] += 1;
        let miss = coded_bits_at_most.abs_diff(threshold);
        closest[coded as usize] = closest[coded as usize].min(miss);
    }
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "stored {} coded {}",
        seen[0],
        seen[1]
    );
    // "Just" either side: within a quarter of a per cent of the block.
    assert!(
        closest[0] < stored_bits / 400,
        "stored, {} bits off",
        closest[0]
    );
    assert!(
        closest[1] < stored_bits / 400,
        "coded, {} bits off",
        closest[1]
    );
}

/// 64 KB regions, incompressible and compressible in turn. A block ends
/// where 32 Ki tokens do, not where a region does, so the stored blocks
/// the noise comes out as run a little way into the text after it, and
/// the coded block that follows opens with matches whose source is that
/// text: the window runs across block types, in the writer and in both
/// readers.
#[test]
fn a_match_in_a_coded_block_reaches_back_into_stored_bytes() {
    const REGION: usize = 65536;
    let mut data = Vec::new();
    for round in 0..2 {
        data.extend(lcg(REGION, 70 + round, 8));
        data.extend(text().iter().cycle().take(REGION));
    }
    let level = Level::Fast;
    let out = deflate_compress(&data, level);
    assert!(out == reference::compress(&data, level));
    assert!(inflate(&out).as_deref() == Ok(&data[..]));
    assert!(reference::inflate(&out).as_deref() == Ok(&data[..]));
    let mut sized = Vec::new();
    assert_eq!(
        crate::inflate::inflate_into(&out, &mut sized, data.len()),
        Ok(out.len())
    );
    assert!(sized == data);
    // Both noise regions cost their length, the rest next to nothing.
    assert!(
        out.len() > 2 * REGION && out.len() < 2 * REGION + REGION / 2,
        "{}",
        out.len()
    );

    // The stream opens with stored blocks (byte-aligned, so they can be
    // walked without a decoder) holding the input verbatim.
    let (mut at, mut stored_to) = (0, 0);
    while first_block_type(&out[at..]) == 0 {
        let len = u16::from_le_bytes([out[at + 1], out[at + 2]]) as usize;
        assert_eq!(
            &out[at + 5..at + 5 + len],
            &data[stored_to..stored_to + len]
        );
        at += 5 + len;
        stored_to += len;
    }
    assert!(
        (REGION..REGION + REGION / 8).contains(&stored_to),
        "{stored_to}"
    );
    // The coded block that follows holds a match that starts in it and
    // copies from before it.
    let mut pos = 0;
    let reaches_back = lz77::tokenize(&data, level.max_chain(), level.good_enough(), level.lazy())
        .iter()
        .any(|t| {
            let start = pos;
            match *t {
                lz77::Token::Literal(_) => pos += 1,
                lz77::Token::Match { len, .. } => pos += len as usize,
            }
            matches!(*t, lz77::Token::Match { dist, .. }
                if start >= stored_to && start - (dist as usize) < stored_to)
        });
    assert!(reaches_back);
}

/// Every stream the compressor now writes is read by the reader the
/// oracle was frozen with: the inputs of (a), at every level they are
/// compared at.
#[test]
fn the_frozen_reader_inflates_every_stream() {
    let large = large_inputs().iter().cloned();
    for (name, data) in small_inputs().into_iter().chain(large) {
        for level in LEVELS {
            if cfg!(debug_assertions) && data.len() > 500_000 && level != Level::Fast {
                continue;
            }
            let out = deflate_compress(&data, level);
            assert!(
                reference::inflate(&out).as_deref() == Ok(&data[..]),
                "{name} at {level:?}"
            );
        }
    }
}

// ------------------------------------------------------------ (f) the probe

/// Tokens a block is judged on before the rest of it is searched
/// (`deflate::PROBE_TOKENS`).
const PROBE_TOKENS: usize = 1024;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Coding never costs more than storing, and a failed probe costs at
    /// most one stored header for its stride: each stride stores at least
    /// seven probes' worth of bytes, a probe is at least a byte a token,
    /// so there is one stride per 8 KiB at most. Both readers get the
    /// input back.
    #[test]
    fn random_structured_input_grows_past_stored_by_a_header_per_stride_at_most(
        data in structured_bytes()
    ) {
        let strides = data.len().div_ceil(8 * PROBE_TOKENS);
        for level in LEVELS {
            let out = deflate_compress(&data, level);
            prop_assert!(
                out.len() <= stored_len(data.len()) + 5 * strides,
                "{level:?}: {} of {}", out.len(), data.len()
            );
            prop_assert!(inflate(&out).as_deref() == Ok(&data[..]));
            prop_assert!(reference::inflate(&out).as_deref() == Ok(&data[..]));
        }
    }
}

/// Inputs on which no probe fails, at every level, are written exactly
/// as they were before blocks were probed: text, a run, six-bit noise
/// (coded, but with no matches to speak of) and the CosmoFlow payload —
/// the gzip baseline's stream. A debug build checks the payload at the
/// levels that are quick without optimisation; `scripts/ci.sh` runs all
/// four in release mode.
#[test]
fn where_every_probe_pays_the_stream_is_the_unprobed_stream() {
    let inputs = ["text", "300 x a", "lcg noise 200 KB", "cosmo payload"];
    for name in inputs {
        let data = input(name);
        for level in LEVELS {
            if cfg!(debug_assertions)
                && data.len() > 500_000
                && matches!(level, Level::Default | Level::Best)
            {
                continue;
            }
            assert!(
                deflate_compress(&data, level) == reference::compress_unprobed(&data, level),
                "{name} at {level:?}"
            );
        }
    }
}

/// Stored blocks at the head of a raw stream, as `(offset into the
/// input, length)`, and the offsets in the input and in the stream
/// where they end.
fn leading_stored_blocks(stream: &[u8]) -> (Vec<(usize, usize)>, usize, usize) {
    let (mut at, mut stored_to, mut blocks) = (0, 0, Vec::new());
    while at < stream.len() && first_block_type(&stream[at..]) == 0 {
        let len = u16::from_le_bytes([stream[at + 1], stream[at + 2]]) as usize;
        blocks.push((stored_to, len));
        at += 5 + len;
        stored_to += len;
    }
    (blocks, stored_to, at)
}

/// Noise, then text. Every probe of the noise fails, and each failure
/// stores the probe and seven times its length after it, unsearched, in
/// one stored block; the stored run ends at most seven probes past the
/// noise, where the first probe that lands in the text pays and coding
/// resumes.
#[test]
fn a_failed_probe_stores_seven_times_its_length_and_no_more() {
    const NOISE: usize = 26_000;
    let mut data = lcg(NOISE, 77, 8);
    data.extend(text().iter().cycle().take(60_000));
    for level in LEVELS {
        let out = deflate_compress(&data, level);
        assert!(inflate(&out).as_deref() == Ok(&data[..]), "{level:?}");
        let (blocks, stored_to, at) = leading_stored_blocks(&out);
        assert!(
            stored_to < data.len() && first_block_type(&out[at..]) != 0,
            "{level:?}: no coded block after the noise"
        );
        let &(last_start, last_len) = blocks.last().expect("stored noise");
        for &(start, len) in &blocks {
            assert!(start < NOISE, "{level:?}: a probe of text failed");
            // A probe of 1 024 noise tokens: each a literal or a short
            // chance match.
            let probe = len / 8;
            assert!(
                len % 8 == 0 && (PROBE_TOKENS..PROBE_TOKENS + PROBE_TOKENS / 16).contains(&probe),
                "{level:?}: a stored run of {len} B at {start}"
            );
        }
        assert!(
            stored_to > NOISE && stored_to - NOISE <= 7 * (last_len / 8),
            "{level:?}: {} B of text stored past a probe at {last_start}",
            stored_to - NOISE
        );
    }
}

fn matcher(data: &[u8], level: Level) -> lz77::Matcher<'_> {
    lz77::Matcher::new(data, level.max_chain(), level.good_enough(), level.lazy())
}

/// Input bytes a token stands for.
fn token_len(t: &lz77::Token) -> usize {
    match *t {
        lz77::Token::Literal(_) => 1,
        lz77::Token::Match { len, .. } => len as usize,
    }
}

/// Each token with the position it starts at.
fn starts(tokens: &[lz77::Token]) -> impl Iterator<Item = (usize, &lz77::Token)> {
    tokens.iter().scan(0, |pos, t| {
        let start = *pos;
        *pos += token_len(t);
        Some((start, t))
    })
}

/// A matcher that skipped to a position hands out, from there, the
/// tokens of the one that searched every byte up to it. The positions
/// tried are the ends of matches: there a searching matcher starts a
/// fresh step, where the end of a literal may be the middle of a lazy
/// one (without lazy steps, every token's end is tried; under `Fastest`,
/// which enters no chains, what follows a skip is the literals).
#[test]
fn after_a_skip_the_tokens_are_the_searching_matchers() {
    let data = [text(), lcg(20_000, 3, 2), vec![7u8; 700], text()].concat();
    let mut tokens = Vec::new();
    for level in LEVELS {
        let searched = lz77::tokenize(&data, level.max_chain(), level.good_enough(), level.lazy());
        let fresh: Vec<(usize, usize)> = starts(&searched)
            .enumerate()
            .filter(|(k, _)| {
                *k > 0 && (!level.lazy() || matches!(searched[k - 1], lz77::Token::Match { .. }))
            })
            .map(|(k, (start, _))| (k, start))
            .collect();
        assert!(fresh.len() > 100, "{level:?}");
        for &(k, at) in fresh.iter().step_by(fresh.len() / 24) {
            let mut m = matcher(&data, level);
            m.skip(at);
            assert_eq!(m.position(), at);
            m.next_tokens(&mut tokens, usize::MAX);
            assert!(tokens == searched[k..], "{level:?} from {at}");
        }
    }
}

/// `abc` matches at 12, a longer match at 13: a lazy matcher asked for
/// 13 tokens hands out the literal `a` and holds the match. A skip from
/// there starts at the literal's end, drops the match, and never stops
/// inside it; what follows is the searching matcher's.
#[test]
fn a_skip_drops_a_lazy_match_held_at_the_probes_edge() {
    let data = [&b"abcQbcdefghRabcdefgh"[..], &text()].concat();
    let mut tokens = Vec::new();
    for level in [Level::Default, Level::Best] {
        let searched = lz77::tokenize(&data, level.max_chain(), level.good_enough(), level.lazy());
        assert!(searched[..13]
            .iter()
            .all(|t| matches!(t, lz77::Token::Literal(_))));
        assert_eq!(searched[13], lz77::Token::Match { len: 7, dist: 9 });
        for (len, to) in [(0, 20), (3, 20), (7, 20), (8, 21), (500, 513)] {
            let mut m = matcher(&data, level);
            m.next_tokens(&mut tokens, 13);
            assert!(tokens == searched[..13]);
            assert_eq!(
                m.position(),
                13,
                "{level:?}: the held match is not handed out"
            );
            m.skip(len);
            assert_eq!(m.position(), to, "{level:?} skip {len}");
            m.next_tokens(&mut tokens, usize::MAX);
            let mut direct = matcher(&data, level);
            direct.skip(to);
            let mut want = Vec::new();
            direct.next_tokens(&mut want, usize::MAX);
            assert!(tokens == want, "{level:?} skip {len}");
            if to == 20 {
                assert!(tokens == searched[14..], "{level:?} skip {len}");
            }
        }
    }
}

/// A skip stops at the end of the input, wherever it starts, and then
/// leaves nothing to hand out.
#[test]
fn a_skip_to_or_past_the_end_leaves_the_matcher_done() {
    let data = text();
    let n = data.len();
    let mut tokens = Vec::new();
    for level in LEVELS {
        for (first, len) in [
            (0, n),
            (0, usize::MAX),
            (100, n),
            (1000, 300),
            (3000, usize::MAX),
        ] {
            let mut m = matcher(&data, level);
            if first > 0 {
                m.next_tokens(&mut tokens, first);
            }
            let to = m.position().saturating_add(len).min(n);
            m.skip(len);
            assert_eq!(m.position(), to, "{level:?}");
            assert_eq!(m.is_done(), to == n, "{level:?}");
            m.next_tokens(&mut tokens, usize::MAX);
            let covered: usize = tokens.iter().map(token_len).sum();
            assert_eq!(covered, n - to, "{level:?}");
        }
    }
}

// -------------------------------------------------------------- (g) speed

/// The crate's speed floors, one table timed by `sciml_simd::speed`
/// (each side on the loader's threads at once, the median of
/// side-by-side timings). Release only: `cargo test --release -p sciml-compress --lib
/// -- --ignored --exact differential::speed_floors --nocapture`.
///
/// * crc32: where PCLMULQDQ is detected, the dispatched `crc32` must
///   stay 4x slicing-by-8, or a fall-back has gone silent (measured
///   ≈ 14x).
/// * The rewritten hot loops against the frozen reference, on the two
///   payloads the benchmark deflates and inflates, at the levels it
///   uses: deflate 1.7x, inflate 1.3x on the DeepCAM blob and 2.5x on the
///   CosmoFlow payload. The DeepCAM inflate row times the blob's
///   *smallest-bits* stream, where the Huffman loops do the work: the
///   stream `deflate` writes for it is mostly stored blocks, which both
///   readers copy alike. That row is bound by literals; the CosmoFlow one
///   by matches, which the fast loop copies sixteen bytes a step.
/// * Why the blob's blocks are stored: the stream `deflate` writes, the
///   one every `Auto` entry of the ingest workload is read back from,
///   inflates 3x faster than the smallest-bits stream of the same bytes.
/// * Why its bytes are not searched either: deflating the blob costs
///   less than half of one `lz77::tokenize` of it at `Fast`'s
///   parameters, because a block whose first 1 024 tokens do not pay is
///   stored with seven times as many bytes after them unsearched.
#[test]
#[ignore = "timing; release mode, run by scripts/ci.sh"]
fn speed_floors() {
    use crate::crc32::{crc32, crc32_slicing8, has_clmul, kernel_name};
    use sciml_simd::speed::{floors, Row, Shape};
    use std::hint::black_box;
    let blob = input("deepcam blob");
    let blob_stream = deflate_compress(&blob, Level::Fast);
    assert!(blob_stream == reference::compress(&blob, Level::Fast));
    let blob_smallest = reference::compress_smallest(&blob, Level::Fast);
    assert!(inflate(&blob_smallest).as_deref() == Ok(&blob[..]));
    let cosmo = input("cosmo payload");
    let cosmo_stream = deflate_compress(&cosmo, Level::Default);
    assert!(cosmo_stream == reference::compress(&cosmo, Level::Default));
    let fast = Level::Fast;
    let (chain, good, lazy) = (fast.max_chain(), fast.good_enough(), fast.lazy());
    let rows: [Row; 7] = [
        (
            "crc32 over the deepcam blob: dispatched / slicing-by-8",
            4.0,
            has_clmul(),
            &|| {
                black_box(crc32(black_box(&blob)));
            },
            &|| {
                black_box(crc32_slicing8(!0, black_box(&blob)));
            },
        ),
        (
            "deepcam blob, deflate Fast: new / reference",
            1.7,
            true,
            &|| drop(black_box(deflate_compress(black_box(&blob), fast))),
            &|| drop(black_box(reference::compress(black_box(&blob), fast))),
        ),
        (
            "deepcam blob, inflate of the smallest-bits stream: new / reference",
            1.3,
            true,
            &|| drop(black_box(inflate(black_box(&blob_smallest)))),
            &|| drop(black_box(reference::inflate(black_box(&blob_smallest)))),
        ),
        (
            "deepcam blob, inflate: the stream deflate writes / the smallest-bits stream",
            3.0,
            true,
            &|| drop(black_box(inflate(black_box(&blob_stream)))),
            &|| drop(black_box(inflate(black_box(&blob_smallest)))),
        ),
        (
            "deepcam blob: deflate Fast / lz77::tokenize at Fast's parameters",
            2.0,
            true,
            &|| drop(black_box(deflate_compress(black_box(&blob), fast))),
            &|| {
                drop(black_box(lz77::tokenize(
                    black_box(&blob),
                    chain,
                    good,
                    lazy,
                )))
            },
        ),
        (
            "cosmo payload, deflate Default: new / reference",
            1.7,
            true,
            &|| {
                drop(black_box(deflate_compress(
                    black_box(&cosmo),
                    Level::Default,
                )))
            },
            &|| {
                drop(black_box(reference::compress(
                    black_box(&cosmo),
                    Level::Default,
                )))
            },
        ),
        (
            "cosmo payload, inflate: new / reference",
            2.5,
            true,
            &|| drop(black_box(inflate(black_box(&cosmo_stream)))),
            &|| drop(black_box(reference::inflate(black_box(&cosmo_stream)))),
        ),
    ];
    floors(Shape::Loader, kernel_name(), &rows);
}

// ------------------------------------------------------ (g) the window sink

/// A member inflated through the window: what it returned, and the runs
/// it handed on, in order.
fn windowed(gz: &[u8], limit: usize) -> (Result<(), Error>, Vec<Vec<u8>>) {
    let mut runs = Vec::new();
    let result = crate::gzip_decompress_chunks(gz, limit, |run: &[u8]| {
        runs.push(run.to_vec());
        Ok::<(), Error>(())
    });
    (result, runs)
}

/// The window sink's answer is the whole sink's: the same bytes in
/// non-empty runs of at most a window each, or the same error.
fn assert_window_is_whole(gz: &[u8], what: &str) {
    let whole = crate::gzip::decompress(gz);
    let (result, runs) = windowed(gz, usize::MAX);
    assert_eq!(
        result,
        whole.as_ref().map(|_| ()).map_err(Clone::clone),
        "{what}"
    );
    if let Ok(whole) = whole {
        assert!(
            runs.iter()
                .all(|r| !r.is_empty() && r.len() <= crate::inflate::WINDOW_BUF),
            "{what}: run sizes {:?}",
            runs.iter().map(Vec::len).collect::<Vec<_>>()
        );
        assert!(runs.concat() == whole, "{what}: different bytes");
    }
}

/// A fixed block of `tokens` after `prefix` literals — a token being a
/// literal or a `(dist, len)` copy — and the bytes it inflates to.
fn fixed_stream(prefix: &[u8], tokens: &[(u16, u16)]) -> (Vec<u8>, Vec<u8>) {
    let mut block = FixedBlock::new();
    let mut out = prefix.to_vec();
    prefix.iter().for_each(|&b| block.litlen(b as u16));
    for &(dist, len) in tokens {
        if dist == 0 {
            block.litlen(len);
            out.push(len as u8);
        } else {
            block.copy(dist, len);
            let from = out.len() - dist as usize;
            (0..len as usize).for_each(|k| out.push(out[from + k]));
        }
    }
    (block.finish(), out)
}

/// Stored, fixed and dynamic blocks, every level, both benchmark
/// payloads in release builds.
#[test]
fn the_window_sink_emits_the_whole_sinks_bytes() {
    let thin = cfg!(debug_assertions);
    let mut seen = [false; 3];
    let large = large_inputs().iter().filter(|_| !thin);
    for (name, data) in small_inputs().iter().chain(large) {
        for level in LEVELS {
            if thin && data.len() > 100_000 && level != Level::Fast {
                continue;
            }
            let gz = gzip_compress(data, level);
            seen[first_block_type(&gz[10..]) as usize] = true;
            assert_window_is_whole(&gz, &format!("{name} at {level:?}"));
        }
    }
    let (stream, out) = fixed_stream(&text()[..300], &[(300, 258), (1, 100), (0, 7)]);
    assert_eq!(first_block_type(&stream), 1);
    seen[1] = true;
    assert_window_is_whole(&gzip_member_of(&stream, &out), "fixed block");
    assert_eq!(seen, [true; 3], "stored, fixed and dynamic blocks");
}

/// Copies from exactly 32 768 bytes back, the furthest DEFLATE reaches,
/// at every offset against the slides: after 32 KiB of noise, copies of
/// every length between runs of zero to two literals, for 700 KB —
/// enough for six slides, each keeping exactly the bytes the next
/// copies read. One byte less of output before the first copy, and it
/// is corrupt in both sinks.
#[test]
fn a_distance_of_32_768_reaches_across_every_slide() {
    let prefix = lcg(32_768, 3, 8);
    let mut tokens = Vec::new();
    let (mut k, mut produced) = (0u16, prefix.len());
    while produced < 700_000 {
        (0..k % 3).for_each(|j| tokens.push((0, (k + j) % 256)));
        tokens.push((32_768, 3 + k % 256));
        produced += (k % 3 + 3 + k % 256) as usize;
        k += 1;
    }
    let (stream, out) = fixed_stream(&prefix, &tokens);
    assert!(out.len() > 5 * crate::inflate::WINDOW_BUF, "{}", out.len());
    let gz = gzip_member_of(&stream, &out);
    assert!(crate::gzip::decompress(&gz).unwrap() == out);
    assert_window_is_whole(&gz, "distance 32 768");

    let mut block = FixedBlock::new();
    prefix[1..].iter().for_each(|&b| block.litlen(b as u16));
    block.copy(32_768, 3);
    let gz = gzip_member_of(&block.finish(), &[]);
    let beyond = Err(Error::Corrupt("distance beyond output start"));
    assert_eq!(windowed(&gz, usize::MAX).0, beyond);
    assert_window_is_whole(&gz, "distance past the start");
}

/// Random tokens — literals, and copies of every length from every
/// distance the output so far allows — for 600 KB a seed: matches begin
/// at every offset against a slide, and reach across it from every
/// distance. Release builds run 24 seeds, debug builds 2.
#[test]
fn matches_straddle_the_slides_at_every_offset() {
    let seeds = if cfg!(debug_assertions) { 2 } else { 24 };
    for seed in 0..seeds {
        let rand = lcg(3 * 200_000, 1000 + seed, 16);
        let mut tokens = Vec::new();
        let mut produced = 64usize;
        for t in rand.chunks_exact(3) {
            if produced > 600_000 {
                break;
            }
            let (a, b, c) = (t[0] as usize, t[1] as usize, t[2] as usize);
            if a < 64 {
                tokens.push((0, b as u16));
                produced += 1;
            } else {
                // Short distances often, then any up to the window.
                let reach = produced.min(32_768);
                let dist = if a < 160 {
                    1 + (b * 256 + c) % 64
                } else {
                    1 + (b * 256 + c) * 131 % reach
                };
                let len = 3 + (a * 7 + c) % 256;
                tokens.push((dist.min(reach) as u16, len as u16));
                produced += len;
            }
        }
        let (stream, out) = fixed_stream(&lcg(64, seed, 8), &tokens);
        assert_window_is_whole(&gzip_member_of(&stream, &out), &format!("seed {seed}"));
    }
}

/// Outputs from none and one byte to several windows: one that fits the
/// window's first fill (all of it but the fast loop's margin) comes in
/// one run, the whole output; one longer than the window in runs that
/// slide.
#[test]
fn runs_from_one_byte_to_the_whole_output() {
    let buf = crate::inflate::WINDOW_BUF;
    let room = buf - crate::lz77::WINDOW;
    let margin = crate::lz77::MAX_MATCH + 32;
    let sizes = [0, 1, 2, 3, 289, 290, 291, room - 1, room, buf - margin];
    let long = [buf, buf + 1, 2 * buf, 5 * buf + 17];
    for len in sizes.into_iter().chain(long) {
        let data = lcg(len, len as u64, 5);
        let gz = gzip_compress(&data, Level::Fast);
        let (result, runs) = windowed(&gz, usize::MAX);
        assert_eq!(result, Ok(()), "{len} bytes");
        assert!(runs.concat() == data, "{len} bytes");
        let one_run = len > 0 && len <= buf - margin;
        assert_eq!(
            runs.len() == 1,
            one_run,
            "{len} bytes in {} runs",
            runs.len()
        );
        assert_window_is_whole(&gz, &format!("{len} bytes"));
    }
}

/// Every cut of a member whose output slides twice is an error, the
/// whole sink's error: a fixed block of copies from every distance up
/// to the window, 8 KB in for 330 KB out. Release builds cut at every
/// byte, debug builds at every 61st and the last 64.
#[test]
fn every_truncation_of_a_windowed_member_is_the_whole_sinks_error() {
    let thin = cfg!(debug_assertions);
    let prefix = lcg(300, 5, 8);
    let mut produced = prefix.len();
    let tokens: Vec<(u16, u16)> = (0..2500usize)
        .map(|k| {
            let (dist, len) = (1 + k * 37 % produced.min(32_768), 3 + k % 256);
            produced += len;
            (dist as u16, len as u16)
        })
        .collect();
    let (stream, out) = fixed_stream(&prefix, &tokens);
    assert!(out.len() > 2 * crate::inflate::WINDOW_BUF);
    let gz = gzip_member_of(&stream, &out);
    assert_window_is_whole(&gz, "intact");
    let n = gz.len();
    for cut in (0..n).filter(|&c| !thin || c % 61 == 0 || c + 64 >= n) {
        assert!(crate::gzip::decompress(&gz[..cut]).is_err(), "cut at {cut}");
        assert_window_is_whole(&gz[..cut], &format!("cut at {cut}"));
    }
}

/// A damaged trailer is the whole sink's `ChecksumMismatch`; a member
/// over the limit is `OutputLimit` having handed on no more than the
/// limit, whether its trailer says so (refused before inflating) or lies
/// (refused at the limit); and a second member is refused.
#[test]
fn the_window_checks_the_trailer_the_limit_and_a_second_member() {
    let data = lcg(300_000, 11, 4);
    let gz = gzip_compress(&data, Level::Fast);
    let n = gz.len();
    for at in [n - 8, n - 5, n - 4, n - 1] {
        let mut bad = gz.clone();
        bad[at] ^= 0x01;
        assert_eq!(
            windowed(&bad, usize::MAX).0,
            Err(Error::ChecksumMismatch),
            "byte {at}"
        );
        assert_window_is_whole(&bad, &format!("byte {at}"));
    }
    for limit in [0, 1, 4096, data.len() - 1] {
        let (result, runs) = windowed(&gz, limit);
        assert_eq!(result, Err(Error::OutputLimit), "limit {limit}");
        assert!(
            runs.is_empty(),
            "refused from the trailer, before inflating"
        );
        // ISIZE says 0: found only as the output passes the limit.
        let mut lying = gz.clone();
        lying[n - 4..].copy_from_slice(&0u32.to_le_bytes());
        let (result, runs) = windowed(&lying, limit);
        assert_eq!(result, Err(Error::OutputLimit), "lying, limit {limit}");
        let emitted = runs.concat();
        assert!(
            emitted.len() <= limit && data.starts_with(&emitted),
            "limit {limit}"
        );
    }
    assert_eq!(windowed(&gz, data.len()).0, Ok(()));
    let two = [gz.clone(), gzip_compress(b"second", Level::Fast)].concat();
    assert_eq!(
        windowed(&two, usize::MAX).0,
        Err(Error::Corrupt("trailing bytes after gzip member"))
    );
    assert_window_is_whole(&two, "two members");
}

/// The consumer's error ends the stream where it is raised and comes
/// back as it was.
#[test]
fn the_consumers_error_stops_the_stream() {
    #[derive(Debug, PartialEq)]
    enum Stop {
        Here(usize),
        Inflate(Error),
    }
    impl From<Error> for Stop {
        fn from(e: Error) -> Self {
            Stop::Inflate(e)
        }
    }
    let data = lcg(1_000_000, 13, 4);
    let gz = gzip_compress(&data, Level::Fast);
    let mut calls = 0;
    let result = crate::gzip_decompress_chunks(&gz, usize::MAX, |_: &[u8]| {
        calls += 1;
        if calls == 3 {
            Err(Stop::Here(calls))
        } else {
            Ok(())
        }
    });
    assert_eq!((result, calls), (Err(Stop::Here(3)), 3));
    let mut bad = gz.clone();
    bad[20] ^= 0xFF;
    let result = crate::gzip_decompress_chunks(&bad, usize::MAX, |_: &[u8]| Ok::<(), Stop>(()));
    assert!(matches!(result, Err(Stop::Inflate(_))), "{result:?}");
}
