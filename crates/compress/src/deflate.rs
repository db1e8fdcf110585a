//! DEFLATE compressor: tokenizes with LZ77, then emits each block
//! Huffman-coded — fixed or dynamic, whichever is smaller — where that
//! saves at least an eighth of the block's stored size
//! (`MIN_SAVING_DIVISOR`), and as stored chunks where it does not.
//!
//! The reader pays for every coded block symbol by symbol and copies a
//! stored one at memcpy speed, so a block that coding barely shrinks
//! (DeepCAM's differential payload: 1.06x) costs every later read a full
//! Huffman decode for a few per cent of the bytes. The rule is taken per
//! block, so the compressible parts of the same stream (the label mask,
//! the line directory) stay coded; data that compresses well — every
//! block of the CosmoFlow gzip baseline — is written exactly as a
//! smallest-bits chooser would write it. Either way the stream is plain
//! RFC 1951, and the tokens are the matcher's whatever the block type.
//!
//! The writer does not search what it is going to store. A block is
//! tokenized `PROBE_TOKENS` (1 024) tokens at a time first, and those are
//! judged by the same rule. Where they pay, the block is tokenized on to
//! `TOKENS_PER_BLOCK` (32 Ki) and written as above. Where they do not,
//! the probe and the `MIN_SAVING_DIVISOR − 1` = 7 times as many bytes
//! after it are stored, the matcher skipping those without a search
//! (`Matcher::skip`). Seven is the divisor's complement: where data does
//! not pay, one byte in eight is searched, so the search costs an eighth
//! of what it did there — the saving the rule asks of coding — and data
//! that would have paid after a failed probe is stored for seven probes'
//! length at most (≈ 7 KB) before the next probe finds it. Skipped bytes
//! still enter the hash chains, so a later match can reach back into
//! them and a searched position gets the token it always got; a stream
//! in which no probe fails is the one written before probing.

use crate::bitstream::BitWriter;
use crate::huffman::{canonical_codes, code_lengths, stream_codes};
use crate::lz77::{Matcher, Token, MAX_MATCH};
use crate::Level;
use std::sync::OnceLock;

/// (base length, extra bits) for length codes 257..=285.
pub(crate) const LENGTH_CODES: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// (base distance, extra bits) for distance codes 0..=29.
pub(crate) const DIST_CODES: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Order in which code-length-code lengths are stored in the header.
pub(crate) const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// End-of-block symbol.
pub(crate) const EOB: usize = 256;

/// A block is Huffman-coded only when that saves at least one part in
/// this many of its stored size (an eighth, 12.5 %: the rule ZFS applies
/// per record); otherwise it is written stored. `sciml-store` takes the
/// same rule per entry: a gzip member is kept only where it saves an
/// eighth of the payload.
pub const MIN_SAVING_DIVISOR: usize = 8;

/// Tokens per block, so each gets its own adaptive code: 32 Ki keeps
/// the header overhead negligible.
const TOKENS_PER_BLOCK: usize = 32 * 1024;

/// Tokens of a block that are judged by the eighth rule before the rest
/// of it is searched; where they fail, they and `MIN_SAVING_DIVISOR − 1`
/// times as many bytes after them are stored unsearched.
const PROBE_TOKENS: usize = 1024;

/// Length code index (0..=28) of every match length; entries below 3
/// are unused.
const LENGTH_SYMBOL: [u8; MAX_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut code = 0;
    // In code order, so that 258 ends up with code 28, not as the last
    // value of code 27.
    while code < LENGTH_CODES.len() {
        let (base, extra) = LENGTH_CODES[code];
        let mut len = base as usize;
        while len < base as usize + (1 << extra) && len <= MAX_MATCH {
            table[len] = code as u8;
            len += 1;
        }
        code += 1;
    }
    table
};

/// Where [`DIST_SYMBOL`] keeps the code of distance `d + 1`: `d` itself
/// indexes the first half, `256 + d / 128` the second (from code 16 on,
/// every code covers whole runs of 128 distances).
const fn dist_slot(d: usize) -> usize {
    if d < 256 {
        d
    } else {
        256 + (d >> 7)
    }
}

/// Distance code (0..=29) by [`dist_slot`].
const DIST_SYMBOL: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut code = 0;
    while code < DIST_CODES.len() {
        let (base, extra) = DIST_CODES[code];
        let mut d = base as usize - 1;
        while d < base as usize - 1 + (1 << extra) {
            table[dist_slot(d)] = code as u8;
            d += 1;
        }
        code += 1;
    }
    table
};

/// Maps a match length (3..=258) to (code index 0..=28, extra bits, extra value).
#[inline]
pub(crate) fn length_symbol(len: u16) -> (usize, u8, u16) {
    debug_assert!((3..=258).contains(&len));
    let idx = LENGTH_SYMBOL[len as usize] as usize;
    let (base, extra) = LENGTH_CODES[idx];
    (idx, extra, len - base)
}

/// Maps a distance (1..=32768) to (code 0..=29, extra bits, extra value).
#[inline]
pub(crate) fn dist_symbol(dist: u16) -> (usize, u8, u16) {
    debug_assert!(dist >= 1);
    let idx = DIST_SYMBOL[dist_slot(dist as usize - 1)] as usize;
    let (base, extra) = DIST_CODES[idx];
    (idx, extra, dist - base)
}

/// Fixed lit/len code lengths (RFC 1951 §3.2.6).
pub(crate) const FIXED_LITLEN_LENGTHS: [u8; 288] = {
    let mut l = [8u8; 288];
    let mut s = 144;
    while s < 280 {
        l[s] = if s < 256 { 9 } else { 7 };
        s += 1;
    }
    l
};

/// Fixed distance code lengths: thirty 5-bit codes.
pub(crate) const FIXED_DIST_LENGTHS: [u8; 30] = [5; 30];

/// Extra bits that follow each lit/len symbol (none below 257).
const LITLEN_EXTRA: [u8; 288] = {
    let mut e = [0u8; 288];
    let mut code = 0;
    while code < LENGTH_CODES.len() {
        e[257 + code] = LENGTH_CODES[code].1;
        code += 1;
    }
    e
};

/// The fixed lit/len and distance codes as the writer takes them
/// ([`stream_codes`]), built on first use.
fn fixed_codes() -> &'static (Vec<u32>, Vec<u32>) {
    static CODES: OnceLock<(Vec<u32>, Vec<u32>)> = OnceLock::new();
    CODES.get_or_init(|| {
        (
            stream_codes(&FIXED_LITLEN_LENGTHS),
            stream_codes(&FIXED_DIST_LENGTHS),
        )
    })
}

/// Compresses `data` into a raw DEFLATE stream.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(data.len() / 2 + 32);
    compress_into(&mut w, data, level);
    w.finish()
}

/// Appends `data` as a raw DEFLATE stream to `w`, which is left
/// wherever the final block ends (not byte-aligned).
pub(crate) fn compress_into(w: &mut BitWriter, data: &[u8], level: Level) {
    if data.is_empty() {
        write_stored_block(w, &[], true);
        return;
    }
    let mut matcher = Matcher::new(data, level.max_chain(), level.good_enough(), level.lazy());
    let mut tokens = Vec::with_capacity(TOKENS_PER_BLOCK);
    let mut rest = Vec::with_capacity(TOKENS_PER_BLOCK - PROBE_TOKENS);
    while !matcher.is_done() {
        let start = matcher.position();
        matcher.next_tokens(&mut tokens, PROBE_TOKENS);
        let probe = Frequencies::count(&tokens);
        if coding_that_pays(&probe).is_none() {
            // Store the probe and seven times as many bytes after it
            // unsearched: where the data does not pay, one byte in
            // `MIN_SAVING_DIVISOR` is searched.
            matcher.skip((MIN_SAVING_DIVISOR - 1) * probe.raw_len);
            let raw = &data[start..matcher.position()];
            write_stored_chunks(w, raw, matcher.is_done());
            continue;
        }
        matcher.next_tokens(&mut rest, TOKENS_PER_BLOCK - tokens.len());
        tokens.extend_from_slice(&rest);
        let freq = Frequencies::count(&tokens);
        let raw = &data[start..start + freq.raw_len];
        write_best_block(w, &tokens, &freq, raw, matcher.is_done());
    }
}

/// Symbol counts of a token chunk (including the EOB symbol) and the
/// number of input bytes it stands for.
struct Frequencies {
    lit: [u32; 288],
    dist: [u32; 30],
    raw_len: usize,
}

impl Frequencies {
    fn count(tokens: &[Token]) -> Self {
        let mut f = Frequencies {
            lit: [0; 288],
            dist: [0; 30],
            raw_len: 0,
        };
        for t in tokens {
            match *t {
                Token::Literal(b) => {
                    f.lit[b as usize] += 1;
                    f.raw_len += 1;
                }
                Token::Match { len, dist } => {
                    f.lit[257 + length_symbol(len).0] += 1;
                    f.dist[dist_symbol(dist).0] += 1;
                    f.raw_len += len as usize;
                }
            }
        }
        f.lit[EOB] += 1;
        f
    }

    /// Cost in bits of coding the chunk with the given lengths: every
    /// symbol's count times its code length plus the extra bits that
    /// follow it.
    fn body_cost(&self, lit_lens: &[u8], dist_lens: &[u8]) -> usize {
        let lit = (0..self.lit.len())
            .map(|s| self.lit[s] as usize * (lit_lens[s] + LITLEN_EXTRA[s]) as usize)
            .sum::<usize>();
        let dist = (0..self.dist.len())
            .map(|d| self.dist[d] as usize * (dist_lens[d] + DIST_CODES[d].1) as usize)
            .sum::<usize>();
        lit + dist
    }

    /// A floor under the bits of the chunk as a dynamic block: the
    /// header's fixed fields (block type, three counts, at least four
    /// code-length-code lengths), the extra bits, and the entropy of
    /// each alphabet, which no prefix code beats.
    fn dynamic_bits_at_least(&self) -> f64 {
        fn entropy_bits(counts: &[u32]) -> f64 {
            let total = counts.iter().map(|&c| c as f64).sum::<f64>();
            counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| c as f64 * (total / c as f64).log2())
                .sum()
        }
        let extra_bits = self.body_cost(&[0; 288], &[0; 30]);
        (3 + 14 + 3 * 4 + extra_bits) as f64 + entropy_bits(&self.lit) + entropy_bits(&self.dist)
    }
}

/// A chunk's dynamic Huffman code and the header that sends it.
struct DynamicCode {
    lit_lens: Vec<u8>,
    dist_lens: Vec<u8>,
    clc_stream: Vec<(usize, u16, u8)>,
    clc_lens: [u8; 19],
    hlit: usize,
    hdist: usize,
}

impl DynamicCode {
    fn new(freq: &Frequencies) -> Self {
        let lit_lens = code_lengths(&freq.lit, 15);
        let dist_lens = code_lengths(&freq.dist, 15);
        let (clc_stream, clc_lens, hlit, hdist) = build_header(&lit_lens, &dist_lens);
        DynamicCode {
            lit_lens,
            dist_lens,
            clc_stream,
            clc_lens,
            hlit,
            hdist,
        }
    }

    /// Bits of the chunk as a dynamic block, header included.
    fn bits(&self, freq: &Frequencies) -> usize {
        let header_bits = 14
            + 3 * clc_count(&self.clc_lens)
            + self
                .clc_stream
                .iter()
                .map(|&(sym, _len_of_extra, extra_bits)| {
                    self.clc_lens[sym] as usize + extra_bits as usize
                })
                .sum::<usize>();
        3 + header_bits + freq.body_cost(&self.lit_lens, &self.dist_lens)
    }
}

/// How a chunk is coded where coding it pays.
enum Coding {
    Fixed,
    Dynamic(DynamicCode),
}

/// Fixed or dynamic coding, whichever takes fewer bits, if that saves at
/// least an eighth of the chunk's stored size (`MIN_SAVING_DIVISOR`);
/// `None`, store it, otherwise. The one rule for a block and for the
/// probe that opens it.
fn coding_that_pays(freq: &Frequencies) -> Option<Coding> {
    // Stored blocks carry at most 65535 bytes each.
    let stored_bits = freq
        .raw_len
        .div_ceil(65535)
        .max(1)
        .checked_mul(5 * 8)
        .map(|hdr| hdr + freq.raw_len * 8 + 7)
        .unwrap_or(usize::MAX);
    let limit = stored_bits - stored_bits / MIN_SAVING_DIVISOR;
    let fixed_bits = 3 + freq.body_cost(&FIXED_LITLEN_LENGTHS, &FIXED_DIST_LENGTHS);
    // Where even a dynamic code's floor is over the limit, the code
    // need not be built: the usual verdict on data that does not pay.
    if fixed_bits > limit && freq.dynamic_bits_at_least() > limit as f64 + 1.0 {
        return None;
    }
    let code = DynamicCode::new(freq);
    let dynamic_bits = code.bits(freq);
    if fixed_bits.min(dynamic_bits) > limit {
        None
    } else if fixed_bits <= dynamic_bits {
        Some(Coding::Fixed)
    } else {
        Some(Coding::Dynamic(code))
    }
}

/// Writes this chunk as [`coding_that_pays`] says: fixed- or
/// dynamic-coded, or stored, which is what the reader copies instead of
/// decoding.
fn write_best_block(
    w: &mut BitWriter,
    tokens: &[Token],
    freq: &Frequencies,
    raw: &[u8],
    final_block: bool,
) {
    match coding_that_pays(freq) {
        None => write_stored_chunks(w, raw, final_block),
        Some(Coding::Fixed) => {
            w.write_bits(final_block as u32, 1);
            w.write_bits(0b01, 2);
            let (lit_codes, dist_codes) = fixed_codes();
            write_body(w, tokens, lit_codes, dist_codes);
        }
        Some(Coding::Dynamic(code)) => {
            w.write_bits(final_block as u32, 1);
            w.write_bits(0b10, 2);
            write_dynamic_header(w, &code.clc_stream, &code.clc_lens, code.hlit, code.hdist);
            write_body(
                w,
                tokens,
                &stream_codes(&code.lit_lens),
                &stream_codes(&code.dist_lens),
            );
        }
    }
}

/// Number of code-length-code lengths that must be transmitted.
fn clc_count(clc_lens: &[u8; 19]) -> usize {
    let mut hclen = 19;
    while hclen > 4 && clc_lens[CLC_ORDER[hclen - 1]] == 0 {
        hclen -= 1;
    }
    hclen
}

/// Run-length encodes the concatenated lit+dist length arrays with the
/// 16/17/18 repeat codes. Returns (stream of (symbol, extra_value,
/// extra_bits), clc lengths, hlit, hdist).
#[allow(clippy::type_complexity)]
fn build_header(
    lit_lens: &[u8],
    dist_lens: &[u8],
) -> (Vec<(usize, u16, u8)>, [u8; 19], usize, usize) {
    let mut hlit = 286;
    while hlit > 257 && lit_lens[hlit - 1] == 0 {
        hlit -= 1;
    }
    let mut hdist = 30;
    while hdist > 1 && dist_lens[hdist - 1] == 0 {
        hdist -= 1;
    }

    let mut all: Vec<u8> = Vec::with_capacity(hlit + hdist);
    all.extend_from_slice(&lit_lens[..hlit]);
    all.extend_from_slice(&dist_lens[..hdist]);

    // RLE into CLC symbols.
    let mut stream: Vec<(usize, u16, u8)> = Vec::new();
    let mut i = 0;
    while i < all.len() {
        let v = all[i];
        let mut run = 1;
        while i + run < all.len() && all[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                stream.push((18, (take - 11) as u16, 7));
                left -= take;
            }
            if left >= 3 {
                stream.push((17, (left - 3) as u16, 3));
                left = 0;
            }
            for _ in 0..left {
                stream.push((0, 0, 0));
            }
        } else {
            stream.push((v as usize, 0, 0));
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                stream.push((16, (take - 3) as u16, 2));
                left -= take;
            }
            for _ in 0..left {
                stream.push((v as usize, 0, 0));
            }
        }
        i += run;
    }

    // Huffman-code the CLC symbols themselves (max length 7).
    let mut clc_freq = vec![0u32; 19];
    for &(sym, _, _) in &stream {
        clc_freq[sym] += 1;
    }
    let clc_lens_v = code_lengths(&clc_freq, 7);
    let mut clc_lens = [0u8; 19];
    clc_lens.copy_from_slice(&clc_lens_v);
    (stream, clc_lens, hlit, hdist)
}

fn write_dynamic_header(
    w: &mut BitWriter,
    stream: &[(usize, u16, u8)],
    clc_lens: &[u8; 19],
    hlit: usize,
    hdist: usize,
) {
    let hclen = clc_count(clc_lens);
    w.write_bits((hlit - 257) as u32, 5);
    w.write_bits((hdist - 1) as u32, 5);
    w.write_bits((hclen - 4) as u32, 4);
    for &pos in CLC_ORDER.iter().take(hclen) {
        w.write_bits(clc_lens[pos] as u32, 3);
    }
    let clc_codes = canonical_codes(clc_lens);
    for &(sym, extra, extra_bits) in stream {
        w.write_code(clc_codes[sym], clc_lens[sym] as u32);
        if extra_bits > 0 {
            w.write_bits(extra as u32, extra_bits as u32);
        }
    }
}

/// Writes the tokens and the end-of-block symbol through the block's
/// [`stream_codes`]: one write per symbol, the code with its extra bits
/// folded in above it (at most 15 + 13 bits).
fn write_body(w: &mut BitWriter, tokens: &[Token], lit_codes: &[u32], dist_codes: &[u32]) {
    let put = |w: &mut BitWriter, code: u32, extra: u16, extra_bits: u8| {
        let len = code >> 16;
        w.write_bits(
            (extra as u32) << len | (code & 0xFFFF),
            len + extra_bits as u32,
        );
    };
    for t in tokens {
        match *t {
            Token::Literal(b) => put(w, lit_codes[b as usize], 0, 0),
            Token::Match { len, dist } => {
                let (sym, extra_bits, extra) = length_symbol(len);
                put(w, lit_codes[257 + sym], extra, extra_bits);
                let (sym, extra_bits, extra) = dist_symbol(dist);
                put(w, dist_codes[sym], extra, extra_bits);
            }
        }
    }
    put(w, lit_codes[EOB], 0, 0);
}

fn write_stored_chunks(w: &mut BitWriter, raw: &[u8], final_block: bool) {
    if raw.is_empty() {
        write_stored_block(w, raw, final_block);
        return;
    }
    let n = raw.len().div_ceil(65535);
    for (i, chunk) in raw.chunks(65535).enumerate() {
        write_stored_block(w, chunk, final_block && i == n - 1);
    }
}

fn write_stored_block(w: &mut BitWriter, chunk: &[u8], final_block: bool) {
    debug_assert!(chunk.len() <= 65535);
    w.write_bits(final_block as u32, 1);
    w.write_bits(0b00, 2);
    w.align_to_byte();
    let len = chunk.len() as u16;
    w.write_bytes(&len.to_le_bytes());
    w.write_bytes(&(!len).to_le_bytes());
    w.write_bytes(chunk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    #[test]
    fn length_symbol_boundaries() {
        assert_eq!(length_symbol(3), (0, 0, 0));
        assert_eq!(length_symbol(10), (7, 0, 0));
        assert_eq!(length_symbol(11), (8, 1, 0));
        assert_eq!(length_symbol(12), (8, 1, 1));
        assert_eq!(length_symbol(257), (27, 5, 30));
        assert_eq!(length_symbol(258), (28, 0, 0));
    }

    #[test]
    fn dist_symbol_boundaries() {
        assert_eq!(dist_symbol(1), (0, 0, 0));
        assert_eq!(dist_symbol(4), (3, 0, 0));
        assert_eq!(dist_symbol(5), (4, 1, 0));
        assert_eq!(dist_symbol(6), (4, 1, 1));
        assert_eq!(dist_symbol(32768), (29, 13, 8191));
        assert_eq!(dist_symbol(24577), (29, 13, 0));
    }

    #[test]
    fn stored_block_roundtrip() {
        let mut w = BitWriter::new();
        write_stored_block(&mut w, b"hello", true);
        let bytes = w.finish();
        assert_eq!(inflate(&bytes).unwrap(), b"hello");
    }

    #[test]
    fn fixed_tables_shape() {
        let l = FIXED_LITLEN_LENGTHS;
        assert_eq!(l[0], 8);
        assert_eq!(l[143], 8);
        assert_eq!(l[144], 9);
        assert_eq!(l[255], 9);
        assert_eq!(l[256], 7);
        assert_eq!(l[279], 7);
        assert_eq!(l[280], 8);
        assert_eq!(l[287], 8);
    }

    #[test]
    fn symbol_tables_agree_with_the_code_ranges() {
        for len in 3..=258u16 {
            let (idx, extra, value) = length_symbol(len);
            assert_eq!(LENGTH_CODES[idx], (len - value, extra), "len {len}");
            assert!(value < 1 << extra || extra == 0 && value == 0);
            // The first code that fits: 258 is code 28, not 27 + 31.
            assert!(idx == 28 || LENGTH_CODES[idx + 1].0 > len);
        }
        for dist in 1..=32768u32 {
            let (idx, extra, value) = dist_symbol(dist as u16);
            assert_eq!(DIST_CODES[idx].0 as u32 + value as u32, dist);
            assert_eq!(DIST_CODES[idx].1, extra);
            assert!((value as u32) < 1 << extra, "dist {dist}");
        }
    }

    #[test]
    fn compress_roundtrips_text() {
        let data = b"compression test ".repeat(500);
        for level in [Level::Fastest, Level::Fast, Level::Default, Level::Best] {
            let out = compress(&data, level);
            assert_eq!(inflate(&out).unwrap(), data, "{level:?}");
            // Fastest does no LZ77 matching, so it only gets entropy-coding
            // gains; matching levels should crush repeated text.
            let bound = if level == Level::Fastest {
                data.len() / 2
            } else {
                data.len() / 4
            };
            assert!(out.len() < bound, "{level:?}: {}", out.len());
        }
    }

    #[test]
    fn incompressible_data_falls_back_near_stored() {
        // Pseudo-random bytes: compressed size must stay close to input.
        let data: Vec<u8> = (0..50_000u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u8)
            .collect();
        let out = compress(&data, Level::Default);
        assert_eq!(inflate(&out).unwrap(), data);
        assert!(out.len() < data.len() + data.len() / 16 + 64);
    }

    #[test]
    fn multi_block_inputs() {
        // Force several blocks (> 32Ki tokens of literals).
        let data: Vec<u8> = (0..200_000u64)
            .map(|i| (i.wrapping_mul(0x2545F4914F6CDD1D) >> 27) as u8)
            .collect();
        let out = compress(&data, Level::Fast);
        assert_eq!(inflate(&out).unwrap(), data);
    }

    #[test]
    fn empty_input_roundtrip() {
        let out = compress(&[], Level::Default);
        assert_eq!(inflate(&out).unwrap(), Vec::<u8>::new());
    }
}
