//! The DEFLATE implementation as it stood before the hot loops were
//! rewritten, frozen as the oracle the differential tests compare
//! against: byte-at-a-time matcher, cloning package-merge, per-token
//! block costing, single-level decode table, byte-at-a-time bit I/O.
//!
//! Test-only (`#[cfg(test)]` in `lib.rs`): nothing outside `mod tests`
//! blocks may call into it. Do not "fix" or speed up anything here — a
//! change to this file changes what "the same bytes" means. The one
//! thing that is a parameter is the compressor's policy, not its
//! arithmetic ([`BlockPolicy`]): which block type a run of tokens is
//! written as, and whether a block's first tokens are judged before the
//! rest is searched. For the latter the tokenizer's loop can stop and
//! resume, and skip ahead by entering positions into its chains without
//! searching them ([`Tokenizer`]); [`compress_unprobed`] gives the stream
//! before probing and [`compress_smallest`] the stream this file was
//! frozen with.

use crate::lz77::{Token, MAX_MATCH, MIN_MATCH, WINDOW};
use crate::{Error, Level};

// ---------------------------------------------------------------- bit I/O

/// Accumulating LSB-first bit writer backed by a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `count` bits of `bits`, LSB first.
    ///
    /// # Panics
    /// Panics if `count > 32` or if `bits` has bits set above `count`.
    #[inline]
    pub fn write_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || bits < (1u32 << count), "{bits} !< 2^{count}");
        self.bit_buf |= (bits as u64) << self.bit_count;
        self.bit_count += count;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes a Huffman code of `len` bits: DEFLATE stores codes with the
    /// first (most significant) code bit first, so the canonical code is
    /// bit-reversed into the LSB-first stream.
    #[inline]
    pub fn write_code(&mut self, code: u16, len: u32) {
        debug_assert!(len <= 16 && len > 0);
        let rev = (code as u32).reverse_bits() >> (32 - len);
        self.write_bits(rev, len);
    }

    /// Pads to the next byte boundary with zero bits.
    pub fn align_to_byte(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }

    /// Appends raw bytes; the stream must be byte-aligned.
    ///
    /// # Panics
    /// Panics if not at a byte boundary.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.bit_count, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Flushes any partial byte and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }
}

/// LSB-first bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index to refill from.
    pos: usize,
    bit_buf: u64,
    bit_count: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        while self.bit_count <= 56 && self.pos < self.data.len() {
            self.bit_buf |= (self.data[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// Reads `count` (<= 32) bits LSB-first.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u32, Error> {
        debug_assert!(count <= 32);
        if self.bit_count < count {
            self.refill();
            if self.bit_count < count {
                return Err(Error::UnexpectedEof);
            }
        }
        let mask = if count == 32 {
            u64::MAX >> 32
        } else {
            (1u64 << count) - 1
        };
        let v = (self.bit_buf & mask) as u32;
        self.bit_buf >>= count;
        self.bit_count -= count;
        Ok(v)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, Error> {
        self.read_bits(1)
    }

    /// Peeks up to `count` bits without consuming; missing tail bits (past
    /// end of stream) read as zero, matching the canonical-decoder usage
    /// where the final code may be shorter than the peek window.
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u32 {
        debug_assert!(count <= 32);
        self.refill();
        let mask = if count == 32 {
            u64::MAX >> 32
        } else {
            (1u64 << count) - 1
        };
        (self.bit_buf & mask) as u32
    }

    /// Consumes `count` bits previously peeked.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<(), Error> {
        if self.bit_count < count {
            return Err(Error::UnexpectedEof);
        }
        self.bit_buf >>= count;
        self.bit_count -= count;
        Ok(())
    }

    /// Number of bits still available.
    pub fn bits_remaining(&self) -> usize {
        (self.data.len() - self.pos) * 8 + self.bit_count as usize
    }

    /// Discards buffered bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let drop = self.bit_count % 8;
        self.bit_buf >>= drop;
        self.bit_count -= drop;
    }

    /// Reads `n` whole bytes (stream must be byte-aligned).
    pub fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, Error> {
        debug_assert_eq!(self.bit_count % 8, 0, "read_bytes requires alignment");
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.read_bits(8)? as u8);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------- matcher

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `MAX_MATCH` and the end of `data`.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize) -> usize {
    let max = MAX_MATCH.min(data.len() - b);
    let mut l = 0;
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Tokenizes `data` with hash-chain matching.
///
/// `max_chain` bounds positions examined per attempt (0 disables matching
/// entirely), `good_enough` stops the search once a match of that length
/// is found, and `lazy` enables one-byte deferral when the next position
/// has a longer match.
pub fn tokenize(data: &[u8], max_chain: usize, good_enough: usize, lazy: bool) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH || max_chain == 0 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    Tokenizer::new(data, max_chain, good_enough, lazy).tokens(&mut tokens, usize::MAX);
    tokens
}

/// [`tokenize`]'s loop with its state kept between calls, so that it
/// can stop after so many tokens and resume, or move on without
/// searching ([`Tokenizer::skip_to`]).
pub struct Tokenizer<'a> {
    data: &'a [u8],
    max_chain: usize,
    good_enough: usize,
    lazy: bool,
    // head[h] = most recent position with hash h; prev[i] = previous
    // position with the same hash as i. Positions offset by +1 so 0 means
    // "none".
    head: Vec<u32>,
    prev: Vec<u32>,
    /// Every position before this one is in the chains.
    i: usize,
}

impl<'a> Tokenizer<'a> {
    /// Starts at position 0.
    pub fn new(data: &'a [u8], max_chain: usize, good_enough: usize, lazy: bool) -> Self {
        Tokenizer {
            data,
            max_chain,
            good_enough,
            lazy,
            head: vec![0u32; HASH_SIZE],
            prev: vec![0u32; data.len()],
            i: 0,
        }
    }

    /// The next position to tokenize.
    pub fn position(&self) -> usize {
        self.i
    }

    fn insert(&mut self, i: usize) {
        let data = self.data;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            self.prev[i] = self.head[h];
            self.head[h] = (i + 1) as u32;
        }
    }

    fn best_match(&self, i: usize) -> (usize, usize) {
        let (data, head, prev, n) = (self.data, &self.head, &self.prev, self.data.len());
        if i + MIN_MATCH > n {
            return (0, 0);
        }
        let h = hash3(data, i);
        let mut cand = head[h] as usize;
        let mut best_len = 0;
        let mut best_dist = 0;
        let mut chain = self.max_chain;
        let window_floor = i.saturating_sub(WINDOW);
        while cand > 0 && chain > 0 {
            let c = cand - 1;
            if c < window_floor || c >= i {
                break;
            }
            let l = match_len(data, c, i);
            if l > best_len {
                best_len = l;
                best_dist = i - c;
                if l >= self.good_enough || l == MAX_MATCH {
                    break;
                }
            }
            cand = prev[c] as usize;
            chain -= 1;
        }
        if best_len >= MIN_MATCH {
            (best_len, best_dist)
        } else {
            (0, 0)
        }
    }

    /// Appends tokens to `tokens` until it holds at least `max` (one
    /// more when the last step is a deferred match) or the input ends.
    pub fn tokens(&mut self, tokens: &mut Vec<Token>, max: usize) {
        let (data, n, lazy) = (self.data, self.data.len(), self.lazy);
        let mut i = self.i;
        while i < n && tokens.len() < max {
            let (len, dist) = self.best_match(i);
            if len == 0 {
                tokens.push(Token::Literal(data[i]));
                self.insert(i);
                i += 1;
                continue;
            }
            if lazy && i + 1 < n {
                // Peek at the next position: if it has a strictly longer
                // match, emit this byte as a literal instead.
                self.insert(i);
                let (next_len, next_dist) = self.best_match(i + 1);
                if next_len > len {
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                    // Emit the deferred match now.
                    tokens.push(Token::Match {
                        len: next_len as u16,
                        dist: next_dist as u16,
                    });
                    for k in i..(i + next_len).min(n) {
                        self.insert(k);
                    }
                    i += next_len;
                    continue;
                }
                tokens.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                for k in (i + 1)..(i + len).min(n) {
                    self.insert(k);
                }
                i += len;
            } else {
                tokens.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                for k in i..(i + len).min(n) {
                    self.insert(k);
                }
                i += len;
            }
        }
        self.i = i;
    }

    /// Enters every position up to `to` into the chains without
    /// searching any of them, and resumes there.
    pub fn skip_to(&mut self, to: usize) {
        for k in self.i..to.min(self.data.len()) {
            self.insert(k);
        }
        self.i = self.i.max(to.min(self.data.len()));
    }
}

// ---------------------------------------------------------------- huffman

/// Computes optimal code lengths bounded by `max_len` for the given
/// symbol frequencies (zero frequency ⇒ zero length ⇒ symbol unused).
///
/// Uses package-merge, which is exact for length-limited prefix codes.
///
/// # Panics
/// Panics if the number of used symbols exceeds `2^max_len` (no valid
/// code exists) or `max_len == 0` with any used symbol.
pub fn code_lengths(freqs: &[u32], max_len: u8) -> Vec<u8> {
    let mut active: Vec<(u64, usize)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, &f)| (f as u64, i))
        .collect();
    let n = active.len();
    let mut lens = vec![0u8; freqs.len()];
    if n == 0 {
        return lens;
    }
    if n == 1 {
        // DEFLATE requires at least a 1-bit code for a lone symbol.
        lens[active[0].1] = 1;
        return lens;
    }
    assert!(
        max_len >= 1 && n <= (1usize << max_len.min(31)),
        "code over-full"
    );

    active.sort_unstable();

    // A package is (weight, constituent leaf symbols).
    #[derive(Clone)]
    struct Pkg {
        w: u64,
        syms: Vec<usize>,
    }
    let leaves: Vec<Pkg> = active
        .iter()
        .map(|&(w, s)| Pkg { w, syms: vec![s] })
        .collect();

    let mut row = leaves.clone();
    for _ in 1..max_len {
        // Pair adjacent packages of the previous row.
        let mut paired: Vec<Pkg> = Vec::with_capacity(row.len() / 2);
        for pair in row.chunks_exact(2) {
            let mut syms = pair[0].syms.clone();
            syms.extend_from_slice(&pair[1].syms);
            paired.push(Pkg {
                w: pair[0].w + pair[1].w,
                syms,
            });
        }
        // Merge the paired packages with the original leaves (both sorted).
        let mut merged = Vec::with_capacity(leaves.len() + paired.len());
        let (mut i, mut j) = (0, 0);
        while i < leaves.len() || j < paired.len() {
            let take_leaf = j >= paired.len() || (i < leaves.len() && leaves[i].w <= paired[j].w);
            if take_leaf {
                merged.push(leaves[i].clone());
                i += 1;
            } else {
                merged.push(paired[j].clone());
                j += 1;
            }
        }
        row = merged;
    }

    // The code length of each leaf = number of the 2n-2 cheapest packages
    // it appears in.
    for pkg in row.iter().take(2 * n - 2) {
        for &s in &pkg.syms {
            lens[s] += 1;
        }
    }
    lens
}

/// Assigns canonical code values for the given lengths (RFC 1951 §3.2.2).
///
/// Returns a vector parallel to `lengths`; entries with length 0 get
/// code 0 (unused).
pub fn canonical_codes(lengths: &[u8]) -> Vec<u16> {
    let max = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut bl_count = vec![0u16; max + 1];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u16; max + 2];
    let mut code = 0u16;
    for bits in 1..=max {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                c
            }
        })
        .collect()
}

/// Validates that lengths describe a prefix code that is not
/// over-subscribed. Returns the Kraft sum numerator scaled by 2^15.
fn kraft_sum(lengths: &[u8]) -> Result<u32, Error> {
    let mut sum = 0u32;
    for &l in lengths {
        if l > 15 {
            return Err(Error::BadHuffmanTable);
        }
        if l > 0 {
            sum += 1u32 << (15 - l);
        }
    }
    if sum > 1 << 15 {
        return Err(Error::BadHuffmanTable);
    }
    Ok(sum)
}

/// Table-driven Huffman decoder.
///
/// The table is indexed by the next `max_bits` bits of the stream (in
/// stream order, i.e. bit-reversed canonical codes) and each entry gives
/// the decoded symbol and how many bits to consume.
#[derive(Debug)]
pub struct Decoder {
    table: Vec<Entry>,
    max_bits: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    symbol: u16,
    /// 0 marks an unassigned pattern (incomplete code).
    len: u8,
}

impl Decoder {
    /// Builds a decoder from code lengths.
    ///
    /// Over-subscribed length sets are rejected. Incomplete codes are
    /// accepted (required by DEFLATE's single-symbol distance codes);
    /// unassigned bit patterns decode to `Error::Corrupt`.
    pub fn new(lengths: &[u8]) -> Result<Decoder, Error> {
        kraft_sum(lengths)?;
        let max_bits = lengths.iter().copied().max().unwrap_or(0) as u32;
        if max_bits == 0 {
            return Ok(Decoder {
                table: Vec::new(),
                max_bits: 0,
            });
        }
        let codes = canonical_codes(lengths);
        let mut table = vec![Entry::default(); 1usize << max_bits];
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            if len == 0 {
                continue;
            }
            let len = len as u32;
            // Reverse the canonical code into stream bit order.
            let rev = (code as u32).reverse_bits() >> (32 - len);
            // Fill every table slot whose low `len` bits equal `rev`.
            let step = 1usize << len;
            let mut idx = rev as usize;
            while idx < table.len() {
                table[idx] = Entry {
                    symbol: sym as u16,
                    len: len as u8,
                };
                idx += step;
            }
        }
        Ok(Decoder { table, max_bits })
    }

    /// Decodes one symbol from the reader.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, Error> {
        if self.max_bits == 0 {
            return Err(Error::Corrupt("decode from empty code"));
        }
        let peek = r.peek_bits(self.max_bits);
        let e = self.table[peek as usize];
        if e.len == 0 {
            return Err(Error::Corrupt("unassigned huffman pattern"));
        }
        r.consume(e.len as u32)?;
        Ok(e.symbol)
    }
}

// ---------------------------------------------------------------- deflate

/// (base length, extra bits) for length codes 257..=285.
pub const LENGTH_CODES: [(u16, u8); 29] = [
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
pub const DIST_CODES: [(u16, u8); 30] = [
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
pub const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// End-of-block symbol.
pub const EOB: usize = 256;

/// Maps a match length (3..=258) to (code index 0..=28, extra bits, extra value).
#[inline]
pub fn length_symbol(len: u16) -> (usize, u8, u16) {
    debug_assert!((3..=258).contains(&len));
    // Linear scan over 29 entries is fine at block-build frequency; find
    // the last code whose base <= len (code 285 takes exactly 258).
    if len == 258 {
        return (28, 0, 0);
    }
    let mut idx = 0;
    for (i, &(base, _)) in LENGTH_CODES.iter().enumerate() {
        if base <= len {
            idx = i;
        } else {
            break;
        }
    }
    let (base, extra) = LENGTH_CODES[idx];
    (idx, extra, len - base)
}

/// Maps a distance (1..=32768) to (code 0..=29, extra bits, extra value).
#[inline]
pub fn dist_symbol(dist: u16) -> (usize, u8, u16) {
    debug_assert!(dist >= 1);
    let mut idx = 0;
    for (i, &(base, _)) in DIST_CODES.iter().enumerate() {
        if base <= dist {
            idx = i;
        } else {
            break;
        }
    }
    let (base, extra) = DIST_CODES[idx];
    (idx, extra, dist - base)
}

/// Fixed lit/len code lengths (RFC 1951 §3.2.6).
pub fn fixed_litlen_lengths() -> Vec<u8> {
    let mut l = vec![8u8; 288];
    l[144..256].fill(9);
    l[256..280].fill(7);
    l
}

/// Fixed distance code lengths: thirty 5-bit codes.
pub fn fixed_dist_lengths() -> Vec<u8> {
    vec![5u8; 30]
}

/// Which block type [`write_best_block`] picks, and whether a block is
/// probed first. The tokens, the code lengths and the bits of each block
/// type are frozen; which type a block gets, and which bytes are searched
/// at all, is the compressor's *policy*, and the oracle takes it as a
/// parameter so that a policy change moves here and nowhere else in this
/// file.
#[derive(Clone, Copy, PartialEq)]
enum BlockPolicy {
    /// Stored / fixed / dynamic, whichever is fewest bits: the chooser
    /// this file was frozen with.
    Smallest,
    /// Fixed or dynamic, whichever is fewer bits, if that saves at least
    /// an eighth of the stored size; stored otherwise.
    SaveAnEighth,
    /// `SaveAnEighth`, after the block's first [`PROBE_TOKENS`] tokens
    /// have been judged by the same rule: where they fail, they and
    /// seven times as many bytes after them are stored unsearched.
    ProbeFirst,
}

/// Tokens per block.
const TOKENS_PER_BLOCK: usize = 32 * 1024;
/// Tokens a [`BlockPolicy::ProbeFirst`] block is judged on first.
const PROBE_TOKENS: usize = 1024;

/// Compresses `data` into a raw DEFLATE stream under the policy
/// `deflate::compress` ships: a block is coded only where that saves an
/// eighth, and its first tokens are judged before the rest is searched.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    compress_with(data, level, BlockPolicy::ProbeFirst)
}

/// Compresses `data` with every byte searched and the eighth rule
/// applied to whole blocks: the stream before blocks were probed.
pub fn compress_unprobed(data: &[u8], level: Level) -> Vec<u8> {
    compress_with(data, level, BlockPolicy::SaveAnEighth)
}

/// Compresses `data` with the smallest-bits chooser: the stream whose
/// incompressible blocks are still Huffman-coded, kept for the tests
/// that time or exercise the Huffman loops on such data.
pub fn compress_smallest(data: &[u8], level: Level) -> Vec<u8> {
    compress_with(data, level, BlockPolicy::Smallest)
}

/// Input bytes `tokens` stand for.
fn raw_len(tokens: &[Token]) -> usize {
    tokens
        .iter()
        .map(|t| match t {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => *len as usize,
        })
        .sum()
}

fn compress_with(data: &[u8], level: Level, policy: BlockPolicy) -> Vec<u8> {
    let mut w = BitWriter::new();
    if data.is_empty() {
        write_stored_block(&mut w, &[], true);
        return w.finish();
    }
    let n = data.len();
    let (chain, good, lazy) = (level.max_chain(), level.good_enough(), level.lazy());
    let mut tokenizer = Tokenizer::new(data, chain, good, lazy);
    // Split the token stream into blocks so each gets its own adaptive
    // code. A block that ends between the two tokens of a deferred match
    // leaves the second for the next.
    let mut carry = Vec::new();
    let mut start = 0;
    while start < n {
        let mut tokens = std::mem::take(&mut carry);
        if policy == BlockPolicy::ProbeFirst {
            tokenizer.tokens(&mut tokens, PROBE_TOKENS);
            let probe = &tokens[..tokens.len().min(PROBE_TOKENS)];
            let probe_len = raw_len(probe);
            if !plan(probe, probe_len).saves_an_eighth() {
                let end = (start + 8 * probe_len).min(n).max(tokenizer.position());
                tokenizer.skip_to(end);
                write_stored_chunks(&mut w, &data[start..end], end == n);
                start = end;
                continue;
            }
        }
        tokenizer.tokens(&mut tokens, TOKENS_PER_BLOCK);
        carry = tokens.split_off(tokens.len().min(TOKENS_PER_BLOCK));
        let len = raw_len(&tokens);
        let raw = &data[start..start + len];
        write_best_block(&mut w, &tokens, raw, start + len == n, policy);
        start += len;
    }
    w.finish()
}

/// Frequency tables for a token chunk (including the EOB symbol).
fn frequencies(tokens: &[Token]) -> (Vec<u32>, Vec<u32>) {
    let mut lit = vec![0u32; 288];
    let mut dist = vec![0u32; 30];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit[b as usize] += 1,
            Token::Match { len, dist: d } => {
                lit[257 + length_symbol(len).0] += 1;
                dist[dist_symbol(d).0] += 1;
            }
        }
    }
    lit[EOB] += 1;
    (lit, dist)
}

/// Cost in bits of coding `tokens` with the given lengths.
fn body_cost(tokens: &[Token], lit_lens: &[u8], dist_lens: &[u8]) -> usize {
    let mut bits = lit_lens[EOB] as usize;
    for t in tokens {
        match *t {
            Token::Literal(b) => bits += lit_lens[b as usize] as usize,
            Token::Match { len, dist } => {
                let (lc, le, _) = length_symbol(len);
                let (dc, de, _) = dist_symbol(dist);
                bits += lit_lens[257 + lc] as usize + le as usize;
                bits += dist_lens[dc] as usize + de as usize;
            }
        }
    }
    bits
}

/// A chunk's dynamic code and its cost in bits each way.
struct Plan {
    dyn_lit_lens: Vec<u8>,
    dyn_dist_lens: Vec<u8>,
    clc_stream: Vec<(usize, u16, u8)>,
    clc_lens: [u8; 19],
    hlit: usize,
    hdist: usize,
    dynamic_bits: usize,
    fixed_bits: usize,
    stored_bits: usize,
}

impl Plan {
    /// Fixed or dynamic, whichever is fewer bits, saves at least an
    /// eighth of the stored size.
    fn saves_an_eighth(&self) -> bool {
        self.fixed_bits.min(self.dynamic_bits) <= self.stored_bits - self.stored_bits / 8
    }
}

fn plan(tokens: &[Token], raw_len: usize) -> Plan {
    let (lit_freq, dist_freq) = frequencies(tokens);
    let dyn_lit_lens = code_lengths(&lit_freq, 15);
    let dyn_dist_lens = code_lengths(&dist_freq, 15);
    let (clc_stream, clc_lens, hlit, hdist) = build_header(&dyn_lit_lens, &dyn_dist_lens);

    let header_bits = 14
        + 3 * clc_count(&clc_lens)
        + clc_stream
            .iter()
            .map(|&(sym, _len_of_extra, extra_bits)| clc_lens[sym] as usize + extra_bits as usize)
            .sum::<usize>();
    let dynamic_bits = 3 + header_bits + body_cost(tokens, &dyn_lit_lens, &dyn_dist_lens);

    let fixed_bits = 3 + body_cost(tokens, &fixed_litlen_lengths(), &fixed_dist_lengths());

    // Stored blocks carry at most 65535 bytes each.
    let stored_bits = raw_len
        .div_ceil(65535)
        .max(1)
        .checked_mul(5 * 8)
        .map(|hdr| hdr + raw_len * 8 + 7)
        .unwrap_or(usize::MAX);
    Plan {
        dyn_lit_lens,
        dyn_dist_lens,
        clc_stream,
        clc_lens,
        hlit,
        hdist,
        dynamic_bits,
        fixed_bits,
        stored_bits,
    }
}

/// Writes this chunk as the block type `policy` picks.
fn write_best_block(
    w: &mut BitWriter,
    tokens: &[Token],
    raw: &[u8],
    final_block: bool,
    policy: BlockPolicy,
) {
    let p = plan(tokens, raw.len());
    let store = match policy {
        BlockPolicy::Smallest => p.stored_bits < p.dynamic_bits && p.stored_bits < p.fixed_bits,
        BlockPolicy::SaveAnEighth | BlockPolicy::ProbeFirst => !p.saves_an_eighth(),
    };
    if store {
        write_stored_chunks(w, raw, final_block);
    } else if p.fixed_bits <= p.dynamic_bits {
        w.write_bits(final_block as u32, 1);
        w.write_bits(0b01, 2);
        write_body(w, tokens, &fixed_litlen_lengths(), &fixed_dist_lengths());
    } else {
        w.write_bits(final_block as u32, 1);
        w.write_bits(0b10, 2);
        write_dynamic_header(w, &p.clc_stream, &p.clc_lens, p.hlit, p.hdist);
        write_body(w, tokens, &p.dyn_lit_lens, &p.dyn_dist_lens);
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

fn write_body(w: &mut BitWriter, tokens: &[Token], lit_lens: &[u8], dist_lens: &[u8]) {
    let lit_codes = canonical_codes(lit_lens);
    let dist_codes = canonical_codes(dist_lens);
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                w.write_code(lit_codes[b as usize], lit_lens[b as usize] as u32);
            }
            Token::Match { len, dist } => {
                let (lc, le, lv) = length_symbol(len);
                w.write_code(lit_codes[257 + lc], lit_lens[257 + lc] as u32);
                if le > 0 {
                    w.write_bits(lv as u32, le as u32);
                }
                let (dc, de, dv) = dist_symbol(dist);
                w.write_code(dist_codes[dc], dist_lens[dc] as u32);
                if de > 0 {
                    w.write_bits(dv as u32, de as u32);
                }
            }
        }
    }
    w.write_code(lit_codes[EOB], lit_lens[EOB] as u32);
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

// ---------------------------------------------------------------- inflate

/// Decompresses a raw DEFLATE stream into bytes.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, Error> {
    inflate_with_consumed(data).map(|(out, _)| out)
}

/// Decompresses one DEFLATE stream and reports how many input bytes it
/// consumed (the stream ends at a byte boundary after the final block) —
/// needed to walk concatenated members in multi-member gzip files.
pub fn inflate_with_consumed(data: &[u8]) -> Result<(Vec<u8>, usize), Error> {
    let mut r = BitReader::new(data);
    let mut out = Vec::with_capacity(data.len().saturating_mul(3));
    loop {
        let final_block = r.read_bit()? == 1;
        let btype = r.read_bits(2)?;
        match btype {
            0b00 => inflate_stored(&mut r, &mut out)?,
            0b01 => {
                let lit = Decoder::new(&fixed_litlen_lengths())?;
                let dist = Decoder::new(&fixed_dist_lengths())?;
                inflate_body(&mut r, &lit, &dist, &mut out)?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_body(&mut r, &lit, &dist, &mut out)?;
            }
            _ => return Err(Error::Corrupt("reserved block type 11")),
        }
        if final_block {
            break;
        }
    }
    r.align_to_byte();
    let consumed = data.len() - r.bits_remaining() / 8;
    Ok((out, consumed))
}

fn inflate_stored(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), Error> {
    r.align_to_byte();
    let len = r.read_bits(16)? as u16;
    let nlen = r.read_bits(16)? as u16;
    if len != !nlen {
        return Err(Error::Corrupt("stored block LEN/NLEN mismatch"));
    }
    out.extend(r.read_bytes(len as usize)?);
    Ok(())
}

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder), Error> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(Error::Corrupt("HLIT/HDIST out of range"));
    }

    let mut clc_lens = [0u8; 19];
    for &pos in CLC_ORDER.iter().take(hclen) {
        clc_lens[pos] = r.read_bits(3)? as u8;
    }
    let clc = Decoder::new(&clc_lens)?;

    // Decode the concatenated lit + dist code lengths.
    let mut all = Vec::with_capacity(hlit + hdist);
    while all.len() < hlit + hdist {
        let sym = clc.decode(r)?;
        match sym {
            0..=15 => all.push(sym as u8),
            16 => {
                let &last = all
                    .last()
                    .ok_or(Error::Corrupt("repeat with no prior length"))?;
                let n = 3 + r.read_bits(2)? as usize;
                all.extend(std::iter::repeat_n(last, n));
            }
            17 => {
                let n = 3 + r.read_bits(3)? as usize;
                all.extend(std::iter::repeat_n(0u8, n));
            }
            18 => {
                let n = 11 + r.read_bits(7)? as usize;
                all.extend(std::iter::repeat_n(0u8, n));
            }
            _ => return Err(Error::Corrupt("bad code-length symbol")),
        }
    }
    if all.len() != hlit + hdist {
        return Err(Error::Corrupt("code length overflow"));
    }
    if all[256] == 0 {
        return Err(Error::Corrupt("missing end-of-block code"));
    }
    let lit = Decoder::new(&all[..hlit])?;
    let dist = Decoder::new(&all[hlit..])?;
    Ok((lit, dist))
}

fn inflate_body(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    out: &mut Vec<u8>,
) -> Result<(), Error> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let (base, extra) = LENGTH_CODES[sym as usize - 257];
                let len = base as usize + r.read_bits(extra as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(Error::Corrupt("distance code out of range"));
                }
                let (dbase, dextra) = DIST_CODES[dsym];
                let d = dbase as usize + r.read_bits(dextra as u32)? as usize;
                if d > out.len() {
                    return Err(Error::Corrupt("distance beyond output start"));
                }
                let start = out.len() - d;
                // Overlapping copies are the RLE mechanism: byte-by-byte.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return Err(Error::Corrupt("literal/length symbol out of range")),
        }
    }
}
