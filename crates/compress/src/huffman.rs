//! Canonical, length-limited Huffman coding.
//!
//! * [`code_lengths`] computes optimal length-limited code lengths with
//!   the package-merge algorithm (exact, no post-hoc fixups);
//! * [`canonical_codes`] assigns the RFC 1951 canonical code values and
//!   [`stream_codes`] the same codes as the bit writer wants them;
//! * [`DecodeTable`] is the two-level lookup table the inflater decodes
//!   through.

use crate::Error;

/// Computes optimal code lengths bounded by `max_len` for the given
/// symbol frequencies (zero frequency ⇒ zero length ⇒ symbol unused).
///
/// Uses package-merge, which is exact for length-limited prefix codes.
/// Row `j` of the merge is the sorted leaves merged with the pairs of
/// row `j - 1`, a leaf going first on equal weight. Leaves keep their
/// order in every row, so the leaves among the first `m` items of a row
/// are a prefix of the sorted leaves: all a row has to remember is, for
/// each `m`, how long that prefix is. A symbol's length is the number
/// of rows whose chosen items include its leaf.
///
/// # Panics
/// Panics if the number of used symbols exceeds `2^max_len` (no valid
/// code exists) or `max_len == 0` with any used symbol.
pub fn code_lengths(freqs: &[u32], max_len: u8) -> Vec<u8> {
    let mut leaves: Vec<(u64, usize)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, &f)| (f as u64, i))
        .collect();
    let n = leaves.len();
    let mut lens = vec![0u8; freqs.len()];
    if n == 0 {
        return lens;
    }
    if n == 1 {
        // DEFLATE requires at least a 1-bit code for a lone symbol.
        lens[leaves[0].1] = 1;
        return lens;
    }
    assert!(
        max_len >= 1 && n <= (1usize << max_len.min(31)),
        "code over-full"
    );
    leaves.sort_unstable();

    // A row holds fewer than 2n items: n leaves plus half the row below.
    let width = 2 * n;
    let rows = max_len as usize;
    // Weights of the row being built and of the row below it.
    let mut weights = vec![0u64; 2 * width];
    // leaf_prefix[j * (width + 1) + m]: leaves among the first m items
    // of row j.
    let mut leaf_prefix = vec![0u32; rows * (width + 1)];

    let (mut below, mut row) = weights.split_at_mut(width);
    for (w, &(leaf, _)) in row.iter_mut().zip(&leaves) {
        *w = leaf;
    }
    for (m, p) in leaf_prefix[..=n].iter_mut().enumerate() {
        *p = m as u32;
    }
    let mut row_len = n;
    for j in 1..rows {
        std::mem::swap(&mut below, &mut row);
        let pairs = row_len / 2;
        let prefix = &mut leaf_prefix[j * (width + 1)..(j + 1) * (width + 1)];
        let (mut leaf, mut pair) = (0, 0);
        for m in 0..n + pairs {
            let pair_weight = match pair < pairs {
                true => below[2 * pair] + below[2 * pair + 1],
                false => u64::MAX,
            };
            if leaf < n && leaves[leaf].0 <= pair_weight {
                row[m] = leaves[leaf].0;
                leaf += 1;
            } else {
                row[m] = pair_weight;
                pair += 1;
            }
            prefix[m + 1] = leaf as u32;
        }
        row_len = n + pairs;
    }

    // Walk back down: the cheapest 2n-2 items of the top row, then in
    // each row below the two halves of every package chosen above it.
    let mut chosen = (2 * n - 2).min(row_len);
    for j in (0..rows).rev() {
        let chosen_leaves = leaf_prefix[j * (width + 1) + chosen] as usize;
        for &(_, sym) in &leaves[..chosen_leaves] {
            lens[sym] += 1;
        }
        chosen = 2 * (chosen - chosen_leaves);
    }
    lens
}

/// Assigns canonical code values for the given lengths (RFC 1951 §3.2.2).
///
/// Returns a vector parallel to `lengths`; entries with length 0 get
/// code 0 (unused).
pub fn canonical_codes(lengths: &[u8]) -> Vec<u16> {
    let mut bl_count = [0u16; 256];
    for &l in lengths {
        bl_count[l as usize] += 1;
    }
    bl_count[0] = 0;
    let mut next_code = [0u16; 257];
    let mut code = 0u16;
    for bits in 1..=255 {
        code = code.wrapping_add(bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] = c.wrapping_add(1);
                c
            }
        })
        .collect()
}

/// The canonical codes as the bit writer takes them: entry `s` is
/// `length << 16 | code`, the code already reversed into stream (LSB
/// first) order. Unused symbols get 0.
pub fn stream_codes(lengths: &[u8]) -> Vec<u32> {
    canonical_codes(lengths)
        .iter()
        .zip(lengths)
        .map(|(&code, &len)| match len {
            0 => 0,
            _ => (len as u32) << 16 | (code.reverse_bits() >> (16 - len)) as u32,
        })
        .collect()
}

/// Validates that lengths describe a prefix code that is not
/// over-subscribed.
fn check_kraft(lengths: &[u8]) -> Result<(), Error> {
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
    Ok(())
}

/// What a [`DecodeTable`] entry stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A literal (or any plain symbol): the value is the symbol.
    Literal = 0,
    /// A length or distance code: the value is its base, and
    /// [`extra_bits`] more bits of the stream are added to it.
    Base = 1,
    /// End of block.
    EndOfBlock = 2,
    /// A bit pattern no code uses, or a symbol the format reserves.
    Invalid = 3,
}

const KIND_SHIFT: u32 = 8;
/// Set on primary entries that point at a second-level table; never set
/// on what [`DecodeTable::lookup`] returns.
const SUBTABLE: u32 = 1 << 10;

/// Packs the symbol-dependent part of an entry.
pub const fn entry(kind: Kind, value: u16, extra_bits: u8) -> u32 {
    (value as u32) << 16 | (kind as u32) << KIND_SHIFT | (extra_bits as u32) << 4
}

/// Bits of the stream the entry's codeword takes; 0 marks a pattern no
/// code uses.
#[inline]
pub fn code_bits(entry: u32) -> u32 {
    entry & 0xF
}

/// Extra bits that follow the codeword of a [`Kind::Base`] entry.
#[inline]
pub fn extra_bits(entry: u32) -> u32 {
    (entry >> 4) & 0xF
}

/// The entry's symbol, or its base length or distance.
#[inline]
pub fn value(entry: u32) -> u32 {
    entry >> 16
}

/// What the entry stands for.
#[inline]
pub fn kind(entry: u32) -> Kind {
    match (entry >> KIND_SHIFT) & 3 {
        0 => Kind::Literal,
        1 => Kind::Base,
        2 => Kind::EndOfBlock,
        _ => Kind::Invalid,
    }
}

/// Two-level Huffman decode table with `PRIMARY` (a power of two)
/// first-level entries.
///
/// The primary level is indexed by the next `log2(PRIMARY)` bits of the
/// stream (in stream order, i.e. bit-reversed canonical codes) and
/// answers every codeword that short in one load; it is an array in the
/// table itself, sized to stay in L1 (2048 entries for literal/length
/// codes, 1024 for distances). A longer codeword's primary entry points
/// at a second-level table indexed by the bits that follow. Either way
/// the entry found carries everything the decoder needs — codeword
/// length, kind, and the literal byte or the length/distance base with
/// its extra-bit count — so decoding a symbol never consults a second
/// table by symbol number.
///
/// ```text
/// 31            16 15      11 10   9 8  7    4 3    0
/// ┌───────────────┬──────────┬─────┬────┬──────┬──────┐
/// │ value / base  │ (unused) │ sub │kind│extra │ bits │
/// └───────────────┴──────────┴─────┴────┴──────┴──────┘
/// ```
///
/// In a primary entry with `sub` set, the value is where its
/// second-level table starts and `extra` how many bits index it.
#[derive(Debug)]
pub struct DecodeTable<const PRIMARY: usize> {
    primary: [u32; PRIMARY],
    /// The second-level tables, one after another.
    secondary: Vec<u32>,
}

const UNASSIGNED: u32 = entry(Kind::Invalid, 0, 0);

impl<const PRIMARY: usize> Default for DecodeTable<PRIMARY> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const PRIMARY: usize> DecodeTable<PRIMARY> {
    const PRIMARY_BITS: u32 = {
        assert!(PRIMARY.is_power_of_two());
        PRIMARY.trailing_zeros()
    };

    /// A table of no code; [`DecodeTable::build`] fills it.
    pub fn new() -> Self {
        Self {
            primary: [UNASSIGNED; PRIMARY],
            secondary: Vec::new(),
        }
    }

    /// Rebuilds the table in place for the code `lengths` describe.
    /// `symbol_entry(s)` is the [`entry`] symbol `s` decodes to.
    ///
    /// Over-subscribed length sets are rejected. Incomplete codes are
    /// accepted (required by DEFLATE's single-symbol distance codes);
    /// unassigned bit patterns decode to an entry whose [`code_bits`]
    /// is 0.
    pub fn build(
        &mut self,
        lengths: &[u8],
        symbol_entry: impl Fn(usize) -> u32,
    ) -> Result<(), Error> {
        check_kraft(lengths)?;
        let codes = canonical_codes(lengths);
        let primary_bits = Self::PRIMARY_BITS;
        self.primary.fill(UNASSIGNED);
        self.secondary.clear();

        // Codewords in stream order. Short ones fill every primary slot
        // whose low bits they are; long ones leave the longest tail
        // seen in the slot of their first `primary_bits` bits.
        let in_stream_order = |sym: usize| -> (usize, u32) {
            let len = lengths[sym] as u32;
            ((codes[sym].reverse_bits() >> (16 - len)) as usize, len)
        };
        for sym in (0..lengths.len()).filter(|&s| lengths[s] > 0) {
            let (code, len) = in_stream_order(sym);
            if len <= primary_bits {
                let filled = symbol_entry(sym) | len;
                for slot in self.primary[code..].iter_mut().step_by(1 << len) {
                    *slot = filled;
                }
            } else {
                let slot = &mut self.primary[code % PRIMARY];
                *slot = SUBTABLE | extra_bits(*slot).max(len - primary_bits) << 4;
            }
        }
        // Give every marked slot a second-level table of that many bits.
        for slot in self.primary.iter_mut().filter(|s| **s & SUBTABLE != 0) {
            let start = self.secondary.len();
            *slot |= (start as u32) << 16;
            self.secondary
                .resize(start + (1 << extra_bits(*slot)), UNASSIGNED);
        }
        for sym in (0..lengths.len()).filter(|&s| lengths[s] as u32 > primary_bits) {
            let (code, len) = in_stream_order(sym);
            let pointer = self.primary[code % PRIMARY];
            let start = value(pointer) as usize;
            let table = &mut self.secondary[start..start + (1 << extra_bits(pointer))];
            let filled = symbol_entry(sym) | len;
            for slot in table[code >> primary_bits..]
                .iter_mut()
                .step_by(1 << (len - primary_bits))
            {
                *slot = filled;
            }
        }
        Ok(())
    }

    /// The entry for the codeword at the low end of `bits` (at least 15
    /// stream bits, or zero-padded past the end of the stream).
    #[inline]
    pub fn lookup(&self, bits: u64) -> u32 {
        let found = self.primary[bits as usize % PRIMARY];
        if found & SUBTABLE == 0 {
            return found;
        }
        let tail = (bits >> Self::PRIMARY_BITS) as usize & ((1 << extra_bits(found)) - 1);
        self.secondary
            .get(value(found) as usize + tail)
            .copied()
            .unwrap_or(UNASSIGNED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{BitReader, BitWriter};

    #[test]
    fn lengths_satisfy_kraft_with_equality_for_complete_codes() {
        let freqs = [10u32, 1, 1, 5, 20, 3, 0, 7];
        let lens = code_lengths(&freqs, 15);
        let sum: u32 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u32 << (15 - l))
            .sum();
        assert_eq!(sum, 1 << 15, "{lens:?}");
        assert_eq!(lens[6], 0);
    }

    #[test]
    fn restricting_max_len_flattens_code() {
        // Wildly skewed frequencies want a deep code; cap at 4 bits.
        let freqs = [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512];
        let lens = code_lengths(&freqs, 4);
        assert!(lens.iter().all(|&l| l <= 4), "{lens:?}");
        let sum: u32 = lens.iter().map(|&l| 1u32 << (15 - l)).sum();
        assert_eq!(sum, 1 << 15);
    }

    #[test]
    fn length_limited_is_still_cheap_for_balanced_input() {
        let freqs = [5u32; 8];
        let lens = code_lengths(&freqs, 15);
        assert!(lens.iter().all(|&l| l == 3), "{lens:?}");
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let mut freqs = vec![0u32; 30];
        freqs[17] = 42;
        let lens = code_lengths(&freqs, 15);
        assert_eq!(lens[17], 1);
        assert_eq!(lens.iter().map(|&l| l as u32).sum::<u32>(), 1);
    }

    #[test]
    fn canonical_codes_match_rfc_example() {
        // RFC 1951 example: lengths (3,3,3,3,3,2,4,4) for symbols A..H.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        assert_eq!(
            codes,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    fn plain(sym: usize) -> u32 {
        entry(Kind::Literal, sym as u16, 0)
    }

    #[test]
    fn encode_decode_roundtrip_through_both_table_levels() {
        // Lengths 1..=7 under a 3-bit primary level: four symbols are
        // answered there, the rest through second-level tables.
        let freqs = [640u32, 320, 160, 80, 40, 20, 10, 10];
        let lens = code_lengths(&freqs, 15);
        assert_eq!(lens, [1, 2, 3, 4, 5, 6, 7, 7]);
        let codes = stream_codes(&lens);
        let symbols: Vec<usize> = (0..8).cycle().take(200).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            w.write_bits(codes[s] & 0xFFFF, codes[s] >> 16);
        }
        let bytes = w.finish();
        let mut table = DecodeTable::<8>::new();
        table.build(&lens, plain).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            let e = table.lookup(r.peek_bits(15) as u64);
            assert_eq!((kind(e), value(e) as usize), (Kind::Literal, s));
            assert_eq!(code_bits(e), lens[s] as u32);
            r.consume(code_bits(e)).unwrap();
        }
    }

    #[test]
    fn stream_codes_are_the_canonical_codes_reversed() {
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4, 0];
        let canonical = canonical_codes(&lens);
        for (s, &packed) in stream_codes(&lens).iter().enumerate() {
            if lens[s] == 0 {
                assert_eq!(packed, 0);
                continue;
            }
            assert_eq!(packed >> 16, lens[s] as u32);
            let mut w = BitWriter::new();
            w.write_code(canonical[s], lens[s] as u32);
            assert_eq!(w.finish()[0] as u32, packed & 0xFFFF);
        }
    }

    #[test]
    fn oversubscribed_rejected() {
        let mut table = DecodeTable::<128>::new();
        assert_eq!(
            table.build(&[1, 1, 1], plain).err(),
            Some(Error::BadHuffmanTable)
        );
        assert_eq!(
            table.build(&[16], plain).err(),
            Some(Error::BadHuffmanTable),
            "length above 15 must be rejected"
        );
    }

    #[test]
    fn incomplete_code_leaves_unassigned_patterns() {
        // Single 2-bit code: patterns 01,10,11 unassigned.
        let mut table = DecodeTable::<128>::new();
        table.build(&[2], plain).unwrap();
        assert_eq!(code_bits(table.lookup(0b100)), 2);
        for unassigned in [0b01, 0b10, 0b11] {
            assert_eq!(code_bits(table.lookup(unassigned)), 0);
        }
        // No code at all: nothing is assigned.
        table.build(&[0, 0], plain).unwrap();
        assert_eq!(code_bits(table.lookup(0)), 0);
    }
}
