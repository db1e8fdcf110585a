//! DEFLATE's bit reader and writer.
//!
//! DEFLATE (`sciml-compress`) packs bits starting from the
//! least-significant bit of each byte; this crate is that reader and
//! writer. (It is a crate of its own because the retired range-coder
//! compressor in `crates/pack` — a leaf kept for the benchmark's probe —
//! reads bits the same way.)
//!
//! Huffman codes are written most-significant-code-bit first, which in
//! this representation means the code must be bit-reversed before
//! writing; [`BitWriter::write_bits`] writes raw little-endian fields
//! and [`BitWriter::write_code`] handles the reversal.

#![deny(missing_docs)]

use std::fmt;

/// Failures of the bit reader: the only thing that can go wrong at this
/// layer is running off the end of the stream. Callers map this into
/// their own error vocabulary (`sciml_compress::Error::UnexpectedEof`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitIoError {
    /// Stream ended before the requested bits were available.
    UnexpectedEof,
}

impl fmt::Display for BitIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitIoError::UnexpectedEof => write!(f, "unexpected end of bit stream"),
        }
    }
}

impl std::error::Error for BitIoError {}

/// Accumulating LSB-first bit writer backed by a byte vector.
///
/// Bits collect in a 64-bit buffer that is flushed four bytes at a
/// time, so a write is a shift, an or and (every other call or so) one
/// four-byte append.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, LSB first; fewer than 32 between calls.
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose buffer holds `bytes` without
    /// growing.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Writes the low `count` bits of `bits`, LSB first.
    ///
    /// # Panics
    /// Panics in debug builds if `count > 32` or if `bits` has bits set
    /// above `count`.
    #[inline]
    pub fn write_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || bits < (1u32 << count), "{bits} !< 2^{count}");
        self.bit_buf |= (bits as u64) << self.bit_count;
        self.bit_count += count;
        if self.bit_count >= 32 {
            self.out
                .extend_from_slice(&(self.bit_buf as u32).to_le_bytes());
            self.bit_buf >>= 32;
            self.bit_count -= 32;
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
        let bytes = self.bit_count.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.bit_buf.to_le_bytes()[..bytes]);
        self.bit_buf = 0;
        self.bit_count = 0;
    }

    /// Appends raw bytes; the stream must be byte-aligned.
    ///
    /// # Panics
    /// Panics if not at a byte boundary.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.bit_count % 8, 0, "write_bytes requires byte alignment");
        self.align_to_byte();
        self.out.extend_from_slice(bytes);
    }

    /// Number of complete bytes written so far.
    pub fn byte_len(&self) -> usize {
        self.out.len() + (self.bit_count / 8) as usize
    }

    /// Total bits written (complete bytes plus pending).
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.bit_count as usize
    }

    /// Flushes any partial byte and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }
}

/// LSB-first bit reader over a byte slice.
///
/// Between calls the low `bit_count` bits of the buffer are the next
/// bits of the stream. Bits above them are either zero or a copy of the
/// stream bytes that follow (what a word refill leaves behind); a later
/// refill ors the same bytes into the same places, so they never need
/// masking, and bits past the end of the stream are always zero.
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

    /// Tops the buffer up to at least 56 bits with one eight-byte load.
    /// Returns `false`, leaving the reader as it was, when fewer than
    /// eight unread bytes are left: the caller then refills through
    /// [`BitReader::peek_bits`] or [`BitReader::read_bits`], which take
    /// single bytes.
    #[inline]
    pub fn refill_word(&mut self) -> bool {
        let Some(word) = self.data.get(self.pos..).and_then(|d| d.first_chunk::<8>()) else {
            return false;
        };
        self.bit_buf |= u64::from_le_bytes(*word) << self.bit_count;
        self.pos += ((63 - self.bit_count) >> 3) as usize;
        self.bit_count |= 56;
        true
    }

    #[inline]
    fn refill(&mut self) {
        if self.refill_word() {
            return;
        }
        while self.bit_count <= 56 && self.pos < self.data.len() {
            self.bit_buf |= (self.data[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// The bit buffer: its low [`BitReader::buffered`] bits are the next
    /// bits of the stream, LSB first.
    #[inline]
    pub fn buffer(&self) -> u64 {
        self.bit_buf
    }

    /// Number of stream bits in the buffer.
    #[inline]
    pub fn buffered(&self) -> u32 {
        self.bit_count
    }

    /// Drops `count` bits the caller knows are buffered (it has just
    /// refilled and counted what it took since).
    #[inline]
    pub fn skip(&mut self, count: u32) {
        debug_assert!(count <= self.bit_count);
        self.bit_buf >>= count;
        self.bit_count = self.bit_count.wrapping_sub(count);
    }

    /// Reads `count` (<= 32) bits LSB-first.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u32, BitIoError> {
        debug_assert!(count <= 32);
        if self.bit_count < count {
            self.refill();
            if self.bit_count < count {
                return Err(BitIoError::UnexpectedEof);
            }
        }
        let v = (self.bit_buf & ((1u64 << count) - 1)) as u32;
        self.bit_buf >>= count;
        self.bit_count -= count;
        Ok(v)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, BitIoError> {
        self.read_bits(1)
    }

    /// Peeks up to `count` bits without consuming; missing tail bits (past
    /// end of stream) read as zero, matching the canonical-decoder usage
    /// where the final code may be shorter than the peek window.
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u32 {
        debug_assert!(count <= 32);
        if self.bit_count < count {
            self.refill();
        }
        (self.bit_buf & ((1u64 << count) - 1)) as u32
    }

    /// Consumes `count` bits previously peeked.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<(), BitIoError> {
        if self.bit_count < count {
            return Err(BitIoError::UnexpectedEof);
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

    /// Takes the next `n` whole bytes of the stream as a slice of the
    /// input (stream must be byte-aligned).
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], BitIoError> {
        debug_assert_eq!(self.bit_count % 8, 0, "read_bytes requires alignment");
        // Hand the buffered whole bytes back: the stream position is a
        // byte index again and the buffer is empty.
        let start = self.pos - (self.bit_count / 8) as usize;
        let bytes = start
            .checked_add(n)
            .and_then(|end| self.data.get(start..end))
            .ok_or(BitIoError::UnexpectedEof)?;
        self.pos = start + n;
        self.bit_buf = 0;
        self.bit_count = 0;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11110000, 8);
        w.write_bits(0x12345, 20);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0b11110000);
        assert_eq!(r.read_bits(20).unwrap(), 0x12345);
    }

    #[test]
    fn code_is_bit_reversed() {
        let mut w = BitWriter::new();
        // Code 0b110 (len 3) must appear as first-bit-first: 1,1,0
        // => LSB-first byte 0b...011.
        w.write_code(0b110, 3);
        let bytes = w.finish();
        assert_eq!(bytes[0] & 0b111, 0b011);
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_to_byte();
        w.write_bytes(&[0xAB, 0xCD]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x01, 0xAB, 0xCD]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit().unwrap(), 1);
        r.align_to_byte();
        assert_eq!(r.read_bytes(2).unwrap(), vec![0xAB, 0xCD]);
    }

    #[test]
    fn eof_is_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1), Err(BitIoError::UnexpectedEof));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = BitReader::new(&[0b1010_1010]);
        assert_eq!(r.peek_bits(4), 0b1010);
        assert_eq!(r.peek_bits(4), 0b1010);
        r.consume(2).unwrap();
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
    }

    #[test]
    fn peek_past_end_pads_with_zeros() {
        let mut r = BitReader::new(&[0b1]);
        assert_eq!(r.peek_bits(16), 1);
    }

    #[test]
    fn bits_remaining_tracks() {
        let mut r = BitReader::new(&[0, 0, 0]);
        assert_eq!(r.bits_remaining(), 24);
        r.read_bits(5).unwrap();
        assert_eq!(r.bits_remaining(), 19);
    }

    /// A stream of fields of every width, written and read back against
    /// the definition: bit `k` of the stream is bit `k % 8` of byte
    /// `k / 8`.
    #[test]
    fn writer_and_reader_agree_with_the_bit_order_definition() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let fields: Vec<(u32, u32)> = (0..2000)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                let count = (x >> 59) as u32 + (i as u32 % 2); // 0..=32
                ((x >> 20) as u32 & ((1u64 << count) - 1) as u32, count)
            })
            .collect();
        let mut w = BitWriter::with_capacity(16);
        let mut bits = Vec::new();
        for &(value, count) in &fields {
            w.write_bits(value, count);
            bits.extend((0..count).map(|k| (value >> k) & 1 == 1));
            assert_eq!(w.bit_len(), bits.len());
            assert_eq!(w.byte_len(), bits.len() / 8);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), bits.len().div_ceil(8));
        for (k, &bit) in bits.iter().enumerate() {
            assert_eq!(bytes[k / 8] >> (k % 8) & 1 == 1, bit, "bit {k}");
        }
        let mut r = BitReader::new(&bytes);
        for &(value, count) in &fields {
            assert_eq!(r.peek_bits(count), value);
            assert_eq!(r.read_bits(count), Ok(value));
        }
        assert!(r.bits_remaining() < 8);
    }

    #[test]
    fn word_refill_tops_up_without_losing_or_inventing_bits() {
        let bytes: Vec<u8> = (1..=40).collect();
        for skip in 0..=56u32 {
            let mut r = BitReader::new(&bytes);
            assert!(r.refill_word());
            r.skip(skip);
            let mut plain = BitReader::new(&bytes);
            plain.read_bits(skip.min(32)).unwrap();
            plain.read_bits(skip - skip.min(32)).unwrap();
            while r.bits_remaining() >= 32 {
                assert!(!r.refill_word() || r.buffered() >= 56);
                assert_eq!(r.read_bits(13), plain.read_bits(13), "skip {skip}");
                assert_eq!(r.bits_remaining(), plain.bits_remaining());
            }
        }
        // Fewer than eight bytes left: nothing happens.
        let mut r = BitReader::new(&bytes[..7]);
        assert!(!r.refill_word());
        assert_eq!((r.buffered(), r.bits_remaining()), (0, 56));
    }

    #[test]
    fn read_bytes_hands_back_buffered_bytes() {
        let bytes: Vec<u8> = (0..32).collect();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Ok(0));
        assert!(r.refill_word());
        r.align_to_byte();
        assert_eq!(r.read_bytes(4), Ok(&bytes[1..5]));
        assert_eq!(r.read_bits(8), Ok(5));
        r.align_to_byte();
        assert_eq!(r.read_bytes(27), Err(BitIoError::UnexpectedEof));
        assert_eq!(r.read_bytes(26), Ok(&bytes[6..]));
        assert_eq!(r.bits_remaining(), 0);
    }

    #[test]
    fn error_display() {
        assert!(BitIoError::UnexpectedEof.to_string().contains("end"));
    }
}
