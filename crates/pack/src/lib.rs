//! Chunked adaptive compressor for numeric byte streams (pcodec-style).
//!
//! Scientific payloads — f16 tensors, u8 label masks, the deepcam
//! differential code stream — are sequences of small fixed-width
//! integers with strong local structure that general-purpose DEFLATE
//! models poorly (its Huffman stage spends at least one bit per symbol
//! and its LZ77 stage only exploits exact repeats). This crate instead:
//!
//! 1. splits the stream into chunks of [`CHUNK_VALUES`] fixed-width
//!    unsigned values;
//! 2. per chunk, trials delta encoding of order 0–2 on a sample and
//!    keeps the order minimizing zigzag bit-length;
//! 3. splits each zigzagged latent into a bin index (high bits, at most
//!    256 bins) and a raw k-bit offset;
//! 4. range-codes the bin indices against a quantized static frequency
//!    table and writes the offsets through the shared
//!    [`sciml_bitio`] bit writer.
//!
//! Every chunk carries its own header and CRC-32 (from
//! [`sciml_compress::crc32`]), so corruption and truncation surface as
//! typed [`PackError`]s — never a panic — and decoding can resume at any
//! chunk boundary. The stream header records the element width, making
//! the format self-describing: container layers (the `.sshard` store,
//! the serve protocol) only need to record *that* a payload is packed,
//! not how.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic      b"SPAK"
//! version    u8  (= 1)
//! elem_width u8  (1 or 2)
//! tail_len   u8  (< elem_width: bytes that did not fill a value)
//! reserved   u8  (= 0)
//! n_chunks   u32
//! raw_len    u64 (decoded byte length, tail included)
//! header_crc u32 (over the 20 bytes above)
//! chunks     ... (see crates/pack/src/chunk.rs)
//! tail       tail_len raw bytes
//! ```

pub mod chunk;
pub mod range;

pub use chunk::CHUNK_VALUES;

use std::fmt;

/// Stream magic: "Sciml PAcK".
pub const MAGIC: [u8; 4] = *b"SPAK";
/// Current format version.
pub const VERSION: u8 = 1;
/// Fixed stream header length in bytes (including its CRC).
pub const HEADER_LEN: usize = 24;

/// Decode failures. Encoding is infallible apart from width validation;
/// decoding turns any malformed input into one of these — the crate is
/// covered by the `no_panics` lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Stream does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Element width not in {1, 2}.
    BadElemWidth(u8),
    /// A structural invariant was violated.
    Corrupt(&'static str),
    /// A CRC-32 over a header or chunk did not match.
    ChecksumMismatch {
        /// CRC recorded in the stream.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// The header declares more decoded bytes than the caller allows.
    TooLarge {
        /// Decoded length the stream header declares.
        raw_len: u64,
        /// The caller's limit.
        limit: u64,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Truncated => write!(f, "packed stream truncated"),
            PackError::BadMagic => write!(f, "not a sciml-pack stream (bad magic)"),
            PackError::BadVersion(v) => write!(f, "unsupported pack format version {v}"),
            PackError::BadElemWidth(w) => write!(f, "unsupported element width {w}"),
            PackError::Corrupt(what) => write!(f, "corrupt packed stream: {what}"),
            PackError::ChecksumMismatch { stored, computed } => write!(
                f,
                "packed stream checksum mismatch (stored {stored:08x}, computed {computed:08x})"
            ),
            PackError::TooLarge { raw_len, limit } => write!(
                f,
                "packed stream declares {raw_len} decoded bytes, over the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for PackError {}

impl From<sciml_bitio::BitIoError> for PackError {
    fn from(e: sciml_bitio::BitIoError) -> Self {
        match e {
            sciml_bitio::BitIoError::UnexpectedEof => PackError::Truncated,
        }
    }
}

fn max_value_for_width(width: u8) -> u32 {
    if width == 1 {
        u8::MAX as u32
    } else {
        u16::MAX as u32
    }
}

/// Compresses `data` interpreted as little-endian unsigned values of
/// `elem_width` bytes (1 or 2). A trailing partial value is carried raw.
pub fn pack(data: &[u8], elem_width: u8) -> Result<Vec<u8>, PackError> {
    if elem_width != 1 && elem_width != 2 {
        return Err(PackError::BadElemWidth(elem_width));
    }
    let w = elem_width as usize;
    let tail_len = data.len() % w;
    let body = &data[..data.len() - tail_len];

    let values: Vec<u32> = if w == 1 {
        body.iter().map(|&b| b as u32).collect()
    } else {
        body.chunks_exact(2)
            .map(|p| u16::from_le_bytes([p[0], p[1]]) as u32)
            .collect()
    };

    let n_chunks = values.len().div_ceil(CHUNK_VALUES);
    let mut out = Vec::with_capacity(HEADER_LEN + data.len() / 2);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(elem_width);
    out.push(tail_len as u8);
    out.push(0);
    out.extend_from_slice(&(n_chunks as u32).to_le_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    let hcrc = sciml_compress::crc32::crc32(&out[..HEADER_LEN - 4]);
    out.extend_from_slice(&hcrc.to_le_bytes());

    for chunk in values.chunks(CHUNK_VALUES) {
        chunk::encode_chunk(chunk, &mut out);
    }
    out.extend_from_slice(&data[data.len() - tail_len..]);
    Ok(out)
}

/// Smallest chunk the format can hold: its fixed fields and CRC around
/// empty sections (see `chunk.rs`). A stream of `n` chunks is at least
/// `n` times this long.
const MIN_CHUNK_LEN: usize = 20;

/// Decompresses a stream produced by [`pack`], returning the original
/// bytes. All failure modes are typed; no input can cause a panic, and
/// the output is sized only once the stream is long enough to hold the
/// chunks its header declares (see [`unpack_into`]).
pub fn unpack(data: &[u8]) -> Result<Vec<u8>, PackError> {
    let mut out = Vec::new();
    unpack_into(data, &mut out, usize::MAX)?;
    Ok(out)
}

/// [`unpack`] into a caller-provided buffer, replacing its contents,
/// for a stream the caller expects to decode to at most `limit` bytes.
///
/// The header is read from bytes only a CRC has vouched for, so nothing
/// is sized from it until it is bounded twice: a declared length over
/// `limit` is [`PackError::TooLarge`], and a chunk count the rest of
/// `data` is too short to hold is [`PackError::Truncated`] — a chunk of
/// at least 20 bytes decodes to at most [`CHUNK_VALUES`] values,
/// which bounds the declared length by the input's own. Chunks are
/// decoded one at a time through a scratch of at most one chunk's
/// values, so a buffer with `raw_len` capacity is never reallocated. On
/// error the contents of `out` are unspecified.
pub fn unpack_into(data: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<(), PackError> {
    let header = data.get(..HEADER_LEN).ok_or(PackError::Truncated)?;
    if header[..4] != MAGIC {
        return Err(PackError::BadMagic);
    }
    let stored = u32::from_le_bytes([
        header[HEADER_LEN - 4],
        header[HEADER_LEN - 3],
        header[HEADER_LEN - 2],
        header[HEADER_LEN - 1],
    ]);
    let computed = sciml_compress::crc32::crc32(&header[..HEADER_LEN - 4]);
    if stored != computed {
        return Err(PackError::ChecksumMismatch { stored, computed });
    }
    let version = header[4];
    if version != VERSION {
        return Err(PackError::BadVersion(version));
    }
    let elem_width = header[5];
    if elem_width != 1 && elem_width != 2 {
        return Err(PackError::BadElemWidth(elem_width));
    }
    let tail_len = header[6] as usize;
    if tail_len >= elem_width as usize {
        return Err(PackError::Corrupt("tail longer than element width"));
    }
    let n_chunks = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let declared = u64::from_le_bytes([
        header[12], header[13], header[14], header[15], header[16], header[17], header[18],
        header[19],
    ]);
    if declared > limit as u64 {
        return Err(PackError::TooLarge {
            raw_len: declared,
            limit: limit as u64,
        });
    }
    // Fits: it is no larger than `limit`.
    let raw_len = declared as usize;

    let max = max_value_for_width(elem_width);
    let w = elem_width as usize;
    let expected_values = (raw_len
        .checked_sub(tail_len)
        .ok_or(PackError::Corrupt("raw length smaller than tail"))?)
        / w;
    if raw_len % w != tail_len % w || expected_values.div_ceil(CHUNK_VALUES) != n_chunks {
        return Err(PackError::Corrupt("chunk count inconsistent with length"));
    }
    if n_chunks > (data.len() - HEADER_LEN) / MIN_CHUNK_LEN {
        return Err(PackError::Truncated);
    }

    out.clear();
    out.reserve(raw_len);
    let mut values: Vec<u32> = Vec::with_capacity(expected_values.min(CHUNK_VALUES));
    let mut decoded = 0usize;
    let mut pos = HEADER_LEN;
    for _ in 0..n_chunks {
        values.clear();
        chunk::decode_chunk(data, &mut pos, max, &mut values)?;
        decoded += values.len();
        if decoded > expected_values {
            return Err(PackError::Corrupt("decoded value count mismatch"));
        }
        if w == 1 {
            out.extend(values.iter().map(|&v| v as u8));
        } else {
            for &v in &values {
                out.extend_from_slice(&(v as u16).to_le_bytes());
            }
        }
    }
    if decoded != expected_values {
        return Err(PackError::Corrupt("decoded value count mismatch"));
    }
    let tail = data.get(pos..pos + tail_len).ok_or(PackError::Truncated)?;
    if pos + tail_len != data.len() {
        return Err(PackError::Corrupt("trailing garbage after stream"));
    }
    out.extend_from_slice(tail);
    Ok(())
}

/// Compressed size of `data` under [`pack`] without keeping the output —
/// used by container layers to trial-encode a sample slice when choosing
/// an encoding.
pub fn packed_len(data: &[u8], elem_width: u8) -> Result<usize, PackError> {
    pack(data, elem_width).map(|v| v.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream() {
        for w in [1u8, 2] {
            let p = pack(&[], w).unwrap();
            assert_eq!(unpack(&p).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn odd_length_width_two_keeps_tail() {
        let data = vec![1u8, 2, 3, 4, 5];
        let p = pack(&data, 2).unwrap();
        assert_eq!(unpack(&p).unwrap(), data);
    }

    #[test]
    fn multi_chunk_roundtrip() {
        let data: Vec<u8> = (0..(CHUNK_VALUES * 2 + 100))
            .map(|i| (i % 251) as u8)
            .collect();
        let p = pack(&data, 1).unwrap();
        assert_eq!(unpack(&p).unwrap(), data);
    }

    #[test]
    fn smooth_f16_like_data_compresses_well() {
        // Little-endian u16 ramp with small jitter — the shape of a
        // quantized smooth field.
        let mut data = Vec::new();
        for i in 0..40_000u32 {
            let v = (1000 + i / 10 + (i % 3)) as u16;
            data.extend_from_slice(&v.to_le_bytes());
        }
        let p = pack(&data, 2).unwrap();
        assert!(
            p.len() < data.len() / 4,
            "packed {} of {}",
            p.len(),
            data.len()
        );
        assert_eq!(unpack(&p).unwrap(), data);
    }

    #[test]
    fn bad_width_is_rejected() {
        assert_eq!(pack(&[0; 8], 4), Err(PackError::BadElemWidth(4)));
        assert_eq!(pack(&[0; 8], 0), Err(PackError::BadElemWidth(0)));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut p = pack(&[1, 2, 3], 1).unwrap();
        let mut q = p.clone();
        q[0] = b'X';
        assert_eq!(unpack(&q), Err(PackError::BadMagic));
        // Version flip also breaks the header CRC; repair it to hit the
        // version check specifically.
        p[4] = 99;
        let crc = sciml_compress::crc32::crc32(&p[..HEADER_LEN - 4]);
        p[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(unpack(&p), Err(PackError::BadVersion(99)));
    }

    /// A bare stream header with a valid CRC and no body.
    fn bare_header(width: u8, tail: u8, n_chunks: u32, raw_len: u64) -> Vec<u8> {
        let mut h = MAGIC.to_vec();
        h.extend_from_slice(&[VERSION, width, tail, 0]);
        h.extend_from_slice(&n_chunks.to_le_bytes());
        h.extend_from_slice(&raw_len.to_le_bytes());
        let crc = sciml_compress::crc32::crc32(&h);
        h.extend_from_slice(&crc.to_le_bytes());
        h
    }

    #[test]
    fn header_that_declares_a_terabyte_is_refused_before_anything_is_sized() {
        // 24 bytes, consistent with themselves: 2^24 chunks of 2^16
        // one-byte values. Sizing the value buffer from them asked the
        // allocator for 4 TiB and aborted the process.
        let hostile = bare_header(1, 0, 1 << 24, 1 << 40);
        // The literal the codec, plugin and store regression tests embed.
        assert_eq!(
            hostile,
            [83, 80, 65, 75, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 52, 137, 49, 151]
        );
        assert_eq!(unpack(&hostile), Err(PackError::Truncated));
        let mut out = Vec::new();
        assert_eq!(
            unpack_into(&hostile, &mut out, 4096),
            Err(PackError::TooLarge {
                raw_len: 1 << 40,
                limit: 4096
            })
        );
        assert_eq!(out.capacity(), 0, "nothing reserved");
        // One chunk's worth of header over a body too short for it.
        let one = bare_header(2, 0, 1, 2 * CHUNK_VALUES as u64);
        assert_eq!(unpack(&one), Err(PackError::Truncated));
    }

    #[test]
    fn unpack_into_reuses_the_buffer_and_holds_the_limit() {
        let data: Vec<u8> = (0..(CHUNK_VALUES * 2 + 101))
            .map(|i| (i % 251) as u8)
            .collect();
        for width in [1u8, 2] {
            let p = pack(&data, width).unwrap();
            // Dirty, exactly large enough: same allocation afterwards.
            let mut out = vec![0xEE; data.len()];
            let (ptr, cap) = (out.as_ptr(), out.capacity());
            unpack_into(&p, &mut out, data.len()).unwrap();
            assert_eq!(out, data);
            assert_eq!((out.as_ptr(), out.capacity()), (ptr, cap));
            assert_eq!(
                unpack_into(&p, &mut out, data.len() - 1),
                Err(PackError::TooLarge {
                    raw_len: data.len() as u64,
                    limit: data.len() as u64 - 1
                })
            );
        }
    }

    #[test]
    fn header_bit_flip_is_checksum_error() {
        let mut p = pack(&[1, 2, 3, 4], 1).unwrap();
        p[8] ^= 0x40;
        assert!(matches!(
            unpack(&p),
            Err(PackError::ChecksumMismatch { .. })
        ));
    }
}
