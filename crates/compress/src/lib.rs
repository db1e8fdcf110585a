//! From-scratch DEFLATE (RFC 1951) and gzip (RFC 1952) implementation.
//!
//! The paper's CosmoFlow baseline compares against **gzip-compressed
//! samples** ("the latest release of the dataset provides a compressed
//! variant of the dataset using gzip, which reduces the required storage
//! space by 5×") and shows that general-purpose decompression, which can
//! only run on the host CPU, *slows the pipeline down* even though it
//! shrinks the data. Here that baseline is one gzip file per sample, and
//! a store's gzip entries are single members too. To reproduce it
//! without pulling in a compression dependency, this crate implements
//! the whole stack:
//!
//! * an LSB-first bit reader/writer ([`bitstream`]);
//! * CRC-32 (IEEE, reflected) for the gzip trailer ([`crc32`]);
//! * canonical, length-limited Huffman coding via package-merge
//!   ([`huffman`]);
//! * greedy hash-chain LZ77 matching with lazy evaluation ([`lz77`]);
//! * a DEFLATE block writer that Huffman-codes a block (fixed or
//!   dynamic) where that saves an eighth of it and stores it where it
//!   does not ([`deflate`]) — judging a block's first 1 024 tokens
//!   before it searches the rest, and storing a probe that fails with
//!   seven times its length after it unsearched, so that data which
//!   does not pay is searched one byte in eight — and a full inflater
//!   ([`fn@inflate`]);
//! * gzip member framing ([`gzip`]).
//!
//! The public entry points are [`gzip_compress`] / [`gzip_decompress`]
//! (and [`gzip_decompress_chunks`], which inflates through a window for
//! a consumer that reads the output once) and the raw
//! [`deflate_compress`] / [`inflate()`].

pub mod bitstream;
pub mod crc32;
pub mod deflate;
pub mod gzip;
pub mod huffman;
pub mod inflate;
pub mod lz77;

// Test-only: the implementation the hot loops replaced, and the tests
// that hold the new ones to its output. In `tests/` so that tools that
// go by path (sciml-lint) see them for what they are.
#[cfg(test)]
#[path = "tests/differential.rs"]
mod differential;
#[cfg(test)]
#[path = "tests/reference.rs"]
mod reference;

use std::fmt;

/// Compression effort. Maps to LZ77 search depth, mirroring zlib levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// No LZ77 matching; literals only (still Huffman coded).
    Fastest,
    /// Shallow hash-chain search (zlib ~3).
    Fast,
    /// Default search depth with lazy matching (zlib ~6).
    Default,
    /// Deep search (zlib ~9).
    Best,
}

impl Level {
    /// Maximum hash-chain positions examined per match attempt.
    pub(crate) fn max_chain(self) -> usize {
        match self {
            Level::Fastest => 0,
            Level::Fast => 16,
            Level::Default => 128,
            Level::Best => 1024,
        }
    }

    /// Matches at least this long stop the search early.
    pub(crate) fn good_enough(self) -> usize {
        match self {
            Level::Fastest => 8,
            Level::Fast => 16,
            Level::Default => 64,
            Level::Best => 258,
        }
    }

    /// Whether to defer emitting a match in favour of a possibly longer
    /// one starting at the next byte (zlib "lazy matching").
    pub(crate) fn lazy(self) -> bool {
        matches!(self, Level::Default | Level::Best)
    }
}

/// Errors produced while decoding compressed streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Stream ended before the structure was complete.
    UnexpectedEof,
    /// A block type, code, or field violated the DEFLATE spec.
    Corrupt(&'static str),
    /// The gzip header was malformed or used an unsupported feature.
    BadHeader(&'static str),
    /// CRC-32 or length check in the gzip trailer failed.
    ChecksumMismatch,
    /// Huffman code description was invalid (over/under-subscribed).
    BadHuffmanTable,
    /// The stream inflates to more than the caller's output limit.
    OutputLimit,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of stream"),
            Error::Corrupt(what) => write!(f, "corrupt deflate stream: {what}"),
            Error::BadHeader(what) => write!(f, "bad gzip header: {what}"),
            Error::ChecksumMismatch => write!(f, "gzip checksum mismatch"),
            Error::BadHuffmanTable => write!(f, "invalid huffman code lengths"),
            Error::OutputLimit => write!(f, "inflated output exceeds the caller's limit"),
        }
    }
}

impl std::error::Error for Error {}

/// Compresses `data` into a raw DEFLATE stream.
pub fn deflate_compress(data: &[u8], level: Level) -> Vec<u8> {
    deflate::compress(data, level)
}

/// Decompresses a raw DEFLATE stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, Error> {
    inflate::inflate(data)
}

/// Compresses `data` into a single-member gzip file.
pub fn gzip_compress(data: &[u8], level: Level) -> Vec<u8> {
    gzip::compress(data, level)
}

/// Decompresses a single-member gzip file, verifying CRC-32 and length.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, Error> {
    gzip::decompress(data)
}

/// [`gzip_decompress`] into a caller's buffer, replacing its contents,
/// with a hard limit on the output size: a member that inflates to more
/// than `limit` bytes is [`Error::OutputLimit`], returned before `out`
/// has grown past `limit`. Callers that know the size (a shard index's
/// `raw_len`) pass it as both the buffer's capacity and the limit and
/// see no reallocation; the buffer's length on entry is room the output
/// overwrites, so a reused buffer is not zero-filled again.
pub fn gzip_decompress_into(data: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<(), Error> {
    gzip::decompress_into(data, out, limit)
}

/// Decompresses a single-member gzip file through a 128 KiB window,
/// handing the output to `consume` a run at a time, in order: a reader
/// that parses its input front to back never holds the whole of it.
/// CRC-32 and ISIZE are checked as the runs go by, and are known good
/// only when this returns `Ok` — after `consume` has seen every byte.
/// A member that declares or inflates to more than `limit` bytes is
/// [`Error::OutputLimit`], found before more than `limit` bytes have
/// been handed on. The first error `consume` returns ends the stream
/// and is returned as it is.
pub fn gzip_decompress_chunks<E: From<Error>>(
    data: &[u8],
    limit: usize,
    mut consume: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let mut stopped = None;
    let inflated = gzip::decompress_chunks(data, limit, &mut |run: &[u8]| {
        consume(run).map_err(|e| {
            stopped = Some(e);
            // Never seen: `stopped` is returned in its place.
            Error::Corrupt("the consumer stopped")
        })
    });
    match stopped {
        Some(e) => Err(e),
        None => inflated.map_err(E::from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_roundtrip_all_levels() {
        let data: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .chain(std::iter::repeat_n(7u8, 5000))
            .collect();
        for level in [Level::Fastest, Level::Fast, Level::Default, Level::Best] {
            let gz = gzip_compress(&data, level);
            assert_eq!(gzip_decompress(&gz).unwrap(), data, "{level:?}");
            let raw = deflate_compress(&data, level);
            assert_eq!(inflate(&raw).unwrap(), data, "{level:?}");
        }
    }

    #[test]
    fn empty_input() {
        let gz = gzip_compress(&[], Level::Default);
        assert_eq!(gzip_decompress(&gz).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn compressible_data_actually_shrinks() {
        let data = vec![42u8; 100_000];
        let gz = gzip_compress(&data, Level::Default);
        assert!(gz.len() < data.len() / 100, "len = {}", gz.len());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(Error::ChecksumMismatch.to_string().contains("checksum"));
        assert!(Error::Corrupt("x").to_string().contains("x"));
    }
}
