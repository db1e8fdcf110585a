//! sciml-store — packed shard store with background node-local staging.
//!
//! The paper's *staged* experiments copy the dataset from the shared
//! parallel file system onto node-local NVMe once, then train out of
//! the local copy. The per-file [`DirSource`](sciml_pipeline::source::DirSource)
//! pays one inode + one `open` per sample and keeps nothing across
//! process restarts; this crate replaces that with a persistent,
//! integrity-checked on-disk format and an asynchronous stager:
//!
//! * [`shard`] — the `.sshard` packed shard format: a versioned header,
//!   concatenated sample payloads, and a footer index carrying each
//!   sample's offset / length / CRC-32 (the same CRC as
//!   `sciml_compress::crc32`). Readers use positioned reads, so
//!   concurrent fetches share one file descriptor without a seek lock.
//!   The writer is two halves: `encode_entry` (one sample → one stored
//!   entry, per-entry raw or gzip) and `assemble_shard` (entries →
//!   file image); packing and staging both end in the second.
//! * [`manifest`] — the store manifest (`store.manifest`, one line per
//!   shard: sample range, byte size, whole-file CRC) and the staging
//!   journal (`staging.journal`, append-only record of completed
//!   shards, CRC-verified on resume).
//! * [`source`] — [`ShardSource`], a [`SampleSource`](sciml_pipeline::SampleSource) over a packed
//!   store directory, and [`StagingSource`], which serves
//!   already-staged shards from the local copy while transparently
//!   falling through to the backing source for the rest.
//! * [`stager`] — the background staging manager: a worker pool that
//!   copies shard-sized sample ranges from *any* backing
//!   `SampleSource` (local dir, or a `RemoteSource` over the serving
//!   tier) into a node-local staging directory, with bounded in-flight
//!   bytes, retry-with-backoff on transient errors, and a resumable
//!   journal so a restarted job never re-fetches a completed shard.
//!
//! Every corruption — truncated shard, corrupted footer, bit-flipped
//! payload, vanished backing directory — surfaces as a typed
//! [`StoreError`], never a panic.

#![deny(missing_docs)]

pub mod cluster;
pub mod manifest;
pub mod shard;
pub mod source;
pub mod stager;

pub use cluster::{ClusterPlan, HashRing, NodeLoad, ShardAssignment};
pub use manifest::{ShardMeta, ShardPlan, StagingJournal, StoreManifest, MANIFEST_FILE};
pub use sciml_pipeline::source::StoredSample;
pub use shard::{
    assemble_shard, encode_entry, pack_store, write_shard, EncodingChoice, EncodingCounts,
    PackConfig, PayloadEncoding, ShardReader, SHARD_EXT,
};
pub use source::{ShardSource, StagingSource};
pub use stager::{Stager, StagerConfig, StagingProgress};

use std::fmt;
use std::path::PathBuf;

/// Typed failures of the shard store and staging manager.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A magic number did not match (`where` names the structure).
    BadMagic(&'static str),
    /// Unsupported format version.
    BadVersion(u16),
    /// File ended before the structure was complete.
    Truncated(&'static str),
    /// The footer index failed its CRC check.
    IndexCorrupt {
        /// CRC computed over the stored index bytes.
        computed: u32,
        /// CRC recorded in the footer trailer.
        stored: u32,
    },
    /// A sample payload failed its CRC check.
    SampleCorrupt {
        /// Sample position within the shard.
        sample: usize,
        /// CRC computed over the stored payload.
        computed: u32,
        /// CRC recorded in the footer index.
        stored: u32,
    },
    /// A structural invariant of the format was violated.
    Malformed(&'static str),
    /// The store manifest or staging journal failed to parse.
    Manifest(String),
    /// Sample index beyond the store length.
    OutOfRange {
        /// Requested sample index.
        idx: usize,
        /// Number of samples in the store.
        len: usize,
    },
    /// An entry, raw or stored, is longer than the footer index's
    /// 32-bit length fields can record.
    EntryTooLarge {
        /// Length of the entry in bytes.
        len: u64,
    },
    /// A gzip-compressed payload failed to decompress.
    Compression(sciml_compress::Error),
    /// A shard file named by the manifest is missing.
    MissingShard(PathBuf),
    /// The staging retry budget was exhausted; carries the last error.
    RetriesExhausted(Box<StoreError>),
    /// The backing source failed while staging or falling through.
    Backing(sciml_pipeline::PipelineError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic(what) => write!(f, "bad magic in {what}"),
            StoreError::BadVersion(v) => write!(f, "unsupported shard format version {v}"),
            StoreError::Truncated(what) => write!(f, "truncated {what}"),
            StoreError::IndexCorrupt { computed, stored } => write!(
                f,
                "footer index CRC mismatch (computed {computed:#010x}, stored {stored:#010x})"
            ),
            StoreError::SampleCorrupt {
                sample,
                computed,
                stored,
            } => write!(
                f,
                "sample {sample} payload CRC mismatch (computed {computed:#010x}, stored {stored:#010x})"
            ),
            StoreError::Malformed(what) => write!(f, "malformed shard: {what}"),
            StoreError::Manifest(what) => write!(f, "manifest error: {what}"),
            StoreError::OutOfRange { idx, len } => {
                write!(f, "sample index {idx} out of range (store has {len})")
            }
            StoreError::EntryTooLarge { len } => write!(
                f,
                "entry of {len} bytes exceeds the shard index's 32-bit length field"
            ),
            StoreError::Compression(e) => write!(f, "shard decompression failed: {e}"),
            StoreError::MissingShard(p) => write!(f, "shard file missing: {}", p.display()),
            StoreError::RetriesExhausted(e) => write!(f, "staging retries exhausted: {e}"),
            StoreError::Backing(e) => write!(f, "backing source error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Compression(e) => Some(e),
            StoreError::RetriesExhausted(e) => Some(e.as_ref()),
            StoreError::Backing(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<sciml_compress::Error> for StoreError {
    fn from(e: sciml_compress::Error) -> Self {
        StoreError::Compression(e)
    }
}

impl From<StoreError> for sciml_pipeline::PipelineError {
    fn from(e: StoreError) -> Self {
        match e {
            // Don't double-wrap: a fall-through failure is the backing
            // source's own pipeline error.
            StoreError::Backing(inner) => inner,
            other => sciml_pipeline::PipelineError::Storage(Box::new(other)),
        }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_failure() {
        assert!(StoreError::BadMagic("shard header")
            .to_string()
            .contains("shard header"));
        assert!(StoreError::OutOfRange { idx: 9, len: 3 }
            .to_string()
            .contains('9'));
        let e = StoreError::SampleCorrupt {
            sample: 2,
            computed: 1,
            stored: 2,
        };
        assert!(e.to_string().contains("sample 2"));
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error as _;
        let io = StoreError::Io(std::io::Error::other("disk gone"));
        assert!(io.source().unwrap().to_string().contains("disk gone"));
        let wrapped = StoreError::RetriesExhausted(Box::new(StoreError::Truncated("shard")));
        assert!(wrapped.source().unwrap().to_string().contains("shard"));
        assert!(StoreError::BadVersion(9).source().is_none());
    }

    #[test]
    fn conversion_to_pipeline_error_keeps_type() {
        let e: sciml_pipeline::PipelineError = StoreError::BadVersion(7).into();
        assert!(e.to_string().contains("version 7"));
        // Backing errors unwrap instead of double-wrapping.
        let backing = StoreError::Backing(sciml_pipeline::PipelineError::Timeout("fetch"));
        let e: sciml_pipeline::PipelineError = backing.into();
        assert!(matches!(e, sciml_pipeline::PipelineError::Timeout(_)));
    }
}
