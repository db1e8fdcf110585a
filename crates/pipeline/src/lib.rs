//! DALI-like data-loading pipeline (paper §VI).
//!
//! The paper integrates its decoders as NVIDIA DALI plugins so "only the
//! data feeding module in both applications needs to be modified". This
//! crate is the equivalent substrate: a multi-threaded, prefetching
//! loader with pluggable per-sample decoders:
//!
//! * [`source`] — where encoded bytes come from: in-memory, a directory
//!   of files, or a fill-once host-memory cache over either;
//! * [`decoder`] — the plugin interface plus the six concrete plugins
//!   the evaluation uses (baseline / gzip / CPU plugin, for each of
//!   CosmoFlow and DeepCAM);
//! * [`pipeline`] — reader threads → bounded prefetch queue → decoder
//!   pool → batcher, with per-stage wall-time instrumentation;
//! * [`batch`] — the FP16 batches handed to the training loop.
//!
//! Every sample is delivered exactly once per epoch (shuffled), and the
//! pipeline's stage overlap is real: readers, decoders and the consumer
//! run concurrently on OS threads connected by bounded crossbeam
//! channels.

pub mod batch;
pub mod decoder;
pub mod pipeline;
pub mod pool;
pub mod source;
pub mod stats;

pub use batch::{Batch, Label};
pub use decoder::{DecodedSample, DecoderPlugin};
pub use pipeline::{Pipeline, PipelineConfig};
pub use pool::{BufferPool, PooledBytes, PooledTensor};
pub use source::SampleSource;
pub use stats::PipelineStats;

use std::fmt;

/// Errors surfaced by the data-loading pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Fetching bytes from the source failed.
    Source(sciml_data::DataError),
    /// Decoding a sample failed.
    Decode(sciml_codec::CodecError),
    /// Compressed payload failed to decompress.
    Compression(sciml_compress::Error),
    /// Pipeline structure misuse (e.g. zero batch size).
    Config(&'static str),
    /// A worker thread disappeared (channel closed early).
    WorkerLost,
    /// A remote sample source failed (wire protocol, server error, or
    /// an exhausted retry budget).
    Remote(Box<dyn std::error::Error + Send + Sync>),
    /// A remote operation exceeded its deadline.
    Timeout(&'static str),
    /// The storage tier (packed shard store / staging) failed. Boxed so
    /// the storage crate can layer on top of the pipeline without a
    /// dependency cycle.
    Storage(Box<dyn std::error::Error + Send + Sync>),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Source(e) => write!(f, "source error: {e}"),
            PipelineError::Decode(e) => write!(f, "decode error: {e}"),
            PipelineError::Compression(e) => write!(f, "decompress error: {e}"),
            PipelineError::Config(w) => write!(f, "pipeline config error: {w}"),
            PipelineError::WorkerLost => write!(f, "pipeline worker lost"),
            PipelineError::Remote(e) => write!(f, "remote source error: {e}"),
            PipelineError::Timeout(what) => write!(f, "remote operation timed out: {what}"),
            PipelineError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Source(e) => Some(e),
            PipelineError::Decode(e) => Some(e),
            PipelineError::Compression(e) => Some(e),
            PipelineError::Remote(e) => Some(e.as_ref()),
            PipelineError::Storage(e) => Some(e.as_ref()),
            PipelineError::Config(_) | PipelineError::WorkerLost | PipelineError::Timeout(_) => {
                None
            }
        }
    }
}

impl From<sciml_data::DataError> for PipelineError {
    fn from(e: sciml_data::DataError) -> Self {
        PipelineError::Source(e)
    }
}

impl From<sciml_codec::CodecError> for PipelineError {
    fn from(e: sciml_codec::CodecError) -> Self {
        PipelineError::Decode(e)
    }
}

impl From<sciml_compress::Error> for PipelineError {
    fn from(e: sciml_compress::Error) -> Self {
        PipelineError::Compression(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, PipelineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(PipelineError::WorkerLost.to_string().contains("worker"));
        assert!(PipelineError::Config("bad").to_string().contains("bad"));
        assert!(PipelineError::Timeout("fetch")
            .to_string()
            .contains("fetch"));
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error as _;
        let e = PipelineError::Source(sciml_data::DataError::Format("bad magic"));
        assert!(e
            .source()
            .expect("has cause")
            .to_string()
            .contains("bad magic"));

        let inner: Box<dyn std::error::Error + Send + Sync> = "link down".into();
        let e = PipelineError::Remote(inner);
        assert!(e
            .source()
            .expect("has cause")
            .to_string()
            .contains("link down"));

        assert!(PipelineError::WorkerLost.source().is_none());
        assert!(PipelineError::Timeout("x").source().is_none());
    }
}
