//! Domain-specific sample encoder/decoders — the paper's core contribution.
//!
//! Two codecs, each exploiting the statistical structure of its dataset
//! (paper §V) and each designed so decode is embarrassingly parallel and
//! can be fused with the application's preprocessing operators (§VI):
//!
//! * [`deepcam`] — lossy **differential floating-point encoding** of
//!   climate image lines: per-segment pivot values plus 8-bit delta codes
//!   (1 sign bit, 3-bit exponent offset from a per-segment base exponent,
//!   4-bit mantissa), constant-run broadcast encoding, raw fallback for
//!   abrupt lines, and per-line metadata for independent decode.
//! * [`cosmoflow`] — lossless **lookup-table encoding** of voxel count
//!   tuples: each voxel stores a 1- or 2-byte key into a per-sample table
//!   of 4-redshift groups; expensive operators (`log1p`) are applied to
//!   the table's few unique entries instead of all 8M voxels, and the
//!   gather scatters directly into the channel-major training layout
//!   (fusing the transpose with decompression).
//!
//! Both decoders compute in FP32 and emit FP16 ([`sciml_half::F16`]),
//! feeding mixed-precision training directly. [`ops`] defines the fusable
//! preprocessing operators and [`error_stats`] the lossiness accounting
//! that reproduces the paper's "≈3 % of values above 10 % error" claim.

pub mod cosmoflow;
pub mod deepcam;
pub mod error_stats;
pub mod ops;
pub(crate) mod wire;

// Test-only: the crate's speed floors, which time the decoders and
// encoders against their frozen references.
#[cfg(test)]
#[path = "tests/speed.rs"]
mod speed;

pub use error_stats::ErrorStats;
pub use ops::Op;

use std::fmt;

/// Errors from parsing encoded sample containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Byte stream ended early.
    Truncated,
    /// Structural violation in the encoded representation.
    Corrupt(&'static str),
    /// Header fields are inconsistent with the payload.
    Inconsistent(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "encoded sample truncated"),
            CodecError::Corrupt(w) => write!(f, "corrupt encoded sample: {w}"),
            CodecError::Inconsistent(w) => write!(f, "inconsistent encoding: {w}"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::Corrupt("bad").to_string().contains("bad"));
    }
}
