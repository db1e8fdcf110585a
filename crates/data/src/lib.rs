//! Synthetic scientific datasets and their per-sample file formats.
//!
//! The paper's encoders exploit statistical structure of two datasets we
//! cannot redistribute: the CAM5 climate snapshots behind **DeepCAM** and
//! the N-body particle histograms behind **CosmoFlow**. This crate builds
//! statistically matched synthetic stand-ins (documented in DESIGN.md §2):
//!
//! * [`cosmoflow`] — procedural "universes": halo placement + kernel
//!   deposit produce 4-redshift voxel count grids with a power-law unique
//!   value histogram and strong cross-redshift coupling (the Fig-5
//!   properties that make the lookup-table codec work);
//! * [`deepcam`] — 16-channel climate-like images that are smooth along
//!   the x (longitude) direction with sparse sharp anomalies (cyclones,
//!   atmospheric rivers) plus sensor noise, and segmentation label masks;
//! * [`h5lite`] — a small self-describing binary container standing in
//!   for the HDF5 files of the original DeepCAM dataset;
//! * [`serialize`] — the raw on-disk layout of both sample types;
//! * [`stream`] — the one reader of each layout, push-fed: a sample's
//!   bytes arrive whole (the uncompressed baselines) or a run at a time
//!   (the gzip ones inflate through a window) and are read once.

pub mod cosmoflow;
pub mod deepcam;
pub mod h5lite;
pub mod serialize;
pub mod stream;

use std::fmt;
use std::io;

/// Errors from container parsing and I/O.
#[derive(Debug)]
pub enum DataError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in a container or sample encoding.
    Format(&'static str),
    /// A container's checksum failed.
    Checksum,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "io error: {e}"),
            DataError::Format(what) => write!(f, "format error: {what}"),
            DataError::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<io::Error> for DataError {
    fn from(e: io::Error) -> Self {
        DataError::Io(e)
    }
}

/// Convenience alias used throughout the data layer.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(DataError::Checksum.to_string().contains("checksum"));
        assert!(DataError::Format("bad magic")
            .to_string()
            .contains("bad magic"));
        let io_err: DataError = io::Error::new(io::ErrorKind::NotFound, "nope").into();
        assert!(io_err.to_string().contains("nope"));
    }
}
