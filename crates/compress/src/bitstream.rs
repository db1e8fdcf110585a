//! LSB-first bit I/O, as DEFLATE requires.
//!
//! The implementation lives in the `sciml-bitio` crate; this module
//! re-exports it under the historical path and maps its EOF error into
//! [`crate::Error`] so decode paths keep using `?` unchanged.

pub use sciml_bitio::{BitIoError, BitReader, BitWriter};

impl From<BitIoError> for crate::Error {
    fn from(e: BitIoError) -> Self {
        match e {
            BitIoError::UnexpectedEof => crate::Error::UnexpectedEof,
        }
    }
}
