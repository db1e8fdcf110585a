//! Frame-boundary detection for the sciml wire layout.
//!
//! The reactor splits the inbound byte stream into frames without
//! understanding their contents: a frame is `[payload_len: u32 LE]`
//! `[payload]` `[crc32: u32 LE]`, exactly the layout `sciml-serve`'s
//! protocol writes. CRC verification and message decoding stay in the
//! service layer — the reactor only needs to know where one request
//! ends and the next begins, plus the hard payload cap
//! [`MAX_PAYLOAD`], so a hostile 4 GiB length prefix cannot balloon
//! the inbound buffer.

/// Bytes of length prefix before the payload.
pub const HEADER_BYTES: usize = 4;
/// Bytes of CRC trailer after the payload.
pub const TRAILER_BYTES: usize = 4;
/// Largest payload a frame may carry, in bytes: the wire protocol's cap.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Frame-boundary errors (the only protocol knowledge the reactor has).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Payload length claimed by the prefix.
        claimed: u32,
        /// The cap it exceeded.
        max: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { claimed, max } => {
                write!(f, "frame payload {claimed} bytes exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Total on-wire size of the frame starting at `buf[0]`, if the length
/// prefix is complete. `Ok(None)` means "need more bytes".
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if buf.len() < HEADER_BYTES {
        return Ok(None);
    }
    let claimed = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if claimed > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            claimed,
            max: MAX_PAYLOAD,
        });
    }
    Ok(Some(HEADER_BYTES + claimed as usize + TRAILER_BYTES))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_header_wants_more() {
        assert_eq!(frame_len(&[]), Ok(None));
        assert_eq!(frame_len(&[5, 0, 0]), Ok(None));
    }

    #[test]
    fn complete_header_reports_total() {
        assert_eq!(frame_len(&[5, 0, 0, 0, 1, 2]), Ok(Some(4 + 5 + 4)));
        assert_eq!(frame_len(&[0, 0, 0, 0]), Ok(Some(8)));
        let cap = MAX_PAYLOAD.to_le_bytes();
        assert_eq!(frame_len(&cap), Ok(Some(4 + MAX_PAYLOAD as usize + 4)));
    }

    #[test]
    fn oversized_prefix_is_an_error() {
        let over = MAX_PAYLOAD + 1;
        assert_eq!(
            frame_len(&over.to_le_bytes()),
            Err(FrameError::Oversized {
                claimed: over,
                max: MAX_PAYLOAD
            })
        );
    }
}
