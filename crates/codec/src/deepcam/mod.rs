//! DeepCAM differential floating-point codec (paper §V-A, Fig. 4).
//!
//! A sample is encoded **line by line** (one row of one channel). Every
//! line is independently decodable via a per-line directory — the design
//! property that lets the GPU assign lines to warps and the CPU assign
//! lines to threads without synchronization.
//!
//! Three line modes, chosen per line for the best space saving:
//!
//! * [`LineMode::Constant`] — "special encoding for the case where all
//!   neighboring values are similar": a single pivot value broadcast.
//! * [`LineMode::Delta`] — the line is split into segments; each segment
//!   stores its head value (f32), a base exponent, and one 8-bit code per
//!   remaining value: `[sign:1][exp_off:3][mantissa:4]` relative to the
//!   segment's base exponent. Code `0x00` is a zero delta and `0xFF`
//!   escapes to a literal f32 side array (isolated spikes).
//! * [`LineMode::RawF32`] — "lines with abrupt transitions or where the
//!   number of segments is large" stay uncompressed.
//!
//! Decode reconstructs in f32 and emits f16 (`§V-A`: "we emit
//! half-precision values, the computation is conducted in
//! single-precision"). The encoder mirrors the decoder's reconstruction
//! so quantization drift is accounted, and escapes bound the error.

mod decode;
mod encode;
mod simd;

#[cfg(test)]
#[path = "tests/differential.rs"]
mod differential;
#[cfg(test)]
#[path = "tests/reference.rs"]
mod reference;

pub use decode::{decode, decode_into, decode_line_into, decode_parallel, decode_parallel_into};
pub use encode::{encode, EncodeStats, EncoderConfig};

use crate::CodecError;

/// Delta code escaping to a literal f32.
pub const CODE_ESCAPE: u8 = 0xFF;
/// Delta code meaning "zero delta".
pub const CODE_ZERO: u8 = 0x00;
/// Exponent-offset window width expressible by the 3-bit field.
pub const EXP_WINDOW: i32 = 7;

/// Per-line encoding mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineMode {
    /// All values identical: payload is one f32.
    Constant,
    /// Uncompressed f32 values.
    RawF32,
    /// Segmented differential encoding.
    Delta,
}

impl LineMode {
    fn code(self) -> u8 {
        match self {
            LineMode::Constant => 0,
            LineMode::RawF32 => 1,
            LineMode::Delta => 2,
        }
    }

    fn from_code(c: u8) -> Result<Self, CodecError> {
        match c {
            0 => Ok(LineMode::Constant),
            1 => Ok(LineMode::RawF32),
            2 => Ok(LineMode::Delta),
            _ => Err(CodecError::Corrupt("unknown line mode")),
        }
    }
}

/// Directory entry: where a line's payload lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Encoding mode.
    pub mode: LineMode,
    /// Payload byte offset.
    pub offset: u32,
    /// Payload byte length.
    pub len: u32,
}

/// Segment header inside a delta line (8 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First value of the segment, stored exactly.
    pub head: f32,
    /// Values covered including the head.
    pub count: u16,
    /// Base (minimum) delta exponent for the segment.
    pub base_exp: i8,
}

/// An encoded DeepCAM sample.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedDeepCam {
    /// Image width (values per line).
    pub width: u32,
    /// Image height (lines per channel).
    pub height: u32,
    /// Channel count.
    pub channels: u32,
    /// Per-line directory, `channels * height` entries, channel-major.
    pub lines: Vec<LineMeta>,
    /// Concatenated line payloads.
    pub payload: Vec<u8>,
    /// Losslessly carried label mask (may be empty).
    pub mask: Vec<u8>,
}

const MAGIC: &[u8; 4] = b"DCMX";
/// Wire version 1: directory + raw payload bytes.
const VERSION: u32 = 1;
/// Wire version 2: the payload section travels through `sciml_pack`
/// as a second-stage squeeze over the differential code bytes (the
/// delta codes are heavily skewed toward `CODE_ZERO` and small
/// magnitudes, which the pack entropy stage exploits). The directory
/// and mask are unchanged.
const VERSION_PACKED: u32 = 2;

impl EncodedDeepCam {
    /// Total number of lines. Saturates where the header's dimensions
    /// overflow `usize`: a count no directory or buffer can match.
    pub fn n_lines(&self) -> usize {
        (self.channels as usize).saturating_mul(self.height as usize)
    }

    /// Total values the decoded sample holds (saturating, like
    /// [`EncodedDeepCam::n_lines`]).
    pub fn n_values(&self) -> usize {
        self.n_lines().saturating_mul(self.width as usize)
    }

    /// Size of the encoded representation (directory + payload), i.e.
    /// what travels through the storage/memory hierarchy. The mask is
    /// excluded: labels ship separately and losslessly in both the
    /// baseline and the optimized path.
    pub fn encoded_bytes(&self) -> usize {
        self.lines.len() * 9 + self.payload.len() + 16
    }

    /// Size of the raw FP32 baseline representation.
    pub fn raw_bytes(&self) -> usize {
        self.n_values() * 4
    }

    /// Compression ratio (raw / encoded).
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Serializes to the wire format (version 1, raw payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.serialize(&self.payload, VERSION)
    }

    /// Serializes with the payload section squeezed through
    /// [`sciml_pack`] (version 2). The differential code bytes are
    /// heavily skewed (mostly [`CODE_ZERO`] and small magnitudes), so
    /// the pack entropy stage buys a second compression factor on top
    /// of the per-line delta coding. Falls back to the version-1 form
    /// whenever packing does not shrink the payload, so the result is
    /// never larger than [`EncodedDeepCam::to_bytes`].
    pub fn to_bytes_packed(&self) -> Vec<u8> {
        match sciml_pack::pack(&self.payload, 1) {
            Ok(packed) if packed.len() < self.payload.len() => {
                self.serialize(&packed, VERSION_PACKED)
            }
            _ => self.to_bytes(),
        }
    }

    fn serialize(&self, payload: &[u8], version: u32) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(32 + self.lines.len() * 9 + payload.len() + self.mask.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.channels.to_le_bytes());
        for l in &self.lines {
            out.push(l.mode.code());
            out.extend_from_slice(&l.offset.to_le_bytes());
            out.extend_from_slice(&l.len.to_le_bytes());
        }
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&(self.mask.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.mask);
        out
    }

    /// Parses the wire format, validating the directory.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| crate::wire::take(data, pos, n);
        if take(&mut pos, 4)? != MAGIC {
            return Err(CodecError::Corrupt("bad magic"));
        }
        let version = crate::wire::le_u32(take(&mut pos, 4)?);
        if version != VERSION && version != VERSION_PACKED {
            return Err(CodecError::Corrupt("unsupported version"));
        }
        let width = crate::wire::le_u32(take(&mut pos, 4)?);
        let height = crate::wire::le_u32(take(&mut pos, 4)?);
        let channels = crate::wire::le_u32(take(&mut pos, 4)?);
        let n_lines = (channels as usize)
            .checked_mul(height as usize)
            .ok_or(CodecError::Corrupt("line count overflow"))?;
        if n_lines > 1 << 28 {
            return Err(CodecError::Corrupt("implausible line count"));
        }
        // The decoders size their output from the product, so it must
        // not wrap: 2³⁰ values is 4 GiB of f32, seventy times the
        // paper's 1152 × 768 × 16 sample.
        match (n_lines as u64).checked_mul(width as u64) {
            Some(n) if n <= 1 << 30 => {}
            _ => return Err(CodecError::Corrupt("implausible element count")),
        }
        if width == 0 && n_lines != 0 {
            return Err(CodecError::Corrupt("zero-width lines"));
        }
        // Nine directory bytes a line must follow: checked before the
        // directory is allocated for.
        if n_lines > (data.len() - pos) / 9 {
            return Err(CodecError::Truncated);
        }
        let mut lines = Vec::with_capacity(n_lines);
        for _ in 0..n_lines {
            let mode = LineMode::from_code(take(&mut pos, 1)?[0])?;
            let offset = crate::wire::le_u32(take(&mut pos, 4)?);
            let len = crate::wire::le_u32(take(&mut pos, 4)?);
            lines.push(LineMeta { mode, offset, len });
        }
        let payload_len = crate::wire::wire_len(take(&mut pos, 8)?)?;
        let section = take(&mut pos, payload_len)?;
        let payload = if version == VERSION_PACKED {
            sciml_pack::unpack(section).map_err(|e| match e {
                sciml_pack::PackError::Truncated => CodecError::Truncated,
                _ => CodecError::Corrupt("packed payload section corrupt"),
            })?
        } else {
            section.to_vec()
        };
        let mask_len = crate::wire::wire_len(take(&mut pos, 8)?)?;
        let mask = take(&mut pos, mask_len)?.to_vec();
        for l in &lines {
            let end = (l.offset as usize)
                .checked_add(l.len as usize)
                .ok_or(CodecError::Corrupt("line range overflow"))?;
            if end > payload.len() {
                return Err(CodecError::Inconsistent("line payload out of range"));
            }
        }
        Ok(Self {
            width,
            height,
            channels,
            lines,
            payload,
            mask,
        })
    }

    /// The payload slice of one line.
    pub(crate) fn line_payload(&self, idx: usize) -> &[u8] {
        let l = &self.lines[idx];
        &self.payload[l.offset as usize..(l.offset + l.len) as usize]
    }
}

/// Decodes one delta code byte relative to `base_exp`.
///
/// Returns `None` for the escape code.
#[inline]
pub(crate) fn decode_code(code: u8, base_exp: i8) -> Option<f32> {
    if code == CODE_ZERO {
        return Some(0.0);
    }
    if code == CODE_ESCAPE {
        return None;
    }
    let sign = if code & 0x80 != 0 { -1.0f32 } else { 1.0 };
    let e_off = ((code >> 4) & 0x7) as i32;
    let m = (code & 0x0F) as f32;
    Some(sign * (1.0 + m / 16.0) * exp2i(base_exp as i32 + e_off))
}

/// 2^e for integer e, exact over the f32 range used by the codec.
#[inline]
pub(crate) fn exp2i(e: i32) -> f32 {
    if (-126..=127).contains(&e) {
        f32::from_bits(((e + 127) as u32) << 23)
    } else if e < -126 {
        // Subnormal or underflow range: fall back to powi (rare path).
        2f32.powi(e)
    } else {
        f32::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2i_matches_powi() {
        for e in -140..=130 {
            assert_eq!(exp2i(e), 2f32.powi(e), "e={e}");
        }
    }

    #[test]
    fn code_decoding() {
        assert_eq!(decode_code(CODE_ZERO, 0), Some(0.0));
        assert_eq!(decode_code(CODE_ESCAPE, 0), None);
        // s=0, e_off=2, m=4 at base -3: (1+4/16) * 2^-1 = 0.625
        let code = (2u8 << 4) | 4;
        assert_eq!(decode_code(code, -3), Some(0.625));
        // sign bit negates
        assert_eq!(decode_code(code | 0x80, -3), Some(-0.625));
    }

    #[test]
    fn line_mode_codes_roundtrip() {
        for m in [LineMode::Constant, LineMode::RawF32, LineMode::Delta] {
            assert_eq!(LineMode::from_code(m.code()).unwrap(), m);
        }
        assert!(LineMode::from_code(9).is_err());
    }

    #[test]
    fn wire_roundtrip_empty() {
        let e = EncodedDeepCam {
            width: 0,
            height: 0,
            channels: 0,
            lines: vec![],
            payload: vec![],
            mask: vec![],
        };
        assert_eq!(EncodedDeepCam::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn wire_rejects_truncation_and_bad_magic() {
        let e = EncodedDeepCam {
            width: 4,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::RawF32,
                offset: 0,
                len: 16,
            }],
            payload: vec![0u8; 16],
            mask: vec![1, 2],
        };
        let bytes = e.to_bytes();
        assert_eq!(EncodedDeepCam::from_bytes(&bytes).unwrap(), e);
        for cut in 0..bytes.len() {
            assert!(
                EncodedDeepCam::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(EncodedDeepCam::from_bytes(&bad).is_err());
    }

    /// Header + a one-line directory + `payload_len`, then 20 bytes.
    fn one_line_blob(payload_len: u64) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        for field in [VERSION, 4, 1, 1] {
            blob.extend_from_slice(&field.to_le_bytes());
        }
        blob.push(LineMode::Constant.code());
        blob.extend_from_slice(&0u32.to_le_bytes());
        blob.extend_from_slice(&4u32.to_le_bytes());
        blob.extend_from_slice(&payload_len.to_le_bytes());
        blob.extend_from_slice(&[0u8; 20]);
        blob
    }

    #[test]
    fn wire_length_fields_near_u64_max_are_truncation_not_a_panic() {
        // 57 bytes whose payload length wraps `pos + n` back inside the
        // buffer: a release build used to pass the bounds check and die
        // slicing 37..26, a debug build on the add.
        let blob = one_line_blob(u64::MAX - 10);
        assert_eq!(blob.len(), 57);
        assert_eq!(
            EncodedDeepCam::from_bytes(&blob),
            Err(CodecError::Truncated)
        );
        // The mask length after an honest payload has the same shape.
        let mut blob = one_line_blob(4);
        blob.truncate(37 + 4);
        blob.extend_from_slice(&(u64::MAX - 10).to_le_bytes());
        blob.extend_from_slice(&[0u8; 20]);
        assert_eq!(
            EncodedDeepCam::from_bytes(&blob),
            Err(CodecError::Truncated)
        );
        for len in [u64::MAX, u64::MAX - 36, 1 << 63, (1 << 32) + 1, 21] {
            assert_eq!(
                EncodedDeepCam::from_bytes(&one_line_blob(len)),
                Err(CodecError::Truncated),
                "payload_len {len:#x}"
            );
        }
    }

    #[test]
    fn dimensions_that_overflow_u32_are_rejected_not_decoded_to_nothing() {
        // 2³¹ × 2 × 1 with two constant lines: `n_values()` used to be
        // 0 in release (a multiply-overflow panic in debug) and the
        // decode of an empty output "succeeded".
        let lines = vec![
            LineMeta {
                mode: LineMode::Constant,
                offset: 0,
                len: 4,
            },
            LineMeta {
                mode: LineMode::Constant,
                offset: 4,
                len: 4,
            },
        ];
        let e = EncodedDeepCam {
            width: 1 << 31,
            height: 2,
            channels: 1,
            lines,
            payload: vec![0u8; 8],
            mask: vec![],
        };
        assert_eq!(e.n_lines(), 2);
        assert_eq!(e.n_values(), (1usize << 31).saturating_mul(2));
        assert!(matches!(
            decode_into(&e, crate::Op::Identity, &mut []),
            Err(CodecError::Inconsistent(_))
        ));
        assert_eq!(
            EncodedDeepCam::from_bytes(&e.to_bytes()),
            Err(CodecError::Corrupt("implausible element count"))
        );
        // Dimensions whose product overflows even 64 bits saturate.
        let huge = EncodedDeepCam {
            width: u32::MAX,
            height: u32::MAX,
            channels: u32::MAX,
            ..e.clone()
        };
        assert_eq!(huge.n_values(), usize::MAX);
        assert!(EncodedDeepCam::from_bytes(&huge.to_bytes()).is_err());
        // Lines of no width are no sample either.
        let flat = EncodedDeepCam { width: 0, ..e };
        assert_eq!(
            EncodedDeepCam::from_bytes(&flat.to_bytes()),
            Err(CodecError::Corrupt("zero-width lines"))
        );
    }

    #[test]
    fn packed_wire_roundtrips_and_shrinks_skewed_payloads() {
        // A delta payload dominated by CODE_ZERO, like real DeepCAM
        // difference streams.
        let mut payload = vec![CODE_ZERO; 4000];
        for (i, b) in payload.iter_mut().enumerate() {
            if i % 17 == 0 {
                *b = (i % 7) as u8 + 1;
            }
        }
        let len = payload.len() as u32;
        let e = EncodedDeepCam {
            width: 1000,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::Delta,
                offset: 0,
                len,
            }],
            payload,
            mask: vec![9, 9],
        };
        let v1 = e.to_bytes();
        let v2 = e.to_bytes_packed();
        assert!(
            v2.len() < v1.len(),
            "pack stage must shrink: {} vs {}",
            v2.len(),
            v1.len()
        );
        assert_eq!(EncodedDeepCam::from_bytes(&v2).unwrap(), e);
        // Incompressible payloads fall back to the v1 form byte for byte.
        let mut state = 0x1234_5678u32;
        let noise: Vec<u8> = (0..997)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state >> 24) as u8
            })
            .collect();
        let noisy = EncodedDeepCam {
            payload: noise,
            lines: vec![LineMeta {
                mode: LineMode::RawF32,
                offset: 0,
                len: 997,
            }],
            ..e
        };
        assert_eq!(noisy.to_bytes_packed(), noisy.to_bytes());
    }

    #[test]
    fn packed_wire_rejects_corruption() {
        let e = EncodedDeepCam {
            width: 512,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::Delta,
                offset: 0,
                len: 2048,
            }],
            payload: vec![CODE_ZERO; 2048],
            mask: vec![],
        };
        let v2 = e.to_bytes_packed();
        assert_ne!(v2[4], 1, "payload this skewed must take the packed path");
        for cut in 0..v2.len() {
            assert!(EncodedDeepCam::from_bytes(&v2[..cut]).is_err(), "cut {cut}");
        }
        // Flip a byte inside the packed payload section (it starts at
        // 20-byte header + 9-byte directory + 8-byte length): the pack
        // CRCs catch it and it surfaces as a typed error.
        let mut bad = v2.clone();
        bad[20 + 9 + 8 + 10] ^= 0x40;
        assert!(EncodedDeepCam::from_bytes(&bad).is_err());
    }

    #[test]
    fn wire_rejects_out_of_range_directory() {
        let e = EncodedDeepCam {
            width: 4,
            height: 1,
            channels: 1,
            lines: vec![LineMeta {
                mode: LineMode::RawF32,
                offset: 8,
                len: 16,
            }],
            payload: vec![0u8; 16],
            mask: vec![],
        };
        assert!(matches!(
            EncodedDeepCam::from_bytes(&e.to_bytes()),
            Err(CodecError::Inconsistent(_))
        ));
    }
}
