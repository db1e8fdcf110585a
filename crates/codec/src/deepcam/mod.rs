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
mod decode_lockstep;
mod encode;
mod lockstep;

#[cfg(test)]
#[path = "tests/decode_differential.rs"]
mod decode_differential;
#[cfg(test)]
#[path = "tests/differential.rs"]
mod differential;
#[cfg(test)]
#[path = "tests/reference.rs"]
pub(crate) mod reference;
#[cfg(test)]
#[path = "tests/reference_decode.rs"]
pub(crate) mod reference_decode;
// One channel on the calling thread, for the speed floors (`encode`
// forks the channels).
#[cfg(test)]
pub(crate) use encode::encode_channel;

pub use decode::{decode, decode_into, decode_line_into, decode_view_into};
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
    /// Losslessly carried label mask, one class a pixel (`width ×
    /// height` bytes, or empty). The wire run-length codes it.
    pub mask: Vec<u8>,
}

const MAGIC: &[u8; 4] = b"DCMX";
/// The one wire version: directory, raw payload bytes, and the label
/// mask as runs. (1 carried the mask a byte a pixel; 2 carried the
/// payload section through the retired range coder, `crates/pack`;
/// both are refused like any other.)
const VERSION: u32 = 3;
/// Wire bytes of one directory entry: mode, offset, length.
const DIR_ENTRY_BYTES: usize = 9;
/// Wire bytes of one mask run: the class, then how many pixels (u16).
const MASK_RUN_BYTES: usize = 3;
/// Pixels one mask run covers at most; a longer run is split.
const MAX_MASK_RUN: usize = u16::MAX as usize;

impl EncodedDeepCam {
    /// Total number of lines. Saturates where the header's dimensions
    /// overflow `usize`: a count no directory or buffer can match.
    pub fn n_lines(&self) -> usize {
        self.view().n_lines()
    }

    /// Total values the decoded sample holds (saturating, like
    /// [`EncodedDeepCam::n_lines`]).
    pub fn n_values(&self) -> usize {
        self.view().n_values()
    }

    /// Size of the encoded image (directory + payload + header). The
    /// mask rides in the same blob, run-length coded, but is excluded:
    /// the paper's compression ratio counts the image, and both the
    /// baseline and this path carry the labels losslessly.
    pub fn encoded_bytes(&self) -> usize {
        self.lines.len() * DIR_ENTRY_BYTES + self.payload.len() + 16
    }

    /// Size of the raw FP32 baseline representation.
    pub fn raw_bytes(&self) -> usize {
        self.n_values() * 4
    }

    /// Compression ratio (raw / encoded).
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let runs = mask_runs(&self.mask);
        let mut out = Vec::with_capacity(
            36 + self.lines.len() * DIR_ENTRY_BYTES
                + self.payload.len()
                + runs.clone().count() * MASK_RUN_BYTES,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.channels.to_le_bytes());
        for l in &self.lines {
            out.push(l.mode.code());
            out.extend_from_slice(&l.offset.to_le_bytes());
            out.extend_from_slice(&l.len.to_le_bytes());
        }
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let mask_len_at = out.len();
        out.extend_from_slice(&0u64.to_le_bytes());
        for (class, len) in runs {
            out.push(class);
            out.extend_from_slice(&(len as u16).to_le_bytes());
        }
        let mask_len = (out.len() - mask_len_at - 8) as u64;
        out[mask_len_at..mask_len_at + 8].copy_from_slice(&mask_len.to_le_bytes());
        out
    }

    /// Parses the wire format into an owned sample:
    /// [`DeepCamView::parse`], then the copies. A blob that is only
    /// decoded can stay borrowed.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let view = DeepCamView::parse(data)?;
        let lines = match view.directory {
            Directory::Wire(d) => d
                .chunks_exact(DIR_ENTRY_BYTES)
                .map(dir_entry)
                .collect::<Result<Vec<_>, _>>()?,
            Directory::Lines(l) => l.to_vec(),
        };
        let mut mask = Vec::new();
        view.expand_mask_into(&mut mask);
        Ok(Self {
            width: view.width,
            height: view.height,
            channels: view.channels,
            lines,
            payload: view.payload.to_vec(),
            mask,
        })
    }

    /// The sample as the decoder reads it, borrowed.
    pub fn view(&self) -> DeepCamView<'_> {
        DeepCamView {
            width: self.width,
            height: self.height,
            channels: self.channels,
            directory: Directory::Lines(&self.lines),
            payload: &self.payload,
            mask: Mask::Pixels(&self.mask),
        }
    }
}

/// `mask` as `(class, pixels)` runs of at most [`MAX_MASK_RUN`]
/// pixels, in pixel order.
fn mask_runs(mask: &[u8]) -> impl Iterator<Item = (u8, usize)> + Clone + '_ {
    mask.chunk_by(|a, b| a == b)
        .flat_map(|run| run.chunks(MAX_MASK_RUN))
        .map(|run| (run[0], run.len()))
}

/// One wire directory entry (caller passes [`DIR_ENTRY_BYTES`] bytes).
fn dir_entry(e: &[u8]) -> Result<LineMeta, CodecError> {
    Ok(LineMeta {
        mode: LineMode::from_code(e[0])?,
        offset: crate::wire::le_u32(&e[1..5]),
        len: crate::wire::le_u32(&e[5..9]),
    })
}

/// A length-prefixed wire section (payload or mask).
fn wire_section<'a>(data: &'a [u8], pos: &mut usize) -> Result<&'a [u8], CodecError> {
    let len = crate::wire::wire_len(crate::wire::take(data, pos, 8)?)?;
    crate::wire::take(data, pos, len)
}

/// The wire mask section's runs against the image: whole runs, none
/// empty, summing to no pixel or to one a pixel. Summed before anything
/// is sized from them, stopping at the first run past the image.
fn check_mask_runs(section: &[u8], pixels: u64) -> Result<(), CodecError> {
    if !section.len().is_multiple_of(MASK_RUN_BYTES) {
        return Err(CodecError::Corrupt("mask section is not whole runs"));
    }
    let mut covered = 0u64;
    for run in section.chunks_exact(MASK_RUN_BYTES) {
        let len = u16::from_le_bytes([run[1], run[2]]);
        if len == 0 {
            return Err(CodecError::Corrupt("zero-length mask run"));
        }
        covered = covered
            .checked_add(u64::from(len))
            .filter(|&c| c <= pixels)
            .ok_or(CodecError::Inconsistent("mask runs exceed width × height"))?;
    }
    if covered != 0 && covered != pixels {
        return Err(CodecError::Inconsistent(
            "mask runs short of width × height",
        ));
    }
    Ok(())
}

/// Every directory entry's range against the payload it indexes: the
/// whole directory before any line is decoded.
fn check_line_ranges(directory: &[u8], payload_len: usize) -> Result<(), CodecError> {
    for e in directory.chunks_exact(DIR_ENTRY_BYTES) {
        let l = dir_entry(e)?;
        let end = (l.offset as usize)
            .checked_add(l.len as usize)
            .ok_or(CodecError::Corrupt("line range overflow"))?;
        if end > payload_len {
            return Err(CodecError::Inconsistent("line payload out of range"));
        }
    }
    Ok(())
}

/// A view's line directory: the wire's nine bytes a line, or an
/// [`EncodedDeepCam`]'s parsed entries.
#[derive(Debug, Clone, Copy)]
enum Directory<'a> {
    /// Wire form; every mode byte was checked by [`DeepCamView::parse`].
    Wire(&'a [u8]),
    Lines(&'a [LineMeta]),
}

/// A view's label mask: the wire's runs, or an [`EncodedDeepCam`]'s
/// pixels.
#[derive(Debug, Clone, Copy)]
enum Mask<'a> {
    /// Wire form; [`DeepCamView::parse`] checked every run.
    Runs(&'a [u8]),
    Pixels(&'a [u8]),
}

/// An encoded DeepCAM sample borrowed from the bytes that hold it: what
/// the decoder reads, whether those are a wire blob as it arrived
/// ([`DeepCamView::parse`]) or an [`EncodedDeepCam`]
/// ([`EncodedDeepCam::view`]). Nothing is copied and nothing allocated.
#[derive(Debug, Clone, Copy)]
pub struct DeepCamView<'a> {
    /// Image width (values per line).
    pub width: u32,
    /// Image height (lines per channel).
    pub height: u32,
    /// Channel count.
    pub channels: u32,
    directory: Directory<'a>,
    payload: &'a [u8],
    mask: Mask<'a>,
}

impl<'a> DeepCamView<'a> {
    /// Parses a wire blob in place, checking in the order the errors
    /// are reported: magic, version, dimension limits, room for the
    /// directory, each entry's mode, the two sections, every line's
    /// range, then the mask's runs.
    pub fn parse(data: &'a [u8]) -> Result<Self, CodecError> {
        let pos = &mut 0usize;
        let take = |pos: &mut usize, n: usize| crate::wire::take(data, pos, n);
        if take(pos, 4)? != MAGIC {
            return Err(CodecError::Corrupt("bad magic"));
        }
        if crate::wire::le_u32(take(pos, 4)?) != VERSION {
            return Err(CodecError::Corrupt("unsupported version"));
        }
        let width = crate::wire::le_u32(take(pos, 4)?);
        let height = crate::wire::le_u32(take(pos, 4)?);
        let channels = crate::wire::le_u32(take(pos, 4)?);
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
        // Whatever the line count: the decoders walk the output in
        // steps of `width`.
        if width == 0 {
            return Err(CodecError::Corrupt("zero-width lines"));
        }
        // The directory must follow: checked before anything is sized
        // from the line count.
        if n_lines > (data.len() - *pos) / DIR_ENTRY_BYTES {
            return Err(CodecError::Truncated);
        }
        let directory = take(pos, n_lines * DIR_ENTRY_BYTES)?;
        for e in directory.chunks_exact(DIR_ENTRY_BYTES) {
            dir_entry(e)?;
        }
        let payload = wire_section(data, pos)?;
        let mask = wire_section(data, pos)?;
        check_line_ranges(directory, payload.len())?;
        check_mask_runs(mask, u64::from(width) * u64::from(height))?;
        Ok(Self {
            width,
            height,
            channels,
            directory: Directory::Wire(directory),
            payload,
            mask: Mask::Runs(mask),
        })
    }

    /// The label mask as `(class, pixels)` runs in pixel order: none
    /// for a sample without one, else covering `width × height`.
    pub fn mask_runs(&self) -> impl Iterator<Item = (u8, usize)> + 'a {
        let (wire, pixels): (&[u8], &[u8]) = match self.mask {
            Mask::Runs(wire) => (wire, &[]),
            Mask::Pixels(pixels) => (&[], pixels),
        };
        wire.chunks_exact(MASK_RUN_BYTES)
            .map(|run| (run[0], usize::from(u16::from_le_bytes([run[1], run[2]]))))
            .chain(mask_runs(pixels))
    }

    /// Expands the label mask into `out`, replacing its contents: one
    /// class a pixel, or nothing.
    pub fn expand_mask_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.mask_runs().map(|(_, len)| len).sum());
        for (class, len) in self.mask_runs() {
            out.resize(out.len() + len, class);
        }
    }

    /// Total number of lines. Saturates where the dimensions overflow
    /// `usize`: a count no directory or buffer can match.
    pub fn n_lines(&self) -> usize {
        (self.channels as usize).saturating_mul(self.height as usize)
    }

    /// Total values the decoded sample holds (saturating, like
    /// [`DeepCamView::n_lines`]).
    pub fn n_values(&self) -> usize {
        self.n_lines().saturating_mul(self.width as usize)
    }

    /// Mode and payload bytes of line `idx`. A parsed view's ranges
    /// were validated whole; an [`EncodedDeepCam`]'s fields are public,
    /// so the range is checked here, where it is used.
    pub fn line(&self, idx: usize) -> Result<(LineMode, &'a [u8]), CodecError> {
        let (entries, entry) = match self.directory {
            Directory::Wire(d) => {
                let mut entries = d.chunks_exact(DIR_ENTRY_BYTES);
                (entries.len(), entries.nth(idx).map(dir_entry))
            }
            Directory::Lines(l) => (l.len(), l.get(idx).copied().map(Ok)),
        };
        if entries != self.n_lines() {
            return Err(CodecError::Inconsistent(
                "directory length != channels × height",
            ));
        }
        let l = entry.ok_or(CodecError::Inconsistent("line index out of range"))??;
        (l.offset as usize)
            .checked_add(l.len as usize)
            .and_then(|end| self.payload.get(l.offset as usize..end))
            .map(|bytes| (l.mode, bytes))
            .ok_or(CodecError::Inconsistent("line payload out of range"))
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
    fn wire_roundtrip_of_no_lines() {
        let e = EncodedDeepCam {
            width: 4,
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
            mask: vec![1, 2, 2, 0],
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
        // Version 1, the mask a byte a pixel, is refused by number.
        let mut v1 = bytes.clone();
        v1[4] = 1;
        assert_eq!(
            EncodedDeepCam::from_bytes(&v1),
            Err(CodecError::Corrupt("unsupported version"))
        );
    }

    /// A sample of 256 × 512 pixels, one constant line a row, carrying
    /// `mask`.
    fn masked(mask: Vec<u8>) -> EncodedDeepCam {
        EncodedDeepCam {
            width: 256,
            height: 512,
            channels: 1,
            lines: (0..512)
                .map(|i| LineMeta {
                    mode: LineMode::Constant,
                    offset: 4 * i,
                    len: 4,
                })
                .collect(),
            payload: vec![0u8; 4 * 512],
            mask,
        }
    }

    #[test]
    fn mask_runs_longer_than_a_u16_are_split_and_round_trip() {
        let pixels = 256 * 512;
        let mask = [
            vec![0u8; 65_535],
            vec![1; 65_536],
            vec![2; pixels - 131_071],
        ]
        .concat();
        let e = masked(mask);
        let bytes = e.to_bytes();
        let view = DeepCamView::parse(&bytes).unwrap();
        assert_eq!(
            view.mask_runs().collect::<Vec<_>>(),
            [(0, 65_535), (1, 65_535), (1, 1), (2, 1)]
        );
        // Four runs of three bytes behind the section's length.
        assert_eq!(bytes.len(), 20 + 512 * 9 + 8 + 4 * 512 + 8 + 4 * 3);
        let mut out = vec![9; 7];
        view.expand_mask_into(&mut out);
        assert!(out == e.mask);
        assert_eq!(EncodedDeepCam::from_bytes(&bytes).unwrap(), e);
        // The owned sample's view gives the same runs.
        assert!(e.view().mask_runs().eq(view.mask_runs()));
        // One run of each length, alone.
        for len in [65_535, 65_536] {
            let e = masked([vec![3u8; len], vec![4; pixels - len]].concat());
            assert_eq!(EncodedDeepCam::from_bytes(&e.to_bytes()).unwrap(), e);
        }
    }

    #[test]
    fn a_mask_is_one_class_a_pixel_or_nothing() {
        let pixels = 256 * 512;
        assert_eq!(
            EncodedDeepCam::from_bytes(&masked(vec![]).to_bytes()).unwrap(),
            masked(vec![])
        );
        for (len, verdict) in [
            (1, "mask runs short of width × height"),
            (pixels - 1, "mask runs short of width × height"),
            (pixels + 1, "mask runs exceed width × height"),
        ] {
            let bytes = masked(vec![0; len]).to_bytes();
            let err = CodecError::Inconsistent(verdict);
            assert_eq!(
                EncodedDeepCam::from_bytes(&bytes),
                Err(err.clone()),
                "{len}"
            );
            assert_eq!(DeepCamView::parse(&bytes).err(), Some(err), "{len}");
        }
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

    /// What wire version 2 used to carry: a payload section that is a
    /// bare `SPAK` header (`crates/pack`), CRC valid, declaring 2^24
    /// chunks and a terabyte. 69 bytes from any server, refused at the
    /// version field.
    #[test]
    fn wire_v2_is_an_unsupported_version_whatever_its_payload_declares() {
        const PACK_HEADER: [u8; 24] = [
            83, 80, 65, 75, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 52, 137, 49, 151,
        ];
        let mut blob = MAGIC.to_vec();
        blob.extend_from_slice(&2u32.to_le_bytes());
        for dim in [4u32, 1, 1] {
            blob.extend_from_slice(&dim.to_le_bytes());
        }
        blob.push(LineMode::RawF32.code());
        blob.extend_from_slice(&0u32.to_le_bytes());
        blob.extend_from_slice(&16u32.to_le_bytes());
        blob.extend_from_slice(&(PACK_HEADER.len() as u64).to_le_bytes());
        blob.extend_from_slice(&PACK_HEADER);
        blob.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(blob.len(), 69);
        let unsupported = CodecError::Corrupt("unsupported version");
        assert_eq!(DeepCamView::parse(&blob).err(), Some(unsupported.clone()));
        assert_eq!(EncodedDeepCam::from_bytes(&blob), Err(unsupported));
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
