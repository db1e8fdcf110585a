//! DeepCAM encoder: per-line mode selection and segmented delta coding,
//! sixteen lines at a time.
//!
//! Inside a delta line every value is coded against the *reconstructed*
//! one before it, so a line is one dependent chain of float operations;
//! the lines themselves are independent. A channel is therefore encoded
//! in groups of [`LANES`] lines, one line to a lane:
//!
//! 1. **Pass 1**, line by line: the constant test, then segmentation on
//!    the true deltas, which also writes each value's segment base
//!    exponent ([`HEAD`] at a segment's first value) into a
//!    position-major row the group shares.
//! 2. **Pass 2**, the quantiser (`lockstep.rs`): the group's lanes step
//!    through their positions together at the active SIMD tier.
//! 3. Line by line again: the payload, or the raw fallback.
//!
//! The bytes and statistics are the line-at-a-time encoder's
//! (`tests/differential.rs` against `tests/reference.rs`, at every tier).

use super::lockstep::{self, HEAD, LANES};
use super::{
    decode_code, exp2i, EncodedDeepCam, LineMeta, LineMode, Segment, CODE_ESCAPE, CODE_ZERO,
    EXP_WINDOW,
};
use rayon::prelude::*;
use sciml_data::deepcam::DeepCamSample;
use sciml_simd::{active_level, record, Kernel};

/// Tunables of the encoder.
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    /// Relative reconstruction error above which a value is escaped to a
    /// literal (bounds worst-case drift on values that matter).
    pub escape_rel_tol: f32,
    /// Absolute floor for the relative-error denominator, so near-zero
    /// values are *not* aggressively escaped — this is precisely where
    /// the paper accepts its ≈3 % error tail.
    pub abs_floor: f32,
    /// A line whose segment count exceeds `width / min_values_per_segment`
    /// is stored raw ("where the number of segments is large, we do not
    /// compress these lines").
    pub min_values_per_segment: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            escape_rel_tol: 0.02,
            abs_floor: 1.0,
            min_values_per_segment: 8,
        }
    }
}

/// Aggregate statistics of one encode run (Fig. 4 reporting).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncodeStats {
    /// Lines stored as a broadcast constant.
    pub constant_lines: usize,
    /// Lines kept as raw f32.
    pub raw_lines: usize,
    /// Lines stored with delta segments.
    pub delta_lines: usize,
    /// Total segments emitted across delta lines.
    pub segments: usize,
    /// Escape literals emitted.
    pub literals: usize,
    /// Zero-delta codes emitted.
    pub zero_codes: usize,
}

/// Encodes a sample, returning the encoded form and statistics.
///
/// Lines are independent, so the channels are encoded on the worker
/// pool, one task each, and stitched in channel order: the output is
/// the same bytes whatever the number of threads.
pub fn encode(sample: &DeepCamSample, cfg: &EncoderConfig) -> (EncodedDeepCam, EncodeStats) {
    let channels: Vec<(Vec<LineMeta>, Vec<u8>, EncodeStats)> = (0..sample.channels)
        .into_par_iter()
        .map(|c| encode_channel(sample, c, cfg))
        .collect();

    let mut lines = Vec::with_capacity(sample.channels * sample.height);
    let mut payload = Vec::with_capacity(channels.iter().map(|(_, p, _)| p.len()).sum());
    let mut stats = EncodeStats::default();
    for (channel_lines, channel_payload, channel_stats) in channels {
        let shift = payload.len() as u32;
        lines.extend(channel_lines.into_iter().map(|l| LineMeta {
            offset: l.offset + shift,
            ..l
        }));
        payload.extend_from_slice(&channel_payload);
        stats.merge(&channel_stats);
    }

    (
        EncodedDeepCam {
            width: sample.width as u32,
            height: sample.height as u32,
            channels: sample.channels as u32,
            lines,
            payload,
            mask: sample.mask.clone(),
        },
        stats,
    )
}

/// Encodes the lines of channel `c`: their directory entries (offsets
/// from the channel's own first byte), payload and statistics.
pub(super) fn encode_channel(
    sample: &DeepCamSample,
    c: usize,
    cfg: &EncoderConfig,
) -> (Vec<LineMeta>, Vec<u8>, EncodeStats) {
    let level = active_level();
    record(Kernel::DeepcamEncode, level);
    let mut lines = Vec::with_capacity(sample.height);
    // A delta line costs at least a byte per value.
    let mut payload = Vec::with_capacity(sample.height * sample.width);
    let mut stats = EncodeStats::default();
    let mut group = Group::new(sample.width, cfg);
    for first in (0..sample.height).step_by(LANES) {
        let n = (sample.height - first).min(LANES);
        // The spare lanes of a last, short group read its last line and
        // are masked.
        let rows: [&[f32]; LANES] = std::array::from_fn(|l| sample.line(c, first + l.min(n - 1)));
        let active = group.pass1(&rows[..n], cfg);
        if active != 0 {
            lockstep::lockstep(level, &rows, &group.bases, &mut group.codes, active, cfg);
        }
        for (lane, line) in rows[..n].iter().enumerate() {
            let offset = payload.len() as u32;
            let mode = group.write(lane, line, &mut payload, &mut stats);
            lines.push(LineMeta {
                mode,
                offset,
                len: payload.len() as u32 - offset,
            });
        }
    }
    (lines, payload, stats)
}

impl EncodeStats {
    /// Accumulates another run's counters (one channel's into the
    /// sample's).
    pub fn merge(&mut self, other: &EncodeStats) {
        self.constant_lines += other.constant_lines;
        self.raw_lines += other.raw_lines;
        self.delta_lines += other.delta_lines;
        self.segments += other.segments;
        self.literals += other.literals;
        self.zero_codes += other.zero_codes;
    }
}

/// What pass 1 made of a lane's line.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Constant,
    Raw,
    /// A delta line whose segments are `Group::segments[first..end]`.
    Delta {
        first: usize,
        end: usize,
    },
}

/// Working storage of one channel's encode, reused by every group.
struct Group {
    width: usize,
    plans: [Plan; LANES],
    /// Every delta lane's segments, lane after lane.
    segments: Vec<Segment>,
    /// Pass 1's exponent of each delta of the line in hand.
    exps: Vec<i32>,
    /// The base exponent of every value, position-major: lane `l`'s
    /// value `j` at `j * LANES + l`, [`HEAD`] at segment heads.
    bases: Vec<i8>,
    /// Pass 2's code of every value, lane-major: lane `l`'s value `j` at
    /// `l * width + j` (nothing meaningful at heads).
    codes: Vec<u8>,
}

impl Group {
    fn new(width: usize, cfg: &EncoderConfig) -> Self {
        Self {
            width,
            plans: [Plan::Raw; LANES],
            // The most segments pass 1 lets a whole group have.
            segments: Vec::with_capacity(LANES * (width / cfg.min_values_per_segment).max(1)),
            exps: vec![0; width],
            bases: vec![0; width * LANES],
            codes: vec![0; width * LANES],
        }
    }

    /// Pass 1 over a group's lines, one to a lane; returns the mask of
    /// the delta lanes.
    fn pass1(&mut self, rows: &[&[f32]], cfg: &EncoderConfig) -> u16 {
        self.segments.clear();
        let mut active = 0u16;
        for (lane, line) in rows.iter().enumerate() {
            self.plans[lane] = if line.iter().all(|v| v.to_bits() == line[0].to_bits()) {
                Plan::Constant
            } else {
                let first = self.segments.len();
                if self.segment(lane, line, cfg) {
                    active |= 1 << lane;
                    Plan::Delta {
                        first,
                        end: self.segments.len(),
                    }
                } else {
                    self.segments.truncate(first);
                    Plan::Raw
                }
            };
        }
        active
    }

    /// Pass 1 of one line in lane `lane`: appends its segments, split on
    /// true-delta exponent windows, and writes the lane's column of
    /// `bases`. False when the line goes raw — a non-finite value after
    /// the first, or more segments than `cfg` allows (abrupt
    /// transitions) — with what it appended left for the caller to drop.
    fn segment(&mut self, lane: usize, line: &[f32], cfg: &EncoderConfig) -> bool {
        // Every delta's [`exponent_of`], `i32::MAX` for none, first: a
        // loop without branches (zero deltas would make them
        // unpredictable) that vectorises, which leaves the window loop
        // below a min and a max.
        let Group {
            segments,
            exps,
            bases,
            ..
        } = self;
        let exps = &mut exps[..line.len() - 1];
        let mut finite = true;
        for ((&x, &prev), e) in line[1..].iter().zip(line).zip(exps.iter_mut()) {
            finite &= x.is_finite();
            let bits = (x - prev).to_bits();
            let field = ((bits >> 23) & 0xFF) as i32;
            let counted = bits << 1 != 0 && field != 0xFF;
            *e = if counted {
                field.max(1) - 127
            } else {
                i32::MAX
            };
        }
        if !finite {
            // Non-finite data: bail to raw.
            return false;
        }
        let first = segments.len();
        let max_segments = (line.len() / cfg.min_values_per_segment).max(1);
        // `lo > hi` is the window of a segment that has seen no non-zero
        // delta yet.
        let mut start = 0usize;
        let (mut lo, mut hi) = (i32::MAX, i32::MIN);
        for (j, &e) in (1..).zip(exps.iter()) {
            let new_lo = lo.min(e);
            let new_hi = hi.max(if e == i32::MAX { i32::MIN } else { e });
            // Exponents lie in -126..=127, so the window is all a segment
            // must fit; an empty one (`lo > hi`) wraps to 1.
            if new_hi.wrapping_sub(new_lo) <= EXP_WINDOW && j - start < u16::MAX as usize {
                (lo, hi) = (new_lo, new_hi);
            } else {
                // The new segment's head is line[j]; its deltas start at
                // j+1.
                if segments.len() - first == max_segments {
                    return false;
                }
                close_segment(segments, bases, lane, line, start..j, lo);
                start = j;
                (lo, hi) = (i32::MAX, i32::MIN);
            }
        }
        if segments.len() - first == max_segments {
            return false;
        }
        close_segment(segments, bases, lane, line, start..line.len(), lo);
        true
    }

    /// Appends lane `lane`'s `line` to `payload` in the mode pass 1
    /// chose, or raw where its delta form says too many literals or is
    /// no smaller than the raw line.
    fn write(
        &self,
        lane: usize,
        line: &[f32],
        payload: &mut Vec<u8>,
        stats: &mut EncodeStats,
    ) -> LineMode {
        match self.plans[lane] {
            Plan::Constant => {
                payload.extend_from_slice(&line[0].to_le_bytes());
                stats.constant_lines += 1;
                return LineMode::Constant;
            }
            Plan::Delta { first, end } => {
                let codes = &self.codes[lane * self.width..][..self.width];
                if write_delta(line, &self.segments[first..end], codes, payload, stats) {
                    return LineMode::Delta;
                }
            }
            Plan::Raw => {}
        }
        payload.reserve(line.len() * 4);
        for v in line {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        stats.raw_lines += 1;
        LineMode::RawF32
    }
}

/// Appends a delta line — `u16 n_segments | u16 n_literals | segment
/// headers (f32 head, u16 count, i8 base_exp, u8 pad) | codes | literal
/// f32s` — from its segments and its lane's code row, unless it needs
/// more literals than the count holds or is no smaller than raw.
fn write_delta(
    line: &[f32],
    segments: &[Segment],
    codes: &[u8],
    payload: &mut Vec<u8>,
    stats: &mut EncodeStats,
) -> bool {
    // A segment's codes follow its head.
    let code_runs = || {
        segments.iter().scan(0usize, |start, s| {
            let run = *start + 1..*start + s.count as usize;
            *start += s.count as usize;
            Some(run)
        })
    };
    let (mut zero_codes, mut literals) = (0usize, 0usize);
    for run in code_runs() {
        let (zeros, escapes) = codes[run].iter().fold((0u32, 0u32), |(z, e), &c| {
            (
                z + u32::from(c == CODE_ZERO),
                e + u32::from(c == CODE_ESCAPE),
            )
        });
        zero_codes += zeros as usize;
        literals += escapes as usize;
    }
    let len = 4 + segments.len() * 8 + (line.len() - segments.len()) + literals * 4;
    if literals > u16::MAX as usize || len >= line.len() * 4 {
        return false;
    }
    payload.reserve(len);
    payload.extend_from_slice(&(segments.len() as u16).to_le_bytes());
    payload.extend_from_slice(&(literals as u16).to_le_bytes());
    for s in segments {
        payload.extend_from_slice(&s.head.to_le_bytes());
        payload.extend_from_slice(&s.count.to_le_bytes());
        payload.push(s.base_exp as u8);
        payload.push(0);
    }
    for run in code_runs() {
        payload.extend_from_slice(&codes[run]);
    }
    if literals > 0 {
        for run in code_runs() {
            for (x, &c) in line[run.clone()].iter().zip(&codes[run]) {
                if c == CODE_ESCAPE {
                    payload.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }
    stats.delta_lines += 1;
    stats.segments += segments.len();
    stats.literals += literals;
    stats.zero_codes += zero_codes;
    true
}

/// Exponent of |v| as floor(log2), clamped to the i8 range the wire
/// format stores. `None` for zero/non-finite input.
#[inline]
fn exponent_of(v: f32) -> Option<i32> {
    if v == 0.0 || !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 23) & 0xFF) as i32;
    if exp == 0 {
        // Subnormal: exponent below -126; clamp — such deltas will be
        // quantized to zero anyway at any plausible base exponent.
        Some(-126)
    } else {
        Some(exp - 127)
    }
}

/// Appends the segment `line[range]` of lane `lane`, whose smallest
/// delta exponent is `lo` (`i32::MAX`: none was non-zero), and marks its
/// values in the lane's column of `bases`.
fn close_segment(
    segments: &mut Vec<Segment>,
    bases: &mut [i8],
    lane: usize,
    line: &[f32],
    range: std::ops::Range<usize>,
    lo: i32,
) {
    let base_exp = (if lo == i32::MAX { 0 } else { lo }).clamp(-128, 127) as i8;
    debug_assert_ne!(base_exp, HEAD);
    segments.push(Segment {
        head: line[range.start],
        count: range.len() as u16,
        base_exp,
    });
    let mut column = bases[range.start * LANES + lane..range.end * LANES]
        .iter_mut()
        .step_by(LANES);
    if let Some(head) = column.next() {
        *head = HEAD;
    }
    for b in column {
        *b = base_exp;
    }
}

/// Quantizes delta `d` (from reconstructed `prev` toward true `x`)
/// against `base_exp`. Returns the code byte and the reconstructed value
/// the decoder will produce.
#[inline]
pub(super) fn quantize(d: f32, prev: f32, x: f32, base_exp: i8, cfg: &EncoderConfig) -> (u8, f32) {
    let Some(code) = quantize_code(d, base_exp) else {
        return (CODE_ESCAPE, x);
    };
    let recon = prev + code_delta(code, base_exp);
    let denom = x.abs().max(cfg.abs_floor);
    if ((recon - x) / denom).abs() > cfg.escape_rel_tol {
        (CODE_ESCAPE, x)
    } else {
        (code, recon)
    }
}

/// The delta a code of [`quantize_code`] stands for — what
/// [`decode_code`] computes, read off the code's own bits: sign, then
/// `base_exp + e_off` as the exponent field, then the four mantissa
/// bits, which is exact wherever that exponent is a normal one.
#[inline]
pub(super) fn code_delta(code: u8, base_exp: i8) -> f32 {
    if code == CODE_ZERO {
        return 0.0;
    }
    let k = base_exp as i32 + ((code >> 4) & 0x7) as i32;
    if !(-126..=127).contains(&k) {
        // `quantize_code` never yields the escape code, so this is a
        // value: subnormal below the range, infinite above it (which
        // the caller's tolerance check then escapes).
        return decode_code(code, base_exp).unwrap_or(f32::INFINITY);
    }
    let sign = (code as u32 & 0x80) << 24;
    let mantissa = (code as u32 & 0x0F) << 19;
    f32::from_bits(sign | (((k + 127) as u32) << 23) | mantissa)
}

/// Maps a delta to its 8-bit code, or `None` when out of range.
#[inline]
pub(super) fn quantize_code(d: f32, base_exp: i8) -> Option<u8> {
    let Some(mut e) = exponent_of(d) else {
        // A zero delta has its own code; infinities and NaNs escape.
        return (d == 0.0).then_some(CODE_ZERO);
    };
    let bits = d.to_bits();
    let sign = ((bits >> 24) & 0x80) as u8;
    let magnitude = bits & 0x7FFF_FFFF;
    let base = base_exp as i32;
    if e < base {
        // Below representable range: round to zero or the smallest
        // representable magnitude, whichever is nearer. `e >= -126`, so
        // half the smallest magnitude, 2^(base-1), is a normal number
        // and positive floats order as their bits do. The positive
        // (s=0, e_off=0, m=0) pattern collides with the zero code, so it
        // carries the same mantissa nudge as the in-range path below.
        return if magnitude < ((base - 1 + 127) as u32) << 23 {
            Some(CODE_ZERO)
        } else if sign == 0 {
            Some(0x01)
        } else {
            Some(0x80)
        };
    }
    // Mantissa to four bits, ties away from zero. `|d| / 2^e` is
    // `1.mantissa` exactly, so `((|d| / 2^e - 1) * 16).round()` is the
    // 23-bit mantissa rounded at bit 19; a carry out of the four bits
    // moves up one exponent.
    let mut m = if magnitude < 1 << 23 {
        subnormal_mantissa(d.abs())
    } else {
        (((magnitude & 0x007F_FFFF) + (1 << 18)) >> 19) as i32
    };
    if m == 16 {
        e += 1;
        m = 0;
    }
    let e_off = e - base;
    if e_off > EXP_WINDOW {
        return None;
    }
    let mut code = sign | ((e_off as u8) << 4) | (m as u8);
    if code == CODE_ZERO {
        // (s=0, e_off=0, m=0) collides with the zero code; nudge the
        // mantissa (1/16 relative error, within quantization tolerance).
        code = 0x01;
    }
    if code == CODE_ESCAPE {
        // Collides with the escape code; nudge the mantissa down.
        code = 0xFE;
    }
    Some(code)
}

/// Mantissa step of a subnormal magnitude at the base exponent -126,
/// the one place it is in range. There is no implicit leading one, so
/// the float form goes negative and wraps into the code's high bits;
/// the blobs on disk were written that way, and the value is far below
/// any tolerance either way.
#[cold]
fn subnormal_mantissa(a: f32) -> i32 {
    ((a / exp2i(-126) - 1.0) * 16.0).round() as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deepcam::decode;
    use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};

    fn mk_sample(line_data: Vec<Vec<f32>>) -> DeepCamSample {
        let width = line_data[0].len();
        let height = line_data.len();
        DeepCamSample {
            width,
            height,
            channels: 1,
            data: line_data.concat(),
            mask: vec![0; width * height],
        }
    }

    #[test]
    fn constant_line_detected() {
        let s = mk_sample(vec![vec![3.5f32; 64]]);
        let (e, st) = encode(&s, &EncoderConfig::default());
        assert_eq!(st.constant_lines, 1);
        assert_eq!(e.lines[0].mode, LineMode::Constant);
        assert_eq!(e.lines[0].len, 4);
    }

    #[test]
    fn smooth_line_uses_delta_and_compresses() {
        let line: Vec<f32> = (0..256).map(|i| 100.0 + (i as f32 * 0.05).sin()).collect();
        let s = mk_sample(vec![line]);
        let (e, st) = encode(&s, &EncoderConfig::default());
        assert_eq!(st.delta_lines, 1, "{st:?}");
        assert!(e.lines[0].len < 256 * 4 / 2, "len = {}", e.lines[0].len);
    }

    #[test]
    fn abrupt_exponent_swings_fall_back_to_raw() {
        // Delta exponents alternate between 8 and -1 every two values;
        // the 3-bit window (width 7) breaks constantly, so the segment
        // count explodes past the width/min_values_per_segment limit and
        // the line is stored raw.
        let line: Vec<f32> = (0..256)
            .map(|i| match i % 4 {
                0 | 2 => 0.0,
                1 => 256.0,
                _ => 0.5,
            })
            .collect();
        let s = mk_sample(vec![line]);
        let (e, st) = encode(&s, &EncoderConfig::default());
        assert_eq!(st.raw_lines, 1, "{st:?}");
        assert_eq!(e.lines[0].mode, LineMode::RawF32);
    }

    #[test]
    fn alternating_spikes_self_correct_within_tolerance() {
        // An adversarial-looking up/down line stays compressible: the
        // mirrored-reconstruction encoder re-encodes the exact quantized
        // magnitude on the way back down, so drift cancels. Verify the
        // decode honours the escape tolerance everywhere.
        let line: Vec<f32> = (0..256)
            .map(|i| {
                let r = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as f32 / 4.0e9;
                // Magnitudes stay within FP16 range (|x| < 65504): real
                // CAM5 fields do, and the decode emits FP16.
                if i % 2 == 0 {
                    r * 3e4
                } else {
                    r * 1e-3
                }
            })
            .collect();
        let cfg = EncoderConfig::default();
        let s = mk_sample(vec![line.clone()]);
        let (e, _) = encode(&s, &cfg);
        let out = decode(&e, crate::Op::Identity).unwrap();
        for (h, &x) in out.iter().zip(&line) {
            let denom = x.abs().max(cfg.abs_floor);
            let rel = ((h.to_f32() - x) / denom).abs();
            // Escape tolerance plus the final f16 rounding.
            assert!(
                rel <= cfg.escape_rel_tol + 2e-3,
                "x={x} got {h:?} rel={rel}"
            );
        }
    }

    #[test]
    fn quantize_code_boundaries() {
        // Exact power of two at the base exponent: m = 0, e_off = 0.
        assert_eq!(quantize_code(0.25, -2), Some(0x01)); // collision nudge
        assert_eq!(quantize_code(-0.25, -2), Some(0x80));
        // One mantissa step above.
        let d = 0.25 * (1.0 + 1.0 / 16.0);
        assert_eq!(quantize_code(d, -2), Some(0x01));
        // Largest in-window value.
        let big = (1.0 + 15.0 / 16.0) * 2f32.powi(-2 + 7);
        assert_eq!(quantize_code(big, -2), Some(0x7F));
        // Out of window.
        assert_eq!(quantize_code(2f32.powi(8), 0), None);
        // Below window rounds to zero or smallest.
        assert_eq!(quantize_code(2f32.powi(-9), -2), Some(CODE_ZERO));
        assert_eq!(quantize_code(0.24, -2), Some(0x01));
        // Zero delta.
        assert_eq!(quantize_code(0.0, 0), Some(CODE_ZERO));
    }

    #[test]
    fn escape_collision_is_avoided() {
        // s=1, e_off=7, m=15 would be 0xFF: must nudge to 0xFE.
        let d = -(1.0 + 15.0 / 16.0) * 2f32.powi(7);
        assert_eq!(quantize_code(d, 0), Some(0xFE));
    }

    #[test]
    fn exponent_of_basics() {
        assert_eq!(exponent_of(1.0), Some(0));
        assert_eq!(exponent_of(1.5), Some(0));
        assert_eq!(exponent_of(2.0), Some(1));
        assert_eq!(exponent_of(0.5), Some(-1));
        assert_eq!(exponent_of(0.0), None);
        assert_eq!(exponent_of(f32::NAN), None);
        assert_eq!(exponent_of(1e-40), Some(-126));
    }

    #[test]
    fn realistic_sample_mostly_delta_lines() {
        let sample = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let (enc, st) = encode(&sample, &EncoderConfig::default());
        assert!(
            st.delta_lines * 2 > enc.n_lines(),
            "delta {} of {} ({st:?})",
            st.delta_lines,
            enc.n_lines()
        );
        assert!(enc.compression_ratio() > 2.0, "{}", enc.compression_ratio());
        // Sanity: decodable.
        let out = decode(&enc, crate::Op::Identity).unwrap();
        assert_eq!(out.len(), sample.data.len());
    }

    #[test]
    fn encode_stats_add_up() {
        let sample = ClimateGenerator::new(DeepCamConfig::test_small()).generate(1);
        let (enc, st) = encode(&sample, &EncoderConfig::default());
        assert_eq!(
            st.constant_lines + st.raw_lines + st.delta_lines,
            enc.n_lines()
        );
    }
}
