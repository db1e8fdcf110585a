//! The DeepCAM encoder as it stood before it was made allocation-free,
//! frozen as the oracle the differential tests compare against: one
//! `Vec` per line for boundaries, segments, codes and literals, the
//! float-division mantissa quantiser, `decode_code` called per value.
//!
//! Test-only (`#[cfg(test)]` in `mod.rs`): nothing outside the tests may
//! call into it. Do not "fix" or speed up anything here — a change to
//! this file changes what "the same bytes" means.

use super::{
    decode_code, exp2i, EncodeStats, EncodedDeepCam, EncoderConfig, LineMeta, LineMode, Segment,
    CODE_ESCAPE, CODE_ZERO, EXP_WINDOW,
};
use sciml_data::deepcam::DeepCamSample;

/// Encodes a sample, returning the encoded form and statistics.
pub(crate) fn encode(sample: &DeepCamSample, cfg: &EncoderConfig) -> (EncodedDeepCam, EncodeStats) {
    let width = sample.width;
    let mut lines = Vec::with_capacity(sample.channels * sample.height);
    let mut payload = Vec::new();
    let mut stats = EncodeStats::default();

    for c in 0..sample.channels {
        for y in 0..sample.height {
            let line = sample.line(c, y);
            let offset = payload.len() as u32;
            let mode = encode_line(line, cfg, &mut payload, &mut stats);
            lines.push(LineMeta {
                mode,
                offset,
                len: payload.len() as u32 - offset,
            });
        }
    }

    (
        EncodedDeepCam {
            width: width as u32,
            height: sample.height as u32,
            channels: sample.channels as u32,
            lines,
            payload,
            mask: sample.mask.clone(),
        },
        stats,
    )
}

/// Encodes one line, appending its payload and returning the chosen mode.
fn encode_line(
    line: &[f32],
    cfg: &EncoderConfig,
    payload: &mut Vec<u8>,
    stats: &mut EncodeStats,
) -> LineMode {
    debug_assert!(!line.is_empty());
    // Constant line: bitwise-identical values.
    if line.iter().all(|v| v.to_bits() == line[0].to_bits()) {
        payload.extend_from_slice(&line[0].to_le_bytes());
        stats.constant_lines += 1;
        return LineMode::Constant;
    }

    match try_delta_encode(line, cfg) {
        Some(enc) if enc.encoded_len() < line.len() * 4 => {
            stats.delta_lines += 1;
            stats.segments += enc.segments.len();
            stats.literals += enc.literals.len();
            stats.zero_codes += enc.codes.iter().filter(|&&c| c == CODE_ZERO).count();
            enc.write(payload);
            LineMode::Delta
        }
        _ => {
            for v in line {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            stats.raw_lines += 1;
            LineMode::RawF32
        }
    }
}

/// In-memory delta encoding of one line before serialization.
struct DeltaLine {
    segments: Vec<Segment>,
    /// One code per non-head value, segment-concatenated.
    codes: Vec<u8>,
    literals: Vec<f32>,
}

impl DeltaLine {
    fn encoded_len(&self) -> usize {
        4 + self.segments.len() * 8 + self.codes.len() + self.literals.len() * 4
    }

    /// Wire layout: `u16 n_segments | u16 n_literals | segment headers
    /// (f32 head, u16 count, i8 base_exp, u8 pad) | codes | literal f32s`.
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.segments.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.literals.len() as u16).to_le_bytes());
        for s in &self.segments {
            out.extend_from_slice(&s.head.to_le_bytes());
            out.extend_from_slice(&s.count.to_le_bytes());
            out.push(s.base_exp as u8);
            out.push(0);
        }
        out.extend_from_slice(&self.codes);
        for l in &self.literals {
            out.extend_from_slice(&l.to_le_bytes());
        }
    }
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

/// Two-pass delta encoding. Pass 1 segments the line on true-delta
/// exponent windows; pass 2 quantizes against the *reconstructed*
/// previous value (mirroring the decoder) and escapes when drift or
/// range force it. Returns `None` if the line produces too many
/// segments (abrupt-transition fallback).
fn try_delta_encode(line: &[f32], cfg: &EncoderConfig) -> Option<DeltaLine> {
    // Pass 1: segmentation on true deltas.
    let mut boundaries: Vec<(usize, usize, i8)> = Vec::new(); // (start, count, base_exp)
    let mut start = 0usize;
    let mut min_e: Option<i32> = None;
    let mut max_e: Option<i32> = None;
    for j in 1..line.len() {
        if !line[j].is_finite() {
            // Non-finite data: bail to raw.
            return None;
        }
        let d = line[j] - line[j - 1];
        let e = exponent_of(d);
        let (new_min, new_max) = match e {
            None => (min_e, max_e),
            Some(e) => (
                Some(min_e.map_or(e, |m| m.min(e))),
                Some(max_e.map_or(e, |m| m.max(e))),
            ),
        };
        let fits = match (new_min, new_max) {
            (Some(lo), Some(hi)) => hi - lo <= EXP_WINDOW && (-128..=127).contains(&lo),
            _ => true,
        };
        let count = j - start + 1;
        if fits && count <= u16::MAX as usize {
            min_e = new_min;
            max_e = new_max;
        } else {
            boundaries.push((start, j - start, min_e.unwrap_or(0).clamp(-128, 127) as i8));
            start = j;
            min_e = None;
            max_e = None;
            // The new segment's head is line[j]; its deltas start at j+1.
        }
    }
    boundaries.push((
        start,
        line.len() - start,
        min_e.unwrap_or(0).clamp(-128, 127) as i8,
    ));

    let max_segments = (line.len() / cfg.min_values_per_segment).max(1);
    if boundaries.len() > max_segments {
        return None;
    }

    // Pass 2: quantize with reconstruction mirror.
    let mut segments = Vec::with_capacity(boundaries.len());
    let mut codes = Vec::with_capacity(line.len());
    let mut literals = Vec::new();
    for &(s, count, base_exp) in &boundaries {
        segments.push(Segment {
            head: line[s],
            count: count as u16,
            base_exp,
        });
        let mut prev = line[s];
        for &x in &line[s + 1..s + count] {
            let d = x - prev;
            let (code, recon) = quantize(d, prev, x, base_exp, cfg);
            if code == CODE_ESCAPE {
                literals.push(x);
                if literals.len() > u16::MAX as usize {
                    return None;
                }
            }
            codes.push(code);
            prev = recon;
        }
    }
    Some(DeltaLine {
        segments,
        codes,
        literals,
    })
}

/// Quantizes delta `d` (from reconstructed `prev` toward true `x`)
/// against `base_exp`. Returns the code byte and the reconstructed value
/// the decoder will produce.
fn quantize(d: f32, prev: f32, x: f32, base_exp: i8, cfg: &EncoderConfig) -> (u8, f32) {
    let code = quantize_code(d, base_exp);
    // `quantize_code` never yields the escape code, so `decode_code`
    // always succeeds; degrade to a literal escape instead of panicking
    // if that invariant ever breaks.
    match code.and_then(|c| decode_code(c, base_exp).map(|d| (c, d))) {
        Some((c, delta_hat)) => {
            let recon = prev + delta_hat;
            let denom = x.abs().max(cfg.abs_floor);
            if ((recon - x) / denom).abs() > cfg.escape_rel_tol {
                (CODE_ESCAPE, x)
            } else {
                (c, recon)
            }
        }
        None => (CODE_ESCAPE, x),
    }
}

/// Maps a delta to its 8-bit code, or `None` when out of range.
pub(super) fn quantize_code(d: f32, base_exp: i8) -> Option<u8> {
    if d == 0.0 {
        return Some(CODE_ZERO);
    }
    if !d.is_finite() {
        return None;
    }
    let sign: u8 = if d < 0.0 { 0x80 } else { 0 };
    let a = d.abs();
    let base = base_exp as i32;
    let mut e = exponent_of(a)?;
    if e < base {
        // Below representable range: round to zero or the smallest
        // representable magnitude, whichever is nearer. The positive
        // (s=0, e_off=0, m=0) pattern collides with the zero code, so it
        // carries the same mantissa nudge as the in-range path below.
        return if a < exp2i(base) * 0.5 {
            Some(CODE_ZERO)
        } else if sign == 0 {
            Some(0x01)
        } else {
            Some(0x80)
        };
    }
    let mut m = ((a / exp2i(e) - 1.0) * 16.0).round() as i32;
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
