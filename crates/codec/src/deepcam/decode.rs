//! DeepCAM decoder: per-line independent reconstruction, FP32 compute,
//! FP16 emission, optional fused affine preprocessing.
//!
//! One level of parallelism: a caller that wants both cores busy decodes
//! two samples at once (the pipeline's decode pool does), it never forks
//! inside one. A sample is 1–3 ms of work; two thread spawns a sample
//! cost more than the second core returns.
//!
//! Inside one thread, a sample's lines are decoded sixteen at a time at
//! the avx2 tier (`decode_lockstep.rs`), one line to a lane, in two
//! passes:
//!
//! 1. **Pass 1**, line by line, off any chain: the checks of
//!    [`decode_line_into`]; each delta segment's codes to their deltas
//!    ([`decode_lockstep::delta_line`]), its escapes to their literals;
//!    and everything that is a value rather than a delta — heads,
//!    literals, segments outside the `CODE_BITS` window (by
//!    [`decode_code`]'s float path), constant and raw lines — marked as a
//!    chain reset.
//! 2. **Pass 2**, the sixteen prefix chains stepped together
//!    ([`decode_lockstep::prefix`]); then [`Op::narrow_into`] finishes
//!    each line.
//!
//! At every other tier (a host without the x86-64 tiers runs the scalar
//! one), and for a sample of fewer than sixteen lines, the lines go one
//! at a time through
//! [`reconstruct_delta_line`], the canonical form. Every way emits the
//! same bits and reports the first failing line's error.

use super::decode_lockstep::{self, Tier, OVERRUN};
use super::lockstep::LANES;
use super::{decode_code, DeepCamView, EncodedDeepCam, LineMode, CODE_ESCAPE, CODE_ZERO};
use crate::{CodecError, Op};
use sciml_half::F16;
use sciml_simd::{record, Kernel, SimdLevel};
use std::cell::Cell;
use std::slice::ChunksExact;

/// A decode thread's FP32 working storage, reused by every sample:
/// reconstruction runs in FP32, then [`Op::narrow_into`] applies the
/// fused operator and emits FP16 in bulk — nothing allocated per line.
/// Nothing in it is zeroed per sample: whatever reaches the output was
/// written first, and a group's resets are cleared per group.
#[derive(Default)]
struct Scratch {
    /// One line's values, or a group's sixteen rows.
    rows: Vec<[f32; 4]>,
    /// A group's chain resets, one lane bitmask a position.
    resets: Vec<u32>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            rows: Vec::new(),
            resets: Vec::new(),
        })
    };
}

/// Runs `f` with the thread's [`Scratch`].
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|slot| {
        let mut scratch = slot.take();
        let r = f(&mut scratch);
        slot.set(scratch);
        r
    })
}

/// Runs `f` with an f32 line of `width` values, which `f` must overwrite
/// whole before reading.
fn with_line<R>(width: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_scratch(|s| {
        s.rows.resize(width.div_ceil(4), [0.0; 4]);
        f(&mut s.rows.as_flattened_mut()[..width])
    })
}

/// Decodes a full sample into channel-major FP16.
pub fn decode(enc: &EncodedDeepCam, op: Op) -> Result<Vec<F16>, CodecError> {
    let mut out = vec![F16::ZERO; enc.n_values()];
    decode_into(enc, op, &mut out)?;
    Ok(out)
}

/// [`decode_view_into`] over an owned sample.
pub fn decode_into(enc: &EncodedDeepCam, op: Op, out: &mut [F16]) -> Result<(), CodecError> {
    decode_view_into(&enc.view(), op, out)
}

/// Decodes a full sample into a caller-provided slice, which must be
/// exactly [`DeepCamView::n_values`] long (a typed error otherwise,
/// never a panic). Every slot is written; callers may pass recycled
/// buffers.
pub fn decode_view_into(view: &DeepCamView<'_>, op: Op, out: &mut [F16]) -> Result<(), CodecError> {
    let width = view.width as usize;
    if out.len() != view.n_values() {
        return Err(CodecError::Inconsistent("output slice length mismatch"));
    }
    // No parser lets one through, but the fields of an owned sample
    // are public.
    if width == 0 {
        return Err(CodecError::Corrupt("zero-width lines"));
    }
    match decode_lockstep::tier() {
        // A group's scratch is sixteen lines, which must not outgrow the
        // sample: a width is bounded only through the element count.
        Some(tier) if view.n_lines() >= LANES => {
            record(Kernel::DeepcamDecode, tier.level());
            decode_groups(view, op, out, tier)
        }
        _ => {
            record(Kernel::DeepcamDecode, SimdLevel::Scalar);
            decode_lines(view, op, out)
        }
    }
}

/// Every tier but avx2, and a sample of fewer than sixteen lines:
/// `out`'s lines one at a time.
pub(super) fn decode_lines(
    view: &DeepCamView<'_>,
    op: Op,
    out: &mut [F16],
) -> Result<(), CodecError> {
    for (idx, chunk) in out.chunks_mut(view.width as usize).enumerate() {
        decode_line_into(view, idx, op, chunk)?;
    }
    Ok(())
}

/// The avx2 tier: `out`'s lines sixteen at a time, in the two passes
/// the module describes. Takes what [`decode_view_into`] checked: `out`
/// is the sample's length, and the width is not zero.
pub(super) fn decode_groups(
    view: &DeepCamView<'_>,
    op: Op,
    out: &mut [F16],
    tier: Tier,
) -> Result<(), CodecError> {
    let width = view.width as usize;
    // In blocks of four values: a row holds its line and a pass-1 step's
    // overrun past the line's last code.
    let stride = (width + OVERRUN).div_ceil(4);
    with_scratch(|s| {
        s.rows.resize(LANES * stride, [0.0; 4]);
        // Pass 2 steps four positions at a time.
        s.resets.resize(width.next_multiple_of(4), 0);
        for (group, lines) in out.chunks_mut(LANES * width).enumerate() {
            s.resets.fill(0);
            let rows = s.rows.chunks_exact_mut(stride);
            for (lane, row) in rows.take(lines.len() / width).enumerate() {
                let idx = group * LANES + lane;
                pass1(view, idx, tier, row.as_flattened_mut(), lane, &mut s.resets)?;
            }
            decode_lockstep::prefix(tier, &mut s.rows, stride, &s.resets);
            for (row, dst) in s
                .rows
                .chunks_exact_mut(stride)
                .zip(lines.chunks_exact_mut(width))
            {
                op.narrow_into(&mut row.as_flattened_mut()[..width], dst);
            }
        }
        Ok(())
    })
}

/// Pass 1 of line `idx` in lane `lane` of a group: its values and deltas
/// into `row` (its width, then [`OVERRUN`] slots), its chain resets into
/// bit `lane` of `resets`. Errors as [`decode_line_into`]'s.
fn pass1(
    view: &DeepCamView<'_>,
    idx: usize,
    tier: Tier,
    row: &mut [f32],
    lane: usize,
    resets: &mut [u32],
) -> Result<(), CodecError> {
    let width = view.width as usize;
    match Line::read(view, idx)? {
        Line::Constant(v) => row[..width].fill(v),
        Line::Raw(payload) => raw_values(payload, &mut row[..width]),
        Line::Delta(payload) => {
            return decode_lockstep::delta_line(tier, payload, row, width, lane, resets)
        }
    }
    for word in &mut resets[..width] {
        *word |= 1 << lane;
    }
    Ok(())
}

/// Line `idx` of a sample by its mode, the payload's size checked where
/// the mode fixes it: the first step of both ways to decode a line.
enum Line<'a> {
    Constant(f32),
    /// The line's width in little-endian f32s.
    Raw(&'a [u8]),
    Delta(&'a [u8]),
}

impl<'a> Line<'a> {
    fn read(view: &DeepCamView<'a>, idx: usize) -> Result<Self, CodecError> {
        let (mode, payload) = view.line(idx)?;
        match mode {
            LineMode::Constant if payload.len() != 4 => {
                Err(CodecError::Corrupt("constant line payload size"))
            }
            LineMode::Constant => Ok(Line::Constant(crate::wire::le_f32(payload))),
            LineMode::RawF32 if payload.len() != view.width as usize * 4 => {
                Err(CodecError::Corrupt("raw line payload size"))
            }
            LineMode::RawF32 => Ok(Line::Raw(payload)),
            LineMode::Delta => Ok(Line::Delta(payload)),
        }
    }
}

/// A raw line's payload into `vals`.
fn raw_values(payload: &[u8], vals: &mut [f32]) {
    for (v, chunk) in vals.iter_mut().zip(payload.chunks_exact(4)) {
        *v = crate::wire::le_f32(chunk);
    }
}

/// [`pass1`] of a delta line of `width` values: the checks and the walk
/// of [`reconstruct_delta_line`], with the chain left to pass 2.
/// `deltas` is a tier's code→delta step; each tier's
/// [`decode_lockstep::delta_line`] compiles this walk around its own.
#[inline(always)]
pub(super) fn delta_pass1(
    payload: &[u8],
    row: &mut [f32],
    width: usize,
    lane: usize,
    resets: &mut [u32],
    mut deltas: impl FnMut(&[u8], usize, i8, &mut [f32]) -> bool,
) -> Result<(), CodecError> {
    let line = DeltaLine::parse(payload, width)?;
    let mut codes = line.codes;
    let mut literals = line.literals.chunks_exact(4);
    let mut at = 0usize;
    for h in line.headers.chunks_exact(8) {
        let head = crate::wire::le_f32(&h[0..4]);
        let count = crate::wire::le_u16(&h[4..6]) as usize;
        let base_exp = h[6] as i8;
        let (seg_codes, n) = (&codes[..count - 1], count - 1);
        row[at] = head;
        resets[at] |= 1 << lane;
        let slots = at + 1..at + count;
        if (-126..=120).contains(&base_exp) {
            let out = &mut row[at + 1..][..n.next_multiple_of(OVERRUN)];
            if deltas(codes, n, base_exp, out) {
                for (j, &code) in slots.zip(seg_codes) {
                    if code == CODE_ESCAPE {
                        row[j] = next_literal(&mut literals)?;
                        resets[j] |= 1 << lane;
                    }
                }
            }
        } else {
            // The chain runs here, and pass 2 copies its values.
            let seg = &mut row[slots.clone()];
            segment(head, base_exp, seg_codes, &mut literals, seg)?;
            for word in &mut resets[slots] {
                *word |= 1 << lane;
            }
        }
        codes = &codes[n..];
        at += count;
    }
    if literals.next().is_some() {
        return Err(CodecError::Inconsistent("unused literals"));
    }
    Ok(())
}

/// Decodes line `idx` into `dst` (length = width). This is the unit of
/// independence the per-line directory exists for; the GPU simulator
/// calls it one warp-task at a time.
pub fn decode_line_into(
    view: &DeepCamView<'_>,
    idx: usize,
    op: Op,
    dst: &mut [F16],
) -> Result<(), CodecError> {
    let width = view.width as usize;
    if dst.len() != width {
        return Err(CodecError::Inconsistent("destination width mismatch"));
    }
    match Line::read(view, idx)? {
        Line::Constant(v) => {
            let h = F16::from_f32(op.apply(v));
            dst.fill(h);
            Ok(())
        }
        Line::Raw(payload) => {
            with_line(width, |vals| {
                raw_values(payload, vals);
                op.narrow_into(vals, dst);
            });
            Ok(())
        }
        Line::Delta(payload) => with_line(width, |vals| {
            reconstruct_delta_line(payload, vals)?;
            op.narrow_into(vals, dst);
            Ok(())
        }),
    }
}

/// Bit pattern of every code's delta at base exponent 0:
/// `sign << 31 | (e_off + 127) << 23 | m << 19`. The mantissa `m/16`
/// is the top four mantissa bits and a scale by `2^e` only moves the
/// exponent field, so at base exponent `e` the delta's bits are this
/// plus `e << 23` — exactly [`decode_code`]'s value while the
/// segment's window `[e, e + 7]` stays inside the normal range.
/// [`CODE_ZERO`] and [`CODE_ESCAPE`] hold 0: the first *is* `+0.0`
/// (and takes no bias), the second is never read as a delta.
const CODE_BITS: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut code = CODE_ZERO as usize + 1;
    while code < CODE_ESCAPE as usize {
        let c = code as u32;
        t[code] = (c & 0x80) << 24 | (((c >> 4) & 7) + 127) << 23 | (c & 0x0F) << 19;
        code += 1;
    }
    t
};

/// A delta line's payload — `u16 n_segments | u16 n_literals | segment
/// headers (f32 head, u16 count, i8 base_exp, u8 pad) | codes | literal
/// f32s` — with its lengths checked against the line's width.
struct DeltaLine<'a> {
    headers: &'a [u8],
    /// The codes, then the rest of the payload: a vector step may read
    /// past a segment's codes.
    codes: &'a [u8],
    literals: &'a [u8],
}

impl<'a> DeltaLine<'a> {
    /// Checks, in the order their errors are reported: the header, room
    /// for the segment headers, no empty segment, the segments' counts
    /// adding up to `width`, then the payload's length.
    fn parse(payload: &'a [u8], width: usize) -> Result<Self, CodecError> {
        if payload.len() < 4 {
            return Err(CodecError::Corrupt("delta line header"));
        }
        let n_segments = crate::wire::le_u16(&payload[0..2]) as usize;
        let n_literals = crate::wire::le_u16(&payload[2..4]) as usize;
        let headers_end = 4 + n_segments * 8;
        if payload.len() < headers_end {
            return Err(CodecError::Corrupt("segment headers truncated"));
        }
        let headers = &payload[4..headers_end];
        // Headers are re-read by the decode walk rather than staged in a
        // scratch vector — this runs once per line of every sample, so it
        // must not allocate.
        let mut total = 0usize;
        for h in headers.chunks_exact(8) {
            let count = crate::wire::le_u16(&h[4..6]) as usize;
            if count == 0 {
                return Err(CodecError::Corrupt("empty segment"));
            }
            total += count;
        }
        if total != width {
            return Err(CodecError::Inconsistent("segment counts != width"));
        }
        let codes_end = headers_end + width - n_segments;
        if payload.len() != codes_end + n_literals * 4 {
            return Err(CodecError::Corrupt("delta line payload size"));
        }
        Ok(Self {
            headers,
            codes: &payload[headers_end..],
            literals: &payload[codes_end..],
        })
    }
}

/// Reconstructs a delta line in FP32 into `vals` (one slot a value of
/// the line), walking its payload: segment headers, then codes, then
/// the literal side array. The per-line loop, and the canonical form of
/// the lockstep one.
///
/// The prefix sum is a chain of dependent FP adds and nothing in it
/// can be skipped, so it is the floor (two thirds of this function's
/// time); a code becomes its delta inside the same loop ([`segment`]'s)
/// by one table load and one integer add, which overlap with the adds as
/// long as they stay off the chain and free of data-dependent branches
/// (zero codes are common and unordered: the bias is masked off for
/// them, not branched around).
pub(super) fn reconstruct_delta_line(payload: &[u8], vals: &mut [f32]) -> Result<(), CodecError> {
    let line = DeltaLine::parse(payload, vals.len())?;
    let mut codes = line.codes;
    let mut literals = line.literals.chunks_exact(4);
    let headers = line.headers;

    let mut rest = vals;
    for h in headers.chunks_exact(8) {
        let head = crate::wire::le_f32(&h[0..4]);
        let count = crate::wire::le_u16(&h[4..6]) as usize;
        let base_exp = h[6] as i8;
        let (seg_codes, later_codes) = codes.split_at(count - 1);
        let (seg, later) = rest.split_at_mut(count);
        codes = later_codes;
        rest = later;
        seg[0] = head;
        segment(head, base_exp, seg_codes, &mut literals, &mut seg[1..])?;
    }
    if literals.next().is_some() {
        return Err(CodecError::Inconsistent("unused literals"));
    }
    Ok(())
}

/// The value of a delta line's next escape.
#[inline(always)]
fn next_literal(literals: &mut ChunksExact<'_, u8>) -> Result<f32, CodecError> {
    literals
        .next()
        .map(crate::wire::le_f32)
        .ok_or(CodecError::Corrupt("literal index out of range"))
}

/// A segment's values after `head` into `slots`, one a code: the code's
/// delta added to the value before it, an escape replaced by its literal.
/// The per-line loop runs every segment here, pass 1 only those outside
/// the `CODE_BITS` window.
#[inline(always)]
fn segment(
    head: f32,
    base_exp: i8,
    codes: &[u8],
    literals: &mut ChunksExact<'_, u8>,
    slots: &mut [f32],
) -> Result<(), CodecError> {
    // Outside this window the bit identity does not hold (subnormal or
    // overflowing deltas: never encoded for real data, reachable by a
    // hostile payload).
    let in_window = (-126..=120).contains(&base_exp);
    let bias = ((base_exp as i32) << 23) as u32;
    let mut prev = head;
    for (slot, &code) in slots.iter_mut().zip(codes) {
        let v = if code == CODE_ESCAPE {
            next_literal(literals)?
        } else if in_window {
            // A zero code still adds: `-0.0 + 0.0` is `+0.0`.
            let not_zero = ((code != CODE_ZERO) as u32).wrapping_neg();
            let bits = CODE_BITS[code as usize].wrapping_add(bias & not_zero);
            prev + f32::from_bits(bits)
        } else {
            prev + decode_code(code, base_exp).unwrap_or(0.0)
        };
        *slot = v;
        prev = v;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deepcam::encode::{encode, EncoderConfig};
    use crate::ErrorStats;
    use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig, DeepCamSample};
    use sciml_half::slice::widen;

    fn roundtrip_sample() -> (DeepCamSample, EncodedDeepCam) {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let (e, _) = encode(&s, &EncoderConfig::default());
        (s, e)
    }

    #[test]
    fn reconstruction_error_is_bounded_as_paper_reports() {
        let (s, e) = roundtrip_sample();
        let out = decode(&e, Op::Identity).unwrap();
        let wide = widen(&out);
        let mut stats = ErrorStats::new(1.0);
        stats.record_slices(&wide, &s.data);
        // The paper reports ≈3 % of values above 10 % relative error;
        // our tolerance-tuned encoder must stay in single digits.
        assert!(
            stats.frac_above_10pct() < 0.10,
            "frac = {}",
            stats.frac_above_10pct()
        );
        // And typical values must be tight (escape tolerance 2 %).
        let in_tolerance: u64 = stats.buckets[..4].iter().sum();
        assert!(
            in_tolerance as f64 / stats.total as f64 > 0.90,
            "{:?}",
            stats.buckets
        );
    }

    #[test]
    fn large_errors_concentrate_near_zero() {
        let (s, e) = roundtrip_sample();
        let out = widen(&decode(&e, Op::Identity).unwrap());
        let mut stats = ErrorStats::new(1.0);
        stats.record_slices(&out, &s.data);
        if stats.large_error_total > 0 {
            assert!(
                stats.small_value_share() > 0.5,
                "share = {}",
                stats.small_value_share()
            );
        }
    }

    #[test]
    fn wire_roundtrip_decodes_identically() {
        let (_, e) = roundtrip_sample();
        let e2 = EncodedDeepCam::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(
            decode(&e, Op::Identity).unwrap(),
            decode(&e2, Op::Identity).unwrap()
        );
    }

    #[test]
    fn fused_normalize_exact_on_representable_values() {
        // Values, deltas, and normalized results all exactly
        // representable: the fused path must equal post-normalization
        // bit for bit (pure commutation, no rounding in the way).
        let width = 64;
        let line: Vec<f32> = (0..width).map(|i| 2.0 + i as f32 * 0.25).collect();
        let s = DeepCamSample {
            width,
            height: 1,
            channels: 1,
            data: line,
            mask: vec![0; width],
        };
        let (e, _) = encode(&s, &EncoderConfig::default());
        let op = Op::Normalize {
            scale: 0.5,
            offset: 2.0,
        };
        let fused = decode(&e, op).unwrap();
        let plain = decode(&e, Op::Identity).unwrap();
        for (f, p) in fused.iter().zip(&plain) {
            assert_eq!(*f, F16::from_f32(op.apply(p.to_f32())));
        }
    }

    #[test]
    fn fused_normalize_is_at_least_as_accurate_as_post_normalize() {
        // On real data the fused path normalizes the f32 reconstruction
        // before the single f16 rounding; normalizing an already-rounded
        // f16 can only add error. Check the fused result tracks the
        // true normalized reference at least as tightly on aggregate.
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(2);
        let (e, _) = encode(&s, &EncoderConfig::default());
        let op = Op::Normalize {
            scale: 0.05,
            offset: 270.0,
        };
        let fused = decode(&e, op).unwrap();
        let plain = decode(&e, Op::Identity).unwrap();
        let mut fused_err = 0f64;
        let mut post_err = 0f64;
        for ((f, p), &x) in fused.iter().zip(&plain).zip(&s.data) {
            let reference = op.apply(x);
            let post = F16::from_f32(op.apply(p.to_f32()));
            fused_err += (f.to_f32() - reference).abs() as f64;
            post_err += (post.to_f32() - reference).abs() as f64;
        }
        assert!(
            fused_err <= post_err * 1.001,
            "fused {fused_err} vs post {post_err}"
        );
    }

    #[test]
    fn corrupt_payload_is_rejected_not_panicking() {
        let (_, e) = roundtrip_sample();
        let mut bytes = e.to_bytes();
        // Flip bytes throughout; decode must never panic.
        for i in (0..bytes.len()).step_by(97) {
            bytes[i] ^= 0x5A;
            if let Ok(parsed) = EncodedDeepCam::from_bytes(&bytes) {
                let _ = decode(&parsed, Op::Identity);
            }
            bytes[i] ^= 0x5A;
        }
    }

    #[test]
    fn empty_mask_is_preserved_and_roundtrips() {
        let (s, e) = roundtrip_sample();
        assert_eq!(e.mask, s.mask);
    }

    #[test]
    fn decode_into_matches_decode_and_checks_length() {
        let (_, e) = roundtrip_sample();
        let want = decode(&e, Op::Identity).unwrap();
        // Dirty recycled buffer: every slot must be rewritten.
        let mut out = vec![F16::ONE; want.len()];
        decode_into(&e, Op::Identity, &mut out).unwrap();
        assert_eq!(out, want);
        for bad in [want.len() - 1, want.len() + 1, 0] {
            let mut wrong = vec![F16::ZERO; bad];
            assert!(matches!(
                decode_into(&e, Op::Identity, &mut wrong),
                Err(CodecError::Inconsistent(_))
            ));
        }
    }

    #[test]
    fn decode_line_into_checks_width() {
        let (_, e) = roundtrip_sample();
        let mut short = vec![F16::ZERO; 3];
        assert!(decode_line_into(&e.view(), 0, Op::Identity, &mut short).is_err());
    }
}
