//! DeepCAM decoder: per-line independent reconstruction, FP32 compute,
//! FP16 emission, optional fused affine preprocessing.
//!
//! One implementation, over a [`DeepCamView`], and one level of
//! parallelism: a caller that wants both cores busy decodes two samples
//! at once (the pipeline's decode pool does), it never forks inside
//! one. A sample is 2–3 ms of work; two thread spawns a sample cost
//! more than the second core returns.

use super::{decode_code, DeepCamView, EncodedDeepCam, LineMode, CODE_ESCAPE, CODE_ZERO};
use crate::{CodecError, Op};
use sciml_half::F16;
use std::cell::Cell;

thread_local! {
    /// Per-thread f32 line buffer: reconstruction runs in FP32, then
    /// [`Op::narrow_into`] applies the fused operator and emits FP16 in
    /// bulk — no per-line allocation.
    static LINE_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with an f32 scratch slice of `width` values, which `f`
/// must overwrite whole before reading: it holds the last line's.
fn with_scratch<R>(width: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    LINE_SCRATCH.with(|slot| {
        let mut buf = slot.take();
        buf.resize(width, 0.0);
        let r = f(&mut buf);
        slot.set(buf);
        r
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
    for (idx, chunk) in out.chunks_mut(width).enumerate() {
        decode_line_into(view, idx, op, chunk)?;
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
    let (mode, payload) = view.line(idx)?;
    match mode {
        LineMode::Constant => {
            if payload.len() != 4 {
                return Err(CodecError::Corrupt("constant line payload size"));
            }
            let v = crate::wire::le_f32(payload);
            let h = F16::from_f32(op.apply(v));
            dst.fill(h);
            Ok(())
        }
        LineMode::RawF32 => {
            if payload.len() != width * 4 {
                return Err(CodecError::Corrupt("raw line payload size"));
            }
            with_scratch(width, |vals| {
                for (v, chunk) in vals.iter_mut().zip(payload.chunks_exact(4)) {
                    *v = crate::wire::le_f32(chunk);
                }
                op.narrow_into(vals, dst);
            });
            Ok(())
        }
        LineMode::Delta => with_scratch(width, |vals| {
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

/// Reconstructs a delta line in FP32 into `vals` (one slot a value of
/// the line), walking its payload: segment headers, then codes, then
/// the literal side array. The one loop that decodes delta lines.
///
/// The prefix sum is a chain of dependent FP adds and nothing in it
/// can be skipped, so it is the floor (two thirds of this function's
/// time); a code becomes its delta inside the same loop by one table
/// load and one integer add, which overlap with the adds as long as
/// they stay off the chain and free of data-dependent branches (zero
/// codes are common and unordered: the bias is masked off for them,
/// not branched around).
pub(super) fn reconstruct_delta_line(payload: &[u8], vals: &mut [f32]) -> Result<(), CodecError> {
    let width = vals.len();
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

    // Validation pass over the headers: total values covered must equal
    // the width (codes = width - n_segments). Headers are re-read in the
    // decode pass below rather than staged in a scratch vector — this
    // runs once per line of every sample, so it must not allocate.
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
    let n_codes = width - n_segments;
    let codes_end = headers_end + n_codes;
    let literals_end = codes_end + n_literals * 4;
    if payload.len() != literals_end {
        return Err(CodecError::Corrupt("delta line payload size"));
    }
    let mut codes = &payload[headers_end..codes_end];
    let mut literals = payload[codes_end..literals_end].chunks_exact(4);

    let mut rest = vals;
    for h in headers.chunks_exact(8) {
        let head = crate::wire::le_f32(&h[0..4]);
        let count = crate::wire::le_u16(&h[4..6]) as usize;
        let base_exp = h[6] as i8;
        let (seg_codes, later_codes) = codes.split_at(count - 1);
        let (seg, later) = rest.split_at_mut(count);
        codes = later_codes;
        rest = later;
        // Outside this window the bit identity does not hold
        // (subnormal or overflowing deltas: never encoded for real
        // data, reachable by a hostile payload).
        let in_window = (-126..=120).contains(&base_exp);
        let bias = ((base_exp as i32) << 23) as u32;
        let mut prev = head;
        seg[0] = head;
        for (slot, &code) in seg[1..].iter_mut().zip(seg_codes) {
            let v = if code == CODE_ESCAPE {
                match literals.next() {
                    Some(l) => crate::wire::le_f32(l),
                    None => return Err(CodecError::Corrupt("literal index out of range")),
                }
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
    }
    if literals.next().is_some() {
        return Err(CodecError::Inconsistent("unused literals"));
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
