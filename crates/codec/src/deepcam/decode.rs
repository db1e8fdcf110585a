//! DeepCAM decoder: per-line independent reconstruction, FP32 compute,
//! FP16 emission, optional fused affine preprocessing.

use super::simd::decode_codes_into;
use super::{EncodedDeepCam, LineMode, CODE_ESCAPE};
use crate::{CodecError, Op};
use rayon::prelude::*;
use sciml_half::F16;
use sciml_simd::{arch_level, record, Kernel};
use std::cell::Cell;

thread_local! {
    /// Per-thread f32 line buffer: reconstruction runs in FP32, then
    /// [`Op::narrow_into`] applies the fused operator and emits FP16 in
    /// bulk — no per-line allocation.
    static LINE_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with a zeroed f32 scratch slice of `width` values.
fn with_scratch<R>(width: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    LINE_SCRATCH.with(|slot| {
        let mut buf = slot.take();
        buf.clear();
        buf.resize(width, 0.0);
        let r = f(&mut buf);
        slot.set(buf);
        r
    })
}

/// Decodes a full sample sequentially into channel-major FP16.
pub fn decode(enc: &EncodedDeepCam, op: Op) -> Result<Vec<F16>, CodecError> {
    let mut out = vec![F16::ZERO; enc.n_values()];
    decode_into(enc, op, &mut out)?;
    Ok(out)
}

/// [`decode`] into a caller-provided slice, which must be exactly
/// [`EncodedDeepCam::n_values`] long (a typed error otherwise, never a
/// panic). Every slot is written; callers may pass recycled buffers.
pub fn decode_into(enc: &EncodedDeepCam, op: Op, out: &mut [F16]) -> Result<(), CodecError> {
    let width = enc.width as usize;
    if out.len() != enc.n_values() {
        return Err(CodecError::Inconsistent("output slice length mismatch"));
    }
    for (idx, chunk) in out.chunks_mut(width).enumerate() {
        decode_line_into(enc, idx, op, chunk)?;
    }
    Ok(())
}

/// Decodes a full sample with one rayon task per line — the CPU plugin's
/// execution model ("on the CPU we assign different samples/lines to
/// different threads"; lines are the intra-sample unit).
pub fn decode_parallel(enc: &EncodedDeepCam, op: Op) -> Result<Vec<F16>, CodecError> {
    let mut out = vec![F16::ZERO; enc.n_values()];
    decode_parallel_into(enc, op, &mut out)?;
    Ok(out)
}

/// [`decode_parallel`] into a caller-provided slice (same length
/// contract as [`decode_into`]).
pub fn decode_parallel_into(
    enc: &EncodedDeepCam,
    op: Op,
    out: &mut [F16],
) -> Result<(), CodecError> {
    let width = enc.width as usize;
    if out.len() != enc.n_values() {
        return Err(CodecError::Inconsistent("output slice length mismatch"));
    }
    out.par_chunks_mut(width)
        .enumerate()
        .try_for_each(|(idx, chunk)| decode_line_into(enc, idx, op, chunk))?;
    Ok(())
}

/// Decodes line `idx` into `dst` (length = width). This is the unit of
/// independence the per-line directory exists for; the GPU simulator
/// calls it one warp-task at a time.
pub fn decode_line_into(
    enc: &EncodedDeepCam,
    idx: usize,
    op: Op,
    dst: &mut [F16],
) -> Result<(), CodecError> {
    let width = enc.width as usize;
    if dst.len() != width {
        return Err(CodecError::Inconsistent("destination width mismatch"));
    }
    if idx >= enc.lines.len() {
        return Err(CodecError::Inconsistent("line index out of range"));
    }
    let payload = enc.line_payload(idx);
    match enc.lines[idx].mode {
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
        LineMode::Delta => decode_delta_line(payload, width, op, dst),
    }
}

/// Walks a delta line payload: segment headers, then codes, then the
/// literal side array.
fn decode_delta_line(
    payload: &[u8],
    width: usize,
    op: Op,
    dst: &mut [F16],
) -> Result<(), CodecError> {
    if payload.len() < 4 {
        return Err(CodecError::Corrupt("delta line header"));
    }
    let n_segments = crate::wire::le_u16(&payload[0..2]) as usize;
    let n_literals = crate::wire::le_u16(&payload[2..4]) as usize;
    let headers_end = 4 + n_segments * 8;
    if payload.len() < headers_end {
        return Err(CodecError::Corrupt("segment headers truncated"));
    }

    // Validation pass over the headers: total values covered must equal
    // the width (codes = width - n_segments). Headers are re-read in the
    // decode pass below rather than staged in a scratch vector — this
    // runs once per line of every sample, so it must not allocate.
    let mut total = 0usize;
    for si in 0..n_segments {
        let h = &payload[4 + si * 8..4 + si * 8 + 8];
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
    let codes = &payload[headers_end..codes_end];
    let literal_bytes = &payload[codes_end..literals_end];

    record(Kernel::DeepcamLine, arch_level());
    with_scratch(width, |vals| {
        let mut ci = 0usize; // code cursor
        let mut li = 0usize; // literal cursor
        let mut di = 0usize; // destination cursor
        for si in 0..n_segments {
            let h = &payload[4 + si * 8..4 + si * 8 + 8];
            let head = crate::wire::le_f32(&h[0..4]);
            let count = crate::wire::le_u16(&h[4..6]) as usize;
            let base_exp = h[6] as i8;
            // Vector pass: code bytes → f32 deltas. Escapes land as 0.0
            // and are patched from the literal array below.
            let seg_codes = &codes[ci..ci + count - 1];
            decode_codes_into(seg_codes, base_exp, &mut vals[di + 1..di + count]);
            // Sequential pass: prefix-accumulate in FP32 (the paper's
            // software-emulated path; FP16 emission happens in bulk at
            // the end of the line).
            let mut prev = head;
            vals[di] = head;
            for (j, &code) in seg_codes.iter().enumerate() {
                let slot = di + 1 + j;
                let v = if code == CODE_ESCAPE {
                    if li >= n_literals {
                        return Err(CodecError::Corrupt("literal index out of range"));
                    }
                    let l = crate::wire::le_f32(&literal_bytes[li * 4..li * 4 + 4]);
                    li += 1;
                    l
                } else {
                    prev + vals[slot]
                };
                vals[slot] = v;
                prev = v;
            }
            ci += count - 1;
            di += count;
        }
        if li != n_literals {
            return Err(CodecError::Inconsistent("unused literals"));
        }
        op.narrow_into(vals, dst);
        Ok(())
    })
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
    fn sequential_and_parallel_agree() {
        let (_, e) = roundtrip_sample();
        let a = decode(&e, Op::Identity).unwrap();
        let b = decode_parallel(&e, Op::Identity).unwrap();
        assert_eq!(a, b);
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
        decode_parallel_into(&e, Op::Identity, &mut out).unwrap();
        assert_eq!(out, want);
        for bad in [want.len() - 1, want.len() + 1, 0] {
            let mut wrong = vec![F16::ZERO; bad];
            assert!(matches!(
                decode_into(&e, Op::Identity, &mut wrong),
                Err(CodecError::Inconsistent(_))
            ));
            assert!(matches!(
                decode_parallel_into(&e, Op::Identity, &mut wrong),
                Err(CodecError::Inconsistent(_))
            ));
        }
    }

    #[test]
    fn decode_line_into_checks_width() {
        let (_, e) = roundtrip_sample();
        let mut short = vec![F16::ZERO; 3];
        assert!(decode_line_into(&e, 0, Op::Identity, &mut short).is_err());
    }
}
