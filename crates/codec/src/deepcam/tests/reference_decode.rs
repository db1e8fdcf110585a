//! The DeepCAM decoder as it stood before the code→delta step moved
//! inside the prefix chain, frozen as the oracle the differential tests
//! compare against: a zeroed scratch per line, one pass turning a
//! segment's codes into deltas (`decode_code` per value — the canonical
//! scalar form the vector kernels were held to), then the prefix chain
//! re-reading them. One edit: the delta line is split where the scratch
//! is handed over, so the tests compare the FP32 line itself and not
//! only its FP16 rounding.
//!
//! And the owned wire parser as it stood before `from_bytes` became
//! [`super::DeepCamView::parse`] plus a copy-out: the header, the two
//! sections, then every line's range. Two edits: wire version 2 (a
//! payload section squeezed by the retired range coder) is refused at
//! the version field like any other; and the one version is 3, whose
//! mask section is `(class u8, pixels u16)` runs, checked after the
//! line ranges — whole runs, none empty, covering no pixel or every
//! one of `width × height` — and only then expanded.
//!
//! Test-only (`#[cfg(test)]` in `mod.rs`): nothing outside the tests may
//! call into it. Do not "fix" or speed up anything here — a change to
//! this file changes what "the same bits" means.

use super::{decode_code, EncodedDeepCam, LineMeta, LineMode, CODE_ESCAPE};
use crate::{CodecError, Op};
use sciml_half::F16;
use std::cell::Cell;

thread_local! {
    /// Per-thread f32 line buffer, as the decoder kept it.
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

/// Parses the wire format into an owned sample, validating the
/// directory.
pub(super) fn from_bytes(data: &[u8]) -> Result<EncodedDeepCam, CodecError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| crate::wire::take(data, pos, n);
    if take(&mut pos, 4)? != b"DCMX" {
        return Err(CodecError::Corrupt("bad magic"));
    }
    if crate::wire::le_u32(take(&mut pos, 4)?) != 3 {
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
    match (n_lines as u64).checked_mul(width as u64) {
        Some(n) if n <= 1 << 30 => {}
        _ => return Err(CodecError::Corrupt("implausible element count")),
    }
    if width == 0 {
        return Err(CodecError::Corrupt("zero-width lines"));
    }
    if n_lines > (data.len() - pos) / 9 {
        return Err(CodecError::Truncated);
    }
    let dir_entry = |e: &[u8]| {
        Ok(LineMeta {
            mode: LineMode::from_code(e[0])?,
            offset: crate::wire::le_u32(&e[1..5]),
            len: crate::wire::le_u32(&e[5..9]),
        })
    };
    let directory = take(&mut pos, n_lines * 9)?;
    for e in directory.chunks_exact(9) {
        dir_entry(e)?;
    }
    let section = |pos: &mut usize| {
        let len = crate::wire::wire_len(crate::wire::take(data, pos, 8)?)?;
        crate::wire::take(data, pos, len)
    };
    let payload = section(&mut pos)?.to_vec();
    let mask_runs = section(&mut pos)?;
    let mut lines = Vec::new();
    for e in directory.chunks_exact(9) {
        let l = dir_entry(e)?;
        let end = (l.offset as usize)
            .checked_add(l.len as usize)
            .ok_or(CodecError::Corrupt("line range overflow"))?;
        if end > payload.len() {
            return Err(CodecError::Inconsistent("line payload out of range"));
        }
        lines.push(l);
    }
    if !mask_runs.len().is_multiple_of(3) {
        return Err(CodecError::Corrupt("mask section is not whole runs"));
    }
    let run_len = |r: &[u8]| u16::from_le_bytes([r[1], r[2]]) as u64;
    let pixels = width as u64 * height as u64;
    let mut total = 0u64;
    for r in mask_runs.chunks_exact(3) {
        if run_len(r) == 0 {
            return Err(CodecError::Corrupt("zero-length mask run"));
        }
        total += run_len(r);
        if total > pixels {
            return Err(CodecError::Inconsistent("mask runs exceed width × height"));
        }
    }
    if total != 0 && total != pixels {
        return Err(CodecError::Inconsistent(
            "mask runs short of width × height",
        ));
    }
    let mut mask = Vec::with_capacity(total as usize);
    for r in mask_runs.chunks_exact(3) {
        mask.extend(std::iter::repeat_n(r[0], run_len(r) as usize));
    }
    Ok(EncodedDeepCam {
        width,
        height,
        channels,
        lines,
        payload,
        mask,
    })
}

/// Decodes a sample into `out`, exactly [`EncodedDeepCam::n_values`]
/// long.
pub(crate) fn decode_into(enc: &EncodedDeepCam, op: Op, out: &mut [F16]) -> Result<(), CodecError> {
    let width = enc.width as usize;
    if out.len() != enc.n_values() {
        return Err(CodecError::Inconsistent("output slice length mismatch"));
    }
    for (idx, chunk) in out.chunks_mut(width).enumerate() {
        decode_line_into(enc, idx, op, chunk)?;
    }
    Ok(())
}

/// Decodes line `idx` into `dst` (length = width). This is the unit of
/// independence the per-line directory exists for; the GPU simulator
/// calls it one warp-task at a time.
pub(super) fn decode_line_into(
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
    let l = &enc.lines[idx];
    let payload = &enc.payload[l.offset as usize..(l.offset + l.len) as usize];
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
        LineMode::Delta => with_scratch(width, |vals| {
            reconstruct_delta_line(payload, vals)?;
            op.narrow_into(vals, dst);
            Ok(())
        }),
    }
}

/// Walks a delta line payload: segment headers, then codes, then the
/// literal side array, into the line's FP32 values.
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
    Ok(())
}

/// Code bytes sharing one `base_exp` → f32 deltas; escapes (and zero
/// codes) produce `0.0`.
fn decode_codes_into(codes: &[u8], base_exp: i8, out: &mut [f32]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = decode_code(c, base_exp).unwrap_or(0.0);
    }
}
