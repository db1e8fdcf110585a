//! CosmoFlow decoder: fused-operator table expansion.
//!
//! The decode applies the preprocessing operator to each chunk's table
//! entries (thousands of values), then expands the full channel-major
//! tensor with a pure gather. The gather writes all four channel slots
//! of a voxel from one table row — fusing the storage→training-layout
//! transpose into the decompression, as §X describes.
//!
//! One implementation, over a [`CosmoView`], and one level of
//! parallelism: a caller that wants both cores busy decodes two samples
//! at once (the pipeline's decode pool does), it never forks inside
//! one. Every sample the generators, the benchmark and the examples
//! make is one chunk (64³ is 5 436 groups of a 65 536-group key space),
//! so a fork over chunks had nothing to split.

use super::{CosmoView, EncodedCosmo, Table};
use crate::ops::{Op, OpCounter};
use crate::CodecError;
use sciml_data::cosmoflow::N_REDSHIFTS;
use sciml_half::F16;
use std::cell::RefCell;

/// Decodes with the fused operator into channel-major FP16.
pub fn decode(enc: &EncodedCosmo, op: Op) -> Result<Vec<F16>, CodecError> {
    let mut out = vec![F16::ZERO; enc.voxels() * N_REDSHIFTS];
    decode_into(enc, op, &mut out)?;
    Ok(out)
}

/// [`decode_view_into`] over an owned sample.
pub fn decode_into(enc: &EncodedCosmo, op: Op, out: &mut [F16]) -> Result<(), CodecError> {
    decode_view_into(&enc.view(), op, out)
}

/// Decode while counting operator applications (to verify the fusion
/// work reduction against [`super::baseline_preprocess_with_counter`]).
pub fn decode_with_counter(
    enc: &EncodedCosmo,
    op: Op,
    counter: &OpCounter,
) -> Result<Vec<F16>, CodecError> {
    let mut out = vec![F16::ZERO; enc.voxels() * N_REDSHIFTS];
    decode_counted(&enc.view(), op, Some(counter), &mut out)?;
    Ok(out)
}

/// Decodes a full sample into a caller-provided slice, which must be
/// exactly [`CosmoView::n_values`] long (a typed error otherwise, never
/// a panic). Every slot is written; callers may pass recycled buffers.
pub fn decode_view_into(view: &CosmoView<'_>, op: Op, out: &mut [F16]) -> Result<(), CodecError> {
    decode_counted(view, op, None, out)
}

/// Localized chunks have tight count ranges; 2^15 entries (128 KiB of
/// scratch) is far beyond any real chunk but still cheap.
const DENSE_RANGE_MAX: usize = 1 << 15;

/// What a chunk's decode builds before its gather. A decode thread is
/// long-lived and its chunks are of a size, so each keeps one set grown
/// to its largest chunk instead of allocating and zeroing one per chunk.
struct Scratch {
    /// The chunk's table with the operator applied, one row a group.
    lut: Vec<[F16; N_REDSHIFTS]>,
    /// Dense memo over the chunk's `[lo, hi]` count range.
    memo: Vec<Option<F16>>,
    /// `(count, lut slot)` pairs of the wide-range fallback.
    entries: Vec<(u16, u32)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            lut: Vec::new(),
            memo: Vec::new(),
            entries: Vec::new(),
        })
    };
}

impl Scratch {
    /// Fills `lut` with the fused op on the *unique count values* of
    /// one chunk's table (§V-B: "complex preprocessing operations … are
    /// applied to the unique set of values within the sample" —
    /// hundreds of applications instead of millions), one row a group.
    /// The memo is a flat LUT indexed directly by count value over the
    /// chunk's `[lo, hi]` range — no hashing, no searching — with a
    /// sorted-run sweep as the fallback when the value range is too
    /// wide to materialize.
    fn fill_lut(&mut self, table: Table<'_>, apply: impl Fn(u16) -> F16) {
        let Self { lut, memo, entries } = self;
        lut.clear();
        let (mut lo, mut hi) = (u16::MAX, u16::MIN);
        table.for_each(|g| {
            for c in g {
                lo = lo.min(c);
                hi = hi.max(c);
            }
        });
        if lo > hi {
            // No groups, nothing to map: a chunk with voxels and no
            // table failed the key-range check before it got here.
        } else if ((hi - lo) as usize) < DENSE_RANGE_MAX {
            memo.clear();
            memo.resize((hi - lo) as usize + 1, None);
            table.for_each(|g| {
                lut.push(g.map(|c| *memo[(c - lo) as usize].get_or_insert_with(|| apply(c))));
            });
        } else {
            // Wide-range fallback: sort (value, slot) pairs and sweep
            // equal-value runs, applying the op once per run.
            entries.clear();
            table.for_each(|g| {
                for count in g {
                    entries.push((count, entries.len() as u32));
                }
            });
            entries.sort_unstable();
            lut.resize(table.len(), [F16::ZERO; N_REDSHIFTS]);
            for run in entries.chunk_by(|a, b| a.0 == b.0) {
                let h = apply(run[0].0);
                for &(_, slot) in run {
                    lut[slot as usize / N_REDSHIFTS][slot as usize % N_REDSHIFTS] = h;
                }
            }
        }
    }
}

fn decode_counted(
    view: &CosmoView<'_>,
    op: Op,
    counter: Option<&OpCounter>,
    out: &mut [F16],
) -> Result<(), CodecError> {
    // No parser lets one through, but the fields of an owned sample
    // are public.
    if view.grid == 0 {
        return Err(CodecError::Corrupt("zero grid"));
    }
    let voxels = view.voxels();
    let mut covered = 0u64;
    for chunk in view.chunks() {
        covered += chunk?.n_voxels as u64;
    }
    if covered != voxels as u64 {
        return Err(CodecError::Inconsistent("chunks do not cover grid"));
    }
    if out.len() != view.n_values() {
        return Err(CodecError::Inconsistent("output slice length mismatch"));
    }
    let apply = |count: u16| -> F16 {
        let x = count as f32;
        let y = match counter {
            Some(c) => c.apply(op, x),
            None => op.apply(x),
        };
        F16::from_f32(y)
    };
    // The four channel planes: a chunk writes the same voxel range of
    // each.
    let (c0, rest) = out.split_at_mut(voxels);
    let (c1, rest) = rest.split_at_mut(voxels);
    let (c2, c3) = rest.split_at_mut(voxels);

    SCRATCH.with_borrow_mut(|scratch| {
        let mut start = 0usize;
        view.chunks().try_for_each(|chunk| {
            let chunk = chunk?;
            // Every key up front, so the gather below needs no
            // per-voxel fallible branch.
            chunk.check_keys()?;
            scratch.fill_lut(chunk.table, apply);
            // Single-pass gather: one key decode per voxel, one LUT row
            // copy, four channel writes — dispatched across the runtime
            // SIMD tiers (scalar keeps the zipped bounds-check-free
            // loop; the vector paths transpose rows to planar in
            // registers).
            let end = start + chunk.n_voxels as usize;
            // SAFETY: `check_keys` above found every key < the table's
            // length, and `fill_lut` left one row a group of that table.
            unsafe {
                super::gather::gather_into(
                    chunk.key_width,
                    chunk.keys,
                    &scratch.lut,
                    [
                        &mut c0[start..end],
                        &mut c1[start..end],
                        &mut c2[start..end],
                        &mut c3[start..end],
                    ],
                )
            };
            start = end;
            Ok(())
        })
    })
}

/// Losslessly reconstructs the original u16 counts (channel-major).
pub fn decode_counts(enc: &EncodedCosmo) -> Result<Vec<u16>, CodecError> {
    let voxels = enc.voxels();
    let covered: u64 = enc.chunks.iter().map(|c| c.n_voxels as u64).sum();
    if covered != voxels as u64 {
        return Err(CodecError::Inconsistent("chunks do not cover grid"));
    }
    let mut out = vec![0u16; voxels * N_REDSHIFTS];
    let mut start = 0usize;
    for chunk in &enc.chunks {
        let n = chunk.n_voxels as usize;
        if chunk.keys.len() != n * chunk.key_width.bytes() {
            return Err(CodecError::Corrupt("key payload size"));
        }
        for v in 0..n {
            let k = chunk.key(v);
            let g = chunk
                .table
                .get(k)
                .ok_or(CodecError::Corrupt("key out of table range"))?;
            for z in 0..N_REDSHIFTS {
                out[z * voxels + start + v] = g[z];
            }
        }
        start += n;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosmoflow::{baseline_preprocess, baseline_preprocess_with_counter, encode};
    use sciml_data::cosmoflow::{CosmoFlowConfig, CosmoSample, UniverseGenerator};

    fn small() -> CosmoSample {
        UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0)
    }

    #[test]
    fn lossless_count_roundtrip() {
        let s = small();
        let e = encode(&s);
        assert_eq!(decode_counts(&e).unwrap(), s.counts);
    }

    #[test]
    fn fused_decode_equals_baseline_exactly() {
        // Same f32 inputs, same op, same final cast — the fused path must
        // be bit-identical to per-voxel preprocessing (this is the
        // "convergence-identical" premise for CosmoFlow).
        let s = small();
        let e = encode(&s);
        let gathers = || -> u64 {
            sciml_simd::dispatch_counts()
                .iter()
                .filter(|(k, _, _)| *k == sciml_simd::Kernel::CosmoGather)
                .map(|(_, _, n)| n)
                .sum()
        };
        let gathers_before = gathers();
        for op in [
            Op::Identity,
            Op::Log1p,
            Op::Normalize {
                scale: 0.2,
                offset: 1.0,
            },
            Op::Log1pNormalize {
                scale: 0.5,
                offset: 2.0,
            },
        ] {
            let fused = decode(&e, op).unwrap();
            let base = baseline_preprocess(&s, op);
            assert_eq!(fused, base, "{op:?}");
        }
        // Each decode counted its gather, at whatever tier this host runs
        // (the counters `sciml_obs::simd::publish` exports).
        assert!(gathers() > gathers_before);
    }

    #[test]
    fn decode_into_matches_decode_and_checks_length() {
        let s = small();
        let e = encode(&s);
        let want = decode(&e, Op::Log1p).unwrap();
        // Reused, dirty buffer of the right size: every slot rewritten.
        let mut out = vec![F16::ONE; want.len()];
        decode_into(&e, Op::Log1p, &mut out).unwrap();
        assert_eq!(out, want);
        // Short and oversized slices: typed error, no panic, no write.
        for bad in [want.len() - 1, want.len() + 1, 0] {
            let mut wrong = vec![F16::ZERO; bad];
            assert!(matches!(
                decode_into(&e, Op::Log1p, &mut wrong),
                Err(CodecError::Inconsistent(_))
            ));
        }
    }

    #[test]
    fn fusion_reduces_op_applications_by_orders_of_magnitude() {
        let s = small();
        let e = encode(&s);
        let fused_counter = OpCounter::new();
        decode_with_counter(&e, Op::Log1p, &fused_counter).unwrap();
        let base_counter = OpCounter::new();
        baseline_preprocess_with_counter(&s, Op::Log1p, &base_counter);
        assert_eq!(base_counter.count(), s.counts.len() as u64);
        // The fused path applies the op once per unique count value per
        // chunk, never more than once per group entry.
        let unique_values: u64 = e
            .chunks
            .iter()
            .map(|c| {
                let mut vals: Vec<u16> = c.table.iter().flatten().copied().collect();
                vals.sort_unstable();
                vals.dedup();
                vals.len() as u64
            })
            .sum();
        assert_eq!(fused_counter.count(), unique_values);
        assert!(fused_counter.count() <= (e.total_groups() * N_REDSHIFTS) as u64);
        // Work reduction: ≥5× on the 32³ test grid; at the paper's 128³
        // the voxel count grows 64× while unique groups grow far slower,
        // giving the three-orders-of-magnitude reduction (checked by the
        // Fig-5 figures binary at full scale).
        assert!(
            base_counter.count() > 5 * fused_counter.count(),
            "base {} vs fused {}",
            base_counter.count(),
            fused_counter.count()
        );
    }

    #[test]
    fn decode_output_is_channel_major() {
        let s = small();
        let e = encode(&s);
        let out = decode(&e, Op::Identity).unwrap();
        let n = s.voxels();
        for v in [0usize, 17, n - 1] {
            let g = s.group(v);
            for z in 0..N_REDSHIFTS {
                assert_eq!(out[z * n + v].to_f32(), g[z] as f32, "v={v} z={z}");
            }
        }
    }

    #[test]
    fn corrupted_keys_rejected() {
        let s = small();
        let mut e = encode(&s);
        // Point a key beyond the table.
        let c = &mut e.chunks[0];
        let bad = (c.table.len() as u16).to_le_bytes();
        match c.key_width {
            super::super::KeyWidth::U8 => {
                if c.table.len() < 256 {
                    c.keys[0] = c.table.len() as u8;
                } else {
                    return; // cannot express an out-of-range u8 key
                }
            }
            super::super::KeyWidth::U16 => {
                c.keys[0] = bad[0];
                c.keys[1] = bad[1];
            }
        }
        assert!(decode(&e, Op::Identity).is_err());
        assert!(decode_counts(&e).is_err());
    }

    #[test]
    fn coverage_mismatch_rejected() {
        let s = small();
        let mut e = encode(&s);
        e.chunks[0].n_voxels -= 1;
        let new_len = e.chunks[0].keys.len() - e.chunks[0].key_width.bytes();
        e.chunks[0].keys.truncate(new_len);
        assert!(matches!(
            decode(&e, Op::Identity),
            Err(CodecError::Inconsistent(_))
        ));
    }

    #[test]
    fn log1p_at_fp16_is_tight_for_u16_counts() {
        // §V-B / §VIII-A: the CosmoFlow decode path is called non-lossy.
        // Verify log1p of every u16 count rounds to FP16 within 2^-11
        // relative error.
        for c in (0..=u16::MAX).step_by(37) {
            let exact = (c as f32).ln_1p();
            let h = F16::from_f32(exact).to_f32();
            let rel = if exact == 0.0 {
                (h - exact).abs()
            } else {
                ((h - exact) / exact).abs()
            };
            assert!(rel <= 2f32.powi(-11), "count {c}: {exact} vs {h}");
        }
    }
}
