//! The GPU decode kernels, run functionally on the warp simulator.

use super::warp::{KernelStats, MemSpace, WarpCtx, WARP_SIZE};
use super::GpuSpec;
use sciml_codec::cosmoflow::CosmoView;
use sciml_codec::deepcam::{decode_line_into, DeepCamView, LineMode};
use sciml_codec::{CodecError, Op};
use sciml_data::cosmoflow::N_REDSHIFTS;
use sciml_half::F16;

/// CosmoFlow LUT-gather kernel.
///
/// Grid: one warp task per 32 voxels of each chunk. Per task:
/// 1. coalesced load of 32 keys;
/// 2. table gather — from shared memory if the chunk's table fits the
///    SM's shared capacity (the common case the encoder aims for), else
///    L2 if it fits there, else DRAM;
/// 3. one coalesced store per channel (4 stores) into the channel-major
///    output — the fused transpose.
///
/// The per-table `log1p` precomputation runs as its own warp tasks
/// (table_len/32 of them), which is where the "apply the operator to
/// unique values only" saving shows up in cycle counts.
pub fn decode_cosmo(
    gpu: &GpuSpec,
    view: &CosmoView<'_>,
    op: Op,
) -> Result<(Vec<F16>, KernelStats, f64), CodecError> {
    // The CPU decoder's answer: no parser lets one through, but the
    // fields of an owned sample are public.
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
    let mut out = vec![F16::ZERO; view.n_values()];
    let mut stats = KernelStats::default();

    let mut start = 0usize;
    for chunk in view.chunks() {
        let chunk = chunk?;
        let table_bytes = (chunk.table_len() * 2 * N_REDSHIFTS) as u64;
        let table_space = if table_bytes <= gpu.shared_bytes {
            MemSpace::Shared
        } else if table_bytes <= gpu.l2_bytes {
            MemSpace::L2
        } else {
            MemSpace::Dram
        };

        // Phase 1: fused operator on unique table entries.
        let mut lut: Vec<[F16; N_REDSHIFTS]> = Vec::with_capacity(chunk.table_len());
        chunk.for_each_group(|g| lut.push(g.map(|c| F16::from_f32(op.apply(c as f32)))));
        for rows in lut.chunks(WARP_SIZE) {
            let mut ctx = WarpCtx::new();
            // Load 8B rows (coalesced: consecutive), apply op (a few ALU
            // ops per channel incl. the transcendental), store back.
            let base = 0x1000_0000u64;
            let addrs: Vec<u64> = (0..rows.len() as u64).map(|i| base + i * 8).collect();
            ctx.access(&addrs, MemSpace::Dram); // first touch streams from DRAM
            ctx.alu(4 * op_cost(op)); // 4 channels
            ctx.access(&addrs, table_space); // write decoded rows
            stats.absorb(ctx.finish());
        }

        // Phase 2: key gather + channel-major stores.
        let n = chunk.n_voxels as usize;
        if chunk.keys.len() != n * chunk.key_width.bytes() {
            return Err(CodecError::Corrupt("key payload size"));
        }
        let kw = chunk.key_width.bytes() as u64;
        for w0 in (0..n).step_by(WARP_SIZE) {
            let lanes = (n - w0).min(WARP_SIZE);
            let mut ctx = WarpCtx::new();
            // Coalesced key load.
            let key_base = 0x2000_0000u64;
            let key_addrs: Vec<u64> = (0..lanes as u64)
                .map(|i| key_base + (w0 as u64 + i) * kw)
                .collect();
            ctx.access(&key_addrs, MemSpace::Dram);
            // Gather decoded rows: scattered by key value.
            let lut_base = 0x3000_0000u64;
            let mut row_addrs = Vec::with_capacity(lanes);
            for v in 0..lanes {
                let k = chunk.key(w0 + v);
                if k >= lut.len() {
                    return Err(CodecError::Corrupt("key out of table range"));
                }
                row_addrs.push(lut_base + (k as u64) * 8);
            }
            ctx.access(&row_addrs, table_space);
            ctx.alu(1); // unpack/select
                        // Four coalesced channel stores + the functional writes.
            let out_base = 0x4000_0000u64;
            for z in 0..N_REDSHIFTS {
                let store_addrs: Vec<u64> = (0..lanes as u64)
                    .map(|i| out_base + ((z * voxels + start + w0) as u64 + i) * 2)
                    .collect();
                ctx.access(&store_addrs, MemSpace::Dram);
                for v in 0..lanes {
                    let k = chunk.key(w0 + v);
                    out[z * voxels + start + w0 + v] = lut[k][z];
                }
            }
            stats.absorb(ctx.finish());
        }
        start += n;
    }

    let time = gpu.kernel_time(&stats);
    Ok((out, stats, time))
}

/// DeepCAM hierarchical decode kernel.
///
/// Grid: one warp task per line (the per-line directory makes lines
/// independent). Constant and raw lines are warp-wide copy/broadcast
/// tasks; delta lines serialize the segment walk inside their warp
/// (the loop-carried dependency), while lanes cooperate on unpacking
/// and the f16 stores — the paper's hierarchical assignment.
pub fn decode_deepcam(
    gpu: &GpuSpec,
    view: &DeepCamView<'_>,
    op: Op,
) -> Result<(Vec<F16>, KernelStats, f64), CodecError> {
    let width = view.width as usize;
    if width == 0 {
        return Err(CodecError::Corrupt("zero-width lines"));
    }
    let mut out = vec![F16::ZERO; view.n_values()];
    let mut stats = KernelStats::default();

    for (idx, dst) in out.chunks_mut(width).enumerate() {
        // Functional part: identical to the CPU decoder by construction.
        decode_line_into(view, idx, op, dst)?;

        // Timing part: account the SIMT cost of this line's task.
        let mut ctx = WarpCtx::new();
        let (mode, payload) = view.line(idx)?;
        let warp_chunks = width.div_ceil(WARP_SIZE) as u64;
        match mode {
            LineMode::Constant => {
                // One broadcast + coalesced stores.
                ctx.alu(1 + op_cost(op));
                for w in 0..warp_chunks {
                    let addrs: Vec<u64> = (0..WARP_SIZE as u64)
                        .map(|i| 0x5000_0000 + (idx as u64 * width as u64 + w * 32 + i) * 2)
                        .collect();
                    ctx.access(&addrs, MemSpace::Dram);
                }
            }
            LineMode::RawF32 => {
                // Stream loads, convert, stores.
                for w in 0..warp_chunks {
                    let loads: Vec<u64> = (0..WARP_SIZE as u64)
                        .map(|i| 0x6000_0000 + (w * 32 + i) * 4)
                        .collect();
                    ctx.access(&loads, MemSpace::Dram);
                    ctx.alu(1 + op_cost(op)); // convert + op
                    let stores: Vec<u64> = (0..WARP_SIZE as u64)
                        .map(|i| 0x7000_0000 + (idx as u64 * width as u64 + w * 32 + i) * 2)
                        .collect();
                    ctx.access(&stores, MemSpace::Dram);
                }
            }
            LineMode::Delta => {
                let (n_segments, n_literals) = delta_header(payload);
                // Payload streaming: headers + codes, coalesced.
                let payload_sectors = (payload.len() as u64).div_ceil(32).max(1);
                for _ in 0..payload_sectors {
                    let addrs: Vec<u64> = (0..WARP_SIZE as u64).map(|i| 0x8000_0000 + i).collect();
                    ctx.access(&addrs, MemSpace::Dram);
                }
                // The segment walks are loop-carried: each non-head value
                // costs a serialized unpack+add (≈3 instructions). The
                // warp's lanes cooperatively handle unpack/store, but the
                // dependency chain dominates: model as divergent paths,
                // one per segment (segments of one line run back to back
                // in its warp; other lines proceed on other warps).
                let per_value = 3u64;
                let chain = (width as u64 - n_segments) * per_value;
                ctx.diverge(&[chain]);
                // Literal fetches are scattered.
                if n_literals > 0 {
                    let addrs: Vec<u64> = (0..n_literals.min(WARP_SIZE as u64))
                        .map(|i| 0x9000_0000 + i * 128)
                        .collect();
                    ctx.access(&addrs, MemSpace::Dram);
                }
                ctx.alu(op_cost(op) * warp_chunks);
                // Coalesced f16 stores.
                for w in 0..warp_chunks {
                    let stores: Vec<u64> = (0..WARP_SIZE as u64)
                        .map(|i| 0xA000_0000 + (idx as u64 * width as u64 + w * 32 + i) * 2)
                        .collect();
                    ctx.access(&stores, MemSpace::Dram);
                }
            }
        }
        stats.absorb(ctx.finish());
    }

    let time = gpu.kernel_time(&stats);
    Ok((out, stats, time))
}

/// Ablation kernel: decode **without** table fusion, then run a second
/// per-voxel operator kernel over the expanded tensor — the work order
/// the paper's reordering optimization eliminates. Costs a full extra
/// pass of loads, op ALU per voxel, and stores; the output also differs
/// slightly from the fused path (the op sees FP16-rounded inputs).
pub fn decode_cosmo_unfused(
    gpu: &GpuSpec,
    view: &CosmoView<'_>,
    op: Op,
) -> Result<(Vec<F16>, KernelStats, f64), CodecError> {
    let (mut out, mut stats, _) = decode_cosmo(gpu, view, Op::Identity)?;
    let n = out.len();
    for w0 in (0..n).step_by(WARP_SIZE) {
        let lanes = (n - w0).min(WARP_SIZE);
        let mut ctx = WarpCtx::new();
        let loads: Vec<u64> = (0..lanes as u64)
            .map(|i| 0xB000_0000 + (w0 as u64 + i) * 2)
            .collect();
        ctx.access(&loads, MemSpace::Dram);
        ctx.alu(op_cost(op).max(1));
        ctx.access(&loads, MemSpace::Dram); // write back in place
        for v in &mut out[w0..w0 + lanes] {
            *v = F16::from_f32(op.apply(v.to_f32()));
        }
        stats.absorb(ctx.finish());
    }
    let time = gpu.kernel_time(&stats);
    Ok((out, stats, time))
}

/// ALU instructions per operator application.
fn op_cost(op: Op) -> u64 {
    match op {
        Op::Identity => 0,
        Op::Normalize { .. } => 2,
        Op::Log1p => 8,
        Op::Log1pNormalize { .. } => 10,
    }
}

fn delta_header(payload: &[u8]) -> (u64, u64) {
    if payload.len() < 4 {
        return (0, 0);
    }
    (
        u16::from_le_bytes([payload[0], payload[1]]) as u64,
        u16::from_le_bytes([payload[2], payload[3]]) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_codec::cosmoflow as cf;
    use sciml_codec::deepcam as dc;
    use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
    use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};

    #[test]
    fn cosmo_gpu_output_matches_cpu_decoder_exactly() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
        let enc = cf::encode(&s);
        let gpu = GpuSpec::V100;
        let (out, stats, time) = decode_cosmo(&gpu, &enc.view(), Op::Log1p).unwrap();
        assert_eq!(out, cf::decode(&enc, Op::Log1p).unwrap());
        assert!(stats.cycles > 0 && stats.tasks > 0);
        assert!(time > 0.0 && time < 1.0, "{time}");
    }

    /// A hand-built sample of no grid, and keys that name no group under
    /// a valid header (the first key and the last), get the CPU decoder's
    /// answer, not a tensor or a panic.
    #[test]
    fn cosmo_hostile_samples_are_rejected_like_the_cpu_decoder() {
        let zero_grid = cf::EncodedCosmo {
            grid: 0,
            label: [0.0; 4],
            chunks: vec![],
        };
        let enc = cf::encode(&UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0));
        assert_eq!(enc.chunks[0].key_width, cf::KeyWidth::U16);
        let mut cases = vec![(zero_grid, "zero grid")];
        for bad in [enc.chunks[0].table.len() as u16, u16::MAX] {
            for at in [0, enc.chunks[0].keys.len() - 2] {
                let mut hostile = enc.clone();
                hostile.chunks[0].keys[at..at + 2].copy_from_slice(&bad.to_le_bytes());
                cases.push((hostile, "key out of table range"));
            }
        }
        for (sample, verdict) in cases {
            let cpu = cf::decode(&sample, Op::Log1p).unwrap_err();
            assert_eq!(cpu, CodecError::Corrupt(verdict));
            let gpu = decode_cosmo(&GpuSpec::V100, &sample.view(), Op::Log1p);
            assert_eq!(gpu.unwrap_err(), cpu, "{verdict}");
        }
    }

    #[test]
    fn deepcam_gpu_output_matches_cpu_decoder_exactly() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let (enc, _) = dc::encode(&s, &dc::EncoderConfig::default());
        let gpu = GpuSpec::V100;
        let (out, stats, time) = decode_deepcam(&gpu, &enc.view(), Op::Identity).unwrap();
        assert_eq!(out, dc::decode(&enc, Op::Identity).unwrap());
        assert!(stats.divergent_steps == 0); // single-chain diverge has no extra
        assert!(stats.longest_task_cycles > 0);
        assert!(time > 0.0 && time < 1.0, "{time}");
    }

    /// Every field of `EncodedDeepCam` is public: a directory that
    /// points outside the payload, or is the wrong length, or lines of
    /// no width, are typed errors from the line kernel too.
    #[test]
    fn deepcam_kernel_rejects_hand_built_samples_without_panicking() {
        use sciml_codec::deepcam::LineMeta;
        let gpu = GpuSpec::V100;
        let line = |offset: u32, len: u32| LineMeta {
            mode: LineMode::Constant,
            offset,
            len,
        };
        let sample = |width: u32, lines: Vec<LineMeta>| dc::EncodedDeepCam {
            width,
            height: 2,
            channels: 1,
            lines,
            payload: vec![0u8; 8],
            mask: vec![],
        };
        let decode = |s: dc::EncodedDeepCam| {
            decode_deepcam(&gpu, &s.view(), Op::Identity).map(|(out, _, _)| out)
        };
        decode(sample(4, vec![line(0, 4), line(4, 4)])).expect("the honest sample decodes");
        for bad in [line(6, 4), line(u32::MAX, 2)] {
            assert_eq!(
                decode(sample(4, vec![line(0, 4), bad])),
                Err(CodecError::Inconsistent("line payload out of range"))
            );
        }
        for lines in [vec![line(0, 4)], vec![line(0, 4); 3]] {
            assert!(matches!(
                decode(sample(4, lines)),
                Err(CodecError::Inconsistent(_))
            ));
        }
        assert_eq!(
            decode(sample(0, vec![line(0, 4); 2])),
            Err(CodecError::Corrupt("zero-width lines"))
        );
    }

    #[test]
    fn a100_decodes_faster_than_v100() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(1);
        let enc = cf::encode(&s);
        let (_, _, tv) = decode_cosmo(&GpuSpec::V100, &enc.view(), Op::Log1p).unwrap();
        let (_, _, ta) = decode_cosmo(&GpuSpec::A100, &enc.view(), Op::Log1p).unwrap();
        assert!(ta <= tv, "A100 {ta} vs V100 {tv}");
    }

    #[test]
    fn gpu_decode_cost_is_small_share_of_reasonable_budget() {
        // §IX-B: "The decode operation overhead is negligible, taking
        // less than 1% of the total processing time of a sample." A
        // CosmoFlow training step is ~10ms at batch 1 on V100; decode
        // should be far below 1ms on the small grid.
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(2);
        let enc = cf::encode(&s);
        let (_, _, t) = decode_cosmo(&GpuSpec::V100, &enc.view(), Op::Log1p).unwrap();
        assert!(t < 1e-3, "decode took {t}s");
    }

    #[test]
    fn delta_lines_pay_serialization_raw_lines_do_not() {
        // Compare longest-task cycles of an all-delta sample vs an
        // all-constant sample of the same shape.
        let width = 512;
        let smooth: Vec<f32> = (0..width).map(|i| (i as f32 * 0.01).sin() + 10.0).collect();
        let constant = vec![5.0f32; width];
        let mk = |data: Vec<f32>| sciml_data::deepcam::DeepCamSample {
            width,
            height: 1,
            channels: 1,
            data,
            mask: vec![0; width],
        };
        let gpu = GpuSpec::V100;
        let (e1, st1) = dc::encode(&mk(smooth), &dc::EncoderConfig::default());
        assert_eq!(st1.delta_lines, 1);
        let (e2, st2) = dc::encode(&mk(constant), &dc::EncoderConfig::default());
        assert_eq!(st2.constant_lines, 1);
        let (_, s1, _) = decode_deepcam(&gpu, &e1.view(), Op::Identity).unwrap();
        let (_, s2, _) = decode_deepcam(&gpu, &e2.view(), Op::Identity).unwrap();
        assert!(
            s1.longest_task_cycles > 4 * s2.longest_task_cycles,
            "delta {} vs constant {}",
            s1.longest_task_cycles,
            s2.longest_task_cycles
        );
    }

    #[test]
    fn unfused_device_path_costs_more_and_is_less_accurate() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(4);
        let enc = cf::encode(&s);
        let gpu = GpuSpec::V100;
        let (fused, fused_stats, fused_t) = decode_cosmo(&gpu, &enc.view(), Op::Log1p).unwrap();
        let (unfused, unfused_stats, unfused_t) =
            decode_cosmo_unfused(&gpu, &enc.view(), Op::Log1p).unwrap();
        // Cost: the extra per-voxel pass dominates.
        assert!(unfused_stats.cycles > fused_stats.cycles);
        assert!(unfused_stats.dram_bytes > fused_stats.dram_bytes);
        assert!(unfused_t > fused_t);
        // Accuracy: outputs close, but the fused path tracks the exact
        // f32 op better (unfused applies log1p to FP16-rounded counts).
        let mut fused_err = 0f64;
        let mut unfused_err = 0f64;
        for (v, (f, u)) in s.counts.iter().zip(fused.iter().zip(&unfused)) {
            let exact = (*v as f32).ln_1p();
            fused_err += (f.to_f32() - exact).abs() as f64;
            unfused_err += (u.to_f32() - exact).abs() as f64;
        }
        assert!(fused_err <= unfused_err, "{fused_err} vs {unfused_err}");
    }

    #[test]
    fn table_fusion_saves_cycles_vs_per_voxel_op() {
        // Decode with Log1p vs Identity: the op cost difference must be
        // proportional to the table size, not the voxel count.
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(3);
        let enc = cf::encode(&s);
        let gpu = GpuSpec::V100;
        let (_, st_id, _) = decode_cosmo(&gpu, &enc.view(), Op::Identity).unwrap();
        let (_, st_log, _) = decode_cosmo(&gpu, &enc.view(), Op::Log1p).unwrap();
        let extra = st_log.cycles - st_id.cycles;
        let table_tasks = enc
            .chunks
            .iter()
            .map(|c| c.table.len().div_ceil(WARP_SIZE) as u64)
            .sum::<u64>();
        // 8 ALU per op × 4 channels per table task.
        assert_eq!(extra, table_tasks * 4 * 8);
        // Far less than per-voxel application would cost.
        let per_voxel_cost = (enc.voxels() as u64 / WARP_SIZE as u64) * 4 * 8;
        assert!(extra * 5 < per_voxel_cost, "{extra} vs {per_voxel_cost}");
    }
}
