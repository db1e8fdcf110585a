//! Zero-copy pipeline benchmarks: pooled in-place decode versus the
//! per-sample-alloc baseline, for both workloads, measured in the same
//! process over the same dataset. The baseline wraps the real plugin so
//! its `decode_into` is the allocating `decode` plus a copy, run with
//! pooling disabled, which is exactly what every sample paid before
//! `decode_into` existed: one zeroed tensor allocation, one decode, one
//! memcpy into the batch. The pooled path decodes straight into a
//! recycled batch tensor.
//!
//! A second microbench isolates the cosmo chunk-table strategy change:
//! the dense value-range memo (a flat array indexed by `count - lo`)
//! plus the hoisted bounds-check-free gather, versus the per-chunk
//! `HashMap<u16, F16>` memo it replaced.

use criterion::{criterion_group, criterion_main, Criterion};
use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_bench::snapshot::write_snapshot;
use sciml_codec::cosmoflow as cf;
use sciml_codec::{CodecError, Op};
use sciml_data::cosmoflow::{CosmoFlowConfig, N_REDSHIFTS};
use sciml_data::deepcam::DeepCamConfig;
use sciml_half::F16;
use sciml_obs::BenchEntry;
use sciml_pipeline::decoder::{CosmoPluginCpu, DecodedSample, DeepCamPluginCpu};
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{DecoderPlugin, Label, Pipeline, PipelineConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Decodes through the allocating `decode` and copies the result into
/// the slot: the per-sample-alloc baseline.
struct AllocOnly<P>(P);

impl<P: DecoderPlugin> DecoderPlugin for AllocOnly<P> {
    fn name(&self) -> &'static str {
        "alloc-only-baseline"
    }

    fn decode(&self, bytes: &[u8]) -> sciml_pipeline::Result<DecodedSample> {
        self.0.decode(bytes)
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> sciml_pipeline::Result<Label> {
        let d = self.0.decode(bytes)?;
        if d.data.len() != out.len() {
            return Err(CodecError::Inconsistent("output slice length mismatch").into());
        }
        out.copy_from_slice(&d.data);
        Ok(d.label)
    }
}

struct RunStats {
    samples_per_s: f64,
    /// Pool misses incurred after the pool was pre-warmed to capacity
    /// (steady state should be fully recycled: 0).
    steady_misses: u64,
    hit_rate: f64,
}

fn run_pipeline(blobs: &[Vec<u8>], plugin: Arc<dyn DecoderPlugin>, pooled: bool) -> RunStats {
    let mut p = Pipeline::launch(
        Arc::new(VecSource::new(blobs.to_vec())),
        plugin,
        // Several decode workers: per-sample allocation hurts most
        // under concurrency (allocator churn and page-fault
        // serialization across workers), which is precisely what
        // pooling removes.
        PipelineConfig {
            batch_size: 4,
            reader_threads: 1,
            decode_threads: 3,
            prefetch: 4,
            epochs: 12,
            seed: 3,
            drop_remainder: false,
            // Explicit headroom beyond peak in-flight demand, so the
            // steady state is structurally miss-free; 0 disables
            // pooling entirely (the baseline).
            pool_capacity: if pooled { Some(32) } else { Some(0) },
        },
    )
    .expect("launch");
    let pool = p.pool();
    if pooled {
        // Pre-warm both free lists to capacity so the measured run
        // starts from the steady state a long-lived training loop sits
        // in: population at peak in-flight demand, every checkout a
        // hit. (Tensors check out empty here; their first real use
        // grows them to batch size once, like any warmup.)
        let tensors: Vec<_> = (0..pool.capacity())
            .map(|_| pool.checkout_tensor(0))
            .collect();
        let bytes: Vec<_> = (0..pool.capacity())
            .map(|_| pool.checkout_bytes())
            .collect();
        drop(tensors);
        drop(bytes);
    }
    let warm_misses = pool.misses();
    let t0 = Instant::now();
    let mut samples = 0u64;
    while let Some(b) = p.next_batch().expect("batch") {
        samples += b.len() as u64;
        // Batch dropped here: its tensor recycles, as in a training loop.
    }
    let secs = t0.elapsed().as_secs_f64();
    let steady_misses = pool.misses() - warm_misses;
    let checkouts = pool.hits() + steady_misses;
    RunStats {
        samples_per_s: samples as f64 / secs,
        steady_misses,
        hit_rate: if checkouts > 0 {
            pool.hits() as f64 / checkouts as f64
        } else {
            0.0
        },
    }
}

/// The chunk-decode strategy this PR replaced: memoize the fused op per
/// count value in a per-chunk `HashMap<u16, F16>` while building the
/// row LUT. Kept here (and only here) as the comparison baseline.
fn decode_hashmap(enc: &cf::EncodedCosmo, op: Op) -> Vec<F16> {
    let voxels = enc.voxels();
    let mut out = vec![F16::ZERO; voxels * N_REDSHIFTS];
    let mut start = 0usize;
    for chunk in &enc.chunks {
        let mut memo: HashMap<u16, F16> = HashMap::new();
        let lut: Vec<[F16; N_REDSHIFTS]> = chunk
            .table
            .iter()
            .map(|g| {
                let mut row = [F16::ZERO; N_REDSHIFTS];
                for (z, &count) in g.iter().enumerate() {
                    row[z] = *memo
                        .entry(count)
                        .or_insert_with(|| F16::from_f32(op.apply(count as f32)));
                }
                row
            })
            .collect();
        let n = chunk.n_voxels as usize;
        for v in 0..n {
            let row = lut[chunk.key(v)];
            for (z, val) in row.iter().enumerate() {
                out[z * voxels + start + v] = *val;
            }
        }
        start += n;
    }
    out
}

fn bench(c: &mut Criterion) {
    // Paper-scale samples (64³×4 voxels → 2 MiB FP16 tensors): big
    // enough that per-sample allocation is a real zero-fill + memcpy
    // per sample rather than allocator free-list noise, as it would be
    // in training.
    let mut cosmo_cfg = CosmoFlowConfig::test_small();
    cosmo_cfg.grid = 64;
    let cosmo = DatasetBuilder::cosmoflow(cosmo_cfg).build(16, EncodedFormat::Custom);
    let deepcam =
        DatasetBuilder::deepcam(DeepCamConfig::test_small()).build(48, EncodedFormat::Custom);

    let mut entries: Vec<BenchEntry> = Vec::new();
    for (name, blobs, plugin, alloc_plugin) in [
        (
            "cosmo_plugin_cpu",
            &cosmo,
            Arc::new(CosmoPluginCpu { op: Op::Log1p }) as Arc<dyn DecoderPlugin>,
            Arc::new(AllocOnly(CosmoPluginCpu { op: Op::Log1p })) as Arc<dyn DecoderPlugin>,
        ),
        (
            "deepcam_plugin_cpu",
            &deepcam,
            Arc::new(DeepCamPluginCpu { op: Op::Identity }) as Arc<dyn DecoderPlugin>,
            Arc::new(AllocOnly(DeepCamPluginCpu { op: Op::Identity })) as Arc<dyn DecoderPlugin>,
        ),
    ] {
        // Interleave a throwaway warmup of each variant so neither
        // benefits from allocator / page-cache priming order, then take
        // the best of three alternating measured runs per variant —
        // scheduler noise only ever slows a run down.
        run_pipeline(blobs, Arc::clone(&plugin), true);
        run_pipeline(blobs, Arc::clone(&alloc_plugin), false);
        let (mut pooled, mut alloc) = (
            run_pipeline(blobs, Arc::clone(&plugin), true),
            run_pipeline(blobs, Arc::clone(&alloc_plugin), false),
        );
        for _ in 0..2 {
            let p = run_pipeline(blobs, Arc::clone(&plugin), true);
            if p.samples_per_s > pooled.samples_per_s {
                pooled = p;
            }
            let a = run_pipeline(blobs, Arc::clone(&alloc_plugin), false);
            if a.samples_per_s > alloc.samples_per_s {
                alloc = a;
            }
        }
        entries.push(BenchEntry::new(
            format!("{name}_pooled_samples_per_s"),
            pooled.samples_per_s,
            "samples/s",
        ));
        entries.push(BenchEntry::new(
            format!("{name}_alloc_samples_per_s"),
            alloc.samples_per_s,
            "samples/s",
        ));
        entries.push(BenchEntry::new(
            format!("{name}_pooled_speedup"),
            pooled.samples_per_s / alloc.samples_per_s,
            "x",
        ));
        entries.push(BenchEntry::new(
            format!("{name}_pool_steady_misses"),
            pooled.steady_misses as f64,
            "count",
        ));
        entries.push(BenchEntry::new(
            format!("{name}_pool_hit_rate"),
            pooled.hit_rate,
            "ratio",
        ));
    }

    // Flat sorted-key LUT vs HashMap memo, on one representative sample.
    let enc = cf::EncodedCosmo::from_bytes(&cosmo[0]).expect("parse");
    let want = cf::decode(&enc, Op::Log1p).expect("decode");
    assert_eq!(decode_hashmap(&enc, Op::Log1p), want, "baselines diverged");
    // Interleave the two variants so drift (frequency scaling, cache
    // state) hits both equally.
    let mut out = vec![F16::ZERO; want.len()];
    let iters = 100u32;
    let (mut flat_total, mut hashmap_total) = (0u128, 0u128);
    for _ in 0..iters {
        let t0 = Instant::now();
        cf::decode_into(std::hint::black_box(&enc), Op::Log1p, &mut out).expect("decode");
        flat_total += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        std::hint::black_box(decode_hashmap(std::hint::black_box(&enc), Op::Log1p));
        hashmap_total += t0.elapsed().as_nanos();
    }
    let flat_ns = flat_total as f64 / iters as f64;
    let hashmap_ns = hashmap_total as f64 / iters as f64;
    entries.push(BenchEntry::new("lut_flat_ns", flat_ns, "ns"));
    entries.push(BenchEntry::new("lut_hashmap_ns", hashmap_ns, "ns"));
    entries.push(BenchEntry::new(
        "lut_flat_speedup",
        hashmap_ns / flat_ns,
        "x",
    ));

    match write_snapshot("pipeline_zero_copy", &entries) {
        Ok(path) => println!("zero-copy snapshot: {}", path.display()),
        Err(e) => eprintln!("zero-copy snapshot not written: {e}"),
    }

    // Criterion group over the cosmo pair, for local A/B runs.
    let mut g = c.benchmark_group("pipeline_alloc");
    g.sample_size(10);
    g.bench_function("cosmo_pooled", |b| {
        b.iter(|| run_pipeline(&cosmo, Arc::new(CosmoPluginCpu { op: Op::Log1p }), true))
    });
    g.bench_function("cosmo_per_sample_alloc", |b| {
        b.iter(|| {
            run_pipeline(
                &cosmo,
                Arc::new(AllocOnly(CosmoPluginCpu { op: Op::Log1p })),
                false,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
