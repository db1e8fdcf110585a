//! Telemetry-plane overhead benchmark: the identical pipeline workload
//! with the full observability plane on — enabled tracer emitting
//! fetch/decode/batch spans, queue-depth gauges, and a background
//! [`PipelineSampler`] snapshotting the registry — versus off (disabled
//! tracer, no sampler). Both variants still register metrics (counters
//! are always on); what's measured is the marginal cost of spans plus
//! the sampler thread. The acceptance bar is <2% throughput loss.
//!
//! Alongside the overhead snapshot, the instrumented run's final
//! attribution report lands as `results/BENCH_obs_attribution.json` —
//! the committed example of what `sciml fetch --attribution-out`
//! produces on a decode-heavy workload.

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_bench::snapshot::{bench_out_dir, write_snapshot};
use sciml_codec::Op;
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_obs::{
    pipeline_stages, AttributionReport, BenchEntry, PipelineSampler, SamplerConfig, Telemetry,
};
use sciml_pipeline::decoder::CosmoPluginCpu;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{DecoderPlugin, Pipeline, PipelineConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pipeline_cfg() -> PipelineConfig {
    PipelineConfig {
        batch_size: 4,
        reader_threads: 1,
        decode_threads: 3,
        prefetch: 4,
        epochs: 8,
        seed: 3,
        drop_remainder: false,
        ..PipelineConfig::default()
    }
}

struct RunStats {
    samples_per_s: f64,
    report: Option<AttributionReport>,
}

/// One full pipeline drain. When `instrumented`, the tracer records
/// every stage span and a sampler thread snapshots the registry every
/// 50 ms for the whole run — the worst realistic observer cadence.
/// The sampler is spawned before launch so its baseline predates all
/// pipeline work, and its thread runs inside the timed region: its
/// cost is part of what this bench exists to measure.
fn run_pipeline(blobs: &[Vec<u8>], instrumented: bool) -> RunStats {
    let cfg = pipeline_cfg();
    let tel = if instrumented {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let sampler = instrumented.then(|| {
        PipelineSampler::spawn(
            Arc::clone(&tel.registry),
            Arc::clone(&tel.tracer),
            SamplerConfig {
                interval: Duration::from_millis(50),
                stages: pipeline_stages(cfg.reader_threads as u64, cfg.decode_threads as u64),
                live: false,
            },
        )
    });
    let plugin: Arc<dyn DecoderPlugin> = Arc::new(CosmoPluginCpu { op: Op::Log1p });
    let t0 = Instant::now();
    let mut p = Pipeline::launch_with(
        Arc::new(VecSource::new(blobs.to_vec())),
        plugin,
        cfg,
        tel.clone(),
    )
    .expect("launch");
    let mut samples = 0u64;
    while let Some(b) = p.next_batch().expect("batch") {
        samples += b.len() as u64;
    }
    let secs = t0.elapsed().as_secs_f64();
    RunStats {
        samples_per_s: samples as f64 / secs,
        report: sampler.map(PipelineSampler::stop),
    }
}

fn main() {
    // Paper-scale samples (64³×4 voxels → 2 MiB FP16 tensors), so the
    // per-sample span cost is amortized over realistic decode work
    // rather than measured against trivially small samples.
    let mut cosmo_cfg = CosmoFlowConfig::test_small();
    cosmo_cfg.grid = 64;
    let blobs = DatasetBuilder::cosmoflow(cosmo_cfg).build(16, EncodedFormat::Custom);

    // Interleave a throwaway warmup of each variant, then best of three
    // alternating measured runs per variant — scheduler noise only ever
    // slows a run down.
    run_pipeline(&blobs, true);
    run_pipeline(&blobs, false);
    let (mut on, mut off) = (run_pipeline(&blobs, true), run_pipeline(&blobs, false));
    for _ in 0..2 {
        let i = run_pipeline(&blobs, true);
        if i.samples_per_s > on.samples_per_s {
            on = i;
        }
        let u = run_pipeline(&blobs, false);
        if u.samples_per_s > off.samples_per_s {
            off = u;
        }
    }

    let overhead_pct = (off.samples_per_s - on.samples_per_s) / off.samples_per_s * 100.0;
    let report = on.report.as_ref().expect("instrumented run has a report");
    let entries = vec![
        BenchEntry::new("obs_on_samples_per_s", on.samples_per_s, "samples/s"),
        BenchEntry::new("obs_off_samples_per_s", off.samples_per_s, "samples/s"),
        BenchEntry::new("obs_overhead_pct", overhead_pct, "%"),
        BenchEntry::new("obs_dropped_spans", report.dropped_spans as f64, "spans"),
        BenchEntry::new("obs_attribution_confidence", report.confidence, "ratio"),
    ];
    println!(
        "telemetry on {:.0} samples/s, off {:.0} samples/s, overhead {:.2}% \
         (bottleneck: {} at {:.2} confidence)",
        on.samples_per_s, off.samples_per_s, overhead_pct, report.bottleneck, report.confidence
    );
    match write_snapshot("obs_overhead", &entries) {
        Ok(path) => println!("overhead snapshot: {}", path.display()),
        Err(e) => eprintln!("overhead snapshot not written: {e}"),
    }
    let attribution = bench_out_dir().join("BENCH_obs_attribution.json");
    match std::fs::write(&attribution, report.to_json()) {
        Ok(()) => println!("attribution report: {}", attribution.display()),
        Err(e) => eprintln!("attribution report not written: {e}"),
    }
}
