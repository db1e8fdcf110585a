//! CosmoFlow pipeline comparison: the three host-decoded variants of
//! Figs. 10–11 (baseline, gzip, CPU plugin), measured for real on the
//! machine it runs on, plus the operator-fusion work reduction of §V-B.
//! The GPU plugin's bars are modelled (`figures fig10`).
//!
//! ```text
//! cargo run --release --example cosmoflow_pipeline
//! ```

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::cosmoflow as cf;
use sciml_codec::ops::OpCounter;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Pipeline, PipelineConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut gen_cfg = CosmoFlowConfig::test_small();
    gen_cfg.grid = 32;
    let builder = DatasetBuilder::cosmoflow(gen_cfg.clone());
    let n = 24;

    println!(
        "CosmoFlow pipeline variants ({n} samples, grid {}):\n",
        gen_cfg.grid
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>14}",
        "variant", "bytes", "wall ms", "decode ms", "samples/s"
    );

    let variants = [
        ("base", EncodedFormat::Base),
        ("gzip", EncodedFormat::Gzip),
        ("cpu-plugin", EncodedFormat::Custom),
    ];

    for (label, format) in variants {
        let blobs = builder.build(n, format);
        let bytes: usize = blobs.iter().map(Vec::len).sum();
        let plugin = builder.plugin(format, Op::Log1p);
        let t0 = Instant::now();
        let pipeline = Pipeline::launch(
            Arc::new(VecSource::new(blobs)),
            plugin,
            PipelineConfig {
                batch_size: 4,
                epochs: 2,
                ..Default::default()
            },
        )
        .expect("launch");
        let (batches, stats) = pipeline.collect_all().expect("run");
        let wall = t0.elapsed().as_secs_f64();
        let samples: usize = batches.iter().map(|b| b.len()).sum();
        println!(
            "{label:<12} {bytes:>12} {:>12.1} {:>12.1} {:>14.1}",
            wall * 1e3,
            stats.decode_seconds() * 1e3,
            samples as f64 / wall
        );
    }

    // Operator-fusion ablation: log1p applications per sample.
    let s = UniverseGenerator::new(gen_cfg).generate(0);
    let enc = cf::encode(&s);
    let fused = OpCounter::new();
    cf::decode_with_counter(&enc, Op::Log1p, &fused).expect("decode");
    let base = OpCounter::new();
    cf::baseline_preprocess_with_counter(&s, Op::Log1p, &base);
    println!(
        "\nfused-operator reduction: baseline {} log1p calls vs {} on unique values ({:.0}x)",
        base.count(),
        fused.count(),
        base.count() as f64 / fused.count() as f64
    );
    println!(
        "encoded sample: {:.2}x smaller than raw f32, {} unique groups in {} chunk(s)",
        enc.compression_ratio(),
        enc.total_groups(),
        enc.chunks.len()
    );
}
