//! Quickstart: generate a synthetic CosmoFlow dataset, encode it with
//! the domain-specific codec, and feed it through the loading pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::Op;
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Pipeline, PipelineConfig};
use std::sync::Arc;

fn main() {
    // 1. A small synthetic universe set (32³ voxels, 4 redshifts each).
    let gen_cfg = CosmoFlowConfig::test_small();
    let builder = DatasetBuilder::cosmoflow(gen_cfg);
    let n = 16;

    // 2. Encode the dataset in the baseline and custom formats.
    let raw = builder.build(n, EncodedFormat::Base);
    let encoded = builder.build(n, EncodedFormat::Custom);
    let raw_bytes: usize = raw.iter().map(Vec::len).sum();
    let enc_bytes: usize = encoded.iter().map(Vec::len).sum();
    println!("dataset: {n} samples");
    println!("  raw f32:  {raw_bytes:>10} bytes");
    println!(
        "  encoded:  {enc_bytes:>10} bytes ({:.2}x smaller)",
        raw_bytes as f64 / enc_bytes as f64
    );

    // 3. Run the DALI-like pipeline with the CPU decoder plugin: decode
    //    is fused with the log1p preprocessing and emits FP16.
    let plugin = builder.plugin(EncodedFormat::Custom, Op::Log1p);
    let pipeline = Pipeline::launch(
        Arc::new(VecSource::new(encoded)),
        plugin,
        PipelineConfig {
            batch_size: 4,
            epochs: 1,
            ..Default::default()
        },
    )
    .expect("pipeline launch");

    let (batches, stats) = pipeline.collect_all().expect("pipeline run");
    println!("\npipeline delivered {} batches:", batches.len());
    for b in &batches {
        let first = b.sample(0);
        println!(
            "  epoch {} batch of {} samples, {} FP16 values each (sample[0][0..4] = {:?})",
            b.epoch,
            b.len(),
            b.sample_len,
            &first[..4].iter().map(|h| h.to_f32()).collect::<Vec<_>>()
        );
    }
    println!(
        "\nstage times: fetch {:.2} ms, decode {:.2} ms across {} samples",
        stats.fetch_seconds() * 1e3,
        stats.decode_seconds() * 1e3,
        stats.sample_count()
    );
}
