//! DeepCAM codec walk-through: encode a climate sample with the
//! differential codec, decode it on the CPU and on the simulated GPU,
//! inspect the lossiness profile, and run the pipeline end to end with
//! label masks intact.
//!
//! ```text
//! cargo run --release --example deepcam_pipeline
//! ```

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::deepcam as dc;
use sciml_codec::{ErrorStats, Op};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_half::slice::widen;
use sciml_pipeline::batch::Label;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Pipeline, PipelineConfig};
use sciml_platform::gpusim::{decode_deepcam, GpuSpec};
use std::sync::Arc;

fn main() {
    let gen_cfg = DeepCamConfig {
        width: 288,
        height: 192,
        channels: 8,
        ..DeepCamConfig::default()
    };
    let sample = ClimateGenerator::new(gen_cfg.clone()).generate(0);

    // Encode: per-line mode selection.
    let (enc, stats) = dc::encode(&sample, &dc::EncoderConfig::default());
    println!(
        "sample {}x{}x{}: raw {} bytes -> encoded {} bytes ({:.2}x)",
        sample.channels,
        sample.height,
        sample.width,
        sample.raw_f32_bytes(),
        enc.encoded_bytes(),
        enc.compression_ratio()
    );
    println!(
        "lines: {} constant / {} delta / {} raw; {} segments, {} escape literals",
        stats.constant_lines, stats.delta_lines, stats.raw_lines, stats.segments, stats.literals
    );

    // CPU decode and simulated-GPU decode must agree bit for bit.
    let cpu = dc::decode(&enc, Op::Identity).expect("cpu decode");
    let (dev, kstats, t) =
        decode_deepcam(&GpuSpec::V100, &enc.view(), Op::Identity).expect("gpu decode");
    assert_eq!(cpu, dev, "GPU kernel must match the CPU decoder");
    println!(
        "\nsimulated V100 decode: {:.1} us ({} warp tasks, {} cycles, {} B DRAM)",
        t * 1e6,
        kstats.tasks,
        kstats.cycles,
        kstats.dram_bytes
    );

    // Lossiness profile (§V-A: ≈3% of values above 10% error, near zero).
    let mut err = ErrorStats::new(1.0);
    err.record_slices(&widen(&cpu), &sample.data);
    println!(
        "lossiness: {:.3}% of values above 10% rel error; {:.0}% of those near zero",
        100.0 * err.frac_above_10pct(),
        100.0 * err.small_value_share()
    );

    // Pipeline with masks: labels travel losslessly.
    let builder = DatasetBuilder::deepcam(DeepCamConfig::test_small());
    let blobs = builder.build(8, EncodedFormat::Custom);
    let plugin = builder.plugin(EncodedFormat::Custom, Op::Identity);
    let pipeline = Pipeline::launch(
        Arc::new(VecSource::new(blobs)),
        plugin,
        PipelineConfig {
            batch_size: 2,
            epochs: 1,
            ..Default::default()
        },
    )
    .expect("launch");
    let (batches, _) = pipeline.collect_all().expect("run");
    let masked: usize = batches
        .iter()
        .flat_map(|b| &b.labels)
        .map(|l| match l {
            Label::Mask(m) => m.iter().filter(|&&c| c != 0).count(),
            _ => 0,
        })
        .sum();
    println!(
        "\npipeline delivered {} batches; {} anomaly pixels across all masks",
        batches.len(),
        masked
    );
}
