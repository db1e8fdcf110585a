//! The paper's two correctness claims as gates: what the benchmark
//! checks only when someone runs it (`rel_err_le10_frac`, its
//! bit-for-bit CosmoFlow truth) holds on every `cargo test`.
//!
//! * §V-A: the DeepCAM encoding is lossy, "roughly 3 % of the values
//!   with larger than 10 % error, primarily for small values close to
//!   zero".
//! * The CosmoFlow encoding is lossless: the plugin's fused decode is the
//!   tensor the baseline's per-voxel preprocessing produces.

use sciml_codec::{cosmoflow as cf, deepcam as dc, ErrorStats, Op};
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_pipeline::decoder::{CosmoPluginCpu, DeepCamPluginCpu};
use sciml_pipeline::{DecoderPlugin, Label};

#[test]
fn deepcam_error_budget_holds_at_the_default_operating_point() {
    // The benchmark's ingest shape, at two seeds.
    let mut stats = ErrorStats::new(1.0);
    for seed in [20220530, 7919] {
        let generator = ClimateGenerator::new(DeepCamConfig {
            width: 288,
            height: 192,
            channels: 8,
            seed,
            ..DeepCamConfig::default()
        });
        for i in 0..2 {
            let sample = generator.generate(i);
            let blob = dc::encode(&sample, &dc::EncoderConfig::default())
                .0
                .to_bytes();
            let decoded = DeepCamPluginCpu { op: Op::Identity }.decode(&blob).unwrap();
            assert_eq!(decoded.label, Label::Mask(sample.mask.clone()));
            assert_eq!(decoded.data.len(), sample.data.len());
            for (got, &want) in decoded.data.iter().zip(&sample.data) {
                stats.record(got.to_f32(), want);
            }
        }
    }
    // Paper: about 3 %.
    assert!(
        stats.frac_above_10pct() <= 0.05,
        "{:.4} of values are off by more than 10 %",
        stats.frac_above_10pct()
    );
    assert!(
        stats.large_error_total > 0,
        "a lossless run measures nothing"
    );
    assert!(
        stats.small_value_share() > 0.5,
        "only {:.3} of the large errors sit near zero",
        stats.small_value_share()
    );
}

#[test]
fn cosmoflow_plugin_decode_is_the_baselines_tensor_bit_for_bit() {
    for (grid, seed) in [(32, 20220530), (48, 7919)] {
        let generator = UniverseGenerator::new(CosmoFlowConfig {
            grid,
            seed,
            ..CosmoFlowConfig::default()
        });
        for i in 0..2 {
            let sample = generator.generate(i);
            let blob = cf::encode(&sample).to_bytes();
            let decoded = CosmoPluginCpu { op: Op::Log1p }.decode(&blob).unwrap();
            let want = cf::baseline_preprocess(&sample, Op::Log1p);
            assert_eq!(decoded.data.len(), want.len());
            let same = decoded
                .data
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "grid {grid} seed {seed} sample {i}");
            assert_eq!(decoded.label, Label::Cosmo(sample.label.as_array()));
        }
    }
}
