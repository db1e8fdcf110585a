//! The paper's two correctness claims as gates: what the benchmark
//! checks only when someone runs it (`rel_err_le10_frac`, its
//! bit-for-bit CosmoFlow truth) holds on every `cargo test`.
//!
//! * §V-A: the DeepCAM encoding is lossy, "roughly 3 % of the values
//!   with larger than 10 % error, primarily for small values close to
//!   zero".
//! * The CosmoFlow encoding is lossless: the plugin's fused decode is the
//!   tensor the baseline's per-voxel preprocessing produces.
//! * Figs 6–7: training on decoded samples converges as training on the
//!   originals does, under one learning schedule.

use sciml_codec::{cosmoflow as cf, deepcam as dc, ErrorStats, Op};
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_minidnn::models::{crop_mask, deepcam_mini};
use sciml_minidnn::optim::Sgd;
use sciml_minidnn::train::{train_segmentation, TrainConfig};
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

/// Figs 6–7 (§VIII-A): "we merely used the same learning schedule … for
/// both classes of samples" and the loss curves lie on top of each other.
/// The same seeded DeepCAM-mini segmentation run twice, on the FP32
/// originals through the per-value op and on what `DeepCamPluginCpu`
/// decodes from the lossy encoding with the op fused; weights, shuffle
/// order and schedule are identical, so any gap is the encoding's.
#[test]
fn training_on_plugin_decoded_deepcam_tracks_training_on_the_originals() {
    let (width, height, channels) = (36, 24, 4);
    let generator = ClimateGenerator::new(DeepCamConfig {
        width,
        height,
        channels,
        cyclones: 1,
        rivers: 1,
        noise: 2.5e-3,
        seed: 99,
    });
    // Channel families to unit-ish scale; affine, so the plugin fuses it.
    let op = Op::Normalize {
        scale: 0.01,
        offset: 0.0,
    };
    let plugin = DeepCamPluginCpu { op };
    let (mut originals, mut decoded, mut masks) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..8 {
        let sample = generator.generate(i);
        let blob = dc::encode(&sample, &dc::EncoderConfig::default())
            .0
            .to_bytes();
        let out = plugin.decode(&blob).unwrap();
        assert_eq!(out.label, Label::Mask(sample.mask.clone()));
        decoded.push(out.data.iter().map(|v| v.to_f32()).collect::<Vec<f32>>());
        originals.push(sample.data.iter().map(|&v| op.apply(v)).collect());
        // Two valid 3x3 convolutions trim two pixels a side.
        masks.push(crop_mask(&sample.mask, width, height, 2));
    }
    assert_ne!(decoded, originals, "a lossless run measures nothing");
    let schedule = TrainConfig {
        batch: 2,
        epochs: 4,
        base_lr: 1e-3,
        warmup_steps: 4,
        shuffle_seed: 5,
    };
    let train = |inputs: &[Vec<f32>]| {
        let mut net = deepcam_mini(channels, 5);
        let mut opt = Sgd::new(schedule.base_lr, 0.9);
        let shape = [channels, height, width];
        train_segmentation(
            &mut net, &mut opt, inputs, &shape, &masks, 3, &schedule, None,
        )
    };
    let (base, from_plugin) = (train(&originals), train(&decoded));
    for (what, run) in [("originals", &base), ("decoded", &from_plugin)] {
        assert!(
            run.final_loss() < run.epoch_losses[0],
            "{what}: the loss does not fall: {:?}",
            run.epoch_losses
        );
    }
    // Tolerance: the final losses within 0.5 % of each other (measured:
    // 0.001 %; both fall by about a third over the four epochs).
    let gap = (base.final_loss() - from_plugin.final_loss()).abs() / base.final_loss();
    assert!(
        gap <= 0.005,
        "final losses {:?} and {:?} are {:.3} % apart",
        base.epoch_losses,
        from_plugin.epoch_losses,
        gap * 100.0
    );
}
