//! The paper's two correctness claims as gates: what the benchmark
//! checks only when someone runs it (`rel_err_le10_frac`, its
//! bit-for-bit CosmoFlow truth) holds on every `cargo test`.
//!
//! * §V-A: the DeepCAM encoding is lossy, "roughly 3 % of the values
//!   with larger than 10 % error, primarily for small values close to
//!   zero".
//! * The CosmoFlow encoding is lossless: the plugin's fused decode is the
//!   tensor the baseline's per-voxel preprocessing produces.
//! * Figs 6–7: training on samples the loader decodes converges as
//!   training on the originals does, under one learning schedule.

use sciml_bench::convergence::{cosmoflow_convergence, deepcam_convergence, ConvergenceConfig};
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

/// Figs 6–7 (§VIII-A): "we merely used the same learning schedule … for
/// both classes of samples" and the loss curves lie on top of each other.
/// The convergence harness trains the same seeded net twice, on the FP32
/// originals through the per-value op and on what the loader delivers:
/// the lossy encoding packed into a shard store and decoded by
/// `DeepCamPluginCpu` with the op fused. Weights, sample order and
/// schedule are identical, so any gap is the encoding's. The harness
/// also asserts that every label the loader delivers is the original's.
#[test]
fn training_on_plugin_decoded_deepcam_tracks_training_on_the_originals() {
    // A 36×24×4 image, 8 samples, two a step.
    let cfg = ConvergenceConfig {
        epochs: 4,
        ..ConvergenceConfig::test_small()
    };
    let run = deepcam_convergence(&cfg, 5);
    assert_ne!(
        run.base.step_losses, run.decoded.step_losses,
        "a lossless run measures nothing"
    );
    for (what, history) in [("originals", &run.base), ("decoded", &run.decoded)] {
        assert!(
            history.final_loss() < history.epoch_losses[0],
            "{what}: the loss does not fall: {:?}",
            history.epoch_losses
        );
    }
    // Tolerance: the final losses within 0.5 % of each other (measured:
    // 0.001 %; both fall by about a third over the four epochs).
    let (base, decoded) = (run.base.final_loss(), run.decoded.final_loss());
    let gap = (base - decoded).abs() / base;
    assert!(
        gap <= 0.005,
        "final losses {:?} and {:?} are {:.3} % apart",
        run.base.epoch_losses,
        run.decoded.epoch_losses,
        gap * 100.0
    );
}

/// Fig 7 (§VIII-A): the lossless CosmoFlow encoding, read through the
/// loader, trains as the originals do: both losses fall, and no epoch's
/// mean loss differs by 15 % of the first epoch's.
#[test]
fn training_on_plugin_decoded_cosmoflow_tracks_training_on_the_originals() {
    let cfg = ConvergenceConfig::test_small();
    let run = cosmoflow_convergence(&cfg, 3);
    assert_eq!(run.base.epoch_losses.len(), cfg.epochs);
    assert!(run.base.final_loss() < run.base.epoch_losses[0]);
    assert!(run.decoded.final_loss() < run.decoded.epoch_losses[0]);
    let scale = run.base.epoch_losses[0].abs().max(1e-6);
    assert!(
        run.max_epoch_gap() / scale < 0.15,
        "gap {} of {scale} ({:?} vs {:?})",
        run.max_epoch_gap(),
        run.base.epoch_losses,
        run.decoded.epoch_losses
    );
}
