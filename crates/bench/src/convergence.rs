//! Convergence-preservation experiments (paper Figs. 6 and 7).
//!
//! Both figures compare training-loss trajectories when the model is fed
//! **base** samples (FP32 straight from storage, preprocessed per value)
//! versus **decoded** samples (through the real codec, FP16 emission,
//! fused preprocessing). Everything else — weight init, shuffle order,
//! learning schedule, optimizer — is held identical, so any divergence
//! is attributable to the input encoding alone, which is exactly the
//! paper's experimental design ("we merely used the same learning
//! schedule … for both classes of samples").

use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_half::slice::widen;
use sciml_minidnn::models::{cosmoflow_mini, crop_mask, deepcam_mini};
use sciml_minidnn::optim::Sgd;
use sciml_minidnn::train::{train_regression, train_segmentation, History, TrainConfig};

/// Shared configuration of a convergence run.
#[derive(Debug, Clone)]
pub struct ConvergenceConfig {
    /// Training samples.
    pub n_samples: usize,
    /// Spatial size (CosmoFlow grid edge / DeepCAM crop scale divisor).
    pub size: usize,
    /// Epochs.
    pub epochs: usize,
    /// Batch size ("with two samples processed per step" — Fig. 6).
    pub batch: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl ConvergenceConfig {
    /// Fast configuration for tests.
    pub fn test_small() -> Self {
        Self {
            n_samples: 8,
            size: 12,
            epochs: 3,
            batch: 2,
            lr: 1e-3,
            seed: 1,
        }
    }

    /// Scaled-down stand-in for the paper's single-GPU runs
    /// (1536-sample DeepCAM / 128-sample CosmoFlow sessions).
    pub fn paper_scaled() -> Self {
        Self {
            n_samples: 48,
            size: 16,
            epochs: 8,
            batch: 2,
            lr: 1.5e-3,
            seed: 1,
        }
    }
}

/// The two loss trajectories of one base-vs-decoded comparison.
#[derive(Debug, Clone)]
pub struct ConvergenceRun {
    /// FP32 baseline history.
    pub base: History,
    /// FP16 decoded-samples history.
    pub decoded: History,
}

impl ConvergenceRun {
    /// Largest absolute per-epoch loss gap between the two paths.
    pub fn max_epoch_gap(&self) -> f32 {
        self.base
            .epoch_losses
            .iter()
            .zip(&self.decoded.epoch_losses)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Fig. 7: CosmoFlow parameter regression, base vs decoded inputs.
///
/// The decoded path runs the real LUT codec with the fused `log1p` and
/// FP16 emission; the base path applies `log1p` per voxel in FP32.
pub fn cosmoflow_convergence(cfg: &ConvergenceConfig, seed: u64) -> ConvergenceRun {
    let gen_cfg = CosmoFlowConfig {
        grid: cfg.size,
        halos: 10,
        mass_scale: 60.0,
        background: 1,
        seed: 77,
    };
    let g = UniverseGenerator::new(gen_cfg);
    // Held-out validation shard: a quarter of the training size, drawn
    // from disjoint universe indices.
    let n_val = (cfg.n_samples / 4).max(1);
    let total = cfg.n_samples + n_val;
    let mut base_inputs = Vec::with_capacity(total);
    let mut decoded_inputs = Vec::with_capacity(total);
    let mut labels = Vec::with_capacity(total);
    for i in 0..total as u64 {
        let s = g.generate(i);
        labels.push(s.label.as_array());
        // Base: per-voxel op in FP32, no rounding.
        base_inputs.push(
            s.counts
                .iter()
                .map(|&c| Op::Log1p.apply(c as f32))
                .collect::<Vec<f32>>(),
        );
        // Decoded: the real fused FP16 path.
        let enc = cf::encode(&s);
        decoded_inputs.push(widen(&cf::decode(&enc, Op::Log1p).expect("decode")));
    }
    let shape = [4usize, cfg.size, cfg.size, cfg.size];
    let train_cfg = TrainConfig {
        batch: cfg.batch,
        epochs: cfg.epochs,
        base_lr: cfg.lr,
        warmup_steps: 4,
        shuffle_seed: seed,
    };
    let run = |inputs: &[Vec<f32>]| {
        let (train_x, val_x) = inputs.split_at(cfg.n_samples);
        let (train_y, val_y) = labels.split_at(cfg.n_samples);
        let mut net = cosmoflow_mini(cfg.size, seed);
        let mut opt = Sgd::new(cfg.lr, 0.9);
        train_regression(
            &mut net,
            &mut opt,
            train_x,
            &shape,
            train_y,
            &train_cfg,
            Some((val_x, val_y)),
        )
    };
    ConvergenceRun {
        base: run(&base_inputs),
        decoded: run(&decoded_inputs),
    }
}

/// Fig. 6: DeepCAM segmentation, base vs decoded inputs.
///
/// The decoded path runs the real (lossy) differential codec.
pub fn deepcam_convergence(cfg: &ConvergenceConfig, seed: u64) -> ConvergenceRun {
    let (w, h, c) = (cfg.size * 3, cfg.size * 2, 4);
    let gen_cfg = DeepCamConfig {
        width: w,
        height: h,
        channels: c,
        cyclones: 1,
        rivers: 1,
        noise: 2.5e-3,
        seed: 99,
    };
    let g = ClimateGenerator::new(gen_cfg);
    // Normalize channel families to unit-ish scale so the tiny network
    // trains; the op is affine, hence fused in the decoded path.
    let op = Op::Normalize {
        scale: 0.01,
        offset: 0.0,
    };
    let n_val = (cfg.n_samples / 4).max(1);
    let total = cfg.n_samples + n_val;
    let mut base_inputs = Vec::with_capacity(total);
    let mut decoded_inputs = Vec::with_capacity(total);
    let mut masks = Vec::with_capacity(total);
    for i in 0..total as u64 {
        let s = g.generate(i);
        // Logit crop: two 3×3 valid convs trim 2 px per side.
        masks.push(crop_mask(&s.mask, w, h, 2));
        base_inputs.push(s.data.iter().map(|&v| op.apply(v)).collect::<Vec<f32>>());
        let (enc, _) = dc::encode(&s, &dc::EncoderConfig::default());
        decoded_inputs.push(widen(&dc::decode(&enc, op).expect("decode")));
    }
    let shape = [c, h, w];
    let train_cfg = TrainConfig {
        batch: cfg.batch,
        epochs: cfg.epochs,
        base_lr: cfg.lr,
        warmup_steps: 4,
        shuffle_seed: seed,
    };
    let run = |inputs: &[Vec<f32>]| {
        let (train_x, val_x) = inputs.split_at(cfg.n_samples);
        let (train_m, val_m) = masks.split_at(cfg.n_samples);
        let mut net = deepcam_mini(c, seed);
        let mut opt = Sgd::new(cfg.lr, 0.9);
        train_segmentation(
            &mut net,
            &mut opt,
            train_x,
            &shape,
            train_m,
            3,
            &train_cfg,
            Some((val_x, val_m)),
        )
    };
    ConvergenceRun {
        base: run(&base_inputs),
        decoded: run(&decoded_inputs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosmoflow_decoded_matches_base_convergence() {
        let cfg = ConvergenceConfig::test_small();
        let run = cosmoflow_convergence(&cfg, 3);
        assert_eq!(run.base.epoch_losses.len(), cfg.epochs);
        // Losses must decrease and the two paths must track each other.
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

    #[test]
    fn deepcam_decoded_matches_base_convergence_despite_lossy_codec() {
        let cfg = ConvergenceConfig::test_small();
        let run = deepcam_convergence(&cfg, 5);
        assert!(run.base.final_loss() < run.base.epoch_losses[0]);
        let scale = run.base.epoch_losses[0].abs().max(1e-6);
        assert!(
            run.max_epoch_gap() / scale < 0.15,
            "gap {} ({:?} vs {:?})",
            run.max_epoch_gap(),
            run.base.epoch_losses,
            run.decoded.epoch_losses
        );
    }

    #[test]
    fn validation_losses_track_between_paths_too() {
        // §VIII-A: "The same behavior is also seen in the loss function
        // of the validation samples."
        let cfg = ConvergenceConfig::test_small();
        let run = cosmoflow_convergence(&cfg, 4);
        assert_eq!(run.base.val_losses.len(), cfg.epochs);
        assert_eq!(run.decoded.val_losses.len(), cfg.epochs);
        let gap: f32 = run
            .base
            .val_losses
            .iter()
            .zip(&run.decoded.val_losses)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        let scale = run.base.val_losses[0].abs().max(1e-6);
        assert!(gap / scale < 0.2, "val gap {gap} of {scale}");
    }

    #[test]
    fn different_seeds_give_different_trajectories() {
        let cfg = ConvergenceConfig::test_small();
        let a = cosmoflow_convergence(&cfg, 1);
        let b = cosmoflow_convergence(&cfg, 2);
        assert_ne!(a.base.step_losses, b.base.step_losses);
    }
}
