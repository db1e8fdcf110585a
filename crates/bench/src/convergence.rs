//! Convergence-preservation experiments (paper Figs. 6 and 7).
//!
//! Both figures compare training-loss trajectories when the model is fed
//! **base** samples (the FP32 originals, preprocessed per value) versus
//! **decoded** samples. The decoded arm reads the custom encoding through
//! the shipped loader: the blobs are packed into a shard store
//! (`EncodingChoice::Auto`) and a [`Pipeline`] over a [`ShardSource`]
//! delivers them, so read, CRC, unpack and the CPU plugin's fused FP16
//! decode are all on the path. One loader pass steps both nets: each
//! batch's tensor trains one, and the originals gathered at the batch's
//! [`Batch::indices`](sciml_pipeline::Batch::indices) train the other.
//! Weight init, sample order, learning schedule and optimizer are held
//! identical, so any divergence is attributable to the input encoding
//! alone, which is exactly the paper's experimental design ("we merely
//! used the same learning schedule … for both classes of samples").

use crate::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_half::slice::widen;
use sciml_minidnn::layers::Sequential;
use sciml_minidnn::loss::{mse, softmax_cross_entropy};
use sciml_minidnn::models::{cosmoflow_mini, crop_mask, deepcam_mini};
use sciml_minidnn::optim::Sgd;
use sciml_minidnn::train::{History, TrainConfig, Trainer};
use sciml_minidnn::Tensor;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Label, Pipeline, PipelineConfig, SampleSource};
use sciml_store::{pack_store, EncodingChoice, PackConfig, ShardSource};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
        }
    }

    /// Training samples plus the held-out ones: a quarter of the
    /// training size, drawn from the indices after the training set's.
    fn total(&self) -> u64 {
        (self.n_samples + (self.n_samples / 4).max(1)) as u64
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
/// `seed` seeds the weight init and the loader's shuffle.
pub fn cosmoflow_convergence(cfg: &ConvergenceConfig, seed: u64) -> ConvergenceRun {
    let gen_cfg = CosmoFlowConfig {
        grid: cfg.size,
        halos: 10,
        mass_scale: 60.0,
        background: 1,
        seed: 77,
    };
    let op = Op::Log1p;
    let g = UniverseGenerator::new(gen_cfg.clone());
    let originals: Vec<_> = (0..cfg.total())
        .map(|i| {
            let s = g.generate(i);
            // Base: per-voxel op in FP32, no rounding.
            let input = s.counts.iter().map(|&c| op.apply(c as f32)).collect();
            (input, Label::Cosmo(s.label.as_array()))
        })
        .collect();
    let shape = [4, cfg.size, cfg.size, cfg.size];
    let loss = |pred: &Tensor, labels: &[Label]| {
        let target = labels.iter().flat_map(|l| match l {
            Label::Cosmo(y) => *y,
            Label::Mask(_) => unreachable!("a CosmoFlow sample carries parameters"),
        });
        let target = Tensor::from_vec(&[labels.len(), 4], target.collect());
        mse(pred, &target)
    };
    let builder = DatasetBuilder::cosmoflow(gen_cfg);
    let net = || cosmoflow_mini(cfg.size, seed);
    compare(&builder, op, &originals, &shape, cfg, seed, net, loss)
}

/// Fig. 6: DeepCAM segmentation, base vs decoded inputs.
///
/// The decoded path runs the real (lossy) differential codec. `seed`
/// seeds the weight init and the loader's shuffle.
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
    // Normalize channel families to unit-ish scale so the tiny network
    // trains; the op is affine, hence fused in the decoded path.
    let op = Op::Normalize {
        scale: 0.01,
        offset: 0.0,
    };
    let g = ClimateGenerator::new(gen_cfg.clone());
    let originals: Vec<_> = (0..cfg.total())
        .map(|i| {
            let s = g.generate(i);
            let input = s.data.iter().map(|&v| op.apply(v)).collect();
            (input, Label::Mask(s.mask))
        })
        .collect();
    let loss = |logits: &Tensor, labels: &[Label]| {
        let masks: Vec<u8> = labels
            .iter()
            .flat_map(|l| match l {
                // Logit crop: two 3×3 valid convs trim 2 px per side.
                Label::Mask(m) => crop_mask(m, w, h, 2),
                Label::Cosmo(_) => unreachable!("a DeepCAM sample carries a mask"),
            })
            .collect();
        softmax_cross_entropy(logits, &masks, 3)
    };
    let builder = DatasetBuilder::deepcam(gen_cfg);
    let net = || deepcam_mini(c, seed);
    compare(&builder, op, &originals, &[c, h, w], cfg, seed, net, loss)
}

/// Samples and their labels, by dataset index.
type Samples = [(Vec<f32>, Label)];

/// A directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Trains one net on `originals` (the FP32 inputs with the op applied
/// per value) and one on what the loader decodes from the same samples'
/// custom encoding, batch by batch in lockstep, and evaluates both on
/// the held-out samples after every epoch. `loss` maps a net's output
/// and the batch's labels to the loss and its gradient.
#[allow(clippy::too_many_arguments)]
fn compare(
    builder: &DatasetBuilder,
    op: Op,
    originals: &Samples,
    shape: &[usize],
    cfg: &ConvergenceConfig,
    seed: u64,
    net: impl Fn() -> Sequential,
    loss: impl Fn(&Tensor, &[Label]) -> (f32, Tensor),
) -> ConvergenceRun {
    let n = cfg.n_samples;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = TempDir(
        std::env::temp_dir().join(format!("sciml_convergence_{}_{id}", std::process::id())),
    );
    let blobs = builder.build(originals.len(), EncodedFormat::Custom);
    let plugin = builder.plugin(EncodedFormat::Custom, op);
    let store = |name: &str, blobs: &[Vec<u8>]| -> Arc<dyn SampleSource> {
        let path = dir.0.join(name);
        let pack = PackConfig {
            encoding: EncodingChoice::Auto,
            ..PackConfig::default()
        };
        pack_store(&VecSource::new(blobs.to_vec()), &path, pack).expect("pack the store");
        Arc::new(ShardSource::open(&path).expect("open the store"))
    };
    let (train, val) = (store("train", &blobs[..n]), store("val", &blobs[n..]));

    // The held-out tensors: one loader epoch, each sample placed at its
    // index.
    let mut val_decoded = originals[n..].to_vec();
    let mut loader = Pipeline::launch(val, Arc::clone(&plugin), PipelineConfig::default())
        .expect("launch the validation loader");
    while let Some(batch) = loader.next_batch().expect("validation batch") {
        for (k, (&i, label)) in batch.indices.iter().zip(&batch.labels).enumerate() {
            assert_eq!(label, &val_decoded[i].1, "label of held-out sample {i}");
            val_decoded[i].0 = widen(batch.sample(k));
        }
    }
    let loss = &loss;
    let mut one = vec![1];
    one.extend_from_slice(shape);
    let end_epoch = |t: &mut Trainer, val: &Samples| {
        let samples = val.iter().map(|(x, label)| {
            let x = Tensor::from_vec(&one, x.clone());
            (x, move |out: &Tensor| {
                loss(out, std::slice::from_ref(label))
            })
        });
        let val_loss = t.evaluate(samples);
        t.end_epoch(Some(val_loss));
    };

    let schedule = TrainConfig {
        base_lr: cfg.lr,
        warmup_steps: 4,
    };
    let trainer = || Trainer::new(net(), Sgd::new(cfg.lr, 0.9), schedule.clone());
    let (mut base, mut decoded) = (trainer(), trainer());
    // One reader and one decoder: SGD depends on batch order, and with
    // more workers batches arrive in completion order. With one of each
    // they arrive in the seeded shuffle's order, epoch by epoch.
    let loader_cfg = PipelineConfig {
        batch_size: cfg.batch,
        reader_threads: 1,
        decode_threads: 1,
        epochs: cfg.epochs,
        seed,
        ..PipelineConfig::default()
    };
    let mut loader = Pipeline::launch(train, plugin, loader_cfg).expect("launch the loader");
    let mut epoch = 0;
    while let Some(batch) = loader.next_batch().expect("training batch") {
        if batch.epoch != epoch {
            end_epoch(&mut base, &originals[n..]);
            end_epoch(&mut decoded, &val_decoded);
            epoch = batch.epoch;
        }
        let mut gathered = Vec::with_capacity(batch.data.len());
        for (&i, label) in batch.indices.iter().zip(&batch.labels) {
            assert_eq!(label, &originals[i].1, "label of sample {i}");
            gathered.extend_from_slice(&originals[i].0);
        }
        let mut batch_shape = vec![batch.len()];
        batch_shape.extend_from_slice(shape);
        let x = Tensor::from_vec(&batch_shape, gathered);
        base.step(&x, |out| loss(out, &batch.labels));
        let x = Tensor::from_vec(&batch_shape, widen(&batch.data));
        decoded.step(&x, |out| loss(out, &batch.labels));
    }
    end_epoch(&mut base, &originals[n..]);
    end_epoch(&mut decoded, &val_decoded);
    ConvergenceRun {
        base: base.history,
        decoded: decoded.history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let again = cosmoflow_convergence(&cfg, 1);
        assert_eq!(a.base, again.base);
        assert_eq!(a.decoded, again.decoded);
    }
}
