//! Training loops with a fixed learning schedule, for the Fig. 6/7
//! convergence-preservation experiments.

use crate::layers::Sequential;
use crate::loss::{mse, softmax_cross_entropy};
use crate::optim::Optimizer;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training-schedule parameters ("we merely used the same learning
/// schedule — warmup, learning rate — for both classes of samples").
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Samples per step.
    pub batch: usize,
    /// Full passes over the sample set.
    pub epochs: usize,
    /// Base learning rate after warmup.
    pub base_lr: f32,
    /// Linear warmup steps from 0 to `base_lr`.
    pub warmup_steps: usize,
    /// Shuffle seed (per-epoch shuffles derive from it).
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            batch: 2,
            epochs: 4,
            base_lr: 1e-3,
            warmup_steps: 8,
            shuffle_seed: 0,
        }
    }
}

/// Loss history of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Loss at every optimizer step.
    pub step_losses: Vec<f32>,
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation loss per epoch (empty when no validation set given).
    pub val_losses: Vec<f32>,
}

impl History {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().unwrap_or(&f32::NAN)
    }
}

/// Forward-only mean MSE over a sample set (no gradient, no update).
fn evaluate_regression(
    net: &mut Sequential,
    samples: &[Vec<f32>],
    input_shape: &[usize],
    labels: &[[f32; 4]],
) -> f32 {
    let mut sum = 0f64;
    for (x, y) in samples.iter().zip(labels) {
        let mut shape = vec![1usize];
        shape.extend_from_slice(input_shape);
        let xt = Tensor::from_vec(&shape, x.clone());
        let yt = Tensor::from_vec(&[1, 4], y.to_vec());
        let pred = net.forward(&xt);
        let (l, _) = mse(&pred, &yt);
        sum += l as f64;
    }
    (sum / samples.len().max(1) as f64) as f32
}

/// Forward-only mean pixel cross-entropy over a sample set.
fn evaluate_segmentation(
    net: &mut Sequential,
    samples: &[Vec<f32>],
    input_shape: &[usize],
    masks: &[Vec<u8>],
    classes: usize,
) -> f32 {
    let mut sum = 0f64;
    for (x, m) in samples.iter().zip(masks) {
        let mut shape = vec![1usize];
        shape.extend_from_slice(input_shape);
        let xt = Tensor::from_vec(&shape, x.clone());
        let logits = net.forward(&xt);
        let p = logits.len() / classes;
        let logits = logits.reshape(&[1, classes, p]);
        let (l, _) = softmax_cross_entropy(&logits, m, classes);
        sum += l as f64;
    }
    (sum / samples.len().max(1) as f64) as f32
}

fn lr_at(cfg: &TrainConfig, step: usize) -> f32 {
    if step < cfg.warmup_steps {
        cfg.base_lr * (step + 1) as f32 / cfg.warmup_steps as f32
    } else {
        cfg.base_lr
    }
}

fn epoch_order(cfg: &TrainConfig, epoch: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed.wrapping_add(epoch as u64));
    order.shuffle(&mut rng);
    order
}

/// Trains a regression network (CosmoFlow-mini): `samples[i]` is a
/// flattened input of shape `input_shape`, `labels[i]` the 4-parameter
/// target. A held-out `validation` set, when given, is evaluated after
/// every epoch (the paper tracked validation loss too: "the same
/// behavior is also seen in the loss function of the validation
/// samples").
#[allow(clippy::type_complexity)]
pub fn train_regression(
    net: &mut Sequential,
    opt: &mut dyn Optimizer,
    samples: &[Vec<f32>],
    input_shape: &[usize],
    labels: &[[f32; 4]],
    cfg: &TrainConfig,
    validation: Option<(&[Vec<f32>], &[[f32; 4]])>,
) -> History {
    assert_eq!(samples.len(), labels.len(), "sample/label count mismatch");
    let per_sample: usize = input_shape.iter().product();
    let mut history = History::default();
    let mut step = 0usize;
    for epoch in 0..cfg.epochs {
        let order = epoch_order(cfg, epoch, samples.len());
        let mut epoch_sum = 0f64;
        let mut epoch_batches = 0usize;
        for chunk in order.chunks(cfg.batch) {
            let mut shape = vec![chunk.len()];
            shape.extend_from_slice(input_shape);
            let mut data = Vec::with_capacity(chunk.len() * per_sample);
            let mut target = Vec::with_capacity(chunk.len() * 4);
            for &i in chunk {
                assert_eq!(samples[i].len(), per_sample, "sample shape mismatch");
                data.extend_from_slice(&samples[i]);
                target.extend_from_slice(&labels[i]);
            }
            let x = Tensor::from_vec(&shape, data);
            let y = Tensor::from_vec(&[chunk.len(), 4], target);
            opt.set_learning_rate(lr_at(cfg, step));
            let pred = net.forward(&x);
            let (l, g) = mse(&pred, &y);
            net.backward(&g);
            opt.step(net);
            history.step_losses.push(l);
            epoch_sum += l as f64;
            epoch_batches += 1;
            step += 1;
        }
        history
            .epoch_losses
            .push((epoch_sum / epoch_batches.max(1) as f64) as f32);
        if let Some((vx, vy)) = validation {
            history
                .val_losses
                .push(evaluate_regression(net, vx, input_shape, vy));
        }
    }
    history
}

/// Trains a segmentation network (DeepCAM-mini): `samples[i]` is a
/// flattened `[C, H, W]` input, `masks[i]` the per-pixel class ids
/// already cropped to the logits' spatial size. A held-out `validation`
/// set, when given, is evaluated after every epoch.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn train_segmentation(
    net: &mut Sequential,
    opt: &mut dyn Optimizer,
    samples: &[Vec<f32>],
    input_shape: &[usize],
    masks: &[Vec<u8>],
    classes: usize,
    cfg: &TrainConfig,
    validation: Option<(&[Vec<f32>], &[Vec<u8>])>,
) -> History {
    assert_eq!(samples.len(), masks.len(), "sample/mask count mismatch");
    let per_sample: usize = input_shape.iter().product();
    let mut history = History::default();
    let mut step = 0usize;
    for epoch in 0..cfg.epochs {
        let order = epoch_order(cfg, epoch, samples.len());
        let mut epoch_sum = 0f64;
        let mut epoch_batches = 0usize;
        for chunk in order.chunks(cfg.batch) {
            let mut shape = vec![chunk.len()];
            shape.extend_from_slice(input_shape);
            let mut data = Vec::with_capacity(chunk.len() * per_sample);
            let mut labels: Vec<u8> = Vec::new();
            for &i in chunk {
                data.extend_from_slice(&samples[i]);
                labels.extend_from_slice(&masks[i]);
            }
            let x = Tensor::from_vec(&shape, data);
            opt.set_learning_rate(lr_at(cfg, step));
            let logits = net.forward(&x);
            // Flatten spatial dims: [B, classes, P].
            let b = chunk.len();
            let p = logits.len() / (b * classes);
            let logits = logits.reshape(&[b, classes, p]);
            let (l, g) = softmax_cross_entropy(&logits, &labels, classes);
            net.backward(&g);
            opt.step(net);
            history.step_losses.push(l);
            epoch_sum += l as f64;
            epoch_batches += 1;
            step += 1;
        }
        history
            .epoch_losses
            .push((epoch_sum / epoch_batches.max(1) as f64) as f32);
        if let Some((vx, vm)) = validation {
            history
                .val_losses
                .push(evaluate_segmentation(net, vx, input_shape, vm, classes));
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{cosmoflow_mini, deepcam_mini};
    use crate::optim::Sgd;
    use rand::Rng;

    fn toy_regression_data(n: usize) -> (Vec<Vec<f32>>, Vec<[f32; 4]>) {
        let mut rng = Tensor::rng(3);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x: Vec<f32> = (0..4 * 12 * 12 * 12)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect();
            let m = x.iter().sum::<f32>() / x.len() as f32;
            ys.push([m, m * 0.5, 0.3, 0.1]);
            xs.push(x);
        }
        (xs, ys)
    }

    #[test]
    fn regression_loss_decreases() {
        let (xs, ys) = toy_regression_data(8);
        let mut net = cosmoflow_mini(12, 0);
        let mut opt = Sgd::new(2e-3, 0.9);
        let cfg = TrainConfig {
            batch: 2,
            epochs: 5,
            base_lr: 2e-3,
            warmup_steps: 4,
            shuffle_seed: 1,
        };
        let h = train_regression(&mut net, &mut opt, &xs, &[4, 12, 12, 12], &ys, &cfg, None);
        assert_eq!(h.epoch_losses.len(), 5);
        assert_eq!(h.step_losses.len(), 5 * 4);
        assert!(
            h.final_loss() < h.epoch_losses[0] * 0.9,
            "{:?}",
            h.epoch_losses
        );
    }

    #[test]
    fn segmentation_loss_decreases() {
        let mut rng = Tensor::rng(4);
        let (w, h_, c) = (20, 16, 2);
        let mut xs = Vec::new();
        let mut ms = Vec::new();
        for _ in 0..6 {
            let x: Vec<f32> = (0..c * w * h_).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // Mask correlated with channel 0 sign, cropped 2 px per side.
            let mut m = Vec::new();
            for y in 2..h_ - 2 {
                for xx in 2..w - 2 {
                    m.push(if x[y * w + xx] > 0.0 { 1u8 } else { 0 });
                }
            }
            xs.push(x);
            ms.push(m);
        }
        let mut net = deepcam_mini(c, 0);
        let mut opt = Sgd::new(0.05, 0.9);
        let cfg = TrainConfig {
            batch: 2,
            epochs: 6,
            base_lr: 0.05,
            warmup_steps: 3,
            shuffle_seed: 2,
        };
        let hist = train_segmentation(&mut net, &mut opt, &xs, &[c, h_, w], &ms, 3, &cfg, None);
        assert!(
            hist.final_loss() < hist.epoch_losses[0] * 0.9,
            "{:?}",
            hist.epoch_losses
        );
    }

    #[test]
    fn validation_tracking_populates_and_tracks_training() {
        let (xs, ys) = toy_regression_data(10);
        let (train_x, val_x) = xs.split_at(8);
        let (train_y, val_y) = ys.split_at(8);
        let mut net = cosmoflow_mini(12, 0);
        let mut opt = Sgd::new(2e-3, 0.9);
        let cfg = TrainConfig {
            batch: 2,
            epochs: 5,
            base_lr: 2e-3,
            warmup_steps: 4,
            shuffle_seed: 1,
        };
        let h = train_regression(
            &mut net,
            &mut opt,
            train_x,
            &[4, 12, 12, 12],
            train_y,
            &cfg,
            Some((val_x, val_y)),
        );
        assert_eq!(h.val_losses.len(), 5);
        // Validation loss on the same distribution should also fall.
        assert!(h.val_losses[4] < h.val_losses[0], "{:?}", h.val_losses);
    }

    #[test]
    fn no_validation_leaves_val_losses_empty() {
        let (xs, ys) = toy_regression_data(4);
        let mut net = cosmoflow_mini(12, 0);
        let mut opt = Sgd::new(1e-3, 0.9);
        let h = train_regression(
            &mut net,
            &mut opt,
            &xs,
            &[4, 12, 12, 12],
            &ys,
            &TrainConfig::default(),
            None,
        );
        assert!(h.val_losses.is_empty());
    }

    #[test]
    fn identical_inputs_identical_history() {
        let (xs, ys) = toy_regression_data(4);
        let cfg = TrainConfig::default();
        let run = || {
            let mut net = cosmoflow_mini(12, 7);
            let mut opt = Sgd::new(1e-3, 0.9);
            train_regression(&mut net, &mut opt, &xs, &[4, 12, 12, 12], &ys, &cfg, None)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warmup_schedule_ramps() {
        let cfg = TrainConfig {
            warmup_steps: 4,
            base_lr: 1.0,
            ..Default::default()
        };
        assert_eq!(lr_at(&cfg, 0), 0.25);
        assert_eq!(lr_at(&cfg, 3), 1.0);
        assert_eq!(lr_at(&cfg, 10), 1.0);
    }
}
