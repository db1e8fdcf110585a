//! One training step and one evaluation under a fixed learning
//! schedule, for the Fig. 6/7 convergence-preservation experiments.
//!
//! Both are generic over the loss: the caller passes the function from
//! the net's output to the loss and its gradient ([`crate::loss::mse`]
//! against a target, [`crate::loss::softmax_cross_entropy`] against a
//! mask). The epoch and batch loop belongs to the caller, as it does in
//! a training script that consumes a data loader's batches.

use crate::layers::Sequential;
use crate::optim::Sgd;
use crate::tensor::Tensor;

/// Training-schedule parameters ("we merely used the same learning
/// schedule — warmup, learning rate — for both classes of samples").
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Base learning rate after warmup.
    pub base_lr: f32,
    /// Linear warmup steps from 0 to `base_lr`.
    pub warmup_steps: usize,
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

fn lr_at(cfg: &TrainConfig, step: usize) -> f32 {
    if step < cfg.warmup_steps {
        cfg.base_lr * (step + 1) as f32 / cfg.warmup_steps as f32
    } else {
        cfg.base_lr
    }
}

/// A network in training: its optimizer, its schedule and the losses
/// recorded so far.
pub struct Trainer {
    net: Sequential,
    opt: Sgd,
    cfg: TrainConfig,
    /// Losses recorded so far.
    pub history: History,
    /// First step of the open epoch.
    epoch_start: usize,
}

impl Trainer {
    /// A trainer at step 0.
    pub fn new(net: Sequential, opt: Sgd, cfg: TrainConfig) -> Self {
        Self {
            net,
            opt,
            cfg,
            history: History::default(),
            epoch_start: 0,
        }
    }

    /// One optimizer step on the batch `x` at the schedule's learning
    /// rate; `loss` maps the net's output to the loss and its gradient.
    pub fn step(&mut self, x: &Tensor, loss: impl FnOnce(&Tensor) -> (f32, Tensor)) {
        let step = self.history.step_losses.len();
        self.opt.set_learning_rate(lr_at(&self.cfg, step));
        let (l, g) = loss(&self.net.forward(x));
        self.net.backward(&g);
        self.opt.step(&mut self.net);
        self.history.step_losses.push(l);
    }

    /// Forward-only mean loss over `samples`, one at a time (no
    /// gradient, no update). Each sample comes with its own loss, as in
    /// [`Trainer::step`]. The paper tracked a held-out set too: "the
    /// same behavior is also seen in the loss function of the
    /// validation samples".
    pub fn evaluate<L>(&mut self, samples: impl IntoIterator<Item = (Tensor, L)>) -> f32
    where
        L: FnOnce(&Tensor) -> (f32, Tensor),
    {
        let (mut sum, mut n) = (0f64, 0usize);
        for (x, loss) in samples {
            sum += loss(&self.net.forward(&x)).0 as f64;
            n += 1;
        }
        (sum / n.max(1) as f64) as f32
    }

    /// Closes an epoch: records the mean loss of its steps and, when
    /// given, its validation loss.
    pub fn end_epoch(&mut self, val_loss: Option<f32>) {
        let steps = &self.history.step_losses[self.epoch_start..];
        let sum: f64 = steps.iter().map(|&l| l as f64).sum();
        self.history
            .epoch_losses
            .push((sum / steps.len().max(1) as f64) as f32);
        self.history.val_losses.extend(val_loss);
        self.epoch_start = self.history.step_losses.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse, softmax_cross_entropy};
    use crate::models::{cosmoflow_mini, deepcam_mini};
    use rand::Rng;

    const SHAPE: [usize; 4] = [4, 12, 12, 12];

    /// Samples stacked into one `[n, shape…]` batch.
    fn stack(xs: &[Vec<f32>], shape: &[usize]) -> Tensor {
        let mut batch = vec![xs.len()];
        batch.extend_from_slice(shape);
        Tensor::from_vec(&batch, xs.concat())
    }

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

    fn regressor(seed: u64) -> Trainer {
        let cfg = TrainConfig {
            base_lr: 2e-3,
            warmup_steps: 4,
        };
        Trainer::new(cosmoflow_mini(12, seed), Sgd::new(2e-3, 0.9), cfg)
    }

    /// Inputs and their regression targets.
    type Set<'a> = (&'a [Vec<f32>], &'a [[f32; 4]]);

    /// `epochs` in-order passes of two-sample steps, each closed with
    /// the loss over `validation` when given.
    fn fit_regression(t: &mut Trainer, (xs, ys): Set, epochs: usize, validation: Option<Set>) {
        let target = |ys: &[[f32; 4]]| Tensor::from_vec(&[ys.len(), 4], ys.concat());
        for _ in 0..epochs {
            for (x, y) in xs.chunks(2).zip(ys.chunks(2)) {
                let y = target(y);
                t.step(&stack(x, &SHAPE), |out| mse(out, &y));
            }
            let val = validation.map(|(vx, vy)| {
                t.evaluate(vx.chunks(1).zip(vy.chunks(1)).map(|(x, y)| {
                    let y = target(y);
                    (stack(x, &SHAPE), move |out: &Tensor| mse(out, &y))
                }))
            });
            t.end_epoch(val);
        }
    }

    #[test]
    fn regression_loss_decreases() {
        let (xs, ys) = toy_regression_data(8);
        let mut t = regressor(0);
        fit_regression(&mut t, (&xs, &ys), 5, None);
        let h = &t.history;
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
            let pixels = (2..h_ - 2).flat_map(|y| (2..w - 2).map(move |xx| y * w + xx));
            ms.push(pixels.map(|i| u8::from(x[i] > 0.0)).collect::<Vec<u8>>());
            xs.push(x);
        }
        let cfg = TrainConfig {
            base_lr: 0.05,
            warmup_steps: 3,
        };
        let mut t = Trainer::new(deepcam_mini(c, 0), Sgd::new(0.05, 0.9), cfg);
        for _ in 0..6 {
            for (x, m) in xs.chunks(2).zip(ms.chunks(2)) {
                let m = m.concat();
                t.step(&stack(x, &[c, h_, w]), |logits| {
                    softmax_cross_entropy(logits, &m, 3)
                });
            }
            t.end_epoch(None);
        }
        let hist = &t.history;
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
        let mut t = regressor(0);
        fit_regression(&mut t, (train_x, train_y), 5, Some((val_x, val_y)));
        let h = &t.history;
        assert_eq!(h.val_losses.len(), 5);
        // Validation loss on the same distribution should also fall.
        assert!(h.val_losses[4] < h.val_losses[0], "{:?}", h.val_losses);
    }

    #[test]
    fn no_validation_leaves_val_losses_empty() {
        let (xs, ys) = toy_regression_data(4);
        let mut t = regressor(0);
        fit_regression(&mut t, (&xs, &ys), 4, None);
        assert!(t.history.val_losses.is_empty());
    }

    #[test]
    fn identical_inputs_identical_history() {
        let (xs, ys) = toy_regression_data(4);
        let run = || {
            let mut t = regressor(7);
            fit_regression(&mut t, (&xs, &ys), 4, None);
            t.history
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warmup_schedule_ramps() {
        let cfg = TrainConfig {
            warmup_steps: 4,
            base_lr: 1.0,
        };
        assert_eq!(lr_at(&cfg, 0), 0.25);
        assert_eq!(lr_at(&cfg, 3), 1.0);
        assert_eq!(lr_at(&cfg, 10), 1.0);
    }
}
