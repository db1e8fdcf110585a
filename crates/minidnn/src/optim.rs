//! SGD with momentum, the optimizer both convergence runs train with.

use crate::layers::Sequential;
use crate::tensor::Tensor;

/// SGD with classical momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// New SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// One update step over every parameter of the network: applies the
    /// accumulated gradients and zeroes them.
    pub fn step(&mut self, net: &mut Sequential) {
        let mut i = 0;
        let lr = self.lr;
        let mu = self.momentum;
        let velocity = &mut self.velocity;
        net.visit_params(&mut |p, g| {
            if velocity.len() == i {
                velocity.push(Tensor::zeros(&p.shape));
            }
            let v = &mut velocity[i];
            for ((vv, pv), gv) in v.data.iter_mut().zip(&mut p.data).zip(&g.data) {
                *vv = mu * *vv - lr * gv;
                *pv += *vv;
            }
            g.zero();
            i += 1;
        });
    }

    /// Overrides the learning rate (the trainer's warmup sets it every
    /// step).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Sequential};
    use crate::loss::mse;

    fn quadratic_fit(optimizer: &mut Sgd) -> f32 {
        // Fit y = 2x with a single linear unit.
        let mut rng = Tensor::rng(1);
        let mut net = Sequential::new(vec![Box::new(Dense::new(1, 1, &mut rng))]);
        let x = Tensor::from_vec(&[4, 1], vec![-1.0, 0.0, 1.0, 2.0]);
        let y = Tensor::from_vec(&[4, 1], vec![-2.0, 0.0, 2.0, 4.0]);
        let mut last = f32::MAX;
        for _ in 0..200 {
            let pred = net.forward(&x);
            let (l, g) = mse(&pred, &y);
            net.backward(&g);
            optimizer.step(&mut net);
            last = l;
        }
        last
    }

    #[test]
    fn sgd_converges_on_linear_problem() {
        let mut opt = Sgd::new(0.05, 0.9);
        assert!(quadratic_fit(&mut opt) < 1e-3);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = Tensor::rng(2);
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 1, &mut rng))]);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let pred = net.forward(&x);
        let (_, g) = mse(&pred, &Tensor::zeros(&pred.shape));
        net.backward(&g);
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut net);
        net.visit_params(&mut |_, g| assert!(g.data.iter().all(|&v| v == 0.0)));
    }
}
