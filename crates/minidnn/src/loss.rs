//! Loss functions: value + gradient wrt predictions.

use crate::tensor::Tensor;

/// Mean squared error over all elements (CosmoFlow regression).
///
/// Returns `(loss, dL/dpred)`.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape, target.shape, "mse shape mismatch");
    let n = pred.len() as f32;
    let mut grad = Tensor::zeros(&pred.shape);
    let mut loss = 0.0;
    for ((g, &p), &t) in grad.data.iter_mut().zip(&pred.data).zip(&target.data) {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

/// Pixel-wise softmax cross-entropy (DeepCAM segmentation).
///
/// `logits: [B, CLASSES, …]` over `P` pixels of spatial dims (a conv
/// head's `[B, CLASSES, H, W]` as it is), `labels: [B, P]` of class
/// ids. Returns `(mean loss, dL/dlogits)`, the gradient in `logits`'
/// shape.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[u8], classes: usize) -> (f32, Tensor) {
    let b = logits.shape[0];
    debug_assert_eq!(logits.shape[1], classes);
    let p = logits.len() / (b * classes);
    assert_eq!(labels.len(), b * p, "label count mismatch");
    let mut grad = Tensor::zeros(&logits.shape);
    let mut loss = 0.0f64;
    for bi in 0..b {
        for pi in 0..p {
            // Collect logits of this pixel across classes.
            let mut maxv = f32::NEG_INFINITY;
            for c in 0..classes {
                maxv = maxv.max(logits.data[(bi * classes + c) * p + pi]);
            }
            let mut denom = 0.0f32;
            for c in 0..classes {
                denom += (logits.data[(bi * classes + c) * p + pi] - maxv).exp();
            }
            let label = labels[bi * p + pi] as usize;
            debug_assert!(label < classes, "label out of range");
            let logit_y = logits.data[(bi * classes + label) * p + pi];
            loss += (denom.ln() - (logit_y - maxv)) as f64;
            let scale = 1.0 / (b * p) as f32;
            for c in 0..classes {
                let soft = (logits.data[(bi * classes + c) * p + pi] - maxv).exp() / denom;
                let indicator = if c == label { 1.0 } else { 0.0 };
                grad.data[(bi * classes + c) * p + pi] = (soft - indicator) * scale;
            }
        }
    }
    ((loss / (b * p) as f64) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_perfect_prediction() {
        let p = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let (l, g) = mse(&p, &p);
        assert_eq!(l, 0.0);
        assert!(g.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_value_and_gradient() {
        let p = Tensor::from_vec(&[1, 2], vec![1.0, 3.0]);
        let t = Tensor::from_vec(&[1, 2], vec![0.0, 0.0]);
        let (l, g) = mse(&p, &t);
        assert!((l - 5.0).abs() < 1e-6);
        assert_eq!(g.data, vec![1.0, 3.0]);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        // 3 classes, uniform logits => loss = ln(3), grads push toward label.
        let logits = Tensor::zeros(&[1, 3, 2]);
        let labels = vec![0u8, 2u8];
        let (l, g) = softmax_cross_entropy(&logits, &labels, 3);
        assert!((l - 3f32.ln()).abs() < 1e-5);
        // Gradient at label class is negative, others positive.
        assert!(g.data[0] < 0.0); // class 0, pixel 0 (label 0)
        assert!(g.data[2] > 0.0); // class 1, pixel 0
        assert!(g.data[5] < 0.0); // class 2, pixel 1 (label 2)
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let mut logits = Tensor::zeros(&[1, 2, 1]);
        logits.data[0] = 10.0; // class 0 strongly predicted
        let (l_correct, _) = softmax_cross_entropy(&logits, &[0], 2);
        let (l_wrong, _) = softmax_cross_entropy(&logits, &[1], 2);
        assert!(l_correct < 1e-3);
        assert!(l_wrong > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_is_numerically_correct() {
        let logits = Tensor::from_vec(&[1, 3, 1], vec![0.5, -0.2, 0.1]);
        let labels = vec![1u8];
        let (_, g) = softmax_cross_entropy(&logits, &labels, 3);
        let eps = 1e-3;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp.data[i] += eps;
            let mut lm = logits.clone();
            lm.data[i] -= eps;
            let (vp, _) = softmax_cross_entropy(&lp, &labels, 3);
            let (vm, _) = softmax_cross_entropy(&lm, &labels, 3);
            let num = (vp - vm) / (2.0 * eps);
            assert!(
                (num - g.data[i]).abs() < 1e-3,
                "i={i}: {num} vs {}",
                g.data[i]
            );
        }
    }
}
