//! Shaped f32 buffers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major f32 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Dimensions, slowest first.
    pub shape: Vec<usize>,
    /// Row-major data, `len == shape.iter().product()`.
    pub data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Tensor from existing data.
    ///
    /// # Panics
    /// Panics if the data length does not match the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// He/Kaiming-style init: uniform in ±sqrt(6/fan_in), deterministic.
    pub fn kaiming(shape: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
        let bound = (6.0 / fan_in.max(1) as f32).sqrt();
        let data = (0..shape.iter().product())
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reinterprets with a new shape of equal volume.
    ///
    /// # Panics
    /// Panics on volume mismatch.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "reshape volume mismatch"
        );
        self.shape = shape.to_vec();
        self
    }

    /// Sets every element to zero (gradient reset).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Deterministic seeded RNG helper for initializers.
    pub fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(!t.is_empty());
        assert!(t.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_checks_shape() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((t.shape, t.data[3]), (vec![2, 2], 4.0));
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_panics_on_mismatch() {
        Tensor::from_vec(&[3], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]).reshape(&[2, 2]);
        assert_eq!(t.shape, vec![2, 2]);
        assert_eq!(t.data[3], 4.0);
    }

    #[test]
    fn kaiming_is_deterministic_and_bounded() {
        let mut r1 = Tensor::rng(7);
        let mut r2 = Tensor::rng(7);
        let a = Tensor::kaiming(&[10, 10], 10, &mut r1);
        let b = Tensor::kaiming(&[10, 10], 10, &mut r2);
        assert_eq!(a, b);
        let bound = (6.0f32 / 10.0).sqrt();
        assert!(a.data.iter().all(|v| v.abs() <= bound));
    }
}
