//! Batches delivered to the training loop.

use crate::pool::PooledTensor;
use sciml_half::F16;

/// A sample's training label.
#[derive(Debug, Clone, PartialEq)]
pub enum Label {
    /// CosmoFlow regression target (Ωm, σ8, n_s, h).
    Cosmo([f32; 4]),
    /// DeepCAM per-pixel segmentation mask.
    Mask(Vec<u8>),
}

/// A batch of decoded FP16 samples in sample-major layout.
///
/// The tensor is pool-backed: dropping the batch returns its buffer to
/// the [`crate::pool::BufferPool`] it was checked out of (or frees it,
/// for unpooled batches). Deliberately neither `Clone` nor cheaply
/// copyable — a batch is tens of megabytes at paper scale, and the
/// zero-copy path exists so it is written exactly once.
#[derive(Debug, PartialEq)]
pub struct Batch {
    /// Concatenated sample tensors (`batch × values_per_sample`).
    pub data: PooledTensor,
    /// Values per sample.
    pub sample_len: usize,
    /// One label per sample.
    pub labels: Vec<Label>,
    /// Dataset indices of the samples (for exactly-once accounting).
    pub indices: Vec<usize>,
    /// Epoch this batch belongs to. Batches arrive in completion order,
    /// so with more than one reader or decode thread the epochs of
    /// consecutive batches can interleave (see
    /// [`crate::Pipeline::next_batch`]).
    pub epoch: usize,
}

impl Batch {
    /// Samples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the batch carries no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The tensor of sample `i`.
    pub fn sample(&self, i: usize) -> &[F16] {
        &self.data[i * self.sample_len..(i + 1) * self.sample_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accessors() {
        let b = Batch {
            data: vec![F16::ONE; 6].into(),
            sample_len: 3,
            labels: vec![Label::Cosmo([0.3, 0.8, 0.96, 0.7]); 2],
            indices: vec![4, 9],
            epoch: 1,
        };
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.sample(1).len(), 3);
    }
}
