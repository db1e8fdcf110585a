//! Scaled-down CosmoFlow and DeepCAM networks.
//!
//! The real CosmoFlow net is five 3-D conv layers + three dense layers
//! on 128³×4 inputs; the real DeepCAM is DeepLabv3+ on 1152×768×16. The
//! convergence experiments only need the same *task types* under the
//! same optimizer; these miniatures keep the layer structure (conv
//! feature extraction → head) at tractable sizes.

use crate::layers::{Conv2d, Conv3d, Dense, Flatten, MaxPool, Relu, Sequential};
use crate::tensor::Tensor;

/// CosmoFlow-mini: 2 × (Conv3d + ReLU + MaxPool) → Dense → ReLU → Dense(4).
///
/// Input `[B, 4, S, S, S]` (4 redshift channels over an S³ crop),
/// output `[B, 4]` (the cosmological parameters).
pub fn cosmoflow_mini(crop: usize, seed: u64) -> Sequential {
    let mut rng = Tensor::rng(seed);
    let c1 = 8;
    let c2 = 16;
    // Shapes: S -> S-2 -> (S-2)/2 -> (S-2)/2-2 -> ((S-2)/2-2)/2
    let s1 = (crop - 2) / 2;
    let s2 = (s1 - 2) / 2;
    assert!(s2 >= 1, "crop {crop} too small for the network");
    let flat = c2 * s2 * s2 * s2;
    Sequential::new(vec![
        Box::new(Conv3d::new(4, c1, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool::<3>::new()),
        Box::new(Conv3d::new(c1, c2, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool::<3>::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(flat, 64, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(64, 4, &mut rng)),
    ])
}

/// DeepCAM-mini: Conv2d(3×3) stack with a 3-class 1×1 head, operating on
/// `[B, C, H, W]` crops. Output logits `[B, 3, H-4, W-4]` (valid padding
/// trims 2 pixels per conv).
pub fn deepcam_mini(channels: usize, seed: u64) -> Sequential {
    let mut rng = Tensor::rng(seed);
    Sequential::new(vec![
        Box::new(Conv2d::new(channels, 8, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(8, 8, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(8, 3, 1, &mut rng)),
    ])
}

/// Crops the center of a DeepCAM mask to match the valid-padding logits
/// (`trim` pixels lost per side).
pub fn crop_mask(mask: &[u8], width: usize, height: usize, trim: usize) -> Vec<u8> {
    let (ow, oh) = (width - 2 * trim, height - 2 * trim);
    let mut out = Vec::with_capacity(ow * oh);
    for y in 0..oh {
        let row = (y + trim) * width + trim;
        out.extend_from_slice(&mask[row..row + ow]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosmoflow_mini_shapes() {
        let mut net = cosmoflow_mini(16, 0);
        let x = Tensor::zeros(&[2, 4, 16, 16, 16]);
        let y = net.forward(&x);
        assert_eq!(y.shape, vec![2, 4]);
    }

    #[test]
    fn deepcam_mini_shapes() {
        let mut net = deepcam_mini(4, 0);
        let x = Tensor::zeros(&[1, 4, 24, 32]);
        let y = net.forward(&x);
        assert_eq!(y.shape, vec![1, 3, 20, 28]);
    }

    #[test]
    fn same_seed_same_weights() {
        let mut a = cosmoflow_mini(16, 9);
        let mut b = cosmoflow_mini(16, 9);
        let x = Tensor::kaiming(&[1, 4, 16, 16, 16], 10, &mut Tensor::rng(1));
        assert_eq!(a.forward(&x).data, b.forward(&x).data);
    }

    #[test]
    fn crop_mask_trims_borders() {
        // 4x3 mask, trim 1 -> 2x1.
        let mask = vec![
            0, 1, 2, 3, //
            4, 5, 6, 7, //
            8, 9, 10, 11,
        ];
        assert_eq!(crop_mask(&mask, 4, 3, 1), vec![5, 6]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn cosmoflow_mini_rejects_tiny_crops() {
        cosmoflow_mini(6, 0);
    }
}
