//! Layers with hand-written backprop.
//!
//! Every layer caches what it needs during `forward` and consumes it in
//! `backward`. Shapes are batched: the leading dimension is always the
//! batch. Convolutions are "valid" padding, stride 1; pooling is 2×
//! non-overlapping max.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rayon::prelude::*;

/// A differentiable layer.
pub trait Layer: Send {
    /// Forward pass; caches activations needed by backward.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Backward pass for the most recent forward; returns grad wrt input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits (parameter, gradient) pairs for the optimizer.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));
}

/// A sequential stack of layers.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Builds from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Forward through all layers.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for l in &mut self.layers {
            x = l.forward(&x);
        }
        x
    }

    /// Backward through all layers.
    pub fn backward(&mut self, grad: &Tensor) {
        let mut g = grad.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
    }

    /// Visits every parameter of the stack.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

// ---------------------------------------------------------------------

/// Fully connected layer: `y = x W^T + b` with `x: [B, in]`.
pub struct Dense {
    w: Tensor, // [out, in]
    b: Tensor, // [out]
    gw: Tensor,
    gb: Tensor,
    input: Option<Tensor>,
}

impl Dense {
    /// New dense layer with Kaiming init.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            w: Tensor::kaiming(&[out_dim, in_dim], in_dim, rng),
            b: Tensor::zeros(&[out_dim]),
            gw: Tensor::zeros(&[out_dim, in_dim]),
            gb: Tensor::zeros(&[out_dim]),
            input: None,
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let batch = input.shape[0];
        let in_dim = self.w.shape[1];
        let out_dim = self.w.shape[0];
        debug_assert_eq!(input.len(), batch * in_dim, "dense input shape");
        let mut out = Tensor::zeros(&[batch, out_dim]);
        out.data
            .par_chunks_mut(out_dim)
            .zip(input.data.par_chunks(in_dim))
            .for_each(|(orow, xrow)| {
                for (o, (wrow, &bias)) in orow
                    .iter_mut()
                    .zip(self.w.data.chunks(in_dim).zip(&self.b.data))
                {
                    let mut acc = bias;
                    for (w, x) in wrow.iter().zip(xrow) {
                        acc += w * x;
                    }
                    *o = acc;
                }
            });
        self.input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.take().expect("backward before forward");
        let batch = input.shape[0];
        let in_dim = self.w.shape[1];
        let out_dim = self.w.shape[0];
        // Parameter grads.
        for (xrow, grow) in input.data.chunks(in_dim).zip(grad_out.data.chunks(out_dim)) {
            for (o, &g) in grow.iter().enumerate() {
                self.gb.data[o] += g;
                let wrow = &mut self.gw.data[o * in_dim..(o + 1) * in_dim];
                for (wg, &x) in wrow.iter_mut().zip(xrow) {
                    *wg += g * x;
                }
            }
        }
        // Input grad: g W.
        let mut gin = Tensor::zeros(&[batch, in_dim]);
        gin.data
            .par_chunks_mut(in_dim)
            .zip(grad_out.data.par_chunks(out_dim))
            .for_each(|(gi, grow)| {
                for (o, &g) in grow.iter().enumerate() {
                    let wrow = &self.w.data[o * in_dim..(o + 1) * in_dim];
                    for (gi_v, &w) in gi.iter_mut().zip(wrow) {
                        *gi_v += g * w;
                    }
                }
            });
        gin
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

// ---------------------------------------------------------------------

/// ReLU activation.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = input.data.iter().map(|&v| v > 0.0).collect();
        Tensor {
            shape: input.shape.clone(),
            data: input.data.iter().map(|&v| v.max(0.0)).collect(),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        Tensor {
            shape: grad_out.shape.clone(),
            data: grad_out
                .data
                .iter()
                .zip(&self.mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
}

// ---------------------------------------------------------------------

/// Flatten everything but the batch dimension.
#[derive(Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.in_shape = input.shape.clone();
        let batch = input.shape[0];
        let rest = input.len() / batch;
        input.clone().reshape(&[batch, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone().reshape(&self.in_shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
}

// ---------------------------------------------------------------------

/// 2-D convolution, valid padding, stride 1. Input `[B, C, H, W]`,
/// kernels `[O, C, K, K]`, output `[B, O, H-K+1, W-K+1]`.
pub struct Conv2d {
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    k: usize,
    input: Option<Tensor>,
}

impl Conv2d {
    /// New conv layer.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, rng: &mut StdRng) -> Self {
        let fan_in = in_ch * k * k;
        Self {
            w: Tensor::kaiming(&[out_ch, in_ch, k, k], fan_in, rng),
            b: Tensor::zeros(&[out_ch]),
            gw: Tensor::zeros(&[out_ch, in_ch, k, k]),
            gb: Tensor::zeros(&[out_ch]),
            k,
            input: None,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (b, c, h, w) = (
            input.shape[0],
            input.shape[1],
            input.shape[2],
            input.shape[3],
        );
        let o = self.w.shape[0];
        let k = self.k;
        let (oh, ow) = (h - k + 1, w - k + 1);
        let mut out = Tensor::zeros(&[b, o, oh, ow]);
        let in_plane = h * w;
        let out_plane = oh * ow;
        out.data
            .par_chunks_mut(o * out_plane)
            .zip(input.data.par_chunks(c * in_plane))
            .for_each(|(ob, xb)| {
                for oc in 0..o {
                    let bias = self.b.data[oc];
                    let dst = &mut ob[oc * out_plane..(oc + 1) * out_plane];
                    dst.fill(bias);
                    for ic in 0..c {
                        let src = &xb[ic * in_plane..(ic + 1) * in_plane];
                        let ker =
                            &self.w.data[((oc * c + ic) * k * k)..((oc * c + ic + 1) * k * k)];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = 0.0;
                                for ky in 0..k {
                                    let row = &src[(oy + ky) * w + ox..(oy + ky) * w + ox + k];
                                    let krow = &ker[ky * k..ky * k + k];
                                    for (s, kv) in row.iter().zip(krow) {
                                        acc += s * kv;
                                    }
                                }
                                dst[oy * ow + ox] += acc;
                            }
                        }
                    }
                }
            });
        self.input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.take().expect("backward before forward");
        let (b, c, h, w) = (
            input.shape[0],
            input.shape[1],
            input.shape[2],
            input.shape[3],
        );
        let o = self.w.shape[0];
        let k = self.k;
        let (oh, ow) = (h - k + 1, w - k + 1);
        let in_plane = h * w;
        let out_plane = oh * ow;
        let mut gin = Tensor::zeros(&input.shape);

        for bi in 0..b {
            let xb = &input.data[bi * c * in_plane..(bi + 1) * c * in_plane];
            let gb_ = &grad_out.data[bi * o * out_plane..(bi + 1) * o * out_plane];
            let gi = &mut gin.data[bi * c * in_plane..(bi + 1) * c * in_plane];
            for oc in 0..o {
                let gplane = &gb_[oc * out_plane..(oc + 1) * out_plane];
                self.gb.data[oc] += gplane.iter().sum::<f32>();
                for ic in 0..c {
                    let src = &xb[ic * in_plane..(ic + 1) * in_plane];
                    let kbase = (oc * c + ic) * k * k;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let g = gplane[oy * ow + ox];
                            if g == 0.0 {
                                continue;
                            }
                            for ky in 0..k {
                                for kx in 0..k {
                                    self.gw.data[kbase + ky * k + kx] +=
                                        g * src[(oy + ky) * w + ox + kx];
                                    gi[ic * in_plane + (oy + ky) * w + ox + kx] +=
                                        g * self.w.data[kbase + ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        gin
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

// ---------------------------------------------------------------------

/// 3-D convolution, valid padding, stride 1. Input `[B, C, D, H, W]`,
/// kernels `[O, C, K, K, K]`.
pub struct Conv3d {
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    k: usize,
    input: Option<Tensor>,
}

impl Conv3d {
    /// New 3-D conv layer.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, rng: &mut StdRng) -> Self {
        let fan_in = in_ch * k * k * k;
        Self {
            w: Tensor::kaiming(&[out_ch, in_ch, k, k, k], fan_in, rng),
            b: Tensor::zeros(&[out_ch]),
            gw: Tensor::zeros(&[out_ch, in_ch, k, k, k]),
            gb: Tensor::zeros(&[out_ch]),
            k,
            input: None,
        }
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (b, c, d, h, w) = (
            input.shape[0],
            input.shape[1],
            input.shape[2],
            input.shape[3],
            input.shape[4],
        );
        let o = self.w.shape[0];
        let k = self.k;
        let (od, oh, ow) = (d - k + 1, h - k + 1, w - k + 1);
        let in_vol = d * h * w;
        let out_vol = od * oh * ow;
        let mut out = Tensor::zeros(&[b, o, od, oh, ow]);
        out.data
            .par_chunks_mut(o * out_vol)
            .zip(input.data.par_chunks(c * in_vol))
            .for_each(|(ob, xb)| {
                for oc in 0..o {
                    let dst = &mut ob[oc * out_vol..(oc + 1) * out_vol];
                    dst.fill(self.b.data[oc]);
                    for ic in 0..c {
                        let src = &xb[ic * in_vol..(ic + 1) * in_vol];
                        let kvol = k * k * k;
                        let ker = &self.w.data[(oc * c + ic) * kvol..(oc * c + ic + 1) * kvol];
                        for oz in 0..od {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let mut acc = 0.0;
                                    for kz in 0..k {
                                        for ky in 0..k {
                                            let base = ((oz + kz) * h + oy + ky) * w + ox;
                                            let krow =
                                                &ker[(kz * k + ky) * k..(kz * k + ky) * k + k];
                                            let srow = &src[base..base + k];
                                            for (s, kv) in srow.iter().zip(krow) {
                                                acc += s * kv;
                                            }
                                        }
                                    }
                                    dst[(oz * oh + oy) * ow + ox] += acc;
                                }
                            }
                        }
                    }
                }
            });
        self.input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.take().expect("backward before forward");
        let (b, c, d, h, w) = (
            input.shape[0],
            input.shape[1],
            input.shape[2],
            input.shape[3],
            input.shape[4],
        );
        let o = self.w.shape[0];
        let k = self.k;
        let (od, oh, ow) = (d - k + 1, h - k + 1, w - k + 1);
        let in_vol = d * h * w;
        let out_vol = od * oh * ow;
        let kvol = k * k * k;
        let mut gin = Tensor::zeros(&input.shape);
        for bi in 0..b {
            let xb = &input.data[bi * c * in_vol..(bi + 1) * c * in_vol];
            let gob = &grad_out.data[bi * o * out_vol..(bi + 1) * o * out_vol];
            let gi = &mut gin.data[bi * c * in_vol..(bi + 1) * c * in_vol];
            for oc in 0..o {
                let gplane = &gob[oc * out_vol..(oc + 1) * out_vol];
                self.gb.data[oc] += gplane.iter().sum::<f32>();
                for ic in 0..c {
                    let src = &xb[ic * in_vol..(ic + 1) * in_vol];
                    let kbase = (oc * c + ic) * kvol;
                    for oz in 0..od {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let g = gplane[(oz * oh + oy) * ow + ox];
                                if g == 0.0 {
                                    continue;
                                }
                                for kz in 0..k {
                                    for ky in 0..k {
                                        for kx in 0..k {
                                            let si = ((oz + kz) * h + oy + ky) * w + ox + kx;
                                            let ki = kbase + (kz * k + ky) * k + kx;
                                            self.gw.data[ki] += g * src[si];
                                            gi[ic * in_vol + si] += g * self.w.data[ki];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        gin
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

// ---------------------------------------------------------------------

/// 2× max pooling over the trailing `DIMS` spatial dimensions
/// (`DIMS = 2` for images, `3` for volumes). Truncates odd extents.
pub struct MaxPool<const DIMS: usize> {
    in_shape: Vec<usize>,
    argmax: Vec<usize>,
}

impl<const DIMS: usize> MaxPool<DIMS> {
    /// New pooling layer.
    pub fn new() -> Self {
        Self {
            in_shape: Vec::new(),
            argmax: Vec::new(),
        }
    }
}

impl<const DIMS: usize> Default for MaxPool<DIMS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const DIMS: usize> Layer for MaxPool<DIMS> {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let nd = input.shape.len();
        assert!(nd > DIMS, "maxpool needs batch + spatial dims");
        self.in_shape = input.shape.clone();
        let spatial = &input.shape[nd - DIMS..];
        let lead: usize = input.shape[..nd - DIMS].iter().product();
        let out_spatial: Vec<usize> = spatial.iter().map(|&s| s / 2).collect();
        let mut out_shape = input.shape[..nd - DIMS].to_vec();
        out_shape.extend_from_slice(&out_spatial);
        let in_vol: usize = spatial.iter().product();
        let out_vol: usize = out_spatial.iter().product();
        let mut out = Tensor::zeros(&out_shape);
        self.argmax = vec![0; lead * out_vol];

        // Iterate output cells; scan the 2^DIMS window.
        for l in 0..lead {
            let src = &input.data[l * in_vol..(l + 1) * in_vol];
            for oc in 0..out_vol {
                // Decompose oc into coordinates.
                let mut rem = oc;
                let mut coord = [0usize; 8];
                for dim in (0..DIMS).rev() {
                    coord[dim] = rem % out_spatial[dim];
                    rem /= out_spatial[dim];
                }
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for corner in 0..(1usize << DIMS) {
                    let mut idx = 0usize;
                    for (dim, &os) in out_spatial.iter().enumerate().take(DIMS) {
                        let _ = os;
                        let c = coord[dim] * 2 + ((corner >> dim) & 1);
                        idx = idx * spatial[dim] + c;
                    }
                    if src[idx] > best {
                        best = src[idx];
                        best_idx = idx;
                    }
                }
                out.data[l * out_vol + oc] = best;
                self.argmax[l * out_vol + oc] = best_idx;
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut gin = Tensor::zeros(&self.in_shape);
        let nd = self.in_shape.len();
        let spatial: usize = self.in_shape[nd - DIMS..].iter().product();
        let lead: usize = self.in_shape[..nd - DIMS].iter().product();
        let out_vol = grad_out.len() / lead;
        for l in 0..lead {
            for oc in 0..out_vol {
                let idx = self.argmax[l * out_vol + oc];
                gin.data[l * spatial + idx] += grad_out.data[l * out_vol + oc];
            }
        }
        gin
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check of a layer's input gradient.
    fn grad_check(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let out = layer.forward(input);
        // Loss = sum(out); dL/dout = 1.
        let ones = Tensor::from_vec(&out.shape, vec![1.0; out.len()]);
        let gin = layer.backward(&ones);
        let eps = 1e-2f32;
        for probe in [0, input.len() / 2, input.len() - 1] {
            let mut plus = input.clone();
            plus.data[probe] += eps;
            let mut minus = input.clone();
            minus.data[probe] -= eps;
            let lp: f32 = layer.forward(&plus).data.iter().sum();
            let _ = layer.backward(&Tensor::from_vec(&out.shape, vec![1.0; out.len()]));
            let lm: f32 = layer.forward(&minus).data.iter().sum();
            let _ = layer.backward(&Tensor::from_vec(&out.shape, vec![1.0; out.len()]));
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gin.data[probe]).abs() <= tol * (1.0 + num.abs()),
                "probe {probe}: numeric {num} vs analytic {}",
                gin.data[probe]
            );
        }
    }

    #[test]
    fn dense_forward_shapes_and_grad() {
        let mut rng = Tensor::rng(1);
        let mut d = Dense::new(6, 4, &mut rng);
        let x = Tensor::kaiming(&[3, 6], 6, &mut rng);
        let y = d.forward(&x);
        assert_eq!(y.shape, vec![3, 4]);
        grad_check(&mut d, &x, 1e-2);
    }

    #[test]
    fn dense_accumulates_param_grads() {
        let mut rng = Tensor::rng(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let y = d.forward(&x);
        d.backward(&Tensor::from_vec(&y.shape, vec![1.0, 1.0]));
        let mut saw = 0;
        d.visit_params(&mut |_, g| {
            saw += 1;
            assert!(g.data.iter().any(|&v| v != 0.0));
        });
        assert_eq!(saw, 2);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = r.forward(&x);
        assert_eq!(y.data, vec![0.0, 2.0, 0.0, 4.0]);
        let g = r.backward(&Tensor::from_vec(&[1, 4], vec![1.0; 4]));
        assert_eq!(g.data, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape, vec![2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.shape, vec![2, 3, 4]);
    }

    #[test]
    fn conv2d_shapes_and_grad() {
        let mut rng = Tensor::rng(3);
        let mut c = Conv2d::new(2, 3, 3, &mut rng);
        let x = Tensor::kaiming(&[2, 2, 6, 6], 4, &mut rng);
        let y = c.forward(&x);
        assert_eq!(y.shape, vec![2, 3, 4, 4]);
        grad_check(&mut c, &x, 2e-2);
    }

    #[test]
    fn conv3d_shapes_and_grad() {
        let mut rng = Tensor::rng(4);
        let mut c = Conv3d::new(2, 2, 2, &mut rng);
        let x = Tensor::kaiming(&[1, 2, 4, 4, 4], 8, &mut rng);
        let y = c.forward(&x);
        assert_eq!(y.shape, vec![1, 2, 3, 3, 3]);
        grad_check(&mut c, &x, 2e-2);
    }

    #[test]
    fn maxpool2_forward_and_routing() {
        let mut p = MaxPool::<2>::new();
        let x = Tensor::from_vec(&[1, 1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 9.0]);
        let y = p.forward(&x);
        assert_eq!(y.shape, vec![1, 1, 1, 2]);
        assert_eq!(y.data, vec![5.0, 9.0]);
        let g = p.backward(&Tensor::from_vec(&[1, 1, 1, 2], vec![1.0, 2.0]));
        assert_eq!(g.data, vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn maxpool3_shapes() {
        let mut p = MaxPool::<3>::new();
        let x = Tensor::kaiming(&[2, 3, 4, 4, 4], 10, &mut Tensor::rng(5));
        let y = p.forward(&x);
        assert_eq!(y.shape, vec![2, 3, 2, 2, 2]);
        let g = p.backward(&y);
        assert_eq!(g.shape, x.shape);
    }

    #[test]
    fn sequential_composes_and_counts_params() {
        let mut rng = Tensor::rng(6);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(8, 4, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 2, &mut rng)),
        ]);
        let x = Tensor::kaiming(&[5, 8], 8, &mut rng);
        let y = net.forward(&x);
        assert_eq!(y.shape, vec![5, 2]);
        net.backward(&Tensor::from_vec(&y.shape, vec![1.0; y.len()]));
        let mut params = 0;
        net.visit_params(&mut |p, _| params += p.len());
        assert_eq!(params, 8 * 4 + 4 + 4 * 2 + 2);
    }
}
