//! Minimal CPU deep-learning framework for the convergence experiments.
//!
//! The paper's Figs. 6–7 compare training-loss trajectories when the
//! model is fed FP32 baseline samples versus FP16 decoded samples. The
//! claim under test is *statistical*: the decoders preserve convergence.
//! Reproducing it does not require TensorFlow — it requires training the
//! same optimizer on the same schedule over both input paths. This crate
//! provides exactly that at laptop scale:
//!
//! * [`tensor`] — shaped f32 buffers with the few ops training needs;
//! * [`layers`] — Dense, Conv2d, Conv3d, ReLU, MaxPool, Flatten with
//!   hand-written backprop, and [`layers::Sequential`] to compose them;
//! * [`loss`] — MSE (CosmoFlow's parameter regression) and softmax
//!   cross-entropy over pixels (DeepCAM's segmentation);
//! * [`optim`] — SGD with momentum;
//! * [`models`] — the scaled-down CosmoFlow and DeepCAM networks;
//! * [`train`] — one training step and one evaluation, generic over the
//!   loss, under a fixed learning schedule (linear warmup, then
//!   constant). The epoch and batch loop is the caller's: it consumes a
//!   loader's batches, as a training script does.
//!
//! Determinism: every weight init takes an explicit seed and the caller
//! supplies the sample order, so base-vs-decoded runs fed the same
//! batches differ *only* in their input bytes.

pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod tensor;
pub mod train;

pub use tensor::Tensor;
