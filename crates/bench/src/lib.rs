//! The repo's tools: the `sciml` and `figures` binaries, the criterion
//! benches, and what they share with the root examples and tests.
//!
//! * [`dataset`] — generate a synthetic dataset in any of the paper's
//!   on-disk formats, and pick the decoder plugin that reads it;
//! * [`convergence`] — the Fig. 6 / Fig. 7 experiments: train the
//!   miniature models on FP32 baseline inputs versus FP16 decoded inputs
//!   under an identical schedule and compare loss trajectories;
//! * the mid-size samples the benches time, and [`snapshot`].

pub mod convergence;
pub mod dataset;
pub mod snapshot;

use sciml_data::cosmoflow::{CosmoFlowConfig, CosmoSample, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig, DeepCamSample};

/// A mid-size CosmoFlow sample (grid 48) — large enough for stable
/// timings, small enough that encode fits a bench iteration.
pub fn bench_cosmo_sample() -> CosmoSample {
    UniverseGenerator::new(CosmoFlowConfig {
        grid: 48,
        ..CosmoFlowConfig::default()
    })
    .generate(0)
}

/// A mid-size DeepCAM sample (8 × 256 × 384).
pub fn bench_deepcam_sample() -> DeepCamSample {
    ClimateGenerator::new(DeepCamConfig {
        width: 384,
        height: 256,
        channels: 8,
        ..DeepCamConfig::default()
    })
    .generate(0)
}

/// A mid-size DeepCAM sample with the synthetic sensor noise turned
/// down to simulation-output levels. The real DeepCAM fields are CAM5
/// model output — smooth, not sensor data — so the generator's default
/// noise floor overstates the entropy of the differential code stream;
/// this variant is the workload for second-stage compression benches.
pub fn bench_deepcam_sample_smooth() -> DeepCamSample {
    ClimateGenerator::new(DeepCamConfig {
        width: 384,
        height: 256,
        channels: 8,
        noise: 5.0e-4,
        ..DeepCamConfig::default()
    })
    .generate(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_samples_have_expected_shapes() {
        assert_eq!(bench_cosmo_sample().voxels(), 48 * 48 * 48);
        let d = bench_deepcam_sample();
        assert_eq!(d.data.len(), 8 * 256 * 384);
    }
}
