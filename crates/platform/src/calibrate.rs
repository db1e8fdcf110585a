//! Host calibration: measure the real codecs on *this* machine and
//! build a workload profile + platform spec for it.
//!
//! The shipped [`WorkloadProfile`]s carry Cori-V100-referenced constants
//! so Figs. 8–12 reproduce the paper's platforms. This module provides
//! the honest counterpart: run the actual encoder/decoder/inflate code
//! on locally generated samples, measure single-core rates, and scale
//! them to full-sample sizes — so the epoch model can also answer "what
//! would this pipeline do on *my* node?". Used by `examples/
//! platform_whatif.rs`-style studies and validated by smoke tests only
//! (wall-clock measurements are not asserted against tight bounds).

use crate::spec::{BandwidthCurve, PlatformSpec};
use crate::workload::WorkloadProfile;
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_gpusim::GpuSpec;
use std::time::Instant;

/// Measured single-core rates on the local host (bytes of *raw-sample
/// equivalent* processed per second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostRates {
    /// Baseline preprocessing (parse + per-value op + FP16 cast).
    pub preproc_bps: f64,
    /// gzip inflate, measured on the compressed baseline payload.
    pub inflate_bps: f64,
    /// Custom-codec decode with fused op.
    pub decode_bps: f64,
}

/// Measures CosmoFlow-path rates at a reduced grid and returns
/// raw-equivalent single-core rates.
pub fn measure_cosmoflow_rates(grid: usize) -> HostRates {
    let cfg = CosmoFlowConfig {
        grid,
        ..CosmoFlowConfig::default()
    };
    let s = UniverseGenerator::new(cfg).generate(0);
    let raw = serialize::cosmo_to_payload(&s);
    let gz = sciml_compress::gzip_compress(&raw, sciml_compress::Level::Default);
    let enc = cf::encode(&s);
    let raw_bytes = raw.len() as f64;

    let time = |mut f: Box<dyn FnMut()>| -> f64 {
        // One warmup, then enough iterations to pass ~30 ms.
        f();
        let t0 = Instant::now();
        let mut iters = 0u32;
        while t0.elapsed().as_secs_f64() < 0.03 {
            f();
            iters += 1;
        }
        t0.elapsed().as_secs_f64() / iters.max(1) as f64
    };

    let t_pre = {
        let s = s.clone();
        time(Box::new(move || {
            let _ = cf::baseline_preprocess(&s, Op::Log1p);
        }))
    };
    let t_inf = {
        let gz = gz.clone();
        time(Box::new(move || {
            let _ = sciml_compress::gzip_decompress(&gz).expect("inflate");
        }))
    };
    let t_dec = {
        let enc = enc.clone();
        time(Box::new(move || {
            let _ = cf::decode(&enc, Op::Log1p).expect("decode");
        }))
    };

    HostRates {
        preproc_bps: raw_bytes / t_pre,
        inflate_bps: raw_bytes / t_inf,
        decode_bps: raw_bytes / t_dec,
    }
}

/// Measures DeepCAM-path rates at a reduced image size.
pub fn measure_deepcam_rates(width: usize, height: usize, channels: usize) -> HostRates {
    let cfg = DeepCamConfig {
        width,
        height,
        channels,
        ..DeepCamConfig::default()
    };
    let s = ClimateGenerator::new(cfg).generate(0);
    let h5 = serialize::deepcam_to_h5(&s).expect("serialize");
    let gz = sciml_compress::gzip_compress(&h5, sciml_compress::Level::Default);
    let (enc, _) = dc::encode(&s, &dc::EncoderConfig::default());
    let raw_bytes = s.raw_f32_bytes() as f64;
    let op = Op::Normalize {
        scale: 0.05,
        offset: 0.0,
    };

    let time = |mut f: Box<dyn FnMut()>| -> f64 {
        f();
        let t0 = Instant::now();
        let mut iters = 0u32;
        while t0.elapsed().as_secs_f64() < 0.03 {
            f();
            iters += 1;
        }
        t0.elapsed().as_secs_f64() / iters.max(1) as f64
    };

    let t_pre = {
        let h5 = h5.clone();
        time(Box::new(move || {
            let mut s = serialize::deepcam_from_h5(&h5).expect("parse");
            let mut out = vec![sciml_half::F16::ZERO; s.data.len()];
            op.narrow_into(&mut s.data, &mut out);
        }))
    };
    let t_inf = {
        let gz = gz.clone();
        time(Box::new(move || {
            let _ = sciml_compress::gzip_decompress(&gz).expect("inflate");
        }))
    };
    let t_dec = {
        let enc = enc.clone();
        time(Box::new(move || {
            let _ = dc::decode(&enc, op).expect("decode");
        }))
    };

    HostRates {
        preproc_bps: raw_bytes / t_pre,
        inflate_bps: raw_bytes / t_inf,
        decode_bps: raw_bytes / t_dec,
    }
}

/// Builds a workload profile whose host-side costs come from local
/// measurements (scaled to full-sample raw sizes); storage sizes and
/// device-side constants stay paper-anchored.
pub fn calibrated_profile(base: &WorkloadProfile, rates: HostRates) -> WorkloadProfile {
    let mut w = base.clone();
    w.preproc_1core_s = w.raw_bytes / rates.preproc_bps;
    w.inflate_1core_s = w.raw_bytes / rates.inflate_bps;
    w.cpu_decode_1core_s = w.raw_bytes / rates.decode_bps;
    w
}

/// A platform spec describing the local host (storage numbers are
/// placeholders to override with `hdparm`/`fio` measurements; the GPU is
/// the simulated V100).
pub fn localhost_spec(cores: u32) -> PlatformSpec {
    PlatformSpec {
        name: "localhost",
        gpus_per_node: 1,
        gpu: GpuSpec::V100,
        host_memory: 16 * 1024 * 1024 * 1024,
        host_mem_bw: 20e9,
        nvme_capacity: 256_000_000_000,
        nvme_read_bw: 1.5e9,
        shared_fs_bw: 0.5e9,
        h2d: BandwidthCurve::from_mb_gbs(&[(4.0, 4.0), (64.0, 8.0)]),
        cpu_cores: cores,
        cpu_freq_ghz: 2.4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{EpochModel, ExperimentConfig};
    use crate::workload::Format;

    #[test]
    fn cosmoflow_rates_are_positive_and_decode_beats_baseline() {
        let r = measure_cosmoflow_rates(16);
        assert!(r.preproc_bps > 0.0 && r.inflate_bps > 0.0 && r.decode_bps > 0.0);
        // The fused table decode processes raw-equivalent bytes faster
        // than the per-voxel baseline — the paper's host-side win. Under
        // debug builds with the test suite running in parallel, wall
        // timing is noisy; allow generous slack (release builds show the
        // full gap: `codec.cosmo_decode_melem_s` against
        // `codec.cosmo_base_decode_melem_s` in `benchmark/`).
        assert!(
            r.decode_bps > r.preproc_bps * 0.3,
            "decode {:.0} vs preproc {:.0}",
            r.decode_bps,
            r.preproc_bps
        );
    }

    #[test]
    fn deepcam_rates_are_positive() {
        let r = measure_deepcam_rates(96, 64, 2);
        assert!(r.preproc_bps > 0.0 && r.inflate_bps > 0.0 && r.decode_bps > 0.0);
    }

    #[test]
    fn calibrated_profile_feeds_the_epoch_model() {
        let rates = HostRates {
            preproc_bps: 200e6,
            inflate_bps: 800e6,
            decode_bps: 2e9,
        };
        let w = calibrated_profile(&WorkloadProfile::cosmoflow(), rates);
        assert!((w.preproc_1core_s - w.raw_bytes / 200e6).abs() < 1e-9);
        let r = EpochModel::evaluate(&ExperimentConfig {
            platform: localhost_spec(8),
            workload: w,
            format: Format::PluginCpu,
            samples_per_node: 64,
            staged: true,
            batch: 2,
        });
        assert!(r.node_throughput > 0.0);
    }

    #[test]
    fn localhost_spec_is_usable() {
        let p = localhost_spec(4);
        assert_eq!(p.gpus_per_node, 1);
        assert_eq!(p.cores_per_gpu(), 4.0);
    }
}
