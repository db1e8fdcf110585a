//! Host CPU feature facade: the platform-level view of the runtime
//! SIMD dispatch layer.
//!
//! ISSUE-level placement note: the probe itself lives in the zero-dep
//! leaf crate `sciml-simd` (not here) because `sciml-platform` depends
//! on `sciml-codec`, whose decode kernels need the probe — putting it
//! here would create a dependency cycle. This module is the public
//! facade the CLI and the performance model consume: it re-exports the
//! probe API and adds the per-workload kernel-plan report.

pub use sciml_simd::{
    active_level, arch_level, detected_level, dispatch_counts, env_level, env_request, force,
    is_supported, level_total, supported_levels, ForceGuard, Kernel, SimdLevel, ALL_KERNELS,
    ALL_LEVELS, SIMD_ENV,
};

/// One decode kernel's resolved dispatch path on this host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPath {
    /// Kernel identity (`cosmo_gather`, `half_narrow`, …).
    pub kernel: Kernel,
    /// The workload/stage the kernel serves, for display.
    pub stage: &'static str,
    /// Tier the dispatcher will select for it right now.
    pub level: SimdLevel,
    /// Human description of the vector strategy at that tier.
    pub strategy: &'static str,
}

/// The dispatch plan for every decode kernel at the currently active
/// tier (env override and force guards included, clamped to this
/// architecture — the reported level is the level that will run).
pub fn kernel_plan() -> Vec<KernelPath> {
    let lvl = arch_level();
    ALL_KERNELS
        .iter()
        .map(|&kernel| KernelPath {
            kernel,
            stage: match kernel {
                Kernel::CosmoGather => "CosmoFlow LUT decode",
                Kernel::HalfNarrow => "F32\u{2192}F16 emission",
                Kernel::HalfWiden => "F16\u{2192}F32 load",
                Kernel::OpLog1p => "per-element log1p",
                Kernel::DeepcamEncode => "DeepCAM encode",
                Kernel::DeepcamDecode => "DeepCAM decode",
            },
            level: lvl,
            strategy: strategy(kernel, lvl),
        })
        .collect()
}

fn strategy(kernel: Kernel, level: SimdLevel) -> &'static str {
    match (kernel, level) {
        (_, SimdLevel::Scalar) => "scalar reference loop",
        (Kernel::CosmoGather, SimdLevel::Avx2) => "8-voxel row gather + in-register transpose",
        (Kernel::CosmoGather, SimdLevel::Sse42) => "4-voxel row gather + in-register transpose",
        (Kernel::CosmoGather, SimdLevel::Neon) => "4-voxel gather via vld4 deinterleave",
        (Kernel::HalfNarrow, SimdLevel::Avx2) => "F16C vcvtps2ph, 8 lanes",
        (Kernel::HalfNarrow, SimdLevel::Sse42 | SimdLevel::Neon) => {
            "integer round-to-nearest-even narrow, 4 lanes"
        }
        (Kernel::HalfWiden, SimdLevel::Avx2) => "F16C vcvtph2ps, 8 lanes",
        (Kernel::HalfWiden, SimdLevel::Sse42 | SimdLevel::Neon) => {
            "integer exponent rebias widen, 4 lanes"
        }
        (Kernel::OpLog1p, SimdLevel::Avx2) => "scalar source auto-vectorised, 8 lanes",
        (Kernel::OpLog1p, SimdLevel::Sse42 | SimdLevel::Neon) => {
            "scalar source auto-vectorised, 4 lanes"
        }
        (Kernel::DeepcamEncode, SimdLevel::Avx2) => "16 lines in lockstep, 2 vectors of 8 lanes",
        (Kernel::DeepcamEncode, SimdLevel::Sse42) => "16 lines in lockstep, 4 vectors of 4 lanes",
        (Kernel::DeepcamEncode, SimdLevel::Neon) => "scalar reference loop",
        (Kernel::DeepcamDecode, SimdLevel::Avx2) => "16 lines in lockstep, 2 vectors of 8 lanes",
        (Kernel::DeepcamDecode, SimdLevel::Sse42 | SimdLevel::Neon) => "scalar reference loop",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_kernel_at_one_level() {
        let plan = kernel_plan();
        assert_eq!(plan.len(), ALL_KERNELS.len());
        for p in &plan {
            assert_eq!(p.level, arch_level());
            assert!(!p.strategy.is_empty() && !p.stage.is_empty());
        }
    }

    #[test]
    fn forced_scalar_plan_reports_scalar_strategies() {
        let _g = force(Some(SimdLevel::Scalar));
        for p in kernel_plan() {
            assert_eq!(p.level, SimdLevel::Scalar);
            assert_eq!(p.strategy, "scalar reference loop");
        }
    }
}
