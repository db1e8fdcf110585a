//! Platform specifications (Table I) and bandwidth curves (§IX-A).

use crate::gpusim::GpuSpec;

const GB: f64 = 1e9;
const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
const TB: u64 = 1_000_000_000_000;

/// Piecewise-linear bandwidth as a function of transfer size.
///
/// §IX-A: "For the range of transfer sizes of 4 to 64 MB … the bandwidth
/// range is 4-8 GB/s for the V100 node and 6-8 GB/s for the A100 node"
/// (pageable memory, which deep-learning frameworks use).
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthCurve {
    /// `(transfer_bytes, bytes_per_second)` points, sorted by size.
    pub points: Vec<(f64, f64)>,
}

impl BandwidthCurve {
    /// Builds a curve from `(MiB, GB/s)` pairs.
    pub fn from_mb_gbs(points: &[(f64, f64)]) -> Self {
        let points = points
            .iter()
            .map(|&(mb, gbs)| (mb * 1024.0 * 1024.0, gbs * GB))
            .collect();
        Self { points }
    }

    /// Bandwidth at a transfer size (linear interpolation, clamped).
    pub fn at(&self, transfer_bytes: f64) -> f64 {
        let p = &self.points;
        assert!(!p.is_empty(), "empty bandwidth curve");
        if transfer_bytes <= p[0].0 {
            return p[0].1;
        }
        for w in p.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if transfer_bytes <= x1 {
                let t = (transfer_bytes - x0) / (x1 - x0);
                return y0 + t * (y1 - y0);
            }
        }
        p.last().expect("non-empty").1
    }
}

/// One compute node of an evaluated system.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// System name as used in the paper.
    pub name: &'static str,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// GPU model parameters.
    pub gpu: GpuSpec,
    /// Host DRAM capacity in bytes.
    pub host_memory: u64,
    /// Host DRAM streaming bandwidth in bytes/s (for cached reads).
    pub host_mem_bw: f64,
    /// Node-local NVMe capacity in bytes.
    pub nvme_capacity: u64,
    /// NVMe read bandwidth in bytes/s (shared across the node's GPUs).
    pub nvme_read_bw: f64,
    /// Achievable per-node bandwidth from the shared parallel FS.
    pub shared_fs_bw: f64,
    /// Pageable host→device bandwidth vs transfer size.
    pub h2d: BandwidthCurve,
    /// Physical CPU cores per node (shared by all GPU processes).
    pub cpu_cores: u32,
    /// CPU clock in GHz (Table I) — scales host-side software rates.
    pub cpu_freq_ghz: f64,
    /// Whether the node's framework stack is as tuned as Cori's. Where it
    /// is not (§IX-A: Summit), each workload's host rate is scaled by its
    /// [`crate::workload::WorkloadProfile::untuned_stack_efficiency`].
    pub tuned_host_stack: bool,
}

impl PlatformSpec {
    /// OLCF Summit: 2×POWER9 + 6×V100, NVLink host links.
    pub fn summit() -> Self {
        Self {
            name: "Summit",
            gpus_per_node: 6,
            gpu: GpuSpec::V100,
            host_memory: 512 * GIB as u64,
            host_mem_bw: 135.0 * GB,
            nvme_capacity: 1600 * TB / 1000, // 1.6 TB
            nvme_read_bw: 5.5 * GIB,
            shared_fs_bw: 2.0 * GB,
            // NVLink CPU-GPU: ~3× PCIe3 pageable (§IX-B: "Summit … uses
            // NVLINK, which roughly provides 3× the bandwidth of the
            // PCIe 3.0").
            h2d: BandwidthCurve::from_mb_gbs(&[(4.0, 12.0), (16.0, 18.0), (64.0, 24.0)]),
            cpu_cores: 42,
            cpu_freq_ghz: 3.1,
            tuned_host_stack: false,
        }
    }

    /// NERSC Cori-V100: 2×Xeon Gold 6148 + 8×V100, PCIe 3.0.
    pub fn cori_v100() -> Self {
        Self {
            name: "Cori-V100",
            gpus_per_node: 8,
            gpu: GpuSpec::V100,
            host_memory: 384 * GIB as u64,
            host_mem_bw: 120.0 * GB,
            nvme_capacity: TB, // 1.0 TB
            nvme_read_bw: 3.2 * GB,
            shared_fs_bw: 2.0 * GB,
            h2d: BandwidthCurve::from_mb_gbs(&[(4.0, 4.0), (16.0, 6.0), (64.0, 8.0)]),
            cpu_cores: 40,
            cpu_freq_ghz: 2.4,
            tuned_host_stack: true,
        }
    }

    /// NERSC Cori-A100: 2×EPYC 7742 + 8×A100, PCIe 4.0.
    pub fn cori_a100() -> Self {
        Self {
            name: "Cori-A100",
            gpus_per_node: 8,
            gpu: GpuSpec::A100,
            host_memory: 1056 * GIB as u64,
            host_mem_bw: 300.0 * GB,
            nvme_capacity: 15_400 * TB / 1000, // 15.4 TB
            nvme_read_bw: 24.3 * GIB,
            shared_fs_bw: 2.0 * GB,
            // §IX-A: "6-8 GB/s for the A100 node" in the pageable range —
            // close to V100 despite PCIe4, which is why the baseline does
            // not improve from V100 to A100.
            h2d: BandwidthCurve::from_mb_gbs(&[(4.0, 6.0), (16.0, 7.0), (64.0, 8.0)]),
            cpu_cores: 128,
            cpu_freq_ghz: 2.25,
            tuned_host_stack: true,
        }
    }

    /// All three evaluated platforms.
    pub fn all() -> Vec<PlatformSpec> {
        vec![Self::summit(), Self::cori_v100(), Self::cori_a100()]
    }

    /// CPU cores available to one GPU's process.
    pub fn cores_per_gpu(&self) -> f64 {
        self.cpu_cores as f64 / self.gpus_per_node as f64
    }

    /// Host software rate multiplier relative to the Cori-V100 reference
    /// core (clock-frequency ratio; per-workload stack efficiencies are
    /// applied by [`crate::workload::WorkloadProfile::host_efficiency`]).
    pub fn host_rate_factor(&self) -> f64 {
        self.cpu_freq_ghz / 2.4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_curve_interpolates_and_clamps() {
        let c = BandwidthCurve::from_mb_gbs(&[(4.0, 4.0), (64.0, 8.0)]);
        assert_eq!(c.at(1.0), 4.0 * GB);
        assert_eq!(c.at(200.0 * 1024.0 * 1024.0), 8.0 * GB);
        let mid = c.at(34.0 * 1024.0 * 1024.0);
        assert!(mid > 4.0 * GB && mid < 8.0 * GB);
    }

    #[test]
    fn presets_match_table_one() {
        let s = PlatformSpec::summit();
        let v = PlatformSpec::cori_v100();
        let a = PlatformSpec::cori_a100();
        assert_eq!(s.gpus_per_node, 6);
        assert_eq!(v.gpus_per_node, 8);
        assert_eq!(a.gpus_per_node, 8);
        assert_eq!(s.gpu.name, "V100");
        assert_eq!(a.gpu.name, "A100");
        assert_eq!(v.nvme_capacity, TB);
        assert!((v.nvme_read_bw - 3.2 * GB).abs() < 1e6);
        assert!(a.host_memory > s.host_memory);
        assert_eq!(s.cpu_freq_ghz, 3.1);
    }

    #[test]
    fn summit_h2d_is_roughly_3x_cori_v100() {
        let s = PlatformSpec::summit();
        let v = PlatformSpec::cori_v100();
        let size = 16.0 * 1024.0 * 1024.0;
        let ratio = s.h2d.at(size) / v.h2d.at(size);
        assert!((2.5..3.5).contains(&ratio), "{ratio}");
    }

    #[test]
    fn a100_and_v100_pageable_bandwidths_are_close() {
        // The §IX-A observation that explains baseline parity.
        let v = PlatformSpec::cori_v100();
        let a = PlatformSpec::cori_a100();
        for mb in [4.0, 16.0, 64.0] {
            let size = mb * 1024.0 * 1024.0;
            let ratio = a.h2d.at(size) / v.h2d.at(size);
            assert!((0.8..1.6).contains(&ratio), "{mb} MiB: {ratio}");
        }
    }

    #[test]
    fn cores_per_gpu() {
        assert_eq!(PlatformSpec::summit().cores_per_gpu(), 7.0);
        assert_eq!(PlatformSpec::cori_v100().cores_per_gpu(), 5.0);
        assert_eq!(PlatformSpec::cori_a100().cores_per_gpu(), 16.0);
    }

    #[test]
    fn host_rate_factor_tracks_clock() {
        assert!(PlatformSpec::summit().host_rate_factor() > 1.0);
        assert_eq!(PlatformSpec::cori_v100().host_rate_factor(), 1.0);
        assert!(PlatformSpec::cori_a100().host_rate_factor() < 1.0);
    }
}
