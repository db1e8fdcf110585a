//! SIMT warp-level execution simulator and the GPU decode kernels.
//!
//! The paper offloads sample decoding to V100/A100 GPUs via DALI plugins
//! (§VI). We have no GPU, so this module is the closest synthetic
//! equivalent that exercises the same code paths: a **functional + timing
//! simulator** of the SIMT execution model, on which the three decode
//! kernels actually run and produce bit-exact outputs:
//!
//! * **LUT gather** (CosmoFlow): coalesced key reads, table gathers that
//!   hit shared memory or L2 depending on table size, coalesced stores
//!   into the channel-major tensor;
//! * **broadcast** (constant lines / repeated values): "we efficiently
//!   parallelize the broadcasting of constants";
//! * **differential decode** (DeepCAM): "loop carried dependencies
//!   complicate the GPU implementation. Our GPU version uses hierarchical
//!   parallelism, where we assign a warp of threads a copy or broadcast
//!   task and assign tasks that create control divergence to different
//!   warps" — delta segments serialize inside their warp while other
//!   warps stay busy on other lines.
//!
//! The timing model is an occupancy model, not a cycle-accurate core
//! model: each warp task accumulates warp-instruction cycles (with
//! divergence serialization) and memory transactions (with coalescing
//! analysis); kernel time is the max of compute throughput, DRAM
//! bandwidth, and the critical path. Machine parameters come from
//! Table I of the paper.
//!
//! The simulator is a reproduction of §VI's design, not a stage of the
//! data path: no decoder plugin runs it. Its bit-identity with the CPU
//! decoders is tested here and in the workspace's `cross_component`
//! suite; `examples/deepcam_pipeline.rs` prints a simulated kernel time,
//! and `figures fig9` / `fig12` print the kernel times on one
//! paper-scale sample beside the platform model's GPU decode bar.

mod kernels;
mod warp;

pub use kernels::{decode_cosmo, decode_cosmo_unfused, decode_deepcam};
pub use warp::KernelStats;

/// GPU hardware parameters (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. "V100".
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in GHz (sustained boost).
    pub clock_ghz: f64,
    /// HBM bandwidth in bytes/second.
    pub mem_bw: f64,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// Shared-memory capacity per SM in bytes.
    pub shared_bytes: u64,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Peak FP32 throughput in FLOP/s (Table I, used by the platform
    /// model for the training-step anchor).
    pub fp32_tflops: f64,
    /// Peak tensor-core throughput in FLOP/s.
    pub tensor_tflops: f64,
    /// Training-step time relative to a V100's. Mixed-precision training
    /// does not scale with tensor FLOPs: the paper observes ≈ 2.2× A100
    /// over V100 (§IX).
    pub step_scale: f64,
}

impl GpuSpec {
    /// NVIDIA V100 (Summit / Cori-V100 nodes).
    pub const V100: GpuSpec = GpuSpec {
        name: "V100",
        sm_count: 80,
        clock_ghz: 1.38,
        mem_bw: 0.9e12,
        l2_bytes: 6 * 1024 * 1024,
        shared_bytes: 96 * 1024,
        mem_capacity: 16 * 1024 * 1024 * 1024,
        fp32_tflops: 15.7e12,
        tensor_tflops: 120.0e12,
        step_scale: 1.0,
    };

    /// NVIDIA A100 (Cori-A100 nodes).
    pub const A100: GpuSpec = GpuSpec {
        name: "A100",
        sm_count: 104,
        clock_ghz: 1.41,
        mem_bw: 1.6e12,
        l2_bytes: 40 * 1024 * 1024,
        shared_bytes: 164 * 1024,
        mem_capacity: 40 * 1024 * 1024 * 1024,
        fp32_tflops: 19.5e12,
        tensor_tflops: 312.0e12,
        step_scale: 1.0 / 2.2,
    };

    /// Aggregate warp-instruction throughput in instructions/second
    /// (one warp instruction per SM per cycle under full occupancy).
    pub fn warp_issue_rate(&self) -> f64 {
        self.sm_count as f64 * self.clock_ghz * 1e9
    }

    /// Converts accumulated kernel statistics into wall time.
    ///
    /// `time = max(compute, dram, critical path)`:
    /// * compute: total warp-instruction cycles spread across SMs;
    /// * dram: transaction bytes over HBM bandwidth;
    /// * critical path: the longest single task is not divisible.
    pub fn kernel_time(&self, stats: &KernelStats) -> f64 {
        let compute = stats.cycles as f64 / self.warp_issue_rate().max(1.0);
        let dram = stats.dram_bytes as f64 / self.mem_bw;
        let critical = stats.longest_task_cycles as f64 / (self.clock_ghz * 1e9);
        compute.max(dram).max(critical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table_one() {
        assert_eq!(GpuSpec::V100.sm_count, 80);
        assert_eq!(GpuSpec::A100.sm_count, 104);
        assert_eq!(GpuSpec::V100.l2_bytes, 6 * 1024 * 1024);
        assert_eq!(GpuSpec::A100.l2_bytes, 40 * 1024 * 1024);
        assert!((GpuSpec::V100.mem_bw - 0.9e12).abs() < 1e9);
        assert!((GpuSpec::A100.mem_bw - 1.6e12).abs() < 1e9);
        assert!((GpuSpec::A100.tensor_tflops / GpuSpec::V100.tensor_tflops - 2.6).abs() < 0.01);
    }

    #[test]
    fn kernel_time_takes_binding_constraint() {
        let gpu = GpuSpec::V100;
        // Compute-bound.
        let s1 = KernelStats {
            cycles: 1_000_000_000,
            dram_bytes: 0,
            transactions: 0,
            divergent_steps: 0,
            longest_task_cycles: 10,
            tasks: 100,
        };
        let t1 = gpu.kernel_time(&s1);
        assert!((t1 - 1e9 / GpuSpec::V100.warp_issue_rate()).abs() / t1 < 1e-9);
        // Memory-bound.
        let s2 = KernelStats {
            cycles: 1,
            dram_bytes: 9_000_000_000,
            transactions: 0,
            divergent_steps: 0,
            longest_task_cycles: 1,
            tasks: 1,
        };
        assert!((gpu.kernel_time(&s2) - 0.01).abs() < 1e-6);
        // Critical-path-bound.
        let s3 = KernelStats {
            cycles: 100,
            dram_bytes: 0,
            transactions: 0,
            divergent_steps: 0,
            longest_task_cycles: 1_000_000,
            tasks: 1,
        };
        let expect = 1e6 / (GpuSpec::V100.clock_ghz * 1e9);
        assert!((gpu.kernel_time(&s3) - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn a100_is_faster_than_v100_on_equal_work() {
        let s = KernelStats {
            cycles: 1_000_000,
            dram_bytes: 1_000_000_000,
            transactions: 0,
            divergent_steps: 0,
            longest_task_cycles: 100,
            tasks: 10,
        };
        assert!(GpuSpec::A100.kernel_time(&s) < GpuSpec::V100.kernel_time(&s));
    }
}
