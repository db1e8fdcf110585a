//! Per-sample workload profiles: sizes and costs per data format.
//!
//! Sizes are anchored to the paper where it reports them (CosmoFlow:
//! encoded ≈ 4× smaller than raw, gzip ≈ 5× smaller — §V-B; DeepCAM
//! raw = 16×1152×768 FP32 — §IV) and to this repo's real encoders for
//! what the paper leaves implicit (the `figures -- ratios` command
//! re-measures them on the synthetic datasets). Host-side rates are
//! single-core rates on the Cori-V100 reference core; the epoch model
//! scales them by each platform's [`host_rate_factor`] and worker count.
//!
//! [`host_rate_factor`]: crate::spec::PlatformSpec::host_rate_factor

use crate::gpusim::{GpuSpec, KernelStats};
use crate::spec::PlatformSpec;

#[cfg(test)]
const MB: f64 = 1e6;

/// The four pipeline variants evaluated in Figs. 8, 10, 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Uncompressed FP32 samples, host preprocessing.
    Base,
    /// gzip-compressed samples, host gunzip + host preprocessing.
    Gzip,
    /// Custom encoding, CPU decoder plugin (ships FP16 to the device).
    PluginCpu,
    /// Custom encoding, GPU decoder plugin (ships encoded bytes).
    PluginGpu,
}

impl Format {
    /// All variants in presentation order.
    pub fn all() -> [Format; 4] {
        [
            Format::Base,
            Format::Gzip,
            Format::PluginCpu,
            Format::PluginGpu,
        ]
    }

    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Format::Base => "base",
            Format::Gzip => "gzip",
            Format::PluginCpu => "cpu-plugin",
            Format::PluginGpu => "gpu-plugin",
        }
    }
}

/// Per-sample sizes and costs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name.
    pub name: &'static str,
    /// FP32 sample bytes (storage and H2D unit of the baseline).
    pub raw_bytes: f64,
    /// FP16 decoded tensor bytes (H2D unit of the CPU plugin).
    pub fp16_bytes: f64,
    /// Custom-encoded bytes (storage of the plugins, H2D of the GPU one).
    pub encoded_bytes: f64,
    /// gzip-compressed bytes.
    pub gzip_bytes: f64,
    /// Baseline host preprocessing, single-core seconds per sample.
    pub preproc_1core_s: f64,
    /// gunzip, single-core seconds per sample (added to preprocessing).
    pub inflate_1core_s: f64,
    /// CPU-plugin decode, single-core seconds per sample.
    pub cpu_decode_1core_s: f64,
    /// Plugin pass-through host cost (framing, queueing), single-core s.
    pub passthrough_1core_s: f64,
    /// GPU decode seconds per sample on a V100. Set so that decode takes
    /// the share of a batch-4 step the paper reports (§IX); not derived
    /// from the SIMT simulator, whose kernels leave out launch,
    /// synchronisation and framework scheduling (EXPERIMENTS.md, "§VI —
    /// the simulated GPU decode at paper scale").
    pub gpu_decode_v100_s: f64,
    /// What the SIMT simulator counts for the GPU plugin's decode kernel
    /// on one paper-scale sample (seed 0, sample 0, on a V100; `figures
    /// fig9` / `fig12` run it). Other GPUs scale the V100 anchor by the
    /// simulator's time for these counts over its V100 time: by memory
    /// bandwidth where the kernel is memory-bound (CosmoFlow's LUT
    /// gather), by issue rate where it is compute-bound (DeepCAM's).
    pub gpu_decode_kernel: KernelStats,
    /// Training-step seconds per sample on a V100 at large batch.
    pub step_v100_s: f64,
    /// Per-batch step overhead: `step(batch) = step × (1 + c / batch)`.
    pub step_batch_overhead: f64,
    /// Allreduce jitter per sample (grows when the input pipeline starves
    /// the collective — the Fig. 9 fluctuation observation).
    pub allreduce_jitter_s: f64,
    /// Maximum host worker parallelism per GPU process. TensorFlow's
    /// `tf.data` pipeline scales across all available cores; the PyTorch
    /// reference DeepCAM pins `num_workers` per rank.
    pub max_workers: usize,
    /// Host software efficiency of this workload's stack on a platform
    /// whose stack is less tuned than Cori's
    /// ([`PlatformSpec::tuned_host_stack`]; §IX-A: "the level of
    /// optimization for the software stack appears to be lower for
    /// Summit"; the TF/opence stack suffers more than the PyTorch one).
    pub untuned_stack_efficiency: f64,
}

impl WorkloadProfile {
    /// CosmoFlow: 128³ × 4-redshift voxel histograms, TensorFlow.
    pub fn cosmoflow() -> Self {
        let raw = 128f64.powi(3) * 4.0 * 4.0; // 33.55 MB
        Self {
            name: "CosmoFlow",
            raw_bytes: raw,
            fp16_bytes: raw / 2.0,
            encoded_bytes: raw / 4.0, // §V-B: "compression factor of roughly 4×"
            gzip_bytes: raw / 5.0,    // §IV: gzip "reduces the required storage space by 5×"
            // log1p over 8.4M voxels plus TFRecord parse: ≈160 MB/s/core.
            preproc_1core_s: 0.21,
            // DEFLATE inflate ≈800 MB/s of output.
            inflate_1core_s: 0.042,
            // Table-fused LUT gather ≈750 MB/s of FP16 output per core.
            cpu_decode_1core_s: 0.022,
            passthrough_1core_s: 0.002,
            // §IX-B: decode is "less than 1% of the total processing
            // time of a sample" (0.6 % of `step_s(V100, 4)`).
            gpu_decode_v100_s: 60e-6,
            gpu_decode_kernel: KernelStats {
                cycles: 1_249_688,
                dram_bytes: 21_098_176,
                transactions: 1_168_312,
                divergent_steps: 0,
                longest_task_cycles: 48,
                tasks: 66_031,
            },
            step_v100_s: 9e-3,
            step_batch_overhead: 0.35,
            allreduce_jitter_s: 1.5e-3,
            max_workers: 64,
            untuned_stack_efficiency: 0.33,
        }
    }

    /// DeepCAM: 16 × 1152×768 FP32 climate images, PyTorch.
    pub fn deepcam() -> Self {
        let raw = 16.0 * 1152.0 * 768.0 * 4.0; // 56.62 MB
        Self {
            name: "DeepCAM",
            raw_bytes: raw,
            fp16_bytes: raw / 2.0,
            encoded_bytes: raw / 3.5, // delta codec ≈1 B/value + headers
            gzip_bytes: raw / 2.0,    // float fields gzip poorly
            // HDF5 read + per-channel normalization in the PyTorch data
            // worker: ≈160 MB/s/core.
            preproc_1core_s: 0.35,
            inflate_1core_s: 0.10,
            // Differential decode: branchy per-segment walks, ≈190 MB/s
            // of raw-equivalent bytes per worker.
            cpu_decode_1core_s: 0.30,
            passthrough_1core_s: 0.002,
            // §IX-A: decode is "roughly 4% of the processing time"
            // (3.2 % of `step_s(V100, 4)`).
            gpu_decode_v100_s: 2.0e-3,
            gpu_decode_kernel: KernelStats {
                cycles: 43_402_831,
                dram_bytes: 43_923_776,
                transactions: 1_372_618,
                divergent_steps: 0,
                longest_task_cycles: 3_560,
                tasks: 12_288,
            },
            step_v100_s: 55e-3,
            step_batch_overhead: 0.5,
            allreduce_jitter_s: 8e-3,
            max_workers: 4,
            untuned_stack_efficiency: 0.75,
        }
    }

    /// Stored bytes per sample for a format (what the storage tier and
    /// its capacity see).
    pub fn stored_bytes(&self, format: Format) -> f64 {
        match format {
            Format::Base => self.raw_bytes,
            Format::Gzip => self.gzip_bytes,
            Format::PluginCpu | Format::PluginGpu => self.encoded_bytes,
        }
    }

    /// Host→device bytes per sample for a format.
    pub fn h2d_bytes(&self, format: Format) -> f64 {
        match format {
            // Baselines ship the FP32 tensor (AMP casts on device).
            Format::Base | Format::Gzip => self.raw_bytes,
            Format::PluginCpu => self.fp16_bytes,
            Format::PluginGpu => self.encoded_bytes,
        }
    }

    /// Host-side single-core seconds per sample for a format.
    pub fn host_1core_s(&self, format: Format) -> f64 {
        match format {
            Format::Base => self.preproc_1core_s,
            Format::Gzip => self.inflate_1core_s + self.preproc_1core_s,
            Format::PluginCpu => self.cpu_decode_1core_s,
            Format::PluginGpu => self.passthrough_1core_s,
        }
    }

    /// Training-step seconds per sample at a batch size on a GPU.
    pub fn step_s(&self, gpu: &GpuSpec, batch: usize) -> f64 {
        self.step_v100_s * gpu.step_scale * (1.0 + self.step_batch_overhead / batch as f64)
    }

    /// GPU decode seconds per sample for the GPU plugin: the V100
    /// anchor, scaled by the simulator's time for the decode kernel on
    /// `gpu` over its time on a V100.
    pub fn gpu_decode_s(&self, gpu: &GpuSpec) -> f64 {
        let kernel = &self.gpu_decode_kernel;
        self.gpu_decode_v100_s * (gpu.kernel_time(kernel) / GpuSpec::V100.kernel_time(kernel))
    }

    /// Sanity helper: compression ratio of a format vs raw FP32.
    pub fn ratio(&self, format: Format) -> f64 {
        self.raw_bytes / self.stored_bytes(format)
    }

    /// Host stack efficiency of this workload on the given platform.
    pub fn host_efficiency(&self, platform: &PlatformSpec) -> f64 {
        if platform.tuned_host_stack {
            1.0
        } else {
            self.untuned_stack_efficiency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosmoflow_sizes_match_paper_ratios() {
        let w = WorkloadProfile::cosmoflow();
        assert!((w.raw_bytes - 33.554432 * MB).abs() < 1.0);
        assert!((w.ratio(Format::PluginGpu) - 4.0).abs() < 1e-9);
        assert!((w.ratio(Format::Gzip) - 5.0).abs() < 1e-9);
        // §IV: "gzipped files are roughly 75% the size of our encoded
        // samples".
        assert!((w.gzip_bytes / w.encoded_bytes - 0.8).abs() < 0.1);
    }

    #[test]
    fn deepcam_sizes() {
        let w = WorkloadProfile::deepcam();
        assert!((w.raw_bytes - 56.623104 * MB).abs() < 1.0);
        assert!(w.ratio(Format::PluginCpu) > 3.0);
    }

    #[test]
    fn h2d_bytes_per_format() {
        let w = WorkloadProfile::cosmoflow();
        assert_eq!(w.h2d_bytes(Format::Base), w.raw_bytes);
        assert_eq!(w.h2d_bytes(Format::Gzip), w.raw_bytes);
        assert_eq!(w.h2d_bytes(Format::PluginCpu), w.fp16_bytes);
        assert_eq!(w.h2d_bytes(Format::PluginGpu), w.encoded_bytes);
        // The GPU plugin moves the fewest bytes across the bus.
        assert!(w.h2d_bytes(Format::PluginGpu) < w.h2d_bytes(Format::PluginCpu));
    }

    #[test]
    fn gzip_costs_more_host_time_than_base() {
        for w in [WorkloadProfile::cosmoflow(), WorkloadProfile::deepcam()] {
            assert!(w.host_1core_s(Format::Gzip) > w.host_1core_s(Format::Base));
            assert!(w.host_1core_s(Format::PluginCpu) < w.host_1core_s(Format::Base));
            assert!(w.host_1core_s(Format::PluginGpu) < w.host_1core_s(Format::PluginCpu));
        }
    }

    #[test]
    fn step_time_shrinks_with_batch_and_on_a100() {
        let w = WorkloadProfile::deepcam();
        let v = GpuSpec::V100;
        let a = GpuSpec::A100;
        assert!(w.step_s(&v, 8) < w.step_s(&v, 1));
        let ratio = w.step_s(&v, 4) / w.step_s(&a, 4);
        assert!((ratio - 2.2).abs() < 1e-6);
    }

    #[test]
    fn gpu_decode_is_tiny_fraction_of_step() {
        // §IX-B "<1%" for CosmoFlow, §IX-A "roughly 4%" for DeepCAM.
        let c = WorkloadProfile::cosmoflow();
        let d = WorkloadProfile::deepcam();
        let v = GpuSpec::V100;
        assert!(c.gpu_decode_s(&v) / c.step_s(&v, 4) < 0.01);
        let frac = d.gpu_decode_s(&v) / d.step_s(&v, 4);
        assert!((0.01..0.08).contains(&frac), "{frac}");
    }

    /// The A100's decode bar is the V100 anchor scaled as the simulator
    /// scales the kernel: by memory bandwidth for CosmoFlow's LUT gather
    /// (memory-bound), by issue rate for DeepCAM's decode (compute-bound).
    #[test]
    fn gpu_decode_scales_by_the_simulated_kernel() {
        let (v, a) = (GpuSpec::V100, GpuSpec::A100);
        let c = WorkloadProfile::cosmoflow();
        let d = WorkloadProfile::deepcam();
        assert_eq!(c.gpu_decode_s(&v), c.gpu_decode_v100_s);
        let memory = v.mem_bw / a.mem_bw;
        let issue = v.warp_issue_rate() / a.warp_issue_rate();
        assert!((c.gpu_decode_s(&a) / c.gpu_decode_s(&v) - memory).abs() < 1e-12);
        assert!((d.gpu_decode_s(&a) / d.gpu_decode_s(&v) - issue).abs() < 1e-12);
    }

    #[test]
    fn stack_efficiency_applies_only_to_summit() {
        let (summit, cori) = (PlatformSpec::summit(), PlatformSpec::cori_v100());
        let c = WorkloadProfile::cosmoflow();
        assert_eq!(c.host_efficiency(&summit), 0.33);
        assert_eq!(c.host_efficiency(&cori), 1.0);
        assert_eq!(c.host_efficiency(&PlatformSpec::cori_a100()), 1.0);
        let d = WorkloadProfile::deepcam();
        assert!(d.host_efficiency(&summit) > c.host_efficiency(&summit));
    }

    #[test]
    fn step_scale_is_the_papers_a100_speed_up() {
        let c = WorkloadProfile::cosmoflow();
        let ratio = c.step_s(&GpuSpec::V100, 4) / c.step_s(&GpuSpec::A100, 4);
        assert!((ratio - 2.2).abs() < 1e-9, "{ratio}");
    }
}
