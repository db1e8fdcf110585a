//! Steady-state epoch model: storage tiering, stage times, overlap.
//!
//! For a configuration (platform × workload × format × dataset size ×
//! staged? × batch) the model computes the per-sample time of each
//! pipeline stage and takes the bottleneck as the steady-state
//! throughput (the loader, decoder and device overlap via prefetching,
//! which the real `sciml_pipeline` crate implements with threads). The
//! central mechanism of the paper falls out of the tiering rule: encoded
//! datasets fit in a memory level that raw ones do not.

use crate::spec::PlatformSpec;
use crate::workload::{Format, WorkloadProfile};

/// Where the dataset is read from each epoch (steady state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageTier {
    /// Cached in host DRAM (fits in memory).
    HostMemory,
    /// Node-local NVMe (staged and fits).
    Nvme,
    /// Shared parallel file system.
    SharedFs,
}

impl StorageTier {
    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            StorageTier::HostMemory => "host-mem",
            StorageTier::Nvme => "nvme",
            StorageTier::SharedFs => "shared-fs",
        }
    }
}

/// One experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Node/platform model.
    pub platform: PlatformSpec,
    /// Workload profile.
    pub workload: WorkloadProfile,
    /// Pipeline variant.
    pub format: Format,
    /// Samples assigned per **node** (Fig. 8 uses per-node counts,
    /// Figs. 10–11 use per-GPU counts × `gpus_per_node`).
    pub samples_per_node: u64,
    /// Whether the dataset is staged to node-local NVMe.
    pub staged: bool,
    /// Local batch size per GPU.
    pub batch: usize,
}

/// Per-sample stage times (seconds), the Fig. 9 / Fig. 12 breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBreakdown {
    /// Storage read (host timeline).
    pub read_s: f64,
    /// Host preprocessing / decode / pass-through (host timeline).
    pub host_s: f64,
    /// Host→device transfer (device timeline).
    pub h2d_s: f64,
    /// On-device decode (GPU plugin only).
    pub gpu_decode_s: f64,
    /// Forward + backward step.
    pub step_s: f64,
    /// Allreduce / synchronization jitter.
    pub allreduce_s: f64,
}

impl StageBreakdown {
    /// The bottleneck stage time under full overlap: the input-side
    /// stages run concurrently with the device stages.
    pub fn bottleneck_s(&self) -> f64 {
        let input = self.read_s.max(self.host_s).max(self.h2d_s);
        let device = self.gpu_decode_s + self.step_s + self.allreduce_s;
        input.max(device)
    }

    /// Whether the device is starved by the input pipeline.
    pub fn input_bound(&self) -> bool {
        let device = self.gpu_decode_s + self.step_s;
        self.read_s.max(self.host_s).max(self.h2d_s) > device
    }
}

/// Result of evaluating one configuration.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Samples per second for the whole node.
    pub node_throughput: f64,
    /// Samples per second per GPU.
    pub gpu_throughput: f64,
    /// Where reads are served from in steady state.
    pub tier: StorageTier,
    /// Per-sample stage times.
    pub breakdown: StageBreakdown,
}

/// The analytic epoch model.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochModel;

impl EpochModel {
    /// Evaluates one configuration.
    pub fn evaluate(cfg: &ExperimentConfig) -> ExperimentResult {
        let p = &cfg.platform;
        let w = &cfg.workload;
        let stored = w.stored_bytes(cfg.format);
        let dataset_bytes = stored * cfg.samples_per_node as f64;

        // Storage tier: host DRAM if the dataset leaves room for the
        // application (20% headroom), else staged NVMe, else shared FS.
        let tier = if dataset_bytes <= p.host_memory as f64 * 0.8 {
            StorageTier::HostMemory
        } else if cfg.staged && dataset_bytes <= p.nvme_capacity as f64 {
            StorageTier::Nvme
        } else {
            StorageTier::SharedFs
        };
        let tier_bw = match tier {
            StorageTier::HostMemory => p.host_mem_bw,
            StorageTier::Nvme => p.nvme_read_bw,
            StorageTier::SharedFs => p.shared_fs_bw,
        };
        // The tier bandwidth is shared by every GPU process on the node.
        let read_s = stored / (tier_bw / p.gpus_per_node as f64);

        // Host software stage: per-sample single-core work spread over
        // the loader's worker pool (bounded by the workload's framework
        // worker count and by this GPU's core share), scaled by the
        // platform clock and the workload's stack efficiency there.
        let workers = p.cores_per_gpu().min(w.max_workers as f64);
        let host_rate = workers * p.host_rate_factor() * w.host_efficiency(p);
        let host_s = w.host_1core_s(cfg.format) / host_rate;

        // Host→device transfer: one batch moves batch × bytes; pageable
        // bandwidth depends on that transfer size. The CPU plugin ships
        // FP16 from freshly written (cache-cold, pageable) buffers; the
        // paper attributes part of the GPU plugin's edge to "reduced
        // pressure on the system bus", modeled as a 25% bandwidth
        // penalty for host-decoded tensors.
        let h2d_bytes = w.h2d_bytes(cfg.format);
        let transfer = h2d_bytes * cfg.batch as f64;
        let mut h2d_bw = p.h2d.at(transfer);
        if cfg.format == Format::PluginCpu {
            h2d_bw *= 0.75;
        }
        let h2d_s = h2d_bytes / h2d_bw;

        // Device stages.
        let gpu_decode_s = if cfg.format == Format::PluginGpu {
            w.gpu_decode_s(&p.gpu)
        } else {
            0.0
        };
        let step_s = w.step_s(&p.gpu, cfg.batch);

        // Allreduce jitter grows when the input pipeline starves the
        // collective (Fig. 9: the plugin "reduc[es] the fluctuations
        // captured during the model synchronization allreduce").
        let mut b = StageBreakdown {
            read_s,
            host_s,
            h2d_s,
            gpu_decode_s,
            step_s,
            allreduce_s: w.allreduce_jitter_s,
        };
        if b.input_bound() {
            b.allreduce_s *= 2.0;
        }

        let per_sample = b.bottleneck_s();
        let gpu_throughput = 1.0 / per_sample;
        ExperimentResult {
            node_throughput: gpu_throughput * p.gpus_per_node as f64,
            gpu_throughput,
            tier,
            breakdown: b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(
        platform: PlatformSpec,
        workload: WorkloadProfile,
        format: Format,
        samples_per_node: u64,
        staged: bool,
        batch: usize,
    ) -> ExperimentConfig {
        ExperimentConfig {
            platform,
            workload,
            format,
            samples_per_node,
            staged,
            batch,
        }
    }

    fn tput(c: &ExperimentConfig) -> f64 {
        EpochModel::evaluate(c).node_throughput
    }

    // ----- CosmoFlow (Figs. 10, 11) -----

    #[test]
    fn cosmo_small_set_is_cached_in_host_memory() {
        // 128 samples/GPU × 8 GPUs × 33.5 MB ≈ 34 GB « 384 GB.
        let c = cfg(
            PlatformSpec::cori_v100(),
            WorkloadProfile::cosmoflow(),
            Format::Base,
            128 * 8,
            true,
            4,
        );
        assert_eq!(EpochModel::evaluate(&c).tier, StorageTier::HostMemory);
    }

    #[test]
    fn cosmo_plugin_speedup_3_to_4x_on_cori_small_set() {
        for p in [PlatformSpec::cori_v100(), PlatformSpec::cori_a100()] {
            let n = 128 * p.gpus_per_node as u64;
            let base = tput(&cfg(
                p.clone(),
                WorkloadProfile::cosmoflow(),
                Format::Base,
                n,
                true,
                4,
            ));
            let plug = tput(&cfg(
                p.clone(),
                WorkloadProfile::cosmoflow(),
                Format::PluginGpu,
                n,
                true,
                4,
            ));
            let speedup = plug / base;
            assert!((2.0..6.0).contains(&speedup), "{}: {speedup}", p.name);
        }
    }

    #[test]
    fn cosmo_plugin_speedup_5_to_8x_on_summit_small_set() {
        let p = PlatformSpec::summit();
        let n = 128 * 6;
        let base = tput(&cfg(
            p.clone(),
            WorkloadProfile::cosmoflow(),
            Format::Base,
            n,
            true,
            1,
        ));
        let plug = tput(&cfg(
            p,
            WorkloadProfile::cosmoflow(),
            Format::PluginGpu,
            n,
            true,
            1,
        ));
        let speedup = plug / base;
        assert!((4.0..10.0).contains(&speedup), "{speedup}");
    }

    #[test]
    fn cosmo_large_set_speedup_reaches_order_of_magnitude() {
        // 2048/GPU × 8 × 33.5 MB ≈ 550 GB: raw spills out of host memory,
        // encoded (137 GB) stays cached — the central caching mechanism.
        let p = PlatformSpec::cori_v100();
        let n = 2048 * 8;
        let base = EpochModel::evaluate(&cfg(
            p.clone(),
            WorkloadProfile::cosmoflow(),
            Format::Base,
            n,
            false,
            4,
        ));
        let plug = EpochModel::evaluate(&cfg(
            p,
            WorkloadProfile::cosmoflow(),
            Format::PluginGpu,
            n,
            false,
            4,
        ));
        assert_eq!(base.tier, StorageTier::SharedFs);
        assert_eq!(plug.tier, StorageTier::HostMemory);
        let speedup = plug.node_throughput / base.node_throughput;
        assert!(speedup >= 7.0, "{speedup}");
    }

    #[test]
    fn cosmo_gzip_is_slower_than_base_on_small_set() {
        // §IX-B: "the use of gzipped formatting reduces throughput by up
        // to 1.5×".
        for p in PlatformSpec::all() {
            let n = 128 * p.gpus_per_node as u64;
            let base = tput(&cfg(
                p.clone(),
                WorkloadProfile::cosmoflow(),
                Format::Base,
                n,
                true,
                4,
            ));
            let gz = tput(&cfg(
                p.clone(),
                WorkloadProfile::cosmoflow(),
                Format::Gzip,
                n,
                true,
                4,
            ));
            let slowdown = base / gz;
            assert!((1.0..1.8).contains(&slowdown), "{}: {slowdown}", p.name);
        }
    }

    #[test]
    fn cosmo_staging_helps_large_set_on_cori_but_not_summit() {
        // §IX-B: staging improves by up to 1.5× on Cori; "the difference
        // for Summit is within 10%" (512 GB hosts cache even the large
        // raw set).
        let w = WorkloadProfile::cosmoflow;
        let cori = PlatformSpec::cori_v100();
        let unstaged = tput(&cfg(cori.clone(), w(), Format::Base, 2048 * 8, false, 4));
        let staged = tput(&cfg(cori, w(), Format::Base, 2048 * 8, true, 4));
        let gain = staged / unstaged;
        assert!((1.2..1.8).contains(&gain), "cori gain {gain}");

        let summit = PlatformSpec::summit();
        let s_un = tput(&cfg(summit.clone(), w(), Format::Base, 2048 * 6, false, 4));
        let s_st = tput(&cfg(summit, w(), Format::Base, 2048 * 6, true, 4));
        assert!((s_st / s_un - 1.0).abs() < 0.10, "summit {}", s_st / s_un);
    }

    #[test]
    fn cosmo_baseline_is_insensitive_to_batch_size() {
        // §IX-B: "the base case does not change significantly with the
        // batch size" (it is host/IO bound).
        let p = PlatformSpec::cori_v100();
        let n = 128 * 8;
        let b1 = tput(&cfg(
            p.clone(),
            WorkloadProfile::cosmoflow(),
            Format::Base,
            n,
            true,
            1,
        ));
        let b8 = tput(&cfg(
            p,
            WorkloadProfile::cosmoflow(),
            Format::Base,
            n,
            true,
            8,
        ));
        assert!((b8 / b1 - 1.0).abs() < 0.25, "{}", b8 / b1);
    }

    // ----- DeepCAM (Figs. 8, 9) -----

    #[test]
    fn deepcam_large_set_slows_baseline_1_2_to_2_4x() {
        let p = PlatformSpec::cori_v100();
        let small = tput(&cfg(
            p.clone(),
            WorkloadProfile::deepcam(),
            Format::Base,
            1536,
            true,
            4,
        ));
        let large = tput(&cfg(
            p,
            WorkloadProfile::deepcam(),
            Format::Base,
            12288,
            true,
            4,
        ));
        let slowdown = small / large;
        assert!((1.2..2.6).contains(&slowdown), "{slowdown}");
    }

    #[test]
    fn deepcam_plugin_speedup_on_cori_a100_approaches_3x() {
        let p = PlatformSpec::cori_a100();
        let mut best = 0.0f64;
        for (n, staged, batch) in [
            (1536u64, true, 4usize),
            (1536, false, 4),
            (12288, true, 8),
            (12288, false, 8),
        ] {
            let base = tput(&cfg(
                p.clone(),
                WorkloadProfile::deepcam(),
                Format::Base,
                n,
                staged,
                batch,
            ));
            let plug = tput(&cfg(
                p.clone(),
                WorkloadProfile::deepcam(),
                Format::PluginGpu,
                n,
                staged,
                batch,
            ));
            best = best.max(plug / base);
        }
        assert!((2.5..4.0).contains(&best), "{best}");
    }

    #[test]
    fn deepcam_summit_baseline_beats_cori_v100_node_at_batch_4() {
        // §IX-A: "At batch size of 4, the 6-V100 Summit node outperforms
        // an 8-V100 Cori node" for the baseline (NVLink + fast NVMe).
        let s = tput(&cfg(
            PlatformSpec::summit(),
            WorkloadProfile::deepcam(),
            Format::Base,
            12288,
            true,
            4,
        ));
        let c = tput(&cfg(
            PlatformSpec::cori_v100(),
            WorkloadProfile::deepcam(),
            Format::Base,
            12288,
            true,
            4,
        ));
        assert!(s > c, "summit {s} vs cori {c}");
    }

    #[test]
    fn deepcam_summit_plugin_gain_is_limited() {
        // §IX-A: "limited improvement with gpu-plugin (limited to 1.3×)".
        let p = PlatformSpec::summit();
        let mut worst = 1.0f64;
        for (n, staged) in [(1536u64, true), (12288, true)] {
            let base = tput(&cfg(
                p.clone(),
                WorkloadProfile::deepcam(),
                Format::Base,
                n,
                staged,
                4,
            ));
            let plug = tput(&cfg(
                p.clone(),
                WorkloadProfile::deepcam(),
                Format::PluginGpu,
                n,
                staged,
                4,
            ));
            worst = worst.max(plug / base);
        }
        assert!(worst < 1.6, "{worst}");
    }

    #[test]
    fn deepcam_gpu_plugin_beats_cpu_plugin_unstaged() {
        // §IX-A: "the GPU plugin is up to 1.5× faster than the CPU for
        // unstaged data".
        let p = PlatformSpec::cori_v100();
        let cpu = tput(&cfg(
            p.clone(),
            WorkloadProfile::deepcam(),
            Format::PluginCpu,
            12288,
            false,
            4,
        ));
        let gpu = tput(&cfg(
            p,
            WorkloadProfile::deepcam(),
            Format::PluginGpu,
            12288,
            false,
            4,
        ));
        assert!(gpu >= cpu, "gpu {gpu} vs cpu {cpu}");
    }

    #[test]
    fn deepcam_baseline_does_not_improve_from_v100_to_a100() {
        // §IX-A: "the baseline performance does not improve when
        // migrating from the Cori-V100 to the faster Cori-A100 system" —
        // the input-side bottleneck (host workers, CPU-GPU transfers) is
        // essentially identical on both nodes. Checked per GPU on the
        // memory-resident small set where the effect is purest.
        let v = tput(&cfg(
            PlatformSpec::cori_v100(),
            WorkloadProfile::deepcam(),
            Format::Base,
            1536,
            true,
            4,
        ));
        let a = tput(&cfg(
            PlatformSpec::cori_a100(),
            WorkloadProfile::deepcam(),
            Format::Base,
            1536,
            true,
            4,
        ));
        let ratio = a / v;
        assert!((0.7..1.3).contains(&ratio), "{ratio}");
    }

    #[test]
    fn deepcam_plugin_leverages_a100_over_v100() {
        // §IX-A: "our plugin also leverages the increased capability of
        // the A100, resulting in a speedup of up to 2.2×".
        let v = tput(&cfg(
            PlatformSpec::cori_v100(),
            WorkloadProfile::deepcam(),
            Format::PluginGpu,
            1536,
            true,
            4,
        ));
        let a = tput(&cfg(
            PlatformSpec::cori_a100(),
            WorkloadProfile::deepcam(),
            Format::PluginGpu,
            1536,
            true,
            4,
        ));
        let ratio = a / v;
        assert!((1.5..2.5).contains(&ratio), "{ratio}");
    }

    #[test]
    fn breakdown_identifies_starved_baseline() {
        // Fig. 12: the CosmoFlow baseline under-utilizes the GPU (input
        // bound); the plugin flips it to compute bound.
        let p = PlatformSpec::cori_v100();
        let n = 128 * 8;
        let base = EpochModel::evaluate(&cfg(
            p.clone(),
            WorkloadProfile::cosmoflow(),
            Format::Base,
            n,
            true,
            4,
        ));
        let plug = EpochModel::evaluate(&cfg(
            p,
            WorkloadProfile::cosmoflow(),
            Format::PluginGpu,
            n,
            true,
            4,
        ));
        assert!(base.breakdown.input_bound());
        assert!(!plug.breakdown.input_bound());
        // Jitter shrinks when not starved.
        assert!(plug.breakdown.allreduce_s < base.breakdown.allreduce_s);
    }

    #[test]
    fn bottleneck_is_max_of_overlapped_stages() {
        let b = StageBreakdown {
            read_s: 3.0,
            host_s: 5.0,
            h2d_s: 1.0,
            gpu_decode_s: 0.5,
            step_s: 2.0,
            allreduce_s: 0.5,
        };
        assert_eq!(b.bottleneck_s(), 5.0);
        assert!(b.input_bound());
    }
}
