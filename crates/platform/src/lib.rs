//! HPC platform models and the epoch-level pipeline performance model.
//!
//! Figures 8–12 of the paper are **data-movement studies**: who wins and
//! where the crossovers fall is governed by the capacities and bandwidths
//! of Summit, Cori-V100 and Cori-A100 (Table I plus the pageable-PCIe
//! bandwidths measured in §IX-A). This crate encodes those constants and
//! an analytic steady-state pipeline model:
//!
//! * [`spec`] — per-node platform parameters with the three presets, and
//!   the size-dependent pageable host→device bandwidth curves;
//! * [`workload`] — per-sample costs for each workload × format (raw
//!   baseline, gzip, CPU plugin, GPU plugin), anchored to real encoder
//!   output sizes, to decode timings from the real codecs, and to the
//!   paper's stated GPU decode shares (§IX);
//! * [`epoch`] — the steady-state epoch model: storage tier selection
//!   from dataset size vs memory/NVMe capacity, per-stage times, pipeline
//!   overlap (throughput = 1 / bottleneck stage), and the stage
//!   breakdowns behind Figs. 9 and 12;
//! * [`figures`] — one function per paper figure/table producing the
//!   exact series the `figures` binary prints.
//! * [`gpusim`] — the §VI GPU decoder reproduced on a SIMT warp
//!   simulator: bit-exact kernels with cycle counts, and [`GpuSpec`],
//!   the Table I device parameters the model runs on.
//!
//! [`GpuSpec`]: gpusim::GpuSpec
//!
//! Absolute numbers are modeled; EXPERIMENTS.md reports them against the
//! paper's and the claims defended are the shapes (speedup factors,
//! orderings, staging/caching effects).

pub mod calibrate;
pub mod epoch;
pub mod figures;
pub mod gpusim;
pub mod scaling;
pub mod spec;
pub mod workload;

pub use epoch::{EpochModel, ExperimentConfig, ExperimentResult, StageBreakdown, StorageTier};
pub use scaling::{scale, Interconnect, ScalingPoint};
pub use spec::{BandwidthCurve, PlatformSpec};
pub use workload::{Format, WorkloadProfile};
