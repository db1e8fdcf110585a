//! Runtime CPU-feature probe and SIMD dispatch support.
//!
//! The decode hot loops (CosmoFlow LUT gather, DeepCAM differential
//! decode, bulk F32↔F16 conversion) each carry hand-written intrinsics
//! paths plus a canonical scalar fallback; the per-element `log1p` is
//! one safe loop compiled once per tier. This crate is the shared,
//! dependency-free substrate they dispatch through:
//!
//! * [`detected_level`] — a cached, one-time probe of what the host CPU
//!   supports (`is_x86_feature_detected!` on x86-64). The vector tiers
//!   are x86-64's; any other host, aarch64 included, runs the scalar one.
//! * `SCIML_SIMD=scalar|sse42|avx2` — an environment override so
//!   tests and CI can force every tier. Forcing a tier the host cannot
//!   run clamps to [`SimdLevel::Scalar`] (never an illegal-instruction
//!   crash); an unrecognized value is ignored.
//! * [`force`] — an in-process override (RAII guard) for proptests and
//!   benches that iterate tiers inside one process. It is a process
//!   global rather than a thread-local so forced tiers propagate into
//!   spawned decode workers; this is sound because every tier is
//!   bit-exact, so concurrent tests can only change *which* kernel runs,
//!   never what it produces.
//! * [`record`] / [`dispatch_counts`] — relaxed per-(kernel, level)
//!   counters so `sciml fetch --stats` and the Prometheus scrape can
//!   show which path actually ran (`codec.simd.*`).
//! * [`kernel_plan`] — every kernel's path at the active tier, which
//!   `sciml cpu-features` prints.
//!
//! Every dispatch site matches on [`active_level`], which names only a
//! tier this CPU runs: the probe's, or a request clamped to it.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// An ISA tier a kernel can be compiled for, from least to most
/// capable; each implies the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar Rust — the canonical semantics every vector path
    /// must match bit for bit.
    Scalar,
    /// x86-64 SSE4.2 (uses SSE2..SSE4.1 integer ops, no AVX state).
    Sse42,
    /// x86-64 AVX2 + F16C (hardware F32↔F16 conversion).
    Avx2,
}

/// All tiers, in probe order (most capable last).
pub const ALL_LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse42, SimdLevel::Avx2];

impl SimdLevel {
    /// Stable lowercase name (the `SCIML_SIMD` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse42 => "sse42",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a `SCIML_SIMD` value (case-insensitive).
    pub fn from_name(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse42" | "sse4.2" | "sse4" => Some(SimdLevel::Sse42),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Dense index for counter tables, in capability order.
    pub fn index(self) -> usize {
        match self {
            SimdLevel::Scalar => 0,
            SimdLevel::Sse42 => 1,
            SimdLevel::Avx2 => 2,
        }
    }

    fn from_index(i: usize) -> Option<Self> {
        ALL_LEVELS.get(i).copied()
    }
}

/// One-time hardware probe. The `avx2` tier additionally requires F16C
/// (for the hardware F32↔F16 conversions) and SSE4.2; every AVX2 part
/// shipped with both, but a hypervisor can mask them independently, so
/// we check rather than assume.
fn probe() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("f16c")
            && std::arch::is_x86_feature_detected!("sse4.2")
        {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return SimdLevel::Sse42;
        }
        SimdLevel::Scalar
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The most capable tier the host CPU can run (cached).
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(probe)
}

/// The support rule: a CPU whose probe found `detected` runs the
/// `requested` tier's kernels when that tier is at most as capable (the
/// avx2 probe requires sse4.2, and scalar runs anywhere).
fn runs_on(requested: SimdLevel, detected: SimdLevel) -> bool {
    requested.index() <= detected.index()
}

/// Whether the host can execute kernels of this tier.
pub fn is_supported(level: SimdLevel) -> bool {
    runs_on(level, detected_level())
}

/// `level` if the host runs it, else `Scalar`: what a request for a
/// tier resolves to (deterministic and safe, never an illegal
/// instruction).
fn clamp(level: SimdLevel) -> SimdLevel {
    if is_supported(level) {
        level
    } else {
        SimdLevel::Scalar
    }
}

/// All tiers the host can execute, least capable first (always starts
/// with `Scalar`). This is what the CI `simd-matrix` stage iterates.
pub fn supported_levels() -> Vec<SimdLevel> {
    ALL_LEVELS
        .iter()
        .copied()
        .filter(|&l| is_supported(l))
        .collect()
}

/// Name of the tier-override environment variable.
pub const SIMD_ENV: &str = "SCIML_SIMD";

/// Raw `SCIML_SIMD` value as seen at first use, if any (cached; later
/// env mutations are deliberately ignored so dispatch is stable).
pub fn env_request() -> Option<&'static str> {
    static RAW: OnceLock<Option<String>> = OnceLock::new();
    RAW.get_or_init(|| std::env::var(SIMD_ENV).ok()).as_deref()
}

/// The tier `SCIML_SIMD` resolves to, if the variable is set to a valid
/// name. A valid but unsupported tier clamps to `Scalar` (deterministic
/// and safe, never an illegal instruction); an unrecognized value yields
/// `None` and detection wins.
pub fn env_level() -> Option<SimdLevel> {
    static PARSED: OnceLock<Option<SimdLevel>> = OnceLock::new();
    *PARSED.get_or_init(|| SimdLevel::from_name(env_request()?).map(clamp))
}

// In-process override: 0 = none, otherwise level index + 1. A process
// global (not a thread-local) so a forced tier reaches decode threads
// spawned by rayon or the bench harness.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// RAII guard restoring the previous in-process override on drop.
pub struct ForceGuard {
    prev: u8,
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        FORCED.store(self.prev, Ordering::Relaxed);
    }
}

/// Forces the active tier for the whole process until the guard drops
/// (`None` clears a previous force). Unsupported tiers clamp to
/// `Scalar`. Intended for tests and benches that iterate tiers.
pub fn force(level: Option<SimdLevel>) -> ForceGuard {
    let val = match level {
        None => 0,
        Some(l) => clamp(l).index() as u8 + 1,
    };
    let prev = FORCED.swap(val, Ordering::Relaxed);
    ForceGuard { prev }
}

/// The tier kernels should dispatch to *right now*: in-process force,
/// else `SCIML_SIMD`, else hardware detection. Both overrides are
/// clamped, so this is always a tier the host runs, and a dispatch site
/// may call that tier's `#[target_feature]` kernels on its word.
#[inline]
pub fn active_level() -> SimdLevel {
    let forced = FORCED.load(Ordering::Relaxed);
    if forced != 0 {
        if let Some(l) = SimdLevel::from_index(forced as usize - 1) {
            return l;
        }
    }
    match env_level() {
        Some(l) => l,
        None => detected_level(),
    }
}

/// A dispatched kernel family, for attribution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// CosmoFlow dense-LUT gather (per chunk).
    CosmoGather,
    /// Bulk F32→F16 narrowing (per slice call).
    HalfNarrow,
    /// Bulk F16→F32 widening (per slice call).
    HalfWiden,
    /// Bulk in-place `log1p` of the per-element operator (per slice
    /// call).
    OpLog1p,
    /// DeepCAM encoder's lockstep quantiser (per channel).
    DeepcamEncode,
    /// DeepCAM decoder's lockstep prefix, or the scalar per-line loop
    /// (per sample).
    DeepcamDecode,
}

/// All kernel families, in counter-table order.
pub const ALL_KERNELS: [Kernel; 6] = [
    Kernel::CosmoGather,
    Kernel::HalfNarrow,
    Kernel::HalfWiden,
    Kernel::OpLog1p,
    Kernel::DeepcamEncode,
    Kernel::DeepcamDecode,
];

impl Kernel {
    /// Stable metric-name segment (`codec.simd.<kernel>.<level>`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::CosmoGather => "cosmo_gather",
            Kernel::HalfNarrow => "half_narrow",
            Kernel::HalfWiden => "half_widen",
            Kernel::OpLog1p => "op_log1p",
            Kernel::DeepcamEncode => "deepcam_encode",
            Kernel::DeepcamDecode => "deepcam_decode",
        }
    }

    fn index(self) -> usize {
        match self {
            Kernel::CosmoGather => 0,
            Kernel::HalfNarrow => 1,
            Kernel::HalfWiden => 2,
            Kernel::OpLog1p => 3,
            Kernel::DeepcamEncode => 4,
            Kernel::DeepcamDecode => 5,
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; ALL_LEVELS.len()] = [ZERO; ALL_LEVELS.len()];
static DISPATCH: [[AtomicU64; ALL_LEVELS.len()]; ALL_KERNELS.len()] = [ZERO_ROW; ALL_KERNELS.len()];

/// Records one dispatch of `kernel` through the `level` path. Relaxed;
/// a few nanoseconds against kernels that run for microseconds.
#[inline]
pub fn record(kernel: Kernel, level: SimdLevel) {
    DISPATCH[kernel.index()][level.index()].fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of every (kernel, level) dispatch count since process start.
pub fn dispatch_counts() -> Vec<(Kernel, SimdLevel, u64)> {
    let mut out = Vec::with_capacity(ALL_KERNELS.len() * ALL_LEVELS.len());
    for &k in &ALL_KERNELS {
        for &l in &ALL_LEVELS {
            out.push((k, l, DISPATCH[k.index()][l.index()].load(Ordering::Relaxed)));
        }
    }
    out
}

/// Total dispatches recorded for one level, summed over kernels.
pub fn level_total(level: SimdLevel) -> u64 {
    ALL_KERNELS
        .iter()
        .map(|k| DISPATCH[k.index()][level.index()].load(Ordering::Relaxed))
        .sum()
}

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

/// The dispatch plan for every decode kernel at the [`active_level`]
/// (env override and force guards included): the level that will run.
pub fn kernel_plan() -> Vec<KernelPath> {
    let lvl = active_level();
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
        (Kernel::HalfNarrow, SimdLevel::Avx2) => "F16C vcvtps2ph, 8 lanes",
        (Kernel::HalfNarrow, SimdLevel::Sse42) => "integer round-to-nearest-even narrow, 4 lanes",
        (Kernel::HalfWiden, SimdLevel::Avx2) => "F16C vcvtph2ps, 8 lanes",
        (Kernel::HalfWiden, SimdLevel::Sse42) => "integer exponent rebias widen, 4 lanes",
        (Kernel::OpLog1p, SimdLevel::Avx2) => "scalar source auto-vectorised, 8 lanes",
        (Kernel::OpLog1p, SimdLevel::Sse42) => "scalar source auto-vectorised, 4 lanes",
        (Kernel::DeepcamEncode, SimdLevel::Avx2) => "16 lines in lockstep, 2 vectors of 8 lanes",
        (Kernel::DeepcamEncode, SimdLevel::Sse42) => "16 lines in lockstep, 4 vectors of 4 lanes",
        (Kernel::DeepcamDecode, SimdLevel::Avx2) => "16 lines in lockstep, 2 vectors of 8 lanes",
        (Kernel::DeepcamDecode, SimdLevel::Sse42) => "scalar reference loop",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Held by every test that forces a tier or reads the active one:
    /// the override is process-wide, and guards dropped out of order
    /// would leave a stale force behind.
    static FORCING: Mutex<()> = Mutex::new(());

    #[test]
    fn names_roundtrip() {
        for &l in &ALL_LEVELS {
            assert_eq!(SimdLevel::from_name(l.name()), Some(l));
        }
        assert_eq!(SimdLevel::from_name("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::from_name("sse4.2"), Some(SimdLevel::Sse42));
        assert_eq!(SimdLevel::from_name("mmx"), None);
    }

    #[test]
    fn scalar_is_always_supported_and_detected_is_supported() {
        assert!(is_supported(SimdLevel::Scalar));
        assert!(is_supported(detected_level()));
        let levels = supported_levels();
        assert_eq!(levels.first(), Some(&SimdLevel::Scalar));
        assert!(levels.contains(&detected_level()));
    }

    #[test]
    fn force_guard_overrides_and_restores() {
        let _serial = FORCING.lock().unwrap_or_else(|e| e.into_inner());
        let baseline = active_level();
        {
            let _g = force(Some(SimdLevel::Scalar));
            assert_eq!(active_level(), SimdLevel::Scalar);
        }
        assert_eq!(active_level(), baseline);
    }

    #[test]
    fn forcing_unsupported_clamps_to_scalar() {
        let _serial = FORCING.lock().unwrap_or_else(|e| e.into_inner());
        // The rule for a CPU without each vector tier, whatever this
        // host has.
        use SimdLevel::*;
        assert!(runs_on(Scalar, Scalar));
        assert!(!runs_on(Sse42, Scalar));
        assert!(!runs_on(Avx2, Scalar));
        assert!(runs_on(Scalar, Sse42));
        assert!(runs_on(Sse42, Sse42));
        assert!(!runs_on(Avx2, Sse42));
        for &l in &ALL_LEVELS {
            assert!(runs_on(l, Avx2));
        }
        // And the clamp on this host's own unsupported tiers.
        for l in ALL_LEVELS.into_iter().filter(|&l| !is_supported(l)) {
            let _g = force(Some(l));
            assert_eq!(active_level(), SimdLevel::Scalar);
        }
    }

    #[test]
    fn dispatch_counters_accumulate() {
        let before = level_total(SimdLevel::Scalar);
        record(Kernel::HalfNarrow, SimdLevel::Scalar);
        record(Kernel::CosmoGather, SimdLevel::Scalar);
        assert!(level_total(SimdLevel::Scalar) >= before + 2);
        let counts = dispatch_counts();
        assert_eq!(counts.len(), ALL_KERNELS.len() * ALL_LEVELS.len());
    }

    #[test]
    fn plan_covers_every_kernel_at_one_level() {
        let _serial = FORCING.lock().unwrap_or_else(|e| e.into_inner());
        let plan = kernel_plan();
        assert_eq!(plan.len(), ALL_KERNELS.len());
        for p in &plan {
            assert_eq!(p.level, active_level());
            assert!(!p.strategy.is_empty() && !p.stage.is_empty());
        }
    }

    #[test]
    fn forced_scalar_plan_reports_scalar_strategies() {
        let _serial = FORCING.lock().unwrap_or_else(|e| e.into_inner());
        let _g = force(Some(SimdLevel::Scalar));
        for p in kernel_plan() {
            assert_eq!(p.level, SimdLevel::Scalar);
            assert_eq!(p.strategy, "scalar reference loop");
        }
    }
}
