//! sciml-obs — unified telemetry layer for the sciml stack.
//!
//! Three pieces, all `std`-only and shareable across threads:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed latency [`Histogram`]s. Instruments are registered by
//!   name once and recorded lock-free thereafter; histograms answer
//!   p50/p95/p99/max queries and merge bucket-wise, so per-worker or
//!   per-connection distributions roll up without losing the tail.
//! * [`Tracer`] — bounded-ring span tracing. RAII [`SpanGuard`]s stamp
//!   thread id + wall-clock offsets; [`Tracer::write_chrome_trace`]
//!   emits trace-event JSON viewable in `chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev). Near-zero cost when disabled.
//! * [`prom`] — the one metrics format: Prometheus text exposition,
//!   plus the line parser the self-checks use.
//! * [`export`] — `results/BENCH_*.json` perf snapshots for the bench
//!   harness.
//!
//! [`Telemetry`] bundles a registry + tracer as the single handle the
//! pipeline, codec, serving, and training tiers thread through their
//! constructors. [`Telemetry::exposition`] is the one metrics read-out:
//! the scrape endpoint and every `--metrics-out` file are its text.
//!
//! ```
//! use sciml_obs::Telemetry;
//!
//! let tel = Telemetry::new();
//! let lat = tel.registry.histogram("demo.latency_ns");
//! for v in [120u64, 130, 5_000] {
//!     lat.record(v);
//! }
//! {
//!     let _span = tel.tracer.span("demo", "work");
//! }
//! let snap = tel.registry.snapshot();
//! assert_eq!(snap.histogram("demo.latency_ns").unwrap().count, 3);
//! assert_eq!(tel.tracer.events().len(), 1);
//! ```

#![deny(missing_docs)]

pub mod context;
pub mod export;
pub mod histogram;
pub mod json;
pub mod lockcheck;
pub mod merge;
pub mod prom;
pub mod registry;
pub mod sampler;
pub mod simd;
pub mod trace;

pub use context::TraceContext;
pub use export::{bench_snapshot_json, write_bench_snapshot, BenchEntry};
pub use histogram::{Histogram, HistogramSnapshot};
pub use merge::merge_chrome_traces;
pub use prom::{parse_prometheus, prometheus_text, write_prometheus};
pub use registry::{Counter, Gauge, MetricValue, MetricsRegistry, RegistrySnapshot};
pub use sampler::{pipeline_stages, AttributionReport, PipelineSampler, SamplerConfig, StageSpec};
pub use trace::{SpanGuard, SpanIds, TraceEvent, Tracer};

use std::sync::Arc;

/// Default span-ring capacity for [`Telemetry::new`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The registry + tracer pair a process threads through its tiers.
///
/// Cloning is cheap (two `Arc`s) and every clone observes the same
/// instruments, so the pipeline workers, codec, server, and CLI all
/// feed one snapshot.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Shared metrics registry.
    pub registry: Arc<MetricsRegistry>,
    /// Shared span tracer.
    pub tracer: Arc<Tracer>,
}

impl Telemetry {
    /// Fresh registry with an *enabled* tracer of
    /// [`DEFAULT_TRACE_CAPACITY`] events.
    pub fn new() -> Self {
        Self {
            registry: MetricsRegistry::new(),
            tracer: Tracer::new(DEFAULT_TRACE_CAPACITY),
        }
    }

    /// Fresh registry with a *disabled* tracer: metrics still record,
    /// spans cost one atomic load. The right default for hot paths.
    pub fn disabled() -> Self {
        Self {
            registry: MetricsRegistry::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The one metrics read-out. Refreshes the three derived families
    /// first — `obs.trace.dropped_spans` from the tracer,
    /// `analyze.lockcheck.*` from the lock-order detector (in
    /// `--cfg lockcheck` builds) and `codec.simd.*` from the kernel
    /// dispatch counters — then renders the whole registry as
    /// Prometheus text. The scrape endpoint and every `--metrics-out`
    /// file are this text.
    pub fn exposition(&self) -> String {
        self.registry
            .gauge("obs.trace.dropped_spans")
            .set(i64::try_from(self.tracer.dropped()).unwrap_or(i64::MAX));
        lockcheck::publish(&self.registry);
        simd::publish(&self.registry);
        prometheus_text(&self.registry.snapshot())
    }

    /// Writes the retained trace as Chrome trace-event JSON to `path`.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        self.tracer.write_chrome_trace(&mut f)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_read_out_carries_every_derived_family() {
        let tel = Telemetry {
            registry: MetricsRegistry::new(),
            tracer: Tracer::new(2),
        };
        tel.registry.counter("demo.events").add(3);
        for _ in 0..5 {
            let _span = tel.tracer.span("demo", "work");
        }
        let text = tel.exposition();
        let parsed = parse_prometheus(&text).expect("valid exposition");
        assert_eq!(parsed.samples_named("demo_events")[0].value, "3");
        assert_eq!(parsed.kind("obs_trace_dropped_spans"), Some("gauge"));
        assert_eq!(
            parsed.samples_named("obs_trace_dropped_spans")[0].value,
            tel.tracer.dropped().to_string()
        );
        assert!(tel.tracer.dropped() > 0);
        assert_eq!(parsed.kind("codec_simd_dispatch_total"), Some("gauge"));
        assert_eq!(
            parsed.kind("analyze_lockcheck_acquisitions").is_some(),
            parking_lot::lockcheck::enabled()
        );
    }
}
