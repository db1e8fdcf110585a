//! Per-stage instrumentation of the loading pipeline, backed by the
//! shared `sciml-obs` registry.
//!
//! Stage timings are full latency distributions (log-bucketed
//! histograms answering p50/p95/p99), not just nanosecond sums; the
//! old seconds/count accessors remain, now derived from the histogram
//! sums, so existing callers keep working. Every instrument is
//! registered under a `pipeline.*` name in a [`MetricsRegistry`], which
//! may be shared with the serving and training tiers for one coherent
//! snapshot.

use sciml_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Per-stage latency histograms plus counters, shared across worker
/// threads. Construct via [`PipelineStats::new`] (private registry) or
/// [`PipelineStats::with_registry`] (shared registry).
#[derive(Debug)]
pub struct PipelineStats {
    registry: Arc<MetricsRegistry>,
    /// Per-sample fetch latency, nanoseconds (`pipeline.fetch_ns`).
    pub fetch_ns: Arc<Histogram>,
    /// Per-sample time of a decode thread's whole item, nanoseconds
    /// (`pipeline.decode_ns`): the unpack of an entry that arrived as
    /// stored, then the plugin.
    pub decode_ns: Arc<Histogram>,
    /// The unpack alone, one record per entry that arrived as stored,
    /// nanoseconds (`pipeline.unpack_ns`); inside `decode_ns`.
    pub unpack_ns: Arc<Histogram>,
    /// Consumer wait per batch, nanoseconds (`pipeline.wait_ns`).
    pub wait_ns: Arc<Histogram>,
    /// Samples fetched (`pipeline.samples`).
    pub samples: Arc<Counter>,
    /// Batches delivered (`pipeline.batches`).
    pub batches: Arc<Counter>,
    /// Decoded bytes of the samples fetched from the source
    /// (`pipeline.bytes`).
    pub bytes: Arc<Counter>,
    /// Source fetches that returned an error, on the reader or in the
    /// unpack that finishes them (`pipeline.fetch_errors`).
    pub fetch_errors: Arc<Counter>,
    /// Decoder invocations that returned an error
    /// (`pipeline.decode_errors`).
    pub decode_errors: Arc<Counter>,
    /// Depth of the fetch→decode queue, sampled as items pass through
    /// (`pipeline.queue.raw_depth`). A queue pinned at capacity means
    /// decode is the bottleneck; pinned at zero means fetch is.
    pub raw_depth: Arc<Gauge>,
    /// Depth of the decode→consumer queue
    /// (`pipeline.queue.batch_depth`).
    pub batch_depth: Arc<Gauge>,
}

impl Default for PipelineStats {
    fn default() -> Self {
        Self::on_registry(&MetricsRegistry::new())
    }
}

impl PipelineStats {
    /// Fresh stats handle on a private registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Stats handle registering its instruments in `registry`, so
    /// pipeline metrics appear alongside whatever else the process
    /// records there.
    pub fn with_registry(registry: &Arc<MetricsRegistry>) -> Arc<Self> {
        Arc::new(Self::on_registry(registry))
    }

    fn on_registry(registry: &Arc<MetricsRegistry>) -> Self {
        Self {
            registry: Arc::clone(registry),
            fetch_ns: registry.histogram("pipeline.fetch_ns"),
            decode_ns: registry.histogram("pipeline.decode_ns"),
            unpack_ns: registry.histogram("pipeline.unpack_ns"),
            wait_ns: registry.histogram("pipeline.wait_ns"),
            samples: registry.counter("pipeline.samples"),
            batches: registry.counter("pipeline.batches"),
            bytes: registry.counter("pipeline.bytes"),
            fetch_errors: registry.counter("pipeline.fetch_errors"),
            decode_errors: registry.counter("pipeline.decode_errors"),
            raw_depth: registry.gauge("pipeline.queue.raw_depth"),
            batch_depth: registry.gauge("pipeline.queue.batch_depth"),
        }
    }

    /// The registry these instruments live in.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Seconds spent fetching (sum across workers).
    pub fn fetch_seconds(&self) -> f64 {
        self.fetch_ns.sum() as f64 * 1e-9
    }

    /// Seconds spent decoding (sum across workers).
    pub fn decode_seconds(&self) -> f64 {
        self.decode_ns.sum() as f64 * 1e-9
    }

    /// Samples delivered.
    pub fn sample_count(&self) -> u64 {
        self.samples.get()
    }

    /// Batches delivered.
    pub fn batch_count(&self) -> u64 {
        self.batches.get()
    }

    /// Bytes fetched from the source.
    pub fn byte_count(&self) -> u64 {
        self.bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_accumulates_into_histogram() {
        let s = PipelineStats::default();
        let v = s.fetch_ns.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(s.fetch_seconds() >= 0.001);
        assert_eq!(s.fetch_ns.count(), 1);
    }

    #[test]
    fn second_conversions() {
        let s = PipelineStats::default();
        s.fetch_ns.record(2_500_000_000);
        assert!((s.fetch_seconds() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn shared_registry_sees_pipeline_metrics() {
        let reg = MetricsRegistry::new();
        let s = PipelineStats::with_registry(&reg);
        s.samples.add(3);
        s.decode_ns.record(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pipeline.samples"), 3);
        assert_eq!(snap.histogram("pipeline.decode_ns").unwrap().count, 1);
    }
}
