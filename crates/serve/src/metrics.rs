//! Server-side metrics on the shared `sciml-obs` registry. Out of
//! process they are read from the scrape endpoint; in process,
//! [`ServerMetrics::snapshot`] copies them into a [`StatsSnapshot`].
//!
//! Request handling time is a full latency histogram
//! (`serve.request_ns`), so a snapshot carries p50/p95/p99 tails
//! beside the cumulative `request_ns` sum.

use sciml_obs::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// The server's counters at one instant, as
/// [`ServerHandle::stats`](crate::ServerHandle::stats) returns them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests served (all message kinds after `Hello`).
    pub requests: u64,
    /// Sample payloads shipped.
    pub samples_served: u64,
    /// Payload bytes shipped to clients.
    pub bytes_sent: u64,
    /// Hot-cache hits.
    pub cache_hits: u64,
    /// Hot-cache misses (fetches that went to the backing source).
    pub cache_misses: u64,
    /// Connections rejected at the admission limit.
    pub rejected_connections: u64,
    /// Cumulative request handling time, nanoseconds.
    pub request_ns: u64,
    /// Store payloads decoded from raw entries.
    pub decoded_raw: u64,
    /// Store payloads decoded from gzip entries.
    pub decoded_gzip: u64,
    /// Request-latency distribution (nanoseconds).
    pub latency: HistogramSnapshot,
}

/// Instruments shared by every connection handler, registered under
/// `serve.*` names.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    requests: Arc<Counter>,
    samples_served: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    /// Per-encoding store decode counters (`store.decode.*`) — bumped
    /// by the shard source when it shares this registry, surfaced in
    /// [`StatsSnapshot`].
    decoded_raw: Arc<Counter>,
    decoded_gzip: Arc<Counter>,
    /// Per-request handling latency, nanoseconds (`serve.request_ns`).
    pub request_latency: Arc<Histogram>,
    /// The connection lifecycle, which the reactor records.
    pub(crate) conn: ConnMetrics,
}

/// Connection-lifecycle instruments (`serve.conn.*`): the reactor
/// records into them, [`StatsSnapshot`] reads `rejected_busy`.
#[derive(Debug, Clone)]
pub(crate) struct ConnMetrics {
    /// Connections admitted over the server's lifetime
    /// (`serve.conn.accepted`).
    pub(crate) accepted: Arc<Counter>,
    /// Connections turned away with a typed busy/draining frame
    /// (`serve.conn.rejected_busy`); the snapshot's
    /// `rejected_connections` reads it.
    pub(crate) rejected_busy: Arc<Counter>,
    /// Connections closed by graceful drain after their in-flight
    /// replies completed (`serve.conn.drained`).
    pub(crate) drained: Arc<Counter>,
    /// Connections currently open (`serve.conn.active`).
    pub(crate) active: Arc<Gauge>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::with_registry(&MetricsRegistry::new())
    }
}

impl ServerMetrics {
    /// Metrics registering their instruments in `registry`.
    pub fn with_registry(registry: &Arc<MetricsRegistry>) -> Self {
        Self {
            registry: Arc::clone(registry),
            requests: registry.counter("serve.requests"),
            samples_served: registry.counter("serve.samples_served"),
            bytes_sent: registry.counter("serve.bytes_sent"),
            decoded_raw: registry.counter("store.decode.raw"),
            decoded_gzip: registry.counter("store.decode.gzip"),
            request_latency: registry.histogram("serve.request_ns"),
            conn: ConnMetrics {
                accepted: registry.counter("serve.conn.accepted"),
                rejected_busy: registry.counter("serve.conn.rejected_busy"),
                drained: registry.counter("serve.conn.drained"),
                active: registry.gauge("serve.conn.active"),
            },
        }
    }

    /// The registry these instruments live in.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Records one handled request and its latency.
    pub fn record_request(&self, elapsed: Duration) {
        self.requests.inc();
        self.request_latency.record_duration(elapsed);
    }

    /// Records a shipped batch of sample payloads.
    pub fn record_samples(&self, count: u64, bytes: u64) {
        self.samples_served.add(count);
        self.bytes_sent.add(bytes);
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Connections rejected so far.
    pub fn rejected_connections(&self) -> u64 {
        self.conn.rejected_busy.get()
    }

    /// Builds the snapshot; cache counters come from the caller
    /// because they live on the per-dataset caches.
    pub fn snapshot(&self, cache_hits: u64, cache_misses: u64) -> StatsSnapshot {
        let latency = self.request_latency.snapshot();
        StatsSnapshot {
            requests: self.requests.get(),
            samples_served: self.samples_served.get(),
            bytes_sent: self.bytes_sent.get(),
            cache_hits,
            cache_misses,
            rejected_connections: self.conn.rejected_busy.get(),
            request_ns: latency.sum,
            decoded_raw: self.decoded_raw.get(),
            decoded_gzip: self.decoded_gzip.get(),
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_snapshot() {
        let m = ServerMetrics::default();
        m.record_request(Duration::from_nanos(500));
        m.record_request(Duration::from_nanos(700));
        m.record_samples(4, 4096);
        m.conn.rejected_busy.inc();
        let s = m.snapshot(10, 2);
        assert_eq!(s.requests, 2);
        assert_eq!(s.request_ns, 1200);
        assert_eq!(s.samples_served, 4);
        assert_eq!(s.bytes_sent, 4096);
        assert_eq!(s.cache_hits, 10);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.rejected_connections, 1);
        assert_eq!(s.latency.count, 2);
        assert_eq!(s.latency.min, 500);
        assert_eq!(s.latency.max, 700);
    }

    #[test]
    fn shared_registry_sees_serve_metrics() {
        let reg = MetricsRegistry::new();
        let m = ServerMetrics::with_registry(&reg);
        m.record_request(Duration::from_nanos(100));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.requests"), 1);
        assert_eq!(snap.histogram("serve.request_ns").unwrap().count, 1);
    }

    #[test]
    fn connection_lifecycle_instruments_are_registered() {
        let reg = MetricsRegistry::new();
        let m = ServerMetrics::with_registry(&reg);
        m.conn.accepted.inc();
        m.conn.active.add(1);
        m.conn.drained.inc();
        m.conn.rejected_busy.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.conn.accepted"), 1);
        assert_eq!(snap.gauge("serve.conn.active"), 1);
        assert_eq!(snap.counter("serve.conn.drained"), 1);
        assert_eq!(snap.counter("serve.conn.rejected_busy"), 1);
        assert_eq!(m.rejected_connections(), 1);
    }
}
