//! Dataset server on the crate's serve engine (`crate::engine`).
//!
//! Each admitted connection gets a thread of its own that runs its
//! requests through the session state machine (`crate::session`), at
//! most `workers` of them at once; connections beyond the admission
//! limit get a typed `Busy` frame, and graceful drain finishes in-flight
//! replies before closing. A training node's loader holds a handful of
//! connections per server, so a thread each is what that traffic needs.
//!
//! Each registered dataset is wrapped in a [`MemoryCacheSource`] hot
//! cache, so repeat fetches (second epochs, overlapping shards across
//! clients) are served from DRAM without touching the backing tier.

use crate::engine::{self, Engine};
use crate::metrics::{ServerMetrics, StatsSnapshot};
use sciml_obs::{Counter, MetricsRegistry, Telemetry, Tracer};
use sciml_pipeline::source::MemoryCacheSource;
use sciml_pipeline::SampleSource;
use sciml_store::manifest::plan_by_count;
use sciml_store::{ClusterPlan, ShardPlan, ShardSource};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests handled at once, over all connections.
    pub workers: usize,
    /// Hard cap on connections held at once; beyond it new connections
    /// get a `Busy` error frame.
    pub max_connections: usize,
    /// Per-dataset DRAM hot-cache capacity in bytes.
    pub cache_bytes: u64,
    /// Read and write timeout of every connection: one idle, stalled
    /// mid-frame or not reading its reply this long is closed, so a
    /// dead client cannot pin a connection forever.
    pub read_timeout: Duration,
    /// Hard bound on graceful drain before remaining connections are
    /// force-closed.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_connections: 20,
            cache_bytes: 256 << 20,
            read_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Cluster-mode settings: the complete node list (this node included)
/// and the replication factor for consistent-hash shard placement. All
/// cluster members must be configured with the *same* node list, in
/// any order — placement is order-insensitive because ring positions
/// hash the addresses themselves.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Every serving node's `host:port`, as clients reach them.
    pub nodes: Vec<String>,
    /// Replicas per shard (clamped to the node count at placement).
    pub replication: u16,
}

/// Samples per shard of the plan a dataset without a packed-store
/// manifest is described by.
const DEFAULT_PLAN_PER_SHARD: u64 = 64;

/// One registered dataset: its hot-cached source and the description a
/// `Manifest` reply sends.
pub(crate) struct Dataset {
    pub(crate) cache: MemoryCacheSource<Arc<dyn SampleSource>>,
    /// The dataset's shards — a packed store's own, else runs of
    /// [`DEFAULT_PLAN_PER_SHARD`] samples — placed on the cluster's
    /// nodes. Without cluster config it names no node: the bind address
    /// may be `0.0.0.0`, which no other host can dial, so the client
    /// places every shard on the address it dialled.
    pub(crate) plan: ClusterPlan,
}

pub(crate) struct Inner {
    pub(crate) datasets: BTreeMap<String, Dataset>,
    /// Shared `pipeline.cache.memory.*` counters every dataset cache
    /// feeds, read directly for [`StatsSnapshot`]s (summing per-dataset
    /// views of the same shared counters would multiply-count).
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    pub(crate) metrics: ServerMetrics,
    /// Span tracer; disabled unless the builder received a telemetry
    /// handle with an enabled one. Traced requests open a
    /// `serve/request` span linked to the client's trace.
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) local_addr: SocketAddr,
}

impl Inner {
    /// Server counters plus the shared cache totals.
    pub(crate) fn stats(&self) -> StatsSnapshot {
        self.metrics
            .snapshot(self.cache_hits.get(), self.cache_misses.get())
    }
}

/// A dataset registered with the builder: its source plus the shard
/// plan a `Manifest` reply reports, if the source has a real one.
type RegisteredSource = (Arc<dyn SampleSource>, Option<Vec<ShardPlan>>);

/// Builder: register datasets, then [`ServeBuilder::bind`].
pub struct ServeBuilder {
    sources: BTreeMap<String, RegisteredSource>,
    config: ServerConfig,
    registry: Option<Arc<MetricsRegistry>>,
    tracer: Option<Arc<Tracer>>,
    cluster: Option<ClusterConfig>,
}

impl Default for ServeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeBuilder {
    /// Starts an empty builder with default config.
    pub fn new() -> Self {
        Self {
            sources: BTreeMap::new(),
            config: ServerConfig::default(),
            registry: None,
            tracer: None,
            cluster: None,
        }
    }

    /// Overrides the server config.
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Uses `telemetry`'s registry *and* tracer. With an enabled
    /// tracer, Traced requests record `serve/request` spans linked
    /// into the requesting client's trace, and per-sample `serve/fetch`
    /// child spans under them.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.registry = Some(Arc::clone(&telemetry.registry));
        self.tracer = Some(Arc::clone(&telemetry.tracer));
        self
    }

    /// Declares this server a member of a cluster: `Manifest` replies
    /// place shards across `nodes` by consistent hashing with the given
    /// replication factor. Every member must be configured with the
    /// same node list.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Registers `source` under `name`. At bind time every source is
    /// wrapped in a DRAM hot cache of `cache_bytes`.
    pub fn dataset(mut self, name: impl Into<String>, source: Arc<dyn SampleSource>) -> Self {
        self.sources.insert(name.into(), (source, None));
        self
    }

    /// Registers a packed shard store as a dataset, exporting its real
    /// shard boundaries so staging clients fetch whole shards and their
    /// requests line up with the store's on-disk layout.
    pub fn dataset_store(mut self, name: impl Into<String>, store: Arc<ShardSource>) -> Self {
        let plans = store.manifest().plans();
        self.sources.insert(name.into(), (store, Some(plans)));
        self
    }

    /// Binds `addr` and starts the engine. Pass port 0 to let
    /// the OS pick; the bound address is on the handle.
    pub fn bind(self, addr: impl Into<String>) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr.into())?;
        let local_addr = listener.local_addr()?;
        let cache_bytes = self.config.cache_bytes;
        let registry = self.registry.unwrap_or_default();
        let (nodes, replication) = match &self.cluster {
            Some(c) => (&c.nodes[..], c.replication),
            None => (&[][..], 1),
        };
        let datasets = self
            .sources
            .into_iter()
            .map(|(name, (source, plans))| {
                let plans = plans
                    .unwrap_or_else(|| plan_by_count(source.len() as u64, DEFAULT_PLAN_PER_SHARD));
                let plan = ClusterPlan::assign(&plans, nodes, replication);
                let cache = MemoryCacheSource::with_registry(source, cache_bytes, &registry);
                (name, Dataset { cache, plan })
            })
            .collect();
        let inner = Arc::new(Inner {
            datasets,
            cache_hits: registry.counter("pipeline.cache.memory.hits"),
            cache_misses: registry.counter("pipeline.cache.memory.misses"),
            metrics: ServerMetrics::with_registry(&registry),
            tracer: self.tracer.unwrap_or_else(Tracer::disabled),
            local_addr,
        });

        let conn_metrics = inner.metrics.conn.clone();
        let engine = engine::spawn(listener, Arc::clone(&inner), &self.config, conn_metrics)?;
        Ok(ServerHandle { inner, engine })
    }
}

/// Running server. Dropping the handle drains and joins the engine.
pub struct ServerHandle {
    inner: Arc<Inner>,
    engine: Engine<Inner>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Requests handled so far (all datasets).
    pub fn requests(&self) -> u64 {
        self.inner.metrics.requests()
    }

    /// Connections rejected at the admission limit so far.
    pub fn rejected_connections(&self) -> u64 {
        self.inner.metrics.rejected_connections()
    }

    /// Current stats snapshot: the `serve.*` counters and the shared
    /// cache totals, read in process. Another process reads the same
    /// numbers from the scrape endpoint.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    /// The registry holding this server's `serve.*` instruments (the
    /// one [`ServeBuilder::telemetry`] passed, or a private one).
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        self.inner.metrics.registry()
    }

    /// Begins graceful drain without blocking: stop admitting (new
    /// connections get a typed draining/busy frame), let in-flight
    /// requests finish and their replies flush, then close. Call
    /// [`ServerHandle::shutdown`] or drop the handle to wait for
    /// completion.
    pub fn begin_drain(&self) {
        self.engine.begin_drain();
    }

    /// Stops accepting, drains in-flight work, and joins all threads.
    pub fn shutdown(self) {
        self.engine.shutdown();
    }

    /// Blocks until the server stops — i.e. until a client sends a wire
    /// `Shutdown` (or the handle is shut down from another thread).
    /// Used by `sciml serve`.
    pub fn join(self) {
        self.engine.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_message, write_message, ErrorCode, Message, PROTOCOL_VERSION};
    use sciml_pipeline::source::VecSource;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn demo_source() -> Arc<dyn SampleSource> {
        Arc::new(VecSource::new((0..8u8).map(|i| vec![i; 16]).collect()))
    }

    fn client(addr: SocketAddr) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_message(
            &mut s,
            &Message::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        assert_eq!(
            read_message(&mut s).unwrap(),
            Message::HelloAck {
                version: PROTOCOL_VERSION
            }
        );
        s
    }

    /// The plan a `Manifest` request for `name` is answered with.
    fn manifest(c: &mut TcpStream, name: &str) -> ClusterPlan {
        write_message(c, &Message::Manifest { name: name.into() }).unwrap();
        match read_message(c).unwrap() {
            Message::ManifestReply(plan) => plan,
            other => panic!("expected a manifest reply, got {other:?}"),
        }
    }

    #[test]
    fn serves_manifest_and_samples() {
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());

        assert_eq!(manifest(&mut c, "demo").total_samples(), 8);

        write_message(
            &mut c,
            &Message::FetchSamples {
                name: "demo".into(),
                indices: vec![3, 3, 0],
            },
        )
        .unwrap();
        let Message::Samples(samples) = read_message(&mut c).unwrap() else {
            panic!("expected samples");
        };
        assert_eq!(samples, vec![vec![3u8; 16], vec![3u8; 16], vec![0u8; 16]]);

        server.shutdown();
    }

    #[test]
    fn unknown_dataset_and_bad_index_get_typed_errors() {
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());

        write_message(
            &mut c,
            &Message::Manifest {
                name: "nope".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            read_message(&mut c).unwrap(),
            Message::Error {
                code: ErrorCode::UnknownDataset,
                ..
            }
        ));

        write_message(
            &mut c,
            &Message::FetchSamples {
                name: "demo".into(),
                indices: vec![999],
            },
        )
        .unwrap();
        assert!(matches!(
            read_message(&mut c).unwrap(),
            Message::Error {
                code: ErrorCode::IndexOutOfRange,
                ..
            }
        ));

        server.shutdown();
    }

    #[test]
    fn version_mismatch_rejected() {
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .bind("127.0.0.1:0")
            .unwrap();
        // Either side of ours: there is no negotiation.
        for version in [0, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, 999] {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write_message(&mut s, &Message::Hello { version }).unwrap();
            assert!(matches!(
                read_message(&mut s).unwrap(),
                Message::Error {
                    code: ErrorCode::VersionMismatch,
                    ..
                }
            ));
        }
        server.shutdown();
    }

    #[test]
    fn traced_request_records_linked_spans() {
        let telemetry = Telemetry::new();
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .telemetry(&telemetry)
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());
        write_message(
            &mut c,
            &Message::Traced {
                trace_id: 0xAAAA,
                parent_span: 0xBBBB,
                inner: Box::new(Message::FetchSamples {
                    name: "demo".into(),
                    indices: vec![0, 1],
                }),
            },
        )
        .unwrap();
        let Message::Samples(samples) = read_message(&mut c).unwrap() else {
            panic!("expected samples");
        };
        assert_eq!(samples.len(), 2);
        server.shutdown();

        let events = telemetry.tracer.events();
        let request = events
            .iter()
            .find(|e| e.name == "request")
            .expect("request span recorded");
        let req_ids = request.ids.expect("request span carries ids");
        assert_eq!(req_ids.trace_id, 0xAAAA);
        assert_eq!(req_ids.parent_id, 0xBBBB);
        let fetches: Vec<_> = events.iter().filter(|e| e.name == "fetch").collect();
        assert_eq!(fetches.len(), 2, "one serve/fetch span per sample");
        for f in fetches {
            let ids = f.ids.expect("fetch spans join the trace");
            assert_eq!(ids.trace_id, 0xAAAA);
            assert_eq!(ids.parent_id, req_ids.span_id);
        }
    }

    #[test]
    fn garbage_after_hello_gets_error_frame_not_hang() {
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());
        // A frame with a valid envelope but unknown tag.
        let payload = [0xEEu8];
        c.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        c.write_all(&payload).unwrap();
        c.write_all(&sciml_compress::crc32::crc32(&payload).to_le_bytes())
            .unwrap();
        c.flush().unwrap();
        assert!(matches!(
            read_message(&mut c).unwrap(),
            Message::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        server.shutdown();
    }

    #[test]
    fn a_client_bound_message_gets_a_parseable_bad_request() {
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());
        // A ~100 KB body: far past what a `u16`-prefixed detail can say.
        let samples = Message::Samples(vec![vec![0x5A; 100_000]]);
        write_message(&mut c, &samples).unwrap();
        match read_message(&mut c).unwrap() {
            Message::Error {
                code: ErrorCode::BadRequest,
                detail,
            } => assert_eq!(detail, "unexpected message: Samples"),
            other => panic!("expected a BadRequest, got {other:?}"),
        }
        // The connection and the server both go on answering.
        assert_eq!(manifest(&mut c, "demo").total_samples(), 8);
        assert_eq!(
            manifest(&mut client(server.local_addr()), "demo").total_samples(),
            8
        );
        server.shutdown();
    }

    /// One sample whose fetch meets the test at the barrier twice: once
    /// as it starts, and again before it returns.
    struct GatedSource(Arc<std::sync::Barrier>);

    impl SampleSource for GatedSource {
        fn len(&self) -> usize {
            1
        }

        fn fetch_into(&self, _idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
            self.0.wait();
            self.0.wait();
            buf.clear();
            buf.extend_from_slice(b"gated");
            Ok(())
        }

        fn bytes_read(&self) -> u64 {
            0
        }
    }

    /// Waits up to 10 s for `done`.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn a_closed_connections_session_never_reaches_the_next_one() {
        let gate = Arc::new(std::sync::Barrier::new(2));
        let server = ServeBuilder::new()
            .dataset("gated", Arc::new(GatedSource(Arc::clone(&gate))))
            .bind("127.0.0.1:0")
            .unwrap();
        let registry = server.metrics_registry();
        let conns = || {
            let snap = registry.snapshot();
            (
                snap.counter("serve.conn.accepted"),
                snap.gauge("serve.conn.active"),
            )
        };
        // A greets, asks for the sample, and hangs up while its request
        // is being handled.
        let mut a = client(server.local_addr());
        let fetch = Message::FetchSamples {
            name: "gated".into(),
            indices: vec![0],
        };
        write_message(&mut a, &fetch).unwrap();
        gate.wait();
        drop(a);
        // B is admitted while A's request is still running.
        let mut b = TcpStream::connect(server.local_addr()).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        wait_for("B admitted", || conns() == (2, 2));
        // A's request ends, its reply finds no reader, and A closes.
        gate.wait();
        wait_for("A closed", || conns() == (2, 1));
        assert_eq!(server.requests(), 1);
        // B never said Hello: its own new session says so, and nothing
        // of A's greeted session or reply reaches it.
        write_message(
            &mut b,
            &Message::Manifest {
                name: "gated".into(),
            },
        )
        .unwrap();
        match read_message(&mut b).unwrap() {
            Message::Error {
                code: ErrorCode::BadRequest,
                detail,
            } => assert_eq!(detail, "first message must be Hello"),
            other => panic!("B got {other:?}"),
        }
        let mut rest = Vec::new();
        b.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "{} more bytes reached B", rest.len());
        server.shutdown();
    }

    /// Every fetch sleeps, counting how many run at once.
    #[derive(Default)]
    struct SleepySource {
        running: std::sync::atomic::AtomicUsize,
        peak: std::sync::atomic::AtomicUsize,
    }

    impl SampleSource for SleepySource {
        fn len(&self) -> usize {
            8
        }

        fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
            use std::sync::atomic::Ordering::SeqCst;
            let now = self.running.fetch_add(1, SeqCst) + 1;
            self.peak.fetch_max(now, SeqCst);
            std::thread::sleep(Duration::from_millis(100));
            self.running.fetch_sub(1, SeqCst);
            buf.clear();
            buf.push(idx as u8);
            Ok(())
        }

        fn bytes_read(&self) -> u64 {
            0
        }
    }

    #[test]
    fn one_worker_handles_one_request_at_a_time_over_all_connections() {
        let source = Arc::new(SleepySource::default());
        let server = ServeBuilder::new()
            .config(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            })
            .dataset("sleepy", Arc::clone(&source) as Arc<dyn SampleSource>)
            .bind("127.0.0.1:0")
            .unwrap();
        let addr = server.local_addr();
        let start = Arc::new(std::sync::Barrier::new(2));
        let fetchers: Vec<_> = (0..2u64)
            .map(|c| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut s = client(addr);
                    start.wait();
                    for i in 0..2 {
                        let fetch = Message::FetchSamples {
                            name: "sleepy".into(),
                            indices: vec![2 * c + i],
                        };
                        write_message(&mut s, &fetch).unwrap();
                        let Message::Samples(got) = read_message(&mut s).unwrap() else {
                            panic!("expected samples");
                        };
                        assert_eq!(got, vec![vec![(2 * c + i) as u8]]);
                    }
                })
            })
            .collect();
        for f in fetchers {
            f.join().unwrap();
        }
        assert_eq!(server.requests(), 4);
        assert_eq!(source.peak.load(std::sync::atomic::Ordering::SeqCst), 1);
        server.shutdown();
    }

    #[test]
    fn second_epoch_hits_hot_cache() {
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());
        for _ in 0..2 {
            write_message(
                &mut c,
                &Message::FetchSamples {
                    name: "demo".into(),
                    indices: (0..8).collect(),
                },
            )
            .unwrap();
            let Message::Samples(s) = read_message(&mut c).unwrap() else {
                panic!("expected samples");
            };
            assert_eq!(s.len(), 8);
        }
        let stats = server.stats();
        assert_eq!(stats.cache_misses, 8);
        assert_eq!(stats.cache_hits, 8);
        assert_eq!(stats.samples_served, 16);
        assert!(
            stats.latency.count >= 2,
            "request latency histogram populated"
        );
        server.shutdown();
    }

    #[test]
    fn manifest_synthesizes_a_plan_for_a_plain_dataset() {
        let samples: Vec<Vec<u8>> = (0..150u8).map(|i| vec![i; 4]).collect();
        let server = ServeBuilder::new()
            .dataset("demo", Arc::new(VecSource::new(samples)))
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());
        let plan = manifest(&mut c, "demo");
        let runs: Vec<(u64, u64)> = plan
            .shards
            .iter()
            .map(|a| (a.plan.first, a.plan.count))
            .collect();
        assert_eq!(runs, [(0, 64), (64, 64), (128, 22)]);

        write_message(
            &mut c,
            &Message::Manifest {
                name: "nope".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            read_message(&mut c).unwrap(),
            Message::Error {
                code: ErrorCode::UnknownDataset,
                ..
            }
        ));
        server.shutdown();
    }

    #[test]
    fn manifest_reports_real_store_plans() {
        use sciml_store::{pack_store, PackConfig};

        let dir = std::env::temp_dir().join(format!(
            "sciml_serve_store_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let samples: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 100]).collect();
        pack_store(
            &VecSource::new(samples),
            &dir,
            PackConfig {
                target_shard_bytes: 300,
                ..PackConfig::default()
            },
        )
        .unwrap();
        let store = Arc::new(ShardSource::open(&dir).unwrap());
        let expected = store.manifest().plans();
        assert!(expected.len() > 1, "test store must span several shards");

        let server = ServeBuilder::new()
            .dataset_store("packed", store)
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());
        let plans: Vec<ShardPlan> = manifest(&mut c, "packed")
            .shards
            .iter()
            .map(|a| a.plan)
            .collect();
        assert_eq!(plans, expected);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_registry_exposes_server_metrics() {
        let telemetry = Telemetry::disabled();
        let reg = Arc::clone(&telemetry.registry);
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .telemetry(&telemetry)
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());
        write_message(
            &mut c,
            &Message::FetchSamples {
                name: "demo".into(),
                indices: vec![0, 1],
            },
        )
        .unwrap();
        let Message::Samples(_) = read_message(&mut c).unwrap() else {
            panic!("expected samples");
        };
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.samples_served"), 2);
        assert_eq!(snap.histogram("serve.request_ns").unwrap().count, 1);
        assert_eq!(snap.counter("serve.conn.accepted"), 1);
        assert_eq!(snap.gauge("serve.conn.active"), 1);
        server.shutdown();
    }

    #[test]
    fn manifest_without_cluster_config_names_no_node() {
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = client(server.local_addr());
        let plan = manifest(&mut c, "demo");
        assert!(plan.nodes.is_empty(), "{:?}", plan.nodes);
        assert_eq!(plan.total_samples(), 8);
        assert!(!plan.shards.is_empty());
        assert!(plan.shards.iter().all(|a| a.replicas.is_empty()));
        server.shutdown();
    }

    #[test]
    fn manifest_reports_configured_placement() {
        let nodes = vec![
            "10.0.0.1:7000".to_string(),
            "10.0.0.2:7000".to_string(),
            "10.0.0.3:7000".to_string(),
        ];
        let server = ServeBuilder::new()
            .dataset("demo", demo_source())
            .cluster(ClusterConfig {
                nodes: nodes.clone(),
                replication: 2,
            })
            .bind("127.0.0.1:0")
            .unwrap();
        let plan = manifest(&mut client(server.local_addr()), "demo");
        assert_eq!(plan.nodes, nodes);
        assert_eq!(plan.replication, 2);
        plan.validate().expect("plan is valid");
        // Placement must match a locally computed one (deterministic
        // ring), so any member answers identically.
        let plans: Vec<ShardPlan> = plan.shards.iter().map(|a| a.plan).collect();
        let local = ClusterPlan::assign(&plans, &nodes, 2);
        assert_eq!(plan, local);
        server.shutdown();
    }
}
