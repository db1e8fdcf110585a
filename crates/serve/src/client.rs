//! Remote dataset client: a [`SampleSource`] backed by a dataset
//! server, so a training pipeline consumes network-served samples
//! through the exact same trait as local files.
//!
//! Connections are pooled per source (reader threads check one out,
//! use it, and return it), every socket carries read/write timeouts,
//! and transient failures — dropped connections, timeouts, `Busy`
//! rejections — are retried with exponential backoff up to a bounded
//! attempt budget before surfacing as
//! [`PipelineError::Remote`]/[`PipelineError::Timeout`].

use crate::protocol::{
    read_message, read_sample_into, write_fetch_one, write_message, ErrorCode, Message,
    ProtocolError, PROTOCOL_VERSION,
};
use parking_lot::Mutex;
use sciml_obs::{Counter, MetricsRegistry, TraceContext};
use sciml_pipeline::{PipelineError, SampleSource};
use sciml_store::{ClusterPlan, ShardPlan};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Client tuning knobs. There is no connect timeout of its own: a
/// connect waits as long as the OS lets it, and a failed one uses up a
/// retry attempt like any other failure.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read timeout per response.
    pub read_timeout: Duration,
    /// Socket write timeout per request.
    pub write_timeout: Duration,
    /// Total attempts per operation (1 initial + retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub initial_backoff: Duration,
    /// Idle pooled connections kept per source.
    pub pool_size: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_attempts: 4,
            initial_backoff: Duration::from_millis(20),
            pool_size: 8,
        }
    }
}

/// One pooled connection, past its `Hello` exchange.
struct Conn {
    stream: TcpStream,
    /// The last one-index fetch request's frame: each fetch rewrites it
    /// in place.
    request: Vec<u8>,
}

impl Conn {
    /// Dials `addr` and greets with [`PROTOCOL_VERSION`]. A server on
    /// any other version answers with a typed `VersionMismatch`, which
    /// is returned as is: there is no negotiation.
    fn open(addr: &str, cfg: &ClientConfig) -> Result<Self, PipelineError> {
        let stream = TcpStream::connect(addr).map_err(io_to_pipeline)?;
        stream
            .set_read_timeout(Some(cfg.read_timeout))
            .map_err(io_to_pipeline)?;
        stream
            .set_write_timeout(Some(cfg.write_timeout))
            .map_err(io_to_pipeline)?;
        let _ = stream.set_nodelay(true);
        let mut conn = Self {
            stream,
            request: Vec::new(),
        };
        conn.send(&Message::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match conn.recv()? {
            Message::HelloAck {
                version: PROTOCOL_VERSION,
            } => Ok(conn),
            Message::HelloAck { version } => Err(server_error(
                ErrorCode::VersionMismatch,
                format!("server acked v{version}, client speaks v{PROTOCOL_VERSION}"),
            )),
            Message::Error { code, detail } => Err(server_error(code, detail)),
            other => Err(unexpected_reply(&other)),
        }
    }

    fn send(&mut self, msg: &Message) -> Result<(), PipelineError> {
        write_message(&mut self.stream, msg).map_err(protocol_to_pipeline)
    }

    fn recv(&mut self) -> Result<Message, PipelineError> {
        read_message(&mut self.stream).map_err(protocol_to_pipeline)
    }

    /// Sends one request. Issued under an active trace context it is
    /// wrapped in [`Message::Traced`] so the server's child spans join
    /// the caller's trace.
    fn request(&mut self, msg: &Message) -> Result<(), PipelineError> {
        match TraceContext::current() {
            Some(ctx) => self.send(&Message::Traced {
                trace_id: ctx.trace_id,
                parent_span: ctx.span_id,
                inner: Box::new(msg.clone()),
            }),
            None => self.send(msg),
        }
    }

    /// One request/response exchange.
    fn call(&mut self, msg: &Message) -> Result<Message, PipelineError> {
        self.request(msg)?;
        self.recv()
    }

    /// A one-index `FetchSamples` exchange for sample `idx` of `name`:
    /// the request is written from the connection's own buffer (in a
    /// `Traced` envelope under a current trace context), the sample
    /// lands in `buf` straight off the socket. Any reply but that one
    /// sample is an error here, so the connection that carried it is
    /// not pooled again.
    fn fetch_sample_into(
        &mut self,
        name: &str,
        idx: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), PipelineError> {
        write_fetch_one(&mut self.request, name, idx, TraceContext::current());
        self.stream
            .write_all(&self.request)
            .map_err(io_to_pipeline)?;
        match read_sample_into(&mut self.stream, buf).map_err(protocol_to_pipeline)? {
            None => Ok(()),
            Some(Message::Error { code, detail }) => Err(server_error(code, detail)),
            Some(Message::Samples(payloads)) => Err(payload_count_mismatch(payloads.len(), 1)),
            Some(other) => Err(unexpected_reply(&other)),
        }
    }
}

fn io_to_pipeline(e: io::Error) -> PipelineError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            PipelineError::Timeout("socket operation")
        }
        _ => PipelineError::Remote(Box::new(e)),
    }
}

fn protocol_to_pipeline(e: ProtocolError) -> PipelineError {
    match e {
        ProtocolError::Io(io_err) => io_to_pipeline(io_err),
        other => PipelineError::Remote(Box::new(other)),
    }
}

/// A failure the server reported in a [`Message::Error`] frame, boxed
/// inside [`PipelineError::Remote`] so callers can `downcast_ref` it and
/// act on the code instead of on the message text.
#[derive(Debug)]
pub struct ServerError {
    /// Machine-readable code off the wire.
    pub code: ErrorCode,
    /// Human-readable detail off the wire.
    pub detail: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error ({:?}): {}", self.code, self.detail)
    }
}

impl std::error::Error for ServerError {}

fn server_error(code: ErrorCode, detail: String) -> PipelineError {
    PipelineError::Remote(Box::new(ServerError { code, detail }))
}

fn payload_count_mismatch(got: usize, asked: usize) -> PipelineError {
    PipelineError::Remote(format!("server returned {got} payloads for {asked} indices").into())
}

fn unexpected_reply(msg: &Message) -> PipelineError {
    PipelineError::Remote(format!("unexpected server reply: {msg:?}").into())
}

/// The code of a server-reported failure, `None` for anything else.
fn server_code(e: &PipelineError) -> Option<ErrorCode> {
    match e {
        PipelineError::Remote(inner) => inner.downcast_ref::<ServerError>().map(|s| s.code),
        _ => None,
    }
}

/// Is this failure worth a retry on a fresh connection? `Busy`
/// rejections clear once in-flight connections finish and wire-level
/// failures may be a dropped or poisoned connection; every other
/// server-reported error would repeat.
fn is_transient(e: &PipelineError) -> bool {
    match e {
        PipelineError::Timeout(_) => true,
        PipelineError::Remote(_) => matches!(server_code(e), None | Some(ErrorCode::Busy)),
        _ => false,
    }
}

/// The plan a `ManifestReply` carries, placed and checked. A server
/// without cluster config names no node, so every shard goes on `addr`,
/// the address dialled, with replication 1. Every remote plan passes
/// the one [`ClusterPlan::validate`] here.
fn placed_plan(mut plan: ClusterPlan, addr: &str) -> Result<ClusterPlan, PipelineError> {
    if plan.nodes.is_empty() {
        let plans: Vec<ShardPlan> = plan.shards.iter().map(|a| a.plan).collect();
        plan = ClusterPlan::assign(&plans, &[addr.to_string()], 1);
    }
    plan.validate()
        .map_err(|e| PipelineError::Remote(Box::new(e)))?;
    Ok(plan)
}

/// A [`SampleSource`] served over the wire.
pub struct RemoteSource {
    addr: String,
    name: String,
    /// The dataset's placed shard plan, from the connect's `Manifest`.
    plan: ClusterPlan,
    len: usize,
    cfg: ClientConfig,
    pool: Mutex<Vec<Conn>>,
    read: AtomicU64,
    registry: Arc<MetricsRegistry>,
    /// Transient-failure retries (`client.retries`).
    retry_count: Arc<Counter>,
    /// Operations that hit a socket timeout (`client.timeouts`).
    timeout_count: Arc<Counter>,
    /// `Busy` admission rejections observed (`client.busy_rejections`).
    busy_count: Arc<Counter>,
}

impl RemoteSource {
    /// Connects to `addr` and asks for `dataset`'s description: its
    /// shard plan, placed ([`RemoteSource::plan`]), whose end is the
    /// source's length.
    pub fn connect(
        addr: impl Into<String>,
        dataset: impl Into<String>,
    ) -> Result<Self, PipelineError> {
        Self::connect_with(addr, dataset, ClientConfig::default())
    }

    /// [`RemoteSource::connect`] with explicit tuning.
    pub fn connect_with(
        addr: impl Into<String>,
        dataset: impl Into<String>,
        cfg: ClientConfig,
    ) -> Result<Self, PipelineError> {
        Self::connect_with_registry(addr, dataset, cfg, MetricsRegistry::new())
    }

    /// [`RemoteSource::connect_with`], registering the client's
    /// `client.*` counters in `registry` so they share a snapshot with
    /// the rest of the process.
    pub fn connect_with_registry(
        addr: impl Into<String>,
        dataset: impl Into<String>,
        cfg: ClientConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self, PipelineError> {
        let mut source = Self {
            addr: addr.into(),
            name: dataset.into(),
            plan: ClusterPlan {
                nodes: Vec::new(),
                replication: 0,
                shards: Vec::new(),
            },
            len: 0,
            cfg,
            pool: Mutex::new(Vec::new()),
            read: AtomicU64::new(0),
            retry_count: registry.counter("client.retries"),
            timeout_count: registry.counter("client.timeouts"),
            busy_count: registry.counter("client.busy_rejections"),
            registry,
        };
        let reply = source.call(&Message::Manifest {
            name: source.name.clone(),
        })?;
        let plan = match reply {
            Message::ManifestReply(plan) => placed_plan(plan, &source.addr)?,
            Message::Error { code, detail } => return Err(server_error(code, detail)),
            other => return Err(unexpected_reply(&other)),
        };
        source.len = usize::try_from(plan.total_samples()).map_err(|_| {
            PipelineError::Remote(format!("{} samples overflow usize", plan.total_samples()).into())
        })?;
        source.plan = plan;
        Ok(source)
    }

    /// The dataset's shard plan as the connect received it, placed: on
    /// the configured cluster's nodes, or all on the address dialled.
    /// Its shards tile `[0, len)`; feed it to a `sciml_store::Stager` to
    /// fetch in the server's shard-aligned ranges, or let a
    /// [`crate::cluster::ClusterSource`] route by it.
    pub fn plan(&self) -> &ClusterPlan {
        &self.plan
    }

    /// Retries performed so far (transient-failure recoveries).
    pub fn retries(&self) -> u64 {
        self.retry_count.get()
    }

    /// The registry holding this client's `client.*` counters.
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Shuts down the server at `addr` without binding to any dataset
    /// (connecting via [`RemoteSource::connect`] would fail when the
    /// dataset name is unknown, which a shutdown caller may not know).
    /// Returns once the server has acknowledged; it drains after.
    pub fn shutdown_at(addr: &str) -> Result<(), PipelineError> {
        let mut conn = Conn::open(addr, &ClientConfig::default())?;
        match conn.call(&Message::Shutdown)? {
            Message::Shutdown => Ok(()),
            Message::Error { code, detail } => Err(server_error(code, detail)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Fetches a batch of samples in one round trip, in request order.
    pub fn fetch_batch(&self, indices: &[u64]) -> Result<Vec<Vec<u8>>, PipelineError> {
        let request = Message::FetchSamples {
            name: self.name.clone(),
            indices: indices.to_vec(),
        };
        match self.call(&request)? {
            Message::Samples(payloads) => {
                if payloads.len() != indices.len() {
                    return Err(payload_count_mismatch(payloads.len(), indices.len()));
                }
                let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
                self.read.fetch_add(bytes, Ordering::Relaxed);
                Ok(payloads)
            }
            Message::Error { code, detail } => Err(server_error(code, detail)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Checks a connection out of the pool, or dials a new one.
    fn checkout(&self) -> Result<Conn, PipelineError> {
        if let Some(conn) = self.pool.lock().pop() {
            return Ok(conn);
        }
        Conn::open(&self.addr, &self.cfg)
    }

    /// Returns a healthy connection to the pool.
    fn checkin(&self, conn: Conn) {
        let mut pool = self.pool.lock();
        if pool.len() < self.cfg.pool_size {
            pool.push(conn);
        }
    }

    /// Runs one request/response with retry-with-backoff.
    fn call(&self, msg: &Message) -> Result<Message, PipelineError> {
        self.with_retry(|conn| conn.call(msg))
    }

    /// Runs `exchange` on a pooled or fresh connection, with
    /// retry-with-backoff. A connection that saw any failure is
    /// discarded, never pooled again — the framing may be
    /// desynchronized.
    fn with_retry<R>(
        &self,
        mut exchange: impl FnMut(&mut Conn) -> Result<R, PipelineError>,
    ) -> Result<R, PipelineError> {
        let mut backoff = self.cfg.initial_backoff;
        let mut last_err = None;
        for attempt in 0..self.cfg.max_attempts.max(1) {
            if attempt > 0 {
                self.retry_count.inc();
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match self.checkout() {
                Ok(mut conn) => match exchange(&mut conn) {
                    Ok(reply) => {
                        self.checkin(conn);
                        return Ok(reply);
                    }
                    Err(e) if is_transient(&e) => {
                        self.classify_failure(&e);
                        last_err = Some(e);
                    }
                    Err(e) => return Err(e),
                },
                Err(e) if is_transient(&e) => {
                    self.classify_failure(&e);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(PipelineError::Remote("retry budget exhausted".into())))
    }

    /// Buckets a transient failure into its counter.
    fn classify_failure(&self, e: &PipelineError) {
        match e {
            PipelineError::Timeout(_) => self.timeout_count.inc(),
            _ if server_code(e) == Some(ErrorCode::Busy) => self.busy_count.inc(),
            _ => {}
        }
    }
}

impl std::fmt::Debug for RemoteSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteSource")
            .field("addr", &self.addr)
            .field("dataset", &self.name)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl SampleSource for RemoteSource {
    fn len(&self) -> usize {
        self.len
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        self.with_retry(|conn| conn.fetch_sample_into(&self.name, idx as u64, buf))?;
        self.read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeBuilder;
    use sciml_pipeline::source::VecSource;
    use std::sync::Arc;

    fn spawn_server() -> crate::server::ServerHandle {
        ServeBuilder::new()
            .dataset(
                "demo",
                Arc::new(VecSource::new((0..6u8).map(|i| vec![i; 32]).collect())),
            )
            .bind("127.0.0.1:0")
            .unwrap()
    }

    #[test]
    fn connects_and_fetches() {
        let server = spawn_server();
        let addr = server.local_addr().to_string();
        let src = RemoteSource::connect(addr.clone(), "demo").unwrap();
        assert_eq!(src.len(), 6);
        // No cluster config: every shard is placed on the address dialled.
        let plan = src.plan();
        assert_eq!((&plan.nodes[..], plan.replication), (&[addr][..], 1));
        assert!(plan.shards.iter().all(|a| a.replicas == [0]));
        assert_eq!(src.fetch(4).unwrap(), vec![4u8; 32]);
        assert_eq!(src.bytes_read(), 32);
        let batch = src.fetch_batch(&[0, 5]).unwrap();
        assert_eq!(batch, vec![vec![0u8; 32], vec![5u8; 32]]);
        server.shutdown();
    }

    #[test]
    fn fetch_into_is_fetch_batch_byte_for_byte_on_a_dirty_buffer() {
        let big: Vec<u8> = (0..70_000u32).map(|i| (i * 13 + i / 255) as u8).collect();
        let samples = vec![big, Vec::new(), vec![1, 2, 3]];
        let server = ServeBuilder::new()
            .dataset("demo", Arc::new(VecSource::new(samples.clone())))
            .bind("127.0.0.1:0")
            .unwrap();
        let src = RemoteSource::connect(server.local_addr().to_string(), "demo").unwrap();
        let mut buf = vec![0xEE; 4096];
        let mut read = 0;
        for (idx, want) in samples.iter().enumerate() {
            src.fetch_into(idx, &mut buf).unwrap();
            assert_eq!(&buf, want, "sample {idx}");
            assert_eq!(
                src.fetch_batch(&[idx as u64]).unwrap(),
                std::slice::from_ref(want)
            );
            read += 2 * want.len() as u64;
            assert_eq!(src.bytes_read(), read);
        }
        // One connection carried all of it.
        assert_eq!(src.pool.lock().len(), 1);
        // A refused index is the server's typed error, at once, and the
        // connection that carried it is not pooled again.
        let err = src.fetch_into(99, &mut buf).expect_err("out of range");
        assert_eq!(server_code(&err), Some(ErrorCode::IndexOutOfRange));
        assert!(buf.is_empty());
        assert_eq!((src.retries(), src.pool.lock().len()), (0, 0));
        server.shutdown();
    }

    /// The description of a plain four-sample dataset, as a server
    /// without cluster config sends it.
    fn four_samples() -> ClusterPlan {
        ClusterPlan::assign(&sciml_store::manifest::plan_by_count(4, 64), &[], 1)
    }

    /// A peer that greets properly, answers `Manifest` with `manifest`
    /// and every other request with the frame `reply` builds; the
    /// closure ends it like [`spawn_refusing_server`]'s.
    fn spawn_scripted_server(
        manifest: ClusterPlan,
        reply: impl Fn() -> Vec<u8> + Send + 'static,
    ) -> (String, impl FnOnce() -> usize) {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut answered = 0;
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                let Ok(Message::Hello { version }) = read_message(&mut stream) else {
                    break;
                };
                write_message(&mut stream, &Message::HelloAck { version }).unwrap();
                while let Ok(request) = read_message(&mut stream) {
                    let frame = match request {
                        Message::Manifest { .. } => {
                            crate::protocol::encode_frame(&Message::ManifestReply(manifest.clone()))
                        }
                        _ => reply(),
                    };
                    stream.write_all(&frame).unwrap();
                    answered += 1;
                }
            }
            answered
        });
        let stop_addr = addr.clone();
        (addr, move || {
            drop(TcpStream::connect(stop_addr).unwrap());
            handle.join().unwrap()
        })
    }

    #[test]
    fn a_corrupt_or_miscounted_sample_reply_is_an_error_and_an_empty_buffer() {
        use crate::protocol::encode_frame;
        let cfg = ClientConfig {
            max_attempts: 2,
            initial_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        type Reply = fn() -> Vec<u8>;
        let replies: [(&str, Reply); 3] = [
            ("CRC mismatch", || {
                let mut frame = encode_frame(&Message::Samples(vec![vec![7; 500]]));
                frame[100] ^= 1;
                frame
            }),
            ("2 payloads for 1 indices", || {
                encode_frame(&Message::Samples(vec![vec![7; 5], vec![8; 5]]))
            }),
            ("unexpected server reply", || {
                encode_frame(&Message::ManifestReply(four_samples()))
            }),
        ];
        for (what, reply) in replies {
            let (addr, stop) = spawn_scripted_server(four_samples(), reply);
            let src = RemoteSource::connect_with(addr, "demo", cfg.clone()).unwrap();
            let mut buf = vec![0xEE; 4096];
            let err = src.fetch_into(0, &mut buf).expect_err(what);
            assert!(err.to_string().contains(what), "{what}: {err}");
            assert!(buf.is_empty(), "{what}");
            // Wire-level failures are retried on a fresh connection,
            // and none of those connections is pooled.
            assert_eq!((src.retries(), src.pool.lock().len()), (1, 0), "{what}");
            drop(src);
            // The manifest, then one answer per attempt.
            assert_eq!(stop(), 3, "{what}");
        }
    }

    #[test]
    fn a_plan_that_does_not_tile_is_a_typed_connect_error() {
        let half = 1u64 << 63;
        for (what, shards) in [
            ("first u64::MAX", vec![(u64::MAX, 1)]),
            ("ends past u64::MAX", vec![(0, half), (half, half)]),
        ] {
            let mut plan = four_samples();
            plan.shards = shards
                .into_iter()
                .enumerate()
                .map(|(id, (first, count))| sciml_store::ShardAssignment {
                    plan: ShardPlan {
                        id: id as u32,
                        first,
                        count,
                        bytes: 0,
                        encoding: sciml_store::EncodingChoice::Raw,
                    },
                    replicas: Vec::new(),
                })
                .collect();
            let (addr, stop) = spawn_scripted_server(plan, Vec::new);
            let err = RemoteSource::connect(addr, "demo").expect_err(what);
            let PipelineError::Remote(inner) = &err else {
                panic!("{what}: {err}");
            };
            assert!(
                matches!(
                    inner.downcast_ref(),
                    Some(sciml_store::StoreError::Manifest(_))
                ),
                "{what}: {err}"
            );
            // Refused once, not retried.
            assert_eq!(stop(), 1, "{what}");
        }
    }

    #[test]
    fn unknown_dataset_fails_fast() {
        let server = spawn_server();
        let err = RemoteSource::connect(server.local_addr().to_string(), "missing")
            .expect_err("must fail");
        assert!(matches!(err, PipelineError::Remote(_)));
        assert!(err.to_string().contains("missing"));
        server.shutdown();
    }

    #[test]
    fn shutdown_at_needs_no_dataset_name() {
        let server = spawn_server();
        RemoteSource::shutdown_at(&server.local_addr().to_string()).expect("shutdown");
        assert_eq!(server.stats().samples_served, 0);
        server.join();
    }

    /// A peer that answers every `Hello` with `Error{code, detail}` and
    /// closes. The returned closure ends it with a silent dial and
    /// yields how many greetings it refused.
    fn spawn_refusing_server(
        code: ErrorCode,
        detail: &'static str,
    ) -> (String, impl FnOnce() -> usize) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut refused = 0;
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                let Ok(Message::Hello { .. }) = read_message(&mut stream) else {
                    break;
                };
                let detail = detail.into();
                write_message(&mut stream, &Message::Error { code, detail }).unwrap();
                refused += 1;
            }
            refused
        });
        let stop_addr = addr.clone();
        (addr, move || {
            drop(TcpStream::connect(stop_addr).unwrap());
            handle.join().unwrap()
        })
    }

    /// Connects to a refusing server with a three-attempt budget;
    /// returns the error, `client.retries`, `client.busy_rejections`
    /// and the dials the server saw.
    fn connect_refused(code: ErrorCode, detail: &'static str) -> (PipelineError, u64, u64, usize) {
        let (addr, refused) = spawn_refusing_server(code, detail);
        let cfg = ClientConfig {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let registry = MetricsRegistry::new();
        let err = RemoteSource::connect_with_registry(addr, "demo", cfg, Arc::clone(&registry))
            .expect_err("refused");
        let snap = registry.snapshot();
        (
            err,
            snap.counter("client.retries"),
            snap.counter("client.busy_rejections"),
            refused(),
        )
    }

    #[test]
    fn version_mismatch_is_typed_and_dialed_once() {
        let (err, retries, _, dials) =
            connect_refused(ErrorCode::VersionMismatch, "only v8 spoken here");
        assert_eq!(server_code(&err), Some(ErrorCode::VersionMismatch));
        assert!(!is_transient(&err));
        assert_eq!((retries, dials), (0, 1), "no second dial, no ladder");
    }

    #[test]
    fn busy_frame_is_retried_and_counted() {
        let (err, retries, busy, dials) = connect_refused(ErrorCode::Busy, "admission limit");
        assert_eq!(server_code(&err), Some(ErrorCode::Busy));
        assert_eq!((retries, busy, dials), (2, 3, 3));
    }

    #[test]
    fn error_detail_naming_busy_is_not_a_busy_rejection() {
        // Only the code may decide: this detail contains "Busy".
        let (err, retries, busy, dials) =
            connect_refused(ErrorCode::UnknownDataset, "no dataset named 'Busy'");
        assert_eq!(server_code(&err), Some(ErrorCode::UnknownDataset));
        assert_eq!((retries, busy, dials), (0, 0, 1));
    }

    #[test]
    fn retry_counters_register_on_shared_registry() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let cfg = ClientConfig {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let registry = MetricsRegistry::new();
        RemoteSource::connect_with_registry(addr, "demo", cfg, Arc::clone(&registry))
            .expect_err("nothing listening");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("client.retries"), 2);
    }

    #[test]
    fn connect_to_dead_server_errors_after_retries() {
        // Bind-then-drop guarantees a port with nothing listening.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let cfg = ClientConfig {
            max_attempts: 2,
            initial_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let err = RemoteSource::connect_with(addr, "demo", cfg).expect_err("nothing listening");
        assert!(matches!(
            err,
            PipelineError::Remote(_) | PipelineError::Timeout(_)
        ));
    }
}
