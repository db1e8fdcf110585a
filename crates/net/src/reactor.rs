//! The readiness reactor: one event-loop thread multiplexing every
//! connection, a small worker pool running the service callback.
//!
//! ```text
//!             ┌────────────────────────── event loop ─────────────────────────┐
//!  accept ───►│ admit / reject-busy                                           │
//!             │     │                                                         │
//!  readable ─►│ read ─► frame split ─► pending queue ─► dispatch (1 in flight)│──► job channel
//!             │                                              ▲                │        │
//!  writable ─►│ writev ◄── outbound pieces ◄── completions ◄─┘ (waker)        │◄── worker pool
//!             └───────────────────────────────────────────────────────────────┘
//! ```
//!
//! A reply is a list of [`Piece`]s — a few header bytes carried inline,
//! a buffer the reply owns, or one it shares with the service (a cache
//! entry) — and a connection's outbound side is one queue of them,
//! written front to back with `writev`. No reply is copied into a
//! connection buffer, whether or not one is already unflushed before it.
//!
//! Invariants the loop maintains per connection:
//!
//! * at most one request is dispatched at a time (replies are written
//!   in request order; a pipelining client queues in `pending`);
//! * reading pauses when `pending` or the outbound queue exceed their
//!   caps — inbound backpressure falls through to the kernel socket
//!   buffer and, eventually, the client;
//! * the next request is not dispatched while more than
//!   `max_outbound_bytes` are still unflushed — outbound backpressure;
//! * a connection idle past `idle_timeout` (no read/write progress and
//!   nothing queued) is closed.
//!
//! Graceful drain (`ReactorHandle::begin_drain`, or a service reply
//! with `shutdown: true`): the listener keeps accepting only to emit
//! the service's typed "draining" reject frame, reads stop, idle
//! connections close immediately, connections with queued or in-flight
//! work finish and flush, and everything is force-closed at
//! `drain_timeout`.

use crate::frame::{frame_len, FrameError};
use crate::poller::{wake_pair, Event, Interest, Poller, WakeReceiver, Waker};
use sciml_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stable identifier of one accepted connection (never reused).
pub type ConnId = u64;

/// Bytes a [`Piece`] carries inline: room for a frame header or trailer.
const INLINE_BYTES: usize = 22;

/// One piece of an outbound frame: a run of bytes written after the
/// piece before it. Small runs (a header, a CRC trailer) live in the
/// piece itself; a large one is a buffer the piece owns or shares, and
/// goes to the socket from where it lies.
pub struct Piece(PieceKind);

enum PieceKind {
    Inline { len: u8, bytes: [u8; INLINE_BYTES] },
    Owned(Vec<u8>),
    Shared(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

impl Piece {
    /// A piece holding a copy of `bytes`: inline up to 22 bytes,
    /// otherwise in a buffer of its own.
    pub fn copy_of(bytes: &[u8]) -> Piece {
        let mut inline = [0u8; INLINE_BYTES];
        match inline.get_mut(..bytes.len()) {
            Some(head) => {
                head.copy_from_slice(bytes);
                Piece(PieceKind::Inline {
                    len: bytes.len() as u8,
                    bytes: inline,
                })
            }
            None => Piece(PieceKind::Owned(bytes.to_vec())),
        }
    }

    /// A piece sharing `bytes` with whoever else holds them: an
    /// `Arc<Vec<u8>>` coerces to the argument without an allocation.
    pub fn shared(bytes: Arc<dyn AsRef<[u8]> + Send + Sync>) -> Piece {
        Piece(PieceKind::Shared(bytes))
    }

    /// The piece's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            PieceKind::Inline { len, bytes } => &bytes[..usize::from(*len)],
            PieceKind::Owned(v) => v,
            PieceKind::Shared(s) => (**s).as_ref(),
        }
    }

    /// Length of the piece in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True for a piece of no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A buffer the piece takes over.
impl From<Vec<u8>> for Piece {
    fn from(bytes: Vec<u8>) -> Piece {
        Piece(PieceKind::Owned(bytes))
    }
}

impl std::fmt::Debug for Piece {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.0 {
            PieceKind::Inline { .. } => "inline",
            PieceKind::Owned(_) => "owned",
            PieceKind::Shared(_) => "shared",
        };
        write!(f, "Piece({kind}, {} bytes)", self.len())
    }
}

/// What the service wants done after handling one frame.
#[derive(Debug)]
pub struct Reply {
    /// The frame to write back, as the pieces written one after the
    /// other; empty for no reply.
    pub frame: Vec<Piece>,
    /// Close the connection once the reply has been flushed.
    pub close: bool,
    /// Begin graceful drain of the whole reactor after this reply.
    pub shutdown: bool,
}

impl Reply {
    /// Reply with the frame gathered from `pieces`, keep the connection
    /// open.
    pub fn gather(pieces: Vec<Piece>) -> Reply {
        Reply {
            frame: pieces,
            close: false,
            shutdown: false,
        }
    }

    /// Reply with `bytes` and keep the connection open.
    pub fn send(bytes: Vec<u8>) -> Reply {
        Reply::gather(vec![Piece::from(bytes)])
    }

    /// Reply with `bytes`, then close this connection.
    pub fn send_close(bytes: Vec<u8>) -> Reply {
        Reply {
            close: true,
            ..Reply::send(bytes)
        }
    }

    /// Close without replying.
    pub fn close() -> Reply {
        Reply {
            frame: Vec::new(),
            close: true,
            shutdown: false,
        }
    }
}

/// The application layer plugged into the reactor. Called from worker
/// threads (`handle`) and the loop thread (everything else), so
/// implementations must be `Sync`.
pub trait Service: Send + Sync + 'static {
    /// Handles one complete frame (exactly as read off the wire,
    /// length prefix and CRC trailer included) and returns the reply.
    fn handle(&self, conn: ConnId, frame: Vec<u8>) -> Reply;

    /// Frame to send (then close) when a connection is refused because
    /// the reactor is at capacity or draining. `None` closes silently.
    fn reject_frame(&self, _draining: bool) -> Option<Vec<u8>> {
        None
    }

    /// Frame to send (then close) when frame splitting fails — today
    /// that is only an oversized length prefix. `None` closes silently.
    fn frame_error_frame(&self, _conn: ConnId, _err: &FrameError) -> Option<Vec<u8>> {
        None
    }

    /// A connection was admitted.
    fn connected(&self, _conn: ConnId) {}

    /// An admitted connection is gone (rejected ones never get this).
    fn disconnected(&self, _conn: ConnId) {}
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads running [`Service::handle`].
    pub workers: usize,
    /// Admission cap: connections past this get the reject frame.
    pub max_connections: usize,
    /// Close connections with no progress for this long
    /// (`Duration::ZERO` disables the idle reaper).
    pub idle_timeout: Duration,
    /// Hard bound on graceful drain before remaining connections are
    /// force-closed.
    pub drain_timeout: Duration,
    /// Parsed-but-undispatched frames buffered per connection before
    /// reading pauses.
    pub max_pending_frames: usize,
    /// Unflushed outbound bytes per connection before the next request
    /// is held back.
    pub max_outbound_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 4,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
            max_pending_frames: 32,
            max_outbound_bytes: 16 << 20,
        }
    }
}

/// Connection-lifecycle instruments, shared with the obs registry.
#[derive(Clone)]
pub struct ReactorMetrics {
    /// Admitted connections, cumulative.
    pub accepted: Arc<Counter>,
    /// Connections refused with the busy/draining frame, cumulative.
    pub rejected_busy: Arc<Counter>,
    /// Admitted connections closed by graceful drain, cumulative.
    pub drained: Arc<Counter>,
    /// Currently admitted connections.
    pub active: Arc<Gauge>,
}

impl ReactorMetrics {
    /// Registers the four instruments as `{prefix}.accepted`,
    /// `{prefix}.rejected_busy`, `{prefix}.drained`, `{prefix}.active`.
    pub fn registered(registry: &MetricsRegistry, prefix: &str) -> ReactorMetrics {
        ReactorMetrics {
            accepted: registry.counter(&format!("{prefix}.accepted")),
            rejected_busy: registry.counter(&format!("{prefix}.rejected_busy")),
            drained: registry.counter(&format!("{prefix}.drained")),
            active: registry.gauge(&format!("{prefix}.active")),
        }
    }

    /// Instruments backed by a private registry (tests, ad-hoc use).
    pub fn detached() -> ReactorMetrics {
        ReactorMetrics::registered(&MetricsRegistry::new(), "net.conn")
    }
}

struct Job {
    conn: ConnId,
    frame: Vec<u8>,
}

struct Completion {
    conn: ConnId,
    reply: Reply,
}

struct Shared {
    completions: parking_lot::Mutex<Vec<Completion>>,
    waker: Waker,
}

/// Handle to a running reactor.
///
/// Dropping the handle drains and joins the reactor. [`shutdown`]
/// (explicit drain) and [`join`] (wait for a wire-initiated shutdown)
/// are the two deliberate ways out.
///
/// [`shutdown`]: ReactorHandle::shutdown
/// [`join`]: ReactorHandle::join
pub struct ReactorHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// Address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts graceful drain without waiting for it to finish.
    pub fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Drains and waits for the reactor to finish (bounded by the
    /// configured drain timeout).
    pub fn shutdown(mut self) {
        self.begin_drain();
        self.join_threads();
    }

    /// Waits for the reactor to exit on its own — i.e. for a service
    /// reply with `shutdown: true` (a wire-initiated shutdown).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        if self.loop_thread.is_some() {
            self.shutdown.store(true, Ordering::SeqCst);
            self.shared.waker.wake();
            self.join_threads();
        }
    }
}

/// The reactor entry point.
pub struct Reactor;

impl Reactor {
    /// Takes ownership of a bound listener and runs it on the reactor:
    /// one event-loop thread plus `cfg.workers` service threads.
    pub fn spawn(
        listener: TcpListener,
        service: Arc<dyn Service>,
        cfg: ReactorConfig,
        metrics: ReactorMetrics,
    ) -> io::Result<ReactorHandle> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let mut poller = Poller::new()?;
        let (waker, wake_rx) = wake_pair()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;

        let shared = Arc::new(Shared {
            completions: parking_lot::Mutex::new(Vec::new()),
            waker,
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        // Unbounded on purpose: total in-flight jobs are already capped
        // at one per admitted connection, so depth is bounded by
        // `max_connections`; a bounded channel would let a slow worker
        // pool block the event loop itself.
        let (job_tx, job_rx) = crossbeam_channel::unbounded::<Job>();

        let mut worker_threads = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let rx = job_rx.clone();
            let svc = Arc::clone(&service);
            let sh = Arc::clone(&shared);
            let t = std::thread::Builder::new()
                .name(format!("sciml-net-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let reply = svc.handle(job.conn, job.frame);
                        sh.completions.lock().push(Completion {
                            conn: job.conn,
                            reply,
                        });
                        sh.waker.wake();
                    }
                })?;
            worker_threads.push(t);
        }
        drop(job_rx);

        let idle_tick = if cfg.idle_timeout.is_zero() {
            Duration::from_secs(30)
        } else {
            (cfg.idle_timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1))
        };
        let mut ev_loop = EventLoop {
            poller,
            listener,
            wake_rx,
            service,
            jobs: job_tx,
            shared: Arc::clone(&shared),
            shutdown: Arc::clone(&shutdown),
            metrics,
            conns: Vec::new(),
            free: Vec::new(),
            thawing: Vec::new(),
            by_id: HashMap::new(),
            next_id: 1,
            active: 0,
            open: 0,
            draining: false,
            drain_deadline: None,
            idle_tick,
            next_idle_scan: Instant::now() + idle_tick,
            cfg,
        };
        let loop_thread = std::thread::Builder::new()
            .name("sciml-net-reactor".to_string())
            .spawn(move || ev_loop.run())?;

        Ok(ReactorHandle {
            local_addr,
            shutdown,
            shared,
            loop_thread: Some(loop_thread),
            worker_threads,
        })
    }
}

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKE: usize = 1;
const TOKEN_BASE: usize = 2;

struct Conn {
    id: ConnId,
    stream: TcpStream,
    interest: Interest,
    inbuf: Vec<u8>,
    instart: usize,
    pending: VecDeque<Vec<u8>>,
    in_flight: bool,
    /// Outbound pieces, front first: every queued reply, none copied.
    out: VecDeque<Piece>,
    /// Bytes of the front piece already written.
    out_start: usize,
    /// Bytes queued in `out` and not yet written.
    out_bytes: usize,
    close_after_flush: bool,
    rejected: bool,
    read_paused: bool,
    last_activity: Instant,
}

/// Most pieces one `writev` takes (Linux's `IOV_MAX` is 1024).
const MAX_IOV: usize = 64;

impl Conn {
    /// A connection with `out` queued and nothing else.
    fn new(id: ConnId, stream: TcpStream, interest: Interest, out: Option<Piece>) -> Conn {
        let mut conn = Conn {
            id,
            stream,
            interest,
            inbuf: Vec::new(),
            instart: 0,
            pending: VecDeque::new(),
            in_flight: false,
            out: VecDeque::new(),
            out_start: 0,
            out_bytes: 0,
            close_after_flush: false,
            rejected: false,
            read_paused: false,
            last_activity: Instant::now(),
        };
        conn.queue(out);
        conn
    }

    fn out_backlog(&self) -> usize {
        self.out_bytes
    }

    /// Queues reply pieces behind whatever is still unflushed.
    fn queue(&mut self, pieces: impl IntoIterator<Item = Piece>) {
        for piece in pieces {
            self.out_bytes += piece.len();
            self.out.push_back(piece);
        }
    }

    /// Writes as much of the queue as the socket takes in one `writev`
    /// of up to [`MAX_IOV`] non-empty pieces, the front one from
    /// `out_start` on, and drops what was written. `Ok(0)` with bytes
    /// queued means the peer is gone.
    fn write_some(&mut self) -> io::Result<usize> {
        let mut slices = [IoSlice::new(&[]); MAX_IOV];
        let mut n = 0;
        let mut skip = self.out_start;
        for piece in &self.out {
            if n == MAX_IOV {
                break;
            }
            let bytes = piece.as_bytes().get(skip..).unwrap_or_default();
            skip = 0;
            if !bytes.is_empty() {
                slices[n] = IoSlice::new(bytes);
                n += 1;
            }
        }
        let written = self.stream.write_vectored(&slices[..n])?;
        self.advance(written);
        Ok(written)
    }

    /// Drops `written` bytes off the front of the queue, and every piece
    /// they finish (empty ones included).
    fn advance(&mut self, mut written: usize) {
        self.out_bytes -= written;
        while let Some(front) = self.out.front() {
            let left = front.len() - self.out_start;
            if written < left {
                self.out_start += written;
                return;
            }
            written -= left;
            self.out.pop_front();
            self.out_start = 0;
        }
    }

    fn is_settled(&self) -> bool {
        self.pending.is_empty()
            && !self.in_flight
            && self.out_backlog() == 0
            && !self.close_after_flush
    }
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    wake_rx: WakeReceiver,
    service: Arc<dyn Service>,
    jobs: crossbeam_channel::Sender<Job>,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    metrics: ReactorMetrics,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    // Slots freed during the current event batch; only reusable once
    // the batch (and its possibly-stale tokens) has been fully handled.
    thawing: Vec<usize>,
    by_id: HashMap<ConnId, usize>,
    next_id: ConnId,
    active: usize,
    open: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
    idle_tick: Duration,
    next_idle_scan: Instant,
    cfg: ReactorConfig,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.next_timeout();
            // lint:allow(no_blocking_in_reactor): the event loop's own poll/park point
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A broken poller is unrecoverable; abandon ship and
                // let connection drops signal clients.
                break;
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake_rx.drain(),
                    t => self.conn_event(t - TOKEN_BASE, ev),
                }
            }
            self.apply_completions();
            if self.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            self.periodic();
            self.free.append(&mut self.thawing);
            if self.draining && self.open == 0 {
                break;
            }
        }
        // Closes the listener (rebinding the port must work as soon as
        // shutdown() returns) and any force-closed stragglers.
    }

    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut t = self.next_idle_scan.saturating_duration_since(now);
        if let Some(deadline) = self.drain_deadline {
            t = t.min(deadline.saturating_duration_since(now));
        }
        if self.draining {
            t = t.min(Duration::from_millis(10));
        }
        t.max(Duration::from_millis(1))
    }

    fn accept_ready(&mut self) {
        loop {
            // lint:allow(no_blocking_in_reactor): listener is nonblocking; WouldBlock exits the loop
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.conns.push(None);
            self.conns.len() - 1
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let reject = self.draining || self.active >= self.cfg.max_connections;
        if reject {
            self.metrics.rejected_busy.inc();
            let Some(bytes) = self.service.reject_frame(self.draining) else {
                return; // silent refusal: just drop the socket
            };
            let slot = self.alloc_slot();
            let id = self.next_id;
            self.next_id += 1;
            let conn = Conn {
                close_after_flush: true,
                rejected: true,
                read_paused: true,
                ..Conn::new(id, stream, Interest::WRITE, Some(Piece::from(bytes)))
            };
            if self
                .poller
                .register(conn.stream.as_raw_fd(), TOKEN_BASE + slot, conn.interest)
                .is_err()
            {
                self.thawing.push(slot);
                return;
            }
            self.by_id.insert(id, slot);
            self.conns[slot] = Some(conn);
            self.open += 1;
            // The reject frame rides the same buffered-write path as
            // every normal reply (flush + write-interest + error
            // handling), not an ad-hoc blocking write.
            self.flush(slot);
            return;
        }

        let slot = self.alloc_slot();
        let id = self.next_id;
        self.next_id += 1;
        let conn = Conn::new(id, stream, Interest::READ, None);
        if self
            .poller
            .register(conn.stream.as_raw_fd(), TOKEN_BASE + slot, conn.interest)
            .is_err()
        {
            self.thawing.push(slot);
            return;
        }
        self.by_id.insert(id, slot);
        self.conns[slot] = Some(conn);
        self.open += 1;
        self.active += 1;
        self.metrics.accepted.inc();
        self.metrics.active.add(1);
        self.service.connected(id);
    }

    fn conn_event(&mut self, slot: usize, ev: Event) {
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return; // stale token from earlier in this batch
        }
        if ev.hangup {
            self.close_conn(slot);
            return;
        }
        if ev.readable {
            self.read_ready(slot);
        }
        if ev.writable && self.conns.get(slot).is_some_and(|c| c.is_some()) {
            self.flush(slot);
        }
    }

    fn read_ready(&mut self, slot: usize) {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return;
            };
            if conn.read_paused {
                // Break, not return: a burst that just filled `pending`
                // pauses reading with nothing in flight yet, and only
                // the trailing dispatch below can start draining it.
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    self.close_conn(slot);
                    return;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                    if !self.extract_frames(slot) {
                        return; // connection closed under us
                    }
                    self.sync_read_pause(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        self.maybe_dispatch(slot);
    }

    /// Splits buffered bytes into complete frames. Returns `false` when
    /// the connection was closed.
    fn extract_frames(&mut self, slot: usize) -> bool {
        loop {
            let mut frame_err: Option<FrameError> = None;
            let frame = {
                let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    return false;
                };
                let buf = &conn.inbuf[conn.instart..];
                match frame_len(buf) {
                    Ok(None) => None,
                    Ok(Some(total)) if buf.len() >= total => {
                        let frame = buf[..total].to_vec();
                        conn.instart += total;
                        if conn.instart >= conn.inbuf.len() {
                            conn.inbuf.clear();
                            conn.instart = 0;
                        } else if conn.instart > 64 * 1024 {
                            conn.inbuf.drain(..conn.instart);
                            conn.instart = 0;
                        }
                        Some(frame)
                    }
                    Ok(Some(_)) => None,
                    Err(e) => {
                        frame_err = Some(e);
                        None
                    }
                }
            };
            if let Some(err) = frame_err {
                self.frame_failure(slot, err);
                return self.conns.get(slot).is_some_and(|c| c.is_some());
            }
            let Some(frame) = frame else { return true };
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return false;
            };
            conn.pending.push_back(frame);
            if conn.pending.len() >= self.cfg.max_pending_frames {
                // Keep splitting what is buffered, but the pause flag
                // (synced by the caller) stops further reads.
                continue;
            }
        }
    }

    fn frame_failure(&mut self, slot: usize, err: FrameError) {
        let id = match self.conns.get(slot).and_then(|c| c.as_ref()) {
            Some(c) => c.id,
            None => return,
        };
        match self.service.frame_error_frame(id, &err) {
            Some(bytes) => {
                if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                    conn.queue(Some(Piece::from(bytes)));
                    conn.close_after_flush = true;
                    conn.read_paused = true;
                    conn.pending.clear();
                }
                self.flush(slot);
            }
            None => self.close_conn(slot),
        }
    }

    fn maybe_dispatch(&mut self, slot: usize) {
        let job = {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return;
            };
            if conn.in_flight
                || conn.close_after_flush
                || conn.out_backlog() > self.cfg.max_outbound_bytes
            {
                return;
            }
            let Some(frame) = conn.pending.pop_front() else {
                return;
            };
            conn.in_flight = true;
            conn.last_activity = Instant::now();
            Job {
                conn: conn.id,
                frame,
            }
        };
        if self.jobs.send(job).is_err() {
            // Worker pool is gone — nothing can ever be handled again.
            self.close_conn(slot);
        }
    }

    fn apply_completions(&mut self) {
        let completions = std::mem::take(&mut *self.shared.completions.lock());
        let mut drain_requested = false;
        for c in completions {
            if c.reply.shutdown {
                drain_requested = true;
            }
            let Some(&slot) = self.by_id.get(&c.conn) else {
                continue; // connection died while the worker ran
            };
            {
                let Some(conn) = self.conns.get_mut(slot).and_then(|x| x.as_mut()) else {
                    continue;
                };
                conn.in_flight = false;
                conn.last_activity = Instant::now();
                conn.queue(c.reply.frame);
                if c.reply.close {
                    conn.close_after_flush = true;
                }
            }
            self.flush(slot);
            self.maybe_dispatch(slot);
            self.sync_read_pause(slot);
        }
        if drain_requested && !self.draining {
            self.begin_drain();
        }
    }

    fn flush(&mut self, slot: usize) {
        let mut should_close = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return;
            };
            loop {
                if conn.out_backlog() == 0 {
                    break;
                }
                match conn.write_some() {
                    Ok(0) => {
                        should_close = true;
                        break;
                    }
                    Ok(_) => conn.last_activity = Instant::now(),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        should_close = true;
                        break;
                    }
                }
            }
            if !should_close && conn.out_backlog() == 0 {
                // Empty pieces may still be queued; nothing is owed.
                conn.out.clear();
                conn.out_start = 0;
                if conn.close_after_flush {
                    should_close = true;
                }
            }
        }
        if should_close {
            self.close_conn(slot);
            return;
        }
        self.sync_read_pause(slot);
        self.maybe_dispatch(slot);
        self.maybe_close_drained(slot);
    }

    /// Pauses or resumes reading by the caps, then syncs the interest.
    /// Runs after anything that moves `pending` or the outbound backlog
    /// — a flush included: a connection paused by its backlog with
    /// nothing pending has no completion coming to resume it.
    fn sync_read_pause(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return;
        };
        if !conn.rejected && !conn.close_after_flush {
            conn.read_paused = self.draining
                || conn.pending.len() >= self.cfg.max_pending_frames
                || conn.out_backlog() > self.cfg.max_outbound_bytes;
        }
        self.sync_interest(slot);
    }

    fn sync_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return;
        };
        let want = Interest {
            readable: !conn.read_paused,
            writable: conn.out_backlog() > 0,
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = want;
            let _ = self.poller.reregister(fd, TOKEN_BASE + slot, want);
        }
    }

    fn maybe_close_drained(&mut self, slot: usize) {
        if !self.draining {
            return;
        }
        let settled = self
            .conns
            .get(slot)
            .and_then(|c| c.as_ref())
            .is_some_and(|c| c.is_settled());
        if settled {
            self.close_conn(slot);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.take()) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.by_id.remove(&conn.id);
        self.open -= 1;
        if !conn.rejected {
            self.active -= 1;
            self.metrics.active.add(-1);
            if self.draining {
                self.metrics.drained.inc();
            }
            self.service.disconnected(conn.id);
        }
        self.thawing.push(slot);
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.cfg.drain_timeout);
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                if !conn.rejected {
                    conn.read_paused = true;
                }
            }
            self.sync_interest(slot);
            self.maybe_close_drained(slot);
        }
    }

    fn periodic(&mut self) {
        let now = Instant::now();
        if now >= self.next_idle_scan {
            self.next_idle_scan = now + self.idle_tick;
            if !self.draining && !self.cfg.idle_timeout.is_zero() {
                for slot in 0..self.conns.len() {
                    let expired = self
                        .conns
                        .get(slot)
                        .and_then(|c| c.as_ref())
                        .is_some_and(|c| {
                            // Settled connections are plain idle; a
                            // close-after-flush connection (reject,
                            // frame error, ReplyThenClose) whose peer
                            // never reads the final frame must also be
                            // reaped or it holds its fd and buffers
                            // forever.
                            (c.is_settled() || c.close_after_flush)
                                && now.saturating_duration_since(c.last_activity)
                                    >= self.cfg.idle_timeout
                        });
                    if expired {
                        self.close_conn(slot);
                    }
                }
            }
        }
        if self.draining {
            let expired = self.drain_deadline.is_some_and(|d| now >= d);
            for slot in 0..self.conns.len() {
                if expired {
                    self.close_conn(slot);
                } else {
                    self.maybe_close_drained(slot);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_piece_is_inline_up_to_its_capacity_and_owned_past_it() {
        for len in [0, 1, 13, INLINE_BYTES, INLINE_BYTES + 1, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
            let piece = Piece::copy_of(&bytes);
            assert_eq!(piece.as_bytes(), &bytes[..]);
            assert_eq!((piece.len(), piece.is_empty()), (len, len == 0));
            let kind = format!("{piece:?}");
            assert_eq!(kind.contains("inline"), len <= INLINE_BYTES, "{kind}");
        }
        let shared: Arc<Vec<u8>> = Arc::new(vec![7; 100]);
        let piece = Piece::shared(shared.clone());
        assert_eq!(piece.as_bytes().as_ptr(), shared.as_ptr(), "not copied");
    }

    /// A connection over a loopback pair, its outbound queue holding
    /// pieces of these lengths (each byte its offset in the whole).
    fn queued(lens: &[usize]) -> (Conn, Vec<u8>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(1, stream, Interest::WRITE, None);
        let mut whole = Vec::new();
        for &len in lens {
            let bytes: Vec<u8> = (whole.len()..whole.len() + len).map(|i| i as u8).collect();
            whole.extend_from_slice(&bytes);
            conn.queue(Some(Piece::from(bytes)));
        }
        (conn, whole, peer)
    }

    /// What is still queued, front piece from `out_start` on.
    fn unwritten(conn: &Conn) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, piece) in conn.out.iter().enumerate() {
            let skip = if i == 0 { conn.out_start } else { 0 };
            out.extend_from_slice(&piece.as_bytes()[skip..]);
        }
        out
    }

    #[test]
    fn advancing_the_queue_by_any_split_keeps_the_rest_in_place() {
        let lens = [0, 13, 0, 0, 100, 1, 0, 4];
        let total: usize = lens.iter().sum();
        for first in 0..=total {
            for second in 0..=total - first {
                let (mut conn, whole, _peer) = queued(&lens);
                conn.advance(first);
                assert_eq!(unwritten(&conn), whole[first..], "after {first}");
                conn.advance(second);
                let done = first + second;
                assert_eq!(conn.out_backlog(), total - done);
                assert_eq!(unwritten(&conn), whole[done..], "after {first} + {second}");
                // A finished piece is never left at the front.
                assert!(conn.out.front().is_none_or(|p| p.len() > conn.out_start));
            }
        }
    }

    #[test]
    fn write_some_sends_the_queue_in_order() {
        let (mut conn, whole, mut peer) = queued(&[0, 5, 0, 70_000, 13, 0]);
        conn.advance(3);
        let mut sent = 0;
        while conn.out_backlog() > 0 {
            sent += conn.write_some().unwrap();
        }
        assert_eq!(sent, whole.len() - 3);
        drop(conn);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert_eq!(got, whole[3..]);
    }
}
