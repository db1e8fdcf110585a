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
//! Each connection owns its [`Service::Session`]. Dispatching a frame
//! lends the session to the worker inside the job, and the completion
//! brings it back: a connection whose session is away has a request in
//! flight. A completion for a connection that closed meanwhile is
//! dropped with the session it carries, even when a newer connection
//! already holds the slot.
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
//! The loop splits frames with [`protocol::frame_len`](frame_len) and
//! answers two things itself, each with a protocol `Error` frame and a
//! close: a connection refused at the admission cap or during drain
//! gets `Busy`, and a length prefix past the frame cap gets
//! `BadRequest`.
//!
//! Graceful drain (`ReactorHandle::begin_drain`, or a service reply
//! with `shutdown: true`): the listener keeps accepting only to send
//! the `Busy` "draining" frame, reads stop, idle connections close
//! immediately, connections with queued or in-flight work finish and
//! flush, and everything is force-closed at `drain_timeout`.

use crate::metrics::ConnMetrics;
use crate::poller::{wake_pair, Event, Interest, Poller, WakeReceiver, Waker};
use crate::protocol::{encode_frame, frame_len, ErrorCode, Message};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of one accepted connection, never reused: it tells a
/// connection from a later one in the same slot.
type ConnId = u64;

/// Bytes a [`Piece`] carries inline: room for a frame header or trailer.
const INLINE_BYTES: usize = 22;

/// One piece of an outbound frame: a run of bytes written after the
/// piece before it. Small runs (a header, a CRC trailer) live in the
/// piece itself; a large one is a buffer the piece owns or shares, and
/// goes to the socket from where it lies.
pub(crate) struct Piece(PieceKind);

enum PieceKind {
    Inline { len: u8, bytes: [u8; INLINE_BYTES] },
    Owned(Vec<u8>),
    Shared(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

impl Piece {
    /// A piece holding a copy of `bytes`: inline up to 22 bytes,
    /// otherwise in a buffer of its own.
    pub(crate) fn copy_of(bytes: &[u8]) -> Piece {
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
    pub(crate) fn shared(bytes: Arc<dyn AsRef<[u8]> + Send + Sync>) -> Piece {
        Piece(PieceKind::Shared(bytes))
    }

    /// The piece's bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            PieceKind::Inline { len, bytes } => &bytes[..usize::from(*len)],
            PieceKind::Owned(v) => v,
            PieceKind::Shared(s) => (**s).as_ref(),
        }
    }

    /// Length of the piece in bytes.
    pub(crate) fn len(&self) -> usize {
        self.as_bytes().len()
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
pub(crate) struct Reply {
    /// The frame to write back, as the pieces written one after the
    /// other; empty for no reply.
    pub(crate) frame: Vec<Piece>,
    /// Close the connection once the reply has been flushed.
    pub(crate) close: bool,
    /// Begin graceful drain of the whole reactor after this reply.
    pub(crate) shutdown: bool,
}

impl Reply {
    /// Reply with the frame gathered from `pieces`, keep the connection
    /// open.
    pub(crate) fn gather(pieces: Vec<Piece>) -> Reply {
        Reply {
            frame: pieces,
            close: false,
            shutdown: false,
        }
    }

    /// Reply with `bytes` and keep the connection open.
    pub(crate) fn send(bytes: Vec<u8>) -> Reply {
        Reply::gather(vec![Piece::from(bytes)])
    }

    /// Reply with `bytes`, then close this connection.
    pub(crate) fn send_close(bytes: Vec<u8>) -> Reply {
        Reply {
            close: true,
            ..Reply::send(bytes)
        }
    }
}

/// The application layer plugged into the reactor, called from the
/// worker threads.
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-connection state: made when a connection is admitted, lent
    /// to the worker handling each of its frames, dropped with the
    /// connection.
    type Session: Default + Send + 'static;

    /// Handles one complete frame (exactly as read off the wire,
    /// length prefix and CRC trailer included) and returns the reply.
    fn handle(&self, session: &mut Self::Session, frame: Vec<u8>) -> Reply;
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    /// Worker threads running [`Service::handle`].
    pub(crate) workers: usize,
    /// Admission cap: connections past this get the `Busy` frame.
    pub(crate) max_connections: usize,
    /// Close connections with no progress for this long
    /// (`Duration::ZERO` disables the idle reaper).
    pub(crate) idle_timeout: Duration,
    /// Hard bound on graceful drain before remaining connections are
    /// force-closed.
    pub(crate) drain_timeout: Duration,
    /// Parsed-but-undispatched frames buffered per connection before
    /// reading pauses.
    pub(crate) max_pending_frames: usize,
    /// Unflushed outbound bytes per connection before the next request
    /// is held back.
    pub(crate) max_outbound_bytes: usize,
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

/// One frame on its way to a worker, with the session of the
/// connection it came from.
struct Job<T> {
    slot: usize,
    conn: ConnId,
    session: T,
    frame: Vec<u8>,
}

/// A worker's reply, bringing the session back.
struct Completion<T> {
    slot: usize,
    conn: ConnId,
    session: T,
    reply: Reply,
}

/// Completions the workers have pushed and the loop has yet to apply.
type Completions<T> = Arc<parking_lot::Mutex<Vec<Completion<T>>>>;

/// Handle to a running reactor.
///
/// Dropping the handle drains and joins the reactor. [`shutdown`]
/// (explicit drain) and [`join`] (wait for a wire-initiated shutdown)
/// are the two deliberate ways out.
///
/// [`shutdown`]: ReactorHandle::shutdown
/// [`join`]: ReactorHandle::join
pub(crate) struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// Starts graceful drain without waiting for it to finish.
    pub(crate) fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Drains and waits for the reactor to finish (bounded by the
    /// configured drain timeout).
    pub(crate) fn shutdown(mut self) {
        self.begin_drain();
        self.join_threads();
    }

    /// Waits for the reactor to exit on its own — i.e. for a service
    /// reply with `shutdown: true` (a wire-initiated shutdown).
    pub(crate) fn join(mut self) {
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
            self.begin_drain();
            self.join_threads();
        }
    }
}

/// Takes ownership of a bound listener and runs it on the reactor: one
/// event-loop thread plus `cfg.workers` threads running `service`.
pub(crate) fn spawn<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    cfg: ReactorConfig,
    metrics: ConnMetrics,
) -> io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;

    let mut poller = Poller::new()?;
    let (waker, wake_rx) = wake_pair()?;
    let waker = Arc::new(waker);
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;

    let completions: Completions<S::Session> = Arc::default();
    let shutdown = Arc::new(AtomicBool::new(false));

    // Unbounded on purpose: total in-flight jobs are already capped at
    // one per admitted connection, so depth is bounded by
    // `max_connections`; a bounded channel would let a slow worker pool
    // block the event loop itself.
    let (job_tx, job_rx) = crossbeam_channel::unbounded::<Job<S::Session>>();

    let mut worker_threads = Vec::with_capacity(cfg.workers.max(1));
    for i in 0..cfg.workers.max(1) {
        let rx = job_rx.clone();
        let service = Arc::clone(&service);
        let completions = Arc::clone(&completions);
        let waker = Arc::clone(&waker);
        let t = std::thread::Builder::new()
            .name(format!("sciml-serve-worker-{i}"))
            .spawn(move || {
                while let Ok(Job {
                    slot,
                    conn,
                    mut session,
                    frame,
                }) = rx.recv()
                {
                    let reply = service.handle(&mut session, frame);
                    completions.lock().push(Completion {
                        slot,
                        conn,
                        session,
                        reply,
                    });
                    waker.wake();
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
    let mut ev_loop = EventLoop::<S::Session> {
        poller,
        listener,
        wake_rx,
        jobs: job_tx,
        completions,
        shutdown: Arc::clone(&shutdown),
        metrics,
        conns: Vec::new(),
        free: Vec::new(),
        thawing: Vec::new(),
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
        .name("sciml-serve-reactor".to_string())
        .spawn(move || ev_loop.run())?;

    Ok(ReactorHandle {
        shutdown,
        waker,
        loop_thread: Some(loop_thread),
        worker_threads,
    })
}

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKE: usize = 1;
const TOKEN_BASE: usize = 2;

/// One connection, owning its session `T`.
struct Conn<T> {
    id: ConnId,
    stream: TcpStream,
    interest: Interest,
    inbuf: Vec<u8>,
    instart: usize,
    pending: VecDeque<Vec<u8>>,
    /// The session, or `None` while a worker has it: a request is in
    /// flight.
    session: Option<T>,
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

impl<T: Default> Conn<T> {
    /// A connection with a new session and `out` queued, nothing else.
    fn new(id: ConnId, stream: TcpStream, interest: Interest, out: Option<Piece>) -> Conn<T> {
        let mut conn = Conn {
            id,
            stream,
            interest,
            inbuf: Vec::new(),
            instart: 0,
            pending: VecDeque::new(),
            session: Some(T::default()),
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
}

impl<T> Conn<T> {
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

    /// Queues a protocol `Error` frame the reactor sends on its own
    /// account, and closes once it is flushed: nothing more is read or
    /// dispatched.
    fn refuse(&mut self, code: ErrorCode, detail: String) {
        let frame = encode_frame(&Message::Error { code, detail });
        self.queue(Some(Piece::from(frame)));
        self.close_after_flush = true;
        self.read_paused = true;
        self.pending.clear();
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
        self.session.is_some()
            && self.pending.is_empty()
            && self.out_backlog() == 0
            && !self.close_after_flush
    }
}

/// The loop over connections whose sessions are `T`s.
struct EventLoop<T> {
    poller: Poller,
    listener: TcpListener,
    wake_rx: WakeReceiver,
    jobs: crossbeam_channel::Sender<Job<T>>,
    completions: Completions<T>,
    shutdown: Arc<AtomicBool>,
    metrics: ConnMetrics,
    conns: Vec<Option<Conn<T>>>,
    free: Vec<usize>,
    // Slots freed during the current event batch; only reusable once
    // the batch (and its possibly-stale tokens) has been fully handled.
    thawing: Vec<usize>,
    next_id: ConnId,
    active: usize,
    open: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
    idle_tick: Duration,
    next_idle_scan: Instant,
    cfg: ReactorConfig,
}

impl<T: Default> EventLoop<T> {
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
        let id = self.next_id;
        self.next_id += 1;
        let rejected = self.draining || self.active >= self.cfg.max_connections;
        let conn = if rejected {
            self.metrics.rejected_busy.inc();
            let detail = if self.draining {
                "server is draining"
            } else {
                "server at its connection admission limit"
            };
            let mut conn = Conn::new(id, stream, Interest::WRITE, None);
            conn.refuse(ErrorCode::Busy, detail.into());
            conn.rejected = true;
            conn
        } else {
            Conn::new(id, stream, Interest::READ, None)
        };
        let slot = self.alloc_slot();
        if self
            .poller
            .register(conn.stream.as_raw_fd(), TOKEN_BASE + slot, conn.interest)
            .is_err()
        {
            self.thawing.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
        self.open += 1;
        if rejected {
            // The reject frame rides the same buffered-write path as
            // every normal reply (flush + write-interest + error
            // handling), not an ad-hoc blocking write.
            self.flush(slot);
        } else {
            self.active += 1;
            self.metrics.accepted.inc();
            self.metrics.active.add(1);
        }
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
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return false;
        };
        loop {
            let buf = &conn.inbuf[conn.instart..];
            match frame_len(buf) {
                // Past `max_pending_frames` this keeps splitting what is
                // buffered; the pause flag (synced by the caller) stops
                // further reads.
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
                    conn.pending.push_back(frame);
                }
                Ok(_) => return true,
                // Past an over-long prefix there is no next frame to
                // find.
                Err(e) => {
                    conn.refuse(ErrorCode::BadRequest, format!("protocol error: {e}"));
                    self.flush(slot);
                    return self.conns.get(slot).is_some_and(|c| c.is_some());
                }
            }
        }
    }

    fn maybe_dispatch(&mut self, slot: usize) {
        let job = {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return;
            };
            if conn.session.is_none()
                || conn.close_after_flush
                || conn.out_backlog() > self.cfg.max_outbound_bytes
            {
                return;
            }
            let Some(frame) = conn.pending.pop_front() else {
                return;
            };
            let Some(session) = conn.session.take() else {
                return; // checked above
            };
            conn.last_activity = Instant::now();
            Job {
                slot,
                conn: conn.id,
                session,
                frame,
            }
        };
        if self.jobs.send(job).is_err() {
            // Worker pool is gone — nothing can ever be handled again.
            self.close_conn(slot);
        }
    }

    fn apply_completions(&mut self) {
        let completions = std::mem::take(&mut *self.completions.lock());
        let mut drain_requested = false;
        for c in completions {
            drain_requested |= c.reply.shutdown;
            {
                // A connection that closed while the worker ran is gone,
                // and a newer one may hold its slot: its reply and
                // session are dropped here.
                let Some(conn) = self
                    .conns
                    .get_mut(c.slot)
                    .and_then(|x| x.as_mut())
                    .filter(|x| x.id == c.conn)
                else {
                    continue;
                };
                conn.session = Some(c.session);
                conn.last_activity = Instant::now();
                conn.queue(c.reply.frame);
                if c.reply.close {
                    conn.close_after_flush = true;
                }
            }
            self.flush(c.slot);
            self.maybe_dispatch(c.slot);
            self.sync_read_pause(c.slot);
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
        self.open -= 1;
        if !conn.rejected {
            self.active -= 1;
            self.metrics.active.add(-1);
            if self.draining {
                self.metrics.drained.inc();
            }
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
                            // oversized prefix, reply-then-close) whose peer
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
    use crate::metrics::ServerMetrics;
    use crate::protocol::{decode_frame, MAX_FRAME_BYTES};
    use std::net::SocketAddr;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn a_piece_is_inline_up_to_its_capacity_and_owned_past_it() {
        for len in [0, 1, 13, INLINE_BYTES, INLINE_BYTES + 1, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
            let piece = Piece::copy_of(&bytes);
            assert_eq!(piece.as_bytes(), &bytes[..]);
            assert_eq!(piece.len(), len);
            let kind = format!("{piece:?}");
            assert_eq!(kind.contains("inline"), len <= INLINE_BYTES, "{kind}");
        }
        let shared: Arc<Vec<u8>> = Arc::new(vec![7; 100]);
        let piece = Piece::shared(shared.clone());
        assert_eq!(piece.as_bytes().as_ptr(), shared.as_ptr(), "not copied");
    }

    /// A connection over a loopback pair, its outbound queue holding
    /// pieces of these lengths (each byte its offset in the whole).
    fn queued(lens: &[usize]) -> (Conn<()>, Vec<u8>, TcpStream) {
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
    fn unwritten(conn: &Conn<()>) -> Vec<u8> {
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

    /// Builds a wire frame: `[len u32 LE][payload][crc32 placeholder]`.
    /// The reactor only inspects the length prefix, so the trailer can be
    /// anything for these tests.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&0u32.to_le_bytes());
        out
    }

    fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
        let mut head = [0u8; 4];
        stream.read_exact(&mut head)?;
        let len = u32::from_le_bytes(head) as usize;
        let mut rest = vec![0u8; len + 4];
        stream.read_exact(&mut rest)?;
        let mut out = head.to_vec();
        out.extend_from_slice(&rest);
        Ok(out)
    }

    /// Cuts `frame` into pieces of every kind: inline runs, buffers of
    /// their own, a buffer shared with nobody else, and empty pieces
    /// between them, at cuts that fall mid-header and mid-body.
    fn gathered(frame: Vec<u8>) -> Vec<Piece> {
        let len = frame.len();
        let mut cuts = vec![0, 1.min(len), 13.min(len), 13.min(len), len / 3, len / 2];
        cuts.extend([len / 2, len.saturating_sub(4), len, len]);
        cuts.sort_unstable();
        cuts.windows(2)
            .enumerate()
            .map(|(i, w)| {
                let part = &frame[w[0]..w[1]];
                match i % 3 {
                    0 => Piece::copy_of(part),
                    1 => Piece::from(part.to_vec()),
                    _ => Piece::shared(Arc::new(part.to_vec())),
                }
            })
            .collect()
    }

    /// Echoes every frame back — as one buffer, or with `gather` set cut
    /// into [`gathered`] pieces; optional per-request delay; counts the
    /// frames it handles, and reads the connection counts off the
    /// instruments the reactor records into.
    struct EchoService {
        delay: Duration,
        gather: bool,
        handled: AtomicU64,
        conns: ConnMetrics,
    }

    impl EchoService {
        fn new(delay: Duration) -> Arc<EchoService> {
            Self::with(delay, false)
        }

        fn with(delay: Duration, gather: bool) -> Arc<EchoService> {
            Arc::new(EchoService {
                delay,
                gather,
                handled: AtomicU64::new(0),
                conns: ServerMetrics::default().conn,
            })
        }

        /// Connections admitted.
        fn connected(&self) -> u64 {
            self.conns.accepted.get()
        }

        /// Admitted connections since closed.
        fn disconnected(&self) -> u64 {
            self.conns.accepted.get() - self.conns.active.get() as u64
        }

        fn reply(&self, frame: Vec<u8>) -> Reply {
            if self.gather {
                Reply::gather(gathered(frame))
            } else {
                Reply::send(frame)
            }
        }
    }

    impl Service for EchoService {
        type Session = ();

        fn handle(&self, _session: &mut (), frame_bytes: Vec<u8>) -> Reply {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            self.handled.fetch_add(1, Ordering::SeqCst);
            let tag = frame_bytes.get(4..12);
            // "shutdown" payload triggers wire-initiated drain.
            if tag == Some(b"shutdown") {
                return Reply {
                    shutdown: true,
                    ..self.reply(frame_bytes)
                };
            }
            // "bigclose" payload gets a 32 MiB reply-then-close: far more
            // than loopback socket buffers hold, so a client that never
            // reads leaves the connection stuck in close-after-flush.
            // Gathered, it is one 1 MiB buffer shared 32 times.
            if tag == Some(b"bigclose") {
                let reply = if self.gather {
                    let body: Arc<Vec<u8>> = Arc::new(vec![0u8; 1 << 20]);
                    let mut pieces = vec![Piece::copy_of(&(32u32 << 20).to_le_bytes())];
                    pieces.extend((0..32).map(|_| Piece::shared(body.clone())));
                    pieces.push(Piece::copy_of(&[0; 4]));
                    Reply::gather(pieces)
                } else {
                    Reply::send(frame(&vec![0u8; 32 << 20]))
                };
                return Reply {
                    close: true,
                    ..reply
                };
            }
            // "nothing!" gets a reply of empty pieces: no bytes at all.
            if tag == Some(b"nothing!") {
                return Reply::gather(vec![Piece::copy_of(&[]), Piece::from(Vec::new())]);
            }
            self.reply(frame_bytes)
        }
    }

    /// A running reactor, the address it listens on, and its service.
    type Running = (ReactorHandle, SocketAddr, Arc<EchoService>);

    fn spawn_echo(cfg: ReactorConfig, delay: Duration) -> Running {
        spawn_service(cfg, EchoService::new(delay))
    }

    /// [`spawn_echo`] whose replies are all gathered from pieces.
    fn spawn_gathering_echo(cfg: ReactorConfig) -> Running {
        spawn_service(cfg, EchoService::with(Duration::ZERO, true))
    }

    fn spawn_service(cfg: ReactorConfig, svc: Arc<EchoService>) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = spawn(listener, svc.clone(), cfg, svc.conns.clone()).unwrap();
        (handle, addr, svc)
    }

    /// The protocol `Error` frame the reactor answered with, and then
    /// closed.
    fn refusal(stream: &mut TcpStream) -> (ErrorCode, String) {
        let got = read_frame(stream).unwrap();
        let Ok((Message::Error { code, detail }, _)) = decode_frame(&got) else {
            panic!("not an Error frame: {got:?}");
        };
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "bytes after the refusal");
        (code, detail)
    }

    fn echo_roundtrip(gather: bool) {
        let (handle, addr, svc) = spawn_service(
            ReactorConfig::default(),
            EchoService::with(Duration::ZERO, gather),
        );
        let mut conns: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, c) in conns.iter_mut().enumerate() {
            c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let msg = frame(format!("hello-{i}").as_bytes());
            c.write_all(&msg).unwrap();
            let got = read_frame(c).unwrap();
            assert_eq!(got, msg, "echo mismatch on conn {i}");
        }
        drop(conns);
        handle.shutdown();
        assert_eq!(svc.connected(), 8);
        assert_eq!(svc.disconnected(), 8);
        assert_eq!(svc.handled.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn plain_echo_roundtrip() {
        echo_roundtrip(false);
    }

    #[test]
    fn gathered_echo_roundtrip() {
        echo_roundtrip(true);
    }

    /// Shrinks a socket's receive buffer, so that the peer's writes stall
    /// after a few KiB and resume in small steps.
    fn shrink_receive_buffer(stream: &TcpStream, bytes: i32) {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_RCVBUF: i32 = 8;
        // SAFETY: the descriptor is the open socket `stream` owns, and
        // `value` points at one live i32, the length passed.
        let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &bytes, 4) };
        assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
    }

    /// Reads one frame in `step`-byte reads, pausing now and then, so the
    /// server's `writev`s land short and mid-piece.
    fn read_frame_slowly(stream: &mut TcpStream, step: usize) -> Vec<u8> {
        let mut head = [0u8; 4];
        stream.read_exact(&mut head).unwrap();
        let total = 4 + u32::from_le_bytes(head) as usize + 4;
        let mut out = head.to_vec();
        let mut chunk = vec![0u8; step];
        let mut reads = 0;
        while out.len() < total {
            let want = step.min(total - out.len());
            let n = stream.read(&mut chunk[..want]).unwrap();
            assert!(n > 0, "EOF {} bytes into a {total}-byte frame", out.len());
            out.extend_from_slice(&chunk[..n]);
            reads += 1;
            if reads % 64 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        out
    }

    /// A frame whose body is `len` bytes numbered by `seed`.
    fn numbered_frame(seed: usize, len: usize) -> Vec<u8> {
        let body: Vec<u8> = (0..len).map(|j| (seed * 31 + j + j / 253) as u8).collect();
        frame(&body)
    }

    #[test]
    fn gathered_replies_reassemble_through_a_small_receive_buffer() {
        // Multi-piece replies to a client whose receive buffer is 64 KiB
        // and that reads 1 500 bytes at a time: the server's writes stop
        // and restart at arbitrary offsets inside and between pieces.
        let (handle, addr, svc) = spawn_gathering_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        shrink_receive_buffer(&c, 64 << 10);
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        for (seed, len) in [(0, 3 << 20), (1, 0), (2, 5), (3, 70_001)] {
            let f = numbered_frame(seed, len);
            c.write_all(&f).unwrap();
            assert!(read_frame_slowly(&mut c, 1500) == f, "reply {seed} damaged");
        }
        assert_eq!(svc.handled.load(Ordering::SeqCst), 4);
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn pipelined_frames_reply_in_order() {
        let (handle, addr, _svc) = spawn_echo(ReactorConfig::default(), Duration::from_millis(2));
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Burst 20 frames without reading a single reply: the reactor must
        // queue them (one in flight at a time) and answer in order.
        let frames: Vec<Vec<u8>> = (0..20)
            .map(|i| frame(format!("req-{i:03}").as_bytes()))
            .collect();
        for f in &frames {
            c.write_all(f).unwrap();
        }
        for (i, f) in frames.iter().enumerate() {
            let got = read_frame(&mut c).unwrap();
            assert_eq!(&got, f, "reply {i} out of order");
        }
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn pipelined_replies_keep_their_order_through_an_outbound_backlog() {
        pipelined_backlog(false);
    }

    #[test]
    fn pipelined_gathered_replies_queue_back_to_back() {
        pipelined_backlog(true);
    }

    /// Replies queue behind whatever is unflushed. 24 distinct 1 MiB frames
    /// to a client that reads none of them until 16 have been handled —
    /// more than loopback's socket buffers hold, so the later replies met a
    /// backlog — must come back whole and in order, and so must the small
    /// frame after them, which finds the queue empty again.
    fn pipelined_backlog(gather: bool) {
        const FRAMES: usize = 24;
        let (handle, addr, svc) = spawn_service(
            ReactorConfig::default(),
            EchoService::with(Duration::ZERO, gather),
        );
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let frames: Vec<Vec<u8>> = (0..FRAMES).map(|i| numbered_frame(i, 1 << 20)).collect();
        let mut writer = c.try_clone().unwrap();
        std::thread::scope(|t| {
            // On a thread of its own: the reactor stops reading requests
            // while 16 MiB of replies are unflushed.
            t.spawn(|| {
                for f in &frames {
                    writer.write_all(f).unwrap();
                }
            });
            while svc.handled.load(Ordering::SeqCst) < 16 {
                std::thread::sleep(Duration::from_millis(1));
            }
            for (i, f) in frames.iter().enumerate() {
                let got = read_frame(&mut c).unwrap();
                assert!(&got == f, "reply {i} damaged or out of order");
            }
        });
        let small = frame(b"after-the-backlog");
        c.write_all(&small).unwrap();
        assert_eq!(read_frame(&mut c).unwrap(), small);
        assert_eq!(svc.handled.load(Ordering::SeqCst), FRAMES as u64 + 1);
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn pipelined_burst_beyond_pending_cap_does_not_deadlock() {
        // A single write burst larger than max_pending_frames fills the
        // pending queue before anything is dispatched, pausing reads with
        // no job in flight. read_ready must still fall through to dispatch
        // or the connection hangs forever with no completion to unpause it.
        let cfg = ReactorConfig {
            max_pending_frames: 8,
            ..ReactorConfig::default()
        };
        let (handle, addr, svc) = spawn_echo(cfg, Duration::ZERO);
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let frames: Vec<Vec<u8>> = (0..48)
            .map(|i| frame(format!("burst-{i:03}").as_bytes()))
            .collect();
        let burst: Vec<u8> = frames.iter().flatten().copied().collect();
        c.write_all(&burst).unwrap();
        for (i, f) in frames.iter().enumerate() {
            let got = read_frame(&mut c).unwrap();
            assert_eq!(&got, f, "reply {i} missing or out of order");
        }
        assert_eq!(svc.handled.load(Ordering::SeqCst), 48);
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn unread_close_after_flush_reply_is_idle_reaped() {
        unread_close_after_flush(false);
    }

    #[test]
    fn unread_gathered_close_after_flush_reply_is_idle_reaped() {
        unread_close_after_flush(true);
    }

    /// The peer requests a reply-then-close far bigger than the socket
    /// buffers and never reads it: the connection sits unflushed with
    /// close_after_flush set (with `gather`, 32 pieces of it still queued).
    /// The idle reaper must still close it, or it holds its fd and buffers
    /// (and, for rejects, an open slot) forever.
    fn unread_close_after_flush(gather: bool) {
        let cfg = ReactorConfig {
            idle_timeout: Duration::from_millis(150),
            ..ReactorConfig::default()
        };
        let (handle, addr, svc) = spawn_service(cfg, EchoService::with(Duration::ZERO, gather));
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(&frame(b"bigclose")).unwrap();
        // Never read. Once the kernel buffers fill, flush stalls and
        // last_activity stops advancing; the reaper should fire within a
        // couple of idle periods.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.disconnected() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "stuck close-after-flush connection was never reaped"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn admission_cap_sends_busy_frame() {
        let cfg = ReactorConfig {
            max_connections: 1,
            ..ReactorConfig::default()
        };
        let (handle, addr, svc) = spawn_echo(cfg, Duration::ZERO);
        let mut first = TcpStream::connect(addr).unwrap();
        first
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Prove the first connection is admitted before connecting again.
        let probe = frame(b"probe");
        first.write_all(&probe).unwrap();
        assert_eq!(read_frame(&mut first).unwrap(), probe);

        let mut second = TcpStream::connect(addr).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A typed `Busy` frame, and the rejected socket is closed right
        // after.
        let (code, detail) = refusal(&mut second);
        assert_eq!(code, ErrorCode::Busy);
        assert!(detail.contains("admission limit"), "{detail}");
        assert_eq!(svc.conns.rejected_busy.get(), 1);
        drop(first);
        handle.shutdown();
    }

    #[test]
    fn graceful_drain_finishes_in_flight_and_rejects_new() {
        let (handle, addr, svc) = spawn_echo(ReactorConfig::default(), Duration::from_millis(200));
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let slow = frame(b"slow-request");
        busy.write_all(&slow).unwrap();
        // Give the worker time to pick the request up, then drain.
        std::thread::sleep(Duration::from_millis(50));
        handle.begin_drain();
        std::thread::sleep(Duration::from_millis(20));

        // New connections now get the typed draining frame and a close.
        let mut late = TcpStream::connect(addr).unwrap();
        late.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (code, detail) = refusal(&mut late);
        assert_eq!(
            (code, detail.as_str()),
            (ErrorCode::Busy, "server is draining")
        );

        // The in-flight request still completes, byte-identically.
        assert_eq!(read_frame(&mut busy).unwrap(), slow);
        // ... and the drained connection is then closed.
        let mut rest = Vec::new();
        busy.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());

        handle.shutdown();
        assert_eq!(svc.handled.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drain_flushes_queued_pieces_before_closing() {
        // An 8 MiB gathered reply sits mostly queued (the client has not
        // read) when drain begins: it is still written out whole, then the
        // connection closes.
        let (handle, addr, svc) = spawn_gathering_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let f = numbered_frame(7, 8 << 20);
        c.write_all(&f).unwrap();
        while svc.handled.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        handle.begin_drain();
        assert!(read_frame(&mut c).unwrap() == f, "drained reply damaged");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        handle.shutdown();
        assert_eq!(svc.disconnected(), 1);
    }

    #[test]
    fn outbound_cap_holds_back_requests_while_pieces_are_queued() {
        // 64 gathered 256 KiB echoes to a client that reads nothing until
        // the server has stopped dispatching: with a 256 KiB outbound cap
        // the reactor holds requests back once the queued pieces (plus what
        // the kernel buffers) pass it, instead of queueing all 16 MiB. Then
        // every reply arrives, in order.
        const FRAMES: usize = 64;
        let cfg = ReactorConfig {
            max_outbound_bytes: 256 << 10,
            ..ReactorConfig::default()
        };
        let (handle, addr, svc) = spawn_gathering_echo(cfg);
        let mut c = TcpStream::connect(addr).unwrap();
        shrink_receive_buffer(&c, 64 << 10);
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let frames: Vec<Vec<u8>> = (0..FRAMES).map(|i| numbered_frame(i, 256 << 10)).collect();
        let mut writer = c.try_clone().unwrap();
        std::thread::scope(|t| {
            t.spawn(|| {
                for f in &frames {
                    writer.write_all(f).unwrap();
                }
            });
            // Wait for dispatch to stall: no new request for 300 ms.
            let mut last = (u64::MAX, Instant::now());
            while last.1.elapsed() < Duration::from_millis(300) {
                let now = svc.handled.load(Ordering::SeqCst);
                if now != last.0 {
                    last = (now, Instant::now());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let held = svc.handled.load(Ordering::SeqCst);
            assert!(
                held > 0 && held < FRAMES as u64 / 2,
                "{held} of {FRAMES} requests handled with no reply read"
            );
            for (i, f) in frames.iter().enumerate() {
                assert!(&read_frame(&mut c).unwrap() == f, "reply {i}");
            }
        });
        assert_eq!(svc.handled.load(Ordering::SeqCst), FRAMES as u64);
        drop(c);
        handle.shutdown();
    }

    #[test]
    fn replies_of_empty_pieces_write_nothing_and_keep_the_connection() {
        let (handle, addr, svc) = spawn_gathering_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Answered with two empty pieces, then a gathered echo (empty
        // pieces among the others), then an empty frame echoed.
        let (echo, empty) = (frame(b"after nothing"), frame(b""));
        for f in [&frame(b"nothing!"), &echo, &empty] {
            c.write_all(f).unwrap();
        }
        assert_eq!(read_frame(&mut c).unwrap(), echo);
        assert_eq!(read_frame(&mut c).unwrap(), empty);
        assert_eq!(svc.handled.load(Ordering::SeqCst), 3);
        drop(c);
        handle.shutdown();
        assert_eq!(svc.disconnected(), 1);
    }

    #[test]
    fn wire_shutdown_reply_drains_reactor() {
        let (handle, addr, _svc) = spawn_echo(ReactorConfig::default(), Duration::ZERO);
        let t = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let msg = frame(b"shutdown");
            c.write_all(&msg).unwrap();
            assert_eq!(read_frame(&mut c).unwrap(), msg);
        });
        // join() only returns once the service-initiated drain completes.
        handle.join();
        t.join().unwrap();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = ReactorConfig {
            idle_timeout: Duration::from_millis(120),
            ..ReactorConfig::default()
        };
        let (handle, addr, svc) = spawn_echo(cfg, Duration::ZERO);
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let msg = frame(b"warmup");
        c.write_all(&msg).unwrap();
        assert_eq!(read_frame(&mut c).unwrap(), msg);
        // No traffic: the reaper must close the socket (read returns EOF).
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(svc.disconnected(), 1);
        handle.shutdown();
    }

    #[test]
    fn oversized_frame_gets_error_frame_then_close() {
        let (handle, addr, _svc) = spawn_echo(ReactorConfig::default(), Duration::ZERO);
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Only the prefix is judged, so no body follows it.
        c.write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes()).unwrap();
        let (code, detail) = refusal(&mut c);
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(
            detail.contains(&(MAX_FRAME_BYTES + 1).to_string()),
            "{detail}"
        );
        handle.shutdown();
    }

    #[test]
    fn five_hundred_twelve_concurrent_connections() {
        let cfg = ReactorConfig {
            max_connections: 2048,
            workers: 4,
            ..ReactorConfig::default()
        };
        let (handle, addr, svc) = spawn_echo(cfg, Duration::ZERO);
        let mut conns: Vec<TcpStream> = Vec::with_capacity(512);
        for _ in 0..512 {
            conns.push(TcpStream::connect(addr).unwrap());
        }
        // Every connection does one echo while all 512 stay open.
        for (i, c) in conns.iter_mut().enumerate() {
            c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let msg = frame(format!("conn-{i}").as_bytes());
            c.write_all(&msg).unwrap();
            let got = read_frame(c).unwrap();
            assert_eq!(got, msg);
        }
        assert_eq!(svc.handled.load(Ordering::SeqCst), 512);
        drop(conns);
        handle.shutdown();
    }
}
