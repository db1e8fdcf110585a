//! The serve engine: an accept thread, and a thread per admitted
//! connection that runs its requests one at a time, in order.
//!
//! ```text
//!  accept ─► admit? ─no─► Busy frame, close
//!              │yes
//!  connection thread: read frame ─► workers gate ─► Service::handle ─► writev pieces ─┐
//!              ▲──────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! A reply's [`Piece`]s go to the socket from where they lie, never
//! copied. At most `workers` requests are in [`Service::handle`] at
//! once; TCP flow control is the backpressure both ways. `read_timeout`
//! is both socket timeouts, so a connection idle, stalled mid-frame or
//! leaving its reply unread that long is closed. Drain shuts down
//! reading on every connection: a request in flight finishes and
//! flushes, then the connection closes.

use crate::metrics::ConnMetrics;
use crate::protocol::{encode_frame, frame_len, ErrorCode, Message};
use crate::server::ServerConfig;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Begin graceful drain of the whole engine after this reply.
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

/// The application layer plugged into the engine, called from the
/// connection threads.
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-connection state: made when a connection is admitted, passed
    /// to the handling of each of its frames, dropped with the
    /// connection.
    type Session: Default + Send + 'static;

    /// Handles one complete frame (exactly as read off the wire,
    /// length prefix and CRC trailer included) and returns the reply.
    fn handle(&self, session: &mut Self::Session, frame: Vec<u8>) -> Reply;
}

/// The admitted connections still open, each by a handle on its socket
/// that drain shuts down.
#[derive(Default)]
struct Conns {
    open: HashMap<u64, TcpStream>,
    next_id: u64,
}

/// What the engine's threads share.
struct Shared<S> {
    service: Arc<S>,
    cfg: ServerConfig,
    metrics: ConnMetrics,
    addr: SocketAddr,
    /// Requests in [`Service::handle`] now: at most `workers`.
    in_handle: Mutex<usize>,
    handle_left: Condvar,
    conns: Mutex<Conns>,
    /// Set, under the `conns` lock, when drain begins.
    draining: AtomicBool,
    /// Rung after drain begins and after each close, for
    /// [`Engine::finish`] to look again. A `()` queue holds no memory.
    doorbell: crossbeam_channel::Sender<()>,
    /// Set when drain is over: the accept thread stops at its next
    /// wake-up.
    stopping: AtomicBool,
}

/// Handle to a running engine; dropping it drains and joins the engine.
pub(crate) struct Engine<S: Service> {
    shared: Arc<Shared<S>>,
    doorbell: crossbeam_channel::Receiver<()>,
    acceptor: Option<JoinHandle<()>>,
}

impl<S: Service> Engine<S> {
    /// Starts graceful drain without waiting for it to finish.
    pub(crate) fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Drains and waits for every thread (bounded by the drain
    /// timeout).
    pub(crate) fn shutdown(mut self) {
        self.begin_drain();
        self.finish();
    }

    /// Waits for the engine to stop on its own — i.e. for a service
    /// reply with `shutdown: true` (a wire-initiated shutdown).
    pub(crate) fn join(mut self) {
        self.finish();
    }

    /// Waits for drain to begin, then up to `drain_timeout` for the
    /// connections to close; shuts down what is left, wakes the accept
    /// thread and joins it, and it joins the connection threads.
    fn finish(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        let shared = &self.shared;
        while !shared.draining.load(Ordering::SeqCst) {
            let _ = self.doorbell.recv();
        }
        let deadline = Instant::now() + shared.cfg.drain_timeout;
        while !shared.conns.lock().open.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if self.doorbell.recv_timeout(left).is_err() {
                break;
            }
        }
        for stream in shared.conns.lock().open.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        shared.stopping.store(true, Ordering::SeqCst);
        // Wake the blocked accept so it sees the flag.
        drop(TcpStream::connect(shared.addr));
        let _ = acceptor.join();
    }
}

impl<S: Service> Drop for Engine<S> {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.begin_drain();
            self.finish();
        }
    }
}

/// Takes ownership of a bound listener and serves it: an accept thread,
/// and a thread for each connection it admits.
pub(crate) fn spawn<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    cfg: &ServerConfig,
    metrics: ConnMetrics,
) -> io::Result<Engine<S>> {
    let (ring, doorbell) = crossbeam_channel::unbounded();
    let shared = Arc::new(Shared {
        service,
        addr: listener.local_addr()?,
        in_handle: Mutex::new(0),
        handle_left: Condvar::new(),
        cfg: cfg.clone(),
        metrics,
        conns: Mutex::default(),
        draining: AtomicBool::new(false),
        doorbell: ring,
        stopping: AtomicBool::new(false),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sciml-serve-accept".into())
            .spawn(move || shared.accept_loop(listener))?
    };
    Ok(Engine {
        shared,
        doorbell,
        acceptor: Some(acceptor),
    })
}

impl<S: Service> Shared<S> {
    fn begin_drain(&self) {
        let conns = self.conns.lock();
        if !self.draining.swap(true, Ordering::SeqCst) {
            for stream in conns.open.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        drop(conns);
        let _ = self.doorbell.send(());
    }

    /// Forgets connection `id`. Its counts move before its last handle
    /// on the socket closes, so a peer that sees the close sees them.
    fn close(&self, id: u64) {
        let last_handle = self.conns.lock().open.remove(&id);
        self.metrics.active.add(-1);
        if self.draining.load(Ordering::SeqCst) {
            self.metrics.drained.inc();
        }
        drop(last_handle);
        let _ = self.doorbell.send(());
    }

    /// Accepts until [`Engine::finish`] wakes it to stop, then joins
    /// the connection threads.
    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    for t in threads.extract_if(.., |t| t.is_finished()) {
                        let _ = t.join();
                    }
                    threads.extend(self.admit(stream));
                }
                // Out of descriptors, most likely: let some close.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        for t in threads {
            let _ = t.join();
        }
    }

    /// Admits `stream` onto a thread of its own, or refuses it with the
    /// `Busy` frame.
    fn admit(self: &Arc<Self>, stream: TcpStream) -> Option<JoinHandle<()>> {
        let mut conns = self.conns.lock();
        let refusal = if self.draining.load(Ordering::SeqCst) {
            "server is draining"
        } else if conns.open.len() >= self.cfg.max_connections {
            "server at its connection admission limit"
        } else {
            ""
        };
        if !refusal.is_empty() {
            drop(conns);
            self.metrics.rejected_busy.inc();
            refuse(&stream, ErrorCode::Busy, refusal.into());
            return None;
        }
        let id = conns.next_id;
        conns.next_id += 1;
        conns.open.insert(id, stream.try_clone().ok()?);
        drop(conns);
        self.metrics.accepted.inc();
        self.metrics.active.add(1);
        let shared = Arc::clone(self);
        let thread = std::thread::Builder::new()
            .name("sciml-serve-conn".into())
            .spawn(move || {
                shared.serve(stream);
                shared.close(id);
            });
        // A thread that did not start dropped its stream with it.
        thread.map_err(|_| self.close(id)).ok()
    }

    /// Runs `handle` once fewer than `workers` requests are in it.
    fn handle_gated(&self, session: &mut S::Session, frame: Vec<u8>) -> Reply {
        let mut busy = self.in_handle.lock();
        while *busy >= self.cfg.workers.max(1) {
            busy = self.handle_left.wait(busy);
        }
        *busy += 1;
        drop(busy);
        let reply = self.service.handle(session, frame);
        *self.in_handle.lock() -= 1;
        self.handle_left.notify_one();
        reply
    }

    /// Runs one connection: frame in, reply out, until the peer leaves,
    /// a socket timeout or error, a closing reply, or drain.
    fn serve(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let timeout = Some(self.cfg.read_timeout).filter(|t| !t.is_zero());
        if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
            return;
        }
        let mut session = S::Session::default();
        loop {
            let mut prefix = [0u8; 4];
            if stream.read_exact(&mut prefix).is_err() {
                return;
            }
            let total = match frame_len(&prefix) {
                Ok(Some(total)) => total,
                Ok(None) => return,
                Err(e) => {
                    refuse(
                        &stream,
                        ErrorCode::BadRequest,
                        format!("protocol error: {e}"),
                    );
                    return;
                }
            };
            // Grown as the bytes arrive, not sized from the prefix.
            let mut frame = prefix.to_vec();
            let rest = (total - prefix.len()) as u64;
            if (&mut stream).take(rest).read_to_end(&mut frame).is_err() || frame.len() != total {
                return;
            }
            let reply = self.handle_gated(&mut session, frame);
            if write_pieces(&mut stream, &reply.frame).is_err() {
                return;
            }
            if reply.shutdown {
                self.begin_drain();
            }
            if reply.close || self.draining.load(Ordering::SeqCst) {
                return;
            }
        }
    }
}

/// Sends a protocol `Error` frame on the engine's own account, best
/// effort: the caller closes the connection next.
fn refuse(mut stream: &TcpStream, code: ErrorCode, detail: String) {
    let _ = stream.write_all(&encode_frame(&Message::Error { code, detail }));
}

/// Writes every byte of `pieces` in order, from where each lies, in as
/// few `writev`s as the socket takes.
fn write_pieces(stream: &mut TcpStream, pieces: &[Piece]) -> io::Result<()> {
    let mut slices: Vec<IoSlice<'_>> = pieces
        .iter()
        .map(Piece::as_bytes)
        .filter(|b| !b.is_empty())
        .map(IoSlice::new)
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServerMetrics;
    use crate::protocol::{decode_frame, MAX_FRAME_BYTES};
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

    /// Builds a wire frame: `[len u32 LE][payload][crc32 placeholder]`.
    /// The engine only inspects the length prefix, so the trailer can be
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
    /// instruments the engine records into.
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

        fn handled(&self) -> u64 {
            self.handled.load(Ordering::SeqCst)
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
            // reads leaves the connection thread blocked in its write.
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

    /// A running engine, the address it listens on, and its service.
    type Running = (Engine<EchoService>, SocketAddr, Arc<EchoService>);

    fn spawn_echo(cfg: ServerConfig, delay: Duration) -> Running {
        spawn_service(cfg, EchoService::new(delay))
    }

    /// [`spawn_echo`] whose replies are all gathered from pieces.
    fn spawn_gathering_echo(cfg: ServerConfig) -> Running {
        spawn_service(cfg, EchoService::with(Duration::ZERO, true))
    }

    fn spawn_service(cfg: ServerConfig, svc: Arc<EchoService>) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let engine = spawn(listener, svc.clone(), &cfg, svc.conns.clone()).unwrap();
        (engine, addr, svc)
    }

    /// A config whose connections are closed after `timeout` without
    /// progress.
    fn timing_out_after(timeout: Duration) -> ServerConfig {
        ServerConfig {
            read_timeout: timeout,
            ..ServerConfig::default()
        }
    }

    /// Waits up to 10 s for `done`.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The protocol `Error` frame the engine answered with, and then
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
        let (engine, addr, svc) = spawn_service(
            ServerConfig::default(),
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
        engine.shutdown();
        assert_eq!(svc.connected(), 8);
        assert_eq!(svc.disconnected(), 8);
        assert_eq!(svc.handled(), 8);
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
        let (engine, addr, svc) = spawn_gathering_echo(ServerConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        shrink_receive_buffer(&c, 64 << 10);
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        for (seed, len) in [(0, 3 << 20), (1, 0), (2, 5), (3, 70_001)] {
            let f = numbered_frame(seed, len);
            c.write_all(&f).unwrap();
            assert!(read_frame_slowly(&mut c, 1500) == f, "reply {seed} damaged");
        }
        assert_eq!(svc.handled(), 4);
        drop(c);
        engine.shutdown();
    }

    #[test]
    fn pipelined_frames_reply_in_order() {
        let (engine, addr, _svc) = spawn_echo(ServerConfig::default(), Duration::from_millis(2));
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // 20 frames written one by one without reading a single reply:
        // handled one at a time, answered in order.
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
        engine.shutdown();
    }

    #[test]
    fn a_burst_of_64_frames_sent_before_any_read_is_answered_in_order() {
        let (engine, addr, svc) = spawn_echo(ServerConfig::default(), Duration::ZERO);
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let frames: Vec<Vec<u8>> = (0..64)
            .map(|i| frame(format!("burst-{i:03}").as_bytes()))
            .collect();
        let burst: Vec<u8> = frames.iter().flatten().copied().collect();
        c.write_all(&burst).unwrap();
        for (i, f) in frames.iter().enumerate() {
            let got = read_frame(&mut c).unwrap();
            assert_eq!(&got, f, "reply {i} missing or out of order");
        }
        assert_eq!(svc.handled(), 64);
        drop(c);
        engine.shutdown();
    }

    #[test]
    fn pipelined_replies_keep_their_order_through_a_full_socket() {
        pipelined_backlog(false);
    }

    #[test]
    fn pipelined_gathered_replies_keep_their_order_through_a_full_socket() {
        pipelined_backlog(true);
    }

    /// 24 distinct 1 MiB frames to a client that reads nothing until the
    /// server has stopped handling them — more than loopback's socket
    /// buffers hold, so the server sits in a blocked write with requests
    /// still unread — must come back whole and in order, and so must the
    /// small frame after them.
    fn pipelined_backlog(gather: bool) {
        const FRAMES: usize = 24;
        let (engine, addr, svc) = spawn_service(
            ServerConfig::default(),
            EchoService::with(Duration::ZERO, gather),
        );
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let frames: Vec<Vec<u8>> = (0..FRAMES).map(|i| numbered_frame(i, 1 << 20)).collect();
        let mut writer = c.try_clone().unwrap();
        std::thread::scope(|t| {
            // On a thread of its own: the server stops reading requests
            // while its reply is unread.
            t.spawn(|| {
                for f in &frames {
                    writer.write_all(f).unwrap();
                }
            });
            wait_for("the first request", || svc.handled() > 0);
            std::thread::sleep(Duration::from_millis(100));
            assert!(svc.handled() < FRAMES as u64, "nothing held back");
            for (i, f) in frames.iter().enumerate() {
                let got = read_frame(&mut c).unwrap();
                assert!(&got == f, "reply {i} damaged or out of order");
            }
        });
        let small = frame(b"after-the-backlog");
        c.write_all(&small).unwrap();
        assert_eq!(read_frame(&mut c).unwrap(), small);
        assert_eq!(svc.handled(), FRAMES as u64 + 1);
        drop(c);
        engine.shutdown();
    }

    #[test]
    fn an_unread_reply_is_closed_at_the_write_timeout() {
        unread_reply(false);
    }

    #[test]
    fn an_unread_gathered_reply_is_closed_at_the_write_timeout() {
        unread_reply(true);
    }

    /// The peer requests a reply far bigger than the socket buffers and
    /// never reads it (with `gather`, 32 shared pieces of it): the write
    /// stalls, and the write timeout must close the connection and free
    /// its thread, or it is held forever.
    fn unread_reply(gather: bool) {
        let cfg = timing_out_after(Duration::from_millis(150));
        let (engine, addr, svc) = spawn_service(cfg, EchoService::with(Duration::ZERO, gather));
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(&frame(b"bigclose")).unwrap();
        wait_for("the stalled write to time out", || svc.disconnected() == 1);
        assert_eq!(svc.conns.active.get(), 0);
        drop(c);
        engine.shutdown();
    }

    #[test]
    fn a_peer_stalled_mid_frame_is_closed_at_the_read_timeout() {
        let cfg = timing_out_after(Duration::from_millis(150));
        let (engine, addr, svc) = spawn_echo(cfg, Duration::ZERO);
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Half of a 100-byte frame, then silence.
        c.write_all(&frame(&[9; 92])[..50]).unwrap();
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "{} bytes for half a frame", rest.len());
        assert_eq!(svc.handled(), 0);
        assert_eq!((svc.disconnected(), svc.conns.active.get()), (1, 0));
        engine.shutdown();
    }

    #[test]
    fn admission_cap_sends_busy_frame() {
        let cfg = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let (engine, addr, svc) = spawn_echo(cfg, Duration::ZERO);
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
        assert_eq!(detail, "server at its connection admission limit");
        assert_eq!(svc.conns.rejected_busy.get(), 1);
        drop(first);
        engine.shutdown();
    }

    #[test]
    fn graceful_drain_finishes_in_flight_and_rejects_new() {
        let (engine, addr, svc) = spawn_echo(ServerConfig::default(), Duration::from_millis(200));
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let slow = frame(b"slow-request");
        busy.write_all(&slow).unwrap();
        // Give the connection thread time to pick the request up, then
        // drain.
        std::thread::sleep(Duration::from_millis(50));
        engine.begin_drain();

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

        engine.shutdown();
        assert_eq!(svc.handled(), 1);
        assert_eq!(svc.conns.drained.get(), 1);
    }

    #[test]
    fn drain_flushes_queued_pieces_before_closing() {
        // An 8 MiB gathered reply is mostly unwritten (the client has not
        // read) when drain begins: it is still written out whole, then
        // the connection closes.
        let (engine, addr, svc) = spawn_gathering_echo(ServerConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let f = numbered_frame(7, 8 << 20);
        c.write_all(&f).unwrap();
        wait_for("the request", || svc.handled() > 0);
        std::thread::sleep(Duration::from_millis(50));
        engine.begin_drain();
        assert!(read_frame(&mut c).unwrap() == f, "drained reply damaged");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        engine.shutdown();
        assert_eq!(svc.disconnected(), 1);
    }

    #[test]
    fn replies_of_empty_pieces_write_nothing_and_keep_the_connection() {
        let (engine, addr, svc) = spawn_gathering_echo(ServerConfig::default());
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
        assert_eq!(svc.handled(), 3);
        drop(c);
        engine.shutdown();
        assert_eq!(svc.disconnected(), 1);
    }

    #[test]
    fn wire_shutdown_reply_drains_the_engine() {
        let (engine, addr, svc) = spawn_echo(ServerConfig::default(), Duration::ZERO);
        let t = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let msg = frame(b"shutdown");
            c.write_all(&msg).unwrap();
            assert_eq!(read_frame(&mut c).unwrap(), msg);
        });
        // join() only returns once the service-initiated drain completes.
        engine.join();
        t.join().unwrap();
        assert_eq!(svc.conns.drained.get(), 1);
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = timing_out_after(Duration::from_millis(120));
        let (engine, addr, svc) = spawn_echo(cfg, Duration::ZERO);
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
        engine.shutdown();
    }

    #[test]
    fn oversized_frame_gets_error_frame_then_close() {
        let (engine, addr, _svc) = spawn_echo(ServerConfig::default(), Duration::ZERO);
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
        engine.shutdown();
    }

    #[test]
    fn five_hundred_twelve_concurrent_connections() {
        let cfg = ServerConfig {
            max_connections: 2048,
            ..ServerConfig::default()
        };
        let (engine, addr, svc) = spawn_echo(cfg, Duration::ZERO);
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
        assert_eq!(svc.handled(), 512);
        assert_eq!(svc.conns.active.get(), 512);
        // Drained with every connection still open: each closes, and
        // shutdown() returns with no connection thread left holding the
        // engine, and so the service.
        engine.shutdown();
        assert_eq!(svc.conns.active.get(), 0);
        assert_eq!(svc.conns.drained.get(), 512);
        assert_eq!(Arc::strong_count(&svc), 1, "a thread outlived shutdown()");
        for c in &mut conns {
            let mut rest = Vec::new();
            c.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty());
        }
    }
}
