//! End-to-end reactor tests over real loopback sockets.

use sciml_net::reactor::{
    ConnId, Piece, Reactor, ReactorConfig, ReactorHandle, ReactorMetrics, Reply, Service,
};
use sciml_net::{FrameError, MAX_PAYLOAD};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// into [`gathered`] pieces; optional per-request delay; counts
/// lifecycle callbacks.
struct EchoService {
    delay: Duration,
    gather: bool,
    connected: AtomicU64,
    disconnected: AtomicU64,
    handled: AtomicU64,
}

impl EchoService {
    fn new(delay: Duration) -> Arc<EchoService> {
        Self::with(delay, false)
    }

    fn with(delay: Duration, gather: bool) -> Arc<EchoService> {
        Arc::new(EchoService {
            delay,
            gather,
            connected: AtomicU64::new(0),
            disconnected: AtomicU64::new(0),
            handled: AtomicU64::new(0),
        })
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
    fn handle(&self, _conn: ConnId, frame_bytes: Vec<u8>) -> Reply {
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

    fn reject_frame(&self, draining: bool) -> Option<Vec<u8>> {
        Some(frame(if draining { b"DRAINING" } else { b"BUSY" }))
    }

    fn frame_error_frame(&self, _conn: ConnId, _err: &FrameError) -> Option<Vec<u8>> {
        Some(frame(b"TOO-BIG"))
    }

    fn connected(&self, _conn: ConnId) {
        self.connected.fetch_add(1, Ordering::SeqCst);
    }

    fn disconnected(&self, _conn: ConnId) {
        self.disconnected.fetch_add(1, Ordering::SeqCst);
    }
}

fn spawn_echo(cfg: ReactorConfig, delay: Duration) -> (ReactorHandle, Arc<EchoService>) {
    spawn_service(cfg, EchoService::new(delay))
}

/// [`spawn_echo`] whose replies are all gathered from pieces.
fn spawn_gathering_echo(cfg: ReactorConfig) -> (ReactorHandle, Arc<EchoService>) {
    spawn_service(cfg, EchoService::with(Duration::ZERO, true))
}

fn spawn_service(cfg: ReactorConfig, svc: Arc<EchoService>) -> (ReactorHandle, Arc<EchoService>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Reactor::spawn(
        listener,
        svc.clone() as Arc<dyn Service>,
        cfg,
        ReactorMetrics::detached(),
    )
    .unwrap();
    (handle, svc)
}

fn echo_roundtrip(gather: bool) {
    let (handle, svc) = spawn_service(
        ReactorConfig::default(),
        EchoService::with(Duration::ZERO, gather),
    );
    let mut conns: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(handle.local_addr()).unwrap())
        .collect();
    for (i, c) in conns.iter_mut().enumerate() {
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let msg = frame(format!("hello-{i}").as_bytes());
        c.write_all(&msg).unwrap();
        let got = read_frame(c).unwrap();
        assert_eq!(got, msg, "echo mismatch on conn {i}");
    }
    drop(conns);
    handle.shutdown();
    assert_eq!(svc.connected.load(Ordering::SeqCst), 8);
    assert_eq!(svc.disconnected.load(Ordering::SeqCst), 8);
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
    let (handle, svc) = spawn_gathering_echo(ReactorConfig::default());
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
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
    let (handle, _svc) = spawn_echo(ReactorConfig::default(), Duration::from_millis(2));
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
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
    let (handle, svc) = spawn_service(
        ReactorConfig::default(),
        EchoService::with(Duration::ZERO, gather),
    );
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
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
    let (handle, svc) = spawn_echo(cfg, Duration::ZERO);
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
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
    let (handle, svc) = spawn_service(cfg, EchoService::with(Duration::ZERO, gather));
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
    c.write_all(&frame(b"bigclose")).unwrap();
    // Never read. Once the kernel buffers fill, flush stalls and
    // last_activity stops advancing; the reaper should fire within a
    // couple of idle periods.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while svc.disconnected.load(Ordering::SeqCst) == 0 {
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
    let (handle, _svc) = spawn_echo(cfg, Duration::ZERO);
    let mut first = TcpStream::connect(handle.local_addr()).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Prove the first connection is admitted before connecting again.
    let probe = frame(b"probe");
    first.write_all(&probe).unwrap();
    assert_eq!(read_frame(&mut first).unwrap(), probe);

    let mut second = TcpStream::connect(handle.local_addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let got = read_frame(&mut second).unwrap();
    assert_eq!(got, frame(b"BUSY"));
    // ... and the rejected socket is closed right after.
    let mut rest = Vec::new();
    second.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    drop(first);
    handle.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_and_rejects_new() {
    let (handle, svc) = spawn_echo(ReactorConfig::default(), Duration::from_millis(200));
    let mut busy = TcpStream::connect(handle.local_addr()).unwrap();
    busy.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let slow = frame(b"slow-request");
    busy.write_all(&slow).unwrap();
    // Give the worker time to pick the request up, then drain.
    std::thread::sleep(Duration::from_millis(50));
    handle.begin_drain();
    std::thread::sleep(Duration::from_millis(20));

    // New connections now get the typed draining frame and a close.
    let mut late = TcpStream::connect(handle.local_addr()).unwrap();
    late.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(read_frame(&mut late).unwrap(), frame(b"DRAINING"));

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
    let (handle, svc) = spawn_gathering_echo(ReactorConfig::default());
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
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
    assert_eq!(svc.disconnected.load(Ordering::SeqCst), 1);
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
    let (handle, svc) = spawn_gathering_echo(cfg);
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
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
    let (handle, svc) = spawn_gathering_echo(ReactorConfig::default());
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
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
    assert_eq!(svc.disconnected.load(Ordering::SeqCst), 1);
}

#[test]
fn wire_shutdown_reply_drains_reactor() {
    let (handle, _svc) = spawn_echo(ReactorConfig::default(), Duration::ZERO);
    let addr = handle.local_addr();
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
    let (handle, svc) = spawn_echo(cfg, Duration::ZERO);
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let msg = frame(b"warmup");
    c.write_all(&msg).unwrap();
    assert_eq!(read_frame(&mut c).unwrap(), msg);
    // No traffic: the reaper must close the socket (read returns EOF).
    let mut rest = Vec::new();
    c.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_eq!(svc.disconnected.load(Ordering::SeqCst), 1);
    handle.shutdown();
}

#[test]
fn oversized_frame_gets_error_frame_then_close() {
    let (handle, _svc) = spawn_echo(ReactorConfig::default(), Duration::ZERO);
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Only the prefix is judged, so no body follows it.
    c.write_all(&(MAX_PAYLOAD + 1).to_le_bytes()).unwrap();
    assert_eq!(read_frame(&mut c).unwrap(), frame(b"TOO-BIG"));
    let mut rest = Vec::new();
    c.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}

#[test]
fn five_hundred_twelve_concurrent_connections() {
    let cfg = ReactorConfig {
        max_connections: 2048,
        workers: 4,
        ..ReactorConfig::default()
    };
    let (handle, svc) = spawn_echo(cfg, Duration::ZERO);
    let addr = handle.local_addr();
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
