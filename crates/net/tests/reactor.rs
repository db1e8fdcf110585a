//! End-to-end reactor tests over real loopback sockets, on both the
//! default (epoll on Linux) and forced-`poll(2)` backends.

use sciml_net::reactor::{
    ConnId, Reactor, ReactorConfig, ReactorHandle, ReactorMetrics, Reply, Service,
};
use sciml_net::FrameError;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// Echoes every frame back; optional per-request delay; counts
/// lifecycle callbacks.
struct EchoService {
    delay: Duration,
    connected: AtomicU64,
    disconnected: AtomicU64,
    handled: AtomicU64,
}

impl EchoService {
    fn new(delay: Duration) -> Arc<EchoService> {
        Arc::new(EchoService {
            delay,
            connected: AtomicU64::new(0),
            disconnected: AtomicU64::new(0),
            handled: AtomicU64::new(0),
        })
    }
}

impl Service for EchoService {
    fn handle(&self, _conn: ConnId, frame_bytes: Vec<u8>) -> Reply {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.handled.fetch_add(1, Ordering::SeqCst);
        // "shutdown" payload triggers wire-initiated drain.
        if frame_bytes.len() >= 12 && &frame_bytes[4..12] == b"shutdown" {
            return Reply {
                frame: Some(frame_bytes),
                close: false,
                shutdown: true,
            };
        }
        // "bigclose" payload gets a 32 MiB reply-then-close: far more
        // than loopback socket buffers hold, so a client that never
        // reads leaves the connection stuck in close-after-flush.
        if frame_bytes.len() >= 12 && &frame_bytes[4..12] == b"bigclose" {
            return Reply::send_close(frame(&vec![0u8; 32 << 20]));
        }
        Reply::send(frame_bytes)
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
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let svc = EchoService::new(delay);
    let handle = Reactor::spawn(
        listener,
        svc.clone() as Arc<dyn Service>,
        cfg,
        ReactorMetrics::detached(),
    )
    .unwrap();
    (handle, svc)
}

fn echo_roundtrip(cfg: ReactorConfig) {
    let (handle, svc) = spawn_echo(cfg, Duration::ZERO);
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
fn echo_roundtrip_default_backend() {
    echo_roundtrip(ReactorConfig::default());
}

#[test]
fn echo_roundtrip_poll_fallback() {
    let cfg = ReactorConfig {
        force_poll_fallback: true,
        ..ReactorConfig::default()
    };
    echo_roundtrip(cfg);
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
    // A reply to a connection with nothing unflushed becomes its
    // outbound buffer; one that finds a backlog is appended to it. 24
    // distinct 1 MiB frames to a client that reads none of them until
    // 16 have been handled — more than loopback's socket buffers hold,
    // so the later replies met a backlog — must come back whole and in
    // order, and so must the small frame after them, which finds the
    // buffer empty again.
    const FRAMES: usize = 24;
    let (handle, svc) = spawn_echo(ReactorConfig::default(), Duration::ZERO);
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let frames: Vec<Vec<u8>> = (0..FRAMES)
        .map(|i| {
            let body: Vec<u8> = (0..1usize << 20).map(|j| (i * 31 + j) as u8).collect();
            frame(&body)
        })
        .collect();
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
    // The peer requests a reply-then-close far bigger than the socket
    // buffers and never reads it: the connection sits unflushed with
    // close_after_flush set. The idle reaper must still close it, or
    // it holds its fd and buffers (and, for rejects, an open slot)
    // forever.
    let cfg = ReactorConfig {
        idle_timeout: Duration::from_millis(150),
        ..ReactorConfig::default()
    };
    let (handle, svc) = spawn_echo(cfg, Duration::ZERO);
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
    let cfg = ReactorConfig {
        max_frame_bytes: 1024,
        ..ReactorConfig::default()
    };
    let (handle, _svc) = spawn_echo(cfg, Duration::ZERO);
    let mut c = TcpStream::connect(handle.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.write_all(&(4096u32).to_le_bytes()).unwrap();
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
