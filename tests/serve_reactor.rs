//! Reactor integration tests on a real loopback TCP server: graceful
//! drain with requests in flight, and the one-version greeting.

use sciml_pipeline::SampleSource;
use sciml_serve::protocol::{self, ErrorCode, Message};
use sciml_serve::{ServeBuilder, ServerConfig};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A source whose fetches take a fixed wall-clock time, so requests are
/// reliably still in flight when the test starts draining the server.
#[derive(Debug)]
struct SlowSource {
    blobs: Vec<Vec<u8>>,
    delay: Duration,
}

impl SampleSource for SlowSource {
    fn len(&self) -> usize {
        self.blobs.len()
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        std::thread::sleep(self.delay);
        buf.clone_from(&self.blobs[idx]);
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        0
    }
}

fn blobs(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut b = vec![i as u8; 4096];
            b[..8].copy_from_slice(&(i as u64).to_le_bytes());
            b
        })
        .collect()
}

/// Graceful drain under load: with several fetches in flight, a
/// `begin_drain` must let every in-flight reply complete byte-identical
/// to the backing data, refuse new connections with the typed draining
/// error, and count the drained connections.
#[test]
fn drain_completes_inflight_replies_and_refuses_new_connections() {
    let n = 8usize;
    let data = blobs(n);
    let inflight = 4usize;
    let server = ServeBuilder::new()
        .config(ServerConfig {
            workers: inflight,
            max_connections: 32,
            drain_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        })
        .dataset(
            "cosmo",
            Arc::new(SlowSource {
                blobs: data.clone(),
                delay: Duration::from_millis(400),
            }) as Arc<dyn SampleSource>,
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.local_addr();
    let registry = server.metrics_registry();

    // Raw-protocol clients: each greets, then (after the barrier)
    // puts one slow fetch in flight.
    let barrier = Arc::new(Barrier::new(inflight + 1));
    let clients: Vec<_> = (0..inflight)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Message {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                protocol::write_message(
                    &mut stream,
                    &Message::Hello {
                        version: protocol::PROTOCOL_VERSION,
                    },
                )
                .expect("hello");
                match protocol::read_message(&mut stream).expect("hello ack") {
                    Message::HelloAck { .. } => {}
                    other => panic!("unexpected hello reply: {other:?}"),
                }
                barrier.wait();
                protocol::write_message(
                    &mut stream,
                    &Message::FetchSamples {
                        name: "cosmo".into(),
                        indices: vec![i as u64],
                    },
                )
                .expect("fetch request");
                protocol::read_message(&mut stream).expect("fetch reply during drain")
            })
        })
        .collect();

    // Wait for every request to be on the wire (the fetch itself takes
    // 400 ms server-side), then start draining under them.
    barrier.wait();
    std::thread::sleep(Duration::from_millis(100));
    server.begin_drain();

    // A new connection during drain is turned away with the typed
    // draining error before it sends a single byte. A connect that
    // races the drain flag into the same event-loop batch can be
    // admitted and then immediately closed as idle (EOF) — also a
    // refusal, but retry until the typed frame itself is observed.
    let mut reject = None;
    for _ in 0..10 {
        let mut late = TcpStream::connect(addr).expect("connect during drain");
        late.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        match protocol::read_message(&mut late) {
            Ok(msg) => {
                reject = Some(msg);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    match reject.expect("no draining reject frame within the retry budget") {
        Message::Error { code, detail } => {
            assert_eq!(code, ErrorCode::Busy);
            assert!(
                detail.contains("draining"),
                "reject should name the drain, got: {detail}"
            );
        }
        other => panic!("expected the draining error, got {other:?}"),
    }

    // Every in-flight reply completes, byte-identical to the backing
    // data, despite the drain racing it.
    for (i, client) in clients.into_iter().enumerate() {
        match client.join().expect("client thread") {
            Message::Samples(payloads) => {
                assert_eq!(payloads.len(), 1);
                assert_eq!(payloads[0], data[i], "sample {i} corrupted by drain");
            }
            other => panic!("client {i}: expected samples, got {other:?}"),
        }
    }

    server.shutdown();
    let snap = registry.snapshot();
    assert!(
        snap.counter("serve.conn.drained") >= inflight as u64,
        "in-flight connections should be counted as drained (got {})",
        snap.counter("serve.conn.drained")
    );
    assert!(
        snap.counter("serve.conn.rejected_busy") >= 1,
        "the late connection should be counted as rejected"
    );
    assert_eq!(
        snap.gauge("serve.conn.active"),
        0,
        "no connection may survive shutdown"
    );
}

/// Draining an idle reactor finishes promptly: `begin_drain` followed
/// by `join` returns without waiting out the drain timeout.
#[test]
fn drain_of_idle_server_returns_quickly() {
    let server = ServeBuilder::new()
        .config(ServerConfig {
            drain_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        })
        .dataset(
            "cosmo",
            Arc::new(SlowSource {
                blobs: blobs(2),
                delay: Duration::ZERO,
            }) as Arc<dyn SampleSource>,
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let t0 = std::time::Instant::now();
    server.begin_drain();
    server.join();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "idle drain must not wait out the drain timeout"
    );
}

/// One protocol version: a `Hello` on either side of it gets the typed
/// `VersionMismatch` frame and a close, and every admitted connection
/// can use the whole protocol, trace envelope and cluster manifest
/// included.
#[test]
fn other_versions_are_refused_and_admitted_connections_speak_everything() {
    let server = ServeBuilder::new()
        .dataset(
            "cosmo",
            Arc::new(SlowSource {
                blobs: blobs(2),
                delay: Duration::ZERO,
            }) as Arc<dyn SampleSource>,
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let dial = |version: u16| {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        protocol::write_message(&mut stream, &Message::Hello { version }).expect("hello");
        let reply = protocol::read_message(&mut stream).expect("hello reply");
        (stream, reply)
    };

    for version in [
        protocol::PROTOCOL_VERSION - 1,
        protocol::PROTOCOL_VERSION + 1,
    ] {
        let (mut stream, reply) = dial(version);
        assert!(
            matches!(
                reply,
                Message::Error {
                    code: ErrorCode::VersionMismatch,
                    ..
                }
            ),
            "v{version}: {reply:?}"
        );
        assert!(
            matches!(
                protocol::read_message(&mut stream),
                Err(protocol::ProtocolError::Io(ref e))
                    if e.kind() == std::io::ErrorKind::UnexpectedEof
            ),
            "v{version}: the refused connection must be closed"
        );
    }

    let (mut stream, reply) = dial(protocol::PROTOCOL_VERSION);
    assert_eq!(
        reply,
        Message::HelloAck {
            version: protocol::PROTOCOL_VERSION
        }
    );
    let request = Message::Traced {
        trace_id: 1,
        parent_span: 2,
        inner: Box::new(Message::Manifest {
            name: "cosmo".into(),
        }),
    };
    protocol::write_message(&mut stream, &request).expect("traced manifest");
    match protocol::read_message(&mut stream).expect("manifest reply") {
        // No cluster config: the plan names no node.
        Message::ManifestReply(plan) => assert!(plan.nodes.is_empty(), "{plan:?}"),
        other => panic!("expected the manifest, got {other:?}"),
    }
    server.shutdown();
}
