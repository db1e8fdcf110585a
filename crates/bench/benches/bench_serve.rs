//! Loopback serving benchmarks: what the disaggregated tier costs on
//! localhost TCP, with and without the server-side DRAM hot cache, at
//! different fetch batch sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_bench::snapshot::{histogram_entries, write_snapshot};
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_obs::{BenchEntry, MetricsRegistry};
use sciml_pipeline::source::VecSource;
use sciml_pipeline::SampleSource;
use sciml_serve::protocol::{self, Message};
use sciml_serve::{RemoteSource, ServeBuilder, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn bench(c: &mut Criterion) {
    let mut gen_cfg = CosmoFlowConfig::test_small();
    gen_cfg.grid = 24;
    let n = 16usize;
    let blobs = DatasetBuilder::cosmoflow(gen_cfg).build(n, EncodedFormat::Custom);
    let sample_bytes: u64 = blobs.iter().map(|b| b.len() as u64).sum();

    let registry = MetricsRegistry::new();
    let server = ServeBuilder::new()
        .config(ServerConfig {
            cache_bytes: 1 << 30,
            ..ServerConfig::default()
        })
        .registry(Arc::clone(&registry))
        .dataset(
            "bench",
            Arc::new(VecSource::new(blobs.clone())) as Arc<dyn SampleSource>,
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let remote = RemoteSource::connect(server.local_addr().to_string(), "bench").expect("connect");
    // Prime the hot cache so steady-state epochs measure the cached path.
    remote
        .fetch_batch(&(0..n as u64).collect::<Vec<_>>())
        .expect("prime");

    let mut g = c.benchmark_group("serve_loopback");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(sample_bytes));
    for batch in [1usize, 4, 16] {
        g.bench_with_input(
            BenchmarkId::new("epoch_batched", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut got = 0usize;
                    for chunk in (0..n as u64).collect::<Vec<_>>().chunks(batch) {
                        got += remote.fetch_batch(chunk).expect("fetch").len();
                    }
                    assert_eq!(got, n);
                })
            },
        );
    }
    g.finish();

    // Local baseline for the same access pattern, to read the network
    // tier's overhead directly off the two numbers.
    let local = VecSource::new(blobs);
    let mut g = c.benchmark_group("serve_local_baseline");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(sample_bytes));
    g.bench_function("epoch", |b| {
        b.iter(|| {
            for i in 0..n {
                local.fetch(i).expect("fetch");
            }
        })
    });
    g.finish();

    drop(remote);
    server.shutdown();

    // Server-side latency distribution across everything the bench sent
    // — the tail numbers the cumulative-mean counters used to hide.
    if let Some(latency) = registry.snapshot().histogram("serve.request_ns") {
        match write_snapshot(
            "serve_loopback_latency",
            &histogram_entries("request", latency),
        ) {
            Ok(path) => println!("latency snapshot: {}", path.display()),
            Err(e) => eprintln!("latency snapshot not written: {e}"),
        }
    }

    reactor_at_high_concurrency();
}

/// Client-observed fetch latencies with `conns` connections held open
/// simultaneously (a barrier gates the fetch phase on every socket
/// being negotiated), `fetches` single-sample requests per connection.
fn concurrent_fetch_latency(addr: SocketAddr, conns: usize, fetches: usize, n: u64) -> Vec<u64> {
    let barrier = Arc::new(Barrier::new(conns));
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Vec<u64> {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
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
                let mut lat = Vec::with_capacity(fetches);
                for k in 0..fetches {
                    let idx = (c as u64 + k as u64) % n;
                    let t = Instant::now();
                    protocol::write_message(
                        &mut stream,
                        &Message::FetchSamples {
                            name: "bench".into(),
                            indices: vec![idx],
                        },
                    )
                    .expect("fetch");
                    match protocol::read_message(&mut stream).expect("fetch reply") {
                        Message::Samples(p) => assert_eq!(p.len(), 1),
                        other => panic!("unexpected fetch reply: {other:?}"),
                    }
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                lat
            })
        })
        .collect();
    let mut all = Vec::with_capacity(conns * fetches);
    for w in workers {
        all.extend(w.join().expect("soak client"));
    }
    all.sort_unstable();
    all
}

fn pct(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i.min(sorted.len() - 1)] as f64
}

/// 1024 concurrent loopback connections against the reactor's default
/// worker pool; client-observed and server-side tails land in
/// `BENCH_serve_reactor.json`.
fn reactor_at_high_concurrency() {
    let conns = 1024usize;
    let fetches = 4usize;
    let mut gen_cfg = CosmoFlowConfig::test_small();
    gen_cfg.grid = 24;
    let n = 16usize;
    let blobs = DatasetBuilder::cosmoflow(gen_cfg).build(n, EncodedFormat::Custom);

    let registry = MetricsRegistry::new();
    let server = ServeBuilder::new()
        .config(ServerConfig {
            max_connections: conns + 64,
            cache_bytes: 1 << 30,
            read_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        })
        .registry(Arc::clone(&registry))
        .dataset(
            "bench",
            Arc::new(VecSource::new(blobs)) as Arc<dyn SampleSource>,
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let t0 = Instant::now();
    let lat = concurrent_fetch_latency(server.local_addr(), conns, fetches, n as u64);
    let elapsed = t0.elapsed();
    server.shutdown();
    assert_eq!(lat.len(), conns * fetches);
    println!(
        "reactor: {conns} conns x {fetches} fetches in {:.2} s — client p50 {:.0} ns / p99 {:.0} ns",
        elapsed.as_secs_f64(),
        pct(&lat, 0.50),
        pct(&lat, 0.99),
    );
    let mut entries = vec![
        BenchEntry::new("connections", conns as f64, "conns"),
        BenchEntry::new("reactor_p50_ns", pct(&lat, 0.50), "ns"),
        BenchEntry::new("reactor_p95_ns", pct(&lat, 0.95), "ns"),
        BenchEntry::new("reactor_p99_ns", pct(&lat, 0.99), "ns"),
        BenchEntry::new("reactor_wall_ns", elapsed.as_nanos() as f64, "ns"),
    ];
    if let Some(h) = registry.snapshot().histogram("serve.request_ns") {
        entries.push(BenchEntry::new(
            "reactor_server_request_p99_ns",
            h.percentile(0.99) as f64,
            "ns",
        ));
    }
    match write_snapshot("serve_reactor", &entries) {
        Ok(path) => println!("reactor snapshot: {}", path.display()),
        Err(e) => eprintln!("reactor snapshot not written: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
