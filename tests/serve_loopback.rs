//! Loopback integration tests for the disaggregated serving tier: a
//! real TCP server on 127.0.0.1 behind a real multi-threaded pipeline.

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::Op;
use sciml_compress::crc32::crc32;
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_pipeline::source::{Stored, VecSource};
use sciml_pipeline::{Pipeline, PipelineConfig, PipelineError, SampleSource};
use sciml_serve::protocol::{encode_frame, write_message, ErrorCode, Message};
use sciml_serve::{
    ClientConfig, ProtocolError, RemoteSource, ServeBuilder, ServerConfig, PROTOCOL_VERSION,
};
use sciml_store::{pack_store, EncodingChoice, PackConfig, ShardSource};
use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sciml_loopback_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A greeted raw connection, for reading replies byte for byte.
fn raw_client(addr: std::net::SocketAddr) -> TcpStream {
    let mut c = TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
    };
    assert!(matches!(raw_call(&mut c, &hello)[4], 0x02), "HelloAck");
    c
}

/// Sends `request`, returns the reply frame exactly as it came off the
/// socket: length, payload, CRC.
fn raw_call(c: &mut TcpStream, request: &Message) -> Vec<u8> {
    write_message(c, request).unwrap();
    let mut frame = vec![0u8; 4];
    c.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len + 4, 0);
    c.read_exact(&mut frame[4..]).unwrap();
    frame
}

fn dataset(n: usize) -> (DatasetBuilder, Vec<Vec<u8>>) {
    let mut cfg = CosmoFlowConfig::test_small();
    cfg.grid = 12;
    let builder = DatasetBuilder::cosmoflow(cfg);
    let blobs = builder.build(n, EncodedFormat::Custom);
    (builder, blobs)
}

fn serve(blobs: Vec<Vec<u8>>) -> sciml_serve::ServerHandle {
    ServeBuilder::new()
        .config(ServerConfig {
            cache_bytes: 64 << 20,
            ..ServerConfig::default()
        })
        .dataset(
            "cosmo",
            Arc::new(VecSource::new(blobs)) as Arc<dyn SampleSource>,
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback")
}

/// Splits each batch back into `(epoch, index) -> decoded sample
/// bytes` for order-independent comparison (batch composition depends
/// on worker arrival order, which is intentionally concurrent).
fn per_sample(
    batches: &[sciml_pipeline::Batch],
) -> std::collections::BTreeMap<(usize, usize), Vec<sciml_half::F16>> {
    let mut map = std::collections::BTreeMap::new();
    for b in batches {
        for (k, &idx) in b.indices.iter().enumerate() {
            let sample = b.data[k * b.sample_len..(k + 1) * b.sample_len].to_vec();
            let prev = map.insert((b.epoch, idx), sample);
            assert!(
                prev.is_none(),
                "sample {idx} delivered twice in epoch {}",
                b.epoch
            );
        }
    }
    map
}

/// A full pipeline run over a `RemoteSource` must deliver every sample
/// exactly once per epoch, decoded byte-identical to the same pipeline
/// over the local source, and the second epoch must be served from the
/// server's DRAM hot cache.
#[test]
fn remote_epoch_matches_local_and_hits_cache() {
    let n = 12usize;
    let (builder, blobs) = dataset(n);
    let server = serve(blobs.clone());

    let remote =
        Arc::new(RemoteSource::connect(server.local_addr().to_string(), "cosmo").expect("connect"));
    assert_eq!(remote.len(), n);

    let cfg = PipelineConfig {
        batch_size: 4,
        epochs: 2,
        seed: 42,
        ..PipelineConfig::default()
    };
    let plugin = builder.plugin(EncodedFormat::Custom, Op::Log1p);

    let local_pipeline = Pipeline::launch(
        Arc::new(VecSource::new(blobs.clone())),
        plugin.clone(),
        cfg.clone(),
    )
    .expect("local pipeline");
    let (local_batches, _) = local_pipeline.collect_all().expect("local epochs");

    let remote_pipeline = Pipeline::launch(remote.clone() as Arc<dyn SampleSource>, plugin, cfg)
        .expect("remote pipeline");
    let (remote_batches, _) = remote_pipeline.collect_all().expect("remote epochs");

    // Exactly once per epoch: 2 epochs * n samples in total, and
    // per_sample() panics on any duplicate within an epoch.
    let delivered: usize = remote_batches.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, 2 * n);

    let local = per_sample(&local_batches);
    let remote_samples = per_sample(&remote_batches);
    assert_eq!(local.len(), 2 * n);
    assert_eq!(
        local, remote_samples,
        "remote-decoded samples diverged from local"
    );

    // Epoch 1 misses (cold), epoch 2 hits the server-side hot cache.
    let stats = server.stats();
    assert_eq!(stats.cache_misses, n as u64, "first epoch should miss");
    assert!(
        stats.cache_hits >= n as u64,
        "second epoch should be served from the hot cache (hits = {})",
        stats.cache_hits
    );
    assert_eq!(stats.samples_served, 2 * n as u64);
    assert!(stats.bytes_sent > 0);
    assert!(stats.request_ns > 0);

    // From the hot cache, a batched fetch answers every index it names,
    // whatever the batch size.
    let all: Vec<u64> = (0..n as u64).collect();
    for size in [1, 4, n] {
        let fetched: Vec<Vec<u8>> = all
            .chunks(size)
            .flat_map(|chunk| remote.fetch_batch(chunk).expect("batched fetch"))
            .collect();
        assert_eq!(fetched, blobs, "batches of {size}");
    }

    server.shutdown();
}

/// With one reader and one decoder the pipeline is fully deterministic,
/// so the remote run must be batch-for-batch identical to the local
/// run, labels and all.
#[test]
fn remote_single_threaded_run_is_batch_identical() {
    let n = 8usize;
    let (builder, blobs) = dataset(n);
    let server = serve(blobs.clone());
    let remote =
        Arc::new(RemoteSource::connect(server.local_addr().to_string(), "cosmo").expect("connect"));

    let cfg = PipelineConfig {
        batch_size: 3, // exercises the short tail batch too
        reader_threads: 1,
        decode_threads: 1,
        epochs: 1,
        seed: 7,
        ..PipelineConfig::default()
    };
    let plugin = builder.plugin(EncodedFormat::Custom, Op::Log1p);

    let (local_batches, _) =
        Pipeline::launch(Arc::new(VecSource::new(blobs)), plugin.clone(), cfg.clone())
            .expect("local pipeline")
            .collect_all()
            .expect("local epoch");
    let (remote_batches, _) = Pipeline::launch(remote as Arc<dyn SampleSource>, plugin, cfg)
        .expect("remote pipeline")
        .collect_all()
        .expect("remote epoch");

    assert_eq!(local_batches.len(), remote_batches.len());
    for (l, r) in local_batches.iter().zip(&remote_batches) {
        assert_eq!(l.indices, r.indices);
        assert_eq!(l.data, r.data, "remote batch diverged from local");
        assert_eq!(l.labels, r.labels);
        assert_eq!(l.epoch, r.epoch);
    }
    server.shutdown();
}

/// Raw fetches through the trait must be byte-identical to the blobs
/// the server was loaded with.
#[test]
fn remote_fetch_is_byte_identical() {
    let n = 6usize;
    let (_, blobs) = dataset(n);
    let server = serve(blobs.clone());
    let remote = RemoteSource::connect(server.local_addr().to_string(), "cosmo").expect("connect");
    for (i, blob) in blobs.iter().enumerate() {
        assert_eq!(&remote.fetch(i).expect("fetch"), blob, "sample {i}");
    }
    assert_eq!(
        remote.bytes_read(),
        blobs.iter().map(|b| b.len() as u64).sum::<u64>()
    );
    server.shutdown();
}

/// Killing the first server mid-epoch and bringing a new one up on the
/// same address must be absorbed by the client's retry-with-backoff:
/// the reader sees every sample, none duplicated, no error surfaced.
#[test]
fn client_retry_recovers_from_dropped_connection() {
    let n = 8usize;
    let (_, blobs) = dataset(n);

    // First server on an OS-assigned port.
    let server = serve(blobs.clone());
    let addr = server.local_addr();
    let client_cfg = ClientConfig {
        max_attempts: 10,
        initial_backoff: Duration::from_millis(25),
        ..ClientConfig::default()
    };
    let remote =
        RemoteSource::connect_with(addr.to_string(), "cosmo", client_cfg).expect("connect");

    // First half of the epoch against the first server.
    let mut fetched = Vec::new();
    for i in 0..n / 2 {
        fetched.push(remote.fetch(i).expect("fetch pre-drop"));
    }

    // Drop the server: pooled connections die, the port goes dark.
    server.shutdown();

    // Restart on the same port in the background while the client is
    // already retrying. The retry budget (10 attempts, 25 ms backoff
    // doubling) comfortably covers the rebind window.
    let blobs_for_restart = blobs.clone();
    let restarter = std::thread::spawn(move || {
        // Small delay so the client provably observes the outage first.
        std::thread::sleep(Duration::from_millis(60));
        ServeBuilder::new()
            .dataset(
                "cosmo",
                Arc::new(VecSource::new(blobs_for_restart)) as Arc<dyn SampleSource>,
            )
            .bind(addr.to_string())
            .expect("rebind same port")
    });

    for i in n / 2..n {
        fetched.push(remote.fetch(i).expect("fetch post-drop (should retry)"));
    }
    assert!(
        remote.retries() > 0,
        "the outage must have been bridged by retries"
    );
    assert_eq!(fetched.len(), n);
    for (i, blob) in blobs.iter().enumerate() {
        assert_eq!(&fetched[i], blob, "sample {i} corrupted across the outage");
    }

    restarter.join().expect("restarter").shutdown();
}

/// Admission control: with a 1-worker, 1-slot server, a wave of extra
/// connections is rejected with a typed `Busy` error, not a hang.
#[test]
fn admission_limit_rejects_excess_connections() {
    let n = 4usize;
    let (_, blobs) = dataset(n);
    let server = ServeBuilder::new()
        .config(ServerConfig {
            workers: 1,
            max_connections: 1,
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        })
        .dataset(
            "cosmo",
            Arc::new(VecSource::new(blobs)) as Arc<dyn SampleSource>,
        )
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    // Occupy the single admission slot with a live connection.
    let holder = RemoteSource::connect(addr.to_string(), "cosmo").expect("first connect");
    let _ = holder.fetch(0).expect("holder works");

    // The holder's pooled connection keeps the slot; new connections
    // beyond the limit must be turned away quickly with Busy. Retries
    // are capped so the test finishes fast either way.
    let cfg = ClientConfig {
        max_attempts: 2,
        initial_backoff: Duration::from_millis(5),
        ..ClientConfig::default()
    };
    let mut rejected = 0;
    for _ in 0..4 {
        if RemoteSource::connect_with(addr.to_string(), "cosmo", cfg.clone()).is_err() {
            rejected += 1;
        }
    }
    assert!(
        server.rejected_connections() > 0 && rejected > 0,
        "admission limit never engaged"
    );
    server.shutdown();
}

/// Five samples that `Auto` stores both ways — runs (gzip) and noise
/// (raw) — and an empty one: 3 000, 5 000, 7 000, 0 and 2 000 bytes.
fn wire_samples() -> Vec<Vec<u8>> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut noise = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    };
    let runs =
        |len: usize, seed: u8| -> Vec<u8> { (0..len).map(|j| seed ^ (j / 300) as u8).collect() };
    vec![
        runs(3000, 1),
        noise(5000),
        runs(7000, 2),
        Vec::new(),
        noise(2000),
    ]
}

/// Every `Samples` reply the server sends, gathered from the cache's
/// entries and the shard reads' buffers, is `encode_frame` of the same
/// message byte for byte — for a plain in-memory dataset, a raw store
/// and an `Auto` store (gzip entries among raw ones), at 0, 1 and 3
/// indices, all missing the cache, all hitting it and mixed, with an
/// empty sample among them; and the refusals are still typed frames.
#[test]
fn gathered_replies_are_encode_frame_byte_for_byte() {
    let samples = wire_samples();
    let mut dirs = Vec::new();
    let mut builder = ServeBuilder::new()
        .config(ServerConfig {
            // Room for samples 0 and 1 (and the empty 3), not for 2.
            cache_bytes: 8000,
            ..ServerConfig::default()
        })
        .dataset("vec", Arc::new(VecSource::new(samples.clone())) as _);
    for encoding in [EncodingChoice::Raw, EncodingChoice::Auto] {
        let dir = tmp_dir(&format!("wire_{encoding}"));
        let pack = PackConfig {
            target_shard_bytes: 9000,
            encoding,
            ..PackConfig::default()
        };
        pack_store(&VecSource::new(samples.clone()), &dir, pack).unwrap();
        let store = Arc::new(ShardSource::open(&dir).unwrap());
        let mut buf = Vec::new();
        let gzipped = (0..samples.len())
            .filter(|&i| {
                let stored = store.fetch_stored_into(i, &mut buf).unwrap();
                stored.unwrap().unpack.is_some()
            })
            .count();
        assert_eq!(gzipped > 0, encoding == EncodingChoice::Auto, "{encoding}");
        builder = builder.dataset_store(encoding.to_string(), store);
        dirs.push(dir);
    }
    let server = builder.bind("127.0.0.1:0").expect("bind");
    let mut c = raw_client(server.local_addr());
    let mut cache = (0, 0);
    for name in ["vec", "raw", "auto"] {
        // (indices, cache hits, cache misses) of each request in turn.
        let script: [(&[u64], u64, u64); 6] = [
            (&[0, 1, 2], 0, 3),
            (&[1, 0], 2, 0),
            (&[2, 0, 2], 1, 2),
            (&[3], 0, 1),
            (&[3], 1, 0),
            (&[], 0, 0),
        ];
        for (indices, hits, misses) in script {
            let request = Message::FetchSamples {
                name: name.into(),
                indices: indices.to_vec(),
            };
            let want: Vec<Vec<u8>> = indices
                .iter()
                .map(|&i| samples[i as usize].clone())
                .collect();
            assert!(
                raw_call(&mut c, &request) == encode_frame(&Message::Samples(want)),
                "{name} {indices:?}"
            );
            let stats = server.stats();
            cache = (cache.0 + hits, cache.1 + misses);
            assert_eq!(
                (stats.cache_hits, stats.cache_misses),
                cache,
                "{name} {indices:?}"
            );
        }
        // Refusals: a bad index among good ones, no such dataset.
        for (request, code) in [
            (
                Message::FetchSamples {
                    name: name.into(),
                    indices: vec![5, 0],
                },
                ErrorCode::IndexOutOfRange,
            ),
            (
                Message::FetchSamples {
                    name: format!("{name}-missing"),
                    indices: vec![0],
                },
                ErrorCode::UnknownDataset,
            ),
        ] {
            let reply = sciml_serve::protocol::decode_frame(&raw_call(&mut c, &request));
            assert!(
                matches!(&reply, Ok((Message::Error { code: got, .. }, _)) if *got == code),
                "{name}: {reply:?}"
            );
        }
    }
    server.shutdown();
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A source that hands samples over as raw stored entries under a CRC
/// their bytes do not have — what a resident entry damaged in RAM looks
/// like to the server.
struct LyingSource(VecSource);

impl SampleSource for LyingSource {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        self.0.fetch_into(idx, buf)
    }

    fn fetch_stored_into(
        &self,
        idx: usize,
        buf: &mut Vec<u8>,
    ) -> sciml_pipeline::Result<Option<Stored>> {
        self.0.fetch_into(idx, buf)?;
        Ok(Some(Stored {
            encoding: 0,
            raw_len: buf.len() as u32,
            crc32: crc32(buf) ^ 0x0400_0000,
            unpack: None,
        }))
    }

    fn bytes_read(&self) -> u64 {
        self.0.bytes_read()
    }
}

/// The server checksums no sample byte after it is read: it trusts the
/// CRC each sample came with, so a wrong one reaches the client in the
/// frame trailer, where the frame check turns it into a typed `BadCrc`
/// after the retries — never into a delivered sample — whether the
/// entry was read for the fetch or is resident in the cache.
#[test]
fn a_sample_under_a_wrong_crc_reaches_the_client_as_bad_crc() {
    let samples = wire_samples();
    for cache_bytes in [0, u64::MAX] {
        let server = ServeBuilder::new()
            .config(ServerConfig {
                cache_bytes,
                ..ServerConfig::default()
            })
            .dataset(
                "liar",
                Arc::new(LyingSource(VecSource::new(samples.clone()))) as _,
            )
            .bind("127.0.0.1:0")
            .expect("bind");
        let cfg = ClientConfig {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let remote = RemoteSource::connect_with(server.local_addr().to_string(), "liar", cfg)
            .expect("connect");
        let mut buf = vec![0xEE; 64];
        for idx in 0..samples.len() {
            let err = remote.fetch_into(idx, &mut buf).expect_err("a wrong CRC");
            let PipelineError::Remote(inner) = &err else {
                panic!("{cache_bytes}: sample {idx}: {err:?}");
            };
            assert!(
                matches!(inner.downcast_ref(), Some(ProtocolError::BadCrc { .. })),
                "{cache_bytes}: sample {idx}: {err}"
            );
            assert!(buf.is_empty(), "nothing delivered");
            let batch = remote.fetch_batch(&[idx as u64]).expect_err("batch too");
            assert!(batch.to_string().contains("CRC mismatch"), "{batch}");
        }
        // Three attempts each, both ways of asking.
        assert_eq!(remote.retries(), 2 * 2 * samples.len() as u64);
        let stats = server.stats();
        if cache_bytes > 0 {
            assert_eq!(stats.cache_misses, samples.len() as u64, "then resident");
        }
        server.shutdown();
    }
}

/// A remote epoch over an `Auto` store — the server's cache unpacking
/// its gzip entries on a miss, then CRC'ing them once — decodes exactly
/// as the same pipeline over the local store.
#[test]
fn remote_epoch_over_an_auto_store_matches_local() {
    let n = 10usize;
    let (builder, blobs) = dataset(n);
    let dir = tmp_dir("auto_epoch");
    let pack = PackConfig {
        target_shard_bytes: 3 * blobs[0].len() as u64,
        encoding: EncodingChoice::Auto,
        ..PackConfig::default()
    };
    pack_store(&VecSource::new(blobs), &dir, pack).unwrap();
    let store = Arc::new(ShardSource::open(&dir).unwrap());
    let mut buf = Vec::new();
    let gzipped = (0..n)
        .filter(|&i| {
            let stored = store.fetch_stored_into(i, &mut buf).unwrap();
            stored.unwrap().unpack.is_some()
        })
        .count();
    assert!(gzipped > 0, "Auto gzipped none of the {n} entries");
    let server = ServeBuilder::new()
        .config(ServerConfig {
            // Half the set resident: hits and misses in both epochs.
            cache_bytes: store.manifest().shards.iter().map(|s| s.bytes).sum::<u64>() / 2,
            ..ServerConfig::default()
        })
        .dataset_store("auto", store.clone())
        .bind("127.0.0.1:0")
        .expect("bind");
    let remote =
        Arc::new(RemoteSource::connect(server.local_addr().to_string(), "auto").expect("connect"));
    let cfg = PipelineConfig {
        batch_size: 3,
        epochs: 2,
        seed: 11,
        ..PipelineConfig::default()
    };
    let plugin = builder.plugin(EncodedFormat::Custom, Op::Log1p);
    let (local, _) = Pipeline::launch(store as Arc<dyn SampleSource>, plugin.clone(), cfg.clone())
        .expect("local pipeline")
        .collect_all()
        .expect("local epochs");
    let (over_wire, _) = Pipeline::launch(remote.clone() as Arc<dyn SampleSource>, plugin, cfg)
        .expect("remote pipeline")
        .collect_all()
        .expect("remote epochs");
    assert_eq!(per_sample(&local), per_sample(&over_wire));
    let stats = server.stats();
    assert!(
        stats.cache_hits > 0 && stats.cache_misses > n as u64,
        "{stats:?}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
