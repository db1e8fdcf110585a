//! Loopback integration tests for the disaggregated serving tier: a
//! real TCP server on 127.0.0.1 behind a real multi-threaded pipeline.

use sciml_codec::Op;
use sciml_core::api::{DatasetBuilder, EncodedFormat};
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Pipeline, PipelineConfig, SampleSource};
use sciml_serve::{ClientConfig, RemoteSource, ServeBuilder, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

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
    let plugin = builder.plugin(EncodedFormat::Custom, None, Op::Log1p);

    let local_pipeline =
        Pipeline::launch(Arc::new(VecSource::new(blobs)), plugin.clone(), cfg.clone())
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
    let stats = remote.server_stats().expect("stats");
    assert_eq!(stats.cache_misses, n as u64, "first epoch should miss");
    assert!(
        stats.cache_hits >= n as u64,
        "second epoch should be served from the hot cache (hits = {})",
        stats.cache_hits
    );
    assert_eq!(stats.samples_served, 2 * n as u64);
    assert!(stats.bytes_sent > 0);
    assert!(stats.request_ns > 0);

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
    let plugin = builder.plugin(EncodedFormat::Custom, None, Op::Log1p);

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
