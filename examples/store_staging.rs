//! Staged-dataset demo: the paper's node-local staging flow, end to
//! end on one machine.
//!
//! 1. generate an encoded CosmoFlow dataset and pack it into `.sshard`
//!    shards ("the parallel file system copy"),
//! 2. serve the packed store over loopback TCP ("the storage tier"),
//! 3. stage it shard-by-shard into a second local directory using the
//!    server's exported shard plan ("the compute node"), while a
//!    pipeline consumes the staging view — staged shards served
//!    locally, the rest fetched remotely,
//! 4. verify every staged sample byte-for-byte and print the staging
//!    metrics the telemetry layer collected.
//!
//! ```text
//! cargo run --example store_staging
//! ```
//!
//! The example is self-validating: any mismatch panics.

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_obs::{MetricsRegistry, Telemetry, Tracer};
use sciml_pipeline::source::VecSource;
use sciml_pipeline::SampleSource;
use sciml_serve::{RemoteSource, ServeBuilder, ServerConfig};
use sciml_store::{pack_store, PackConfig, ShardSource, Stager, StagerConfig};
use std::sync::Arc;

fn main() {
    let root = std::env::temp_dir().join(format!("sciml_store_demo_{}", std::process::id()));
    let store_dir = root.join("packed");
    let staged_dir = root.join("staged");
    std::fs::remove_dir_all(&root).ok();

    // 1. Generate and pack.
    let mut cfg = CosmoFlowConfig::test_small();
    cfg.grid = 16;
    let n = 24usize;
    let blobs = DatasetBuilder::cosmoflow(cfg).build(n, EncodedFormat::Custom);
    let total_bytes: usize = blobs.iter().map(Vec::len).sum();
    let manifest = pack_store(
        &VecSource::new(blobs.clone()),
        &store_dir,
        PackConfig {
            target_shard_bytes: (total_bytes / 6) as u64,
            ..PackConfig::default()
        },
    )
    .expect("pack store");
    println!(
        "packed {n} samples ({total_bytes} bytes) into {} shards",
        manifest.shards.len()
    );

    // 2. Serve the packed store over loopback.
    let server = ServeBuilder::new()
        .config(ServerConfig {
            cache_bytes: 64 << 20,
            ..ServerConfig::default()
        })
        .dataset_store(
            "cosmo",
            Arc::new(ShardSource::open(&store_dir).expect("open store")),
        )
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    println!("serving packed store on {}", server.local_addr());

    // 3. Stage on the "compute node", using the server's shard plan so
    //    fetches line up with the store's on-disk layout.
    let registry = MetricsRegistry::new();
    let telemetry = Telemetry {
        registry: Arc::clone(&registry),
        tracer: Tracer::disabled(),
    };
    let remote = RemoteSource::connect(server.local_addr().to_string(), "cosmo").expect("connect");
    let plans: Vec<_> = remote.plan().shards.iter().map(|a| a.plan).collect();
    assert_eq!(plans, manifest.plans(), "server exports real boundaries");
    let stager = Stager::with_telemetry(
        Arc::new(remote),
        plans,
        &staged_dir,
        StagerConfig {
            workers: 3,
            ..StagerConfig::default()
        },
        telemetry,
    )
    .expect("stager");
    stager.spawn_workers();

    // The training job does not wait for staging: the staging view
    // serves staged shards locally and falls through to the server.
    let view = stager.source();
    for (i, blob) in blobs.iter().enumerate() {
        assert_eq!(&view.fetch(i).expect("fetch via staging view"), blob);
    }
    let progress = stager.join().expect("staging");
    assert!(progress.complete());
    server.shutdown();

    // 4. The staged directory is now a complete packed store of its
    //    own: CRC-verify everything and compare byte-for-byte.
    let staged = ShardSource::open(&staged_dir).expect("open staged store");
    assert_eq!(staged.verify().expect("verify staged"), n as u64);
    for (i, blob) in blobs.iter().enumerate() {
        assert_eq!(&staged.fetch(i).expect("fetch staged"), blob);
    }

    let snap = registry.snapshot();
    println!(
        "staged {}/{} shards, {} bytes — local hits {}, fall-throughs {} during staging",
        progress.staged_shards,
        progress.total_shards,
        progress.staged_bytes,
        snap.counter("store.staging.local_hits"),
        snap.counter("store.staging.fallthrough"),
    );
    println!("OK — staged copy verified byte-for-byte against the source");
    std::fs::remove_dir_all(&root).ok();
}
