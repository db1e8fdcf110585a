//! Integration tests for the packed-store staging tier: resumable
//! staging over a real journal on disk, whole-shard staging through a
//! real loopback TCP server, and a pipeline training through the staging
//! view while workers stage.

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::Op;
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_obs::Telemetry;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Pipeline, PipelineConfig, SampleSource};
use sciml_serve::{RemoteSource, ServeBuilder, ServerConfig};
use sciml_store::manifest::plan_by_count;
use sciml_store::{pack_store, PackConfig, ShardSource, Stager, StagerConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sciml_it_store_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Deterministic samples with distinct sizes, so byte accounting on the
/// backing source is exact.
fn samples(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| vec![i as u8; 50 + i]).collect()
}

/// A stager killed mid-run must resume from its journal: the restarted
/// run re-fetches only the shards that never completed, and the staged
/// result is byte-identical to the backing data.
#[test]
fn staging_resumes_without_refetching_completed_shards() {
    let n = 12usize;
    let blobs = samples(n);
    let dir = tmp_dir("resume");
    let plans = plan_by_count(n as u64, 2); // 6 shards of 2 samples

    // First run: stage exactly three shards, then "die" (drop the
    // stager without finishing). stage_one is synchronous, so the kill
    // point is deterministic.
    {
        let stager = Stager::new(
            Arc::new(VecSource::new(blobs.clone())),
            plans.clone(),
            &dir,
            StagerConfig::default(),
        )
        .unwrap();
        for expected_id in 0..3u32 {
            assert_eq!(stager.stage_one().unwrap(), Some(expected_id));
        }
        assert_eq!(stager.progress().staged_shards, 3);
    }

    // Restart over a FRESH backing source so bytes_read measures only
    // what the resumed run fetches.
    let backing = Arc::new(VecSource::new(blobs.clone()));
    let stager = Stager::new(
        Arc::clone(&backing) as Arc<dyn SampleSource>,
        plans,
        &dir,
        StagerConfig::default(),
    )
    .unwrap();
    let resumed = stager.progress();
    assert_eq!(resumed.staged_shards, 3, "journal replay trusts 3 shards");

    let progress = stager.run().unwrap();
    assert!(progress.complete());

    // Only samples 6..12 (the three unstaged shards) may have been
    // fetched from the backing source — not one byte more.
    let expected: u64 = (6..n).map(|i| 50 + i as u64).sum();
    assert_eq!(
        backing.bytes_read(),
        expected,
        "resumed run must not re-fetch completed shards"
    );

    // The staged copy serves every sample byte-identical to the
    // original, both through the staging view and as a plain store.
    let via_staging = stager.source();
    let via_store = ShardSource::open(&dir).unwrap();
    for (i, blob) in blobs.iter().enumerate() {
        assert_eq!(&via_staging.fetch(i).unwrap(), blob);
        assert_eq!(&via_store.fetch(i).unwrap(), blob);
    }
    assert_eq!(via_store.verify().unwrap(), n as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal whose staged files were corrupted on disk is not trusted:
/// the damaged shard stages again, the intact ones do not.
#[test]
fn corrupted_staged_shard_is_restaged_on_resume() {
    let n = 6usize;
    let blobs = samples(n);
    let dir = tmp_dir("corrupt_resume");
    let plans = plan_by_count(n as u64, 2);
    {
        let stager = Stager::new(
            Arc::new(VecSource::new(blobs.clone())),
            plans.clone(),
            &dir,
            StagerConfig::default(),
        )
        .unwrap();
        assert!(stager.run().unwrap().complete());
    }
    // Flip a byte in shard 1's file.
    let victim = dir.join("shard_000001.sshard");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();

    let backing = Arc::new(VecSource::new(blobs.clone()));
    let stager = Stager::new(
        Arc::clone(&backing) as Arc<dyn SampleSource>,
        plans,
        &dir,
        StagerConfig::default(),
    )
    .unwrap();
    assert_eq!(stager.progress().staged_shards, 2, "corrupt shard dropped");
    assert!(stager.run().unwrap().complete());
    // Only the corrupted shard's samples (2 and 3) were re-fetched.
    assert_eq!(backing.bytes_read(), (50 + 2) + (50 + 3));
    let store = ShardSource::open(&dir).unwrap();
    for (i, blob) in blobs.iter().enumerate() {
        assert_eq!(&store.fetch(i).unwrap(), blob);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Full disaggregated flow: pack a store, serve it over loopback TCP,
/// stage it on the "client node" using the server's exported shard
/// plan, and verify the staged copy byte-for-byte.
#[test]
fn staging_through_loopback_serve_matches_backing_bytes() {
    let n = 10usize;
    let blobs = samples(n);
    let store_dir = tmp_dir("serve_pack");
    let staged_dir = tmp_dir("serve_staged");

    let manifest = pack_store(
        &VecSource::new(blobs.clone()),
        &store_dir,
        PackConfig {
            target_shard_bytes: 200, // force several shards
            ..PackConfig::default()
        },
    )
    .unwrap();
    assert!(manifest.shards.len() > 1);

    let server = ServeBuilder::new()
        .config(ServerConfig {
            cache_bytes: 16 << 20,
            ..ServerConfig::default()
        })
        .dataset_store("packed", Arc::new(ShardSource::open(&store_dir).unwrap()))
        .bind("127.0.0.1:0")
        .expect("bind loopback");

    let remote = RemoteSource::connect(server.local_addr().to_string(), "packed").expect("connect");
    let plans: Vec<_> = remote.plan().shards.iter().map(|a| a.plan).collect();
    assert_eq!(
        plans,
        manifest.plans(),
        "server exports the store's real shard boundaries"
    );

    let stager = Stager::new(
        Arc::new(remote),
        plans,
        &staged_dir,
        StagerConfig {
            workers: 3,
            ..StagerConfig::default()
        },
    )
    .unwrap();
    stager.spawn_workers();
    assert!(stager.join().unwrap().complete());
    server.shutdown();

    // The node-local copy is a complete, self-verifying packed store.
    let staged = ShardSource::open(&staged_dir).unwrap();
    assert_eq!(staged.verify().unwrap(), n as u64);
    for (i, blob) in blobs.iter().enumerate() {
        assert_eq!(&staged.fetch(i).unwrap(), blob);
    }
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&staged_dir).ok();
}

/// A pipeline trains through `Stager::source()` while the workers stage:
/// every sample arrives once, and the workers still drain every planned
/// shard into the journaled directory.
#[test]
fn pipeline_trains_through_a_live_stager() {
    let mut cfg = CosmoFlowConfig::test_small();
    cfg.grid = 8;
    let b = DatasetBuilder::cosmoflow(cfg);
    let blobs = b.build(6, EncodedFormat::Custom);
    let dir = tmp_dir("live");
    let telemetry = Telemetry::new();
    let stager = Stager::with_telemetry(
        Arc::new(VecSource::new(blobs)),
        plan_by_count(6, 2),
        &dir,
        StagerConfig::default(),
        telemetry.clone(),
    )
    .unwrap();
    stager.spawn_workers();
    let p = Pipeline::launch_with(
        Arc::new(stager.source()),
        b.plugin(EncodedFormat::Custom, Op::Log1p),
        PipelineConfig {
            batch_size: 2,
            epochs: 1,
            ..Default::default()
        },
        telemetry.clone(),
    )
    .unwrap();
    let (batches, stats) = p.collect_all().unwrap();
    assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), 6);
    assert_eq!(stats.sample_count(), 6);
    // Workers drain the three planned shards and exit on their own.
    let progress = stager.join().unwrap();
    assert!(progress.complete(), "staging finished: {progress:?}");
    assert!(dir.join("staging.journal").is_file());
    assert!(dir.join("shard_000000.sshard").is_file());
    let snap = telemetry.registry.snapshot();
    assert_eq!(snap.counter("store.staging.shards_staged"), 3);
    std::fs::remove_dir_all(&dir).ok();
}
