//! Cluster-mode integration test: a 3-node loopback cluster loses one
//! node while a `stage` run is in progress. The replica-failover client
//! must finish the stage with byte-identical output and account for the
//! failovers it performed.

use sciml_obs::MetricsRegistry;
use sciml_pipeline::SampleSource;
use sciml_serve::{ClientConfig, ClusterConfig, ClusterSource, ServeBuilder, ServerHandle};
use sciml_store::{ShardPlan, ShardSource, Stager, StagerConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sciml_it_cluster_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Deterministic, index-tagged samples so corruption or misrouting is
/// caught byte-for-byte.
fn samples(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut b = vec![(i % 251) as u8; 96];
            b[..8].copy_from_slice(&(i as u64).to_le_bytes());
            b
        })
        .collect()
}

/// A source with a small per-fetch delay, giving the staging run a
/// guaranteed minimum duration so the node kill lands mid-stage.
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

/// Discovers `n` distinct free loopback ports by binding ephemeral
/// listeners, then releases them for the cluster nodes to claim.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// Staging through a 3-node cluster survives losing a node mid-run:
/// the staged store is byte-identical to the backing data and the
/// `serve.client.failover` counter records the reroutes.
#[test]
fn stage_survives_node_death_with_byte_identical_output() {
    let n = 256usize;
    let data = samples(n);
    let addrs = reserve_addrs(3);
    let out = tmp_dir("failover");

    // Every node serves the same dataset (as replicated cluster members
    // would), each fetch taking ~3 ms so the full 256-sample stage runs
    // long enough for the kill to land while shards are still staging.
    let servers: Vec<ServerHandle> = addrs
        .iter()
        .map(|addr| {
            ServeBuilder::new()
                .dataset(
                    "demo",
                    Arc::new(SlowSource {
                        blobs: data.clone(),
                        delay: Duration::from_millis(3),
                    }) as Arc<dyn SampleSource>,
                )
                .cluster(ClusterConfig {
                    nodes: addrs.clone(),
                    replication: 2,
                })
                .bind(addr.clone())
                .expect("bind cluster node")
        })
        .collect();

    // Tight client budget: a dead node should cost one quick failed
    // attempt per routed fetch, not a long retry ladder.
    let registry = MetricsRegistry::new();
    let cfg = ClientConfig {
        max_attempts: 2,
        initial_backoff: Duration::from_millis(10),
        read_timeout: Duration::from_secs(5),
        ..ClientConfig::default()
    };
    let src = Arc::new(
        ClusterSource::connect_with_registry(addrs[0].clone(), "demo", cfg, Arc::clone(&registry))
            .expect("connect cluster"),
    );
    assert_eq!(src.len(), n);
    let plan = src.plan().clone();
    assert!(
        plan.shards.len() >= 3,
        "need several shards for a meaningful placement, got {}",
        plan.shards.len()
    );

    // Kill the primary of the *last* shard shortly after staging
    // starts: with one stager worker the per-fetch delay guarantees
    // that shard is still unstaged when its primary dies, so finishing
    // it must fail over to the surviving replica.
    let victim = plan.shards.last().expect("shards").replicas[0] as usize;
    let mut victim_handle = None;
    let mut survivors = Vec::new();
    for (i, s) in servers.into_iter().enumerate() {
        if i == victim {
            victim_handle = Some(s);
        } else {
            survivors.push(s);
        }
    }
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        if let Some(s) = victim_handle {
            s.shutdown();
        }
    });

    let plans: Vec<ShardPlan> = plan.shards.iter().map(|a| a.plan).collect();
    let stager = Stager::new(
        Arc::clone(&src) as Arc<dyn SampleSource>,
        plans,
        &out,
        StagerConfig {
            workers: 1,
            ..StagerConfig::default()
        },
    )
    .expect("stager");
    stager.spawn_workers();
    let progress = stager.join().expect("stage through node death");
    killer.join().expect("killer thread");

    assert_eq!(progress.failed_shards, 0, "no shard may fail permanently");
    assert_eq!(progress.staged_shards, progress.total_shards);
    assert!(
        src.failovers() > 0,
        "killing the last shard's primary must force at least one failover"
    );
    assert_eq!(
        registry.snapshot().counter("serve.client.failover"),
        src.failovers(),
        "failovers must be visible in the shared registry"
    );

    // The staged store is byte-identical to the backing data.
    let staged = ShardSource::open(&out).expect("open staged store");
    assert_eq!(staged.len(), n);
    for (i, expected) in data.iter().enumerate() {
        assert_eq!(
            &staged.fetch(i).expect("staged fetch"),
            expected,
            "staged sample {i} diverged"
        );
    }
    staged.verify().expect("staged store CRC check");

    for s in survivors {
        s.shutdown();
    }
    std::fs::remove_dir_all(&out).ok();
}
