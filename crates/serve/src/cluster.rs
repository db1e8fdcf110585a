//! Cluster-aware client: shard-routed fetches with replica failover.
//!
//! A [`ClusterSource`] dials one seed node, takes the dataset's
//! [`ClusterPlan`] (node list + per-shard replica sets, computed by
//! consistent hashing on the server side) from the seed's connect, and
//! then routes every fetch to the shard's primary replica. When a
//! replica fails — connect refused, timeout, corrupt reply — the fetch
//! falls over to the next replica in the set and the
//! `serve.client.failover` counter ticks, so a dying node costs
//! retries, not an epoch. Per-node connections are
//! pooled by the underlying [`RemoteSource`]s and re-dialed lazily
//! after a failure.

use crate::client::{ClientConfig, RemoteSource};
use parking_lot::Mutex;
use sciml_obs::{Counter, MetricsRegistry};
use sciml_pipeline::{PipelineError, SampleSource};
use sciml_store::ClusterPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`SampleSource`] spanning a serve cluster: fetches are routed to
/// each shard's replicas with automatic failover.
pub struct ClusterSource {
    name: String,
    cfg: ClientConfig,
    plan: ClusterPlan,
    /// Lazily dialed per-node sources, indexed like `plan.nodes`. An
    /// entry is cleared when its node fails, so the next fetch that
    /// routes there re-dials instead of reusing poisoned pool state.
    nodes: Vec<Mutex<Option<Arc<RemoteSource>>>>,
    len: usize,
    read: AtomicU64,
    registry: Arc<MetricsRegistry>,
    /// Fetches that fell over to another replica after a failure
    /// (`serve.client.failover`).
    failover_count: Arc<Counter>,
}

impl ClusterSource {
    /// Dials `seed` (any cluster member; a server without cluster
    /// config is a cluster of one), takes `dataset`'s placement from
    /// that connect, and prepares routed access to every node.
    pub fn connect(
        seed: impl Into<String>,
        dataset: impl Into<String>,
    ) -> Result<Self, PipelineError> {
        Self::connect_with_registry(
            seed,
            dataset,
            ClientConfig::default(),
            MetricsRegistry::new(),
        )
    }

    /// [`ClusterSource::connect`] with explicit client tuning (applied
    /// to the seed dial and every per-node connection), registering the
    /// client's counters (including `serve.client.failover`) in
    /// `registry`.
    pub fn connect_with_registry(
        seed: impl Into<String>,
        dataset: impl Into<String>,
        cfg: ClientConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self, PipelineError> {
        let seed = seed.into();
        let name = dataset.into();
        let seed_source = Arc::new(RemoteSource::connect_with_registry(
            seed.clone(),
            name.clone(),
            cfg.clone(),
            Arc::clone(&registry),
        )?);
        // Validated by the seed's connect: its shards tile [0, len).
        let plan = seed_source.plan().clone();
        let len = seed_source.len();
        let nodes: Vec<Mutex<Option<Arc<RemoteSource>>>> = plan
            .nodes
            .iter()
            .map(|addr| {
                // Reuse the seed connection for its own slot.
                Mutex::new((*addr == seed).then(|| Arc::clone(&seed_source)))
            })
            .collect();
        Ok(Self {
            name,
            cfg,
            plan,
            nodes,
            len,
            read: AtomicU64::new(0),
            failover_count: registry.counter("serve.client.failover"),
            registry,
        })
    }

    /// The placement this source routes by.
    pub fn plan(&self) -> &ClusterPlan {
        &self.plan
    }

    /// Fetches that fell over to another replica so far.
    pub fn failovers(&self) -> u64 {
        self.failover_count.get()
    }

    /// The registry holding this client's counters.
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The node source for replica `r`, dialing it on first use (or
    /// after [`ClusterSource::invalidate`]).
    fn node_source(&self, r: u16) -> Result<Arc<RemoteSource>, PipelineError> {
        let Some(slot) = self.nodes.get(r as usize) else {
            return Err(PipelineError::Remote(
                format!("replica index {r} out of range").into(),
            ));
        };
        if let Some(src) = slot.lock().as_ref() {
            return Ok(Arc::clone(src));
        }
        // Dial outside the slot lock so a slow node cannot serialize
        // unrelated fetches; last dial wins the slot.
        let addr = &self.plan.nodes[r as usize];
        let src = Arc::new(RemoteSource::connect_with_registry(
            addr.clone(),
            self.name.clone(),
            self.cfg.clone(),
            Arc::clone(&self.registry),
        )?);
        *slot.lock() = Some(Arc::clone(&src));
        Ok(src)
    }

    /// Forgets the cached connection pool for node `r` after a failure.
    fn invalidate(&self, r: u16) {
        if let Some(slot) = self.nodes.get(r as usize) {
            *slot.lock() = None;
        }
    }
}

impl std::fmt::Debug for ClusterSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSource")
            .field("dataset", &self.name)
            .field("nodes", &self.plan.nodes)
            .field("replication", &self.plan.replication)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl SampleSource for ClusterSource {
    fn len(&self) -> usize {
        self.len
    }

    /// Fetches `idx` from its shard's replicas, failing over in order.
    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        let Some(assignment) = self.plan.locate(idx as u64) else {
            return Err(PipelineError::Remote(
                format!("no shard in the cluster plan covers index {idx}").into(),
            ));
        };
        let replicas = &assignment.replicas;
        let mut last_err = None;
        for (k, &r) in replicas.iter().enumerate() {
            match self.node_source(r).and_then(|src| src.fetch_into(idx, buf)) {
                Ok(()) => {
                    self.read.fetch_add(buf.len() as u64, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) => {
                    self.invalidate(r);
                    if k + 1 < replicas.len() {
                        self.failover_count.inc();
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or(PipelineError::Remote(
            "shard has an empty replica set".into(),
        )))
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ClusterConfig, ServeBuilder, ServerHandle};
    use sciml_pipeline::source::VecSource;
    use std::net::TcpListener;

    /// Discovers `n` distinct free loopback ports by binding ephemeral
    /// listeners, then releases them for the servers to claim.
    fn reserve_addrs(n: usize) -> Vec<String> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect()
    }

    fn samples() -> Vec<Vec<u8>> {
        (0..32u8).map(|i| vec![i; 64]).collect()
    }

    fn spawn_cluster(addrs: &[String], replication: u16) -> Vec<ServerHandle> {
        addrs
            .iter()
            .map(|addr| {
                ServeBuilder::new()
                    .dataset("demo", Arc::new(VecSource::new(samples())))
                    .cluster(ClusterConfig {
                        nodes: addrs.to_vec(),
                        replication,
                    })
                    .bind(addr.clone())
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn routed_fetches_match_local_data() {
        let addrs = reserve_addrs(3);
        let servers = spawn_cluster(&addrs, 2);
        let src = ClusterSource::connect(addrs[0].clone(), "demo").unwrap();
        assert_eq!(src.len(), 32);
        assert_eq!(src.plan().nodes, addrs);
        for (i, expected) in samples().iter().enumerate() {
            assert_eq!(&src.fetch(i).unwrap(), expected, "sample {i}");
        }
        assert_eq!(src.failovers(), 0, "healthy cluster needs no failover");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn dead_replica_fails_over_and_counts() {
        let addrs = reserve_addrs(2);
        let servers = spawn_cluster(&addrs, 2);
        let cfg = ClientConfig {
            max_attempts: 1,
            read_timeout: std::time::Duration::from_secs(2),
            ..ClientConfig::default()
        };
        let src = ClusterSource::connect_with_registry(
            addrs[0].clone(),
            "demo",
            cfg,
            MetricsRegistry::new(),
        )
        .unwrap();
        // Kill the primary of the shard covering index 0; replication 2
        // guarantees the other node holds a replica of every shard.
        let primary = src.plan().locate(0).unwrap().replicas[0] as usize;
        let mut survivors = Vec::new();
        for (i, s) in servers.into_iter().enumerate() {
            if i == primary {
                s.shutdown();
            } else {
                survivors.push(s);
            }
        }
        for (i, expected) in samples().iter().enumerate() {
            assert_eq!(&src.fetch(i).unwrap(), expected, "sample {i}");
        }
        assert!(src.failovers() > 0, "the dead primary forces failover");
        assert_eq!(
            src.metrics_registry()
                .snapshot()
                .counter("serve.client.failover"),
            src.failovers()
        );
        for s in survivors {
            s.shutdown();
        }
    }
}
