//! Consistent-hash placement of packed shards across serve nodes.
//!
//! Cluster mode spreads a store's `.sshard` shards over N serving
//! nodes so a training fleet fans its fetches out instead of funnelling
//! every node through one server. Placement must be *stable* — adding
//! or removing a node may move only the shards adjacent to it on the
//! ring, never reshuffle the world — so the classic consistent-hash
//! ring is used:
//!
//! * every node contributes `vnodes` virtual points, hashed from
//!   `"{addr}#{i}"` with FNV-1a 64;
//! * a shard hashes its id (`"shard-{id}"`) onto the ring and is owned
//!   by the first `replication` *distinct* nodes found walking
//!   clockwise from that point (primary first);
//! * ties and wrap-around follow the usual sorted-ring rules.
//!
//! The hash is fixed (FNV-1a 64) and the walk is deterministic, so any
//! client or server that knows the node list computes the identical
//! placement — the cluster manifest on the wire is a convenience, not
//! a source of truth.

use crate::manifest::ShardPlan;
use crate::{Result, StoreError};

/// Default number of virtual points each node contributes to the ring.
pub const DEFAULT_VNODES: usize = 64;

/// FNV-1a 64-bit hash — tiny, dependency-free, and stable across
/// platforms and releases (placement must never change under a
/// compiler or std upgrade).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Ring position hash: FNV-1a 64 followed by a 64-bit avalanche
/// finalizer (MurmurHash3's fmix64). Raw FNV-1a barely stirs the high
/// bits for short, similar keys (`"host:9000#0"`, `"host:9000#1"`, …),
/// which collapses every virtual point onto one arc of the ring; the
/// finalizer restores uniformity while keeping the function fixed and
/// dependency-free.
pub fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = fnv1a64(bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A consistent-hash ring over a fixed node list.
///
/// Nodes are identified by their index into the list handed to
/// [`HashRing::new`]; callers keep the list (of addresses) alongside.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted virtual points: (ring position, node index).
    points: Vec<(u64, u16)>,
    nodes: usize,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual points per node. Node
    /// identity is the string itself (normally `host:port`), so two
    /// rings built from the same list are identical.
    pub fn new(nodes: &[String], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes.len() * vnodes);
        for (idx, node) in nodes.iter().enumerate() {
            for v in 0..vnodes {
                let key = format!("{node}#{v}");
                points.push((ring_hash(key.as_bytes()), idx as u16));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            nodes: nodes.len(),
        }
    }

    /// Number of distinct nodes on the ring.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The ordered replica set for `key`: the first `replicas`
    /// *distinct* nodes clockwise from the key's ring position,
    /// primary first. Returns fewer entries than requested when the
    /// ring has fewer distinct nodes; empty when the ring is empty.
    pub fn place(&self, key: &[u8], replicas: usize) -> Vec<u16> {
        let want = replicas.clamp(1, self.nodes.max(1));
        let mut out = Vec::with_capacity(want);
        if self.points.is_empty() {
            return out;
        }
        let h = ring_hash(key);
        let start = self.points.partition_point(|&(pos, _)| pos < h);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// Replica set for a shard id (the key every sciml component uses:
    /// `"shard-{id}"`), primary first.
    pub fn place_shard(&self, shard_id: u32, replicas: usize) -> Vec<u16> {
        let key = format!("shard-{shard_id}");
        self.place(key.as_bytes(), replicas)
    }
}

/// One shard's computed placement: the plan plus its ordered replica
/// set (indices into the cluster's node list, primary first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// The shard being placed.
    pub plan: ShardPlan,
    /// Node indices serving this shard, primary first. Always
    /// non-empty for a non-empty node list, and its entries are
    /// distinct.
    pub replicas: Vec<u16>,
}

/// A full cluster placement: node addresses, the replication factor
/// actually achieved, and one [`ShardAssignment`] per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Node addresses (`host:port`), in ring-identity order.
    pub nodes: Vec<String>,
    /// Replication factor (clamped to the node count).
    pub replication: u16,
    /// Per-shard placement, in `plans` order.
    pub shards: Vec<ShardAssignment>,
}

impl ClusterPlan {
    /// Computes the placement of `plans` across `nodes` with the given
    /// replication factor using [`DEFAULT_VNODES`] virtual points.
    pub fn assign(plans: &[ShardPlan], nodes: &[String], replication: u16) -> ClusterPlan {
        let replication = (replication.max(1) as usize).min(nodes.len().max(1)) as u16;
        let ring = HashRing::new(nodes, DEFAULT_VNODES);
        let shards = plans
            .iter()
            .map(|p| ShardAssignment {
                plan: *p,
                replicas: ring.place_shard(p.id, replication as usize),
            })
            .collect();
        ClusterPlan {
            nodes: nodes.to_vec(),
            replication,
            shards,
        }
    }

    /// Validates internal consistency: non-empty node list, every
    /// replica index in range, replica sets distinct and exactly
    /// `replication` long, and shards that tile `[0, len)` — in sample
    /// order, each non-empty, the last ending at or before `u64::MAX`.
    /// The first violation is a [`StoreError::Manifest`].
    pub fn validate(&self) -> Result<()> {
        let invalid = |what: String| Err(StoreError::Manifest(format!("cluster plan: {what}")));
        if self.nodes.is_empty() {
            return invalid("no nodes".to_string());
        }
        let mut seen = std::collections::BTreeSet::new();
        for node in &self.nodes {
            if node.is_empty() {
                return invalid("empty node address".to_string());
            }
            if !seen.insert(node) {
                return invalid(format!("duplicate node address {node}"));
            }
        }
        if self.replication == 0 || self.replication as usize > self.nodes.len() {
            return invalid(format!(
                "replication {} out of range for {} nodes",
                self.replication,
                self.nodes.len()
            ));
        }
        let mut end = 0u64;
        for a in &self.shards {
            let ShardPlan {
                id, first, count, ..
            } = a.plan;
            if first != end || count == 0 {
                return invalid(format!(
                    "shard {id} holds {count} samples from {first}, not a non-empty run from {end}"
                ));
            }
            let Some(next) = first.checked_add(count) else {
                return invalid(format!("shard {id} ends past u64::MAX"));
            };
            end = next;
            if a.replicas.len() != self.replication as usize {
                return invalid(format!(
                    "shard {id} has {} replicas, expected {}",
                    a.replicas.len(),
                    self.replication
                ));
            }
            let mut distinct = std::collections::BTreeSet::new();
            for &r in &a.replicas {
                if r as usize >= self.nodes.len() {
                    return invalid(format!("shard {id} replica index {r} out of range"));
                }
                if !distinct.insert(r) {
                    return invalid(format!("shard {id} repeats replica {r}"));
                }
            }
        }
        Ok(())
    }

    /// Samples the plan covers: where its last shard ends (0 for none).
    /// A [`validate`](ClusterPlan::validate)d plan tiles exactly
    /// `[0, total_samples)`.
    pub fn total_samples(&self) -> u64 {
        self.shards
            .last()
            .map_or(0, |a| a.plan.first.saturating_add(a.plan.count))
    }

    /// Per-node load: (primary shard count, total replica shard count,
    /// total replica bytes), indexed like `nodes`.
    pub fn balance(&self) -> Vec<NodeLoad> {
        let mut out = vec![NodeLoad::default(); self.nodes.len()];
        for a in &self.shards {
            for (i, &r) in a.replicas.iter().enumerate() {
                if let Some(load) = out.get_mut(r as usize) {
                    if i == 0 {
                        load.primaries += 1;
                    }
                    load.shards += 1;
                    load.bytes += a.plan.bytes;
                }
            }
        }
        out
    }

    /// Replica set (primary first) for the shard covering global
    /// sample `index`, or `None` when no shard covers it. A binary
    /// search over shards in sample order, as a
    /// [`validate`](ClusterPlan::validate)d plan has them.
    pub fn locate(&self, index: u64) -> Option<&ShardAssignment> {
        let after = self.shards.partition_point(|a| a.plan.first <= index);
        let a = self.shards.get(after.checked_sub(1)?)?;
        (index - a.plan.first < a.plan.count).then_some(a)
    }
}

/// Aggregate load carried by one node under a [`ClusterPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Shards this node is primary for.
    pub primaries: u64,
    /// Shards this node holds a replica of (including primaries).
    pub shards: u64,
    /// Total bytes of those shards.
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::plan_by_count;

    fn nodes(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // ring_hash is fnv1a64 + fmix64; pin its value so placement
        // can never drift silently between releases.
        assert_eq!(ring_hash(b""), 0xefd0_1f60_ba99_2926);
        assert_eq!(ring_hash(b"a"), 0x82a2_a958_a9be_ce5b);
    }

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let ns = nodes(5);
        let ring = HashRing::new(&ns, 64);
        for id in 0..200u32 {
            let a = ring.place_shard(id, 3);
            let b = ring.place_shard(id, 3);
            assert_eq!(a, b);
            assert_eq!(a.len(), 3);
            let set: std::collections::BTreeSet<_> = a.iter().collect();
            assert_eq!(set.len(), 3, "replicas must be distinct nodes");
        }
    }

    #[test]
    fn replication_clamped_to_node_count() {
        let ns = nodes(2);
        let ring = HashRing::new(&ns, 16);
        let r = ring.place_shard(7, 5);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn removing_a_node_moves_only_its_shards() {
        // The consistent-hash property: shards whose replica set did
        // not include the removed node keep their primary.
        let five = nodes(5);
        let four: Vec<String> = five[..4].to_vec();
        let ring5 = HashRing::new(&five, 64);
        let ring4 = HashRing::new(&four, 64);
        let mut moved = 0;
        for id in 0..500u32 {
            let before = ring5.place_shard(id, 1)[0];
            let after = ring4.place_shard(id, 1)[0];
            if before != 4 {
                assert_eq!(before, after, "shard {id} moved without cause");
            } else {
                moved += 1;
            }
        }
        // The removed node owned roughly 1/5 of the keys.
        assert!(moved > 0, "node 4 owned no shards at all");
        assert!(moved < 250, "node 4 owned implausibly many shards");
    }

    #[test]
    fn balance_is_roughly_even() {
        let ns = nodes(4);
        let plans = plan_by_count(4096, 16); // 256 shards
        let plan = ClusterPlan::assign(&plans, &ns, 2);
        plan.validate().expect("valid placement");
        let loads = plan.balance();
        let total: u64 = loads.iter().map(|l| l.primaries).sum();
        assert_eq!(total, 256);
        for l in &loads {
            // With 64 vnodes the worst node should stay within a few x
            // of the mean (64 primaries); this bound is loose on
            // purpose — it guards gross brokenness, not variance.
            assert!(l.primaries > 10, "starved node: {loads:?}");
            assert!(l.primaries < 200, "overloaded node: {loads:?}");
        }
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let plans = plan_by_count(64, 16);
        let mut plan = ClusterPlan::assign(&plans, &nodes(3), 2);
        assert!(plan.validate().is_ok());
        plan.shards[0].replicas[1] = 9; // out of range
        assert!(plan.validate().is_err());
        plan.shards[0].replicas[1] = plan.shards[0].replicas[0]; // repeated
        assert!(plan.validate().is_err());
        let dup = ClusterPlan {
            nodes: vec!["a:1".into(), "a:1".into()],
            replication: 1,
            shards: Vec::new(),
        };
        assert!(dup.validate().is_err());
    }

    #[test]
    fn validate_requires_shards_that_tile_from_zero() {
        let good = ClusterPlan::assign(&plan_by_count(10, 4), &nodes(2), 1);
        assert!(good.validate().is_ok());
        assert_eq!(good.total_samples(), 10);
        let broken = |edit: fn(&mut [ShardAssignment])| {
            let mut plan = good.clone();
            edit(&mut plan.shards);
            plan.validate()
        };
        for (what, edit) in [
            (
                "gap",
                (|s| s[1].plan.first += 1) as fn(&mut [ShardAssignment]),
            ),
            ("overlap", |s| s[1].plan.first -= 1),
            ("not from 0", |s| s[0].plan.first = 1),
            ("empty shard", |s| s[2].plan.count = 0),
            ("out of order", |s| s.swap(0, 1)),
            ("end past u64::MAX", |s| s[2].plan.count = u64::MAX),
        ] {
            assert!(
                matches!(broken(edit), Err(StoreError::Manifest(_))),
                "{what}"
            );
        }
        let wrapped = ClusterPlan {
            nodes: nodes(1),
            replication: 1,
            shards: [(0, 1u64 << 63), (1u64 << 63, 1u64 << 63)]
                .into_iter()
                .enumerate()
                .map(|(id, (first, count))| ShardAssignment {
                    plan: ShardPlan {
                        id: id as u32,
                        first,
                        count,
                        bytes: 0,
                        encoding: crate::EncodingChoice::Raw,
                    },
                    replicas: vec![0],
                })
                .collect(),
        };
        assert!(matches!(wrapped.validate(), Err(StoreError::Manifest(_))));
    }

    #[test]
    fn locate_finds_covering_shard() {
        let plans = plan_by_count(100, 32);
        let plan = ClusterPlan::assign(&plans, &nodes(3), 2);
        assert_eq!(plan.locate(0).map(|a| a.plan.id), Some(0));
        assert_eq!(plan.locate(33).map(|a| a.plan.id), Some(1));
        assert_eq!(plan.locate(99).map(|a| a.plan.id), Some(3));
        assert!(plan.locate(100).is_none());
        assert!(plan.locate(u64::MAX).is_none());
        // Every index, against the linear scan it replaces.
        for index in 0..101 {
            let scan = plan
                .shards
                .iter()
                .find(|a| index >= a.plan.first && index < a.plan.first + a.plan.count);
            assert_eq!(plan.locate(index), scan, "index {index}");
        }
        let empty = ClusterPlan::assign(&[], &nodes(1), 1);
        assert!(empty.locate(0).is_none());
    }
}
