//! Partitioning answer tuples across shard engines.
//!
//! The [`ShardRouter`] assigns every batch item to one of `N` shards through
//! a pluggable [`Partitioner`]. Partitioning only decides *where an item
//! starts* — the scheduler's work stealing may migrate it — so any policy is
//! correct; policies differ in balance and cache locality:
//!
//! * [`HashPartitioner`] routes by canonical lineage hash: deterministic,
//!   stateless, and stable across batches for *unchanged* lineages, so
//!   repeated queries land on the same shard and hit that shard's warm
//!   cache. A lineage that grows between batches gets a new hash and may
//!   move.
//! * [`SizeBalancedPartitioner`] bin-packs by estimated hardness (greedy
//!   longest-processing-time): each item goes to the currently lightest
//!   shard, so total estimated work is balanced even when a few lineages
//!   dominate the batch.
//!
//! Partitioners route [`ClusterEngine::confidence_batch`] only. Maintenance
//! rounds ([`ClusterEngine::maintain_batch`]) ignore the partitioner and
//! route item `i` to shard `i mod shards`: an item's index stays put while
//! its lineage, and hence its hash, grows, so its pooled frontier keeps one
//! home shard.
//!
//! [`ClusterEngine::confidence_batch`]: crate::ClusterEngine::confidence_batch
//! [`ClusterEngine::maintain_batch`]: crate::ClusterEngine::maintain_batch

use events::{Dnf, DnfHash};

/// One batch item as seen by a [`Partitioner`].
#[derive(Debug, Clone, Copy)]
pub struct RouteItem<'a> {
    /// Position of the item in the input batch.
    pub index: usize,
    /// The lineage itself.
    pub lineage: &'a Dnf,
    /// Canonical fingerprint of the lineage (precomputed by the router).
    pub hash: DnfHash,
    /// Estimated hardness score from the cluster's estimator.
    pub score: f64,
}

/// A policy assigning batch items to shards.
///
/// Implementations must be deterministic in their inputs: the cluster's
/// reproducibility guarantees (bit-identical deterministic methods,
/// seed-stable Monte-Carlo) hold for any assignment, but schedule *timings*
/// are only comparable across runs when the assignment is stable.
pub trait Partitioner: Send + Sync {
    /// Returns, for each item, the shard it is assigned to (`< shards`).
    /// `shards` is always ≥ 1.
    fn partition(&self, items: &[RouteItem<'_>], shards: usize) -> Vec<usize>;

    /// Human-readable policy name for stats and logs.
    fn name(&self) -> &'static str;
}

/// Routes by canonical lineage hash (`hash mod shards`).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, items: &[RouteItem<'_>], shards: usize) -> Vec<usize> {
        items.iter().map(|it| it.hash.shard(shards)).collect()
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Greedy longest-processing-time bin packing over estimated hardness: items
/// are considered hardest-first and each goes to the shard with the least
/// estimated load so far. Ties break toward the lower shard id, so the
/// assignment is deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeBalancedPartitioner;

impl Partitioner for SizeBalancedPartitioner {
    fn partition(&self, items: &[RouteItem<'_>], shards: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| {
            items[b]
                .score
                .partial_cmp(&items[a].score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(items[a].index.cmp(&items[b].index))
        });
        let mut load = vec![0.0_f64; shards];
        let mut assignment = vec![0usize; items.len()];
        for pos in order {
            let lightest = load
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(s, _)| s)
                .unwrap_or(0);
            // Every item costs at least a scheduling quantum, so a batch of
            // all-zero scores still spreads across shards.
            load[lightest] += items[pos].score.max(1.0);
            assignment[pos] = lightest;
        }
        assignment
    }

    fn name(&self) -> &'static str {
        "size-balanced"
    }
}

/// Routes a batch onto `shards` per-shard queues using a [`Partitioner`].
#[derive(Clone, Copy)]
pub struct ShardRouter<'p> {
    partitioner: &'p dyn Partitioner,
    shards: usize,
}

impl<'p> ShardRouter<'p> {
    /// A router over `shards` shards (clamped to ≥ 1) with the given policy.
    pub fn new(partitioner: &'p dyn Partitioner, shards: usize) -> Self {
        ShardRouter { partitioner, shards: shards.max(1) }
    }

    /// The effective shard count (≥ 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Assigns items to shards and returns the per-shard queues of item
    /// indices, preserving the relative order of `items` within each queue.
    /// Out-of-range assignments from a misbehaving partitioner are clamped
    /// into range rather than dropped: losing an item would lose an answer.
    pub fn route(&self, items: &[RouteItem<'_>]) -> Vec<Vec<usize>> {
        let assignment = self.partitioner.partition(items, self.shards);
        debug_assert_eq!(assignment.len(), items.len());
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); self.shards];
        for (it, &shard) in items.iter().zip(&assignment) {
            queues[shard.min(self.shards - 1)].push(it.index);
        }
        queues
    }
}

impl std::fmt::Debug for ShardRouter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("partitioner", &self.partitioner.name())
            .field("shards", &self.shards)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::{Clause, ProbabilitySpace};

    fn lineages(n: usize) -> (ProbabilitySpace, Vec<Dnf>) {
        let mut s = ProbabilitySpace::new();
        let dnfs = (0..n)
            .map(|i| {
                let len = 1 + i % 5;
                let vars: Vec<_> =
                    (0..=len).map(|j| s.add_bool(format!("v{i}_{j}"), 0.4)).collect();
                Dnf::from_clauses((0..len).map(|k| Clause::from_bools(&[vars[k], vars[k + 1]])))
            })
            .collect();
        (s, dnfs)
    }

    fn route_items(dnfs: &[Dnf]) -> Vec<RouteItem<'_>> {
        dnfs.iter()
            .enumerate()
            .map(|(index, lineage)| RouteItem {
                index,
                lineage,
                hash: lineage.canonical_hash(),
                score: lineage.size() as f64,
            })
            .collect()
    }

    #[test]
    fn hash_routing_is_stable_and_complete() {
        let (_s, dnfs) = lineages(20);
        let items = route_items(&dnfs);
        let router = ShardRouter::new(&HashPartitioner, 4);
        let queues = router.route(&items);
        assert_eq!(queues.len(), 4);
        let mut seen: Vec<usize> = queues.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>(), "every item routed exactly once");
        // Same inputs, same routing.
        assert_eq!(queues, router.route(&items));
    }

    #[test]
    fn size_balanced_routing_balances_estimated_load() {
        let (_s, dnfs) = lineages(40);
        let items = route_items(&dnfs);
        let router = ShardRouter::new(&SizeBalancedPartitioner, 4);
        let queues = router.route(&items);
        let loads: Vec<f64> = queues
            .iter()
            .map(|q| q.iter().map(|&i| items[i].score.max(1.0)).sum::<f64>())
            .collect();
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        // LPT keeps the spread within the largest single item's cost.
        let biggest = items.iter().map(|i| i.score.max(1.0)).fold(0.0, f64::max);
        assert!(max - min <= biggest + 1e-9, "loads {loads:?} spread more than {biggest}");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let (_s, dnfs) = lineages(5);
        let items = route_items(&dnfs);
        let router = ShardRouter::new(&HashPartitioner, 0);
        assert_eq!(router.shards(), 1);
        let queues = router.route(&items);
        assert_eq!(queues.len(), 1);
        assert_eq!(queues[0].len(), 5);
    }
}
