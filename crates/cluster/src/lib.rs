//! A sharded, hardness-aware, deadline-aware confidence cluster on top of
//! [`pdb::ConfidenceEngine`].
//!
//! A single [`ConfidenceEngine`] batch parallelises across the lineages of
//! one query on one flat thread pool. This crate scales that out and makes
//! it *schedule-aware*:
//!
//! * a [`HardnessEstimator`] scores every lineage from cheap structural
//!   features — clause/variable counts, max clause width, duplicate-atom
//!   density — without compiling it, and calibrates those scores online
//!   against the [`dtree::CompileStats::work`] counters finished runs
//!   export;
//! * a [`ShardRouter`] partitions the answer tuples across `N` shard
//!   engines through a pluggable [`Partitioner`] (hash routing for cache
//!   affinity, size-balanced LPT packing for skewed batches);
//! * a deadline-aware [scheduler](SchedulePolicy) turns the per-batch
//!   timeout into one cluster-wide deadline, runs each shard hardest-first,
//!   slices the remaining time proportionally so a tight deadline degrades
//!   uniformly instead of starving the tail, and work-steals straggler
//!   items across shards;
//! * a [`ClusterBatchResult`] merges the per-shard outcomes with per-shard
//!   cache, stealing, and convergence stats;
//! * [`ClusterEngine::maintain_batch`] runs one round of **streaming
//!   maintenance** across the shards — the workspace's one maintenance loop,
//!   with [`ClusterEngine::with_shards`]`(1)` as its sequential case: pooled
//!   d-tree frontiers absorb per-item lineage deltas in place, on as many
//!   threads as there are shards; items whose bounds stayed within the
//!   guarantee are served as zero-work snapshots straight from the pool;
//!   the rest go to their home shard (by item index, so a frontier stays on
//!   one shard while its lineage grows), which refines them in order of how
//!   much their delta widened the bounds. Each pooled frontier keeps its
//!   width-vs-budget refinement curve
//!   ([`ResumableConfidence::width_curve`]).
//!
//! **Sharding never changes answers.** For the deterministic d-tree methods
//! the cluster is bit-identical to [`ConfidenceEngine::confidence_batch`];
//! for the Monte-Carlo methods it is reproducible under a fixed seed
//! because every item's RNG seed derives from its *input index*
//! ([`ConfidenceEngine::item_seed`]), independent of shard assignment,
//! stealing, or thread interleaving.
//!
//! ```
//! use cluster::ClusterEngine;
//! use events::{Clause, Dnf, ProbabilitySpace};
//! use pdb::confidence::ConfidenceMethod;
//! use pdb::ConfidenceEngine;
//!
//! let mut space = ProbabilitySpace::new();
//! let vars: Vec<_> = (0..12).map(|i| space.add_bool(format!("x{i}"), 0.3)).collect();
//! let lineages: Vec<Dnf> = (0..6)
//!     .map(|k| {
//!         Dnf::from_clauses((0..5).map(|i| Clause::from_bools(&[vars[(i + k) % 12], vars[(i + k + 1) % 12]])))
//!     })
//!     .collect();
//!
//! let cluster = ClusterEngine::new(ConfidenceMethod::DTreeAbsolute(0.01)).with_shards(3);
//! let out = cluster.confidence_batch(&lineages, &space, None);
//!
//! // Bit-identical to the unsharded engine.
//! let single = ConfidenceEngine::new(ConfidenceMethod::DTreeAbsolute(0.01))
//!     .confidence_batch(&lineages, &space, None);
//! for (a, b) in out.results.iter().zip(&single.results) {
//!     assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hardness;
mod router;
mod scheduler;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use dtree::{CacheStats, SubformulaCache};
use events::{Dnf, LineageDelta, ProbabilitySpace, VarOrigins};
use pdb::confidence::{ConfidenceBudget, ConfidenceMethod, ConfidenceResult, ResumableConfidence};
use pdb::fault::Fault;
use pdb::{ConfidenceEngine, ResumablePool};

pub use hardness::{HardnessEstimator, LineageFeatures};
pub use router::{HashPartitioner, Partitioner, RouteItem, ShardRouter, SizeBalancedPartitioner};
pub use scheduler::SchedulePolicy;

/// How the shard engines share (or don't share) a sub-formula cache.
#[derive(Debug, Clone, Default)]
pub enum CacheTopology {
    /// One cache shared by every shard, created fresh per batch (default).
    /// Maximises cross-shard reuse on overlapping lineages; the cache's own
    /// internal sharding keeps contention low.
    #[default]
    Shared,
    /// One private cache per shard, created fresh per batch. No cross-shard
    /// traffic at all; pair with [`HashPartitioner`] so repeated lineages
    /// keep landing on the shard that already computed them.
    PerShard,
    /// No caching (for measuring the cache's effect; results are identical
    /// either way).
    Disabled,
    /// A caller-owned, long-lived cache shared by every shard across
    /// batches (the cross-batch mode of
    /// [`ConfidenceEngine::with_shared_cache`]).
    External(Arc<SubformulaCache>),
}

/// Per-shard outcome summary inside a [`ClusterBatchResult`].
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Items the router originally assigned to this shard.
    pub assigned: usize,
    /// Item executions this shard's worker performed (≥ its share of
    /// `assigned` items; refinement rounds re-execute stragglers).
    pub executed: usize,
    /// Executions this worker *stole* from other shards' queues.
    pub stolen: usize,
    /// Executions served by *resuming* an item's suspended d-tree frontier
    /// from an earlier refinement round instead of recompiling it from
    /// scratch (deterministic d-tree methods under a deadline only).
    pub resumed: usize,
    /// Resumptions of a suspended frontier whose previous slice ran on a
    /// *different* shard — handles that a work steal (or refinement
    /// re-scoring) carried across the shard boundary instead of recompiling
    /// the item on the thief.
    pub migrated: usize,
    /// Worker panics this shard suffered. Each one kills the shard's worker
    /// for the rest of its round: the orphaned queue is drained by the
    /// surviving stealers and the panicked item is retried once on another
    /// shard before degrading (see [`ClusterEngine::with_fault`]).
    pub deaths: usize,
    /// Sum of the per-item algorithm times this worker spent.
    pub compute: Duration,
    /// Cache-effectiveness deltas for this shard's private cache. All zeros
    /// under the [`CacheTopology::Shared`] / [`CacheTopology::External`]
    /// topologies, where traffic is attributed cluster-wide in
    /// [`ClusterBatchResult::cache`] instead.
    pub cache: CacheStats,
}

/// Result of a sharded batch: the merge of every shard's work.
#[derive(Debug, Clone)]
pub struct ClusterBatchResult {
    /// Per-lineage results in input order — exactly what
    /// [`ConfidenceEngine::confidence_batch`] would return for the same
    /// batch (bit-identical for deterministic methods, seed-reproducible
    /// for Monte-Carlo ones).
    pub results: Vec<ConfidenceResult>,
    /// Wall-clock time for the whole cluster batch.
    pub wall: Duration,
    /// Per-shard execution and cache stats.
    pub shards: Vec<ShardStats>,
    /// Cluster-wide cache-effectiveness deltas for this batch (summed over
    /// every cache the topology created or borrowed).
    pub cache: CacheStats,
    /// Number of scheduling rounds run (1 unless a deadline forced
    /// refinement rounds).
    pub rounds: usize,
}

impl ClusterBatchResult {
    /// `true` when every lineage met its guarantee within the budget.
    pub fn all_converged(&self) -> bool {
        self.results.iter().all(|r| r.converged)
    }

    /// Number of lineages that met their guarantee.
    pub fn converged_count(&self) -> usize {
        self.results.iter().filter(|r| r.converged).count()
    }

    /// Sum of the per-item algorithm times across all shards.
    pub fn total_compute(&self) -> Duration {
        self.shards.iter().map(|s| s.compute).sum()
    }

    /// Total number of cross-shard steals in the batch.
    pub fn total_stolen(&self) -> usize {
        self.shards.iter().map(|s| s.stolen).sum()
    }

    /// Total number of executions served by resuming a suspended d-tree
    /// frontier instead of recompiling (refinement rounds only).
    pub fn total_resumed(&self) -> usize {
        self.shards.iter().map(|s| s.resumed).sum()
    }

    /// Total number of suspended-frontier migrations: resumptions where the
    /// handle's previous slice ran on a different shard.
    pub fn total_migrated(&self) -> usize {
        self.shards.iter().map(|s| s.migrated).sum()
    }

    /// Total number of worker panics the scheduler caught and isolated.
    pub fn total_deaths(&self) -> usize {
        self.shards.iter().map(|s| s.deaths).sum()
    }

    /// Number of items that report a **degraded** result — a vacuous `[0, 1]`
    /// interval standing in for a computation lost to a panic or dead shard
    /// ([`ConfidenceResult::degraded`] is `Some`). Always 0 without fault
    /// injection or real worker crashes.
    pub fn degraded_count(&self) -> usize {
        self.results.iter().filter(|r| r.degraded.is_some()).count()
    }
}

/// Sums cache-stat deltas across shards (`entries` sums too: distinct caches
/// hold distinct entry sets; a shared cache is counted once by the caller).
fn merge_cache_stats(deltas: impl IntoIterator<Item = CacheStats>) -> CacheStats {
    let mut out = CacheStats::default();
    for d in deltas {
        out.hits += d.hits;
        out.misses += d.misses;
        out.stale += d.stale;
        out.evictions += d.evictions;
        out.entries += d.entries;
    }
    out
}

/// What one scheduling run is seeded with — the only thing that differs
/// between a batch ([`ClusterEngine::confidence_batch`]) and a maintenance
/// round ([`ClusterEngine::maintain_batch`]).
struct Plan {
    /// Items to schedule, in input order.
    work: Vec<usize>,
    /// Round-1 priority per item; `None` scores every scheduled item by its
    /// estimated hardness.
    scores: Option<Vec<f64>>,
    /// Per-item suspended frontiers to resume (`None` = compile fresh).
    handles: Vec<Option<ResumableConfidence>>,
    /// Per-item results known without scheduling (maintenance snapshots).
    settled: Vec<Option<ConfidenceResult>>,
    /// `representative[i]`: the scheduled item whose result an unscheduled,
    /// unsettled item `i` copies (a deduplicated lineage).
    representative: Vec<usize>,
    /// Capture resumable frontiers on fresh d-tree runs.
    capture: bool,
    /// Route work to shard `index % shards` instead of through the
    /// partitioner, so an item's frontier keeps one home shard across
    /// maintenance rounds while its lineage, and hence its hash, grows.
    route_by_index: bool,
}

/// Items per block that a maintenance pre-pass thread claims at a time
/// ([`ClusterEngine::absorb_all`]): small enough that a round's few hundred
/// deltas spread over many blocks, large enough that claiming stays cheap.
const ABSORB_BLOCK: usize = 64;

/// One item's outcome of the maintenance pre-pass
/// ([`ClusterEngine::absorb`]).
enum Absorbed {
    /// Within its guarantee: served as this zero-work snapshot, its frontier
    /// left in the pool.
    Snapshot(ConfidenceResult),
    /// To schedule with this width-regression score, resuming the handle
    /// (`None`: compile from scratch).
    Work(f64, Option<Box<ResumableConfidence>>),
}

/// A sharded, deadline-aware confidence service above
/// [`pdb::ConfidenceEngine`]. See the [crate docs](self) for the moving
/// parts and guarantees, and [`ClusterEngine::confidence_batch`] for the
/// lifecycle of one batch.
#[derive(Clone)]
pub struct ClusterEngine {
    method: ConfidenceMethod,
    budget: ConfidenceBudget,
    shards: usize,
    seed: Option<u64>,
    policy: SchedulePolicy,
    partitioner: Arc<dyn Partitioner>,
    topology: CacheTopology,
    estimator: Arc<HardnessEstimator>,
    obs: obs::Obs,
    fault: Fault,
}

impl std::fmt::Debug for ClusterEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterEngine")
            .field("method", &self.method)
            .field("budget", &self.budget)
            .field("shards", &self.shards)
            .field("seed", &self.seed)
            .field("policy", &self.policy)
            .field("partitioner", &self.partitioner.name())
            .finish()
    }
}

impl ClusterEngine {
    /// A cluster for the given method: 2 shards, hash routing,
    /// hardest-first scheduling, one shared per-batch cache, no budget,
    /// entropy-seeded Monte-Carlo, and a fresh (uncalibrated) hardness
    /// estimator.
    pub fn new(method: ConfidenceMethod) -> Self {
        ClusterEngine {
            method,
            budget: ConfidenceBudget::default(),
            shards: 2,
            seed: None,
            policy: SchedulePolicy::default(),
            partitioner: Arc::new(HashPartitioner),
            topology: CacheTopology::default(),
            estimator: Arc::new(HardnessEstimator::new()),
            obs: obs::Obs::default(),
            fault: Fault::disabled(),
        }
    }

    /// Sets the number of shards (clamped to ≥ 1; a degenerate 0 must not
    /// produce a zero-worker cluster that computes nothing).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-batch budget. `timeout` becomes the *cluster-wide*
    /// deadline shared by every shard; `max_work` still applies per item.
    pub fn with_budget(mut self, budget: ConfidenceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the base seed making Monte-Carlo methods reproducible,
    /// independent of shard assignment and stealing (per-item seeds derive
    /// from the *input index*).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the within-shard scheduling order (default:
    /// [`SchedulePolicy::HardestFirst`]).
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the partitioning policy of [`ClusterEngine::confidence_batch`]
    /// (default: [`HashPartitioner`]). Hash routing keeps a lineage on one
    /// shard across batches only while the lineage is unchanged;
    /// maintenance rounds ([`ClusterEngine::maintain_batch`]) ignore the
    /// partitioner and route item `i` to shard `i mod shards`, so a growing
    /// item keeps its home shard.
    pub fn with_partitioner(mut self, partitioner: Arc<dyn Partitioner>) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Sets the cache topology (default: [`CacheTopology::Shared`]).
    pub fn with_cache_topology(mut self, topology: CacheTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Attaches a caller-owned, long-lived cache shared by all shards
    /// across batches (shorthand for
    /// [`CacheTopology::External`]).
    pub fn with_shared_cache(self, cache: Arc<SubformulaCache>) -> Self {
        self.with_cache_topology(CacheTopology::External(cache))
    }

    /// Disables sub-formula caching (shorthand for
    /// [`CacheTopology::Disabled`]).
    pub fn without_cache(self) -> Self {
        self.with_cache_topology(CacheTopology::Disabled)
    }

    /// Attaches an observability sink: the scheduler emits round, steal,
    /// migration, and deadline-slack metrics and trace events
    /// (`cluster.*`); per-shard engines carry the sink into the `engine.*`
    /// and `dtree.*` layers; and the hardness estimator tracks its
    /// calibration error too, unless a clone of this engine (or of its
    /// [`ClusterEngine::estimator`] handle) already shares it — a shared
    /// estimator keeps the sink it has.
    ///
    /// With the default (disabled) sink every handle is a no-op and results
    /// are bit-identical either way.
    pub fn with_obs(mut self, o: &obs::Obs) -> Self {
        self.obs = o.clone();
        if let Some(estimator) = Arc::get_mut(&mut self.estimator) {
            estimator.attach_obs(o);
        }
        self
    }

    /// Attaches a fault-injection plan (see [`pdb::fault`]): every item
    /// execution checks the `"cluster.worker"` failpoint, and injected
    /// panics exercise the scheduler's shard-failure tolerance — the
    /// panicking worker dies for the rest of its round, its orphaned queue
    /// is drained by the surviving stealers, and the panicked item is
    /// retried once on another shard before degrading to the vacuous
    /// `[0, 1]` interval ([`ConfidenceResult::degraded`]). With the default
    /// [`Fault::disabled`] plan the check is a free no-op and results are
    /// bit-identical to an engine without one.
    pub fn with_fault(mut self, fault: &Fault) -> Self {
        self.fault = fault.clone();
        self
    }

    /// The cluster's hardness estimator (e.g. to inspect its calibration).
    pub fn estimator(&self) -> &Arc<HardnessEstimator> {
        &self.estimator
    }

    /// The effective shard count (≥ 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Computes the confidences of a whole answer relation across the
    /// cluster's shards. Results come back in input order; see the
    /// [crate docs](self) for the identity guarantees versus
    /// [`ConfidenceEngine::confidence_batch`].
    ///
    /// Lifecycle of one batch: deduplicate identical lineages (deterministic
    /// methods only, exactly like the unsharded engine — the duplicate gets
    /// a copy of its representative's result with `elapsed` zeroed) → score
    /// every lineage (cheap structural features × calibrated correction) →
    /// route items to shards ([`Partitioner`]) → order each shard queue
    /// ([`SchedulePolicy`]) → run one stealing worker per shard against the
    /// cluster-wide deadline, slicing the remaining time proportionally →
    /// if time remains, re-run stragglers in refinement rounds → merge
    /// per-shard stats.
    pub fn confidence_batch<L: AsRef<Dnf> + Sync>(
        &self,
        lineages: &[L],
        space: &ProbabilitySpace,
        origins: Option<&VarOrigins>,
    ) -> ClusterBatchResult {
        let start = Instant::now();
        let lineages: Vec<&Dnf> = lineages.iter().map(AsRef::as_ref).collect();
        let n = lineages.len();
        // Duplicate detection via the engine's own helper, so both sides of
        // the bit-identity contract deduplicate identically: answer
        // relations with symmetries (s2(x, y) = s2(y, x)) and repeated user
        // queries produce identical lineages; deterministic methods evaluate
        // one representative. Monte-Carlo items keep their per-index seeds,
        // so every item stays its own representative there.
        let (representative, work) = pdb::dedup_lineages(&self.method, &lineages);
        let plan = Plan {
            work,
            scores: None,
            handles: vec![None; n],
            settled: vec![None; n],
            representative,
            // Capturing frontiers costs a little on every fresh run; only
            // pay it when refinement rounds could actually resume them.
            capture: self.budget.timeout.is_some(),
            route_by_index: false,
        };
        self.run(start, &lineages, space, origins, plan).0
    }

    /// One round of **streaming confidence maintenance** across the
    /// cluster's shards.
    ///
    /// Inputs per item `i`: `lineages[i]` is the item's *current*
    /// (post-append) lineage and `deltas[i]` the clauses appended since the
    /// previous round (`None` or an empty delta means no change), obtained
    /// from [`events::LineageArena::append_clauses`] or
    /// [`LineageDelta::between`]. `pool` carries the suspended d-tree
    /// frontiers between rounds, keyed by item index: keep one pool per
    /// (answer set, method) pair.
    ///
    /// A pre-pass first visits every item's pool slot in place, on up to
    /// [`ClusterEngine::shards`] threads that claim blocks of items: it fails
    /// closed on a stale handle ([`ResumableConfidence::is_current`]) and
    /// absorbs the delta ([`ResumableConfidence::apply_delta`]) behind a
    /// fault boundary of its own — a panic there, real or injected at the
    /// `"cluster.absorb"` failpoint (keyed by item index), drops the item's
    /// handle and recompiles the item. Items whose bounds still satisfy the
    /// error guarantee afterwards are served as zero-work snapshots; their
    /// frontiers never leave the pool. The rest leave it for the scheduler:
    /// item `i` starts on shard `i mod shards` — by index, not through the
    /// [`Partitioner`], because a growing lineage changes its hash but not
    /// its index, so a frontier keeps one home shard across rounds — and
    /// each shard orders its items by **width regression**, how much the
    /// delta widened the interval (a scratch recompile scores the maximal
    /// 1.0), so the items the stream dirtied hardest refine first. The
    /// scheduler then resumes the frontiers (or recompiles, capturing fresh
    /// ones) exactly as in a batch run, deadline slicing and work stealing
    /// included; surviving handles, converged or not, return to `pool`,
    /// where [`ResumablePool::get`] exposes each one's width curve. Neither
    /// the thread count nor the routing changes a result bit.
    ///
    /// Without a timeout the round is one scheduling pass, so the per-path
    /// counts read off [`ClusterBatchResult::shards`]: `executed − resumed`
    /// items recompiled from scratch, `resumed` items refreshed a pooled
    /// frontier, and the other `n − executed` were snapshots.
    ///
    /// Unlike [`ClusterEngine::confidence_batch`], identical lineages are
    /// *not* deduplicated: two items with equal formulas may carry
    /// different deltas and different pooled frontiers. The Monte-Carlo
    /// methods have no incremental path — every item recompiles with its
    /// input-index seed, bit-identical to a batch over the same final
    /// lineages, and nothing is pooled.
    pub fn maintain_batch<L: AsRef<Dnf> + Sync>(
        &self,
        lineages: &[L],
        deltas: &[Option<LineageDelta>],
        space: &ProbabilitySpace,
        origins: Option<&VarOrigins>,
        pool: &mut ResumablePool,
    ) -> ClusterBatchResult {
        assert_eq!(lineages.len(), deltas.len(), "one delta slot per lineage");
        let start = Instant::now();
        let lineages: Vec<&Dnf> = lineages.iter().map(AsRef::as_ref).collect();
        let n = lineages.len();

        // Pre-pass: absorb every delta into its pooled frontier and decide
        // per item whether any scheduling is needed at all.
        let absorbed: Vec<Absorbed> = if self.method.is_deterministic() {
            let prepass = Instant::now();
            let absorbed = pool.slots_mut(n, |slots| self.absorb_all(slots, deltas, space));
            self.obs.histogram("cluster.prepass_seconds").record_duration(prepass.elapsed());
            absorbed
        } else {
            // No incremental path: every item recompiles, and the pool
            // stays untouched.
            (0..n).map(|_| Absorbed::Work(1.0, None)).collect()
        };
        let mut work: Vec<usize> = Vec::new();
        let mut scores: Vec<f64> = vec![0.0; n];
        let mut handles: Vec<Option<ResumableConfidence>> = Vec::with_capacity(n);
        let mut settled: Vec<Option<ConfidenceResult>> = Vec::with_capacity(n);
        for (i, item) in absorbed.into_iter().enumerate() {
            match item {
                Absorbed::Snapshot(r) => {
                    settled.push(Some(r));
                    handles.push(None);
                }
                Absorbed::Work(score, handle) => {
                    scores[i] = score;
                    settled.push(None);
                    handles.push(handle.map(|h| *h));
                    work.push(i);
                }
            }
        }
        self.obs.counter("cluster.snapshots").add((n - work.len()) as u64);
        let plan = Plan {
            work,
            scores: Some(scores),
            handles,
            settled,
            representative: (0..n).collect(),
            // Surviving frontiers outlive the run in the caller's pool,
            // making the *next* round's deltas cheap.
            capture: true,
            route_by_index: true,
        };

        let (out, survivors) = self.run(start, &lineages, space, origins, plan);
        for (i, h) in survivors.into_iter().enumerate() {
            if let Some(h) = h {
                pool.insert(i, h);
            }
        }
        out
    }

    /// The maintenance pre-pass over the pool slots of items `0..n`
    /// ([`ClusterEngine::absorb`] per item), outcomes in input order. With
    /// more than one shard and more than one block of items, the calling
    /// thread and `shards − 1` scoped threads claim [`ABSORB_BLOCK`]-item
    /// blocks until none is left, so one costly delta holds up only its own
    /// block; each item's outcome depends on nothing but the item, so the
    /// claim order never shows in the results.
    fn absorb_all(
        &self,
        slots: &mut [Option<ResumableConfidence>],
        deltas: &[Option<LineageDelta>],
        space: &ProbabilitySpace,
    ) -> Vec<Absorbed> {
        let absorbed = self.obs.counter("cluster.deltas_absorbed");
        let block = |first: usize, slots: &mut [Option<ResumableConfidence>]| -> Vec<Absorbed> {
            let deltas = &deltas[first..first + slots.len()];
            let items = slots.iter_mut().zip(deltas).enumerate();
            items
                .map(|(k, (slot, d))| self.absorb(first + k, slot, d.as_ref(), space, &absorbed))
                .collect()
        };
        if self.shards == 1 || slots.len() <= ABSORB_BLOCK {
            return block(0, slots);
        }
        let blocks = Mutex::new(slots.chunks_mut(ABSORB_BLOCK).enumerate());
        let worker = || {
            let mut done = Vec::new();
            loop {
                let next = blocks.lock().expect("block claims never panic").next();
                let Some((b, slots)) = next else { return done };
                done.push((b, block(b * ABSORB_BLOCK, slots)));
            }
        };
        let mut done: Vec<(usize, Vec<Absorbed>)> = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.shards).map(|_| scope.spawn(worker)).collect();
            let mut done = worker();
            for h in helpers {
                done.extend(h.join().expect("absorb panics are caught per item"));
            }
            done
        });
        done.sort_unstable_by_key(|&(b, _)| b);
        done.into_iter().flat_map(|(_, outcomes)| outcomes).collect()
    }

    /// Absorbs item `i`'s delta into its pooled frontier `slot` behind a
    /// fault boundary, the one part of a maintenance round outside the
    /// scheduler's. A stale handle ([`ResumableConfidence::is_current`])
    /// or one that cannot absorb the delta is dropped. A handle still
    /// within its guarantee afterwards stays in `slot` and answers with a
    /// zero-work snapshot; any other handle leaves the pool for the
    /// scheduler, scored by **width regression** — how much the delta
    /// widened its interval — and an item with no usable handle recompiles
    /// with the maximal score 1.0. A panic — injected at the
    /// `"cluster.absorb"` failpoint, keyed by the item index, or a real one
    /// — drops the handle, whose state the unwind may have left half
    /// updated, and recompiles the item.
    fn absorb(
        &self,
        i: usize,
        slot: &mut Option<ResumableConfidence>,
        delta: Option<&LineageDelta>,
        space: &ProbabilitySpace,
        absorbed: &obs::Counter,
    ) -> Absorbed {
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.fault
                .check_at("cluster.absorb", i as u64)
                .unwrap_or_else(|e| panic!("injected absorb fault: {e}"));
            // Fail closed up front: a handle pinned to an invalidated space
            // can neither absorb a delta nor resume — recompiling
            // immediately avoids burning a slice on its poisoned bounds.
            if slot.as_ref().is_some_and(|h| !h.is_current(space)) {
                *slot = None;
            }
            let h = slot.as_mut()?;
            let width_before = h.remaining_width();
            if let Some(delta) = delta.filter(|d| !d.is_empty()) {
                if !h.apply_delta(space, delta) {
                    *slot = None;
                    return None;
                }
                absorbed.inc();
            }
            if h.is_converged() {
                // The bounds stayed within the guarantee: the frontier
                // stays pooled for the next delta.
                return Some(Absorbed::Snapshot(h.snapshot_result()));
            }
            // Order dirtied items by how much the delta widened their
            // interval — the regression this round must claw back.
            let score = (h.remaining_width() - width_before).max(0.0);
            Some(Absorbed::Work(score, slot.take().map(Box::new)))
        }));
        match run {
            Ok(Some(a)) => a,
            Ok(None) => Absorbed::Work(1.0, None),
            Err(_) => {
                *slot = None;
                Absorbed::Work(1.0, None)
            }
        }
    }

    /// The one scheduling run behind both entry points: score the planned
    /// work, route it to shards, instantiate the cache topology, run the
    /// scheduler, and merge per-shard stats and per-item results. Returns
    /// the merged result and the frontiers that survived the run.
    fn run(
        &self,
        start: Instant,
        lineages: &[&Dnf],
        space: &ProbabilitySpace,
        origins: Option<&VarOrigins>,
        plan: Plan,
    ) -> (ClusterBatchResult, Vec<Option<ResumableConfidence>>) {
        let n = lineages.len();
        // Featurize scheduled items up front only when the features score
        // them (a plain batch); otherwise the scheduler extracts an item's
        // features where they are read, and resumed items never need them.
        let features: Vec<OnceLock<LineageFeatures>> = (0..n).map(|_| OnceLock::new()).collect();
        let scores = plan.scores.unwrap_or_else(|| {
            let mut scores = vec![0.0; n];
            for &i in &plan.work {
                let f = features[i].get_or_init(|| LineageFeatures::of(lineages[i]));
                scores[i] = self.estimator.score_features(f);
            }
            scores
        });
        let queues: Vec<Vec<usize>> = if self.shards == 1 {
            // Nothing to route: skip per-lineage fingerprinting so the
            // 1-shard cluster stays close to the plain engine on warm,
            // cache-hit-dominated batches.
            vec![plan.work]
        } else if plan.route_by_index {
            let mut queues = vec![Vec::new(); self.shards];
            for &i in &plan.work {
                queues[i % self.shards].push(i);
            }
            queues
        } else {
            let items: Vec<RouteItem<'_>> = plan
                .work
                .iter()
                .map(|&index| RouteItem {
                    index,
                    lineage: lineages[index],
                    hash: lineages[index].canonical_hash(),
                    score: scores[index],
                })
                .collect();
            ShardRouter::new(self.partitioner.as_ref(), self.shards).route(&items)
        };

        let (owned, per_shard) = self.cache_setup();
        let cache_refs: Vec<Option<&SubformulaCache>> =
            per_shard.iter().map(|slot| slot.map(|k| owned[k].as_ref())).collect();
        let before: Vec<CacheStats> = owned.iter().map(|c| c.stats()).collect();
        let engine = self.shard_engine();
        let cobs = scheduler::ClusterObs::new(&self.obs);
        let ctx = scheduler::RunContext {
            lineages,
            space,
            origins,
            features: &features,
            scores: &scores,
            engine: &engine,
            estimator: &self.estimator,
            caches: &cache_refs,
            policy: self.policy,
            deadline: self.budget.timeout.map(|t| start + t),
            max_work: self.budget.max_work,
            capture: plan.capture,
            obs: &cobs,
            fault: &self.fault,
        };
        let outcome = scheduler::execute(&ctx, queues, plan.handles);

        let deltas: Vec<CacheStats> =
            owned.iter().zip(&before).map(|(c, b)| c.stats().since(b)).collect();
        let mut shards = outcome.shards;
        if let CacheTopology::PerShard = self.topology {
            for (stats, delta) in shards.iter_mut().zip(&deltas) {
                stats.cache = *delta;
            }
        }

        // Fill the slots the scheduler never ran: a result settled up front,
        // or a copy of the representative's with `elapsed` zeroed — no work
        // ran for a duplicate (same contract as the unsharded engine).
        let mut slots = outcome.results;
        for (i, settled) in plan.settled.into_iter().enumerate() {
            if slots[i].is_none() {
                let copy = settled.or_else(|| {
                    let mut r = slots[plan.representative[i]].clone()?;
                    r.elapsed = Duration::ZERO;
                    Some(r)
                });
                slots[i] = copy;
            }
        }

        let result = ClusterBatchResult {
            results: slots.into_iter().map(|r| r.expect("every slot filled")).collect(),
            wall: start.elapsed(),
            shards,
            cache: merge_cache_stats(deltas),
            rounds: outcome.rounds,
        };
        (result, outcome.handles)
    }

    /// Instantiates the cache topology for one run: `owned` keeps per-batch
    /// caches alive, `per_shard[s]` indexes each shard's cache in it
    /// (`None` = caching disabled for that shard).
    fn cache_setup(&self) -> (Vec<Arc<SubformulaCache>>, Vec<Option<usize>>) {
        let shards = self.shards;
        match &self.topology {
            CacheTopology::Shared => {
                (vec![Arc::new(SubformulaCache::new())], vec![Some(0); shards])
            }
            CacheTopology::PerShard => (
                (0..shards).map(|_| Arc::new(SubformulaCache::new())).collect(),
                (0..shards).map(Some).collect(),
            ),
            CacheTopology::External(c) => (vec![Arc::clone(c)], vec![Some(0); shards]),
            CacheTopology::Disabled => (Vec::new(), vec![None; shards]),
        }
    }

    /// The per-item engine behind every shard worker: the cluster scheduler
    /// owns the deadline, so shard engines run with `timeout = None` and
    /// get per-item deadlines through `compute_item`.
    fn shard_engine(&self) -> ConfidenceEngine {
        let mut engine = ConfidenceEngine::new(self.method.clone())
            .with_budget(ConfidenceBudget { timeout: None, max_work: self.budget.max_work })
            .with_threads(1)
            .with_obs(&self.obs);
        if let Some(seed) = self.seed {
            engine = engine.with_seed(seed);
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::Clause;

    fn mixed_batch() -> (ProbabilitySpace, Vec<Dnf>) {
        let mut space = ProbabilitySpace::new();
        let mut lineages = Vec::new();
        for k in 0..8 {
            let len = if k % 2 == 0 { 2 } else { 6 };
            let vars: Vec<_> = (0..=len)
                .map(|i| space.add_bool(format!("v{k}_{i}"), 0.2 + 0.05 * (i % 5) as f64))
                .collect();
            lineages.push(Dnf::from_clauses(
                (0..len).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])),
            ));
        }
        (space, lineages)
    }

    #[test]
    fn empty_batch_is_empty() {
        let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(3);
        let out = cluster.confidence_batch::<Dnf>(&[], &ProbabilitySpace::new(), None);
        assert!(out.results.is_empty());
        assert!(out.all_converged());
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn cluster_matches_single_engine_bitwise_for_deterministic_methods() {
        let (space, lineages) = mixed_batch();
        for method in [
            ConfidenceMethod::DTreeExact,
            ConfidenceMethod::DTreeAbsolute(0.01),
            ConfidenceMethod::DTreeRelative(0.01),
        ] {
            let single =
                ConfidenceEngine::new(method.clone()).confidence_batch(&lineages, &space, None);
            for shards in [1, 2, 5] {
                let out = ClusterEngine::new(method.clone())
                    .with_shards(shards)
                    .confidence_batch(&lineages, &space, None);
                assert_eq!(out.results.len(), lineages.len());
                for (want, got) in single.results.iter().zip(&out.results) {
                    assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
                    assert_eq!(want.lower.to_bits(), got.lower.to_bits());
                    assert_eq!(want.upper.to_bits(), got.upper.to_bits());
                    assert_eq!(want.converged, got.converged);
                }
            }
        }
    }

    #[test]
    fn seeded_monte_carlo_is_reproducible_across_shard_counts_and_policies() {
        let (space, lineages) = mixed_batch();
        let method = ConfidenceMethod::KarpLuby { epsilon: 0.2, delta: 0.05 };
        let single = ConfidenceEngine::new(method.clone())
            .with_seed(0xc1a5)
            .confidence_batch(&lineages, &space, None);
        for (shards, policy) in [
            (1, SchedulePolicy::HardestFirst),
            (3, SchedulePolicy::HardestFirst),
            (3, SchedulePolicy::InputOrder),
        ] {
            let out = ClusterEngine::new(method.clone())
                .with_seed(0xc1a5)
                .with_shards(shards)
                .with_policy(policy)
                .confidence_batch(&lineages, &space, None);
            for (want, got) in single.results.iter().zip(&out.results) {
                assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let (space, lineages) = mixed_batch();
        let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(0);
        assert_eq!(cluster.shards(), 1);
        let out = cluster.confidence_batch(&lineages, &space, None);
        assert_eq!(out.results.len(), lineages.len());
        assert!(out.all_converged());
        assert_eq!(out.shards.len(), 1);
    }

    #[test]
    fn cache_topologies_agree_and_report_stats() {
        let (space, lineages) = mixed_batch();
        let method = ConfidenceMethod::DTreeAbsolute(0.001);
        let baseline = ClusterEngine::new(method.clone())
            .without_cache()
            .confidence_batch(&lineages, &space, None);
        assert_eq!(baseline.cache, CacheStats::default());
        for topology in [CacheTopology::Shared, CacheTopology::PerShard] {
            let out = ClusterEngine::new(method.clone())
                .with_shards(3)
                .with_cache_topology(topology)
                .confidence_batch(&lineages, &space, None);
            for (want, got) in baseline.results.iter().zip(&out.results) {
                assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
            }
            assert!(
                out.cache.hits + out.cache.misses > 0,
                "an enabled cache must see traffic: {:?}",
                out.cache
            );
        }
        // External cache: warm across batches.
        let external = Arc::new(SubformulaCache::new());
        let engine = ClusterEngine::new(method).with_shared_cache(Arc::clone(&external));
        let cold = engine.confidence_batch(&lineages, &space, None);
        let warm = engine.confidence_batch(&lineages, &space, None);
        assert!(warm.cache.hit_rate() > cold.cache.hit_rate());
        for (want, got) in baseline.results.iter().zip(&warm.results) {
            assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
        }
    }

    #[test]
    fn size_balanced_partitioner_spreads_work() {
        let (space, lineages) = mixed_batch();
        let out = ClusterEngine::new(ConfidenceMethod::DTreeExact)
            .with_shards(4)
            .with_partitioner(Arc::new(SizeBalancedPartitioner))
            .confidence_batch(&lineages, &space, None);
        assert!(out.all_converged());
        let assigned: Vec<usize> = out.shards.iter().map(|s| s.assigned).collect();
        assert_eq!(assigned.iter().sum::<usize>(), lineages.len());
        assert!(assigned.iter().all(|&a| a >= 1), "LPT should use all shards: {assigned:?}");
    }

    #[test]
    fn estimator_calibrates_from_batch_observations() {
        let (space, lineages) = mixed_batch();
        let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(2);
        assert_eq!(cluster.estimator().observations(), 0);
        cluster.confidence_batch(&lineages, &space, None);
        assert!(
            cluster.estimator().observations() >= lineages.len() as u64,
            "every d-tree item should calibrate the estimator"
        );
    }

    #[test]
    fn expired_deadline_returns_promptly_and_soundly() {
        let (space, lineages) = mixed_batch();
        let cluster = ClusterEngine::new(ConfidenceMethod::DTreeRelative(0.001))
            .with_shards(2)
            .with_budget(ConfidenceBudget { timeout: Some(Duration::ZERO), max_work: None });
        let t0 = Instant::now();
        let out = cluster.confidence_batch(&lineages, &space, None);
        assert!(t0.elapsed() < Duration::from_secs(2));
        assert_eq!(out.results.len(), lineages.len());
        for r in &out.results {
            assert!(!r.converged);
            assert!((0.0..=1.0).contains(&r.lower) && (0.0..=1.0).contains(&r.upper));
        }
    }

    /// Refinement rounds resume suspended d-tree frontiers instead of
    /// re-running items from scratch: a per-item step budget truncates every
    /// first run, and the rounds that follow must (a) be counted as resumed
    /// executions and (b) still reach the exact answers an unbudgeted engine
    /// computes.
    #[test]
    fn refinement_rounds_resume_suspended_frontiers() {
        let mut space = ProbabilitySpace::new();
        let mut lineages = Vec::new();
        for k in 0..4 {
            let vars: Vec<_> = (0..40)
                .map(|i| space.add_bool(format!("h{k}_{i}"), 0.15 + 0.02 * ((i + k) % 20) as f64))
                .collect();
            lineages.push(Dnf::from_clauses(
                (0..39).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])),
            ));
        }
        let reference = ConfidenceEngine::new(ConfidenceMethod::DTreeExact)
            .confidence_batch(&lineages, &space, None);
        let out = ClusterEngine::new(ConfidenceMethod::DTreeExact)
            .with_shards(2)
            .with_budget(ConfidenceBudget {
                timeout: Some(Duration::from_secs(2)),
                max_work: Some(3),
            })
            .confidence_batch(&lineages, &space, None);
        assert_eq!(out.results.len(), lineages.len());
        for r in &out.results {
            assert!(r.lower <= r.upper && (0.0..=1.0).contains(&r.lower), "unsound: {r:?}");
        }
        // Round 1 truncates every item at 3 steps, so with ~2s of runway a
        // second round must have run — by resuming, not recompiling.
        if out.rounds > 1 {
            assert!(out.total_resumed() > 0, "rounds after the first must resume: {out:?}");
        }
        for (r, want) in out.results.iter().zip(&reference.results) {
            if r.converged {
                assert!(
                    (r.estimate - want.estimate).abs() < 1e-9,
                    "resumed exact run diverged: {} vs {}",
                    r.estimate,
                    want.estimate
                );
            }
        }
    }

    /// Chain lineages over a shared space, hard enough that a small step
    /// budget truncates — the streaming-maintenance fixture.
    fn streaming_fixture() -> (ProbabilitySpace, Vec<Dnf>) {
        let mut space = ProbabilitySpace::new();
        let vars: Vec<_> =
            (0..34).map(|i| space.add_bool(format!("x{i}"), 0.15 + 0.02 * i as f64)).collect();
        let lineages: Vec<Dnf> = (0..3)
            .map(|k| {
                Dnf::from_clauses(
                    (0..22)
                        .map(|i| Clause::from_bools(&[vars[i + k], vars[i + k + 1]]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        (space, lineages)
    }

    /// `P(x₀x₁ ∨ x₁x₂ ∨ … ∨ xₘ₋₁xₘ ∨ t)` for independent variables with
    /// `P(xᵢ) = chain[i]` and `P(t) = fresh`, by a two-state transfer-matrix
    /// pass along the chain: the probability that no clause holds yet, split
    /// by whether the last variable is true.
    fn chain_or_fresh_probability(chain: &[f64], fresh: f64) -> f64 {
        let (mut last_false, mut last_true) = (1.0 - chain[0], chain[0]);
        for &p in &chain[1..] {
            (last_false, last_true) = ((last_false + last_true) * (1.0 - p), last_false * p);
        }
        1.0 - (last_false + last_true) * (1.0 - fresh)
    }

    /// The sharded maintenance round must take the same per-item paths as
    /// the flat engine — recompile on first sight, resume pooled frontiers
    /// after appends, snapshot unchanged items — and converge to the exact
    /// probabilities of the grown formulas.
    #[test]
    fn maintain_batch_resumes_pooled_frontiers_across_rounds() {
        let (mut space, mut lineages) = streaming_fixture();
        let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(2);
        let mut pool = ResumablePool::new(8);
        // Round 0: first sight under a step budget — every item compiles
        // from scratch, truncates, and parks its frontier in the pool.
        let none: Vec<Option<events::LineageDelta>> = vec![None; lineages.len()];
        let warm = cluster
            .clone()
            .with_budget(ConfidenceBudget { timeout: None, max_work: Some(4) })
            .maintain_batch(&lineages, &none, &space, None, &mut pool);
        assert_eq!(warm.total_resumed(), 0);
        assert!(!warm.all_converged());
        assert_eq!(pool.len(), lineages.len(), "truncated frontiers are pooled");
        // Round 1: append one fresh independent clause and one bridging
        // clause per item, then maintain with an unlimited budget.
        let mut deltas = Vec::new();
        let mut exact = Vec::new();
        for (i, lineage) in lineages.iter_mut().enumerate() {
            // The grown lineage is `chain ∨ t`: the bridge `old ∧ t` is
            // subsumed by `t`.
            let chain: Vec<_> = lineage.vars().into_iter().collect();
            assert!(lineage
                .clauses()
                .iter()
                .zip(chain.windows(2))
                .all(|(c, w)| c.vars().eq(w.to_vec())));
            let probs: Vec<f64> = chain.iter().map(|&v| space.prob_true(v)).collect();
            exact.push(chain_or_fresh_probability(&probs, 0.35));
            let fresh = space.add_bool(format!("t{i}"), 0.35);
            let old = lineage
                .clauses()
                .first()
                .and_then(|c| c.vars().next())
                .expect("chain lineage has variables");
            let grown = lineage.or(&Dnf::from_clauses(vec![
                Clause::from_bools(&[fresh]),
                Clause::from_bools(&[old, fresh]),
            ]));
            let delta = events::LineageDelta::between(lineage, &grown).expect("append-only growth");
            assert!(!delta.is_empty());
            deltas.push(Some(delta));
            *lineage = grown;
        }
        let r1 = cluster.maintain_batch(&lineages, &deltas, &space, None, &mut pool);
        assert_eq!(
            r1.total_resumed(),
            lineages.len(),
            "pooled frontiers must absorb the deltas and resume: {r1:?}"
        );
        assert!(r1.all_converged());
        for (&exact, got) in exact.iter().zip(&r1.results) {
            assert!(
                (got.estimate - exact).abs() < 1e-9,
                "maintained {} vs exact {exact}",
                got.estimate
            );
        }
        assert_eq!(pool.len(), lineages.len(), "converged frontiers stay pooled");
        for i in 0..lineages.len() {
            let curve = pool.get(i).map(|h| h.width_curve()).expect("every frontier is pooled");
            assert!(curve.len() >= 2, "curve records capture + resume samples: {curve:?}");
        }
        // Round 2: nothing changed — pure snapshots, no scheduling at all.
        let none: Vec<Option<events::LineageDelta>> = vec![None; lineages.len()];
        let r2 = cluster.maintain_batch(&lineages, &none, &space, None, &mut pool);
        assert_eq!(r2.shards.iter().map(|s| s.executed).sum::<usize>(), 0);
        assert!(r2.all_converged());
        for (a, b) in r1.results.iter().zip(&r2.results) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(b.elapsed, Duration::ZERO);
        }
        assert!((0..lineages.len()).all(|i| pool.get(i).is_some()));
    }

    /// Maintenance extracts an item's features only where they are read —
    /// a fresh run's calibration. The estimator must end up exactly where an
    /// eager pass over every scheduled item would have left it: one
    /// observation per fresh execution, each of the item's whole current
    /// lineage, so a following batch orders its queue as before.
    #[test]
    fn maintenance_observes_each_fresh_run_and_calibrates_as_an_eager_pass() {
        let o = obs::Obs::enabled();
        let (mut space, mut lineages) = streaming_fixture();
        let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact)
            .with_shards(1)
            .with_budget(ConfidenceBudget { timeout: None, max_work: Some(4) })
            .with_obs(&o);
        let reference = HardnessEstimator::new();
        let mut pool = ResumablePool::new(16);
        let mut fresh = 0;
        for round in 0..4 {
            let mut deltas: Vec<Option<events::LineageDelta>> = vec![None; lineages.len()];
            if round > 0 {
                // Grow item 0 by one clause over a fresh variable...
                let t = space.add_bool(format!("t{round}"), 0.4);
                let old = lineages[0].clauses()[0].vars().next().expect("chain variable");
                let grown = lineages[0].or(&Dnf::from_clauses(vec![Clause::from_bools(&[old, t])]));
                deltas[0] = events::LineageDelta::between(&lineages[0], &grown);
                lineages[0] = grown;
                // ...and add a new item, which runs fresh.
                let vars: Vec<_> = (0..16)
                    .map(|j| space.add_bool(format!("n{round}.{j}"), 0.2 + 0.03 * j as f64))
                    .collect();
                lineages.push(Dnf::from_clauses(
                    vars.windows(2).map(Clause::from_bools).collect::<Vec<_>>(),
                ));
                deltas.push(None);
            }
            let pooled: Vec<bool> = (0..lineages.len()).map(|i| pool.contains(i)).collect();
            let out = cluster.maintain_batch(&lineages, &deltas, &space, None, &mut pool);
            let executed: usize = out.shards.iter().map(|s| s.executed).sum();
            let fresh_items: Vec<usize> = (0..lineages.len()).filter(|&i| !pooled[i]).collect();
            assert_eq!(executed - out.total_resumed(), fresh_items.len(), "round {round}");
            // One shard runs fresh items (all scored 1.0) in index order.
            for &i in &fresh_items {
                let stats = out.results[i].stats.as_ref().expect("d-tree runs export stats");
                reference.observe(&LineageFeatures::of(&lineages[i]), stats);
            }
            fresh += fresh_items.len() as u64;
        }
        assert_eq!(fresh, 3 + 3, "three initial items, then one new item per round");
        assert_eq!(o.counter("cluster.hardness.observations").get(), fresh);
        assert_eq!(cluster.estimator().observations(), fresh);

        let calibrated: Vec<f64> = lineages.iter().map(|l| cluster.estimator().score(l)).collect();
        let expected: Vec<f64> = lineages.iter().map(|l| reference.score(l)).collect();
        let neutral: Vec<f64> =
            lineages.iter().map(|l| HardnessEstimator::new().score(l)).collect();
        assert_eq!(
            calibrated.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_ne!(calibrated, neutral, "the rounds moved the calibration");
        let order = |scores: &[f64]| {
            let mut queue: Vec<usize> = (0..scores.len()).collect();
            SchedulePolicy::HardestFirst.order(&mut queue, scores);
            queue
        };
        assert_ne!(order(&expected), order(&neutral), "calibration reorders the next batch");

        // The next batch runs its one queue in exactly that order.
        let seen = |o: &obs::Obs| o.snapshot().expect("enabled").events.last().map_or(0, |e| e.seq);
        let before = seen(&o);
        cluster.confidence_batch(&lineages, &space, None);
        let ran: Vec<usize> = o
            .snapshot()
            .expect("enabled")
            .events
            .iter()
            .filter(|e| e.seq > before && e.kind == "engine.item")
            .map(|e| match e.fields.iter().find(|(k, _)| k == "index") {
                Some((_, obs::FieldValue::U64(i))) => *i as usize,
                other => panic!("engine.item without an index: {other:?}"),
            })
            .collect();
        assert_eq!(ran, order(&expected));
    }

    /// Space invalidation between rounds poisons every pooled frontier; the
    /// next maintenance round must fail closed into scratch recompilation
    /// and still produce correct, converged answers.
    #[test]
    fn maintain_batch_fails_closed_on_invalidation() {
        let (mut space, lineages) = streaming_fixture();
        let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(2);
        let mut pool = ResumablePool::new(8);
        let none: Vec<Option<events::LineageDelta>> = vec![None; lineages.len()];
        cluster
            .clone()
            .with_budget(ConfidenceBudget { timeout: None, max_work: Some(4) })
            .maintain_batch(&lineages, &none, &space, None, &mut pool);
        assert!(!pool.is_empty());
        space.invalidate(); // in-place change: every pooled frontier is stale
        let out = cluster.maintain_batch(&lineages, &none, &space, None, &mut pool);
        assert_eq!(out.total_resumed(), 0, "stale frontiers must not be resumed: {out:?}");
        assert_eq!(
            out.shards.iter().map(|s| s.executed).sum::<usize>(),
            lineages.len(),
            "every item recompiles from scratch"
        );
        assert!(out.all_converged());
        for (lineage, got) in lineages.iter().zip(&out.results) {
            let exact = lineage.exact_probability_enumeration(&space);
            assert!((got.estimate - exact).abs() < 1e-9);
        }
    }

    /// Monte-Carlo methods have no incremental path: maintenance recomputes
    /// every item with its input-index seed, bit-identical to a plain batch
    /// over the same final lineages, and pools nothing.
    #[test]
    fn maintain_batch_monte_carlo_matches_plain_batch_bitwise() {
        let (space, lineages) = mixed_batch();
        let method = ConfidenceMethod::KarpLuby { epsilon: 0.2, delta: 0.05 };
        let cluster = ClusterEngine::new(method).with_seed(0xbeef).with_shards(3);
        let plain = cluster.confidence_batch(&lineages, &space, None);
        let mut pool = ResumablePool::new(8);
        let none: Vec<Option<events::LineageDelta>> = vec![None; lineages.len()];
        let maintained = cluster.maintain_batch(&lineages, &none, &space, None, &mut pool);
        for (want, got) in plain.results.iter().zip(&maintained.results) {
            assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
        }
        assert!(pool.is_empty(), "Monte-Carlo items are never pooled");
    }

    /// Satellite of the failure model: a worker panic kills its shard for
    /// the round, the panicked item is retried exactly once on a surviving
    /// shard, and — the retry having succeeded — the batch is bit-identical
    /// to a fault-free run. Zero degraded results, one counted death.
    #[test]
    fn one_shard_death_retries_the_item_elsewhere_and_loses_nothing() {
        use pdb::fault::{FaultPlan, FaultPolicy};
        let (space, lineages) = mixed_batch();
        let method = ConfidenceMethod::DTreeAbsolute(0.01);
        let clean = ClusterEngine::new(method.clone())
            .with_shards(2)
            .confidence_batch(&lineages, &space, None);
        let fault =
            FaultPlan::new(7).on("cluster.worker", FaultPolicy::PanicTimes { count: 1 }).build();
        let out = ClusterEngine::new(method)
            .with_shards(2)
            .with_fault(&fault)
            .confidence_batch(&lineages, &space, None);
        assert_eq!(fault.injected(), 1, "the schedule must actually fire");
        assert_eq!(out.total_deaths(), 1, "one worker panic, one counted death");
        assert_eq!(out.degraded_count(), 0, "the retry on the surviving shard succeeds");
        assert_eq!(out.results.len(), lineages.len());
        for (want, got) in clean.results.iter().zip(&out.results) {
            assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
            assert_eq!(want.lower.to_bits(), got.lower.to_bits());
            assert_eq!(want.upper.to_bits(), got.upper.to_bits());
        }
    }

    /// When every execution panics, both workers die, the exactly-once retry
    /// budget is spent, and the backstop degrades every item to the vacuous
    /// interval — the batch still returns a full, valid answer set.
    #[test]
    fn total_shard_loss_degrades_every_item_instead_of_panicking() {
        use pdb::confidence::DegradationReason;
        use pdb::fault::{FaultPlan, FaultPolicy};
        let (space, lineages) = mixed_batch();
        let fault = FaultPlan::new(7)
            .on("cluster.worker", FaultPolicy::PanicTimes { count: u64::MAX })
            .build();
        let out = ClusterEngine::new(ConfidenceMethod::DTreeAbsolute(0.01))
            .with_shards(2)
            .with_fault(&fault)
            .confidence_batch(&lineages, &space, None);
        assert_eq!(out.results.len(), lineages.len(), "no item may be lost");
        for r in &out.results {
            assert_eq!(r.degraded, Some(DegradationReason::ShardLost));
            assert!(!r.converged);
            assert_eq!((r.lower, r.upper), (0.0, 1.0), "degraded bounds stay sound");
        }
        assert!(out.total_deaths() >= 2, "both workers died: {}", out.total_deaths());
    }

    /// The headline robustness guarantee: killing one of four shards in the
    /// middle of a batch loses zero items — every lineage still reports a
    /// result, and (the retry succeeding) every value matches the fault-free
    /// run bit for bit.
    #[test]
    fn killing_one_of_four_shards_mid_batch_loses_zero_items() {
        use events::Clause;
        use pdb::fault::{FaultPlan, FaultPolicy};
        // A larger batch so the death lands mid-flight with plenty of
        // pending work in the dead shard's queue for the survivors to drain.
        let mut space = ProbabilitySpace::new();
        let mut lineages = Vec::new();
        for k in 0..16 {
            let len = 3 + k % 4;
            let vars: Vec<_> = (0..=len)
                .map(|i| space.add_bool(format!("w{k}_{i}"), 0.2 + 0.04 * (i % 7) as f64))
                .collect();
            lineages.push(Dnf::from_clauses(
                (0..len).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])),
            ));
        }
        let method = ConfidenceMethod::DTreeExact;
        let clean = ClusterEngine::new(method.clone())
            .with_shards(4)
            .confidence_batch(&lineages, &space, None);
        let fault =
            FaultPlan::new(11).on("cluster.worker", FaultPolicy::PanicTimes { count: 1 }).build();
        let out = ClusterEngine::new(method)
            .with_shards(4)
            .with_fault(&fault)
            .confidence_batch(&lineages, &space, None);
        assert_eq!(out.total_deaths(), 1);
        assert_eq!(out.degraded_count(), 0);
        assert_eq!(out.results.len(), lineages.len(), "zero items lost");
        for (want, got) in clean.results.iter().zip(&out.results) {
            assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
            assert_eq!(want.converged, got.converged);
        }
    }

    /// Shard deaths during maintenance rounds must not lose items either:
    /// the degraded item keeps a valid (vacuous) result and the *next*
    /// fault-free round recompiles it back to the exact answer.
    #[test]
    fn maintenance_recovers_items_degraded_by_a_dead_shard() {
        use pdb::fault::{FaultPlan, FaultPolicy};
        let (space, lineages) = streaming_fixture();
        let fault = FaultPlan::new(3)
            .on("cluster.worker", FaultPolicy::PanicTimes { count: u64::MAX })
            .build();
        let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(2);
        let mut pool = ResumablePool::new(8);
        let none: Vec<Option<events::LineageDelta>> = vec![None; lineages.len()];
        // Round 0 under total shard loss: everything degrades, nothing is
        // lost, nothing panics out.
        let hurt = cluster
            .clone()
            .with_fault(&fault)
            .maintain_batch(&lineages, &none, &space, None, &mut pool);
        assert_eq!(hurt.results.len(), lineages.len());
        assert_eq!(hurt.degraded_count(), lineages.len());
        // Round 1 without faults: every item recompiles from scratch and
        // reaches the exact answers.
        let healed = cluster.maintain_batch(&lineages, &none, &space, None, &mut pool);
        assert_eq!(healed.degraded_count(), 0);
        assert!(healed.all_converged());
        for (lineage, got) in lineages.iter().zip(&healed.results) {
            let exact = lineage.exact_probability_enumeration(&space);
            assert!((got.estimate - exact).abs() < 1e-9);
        }
    }
}
