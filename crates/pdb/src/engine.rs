//! Batched confidence computation: the [`ConfidenceEngine`].
//!
//! The paper's d-tree approximation (Section V) is meant to answer *whole
//! queries* — every answer tuple's lineage — under one budget. The
//! per-lineage [`crate::confidence::confidence`] front-end cannot exploit
//! that: it re-derives options per call, computes every sub-formula from
//! scratch, and applies budgets per lineage, so one hard lineage can eat the
//! whole experiment's time.
//!
//! [`ConfidenceEngine::confidence_batch`] fixes all three at once:
//!
//! * **Shared deadline** — the batch's [`ConfidenceBudget::timeout`] is
//!   converted into one absolute deadline; every lineage gets whatever time
//!   remains, so the batch as a whole terminates on schedule and stragglers
//!   return sound partial bounds with `converged = false`.
//! * **Parallelism** — lineages are distributed over a scoped thread pool
//!   ([`std::thread::scope`], no extra dependencies) with work stealing via
//!   an atomic cursor.
//! * **Shared memoization** — answer tuples of the same query overlap heavily
//!   in their lineage sub-formulas; a per-batch, thread-safe
//!   [`SubformulaCache`] lets every d-tree run reuse exact leaf probabilities
//!   and bucket bounds computed by any other run in the batch. Because all
//!   producers are deterministic, cached results are *bit-identical* to what
//!   the per-lineage front-end computes.
//!
//! Reproducibility: the Monte-Carlo methods seed from entropy by default.
//! Give the engine a base seed with [`ConfidenceEngine::with_seed`] and every
//! lineage `i` gets the deterministic per-item seed
//! [`ConfidenceEngine::item_seed`]`(base, i)`, independent of thread
//! scheduling, so batches are reproducible and comparable with seeded
//! per-lineage calls.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dtree::{CacheStats, SubformulaCache};
use events::{Dnf, ProbabilitySpace, VarOrigins};

use crate::confidence::{
    confidence_resumable, confidence_with, ConfidenceBudget, ConfidenceMethod, ConfidenceResult,
    DegradationReason, ResumableConfidence,
};
use crate::fault::Fault;

/// Pre-fetched observability handles for the engine's hot paths. Resolved
/// once in [`ConfidenceEngine::with_obs`]; the default records nowhere. All
/// handles are write-only — the engine never reads them back, so attaching
/// observability cannot change any result bit.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineObs {
    obs: obs::Obs,
    items: obs::Counter,
    items_converged: obs::Counter,
    items_truncated: obs::Counter,
    batches: obs::Counter,
    dedup_saved: obs::Counter,
    degraded: obs::Counter,
    item_seconds: obs::Histogram,
    item_width: obs::Histogram,
    batch_seconds: obs::Histogram,
}

impl EngineObs {
    fn new(o: &obs::Obs) -> EngineObs {
        EngineObs {
            obs: o.clone(),
            items: o.counter("engine.items"),
            items_converged: o.counter("engine.items_converged"),
            items_truncated: o.counter("engine.items_truncated"),
            batches: o.counter("engine.batches"),
            dedup_saved: o.counter("engine.dedup_saved"),
            degraded: o.counter("engine.degraded"),
            item_seconds: o.histogram("engine.item_seconds"),
            item_width: o.histogram("engine.item_width"),
            batch_seconds: o.histogram("engine.batch_seconds"),
        }
    }
}

/// Result of a batched confidence computation.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-lineage results, in input order.
    pub results: Vec<ConfidenceResult>,
    /// Wall-clock time for the whole batch (not the sum of per-item times —
    /// with `n` threads this is roughly the sum divided by `n`).
    pub wall: Duration,
    /// Effectiveness counters of the sub-formula cache **for this batch**
    /// (all zeros when the cache was disabled). For a long-lived cache
    /// attached with [`ConfidenceEngine::with_shared_cache`] the hit, miss,
    /// stale, and eviction counters are deltas over the batch, while
    /// `entries` is the cache's size after the batch. The deltas are
    /// before/after snapshots of the cache's global counters: when *other*
    /// batches run concurrently against the same `Arc`, their traffic lands
    /// in whichever overlapping snapshot windows observe it, so per-batch
    /// attribution is only exact for non-overlapping batches (results are
    /// unaffected either way).
    pub cache: CacheStats,
}

impl BatchResult {
    /// `true` when every lineage met its guarantee within the budget.
    pub fn all_converged(&self) -> bool {
        self.results.iter().all(|r| r.converged)
    }

    /// Sum of the per-item algorithm times (the quantity the paper reports
    /// for multi-answer queries).
    pub fn total_compute(&self) -> Duration {
        self.results.iter().map(|r| r.elapsed).sum()
    }
}

/// Computes the confidences of a whole query result — all answer tuples'
/// lineages — in one call. See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct ConfidenceEngine {
    method: ConfidenceMethod,
    budget: ConfidenceBudget,
    threads: Option<usize>,
    seed: Option<u64>,
    share_cache: bool,
    shared_cache: Option<Arc<SubformulaCache>>,
    obs: EngineObs,
    fault: Fault,
}

impl ConfidenceEngine {
    /// An engine for the given method with no budget, automatic parallelism,
    /// entropy-seeded Monte-Carlo, and a per-batch shared cache enabled.
    pub fn new(method: ConfidenceMethod) -> Self {
        ConfidenceEngine {
            method,
            budget: ConfidenceBudget::default(),
            threads: None,
            seed: None,
            share_cache: true,
            shared_cache: None,
            obs: EngineObs::default(),
            fault: Fault::disabled(),
        }
    }

    /// Sets the per-batch budget. The `timeout` is a *shared deadline*: it
    /// bounds the whole batch, not each lineage. `max_work` still applies per
    /// lineage (it bounds decomposition steps / samples, which are per-run
    /// quantities).
    pub fn with_budget(mut self, budget: ConfidenceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Fixes the number of worker threads (default: one per available CPU,
    /// capped by the batch size). `1` forces sequential evaluation.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Sets a base seed making the Monte-Carlo methods reproducible: lineage
    /// `i` is evaluated with [`ConfidenceEngine::item_seed`]`(seed, i)`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Attaches an externally owned, long-lived sub-formula cache, shared
    /// across every batch this engine (and any other engine holding the same
    /// [`Arc`]) runs. This is the **cross-batch** mode for production traffic
    /// that repeats queries: the second batch of a repeated query starts with
    /// every exact leaf probability and bucket bound already warm.
    ///
    /// Entries are validated against the probability space's
    /// [`generation`](events::ProbabilitySpace::generation), so the cache
    /// survives database mutations: stale entries turn into misses and are
    /// overwritten, never served. Each sub-formula entry holds the value of
    /// one generation at a time, so the intended pattern is one *live* space
    /// per cache — interleaving batches from several spaces stays correct
    /// but makes spaces whose sub-formulas share hashes overwrite each
    /// other's entries, running those keys cold. Build the cache with
    /// [`SubformulaCache::with_capacity`] to bound its memory; eviction
    /// churn never changes results, only hit rates — cached and uncached
    /// runs are bit-identical.
    pub fn with_shared_cache(mut self, cache: Arc<SubformulaCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Disables sub-formula caching entirely — both the default per-batch
    /// cache and any cache attached with
    /// [`ConfidenceEngine::with_shared_cache`] (useful for measuring the
    /// cache's effect; results are identical either way).
    pub fn without_cache(mut self) -> Self {
        self.share_cache = false;
        self.shared_cache = None;
        self
    }

    /// Attaches observability: batches and items record counts, outcomes,
    /// latencies, and interval widths into `o`'s registry (one `engine.item`
    /// trace event per computed item, one `engine.batch` event per batch),
    /// and every resumable handle the engine creates inherits the d-tree
    /// slice instrumentation. Handles are write-only; results are
    /// bit-identical with or without an attached registry.
    pub fn with_obs(mut self, o: &obs::Obs) -> Self {
        self.obs = EngineObs::new(o);
        self
    }

    /// Attaches a fault-injection plan (see [`crate::fault`]). The batch
    /// path checks the `"engine.item"` site once per item with the item's
    /// **input index** as the decision token, so injected panics and errors
    /// are a pure function of `(plan seed, index)` — independent of thread
    /// scheduling — and same-seed replays degrade the same items. With the
    /// default [`Fault::disabled`] every check is a free no-op.
    pub fn with_fault(mut self, fault: &Fault) -> Self {
        self.fault = fault.clone();
        self
    }

    /// Builds, records, and returns the **degraded** result for item `index`:
    /// the vacuous (but sound) interval `[0, 1]` with `converged = false` and
    /// `degraded = Some(reason)`. This is the graceful-degradation contract —
    /// when an item's computation is lost to a panic, a dead shard, or
    /// exhausted retries, the batch still returns a valid answer for every
    /// item and says *why* this one carries no information. Schedulers
    /// layered above the engine (the `cluster` crate) call this too, so all
    /// degradations land in the engine's `engine.degraded` counter and
    /// `engine.degraded` trace events.
    pub fn degrade_item(&self, index: usize, reason: DegradationReason) -> ConfidenceResult {
        let r = ConfidenceResult {
            estimate: 0.5,
            lower: 0.0,
            upper: 1.0,
            converged: false,
            elapsed: Duration::ZERO,
            method: self.method.label(),
            stats: None,
            degraded: Some(reason),
        };
        self.obs.degraded.inc();
        self.obs
            .obs
            .event("engine.degraded")
            .u64("index", index as u64)
            .str("reason", &reason.to_string())
            .emit();
        self.record_item(index, &r);
        r
    }

    /// [`ConfidenceEngine::compute_item`] behind the fault boundary used by
    /// the batch paths: checks the `"engine.item"` failpoint (token = input
    /// index) and isolates panics — injected or real — with
    /// [`catch_unwind`], degrading the item instead of unwinding the batch.
    fn compute_item_isolated(
        &self,
        lineage: &Dnf,
        space: &ProbabilitySpace,
        origins: Option<&VarOrigins>,
        index: usize,
        deadline: Option<Instant>,
        cache: Option<&SubformulaCache>,
    ) -> ConfidenceResult {
        match catch_unwind(AssertUnwindSafe(|| {
            self.fault
                .check_at("engine.item", index as u64)
                .map(|()| self.compute_item(lineage, space, origins, index, deadline, cache))
        })) {
            Ok(Ok(r)) => r,
            Ok(Err(_)) | Err(_) => self.degrade_item(index, DegradationReason::WorkerPanic),
        }
    }

    /// Records one computed item's outcome (no-op without an attached
    /// registry). Called from the single per-item choke points, so batch and
    /// cluster-scheduler traffic both land here.
    fn record_item(&self, index: usize, r: &ConfidenceResult) {
        self.obs.items.inc();
        if r.converged {
            self.obs.items_converged.inc();
        } else {
            self.obs.items_truncated.inc();
        }
        self.obs.item_seconds.record_duration(r.elapsed);
        self.obs.item_width.record(r.upper - r.lower);
        self.obs
            .obs
            .event("engine.item")
            .u64("index", index as u64)
            .str("method", &r.method)
            .bool("converged", r.converged)
            .f64("seconds", r.elapsed.as_secs_f64())
            .f64("width", r.upper - r.lower)
            .emit();
    }

    /// The deterministic per-item seed derived from a base seed, independent
    /// of thread scheduling (SplitMix64 over `base ⊕ index`).
    pub fn item_seed(base: u64, index: usize) -> u64 {
        let mut x = base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Computes the confidence of every lineage in `lineages` (accepts
    /// `&[Dnf]` as well as `&[&Dnf]`) over one shared probability space.
    ///
    /// Results come back in input order. With no timeout set the results are
    /// bit-identical to calling [`crate::confidence::confidence`] (or, for
    /// seeded engines, [`confidence_with`] with the matching item seed) on
    /// each lineage — batching changes the work done, never the answers.
    ///
    /// For the deterministic d-tree methods, *duplicate* lineages in the
    /// batch (common in answer relations with symmetries, and in user
    /// traffic repeating the same query) are detected up front by canonical
    /// hash (verified by structural equality) and evaluated once; the
    /// duplicate receives a copy of the result with `elapsed` zeroed (no
    /// work ran for it), identical in every value-bearing field.
    pub fn confidence_batch<L: AsRef<Dnf> + Sync>(
        &self,
        lineages: &[L],
        space: &ProbabilitySpace,
        origins: Option<&VarOrigins>,
    ) -> BatchResult {
        let start = Instant::now();
        let deadline = self.budget.timeout.map(|t| start + t);
        // Cache selection: an attached long-lived cache wins; otherwise a
        // fresh per-batch cache (the default), or nothing. Stats are reported
        // as deltas so a long-lived cache's history does not drown the
        // current batch's hit rate.
        let per_batch = if self.share_cache && self.shared_cache.is_none() {
            Some(SubformulaCache::new())
        } else {
            None
        };
        let cache: Option<&SubformulaCache> = self.shared_cache.as_deref().or(per_batch.as_ref());
        let cache_before = cache.map(SubformulaCache::stats).unwrap_or_default();

        // `representative[i]` is the first index holding a lineage identical
        // to `lineages[i]`; only representatives are evaluated. Monte-Carlo
        // methods keep their per-item seeds, so every item stays its own
        // representative there.
        let (representative, work) = dedup_lineages(&self.method, lineages);

        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            .min(work.len().max(1));

        let mut slots: Vec<Option<ConfidenceResult>> = vec![None; lineages.len()];
        if threads <= 1 {
            for &i in &work {
                slots[i] = Some(self.compute_item_isolated(
                    lineages[i].as_ref(),
                    space,
                    origins,
                    i,
                    deadline,
                    cache,
                ));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let out = Mutex::new(&mut slots);
            let work = &work;
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let w = cursor.fetch_add(1, Ordering::Relaxed);
                        if w >= work.len() {
                            break;
                        }
                        let i = work[w];
                        let r = self.compute_item_isolated(
                            lineages[i].as_ref(),
                            space,
                            origins,
                            i,
                            deadline,
                            cache,
                        );
                        out.lock().expect("result slots poisoned")[i] = Some(r);
                    });
                }
            });
        }

        // Replicate representative results onto their duplicates. The copy
        // carries zero `elapsed`: no work ran for the duplicate, and summed
        // timing metrics (`total_compute`, the bench harness) must not count
        // the representative's time twice.
        for i in 0..lineages.len() {
            if slots[i].is_none() {
                let mut r = slots[representative[i]].clone().expect("representative evaluated");
                r.elapsed = Duration::ZERO;
                slots[i] = Some(r);
            }
        }

        let wall = start.elapsed();
        self.obs.batches.inc();
        self.obs.dedup_saved.add((lineages.len() - work.len()) as u64);
        self.obs.batch_seconds.record_duration(wall);
        self.obs
            .obs
            .event("engine.batch")
            .u64("items", lineages.len() as u64)
            .u64("deduped", (lineages.len() - work.len()) as u64)
            .f64("seconds", wall.as_secs_f64())
            .emit();
        BatchResult {
            results: slots.into_iter().map(|r| r.expect("every slot filled")).collect(),
            wall,
            cache: cache.map(|c| c.stats().since(&cache_before)).unwrap_or_default(),
        }
    }

    /// Computes one batch item exactly as [`ConfidenceEngine::confidence_batch`]
    /// does internally: the remaining time until `deadline` becomes the item's
    /// timeout (items starting past the deadline short-circuit to an immediate
    /// non-converged result), `index` derives the per-item Monte-Carlo seed
    /// from the engine's base seed, and `cache` supplies the sub-formula memo.
    ///
    /// This is the per-item hook for schedulers layered *above* the engine
    /// (e.g. the `cluster` crate's sharded, deadline-aware scheduler), which
    /// need to pick their own item order, per-item deadlines, and cache
    /// topology while keeping results bit-identical to a plain batch: calling
    /// this with the same index, an unexpired deadline, and any cache yields
    /// the same value-bearing fields as [`ConfidenceEngine::confidence_batch`]
    /// for deterministic methods, and the same seeded estimates for
    /// Monte-Carlo ones. The engine's own `timeout` is ignored here —
    /// `deadline` replaces it; `max_work` still applies per item.
    pub fn compute_item(
        &self,
        lineage: &Dnf,
        space: &ProbabilitySpace,
        origins: Option<&VarOrigins>,
        index: usize,
        deadline: Option<Instant>,
        cache: Option<&SubformulaCache>,
    ) -> ConfidenceResult {
        let item_budget = match self.item_budget(lineage, deadline) {
            Ok(budget) => budget,
            Err(short_circuit) => {
                self.record_item(index, &short_circuit);
                return *short_circuit;
            }
        };
        let seed = self.seed.map(|base| Self::item_seed(base, index));
        let r = confidence_with(lineage, space, origins, &self.method, &item_budget, seed, cache);
        self.record_item(index, &r);
        r
    }

    /// [`ConfidenceEngine::compute_item`], but for anytime d-tree runs the
    /// second return value carries a [`ResumableConfidence`] handle over the
    /// item's d-tree frontier (see [`confidence_resumable`]): open after a
    /// budget truncation, settled after convergence. Schedulers hold the
    /// handle and spend later refinement rounds resuming it — or route
    /// streaming deltas into it — instead of recompiling the item.
    /// The first return value is identical to what
    /// [`ConfidenceEngine::compute_item`] reports for the same call.
    pub fn compute_item_resumable(
        &self,
        lineage: &Dnf,
        space: &ProbabilitySpace,
        origins: Option<&VarOrigins>,
        index: usize,
        deadline: Option<Instant>,
        cache: Option<&SubformulaCache>,
    ) -> (ConfidenceResult, Option<ResumableConfidence>) {
        let item_budget = match self.item_budget(lineage, deadline) {
            Ok(budget) => budget,
            Err(short_circuit) => {
                self.record_item(index, &short_circuit);
                return (*short_circuit, None);
            }
        };
        let seed = self.seed.map(|base| Self::item_seed(base, index));
        let (r, mut handle) =
            confidence_resumable(lineage, space, origins, &self.method, &item_budget, seed, cache);
        if let Some(h) = handle.as_mut() {
            h.attach_obs(&self.obs.obs);
        }
        self.record_item(index, &r);
        (r, handle)
    }

    /// The per-item budget derived from the shared deadline, or (`Err`) the
    /// immediate result for items starting past the deadline.
    ///
    /// Whatever time remains until the shared deadline is this item's
    /// timeout. Items that start *after* the deadline short-circuit to an
    /// immediate non-converged result with the vacuous (but sound)
    /// interval [0, 1]: handing them a zero timeout instead would still
    /// pay the full per-item setup — DNF preparation and, for the
    /// Monte-Carlo methods, the whole DKLR estimation block — once per
    /// straggler, so a tight deadline over a large batch would overrun by
    /// the sum of those setup costs.
    fn item_budget(
        &self,
        lineage: &Dnf,
        deadline: Option<Instant>,
    ) -> Result<ConfidenceBudget, Box<ConfidenceResult>> {
        match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    // Constant lineages are knowable in O(1) even now —
                    // don't replace an exact answer with a vacuous one.
                    if lineage.is_tautology() || lineage.is_empty() {
                        let p = if lineage.is_tautology() { 1.0 } else { 0.0 };
                        return Err(Box::new(ConfidenceResult {
                            estimate: p,
                            lower: p,
                            upper: p,
                            converged: true,
                            elapsed: Duration::ZERO,
                            method: self.method.label(),
                            stats: None,
                            degraded: None,
                        }));
                    }
                    return Err(Box::new(ConfidenceResult {
                        estimate: 0.5,
                        lower: 0.0,
                        upper: 1.0,
                        converged: false,
                        elapsed: Duration::ZERO,
                        method: self.method.label(),
                        stats: None,
                        degraded: None,
                    }));
                }
                Ok(ConfidenceBudget { timeout: Some(remaining), max_work: self.budget.max_work })
            }
            None => Ok(ConfidenceBudget { timeout: None, max_work: self.budget.max_work }),
        }
    }
}

/// Detects duplicate lineages in a batch (common in answer relations with
/// symmetries, and in user traffic repeating the same query) by canonical
/// hash, verified by structural equality so a hash collision can never alias
/// two different formulas. Identical lineages have equally many clauses, so
/// only a lineage whose clause count another lineage of the batch shares is
/// hashed; the rest cannot have a twin.
///
/// Returns `(representative, work)`: `representative[i]` is the first index
/// holding a lineage identical to `lineages[i]`, and `work` lists the
/// representatives — the items actually worth evaluating — in input order.
/// For non-deterministic methods ([`ConfidenceMethod::is_deterministic`])
/// the identity mapping comes back — every item carries its own seed and
/// must run. Shared by [`ConfidenceEngine::confidence_batch`] and
/// cluster-level schedulers so both sides of the bit-identity contract
/// deduplicate identically.
pub fn dedup_lineages<L: AsRef<Dnf>>(
    method: &ConfidenceMethod,
    lineages: &[L],
) -> (Vec<usize>, Vec<usize>) {
    let mut representative: Vec<usize> = (0..lineages.len()).collect();
    let mut work: Vec<usize> = Vec::with_capacity(lineages.len());
    if !method.is_deterministic() {
        work.extend(0..lineages.len());
        return (representative, work);
    }
    let mut lengths: HashMap<usize, usize> = HashMap::with_capacity(lineages.len());
    for lineage in lineages {
        *lengths.entry(lineage.as_ref().len()).or_default() += 1;
    }
    let mut seen: HashMap<events::DnfHash, usize> = HashMap::new();
    for (i, lineage) in lineages.iter().enumerate() {
        if lengths[&lineage.as_ref().len()] == 1 {
            work.push(i);
            continue;
        }
        let rep = *seen.entry(lineage.as_ref().canonical_hash()).or_insert(i);
        if rep != i && lineages[rep].as_ref() == lineage.as_ref() {
            representative[i] = rep;
        } else {
            work.push(i);
        }
    }
    (representative, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::confidence;
    use crate::database::Database;
    use crate::value::Value;
    use crate::{ConjunctiveQuery, Term};

    /// A join query with several answer tuples whose lineages overlap.
    fn answers_db() -> (Database, Vec<Dnf>) {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "R",
            &["a"],
            (0..4).map(|i| (vec![Value::Int(i)], 0.2 + 0.1 * i as f64)).collect(),
        );
        db.add_tuple_independent_table(
            "S",
            &["a", "b"],
            (0..4)
                .flat_map(|a| (0..3).map(move |b| (vec![Value::Int(a), Value::Int(b)], 0.5)))
                .collect(),
        );
        let q = ConjunctiveQuery::new("q")
            .with_subgoal("R", vec![Term::var("A")])
            .with_subgoal("S", vec![Term::var("A"), Term::var("B")]);
        let lineages = q.evaluate(&db).into_iter().map(|a| a.lineage).collect();
        (db, lineages)
    }

    #[test]
    fn empty_batch_is_empty() {
        let (db, _) = answers_db();
        let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeExact);
        let out = engine.confidence_batch::<Dnf>(&[], db.space(), None);
        assert!(out.results.is_empty());
        assert!(out.all_converged());
    }

    #[test]
    fn batch_matches_per_lineage_calls_bitwise() {
        let (db, lineages) = answers_db();
        let budget = ConfidenceBudget::default();
        for method in [
            ConfidenceMethod::DTreeExact,
            ConfidenceMethod::DTreeAbsolute(0.01),
            ConfidenceMethod::DTreeRelative(0.01),
        ] {
            let engine = ConfidenceEngine::new(method.clone()).with_threads(2);
            let batch = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
            assert_eq!(batch.results.len(), lineages.len());
            for (lineage, got) in lineages.iter().zip(&batch.results) {
                let want = confidence(lineage, db.space(), Some(db.origins()), &method, &budget);
                assert_eq!(want.estimate.to_bits(), got.estimate.to_bits(), "{}", want.method);
                assert_eq!(want.lower.to_bits(), got.lower.to_bits());
                assert_eq!(want.upper.to_bits(), got.upper.to_bits());
                assert_eq!(want.converged, got.converged);
            }
        }
    }

    #[test]
    fn seeded_batches_are_reproducible_across_thread_counts() {
        let (db, lineages) = answers_db();
        let method = ConfidenceMethod::KarpLuby { epsilon: 0.1, delta: 0.01 };
        let sequential = ConfidenceEngine::new(method.clone())
            .with_seed(0xfeed)
            .with_threads(1)
            .confidence_batch(&lineages, db.space(), None);
        let parallel = ConfidenceEngine::new(method)
            .with_seed(0xfeed)
            .with_threads(4)
            .confidence_batch(&lineages, db.space(), None);
        for (a, b) in sequential.results.iter().zip(&parallel.results) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
    }

    #[test]
    fn cache_on_and_off_agree() {
        let (db, lineages) = answers_db();
        let method = ConfidenceMethod::DTreeAbsolute(0.001);
        let with_cache = ConfidenceEngine::new(method.clone()).confidence_batch(
            &lineages,
            db.space(),
            Some(db.origins()),
        );
        let without = ConfidenceEngine::new(method).without_cache().confidence_batch(
            &lineages,
            db.space(),
            Some(db.origins()),
        );
        assert_eq!(without.cache, CacheStats::default());
        for (a, b) in with_cache.results.iter().zip(&without.results) {
            assert!((a.estimate - b.estimate).abs() < 1e-12);
        }
    }

    #[test]
    fn shared_deadline_bounds_the_whole_batch() {
        // Hard chain lineages that cannot finish exactly in a few
        // milliseconds each.
        let mut s = ProbabilitySpace::new();
        let vars: Vec<_> =
            (0..40).map(|i| s.add_bool(format!("x{i}"), 0.2 + 0.015 * i as f64)).collect();
        let lineages: Vec<Dnf> = (0..6)
            .map(|k| {
                Dnf::from_clauses(
                    (0..30)
                        .map(|i| {
                            events::Clause::from_bools(&[vars[i + (k % 8)], vars[i + (k % 8) + 1]])
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeExact)
            .with_budget(ConfidenceBudget {
                timeout: Some(Duration::from_millis(30)),
                max_work: None,
            })
            .with_threads(2);
        let t0 = Instant::now();
        let out = engine.confidence_batch(&lineages, &s, None);
        assert_eq!(out.results.len(), lineages.len());
        // Generous slack for slow CI machines: the point is that the batch
        // does not take ~6 × the per-item worst case.
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn duplicate_lineages_are_deduplicated_without_changing_results() {
        let (db, mut lineages) = answers_db();
        // Duplicate every lineage (like a symmetric answer relation would).
        let copies: Vec<Dnf> = lineages.clone();
        lineages.extend(copies);
        let method = ConfidenceMethod::DTreeAbsolute(0.01);
        let engine = ConfidenceEngine::new(method.clone()).with_threads(2);
        let batch = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
        let half = lineages.len() / 2;
        for (i, (lineage, got)) in lineages.iter().zip(&batch.results).take(half).enumerate() {
            // The duplicate's result is bit-identical to its original …
            assert_eq!(got.estimate.to_bits(), batch.results[half + i].estimate.to_bits());
            // … and both match the per-lineage front-end.
            let want = confidence(
                lineage,
                db.space(),
                Some(db.origins()),
                &method,
                &ConfidenceBudget::default(),
            );
            assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
        }
    }

    /// Reference dedup that hashes every lineage: the first lineage of each
    /// hash represents the identical ones after it.
    fn dedup_hashing_every_lineage(lineages: &[Dnf]) -> (Vec<usize>, Vec<usize>) {
        let mut representative: Vec<usize> = (0..lineages.len()).collect();
        let mut work: Vec<usize> = Vec::with_capacity(lineages.len());
        let mut seen: HashMap<events::DnfHash, usize> = HashMap::new();
        for (i, lineage) in lineages.iter().enumerate() {
            let rep = *seen.entry(lineage.canonical_hash()).or_insert(i);
            if rep != i && &lineages[rep] == lineage {
                representative[i] = rep;
            } else {
                work.push(i);
            }
        }
        (representative, work)
    }

    #[test]
    fn dedup_matches_hashing_every_lineage_on_random_batches() {
        let mut state = 0x5EED_u64;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for _ in 0..300 {
            // A small pool of distinct lineages, several of each length, drawn
            // with repetition: duplicates, singletons and shared lengths.
            let pool: Vec<Dnf> = (0..1 + next(6))
                .map(|_| {
                    let clauses = 1 + next(4);
                    Dnf::from_clauses((0..clauses).map(|_| {
                        events::Clause::from_bools(&[
                            events::VarId(next(6) as u32),
                            events::VarId(next(6) as u32),
                        ])
                    }))
                })
                .collect();
            let batch: Vec<Dnf> =
                (0..next(10)).map(|_| pool[next(pool.len() as u64) as usize].clone()).collect();
            let want = dedup_hashing_every_lineage(&batch);
            assert_eq!(dedup_lineages(&ConfidenceMethod::DTreeExact, &batch), want);
            let seeded = ConfidenceMethod::KarpLuby { epsilon: 0.1, delta: 0.01 };
            let identity: Vec<usize> = (0..batch.len()).collect();
            assert_eq!(dedup_lineages(&seeded, &batch), (identity.clone(), identity));
        }
    }

    #[test]
    fn shared_cache_survives_batches_and_stays_bit_identical() {
        let (db, lineages) = answers_db();
        let method = ConfidenceMethod::DTreeAbsolute(0.001);
        let baseline = ConfidenceEngine::new(method.clone()).without_cache().confidence_batch(
            &lineages,
            db.space(),
            Some(db.origins()),
        );
        let cache = Arc::new(SubformulaCache::with_capacity(4096));
        let engine = ConfidenceEngine::new(method).with_shared_cache(Arc::clone(&cache));
        let cold = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
        let warm = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
        // The warm batch is served from the cross-batch cache …
        assert!(warm.cache.hits > 0, "warm batch saw no hits: {:?}", warm.cache);
        assert!(
            warm.cache.hit_rate() > cold.cache.hit_rate(),
            "warm {:?} vs cold {:?}",
            warm.cache,
            cold.cache
        );
        // … and every result, cold or warm, is bit-identical to the uncached
        // baseline.
        for batch in [&cold, &warm] {
            for (want, got) in baseline.results.iter().zip(&batch.results) {
                assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
                assert_eq!(want.lower.to_bits(), got.lower.to_bits());
                assert_eq!(want.upper.to_bits(), got.upper.to_bits());
            }
        }
    }

    /// Watermark-scoped invalidation (the append-only fast path): inserting a
    /// *fresh* table only appends independent variables, so the warm entries
    /// for the old lineages keep serving — the second batch sees warm hits
    /// and zero stale lookups. A genuine in-place change (replacing a table)
    /// still retires everything. Results are bit-identical throughout: warm
    /// or cold, a cache can only change the work done, never an answer.
    #[test]
    fn fresh_table_keeps_shared_cache_warm_but_replacement_invalidates() {
        let (mut db, lineages) = answers_db();
        let method = ConfidenceMethod::DTreeAbsolute(0.001);
        let cache = Arc::new(SubformulaCache::new());
        let engine = ConfidenceEngine::new(method).with_shared_cache(Arc::clone(&cache));
        let before = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
        // Insert a fresh table: append-only growth, entries stay warm.
        db.add_tuple_independent_table("T", &["z"], vec![(vec![Value::Int(0)], 0.5)]);
        let warm = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
        assert!(warm.cache.hits > 0, "expected warm hits after an insert: {:?}", warm.cache);
        assert_eq!(warm.cache.stale, 0, "no entry may look stale after an insert");
        // Replace an existing table: a genuine in-place change retires the
        // warm entries (stale lookups), and answers are recomputed — the old
        // lineages still reference the *old* variables, whose distributions
        // are unchanged in the space, so the values stay bit-identical.
        db.add_tuple_independent_table("T", &["z"], vec![(vec![Value::Int(1)], 0.25)]);
        let cold = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
        assert!(cold.cache.stale > 0, "expected stale lookups: {:?}", cold.cache);
        for ((a, b), c) in before.results.iter().zip(&warm.results).zip(&cold.results) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.lower.to_bits(), b.lower.to_bits());
            assert_eq!(a.upper.to_bits(), b.upper.to_bits());
            assert_eq!(a.estimate.to_bits(), c.estimate.to_bits());
        }
    }

    /// Batch-level promptness of the short-circuit lives in
    /// `tests/cache_reuse.rs`; this covers the item-level contract: past the
    /// deadline, constant lineages keep their exact O(1) answers while
    /// everything else gets the vacuous non-converged interval.
    #[test]
    fn past_deadline_items_keep_trivial_lineages_exact() {
        let (db, mut lineages) = answers_db();
        let n_real = lineages.len();
        lineages.push(Dnf::tautology());
        lineages.push(Dnf::empty());
        let engine =
            ConfidenceEngine::new(ConfidenceMethod::KarpLuby { epsilon: 0.01, delta: 0.01 })
                .with_budget(ConfidenceBudget { timeout: Some(Duration::ZERO), max_work: None })
                .with_threads(2);
        let out = engine.confidence_batch(&lineages, db.space(), None);
        for r in &out.results[..n_real] {
            assert!(!r.converged);
            assert_eq!((r.lower, r.upper), (0.0, 1.0));
            assert_eq!(r.elapsed, Duration::ZERO);
        }
        let taut = &out.results[n_real];
        assert!(taut.converged);
        assert_eq!((taut.estimate, taut.lower, taut.upper), (1.0, 1.0, 1.0));
        let empty = &out.results[n_real + 1];
        assert!(empty.converged);
        assert_eq!((empty.estimate, empty.lower, empty.upper), (0.0, 0.0, 0.0));
    }

    /// Degenerate thread counts must be clamped to ≥ 1, not spawn a
    /// zero-thread scope that would never fill any result slot.
    #[test]
    fn with_threads_zero_is_clamped_to_sequential() {
        let (db, lineages) = answers_db();
        let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeExact).with_threads(0);
        assert_eq!(engine.threads, Some(1));
        let out = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
        assert_eq!(out.results.len(), lineages.len());
        assert!(out.all_converged());
        // … and the clamped engine matches an explicitly sequential one.
        let sequential = ConfidenceEngine::new(ConfidenceMethod::DTreeExact)
            .with_threads(1)
            .confidence_batch(&lineages, db.space(), Some(db.origins()));
        for (a, b) in out.results.iter().zip(&sequential.results) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
    }

    /// The per-item hook used by cluster-level schedulers returns the same
    /// value-bearing fields as the batch path, and d-tree items expose their
    /// `CompileStats` for hardness calibration.
    #[test]
    fn compute_item_matches_batch_and_exposes_stats() {
        let (db, lineages) = answers_db();
        let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeAbsolute(0.01));
        let batch = engine.confidence_batch(&lineages, db.space(), Some(db.origins()));
        for (i, lineage) in lineages.iter().enumerate() {
            let item = engine.compute_item(lineage, db.space(), Some(db.origins()), i, None, None);
            assert_eq!(item.estimate.to_bits(), batch.results[i].estimate.to_bits());
            assert_eq!(item.lower.to_bits(), batch.results[i].lower.to_bits());
            assert_eq!(item.upper.to_bits(), batch.results[i].upper.to_bits());
            let stats = item.stats.expect("d-tree items expose CompileStats");
            assert!(stats.work() > 0, "a non-trivial lineage must report work: {stats:?}");
        }
    }

    #[test]
    fn item_seed_is_deterministic_and_spreads() {
        let a = ConfidenceEngine::item_seed(1, 0);
        let b = ConfidenceEngine::item_seed(1, 0);
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            seen.insert(ConfidenceEngine::item_seed(42, i));
        }
        assert_eq!(seen.len(), 100);
    }
}
