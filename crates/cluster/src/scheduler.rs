//! The deadline-aware cluster scheduler: hardness-ordered shard queues,
//! proportional time slices, cross-shard work stealing, and refinement
//! rounds.
//!
//! # Why not "each item gets whatever time remains"?
//!
//! That is what a single [`pdb::ConfidenceEngine`] batch does, and it has a
//! failure mode under tight deadlines: whichever hard lineage runs first
//! consumes the entire remaining budget, and every item scheduled after it
//! short-circuits to a vacuous result — the tail starves. The cluster
//! scheduler instead degrades *uniformly*:
//!
//! 1. **Slices.** Each item's timeout is its proportional share of the time
//!    remaining: `remaining × workers / items_not_yet_started`, capped at
//!    `remaining`. Easy items converge well inside their slice and donate
//!    the leftover to everyone after them; hard items are truncated at the
//!    slice boundary instead of at the cluster deadline.
//! 2. **Hardest-first.** Within each shard, items run in descending
//!    estimated-hardness order, so the items that need the most refinement
//!    start while the budget — and the parallel capacity of the other
//!    shards — is still available, instead of surfacing as stragglers at
//!    the deadline.
//! 3. **Work stealing.** A shard whose queue drains steals the *tail* (the
//!    estimated-easiest pending item) of the fullest other shard, so a
//!    mis-partitioned batch still finishes together instead of one shard
//!    idling while another is buried.
//! 4. **Rounds.** If the deadline has not passed once every item has run,
//!    non-converged items are re-enqueued (hardest-first) and re-run with
//!    the now-larger slices; with a shared sub-formula cache the re-run
//!    resumes mostly warm. Rounds stop at the deadline, after
//!    `MAX_ROUNDS` rounds, or when everything converged.
//!
//! With no deadline at all, none of this machinery engages: every item runs
//! exactly once with an unbounded timeout, which is how the cluster stays
//! bit-identical to the unsharded engine.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use dtree::SubformulaCache;
use events::{Dnf, ProbabilitySpace, VarOrigins};
use pdb::confidence::{ConfidenceBudget, ConfidenceResult, DegradationReason, ResumableConfidence};
use pdb::fault::Fault;
use pdb::ConfidenceEngine;

use crate::hardness::{HardnessEstimator, LineageFeatures};
use crate::ShardStats;

/// Slices shorter than this quantum cannot make refinement progress: the
/// per-item setup (DNF interning, frontier bookkeeping) eats them whole.
/// Items whose proportional share falls below it are handed an already
/// expired deadline — the engine's immediate non-converged path — and a
/// refinement round with less than a quantum of runway is not started at
/// all.
pub(crate) const MIN_SLICE: Duration = Duration::from_micros(500);

/// The most scheduling rounds one run may take. Rounds re-run non-converged
/// items with the time that remains, so more rounds only matter for tight
/// deadlines over mixed-hardness batches.
const MAX_ROUNDS: usize = 4;

/// The order in which a shard works through its queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Descending estimated hardness (ties by input index). The default:
    /// hard lineages start while budget and parallel capacity remain.
    #[default]
    HardestFirst,
    /// The input order of the batch, as a plain engine would process it.
    /// Mainly useful as the baseline when measuring what hardness-aware
    /// ordering buys.
    InputOrder,
}

impl SchedulePolicy {
    /// Orders a queue of item indices in place according to the policy.
    pub(crate) fn order(&self, queue: &mut [usize], scores: &[f64]) {
        match self {
            SchedulePolicy::HardestFirst => {
                queue.sort_by(|&a, &b| {
                    scores[b]
                        .partial_cmp(&scores[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
            SchedulePolicy::InputOrder => queue.sort_unstable(),
        }
    }
}

/// Pre-fetched observability handles for one scheduling run. All handles
/// are write-only no-ops when the engine has no [`obs::Obs`] attached, so
/// the scheduler's hot paths pay a branch on a `None`, nothing more.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClusterObs {
    pub obs: obs::Obs,
    /// `cluster.rounds`: scheduling rounds run (≥ 1 per batch).
    pub rounds: obs::Counter,
    /// `cluster.steals`: items a drained worker stole from another shard.
    pub steals: obs::Counter,
    /// `cluster.migrations`: suspended frontiers resumed on a shard other
    /// than the one whose worker last ran them.
    pub migrations: obs::Counter,
    /// `cluster.resumed`: executions served by resuming a frontier.
    pub resumed: obs::Counter,
    /// `cluster.shard_deaths`: worker panics caught by the scheduler (each
    /// kills its shard for the rest of the round; the item is retried once
    /// on another shard, then degraded).
    pub shard_deaths: obs::Counter,
    /// `cluster.deadline_slack_seconds`: time left on the cluster deadline
    /// when the schedule finished (0 = ran out).
    pub deadline_slack: obs::Histogram,
}

impl ClusterObs {
    pub fn new(o: &obs::Obs) -> ClusterObs {
        ClusterObs {
            obs: o.clone(),
            rounds: o.counter("cluster.rounds"),
            steals: o.counter("cluster.steals"),
            migrations: o.counter("cluster.migrations"),
            resumed: o.counter("cluster.resumed"),
            shard_deaths: o.counter("cluster.shard_deaths"),
            deadline_slack: o.histogram("cluster.deadline_slack_seconds"),
        }
    }
}

/// Everything one scheduling run needs, borrowed from the cluster engine.
pub(crate) struct RunContext<'a> {
    pub lineages: &'a [&'a Dnf],
    pub space: &'a ProbabilitySpace,
    pub origins: Option<&'a VarOrigins>,
    /// Per-item structural features, filled up front only when they scored
    /// the batch; read them through [`RunContext::features`].
    pub features: &'a [OnceLock<LineageFeatures>],
    pub scores: &'a [f64],
    pub engine: &'a ConfidenceEngine,
    pub estimator: &'a HardnessEstimator,
    /// Per-shard cache handles (`None` = caching disabled for that shard).
    pub caches: &'a [Option<&'a SubformulaCache>],
    pub policy: SchedulePolicy,
    pub deadline: Option<Instant>,
    /// Per-item step cap applied to *resumed* slices when no deadline is set
    /// (fresh runs get it through the engine's own budget).
    pub max_work: Option<u64>,
    /// Capture resumable frontiers for fresh d-tree runs. Batch mode turns
    /// this on only when refinement rounds could use the handle (a deadline
    /// is set); maintenance mode always captures, because surviving handles
    /// outlive the run in the caller's pool.
    pub capture: bool,
    /// Pre-fetched metric/trace handles (no-ops when observability is off).
    pub obs: &'a ClusterObs,
    /// Fault-injection plan checked at the `"cluster.worker"` site once per
    /// item execution. The site uses the hit-counter token (a shard death is
    /// a property of the worker and the moment, not of the item), so a
    /// retried item redraws its fate on the surviving shard instead of
    /// deterministically dying again. [`Fault::disabled`] — the default —
    /// makes the check a free no-op.
    pub fault: &'a Fault,
}

impl RunContext<'_> {
    /// Item `i`'s structural features. Only two places read them — a fresh
    /// run's calibration and a refinement round's re-score — so an item
    /// whose features did not score the batch (a maintenance round scores
    /// by width regression) has them extracted at first read, on the thread
    /// that needs them, and never when it only resumes a pooled frontier.
    pub fn features(&self, i: usize) -> &LineageFeatures {
        self.features[i].get_or_init(|| LineageFeatures::of(self.lineages[i]))
    }
}

/// One item's suspended-frontier slot: the handle (if any run parked one)
/// plus the shard whose worker last ran it. Steal-with-handle migration:
/// when a stealing worker resumes a handle owned by another shard, the
/// handle — not just the item — moves with the steal, and the hop is
/// counted as a migration before ownership rebinds to the thief.
#[derive(Debug, Default)]
pub(crate) struct HandleSlot {
    pub handle: Option<ResumableConfidence>,
    pub owner: Option<usize>,
}

/// Outcome of the scheduling run.
pub(crate) struct ScheduleOutcome {
    pub results: Vec<Option<ConfidenceResult>>,
    /// Per-shard counters accumulated over all rounds (cache stats left at
    /// zero for the caller to attribute).
    pub shards: Vec<ShardStats>,
    pub rounds: usize,
    /// Per-item suspended frontiers that survived the run (converged handles
    /// included — their d-trees absorb the next round's deltas). Maintenance
    /// returns them to the caller's cross-batch pool.
    pub handles: Vec<Option<ResumableConfidence>>,
}

/// `true` when `new` should replace `old` as an item's reported result:
/// convergence wins, then tighter bounds. A converged result is never
/// replaced, so deterministic methods report the round-1 result untouched.
fn improves(new: &ConfidenceResult, old: &ConfidenceResult) -> bool {
    if old.converged {
        return false;
    }
    if new.converged {
        return true;
    }
    (new.upper - new.lower) < (old.upper - old.lower)
}

/// Runs the whole schedule: rounds of stealing workers over shard queues.
/// `initial_handles` seeds the per-item frontier slots (one per item, `None`
/// when nothing is suspended); maintenance passes pre-delta'd pooled handles
/// here so scheduled items *resume* instead of recompiling.
pub(crate) fn execute(
    ctx: &RunContext<'_>,
    queues: Vec<Vec<usize>>,
    initial_handles: Vec<Option<ResumableConfidence>>,
) -> ScheduleOutcome {
    debug_assert_eq!(initial_handles.len(), ctx.lineages.len());
    let shards = queues.len().max(1);
    let mut accums: Vec<ShardStats> = (0..shards)
        .map(|shard| ShardStats {
            shard,
            assigned: queues.get(shard).map_or(0, Vec::len),
            ..Default::default()
        })
        .collect();
    let mut results: Vec<Option<ConfidenceResult>> = vec![None; ctx.lineages.len()];

    // `home[i]` is the shard item `i` was originally routed to; refinement
    // rounds re-enqueue an item at its home shard so per-shard caches stay
    // warm for it. Items outside every queue (deduplicated copies) are not
    // scheduled and must not be picked up by refinement rounds either.
    let mut home: Vec<Option<usize>> = vec![None; ctx.lineages.len()];
    for (shard, queue) in queues.iter().enumerate() {
        for &i in queue {
            home[i] = Some(shard);
        }
    }

    // Suspended d-tree frontiers, one slot per item: a budget-truncated
    // first run parks its handle here and every later refinement round
    // resumes it — monotone tightening, no recompilation. Slots stay `None`
    // for Monte-Carlo methods and unscheduled duplicates; converged handles
    // are kept (nothing re-runs them, and the caller harvests them).
    // Seeded handles (maintenance pools) start unowned: their first resume
    // on any shard is a warm start, not a migration.
    let handles: Vec<Mutex<HandleSlot>> = initial_handles
        .into_iter()
        .map(|handle| Mutex::new(HandleSlot { handle, owner: None }))
        .collect();

    // Round-1 order comes from the structural hardness scores; refinement
    // rounds re-score stragglers by their remaining bound width below.
    let mut scores: Vec<f64> = ctx.scores.to_vec();

    // Exactly-once retry bookkeeping for worker deaths, shared across
    // rounds: an item whose worker panicked is re-queued on another shard
    // at most once over the whole schedule; a second panic degrades it.
    let retried: Vec<AtomicBool> =
        (0..ctx.lineages.len()).map(|_| AtomicBool::new(false)).collect();

    let mut pending = queues;
    let mut rounds = 0;
    loop {
        rounds += 1;
        for queue in &mut pending {
            ctx.policy.order(queue, &scores);
        }
        let round_items: usize = pending.iter().map(Vec::len).sum();
        run_round(ctx, &pending, &mut results, &mut accums, &handles, &retried);
        ctx.obs
            .obs
            .event("cluster.round")
            .u64("round", rounds as u64)
            .u64("items", round_items as u64)
            .emit();

        let Some(deadline) = ctx.deadline else { break };
        if rounds >= MAX_ROUNDS {
            break;
        }
        // A refinement round needs at least one scheduling quantum of
        // runway: with less, every item's proportional slice would be
        // sub-quantum — pure setup cost, zero tightening — so the round is
        // not started at all (the promptness guarantee of the flat engine).
        if deadline.saturating_duration_since(Instant::now()) < MIN_SLICE {
            break;
        }
        let mut unfinished: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut any = false;
        for (i, slot) in results.iter().enumerate() {
            let Some(shard) = home[i] else { continue };
            if !slot.as_ref().map(|r| r.converged).unwrap_or(false) {
                unfinished[shard].push(i);
                any = true;
                // Re-score by remaining interval width — the mass the next
                // round actually shrinks — with the structural score as a
                // tiebreaker between items of similar width.
                let width = slot.as_ref().map(|r| r.upper - r.lower).unwrap_or(1.0);
                scores[i] = ctx.estimator.refinement_score(ctx.features(i), width);
            }
        }
        if !any {
            break;
        }
        pending = unfinished;
    }

    // Graceful-degradation backstop: a scheduled item can still hold no
    // result when every worker of its final round died before reaching it.
    // The batch contract is "every item gets a valid answer", so such items
    // report the vacuous degraded interval instead of a missing slot.
    // Unscheduled items (deduplicated copies, `home[i] == None`) are filled
    // from their representatives by the caller and stay `None` here.
    for (i, slot) in results.iter_mut().enumerate() {
        if slot.is_none() && home[i].is_some() {
            *slot = Some(ctx.engine.degrade_item(i, DegradationReason::ShardLost));
        }
    }

    ctx.obs.rounds.add(rounds as u64);
    let (stolen, resumed, migrated, deaths) = accums.iter().fold((0, 0, 0, 0), |acc, s| {
        (acc.0 + s.stolen, acc.1 + s.resumed, acc.2 + s.migrated, acc.3 + s.deaths)
    });
    ctx.obs.steals.add(stolen as u64);
    ctx.obs.resumed.add(resumed as u64);
    ctx.obs.migrations.add(migrated as u64);
    ctx.obs.shard_deaths.add(deaths as u64);
    if let Some(deadline) = ctx.deadline {
        // Slack = runway left when the schedule finished; 0 means the
        // deadline ran out (some items were truncated at their slices).
        ctx.obs.deadline_slack.record_duration(deadline.saturating_duration_since(Instant::now()));
    }

    ScheduleOutcome {
        results,
        shards: accums,
        rounds,
        handles: handles
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner).handle)
            .collect(),
    }
}

/// One pass over the pending queues: one stealing worker per shard.
///
/// **Shard-failure tolerance.** Every item execution runs behind a
/// [`catch_unwind`] boundary ([`Round::execute`]). A panic — injected at
/// the `"cluster.worker"` failpoint or escaping the engine for real — kills
/// the executing worker for the rest of the round (its shard goes dead; the
/// orphaned queue is drained by the surviving stealers, suspended frontiers
/// migrating along the usual steal-with-handle path). The item itself is
/// re-queued on a *different* shard exactly once per schedule (`retried`);
/// a second panic degrades it to the vacuous interval via
/// [`ConfidenceEngine::degrade_item`]. The single-worker fast path has no
/// other shard to retry on: the lone worker survives the panic and retries
/// the item once at its own queue tail instead.
fn run_round(
    ctx: &RunContext<'_>,
    pending: &[Vec<usize>],
    results: &mut [Option<ConfidenceResult>],
    accums: &mut [ShardStats],
    handles: &[Mutex<HandleSlot>],
    retried: &[AtomicBool],
) {
    let total: usize = pending.iter().map(Vec::len).sum();
    if total == 0 {
        return;
    }
    let shards = pending.len();
    let round = Round { ctx, results: Mutex::new(results), handles, retried };
    // One worker per shard; a worker whose queue is empty from the start
    // immediately turns into a stealer, so capacity is never parked.
    let workers = shards.min(total);
    if workers == 1 {
        // Single worker: no stealing, no threads — keeps the 1-shard
        // cluster within spitting distance of the plain engine.
        let mut left = total;
        let mut queue: VecDeque<(usize, usize)> = pending
            .iter()
            .enumerate()
            .flat_map(|(shard, q)| q.iter().map(move |&i| (i, shard)))
            .collect();
        while let Some((i, shard)) = queue.pop_front() {
            let item_deadline = slice_deadline(ctx.deadline, left.max(1), 1);
            left = left.saturating_sub(1);
            round.execute(i, shard, item_deadline, &mut accums[shard], || {
                queue.push_back((i, shard));
                left += 1;
            });
        }
        return;
    }
    let queues: Vec<Mutex<VecDeque<usize>>> =
        pending.iter().map(|q| Mutex::new(q.iter().copied().collect())).collect();
    let unstarted = AtomicUsize::new(total);

    // A dying worker re-queues its item *after* unwinding, which can race
    // past the moment the surviving workers scanned every queue empty and
    // exited. Items left in the queues when a pass ends are therefore not
    // lost: another pass of workers is spawned over them, until the queues
    // drain or every worker of a pass died (then the caller's backstop
    // degrades whatever remains).
    loop {
        let deaths = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Each worker books into its own shard's stats.
            for (w, acc) in accums.iter_mut().enumerate().take(workers) {
                let (round, queues, unstarted, deaths) = (&round, &queues, &unstarted, &deaths);
                scope.spawn(move || {
                    while let Some((i, stolen)) = pop_or_steal(queues, w) {
                        if stolen {
                            ctx.obs
                                .obs
                                .event("cluster.steal")
                                .u64("item", i as u64)
                                .u64("thief", w as u64)
                                .emit();
                        }
                        // The share computation counts this item as still
                        // unstarted (it has not consumed time yet), so
                        // decrement after computing the slice denominator.
                        let left = unstarted.load(Ordering::Relaxed).max(1);
                        let item_deadline = slice_deadline(ctx.deadline, left, workers);
                        unstarted.fetch_sub(1, Ordering::Relaxed);

                        let alive = round.execute(i, w, item_deadline, acc, || {
                            // Hand the item to the next shard's queue. Even
                            // if that shard's worker is dead too, a
                            // surviving stealer drains it.
                            queues[(w + 1) % shards].lock().expect("queue poisoned").push_back(i);
                            unstarted.fetch_add(1, Ordering::Relaxed);
                        });
                        if !alive {
                            // This worker's shard is dead for the rest of
                            // the round; its queue is drained by the
                            // surviving stealers.
                            deaths.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        acc.stolen += usize::from(stolen);
                    }
                });
            }
        });
        let leftover: usize = queues.iter().map(|q| q.lock().expect("queue poisoned").len()).sum();
        if leftover == 0 || deaths.load(Ordering::Relaxed) >= workers {
            break;
        }
    }
}

/// What every worker of one round shares.
struct Round<'r, 'c> {
    ctx: &'r RunContext<'c>,
    results: Mutex<&'r mut [Option<ConfidenceResult>]>,
    handles: &'r [Mutex<HandleSlot>],
    retried: &'r [AtomicBool],
}

impl Round<'_, '_> {
    /// Executes item `i` on `shard` behind the fault boundary and books the
    /// outcome into `acc`. A finished run keeps the better of the item's old
    /// and new result ([`improves`]). A panic counts a death, drops the
    /// item's frontier — the unwind may have passed through its lock, and
    /// recompiling is sound — and spends the item's one retry per schedule
    /// by calling `requeue`; a second panic degrades the item instead.
    /// Returns `false` when the execution panicked.
    fn execute(
        &self,
        i: usize,
        shard: usize,
        item_deadline: Option<Instant>,
        acc: &mut ShardStats,
        requeue: impl FnOnce(),
    ) -> bool {
        let ctx = self.ctx;
        match catch_unwind(AssertUnwindSafe(|| run_one(ctx, i, shard, item_deadline, self.handles)))
        {
            Ok((r, resumed, migrated)) => {
                acc.executed += 1;
                acc.resumed += usize::from(resumed);
                acc.migrated += usize::from(migrated);
                acc.compute += r.elapsed;
                let mut slots = self.results.lock().expect("result slots poisoned");
                match &slots[i] {
                    Some(old) if !improves(&r, old) => {}
                    _ => slots[i] = Some(r),
                }
                true
            }
            Err(_) => {
                acc.deaths += 1;
                ctx.obs
                    .obs
                    .event("cluster.shard_death")
                    .u64("shard", shard as u64)
                    .u64("item", i as u64)
                    .emit();
                self.handles[i].lock().unwrap_or_else(PoisonError::into_inner).handle = None;
                if !self.retried[i].swap(true, Ordering::SeqCst) {
                    requeue();
                } else {
                    let mut slots = self.results.lock().expect("result slots poisoned");
                    if slots[i].is_none() {
                        slots[i] = Some(ctx.engine.degrade_item(i, DegradationReason::ShardLost));
                    }
                }
                false
            }
        }
    }
}

/// Computes one item through the engine hook (the cache is the executing
/// shard's) and feeds its exported stats back into the hardness estimator.
///
/// If a prior round (or the maintenance pre-pass that seeded the slot)
/// parked a suspended d-tree frontier for the item, this *resumes* it with
/// the slice's remaining time instead of recompiling — bounds tighten
/// monotonically across rounds. Fresh runs capture a handle only when
/// [`RunContext::capture`] is set; without it the plain `compute_item` path
/// runs, keeping the no-deadline cluster bit-identical to the unsharded
/// engine with zero capture overhead.
///
/// Returns `(result, resumed, migrated)`. Resumed slices do **not** feed the
/// hardness estimator: its calibration maps whole-lineage features to
/// whole-run work, and a slice's partial counters would drag the bucket
/// factor down. `migrated` is set when the resumed frontier's previous slice
/// ran on a different shard — the handle moved with the steal.
fn run_one(
    ctx: &RunContext<'_>,
    i: usize,
    shard: usize,
    item_deadline: Option<Instant>,
    handles: &[Mutex<HandleSlot>],
) -> (ConfidenceResult, bool, bool) {
    let cache = ctx.caches[shard];
    // The worker failpoint fires *before* the handle lock is taken, so most
    // injected deaths leave the frontier slot clean; real panics from the
    // compute below may poison it, which the catch-side recovery handles.
    ctx.fault.check("cluster.worker").unwrap_or_else(|e| panic!("injected worker fault: {e}"));
    let mut guard = handles[i].lock().unwrap_or_else(PoisonError::into_inner);
    let slot = &mut *guard;
    if let Some(handle) = slot.handle.as_mut() {
        let migrated = slot.owner.is_some_and(|o| o != shard);
        if migrated {
            ctx.obs
                .obs
                .event("cluster.migration")
                .u64("item", i as u64)
                .u64("to_shard", shard as u64)
                .emit();
        }
        slot.owner = Some(shard);
        let r = match item_deadline {
            Some(d) => handle.resume_until(ctx.space, d, cache),
            None => handle.resume(
                ctx.space,
                &ConfidenceBudget { timeout: None, max_work: ctx.max_work },
                cache,
            ),
        };
        // Drop failed handles (space invalidated mid-run: fail closed,
        // recompute fresh next round if time remains). Converged handles
        // stay parked: refinement rounds never re-enqueue converged items,
        // and the caller harvests the fully refined frontier — the cheapest
        // substrate for the *next* delta.
        if handle.failed() {
            slot.handle = None;
        }
        return (r, true, migrated);
    }
    let r = if ctx.capture {
        let (r, handle) = ctx.engine.compute_item_resumable(
            ctx.lineages[i],
            ctx.space,
            ctx.origins,
            i,
            item_deadline,
            cache,
        );
        slot.handle = handle;
        slot.owner = Some(shard);
        r
    } else {
        ctx.engine.compute_item(ctx.lineages[i], ctx.space, ctx.origins, i, item_deadline, cache)
    };
    if let Some(stats) = &r.stats {
        ctx.estimator.observe(ctx.features(i), stats);
    }
    (r, false, false)
}

/// The per-item deadline: now plus this item's proportional share of the
/// remaining time (`remaining × workers / unstarted`, capped at `remaining`).
fn slice_deadline(deadline: Option<Instant>, unstarted: usize, workers: usize) -> Option<Instant> {
    let deadline = deadline?;
    let now = Instant::now();
    let remaining = deadline.saturating_duration_since(now);
    if remaining < MIN_SLICE {
        // Past the deadline — or so close that the slice could not pay for
        // its own setup: hand an already-expired instant through so the
        // engine short-circuits the item to the immediate non-converged
        // path instead of burning a sub-quantum slice on pure overhead.
        return Some(deadline.min(now));
    }
    let slice = remaining
        .checked_mul(workers.min(unstarted) as u32)
        .map(|d| d / unstarted as u32)
        .unwrap_or(remaining)
        .min(remaining);
    if slice < MIN_SLICE {
        // The proportional share itself is sub-quantum (many stragglers,
        // little time): same short-circuit.
        return Some(deadline.min(now));
    }
    Some(now + slice)
}

/// Pops the front of the worker's own queue, or steals the *back* (the
/// estimated-easiest pending item under hardest-first ordering) of the
/// longest other queue. Returns `(item, was_stolen)`.
fn pop_or_steal(queues: &[Mutex<VecDeque<usize>>], own: usize) -> Option<(usize, bool)> {
    if let Some(i) = queues[own].lock().expect("queue poisoned").pop_front() {
        return Some((i, false));
    }
    loop {
        // Snapshot queue lengths without holding more than one lock at a
        // time, then try to steal from the fullest victim.
        let victim = queues
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != own)
            .map(|(s, q)| (s, q.lock().expect("queue poisoned").len()))
            .filter(|&(_, len)| len > 0)
            .max_by_key(|&(_, len)| len)
            .map(|(s, _)| s)?;
        if let Some(i) = queues[victim].lock().expect("queue poisoned").pop_back() {
            return Some((i, true));
        }
        // Raced with another stealer; rescan.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(converged: bool, lower: f64, upper: f64) -> ConfidenceResult {
        ConfidenceResult {
            estimate: (lower + upper) / 2.0,
            lower,
            upper,
            converged,
            elapsed: Duration::ZERO,
            method: "test".into(),
            stats: None,
            degraded: None,
        }
    }

    #[test]
    fn improves_prefers_convergence_then_tighter_bounds() {
        assert!(improves(&result(true, 0.4, 0.4), &result(false, 0.0, 1.0)));
        assert!(!improves(&result(false, 0.0, 1.0), &result(true, 0.4, 0.4)));
        assert!(!improves(&result(true, 0.4, 0.4), &result(true, 0.2, 0.9)));
        assert!(improves(&result(false, 0.3, 0.6), &result(false, 0.0, 1.0)));
        assert!(!improves(&result(false, 0.0, 1.0), &result(false, 0.3, 0.6)));
    }

    #[test]
    fn hardest_first_orders_by_score_then_index() {
        let scores = vec![1.0, 5.0, 5.0, 0.5];
        let mut queue = vec![3, 2, 0, 1];
        SchedulePolicy::HardestFirst.order(&mut queue, &scores);
        assert_eq!(queue, vec![1, 2, 0, 3]);
        SchedulePolicy::InputOrder.order(&mut queue, &scores);
        assert_eq!(queue, vec![0, 1, 2, 3]);
    }

    #[test]
    fn slices_are_proportional_and_capped() {
        let now = Instant::now();
        let deadline = now + Duration::from_secs(10);
        // 1 worker, 10 unstarted items: ~a tenth of the remaining time each.
        let d = slice_deadline(Some(deadline), 10, 1).unwrap();
        let slice = d.saturating_duration_since(now);
        assert!(slice <= Duration::from_millis(1100), "slice {slice:?}");
        assert!(slice >= Duration::from_millis(900), "slice {slice:?}");
        // Last item: the full remaining time.
        let d = slice_deadline(Some(deadline), 1, 1).unwrap();
        assert!(d.saturating_duration_since(now) >= Duration::from_millis(9900));
        // More workers than items never over-allocates past the deadline.
        let d = slice_deadline(Some(deadline), 2, 8).unwrap();
        assert!(d <= deadline);
        // No deadline, no slicing.
        assert!(slice_deadline(None, 5, 2).is_none());
    }

    #[test]
    fn sub_quantum_slices_short_circuit_to_an_expired_deadline() {
        let now = Instant::now();
        // Within one quantum of the deadline: an expired instant comes back,
        // so the engine takes its immediate non-converged path.
        let d = slice_deadline(Some(now + Duration::from_micros(100)), 1, 1).unwrap();
        assert!(d <= Instant::now());
        // Plenty of absolute time but so many stragglers that the
        // proportional share is sub-quantum: same short-circuit.
        let d = slice_deadline(Some(now + Duration::from_millis(2)), 100_000, 1).unwrap();
        assert!(d <= Instant::now());
        // A healthy share passes through as a future deadline.
        let d = slice_deadline(Some(now + Duration::from_secs(10)), 10, 1).unwrap();
        assert!(d > Instant::now());
    }

    #[test]
    fn stolen_handles_migrate_between_shards_and_are_counted() {
        use events::Clause;
        use pdb::confidence::ConfidenceMethod;

        let mut space = ProbabilitySpace::new();
        let vars: Vec<_> =
            (0..6).map(|i| space.add_bool(format!("x{i}"), 0.3 + 0.05 * i as f64)).collect();
        let lineage = Dnf::from_clauses(
            (0..5).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let lineages = vec![&lineage];
        let features = vec![OnceLock::new()];
        let scores = vec![1.0];
        let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeAbsolute(1e-6)).with_threads(1);
        let estimator = HardnessEstimator::new();
        let cobs = ClusterObs::default();
        let fault = Fault::disabled();
        let ctx = RunContext {
            lineages: &lineages,
            space: &space,
            origins: None,
            features: &features,
            scores: &scores,
            engine: &engine,
            estimator: &estimator,
            caches: &[None, None],
            policy: SchedulePolicy::HardestFirst,
            deadline: None,
            max_work: None,
            capture: true,
            obs: &cobs,
            fault: &fault,
        };
        let handles = vec![Mutex::new(HandleSlot::default())];
        let retried = vec![AtomicBool::new(false)];
        let mut results = vec![None];
        let mut accums = vec![ShardStats::default(); 2];

        // Round 1: shard 0 runs the item fresh and parks its frontier.
        run_round(&ctx, &[vec![0], vec![]], &mut results, &mut accums, &handles, &retried);
        assert_eq!(accums[0].executed, 1);
        assert_eq!(accums[0].migrated, 0, "a fresh run is not a migration");
        {
            let slot = handles[0].lock().unwrap();
            assert!(slot.handle.is_some(), "capture must park a frontier");
            assert_eq!(slot.owner, Some(0));
        }

        // Round 2: the item is pending only on shard 1 (as after a steal) —
        // the suspended handle moves with it and the hop counts as a
        // migration before ownership rebinds to the thief.
        run_round(&ctx, &[vec![], vec![0]], &mut results, &mut accums, &handles, &retried);
        assert_eq!(accums[1].executed, 1);
        assert_eq!(accums[1].resumed, 1, "the migrated handle must resume, not recompile");
        assert_eq!(accums[1].migrated, 1, "a cross-shard resume is a migration");
        assert_eq!(handles[0].lock().unwrap().owner, Some(1));

        // Round 3: resuming on the now-owning shard again is no migration.
        run_round(&ctx, &[vec![], vec![0]], &mut results, &mut accums, &handles, &retried);
        assert_eq!(accums[1].resumed, 2);
        assert_eq!(accums[1].migrated, 1, "same-shard resumes must not count");
    }

    #[test]
    fn stealing_drains_the_fullest_queue_from_the_back() {
        let queues: Vec<Mutex<VecDeque<usize>>> = vec![
            Mutex::new(VecDeque::new()),
            Mutex::new(VecDeque::from(vec![1, 2])),
            Mutex::new(VecDeque::from(vec![3, 4, 5])),
        ];
        assert_eq!(pop_or_steal(&queues, 0), Some((5, true)));
        assert_eq!(pop_or_steal(&queues, 0), Some((4, true)));
        assert_eq!(pop_or_steal(&queues, 0), Some((2, true)));
        assert_eq!(pop_or_steal(&queues, 1), Some((1, false)));
        assert_eq!(pop_or_steal(&queues, 1), Some((3, true)));
        assert_eq!(pop_or_steal(&queues, 1), None);
    }
}
