//! Scheduler-ordering guarantees of the [`ClusterEngine`] under a shared
//! cluster deadline, on the fig7 hard workload (the #P-hard Boolean TPC-H
//! queries over a scale-factor sweep) and on a synthetic skewed batch.
//!
//! The contract under test:
//!
//! * with a *tight* deadline, hardest-first scheduling converges at least as
//!   many items as naive input order — slicing plus hardness-ordering must
//!   never do worse than the baseline, and uniform degradation means the
//!   cheap tail still converges;
//! * with a *generous* deadline, the cluster's results are bit-identical to
//!   the unsharded engine's (the scheduler machinery must vanish once time
//!   is not scarce);
//! * every non-converged result still carries sound `[lower, upper]`
//!   bounds.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cluster::{ClusterEngine, SchedulePolicy};
use dtree_approx::events::{Clause, Dnf, ProbabilitySpace};
use dtree_approx::pdb::confidence::{ConfidenceBudget, ConfidenceMethod};
use dtree_approx::pdb::ConfidenceEngine;
use dtree_approx::workloads::tpch::{TpchConfig, TpchDatabase, TpchQuery};
use dtree_approx::workloads::{hardness_mix, HardnessMixConfig};

/// Serializes the tests of this file. Each one compares wall-clock deadline
/// runs, and a sibling test burning CPU on another thread would skew that
/// comparison (hardest-first measured under contention, naive without).
static DEADLINE_RUNS: Mutex<()> = Mutex::new(());

/// The lock guards no data, so a test that panicked while holding it leaves
/// nothing invalid behind: take the guard back from the poisoned lock.
fn exclusive() -> MutexGuard<'static, ()> {
    DEADLINE_RUNS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The fig7 batch: lineages of the hard Boolean queries over a scale-factor
/// sweep, pooled over one shared probability space. B9 lineages take tens to
/// hundreds of milliseconds of exact d-tree work; B21/B20 lineages are
/// microseconds — the hardness skew the scheduler exists for.
fn fig7_batch() -> (TpchDatabase, Vec<Dnf>) {
    // One database (one probability space); the sweep is emulated by taking
    // every hard query's lineage at the same scale, which preserves the
    // shape that matters here: a few heavy stragglers among cheap items.
    let db = TpchDatabase::generate(&TpchConfig::new(0.02));
    let mut lineages = Vec::new();
    for q in TpchQuery::hard() {
        let answers = db.answers(&q);
        for a in answers {
            if !a.lineage.is_empty() {
                lineages.push(a.lineage);
            }
        }
    }
    (db, lineages)
}

fn run_policy(
    db: &TpchDatabase,
    lineages: &[Dnf],
    policy: SchedulePolicy,
    timeout: Duration,
) -> cluster::ClusterBatchResult {
    ClusterEngine::new(ConfidenceMethod::DTreeExact)
        .with_shards(2)
        .with_policy(policy)
        .with_budget(ConfidenceBudget { timeout: Some(timeout), max_work: None })
        .confidence_batch(lineages, db.database().space(), Some(db.database().origins()))
}

#[test]
fn hardest_first_converges_at_least_as_many_as_naive_under_tight_deadline() {
    let _serial = exclusive();
    let (db, lineages) = fig7_batch();
    assert!(lineages.len() >= 3, "fig7 hard suite should produce several lineages");
    // Tight: well below what the heavy B9 lineage needs (≥ 40 ms of exact
    // d-tree work at this scale), far above what the light lineages need
    // (microseconds), so the converged set is stable across machines.
    let tight = Duration::from_millis(25);
    let hardest = run_policy(&db, &lineages, SchedulePolicy::HardestFirst, tight);
    let naive = run_policy(&db, &lineages, SchedulePolicy::InputOrder, tight);
    assert!(
        hardest.converged_count() >= naive.converged_count(),
        "hardest-first converged {} < naive {}",
        hardest.converged_count(),
        naive.converged_count()
    );
    // The deadline must actually bite on this workload (otherwise the
    // comparison is vacuous) …
    assert!(!hardest.all_converged(), "the tight deadline should truncate the heavy lineages");
    // … and uniform degradation: the cheap tail still converges.
    assert!(hardest.converged_count() > 0, "slicing must not starve the cheap items");
    // Non-converged items still carry sound bounds.
    for r in &hardest.results {
        assert!(r.lower >= 0.0 && r.upper <= 1.0 && r.lower <= r.upper, "{r:?}");
    }
}

#[test]
fn generous_deadline_is_bit_identical_to_unsharded_engine_on_fig7() {
    let _serial = exclusive();
    let (db, lineages) = fig7_batch();
    let generous = Duration::from_secs(120);
    let single = ConfidenceEngine::new(ConfidenceMethod::DTreeExact)
        .with_budget(ConfidenceBudget { timeout: Some(generous), max_work: None })
        .confidence_batch(&lineages, db.database().space(), Some(db.database().origins()));
    assert!(single.all_converged(), "the generous deadline must not truncate anything");
    for policy in [SchedulePolicy::HardestFirst, SchedulePolicy::InputOrder] {
        let out = run_policy(&db, &lineages, policy, generous);
        assert!(out.all_converged());
        assert_eq!(out.rounds, 1, "nothing to refine when everything converges");
        for (want, got) in single.results.iter().zip(&out.results) {
            assert_eq!(want.estimate.to_bits(), got.estimate.to_bits());
            assert_eq!(want.lower.to_bits(), got.lower.to_bits());
            assert_eq!(want.upper.to_bits(), got.upper.to_bits());
        }
    }
}

/// The synthetic skewed batch: the scheduler's slices keep the cheap tail
/// converging even when the batch is dominated by stragglers that want
/// orders of magnitude more time than the whole deadline, in *either*
/// order — the property that makes hardest-first safe to default to.
#[test]
fn slicing_degrades_uniformly_on_skewed_synthetic_batch() {
    let _serial = exclusive();
    let mut cfg = HardnessMixConfig::new(10, 3);
    // Trim the stragglers a little (hundreds of ms each is plenty) to keep
    // the test fast; they remain far beyond the deadline.
    cfg.hard_clauses = 50;
    cfg.hard_vars = 40;
    let (space, lineages) = hardness_mix(&cfg);
    let easy_count = lineages.iter().filter(|l| l.len() <= cfg.easy_clauses).count();
    let tight = Duration::from_millis(20);
    for policy in [SchedulePolicy::HardestFirst, SchedulePolicy::InputOrder] {
        let t0 = Instant::now();
        let out = ClusterEngine::new(ConfidenceMethod::DTreeExact)
            .with_shards(2)
            .with_policy(policy)
            .with_budget(ConfidenceBudget { timeout: Some(tight), max_work: None })
            .confidence_batch(&lineages, &space, None);
        // Every easy item converges under both policies: slices prevent the
        // stragglers from eating the whole deadline first.
        assert!(
            out.converged_count() >= easy_count,
            "{policy:?}: converged {} < easy count {easy_count}",
            out.converged_count()
        );
        // Promptness: the deadline plus one straggler slice, with generous
        // CI slack.
        assert!(t0.elapsed() < Duration::from_secs(10), "{policy:?} overran: {:?}", t0.elapsed());
    }
}

/// The headline scheduling win: under a tight deadline on a skewed batch,
/// the cluster's hardest-first schedule converges strictly more items than
/// the flat engine's naive order, where each item's timeout is the full
/// remaining time. The flat engine's first-encountered straggler eats the
/// entire budget, so every item scheduled after it short-circuits to a
/// vacuous result; the cluster's slices cap stragglers at their fair share
/// and the cheap tail converges.
///
/// The margin is structural, not a timing accident: the stragglers need
/// hundreds of milliseconds each against a 20 ms deadline (they cannot
/// converge under either scheduler, on any plausible CI machine), and the
/// easy items need microseconds against multi-millisecond slices.
#[test]
fn cluster_converges_strictly_more_than_flat_engine_under_tight_deadline() {
    let _serial = exclusive();
    let (space, lineages) = hardness_mix(&HardnessMixConfig::new(12, 4));
    let easy_count = lineages.iter().filter(|l| l.len() <= 3).count();
    assert_eq!(easy_count, 12);
    let budget = ConfidenceBudget { timeout: Some(Duration::from_millis(20)), max_work: None };
    let flat = ConfidenceEngine::new(ConfidenceMethod::DTreeExact)
        .with_threads(2)
        .with_budget(budget.clone())
        .confidence_batch(&lineages, &space, None);
    let flat_converged = flat.results.iter().filter(|r| r.converged).count();
    let sharded = ClusterEngine::new(ConfidenceMethod::DTreeExact)
        .with_shards(2)
        .with_policy(SchedulePolicy::HardestFirst)
        .with_budget(budget)
        .confidence_batch(&lineages, &space, None);
    // The cluster converges the whole cheap tail; the flat engine loses
    // every easy item scheduled after its second straggler (there are at
    // most two workers, and the four stragglers are spread through the
    // input order, so at least the items after position 8 starve).
    assert_eq!(sharded.converged_count(), easy_count);
    assert!(
        sharded.converged_count() > flat_converged,
        "cluster {} should beat the flat engine {} on converged items",
        sharded.converged_count(),
        flat_converged
    );
}

/// Monte-Carlo methods behave under the cluster deadline too: past-deadline
/// items short-circuit to the vacuous non-converged interval instead of
/// paying per-item setup.
#[test]
fn expired_deadline_short_circuits_monte_carlo_batches() {
    let _serial = exclusive();
    let mut space = ProbabilitySpace::new();
    let lineages: Vec<Dnf> = (0..30)
        .map(|k| {
            let vars: Vec<_> = (0..6).map(|i| space.add_bool(format!("m{k}_{i}"), 0.3)).collect();
            Dnf::from_clauses((0..5).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])))
        })
        .collect();
    let t0 = Instant::now();
    let out = ClusterEngine::new(ConfidenceMethod::KarpLuby { epsilon: 0.01, delta: 0.001 })
        .with_shards(3)
        .with_budget(ConfidenceBudget { timeout: Some(Duration::ZERO), max_work: None })
        .confidence_batch(&lineages, &space, None);
    assert!(t0.elapsed() < Duration::from_secs(2), "short-circuit must be prompt");
    for r in &out.results {
        assert!(!r.converged);
        assert_eq!((r.lower, r.upper), (0.0, 1.0));
    }
}
