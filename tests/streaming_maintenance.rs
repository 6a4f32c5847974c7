//! Property-based tests of delta-aware confidence maintenance through
//! [`ClusterEngine::maintain_batch`], at one shard (the sequential case) and
//! at two: on randomly generated append streams, maintaining a lineage —
//! truncated frontiers pooled between rounds, deltas absorbed in place —
//! must land on the same answer as compiling the final formula from
//! scratch, for every confidence method and with the subformula cache on or
//! off. Destructive (non-append) edits must fail closed instead of silently
//! reusing a stale frontier.
//!
//! Without a timeout a maintenance round is one scheduling pass, so its
//! per-path counts read off the shard stats ([`paths`]).

use dtree_approx::cluster::{ClusterBatchResult, ClusterEngine};
use dtree_approx::dtree;
use dtree_approx::events::{self, Clause, Dnf, LineageDelta, ProbabilitySpace};
use dtree_approx::pdb::confidence::{ConfidenceBudget, ConfidenceMethod};
use dtree_approx::pdb::{ConfidenceEngine, ResumablePool};
use proptest::prelude::*;

/// The shard counts every maintenance test runs at.
const SHARDS: [usize; 2] = [1, 2];

/// The Monte-Carlo base seed shared by the cluster and the reference engine.
const SEED: u64 = 0x5eed;

/// A random append stream: an initial DNF over `probs.len()` variables, then
/// `rounds` of appended clauses. Each appended clause joins one fresh
/// variable (probability `fresh_p`) with existing variables of the answer, so
/// deltas genuinely dirty the suspended decomposition.
#[derive(Debug, Clone)]
struct StreamSpec {
    probs: Vec<f64>,
    clauses: Vec<Vec<usize>>,
    rounds: Vec<Vec<(f64, Vec<usize>)>>,
}

fn stream_spec() -> impl Strategy<Value = StreamSpec> {
    let probs = prop::collection::vec(0.1f64..0.9, 3..7);
    probs.prop_flat_map(|probs| {
        let nv = probs.len();
        let clause = prop::collection::vec(0..nv, 1..3);
        let clauses = prop::collection::vec(clause, 2..6);
        let append = (0.1f64..0.9, prop::collection::vec(0..nv, 0..3));
        let round = prop::collection::vec(append, 1..3);
        let rounds = prop::collection::vec(round, 1..4);
        (Just(probs), clauses, rounds).prop_map(|(probs, clauses, rounds)| StreamSpec {
            probs,
            clauses,
            rounds,
        })
    })
}

/// Materialises the stream: the shared space, the initial lineage, and one
/// grown lineage plus its append-only delta per round.
fn build_stream(spec: &StreamSpec) -> (ProbabilitySpace, Dnf, Vec<(Dnf, LineageDelta)>) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        spec.probs.iter().enumerate().map(|(i, &p)| space.add_bool(format!("x{i}"), p)).collect();
    let initial = Dnf::from_clauses(
        spec.clauses
            .iter()
            .map(|c| Clause::from_bools(&c.iter().map(|&i| vars[i]).collect::<Vec<_>>())),
    );
    let mut lineage = initial.clone();
    let mut steps = Vec::new();
    for (r, round) in spec.rounds.iter().enumerate() {
        let mut grown = lineage.clone();
        for (a, (fresh_p, existing)) in round.iter().enumerate() {
            let fresh = space.add_bool(format!("s{r}_{a}"), *fresh_p);
            let mut atoms = vec![fresh];
            for &i in existing {
                if !atoms.contains(&vars[i]) {
                    atoms.push(vars[i]);
                }
            }
            grown = grown.or(&Dnf::from_clauses(vec![Clause::from_bools(&atoms)]));
        }
        let delta = LineageDelta::between(&lineage, &grown).expect("or-growth is append-only");
        lineage = grown.clone();
        steps.push((grown, delta));
    }
    (space, initial, steps)
}

fn methods() -> Vec<ConfidenceMethod> {
    vec![
        ConfidenceMethod::DTreeExact,
        ConfidenceMethod::DTreeAbsolute(1e-13),
        ConfidenceMethod::DTreeRelative(1e-13),
        ConfidenceMethod::KarpLuby { epsilon: 0.3, delta: 0.1 },
        ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.3 },
    ]
}

/// The maintaining cluster: `shards` shards, seeded Monte-Carlo, no
/// timeout, and `budget` steps per item.
fn cluster(
    method: ConfidenceMethod,
    cache: bool,
    budget: Option<u64>,
    shards: usize,
) -> ClusterEngine {
    let mut c = ClusterEngine::new(method)
        .with_shards(shards)
        .with_seed(SEED)
        .with_budget(ConfidenceBudget { timeout: None, max_work: budget });
    if !cache {
        c = c.without_cache();
    }
    c
}

/// The unsharded batch engine configured like [`cluster`]: the from-scratch
/// reference.
fn engine(method: ConfidenceMethod, cache: bool, budget: Option<u64>) -> ConfidenceEngine {
    let mut e = ConfidenceEngine::new(method)
        .with_seed(SEED)
        .with_budget(ConfidenceBudget { timeout: None, max_work: budget });
    if !cache {
        e = e.without_cache();
    }
    e
}

/// `(recompiled, refreshed, snapshots)` of one untimed maintenance round:
/// every scheduled item executes exactly once, either resuming its pooled
/// frontier (refreshed) or compiling from scratch (recompiled), and the
/// items never scheduled were served as zero-work snapshots.
fn paths(r: &ClusterBatchResult) -> (usize, usize, usize) {
    let executed: usize = r.shards.iter().map(|s| s.executed).sum();
    let resumed = r.total_resumed();
    (executed - resumed, resumed, r.results.len() - executed)
}

/// One maintenance round of a batch: the current lineages, the per-item
/// deltas since the previous round, and the round's step budget.
struct BatchRound {
    lineages: Vec<Dnf>,
    deltas: Vec<Option<LineageDelta>>,
    max_work: Option<u64>,
}

/// The rounds of a three-item batch over one stream: item 0 follows the
/// stream, item 1 keeps the initial lineage, and item 2 is a fixed chain
/// over 20 fresh variables of `space` — more than a d-tree leaf evaluates
/// exactly, so a 1-step round truncates it and its open frontier is resumed
/// round after round. Every round but the last runs under a 1-step budget;
/// the last is unbudgeted.
fn batch_rounds(
    space: &mut ProbabilitySpace,
    initial: &Dnf,
    steps: &[(Dnf, LineageDelta)],
) -> Vec<BatchRound> {
    let vars: Vec<_> =
        (0..20).map(|i| space.add_bool(format!("c{i}"), 0.2 + 0.03 * i as f64)).collect();
    let chain = Dnf::from_clauses((0..19).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])));
    let mut rounds = vec![BatchRound {
        lineages: vec![initial.clone(), initial.clone(), chain.clone()],
        deltas: vec![None, None, None],
        max_work: Some(1),
    }];
    for (k, (grown, delta)) in steps.iter().enumerate() {
        rounds.push(BatchRound {
            lineages: vec![grown.clone(), initial.clone(), chain.clone()],
            deltas: vec![Some(delta.clone()), None, None],
            max_work: if k + 1 == steps.len() { None } else { Some(1) },
        });
    }
    rounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delta-maintained confidence equals from-scratch compilation of the
    /// final formula within 1e-12, for every method, cache setting, and
    /// shard count.
    ///
    /// Intermediate rounds run under a tiny work budget so d-tree frontiers
    /// truncate and get pooled — the final round then *resumes* those
    /// delta-dirtied frontiers to convergence. With ε = 1e-13 error bounds,
    /// maintained and from-scratch answers are each within 1e-13 of the
    /// exact probability, hence within 2e-13 < 1e-12 of each other; the
    /// Monte-Carlo methods recompile with per-index seeds, so they are
    /// bit-identical by construction.
    #[test]
    fn maintained_equals_from_scratch(spec in stream_spec()) {
        let (space, initial, steps) = build_stream(&spec);
        let (last, rest) = steps.split_last().expect("at least one round");
        for method in methods() {
            for cache in [true, false] {
                let scratch = engine(method.clone(), cache, None)
                    .confidence_batch(std::slice::from_ref(&last.0), &space, None);
                for shards in SHARDS {
                    let trickle = cluster(method.clone(), cache, Some(2), shards);
                    let converge = cluster(method.clone(), cache, None, shards);
                    let mut pool = ResumablePool::new(8);
                    trickle.maintain_batch(std::slice::from_ref(&initial), &[None], &space, None, &mut pool);
                    for (grown, delta) in rest {
                        trickle.maintain_batch(
                            std::slice::from_ref(grown),
                            &[Some(delta.clone())],
                            &space,
                            None,
                            &mut pool,
                        );
                    }
                    let maintained = converge.maintain_batch(
                        std::slice::from_ref(&last.0),
                        &[Some(last.1.clone())],
                        &space,
                        None,
                        &mut pool,
                    );
                    prop_assert!(maintained.all_converged(), "{method:?} did not converge");
                    let m = maintained.results[0].estimate;
                    let s = scratch.results[0].estimate;
                    prop_assert!(
                        (m - s).abs() <= 1e-12,
                        "{method:?} cache={cache} shards={shards}: maintained {m} vs scratch {s}"
                    );
                    if !method.is_deterministic() {
                        // MC maintenance recompiles every item with its
                        // index-derived seed — bit-identical to the plain batch.
                        prop_assert_eq!(m.to_bits(), s.to_bits());
                    }
                }
            }
        }
    }

    /// For the d-tree methods, maintenance is independent of the shard
    /// count: 1-shard and 2-shard rounds report bit-identical bounds,
    /// estimates, and convergence, round after round, over a batch mixing a
    /// growing item with unchanged ones.
    #[test]
    fn dtree_maintenance_is_bit_identical_at_one_and_two_shards(spec in stream_spec()) {
        let (mut space, initial, steps) = build_stream(&spec);
        let rounds = batch_rounds(&mut space, &initial, &steps);
        for method in methods().into_iter().filter(ConfidenceMethod::is_deterministic) {
            for cache in [true, false] {
                let (mut one, mut two) = (ResumablePool::new(8), ResumablePool::new(8));
                for (round, r) in rounds.iter().enumerate() {
                    let a = cluster(method.clone(), cache, r.max_work, 1)
                        .maintain_batch(&r.lineages, &r.deltas, &space, None, &mut one);
                    let b = cluster(method.clone(), cache, r.max_work, 2)
                        .maintain_batch(&r.lineages, &r.deltas, &space, None, &mut two);
                    for (x, y) in a.results.iter().zip(&b.results) {
                        let at = format!("{method:?} cache={cache} round {round}");
                        prop_assert_eq!(x.estimate.to_bits(), y.estimate.to_bits(), "{}", at);
                        prop_assert_eq!(x.lower.to_bits(), y.lower.to_bits(), "{}", at);
                        prop_assert_eq!(x.upper.to_bits(), y.upper.to_bits(), "{}", at);
                        prop_assert_eq!(x.converged, y.converged, "{}", at);
                    }
                }
            }
        }
    }

    /// For the seeded Monte-Carlo methods, every maintenance round — at any
    /// shard count — is bit-identical to the unsharded engine's plain batch
    /// over the same lineages, budget, and seed, and pools nothing.
    #[test]
    fn monte_carlo_maintenance_matches_the_engine_bitwise(spec in stream_spec()) {
        let (mut space, initial, steps) = build_stream(&spec);
        let rounds = batch_rounds(&mut space, &initial, &steps);
        for method in methods().into_iter().filter(|m| !m.is_deterministic()) {
            for shards in SHARDS {
                let mut pool = ResumablePool::new(8);
                for (round, r) in rounds.iter().enumerate() {
                    let maintained = cluster(method.clone(), true, r.max_work, shards)
                        .maintain_batch(&r.lineages, &r.deltas, &space, None, &mut pool);
                    let batch = engine(method.clone(), true, r.max_work)
                        .confidence_batch(&r.lineages, &space, None);
                    for (m, b) in maintained.results.iter().zip(&batch.results) {
                        prop_assert_eq!(
                            m.estimate.to_bits(),
                            b.estimate.to_bits(),
                            "{:?} shards={} round {}",
                            method,
                            shards,
                            round
                        );
                    }
                    prop_assert!(pool.is_empty(), "Monte-Carlo items are never pooled");
                }
            }
        }
    }

    /// Destructive edits are not representable as deltas: removing or
    /// rewriting a clause makes [`LineageDelta::between`] return `None`, so
    /// callers are forced onto the recompile path.
    #[test]
    fn destructive_edits_yield_no_delta(spec in stream_spec()) {
        let (_, initial, _) = build_stream(&spec);
        prop_assume!(initial.len() > 1);
        let shrunk = Dnf::from_clauses(initial.clauses()[1..].to_vec());
        prop_assert!(LineageDelta::between(&initial, &shrunk).is_none());
        // Append-after-delete is still not an append overall.
        let mutated = shrunk.or(&Dnf::from_clauses(vec![initial.clauses()[0].clone()]));
        if mutated != initial {
            prop_assert!(LineageDelta::between(&initial, &mutated).is_none());
        }
    }
}

/// A chain lineage long enough that a `max_work`-budgeted d-tree run
/// truncates (small chains converge within a couple of decomposition
/// steps, leaving nothing to pool).
fn chain_fixture() -> (ProbabilitySpace, Vec<events::VarId>, Dnf) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        (0..34).map(|i| space.add_bool(format!("x{i}"), 0.15 + 0.02 * i as f64)).collect();
    let lineage = Dnf::from_clauses((0..22).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])));
    (space, vars, lineage)
}

/// An in-place space invalidation (the destructive-edit signal) fails
/// closed: pooled handles are discarded and every item recompiles against
/// the current space instead of reporting poisoned bounds.
#[test]
fn invalidated_space_fails_closed_to_recompilation() {
    for shards in SHARDS {
        let (mut space, _, lineage) = chain_fixture();
        let exact = dtree::exact_probability(&lineage, &space, &dtree::CompileOptions::default())
            .probability;

        let trickle = cluster(ConfidenceMethod::DTreeExact, true, Some(4), shards);
        let mut pool = ResumablePool::new(4);
        trickle.maintain_batch(std::slice::from_ref(&lineage), &[None], &space, None, &mut pool);
        assert_eq!(pool.len(), 1, "budgeted run should truncate and pool a frontier");

        space.invalidate();
        let converge = cluster(ConfidenceMethod::DTreeExact, true, None, shards);
        let r = converge.maintain_batch(
            std::slice::from_ref(&lineage),
            &[None],
            &space,
            None,
            &mut pool,
        );
        let (recompiled, refreshed, snapshots) = paths(&r);
        assert_eq!(recompiled, 1, "shards={shards}");
        assert_eq!(refreshed + snapshots, 0, "shards={shards}");
        assert!(r.all_converged());
        assert!((r.results[0].estimate - exact).abs() < 1e-9);
    }
}

/// The refresh path is genuinely exercised: after budget-truncated rounds,
/// a later round resumes pooled frontiers (refreshed/snapshot, not
/// recompiled) and still converges to the exact probability.
#[test]
fn delta_rounds_resume_pooled_frontiers() {
    for shards in SHARDS {
        let (mut space, vars, mut lineage) = chain_fixture();

        let trickle = cluster(ConfidenceMethod::DTreeRelative(1e-6), true, Some(4), shards);
        let mut pool = ResumablePool::new(4);
        trickle.maintain_batch(std::slice::from_ref(&lineage), &[None], &space, None, &mut pool);
        assert_eq!(pool.len(), 1, "budgeted run should truncate and pool a frontier");

        let fresh = space.add_bool("s0", 0.3);
        let grown = lineage.or(&Dnf::from_clauses(vec![Clause::from_bools(&[fresh, vars[0]])]));
        let delta = LineageDelta::between(&lineage, &grown).expect("append-only");
        lineage = grown;

        let converge = cluster(ConfidenceMethod::DTreeRelative(1e-6), true, None, shards);
        let r =
            converge.maintain_batch(&[lineage.clone()], &[Some(delta)], &space, None, &mut pool);
        let (recompiled, refreshed, snapshots) = paths(&r);
        assert_eq!(recompiled, 0, "shards={shards}: pooled frontier must be reused");
        assert_eq!(refreshed + snapshots, 1, "shards={shards}");
        assert!(r.all_converged());
        let exact = dtree::exact_probability(&lineage, &space, &dtree::CompileOptions::default())
            .probability;
        assert!((r.results[0].estimate - exact).abs() < 1e-6 * exact + 1e-12);
    }
}
