//! Differential property tests for the observability layer: attaching a
//! metrics registry — enabled or the default no-op — never changes any
//! computed value. Every obs handle is write-only by construction, so these
//! tests pin the invariant end to end: all five confidence methods, all
//! three engine cache modes, and budgeted resume slices produce bit-identical
//! estimates and bounds whether or not a live registry is attached.

use std::sync::Arc;

use dtree::{ApproxCompiler, ApproxOptions, ResumeBudget, SubformulaCache};
use events::{Clause, Dnf, ProbabilitySpace};
use obs::Obs;
use pdb::confidence::{ConfidenceBudget, ConfidenceMethod};
use pdb::ConfidenceEngine;
use proptest::prelude::*;

/// All five confidence methods of the paper's evaluation. The Monte-Carlo
/// methods run under the engine's deterministic per-item seeding, so both
/// sides of every comparison are bit-exact.
fn all_methods() -> Vec<ConfidenceMethod> {
    vec![
        ConfidenceMethod::DTreeExact,
        ConfidenceMethod::DTreeAbsolute(0.01),
        ConfidenceMethod::DTreeRelative(0.05),
        ConfidenceMethod::KarpLuby { epsilon: 0.3, delta: 0.1 },
        ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.3 },
    ]
}

fn unbounded() -> ConfidenceBudget {
    ConfidenceBudget { timeout: None, max_work: None }
}

/// A random batch over a shared space: variable probabilities plus, per
/// lineage, clauses given as variable-index lists.
fn batch_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<Vec<usize>>>)> {
    let probs = prop::collection::vec(0.05f64..0.95, 3..9);
    let clause = prop::collection::vec(0usize..64, 1..4);
    let lineage = prop::collection::vec(clause, 1..5);
    let lineages = prop::collection::vec(lineage, 1..5);
    (probs, lineages)
}

/// Materialises a strategy draw into a space and a batch of DNFs.
fn build(probs: &[f64], raw: &[Vec<Vec<usize>>]) -> (ProbabilitySpace, Vec<Dnf>) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        probs.iter().enumerate().map(|(i, &p)| space.add_bool(format!("v{i}"), p)).collect();
    let lineages = raw
        .iter()
        .map(|clauses| {
            Dnf::from_clauses(clauses.iter().map(|c| {
                Clause::from_bools(&c.iter().map(|&i| vars[i % vars.len()]).collect::<Vec<_>>())
            }))
        })
        .collect();
    (space, lineages)
}

/// The three registry wirings under comparison: none (the pre-obs path),
/// the default disabled handle, and a live enabled registry.
fn wirings() -> Vec<Option<Obs>> {
    vec![None, Some(Obs::default()), Some(Obs::enabled())]
}

fn engine(method: &ConfidenceMethod, seed: u64, obs: Option<&Obs>) -> ConfidenceEngine {
    let e = ConfidenceEngine::new(method.clone()).with_budget(unbounded()).with_seed(seed);
    match obs {
        Some(o) => e.with_obs(o),
        None => e,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every method × every cache mode: the batch results are bit-identical
    /// across all three registry wirings.
    #[test]
    fn batches_are_bit_identical_across_registry_wirings(
        (probs, raw) in batch_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let (space, lineages) = build(&probs, &raw);
        for method in all_methods() {
            // Cache modes: per-batch default, cache off, long-lived shared.
            let modes: [&dyn Fn(ConfidenceEngine) -> ConfidenceEngine; 3] = [
                &|e| e,
                &|e| e.without_cache(),
                &|e| e.with_shared_cache(Arc::new(SubformulaCache::new())),
            ];
            for (m, mode) in modes.iter().enumerate() {
                let base = mode(engine(&method, seed, None))
                    .confidence_batch(&lineages, &space, None);
                for obs in wirings().iter().skip(1) {
                    let got = mode(engine(&method, seed, obs.as_ref()))
                        .confidence_batch(&lineages, &space, None);
                    prop_assert_eq!(base.results.len(), got.results.len());
                    for (a, b) in base.results.iter().zip(&got.results) {
                        prop_assert_eq!(
                            a.estimate.to_bits(), b.estimate.to_bits(),
                            "estimate diverged: {:?} cache mode {}", &method, m
                        );
                        prop_assert_eq!(a.lower.to_bits(), b.lower.to_bits());
                        prop_assert_eq!(a.upper.to_bits(), b.upper.to_bits());
                        prop_assert_eq!(a.converged, b.converged);
                    }
                }
            }
        }
    }

    /// Budgeted resume slices: two handles over the same truncated run — one
    /// with a live registry, one without — tighten through bit-identical
    /// bounds at every slice boundary.
    #[test]
    fn resume_slices_are_bit_identical_with_a_live_registry(
        (probs, raw) in batch_strategy(),
        slice in 1usize..16,
    ) {
        let (space, lineages) = build(&probs, &raw);
        let lineage = Dnf::from_clauses(
            lineages.iter().flat_map(|l| l.clauses().iter().cloned()),
        );
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(0.0).with_max_steps(1));
        let (_, mut plain) = compiler.run_resumable(&lineage, &space, None);
        let (_, mut observed) = compiler.run_resumable(&lineage, &space, None);
        let obs = Obs::enabled();
        observed.attach_obs(&obs);
        for _ in 0..32 {
            let a = plain.resume(&space, ResumeBudget::steps(slice), None);
            let b = observed.resume(&space, ResumeBudget::steps(slice), None);
            prop_assert_eq!(a.lower.to_bits(), b.lower.to_bits());
            prop_assert_eq!(a.upper.to_bits(), b.upper.to_bits());
            prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            prop_assert_eq!(a.steps, b.steps);
            prop_assert_eq!(plain.width().to_bits(), observed.width().to_bits());
            if plain.is_converged() {
                prop_assert!(observed.is_converged());
                break;
            }
        }
        // The registry actually saw the slices it claims not to perturb.
        let snap = obs.snapshot().expect("registry is enabled");
        let slices =
            snap.counters.iter().find(|(n, _)| n == "dtree.resume.slices").map_or(0, |&(_, v)| v);
        prop_assert!(slices > 0, "instrumented handle recorded no slices");
    }
}
