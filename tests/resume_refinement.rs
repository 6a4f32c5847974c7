//! Property-based integration tests of the resumable anytime refinement:
//! suspending a budgeted d-tree compilation and resuming it later must never
//! yield wider bounds than a one-shot run at the full budget, uninterrupted
//! runs must stay bit-identical to the reference compiler, and resuming past
//! an expired deadline must return promptly.

use std::time::{Duration, Instant};

use dtree_approx::dtree::reference::approx_reference;
use dtree_approx::dtree::{ApproxCompiler, ApproxOptions, ResumeBudget, SubformulaCache};
use dtree_approx::events::{Clause, Dnf, ProbabilitySpace};
use dtree_approx::pdb::confidence::{
    confidence_resumable, confidence_with, ConfidenceBudget, ConfidenceMethod,
};
use proptest::prelude::*;

/// Strategy: a small random probability space plus a random positive DNF over
/// it. Slightly larger than the approximation-guarantee tests so truncation at
/// small step budgets actually leaves open frontiers to resume.
fn small_dnf() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
    let probs = prop::collection::vec(0.05f64..0.95, 3..10);
    probs.prop_flat_map(|ps| {
        let nvars = ps.len();
        let clause = prop::collection::btree_set(0..nvars, 1..=3.min(nvars));
        let clauses = prop::collection::vec(clause, 1..8)
            .prop_map(|cs| cs.into_iter().map(|c| c.into_iter().collect()).collect());
        (Just(ps), clauses)
    })
}

fn build(ps: &[f64], clause_vars: &[Vec<usize>]) -> (ProbabilitySpace, Dnf) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        ps.iter().enumerate().map(|(i, &p)| space.add_bool(format!("v{i}"), p)).collect();
    let clauses: Vec<Clause> = clause_vars
        .iter()
        .map(|c| Clause::from_bools(&c.iter().map(|&i| vars[i]).collect::<Vec<_>>()))
        .collect();
    (space, Dnf::from_clauses(clauses))
}

/// Interval width of a one-shot run at `steps` decomposition steps.
fn one_shot_width(dnf: &Dnf, space: &ProbabilitySpace, eps: f64, steps: usize) -> f64 {
    let opts = ApproxOptions::absolute(eps).with_max_steps(steps);
    let r = ApproxCompiler::new(opts).run(dnf, space);
    r.upper - r.lower
}

/// The five confidence methods the front-end dispatches on.
fn five_methods() -> Vec<ConfidenceMethod> {
    vec![
        ConfidenceMethod::DTreeExact,
        ConfidenceMethod::DTreeAbsolute(1e-4),
        ConfidenceMethod::DTreeRelative(1e-3),
        ConfidenceMethod::KarpLuby { epsilon: 0.1, delta: 0.01 },
        ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.1 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Core anytime property: suspending after `k` steps and resuming with the
    /// remaining `n − k` steps never ends wider than the one-shot run at the
    /// full budget `n` — with and without a shared sub-formula cache.
    #[test]
    fn suspend_resume_never_wider_than_one_shot(
        (ps, cs) in small_dnf(),
        total in 2usize..24,
        split in 1usize..23,
    ) {
        let (space, dnf) = build(&ps, &cs);
        let k = split.min(total - 1);
        let full = one_shot_width(&dnf, &space, 0.0, total);

        for cached in [false, true] {
            let cache = SubformulaCache::new();
            let cache = cached.then_some(&cache);
            let opts = ApproxOptions::absolute(0.0).with_max_steps(k);
            // Anytime runs always hand back a frontier — open if truncated,
            // settled if already converged at `k` steps (the resume is then a
            // no-op returning the held bounds).
            let (_, mut h) = ApproxCompiler::new(opts).run_resumable(&dnf, &space, cache);
            let budget = ResumeBudget::steps(total - k);
            let r = h.resume(&space, budget, cache);
            let width = r.upper - r.lower;
            prop_assert!(
                width <= full + 1e-12,
                "cached={cached}: resumed width {width} > one-shot width {full}"
            );
        }
    }

    /// Uninterrupted runs through the resumable entry point are bit-identical
    /// to the reference compiler: capturing a frontier must not perturb a
    /// computation that never needed it. The settled frontier they hand back
    /// reports convergence and holds the same bounds.
    #[test]
    fn uninterrupted_runs_match_the_reference_compiler((ps, cs) in small_dnf()) {
        let (space, dnf) = build(&ps, &cs);
        for opts in [ApproxOptions::absolute(1e-3), ApproxOptions::relative(1e-2)] {
            let expected = approx_reference(&dnf, &space, &opts);
            let (got, handle) = ApproxCompiler::new(opts).run_resumable(&dnf, &space, None);
            prop_assert!(handle.is_converged(), "uninterrupted run must settle its frontier");
            prop_assert_eq!(handle.bounds().lower.to_bits(), expected.lower.to_bits());
            prop_assert_eq!(handle.bounds().upper.to_bits(), expected.upper.to_bits());
            prop_assert_eq!(got.lower.to_bits(), expected.lower.to_bits());
            prop_assert_eq!(got.upper.to_bits(), expected.upper.to_bits());
            prop_assert_eq!(got.estimate.to_bits(), expected.estimate.to_bits());
            prop_assert!(got.converged && expected.converged);
        }
    }

    /// The front-end property across all five confidence methods: the
    /// budgeted d-tree methods always hand back a resumable handle (open if
    /// truncated, settled if converged), and resuming with the remaining work
    /// never ends wider than one shot at the full budget; the Monte-Carlo
    /// methods have no frontier to persist and stay bit-identical to
    /// `confidence_with`.
    #[test]
    fn all_five_methods_suspend_and_resume_soundly(
        (ps, cs) in small_dnf(),
        seed in 0u64..1000,
    ) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let total: u64 = 16;
        let k: u64 = 3;
        let slice = ConfidenceBudget { timeout: None, max_work: Some(k) };
        let full = ConfidenceBudget { timeout: None, max_work: Some(total) };

        for method in five_methods() {
            for cached in [false, true] {
                let cache = SubformulaCache::new();
                let cache = cached.then_some(&cache);
                let (first, handle) =
                    confidence_resumable(&dnf, &space, None, &method, &slice, Some(seed), cache);
                prop_assert!(
                    first.lower <= first.upper + 1e-12,
                    "{}: inverted interval", method.label()
                );
                match handle {
                    Some(mut h) => {
                        prop_assert!(method.is_deterministic());
                        let rest =
                            ConfidenceBudget { timeout: None, max_work: Some(total - k) };
                        let r = h.resume(&space, &rest, cache);
                        let one = confidence_with(
                            &dnf, &space, None, &method, &full, Some(seed), None,
                        );
                        prop_assert!(
                            r.upper - r.lower <= one.upper - one.lower + 1e-12,
                            "{} cached={cached}: resumed [{}, {}] wider than one-shot [{}, {}]",
                            method.label(), r.lower, r.upper, one.lower, one.upper
                        );
                        // Sound bounds throughout for the d-tree methods.
                        prop_assert!(r.lower <= exact + 1e-9 && exact <= r.upper + 1e-9);
                        prop_assert!(!h.failed());
                    }
                    None => {
                        // Only the Monte-Carlo methods have no frontier to
                        // persist; budgeted d-tree runs always hand one back.
                        prop_assert!(
                            !method.is_deterministic(),
                            "{}: budgeted d-tree runs must return a handle", method.label()
                        );
                        let plain = confidence_with(
                            &dnf, &space, None, &method, &slice, Some(seed), cache,
                        );
                        prop_assert_eq!(
                            first.estimate.to_bits(), plain.estimate.to_bits(),
                            "{}: resumable path must match confidence_with", method.label()
                        );
                    }
                }
            }
        }
    }
}

/// Resuming a suspended handle against an already-expired deadline returns
/// promptly with the bounds it held, rather than starting new work.
#[test]
fn expired_deadline_resume_returns_promptly() {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        (0..18).map(|i| space.add_bool(format!("v{i}"), 0.15 + 0.03 * f64::from(i % 9))).collect();
    let clauses: Vec<Clause> = vars.windows(2).map(Clause::from_bools).collect();
    let dnf = Dnf::from_clauses(clauses);

    let budget = ConfidenceBudget { timeout: None, max_work: Some(2) };
    let (_, handle) = confidence_resumable(
        &dnf,
        &space,
        None,
        &ConfidenceMethod::DTreeExact,
        &budget,
        None,
        None,
    );
    let mut handle = handle.expect("a 2-step budget must truncate this lineage");
    let before = handle.bounds();

    let expired = Instant::now() - Duration::from_secs(1);
    let started = Instant::now();
    let r = handle.resume_until(&space, expired, None);
    let took = started.elapsed();

    assert!(took < Duration::from_millis(100), "expired resume took {took:?}");
    assert!(!r.converged);
    assert_eq!((r.lower.to_bits(), r.upper.to_bits()), (before.0.to_bits(), before.1.to_bits()));
    assert!(!handle.failed());

    // The handle is still live: an unlimited follow-up slice converges.
    let r = handle.resume(&space, &ConfidenceBudget::default(), None);
    assert!(r.converged);
    assert!((r.estimate - dnf.exact_probability_enumeration(&space)).abs() < 1e-9);
}
