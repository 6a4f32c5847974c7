//! Property-based integration tests of the approximation guarantees: on
//! randomly generated DNFs and randomly generated probabilistic databases,
//! every algorithm must respect its error contract against brute-force
//! possible-world enumeration.

use dtree_approx::dtree::{
    dnf_bounds, dnf_bounds_sorted, exact_probability, ApproxCompiler, ApproxOptions, CompileOptions,
};
use dtree_approx::events::{Clause, Dnf, ProbabilitySpace};
use dtree_approx::montecarlo::{aconf, naive_monte_carlo, McOptions, NaiveOptions};
use proptest::prelude::*;

/// Strategy: a small random probability space plus a random positive DNF over
/// it (at most 8 Boolean variables so enumeration stays instant).
fn small_dnf() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
    let probs = prop::collection::vec(0.05f64..0.95, 2..8);
    probs.prop_flat_map(|ps| {
        let nvars = ps.len();
        let clause = prop::collection::btree_set(0..nvars, 1..=3.min(nvars));
        let clauses = prop::collection::vec(clause, 1..6)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The d-tree exact evaluation equals brute-force enumeration.
    #[test]
    fn dtree_exact_equals_enumeration((ps, cs) in small_dnf()) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let d = exact_probability(&dnf, &space, &CompileOptions::default());
        prop_assert!((d.probability - exact).abs() < 1e-9);
    }

    /// Both leaf-bound heuristics (Figure 3 and the strengthened variant)
    /// always bracket the exact probability, and the strengthened bound is
    /// never looser.
    #[test]
    fn leaf_bounds_bracket_exact_probability((ps, cs) in small_dnf()) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let fig3 = dnf_bounds_sorted(&dnf, &space, true);
        let improved = dnf_bounds(&dnf, &space);
        prop_assert!(fig3.lower <= exact + 1e-9 && exact <= fig3.upper + 1e-9);
        prop_assert!(improved.lower <= exact + 1e-9 && exact <= improved.upper + 1e-9);
        prop_assert!(improved.upper <= fig3.upper + 1e-9);
        prop_assert!(improved.lower + 1e-9 >= fig3.lower);
    }

    /// The absolute ε-approximation honours its contract for several ε.
    #[test]
    fn absolute_approximation_contract((ps, cs) in small_dnf(), eps in 0.001f64..0.2) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let r = ApproxCompiler::new(ApproxOptions::absolute(eps)).run(&dnf, &space);
        prop_assert!(r.converged);
        prop_assert!((r.estimate - exact).abs() <= eps + 1e-9,
            "estimate {} exact {} eps {}", r.estimate, exact, eps);
        prop_assert!(r.lower <= exact + 1e-9 && exact <= r.upper + 1e-9);
    }

    /// The relative ε-approximation honours its contract.
    #[test]
    fn relative_approximation_contract((ps, cs) in small_dnf(), eps in 0.005f64..0.2) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let r = ApproxCompiler::new(ApproxOptions::relative(eps)).run(&dnf, &space);
        prop_assert!(r.converged);
        prop_assert!((r.estimate - exact).abs() <= eps * exact + 1e-9,
            "estimate {} exact {} eps {}", r.estimate, exact, eps);
    }

    /// The Karp-Luby (ε, δ)-approximation is within its relative error on the
    /// vast majority of runs (δ = 10⁻⁴; a seeded RNG keeps this
    /// deterministic).
    #[test]
    fn karp_luby_contract((ps, cs) in small_dnf(), seed in 0u64..1000) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let r = aconf(&dnf, &space, &McOptions::new(0.05).with_seed(seed));
        prop_assert!(r.converged);
        // Allow a small additive slack on top of the relative guarantee to
        // absorb the δ failure probability over many proptest cases.
        prop_assert!((r.estimate - exact).abs() <= 0.08 * exact + 0.02,
            "estimate {} exact {}", r.estimate, exact);
    }

    /// The naive Monte-Carlo sampler achieves its additive error.
    #[test]
    fn naive_monte_carlo_contract((ps, cs) in small_dnf(), seed in 0u64..1000) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let opts = NaiveOptions::new(0.05).with_seed(seed);
        let r = naive_monte_carlo(&dnf, &space, &opts);
        prop_assert!((r.estimate - exact).abs() <= 0.12, "estimate {} exact {}", r.estimate, exact);
    }
}
