//! Property-based tests for the d-tree compiler and approximation algorithm.

use dtree::{
    compile, dnf_bounds, exact_probability, ApproxCompiler, ApproxOptions, CompileOptions,
};
use events::{Atom, Clause, Dnf, ProbabilitySpace, VarId};
use proptest::prelude::*;

/// Strategy producing a probability space and a random DNF over it.
fn arb_space_and_dnf() -> impl Strategy<Value = (ProbabilitySpace, Dnf)> {
    (2usize..=8).prop_flat_map(|nvars| {
        let probs = prop::collection::vec(0.05f64..0.95, nvars);
        let clauses = prop::collection::vec(
            prop::collection::vec((0..nvars, prop::bool::ANY), 1..=4usize),
            1..=7usize,
        );
        (probs, clauses).prop_map(|(probs, clause_specs)| {
            let mut space = ProbabilitySpace::new();
            let vars: Vec<VarId> = probs
                .iter()
                .enumerate()
                .map(|(i, &p)| space.add_bool(format!("x{i}"), p))
                .collect();
            let clauses = clause_specs.into_iter().map(|atoms| {
                Clause::from_atoms(atoms.into_iter().map(|(vi, pos)| {
                    if pos {
                        Atom::pos(vars[vi])
                    } else {
                        Atom::neg(vars[vi])
                    }
                }))
            });
            (space, Dnf::from_clauses(clauses))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exhaustive compilation yields a complete d-tree whose one-pass
    /// probability matches brute-force enumeration (Propositions 4.3/4.5).
    #[test]
    fn compile_is_exact((space, dnf) in arb_space_and_dnf()) {
        let tree = compile(&dnf, &space, &CompileOptions::default());
        prop_assert!(tree.is_complete());
        let p_tree = tree.exact_probability(&space).unwrap();
        let p_ref = dnf.exact_probability_enumeration(&space);
        prop_assert!((p_tree - p_ref).abs() < 1e-9, "tree {p_tree} ref {p_ref}");
    }

    /// The on-the-fly exact evaluator agrees with enumeration.
    #[test]
    fn exact_evaluator_matches_enumeration((space, dnf) in arb_space_and_dnf()) {
        let r = exact_probability(&dnf, &space, &CompileOptions::default());
        let p_ref = dnf.exact_probability_enumeration(&space);
        prop_assert!((r.probability - p_ref).abs() < 1e-9);
    }

    /// The bucket heuristic of Figure 3 always brackets the exact probability
    /// (Proposition 5.1).
    #[test]
    fn bucket_bounds_are_sound((space, dnf) in arb_space_and_dnf()) {
        let b = dnf_bounds(&dnf, &space);
        let p_ref = dnf.exact_probability_enumeration(&space);
        prop_assert!(b.lower <= p_ref + 1e-9, "lower {} > exact {}", b.lower, p_ref);
        prop_assert!(b.upper >= p_ref - 1e-9, "upper {} < exact {}", b.upper, p_ref);
    }

    /// Bounds of a partially compiled d-tree bracket the exact probability
    /// (Proposition 5.4), at every cut-off depth.
    #[test]
    fn partial_dtree_bounds_are_sound((space, dnf) in arb_space_and_dnf(), depth in 0usize..4) {
        let opts = CompileOptions { max_depth: Some(depth), ..Default::default() };
        let tree = compile(&dnf, &space, &opts);
        let b = tree.bounds(&space);
        let p_ref = dnf.exact_probability_enumeration(&space);
        prop_assert!(b.lower <= p_ref + 1e-9);
        prop_assert!(b.upper >= p_ref - 1e-9);
    }

    /// The depth-first approximation with absolute error guarantee really is
    /// within ε of the exact probability, and its bounds are sound.
    #[test]
    fn absolute_approximation_guarantee(
        (space, dnf) in arb_space_and_dnf(),
        eps in prop::sample::select(vec![0.2, 0.05, 0.01, 0.001]),
    ) {
        let r = ApproxCompiler::new(ApproxOptions::absolute(eps)).run(&dnf, &space);
        let p_ref = dnf.exact_probability_enumeration(&space);
        prop_assert!(r.converged);
        prop_assert!((r.estimate - p_ref).abs() <= eps + 1e-9,
            "estimate {} exact {} eps {}", r.estimate, p_ref, eps);
        prop_assert!(r.lower <= p_ref + 1e-9 && p_ref <= r.upper + 1e-9);
    }

    /// Same for the relative error guarantee.
    #[test]
    fn relative_approximation_guarantee(
        (space, dnf) in arb_space_and_dnf(),
        eps in prop::sample::select(vec![0.2, 0.05, 0.01]),
    ) {
        let r = ApproxCompiler::new(ApproxOptions::relative(eps)).run(&dnf, &space);
        let p_ref = dnf.exact_probability_enumeration(&space);
        prop_assert!(r.converged);
        prop_assert!((r.estimate - p_ref).abs() <= eps * p_ref + 1e-9,
            "estimate {} exact {} eps {}", r.estimate, p_ref, eps);
    }

    /// A step budget never produces unsound bounds.
    #[test]
    fn budgeted_runs_stay_sound(
        (space, dnf) in arb_space_and_dnf(),
        budget in 0usize..6,
    ) {
        let r = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(budget))
            .run(&dnf, &space);
        let p_ref = dnf.exact_probability_enumeration(&space);
        prop_assert!(r.lower <= p_ref + 1e-9 && p_ref <= r.upper + 1e-9);
    }
}
