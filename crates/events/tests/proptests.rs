//! Property-based tests for the event-algebra substrate.

use events::{Atom, Clause, Dnf, ProbabilitySpace, VarId};
use proptest::prelude::*;

/// Strategy: a probability space of `n` Boolean variables with probabilities
/// bounded away from 0 and 1, plus a random DNF over them.
fn arb_space_and_dnf(
    max_vars: usize,
    max_clauses: usize,
    max_clause_len: usize,
) -> impl Strategy<Value = (ProbabilitySpace, Dnf)> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let probs = prop::collection::vec(0.05f64..0.95, nvars);
        let clauses = prop::collection::vec(
            prop::collection::vec((0..nvars, prop::bool::ANY), 1..=max_clause_len),
            1..=max_clauses,
        );
        (probs, clauses).prop_map(|(probs, clause_specs)| {
            let mut space = ProbabilitySpace::new();
            let vars: Vec<VarId> = probs
                .iter()
                .enumerate()
                .map(|(i, &p)| space.add_bool(format!("x{i}"), p))
                .collect();
            let clauses = clause_specs.into_iter().map(|atoms| {
                Clause::from_atoms(atoms.into_iter().map(|(vi, positive)| {
                    if positive {
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Removing subsumed clauses never changes the probability.
    #[test]
    fn subsumption_preserves_probability((space, dnf) in arb_space_and_dnf(6, 6, 4)) {
        let p1 = dnf.exact_probability_enumeration(&space);
        let p2 = dnf.remove_subsumed().exact_probability_enumeration(&space);
        prop_assert!((p1 - p2).abs() < 1e-9, "p1={p1} p2={p2}");
    }

    /// Shannon expansion is exact: P(Φ) = Σ_a P(x=a)·P(Φ|x=a).
    #[test]
    fn shannon_expansion_is_exact((space, dnf) in arb_space_and_dnf(6, 6, 4)) {
        prop_assume!(!dnf.is_empty() && !dnf.is_tautology());
        let var = dnf.most_frequent_var().unwrap();
        let p = dnf.exact_probability_enumeration(&space);
        let mut total = 0.0;
        for value in 0..space.domain_size(var) {
            let cof = dnf.cofactor(var, value);
            total += space.prob(var, value) * cof.exact_probability_enumeration(&space);
        }
        prop_assert!((p - total).abs() < 1e-9, "p={p} shannon={total}");
    }

    /// Independent components multiply out: P(Φ) = 1 - Π (1 - P(Φi)).
    #[test]
    fn independent_or_is_exact((space, dnf) in arb_space_and_dnf(7, 6, 3)) {
        let p = dnf.exact_probability_enumeration(&space);
        let comps = dnf.independent_components();
        let combined = 1.0
            - comps
                .iter()
                .map(|c| 1.0 - c.exact_probability_enumeration(&space))
                .product::<f64>();
        if dnf.is_empty() {
            prop_assert_eq!(p, 0.0);
        } else {
            prop_assert!((p - combined).abs() < 1e-9, "p={} combined={}", p, combined);
        }
    }

    /// The clause-probability sum is an upper bound and the max clause
    /// probability a lower bound on P(Φ).
    #[test]
    fn trivial_bounds_bracket_probability((space, dnf) in arb_space_and_dnf(6, 6, 4)) {
        prop_assume!(!dnf.is_empty());
        let p = dnf.exact_probability_enumeration(&space);
        let upper = dnf.clause_probability_sum(&space).min(1.0);
        let lower = dnf
            .clauses()
            .iter()
            .map(|c| c.probability(&space))
            .fold(0.0f64, f64::max);
        prop_assert!(p <= upper + 1e-9, "p={p} upper={upper}");
        prop_assert!(p >= lower - 1e-9, "p={p} lower={lower}");
    }

    /// Disjunction never decreases probability; conjunction never increases it.
    #[test]
    fn monotonicity_of_connectives(
        (space, dnf) in arb_space_and_dnf(6, 4, 3),
        (_, other_template) in arb_space_and_dnf(6, 4, 3),
    ) {
        // Re-interpret `other_template` over the first space by keeping only
        // variables that exist there.
        let nvars = space.num_vars() as u32;
        let other = Dnf::from_clauses(other_template.clauses().iter().filter_map(|c| {
            let atoms: Vec<Atom> = c.atoms().iter().copied().filter(|a| a.var.0 < nvars).collect();
            if atoms.is_empty() { None } else { Some(Clause::from_atoms(atoms)) }
        }));
        let p = dnf.exact_probability_enumeration(&space);
        let p_or = dnf.or(&other).exact_probability_enumeration(&space);
        let p_and = dnf.and(&other).exact_probability_enumeration(&space);
        prop_assert!(p_or >= p - 1e-9);
        prop_assert!(p_and <= p + 1e-9);
    }

    /// A clause's probability equals the product of its atoms' marginals.
    #[test]
    fn clause_probability_is_product(
        probs in prop::collection::vec(0.05f64..0.95, 1..6),
    ) {
        let mut space = ProbabilitySpace::new();
        let vars: Vec<VarId> =
            probs.iter().enumerate().map(|(i, &p)| space.add_bool(format!("x{i}"), p)).collect();
        let clause = Clause::from_bools(&vars);
        let expected: f64 = probs.iter().product();
        prop_assert!((clause.probability(&space) - expected).abs() < 1e-12);
    }

    /// `cofactor` never grows the clause count and drops the expanded variable.
    #[test]
    fn cofactor_shrinks((space, dnf) in arb_space_and_dnf(6, 6, 4)) {
        prop_assume!(!dnf.is_empty() && !dnf.is_tautology());
        let var = dnf.most_frequent_var().unwrap();
        for value in 0..space.domain_size(var) {
            let cof = dnf.cofactor(var, value);
            prop_assert!(cof.len() <= dnf.len());
            prop_assert!(!cof.vars().contains(&var));
        }
    }

    /// Arena views replay the owned decomposition operators exactly: random
    /// chains of cofactors / component splits / subsumption removal /
    /// common-atom stripping keep the view's materialisation, canonical hash,
    /// and structural queries bit-identical to the owned `Dnf` path.
    #[test]
    fn arena_views_track_owned_decomposition(
        (space, dnf) in arb_space_and_dnf(8, 8, 4),
        steps in prop::collection::vec((0u8..4, 0u32..1_000_000), 1..8),
    ) {
        use events::LineageArena;
        let mut arena = LineageArena::new();
        let mut view = arena.intern(&dnf);
        let mut owned = dnf.clone();
        for (op, pick) in steps {
            // Invariants at every node of the walk.
            prop_assert_eq!(&view.to_dnf(&arena), &owned);
            prop_assert_eq!(view.hash(&arena), owned.canonical_hash());
            prop_assert_eq!(view.vars(&arena), owned.vars());
            prop_assert_eq!(view.most_frequent_var(&arena), owned.most_frequent_var());
            prop_assert_eq!(view.is_tautology(&arena), owned.is_tautology());
            prop_assert_eq!(view.required_watermark(&arena), owned.required_watermark());
            prop_assert_eq!(
                view.clauses_by_probability_desc(&arena, &space),
                owned.clauses_by_probability_desc(&space)
            );
            if owned.is_empty() || owned.is_tautology() {
                break;
            }
            match op {
                0 => {
                    let vars: Vec<_> = owned.vars().into_iter().collect();
                    let var = vars[pick as usize % vars.len()];
                    let value = pick % space.domain_size(var);
                    owned = owned.cofactor(var, value);
                    view = view.cofactor(&mut arena, var, value);
                }
                1 => {
                    let comps_owned = owned.independent_components();
                    let comps_view = view.independent_components(&arena);
                    prop_assert_eq!(comps_owned.len(), comps_view.len());
                    let i = pick as usize % comps_owned.len();
                    owned = comps_owned[i].clone();
                    view = comps_view[i].clone();
                }
                2 => {
                    let reduced = owned.remove_subsumed();
                    let (v, removed) = view.remove_subsumed(&arena);
                    prop_assert_eq!(owned.len() - reduced.len(), removed);
                    owned = reduced;
                    view = v;
                }
                _ => {
                    let common = owned.common_atoms();
                    prop_assert_eq!(&view.common_atoms(&arena), &common);
                    if common.is_empty() {
                        continue;
                    }
                    let vars: Vec<_> = common.iter().map(|a| a.var).collect();
                    owned = owned.strip_atoms(&common);
                    view = view.strip_vars(&mut arena, &vars);
                }
            }
        }
        prop_assert_eq!(&view.to_dnf(&arena), &owned);
        prop_assert_eq!(view.hash(&arena), owned.canonical_hash());
    }
}
