//! Property-based tests for the d-tree compiler and approximation algorithm.

use std::collections::{BTreeMap, BTreeSet};

use dtree::reference::dnf_bounds_reference;
use dtree::{
    choose_iq_variable, choose_variable, compile, dnf_bounds, dnf_bounds_sorted, exact_probability,
    ApproxCompiler, ApproxOptions, Bounds, CompileOptions, VarOrder,
};
use events::{Atom, Clause, Dnf, DnfView, LineageArena, ProbabilitySpace, VarId, VarOrigins};
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

/// Strategy producing DNFs too wide for enumeration but built to need more
/// than 64 first-fit buckets: one hub variable shared by 100–160 clauses
/// (pairwise dependent, so each takes its own bucket), plus a product of two
/// variable groups, a chain, and a few random clauses whose negative
/// literals sometimes make the DNF non-monotone.
fn arb_wide_space_and_dnf() -> impl Strategy<Value = (ProbabilitySpace, Dnf)> {
    (100usize..=160, 1usize..=6, 1usize..=6, 1usize..=20).prop_flat_map(|(hub, m, k, chain)| {
        let nvars = 1 + hub + m + k + chain + 1;
        let probs = prop::collection::vec(0.05f64..0.95, nvars);
        let hub_extras = prop::collection::vec((0..nvars, prop::bool::ANY), hub);
        let random = prop::collection::vec(
            prop::collection::vec((0..nvars, 0..4usize), 1..=4usize),
            0..=6usize,
        );
        (probs, hub_extras, random).prop_map(move |(probs, hub_extras, random)| {
            let mut space = ProbabilitySpace::new();
            let vars: Vec<VarId> = probs
                .iter()
                .enumerate()
                .map(|(i, &p)| space.add_bool(format!("x{i}"), p))
                .collect();
            let mut clauses = Vec::new();
            // Hub clauses `h ∧ yᵢ`, sometimes with one more variable.
            for (i, (extra, with_extra)) in hub_extras.into_iter().enumerate() {
                let mut atoms = vec![vars[0], vars[1 + i]];
                if with_extra {
                    atoms.push(vars[extra]);
                }
                clauses.push(Clause::from_bools(&atoms));
            }
            // The product (a₁ ∨ … ∨ a_m) ⊙ (b₁ ∨ … ∨ b_k).
            let (a0, b0) = (1 + hub, 1 + hub + m);
            for a in a0..a0 + m {
                for b in b0..b0 + k {
                    clauses.push(Clause::from_bools(&[vars[a], vars[b]]));
                }
            }
            // The chain x₁x₂ ∨ x₂x₃ ∨ ….
            let c0 = 1 + hub + m + k;
            for c in c0..c0 + chain {
                clauses.push(Clause::from_bools(&[vars[c], vars[c + 1]]));
            }
            // Random clauses; a quarter of their literals are negative.
            for spec in random {
                clauses.push(Clause::from_atoms(spec.into_iter().map(|(v, polarity)| {
                    if polarity == 0 {
                        Atom::neg(vars[v])
                    } else {
                        Atom::pos(vars[v])
                    }
                })));
            }
            (space, Dnf::from_clauses(clauses))
        })
    })
}

/// Figure 3's first-fit over `dnf`'s clauses in `order`, with the buckets'
/// variables kept in tree sets.
fn first_fit_oracle(dnf: &Dnf, space: &ProbabilitySpace, order: &[usize]) -> Bounds {
    let mut buckets: Vec<(BTreeSet<VarId>, f64)> = Vec::new();
    for &i in order {
        let clause = &dnf.clauses()[i];
        let p = clause.probability(space);
        match buckets.iter_mut().find(|(vars, _)| clause.vars().all(|v| !vars.contains(&v))) {
            Some((vars, prob)) => {
                vars.extend(clause.vars());
                *prob = 1.0 - (1.0 - *prob) * (1.0 - p);
            }
            None => buckets.push((clause.vars().collect(), p)),
        }
    }
    let lower = buckets.iter().map(|b| b.1).fold(0.0f64, f64::max);
    let upper: f64 = buckets.iter().map(|b| b.1).sum();
    Bounds::new(lower, upper.min(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bitset first-fit of `dnf_bounds` is bit-identical to the
    /// tree-set reference, on both ends, including past 64 buckets.
    #[test]
    fn bucket_bounds_bit_identical_to_reference((space, dnf) in arb_wide_space_and_dnf()) {
        let (fast, slow) = (dnf_bounds(&dnf, &space), dnf_bounds_reference(&dnf, &space));
        prop_assert_eq!(fast.lower.to_bits(), slow.lower.to_bits());
        prop_assert_eq!(fast.upper.to_bits(), slow.upper.to_bits());
    }

    /// `dnf_bounds_sorted` in canonical and in descending-probability order
    /// equals a textbook first-fit, bit for bit.
    #[test]
    fn bucket_bounds_sorted_bit_identical_to_first_fit(
        (space, dnf) in arb_wide_space_and_dnf(),
    ) {
        let canonical: Vec<usize> = (0..dnf.len()).collect();
        let descending: Vec<usize> =
            dnf.clauses_by_probability_desc(&space).into_iter().map(|(i, _)| i).collect();
        for (sort_descending, order) in [(false, canonical), (true, descending)] {
            let fast = dnf_bounds_sorted(&dnf, &space, sort_descending);
            let slow = first_fit_oracle(&dnf, &space, &order);
            prop_assert_eq!(fast.lower.to_bits(), slow.lower.to_bits());
            prop_assert_eq!(fast.upper.to_bits(), slow.upper.to_bits());
        }
    }
}

/// Origin labels of the generated groups, deliberately not in generation
/// order.
const GROUP_LABELS: [u32; 4] = [7, 3, 11, 5];

/// Strategy: a lineage over tuple-independent (Boolean) and BID
/// (three-valued) variables in 1–4 origin groups, with clauses of mixed
/// widths, plus the Shannon path `(variable pick, value pick)` that reaches
/// the view under test. Variable `i` belongs to group `i % groups`, except
/// `unlabelled` (when it is below the variable count), which has no origin.
/// `product` shapes a third of the lineages as a product of the first two
/// groups with a few extra clauses, where an IQ variable often exists; a
/// quarter also hold the empty clause.
fn arb_mixed_lineage() -> impl Strategy<Value = (ProbabilitySpace, Dnf, VarOrigins, Vec<(u32, u32)>)>
{
    (1usize..=4, 2usize..=9).prop_flat_map(|(groups, nvars)| {
        let kinds = prop::collection::vec((prop::bool::ANY, 0.05f64..0.95), nvars);
        let clauses = prop::collection::vec(
            prop::collection::vec((0..nvars, 0..3u32), 1..=4usize),
            1..=10usize,
        );
        let path = prop::collection::vec((0..1000u32, 0..3u32), 0..=2usize);
        (kinds, clauses, 0..2 * nvars, 0..4u8, 0..3u8, path).prop_map(
            move |(kinds, clauses, unlabelled, empty, product, path)| {
                let mut space = ProbabilitySpace::new();
                let mut origins = VarOrigins::new();
                let vars: Vec<VarId> = kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &(bid, p))| {
                        let var = if bid {
                            space.add_discrete(format!("b{i}"), vec![1.0 - p, 0.6 * p, 0.4 * p])
                        } else {
                            space.add_bool(format!("x{i}"), p)
                        };
                        if i != unlabelled {
                            origins.set(var, GROUP_LABELS[i % groups]);
                        }
                        var
                    })
                    .collect();
                let atom =
                    |i: usize, value: u32| Atom::new(vars[i], value % space.domain_size(vars[i]));
                let mut clauses: Vec<Clause> = clauses
                    .into_iter()
                    .map(|atoms| Clause::from_atoms(atoms.into_iter().map(|(i, v)| atom(i, v))))
                    .collect();
                if product == 0 {
                    // Every variable of group 0 with every one of group 1
                    // (value 1), then two of the random clauses.
                    let of = |g: usize| (0..nvars).filter(move |i| i % groups.max(2) == g);
                    let mut crossed: Vec<Clause> = of(0)
                        .flat_map(|i| {
                            of(1).map(move |j| Clause::from_atoms([atom(i, 1), atom(j, 1)]))
                        })
                        .collect();
                    crossed.extend(clauses.into_iter().take(2));
                    clauses = crossed;
                }
                if empty == 0 {
                    clauses.push(Clause::from_atoms(Vec::new()));
                }
                (space, Dnf::from_clauses(clauses), origins, path)
            },
        )
    })
}

/// The tree-map IQ chooser that preceded the incidence sort, step for step
/// over the view, as the oracle: distinct variables per origin group in the
/// whole view, then per candidate in ascending id order the same count over
/// the clauses that hold it.
fn choose_iq_oracle(arena: &LineageArena, view: &DnfView, origins: &VarOrigins) -> Option<VarId> {
    if view.is_empty() || view.is_tautology(arena) {
        return None;
    }
    let mut per_relation: BTreeMap<u32, BTreeSet<VarId>> = BTreeMap::new();
    for clause in view.atoms(arena) {
        for a in clause {
            per_relation.entry(origins.get(a.var)?).or_default().insert(a.var);
        }
    }
    if per_relation.len() < 2 {
        return view.most_frequent_var(arena);
    }
    for v in view.vars(arena) {
        let v_group = origins.get(v)?;
        let mut restricted: BTreeMap<u32, BTreeSet<VarId>> = BTreeMap::new();
        for i in 0..view.len() {
            if view.mentions(arena, i, v) {
                for a in view.clause(arena, i) {
                    restricted.entry(origins.get(a.var)?).or_default().insert(a.var);
                }
            }
        }
        let qualifies = per_relation.iter().all(|(group, vars)| {
            *group == v_group
                || restricted.get(group).map(|r| r.len() == vars.len()).unwrap_or(false)
        });
        if qualifies {
            return Some(v);
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incidence-sort IQ chooser returns exactly the tree-map oracle's
    /// variable (or `None`), and `IqThenFrequent` falls back to the most
    /// frequent variable exactly where the oracle finds none, on roots and
    /// on views reached by cofactoring.
    #[test]
    fn iq_choice_equals_tree_map_oracle((space, dnf, origins, path) in arb_mixed_lineage()) {
        let (mut arena, mut view) = LineageArena::from_dnf(&dnf);
        let mut path = path.into_iter();
        loop {
            let want = choose_iq_oracle(&arena, &view, &origins);
            prop_assert_eq!(choose_iq_variable(&arena, &view, &origins), want);
            prop_assert_eq!(
                choose_variable(&arena, &view, &VarOrder::IqThenFrequent, Some(&origins)),
                want.or_else(|| view.most_frequent_var(&arena))
            );
            let Some((pick, value)) = path.next() else { break };
            if view.is_empty() || view.is_tautology(&arena) {
                break;
            }
            let vars: Vec<VarId> = view.vars(&arena).into_iter().collect();
            let var = vars[pick as usize % vars.len()];
            view = view.cofactor(&mut arena, var, value % space.domain_size(var));
        }
    }
}
