//! Property-based tests for the event-algebra substrate.

use std::collections::BTreeSet;

use events::{
    product_factorization, product_factorization_by, Atom, Clause, Dnf, LineageArena,
    ProbabilitySpace, UnionFind, VarId, VarOrigins,
};
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

/// The set-based product factorization that preceded the flat-buffer one,
/// step for step over owned clauses, as the oracle: `BTreeSet<Clause>`
/// projections per origin pair, factors verified by size and by a
/// duplicate-free clause set.
fn product_factorization_oracle(
    clauses: &[Clause],
    origins: &VarOrigins,
) -> Option<Vec<Vec<Clause>>> {
    let n = clauses.len();
    if n < 2 {
        return None;
    }
    let mut group_set: BTreeSet<u32> = BTreeSet::new();
    for c in clauses {
        for a in c.atoms() {
            group_set.insert(origins.get(a.var)?);
        }
    }
    if group_set.len() < 2 {
        return None;
    }
    let all_groups: Vec<u32> = group_set.into_iter().collect();
    let project = |c: &Clause, g: u32| -> Clause {
        Clause::from_atoms(c.atoms().iter().copied().filter(|a| origins.get(a.var) == Some(g)))
    };
    let mut uf: UnionFind<u32> = UnionFind::new();
    for &g in &all_groups {
        uf.insert(g);
    }
    for i in 0..all_groups.len() {
        for j in (i + 1)..all_groups.len() {
            let (g, h) = (all_groups[i], all_groups[j]);
            let mut proj_g: BTreeSet<Clause> = BTreeSet::new();
            let mut proj_h: BTreeSet<Clause> = BTreeSet::new();
            let mut proj_gh: BTreeSet<(Clause, Clause)> = BTreeSet::new();
            for c in clauses {
                let (cg, ch) = (project(c, g), project(c, h));
                proj_g.insert(cg.clone());
                proj_h.insert(ch.clone());
                proj_gh.insert((cg, ch));
            }
            if proj_gh.len() != proj_g.len() * proj_h.len() {
                uf.union(g, h);
            }
        }
    }
    let factors: Vec<Vec<u32>> = uf.groups();
    if factors.len() < 2 {
        return None;
    }
    let mut factor_clauses: Vec<Vec<Clause>> = Vec::with_capacity(factors.len());
    for group in &factors {
        let group_set: BTreeSet<u32> = group.iter().copied().collect();
        let mut seen: BTreeSet<Clause> = BTreeSet::new();
        for c in clauses {
            seen.insert(Clause::from_atoms(
                c.atoms().iter().copied().filter(|a| {
                    origins.get(a.var).map(|g| group_set.contains(&g)).unwrap_or(false)
                }),
            ));
        }
        if seen.iter().any(|c| c.is_empty()) {
            return None;
        }
        factor_clauses.push(seen.into_iter().collect());
    }
    let product_size: usize = factor_clauses.iter().map(|f| f.len()).product();
    if product_size != n {
        return None;
    }
    let original: BTreeSet<Clause> = clauses.iter().cloned().collect();
    if original.len() != n {
        return None;
    }
    Some(factor_clauses)
}

/// Origin labels of the generated groups, deliberately not in generation
/// order.
const GROUP_LABELS: [u32; 4] = [7, 3, 11, 5];

/// Strategy: origin-labelled clause sets around a product of 2–4 groups
/// (group `g` owns variables `4g..4g+4`). `mode` picks the shape:
/// 0–1 the exact product; 2 a product whose first two groups are correlated
/// (one multi-group factor); 3 one clause removed; 4 one clause added;
/// 5 one clause duplicated (owned slices keep duplicates); 6 one clause
/// replaced by a duplicate of another, which keeps every projection and the
/// clause count, so only the duplicate check rejects it; 7 one clause with an
/// empty projection onto some group.
fn arb_origin_clauses() -> impl Strategy<Value = (Vec<Clause>, VarOrigins)> {
    let literal = (0..4u32, prop::bool::ANY);
    let group_clauses = prop::collection::vec(prop::collection::vec(literal, 1..=2usize), 1..=3);
    let extra = prop::collection::vec((0..16u32, prop::bool::ANY), 1..=3usize);
    (2usize..=4).prop_flat_map(move |groups| {
        let per_group = prop::collection::vec(group_clauses.clone(), groups);
        (per_group, 0u8..8, 0usize..1000, extra.clone()).prop_map(
            move |(per_group, mode, pick, extra)| {
                let atom = |var: u32, positive: bool| {
                    if positive {
                        Atom::pos(VarId(var))
                    } else {
                        Atom::neg(VarId(var))
                    }
                };
                // Factor clause lists: each group's clauses as atom lists.
                let mut factors: Vec<Vec<Vec<Atom>>> = per_group
                    .iter()
                    .enumerate()
                    .map(|(g, cs)| {
                        cs.iter()
                            .map(|c| {
                                c.iter().map(|&(v, pos)| atom(4 * g as u32 + v, pos)).collect()
                            })
                            .collect()
                    })
                    .collect();
                if mode == 2 {
                    // Zip the first two groups instead of crossing them.
                    let (first, second) = (factors.remove(0), factors.remove(0));
                    let zipped = (0..first.len().max(second.len()))
                        .map(|i| {
                            let mut c = first[i % first.len()].clone();
                            c.extend(&second[i % second.len()]);
                            c
                        })
                        .collect();
                    factors.insert(0, zipped);
                }
                let mut clauses: Vec<Vec<Atom>> = vec![Vec::new()];
                for factor in &factors {
                    clauses = clauses
                        .iter()
                        .flat_map(|c| {
                            factor.iter().map(move |f| c.iter().chain(f).copied().collect())
                        })
                        .collect();
                }
                let mut clauses: Vec<Clause> =
                    clauses.into_iter().map(Clause::from_atoms).collect();
                let at = pick % clauses.len();
                let extra = Clause::from_atoms(
                    extra.iter().map(|&(v, pos)| atom(v % (4 * groups as u32), pos)),
                );
                match mode {
                    3 => {
                        clauses.remove(at);
                    }
                    4 => clauses.push(extra),
                    5 => clauses.push(clauses[at].clone()),
                    6 => clauses[at] = clauses[(at + 1) % clauses.len()].clone(),
                    7 => {
                        // Drop the clause's atoms of one group.
                        let g = pick % groups;
                        let kept =
                            clauses[at].atoms().iter().copied().filter(|a| a.var.0 / 4 != g as u32);
                        clauses.push(Clause::from_atoms(kept));
                    }
                    _ => {}
                }
                let shift = pick % clauses.len().max(1);
                clauses.rotate_left(shift);
                let mut origins = VarOrigins::new();
                for v in 0..4 * groups as u32 {
                    origins.set(VarId(v), GROUP_LABELS[v as usize / 4]);
                }
                (clauses, origins)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat-buffer factorization returns exactly the set-based oracle's
    /// factors (same factors, same order, same clauses) or its `None`, on
    /// owned slices (duplicates kept) and on arena views of the normalised
    /// DNF.
    #[test]
    fn product_factorization_equals_set_oracle((clauses, origins) in arb_origin_clauses()) {
        prop_assert_eq!(
            product_factorization(&clauses, &origins),
            product_factorization_oracle(&clauses, &origins)
        );
        let dnf = Dnf::from_clauses(clauses.clone());
        let (arena, view) = LineageArena::from_dnf(&dnf);
        prop_assert_eq!(
            product_factorization_by(view.len(), |i| view.clause(&arena, i), &origins),
            product_factorization_oracle(dnf.clauses(), &origins)
        );
    }
}

/// Strategy: a lineage over tuple-independent (Boolean) and BID
/// (three-valued) variables in 1–4 origin groups, with clauses of mixed
/// widths, plus the Shannon path `(variable pick, value pick)` that reaches
/// the view under test. Variable `i` belongs to group `i % groups`, except
/// `unlabelled` (when it is below the variable count), which has no origin.
/// A quarter of the lineages also hold the empty clause.
fn arb_mixed_lineage() -> impl Strategy<Value = (ProbabilitySpace, Dnf, VarOrigins, Vec<(u32, u32)>)>
{
    (1usize..=4, 2usize..=9).prop_flat_map(|(groups, nvars)| {
        let kinds = prop::collection::vec((prop::bool::ANY, 0.05f64..0.95), nvars);
        let clauses = prop::collection::vec(
            prop::collection::vec((0..nvars, 0..3u32), 1..=4usize),
            1..=10usize,
        );
        let path = prop::collection::vec((0..1000u32, 0..3u32), 0..=2usize);
        (kinds, clauses, 0..2 * nvars, 0..4u8, path).prop_map(
            move |(kinds, clauses, unlabelled, empty, path)| {
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
                let mut clauses: Vec<Clause> = clauses
                    .into_iter()
                    .map(|atoms| {
                        Clause::from_atoms(atoms.into_iter().map(|(i, value)| {
                            Atom::new(vars[i], value % space.domain_size(vars[i]))
                        }))
                    })
                    .collect();
                if empty == 0 {
                    clauses.push(Clause::from_atoms(Vec::new()));
                }
                (space, Dnf::from_clauses(clauses), origins, path)
            },
        )
    })
}

/// The clauses of a view, in its order.
fn view_clauses(arena: &LineageArena, view: &events::DnfView) -> Vec<Vec<Atom>> {
    (0..view.len()).map(|i| view.clause_slice(arena, i).to_vec()).collect()
}

/// The clauses of an owned DNF, in its (canonical) order.
fn dnf_clauses(dnf: &Dnf) -> Vec<Vec<Atom>> {
    dnf.clauses().iter().map(|c| c.atoms().to_vec()).collect()
}

/// Every clause `i` not yet dropped drops every other live clause it is a
/// subset of, over all ordered pairs: the subsumption loop that preceded
/// the first-atom index, as the oracle. Returns the kept clauses in order
/// and the number dropped.
fn remove_subsumed_oracle(clauses: &[Vec<Atom>]) -> (Vec<Vec<Atom>>, usize) {
    let subset = |small: &[Atom], big: &[Atom]| small.iter().all(|a| big.contains(a));
    let mut keep = vec![true; clauses.len()];
    for i in 0..clauses.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..clauses.len() {
            if i != j && keep[j] && subset(&clauses[i], &clauses[j]) {
                keep[j] = false;
            }
        }
    }
    let kept: Vec<Vec<Atom>> =
        clauses.iter().zip(&keep).filter(|(_, &k)| k).map(|(c, _)| c.clone()).collect();
    let dropped = clauses.len() - kept.len();
    (kept, dropped)
}

/// Walks `path` from the root on both the owned DNF and its view, stopping
/// at a constant.
fn reach(
    arena: &mut LineageArena,
    dnf: &Dnf,
    space: &ProbabilitySpace,
    path: &[(u32, u32)],
) -> (Dnf, events::DnfView) {
    let mut owned = dnf.clone();
    let mut view = arena.intern(dnf);
    for &(pick, value) in path {
        if owned.is_empty() || owned.is_tautology() {
            break;
        }
        let vars: Vec<VarId> = owned.vars().into_iter().collect();
        let var = vars[pick as usize % vars.len()];
        let value = value % space.domain_size(var);
        owned = owned.cofactor(var, value);
        view = view.cofactor(arena, var, value);
    }
    (owned, view)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed subsumption removal keeps exactly the clauses the
    /// all-pairs loop keeps, in the same order, and reports the same count.
    #[test]
    fn remove_subsumed_equals_all_pairs_oracle(
        (space, dnf, _origins, path) in arb_mixed_lineage(),
    ) {
        let mut arena = LineageArena::new();
        let (_, view) = reach(&mut arena, &dnf, &space, &path);
        let (reduced, removed) = view.remove_subsumed(&arena);
        let (kept, dropped) = remove_subsumed_oracle(&view_clauses(&arena, &view));
        prop_assert_eq!(view_clauses(&arena, &reduced), kept);
        prop_assert_eq!(removed, dropped);
    }

    /// `cofactor`, `shannon_cofactors` and `strip_vars` (of the common atoms
    /// and of an arbitrary variable subset) give exactly the owned `Dnf`
    /// operations' clauses, in canonical order, with the same hash.
    #[test]
    fn restrictions_equal_owned_operations(
        (space, dnf, _origins, path) in arb_mixed_lineage(),
        subset in 0u32..512,
    ) {
        let mut arena = LineageArena::new();
        let (owned, view) = reach(&mut arena, &dnf, &space, &path);
        prop_assert_eq!(view_clauses(&arena, &view), dnf_clauses(&owned));
        let vars: Vec<VarId> = owned.vars().into_iter().collect();
        for &var in &vars {
            for value in 0..space.domain_size(var) {
                let got = view.cofactor(&mut arena, var, value);
                let want = owned.cofactor(var, value);
                prop_assert_eq!(view_clauses(&arena, &got), dnf_clauses(&want));
                prop_assert_eq!(got.hash(&arena), want.canonical_hash());
            }
            let got = view.shannon_cofactors(&mut arena, var, &space);
            let want = owned.shannon_cofactors(var, &space);
            prop_assert_eq!(got.len(), want.len());
            for ((gv, g), (wv, w)) in got.iter().zip(&want) {
                prop_assert_eq!(gv, wv);
                prop_assert_eq!(view_clauses(&arena, g), dnf_clauses(w));
                prop_assert_eq!(g.hash(&arena), w.canonical_hash());
            }
        }
        let common = owned.common_atoms();
        let common_vars: Vec<VarId> = common.iter().map(|a| a.var).collect();
        let got = view.strip_vars(&mut arena, &common_vars);
        prop_assert_eq!(view_clauses(&arena, &got), dnf_clauses(&owned.strip_atoms(&common)));
        let picked: Vec<VarId> =
            vars.iter().enumerate().filter(|(i, _)| subset >> (i % 9) & 1 == 1).map(|(_, &v)| v).collect();
        let as_atoms: Vec<Atom> = picked.iter().map(|&v| Atom::new(v, 0)).collect();
        let got = view.strip_vars(&mut arena, &picked);
        let want = owned.strip_atoms(&as_atoms);
        prop_assert_eq!(view_clauses(&arena, &got), dnf_clauses(&want));
        prop_assert_eq!(got.hash(&arena), want.canonical_hash());
    }
}
