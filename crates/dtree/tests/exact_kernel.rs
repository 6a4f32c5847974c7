//! Differential test of the dense exact kernel: every view with at most 12
//! variables is folded by the kernel, which must return the probability bits
//! and the `CompileStats` of the arena recursion it replaced.
//!
//! The oracle is that recursion, copied here over the public `DnfView`
//! operations (`remove_subsumed`, `independent_components`, `common_atoms`,
//! `strip_vars`, `shannon_cofactors`, `product_factorization_by` and
//! `choose_variable`), so it interns every cofactor and factor into the
//! arena exactly as the evaluator did for all view sizes. A brute-force sum
//! over the possible worlds checks the values on top.

use dtree::{
    choose_variable, exact_probability_view, CompileOptions, CompileStats, SubformulaCache,
    VarOrder,
};
use events::{
    product_factorization_by, Atom, Clause, Dnf, DnfView, LineageArena, ProbabilitySpace, VarId,
    VarOrigins,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How often the oracle took each decomposition, so the test can insist
/// every path was exercised.
#[derive(Debug, Default)]
struct Coverage {
    subsumed: usize,
    components: usize,
    common_atoms: usize,
    products: usize,
    shannon: usize,
    multi_valued_shannon: usize,
}

/// The arena recursion as it stood before the dense kernel, without a cache.
fn oracle(
    arena: &mut LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    stats: &mut CompileStats,
    depth: usize,
    seen: &mut Coverage,
) -> f64 {
    stats.max_depth = stats.max_depth.max(depth);

    if view.is_empty() {
        stats.exact_leaves += 1;
        return 0.0;
    }
    if view.is_tautology(arena) {
        stats.exact_leaves += 1;
        return 1.0;
    }

    let (view, removed) = view.remove_subsumed(arena);
    stats.subsumed_clauses += removed;
    seen.subsumed += removed;

    if view.len() == 1 {
        stats.exact_leaves += 1;
        return view.clause_probability(arena, space, 0);
    }

    let components = view.independent_components(arena);
    if components.len() > 1 {
        seen.components += 1;
        stats.or_nodes += 1;
        let mut prod = 1.0;
        for c in &components {
            prod *= 1.0 - oracle(arena, c, space, opts, stats, depth + 1, seen);
        }
        return 1.0 - prod;
    }

    let common = view.common_atoms(arena);
    if !common.is_empty() {
        seen.common_atoms += 1;
        stats.and_nodes += 1;
        stats.exact_leaves += common.len();
        let factored: f64 = common.iter().map(|a| space.atom_prob(*a)).product();
        let vars: Vec<_> = common.iter().map(|a| a.var).collect();
        let rest = view.strip_vars(arena, &vars);
        return factored * oracle(arena, &rest, space, opts, stats, depth + 1, seen);
    }

    if let Some(origins) = &opts.origins {
        let factors = product_factorization_by(view.len(), |i| view.clause(arena, i), origins);
        if let Some(factors) = factors {
            seen.products += 1;
            stats.and_nodes += 1;
            let mut prod = 1.0;
            for clauses in factors {
                let factor = arena.intern_sorted_clauses(&clauses);
                prod *= oracle(arena, &factor, space, opts, stats, depth + 1, seen);
            }
            return prod;
        }
    }

    let var = choose_variable(arena, &view, &opts.var_order, opts.origins.as_ref())
        .expect("non-constant DNF mentions at least one variable");
    seen.shannon += 1;
    if space.domain_size(var) > 2 {
        seen.multi_valued_shannon += 1;
    }
    stats.xor_nodes += 1;
    let mut total = 0.0;
    for (value, cofactor) in view.shannon_cofactors(arena, var, space) {
        stats.and_nodes += 1;
        stats.exact_leaves += 1;
        total +=
            space.prob(var, value) * oracle(arena, &cofactor, space, opts, stats, depth + 1, seen);
    }
    total.min(1.0)
}

/// Possible-worlds probability of `dnf`: a mixed-radix walk over the domains
/// of its variables.
fn enumerate(dnf: &Dnf, space: &ProbabilitySpace) -> f64 {
    let vars: Vec<VarId> = dnf.vars().into_iter().collect();
    let mut values = vec![0u32; vars.len()];
    let mut total = 0.0;
    loop {
        let holds = dnf.clauses().iter().any(|c| {
            c.atoms().iter().all(|a| values[vars.binary_search(&a.var).unwrap()] == a.value)
        });
        if holds {
            total += vars.iter().zip(&values).map(|(&v, &x)| space.prob(v, x)).product::<f64>();
        }
        let mut k = 0;
        loop {
            if k == vars.len() {
                return total;
            }
            values[k] += 1;
            if values[k] < space.domain_size(vars[k]) {
                break;
            }
            values[k] = 0;
            k += 1;
        }
    }
}

/// A random space of `n` variables: Boolean ones, or (for BID) a mix with
/// 3- and 4-valued ones.
fn random_space(rng: &mut StdRng, n: usize, bid: bool) -> (ProbabilitySpace, Vec<VarId>) {
    let mut space = ProbabilitySpace::new();
    let vars = (0..n)
        .map(|i| {
            let domain = if bid { rng.gen_range(2..=4usize) } else { 2 };
            if domain == 2 {
                space.add_bool(format!("x{i}"), rng.gen_range(0.05..0.95))
            } else {
                let weights: Vec<f64> = (0..domain).map(|_| rng.gen_range(0.1..1.0)).collect();
                let sum: f64 = weights.iter().sum();
                space.add_discrete(format!("b{i}"), weights.iter().map(|w| w / sum).collect())
            }
        })
        .collect();
    (space, vars)
}

fn random_atom(rng: &mut StdRng, space: &ProbabilitySpace, var: VarId) -> Atom {
    let domain = space.domain_size(var);
    if domain == 2 && rng.gen_range(0..4u32) != 0 {
        Atom::pos(var)
    } else {
        Atom::new(var, rng.gen_range(0..domain))
    }
}

/// A clause over `width` distinct variables drawn from `pool`.
fn random_clause(
    rng: &mut StdRng,
    space: &ProbabilitySpace,
    pool: &[VarId],
    width: usize,
) -> Clause {
    let mut picked: Vec<VarId> = Vec::with_capacity(width);
    while picked.len() < width.min(pool.len()) {
        let v = pool[rng.gen_range(0..pool.len())];
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    Clause::from_atoms(picked.into_iter().map(|v| random_atom(rng, space, v)))
}

/// Random clauses of widths 1–5, sometimes a single clause, sometimes with
/// the empty clause.
fn random_dnf(rng: &mut StdRng, space: &ProbabilitySpace, vars: &[VarId]) -> Dnf {
    let count = match rng.gen_range(0..8u32) {
        0 => 1,
        _ => rng.gen_range(2..=10usize),
    };
    let mut clauses: Vec<Clause> = (0..count)
        .map(|_| {
            let width = rng.gen_range(1..=5usize);
            random_clause(rng, space, vars, width)
        })
        .collect();
    if rng.gen_range(0..20u32) == 0 {
        clauses.push(Clause::from_atoms(std::iter::empty()));
    }
    Dnf::from_clauses(clauses)
}

/// A product of per-group clause sets, so the ⊙ factorization applies;
/// sometimes one clause is dropped, so it does not.
fn random_product(
    rng: &mut StdRng,
    space: &ProbabilitySpace,
    vars: &[VarId],
    groups: usize,
) -> Dnf {
    let pools: Vec<Vec<VarId>> =
        (0..groups).map(|g| vars.iter().copied().skip(g).step_by(groups).collect()).collect();
    let mut product: Vec<Clause> = vec![Clause::from_atoms(std::iter::empty())];
    for pool in pools.iter().filter(|p| !p.is_empty()) {
        let count = rng.gen_range(1..=3usize);
        let parts: Vec<Clause> = (0..count)
            .map(|_| {
                let width = rng.gen_range(1..=2usize);
                random_clause(rng, space, pool, width)
            })
            .collect();
        product = product.iter().flat_map(|c| parts.iter().map(move |p| c.and(p))).collect();
    }
    if product.len() > 2 && rng.gen_range(0..4u32) == 0 {
        product.remove(rng.gen_range(0..product.len()));
    }
    Dnf::from_clauses(product)
}

/// Origin labels over up to four groups (with scattered group ids), and
/// sometimes one unlabelled variable; `None` or an empty table for no group.
fn random_origins(rng: &mut StdRng, vars: &[VarId], groups: usize) -> Option<VarOrigins> {
    const IDS: [u32; 4] = [40, 7, 19, 3];
    if groups == 0 {
        return (rng.gen_range(0..2u32) == 0).then(VarOrigins::new);
    }
    let unlabelled = (rng.gen_range(0..3u32) == 0).then(|| rng.gen_range(0..vars.len()));
    let mut origins = VarOrigins::new();
    for (i, &v) in vars.iter().enumerate() {
        if Some(i) != unlabelled {
            // Round-robin like `random_product`'s pools, so products keep
            // their groups apart.
            origins.set(v, IDS[i % groups]);
        }
    }
    Some(origins)
}

fn random_order(rng: &mut StdRng, vars: &[VarId]) -> VarOrder {
    match rng.gen_range(0..3u32) {
        0 => VarOrder::MostFrequent,
        1 => {
            let mut list: Vec<VarId> = Vec::new();
            for _ in 0..rng.gen_range(0..=4usize) {
                list.push(vars[rng.gen_range(0..vars.len())]);
            }
            // A variable no view mentions.
            list.insert(0, VarId(10_000));
            VarOrder::Fixed(list)
        }
        _ => VarOrder::IqThenFrequent,
    }
}

/// Views of the shared arena that the decompositions reach: the root, its
/// cofactors and strips on a variable, and its ⊗ components.
fn derived_views(
    rng: &mut StdRng,
    arena: &mut LineageArena,
    root: &DnfView,
    space: &ProbabilitySpace,
) -> Vec<DnfView> {
    let mut views = vec![root.clone()];
    let vars: Vec<VarId> = root.vars(arena).into_iter().collect();
    if let Some(&var) = vars.get(rng.gen_range(0..vars.len().max(1))) {
        views.push(root.cofactor(arena, var, rng.gen_range(0..space.domain_size(var))));
        views.push(root.strip_vars(arena, &[var]));
        views.extend(root.shannon_cofactors(arena, var, space).into_iter().map(|(_, v)| v));
    }
    let (minimal, _) = root.remove_subsumed(arena);
    views.extend(minimal.independent_components(arena));
    views
}

/// Runs the evaluator and the oracle on `view`; both must agree to the bit,
/// stats included.
fn check(
    arena: &mut LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    seen: &mut Coverage,
) -> f64 {
    let got = exact_probability_view(arena, view, space, opts, None);
    let mut stats = CompileStats::default();
    let want = oracle(arena, view, space, opts, &mut stats, 0, seen);
    assert_eq!(
        got.probability.to_bits(),
        want.to_bits(),
        "probability {} vs {want} on {} with {opts:?}",
        got.probability,
        view.to_dnf(arena)
    );
    assert_eq!(got.stats, stats, "stats on {} with {opts:?}", view.to_dnf(arena));
    got.probability
}

#[test]
fn kernel_is_bit_identical_to_the_arena_recursion() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0027);
    let mut seen = Coverage::default();
    let mut views = 0;
    for case in 0..1500 {
        let bid = case % 2 == 1;
        let n = rng.gen_range(1..=12usize);
        let (space, vars) = random_space(&mut rng, n, bid);
        let groups = rng.gen_range(0..=4usize);
        let dnf = if groups >= 2 && rng.gen_range(0..2u32) == 0 {
            random_product(&mut rng, &space, &vars, groups)
        } else {
            random_dnf(&mut rng, &space, &vars)
        };
        let opts = CompileOptions {
            var_order: random_order(&mut rng, &vars),
            origins: random_origins(&mut rng, &vars, groups),
            max_depth: None,
        };
        let mut arena = LineageArena::new();
        let root = arena.intern(&dnf);
        for view in derived_views(&mut rng, &mut arena, &root, &space) {
            let p = check(&mut arena, &view, &space, &opts, &mut seen);
            let worlds: u64 =
                view.vars(&arena).iter().map(|&v| space.domain_size(v) as u64).product();
            if worlds <= 1 << 13 {
                let brute = enumerate(&view.to_dnf(&arena), &space);
                assert!((p - brute).abs() <= 1e-12, "{p} vs {brute} on {}", view.to_dnf(&arena));
            }
            views += 1;
        }
    }
    // Every decomposition must have been exercised, many times over.
    assert!(views > 5000, "{views} views");
    for (path, count) in [
        ("subsumption", seen.subsumed),
        ("components", seen.components),
        ("common atoms", seen.common_atoms),
        ("product factorization", seen.products),
        ("Shannon", seen.shannon),
        ("multi-valued Shannon", seen.multi_valued_shannon),
    ] {
        assert!(count >= 100, "{path} taken only {count} times: {seen:?}");
    }
}

#[test]
fn constant_and_single_clause_views_match() {
    let (space, vars) = random_space(&mut StdRng::seed_from_u64(1), 3, false);
    let mut seen = Coverage::default();
    let empty = Clause::from_atoms(std::iter::empty());
    for dnf in [
        Dnf::empty(),
        Dnf::tautology(),
        Dnf::from_clauses(vec![Clause::from_bools(&vars)]),
        Dnf::from_clauses(vec![empty, Clause::from_bools(&vars[..2])]),
    ] {
        for var_order in [VarOrder::MostFrequent, VarOrder::IqThenFrequent] {
            let opts = CompileOptions { var_order, origins: None, max_depth: None };
            let (mut arena, root) = LineageArena::from_dnf(&dnf);
            let p = check(&mut arena, &root, &space, &opts, &mut seen);
            assert!((p - enumerate(&dnf, &space)).abs() <= 1e-12);
        }
    }
}

/// Above the threshold the arena steps run and hand their small sub-views
/// to the kernel: still the oracle's bits and stats, and with a shared
/// cache the same bits again.
#[test]
fn large_views_mix_arena_steps_and_kernel_folds() {
    let mut rng = StdRng::seed_from_u64(0x1a2c_e000);
    let mut seen = Coverage::default();
    for case in 0..200 {
        let n = rng.gen_range(13..=20usize);
        let (space, vars) = random_space(&mut rng, n, case % 2 == 1);
        let mut dnf = random_dnf(&mut rng, &space, &vars);
        // A chain keeps the view above the threshold more often.
        dnf = dnf.or(&Dnf::from_clauses(
            (0..n - 1).step_by(2).map(|i| Clause::from_bools(&vars[i..i + 2])),
        ));
        let groups = rng.gen_range(0..=3usize);
        let opts = CompileOptions {
            var_order: random_order(&mut rng, &vars),
            origins: random_origins(&mut rng, &vars, groups),
            max_depth: None,
        };
        let mut arena = LineageArena::new();
        let root = arena.intern(&dnf);
        let p = check(&mut arena, &root, &space, &opts, &mut seen);
        let cache = SubformulaCache::new();
        for _ in 0..2 {
            let cached = exact_probability_view(&mut arena, &root, &space, &opts, Some(&cache));
            assert_eq!(cached.probability.to_bits(), p.to_bits());
        }
    }
    assert!(seen.shannon > 0 && seen.components > 0, "{seen:?}");
}
