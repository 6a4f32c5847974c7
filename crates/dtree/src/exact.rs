//! Exact confidence computation by on-the-fly d-tree evaluation.
//!
//! The "d-tree(error 0)" configuration of the paper's experiments: the
//! decompositions of Figure 1 are applied recursively, but the tree is never
//! materialised — each node's probability is computed from its children's
//! probabilities as soon as they are available, so memory stays proportional
//! to the recursion depth. Unlike the approximation path, no leaf bounds are
//! computed (the paper notes exact computation can be *faster* than
//! ε-approximation for this reason, cf. the discussion of Figure 6).
//!
//! The recursion runs on [`DnfView`]s over a [`LineageArena`]: the input
//! lineage is interned once, and every decomposition step afterwards is
//! index manipulation — no clause vectors are cloned on the hot path. The
//! result is bit-identical to the owned-`Dnf` recursion this replaced (kept
//! as [`crate::reference::exact_probability_reference`] for differential
//! testing and benchmarking).

use events::{product_factorization_by, Dnf, DnfView, LineageArena, ProbabilitySpace};

use crate::cache::SubformulaCache;
use crate::compile::CompileOptions;
use crate::order::choose_variable;
use crate::stats::CompileStats;

/// Result of an exact confidence computation.
#[derive(Debug, Clone, Copy)]
pub struct ExactResult {
    /// The exact probability of the DNF.
    pub probability: f64,
    /// Statistics about the (virtual) d-tree that was traversed.
    pub stats: CompileStats,
}

/// Scope of the shared cache during a run: the cache plus the generation and
/// watermark of the space the run evaluates against.
#[derive(Clone, Copy)]
struct CacheScope<'c> {
    cache: &'c SubformulaCache,
    generation: u64,
    watermark: u64,
}

/// Computes the exact probability of `dnf` by recursive decomposition,
/// without materialising the d-tree. Interns `dnf` into a fresh arena and
/// runs [`exact_probability_view`] without a shared cache.
pub fn exact_probability(
    dnf: &Dnf,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
) -> ExactResult {
    let (mut arena, root) = LineageArena::from_dnf(dnf);
    exact_probability_view(&mut arena, &root, space, opts, None)
}

/// [`exact_probability`] on an already-interned view — the entry point for
/// callers that hold an arena (the batch engine interns each lineage once
/// and evaluates everything against it).
///
/// With a `cache`, every non-trivial sub-DNF's probability is memoized in
/// the shared [`SubformulaCache`], so repeated sub-formulas — within one
/// lineage or across the lineages of a batch — are computed once. Cache
/// entries are tagged with `space.generation()` and the variable-count
/// watermark their formula requires: values survive append-only growth of
/// the space (fresh tables) and are retired by genuine in-place changes.
/// Because the evaluation is deterministic, a cached value is bit-identical
/// to what the uncached recursion would compute, so the result does not
/// depend on whether a cache is passed.
pub fn exact_probability_view(
    arena: &mut LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    cache: Option<&SubformulaCache>,
) -> ExactResult {
    let mut stats = CompileStats::default();
    let scope = cache.map(|cache| CacheScope {
        cache,
        generation: space.generation(),
        watermark: space.watermark(),
    });
    let probability = exact_rec(arena, view, space, opts, &mut stats, 0, scope);
    ExactResult { probability, stats }
}

fn exact_rec(
    arena: &mut LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    stats: &mut CompileStats,
    depth: usize,
    cache: Option<CacheScope<'_>>,
) -> f64 {
    // Memoize non-trivial sub-DNFs (constants and single clauses are cheaper
    // to recompute than to hash).
    if let Some(scope) = cache {
        if view.len() >= 2 {
            let key = view.hash(arena);
            if let Some(p) = scope.cache.lookup_exact(key, scope.generation, scope.watermark) {
                stats.exact_cache_hits += 1;
                return p;
            }
            let p = exact_step(arena, view, space, opts, stats, depth, cache);
            stats.exact_evaluations += 1;
            scope.cache.store_exact(key, scope.generation, view.required_watermark(arena), p);
            return p;
        }
    }
    exact_step(arena, view, space, opts, stats, depth, cache)
}

fn exact_step(
    arena: &mut LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    stats: &mut CompileStats,
    depth: usize,
    cache: Option<CacheScope<'_>>,
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

    // Step 1: subsumption removal (index filtering — no clause copies).
    let (view, removed) = view.remove_subsumed(arena);
    stats.subsumed_clauses += removed;

    // Single clause: product of atom marginals.
    if view.len() == 1 {
        stats.exact_leaves += 1;
        return view.clause_probability(arena, space, 0);
    }

    // Step 2: independent-or (⊗).
    let components = view.independent_components(arena);
    if components.len() > 1 {
        stats.or_nodes += 1;
        let mut prod = 1.0;
        for c in &components {
            prod *= 1.0 - exact_rec(arena, c, space, opts, stats, depth + 1, cache);
        }
        return 1.0 - prod;
    }

    // Step 3a: independent-and (⊙) by common-atom factoring.
    let common = view.common_atoms(arena);
    if !common.is_empty() {
        stats.and_nodes += 1;
        stats.exact_leaves += common.len();
        let factored: f64 = common.iter().map(|a| space.atom_prob(*a)).product();
        let vars: Vec<_> = common.iter().map(|a| a.var).collect();
        let rest = view.strip_vars(arena, &vars);
        return factored * exact_rec(arena, &rest, space, opts, stats, depth + 1, cache);
    }

    // Step 3b: independent-and (⊙) by relational product factorization.
    if let Some(origins) = &opts.origins {
        let factors = product_factorization_by(view.len(), |i| view.clause(arena, i), origins);
        if let Some(factors) = factors {
            stats.and_nodes += 1;
            let mut prod = 1.0;
            for clauses in factors {
                let factor = arena.intern_sorted_clauses(&clauses);
                prod *= exact_rec(arena, &factor, space, opts, stats, depth + 1, cache);
            }
            return prod;
        }
    }

    // Step 4: Shannon expansion (⊕).
    let var = choose_variable(arena, &view, &opts.var_order, opts.origins.as_ref())
        .expect("non-constant DNF mentions at least one variable");
    stats.xor_nodes += 1;
    let mut total = 0.0;
    for (value, cofactor) in view.shannon_cofactors(arena, var, space) {
        stats.and_nodes += 1;
        stats.exact_leaves += 1;
        total += space.prob(var, value)
            * exact_rec(arena, &cofactor, space, opts, stats, depth + 1, cache);
    }
    total.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::{Clause, VarId, VarOrigins};

    fn bool_space(ps: &[f64]) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = ps.iter().enumerate().map(|(i, &p)| s.add_bool(format!("x{i}"), p)).collect();
        (s, vars)
    }

    #[test]
    fn matches_enumeration_on_example_5_2() {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
            Clause::from_bools(&[vars[3]]),
        ]);
        let r = exact_probability(&phi, &s, &CompileOptions::default());
        assert!((r.probability - 0.8456).abs() < 1e-12);
        assert!(r.stats.total_nodes() > 0);
    }

    #[test]
    fn stream_entry_point_is_bit_identical_to_owned_dnf() {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8, 0.45]);
        let clauses: Vec<Clause> = vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
            // Duplicate + unsorted input: the stream interner canonicalizes.
            Clause::from_bools(&[vars[2], vars[0]]),
            Clause::from_bools(&[vars[3], vars[4]]),
        ];
        let owned =
            exact_probability(&Dnf::from_clauses(clauses.clone()), &s, &CompileOptions::default());
        let mut arena = LineageArena::new();
        let root = arena.intern_clause_stream(clauses);
        let streamed =
            exact_probability_view(&mut arena, &root, &s, &CompileOptions::default(), None);
        assert_eq!(streamed.probability.to_bits(), owned.probability.to_bits());
    }

    #[test]
    fn matches_enumeration_on_correlated_chains() {
        // Chain lineage x0x1 ∨ x1x2 ∨ x2x3 ∨ x3x4 needs Shannon expansion.
        let (s, vars) = bool_space(&[0.5, 0.4, 0.3, 0.6, 0.7]);
        let phi = Dnf::from_clauses(
            (0..4).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let r = exact_probability(&phi, &s, &CompileOptions::default());
        let brute = phi.exact_probability_enumeration(&s);
        assert!((r.probability - brute).abs() < 1e-12);
        assert!(r.stats.xor_nodes > 0);
    }

    #[test]
    fn constants() {
        let (s, _) = bool_space(&[0.5]);
        assert_eq!(
            exact_probability(&Dnf::empty(), &s, &CompileOptions::default()).probability,
            0.0
        );
        assert_eq!(
            exact_probability(&Dnf::tautology(), &s, &CompileOptions::default()).probability,
            1.0
        );
    }

    #[test]
    fn hierarchical_lineage_avoids_shannon_with_origins() {
        // Lineage of the hierarchical query q():-R(A),S(A,B) on
        // R = {r1(a1), r2(a2)}, S = {s1(a1,b1), s2(a1,b2), s3(a2,b1)}:
        //   r1 s1 ∨ r1 s2 ∨ r2 s3
        // Connected components split on the A-value; within a component the
        // R-variable is common and factors out: no Shannon expansion needed.
        let (s, vars) = bool_space(&[0.3, 0.4, 0.5, 0.6, 0.7]);
        let (r1, r2, s1, s2, s3) = (vars[0], vars[1], vars[2], vars[3], vars[4]);
        let mut origins = VarOrigins::new();
        for (v, g) in [(r1, 0), (r2, 0), (s1, 1), (s2, 1), (s3, 1)] {
            origins.set(v, g);
        }
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[r1, s1]),
            Clause::from_bools(&[r1, s2]),
            Clause::from_bools(&[r2, s3]),
        ]);
        let opts = CompileOptions::with_origins(origins);
        let r = exact_probability(&phi, &s, &opts);
        let brute = phi.exact_probability_enumeration(&s);
        assert!((r.probability - brute).abs() < 1e-12);
        assert_eq!(r.stats.xor_nodes, 0, "hierarchical lineage must not need ⊕ nodes");
    }

    #[test]
    fn exact_equals_complete_dtree_evaluation() {
        let (s, vars) = bool_space(&[0.2, 0.8, 0.5, 0.4, 0.6, 0.3]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[1], vars[2]]),
            Clause::from_bools(&[vars[3], vars[4]]),
            Clause::from_bools(&[vars[5]]),
        ]);
        let opts = CompileOptions::default();
        let direct = exact_probability(&phi, &s, &opts).probability;
        let tree = crate::compile(&phi, &s, &opts);
        let via_tree = tree.exact_probability(&s).unwrap();
        assert!((direct - via_tree).abs() < 1e-12);
    }

    #[test]
    fn large_independent_union_is_linear_and_exact() {
        // 200 independent single-literal clauses: exact probability is
        // 1 - Π(1 - p_i); the recursion must handle this without Shannon.
        let probs: Vec<f64> = (0..200).map(|i| 0.001 + (i as f64 % 50.0) / 60.0).collect();
        let (s, vars) = bool_space(&probs);
        let phi = Dnf::from_clauses(vars.iter().map(|&v| Clause::from_bools(&[v])));
        let r = exact_probability(&phi, &s, &CompileOptions::default());
        let expected = 1.0 - probs.iter().map(|p| 1.0 - p).product::<f64>();
        assert!((r.probability - expected).abs() < 1e-9);
        assert_eq!(r.stats.xor_nodes, 0);
    }

    /// The arena recursion is bit-identical to the pre-arena owned-path
    /// recursion kept in [`crate::reference`].
    #[test]
    fn matches_reference_owned_path_bitwise() {
        let (s, vars) = bool_space(&[0.5, 0.4, 0.3, 0.6, 0.7, 0.9, 0.2, 0.8]);
        let phi = Dnf::from_clauses(
            (0..7).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let opts = CompileOptions::default();
        let arena_run = exact_probability(&phi, &s, &opts);
        let reference = crate::reference::exact_probability_reference(&phi, &s, &opts);
        assert_eq!(arena_run.probability.to_bits(), reference.probability.to_bits());
        assert_eq!(arena_run.stats, reference.stats);
    }
}
