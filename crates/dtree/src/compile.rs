//! Exhaustive compilation of DNFs into complete d-trees (Figure 1).

use events::{
    product_factorization_by, Clause, Dnf, DnfView, LineageArena, ProbabilitySpace, VarOrigins,
};

use crate::node::DTree;
use crate::order::{choose_variable, VarOrder};
use crate::stats::CompileStats;

/// Options controlling compilation (shared by the exhaustive compiler, the
/// exact evaluator and the approximation algorithm).
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Variable-elimination order for Shannon expansion.
    pub var_order: VarOrder,
    /// Origin (relation / query-subgoal) labels for the variables. Enables
    /// the independent-and product factorization and the IQ elimination
    /// order; without them the compiler still works but may fall back to
    /// Shannon expansion more often.
    pub origins: Option<VarOrigins>,
    /// Upper bound on the recursion depth (`None` = unlimited). Mainly a
    /// safety valve for adversarial inputs in tests.
    pub max_depth: Option<usize>,
}

impl CompileOptions {
    /// Options with origin labels (and the IQ-then-frequent order, which is
    /// the configuration used for query lineage).
    pub fn with_origins(origins: VarOrigins) -> Self {
        CompileOptions {
            var_order: VarOrder::IqThenFrequent,
            origins: Some(origins),
            max_depth: None,
        }
    }
}

/// Compiles a DNF into a complete d-tree following Figure 1 of the paper:
///
/// 1. remove subsumed clauses,
/// 2. apply independent-or (⊗): split into connected components of the
///    variable co-occurrence graph,
/// 3. apply independent-and (⊙): factor out atoms common to all clauses,
///    split single clauses into their atoms, and (when origin labels are
///    available) apply the relational product factorization,
/// 4. otherwise apply Shannon expansion (⊕) on a variable chosen by the
///    configured order.
///
/// The returned d-tree is complete: every leaf holds at most one clause, so
/// [`DTree::exact_probability`] succeeds on it.
pub fn compile(dnf: &Dnf, space: &ProbabilitySpace, opts: &CompileOptions) -> DTree {
    let mut stats = CompileStats::default();
    compile_with_stats(dnf, space, opts, &mut stats)
}

/// Like [`compile`], also accumulating [`CompileStats`].
pub fn compile_with_stats(
    dnf: &Dnf,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    stats: &mut CompileStats,
) -> DTree {
    let (mut arena, root) = LineageArena::from_dnf(dnf);
    compile_rec(&mut arena, &root, space, opts, stats, 0)
}

/// The recursion runs on arena views — decomposition is index manipulation —
/// and only materialises owned [`Dnf`]s for the leaves of the returned tree
/// (the [`DTree`] node type keeps its owned representation, which is what a
/// *materialised* compilation is for).
fn compile_rec(
    arena: &mut LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    stats: &mut CompileStats,
    depth: usize,
) -> DTree {
    stats.max_depth = stats.max_depth.max(depth);

    // Constants.
    if view.is_empty() || view.is_tautology(arena) {
        stats.exact_leaves += 1;
        return DTree::Leaf(if view.is_empty() { Dnf::empty() } else { Dnf::tautology() });
    }

    // Depth cut-off: leave the DNF as a (possibly large) leaf.
    if let Some(max) = opts.max_depth {
        if depth >= max {
            stats.closed_leaves += 1;
            return DTree::Leaf(view.to_dnf(arena));
        }
    }

    // Step 1: remove subsumed clauses.
    let (view, removed) = view.remove_subsumed(arena);
    stats.subsumed_clauses += removed;

    // Single clause: exact leaf (split into atoms only for presentation —
    // the probability of a clause is already a product of atom marginals).
    if view.len() == 1 {
        let atoms: Vec<events::Atom> = view.clause(arena, 0).collect();
        if atoms.len() <= 1 {
            stats.exact_leaves += 1;
            return DTree::Leaf(view.to_dnf(arena));
        }
        // ⊙ of singleton-atom leaves, mirroring the paper's complete d-trees
        // whose leaves are single clauses; splitting a clause keeps the tree
        // uniform and exercises the ⊙ combination rule.
        stats.and_nodes += 1;
        stats.exact_leaves += atoms.len();
        return DTree::IndepAnd(
            atoms.into_iter().map(|a| DTree::Leaf(Dnf::singleton(Clause::singleton(a)))).collect(),
        );
    }

    // Step 2: independent-or (⊗) over connected components.
    let components = view.independent_components(arena);
    if components.len() > 1 {
        stats.or_nodes += 1;
        return DTree::IndepOr(
            components
                .iter()
                .map(|c| compile_rec(arena, c, space, opts, stats, depth + 1))
                .collect(),
        );
    }

    // Step 3a: independent-and (⊙) by factoring out atoms common to all
    // clauses.
    let common = view.common_atoms(arena);
    if !common.is_empty() {
        let vars: Vec<_> = common.iter().map(|a| a.var).collect();
        let rest = view.strip_vars(arena, &vars);
        stats.and_nodes += 1;
        stats.exact_leaves += common.len();
        let mut children: Vec<DTree> =
            common.iter().map(|a| DTree::Leaf(Dnf::singleton(Clause::singleton(*a)))).collect();
        children.push(compile_rec(arena, &rest, space, opts, stats, depth + 1));
        return DTree::IndepAnd(children);
    }

    // Step 3b: independent-and (⊙) by relational product factorization.
    if let Some(origins) = &opts.origins {
        let factors = product_factorization_by(view.len(), |i| view.clause(arena, i), origins);
        if let Some(factors) = factors {
            stats.and_nodes += 1;
            return DTree::IndepAnd(
                factors
                    .into_iter()
                    .map(|clauses| {
                        let factor = arena.intern_sorted_clauses(&clauses);
                        compile_rec(arena, &factor, space, opts, stats, depth + 1)
                    })
                    .collect(),
            );
        }
    }

    // Step 4: Shannon expansion (⊕).
    let var = choose_variable(arena, &view, &opts.var_order, opts.origins.as_ref())
        .expect("non-constant DNF mentions at least one variable");
    stats.xor_nodes += 1;
    let mut branches = Vec::new();
    for (value, cofactor) in view.shannon_cofactors(arena, var, space) {
        let assignment = Dnf::singleton(Clause::singleton(events::Atom::new(var, value)));
        stats.exact_leaves += 1;
        stats.and_nodes += 1;
        branches.push(DTree::IndepAnd(vec![
            DTree::Leaf(assignment),
            compile_rec(arena, &cofactor, space, opts, stats, depth + 1),
        ]));
    }
    DTree::ExclOr(branches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::{Atom, VarId};

    fn bool_space(ps: &[f64]) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = ps.iter().enumerate().map(|(i, &p)| s.add_bool(format!("x{i}"), p)).collect();
        (s, vars)
    }

    fn assert_compiles_exactly(dnf: &Dnf, space: &ProbabilitySpace, opts: &CompileOptions) {
        let tree = compile(dnf, space, opts);
        assert!(tree.is_complete(), "tree not complete: {tree}");
        let p_tree = tree.exact_probability(space).expect("complete tree evaluates");
        let p_exact = dnf.exact_probability_enumeration(space);
        assert!((p_tree - p_exact).abs() < 1e-9, "tree {p_tree} != exact {p_exact} for {dnf}");
        // Bounds of a complete tree must also bracket (and essentially pin)
        // the exact probability.
        let b = tree.bounds(space);
        assert!(b.contains(p_exact));
    }

    /// Figure 2: the DNF of Example 4.4 compiles into a complete d-tree whose
    /// probability matches brute-force enumeration.
    #[test]
    fn figure_2_compilation() {
        let mut s = ProbabilitySpace::new();
        let x = s.add_discrete("x", vec![0.5, 0.2, 0.3]);
        let y = s.add_bool("y", 0.4);
        let z = s.add_bool("z", 0.6);
        let u = s.add_discrete("u", vec![0.3, 0.3, 0.4]);
        let v = s.add_bool("v", 0.7);
        let phi = Dnf::from_clauses(vec![
            Clause::from_atoms(vec![Atom::new(x, 1)]),
            Clause::from_atoms(vec![Atom::new(x, 2), Atom::pos(y)]),
            Clause::from_atoms(vec![Atom::new(x, 2), Atom::pos(z)]),
            Clause::from_atoms(vec![Atom::new(u, 1), Atom::pos(v)]),
            Clause::from_atoms(vec![Atom::new(u, 2)]),
        ]);
        let opts = CompileOptions::default();
        assert_compiles_exactly(&phi, &s, &opts);
        // The top-level decomposition must be an independent-or with two
        // components ({x,y,z} and {u,v}).
        let tree = compile(&phi, &s, &opts);
        match &tree {
            DTree::IndepOr(children) => assert_eq!(children.len(), 2),
            other => panic!("expected ⊗ at the root, got {other}"),
        }
    }

    #[test]
    fn example_5_2_compiles_exactly() {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
            Clause::from_bools(&[vars[3]]),
        ]);
        assert_compiles_exactly(&phi, &s, &CompileOptions::default());
    }

    #[test]
    fn subsumed_clauses_are_removed_during_compilation() {
        let (s, vars) = bool_space(&[0.5, 0.5]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0]]),
            Clause::from_bools(&[vars[0], vars[1]]),
        ]);
        let mut stats = CompileStats::default();
        let tree = compile_with_stats(&phi, &s, &CompileOptions::default(), &mut stats);
        assert_eq!(stats.subsumed_clauses, 1);
        assert!((tree.exact_probability(&s).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constants_compile_to_constant_leaves() {
        let (s, _) = bool_space(&[0.5]);
        let t = compile(&Dnf::empty(), &s, &CompileOptions::default());
        assert_eq!(t.exact_probability(&s), Some(0.0));
        let t = compile(&Dnf::tautology(), &s, &CompileOptions::default());
        assert_eq!(t.exact_probability(&s), Some(1.0));
    }

    #[test]
    fn single_clause_becomes_independent_and_of_atoms() {
        let (s, vars) = bool_space(&[0.3, 0.4, 0.5]);
        let phi = Dnf::from_clauses(vec![Clause::from_bools(&[vars[0], vars[1], vars[2]])]);
        let tree = compile(&phi, &s, &CompileOptions::default());
        match &tree {
            DTree::IndepAnd(children) => assert_eq!(children.len(), 3),
            other => panic!("expected ⊙, got {other}"),
        }
        assert!((tree.exact_probability(&s).unwrap() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn common_atom_factoring_produces_and_node() {
        let (s, vars) = bool_space(&[0.3, 0.5, 0.6, 0.9]);
        // a∧b∧c ∨ a∧b∧d
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1], vars[2]]),
            Clause::from_bools(&[vars[0], vars[1], vars[3]]),
        ]);
        let tree = compile(&phi, &s, &CompileOptions::default());
        match &tree {
            DTree::IndepAnd(children) => assert_eq!(children.len(), 3),
            other => panic!("expected ⊙, got {other}"),
        }
        assert_compiles_exactly(&phi, &s, &CompileOptions::default());
    }

    #[test]
    fn product_factorization_used_when_origins_available() {
        let (s, vars) = bool_space(&[0.1, 0.2, 0.3, 0.4]);
        let (r1, r2, s1, s2) = (vars[0], vars[1], vars[2], vars[3]);
        let mut origins = VarOrigins::new();
        origins.set(r1, 0);
        origins.set(r2, 0);
        origins.set(s1, 1);
        origins.set(s2, 1);
        // (r1 ∨ r2) ⊙ (s1 ∨ s2) as a flat DNF of 4 clauses.
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[r1, s1]),
            Clause::from_bools(&[r1, s2]),
            Clause::from_bools(&[r2, s1]),
            Clause::from_bools(&[r2, s2]),
        ]);
        let opts = CompileOptions::with_origins(origins);
        let mut stats = CompileStats::default();
        let tree = compile_with_stats(&phi, &s, &opts, &mut stats);
        // With factorization no Shannon expansion is needed.
        assert_eq!(stats.xor_nodes, 0, "tree: {tree}");
        assert_compiles_exactly(&phi, &s, &opts);
        // Without origins the compiler must resort to Shannon expansion but
        // still be exact.
        let mut stats2 = CompileStats::default();
        let opts_no_origin = CompileOptions::default();
        let _ = compile_with_stats(&phi, &s, &opts_no_origin, &mut stats2);
        assert!(stats2.xor_nodes > 0);
        assert_compiles_exactly(&phi, &s, &opts_no_origin);
    }

    #[test]
    fn hard_pattern_requires_shannon_but_stays_exact() {
        // Lineage of R(X),S(X,Y),T(Y) over a 2x2 complete probabilistic S.
        let (s, vars) = bool_space(&[0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.2, 0.9]);
        let (r1, r2, t1, t2) = (vars[0], vars[1], vars[2], vars[3]);
        let (s11, s12, s21, s22) = (vars[4], vars[5], vars[6], vars[7]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[r1, s11, t1]),
            Clause::from_bools(&[r1, s12, t2]),
            Clause::from_bools(&[r2, s21, t1]),
            Clause::from_bools(&[r2, s22, t2]),
        ]);
        let mut stats = CompileStats::default();
        let tree = compile_with_stats(&phi, &s, &CompileOptions::default(), &mut stats);
        assert!(stats.xor_nodes > 0);
        assert!(tree.is_complete());
        assert_compiles_exactly(&phi, &s, &CompileOptions::default());
    }

    #[test]
    fn max_depth_yields_partial_tree_with_valid_bounds() {
        let (s, vars) = bool_space(&[0.3, 0.4, 0.5, 0.6]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[1], vars[2]]),
            Clause::from_bools(&[vars[2], vars[3]]),
        ]);
        let opts = CompileOptions { max_depth: Some(1), ..Default::default() };
        let tree = compile(&phi, &s, &opts);
        assert!(!tree.is_complete());
        let b = tree.bounds(&s);
        assert!(b.contains(phi.exact_probability_enumeration(&s)));
    }

    #[test]
    fn multivalued_shannon_expansion_is_exact() {
        let mut s = ProbabilitySpace::new();
        let x = s.add_discrete("x", vec![0.2, 0.3, 0.5]);
        let y = s.add_bool("y", 0.4);
        let z = s.add_bool("z", 0.9);
        let phi = Dnf::from_clauses(vec![
            Clause::from_atoms(vec![Atom::new(x, 0), Atom::pos(y)]),
            Clause::from_atoms(vec![Atom::new(x, 1), Atom::pos(z)]),
            Clause::from_atoms(vec![Atom::new(x, 2), Atom::pos(y), Atom::pos(z)]),
        ]);
        assert_compiles_exactly(&phi, &s, &CompileOptions::default());
    }
}
