//! Materialised partial d-trees with incremental leaf refinement.
//!
//! A [`PartialDTree`] keeps a partially compiled d-tree in memory and refines
//! one open leaf at a time by a single decomposition step — the simpler
//! incremental algorithm sketched in Section V-D. It is the frontier store of
//! [`crate::resume`], which captures the tree a budget-truncated depth-first
//! run of [`crate::approx`] materialised and decides which leaf to refine
//! next.
//!
//! The tree owns a [`LineageArena`]: the input lineage is interned once and
//! every leaf is a [`DnfView`] over the pool, so refinement steps are index
//! manipulation instead of clause-vector copies.

use events::ProbabilitySpace;
use events::{product_factorization_by, Atom, Clause, Dnf, DnfView, LineageArena, VarId};

use crate::bounds::{dnf_bounds_view, Bounds, Op};
use crate::cache::Memo;
use crate::compile::CompileOptions;
use crate::order::choose_variable;
use crate::stats::CompileStats;

/// Identifier of a node inside a [`PartialDTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PartialNodeId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) enum PNode {
    /// An unrefined leaf holding a sub-formula view and its cached bucket
    /// bounds. `exact` marks leaves whose bounds are a point (constants /
    /// single clauses).
    Leaf { view: DnfView, bounds: Bounds, exact: bool },
    /// An inner decomposition node.
    Inner { op: Op, children: Vec<PartialNodeId> },
}

/// A partially compiled d-tree stored in an arena, supporting incremental
/// refinement of its leaves.
#[derive(Debug, Clone)]
pub(crate) struct PartialDTree {
    lineage: LineageArena,
    nodes: Vec<PNode>,
    root: PartialNodeId,
    stats: CompileStats,
}

impl PartialDTree {
    /// Reassembles a tree from already-built nodes over an arena — the hook
    /// [`crate::resume`] uses to materialise the frontier captured from a
    /// truncated depth-first run without re-interning or re-bounding anything.
    pub(crate) fn from_raw(
        lineage: LineageArena,
        nodes: Vec<PNode>,
        root: PartialNodeId,
        stats: CompileStats,
    ) -> Self {
        PartialDTree { lineage, nodes, root, stats }
    }

    fn push_leaf(
        &mut self,
        view: DnfView,
        space: &ProbabilitySpace,
        memo: Option<&mut Memo<'_>>,
    ) -> PartialNodeId {
        let (bounds, exact) = leaf_bounds(&self.lineage, &view, space, &mut self.stats, memo);
        let id = PartialNodeId(self.nodes.len());
        self.nodes.push(PNode::Leaf { view, bounds, exact });
        id
    }

    pub(crate) fn push_exact_atom_leaf(&mut self, atom: Atom, p: f64) -> PartialNodeId {
        let view = self.lineage.intern_sorted_clauses(&[Clause::singleton(atom)]);
        let id = PartialNodeId(self.nodes.len());
        self.nodes.push(PNode::Leaf { view, bounds: Bounds::point(p), exact: true });
        id
    }

    /// Compilation statistics accumulated so far.
    pub(crate) fn stats(&self) -> &CompileStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut CompileStats {
        &mut self.stats
    }

    pub(crate) fn node(&self, id: PartialNodeId) -> &PNode {
        &self.nodes[id.0]
    }

    /// The children of an inner node (none for a leaf).
    pub(crate) fn children(&self, id: PartialNodeId) -> &[PartialNodeId] {
        match self.node(id) {
            PNode::Inner { children, .. } => children,
            PNode::Leaf { .. } => &[],
        }
    }

    pub(crate) fn root_id(&self) -> PartialNodeId {
        self.root
    }

    pub(crate) fn lineage(&self) -> &LineageArena {
        &self.lineage
    }

    /// Replaces an open leaf with an exact point leaf over the same view —
    /// the resume driver's counterpart of the depth-first compiler's
    /// small-leaf exact fold.
    pub(crate) fn set_leaf_exact(&mut self, id: PartialNodeId, p: f64) {
        if let PNode::Leaf { bounds, exact, .. } = &mut self.nodes[id.0] {
            *bounds = Bounds::point(p);
            *exact = true;
        }
    }

    /// Number of nodes in the arena.
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Appends clauses to a leaf's view **in place**, recomputing its bounds
    /// from scratch: the leaf's formula changed, so its previous interval —
    /// and any intersection accumulated against it — is no longer sound.
    /// Part of the delta-maintenance machinery of [`crate::resume`].
    pub(crate) fn append_to_leaf(
        &mut self,
        id: PartialNodeId,
        clauses: &[Clause],
        space: &ProbabilitySpace,
    ) {
        let view = match &mut self.nodes[id.0] {
            PNode::Leaf { view, .. } => std::mem::take(view),
            PNode::Inner { .. } => return,
        };
        let mut view = view;
        self.lineage.append_clauses(&mut view, clauses);
        let (bounds, exact) = leaf_bounds(&self.lineage, &view, space, &mut self.stats, None);
        self.nodes[id.0] = PNode::Leaf { view, bounds, exact };
    }

    /// Pushes a fresh leaf over an owned (not yet interned) clause set.
    pub(crate) fn push_dnf_leaf(&mut self, dnf: &Dnf, space: &ProbabilitySpace) -> PartialNodeId {
        let view = self.lineage.intern(dnf);
        self.push_leaf(view, space, None)
    }

    /// Pushes a fresh inner node over already-pushed children.
    pub(crate) fn push_inner(&mut self, op: Op, children: Vec<PartialNodeId>) -> PartialNodeId {
        let id = PartialNodeId(self.nodes.len());
        self.nodes.push(PNode::Inner { op, children });
        id
    }

    /// Appends a child to an existing inner node (an independent-or node
    /// absorbing a fresh component, or a Shannon node growing a branch for a
    /// previously-empty domain value).
    pub(crate) fn add_child(&mut self, parent: PartialNodeId, child: PartialNodeId) {
        if let PNode::Inner { children, .. } = &mut self.nodes[parent.0] {
            children.push(child);
        }
    }

    /// Replaces a node (and implicitly orphans its former subtree) with an
    /// open leaf over `dnf` — the dirty-subtree fallback when a delta breaks
    /// the subtree's decomposition. Orphaned descendants stay in the node
    /// vector (ids must remain stable) but are unreachable from the root.
    pub(crate) fn replace_with_leaf(
        &mut self,
        id: PartialNodeId,
        dnf: &Dnf,
        space: &ProbabilitySpace,
    ) {
        let view = self.lineage.intern(dnf);
        let (bounds, exact) = leaf_bounds(&self.lineage, &view, space, &mut self.stats, None);
        self.nodes[id.0] = PNode::Leaf { view, bounds, exact };
    }

    /// The single atom of an exact singleton-atom leaf (the leaves
    /// common-atom factoring and Shannon branches produce), or `None`.
    pub(crate) fn leaf_single_atom(&self, id: PartialNodeId) -> Option<Atom> {
        match self.node(id) {
            PNode::Leaf { view, exact, .. }
                if *exact && view.len() == 1 && view.clause_len(&self.lineage, 0) == 1 =>
            {
                view.clause(&self.lineage, 0).next()
            }
            _ => None,
        }
    }

    /// Calls `f` with the variable of every atom in the subtree rooted at
    /// `id` (a variable repeats once per occurrence). Every leaf keeps its
    /// view (exact folds included), so these are the variables of the
    /// subtree's formula.
    pub(crate) fn for_each_subtree_var(&self, id: PartialNodeId, f: &mut impl FnMut(VarId)) {
        match self.node(id) {
            PNode::Leaf { view, .. } => {
                for i in 0..view.len() {
                    view.clause(&self.lineage, i).for_each(|a| f(a.var));
                }
            }
            PNode::Inner { children, .. } => {
                for &c in children {
                    self.for_each_subtree_var(c, f);
                }
            }
        }
    }

    /// Reconstructs the clause set of the formula the subtree rooted at `id`
    /// represents, from the decomposition itself:
    ///
    /// * a leaf contributes its view's clauses;
    /// * ⊗ children are independent disjuncts — union;
    /// * ⊕ branches are mutually exclusive disjuncts (`Φ = ⋁ᵤ v=u ∧ Φ|ᵤ`) —
    ///   union;
    /// * ⊙ children multiply — cross-product clause merge (lossless for both
    ///   common-atom factoring and the relational product factorization,
    ///   whose factor cross product is the original clause set by
    ///   construction).
    ///
    /// Appended clauses always land in leaf views, so this is current after
    /// any number of delta applications — it is what the dirty-subtree
    /// fallback rebuilds from.
    pub(crate) fn node_formula(&self, id: PartialNodeId) -> Vec<Clause> {
        match self.node(id) {
            PNode::Leaf { view, .. } => {
                (0..view.len()).map(|i| Clause::from_atoms(view.clause(&self.lineage, i))).collect()
            }
            PNode::Inner { op, children } => match op {
                Op::Or | Op::Xor => children.iter().flat_map(|&c| self.node_formula(c)).collect(),
                Op::And => {
                    let mut acc = vec![Clause::empty()];
                    for &c in children {
                        let factor = self.node_formula(c);
                        let mut next = Vec::with_capacity(acc.len() * factor.len());
                        for a in &acc {
                            for b in &factor {
                                let merged = a.and(b);
                                if merged.is_consistent() {
                                    next.push(merged);
                                }
                            }
                        }
                        acc = next;
                    }
                    acc
                }
            },
        }
    }

    /// Refines the given leaf by one decomposition step of Figure 1 (replacing
    /// the leaf with an inner node over new leaves). Returns `false` if the
    /// node is already exact or is not a leaf. The memo is layered over the
    /// bucket bounds of the new leaves, so a resumed compilation reuses
    /// bounds computed by earlier slices (or other lineages sharing the same
    /// [`crate::SubformulaCache`]); cached bounds are exactly what would be
    /// recomputed.
    pub(crate) fn refine_with_memo(
        &mut self,
        id: PartialNodeId,
        space: &ProbabilitySpace,
        opts: &CompileOptions,
        memo: &mut Memo<'_>,
    ) -> bool {
        let (view, exact) = match &self.nodes[id.0] {
            PNode::Leaf { view, exact, .. } => (view.clone(), *exact),
            PNode::Inner { .. } => return false,
        };
        if exact {
            return false;
        }

        // Step 1: subsumption removal.
        let (view, removed) = view.remove_subsumed(&self.lineage);
        self.stats.subsumed_clauses += removed;

        if view.len() <= 1 || view.is_tautology(&self.lineage) {
            let p = if view.is_empty() {
                0.0
            } else if view.is_tautology(&self.lineage) {
                1.0
            } else {
                view.clause_probability(&self.lineage, space, 0)
            };
            self.stats.exact_leaves += 1;
            self.nodes[id.0] = PNode::Leaf { view, bounds: Bounds::point(p), exact: true };
            return true;
        }

        // Step 2: independent-or.
        let components = view.independent_components(&self.lineage);
        if components.len() > 1 {
            self.stats.or_nodes += 1;
            let children: Vec<PartialNodeId> =
                components.into_iter().map(|c| self.push_leaf(c, space, Some(memo))).collect();
            self.nodes[id.0] = PNode::Inner { op: Op::Or, children };
            return true;
        }

        // Step 3a: common-atom factoring.
        let common = view.common_atoms(&self.lineage);
        if !common.is_empty() {
            self.stats.and_nodes += 1;
            self.stats.exact_leaves += common.len();
            let vars: Vec<_> = common.iter().map(|a| a.var).collect();
            let rest = view.strip_vars(&mut self.lineage, &vars);
            let mut children: Vec<PartialNodeId> =
                common.iter().map(|a| self.push_exact_atom_leaf(*a, space.atom_prob(*a))).collect();
            children.push(self.push_leaf(rest, space, Some(memo)));
            self.nodes[id.0] = PNode::Inner { op: Op::And, children };
            return true;
        }

        // Step 3b: relational product factorization.
        if let Some(origins) = &opts.origins {
            let factors =
                product_factorization_by(view.len(), |i| view.clause(&self.lineage, i), origins);
            if let Some(factors) = factors {
                self.stats.and_nodes += 1;
                let children: Vec<PartialNodeId> = factors
                    .into_iter()
                    .map(|clauses| {
                        let factor = self.lineage.intern_sorted_clauses(&clauses);
                        self.push_leaf(factor, space, Some(memo))
                    })
                    .collect();
                self.nodes[id.0] = PNode::Inner { op: Op::And, children };
                return true;
            }
        }

        // Step 4: Shannon expansion.
        let var = choose_variable(&self.lineage, &view, &opts.var_order, opts.origins.as_ref())
            .expect("non-constant DNF mentions a variable");
        self.stats.xor_nodes += 1;
        let mut branches = Vec::new();
        for (value, cofactor) in view.shannon_cofactors(&mut self.lineage, var, space) {
            self.stats.and_nodes += 1;
            self.stats.exact_leaves += 1;
            let atom_leaf =
                self.push_exact_atom_leaf(Atom::new(var, value), space.prob(var, value));
            let cof_leaf = self.push_leaf(cofactor, space, Some(memo));
            let branch = PartialNodeId(self.nodes.len());
            self.nodes.push(PNode::Inner { op: Op::And, children: vec![atom_leaf, cof_leaf] });
            branches.push(branch);
        }
        self.nodes[id.0] = PNode::Inner { op: Op::Xor, children: branches };
        true
    }
}

fn leaf_bounds(
    arena: &LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    stats: &mut CompileStats,
    memo: Option<&mut Memo<'_>>,
) -> (Bounds, bool) {
    if view.is_empty() {
        return (Bounds::point(0.0), true);
    }
    if view.is_tautology(arena) {
        return (Bounds::point(1.0), true);
    }
    if view.len() == 1 {
        return (Bounds::point(view.clause_probability(arena, space, 0)), true);
    }
    if let Some(memo) = memo {
        let key = view.hash(arena);
        if let Some(b) = memo.get_bounds(key) {
            stats.bound_cache_hits += 1;
            return (b, false);
        }
        let b = dnf_bounds_view(arena, view, space);
        stats.bound_evaluations += 1;
        memo.put_bounds(key, view.required_watermark(arena), b);
        return (b, false);
    }
    stats.bound_evaluations += 1;
    (dnf_bounds_view(arena, view, space), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::dnf_bounds;
    use events::VarId;

    fn bool_space(ps: &[f64]) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = ps.iter().enumerate().map(|(i, &p)| s.add_bool(format!("x{i}"), p)).collect();
        (s, vars)
    }

    fn chain_dnf(vars: &[VarId]) -> Dnf {
        Dnf::from_clauses((0..vars.len() - 1).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])))
    }

    /// A tree holding `dnf` as its single (root) leaf.
    fn single_leaf(dnf: &Dnf, space: &ProbabilitySpace) -> PartialDTree {
        let (lineage, root) = LineageArena::from_dnf(dnf);
        let mut tree =
            PartialDTree::from_raw(lineage, Vec::new(), PartialNodeId(0), CompileStats::default());
        tree.push_leaf(root, space, None);
        tree
    }

    fn first_open_leaf(tree: &PartialDTree) -> Option<PartialNodeId> {
        tree.nodes
            .iter()
            .position(|n| matches!(n, PNode::Leaf { exact: false, .. }))
            .map(PartialNodeId)
    }

    /// Bounds of the subtree at `id` by the monotone combination rules of
    /// Proposition 5.4.
    fn bounds_of(tree: &PartialDTree, id: PartialNodeId) -> Bounds {
        match tree.node(id) {
            PNode::Leaf { bounds, .. } => *bounds,
            PNode::Inner { op, children } => {
                op.combine(children.iter().map(|&c| bounds_of(tree, c)))
            }
        }
    }

    fn refine(tree: &mut PartialDTree, id: PartialNodeId, space: &ProbabilitySpace) -> bool {
        tree.refine_with_memo(id, space, &CompileOptions::default(), &mut Memo::default())
    }

    #[test]
    fn refinement_tightens_bounds_until_exact() {
        let (s, vars) = bool_space(&[0.5, 0.4, 0.3, 0.6, 0.7]);
        let phi = chain_dnf(&vars);
        let exact = phi.exact_probability_enumeration(&s);
        let mut tree = single_leaf(&phi, &s);
        assert!(bounds_of(&tree, tree.root_id()).contains(exact));
        let mut iterations = 0;
        while let Some(leaf) = first_open_leaf(&tree) {
            assert!(refine(&mut tree, leaf, &s));
            let b = bounds_of(&tree, tree.root_id());
            assert!(b.contains(exact), "bounds {b:?} lost exact {exact}");
            iterations += 1;
            assert!(iterations < 1000, "refinement did not terminate");
        }
        let final_bounds = bounds_of(&tree, tree.root_id());
        assert!(final_bounds.is_point());
        assert!((final_bounds.lower - exact).abs() < 1e-9);
    }

    #[test]
    fn refine_on_exact_leaf_is_noop() {
        let (s, vars) = bool_space(&[0.5, 0.5]);
        let phi = Dnf::from_clauses(vec![Clause::from_bools(&[vars[0], vars[1]])]);
        let mut tree = single_leaf(&phi, &s);
        assert_eq!(first_open_leaf(&tree), None);
        let root = tree.root_id();
        assert!(!refine(&mut tree, root, &s));
    }

    #[test]
    fn stats_track_decompositions() {
        let (s, vars) = bool_space(&[0.5, 0.4, 0.3, 0.6]);
        // Two independent pairs: one ⊗ refinement then exact single clauses.
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[2], vars[3]]),
        ]);
        let mut tree = single_leaf(&phi, &s);
        let leaf = first_open_leaf(&tree).unwrap();
        refine(&mut tree, leaf, &s);
        assert_eq!(tree.stats().or_nodes, 1);
        assert_eq!(first_open_leaf(&tree), None);
        assert!(tree.num_nodes() >= 3);
    }

    #[test]
    fn bounds_of_fresh_tree_match_bucket_heuristic() {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
            Clause::from_bools(&[vars[3]]),
        ]);
        let tree = single_leaf(&phi, &s);
        assert_eq!(bounds_of(&tree, tree.root_id()), dnf_bounds(&phi, &s));
    }
}
