//! The pre-arena **owned-`Dnf` reference implementations** of the exact and
//! approximate compilers.
//!
//! The production hot path ([`crate::exact_probability`],
//! [`crate::ApproxCompiler`]) runs on [`events::DnfView`]s over a
//! [`events::LineageArena`] — decomposition is index manipulation with zero
//! clause cloning. This module preserves the original algorithms that
//! re-materialise an owned [`Dnf`] at every decomposition step, for two
//! purposes:
//!
//! * **Differential testing** — the equivalence proptests pin the arena path
//!   bit-identical to this reference (same probabilities, same bounds, same
//!   d-tree node counts);
//! * **Benchmarking** — the `decomposition` criterion bench measures the
//!   arena path's speedup against this baseline.
//!
//! The reference is *not* wired into any production caller and intentionally
//! supports only the private per-run memo (no shared cache), mirroring what
//! `ApproxCompiler::run` / `exact_probability` did before the arena.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Instant;

use events::{
    product_factorization, Atom, Clause, Dnf, DnfHash, LineageArena, ProbabilitySpace, VarId,
    VarOrigins,
};

use crate::approx::{ApproxOptions, ApproxResult};
use crate::bounds::Bounds;
use crate::compile::CompileOptions;
use crate::exact::ExactResult;
use crate::order::VarOrder;
use crate::stats::CompileStats;

/// The pre-arena independent-or partitioning: map-based union-find over the
/// variable co-occurrence graph, kept verbatim.
fn independent_components_reference(dnf: &Dnf) -> Vec<Dnf> {
    if dnf.len() <= 1 {
        return vec![dnf.clone()];
    }
    let clauses = dnf.clauses();
    let mut var_to_first_clause: BTreeMap<VarId, usize> = BTreeMap::new();
    let mut uf: events::UnionFind<usize> = events::UnionFind::new();
    for (i, c) in clauses.iter().enumerate() {
        uf.insert(i);
        for v in c.vars() {
            match var_to_first_clause.entry(v) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
                std::collections::btree_map::Entry::Occupied(e) => uf.union(i, *e.get()),
            }
        }
    }
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..clauses.len() {
        let r = uf.find(i);
        by_root.entry(r).or_default().push(i);
    }
    let groups: Vec<Vec<usize>> = by_root.into_values().collect();
    if groups.len() <= 1 {
        return vec![dnf.clone()];
    }
    groups
        .into_iter()
        .map(|idxs| Dnf::from_clauses(idxs.into_iter().map(|i| clauses[i].clone())))
        .collect()
}

/// The pre-arena bucket-bounds implementation (BTreeSet buckets over owned
/// clauses), kept verbatim as the baseline's bound oracle.
pub fn dnf_bounds_reference(dnf: &Dnf, space: &ProbabilitySpace) -> Bounds {
    if dnf.is_empty() {
        return Bounds::point(0.0);
    }
    if dnf.is_tautology() {
        return Bounds::point(1.0);
    }
    let order: Vec<usize> =
        dnf.clauses_by_probability_desc(space).into_iter().map(|(i, _)| i).collect();
    let mut bounds = bucket_bounds_reference(dnf, space, &order);
    let (arena, view) = LineageArena::from_dnf(dnf);
    if let Some(fkg_upper) = independent_or_upper_bound_reference(&arena, &view, space) {
        bounds = Bounds::new(bounds.lower.min(fkg_upper), bounds.upper.min(fkg_upper));
    }
    bounds
}

/// The pre-bitset monotone-DNF independent-union upper bound (one flat sort
/// for the monotonicity check, clause probabilities recomputed), kept
/// verbatim so the production bounds are checked against an independent
/// copy.
fn independent_or_upper_bound_reference(
    arena: &LineageArena,
    view: &events::DnfView,
    space: &ProbabilitySpace,
) -> Option<f64> {
    let mut atoms: Vec<(VarId, u32)> = Vec::new();
    for clause in view.atoms(arena) {
        atoms.extend(clause.map(|a| (a.var, a.value)));
    }
    atoms.sort_unstable();
    if atoms.windows(2).any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1) {
        return None;
    }
    let mut complement = 1.0;
    for i in 0..view.len() {
        complement *= 1.0 - view.clause_probability(arena, space, i);
    }
    Some(1.0 - complement)
}

fn bucket_bounds_reference(dnf: &Dnf, space: &ProbabilitySpace, order: &[usize]) -> Bounds {
    struct Bucket {
        vars: BTreeSet<VarId>,
        prob: f64,
    }
    let clauses = dnf.clauses();
    let mut buckets: Vec<Bucket> = Vec::new();
    for &i in order {
        let clause = &clauses[i];
        let cvars: Vec<VarId> = clause.vars().collect();
        let p = clause.probability(space);
        let slot = buckets.iter().position(|b| cvars.iter().all(|v| !b.vars.contains(v)));
        match slot {
            Some(idx) => {
                let b = &mut buckets[idx];
                b.vars.extend(cvars);
                b.prob = 1.0 - (1.0 - b.prob) * (1.0 - p);
            }
            None => {
                buckets.push(Bucket { vars: cvars.into_iter().collect(), prob: p });
            }
        }
    }
    let lower = buckets.iter().map(|b| b.prob).fold(0.0f64, f64::max);
    let upper: f64 = buckets.iter().map(|b| b.prob).sum();
    Bounds::new(lower, upper.min(1.0))
}

/// The pre-arena variable chooser over owned DNFs, kept verbatim.
fn choose_variable_reference(
    dnf: &Dnf,
    order: &VarOrder,
    origins: Option<&VarOrigins>,
) -> Option<VarId> {
    match order {
        VarOrder::MostFrequent => dnf.most_frequent_var(),
        VarOrder::Fixed(vars) => {
            let present = dnf.vars();
            vars.iter().copied().find(|v| present.contains(v)).or_else(|| dnf.most_frequent_var())
        }
        VarOrder::IqThenFrequent => origins
            .and_then(|o| choose_iq_variable_reference(dnf, o))
            .or_else(|| dnf.most_frequent_var()),
    }
}

fn choose_iq_variable_reference(dnf: &Dnf, origins: &VarOrigins) -> Option<VarId> {
    if dnf.is_empty() || dnf.is_tautology() {
        return None;
    }
    let mut per_relation: BTreeMap<u32, BTreeSet<VarId>> = BTreeMap::new();
    for clause in dnf.clauses() {
        for v in clause.vars() {
            let group = origins.get(v)?;
            per_relation.entry(group).or_default().insert(v);
        }
    }
    if per_relation.len() < 2 {
        return dnf.most_frequent_var();
    }
    let candidates: BTreeSet<VarId> = dnf.vars();
    for &v in &candidates {
        let v_group = origins.get(v)?;
        let mut restricted: BTreeMap<u32, BTreeSet<VarId>> = BTreeMap::new();
        for clause in dnf.clauses() {
            if !clause.mentions(v) {
                continue;
            }
            for w in clause.vars() {
                let group = origins.get(w)?;
                restricted.entry(group).or_default().insert(w);
            }
        }
        let qualifies = per_relation.iter().all(|(group, vars)| {
            if *group == v_group {
                true
            } else {
                restricted.get(group).map(|r| r.len() == vars.len()).unwrap_or(false)
            }
        });
        if qualifies {
            return Some(v);
        }
    }
    None
}

/// Leaf size threshold shared with the production path
/// (see `crate::approx`).
const EXACT_LEAF_VARS: usize = 12;

/// The original owned-path exact evaluation: every decomposition step builds
/// fresh `Dnf`s. Bit-identical to [`crate::exact_probability`].
pub fn exact_probability_reference(
    dnf: &Dnf,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
) -> ExactResult {
    let mut stats = CompileStats::default();
    let probability = exact_rec(dnf, space, opts, &mut stats, 0);
    ExactResult { probability, stats }
}

fn exact_rec(
    dnf: &Dnf,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    stats: &mut CompileStats,
    depth: usize,
) -> f64 {
    stats.max_depth = stats.max_depth.max(depth);

    if dnf.is_empty() {
        stats.exact_leaves += 1;
        return 0.0;
    }
    if dnf.is_tautology() {
        stats.exact_leaves += 1;
        return 1.0;
    }

    // Step 1: subsumption removal.
    let reduced = dnf.remove_subsumed();
    stats.subsumed_clauses += dnf.len() - reduced.len();
    let dnf = reduced;

    // Single clause: product of atom marginals.
    if dnf.len() == 1 {
        stats.exact_leaves += 1;
        return dnf.clauses()[0].probability(space);
    }

    // Step 2: independent-or (⊗).
    let components = independent_components_reference(&dnf);
    if components.len() > 1 {
        stats.or_nodes += 1;
        let mut prod = 1.0;
        for c in &components {
            prod *= 1.0 - exact_rec(c, space, opts, stats, depth + 1);
        }
        return 1.0 - prod;
    }

    // Step 3a: independent-and (⊙) by common-atom factoring.
    let common = dnf.common_atoms();
    if !common.is_empty() {
        stats.and_nodes += 1;
        stats.exact_leaves += common.len();
        let factored: f64 = common.iter().map(|a| space.atom_prob(*a)).product();
        let rest = dnf.strip_atoms(&common);
        return factored * exact_rec(&rest, space, opts, stats, depth + 1);
    }

    // Step 3b: independent-and (⊙) by relational product factorization.
    if let Some(origins) = &opts.origins {
        if let Some(factors) = product_factorization(dnf.clauses(), origins) {
            stats.and_nodes += 1;
            let mut prod = 1.0;
            for clauses in factors {
                prod *= exact_rec(&Dnf::from_clauses(clauses), space, opts, stats, depth + 1);
            }
            return prod;
        }
    }

    // Step 4: Shannon expansion (⊕).
    let var = choose_variable_reference(&dnf, &opts.var_order, opts.origins.as_ref())
        .expect("non-constant DNF mentions at least one variable");
    stats.xor_nodes += 1;
    let mut total = 0.0;
    for (value, cofactor) in dnf.shannon_cofactors(var, space) {
        stats.and_nodes += 1;
        stats.exact_leaves += 1;
        total += space.prob(var, value) * exact_rec(&cofactor, space, opts, stats, depth + 1);
    }
    total.min(1.0)
}

/// The original owned-path depth-first ε-approximation with leaf closing.
/// Bit-identical to [`crate::ApproxCompiler::run`].
pub fn approx_reference(dnf: &Dnf, space: &ProbabilitySpace, opts: &ApproxOptions) -> ApproxResult {
    let start = Instant::now();
    let mut dfs = Dfs {
        space,
        opts,
        frames: Vec::new(),
        stats: CompileStats::default(),
        steps: 0,
        start,
        budget_exhausted: false,
        exact_memo: HashMap::new(),
        bounds_memo: HashMap::new(),
    };
    let bounds = match dfs.explore(Work::Dnf(dnf.clone()), 0) {
        Outcome::Finished(b) | Outcome::StopAll(b) => b,
    };
    ApproxResult {
        lower: bounds.lower,
        upper: bounds.upper,
        estimate: opts.error.estimate_from(bounds),
        converged: opts.error.satisfied_by(bounds),
        steps: dfs.steps,
        stats: dfs.stats,
        elapsed: start.elapsed(),
    }
}

enum Work {
    Dnf(Dnf),
    Node(Op, Vec<Work>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Or,
    And,
    Xor,
}

enum Outcome {
    Finished(Bounds),
    StopAll(Bounds),
}

struct Frame {
    op: Op,
    done: Vec<Bounds>,
    pending: VecDeque<Bounds>,
}

impl Frame {
    fn allows_closing(&self) -> bool {
        self.op != Op::And
            || (self.done.iter().all(Bounds::is_point) && self.pending.iter().all(Bounds::is_point))
    }
}

struct Dfs<'a> {
    space: &'a ProbabilitySpace,
    opts: &'a ApproxOptions,
    frames: Vec<Frame>,
    stats: CompileStats,
    steps: usize,
    start: Instant,
    budget_exhausted: bool,
    exact_memo: HashMap<DnfHash, f64>,
    bounds_memo: HashMap<DnfHash, Bounds>,
}

impl Dfs<'_> {
    fn memo_exact(&mut self, dnf: &Dnf) -> f64 {
        let key = dnf.canonical_hash();
        if let Some(&p) = self.exact_memo.get(&key) {
            self.stats.exact_cache_hits += 1;
            return p;
        }
        let r = exact_probability_reference(dnf, self.space, &self.opts.compile);
        self.stats.exact_evaluations += 1;
        self.stats.or_nodes += r.stats.or_nodes;
        self.stats.and_nodes += r.stats.and_nodes;
        self.stats.xor_nodes += r.stats.xor_nodes;
        self.exact_memo.insert(key, r.probability);
        r.probability
    }

    fn memo_bounds(&mut self, dnf: &Dnf) -> Bounds {
        let key = dnf.canonical_hash();
        if let Some(&b) = self.bounds_memo.get(&key) {
            self.stats.bound_cache_hits += 1;
            return b;
        }
        let b = dnf_bounds_reference(dnf, self.space);
        self.stats.bound_evaluations += 1;
        self.bounds_memo.insert(key, b);
        b
    }

    fn global_bounds(&self, current: Bounds, pending_at_lower: bool) -> Bounds {
        let mut acc = current;
        for frame in self.frames.iter().rev() {
            let children: Vec<Bounds> = frame
                .done
                .iter()
                .copied()
                .chain(std::iter::once(acc))
                .chain(frame.pending.iter().map(|b| {
                    if pending_at_lower {
                        Bounds::point(b.lower)
                    } else {
                        *b
                    }
                }))
                .collect();
            acc = match frame.op {
                Op::Or => Bounds::combine_or(children),
                Op::And => Bounds::combine_and(children),
                Op::Xor => Bounds::combine_xor(children),
            };
        }
        acc
    }

    fn closing_allowed(&self) -> bool {
        self.frames.iter().all(Frame::allows_closing)
    }

    fn check_budget(&mut self) {
        if self.budget_exhausted {
            return;
        }
        if let Some(max) = self.opts.max_steps {
            if self.steps >= max {
                self.budget_exhausted = true;
            }
        }
        if let Some(timeout) = self.opts.timeout {
            if self.start.elapsed() >= timeout {
                self.budget_exhausted = true;
            }
        }
    }

    fn quick_bounds(&mut self, work: &Work) -> Bounds {
        match work {
            Work::Dnf(dnf) => {
                if dnf.is_empty() {
                    Bounds::point(0.0)
                } else if dnf.is_tautology() {
                    Bounds::point(1.0)
                } else if dnf.len() == 1 {
                    Bounds::point(dnf.clauses()[0].probability(self.space))
                } else if dnf.num_vars() <= EXACT_LEAF_VARS {
                    Bounds::point(self.memo_exact(dnf))
                } else {
                    self.memo_bounds(dnf)
                }
            }
            Work::Node(op, children) => {
                let bounds: Vec<Bounds> = children.iter().map(|c| self.quick_bounds(c)).collect();
                match op {
                    Op::Or => Bounds::combine_or(bounds),
                    Op::And => Bounds::combine_and(bounds),
                    Op::Xor => Bounds::combine_xor(bounds),
                }
            }
        }
    }

    fn explore(&mut self, work: Work, depth: usize) -> Outcome {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        match work {
            Work::Node(op, children) => self.explore_node(op, children, depth),
            Work::Dnf(dnf) => self.explore_dnf(dnf, depth),
        }
    }

    fn explore_node(&mut self, op: Op, children: Vec<Work>, depth: usize) -> Outcome {
        let pending: VecDeque<Bounds> =
            children.iter().skip(1).map(|c| self.quick_bounds(c)).collect();
        self.frames.push(Frame { op, done: Vec::new(), pending });
        for (i, child) in children.into_iter().enumerate() {
            if i > 0 {
                let frame = self.frames.last_mut().expect("frame pushed above");
                frame.pending.pop_front();
            }
            match self.explore(child, depth + 1) {
                Outcome::Finished(b) => {
                    let frame = self.frames.last_mut().expect("frame pushed above");
                    frame.done.push(b);
                }
                Outcome::StopAll(b) => {
                    self.frames.pop();
                    return Outcome::StopAll(b);
                }
            }
        }
        let frame = self.frames.pop().expect("frame pushed above");
        let combined = match op {
            Op::Or => Bounds::combine_or(frame.done),
            Op::And => Bounds::combine_and(frame.done),
            Op::Xor => Bounds::combine_xor(frame.done),
        };
        Outcome::Finished(combined)
    }

    fn explore_dnf(&mut self, dnf: Dnf, depth: usize) -> Outcome {
        if dnf.is_empty() {
            self.stats.exact_leaves += 1;
            return Outcome::Finished(Bounds::point(0.0));
        }
        if dnf.is_tautology() {
            self.stats.exact_leaves += 1;
            return Outcome::Finished(Bounds::point(1.0));
        }
        if dnf.len() == 1 {
            self.stats.exact_leaves += 1;
            return Outcome::Finished(Bounds::point(dnf.clauses()[0].probability(self.space)));
        }
        if dnf.num_vars() <= EXACT_LEAF_VARS {
            self.stats.exact_leaves += 1;
            let point = Bounds::point(self.memo_exact(&dnf));
            let global = self.global_bounds(point, false);
            if self.opts.error.satisfied_by(global) {
                return Outcome::StopAll(global);
            }
            return Outcome::Finished(point);
        }

        let current = self.memo_bounds(&dnf);

        let global = self.global_bounds(current, false);
        if self.opts.error.satisfied_by(global) {
            return Outcome::StopAll(global);
        }

        if self.closing_allowed() {
            let worst = self.global_bounds(current, true);
            if self.opts.error.satisfied_by(worst) {
                self.stats.closed_leaves += 1;
                return Outcome::Finished(current);
            }
        }

        self.check_budget();
        if self.budget_exhausted {
            self.stats.closed_leaves += 1;
            return Outcome::Finished(current);
        }

        self.steps += 1;
        let node = self.decompose(dnf);
        self.explore(node, depth)
    }

    fn decompose(&mut self, dnf: Dnf) -> Work {
        let reduced = dnf.remove_subsumed();
        self.stats.subsumed_clauses += dnf.len() - reduced.len();
        let dnf = reduced;

        if dnf.len() <= 1 || dnf.is_tautology() {
            return Work::Dnf(dnf);
        }

        let components = independent_components_reference(&dnf);
        if components.len() > 1 {
            self.stats.or_nodes += 1;
            return Work::Node(Op::Or, components.into_iter().map(Work::Dnf).collect());
        }

        let common = dnf.common_atoms();
        if !common.is_empty() {
            self.stats.and_nodes += 1;
            let rest = dnf.strip_atoms(&common);
            let mut children: Vec<Work> =
                common.iter().map(|a| Work::Dnf(Dnf::singleton(Clause::singleton(*a)))).collect();
            children.push(Work::Dnf(rest));
            return Work::Node(Op::And, children);
        }

        if let Some(origins) = &self.opts.compile.origins {
            if let Some(factors) = product_factorization(dnf.clauses(), origins) {
                self.stats.and_nodes += 1;
                return Work::Node(
                    Op::And,
                    factors.into_iter().map(|c| Work::Dnf(Dnf::from_clauses(c))).collect(),
                );
            }
        }

        let var = choose_variable_reference(
            &dnf,
            &self.opts.compile.var_order,
            self.opts.compile.origins.as_ref(),
        )
        .expect("non-constant DNF mentions a variable");
        self.stats.xor_nodes += 1;
        let mut branches = Vec::new();
        for (value, cofactor) in dnf.shannon_cofactors(var, self.space) {
            self.stats.and_nodes += 1;
            branches.push(Work::Node(
                Op::And,
                vec![
                    Work::Dnf(Dnf::singleton(Clause::singleton(Atom::new(var, value)))),
                    Work::Dnf(cofactor),
                ],
            ));
        }
        Work::Node(Op::Xor, branches)
    }
}
