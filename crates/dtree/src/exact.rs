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
//! Two evaluators share the recursion, split by variable count:
//!
//! * a view over more than [`EXACT_LEAF_VARS`] variables takes one step on
//!   [`DnfView`]s over a [`LineageArena`]: the input lineage is interned
//!   once, component splits and subsumption are index filtering, and
//!   restrictions and product factors are interned back into the arena;
//! * every view or sub-view with at most [`EXACT_LEAF_VARS`] variables — the
//!   small leaves the approximation folds, and the tail of every large
//!   recursion — goes to a **dense kernel**. One pass maps the view's
//!   variables to local ids in ascending id order; each clause becomes a
//!   fixed-width entry (a bound-variable mask plus the bound values) on one
//!   stack allocated once per fold. The kernel runs the same steps in the
//!   same order with no interning, no hashing and no per-step allocation.
//!
//! Local ids ascend with variable ids, so the kernel's clause order is the
//! arena's canonical order, and with it the component order, the factor
//! order, the variable tie-breaks and every floating-point fold: both
//! evaluators return the same probability bits and [`CompileStats`]. With a
//! shared [`SubformulaCache`] the arena steps look up every sub-view, while
//! a small view is looked up once and folded without further lookups.

use events::{product_factorization_by, Dnf, DnfView, LineageArena, ProbabilitySpace, VarId};

use crate::cache::SubformulaCache;
use crate::compile::CompileOptions;
use crate::order::{choose_variable, VarOrder};
use crate::stats::CompileStats;

/// Views with at most this many distinct variables are folded by the dense
/// kernel, and the approximation evaluates leaves this small exactly (their
/// complete sub-d-tree is folded on the fly) instead of bounding them with
/// the bucket heuristic and decomposing them one step at a time. Small exact
/// leaves produce point bounds, which both tightens the global interval and
/// preserves the ε "slack" of Theorem 5.12 for the genuinely large leaves.
/// Shared with [`crate::resume`], whose refinement driver folds the same
/// class of leaves the same way so resumed slices converge like the DFS.
pub(crate) const EXACT_LEAF_VARS: usize = 12;

/// A set of kernel-local variables: bit `k` stands for [`LeafVars`] entry `k`.
type VarMask = u16;
const _: () = assert!(EXACT_LEAF_VARS <= VarMask::BITS as usize);

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
            let p = exact_node(arena, view, space, opts, stats, depth, cache);
            stats.exact_evaluations += 1;
            scope.cache.store_exact(key, scope.generation, view.required_watermark(arena), p);
            return p;
        }
    }
    exact_node(arena, view, space, opts, stats, depth, cache)
}

/// Evaluates one view: a small one by the dense kernel (whose sub-views skip
/// the cache), a larger one by one arena step.
fn exact_node(
    arena: &mut LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &CompileOptions,
    stats: &mut CompileStats,
    depth: usize,
    cache: Option<CacheScope<'_>>,
) -> f64 {
    match LeafVars::of(arena, view) {
        Some(vars) => Kernel::fold(arena, view, &vars, space, opts, stats, depth),
        None => exact_step(arena, view, space, opts, stats, depth, cache),
    }
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

/// The variables of a view with at most [`EXACT_LEAF_VARS`] of them, in
/// ascending id order: kernel-local id `k` is `ids[k]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafVars {
    ids: [VarId; EXACT_LEAF_VARS],
    len: usize,
}

impl LeafVars {
    /// The variables of `view`, or `None` when it mentions more than
    /// [`EXACT_LEAF_VARS`] of them — the exact-leaf threshold test, decided
    /// in the same pass that assigns the local ids, with an early exit.
    pub(crate) fn of(arena: &LineageArena, view: &DnfView) -> Option<LeafVars> {
        let mut ids = [VarId(0); EXACT_LEAF_VARS];
        let mut len = 0;
        for i in 0..view.len() {
            for a in view.clause_slice(arena, i) {
                if let Err(pos) = ids[..len].binary_search(&a.var) {
                    if len == EXACT_LEAF_VARS {
                        return None;
                    }
                    ids.copy_within(pos..len, pos + 1);
                    ids[pos] = a.var;
                    len += 1;
                }
            }
        }
        Some(LeafVars { ids, len })
    }

    /// Folds `view`, whose variables these are, with the dense kernel:
    /// bit for bit what [`exact_probability_view`] returns for it without a
    /// cache, without touching the arena.
    pub(crate) fn fold(
        &self,
        arena: &LineageArena,
        view: &DnfView,
        space: &ProbabilitySpace,
        opts: &CompileOptions,
    ) -> ExactResult {
        let mut stats = CompileStats::default();
        let probability = Kernel::fold(arena, view, self, space, opts, &mut stats, 0);
        ExactResult { probability, stats }
    }

    fn local(&self, var: VarId) -> Option<usize> {
        self.ids[..self.len].binary_search(&var).ok()
    }
}

/// One clause of the kernel: the local variables it binds and their values
/// (`vals[k]` is meaningful only where `mask` has bit `k`), plus scratch
/// fields for the component union-find.
#[derive(Debug, Clone, Copy)]
struct Entry {
    mask: VarMask,
    /// Union-find rank, or the subsumed flag of [`Kernel::remove_subsumed`].
    rank: u8,
    /// Union-find parent, as a position within the clause range.
    link: u32,
    vals: [u32; EXACT_LEAF_VARS],
}

/// Iterates the set bits of `mask` in ascending order.
fn bits(mut mask: VarMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let k = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (k < VarMask::BITS as usize).then_some(k)
    })
}

/// `true` when `a` and `b` bind the variables of `mask` to the same values.
fn agree(a: &Entry, b: &Entry, mask: VarMask) -> bool {
    bits(mask).all(|k| a.vals[k] == b.vals[k])
}

/// The canonical clause order — the lexicographic order of the sorted atom
/// sequences, which local ids preserve.
fn canonical_cmp(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    let differ = a.mask ^ b.mask;
    // The variables below the first one only a or b binds.
    let below = if differ == 0 { VarMask::MAX } else { (differ & differ.wrapping_neg()) - 1 };
    for k in bits(a.mask & b.mask & below) {
        if a.vals[k] != b.vals[k] {
            return a.vals[k].cmp(&b.vals[k]);
        }
    }
    if differ == 0 {
        return std::cmp::Ordering::Equal;
    }
    // Equal up to variable `d`, which one side binds: that side is smaller
    // when the other continues with a larger variable, larger when the other
    // ends there.
    let d = differ.trailing_zeros();
    let above = |m: VarMask| m.checked_shr(d + 1).unwrap_or(0) != 0;
    let a_smaller = if a.mask & (1 << d) != 0 { above(b.mask) } else { !above(a.mask) };
    if a_smaller {
        std::cmp::Ordering::Less
    } else {
        std::cmp::Ordering::Greater
    }
}

fn same(a: &Entry, b: &Entry) -> bool {
    a.mask == b.mask && agree(a, b, a.mask)
}

/// Union-find root of position `k` in `s`, with path compression.
fn find(s: &mut [Entry], k: u32) -> u32 {
    let mut root = k;
    while s[root as usize].link != root {
        root = s[root as usize].link;
    }
    let mut cur = k;
    while s[cur as usize].link != root {
        let next = s[cur as usize].link;
        s[cur as usize].link = root;
        cur = next;
    }
    root
}

/// Union by rank, as [`events::connected_components_by`] merges.
fn union(s: &mut [Entry], a: u32, b: u32) {
    let (ra, rb) = (find(s, a), find(s, b));
    if ra == rb {
        return;
    }
    match s[ra as usize].rank.cmp(&s[rb as usize].rank) {
        std::cmp::Ordering::Less => s[ra as usize].link = rb,
        std::cmp::Ordering::Greater => s[rb as usize].link = ra,
        std::cmp::Ordering::Equal => {
            s[rb as usize].link = ra;
            s[ra as usize].rank += 1;
        }
    }
}

/// The dense exact kernel over one view's clauses (see the module docs).
/// A sub-view is a range of the entry stack in canonical order; a step may
/// rewrite its own range and pushes its children's ranges on top, popping
/// them before it returns.
struct Kernel<'k> {
    vars: &'k LeafVars,
    space: &'k ProbabilitySpace,
    opts: &'k CompileOptions,
    stats: &'k mut CompileStats,
    stack: Vec<Entry>,
    /// Local variable → index of its origin group among the view's groups,
    /// in ascending group id order.
    group: [u8; EXACT_LEAF_VARS],
    /// Origin-group index → its local variables.
    group_vars: [VarMask; EXACT_LEAF_VARS],
    /// Local variables without an origin label.
    unlabelled: VarMask,
}

impl Kernel<'_> {
    fn fold(
        arena: &LineageArena,
        view: &DnfView,
        vars: &LeafVars,
        space: &ProbabilitySpace,
        opts: &CompileOptions,
        stats: &mut CompileStats,
        depth: usize,
    ) -> f64 {
        let n = view.len();
        // A step pushes at most its own clause count and removes at least one
        // variable from what it pushes, so this never grows.
        let mut stack = Vec::with_capacity(n * (vars.len + 2));
        for i in 0..n {
            let mut e = Entry { mask: 0, rank: 0, link: 0, vals: [0; EXACT_LEAF_VARS] };
            for a in view.clause_slice(arena, i) {
                let k = vars.local(a.var).expect("the view's variables were mapped");
                e.mask |= 1 << k;
                e.vals[k] = a.value;
            }
            stack.push(e);
        }
        let mut group = [0; EXACT_LEAF_VARS];
        let mut group_vars = [0; EXACT_LEAF_VARS];
        let mut unlabelled = 0;
        if let Some(origins) = &opts.origins {
            let mut labels = [0u32; EXACT_LEAF_VARS];
            let mut distinct = [0u32; EXACT_LEAF_VARS];
            let mut groups = 0;
            for (k, &var) in vars.ids[..vars.len].iter().enumerate() {
                match origins.get(var) {
                    Some(g) => {
                        labels[k] = g;
                        if let Err(pos) = distinct[..groups].binary_search(&g) {
                            distinct.copy_within(pos..groups, pos + 1);
                            distinct[pos] = g;
                            groups += 1;
                        }
                    }
                    None => unlabelled |= 1 << k,
                }
            }
            for k in bits(!unlabelled & ((1 << vars.len) - 1)) {
                let g = distinct[..groups].binary_search(&labels[k]).expect("label was recorded");
                group[k] = g as u8;
                group_vars[g] |= 1 << k;
            }
        }
        let mut kernel = Kernel { vars, space, opts, stats, stack, group, group_vars, unlabelled };
        kernel.step(0, n, depth)
    }

    /// [`exact_step`] on the clauses `lo..hi`.
    fn step(&mut self, lo: usize, hi: usize, depth: usize) -> f64 {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if lo == hi {
            self.stats.exact_leaves += 1;
            return 0.0;
        }
        if self.stack[lo..hi].iter().any(|e| e.mask == 0) {
            self.stats.exact_leaves += 1;
            return 1.0;
        }

        // Step 1: subsumption removal.
        let hi = self.remove_subsumed(lo, hi);
        if hi - lo == 1 {
            self.stats.exact_leaves += 1;
            let clause = self.stack[lo];
            return self.atoms_probability(&clause, clause.mask);
        }

        // Step 2: independent-or (⊗).
        if let Some(p) = self.independent_or(lo, hi, depth) {
            return p;
        }

        // Step 3a: independent-and (⊙) by common-atom factoring.
        let common = self.common_atoms(lo, hi);
        if common != 0 {
            self.stats.and_nodes += 1;
            self.stats.exact_leaves += common.count_ones() as usize;
            let first = self.stack[lo];
            let factored = self.atoms_probability(&first, common);
            for e in &mut self.stack[lo..hi] {
                e.mask &= !common;
            }
            let hi = self.canonicalize(lo, hi);
            return factored * self.step(lo, hi, depth + 1);
        }

        // Step 3b: independent-and (⊙) by relational product factorization.
        if self.opts.origins.is_some() {
            if let Some(p) = self.product_factorization(lo, hi, depth) {
                return p;
            }
        }

        // Step 4: Shannon expansion (⊕).
        let k = self.choose_variable(lo, hi);
        let var = self.vars.ids[k];
        self.stats.xor_nodes += 1;
        let mut total = 0.0;
        for value in 0..self.space.domain_size(var) {
            let start = self.stack.len();
            for i in lo..hi {
                let mut e = self.stack[i];
                if e.mask & (1 << k) == 0 || e.vals[k] == value {
                    e.mask &= !(1 << k);
                    self.stack.push(e);
                }
            }
            if self.stack.len() == start {
                continue;
            }
            let end = self.canonicalize(start, self.stack.len());
            self.stack.truncate(end);
            self.stats.and_nodes += 1;
            self.stats.exact_leaves += 1;
            total += self.space.prob(var, value) * self.step(start, end, depth + 1);
            self.stack.truncate(start);
        }
        total.min(1.0)
    }

    /// Product of the marginals of `clause`'s atoms on `mask`, in ascending
    /// variable order.
    fn atoms_probability(&self, clause: &Entry, mask: VarMask) -> f64 {
        bits(mask).fold(1.0, |p, k| p * self.space.prob(self.vars.ids[k], clause.vals[k]))
    }

    /// Sorts `lo..hi` into canonical order and drops duplicates; returns the
    /// new end.
    fn canonicalize(&mut self, lo: usize, hi: usize) -> usize {
        let s = &mut self.stack[lo..hi];
        s.sort_unstable_by(canonical_cmp);
        let mut kept = usize::from(!s.is_empty());
        for j in 1..s.len() {
            if !same(&s[j], &s[kept - 1]) {
                s[kept] = s[j];
                kept += 1;
            }
        }
        lo + kept
    }

    /// Drops the clauses of `lo..hi` that strictly contain another one,
    /// keeping the order; returns the new end.
    fn remove_subsumed(&mut self, lo: usize, hi: usize) -> usize {
        let s = &mut self.stack[lo..hi];
        let (narrowest, widest) = s.iter().fold((u32::MAX, 0), |(lo, hi), e| {
            (lo.min(e.mask.count_ones()), hi.max(e.mask.count_ones()))
        });
        if narrowest >= widest {
            // Uniform width: distinct clauses cannot subsume one another.
            return hi;
        }
        for j in 0..s.len() {
            let big = s[j];
            let subsumed = s.iter().any(|small| {
                small.mask != big.mask
                    && small.mask & !big.mask == 0
                    && agree(small, &big, small.mask)
            });
            s[j].rank = u8::from(subsumed);
        }
        let mut kept = 0;
        for j in 0..s.len() {
            if s[j].rank == 0 {
                s[kept] = s[j];
                kept += 1;
            }
        }
        self.stats.subsumed_clauses += s.len() - kept;
        lo + kept
    }

    /// The ⊗ split of `lo..hi`: `None` for a connected range, otherwise the
    /// probability folded over the components in the order
    /// [`events::connected_components_by`] gives them — by union-find root,
    /// each component's clauses in range order.
    fn independent_or(&mut self, lo: usize, hi: usize, depth: usize) -> Option<f64> {
        let s = &mut self.stack[lo..hi];
        for (i, e) in s.iter_mut().enumerate() {
            e.link = i as u32;
            e.rank = 0;
        }
        let mut first = [u32::MAX; EXACT_LEAF_VARS];
        for i in 0..s.len() {
            for k in bits(s[i].mask) {
                if first[k] == u32::MAX {
                    first[k] = i as u32;
                } else {
                    union(s, i as u32, first[k]);
                }
            }
        }
        // Every clause binds a variable and components share none, so there
        // are at most as many roots as variables. After one `find` each, a
        // clause's link is its root.
        let mut roots = [0u32; EXACT_LEAF_VARS];
        let mut count = 0;
        for i in 0..s.len() {
            let r = find(s, i as u32);
            if !roots[..count].contains(&r) {
                roots[count] = r;
                count += 1;
            }
        }
        if count <= 1 {
            return None;
        }
        roots[..count].sort_unstable();
        self.stats.or_nodes += 1;
        let base = self.stack.len();
        let mut ends = [0; EXACT_LEAF_VARS];
        for (c, &root) in roots[..count].iter().enumerate() {
            for i in lo..hi {
                if self.stack[i].link == root {
                    let e = self.stack[i];
                    self.stack.push(e);
                }
            }
            ends[c] = self.stack.len();
        }
        let mut prod = 1.0;
        let mut start = base;
        for &end in &ends[..count] {
            prod *= 1.0 - self.step(start, end, depth + 1);
            start = end;
        }
        self.stack.truncate(base);
        Some(1.0 - prod)
    }

    /// The atoms every clause of `lo..hi` shares, as the mask of their
    /// variables (values are the first clause's).
    fn common_atoms(&self, lo: usize, hi: usize) -> VarMask {
        let first = &self.stack[lo];
        let mut common = first.mask;
        for e in &self.stack[lo + 1..hi] {
            common &= e.mask;
            for k in bits(common) {
                if e.vals[k] != first.vals[k] {
                    common &= !(1 << k);
                }
            }
        }
        common
    }

    /// Pushes the distinct projections of `lo..hi` onto `mask` in canonical
    /// order; returns their end.
    fn push_projections(&mut self, lo: usize, hi: usize, mask: VarMask) -> usize {
        let start = self.stack.len();
        for i in lo..hi {
            let mut e = self.stack[i];
            e.mask &= mask;
            self.stack.push(e);
        }
        let end = self.canonicalize(start, self.stack.len());
        self.stack.truncate(end);
        end
    }

    fn count_projections(&mut self, lo: usize, hi: usize, mask: VarMask) -> usize {
        let start = self.stack.len();
        let end = self.push_projections(lo, hi, mask);
        self.stack.truncate(start);
        end - start
    }

    /// [`product_factorization_by`] on `lo..hi`: the same factors in the same
    /// order, each folded as it is pushed; `None` when it does not factorize.
    fn product_factorization(&mut self, lo: usize, hi: usize, depth: usize) -> Option<f64> {
        let all = self.stack[lo..hi].iter().fold(0, |m, e| m | e.mask);
        if all & self.unlabelled != 0 {
            return None;
        }
        // The origin groups present, ascending, as variable masks.
        let mut groups = [0; EXACT_LEAF_VARS];
        let mut num_groups = 0;
        for &vars in &self.group_vars {
            if vars & all != 0 {
                groups[num_groups] = vars & all;
                num_groups += 1;
            }
        }
        if num_groups < 2 {
            return None;
        }
        // Groups g and h share a factor when the clauses' projections onto
        // {g, h} are fewer than the product of their projections onto each —
        // merged by union by rank over the group indices, like the
        // `UnionFind` of `product_factorization_by`.
        let mut distinct = [0; EXACT_LEAF_VARS];
        for g in 0..num_groups {
            distinct[g] = self.count_projections(lo, hi, groups[g]);
        }
        let mut parent: [usize; EXACT_LEAF_VARS] = std::array::from_fn(|g| g);
        let mut rank = [0u8; EXACT_LEAF_VARS];
        let root = |parent: &[usize; EXACT_LEAF_VARS], mut g: usize| {
            while parent[g] != g {
                g = parent[g];
            }
            g
        };
        for g in 0..num_groups {
            for h in g + 1..num_groups {
                if self.count_projections(lo, hi, groups[g] | groups[h])
                    == distinct[g] * distinct[h]
                {
                    continue;
                }
                let (rg, rh) = (root(&parent, g), root(&parent, h));
                if rg == rh {
                    continue;
                }
                match rank[rg].cmp(&rank[rh]) {
                    std::cmp::Ordering::Less => parent[rg] = rh,
                    std::cmp::Ordering::Greater => parent[rh] = rg,
                    std::cmp::Ordering::Equal => {
                        parent[rh] = rg;
                        rank[rg] += 1;
                    }
                }
            }
        }
        // Factors in ascending root order.
        let mut by_root = [0; EXACT_LEAF_VARS];
        for g in 0..num_groups {
            by_root[root(&parent, g)] |= groups[g];
        }
        let mut factors = [0; EXACT_LEAF_VARS];
        let mut num_factors = 0;
        for &vars in by_root.iter().filter(|&&vars| vars != 0) {
            factors[num_factors] = vars;
            num_factors += 1;
        }
        if num_factors < 2 {
            return None;
        }
        // Each factor's distinct projections; the clauses must be exactly
        // their product, and no clause may miss a factor.
        let base = self.stack.len();
        let mut ends = [0; EXACT_LEAF_VARS];
        let mut product_size: usize = 1;
        for f in 0..num_factors {
            let start = self.stack.len();
            ends[f] = self.push_projections(lo, hi, factors[f]);
            if self.stack[start..ends[f]].iter().any(|e| e.mask == 0) {
                self.stack.truncate(base);
                return None;
            }
            product_size = product_size.saturating_mul(ends[f] - start);
        }
        if product_size != hi - lo {
            self.stack.truncate(base);
            return None;
        }
        self.stats.and_nodes += 1;
        let mut prod = 1.0;
        let mut start = base;
        for &end in &ends[..num_factors] {
            prod *= self.step(start, end, depth + 1);
            start = end;
        }
        self.stack.truncate(base);
        Some(prod)
    }

    /// [`choose_variable`] on `lo..hi`, as a local id.
    fn choose_variable(&self, lo: usize, hi: usize) -> usize {
        let clauses = &self.stack[lo..hi];
        let all = clauses.iter().fold(0, |m, e| m | e.mask);
        match &self.opts.var_order {
            VarOrder::MostFrequent => most_frequent(clauses),
            VarOrder::Fixed(order) => order
                .iter()
                .find_map(|&var| self.vars.local(var).filter(|&k| all & (1 << k) != 0))
                .unwrap_or_else(|| most_frequent(clauses)),
            VarOrder::IqThenFrequent if self.opts.origins.is_some() => {
                self.iq_variable(clauses, all).unwrap_or_else(|| most_frequent(clauses))
            }
            VarOrder::IqThenFrequent => most_frequent(clauses),
        }
    }

    /// The IQ choice of Lemma 6.8 (see [`crate::choose_iq_variable`]): the
    /// first variable whose clauses cover every variable outside its own
    /// origin group; the most frequent one when a single group occurs.
    fn iq_variable(&self, clauses: &[Entry], all: VarMask) -> Option<usize> {
        if all & self.unlabelled != 0 {
            return None;
        }
        let home = |k: usize| self.group_vars[self.group[k] as usize] & all;
        if home(all.trailing_zeros() as usize) == all {
            return Some(most_frequent(clauses));
        }
        bits(all).find(|&k| {
            let outside = all & !home(k);
            let covered =
                clauses.iter().filter(|e| e.mask & (1 << k) != 0).fold(0, |m, e| m | e.mask);
            covered & outside == outside
        })
    }
}

/// The local variable occurring in the most clauses, the smallest among
/// ties — [`DnfView::most_frequent_var`]'s choice.
fn most_frequent(clauses: &[Entry]) -> usize {
    let mut counts = [0usize; EXACT_LEAF_VARS];
    for e in clauses {
        for k in bits(e.mask) {
            counts[k] += 1;
        }
    }
    let mut best = 0;
    for k in 1..EXACT_LEAF_VARS {
        if counts[k] > counts[best] {
            best = k;
        }
    }
    best
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
