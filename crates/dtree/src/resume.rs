//! Suspend/resume for anytime approximation: persistent d-tree frontiers
//! with priority-driven bound tightening.
//!
//! The depth-first compiler of [`crate::approx`] is *anytime*: truncate it
//! with a step or wall-clock budget and it returns sound `[L, U]` bounds.
//! But a truncated run used to throw its partial d-tree away, so buying the
//! interval one more millisecond of tightening meant recompiling from
//! scratch. This module keeps the frontier alive instead, following the
//! blueprint of the anytime-approximation literature: capture the partial
//! d-tree the truncated run materialised, order its open leaves by their
//! contribution to the global bound width, and let
//! [`ResumableCompilation::resume`] continue the expansion — no re-interning,
//! no re-exploration of settled subtrees.
//!
//! # Priorities
//!
//! Every open leaf carries a *width-contribution factor*: the derivative of
//! the root interval with respect to the leaf interval, accumulated top-down
//! through the combine rules of Proposition 5.4 (for an ⊗ child the sibling
//! product `Π (1 − Lⱼ)`, for an ⊙ child `Π Uⱼ`, for an ⊕ child `1`). The
//! priority of a leaf is `factor × width` — an estimate of how much root
//! width disappears if the leaf is resolved exactly. Factors are computed
//! when a leaf enters the frontier and are not refreshed as siblings tighten;
//! they order the work, they never affect soundness, and keeping them frozen
//! keeps the expansion order deterministic. Ties are broken by insertion
//! order, so a resumed run is a pure function of (frontier, budget).
//!
//! # Monotonicity
//!
//! Each refinement replaces a leaf's interval by the intersection of its old
//! interval with the freshly computed one, and re-combined ancestor intervals
//! are likewise intersected with their previous values. Both the old and the
//! new interval are sound, so their intersection is; consequently the root
//! interval of a resumed compilation *never widens* — each slice returns
//! bounds at least as tight as the last, regardless of how the total budget
//! is sliced.
//!
//! # Cache invalidation
//!
//! A handle is pinned to the probability-space generation and watermark it
//! was captured under, exactly like [`crate::SubformulaCache`] entries. If
//! the space's generation moved (an in-place mutation), every cached leaf
//! bound in the frontier is potentially stale, and the handle **fails
//! closed**: `resume` returns vacuous `[0, 1]` non-converged bounds and the
//! handle is poisoned permanently. Append-only growth (same generation,
//! higher watermark) is safe and the handle keeps working.

use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

use events::{Atom, Clause, Dnf, LineageArena, ProbabilitySpace, VarId};

use crate::approx::{ApproxOptions, ApproxResult, CapturedNode, ErrorBound};
use crate::bounds::Bounds;
use crate::cache::{Memo, SubformulaCache};
use crate::compile::CompileOptions;
use crate::exact::LeafVars;
use crate::partial::{PNode, PartialDTree, PartialNodeId};
use crate::stats::CompileStats;

/// Budget for one [`ResumableCompilation::resume`] slice. Both limits may be
/// combined; an exhausted (or zero) budget makes `resume` return promptly
/// with the current bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResumeBudget {
    /// Maximum number of refinement steps for this slice (`None` =
    /// unlimited).
    pub max_steps: Option<usize>,
    /// Wall-clock limit for this slice (`None` = unlimited).
    pub timeout: Option<Duration>,
}

impl ResumeBudget {
    /// No limits: resume until convergence (or a complete tree).
    pub fn unlimited() -> Self {
        ResumeBudget::default()
    }

    /// A pure step budget.
    pub fn steps(max_steps: usize) -> Self {
        ResumeBudget { max_steps: Some(max_steps), timeout: None }
    }

    /// A pure wall-clock budget.
    pub fn timeout(timeout: Duration) -> Self {
        ResumeBudget { max_steps: None, timeout: Some(timeout) }
    }

    fn exhausted(&self, steps: usize, start: Instant) -> bool {
        if let Some(max) = self.max_steps {
            if steps >= max {
                return true;
            }
        }
        if let Some(timeout) = self.timeout {
            if start.elapsed() >= timeout {
                return true;
            }
        }
        false
    }
}

/// Pre-fetched observability handles for resume slices. Handles are resolved
/// once in [`ResumableCompilation::attach_obs`] so the hot slice path never
/// touches the registry's name map; the default (no handles) records nowhere.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResumeObs {
    obs: obs::Obs,
    slices: obs::Counter,
    steps: obs::Counter,
    poisoned: obs::Counter,
    slice_seconds: obs::Histogram,
    width: obs::Histogram,
    exact_hits: obs::Counter,
    bound_hits: obs::Counter,
    exact_evals: obs::Counter,
}

impl ResumeObs {
    fn new(o: &obs::Obs) -> ResumeObs {
        ResumeObs {
            obs: o.clone(),
            slices: o.counter("dtree.resume.slices"),
            steps: o.counter("dtree.resume.steps"),
            poisoned: o.counter("dtree.resume.poisoned"),
            slice_seconds: o.histogram("dtree.resume.slice_seconds"),
            width: o.histogram("dtree.resume.width"),
            exact_hits: o.counter("dtree.cache.exact_hits"),
            bound_hits: o.counter("dtree.cache.bound_hits"),
            exact_evals: o.counter("dtree.cache.exact_evals"),
        }
    }
}

/// One frontier entry: an open leaf keyed by its width-contribution priority.
/// Entries are invalidated lazily — a popped entry whose `stamp` no longer
/// matches the leaf's current stamp is skipped.
#[derive(Debug, Clone)]
struct FrontierEntry {
    priority: f64,
    seq: u64,
    node: usize,
    stamp: u64,
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for FrontierEntry {}

impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on priority; ties pop in insertion order (smaller seq
        // first) so the expansion order is fully deterministic.
        self.priority.total_cmp(&other.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A suspended approximate compilation: the partial d-tree frontier of a
/// budget-truncated [`crate::ApproxCompiler`] run, resumable in further
/// budgeted slices that monotonically tighten the bounds.
///
/// Obtained from [`crate::ApproxCompiler::run_resumable`]: truncated runs
/// hand back an open frontier to keep refining, converged runs a settled
/// frontier whose only further use is absorbing appended lineage clauses via
/// [`ResumableCompilation::apply_delta`]. See the module documentation in
/// `resume.rs` for the refinement order, the monotonicity guarantee, and the
/// fail-closed behaviour under probability-space invalidation.
#[derive(Debug, Clone)]
pub struct ResumableCompilation {
    tree: PartialDTree,
    error: ErrorBound,
    compile: CompileOptions,
    heap: BinaryHeap<FrontierEntry>,
    /// Current (clamped) bounds per node — the monotone refinement state.
    cur: Vec<Bounds>,
    parent: Vec<Option<usize>>,
    /// Width-contribution factor per node, frozen at frontier entry.
    factor: Vec<f64>,
    /// Lazy-invalidation stamps; bumped when a leaf leaves the frontier.
    stamp: Vec<u64>,
    seq: u64,
    open_leaves: usize,
    total_steps: usize,
    total_elapsed: Duration,
    generation: u64,
    watermark: u64,
    poisoned: bool,
    /// `(cumulative_steps, root interval width)` samples: one at capture, one
    /// after every resume slice and every applied delta — the
    /// width-vs-budget curve clients use to see when refinement stops paying.
    curve: Vec<(usize, f64)>,
    deltas_applied: usize,
    dirty_rebuilds: usize,
    /// Per ⊗ node, the child that owns each variable — the index ⊗ routing
    /// reads, so an appended clause costs O(|clause|) lookups per ⊗ level
    /// instead of a scan over every component. A node's map is built from
    /// its children's subtree variables on the first clause routed through
    /// it, then extended with the variables of every clause routed into a
    /// child or grown as a new one. It is dropped when the node is dirty
    /// rebuilt: the node becomes a leaf whose id a later refinement may turn
    /// into a new inner node with new children. Refinement can drop
    /// variables from a subtree (subsumption), and a clause subsumed at a ⊙
    /// node leaves its extra variables behind, so a map may list more
    /// variables than the subtree still mentions; see the ⊗ rule in
    /// [`ResumableCompilation::route_or`] for why that is harmless.
    or_owners: HashMap<usize, HashMap<VarId, usize>>,
    /// Write-only observability handles; never read back, so attached
    /// metrics cannot perturb results (see [`ResumableCompilation::attach_obs`]).
    obs: ResumeObs,
}

/// Reconstructs the [`PartialDTree`] a truncated DFS run materialised from
/// its captured node stack, moving the run's arena into the tree.
pub(crate) fn tree_from_capture(
    mut arena: LineageArena,
    root: CapturedNode,
    stats: CompileStats,
) -> PartialDTree {
    let mut nodes = Vec::new();
    let root_id = build_nodes(&mut arena, &mut nodes, root);
    PartialDTree::from_raw(arena, nodes, root_id, stats)
}

fn build_nodes(
    arena: &mut LineageArena,
    nodes: &mut Vec<PNode>,
    cap: CapturedNode,
) -> PartialNodeId {
    match cap {
        CapturedNode::Leaf { view, bounds, exact } => {
            let id = PartialNodeId(nodes.len());
            nodes.push(PNode::Leaf { view, bounds, exact });
            id
        }
        CapturedNode::Atom { atom, p } => {
            let view = arena.intern_sorted_clauses(&[Clause::singleton(atom)]);
            let id = PartialNodeId(nodes.len());
            nodes.push(PNode::Leaf { view, bounds: Bounds::point(p), exact: true });
            id
        }
        CapturedNode::Inner { op, children } => {
            let kids: Vec<PartialNodeId> =
                children.into_iter().map(|c| build_nodes(arena, nodes, c)).collect();
            let id = PartialNodeId(nodes.len());
            nodes.push(PNode::Inner { op, children: kids });
            id
        }
    }
}

/// Intersects two sound intervals. When floating-point rounding makes them
/// (barely) disjoint the result collapses deterministically to the crossing
/// point via [`Bounds::new`]'s reordering.
fn intersect(a: Bounds, b: Bounds) -> Bounds {
    Bounds::new(a.lower.max(b.lower), a.upper.min(b.upper))
}

impl ResumableCompilation {
    /// Builds a handle around a partial d-tree whose truncated run produced
    /// `result`: computes per-node bounds bottom-up (bit-identical to the
    /// run's output), width-contribution factors top-down, and seeds the
    /// frontier queue with every open leaf.
    pub(crate) fn from_tree(
        tree: PartialDTree,
        opts: &ApproxOptions,
        result: &ApproxResult,
        space: &ProbabilitySpace,
    ) -> Self {
        let n = tree.num_nodes();
        let mut handle = ResumableCompilation {
            tree,
            error: opts.error,
            compile: opts.compile.clone(),
            heap: BinaryHeap::new(),
            cur: vec![Bounds::vacuous(); n],
            parent: vec![None; n],
            factor: vec![0.0; n],
            stamp: vec![0; n],
            seq: 0,
            open_leaves: 0,
            total_steps: result.steps,
            total_elapsed: result.elapsed,
            generation: space.generation(),
            watermark: space.watermark(),
            poisoned: false,
            curve: Vec::new(),
            deltas_applied: 0,
            dirty_rebuilds: 0,
            or_owners: HashMap::new(),
            obs: ResumeObs::default(),
        };
        let root = handle.root_index();
        handle.fill_subtree(root);
        handle.assign_factors(root, 1.0);
        debug_assert_eq!(
            handle.cur[root].lower.to_bits(),
            result.lower.to_bits(),
            "reconstructed frontier bounds must match the truncated run"
        );
        debug_assert_eq!(handle.cur[root].upper.to_bits(), result.upper.to_bits());
        handle.curve.push((handle.total_steps, handle.cur[root].width()));
        handle
    }

    fn root_index(&self) -> usize {
        self.tree.root_id().0
    }

    /// Current bounds of the suspended compilation (vacuous if the handle
    /// failed closed).
    pub fn bounds(&self) -> Bounds {
        if self.poisoned {
            Bounds::vacuous()
        } else {
            self.cur[self.root_index()]
        }
    }

    /// Remaining interval width `U − L` — the quantity further resumption
    /// spends budget to shrink. Schedulers use this to prioritise handles.
    pub fn width(&self) -> f64 {
        self.bounds().width()
    }

    /// `true` when the bounds already satisfy the requested error guarantee.
    pub fn is_converged(&self) -> bool {
        !self.poisoned && self.error.satisfied_by(self.bounds())
    }

    /// `true` when the handle failed closed because the probability space it
    /// was captured under was invalidated (generation moved, or the space
    /// regressed behind the captured watermark). A poisoned handle stays
    /// poisoned; recompute from scratch against the new space.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of open leaves currently on the frontier.
    pub fn frontier_len(&self) -> usize {
        self.open_leaves
    }

    /// Total refinement steps across the initial run and every resumed slice.
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }

    /// Total wall-clock time across the initial run and every resumed slice.
    pub fn total_elapsed(&self) -> Duration {
        self.total_elapsed
    }

    /// Cumulative compilation statistics of the underlying partial d-tree.
    pub fn stats(&self) -> &CompileStats {
        self.tree.stats()
    }

    /// The probability-space generation this handle is pinned to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `true` when the handle is still valid against `space`: not poisoned,
    /// same generation, and the space has not regressed behind the captured
    /// watermark. This is the *same* predicate `resume`/`apply_delta` fail
    /// closed on; maintenance layers use it to detect a stale handle up
    /// front and recompile instead of burning a slice on a poisoned resume.
    pub fn is_current(&self, space: &ProbabilitySpace) -> bool {
        !self.poisoned
            && space.generation() == self.generation
            && space.watermark() >= self.watermark
    }

    /// The point estimate the handle's error bound derives from the current
    /// bounds (interval midpoint for absolute/relative guarantees).
    pub fn estimate(&self) -> f64 {
        self.error.estimate_from(self.bounds())
    }

    /// The width-vs-budget curve: `(cumulative_steps, interval_width)`
    /// samples recorded at capture, after every resume slice, and after
    /// every applied delta. Monotone non-increasing in width between deltas;
    /// a delta can widen the interval again (the formula grew).
    pub fn width_curve(&self) -> &[(usize, f64)] {
        &self.curve
    }

    /// Number of clauses applied through
    /// [`ResumableCompilation::apply_delta`] over the handle's lifetime.
    pub fn deltas_applied(&self) -> usize {
        self.deltas_applied
    }

    /// Number of delta routings that fell back to rebuilding a dirty subtree
    /// (the appended clause broke the subtree's decomposition).
    pub fn dirty_rebuilds(&self) -> usize {
        self.dirty_rebuilds
    }

    /// Attaches observability: every subsequent slice records step counts,
    /// cache-probe outcomes, slice latency, and the root interval width into
    /// `o`'s registry, plus one `dtree.slice` trace event — the anytime
    /// width-tightening trajectory as an exportable series. The handles are
    /// write-only; attaching them never changes any result bit.
    pub fn attach_obs(&mut self, o: &obs::Obs) {
        self.obs = ResumeObs::new(o);
    }

    /// Continues the suspended compilation for one budgeted slice, returning
    /// the (monotonically tightened) bounds reached when the budget ran out —
    /// or converged bounds if the error guarantee was met first. The returned
    /// [`ApproxResult`] carries slice-local `steps`/`stats`/`elapsed`;
    /// cumulative totals live on the handle
    /// ([`ResumableCompilation::total_steps`],
    /// [`ResumableCompilation::total_elapsed`]).
    ///
    /// With a `cache`, the shared [`SubformulaCache`] is layered behind the
    /// slice's memo, so leaf bounds and small-leaf exact folds are reused
    /// across slices and lineages. Bit-identical to the uncached path.
    pub fn resume(
        &mut self,
        space: &ProbabilitySpace,
        budget: ResumeBudget,
        cache: Option<&SubformulaCache>,
    ) -> ApproxResult {
        let start = Instant::now();
        if self.poisoned
            || space.generation() != self.generation
            || space.watermark() < self.watermark
        {
            // Fail closed: the frontier's cached bounds may be stale.
            self.poisoned = true;
            self.obs.poisoned.inc();
            let elapsed = start.elapsed();
            self.total_elapsed += elapsed;
            let vacuous = Bounds::vacuous();
            return ApproxResult {
                lower: vacuous.lower,
                upper: vacuous.upper,
                estimate: self.error.estimate_from(vacuous),
                converged: false,
                steps: 0,
                stats: CompileStats::default(),
                elapsed,
            };
        }
        // Append-only growth is safe; advance so later regressions are
        // detected relative to the newest space seen.
        self.watermark = space.watermark();
        let stats_before = *self.tree.stats();
        let mut memo = Memo::with_shared(cache, self.generation, self.watermark);
        let mut slice_steps = 0usize;
        loop {
            let root_bounds = self.cur[self.root_index()];
            if self.error.satisfied_by(root_bounds) {
                break;
            }
            if budget.exhausted(slice_steps, start) {
                break;
            }
            let Some(entry) = self.heap.pop() else {
                // Complete tree (or only zero-width open leaves left): the
                // bounds are as tight as this frontier can make them.
                break;
            };
            if entry.stamp != self.stamp[entry.node] {
                continue; // invalidated entry, not a refinement step
            }
            self.refine_frontier(entry.node, space, &mut memo);
            slice_steps += 1;
        }
        self.total_steps += slice_steps;
        let elapsed = start.elapsed();
        self.total_elapsed += elapsed;
        let bounds = self.cur[self.root_index()];
        self.curve.push((self.total_steps, bounds.width()));
        let slice_stats = self.tree.stats().since(&stats_before);
        let converged = self.error.satisfied_by(bounds);
        self.obs.slices.inc();
        self.obs.steps.add(slice_steps as u64);
        self.obs.slice_seconds.record_duration(elapsed);
        self.obs.width.record(bounds.width());
        self.obs.exact_hits.add(slice_stats.exact_cache_hits as u64);
        self.obs.bound_hits.add(slice_stats.bound_cache_hits as u64);
        self.obs.exact_evals.add(slice_stats.exact_evaluations as u64);
        self.obs
            .obs
            .event("dtree.slice")
            .u64("steps", slice_steps as u64)
            .u64("total_steps", self.total_steps as u64)
            .f64("width", bounds.width())
            .bool("converged", converged)
            .emit();
        ApproxResult {
            lower: bounds.lower,
            upper: bounds.upper,
            estimate: self.error.estimate_from(bounds),
            converged,
            steps: slice_steps,
            stats: slice_stats,
            elapsed,
        }
    }

    /// Refines one frontier leaf: exact-folds small leaves (mirroring the
    /// DFS fast path), otherwise applies one Figure-1 decomposition step,
    /// then clamps the node's interval against its previous value and
    /// re-propagates (with clamping) along the path to the root.
    fn refine_frontier(&mut self, node: usize, space: &ProbabilitySpace, memo: &mut Memo<'_>) {
        let old = self.cur[node];
        let f = self.factor[node];
        self.stamp[node] += 1;
        self.open_leaves = self.open_leaves.saturating_sub(1);

        let id = PartialNodeId(node);
        let view = match self.tree.node(id) {
            PNode::Leaf { view, .. } => view.clone(),
            PNode::Inner { .. } => return, // stale bookkeeping; nothing to do
        };

        if let Some(vars) = LeafVars::of(self.tree.lineage(), &view) {
            // Small leaf: fold its complete sub-d-tree, memoized exactly like
            // the depth-first compiler's `memo_exact`.
            let key = view.hash(self.tree.lineage());
            let p = if let Some(p) = memo.get_exact(key) {
                self.tree.stats_mut().exact_cache_hits += 1;
                p
            } else {
                let r = vars.fold(self.tree.lineage(), &view, space, &self.compile);
                let required = view.required_watermark(self.tree.lineage());
                let stats = self.tree.stats_mut();
                stats.exact_evaluations += 1;
                stats.or_nodes += r.stats.or_nodes;
                stats.and_nodes += r.stats.and_nodes;
                stats.xor_nodes += r.stats.xor_nodes;
                memo.put_exact(key, required, r.probability);
                r.probability
            };
            self.tree.stats_mut().exact_leaves += 1;
            self.tree.set_leaf_exact(id, p);
            self.cur[node] = intersect(Bounds::point(p), old);
        } else {
            let before = self.tree.num_nodes();
            self.tree.refine_with_memo(id, space, &self.compile, memo);
            let n = self.tree.num_nodes();
            self.parent.resize(n, None);
            self.cur.resize(n, Bounds::vacuous());
            self.factor.resize(n, 0.0);
            self.stamp.resize(n, 0);
            debug_assert!(n >= before);
            // The node is now either an exact leaf (rewritten in place) or an
            // inner node over freshly pushed children; (re)initialise the new
            // subtree's bounds bottom-up and its factors top-down, seeding
            // the frontier with the new open leaves.
            self.fill_subtree(node);
            self.assign_factors(node, f);
            self.cur[node] = intersect(self.cur[node], old);
        }
        self.propagate_up(node);
    }

    /// Sets parent links and computes `cur` bounds bottom-up for the subtree
    /// rooted at `id` (used for the initial capture and for subtrees created
    /// by a refinement step).
    fn fill_subtree(&mut self, id: usize) {
        match self.tree.node(PartialNodeId(id)) {
            PNode::Leaf { bounds, .. } => {
                self.cur[id] = *bounds;
            }
            PNode::Inner { children, .. } => {
                // Filling a subtree never reshapes the tree, so the child
                // count and each `children[j]` stay put across the recursion.
                for j in 0..children.len() {
                    let k = self.tree.children(PartialNodeId(id))[j].0;
                    self.parent[k] = Some(id);
                    self.fill_subtree(k);
                }
                self.cur[id] = self.combine(id);
            }
        }
    }

    /// Assigns width-contribution factors top-down from `f` at `id` and
    /// pushes every open leaf of the subtree onto the frontier queue.
    fn assign_factors(&mut self, id: usize, f: f64) {
        match self.tree.node(PartialNodeId(id)) {
            PNode::Leaf { exact, .. } => {
                let exact = *exact;
                let width = self.cur[id].width();
                if !exact && width > 0.0 {
                    self.factor[id] = f;
                    self.open_leaves += 1;
                    self.seq += 1;
                    self.heap.push(FrontierEntry {
                        priority: f * width,
                        seq: self.seq,
                        node: id,
                        stamp: self.stamp[id],
                    });
                }
            }
            PNode::Inner { op, children } => {
                let child_factors = self.child_factors(*op, children, f);
                self.factor[id] = f;
                for (j, fk) in child_factors.into_iter().enumerate() {
                    let k = self.tree.children(PartialNodeId(id))[j].0;
                    self.assign_factors(k, fk);
                }
            }
        }
    }

    /// The factor each child inherits through an inner node: the partial
    /// derivative of the node's combine rule with respect to that child,
    /// evaluated at the siblings' current bounds (lower bounds for ⊗ — the
    /// sensitivity of `1 − Π(1 − pⱼ)` — and upper bounds for ⊙).
    fn child_factors(&self, op: crate::bounds::Op, kids: &[PartialNodeId], f: f64) -> Vec<f64> {
        use crate::bounds::Op;
        match op {
            Op::Xor => vec![f; kids.len()],
            Op::Or | Op::And => {
                let terms: Vec<f64> = kids.iter().map(|&k| self.factor_term(op, k)).collect();
                // Product of all terms except each index, via prefix/suffix
                // products (⊗ nodes can be very wide).
                let n = terms.len();
                let mut prefix = vec![1.0; n + 1];
                for i in 0..n {
                    prefix[i + 1] = prefix[i] * terms[i];
                }
                let mut suffix = vec![1.0; n + 1];
                for i in (0..n).rev() {
                    suffix[i] = suffix[i + 1] * terms[i];
                }
                (0..n).map(|i| f * prefix[i] * suffix[i + 1]).collect()
            }
        }
    }

    /// Entry `idx` of [`ResumableCompilation::child_factors`] without its
    /// vectors: the same prefix and suffix products, folded in the same
    /// order, so the bits agree.
    fn child_factor(
        &self,
        op: crate::bounds::Op,
        kids: &[PartialNodeId],
        idx: usize,
        f: f64,
    ) -> f64 {
        use crate::bounds::Op;
        match op {
            Op::Xor => f,
            Op::Or | Op::And => {
                let term = |acc: f64, &k: &PartialNodeId| acc * self.factor_term(op, k);
                let prefix = kids[..idx].iter().fold(1.0, term);
                let suffix = kids[idx + 1..].iter().rev().fold(1.0, term);
                f * prefix * suffix
            }
        }
    }

    /// Child `k`'s term in the sibling products of
    /// [`ResumableCompilation::child_factors`]: `1 − lower` under ⊗, `upper`
    /// under ⊙.
    fn factor_term(&self, op: crate::bounds::Op, k: PartialNodeId) -> f64 {
        use crate::bounds::Op;
        match op {
            Op::Or => 1.0 - self.cur[k.0].lower,
            Op::And => self.cur[k.0].upper,
            Op::Xor => unreachable!("⊕ children inherit the parent's factor"),
        }
    }

    /// Inner node `id`'s interval, combined from its children's current
    /// ones.
    fn combine(&self, id: usize) -> Bounds {
        match self.tree.node(PartialNodeId(id)) {
            PNode::Inner { op, children } => op.combine(children.iter().map(|k| self.cur[k.0])),
            PNode::Leaf { .. } => unreachable!("parents are inner nodes"),
        }
    }

    /// Recombines every ancestor of `node`, intersecting each with its
    /// previous interval so the root bounds are monotone non-widening even
    /// under floating-point rounding.
    fn propagate_up(&mut self, mut node: usize) {
        while let Some(p) = self.parent[node] {
            self.cur[p] = intersect(self.combine(p), self.cur[p]);
            node = p;
        }
    }

    /// Applies an **append-only lineage delta** to the suspended compilation:
    /// every appended clause is routed down the existing d-tree to the
    /// smallest subtree whose decomposition can absorb it, loosening only the
    /// touched leaf chain's bounds instead of discarding the tree.
    ///
    /// Routing rules (the delta-maintenance counterpart of Figure 1):
    ///
    /// * **⊗ (independent-or)** — the clause joins the unique component it
    ///   shares variables with; a clause over entirely fresh variables grows
    ///   a new component child; a clause bridging two components breaks the
    ///   partition and falls back to a dirty rebuild of the ⊗ subtree.
    /// * **⊙ (independent-and)** — factored-out atoms the clause also binds
    ///   are stripped and the remainder is routed into the residual child
    ///   (`a ∧ R ∨ c = a ∧ (R ∨ c∖a)` when `a ∈ c`); a clause that does not
    ///   cover the factored atoms falls back to a dirty rebuild.
    /// * **⊕ (Shannon on `v`)** — a clause binding `v = u` is routed (with
    ///   the `v`-atom stripped) into branch `u`'s cofactor, growing the
    ///   branch if `Φ|v=u` used to be empty; a `v`-free clause is pushed into
    ///   *every* branch's cofactor (`(Φ ∨ c)|v=u = Φ|v=u ∨ c`), including
    ///   branches grown for previously-empty domain values.
    /// * **Leaf** — the clause is appended to the leaf's view and the leaf's
    ///   bounds are recomputed from scratch; if it re-opens it re-enters the
    ///   frontier.
    ///
    /// Because the appended clause can *raise* the true probability,
    /// intervals along the touched chain are **replaced**, never intersected
    /// with their pre-delta values; untouched subtrees keep their bounds and
    /// frontier entries. The dirty-rebuild fallback collapses a subtree into
    /// one open leaf over its reconstructed formula plus the clause.
    ///
    /// The same fail-closed rule as [`ResumableCompilation::resume`] applies:
    /// a generation move or watermark regression poisons the handle and the
    /// call returns `false` (the caller must recompile from scratch). Returns
    /// `true` when the delta was applied.
    pub fn apply_delta(&mut self, space: &ProbabilitySpace, clauses: &[Clause]) -> bool {
        if self.poisoned
            || space.generation() != self.generation
            || space.watermark() < self.watermark
        {
            self.poisoned = true;
            return false;
        }
        self.watermark = space.watermark();
        for clause in clauses {
            if !clause.is_consistent() {
                continue;
            }
            let root = self.root_index();
            self.route_clause(root, clause, space);
            self.deltas_applied += 1;
        }
        self.curve.push((self.total_steps, self.width()));
        true
    }

    /// Routes one appended clause down the subtree at `node`; see
    /// [`ResumableCompilation::apply_delta`] for the rules.
    fn route_clause(&mut self, node: usize, clause: &Clause, space: &ProbabilitySpace) {
        use crate::bounds::Op;
        let op = match self.tree.node(PartialNodeId(node)) {
            PNode::Leaf { .. } => {
                self.touch_leaf(node, clause, space);
                return;
            }
            PNode::Inner { op, .. } => *op,
        };
        match op {
            // ⊗ routing reads the node's owner map, not its children.
            Op::Or => self.route_or(node, clause, space),
            Op::And => {
                // Factored-out atoms (exact singleton-atom leaves) the clause
                // also binds can be stripped; the remainder routes into the
                // single residual child.
                let mut strip: Vec<VarId> = Vec::new();
                let (mut residual, mut rest) = (None, 0);
                for &k in self.tree.children(PartialNodeId(node)) {
                    match self.tree.leaf_single_atom(k) {
                        Some(a) if clause.value_of(a.var) == Some(a.value) => strip.push(a.var),
                        _ => {
                            residual.get_or_insert(k.0);
                            rest += 1;
                        }
                    }
                }
                match residual {
                    // The clause binds every factor atom and possibly more:
                    // it is subsumed by the ⊙ node's formula — a no-op.
                    None => {}
                    Some(k) if rest == 1 => {
                        let stripped = clause.project_out(&|v: VarId| strip.contains(&v));
                        self.route_clause(k, &stripped, space);
                    }
                    Some(_) => self.dirty_rebuild(node, clause, space),
                }
            }
            Op::Xor => {
                let Some(var) = self.shannon_var(node) else {
                    self.dirty_rebuild(node, clause, space);
                    return;
                };
                match clause.value_of(var) {
                    Some(value) => {
                        let rest = clause
                            .restrict(var, value)
                            .expect("a consistent clause never conflicts with its own binding");
                        match self.find_branch(node, var, value) {
                            BranchLookup::Found(cof) => self.route_clause(cof, &rest, space),
                            BranchLookup::Missing => {
                                self.grow_xor_branch(node, var, value, &rest, space)
                            }
                            BranchLookup::Malformed => self.dirty_rebuild(node, clause, space),
                        }
                    }
                    None => {
                        // `(Φ ∨ c)|v=u = Φ|v=u ∨ c` for every domain value:
                        // push the clause into every branch's cofactor,
                        // growing branches for previously-empty cofactors.
                        for value in 0..space.domain_size(var) {
                            // Re-scan the children: earlier iterations may
                            // have grown branches.
                            if let PNode::Leaf { .. } = self.tree.node(PartialNodeId(node)) {
                                return; // dirty-rebuilt
                            }
                            match self.find_branch(node, var, value) {
                                BranchLookup::Found(cof) => {
                                    self.route_clause(cof, clause, space);
                                }
                                BranchLookup::Missing => {
                                    self.grow_xor_branch(node, var, value, clause, space);
                                }
                                BranchLookup::Malformed => {
                                    self.dirty_rebuild(node, clause, space);
                                    return;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The ⊗ rule: the clause joins the one component owning any of its
    /// variables, grows a new component when no component owns one (fresh
    /// variables, or a constant clause), and dirty-rebuilds the node when
    /// it bridges two components.
    ///
    /// Owner maps only ever gain variables, so a map can hold a variable its
    /// component no longer mentions. Such a stale owner can only force a
    /// conservative dirty rebuild or route a genuinely fresh clause into one
    /// component; it never routes a clause around a component it shares a
    /// variable with, so the independence the ⊗ bounds rely on holds.
    fn route_or(&mut self, node: usize, clause: &Clause, space: &ProbabilitySpace) {
        let tree = &self.tree;
        let owners = self.or_owners.entry(node).or_insert_with(|| {
            let mut owners = HashMap::new();
            if let PNode::Inner { children, .. } = tree.node(PartialNodeId(node)) {
                for &k in children {
                    tree.for_each_subtree_var(k, &mut |v| {
                        let previous = owners.insert(v, k.0);
                        debug_assert!(
                            previous.is_none_or(|p| p == k.0),
                            "⊗ components share {v:?}"
                        );
                    });
                }
            }
            owners
        });
        let mut hit = None;
        for v in clause.vars() {
            if let Some(&k) = owners.get(&v) {
                if hit.is_some_and(|h| h != k) {
                    // The clause bridges components: the partition is broken.
                    self.dirty_rebuild(node, clause, space);
                    return;
                }
                hit = Some(k);
            }
        }
        let child = match hit {
            Some(k) => k,
            None => self.grow_or_child(node, clause, space),
        };
        let owners = self.or_owners.get_mut(&node).expect("built above");
        owners.extend(clause.vars().map(|v| (v, child)));
        if hit.is_some() {
            self.route_clause(child, clause, space);
        }
    }

    /// The Shannon variable of an ⊕ node, read off the first branch's atom
    /// leaf (`None` if the branch structure is not the expected
    /// `⊙(atom, cofactor)` — the caller falls back to a dirty rebuild).
    fn shannon_var(&self, xor: usize) -> Option<VarId> {
        let &first = self.tree.children(PartialNodeId(xor)).first()?;
        match self.tree.node(first) {
            PNode::Inner { op: crate::bounds::Op::And, children } => {
                self.tree.leaf_single_atom(*children.first()?).map(|a| a.var)
            }
            _ => None,
        }
    }

    /// Locates the branch of ⊕ node `xor` binding `var = value`, returning
    /// its cofactor child.
    fn find_branch(&self, xor: usize, var: VarId, value: u32) -> BranchLookup {
        for &b in self.tree.children(PartialNodeId(xor)) {
            let PNode::Inner { op: crate::bounds::Op::And, children } = self.tree.node(b) else {
                return BranchLookup::Malformed;
            };
            if children.len() != 2 {
                return BranchLookup::Malformed;
            }
            let Some(atom) = self.tree.leaf_single_atom(children[0]) else {
                return BranchLookup::Malformed;
            };
            if atom.var != var {
                return BranchLookup::Malformed;
            }
            if atom.value == value {
                return BranchLookup::Found(children[1].0);
            }
        }
        BranchLookup::Missing
    }

    /// Grows a fresh independent component under an ⊗ node for a clause over
    /// entirely new variables; returns the new child.
    fn grow_or_child(&mut self, or: usize, clause: &Clause, space: &ProbabilitySpace) -> usize {
        let child = self.tree.push_dnf_leaf(&Dnf::singleton(clause.clone()), space);
        self.attach_new_subtree(or, child.0);
        child.0
    }

    /// Grows an ⊕ branch `⊙(v=value, {rest})` for a domain value whose
    /// cofactor used to be empty.
    fn grow_xor_branch(
        &mut self,
        xor: usize,
        var: VarId,
        value: u32,
        rest: &Clause,
        space: &ProbabilitySpace,
    ) {
        let atom_leaf =
            self.tree.push_exact_atom_leaf(Atom::new(var, value), space.prob(var, value));
        let cof = self.tree.push_dnf_leaf(&Dnf::singleton(rest.clone()), space);
        let branch = self.tree.push_inner(crate::bounds::Op::And, vec![atom_leaf, cof]);
        self.attach_new_subtree(xor, branch.0);
    }

    /// Attaches a freshly built subtree as a new child of `parent`: links it,
    /// fills its bounds, seeds its open leaves into the frontier, and
    /// refreshes the chain to the root.
    fn attach_new_subtree(&mut self, parent: usize, child: usize) {
        self.tree.add_child(PartialNodeId(parent), PartialNodeId(child));
        self.sync_len();
        self.parent[child] = Some(parent);
        self.fill_subtree(child);
        let f = self.factor_from_parent(child);
        self.assign_factors(child, f);
        self.refresh_up(child);
    }

    /// Appends one clause to a leaf's view, recomputing the leaf bounds from
    /// scratch and re-entering the frontier if the leaf re-opened.
    fn touch_leaf(&mut self, node: usize, clause: &Clause, space: &ProbabilitySpace) {
        self.retire_subtree(node);
        self.tree.append_to_leaf(PartialNodeId(node), std::slice::from_ref(clause), space);
        self.reopen_leaf(node);
    }

    /// The dirty-subtree fallback: the clause broke the decomposition at
    /// `node`, so the subtree collapses into one open leaf over its
    /// reconstructed formula plus the clause. Orphaned descendants stay in
    /// the node vector (bounded by total refinement work) but leave the
    /// frontier.
    fn dirty_rebuild(&mut self, node: usize, clause: &Clause, space: &ProbabilitySpace) {
        self.retire_subtree(node);
        let mut formula = self.tree.node_formula(PartialNodeId(node));
        formula.push(clause.clone());
        let dnf = Dnf::from_clauses(formula);
        self.tree.replace_with_leaf(PartialNodeId(node), &dnf, space);
        self.or_owners.remove(&node);
        self.dirty_rebuilds += 1;
        self.reopen_leaf(node);
    }

    /// Removes every open leaf of the subtree at `node` from the frontier
    /// (stamp bump kills the heap entries lazily).
    fn retire_subtree(&mut self, node: usize) {
        match self.tree.node(PartialNodeId(node)) {
            PNode::Leaf { exact, .. } => {
                // Matches the frontier-entry condition of `assign_factors`:
                // a non-exact leaf with positive width has a live entry.
                if !*exact && self.cur[node].width() > 0.0 {
                    self.stamp[node] += 1;
                    self.open_leaves = self.open_leaves.saturating_sub(1);
                }
            }
            PNode::Inner { children, .. } => {
                // Retiring only bumps stamps: the tree keeps its shape.
                for j in 0..children.len() {
                    let k = self.tree.children(PartialNodeId(node))[j].0;
                    self.retire_subtree(k);
                }
            }
        }
    }

    /// Publishes a (re)built leaf at `node`: replaces its interval, re-enters
    /// the frontier if it is open, and refreshes the chain to the root.
    fn reopen_leaf(&mut self, node: usize) {
        let (bounds, exact) = match self.tree.node(PartialNodeId(node)) {
            PNode::Leaf { bounds, exact, .. } => (*bounds, *exact),
            PNode::Inner { .. } => unreachable!("reopen target is a leaf"),
        };
        // REPLACE, never intersect: the formula grew, so the pre-delta
        // interval no longer bounds it.
        self.cur[node] = bounds;
        if !exact && bounds.width() > 0.0 {
            let f = self.factor_from_parent(node);
            self.factor[node] = f;
            self.open_leaves += 1;
            self.seq += 1;
            self.heap.push(FrontierEntry {
                priority: f * bounds.width(),
                seq: self.seq,
                node,
                stamp: self.stamp[node],
            });
        }
        self.refresh_up(node);
    }

    /// The width-contribution factor `node` inherits from its parent's
    /// combine rule at the siblings' current bounds (1.0 at the root).
    fn factor_from_parent(&self, node: usize) -> f64 {
        match self.parent[node] {
            None => 1.0,
            Some(p) => match self.tree.node(PartialNodeId(p)) {
                PNode::Inner { op, children } => {
                    let idx =
                        children.iter().position(|k| k.0 == node).expect("child of its parent");
                    self.child_factor(*op, children, idx, self.factor[p])
                }
                PNode::Leaf { .. } => unreachable!("parents are inner nodes"),
            },
        }
    }

    /// Grows the per-node vectors to the tree's current node count.
    fn sync_len(&mut self) {
        let n = self.tree.num_nodes();
        self.parent.resize(n, None);
        self.cur.resize(n, Bounds::vacuous());
        self.factor.resize(n, 0.0);
        self.stamp.resize(n, 0);
    }

    /// Recombines every ancestor of `node` **replacing** the stored interval
    /// — unlike [`ResumableCompilation::propagate_up`], which intersects.
    /// After a delta the touched chain's old intervals bound a smaller
    /// formula and must not be intersected in; untouched siblings keep their
    /// accumulated (still sound) intervals.
    fn refresh_up(&mut self, mut node: usize) {
        while let Some(p) = self.parent[node] {
            self.cur[p] = self.combine(p);
            node = p;
        }
    }
}

/// Result of locating an ⊕ branch for a domain value.
enum BranchLookup {
    /// Branch exists; carries the cofactor child's node index.
    Found(usize),
    /// No branch for this value (its cofactor used to be empty).
    Missing,
    /// The node does not have the expected Shannon branch structure.
    Malformed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{ApproxCompiler, ApproxOptions};
    use events::{Dnf, VarId};

    fn bool_space(ps: &[f64]) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = ps.iter().enumerate().map(|(i, &p)| s.add_bool(format!("x{i}"), p)).collect();
        (s, vars)
    }

    /// A chain DNF over enough variables that truncated budgets leave real
    /// work behind.
    fn hard_chain(n: usize) -> (ProbabilitySpace, Dnf) {
        let probs: Vec<f64> = (0..n).map(|i| 0.15 + 0.03 * (i as f64 % 22.0)).collect();
        let (s, vars) = bool_space(&probs);
        let phi = Dnf::from_clauses(
            (0..n - 1).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        (s, phi)
    }

    #[test]
    fn converged_run_returns_converged_handle_and_matches_plain_run() {
        let (s, phi) = hard_chain(20);
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(0.01));
        let plain = compiler.run(&phi, &s);
        let (resumable, mut handle) = compiler.run_resumable(&phi, &s, None);
        assert!(plain.converged && resumable.converged);
        assert_eq!(plain.estimate.to_bits(), resumable.estimate.to_bits());
        assert_eq!(plain.lower.to_bits(), resumable.lower.to_bits());
        assert_eq!(plain.upper.to_bits(), resumable.upper.to_bits());
        assert_eq!(plain.steps, resumable.steps);
        assert_eq!(plain.stats, resumable.stats);
        // The settled frontier is returned so later deltas can be absorbed
        // in place; resuming it is a no-op with identical bounds.
        assert!(handle.is_converged());
        assert_eq!(handle.bounds().lower.to_bits(), plain.lower.to_bits());
        assert_eq!(handle.bounds().upper.to_bits(), plain.upper.to_bits());
        let r = handle.resume(&s, ResumeBudget::unlimited(), None);
        assert!(r.converged && r.steps == 0);
        assert_eq!(r.lower.to_bits(), plain.lower.to_bits());
    }

    #[test]
    fn truncated_run_is_bit_identical_to_plain_truncated_run() {
        let (s, phi) = hard_chain(40);
        for max_steps in [0, 1, 2, 5, 10] {
            let compiler =
                ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(max_steps));
            let plain = compiler.run(&phi, &s);
            let (resumable, handle) = compiler.run_resumable(&phi, &s, None);
            assert_eq!(plain.lower.to_bits(), resumable.lower.to_bits(), "steps {max_steps}");
            assert_eq!(plain.upper.to_bits(), resumable.upper.to_bits());
            assert_eq!(plain.steps, resumable.steps);
            assert_eq!(plain.stats, resumable.stats);
            assert_eq!(plain.converged, resumable.converged);
            if !resumable.converged {
                assert_eq!(handle.bounds().lower.to_bits(), resumable.lower.to_bits());
                assert_eq!(handle.bounds().upper.to_bits(), resumable.upper.to_bits());
                assert!(handle.frontier_len() > 0);
            }
        }
    }

    #[test]
    fn resume_tightens_monotonically_to_convergence() {
        let (s, phi) = hard_chain(40);
        let exact = {
            let r = crate::exact::exact_probability(&phi, &s, &CompileOptions::default());
            r.probability
        };
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-6).with_max_steps(3));
        let (first, mut handle) = compiler.run_resumable(&phi, &s, None);
        assert!(!first.converged);
        let mut prev = handle.bounds();
        assert!(prev.contains(exact));
        let mut slices = 0;
        while !handle.is_converged() {
            let r = handle.resume(&s, ResumeBudget::steps(4), None);
            let b = r.bounds();
            assert!(b.lower >= prev.lower - 1e-15, "lower regressed: {prev:?} -> {b:?}");
            assert!(b.upper <= prev.upper + 1e-15, "upper regressed: {prev:?} -> {b:?}");
            assert!(b.contains(exact), "lost the exact probability {exact}: {b:?}");
            prev = b;
            slices += 1;
            assert!(slices < 10_000, "resume did not converge");
            if r.steps == 0 && !r.converged {
                break; // complete tree without convergence (shouldn't happen)
            }
        }
        assert!(handle.is_converged());
        assert!((handle.bounds().midpoint() - exact).abs() <= 1e-6 + 1e-9);
        assert!(handle.total_steps() >= first.steps);
    }

    #[test]
    fn split_resume_is_bit_identical_to_one_shot_resume() {
        let (s, phi) = hard_chain(36);
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(4));
        let (_, mut one) = compiler.run_resumable(&phi, &s, None);
        let (_, mut split) = compiler.run_resumable(&phi, &s, None);
        let total = 30;
        let r_one = one.resume(&s, ResumeBudget::steps(total), None);
        let mut done = 0;
        let mut r_split = None;
        for chunk in [7, 3, 11, 9] {
            r_split = Some(split.resume(&s, ResumeBudget::steps(chunk), None));
            done += chunk;
        }
        assert_eq!(done, total);
        let r_split = r_split.unwrap();
        assert_eq!(r_one.lower.to_bits(), r_split.lower.to_bits());
        assert_eq!(r_one.upper.to_bits(), r_split.upper.to_bits());
        assert_eq!(r_one.estimate.to_bits(), r_split.estimate.to_bits());
        assert_eq!(one.total_steps(), split.total_steps());
        // Cumulative structural stats agree; only the private-memo hit/miss
        // split may differ (each slice starts a fresh per-slice memo), so
        // compare the cache-insensitive totals.
        let (a, b) = (one.stats(), split.stats());
        assert_eq!(a.inner_nodes(), b.inner_nodes());
        assert_eq!(a.exact_leaves, b.exact_leaves);
        assert_eq!(a.closed_leaves, b.closed_leaves);
        assert_eq!(a.subsumed_clauses, b.subsumed_clauses);
        assert_eq!(
            a.bound_evaluations + a.bound_cache_hits,
            b.bound_evaluations + b.bound_cache_hits
        );
        assert_eq!(
            a.exact_evaluations + a.exact_cache_hits,
            b.exact_evaluations + b.exact_cache_hits
        );
    }

    #[test]
    fn resume_with_cache_is_bit_identical_to_uncached() {
        let (s, phi) = hard_chain(36);
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(4));
        let (_, mut plain) = compiler.run_resumable(&phi, &s, None);
        let cache = SubformulaCache::new();
        let (_, mut cached) = compiler.run_resumable(&phi, &s, Some(&cache));
        for _ in 0..5 {
            let a = plain.resume(&s, ResumeBudget::steps(6), None);
            let b = cached.resume(&s, ResumeBudget::steps(6), Some(&cache));
            assert_eq!(a.lower.to_bits(), b.lower.to_bits());
            assert_eq!(a.upper.to_bits(), b.upper.to_bits());
            assert_eq!(a.steps, b.steps);
        }
    }

    #[test]
    fn zero_budget_resume_returns_promptly_with_current_bounds() {
        let (s, phi) = hard_chain(40);
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(2));
        let (first, mut handle) = compiler.run_resumable(&phi, &s, None);
        let r = handle.resume(&s, ResumeBudget::steps(0), None);
        assert_eq!(r.steps, 0);
        assert!(!r.converged);
        assert_eq!(r.lower.to_bits(), first.lower.to_bits());
        assert_eq!(r.upper.to_bits(), first.upper.to_bits());
        let r = handle.resume(&s, ResumeBudget::timeout(Duration::ZERO), None);
        assert_eq!(r.steps, 0);
        assert_eq!(r.lower.to_bits(), first.lower.to_bits());
    }

    #[test]
    fn generation_move_fails_closed() {
        let (mut s, phi) = hard_chain(30);
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(2));
        let (_, mut handle) = compiler.run_resumable(&phi, &s, None);
        // An in-place invalidation bumps the generation: the handle must not
        // serve bounds computed under the retired space state.
        s.invalidate();
        let r = handle.resume(&s, ResumeBudget::unlimited(), None);
        assert!(!r.converged);
        assert_eq!(r.lower, 0.0);
        assert_eq!(r.upper, 1.0);
        assert_eq!(r.steps, 0);
        assert!(handle.is_poisoned());
        assert_eq!(handle.bounds(), Bounds::vacuous());
        // Poisoning is permanent, even against a space that matches again.
        let r2 = handle.resume(&s, ResumeBudget::unlimited(), None);
        assert!(!r2.converged);
        assert_eq!((r2.lower, r2.upper), (0.0, 1.0));
    }

    #[test]
    fn appends_do_not_poison_the_handle() {
        let (mut s, phi) = hard_chain(30);
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-6).with_max_steps(2));
        let (_, mut handle) = compiler.run_resumable(&phi, &s, None);
        // Append-only growth keeps the generation; the handle keeps working.
        let _ = s.add_bool("appended", 0.5);
        let r = handle.resume(&s, ResumeBudget::unlimited(), None);
        assert!(r.converged, "resume after append should still converge");
        assert!(!handle.is_poisoned());
    }

    #[test]
    fn apply_delta_matches_recompiled_formula() {
        let (mut s, phi) = hard_chain(30);
        let first = *phi.vars().iter().next().expect("chain has variables");
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(5));
        let (_, mut handle) = compiler.run_resumable(&phi, &s, None);
        // One clause extends an existing component, one is an independent
        // island over entirely fresh variables.
        let fresh = s.add_bool("fresh-0", 0.35);
        let shared = Clause::from_bools(&[first, fresh]);
        let island_a = s.add_bool("fresh-a", 0.25);
        let island_b = s.add_bool("fresh-b", 0.45);
        let island = Clause::from_bools(&[island_a, island_b]);
        assert!(handle.apply_delta(&s, &[shared.clone(), island.clone()]));
        assert!(!handle.is_poisoned());
        assert_eq!(handle.deltas_applied(), 2);
        let grown = phi.or(&Dnf::from_clauses(vec![shared, island]));
        let exact =
            crate::exact::exact_probability(&grown, &s, &CompileOptions::default()).probability;
        assert!(handle.bounds().contains(exact), "post-delta bounds lost {exact}");
        let r = handle.resume(&s, ResumeBudget::unlimited(), None);
        assert!(r.converged);
        assert!((r.estimate - exact).abs() <= 1e-9 + 1e-9, "{} vs {exact}", r.estimate);
    }

    #[test]
    fn interleaved_deltas_and_slices_stay_sound() {
        let (mut s, phi) = hard_chain(24);
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(3));
        let (_, mut handle) = compiler.run_resumable(&phi, &s, None);
        let mut current = phi.clone();
        for i in 0..4usize {
            let vars: Vec<VarId> = current.vars().into_iter().collect();
            let anchor = vars[(i * 5) % vars.len()];
            let fresh = s.add_bool(format!("delta-{i}"), 0.2 + 0.1 * i as f64);
            let clause = Clause::from_bools(&[anchor, fresh]);
            assert!(handle.apply_delta(&s, std::slice::from_ref(&clause)));
            current = current.or(&Dnf::singleton(clause));
            let exact = crate::exact::exact_probability(&current, &s, &CompileOptions::default())
                .probability;
            assert!(
                handle.bounds().contains(exact),
                "bounds {:?} lost exact {exact} after delta {i}",
                handle.bounds()
            );
            let r = handle.resume(&s, ResumeBudget::steps(3), None);
            assert!(r.bounds().contains(exact), "bounds lost exact after slice {i}");
        }
        let r = handle.resume(&s, ResumeBudget::unlimited(), None);
        assert!(r.converged);
        let exact =
            crate::exact::exact_probability(&current, &s, &CompileOptions::default()).probability;
        assert!((r.estimate - exact).abs() <= 1e-9 + 1e-9);
    }

    #[test]
    fn apply_delta_fails_closed_on_generation_move() {
        let (mut s, phi) = hard_chain(24);
        let first = *phi.vars().iter().next().expect("chain has variables");
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(3));
        let (_, mut handle) = compiler.run_resumable(&phi, &s, None);
        s.invalidate();
        assert!(!handle.apply_delta(&s, &[Clause::from_bools(&[first])]));
        assert!(handle.is_poisoned());
        assert_eq!(handle.bounds(), Bounds::vacuous());
        let r = handle.resume(&s, ResumeBudget::unlimited(), None);
        assert!(!r.converged);
        assert_eq!((r.lower, r.upper), (0.0, 1.0));
    }

    /// Five independent islands `x₃ₖx₃ₖ₊₁ ∨ x₃ₖ₊₁x₃ₖ₊₂`: 15 variables are
    /// too many to fold exactly at the root, and the shared middle variable
    /// keeps the root's bucket bounds loose, so the run splits it into an ⊗
    /// node over five exactly folded islands. Variable `i` has probability
    /// `p(i) = 0.1 + 0.05·i`.
    fn or_of_islands() -> (ProbabilitySpace, Vec<VarId>, ResumableCompilation) {
        let (s, x) = bool_space(&(0..15).map(p).collect::<Vec<_>>());
        let phi = Dnf::from_clauses(
            (0..5)
                .flat_map(|k| [&x[3 * k..3 * k + 2], &x[3 * k + 1..3 * k + 3]])
                .map(Clause::from_bools)
                .collect::<Vec<_>>(),
        );
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-12));
        let (first, handle) = compiler.run_resumable(&phi, &s, None);
        assert!(first.converged);
        assert_eq!(or_children(&handle), Some(5), "the root is an ⊗ over the islands");
        (s, x, handle)
    }

    fn p(i: usize) -> f64 {
        0.1 + 0.05 * i as f64
    }

    /// Probability of island `k`: `x₃ₖ₊₁ (x₃ₖ ∨ x₃ₖ₊₂)`.
    fn island(k: usize) -> f64 {
        p(3 * k + 1) * any(&[p(3 * k), p(3 * k + 2)])
    }

    /// The number of children when the root is an ⊗ node.
    fn or_children(handle: &ResumableCompilation) -> Option<usize> {
        match handle.tree.node(handle.tree.root_id()) {
            PNode::Inner { op: crate::bounds::Op::Or, children } => Some(children.len()),
            _ => None,
        }
    }

    /// `1 − Π (1 − pₖ)`: the probability that any of independent events
    /// holds.
    fn any(ps: &[f64]) -> f64 {
        1.0 - ps.iter().map(|q| 1.0 - q).product::<f64>()
    }

    /// Resumes to completion and checks the point the bounds close on.
    fn converges_to(handle: &mut ResumableCompilation, s: &ProbabilitySpace, want: f64) {
        assert!(handle.bounds().contains(want), "{:?} misses {want}", handle.bounds());
        let r = handle.resume(s, ResumeBudget::unlimited(), None);
        assert!(r.converged);
        assert!(
            (r.lower - want).abs() < 1e-12 && (r.upper - want).abs() < 1e-12,
            "{r:?} vs {want}"
        );
    }

    #[test]
    fn or_routing_grows_a_component_for_fresh_variables() {
        let (mut s, _, mut handle) = or_of_islands();
        let f = s.add_bool("f", 0.6);
        let g = s.add_bool("g", 0.7);
        assert!(handle.apply_delta(&s, &[Clause::from_bools(&[f, g])]));
        assert_eq!(or_children(&handle), Some(6), "a sixth component");
        assert_eq!((handle.dirty_rebuilds(), handle.deltas_applied()), (0, 1));
        let mut ps: Vec<f64> = (0..5).map(island).collect();
        ps.push(0.6 * 0.7);
        converges_to(&mut handle, &s, any(&ps));

        // The grown component now owns `f`: a clause over `f` and a fresh
        // variable joins it instead of growing a seventh.
        let h = s.add_bool("h", 0.2);
        assert!(handle.apply_delta(&s, &[Clause::from_bools(&[f, h])]));
        assert_eq!(or_children(&handle), Some(6));
        assert_eq!((handle.dirty_rebuilds(), handle.deltas_applied()), (0, 2));
        ps[5] = 0.6 * any(&[0.7, 0.2]);
        converges_to(&mut handle, &s, any(&ps));
    }

    #[test]
    fn or_routing_sends_a_one_component_clause_into_that_component() {
        let (mut s, x, mut handle) = or_of_islands();
        let w = s.add_bool("w", 0.5);
        assert!(handle.apply_delta(&s, &[Clause::from_bools(&[x[4], w])]));
        assert_eq!(or_children(&handle), Some(5), "no component grown or merged");
        assert_eq!((handle.dirty_rebuilds(), handle.deltas_applied()), (0, 1));
        // Island 1 becomes x₃x₄ ∨ x₄x₅ ∨ x₄w = x₄ (x₃ ∨ x₅ ∨ w).
        let mut ps: Vec<f64> = (0..5).map(island).collect();
        ps[1] = p(4) * any(&[p(3), p(5), 0.5]);
        converges_to(&mut handle, &s, any(&ps));
    }

    #[test]
    fn or_routing_rebuilds_on_a_bridge_and_routes_through_the_re_refined_node() {
        let (mut s, x, mut handle) = or_of_islands();
        // x₀ ∧ x₃ bridges islands 0 and 1: the root collapses into one leaf.
        assert!(handle.apply_delta(&s, &[Clause::from_bools(&[x[0], x[3]])]));
        assert_eq!(or_children(&handle), None, "the root is a leaf again");
        assert_eq!((handle.dirty_rebuilds(), handle.deltas_applied()), (1, 1));
        // Conditioning on x₀ and x₃, the merged island is true, x₁ ∨ x₄x₅,
        // x₄ ∨ x₁x₂, or x₁x₂ ∨ x₄x₅.
        let (x0, x3) = (p(0), p(3));
        let merged = x0 * x3
            + x0 * (1.0 - x3) * any(&[p(1), p(4) * p(5)])
            + (1.0 - x0) * x3 * any(&[p(4), p(1) * p(2)])
            + (1.0 - x0) * (1.0 - x3) * any(&[p(1) * p(2), p(4) * p(5)]);
        let mut ps = vec![merged, island(2), island(3), island(4)];
        converges_to(&mut handle, &s, any(&ps));
        assert_eq!(or_children(&handle), Some(4), "re-refined into a new ⊗ node");

        // The same node id is an ⊗ node again, over new children: a clause
        // on island 3 must reach island 3's new leaf.
        let v = s.add_bool("v", 0.4);
        assert!(handle.apply_delta(&s, &[Clause::from_bools(&[x[9], v])]));
        assert_eq!(or_children(&handle), Some(4));
        assert_eq!((handle.dirty_rebuilds(), handle.deltas_applied()), (1, 2));
        // Island 3 becomes x₉x₁₀ ∨ x₁₀x₁₁ ∨ x₉v: x₁₀ ∨ v when x₉ holds,
        // x₁₀x₁₁ otherwise.
        ps[2] = p(9) * any(&[p(10), 0.4]) + (1.0 - p(9)) * p(10) * p(11);
        converges_to(&mut handle, &s, any(&ps));
    }

    #[test]
    fn width_curve_records_capture_slices_and_deltas() {
        let (mut s, phi) = hard_chain(30);
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(3));
        let (_, mut handle) = compiler.run_resumable(&phi, &s, None);
        assert_eq!(handle.width_curve().len(), 1, "capture records the first sample");
        let w0 = handle.width_curve()[0].1;
        assert!(w0 > 0.0);
        handle.resume(&s, ResumeBudget::steps(4), None);
        assert_eq!(handle.width_curve().len(), 2);
        assert!(handle.width_curve()[1].1 <= w0, "resume slices never widen");
        let fresh = s.add_bool("curve-delta", 0.5);
        assert!(handle.apply_delta(&s, &[Clause::from_bools(&[fresh])]));
        assert_eq!(handle.width_curve().len(), 3);
        assert!(
            handle.width_curve().windows(2).all(|w| w[0].0 <= w[1].0),
            "cumulative steps are monotone"
        );
        let r = handle.resume(&s, ResumeBudget::unlimited(), None);
        assert!(r.converged);
        let last = *handle.width_curve().last().expect("non-empty curve");
        assert_eq!(last.0, handle.total_steps());
    }
}
