//! Deterministic ε-approximation of DNF probability by incremental d-tree
//! compilation (Section V of the paper).
//!
//! [`ApproxCompiler`] implements the memory-efficient algorithm of Section
//! V-D: depth-first compilation that keeps only the current root-to-leaf
//! path, closes leaves whose worst-case contribution can no longer violate
//! the error bound (Lemma 5.11 / Theorem 5.12), and stops as soon as the
//! global bounds satisfy the sufficient condition of Proposition 5.8. The
//! width-ordered refinement of a materialised partial d-tree — the simpler
//! algorithm also sketched in Section V-D — is what a budget-truncated run
//! continues with through [`ApproxCompiler::run_resumable`] and
//! [`crate::ResumableCompilation::resume`].
//!
//! The compiler runs on [`DnfView`]s over a [`LineageArena`]: the input
//! lineage is interned once, and every decomposition step — Shannon
//! cofactors, component splits, subsumption removal, common-atom factoring —
//! is index manipulation over the pooled clauses, with the memo keyed by the
//! views' incremental fingerprints. The results are bit-identical to the
//! pre-arena owned-`Dnf` compiler (preserved as
//! [`crate::reference::approx_reference`] for differential testing and as the
//! `decomposition` bench baseline).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use events::ProbabilitySpace;
use events::{product_factorization_by, Atom, Dnf, DnfView, LineageArena};

use crate::bounds::{dnf_bounds_view, Bounds, BoundsFold, Op};
use crate::cache::{Memo, SubformulaCache};
use crate::compile::CompileOptions;
use crate::order::choose_variable;
use crate::resume::ResumableCompilation;
use crate::stats::CompileStats;

/// Leaf DNFs with at most this many distinct variables are evaluated exactly
/// (their complete sub-d-tree is folded on the fly) instead of being bounded
/// with the bucket heuristic and decomposed one step at a time. Small exact
/// leaves produce point bounds, which both tightens the global interval and
/// preserves the ε "slack" of Theorem 5.12 for the genuinely large leaves.
/// Shared with [`crate::resume`], whose refinement driver folds the same
/// class of leaves the same way so resumed slices converge like the DFS.
pub(crate) const EXACT_LEAF_VARS: usize = 12;

/// The approximation guarantee requested from the algorithm
/// (Definition 5.7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute (additive) error: the returned estimate `p̂` satisfies
    /// `p − ε ≤ p̂ ≤ p + ε`.
    Absolute(f64),
    /// Relative (multiplicative) error: the returned estimate `p̂` satisfies
    /// `(1 − ε)·p ≤ p̂ ≤ (1 + ε)·p`.
    Relative(f64),
}

impl ErrorBound {
    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        match self {
            ErrorBound::Absolute(e) | ErrorBound::Relative(e) => *e,
        }
    }

    /// The sufficient condition of Proposition 5.8: given d-tree bounds
    /// `[L, U]`, an ε-approximation can be read off iff
    /// * absolute: `U − L ≤ 2ε`,
    /// * relative: `(1 − ε)·U ≤ (1 + ε)·L`.
    pub fn satisfied_by(&self, bounds: Bounds) -> bool {
        match self {
            ErrorBound::Absolute(e) => bounds.upper - bounds.lower <= 2.0 * e + 1e-15,
            ErrorBound::Relative(e) => (1.0 - e) * bounds.upper <= (1.0 + e) * bounds.lower + 1e-15,
        }
    }

    /// An estimate guaranteed to be an ε-approximation whenever
    /// [`ErrorBound::satisfied_by`] holds for `bounds` (Proposition 5.8):
    /// * absolute: any value in `[U − ε, L + ε]` — we return the midpoint of
    ///   `[L, U]`, which always lies in that interval when it is non-empty;
    /// * relative: the midpoint of `[(1 − ε)·U, (1 + ε)·L]`.
    ///
    /// When the condition does not hold the bounds midpoint is returned as a
    /// best-effort estimate (with `converged = false` in [`ApproxResult`]).
    pub fn estimate_from(&self, bounds: Bounds) -> f64 {
        match self {
            ErrorBound::Absolute(_) => bounds.midpoint(),
            ErrorBound::Relative(e) => {
                if self.satisfied_by(bounds) {
                    0.5 * ((1.0 - e) * bounds.upper + (1.0 + e) * bounds.lower)
                } else {
                    bounds.midpoint()
                }
            }
        }
    }
}

/// Options for the approximation algorithm.
#[derive(Debug, Clone)]
pub struct ApproxOptions {
    /// The requested error guarantee.
    pub error: ErrorBound,
    /// Compilation options (variable order, origins, …).
    pub compile: CompileOptions,
    /// Maximum number of decomposition steps (`None` = unlimited). When the
    /// budget is exhausted remaining leaves are closed with their current
    /// bounds and the result may not be converged — this implements the
    /// "given time budget" usage mentioned in the paper's introduction.
    pub max_steps: Option<usize>,
    /// Wall-clock timeout (`None` = unlimited).
    pub timeout: Option<Duration>,
}

impl ApproxOptions {
    /// Absolute ε-approximation with default compilation options and no
    /// budget.
    pub fn absolute(epsilon: f64) -> Self {
        ApproxOptions {
            error: ErrorBound::Absolute(epsilon),
            compile: CompileOptions::default(),
            max_steps: None,
            timeout: None,
        }
    }

    /// Relative ε-approximation with default compilation options and no
    /// budget.
    pub fn relative(epsilon: f64) -> Self {
        ApproxOptions {
            error: ErrorBound::Relative(epsilon),
            compile: CompileOptions::default(),
            max_steps: None,
            timeout: None,
        }
    }

    /// Sets the compilation options (variable order / origins).
    pub fn with_compile(mut self, compile: CompileOptions) -> Self {
        self.compile = compile;
        self
    }

    /// Sets the decomposition-step budget.
    pub fn with_max_steps(mut self, steps: usize) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Sets the wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Result of an approximate confidence computation.
#[derive(Debug, Clone, Copy)]
pub struct ApproxResult {
    /// Final lower bound on the probability.
    pub lower: f64,
    /// Final upper bound on the probability.
    pub upper: f64,
    /// The reported estimate (guaranteed to be an ε-approximation when
    /// `converged` is `true`).
    pub estimate: f64,
    /// `true` when the sufficient condition of Proposition 5.8 was met.
    pub converged: bool,
    /// Number of decomposition steps performed.
    pub steps: usize,
    /// Statistics about the traversed d-tree fragments.
    pub stats: CompileStats,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl ApproxResult {
    /// The final bounds as a [`Bounds`] value.
    pub fn bounds(&self) -> Bounds {
        Bounds::new(self.lower, self.upper)
    }
}

/// The incremental ε-approximation compiler.
#[derive(Debug, Clone)]
pub struct ApproxCompiler {
    opts: ApproxOptions,
}

impl ApproxCompiler {
    /// Creates a compiler with the given options.
    pub fn new(opts: ApproxOptions) -> Self {
        ApproxCompiler { opts }
    }

    /// Runs the approximation on `dnf` over `space`: interns `dnf` into a
    /// fresh arena and runs [`ApproxCompiler::run_view`] without a shared
    /// cache.
    pub fn run(&self, dnf: &Dnf, space: &ProbabilitySpace) -> ApproxResult {
        let (mut arena, root) = LineageArena::from_dnf(dnf);
        self.run_view(&mut arena, &root, space, None)
    }

    /// Runs the approximation on an already-interned view — the zero-copy
    /// entry point for callers that hold an arena (the batch engine interns
    /// each lineage once and evaluates everything against it).
    ///
    /// With a `cache`, the shared [`SubformulaCache`] is layered behind the
    /// per-run memo, so exact leaf probabilities and bucket bounds are reused
    /// across the lineages of a batch. Cache entries are tagged with
    /// `space.generation()` and the variable-count watermark their formula
    /// requires — they survive append-only growth of the space and are
    /// retired by genuine in-place changes, so one long-lived cache can be
    /// shared across batches and database inserts. Reusing cached values is
    /// bit-identical to recomputing them — the producers are deterministic —
    /// so the result does not depend on whether a cache is passed.
    pub fn run_view(
        &self,
        arena: &mut LineageArena,
        view: &DnfView,
        space: &ProbabilitySpace,
        cache: Option<&SubformulaCache>,
    ) -> ApproxResult {
        self.run_dfs(arena, view.clone(), space, cache, false).0
    }

    /// Like [`ApproxCompiler::run`] (with an optional shared cache, as in
    /// [`ApproxCompiler::run_view`]), but the second return value carries a
    /// [`ResumableCompilation`] handle holding the d-tree frontier the run
    /// materialised. For a budget-truncated run, calling
    /// [`ResumableCompilation::resume`] continues tightening the bounds from
    /// exactly where this run stopped — no re-interning, no re-exploration of
    /// settled subtrees. A *converged* run returns a converged handle:
    /// nothing is left to refine, but the settled frontier is exactly what
    /// lets a later [`ResumableCompilation::apply_delta`] absorb appended
    /// lineage clauses without recompiling. Results are bit-identical to
    /// [`ApproxCompiler::run`]: the frontier capture is pure bookkeeping and
    /// performs no floating-point operations of its own.
    pub fn run_resumable(
        &self,
        dnf: &Dnf,
        space: &ProbabilitySpace,
        cache: Option<&SubformulaCache>,
    ) -> (ApproxResult, ResumableCompilation) {
        let (mut arena, root) = LineageArena::from_dnf(dnf);
        let (result, captured) = self.run_dfs(&mut arena, root, space, cache, true);
        let mut captured = captured.expect("capture was enabled");
        let root_cap = captured.pop().expect("the run captures its root");
        debug_assert!(captured.is_empty(), "capture stack fully unwound");
        let tree = crate::resume::tree_from_capture(arena, root_cap, result.stats);
        let handle = ResumableCompilation::from_tree(tree, &self.opts, &result, space);
        (result, handle)
    }

    fn run_dfs(
        &self,
        arena: &mut LineageArena,
        root: DnfView,
        space: &ProbabilitySpace,
        cache: Option<&SubformulaCache>,
        capture: bool,
    ) -> (ApproxResult, Option<Vec<CapturedNode>>) {
        let start = Instant::now();
        let mut dfs = Dfs {
            arena,
            space,
            opts: &self.opts,
            frames: Vec::new(),
            stats: CompileStats::default(),
            steps: 0,
            start,
            budget_exhausted: false,
            memo: Memo::with_shared(cache, space.generation(), space.watermark()),
            capture: capture.then(Vec::new),
        };
        let bounds = match dfs.explore(Work::View(root), 0) {
            Outcome::Finished(b) | Outcome::StopAll(b) => b,
        };
        let result = ApproxResult {
            lower: bounds.lower,
            upper: bounds.upper,
            estimate: self.opts.error.estimate_from(bounds),
            converged: self.opts.error.satisfied_by(bounds),
            steps: dfs.steps,
            stats: dfs.stats,
            elapsed: start.elapsed(),
        };
        (result, dfs.capture.take())
    }
}

/// Work items for the depth-first exploration: a sub-formula view to
/// decompose, a single factored-out atom (an exact singleton leaf — no need
/// to intern a one-clause formula for it), or an already-decomposed inner
/// node whose children still need exploring.
enum Work {
    View(DnfView),
    Atom(Atom),
    Node(Op, Vec<Work>),
}

/// One node of the partial d-tree a truncated DFS run implicitly materialised,
/// recorded as the exploration unwinds (each `explore` call that returns
/// [`Outcome::Finished`] pushes exactly one node; an inner node pops its
/// children back off). The capture performs no floating-point work — bounds
/// are copied from the values the run computed anyway — so enabling it cannot
/// change any result. Converged runs discard the stack unfinished (a
/// [`Outcome::StopAll`] unwind leaves it partially built, which is fine: a
/// handle is only constructed for non-converged runs, which always unwind
/// through `Finished`).
pub(crate) enum CapturedNode {
    /// A leaf: exact (point bounds) or closed with its bucket bounds.
    Leaf { view: DnfView, bounds: Bounds, exact: bool },
    /// A factored-out atom — an exact singleton leaf kept unmaterialised by
    /// the DFS; the reconstruction interns it as a one-clause view.
    Atom { atom: Atom, p: f64 },
    /// An inner decomposition node over the `children` captured beneath it.
    Inner { op: Op, children: Vec<CapturedNode> },
}

enum Outcome {
    /// The subtree finished with these (final) bounds — either exact or
    /// closed.
    Finished(Bounds),
    /// The global stopping condition was met; the value is the global bounds
    /// at that moment. Unwinds the entire exploration.
    StopAll(Bounds),
}

/// A stack frame of the depth-first exploration: one per inner node on the
/// current root-to-leaf path. `done` is the running fold over the final
/// bounds of the fully explored children, in exploration order, so a global
/// bound continues it instead of re-folding every finished sibling;
/// `pending` holds the quick (bucket) bounds of children not yet visited (a
/// deque: the front is popped as each child starts exploration, which must
/// stay O(1) — ⊗/⊙ nodes can be very wide, e.g. one child per independent
/// component).
struct Frame {
    op: Op,
    done: BoundsFold,
    /// Number of fully explored children.
    explored: usize,
    /// `true` while every fully explored child has point bounds.
    explored_exact: bool,
    pending: VecDeque<Bounds>,
}

impl Frame {
    fn new(op: Op, pending: VecDeque<Bounds>) -> Frame {
        Frame { op, done: BoundsFold::new(op), explored: 0, explored_exact: true, pending }
    }

    /// Records the final bounds of the next fully explored child.
    fn finish_child(&mut self, b: Bounds) {
        self.done.push(b);
        self.explored += 1;
        self.explored_exact &= b.is_point();
    }

    /// Lemma 5.11 restricts leaf closing to d-trees whose ⊙ nodes have at
    /// most one non-exact child; an ⊙ frame with open (non-point) siblings
    /// therefore forbids closing anywhere beneath it.
    fn allows_closing(&self) -> bool {
        self.op != Op::And || (self.explored_exact && self.pending.iter().all(Bounds::is_point))
    }
}

struct Dfs<'a> {
    arena: &'a mut LineageArena,
    space: &'a ProbabilitySpace,
    opts: &'a ApproxOptions,
    frames: Vec<Frame>,
    stats: CompileStats,
    steps: usize,
    start: Instant,
    budget_exhausted: bool,
    memo: Memo<'a>,
    /// When `Some`, the exploration records the partial d-tree it
    /// materialises (see [`CapturedNode`]); `None` for plain runs.
    capture: Option<Vec<CapturedNode>>,
}

impl Dfs<'_> {
    /// Exact probability of a small leaf, memoized so the same sub-DNF is
    /// never folded twice — neither when `quick_bounds` sees it as a pending
    /// child and `explore_view` later visits it, nor across the lineages of a
    /// batch when a shared cache is attached. The memo key is the view's
    /// incremental fingerprint — an O(clauses) combine of interned per-clause
    /// fingerprints, not a re-walk of every atom.
    fn memo_exact(&mut self, view: &DnfView) -> f64 {
        let key = view.hash(self.arena);
        if let Some(p) = self.memo.get_exact(key) {
            self.stats.exact_cache_hits += 1;
            return p;
        }
        let r = crate::exact::exact_probability_view(
            self.arena,
            view,
            self.space,
            &self.opts.compile,
            None,
        );
        self.stats.exact_evaluations += 1;
        self.stats.or_nodes += r.stats.or_nodes;
        self.stats.and_nodes += r.stats.and_nodes;
        self.stats.xor_nodes += r.stats.xor_nodes;
        self.memo.put_exact(key, view.required_watermark(self.arena), r.probability);
        r.probability
    }

    /// Bucket bounds of an open leaf, memoized like [`Dfs::memo_exact`].
    fn memo_bounds(&mut self, view: &DnfView) -> Bounds {
        let key = view.hash(self.arena);
        if let Some(b) = self.memo.get_bounds(key) {
            self.stats.bound_cache_hits += 1;
            return b;
        }
        let b = dnf_bounds_view(self.arena, view, self.space);
        self.stats.bound_evaluations += 1;
        self.memo.put_bounds(key, view.required_watermark(self.arena), b);
        b
    }

    /// Folds the current path's frames around `current` to obtain bounds for
    /// the whole d-tree. With `pending_at_lower` the still-open siblings are
    /// pinned to their lower bound (the worst case of Lemma 5.11, used for
    /// the closing check); otherwise their full bucket intervals are used
    /// (the stopping check of Proposition 5.8).
    fn global_bounds(&self, current: Bounds, pending_at_lower: bool) -> Bounds {
        let mut acc = current;
        for frame in self.frames.iter().rev() {
            let mut fold = frame.done;
            fold.push(acc);
            for b in &frame.pending {
                fold.push(if pending_at_lower { Bounds::point(b.lower) } else { *b });
            }
            acc = fold.finish();
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

    /// Captures a never-explored work item as (a tree of) leaves at its
    /// quick bounds, so an early-stopped run still hands back a *complete*
    /// d-tree: the unexplored siblings become open frontier leaves a later
    /// [`ResumableCompilation`] resume or delta can pick up. Bounds are
    /// re-read from the memo the sibling's `quick_bounds` call already
    /// populated — no stats counter moves, keeping a captured run's result
    /// bit-identical to a plain run's.
    fn capture_pending(&mut self, work: &Work) -> CapturedNode {
        match work {
            Work::Atom(atom) => CapturedNode::Atom { atom: *atom, p: self.space.atom_prob(*atom) },
            Work::View(view) => {
                let (bounds, exact) = self.pending_leaf_bounds(view);
                CapturedNode::Leaf { view: view.clone(), bounds, exact }
            }
            Work::Node(op, children) => CapturedNode::Inner {
                op: *op,
                children: children.iter().map(|c| self.capture_pending(c)).collect(),
            },
        }
    }

    /// The bounds (and exactness) `quick_bounds` assigned to an unexplored
    /// view, re-read without touching the stats counters.
    fn pending_leaf_bounds(&mut self, view: &DnfView) -> (Bounds, bool) {
        if view.is_empty() {
            return (Bounds::point(0.0), true);
        }
        if view.is_tautology(self.arena) {
            return (Bounds::point(1.0), true);
        }
        if view.len() == 1 {
            return (Bounds::point(view.clause_probability(self.arena, self.space, 0)), true);
        }
        let key = view.hash(self.arena);
        if !view.num_vars_exceeds(self.arena, EXACT_LEAF_VARS) {
            let p = self.memo.get_exact(key).expect("pending leaves were bounded on frame entry");
            (Bounds::point(p), true)
        } else {
            let b = self.memo.get_bounds(key).expect("pending leaves were bounded on frame entry");
            (b, false)
        }
    }

    /// Quick bounds of a work item without exploring it: bucket bounds for
    /// views, point bounds for atoms, recursive combination for
    /// already-decomposed nodes.
    fn quick_bounds(&mut self, work: &Work) -> Bounds {
        match work {
            Work::Atom(atom) => Bounds::point(self.space.atom_prob(*atom)),
            Work::View(view) => {
                if view.is_empty() {
                    Bounds::point(0.0)
                } else if view.is_tautology(self.arena) {
                    Bounds::point(1.0)
                } else if view.len() == 1 {
                    Bounds::point(view.clause_probability(self.arena, self.space, 0))
                } else if !view.num_vars_exceeds(self.arena, EXACT_LEAF_VARS) {
                    Bounds::point(self.memo_exact(view))
                } else {
                    self.memo_bounds(view)
                }
            }
            Work::Node(op, children) => op.combine(children.iter().map(|c| self.quick_bounds(c))),
        }
    }

    fn explore(&mut self, work: Work, depth: usize) -> Outcome {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        match work {
            Work::Node(op, children) => self.explore_node(op, children, depth),
            Work::View(view) => self.explore_view(view, depth),
            Work::Atom(atom) => {
                // A factored-out atom is an exact singleton leaf, exactly like
                // a one-clause DNF on the owned path.
                self.stats.exact_leaves += 1;
                let p = self.space.atom_prob(atom);
                if let Some(cap) = &mut self.capture {
                    cap.push(CapturedNode::Atom { atom, p });
                }
                Outcome::Finished(Bounds::point(p))
            }
        }
    }

    fn explore_node(&mut self, op: Op, children: Vec<Work>, depth: usize) -> Outcome {
        let pending: VecDeque<Bounds> =
            children.iter().skip(1).map(|c| self.quick_bounds(c)).collect();
        self.frames.push(Frame::new(op, pending));
        let mut queue: VecDeque<Work> = children.into();
        let mut first = true;
        while let Some(child) = queue.pop_front() {
            if !first {
                // The child about to be explored leaves the pending list.
                let frame = self.frames.last_mut().expect("frame pushed above");
                frame.pending.pop_front();
            }
            first = false;
            match self.explore(child, depth + 1) {
                Outcome::Finished(b) => {
                    let frame = self.frames.last_mut().expect("frame pushed above");
                    frame.finish_child(b);
                }
                Outcome::StopAll(b) => {
                    let frame = self.frames.pop().expect("frame pushed above");
                    if self.capture.is_some() {
                        // Keep the captured tree complete through the early
                        // stop: the interrupted child captured itself, the
                        // unexplored siblings become leaves at their quick
                        // bounds, and the frame wraps into its inner node.
                        let rest: Vec<CapturedNode> =
                            queue.iter().map(|c| self.capture_pending(c)).collect();
                        let cap = self.capture.as_mut().expect("checked above");
                        let explored = frame.explored + 1;
                        let mut kids = cap.split_off(cap.len() - explored);
                        kids.extend(rest);
                        cap.push(CapturedNode::Inner { op, children: kids });
                    }
                    return Outcome::StopAll(b);
                }
            }
        }
        let frame = self.frames.pop().expect("frame pushed above");
        if let Some(cap) = &mut self.capture {
            // Every fully explored child pushed exactly one captured node.
            let children = cap.split_off(cap.len() - frame.explored);
            cap.push(CapturedNode::Inner { op, children });
        }
        Outcome::Finished(frame.done.finish())
    }

    fn explore_view(&mut self, view: DnfView, depth: usize) -> Outcome {
        // Exact leaves: constants and single clauses.
        if view.is_empty() {
            self.stats.exact_leaves += 1;
            if let Some(cap) = &mut self.capture {
                cap.push(CapturedNode::Leaf { view, bounds: Bounds::point(0.0), exact: true });
            }
            return Outcome::Finished(Bounds::point(0.0));
        }
        if view.is_tautology(self.arena) {
            self.stats.exact_leaves += 1;
            if let Some(cap) = &mut self.capture {
                cap.push(CapturedNode::Leaf { view, bounds: Bounds::point(1.0), exact: true });
            }
            return Outcome::Finished(Bounds::point(1.0));
        }
        if view.len() == 1 {
            self.stats.exact_leaves += 1;
            let point = Bounds::point(view.clause_probability(self.arena, self.space, 0));
            if let Some(cap) = &mut self.capture {
                cap.push(CapturedNode::Leaf { view, bounds: point, exact: true });
            }
            return Outcome::Finished(point);
        }
        // Small leaves: fold their complete sub-d-tree on the fly. This keeps
        // the ε slack for the large leaves and skips the bucket-bound
        // heuristic (a sort plus first-fit over the atoms) on sub-DNFs that
        // are cheaper to just solve.
        if !view.num_vars_exceeds(self.arena, EXACT_LEAF_VARS) {
            self.stats.exact_leaves += 1;
            let point = Bounds::point(self.memo_exact(&view));
            if let Some(cap) = &mut self.capture {
                cap.push(CapturedNode::Leaf { view, bounds: point, exact: true });
            }
            // The global stopping condition may already hold with this leaf
            // resolved exactly.
            let global = self.global_bounds(point, false);
            if self.opts.error.satisfied_by(global) {
                return Outcome::StopAll(global);
            }
            return Outcome::Finished(point);
        }

        // Quick bounds of this leaf (the `Independent` heuristic of Fig. 3);
        // when the leaf was already bounded as a pending child the memo
        // returns the same bounds without recomputation.
        let current = self.memo_bounds(&view);

        // Check 1 (Proposition 5.8): can the whole computation stop now?
        let global = self.global_bounds(current, false);
        if self.opts.error.satisfied_by(global) {
            if let Some(cap) = &mut self.capture {
                cap.push(CapturedNode::Leaf { view, bounds: current, exact: false });
            }
            return Outcome::StopAll(global);
        }

        // Check 2 (Theorem 5.12): can this leaf be closed — i.e. even in the
        // worst case over the remaining open leaves, keeping this leaf's
        // bucket bounds cannot break the ε-condition?
        if self.closing_allowed() {
            let worst = self.global_bounds(current, true);
            if self.opts.error.satisfied_by(worst) {
                self.stats.closed_leaves += 1;
                if let Some(cap) = &mut self.capture {
                    cap.push(CapturedNode::Leaf { view, bounds: current, exact: false });
                }
                return Outcome::Finished(current);
            }
        }

        // Budget: when exhausted, close unconditionally (best effort).
        self.check_budget();
        if self.budget_exhausted {
            self.stats.closed_leaves += 1;
            if let Some(cap) = &mut self.capture {
                cap.push(CapturedNode::Leaf { view, bounds: current, exact: false });
            }
            return Outcome::Finished(current);
        }

        // Otherwise decompose one step and recurse.
        self.steps += 1;
        let node = self.decompose(view);
        self.explore(node, depth)
    }

    /// One decomposition step of Figure 1, producing a [`Work::Node`] (or a
    /// `Work::View` when only subsumption removal applied). Pure index
    /// manipulation: no clause is copied, except inside the (rare) relational
    /// product factorization whose factors are projections — new clauses by
    /// construction — interned back into the arena.
    fn decompose(&mut self, view: DnfView) -> Work {
        // Step 1: subsumption removal.
        let (view, removed) = view.remove_subsumed(self.arena);
        self.stats.subsumed_clauses += removed;

        if view.len() <= 1 || view.is_tautology(self.arena) {
            return Work::View(view);
        }

        // Step 2: independent-or (⊗).
        let components = view.independent_components(self.arena);
        if components.len() > 1 {
            self.stats.or_nodes += 1;
            return Work::Node(Op::Or, components.into_iter().map(Work::View).collect());
        }

        // Step 3a: independent-and (⊙) by common-atom factoring.
        let common = view.common_atoms(self.arena);
        if !common.is_empty() {
            self.stats.and_nodes += 1;
            let vars: Vec<_> = common.iter().map(|a| a.var).collect();
            let rest = view.strip_vars(self.arena, &vars);
            let mut children: Vec<Work> = common.iter().map(|a| Work::Atom(*a)).collect();
            children.push(Work::View(rest));
            return Work::Node(Op::And, children);
        }

        // Step 3b: independent-and (⊙) by relational product factorization.
        if let Some(origins) = &self.opts.compile.origins {
            let factors =
                product_factorization_by(view.len(), |i| view.clause(self.arena, i), origins);
            if let Some(factors) = factors {
                self.stats.and_nodes += 1;
                return Work::Node(
                    Op::And,
                    factors
                        .into_iter()
                        .map(|c| Work::View(self.arena.intern_sorted_clauses(&c)))
                        .collect(),
                );
            }
        }

        // Step 4: Shannon expansion (⊕).
        let var = choose_variable(
            self.arena,
            &view,
            &self.opts.compile.var_order,
            self.opts.compile.origins.as_ref(),
        )
        .expect("non-constant DNF mentions a variable");
        self.stats.xor_nodes += 1;
        let mut branches = Vec::new();
        for (value, cofactor) in view.shannon_cofactors(self.arena, var, self.space) {
            self.stats.and_nodes += 1;
            branches.push(Work::Node(
                Op::And,
                vec![Work::Atom(Atom::new(var, value)), Work::View(cofactor)],
            ));
        }
        Work::Node(Op::Xor, branches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::{Clause, VarId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::exact::exact_probability;

    fn bool_space(ps: &[f64]) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = ps.iter().enumerate().map(|(i, &p)| s.add_bool(format!("x{i}"), p)).collect();
        (s, vars)
    }

    fn example_5_2() -> (ProbabilitySpace, Dnf) {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
            Clause::from_bools(&[vars[3]]),
        ]);
        (s, phi)
    }

    #[test]
    fn error_bound_conditions_match_proposition_5_8() {
        // Example 5.9: bounds [0.842, 0.848].
        let b = Bounds::new(0.842, 0.848);
        assert!(ErrorBound::Absolute(0.003).satisfied_by(b));
        assert!(ErrorBound::Absolute(0.004).satisfied_by(b));
        assert!(!ErrorBound::Absolute(0.002).satisfied_by(b));
        // The unique absolute 0.003-approximation is 0.845.
        let est = ErrorBound::Absolute(0.003).estimate_from(b);
        assert!((est - 0.845).abs() < 1e-12);
        // Relative condition.
        assert!(ErrorBound::Relative(0.01).satisfied_by(b));
        assert!(!ErrorBound::Relative(0.001).satisfied_by(b));
    }

    #[test]
    fn absolute_approximation_on_example_5_2() {
        let (s, phi) = example_5_2();
        let exact = phi.exact_probability_enumeration(&s);
        for eps in [0.05, 0.01, 0.001, 1e-6] {
            let r = ApproxCompiler::new(ApproxOptions::absolute(eps)).run(&phi, &s);
            assert!(r.converged, "eps={eps}");
            assert!((r.estimate - exact).abs() <= eps + 1e-12, "eps={eps} est={}", r.estimate);
            assert!(r.lower <= exact + 1e-12 && exact <= r.upper + 1e-12);
        }
    }

    #[test]
    fn relative_approximation_on_example_5_2() {
        let (s, phi) = example_5_2();
        let exact = phi.exact_probability_enumeration(&s);
        for eps in [0.1, 0.01, 0.001] {
            let r = ApproxCompiler::new(ApproxOptions::relative(eps)).run(&phi, &s);
            assert!(r.converged, "eps={eps}");
            assert!(
                r.estimate >= (1.0 - eps) * exact - 1e-12
                    && r.estimate <= (1.0 + eps) * exact + 1e-12,
                "eps={eps} est={} exact={exact}",
                r.estimate
            );
        }
    }

    #[test]
    fn zero_error_recovers_exact_probability() {
        let (s, phi) = example_5_2();
        let exact = phi.exact_probability_enumeration(&s);
        let r = ApproxCompiler::new(ApproxOptions::absolute(0.0)).run(&phi, &s);
        assert!(r.converged);
        assert!((r.estimate - exact).abs() < 1e-9);
    }

    #[test]
    fn constants_and_degenerate_inputs() {
        let (s, vars) = bool_space(&[0.4]);
        let empty = Dnf::empty();
        let r = ApproxCompiler::new(ApproxOptions::absolute(0.01)).run(&empty, &s);
        assert!(r.converged);
        assert_eq!(r.estimate, 0.0);
        let taut = Dnf::tautology();
        let r = ApproxCompiler::new(ApproxOptions::relative(0.01)).run(&taut, &s);
        assert!(r.converged);
        assert_eq!(r.estimate, 1.0);
        let single = Dnf::literal(vars[0]);
        let r = ApproxCompiler::new(ApproxOptions::absolute(0.0)).run(&single, &s);
        assert!(r.converged);
        assert!((r.estimate - 0.4).abs() < 1e-12);
    }

    /// Random correlated DNFs: the estimate must respect the requested error
    /// against brute-force enumeration, for both error types — and the arena
    /// path must be bit-identical to the owned reference path, with the same
    /// d-tree statistics.
    #[test]
    fn randomized_error_guarantees() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..30 {
            let nvars = rng.gen_range(3..9);
            let probs: Vec<f64> = (0..nvars).map(|_| rng.gen_range(0.05..0.95)).collect();
            let (s, vars) = bool_space(&probs);
            let nclauses = rng.gen_range(2..7);
            let clauses: Vec<Clause> = (0..nclauses)
                .map(|_| {
                    let width = rng.gen_range(1..4usize);
                    Clause::from_bools(
                        &(0..width).map(|_| vars[rng.gen_range(0..nvars)]).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let phi = Dnf::from_clauses(clauses);
            if phi.is_empty() {
                continue;
            }
            let exact = phi.exact_probability_enumeration(&s);
            for eps in [0.01, 0.1] {
                let r = ApproxCompiler::new(ApproxOptions::absolute(eps)).run(&phi, &s);
                assert!(r.converged, "trial {trial}");
                assert!(
                    (r.estimate - exact).abs() <= eps + 1e-9,
                    "trial {trial} eps {eps}: est {} exact {exact}",
                    r.estimate
                );
                let reference =
                    crate::reference::approx_reference(&phi, &s, &ApproxOptions::absolute(eps));
                assert_eq!(r.estimate.to_bits(), reference.estimate.to_bits());
                assert_eq!(r.lower.to_bits(), reference.lower.to_bits());
                assert_eq!(r.upper.to_bits(), reference.upper.to_bits());
                assert_eq!(r.steps, reference.steps);
                assert_eq!(r.stats, reference.stats);
                let rel = ApproxCompiler::new(ApproxOptions::relative(eps)).run(&phi, &s);
                assert!(rel.converged, "trial {trial}");
                assert!(
                    (rel.estimate - exact).abs() <= eps * exact + 1e-9,
                    "trial {trial}: rel est {} exact {exact}",
                    rel.estimate
                );
            }
        }
    }

    /// With a generous error the algorithm should stop early — fewer
    /// decomposition steps than with a tight error.
    #[test]
    fn looser_errors_take_fewer_steps() {
        // A chain DNF that needs genuine work.
        let probs: Vec<f64> = (0..14).map(|i| 0.2 + 0.04 * i as f64).collect();
        let (s, vars) = bool_space(&probs);
        let phi = Dnf::from_clauses(
            (0..13).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let loose = ApproxCompiler::new(ApproxOptions::absolute(0.2)).run(&phi, &s);
        let tight = ApproxCompiler::new(ApproxOptions::absolute(1e-4)).run(&phi, &s);
        assert!(loose.converged && tight.converged);
        assert!(
            loose.steps <= tight.steps,
            "loose {} steps vs tight {} steps",
            loose.steps,
            tight.steps
        );
        let exact = phi.exact_probability_enumeration(&s);
        assert!((loose.estimate - exact).abs() <= 0.2 + 1e-9);
        assert!((tight.estimate - exact).abs() <= 1e-4 + 1e-9);
    }

    #[test]
    fn step_budget_limits_work_but_keeps_sound_bounds() {
        let probs: Vec<f64> = (0..16).map(|i| 0.2 + 0.04 * i as f64).collect();
        let (s, vars) = bool_space(&probs);
        let phi = Dnf::from_clauses(
            (0..15).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let exact = phi.exact_probability_enumeration(&s);
        let r = ApproxCompiler::new(ApproxOptions::absolute(1e-9).with_max_steps(3)).run(&phi, &s);
        assert!(r.steps <= 4);
        // Bounds stay sound even without convergence.
        assert!(r.lower <= exact + 1e-9 && exact <= r.upper + 1e-9);
        // The leaf-closing statistics reflect the forced closures.
        assert!(r.stats.closed_leaves > 0 || r.converged);
    }

    #[test]
    fn timeout_is_respected() {
        let probs: Vec<f64> = (0..18).map(|i| 0.2 + 0.03 * i as f64).collect();
        let (s, vars) = bool_space(&probs);
        let phi = Dnf::from_clauses(
            (0..17).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let r = ApproxCompiler::new(
            ApproxOptions::absolute(0.0).with_timeout(Duration::from_millis(0)),
        )
        .run(&phi, &s);
        // With a zero timeout the first leaf is closed immediately; the
        // result is the bucket bounds of the whole DNF.
        let exact = phi.exact_probability_enumeration(&s);
        assert!(r.lower <= exact + 1e-9 && exact <= r.upper + 1e-9);
    }

    /// A frame whose explored children finished with `done` and whose
    /// unexplored ones have quick bounds `pending`.
    fn frame(op: Op, done: &[Bounds], pending: &[Bounds]) -> Frame {
        let mut frame = Frame::new(op, pending.iter().copied().collect());
        for &b in done {
            frame.finish_child(b);
        }
        frame
    }

    /// Example 5.13: the closing decision at Φ2 of the Figure-4 d-tree.
    /// We reproduce it directly through the `Frame`/`global_bounds`
    /// machinery.
    #[test]
    fn example_5_13_closing_decision() {
        let (s, _) = bool_space(&[0.5]);
        let opts = ApproxOptions::absolute(0.012);
        let mut arena = LineageArena::new();
        let dfs = Dfs {
            arena: &mut arena,
            space: &s,
            opts: &opts,
            frames: vec![
                // Φ1 is closed with bounds [0.1, 0.11].
                frame(Op::Or, &[Bounds::new(0.1, 0.11)], &[]),
                // Φ3 is open with bucket bounds [0.35, 0.38].
                frame(Op::Xor, &[], &[Bounds::new(0.35, 0.38)]),
                // {x = 1} with exact probability 0.5.
                frame(Op::And, &[Bounds::point(0.5)], &[]),
            ],
            stats: CompileStats::default(),
            steps: 0,
            start: Instant::now(),
            budget_exhausted: false,
            memo: Memo::default(),
            capture: None,
        };
        let phi2 = Bounds::new(0.4, 0.44);
        // Check (1): with all leaves at their current bounds the condition
        // fails (U − L = 0.049 > 0.024).
        let stop = dfs.global_bounds(phi2, false);
        assert!((stop.lower - 0.595).abs() < 1e-9);
        assert!((stop.upper - 0.644).abs() < 1e-9);
        assert!(!opts.error.satisfied_by(stop));
        // Check (2): pinning the open leaf Φ3 to its lower bound gives
        // U' − L = 0.0223 ≤ 0.024, so Φ2 may be closed.
        let close = dfs.global_bounds(phi2, true);
        assert!((close.lower - 0.595).abs() < 1e-9);
        assert!((close.upper - 0.6173).abs() < 1e-9, "upper = {}", close.upper);
        assert!(opts.error.satisfied_by(close));
        assert!(dfs.closing_allowed());
    }

    #[test]
    fn closing_is_disallowed_under_wide_and_frames() {
        let (s, _) = bool_space(&[0.5]);
        let opts = ApproxOptions::absolute(0.01);
        let mut arena = LineageArena::new();
        let dfs = Dfs {
            arena: &mut arena,
            space: &s,
            opts: &opts,
            frames: vec![frame(Op::And, &[], &[Bounds::new(0.3, 0.6)])],
            stats: CompileStats::default(),
            steps: 0,
            start: Instant::now(),
            budget_exhausted: false,
            memo: Memo::default(),
            capture: None,
        };
        assert!(!dfs.closing_allowed());
    }

    /// The known double-evaluation is gone: a small leaf whose exact
    /// probability is computed for the pending-child quick bounds is *not*
    /// recomputed when the leaf is explored — the second request is a memo
    /// hit, observable in [`CompileStats`].
    #[test]
    fn small_leaves_are_evaluated_exactly_once_per_run() {
        // A chain over 30 variables: too large for the exact-leaf fast path
        // at the root, so the DFS decomposes and produces ⊕/⊙ nodes whose
        // pending children are bounded by `quick_bounds` (exactly the
        // situation where small leaves used to be folded twice).
        let probs: Vec<f64> = (0..30).map(|i| 0.15 + 0.02 * (i as f64 % 20.0)).collect();
        let (s, vars) = bool_space(&probs);
        let phi = Dnf::from_clauses(
            (0..29).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let r = ApproxCompiler::new(ApproxOptions::absolute(1e-6)).run(&phi, &s);
        assert!(r.converged);
        let exact = exact_probability(&phi, &s, &CompileOptions::default()).probability;
        assert!((r.estimate - exact).abs() <= 1e-6 + 1e-12);
        // Every small leaf visited both as a pending child and as an explored
        // node hits the memo the second time; at least one evaluation
        // happened, and no request beyond the first per distinct leaf
        // recomputed anything.
        assert!(r.stats.exact_cache_hits > 0, "stats: {:?}", r.stats);
        assert!(r.stats.exact_evaluations > 0);
    }

    /// A shared cache across runs: the second run of the same formula gets
    /// its sub-results from the cache and returns bit-identical output.
    #[test]
    fn shared_cache_reuses_results_across_runs_bit_identically() {
        let probs: Vec<f64> = (0..26).map(|i| 0.2 + 0.025 * (i as f64 % 16.0)).collect();
        let (s, vars) = bool_space(&probs);
        let phi = Dnf::from_clauses(
            (0..25).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        // Overlapping second lineage: shares a long sub-chain with `phi`.
        let psi = Dnf::from_clauses(
            (0..20).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-4));
        let cache = SubformulaCache::new();
        let cached_run = |dnf: &Dnf| {
            let (mut arena, root) = LineageArena::from_dnf(dnf);
            compiler.run_view(&mut arena, &root, &s, Some(&cache))
        };
        let uncached_phi = compiler.run(&phi, &s);
        let uncached_psi = compiler.run(&psi, &s);
        let cached_phi = cached_run(&phi);
        let cached_psi = cached_run(&psi);
        // A repeated run of the same lineage is served from the cache …
        let cached_phi2 = cached_run(&phi);
        // … and all cached runs agree with the uncached ones to the bit.
        assert_eq!(uncached_phi.estimate.to_bits(), cached_phi.estimate.to_bits());
        assert_eq!(uncached_phi.lower.to_bits(), cached_phi.lower.to_bits());
        assert_eq!(uncached_phi.upper.to_bits(), cached_phi.upper.to_bits());
        assert_eq!(uncached_phi.estimate.to_bits(), cached_phi2.estimate.to_bits());
        assert_eq!(uncached_psi.estimate.to_bits(), cached_psi.estimate.to_bits());
        // The cache holds entries and was actually consulted.
        assert!(!cache.is_empty());
        assert!(cache.stats().hits > 0, "cache stats: {:?}", cache.stats());
    }

    /// Hierarchical-style lineage with origins: approximation with error 0
    /// equals the exact result and uses no Shannon expansion.
    #[test]
    fn origins_enable_factorized_approximation() {
        use events::VarOrigins;
        let (s, vars) = bool_space(&[0.3, 0.4, 0.5, 0.6]);
        let (r1, r2, s1, s2) = (vars[0], vars[1], vars[2], vars[3]);
        let mut origins = VarOrigins::new();
        for (v, g) in [(r1, 0), (r2, 0), (s1, 1), (s2, 1)] {
            origins.set(v, g);
        }
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[r1, s1]),
            Clause::from_bools(&[r1, s2]),
            Clause::from_bools(&[r2, s1]),
            Clause::from_bools(&[r2, s2]),
        ]);
        let opts = ApproxOptions::absolute(0.0).with_compile(CompileOptions::with_origins(origins));
        let r = ApproxCompiler::new(opts).run(&phi, &s);
        assert!(r.converged);
        let exact = phi.exact_probability_enumeration(&s);
        assert!((r.estimate - exact).abs() < 1e-9);
        assert_eq!(r.stats.xor_nodes, 0);
    }

    /// The `&Dnf` entries of the approximation, exact evaluation and bucket
    /// bounds (which intern internally) are bit-identical to their view
    /// entries over a caller-owned arena — the hook the batch engine uses —
    /// with and without a shared cache.
    #[test]
    fn run_view_matches_run() {
        let probs: Vec<f64> = (0..20).map(|i| 0.2 + 0.03 * (i as f64 % 12.0)).collect();
        let (s, vars) = bool_space(&probs);
        let phi = Dnf::from_clauses(
            (0..19).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])).collect::<Vec<_>>(),
        );
        let compiler = ApproxCompiler::new(ApproxOptions::absolute(1e-4));
        let opts = CompileOptions::default();
        let owned_entry = compiler.run(&phi, &s);
        let owned_exact = exact_probability(&phi, &s, &opts);
        let owned_bounds = crate::bounds::dnf_bounds(&phi, &s);
        let cache = SubformulaCache::new();
        // Uncached, then a cold and a warm pass over the shared cache.
        for cache in [None, Some(&cache), Some(&cache)] {
            let mut arena = LineageArena::new();
            let root = arena.intern(&phi);
            let view_entry = compiler.run_view(&mut arena, &root, &s, cache);
            assert_eq!(owned_entry.estimate.to_bits(), view_entry.estimate.to_bits());
            assert_eq!(owned_entry.lower.to_bits(), view_entry.lower.to_bits());
            assert_eq!(owned_entry.upper.to_bits(), view_entry.upper.to_bits());
            assert_eq!(owned_entry.steps, view_entry.steps);
            if cache.is_none() {
                assert_eq!(owned_entry.stats, view_entry.stats);
            }
            let exact = crate::exact::exact_probability_view(&mut arena, &root, &s, &opts, cache);
            assert_eq!(owned_exact.probability.to_bits(), exact.probability.to_bits());
            if cache.is_none() {
                assert_eq!(owned_exact.stats, exact.stats);
            }
            let bounds = dnf_bounds_view(&arena, &root, &s);
            assert_eq!(owned_bounds.lower.to_bits(), bounds.lower.to_bits());
            assert_eq!(owned_bounds.upper.to_bits(), bounds.upper.to_bits());
        }
        assert!(cache.stats().hits > 0, "the warm pass must hit: {:?}", cache.stats());
    }
}
