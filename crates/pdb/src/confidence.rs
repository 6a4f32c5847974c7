//! Unified confidence-computation front-end.
//!
//! The paper compares several algorithms for computing the probability of an
//! answer tuple's lineage DNF; this module dispatches a lineage to the chosen
//! algorithm and returns a uniform result structure, which is what the
//! examples and the benchmark harness use.

use std::fmt;
use std::time::{Duration, Instant};

use dtree::{
    exact_probability_view, ApproxCompiler, ApproxOptions, ApproxResult, CompileOptions,
    CompileStats, ErrorBound, ResumableCompilation, ResumeBudget, SubformulaCache,
};
use events::{Dnf, LineageArena, LineageDelta, ProbabilitySpace, VarOrigins};
use montecarlo::{aconf_view, naive_monte_carlo_view, McOptions, NaiveOptions};

/// The confidence-computation algorithm to run on a lineage DNF.
#[derive(Debug, Clone)]
pub enum ConfidenceMethod {
    /// The d-tree exact evaluation ("d-tree(error 0)" in the paper's plots).
    DTreeExact,
    /// The d-tree deterministic approximation with an absolute error bound.
    DTreeAbsolute(f64),
    /// The d-tree deterministic approximation with a relative error bound.
    DTreeRelative(f64),
    /// The Karp-Luby / DKLR Monte-Carlo baseline (`aconf(ε)`, δ = 0.0001).
    KarpLuby {
        /// Relative error ε.
        epsilon: f64,
        /// Failure probability δ.
        delta: f64,
    },
    /// Naive possible-world sampling with an additive error bound.
    NaiveMonteCarlo {
        /// Additive error ε.
        epsilon: f64,
    },
}

impl ConfidenceMethod {
    /// `true` for the d-tree methods, whose results are a pure function of
    /// `(lineage, space)` — the precondition for duplicate-lineage
    /// deduplication and bit-identical caching. The Monte-Carlo methods are
    /// excluded: they carry per-item seeds, so every item must run.
    pub fn is_deterministic(&self) -> bool {
        matches!(
            self,
            ConfidenceMethod::DTreeExact
                | ConfidenceMethod::DTreeAbsolute(_)
                | ConfidenceMethod::DTreeRelative(_)
        )
    }

    /// Short display name used in benchmark tables.
    pub fn label(&self) -> String {
        match self {
            ConfidenceMethod::DTreeExact => "d-tree(0)".to_owned(),
            ConfidenceMethod::DTreeAbsolute(e) => format!("d-tree(abs {e})"),
            ConfidenceMethod::DTreeRelative(e) => format!("d-tree(rel {e})"),
            ConfidenceMethod::KarpLuby { epsilon, .. } => format!("aconf({epsilon})"),
            ConfidenceMethod::NaiveMonteCarlo { epsilon } => format!("naive({epsilon})"),
        }
    }
}

/// Uniform result of a confidence computation.
#[derive(Debug, Clone)]
pub struct ConfidenceResult {
    /// The probability estimate.
    pub estimate: f64,
    /// Lower bound on the probability. For d-tree methods this is a *sound*
    /// bound (the true probability always lies in `[lower, upper]`); for
    /// Monte-Carlo methods it is the lower end of the method's (ε, δ)
    /// confidence interval, which contains the true probability with
    /// probability at least `1 − δ` when `converged` is `true`; a Monte-Carlo
    /// run truncated by the budget (`converged == false`) has no such
    /// guarantee and reports the vacuous interval `[0, 1]`. Exact methods
    /// report `lower == estimate == upper`.
    pub lower: f64,
    /// Upper bound on the probability; see [`ConfidenceResult::lower`] for
    /// the per-method semantics.
    pub upper: f64,
    /// Whether the requested guarantee was met within the budget.
    pub converged: bool,
    /// Wall-clock time spent inside the algorithm.
    pub elapsed: Duration,
    /// Method label (for reports).
    pub method: String,
    /// Decomposition statistics of the run, exposed for cost models and
    /// hardness estimators (e.g. `cluster::HardnessEstimator` calibrates its
    /// structural scores against [`CompileStats::work`]). `Some` for the
    /// d-tree methods, `None` for the Monte-Carlo methods (which do no
    /// decomposition) and for items short-circuited past a deadline.
    pub stats: Option<CompileStats>,
    /// `Some` when the result was **degraded**: a failure (worker panic,
    /// shard loss, exhausted I/O retries) prevented computing the item, and
    /// the engine failed closed to this sound vacuous `[0, 1]` non-converged
    /// interval instead of aborting the batch. `None` for every normally
    /// computed result — including honest non-converged ones, which are a
    /// budget outcome, not a failure.
    pub degraded: Option<DegradationReason>,
}

/// Why a [`ConfidenceResult`] was degraded to the vacuous `[0, 1]`
/// non-converged interval instead of computed. Carried on
/// [`ConfidenceResult::degraded`]; the interval is still *sound* (the true
/// probability always lies in `[0, 1]`), so batch post-processing stays
/// valid — the reason tells operators which failure domain to look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// The worker computing the item panicked (e.g. on corrupt committed
    /// storage payloads or an injected fault) and the engine isolated it.
    WorkerPanic,
    /// The item was orphaned by a dying cluster shard and its retry on a
    /// surviving shard also failed.
    ShardLost,
    /// Transient storage I/O kept failing past the retry budget.
    RetriesExhausted,
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::WorkerPanic => write!(f, "worker panic"),
            DegradationReason::ShardLost => write!(f, "shard lost"),
            DegradationReason::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

/// Budgets applied to any method — including [`ConfidenceMethod::DTreeExact`],
/// which is routed through the ε = 0 approximation path when a budget is set
/// so that truncation yields sound partial bounds with `converged = false`
/// instead of stalling. Mainly used by the benchmark harness and the batch
/// engine so a slow baseline or a single hard lineage cannot stall a whole
/// experiment.
#[derive(Debug, Clone, Default)]
pub struct ConfidenceBudget {
    /// Wall-clock timeout.
    pub timeout: Option<Duration>,
    /// Maximum decomposition steps (d-tree) or samples (Monte-Carlo).
    pub max_work: Option<u64>,
}

/// A suspended confidence computation: wraps a [`ResumableCompilation`] d-tree
/// frontier together with the method label, so later budget slices keep
/// tightening the same interval instead of recompiling the lineage from
/// scratch.
///
/// Obtained from [`confidence_resumable`] when a budgeted d-tree run is
/// truncated before convergence. The handle owns the partial d-tree (arena
/// included); drop it to discard the frontier. It is pinned to the
/// probability-space generation it was captured under and **fails closed** if
/// the space is invalidated in place: [`ResumableConfidence::resume`] then
/// returns the vacuous non-converged `[0, 1]` interval and
/// [`ResumableConfidence::failed`] turns `true` permanently.
#[derive(Debug, Clone)]
pub struct ResumableConfidence {
    inner: ResumableCompilation,
    method: String,
}

impl ResumableConfidence {
    /// Attaches observability to the underlying d-tree frontier: every later
    /// slice records its step count, cache-probe outcomes, latency, and the
    /// interval width reached (see `ResumableCompilation::attach_obs`).
    /// Write-only; results are bit-identical with or without it.
    pub fn attach_obs(&mut self, o: &obs::Obs) {
        self.inner.attach_obs(o);
    }

    /// Continues refinement for one budget slice (an empty budget means
    /// "until convergence"). Bounds never widen across slices; the returned
    /// result carries slice-local `elapsed`/`stats`.
    pub fn resume(
        &mut self,
        space: &ProbabilitySpace,
        budget: &ConfidenceBudget,
        cache: Option<&SubformulaCache>,
    ) -> ConfidenceResult {
        let rb = ResumeBudget {
            max_steps: budget.max_work.map(|w| w as usize),
            timeout: budget.timeout,
        };
        dtree_result(self.inner.resume(space, rb, cache), self.method.clone())
    }

    /// [`ResumableConfidence::resume`] against a wall-clock deadline: spends
    /// whatever time remains until `deadline` (returning immediately with the
    /// current bounds if it already passed). This is the slice shape the
    /// cluster scheduler's refinement rounds use.
    pub fn resume_until(
        &mut self,
        space: &ProbabilitySpace,
        deadline: Instant,
        cache: Option<&SubformulaCache>,
    ) -> ConfidenceResult {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let budget = ConfidenceBudget { timeout: Some(remaining), max_work: None };
        self.resume(space, &budget, cache)
    }

    /// Current interval width `U − L`; what further resumption shrinks.
    /// Schedulers re-score suspended items by this.
    pub fn remaining_width(&self) -> f64 {
        self.inner.width()
    }

    /// Current sound bounds of the suspended computation.
    pub fn bounds(&self) -> (f64, f64) {
        let b = self.inner.bounds();
        (b.lower, b.upper)
    }

    /// `true` once the error guarantee is met (further resumes are no-ops).
    pub fn is_converged(&self) -> bool {
        self.inner.is_converged()
    }

    /// `true` when the handle failed closed under probability-space
    /// invalidation; recompute from scratch against the new space.
    pub fn failed(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// `true` when the handle is still valid against `space` — the same
    /// predicate [`ResumableConfidence::resume`] and
    /// [`ResumableConfidence::apply_delta`] fail closed on. Maintenance
    /// checks it up front so stale handles recompile immediately instead of
    /// spending a slice to learn they are poisoned.
    pub fn is_current(&self, space: &ProbabilitySpace) -> bool {
        self.inner.is_current(space)
    }

    /// Cumulative decomposition steps across the original run and all slices.
    pub fn total_steps(&self) -> usize {
        self.inner.total_steps()
    }

    /// Applies a [`LineageDelta`] — clauses appended to the lineage this
    /// handle was compiled from — **in place**, without recompiling. Each
    /// clause is routed down the partial d-tree to the decomposition node it
    /// belongs to; only the touched leaf chain recomputes its bounds, every
    /// untouched subtree keeps its accumulated refinement. Returns `true` on
    /// success; `false` when the handle fails closed (probability space
    /// invalidated in place, or a destructive — non-append — edit reached
    /// it), in which case [`ResumableConfidence::failed`] turns `true`
    /// permanently and the item must be recompiled from scratch.
    ///
    /// The caller is responsible for the delta actually describing the growth
    /// of *this* handle's lineage (e.g. via [`LineageDelta::between`] or
    /// [`events::LineageArena::append_clauses`]); after a successful call the
    /// handle's bounds are sound for the grown formula, and further
    /// [`ResumableConfidence::resume`] slices tighten them as usual.
    pub fn apply_delta(&mut self, space: &ProbabilitySpace, delta: &LineageDelta) -> bool {
        self.inner.apply_delta(space, delta.clauses())
    }

    /// The width-vs-budget curve: `(cumulative_steps, interval_width)`
    /// samples recorded at capture, after every resume slice, and after every
    /// applied delta. Monotone non-increasing in width between deltas; a
    /// delta can widen the interval again (the formula grew).
    pub fn width_curve(&self) -> &[(usize, f64)] {
        self.inner.width_curve()
    }

    /// Number of delta clauses applied over the handle's lifetime.
    pub fn deltas_applied(&self) -> usize {
        self.inner.deltas_applied()
    }

    /// Number of delta routings that fell back to rebuilding a dirty subtree.
    pub fn dirty_rebuilds(&self) -> usize {
        self.inner.dirty_rebuilds()
    }

    /// The handle's current state as a [`ConfidenceResult`] without doing any
    /// work: bounds, estimate, and convergence as of now, `elapsed` zero
    /// (nothing ran for this snapshot). This is what maintenance reports for
    /// items whose bounds stayed within the error guarantee after a delta.
    pub fn snapshot_result(&self) -> ConfidenceResult {
        let (lower, upper) = self.bounds();
        ConfidenceResult {
            estimate: self.inner.estimate(),
            lower,
            upper,
            converged: self.inner.is_converged(),
            elapsed: Duration::ZERO,
            method: self.method.clone(),
            stats: Some(*self.inner.stats()),
            degraded: None,
        }
    }
}

/// Computes the confidence of a lineage DNF with the chosen method.
///
/// `origins` (variable → relation labels) enables the relational
/// factorizations and tractable elimination orders for the d-tree methods;
/// pass `None` when unavailable.
pub fn confidence(
    lineage: &Dnf,
    space: &ProbabilitySpace,
    origins: Option<&VarOrigins>,
    method: &ConfidenceMethod,
    budget: &ConfidenceBudget,
) -> ConfidenceResult {
    confidence_with(lineage, space, origins, method, budget, None, None)
}

/// [`confidence`] with the two knobs the batch engine needs: a deterministic
/// RNG seed for the Monte-Carlo methods and a shared [`SubformulaCache`] for
/// the d-tree methods.
///
/// * `seed` — when `Some`, Karp-Luby and naive sampling are seeded with it
///   (making the call reproducible); when `None` they seed from entropy as
///   [`confidence`] does. The d-tree methods are deterministic and ignore it.
/// * `cache` — when `Some`, the d-tree methods memoize exact sub-formula
///   probabilities and bucket bounds in it. Entries are scoped to
///   `space.generation()`, so one long-lived cache can serve many spaces and
///   survive database mutations; results are bit-identical to the uncached
///   call either way.
pub fn confidence_with(
    lineage: &Dnf,
    space: &ProbabilitySpace,
    origins: Option<&VarOrigins>,
    method: &ConfidenceMethod,
    budget: &ConfidenceBudget,
    seed: Option<u64>,
    cache: Option<&SubformulaCache>,
) -> ConfidenceResult {
    // Intern the lineage once; every method below — d-tree compilers and
    // Monte-Carlo samplers alike — evaluates against the arena view, so
    // decomposition and sampling never clone a clause again.
    let (mut arena, root) = LineageArena::from_dnf(lineage);
    if let Some(error) = anytime_error(method, budget) {
        let compiler = ApproxCompiler::new(approx_options(error, origins, budget));
        let r = compiler.run_view(&mut arena, &root, space, cache);
        return dtree_result(r, method.label());
    }
    match method {
        ConfidenceMethod::KarpLuby { epsilon, delta } => {
            let mut opts = McOptions::new(*epsilon).with_delta(*delta);
            if let Some(t) = budget.timeout {
                opts = opts.with_timeout(t);
            }
            if let Some(w) = budget.max_work {
                opts = opts.with_max_samples(w);
            }
            if let Some(s) = seed {
                opts = opts.with_seed(s);
            }
            let r = aconf_view(&arena, &root, space, &opts);
            // The (ε, δ) guarantee is relative: p̂ ∈ [(1−ε)p, (1+ε)p] with
            // probability ≥ 1 − δ, hence p ∈ [p̂/(1+ε), p̂/(1−ε)] — but only
            // when the DKLR stopping rule actually ran to completion. A run
            // truncated by the budget drew too few samples for any such
            // guarantee, so the only honest interval is the vacuous [0, 1].
            let (lower, upper) = if r.converged {
                let eps = epsilon.max(0.0);
                let lower = (r.estimate / (1.0 + eps)).clamp(0.0, 1.0);
                let upper =
                    if eps < 1.0 { (r.estimate / (1.0 - eps)).clamp(0.0, 1.0) } else { 1.0 };
                (lower, upper)
            } else {
                (0.0, 1.0)
            };
            ConfidenceResult {
                estimate: r.estimate,
                lower,
                upper,
                converged: r.converged,
                elapsed: r.elapsed,
                method: method.label(),
                stats: None,
                degraded: None,
            }
        }
        ConfidenceMethod::NaiveMonteCarlo { epsilon } => {
            let mut opts = NaiveOptions::new(*epsilon);
            if let Some(t) = budget.timeout {
                opts.timeout = Some(t);
            }
            // `max_work` is a *cap*, not a target: `with_samples` overrides
            // the Hoeffding-mandated count outright, so pass the minimum of
            // the two — a budget above the requirement must not inflate the
            // work, a budget below it truncates.
            let required = opts.hoeffding_samples();
            if let Some(w) = budget.max_work {
                opts = opts.with_samples(w.min(required));
            }
            if let Some(s) = seed {
                opts = opts.with_seed(s);
            }
            let r = naive_monte_carlo_view(&arena, &root, space, &opts);
            // Additive (ε, δ) guarantee: p ∈ [p̂ − ε, p̂ + ε] with
            // probability ≥ 1 − δ — earned only when the Hoeffding count was
            // actually drawn (trivial formulas are exact without sampling).
            // A truncated run (budget or timeout) has no such guarantee and
            // reports the vacuous (but sound) [0, 1].
            let trivial = lineage.is_empty() || lineage.is_tautology();
            let earned = trivial || (r.converged && r.samples >= required);
            let (lower, upper) = if earned {
                ((r.estimate - epsilon).clamp(0.0, 1.0), (r.estimate + epsilon).clamp(0.0, 1.0))
            } else {
                (0.0, 1.0)
            };
            ConfidenceResult {
                estimate: r.estimate,
                lower,
                upper,
                converged: earned,
                elapsed: r.elapsed,
                method: method.label(),
                stats: None,
                degraded: None,
            }
        }
        // Unbudgeted `DTreeExact` (every other d-tree run took the anytime
        // compiler above): plain exact evaluation, no leaf bounds computed
        // (the paper notes this can be faster than ε-approximation).
        _ => {
            let start = Instant::now();
            let compile_opts = compile_options(origins);
            let r = exact_probability_view(&mut arena, &root, space, &compile_opts, cache);
            ConfidenceResult {
                estimate: r.probability,
                lower: r.probability,
                upper: r.probability,
                converged: true,
                elapsed: start.elapsed(),
                method: method.label(),
                stats: Some(r.stats),
                degraded: None,
            }
        }
    }
}

/// [`confidence_with`], but for the anytime d-tree runs — budgeted
/// [`ConfidenceMethod::DTreeExact`] and the approximate d-tree methods — the
/// second return value carries a [`ResumableConfidence`] handle over the
/// d-tree frontier: truncated runs keep an open frontier later slices
/// tighten instead of recompiling, converged runs a settled frontier whose
/// purpose is absorbing appended lineage clauses
/// ([`ResumableConfidence::apply_delta`]) in streaming maintenance.
/// Unbudgeted [`ConfidenceMethod::DTreeExact`] (the plain exact evaluator)
/// and the Monte-Carlo methods (no d-tree to persist) return `None`. All
/// value-bearing fields are bit-identical to [`confidence_with`].
pub fn confidence_resumable(
    lineage: &Dnf,
    space: &ProbabilitySpace,
    origins: Option<&VarOrigins>,
    method: &ConfidenceMethod,
    budget: &ConfidenceBudget,
    seed: Option<u64>,
    cache: Option<&SubformulaCache>,
) -> (ConfidenceResult, Option<ResumableConfidence>) {
    let Some(error) = anytime_error(method, budget) else {
        // Unbudgeted exact evaluation and the Monte-Carlo methods have no
        // frontier to persist.
        return (confidence_with(lineage, space, origins, method, budget, seed, cache), None);
    };
    let compiler = ApproxCompiler::new(approx_options(error, origins, budget));
    let (r, handle) = compiler.run_resumable(lineage, space, cache);
    let handle = ResumableConfidence { inner: handle, method: method.label() };
    (dtree_result(r, method.label()), Some(handle))
}

/// The error guarantee of the anytime d-tree compiler run for `method`:
/// the approximate d-tree methods, and [`ConfidenceMethod::DTreeExact`] under
/// a budget, routed through the approximation compiler with ε = 0 so the
/// step/time budget actually applies and a hard lineage cannot stall a
/// batch (on truncation the result carries the still sound partial bounds
/// and `converged = false`). `None` for unbudgeted exact evaluation and the
/// Monte-Carlo methods.
fn anytime_error(method: &ConfidenceMethod, budget: &ConfidenceBudget) -> Option<ErrorBound> {
    let budgeted = budget.timeout.is_some() || budget.max_work.is_some();
    match method {
        ConfidenceMethod::DTreeExact if budgeted => Some(ErrorBound::Absolute(0.0)),
        ConfidenceMethod::DTreeAbsolute(e) => Some(ErrorBound::Absolute(*e)),
        ConfidenceMethod::DTreeRelative(e) => Some(ErrorBound::Relative(*e)),
        _ => None,
    }
}

/// Compilation options for a lineage with the given variable origins.
fn compile_options(origins: Option<&VarOrigins>) -> CompileOptions {
    match origins {
        Some(o) => CompileOptions::with_origins(o.clone()),
        None => CompileOptions::default(),
    }
}

/// Approximation options for `error` under `budget`.
fn approx_options(
    error: ErrorBound,
    origins: Option<&VarOrigins>,
    budget: &ConfidenceBudget,
) -> ApproxOptions {
    ApproxOptions {
        error,
        compile: compile_options(origins),
        max_steps: budget.max_work.map(|w| w as usize),
        timeout: budget.timeout,
    }
}

/// A d-tree approximation result as a [`ConfidenceResult`].
fn dtree_result(r: ApproxResult, method: String) -> ConfidenceResult {
    ConfidenceResult {
        estimate: r.estimate,
        lower: r.lower,
        upper: r.upper,
        converged: r.converged,
        elapsed: r.elapsed,
        method,
        stats: Some(r.stats),
        degraded: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::value::Value;

    fn sample_lineage() -> (Database, Dnf) {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "R",
            &["a"],
            vec![(vec![Value::Int(1)], 0.3), (vec![Value::Int(2)], 0.4)],
        );
        db.add_tuple_independent_table(
            "S",
            &["a", "b"],
            vec![
                (vec![Value::Int(1), Value::Int(10)], 0.5),
                (vec![Value::Int(1), Value::Int(20)], 0.6),
                (vec![Value::Int(2), Value::Int(10)], 0.7),
            ],
        );
        let q = crate::ConjunctiveQuery::new("q")
            .with_subgoal("R", vec![crate::Term::var("A")])
            .with_subgoal("S", vec![crate::Term::var("A"), crate::Term::var("B")]);
        let lineage = q.evaluate(&db)[0].lineage.clone();
        (db, lineage)
    }

    #[test]
    fn all_methods_agree_on_a_small_lineage() {
        let (db, lineage) = sample_lineage();
        let exact = lineage.exact_probability_enumeration(db.space());
        let budget = ConfidenceBudget::default();
        let methods = vec![
            ConfidenceMethod::DTreeExact,
            ConfidenceMethod::DTreeAbsolute(0.01),
            ConfidenceMethod::DTreeRelative(0.01),
            ConfidenceMethod::KarpLuby { epsilon: 0.05, delta: 0.01 },
            ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.02 },
        ];
        for m in methods {
            let r = confidence(&lineage, db.space(), Some(db.origins()), &m, &budget);
            assert!(
                (r.estimate - exact).abs() < 0.06,
                "{} estimate {} vs exact {exact}",
                r.method,
                r.estimate
            );
            assert!(!r.method.is_empty());
        }
    }

    #[test]
    fn dtree_methods_report_bounds() {
        let (db, lineage) = sample_lineage();
        let exact = lineage.exact_probability_enumeration(db.space());
        let r = confidence(
            &lineage,
            db.space(),
            Some(db.origins()),
            &ConfidenceMethod::DTreeAbsolute(0.001),
            &ConfidenceBudget::default(),
        );
        assert!(r.converged);
        assert!(r.lower <= exact + 1e-9 && exact <= r.upper + 1e-9);
        assert!((r.estimate - exact).abs() <= 0.001 + 1e-9);
    }

    #[test]
    fn budget_is_forwarded() {
        let (db, lineage) = sample_lineage();
        let budget = ConfidenceBudget { timeout: None, max_work: Some(1) };
        let r = confidence(
            &lineage,
            db.space(),
            None,
            &ConfidenceMethod::KarpLuby { epsilon: 1e-4, delta: 1e-4 },
            &budget,
        );
        assert!(!r.converged);
    }

    /// A chain DNF over more variables than the approximation's exact-leaf
    /// threshold, so a budgeted run genuinely has to decompose.
    fn hard_lineage() -> (events::ProbabilitySpace, Dnf) {
        let mut s = events::ProbabilitySpace::new();
        let vars: Vec<_> =
            (0..18).map(|i| s.add_bool(format!("x{i}"), 0.2 + 0.03 * i as f64)).collect();
        let phi = Dnf::from_clauses(
            (0..17)
                .map(|i| events::Clause::from_bools(&[vars[i], vars[i + 1]]))
                .collect::<Vec<_>>(),
        );
        (s, phi)
    }

    #[test]
    fn dtree_exact_respects_budget() {
        let (s, phi) = hard_lineage();
        // One decomposition step cannot finish this chain: the run must be
        // truncated, report sound bounds, and flag non-convergence instead of
        // silently ignoring the budget.
        let budget = ConfidenceBudget { timeout: None, max_work: Some(1) };
        let r = confidence(&phi, &s, None, &ConfidenceMethod::DTreeExact, &budget);
        assert!(!r.converged, "a 1-step budget must truncate: {r:?}");
        let exact = phi.exact_probability_enumeration(&s);
        assert!(r.lower <= exact + 1e-9 && exact <= r.upper + 1e-9);
        // Without a budget the same method converges to the exact value.
        let full =
            confidence(&phi, &s, None, &ConfidenceMethod::DTreeExact, &ConfidenceBudget::default());
        assert!(full.converged);
        assert!((full.estimate - exact).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_methods_report_interval_bounds() {
        let (db, lineage) = sample_lineage();
        let exact = lineage.exact_probability_enumeration(db.space());
        let budget = ConfidenceBudget::default();
        let kl = ConfidenceMethod::KarpLuby { epsilon: 0.1, delta: 0.01 };
        let r = confidence(&lineage, db.space(), None, &kl, &budget);
        // Relative (ε, δ) interval: strictly wider than a point, bracketing
        // the estimate, inside [0, 1].
        assert!(r.lower < r.estimate && r.estimate < r.upper, "{r:?}");
        assert!((0.0..=1.0).contains(&r.lower) && (0.0..=1.0).contains(&r.upper));
        assert!((r.lower - r.estimate / 1.1).abs() < 1e-12);
        assert!((r.upper - r.estimate / 0.9).abs() < 1e-12 || r.upper == 1.0);
        assert!(r.lower <= exact + 0.2, "interval should be near the true value");
        let naive = ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.05 };
        let r = confidence(&lineage, db.space(), None, &naive, &budget);
        // Additive (ε, δ) interval: estimate ± ε clamped to [0, 1].
        assert!((r.upper - r.lower) <= 0.1 + 1e-12);
        assert!(r.lower <= r.estimate && r.estimate <= r.upper);
        assert!((0.0..=1.0).contains(&r.lower) && (0.0..=1.0).contains(&r.upper));
    }

    /// Regression test: a Monte-Carlo run truncated by the budget has *not*
    /// earned its (ε, δ) interval — with a handful of samples the interval
    /// `p̂/(1±ε)` (or `p̂ ± ε`) around a noisy mean routinely excludes the
    /// true probability. A non-converged run must report the vacuous [0, 1].
    #[test]
    fn truncated_monte_carlo_reports_vacuous_interval() {
        let (db, lineage) = sample_lineage();
        let budget = ConfidenceBudget { timeout: None, max_work: Some(2) };
        let kl = ConfidenceMethod::KarpLuby { epsilon: 1e-4, delta: 1e-4 };
        let r = confidence(&lineage, db.space(), None, &kl, &budget);
        assert!(!r.converged, "2 samples cannot satisfy ε = 1e-4: {r:?}");
        assert_eq!(r.lower, 0.0, "truncated KL must not claim a lower bound: {r:?}");
        assert_eq!(r.upper, 1.0, "truncated KL must not claim an upper bound: {r:?}");
        let naive = ConfidenceMethod::NaiveMonteCarlo { epsilon: 1e-4 };
        let r = confidence(&lineage, db.space(), None, &naive, &budget);
        assert!(!r.converged);
        assert_eq!((r.lower, r.upper), (0.0, 1.0), "truncated naive run: {r:?}");
        // Converged runs keep their genuine (ε, δ) interval.
        let r = confidence(
            &lineage,
            db.space(),
            None,
            &ConfidenceMethod::KarpLuby { epsilon: 0.1, delta: 0.01 },
            &ConfidenceBudget::default(),
        );
        assert!(r.converged);
        assert!(r.lower > 0.0 && r.upper < 1.0, "{r:?}");
    }

    /// Regression test: a clause whose probability underflows to 0 leaves
    /// `aconf` no clause to sample from. Both Monte-Carlo methods answer
    /// without panicking, and `aconf` reports the vacuous [0, 1].
    #[test]
    fn underflowing_lineage_reports_vacuous_interval() {
        let mut space = ProbabilitySpace::new();
        let vars: Vec<_> = (0..400).map(|i| space.add_bool(format!("x{i}"), 0.1)).collect();
        let lineage = Dnf::from_clauses(vec![events::Clause::from_bools(&vars)]);
        let budget = ConfidenceBudget::default();
        let kl = ConfidenceMethod::KarpLuby { epsilon: 0.1, delta: 0.01 };
        let r = confidence_with(&lineage, &space, None, &kl, &budget, Some(1), None);
        assert_eq!((r.estimate, r.lower, r.upper, r.converged), (0.0, 0.0, 1.0, false), "{r:?}");
        let naive = ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.1 };
        let r = confidence_with(&lineage, &space, None, &naive, &budget, Some(1), None);
        assert_eq!((r.estimate, r.lower), (0.0, 0.0), "{r:?}");
    }

    #[test]
    fn seeded_monte_carlo_is_reproducible() {
        let (db, lineage) = sample_lineage();
        let budget = ConfidenceBudget::default();
        let m = ConfidenceMethod::KarpLuby { epsilon: 0.05, delta: 0.01 };
        let a = confidence_with(&lineage, db.space(), None, &m, &budget, Some(42), None);
        let b = confidence_with(&lineage, db.space(), None, &m, &budget, Some(42), None);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        let m = ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.05 };
        let a = confidence_with(&lineage, db.space(), None, &m, &budget, Some(7), None);
        let b = confidence_with(&lineage, db.space(), None, &m, &budget, Some(7), None);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }

    #[test]
    fn cached_confidence_is_bit_identical_to_uncached() {
        let (db, lineage) = sample_lineage();
        let budget = ConfidenceBudget::default();
        let cache = SubformulaCache::new();
        for m in [
            ConfidenceMethod::DTreeExact,
            ConfidenceMethod::DTreeAbsolute(0.01),
            ConfidenceMethod::DTreeRelative(0.01),
        ] {
            let plain = confidence(&lineage, db.space(), Some(db.origins()), &m, &budget);
            let cached = confidence_with(
                &lineage,
                db.space(),
                Some(db.origins()),
                &m,
                &budget,
                None,
                Some(&cache),
            );
            assert_eq!(plain.estimate.to_bits(), cached.estimate.to_bits(), "{}", plain.method);
            assert_eq!(plain.lower.to_bits(), cached.lower.to_bits());
            assert_eq!(plain.upper.to_bits(), cached.upper.to_bits());
            assert_eq!(plain.converged, cached.converged);
        }
    }

    #[test]
    fn resumable_truncation_resumes_to_the_exact_answer() {
        let (s, phi) = hard_lineage();
        let exact = phi.exact_probability_enumeration(&s);
        let budget = ConfidenceBudget { timeout: None, max_work: Some(2) };
        let (first, handle) = confidence_resumable(
            &phi,
            &s,
            None,
            &ConfidenceMethod::DTreeExact,
            &budget,
            None,
            None,
        );
        assert!(!first.converged, "2 steps must truncate: {first:?}");
        // The first result is bit-identical to the non-resumable front-end.
        let plain = confidence(&phi, &s, None, &ConfidenceMethod::DTreeExact, &budget);
        assert_eq!(plain.lower.to_bits(), first.lower.to_bits());
        assert_eq!(plain.upper.to_bits(), first.upper.to_bits());
        let mut handle = handle.expect("truncated run yields a handle");
        assert!(first.lower <= exact + 1e-9 && exact <= first.upper + 1e-9);
        assert!(handle.remaining_width() > 0.0);
        // An unlimited slice finishes the job.
        let done = handle.resume(&s, &ConfidenceBudget::default(), None);
        assert!(done.converged);
        assert!((done.estimate - exact).abs() < 1e-9);
        assert!(handle.is_converged());
        assert!(!handle.failed());
        assert_eq!(done.method, "d-tree(0)");
    }

    #[test]
    fn resumable_handle_presence_follows_method() {
        let (db, lineage) = sample_lineage();
        // Unbudgeted exact: cannot truncate.
        let (r, h) = confidence_resumable(
            &lineage,
            db.space(),
            Some(db.origins()),
            &ConfidenceMethod::DTreeExact,
            &ConfidenceBudget::default(),
            None,
            None,
        );
        assert!(r.converged && h.is_none());
        // Monte-Carlo: no d-tree frontier to persist, even truncated.
        let budget = ConfidenceBudget { timeout: None, max_work: Some(2) };
        let (r, h) = confidence_resumable(
            &lineage,
            db.space(),
            None,
            &ConfidenceMethod::KarpLuby { epsilon: 1e-4, delta: 1e-4 },
            &budget,
            Some(7),
            None,
        );
        assert!(!r.converged && h.is_none());
        // Converged d-tree runs hand back a settled (converged) frontier —
        // the seed streaming deltas are absorbed into.
        let (r, h) = confidence_resumable(
            &lineage,
            db.space(),
            Some(db.origins()),
            &ConfidenceMethod::DTreeAbsolute(0.1),
            &ConfidenceBudget { timeout: Some(Duration::from_secs(5)), max_work: None },
            None,
            None,
        );
        assert!(r.converged);
        let h = h.expect("converged runs pool their settled frontier");
        assert!(h.is_converged());
        assert_eq!(h.bounds(), (r.lower, r.upper));
    }

    #[test]
    fn resume_until_past_deadline_returns_promptly() {
        let (s, phi) = hard_lineage();
        let budget = ConfidenceBudget { timeout: None, max_work: Some(1) };
        let (first, handle) = confidence_resumable(
            &phi,
            &s,
            None,
            &ConfidenceMethod::DTreeExact,
            &budget,
            None,
            None,
        );
        let mut handle = handle.expect("truncated");
        let t0 = Instant::now();
        let r = handle.resume_until(&s, t0 - Duration::from_millis(1), None);
        assert!(t0.elapsed() < Duration::from_millis(50), "expired resume must be prompt");
        assert!(!r.converged);
        // Bounds unchanged — an expired slice does no work but loses nothing.
        assert_eq!(r.lower.to_bits(), first.lower.to_bits());
        assert_eq!(r.upper.to_bits(), first.upper.to_bits());
        assert!(!handle.failed());
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(ConfidenceMethod::DTreeExact.label(), "d-tree(0)");
        assert!(ConfidenceMethod::DTreeRelative(0.01).label().contains("rel"));
        assert!(ConfidenceMethod::KarpLuby { epsilon: 0.01, delta: 1e-4 }
            .label()
            .contains("aconf"));
        assert!(ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.1 }.label().contains("naive"));
        assert!(ConfidenceMethod::DTreeAbsolute(0.5).label().contains("abs"));
    }
}
