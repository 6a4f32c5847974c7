//! The Dagum-Karp-Luby-Ross "optimal algorithm for Monte-Carlo estimation"
//! driving the Karp-Luby estimator — the `aconf` operator of MayBMS that the
//! paper uses as its main baseline.
//!
//! The AA (approximation algorithm) of Dagum et al. consumes i.i.d. samples
//! `Z ∈ [0, 1]` with unknown mean `μ_Z` and returns an estimate `μ̃` such that
//! `Pr[|μ̃ − μ_Z| ≤ ε·μ_Z] ≥ 1 − δ`, using an (essentially optimal) number of
//! samples proportional to `ρ_Z / (ε·μ_Z)²` with `ρ_Z = max(σ²_Z, ε·μ_Z)`.
//! It proceeds in three phases:
//!
//! 1. **Stopping rule**: draw samples until their running sum exceeds
//!    `Υ₁ = 1 + (1 + ε')·Υ(ε', δ/3)`, yielding a first estimate `μ̂`.
//! 2. **Variance estimation**: draw `⌈Υ·ε/μ̂⌉` sample *pairs* to estimate
//!    `ρ_Z`.
//! 3. **Final run**: draw `⌈Υ·ρ̂/μ̂²⌉` samples and return their mean.
//!
//! where `Υ(ε, δ) = 4·(e − 2)·ln(2/δ)/ε²`. For the normalised Karp-Luby
//! estimator, `μ_Z = p / U` (probability over the clause-weight sum), so the
//! expected sample count scales with `U/p` — the behaviour that makes `aconf`
//! slow exactly when clause probabilities are small, as the paper's
//! experiments show.

use std::time::{Duration, Instant};

use events::{Dnf, DnfView, LineageArena, ProbabilitySpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::karp_luby::{EstimatorVariant, KarpLubyEstimator};

/// Options for the (ε, δ)-approximation.
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Relative error ε.
    pub epsilon: f64,
    /// Failure probability δ (the paper's experiments fix δ = 0.0001).
    pub delta: f64,
    /// Estimator variant (fractional by default).
    pub variant: EstimatorVariant,
    /// Hard cap on the total number of estimator invocations (`None` =
    /// unlimited). When hit, the current running mean is returned with
    /// `converged = false`.
    pub max_samples: Option<u64>,
    /// Wall-clock timeout.
    pub timeout: Option<Duration>,
    /// RNG seed (`None` = seed from entropy).
    pub seed: Option<u64>,
}

impl McOptions {
    /// `aconf(ε)` with the paper's δ = 0.0001 and no budget limits.
    pub fn new(epsilon: f64) -> Self {
        McOptions {
            epsilon,
            delta: 1e-4,
            variant: EstimatorVariant::default(),
            max_samples: None,
            timeout: None,
            seed: None,
        }
    }

    /// Sets the failure probability δ.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets a deterministic RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Caps the number of estimator invocations.
    pub fn with_max_samples(mut self, n: u64) -> Self {
        self.max_samples = Some(n);
        self
    }

    /// Sets a wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the estimator variant.
    pub fn with_variant(mut self, variant: EstimatorVariant) -> Self {
        self.variant = variant;
        self
    }
}

/// Result of a Monte-Carlo confidence approximation.
#[derive(Debug, Clone, Copy)]
pub struct McResult {
    /// The probability estimate.
    pub estimate: f64,
    /// Total number of Karp-Luby estimator invocations.
    pub samples: u64,
    /// `true` when the full DKLR schedule completed within the budget (so the
    /// (ε, δ) guarantee holds); `false` when a sample/time budget cut the run
    /// short.
    pub converged: bool,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// The DKLR-driven Karp-Luby approximation, prepared for one DNF.
#[derive(Debug)]
pub struct DklrEstimator {
    kl: KarpLubyEstimator,
    opts: McOptions,
}

/// Convenience wrapper: the MayBMS-style `aconf(ε, δ)` call on a lineage DNF.
/// Interns `dnf` into a fresh arena and runs [`aconf_view`].
pub fn aconf(dnf: &Dnf, space: &ProbabilitySpace, opts: &McOptions) -> McResult {
    let (arena, root) = LineageArena::from_dnf(dnf);
    aconf_view(&arena, &root, space, opts)
}

/// [`aconf`] on an interned lineage: the estimator samples against the arena
/// view directly. Seeded runs are bit-identical to [`aconf`] on the
/// materialised formula.
pub fn aconf_view(
    arena: &LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &McOptions,
) -> McResult {
    DklrEstimator::from_arena(arena, view, space, opts.clone()).run()
}

struct Budget {
    start: Instant,
    samples: u64,
    max_samples: Option<u64>,
    timeout: Option<Duration>,
}

impl Budget {
    fn exhausted(&self) -> bool {
        if let Some(max) = self.max_samples {
            if self.samples >= max {
                return true;
            }
        }
        if let Some(t) = self.timeout {
            // Check the clock only every 1024 samples to keep the sampling
            // loop cheap.
            if self.samples.is_multiple_of(1024) && self.start.elapsed() >= t {
                return true;
            }
        }
        false
    }
}

impl DklrEstimator {
    /// Prepares the estimator for the lineage `view` interned in `arena`
    /// (see [`KarpLubyEstimator::from_arena`]).
    pub fn from_arena(
        arena: &LineageArena,
        view: &DnfView,
        space: &ProbabilitySpace,
        opts: McOptions,
    ) -> Self {
        DklrEstimator { kl: KarpLubyEstimator::from_arena(arena, view, space, opts.variant), opts }
    }

    /// Runs the three-phase DKLR schedule.
    ///
    /// When every clause probability underflows to 0 (`U = 0`), no clause
    /// can be sampled: the run draws nothing and reports the estimate 0,
    /// unconverged, since the (ε, δ) guarantee was not earned.
    pub fn run(&mut self) -> McResult {
        let start = Instant::now();
        if let Some(p) = self.kl.trivial_probability() {
            return McResult { estimate: p, samples: 0, converged: true, elapsed: start.elapsed() };
        }
        if self.kl.total_weight() <= 0.0 {
            return McResult {
                estimate: 0.0,
                samples: 0,
                converged: false,
                elapsed: start.elapsed(),
            };
        }
        let mut rng = match self.opts.seed {
            Some(seed) => StdRng::seed_from_u64(seed),
            None => StdRng::from_entropy(),
        };
        let mut budget = Budget {
            start,
            samples: 0,
            max_samples: self.opts.max_samples,
            timeout: self.opts.timeout,
        };

        let eps = self.opts.epsilon.clamp(1e-9, 0.999_999);
        let delta = self.opts.delta.clamp(1e-12, 0.5);
        let u = self.kl.total_weight();

        // Phase 1: stopping rule with ε' = min(1/2, √ε), δ' = δ/3.
        let eps1 = eps.sqrt().min(0.5);
        let delta1 = delta / 3.0;
        let upsilon1 = 1.0 + (1.0 + eps1) * upsilon(eps1, delta1);
        let (mu_hat, phase1_mean, stopped_early) =
            self.stopping_rule(&mut rng, &mut budget, upsilon1);
        if stopped_early {
            return McResult {
                estimate: (u * phase1_mean).clamp(0.0, 1.0),
                samples: budget.samples,
                converged: false,
                elapsed: start.elapsed(),
            };
        }

        // Phase 2: estimate ρ_Z = max(σ², ε·μ) from sample pairs.
        let ups = upsilon(eps, delta / 3.0);
        let n2 = (ups * eps / mu_hat).ceil().max(1.0) as u64;
        let mut sq_sum = 0.0;
        let mut pairs = 0u64;
        while pairs < n2 {
            if budget.exhausted() {
                return McResult {
                    estimate: (u * mu_hat).clamp(0.0, 1.0),
                    samples: budget.samples,
                    converged: false,
                    elapsed: start.elapsed(),
                };
            }
            let a = self.kl.sample_normalized(&mut rng);
            let b = self.kl.sample_normalized(&mut rng);
            budget.samples += 2;
            sq_sum += (a - b) * (a - b) / 2.0;
            pairs += 1;
        }
        let rho_hat = (sq_sum / n2 as f64).max(eps * mu_hat);

        // Phase 3: final estimate with ⌈Υ·ρ̂/μ̂²⌉ samples.
        let n3 = (ups * rho_hat / (mu_hat * mu_hat)).ceil().max(1.0) as u64;
        let mut sum = 0.0;
        let mut taken = 0u64;
        while taken < n3 {
            if budget.exhausted() {
                let mean = if taken > 0 { sum / taken as f64 } else { mu_hat };
                return McResult {
                    estimate: (u * mean).clamp(0.0, 1.0),
                    samples: budget.samples,
                    converged: false,
                    elapsed: start.elapsed(),
                };
            }
            sum += self.kl.sample_normalized(&mut rng);
            budget.samples += 1;
            taken += 1;
        }
        McResult {
            estimate: (u * sum / n3 as f64).clamp(0.0, 1.0),
            samples: budget.samples,
            converged: true,
            elapsed: start.elapsed(),
        }
    }

    /// Phase-1 stopping rule: sample until the running sum reaches
    /// `threshold`; the estimate is `threshold / N`. Returns
    /// `(estimate, running_mean, stopped_early)`.
    fn stopping_rule<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        budget: &mut Budget,
        threshold: f64,
    ) -> (f64, f64, bool) {
        let mut sum = 0.0;
        let mut n = 0u64;
        while sum < threshold {
            if budget.exhausted() {
                let mean = if n > 0 { sum / n as f64 } else { 0.0 };
                return (mean, mean, true);
            }
            sum += self.kl.sample_normalized(rng);
            n += 1;
            budget.samples += 1;
        }
        (threshold / n as f64, sum / n as f64, false)
    }

    /// The prepared Karp-Luby estimator (exposed for tests and benches).
    pub fn estimator(&self) -> &KarpLubyEstimator {
        &self.kl
    }
}

/// `Υ(ε, δ) = 4·(e − 2)·ln(2/δ) / ε²` — the base sample-count constant of the
/// DKLR analysis.
fn upsilon(eps: f64, delta: f64) -> f64 {
    4.0 * (std::f64::consts::E - 2.0) * (2.0 / delta).ln() / (eps * eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::{Clause, VarId};

    fn bool_space(ps: &[f64]) -> (ProbabilitySpace, Vec<VarId>) {
        let mut s = ProbabilitySpace::new();
        let vars = ps.iter().enumerate().map(|(i, &p)| s.add_bool(format!("x{i}"), p)).collect();
        (s, vars)
    }

    fn example_dnf() -> (ProbabilitySpace, Dnf) {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
            Clause::from_bools(&[vars[3]]),
        ]);
        (s, phi)
    }

    #[test]
    fn upsilon_matches_formula() {
        let u = upsilon(0.1, 0.05);
        let expected = 4.0 * (std::f64::consts::E - 2.0) * (2.0f64 / 0.05).ln() / 0.01;
        assert!((u - expected).abs() < 1e-9);
    }

    #[test]
    fn trivial_formulas_need_no_samples() {
        let (s, _) = bool_space(&[0.5]);
        let r = aconf(&Dnf::empty(), &s, &McOptions::new(0.1));
        assert_eq!(r.estimate, 0.0);
        assert_eq!(r.samples, 0);
        assert!(r.converged);
        let r = aconf(&Dnf::tautology(), &s, &McOptions::new(0.1));
        assert_eq!(r.estimate, 1.0);
        assert!(r.converged);
    }

    #[test]
    fn aconf_meets_relative_error_on_example() {
        let (s, phi) = example_dnf();
        let exact = phi.exact_probability_enumeration(&s);
        // δ = 0.01, ε = 0.05: a single seeded run should comfortably land
        // within the relative error (the guarantee is probabilistic, but with
        // a fixed seed the test is deterministic).
        let opts = McOptions::new(0.05).with_delta(0.01).with_seed(0xabcd);
        let r = aconf(&phi, &s, &opts);
        assert!(r.converged);
        let rel = (r.estimate - exact).abs() / exact;
        assert!(rel <= 0.05, "relative error {rel} with estimate {} vs {exact}", r.estimate);
        assert!(r.samples > 0);
    }

    #[test]
    fn aconf_handles_small_probabilities_with_relative_guarantee() {
        let (s, vars) = bool_space(&[0.01, 0.02, 0.015, 0.03]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[2], vars[3]]),
        ]);
        let exact = phi.exact_probability_enumeration(&s);
        let opts = McOptions::new(0.1).with_delta(0.05).with_seed(99);
        let r = aconf(&phi, &s, &opts);
        assert!(r.converged);
        let rel = (r.estimate - exact).abs() / exact;
        assert!(rel <= 0.1, "relative error {rel}");
    }

    #[test]
    fn sample_budget_cuts_run_short() {
        let (s, phi) = example_dnf();
        let opts = McOptions::new(0.001).with_seed(7).with_max_samples(50);
        let r = aconf(&phi, &s, &opts);
        assert!(!r.converged);
        assert!(r.samples <= 52, "samples = {}", r.samples);
        // The truncated estimate is still a probability.
        assert!(r.estimate >= 0.0 && r.estimate <= phi.clause_probability_sum(&s) + 1e-9);
    }

    #[test]
    fn timeout_is_honoured() {
        let (s, phi) = example_dnf();
        let opts = McOptions::new(1e-6).with_seed(3).with_timeout(Duration::from_millis(5));
        let start = Instant::now();
        let r = aconf(&phi, &s, &opts);
        // Generous margin: the run must not take orders of magnitude longer
        // than the timeout (an unbounded ε = 1e-6 run would).
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(!r.converged || r.elapsed < Duration::from_secs(5));
    }

    #[test]
    fn tighter_epsilon_needs_more_samples() {
        let (s, phi) = example_dnf();
        let loose = aconf(&phi, &s, &McOptions::new(0.2).with_delta(0.05).with_seed(1));
        let tight = aconf(&phi, &s, &McOptions::new(0.05).with_delta(0.05).with_seed(1));
        assert!(loose.converged && tight.converged);
        assert!(
            tight.samples > loose.samples,
            "tight {} vs loose {}",
            tight.samples,
            loose.samples
        );
    }

    /// Regression test: one clause of 400 Boolean variables at p = 0.1 has
    /// probability 1e-400, which underflows to `U = 0`. There is no clause
    /// to sample from, so `aconf` draws nothing and reports an unconverged
    /// 0 instead of panicking on the empty range `0.0..0.0`.
    #[test]
    fn underflowing_clause_weights_do_not_panic() {
        let (s, vars) = bool_space(&[0.1; 400]);
        let phi = Dnf::from_clauses(vec![Clause::from_bools(&vars)]);
        for variant in [EstimatorVariant::Fractional, EstimatorVariant::ZeroOne] {
            let opts = McOptions::new(0.1).with_seed(1).with_variant(variant);
            let r = aconf(&phi, &s, &opts);
            assert_eq!((r.estimate, r.samples, r.converged), (0.0, 0, false));
            let (arena, view) = events::LineageArena::from_dnf(&phi);
            let mut kl = KarpLubyEstimator::from_arena(&arena, &view, &s, variant);
            assert_eq!(kl.total_weight(), 0.0);
            let mut rng = StdRng::seed_from_u64(1);
            assert_eq!(kl.sample_normalized(&mut rng), 0.0);
            assert_eq!(kl.sample(&mut rng), 0.0);
            assert_eq!(kl.estimate_with_samples(&mut rng, 10), 0.0);
        }
    }

    #[test]
    fn zero_one_variant_also_converges() {
        let (s, phi) = example_dnf();
        let exact = phi.exact_probability_enumeration(&s);
        let opts = McOptions::new(0.05)
            .with_delta(0.01)
            .with_seed(0x5eed)
            .with_variant(EstimatorVariant::ZeroOne);
        let r = aconf(&phi, &s, &opts);
        assert!(r.converged);
        let rel = (r.estimate - exact).abs() / exact;
        assert!(rel <= 0.06, "relative error {rel}");
    }
}
