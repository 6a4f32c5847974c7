//! Naive Monte-Carlo estimation by direct possible-world sampling.
//!
//! Sampling worlds uniformly from the product distribution and reporting the
//! fraction that satisfy the DNF gives an *additive* (ε, δ)-approximation via
//! the Hoeffding bound with `N = ⌈ln(2/δ) / (2ε²)⌉` samples. It is included
//! as a second baseline: for the small result probabilities created by
//! multi-join queries it is useless (the relative error blows up), which is
//! exactly why probabilistic database systems use the Karp-Luby estimator
//! instead.

use std::time::{Duration, Instant};

use events::{Dnf, DnfView, LineageArena, ProbabilitySpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dense::DenseDnf;
use crate::dklr::McResult;

/// Options for the naive sampler.
#[derive(Debug, Clone)]
pub struct NaiveOptions {
    /// Additive error ε.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Explicit sample count override (`None` = use the Hoeffding count).
    pub samples: Option<u64>,
    /// Wall-clock timeout.
    pub timeout: Option<Duration>,
    /// RNG seed.
    pub seed: Option<u64>,
}

impl NaiveOptions {
    /// Additive (ε, δ) options with δ = 0.0001.
    pub fn new(epsilon: f64) -> Self {
        NaiveOptions { epsilon, delta: 1e-4, samples: None, timeout: None, seed: None }
    }

    /// Sets a deterministic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides the sample count.
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = Some(samples);
        self
    }

    /// Sets the failure probability.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Number of samples mandated by the Hoeffding bound for the configured
    /// (ε, δ).
    pub fn hoeffding_samples(&self) -> u64 {
        let eps = self.epsilon.clamp(1e-9, 1.0);
        let delta = self.delta.clamp(1e-12, 0.5);
        ((2.0f64 / delta).ln() / (2.0 * eps * eps)).ceil() as u64
    }
}

/// Estimates the probability of `dnf` by sampling complete possible worlds.
/// Interns `dnf` into a fresh arena and runs [`naive_monte_carlo_view`].
pub fn naive_monte_carlo(dnf: &Dnf, space: &ProbabilitySpace, opts: &NaiveOptions) -> McResult {
    let (arena, root) = LineageArena::from_dnf(dnf);
    naive_monte_carlo_view(&arena, &root, space, opts)
}

/// [`naive_monte_carlo`] on an interned lineage. The view is translated once
/// into the samplers' flat, dense form (see [`crate::KarpLubyEstimator`]);
/// each sample draws every variable in ascending variable order into one
/// reused world buffer, so sampling allocates nothing. Seeded runs are
/// bit-identical to [`naive_monte_carlo`] on the materialised formula.
pub fn naive_monte_carlo_view(
    arena: &LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &NaiveOptions,
) -> McResult {
    let start = Instant::now();
    if view.is_empty() {
        return McResult { estimate: 0.0, samples: 0, converged: true, elapsed: start.elapsed() };
    }
    if view.is_tautology(arena) {
        return McResult { estimate: 1.0, samples: 0, converged: true, elapsed: start.elapsed() };
    }
    let mut rng = match opts.seed {
        Some(seed) => StdRng::seed_from_u64(seed),
        None => StdRng::from_entropy(),
    };
    let mut dnf = DenseDnf::new(arena, view, space);
    let target = opts.samples.unwrap_or_else(|| opts.hoeffding_samples());
    let mut hits = 0u64;
    let mut taken = 0u64;
    while taken < target {
        if let Some(t) = opts.timeout {
            if taken.is_multiple_of(1024) && start.elapsed() >= t {
                break;
            }
        }
        dnf.sample_world(None, &mut rng);
        if dnf.first_satisfied().is_some() {
            hits += 1;
        }
        taken += 1;
    }
    let estimate = if taken == 0 { 0.0 } else { hits as f64 / taken as f64 };
    McResult { estimate, samples: taken, converged: taken >= target, elapsed: start.elapsed() }
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

    #[test]
    fn hoeffding_sample_count() {
        let opts = NaiveOptions::new(0.05).with_delta(0.01);
        // ln(200)/(2*0.0025) ≈ 1059.66…
        assert_eq!(opts.hoeffding_samples(), 1060);
    }

    #[test]
    fn converges_on_moderate_probabilities() {
        let (s, vars) = bool_space(&[0.3, 0.2, 0.7, 0.8]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[0], vars[2]]),
            Clause::from_bools(&[vars[3]]),
        ]);
        let exact = phi.exact_probability_enumeration(&s);
        let r = naive_monte_carlo(&phi, &s, &NaiveOptions::new(0.02).with_delta(0.01).with_seed(4));
        assert!(r.converged);
        assert!((r.estimate - exact).abs() <= 0.02, "estimate {} exact {exact}", r.estimate);
    }

    #[test]
    fn trivial_formulas() {
        let (s, _) = bool_space(&[0.5]);
        assert_eq!(naive_monte_carlo(&Dnf::empty(), &s, &NaiveOptions::new(0.1)).estimate, 0.0);
        assert_eq!(naive_monte_carlo(&Dnf::tautology(), &s, &NaiveOptions::new(0.1)).estimate, 1.0);
    }

    #[test]
    fn explicit_sample_override() {
        let (s, vars) = bool_space(&[0.5, 0.5]);
        let phi = Dnf::from_clauses(vec![Clause::from_bools(&[vars[0], vars[1]])]);
        let r = naive_monte_carlo(&phi, &s, &NaiveOptions::new(0.5).with_samples(100).with_seed(1));
        assert_eq!(r.samples, 100);
        assert!(r.converged);
    }

    /// The documented weakness: for tiny probabilities the additive sampler
    /// reports 0 (or wildly wrong relative values) with realistic budgets.
    #[test]
    fn small_probabilities_defeat_naive_sampling() {
        let (s, vars) = bool_space(&[0.001, 0.001]);
        let phi = Dnf::from_clauses(vec![Clause::from_bools(&[vars[0], vars[1]])]);
        let exact = phi.exact_probability_enumeration(&s); // 1e-6
        let r =
            naive_monte_carlo(&phi, &s, &NaiveOptions::new(0.01).with_samples(1000).with_seed(2));
        // Additive error fine, relative error terrible.
        assert!((r.estimate - exact).abs() <= 0.01);
        assert!(r.estimate == 0.0 || (r.estimate - exact).abs() / exact > 10.0);
    }
}
