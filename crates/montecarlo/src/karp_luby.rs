//! The Karp-Luby(-Madras) unbiased estimator for the probability of a DNF
//! over independent discrete random variables.
//!
//! The classic coverage estimator for the union probability `p = P(⋃ cᵢ)`
//! works as follows. Let `U = Σᵢ P(cᵢ)` (the sum of clause marginals, an
//! upper bound on `p`):
//!
//! 1. pick a clause `cᵢ` with probability `P(cᵢ)/U`,
//! 2. sample a possible world `w` from the distribution conditioned on
//!    `w ⊨ cᵢ` (clause variables pinned, all others sampled from their
//!    marginals),
//! 3. return `U · X(w, i)` where `X` is either
//!    * the **zero-one** estimate `1[i = min{j : w ⊨ cⱼ}]`, or
//!    * the **fractional** estimate `1 / |{j : w ⊨ cⱼ}|` (the smaller-variance
//!      variant from Vazirani's book that MayBMS' `aconf` uses and that the
//!      paper adopts).
//!
//! Both are unbiased: the expectation of the returned value is exactly `p`.
//!
//! The estimator is prepared once per DNF: its variables get dense local ids
//! in ascending variable order, and the clause atoms and the variables'
//! distributions are copied into flat buffers. A sample then writes its
//! world into one reused buffer over the local ids, with one uniform draw
//! per unpinned variable in ascending local id, and scans the flat atoms
//! against it, so sampling allocates nothing.

use events::{DnfView, LineageArena, ProbabilitySpace};
use rand::Rng;

use crate::dense::DenseDnf;

/// Which unbiased estimate to compute from a sampled world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorVariant {
    /// The fractional ("importance-weighted coverage") estimate
    /// `U / |{j : w ⊨ cⱼ}|`; lower variance, used by default (and by the
    /// paper's `aconf`).
    #[default]
    Fractional,
    /// The classic zero-one estimate `U · 1[i = min{j : w ⊨ cⱼ}]`.
    ZeroOne,
}

/// A prepared Karp-Luby estimator for a fixed DNF.
///
/// Preparation translates the lineage into a flat, dense form: the DNF's
/// variables get local ids `0..n` in ascending [`VarId`](events::VarId)
/// order, the clause atoms become one `(local id, value)` buffer with clause
/// offsets, and each variable's distribution is copied into one flat buffer.
/// It also pre-computes the clause probabilities and their cumulative
/// distribution (for clause sampling). The estimator then owns everything it
/// samples from, so it borrows neither the arena nor the probability space.
///
/// Each call to [`KarpLubyEstimator::sample`] pins the chosen clause's atoms
/// in a world buffer reused across samples, draws every other variable in
/// ascending local id and scans the flat atoms, with an early exit per
/// clause; it allocates nothing.
#[derive(Debug, Clone)]
pub struct KarpLubyEstimator {
    dnf: DenseDnf,
    clause_probs: Vec<f64>,
    cumulative: Vec<f64>,
    total_weight: f64,
    trivial: Option<f64>,
    variant: EstimatorVariant,
}

impl KarpLubyEstimator {
    /// Prepares the estimator for the lineage `view` interned in `arena`.
    pub fn from_arena(
        arena: &LineageArena,
        view: &DnfView,
        space: &ProbabilitySpace,
        variant: EstimatorVariant,
    ) -> KarpLubyEstimator {
        let n = view.len();
        let clause_probs: Vec<f64> =
            (0..n).map(|i| view.clause_probability(arena, space, i)).collect();
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in &clause_probs {
            acc += p;
            cumulative.push(acc);
        }
        let dnf = DenseDnf::new(arena, view, space);
        let trivial = if n == 0 {
            Some(0.0)
        } else if dnf.has_empty_clause() {
            Some(1.0)
        } else {
            None
        };
        KarpLubyEstimator { dnf, clause_probs, cumulative, total_weight: acc, trivial, variant }
    }

    /// The normalising constant `U = Σ P(cᵢ)` (an upper bound on the DNF
    /// probability).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of clauses of the prepared DNF.
    pub fn num_clauses(&self) -> usize {
        self.clause_probs.len()
    }

    /// `true` if the DNF is trivially false (no clauses) or trivially true
    /// (contains the empty clause); such inputs need no sampling.
    pub fn trivial_probability(&self) -> Option<f64> {
        self.trivial
    }

    /// Draws one unbiased estimate of the DNF probability (a value in
    /// `[0, U]` whose expectation is the exact probability).
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.total_weight * self.sample_normalized(rng)
    }

    /// Draws one *normalised* estimate in `[0, 1]` whose expectation is
    /// `p / U`; this is the form consumed by the stopping rules of the DKLR
    /// algorithm.
    ///
    /// When every clause probability underflows to 0 (so `U = 0`), no
    /// clause can be sampled and the estimate is 0.
    pub fn sample_normalized<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(p) = self.trivial {
            // For trivial inputs the normalised estimate is p/U when U > 0 or
            // simply p (0 or 1) otherwise.
            return if self.total_weight > 0.0 { p / self.total_weight } else { p };
        }
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        // 1. Sample a clause index proportionally to its probability.
        let idx = self.sample_clause_index(rng);
        // 2. Sample a world conditioned on that clause being satisfied.
        self.dnf.sample_world(Some(idx), rng);
        // 3. Count the satisfied clauses / find the minimum satisfied index.
        match self.variant {
            EstimatorVariant::Fractional => {
                let count = self.dnf.count_satisfied();
                debug_assert!(count >= 1, "conditioned world must satisfy the chosen clause");
                1.0 / count as f64
            }
            EstimatorVariant::ZeroOne => {
                if self.dnf.first_satisfied() == Some(idx) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    fn sample_clause_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let target = rng.gen_range(0.0..self.total_weight);
        // Binary search over the cumulative distribution.
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&target).expect("finite probabilities"))
        {
            Ok(i) => (i + 1).min(self.num_clauses() - 1),
            Err(i) => i.min(self.num_clauses() - 1),
        }
    }

    /// Average of `n` independent estimates — the plain (non-adaptive)
    /// Karp-Luby-Madras estimator.
    pub fn estimate_with_samples<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> f64 {
        if let Some(p) = self.trivial {
            return p;
        }
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = (0..n).map(|_| self.sample_normalized(rng)).sum();
        self.total_weight * sum / n as f64
    }

    /// Access to the per-clause marginal probabilities (used by tests).
    pub fn clause_probabilities(&self) -> &[f64] {
        &self.clause_probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use events::{Clause, Dnf, VarId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn total_weight_is_sum_of_clause_probabilities() {
        let (s, phi) = example_dnf();
        let (arena, view) = LineageArena::from_dnf(&phi);
        let est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::default());
        assert!((est.total_weight() - (0.06 + 0.21 + 0.8)).abs() < 1e-12);
        assert_eq!(est.num_clauses(), 3);
        assert_eq!(est.clause_probabilities().len(), 3);
    }

    /// An estimator over a private copy of the formula (the fresh arena
    /// `aconf(&Dnf)` interns into) and one prepared from a shared arena
    /// that already holds other clauses draw bit-identical seeded streams; so do
    /// seeded `aconf(&Dnf)` and `aconf_view`, for both estimator variants.
    #[test]
    fn arena_backed_estimator_is_bit_identical_to_copying_path() {
        let (s, phi) = example_dnf();
        let (copy, copy_view) = LineageArena::from_dnf(&phi);
        let mut shared = LineageArena::new();
        let other = Dnf::from_clauses(vec![Clause::from_bools(&[VarId(3), VarId(2)])]);
        shared.intern(&other);
        let view = shared.intern(&phi);
        for variant in [EstimatorVariant::Fractional, EstimatorVariant::ZeroOne] {
            let mut copied = KarpLubyEstimator::from_arena(&copy, &copy_view, &s, variant);
            let mut borrowed = KarpLubyEstimator::from_arena(&shared, &view, &s, variant);
            assert_eq!(copied.total_weight().to_bits(), borrowed.total_weight().to_bits());
            assert_eq!(copied.clause_probabilities(), borrowed.clause_probabilities());
            assert_eq!(copied.num_clauses(), borrowed.num_clauses());
            // Same-seeded streams must agree to the bit: both preparations
            // expose identical clause order, probabilities, and variable
            // order, so every RNG draw lands on the same decision.
            let mut rng_a = StdRng::seed_from_u64(0xa11e7a);
            let mut rng_b = StdRng::seed_from_u64(0xa11e7a);
            for _ in 0..200 {
                let a = copied.sample_normalized(&mut rng_a);
                let b = borrowed.sample_normalized(&mut rng_b);
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let mut rng_a = StdRng::seed_from_u64(0x5eed);
            let mut rng_b = StdRng::seed_from_u64(0x5eed);
            let ea = copied.estimate_with_samples(&mut rng_a, 500);
            let eb = borrowed.estimate_with_samples(&mut rng_b, 500);
            assert_eq!(ea.to_bits(), eb.to_bits());
            let opts =
                crate::McOptions::new(0.1).with_delta(0.05).with_seed(7).with_variant(variant);
            let owned = crate::aconf(&phi, &s, &opts);
            let viewed = crate::aconf_view(&shared, &view, &s, &opts);
            assert_eq!(owned.estimate.to_bits(), viewed.estimate.to_bits());
            assert_eq!(owned.samples, viewed.samples);
            assert_eq!(owned.converged, viewed.converged);
        }
    }

    #[test]
    fn trivial_inputs_are_detected() {
        let (s, _) = bool_space(&[0.5]);
        let (arena, view) = LineageArena::from_dnf(&Dnf::empty());
        let est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::default());
        assert_eq!(est.trivial_probability(), Some(0.0));
        let (arena, view) = LineageArena::from_dnf(&Dnf::tautology());
        let mut est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::default());
        assert_eq!(est.trivial_probability(), Some(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(est.estimate_with_samples(&mut rng, 10), 1.0);
    }

    #[test]
    fn fractional_estimator_converges_to_exact_probability() {
        let (s, phi) = example_dnf();
        let exact = phi.exact_probability_enumeration(&s);
        let (arena, view) = LineageArena::from_dnf(&phi);
        let mut est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::default());
        let mut rng = StdRng::seed_from_u64(42);
        let approx = est.estimate_with_samples(&mut rng, 40_000);
        assert!(
            (approx - exact).abs() < 0.01,
            "Karp-Luby fractional estimate {approx} too far from exact {exact}"
        );
    }

    #[test]
    fn zero_one_estimator_converges_to_exact_probability() {
        let (s, phi) = example_dnf();
        let exact = phi.exact_probability_enumeration(&s);
        let (arena, view) = LineageArena::from_dnf(&phi);
        let mut est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::ZeroOne);
        let mut rng = StdRng::seed_from_u64(7);
        let approx = est.estimate_with_samples(&mut rng, 60_000);
        assert!(
            (approx - exact).abs() < 0.015,
            "Karp-Luby zero-one estimate {approx} too far from exact {exact}"
        );
    }

    #[test]
    fn normalized_samples_are_within_unit_interval() {
        let (s, phi) = example_dnf();
        let (arena, view) = LineageArena::from_dnf(&phi);
        let mut est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::default());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = est.sample_normalized(&mut rng);
            assert!((0.0..=1.0).contains(&x), "normalised sample {x} outside [0,1]");
        }
    }

    #[test]
    fn estimator_handles_small_probabilities() {
        // All clause probabilities tiny: the estimator remains unbiased and
        // the relative structure is preserved (this is where naive sampling
        // fails but Karp-Luby keeps working).
        let (s, vars) = bool_space(&[0.001, 0.002, 0.001, 0.004]);
        let phi = Dnf::from_clauses(vec![
            Clause::from_bools(&[vars[0], vars[1]]),
            Clause::from_bools(&[vars[2], vars[3]]),
        ]);
        let exact = phi.exact_probability_enumeration(&s);
        let (arena, view) = LineageArena::from_dnf(&phi);
        let mut est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::default());
        let mut rng = StdRng::seed_from_u64(11);
        let approx = est.estimate_with_samples(&mut rng, 50_000);
        assert!(exact > 0.0);
        let rel_err = (approx - exact).abs() / exact;
        assert!(rel_err < 0.05, "relative error {rel_err} too large ({approx} vs {exact})");
    }

    #[test]
    fn multivalued_variables_are_sampled_correctly() {
        let mut s = ProbabilitySpace::new();
        let x = s.add_discrete("x", vec![0.2, 0.3, 0.5]);
        let y = s.add_bool("y", 0.4);
        let phi = Dnf::from_clauses(vec![
            Clause::from_atoms(vec![events::Atom::new(x, 1), events::Atom::pos(y)]),
            Clause::from_atoms(vec![events::Atom::new(x, 2)]),
        ]);
        let exact = phi.exact_probability_enumeration(&s);
        let (arena, view) = LineageArena::from_dnf(&phi);
        let mut est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::default());
        let mut rng = StdRng::seed_from_u64(23);
        let approx = est.estimate_with_samples(&mut rng, 40_000);
        assert!((approx - exact).abs() < 0.01, "{approx} vs {exact}");
    }

    #[test]
    fn zero_samples_return_zero() {
        let (s, phi) = example_dnf();
        let (arena, view) = LineageArena::from_dnf(&phi);
        let mut est = KarpLubyEstimator::from_arena(&arena, &view, &s, EstimatorVariant::default());
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(est.estimate_with_samples(&mut rng, 0), 0.0);
    }
}
