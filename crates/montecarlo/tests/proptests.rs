//! Property-based tests of the Monte-Carlo baselines: on random small DNFs
//! the Karp-Luby estimator must be unbiased enough to land near the true
//! probability, the DKLR stopping rule must respect its (ε, δ) contract, and
//! budgets must be honoured.

use events::{Clause, Dnf, LineageArena, ProbabilitySpace};
use montecarlo::{
    aconf, aconf_view, naive_monte_carlo, naive_monte_carlo_view, EstimatorVariant,
    KarpLubyEstimator, McOptions, NaiveOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_dnf() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
    let probs = prop::collection::vec(0.1f64..0.9, 2..7);
    probs.prop_flat_map(|ps| {
        let nvars = ps.len();
        let clause = prop::collection::btree_set(0..nvars, 1..=2.min(nvars));
        let clauses = prop::collection::vec(clause, 1..5)
            .prop_map(|cs| cs.into_iter().map(|c| c.into_iter().collect()).collect());
        (Just(ps), clauses)
    })
}

fn build(ps: &[f64], clause_vars: &[Vec<usize>]) -> (ProbabilitySpace, Dnf) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        ps.iter().enumerate().map(|(i, &p)| space.add_bool(format!("v{i}"), p)).collect();
    let clauses: Vec<Clause> = clause_vars
        .iter()
        .map(|c| Clause::from_bools(&c.iter().map(|&i| vars[i]).collect::<Vec<_>>()))
        .collect();
    (space, Dnf::from_clauses(clauses))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The normalized Karp-Luby estimator has mean P(Φ) / Σᵢ P(cᵢ): averaging
    /// many samples and re-scaling must land near the exact probability for
    /// both the zero-one and the fractional estimator variants.
    #[test]
    fn karp_luby_estimator_is_unbiased((ps, cs) in small_dnf(), seed in 0u64..500) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let (arena, view) = LineageArena::from_dnf(&dnf);
        for variant in [EstimatorVariant::ZeroOne, EstimatorVariant::Fractional] {
            let mut kl = KarpLubyEstimator::from_arena(&arena, &view, &space, variant);
            if let Some(p) = kl.trivial_probability() {
                prop_assert!((p - exact).abs() < 1e-9);
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 4000;
            let mut sum = 0.0;
            for _ in 0..n {
                sum += kl.sample_normalized(&mut rng);
            }
            let estimate = kl.total_weight() * sum / n as f64;
            prop_assert!(
                (estimate - exact).abs() <= 0.1 * exact + 0.05,
                "variant {variant:?}: estimate {estimate} vs exact {exact}"
            );
        }
    }

    /// The fractional estimator never has larger variance than the zero-one
    /// estimator on the same DNF (it is a Rao-Blackwellisation).
    #[test]
    fn fractional_variant_has_no_larger_variance((ps, cs) in small_dnf(), seed in 0u64..200) {
        let (space, dnf) = build(&ps, &cs);
        let (arena, view) = LineageArena::from_dnf(&dnf);
        let variance = |variant| {
            let mut kl = KarpLubyEstimator::from_arena(&arena, &view, &space, variant);
            if kl.trivial_probability().is_some() {
                return 0.0;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 3000;
            let samples: Vec<f64> = (0..n).map(|_| kl.sample_normalized(&mut rng)).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64
        };
        let v_zero_one = variance(EstimatorVariant::ZeroOne);
        let v_fractional = variance(EstimatorVariant::Fractional);
        // Allow sampling noise: the fractional variance may only exceed the
        // zero-one variance by a small tolerance.
        prop_assert!(v_fractional <= v_zero_one + 0.02,
            "fractional {v_fractional} vs zero-one {v_zero_one}");
    }

    /// `aconf` respects a hard sample budget and reports non-convergence when
    /// it is cut short.
    #[test]
    fn sample_budget_is_respected((ps, cs) in small_dnf()) {
        let (space, dnf) = build(&ps, &cs);
        let opts = McOptions::new(1e-4).with_seed(1).with_max_samples(50);
        let r = aconf(&dnf, &space, &opts);
        prop_assert!(r.samples <= 60, "{} samples", r.samples);
        // With such a tiny budget and tiny epsilon the run cannot converge
        // unless the probability is trivially known.
        if dnf.num_vars() > 1 {
            prop_assert!(!r.converged || r.samples == 0);
        }
        prop_assert!((0.0..=1.0).contains(&r.estimate));
    }

    /// The naive sampler's estimate is always a probability and is close to
    /// the truth for its additive guarantee.
    #[test]
    fn naive_sampler_is_a_probability((ps, cs) in small_dnf(), seed in 0u64..500) {
        let (space, dnf) = build(&ps, &cs);
        let exact = dnf.exact_probability_enumeration(&space);
        let r = naive_monte_carlo(&dnf, &space, &NaiveOptions::new(0.05).with_seed(seed));
        prop_assert!((0.0..=1.0).contains(&r.estimate));
        prop_assert!((r.estimate - exact).abs() <= 0.15);
    }

    /// Seeded Monte-Carlo runs are bit-identical whether the sampler is fed
    /// the owned DNF or an arena view of the same formula — the estimators
    /// evaluate against the arena directly without changing a single draw.
    #[test]
    fn samplers_are_bit_identical_across_representations(
        (ps, clause_vars) in small_dnf(),
        seed in 0u64..1_000_000,
    ) {
        let (space, dnf) = build(&ps, &clause_vars);
        let mut arena = LineageArena::new();
        let view = arena.intern(&dnf);
        let kl_opts = McOptions::new(0.1).with_delta(0.05).with_seed(seed);
        let owned = aconf(&dnf, &space, &kl_opts);
        let viewed = aconf_view(&arena, &view, &space, &kl_opts);
        prop_assert_eq!(owned.estimate.to_bits(), viewed.estimate.to_bits());
        prop_assert_eq!(owned.samples, viewed.samples);
        prop_assert_eq!(owned.converged, viewed.converged);
        let nv_opts = NaiveOptions::new(0.1).with_samples(500).with_seed(seed);
        let owned = naive_monte_carlo(&dnf, &space, &nv_opts);
        let viewed = naive_monte_carlo_view(&arena, &view, &space, &nv_opts);
        prop_assert_eq!(owned.estimate.to_bits(), viewed.estimate.to_bits());
        prop_assert_eq!(owned.samples, viewed.samples);
    }
}
