//! Differential test of the Monte-Carlo samplers against the tree-map world
//! sampler they replaced.
//!
//! The oracle below is the straightforward sampler: it keeps each sampled
//! world in an `events::Valuation` (a `BTreeMap` from variable to value),
//! reads the distributions from the `ProbabilitySpace` on every draw and
//! checks each clause atom by a map lookup, under the same DKLR schedule.
//! On random tuple-independent and block-independent-disjoint DNFs, the
//! seeded `aconf_view` and `naive_monte_carlo_view` must return the oracle's
//! estimate to the bit, with the same sample count and convergence flag —
//! also when a `max_samples` cut ends the run inside each DKLR phase.

use events::{Atom, Clause, Dnf, DnfView, LineageArena, ProbabilitySpace, Valuation, VarId};
use montecarlo::{
    aconf_view, naive_monte_carlo_view, EstimatorVariant, McOptions, McResult, NaiveOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 200;

/// The tree-map Karp-Luby estimator.
struct OracleKarpLuby {
    clauses: Vec<Vec<Atom>>,
    cumulative: Vec<f64>,
    total_weight: f64,
    vars: Vec<VarId>,
    variant: EstimatorVariant,
}

impl OracleKarpLuby {
    fn new(
        arena: &LineageArena,
        view: &DnfView,
        space: &ProbabilitySpace,
        variant: EstimatorVariant,
    ) -> Self {
        let clauses: Vec<Vec<Atom>> =
            (0..view.len()).map(|i| view.clause_slice(arena, i).to_vec()).collect();
        let mut cumulative = Vec::new();
        let mut acc = 0.0;
        for i in 0..view.len() {
            acc += view.clause_probability(arena, space, i);
            cumulative.push(acc);
        }
        let vars = view.vars(arena).into_iter().collect();
        OracleKarpLuby { clauses, cumulative, total_weight: acc, vars, variant }
    }

    fn sample_normalized(&self, space: &ProbabilitySpace, rng: &mut StdRng) -> f64 {
        let n = self.clauses.len();
        let target = rng.gen_range(0.0..self.total_weight);
        let idx = match self.cumulative.binary_search_by(|p| p.partial_cmp(&target).unwrap()) {
            Ok(i) => (i + 1).min(n - 1),
            Err(i) => i.min(n - 1),
        };
        let mut world = Valuation::new();
        for atom in &self.clauses[idx] {
            world.assign(atom.var, atom.value);
        }
        for &v in &self.vars {
            if world.value(v).is_none() {
                world.assign(v, sample_value(space, v, rng));
            }
        }
        let sat = |c: &Vec<Atom>| c.iter().all(|a| world.value(a.var) == Some(a.value));
        match self.variant {
            EstimatorVariant::Fractional => {
                1.0 / self.clauses.iter().filter(|c| sat(c)).count() as f64
            }
            EstimatorVariant::ZeroOne => {
                if self.clauses.iter().position(sat) == Some(idx) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

fn sample_value(space: &ProbabilitySpace, var: VarId, rng: &mut StdRng) -> u32 {
    let domain = space.domain_size(var);
    let mut target = rng.gen_range(0.0..1.0);
    for value in 0..domain {
        let p = space.prob(var, value);
        if target < p {
            return value;
        }
        target -= p;
    }
    domain - 1
}

/// What the oracle DKLR run returns: `(estimate, samples, converged)` and
/// the sample counts at which phases 1 and 2 ended (`None` if the run
/// stopped before).
struct OracleRun {
    result: (f64, u64, bool),
    phase_ends: [Option<u64>; 2],
}

/// The three-phase DKLR schedule on the oracle estimator, with a sample cap.
fn oracle_aconf(
    arena: &LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    opts: &McOptions,
) -> OracleRun {
    let kl = OracleKarpLuby::new(arena, view, space, opts.variant);
    let mut rng = StdRng::seed_from_u64(opts.seed.expect("seeded"));
    let max = opts.max_samples.unwrap_or(u64::MAX);
    let mut samples = 0u64;
    let mut phase_ends = [None; 2];
    let eps = opts.epsilon.clamp(1e-9, 0.999_999);
    let delta = opts.delta.clamp(1e-12, 0.5);
    let u = kl.total_weight;
    let done = |estimate: f64, samples, converged, phase_ends| OracleRun {
        result: ((u * estimate).clamp(0.0, 1.0), samples, converged),
        phase_ends,
    };

    let eps1 = eps.sqrt().min(0.5);
    let threshold = 1.0 + (1.0 + eps1) * upsilon(eps1, delta / 3.0);
    let mut sum = 0.0;
    let mut n = 0u64;
    while sum < threshold {
        if samples >= max {
            let mean = if n > 0 { sum / n as f64 } else { 0.0 };
            return done(mean, samples, false, phase_ends);
        }
        sum += kl.sample_normalized(space, &mut rng);
        n += 1;
        samples += 1;
    }
    let mu_hat = threshold / n as f64;
    phase_ends[0] = Some(samples);

    let ups = upsilon(eps, delta / 3.0);
    let n2 = (ups * eps / mu_hat).ceil().max(1.0) as u64;
    let mut sq_sum = 0.0;
    for _ in 0..n2 {
        if samples >= max {
            return done(mu_hat, samples, false, phase_ends);
        }
        let a = kl.sample_normalized(space, &mut rng);
        let b = kl.sample_normalized(space, &mut rng);
        samples += 2;
        sq_sum += (a - b) * (a - b) / 2.0;
    }
    let rho_hat = (sq_sum / n2 as f64).max(eps * mu_hat);
    phase_ends[1] = Some(samples);

    let n3 = (ups * rho_hat / (mu_hat * mu_hat)).ceil().max(1.0) as u64;
    let mut sum = 0.0;
    for taken in 0..n3 {
        if samples >= max {
            let mean = if taken > 0 { sum / taken as f64 } else { mu_hat };
            return done(mean, samples, false, phase_ends);
        }
        sum += kl.sample_normalized(space, &mut rng);
        samples += 1;
    }
    OracleRun { result: ((u * sum / n3 as f64).clamp(0.0, 1.0), samples, true), phase_ends }
}

fn upsilon(eps: f64, delta: f64) -> f64 {
    4.0 * (std::f64::consts::E - 2.0) * (2.0 / delta).ln() / (eps * eps)
}

/// The naive possible-world sampler on a tree-map world.
fn oracle_naive(
    arena: &LineageArena,
    view: &DnfView,
    space: &ProbabilitySpace,
    samples: u64,
    seed: u64,
) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vars: Vec<VarId> = view.vars(arena).into_iter().collect();
    let mut hits = 0u64;
    for _ in 0..samples {
        let mut world = Valuation::new();
        for &v in &vars {
            world.assign(v, sample_value(space, v, &mut rng));
        }
        if view.atoms(arena).any(|mut c| c.all(|a| world.value(a.var) == Some(a.value))) {
            hits += 1;
        }
    }
    (hits as f64 / samples as f64, samples)
}

/// A random DNF over Boolean (tuple-independent) variables, multi-valued
/// (block-independent-disjoint) variables with 3 to 5 values, or both.
/// Clause widths are mixed, from 1 to 5 atoms; every eighth case is a
/// single-clause DNF.
fn random_dnf(case: u64) -> (ProbabilitySpace, Dnf) {
    let mut rng = StdRng::seed_from_u64(0xd1ff_0000 + case);
    let mut space = ProbabilitySpace::new();
    let (bools, discretes) = match case % 3 {
        0 => (rng.gen_range(2..10), 0),
        1 => (0, rng.gen_range(2..7)),
        _ => (rng.gen_range(1..7), rng.gen_range(1..5)),
    };
    let mut vars = Vec::new();
    for i in 0..bools {
        vars.push(space.add_bool(format!("t{i}"), rng.gen_range(0.05..0.95)));
    }
    for i in 0..discretes {
        let domain = rng.gen_range(3..6);
        let weights: Vec<f64> = (0..domain).map(|_| rng.gen_range(0.1..1.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut dist: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let head: f64 = dist[..domain - 1].iter().sum();
        dist[domain - 1] = 1.0 - head;
        vars.push(space.add_discrete(format!("b{i}"), dist));
    }
    let num_clauses = if case % 8 == 7 { 1 } else { rng.gen_range(2..14) };
    let clauses = (0..num_clauses).map(|_| {
        let width = rng.gen_range(1..6usize).min(vars.len());
        let atoms: Vec<Atom> = (0..width)
            .map(|_| {
                let var = vars[rng.gen_range(0..vars.len())];
                Atom::new(var, rng.gen_range(0..space.domain_size(var)))
            })
            .collect();
        Clause::from_atoms(atoms)
    });
    let dnf = Dnf::from_clauses(clauses.collect::<Vec<_>>());
    (space, dnf)
}

fn bits(r: &McResult) -> (u64, u64, bool) {
    (r.estimate.to_bits(), r.samples, r.converged)
}

fn oracle_bits(r: (f64, u64, bool)) -> (u64, u64, bool) {
    (r.0.to_bits(), r.1, r.2)
}

#[test]
fn aconf_matches_tree_map_oracle_in_every_phase() {
    let mut cut_phases = [0usize; 3];
    for case in 0..CASES {
        let (space, dnf) = random_dnf(case);
        // A shared arena with other clauses interned first, so the view's
        // clauses do not start at pool offset 0.
        let mut arena = LineageArena::new();
        arena.intern(&random_dnf(case + CASES).1);
        let view = arena.intern(&dnf);
        if view.is_empty() || view.is_tautology(&arena) {
            continue;
        }
        for variant in [EstimatorVariant::Fractional, EstimatorVariant::ZeroOne] {
            let opts = McOptions::new(0.2).with_delta(0.05).with_seed(case).with_variant(variant);
            let full = oracle_aconf(&arena, &view, &space, &opts);
            let got = aconf_view(&arena, &view, &space, &opts);
            assert_eq!(bits(&got), oracle_bits(full.result), "case {case} {variant:?}");
            assert!(got.converged, "case {case}: the uncut run converges");

            // Cut the run halfway through each phase.
            let [end1, end2] = full.phase_ends.map(|e| e.expect("the uncut run ends each phase"));
            let cuts = [end1 / 2, end1 + (end2 - end1) / 2, end2 + (full.result.1 - end2) / 2];
            for (phase, cut) in cuts.into_iter().enumerate() {
                let opts = opts.clone().with_max_samples(cut);
                let want = oracle_aconf(&arena, &view, &space, &opts);
                let got = aconf_view(&arena, &view, &space, &opts);
                assert_eq!(bits(&got), oracle_bits(want.result), "case {case} {variant:?} {cut}");
                if !got.converged {
                    cut_phases[phase] += 1;
                }
            }
        }
    }
    // Every phase was actually cut in most cases.
    for (phase, &count) in cut_phases.iter().enumerate() {
        assert!(count as u64 >= CASES, "phase {} cut only {count} times", phase + 1);
    }
}

#[test]
fn naive_sampler_matches_tree_map_oracle() {
    for case in 0..CASES {
        let (space, dnf) = random_dnf(case);
        let (arena, view) = LineageArena::from_dnf(&dnf);
        if view.is_empty() || view.is_tautology(&arena) {
            continue;
        }
        let opts = NaiveOptions::new(0.1).with_samples(300).with_seed(case);
        let got = naive_monte_carlo_view(&arena, &view, &space, &opts);
        let (estimate, samples) = oracle_naive(&arena, &view, &space, 300, case);
        assert_eq!(bits(&got), (estimate.to_bits(), samples, true), "case {case}");
    }
}

#[test]
fn random_dnfs_cover_both_variable_kinds_and_single_clauses() {
    let (mut multi_valued, mut single, mut wide) = (0, 0, 0);
    for case in 0..CASES {
        let (space, dnf) = random_dnf(case);
        multi_valued += usize::from(dnf.vars().iter().any(|&v| space.domain_size(v) >= 3));
        single += usize::from(dnf.len() == 1);
        wide += usize::from(dnf.clauses().iter().any(|c| c.len() >= 3));
    }
    assert!(multi_valued >= 100 && single >= 20 && wide >= 100, "{multi_valued} {single} {wide}");
}
