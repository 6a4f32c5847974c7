//! Allocation bound of the Monte-Carlo samplers: preparation allocates,
//! sampling does not.
//!
//! Both samplers translate the lineage once into flat buffers and draw every
//! world into one reused buffer, so a seeded run makes the same number of
//! allocations whether it takes 1,000 samples or 50,000.
//!
//! The counting allocator is process-wide, so this file holds a single test.

use std::alloc::System;

use events::{Atom, Clause, Dnf, LineageArena, ProbabilitySpace};
use montecarlo::{aconf_view, naive_monte_carlo_view, McOptions, NaiveOptions};
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::new(System);

fn allocations<T>(run: impl FnOnce() -> T) -> (usize, T) {
    let region = Region::new(&GLOBAL);
    let out = run();
    let change = region.change();
    (change.allocations + change.reallocations, out)
}

#[test]
fn samplers_allocate_per_run_not_per_sample() {
    // Twelve overlapping clauses over Boolean and multi-valued variables.
    let mut space = ProbabilitySpace::new();
    let x: Vec<_> = (0..8).map(|i| space.add_bool(format!("x{i}"), 0.3)).collect();
    let b: Vec<_> =
        (0..4).map(|i| space.add_discrete(format!("b{i}"), vec![0.2, 0.3, 0.5])).collect();
    let dnf = Dnf::from_clauses((0..12).map(|i| {
        Clause::from_atoms([Atom::pos(x[i % 8]), Atom::pos(x[(i + 3) % 8]), Atom::new(b[i % 4], 2)])
    }));
    let (arena, view) = LineageArena::from_dnf(&dnf);

    // ε = 0.01 needs far more than 50,000 samples, so both caps cut the run.
    let aconf_run = |max| {
        let opts = McOptions::new(0.01).with_seed(5).with_max_samples(max);
        allocations(|| aconf_view(&arena, &view, &space, &opts))
    };
    let (short, r) = aconf_run(1_000);
    assert_eq!(r.samples, 1_000);
    let (long, r) = aconf_run(50_000);
    assert_eq!(r.samples, 50_000);
    assert!(!r.converged);
    assert_eq!(short, long, "aconf_view: {short} allocations at 1,000 samples, {long} at 50,000");

    let naive_run = |samples| {
        let opts = NaiveOptions::new(0.1).with_samples(samples).with_seed(5);
        allocations(|| naive_monte_carlo_view(&arena, &view, &space, &opts))
    };
    let (short, r) = naive_run(1_000);
    assert_eq!(r.samples, 1_000);
    let (long, r) = naive_run(50_000);
    assert_eq!(r.samples, 50_000);
    assert_eq!(short, long, "naive: {short} allocations at 1,000 samples, {long} at 50,000");
}
