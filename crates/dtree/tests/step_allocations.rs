//! Allocation bounds of the decomposition-step primitives: the Shannon
//! variable choice that runs at every ⊕ node, and the exact fold of a small
//! leaf.
//!
//! The choice's input is a two-origin chain `x₀y₀ ∨ x₀y₁ ∨ x₁y₁ ∨ x₁y₂ ∨ …`:
//! every variable co-occurs with at most two variables of the other group,
//! so no variable qualifies for the IQ order of Lemma 6.8 and
//! `IqThenFrequent` tests every candidate before it falls back to the most
//! frequent one. The chooser sorts the view's `(variable, clause)`
//! incidences once and tests the candidates with flat buffers, so it makes a
//! constant number of allocations, however many clauses the view has.
//!
//! The exact fold runs on leaves of 12 variables, the dense kernel's limit:
//! a chain, and a formula that needs at least 20 Shannon expansions. The
//! kernel keeps every sub-view on one stack sized up front, so both folds
//! make the same small number of allocations, however many d-tree nodes
//! they visit.
//!
//! The counting allocator is process-wide, so this file holds a single test.

use std::alloc::System;

use dtree::{choose_variable, exact_probability_view, CompileOptions, VarOrder};
use events::{Clause, Dnf, LineageArena, ProbabilitySpace, VarOrigins};
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::new(System);

/// Allocations the choice may make, whatever the clause count.
const BOUND: usize = 16;

/// Allocations an exact fold of a small leaf may make, whatever its size.
const FOLD_BOUND: usize = 2;

/// Allocations plus reallocations made by `f`.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let region = Region::new(&GLOBAL);
    let out = f();
    let change = region.change();
    (out, change.allocations + change.reallocations)
}

#[test]
fn step_primitives_allocate_a_constant() {
    for n in [50, 2000] {
        let mut space = ProbabilitySpace::new();
        let mut origins = VarOrigins::new();
        let mut add = |name: String, group: u32| {
            let var = space.add_bool(name, 0.5);
            origins.set(var, group);
            var
        };
        let x: Vec<_> = (0..n).map(|i| add(format!("x{i}"), 0)).collect();
        let y: Vec<_> = (0..=n).map(|j| add(format!("y{j}"), 1)).collect();
        let dnf = Dnf::from_clauses((0..n).flat_map(|i| {
            [Clause::from_bools(&[x[i], y[i]]), Clause::from_bools(&[x[i], y[i + 1]])]
        }));
        let (arena, view) = LineageArena::from_dnf(&dnf);
        assert_eq!(view.len(), 2 * n);

        let (var, allocations) = allocations_of(|| {
            choose_variable(&arena, &view, &VarOrder::IqThenFrequent, Some(&origins))
        });

        // No IQ variable: the most frequent one, the smallest id among ties.
        assert_eq!(var, view.most_frequent_var(&arena));
        assert_eq!(var, Some(x[0]));
        assert!(
            allocations <= BOUND,
            "choose_variable made {allocations} allocations for {} clauses (bound {BOUND})",
            view.len()
        );
    }

    let mut space = ProbabilitySpace::new();
    let v: Vec<_> =
        (0..12).map(|i| space.add_bool(format!("v{i}"), 0.2 + 0.05 * i as f64)).collect();
    let chain = Dnf::from_clauses((0..11).map(|i| Clause::from_bools(&[v[i], v[i + 1]])));
    // The triples `vᵢ vᵢ₊₁ vᵢ₊₃` around a 12-cycle: every cofactor stays
    // connected for several expansions.
    let dense = Dnf::from_clauses(
        (0..12).map(|i| Clause::from_bools(&[v[i], v[(i + 1) % 12], v[(i + 3) % 12]])),
    );
    let mut counts = Vec::new();
    for dnf in [&chain, &dense] {
        let (mut arena, view) = LineageArena::from_dnf(dnf);
        let opts = CompileOptions::default();
        let (r, allocations) =
            allocations_of(|| exact_probability_view(&mut arena, &view, &space, &opts, None));
        assert!((r.probability - dnf.exact_probability_enumeration(&space)).abs() < 1e-12);
        counts.push((r.stats.xor_nodes, r.stats.total_nodes(), allocations));
    }
    assert!(counts[1].0 >= 20, "the dense formula needs 20 Shannon expansions: {counts:?}");
    assert_eq!(counts[0].2, counts[1].2, "(⊕ nodes, nodes, allocations): {counts:?}");
    assert!(counts[0].2 <= FOLD_BOUND, "(⊕ nodes, nodes, allocations): {counts:?}");
}
