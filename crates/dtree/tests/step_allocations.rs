//! Allocation bound of the Shannon variable choice, the decomposition step
//! primitive that runs at every ⊕ node.
//!
//! The input is a two-origin chain `x₀y₀ ∨ x₀y₁ ∨ x₁y₁ ∨ x₁y₂ ∨ …`: every
//! variable co-occurs with at most two variables of the other group, so no
//! variable qualifies for the IQ order of Lemma 6.8 and `IqThenFrequent`
//! tests every candidate before it falls back to the most frequent one.
//! The chooser sorts the view's `(variable, clause)` incidences once and
//! tests the candidates with flat buffers, so it makes a constant number of
//! allocations, however many clauses the view has.
//!
//! The counting allocator is process-wide, so this file holds a single test.

use std::alloc::System;

use dtree::{choose_variable, VarOrder};
use events::{Clause, Dnf, LineageArena, ProbabilitySpace, VarOrigins};
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::new(System);

/// Allocations the choice may make, whatever the clause count.
const BOUND: usize = 16;

#[test]
fn iq_variable_choice_allocates_a_constant() {
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

        let region = Region::new(&GLOBAL);
        let var = choose_variable(&arena, &view, &VarOrder::IqThenFrequent, Some(&origins));
        let change = region.change();
        let allocations = change.allocations + change.reallocations;

        // No IQ variable: the most frequent one, the smallest id among ties.
        assert_eq!(var, view.most_frequent_var(&arena));
        assert_eq!(var, Some(x[0]));
        assert!(
            allocations <= BOUND,
            "choose_variable made {allocations} allocations for {} clauses (bound {BOUND})",
            view.len()
        );
    }
}
