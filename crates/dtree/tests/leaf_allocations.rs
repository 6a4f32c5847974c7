//! Allocation bounds of the two leaf primitives that run at every d-tree
//! node: the Figure 3 bucket bounds and the independent-and (⊙) product
//! factorization.
//!
//! The input is shaped like IQ B1's lineage on TPC-H: a 47 × 178 product of
//! two origin groups (8,366 clauses over 225 variables). Both primitives
//! must allocate in proportion to the variables and the distinct factor
//! clauses, so each stays below one allocation per input clause.
//!
//! The counting allocator is process-wide, so this file holds a single test.

use std::alloc::System;

use dtree::dnf_bounds_view;
use events::{product_factorization_by, Clause, Dnf, LineageArena, ProbabilitySpace, VarOrigins};
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::new(System);

/// Allocations plus reallocations made by `f`.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let region = Region::new(&GLOBAL);
    let out = f();
    let change = region.change();
    (out, change.allocations + change.reallocations)
}

#[test]
fn leaf_primitives_allocate_below_one_per_clause() {
    let (left, right) = (47, 178);
    let mut space = ProbabilitySpace::new();
    let mut origins = VarOrigins::new();
    let mut add = |name: String, group: u32, p: f64| {
        let var = space.add_bool(name, p);
        origins.set(var, group);
        var
    };
    let a: Vec<_> =
        (0..left).map(|i| add(format!("a{i}"), 0, 0.1 + 0.8 * i as f64 / 47.0)).collect();
    let b: Vec<_> =
        (0..right).map(|j| add(format!("b{j}"), 1, 0.05 + 0.9 * j as f64 / 178.0)).collect();
    let dnf = Dnf::from_clauses(
        a.iter().flat_map(|&x| b.iter().map(move |&y| Clause::from_bools(&[x, y]))),
    );
    let (arena, view) = LineageArena::from_dnf(&dnf);
    let clauses = view.len();
    assert_eq!(clauses, left * right);

    let (factors, factor_allocs) = allocations_of(|| {
        product_factorization_by(view.len(), |i| view.clause(&arena, i), &origins)
    });
    let factors = factors.expect("a two-group product factorizes");
    assert_eq!(factors.iter().map(Vec::len).collect::<Vec<_>>(), vec![left, right]);
    assert!(
        factor_allocs < clauses,
        "product_factorization_by made {factor_allocs} allocations for {clauses} clauses"
    );

    let (bounds, bound_allocs) = allocations_of(|| dnf_bounds_view(&arena, &view, &space));
    assert!(bounds.lower <= bounds.upper);
    assert!(
        bound_allocs < clauses,
        "dnf_bounds_view made {bound_allocs} allocations for {clauses} clauses"
    );
}
