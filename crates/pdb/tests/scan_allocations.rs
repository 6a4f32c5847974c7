//! Allocation bound of a disk-store row scan.
//!
//! A cursor scan reads every frame of a run into one payload buffer and
//! decodes every row into one set of value and lineage buffers, so a full
//! scan allocates a constant per run it reads (the file, its buffered
//! reader, the growth of the buffers), however many rows it yields. SPROUT
//! reads its tables through the same cursor, so its scans are bounded the
//! same way.
//!
//! The counting allocator is process-wide, so this file holds a single test.

use std::alloc::System;

use pdb::sprout::boolean_confidence;
use pdb::storage::testutil::TempDir;
use pdb::{ConjunctiveQuery, Database, Term, Value};
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::new(System);

/// Allocations the scan may make per source it reads: each run, and the
/// memtable.
const PER_SOURCE: usize = 8;

/// Allocations a SPROUT evaluation may make per sub-problem besides its
/// scans: the query checks, the row filters, a candidate value and its
/// bindings.
const PER_SUBPROBLEM: usize = 64;

/// Allocations and reallocations made by `f`.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let region = Region::new(&GLOBAL);
    let out = f();
    let change = region.change();
    (out, change.allocations + change.reallocations)
}

#[test]
fn a_full_disk_scan_allocates_per_run_not_per_row() {
    let rows = 1200;
    let table: Vec<(Vec<Value>, f64)> = (0..rows)
        .map(|i: i64| {
            let values =
                vec![Value::Int(i), Value::str(format!("name-{}", i % 10)), Value::Int(-i)];
            (values, 0.1 + 0.8 * (i % 17) as f64 / 17.0)
        })
        .collect();
    let mut heap = Database::new();
    heap.add_tuple_independent_table("T", &["id", "name", "neg"], table.clone());
    let dir = TempDir::new("scan-allocations");
    let mut disk = Database::open_disk(dir.path(), 20 << 10).expect("open store");
    disk.add_tuple_independent_table("T", &["id", "name", "neg"], table);
    let stats = disk.storage_stats();
    assert!(
        stats.runs >= 2 && stats.memtable_bytes > 0,
        "rows split across runs and memtable: {stats:?}"
    );

    let ((seen, checksum), allocations) = allocations_of(|| {
        let mut cursor = disk.rows("T");
        let mut seen = 0usize;
        let mut checksum = 0i64;
        while let Some(row) = cursor.next_row() {
            seen += 1;
            checksum += row.values[0].as_int().expect("int id") + row.num_clauses() as i64;
        }
        (seen, checksum)
    });

    assert_eq!(seen, rows as usize);
    assert_eq!(checksum, (0..rows).sum::<i64>() + rows);
    let bound = PER_SOURCE * (stats.runs + 1);
    assert!(
        allocations <= bound,
        "a scan of {rows} rows over {} runs made {allocations} allocations (bound {bound})",
        stats.runs
    );

    // The rows the cursor lends are the stored tuples.
    let (mut on_disk, mut on_heap) = (disk.rows("T"), heap.rows("T"));
    while let Some(want) = on_heap.next_row() {
        let got = on_disk.next_row().expect("as many rows on disk");
        assert_eq!(got.values, want.values);
        assert!(got.clauses().eq(want.clauses()));
    }
    assert!(on_disk.next_row().is_none());
    drop((on_disk, on_heap));

    // SPROUT on disk: a single-subgoal query scans `T` once, and a
    // hierarchical join scans it once for the candidate names and once per
    // name (10 names). Both answer exactly as on the heap.
    let names: Vec<(Vec<Value>, f64)> =
        (0..10).map(|i| (vec![Value::str(format!("name-{i}"))], 0.3 + 0.05 * i as f64)).collect();
    heap.add_tuple_independent_table("N", &["name"], names.clone());
    disk.add_tuple_independent_table("N", &["name"], names);
    let runs = disk.storage_stats().runs;
    let single = ConjunctiveQuery::new("q").with_subgoal(
        "T",
        vec![Term::var("i"), Term::constant(Value::str("name-3")), Term::var("m")],
    );
    let (p, allocations) = allocations_of(|| boolean_confidence(&single, &disk));
    let want = boolean_confidence(&single, &heap).expect("a single subgoal is hierarchical");
    assert_eq!(p.expect("hierarchical").to_bits(), want.to_bits());
    let bound = PER_SOURCE * (runs + 1) + PER_SUBPROBLEM;
    assert!(
        allocations <= bound,
        "SPROUT over {rows} rows in {runs} runs made {allocations} allocations (bound {bound})"
    );
    let join = ConjunctiveQuery::new("q")
        .with_subgoal("T", vec![Term::var("i"), Term::var("n"), Term::var("m")])
        .with_subgoal("N", vec![Term::var("n")]);
    let (p, allocations) = allocations_of(|| boolean_confidence(&join, &disk));
    let want = boolean_confidence(&join, &heap).expect("the join is hierarchical");
    assert_eq!(p.expect("hierarchical").to_bits(), want.to_bits());
    let (scans, subproblems) = (2 + 2 * 10, 1 + 10);
    let bound = PER_SOURCE * (runs + 1) * scans + PER_SUBPROBLEM * subproblems;
    assert!(
        allocations <= bound,
        "SPROUT join over {rows} rows in {runs} runs made {allocations} allocations (bound {bound})"
    );
}
