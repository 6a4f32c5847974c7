//! Allocation bound of conjunctive-query evaluation.
//!
//! The query is shaped like the TPC-H IQ B1 query (Section VI-B): a
//! Boolean inequality join of a six-column `lineitem`-like table with a
//! three-column `orders`-like table, on data where every pair passes, so
//! the answer is a 47 × 178 product of 8,366 clauses. The join state keeps
//! no per-partial heap object, so evaluation allocates about once per
//! answer clause (the clause itself) and stays below 1.5 allocations per
//! clause. On a disk store the scans decode every row in place, so the
//! same evaluation allocates only a constant more per scanned run.
//!
//! The counting allocator is process-wide, so this file holds a single test.

use std::alloc::System;

use pdb::storage::testutil::TempDir;
use pdb::{ConjunctiveQuery, Database, IneqOp, QueryAnswer, Term, Value};
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::new(System);

/// Allocations a scan may make per run it reads (file, buffered reader,
/// and the growth of the scan's buffers), and per scan.
const PER_RUN: usize = 8;

/// Loads the two tables, in the same order on every database so their
/// variables get the same ids.
fn load(db: &mut Database) {
    let (left, right) = (47, 178);
    db.add_tuple_independent_table(
        "lineitem",
        &["ok", "pk", "sk", "qty", "rf", "sdate"],
        (0..left)
            .map(|i| {
                let values = [i, i % 7, i % 5, 10 + i % 3, i % 2, i].map(Value::Int).to_vec();
                (values, 0.1 + 0.8 * i as f64 / 47.0)
            })
            .collect(),
    );
    db.add_tuple_independent_table(
        "orders",
        &["ok", "ck", "odate"],
        (0..right)
            .map(|j| {
                let values = [j, j % 11, 100 + j].map(Value::Int).to_vec();
                (values, 0.05 + 0.9 * j as f64 / 178.0)
            })
            .collect(),
    );
}

/// Evaluates the query, returning its answers and the allocations made.
fn evaluate_counted(query: &ConjunctiveQuery, db: &Database) -> (Vec<QueryAnswer>, usize) {
    let region = Region::new(&GLOBAL);
    let answers = query.evaluate(db);
    let change = region.change();
    (answers, change.allocations + change.reallocations)
}

#[test]
fn iq_product_evaluates_with_fewer_than_one_and_a_half_allocations_per_clause() {
    let v = Term::var;
    let query = ConjunctiveQuery::new("iq")
        .with_subgoal("lineitem", vec![v("O"), v("P"), v("S"), v("Q"), v("RF"), v("SD")])
        .with_subgoal("orders", vec![v("OK"), v("CK"), v("OD")])
        .with_var_predicate("SD", IneqOp::Lt, "OD")
        .with_const_predicate("SD", IneqOp::Lt, 150)
        .with_const_predicate("OD", IneqOp::Ge, 50);

    let mut heap = Database::new();
    load(&mut heap);
    let (answers, allocations) = evaluate_counted(&query, &heap);
    assert_eq!(answers.len(), 1);
    let clauses = answers[0].lineage.len();
    assert_eq!(clauses, 47 * 178);
    assert!(
        (allocations as f64) < 1.5 * clauses as f64,
        "evaluate made {allocations} allocations for {clauses} clauses"
    );

    // The same tables on disk, spread over runs and the memtable: the
    // answer is bit-identical, and the 225 scanned rows cost no allocation
    // each, only a constant per run of each of the two scans.
    let dir = TempDir::new("evaluate-allocations");
    let mut disk = Database::open_disk(dir.path(), 4 << 10).expect("open store");
    load(&mut disk);
    let stats = disk.storage_stats();
    assert!(stats.runs >= 2 && stats.memtable_bytes > 0, "{stats:?}");
    let (disk_answers, disk_allocations) = evaluate_counted(&query, &disk);
    assert_eq!(disk_answers, answers);
    let bound = allocations + 2 * PER_RUN * (stats.runs + 1);
    assert!(
        disk_allocations <= bound,
        "disk evaluate made {disk_allocations} allocations, heap {allocations}, \
         bound {bound} over {} runs",
        stats.runs
    );
}
