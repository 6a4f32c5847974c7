//! Diagnostic tool: prints the bounds trajectory of the d-tree approximation
//! on the hard TPC-H queries for increasing step budgets. Useful for
//! understanding how quickly the incremental compilation converges (and for
//! tuning the variable-order / closing heuristics).
//!
//! Usage: `cargo run --release -p bench --bin diagnose_hard [--scale SF]`

use std::time::{Duration, Instant};

use bench::{tpch_database, HarnessOptions};
use dtree::{ApproxCompiler, ApproxOptions, CompileOptions, ErrorBound};
use workloads::tpch::TpchQuery;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = HarnessOptions::from_args(&args);
    if !args.iter().any(|a| a == "--scale") {
        opts.tpch_scale_factor = 0.05;
    }
    let db = tpch_database(opts.tpch_scale_factor, false);

    for q in TpchQuery::hard() {
        let lineage = db.boolean_lineage(&q);
        println!(
            "== query {}: {} clauses, {} variables ==",
            q.name(),
            lineage.len(),
            lineage.num_vars()
        );
        for error in
            [ErrorBound::Relative(0.05), ErrorBound::Relative(0.01), ErrorBound::Absolute(0.01)]
        {
            for max_steps in [10usize, 100, 1_000, 10_000, 100_000] {
                let approx_opts = ApproxOptions {
                    error,
                    compile: CompileOptions::with_origins(db.database().origins().clone()),
                    max_steps: Some(max_steps),
                    timeout: Some(Duration::from_secs(20)),
                };
                let start = Instant::now();
                let r = ApproxCompiler::new(approx_opts).run(&lineage, db.database().space());
                println!(
                    "  {:?} steps<={:<7} -> steps={:<7} nodes={:<7} closed={:<6} bounds=[{:.4},{:.4}] conv={} {:.3}s",
                    error,
                    max_steps,
                    r.steps,
                    r.stats.inner_nodes(),
                    r.stats.closed_leaves,
                    r.lower,
                    r.upper,
                    r.converged,
                    start.elapsed().as_secs_f64()
                );
                if r.converged {
                    break;
                }
            }
        }
    }
}
