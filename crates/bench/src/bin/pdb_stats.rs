//! `pdb-stats` — renders observability snapshots as text reports and
//! captures the anytime width-tightening trajectory of a Figure-7 hard run.
//!
//! Three modes:
//!
//! * `pdb-stats --file PATH` — parse an exported JSON-lines metrics snapshot
//!   (the format produced by `obs::Obs::export_json_lines`) and print the
//!   human-readable report. Exits non-zero if the file fails strict
//!   validation, so it doubles as a schema checker.
//! * `pdb-stats --fig7 [PATH]` — run the #P-hard Boolean TPC-H queries of
//!   Figure 7 under a live registry, resuming each compilation in fixed step
//!   slices so the `dtree.slice` trace events record the interval-width
//!   trajectory, then write the registry snapshot to `PATH` (default
//!   `METRICS_fig7.json`) and print the report.
//! * `pdb-stats --smoke` — fast self-check used by CI: exercise the engine
//!   and the disk store with a live registry, export, re-parse, and verify
//!   the snapshot round-trips exactly.

use std::time::Duration;

use dtree::{ApproxCompiler, ApproxOptions, ResumeBudget};
use obs::snapshot::parse_json_lines;
use obs::Obs;
use pdb::ConfidenceEngine;
use workloads::tpch::TpchQuery;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--file") => match args.get(1) {
            Some(path) => report_file(path),
            None => usage(),
        },
        Some("--fig7") => {
            fig7_capture(args.get(1).map(String::as_str).unwrap_or("METRICS_fig7.json"))
        }
        Some("--smoke") => smoke(),
        _ => usage(),
    };
    std::process::exit(code);
}

fn usage() -> i32 {
    eprintln!(
        "usage: pdb-stats --file PATH    render a report from an exported snapshot\n\
         \x20      pdb-stats --fig7 [PATH]  capture the fig7 width trajectory (default METRICS_fig7.json)\n\
         \x20      pdb-stats --smoke        self-check: exercise, export, re-parse"
    );
    2
}

/// Parses `path` strictly and prints the text report.
fn report_file(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("pdb-stats: cannot read {path}: {e}");
            return 1;
        }
    };
    match parse_json_lines(&text) {
        Ok(snap) => {
            print!("{}", snap.render_report());
            0
        }
        Err(e) => {
            eprintln!("pdb-stats: {path} is not a valid metrics snapshot: {e}");
            1
        }
    }
}

/// Steps per resume slice in the fig7 capture: small enough that each hard
/// query yields a multi-point trajectory, large enough to finish in seconds.
const FIG7_SLICE_STEPS: usize = 256;
/// Slice cap per query — with ε = 0 the hard queries never converge early,
/// so this cap is what bounds the run (and sizes the trajectory).
const FIG7_MAX_SLICES: usize = 48;

/// Runs the Figure-7 hard suite (B2, B9, B20, B21 at SF 0.005) in resume
/// slices under a live registry and writes the snapshot to `out`. The ε = 0
/// d-tree method is used so the whole budget goes into width tightening —
/// the same regime as the `resume_refinement` bench.
fn fig7_capture(out: &str) -> i32 {
    let obs = Obs::enabled();
    let db = bench::tpch_database(0.005, false);
    // Truncate the initial run after one slice's worth of steps so the
    // remaining refinement happens in instrumented resume slices.
    let compiler =
        ApproxCompiler::new(ApproxOptions::absolute(0.0).with_max_steps(FIG7_SLICE_STEPS));
    for query in TpchQuery::hard() {
        let lineage = db.boolean_lineage(&query);
        let space = db.database().space();
        let (_, mut handle) = compiler.run_resumable(&lineage, space, None);
        handle.attach_obs(&obs);
        let mut slices = 0;
        while !handle.is_converged() && !handle.is_poisoned() && slices < FIG7_MAX_SLICES {
            handle.resume(space, ResumeBudget::steps(FIG7_SLICE_STEPS), None);
            slices += 1;
        }
        obs.event("fig7.query")
            .str("query", query.name())
            .u64("slices", slices as u64)
            .u64("steps", handle.total_steps() as u64)
            .f64("width", handle.width())
            .bool("converged", handle.is_converged())
            .emit();
        println!(
            "{}: {} slices, {} steps, width {:.3e}, converged={}",
            query.name(),
            slices,
            handle.total_steps(),
            handle.width(),
            handle.is_converged()
        );
    }
    let text = obs.export_json_lines();
    if let Err(e) = parse_json_lines(&text) {
        eprintln!("pdb-stats: captured snapshot fails its own validation: {e}");
        return 1;
    }
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("pdb-stats: cannot write {out}: {e}");
        return 1;
    }
    println!("wrote {} lines to {out}", text.lines().count());
    print!("{}", obs.snapshot().expect("registry is enabled").render_report());
    0
}

/// CI self-check: engine batch + disk store under a live registry, then an
/// exact export/parse round-trip. Prints the report on success.
fn smoke() -> i32 {
    use events::{Clause, Dnf, ProbabilitySpace};
    use pdb::confidence::{ConfidenceBudget, ConfidenceMethod};
    use pdb::storage::testutil::TempDir;
    use pdb::{Database, Value};

    let obs = Obs::enabled();

    // Engine traffic: a small batch over a shared space.
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        (0..6).map(|i| space.add_bool(format!("v{i}"), 0.1 + 0.1 * i as f64)).collect();
    let lineages: Vec<Dnf> = (0..4)
        .map(|i| {
            Dnf::from_clauses(vec![
                Clause::from_bools(&[vars[i], vars[i + 1]]),
                Clause::from_bools(&[vars[i + 2]]),
            ])
        })
        .collect();
    let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeAbsolute(0.001))
        .with_budget(ConfidenceBudget { timeout: Some(Duration::from_secs(5)), max_work: None })
        .with_obs(&obs);
    let batch = engine.confidence_batch(&lineages, &space, None);
    if !batch.all_converged() {
        eprintln!("pdb-stats: smoke batch failed to converge");
        return 1;
    }

    // Storage traffic: append, flush (rotates the WAL), and a keyed lookup
    // that exercises the bloom pass/reject counters.
    let dir = TempDir::new("pdb-stats-smoke");
    let mut db = Database::open_disk(dir.path(), 256).expect("open disk db");
    db.attach_obs(&obs);
    let mut writer = db.tuple_writer("S", &["a"]);
    for i in 0..8 {
        writer.push(vec![Value::Int(i)], 0.25);
    }
    drop(writer);
    let stats = db.storage_stats();
    if stats.flushes == 0 || stats.wal_rotations != stats.flushes {
        eprintln!(
            "pdb-stats: smoke store expected rotations == flushes > 0, got {} / {}",
            stats.wal_rotations, stats.flushes
        );
        return 1;
    }
    drop(db);
    {
        use pdb::storage::{DiskStore, TableStore};
        let (mut store, _) = DiskStore::open(dir.path(), 256).expect("reopen disk store");
        store.attach_obs(&obs);
        let row = store.get_row("S", 0).expect("keyed lookup");
        if row.is_none() {
            eprintln!("pdb-stats: smoke keyed lookup missed a flushed row");
            return 1;
        }
    }

    // Export, re-parse, and require the exact-round-trip invariant.
    let text = obs.export_json_lines();
    let parsed = match parse_json_lines(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pdb-stats: smoke export fails validation: {e}");
            return 1;
        }
    };
    let original = obs.snapshot().expect("registry is enabled");
    if parsed != original {
        eprintln!("pdb-stats: smoke export does not round-trip");
        return 1;
    }
    for required in
        ["engine.items", "storage.wal.rotations", "storage.flushes", "storage.bloom.pass"]
    {
        if !original.counters.iter().any(|(n, v)| n == required && *v > 0) {
            eprintln!("pdb-stats: smoke registry is missing a non-zero {required}");
            return 1;
        }
    }
    print!("{}", original.render_report());
    println!("smoke ok: {} export lines round-trip exactly", text.lines().count());
    0
}
