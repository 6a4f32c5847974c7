//! The arena-vs-legacy decomposition comparison: one reusable measurement
//! shared by the `decomposition` criterion bench and `repro_all --json`, so
//! both report the same numbers into `BENCH_decomp.json`.
//!
//! The end-to-end workload is the fig8 random-graph suite: the global
//! `path2` and `triangle` motif lineages (Shannon-expansion-heavy, where
//! decomposition dominates) plus the `s2(X, Y)` answer relation (many small
//! bound-dominated lineages), each compiled with the d-tree relative
//! 0.01-approximation exactly as the fig8 experiments run it. The **legacy**
//! side is [`dtree::reference`] — the pre-arena owned-`Dnf` compiler kept
//! verbatim in-tree; the **arena** side is the production
//! [`dtree::ApproxCompiler`] over [`events::LineageArena`] views. Both sides
//! produce bit-identical results (asserted here and pinned by the
//! equivalence proptests), so the comparison measures representation cost
//! only.

use std::time::Instant;

use dtree::reference::approx_reference;
use dtree::{ApproxCompiler, ApproxOptions, CompileOptions};
use events::Dnf;
use workloads::{random_graph, s2_relation, RandomGraphConfig};

use crate::report::BenchRecord;

/// Outcome of the end-to-end comparison.
#[derive(Debug, Clone)]
pub struct DecompositionReport {
    /// One record per `(workload, implementation)` pair.
    pub records: Vec<BenchRecord>,
    /// Total p50 seconds of the legacy side across the suite.
    pub legacy_total: f64,
    /// Total p50 seconds of the arena side across the suite.
    pub arena_total: f64,
}

impl DecompositionReport {
    /// End-to-end speedup of the arena path over the pre-arena baseline.
    pub fn speedup(&self) -> f64 {
        self.legacy_total / self.arena_total
    }
}

fn p50(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

/// Runs the fig8 random-graph end-to-end comparison. `smoke` shrinks the
/// graph and repetition count so CI can execute it in seconds.
pub fn fig8_end_to_end(smoke: bool) -> DecompositionReport {
    let nodes = if smoke { 7 } else { 8 };
    let reps = if smoke { 3 } else { 7 };
    let (db, graph) = random_graph(&RandomGraphConfig::uniform(nodes, 0.3));
    let space = db.space();
    let opts = ApproxOptions::relative(0.01)
        .with_compile(CompileOptions::with_origins(db.origins().clone()));
    let compiler = ApproxCompiler::new(opts.clone());

    let s2: Vec<Dnf> = s2_relation(&graph, nodes);
    let workloads: Vec<(&str, Vec<Dnf>)> = vec![
        ("path2", vec![graph.path2_lineage()]),
        ("triangle", vec![graph.triangle_lineage()]),
        ("s2_relation", s2),
    ];

    let mut records = Vec::new();
    let mut legacy_total = 0.0;
    let mut arena_total = 0.0;
    for (name, lineages) in &workloads {
        // Bit-identity sanity before timing anything.
        for lineage in lineages {
            let legacy = approx_reference(lineage, space, &opts);
            let arena = compiler.run(lineage, space);
            assert_eq!(
                legacy.estimate.to_bits(),
                arena.estimate.to_bits(),
                "arena diverged from the pre-arena baseline on {name}"
            );
            assert_eq!(legacy.lower.to_bits(), arena.lower.to_bits());
            assert_eq!(legacy.upper.to_bits(), arena.upper.to_bits());
            assert_eq!(legacy.stats, arena.stats);
        }
        let mut legacy_samples: Vec<f64> = Vec::with_capacity(reps);
        let mut arena_samples: Vec<f64> = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            for lineage in lineages {
                std::hint::black_box(approx_reference(lineage, space, &opts));
            }
            legacy_samples.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for lineage in lineages {
                std::hint::black_box(compiler.run(lineage, space));
            }
            arena_samples.push(t.elapsed().as_secs_f64());
        }
        let legacy_p50 = p50(&mut legacy_samples);
        let arena_p50 = p50(&mut arena_samples);
        legacy_total += legacy_p50;
        arena_total += arena_p50;
        for (side, p) in [("legacy", legacy_p50), ("arena", arena_p50)] {
            records.push(BenchRecord {
                name: format!("decomposition/fig8_e2e/{name}/{side}"),
                p50_seconds: p,
                converged_fraction: 1.0,
                samples: reps,
                mean_interval_width: None,
                tuples_per_second: None,
                p50_refresh_seconds: None,
                rss_peak_bytes: None,
                degraded_fraction: None,
            });
        }
        println!(
            "  {name:<12} legacy {legacy_p50:.6}s  arena {arena_p50:.6}s  ({:.2}x)",
            legacy_p50 / arena_p50
        );
    }
    DecompositionReport { records, legacy_total, arena_total }
}

/// Runs the comparison, prints the suite speedup, optionally enforces an
/// acceptance floor, and returns the per-workload timing records. The
/// speedup itself is printed, not recorded: a record's `p50_seconds` holds a
/// time, never a ratio.
///
/// `floor` is the minimum acceptable suite speedup: the criterion bench
/// passes the 1.5× acceptance gate (1.0× in smoke mode, where the tiny
/// graph and noisy CI boxes make the full gate flaky); measurement-only
/// callers like `repro_all --json` pass `None` so a slow machine still gets
/// its trajectory recorded instead of a panic.
pub fn decomposition_records(smoke: bool, floor: Option<f64>) -> Vec<BenchRecord> {
    println!(
        "== decomposition: fig8 random-graph end-to-end, arena vs pre-arena baseline{} ==",
        if smoke { " (smoke)" } else { "" }
    );
    let report = fig8_end_to_end(smoke);
    let speedup = report.speedup();
    println!(
        "  suite        legacy {:.6}s  arena {:.6}s  speedup {speedup:.2}x",
        report.legacy_total, report.arena_total
    );
    if let Some(floor) = floor {
        assert!(
            speedup >= floor,
            "arena decomposition speedup {speedup:.2}x fell below the {floor}x floor"
        );
    }
    report.records
}
