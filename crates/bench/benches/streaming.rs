//! Criterion bench for **streaming confidence maintenance**: on a
//! [`workloads::StreamingWorkload`] of growing answer lineages, refreshing
//! confidences through a one-shard `cluster::ClusterEngine::maintain_batch`
//! (pooled d-tree frontiers absorbing [`events::LineageDelta`]s) must reach
//! at least a 3× lower per-round refresh latency than recompiling every
//! answer from scratch with `pdb::ConfidenceEngine::confidence_batch` at the
//! same budget — the delta-aware compilation win this codebase's streaming
//! layer exists for.
//!
//! The comparison is round-structured, so it runs once at startup (untimed
//! by criterion), prints per-round latencies, asserts the acceptance gate,
//! and writes the `BENCH_streaming.json` trajectory records with the
//! `tuples_per_second` and `p50_refresh_seconds` fields carrying the
//! streaming quantities. A small criterion group then times one maintenance
//! round against one recompile round.
//!
//! Set `STREAMING_SMOKE=1` for CI smoke scale: tiny lineages and few rounds,
//! correctness + frontier-reuse gates only (no latency ratio — smoke-scale
//! rounds are microseconds and noisy), and no `BENCH_streaming.json` write
//! (smoke numbers are not trajectory-comparable).

use std::time::{Duration, Instant};

use bench::BenchRecord;
use cluster::ClusterEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb::confidence::{ConfidenceBudget, ConfidenceMethod};
use pdb::{ConfidenceEngine, ResumablePool};
use workloads::{StreamingConfig, StreamingWorkload};

fn config(smoke: bool) -> (StreamingConfig, usize) {
    if smoke {
        (
            StreamingConfig {
                answers: 3,
                initial_clauses: 40,
                clause_width: 2,
                appends_per_round: 2,
                touched_per_round: 2,
                seed: 11,
            },
            3,
        )
    } else {
        (
            StreamingConfig {
                answers: 8,
                initial_clauses: 240,
                clause_width: 2,
                appends_per_round: 2,
                touched_per_round: 2,
                seed: 11,
            },
            8,
        )
    }
}

/// Seeds the pool with every answer's d-tree frontier: a *budgeted* first
/// pass (only the anytime d-tree path hands back resumable handles —
/// settled if it converged, open if it truncated) followed by an unbudgeted
/// convergence pass, so measured rounds start from the steady streaming
/// state: fully refined frontiers waiting for deltas.
fn seed_pool(w: &StreamingWorkload, maintainer: &ClusterEngine) -> ResumablePool {
    let mut pool = ResumablePool::new(w.lineages().len());
    let trickle =
        maintainer.clone().with_budget(ConfidenceBudget { timeout: None, max_work: Some(2) });
    let none: Vec<Option<events::LineageDelta>> = vec![None; w.lineages().len()];
    trickle.maintain_batch(w.lineages(), &none, w.space(), None, &mut pool);
    assert_eq!(
        pool.len(),
        w.lineages().len(),
        "the budgeted first pass must pool one frontier per answer"
    );
    maintainer.maintain_batch(w.lineages(), &none, w.space(), None, &mut pool);
    pool
}

/// The round-structured incremental-vs-recompile experiment. Returns the
/// workload, pool, maintaining cluster, and recompiling engine in their
/// post-experiment state so the criterion group can time one further round
/// on real steady-state data.
fn streaming_experiment(
    smoke: bool,
) -> (StreamingWorkload, ResumablePool, ClusterEngine, ConfidenceEngine) {
    let (cfg, rounds) = config(smoke);
    let mut w = StreamingWorkload::new(cfg);
    let maintainer = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(1);
    let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeExact).with_threads(1);
    let mut pool = seed_pool(&w, &maintainer);

    println!(
        "== streaming maintenance vs recompile ({} answers, {rounds} rounds{}) ==",
        w.lineages().len(),
        if smoke { ", smoke" } else { "" }
    );
    let mut incremental_walls = Vec::with_capacity(rounds);
    let mut recompile_walls = Vec::with_capacity(rounds);
    let mut refresh_latencies = Vec::with_capacity(rounds);
    let mut tuples = 0usize;
    let mut all_converged = true;
    for round in 0..rounds {
        let deltas = w.next_round();
        tuples += deltas.iter().flatten().map(|d| d.clauses().len()).sum::<usize>();

        let t0 = Instant::now();
        let maintained =
            maintainer.maintain_batch(w.lineages(), &deltas, w.space(), None, &mut pool);
        let incremental = t0.elapsed();

        let t0 = Instant::now();
        let scratch = engine.confidence_batch(w.lineages(), w.space(), None);
        let recompile = t0.elapsed();

        // Without a timeout a round runs each dirty item once: it either
        // resumes its pooled frontier (refreshed) or recompiles; the rest
        // are zero-work snapshots.
        let executed: usize = maintained.shards.iter().map(|s| s.executed).sum();
        let refreshed = maintained.total_resumed();
        let snapshots = maintained.results.len() - executed;
        assert_eq!(
            executed, refreshed,
            "round {round}: every answer must reuse its pooled frontier"
        );
        assert!(refreshed > 0, "round {round}: deltas must dirty some frontier");
        for (m, s) in maintained.results.iter().zip(&scratch.results) {
            assert!(
                (m.estimate - s.estimate).abs() < 1e-9,
                "round {round}: maintained {} vs recompiled {}",
                m.estimate,
                s.estimate
            );
        }
        all_converged &= maintained.all_converged() && scratch.all_converged();
        println!(
            "  round {round}: incremental {incremental:>10.1?} (refreshed {refreshed}, \
             snapshots {snapshots})  recompile {recompile:>10.1?}"
        );
        incremental_walls.push(incremental.as_secs_f64());
        recompile_walls.push(recompile.as_secs_f64());
        refresh_latencies.push(incremental.as_secs_f64() / executed as f64);
    }

    let p50 = |xs: &[f64]| {
        let mut s = xs.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite walls"));
        s[s.len() / 2]
    };
    let incremental_p50 = p50(&incremental_walls);
    let recompile_p50 = p50(&recompile_walls);
    let incremental_total: f64 = incremental_walls.iter().sum();
    let recompile_total: f64 = recompile_walls.iter().sum();
    let tps = tuples as f64 / incremental_total;
    println!(
        "  p50 per round: incremental {incremental_p50:.6}s  recompile {recompile_p50:.6}s  \
         ({:.1}x, {tps:.0} tuples/s)",
        recompile_p50 / incremental_p50
    );

    if !smoke {
        assert!(
            recompile_p50 >= 3.0 * incremental_p50,
            "delta-aware maintenance must refresh at least 3x faster than recompilation \
             at equal budget (incremental p50 {incremental_p50}s vs recompile p50 {recompile_p50}s)"
        );
        let converged_fraction = f64::from(all_converged);
        let records = vec![
            BenchRecord {
                name: "streaming/refresh/incremental".into(),
                p50_seconds: incremental_p50,
                converged_fraction,
                samples: rounds,
                mean_interval_width: None,
                tuples_per_second: None,
                p50_refresh_seconds: None,
                rss_peak_bytes: None,
                degraded_fraction: None,
            }
            .with_tuples_per_second(tps)
            .with_refresh_latency(p50(&refresh_latencies)),
            BenchRecord {
                name: "streaming/refresh/recompile".into(),
                p50_seconds: recompile_p50,
                converged_fraction,
                samples: rounds,
                mean_interval_width: None,
                tuples_per_second: None,
                p50_refresh_seconds: None,
                rss_peak_bytes: None,
                degraded_fraction: None,
            }
            .with_tuples_per_second(tuples as f64 / recompile_total)
            .with_refresh_latency(p50(&recompile_walls) / w.lineages().len() as f64),
        ];
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_streaming.json");
        if let Err(e) = bench::write_json(&path, &records) {
            obs::warn("bench.report", &format!("could not write {}: {e}", path.display()));
        }
    }
    (w, pool, maintainer, engine)
}

fn bench_streaming(c: &mut Criterion) {
    let smoke = std::env::var_os("STREAMING_SMOKE").is_some();
    let (mut w, pool, maintainer, engine) = streaming_experiment(smoke);

    // Micro series: one steady-state maintenance round (clone the pre-round
    // pool each iteration so every sample absorbs the same deltas) against
    // one recompile round on the same grown lineages.
    let deltas = w.next_round();
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(if smoke { 1 } else { 2 }));
    group.bench_with_input(BenchmarkId::new("maintain_round", "steady"), &deltas, |b, deltas| {
        b.iter(|| {
            let mut p = pool.clone();
            maintainer.maintain_batch(w.lineages(), deltas, w.space(), None, &mut p).results[0]
                .estimate
        })
    });
    group.bench_with_input(BenchmarkId::new("recompile_round", "steady"), &(), |b, ()| {
        b.iter(|| engine.confidence_batch(w.lineages(), w.space(), None).results[0].estimate)
    });
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
