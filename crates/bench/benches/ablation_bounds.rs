//! Ablation bench: the leaf-bound heuristics.
//!
//! Compares, on hard-query lineage and on social-network motif lineage,
//!
//! * the bucket heuristic exactly as written in Figure 3 of the paper
//!   (`dnf_bounds_sorted(.., true)`, descending-probability ordering),
//! * the unsorted bucket heuristic (no descending-probability refinement),
//! * the strengthened default (`dnf_bounds`: Figure 3 plus the monotone-DNF
//!   independent-union upper bound).
//!
//! Reported per variant: the time to evaluate the bounds once. The companion
//! `diagnose_hard` binary reports how the variants affect end-to-end
//! convergence.

use std::time::Duration;

use bench::{tpch_database, MotifQuery};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtree::{dnf_bounds, dnf_bounds_sorted};
use events::Dnf;
use workloads::tpch::TpchQuery;
use workloads::{karate_club, SocialNetworkConfig};

fn lineages() -> Vec<(String, events::ProbabilitySpace, Dnf)> {
    let mut out = Vec::new();
    let db = tpch_database(0.02, false);
    for q in [TpchQuery::B2, TpchQuery::B9, TpchQuery::B21] {
        out.push((
            format!("tpch_{}", q.name()),
            db.database().space().clone(),
            db.boolean_lineage(&q),
        ));
    }
    let net = karate_club(&SocialNetworkConfig::karate_default());
    out.push((
        "karate_triangle".to_owned(),
        net.db.space().clone(),
        MotifQuery::Triangle.lineage(&net.graph, net.separation_pair()),
    ));
    out.push((
        "karate_path2".to_owned(),
        net.db.space().clone(),
        MotifQuery::Path2.lineage(&net.graph, net.separation_pair()),
    ));
    out
}

fn bench_bounds(c: &mut Criterion) {
    let inputs = lineages();
    let mut group = c.benchmark_group("ablation_leaf_bounds");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    for (name, space, dnf) in &inputs {
        group.bench_with_input(BenchmarkId::new("fig3_sorted", name), dnf, |b, dnf| {
            b.iter(|| dnf_bounds_sorted(dnf, space, true))
        });
        group.bench_with_input(BenchmarkId::new("fig3_unsorted", name), dnf, |b, dnf| {
            b.iter(|| dnf_bounds_sorted(dnf, space, false))
        });
        group.bench_with_input(BenchmarkId::new("fig3_plus_fkg", name), dnf, |b, dnf| {
            b.iter(|| dnf_bounds(dnf, space))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bounds);
criterion_main!(benches);
