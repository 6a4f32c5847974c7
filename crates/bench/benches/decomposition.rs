//! Criterion bench for the arena-interned lineage representation: micro
//! benches of the decomposition operators (cofactor, component split,
//! canonical hash) on both representations, plus the fig8 random-graph
//! end-to-end compile that gates the arena's ≥ 1.5× acceptance target and
//! writes the `BENCH_decomp.json` trajectory record.
//!
//! Legacy = the pre-arena owned-`Dnf` path preserved in
//! [`dtree::reference`]; arena = the production [`events::LineageArena`] /
//! [`events::DnfView`] path. Both are bit-identical (asserted before any
//! timing), so every series measures representation cost only.
//!
//! Set `DECOMPOSITION_SMOKE=1` to run the end-to-end comparison at smoke
//! scale (what CI's quickstart job does): a smaller graph, fewer reps, and a
//! regression floor of 1.0× instead of the full 1.5× acceptance gate. Smoke
//! runs leave `BENCH_decomp.json` untouched, since their timings are not at
//! the committed scale.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use events::{Clause, Dnf, LineageArena, ProbabilitySpace, VarId};

/// A dense random DNF (fixed seed) exercising all decomposition operators:
/// several independent clusters of overlapping clauses.
fn micro_formula() -> (ProbabilitySpace, Dnf) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<VarId> =
        (0..60).map(|i| space.add_bool(format!("x{i}"), 0.1 + 0.012 * (i as f64 % 60.0))).collect();
    // Three clusters of 20 variables; clauses stay inside their cluster so
    // the component split is non-trivial.
    let mut state = 0x5eed_cafe_u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let clauses: Vec<Clause> = (0..120)
        .map(|i| {
            let cluster = (i % 3) * 20;
            let width = 2 + (rng() % 3) as usize;
            Clause::from_bools(
                &(0..width).map(|_| vars[cluster + (rng() % 20) as usize]).collect::<Vec<_>>(),
            )
        })
        .collect();
    (space, Dnf::from_clauses(clauses))
}

fn bench_decomposition(c: &mut Criterion) {
    // The end-to-end gate runs first (untimed by criterion; it manages its
    // own repetitions) and writes the trajectory records.
    let smoke = std::env::var_os("DECOMPOSITION_SMOKE").is_some();
    let floor = if smoke { 1.0 } else { 1.5 };
    let records = bench::decomposition_records(smoke, Some(floor));
    // Smoke runs skip the write: their scale is not the committed one.
    if !smoke {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_decomp.json");
        if let Err(e) = bench::write_json(&path, &records) {
            obs::warn("bench.report", &format!("could not write {}: {e}", path.display()));
        }
    }

    let (space, dnf) = micro_formula();
    let mut arena = LineageArena::new();
    let root = arena.intern(&dnf);
    let var = dnf.most_frequent_var().expect("non-empty formula");

    let mut group = c.benchmark_group("decomposition");
    group.sample_size(50);
    group.measurement_time(Duration::from_secs(2));

    // Shannon cofactor: owned re-materialisation vs index filtering + pooled
    // compaction (steady state: repeated cofactors dedup onto existing ids).
    group.bench_with_input(BenchmarkId::new("cofactor", "owned"), &dnf, |b, dnf| {
        b.iter(|| dnf.cofactor(var, 1).len())
    });
    group.bench_with_input(BenchmarkId::new("cofactor", "arena"), &root, |b, root| {
        b.iter(|| root.cofactor(&mut arena, var, 1).len())
    });

    // Independent-component split.
    group.bench_with_input(BenchmarkId::new("components", "owned"), &dnf, |b, dnf| {
        b.iter(|| dnf.independent_components().len())
    });
    group.bench_with_input(BenchmarkId::new("components", "arena"), &root, |b, root| {
        b.iter(|| root.independent_components(&arena).len())
    });

    // Canonical hash: full atom walk vs incremental combine of interned
    // per-clause fingerprints.
    group.bench_with_input(BenchmarkId::new("hash", "owned"), &dnf, |b, dnf| {
        b.iter(|| dnf.canonical_hash().to_u128())
    });
    group.bench_with_input(BenchmarkId::new("hash", "arena"), &root, |b, root| {
        b.iter(|| root.hash(&arena).to_u128())
    });

    // Bucket bounds: the `&Dnf` entry (interns into a fresh arena, then runs
    // the view implementation) vs the view entry over an existing arena.
    group.bench_with_input(BenchmarkId::new("bounds", "owned"), &dnf, |b, dnf| {
        b.iter(|| dtree::dnf_bounds(dnf, &space).width())
    });
    group.bench_with_input(BenchmarkId::new("bounds", "arena"), &root, |b, root| {
        b.iter(|| dtree::dnf_bounds_view(&arena, root, &space).width())
    });
    group.finish();
}

criterion_group!(benches, bench_decomposition);
criterion_main!(benches);
