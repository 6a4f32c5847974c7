//! Cross-checks of the batched [`ConfidenceEngine`] against the per-lineage
//! `confidence()` front-end on the paper's workloads: batching (threads,
//! shared cache, shared deadline) must change the work done, never the
//! answers.

use std::time::{Duration, Instant};

use dtree_approx::events::Dnf;
use dtree_approx::pdb::confidence::{confidence_with, ConfidenceBudget, ConfidenceMethod};
use dtree_approx::pdb::{ConfidenceEngine, Database};
use dtree_approx::workloads::tpch::{TpchConfig, TpchDatabase, TpchQuery};
use dtree_approx::workloads::{karate_club, SocialNetworkConfig};

fn all_methods() -> Vec<ConfidenceMethod> {
    vec![
        ConfidenceMethod::DTreeExact,
        ConfidenceMethod::DTreeAbsolute(0.01),
        ConfidenceMethod::DTreeRelative(0.01),
        ConfidenceMethod::KarpLuby { epsilon: 0.1, delta: 0.01 },
        ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.1 },
    ]
}

/// Asserts that a parallel, cached, seeded batch reproduces seeded
/// per-lineage calls bit for bit, for every method.
fn assert_batch_matches_per_lineage(db: &Database, lineages: &[Dnf], workload: &str) {
    const SEED: u64 = 0x5eed_ba7c;
    let budget = ConfidenceBudget::default();
    for method in all_methods() {
        let engine = ConfidenceEngine::new(method.clone()).with_seed(SEED).with_threads(3);
        let batch = engine.confidence_batch(lineages, db.space(), Some(db.origins()));
        assert_eq!(batch.results.len(), lineages.len());
        for (i, (lineage, got)) in lineages.iter().zip(&batch.results).enumerate() {
            let want = confidence_with(
                lineage,
                db.space(),
                Some(db.origins()),
                &method,
                &budget,
                Some(ConfidenceEngine::item_seed(SEED, i)),
                None,
            );
            assert_eq!(
                want.estimate.to_bits(),
                got.estimate.to_bits(),
                "{workload} answer {i} method {}: {} vs {}",
                want.method,
                want.estimate,
                got.estimate
            );
            assert_eq!(want.lower.to_bits(), got.lower.to_bits());
            assert_eq!(want.upper.to_bits(), got.upper.to_bits());
            assert_eq!(want.converged, got.converged);
        }
    }
}

#[test]
fn tpch_batch_matches_per_lineage_for_every_method() {
    let db = TpchDatabase::generate(&TpchConfig::new(0.01));
    let lineages: Vec<Dnf> = db.answers(&TpchQuery::Iq6).into_iter().map(|a| a.lineage).collect();
    assert!(!lineages.is_empty());
    assert_batch_matches_per_lineage(db.database(), &lineages, "tpch-iq6");
}

#[test]
fn social_batch_matches_per_lineage_for_every_method() {
    let net = karate_club(&SocialNetworkConfig::karate_default());
    let (hub, _) = net.separation_pair();
    let lineages: Vec<Dnf> =
        net.graph.within2_not1_answers(hub).into_iter().map(|(_, l)| l).collect();
    assert!(!lineages.is_empty());
    assert_batch_matches_per_lineage(&net.db, &lineages, "karate-within2not1");
}

#[test]
fn social_s2_relation_cache_on_off_agree() {
    let net = karate_club(&SocialNetworkConfig::karate_default());
    let n = net.num_nodes;
    let mut lineages = Vec::new();
    for s in 0..n {
        for t in 0..n {
            if s != t {
                let l = net.graph.separation2_lineage(s, t);
                if !l.is_empty() {
                    lineages.push(l);
                }
            }
        }
    }
    let method = ConfidenceMethod::DTreeAbsolute(0.01);
    let cached = ConfidenceEngine::new(method.clone()).confidence_batch(
        &lineages,
        net.db.space(),
        Some(net.db.origins()),
    );
    let uncached = ConfidenceEngine::new(method).without_cache().confidence_batch(
        &lineages,
        net.db.space(),
        Some(net.db.origins()),
    );
    // Caching (and the duplicate detection that handles the symmetric
    // answers s2(s, t) = s2(t, s)) never changes a single bit of any result.
    for (a, b) in cached.results.iter().zip(&uncached.results) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
    }
}

#[test]
fn shared_cache_fires_across_overlapping_lineages() {
    // phi is a hard chain; psi extends it with an independent clause, so
    // psi's independent-or decomposition re-encounters phi as a component
    // and must be served from the cache filled by phi's own run.
    let mut space = dtree_approx::events::ProbabilitySpace::new();
    let vars: Vec<_> =
        (0..28).map(|i| space.add_bool(format!("x{i}"), 0.2 + 0.02 * i as f64)).collect();
    let chain: Vec<dtree_approx::events::Clause> = (0..25)
        .map(|i| dtree_approx::events::Clause::from_bools(&[vars[i], vars[i + 1]]))
        .collect();
    let phi = Dnf::from_clauses(chain.clone());
    let mut extended = chain;
    extended.push(dtree_approx::events::Clause::from_bools(&[vars[27]]));
    let psi = Dnf::from_clauses(extended);
    let lineages = vec![phi, psi];

    let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeAbsolute(1e-6)).with_threads(1);
    let cached = engine.confidence_batch(&lineages, &space, None);
    assert!(cached.cache.hits > 0, "expected cross-lineage cache hits: {:?}", cached.cache);
    let uncached = ConfidenceEngine::new(ConfidenceMethod::DTreeAbsolute(1e-6))
        .without_cache()
        .with_threads(1)
        .confidence_batch(&lineages, &space, None);
    for (a, b) in cached.results.iter().zip(&uncached.results) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }
}

#[test]
fn batch_deadline_is_respected_on_hard_tpch_lineage() {
    // B9 is #P-hard; a batch of B9 lineages with a tight shared deadline must
    // come back quickly with best-effort (non-converged) results instead of
    // stalling — the bug this PR fixes made DTreeExact ignore the budget
    // entirely.
    let db = TpchDatabase::generate(&TpchConfig::new(0.05));
    let lineage = db.boolean_lineage(&TpchQuery::B9);
    // Three *distinct* hard lineages (so duplicate detection cannot collapse
    // the batch): B9 and two sublineages missing one clause each.
    let clauses = lineage.clauses().to_vec();
    let lineages = vec![
        lineage.clone(),
        Dnf::from_clauses(clauses[1..].to_vec()),
        Dnf::from_clauses(clauses[..clauses.len() - 1].to_vec()),
    ];
    let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeExact)
        .with_budget(ConfidenceBudget { timeout: Some(Duration::from_millis(100)), max_work: None })
        .with_threads(1);
    let t0 = Instant::now();
    let batch =
        engine.confidence_batch(&lineages, db.database().space(), Some(db.database().origins()));
    let elapsed = t0.elapsed();
    assert_eq!(batch.results.len(), 3);
    // Generous slack for slow CI: the point is that three hard lineages do
    // not each consume a fresh budget.
    assert!(elapsed < Duration::from_secs(10), "batch overran its shared deadline: {elapsed:?}");
    for r in &batch.results {
        // Bounds must stay sound even when truncated.
        assert!(r.lower <= r.upper + 1e-12);
        assert!((0.0..=1.0).contains(&r.lower) && (0.0..=1.0).contains(&r.upper));
    }
}
