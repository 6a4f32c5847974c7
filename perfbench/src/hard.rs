//! `hard-budget` — Figs. 7–9: #P-hard lineages under a fixed step budget.
//! A request is one `(lineage, method)` call on a fresh one-thread
//! `ConfidenceEngine`: d-tree(rel 0.01) on every lineage, and aconf(0.05)
//! on the lineages where it converges within its sample budget.

use std::path::Path;
use std::time::Instant;

use events::{Dnf, LineageArena};
use pdb::confidence::{ConfidenceBudget, ConfidenceMethod, ConfidenceResult};
use pdb::motif::ProbGraph;
use pdb::{ConfidenceEngine, ConjunctiveQuery, Database};
use workloads::{
    dolphins, karate_club, random_graph, RandomGraphConfig, SocialNetworkConfig, TpchConfig,
    TpchDatabase, TpchQuery,
};

use crate::{Acc, Cycle, Settings, Tracer, Workload};

/// Decomposition steps per d-tree call.
const DTREE_STEPS: u64 = 500;

/// Samples per aconf call.
const ACONF_SAMPLES: u64 = 200_000;

/// Absolute slack of the output checks (floating-point round-off).
const TOLERANCE: f64 = 1e-12;

/// How a lineage is built from its database during set-up.
enum Build {
    Query(ConjunctiveQuery),
    Triangle(ProbGraph),
    Separation(ProbGraph, (u32, u32)),
}

/// One generated input: a database, the lineage to build over it, and
/// whether aconf runs on it.
struct Source {
    label: String,
    db: Database,
    build: Build,
    aconf: bool,
}

/// The `hard-budget` workload.
pub struct HardBudget {
    seed: u64,
    sources: Vec<Source>,
    lineages: Vec<Dnf>,
    /// `(source, method)` pairs, in request order.
    mix: Vec<(usize, usize)>,
    /// Results of the warm-up pass, one per entry of `mix`.
    warm: Vec<ConfidenceResult>,
    obs: obs::Obs,
}

impl HardBudget {
    fn methods() -> [ConfidenceMethod; 2] {
        [
            ConfidenceMethod::DTreeRelative(0.01),
            ConfidenceMethod::KarpLuby { epsilon: 0.05, delta: 1e-4 },
        ]
    }

    fn budget(method: usize) -> ConfidenceBudget {
        let steps = if method == 0 { DTREE_STEPS } else { ACONF_SAMPLES };
        ConfidenceBudget { timeout: None, max_work: Some(steps) }
    }

    fn request(
        &self,
        (s, m): (usize, usize),
        id: u64,
        t: &mut Tracer,
        acc: &mut Acc,
    ) -> (f64, ConfidenceResult) {
        let db = &self.sources[s].db;
        let lineage = &self.lineages[s];
        let span = t.begin_request(id);
        let start = Instant::now();
        if t.is_on() {
            t.time("arena.intern", || std::hint::black_box(LineageArena::new().intern(lineage)));
        }
        let engine = ConfidenceEngine::new(Self::methods()[m].clone())
            .with_threads(1)
            .with_budget(Self::budget(m))
            .with_seed(self.seed)
            .with_obs(&self.obs);
        let batch = t.time("engine.confidence_batch", || {
            engine.confidence_batch(&[lineage], db.space(), Some(db.origins()))
        });
        let latency = start.elapsed().as_secs_f64();
        t.close(span);
        acc.cache_hits += batch.cache.hits as f64;
        acc.cache_misses += batch.cache.misses as f64;
        let r = batch.results.into_iter().next().expect("one result per lineage");
        acc.item_s += r.elapsed.as_secs_f64();
        acc.add_result(&r);
        (latency, r)
    }
}

/// The generator seed of draw `draw` of an input, from the workload seed.
fn draw_seed(seed: u64, draw: u64) -> u64 {
    seed ^ draw.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn same(a: &ConfidenceResult, b: &ConfidenceResult) -> bool {
    a.estimate.to_bits() == b.estimate.to_bits()
        && a.lower.to_bits() == b.lower.to_bits()
        && a.upper.to_bits() == b.upper.to_bits()
        && a.converged == b.converged
}

fn sound(r: &ConfidenceResult) -> bool {
    r.degraded.is_none()
        && 0.0 <= r.lower
        && r.lower <= r.estimate + TOLERANCE
        && r.estimate <= r.upper + TOLERANCE
        && r.upper <= 1.0
}

impl Workload for HardBudget {
    fn new(s: &Settings) -> Self {
        let seed = s.seed;
        let mut sources = Vec::new();
        // Several draws of each input, so no single lineage sets a
        // percentile or the mean width; TPC-H widths vary most by draw.
        let (draws, graph_draws) = if s.tiny { (1, 1) } else { (3, 2) };
        let tpch: &[(TpchQuery, f64, u64, bool)] = if s.tiny {
            &[(TpchQuery::B2, 0.01, 1, true), (TpchQuery::B9, 0.01, 1, false)]
        } else {
            &[
                (TpchQuery::B2, 0.01, draws, true),
                (TpchQuery::B2, 0.05, draws, false),
                (TpchQuery::B2, 0.1, draws, false),
                (TpchQuery::B9, 0.01, draws, false),
                (TpchQuery::B9, 0.05, draws, false),
                (TpchQuery::B9, 0.1, draws, false),
                (TpchQuery::B20, 0.05, 1, true),
                (TpchQuery::B20, 0.1, 1, true),
                (TpchQuery::B21, 0.01, 1, true),
                (TpchQuery::B21, 0.02, 1, true),
            ]
        };
        for &(q, sf, n, aconf) in tpch {
            for draw in 0..n {
                let config = TpchConfig::new(sf).with_seed(draw_seed(seed, draw));
                let db = TpchDatabase::generate(&config).database().clone();
                let label = format!("{} sf{sf} draw{draw}", q.name());
                sources.push(Source { label, db, build: Build::Query(q.query()), aconf });
            }
        }
        // Triangles on random cliques; edge probabilities shrink with the
        // clique so the triangle stays uncertain.
        let graphs: &[(u32, f64, f64)] = if s.tiny {
            &[(6, 0.2, 0.6)]
        } else {
            &[
                (10, 0.27, 0.33),
                (12, 0.23, 0.28),
                (14, 0.19, 0.24),
                (16, 0.16, 0.2),
                (18, 0.14, 0.17),
                (20, 0.12, 0.15),
            ]
        };
        for draw in 0..graph_draws {
            let seed = draw_seed(seed, draw);
            for &(n, lo, hi) in graphs {
                let (db, graph) = random_graph(&RandomGraphConfig::with_range(n, lo, hi, seed));
                let label = format!("triangle n{n} draw{draw}");
                sources.push(Source { label, db, build: Build::Triangle(graph), aconf: false });
            }
        }
        // The social networks with the paper's probability ranges.
        for draw in 0..graph_draws {
            let seed = draw_seed(seed, draw);
            for net in [
                karate_club(&SocialNetworkConfig::new(0.2, 0.95, seed)),
                dolphins(&SocialNetworkConfig::new(0.7, 0.99, seed)),
            ] {
                let pair = net.separation_pair();
                sources.push(Source {
                    label: format!("{} t draw{draw}", net.name),
                    db: net.db.clone(),
                    build: Build::Triangle(net.graph.clone()),
                    aconf: true,
                });
                sources.push(Source {
                    label: format!("{} s2 draw{draw}", net.name),
                    db: net.db,
                    build: Build::Separation(net.graph, pair),
                    aconf: true,
                });
            }
        }
        // d-tree on every lineage (request `i` is lineage `i`), then aconf.
        let mut mix: Vec<(usize, usize)> = (0..sources.len()).map(|i| (i, 0)).collect();
        mix.extend((0..sources.len()).filter(|&i| sources[i].aconf).map(|i| (i, 1)));
        HardBudget {
            seed,
            sources,
            lineages: Vec::new(),
            mix,
            warm: Vec::new(),
            obs: obs::Obs::default(),
        }
    }

    fn setup(&mut self, _dir: &Path, _t: &mut Tracer, acc: &mut Acc) {
        acc.setups += 1.0;
        self.lineages = self
            .sources
            .iter()
            .map(|src| match &src.build {
                Build::Query(q) => {
                    q.evaluate(&src.db).into_iter().next().map_or_else(Dnf::empty, |a| a.lineage)
                }
                Build::Triangle(g) => g.triangle_lineage(),
                Build::Separation(g, (a, b)) => g.separation2_lineage(*a, *b),
            })
            .collect();
        // Warm-up: one untimed, untraced pass over the request mix; its
        // results are what every measured cycle must reproduce bit for bit.
        let (mut off, mut ignored) = (Tracer::new(false), Acc::default());
        self.warm =
            self.mix.iter().map(|&req| self.request(req, 0, &mut off, &mut ignored).1).collect();
    }

    fn fixed_cycles(&self, _seconds: f64) -> Option<usize> {
        None
    }

    fn cycle(&mut self, index: usize, t: &mut Tracer, acc: &mut Acc) -> Cycle {
        let mut cycle = Cycle::default();
        let mut results = Vec::with_capacity(self.mix.len());
        let start = Instant::now();
        for (k, &req) in self.mix.iter().enumerate() {
            let (latency, r) = self.request(req, (index * self.mix.len() + k + 1) as u64, t, acc);
            cycle.latencies.push(latency);
            cycle.quality.add(&r);
            cycle.check(sound(&r) && same(&r, &self.warm[k]));
            results.push(r);
        }
        cycle.wall = start.elapsed().as_secs_f64();
        // Where d-tree (request `s` of the mix) and aconf both converged on
        // lineage `s`, their intervals must overlap.
        for (k, &(s, m)) in self.mix.iter().enumerate() {
            let (d, a) = (&results[s], &results[k]);
            if m == 1 && d.converged && a.converged {
                cycle.check(a.lower <= d.upper + TOLERANCE && d.lower <= a.upper + TOLERANCE);
            }
        }
        cycle
    }

    fn finish(&mut self, _last: &mut Cycle) {}

    fn attach_obs(&mut self, o: &obs::Obs) {
        self.obs = o.clone();
    }

    fn info(&self) -> Vec<(&'static str, String)> {
        let labels: Vec<&str> = self.sources.iter().map(|s| s.label.as_str()).collect();
        let aconf: Vec<&str> =
            self.sources.iter().filter(|s| s.aconf).map(|s| s.label.as_str()).collect();
        vec![
            ("methods", Self::methods().iter().map(|m| m.label()).collect::<Vec<_>>().join(" / ")),
            ("dtree_max_steps", DTREE_STEPS.to_string()),
            ("aconf_max_samples", ACONF_SAMPLES.to_string()),
            ("threads", "1".to_owned()),
            ("lineages", labels.join(", ")),
            ("aconf_lineages", aconf.join(", ")),
            ("requests_per_cycle", self.mix.len().to_string()),
        ]
    }
}
