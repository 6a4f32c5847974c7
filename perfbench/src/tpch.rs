//! `tpch-disk` — Fig. 6 (a)/(b)/(c): the six tractable and three IQ queries
//! over two disk-backed TPC-H instances, probabilities in (0, 1) and in
//! (0, 0.01). A request evaluates one query cold and computes its answers'
//! confidences with d-tree(rel 0.01) on a fresh one-thread engine.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use events::{Dnf, LineageArena};
use pdb::confidence::{ConfidenceBudget, ConfidenceMethod, ConfidenceResult};
use pdb::{sprout, ConfidenceEngine, ConjunctiveQuery, Database, Value};
use workloads::{TpchConfig, TpchDatabase, TpchQuery};

use crate::{dir_bytes, write_bytes, Acc, Cycle, Settings, Tracer, Workload};

/// Tables in the generator's creation order, so copies keep its `VarId`s.
const TABLES: [&str; 8] =
    ["region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"];

/// Relative error of every confidence call.
const EPSILON: f64 = 0.01;

/// Absolute slack of the output checks (floating-point round-off).
const TOLERANCE: f64 = 1e-9;

/// A generated table: name, columns, and `(values, probability)` rows.
type Table = (&'static str, Vec<String>, Vec<(Vec<Value>, f64)>);

/// One generated TPC-H instance: its rows and the exact answers of every
/// query, computed before any timing starts.
struct Instance {
    label: &'static str,
    tables: Vec<Table>,
    /// `reference[q]`: exact `(head, probability)` of query `q`'s answers.
    reference: Vec<Vec<(Vec<Value>, f64)>>,
}

/// The `tpch-disk` workload.
pub struct TpchDisk {
    scale_factor: f64,
    memtable: usize,
    max_work: u64,
    queries: Vec<(TpchQuery, ConjunctiveQuery)>,
    instances: Vec<Instance>,
    dbs: Vec<Database>,
    obs: obs::Obs,
    /// On-disk bytes of each store after the last set-up's load.
    store_bytes: Vec<u64>,
}

impl TpchDisk {
    fn method(&self) -> ConfidenceMethod {
        ConfidenceMethod::DTreeRelative(EPSILON)
    }

    fn budget(&self) -> ConfidenceBudget {
        ConfidenceBudget { timeout: None, max_work: Some(self.max_work) }
    }

    /// One request: query `q` on instance `i`, on a fresh engine. Returns
    /// its latency and answers.
    fn request(
        &self,
        i: usize,
        q: usize,
        id: u64,
        t: &mut Tracer,
        acc: &mut Acc,
    ) -> (f64, Answers) {
        let db = &self.dbs[i];
        let query = &self.queries[q].1;
        let span = t.begin_request(id);
        let start = Instant::now();
        let answers = t.time("query.evaluate", || query.evaluate(db));
        let lineages: Vec<&Dnf> = answers.iter().map(|a| &a.lineage).collect();
        if t.is_on() {
            t.time("arena.intern", || {
                let mut arena = LineageArena::new();
                for l in &lineages {
                    black_box(arena.intern(l));
                }
            });
        }
        let engine = ConfidenceEngine::new(self.method())
            .with_threads(1)
            .with_budget(self.budget())
            .with_obs(&self.obs);
        let batch = t.time("engine.confidence_batch", || {
            engine.confidence_batch(&lineages, db.space(), Some(db.origins()))
        });
        let latency = start.elapsed().as_secs_f64();
        t.close(span);

        acc.clauses += lineages.iter().map(|l| l.len()).sum::<usize>() as f64;
        acc.item_s += batch.total_compute().as_secs_f64();
        acc.cache_hits += batch.cache.hits as f64;
        acc.cache_misses += batch.cache.misses as f64;
        batch.results.iter().for_each(|r| acc.add_result(r));
        let heads = answers.into_iter().map(|a| a.head).collect();
        (latency, (heads, batch.results))
    }

    /// Checks answers against the exact reference: the head values match,
    /// the exact probability lies in `[lower, upper]`, and a converged
    /// estimate is a relative ε-approximation (Prop. 5.8).
    fn check(&self, i: usize, q: usize, (heads, results): &Answers, cycle: &mut Cycle) {
        let reference = &self.instances[i].reference[q];
        if heads.len() != reference.len() {
            cycle.check(false);
        }
        for ((head, r), (want, p)) in heads.iter().zip(results).zip(reference) {
            cycle.quality.add(r);
            let within = r.lower - TOLERANCE <= *p && *p <= r.upper + TOLERANCE;
            let approx = !r.converged
                || ((1.0 - EPSILON) * p - TOLERANCE <= r.estimate
                    && r.estimate <= (1.0 + EPSILON) * p + TOLERANCE);
            cycle.check(head == want && r.degraded.is_none() && within && approx);
        }
    }

    fn requests(&self) -> Vec<(usize, usize)> {
        (0..self.instances.len())
            .flat_map(|i| (0..self.queries.len()).map(move |q| (i, q)))
            .collect()
    }
}

/// Head values and confidence results of one request's answers.
type Answers = (Vec<Vec<Value>>, Vec<ConfidenceResult>);

/// Exact answer probabilities: SPROUT where the safe plan applies, else an
/// unbudgeted exact d-tree. A Boolean query no tuple satisfies has no
/// answer (SPROUT reports it with probability 0).
fn reference(query: &ConjunctiveQuery, db: &Database) -> Vec<(Vec<Value>, f64)> {
    if let Some(mut exact) = sprout::answer_confidences(query, db) {
        exact.retain(|(head, p)| !head.is_empty() || *p > 0.0);
        return exact;
    }
    let answers = query.evaluate(db);
    let lineages: Vec<&Dnf> = answers.iter().map(|a| &a.lineage).collect();
    let exact = ConfidenceEngine::new(ConfidenceMethod::DTreeExact)
        .with_threads(1)
        .confidence_batch(&lineages, db.space(), Some(db.origins()));
    answers.into_iter().zip(exact.results).map(|(a, r)| (a.head, r.estimate)).collect()
}

impl Workload for TpchDisk {
    fn new(s: &Settings) -> Self {
        let (scale_factor, memtable) = if s.tiny { (0.02, 4 << 10) } else { (0.2, 64 << 10) };
        let queries: Vec<(TpchQuery, ConjunctiveQuery)> = TpchQuery::tractable()
            .into_iter()
            .chain(TpchQuery::iq())
            .map(|q| (q, q.query()))
            .collect();
        let configs = [
            ("p(0,1)", TpchConfig::new(scale_factor).with_seed(s.seed)),
            (
                "p(0,0.01)",
                TpchConfig::new(scale_factor).with_seed(s.seed).with_small_probabilities(),
            ),
        ];
        let instances = configs
            .into_iter()
            .map(|(label, config)| {
                let heap = TpchDatabase::generate(&config);
                let db = heap.database();
                let tables = TABLES
                    .iter()
                    .map(|&name| {
                        let columns = db.schema(name).expect("generated table").columns.clone();
                        let rows: Vec<(Vec<Value>, f64)> = db
                            .scan(name)
                            .map(|t| {
                                let var = t.lineage.clauses()[0].atoms()[0].var;
                                (t.values.clone(), db.space().prob_true(var))
                            })
                            .collect();
                        (name, columns, rows)
                    })
                    .collect();
                let reference = queries.iter().map(|(_, q)| reference(q, db)).collect();
                Instance { label, tables, reference }
            })
            .collect();
        TpchDisk {
            scale_factor,
            memtable,
            max_work: 20_000,
            queries,
            instances,
            dbs: Vec::new(),
            obs: obs::Obs::default(),
            store_bytes: Vec::new(),
        }
    }

    fn setup(&mut self, dir: &Path, t: &mut Tracer, acc: &mut Acc) {
        self.dbs.clear();
        acc.setups += 1.0;
        acc.runs = 0.0;
        self.store_bytes.clear();
        for inst in &self.instances {
            let bytes_before = write_bytes();
            let mut db = Database::open_disk(dir.join(inst.label), self.memtable)
                .unwrap_or_else(|e| panic!("cannot open the {} store: {e}", inst.label));
            db.attach_obs(&self.obs);
            for (name, columns, rows) in &inst.tables {
                let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                let mut writer = db.tuple_writer(name, &columns);
                t.time("storage.push", || {
                    for (values, p) in rows {
                        writer.push(values.clone(), *p);
                    }
                });
                acc.tuples += rows.len() as f64;
            }
            t.time("storage.sync", || db.sync_storage());
            acc.write_bytes += write_bytes() - bytes_before;
            self.store_bytes.push(dir_bytes(&dir.join(inst.label)));
            let stats = db.storage_stats();
            acc.flushes += stats.flushes as f64;
            acc.compactions += stats.compactions as f64;
            acc.wal_rotations += stats.wal_rotations as f64;
            acc.runs += stats.runs as f64;
            self.dbs.push(db);
        }
        // Warm-up: one untraced pass over the request mix.
        for (i, q) in self.requests() {
            self.request(i, q, 0, &mut Tracer::new(false), &mut Acc::default());
        }
    }

    fn fixed_cycles(&self, _seconds: f64) -> Option<usize> {
        None
    }

    fn cycle(&mut self, index: usize, t: &mut Tracer, acc: &mut Acc) -> Cycle {
        let mix = self.requests();
        let mut cycle = Cycle::default();
        let start = Instant::now();
        for (k, &(i, q)) in mix.iter().enumerate() {
            let id = (index * mix.len() + k + 1) as u64;
            let (latency, answers) = self.request(i, q, id, t, acc);
            cycle.latencies.push(latency);
            self.check(i, q, &answers, &mut cycle);
        }
        cycle.wall = start.elapsed().as_secs_f64();
        cycle
    }

    fn finish(&mut self, _last: &mut Cycle) {}

    fn attach_obs(&mut self, o: &obs::Obs) {
        self.obs = o.clone();
    }

    fn info(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scale_factor", self.scale_factor.to_string()),
            ("memtable_bytes", self.memtable.to_string()),
            ("store_bytes", format!("{:?}", self.store_bytes)),
            ("method", self.method().label()),
            ("max_work", self.max_work.to_string()),
            ("threads", "1".to_owned()),
            ("requests_per_cycle", self.requests().len().to_string()),
        ]
    }
}
