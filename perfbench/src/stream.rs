//! `stream-cluster` — streaming maintenance. Tuples stream into a disk
//! store in the shape of `workloads::StreamingConfig`; each round pushes
//! its tuples through `TupleWriter::push` and then runs
//! `ClusterEngine::maintain_batch` over a long-lived `ResumablePool`. A
//! round's latency is those two calls only: the generator's lineage
//! bookkeeping runs before the round starts.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cluster::ClusterEngine;
use events::{Clause, Dnf, LineageArena, LineageDelta, VarId};
use pdb::confidence::{ConfidenceBudget, ConfidenceMethod, ConfidenceResult};
use pdb::{ConfidenceEngine, Database, ResumablePool, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::streaming::BLOCK_CLAUSES;
use workloads::StreamingConfig;

use crate::{write_bytes, Acc, Cycle, Settings, Tracer, Workload};

/// Table the stream lands in.
const TABLE: &str = "stream";

/// Shards of the cluster (`nproc` of the reference machine).
const SHARDS: usize = 2;

/// Decomposition steps per item and round.
const MAX_STEPS: u64 = 2;

/// Measured rounds per second of `--seconds`: the stream is a fixed amount
/// of work, so every run maintains the same rounds over the same data.
const ROUNDS_PER_SECOND: f64 = 15.0;

/// One streamed tuple: the answer it joins, its probability, and the
/// indices (into the answer's variables so far) of its join partners.
struct Tuple {
    answer: usize,
    p: f64,
    partners: Vec<usize>,
}

/// The `stream-cluster` workload.
pub struct StreamCluster {
    config: StreamingConfig,
    memtable: usize,
    rounds_per_second: f64,
    /// Rounds generated ahead of time (the most any pass needs).
    stream: Vec<Vec<Tuple>>,
    obs: obs::Obs,
    state: Option<State>,
}

/// Everything set-up builds and the measured rounds advance.
struct State {
    dir: PathBuf,
    db: Database,
    lineages: Vec<Dnf>,
    vars: Vec<Vec<VarId>>,
    pool: ResumablePool,
    /// `(answer, seq)` of every acknowledged row, in push order.
    rows: Vec<(usize, usize)>,
    /// Results of the latest round.
    last: Vec<ConfidenceResult>,
}

impl StreamCluster {
    fn cluster(&self) -> ClusterEngine {
        ClusterEngine::new(ConfidenceMethod::DTreeExact)
            .with_shards(SHARDS)
            .with_budget(ConfidenceBudget { timeout: None, max_work: Some(MAX_STEPS) })
            .with_obs(&self.obs)
    }

    fn rounds(&self, seconds: f64) -> usize {
        ((seconds * self.rounds_per_second).round() as usize).max(1)
    }

    /// Pushes one round's tuples and maintains every answer. Returns the
    /// round's latency, its results, and whether the pushed tuples got the
    /// variable ids the bookkeeping assigned them.
    fn round(
        &self,
        st: &mut State,
        r: usize,
        t: &mut Tracer,
        acc: &mut Acc,
    ) -> (f64, Vec<ConfidenceResult>, bool) {
        // Bookkeeping, before the round starts: the lineage growth the
        // round's tuples cause. The tuples get the next variable ids.
        let first = st.db.space().num_vars() as u32;
        let tuples = &self.stream[r];
        let mut grown: Vec<Option<Dnf>> = vec![None; st.lineages.len()];
        let mut seqs = Vec::with_capacity(tuples.len());
        for (i, tuple) in tuples.iter().enumerate() {
            let fresh = VarId(first + i as u32);
            let vars = &mut st.vars[tuple.answer];
            let mut atoms = vec![fresh];
            for &j in &tuple.partners {
                if !atoms.contains(&vars[j]) {
                    atoms.push(vars[j]);
                }
            }
            seqs.push(vars.len());
            vars.push(fresh);
            let g = grown[tuple.answer].get_or_insert_with(|| st.lineages[tuple.answer].clone());
            *g = g.or(&Dnf::from_clauses(vec![Clause::from_bools(&atoms)]));
        }
        let mut deltas: Vec<Option<LineageDelta>> = vec![None; st.lineages.len()];
        for (k, g) in grown.into_iter().enumerate() {
            if let Some(g) = g {
                deltas[k] = LineageDelta::between(&st.lineages[k], &g).filter(|d| !d.is_empty());
                st.lineages[k] = g;
            }
        }
        let touched: Vec<&Dnf> =
            deltas.iter().zip(&st.lineages).filter(|(d, _)| d.is_some()).map(|(_, l)| l).collect();
        let cluster = self.cluster();

        let span = t.begin_request(r as u64 + 1);
        let start = Instant::now();
        let ids: Vec<Option<VarId>> = t.time("storage.push", || {
            let mut writer = st.db.append_writer(TABLE);
            tuples
                .iter()
                .zip(&seqs)
                .map(|(tuple, &seq)| {
                    writer.push(
                        vec![Value::Int(tuple.answer as i64), Value::Int(seq as i64)],
                        tuple.p,
                    )
                })
                .collect()
        });
        if t.is_on() {
            t.time("arena.intern", || {
                let mut arena = LineageArena::new();
                for l in &touched {
                    std::hint::black_box(arena.intern(l));
                }
            });
        }
        let out = t.time("cluster.maintain_batch", || {
            cluster.maintain_batch(&st.lineages, &deltas, st.db.space(), None, &mut st.pool)
        });
        let latency = start.elapsed().as_secs_f64();
        t.close(span);

        let expected = (0..tuples.len()).map(|i| Some(VarId(first + i as u32)));
        let ids_ok = ids.into_iter().eq(expected);
        st.rows.extend(tuples.iter().zip(&seqs).map(|(tuple, &seq)| (tuple.answer, seq)));
        acc.tuples += tuples.len() as f64;
        let wall = out.wall.as_secs_f64();
        let compute: Vec<f64> = out.shards.iter().map(|s| s.compute.as_secs_f64()).collect();
        let total: f64 = compute.iter().sum();
        acc.cluster_compute_s += total;
        acc.cluster_capacity_s += wall * out.shards.len() as f64;
        if total > 0.0 {
            let max = compute.iter().copied().fold(0.0, f64::max);
            acc.imbalance_sum += max / (total / compute.len() as f64);
            acc.imbalance_rounds += 1.0;
        }
        acc.steals += out.total_stolen() as f64;
        acc.migrations += out.total_migrated() as f64;
        acc.resumed += out.total_resumed() as f64;
        acc.cluster_hits += out.cache.hits as f64;
        acc.cluster_misses += out.cache.misses as f64;
        (latency, out.results, ids_ok)
    }
}

impl Workload for StreamCluster {
    fn new(s: &Settings) -> Self {
        let (config, memtable, rounds_per_second) = if s.tiny {
            (StreamingConfig { seed: s.seed, ..StreamingConfig::new(40, 8) }, 8 << 10, 4.0)
        } else {
            (
                StreamingConfig { seed: s.seed, ..StreamingConfig::new(2_000, 200) },
                1 << 20,
                ROUNDS_PER_SECOND,
            )
        };
        // Generate the stream exactly as `StoredStreamingWorkload` does,
        // tracking only how many variables each answer has.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sizes: Vec<usize> = (0..config.answers).map(|_| initial_vars(&config)).collect();
        let n = config.answers;
        let take = config.touched_per_round.min(n);
        let rounds = ((s.seconds * rounds_per_second).round() as usize).max(2);
        let stream = (0..rounds)
            .map(|_| {
                let mut touched: Vec<usize> = (0..n).collect();
                for i in 0..take {
                    let j = rng.gen_range(i..n);
                    touched.swap(i, j);
                }
                let mut round = Vec::with_capacity(take * config.appends_per_round);
                for &k in &touched[..take] {
                    for _ in 0..config.appends_per_round {
                        let p = rng.gen_range(0.2..0.5);
                        let partners = (1..config.clause_width.max(1))
                            .map(|_| rng.gen_range(0..sizes[k]))
                            .collect();
                        sizes[k] += 1;
                        round.push(Tuple { answer: k, p, partners });
                    }
                }
                round
            })
            .collect();
        StreamCluster {
            config,
            memtable,
            rounds_per_second,
            stream,
            obs: obs::Obs::default(),
            state: None,
        }
    }

    fn setup(&mut self, dir: &Path, t: &mut Tracer, acc: &mut Acc) {
        self.state = None;
        acc.setups += 1.0;
        acc.push_in_requests = true;
        let mut db = Database::open_disk(dir, self.memtable)
            .unwrap_or_else(|e| panic!("cannot open the stream store: {e}"));
        db.attach_obs(&self.obs);
        // The round-0 lineages: variable-disjoint join blocks per answer.
        let mut lineages = Vec::with_capacity(self.config.answers);
        let mut vars = Vec::with_capacity(self.config.answers);
        let mut rows = Vec::new();
        {
            let mut writer = db.tuple_writer(TABLE, &["answer", "seq"]);
            for k in 0..self.config.answers {
                let n = self.config.initial_clauses.max(1);
                let mut answer_vars: Vec<VarId> = Vec::new();
                let mut clauses = Vec::with_capacity(n);
                while clauses.len() < n {
                    let c = BLOCK_CLAUSES.min(n - clauses.len());
                    let mut block = Vec::with_capacity(c + 1);
                    for _ in 0..=c {
                        let i = answer_vars.len() + block.len();
                        let p = 0.12 + 0.03 * ((i + k) % 8) as f64;
                        let values = vec![Value::Int(k as i64), Value::Int(i as i64)];
                        let var = writer.push(values, p).expect("stream probabilities are below 1");
                        block.push(var);
                        rows.push((k, i));
                    }
                    clauses.extend(block.windows(2).map(Clause::from_bools));
                    answer_vars.extend(block);
                }
                lineages.push(Dnf::from_clauses(clauses));
                vars.push(answer_vars);
            }
        }
        t.time("storage.sync", || db.sync_storage());
        // Warm-up: compile every answer once, pooling its frontier.
        let mut pool = ResumablePool::new(self.config.answers);
        let none: Vec<Option<LineageDelta>> = vec![None; lineages.len()];
        self.cluster().maintain_batch(&lineages, &none, db.space(), None, &mut pool);
        self.state =
            Some(State { dir: dir.to_owned(), db, lineages, vars, pool, rows, last: Vec::new() });
    }

    fn fixed_cycles(&self, seconds: f64) -> Option<usize> {
        Some(self.rounds(seconds).min(self.stream.len()))
    }

    fn cycle(&mut self, index: usize, t: &mut Tracer, acc: &mut Acc) -> Cycle {
        let mut st = self.state.take().expect("set-up ran");
        let stats_before = st.db.storage_stats();
        let evictions_before = st.pool.evictions();
        let bytes_before = write_bytes();
        let (latency, results, ids_ok) = self.round(&mut st, index, t, acc);
        acc.write_bytes += write_bytes() - bytes_before;
        let stats = st.db.storage_stats();
        acc.flushes += (stats.flushes - stats_before.flushes) as f64;
        acc.compactions += (stats.compactions - stats_before.compactions) as f64;
        acc.wal_rotations += (stats.wal_rotations - stats_before.wal_rotations) as f64;
        acc.runs = stats.runs as f64;
        acc.evictions += (st.pool.evictions() - evictions_before) as f64;
        let mut cycle = Cycle { latencies: vec![latency], wall: latency, ..Cycle::default() };
        cycle.check(ids_ok);
        for r in &results {
            acc.add_result(r);
            cycle.quality.add(r);
            cycle.check(
                r.degraded.is_none() && 0.0 <= r.lower && r.lower <= r.upper && r.upper <= 1.0,
            );
        }
        st.last = results;
        self.state = Some(st);
        cycle
    }

    /// The final maintained answers against a from-scratch exact batch,
    /// then recovery: reopening the store must bring back every
    /// acknowledged row.
    fn finish(&mut self, last: &mut Cycle) {
        let st = self.state.take().expect("set-up ran");
        let exact = ConfidenceEngine::new(ConfidenceMethod::DTreeExact)
            .with_threads(SHARDS)
            .confidence_batch(&st.lineages, st.db.space(), None);
        for (m, e) in st.last.iter().zip(&exact.results) {
            let p = e.estimate;
            let within = m.lower - 1e-9 <= p && p <= m.upper + 1e-9;
            last.check(within && (!m.converged || (m.estimate - p).abs() <= 1e-9));
        }
        let State { dir, db, rows, .. } = st;
        let vars = db.space().num_vars();
        drop(db);
        last.check(recovered(&dir, self.memtable, &rows, vars));
    }

    fn attach_obs(&mut self, o: &obs::Obs) {
        self.obs = o.clone();
    }

    fn info(&self) -> Vec<(&'static str, String)> {
        let c = &self.config;
        let round_tuples = c.touched_per_round.min(c.answers) * c.appends_per_round;
        vec![
            ("answers", c.answers.to_string()),
            ("touched_per_round", c.touched_per_round.to_string()),
            ("appends_per_round", c.appends_per_round.to_string()),
            ("initial_tuples", (c.answers * initial_vars(c)).to_string()),
            ("tuples_per_round", round_tuples.to_string()),
            ("rounds_per_second_of_run", self.rounds_per_second.to_string()),
            ("memtable_bytes", self.memtable.to_string()),
            ("method", ConfidenceMethod::DTreeExact.label()),
            ("max_steps", MAX_STEPS.to_string()),
            ("shards", SHARDS.to_string()),
        ]
    }
}

/// Variables of an answer's round-0 lineage (join blocks of
/// [`BLOCK_CLAUSES`] chain clauses each).
fn initial_vars(c: &StreamingConfig) -> usize {
    let n = c.initial_clauses.max(1);
    n + n.div_ceil(BLOCK_CLAUSES)
}

/// Reopens the store in `dir` and checks it holds exactly `rows`, in order,
/// and `vars` variables.
fn recovered(dir: &Path, memtable: usize, rows: &[(usize, usize)], vars: usize) -> bool {
    let Ok(db) = Database::open_disk(dir, memtable) else { return false };
    let expected = rows.iter().map(|&(k, seq)| vec![Value::Int(k as i64), Value::Int(seq as i64)]);
    db.space().num_vars() == vars && db.scan(TABLE).map(|t| t.values.clone()).eq(expected)
}
