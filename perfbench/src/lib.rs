//! Benchmark of the d-tree confidence pipeline: three closed-loop, single
//! client workloads that print end-to-end metrics, and a traced run of the
//! same workloads that prints per-layer metrics.
//!
//! * `tpch-disk` — Fig. 6: tractable and IQ TPC-H queries over two
//!   disk-backed databases, each request a cold query evaluation plus a
//!   confidence batch.
//! * `hard-budget` — Figs. 7–9: #P-hard lineages, each request one
//!   `(lineage, method)` call under a fixed step budget.
//! * `stream-cluster` — streaming maintenance: tuples pushed into a disk
//!   store, then one sharded `ClusterEngine::maintain_batch` per round.
//!
//! See `README.md` in this directory for sizes, budgets and the map from
//! per-layer to end-to-end metrics.

pub mod hard;
pub mod stream;
pub mod tpch;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pdb::confidence::ConfidenceResult;

pub use trace::Tracer;

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["tpch-disk", "hard-budget", "stream-cluster"];

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("requests_per_s", "1/s"),
    ("converged_frac", "ratio"),
    ("passed_frac", "ratio"),
    ("rss_peak_bytes", "B"),
];

/// Per-layer metrics (traced run), with units.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("storage.push_s", "s"),
    ("storage.flushes", "count"),
    ("storage.compactions", "count"),
    ("storage.wal_rotations", "count"),
    ("storage.write_bytes_per_tuple", "B"),
    ("storage.sync_s", "s"),
    ("storage.runs", "count"),
    ("query.evaluate_s", "s"),
    ("query.clauses", "count"),
    ("query.clauses_per_s", "1/s"),
    ("arena.intern_s", "s"),
    ("engine.batch_s", "s"),
    ("engine.item_s", "s"),
    ("engine.overhead_s", "s"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.width_mean", "1"),
    ("dtree.compile_s", "s"),
    ("dtree.work_per_s", "1/s"),
    ("dtree.memo_hit_rate", "ratio"),
    ("dtree.work", "count"),
    ("dtree.xor_nodes", "count"),
    ("mc.compute_s", "s"),
    ("mc.converged_frac", "ratio"),
    ("cluster.maintain_s", "s"),
    ("cluster.compute_s", "s"),
    ("cluster.utilization", "ratio"),
    ("cluster.imbalance", "ratio"),
    ("cluster.steals", "count"),
    ("cluster.migrations", "count"),
    ("cluster.resumed", "count"),
    ("cluster.cache_hit_rate", "ratio"),
    ("pool.evictions", "count"),
    ("bench.request_self_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// How often set-up runs in an untraced run; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed; every generator derives its inputs from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Directory for the disk stores; created and removed by the run.
    pub scratch: PathBuf,
    /// Directory for a traced run's spans and reports.
    pub out: PathBuf,
}

/// Counters a workload accumulates while it runs; turned into per-layer
/// metrics by [`per_layer`]. Times are seconds.
#[derive(Debug, Clone, Default)]
pub struct Acc {
    /// Set-ups run with this accumulator.
    pub setups: f64,
    /// Whether requests push tuples (else pushes happen in set-up only).
    pub push_in_requests: bool,
    /// Tuples pushed through `TupleWriter::push`.
    pub tuples: f64,
    /// `/proc/self/io` `write_bytes` over the pushes' window.
    pub write_bytes: f64,
    /// Storage counters over the pushes' window.
    pub flushes: f64,
    /// See [`Acc::flushes`].
    pub compactions: f64,
    /// See [`Acc::flushes`].
    pub wal_rotations: f64,
    /// Live runs at the end.
    pub runs: f64,
    /// Clauses in the answers `evaluate` returned.
    pub clauses: f64,
    /// Sum of per-item `elapsed` over engine batches.
    pub item_s: f64,
    /// Answers returned, and their `upper − lower` summed.
    pub quality: Quality,
    /// Sub-formula cache counters of engine batches.
    pub cache_hits: f64,
    /// See [`Acc::cache_hits`].
    pub cache_misses: f64,
    /// Sum of `elapsed` over d-tree results.
    pub dtree_s: f64,
    /// D-tree results seen.
    pub dtree_items: f64,
    /// Sum of `CompileStats::work`.
    pub dtree_work: f64,
    /// Sum of `CompileStats::xor_nodes`.
    pub dtree_xor: f64,
    /// Memo hits (exact and bound) of d-tree runs.
    pub memo_hits: f64,
    /// Memo misses (exact and bound evaluations) of d-tree runs.
    pub memo_misses: f64,
    /// Sum of `elapsed` over Monte-Carlo results.
    pub mc_s: f64,
    /// Monte-Carlo results seen.
    pub mc_items: f64,
    /// Converged Monte-Carlo results.
    pub mc_converged: f64,
    /// Sum of `ShardStats::compute`.
    pub cluster_compute_s: f64,
    /// Sum of round wall time × shards.
    pub cluster_capacity_s: f64,
    /// Sum over rounds of max shard compute ÷ mean shard compute.
    pub imbalance_sum: f64,
    /// Rounds counted in [`Acc::imbalance_sum`].
    pub imbalance_rounds: f64,
    /// Cluster counters.
    pub steals: f64,
    /// See [`Acc::steals`].
    pub migrations: f64,
    /// See [`Acc::steals`].
    pub resumed: f64,
    /// Cache counters of cluster rounds.
    pub cluster_hits: f64,
    /// See [`Acc::cluster_hits`].
    pub cluster_misses: f64,
    /// `ResumablePool` evictions.
    pub evictions: f64,
}

impl Acc {
    /// Adds the per-method counters of one confidence result.
    /// Results that ran no work (batch duplicates, maintenance snapshots)
    /// are skipped.
    pub fn add_result(&mut self, r: &ConfidenceResult) {
        if r.elapsed.is_zero() {
            return;
        }
        match &r.stats {
            Some(st) => {
                self.dtree_items += 1.0;
                self.dtree_s += r.elapsed.as_secs_f64();
                self.dtree_work += st.work() as f64;
                self.dtree_xor += st.xor_nodes as f64;
                self.memo_hits += (st.exact_cache_hits + st.bound_cache_hits) as f64;
                self.memo_misses += (st.exact_evaluations + st.bound_evaluations) as f64;
            }
            None if r.method.starts_with("aconf") => {
                self.mc_items += 1.0;
                self.mc_s += r.elapsed.as_secs_f64();
                self.mc_converged += f64::from(u8::from(r.converged));
            }
            None => {}
        }
    }
}

/// Answer quality of a measured pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    /// Answers returned.
    pub answers: u64,
    /// Answers that met their ε guarantee.
    pub converged: u64,
    /// Sum of `upper − lower` over answers.
    pub width_sum: f64,
}

impl Quality {
    /// Adds one answer.
    pub fn add(&mut self, r: &ConfidenceResult) {
        self.answers += 1;
        self.converged += u64::from(r.converged);
        self.width_sum += r.upper - r.lower;
    }

    fn merge(&mut self, other: &Quality) {
        self.answers += other.answers;
        self.converged += other.converged;
        self.width_sum += other.width_sum;
    }
}

/// Requests, answer quality and check outcomes: of one cycle of a workload
/// (a pass over the request mix, or one stream round), or of a measured
/// run's cycles added up.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    /// Request latencies in seconds.
    pub latencies: Vec<f64>,
    /// Wall time of the requests.
    pub wall: f64,
    /// Answers returned. Added up over a run, only the workload's
    /// deterministic unit of work counts: the first request cycle, or
    /// every round of the fixed stream.
    pub quality: Quality,
    /// Answers checked.
    pub attempted: u64,
    /// Answers that failed a check or came back degraded.
    pub failed: u64,
}

impl Cycle {
    /// Counts one checked answer.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, c: &Cycle, count_quality: bool) {
        self.latencies.extend_from_slice(&c.latencies);
        self.wall += c.wall;
        self.attempted += c.attempted;
        self.failed += c.failed;
        if count_quality {
            self.quality.merge(&c.quality);
        }
    }

    fn requests_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.wall
    }
}

/// A benchmark workload. `new` generates the inputs from the seed (not
/// timed); `setup` loads them and runs one warm-up pass (timed as
/// `setup_s`); the measured run is a series of cycles.
pub trait Workload {
    /// Generates the workload's inputs.
    fn new(settings: &Settings) -> Self
    where
        Self: Sized;
    /// Loads the inputs into a fresh store under `dir` and runs one
    /// warm-up pass over the request mix.
    fn setup(&mut self, dir: &Path, tracer: &mut Tracer, acc: &mut Acc);
    /// The number of cycles a run of `seconds` makes when it is fixed
    /// (the stream); `None` runs whole cycles until `seconds` elapse.
    fn fixed_cycles(&self, seconds: f64) -> Option<usize>;
    /// Runs cycle `index` and checks every answer it returned.
    fn cycle(&mut self, index: usize, tracer: &mut Tracer, acc: &mut Acc) -> Cycle;
    /// Checks made once after the last cycle, outside any timing.
    fn finish(&mut self, last: &mut Cycle);
    /// Attaches an observability registry to the program's own counters
    /// (traced runs only).
    fn attach_obs(&mut self, o: &obs::Obs);
    /// Seed, budgets, shard counts and sizes, recorded with each result.
    fn info(&self) -> Vec<(&'static str, String)>;
}

/// What a run prints: the result line and the run's recorded settings.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Answers checked.
    pub attempted: u64,
    /// Answers that failed a check.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Recorded settings (seed, budgets, shards, sizes, `nproc`).
    pub info: Vec<(&'static str, String)>,
    /// Human-readable per-layer table (traced runs).
    pub layer_report: Option<String>,
}

/// Runs one workload untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(workload: &str, settings: &Settings, traced: bool) -> Result<Report, String> {
    std::fs::create_dir_all(&settings.scratch)
        .map_err(|e| format!("cannot create {}: {e}", settings.scratch.display()))?;
    let report = match workload {
        "tpch-disk" => run_with::<tpch::TpchDisk>(workload, settings, traced),
        "hard-budget" => run_with::<hard::HardBudget>(workload, settings, traced),
        "stream-cluster" => run_with::<stream::StreamCluster>(workload, settings, traced),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    };
    let _ = std::fs::remove_dir_all(&settings.scratch);
    let report = report?;
    match report.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        Some((name, (v, _))) => Err(format!("metric {name} came out as {v}")),
        None => Ok(report),
    }
}

/// Runs the measured cycles. With `alternate`, odd cycles run traced
/// (into `tracer` and `acc`) and even ones untraced, so both share one
/// warm process and one data set; the result is `[untraced, traced]`.
fn measure<W: Workload>(
    w: &mut W,
    seconds: f64,
    alternate: bool,
    tracer: &mut Tracer,
    acc: &mut Acc,
) -> [Cycle; 2] {
    let fixed = w.fixed_cycles(seconds);
    let quality_cycles = fixed.unwrap_or(1);
    let mut passes = [Cycle::default(), Cycle::default()];
    let (mut off, mut ignored) = (Tracer::new(false), Acc::default());
    let start = Instant::now();
    let mut index = 0;
    while match fixed {
        Some(n) => index < n,
        None => index == 0 || start.elapsed().as_secs_f64() < seconds,
    } {
        let traced = alternate && index % 2 == 1;
        let cycle = if traced {
            let cycle = w.cycle(index, tracer, acc);
            acc.quality.merge(&cycle.quality);
            cycle
        } else {
            w.cycle(index, &mut off, &mut ignored)
        };
        passes[usize::from(traced)].add(&cycle, index < quality_cycles);
        index += 1;
    }
    let mut finale = Cycle::default();
    w.finish(&mut finale);
    passes[0].add(&finale, false);
    passes
}

fn run_with<W: Workload>(name: &str, s: &Settings, traced: bool) -> Result<Report, String> {
    let mut w = W::new(s);
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, unit: &str, v: f64| {
        metrics.insert(name.to_owned(), (v, unit.to_owned()));
    };
    if !traced {
        let mut setups = Vec::with_capacity(SETUPS);
        for i in 0..SETUPS {
            let dir = s.scratch.join(format!("setup-{i}"));
            let start = Instant::now();
            w.setup(&dir, &mut Tracer::new(false), &mut Acc::default());
            setups.push(start.elapsed().as_secs_f64());
            if i > 0 {
                let _ = std::fs::remove_dir_all(s.scratch.join(format!("setup-{}", i - 1)));
            }
        }
        let [pass, _] =
            measure(&mut w, s.seconds, false, &mut Tracer::new(false), &mut Acc::default());
        let q = &pass.quality;
        let mut info = settings_info(&w, name, s);
        put("setup_s", "s", median(&setups));
        put("latency_p50_s", "s", percentile(&pass.latencies, 0.5));
        put("latency_p90_s", "s", percentile(&pass.latencies, 0.9));
        put("requests_per_s", "1/s", pass.requests_per_s());
        put("converged_frac", "ratio", q.converged as f64 / q.answers.max(1) as f64);
        put("passed_frac", "ratio", 1.0 - pass.failed as f64 / pass.attempted.max(1) as f64);
        put("rss_peak_bytes", "B", rss_peak_bytes());
        info.push(("width_mean", (q.width_sum / q.answers.max(1) as f64).to_string()));
        info.push(("requests", pass.latencies.len().to_string()));
        info.push(("beyond_p90", beyond(&pass.latencies, 0.9).to_string()));
        return Ok(Report {
            correct: pass.failed == 0,
            attempted: pass.attempted,
            failed: pass.failed,
            metrics,
            info,
            layer_report: None,
        });
    }

    // Traced run: one traced set-up, then cycles alternating between
    // untraced and traced, so their throughputs compare directly.
    let registry = obs::Obs::enabled();
    w.attach_obs(&registry);
    let mut tracer = Tracer::new(true);
    let mut acc = Acc::default();
    w.setup(&s.scratch.join("traced"), &mut tracer, &mut acc);
    let [plain, pass] = measure(&mut w, s.seconds, true, &mut tracer, &mut acc);
    let mut info = settings_info(&w, name, s);
    let requests = pass.latencies.len() as f64;
    let overhead = 1.0 - pass.requests_per_s() / plain.requests_per_s();
    let layers = per_layer(&acc, &tracer, requests, overhead);
    for (name, unit) in PER_LAYER {
        put(name, unit, layers[name]);
    }
    let out = &s.out;
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let stem = format!("{name}-seed{}", s.seed);
    let spans = out.join(format!("{stem}-spans.jsonl"));
    tracer.write_jsonl(&spans).map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    if let Some(snap) = registry.snapshot() {
        let path = out.join(format!("{stem}-obs.jsonl"));
        std::fs::write(&path, snap.to_json_lines())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let mut text = format!(
        "per-layer report: {name}, seed {}, {requests} traced requests at {:.3}/s, \
         {} untraced at {:.3}/s\n",
        s.seed,
        pass.requests_per_s(),
        plain.latencies.len(),
        plain.requests_per_s()
    );
    for (layer, unit) in PER_LAYER {
        text.push_str(&format!("  {layer:<32} {:>16.6} {unit}\n", layers[layer]));
    }
    text.push_str("  span self time per traced request:\n");
    for (span, t) in tracer.request_self_times() {
        text.push_str(&format!("    {span:<30} {:>14.6} s\n", t / requests));
    }
    let path = out.join(format!("{stem}-layers.txt"));
    std::fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    info.push(("spans", spans.display().to_string()));
    Ok(Report {
        correct: pass.failed == 0 && plain.failed == 0,
        attempted: pass.attempted + plain.attempted,
        failed: pass.failed + plain.failed,
        metrics,
        info,
        layer_report: Some(text),
    })
}

/// The settings recorded with a result: the workload's own (sizes, budgets,
/// shards) plus seed, run length and `nproc`.
fn settings_info<W: Workload>(w: &W, name: &str, s: &Settings) -> Vec<(&'static str, String)> {
    let mut info = vec![("workload", name.to_owned())];
    info.extend(w.info());
    info.push(("seed", s.seed.to_string()));
    info.push(("seconds", s.seconds.to_string()));
    info.push(("nproc", nproc().to_string()));
    info
}

/// Turns accumulated counters and spans into the [`PER_LAYER`] metrics.
/// Times are per request, except set-up work (loads, syncs), which is per
/// set-up; see `README.md`.
pub fn per_layer(
    acc: &Acc,
    t: &Tracer,
    requests: f64,
    overhead: f64,
) -> BTreeMap<&'static str, f64> {
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let rate = |hits: f64, misses: f64| per(hits, hits + misses);
    let push_unit = if acc.push_in_requests { requests } else { acc.setups };
    let evaluate = t.total("query.evaluate");
    let batch = t.total("engine.confidence_batch");
    let mut m = BTreeMap::new();
    m.insert("storage.push_s", per(t.total("storage.push"), push_unit));
    m.insert("storage.flushes", per(acc.flushes, push_unit));
    m.insert("storage.compactions", per(acc.compactions, push_unit));
    m.insert("storage.wal_rotations", per(acc.wal_rotations, push_unit));
    m.insert("storage.write_bytes_per_tuple", per(acc.write_bytes, acc.tuples));
    m.insert("storage.sync_s", per(t.total("storage.sync"), acc.setups));
    m.insert("storage.runs", acc.runs);
    m.insert("query.evaluate_s", per(evaluate, requests));
    m.insert("query.clauses", per(acc.clauses, requests));
    m.insert("query.clauses_per_s", per(acc.clauses, evaluate));
    m.insert("arena.intern_s", per(t.total("arena.intern"), requests));
    m.insert("engine.batch_s", per(batch, requests));
    m.insert("engine.item_s", per(acc.item_s, requests));
    m.insert("engine.overhead_s", per(batch - acc.item_s, requests));
    m.insert("engine.cache_hit_rate", rate(acc.cache_hits, acc.cache_misses));
    m.insert("engine.width_mean", per(acc.quality.width_sum, acc.quality.answers as f64));
    m.insert("dtree.compile_s", per(acc.dtree_s, requests));
    m.insert("dtree.work_per_s", per(acc.dtree_work, acc.dtree_s));
    m.insert("dtree.memo_hit_rate", rate(acc.memo_hits, acc.memo_misses));
    m.insert("dtree.work", per(acc.dtree_work, acc.dtree_items));
    m.insert("dtree.xor_nodes", per(acc.dtree_xor, acc.dtree_items));
    m.insert("mc.compute_s", per(acc.mc_s, requests));
    m.insert("mc.converged_frac", per(acc.mc_converged, acc.mc_items));
    m.insert("cluster.maintain_s", per(t.total("cluster.maintain_batch"), requests));
    m.insert("cluster.compute_s", per(acc.cluster_compute_s, requests));
    m.insert("cluster.utilization", per(acc.cluster_compute_s, acc.cluster_capacity_s));
    m.insert("cluster.imbalance", per(acc.imbalance_sum, acc.imbalance_rounds));
    m.insert("cluster.steals", per(acc.steals, requests));
    m.insert("cluster.migrations", per(acc.migrations, requests));
    m.insert("cluster.resumed", per(acc.resumed, requests));
    m.insert("cluster.cache_hit_rate", rate(acc.cluster_hits, acc.cluster_misses));
    m.insert("pool.evictions", acc.evictions);
    let request_self = t.request_self_times().get("request").copied().unwrap_or(0.0);
    m.insert("bench.request_self_s", per(request_self, requests));
    m.insert("bench.trace_overhead", overhead);
    m
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q`-quantile of `xs` by the nearest-rank rule (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Number of samples strictly above the `q`-quantile.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let p = percentile(xs, q);
    xs.iter().filter(|&&x| x > p).count()
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn rss_peak_bytes() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb * 1024.0)
}

/// Bytes this process caused to be written to storage (`/proc/self/io`).
pub fn write_bytes() -> f64 {
    proc_field("/proc/self/io", "write_bytes:").unwrap_or(0.0)
}

/// Total size of the files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Renders the recorded settings as one JSON object.
pub fn info_line(r: &Report) -> String {
    let fields: Vec<String> =
        r.info.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'"))).collect();
    format!("{{\"config\": {{{}}}}}", fields.join(", "))
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (`run` never reports a non-finite value).
fn num(v: f64) -> String {
    format!("{v:?}")
}
