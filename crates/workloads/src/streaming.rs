//! Streaming-ingestion workloads: answer lineages that *grow* round by
//! round, together with the per-round [`LineageDelta`]s maintenance
//! consumes.
//!
//! The batch workloads in this crate ([`crate::tpch`], [`crate::mixes`])
//! produce fixed answer relations; delta-aware maintenance
//! (`cluster::ClusterEngine::maintain_batch`) additionally needs a *stream*:
//! each round appends newly arrived tuples to a subset of the answers'
//! lineages, and the harness must hand the engine exactly the clauses each
//! pooled d-tree frontier has not seen yet. [`StreamingWorkload`] models that: every appended clause pairs
//! one fresh variable (the streamed tuple) with existing variables of the
//! same answer (the join partners it matched), so deltas genuinely dirty the
//! suspended decompositions instead of dangling as independent islands.
//!
//! Each answer's lineage is a union of **variable-disjoint join blocks**
//! (short chains of [`BLOCK_CLAUSES`] clauses) rather than one monolithic
//! formula — the shape ingestion produces when every arriving tuple joins a
//! bounded group of partners. That shape is also what makes maintenance
//! *local*: an appended clause shares variables with exactly one independent
//! component of the suspended d-tree, so routing dirties that component and
//! leaves every other block's refinement untouched.
//!
//! The generator is deterministic given its config, so incremental-versus-
//! recompile comparisons run both sides over bit-identical formula
//! sequences.

use events::{Clause, Dnf, LineageDelta, ProbabilitySpace, VarId};
use pdb::{Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Clauses per join block of an answer's initial lineage. A block of `c`
/// chain clauses spans `c + 1` variables, comfortably under the exact-fold
/// threshold of the d-tree compilers, so each block settles into one exact
/// leaf of the decomposition.
pub const BLOCK_CLAUSES: usize = 3;

/// Configuration for [`StreamingWorkload`].
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Number of answer tuples (one growing lineage each).
    pub answers: usize,
    /// Clause count of each answer's initial lineage (variable-disjoint
    /// join blocks of [`BLOCK_CLAUSES`] 2-atom chain clauses each).
    pub initial_clauses: usize,
    /// Atoms per appended clause: one fresh variable plus
    /// `clause_width − 1` existing variables of the same answer.
    pub clause_width: usize,
    /// Clauses appended to each *touched* answer per round.
    pub appends_per_round: usize,
    /// Answers touched per round (clamped to `answers`); the rest see no
    /// delta, exercising the zero-work snapshot path.
    pub touched_per_round: usize,
    /// RNG seed; the whole stream is deterministic given the config.
    pub seed: u64,
}

impl StreamingConfig {
    /// A stream over `answers` lineages touching `touched_per_round` of
    /// them each round, with defaults (12 initial clauses in 4 join blocks,
    /// 2-atom appends, 2 appends per touched answer) sized so budgeted
    /// d-tree runs truncate and deltas visibly dirty the frontiers.
    pub fn new(answers: usize, touched_per_round: usize) -> Self {
        StreamingConfig {
            answers,
            initial_clauses: 12,
            clause_width: 2,
            appends_per_round: 2,
            touched_per_round,
            seed: 11,
        }
    }
}

/// A deterministic stream of growing answer lineages. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct StreamingWorkload {
    config: StreamingConfig,
    space: ProbabilitySpace,
    lineages: Vec<Dnf>,
    /// Per-answer variables, appended to as tuples stream in; bridging
    /// atoms are drawn from here so every delta touches the answer's
    /// existing decomposition.
    vars: Vec<Vec<VarId>>,
    rng: StdRng,
    round: usize,
}

impl StreamingWorkload {
    /// Builds the round-0 state: `answers` variable-disjoint lineages of
    /// `initial_clauses` clauses each, arranged as join blocks of
    /// [`BLOCK_CLAUSES`] chain clauses over their own fresh variables.
    pub fn new(config: StreamingConfig) -> Self {
        let mut space = ProbabilitySpace::new();
        let mut vars = Vec::with_capacity(config.answers);
        let mut lineages = Vec::with_capacity(config.answers);
        for k in 0..config.answers {
            let n = config.initial_clauses.max(1);
            let mut answer_vars: Vec<VarId> = Vec::new();
            let mut clauses = Vec::with_capacity(n);
            while clauses.len() < n {
                let c = BLOCK_CLAUSES.min(n - clauses.len());
                let mut block = Vec::with_capacity(c + 1);
                for _ in 0..=c {
                    let i = answer_vars.len() + block.len();
                    block.push(
                        space.add_bool(format!("a{k}_{i}"), 0.12 + 0.03 * ((i + k) % 8) as f64),
                    );
                }
                clauses.extend(block.windows(2).map(Clause::from_bools));
                answer_vars.extend(block);
            }
            lineages.push(Dnf::from_clauses(clauses));
            vars.push(answer_vars);
        }
        let rng = StdRng::seed_from_u64(config.seed);
        StreamingWorkload { config, space, lineages, vars, rng, round: 0 }
    }

    /// The shared probability space (grows monotonically; never invalidated
    /// in place, so pooled frontiers stay current across rounds).
    pub fn space(&self) -> &ProbabilitySpace {
        &self.space
    }

    /// The answers' *current* lineages — what this round's maintenance call
    /// should be handed alongside the deltas.
    pub fn lineages(&self) -> &[Dnf] {
        &self.lineages
    }

    /// Number of completed append rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Ingests one round: appends `appends_per_round` clauses to each of
    /// `touched_per_round` randomly chosen answers and returns one delta
    /// slot per answer (`None` for untouched answers), in the exact shape
    /// `maintain_batch` consumes. Each appended clause is one fresh
    /// variable (probability in `[0.2, 0.5)`) joined with existing
    /// variables of the same answer.
    pub fn next_round(&mut self) -> Vec<Option<LineageDelta>> {
        self.round += 1;
        let n = self.config.answers;
        let mut touched: Vec<usize> = (0..n).collect();
        // Partial Fisher-Yates: the first `touched_per_round` entries are a
        // uniform sample without replacement.
        let take = self.config.touched_per_round.min(n);
        for i in 0..take {
            let j = self.rng.gen_range(i..n);
            touched.swap(i, j);
        }
        let mut deltas: Vec<Option<LineageDelta>> = (0..n).map(|_| None).collect();
        for &k in &touched[..take] {
            let mut grown = self.lineages[k].clone();
            for a in 0..self.config.appends_per_round {
                let fresh = self
                    .space
                    .add_bool(format!("s{}_{k}_{a}", self.round), self.rng.gen_range(0.2..0.5));
                let mut atoms = vec![fresh];
                for _ in 1..self.config.clause_width.max(1) {
                    let existing = self.vars[k][self.rng.gen_range(0..self.vars[k].len())];
                    if !atoms.contains(&existing) {
                        atoms.push(existing);
                    }
                }
                self.vars[k].push(fresh);
                grown = grown.or(&Dnf::from_clauses(vec![Clause::from_bools(&atoms)]));
            }
            let delta =
                LineageDelta::between(&self.lineages[k], &grown).expect("or-growth is append-only");
            if !delta.is_empty() {
                deltas[k] = Some(delta);
            }
            self.lineages[k] = grown;
        }
        deltas
    }
}

/// Name of the table a [`StoredStreamingWorkload`] streams its tuples into.
pub const STREAM_TABLE: &str = "stream";

/// A [`StreamingWorkload`] whose streamed tuples land in a [`Database`]
/// table as they arrive — heap- or disk-backed.
///
/// Every tuple (initial blocks and per-round appends alike) goes through a
/// [`pdb::TupleWriter`] one row at a time: no intermediate full-relation
/// `Vec` is ever staged, so running the stream against a
/// [`pdb::storage::DiskStore`]-backed database keeps resident memory bounded
/// by the memtable budget while the table grows without bound. The tuple
/// variables come back from the writer, so the growing answer lineages are
/// exactly the [`StreamingWorkload`] formulas: same variable ids, same
/// distributions, same clause structure, same rng stream — only the variable
/// *names* differ (`"stream#row"` instead of `"a{k}_{i}"`).
///
/// Rows carry `(answer, seq)` so the table itself records which answer each
/// streamed tuple joined into and in what order.
#[derive(Debug)]
pub struct StoredStreamingWorkload {
    config: StreamingConfig,
    db: Database,
    lineages: Vec<Dnf>,
    vars: Vec<Vec<VarId>>,
    rng: StdRng,
    round: usize,
}

impl StoredStreamingWorkload {
    /// Builds the round-0 state inside `db` (which must not already have a
    /// table named [`STREAM_TABLE`] registered): the same join blocks as
    /// [`StreamingWorkload::new`], streamed row-by-row into the store.
    pub fn new(config: StreamingConfig, mut db: Database) -> Self {
        let mut vars = Vec::with_capacity(config.answers);
        let mut lineages = Vec::with_capacity(config.answers);
        let mut writer = db.tuple_writer(STREAM_TABLE, &["answer", "seq"]);
        for k in 0..config.answers {
            let n = config.initial_clauses.max(1);
            let mut answer_vars: Vec<VarId> = Vec::new();
            let mut clauses = Vec::with_capacity(n);
            while clauses.len() < n {
                let c = BLOCK_CLAUSES.min(n - clauses.len());
                let mut block = Vec::with_capacity(c + 1);
                for _ in 0..=c {
                    let i = answer_vars.len() + block.len();
                    let p = 0.12 + 0.03 * ((i + k) % 8) as f64;
                    let var = writer
                        .push(vec![Value::Int(k as i64), Value::Int(i as i64)], p)
                        .expect("stream probabilities are strictly below 1");
                    block.push(var);
                }
                clauses.extend(block.windows(2).map(Clause::from_bools));
                answer_vars.extend(block);
            }
            lineages.push(Dnf::from_clauses(clauses));
            vars.push(answer_vars);
        }
        let rng = StdRng::seed_from_u64(config.seed);
        StoredStreamingWorkload { config, db, lineages, vars, rng, round: 0 }
    }

    /// The database holding the streamed tuples (its space is the workload's
    /// probability space).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The shared probability space.
    pub fn space(&self) -> &ProbabilitySpace {
        self.db.space()
    }

    /// The answers' *current* lineages.
    pub fn lineages(&self) -> &[Dnf] {
        &self.lineages
    }

    /// Number of completed append rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Ingests one round exactly like [`StreamingWorkload::next_round`],
    /// appending each arriving tuple to the store as it is drawn.
    pub fn next_round(&mut self) -> Vec<Option<LineageDelta>> {
        self.round += 1;
        let n = self.config.answers;
        let mut touched: Vec<usize> = (0..n).collect();
        let take = self.config.touched_per_round.min(n);
        for i in 0..take {
            let j = self.rng.gen_range(i..n);
            touched.swap(i, j);
        }
        let mut deltas: Vec<Option<LineageDelta>> = (0..n).map(|_| None).collect();
        let mut writer = self.db.append_writer(STREAM_TABLE);
        for &k in &touched[..take] {
            let mut grown = self.lineages[k].clone();
            for _ in 0..self.config.appends_per_round {
                let p = self.rng.gen_range(0.2..0.5);
                let seq = self.vars[k].len();
                let fresh = writer
                    .push(vec![Value::Int(k as i64), Value::Int(seq as i64)], p)
                    .expect("stream probabilities are strictly below 1");
                let mut atoms = vec![fresh];
                for _ in 1..self.config.clause_width.max(1) {
                    let existing = self.vars[k][self.rng.gen_range(0..self.vars[k].len())];
                    if !atoms.contains(&existing) {
                        atoms.push(existing);
                    }
                }
                self.vars[k].push(fresh);
                grown = grown.or(&Dnf::from_clauses(vec![Clause::from_bools(&atoms)]));
            }
            let delta =
                LineageDelta::between(&self.lineages[k], &grown).expect("or-growth is append-only");
            if !delta.is_empty() {
                deltas[k] = Some(delta);
            }
            self.lineages[k] = grown;
        }
        deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_deterministic_given_the_config() {
        let cfg = StreamingConfig::new(5, 3);
        let mut a = StreamingWorkload::new(cfg.clone());
        let mut b = StreamingWorkload::new(cfg);
        assert_eq!(a.lineages(), b.lineages());
        for _ in 0..4 {
            let da = a.next_round();
            let db = b.next_round();
            assert_eq!(a.lineages(), b.lineages());
            for (x, y) in da.iter().zip(&db) {
                match (x, y) {
                    (None, None) => {}
                    (Some(x), Some(y)) => assert_eq!(x.clauses(), y.clauses()),
                    _ => panic!("divergent touch pattern"),
                }
            }
        }
        assert_eq!(a.round(), 4);
    }

    #[test]
    fn deltas_describe_exactly_the_growth() {
        let mut w = StreamingWorkload::new(StreamingConfig::new(4, 2));
        let before = w.lineages().to_vec();
        let watermark = w.space().watermark();
        let deltas = w.next_round();
        assert_eq!(deltas.iter().filter(|d| d.is_some()).count(), 2);
        assert!(w.space().watermark() > watermark, "fresh tuple variables were added");
        for ((old, new), delta) in before.iter().zip(w.lineages()).zip(&deltas) {
            match delta {
                Some(d) => {
                    assert_eq!(
                        LineageDelta::between(old, new).expect("append-only").clauses(),
                        d.clauses()
                    );
                    assert!(new.len() > old.len());
                }
                None => assert_eq!(old, new),
            }
        }
    }

    #[test]
    fn stored_stream_matches_the_plain_workload_bit_for_bit() {
        let cfg = StreamingConfig::new(4, 2);
        let mut plain = StreamingWorkload::new(cfg.clone());
        let mut stored = StoredStreamingWorkload::new(cfg, Database::new());
        assert_eq!(plain.lineages(), stored.lineages());
        for _ in 0..3 {
            plain.next_round();
            stored.next_round();
            assert_eq!(plain.lineages(), stored.lineages(), "same vars, same clauses");
        }
        // Every streamed tuple landed as a row, one variable each.
        let table = stored.database().table(STREAM_TABLE).unwrap();
        assert_eq!(table.len(), stored.space().num_vars());
        assert_eq!(stored.round(), 3);
    }

    #[test]
    fn stored_stream_into_a_disk_database_flushes_and_stays_bit_identical() {
        use pdb::storage::testutil::TempDir;
        let dir = TempDir::new("stored-stream");
        // A small budget so the growing stream table spills into runs.
        let db = Database::open_disk(dir.path(), 256).expect("open");
        let mut stored = StoredStreamingWorkload::new(StreamingConfig::new(3, 2), db);
        let mut plain = StreamingWorkload::new(StreamingConfig::new(3, 2));
        for _ in 0..2 {
            stored.next_round();
            plain.next_round();
        }
        assert_eq!(plain.lineages(), stored.lineages());
        let stats = stored.database().storage_stats();
        assert!(stats.flushes > 0, "the stream must overflow the memtable budget");
        assert_eq!(stored.database().table(STREAM_TABLE).unwrap().len(), stored.space().num_vars());
    }

    #[test]
    fn appended_clauses_bridge_into_existing_variables() {
        let mut w = StreamingWorkload::new(StreamingConfig {
            clause_width: 3,
            ..StreamingConfig::new(3, 3)
        });
        let before: Vec<_> = w.lineages().iter().map(|l| l.vars()).collect();
        let deltas = w.next_round();
        for (k, delta) in deltas.iter().enumerate() {
            let delta = delta.as_ref().expect("all answers touched");
            let bridges = delta
                .clauses()
                .iter()
                .flat_map(|c| c.vars())
                .filter(|v| before[k].contains(v))
                .count();
            assert!(bridges > 0, "deltas must touch the existing decomposition");
        }
    }
}
