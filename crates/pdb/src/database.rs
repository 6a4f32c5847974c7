//! Probabilistic databases: collections of tuple-independent and
//! block-independent-disjoint tables over one shared probability space,
//! backed by a pluggable [`TableStore`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;

use events::{Atom, Clause, Dnf, DnfView, LineageArena, ProbabilitySpace, VarId, VarOrigins};

use crate::relation::{AnnotatedTuple, Relation, Schema};
use crate::storage::{DiskStore, HeapStore, RowCursor, StorageError, StorageStats, TableStore};
use crate::value::Value;

/// A probabilistic database (Section VI-A of the paper, Figure 5).
///
/// * **Tuple-independent tables**: every tuple carries its own Boolean
///   variable and occurs in a world independently of all other tuples.
/// * **Block-independent-disjoint (BID) tables**: tuples are grouped in
///   blocks of mutually exclusive alternatives; one multi-valued variable per
///   block selects the alternative (or none).
/// * **Deterministic tables**: tuples present in every world (constant-true
///   lineage).
///
/// All tables share one [`ProbabilitySpace`], and each variable is labelled
/// with the table it originates from ([`Database::origins`]) — the metadata
/// that powers the independent-and factorization and the tractable
/// elimination orders of the d-tree algorithms.
///
/// Tuples live in a [`TableStore`]: the default heap store keeps decoded
/// relations in RAM, while [`Database::open_disk`] backs the database with
/// the LSM-style [`DiskStore`] (WAL + memtable + sorted runs) so tables can
/// outgrow the heap and survive restarts with their exact cache generation
/// (see [`Database::generation`]).
///
/// # Storage failures
///
/// Mutating methods treat storage-layer failures (WAL write errors, flush
/// I/O errors) as fatal and panic: a database whose durability log diverged
/// from its in-memory state has no sound continuation.
#[derive(Debug)]
pub struct Database {
    space: ProbabilitySpace,
    store: Box<dyn TableStore>,
    table_ids: BTreeMap<String, u32>,
    origins: VarOrigins,
    next_table_id: u32,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            space: ProbabilitySpace::new(),
            store: Box::new(HeapStore::new()),
            table_ids: BTreeMap::new(),
            origins: VarOrigins::new(),
            next_table_id: 0,
        }
    }
}

impl Clone for Database {
    /// Cloning yields an independent database: heap-backed clones copy their
    /// tables; a disk-backed clone **materializes to a heap snapshot**
    /// (two handles must never share one WAL). Either way the clones share
    /// the probability space's generation protocol, so divergence through
    /// table *replacement* on either side re-generations that side and can
    /// never serve the other side's cache entries.
    fn clone(&self) -> Self {
        Database {
            space: self.space.clone(),
            store: self.store.clone_box(),
            table_ids: self.table_ids.clone(),
            origins: self.origins.clone(),
            next_table_id: self.next_table_id,
        }
    }
}

/// Panics on storage failure — see the [`Database`] docs.
fn commit<T>(result: Result<T, StorageError>) -> T {
    result.unwrap_or_else(|e| panic!("storage engine failure: {e}"))
}

impl Database {
    /// Creates an empty heap-backed database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Opens (or initializes) a disk-backed database in `dir` with the given
    /// memtable byte budget.
    ///
    /// On an existing directory this **recovers** the pre-crash state: the
    /// WAL is replayed to rebuild the probability space variable-for-variable
    /// (bit-identical distributions and `VarId`s, hence the exact watermark),
    /// tables and their row counts are restored from runs + WAL tail, and the
    /// last logged epoch is restored via
    /// [`ProbabilitySpace::restore_generation`] — so the recovered space
    /// carries the exact generation fingerprint of the pre-crash one and
    /// warm [`dtree::SubformulaCache`] entries keyed against it remain
    /// servable.
    pub fn open_disk(dir: impl AsRef<Path>, memtable_budget: usize) -> Result<Self, StorageError> {
        let (store, meta) = DiskStore::open(dir.as_ref(), memtable_budget)?;
        let mut space = ProbabilitySpace::new();
        let mut origins = VarOrigins::new();
        for (name, distribution, origin) in &meta.vars {
            let v = space.try_add_discrete(name.clone(), distribution.clone()).map_err(|e| {
                StorageError::Corrupt(format!("invalid logged distribution for {name:?}: {e}"))
            })?;
            if let Some(o) = origin {
                origins.set(v, *o);
            }
        }
        if let Some(g) = meta.generation {
            space.restore_generation(g);
        }
        let table_ids: BTreeMap<String, u32> = meta.table_ids.iter().cloned().collect();
        let next_table_id = table_ids.values().max().map_or(0, |m| m + 1);
        let mut db = Database { space, store: Box::new(store), table_ids, origins, next_table_id };
        if meta.generation.is_none() {
            // Brand-new store: log the initial epoch so the very first
            // recovery can already restore an exact generation.
            db.store.log_epoch(db.space.generation())?;
        }
        Ok(db)
    }

    /// The shared probability space.
    pub fn space(&self) -> &ProbabilitySpace {
        &self.space
    }

    /// The generation fingerprint of the database's probability space
    /// (see [`ProbabilitySpace::generation`]).
    ///
    /// *Appending a fresh table* keeps the generation: the insert introduces
    /// new, independent variables and cannot change any probability computed
    /// before it, so warm [`dtree::SubformulaCache`] entries — tagged with
    /// the generation and the variable-count watermark they require — stay
    /// valid across inserts. *Replacing* an existing table (or calling
    /// [`Database::invalidate_caches`]) is a genuine in-place change and
    /// advances the generation, retiring every previous entry: after such a
    /// change, cached probabilities from before it can never be served again.
    ///
    /// For disk-backed databases the fingerprint doubles as the **recovery
    /// epoch**: every generation change is logged to the WAL, and
    /// [`Database::open_disk`] restores the last one exactly, so warm-cache
    /// semantics survive a restart.
    pub fn generation(&self) -> u64 {
        self.space.generation()
    }

    /// Explicitly advances the generation, invalidating every sub-formula
    /// cache entry computed against the current state. Mutating methods call
    /// this implicitly; it only needs to be called by hand after out-of-band
    /// changes (e.g. mutating a [`Relation`] obtained through interior
    /// access in an extension).
    pub fn invalidate_caches(&mut self) {
        self.space.invalidate();
        commit(self.store.log_epoch(self.space.generation()));
    }

    /// Variable origin labels (variable → table id).
    pub fn origins(&self) -> &VarOrigins {
        &self.origins
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.store.table_names()
    }

    /// Materializes a table by name as an owned [`Relation`] snapshot.
    ///
    /// Heap-backed databases return a clone of the stored relation;
    /// disk-backed ones decode every row. For large disk tables prefer
    /// [`Database::scan`], which streams tuples without materializing the
    /// relation.
    pub fn table(&self, name: &str) -> Option<Relation> {
        self.store.materialize(name)
    }

    /// Streams a table's tuples in insertion order without materializing the
    /// relation: borrowed from the heap store, decoded into owned tuples
    /// row-by-row from disk (resident memory stays bounded by the memtable
    /// budget). Unknown tables yield an empty stream. [`Database::rows`]
    /// reads the same rows without owning them.
    pub fn scan<'a>(&'a self, name: &str) -> impl Iterator<Item = Cow<'a, AnnotatedTuple>> + 'a {
        self.store.scan(name)
    }

    /// A cursor over a table's rows in insertion order, each lent in place
    /// ([`TableStore::rows`]): a heap store's tuples are not copied, and a
    /// disk store decodes every row into the same buffers. Unknown tables
    /// yield no rows.
    pub fn rows<'a>(&'a self, name: &str) -> Box<dyn RowCursor + 'a> {
        self.store.rows(name)
    }

    /// Keyed point read: the `index`-th row (insertion order) of a table, or
    /// `None` when the table or index is absent. Heap-backed databases answer
    /// in O(1); disk-backed ones map the position to its global sequence
    /// number and probe the memtable and run bloom filters
    /// ([`DiskStore::get_row`]) — never materializing or scanning the table.
    pub fn row(&self, name: &str, index: usize) -> Result<Option<AnnotatedTuple>, StorageError> {
        self.store.row_at(name, index)
    }

    /// Streams the clauses of a table's *Boolean* lineage (the disjunction
    /// of all tuple lineages) straight into `arena` — the out-of-core
    /// counterpart of [`Relation::boolean_lineage`]. Each row's clauses are
    /// read in place from [`Database::rows`]: no tuple is copied, and only
    /// interned clause ids accumulate in memory.
    pub fn scan_boolean_lineage(&self, name: &str, arena: &mut LineageArena) -> DnfView {
        let mut view = DnfView::empty();
        let mut rows = self.rows(name);
        while let Some(row) = rows.next_row() {
            for clause in row.clauses() {
                arena.insert_clause(&mut view, clause);
            }
        }
        view
    }

    /// The schema of a table, if it exists.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.store.schema(name)
    }

    /// Numeric id assigned to a table (used as the variable-origin group).
    pub fn table_id(&self, name: &str) -> Option<u32> {
        self.table_ids.get(name).copied()
    }

    /// Total number of tuples across all tables.
    pub fn total_tuples(&self) -> usize {
        self.store.table_names().iter().map(|n| self.store.table_len(n)).sum()
    }

    /// Storage-layer resource counters (memtable bytes, WAL length, runs,
    /// flush/compaction counts). Heap-backed databases report only
    /// table/row counts.
    pub fn storage_stats(&self) -> StorageStats {
        self.store.stats()
    }

    /// Attaches an observability sink to the storage layer: disk-backed
    /// databases start emitting `storage.*` metrics (WAL appends/rotations,
    /// flushes, compactions, bloom screen outcomes) and trace events into
    /// it. A no-op for heap-backed databases, and with the default disabled
    /// sink every handle stays a no-op.
    pub fn attach_obs(&mut self, obs: &obs::Obs) {
        self.store.attach_obs(obs);
    }

    /// Attaches a fault-injection handle ([`crate::fault::Fault`]) to the
    /// storage layer: disk-backed databases start consulting their
    /// `wal.*`/`storage.*` failpoint sites. A no-op for heap-backed
    /// databases, and with the default disabled handle every site stays
    /// free.
    pub fn attach_fault(&mut self, fault: &crate::fault::Fault) {
        self.store.attach_fault(fault);
    }

    /// Forces buffered storage state down: drains the memtable into a run
    /// and fsyncs the WAL. No-op for heap-backed databases.
    pub fn sync_storage(&mut self) {
        commit(self.store.sync());
    }

    fn register_table(&mut self, name: &str) -> u32 {
        // Registering a *fresh* table is append-only: it introduces new
        // variables and tuples but cannot change any existing variable's
        // distribution, so every sub-formula probability computed before the
        // insert is still correct — the generation survives and warm cache
        // entries keep serving (watermark-scoped invalidation; see
        // [`ProbabilitySpace::watermark`]). Replacing an existing table is a
        // genuine in-place change and retires everything; the new generation
        // is logged as the store's recovery epoch.
        if let Some(&id) = self.table_ids.get(name) {
            self.space.invalidate();
            commit(self.store.log_epoch(self.space.generation()));
            return id;
        }
        let id = self.next_table_id;
        self.table_ids.insert(name.to_owned(), id);
        self.next_table_id += 1;
        id
    }

    /// Creates (or replaces) a tuple-independent table and returns a
    /// [`TupleWriter`] that streams rows straight into the store — the
    /// no-staging-`Vec` ingestion path the scaled workload generators use.
    pub fn tuple_writer(&mut self, name: &str, columns: &[&str]) -> TupleWriter<'_> {
        let table_id = self.register_table(name);
        commit(self.store.create_table(Schema::new(name, columns), table_id));
        TupleWriter { db: self, table: name.to_owned(), table_id, next_row: 0 }
    }

    /// A [`TupleWriter`] appending to an **existing** tuple-independent
    /// table, continuing its `"{name}#{row}"` numbering — the streaming-
    /// ingestion primitive behind
    /// [`Database::append_tuple_independent_rows`].
    ///
    /// # Panics
    /// Panics if no table of that name exists.
    pub fn append_writer(&mut self, name: &str) -> TupleWriter<'_> {
        let table_id = *self
            .table_ids
            .get(name)
            .unwrap_or_else(|| panic!("append_writer: unknown table {name:?}"));
        let next_row = self.store.table_len(name);
        TupleWriter { db: self, table: name.to_owned(), table_id, next_row }
    }

    /// Adds a tuple-independent table: each row `(values, probability)` gets
    /// its own Boolean variable. Probabilities must lie in `(0, 1)`; rows
    /// with probability `>= 1` are stored as deterministic (constant-true
    /// lineage) which keeps generators simple.
    pub fn add_tuple_independent_table(
        &mut self,
        name: &str,
        columns: &[&str],
        rows: Vec<(Vec<Value>, f64)>,
    ) -> Vec<Option<VarId>> {
        let mut writer = self.tuple_writer(name, columns);
        rows.into_iter().map(|(values, p)| writer.push(values, p)).collect()
    }

    /// Appends rows to an **existing** tuple-independent table in place —
    /// the streaming-ingestion primitive. Each appended row gets a fresh
    /// Boolean variable continuing the table's `"{name}#{row}"` numbering;
    /// rows with probability `>= 1` are stored as deterministic, exactly as
    /// in [`Database::add_tuple_independent_table`].
    ///
    /// Appending is **append-only growth**: it introduces new independent
    /// variables but cannot change any existing variable's distribution, so
    /// the space's [`generation`](Database::generation) survives (only the
    /// watermark advances) and both warm [`dtree::SubformulaCache`] entries
    /// and suspended [`crate::confidence::ResumableConfidence`] handles stay
    /// valid. This is what makes maintenance incremental: compute the
    /// per-answer [`events::LineageDelta`]s for the new rows and feed them to
    /// the `cluster` crate's `ClusterEngine::maintain_batch` instead of
    /// re-evaluating the query from scratch.
    ///
    /// Returns the per-row variables (`None` for deterministic rows).
    ///
    /// # Panics
    /// Panics if no table of that name exists — replacing or retyping a table
    /// is an in-place change and must go through
    /// [`Database::add_tuple_independent_table`], which invalidates caches.
    pub fn append_tuple_independent_rows(
        &mut self,
        name: &str,
        rows: Vec<(Vec<Value>, f64)>,
    ) -> Vec<Option<VarId>> {
        if !self.table_ids.contains_key(name) {
            panic!("append_tuple_independent_rows: unknown table {name:?}");
        }
        let mut writer = self.append_writer(name);
        rows.into_iter().map(|(values, p)| writer.push(values, p)).collect()
    }

    /// Adds a deterministic table (all tuples certain).
    pub fn add_deterministic_table(&mut self, name: &str, columns: &[&str], rows: Vec<Vec<Value>>) {
        let table_id = self.register_table(name);
        commit(self.store.create_table(Schema::new(name, columns), table_id));
        for values in rows {
            commit(self.store.append(name, &AnnotatedTuple::new(values, Dnf::tautology())));
        }
    }

    /// Adds a block-independent-disjoint table. Each block is a list of
    /// mutually exclusive alternatives `(values, probability)`; if the block
    /// probabilities sum to less than 1, the remaining mass is assigned to
    /// "no alternative present". One multi-valued variable is created per
    /// block (with domain value 0 reserved for "none" when needed).
    ///
    /// Returns the block variables.
    pub fn add_bid_table(
        &mut self,
        name: &str,
        columns: &[&str],
        blocks: Vec<Vec<(Vec<Value>, f64)>>,
    ) -> Vec<VarId> {
        let table_id = self.register_table(name);
        commit(self.store.create_table(Schema::new(name, columns), table_id));
        let mut block_vars = Vec::with_capacity(blocks.len());
        for (b, alternatives) in blocks.into_iter().enumerate() {
            assert!(!alternatives.is_empty(), "BID block must have at least one alternative");
            let total: f64 = alternatives.iter().map(|(_, p)| p).sum();
            assert!(total <= 1.0 + 1e-9, "BID block probabilities must sum to at most 1");
            let leftover = (1.0 - total).max(0.0);
            // Domain: value 0 = "none" (if leftover > 0), then one value per
            // alternative.
            let mut distribution = Vec::new();
            let has_none = leftover > 1e-12;
            if has_none {
                distribution.push(leftover);
            }
            distribution.extend(alternatives.iter().map(|(_, p)| *p));
            let var = if distribution.len() == 1 {
                // Degenerate single certain alternative: deterministic tuple.
                None
            } else {
                let v = self.space.add_discrete(format!("{name}@{b}"), distribution);
                let info = self.space.info(v).expect("variable just added");
                commit(self.store.log_variable(&info.name, &info.distribution, Some(table_id)));
                self.origins.set(v, table_id);
                Some(v)
            };
            if let Some(v) = var {
                block_vars.push(v);
            }
            for (i, (values, _)) in alternatives.into_iter().enumerate() {
                let lineage = match var {
                    Some(v) => {
                        let offset = if has_none { 1 } else { 0 };
                        Dnf::singleton(Clause::singleton(Atom::new(v, (i + offset) as u32)))
                    }
                    None => Dnf::tautology(),
                };
                commit(self.store.append(name, &AnnotatedTuple::new(values, lineage)));
            }
        }
        block_vars
    }
}

/// Streams rows into one tuple-independent table of a [`Database`] without
/// any intermediate staging `Vec` — each pushed row creates its variable,
/// logs it, and lands in the [`TableStore`] immediately (triggering memtable
/// flushes on disk-backed stores as the byte budget fills). Obtained from
/// [`Database::tuple_writer`] (create/replace) or
/// [`Database::append_writer`] (append-only growth).
#[derive(Debug)]
pub struct TupleWriter<'a> {
    db: &'a mut Database,
    table: String,
    table_id: u32,
    next_row: usize,
}

impl TupleWriter<'_> {
    /// Appends one row. Probabilities `>= 1` store a deterministic row
    /// (constant-true lineage, no variable); otherwise the row gets a fresh
    /// Boolean variable named `"{table}#{row}"`, returned for lineage
    /// bookkeeping.
    pub fn push(&mut self, values: Vec<Value>, p: f64) -> Option<VarId> {
        let db = &mut *self.db;
        let (lineage, var) = if p >= 1.0 {
            (Dnf::tautology(), None)
        } else {
            let v = db.space.add_bool(format!("{}#{}", self.table, self.next_row), p);
            let info = db.space.info(v).expect("variable just added");
            commit(db.store.log_variable(&info.name, &info.distribution, Some(self.table_id)));
            db.origins.set(v, self.table_id);
            (Dnf::literal(v), Some(v))
        };
        commit(db.store.append(&self.table, &AnnotatedTuple::new(values, lineage)));
        self.next_row += 1;
        var
    }

    /// Rows in the table after the pushes so far.
    pub fn rows(&self) -> usize {
        self.next_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::testutil::TempDir;

    #[test]
    fn tuple_independent_table_creates_one_variable_per_row() {
        let mut db = Database::new();
        let vars = db.add_tuple_independent_table(
            "E",
            &["u", "v"],
            vec![
                (vec![Value::Int(5), Value::Int(7)], 0.9),
                (vec![Value::Int(5), Value::Int(11)], 0.8),
            ],
        );
        assert_eq!(vars.len(), 2);
        assert!(vars.iter().all(Option::is_some));
        assert_eq!(db.space().num_vars(), 2);
        let table = db.table("E").unwrap();
        assert_eq!(table.len(), 2);
        assert!((table.tuples[0].probability(db.space()) - 0.9).abs() < 1e-12);
        assert_eq!(db.origins().get(vars[0].unwrap()), db.table_id("E"));
    }

    #[test]
    fn certain_rows_become_deterministic() {
        let mut db = Database::new();
        let vars = db.add_tuple_independent_table(
            "R",
            &["a"],
            vec![(vec![Value::Int(1)], 1.0), (vec![Value::Int(2)], 0.5)],
        );
        assert_eq!(vars[0], None);
        assert!(vars[1].is_some());
        let table = db.table("R").unwrap();
        assert!(table.tuples[0].lineage.is_tautology());
    }

    #[test]
    fn deterministic_table_has_constant_lineage() {
        let mut db = Database::new();
        db.add_deterministic_table(
            "N",
            &["id", "name"],
            vec![vec![Value::Int(1), Value::str("eu")]],
        );
        let t = db.table("N").unwrap();
        assert!(t.tuples[0].lineage.is_tautology());
        assert_eq!(db.space().num_vars(), 0);
    }

    #[test]
    fn bid_table_builds_mutually_exclusive_alternatives() {
        let mut db = Database::new();
        // One block with two alternatives 0.3 / 0.5 (0.2 mass on "none").
        let vars = db.add_bid_table(
            "E",
            &["u", "v", "present"],
            vec![vec![
                (vec![Value::Int(5), Value::Int(7), Value::Int(1)], 0.3),
                (vec![Value::Int(5), Value::Int(7), Value::Int(0)], 0.5),
            ]],
        );
        assert_eq!(vars.len(), 1);
        let var = vars[0];
        assert_eq!(db.space().domain_size(var), 3);
        let t = db.table("E").unwrap();
        let p1 = t.tuples[0].probability(db.space());
        let p2 = t.tuples[1].probability(db.space());
        assert!((p1 - 0.3).abs() < 1e-9);
        assert!((p2 - 0.5).abs() < 1e-9);
        // Mutually exclusive: conjunction of the two lineages is inconsistent.
        let both = t.tuples[0].lineage.and(&t.tuples[1].lineage);
        assert!(both.is_empty());
    }

    #[test]
    fn bid_block_with_full_mass_has_no_none_value() {
        let mut db = Database::new();
        let vars = db.add_bid_table(
            "E",
            &["x"],
            vec![vec![(vec![Value::Int(0)], 0.4), (vec![Value::Int(1)], 0.6)]],
        );
        assert_eq!(db.space().domain_size(vars[0]), 2);
        let t = db.table("E").unwrap();
        let total: f64 = t.tuples.iter().map(|tp| tp.probability(db.space())).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fresh_tables_keep_generation_but_replacement_invalidates() {
        let mut db = Database::new();
        let g0 = db.generation();
        db.add_tuple_independent_table("R", &["a"], vec![(vec![Value::Int(1)], 0.5)]);
        assert_eq!(db.generation(), g0, "inserting a fresh table is append-only");
        assert_eq!(db.space().watermark(), 1);
        db.add_deterministic_table("D", &["x"], vec![vec![Value::Int(1)]]);
        assert_eq!(db.generation(), g0);
        db.add_bid_table("B", &["x"], vec![vec![(vec![Value::Int(0)], 0.4)]]);
        assert_eq!(db.generation(), g0);
        assert_eq!(db.space().watermark(), 2);
        // Replacing an existing table is an in-place change: generation bumps.
        db.add_tuple_independent_table("R", &["a"], vec![(vec![Value::Int(2)], 0.7)]);
        let g1 = db.generation();
        assert!(g1 > g0, "replacing a table must advance the generation");
        db.invalidate_caches();
        assert!(db.generation() > g1);
        assert_eq!(db.generation(), db.space().generation());
    }

    /// Satellite regression for the clone/divergence edge: two clones of one
    /// database that diverge via table **replacement** must each land on a
    /// fresh, distinct generation — neither may keep serving cache entries
    /// tagged with the shared pre-clone fingerprint, and their post-divergence
    /// tags must not collide with each other either.
    #[test]
    fn cloned_databases_diverging_by_replacement_get_distinct_generations() {
        let mut a = Database::new();
        a.add_tuple_independent_table("R", &["x"], vec![(vec![Value::Int(1)], 0.5)]);
        let g0 = a.generation();
        let mut b = a.clone();
        assert_eq!(b.generation(), g0, "a clone starts on the shared generation");

        // B replaces R: B must leave the shared generation; A is untouched.
        b.add_tuple_independent_table("R", &["x"], vec![(vec![Value::Int(2)], 0.25)]);
        assert_eq!(a.generation(), g0);
        assert_ne!(b.generation(), g0, "replacement on a clone must re-generation it");

        // A replaces R too: now both clones moved, to *distinct* fresh tags.
        a.add_tuple_independent_table("R", &["x"], vec![(vec![Value::Int(3)], 0.75)]);
        assert_ne!(a.generation(), g0);
        assert_ne!(a.generation(), b.generation(), "divergent clones must not share a tag");

        // The replacement is fully isolated: each clone sees only its data.
        assert_eq!(a.table("R").unwrap().tuples[0].values, vec![Value::Int(3)]);
        assert_eq!(b.table("R").unwrap().tuples[0].values, vec![Value::Int(2)]);
    }

    #[test]
    fn appended_rows_extend_the_table_without_invalidation() {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "R",
            &["a"],
            vec![(vec![Value::Int(1)], 0.5), (vec![Value::Int(2)], 1.0)],
        );
        let g0 = db.generation();
        let w0 = db.space().watermark();
        let vars = db.append_tuple_independent_rows(
            "R",
            vec![(vec![Value::Int(3)], 0.25), (vec![Value::Int(4)], 1.0)],
        );
        // Generation survives (caches and resumable handles stay valid), the
        // watermark advances past the new variable.
        assert_eq!(db.generation(), g0);
        assert!(db.space().watermark() > w0);
        let table = db.table("R").unwrap();
        assert_eq!(table.len(), 4);
        assert_eq!(vars.len(), 2);
        // Variable naming continues the table's row numbering.
        let v = vars[0].expect("probabilistic row gets a variable");
        assert_eq!(db.space().info(v).unwrap().name, "R#2");
        assert_eq!(db.origins().get(v), db.table_id("R"));
        // Deterministic appended rows carry the constant-true lineage.
        assert_eq!(vars[1], None);
        assert!(table.tuples[3].lineage.is_tautology());
        assert!((table.tuples[2].probability(db.space()) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn append_to_missing_table_panics() {
        let mut db = Database::new();
        db.append_tuple_independent_rows("nope", vec![(vec![Value::Int(1)], 0.5)]);
    }

    #[test]
    fn table_bookkeeping() {
        let mut db = Database::new();
        db.add_deterministic_table("A", &["x"], vec![]);
        db.add_deterministic_table("B", &["y"], vec![vec![Value::Int(1)]]);
        assert_eq!(db.table_names(), vec!["A", "B"]);
        assert_eq!(db.total_tuples(), 1);
        assert!(db.table("C").is_none());
        assert_ne!(db.table_id("A"), db.table_id("B"));
        assert_eq!(db.schema("B").unwrap().columns, vec!["y"]);
    }

    #[test]
    fn scan_streams_tuples_in_insertion_order() {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "R",
            &["a"],
            vec![(vec![Value::Int(3)], 0.5), (vec![Value::Int(1)], 0.25)],
        );
        let scanned: Vec<AnnotatedTuple> = db.scan("R").map(Cow::into_owned).collect();
        assert_eq!(scanned, db.table("R").unwrap().tuples);
        assert_eq!(db.scan("missing").count(), 0);
    }

    #[test]
    fn scan_boolean_lineage_matches_the_materialized_disjunction() {
        let mut db = Database::new();
        db.add_tuple_independent_table(
            "R",
            &["a"],
            vec![(vec![Value::Int(1)], 0.5), (vec![Value::Int(2)], 0.25)],
        );
        let mut arena = LineageArena::new();
        let view = db.scan_boolean_lineage("R", &mut arena);
        let dnf = db.table("R").unwrap().boolean_lineage();
        assert_eq!(view.to_dnf(&arena), dnf);
        assert_eq!(view.hash(&arena), dnf.canonical_hash());
    }

    #[test]
    fn disk_backed_database_matches_heap_semantics() {
        let dir = TempDir::new("db-parity");
        let mut heap = Database::new();
        let mut disk = Database::open_disk(dir.path(), 1 << 20).expect("open");
        for db in [&mut heap, &mut disk] {
            db.add_tuple_independent_table(
                "R",
                &["a", "b"],
                vec![
                    (vec![Value::Int(1), Value::str("x")], 0.5),
                    (vec![Value::Int(2), Value::str("y")], 1.0),
                    (vec![Value::Int(3), Value::str("z")], 0.125),
                ],
            );
            db.add_bid_table(
                "B",
                &["k"],
                vec![vec![(vec![Value::Int(0)], 0.3), (vec![Value::Int(1)], 0.5)]],
            );
        }
        assert_eq!(heap.table("R"), disk.table("R"));
        assert_eq!(heap.table("B"), disk.table("B"));
        assert_eq!(heap.total_tuples(), disk.total_tuples());
        // Lineage bit-identity end to end.
        assert_eq!(
            heap.table("R").unwrap().boolean_lineage(),
            disk.table("R").unwrap().boolean_lineage()
        );
    }

    #[test]
    fn tiny_memtable_budget_flushes_to_runs_without_changing_reads() {
        let dir = TempDir::new("db-flush");
        // A budget far below one row forces a flush on every append.
        let mut disk = Database::open_disk(dir.path(), 1).expect("open");
        let rows: Vec<(Vec<Value>, f64)> =
            (0..40).map(|i| (vec![Value::Int(i)], 0.3 + 0.01 * (i % 30) as f64)).collect();
        let mut heap = Database::new();
        heap.add_tuple_independent_table("R", &["a"], rows.clone());
        disk.add_tuple_independent_table("R", &["a"], rows);
        let stats = disk.storage_stats();
        assert!(stats.flushes >= 40, "every append must overflow the 1-byte budget");
        assert!(stats.compactions > 0, "run growth must trigger compaction");
        assert!(stats.runs < stats.flushes as usize, "compaction must merge runs");
        assert_eq!(disk.table("R"), heap.table("R"), "reads must be unaffected by flushes");
    }

    #[test]
    fn row_cursors_lend_heap_tuples_and_read_the_same_rows_on_disk() {
        let dir = TempDir::new("db-rows");
        let mut heap = Database::new();
        let mut disk = Database::open_disk(dir.path(), 350).expect("open");
        for db in [&mut heap, &mut disk] {
            db.add_tuple_independent_table(
                "R",
                &["a", "b"],
                (0..20)
                    .map(|i| (vec![Value::Int(i), Value::str("s".repeat(i as usize % 4))], 0.5))
                    .collect(),
            );
            db.add_bid_table(
                "B",
                &["k"],
                (0..6)
                    .map(|b| vec![(vec![Value::Int(b)], 0.25), (vec![Value::Int(-b)], 0.5)])
                    .collect(),
            );
        }
        let stats = disk.storage_stats();
        assert!(stats.runs > 0 && stats.memtable_bytes > 0, "{stats:?}");
        for name in ["R", "B", "missing"] {
            let (mut on_heap, mut on_disk) = (heap.rows(name), disk.rows(name));
            for stored in heap.scan(name) {
                let Cow::Borrowed(tuple) = stored else { panic!("heap scans lend their tuples") };
                let lent = on_heap.next_row().expect("heap row");
                assert!(std::ptr::eq(lent.values, tuple.values.as_slice()), "lent, not copied");
                let decoded = on_disk.next_row().expect("disk row");
                assert_eq!(decoded.to_tuple(), *tuple);
                assert!(decoded.clauses().eq(tuple.lineage.clauses().iter().map(Clause::atoms)));
            }
            assert!(on_heap.next_row().is_none() && on_disk.next_row().is_none());
            let (mut a, mut b) = (LineageArena::new(), LineageArena::new());
            let (from_heap, from_disk) =
                (heap.scan_boolean_lineage(name, &mut a), disk.scan_boolean_lineage(name, &mut b));
            assert_eq!(from_heap.to_dnf(&a), from_disk.to_dnf(&b));
            assert_eq!(from_heap.hash(&a), from_disk.hash(&b));
        }
    }

    #[test]
    fn disk_database_recovers_tables_generation_and_watermark() {
        let dir = TempDir::new("db-recover");
        let (g, w, table, lineage) = {
            let mut db = Database::open_disk(dir.path(), 256).expect("open");
            db.add_tuple_independent_table(
                "R",
                &["a"],
                vec![(vec![Value::Int(1)], 0.5), (vec![Value::Int(2)], 0.75)],
            );
            // Replace once so the logged epoch is a non-initial generation.
            db.add_tuple_independent_table(
                "R",
                &["a"],
                (0..12).map(|i| (vec![Value::Int(i)], 0.25 + 0.05 * (i % 10) as f64)).collect(),
            );
            db.sync_storage();
            (
                db.generation(),
                db.space().watermark(),
                db.table("R").unwrap(),
                db.table("R").unwrap().boolean_lineage(),
            )
        };
        let recovered = Database::open_disk(dir.path(), 256).expect("recover");
        assert_eq!(recovered.generation(), g, "recovery epoch must restore the generation");
        assert_eq!(recovered.space().watermark(), w, "watermark must be exact");
        assert_eq!(recovered.table("R").unwrap(), table);
        assert_eq!(recovered.table("R").unwrap().boolean_lineage(), lineage);
        assert_eq!(recovered.table_id("R"), Some(0));
    }

    #[test]
    fn point_reads_match_materialized_rows_on_both_backends() {
        let dir = TempDir::new("db-row");
        let mut heap = Database::new();
        // A tiny budget forces flushes, so point reads cross memtable, runs,
        // and compacted runs alike.
        let mut disk = Database::open_disk(dir.path(), 64).expect("open");
        let rows: Vec<(Vec<Value>, f64)> =
            (0..20).map(|i| (vec![Value::Int(i)], 0.3 + 0.01 * (i % 30) as f64)).collect();
        heap.add_tuple_independent_table("R", &["a"], rows.clone());
        disk.add_tuple_independent_table("R", &["a"], rows);
        let rel = heap.table("R").unwrap();
        for (i, expected) in rel.tuples.iter().enumerate() {
            assert_eq!(heap.row("R", i).unwrap().as_ref(), Some(expected));
            assert_eq!(disk.row("R", i).unwrap().as_ref(), Some(expected), "row {i}");
        }
        assert_eq!(heap.row("R", rel.len()).unwrap(), None);
        assert_eq!(disk.row("R", rel.len()).unwrap(), None);
        assert_eq!(disk.row("missing", 0).unwrap(), None);
    }

    #[test]
    fn point_reads_survive_recovery() {
        let dir = TempDir::new("db-row-recover");
        let expected = {
            let mut db = Database::open_disk(dir.path(), 128).expect("open");
            db.add_tuple_independent_table(
                "R",
                &["a"],
                (0..15).map(|i| (vec![Value::Int(i)], 0.25 + 0.05 * (i % 10) as f64)).collect(),
            );
            db.sync_storage();
            db.table("R").unwrap()
        };
        let recovered = Database::open_disk(dir.path(), 128).expect("recover");
        for (i, tuple) in expected.tuples.iter().enumerate() {
            assert_eq!(recovered.row("R", i).unwrap().as_ref(), Some(tuple), "row {i}");
        }
        assert_eq!(recovered.row("R", expected.len()).unwrap(), None);
    }

    #[test]
    fn tuple_writer_appends_through_the_store() {
        let mut db = Database::new();
        let mut writer = db.tuple_writer("S", &["a"]);
        let v0 = writer.push(vec![Value::Int(1)], 0.5);
        let v1 = writer.push(vec![Value::Int(2)], 1.0);
        assert_eq!(writer.rows(), 2);
        assert!(v0.is_some() && v1.is_none());
        let mut more = db.append_writer("S");
        let v2 = more.push(vec![Value::Int(3)], 0.25);
        assert_eq!(db.space().info(v2.unwrap()).unwrap().name, "S#2");
        assert_eq!(db.table("S").unwrap().len(), 3);
    }
}
