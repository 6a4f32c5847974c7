//! Pluggable table storage for [`crate::Database`].
//!
//! The database's backbone is a [`TableStore`]: the default [`HeapStore`]
//! keeps decoded relations in RAM exactly like the pre-refactor
//! `BTreeMap<String, Relation>` (zero behavior change), while the LSM-style
//! [`DiskStore`] spills tuples through a write-ahead log, a byte-budgeted
//! memtable, and immutable sorted runs with bloom filters — the out-of-core
//! backend. Query evaluation and lineage construction read rows out of
//! either store in place through the lending [`TableStore::rows`] cursor,
//! without materializing relations or copying tuples, and the
//! [`DiskStore`] WAL doubles as the recovery log for the probability space:
//! its last epoch record restores the exact pre-crash generation +
//! watermark, so warm `SubformulaCache` entries survive a restart.

use std::borrow::Cow;
use std::fmt;

use events::{Atom, Clause, Dnf};

use crate::relation::{AnnotatedTuple, Relation, Schema};
use crate::value::Value;

pub mod encode;
pub mod run;
pub mod wal;

mod disk;
mod heap;

pub use disk::{DiskStore, RecoveredMeta, COMPACT_RUNS};
pub use heap::HeapStore;

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// Committed data failed validation (bad frame, checksum, or encoding).
    Corrupt(String),
}

impl StorageError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        StorageError::Corrupt(msg.into())
    }

    /// `true` when the failure is plausibly momentary and the operation is
    /// safe to retry: interrupted syscalls, timeouts, and would-block
    /// conditions (the kinds the deterministic fault injector also uses for
    /// its transient class). [`StorageError::Corrupt`] and every other I/O
    /// kind — including the `UnexpectedEof` surfaced by an injected torn
    /// write — are permanent: retrying could duplicate a partial frame or
    /// keep re-reading data that will never validate.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            StorageError::Corrupt(_) => false,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage state: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Point-in-time counters describing a store — resource accounting for
/// benches and tests. Heap stores report only `tables`/`rows`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Live tables in the catalog.
    pub tables: usize,
    /// Live rows across all tables (current incarnations only).
    pub rows: usize,
    /// Bytes charged against the memtable budget.
    pub memtable_bytes: usize,
    /// Current write-ahead-log length in bytes.
    pub wal_bytes: u64,
    /// Live immutable runs.
    pub runs: usize,
    /// Rows stored across live runs (including superseded incarnations not
    /// yet compacted away).
    pub run_rows: usize,
    /// Memtable flushes performed by this handle.
    pub flushes: u64,
    /// Compactions performed by this handle.
    pub compactions: u64,
    /// WAL rotations (truncating rewrites after a full flush) performed by
    /// this handle.
    pub wal_rotations: u64,
}

/// One row of a table, lent by a [`RowCursor`] where it lies: in a heap
/// store's tuple, or in a disk scan's decode buffers. Its lineage clauses
/// are canonical, exactly the clauses of the stored tuple's [`Dnf`]: each
/// clause's atoms are sorted by variable, distinct and consistent, and the
/// clauses are sorted and distinct.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// The attribute values.
    pub values: &'a [Value],
    lineage: RowLineage<'a>,
}

#[derive(Debug, Clone, Copy)]
enum RowLineage<'a> {
    /// A stored tuple's lineage.
    Stored(&'a Dnf),
    /// Decoded clauses: clause `i` is `atoms[ends[i]..ends[i + 1]]`.
    Flat { atoms: &'a [Atom], ends: &'a [usize] },
}

impl<'a> Row<'a> {
    /// Lends a stored tuple.
    pub(crate) fn stored(tuple: &'a AnnotatedTuple) -> Row<'a> {
        Row { values: &tuple.values, lineage: RowLineage::Stored(&tuple.lineage) }
    }

    /// A row over decoded buffers whose clauses are already canonical.
    pub(crate) fn flat(values: &'a [Value], atoms: &'a [Atom], ends: &'a [usize]) -> Row<'a> {
        Row { values, lineage: RowLineage::Flat { atoms, ends } }
    }

    /// Number of lineage clauses.
    pub fn num_clauses(&self) -> usize {
        match self.lineage {
            RowLineage::Stored(dnf) => dnf.len(),
            RowLineage::Flat { ends, .. } => ends.len() - 1,
        }
    }

    /// The atoms of lineage clause `i`.
    fn clause(&self, i: usize) -> &'a [Atom] {
        match self.lineage {
            RowLineage::Stored(dnf) => dnf.clauses()[i].atoms(),
            RowLineage::Flat { atoms, ends } => &atoms[ends[i]..ends[i + 1]],
        }
    }

    /// The lineage clauses, in canonical order.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &'a [Atom]> + 'a {
        let row = *self;
        (0..row.num_clauses()).map(move |i| row.clause(i))
    }

    /// An owned copy of the row.
    pub fn to_tuple(&self) -> AnnotatedTuple {
        let lineage = match self.lineage {
            RowLineage::Stored(dnf) => dnf.clone(),
            RowLineage::Flat { .. } => {
                Dnf::from_clauses(self.clauses().map(|c| Clause::from_atoms(c.iter().copied())))
            }
        };
        AnnotatedTuple::new(self.values.to_vec(), lineage)
    }
}

/// A lending cursor over a table's rows, returned by [`TableStore::rows`].
/// Each row borrows the cursor until the next call, which lets disk stores
/// decode every row into the same buffers.
pub trait RowCursor {
    /// The next row, or `None` after the last.
    ///
    /// # Panics
    /// Disk stores panic on a read or decode failure in mid-scan: a
    /// truncated scan would be an unsound lineage, so the failure is left
    /// to the engine's panic isolation, which degrades the affected item.
    fn next_row(&mut self) -> Option<Row<'_>>;
}

/// The [`RowCursor`] over tuples held in memory.
pub(crate) struct StoredRows<'a>(pub(crate) std::slice::Iter<'a, AnnotatedTuple>);

impl RowCursor for StoredRows<'_> {
    fn next_row(&mut self) -> Option<Row<'_>> {
        self.0.next().map(Row::stored)
    }
}

/// A table store: the persistence backbone behind [`crate::Database`].
///
/// # Invariants
///
/// Every implementation must uphold the following; the database layer, the
/// query evaluators, and the crash-recovery protocol all rely on them.
///
/// 1. **Insertion-order scans.** [`TableStore::rows`] and
///    [`TableStore::scan`] yield a table's tuples in exactly the order
///    they were appended to the *current* incarnation. Row numbering
///    (`"R#i"` variable names), query-evaluation results, and
///    `materialize` all derive from this order.
/// 2. **Bit-exact annotations.** A scanned tuple compares equal — values,
///    variable ids, BID domain values, and probability `f64` bit patterns —
///    to the tuple that was appended, across any number of flushes,
///    compactions, restarts, and clones. Confidence computation over a
///    store-backed table is bit-identical to the heap path.
/// 3. **Replacement isolation.** After `create_table` for an existing name,
///    the table reads as empty: no row of the previous incarnation is ever
///    visible again, even before compaction reclaims it.
/// 4. **Durability ordering** (persistent stores). A tuple is logged before
///    it is applied; a run is complete and fsynced before the manifest
///    references it; recovery yields exactly the appends whose log records
///    are fully durable, in their original order.
/// 5. **Recovery-epoch fidelity** (persistent stores). `log_epoch` records
///    are replayed in order, and recovery reports the last one, so a revived
///    probability space restores the exact pre-crash generation; replaying
///    `log_variable` records in order reproduces identical `VarId`s and the
///    exact watermark.
/// 6. **Clone independence.** `clone_box` returns a handle whose subsequent
///    mutations are invisible to the original (and vice versa); two handles
///    never share mutable persistent state.
pub trait TableStore: fmt::Debug + Send + Sync {
    /// Clones the store into an independent handle (invariant 6).
    fn clone_box(&self) -> Box<dyn TableStore>;

    /// Creates a table, or replaces it (fresh incarnation, invariant 3) if
    /// the name exists. `logical_id` is the database's stable table id.
    fn create_table(&mut self, schema: Schema, logical_id: u32) -> Result<(), StorageError>;

    /// Appends one tuple to an existing table.
    fn append(&mut self, table: &str, tuple: &AnnotatedTuple) -> Result<(), StorageError>;

    /// The table's schema, if it exists.
    fn schema(&self, table: &str) -> Option<&Schema>;

    /// Number of rows in the table's current incarnation (0 if absent).
    fn table_len(&self, table: &str) -> usize;

    /// All table names, sorted.
    fn table_names(&self) -> Vec<&str>;

    /// A cursor over the table's rows in insertion order (invariant 1),
    /// each lent in place: heap stores lend their stored tuples; disk
    /// stores read each frame into one buffer per scan and decode it into
    /// one [`encode::RowBuf`] per scan, so a scan allocates per run, not
    /// per row, and resident memory stays bounded by the memtable budget,
    /// not the table size. Unknown tables yield no rows.
    fn rows<'a>(&'a self, table: &str) -> Box<dyn RowCursor + 'a>;

    /// Streams the table's tuples in insertion order (invariant 1), for
    /// callers that keep them. The default owns each row of
    /// [`TableStore::rows`] (`Cow::Owned`); heap stores override it to lend
    /// their tuples (`Cow::Borrowed`).
    fn scan<'a>(&'a self, table: &str) -> Box<dyn Iterator<Item = Cow<'a, AnnotatedTuple>> + 'a> {
        let mut rows = self.rows(table);
        Box::new(std::iter::from_fn(move || rows.next_row().map(|row| Cow::Owned(row.to_tuple()))))
    }

    /// Materializes the table as an owned [`Relation`] snapshot. The default
    /// builds it from [`TableStore::rows`]; heap stores override it with a
    /// straight clone.
    fn materialize(&self, table: &str) -> Option<Relation> {
        let schema = self.schema(table)?.clone();
        let mut rel = Relation::empty(schema);
        let mut rows = self.rows(table);
        while let Some(row) = rows.next_row() {
            rel.push(row.to_tuple());
        }
        Some(rel)
    }

    /// Records a probability-space variable append (name, full distribution,
    /// origin table) in the durability log. No-op for volatile stores.
    fn log_variable(
        &mut self,
        name: &str,
        distribution: &[f64],
        origin: Option<u32>,
    ) -> Result<(), StorageError>;

    /// Records a generation change — the recovery epoch (invariant 5).
    /// No-op for volatile stores.
    fn log_epoch(&mut self, generation: u64) -> Result<(), StorageError>;

    /// Forces logged state to stable storage. No-op for volatile stores.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Point-in-time resource counters.
    fn stats(&self) -> StorageStats;

    /// The `index`-th row (insertion order, invariant 1) of the table's
    /// current incarnation, or `None` when the table or index is absent.
    /// The default walks [`TableStore::scan`]; stores with keyed access
    /// override it with a point read that avoids materializing the table.
    fn row_at(&self, table: &str, index: usize) -> Result<Option<AnnotatedTuple>, StorageError> {
        Ok(self.scan(table).nth(index).map(Cow::into_owned))
    }

    /// Attaches an observability sink. Instrumented stores (the
    /// [`DiskStore`]) start emitting `storage.*` metrics and trace events;
    /// the default is a no-op so volatile stores need no handles.
    fn attach_obs(&mut self, _obs: &obs::Obs) {}

    /// Attaches a fault-injection handle ([`crate::fault::Fault`]).
    /// Instrumented stores start consulting their failpoint sites; the
    /// default is a no-op so volatile stores stay fault-free.
    fn attach_fault(&mut self, _fault: &crate::fault::Fault) {}
}

/// A scratch directory under the system temp dir, removed on drop. Used by
/// the storage tests and the out-of-core bench; public because integration
/// tests and the bench crate need it too.
#[doc(hidden)]
pub mod testutil {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// Self-cleaning scratch directory (see the module docs).
    #[derive(Debug)]
    pub struct TempDir {
        path: PathBuf,
    }

    impl TempDir {
        /// Creates a fresh directory namespaced by `label`, the process id,
        /// and a counter — collision-free without a randomness source.
        pub fn new(label: &str) -> TempDir {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("pdb-storage-{label}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create scratch dir");
            TempDir { path }
        }

        /// The directory path.
        pub fn path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}
