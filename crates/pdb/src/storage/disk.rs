//! The LSM-style [`DiskStore`]: memtable + WAL + immutable runs +
//! annotation-preserving compaction.
//!
//! # Layout of a store directory
//!
//! ```text
//! wal.log      framed write-ahead log (see `storage::wal`)
//! MANIFEST     text log of run lifecycle: `add run-N.dat` / `swap ... <- ...`
//! run-N.dat    immutable sorted runs (see `storage::run`)
//! ```
//!
//! # Write path
//!
//! An append encodes the tuple once, logs it to the WAL, and inserts the
//! *same* payload bytes into the memtable (a `BTreeMap` keyed by
//! `(uid, seq)` where `uid = logical_id << 32 | epoch` identifies the table
//! incarnation and `seq` is globally monotone). When the memtable exceeds
//! its byte budget it is drained in key order into a new run, the run is
//! fsynced, and only then does the MANIFEST reference it — a crash at any
//! point leaves either a complete referenced run or an ignorable orphan
//! whose rows the WAL still carries. When the run count reaches
//! [`COMPACT_RUNS`], all live runs are k-way merged into one, dropping rows
//! of superseded table incarnations and copying every surviving payload
//! **byte-for-byte** — probability annotations are never re-encoded.
//!
//! # Recovery
//!
//! [`DiskStore::open`] reads the MANIFEST, opens the referenced runs
//! (rebuilding their blooms and sparse indexes), then replays the WAL:
//! variable and epoch records rebuild the [`events::ProbabilitySpace`]
//! recipe handed back as [`RecoveredMeta`]; row records with `seq` beyond
//! the runs' flush watermark refill the memtable. The **last** epoch record
//! is the recovery epoch: restoring it via
//! [`events::ProbabilitySpace::restore_generation`] makes the revived space
//! carry the exact generation + watermark of the pre-crash one, so warm
//! `SubformulaCache` entries keyed by that fingerprint stay servable across
//! the restart.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::fault::{Fault, RetryPolicy};
use crate::relation::{AnnotatedTuple, Schema};
use crate::storage::encode::{encode_tuple, RowBuf};
use crate::storage::run::{Run, RunWriter, TableScan};
use crate::storage::wal::{Wal, WalRecord};
use crate::storage::{Row, RowCursor, StorageError, StorageStats, StoredRows, TableStore};

/// Compaction threshold: once this many runs are live they are merged into
/// one.
pub const COMPACT_RUNS: usize = 4;

/// Approximate per-row memtable overhead (keys + `BTreeMap` node bookkeeping)
/// counted against the byte budget alongside the payload itself.
const MEM_ROW_OVERHEAD: usize = 48;

/// One table incarnation in the catalog.
#[derive(Debug, Clone)]
struct TableEntry {
    logical_id: u32,
    /// Replacement counter; bumping it retires every row of the previous
    /// incarnation (their `uid` no longer matches any catalog entry).
    epoch: u32,
    schema: Schema,
    /// Global sequence numbers of this incarnation's rows, in insertion
    /// order — the positional index behind [`TableStore::row_at`], mapping a
    /// row position straight to the bloom-probed [`DiskStore::get_row`] key
    /// without materializing the table.
    seqs: Vec<u64>,
}

impl TableEntry {
    fn uid(&self) -> u64 {
        ((self.logical_id as u64) << 32) | self.epoch as u64
    }

    fn rows(&self) -> usize {
        self.seqs.len()
    }
}

/// The probability-space recipe recovered from the WAL — everything
/// `Database::open_disk` needs to rebuild the exact pre-crash space.
#[derive(Debug, Clone, Default)]
pub struct RecoveredMeta {
    /// Variables in append order: `(name, distribution, origin table id)`.
    /// Re-adding them in order reproduces identical `VarId`s bit-for-bit.
    pub vars: Vec<(String, Vec<f64>, Option<u32>)>,
    /// The last logged generation — the recovery epoch to restore, `None`
    /// only for a store that never logged one (a brand-new directory).
    pub generation: Option<u64>,
    /// Table name → logical id, for rebuilding the database's registry.
    pub table_ids: Vec<(String, u32)>,
}

/// Pre-fetched observability handles for the store. Every handle is a
/// write-only no-op until [`TableStore::attach_obs`] installs real ones, so
/// the un-instrumented write path pays one branch per site.
#[derive(Debug, Clone, Default)]
struct StoreObs {
    obs: obs::Obs,
    /// `storage.wal.appends`: records framed into the WAL.
    wal_appends: obs::Counter,
    /// `storage.wal.bytes`: current WAL length (gauge; drops at rotation).
    wal_bytes: obs::Gauge,
    /// `storage.wal.rotations`: truncating log rewrites after full flushes.
    wal_rotations: obs::Counter,
    /// `storage.flushes`: memtable drains into new runs.
    flushes: obs::Counter,
    /// `storage.compactions`: k-way run merges.
    compactions: obs::Counter,
    /// `storage.bloom.pass`: point lookups a run's bloom let through.
    bloom_pass: obs::Counter,
    /// `storage.bloom.reject`: point lookups screened without file I/O.
    bloom_reject: obs::Counter,
    /// `storage.retries`: transient I/O failures absorbed by the
    /// [`RetryPolicy`] (each retry attempt counts once).
    retries: obs::Counter,
}

impl StoreObs {
    fn new(o: &obs::Obs) -> StoreObs {
        StoreObs {
            obs: o.clone(),
            wal_appends: o.counter("storage.wal.appends"),
            wal_bytes: o.gauge("storage.wal.bytes"),
            wal_rotations: o.counter("storage.wal.rotations"),
            flushes: o.counter("storage.flushes"),
            compactions: o.counter("storage.compactions"),
            bloom_pass: o.counter("storage.bloom.pass"),
            bloom_reject: o.counter("storage.bloom.reject"),
            retries: o.counter("storage.retries"),
        }
    }
}

/// Disk-backed [`TableStore`]. See the module docs above for the write
/// path, the on-disk layout, and the recovery protocol.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    wal: Wal,
    /// `(uid, seq)` → encoded tuple payload, bounded by `budget` bytes.
    memtable: BTreeMap<(u64, u64), Vec<u8>>,
    mem_bytes: usize,
    budget: usize,
    runs: Vec<Run>,
    catalog: BTreeMap<String, TableEntry>,
    next_seq: u64,
    next_run_id: u64,
    flushes: u64,
    compactions: u64,
    wal_rotations: u64,
    obs: StoreObs,
    fault: Fault,
    /// Backoff policy wrapped around every fallible I/O section; transient
    /// failures ([`StorageError::is_transient`]) are absorbed up to the
    /// retry budget before surfacing.
    retry: RetryPolicy,
}

impl DiskStore {
    /// Opens (or initializes) a store directory with the given memtable byte
    /// budget, returning the store plus the recovered probability-space
    /// recipe. On a fresh directory the recipe is empty.
    pub fn open(dir: &Path, budget: usize) -> Result<(DiskStore, RecoveredMeta), StorageError> {
        std::fs::create_dir_all(dir)?;
        let referenced = read_manifest(&dir.join("MANIFEST"))?;
        let mut runs = Vec::with_capacity(referenced.len());
        let mut next_run_id = 0u64;
        for name in &referenced {
            runs.push(Run::open(&dir.join(name))?);
            if let Some(id) = run_id_of(name) {
                next_run_id = next_run_id.max(id + 1);
            }
        }
        // Garbage-collect orphan runs from crashes between run write and
        // manifest append — their rows are still in the WAL.
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if run_id_of(&name).is_some() && !referenced.contains(&name) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        // Highest sequence number any run covers: rows at or below it are
        // durable in runs, so replay must not re-insert them.
        let covered: Option<u64> = runs.iter().filter(|r| r.rows() > 0).map(Run::max_seq).max();
        let mut next_seq = covered.map_or(0, |c| c + 1);

        let mut meta = RecoveredMeta::default();
        let mut catalog: BTreeMap<String, TableEntry> = BTreeMap::new();
        let mut memtable: BTreeMap<(u64, u64), Vec<u8>> = BTreeMap::new();
        let (records, durable_len) = Wal::replay_durable(&dir.join("wal.log"))?;
        for record in records {
            match record {
                WalRecord::Epoch { generation } => meta.generation = Some(generation),
                WalRecord::Variable { name, distribution, origin } => {
                    meta.vars.push((name, distribution, origin));
                }
                WalRecord::Table { logical_id, epoch, schema } => {
                    catalog.insert(
                        schema.name.clone(),
                        TableEntry { logical_id, epoch, schema, seqs: Vec::new() },
                    );
                }
                WalRecord::Row { uid, seq, payload } => {
                    next_seq = next_seq.max(seq + 1);
                    if covered.is_none_or(|c| seq > c) {
                        memtable.insert((uid, seq), payload);
                    }
                }
                WalRecord::Watermark { next_seq: n } => next_seq = next_seq.max(n),
            }
        }
        // Row sequence numbers per live incarnation, in insertion order:
        // runs are seq-disjoint and opened in age order (each yields its
        // rows seq-ascending per uid), then the refilled memtable.
        let mem_bytes = memtable.values().map(|payload| payload.len() + MEM_ROW_OVERHEAD).sum();
        for entry in catalog.values_mut() {
            let uid = entry.uid();
            let mut seqs: Vec<u64> = Vec::new();
            let mut payload = Vec::new();
            for run in &runs {
                let mut scan = run.scan_table(uid)?;
                while let Some(seq) = scan.next_into(&mut payload)? {
                    seqs.push(seq);
                }
            }
            seqs.extend(memtable.range((uid, 0)..=(uid, u64::MAX)).map(|(&(_, seq), _)| seq));
            entry.seqs = seqs;
        }
        meta.table_ids = catalog.iter().map(|(name, e)| (name.clone(), e.logical_id)).collect();
        // Discard a torn tail (crash mid-write, or an injected torn write)
        // before reopening the log: replay skips the dead bytes, but new
        // appends landing after them would be unreachable on the *next*
        // replay, silently losing acknowledged writes.
        let wal_path = dir.join("wal.log");
        if let Ok(file_meta) = std::fs::metadata(&wal_path) {
            if file_meta.len() > durable_len {
                std::fs::OpenOptions::new().write(true).open(&wal_path)?.set_len(durable_len)?;
            }
        }
        let wal = Wal::open(&wal_path)?;
        let store = DiskStore {
            dir: dir.to_path_buf(),
            wal,
            memtable,
            mem_bytes,
            budget,
            runs,
            catalog,
            next_seq,
            next_run_id,
            flushes: 0,
            compactions: 0,
            wal_rotations: 0,
            obs: StoreObs::default(),
            fault: Fault::disabled(),
            retry: RetryPolicy::default(),
        };
        Ok((store, meta))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Replaces the transient-I/O retry policy (defaults to
    /// [`RetryPolicy::default`]).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    fn uid_of(&self, table: &str) -> Option<u64> {
        self.catalog.get(table).map(TableEntry::uid)
    }

    /// Runs a fallible mutating I/O section under the retry policy,
    /// counting each absorbed transient failure as `storage.retries` plus a
    /// `storage.retry` trace event.
    fn retried<T>(
        &mut self,
        mut op: impl FnMut(&mut DiskStore) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let retry = self.retry;
        let retries = self.obs.retries.clone();
        let obs = self.obs.obs.clone();
        retry.run_with(
            |attempt, e| {
                retries.inc();
                obs.event("storage.retry")
                    .u64("attempt", attempt as u64)
                    .str("error", &e.to_string())
                    .emit();
            },
            || op(self),
        )
    }

    /// [`DiskStore::retried`] for read paths (`&self` sections).
    fn retried_ref<T>(
        &self,
        mut op: impl FnMut(&DiskStore) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        self.retry.run_with(
            |attempt, e| {
                self.obs.retries.inc();
                self.obs
                    .obs
                    .event("storage.retry")
                    .u64("attempt", attempt as u64)
                    .str("error", &e.to_string())
                    .emit();
            },
            || op(self),
        )
    }

    /// Drains the memtable into a new run and commits it to the MANIFEST.
    /// No-op when the memtable is empty.
    pub fn flush_memtable(&mut self) -> Result<(), StorageError> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        // Rows must be durable in the WAL before the run supersedes them.
        // Failpoint `storage.flush` + the `wal.sync` site inside sync.
        self.retried(|s| {
            s.fault.check("storage.flush")?;
            s.wal.sync()
        })?;
        let rows = self.memtable.len();
        // The whole run write is one retryable unit: a failed attempt leaves
        // at worst an unreferenced orphan file (garbage-collected at the
        // next open) and a fresh run id, never a dangling manifest entry.
        let run = self.retried(|s| {
            let name = format!("run-{}.dat", s.next_run_id);
            s.next_run_id += 1;
            let mut writer = RunWriter::create(&s.dir.join(&name), s.memtable.len())?;
            for (&(uid, seq), payload) in &s.memtable {
                writer.push(uid, seq, payload)?;
            }
            let run = writer.finish()?;
            append_manifest(&s.dir.join("MANIFEST"), &format!("add {name}\n"))?;
            Ok(run)
        })?;
        self.runs.push(run);
        self.memtable.clear();
        self.mem_bytes = 0;
        self.flushes += 1;
        self.obs.flushes.inc();
        self.obs.obs.event("storage.flush").u64("rows", rows as u64).emit();
        // Every logged row is now durable in a manifest-referenced run, so
        // the log can shed its row records.
        self.rotate_wal()?;
        if self.runs.len() >= COMPACT_RUNS {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the WAL without its row records — the memtable is empty and
    /// every logged row is covered by a manifest-referenced run, so only the
    /// metadata records (epochs, variables, tables) plus a
    /// [`WalRecord::Watermark`] pinning `next_seq` need to survive. The
    /// metadata frames are copied verbatim in one write
    /// ([`Wal::append_metadata_of`]); the new log is written to a temporary
    /// file, fsynced, and atomically renamed over `wal.log`; a crash at any
    /// point leaves one complete log.
    fn rotate_wal(&mut self) -> Result<(), StorageError> {
        let old_bytes = self.wal.len();
        // The rewrite is idempotent (it reads whatever `wal.log` currently
        // is), so the whole section retries as one unit. Failpoint
        // `storage.rotate`, plus the `wal.append`/`wal.sync` sites of the
        // temporary log itself.
        self.retried(|s| {
            s.fault.check("storage.rotate")?;
            let tmp = s.dir.join("wal.log.tmp");
            // A crashed rotation can leave a stale tmp file; `Wal::open`
            // appends, so clear it first.
            let _ = std::fs::remove_file(&tmp);
            let mut fresh = Wal::open(&tmp)?;
            fresh.attach_fault(&s.fault);
            fresh.append_metadata_of(s.wal.path())?;
            fresh.append(&WalRecord::Watermark { next_seq: s.next_seq })?;
            fresh.sync()?;
            drop(fresh);
            std::fs::rename(&tmp, s.dir.join("wal.log"))?;
            s.wal = Wal::open(&s.dir.join("wal.log"))?;
            s.wal.attach_fault(&s.fault);
            Ok(())
        })?;
        self.wal_rotations += 1;
        self.obs.wal_rotations.inc();
        self.obs.wal_bytes.set(self.wal.len());
        self.obs
            .obs
            .event("storage.rotation")
            .u64("old_bytes", old_bytes)
            .u64("new_bytes", self.wal.len())
            .u64("next_seq", self.next_seq)
            .emit();
        Ok(())
    }

    /// Merges every live run into one, dropping rows of superseded table
    /// incarnations. Surviving payloads are copied **byte-for-byte** — the
    /// annotation-preservation invariant of the store.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        if self.runs.len() < 2 {
            return Ok(());
        }
        let expected: usize = self.runs.iter().map(Run::rows).sum();
        // The merge + manifest swap is one retryable unit (failpoint
        // `storage.compact`): every attempt writes a fresh run id, so a
        // failed attempt leaves only an orphan file and the old runs stay
        // live until the swap line is durable.
        let merged = self.retried(|s| {
            s.fault.check("storage.compact")?;
            let live: Vec<u64> = s.catalog.values().map(TableEntry::uid).collect();
            let name = format!("run-{}.dat", s.next_run_id);
            s.next_run_id += 1;
            let mut writer = RunWriter::create(&s.dir.join(&name), expected)?;
            {
                let mut sources = Vec::with_capacity(s.runs.len());
                for run in &s.runs {
                    sources.push(run.scan_all()?.peekable());
                }
                // K-way merge by (uid, seq); the run count is small, so a
                // linear min scan beats heap bookkeeping.
                loop {
                    let mut best: Option<(usize, (u64, u64))> = None;
                    for (i, src) in sources.iter_mut().enumerate() {
                        if let Some(item) = src.peek() {
                            let key = match item {
                                Ok((uid, seq, _)) => (*uid, *seq),
                                Err(_) => {
                                    // Surface the error by consuming it below.
                                    best = Some((i, (0, 0)));
                                    break;
                                }
                            };
                            if best.is_none_or(|(_, k)| key < k) {
                                best = Some((i, key));
                            }
                        }
                    }
                    let Some((i, _)) = best else { break };
                    let (uid, seq, payload) = sources[i].next().expect("peeked item")?;
                    if live.contains(&uid) {
                        writer.push(uid, seq, &payload)?;
                    }
                }
            }
            let merged = writer.finish()?;
            let old_names: Vec<String> = s
                .runs
                .iter()
                .filter_map(|r| r.path().file_name().map(|n| n.to_string_lossy().into_owned()))
                .collect();
            append_manifest(
                &s.dir.join("MANIFEST"),
                &format!("swap {name} <- {}\n", old_names.join(" ")),
            )?;
            Ok(merged)
        })?;
        for old in &self.runs {
            let _ = std::fs::remove_file(old.path());
        }
        let runs_in = self.runs.len();
        self.runs = vec![merged];
        self.compactions += 1;
        self.obs.compactions.inc();
        self.obs
            .obs
            .event("storage.compaction")
            .u64("runs_in", runs_in as u64)
            .u64("rows_in", expected as u64)
            .u64("rows_out", self.runs[0].rows() as u64)
            .emit();
        Ok(())
    }

    /// Point lookup of one row of `table`'s current incarnation by its
    /// global sequence number: the memtable first, then the runs newest to
    /// oldest. Each run's bloom filter screens the key before any file I/O;
    /// with observability attached the screen outcomes are counted as
    /// `storage.bloom.pass` / `storage.bloom.reject`.
    pub fn get_row(&self, table: &str, seq: u64) -> Result<Option<AnnotatedTuple>, StorageError> {
        let Some(uid) = self.uid_of(table) else { return Ok(None) };
        if let Some(payload) = self.memtable.get(&(uid, seq)) {
            return Ok(Some(decode_or_panic(&mut RowBuf::new(), payload).to_tuple()));
        }
        // Failpoint `storage.get`; the run probe retries as a unit (point
        // reads are side-effect-free, so a retry only recounts the bloom
        // screen metrics).
        self.retried_ref(|s| {
            s.fault.check("storage.get")?;
            for run in s.runs.iter().rev() {
                if !run.may_contain(uid, seq) {
                    s.obs.bloom_reject.inc();
                    continue;
                }
                s.obs.bloom_pass.inc();
                if let Some(payload) = run.get(uid, seq)? {
                    return Ok(Some(decode_or_panic(&mut RowBuf::new(), &payload).to_tuple()));
                }
            }
            Ok(None)
        })
    }
}

/// The [`RowCursor`] of a [`DiskStore`] table: each run's frames, then the
/// memtable's payloads, decoded in place into one [`RowBuf`]. Run payloads
/// are read into one buffer; memtable payloads are decoded where they lie.
struct DiskRows<'a> {
    /// Runs not yet started, each already opened at the table's rows.
    runs: std::vec::IntoIter<TableScan>,
    /// The run being read.
    run: Option<TableScan>,
    memtable: std::collections::btree_map::Range<'a, (u64, u64), Vec<u8>>,
    payload: Vec<u8>,
    row: RowBuf,
}

impl RowCursor for DiskRows<'_> {
    fn next_row(&mut self) -> Option<Row<'_>> {
        let payload = loop {
            if let Some(run) = &mut self.run {
                match run.next_into(&mut self.payload) {
                    Ok(Some(_)) => break self.payload.as_slice(),
                    Ok(None) => self.run = None,
                    Err(e) => panic!("run scan failed: {e}"),
                }
            }
            match self.runs.next() {
                Some(run) => self.run = Some(run),
                None => break self.memtable.next()?.1.as_slice(),
            }
        };
        Some(decode_or_panic(&mut self.row, payload))
    }
}

/// Decodes a committed payload. Manifest-referenced runs are complete by
/// construction and WAL rows are CRC-guarded; a decode failure here means
/// external corruption of committed data, which has no sound continuation.
fn decode_or_panic<'b>(row: &'b mut RowBuf, payload: &[u8]) -> Row<'b> {
    row.decode(payload).unwrap_or_else(|e| panic!("corrupt committed tuple payload: {e}"))
}

fn run_id_of(file_name: &str) -> Option<u64> {
    file_name.strip_prefix("run-")?.strip_suffix(".dat")?.parse().ok()
}

/// Reads the MANIFEST, returning the live run file names in age order. An
/// incomplete (torn) final line is ignored.
fn read_manifest(path: &Path) -> Result<Vec<String>, StorageError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let complete = match text.rfind('\n') {
        Some(last) => &text[..=last],
        None => "",
    };
    let mut live: Vec<String> = Vec::new();
    for line in complete.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("add") => {
                if let Some(name) = parts.next() {
                    live.push(name.to_owned());
                }
            }
            Some("swap") => {
                let Some(new) = parts.next() else { continue };
                let removed: Vec<&str> = parts.skip(1).collect(); // skip "<-"
                live.retain(|n| !removed.contains(&n.as_str()));
                live.push(new.to_owned());
            }
            _ => return Err(StorageError::corrupt(format!("unrecognized MANIFEST line {line:?}"))),
        }
    }
    Ok(live)
}

fn append_manifest(path: &Path, line: &str) -> Result<(), StorageError> {
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(line.as_bytes())?;
    file.sync_data()?;
    Ok(())
}

impl TableStore for DiskStore {
    /// Cloning a disk store **materializes it to a heap snapshot**: two live
    /// handles on one WAL directory would corrupt each other, and a
    /// materialized clone also closes the `Database::clone` divergence edge —
    /// the clone's subsequent mutations cannot share storage state with the
    /// original, only the probability space's own generation protocol, which
    /// already detects divergent clone families.
    fn clone_box(&self) -> Box<dyn TableStore> {
        let mut heap = crate::storage::HeapStore::new();
        for (name, entry) in &self.catalog {
            heap.create_table(entry.schema.clone(), entry.logical_id)
                .expect("heap create cannot fail");
            for tuple in self.scan(name) {
                heap.append(name, tuple.as_ref()).expect("heap append cannot fail");
            }
        }
        Box::new(heap)
    }

    fn create_table(&mut self, schema: Schema, logical_id: u32) -> Result<(), StorageError> {
        let epoch = match self.catalog.get(&schema.name) {
            Some(existing) => existing.epoch + 1,
            None => 0,
        };
        let rec = WalRecord::Table { logical_id, epoch, schema: schema.clone() };
        self.retried(|s| s.wal.append(&rec))?;
        self.obs.wal_appends.inc();
        self.obs.wal_bytes.set(self.wal.len());
        self.catalog.insert(
            schema.name.clone(),
            TableEntry { logical_id, epoch, schema, seqs: Vec::new() },
        );
        Ok(())
    }

    fn append(&mut self, table: &str, tuple: &AnnotatedTuple) -> Result<(), StorageError> {
        let entry = self
            .catalog
            .get(table)
            .ok_or_else(|| StorageError::corrupt(format!("append to unknown table {table:?}")))?;
        let uid = entry.uid();
        let seq = self.next_seq;
        let payload = encode_tuple(tuple);
        let rec = WalRecord::Row { uid, seq, payload: payload.clone() };
        // Nothing is applied — no seq consumed, no memtable insert — until
        // the WAL accepted the record: a failed append is unacknowledged and
        // recovery owes the caller nothing for it.
        self.retried(|s| s.wal.append(&rec))?;
        self.next_seq = seq + 1;
        self.obs.wal_appends.inc();
        self.obs.wal_bytes.set(self.wal.len());
        self.catalog.get_mut(table).expect("entry checked above").seqs.push(seq);
        self.mem_bytes += payload.len() + MEM_ROW_OVERHEAD;
        self.memtable.insert((uid, seq), payload);
        if self.mem_bytes > self.budget {
            // The row is already durable in the WAL, so the append is
            // acknowledged regardless of what happens to the budget-triggered
            // drain: a failed flush (after retries) is deferred — the
            // memtable stays over budget and the next append or explicit
            // flush tries again — rather than failing a write that recovery
            // would replay anyway.
            if let Err(e) = self.flush_memtable() {
                obs::warn("storage", &format!("memtable flush deferred: {e}"));
            }
        }
        Ok(())
    }

    fn schema(&self, table: &str) -> Option<&Schema> {
        self.catalog.get(table).map(|e| &e.schema)
    }

    fn table_len(&self, table: &str) -> usize {
        self.catalog.get(table).map_or(0, TableEntry::rows)
    }

    fn table_names(&self) -> Vec<&str> {
        self.catalog.keys().map(String::as_str).collect()
    }

    fn rows<'a>(&'a self, table: &str) -> Box<dyn RowCursor + 'a> {
        let Some(uid) = self.uid_of(table) else {
            return Box::new(StoredRows([].iter()));
        };
        // Runs are seq-disjoint and flushed in seq order, so reading them in
        // age order, then the memtable, yields rows in insertion order.
        // Every run is opened (open + seek) before the first row, retrying
        // transient failures under the policy (failpoint `storage.scan`); a
        // permanent failure — or a read error in mid-scan — has no sound
        // continuation (silently truncating the scan would be an unsound
        // lineage), so it panics and relies on the engine-level panic
        // isolation to degrade just the affected item.
        let mut runs = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            let scan = self
                .retried_ref(|s| {
                    s.fault.check("storage.scan")?;
                    run.scan_table(uid)
                })
                .unwrap_or_else(|e| panic!("run scan failed after retries: {e}"));
            runs.push(scan);
        }
        Box::new(DiskRows {
            runs: runs.into_iter(),
            run: None,
            memtable: self.memtable.range((uid, 0)..=(uid, u64::MAX)),
            payload: Vec::new(),
            row: RowBuf::new(),
        })
    }

    fn log_variable(
        &mut self,
        name: &str,
        distribution: &[f64],
        origin: Option<u32>,
    ) -> Result<(), StorageError> {
        let rec = WalRecord::Variable {
            name: name.to_owned(),
            distribution: distribution.to_vec(),
            origin,
        };
        self.retried(|s| s.wal.append(&rec))?;
        self.obs.wal_appends.inc();
        self.obs.wal_bytes.set(self.wal.len());
        Ok(())
    }

    fn log_epoch(&mut self, generation: u64) -> Result<(), StorageError> {
        let rec = WalRecord::Epoch { generation };
        self.retried(|s| s.wal.append(&rec))?;
        self.obs.wal_appends.inc();
        self.obs.wal_bytes.set(self.wal.len());
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.retried(|s| s.wal.sync())
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            tables: self.catalog.len(),
            rows: self.catalog.values().map(TableEntry::rows).sum(),
            memtable_bytes: self.mem_bytes,
            wal_bytes: self.wal.len(),
            runs: self.runs.len(),
            run_rows: self.runs.iter().map(Run::rows).sum(),
            flushes: self.flushes,
            compactions: self.compactions,
            wal_rotations: self.wal_rotations,
        }
    }

    /// Positional point read: the catalog's per-incarnation seq index maps
    /// `index` straight to a global sequence number, and
    /// [`DiskStore::get_row`] probes the memtable and the run blooms —
    /// no table materialization, no scan.
    fn row_at(&self, table: &str, index: usize) -> Result<Option<AnnotatedTuple>, StorageError> {
        let Some(entry) = self.catalog.get(table) else { return Ok(None) };
        let Some(&seq) = entry.seqs.get(index) else { return Ok(None) };
        self.get_row(table, seq)
    }

    fn attach_obs(&mut self, obs: &obs::Obs) {
        self.obs = StoreObs::new(obs);
        self.obs.wal_bytes.set(self.wal.len());
    }

    fn attach_fault(&mut self, fault: &Fault) {
        self.fault = fault.clone();
        self.wal.attach_fault(fault);
    }
}
