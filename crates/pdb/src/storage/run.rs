//! Immutable sorted runs — the on-disk level of the LSM store.
//!
//! A run is a sequence of row frames `[u64 uid][u64 seq][u32 len][payload]`
//! sorted by `(uid, seq)`, written in one pass from a drained memtable (or a
//! compaction merge) and fsynced **before** the manifest references it — a
//! run named by the manifest is therefore always complete, so rows carry no
//! per-frame checksum. Payload bytes are copied verbatim through every
//! flush and compaction: probability annotations (variable ids, BID domain
//! values, `f64` bit patterns) are never re-encoded once written.
//!
//! Each open run keeps two small in-memory structures rebuilt on open:
//!
//! * a **bloom filter** over `(uid, seq)` keys ([`BLOOM_BITS_PER_KEY`] bits
//!   per key, [`BLOOM_HASHES`] probes) so point lookups skip runs that
//!   cannot contain the key, and
//! * a **sparse index** of one `(uid, seq, offset)` entry every
//!   [`INDEX_STRIDE`] rows, so scans and lookups seek near their target and
//!   read forward instead of scanning from the start.
//!
//! Decoded tuples are never cached: a scan streams frames through a
//! buffered reader of at most 64 KiB, which reads no further than the
//! sparse-index entry after the table's rows, and reads each payload into
//! one buffer it reuses for every row ([`TableScan::next_into`]), so it
//! allocates per run, not per row, and resident memory stays bounded by
//! the memtable budget rather than the dataset.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::storage::encode::splitmix64;
use crate::storage::StorageError;

/// Bloom filter bits allocated per key (≈1% false positives at 7 probes).
pub const BLOOM_BITS_PER_KEY: usize = 10;
/// Number of bloom probes per key.
pub const BLOOM_HASHES: u32 = 7;
/// One sparse-index entry is kept every this many rows.
pub const INDEX_STRIDE: usize = 16;

fn key_hash(uid: u64, seq: u64) -> u64 {
    splitmix64(uid ^ splitmix64(seq))
}

/// A split-and-probe bloom filter over row keys.
#[derive(Debug, Clone)]
struct Bloom {
    bits: Vec<u64>,
}

impl Bloom {
    fn with_keys(n: usize) -> Bloom {
        let nbits = (n.max(1) * BLOOM_BITS_PER_KEY).next_power_of_two().max(64);
        Bloom { bits: vec![0u64; nbits / 64] }
    }

    fn nbits(&self) -> u64 {
        self.bits.len() as u64 * 64
    }

    fn insert(&mut self, uid: u64, seq: u64) {
        let h = key_hash(uid, seq);
        let (h1, h2) = (h, h.rotate_left(32) | 1);
        for i in 0..BLOOM_HASHES as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits();
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    fn may_contain(&self, uid: u64, seq: u64) -> bool {
        let h = key_hash(uid, seq);
        let (h1, h2) = (h, h.rotate_left(32) | 1);
        (0..BLOOM_HASHES as u64).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.nbits();
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }
}

/// An open immutable run. See the [module docs](self) for the file format
/// and the in-memory structures.
#[derive(Debug, Clone)]
pub struct Run {
    path: PathBuf,
    /// Sparse `(uid, seq, byte offset)` entries, one per [`INDEX_STRIDE`]
    /// rows, always including row 0.
    index: Vec<(u64, u64, u64)>,
    bloom: Bloom,
    rows: usize,
    /// Largest sequence number in the run — WAL replay skips rows at or
    /// below the maximum over all live runs.
    max_seq: u64,
}

/// Streaming writer for a new run: rows are pushed in `(uid, seq)` order and
/// spill straight through a buffered file handle, so writing a run never
/// holds more than one row frame in memory. `expected_rows` sizes the bloom
/// filter (memtable length for flushes, summed run lengths for compactions —
/// both known exactly up front).
#[derive(Debug)]
pub struct RunWriter {
    writer: std::io::BufWriter<File>,
    path: PathBuf,
    bloom: Bloom,
    index: Vec<(u64, u64, u64)>,
    rows: usize,
    max_seq: u64,
    offset: u64,
    last_key: Option<(u64, u64)>,
}

impl RunWriter {
    /// Creates (truncating) the run file at `path`.
    pub fn create(path: &Path, expected_rows: usize) -> Result<RunWriter, StorageError> {
        let file = File::create(path)?;
        Ok(RunWriter {
            writer: std::io::BufWriter::with_capacity(64 * 1024, file),
            path: path.to_path_buf(),
            bloom: Bloom::with_keys(expected_rows),
            index: Vec::with_capacity(expected_rows / INDEX_STRIDE + 1),
            rows: 0,
            max_seq: 0,
            offset: 0,
            last_key: None,
        })
    }

    /// Appends one row frame; payload bytes are written verbatim.
    ///
    /// # Panics
    /// Panics if keys are pushed out of `(uid, seq)` order — runs are sorted
    /// by construction and every reader relies on it.
    pub fn push(&mut self, uid: u64, seq: u64, payload: &[u8]) -> Result<(), StorageError> {
        if let Some(last) = self.last_key {
            assert!(last < (uid, seq), "run rows must arrive in (uid, seq) order");
        }
        self.last_key = Some((uid, seq));
        if self.rows.is_multiple_of(INDEX_STRIDE) {
            self.index.push((uid, seq, self.offset));
        }
        self.writer.write_all(&uid.to_le_bytes())?;
        self.writer.write_all(&seq.to_le_bytes())?;
        self.writer.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(payload)?;
        self.offset += 20 + payload.len() as u64;
        self.bloom.insert(uid, seq);
        self.max_seq = self.max_seq.max(seq);
        self.rows += 1;
        Ok(())
    }

    /// Flushes, fsyncs, and returns the open [`Run`]. Only after this returns
    /// may the manifest reference the file.
    pub fn finish(self) -> Result<Run, StorageError> {
        let file = self.writer.into_inner().map_err(|e| StorageError::Io(e.into_error()))?;
        file.sync_all()?;
        Ok(Run {
            path: self.path,
            index: self.index,
            bloom: self.bloom,
            rows: self.rows,
            max_seq: self.max_seq,
        })
    }
}

impl Run {
    /// Writes a run from rows **already sorted** by `(uid, seq)`, fsyncs it,
    /// and returns the open handle — [`RunWriter`] in one call.
    pub fn write<'a, I>(path: &Path, rows: I) -> Result<Run, StorageError>
    where
        I: IntoIterator<Item = (u64, u64, &'a [u8])>,
    {
        let rows: Vec<(u64, u64, &[u8])> = rows.into_iter().collect();
        let mut writer = RunWriter::create(path, rows.len())?;
        for (uid, seq, payload) in rows {
            writer.push(uid, seq, payload)?;
        }
        writer.finish()
    }

    /// Opens an existing run, rebuilding the bloom filter and sparse index
    /// in one sequential pass (runs referenced by the manifest are complete
    /// by construction).
    pub fn open(path: &Path) -> Result<Run, StorageError> {
        let mut keys = Vec::new();
        let mut reader = FrameReader::open(path, 0, None)?;
        while let Some((uid, seq, offset, payload_len)) = reader.next_header()? {
            keys.push((uid, seq, offset));
            reader.skip_payload(payload_len)?;
        }
        let mut bloom = Bloom::with_keys(keys.len());
        let mut index = Vec::with_capacity(keys.len() / INDEX_STRIDE + 1);
        let mut max_seq = 0u64;
        for (i, &(uid, seq, offset)) in keys.iter().enumerate() {
            if i % INDEX_STRIDE == 0 {
                index.push((uid, seq, offset));
            }
            bloom.insert(uid, seq);
            max_seq = max_seq.max(seq);
        }
        Ok(Run { path: path.to_path_buf(), index, bloom, rows: keys.len(), max_seq })
    }

    /// Number of rows in the run.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Largest sequence number stored in the run.
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }

    /// The run's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte offset of the sparse-index entry with the greatest key `<=`
    /// `(uid, seq)` (or 0 when the target precedes the first entry).
    fn seek_offset(&self, uid: u64, seq: u64) -> u64 {
        match self.index.partition_point(|&(u, s, _)| (u, s) <= (uid, seq)) {
            0 => 0,
            p => self.index[p - 1].2,
        }
    }

    /// Streams the rows of table incarnation `uid`, in sequence order,
    /// reading forward from the sparse-index floor entry.
    pub fn scan_table(&self, uid: u64) -> Result<TableScan, StorageError> {
        let start = self.seek_offset(uid, 0);
        // The first indexed row of a later incarnation bounds this one's
        // frames, so the buffered reader need not read past it.
        let end = self
            .index
            .get(self.index.partition_point(|&(u, _, _)| u <= uid))
            .map(|&(_, _, offset)| offset);
        let reader = FrameReader::open(&self.path, start, end)?;
        Ok(TableScan { reader, uid, end, done: false })
    }

    /// Streams every row frame `(uid, seq, payload)` in key order — the
    /// compaction input, payloads verbatim.
    pub fn scan_all(&self) -> Result<RowScan, StorageError> {
        let reader = FrameReader::open(&self.path, 0, None)?;
        Ok(RowScan { reader })
    }

    /// `true` when the bloom filter cannot rule out key `(uid, seq)`. A
    /// `false` is definitive (the key is absent); a `true` is probabilistic
    /// (~1% false positives) and must be confirmed by [`Run::get`].
    pub fn may_contain(&self, uid: u64, seq: u64) -> bool {
        self.bloom.may_contain(uid, seq)
    }

    /// Point lookup of one row; the bloom filter screens out runs that
    /// cannot contain the key without touching the file.
    pub fn get(&self, uid: u64, seq: u64) -> Result<Option<Vec<u8>>, StorageError> {
        if !self.bloom.may_contain(uid, seq) {
            return Ok(None);
        }
        let mut reader = FrameReader::open(&self.path, self.seek_offset(uid, seq), None)?;
        while let Some((u, s, _, len)) = reader.next_header()? {
            if (u, s) == (uid, seq) {
                return Ok(Some(reader.read_payload(len)?));
            }
            if (u, s) > (uid, seq) {
                return Ok(None);
            }
            reader.skip_payload(len)?;
        }
        Ok(None)
    }
}

/// Buffered positional reader over row frames.
#[derive(Debug)]
struct FrameReader {
    reader: BufReader<File>,
    offset: u64,
}

impl FrameReader {
    /// Opens the run at `offset`. The buffer holds 64 KiB, or only the
    /// bytes up to `end` when the caller reads no further.
    fn open(path: &Path, offset: u64, end: Option<u64>) -> Result<FrameReader, StorageError> {
        const CAPACITY: u64 = 64 * 1024;
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let capacity = end.map_or(CAPACITY, |end| (end - offset).min(CAPACITY));
        Ok(FrameReader { reader: BufReader::with_capacity(capacity as usize, file), offset })
    }

    /// Reads the next frame header, returning `(uid, seq, frame offset,
    /// payload length)`, or `None` at a clean end of file.
    fn next_header(&mut self) -> Result<Option<(u64, u64, u64, usize)>, StorageError> {
        let mut header = [0u8; 20];
        let mut read = 0;
        while read < header.len() {
            match self.reader.read(&mut header[read..])? {
                0 if read == 0 => return Ok(None),
                0 => return Err(StorageError::corrupt("truncated run frame header")),
                n => read += n,
            }
        }
        let uid = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
        let seq = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
        let at = self.offset;
        self.offset += 20 + len as u64;
        Ok(Some((uid, seq, at, len)))
    }

    fn read_payload(&mut self, len: usize) -> Result<Vec<u8>, StorageError> {
        let mut payload = Vec::new();
        self.read_payload_into(len, &mut payload)?;
        Ok(payload)
    }

    /// Reads a payload of `len` bytes into `payload`, replacing its
    /// contents and reusing its allocation.
    fn read_payload_into(&mut self, len: usize, payload: &mut Vec<u8>) -> Result<(), StorageError> {
        payload.clear();
        payload.resize(len, 0);
        self.reader.read_exact(payload).map_err(|_| StorageError::corrupt("truncated run payload"))
    }

    fn skip_payload(&mut self, len: usize) -> Result<(), StorageError> {
        self.reader.seek_relative(len as i64)?;
        Ok(())
    }
}

/// Streaming reader over one table incarnation's rows of a run, returned
/// by [`Run::scan_table`]: [`TableScan::next_into`] reads each payload into
/// a caller's buffer.
#[derive(Debug)]
pub struct TableScan {
    reader: FrameReader,
    uid: u64,
    /// Offset of the first indexed frame of a later incarnation, if any.
    end: Option<u64>,
    done: bool,
}

impl TableScan {
    /// Reads the next row's payload into `payload`, replacing its contents,
    /// and returns the row's sequence number, or `None` after the table's
    /// last row. The scan ends at the first error.
    pub fn next_into(&mut self, payload: &mut Vec<u8>) -> Result<Option<u64>, StorageError> {
        let next = self.advance(payload);
        if !matches!(next, Ok(Some(_))) {
            self.done = true;
        }
        next
    }

    fn advance(&mut self, payload: &mut Vec<u8>) -> Result<Option<u64>, StorageError> {
        while !self.done && self.end.is_none_or(|end| self.reader.offset < end) {
            let Some((uid, seq, _, len)) = self.reader.next_header()? else { break };
            if uid > self.uid {
                break;
            }
            if uid < self.uid {
                self.reader.skip_payload(len)?;
                continue;
            }
            self.reader.read_payload_into(len, payload)?;
            return Ok(Some(seq));
        }
        Ok(None)
    }
}

/// Streaming iterator over every `(uid, seq, payload)` row frame of a run
/// file in key order, returned by [`Run::scan_all`].
#[derive(Debug)]
pub struct RowScan {
    reader: FrameReader,
}

impl Iterator for RowScan {
    type Item = Result<(u64, u64, Vec<u8>), StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.reader.next_header() {
            Ok(Some((uid, seq, _, len))) => match self.reader.read_payload(len) {
                Ok(payload) => Some(Ok((uid, seq, payload))),
                Err(e) => Some(Err(e)),
            },
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::testutil::TempDir;

    fn sample_rows() -> Vec<(u64, u64, Vec<u8>)> {
        let mut rows = Vec::new();
        for uid in [1u64 << 32, 2u64 << 32, (2u64 << 32) | 1] {
            for i in 0..40u64 {
                rows.push((uid, uid.rotate_left(8) % 97 + i * 3, vec![uid as u8, i as u8]));
            }
        }
        rows.sort_by_key(|&(u, s, _)| (u, s));
        rows
    }

    /// Every `(seq, payload)` of incarnation `uid` in `run`.
    fn table_rows(run: &Run, uid: u64) -> Vec<(u64, Vec<u8>)> {
        let mut scan = run.scan_table(uid).unwrap();
        let mut payload = Vec::new();
        let mut rows = Vec::new();
        while let Some(seq) = scan.next_into(&mut payload).unwrap() {
            rows.push((seq, payload.clone()));
        }
        rows
    }

    fn write_sample(dir: &TempDir) -> Run {
        let rows = sample_rows();
        Run::write(
            &dir.path().join("run-0.dat"),
            rows.iter().map(|(u, s, p)| (*u, *s, p.as_slice())),
        )
        .unwrap()
    }

    #[test]
    fn write_then_scan_table_returns_rows_in_seq_order() {
        let dir = TempDir::new("run-scan");
        let run = write_sample(&dir);
        let uid = 2u64 << 32;
        let got = table_rows(&run, uid);
        let expected: Vec<(u64, Vec<u8>)> = sample_rows()
            .into_iter()
            .filter(|&(u, _, _)| u == uid)
            .map(|(_, s, p)| (s, p))
            .collect();
        assert_eq!(got, expected);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn every_incarnation_scan_stops_at_its_last_row() {
        let dir = TempDir::new("run-bounds");
        let run = write_sample(&dir);
        // Present uids, absent ones before, between and after them.
        for uid in [0, 1u64 << 32, (1u64 << 32) + 1, 2u64 << 32, (2u64 << 32) | 1, 3u64 << 32] {
            let expected: Vec<(u64, Vec<u8>)> = sample_rows()
                .into_iter()
                .filter(|&(u, _, _)| u == uid)
                .map(|(_, s, p)| (s, p))
                .collect();
            assert_eq!(table_rows(&run, uid), expected, "uid {uid:#x}");
        }
    }

    #[test]
    fn open_rebuilds_the_same_run_state() {
        let dir = TempDir::new("run-open");
        let written = write_sample(&dir);
        let opened = Run::open(written.path()).unwrap();
        assert_eq!(opened.rows(), written.rows());
        assert_eq!(opened.max_seq(), written.max_seq());
        for (uid, seq, payload) in sample_rows() {
            assert_eq!(opened.get(uid, seq).unwrap(), Some(payload));
        }
    }

    #[test]
    fn point_lookups_hit_and_miss_correctly() {
        let dir = TempDir::new("run-get");
        let run = write_sample(&dir);
        for (uid, seq, payload) in sample_rows() {
            assert_eq!(run.get(uid, seq).unwrap(), Some(payload));
        }
        assert_eq!(run.get(99u64 << 32, 5).unwrap(), None);
        assert_eq!(run.get(1u64 << 32, u64::MAX).unwrap(), None);
    }

    #[test]
    fn bloom_screens_absent_uids() {
        let dir = TempDir::new("run-bloom");
        let run = write_sample(&dir);
        // Absent keys must be rejected; with ~1% FP rate, out of 1000 probes
        // an overwhelming majority is screened without touching the file.
        let screened = (0..1000u64)
            .filter(|&i| !run.bloom.may_contain((7u64 + i) << 33, i * 17 + 1_000_000))
            .count();
        assert!(screened > 950, "bloom screened only {screened}/1000 absent keys");
    }

    #[test]
    fn scan_all_streams_every_frame_in_key_order() {
        let dir = TempDir::new("run-scanall");
        let run = write_sample(&dir);
        let got: Vec<(u64, u64, Vec<u8>)> =
            run.scan_all().unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(got, sample_rows());
    }

    #[test]
    fn scanning_a_missing_uid_is_empty() {
        let dir = TempDir::new("run-missuid");
        let run = write_sample(&dir);
        assert!(table_rows(&run, 3u64 << 32).is_empty());
        let empty = Run::write(&dir.path().join("empty.dat"), std::iter::empty()).unwrap();
        assert_eq!(empty.rows(), 0);
        assert!(table_rows(&empty, 0).is_empty());
    }
}
