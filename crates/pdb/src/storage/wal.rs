//! Write-ahead log: the durability backbone of [`crate::storage::DiskStore`].
//!
//! Every state change — probability-space variables, table (re)creations,
//! generation epochs, and tuple appends — is framed and appended to a single
//! `wal.log` before it is applied in memory. A frame is
//!
//! ```text
//! [u32 payload length][u32 CRC-32 of payload][payload]
//! ```
//!
//! so replay can detect a torn tail (a crash mid-`write`) by length or
//! checksum mismatch and stop at the last fully durable record.
//!
//! # Rotation
//!
//! After a full memtable flush every logged row is durable in a
//! manifest-referenced run, so [`crate::storage::DiskStore`] rewrites the
//! log without its [`WalRecord::Row`] records: the metadata frames
//! (epochs, variables, tables) are copied in order to a temporary file,
//! a [`WalRecord::Watermark`] pins the next sequence number, and an atomic
//! rename swaps the truncated log in. A crash at any point leaves either
//! the old complete log or the new truncated one — never a mix — and
//! replay of either recovers the same store.
//!
//! The copy (`Wal::append_metadata_of`) never decodes a record into
//! owned values: it walks the durable frames exactly as replay does
//! (length, CRC, and a validating pass over the payload that allocates
//! nothing), gathers the metadata frames verbatim into one buffer, and
//! writes it with a single `write`. The rotated log is byte-identical to
//! appending the decoded records one by one. What the rotation still
//! costs is the copy itself: every flush rewrites every metadata byte
//! logged so far, so it is O(metadata bytes) per flush, and the bytes
//! written per stored tuple grow with the number of variables.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::fault::Fault;
use crate::relation::Schema;
use crate::storage::encode::{crc32, put_f64, put_str, put_u32, put_u64, Cursor};
use crate::storage::StorageError;

/// Record tags: the first payload byte of every frame.
const EPOCH: u8 = 0;
const VARIABLE: u8 = 1;
const TABLE: u8 = 2;
const ROW: u8 = 3;
const WATERMARK: u8 = 4;

/// One durable state change. See the module docs for framing.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The probability space moved to generation `generation` — written at
    /// store creation and after every invalidation, so the **last** epoch
    /// record in the log is the recovery epoch
    /// ([`events::ProbabilitySpace::restore_generation`]).
    Epoch {
        /// The generation fingerprint in force after this point of the log.
        generation: u64,
    },
    /// A variable was appended to the probability space.
    Variable {
        /// Variable name (e.g. `"R#3"` for row 3 of table `R`).
        name: String,
        /// Full domain distribution, bit-exact (`[1-p, p]` for Booleans).
        distribution: Vec<f64>,
        /// Originating table id, if the variable is labelled.
        origin: Option<u32>,
    },
    /// A table was created or replaced. Replacement bumps `epoch`, giving
    /// the new incarnation a fresh row-key prefix that hides all old rows.
    Table {
        /// Logical table id (stable across replacements).
        logical_id: u32,
        /// Replacement counter for this logical id, starting at 0.
        epoch: u32,
        /// The (new) schema.
        schema: Schema,
    },
    /// A tuple appended to a table incarnation.
    Row {
        /// Row key prefix: `logical_id << 32 | epoch`.
        uid: u64,
        /// Globally monotone sequence number (the flush watermark).
        seq: u64,
        /// [`crate::storage::encode::encode_tuple`] payload, stored verbatim.
        payload: Vec<u8>,
    },
    /// A rotation marker: every row with `seq < next_seq` was durable in a
    /// manifest-referenced run when the log was rewritten. Keeps sequence
    /// numbers monotone across a rotation even if compaction later drops all
    /// rows of the covering runs (recovery would otherwise restart `seq` at
    /// 0 and alias retired row keys).
    Watermark {
        /// The store's next unassigned sequence number at rotation time.
        next_seq: u64,
    },
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Epoch { generation } => {
                buf.push(EPOCH);
                put_u64(&mut buf, *generation);
            }
            WalRecord::Variable { name, distribution, origin } => {
                buf.push(VARIABLE);
                put_u32(&mut buf, origin.map_or(u32::MAX, |o| o));
                put_u32(&mut buf, distribution.len() as u32);
                for &p in distribution {
                    put_f64(&mut buf, p);
                }
                put_str(&mut buf, name);
            }
            WalRecord::Table { logical_id, epoch, schema } => {
                buf.push(TABLE);
                put_u32(&mut buf, *logical_id);
                put_u32(&mut buf, *epoch);
                put_str(&mut buf, &schema.name);
                put_u32(&mut buf, schema.columns.len() as u32);
                for c in &schema.columns {
                    put_str(&mut buf, c);
                }
            }
            WalRecord::Row { uid, seq, payload } => {
                buf.push(ROW);
                put_u64(&mut buf, *uid);
                put_u64(&mut buf, *seq);
                put_u32(&mut buf, payload.len() as u32);
                buf.extend_from_slice(payload);
            }
            WalRecord::Watermark { next_seq } => {
                buf.push(WATERMARK);
                put_u64(&mut buf, *next_seq);
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> Result<WalRecord, StorageError> {
        let mut cur = Cursor::new(payload);
        let rec = match cur.u8()? {
            EPOCH => WalRecord::Epoch { generation: cur.u64()? },
            VARIABLE => {
                let origin = match cur.u32()? {
                    u32::MAX => None,
                    o => Some(o),
                };
                let n = cur.u32()? as usize;
                // Counts come from the file: never reserve more than the
                // payload can hold, so a corrupt count fails as corruption.
                let mut distribution = Vec::with_capacity(n.min(cur.remaining() / 8));
                for _ in 0..n {
                    distribution.push(cur.f64()?);
                }
                let name = cur.string()?;
                WalRecord::Variable { name, distribution, origin }
            }
            TABLE => {
                let logical_id = cur.u32()?;
                let epoch = cur.u32()?;
                let name = cur.string()?;
                let n = cur.u32()? as usize;
                let mut columns = Vec::with_capacity(n.min(cur.remaining() / 4));
                for _ in 0..n {
                    columns.push(cur.string()?);
                }
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                WalRecord::Table { logical_id, epoch, schema: Schema::new(name, &cols) }
            }
            ROW => {
                let uid = cur.u64()?;
                let seq = cur.u64()?;
                let len = cur.u32()? as usize;
                let payload = cur.bytes(len)?.to_vec();
                WalRecord::Row { uid, seq, payload }
            }
            WATERMARK => WalRecord::Watermark { next_seq: cur.u64()? },
            tag => return Err(unknown_tag(tag)),
        };
        end_of_record(&cur)?;
        Ok(rec)
    }

    /// Validates `payload` exactly as [`WalRecord::decode`] would — same
    /// fields, same UTF-8 and trailing-byte checks — without building the
    /// record, and returns its tag. Allocates nothing unless it fails.
    fn check(payload: &[u8]) -> Result<u8, StorageError> {
        let mut cur = Cursor::new(payload);
        let tag = cur.u8()?;
        match tag {
            EPOCH | WATERMARK => {
                cur.u64()?;
            }
            VARIABLE => {
                cur.u32()?;
                let n = cur.u32()? as usize;
                cur.bytes(n.saturating_mul(8))?;
                cur.str()?;
            }
            TABLE => {
                cur.u32()?;
                cur.u32()?;
                cur.str()?;
                for _ in 0..cur.u32()? {
                    cur.str()?;
                }
            }
            ROW => {
                cur.u64()?;
                cur.u64()?;
                let len = cur.u32()? as usize;
                cur.bytes(len)?;
            }
            tag => return Err(unknown_tag(tag)),
        }
        end_of_record(&cur)?;
        Ok(tag)
    }

    /// The exact number of bytes this record occupies in the log, frame
    /// header included. Lets crash tests compute record boundaries without
    /// parsing the file.
    pub fn framed_len(&self) -> u64 {
        8 + self.encode().len() as u64
    }
}

fn unknown_tag(tag: u8) -> StorageError {
    StorageError::corrupt(format!("unknown WAL record tag {tag}"))
}

fn end_of_record(cur: &Cursor<'_>) -> Result<(), StorageError> {
    if cur.remaining() != 0 {
        return Err(StorageError::corrupt("trailing bytes in WAL record"));
    }
    Ok(())
}

/// The fully durable frames at the start of a log image, in order, each
/// with its 8-byte header. A frame is durable when its payload fits the
/// image and matches its CRC; the walk ends at the first frame that does
/// not (a torn tail), and `end` is then the length of the durable prefix.
struct Frames<'a> {
    bytes: &'a [u8],
    end: usize,
}

impl<'a> Frames<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Frames { bytes, end: 0 }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.end..];
        if rest.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if rest.len() - 8 < len {
            return None; // torn payload
        }
        let frame = &rest[..8 + len];
        if crc32(&frame[8..]) != crc {
            return None; // torn or corrupted frame
        }
        self.end += frame.len();
        Some(frame)
    }
}

/// The bytes of the log at `path` (empty when there is no log yet).
fn read_log(path: &Path) -> Result<Vec<u8>, StorageError> {
    match std::fs::read(path) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// An append-only write-ahead log. See the module docs for the frame format.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    fault: Fault,
    /// Set after an (injected) torn write: the file tail now holds a partial
    /// frame, so appending more records would put them *past* the tear where
    /// replay's CRC scan never reaches — an acknowledged-but-unrecoverable
    /// write. Fail every later append instead; recovery is a reopen, exactly
    /// as after a real crash.
    torn: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: &Path) -> Result<Wal, StorageError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(Wal { file, path: path.to_path_buf(), len, fault: Fault::disabled(), torn: false })
    }

    /// Attaches a fault-injection handle; the `wal.append` and `wal.sync`
    /// failpoint sites start consulting it.
    pub fn attach_fault(&mut self, fault: &Fault) {
        self.fault = fault.clone();
    }

    /// Appends one framed record. The write is buffered by the OS; call
    /// [`Wal::sync`] to force it to stable storage.
    ///
    /// Failpoints: `wal.append` can reject the write before any byte reaches
    /// the file (transient, retry-safe) or — under a torn-write policy —
    /// leave a strict prefix of the frame in the file and report a permanent
    /// error, exactly the on-disk state a crash mid-`write` produces. Torn
    /// bytes are *not* counted in [`Wal::len`]: they are dead bytes that
    /// replay's CRC check skips, and the next append's frame header starts
    /// wherever the file ends.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), StorageError> {
        self.fail_if_torn()?;
        self.fault.check("wal.append")?;
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        if let Some(keep) = self.fault.torn("wal.append", frame.len()) {
            return self.write_torn(&frame[..keep]);
        }
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Appends every durable metadata frame of the log at `src` — all but
    /// its [`WalRecord::Row`] and [`WalRecord::Watermark`] records —
    /// verbatim and in order, with one `write`: the copy step of a rotation.
    /// The frames are walked as [`Wal::replay`] walks them: a torn tail ends
    /// the copy, and a CRC-valid frame that does not decode fails it. The
    /// result is byte-identical to
    /// [`Wal::append`]ing each replayed metadata record.
    ///
    /// Failpoints: `wal.append` is hit once per copied frame, in order, as
    /// if each were appended on its own, so seeded fault schedules see the
    /// same hits; a torn write there leaves the frames before it plus a
    /// strict prefix of the torn one in the file.
    pub(crate) fn append_metadata_of(&mut self, src: &Path) -> Result<(), StorageError> {
        self.fail_if_torn()?;
        let bytes = read_log(src)?;
        let mut out = Vec::with_capacity(bytes.len());
        for frame in Frames::new(&bytes) {
            if matches!(WalRecord::check(&frame[8..])?, ROW | WATERMARK) {
                continue;
            }
            self.fault.check("wal.append")?;
            if let Some(keep) = self.fault.torn("wal.append", frame.len()) {
                out.extend_from_slice(&frame[..keep]);
                return self.write_torn(&out);
            }
            out.extend_from_slice(frame);
        }
        self.file.write_all(&out)?;
        self.len += out.len() as u64;
        Ok(())
    }

    fn fail_if_torn(&self) -> Result<(), StorageError> {
        if self.torn {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "write-ahead log has a torn tail; reopen the store to recover",
            )));
        }
        Ok(())
    }

    /// Writes the prefix an injected torn write keeps, then fails every
    /// later append.
    fn write_torn(&mut self, prefix: &[u8]) -> Result<(), StorageError> {
        self.file.write_all(prefix)?;
        self.torn = true;
        Err(Fault::torn_error("wal.append"))
    }

    /// Forces all appended records to stable storage.
    ///
    /// Failpoint: `wal.sync` (transient — an interrupted fsync is safe to
    /// reissue).
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.fault.check("wal.sync")?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Current log length in bytes (every durable record ends at or before
    /// this offset).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no record has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replays the log at `path`, returning every fully durable record in
    /// append order. A torn tail — truncated frame, short payload, or CRC
    /// mismatch — ends the replay cleanly at the last good record; bytes past
    /// it are ignored (they are the in-flight write the crash interrupted).
    pub fn replay(path: &Path) -> Result<Vec<WalRecord>, StorageError> {
        Ok(Self::replay_durable(path)?.0)
    }

    /// [`Wal::replay`], plus the byte offset where the durable prefix ends.
    /// Recovery truncates the file to this offset: a torn tail left by a
    /// crash (or an injected torn write) is dead bytes that replay skips,
    /// but records appended *after* them would be unreachable on the next
    /// replay — the frame walk stops at the tear — so the tail must be
    /// discarded before the log accepts new appends.
    pub fn replay_durable(path: &Path) -> Result<(Vec<WalRecord>, u64), StorageError> {
        let bytes = read_log(path)?;
        let mut frames = Frames::new(&bytes);
        // A CRC-valid but undecodable payload is genuine corruption, not a
        // torn tail — fail loudly rather than silently dropping durable data.
        let records = frames
            .by_ref()
            .map(|frame| WalRecord::decode(&frame[8..]))
            .collect::<Result<_, _>>()?;
        Ok((records, frames.end as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::testutil::TempDir;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Epoch { generation: 17 },
            WalRecord::Variable {
                name: "R#0".into(),
                distribution: vec![0.7, 0.3],
                origin: Some(2),
            },
            WalRecord::Variable { name: "free".into(), distribution: vec![0.5, 0.5], origin: None },
            WalRecord::Table { logical_id: 2, epoch: 1, schema: Schema::new("R", &["a", "b"]) },
            WalRecord::Row { uid: (2u64 << 32) | 1, seq: 9, payload: vec![1, 2, 3, 4] },
            WalRecord::Watermark { next_seq: 10 },
        ]
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), sample_records());
    }

    #[test]
    fn framed_len_matches_the_file() {
        let dir = TempDir::new("wal-framedlen");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        let mut expected = 0u64;
        for rec in sample_records() {
            wal.append(&rec).unwrap();
            expected += rec.framed_len();
            assert_eq!(wal.len(), expected);
        }
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), expected);
    }

    #[test]
    fn torn_tails_stop_replay_at_the_last_good_record() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        let records = sample_records();
        let mut boundaries = vec![0u64];
        for rec in &records {
            wal.append(rec).unwrap();
            boundaries.push(wal.len());
        }
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() as u64 {
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let replayed = Wal::replay(&path).unwrap();
            let survivors = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(replayed.len(), survivors, "cut at {cut}");
            assert_eq!(replayed[..], records[..survivors], "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_in_the_tail_frame_are_detected() {
        let dir = TempDir::new("wal-bitflip");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let before_last = sample_records().len() - 1;
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), before_last, "flipped tail frame must be dropped");
    }

    /// The allocation-free validator accepts exactly the payloads the
    /// decoder accepts: every record, every truncation of it, and every
    /// single-byte corruption.
    #[test]
    fn check_accepts_exactly_what_decode_accepts() {
        for rec in sample_records() {
            let payload = rec.encode();
            for cut in 0..=payload.len() {
                let p = &payload[..cut];
                assert_eq!(WalRecord::check(p).ok(), WalRecord::decode(p).ok().map(|_| payload[0]));
            }
            for i in 0..payload.len() {
                for byte in [0x00, 0x05, 0x7f, 0xff] {
                    let mut p = payload.clone();
                    p[i] = byte;
                    let decoded = WalRecord::decode(&p).ok().map(|_| p[0]);
                    assert_eq!(WalRecord::check(&p).ok(), decoded, "{rec:?} byte {i} = {byte}");
                }
            }
        }
    }

    #[test]
    fn replaying_a_missing_log_is_empty() {
        let dir = TempDir::new("wal-missing");
        assert!(Wal::replay(&dir.path().join("nope.log")).unwrap().is_empty());
    }
}
