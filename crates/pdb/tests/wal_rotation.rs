//! WAL rotation copies metadata frames verbatim.
//!
//! After a full flush the disk store rewrites `wal.log` without its row
//! records. The rewrite must be byte-identical to appending every metadata
//! record (epochs, variables, tables) in log order followed by one
//! watermark; it must refuse to copy a CRC-valid frame it cannot decode,
//! drop a torn tail frame, and cost a constant number of allocations no
//! matter how many variable records the log holds.
//!
//! The counting allocator is process-wide, so every test in this file holds
//! one lock while it runs.

use std::alloc::System;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use events::{Dnf, VarId};
use pdb::storage::encode::crc32;
use pdb::storage::testutil::TempDir;
use pdb::storage::wal::{Wal, WalRecord};
use pdb::storage::{DiskStore, TableStore};
use pdb::{AnnotatedTuple, Schema, Value};
use stats_alloc::{Region, StatsAlloc};

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::new(System);

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tuple(i: i64) -> AnnotatedTuple {
    AnnotatedTuple::new(vec![Value::Int(i)], Dnf::literal(VarId(i as u32)))
}

fn variable(i: usize) -> WalRecord {
    let p = 0.1 + 0.8 * (i % 7) as f64 / 7.0;
    WalRecord::Variable { name: format!("S#{i}"), distribution: vec![1.0 - p, p], origin: Some(0) }
}

/// Logs `records` (metadata only) into `store` through its public API.
fn log(store: &mut DiskStore, records: &[WalRecord]) {
    for rec in records {
        match rec {
            WalRecord::Epoch { generation } => store.log_epoch(*generation).unwrap(),
            WalRecord::Variable { name, distribution, origin } => {
                store.log_variable(name, distribution, *origin).unwrap()
            }
            WalRecord::Table { logical_id, schema, .. } => {
                store.create_table(schema.clone(), *logical_id).unwrap()
            }
            other => panic!("not a metadata record: {other:?}"),
        }
    }
}

/// The bytes of a log holding exactly `records`, appended one by one.
fn framed(dir: &Path, records: &[WalRecord]) -> Vec<u8> {
    let path = dir.join("expected.log");
    let _ = std::fs::remove_file(&path);
    let mut wal = Wal::open(&path).unwrap();
    for rec in records {
        wal.append(rec).unwrap();
    }
    drop(wal);
    std::fs::read(path).unwrap()
}

fn append_raw(dir: &Path, bytes: &[u8]) {
    let mut file = std::fs::OpenOptions::new().append(true).open(dir.join("wal.log")).unwrap();
    file.write_all(bytes).unwrap();
}

/// A CRC-valid frame around `payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn rotated_log_is_the_framed_metadata_records_plus_a_watermark() {
    let _guard = serial();
    let dir = TempDir::new("rotation-bytes");
    let (mut store, _) = DiskStore::open(dir.path(), 1 << 20).unwrap();
    let s = WalRecord::Table { logical_id: 0, epoch: 0, schema: Schema::new("S", &["a"]) };
    let t = WalRecord::Table { logical_id: 1, epoch: 0, schema: Schema::new("T", &["a", "b"]) };
    let mut metadata = vec![WalRecord::Epoch { generation: 7 }, s];
    metadata.extend((0..5).map(variable));
    log(&mut store, &metadata);
    for i in 0..3 {
        store.append("S", &tuple(i)).unwrap();
    }
    let later = vec![t, variable(5), WalRecord::Epoch { generation: 8 }];
    log(&mut store, &later);
    store.append("S", &tuple(3)).unwrap();
    store.flush_memtable().unwrap();
    metadata.extend(later);
    let mut expected = metadata.clone();
    expected.push(WalRecord::Watermark { next_seq: 4 });
    let wal = std::fs::read(dir.path().join("wal.log")).unwrap();
    assert_eq!(wal, framed(dir.path(), &expected), "first rotation");
    assert_eq!(store.stats().wal_bytes, wal.len() as u64);

    // A second rotation drops the first one's watermark and pins a new one.
    let more = vec![variable(6), variable(7)];
    log(&mut store, &more);
    store.append("S", &tuple(4)).unwrap();
    store.flush_memtable().unwrap();
    metadata.extend(more);
    metadata.push(WalRecord::Watermark { next_seq: 5 });
    let wal = std::fs::read(dir.path().join("wal.log")).unwrap();
    assert_eq!(wal, framed(dir.path(), &metadata), "second rotation");
    assert_eq!(store.stats().wal_rotations, 2);
}

#[test]
fn a_corrupt_frame_fails_the_rotation_and_a_torn_tail_is_not_copied() {
    let _guard = serial();
    let schema = WalRecord::Table { logical_id: 0, epoch: 0, schema: Schema::new("S", &["a"]) };
    let metadata = vec![WalRecord::Epoch { generation: 3 }, schema, variable(0), variable(1)];
    // An unknown tag, and a variable record whose name runs past its frame:
    // both carry a valid CRC, so only decoding can tell they are corrupt.
    let unknown_tag = frame(&[9, 0, 0, 0, 0]);
    let mut short_name = vec![1];
    short_name.extend_from_slice(&u32::MAX.to_le_bytes());
    short_name.extend_from_slice(&0u32.to_le_bytes());
    short_name.extend_from_slice(&16u32.to_le_bytes());
    short_name.extend_from_slice(b"S#");
    for corrupt in [unknown_tag, frame(&short_name)] {
        let dir = TempDir::new("rotation-corrupt");
        let (mut store, _) = DiskStore::open(dir.path(), 1 << 20).unwrap();
        log(&mut store, &metadata);
        store.append("S", &tuple(0)).unwrap();
        append_raw(dir.path(), &corrupt);
        let before = std::fs::read(dir.path().join("wal.log")).unwrap();
        assert!(store.flush_memtable().is_err(), "a corrupt frame must fail the rotation");
        assert_eq!(store.stats().wal_rotations, 0);
        let after = std::fs::read(dir.path().join("wal.log")).unwrap();
        assert_eq!(before, after, "a failed rotation leaves the log alone");
    }

    let dir = TempDir::new("rotation-torn");
    let (mut store, _) = DiskStore::open(dir.path(), 1 << 20).unwrap();
    log(&mut store, &metadata);
    store.append("S", &tuple(0)).unwrap();
    let torn = framed(dir.path(), &[variable(2)]);
    append_raw(dir.path(), &torn[..torn.len() - 3]);
    store.flush_memtable().unwrap();
    let mut expected = metadata;
    expected.push(WalRecord::Watermark { next_seq: 1 });
    let wal = std::fs::read(dir.path().join("wal.log")).unwrap();
    assert_eq!(wal, framed(dir.path(), &expected), "the torn tail frame is not copied");
}

#[test]
fn one_rotation_allocates_a_constant_number_of_times() {
    let _guard = serial();
    let dir = TempDir::new("rotation-allocations");
    let (mut store, _) = DiskStore::open(dir.path(), 1 << 30).unwrap();
    store.create_table(Schema::new("S", &["a"]), 0).unwrap();
    for i in 0..50_000 {
        let p = 0.1 + 0.8 * (i % 7) as f64 / 7.0;
        store.log_variable(&format!("S#{i}"), &[1.0 - p, p], Some(0)).unwrap();
    }
    store.append("S", &tuple(0)).unwrap();

    let region = Region::new(&GLOBAL);
    store.flush_memtable().unwrap();
    let change = region.change();
    let allocations = change.allocations + change.reallocations;

    assert_eq!(store.stats().wal_rotations, 1);
    assert!(allocations < 64, "a flush over 50k variable records made {allocations} allocations");
    let (_, meta) = DiskStore::open(dir.path(), 1 << 30).unwrap();
    assert_eq!(meta.vars.len(), 50_000, "every variable survives the rotation");
}
