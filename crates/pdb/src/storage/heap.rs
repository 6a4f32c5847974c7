//! The default heap-resident table store — the pre-refactor
//! `BTreeMap<String, Relation>` behind the [`TableStore`] trait, with zero
//! behavior change: tuples are stored decoded, row cursors and scans lend
//! them without a copy, and every durability hook is a no-op.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::relation::{AnnotatedTuple, Relation, Schema};
use crate::storage::{RowCursor, StorageError, StorageStats, StoredRows, TableStore};

/// In-memory [`TableStore`]: the `Database` default. See the
/// module docs above.
#[derive(Debug, Clone, Default)]
pub struct HeapStore {
    tables: BTreeMap<String, Relation>,
}

impl HeapStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        HeapStore::default()
    }

    /// The table's tuples; none for an unknown table.
    fn tuples(&self, table: &str) -> &[AnnotatedTuple] {
        self.tables.get(table).map_or(&[], |rel| &rel.tuples)
    }
}

impl TableStore for HeapStore {
    fn clone_box(&self) -> Box<dyn TableStore> {
        Box::new(self.clone())
    }

    fn create_table(&mut self, schema: Schema, _logical_id: u32) -> Result<(), StorageError> {
        self.tables.insert(schema.name.clone(), Relation::empty(schema));
        Ok(())
    }

    fn append(&mut self, table: &str, tuple: &AnnotatedTuple) -> Result<(), StorageError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| StorageError::corrupt(format!("append to unknown table {table:?}")))?
            .push(tuple.clone());
        Ok(())
    }

    fn schema(&self, table: &str) -> Option<&Schema> {
        self.tables.get(table).map(|r| &r.schema)
    }

    fn table_len(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, Relation::len)
    }

    fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    fn rows<'a>(&'a self, table: &str) -> Box<dyn RowCursor + 'a> {
        Box::new(StoredRows(self.tuples(table).iter()))
    }

    fn scan<'a>(&'a self, table: &str) -> Box<dyn Iterator<Item = Cow<'a, AnnotatedTuple>> + 'a> {
        Box::new(self.tuples(table).iter().map(Cow::Borrowed))
    }

    fn materialize(&self, table: &str) -> Option<Relation> {
        // Zero re-decode: the heap store hands back a clone of what it holds.
        self.tables.get(table).cloned()
    }

    fn row_at(&self, table: &str, index: usize) -> Result<Option<AnnotatedTuple>, StorageError> {
        // O(1) positional access — no scan walk.
        Ok(self.tables.get(table).and_then(|rel| rel.tuples.get(index)).cloned())
    }

    fn log_variable(
        &mut self,
        _name: &str,
        _distribution: &[f64],
        _origin: Option<u32>,
    ) -> Result<(), StorageError> {
        Ok(())
    }

    fn log_epoch(&mut self, _generation: u64) -> Result<(), StorageError> {
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            tables: self.tables.len(),
            rows: self.tables.values().map(Relation::len).sum(),
            ..StorageStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use events::Dnf;

    #[test]
    fn create_append_scan_round_trip() {
        let mut store = HeapStore::new();
        store.create_table(Schema::new("R", &["a"]), 0).unwrap();
        let t = AnnotatedTuple::new(vec![Value::Int(7)], Dnf::tautology());
        store.append("R", &t).unwrap();
        assert_eq!(store.table_len("R"), 1);
        assert_eq!(store.table_names(), vec!["R"]);
        let scanned: Vec<_> = store.scan("R").collect();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].as_ref(), &t);
        assert!(matches!(scanned[0], Cow::Borrowed(_)), "heap scans must not copy");
        let rel = store.materialize("R").unwrap();
        assert_eq!(rel.tuples, vec![t]);
    }

    #[test]
    fn replacement_drops_old_rows() {
        let mut store = HeapStore::new();
        store.create_table(Schema::new("R", &["a"]), 0).unwrap();
        store.append("R", &AnnotatedTuple::new(vec![Value::Int(1)], Dnf::tautology())).unwrap();
        store.create_table(Schema::new("R", &["b"]), 0).unwrap();
        assert_eq!(store.table_len("R"), 0);
        assert_eq!(store.schema("R").unwrap().columns, vec!["b"]);
    }

    #[test]
    fn unknown_tables_are_empty_and_appends_to_them_fail() {
        let mut store = HeapStore::new();
        assert_eq!(store.scan("nope").count(), 0);
        assert_eq!(store.table_len("nope"), 0);
        assert!(store.schema("nope").is_none());
        assert!(store.materialize("nope").is_none());
        let t = AnnotatedTuple::new(vec![Value::Int(1)], Dnf::tautology());
        assert!(store.append("nope", &t).is_err());
    }
}
