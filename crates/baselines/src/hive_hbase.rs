//! The "Hive(HBase)" baseline: the whole table in the KV store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dt_common::codec::{decode_value, encode_value};
use dt_common::{Error, Result, Row, Schema, Value};
use dt_kvstore::{KvCluster, Store};
use dt_orcfile::{ColumnBatch, ColumnPredicate};
use dualtable::Assignment;

use crate::{assigned, StorageHandler};

/// Rows per batch a scan packs its decoded cells into.
const BATCH_ROWS: usize = 1024;

/// A Hive table backed entirely by the KV store (HBase storage handler).
///
/// Row key = an auto-incrementing 8-byte id; every column is one qualifier.
/// Point writes are cheap (the LSM absorbs them), but full scans pay the
/// merge across memtable and SSTables plus per-cell decoding — the
/// batch-read weakness the paper attributes to HBase-backed Hive.
#[derive(Clone)]
pub struct HiveHbaseTable {
    kv: KvCluster,
    store: Store,
    name: String,
    schema: Schema,
    next_row_id: Arc<AtomicU64>,
}

impl HiveHbaseTable {
    /// Creates an empty table.
    pub fn create(kv: &KvCluster, name: &str, schema: Schema) -> Result<Self> {
        if schema.is_empty() {
            return Err(Error::schema("table schema must have columns"));
        }
        if schema.len() >= 0xFFFF {
            return Err(Error::schema("too many columns"));
        }
        let store = kv.create_table(&format!("hive_{name}"))?;
        Ok(HiveHbaseTable {
            kv: kv.clone(),
            store,
            name: name.to_string(),
            schema,
            next_row_id: Arc::new(AtomicU64::new(0)),
        })
    }

    fn qual(col: usize) -> [u8; 2] {
        (col as u16).to_be_bytes()
    }

    fn truncate(&self) -> Result<()> {
        // Row tombstones per existing row: HBase's truncate drops the
        // region files, but issuing deletes exercises the same API surface
        // our scans understand; resetting the row-id counter is safe since
        // old ids are tombstoned.
        let rows: Vec<Vec<u8>> = self
            .store
            .scan(None, None)?
            .map(|r| r.map(|e| e.row))
            .collect::<Result<_>>()?;
        for row in rows {
            self.store.delete_row(&row)?;
        }
        Ok(())
    }

    /// The table's one read path: every row decoded cell by cell, in
    /// row-id order, handed to `f` [`BATCH_ROWS`] at a time with their ids.
    fn decoded(&self, mut f: impl FnMut(&[u64], &[Row]) -> Result<()>) -> Result<()> {
        let mut ids = Vec::with_capacity(BATCH_ROWS);
        let mut rows = Vec::with_capacity(BATCH_ROWS);
        for entry in self.store.scan(None, None)? {
            let entry = entry?;
            let id_bytes: [u8; 8] = entry
                .row
                .as_slice()
                .try_into()
                .map_err(|_| Error::corrupt("hive-hbase row key is not an 8-byte id"))?;
            let mut row: Row = vec![Value::Null; self.schema.len()];
            for (qual, _, bytes) in &entry.cells {
                let q: [u8; 2] = qual
                    .as_slice()
                    .try_into()
                    .map_err(|_| Error::corrupt("bad qualifier"))?;
                let col = u16::from_be_bytes(q) as usize;
                if col < row.len() {
                    row[col] = decode_value(bytes)?;
                }
            }
            ids.push(u64::from_be_bytes(id_bytes));
            rows.push(row);
            if rows.len() == BATCH_ROWS {
                f(&ids, &rows)?;
                ids.clear();
                rows.clear();
            }
        }
        if !rows.is_empty() {
            f(&ids, &rows)?;
        }
        Ok(())
    }
}

impl StorageHandler for HiveHbaseTable {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Projection applies after decoding — the HBase handler cannot skip
    /// column data the way ORC does — and no predicate skips anything.
    fn for_each_batch(
        &self,
        projection: Option<&[usize]>,
        _predicates: Option<&[ColumnPredicate]>,
        f: &mut dyn FnMut(ColumnBatch) -> Result<()>,
    ) -> Result<()> {
        let every: Vec<usize> = (0..self.schema.len()).collect();
        let projection = projection.unwrap_or(&every);
        self.decoded(|_, rows| f(ColumnBatch::from_rows(&self.schema, projection, rows)?))
    }

    fn insert_rows(&self, rows: Vec<Row>) -> Result<u64> {
        let mut written = 0u64;
        let mut batch = Vec::new();
        for row in rows {
            self.schema.check_row(&row)?;
            let id = self.next_row_id.fetch_add(1, Ordering::Relaxed);
            let key = id.to_be_bytes().to_vec();
            for (col, value) in row.iter().enumerate() {
                batch.push((key.clone(), Self::qual(col).to_vec(), encode_value(value)));
            }
            written += 1;
            if batch.len() >= 4096 {
                self.store.put_batch(std::mem::take(&mut batch))?;
            }
        }
        if !batch.is_empty() {
            self.store.put_batch(batch)?;
        }
        Ok(written)
    }

    fn insert_overwrite(&self, rows: Vec<Row>) -> Result<u64> {
        self.truncate()?;
        self.insert_rows(rows)
    }

    /// Row-level UPDATE: scan, then write only the changed cells (the
    /// "EDIT plan implemented with user defined functions" the paper uses
    /// for HBase-backed Hive in §VI-B).
    fn update(
        &self,
        predicate: &(dyn Fn(&Row) -> bool + Sync),
        assignments: &[Assignment<'_>],
    ) -> Result<(u64, u64)> {
        let (mut matched, mut scanned) = (0u64, 0u64);
        let mut cells = Vec::new();
        self.decoded(|ids, rows| {
            for (id, row) in ids.iter().zip(rows) {
                scanned += 1;
                if predicate(row) {
                    matched += 1;
                    let key = id.to_be_bytes().to_vec();
                    for (col, v) in assigned(&self.schema, row, assignments)? {
                        cells.push((key.clone(), Self::qual(col).to_vec(), encode_value(&v)));
                    }
                }
            }
            Ok(())
        })?;
        for chunk in cells.chunks(4096) {
            self.store.put_batch(chunk.to_vec())?;
        }
        Ok((matched, scanned))
    }

    /// Row-level DELETE via row tombstones.
    fn delete(&self, predicate: &(dyn Fn(&Row) -> bool + Sync)) -> Result<(u64, u64)> {
        let mut scanned = 0u64;
        let mut victims = Vec::new();
        self.decoded(|ids, rows| {
            scanned += rows.len() as u64;
            let matching = ids.iter().zip(rows).filter(|(_, row)| predicate(row));
            victims.extend(matching.map(|(id, _)| *id));
            Ok(())
        })?;
        for id in &victims {
            self.store.delete_row(&id.to_be_bytes())?;
        }
        Ok((victims.len() as u64, scanned))
    }

    fn drop_table(&self) -> Result<()> {
        self.kv.drop_table(&format!("hive_{}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{count, scan};
    use dt_common::DataType;
    use dt_kvstore::KvConfig;

    fn table(n: i64) -> HiveHbaseTable {
        let kv = KvCluster::in_memory(KvConfig::default());
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Utf8)]);
        let t = HiveHbaseTable::create(&kv, "t", schema).unwrap();
        t.insert_rows(
            (0..n)
                .map(|i| vec![Value::Int64(i), Value::from("x")])
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn insert_scan_roundtrip() {
        let t = table(100);
        assert_eq!(count(&t), 100);
        let rows = scan(&t, None);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[7][0], Value::Int64(7));
        let proj = scan(&t, Some(&[1]));
        assert_eq!(proj[0], vec![Value::from("x")]);
    }

    #[test]
    fn scans_pack_rows_into_batches() {
        let t = table(2 * BATCH_ROWS as i64 + 5);
        let mut sizes = Vec::new();
        t.for_each_batch(Some(&[0]), None, &mut |batch| {
            sizes.push(batch.selected_len());
            Ok(())
        })
        .unwrap();
        assert_eq!(sizes, [BATCH_ROWS, BATCH_ROWS, 5]);
    }

    #[test]
    fn update_changes_only_matches() {
        let t = table(20);
        let (m, s) = t
            .update(
                &|r| r[0].as_i64().unwrap() < 3,
                &[(1, Box::new(|_| Ok(Value::from("changed"))))],
            )
            .unwrap();
        assert_eq!((m, s), (3, 20));
        let rows = scan(&t, None);
        assert_eq!(rows[2][1], Value::from("changed"));
        assert_eq!(rows[3][1], Value::from("x"));
    }

    #[test]
    fn delete_removes_rows() {
        let t = table(20);
        let (m, _) = t.delete(&|r| r[0].as_i64().unwrap() % 4 == 0).unwrap();
        assert_eq!(m, 5);
        assert_eq!(count(&t), 15);
    }

    #[test]
    fn insert_overwrite_resets_content() {
        let t = table(10);
        t.insert_overwrite(
            (100..103)
                .map(|i| vec![Value::Int64(i), Value::from("y")])
                .collect(),
        )
        .unwrap();
        assert_eq!(count(&t), 3);
        let rows = scan(&t, None);
        assert!(rows.iter().all(|r| r[1] == Value::from("y")));
    }

    #[test]
    fn nulls_roundtrip() {
        let kv = KvCluster::in_memory(KvConfig::default());
        let schema = Schema::from_pairs(&[("a", DataType::Int64), ("b", DataType::Utf8)]);
        let t = HiveHbaseTable::create(&kv, "n", schema).unwrap();
        t.insert_rows(vec![vec![Value::Null, Value::from("only-b")]])
            .unwrap();
        let rows = scan(&t, None);
        assert_eq!(rows[0][0], Value::Null);
        assert_eq!(rows[0][1], Value::from("only-b"));
    }
}
