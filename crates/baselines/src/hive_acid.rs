//! The Hive ACID (HIVE-5317) base+delta design the paper compares against
//! conceptually in §V-C.
//!
//! Differences from DualTable, as the paper lists them:
//!
//! * both base and delta tables live in the *same* storage format on the
//!   DFS (no hybrid tier) — so delta reads are sequential scans, not
//!   random lookups;
//! * every transaction appends a **new delta file**, and the write puts
//!   the **whole updated record** into it "even if only one cell is
//!   changed";
//! * reads merge the base with *all* delta files;
//! * no cost model: updates always go to deltas;
//! * *minor* compaction merges all deltas into one delta, *major*
//!   compaction folds them into the base.

use std::collections::HashMap;

use dt_common::{DataType, Error, Field, Result, Row, Schema, Value};
use dt_dfs::Dfs;
use dt_orcfile::{ColumnBatch, ColumnPredicate, OrcReader, OrcWriter, WriterOptions};
use dualtable::Assignment;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::{assigned, OrcParts, StorageHandler};

const OP_UPDATE: i64 = 0;
const OP_DELETE: i64 = 1;

/// A base+delta table in the style of Hive's ACID design.
#[derive(Clone)]
pub struct HiveAcidTable {
    orc: OrcParts,
    name: String,
    delta_schema: Schema,
    txn: Arc<Mutex<u64>>,
}

/// A resolved delta action for one base row.
enum DeltaAction {
    Update(Row),
    Delete,
}

impl HiveAcidTable {
    /// Creates an empty table.
    pub fn create(
        dfs: &Dfs,
        name: &str,
        schema: Schema,
        writer_options: WriterOptions,
        rows_per_file: usize,
    ) -> Result<Self> {
        // Delta rows: operation, original row id, then the full record.
        let mut fields = vec![
            Field::new("__op", DataType::Int64),
            Field::new("__orig_id", DataType::Int64),
        ];
        let record = schema.fields().iter();
        fields.extend(record.map(|f| Field::new(format!("__c_{}", f.name), f.data_type)));
        Ok(HiveAcidTable {
            delta_schema: Schema::new(fields)?,
            orc: OrcParts::new(dfs, schema, writer_options, rows_per_file)?,
            name: name.to_string(),
            txn: Arc::new(Mutex::new(0)),
        })
    }

    fn base_dir(&self) -> String {
        format!("/warehouse/{}/base", self.name)
    }

    fn delta_dir(&self) -> String {
        format!("/warehouse/{}/delta", self.name)
    }

    fn base_files(&self) -> Vec<String> {
        self.orc.list(&self.base_dir())
    }

    fn delta_files(&self) -> Vec<String> {
        self.orc.dfs.list(&format!("{}/", self.delta_dir()))
    }

    /// Number of live delta files (compaction experiments).
    pub fn delta_file_count(&self) -> usize {
        self.delta_files().len()
    }

    /// Loads every delta file and resolves the latest action per base row.
    /// This is the sequential delta scan the paper contrasts with
    /// DualTable's random HBase access.
    fn load_deltas(&self) -> Result<HashMap<u64, DeltaAction>> {
        let mut actions: HashMap<u64, (u64, DeltaAction)> = HashMap::new();
        for file in self.delta_files() {
            // Delta files are named delta-{txn:010}; later txns win.
            let txn: u64 = file
                .rsplit('-')
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| Error::corrupt(format!("bad delta file name '{file}'")))?;
            let reader = OrcReader::open(&self.orc.dfs, &file)?;
            for batch in reader.batches(None, None)? {
                for row in batch?.selected_rows() {
                    let op = row[0]
                        .as_i64()
                        .ok_or_else(|| Error::corrupt("delta op not an integer"))?;
                    let orig = row[1]
                        .as_i64()
                        .ok_or_else(|| Error::corrupt("delta orig id not an integer"))?
                        as u64;
                    let action = match op {
                        OP_UPDATE => DeltaAction::Update(row[2..].to_vec()),
                        OP_DELETE => DeltaAction::Delete,
                        other => return Err(Error::corrupt(format!("unknown delta op {other}"))),
                    };
                    match actions.get(&orig) {
                        Some((t, _)) if *t >= txn => {}
                        _ => {
                            actions.insert(orig, (txn, action));
                        }
                    }
                }
            }
        }
        Ok(actions.into_iter().map(|(k, (_, a))| (k, a)).collect())
    }

    /// The table's one read path: the base's batches, columns `projection`,
    /// each patched by the deltas — a deleted row deselected, an updated
    /// one's columns set from the delta's whole record — and handed to `f`
    /// with the row id of its first row.
    fn merged(
        &self,
        projection: Option<&[usize]>,
        f: &mut dyn FnMut(u64, ColumnBatch) -> Result<()>,
    ) -> Result<()> {
        let deltas = self.load_deltas()?;
        let every: Vec<usize> = (0..self.orc.schema.len()).collect();
        let projection = projection.unwrap_or(&every);
        let base = self.base_dir();
        self.orc
            .for_each_batch(&base, Some(projection), None, &mut |file, mut batch| {
                let first = ((file as u64) << 32) | batch.row_start();
                if !deltas.is_empty() {
                    let mut survivors = Vec::with_capacity(batch.rows());
                    for i in 0..batch.rows() {
                        match deltas.get(&(first + i as u64)) {
                            Some(DeltaAction::Delete) => continue,
                            Some(DeltaAction::Update(record)) => {
                                for (pos, &col) in projection.iter().enumerate() {
                                    batch.column_mut(pos).set(i, record[col].clone())?;
                                }
                            }
                            None => {}
                        }
                        survivors.push(i as u32);
                    }
                    if survivors.len() < batch.rows() {
                        batch.select(survivors);
                    }
                }
                f(first, batch)
            })
    }

    fn next_delta_writer(&self) -> Result<OrcWriter> {
        let mut txn = self.txn.lock();
        *txn += 1;
        OrcWriter::create(
            &self.orc.dfs,
            &format!("{}/delta-{:010}", self.delta_dir(), *txn),
            self.delta_schema.clone(),
            self.orc.options.clone(),
        )
    }

    /// The delta-file row of `action` on base row `id`: the op, the id,
    /// then the whole record (all NULL for a delete).
    fn delta_row(&self, id: u64, action: DeltaAction) -> Row {
        let (op, record) = match action {
            DeltaAction::Update(row) => (OP_UPDATE, row),
            DeltaAction::Delete => (OP_DELETE, vec![Value::Null; self.orc.schema.len()]),
        };
        let mut delta = vec![Value::Int64(op), Value::Int64(id as i64)];
        delta.extend(record);
        delta
    }

    /// One UPDATE (`assignments` given) or DELETE transaction: one new
    /// delta file, holding the whole updated record of every matched row
    /// (or a delete record). Returns `(rows matched, rows scanned)`.
    fn transact(
        &self,
        predicate: &(dyn Fn(&Row) -> bool + Sync),
        assignments: Option<&[Assignment<'_>]>,
    ) -> Result<(u64, u64)> {
        let mut scanned = 0u64;
        let mut delta_rows: Vec<Row> = Vec::new();
        self.merged(None, &mut |first, batch| {
            for i in batch.selected() {
                scanned += 1;
                let mut row = batch.row(i);
                if !predicate(&row) {
                    continue;
                }
                let action = match assignments {
                    Some(assignments) => {
                        for (col, v) in assigned(&self.orc.schema, &row, assignments)? {
                            row[col] = v;
                        }
                        DeltaAction::Update(row)
                    }
                    None => DeltaAction::Delete,
                };
                delta_rows.push(self.delta_row(first + i as u64, action));
            }
            Ok(())
        })?;
        let matched = delta_rows.len() as u64;
        if matched > 0 {
            let mut w = self.next_delta_writer()?;
            w.write_rows(delta_rows)?;
            w.finish()?;
        }
        Ok((matched, scanned))
    }

    /// Minor compaction: merge every delta into a single delta file.
    pub fn minor_compact(&self) -> Result<()> {
        let old = self.delta_files();
        if old.len() <= 1 {
            return Ok(());
        }
        let mut actions: Vec<_> = self.load_deltas()?.into_iter().collect();
        actions.sort_unstable_by_key(|(id, _)| *id);
        let mut w = self.next_delta_writer()?;
        w.write_rows(actions.into_iter().map(|(id, a)| self.delta_row(id, a)))?;
        w.finish()?;
        for f in old {
            self.orc.dfs.delete(&f)?;
        }
        Ok(())
    }
}

impl StorageHandler for HiveAcidTable {
    fn schema(&self) -> &Schema {
        &self.orc.schema
    }

    /// No stripe predicate is pushed: a delta can move a row into range.
    fn for_each_batch(
        &self,
        projection: Option<&[usize]>,
        _predicates: Option<&[ColumnPredicate]>,
        f: &mut dyn FnMut(ColumnBatch) -> Result<()>,
    ) -> Result<()> {
        self.merged(projection, &mut |_, batch| f(batch))
    }

    /// Appends rows as new base files.
    fn insert_rows(&self, rows: Vec<Row>) -> Result<u64> {
        let mut out = self.orc.writer(
            format!("{}/part-", self.base_dir()),
            self.base_files().len(),
        );
        let written = out.write_rows(rows)?;
        out.close()?;
        Ok(written)
    }

    /// ACID has no overwrite path: delete-all + insert (two transactions).
    fn insert_overwrite(&self, rows: Vec<Row>) -> Result<u64> {
        self.delete(&|_| true)?;
        self.insert_rows(rows)
    }

    fn update(
        &self,
        predicate: &(dyn Fn(&Row) -> bool + Sync),
        assignments: &[Assignment<'_>],
    ) -> Result<(u64, u64)> {
        self.transact(predicate, Some(assignments))
    }

    fn delete(&self, predicate: &(dyn Fn(&Row) -> bool + Sync)) -> Result<(u64, u64)> {
        self.transact(predicate, None)
    }

    /// Major compaction: the merged batches, every column re-encoded, into
    /// a fresh base staged beside the old one, then swapped in.
    fn compact(&self) -> Result<()> {
        let staging = format!("/warehouse/{}/.base-staging", self.name);
        let old = [self.base_files(), self.delta_files()].concat();
        let base = self.base_dir();
        self.orc.writer(format!("{staging}/part-"), 0).replace(
            old,
            |i| format!("{base}/part-{i:010}"),
            |out| self.for_each_batch(None, None, &mut |batch| out.write(batch)),
        )
    }

    fn drop_table(&self) -> Result<()> {
        let dir = format!("/warehouse/{}/", self.name);
        self.orc.dfs.delete_prefix(&dir)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{count, scan};
    use dt_common::DataType;
    use dt_dfs::DfsConfig;

    fn table(n: i64) -> HiveAcidTable {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)]);
        let t = HiveAcidTable::create(&dfs, "t", schema, WriterOptions::default(), 32).unwrap();
        t.insert_rows(
            (0..n)
                .map(|i| vec![Value::Int64(i), Value::Int64(0)])
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn update_goes_to_delta_and_merges_on_read() {
        let t = table(100);
        let (m, s) = t
            .update(
                &|r| r[0].as_i64().unwrap() < 10,
                &[(1, Box::new(|_| Ok(Value::Int64(7))))],
            )
            .unwrap();
        assert_eq!((m, s), (10, 100));
        assert_eq!(t.delta_file_count(), 1);
        let rows = scan(&t, None);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[9][1], Value::Int64(7));
        assert_eq!(rows[10][1], Value::Int64(0));
        // A projection patches only the columns it reads.
        assert_eq!(scan(&t, Some(&[1]))[9], vec![Value::Int64(7)]);
    }

    #[test]
    fn each_transaction_creates_a_delta() {
        let t = table(50);
        for i in 0..5 {
            t.update(
                &move |r| r[0].as_i64().unwrap() == i,
                &[(1, Box::new(move |_| Ok(Value::Int64(i * 10))))],
            )
            .unwrap();
        }
        assert_eq!(t.delta_file_count(), 5);
        // Latest txn wins on overlapping updates.
        t.update(
            &|r| r[0].as_i64().unwrap() == 0,
            &[(1, Box::new(|_| Ok(Value::Int64(999))))],
        )
        .unwrap();
        assert_eq!(scan(&t, None)[0][1], Value::Int64(999));
    }

    #[test]
    fn delete_and_minor_compact() {
        let t = table(40);
        t.delete(&|r| r[0].as_i64().unwrap() % 2 == 0).unwrap();
        t.update(
            &|r| r[0].as_i64().unwrap() == 1,
            &[(1, Box::new(|_| Ok(Value::Int64(-1))))],
        )
        .unwrap();
        assert_eq!(t.delta_file_count(), 2);
        assert_eq!(count(&t), 20);

        t.minor_compact().unwrap();
        assert_eq!(t.delta_file_count(), 1);
        assert_eq!(count(&t), 20);
        assert_eq!(scan(&t, None)[0][1], Value::Int64(-1));
    }

    #[test]
    fn major_compact_folds_into_base() {
        let t = table(30);
        t.delete(&|r| r[0].as_i64().unwrap() >= 20).unwrap();
        t.update(
            &|r| r[0].as_i64().unwrap() == 5,
            &[(1, Box::new(|_| Ok(Value::Int64(5))))],
        )
        .unwrap();
        t.compact().unwrap();
        assert_eq!(t.delta_file_count(), 0);
        let rows = scan(&t, None);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[5][1], Value::Int64(5));
        // Further DML still works on the new base.
        t.delete(&|r| r[0].as_i64().unwrap() == 0).unwrap();
        assert_eq!(count(&t), 19);
    }

    #[test]
    fn update_after_delete_is_invisible() {
        let t = table(10);
        t.delete(&|r| r[0].as_i64().unwrap() == 3).unwrap();
        // Row 3 no longer visible, so this matches nothing.
        let (m, _) = t
            .update(
                &|r| r[0].as_i64().unwrap() == 3,
                &[(1, Box::new(|_| Ok(Value::Int64(1))))],
            )
            .unwrap();
        assert_eq!(m, 0);
        assert_eq!(count(&t), 9);
    }
}
