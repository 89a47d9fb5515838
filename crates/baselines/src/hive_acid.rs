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
//! * reads merge-sort the base with *all* delta files;
//! * no cost model: updates always go to deltas;
//! * *minor* compaction merges all deltas into one delta, *major*
//!   compaction folds them into the base.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dt_common::{DataType, Error, Field, Result, Row, Schema, Value};
use dt_dfs::Dfs;
use dt_orcfile::{OrcReader, OrcWriter, WriterOptions};
use parking_lot::Mutex;
use std::sync::Arc;

const OP_UPDATE: i64 = 0;
const OP_DELETE: i64 = 1;

/// A base+delta table in the style of Hive's ACID design.
#[derive(Clone)]
pub struct HiveAcidTable {
    dfs: Dfs,
    name: String,
    schema: Schema,
    delta_schema: Schema,
    writer_options: WriterOptions,
    rows_per_file: usize,
    txn: Arc<Mutex<u64>>,
}

/// A resolved delta action for one base row.
#[derive(Clone)]
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
        if schema.is_empty() {
            return Err(Error::schema("table schema must have columns"));
        }
        // Delta rows: operation, original row id, then the full record.
        let mut fields = vec![
            Field::new("__op", DataType::Int64),
            Field::new("__orig_id", DataType::Int64),
        ];
        fields.extend(schema.fields().iter().cloned());
        let delta_schema = Schema::new(
            fields
                .into_iter()
                .enumerate()
                .map(|(i, f)| {
                    if i < 2 {
                        f
                    } else {
                        Field::new(format!("__c_{}", f.name), f.data_type)
                    }
                })
                .collect(),
        )?;
        Ok(HiveAcidTable {
            dfs: dfs.clone(),
            name: name.to_string(),
            schema,
            delta_schema,
            writer_options,
            rows_per_file: rows_per_file.max(1),
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
        self.dfs.list(&format!("{}/", self.base_dir()))
    }

    fn delta_files(&self) -> Vec<String> {
        self.dfs.list(&format!("{}/", self.delta_dir()))
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live delta files (compaction experiments).
    pub fn delta_file_count(&self) -> usize {
        self.delta_files().len()
    }

    /// Appends rows as new base files.
    pub fn insert_rows<I>(&self, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        let mut written = 0u64;
        let mut writer: Option<OrcWriter> = None;
        let mut in_file = 0usize;
        let mut seq = self.base_files().len();
        for row in rows {
            self.schema.check_row(&row)?;
            if writer.is_none() {
                writer = Some(OrcWriter::create(
                    &self.dfs,
                    &format!("{}/part-{seq:010}", self.base_dir()),
                    self.schema.clone(),
                    self.writer_options.clone(),
                )?);
                seq += 1;
                in_file = 0;
            }
            writer.as_mut().expect("just created").write_row(row)?;
            written += 1;
            in_file += 1;
            if in_file >= self.rows_per_file {
                writer.take().expect("exists").finish()?;
            }
        }
        if let Some(w) = writer {
            w.finish()?;
        }
        Ok(written)
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
            let reader = OrcReader::open(&self.dfs, &file)?;
            for item in reader.rows(None, None)? {
                let (_, row) = item?;
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
        Ok(actions.into_iter().map(|(k, (_, a))| (k, a)).collect())
    }

    /// Streams the merged (base ⋈ deltas) view through `f`.
    pub fn for_each(&self, mut f: impl FnMut(Row) -> Result<ControlFlow<()>>) -> Result<()> {
        self.for_each_identified(|_, row| f(row))
    }

    fn for_each_identified(
        &self,
        mut f: impl FnMut(u64, Row) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let deltas = self.load_deltas()?;
        for (file_idx, file) in self.base_files().into_iter().enumerate() {
            let reader = OrcReader::open(&self.dfs, &file)?;
            for item in reader.rows(None, None)? {
                let (row_number, row) = item?;
                let id = ((file_idx as u64) << 32) | row_number;
                let row = match deltas.get(&id) {
                    Some(DeltaAction::Delete) => continue,
                    Some(DeltaAction::Update(updated)) => updated.clone(),
                    None => row,
                };
                if let ControlFlow::Break(()) = f(id, row)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Materializes the merged view.
    pub fn scan(&self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.for_each(|row| {
            out.push(row);
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(out)
    }

    /// Row count of the merged view.
    pub fn count(&self) -> Result<u64> {
        let mut n = 0;
        self.for_each(|_| {
            n += 1;
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(n)
    }

    fn next_delta_writer(&self) -> Result<OrcWriter> {
        let mut txn = self.txn.lock();
        *txn += 1;
        OrcWriter::create(
            &self.dfs,
            &format!("{}/delta-{:010}", self.delta_dir(), *txn),
            self.delta_schema.clone(),
            self.writer_options.clone(),
        )
    }

    /// UPDATE: one transaction = one new delta file holding the whole
    /// updated records.
    pub fn update(
        &self,
        predicate: impl Fn(&Row) -> bool,
        assignments: &[dualtable::Assignment<'_>],
    ) -> Result<(u64, u64)> {
        let mut matched = 0u64;
        let mut scanned = 0u64;
        let mut delta_rows: Vec<Row> = Vec::new();
        self.for_each_identified(|id, mut row| {
            scanned += 1;
            if predicate(&row) {
                matched += 1;
                // Every SET expression sees the row as read (SQL's rule).
                let mut values = Vec::with_capacity(assignments.len());
                for (col, f) in assignments {
                    let v = f(&row);
                    if !v.conforms_to(self.schema.field(*col).data_type) {
                        return Err(Error::schema(format!(
                            "UPDATE value {v:?} does not fit column '{}'",
                            self.schema.field(*col).name
                        )));
                    }
                    values.push((*col, v));
                }
                for (col, v) in values {
                    row[col] = v;
                }
                let mut delta = vec![Value::Int64(OP_UPDATE), Value::Int64(id as i64)];
                delta.extend(row);
                delta_rows.push(delta);
            }
            Ok(ControlFlow::Continue(()))
        })?;
        if !delta_rows.is_empty() {
            let mut w = self.next_delta_writer()?;
            w.write_rows(delta_rows)?;
            w.finish()?;
        }
        Ok((matched, scanned))
    }

    /// DELETE: one transaction = one delta file of delete records.
    pub fn delete(&self, predicate: impl Fn(&Row) -> bool) -> Result<(u64, u64)> {
        let mut matched = 0u64;
        let mut scanned = 0u64;
        let mut delta_rows: Vec<Row> = Vec::new();
        let null_row: Row = vec![Value::Null; self.schema.len()];
        self.for_each_identified(|id, row| {
            scanned += 1;
            if predicate(&row) {
                matched += 1;
                let mut delta = vec![Value::Int64(OP_DELETE), Value::Int64(id as i64)];
                delta.extend(null_row.clone());
                delta_rows.push(delta);
            }
            Ok(ControlFlow::Continue(()))
        })?;
        if !delta_rows.is_empty() {
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
        let actions = self.load_deltas()?;
        let mut w = self.next_delta_writer()?;
        let mut ids: Vec<u64> = actions.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let mut delta = match &actions[&id] {
                DeltaAction::Update(row) => {
                    let mut d = vec![Value::Int64(OP_UPDATE), Value::Int64(id as i64)];
                    d.extend(row.clone());
                    d
                }
                DeltaAction::Delete => {
                    let mut d = vec![Value::Int64(OP_DELETE), Value::Int64(id as i64)];
                    d.extend(vec![Value::Null; self.schema.len()]);
                    d
                }
            };
            debug_assert_eq!(delta.len(), self.delta_schema.len());
            w.write_row(std::mem::take(&mut delta))?;
        }
        w.finish()?;
        for f in old {
            self.dfs.delete(&f)?;
        }
        Ok(())
    }

    /// Major compaction: fold the deltas into a fresh base.
    pub fn major_compact(&self) -> Result<()> {
        let mut rows = Vec::new();
        self.for_each(|row| {
            rows.push(row);
            Ok(ControlFlow::Continue(()))
        })?;
        let old_base = self.base_files();
        let old_delta = self.delta_files();
        // Stage the new base beside the old one, then swap.
        let staging = format!("/warehouse/{}/.base-staging", self.name);
        {
            let mut writer: Option<OrcWriter> = None;
            let mut in_file = 0usize;
            let mut seq = 0usize;
            // Like `hive_hdfs`' rewrite, the paper's comparator on purpose:
            // the new base is every row, decoded and re-encoded column by
            // column through `write_row` — no stream is carried as bytes.
            for row in rows {
                if writer.is_none() {
                    writer = Some(OrcWriter::create(
                        &self.dfs,
                        &format!("{staging}/part-{seq:010}"),
                        self.schema.clone(),
                        self.writer_options.clone(),
                    )?);
                    seq += 1;
                    in_file = 0;
                }
                writer.as_mut().expect("just created").write_row(row)?;
                in_file += 1;
                if in_file >= self.rows_per_file {
                    writer.take().expect("exists").finish()?;
                }
            }
            if let Some(w) = writer {
                w.finish()?;
            }
        }
        for f in old_base.iter().chain(&old_delta) {
            self.dfs.delete(f)?;
        }
        for f in self.dfs.list(&format!("{staging}/")) {
            let tail = f.rsplit('/').next().expect("file name");
            self.dfs
                .rename(&f, &format!("{}/{tail}", self.base_dir()))?;
        }
        Ok(())
    }

    /// Drops all storage.
    pub fn drop_table(self) -> Result<()> {
        self.dfs
            .delete_prefix(&format!("/warehouse/{}/", self.name))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::DataType;
    use dt_dfs::DfsConfig;

    fn table(n: i64) -> HiveAcidTable {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)]);
        let t = HiveAcidTable::create(&dfs, "t", schema, WriterOptions::default(), 32).unwrap();
        t.insert_rows((0..n).map(|i| vec![Value::Int64(i), Value::Int64(0)]))
            .unwrap();
        t
    }

    #[test]
    fn update_goes_to_delta_and_merges_on_read() {
        let t = table(100);
        let (m, s) = t
            .update(
                |r| r[0].as_i64().unwrap() < 10,
                &[(1, Box::new(|_| Value::Int64(7)))],
            )
            .unwrap();
        assert_eq!((m, s), (10, 100));
        assert_eq!(t.delta_file_count(), 1);
        let rows = t.scan().unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[9][1], Value::Int64(7));
        assert_eq!(rows[10][1], Value::Int64(0));
    }

    #[test]
    fn each_transaction_creates_a_delta() {
        let t = table(50);
        for i in 0..5 {
            t.update(
                move |r| r[0].as_i64().unwrap() == i,
                &[(1, Box::new(move |_| Value::Int64(i * 10)))],
            )
            .unwrap();
        }
        assert_eq!(t.delta_file_count(), 5);
        // Latest txn wins on overlapping updates.
        t.update(
            |r| r[0].as_i64().unwrap() == 0,
            &[(1, Box::new(|_| Value::Int64(999)))],
        )
        .unwrap();
        assert_eq!(t.scan().unwrap()[0][1], Value::Int64(999));
    }

    #[test]
    fn delete_and_minor_compact() {
        let t = table(40);
        t.delete(|r| r[0].as_i64().unwrap() % 2 == 0).unwrap();
        t.update(
            |r| r[0].as_i64().unwrap() == 1,
            &[(1, Box::new(|_| Value::Int64(-1)))],
        )
        .unwrap();
        assert_eq!(t.delta_file_count(), 2);
        assert_eq!(t.count().unwrap(), 20);

        t.minor_compact().unwrap();
        assert_eq!(t.delta_file_count(), 1);
        assert_eq!(t.count().unwrap(), 20);
        assert_eq!(t.scan().unwrap()[0][1], Value::Int64(-1));
    }

    #[test]
    fn major_compact_folds_into_base() {
        let t = table(30);
        t.delete(|r| r[0].as_i64().unwrap() >= 20).unwrap();
        t.update(
            |r| r[0].as_i64().unwrap() == 5,
            &[(1, Box::new(|_| Value::Int64(5)))],
        )
        .unwrap();
        t.major_compact().unwrap();
        assert_eq!(t.delta_file_count(), 0);
        let rows = t.scan().unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[5][1], Value::Int64(5));
        // Further DML still works on the new base.
        t.delete(|r| r[0].as_i64().unwrap() == 0).unwrap();
        assert_eq!(t.count().unwrap(), 19);
    }

    #[test]
    fn update_after_delete_is_invisible() {
        let t = table(10);
        t.delete(|r| r[0].as_i64().unwrap() == 3).unwrap();
        // Row 3 no longer visible, so this matches nothing.
        let (m, _) = t
            .update(
                |r| r[0].as_i64().unwrap() == 3,
                &[(1, Box::new(|_| Value::Int64(1)))],
            )
            .unwrap();
        assert_eq!(m, 0);
        assert_eq!(t.count().unwrap(), 9);
    }
}
