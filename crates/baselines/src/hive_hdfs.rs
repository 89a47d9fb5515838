//! The "Hive(HDFS)" baseline: ORC on the DFS, DML via full rewrite.

use std::ops::ControlFlow;

use dt_common::{Error, Result, Row, Schema};
use dt_dfs::Dfs;
use dt_orcfile::{ColumnPredicate, OrcReader, OrcWriter, WriterOptions};

/// A Hive-0.11-style table: a directory of immutable ORC files.
///
/// `UPDATE`/`DELETE` read every row and rewrite the whole table with
/// `INSERT OVERWRITE` — "the cost of a update operation is always
/// proportional to total amount of data instead of the amount of modified
/// data" (paper §II-B).
#[derive(Clone)]
pub struct HiveHdfsTable {
    dfs: Dfs,
    name: String,
    schema: Schema,
    writer_options: WriterOptions,
    rows_per_file: usize,
}

impl HiveHdfsTable {
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
        Ok(HiveHdfsTable {
            dfs: dfs.clone(),
            name: name.to_string(),
            schema,
            writer_options,
            rows_per_file: rows_per_file.max(1),
        })
    }

    fn dir(&self) -> String {
        format!("/warehouse/{}", self.name)
    }

    fn files(&self) -> Vec<String> {
        self.dfs.list(&format!("{}/", self.dir()))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total bytes across the table's files.
    pub fn total_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for f in self.files() {
            total += self.dfs.len(&f)?;
        }
        Ok(total)
    }

    fn next_file_path(&self) -> String {
        let n = self.files().len();
        format!("{}/part-{n:010}", self.dir())
    }

    /// Appends rows as new ORC files (`INSERT INTO`).
    pub fn insert_rows<I>(&self, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        let mut written = 0u64;
        let mut writer: Option<OrcWriter> = None;
        let mut in_file = 0usize;
        for row in rows {
            if writer.is_none() {
                writer = Some(OrcWriter::create(
                    &self.dfs,
                    &self.next_file_path(),
                    self.schema.clone(),
                    self.writer_options.clone(),
                )?);
                in_file = 0;
            }
            writer.as_mut().expect("just created").write_row(row)?;
            written += 1;
            in_file += 1;
            if in_file >= self.rows_per_file {
                writer.take().expect("writer exists").finish()?;
            }
        }
        if let Some(w) = writer {
            w.finish()?;
        }
        Ok(written)
    }

    /// Replaces the table's content (`INSERT OVERWRITE TABLE`).
    pub fn insert_overwrite<I>(&self, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        // Write to fresh paths after remembering the old ones, then drop
        // the old files — mirroring Hive's staging-directory move.
        let old = self.files();
        let mut staged = Vec::new();
        let mut written = 0u64;
        {
            let mut writer: Option<(String, OrcWriter)> = None;
            let mut in_file = 0usize;
            let mut seq = 0usize;
            // The paper's Hive, kept that way on purpose: every UPDATE and
            // DELETE lands here with every column of every row decoded and
            // re-encoded through `write_row`. No column of a stripe is
            // carried as bytes (DualTable's rewrite does that, DESIGN.md
            // §19); the comparator gains only what the typed encoder gives
            // any caller.
            for row in rows {
                if writer.is_none() {
                    let path = format!("{}/.staging-{seq:010}", self.dir());
                    seq += 1;
                    writer = Some((
                        path.clone(),
                        OrcWriter::create(
                            &self.dfs,
                            &path,
                            self.schema.clone(),
                            self.writer_options.clone(),
                        )?,
                    ));
                    in_file = 0;
                }
                let (_, w) = writer.as_mut().expect("just created");
                w.write_row(row)?;
                written += 1;
                in_file += 1;
                if in_file >= self.rows_per_file {
                    let (path, w) = writer.take().expect("writer exists");
                    w.finish()?;
                    staged.push(path);
                }
            }
            if let Some((path, w)) = writer {
                w.finish()?;
                staged.push(path);
            }
        }
        for f in &old {
            self.dfs.delete(f)?;
        }
        for (i, path) in staged.iter().enumerate() {
            self.dfs
                .rename(path, &format!("{}/part-{i:010}", self.dir()))?;
        }
        Ok(written)
    }

    /// Streams rows through `f`; `Break` stops the scan.
    pub fn for_each(
        &self,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
        mut f: impl FnMut(Row) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        for file in self.files() {
            let reader = OrcReader::open(&self.dfs, &file)?;
            for item in reader.rows(projection, predicates)? {
                let (_, row) = item?;
                if let ControlFlow::Break(()) = f(row)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Materializes a scan.
    pub fn scan(
        &self,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
    ) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.for_each(projection, predicates, |row| {
            out.push(row);
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(out)
    }

    /// Row count.
    pub fn count(&self) -> Result<u64> {
        let mut n = 0;
        for file in self.files() {
            n += OrcReader::open(&self.dfs, &file)?.num_rows();
        }
        Ok(n)
    }

    /// `UPDATE … SET … WHERE …` via full rewrite. Returns
    /// `(rows matched, rows scanned)`.
    pub fn update(
        &self,
        predicate: impl Fn(&Row) -> bool,
        assignments: &[dualtable::Assignment<'_>],
    ) -> Result<(u64, u64)> {
        let mut matched = 0u64;
        let mut scanned = 0u64;
        let mut rows = Vec::new();
        self.for_each(None, None, |mut row| {
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
            }
            rows.push(row);
            Ok(ControlFlow::Continue(()))
        })?;
        self.insert_overwrite(rows)?;
        Ok((matched, scanned))
    }

    /// `DELETE FROM … WHERE …` via full rewrite of the surviving rows.
    pub fn delete(&self, predicate: impl Fn(&Row) -> bool) -> Result<(u64, u64)> {
        let mut matched = 0u64;
        let mut scanned = 0u64;
        let mut rows = Vec::new();
        self.for_each(None, None, |row| {
            scanned += 1;
            if predicate(&row) {
                matched += 1;
            } else {
                rows.push(row);
            }
            Ok(ControlFlow::Continue(()))
        })?;
        self.insert_overwrite(rows)?;
        Ok((matched, scanned))
    }

    /// Drops all storage.
    pub fn drop_table(self) -> Result<()> {
        self.dfs.delete_prefix(&format!("{}/", self.dir()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::DataType;
    use dt_common::Value;
    use dt_dfs::DfsConfig;

    fn table(n: i64) -> HiveHdfsTable {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)]);
        let t = HiveHdfsTable::create(&dfs, "t", schema, WriterOptions::default(), 32).unwrap();
        t.insert_rows((0..n).map(|i| vec![Value::Int64(i), Value::Int64(0)]))
            .unwrap();
        t
    }

    #[test]
    fn insert_scan_count() {
        let t = table(100);
        assert_eq!(t.count().unwrap(), 100);
        let rows = t.scan(Some(&[0]), None).unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[42][0], Value::Int64(42));
    }

    #[test]
    fn update_rewrites_everything() {
        let t = table(100);
        let before = t.total_bytes().unwrap();
        let (matched, scanned) = t
            .update(
                |r| r[0].as_i64().unwrap() == 5,
                &[(1, Box::new(|_| Value::Int64(99)))],
            )
            .unwrap();
        assert_eq!(matched, 1);
        assert_eq!(scanned, 100);
        // Whole table rewritten: same row count, similar size.
        assert_eq!(t.count().unwrap(), 100);
        assert!(t.total_bytes().unwrap() > before / 2);
        let rows = t.scan(None, None).unwrap();
        assert_eq!(rows[5][1], Value::Int64(99));
        assert_eq!(rows[6][1], Value::Int64(0));
    }

    #[test]
    fn delete_keeps_survivors() {
        let t = table(50);
        let (matched, _) = t.delete(|r| r[0].as_i64().unwrap() % 2 == 0).unwrap();
        assert_eq!(matched, 25);
        assert_eq!(t.count().unwrap(), 25);
        assert!(t
            .scan(None, None)
            .unwrap()
            .iter()
            .all(|r| r[0].as_i64().unwrap() % 2 == 1));
    }

    #[test]
    fn insert_overwrite_replaces() {
        let t = table(50);
        t.insert_overwrite((0..5).map(|i| vec![Value::Int64(i + 100), Value::Int64(1)]))
            .unwrap();
        assert_eq!(t.count().unwrap(), 5);
        assert_eq!(t.scan(None, None).unwrap()[0][0], Value::Int64(100));
    }

    #[test]
    fn overwrite_with_empty_result_empties_table() {
        let t = table(10);
        t.delete(|_| true).unwrap();
        assert_eq!(t.count().unwrap(), 0);
        // Table still usable afterwards.
        t.insert_rows(vec![vec![Value::Int64(1), Value::Int64(2)]])
            .unwrap();
        assert_eq!(t.count().unwrap(), 1);
    }
}
