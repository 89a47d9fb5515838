//! The "Hive(HDFS)" baseline: ORC on the DFS, DML via full rewrite.

use dt_common::{Result, Row, Schema};
use dt_dfs::Dfs;
use dt_orcfile::{ColumnBatch, ColumnPredicate, WriterOptions};
use dualtable::Assignment;

use crate::{assigned, OrcParts, PartWriter, StorageHandler};

/// A Hive-0.11-style table: a directory of immutable ORC files.
///
/// `UPDATE`/`DELETE` read every row and rewrite the whole table with
/// `INSERT OVERWRITE` — "the cost of a update operation is always
/// proportional to total amount of data instead of the amount of modified
/// data" (paper §II-B).
#[derive(Clone)]
pub struct HiveHdfsTable {
    orc: OrcParts,
    dir: String,
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
        Ok(HiveHdfsTable {
            orc: OrcParts::new(dfs, schema, writer_options, rows_per_file)?,
            dir: format!("/warehouse/{name}"),
        })
    }

    fn files(&self) -> Vec<String> {
        self.orc.list(&self.dir)
    }

    /// Replaces the table with what `fill` writes, staged under hidden
    /// names beside the part files.
    fn overwrite_with(&self, fill: impl FnOnce(&mut PartWriter<'_>) -> Result<()>) -> Result<()> {
        let staging = self.orc.writer(format!("{}/.staging-", self.dir), 0);
        let dest = |i| format!("{}/part-{i:010}", self.dir);
        staging.replace(self.files(), dest, fill)
    }

    /// The paper's Hive, kept that way on purpose: every UPDATE and DELETE
    /// is an `INSERT OVERWRITE` of every row, each stripe decoded whole,
    /// handed to `edit` and re-encoded column by column. No stream is
    /// carried as bytes (DualTable's rewrite does that, DESIGN.md §19).
    fn rewrite(&self, mut edit: impl FnMut(&mut ColumnBatch) -> Result<()>) -> Result<()> {
        self.overwrite_with(|out| {
            self.for_each_batch(None, None, &mut |mut batch| {
                edit(&mut batch)?;
                out.write(batch)
            })
        })
    }
}

impl StorageHandler for HiveHdfsTable {
    fn schema(&self) -> &Schema {
        &self.orc.schema
    }

    fn for_each_batch(
        &self,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
        f: &mut dyn FnMut(ColumnBatch) -> Result<()>,
    ) -> Result<()> {
        let each = &mut |_, batch| f(batch);
        self.orc
            .for_each_batch(&self.dir, projection, predicates, each)
    }

    fn insert_rows(&self, rows: Vec<Row>) -> Result<u64> {
        let mut out = self
            .orc
            .writer(format!("{}/part-", self.dir), self.files().len());
        let written = out.write_rows(rows)?;
        out.close()?;
        Ok(written)
    }

    fn insert_overwrite(&self, rows: Vec<Row>) -> Result<u64> {
        let mut written = 0;
        self.overwrite_with(|out| {
            written = out.write_rows(rows)?;
            Ok(())
        })?;
        Ok(written)
    }

    fn update(
        &self,
        predicate: &(dyn Fn(&Row) -> bool + Sync),
        assignments: &[Assignment<'_>],
    ) -> Result<(u64, u64)> {
        let (mut matched, mut scanned) = (0u64, 0u64);
        self.rewrite(|batch| {
            for i in 0..batch.rows() {
                scanned += 1;
                let row = batch.row(i);
                if predicate(&row) {
                    matched += 1;
                    for (col, v) in assigned(&self.orc.schema, &row, assignments)? {
                        batch.column_mut(col).set(i, v)?;
                    }
                }
            }
            Ok(())
        })?;
        Ok((matched, scanned))
    }

    fn delete(&self, predicate: &(dyn Fn(&Row) -> bool + Sync)) -> Result<(u64, u64)> {
        let (mut matched, mut scanned) = (0u64, 0u64);
        self.rewrite(|batch| {
            let survivors =
                (0..batch.rows() as u32).filter(|&i| !predicate(&batch.row(i as usize)));
            let survivors: Vec<u32> = survivors.collect();
            scanned += batch.rows() as u64;
            matched += (batch.rows() - survivors.len()) as u64;
            batch.select(survivors);
            Ok(())
        })?;
        Ok((matched, scanned))
    }

    fn drop_table(&self) -> Result<()> {
        self.orc.dfs.delete_prefix(&format!("{}/", self.dir))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{count, scan};
    use dt_common::DataType;
    use dt_common::Value;
    use dt_dfs::DfsConfig;
    use dt_orcfile::{OrcReader, OrcWriter};

    fn table(n: i64) -> HiveHdfsTable {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)]);
        let t = HiveHdfsTable::create(&dfs, "t", schema, WriterOptions::default(), 32).unwrap();
        t.insert_rows(
            (0..n)
                .map(|i| vec![Value::Int64(i), Value::Int64(0)])
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn insert_scan_count() {
        let t = table(100);
        assert_eq!(count(&t), 100);
        let rows = scan(&t, Some(&[0]));
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[42][0], Value::Int64(42));
    }

    fn total_bytes(t: &HiveHdfsTable) -> u64 {
        t.files().iter().map(|f| t.orc.dfs.len(f).unwrap()).sum()
    }

    #[test]
    fn update_rewrites_everything() {
        let t = table(100);
        let before = total_bytes(&t);
        let (matched, scanned) = t
            .update(
                &|r| r[0].as_i64().unwrap() == 5,
                &[(1, Box::new(|_| Ok(Value::Int64(99))))],
            )
            .unwrap();
        assert_eq!(matched, 1);
        assert_eq!(scanned, 100);
        // Whole table rewritten: same row count, similar size.
        assert_eq!(count(&t), 100);
        assert!(total_bytes(&t) > before / 2);
        let rows = scan(&t, None);
        assert_eq!(rows[5][1], Value::Int64(99));
        assert_eq!(rows[6][1], Value::Int64(0));
    }

    #[test]
    fn delete_keeps_survivors() {
        let t = table(50);
        let (matched, _) = t.delete(&|r| r[0].as_i64().unwrap() % 2 == 0).unwrap();
        assert_eq!(matched, 25);
        assert_eq!(count(&t), 25);
        assert!(scan(&t, None)
            .iter()
            .all(|r| r[0].as_i64().unwrap() % 2 == 1));
    }

    #[test]
    fn insert_overwrite_replaces() {
        let t = table(50);
        t.insert_overwrite(
            (0..5)
                .map(|i| vec![Value::Int64(i + 100), Value::Int64(1)])
                .collect(),
        )
        .unwrap();
        assert_eq!(count(&t), 5);
        assert_eq!(scan(&t, None)[0][0], Value::Int64(100));
    }

    #[test]
    fn overwrite_with_empty_result_empties_table() {
        let t = table(10);
        t.delete(&|_| true).unwrap();
        assert_eq!(count(&t), 0);
        // Table still usable afterwards.
        t.insert_rows(vec![vec![Value::Int64(1), Value::Int64(2)]])
            .unwrap();
        assert_eq!(count(&t), 1);
    }

    /// A rewrite keeps the parent's file layout: `rows_per_file` rows per
    /// part file, the last one short.
    #[test]
    fn rewrite_rolls_files_at_rows_per_file() {
        let t = table(100);
        t.delete(&|r| r[0].as_i64().unwrap() < 3).unwrap();
        let sizes: Vec<u64> = t
            .files()
            .iter()
            .map(|f| OrcReader::open(&t.orc.dfs, f).unwrap().num_rows())
            .collect();
        assert_eq!(sizes, [32, 32, 32, 1]);
    }

    /// A failed rewrite — here an UPDATE value that does not fit its
    /// column, met in the last file — leaves the table as it was and no
    /// staged file behind, so the next rewrite can stage again.
    #[test]
    fn failed_rewrite_leaves_no_staged_file() {
        let t = table(100);
        let bad = t.update(
            &|r| r[0].as_i64().unwrap() == 99,
            &[(1, Box::new(|_| Ok(Value::from("x"))))],
        );
        assert!(bad
            .unwrap_err()
            .to_string()
            .contains("does not fit column 'v'"));
        assert!(t.orc.dfs.list("/warehouse/t/.staging-").is_empty());
        assert_eq!(count(&t), 100);
        t.delete(&|r| r[0].as_i64().unwrap() == 99).unwrap();
        assert_eq!(count(&t), 99);
    }

    /// Hive's hidden-file rule: an ORC file left at `.staging-*` — an
    /// overwrite in flight, or one a crash interrupted — is neither counted
    /// nor scanned, and part files are numbered as if it were not there.
    #[test]
    fn staging_files_are_hidden() {
        let t = table(100);
        let stray = "/warehouse/t/.staging-0000000000";
        let schema = t.orc.schema.clone();
        let mut w = OrcWriter::create(&t.orc.dfs, stray, schema, WriterOptions::default()).unwrap();
        w.write_row(vec![Value::Int64(-1), Value::Int64(-1)])
            .unwrap();
        w.finish().unwrap();
        let parts = t.files().len();
        assert_eq!(parts, 4);
        assert_eq!(count(&t), 100);
        assert!(scan(&t, None).iter().all(|r| r[0] != Value::Int64(-1)));
        t.insert_rows(vec![vec![Value::Int64(100), Value::Int64(0)]])
            .unwrap();
        assert!(t.orc.dfs.exists(&format!("/warehouse/t/part-{parts:010}")));
        assert_eq!(count(&t), 101);
    }
}
