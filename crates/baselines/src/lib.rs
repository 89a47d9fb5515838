//! Comparator storage systems from the paper's evaluation (§VI), each a
//! [`StorageHandler`]: the one trait, mirroring Hive's
//! InputFormat/OutputFormat/SerDe, that `STORED AS ORC|HBASE|ACID` tables
//! sit behind. Every handler reads through [`StorageHandler::for_each_batch`]
//! alone and hands the executor typed, projected [`ColumnBatch`]es, as
//! DualTable's UNION READ does.
//!
//! * [`HiveHdfsTable`] — "Hive(HDFS)": ORC files on the DFS, read through
//!   `OrcReader::batches` with stripe predicates. UPDATE and DELETE are
//!   implemented the only way stock Hive 0.11 could — a full `INSERT
//!   OVERWRITE` that re-encodes every column of every stripe, regardless of
//!   how little data changed. The paper's primary baseline.
//! * [`HiveHbaseTable`] — "Hive(HBase)": the whole table lives in the KV
//!   store. Row-level writes are cheap, but a scan decodes every cell of
//!   every row and packs them into 1,024-row batches, projecting after
//!   decode — the paper finds it "much slower than Hive itself and
//!   DualTable" for reads (Figure 11).
//! * [`HiveAcidTable`] — the HIVE-5317 base+delta design the paper compares
//!   against conceptually (§V-C): both base and delta live on the DFS;
//!   every transaction appends a delta file holding *whole updated records*;
//!   reads patch the base's batches with all deltas (no stripe predicate: a
//!   delta can move a row into range); *minor* compaction folds deltas
//!   together, *major* compaction folds them into the base.
//!
//! All three share the substrate crates with DualTable, so experiment
//! comparisons measure the storage model, not the implementation quality.

use dt_common::{Error, Result, Row, Schema, Value};
use dt_dfs::Dfs;
use dt_orcfile::{ColumnBatch, ColumnPredicate, OrcReader, OrcWriter, WriterOptions};
use dualtable::Assignment;

mod hive_acid;
mod hive_hbase;
mod hive_hdfs;

pub use hive_acid::HiveAcidTable;
pub use hive_hbase::HiveHbaseTable;
pub use hive_hdfs::HiveHdfsTable;

/// A Hive storage handler: one table's scan, write and DML surface.
pub trait StorageHandler: Send + Sync {
    /// The table's schema.
    fn schema(&self) -> &Schema;

    /// Streams the table as column batches: `projection` decoded (`None`:
    /// every column; `Some(&[])`: row counts only, which is how a handler
    /// counts), stripes `predicates` rule out skipped where the format keeps
    /// statistics. Surviving batches may still hold non-matching rows.
    fn for_each_batch(
        &self,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
        f: &mut dyn FnMut(ColumnBatch) -> Result<()>,
    ) -> Result<()>;

    /// Appends rows (`INSERT INTO`); returns the rows written.
    fn insert_rows(&self, rows: Vec<Row>) -> Result<u64>;

    /// Replaces the table's content (`INSERT OVERWRITE TABLE`).
    fn insert_overwrite(&self, rows: Vec<Row>) -> Result<u64>;

    /// `UPDATE … SET … WHERE …`; returns `(rows matched, rows scanned)`.
    fn update(
        &self,
        predicate: &(dyn Fn(&Row) -> bool + Sync),
        assignments: &[Assignment<'_>],
    ) -> Result<(u64, u64)>;

    /// `DELETE FROM … WHERE …`; returns `(rows matched, rows scanned)`.
    fn delete(&self, predicate: &(dyn Fn(&Row) -> bool + Sync)) -> Result<(u64, u64)>;

    /// `COMPACT TABLE`.
    fn compact(&self) -> Result<()> {
        Err(Error::Unsupported(
            "COMPACT is only meaningful for DUALTABLE and ACID tables".into(),
        ))
    }

    /// Drops the table's storage.
    fn drop_table(&self) -> Result<()>;
}

/// The values `assignments` give the matched `row`: every SET expression
/// sees the row as read (SQL's rule), a failing one fails the statement,
/// and each value must fit its column.
fn assigned(
    schema: &Schema,
    row: &Row,
    assignments: &[Assignment<'_>],
) -> Result<Vec<(usize, Value)>> {
    assignments
        .iter()
        .map(|(col, f)| {
            let v = f(row)?;
            let field = schema.field(*col);
            if !v.conforms_to(field.data_type) {
                return Err(Error::schema(format!(
                    "UPDATE value {v:?} does not fit column '{}'",
                    field.name
                )));
            }
            Ok((*col, v))
        })
        .collect()
}

/// A table's ORC part files: the DFS, schema and writer options they are
/// written with, and the rows each file holds.
#[derive(Clone)]
struct OrcParts {
    dfs: Dfs,
    schema: Schema,
    options: WriterOptions,
    rows_per_file: usize,
}

impl OrcParts {
    fn new(
        dfs: &Dfs,
        schema: Schema,
        options: WriterOptions,
        rows_per_file: usize,
    ) -> Result<Self> {
        if schema.is_empty() {
            return Err(Error::schema("table schema must have columns"));
        }
        Ok(OrcParts {
            dfs: dfs.clone(),
            schema,
            options,
            rows_per_file: rows_per_file.max(1),
        })
    }

    /// The part files of `dir`: Hive's hidden-file rule, so a `.staging-*`
    /// file of an overwrite in flight (or left by a crash) is never read
    /// or counted.
    fn list(&self, dir: &str) -> Vec<String> {
        let prefix = format!("{dir}/part-");
        let files = self.dfs.list(&format!("{dir}/")).into_iter();
        files.filter(|path| path.starts_with(&prefix)).collect()
    }

    /// Columns `projection` of every part file of `dir`, one batch per
    /// stripe `predicates` cannot rule out, with the file's index.
    fn for_each_batch(
        &self,
        dir: &str,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
        f: &mut dyn FnMut(usize, ColumnBatch) -> Result<()>,
    ) -> Result<()> {
        for (i, file) in self.list(dir).into_iter().enumerate() {
            let reader = OrcReader::open(&self.dfs, &file)?;
            for batch in reader.batches(projection, predicates)? {
                f(i, batch?)?;
            }
        }
        Ok(())
    }

    /// The one file-rolling ORC writer: rows go to `{prefix}{n:010}` for
    /// n = `first`, `first + 1`, …, each file closed at `rows_per_file`.
    fn writer(&self, prefix: String, first: usize) -> PartWriter<'_> {
        PartWriter {
            parts: self,
            prefix,
            first,
            paths: Vec::new(),
            open: None,
        }
    }
}

/// See [`OrcParts::writer`].
struct PartWriter<'a> {
    parts: &'a OrcParts,
    prefix: String,
    first: usize,
    /// Every file this writer created, the last one possibly still open.
    paths: Vec<String>,
    /// The open file and the rows written to it.
    open: Option<(OrcWriter, usize)>,
}

impl PartWriter<'_> {
    /// Appends the surviving rows of `batch`, which holds every column of
    /// the schema; a batch that crosses a file boundary is split there.
    fn write(&mut self, mut batch: ColumnBatch) -> Result<()> {
        let OrcParts {
            dfs,
            schema,
            options,
            rows_per_file,
        } = self.parts;
        while batch.selected_len() > 0 {
            if self.open.is_none() {
                let path = format!("{}{:010}", self.prefix, self.first + self.paths.len());
                let writer = OrcWriter::create(dfs, &path, schema.clone(), options.clone())?;
                self.paths.push(path);
                self.open = Some((writer, 0));
            }
            let (writer, in_file) = self.open.as_mut().expect("just opened");
            let room = rows_per_file - *in_file;
            let rest = (batch.selected_len() > room).then(|| {
                let selected: Vec<u32> = batch.selected().map(|i| i as u32).collect();
                batch.select(selected[..room].to_vec());
                selected[room..].to_vec()
            });
            writer.write_batch(&batch)?;
            *in_file += batch.selected_len();
            if *in_file == *rows_per_file {
                let (writer, _) = self.open.take().expect("open");
                writer.finish()?;
            }
            match rest {
                Some(rest) => batch.select(rest),
                None => break,
            }
        }
        Ok(())
    }

    /// Appends `rows`, one stripe's worth per batch; returns how many.
    fn write_rows(&mut self, rows: Vec<Row>) -> Result<u64> {
        let schema = &self.parts.schema;
        let columns: Vec<usize> = (0..schema.len()).collect();
        for chunk in rows.chunks(self.parts.options.stripe_rows.max(1)) {
            chunk.iter().try_for_each(|row| schema.check_row(row))?;
            self.write(ColumnBatch::from_rows(schema, &columns, chunk)?)?;
        }
        Ok(rows.len() as u64)
    }

    /// Closes the open file.
    fn close(&mut self) -> Result<()> {
        match self.open.take() {
            Some((writer, _)) => writer.finish(),
            None => Ok(()),
        }
    }

    /// Replaces a table with what `fill` writes through this writer of
    /// hidden staging files — Hive's staging move: once every staged file
    /// is closed, `old` is deleted and staged file `i` renamed to
    /// `dest(i)`. A failed fill leaves none of this writer's files behind.
    fn replace(
        mut self,
        old: Vec<String>,
        dest: impl Fn(usize) -> String,
        fill: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        let dfs = &self.parts.dfs;
        if let Err(e) = fill(&mut self).and_then(|()| self.close()) {
            self.open = None; // aborts the file being written
            for path in self.paths.iter().filter(|path| dfs.exists(path)) {
                dfs.delete(path)?;
            }
            return Err(e);
        }
        for f in &old {
            dfs.delete(f)?;
        }
        for (i, path) in self.paths.iter().enumerate() {
            dfs.rename(path, &dest(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod test_util {
    use super::*;

    /// Every row of `t`, columns `projection`, through the trait.
    pub fn scan(t: &dyn StorageHandler, projection: Option<&[usize]>) -> Vec<Row> {
        let mut out = Vec::new();
        t.for_each_batch(projection, None, &mut |batch| {
            out.extend(batch.selected_rows());
            Ok(())
        })
        .unwrap();
        out
    }

    /// `t`'s row count: an empty projection.
    pub fn count(t: &dyn StorageHandler) -> u64 {
        let mut n = 0;
        t.for_each_batch(Some(&[]), None, &mut |batch| {
            n += batch.selected_len() as u64;
            Ok(())
        })
        .unwrap();
        n
    }
}
