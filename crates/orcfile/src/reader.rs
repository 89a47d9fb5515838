//! The ORC file reader: footer parsing, projection, predicate push-down and
//! row-number tracking.

use std::collections::BTreeMap;

use dt_common::codec::{get_bytes, get_uvarint};
use dt_common::{Error, Result, Row, Schema};
use dt_dfs::{Dfs, DfsReader};

use crate::batch::ColumnBatch;
use crate::compress::decompress_block;
use crate::predicate::{conjunction_may_match, ColumnPredicate};
use crate::schema_io::decode_schema;
use crate::stats::ColumnStats;
use crate::stripe::decode_column;
use crate::writer::MAGIC;

struct StripeMeta {
    offset: u64,
    rows: u64,
    /// First row number of the stripe within the file.
    row_start: u64,
    streams: Vec<(u64, u64)>,
    stats: Vec<ColumnStats>,
}

/// An open ORC file.
pub struct OrcReader {
    dfs: Dfs,
    path: String,
    schema: Schema,
    stripes: Vec<StripeMeta>,
    file_stats: Vec<ColumnStats>,
    metadata: BTreeMap<String, Vec<u8>>,
    total_rows: u64,
    file_len: u64,
}

impl OrcReader {
    /// Opens and validates the file at `path`.
    pub fn open(dfs: &Dfs, path: &str) -> Result<Self> {
        let mut file = dfs.open(path)?;
        let tail = file.read_tail(12)?;
        if tail.len() < 12 || &tail[4..12] != MAGIC {
            return Err(Error::corrupt(format!("'{path}' is not an ORC file")));
        }
        let footer_len = u32::from_le_bytes(tail[0..4].try_into().unwrap()) as u64;
        let file_len = file.len();
        if footer_len + 12 > file_len {
            return Err(Error::corrupt(format!("'{path}': footer length invalid")));
        }
        let mut footer = vec![0u8; footer_len as usize];
        file.read_at(file_len - 12 - footer_len, &mut footer)?;

        let mut pos = 0usize;
        let schema = decode_schema(&footer, &mut pos)?;
        let ncols = schema.len();
        let stripe_count = get_uvarint(&footer, &mut pos)? as usize;
        let mut stripes = Vec::with_capacity(stripe_count);
        let mut row_start = 0u64;
        for _ in 0..stripe_count {
            let offset = get_uvarint(&footer, &mut pos)?;
            let rows = get_uvarint(&footer, &mut pos)?;
            let mut streams = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let off = get_uvarint(&footer, &mut pos)?;
                let len = get_uvarint(&footer, &mut pos)?;
                streams.push((off, len));
            }
            let mut stats = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                stats.push(ColumnStats::decode(&footer, &mut pos)?);
            }
            stripes.push(StripeMeta {
                offset,
                rows,
                row_start,
                streams,
                stats,
            });
            row_start += rows;
        }
        let mut file_stats = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            file_stats.push(ColumnStats::decode(&footer, &mut pos)?);
        }
        let meta_count = get_uvarint(&footer, &mut pos)? as usize;
        let mut metadata = BTreeMap::new();
        for _ in 0..meta_count {
            let key = std::str::from_utf8(get_bytes(&footer, &mut pos)?)
                .map_err(|_| Error::corrupt("invalid UTF-8 metadata key"))?
                .to_string();
            let value = get_bytes(&footer, &mut pos)?.to_vec();
            metadata.insert(key, value);
        }
        Ok(OrcReader {
            dfs: dfs.clone(),
            path: path.to_string(),
            schema,
            stripes,
            file_stats,
            metadata,
            total_rows: row_start,
            file_len,
        })
    }

    /// Length in bytes of the underlying DFS file at open time (footer
    /// caches use this to validate a cached parse against the namespace).
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The DFS path this reader was opened on.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across all stripes.
    pub fn num_rows(&self) -> u64 {
        self.total_rows
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// File-level column statistics.
    pub fn file_stats(&self) -> &[ColumnStats] {
        &self.file_stats
    }

    /// A user-metadata value.
    pub fn metadata(&self, key: &str) -> Option<&[u8]> {
        self.metadata.get(key).map(Vec::as_slice)
    }

    /// Counts stripes whose statistics pass the predicates — exposed for
    /// tests and experiments measuring push-down effectiveness.
    pub fn matching_stripes(&self, predicates: &[ColumnPredicate]) -> usize {
        self.stripes
            .iter()
            .filter(|s| conjunction_may_match(predicates, &s.stats))
            .count()
    }

    /// Streams one [`ColumnBatch`] per stripe the predicates cannot rule
    /// out — the reader's one decode path.
    ///
    /// * `projection`: column ordinals to decode (in the given order);
    ///   `None` reads every column, `Some(&[])` none at all (batches then
    ///   carry row counts only, straight from the footer, without I/O).
    /// * `predicates`: conjunctive push-down predicates used to *skip
    ///   stripes*; matching stripes still contain non-matching rows, so
    ///   callers must re-filter.
    ///
    /// [`ColumnBatch::row_start`] is absolute within the file and remains
    /// correct when stripes are skipped — row numbers are the row-number
    /// half of the DualTable record ID.
    pub fn batches(
        &self,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
    ) -> Result<BatchIter<'_>> {
        let projection: Vec<usize> = match projection {
            Some(p) => {
                for &c in p {
                    if c >= self.schema.len() {
                        return Err(Error::schema(format!(
                            "projection column {c} out of range ({} columns)",
                            self.schema.len()
                        )));
                    }
                }
                p.to_vec()
            }
            None => (0..self.schema.len()).collect(),
        };
        Ok(BatchIter {
            reader: self,
            file: None,
            projection,
            predicates: predicates
                .map(<[ColumnPredicate]>::to_vec)
                .unwrap_or_default(),
            stripe_idx: 0,
        })
    }

    /// Streams `(row_number, row)` pairs: [`OrcReader::batches`] with each
    /// batch unpacked into heap rows.
    pub fn rows(
        &self,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
    ) -> Result<RowIter<'_>> {
        Ok(RowIter {
            batches: self.batches(projection, predicates)?,
            batch: None,
            next: 0,
        })
    }

    /// Convenience: materializes the whole file.
    pub fn read_all(&self) -> Result<Vec<(u64, Row)>> {
        self.rows(None, None)?.collect()
    }
}

/// Streaming batch iterator over an ORC file (see [`OrcReader::batches`]).
pub struct BatchIter<'a> {
    reader: &'a OrcReader,
    /// Opened at the first stream read: a scan that decodes no column
    /// never touches the file.
    file: Option<DfsReader>,
    projection: Vec<usize>,
    predicates: Vec<ColumnPredicate>,
    stripe_idx: usize,
}

impl BatchIter<'_> {
    fn load(&mut self, stripe: &StripeMeta) -> Result<ColumnBatch> {
        let rows = usize::try_from(stripe.rows)
            .map_err(|_| Error::corrupt("stripe row count exceeds the address space"))?;
        let mut columns = Vec::with_capacity(self.projection.len());
        for &col in &self.projection {
            let file = match &mut self.file {
                Some(f) => f,
                None => self.file.insert(self.reader.dfs.open(&self.reader.path)?),
            };
            let (off, len) = stripe.streams[col];
            let mut buf = vec![0u8; len as usize];
            file.read_at(stripe.offset + off, &mut buf)?;
            let raw = decompress_block(&buf)?;
            columns.push(decode_column(
                self.reader.schema.field(col).data_type,
                &raw,
                rows,
            )?);
        }
        Ok(ColumnBatch::new(stripe.row_start, rows, columns))
    }
}

impl Iterator for BatchIter<'_> {
    type Item = Result<ColumnBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        let reader = self.reader;
        loop {
            let stripe = reader.stripes.get(self.stripe_idx)?;
            self.stripe_idx += 1;
            if conjunction_may_match(&self.predicates, &stripe.stats) {
                return Some(self.load(stripe));
            }
        }
    }
}

/// Streaming row iterator over an ORC file (see [`OrcReader::rows`]).
pub struct RowIter<'a> {
    batches: BatchIter<'a>,
    batch: Option<ColumnBatch>,
    next: usize,
}

impl Iterator for RowIter<'_> {
    type Item = Result<(u64, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(batch) = self.batch.as_ref().filter(|b| self.next < b.rows()) {
                let i = self.next;
                self.next += 1;
                return Some(Ok((batch.row_start() + i as u64, batch.row(i))));
            }
            match self.batches.next()? {
                Ok(batch) => {
                    self.batch = Some(batch);
                    self.next = 0;
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PredicateOp;
    use crate::writer::{OrcWriter, WriterOptions};
    use crate::{Codec, FILE_ID_METADATA_KEY};
    use dt_common::{DataType, Value};
    use dt_dfs::DfsConfig;

    fn sample_schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("name", DataType::Utf8),
            ("score", DataType::Float64),
            ("flag", DataType::Bool),
            ("day", DataType::Date),
        ])
    }

    fn sample_row(i: i64) -> Row {
        vec![
            Value::Int64(i),
            Value::Utf8(format!("name-{}", i % 5)),
            Value::Float64(i as f64 / 2.0),
            Value::Bool(i % 2 == 0),
            Value::Date((18_000 + i) as i32),
        ]
    }

    fn write_sample(dfs: &Dfs, path: &str, n: i64, stripe_rows: usize) {
        let mut w = OrcWriter::create(
            dfs,
            path,
            sample_schema(),
            WriterOptions {
                stripe_rows,
                codec: Codec::Lz,
            },
        )
        .unwrap();
        w.set_metadata(FILE_ID_METADATA_KEY, 7u32.to_be_bytes().to_vec());
        for i in 0..n {
            w.write_row(sample_row(i)).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn write_read_roundtrip_multi_stripe() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_sample(&dfs, "/t/f", 100, 16);
        let r = OrcReader::open(&dfs, "/t/f").unwrap();
        assert_eq!(r.num_rows(), 100);
        assert_eq!(r.stripe_count(), 7);
        let rows = r.read_all().unwrap();
        assert_eq!(rows.len(), 100);
        for (i, (rownum, row)) in rows.iter().enumerate() {
            assert_eq!(*rownum, i as u64);
            assert_eq!(*row, sample_row(i as i64));
        }
    }

    #[test]
    fn projection_reads_requested_columns_in_order() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_sample(&dfs, "/t/f", 10, 4);
        let r = OrcReader::open(&dfs, "/t/f").unwrap();
        let rows: Vec<_> = r
            .rows(Some(&[2, 0]), None)
            .unwrap()
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(rows[3].1, vec![Value::Float64(1.5), Value::Int64(3)]);
        assert!(r.rows(Some(&[9]), None).is_err());
    }

    #[test]
    fn projection_reads_fewer_bytes() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_sample(&dfs, "/t/f", 2000, 512);
        let r = OrcReader::open(&dfs, "/t/f").unwrap();
        dfs.stats().reset();
        let _ = r.rows(Some(&[0]), None).unwrap().count();
        let narrow = dfs.stats().snapshot().bytes_read;
        dfs.stats().reset();
        let _ = r.rows(None, None).unwrap().count();
        let wide = dfs.stats().snapshot().bytes_read;
        assert!(
            narrow * 2 < wide,
            "column pruning should cut I/O: narrow={narrow} wide={wide}"
        );
    }

    #[test]
    fn predicate_pushdown_skips_stripes() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_sample(&dfs, "/t/f", 100, 10); // ids 0..99, 10 stripes
        let r = OrcReader::open(&dfs, "/t/f").unwrap();
        let preds = vec![ColumnPredicate::new(0, PredicateOp::Ge, Value::Int64(95))];
        assert_eq!(r.matching_stripes(&preds), 1);
        let rows: Vec<_> = r
            .rows(None, Some(&preds))
            .unwrap()
            .map(|x| x.unwrap())
            .collect();
        // The surviving stripe holds rows 90..99 with correct absolute
        // row numbers.
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].0, 90);
        assert_eq!(rows[9].0, 99);
    }

    #[test]
    fn metadata_roundtrip() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_sample(&dfs, "/t/f", 5, 100);
        let r = OrcReader::open(&dfs, "/t/f").unwrap();
        assert_eq!(
            r.metadata(FILE_ID_METADATA_KEY).unwrap(),
            7u32.to_be_bytes()
        );
        assert!(r.metadata("missing").is_none());
    }

    #[test]
    fn file_stats_cover_all_rows() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_sample(&dfs, "/t/f", 50, 7);
        let r = OrcReader::open(&dfs, "/t/f").unwrap();
        let stats = &r.file_stats()[0];
        assert_eq!(stats.count, 50);
        assert_eq!(stats.min, Some(Value::Int64(0)));
        assert_eq!(stats.max, Some(Value::Int64(49)));
    }

    #[test]
    fn non_orc_file_rejected() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        dfs.write_file("/junk", b"this is not an orc file at all")
            .unwrap();
        assert!(OrcReader::open(&dfs, "/junk").is_err());
        dfs.write_file("/tiny", b"x").unwrap();
        assert!(OrcReader::open(&dfs, "/tiny").is_err());
    }

    #[test]
    fn empty_file_roundtrip() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let w = OrcWriter::create(&dfs, "/e", sample_schema(), WriterOptions::default()).unwrap();
        w.finish().unwrap();
        let r = OrcReader::open(&dfs, "/e").unwrap();
        assert_eq!(r.num_rows(), 0);
        assert_eq!(r.read_all().unwrap().len(), 0);
    }

    #[test]
    fn schema_mismatch_row_rejected() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let mut w =
            OrcWriter::create(&dfs, "/t", sample_schema(), WriterOptions::default()).unwrap();
        assert!(w.write_row(vec![Value::Int64(1)]).is_err());
        assert!(w
            .write_row(vec![
                Value::from("wrong"),
                Value::from("x"),
                Value::Float64(0.0),
                Value::Bool(true),
                Value::Date(1),
            ])
            .is_err());
    }
}
