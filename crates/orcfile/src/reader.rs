//! The ORC file reader: footer parsing, projection, predicate push-down and
//! row-number tracking.

use std::collections::BTreeMap;
use std::ops::Range;

use dt_common::codec::{get_bytes, get_uvarint};
use dt_common::{Error, Result, Row, Schema};
use dt_dfs::{Dfs, DfsReader};

use crate::batch::ColumnBatch;
use crate::predicate::{conjunction_may_match, ColumnPredicate};
use crate::schema_io::decode_schema;
use crate::stats::ColumnStats;
use crate::stripe::decode_stream;
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

    /// The rows from the first stripe the predicates cannot rule out to
    /// the end of the last one, or `None` when they rule out every stripe:
    /// the span [`OrcReader::batches`] under the same predicates reads.
    pub fn surviving_rows(&self, predicates: Option<&[ColumnPredicate]>) -> Option<Range<u64>> {
        let predicates = predicates.unwrap_or(&[]);
        let mut survivors = self
            .stripes
            .iter()
            .filter(|s| conjunction_may_match(predicates, &s.stats));
        let first = survivors.next()?;
        let last = survivors.next_back().unwrap_or(first);
        Some(first.row_start..last.row_start + last.rows)
    }

    fn stripe(&self, stripe: usize) -> Result<&StripeMeta> {
        self.stripes
            .get(stripe)
            .ok_or_else(|| Error::invalid(format!("'{}' has no stripe {stripe}", self.path)))
    }

    /// The stored per-column statistics of stripe `stripe`.
    pub fn stripe_stats(&self, stripe: usize) -> Result<&[ColumnStats]> {
        Ok(&self.stripe(stripe)?.stats)
    }

    /// The streams of `columns` in stripe `stripe` exactly as
    /// stored — compressed, never decoded; [`crate::OrcWriter::carry_stripe`]
    /// copies them into another file. Neighbouring streams are fetched in
    /// one read.
    pub fn raw_streams(&self, stripe: usize, columns: &[usize]) -> Result<Vec<Vec<u8>>> {
        let stripe = self.stripe(stripe)?;
        if columns.iter().any(|&c| c >= self.schema.len()) {
            return Err(Error::schema("raw stream of a column the file lacks"));
        }
        let mut out = Vec::with_capacity(columns.len());
        let mut file = None;
        let mut rest = columns;
        while let Some(&first) = rest.first() {
            let run = rest.windows(2).take_while(|w| w[1] == w[0] + 1).count() + 1;
            let (start, _) = stripe.streams[first];
            let len = rest[..run]
                .iter()
                .try_fold(0u64, |len, &c| len.checked_add(stripe.streams[c].1))
                .filter(|len| *len <= self.file_len)
                .ok_or_else(|| Error::corrupt("stream longer than its file"))?;
            let mut buf = vec![0u8; len as usize];
            let file = match &mut file {
                Some(f) => f,
                None => file.insert(self.dfs.open(&self.path)?),
            };
            file.read_at(stripe.offset + start, &mut buf)?;
            let mut buf = buf.as_slice();
            for &c in &rest[..run] {
                let (stream, tail) = buf.split_at(stripe.streams[c].1 as usize);
                out.push(stream.to_vec());
                buf = tail;
            }
            rest = &rest[run..];
        }
        Ok(out)
    }

    /// Widens `batch` — columns `projection` of stripe `stripe`, patched
    /// and narrowed as the caller left them — to every column of the file,
    /// in schema order: the missing ones are decoded as stored.
    pub fn widen(
        &self,
        stripe: usize,
        projection: &[usize],
        batch: ColumnBatch,
    ) -> Result<ColumnBatch> {
        let rest: Vec<usize> = (0..self.schema.len())
            .filter(|c| !projection.contains(c))
            .collect();
        let stored = self.decode_stripe(&mut None, self.stripe(stripe)?, &rest)?;
        if projection.len() + rest.len() != self.schema.len()
            || batch.columns().len() != projection.len()
            || stored.rows() != batch.rows()
        {
            return Err(Error::invalid("batch is not a projection of the stripe"));
        }
        Ok(batch.widened(projection.iter().chain(&rest), stored))
    }

    /// The reader's one decode path. `file` is opened at the first stream
    /// read: decoding no column never touches the file.
    fn decode_stripe(
        &self,
        file: &mut Option<DfsReader>,
        stripe: &StripeMeta,
        projection: &[usize],
    ) -> Result<ColumnBatch> {
        let rows = usize::try_from(stripe.rows)
            .map_err(|_| Error::corrupt("stripe row count exceeds the address space"))?;
        let mut columns = Vec::with_capacity(projection.len());
        for &col in projection {
            let file = match file {
                Some(f) => f,
                None => file.insert(self.dfs.open(&self.path)?),
            };
            let (off, len) = stripe.streams[col];
            let mut buf = vec![0u8; len as usize];
            file.read_at(stripe.offset + off, &mut buf)?;
            columns.push(decode_stream(self.schema.field(col).data_type, &buf, rows)?);
        }
        Ok(ColumnBatch::new(stripe.row_start, rows, columns))
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
    file: Option<DfsReader>,
    projection: Vec<usize>,
    predicates: Vec<ColumnPredicate>,
    stripe_idx: usize,
}

impl Iterator for BatchIter<'_> {
    type Item = Result<ColumnBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        let reader = self.reader;
        loop {
            let stripe = reader.stripes.get(self.stripe_idx)?;
            self.stripe_idx += 1;
            if conjunction_may_match(&self.predicates, &stripe.stats) {
                return Some(reader.decode_stripe(&mut self.file, stripe, &self.projection));
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
        let opened = dfs.stats().snapshot().bytes_read;
        let _ = r.rows(Some(&[0]), None).unwrap().count();
        let narrow = dfs.stats().snapshot().bytes_read - opened;
        let _ = r.rows(None, None).unwrap().count();
        let wide = dfs.stats().snapshot().bytes_read - opened - narrow;
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
        assert_eq!(r.surviving_rows(Some(&preds)), Some(90..100));

        // The span runs from the first survivor to the end of the last.
        let ends = [
            ColumnPredicate::new(0, PredicateOp::Ge, Value::Int64(25)),
            ColumnPredicate::new(0, PredicateOp::Lt, Value::Int64(41)),
        ];
        assert_eq!(r.surviving_rows(Some(&ends)), Some(20..50));
        assert_eq!(r.surviving_rows(None), Some(0..100));
        let none = [ColumnPredicate::new(0, PredicateOp::Gt, Value::Int64(99))];
        assert_eq!(r.surviving_rows(Some(&none)), None);
    }

    fn stripe_stats(r: &OrcReader) -> Vec<Vec<ColumnStats>> {
        (0..r.stripe_count())
            .map(|s| r.stripe_stats(s).unwrap().to_vec())
            .collect()
    }

    /// A file written from typed columns under a selection vector equals
    /// the selected rows written one by one — rows, stripe boundaries and
    /// statistics — with short inputs coalescing into full stripes.
    #[test]
    fn selected_columns_equal_the_same_rows_written_one_by_one() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let mut rows: Vec<Row> = (0..100).map(sample_row).collect();
        rows[5][1] = Value::Null;
        rows[6] = vec![Value::Null; 5];
        let options = WriterOptions {
            stripe_rows: 16,
            codec: Codec::Lz,
        };
        let mut w = OrcWriter::create(&dfs, "/src", sample_schema(), options.clone()).unwrap();
        w.write_rows(rows.clone()).unwrap();
        w.finish().unwrap();
        let src = OrcReader::open(&dfs, "/src").unwrap();

        let keep = |i: usize| i % 3 != 1;
        let mut typed =
            OrcWriter::create(&dfs, "/typed", sample_schema(), options.clone()).unwrap();
        for batch in src.batches(None, None).unwrap() {
            let mut batch = batch.unwrap();
            let start = batch.row_start() as usize;
            batch.select(
                (0..batch.rows() as u32)
                    .filter(|i| keep(start + *i as usize))
                    .collect(),
            );
            typed.write_batch(&batch).unwrap();
        }
        typed.finish().unwrap();
        let mut by_row = OrcWriter::create(&dfs, "/rows", sample_schema(), options).unwrap();
        let kept = rows.iter().enumerate().filter(|(i, _)| keep(*i));
        by_row.write_rows(kept.map(|(_, row)| row.clone())).unwrap();
        by_row.finish().unwrap();

        assert_eq!(
            dfs.read_to_vec("/typed").unwrap(),
            dfs.read_to_vec("/rows").unwrap()
        );
        let typed = OrcReader::open(&dfs, "/typed").unwrap();
        assert_eq!(typed.num_rows(), 67);
        assert_eq!(typed.stripe_count(), 5);
        assert_eq!(typed.read_all().unwrap()[3].1[1], Value::Null);
    }

    /// A stripe written from k carried and n−k encoded columns reads back
    /// equal to the same rows written from scratch, with equal stripe and
    /// file statistics — here, byte for byte the same file. Widening the
    /// encoded columns back to full width gives the stripe as read.
    #[test]
    fn carried_and_encoded_columns_equal_a_from_scratch_write() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_sample(&dfs, "/src", 40, 16);
        let src = OrcReader::open(&dfs, "/src").unwrap();
        let options = WriterOptions {
            stripe_rows: 16,
            codec: Codec::Lz,
        };
        let mut w = OrcWriter::create(&dfs, "/mixed", sample_schema(), options).unwrap();
        w.set_metadata(FILE_ID_METADATA_KEY, 7u32.to_be_bytes().to_vec());
        let encoded = [2, 4];
        let full: Vec<_> = src.batches(None, None).unwrap().collect();
        for (stripe, batch) in src.batches(Some(&encoded), None).unwrap().enumerate() {
            let batch = batch.unwrap();
            let values: Vec<_> = encoded.into_iter().zip(batch.columns()).collect();
            w.carry_stripe(&src, stripe, &values).unwrap();
            let widened = src.widen(stripe, &encoded, batch).unwrap();
            assert_eq!(&widened, full[stripe].as_ref().unwrap());
        }
        assert_eq!(w.row_count(), 40);
        w.finish().unwrap();
        assert_eq!(
            dfs.read_to_vec("/mixed").unwrap(),
            dfs.read_to_vec("/src").unwrap()
        );
        let mixed = OrcReader::open(&dfs, "/mixed").unwrap();
        assert_eq!(mixed.read_all().unwrap(), src.read_all().unwrap());
        assert_eq!(stripe_stats(&mixed), stripe_stats(&src));
        assert_eq!(mixed.file_stats(), src.file_stats());

        // Values of another stripe's length, a stripe or column the file
        // lacks and a source of other column types are refused.
        let mut w =
            OrcWriter::create(&dfs, "/bad", sample_schema(), WriterOptions::default()).unwrap();
        let short = src
            .batches(Some(&[0]), None)
            .unwrap()
            .nth(2)
            .unwrap()
            .unwrap();
        assert!(w
            .carry_stripe(&src, 0, &[(0, &short.columns()[0])])
            .is_err());
        assert!(w.carry_stripe(&src, 9, &[]).is_err());
        assert!(src.raw_streams(0, &[5]).is_err());
        assert!(src.widen(0, &[0, 0], short.clone()).is_err());
        let narrow = Schema::from_pairs(&[("id", DataType::Int64)]);
        let mut w = OrcWriter::create(&dfs, "/narrow", narrow, WriterOptions::default()).unwrap();
        assert!(w.carry_stripe(&src, 0, &[]).is_err());
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
        // A file of the previous format version is refused, not misread.
        write_sample(&dfs, "/v2", 5, 100);
        let mut old = dfs.read_to_vec("/v2").unwrap();
        *old.last_mut().unwrap() = 1;
        dfs.write_file("/v1", &old).unwrap();
        assert!(matches!(
            OrcReader::open(&dfs, "/v1"),
            Err(dt_common::Error::Corrupt(_))
        ));
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
