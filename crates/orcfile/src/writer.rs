//! The ORC file writer: typed columns in, one stripe out.
//!
//! A stripe is assembled in exactly one place ([`OrcWriter::put_stripe`])
//! from one [`StripeColumn`] per schema field — values for the one encoder
//! ([`crate::stripe`]), or a stream another file already stores, copied as
//! bytes with its statistics. Everything else is an adapter: rows
//! ([`OrcWriter::write_row`]) and batches ([`OrcWriter::write_batch`]) are
//! gathered into the typed columns of the *open stripe*, which is written
//! when it reaches `stripe_rows`; [`OrcWriter::carry_stripe`] writes a
//! source stripe on, re-encoding only the columns it is handed.

use std::collections::BTreeMap;

use dt_common::codec::{put_bytes, put_uvarint};
use dt_common::{Error, Result, Row, Schema};
use dt_dfs::{Dfs, DfsWriter};

use crate::batch::{Column, ColumnBatch};
use crate::compress::{compress_block, Codec};
use crate::reader::OrcReader;
use crate::schema_io::encode_schema;
use crate::stats::ColumnStats;
use crate::stripe::encode_column;

/// The last byte is the format version: a file of another version is
/// refused as corrupt, never misread.
pub(crate) const MAGIC: &[u8; 8] = b"DTORC\0\0\x02";

/// Writer tuning knobs.
#[derive(Debug, Clone)]
pub struct WriterOptions {
    /// Rows per stripe (ORC's default stripe is sized in bytes; rows keep
    /// record-ID arithmetic simple and tests deterministic).
    pub stripe_rows: usize,
    /// Stream compression codec.
    pub codec: Codec,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            stripe_rows: 64 * 1024,
            codec: Codec::Lz,
        }
    }
}

/// Metadata of one written stripe, recorded in the footer.
pub(crate) struct StripeInfo {
    /// Absolute file offset of the stripe's first byte.
    pub offset: u64,
    /// Number of rows in the stripe.
    pub rows: u64,
    /// Per column: `(offset within stripe, compressed length)`.
    pub streams: Vec<(u64, u64)>,
    /// Per column statistics.
    pub stats: Vec<ColumnStats>,
}

/// Where one column of an output stripe comes from.
enum StripeColumn<'a> {
    /// These values, one per row of the stripe, through the encoder.
    Values(&'a Column),
    /// A stream a file already stores for a column of this type, copied
    /// without being decompressed (block compression is self-describing),
    /// and the statistics stored with it.
    Stored(Vec<u8>, ColumnStats),
}

/// Streaming writer producing one ORC file on the DFS.
pub struct OrcWriter {
    out: DfsWriter,
    schema: Schema,
    options: WriterOptions,
    /// The open stripe: the rows not yet written, one typed column per
    /// schema field.
    open: Vec<Column>,
    open_rows: usize,
    stripes: Vec<StripeInfo>,
    file_stats: Vec<ColumnStats>,
    metadata: BTreeMap<String, Vec<u8>>,
    total_rows: u64,
}

impl OrcWriter {
    /// Creates a new file at `path`.
    pub fn create(dfs: &Dfs, path: &str, schema: Schema, options: WriterOptions) -> Result<Self> {
        if schema.is_empty() {
            return Err(Error::schema("ORC schema must have at least one column"));
        }
        if options.stripe_rows == 0 {
            return Err(Error::invalid("stripe_rows must be positive"));
        }
        let out = dfs.create(path)?;
        let file_stats = schema.fields().iter().map(|_| ColumnStats::new()).collect();
        let open = schema.fields().iter().map(|f| Column::empty(f.data_type));
        Ok(OrcWriter {
            out,
            open: open.collect(),
            open_rows: 0,
            schema,
            options,
            stripes: Vec::new(),
            file_stats,
            metadata: BTreeMap::new(),
            total_rows: 0,
        })
    }

    /// Attaches a user-metadata entry (e.g. the DualTable file ID).
    pub fn set_metadata(&mut self, key: &str, value: impl Into<Vec<u8>>) {
        self.metadata.insert(key.to_string(), value.into());
    }

    /// Appends one row; must match the schema.
    pub fn write_row(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        for (column, value) in self.open.iter_mut().zip(&row) {
            column.push(value)?;
        }
        self.opened(1)
    }

    /// Appends many rows.
    pub fn write_rows<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        for row in rows {
            self.write_row(row)?;
        }
        Ok(())
    }

    /// Appends the surviving rows of `batch`, which holds every column of
    /// the schema in order. Like rows, they join the open stripe, so short
    /// or narrowed batches coalesce into full stripes.
    pub fn write_batch(&mut self, batch: &ColumnBatch) -> Result<()> {
        let columns = batch.columns();
        if columns.len() != self.schema.len() {
            return Err(Error::schema("batch does not hold the schema's columns"));
        }
        let selection = batch.selection();
        if selection.is_none() && self.open_rows == 0 && batch.rows() == self.options.stripe_rows {
            // A whole stripe, and nothing to coalesce it with.
            self.total_rows += batch.rows() as u64;
            return self.put_stripe(columns.iter().map(StripeColumn::Values).collect());
        }
        let total = batch.selected_len();
        let mut done = 0;
        while done < total {
            let take = (self.options.stripe_rows - self.open_rows).min(total - done);
            for (open, src) in self.open.iter_mut().zip(columns) {
                match selection {
                    Some(s) => open.extend(src, s[done..done + take].iter().map(|&i| i as usize)),
                    None => open.extend(src, done..done + take),
                }?;
            }
            self.opened(take)?;
            done += take;
        }
        Ok(())
    }

    /// Writes stripe `stripe` of `source` on as one stripe of its own
    /// (after the open stripe): the columns `values` names by ordinal are
    /// encoded from the vectors given, every other column is *carried* —
    /// its stored stream and statistics copied, never decoded. `source`
    /// must have this file's column types.
    pub fn carry_stripe(
        &mut self,
        source: &OrcReader,
        stripe: usize,
        values: &[(usize, &Column)],
    ) -> Result<()> {
        let types = |s: &Schema| -> Vec<_> { s.fields().iter().map(|f| f.data_type).collect() };
        if types(source.schema()) != types(&self.schema) {
            return Err(Error::schema("carried stripe has other column types"));
        }
        let stats = source.stripe_stats(stripe)?;
        let rows = stats[0].count;
        if values
            .iter()
            .any(|(c, column)| *c >= stats.len() || column.len() as u64 != rows)
        {
            return Err(Error::schema("values do not fit the carried stripe"));
        }
        self.flush_stripe()?;
        let given = |c: &usize| values.iter().find(|(ordinal, _)| ordinal == c);
        let carried: Vec<usize> = (0..stats.len()).filter(|c| given(c).is_none()).collect();
        let mut streams = source.raw_streams(stripe, &carried)?.into_iter();
        let columns = (0..stats.len()).map(|c| match given(&c) {
            Some((_, column)) => StripeColumn::Values(column),
            None => StripeColumn::Stored(
                streams.next().expect("one stream per carried column"),
                stats[c].clone(),
            ),
        });
        self.total_rows += rows;
        self.put_stripe(columns.collect())
    }

    /// Rows written so far.
    pub fn row_count(&self) -> u64 {
        self.total_rows
    }

    /// Counts `rows` just appended to the open stripe and writes it once
    /// it is full.
    fn opened(&mut self, rows: usize) -> Result<()> {
        self.open_rows += rows;
        self.total_rows += rows as u64;
        if self.open_rows >= self.options.stripe_rows {
            self.flush_stripe()?;
        }
        Ok(())
    }

    /// Writes the open stripe, if it holds any row.
    fn flush_stripe(&mut self) -> Result<()> {
        if self.open_rows == 0 {
            return Ok(());
        }
        let mut open = std::mem::take(&mut self.open);
        let written = self.put_stripe(open.iter().map(StripeColumn::Values).collect());
        open.iter_mut().for_each(Column::clear);
        self.open = open;
        self.open_rows = 0;
        written
    }

    /// The one place a stripe is assembled: each column's stream — encoded
    /// and compressed here, or stored and copied — goes to the file and
    /// into the stripe directory with its statistics.
    fn put_stripe(&mut self, columns: Vec<StripeColumn<'_>>) -> Result<()> {
        let offset = self.out.position();
        let mut streams = Vec::with_capacity(columns.len());
        let mut stats = Vec::with_capacity(columns.len());
        let mut within = 0u64;
        for (field, column) in self.schema.fields().iter().zip(columns) {
            let (stream, column_stats) = match column {
                StripeColumn::Values(values) => {
                    let (raw, stats) = encode_column(field.data_type, values)?;
                    (compress_block(self.options.codec, &raw), stats)
                }
                StripeColumn::Stored(stream, stats) => (stream, stats),
            };
            self.out.write_all(&stream)?;
            streams.push((within, stream.len() as u64));
            within += stream.len() as u64;
            stats.push(column_stats);
        }
        for (file_col, stripe_col) in self.file_stats.iter_mut().zip(&stats) {
            file_col.merge(stripe_col);
        }
        self.stripes.push(StripeInfo {
            offset,
            rows: stats.first().map_or(0, |s| s.count),
            streams,
            stats,
        });
        Ok(())
    }

    /// Flushes the final stripe, writes the footer and seals the file.
    pub fn finish(mut self) -> Result<()> {
        self.flush_stripe()?;
        let mut footer = Vec::new();
        encode_schema(&self.schema, &mut footer);
        put_uvarint(&mut footer, self.stripes.len() as u64);
        for stripe in &self.stripes {
            put_uvarint(&mut footer, stripe.offset);
            put_uvarint(&mut footer, stripe.rows);
            for (off, len) in &stripe.streams {
                put_uvarint(&mut footer, *off);
                put_uvarint(&mut footer, *len);
            }
            for s in &stripe.stats {
                s.encode(&mut footer);
            }
        }
        for s in &self.file_stats {
            s.encode(&mut footer);
        }
        put_uvarint(&mut footer, self.metadata.len() as u64);
        for (key, value) in &self.metadata {
            put_bytes(&mut footer, key.as_bytes());
            put_bytes(&mut footer, value);
        }
        self.out.write_all(&footer)?;
        // Postscript: footer length + magic, fixed 12 bytes.
        self.out.write_all(&(footer.len() as u32).to_le_bytes())?;
        self.out.write_all(MAGIC)?;
        self.out.close()
    }
}
