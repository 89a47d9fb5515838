//! The catalog: table name → storage handler.
//!
//! Every handle exposes the same scan/insert/update/delete surface (Hive's
//! InputFormat/OutputFormat/SerDe, §V-A): the comparators through the one
//! [`StorageHandler`] trait, DualTable through its own arms, which carry
//! the cost model, transactions and shard routing.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use dt_baselines::StorageHandler;
use dt_common::{Deadline, Error, Result, Row, Schema};
use dt_orcfile::{ColumnBatch, ColumnPredicate};
use dualtable::{
    Assignment, DmlReport, DualTableStore, RatioHint, RowSelector, ShardedDmlReport, ShardedTable,
    Transaction, UnionReadOptions,
};
use parking_lot::RwLock;

use crate::ast::StorageKind;

/// A table's storage handler.
#[derive(Clone)]
pub enum TableHandle {
    /// A comparator — stock Hive on ORC, the HBase handler or Hive-ACID —
    /// behind the one storage-handler trait.
    Baseline(StorageKind, Arc<dyn StorageHandler>),
    /// The paper's hybrid model.
    Dual(DualTableStore),
    /// A range-sharded dualtable (DESIGN.md §16): N independent
    /// master/attached pairs behind a routing layer.
    Sharded(ShardedTable),
}

/// Outcome of a DML statement, storage-agnostic.
#[derive(Debug, Clone)]
pub struct DmlOutcome {
    /// Rows matched by the predicate.
    pub rows_matched: u64,
    /// Rows scanned.
    pub rows_scanned: u64,
    /// DualTable's plan report, when the handler has a cost model.
    pub report: Option<DmlReport>,
    /// Per-shard plan reports, when the handler is range-sharded (each
    /// shard runs its own cost model).
    pub sharded: Option<ShardedDmlReport>,
}

impl DmlOutcome {
    /// A baseline's full rewrite: `(matched, scanned)`, no plan.
    fn rewrite((rows_matched, rows_scanned): (u64, u64)) -> Self {
        DmlOutcome {
            rows_matched,
            rows_scanned,
            report: None,
            sharded: None,
        }
    }

    fn planned(report: DmlReport) -> Self {
        DmlOutcome {
            rows_matched: report.rows_matched,
            rows_scanned: report.rows_scanned,
            report: Some(report),
            sharded: None,
        }
    }

    fn sharded(report: ShardedDmlReport) -> Self {
        DmlOutcome {
            rows_matched: report.rows_matched,
            rows_scanned: report.rows_scanned,
            report: None,
            sharded: Some(report),
        }
    }
}

impl TableHandle {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        match self {
            TableHandle::Baseline(_, t) => t.schema(),
            TableHandle::Dual(t) => t.schema(),
            TableHandle::Sharded(t) => t.schema(),
        }
    }

    /// Which storage this handler uses.
    pub fn storage_kind(&self) -> StorageKind {
        match self {
            TableHandle::Baseline(kind, _) => *kind,
            TableHandle::Dual(_) | TableHandle::Sharded(_) => StorageKind::DualTable,
        }
    }

    /// [`TableHandle::for_each_batch`] unpacked into rows, for what needs
    /// them whole (joins, MERGE).
    pub fn scan_deadline(
        &self,
        txn: Option<&Transaction>,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
        deadline: &Deadline,
    ) -> Result<Vec<Row>> {
        deadline.check()?;
        let mut out = Vec::new();
        self.for_each_batch(txn, projection, predicates, deadline, &mut |batch| {
            out.extend(batch.selected_rows());
            Ok(())
        })?;
        Ok(out)
    }

    /// The one scan interface, every storage: merged column batches,
    /// `projection` decoded and nothing else, `predicates` skipping stripes
    /// where the storage keeps statistics, and the deadline checked before
    /// every batch — a timed-out scan aborts with
    /// [`Error::Timeout`](dt_common::Error::Timeout) and leaves the table
    /// and the session fully usable. A sharded table prunes whole shards by
    /// `predicates` before any I/O and reads the survivors one after
    /// another, in range order, on the calling thread. With `txn` — this
    /// table's open transaction — the scan is the transaction's: at its
    /// pin, under its buffered writes, shard after shard.
    pub fn for_each_batch(
        &self,
        txn: Option<&Transaction>,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
        deadline: &Deadline,
        f: &mut dyn FnMut(&ColumnBatch) -> Result<()>,
    ) -> Result<()> {
        let batch = |batch| Ok(batch);
        self.scan_mapped(
            txn,
            projection,
            predicates,
            deadline,
            &batch,
            &mut |batch| f(&batch),
        )
    }

    /// [`TableHandle::for_each_batch`] split in two: `map` turns each batch
    /// into a `T` and `consume` takes the `T`s on the calling thread, in
    /// scan order. A DUALTABLE is read through one path, a pinned
    /// [`Transaction`]: `txn`, or for an autocommit statement a read-only
    /// one pinned on the stores the read reaches
    /// ([`ShardedTable::begin_read`]). Unsharded, it runs `map` on the
    /// workers of a read that fans out
    /// ([`DualTableStore::for_each_mapped`]); every other storage maps on
    /// the calling thread, batch by batch.
    pub fn scan_mapped<T: Send>(
        &self,
        txn: Option<&Transaction>,
        projection: Option<&[usize]>,
        predicates: Option<&[ColumnPredicate]>,
        deadline: &Deadline,
        map: &(dyn Fn(ColumnBatch) -> Result<T> + Sync),
        consume: &mut dyn FnMut(T) -> Result<()>,
    ) -> Result<()> {
        let checked = |batch| {
            deadline.check()?;
            map(batch)
        };
        let mut opts = UnionReadOptions::all();
        opts.projection = projection.map(<[usize]>::to_vec);
        opts.predicates = predicates.map(<[ColumnPredicate]>::to_vec);
        // An autocommit read is a read-only transaction of its own, pinned
        // on the table or on the shards `predicates` leave.
        let mut own = None;
        let read = match (txn, self) {
            (Some(txn), _) => txn,
            (None, TableHandle::Dual(t)) => &*own.insert(t.begin_transaction()?),
            (None, TableHandle::Sharded(t)) => &*own.insert(t.begin_read(predicates)?),
            (None, TableHandle::Baseline(_, t)) => {
                let mut each = |batch| consume(checked(batch)?);
                return t.for_each_batch(projection, predicates, &mut each);
            }
        };
        let merged = |_, batch| checked(batch);
        let mut consumed = |out| consume(out).map(ControlFlow::Continue);
        read.for_each_mapped(&opts, &merged, &mut consumed)
    }

    /// Appends rows.
    pub fn insert(&self, rows: Vec<Row>) -> Result<u64> {
        for row in &rows {
            self.schema().check_row(row)?;
        }
        match self {
            TableHandle::Baseline(_, t) => t.insert_rows(rows),
            TableHandle::Dual(t) => t.insert_rows(rows),
            TableHandle::Sharded(t) => t.insert_rows(rows),
        }
    }

    /// Replaces the content.
    pub fn insert_overwrite(&self, rows: Vec<Row>) -> Result<u64> {
        for row in &rows {
            self.schema().check_row(row)?;
        }
        match self {
            TableHandle::Baseline(_, t) => t.insert_overwrite(rows),
            TableHandle::Dual(t) => t.insert_overwrite(rows),
            TableHandle::Sharded(t) => t.insert_overwrite(rows),
        }
    }

    /// Executes an UPDATE (`assignments` given) or a DELETE of the rows
    /// `selector` picks. `scan` says what the statement reads — the
    /// columns the WHERE clause and `assignments` look at and the WHERE
    /// clause's column-vs-literal conjuncts — so that DUALTABLE storage can
    /// project its locate-scan, skip stripes and prune shards; the
    /// baselines rewrite everything, row by row, and ignore it.
    pub fn dml(
        &self,
        selector: &(dyn RowSelector + Sync),
        assignments: Option<&[Assignment<'_>]>,
        ratio: RatioHint,
        statement_key: Option<&str>,
        scan: &UnionReadOptions,
    ) -> Result<DmlOutcome> {
        let key = statement_key;
        match self {
            TableHandle::Baseline(_, t) => {
                let predicate = |row: &Row| selector.matches(row);
                match assignments {
                    Some(set) => t.update(&predicate, set),
                    None => t.delete(&predicate),
                }
                .map(DmlOutcome::rewrite)
            }
            TableHandle::Dual(t) => t
                .dml(selector, assignments, ratio, key, scan)
                .map(DmlOutcome::planned),
            TableHandle::Sharded(t) => t
                .dml(selector, assignments, ratio, key, Some(scan))
                .map(DmlOutcome::sharded),
        }
    }

    /// Compacts the table (DualTable COMPACT; ACID major compaction).
    pub fn compact(&self) -> Result<()> {
        match self {
            TableHandle::Baseline(_, t) => t.compact(),
            TableHandle::Dual(t) => t.compact(),
            TableHandle::Sharded(t) => t.compact(),
        }
    }

    /// One incremental fold cycle (DESIGN.md §15): fold only the
    /// highest-scoring dirty master files, without blocking DML. Only
    /// DUALTABLE storage has a presence index to score.
    pub fn compact_incremental(&self) -> Result<dualtable::FoldOutcome> {
        match self {
            TableHandle::Baseline(..) => Err(Error::Unsupported(
                "COMPACT … INCREMENTAL is only meaningful for DUALTABLE tables".into(),
            )),
            TableHandle::Dual(t) => t.compact_incremental(),
            // Sharded tables walk their shards round-robin: each call
            // probes from the cursor and folds the first dirty shard, so
            // the server's per-table maintenance pass is automatically
            // fair across shards.
            TableHandle::Sharded(t) => t.compact_incremental(),
        }
    }

    /// Drops the storage.
    pub fn drop_storage(self) -> Result<()> {
        match self {
            TableHandle::Baseline(_, t) => t.drop_table(),
            TableHandle::Dual(t) => t.drop_table(),
            TableHandle::Sharded(t) => t.drop_table(),
        }
    }
}

/// Name → handler registry.
#[derive(Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableHandle>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table.
    pub fn register(&mut self, name: &str, handle: TableHandle) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(Error::AlreadyExists(format!("table '{name}'")));
        }
        self.tables.insert(name.to_string(), handle);
        Ok(())
    }

    /// Looks a table up.
    pub fn get(&self, name: &str) -> Result<&TableHandle> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::not_found(format!("table '{name}'")))
    }

    /// `true` iff the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Unregisters and returns a table.
    pub fn remove(&mut self, name: &str) -> Result<TableHandle> {
        self.tables
            .remove(name)
            .ok_or_else(|| Error::not_found(format!("table '{name}'")))
    }

    /// Sorted table names.
    pub fn names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }
}

/// A [`Catalog`] shareable across sessions: the name registry the
/// `dualtabled` server hands every connection, so a table created on one
/// connection is queryable from all the others.
///
/// Handles come back **owned** (each variant is a cheap `Arc`-backed
/// clone), so no lock is held during a scan or a DML statement — only
/// during the name lookup itself. The lock is the poison-recovering
/// `parking_lot` shim: a panicking session can never wedge the catalog
/// for its neighbors.
#[derive(Clone, Default)]
pub struct SharedCatalog {
    inner: Arc<RwLock<Catalog>>,
}

impl SharedCatalog {
    /// Empty shared catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table.
    pub fn register(&self, name: &str, handle: TableHandle) -> Result<()> {
        self.inner.write().register(name, handle)
    }

    /// Looks a table up, returning an owned handle clone.
    pub fn get(&self, name: &str) -> Result<TableHandle> {
        self.inner.read().get(name).cloned()
    }

    /// `true` iff the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().contains(name)
    }

    /// Unregisters and returns a table.
    pub fn remove(&self, name: &str) -> Result<TableHandle> {
        self.inner.write().remove(name)
    }

    /// Sorted table names.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().names()
    }
}
