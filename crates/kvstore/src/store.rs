//! One table's storage engine: WAL + memtable + SSTables.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dt_common::{Error, ErrorClass, LogicalClock, Result, RetryPolicy};
use parking_lot::{Mutex, RwLock};

use crate::cell::{CellKey, Mutation, Version, WalEntry, ROW_TOMBSTONE_QUALIFIER};
use crate::compaction;
use crate::env::Env;
use crate::memtable::{visible_at, MemTable};
use crate::merge::MergeScanner;
use crate::shadow::ShadowTier;
use crate::sstable::{SsTable, SsTableBuilder};
use crate::wal::Wal;
use crate::KvCounters;

/// Tuning knobs for one store.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Flush the memtable to an SSTable once it holds this many bytes.
    pub memtable_flush_bytes: usize,
    /// Target data-block size inside SSTables.
    pub block_size: usize,
    /// Trigger a full compaction when this many SSTables accumulate.
    pub max_sstables: usize,
    /// Number of put versions retained per cell across compactions
    /// (HBase's `VERSIONS`; the paper leans on multi-versioning for change
    /// history).
    pub max_versions: usize,
    /// Whether flush/compaction happen automatically on write thresholds.
    pub auto_maintenance: bool,
    /// Retry policy for transient env-I/O failures (WAL appends, SSTable
    /// flush writes, SSTable reads). Applied by the cluster via a
    /// [`crate::env::RetryEnv`] wrapper (DESIGN.md §8).
    pub retry: RetryPolicy,
    /// Maximum caller batches one group commit coalesces into a single
    /// WAL append + fsync (DESIGN.md §12). `1` disables coalescing and
    /// reproduces the one-append-per-batch path byte for byte. There is
    /// no timer: the wait is bounded by the in-flight append ahead of the
    /// caller, so an uncontended put never pays added latency.
    pub group_commit_window_ops: usize,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            memtable_flush_bytes: 4 << 20,
            block_size: 16 << 10,
            max_sstables: 8,
            max_versions: 3,
            auto_maintenance: true,
            retry: RetryPolicy::default(),
            group_commit_window_ops: 8,
        }
    }
}

/// The resolved latest state of one row, as returned by scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowEntry {
    /// Row key.
    pub row: Vec<u8>,
    /// Live cells: `(qualifier, timestamp, value)`, qualifiers ascending.
    pub cells: Vec<(Vec<u8>, u64, Vec<u8>)>,
}

/// Boxed stream of `(key, version)` entries fed into a merge scan.
type EntryStream = Box<dyn Iterator<Item = Result<(CellKey, Version)>> + Send>;

struct State {
    memtable: MemTable,
    /// Entries drained from the memtable by an in-flight flush, kept
    /// visible to reads until the SSTable is published. Without this
    /// slot a concurrent scan in the drain→publish window would see the
    /// rows in neither place. Sorted by key (`drain_sorted` order);
    /// empty when no flush is in flight (flushes are serialized by the
    /// `maintenance` mutex, so one slot suffices).
    flushing: Arc<Vec<(CellKey, Vec<Version>)>>,
    sstables: Vec<Arc<SsTable>>,
    next_file_no: u64,
    /// Segment the next WAL append goes to. Flush bumps it (rotation) so
    /// it can later delete every segment at or below the old value.
    wal_segment: u64,
    /// The shadow (delta) tier: WAL-durable entries held out of the
    /// memtable and SSTables until spilled (DESIGN.md §17). Flush must
    /// carry these forward before truncating segments.
    shadow: ShadowTier,
}

/// A write before it is queued: the cell, the timestamp its caller
/// stamped it with (`None`: ticked when queued), the mutation, and whether
/// it lands in the shadow tier once the leader commits its WAL record.
struct WriteOp {
    key: CellKey,
    ts: Option<u64>,
    mutation: Mutation,
    shadow: bool,
}

/// One caller batch awaiting durable commit, parked in the group-commit
/// queue until a leader drains it (DESIGN.md §12).
struct PendingCommit {
    ops: Vec<WalEntry>,
    ticket: Arc<CommitTicket>,
}

/// Where a leader deposits the outcome of a parked batch. The waiting
/// caller rendezvouses on the state write lock (no condvar): by the time
/// it acquires the lock, any leader that drained its batch has already
/// set the outcome.
#[derive(Default)]
struct CommitTicket {
    outcome: Mutex<Option<Result<()>>>,
}

impl CommitTicket {
    fn take(&self) -> Option<Result<()>> {
        self.outcome.lock().take()
    }

    fn set(&self, outcome: Result<()>) {
        *self.outcome.lock() = Some(outcome);
    }
}

/// [`dt_common::Error`] is not `Clone`; when one coalesced append fails,
/// every parked caller gets a class-preserving copy (the leader keeps the
/// original for itself, so single-caller semantics are unchanged).
fn replicate_error(e: &Error) -> Error {
    match e.class() {
        ErrorClass::Transient => Error::unavailable(e.to_string()),
        ErrorClass::Corrupt => Error::corrupt(e.to_string()),
        ErrorClass::Permanent => Error::internal(e.to_string()),
    }
}

/// The refusal of a write in read-only degraded mode. Permanent: only a
/// reopen clears the mode, so a retry would fail the same way.
fn read_only() -> Error {
    Error::Io(std::io::Error::new(
        std::io::ErrorKind::ReadOnlyFilesystem,
        "store is in read-only degraded mode (write path failed permanently); \
         reopen the store to resume writes",
    ))
}

struct StoreInner {
    env: Arc<dyn Env>,
    config: KvConfig,
    clock: LogicalClock,
    stats: Arc<KvCounters>,
    state: RwLock<State>,
    // Batches parked for group commit. Timestamps are assigned under this
    // lock, so queue order == timestamp order == WAL record order.
    commit_queue: Mutex<VecDeque<PendingCommit>>,
    // Serializes flush/compaction against each other.
    maintenance: Mutex<()>,
    // Read-only degraded mode: set when a WAL append fails permanently
    // (write path down — the analogue of an HBase region server aborting
    // on a failed WAL sync). Reads keep serving; writes are refused until
    // the store is reopened (DESIGN.md §8).
    degraded: AtomicBool,
}

/// A single sorted table — the unit the paper calls "an HBase table".
///
/// Cheap to clone (shared handle). All operations are thread-safe; scans
/// never block writers (they snapshot the memtable and share immutable
/// SSTables).
#[derive(Clone)]
pub struct Store {
    inner: Arc<StoreInner>,
}

impl Store {
    /// Opens (or creates) a store over `env`, replaying any WAL left by a
    /// crash, counting into `stats` (a cluster passes one instance to all
    /// its tables). Opening a store clears any degraded flag: a reopen is
    /// the recovery action for a permanently failed write path.
    pub fn open(
        env: Arc<dyn Env>,
        config: KvConfig,
        clock: LogicalClock,
        stats: Arc<KvCounters>,
    ) -> Result<Self> {
        let mut memtable = MemTable::new();
        let mut max_ts = 0u64;
        let recovery = Wal::replay_with_report(env.as_ref())?;
        for (key, version) in recovery.entries {
            max_ts = max_ts.max(version.ts);
            memtable.insert(key, version);
        }
        let mut shadow = ShadowTier::new();
        if !recovery.shadow.is_empty() {
            for (_, version) in &recovery.shadow {
                max_ts = max_ts.max(version.ts);
            }
            shadow.insert_batch(recovery.shadow, config.max_versions);
        }
        let wal_segment = recovery.next_segment;
        let mut sstables = Vec::new();
        let mut next_file_no = 0u64;
        for name in env.list() {
            if let Some(num) = name.strip_prefix("sst_") {
                // Advance the counter even for unopenable files so their
                // names are never reused.
                if let Ok(n) = num.parse::<u64>() {
                    next_file_no = next_file_no.max(n + 1);
                }
                match SsTable::open(env.clone(), name.clone(), stats.clone()) {
                    Ok(table) => {
                        let table = Arc::new(table);
                        max_ts = max_ts.max(table.max_ts());
                        sstables.push(table);
                    }
                    Err(_) => {
                        // A torn or truncated table — a crash mid-flush or
                        // mid-compaction. Nothing committed is lost by
                        // setting it aside: flush resets the WAL only
                        // after its table is durable, and compaction
                        // deletes its inputs only after the output is
                        // live, so this file's contents are still covered
                        // by the WAL or by the surviving input tables.
                        Self::quarantine(env.as_ref(), &name);
                    }
                }
            }
        }
        // Older files first so identical timestamps resolve newest-source
        // first in merges (not that a monotone clock produces any).
        sstables.sort_by(|a, b| a.name().cmp(b.name()));
        clock.advance_past(max_ts);
        let store = Store {
            inner: Arc::new(StoreInner {
                env,
                config,
                clock,
                stats,
                state: RwLock::new(State {
                    memtable,
                    flushing: Arc::new(Vec::new()),
                    sstables,
                    next_file_no,
                    wal_segment,
                    shadow,
                }),
                commit_queue: Mutex::new(VecDeque::new()),
                maintenance: Mutex::new(()),
                degraded: AtomicBool::new(false),
            }),
        };
        if recovery.dropped_bytes > 0 {
            // The torn/corrupt tail stays in the log file, and appends
            // land *after* it — where no future replay would ever reach
            // them. Make the salvaged entries durable in an SSTable
            // (crash-atomic: the log is untouched until the table is
            // live), then reset the log. A log that salvaged nothing is
            // all garbage and is simply dropped.
            let (mem_empty, shadow_empty) = {
                let state = store.inner.state.read();
                (state.memtable.is_empty(), state.shadow.is_empty())
            };
            if mem_empty && shadow_empty {
                Wal::delete_all(store.inner.env.as_ref())?;
            } else if mem_empty {
                // Only shadow entries were salvaged: rewrite them into a
                // fresh segment, then drop the torn ones (flush would
                // no-op on an empty memtable and never truncate).
                store.rewrite_shadow_segments()?;
            } else {
                // Flush carries live shadow entries forward before it
                // truncates, so both tiers stay durable.
                store.flush()?;
            }
        }
        Ok(store)
    }

    /// Re-homes every live shadow entry into a fresh WAL segment and
    /// deletes the segments at or below the old head — the salvage path
    /// for a torn log whose only live entries are shadow-tier ones.
    fn rewrite_shadow_segments(&self) -> Result<()> {
        let boundary = {
            let mut state = self.inner.state.write();
            let boundary = state.wal_segment;
            state.wal_segment += 1;
            let carry: Vec<WalEntry> = state
                .shadow
                .snapshot()
                .into_iter()
                .map(|(k, v)| WalEntry::Shadow(k, v))
                .collect();
            let wal = Wal::new(
                self.inner.env.clone(),
                self.inner.stats.clone(),
                state.wal_segment,
            );
            wal.append_batches(&[&carry])?;
            boundary
        };
        Wal::truncate_through(self.inner.env.as_ref(), boundary)
    }

    /// Best-effort: preserves the bytes of an unopenable table under a
    /// `quarantine_` name for post-mortem, then removes the original so it
    /// is not scanned again.
    fn quarantine(env: &dyn Env, name: &str) {
        if let Ok(bytes) = env.read_file(name) {
            let _ = env.write_file(&format!("quarantine_{name}"), &bytes);
        }
        let _ = env.delete(name);
    }

    /// True once a permanent write-path failure has forced this store
    /// into read-only degraded mode (the HBase analogue: a region whose
    /// WAL is gone stops taking writes). Cleared by reopening the store.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    fn check_qualifier(qual: &[u8]) -> Result<()> {
        if qual == ROW_TOMBSTONE_QUALIFIER {
            return Err(Error::invalid("reserved qualifier"));
        }
        Ok(())
    }

    /// Writes one cell. Returns the assigned timestamp.
    pub fn put(&self, row: &[u8], qual: &[u8], value: &[u8]) -> Result<u64> {
        Self::check_qualifier(qual)?;
        self.apply(vec![(
            CellKey::new(row.to_vec(), qual.to_vec()),
            Mutation::Put(value.to_vec()),
        )])
    }

    /// Writes many cells atomically w.r.t. the WAL (one fsync'd record).
    /// Each cell still gets its own timestamp.
    pub fn put_batch(&self, cells: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>) -> Result<u64> {
        self.put_cells(cells, false)
    }

    /// Writes many cells into the **shadow (delta) tier**: durable via the
    /// same group-commit WAL record as regular puts, but held in the
    /// in-memory sorted-run tier instead of the memtable — no SSTable
    /// build is ever triggered by these writes. Visibility is identical
    /// to [`Store::put_batch`] (same clock, same snapshot rules); only
    /// the residence differs until [`Store::spill_shadow`] migrates them.
    pub fn put_shadow_batch(&self, cells: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>) -> Result<u64> {
        self.put_cells(cells, true)
    }

    fn put_cells(&self, cells: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>, shadow: bool) -> Result<u64> {
        let cells = cells.into_iter();
        self.write(
            cells.map(|(row, qual, value)| (CellKey::new(row, qual), None, Mutation::Put(value))),
            shadow,
        )
    }

    /// Writes `versions` in ONE fsync'd WAL record, each at the timestamp
    /// it carries — ticked by the caller from this store's clock, so one
    /// commit spanning several stores can be visible at one instant in all
    /// of them. After a crash either every version is visible or none is.
    /// Puts land in the shadow tier when `shadow` is set; tombstones always
    /// in the memtable. Writing a version again at its timestamp changes
    /// nothing a reader can see.
    pub fn write_versions(&self, versions: Vec<(CellKey, Version)>, shadow: bool) -> Result<()> {
        let versions = versions.into_iter();
        self.write(
            versions.map(|(key, v)| (key, Some(v.ts), v.mutation)),
            shadow,
        )
        .map(|_| ())
    }

    /// Commits user writes — `(cell, caller's timestamp, mutation)` —
    /// after checking their qualifiers.
    fn write(
        &self,
        writes: impl ExactSizeIterator<Item = (CellKey, Option<u64>, Mutation)>,
        shadow: bool,
    ) -> Result<u64> {
        // Sized up front: a batch grown by doubling leaves the allocator
        // holding freed blocks of every size on the way, and an EDIT-hot
        // writer's resident memory climbs with them.
        let mut ops = Vec::with_capacity(writes.len());
        for (key, ts, mutation) in writes {
            Self::check_qualifier(&key.qual)?;
            let shadow = shadow && !mutation.is_delete();
            ops.push(WriteOp {
                key,
                ts,
                mutation,
                shadow,
            });
        }
        self.commit_ops(ops)
    }

    /// Enters read-only degraded mode until the store is reopened — for a
    /// caller that could not apply a batch it has already promised.
    pub fn degrade(&self) {
        self.inner.degraded.store(true, Ordering::Release);
    }

    /// Migrates every shadow-tier entry into the memtable, preserving
    /// timestamps — a visibility no-op. Durable as ONE atomic WAL record:
    /// the entries re-encoded as data entries plus a retire marker, so a
    /// crash at any point replays either the shadow entries (record torn)
    /// or the data copies (record intact), never both live at once.
    /// Returns the number of entries spilled.
    pub fn spill_shadow(&self) -> Result<u64> {
        if self.inner.degraded.load(Ordering::Acquire) {
            return Err(read_only());
        }
        let spilled = {
            let mut state = self.inner.state.write();
            if state.shadow.is_empty() {
                return Ok(0);
            }
            let snapshot = state.shadow.snapshot();
            let boundary = state.shadow.max_ts();
            let mut ops: Vec<WalEntry> = snapshot
                .iter()
                .map(|(k, v)| WalEntry::Data(k.clone(), v.clone()))
                .collect();
            ops.push(WalEntry::ShadowRetire(boundary));
            let wal = Wal::new(
                self.inner.env.clone(),
                self.inner.stats.clone(),
                state.wal_segment,
            );
            if let Err(e) = wal.append_batches(&[&ops]) {
                if e.class() == ErrorClass::Permanent {
                    self.inner.degraded.store(true, Ordering::Release);
                }
                return Err(e);
            }
            for (key, version) in snapshot {
                state.memtable.insert(key, version);
            }
            state.shadow.retire_through(boundary);
            ops.len() as u64 - 1
        };
        self.inner.stats.delta_spills.inc();
        // The memtable may have crossed its flush threshold in one jump;
        // flush inline (no compaction — callers that want the full
        // maintenance cycle run it themselves).
        if self.inner.config.auto_maintenance
            && self.inner.state.read().memtable.approx_bytes()
                >= self.inner.config.memtable_flush_bytes
        {
            let _ = self.flush();
        }
        Ok(spilled)
    }

    /// Approximate heap bytes held by the shadow tier — what a delta
    /// memory budget is enforced against.
    pub fn shadow_bytes(&self) -> usize {
        self.inner.state.read().shadow.bytes()
    }

    /// Number of version entries in the shadow tier.
    pub fn shadow_entry_count(&self) -> u64 {
        self.inner.state.read().shadow.entry_count() as u64
    }

    /// Tombstones one cell.
    pub fn delete_cell(&self, row: &[u8], qual: &[u8]) -> Result<u64> {
        Self::check_qualifier(qual)?;
        self.apply(vec![(
            CellKey::new(row.to_vec(), qual.to_vec()),
            Mutation::Delete,
        )])
    }

    /// Tombstones an entire row (all qualifiers, past and future-unknown).
    pub fn delete_row(&self, row: &[u8]) -> Result<u64> {
        self.apply(vec![(
            CellKey::new(row.to_vec(), ROW_TOMBSTONE_QUALIFIER.to_vec()),
            Mutation::Delete,
        )])
    }

    /// Tombstones many rows in one WAL record — the bulk form of
    /// [`Store::delete_row`], used by deferred attached-tier GC to retire
    /// a whole generation's overlay rows at once.
    pub fn delete_rows(&self, rows: Vec<Vec<u8>>) -> Result<u64> {
        let batch = rows
            .into_iter()
            .map(|row| {
                (
                    CellKey::new(row, ROW_TOMBSTONE_QUALIFIER.to_vec()),
                    Mutation::Delete,
                )
            })
            .collect();
        self.apply(batch)
    }

    fn apply(&self, mutations: Vec<(CellKey, Mutation)>) -> Result<u64> {
        let ops = mutations.into_iter().map(|(key, mutation)| WriteOp {
            key,
            ts: None,
            mutation,
            shadow: false,
        });
        self.commit_ops(ops.collect())
    }

    /// Commits a batch of tier-tagged writes through group commit: one
    /// fsync'd WAL record per group, `Data` ops into the memtable,
    /// `Shadow` ops into the shadow tier — both durable the same way.
    fn commit_ops(&self, writes: Vec<WriteOp>) -> Result<u64> {
        if writes.is_empty() {
            return Ok(self.inner.clock.peek());
        }
        if self.inner.degraded.load(Ordering::Acquire) {
            return Err(read_only());
        }
        // Park the batch in the group-commit queue. Ticked timestamps are
        // assigned under the queue lock so queue order, timestamp order
        // and WAL record order all agree. A caller's timestamp may sit
        // below a batch queued before it: every replayed and merged
        // version is ordered by timestamp, and the one order-sensitive
        // entry — a spill's retire marker — drops only the shadow entries
        // before it, in memory and on replay alike.
        let ticket = Arc::new(CommitTicket::default());
        let mut last_ts = 0;
        {
            let mut queue = self.inner.commit_queue.lock();
            let ops: Vec<WalEntry> = writes
                .into_iter()
                .map(|op| {
                    let ts = op.ts.unwrap_or_else(|| self.inner.clock.tick());
                    self.inner.clock.advance_past(ts);
                    last_ts = ts;
                    let version = Version {
                        ts,
                        mutation: op.mutation,
                    };
                    if op.shadow {
                        WalEntry::Shadow(op.key, version)
                    } else {
                        WalEntry::Data(op.key, version)
                    }
                })
                .collect();
            queue.push_back(PendingCommit {
                ops,
                ticket: ticket.clone(),
            });
        }
        // Rendezvous on the state write lock: whoever holds it first
        // becomes the leader for everything queued so far (up to the
        // window) and commits all of it in ONE WAL append + fsync,
        // atomically with the memtable inserts. The WAL append must
        // happen under the state lock regardless — otherwise a concurrent
        // flush could drain the memtable (not yet holding this batch) and
        // truncate the WAL segment that does hold it — so group commit
        // adds no locking the single-writer path didn't already pay.
        let commit_outcome = loop {
            if let Some(outcome) = ticket.take() {
                break outcome;
            }
            let mut state = self.inner.state.write();
            if let Some(outcome) = ticket.take() {
                // A leader drained our batch while we waited for the lock;
                // it set the ticket before releasing the lock.
                break outcome;
            }
            let group: Vec<PendingCommit> = {
                let mut queue = self.inner.commit_queue.lock();
                let take = queue
                    .len()
                    .min(self.inner.config.group_commit_window_ops.max(1));
                queue.drain(..take).collect()
            };
            if group.is_empty() {
                // Unreachable (an unset ticket implies a queued batch),
                // but looping is safe.
                continue;
            }
            let wal = Wal::new(
                self.inner.env.clone(),
                self.inner.stats.clone(),
                state.wal_segment,
            );
            let batches: Vec<&[WalEntry]> = group.iter().map(|p| p.ops.as_slice()).collect();
            match wal.append_batches(&batches) {
                Ok(()) => {
                    if group.len() > 1 {
                        self.inner.stats.group_commits.inc();
                        self.inner
                            .stats
                            .wal_fsyncs_saved
                            .add(group.len() as u64 - 1);
                    }
                    for pending in group {
                        let mut shadow_batch: Vec<(CellKey, Version)> = Vec::new();
                        for op in pending.ops {
                            match op {
                                WalEntry::Data(key, version) => state.memtable.insert(key, version),
                                WalEntry::Shadow(key, version) => shadow_batch.push((key, version)),
                                WalEntry::ShadowRetire(t) => state.shadow.retire_through(t),
                            }
                        }
                        if !shadow_batch.is_empty() {
                            state
                                .shadow
                                .insert_batch(shadow_batch, self.inner.config.max_versions);
                        }
                        pending.ticket.set(Ok(()));
                    }
                }
                Err(e) => {
                    // Transient failures were already retried below us
                    // (RetryEnv); a permanent WAL failure means the write
                    // path is down for good. Fall into read-only degraded
                    // mode: reads keep serving what is durable, writes
                    // are refused until a reopen — never acknowledge a
                    // put the log cannot hold. Every batch in the group
                    // shared the failed append, so every caller fails.
                    if e.class() == ErrorClass::Permanent {
                        self.inner.degraded.store(true, Ordering::Release);
                    }
                    for pending in &group {
                        pending.ticket.set(Err(replicate_error(&e)));
                    }
                    if group.iter().any(|p| Arc::ptr_eq(&p.ticket, &ticket)) {
                        // The leader keeps the original error object.
                        ticket.set(Err(e));
                    }
                }
            }
            // Our own ticket was in the drained group in all but
            // pathological schedules; the next iteration picks it up.
        };
        commit_outcome?;
        let should_flush = self.inner.config.auto_maintenance
            && self.inner.state.read().memtable.approx_bytes()
                >= self.inner.config.memtable_flush_bytes;
        if should_flush {
            // The batch is already durable (WAL) and visible (memtable);
            // auto-maintenance failing afterwards must not report a
            // committed write as failed. Maintenance retries on the next
            // threshold crossing, and a crash replays the WAL.
            if self.flush().is_ok() {
                let should_compact = {
                    let state = self.inner.state.read();
                    state.sstables.len() > self.inner.config.max_sstables
                };
                if should_compact {
                    let _ = self.compact();
                }
            }
        }
        Ok(last_ts)
    }

    /// Latest visible value of a cell (respecting tombstones), or `None`.
    pub fn get(&self, row: &[u8], qual: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_at(row, qual, u64::MAX)
    }

    /// Latest value visible at `snapshot_ts`.
    pub fn get_at(&self, row: &[u8], qual: &[u8], snapshot_ts: u64) -> Result<Option<Vec<u8>>> {
        let key = CellKey::new(row.to_vec(), qual.to_vec());
        let tomb_key = CellKey::new(row.to_vec(), ROW_TOMBSTONE_QUALIFIER.to_vec());
        let versions = self.collect_versions(&key)?;
        let tombs = self.collect_versions(&tomb_key)?;
        let row_tomb_ts = visible_at(&tombs, snapshot_ts).map_or(0, |v| v.ts);
        Ok(match visible_at(&versions, snapshot_ts) {
            Some(Version {
                ts,
                mutation: Mutation::Put(v),
            }) if *ts > row_tomb_ts => Some(v.clone()),
            _ => None,
        })
    }

    /// Up to `max` historical versions of a cell, newest first, as
    /// `(timestamp, value-or-tombstone)` pairs — the multi-version history
    /// read the paper highlights (§V-C).
    pub fn get_versions(
        &self,
        row: &[u8],
        qual: &[u8],
        max: usize,
    ) -> Result<Vec<(u64, Option<Vec<u8>>)>> {
        let key = CellKey::new(row.to_vec(), qual.to_vec());
        let versions = self.collect_versions(&key)?;
        Ok(versions
            .into_iter()
            .take(max)
            .map(|v| {
                let ts = v.ts;
                match v.mutation {
                    Mutation::Put(val) => (ts, Some(val)),
                    Mutation::Delete => (ts, None),
                }
            })
            .collect())
    }

    /// All versions of one cell across memtable, shadow tier and
    /// SSTables, newest first.
    fn collect_versions(&self, key: &CellKey) -> Result<Vec<Version>> {
        let state = self.inner.state.read();
        let mut versions: Vec<Version> = state
            .memtable
            .get(key)
            .map(<[Version]>::to_vec)
            .unwrap_or_default();
        let from_shadow = state.shadow.get(key);
        if !from_shadow.is_empty() {
            self.inner.stats.delta_hits.add(from_shadow.len() as u64);
            versions.extend(from_shadow);
        }
        if let Ok(i) = state.flushing.binary_search_by(|(k, _)| k.cmp(key)) {
            versions.extend_from_slice(&state.flushing[i].1);
        }
        for table in &state.sstables {
            if table.may_contain_row(&key.row) {
                self.inner.stats.seeks.inc();
                versions.extend(table.get(key)?);
            }
        }
        versions.sort_by_key(|v| std::cmp::Reverse(v.ts));
        Ok(versions)
    }

    /// Scans rows with keys in `[start, end)` (unbounded when `None`),
    /// resolving each row to its latest visible cells.
    pub fn scan(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Result<ScanIter> {
        self.scan_at(start, end, u64::MAX)
    }

    /// Like [`Store::scan`] at a historical snapshot.
    pub fn scan_at(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        snapshot_ts: u64,
    ) -> Result<ScanIter> {
        let (mem_entries, shadow_entries, flushing, sstables) = {
            let state = self.inner.state.read();
            let mem: Vec<(CellKey, Version)> = state
                .memtable
                .range(start, end)
                .flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), v.clone())))
                .collect();
            (
                mem,
                state.shadow.range_entries(start, end),
                state.flushing.clone(),
                state.sstables.clone(),
            )
        };
        let mut streams: Vec<EntryStream> = vec![Box::new(mem_entries.into_iter().map(Ok))];
        if !shadow_entries.is_empty() {
            // The delta tier is just one more key-sorted stream in the
            // merge — same visibility rules as every other source.
            self.inner.stats.delta_hits.add(shadow_entries.len() as u64);
            streams.push(Box::new(shadow_entries.into_iter().map(Ok)));
        }
        if !flushing.is_empty() {
            // Mid-flush entries: already key-sorted, filter to the range.
            let (start, end) = (start.map(<[u8]>::to_vec), end.map(<[u8]>::to_vec));
            let in_flight: Vec<(CellKey, Version)> = flushing
                .iter()
                .filter(|(k, _)| {
                    start.as_ref().is_none_or(|s| k.row >= *s)
                        && end.as_ref().is_none_or(|e| k.row < *e)
                })
                .flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), v.clone())))
                .collect();
            streams.push(Box::new(in_flight.into_iter().map(Ok)));
        }
        for table in &sstables {
            streams.push(Box::new(
                table.iter(start.map(<[u8]>::to_vec), end.map(<[u8]>::to_vec)),
            ));
        }
        Ok(ScanIter {
            merge: MergeScanner::new(streams),
            pending: None,
            snapshot_ts,
            done: false,
        })
    }

    /// Moves the memtable into a new SSTable and truncates the WAL
    /// segments that covered it.
    ///
    /// Atomic with respect to failure: entries leave the memtable only
    /// once their SSTable is durable and open, and the covered WAL
    /// segments are deleted only after that. The drain and the rotation
    /// to a fresh segment happen under one state lock, so every entry in
    /// segments ≤ the boundary is in the drained set and every concurrent
    /// append lands above it. A failed flush puts everything back, so
    /// reads keep seeing the buffered writes and a crash at any point
    /// replays them from the still-intact segments.
    pub fn flush(&self) -> Result<()> {
        let _guard = self.inner.maintenance.lock();
        let (drained, name, boundary) = {
            let mut state = self.inner.state.write();
            if state.memtable.is_empty() {
                return Ok(());
            }
            let name = format!("sst_{:010}", state.next_file_no);
            state.next_file_no += 1;
            let boundary = state.wal_segment;
            state.wal_segment += 1;
            // Park the drained entries in the `flushing` slot so reads
            // keep seeing them while the SSTable is written outside the
            // lock; they leave the slot in the same critical section
            // that publishes the table (or restores them on failure).
            state.flushing = Arc::new(state.memtable.drain_sorted());
            (state.flushing.clone(), name, boundary)
        };
        match self.write_sstable(&drained, &name) {
            Ok(table) => {
                {
                    let mut state = self.inner.state.write();
                    state.sstables.push(table);
                    state.flushing = Arc::new(Vec::new());
                    // Shadow entries are durable ONLY in the WAL; before
                    // the covered segments go away, carry every live one
                    // forward into the fresh segment. Snapshotting under
                    // the state lock serializes against spills, so the
                    // carried set can never miss a concurrent retire. A
                    // crash between this append and the truncation
                    // replays some entries twice; the tier dedupes exact
                    // `(key, ts)` duplicates on insert.
                    if !state.shadow.is_empty() {
                        let carry: Vec<WalEntry> = state
                            .shadow
                            .snapshot()
                            .into_iter()
                            .map(|(k, v)| WalEntry::Shadow(k, v))
                            .collect();
                        let wal = Wal::new(
                            self.inner.env.clone(),
                            self.inner.stats.clone(),
                            state.wal_segment,
                        );
                        if let Err(e) = wal.append_batches(&[&carry]) {
                            // Skip truncation: the old segments stay and
                            // keep the shadow entries durable. Their data
                            // entries replaying alongside the published
                            // SSTable is harmless (same-timestamp
                            // duplicates resolve identically).
                            if e.class() == ErrorClass::Permanent {
                                self.inner.degraded.store(true, Ordering::Release);
                            }
                            return Err(e);
                        }
                    }
                }
                Wal::truncate_through(self.inner.env.as_ref(), boundary)
            }
            Err(e) => {
                // The table never became durable: drop any torn partial
                // file and restore the entries. Concurrent writers may
                // have inserted newer entries meanwhile; the memtable's
                // insertion sort folds these back in regardless.
                let _ = self.inner.env.delete(&name);
                let mut state = self.inner.state.write();
                state.flushing = Arc::new(Vec::new());
                for (key, versions) in drained.iter() {
                    for version in versions {
                        state.memtable.insert(key.clone(), version.clone());
                    }
                }
                Err(e)
            }
        }
    }

    /// Builds, writes, and opens one SSTable from sorted entries.
    fn write_sstable(
        &self,
        entries: &[(CellKey, Vec<Version>)],
        name: &str,
    ) -> Result<Arc<SsTable>> {
        let entry_count: usize = entries.iter().map(|(_, vs)| vs.len()).sum();
        let mut builder = SsTableBuilder::new(entry_count, self.inner.config.block_size);
        for (key, versions) in entries {
            for version in versions {
                builder.add(key, version)?;
            }
        }
        let bytes = builder.finish();
        self.inner.stats.record_write(bytes.len() as u64);
        self.inner.env.write_file(name, &bytes)?;
        Ok(Arc::new(SsTable::open(
            self.inner.env.clone(),
            name.to_string(),
            self.inner.stats.clone(),
        )?))
    }

    /// Minor compaction: merges the *newest half* of the SSTables into one
    /// (HBase minor-compaction style). Preserves tombstones and all
    /// versions — only a full [`Store::compact`] may garbage-collect,
    /// since older tables may hold data the tombstones suppress.
    pub fn minor_compact(&self) -> Result<()> {
        self.flush()?;
        let _guard = self.inner.maintenance.lock();
        let newest: Vec<Arc<SsTable>> = {
            let state = self.inner.state.read();
            if state.sstables.len() <= 1 {
                return Ok(());
            }
            let half = state.sstables.len().div_ceil(2);
            state.sstables[state.sstables.len() - half..].to_vec()
        };
        let file_no = {
            let mut state = self.inner.state.write();
            let n = state.next_file_no;
            state.next_file_no += 1;
            n
        };
        let (_, table) = compaction::merge_tables_keep_all(
            &self.inner.env,
            &newest,
            &self.inner.config,
            &self.inner.stats,
            file_no,
        )
        .inspect_err(|_| {
            // Failure is atomic: inputs stay live in `sstables`; only a
            // torn partial output may exist. Drop it (best-effort — a
            // reopen quarantines whatever remains).
            let _ = self.inner.env.delete(&format!("sst_{file_no:010}"));
        })?;
        {
            let mut state = self.inner.state.write();
            state
                .sstables
                .retain(|t| !newest.iter().any(|o| o.name() == t.name()));
            // The merged table replaces the newest inputs; it must stay
            // *after* the untouched older tables in recency order.
            state.sstables.push(table);
        }
        for t in &newest {
            t.mark_obsolete();
        }
        Ok(())
    }

    /// Full compaction: merges all SSTables into one, dropping shadowed
    /// versions beyond `max_versions` and garbage-collecting tombstones.
    pub fn compact(&self) -> Result<()> {
        // Spill the shadow tier first: full compaction garbage-collects
        // tombstones, and a live shadow entry older than a GC'd row
        // tombstone would resurrect deleted data. (minor_compact keeps
        // all versions and tombstones, so it is safe with a live tier.)
        self.spill_shadow()?;
        self.flush()?;
        let _guard = self.inner.maintenance.lock();
        let old = { self.inner.state.read().sstables.clone() };
        if old.len() <= 1 {
            return Ok(());
        }
        let file_no = {
            let mut state = self.inner.state.write();
            let n = state.next_file_no;
            state.next_file_no += 1;
            n
        };
        let (name, table) = compaction::compact_tables(
            &self.inner.env,
            &old,
            &self.inner.config,
            &self.inner.stats,
            file_no,
        )
        .inspect_err(|_| {
            // Same atomicity contract as minor_compact: old tables remain
            // live and readable; only the partial output needs removal.
            let _ = self.inner.env.delete(&format!("sst_{file_no:010}"));
        })?;
        {
            let mut state = self.inner.state.write();
            // Writers only append to `sstables` (flush); replace the old
            // prefix we compacted, keep any tables flushed meanwhile.
            state
                .sstables
                .retain(|t| !old.iter().any(|o| o.name() == t.name()));
            state.sstables.insert(0, table);
        }
        let _ = name;
        // Deferred deletion: in-flight scans may still hold these tables;
        // each file is removed when its last handle drops.
        for t in &old {
            t.mark_obsolete();
        }
        Ok(())
    }

    /// Approximate stored bytes (memtable + shadow tier + SSTable files).
    pub fn approximate_bytes(&self) -> u64 {
        let state = self.inner.state.read();
        let sst: u64 = state
            .sstables
            .iter()
            .map(|t| t.file_len().unwrap_or(0))
            .sum();
        sst + (state.memtable.approx_bytes() + state.shadow.bytes()) as u64
    }

    /// Number of version entries currently stored (pre-resolution;
    /// overcounts rows with history).
    pub fn entry_count(&self) -> u64 {
        let state = self.inner.state.read();
        let sst: u64 = state.sstables.iter().map(|t| t.entry_count()).sum();
        let in_flight: usize = state.flushing.iter().map(|(_, vs)| vs.len()).sum();
        sst + (state.memtable.entry_count() + in_flight + state.shadow.entry_count()) as u64
    }

    /// Number of SSTables currently live (for compaction tests).
    pub fn sstable_count(&self) -> usize {
        self.inner.state.read().sstables.len()
    }

    /// `true` iff no entries exist at all.
    pub fn is_empty(&self) -> bool {
        self.entry_count() == 0
    }

    /// Deletes every file backing this store.
    pub fn destroy(self) -> Result<()> {
        let _guard = self.inner.maintenance.lock();
        for name in self.inner.env.list() {
            self.inner.env.delete(&name)?;
        }
        Ok(())
    }
}

/// Iterator over resolved rows, produced by [`Store::scan`].
pub struct ScanIter {
    merge: MergeScanner,
    pending: Option<(CellKey, Vec<Version>)>,
    snapshot_ts: u64,
    done: bool,
}

impl ScanIter {
    /// Collects the whole scan into memory.
    pub fn collect_rows(self) -> Result<Vec<RowEntry>> {
        let mut out = Vec::new();
        for row in self {
            out.push(row?);
        }
        Ok(out)
    }

    fn next_row(&mut self) -> Result<Option<RowEntry>> {
        loop {
            // Gather every cell group belonging to the next row.
            let first = match self.pending.take() {
                Some(g) => g,
                None => match self.merge.next() {
                    None => return Ok(None),
                    Some(g) => g?,
                },
            };
            let row_key = first.0.row.clone();
            let mut groups = vec![first];
            loop {
                match self.merge.next() {
                    None => break,
                    Some(g) => {
                        let g = g?;
                        if g.0.row == row_key {
                            groups.push(g);
                        } else {
                            self.pending = Some(g);
                            break;
                        }
                    }
                }
            }
            // Resolve: find the row tombstone, then each cell's visible
            // version newer than it.
            let mut row_tomb_ts = 0u64;
            for (key, versions) in &groups {
                if key.qual == ROW_TOMBSTONE_QUALIFIER {
                    if let Some(v) = visible_at(versions, self.snapshot_ts) {
                        row_tomb_ts = row_tomb_ts.max(v.ts);
                    }
                }
            }
            let mut cells = Vec::new();
            for (key, versions) in &groups {
                if key.qual == ROW_TOMBSTONE_QUALIFIER {
                    continue;
                }
                if let Some(Version {
                    ts,
                    mutation: Mutation::Put(value),
                }) = visible_at(versions, self.snapshot_ts)
                {
                    if *ts > row_tomb_ts {
                        cells.push((key.qual.clone(), *ts, value.clone()));
                    }
                }
            }
            if !cells.is_empty() {
                return Ok(Some(RowEntry {
                    row: row_key,
                    cells,
                }));
            }
            // Fully-deleted row: keep scanning.
        }
    }
}

impl Iterator for ScanIter {
    type Item = Result<RowEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_row() {
            Ok(Some(row)) => Some(Ok(row)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;

    fn fresh() -> Store {
        Store::open(
            Arc::new(MemEnv::new()),
            KvConfig {
                memtable_flush_bytes: 1 << 20,
                block_size: 256,
                max_sstables: 4,
                max_versions: 3,
                auto_maintenance: false,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip_memtable_and_sstable() {
        let s = fresh();
        s.put(b"r1", b"a", b"v1").unwrap();
        assert_eq!(s.get(b"r1", b"a").unwrap().unwrap(), b"v1");
        s.flush().unwrap();
        assert_eq!(s.get(b"r1", b"a").unwrap().unwrap(), b"v1");
        // Overwrite lands in the fresh memtable but shadows the SSTable.
        s.put(b"r1", b"a", b"v2").unwrap();
        assert_eq!(s.get(b"r1", b"a").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn delete_cell_hides_value_across_flushes() {
        let s = fresh();
        s.put(b"r", b"q", b"v").unwrap();
        s.flush().unwrap();
        s.delete_cell(b"r", b"q").unwrap();
        assert!(s.get(b"r", b"q").unwrap().is_none());
        s.flush().unwrap();
        assert!(s.get(b"r", b"q").unwrap().is_none());
    }

    #[test]
    fn delete_row_hides_all_cells_but_allows_rebirth() {
        let s = fresh();
        s.put(b"r", b"a", b"1").unwrap();
        s.put(b"r", b"b", b"2").unwrap();
        s.delete_row(b"r").unwrap();
        assert!(s.get(b"r", b"a").unwrap().is_none());
        assert!(s.get(b"r", b"b").unwrap().is_none());
        let rows = s.scan(None, None).unwrap().collect_rows().unwrap();
        assert!(rows.is_empty());
        // A later put resurrects the row.
        s.put(b"r", b"a", b"3").unwrap();
        assert_eq!(s.get(b"r", b"a").unwrap().unwrap(), b"3");
        assert!(s.get(b"r", b"b").unwrap().is_none());
    }

    #[test]
    fn scan_merges_memtable_and_sstables_in_order() {
        let s = fresh();
        s.put(b"b", b"q", b"sst").unwrap();
        s.flush().unwrap();
        s.put(b"a", b"q", b"mem").unwrap();
        s.put(b"b", b"q", b"newer").unwrap();
        let rows = s.scan(None, None).unwrap().collect_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].row, b"a");
        assert_eq!(rows[1].row, b"b");
        assert_eq!(rows[1].cells[0].2, b"newer");
    }

    #[test]
    fn scan_range_bounds() {
        let s = fresh();
        for i in 0..10u8 {
            s.put(&[i], b"q", &[i]).unwrap();
        }
        let rows = s
            .scan(Some(&[3u8][..]), Some(&[7u8][..]))
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].row, vec![3u8]);
        assert_eq!(rows[3].row, vec![6u8]);
    }

    #[test]
    fn snapshot_reads_see_the_past() {
        let s = fresh();
        let t1 = s.put(b"r", b"q", b"old").unwrap();
        let _t2 = s.put(b"r", b"q", b"new").unwrap();
        assert_eq!(s.get_at(b"r", b"q", t1).unwrap().unwrap(), b"old");
        assert_eq!(s.get(b"r", b"q").unwrap().unwrap(), b"new");
        let hist = s.get_versions(b"r", b"q", 10).unwrap();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].1.as_deref().unwrap(), b"new");
        assert_eq!(hist[1].1.as_deref().unwrap(), b"old");
    }

    #[test]
    fn wal_recovery_after_crash() {
        let env: Arc<MemEnv> = Arc::new(MemEnv::new());
        let clock = LogicalClock::new();
        {
            let s = Store::open(
                env.clone(),
                KvConfig::default(),
                clock.clone(),
                Arc::default(),
            )
            .unwrap();
            s.put(b"r", b"q", b"survives").unwrap();
            // No flush: data only in WAL + memtable. Store handle dropped =
            // process crash.
        }
        let s = Store::open(env, KvConfig::default(), clock, Arc::default()).unwrap();
        assert_eq!(s.get(b"r", b"q").unwrap().unwrap(), b"survives");
    }

    #[test]
    fn reopen_resumes_clock_beyond_persisted_timestamps() {
        let env: Arc<MemEnv> = Arc::new(MemEnv::new());
        let ts = {
            let s = Store::open(
                env.clone(),
                KvConfig::default(),
                LogicalClock::new(),
                Arc::default(),
            )
            .unwrap();
            let ts = s.put(b"r", b"q", b"v1").unwrap();
            s.flush().unwrap();
            ts
        };
        // A brand-new clock would restart at 1 and write "older" data; the
        // store must fast-forward it.
        let clock = LogicalClock::new();
        let s = Store::open(env, KvConfig::default(), clock, Arc::default()).unwrap();
        let ts2 = s.put(b"r", b"q", b"v2").unwrap();
        assert!(ts2 > ts);
        assert_eq!(s.get(b"r", b"q").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn compaction_reduces_tables_and_preserves_data() {
        let s = fresh();
        for round in 0..5u8 {
            for i in 0..20u8 {
                s.put(&[i], b"q", &[round]).unwrap();
            }
            s.flush().unwrap();
        }
        assert_eq!(s.sstable_count(), 5);
        s.compact().unwrap();
        assert_eq!(s.sstable_count(), 1);
        for i in 0..20u8 {
            assert_eq!(s.get(&[i], b"q").unwrap().unwrap(), vec![4u8]);
        }
    }

    #[test]
    fn compaction_garbage_collects_tombstones() {
        let s = fresh();
        s.put(b"dead", b"q", b"v").unwrap();
        s.flush().unwrap();
        s.delete_row(b"dead").unwrap();
        s.put(b"alive", b"q", b"v").unwrap();
        s.flush().unwrap();
        let before = s.entry_count();
        s.compact().unwrap();
        let after = s.entry_count();
        assert!(after < before, "compaction should drop dead entries");
        assert!(s.get(b"dead", b"q").unwrap().is_none());
        assert_eq!(s.get(b"alive", b"q").unwrap().unwrap(), b"v");
    }

    #[test]
    fn auto_flush_triggers_on_threshold() {
        let env: Arc<MemEnv> = Arc::new(MemEnv::new());
        let s = Store::open(
            env,
            KvConfig {
                memtable_flush_bytes: 256,
                block_size: 128,
                max_sstables: 100,
                max_versions: 1,
                auto_maintenance: true,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap();
        for i in 0..64u32 {
            s.put(&i.to_be_bytes(), b"q", &[0u8; 16]).unwrap();
        }
        assert!(s.sstable_count() > 0, "expected automatic flushes");
    }

    #[test]
    fn reserved_qualifier_rejected() {
        let s = fresh();
        assert!(s.put(b"r", ROW_TOMBSTONE_QUALIFIER, b"v").is_err());
        assert!(s.delete_cell(b"r", ROW_TOMBSTONE_QUALIFIER).is_err());
    }

    #[test]
    fn flush_truncates_wal_and_unflushed_segment_survives_reopen() {
        let env: Arc<MemEnv> = Arc::new(MemEnv::new());
        let clock = LogicalClock::new();
        let wal_files = |env: &MemEnv| -> Vec<String> {
            env.list()
                .into_iter()
                .filter(|n| n.starts_with("wal"))
                .collect()
        };
        {
            let s = Store::open(
                env.clone(),
                KvConfig::default(),
                clock.clone(),
                Arc::default(),
            )
            .unwrap();
            s.put(b"flushed", b"q", b"v1").unwrap();
            s.flush().unwrap();
            assert!(
                wal_files(&env).is_empty(),
                "flush must delete the covered WAL segments: {:?}",
                wal_files(&env)
            );
            // Appends after the flush go to the rotated segment...
            s.put(b"unflushed", b"q", b"v2").unwrap();
            assert_eq!(wal_files(&env).len(), 1);
            // ...and a crash here (drop without flush) must not lose them.
        }
        let s = Store::open(env.clone(), KvConfig::default(), clock, Arc::default()).unwrap();
        assert_eq!(s.get(b"flushed", b"q").unwrap().unwrap(), b"v1");
        assert_eq!(s.get(b"unflushed", b"q").unwrap().unwrap(), b"v2");
        // The recovered store rotates past the old segment; a flush now
        // clears everything again.
        s.put(b"more", b"q", b"v3").unwrap();
        s.flush().unwrap();
        assert!(wal_files(&env).is_empty());
        assert_eq!(s.get(b"more", b"q").unwrap().unwrap(), b"v3");
    }

    #[test]
    fn wal_growth_is_bounded_by_auto_flush() {
        // Before segmentation the WAL grew monotonically for the life of
        // the store (reset only deleted it when a flush happened to run);
        // now every auto-flush truncates the covered segments, so live
        // WAL bytes stay bounded by roughly one memtable's worth.
        let env: Arc<MemEnv> = Arc::new(MemEnv::new());
        let s = Store::open(
            env.clone(),
            KvConfig {
                memtable_flush_bytes: 512,
                block_size: 128,
                max_sstables: 100,
                max_versions: 1,
                auto_maintenance: true,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap();
        for i in 0..200u32 {
            s.put(&i.to_be_bytes(), b"q", &[0u8; 32]).unwrap();
        }
        let wal_bytes: u64 = env
            .list()
            .into_iter()
            .filter(|n| n.starts_with("wal"))
            .map(|n| env.len(&n).unwrap())
            .sum();
        assert!(s.sstable_count() > 1, "expected several auto-flushes");
        assert!(
            wal_bytes < 4 * 512,
            "live WAL bytes must stay near one flush threshold, got {wal_bytes}"
        );
    }

    #[test]
    fn multi_qualifier_rows_group_into_one_entry() {
        let s = fresh();
        s.put(b"r", b"a", b"1").unwrap();
        s.put(b"r", b"c", b"3").unwrap();
        s.put(b"r", b"b", b"2").unwrap();
        let rows = s.scan(None, None).unwrap().collect_rows().unwrap();
        assert_eq!(rows.len(), 1);
        let quals: Vec<_> = rows[0].cells.iter().map(|(q, _, _)| q.clone()).collect();
        assert_eq!(quals, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }
}

#[cfg(test)]
mod minor_compact_tests {
    use super::*;
    use crate::env::MemEnv;

    fn fresh() -> Store {
        Store::open(
            Arc::new(MemEnv::new()),
            KvConfig {
                memtable_flush_bytes: 1 << 20,
                block_size: 256,
                max_sstables: 64,
                max_versions: 3,
                auto_maintenance: false,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap()
    }

    #[test]
    fn minor_compact_halves_table_count_and_preserves_data() {
        let s = fresh();
        for round in 0..6u8 {
            for i in 0..10u8 {
                s.put(&[i], b"q", &[round]).unwrap();
            }
            s.flush().unwrap();
        }
        assert_eq!(s.sstable_count(), 6);
        s.minor_compact().unwrap();
        assert_eq!(s.sstable_count(), 4, "newest 3 merged into 1");
        for i in 0..10u8 {
            assert_eq!(s.get(&[i], b"q").unwrap().unwrap(), vec![5u8]);
        }
        // Versions survive a minor compaction (no GC).
        let hist = s.get_versions(&[0], b"q", 10).unwrap();
        assert_eq!(hist.len(), 6);
    }

    #[test]
    fn minor_compact_preserves_tombstone_effect() {
        let s = fresh();
        s.put(b"victim", b"q", b"old").unwrap();
        s.flush().unwrap();
        // Tombstone lands in a newer table; the put it shadows sits in the
        // oldest table, which minor compaction will NOT touch.
        s.delete_cell(b"victim", b"q").unwrap();
        s.flush().unwrap();
        s.put(b"other", b"q", b"x").unwrap();
        s.flush().unwrap();
        assert_eq!(s.sstable_count(), 3);
        s.minor_compact().unwrap();
        assert!(s.sstable_count() < 3);
        assert!(
            s.get(b"victim", b"q").unwrap().is_none(),
            "tombstone must keep suppressing the old value"
        );
        assert_eq!(s.get(b"other", b"q").unwrap().unwrap(), b"x");
        // A later full compaction GCs it for real.
        s.compact().unwrap();
        assert!(s.get(b"victim", b"q").unwrap().is_none());
    }

    #[test]
    fn minor_compact_on_single_table_is_noop() {
        let s = fresh();
        s.put(b"a", b"q", b"v").unwrap();
        s.flush().unwrap();
        s.minor_compact().unwrap();
        assert_eq!(s.sstable_count(), 1);
        assert_eq!(s.get(b"a", b"q").unwrap().unwrap(), b"v");
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use crate::env::{FaultyEnv, MemEnv};
    use dt_common::fault::{FaultKind, FaultPlan};

    fn faulty_fresh(plan: Arc<FaultPlan>) -> (Store, Arc<MemEnv>) {
        let mem = Arc::new(MemEnv::new());
        let env = Arc::new(FaultyEnv::new(mem.clone(), plan));
        let store = Store::open(
            env,
            KvConfig {
                memtable_flush_bytes: 1 << 20,
                block_size: 256,
                max_sstables: 64,
                max_versions: 3,
                auto_maintenance: false,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap();
        (store, mem)
    }

    #[test]
    fn failed_flush_keeps_data_readable_and_retryable() {
        let plan = Arc::new(FaultPlan::new(11));
        let (s, _) = faulty_fresh(plan.clone());
        s.put(b"r", b"q", b"v").unwrap();
        // The very next write (the SSTable) fails without side effects.
        plan.fail_next(FaultKind::WriteError);
        assert!(s.flush().unwrap_err().is_injected());
        // Nothing left the memtable: reads still see the value.
        assert_eq!(s.get(b"r", b"q").unwrap().unwrap(), b"v");
        assert_eq!(s.sstable_count(), 0);
        // A retry succeeds and the WAL is finally reset.
        s.flush().unwrap();
        assert_eq!(s.sstable_count(), 1);
        assert_eq!(s.get(b"r", b"q").unwrap().unwrap(), b"v");
    }

    #[test]
    fn torn_flush_then_crash_recovers_from_wal() {
        let plan = Arc::new(FaultPlan::new(12));
        let (s, mem) = faulty_fresh(plan.clone());
        s.put(b"r", b"q", b"survives").unwrap();
        plan.fail_next(FaultKind::TornWrite);
        assert!(s.flush().is_err());
        assert!(plan.is_crashed());
        // "Restart the process": heal I/O and reopen over the same bytes.
        // A torn sst file may linger (the cleanup delete also crashed);
        // open must quarantine it and replay the WAL.
        plan.heal();
        drop(s);
        let s2 = Store::open(
            Arc::new(FaultyEnv::new(mem.clone(), plan)),
            KvConfig::default(),
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap();
        assert_eq!(s2.get(b"r", b"q").unwrap().unwrap(), b"survives");
    }

    #[test]
    fn torn_append_then_more_writes_survive_second_crash() {
        // A torn WAL append leaves its partial frame in the file. The
        // reopen must truncate it away; otherwise writes acknowledged
        // *after* recovery sit behind garbage and silently vanish at the
        // next replay.
        let plan = Arc::new(FaultPlan::new(17));
        let (s, mem) = faulty_fresh(plan.clone());
        s.put(b"a", b"q", b"one").unwrap();
        plan.fail_next(FaultKind::TornWrite);
        assert!(s.put(b"b", b"q", b"lost").is_err());
        plan.heal();
        drop(s);
        let reopen = |mem: &Arc<MemEnv>, plan: &Arc<FaultPlan>| {
            Store::open(
                Arc::new(FaultyEnv::new(mem.clone(), plan.clone())),
                KvConfig::default(),
                LogicalClock::new(),
                Arc::default(),
            )
            .unwrap()
        };
        let s2 = reopen(&mem, &plan);
        assert_eq!(s2.get(b"a", b"q").unwrap().unwrap(), b"one");
        assert_eq!(s2.get(b"b", b"q").unwrap(), None);
        // Acknowledged after recovery — must survive a second crash.
        s2.put(b"c", b"q", b"two").unwrap();
        drop(s2);
        let s3 = reopen(&mem, &plan);
        assert_eq!(s3.get(b"a", b"q").unwrap().unwrap(), b"one");
        assert_eq!(s3.get(b"c", b"q").unwrap().unwrap(), b"two");
    }

    #[test]
    fn mid_compaction_crash_is_atomic() {
        let plan = Arc::new(FaultPlan::new(13));
        let (s, mem) = faulty_fresh(plan.clone());
        for round in 0..3u8 {
            for i in 0..10u8 {
                s.put(&[i], b"q", &[round]).unwrap();
            }
            s.flush().unwrap();
        }
        assert_eq!(s.sstable_count(), 3);
        plan.fail_next(FaultKind::TornWrite);
        assert!(s.compact().is_err());
        plan.heal();
        // In-process: the old tables never left the state.
        assert_eq!(s.sstable_count(), 3);
        for i in 0..10u8 {
            assert_eq!(s.get(&[i], b"q").unwrap().unwrap(), vec![2u8]);
        }
        // Across a restart: the torn output (if any survived cleanup) is
        // quarantined and the inputs still carry all committed data.
        drop(s);
        let s2 = Store::open(
            mem,
            KvConfig::default(),
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap();
        for i in 0..10u8 {
            assert_eq!(s2.get(&[i], b"q").unwrap().unwrap(), vec![2u8]);
        }
        // A clean compaction still works afterwards.
        s2.compact().unwrap();
        assert_eq!(s2.sstable_count(), 1);
    }

    #[test]
    fn open_quarantines_garbage_sstable() {
        let env = Arc::new(MemEnv::new());
        {
            let s = Store::open(
                env.clone(),
                KvConfig::default(),
                LogicalClock::new(),
                Arc::default(),
            )
            .unwrap();
            s.put(b"keep", b"q", b"v").unwrap();
            s.flush().unwrap();
        }
        // A crash left a half-written table behind.
        env.write_file("sst_0000000042", &[0xDE; 37]).unwrap();
        let s = Store::open(
            env.clone(),
            KvConfig::default(),
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap();
        assert_eq!(s.get(b"keep", b"q").unwrap().unwrap(), b"v");
        let names = env.list();
        assert!(!names.iter().any(|n| n == "sst_0000000042"));
        assert!(names.iter().any(|n| n == "quarantine_sst_0000000042"));
        // The quarantined number is never reused.
        s.put(b"more", b"q", b"v").unwrap();
        s.flush().unwrap();
        assert!(env.list().iter().any(|n| n == "sst_0000000043"));
    }

    #[test]
    fn auto_maintenance_failure_does_not_fail_committed_writes() {
        let plan = Arc::new(FaultPlan::new(14));
        let mem = Arc::new(MemEnv::new());
        let s = Store::open(
            Arc::new(FaultyEnv::new(mem, plan.clone())),
            KvConfig {
                memtable_flush_bytes: 128,
                block_size: 128,
                max_sstables: 100,
                max_versions: 1,
                auto_maintenance: true,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap();
        s.put(b"a", b"q", &[0u8; 64]).unwrap();
        // The put's own WAL append (the next op) must pass; the write
        // after it is the auto-flush SSTable, whose failure must not
        // surface through put().
        plan.fail_after(1, FaultKind::WriteError);
        s.put(b"b", b"q", &[0u8; 64]).unwrap();
        assert_eq!(plan.injected_count(), 1);
        assert!(s.get(b"a", b"q").unwrap().is_some());
        assert!(s.get(b"b", b"q").unwrap().is_some());
    }
}

#[cfg(test)]
mod shadow_store_tests {
    use super::*;
    use crate::env::MemEnv;

    fn open_on(env: Arc<MemEnv>) -> Store {
        Store::open(
            env,
            KvConfig {
                memtable_flush_bytes: 1 << 20,
                block_size: 256,
                max_sstables: 64,
                max_versions: 3,
                auto_maintenance: false,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap()
    }

    fn fresh() -> Store {
        open_on(Arc::new(MemEnv::new()))
    }

    #[test]
    fn shadow_writes_are_read_visible_without_touching_the_lsm() {
        let s = fresh();
        s.put(b"r1", b"q", b"base").unwrap();
        let mem_entries = s.entry_count();
        s.put_shadow_batch(vec![
            (b"r1".to_vec(), b"q".to_vec(), b"hot".to_vec()),
            (b"r2".to_vec(), b"q".to_vec(), b"new".to_vec()),
        ])
        .unwrap();
        assert_eq!(s.shadow_entry_count(), 2);
        assert!(s.shadow_bytes() > 0);
        assert_eq!(s.entry_count(), mem_entries + 2);
        // Point reads resolve newest-first across tiers.
        assert_eq!(s.get(b"r1", b"q").unwrap().unwrap(), b"hot");
        assert_eq!(s.get(b"r2", b"q").unwrap().unwrap(), b"new");
        // Scans merge the shadow stream like any other source.
        let rows = s.scan(None, None).unwrap().collect_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cells[0].2, b"hot");
        // No flush happened: zero SSTables despite the writes.
        assert_eq!(s.sstable_count(), 0);
    }

    #[test]
    fn shadow_snapshot_reads_respect_timestamps() {
        let s = fresh();
        let t1 = s
            .put_shadow_batch(vec![(b"r".to_vec(), b"q".to_vec(), b"v1".to_vec())])
            .unwrap();
        let t2 = s
            .put_shadow_batch(vec![(b"r".to_vec(), b"q".to_vec(), b"v2".to_vec())])
            .unwrap();
        assert!(t2 > t1);
        assert_eq!(s.get_at(b"r", b"q", t1).unwrap().unwrap(), b"v1");
        assert_eq!(s.get_at(b"r", b"q", t2).unwrap().unwrap(), b"v2");
        assert!(s.get_at(b"r", b"q", t1 - 1).unwrap().is_none());
    }

    #[test]
    fn spill_is_a_visibility_noop_with_preserved_timestamps() {
        let s = fresh();
        let ts = s
            .put_shadow_batch(vec![
                (b"a".to_vec(), b"q".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"q".to_vec(), b"2".to_vec()),
            ])
            .unwrap();
        let before = s.scan(None, None).unwrap().collect_rows().unwrap();
        assert_eq!(s.spill_shadow().unwrap(), 2);
        assert_eq!(s.shadow_entry_count(), 0);
        assert_eq!(s.shadow_bytes(), 0);
        let after = s.scan(None, None).unwrap().collect_rows().unwrap();
        assert_eq!(before, after, "spill must not change any visible row");
        // Timestamps survived the migration.
        assert_eq!(after[1].cells[0].1, ts);
        // A second spill is a no-op.
        assert_eq!(s.spill_shadow().unwrap(), 0);
    }

    #[test]
    fn crash_recovery_replays_shadow_entries_into_the_tier() {
        let env = Arc::new(MemEnv::new());
        let s = open_on(env.clone());
        s.put(b"base", b"q", b"d").unwrap();
        s.put_shadow_batch(vec![(b"hot".to_vec(), b"q".to_vec(), b"s".to_vec())])
            .unwrap();
        drop(s);
        let reopened = open_on(env);
        assert_eq!(
            reopened.shadow_entry_count(),
            1,
            "shadow entry recovered into the tier, not the memtable"
        );
        assert_eq!(reopened.get(b"hot", b"q").unwrap().unwrap(), b"s");
        assert_eq!(reopened.get(b"base", b"q").unwrap().unwrap(), b"d");
        // The clock advanced past the shadow timestamp: a new write must
        // sort newer.
        reopened.put(b"hot", b"q", b"newer").unwrap();
        assert_eq!(reopened.get(b"hot", b"q").unwrap().unwrap(), b"newer");
    }

    #[test]
    fn crash_after_spill_does_not_resurrect_shadow_entries() {
        let env = Arc::new(MemEnv::new());
        let s = open_on(env.clone());
        s.put_shadow_batch(vec![(b"a".to_vec(), b"q".to_vec(), b"v".to_vec())])
            .unwrap();
        s.spill_shadow().unwrap();
        drop(s);
        let reopened = open_on(env);
        assert_eq!(
            reopened.shadow_entry_count(),
            0,
            "retire marker replays after the entries it covers"
        );
        assert_eq!(reopened.get(b"a", b"q").unwrap().unwrap(), b"v");
    }

    #[test]
    fn flush_carries_shadow_entries_past_wal_truncation() {
        let env = Arc::new(MemEnv::new());
        let s = open_on(env.clone());
        s.put(b"cold", b"q", b"c").unwrap();
        s.put_shadow_batch(vec![(b"hot".to_vec(), b"q".to_vec(), b"h".to_vec())])
            .unwrap();
        s.flush().unwrap(); // truncates the segment both entries lived in
        assert_eq!(s.shadow_entry_count(), 1, "flush does not spill");
        drop(s);
        let reopened = open_on(env);
        assert_eq!(
            reopened.shadow_entry_count(),
            1,
            "carry-forward kept the shadow entry durable across truncation"
        );
        assert_eq!(reopened.get(b"hot", b"q").unwrap().unwrap(), b"h");
        assert_eq!(reopened.get(b"cold", b"q").unwrap().unwrap(), b"c");
    }

    #[test]
    fn compact_spills_shadow_first_no_tombstone_resurrection() {
        let s = fresh();
        // An old value in an SSTable, then a shadow overwrite, then a row
        // tombstone NEWER than the shadow entry. Full compaction GCs the
        // tombstone; if the shadow entry were still live it would
        // resurrect the row.
        s.put(b"r", b"q", b"old").unwrap();
        s.flush().unwrap();
        s.put_shadow_batch(vec![(b"r".to_vec(), b"q".to_vec(), b"shadowed".to_vec())])
            .unwrap();
        s.delete_row(b"r").unwrap();
        s.put(b"other", b"q", b"x").unwrap();
        s.flush().unwrap();
        s.compact().unwrap();
        assert_eq!(s.shadow_entry_count(), 0, "compact spilled the tier");
        assert!(
            s.get(b"r", b"q").unwrap().is_none(),
            "deleted row must stay deleted after GC"
        );
        assert_eq!(s.get(b"other", b"q").unwrap().unwrap(), b"x");
    }

    #[test]
    fn write_versions_is_one_atomic_record_at_the_given_timestamps() {
        let env = Arc::new(MemEnv::new());
        let s = open_on(env.clone());
        s.put(b"txn", b"intent", b"pending").unwrap();
        let at = s.inner.clock.tick();
        let version = |v: &[u8]| Version {
            ts: at,
            mutation: Mutation::Put(v.to_vec()),
        };
        // A batch ticked after ours lands first; ours still reads at `at`.
        let later = s.put(b"r", b"q", b"later").unwrap();
        let batch = vec![
            (CellKey::new(*b"r", *b"q"), version(b"committed")),
            (CellKey::new(*b"s", *b"q"), version(b"committed")),
            (
                CellKey::new(*b"txn", *b"intent"),
                Version {
                    ts: at,
                    mutation: Mutation::Delete,
                },
            ),
        ];
        s.write_versions(batch.clone(), true).unwrap();
        assert_eq!(s.shadow_entry_count(), 2, "puts went to the shadow tier");
        assert!(
            s.get(b"txn", b"intent").unwrap().is_none(),
            "intent cleared"
        );
        assert_eq!(s.get_at(b"r", b"q", at).unwrap().unwrap(), b"committed");
        assert!(s.get_at(b"s", b"q", at - 1).unwrap().is_none());
        assert_eq!(s.get(b"r", b"q").unwrap().unwrap(), b"later");
        // Written again at the same timestamps: nothing a reader sees
        // changes.
        s.write_versions(batch, false).unwrap();
        assert_eq!(s.get(b"r", b"q").unwrap().unwrap(), b"later");
        assert!(
            s.put(b"x", b"q", b"v").unwrap() > later,
            "clock stays ahead"
        );
        drop(s);
        let reopened = open_on(env);
        assert_eq!(
            reopened.get_at(b"s", b"q", at).unwrap().unwrap(),
            b"committed"
        );
        assert_eq!(reopened.get(b"r", b"q").unwrap().unwrap(), b"later");
        assert!(reopened.get(b"txn", b"intent").unwrap().is_none());
    }

    #[test]
    fn torn_log_with_only_shadow_entries_salvages_via_rewrite() {
        let env = Arc::new(MemEnv::new());
        let s = open_on(env.clone());
        s.put_shadow_batch(vec![(b"a".to_vec(), b"q".to_vec(), b"v".to_vec())])
            .unwrap();
        drop(s);
        // Torn tail: garbage after the intact record forces the salvage
        // path with an empty memtable but a live shadow tier.
        let wal_name = env
            .list()
            .into_iter()
            .find(|n| n.starts_with("wal"))
            .unwrap();
        env.append(&wal_name, &[0xAB; 40]).unwrap();
        let reopened = open_on(env.clone());
        assert_eq!(reopened.shadow_entry_count(), 1);
        assert_eq!(reopened.get(b"a", b"q").unwrap().unwrap(), b"v");
        drop(reopened);
        // The rewrite truncated the torn segment: the next open replays a
        // clean log and still finds the entry.
        let again = open_on(env);
        assert_eq!(again.shadow_entry_count(), 1);
        assert_eq!(again.get(b"a", b"q").unwrap().unwrap(), b"v");
    }

    #[test]
    fn failed_wal_append_fails_the_shadow_write() {
        use crate::env::FaultyEnv;
        use dt_common::fault::{FaultKind, FaultPlan};
        let plan = Arc::new(FaultPlan::new(23));
        let env = Arc::new(FaultyEnv::new(Arc::new(MemEnv::new()), plan.clone()));
        let s = Store::open(
            env,
            KvConfig {
                auto_maintenance: false,
                ..KvConfig::default()
            },
            LogicalClock::new(),
            Arc::default(),
        )
        .unwrap();
        plan.fail_next(FaultKind::WriteError);
        assert!(s
            .put_shadow_batch(vec![(b"a".to_vec(), b"q".to_vec(), b"v".to_vec())])
            .is_err());
        assert_eq!(s.shadow_entry_count(), 0, "nothing acked, nothing inserted");
        // A permanent WAL failure degrades the store for shadow writes
        // exactly as it does for regular puts.
        assert!(s.is_degraded());
        assert!(s
            .put_shadow_batch(vec![(b"a".to_vec(), b"q".to_vec(), b"v2".to_vec())])
            .is_err());
        assert!(s.get(b"a", b"q").unwrap().is_none());
    }

    #[test]
    fn shadow_entries_survive_many_flush_cycles() {
        let env = Arc::new(MemEnv::new());
        let s = open_on(env.clone());
        s.put_shadow_batch(vec![(b"pin".to_vec(), b"q".to_vec(), b"held".to_vec())])
            .unwrap();
        for i in 0..5u8 {
            s.put(&[i], b"q", b"data").unwrap();
            s.flush().unwrap();
        }
        assert_eq!(s.shadow_entry_count(), 1);
        drop(s);
        let reopened = open_on(env);
        assert_eq!(
            reopened.shadow_entry_count(),
            1,
            "repeated carry-forwards dedupe to one entry"
        );
        assert_eq!(reopened.get(b"pin", b"q").unwrap().unwrap(), b"held");
    }
}
