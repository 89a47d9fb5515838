//! MVCC bookkeeping for multi-session DualTables (DESIGN.md §13).
//!
//! The generation pointer (DESIGN.md §7) already gives every table a chain
//! of immutable master file sets; this module turns that chain into a
//! snapshot-isolation substrate shared by all sessions of a process:
//!
//! * **Snapshot pins** — a reader (or transaction) pins `(generation,
//!   timestamp)` at begin. Scans at a pin see exactly the master files
//!   committed at or before the pin's timestamp, overlaid with the
//!   attached cells at `scan_at(ts)` — the attached tier was always
//!   multi-versioned; this module extends the same visibility rule to
//!   master files via [`MvccState::file_visible`].
//! * **First-committer-wins conflicts** — every committed write records
//!   `record id → commit ts`; a transaction commits only if no record in
//!   its write set (and no generation swing) committed after its pin.
//!   Losers get a retryable [`Error::Conflict`].
//! * **Liveness for the sweep** — the live generations are the current
//!   one, every pinned one and every one being built
//!   ([`MvccState::live_generations`]); everything else on disk is garbage
//!   for [`crate::DualTableStore::sweep`], which works it out from this
//!   state and the directory and presence listings, so nothing here
//!   records what is due. An unpin that leaves a superseded generation
//!   with no pin says so ([`MvccState::unpin`]), and its caller sweeps.
//!
//! All state is in-memory and per-process, guarded by one mutex per table:
//! pins and conflict windows are session metadata, not durable data. After
//! a crash there are no sessions, so an empty registry is the correct
//! recovered state (an insert that never committed left only staged
//! files, which the environment open deletes — see [`crate::commit`]).
//!
//! Lock order: a writer's `ops` lock (read or write) is always acquired
//! before its table's [`TableMvcc`] state mutex — a reader's pin takes
//! `ops` in read mode, then the mutex, and its unpin the mutex alone (a
//! sweep after it takes `ops` without waiting, then the mutex); the state
//! mutex is held across the commit's KV write so the conflict check, the
//! durable commit and the bookkeeping update form one atomic step against
//! other committers.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

/// Why a commit or swing was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Conflict {
    /// The generation pointer swung after the snapshot was pinned.
    Swing,
    /// This record id committed after the snapshot was pinned.
    Record(u64),
}

/// Per-table MVCC state. All methods expect the caller to hold the state
/// mutex via [`TableMvcc::lock`].
#[derive(Debug, Default)]
pub(crate) struct MvccState {
    /// Timestamp of the last committed generation swing.
    last_swing_ts: u64,
    /// Timestamp of the last committed EDIT write (transactional or
    /// autocommit).
    last_edit_commit_ts: u64,
    /// `record id → commit ts` for the conflict window. Pruned of entries
    /// older than every live pin — they can never conflict again.
    record_commits: HashMap<u64, u64>,
    /// `(generation, file id) → commit ts` of inserted master files; a
    /// file absent here is visible at any timestamp (pre-registry data,
    /// recovered data).
    file_commits: HashMap<(u64, u32), u64>,
    /// Live pins: `pin ts → pinned generation`.
    pins: BTreeMap<u64, u64>,
    /// Highest generation number handed to an off-to-the-side build, so
    /// two concurrent rewrites never share a directory.
    build_highwater: u64,
    /// Generations currently being built off to the side. The sweep must
    /// not delete them out from under their writers (the build would fail
    /// with I/O errors instead of a clean swing conflict).
    building: BTreeSet<u64>,
}

impl MvccState {
    /// Registers a pin at `(gen, ts)`.
    pub(crate) fn pin(&mut self, gen: u64, ts: u64) {
        self.pins.insert(ts, gen);
    }

    /// Drops the pin taken at `ts`. Returns `true` iff that leaves a
    /// superseded generation with no pin — a swing landed after the pin,
    /// and no other pin holds its generation — so a sweep has work. Any
    /// other unpin returns before walking the pins.
    pub(crate) fn unpin(&mut self, ts: u64) -> bool {
        let Some(gen) = self.pins.remove(&ts) else {
            return false;
        };
        self.last_swing_ts > ts && !self.pins.values().any(|&g| g == gen)
    }

    /// Live pins count (diagnostics).
    pub(crate) fn pin_count(&self) -> usize {
        self.pins.len()
    }

    /// First-committer-wins check for a snapshot pinned at `snapshot_ts`:
    /// `None` iff nothing the snapshot raced with has committed since.
    /// `write_set` lists the record ids the committer intends to write;
    /// pass an empty slice for swings (they conflict with *any* later
    /// commit, which `last_edit_commit_ts` covers) and insert-only
    /// transactions (only a swing invalidates their target generation).
    pub(crate) fn conflict_since(&self, snapshot_ts: u64, write_set: &[u64]) -> Option<Conflict> {
        if self.last_swing_ts > snapshot_ts {
            return Some(Conflict::Swing);
        }
        for &record in write_set {
            if self
                .record_commits
                .get(&record)
                .is_some_and(|&ts| ts > snapshot_ts)
            {
                return Some(Conflict::Record(record));
            }
        }
        None
    }

    /// `true` iff an EDIT write committed after `snapshot_ts` — the extra
    /// condition a rewrite swing checks (its new files were derived from
    /// the snapshot, so any later edit would be silently lost).
    pub(crate) fn edits_since(&self, snapshot_ts: u64) -> bool {
        self.last_edit_commit_ts > snapshot_ts
    }

    /// Records a committed EDIT write (transactional or autocommit) over
    /// `records` at `commit_ts`, then prunes conflict entries no live pin
    /// can ever race with.
    pub(crate) fn note_edit_commit(
        &mut self,
        records: impl IntoIterator<Item = u64>,
        commit_ts: u64,
    ) {
        for record in records {
            self.record_commits.insert(record, commit_ts);
        }
        self.last_edit_commit_ts = self.last_edit_commit_ts.max(commit_ts);
        if self.record_commits.len() > 4096 {
            let min_pin = self.pins.keys().next().copied().unwrap_or(commit_ts);
            self.record_commits.retain(|_, ts| *ts > min_pin);
        }
    }

    /// Records files a commit renamed into generation `gen` at `commit_ts`.
    pub(crate) fn commit_files(
        &mut self,
        gen: u64,
        file_ids: impl IntoIterator<Item = u32>,
        commit_ts: u64,
    ) {
        for id in file_ids {
            self.file_commits.insert((gen, id), commit_ts);
        }
    }

    /// Whether a snapshot at `at_ts` may read `(gen, file_id)`. Files with
    /// no recorded visibility (pre-registry, recovered after a crash) are
    /// visible at any timestamp.
    pub(crate) fn file_visible(&self, gen: u64, file_id: u32, at_ts: u64) -> bool {
        self.file_commits
            .get(&(gen, file_id))
            .is_none_or(|&ts| ts <= at_ts)
    }

    /// Reserves a generation number for a build: at least `candidate`
    /// (what the directory listing implies) and past every number already
    /// handed out — a build may write zero files, leaving no directory for
    /// the listing to see — and protects it from the sweep
    /// until it swings or is abandoned.
    pub(crate) fn reserve_build_gen(&mut self, candidate: u64) -> u64 {
        let gen = candidate.max(self.build_highwater + 1);
        self.build_highwater = gen;
        self.building.insert(gen);
        gen
    }

    /// Marks a build as no longer in progress (abandoned); its directory
    /// becomes fair game for cleanup.
    pub(crate) fn finish_build(&mut self, gen: u64) {
        self.building.remove(&gen);
    }

    /// Records a committed swing `old_gen → new_gen` at `swing_ts`.
    /// `own_pin_ts` is the swinging rewrite's build pin: its work ends
    /// with the swing, so it is dropped here and counts as no reader.
    /// Returns `true` iff another pin still holds `old_gen` (deferred GC).
    pub(crate) fn note_swing(
        &mut self,
        old_gen: u64,
        new_gen: u64,
        swing_ts: u64,
        own_pin_ts: Option<u64>,
    ) -> bool {
        self.last_swing_ts = swing_ts;
        self.build_highwater = self.build_highwater.max(new_gen);
        if let Some(ts) = own_pin_ts {
            self.pins.remove(&ts);
        }
        // Conflict windows only matter within a generation: the swing
        // retires every old record id, and new pins (ts > swing_ts) can
        // only conflict with commits after the swing.
        self.record_commits.retain(|_, ts| *ts > swing_ts);
        // File visibility records of a *pinned* old generation must
        // survive the swing: its readers still rely on them to hide files
        // committed after their pin (an absent record means always
        // visible). They go when the generation does
        // ([`MvccState::live_generations`]).
        let pinned_gens: BTreeSet<u64> = self.pins.values().copied().collect();
        self.file_commits
            .retain(|(g, _), _| *g >= new_gen || pinned_gens.contains(g));
        self.building.remove(&new_gen);
        pinned_gens.contains(&old_gen)
    }

    /// Records a DROP TABLE: a swing no snapshot is ever past. Every
    /// transaction or rewrite another session still holds on the dropped
    /// table loses at commit, even once the name — and with it the
    /// attached table's — is reused.
    pub(crate) fn note_drop(&mut self) {
        self.last_swing_ts = u64::MAX;
    }

    /// Whether the table was dropped ([`MvccState::note_drop`]): its
    /// name may already belong to a new table, which this state knows
    /// nothing of, so nothing may be swept through it.
    pub(crate) fn dropped(&self) -> bool {
        self.last_swing_ts == u64::MAX
    }

    /// The generations a sweep must keep — `current`, every pinned one
    /// and every one being built — after forgetting the file visibility
    /// records of every other generation: no reader is left to need them.
    pub(crate) fn live_generations(&mut self, current: u64) -> BTreeSet<u64> {
        let mut live: BTreeSet<u64> = self.pins.values().copied().collect();
        live.extend(self.building.iter().copied());
        live.insert(current);
        self.file_commits.retain(|(g, _), _| live.contains(g));
        live
    }

    /// Generations pinned by a read other than `current` — superseded
    /// ones kept alive for their readers (diagnostics).
    pub(crate) fn retired_count(&self, current: u64) -> usize {
        let pinned: BTreeSet<u64> = self.pins.values().copied().collect();
        pinned.into_iter().filter(|&g| g != current).count()
    }
}

/// One table's MVCC state behind its mutex, held across a whole commit —
/// checks, durable writes, bookkeeping — so commits are atomic against
/// each other and against pin acquisition.
pub(crate) type TableMvcc = Mutex<MvccState>;

/// Process-wide MVCC registry, one entry per table name. Shared through
/// [`crate::DualTableEnv`] so every [`crate::DualTableStore`] clone and
/// every session sees the same pins and conflict windows.
#[derive(Debug, Default)]
pub struct MvccRegistry {
    tables: Mutex<HashMap<String, Arc<TableMvcc>>>,
}

impl MvccRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MvccRegistry::default()
    }

    /// The state cell for `table`, created on first use.
    pub(crate) fn table(&self, table: &str) -> Arc<TableMvcc> {
        self.tables
            .lock()
            .entry(table.to_string())
            .or_default()
            .clone()
    }

    /// Forgets a dropped table's state.
    pub(crate) fn remove(&self, table: &str) {
        self.tables.lock().remove(table);
    }

    /// Discards all state — the registry's crash semantics: pins and
    /// conflict windows are session metadata and no session survives a
    /// restart. Called by [`crate::DualTableEnv::crash_and_reopen`].
    pub fn reset(&self) {
        self.tables.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_detection_is_first_committer_wins() {
        let mut s = MvccState::default();
        // Pin at ts 10; someone commits record 7 at ts 12.
        s.pin(0, 10);
        s.note_edit_commit([7u64], 12);
        assert_eq!(s.conflict_since(10, &[7]), Some(Conflict::Record(7)));
        assert_eq!(s.conflict_since(10, &[8]), None, "disjoint write set");
        assert_eq!(s.conflict_since(12, &[7]), None, "pinned at the commit");
        assert_eq!(s.conflict_since(10, &[]), None, "read-only never loses");
        assert!(s.edits_since(10));
        assert!(!s.edits_since(12));
    }

    #[test]
    fn swing_conflicts_every_later_committer() {
        let mut s = MvccState::default();
        s.note_swing(0, 1, 20, None);
        assert_eq!(s.conflict_since(10, &[]), Some(Conflict::Swing));
        assert_eq!(s.conflict_since(25, &[]), None);
    }

    #[test]
    fn file_visibility_tracks_commit_ts() {
        let mut s = MvccState::default();
        assert!(s.file_visible(0, 1, 0), "unknown files always visible");
        s.commit_files(0, [2u32], 15);
        assert!(!s.file_visible(0, 2, 10));
        assert!(s.file_visible(0, 2, 15));
    }

    #[test]
    fn swing_defers_gc_only_for_pinned_generations() {
        let mut s = MvccState::default();
        s.pin(0, 10);
        s.pin(0, 11);
        assert!(s.note_swing(0, 1, 20, None), "pinned generation deferred");
        assert_eq!(s.retired_count(1), 1);
        assert_eq!(s.live_generations(1), BTreeSet::from([0, 1]));
        assert!(!s.unpin(10), "another pin still holds generation 0");
        assert!(s.unpin(11), "the last pin on a superseded generation");
        assert_eq!(s.retired_count(1), 0);
        assert_eq!(s.live_generations(1), BTreeSet::from([1]));
        assert!(!s.unpin(11), "an unpin of nothing drains nothing");
        s.pin(1, 30);
        assert!(!s.unpin(30), "a pin on the current generation");
    }

    #[test]
    fn a_swing_drops_its_own_pin() {
        let mut s = MvccState::default();
        s.pin(0, 10);
        assert!(!s.note_swing(0, 1, 20, Some(10)));
        assert_eq!(s.pin_count(), 0);
        assert!(!s.unpin(10), "the job's later release finds nothing");
        assert_eq!(s.live_generations(1), BTreeSet::from([1]));
    }

    #[test]
    fn live_generations_keep_builds_and_forget_dead_visibility() {
        let mut s = MvccState::default();
        s.commit_files(0, [2u32], 15);
        let building = s.reserve_build_gen(1);
        assert_eq!(s.live_generations(0), BTreeSet::from([0, building]));
        s.note_swing(0, building, 20, None);
        assert_eq!(s.live_generations(building), BTreeSet::from([building]));
        assert!(
            s.file_visible(0, 2, 10),
            "the record went with generation 0"
        );
        s.note_drop();
        assert!(s.dropped());
    }

    #[test]
    fn build_generations_never_collide() {
        let mut s = MvccState::default();
        assert_eq!(s.reserve_build_gen(1), 1);
        assert_eq!(s.reserve_build_gen(1), 2, "second builder bumped");
        s.note_swing(0, 5, 10, None);
        assert_eq!(s.reserve_build_gen(3), 6, "past the committed swing");
    }

    #[test]
    fn registry_shares_state_per_table_name() {
        let reg = MvccRegistry::new();
        let a = reg.table("t");
        let b = reg.table("t");
        a.lock().pin(0, 5);
        assert_eq!(b.lock().pin_count(), 1);
        assert_eq!(reg.table("u").lock().pin_count(), 0);
        reg.remove("t");
        assert_eq!(reg.table("t").lock().pin_count(), 0);
        let c = reg.table("v");
        c.lock().pin(0, 9);
        reg.reset();
        assert_eq!(reg.table("v").lock().pin_count(), 0);
    }
}
