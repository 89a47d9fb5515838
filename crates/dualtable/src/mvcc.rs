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
//! * **Deferred generation GC** — a generation swing that would strand a
//!   pinned reader parks the old generation in a retired set instead of
//!   deleting it; the files (and their cached footers/blocks) are
//!   collected only when the last pin on that generation drains.
//!
//! All state is in-memory and per-process, guarded by one mutex per table:
//! pins and conflict windows are session metadata, not durable data. After
//! a crash there are no sessions, so an empty registry is the correct
//! recovered state (an insert that never committed left only staged
//! files, which the environment open deletes — see [`crate::commit`]).
//!
//! Lock order: a writer's `ops` lock (read or write) is always acquired
//! before its table's [`TableMvcc`] state mutex — a reader's pin takes
//! `ops` in read mode, then the mutex, and its unpin the mutex alone; the
//! state mutex is held across
//! the commit's KV write so the conflict check, the durable commit and the
//! bookkeeping update form one atomic step against other committers.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
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
    /// Superseded generations kept alive for pinned readers.
    retired: BTreeSet<u64>,
    /// Dead (superseded, unpinned) generations awaiting physical GC.
    drained: Vec<u64>,
    /// File-ID ranges retired with the old generations; their attached
    /// cells may be collected once `retired` empties.
    attached_retired: Vec<Range<u32>>,
    /// A full rewrite swung while a read pinned an older generation, so
    /// its truncate of the attached table waits for the sweeper
    /// ([`crate::DualTableStore::sweep_gc`]).
    pub(crate) truncate_due: bool,
    /// Highest generation number handed to an off-to-the-side build, so
    /// two concurrent rewrites never share a directory.
    build_highwater: u64,
    /// Generations currently being built off to the side. Stale-generation
    /// cleanup must not delete them out from under their writers (the
    /// build would fail with I/O errors instead of a clean swing
    /// conflict).
    building: BTreeSet<u64>,
}

impl MvccState {
    /// Registers a pin at `(gen, ts)`.
    pub(crate) fn pin(&mut self, gen: u64, ts: u64) {
        self.pins.insert(ts, gen);
    }

    /// Drops the pin taken at `ts`.
    pub(crate) fn unpin(&mut self, ts: u64) {
        self.pins.remove(&ts);
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
    /// the listing to see — and protects it from stale-generation cleanup
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
    /// `floor` is the lowest file id belonging to `new_gen`: every id
    /// below it is retired with the old generations. `own_pin_ts` is the
    /// swinging rewrite's build pin, which it is about to release and must
    /// not count as a stranded reader. Returns `true` iff `old_gen` must
    /// be kept for *another* pinned reader (deferred GC).
    pub(crate) fn note_swing(
        &mut self,
        old_gen: u64,
        new_gen: u64,
        swing_ts: u64,
        floor: u32,
        own_pin_ts: Option<u64>,
    ) -> bool {
        self.last_swing_ts = swing_ts;
        self.build_highwater = self.build_highwater.max(new_gen);
        self.retire_later(std::iter::once(1..floor));
        // Conflict windows only matter within a generation: the swing
        // retires every old record id, and new pins (ts > swing_ts) can
        // only conflict with commits after the swing.
        self.record_commits.retain(|_, ts| *ts > swing_ts);
        // File visibility records of a *pinned* old generation must
        // survive the swing: its readers still rely on them to hide files
        // committed after their pin (an absent record means always
        // visible). They are pruned when the generation drains
        // ([`MvccState::take_sweepable`]).
        let pinned_gens: BTreeSet<u64> = self.pins.values().copied().collect();
        self.file_commits
            .retain(|(g, _), _| *g >= new_gen || pinned_gens.contains(g));
        self.building.remove(&new_gen);
        let pinned = self
            .pins
            .iter()
            .any(|(&ts, &g)| g == old_gen && Some(ts) != own_pin_ts);
        if pinned {
            self.retired.insert(old_gen);
        } else {
            self.drained.push(old_gen);
        }
        pinned
    }

    /// Records a DROP TABLE: a swing no snapshot is ever past. Every
    /// transaction or rewrite another session still holds on the dropped
    /// table loses at commit, even once the name — and with it the
    /// attached table's — is reused.
    pub(crate) fn note_drop(&mut self) {
        self.last_swing_ts = u64::MAX;
    }

    /// Adds file-ID ranges whose attached cells may be collected once
    /// `retired` empties: those of a fold set that a pinned read may still
    /// see.
    pub(crate) fn retire_later(&mut self, ranges: impl IntoIterator<Item = Range<u32>>) {
        let ranges = ranges.into_iter().filter(|r| !r.is_empty());
        self.attached_retired.extend(ranges);
    }

    /// Forgets the retired attached-tier ranges without sweeping them — a
    /// full rewrite's swing truncates the whole attached table instead,
    /// which subsumes any ranged sweep.
    pub(crate) fn clear_attached_retired(&mut self) {
        self.attached_retired.clear();
        self.truncate_due = false;
    }

    /// Moves retired generations whose last pin drained into the dead
    /// list, then hands back what to collect: the dead generations (all of
    /// them once they outnumber `max_generations`) and, when no old-
    /// generation pin remains at all, the retired attached-tier ranges.
    /// Physical deletion is the caller's job — this only updates
    /// bookkeeping. With nothing retired and nothing due it allocates and
    /// walks nothing: every read's unpin runs it.
    pub(crate) fn take_sweepable(&mut self, max_generations: usize) -> (Vec<u64>, Vec<Range<u32>>) {
        let newly_dead: Vec<u64> = self
            .retired
            .iter()
            .copied()
            .filter(|g| !self.pins.values().any(|p| p == g))
            .collect();
        if !newly_dead.is_empty() {
            for g in &newly_dead {
                self.retired.remove(g);
            }
            // A drained generation has no readers left: its file visibility
            // records (kept alive by note_swing for its pins) can go too.
            self.file_commits
                .retain(|(g, _), _| !newly_dead.contains(g));
            self.drained.extend(newly_dead);
        }
        let gens = if self.drained.len() > max_generations {
            std::mem::take(&mut self.drained)
        } else {
            Vec::new()
        };
        let ranges = match self.retired.is_empty() {
            true => std::mem::take(&mut self.attached_retired),
            false => Vec::new(),
        };
        (gens, ranges)
    }

    /// Generations that must survive stale-generation cleanup: retired
    /// (pinned) ones and dead ones whose deletion is budgeted to the
    /// sweeper (so `generations_gcd` accounting stays exact).
    pub(crate) fn protected_gens(&self) -> BTreeSet<u64> {
        let mut keep: BTreeSet<u64> = self.retired.iter().copied().collect();
        keep.extend(self.drained.iter().copied());
        keep.extend(self.pins.values().copied());
        keep.extend(self.building.iter().copied());
        keep
    }

    /// Dead generations currently leaked within the `max_generations`
    /// budget (tests).
    #[cfg(test)]
    pub(crate) fn drained_count(&self) -> usize {
        self.drained.len()
    }

    /// Retired (pinned) generation count (tests).
    pub(crate) fn retired_count(&self) -> usize {
        self.retired.len()
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
        s.note_swing(0, 1, 20, 5, None);
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
        assert!(
            s.note_swing(0, 1, 20, 4, None),
            "pinned generation deferred"
        );
        s.retire_later(std::iter::once(5..6));
        assert_eq!(s.retired_count(), 1);
        let (gens, ranges) = s.take_sweepable(0);
        assert!(gens.is_empty(), "still pinned");
        assert!(ranges.is_empty(), "retired ranges wait for the pin");
        s.unpin(10);
        let (gens, ranges) = s.take_sweepable(0);
        assert_eq!(gens, vec![0]);
        assert_eq!(ranges, vec![1..4, 5..6]);
        assert_eq!(s.retired_count(), 0);
        assert_eq!(s.take_sweepable(0), (vec![], vec![]), "an empty sweep");
    }

    #[test]
    fn unpinned_swing_drains_immediately() {
        let mut s = MvccState::default();
        assert!(!s.note_swing(0, 1, 20, 4, None));
        let (gens, ranges) = s.take_sweepable(0);
        assert_eq!(gens, vec![0]);
        assert_eq!(ranges, vec![1..4]);
    }

    #[test]
    fn max_generations_budgets_dead_leak() {
        let mut s = MvccState::default();
        s.note_swing(0, 1, 10, 2, None);
        let (gens, _) = s.take_sweepable(2);
        assert!(gens.is_empty(), "1 dead <= budget 2");
        assert_eq!(s.drained_count(), 1);
        s.note_swing(1, 2, 20, 4, None);
        let (gens, _) = s.take_sweepable(2);
        assert!(gens.is_empty(), "2 dead <= budget 2");
        s.note_swing(2, 3, 30, 6, None);
        let (gens, _) = s.take_sweepable(2);
        assert_eq!(gens, vec![0, 1, 2], "over budget: sweep all");
        assert_eq!(s.drained_count(), 0);
    }

    #[test]
    fn build_generations_never_collide() {
        let mut s = MvccState::default();
        assert_eq!(s.reserve_build_gen(1), 1);
        assert_eq!(s.reserve_build_gen(1), 2, "second builder bumped");
        s.note_swing(0, 5, 10, 2, None);
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
