//! Background incremental compaction (DESIGN.md §15).
//!
//! The paper's COMPACT is all-or-nothing and foreground: it rewrites every
//! master file and blocks all other operations while it runs. This module
//! holds the table-side pieces of the *incremental* alternative — fold only
//! the k dirtiest files, in the background, without ever blocking DML:
//!
//! * [`FoldOutcome`] — what one maintenance cycle
//!   ([`crate::DualTableStore::compact_incremental`]) did;
//! * [`CompactionController`] — the shared mode/state cell behind
//!   `SET COMPACTION = AUTO | OFF` and `SHOW COMPACTION`, read by the
//!   server's maintenance tick every time it runs.
//!
//! The fold itself lives in `store.rs` (candidate scoring, the
//! carried/folded build, the incremental swing) because it is made of the
//! same MVCC machinery as the full two-phase COMPACT. The tick that drives
//! cycles is `dualtabled`'s: a job in the idle lane of its
//! `dt_engine::ServicePool`, which runs it when no statement is queued,
//! or between statements once they have put it off for 100 ms.

use std::sync::atomic::{AtomicU8, Ordering};

use parking_lot::Mutex;

/// Outcome of one incremental fold cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldOutcome {
    /// A fold swung in: `files` master files merged with their overlays
    /// into fresh files, `rows` rows written into the new generation
    /// (carried copies included).
    Folded {
        /// Master files folded (their attached rows are retired).
        files: usize,
        /// Rows written into the new generation.
        rows: u64,
    },
    /// A concurrent commit won the swing race; the built generation was
    /// abandoned. Clean retry next cycle.
    LostRace,
    /// Nothing was dirty enough to fold.
    Clean,
}

/// Whether the maintenance daemon may fold at all (`SET COMPACTION`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionMode {
    /// The daemon folds whenever the fold score finds work (the default).
    #[default]
    Auto,
    /// The daemon idles; `COMPACT TABLE … INCREMENTAL` still works.
    Off,
}

/// What the maintenance daemon is doing right now (`SHOW COMPACTION`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactorState {
    /// Waiting for the next tick.
    #[default]
    Idle,
    /// A fold cycle is in flight.
    Running,
}

/// The shared mode/state cell coordinating sessions (`SET COMPACTION`,
/// `SHOW COMPACTION`) with the background maintenance daemon. One per
/// environment.
#[derive(Debug, Default)]
pub struct CompactionController {
    mode: AtomicU8,
    state: AtomicU8,
    /// Why the daemon switched compaction off, empty unless it did. Also
    /// guards every mode change, so the mode and the reason agree.
    reason: Mutex<String>,
}

impl CompactionController {
    /// A controller in the default `AUTO` / `Idle` position.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current mode.
    pub fn mode(&self) -> CompactionMode {
        match self.mode.load(Ordering::Acquire) {
            0 => CompactionMode::Auto,
            _ => CompactionMode::Off,
        }
    }

    /// Flips the mode (`SET COMPACTION = AUTO | OFF`) and clears the
    /// reason of a daemon that switched itself off.
    pub fn set_mode(&self, mode: CompactionMode) {
        self.switch(mode, String::new());
    }

    /// Switches compaction off for `reason`: the daemon's response to
    /// repeated permanent failures. `SET COMPACTION = AUTO` re-arms it.
    pub fn switch_off(&self, reason: String) {
        self.switch(CompactionMode::Off, reason);
    }

    fn switch(&self, mode: CompactionMode, reason: String) {
        let mut current = self.reason.lock();
        self.mode.store(mode as u8, Ordering::Release);
        *current = reason;
    }

    /// Why the daemon switched compaction off (`SHOW COMPACTION`'s
    /// `reason`); empty unless it did.
    pub fn reason(&self) -> String {
        self.reason.lock().clone()
    }

    /// The daemon's current state.
    pub fn state(&self) -> CompactorState {
        match self.state.load(Ordering::Acquire) {
            0 => CompactorState::Idle,
            _ => CompactorState::Running,
        }
    }

    /// Publishes the daemon's state (the daemon is the only writer).
    pub fn set_state(&self, state: CompactorState) {
        self.state.store(state as u8, Ordering::Release);
    }

    /// `SHOW COMPACTION`'s rendering of the mode.
    pub fn mode_name(&self) -> &'static str {
        match self.mode() {
            CompactionMode::Auto => "auto",
            CompactionMode::Off => "off",
        }
    }

    /// `SHOW COMPACTION`'s rendering of the state.
    pub fn state_name(&self) -> &'static str {
        match self.state() {
            CompactorState::Idle => "idle",
            CompactorState::Running => "running",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompactionConfig, DualTableConfig, PlanMode};
    use crate::cost::RatioHint;
    use crate::env::DualTableEnv;
    use crate::store::DualTableStore;
    use dt_common::{DataType, Schema, Value};

    #[test]
    fn controller_mode_and_state_roundtrip() {
        let c = CompactionController::new();
        assert_eq!(c.mode(), CompactionMode::Auto);
        assert_eq!(c.state(), CompactorState::Idle);
        c.set_mode(CompactionMode::Off);
        assert_eq!(c.mode(), CompactionMode::Off);
        assert_eq!(c.mode_name(), "off");
        assert_eq!(c.reason(), "");
        c.switch_off("footer checksum mismatch".into());
        assert_eq!(c.mode(), CompactionMode::Off);
        assert_eq!(c.reason(), "footer checksum mismatch");
        c.set_mode(CompactionMode::Auto);
        assert_eq!(c.mode(), CompactionMode::Auto);
        assert_eq!(c.reason(), "", "AUTO clears the reason");
        for (state, name) in [
            (CompactorState::Running, "running"),
            (CompactorState::Idle, "idle"),
        ] {
            c.set_state(state);
            assert_eq!(c.state(), state);
            assert_eq!(c.state_name(), name);
        }
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Float64)])
    }

    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int64(i), Value::Float64(i as f64)]
    }

    fn config() -> DualTableConfig {
        DualTableConfig {
            rows_per_file: 8,
            plan_mode: PlanMode::AlwaysEdit,
            compaction: CompactionConfig {
                max_files_per_cycle: 1,
                min_attached_cells: 1,
            },
            ..DualTableConfig::default()
        }
    }

    /// Satellite regression: a half-folded table — the fold swung but its
    /// attached-row retirement was gated off (here by a pinned reader of
    /// the old generation, the same state a crash between swing and sweep
    /// leaves) — must, after crash-and-reopen, still skip clean files and
    /// never skip dirty ones. The open-time residue sweep retires exactly
    /// the folded file's presence and data rows, nothing else.
    #[test]
    fn half_folded_table_keeps_presence_honest_after_reopen() {
        let env = DualTableEnv::in_memory();
        let t = DualTableStore::create(&env, "ht", schema(), config()).unwrap();
        t.insert_rows((0..24).map(row)).unwrap(); // files 1, 2, 3
                                                  // File 3 (rows 16..24) very dirty, file 1 (row 0) slightly dirty,
                                                  // file 2 clean — with k = 1 the fold must pick file 3.
        t.update(
            |r| r[0].as_i64().unwrap() >= 16,
            &[(1, Box::new(|_| Ok(Value::Float64(-1.0))))],
            RatioHint::Explicit(0.3),
        )
        .unwrap();
        t.update(
            |r| r[0].as_i64().unwrap() == 0,
            &[(1, Box::new(|_| Ok(Value::Float64(-2.0))))],
            RatioHint::Explicit(0.05),
        )
        .unwrap();
        let candidates = t.fold_candidates().unwrap();
        assert_eq!(candidates, vec![3], "densest file wins the score");

        // A pinned reader of the old generation defers the attached-row
        // retirement at swing time — the durable state is then identical
        // to a crash between the swing and the sweep.
        let pin = t.begin_snapshot().unwrap();
        let outcome = t.compact_incremental().unwrap();
        assert_eq!(outcome, FoldOutcome::Folded { files: 1, rows: 24 });
        let index = t.presence_index().unwrap();
        assert!(
            index.files.contains_key(&3),
            "folded file's rows survive as residue while the pin lives"
        );
        // The pinned reader still sees its epoch exactly.
        assert_eq!(pin.count().unwrap(), 24);
        drop(pin);

        env.crash_and_reopen().unwrap();
        let t = DualTableStore::open(&env, "ht", schema(), config()).unwrap();

        // Residue swept: the folded file's presence entry is gone, the
        // dirty carried file's entry survives, the clean file never had
        // one.
        let index = t.presence_index().unwrap();
        assert!(!index.files.contains_key(&3), "fold residue swept at open");
        assert!(index.files.contains_key(&1), "dirty file still indexed");
        assert!(!index.files.contains_key(&2), "clean file never indexed");

        // Clean files are skipped, dirty ones are not: one scan must skip
        // exactly the clean carried file and the freshly folded file.
        let skipped_before = env.health.snapshot().attached_scans_skipped;
        let rows = t.scan_all().unwrap();
        let skipped = env.health.snapshot().attached_scans_skipped - skipped_before;
        assert_eq!(skipped, 2, "clean + folded files skip the attached scan");
        assert_eq!(rows.len(), 24);
        assert_eq!(
            rows[0].1[1],
            Value::Float64(-2.0),
            "dirty file never skipped"
        );
        for (_, r) in &rows[16..] {
            assert_eq!(r[1], Value::Float64(-1.0), "folded values are material");
        }
        // Ledger: the single cycle is exactly one started + one completed.
        let snap = env.health.snapshot();
        assert_eq!(snap.compactions_started, 1);
        assert_eq!(snap.compactions_completed, 1);
        assert_eq!(snap.compactions_lost_race + snap.compactions_aborted, 0);
    }

    /// An incremental cycle on a table with nothing dirty is a no-op and
    /// never opens the health ledger.
    #[test]
    fn clean_table_cycle_is_free() {
        let env = DualTableEnv::in_memory();
        let t = DualTableStore::create(&env, "c", schema(), config()).unwrap();
        t.insert_rows((0..8).map(row)).unwrap();
        assert_eq!(t.compact_incremental().unwrap(), FoldOutcome::Clean);
        assert_eq!(env.health.snapshot().compactions_started, 0);
        assert_eq!(t.pinned_snapshots(), 0, "no-op cycle leaks no pin");
    }

    /// `max_files_per_cycle: 0` disables folding outright.
    #[test]
    fn zero_budget_disables_folding() {
        let env = DualTableEnv::in_memory();
        let mut cfg = config();
        cfg.compaction.max_files_per_cycle = 0;
        let t = DualTableStore::create(&env, "z", schema(), cfg).unwrap();
        t.insert_rows((0..8).map(row)).unwrap();
        t.update(
            |_| true,
            &[(1, Box::new(|_| Ok(Value::Float64(0.0))))],
            RatioHint::Explicit(1.0),
        )
        .unwrap();
        assert!(t.fold_candidates().unwrap().is_empty());
        assert_eq!(t.compact_incremental().unwrap(), FoldOutcome::Clean);
    }
}
