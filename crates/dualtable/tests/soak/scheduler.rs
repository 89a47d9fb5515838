//! The seeded scheduler of the soak harness (DESIGN.md §6). The wire soak
//! includes this file by path; its parent module provides the model's
//! types.

use std::ops::Range;

use dt_common::{FaultKind, Rng64};

use super::{Hit, Job, Model, Set, Step, SHARDS};

/// The fault kinds a soak's storage may raise and retry.
pub const TRANSIENT: &[FaultKind] = &[
    FaultKind::TransientWriteError,
    FaultKind::TransientReadError,
];

/// How many operations a [`Step::Fault`] fails in a row: more than the
/// retry budget's four attempts, so the statement it lands in fails.
pub const OUTAGE: u32 = 6;

/// Relative weights of what a session with no open transaction does next.
#[derive(Clone, Copy, Default)]
pub struct Mix {
    pub begin: u64,
    pub insert: u64,
    pub update: u64,
    pub delete: u64,
    pub rewrite: u64,
    pub overwrite: u64,
    pub compact: u64,
    pub fold: u64,
    pub build: u64,
    /// A transient fault that outlasts the retry budget.
    pub fault: u64,
    /// Largest autocommit INSERT, in rows.
    pub rows: u64,
}

/// Owns every interleaving decision of a soak: which session steps next,
/// what it does, when the compactor ticks, when a fault arms and when a
/// connection drops. A pure function of its seed and the model.
pub struct Scheduler {
    rng: Rng64,
    sessions: u64,
    tables: usize,
    mix: Mix,
    /// Next fresh id per shard range (all tables share one id space).
    next: [i64; SHARDS],
}

impl Scheduler {
    pub fn new(seed: u64, sessions: u64, tables: usize, mix: Mix, first: [i64; SHARDS]) -> Self {
        Scheduler {
            rng: Rng64::new(seed),
            sessions,
            tables,
            mix,
            next: first,
        }
    }

    /// 1 to `max` fresh ids in one shard's range.
    fn fresh(&mut self, max: u64) -> Range<i64> {
        let n = 1 + self.rng.next_below(max) as i64;
        let shard = self.rng.next_below(SHARDS as u64) as usize;
        let lo = self.next[shard];
        self.next[shard] += n;
        lo..lo + n
    }

    fn hit(&mut self) -> Hit {
        let divisor = self.rng.range_i64(2, 7);
        (divisor, self.rng.range_i64(0, divisor - 1))
    }

    fn set(&mut self) -> Set {
        match self.rng.next_below(2) {
            0 => Set::To(self.rng.range_i64(-50, 50)),
            _ => Set::Add(self.rng.range_i64(1, 9)),
        }
    }

    pub fn next(&mut self, model: &Model) -> Step {
        let (s, t) = (
            self.rng.next_below(self.sessions) as usize,
            self.rng.next_below(self.tables as u64) as usize,
        );
        if model.is_open(s) {
            return match self.rng.next_below(12) {
                0..=2 => Step::TxnUpdate(s, t, self.hit(), self.set()),
                3 => Step::TxnDelete(s, t, self.hit()),
                4 | 5 => Step::TxnInsert(s, t, self.fresh(3)),
                6 | 7 => Step::Check(s),
                8 | 9 => Step::Commit(s),
                10 => Step::Rollback(s),
                _ => Step::Drop(s),
            };
        }
        if model.has_job() && self.rng.next_below(3) == 0 {
            return if self.rng.next_below(4) == 0 {
                Step::Abandon
            } else {
                Step::Swing
            };
        }
        let m = self.mix;
        let weights = [
            m.begin,
            m.insert,
            m.update,
            m.delete,
            m.rewrite,
            m.overwrite,
            m.compact,
            m.fold,
            m.build,
            m.fault,
        ];
        let mut pick = self.rng.next_below(weights.iter().sum());
        let kind = weights
            .iter()
            .position(|&w| pick.checked_sub(w).map(|p| pick = p).is_none())
            .unwrap();
        let fold = [Job::Compact, Job::Overwrite, Job::Fold][self.rng.next_below(3) as usize];
        match kind {
            0 => Step::Begin(s),
            1 => Step::Insert(t, self.fresh(m.rows)),
            2 => Step::Update(t, self.hit(), self.set()),
            3 => Step::Delete(t, self.hit()),
            4 => Step::Rewrite(
                t,
                self.hit(),
                (self.rng.next_below(2) == 0).then(|| self.set()),
            ),
            5 => Step::Overwrite(t),
            6 => Step::Compact(t),
            7 => Step::Fold(t),
            8 => Step::Build(fold),
            _ => Step::Fault(*self.rng.choose(TRANSIENT)),
        }
    }
}
