//! The reference model (DESIGN.md §6). Plain data over `std` and
//! `dt_common`, so the wire soak includes this file by path.
//!
//! The model holds committed content, one `id → v` map per table, and
//! every open session: its pin (the content at its timestamp) and its own
//! buffered writes on top. It *predicts* a first-committer-wins loss and a
//! lost swing from per-store commit clocks, as the engine decides them:
//! a COMMIT loses on a store it writes if that store swung since the pin
//! or a row it patched was patched since; a swing loses if anything was
//! written or swung since its build's pin.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use dt_common::{FaultKind, Row};

/// Table arguments of a [`Step`]: the workload's table, and the unsharded
/// side table of a sharded shape.
pub const MAIN: usize = 0;
pub const SIDE: usize = 1;
/// A sharded [`MAIN`] splits at these ids into [`SHARDS`] stores.
pub const SPLITS: [i64; 2] = [100, 200];
pub const SHARDS: usize = 3;

/// Rows a statement touches: `id % .0 == .1`.
pub type Hit = (i64, i64);

pub fn hits((divisor, rem): Hit) -> impl Fn(&Row) -> bool + Sync + Copy {
    move |row| row[0].as_i64().unwrap().rem_euclid(divisor) == rem
}

/// What an UPDATE does to `v`.
#[derive(Debug, Clone, Copy)]
pub enum Set {
    To(i64),
    Add(i64),
}

impl Set {
    pub fn apply(self, v: i64) -> i64 {
        match self {
            Set::To(x) => x,
            Set::Add(d) => v + d,
        }
    }
}

/// A rewrite built aside by [`Step::Build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    Compact,
    /// INSERT OVERWRITE with every `v` bumped by 1000.
    Overwrite,
    /// An incremental fold of the dirtiest files.
    Fold,
}

/// One step. Table arguments are [`MAIN`] or [`SIDE`]; session arguments
/// are small integers naming a logical session.
#[derive(Debug, Clone)]
pub enum Step {
    /// Autocommit INSERT of these keys, as rows `v = 3 * id`.
    Insert(usize, Range<i64>),
    /// Autocommit UPDATE with an EDIT-sized ratio hint.
    Update(usize, Hit, Set),
    /// Autocommit DELETE with an EDIT-sized ratio hint.
    Delete(usize, Hit),
    /// Autocommit UPDATE (`Some`) or DELETE with a whole-table ratio hint:
    /// the cost model picks the OVERWRITE plan.
    Rewrite(usize, Hit, Option<Set>),
    /// INSERT OVERWRITE of the table's rows with every `v` bumped by 1000.
    Overwrite(usize),
    Compact(usize),
    /// One `compact_incremental` cycle (round-robin over a sharded table):
    /// the compactor's tick.
    Fold(usize),
    /// An explicit delta-tier spill of every store of the table.
    Spill(usize),
    /// The session opens one snapshot-isolation transaction per table.
    Begin(usize),
    TxnInsert(usize, usize, Range<i64>),
    TxnUpdate(usize, usize, Hit, Set),
    TxnDelete(usize, usize, Hit),
    /// Reads the session's view: its pin plus its own writes.
    Check(usize),
    /// Commits the session's transactions as one.
    Commit(usize),
    /// Ends the session: its pins drop and a generation retired under them
    /// drains.
    Rollback(usize),
    /// The session's connection drops mid-transaction; in process, a
    /// rollback.
    Drop(usize),
    /// Builds a rewrite of [`MAIN`], which must be one store, aside from a
    /// fresh pin; [`Step::Swing`] installs it.
    Build(Job),
    Swing,
    Abandon,
    /// Arms a transient fault at the next I/O that outlasts the retries
    /// (the scheduler's `OUTAGE`).
    Fault(FaultKind),
}

impl Step {
    /// An UPDATE or DELETE, as an [`Edit`].
    pub fn edit(&self) -> Option<Edit> {
        Some(match *self {
            Step::Update(t, hit, set) => (None, t, hit, Some(set), 0.01),
            Step::Delete(t, hit) => (None, t, hit, None, 0.01),
            Step::Rewrite(t, hit, set) => (None, t, hit, set, 1.0),
            Step::TxnUpdate(s, t, hit, set) => (Some(s), t, hit, Some(set), 0.01),
            Step::TxnDelete(s, t, hit) => (Some(s), t, hit, None, 0.01),
            _ => return None,
        })
    }
}

/// Applies an UPDATE (`Some` set) or DELETE of `hit` to `table`; returns
/// the ids it matched.
fn patch(table: &mut BTreeMap<i64, i64>, (divisor, rem): Hit, set: Option<Set>) -> Vec<i64> {
    let ids: Vec<i64> = table
        .keys()
        .copied()
        .filter(|id| id.rem_euclid(divisor) == rem)
        .collect();
    for id in &ids {
        let v = table.remove(id).unwrap();
        if let Some(set) = set {
            table.insert(*id, set.apply(v));
        }
    }
    ids
}

/// Why a commit or a swing loses: a swing since its pin, or a row it
/// patched that a later commit patched first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loss {
    Swing,
    Record,
}

/// An UPDATE (`Some` set) or DELETE: its session (autocommit: `None`),
/// table, rows, set, and ratio hint (1.0 picks OVERWRITE).
pub type Edit = (Option<usize>, usize, Hit, Option<Set>, f64);

/// Committed content, one ordered `id → v` map per table.
pub type State = Vec<BTreeMap<i64, i64>>;

/// What the engine reported, where only it knows: the rows a `Check` or an
/// UPDATE/DELETE saw, and which stores a step swung (a DML's plan, a
/// round-robin fold; `Some([])` after a `Build` that found nothing dirty).
#[derive(Debug, Default)]
pub struct Seen {
    pub read: Option<State>,
    pub matched: Option<u64>,
    pub swung: Option<Vec<usize>>,
}

/// An open session: the content at its pin, its view, the pinned rows it
/// patched, and the commit clock at its pin.
#[derive(Clone)]
struct Session {
    at: u64,
    base: State,
    view: State,
    patched: BTreeSet<(usize, i64)>,
}

#[derive(Clone, Default)]
pub struct Model {
    pub tables: State,
    sharded: bool,
    sessions: BTreeMap<usize, Session>,
    /// A built rewrite: its pin, and (OVERWRITE) the rows it installs.
    job: Option<(u64, Option<BTreeMap<i64, i64>>)>,
    /// The commit clock, and per store the clock of its last write and of
    /// its last swing; per `(table, id)` the clock of its last patch.
    clock: u64,
    wrote: Vec<u64>,
    swung: Vec<u64>,
    patched: BTreeMap<(usize, i64), u64>,
}

impl Model {
    pub fn new(tables: usize, sharded: bool) -> Self {
        let stores = if sharded { SHARDS + 1 } else { 1 };
        let (wrote, swung) = (vec![0; stores], vec![0; stores]);
        let tables = vec![BTreeMap::new(); tables];
        Model {
            tables,
            sharded,
            wrote,
            swung,
            ..Model::default()
        }
    }

    /// The store holding `id` of table `t`, in [`Model::stores`] order.
    pub fn store_of(&self, t: usize, id: i64) -> usize {
        match (self.sharded, t) {
            (false, _) => 0,
            (true, MAIN) => SPLITS.partition_point(|&s| s <= id),
            (true, _) => SHARDS,
        }
    }

    /// Every store of table `t`.
    fn every(&self, t: usize) -> Vec<usize> {
        match (self.sharded, t) {
            (true, MAIN) => (0..SHARDS).collect(),
            _ => vec![self.store_of(t, 0)],
        }
    }

    pub fn stores(&self) -> usize {
        self.wrote.len()
    }

    pub fn is_open(&self, s: usize) -> bool {
        self.sessions.contains_key(&s)
    }

    /// What session `s` sees: its pin plus its own writes.
    pub fn view(&self, s: usize) -> &State {
        &self.sessions[&s].view
    }

    pub fn has_job(&self) -> bool {
        self.job.is_some()
    }

    /// A session's inserted rows and patched rows, by store.
    fn writes(&self, ss: &Session) -> BTreeMap<usize, (usize, usize)> {
        let mut by_store: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for (t, view) in ss.view.iter().enumerate() {
            for &id in view.keys().filter(|id| !ss.base[t].contains_key(id)) {
                by_store.entry(self.store_of(t, id)).or_default().0 += 1;
            }
        }
        for &(t, id) in &ss.patched {
            by_store.entry(self.store_of(t, id)).or_default().1 += 1;
        }
        by_store
    }

    /// The rows session `s` inserts and patches on each store it writes.
    pub fn commit_writes(&self, s: usize) -> BTreeMap<usize, (usize, usize)> {
        self.writes(&self.sessions[&s])
    }

    /// The conflict the engine must refuse `step` with, if any. A COMMIT
    /// loses on the first store it writes, in lock (store-name) order, that
    /// swung since its pin or holds a row it patched that was patched since.
    pub fn loses(&self, step: &Step) -> Option<Loss> {
        let Step::Commit(s) = step else {
            let (at, _) = self.job.as_ref().filter(|_| matches!(step, Step::Swing))?;
            return (self.wrote[0].max(self.swung[0]) > *at).then_some(Loss::Swing);
        };
        let ss = &self.sessions[s];
        self.writes(ss).into_keys().find_map(|st| {
            let late = |&(t, id): &(usize, i64)| {
                self.store_of(t, id) == st && self.patched.get(&(t, id)) > Some(&ss.at)
            };
            let record = ss.patched.iter().any(late).then_some(Loss::Record);
            (self.swung[st] > ss.at).then_some(Loss::Swing).or(record)
        })
    }

    /// One commit: ticks the clock for the stores written and swung and the
    /// rows patched. A commit that writes nothing is no commit.
    fn land(&mut self, wrote: BTreeSet<usize>, swung: &[usize], patched: Vec<(usize, i64)>) {
        if wrote.is_empty() && swung.is_empty() {
            return;
        }
        self.clock += 1;
        wrote.into_iter().for_each(|st| self.wrote[st] = self.clock);
        swung.iter().for_each(|&st| self.swung[st] = self.clock);
        for k in patched {
            self.patched.insert(k, self.clock);
        }
    }

    /// Applies an acknowledged `step`.
    pub fn step(&mut self, step: &Step, seen: &Seen) {
        let fresh = |keys: &Range<i64>| keys.clone().map(|k| (k, k * 3));
        let swung = seen.swung.clone().unwrap_or_default();
        if let Some((s, t, hit, set, _)) = step.edit() {
            let Some(s) = s else {
                let ids = patch(&mut self.tables[t], hit, set);
                let stores = ids.iter().map(|&id| self.store_of(t, id));
                let wrote = stores.filter(|st| !swung.contains(st)).collect();
                return self.land(wrote, &swung, ids.into_iter().map(|id| (t, id)).collect());
            };
            let ss = self.sessions.get_mut(&s).unwrap();
            let pinned = patch(&mut ss.view[t], hit, set)
                .into_iter()
                .filter(|id| ss.base[t].contains_key(id));
            return ss.patched.extend(pinned.map(|id| (t, id)));
        }
        match step {
            Step::Insert(t, keys) => {
                let stores = keys.clone().map(|k| self.store_of(*t, k)).collect();
                self.tables[*t].extend(fresh(keys));
                self.land(stores, &[], vec![]);
            }
            Step::Overwrite(t) => {
                self.tables[*t].values_mut().for_each(|v| *v += 1000);
                self.land(BTreeSet::new(), &self.every(*t), vec![]);
            }
            Step::Compact(t) => self.land(BTreeSet::new(), &self.every(*t), vec![]),
            Step::Fold(_) => self.land(BTreeSet::new(), &swung, vec![]),
            Step::Begin(s) => {
                let (at, base, view) = (self.clock, self.tables.clone(), self.tables.clone());
                let patched = BTreeSet::new();
                self.sessions.insert(
                    *s,
                    Session {
                        at,
                        base,
                        view,
                        patched,
                    },
                );
            }
            Step::TxnInsert(s, t, keys) => {
                self.sessions.get_mut(s).unwrap().view[*t].extend(fresh(keys))
            }
            Step::Commit(s) => {
                let wrote = self.writes(&self.sessions[s]).into_keys().collect();
                let ss = self.sessions.remove(s).unwrap();
                for (t, view) in ss.view.iter().enumerate() {
                    let fresh = view.iter().filter(|(id, _)| !ss.base[t].contains_key(id));
                    self.tables[t].extend(fresh.map(|(&id, &v)| (id, v)));
                }
                for &(t, id) in &ss.patched {
                    self.tables[t].remove(&id);
                    self.tables[t].extend(ss.view[t].get(&id).map(|&v| (id, v)));
                }
                self.land(wrote, &[], ss.patched.into_iter().collect());
            }
            Step::Rollback(s) | Step::Drop(s) => drop(self.sessions.remove(s)),
            // A fold build that found nothing dirty built no job.
            Step::Build(_) if seen.swung.is_some() => self.job = None,
            Step::Build(job) => {
                let bumped = self.tables[MAIN].iter().map(|(&id, &v)| (id, v + 1000));
                self.job = Some((
                    self.clock,
                    (*job == Job::Overwrite).then(|| bumped.collect()),
                ));
            }
            Step::Swing => {
                if let Some((_, rows)) = self.job.take() {
                    self.tables[MAIN] = rows.unwrap_or_else(|| self.tables[MAIN].clone());
                    self.land(BTreeSet::new(), &[0], vec![]);
                }
            }
            Step::Abandon => self.job = None,
            _ => {}
        }
    }

    /// A step that returned an error applied nothing; the session or job it
    /// ends ends.
    pub fn fail(&mut self, step: &Step) {
        match step {
            Step::TxnInsert(s, ..) | Step::TxnUpdate(s, ..) | Step::TxnDelete(s, ..) => {
                self.sessions.remove(s);
            }
            Step::Commit(s) | Step::Rollback(s) | Step::Drop(s) => drop(self.sessions.remove(s)),
            Step::Swing | Step::Abandon => self.job = None,
            _ => {}
        }
    }

    /// A crash: every session and job of the dead process is gone.
    pub fn restart(&mut self) {
        let tables = std::mem::take(&mut self.tables);
        *self = Model {
            tables,
            ..Model::new(0, self.sharded)
        };
    }

    /// Judges what an acknowledged step read: a session's view, and the
    /// rows an UPDATE or DELETE matched.
    pub fn check(&self, step: &Step, seen: &Seen) -> Result<(), String> {
        if let (Step::Check(s), Some(read)) = (step, &seen.read) {
            let view = &self.sessions[s].view;
            if read != view {
                return Err(format!(
                    "session {s} read {read:?}, its pin plus its writes hold {view:?}"
                ));
            }
        }
        if let (Some((s, t, hit, _, _)), Some(got)) = (step.edit(), seen.matched) {
            let table = s.map_or(&self.tables[t], |s| &self.sessions[&s].view[t]);
            let want = table
                .keys()
                .filter(|id| id.rem_euclid(hit.0) == hit.1)
                .count() as u64;
            if got != want {
                return Err(format!("{step:?} matched {got} rows, the model {want}"));
            }
        }
        Ok(())
    }
}
