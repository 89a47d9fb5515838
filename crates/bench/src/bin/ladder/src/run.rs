//! What the four workloads share: the run's arguments, the one way a
//! statement is sent, timed and checked, and the shape of a result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::oracle::{agrees, Expect};
use crate::recorder::{Kind, Recorder};
use crate::rungs::{Plan, Reply, Sql, Wire};
use crate::trace::{Span, Tracer};

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    /// How long the measured part runs. Rounds are whole: the part ends
    /// with the first round that finishes after this many seconds.
    pub seconds: f64,
    pub trace: bool,
    /// `--check`: 1/20 of the rows, for a pass in seconds. Not comparable.
    pub check: bool,
}

impl Args {
    /// A row count at this run's scale.
    pub fn rows(&self, full: usize) -> usize {
        if self.check {
            full / 20
        } else {
            full
        }
    }
}

/// One statement in 10 is replayed rung by rung in a traced run.
pub const REPLAY_EVERY: u32 = 10;

/// The share of `--seconds` a traced run gives its round loop: the
/// replays, the micro-rungs and the comparators need the rest.
pub const TRACED_LOOP_SHARE: f64 = 0.6;

/// Times set-up runs in one process; `setup_s` is their median.
const SETUPS: usize = 3;

/// A per-layer metric value, keyed by its name in `metrics::PER_LAYER`.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub rec: Recorder,
    /// Seconds of each set-up (generate + load + warm-up).
    pub setups: Vec<f64>,
    /// Statements per second of the closed loop, as the workload defines it.
    pub stmts_per_s: f64,
    /// Wall seconds of the measured part.
    pub measured_s: f64,
    pub layers: Layers,
    pub spans: Vec<Span>,
    /// Row counts, cache sizes and the like, for the run record.
    pub sizes: Vec<(&'static str, u64)>,
}

/// Something that executes statement text: an in-process session or a
/// client connection.
pub trait Exec {
    const LAYER: &'static str;
    const CALL: &'static str;
    fn exec(&mut self, sql: &str) -> Result<Reply, String>;
}

impl Exec for Sql {
    const LAYER: &'static str = "hiveql";
    const CALL: &'static str = "Session::execute";
    fn exec(&mut self, sql: &str) -> Result<Reply, String> {
        self.execute(sql)
    }
}

impl Exec for Wire {
    const LAYER: &'static str = "server";
    const CALL: &'static str = "Client::query";
    fn exec(&mut self, sql: &str) -> Result<Reply, String> {
        self.query(sql)
    }
}

/// A statement that was sent: its latency, and its top span when traced.
pub struct Sent {
    pub latency: Duration,
    pub reply: Option<Reply>,
    /// `(top span id, statement id)` when this statement is to be replayed.
    pub replay: Option<(u32, u32)>,
}

/// One thread's statement counter, recorder and (in a traced run) tracer.
pub struct Lane {
    pub rec: Recorder,
    pub tracer: Option<Tracer>,
    next_stmt: u32,
    /// Statements sent while tracing: every tenth of these is replayed.
    traced_stmts: u32,
    /// Spans are recorded only while this is set: a traced run alternates
    /// traced and untraced rounds to measure what tracing costs.
    pub tracing: bool,
}

impl Lane {
    pub fn new(tracer: Option<Tracer>) -> Lane {
        Lane {
            rec: Recorder::default(),
            tracing: tracer.is_some(),
            tracer,
            next_stmt: 0,
            traced_stmts: 0,
        }
    }

    /// Sends `sql`, times it, and checks the reply against `expect`. A
    /// refusal or an error counts as attempted and failed; a wrong answer
    /// counts as a mismatch.
    pub fn send<E: Exec>(&mut self, exec: &mut E, kind: Kind, sql: &str, expect: &Expect) -> Sent {
        self.next_stmt += 1;
        let stmt_id = self.next_stmt;
        let started = Instant::now();
        let result = exec.exec(sql);
        let ended = Instant::now();
        let latency = ended - started;
        let reply = match result {
            Ok(reply) => {
                self.rec.ok(kind, latency);
                if !agrees(expect, &reply.rows, reply.affected) {
                    self.rec.mismatches += 1;
                    eprintln!(
                        "MISMATCH {sql:.120}\n  expected {expect:.300?}\n  got {:.300?} affected {}",
                        reply.rows, reply.affected
                    );
                }
                match reply.plan() {
                    Some(Plan::Edit) => self.rec.plans.0 += 1,
                    Some(Plan::Overwrite) => self.rec.plans.1 += 1,
                    None => {}
                }
                Some(reply)
            }
            Err(e) => {
                self.rec.failed(kind);
                eprintln!("FAILED {sql:.120}: {e}");
                None
            }
        };
        let mut replay = None;
        if self.tracing {
            if let Some(tracer) = &mut self.tracer {
                let counts = vec![("kind", kind as u64)];
                let top = tracer.record(stmt_id, E::LAYER, E::CALL, started, ended, counts);
                self.traced_stmts += 1;
                if self.traced_stmts.is_multiple_of(REPLAY_EVERY) && reply.is_some() {
                    replay = Some((top, stmt_id));
                }
            }
        }
        Sent {
            latency,
            reply,
            replay,
        }
    }
}

/// Sets up [`SETUPS`] times over, dropping each state before building the
/// next, and records how long each took. Returns the last state.
pub fn set_up<T>(seconds: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let (built, s) = timed(&mut build);
        seconds.push(s);
        state = Some(built);
    }
    state.expect("SETUPS is at least one")
}

/// Runs `round` until `seconds` have passed, at least twice. Returns the
/// wall time of the loop.
pub fn rounds_for(seconds: f64, mut round: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    let mut n = 0;
    while n < 2 || started.elapsed().as_secs_f64() < seconds {
        round(n);
        n += 1;
    }
    started.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed().as_secs_f64())
}

/// Median of three repetitions of a rung, in seconds, with the last
/// repetition's result.
pub fn rung_s<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let (r, s) = timed(&mut f);
        times.push(s);
        last = Some(r);
    }
    times.sort_by(f64::total_cmp);
    (last.expect("three repetitions ran"), times[1])
}
