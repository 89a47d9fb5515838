//! `served_mix`: `dualtabled` in this process, two client connections over
//! loopback, a readings-schema table range-sharded four ways. Statements
//! take about a millisecond, so wire framing, the admission queue, the
//! session lock, the parser and shard routing are most of each one.
//!
//! A round has two parts, with a barrier after each. In part one both
//! connections run the same closed-loop mix — 70 % 400-terminal range
//! select, 20 % point UPDATE, 5 % `BEGIN; UPDATE; COMMIT`, 5 % full
//! `COUNT(*)` — in an order the seed shuffles. In part two connection 0
//! sends the statements that swing a table generation (point DELETE +
//! INSERT, COMPACT, a 50 % UPDATE) while connection 1 only reads the
//! dashboard aggregate: a transaction left open across a swing is refused
//! as a conflict, by design, and the workload is built so that no
//! statement fails.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::gen::*;
use crate::grid::{check_end_state, spec_of, write_rung};
use crate::layers::{
    counter_layers, micro_rungs, replay, span_layers, stmt_layers, trace_overhead, Replayed,
    TableFacts,
};
use crate::oracle::{Expect, GridModel};
use crate::recorder::{open_loop_schedule, Kind, Recorder, Samples};
use crate::run::{set_up, timed, Args, Exec, Lane, Layers, Outcome};
use crate::rungs::{Engine, Force, Served, Sql, TableCfg, Value, Wire};
use crate::trace::Tracer;

const TABLE: &str = "meters";
/// Terminals loaded at full scale, in four shards; never deleted.
const BASE_ROWS: usize = 40_000;
const SHARDS: i64 = 4;
const ROWS_PER_FILE: usize = 2_048;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 8;
const CONNECTIONS: usize = 2;
/// Statements of part one, per connection and round.
const MIX: usize = 60;
/// A range select covers 1/100 of the terminals: 400 at full scale.
const RANGE_SHARE: i64 = 100;
/// Open-loop rates of a traced run, statements per second.
const RATES: [(f64, &str); 3] = [
    (200.0, "server.open_p95_ms_at_200"),
    (400.0, "server.open_p95_ms_at_400"),
    (800.0, "server.open_p95_ms_at_800"),
];
/// The latency limit a rate has to meet on p95, and the generator
/// lateness past which the backlog, not the server, is what was measured.
const LIMIT_MS: f64 = 10.0;
const LAG_LIMIT_MS: f64 = 5.0;
/// Range selects sent each way to measure what the wire adds.
const WIRE_PAIRS: usize = 200;
/// The share of `--seconds` a traced run gives the round loop; the one-
/// against-two-connections comparison takes 0.1 and phase B 0.3.
const TRACED_SHARE: f64 = 0.45;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Select,
    Update,
    Txn,
    Count,
}

/// 70 / 20 / 5 / 5, in an order the seed shuffles: every run sends the
/// same statements whatever the seed.
fn mix(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::with_capacity(MIX);
    for (op, share) in [
        (Op::Select, 70),
        (Op::Update, 20),
        (Op::Txn, 5),
        (Op::Count, 5),
    ] {
        ops.extend(std::iter::repeat_n(op, MIX * share / 100));
    }
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.range(0, i as i64) as usize);
    }
    ops
}

/// What both connections share.
struct Shared {
    engine: Engine,
    model: Mutex<GridModel>,
    /// The base terminals as loaded: their readings never change.
    base_model: GridModel,
    base: i64,
    /// Churn rows inserted so far. One is in the table at any time, above
    /// the base terminals: part two deletes it and inserts the next.
    churned: AtomicI64,
}

struct Conn<'a> {
    id: usize,
    shared: &'a Shared,
    wire: Wire,
    /// An in-process session on the same catalog, for the replays'
    /// `Session::execute` rung.
    local: Sql,
    rng: Rng,
    /// Point updates sent so far.
    updates: i64,
}

impl<'a> Conn<'a> {
    fn open(id: usize, shared: &'a Shared, served: &Served, seed: u64) -> Conn<'a> {
        Conn {
            id,
            shared,
            wire: served.connect(),
            local: shared.engine.session(),
            rng: Rng::new(seed ^ (0xC0 + id as u64)),
            updates: 0,
        }
    }

    fn send(&mut self, lane: &mut Lane, kind: Kind, stmt: GridStmt) {
        let shared = self.shared;
        let (payload, expect) = {
            let mut model = shared
                .model
                .lock()
                .expect("no thread panics holding the model");
            let payload = model.payload(&stmt);
            let expect = match &stmt {
                // Reads beside a writer are checked for what must hold
                // whatever they saw; `plausible` below does it.
                GridStmt::Dashboard | GridStmt::Count => Expect::Nothing,
                GridStmt::IdRange { lo, hi } => {
                    Expect::Rows(vec![shared.base_model.id_range(*lo, *hi)])
                }
                _ => model.apply(&stmt),
            };
            (payload, expect)
        };
        let text = stmt.sql(TABLE, &payload);
        let sent = lane.send(&mut self.wire, kind, &text, &expect);
        let Some(reply) = &sent.reply else {
            return;
        };
        let int = |v: &Value| v.as_i64().unwrap_or(-1);
        let total_ok = |count: i64| (shared.base..=shared.base + 1).contains(&count);
        let plausible = match &stmt {
            GridStmt::Count => reply.rows.len() == 1 && total_ok(int(&reply.rows[0][0])),
            GridStmt::Dashboard => {
                reply.rows.iter().all(|r| (0..=9).contains(&int(&r[0])))
                    && total_ok(reply.rows.iter().map(|r| int(&r[1])).sum())
            }
            _ => true,
        };
        if !plausible {
            lane.rec.mismatches += 1;
            eprintln!("MISMATCH {text}: {:.200?}", reply.rows);
        }
        if kind.is_full_scan_read() {
            lane.rec.scanned(shared.base as u64 + 1, sent.latency);
        }
        if let Some((top, stmt_id)) = sent.replay {
            let replayed = Replayed {
                table: TABLE,
                text: &text,
                scan: spec_of(&stmt),
                write: write_rung(&shared.engine, TABLE, &stmt, payload, reply.affected, false),
            };
            // Executing an INSERT a second time would add the row twice;
            // every other statement of the mix leaves the table as it is
            // when repeated.
            let again = (!matches!(stmt, GridStmt::Insert { .. })).then_some(&mut self.local);
            let tracer = lane.tracer.as_mut().expect("a replay implies a tracer");
            replay(&shared.engine, tracer, top, stmt_id, replayed, again);
        }
    }

    /// A terminal of this connection's parity, in the second half of a
    /// shard (the cost model samples each shard's first rows).
    fn own_terminal(&mut self) -> i64 {
        let shard = self.shared.base / SHARDS;
        let within = shard / 2 + self.rng.range(0, shard / 2 - 2);
        let id = self.rng.range(0, SHARDS - 1) * shard + within;
        id - id % 2 + self.id as i64
    }

    fn point_update(&mut self) -> GridStmt {
        let lo = self.own_terminal();
        self.updates += 1;
        GridStmt::SetStatus {
            lo,
            hi: lo + 1,
            status: 1 + self.updates % 9,
        }
    }

    fn range_select(&mut self) -> GridStmt {
        let width = self.shared.base / RANGE_SHARE;
        let lo = self.rng.range(0, self.shared.base - width);
        GridStmt::IdRange { lo, hi: lo + width }
    }

    /// `BEGIN; UPDATE; COMMIT` as one unit: one sample, one attempt.
    fn transaction(&mut self, lane: &mut Lane) {
        let stmt = self.point_update();
        let update = stmt.sql(TABLE, &[]);
        let started = Instant::now();
        let ok = ["BEGIN", update.as_str(), "COMMIT"].iter().all(|sql| {
            self.wire
                .exec(sql)
                .map_err(|e| eprintln!("FAILED {sql}: {e}"))
                .is_ok()
        });
        let latency = started.elapsed();
        if ok {
            lane.rec.ok(Kind::Txn, latency);
            self.shared.model.lock().expect("model lock").apply(&stmt);
        } else {
            lane.rec.failed(Kind::Txn);
            let _ = self.wire.exec("ROLLBACK");
        }
    }

    fn mix_statement(&mut self, lane: &mut Lane, op: Op) {
        match op {
            Op::Select => {
                let stmt = self.range_select();
                self.send(lane, Kind::Select, stmt);
            }
            Op::Update => {
                let stmt = self.point_update();
                self.send(lane, Kind::Edit, stmt);
            }
            Op::Count => self.send(lane, Kind::Count, GridStmt::Count),
            Op::Txn => self.transaction(lane),
        }
    }

    /// Part two on connection 0: the generation-swinging statements.
    fn heavy(&mut self, lane: &mut Lane, round: usize) {
        let gone = self.shared.base + self.shared.churned.fetch_add(1, Ordering::Relaxed);
        let next = gone + 1;
        self.send(lane, Kind::Q1, GridStmt::Dashboard);
        self.send(
            lane,
            Kind::Delete,
            GridStmt::DeleteIds {
                lo: gone,
                hi: gone + 1,
            },
        );
        self.send(lane, Kind::Insert, GridStmt::Insert { first: next, n: 1 });
        self.send(lane, Kind::Compact, GridStmt::Compact);
        self.send(
            lane,
            Kind::Overwrite,
            GridStmt::ResetHalf {
                r: (round % 2) as i64,
            },
        );
    }
}

/// Generate + load + start the server. The warm-up round is the caller's.
fn build(args: &Args) -> (Shared, Served) {
    let base = args.rows(BASE_ROWS) as i64;
    let cfg = TableCfg {
        rows_per_file: ROWS_PER_FILE,
        stripe_rows: ROWS_PER_FILE,
        delta_bytes: 0,
    };
    let engine = Engine::new(64 << 20, &cfg, Force::CostBased);
    let mut sql = engine.session();
    let splits: Vec<i64> = (1..SHARDS).map(|i| i * base / SHARDS).collect();
    sql.create_table(TABLE, READINGS_COLUMNS, "DUALTABLE", "zdjh", &splits);
    // The base terminals and the first churn row.
    let rows = readings_rows(args.seed, 0, base as usize + 1);
    sql.load(TABLE, rows.clone());
    let served = engine.serve(WORKERS, QUEUE_DEPTH);
    let shared = Shared {
        engine,
        model: Mutex::new(GridModel::new(args.seed, &rows)),
        base_model: GridModel::new(args.seed, &rows[..base as usize]),
        base,
        churned: AtomicI64::new(0),
    };
    (shared, served)
}

/// What the round loop's two threads coordinate through.
struct Sync {
    barrier: Barrier,
    stop: AtomicBool,
    /// Rounds whose part two has finished.
    heavy_done: AtomicUsize,
}

/// What connection 0 measures about the rounds.
#[derive(Default)]
struct Rounds {
    part_one_s: f64,
    traced: Vec<bool>,
}

/// One connection's side of the round loop, until `seconds` have passed
/// and at least two rounds are done.
fn round_loop(
    conn: &mut Conn<'_>,
    lane: &mut Lane,
    sync: &Sync,
    seconds: f64,
    trace: bool,
) -> Rounds {
    let started = Instant::now();
    let mut rounds = Rounds::default();
    for round in 0.. {
        let round_started = Instant::now();
        lane.tracing = trace && round % 2 == 0;
        for op in mix(&mut conn.rng) {
            conn.mix_statement(lane, op);
        }
        sync.barrier.wait();
        if conn.id == 0 {
            rounds.part_one_s += round_started.elapsed().as_secs_f64();
            rounds.traced.push(lane.tracing);
            conn.heavy(lane, round);
            sync.heavy_done.store(round + 1, Ordering::Release);
            lane.rec.rounds.push(round_started.elapsed().as_secs_f64());
            let enough = round >= 1 && started.elapsed().as_secs_f64() >= seconds;
            sync.stop.store(enough, Ordering::Release);
        } else {
            loop {
                conn.send(lane, Kind::Q1, GridStmt::Dashboard);
                if sync.heavy_done.load(Ordering::Acquire) > round {
                    break;
                }
            }
        }
        sync.barrier.wait();
        if sync.stop.load(Ordering::Acquire) {
            break;
        }
    }
    rounds
}

/// Runs the round loop on both connections. Returns the two lanes, what
/// connection 0 measured, and the wall time.
fn closed_loop(
    conns: &mut [Conn<'_>],
    lanes: &mut [Lane],
    seconds: f64,
    trace: bool,
) -> (Rounds, f64) {
    let sync = Sync {
        barrier: Barrier::new(CONNECTIONS),
        stop: AtomicBool::new(false),
        heavy_done: AtomicUsize::new(0),
    };
    let started = Instant::now();
    let rounds = std::thread::scope(|scope| {
        let sync = &sync;
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lanes.iter_mut())
            .map(|(conn, lane)| scope.spawn(move || round_loop(conn, lane, sync, seconds, trace)))
            .collect();
        let mut all: Vec<Rounds> = handles
            .into_iter()
            .map(|h| h.join().expect("a connection thread ends cleanly"))
            .collect();
        all.swap_remove(0)
    });
    (rounds, started.elapsed().as_secs_f64())
}

/// Part one's mix only, on the first `n` connections, for `seconds`.
/// Returns statements per second and the range select's median.
fn mix_only(conns: &mut [Conn<'_>], n: usize, seconds: f64, failures: &mut u64) -> (f64, f64) {
    let started = Instant::now();
    let recs: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns[..n]
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let mut lane = Lane::new(None);
                    while started.elapsed().as_secs_f64() < seconds {
                        for op in mix(&mut conn.rng) {
                            conn.mix_statement(&mut lane, op);
                        }
                    }
                    lane.rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a mix thread ends cleanly"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut all = Recorder::default();
    for r in &recs {
        all.merge(r);
    }
    *failures += all.failures();
    (
        all.attempted() as f64 / wall,
        all.samples(Kind::Select).p50().unwrap_or(f64::NAN),
    )
}

/// Phase B: the mix at a fixed arrival rate. Statement `i` is due at
/// `i / rate` and goes to connection `i mod 2`; its latency runs from the
/// instant it was due. Returns the latencies and the generator's lateness.
fn open_loop(
    conns: &mut [Conn<'_>],
    rate: f64,
    seconds: f64,
    failures: &mut u64,
) -> (Samples, Samples) {
    let schedule = open_loop_schedule(rate, seconds);
    let origin = Instant::now();
    let results: Vec<(Samples, Samples, u64)> = std::thread::scope(|scope| {
        let schedule = &schedule;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let ops = mix(&mut conn.rng);
                    let (mut latency, mut lag) = (Samples::default(), Samples::default());
                    let mut lane = Lane::new(None);
                    for (i, due) in schedule
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % CONNECTIONS == c)
                    {
                        if let Some(wait) = due.checked_sub(origin.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        lag.push(origin.elapsed().saturating_sub(*due));
                        let before = lane.rec.failures();
                        conn.mix_statement(&mut lane, ops[i / CONNECTIONS % ops.len()]);
                        if lane.rec.failures() > before {
                            latency.push_failed();
                        } else {
                            latency.push(origin.elapsed().saturating_sub(*due));
                        }
                    }
                    (latency, lag, lane.rec.failures())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an open-loop thread ends cleanly"))
            .collect()
    });
    let (mut latency, mut lag) = (Samples::default(), Samples::default());
    for (l, g, f) in &results {
        latency.extend(l);
        lag.extend(g);
        *failures += f;
    }
    (latency, lag)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Dropping a set-up's server drains it and joins its threads.
    let (shared, served) = set_up(&mut out.setups, || {
        let (shared, served) = build(args);
        let mut conns: Vec<Conn<'_>> = (0..CONNECTIONS)
            .map(|c| Conn::open(c, &shared, &served, args.seed ^ 0xAA))
            .collect();
        let mut lanes: Vec<Lane> = (0..CONNECTIONS).map(|_| Lane::new(None)).collect();
        // Two rounds: the second overwrites the other parity.
        closed_loop(&mut conns, &mut lanes, 0.0, false);
        let failed: u64 = lanes.iter().map(|l| l.rec.failures()).sum();
        assert_eq!(failed, 0, "the warm-up rounds must pass");
        drop(conns);
        (shared, served)
    });
    let mut conns: Vec<Conn<'_>> = (0..CONNECTIONS)
        .map(|c| Conn::open(c, &shared, &served, args.seed))
        .collect();

    let origin = Instant::now();
    let mut lanes: Vec<Lane> = (0..CONNECTIONS as u32)
        .map(|c| Lane::new(args.trace.then(|| Tracer::new(origin, c))))
        .collect();
    let before = shared.engine.counters(TABLE);
    let seconds = args.seconds * if args.trace { TRACED_SHARE } else { 1.0 };
    let (rounds, wall) = closed_loop(&mut conns, &mut lanes, seconds, args.trace);
    let after = shared.engine.counters(TABLE);
    out.measured_s = wall;
    let n_rounds = lanes[0].rec.rounds.len();
    out.stmts_per_s = (n_rounds * MIX * CONNECTIONS) as f64 / rounds.part_one_s;

    let mut rec = lanes[0].rec.clone();
    rec.merge(&lanes[1].rec);
    out.sizes = vec![
        ("meters_rows", shared.base as u64 + 1),
        ("shards", SHARDS as u64),
        ("workers", WORKERS as u64),
        ("queue_depth", QUEUE_DEPTH as u64),
        ("connections", CONNECTIONS as u64),
        ("rounds", n_rounds as u64),
        ("statements", rec.attempted()),
    ];

    if args.trace {
        let layers = &mut out.layers;
        let base_rows = readings_rows(args.seed, 0, shared.base as usize);
        // A point update writes one 8-byte cell; the 50 % one, half the table's.
        let user_bytes = 8 * (rec.samples(Kind::Edit).len() + rec.samples(Kind::Txn).len()) as u64
            + 8 * (shared.base as u64 / 2) * n_rounds as u64;
        counter_layers(&before, &after, user_bytes, raw_bytes(&base_rows), layers);
        layers.insert(
            "bench.trace_overhead_share",
            trace_overhead(&lanes[0].rec.rounds, &rounds.traced),
        );
        stmt_layers(&rec, layers);
        let mut extra_failures = 0;
        served_layers(args, &mut conns, layers, &mut extra_failures);
        rec.mismatches += extra_failures;
        let range = conns[0].range_select();
        micro_rungs(
            &shared.engine,
            &TableFacts {
                table: TABLE,
                filter: spec_of(&range).expect("a range select scans"),
                group: (R_STATUS, R_STATUS, R_RCJL),
            },
            layers,
        );
        // The range select reads the shard that owns its terminals to
        // return one row.
        layers.insert(
            "hiveql.rows_examined_per_row_returned",
            (shared.base / SHARDS) as f64,
        );
        for lane in &mut lanes {
            if let Some(tr) = lane.tracer.take() {
                out.spans.extend(tr.spans);
            }
        }
        span_layers(&out.spans, layers);
    }
    drop(conns);
    let mut last = Lane::new(None);
    check_end_state(
        &mut shared.engine.session(),
        &mut shared.model.lock().expect("model lock"),
        TABLE,
        &mut last,
    );
    rec.merge(&last.rec);
    served.shutdown();
    out.rec = rec;
    out
}

/// The server's own layer metrics: what a second connection buys, and
/// phase B — the mix at three fixed arrival rates.
fn served_layers(args: &Args, conns: &mut [Conn<'_>], layers: &mut Layers, failures: &mut u64) {
    // What the wire adds: the same range selects over the connection and
    // in process, turn about, on a server with nothing else to do.
    let (mut over_wire, mut in_process) = (Samples::default(), Samples::default());
    let conn = &mut conns[0];
    for _ in 0..WIRE_PAIRS {
        let text = conn.range_select().sql(TABLE, &[]);
        let (reply, s) = timed(|| conn.wire.exec(&text));
        *failures += u64::from(reply.is_err());
        over_wire.push(Duration::from_secs_f64(s));
        let (reply, s) = timed(|| conn.local.execute(&text));
        *failures += u64::from(reply.is_err());
        in_process.push(Duration::from_secs_f64(s));
    }
    let p50_us = |s: &Samples| s.p50().unwrap_or(f64::NAN) * 1e3;
    layers.insert(
        "server.wire_overhead_us",
        p50_us(&over_wire) - p50_us(&in_process),
    );

    let (qps_one, p50_one) = mix_only(conns, 1, args.seconds * 0.05, failures);
    let (qps_two, p50_two) = mix_only(conns, CONNECTIONS, args.seconds * 0.05, failures);
    layers.insert("server.scaling", qps_two / qps_one);
    layers.insert("server.concurrency_penalty", p50_two / p50_one);

    let mut max_ok = 0.0;
    for (rate, key) in RATES {
        let (latency, lag) = open_loop(conns, rate, args.seconds * 0.1, failures);
        let p95 = latency.tail(0.95).unwrap_or(0.0);
        let lag_p95_ms = lag.tail(0.95).unwrap_or(0.0);
        layers.insert(key, p95);
        if rate == 400.0 {
            layers.insert("server.generator_lag_p95_us", lag_p95_ms * 1e3);
        }
        // A rate holds when its tail meets the limit and the generator
        // kept to its schedule: a growing backlog shows as lateness.
        if p95 > 0.0 && p95 <= LIMIT_MS && lag_p95_ms <= LAG_LIMIT_MS {
            max_ok = rate;
        }
    }
    layers.insert("server.max_rate_ok", max_ok);
}
