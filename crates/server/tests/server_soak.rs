//! The soak harness's wire front end (DESIGN.md §6): the scheduler and the
//! reference model of `crates/dualtable/tests/support/model.rs`, its steps
//! sent as SQL over [`Client`] — one connection per logical session — to a
//! deliberately small worker pool, with transient storage faults armed and
//! faults that outlast the retries. The model predicts every conflict and
//! judges every read; a failed statement applied nothing; a dropped
//! connection rolled its transaction back. Odd seeds run the HTAP delta
//! tier with a tiny budget, so the storm spills mid-flight.
//!
//! Real client threads remain for what one thread cannot drive: overload
//! bursts, some under a 1 ms deadline, and mid-transaction disconnects
//! racing the storm. The admission ledger (`accepted + shed == submitted`),
//! the drop count and the pin drain judge those.
//!
//! Runs 25 seeds; `SOAK_SEEDS=N` overrides, `SEED=n` replays one.

#[path = "../../dualtable/tests/support/model.rs"]
#[allow(dead_code)]
mod model;
#[path = "../../dualtable/tests/soak/scheduler.rs"]
mod scheduler;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dt_common::{seed_from_env, with_seed_repro, FaultPlan, Value};
use dt_hiveql::{SessionConfig, SharedCatalog, TableHandle};
use dt_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use dualtable::{DualTableEnv, DualTableStore, PlanMode};
use model::{Hit, Job, Model, Seen, Set, Step, MAIN, SHARDS};
use scheduler::{Mix, Scheduler, OUTAGE, TRANSIENT};

const IDS: i64 = 8;
const SESSIONS: u64 = 4;
const STEPS: usize = 80;
const DROPPERS: usize = 4;
const BURSTERS: usize = 3;
const BURST_STATEMENTS: usize = 30;

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect_retry(addr, Duration::from_secs(5)).expect("connect")
}

/// Sends `sql` until the server executes it: a shed statement never ran.
fn send(client: &mut Client, sql: &str) -> Result<dt_server::Response, ClientError> {
    loop {
        match client.query(sql) {
            Err(ClientError::Server(e)) if e.code == ErrorCode::ServerBusy => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ClientError::Io(e)) => panic!("{sql}: transport died mid-storm: {e}"),
            outcome => return outcome,
        }
    }
}

/// A step as SQL; `None` for a step the wire has no statement for.
fn sql(step: &Step, model: &Model) -> Option<String> {
    let set = |set: &Set| match set {
        Set::To(x) => format!("{x}"),
        Set::Add(d) => format!("v + {d}"),
    };
    let values = |rows: Vec<(i64, i64)>| {
        let rows: Vec<String> = rows.iter().map(|(id, v)| format!("({id}, {v})")).collect();
        format!("VALUES {}", rows.join(", "))
    };
    Some(match step {
        Step::Insert(_, keys) | Step::TxnInsert(_, _, keys) => {
            format!(
                "INSERT INTO soak {}",
                values(keys.clone().map(|k| (k, 3 * k)).collect())
            )
        }
        Step::Update(_, (a, b), s) | Step::TxnUpdate(_, _, (a, b), s) => {
            format!("UPDATE soak SET v = {} WHERE id % {a} = {b}", set(s))
        }
        Step::Delete(_, (a, b)) | Step::TxnDelete(_, _, (a, b)) => {
            format!("DELETE FROM soak WHERE id % {a} = {b}")
        }
        Step::Overwrite(_) if model.tables[MAIN].is_empty() => return None,
        Step::Overwrite(_) => {
            let rows = model.tables[MAIN].iter().map(|(&id, &v)| (id, v + 1000));
            format!("INSERT OVERWRITE soak {}", values(rows.collect()))
        }
        Step::Compact(_) => "COMPACT TABLE soak".into(),
        Step::Fold(_) => "COMPACT TABLE soak INCREMENTAL".into(),
        Step::Begin(_) => "BEGIN".into(),
        Step::Check(_) => "SELECT id, v FROM soak".into(),
        Step::Commit(_) => "COMMIT".into(),
        Step::Rollback(_) => "ROLLBACK".into(),
        _ => return None,
    })
}

/// The store's content, read in process with the plan disarmed.
fn content(store: &DualTableStore) -> BTreeMap<i64, i64> {
    let rows = store.scan_all().expect("verification scan").into_iter();
    rows.map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect()
}

fn soak_one_seed(seed: u64, total_shed: &AtomicU64, total_failed: &AtomicU64) {
    let plan = Arc::new(FaultPlan::seeded(seed, 6, 4_000, TRANSIENT));
    plan.set_armed(false);
    let env = DualTableEnv::in_memory_faulty(plan.clone()).expect("faulty env");
    let catalog = SharedCatalog::new();
    let mut session = SessionConfig::default();
    // The model predicts conflicts from swings it knows of: UPDATE and
    // DELETE take the EDIT plan.
    session.dualtable.plan_mode = PlanMode::AlwaysEdit;
    let delta = seed % 2 == 1;
    if delta {
        session.dualtable.delta_bytes = 256;
    }
    let config = ServerConfig {
        workers: 3,
        queue_depth: 4,
        default_deadline_ms: 0,
        session,
        ..ServerConfig::default()
    };
    let server =
        Server::start("127.0.0.1:0", env.clone(), catalog.clone(), config).expect("server");
    let addr = server.local_addr();
    let mut setup = connect(addr);
    send(
        &mut setup,
        "CREATE TABLE soak (id BIGINT, v BIGINT) STORED AS DUALTABLE",
    )
    .unwrap();
    let mut model = Model::new(1, false);
    let insert = Step::Insert(MAIN, 0..IDS);
    send(&mut setup, &sql(&insert, &model).unwrap()).unwrap();
    model.step(&insert, &Seen::default());
    drop(setup);
    let store = match catalog.get("soak").expect("table registered") {
        TableHandle::Dual(store) => store,
        _ => panic!("expected DUALTABLE"),
    };

    plan.set_armed(true);
    let mix = Mix {
        begin: 8,
        insert: 2,
        update: 2,
        delete: 1,
        overwrite: 1,
        compact: 1,
        fold: 2,
        fault: 1,
        rows: 3,
        ..Mix::default()
    };
    let mut sched = Scheduler::new(seed, SESSIONS, 1, mix, [100, 1_000, 2_000]);
    let mut clients: Vec<Client> = (0..=SESSIONS).map(|_| connect(addr)).collect();
    let (mut drops, mut failed) = (0, 0);
    std::thread::scope(|s| {
        for d in 0..DROPPERS {
            s.spawn(move || {
                let mut client = connect(addr);
                while send(&mut client, "BEGIN").is_err() {}
                if d % 2 == 0 {
                    // A buffered write that must vanish with the drop.
                    let _ = client.query("UPDATE soak SET v = v + 1000 WHERE id = 0");
                }
            });
        }
        for b in 0..BURSTERS {
            s.spawn(move || {
                let mut client = connect(addr);
                for i in 0..BURST_STATEMENTS {
                    let _ = client.query_deadline("SHOW HEALTH", u32::from((i + b) % 3 == 0));
                }
            });
        }
        for i in 0..STEPS {
            let step = sched.next(&model);
            let loses = model.loses(&step).is_some();
            let session = match step {
                Step::Begin(s) | Step::TxnInsert(s, ..) | Step::TxnUpdate(s, ..) => s,
                Step::TxnDelete(s, ..) | Step::Check(s) | Step::Commit(s) => s,
                Step::Rollback(s) | Step::Drop(s) => s,
                // Autocommit statements have a connection of their own.
                _ => SESSIONS as usize,
            };
            let client = &mut clients[session];
            let folds = env.health.snapshot().compactions_completed;
            let outcome = match (&step, sql(&step, &model)) {
                (Step::Fault(kind), _) => {
                    plan.fail_transient_next(*kind, OUTAGE);
                    continue;
                }
                (Step::Drop(_), _) => {
                    *client = connect(addr);
                    drops += 1;
                    Ok(Seen::default())
                }
                (_, None) => continue,
                // A SQL session pins a table when it first touches it: the
                // model's BEGIN is BEGIN plus a read.
                (Step::Begin(_), Some(q)) => send(client, &q)
                    .and_then(|_| send(client, "SELECT COUNT(*) FROM soak"))
                    .map(|_| Seen::default()),
                (_, Some(q)) => send(client, &q).map(|r| {
                    let pairs = r
                        .rows
                        .iter()
                        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()));
                    let folded = env.health.snapshot().compactions_completed > folds;
                    Seen {
                        read: matches!(step, Step::Check(_)).then(|| vec![pairs.collect()]),
                        matched: step.edit().map(|_| r.affected),
                        swung: folded.then(|| vec![0]),
                    }
                }),
            };
            if std::env::var("SOAK_TRACE").is_ok() {
                eprintln!("step {i}: {step:?} loses={loses} ok={}", outcome.is_ok());
            }
            match outcome {
                Ok(seen) => {
                    assert!(
                        !loses,
                        "step {i}: {step:?} committed, the model predicted a conflict"
                    );
                    model
                        .check(&step, &seen)
                        .unwrap_or_else(|e| panic!("step {i}: {e}"));
                    model.step(&step, &seen);
                }
                Err(e) => {
                    let conflict = e.server().is_some_and(|e| e.code == ErrorCode::Conflict);
                    assert!(loses || !conflict, "step {i}: {step:?}: unpredicted {e}");
                    failed +=
                        u64::from(!conflict && !matches!(step, Step::Begin(_) | Step::Check(_)));
                    // The server may keep a transaction whose statement
                    // failed: end it on both sides.
                    while session < SESSIONS as usize
                        && send(client, "ROLLBACK").is_err_and(|e| {
                            e.server()
                                .is_none_or(|e| e.code != ErrorCode::InvalidArgument)
                        })
                    {}
                    model.fail(&step);
                    model.fail(&Step::Rollback(session));
                    plan.set_armed(false);
                    assert_eq!(
                        content(&store),
                        model.tables[MAIN],
                        "step {i}: a failed {step:?} applied"
                    );
                    plan.set_armed(true);
                }
            }
        }
    });
    // Closing a connection with its transaction open is a drop too.
    drops += (0..SESSIONS as usize).filter(|&s| model.is_open(s)).count();
    drop(clients);
    plan.heal_and_disarm();

    // Every dropper teardown and session close must finish first.
    let health = server.health();
    let drained = || {
        let snap = health.snapshot();
        snap.conns_dropped_in_txn == (DROPPERS + drops) as u64
            && snap.sessions_active == 0
            && store.pinned_snapshots() == 0
    };
    for _ in 0..1_000 {
        if drained() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = health.snapshot();
    assert_eq!(
        snap.conns_dropped_in_txn,
        (DROPPERS + drops) as u64,
        "every drop counted"
    );
    assert_eq!(snap.sessions_active, 0, "session gauge leaked");
    assert_eq!(store.pinned_snapshots(), 0, "snapshot pins leaked");
    let ledger = snap.stmts_accepted + snap.stmts_shed;
    assert_eq!(ledger, snap.stmts_submitted, "admission ledger");
    total_shed.fetch_add(snap.stmts_shed, Ordering::SeqCst);
    assert_eq!(
        content(&store),
        model.tables[MAIN],
        "the table diverged from the model"
    );
    let n = snap.stmts_submitted;
    eprintln!("seed {seed}: {n} statements, {drops} drops, {failed} failed commits");
    total_failed.fetch_add(failed, Ordering::SeqCst);

    // The storm left nothing behind that blocks generation GC.
    let mut check = connect(addr);
    let gcd_before = env.health.snapshot().generations_gcd;
    send(&mut check, "INSERT OVERWRITE soak VALUES (1, 1)").unwrap();
    assert!(
        env.health.snapshot().generations_gcd > gcd_before,
        "generation GC stalled"
    );

    // SHOW HEALTH surfaces the server tier and the delta tier over the wire.
    let r = send(&mut check, "SHOW HEALTH").unwrap();
    let metric = |tier: &str, name: &str| {
        let row = r
            .rows
            .iter()
            .find(|row| row[0] == Value::Utf8(tier.into()) && row[1] == Value::Utf8(name.into()));
        row.and_then(|row| row[2].as_i64())
            .unwrap_or_else(|| panic!("SHOW HEALTH lacks {tier}.{name}"))
    };
    for name in [
        "sessions_active",
        "queue_depth",
        "stmts_shed",
        "stmts_timed_out",
        "conns_dropped_in_txn",
    ] {
        metric("server", name);
    }
    let spills = metric("kv", "delta_spills");
    metric("kv", "delta_bytes_used");
    metric("kv", "delta_hits");
    assert_eq!(
        spills > 0,
        delta,
        "the delta tier spills exactly when its tiny budget is on"
    );
    drop(check);
    server.shutdown();
}

#[test]
fn fault_injected_soak() {
    let seeds = std::env::var("SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let seeds = match std::env::var("SEED") {
        Ok(_) => vec![seed_from_env(0)],
        Err(_) => (0..seeds).collect(),
    };
    let (total_shed, total_failed) = (AtomicU64::new(0), AtomicU64::new(0));
    for seed in seeds {
        with_seed_repro(
            "dt-server",
            "server_soak",
            "fault_injected_soak",
            seed,
            |s| soak_one_seed(s, &total_shed, &total_failed),
        );
    }
    // The bursts must have overloaded the pool at least once, or the
    // shedding path went untested.
    assert!(
        total_shed.load(Ordering::SeqCst) > 0,
        "no statement was ever shed"
    );
    assert!(
        total_failed.load(Ordering::SeqCst) > 0,
        "no fault ever failed a commit"
    );
}
