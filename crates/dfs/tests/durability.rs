//! Namenode durability: every metadata mutation survives a namenode
//! crash + restart via the edit log and checkpoint, pending writers are
//! dropped (their blocks collected as orphans), the quarantine registry
//! persists so scrub resumes where it left off — and a mini crash-point
//! matrix drives the whole tier through a crash at *every* I/O operation
//! of a mutation workload.

use std::sync::Arc;

use dt_common::fault::{FaultKind, FaultPlan, IoOp};
use dt_common::run_crash_matrix;
use dt_dfs::{Dfs, DfsConfig, FaultyBlockStore, MemBlockStore};

fn cfg() -> DfsConfig {
    DfsConfig {
        chunk_size: 32,
        replication: 2,
        ..DfsConfig::default()
    }
}

/// The acceptance scenario: create files, crash the namenode (in-memory
/// namespace discarded), recover from the edit log, read every file back
/// byte-identical — through both the same handle and a cold open over the
/// same block store.
#[test]
fn files_survive_namenode_crash_byte_identical() {
    let store = Arc::new(MemBlockStore::new());
    let dfs = Dfs::with_block_store(store.clone(), cfg()).unwrap();
    let payloads: Vec<(String, Vec<u8>)> = (0..8u8)
        .map(|i| {
            // Sizes straddle block boundaries: empty, sub-block, exact
            // multiples, and multi-block with remainder.
            let len = [0usize, 1, 31, 32, 33, 64, 100, 200][i as usize];
            (
                format!("/t/part-{i}"),
                (0..len).map(|j| (j as u8) ^ i.wrapping_mul(37)).collect(),
            )
        })
        .collect();
    for (path, data) in &payloads {
        dfs.write_file(path, data).unwrap();
    }

    let report = dfs.crash_and_reopen().unwrap();
    assert!(report.dropped_pending.is_empty());
    assert_eq!(report.dropped_bytes, 0);
    for (path, data) in &payloads {
        assert_eq!(&dfs.read_to_vec(path).unwrap(), data, "{path} after reload");
    }
    assert!(dfs.fsck().unwrap().healthy());

    // A completely fresh namenode over the same blocks sees the same
    // namespace — the edit log, not any in-memory residue, is the truth.
    let cold = Dfs::with_block_store(store, cfg()).unwrap();
    for (path, data) in &payloads {
        assert_eq!(&cold.read_to_vec(path).unwrap(), data, "{path} cold open");
    }
}

/// Deletes, renames and replaces are journaled too — the namespace after
/// recovery reflects every acknowledged mutation, not just creates.
#[test]
fn namespace_mutations_survive_crash() {
    let store = Arc::new(MemBlockStore::new());
    let dfs = Dfs::with_block_store(store.clone(), cfg()).unwrap();
    dfs.write_file("/a", &[1u8; 50]).unwrap();
    dfs.write_file("/b", &[2u8; 50]).unwrap();
    dfs.write_file("/c", &[3u8; 50]).unwrap();
    dfs.rename("/a", "/a2").unwrap();
    dfs.delete("/b").unwrap();

    dfs.crash_and_reopen().unwrap();
    assert!(!dfs.exists("/a"));
    assert!(!dfs.exists("/b"));
    assert_eq!(dfs.read_to_vec("/a2").unwrap(), vec![1u8; 50]);
    assert_eq!(dfs.read_to_vec("/c").unwrap(), vec![3u8; 50]);
    assert_eq!(dfs.list("/"), vec!["/a2".to_string(), "/c".to_string()]);
    // The delete's blocks are really gone, not orphaned.
    assert_eq!(dfs.fsck().unwrap().orphan_blocks, 0);
}

/// The same guarantee with real file I/O: a process restart (new `Dfs`
/// over the same on-disk root) recovers the namespace from disk.
#[test]
fn on_disk_namespace_survives_process_restart() {
    let dir = std::env::temp_dir().join(format!("dt-durability-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let payload: Vec<u8> = (0..150u8).collect();
    {
        let dfs = Dfs::on_disk(&dir, cfg()).unwrap();
        dfs.write_file("/persisted", &payload).unwrap();
        dfs.write_file("/doomed", &[9u8; 40]).unwrap();
        dfs.delete("/doomed").unwrap();
    }
    let dfs = Dfs::on_disk(&dir, cfg()).unwrap();
    assert_eq!(dfs.read_to_vec("/persisted").unwrap(), payload);
    assert!(!dfs.exists("/doomed"));
    assert!(dfs.fsck().unwrap().healthy());
    std::fs::remove_dir_all(&dir).ok();
}

/// A writer that dies mid-file never becomes visible: recovery drops its
/// pending reservation and reports it, and its already-placed blocks are
/// collected as orphans by the next scrub.
#[test]
fn crashed_writer_is_dropped_and_its_blocks_collected() {
    let store = Arc::new(MemBlockStore::new());
    let dfs = Dfs::with_block_store(store.clone(), cfg()).unwrap();
    dfs.write_file("/committed", &[7u8; 64]).unwrap();

    let mut w = dfs.create("/half-written").unwrap();
    w.write_all(&[8u8; 80]).unwrap(); // 2 full blocks placed, tail buffered
    std::mem::forget(w); // the writer's process dies: no close, no abort

    let report = dfs.crash_and_reopen().unwrap();
    assert_eq!(report.dropped_pending, vec!["/half-written".to_string()]);
    assert!(!dfs.exists("/half-written"));
    assert_eq!(dfs.read_to_vec("/committed").unwrap(), vec![7u8; 64]);

    let fsck = dfs.fsck().unwrap();
    assert!(fsck.healthy());
    assert_eq!(fsck.orphan_blocks, 4, "2 blocks × 2 replicas left behind");
    let scrub = dfs.scrub().unwrap();
    assert_eq!(scrub.orphans_collected, 4);
    assert_eq!(dfs.fsck().unwrap().orphan_blocks, 0);
}

/// The quarantine registry is part of the durable metadata: replicas
/// quarantined before a crash are still queued for reclamation after it,
/// so a scrub pass resumes exactly where the dead namenode left off.
#[test]
fn quarantine_survives_crash_and_scrub_resumes() {
    let plan = Arc::new(FaultPlan::new(29).fail_at(2, FaultKind::CorruptWrite));
    let cfg = DfsConfig {
        chunk_size: 64,
        replication: 3,
        ..DfsConfig::default()
    };
    let dfs = Dfs::in_memory_faulty(cfg, plan.clone());
    let payload: Vec<u8> = (0..48u8).collect();
    dfs.write_file("/f", &payload).unwrap();
    plan.set_armed(false);
    // The read fails over past the rotted first replica and quarantines it.
    assert_eq!(dfs.read_to_vec("/f").unwrap(), payload);
    assert_eq!(dfs.quarantined_replicas(), 1);

    dfs.crash_and_reopen().unwrap();
    assert_eq!(
        dfs.quarantined_replicas(),
        1,
        "quarantine registry recovered from the edit log"
    );
    let scrub = dfs.scrub().unwrap();
    assert_eq!(scrub.quarantined_purged, 1);
    assert_eq!(scrub.replicas_recreated, 1);
    assert!(dfs.fsck().unwrap().healthy());
    assert_eq!(dfs.read_to_vec("/f").unwrap(), payload);
}

/// With an aggressive checkpoint interval, recovery reads state from the
/// checkpoint (the edit log is truncated at every checkpoint) — and the
/// result is indistinguishable from pure log replay.
#[test]
fn checkpointed_namespace_recovers_identically() {
    let store = Arc::new(MemBlockStore::new());
    let tight = DfsConfig {
        checkpoint_interval: 1,
        ..cfg()
    };
    let dfs = Dfs::with_block_store(store.clone(), tight).unwrap();
    for i in 0..6u8 {
        dfs.write_file(&format!("/f{i}"), &[i; 40]).unwrap();
    }
    dfs.rename("/f0", "/renamed").unwrap();
    dfs.delete("/f1").unwrap();

    let cold = Dfs::with_block_store(store, cfg()).unwrap();
    assert_eq!(
        cold.list("/"),
        vec!["/f2", "/f3", "/f4", "/f5", "/renamed"]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>()
    );
    assert_eq!(cold.read_to_vec("/renamed").unwrap(), vec![0u8; 40]);
    assert!(cold.fsck().unwrap().healthy());
}

/// Crash-point matrix over the dfs tier alone: run a mutation workload
/// once to record its I/O trace, then re-run it crashing at **every**
/// operation index. After each crash the namenode recovers from the edit
/// log and three invariants must hold: acknowledged statements are fully
/// visible, the statement in flight is invisible or fully applied, and
/// fsck + scrub leave zero corruption and zero orphans.
#[test]
fn dfs_crash_matrix_exhaustive() {
    // The workload: statement i writes /w{i} (sizes vary), with a rename
    // and a delete mixed in. `oracle(n)` is the expected namespace after
    // the first n statements.
    type Stmt = (&'static str, u8);
    const STMTS: &[Stmt] = &[
        ("write:/w0", 100),
        ("write:/w1", 33),
        ("rename:/w0:/r0", 0),
        ("write:/w2", 64),
        ("delete:/w1", 0),
        ("write:/w3", 10),
    ];
    fn payload(tag: u8, len: u8) -> Vec<u8> {
        (0..len).map(|j| j ^ tag.wrapping_mul(41)).collect()
    }
    fn run_stmt(dfs: &Dfs, stmt: &Stmt) -> dt_common::Result<()> {
        let parts: Vec<&str> = stmt.0.split(':').collect();
        match parts[0] {
            "write" => dfs.write_file(parts[1], &payload(parts[1].as_bytes()[2], stmt.1)),
            "rename" => dfs.rename(parts[1], parts[2]),
            "delete" => dfs.delete(parts[1]),
            _ => unreachable!(),
        }
    }
    /// Expected namespace (path → bytes) after the first `n` statements.
    fn oracle(n: usize) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = Vec::new();
        for stmt in &STMTS[..n] {
            let parts: Vec<&str> = stmt.0.split(':').collect();
            match parts[0] {
                "write" => files.push((
                    parts[1].to_string(),
                    payload(parts[1].as_bytes()[2], stmt.1),
                )),
                "rename" => {
                    let i = files.iter().position(|(p, _)| p == parts[1]).unwrap();
                    files[i].0 = parts[2].to_string();
                }
                "delete" => files.retain(|(p, _)| p != parts[1]),
                _ => unreachable!(),
            }
        }
        files.sort();
        files
    }

    // Record run: count the workload's I/O ops and their classes.
    let plan = Arc::new(FaultPlan::new(1));
    plan.record_trace();
    let dfs = Dfs::in_memory_faulty(cfg(), plan.clone());
    for stmt in STMTS {
        run_stmt(&dfs, stmt).unwrap();
    }
    let trace = plan.take_trace();
    let total_ops = trace.len() as u64;
    assert!(total_ops >= 20, "workload too small to be interesting");

    // Exhaustive: every op index is a crash point.
    let points: Vec<u64> = (1..=total_ops).collect();
    let report = run_crash_matrix(&points, |k| {
        // Torn writes exercise the salvage path, but only fire on writes;
        // a plain crash fires on any class, keeping the index exact.
        let kind = if trace[(k - 1) as usize] == IoOp::Write && k % 2 == 0 {
            FaultKind::TornWrite
        } else {
            FaultKind::Crash
        };
        let store = Arc::new(MemBlockStore::new());
        let plan = Arc::new(FaultPlan::new(0xC0FFEE ^ k).fail_at(k, kind));
        let faulty = Arc::new(FaultyBlockStore::new(store.clone(), plan.clone()));
        let dfs = Dfs::with_block_store(faulty, cfg())
            .map_err(|e| format!("fresh open must not fault: {e}"))?;
        let mut acked = 0usize;
        let mut crashed = false;
        for stmt in STMTS {
            match run_stmt(&dfs, stmt) {
                Ok(()) => acked += 1,
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        if !crashed && !plan.is_crashed() {
            return Ok(false); // workload outlived this crash point
        }
        plan.heal_and_disarm();
        dfs.crash_and_reopen()
            .map_err(|e| format!("recovery failed: {e}"))?;

        // Invariant 1+2: recovered namespace is the oracle at `acked`, or
        // at `acked + 1` if the in-flight statement's commit hit the log
        // before the crash surfaced — never anything in between.
        let recovered: Vec<(String, Vec<u8>)> = {
            let mut v: Vec<(String, Vec<u8>)> = dfs
                .list("/")
                .into_iter()
                .map(|p| {
                    let data = dfs.read_to_vec(&p).map_err(|e| format!("read {p}: {e}"))?;
                    Ok((p, data))
                })
                .collect::<Result<_, String>>()?;
            v.sort();
            v
        };
        if recovered != oracle(acked) && recovered != oracle(acked + 1) {
            return Err(format!(
                "recovered namespace matches neither oracle({acked}) nor oracle({})",
                acked + 1
            ));
        }
        // Invariant 3: no corruption, no under-replication; orphans are
        // collected, not leaked.
        let fsck = dfs.fsck().map_err(|e| format!("fsck: {e}"))?;
        if !fsck.healthy() {
            return Err(format!("fsck unhealthy after recovery: {fsck:?}"));
        }
        dfs.scrub().map_err(|e| format!("scrub: {e}"))?;
        let after = dfs.fsck().map_err(|e| format!("post-scrub fsck: {e}"))?;
        if after.orphan_blocks != 0 {
            return Err(format!("{} orphans survived scrub", after.orphan_blocks));
        }
        Ok(true)
    });
    assert!(
        report.ok(),
        "dfs crash matrix violations: {:#?}",
        report.violations
    );
    assert!(
        report.crashes_injected as u64 >= total_ops - 1,
        "almost every point must actually crash ({} of {total_ops})",
        report.crashes_injected
    );
}
