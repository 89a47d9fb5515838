//! Self-healing read path: checksum-verified replica failover, quarantine
//! of bad replicas, scrub-driven re-replication, and transient-fault retry
//! in both the read and write pipelines.

use std::sync::Arc;

use dt_common::fault::{FaultKind, FaultPlan};
use dt_dfs::{BlockStore, Dfs, DfsConfig, FaultyBlockStore, MemBlockStore, RetryPolicy};

fn three_way(chunk_size: usize) -> DfsConfig {
    DfsConfig {
        chunk_size,
        replication: 3,
        ..DfsConfig::default()
    }
}

/// The headline scenario: one of three replicas rots at write time; a
/// read must still succeed, the rotted replica must land in quarantine,
/// and a scrub pass must restore full replication and reclaim it.
#[test]
fn read_survives_one_corrupt_replica_then_scrub_rereplicates() {
    // CorruptWrite on the 2nd block put mangles exactly one replica of
    // the first (only) block group and reports success. (Write op 1 is
    // the BeginCreate edit-log append, op 2 the first replica put.)
    let plan = Arc::new(FaultPlan::new(17).fail_at(3, FaultKind::CorruptWrite));
    let dfs = Dfs::in_memory_faulty(three_way(64), plan.clone());
    let payload: Vec<u8> = (0..48u8).collect();
    dfs.write_file("/t/part-0", &payload).unwrap();
    plan.set_armed(false);
    assert_eq!(plan.injected_count(), 1, "exactly one replica rotted");

    // Force the reader onto the bad replica first by making it the only
    // survivor ordering question: replica order is placement order, so
    // replica #2 is the corrupt one — delete replica #1 behind the DFS's
    // back is not needed; just read and let verification do its job. The
    // read must return correct bytes regardless of which replica rots.
    assert_eq!(dfs.read_to_vec("/t/part-0").unwrap(), payload);

    // Reading again with a fresh reader keeps succeeding and never
    // quarantines a healthy replica twice.
    assert_eq!(dfs.read_to_vec("/t/part-0").unwrap(), payload);

    let health = dfs.stats().snapshot();
    assert_eq!(
        dfs.quarantined_replicas() as u64 + health.rereplicated_replicas,
        health.quarantined_replicas,
        "every quarantined replica is either pending scrub or replaced"
    );

    let scrub = dfs.scrub().unwrap();
    assert!(dfs.fsck().unwrap().healthy(), "scrub restored 3/3 replicas");
    assert_eq!(dfs.quarantined_replicas(), 0, "quarantine drained");
    let after = dfs.stats().snapshot();
    assert_eq!(
        scrub.quarantined_purged + scrub.replicas_recreated,
        after.quarantined_replicas + after.since(&health).rereplicated_replicas,
        "scrub accounted for the quarantined replica"
    );
    assert_eq!(dfs.read_to_vec("/t/part-0").unwrap(), payload);
}

/// One corrupt replica at each placement position `k`. Replica order is
/// placement order and the reader tries replicas in order, so the first
/// read fails over past the corrupt copy, and quarantines it, exactly when
/// it was placed first. Wherever it sits, scrub recreates that one replica.
#[test]
fn failover_from_first_replica_quarantines_it() {
    for k in 0..3u64 {
        // Op 1 is the BeginCreate edit-log append; op 2 + k is the k-th
        // replica placement.
        let plan = Arc::new(FaultPlan::new(23).fail_at(2 + k, FaultKind::CorruptWrite));
        let dfs = Dfs::in_memory_faulty(three_way(64), plan.clone());
        let payload = vec![0xABu8; 32];
        dfs.write_file("/f", &payload).unwrap();
        plan.set_armed(false);
        assert_eq!(plan.injected_count(), 1, "k={k}");

        assert_eq!(dfs.read_to_vec("/f").unwrap(), payload, "k={k}");
        let health = dfs.stats().snapshot();
        let first = u64::from(k == 0);
        assert_eq!(health.quarantined_replicas, first, "k={k}");
        assert_eq!(dfs.quarantined_replicas() as u64, first, "k={k}");
        assert_eq!(health.failovers > 0, k == 0, "k={k}: failed over");

        let scrub = dfs.scrub().unwrap();
        assert_eq!(scrub.replicas_recreated, 1, "k={k}");
        assert_eq!(scrub.quarantined_purged, first, "k={k}");
        assert!(dfs.fsck().unwrap().healthy(), "k={k}");
        assert_eq!(dfs.read_to_vec("/f").unwrap(), payload, "k={k}");
    }
}

/// A transient read fault must be retried on the *same* replica — a brief
/// datanode hiccup is not grounds for quarantine.
#[test]
fn transient_read_fault_is_retried_without_quarantine() {
    let plan = Arc::new(FaultPlan::new(31));
    let dfs = Dfs::in_memory_faulty(three_way(64), plan.clone());
    let payload = vec![7u8; 16];
    dfs.write_file("/blip", &payload).unwrap();
    plan.fail_transient_next(FaultKind::TransientReadError, 2);

    assert_eq!(dfs.read_to_vec("/blip").unwrap(), payload);
    let health = dfs.stats().snapshot();
    assert_eq!(health.retry.retries, 2);
    assert_eq!(health.retry.retry_successes, 1);
    assert_eq!(
        health.quarantined_replicas, 0,
        "healthy replica not condemned"
    );
    assert_eq!(health.failovers, 0);
}

/// With retry disabled, the same transient read fault forces a failover
/// instead: the replica is (spuriously) quarantined but the read still
/// succeeds from the next copy — availability either way, but the policy
/// decides how much collateral quarantine there is.
#[test]
fn retry_disabled_turns_transient_read_into_failover() {
    let plan = Arc::new(FaultPlan::new(31));
    let cfg = DfsConfig {
        retry: RetryPolicy::disabled(),
        ..three_way(64)
    };
    let dfs = Dfs::in_memory_faulty(cfg, plan.clone());
    let payload = vec![8u8; 16];
    dfs.write_file("/blip2", &payload).unwrap();
    plan.fail_transient_next(FaultKind::TransientReadError, 1);

    assert_eq!(dfs.read_to_vec("/blip2").unwrap(), payload);
    let health = dfs.stats().snapshot();
    assert_eq!(health.retry.retries, 0);
    assert_eq!(health.failovers, 1);
    assert_eq!(health.quarantined_replicas, 1);
}

/// The write pipeline retries transient placement failures; the file
/// commits with full replication and no error surfaces to the caller.
#[test]
fn write_pipeline_retries_transient_placement_failures() {
    let plan = Arc::new(FaultPlan::new(37));
    let dfs = Dfs::in_memory_faulty(three_way(64), plan.clone());
    plan.fail_transient_next(FaultKind::TransientWriteError, 3);

    let payload = vec![1u8; 24];
    dfs.write_file("/w", &payload).unwrap();
    plan.set_armed(false);
    assert!(dfs.fsck().unwrap().healthy(), "3/3 replicas placed");
    assert_eq!(dfs.read_to_vec("/w").unwrap(), payload);
    let health = dfs.stats().snapshot();
    assert_eq!(health.retry.retries, 3);
    assert_eq!(health.retry.retry_successes, 1);

    // The same outage with retry disabled fails the write outright.
    let plan = Arc::new(FaultPlan::new(37));
    let cfg = DfsConfig {
        retry: RetryPolicy::disabled(),
        ..three_way(64)
    };
    let dfs = Dfs::in_memory_faulty(cfg, plan.clone());
    plan.fail_transient_next(FaultKind::TransientWriteError, 3);
    assert!(dfs.write_file("/w", &payload).is_err());
}

/// Reads fail only when every replica of a group is bad.
#[test]
fn read_fails_only_when_all_replicas_are_bad() {
    // Rot all three replicas of the single block group (write ops 2–4;
    // op 1 is the BeginCreate edit-log append).
    let plan = Arc::new(
        FaultPlan::new(41)
            .fail_at(2, FaultKind::CorruptWrite)
            .fail_at(3, FaultKind::CorruptWrite)
            .fail_at(4, FaultKind::CorruptWrite),
    );
    let dfs = Dfs::in_memory_faulty(three_way(64), plan.clone());
    dfs.write_file("/doomed", &[9u8; 20]).unwrap();
    plan.set_armed(false);
    assert_eq!(plan.injected_count(), 3);

    let err = dfs.read_to_vec("/doomed").unwrap_err();
    assert!(matches!(err, dt_common::Error::Corrupt(_)), "got {err:?}");
    // The last replica is never removed from the serving set: a suspect
    // copy beats no copy.
    assert_eq!(dfs.stats().snapshot().quarantined_replicas, 2);
}

/// A `CorruptRead` mangles the reader's private copy, never the buffer the
/// store, its other replicas and the block cache share: the read fails
/// over, and the cache and every later reader see the written bytes.
#[test]
fn corrupt_read_never_changes_what_the_cache_or_the_next_reader_sees() {
    let mem = Arc::new(MemBlockStore::new());
    let plan = Arc::new(FaultPlan::new(53));
    let faulty = FaultyBlockStore::new(mem.clone(), plan.clone());
    let dfs = Dfs::with_block_store(Arc::new(faulty), three_way(64)).unwrap();
    let payload: Vec<u8> = (100..148u8).collect();
    dfs.write_file("/f", &payload).unwrap();

    // A cold read: the first replica comes back mangled.
    plan.fail_next(FaultKind::CorruptRead);
    assert_eq!(dfs.read_to_vec("/f").unwrap(), payload);
    assert_eq!(plan.injected_count(), 1);
    let health = dfs.stats().snapshot();
    assert_eq!(health.failovers, 1);
    assert_eq!(health.cache_misses, 1);

    // A warm read: the cache holds the store's own verified buffer.
    plan.fail_next(FaultKind::CorruptRead);
    assert_eq!(dfs.read_to_vec("/f").unwrap(), payload);
    assert_eq!(dfs.stats().snapshot().since(&health).cache_hits, 1);

    // The armed fault lands on fsck's next replica read instead: the
    // audit sees a bad copy, but nothing it shares changes.
    assert!(!dfs.fsck().unwrap().healthy());
    assert_eq!(plan.injected_count(), 2);
    plan.set_armed(false);
    for id in mem.list_blocks() {
        assert_eq!(*mem.read_block(id).unwrap(), payload, "{id:?}");
    }
    assert_eq!(dfs.read_to_vec("/f").unwrap(), payload);
    assert!(dfs.fsck().unwrap().healthy());
}

/// A replica longer than its group fails over even though its first
/// `len` bytes carry the right checksum: the length is checked first.
/// fsck calls the file under-replicated and scrub replaces the replica.
#[test]
fn a_wrong_length_replica_fails_over() {
    let dir = std::env::temp_dir().join(format!("dt-wronglen-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dfs = Dfs::on_disk(&dir, three_way(64)).unwrap();
    let payload = vec![0x3Cu8; 40];
    dfs.write_file("/f", &payload).unwrap();
    // Replica 0 is the first block put.
    let first = dir.join(format!("blk_{:016x}", 0));
    let mut grown = std::fs::read(&first).unwrap();
    assert_eq!(grown, payload);
    grown.extend_from_slice(b"trailing");
    std::fs::write(&first, grown).unwrap();

    let report = dfs.fsck().unwrap();
    assert_eq!(report.under_replicated, vec!["/f".to_string()]);
    assert!(report.corrupt.is_empty());

    assert_eq!(dfs.read_to_vec("/f").unwrap(), payload);
    let health = dfs.stats().snapshot();
    assert_eq!(health.failovers, 1);
    assert_eq!(health.quarantined_replicas, 1);

    dfs.scrub().unwrap();
    assert!(dfs.fsck().unwrap().healthy());
    std::fs::remove_dir_all(&dir).ok();
}
