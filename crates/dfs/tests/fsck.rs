//! Integrity audit: fsck must pass on healthy data, flag corrupted,
//! missing and under-replicated blocks, and repair must restore the
//! full-replication invariant whenever one healthy replica survives. A
//! fault on one replica never reaches the buffer the others share, and a
//! file copy verifies under the checksums it carries over.

use std::sync::Arc;

use dt_common::fault::{FaultKind, FaultPlan};
use dt_dfs::{BlockId, BlockStore, Dfs, DfsConfig, FaultyBlockStore, MemBlockStore};

#[test]
fn fsck_passes_on_healthy_filesystem() {
    let dfs = Dfs::in_memory(DfsConfig::small_chunks(16));
    for i in 0..5 {
        dfs.write_file(&format!("/f{i}"), &[i as u8; 100]).unwrap();
    }
    let report = dfs.fsck().unwrap();
    assert!(report.healthy());
    assert_eq!(report.files, 5);
    assert_eq!(report.blocks, 5 * 7); // ceil(100/16) = 7 blocks each
}

#[test]
fn fsck_detects_on_disk_corruption() {
    let dir = std::env::temp_dir().join(format!("dt-fsck-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dfs = Dfs::on_disk(&dir, DfsConfig::small_chunks(32)).unwrap();
    dfs.write_file("/healthy", &[7u8; 64]).unwrap();
    dfs.write_file("/victim", &[9u8; 64]).unwrap();
    assert!(dfs.fsck().unwrap().healthy());

    // Flip a byte in one block file behind the DFS's back (bit rot).
    // The root also holds the namenode journal (nn_* files) — only blk_*
    // entries are replicas.
    let mut blocks: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("blk_"))
        })
        .collect();
    blocks.sort();
    let victim_block = blocks.last().unwrap();
    let mut bytes = std::fs::read(victim_block).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(victim_block, bytes).unwrap();

    let report = dfs.fsck().unwrap();
    assert_eq!(report.corrupt.len(), 1);
    assert!(!report.healthy());

    // Deleting a block entirely is also caught.
    std::fs::remove_file(victim_block).unwrap();
    let report = dfs.fsck().unwrap();
    assert!(!report.healthy());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_flags_under_replication_and_repair_restores_it() {
    // Corrupt one replica at write time: the write still succeeds (the
    // fault reports success), leaving the block group with 2/3 healthy
    // copies.
    let plan = Arc::new(FaultPlan::new(21).fail_at(2, FaultKind::CorruptWrite));
    plan.set_armed(false);
    let cfg = DfsConfig {
        chunk_size: 16,
        replication: 3,
        ..DfsConfig::default()
    };
    let dfs = Dfs::in_memory_faulty(cfg, plan.clone());
    dfs.write_file("/healthy", &[1u8; 40]).unwrap();
    let payload: Vec<u8> = (0..48u8).collect();
    plan.set_armed(true);
    dfs.write_file("/victim", &payload).unwrap();
    plan.set_armed(false);
    assert_eq!(plan.injected_count(), 1, "exactly one replica rotted");

    let report = dfs.fsck().unwrap();
    assert_eq!(report.under_replicated, vec!["/victim".to_string()]);
    assert!(report.corrupt.is_empty());
    assert!(!report.healthy());
    // Degraded durability, but reads fall back to a healthy replica.
    assert_eq!(dfs.read_to_vec("/victim").unwrap(), payload);

    let repair = dfs.repair().unwrap();
    assert_eq!(repair.files_repaired, 1);
    assert_eq!(repair.replicas_recreated, 1);
    assert!(repair.unrecoverable.is_empty());
    assert!(dfs.fsck().unwrap().healthy());
    assert_eq!(dfs.read_to_vec("/victim").unwrap(), payload);
    // Repair is idempotent.
    assert_eq!(dfs.repair().unwrap().replicas_recreated, 0);
}

#[test]
fn fsck_flags_missing_replicas_and_repair_reclones_them() {
    // Delete replicas behind the namenode's back (a lost datanode).
    let store = Arc::new(MemBlockStore::new());
    let cfg = DfsConfig {
        chunk_size: 16,
        replication: 2,
        ..DfsConfig::default()
    };
    let dfs = Dfs::with_block_store(store.clone(), cfg).unwrap();
    let payload = [5u8; 50]; // 4 blocks × 2 replicas = ids 0..8
    dfs.write_file("/f", &payload).unwrap();
    assert_eq!(store.block_count(), 8);
    // Drop one replica of two different block groups (ids are allocated
    // in put order: group i holds ids 2i and 2i+1).
    store.delete(BlockId(0)).unwrap();
    store.delete(BlockId(5)).unwrap();

    let report = dfs.fsck().unwrap();
    assert_eq!(report.under_replicated, vec!["/f".to_string()]);
    assert!(report.corrupt.is_empty());
    assert_eq!(dfs.read_to_vec("/f").unwrap(), payload);

    let repair = dfs.repair().unwrap();
    assert_eq!(repair.files_repaired, 1);
    assert_eq!(repair.replicas_recreated, 2);
    assert!(repair.unrecoverable.is_empty());
    assert!(dfs.fsck().unwrap().healthy());
    assert_eq!(store.block_count(), 8);
    assert_eq!(dfs.read_to_vec("/f").unwrap(), payload);
}

#[test]
fn repair_reports_unrecoverable_when_no_replica_survives() {
    let store = Arc::new(MemBlockStore::new());
    let cfg = DfsConfig {
        chunk_size: 16,
        replication: 1,
        ..DfsConfig::default()
    };
    let dfs = Dfs::with_block_store(store.clone(), cfg).unwrap();
    dfs.write_file("/gone", &[3u8; 20]).unwrap(); // blocks 0, 1
    dfs.write_file("/fine", &[4u8; 10]).unwrap();
    store.delete(BlockId(1)).unwrap();

    let report = dfs.fsck().unwrap();
    assert_eq!(report.corrupt, vec!["/gone".to_string()]);

    let repair = dfs.repair().unwrap();
    assert_eq!(repair.unrecoverable, vec!["/gone".to_string()]);
    assert_eq!(repair.replicas_recreated, 0);
    // The file stays listed — higher layers decide what to drop — and
    // the rest of the namespace is untouched.
    assert!(dfs.exists("/gone"));
    assert_eq!(dfs.read_to_vec("/fine").unwrap(), vec![4u8; 10]);
    assert!(!dfs.fsck().unwrap().healthy());
}

fn three_way_over(store: Arc<dyn BlockStore>) -> Dfs {
    let cfg = DfsConfig {
        chunk_size: 64,
        replication: 3,
        ..DfsConfig::default()
    };
    Dfs::with_block_store(store, cfg).unwrap()
}

/// Every replica of a block group is put from one shared buffer. A
/// `CorruptWrite` on placement `k` mangles a copy of its own: the other
/// replicas keep the written bytes, and fsck calls the file
/// under-replicated, not corrupt.
#[test]
fn corrupt_write_on_one_placement_leaves_the_other_replicas_intact() {
    for k in 0..3u64 {
        let mem = Arc::new(MemBlockStore::new());
        // Op 1 is the BeginCreate edit-log append; op 2 + k the k-th put.
        let plan = Arc::new(FaultPlan::new(43).fail_at(2 + k, FaultKind::CorruptWrite));
        let dfs = three_way_over(Arc::new(FaultyBlockStore::new(mem.clone(), plan.clone())));
        let payload: Vec<u8> = (0..48u8).collect();
        dfs.write_file("/f", &payload).unwrap();
        plan.set_armed(false);
        assert_eq!(plan.injected_count(), 1, "k={k}");

        // Block ids are handed out in placement order.
        let intact: Vec<bool> = mem
            .list_blocks()
            .into_iter()
            .map(|id| *mem.read_block(id).unwrap() == payload)
            .collect();
        let want: Vec<bool> = (0..3).map(|i| i != k).collect();
        assert_eq!(intact, want, "k={k}");

        let report = dfs.fsck().unwrap();
        assert_eq!(report.under_replicated, vec!["/f".to_string()], "k={k}");
        assert!(report.corrupt.is_empty(), "k={k}");
        assert_eq!(dfs.read_to_vec("/f").unwrap(), payload, "k={k}");
    }
}

/// A copy keeps the source's checksums, so it verifies; it owns its
/// replicas, so it outlives the source.
#[test]
fn copy_file_verifies_and_outlives_its_source() {
    let store = Arc::new(MemBlockStore::new());
    let dfs = Dfs::with_block_store(store.clone(), DfsConfig::small_chunks(16)).unwrap();
    let payload: Vec<u8> = (0..100u8).collect();
    dfs.write_file("/src", &payload).unwrap();
    let before = dfs.stats().snapshot();
    dfs.copy_file("/src", "/dst").unwrap();
    let copied = dfs.stats().snapshot().since(&before);
    assert_eq!(copied.bytes_written, 100, "one replica per block written");
    assert!(dfs.copy_file("/src", "/dst").is_err(), "write-once");
    assert!(dfs.copy_file("/missing", "/other").is_err());
    assert!(!dfs.exists("/other"));

    dfs.delete("/src").unwrap();
    assert_eq!(dfs.read_to_vec("/dst").unwrap(), payload);
    let report = dfs.fsck().unwrap();
    assert!(report.healthy(), "{report:?}");
    assert_eq!(report.blocks, 7);
    assert_eq!(report.orphan_blocks, 0);
    assert_eq!(store.block_count(), 7);
}

/// A copy fetches its source as a read does: a corrupt source replica is
/// skipped (and quarantined), and every replica of the copy is healthy.
#[test]
fn copy_file_skips_a_corrupt_source_replica() {
    let mem = Arc::new(MemBlockStore::new());
    let plan = Arc::new(FaultPlan::new(47).fail_at(2, FaultKind::CorruptWrite));
    let dfs = three_way_over(Arc::new(FaultyBlockStore::new(mem.clone(), plan.clone())));
    let payload = vec![0x5Au8; 40];
    dfs.write_file("/src", &payload).unwrap();
    plan.set_armed(false);
    assert_eq!(plan.injected_count(), 1);

    dfs.copy_file("/src", "/dst").unwrap();
    assert_eq!(dfs.stats().snapshot().quarantined_replicas, 1);
    dfs.delete("/src").unwrap();
    let report = dfs.fsck().unwrap();
    assert!(report.healthy(), "{report:?}");
    assert_eq!(dfs.read_to_vec("/dst").unwrap(), payload);
}
