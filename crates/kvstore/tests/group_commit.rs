//! WAL group commit (DESIGN.md §12): coalescing concurrent `put_batch`
//! callers into one fsynced append must be invisible in every durable
//! state — window 1 reproduces the legacy one-append-per-batch WAL byte
//! for byte, larger windows recover to the same logical content, and a
//! torn tail on a coalesced append still salvages exactly the record-
//! aligned prefix.

use std::sync::Arc;
use std::time::Duration;

use dt_common::{LogicalClock, Result};
use dt_kvstore::{Env, KvConfig, MemEnv, Store};
use proptest::prelude::*;

/// An env whose appends dwell, so concurrent putters pile up behind the
/// in-flight WAL write and the next leader drains a multi-batch group.
struct SlowAppendEnv {
    inner: MemEnv,
    delay: Duration,
}

impl SlowAppendEnv {
    fn new(delay: Duration) -> Self {
        SlowAppendEnv {
            inner: MemEnv::new(),
            delay,
        }
    }
}

impl Env for SlowAppendEnv {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        std::thread::sleep(self.delay);
        self.inner.append(name, data)
    }
    fn write_file(&self, name: &str, data: &[u8]) -> Result<()> {
        self.inner.write_file(name, data)
    }
    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(name, offset, buf)
    }
    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        self.inner.read_file(name)
    }
    fn len(&self, name: &str) -> Result<u64> {
        self.inner.len(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
}

fn config(window: usize) -> KvConfig {
    KvConfig {
        auto_maintenance: false,
        group_commit_window_ops: window,
        ..KvConfig::default()
    }
}

type Cells = Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>;

fn cell(row: u32, qual: u8, val: u32) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    (
        row.to_be_bytes().to_vec(),
        vec![qual],
        val.to_be_bytes().to_vec(),
    )
}

/// Logical content: every cell's latest value, in key order.
fn content(store: &Store) -> Cells {
    let mut out = Vec::new();
    for row in store.scan_at(None, None, u64::MAX).unwrap() {
        let row = row.unwrap();
        for (qual, _ts, val) in row.cells {
            out.push((row.row.clone(), qual, val));
        }
    }
    out
}

/// Drives `threads` writers over disjoint key ranges through a gated env,
/// then crash-reopens from the same durable state. Returns the recovered
/// content and the I/O stats of the writing store.
fn gated_run(window: usize, threads: u32, batches: u32) -> (Cells, dt_kvstore::KvSnapshot) {
    let env: Arc<dyn Env> = Arc::new(SlowAppendEnv::new(Duration::from_millis(4)));
    let stats = Arc::<dt_kvstore::KvCounters>::default();
    let store = Store::open(
        env.clone(),
        config(window),
        LogicalClock::new(),
        stats.clone(),
    )
    .unwrap();
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = store.clone();
            s.spawn(move || {
                for b in 0..batches {
                    let base = t * 1_000 + b * 10;
                    store
                        .put_batch(vec![cell(base, 0, b), cell(base + 1, 1, b * 3)])
                        .unwrap();
                }
            });
        }
    });
    let snapshot = stats.snapshot();
    drop(store);
    // Crash: no flush happened (auto maintenance off), so everything must
    // come back from the WAL alone.
    let recovered = Store::open(env, config(window), LogicalClock::new(), Arc::default()).unwrap();
    (content(&recovered), snapshot)
}

/// Windows 1, 8 and 64 must recover the exact same logical state from a
/// concurrent burst, and a gated window > 1 must actually coalesce —
/// saving fsyncs — while window 1 never groups.
#[test]
fn concurrent_burst_recovers_identically_across_windows() {
    let (base, s1) = gated_run(1, 4, 6);
    assert_eq!(s1.group_commits, 0, "window 1 must never coalesce");
    assert_eq!(s1.wal_fsyncs_saved, 0);
    assert_eq!(base.len(), 4 * 6 * 2, "every cell recovered");
    for window in [8usize, 64] {
        let (got, stats) = gated_run(window, 4, 6);
        assert_eq!(got, base, "window {window} recovered different content");
        assert!(
            stats.group_commits > 0,
            "window {window} never coalesced under a gated WAL"
        );
        assert!(
            stats.wal_fsyncs_saved > 0,
            "window {window} saved no fsyncs: {stats:?}"
        );
    }
}

/// Tearing a coalesced WAL at every byte boundary salvages exactly the
/// complete-frame prefix: each record that fully survived the tear comes
/// back, everything after the first incomplete frame is dropped, and the
/// store opens cleanly either way.
#[test]
fn torn_tail_on_coalesced_wal_salvages_frame_prefix() {
    // Build a WAL with multi-batch groups (one writer thread ahead of the
    // gate, three behind it).
    let env = Arc::new(SlowAppendEnv::new(Duration::from_millis(4)));
    let store = Store::open(env.clone(), config(64), LogicalClock::new(), Arc::default()).unwrap();
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let store = store.clone();
            s.spawn(move || {
                for b in 0..4u32 {
                    store.put_batch(vec![cell(t * 100 + b, 0, b)]).unwrap();
                }
            });
        }
    });
    drop(store);
    let wal_name = env
        .list()
        .into_iter()
        .find(|n| n.starts_with("wal"))
        .expect("a WAL segment exists");
    let bytes = env.read_file(&wal_name).unwrap();

    // Frame layout: [payload_len u32 LE][crc32 u32 LE][payload]. Complete
    // frames in a prefix of length `cut` are exactly the salvageable
    // records; each batch above holds one cell.
    let frames_complete = |cut: usize| {
        let mut off = 0usize;
        let mut n = 0u64;
        while off + 8 <= cut {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            if off + 8 + len > cut {
                break;
            }
            off += 8 + len;
            n += 1;
        }
        n
    };
    for cut in 0..=bytes.len() {
        let torn = Arc::new(MemEnv::new());
        torn.write_file(&wal_name, &bytes[..cut]).unwrap();
        let reopened = Store::open(torn, config(64), LogicalClock::new(), Arc::default())
            .unwrap_or_else(|e| panic!("tear at {cut} failed reopen: {e}"));
        assert_eq!(
            reopened.entry_count(),
            frames_complete(cut),
            "tear at byte {cut} did not salvage the exact record prefix"
        );
    }
    assert_eq!(frames_complete(bytes.len()), 16, "all 16 batches framed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any single-caller sequence of batches the group-commit window
    /// is unobservable: the WAL files are byte-identical across windows
    /// (an uncontended put is always a group of one) and so is the
    /// recovered content.
    #[test]
    fn uncontended_wal_is_byte_identical_across_windows(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..64, 0u8..4, any::<u32>()), 1..5),
            1..20,
        )
    ) {
        let mut files_by_window = Vec::new();
        let mut contents = Vec::new();
        for window in [1usize, 8, 64] {
            let env = Arc::new(MemEnv::new());
            let store = Store::open(
                env.clone(),
                config(window),
                LogicalClock::new(),
                Arc::default(),
            ).unwrap();
            for batch in &batches {
                let cells = batch.iter().map(|&(r, q, v)| cell(r, q, v)).collect();
                store.put_batch(cells).unwrap();
            }
            drop(store);
            let mut files: Vec<(String, Vec<u8>)> = env
                .list()
                .into_iter()
                .map(|n| { let b = env.read_file(&n).unwrap(); (n, b) })
                .collect();
            files.sort();
            files_by_window.push(files);
            let reopened = Store::open(
                env,
                config(window),
                LogicalClock::new(),
                Arc::default(),
            ).unwrap();
            contents.push(content(&reopened));
        }
        prop_assert_eq!(&files_by_window[0], &files_by_window[1]);
        prop_assert_eq!(&files_by_window[0], &files_by_window[2]);
        prop_assert_eq!(&contents[0], &contents[1]);
        prop_assert_eq!(&contents[0], &contents[2]);
    }
}
