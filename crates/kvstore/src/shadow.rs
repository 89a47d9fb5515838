//! The in-memory shadow tier: WAL-durable sorted runs held out of the
//! memtable (DESIGN.md §17).
//!
//! The differential-buffer structure behind DualTable's delta tier: each
//! committed batch becomes one **sorted run** (keys ascending, versions
//! newest-first), appended without rebalancing any global structure —
//! the O(batch log batch) sort is private to the writer. Reads merge the
//! runs; once enough runs accumulate they are merged into one, keeping
//! lookup cost bounded without ever touching the write-hot path with a
//! big-O surprise. Entries here are durable **only** in the WAL: a flush
//! must carry them forward before truncating segments, and a spill
//! re-encodes them as regular puts (timestamps preserved) plus a retire
//! marker in one atomic record.

use crate::cell::{CellKey, Version};

/// One sorted run: keys ascending, each key's versions newest-first.
type Run = Vec<(CellKey, Vec<Version>)>;

/// Runs are folded into one once this many accumulate, bounding the
/// per-read merge width. Small enough that a lookup never touches more
/// than a handful of binary searches — and, as important, small enough
/// that the fold's per-cell version GC keeps up with an EDIT-hot burst
/// rate (ungarbage-collected versions only go away at fold time). Large
/// enough that bursts of small commits don't trigger quadratic
/// re-merging.
const MAX_RUNS: usize = 4;

/// Fixed per-entry overhead charged to the memory budget on top of the
/// key and value bytes (version struct, vec headers).
const ENTRY_OVERHEAD: usize = 24;

fn entry_bytes(key: &CellKey, version: &Version) -> usize {
    key.row.len()
        + key.qual.len()
        + version.mutation.value().map_or(0, <[u8]>::len)
        + ENTRY_OVERHEAD
}

/// The shadow tier of one store.
#[derive(Debug, Default)]
pub(crate) struct ShadowTier {
    runs: Vec<Run>,
    bytes: usize,
    entries: usize,
    max_ts: u64,
}

impl ShadowTier {
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one committed batch as a sorted run. Exact duplicates
    /// (same key and timestamp) of entries already present are dropped:
    /// WAL replay may deliver an entry twice when a crash lands between a
    /// flush's carry-forward append and its segment truncation.
    ///
    /// `version_cap` is the store's `max_versions`: when a fold triggers,
    /// each cell keeps only its newest `version_cap` put-versions — the
    /// same HBase `VERSIONS` rule full compaction applies to SSTables.
    /// Without it, an EDIT-hot cell would pile up every historical
    /// version in memory while the identical writes through the memtable
    /// path get garbage-collected, and the tier's reads would slow down
    /// exactly under the workload it exists to absorb. Tombstones are
    /// always kept: only a full compaction sees enough to GC them.
    pub fn insert_batch(&mut self, batch: Vec<(CellKey, Version)>, version_cap: usize) {
        if batch.is_empty() {
            return;
        }
        let mut run: Run = Vec::new();
        let mut sorted = batch;
        sorted.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.ts.cmp(&a.1.ts)));
        for (key, version) in sorted {
            if self.contains_exact(&key, version.ts) {
                continue;
            }
            if let Some((k, versions)) = run.last_mut() {
                if *k == key {
                    if versions.iter().any(|v| v.ts == version.ts) {
                        continue;
                    }
                    self.bytes += entry_bytes(&key, &version);
                    self.entries += 1;
                    self.max_ts = self.max_ts.max(version.ts);
                    versions.push(version);
                    continue;
                }
            }
            self.bytes += entry_bytes(&key, &version);
            self.entries += 1;
            self.max_ts = self.max_ts.max(version.ts);
            run.push((key, vec![version]));
        }
        if !run.is_empty() {
            self.runs.push(run);
        }
        if self.runs.len() > MAX_RUNS {
            self.merge_runs(version_cap);
        }
    }

    /// Whether an entry with exactly this `(key, ts)` already exists.
    fn contains_exact(&self, key: &CellKey, ts: u64) -> bool {
        self.runs.iter().any(|run| {
            run.binary_search_by(|(k, _)| k.cmp(key))
                .is_ok_and(|i| run[i].1.iter().any(|v| v.ts == ts))
        })
    }

    /// Folds all runs into one (keys ascending, versions newest-first),
    /// keeping at most `version_cap` put-versions per cell (tombstones
    /// always survive — compaction GC rules own those). `max_ts` never
    /// changes: dropped versions are strictly older than the kept newest,
    /// so spill retire boundaries stay correct.
    fn merge_runs(&mut self, version_cap: usize) {
        let mut merged: std::collections::BTreeMap<CellKey, Vec<Version>> =
            std::collections::BTreeMap::new();
        for run in self.runs.drain(..) {
            for (key, versions) in run {
                merged.entry(key).or_default().extend(versions);
            }
        }
        let mut run: Run = merged.into_iter().collect();
        // Unlike full compaction the fold can't see the other tiers, so
        // dropping a cell's newest put would resurrect whatever stale
        // value sits below it — clamp the cap to keep at least one.
        let version_cap = version_cap.max(1);
        self.bytes = 0;
        self.entries = 0;
        for (key, versions) in &mut run {
            versions.sort_by_key(|v| std::cmp::Reverse(v.ts));
            let mut puts = 0usize;
            versions.retain(|v| match v.mutation {
                crate::cell::Mutation::Delete => true,
                crate::cell::Mutation::Put(_) => {
                    puts += 1;
                    puts <= version_cap
                }
            });
            for v in versions.iter() {
                self.bytes += entry_bytes(key, v);
                self.entries += 1;
            }
        }
        run.retain(|(_, versions)| !versions.is_empty());
        if !run.is_empty() {
            self.runs.push(run);
        }
    }

    /// All versions of one cell across the runs, in no particular order
    /// (callers sort newest-first after merging with the other tiers).
    pub fn get(&self, key: &CellKey) -> Vec<Version> {
        let mut out = Vec::new();
        for run in &self.runs {
            if let Ok(i) = run.binary_search_by(|(k, _)| k.cmp(key)) {
                out.extend(run[i].1.iter().cloned());
            }
        }
        out
    }

    /// Every entry with a row key in `[start, end)`, sorted by key
    /// (versions of one key newest-first) — the scan stream. Every UNION
    /// READ of a dirty file calls this, so its cost is one sort of
    /// borrowed entries, and none when a single run is resident.
    pub fn range_entries(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Vec<(CellKey, Version)> {
        let mut entries: Vec<(&CellKey, &Version)> = Vec::new();
        for run in &self.runs {
            // Runs are key-sorted and `CellKey`'s ordering is row-major,
            // so the row window is one contiguous slice per run. Range
            // scans are issued per attached file range — walking every
            // resident entry here would make each table scan O(files ×
            // total delta entries).
            let lo = match start {
                Some(s) => run.partition_point(|(k, _)| k.row.as_slice() < s),
                None => 0,
            };
            let hi = match end {
                Some(e) => run[lo..].partition_point(|(k, _)| k.row.as_slice() < e) + lo,
                None => run.len(),
            };
            for (key, versions) in &run[lo..hi] {
                entries.extend(versions.iter().map(|v| (key, v)));
            }
        }
        if self.runs.len() > 1 {
            entries.sort_by(|a, b| a.0.cmp(b.0).then(b.1.ts.cmp(&a.1.ts)));
        }
        entries
            .into_iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Every entry, sorted by key then newest-first — the spill /
    /// carry-forward snapshot.
    pub fn snapshot(&self) -> Vec<(CellKey, Version)> {
        self.range_entries(None, None)
    }

    /// Drops every entry with `ts <= boundary` (the in-memory half of a
    /// spill: those entries now live in the memtable with the same
    /// timestamps, so visibility is unchanged).
    pub fn retire_through(&mut self, boundary: u64) {
        let mut freed_bytes = 0usize;
        let mut freed_entries = 0usize;
        for run in &mut self.runs {
            for (key, versions) in run.iter_mut() {
                versions.retain(|v| {
                    if v.ts > boundary {
                        true
                    } else {
                        freed_bytes += entry_bytes(key, v);
                        freed_entries += 1;
                        false
                    }
                });
            }
            run.retain(|(_, versions)| !versions.is_empty());
        }
        self.runs.retain(|run| !run.is_empty());
        self.bytes = self.bytes.saturating_sub(freed_bytes);
        self.entries -= freed_entries;
        if self.entries == 0 {
            self.bytes = 0;
            self.max_ts = 0;
        }
    }

    /// Approximate heap footprint — the number the spill budget is
    /// enforced against.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of version entries held.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Highest timestamp held — the retire boundary a spill uses.
    pub fn max_ts(&self) -> u64 {
        self.max_ts
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Mutation;

    fn put(row: &[u8], ts: u64, val: &[u8]) -> (CellKey, Version) {
        (
            CellKey::new(row.to_vec(), b"q".to_vec()),
            Version {
                ts,
                mutation: Mutation::Put(val.to_vec()),
            },
        )
    }

    #[test]
    fn insert_get_and_ordering() {
        let mut s = ShadowTier::new();
        s.insert_batch(vec![put(b"b", 2, b"x"), put(b"a", 1, b"y")], 3);
        s.insert_batch(vec![put(b"a", 3, b"z")], 3);
        assert_eq!(s.entry_count(), 3);
        let a = s.get(&CellKey::new(b"a".to_vec(), b"q".to_vec()));
        assert_eq!(a.len(), 2);
        let entries = s.snapshot();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0.row, b"a");
        assert_eq!(entries[0].1.ts, 3, "versions newest-first within a key");
        assert_eq!(entries[1].1.ts, 1);
        assert_eq!(entries[2].0.row, b"b");
    }

    #[test]
    fn duplicate_key_ts_is_idempotent() {
        let mut s = ShadowTier::new();
        s.insert_batch(vec![put(b"a", 1, b"v")], 3);
        let bytes = s.bytes();
        s.insert_batch(vec![put(b"a", 1, b"v")], 3); // carry-forward replay dup
        assert_eq!(s.entry_count(), 1);
        assert_eq!(s.bytes(), bytes);
    }

    #[test]
    fn retire_drops_only_covered_timestamps() {
        let mut s = ShadowTier::new();
        s.insert_batch(vec![put(b"a", 1, b"v"), put(b"b", 5, b"w")], 3);
        s.retire_through(3);
        assert_eq!(s.entry_count(), 1);
        assert_eq!(s.snapshot()[0].1.ts, 5);
        s.retire_through(5);
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn range_respects_bounds() {
        let mut s = ShadowTier::new();
        for (i, row) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            s.insert_batch(vec![put(*row, i as u64 + 1, b"v")], 3);
        }
        let mid = s.range_entries(Some(b"b"), Some(b"d"));
        assert_eq!(mid.len(), 2);
        assert_eq!(mid[0].0.row, b"b");
        assert_eq!(mid[1].0.row, b"c");
    }

    #[test]
    fn many_runs_fold_and_stay_readable() {
        let mut s = ShadowTier::new();
        for i in 0..(MAX_RUNS as u64 + 9) {
            s.insert_batch(
                vec![put(format!("r{:03}", i % 7).as_bytes(), i + 1, b"v")],
                usize::MAX,
            );
        }
        assert!(s.runs.len() <= MAX_RUNS + 1, "runs are folded");
        assert_eq!(s.entry_count(), MAX_RUNS + 9);
        let key = CellKey::new(b"r000".to_vec(), b"q".to_vec());
        assert!(!s.get(&key).is_empty());
        assert_eq!(s.max_ts(), MAX_RUNS as u64 + 9);
    }

    #[test]
    fn fold_caps_put_versions_but_keeps_tombstones() {
        let mut s = ShadowTier::new();
        // One hot cell rewritten every batch, plus an early tombstone.
        // Exactly MAX_RUNS + 1 batches: the last insert triggers the fold.
        for i in 0..=(MAX_RUNS as u64) {
            if i == 1 {
                s.insert_batch(
                    vec![(
                        CellKey::new(b"hot".to_vec(), b"q".to_vec()),
                        Version {
                            ts: i + 1,
                            mutation: Mutation::Delete,
                        },
                    )],
                    2,
                );
            } else {
                s.insert_batch(vec![put(b"hot", i + 1, b"v")], 2);
            }
        }
        // The fold ran with cap 2: the newest two puts survive, the
        // tombstone survives, everything older is gone.
        let key = CellKey::new(b"hot".to_vec(), b"q".to_vec());
        let versions = s.get(&key);
        let puts = versions.iter().filter(|v| !v.mutation.is_delete()).count();
        let tombs = versions.iter().filter(|v| v.mutation.is_delete()).count();
        assert_eq!(puts, 2, "fold keeps exactly the newest cap puts");
        assert_eq!(tombs, 1, "fold never drops tombstones");
        assert_eq!(s.entry_count(), 3);
        assert_eq!(s.max_ts(), MAX_RUNS as u64 + 1, "max_ts survives the fold");
        let newest = versions.iter().map(|v| v.ts).max().unwrap();
        assert_eq!(newest, MAX_RUNS as u64 + 1);
        // Byte accounting shrank with the drop and still zeroes out.
        s.retire_through(s.max_ts());
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
    }
}
