//! The system-wide metadata table (paper §V-A, Figure 3).
//!
//! Lives in the KV tier (one HBase table in the paper). It allocates the
//! incremental **file IDs** that make record IDs unique, and records the
//! historical modification ratios the cost model's "historical analysis of
//! the execution log" estimator (§IV) consumes. It also holds the decision
//! record of a commit that spans several stores ([`crate::commit`]).

use dt_common::{Error, Result};
use dt_kvstore::{KvCluster, Store};
use parking_lot::Mutex;
use std::sync::Arc;

/// Name of the metadata table inside the KV cluster.
pub const META_TABLE: &str = "__dualtable_meta";

const QUAL_FILE_ID: &[u8] = b"file_id_counter";
const QUAL_RATIO_SUM: &[u8] = b"ratio_sum";
const QUAL_RATIO_COUNT: &[u8] = b"ratio_count";
const QUAL_GENERATION: &[u8] = b"generation";

/// The cell naming `generation` the live master generation of `table`:
/// the commit point of INSERT OVERWRITE and COMPACT, put only by
/// [`crate::commit`] — alone, or in the same batch as a decision record.
pub(crate) fn generation_cell(table: &str, generation: u64) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let row = format!("table:{table}").into_bytes();
    (
        row,
        QUAL_GENERATION.to_vec(),
        generation.to_be_bytes().to_vec(),
    )
}

/// Handle to the system-wide metadata table.
#[derive(Clone)]
pub struct MetadataManager {
    // Resolved per call: a simulated crash-and-reopen replaces the Store
    // inside the cluster, so a cached handle would go stale.
    kv: KvCluster,
    // File-ID allocation is get-then-put; serialize it.
    alloc_lock: Arc<Mutex<()>>,
}

impl MetadataManager {
    /// Opens (creating if needed) the metadata table.
    pub fn open(kv: &KvCluster) -> Result<Self> {
        kv.table_or_create(META_TABLE)?;
        Ok(MetadataManager {
            kv: kv.clone(),
            alloc_lock: Arc::new(Mutex::new(())),
        })
    }

    pub(crate) fn store(&self) -> Result<Store> {
        self.kv.table(META_TABLE)
    }

    /// Allocates the next file ID for `table` (starting at 1; 0 is
    /// reserved). IDs are never reused — not even across INSERT
    /// OVERWRITE / COMPACT — which is what keeps stale attached-tier
    /// overlays from ever resolving against a new master file.
    pub fn next_file_id(&self, table: &str) -> Result<u32> {
        self.reserve_file_ids(table, 1)
    }

    /// Reserves `count` consecutive file IDs for `table` in one counter
    /// bump, returning the first. Parallel rewrite workers (DESIGN.md §12)
    /// reserve one range per partition *in partition order* so the
    /// ascending-file-ID scan order of the new generation equals the
    /// concatenation of the partitions — ID gaps from over-reservation are
    /// harmless because IDs only need uniqueness and ordering.
    pub fn reserve_file_ids(&self, table: &str, count: u32) -> Result<u32> {
        let count = count.max(1);
        let _guard = self.alloc_lock.lock();
        let store = self.store()?;
        let row = format!("table:{table}");
        let current = match store.get(row.as_bytes(), QUAL_FILE_ID)? {
            Some(bytes) => u32::from_be_bytes(
                bytes
                    .as_slice()
                    .try_into()
                    .map_err(|_| Error::corrupt("bad file id counter"))?,
            ),
            None => 0,
        };
        let last = current
            .checked_add(count)
            .ok_or_else(|| Error::internal("file id space exhausted"))?;
        store.put(row.as_bytes(), QUAL_FILE_ID, &last.to_be_bytes())?;
        Ok(current + 1)
    }

    /// The committed master-table generation of `table` (0 before any
    /// OVERWRITE/COMPACT commits one, see [`generation_cell`]).
    pub fn generation(&self, table: &str) -> Result<u64> {
        let row = format!("table:{table}");
        match self.store()?.get(row.as_bytes(), QUAL_GENERATION)? {
            Some(bytes) => Ok(u64::from_be_bytes(
                bytes
                    .as_slice()
                    .try_into()
                    .map_err(|_| Error::corrupt("bad generation"))?,
            )),
            None => Ok(0),
        }
    }

    /// Records an observed modification ratio for a statement key.
    pub fn record_ratio(&self, statement_key: &str, ratio: f64) -> Result<()> {
        let store = self.store()?;
        let row = format!("stmt:{statement_key}");
        let (sum, count) = self.ratio_stats(&row)?;
        store.put(row.as_bytes(), QUAL_RATIO_SUM, &(sum + ratio).to_le_bytes())?;
        store.put(row.as_bytes(), QUAL_RATIO_COUNT, &(count + 1).to_le_bytes())?;
        Ok(())
    }

    /// Historical average ratio for a statement key, if any runs were
    /// recorded.
    pub fn historical_ratio(&self, statement_key: &str) -> Result<Option<f64>> {
        let row = format!("stmt:{statement_key}");
        let (sum, count) = self.ratio_stats(&row)?;
        if count == 0 {
            Ok(None)
        } else {
            Ok(Some(sum / count as f64))
        }
    }

    fn ratio_stats(&self, row: &str) -> Result<(f64, u64)> {
        let store = self.store()?;
        let sum = match store.get(row.as_bytes(), QUAL_RATIO_SUM)? {
            Some(bytes) => f64::from_le_bytes(
                bytes
                    .as_slice()
                    .try_into()
                    .map_err(|_| Error::corrupt("bad ratio sum"))?,
            ),
            None => 0.0,
        };
        let count = match store.get(row.as_bytes(), QUAL_RATIO_COUNT)? {
            Some(bytes) => u64::from_le_bytes(
                bytes
                    .as_slice()
                    .try_into()
                    .map_err(|_| Error::corrupt("bad ratio count"))?,
            ),
            None => 0,
        };
        Ok((sum, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_kvstore::KvConfig;

    fn manager() -> MetadataManager {
        let kv = KvCluster::in_memory(KvConfig::default());
        MetadataManager::open(&kv).unwrap()
    }

    #[test]
    fn file_ids_increment_per_table() {
        let m = manager();
        assert_eq!(m.next_file_id("a").unwrap(), 1);
        assert_eq!(m.next_file_id("a").unwrap(), 2);
        assert_eq!(m.next_file_id("b").unwrap(), 1);
        assert_eq!(m.next_file_id("a").unwrap(), 3);
    }

    #[test]
    fn reserved_ranges_are_disjoint_and_ordered() {
        let m = manager();
        let a = m.reserve_file_ids("t", 4).unwrap();
        let b = m.reserve_file_ids("t", 2).unwrap();
        let c = m.next_file_id("t").unwrap();
        assert_eq!(a, 1);
        assert_eq!(b, 5, "second range starts after the first");
        assert_eq!(c, 7);
        // A zero-count reservation still hands out one valid ID.
        assert_eq!(m.reserve_file_ids("t", 0).unwrap(), 8);
    }

    #[test]
    fn generation_defaults_to_zero_and_commits() {
        let m = manager();
        assert_eq!(m.generation("t").unwrap(), 0);
        m.store()
            .unwrap()
            .put_batch(vec![generation_cell("t", 3)])
            .unwrap();
        assert_eq!(m.generation("t").unwrap(), 3);
        assert_eq!(m.generation("other").unwrap(), 0);
    }

    #[test]
    fn historical_ratio_averages() {
        let m = manager();
        assert_eq!(m.historical_ratio("u1").unwrap(), None);
        m.record_ratio("u1", 0.02).unwrap();
        m.record_ratio("u1", 0.04).unwrap();
        let avg = m.historical_ratio("u1").unwrap().unwrap();
        assert!((avg - 0.03).abs() < 1e-12);
        assert_eq!(m.historical_ratio("other").unwrap(), None);
    }

    #[test]
    fn concurrent_allocation_is_unique() {
        let m = manager();
        let mut ids = std::collections::HashSet::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let m = m.clone();
                    s.spawn(move || {
                        (0..25)
                            .map(|_| m.next_file_id("t").unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for id in h.join().unwrap() {
                    assert!(ids.insert(id), "duplicate file id {id}");
                }
            }
        });
        assert_eq!(ids.len(), 100);
    }
}
