//! A shared cache of parsed ORC footers (DESIGN.md §10).
//!
//! Opening an ORC file costs a tail read plus a full parse of the schema,
//! stripe directory and statistics — pure CPU and I/O waste when the same
//! master file is opened once per statement. This cache keeps the parsed
//! [`OrcReader`] (which is immutable after open) behind an `Arc`, keyed by
//! path, so `open_master` and `stats()` pay the parse once per file per
//! process.
//!
//! A hit is validated against the namespace before being served: the DFS
//! epoch must match the one recorded at fill time (a namenode restart can
//! roll the namespace back past commits, see [`Dfs::epoch`]) and the file's
//! current length must equal the length parsed. Paths in this system embed
//! a generation and a never-reused file ID, so within one epoch a path's
//! bytes can never silently change — the two checks close the crash window
//! and the delete/recreate window respectively.

use std::sync::{Arc, Mutex};

use dt_common::{LruCache, Result};
use dt_dfs::Dfs;

use crate::reader::OrcReader;

struct Entry {
    reader: Arc<OrcReader>,
    epoch: u64,
}

dt_common::counters! {
    /// What one [`FooterCache`] counts.
    pub struct FooterCacheCounters => FooterCacheStats {
        /// Opens served from a cached parse.
        hits,
        /// Opens that parsed the footer from storage.
        misses,
        /// Parses evicted to respect the capacity bound.
        evictions,
        /// Parses currently resident (gauge, read off the LRU by
        /// [`FooterCache::stats`]).
        entries,
    }
}

/// A capacity-bounded, thread-safe cache of parsed ORC footers.
pub struct FooterCache {
    lru: Mutex<LruCache<String, Entry>>,
    counters: FooterCacheCounters,
}

impl FooterCache {
    /// A cache holding at most `capacity` parsed footers (0 disables it).
    pub fn new(capacity: u64) -> Self {
        FooterCache {
            lru: Mutex::new(LruCache::new(capacity)),
            counters: FooterCacheCounters::default(),
        }
    }

    /// Opens `path`, serving the parsed footer from cache when the entry
    /// is still valid for the current namespace state.
    pub fn open(&self, dfs: &Dfs, path: &str) -> Result<Arc<OrcReader>> {
        let epoch = dfs.epoch();
        // The length lookup doubles as the existence check a fresh open
        // would perform — a deleted path misses the cache *and* errors.
        let len = dfs.len(path)?;
        {
            let mut lru = self.lru.lock().unwrap();
            if let Some(entry) = lru.get(&path.to_string()) {
                if entry.epoch == epoch && entry.reader.file_len() == len {
                    let reader = entry.reader.clone();
                    drop(lru);
                    self.counters.hits.inc();
                    return Ok(reader);
                }
                lru.remove(&path.to_string());
            }
        }
        let reader = Arc::new(OrcReader::open(dfs, path)?);
        self.counters.misses.inc();
        let evicted = self.lru.lock().unwrap().insert(
            path.to_string(),
            Entry {
                reader: reader.clone(),
                epoch,
            },
            1,
        );
        self.counters.evictions.add(evicted);
        Ok(reader)
    }

    /// Drops the cached parse of `path`, if any.
    pub fn invalidate(&self, path: &str) {
        self.lru.lock().unwrap().remove(&path.to_string());
    }

    /// Drops every cached parse whose path starts with `prefix`
    /// (generation cleanup, DROP TABLE).
    pub fn invalidate_prefix(&self, prefix: &str) {
        self.lru.lock().unwrap().retain(|k| !k.starts_with(prefix));
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.lru.lock().unwrap().clear();
    }

    /// Current counters.
    pub fn stats(&self) -> FooterCacheStats {
        FooterCacheStats {
            entries: self.lru.lock().unwrap().len() as u64,
            ..self.counters.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OrcWriter, WriterOptions};
    use dt_common::{DataType, Schema, Value};
    use dt_dfs::DfsConfig;

    fn write_file(dfs: &Dfs, path: &str, rows: i64) {
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let mut w = OrcWriter::create(dfs, path, schema, WriterOptions::default()).unwrap();
        for i in 0..rows {
            w.write_row(vec![Value::Int64(i)]).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn one_parse_per_path_until_invalidated() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_file(&dfs, "/t/part-1", 10);
        let cache = FooterCache::new(64);
        let a = cache.open(&dfs, "/t/part-1").unwrap();
        let b = cache.open(&dfs, "/t/part-1").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        cache.invalidate("/t/part-1");
        let c = cache.open(&dfs, "/t/part-1").unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn delete_and_recreate_is_not_served_stale() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_file(&dfs, "/t/part-1", 10);
        let cache = FooterCache::new(64);
        assert_eq!(cache.open(&dfs, "/t/part-1").unwrap().num_rows(), 10);
        dfs.delete("/t/part-1").unwrap();
        assert!(cache.open(&dfs, "/t/part-1").is_err());
        write_file(&dfs, "/t/part-1", 25);
        assert_eq!(cache.open(&dfs, "/t/part-1").unwrap().num_rows(), 25);
    }

    #[test]
    fn namenode_restart_invalidates_by_epoch() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_file(&dfs, "/t/part-1", 10);
        let cache = FooterCache::new(64);
        let a = cache.open(&dfs, "/t/part-1").unwrap();
        dfs.crash_and_reopen().unwrap();
        let b = cache.open(&dfs, "/t/part-1").unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "pre-restart parse must not be reused");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        for i in 1..=3 {
            write_file(&dfs, &format!("/t/part-{i}"), i as i64);
        }
        let cache = FooterCache::new(2);
        cache.open(&dfs, "/t/part-1").unwrap();
        cache.open(&dfs, "/t/part-2").unwrap();
        cache.open(&dfs, "/t/part-3").unwrap(); // evicts part-1
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        cache.open(&dfs, "/t/part-1").unwrap(); // re-parse
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn prefix_invalidation_scopes_to_generation() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        write_file(&dfs, "/w/t/gen-1/part-1", 1);
        write_file(&dfs, "/w/t/gen-2/part-2", 2);
        let cache = FooterCache::new(64);
        cache.open(&dfs, "/w/t/gen-1/part-1").unwrap();
        cache.open(&dfs, "/w/t/gen-2/part-2").unwrap();
        cache.invalidate_prefix("/w/t/gen-1/");
        assert_eq!(cache.stats().entries, 1);
        cache.open(&dfs, "/w/t/gen-2/part-2").unwrap();
        assert_eq!(cache.stats().hits, 1);
    }
}
