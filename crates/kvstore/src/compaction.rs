//! Full (major) compaction: merge all SSTables into one.
//!
//! Version retention during compaction:
//!
//! * per cell, at most `max_versions` put-versions survive (HBase
//!   `VERSIONS` semantics);
//! * versions shadowed by a newer cell tombstone are dropped;
//! * versions at or below the row tombstone's timestamp are dropped;
//! * tombstones themselves are garbage-collected (a full compaction sees
//!   every version, so nothing older can resurface).

use std::sync::Arc;

use dt_common::Result;

use crate::cell::{CellKey, Version, ROW_TOMBSTONE_QUALIFIER};
use crate::env::Env;
use crate::merge::MergeScanner;
use crate::sstable::{SsTable, SsTableBuilder};
use crate::store::KvConfig;
use crate::KvCounters;

/// Minor compaction: merges `tables` into one SSTable **without** any
/// garbage collection. Tombstones and every version are preserved, because
/// older SSTables outside this set may still hold shadowed data that the
/// tombstones must keep suppressing (HBase's minor compaction has the same
/// rule).
pub(crate) fn merge_tables_keep_all(
    env: &Arc<dyn Env>,
    tables: &[Arc<SsTable>],
    config: &KvConfig,
    stats: &Arc<KvCounters>,
    file_no: u64,
) -> Result<(String, Arc<SsTable>)> {
    let streams = tables
        .iter()
        .map(|t| {
            Box::new(t.iter(None, None))
                as Box<dyn Iterator<Item = Result<(CellKey, Version)>> + Send>
        })
        .collect();
    let merge = MergeScanner::new(streams);
    let expected: usize = tables.iter().map(|t| t.entry_count() as usize).sum();
    let mut builder = SsTableBuilder::new(expected, config.block_size);
    for group in merge {
        let (key, versions) = group?;
        for version in &versions {
            builder.add(&key, version)?;
        }
    }
    let bytes = builder.finish();
    let name = format!("sst_{file_no:010}");
    stats.record_write(bytes.len() as u64);
    env.write_file(&name, &bytes)?;
    let table = Arc::new(SsTable::open(env.clone(), name.clone(), stats.clone())?);
    Ok((name, table))
}

/// Merges `tables` into a fresh SSTable named with `file_no`; returns its
/// name and open handle. Callers swap it into the store state and delete
/// the inputs.
pub(crate) fn compact_tables(
    env: &Arc<dyn Env>,
    tables: &[Arc<SsTable>],
    config: &KvConfig,
    stats: &Arc<KvCounters>,
    file_no: u64,
) -> Result<(String, Arc<SsTable>)> {
    let streams = tables
        .iter()
        .map(|t| {
            Box::new(t.iter(None, None))
                as Box<dyn Iterator<Item = Result<(CellKey, Version)>> + Send>
        })
        .collect();
    let merge = MergeScanner::new(streams);

    let expected: usize = tables.iter().map(|t| t.entry_count() as usize).sum();
    let mut builder = SsTableBuilder::new(expected, config.block_size);

    // Cell groups arrive in key order, so all qualifiers of a row are
    // contiguous and the row tombstone (if any) appears somewhere within the
    // row's run. Buffer one row at a time to apply it.
    let mut row_buf: Vec<(CellKey, Vec<Version>)> = Vec::new();
    let mut current_row: Option<Vec<u8>> = None;

    let flush_row =
        |builder: &mut SsTableBuilder, row_buf: &mut Vec<(CellKey, Vec<Version>)>| -> Result<()> {
            let row_tomb_ts = row_buf
                .iter()
                .filter(|(k, _)| k.qual == ROW_TOMBSTONE_QUALIFIER)
                .flat_map(|(_, vs)| vs.iter())
                .map(|v| v.ts)
                .max()
                .unwrap_or(0);
            for (key, versions) in row_buf.drain(..) {
                if key.qual == ROW_TOMBSTONE_QUALIFIER {
                    continue; // GC'd: its effect is applied below.
                }
                // versions are newest-first. Keep puts newer than both the row
                // tombstone and any cell tombstone, up to max_versions.
                let cell_tomb_ts = versions
                    .iter()
                    .filter(|v| v.mutation.is_delete())
                    .map(|v| v.ts)
                    .max()
                    .unwrap_or(0);
                let cutoff = row_tomb_ts.max(cell_tomb_ts);
                let mut kept = 0usize;
                for version in &versions {
                    if version.mutation.is_delete() || version.ts <= cutoff {
                        continue;
                    }
                    if kept == config.max_versions {
                        break;
                    }
                    builder.add(&key, version)?;
                    kept += 1;
                }
            }
            Ok(())
        };

    for group in merge {
        let (key, versions) = group?;
        if current_row.as_deref() != Some(key.row.as_slice()) {
            flush_row(&mut builder, &mut row_buf)?;
            current_row = Some(key.row.clone());
        }
        row_buf.push((key, versions));
    }
    flush_row(&mut builder, &mut row_buf)?;

    let bytes = builder.finish();
    let name = format!("sst_{file_no:010}");
    stats.record_write(bytes.len() as u64);
    env.write_file(&name, &bytes)?;
    let table = Arc::new(SsTable::open(env.clone(), name.clone(), stats.clone())?);
    Ok((name, table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Mutation;
    use crate::env::MemEnv;
    use dt_common::LogicalClock;

    fn table_from(
        env: &Arc<dyn Env>,
        name: &str,
        entries: Vec<(CellKey, Version)>,
    ) -> Arc<SsTable> {
        let mut b = SsTableBuilder::new(entries.len(), 128);
        for (k, v) in &entries {
            b.add(k, v).unwrap();
        }
        env.write_file(name, &b.finish()).unwrap();
        Arc::new(SsTable::open(env.clone(), name.into(), Arc::default()).unwrap())
    }

    fn key(row: &str, qual: &str) -> CellKey {
        CellKey::new(row.as_bytes().to_vec(), qual.as_bytes().to_vec())
    }

    fn put(ts: u64, v: &str) -> Version {
        Version {
            ts,
            mutation: Mutation::Put(v.as_bytes().to_vec()),
        }
    }

    #[test]
    fn max_versions_enforced() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let t = table_from(
            &env,
            "sst_0000000000",
            vec![
                (key("r", "q"), put(5, "v5")),
                (key("r", "q"), put(4, "v4")),
                (key("r", "q"), put(3, "v3")),
                (key("r", "q"), put(2, "v2")),
            ],
        );
        let config = KvConfig {
            max_versions: 2,
            ..KvConfig::default()
        };
        let (_, out) = compact_tables(&env, &[t], &config, &Arc::default(), 7).unwrap();
        let versions = out.get(&key("r", "q")).unwrap();
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[0].ts, 5);
        assert_eq!(versions[1].ts, 4);
        let _ = LogicalClock::new();
    }

    #[test]
    fn row_tombstone_drops_older_cells_only() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let t = table_from(
            &env,
            "sst_0000000000",
            vec![
                (
                    key("r", std::str::from_utf8(b"after").unwrap()),
                    put(10, "survives"),
                ),
                (key("r", "old"), put(3, "dead")),
                (
                    CellKey::new(b"r".to_vec(), ROW_TOMBSTONE_QUALIFIER.to_vec()),
                    Version {
                        ts: 5,
                        mutation: Mutation::Delete,
                    },
                ),
            ],
        );
        let (_, out) =
            compact_tables(&env, &[t], &KvConfig::default(), &Arc::default(), 7).unwrap();
        assert_eq!(out.get(&key("r", "after")).unwrap().len(), 1);
        assert!(out.get(&key("r", "old")).unwrap().is_empty());
        // Tombstone itself GC'd.
        assert!(out
            .get(&CellKey::new(
                b"r".to_vec(),
                ROW_TOMBSTONE_QUALIFIER.to_vec()
            ))
            .unwrap()
            .is_empty());
    }
}
