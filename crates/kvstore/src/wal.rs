//! Write-ahead log: CRC-framed batches of cell mutations, in segments.
//!
//! Record framing: `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`.
//! The payload is a varint entry count followed by encoded entries. On
//! replay, a truncated or corrupt tail record is treated as a crash during
//! the final write and ignored — everything before it is recovered.
//!
//! The log is **segmented** so it cannot grow without bound: appends go to
//! the current segment (`wal_NNNNNNNNNN.log`); a flush rotates to a fresh
//! segment under the store's state lock and, once the flushed SSTable is
//! durable, deletes every segment at or below the rotation boundary. Those
//! segments' entries all live in the flushed table, so a crash at any
//! point loses nothing: before the truncation the entries are covered by
//! both the segments and the table, after it by the table alone. Replay
//! walks the segments in ascending order.

use std::sync::Arc;

use dt_common::crc32::crc32;
use dt_common::Result;

use crate::cell::{decode_wal_entry, encode_wal_entry, CellKey, Version, WalEntry};
use crate::env::Env;
use crate::KvCounters;

/// The file name of WAL segment `n`.
pub(crate) fn seg_name(n: u64) -> String {
    format!("wal_{n:010}.log")
}

/// The segment number of a WAL segment file name, if it is one.
fn parse_seg(name: &str) -> Option<u64> {
    name.strip_prefix("wal_")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Appender for one segment of the write-ahead log.
pub(crate) struct Wal {
    env: Arc<dyn Env>,
    stats: Arc<KvCounters>,
    segment: u64,
}

impl Wal {
    pub fn new(env: Arc<dyn Env>, stats: Arc<KvCounters>, segment: u64) -> Self {
        Wal {
            env,
            stats,
            segment,
        }
    }

    /// Durably appends a single data batch (the group-commit path with a
    /// group of one; kept as a test convenience).
    #[cfg(test)]
    pub fn append_batch(&self, batch: &[(CellKey, Version)]) -> Result<()> {
        let ops: Vec<WalEntry> = batch
            .iter()
            .map(|(k, v)| WalEntry::Data(k.clone(), v.clone()))
            .collect();
        self.append_batches(&[&ops])
    }

    /// Durably appends several caller batches in **one** `env.append` —
    /// the group-commit primitive (DESIGN.md §12). Each batch keeps its
    /// own CRC-framed record, byte-identical to what `append_batch` would
    /// have written for it, so replay and torn-tail salvage are unchanged:
    /// a tear inside the combined write loses a record-aligned *suffix* of
    /// the group (those callers were never acknowledged) and every record
    /// before the tear survives whole. One append = one simulated fsync
    /// shared by every batch in the group. A batch may mix data, shadow
    /// and retire entries (a spill's data copies + retire marker commit
    /// atomically this way, DESIGN.md §17).
    pub fn append_batches(&self, batches: &[&[WalEntry]]) -> Result<()> {
        let mut frames = Vec::new();
        for batch in batches {
            let mut payload = Vec::with_capacity(64 * batch.len());
            dt_common::codec::put_uvarint(&mut payload, batch.len() as u64);
            for entry in *batch {
                encode_wal_entry(&mut payload, entry);
            }
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(&payload).to_le_bytes());
            frames.extend_from_slice(&payload);
        }
        self.stats.record_write(frames.len() as u64);
        self.env.append(&seg_name(self.segment), &frames)
    }

    /// Deletes every segment at or below `boundary` — the truncation step
    /// after a successful memtable flush. Segments above the boundary hold
    /// entries appended after the flush drained the memtable and must
    /// survive.
    pub fn truncate_through(env: &dyn Env, boundary: u64) -> Result<()> {
        let covered = env
            .list()
            .into_iter()
            .filter(|n| parse_seg(n).is_some_and(|s| s <= boundary));
        for name in covered {
            match env.delete(&name) {
                Ok(()) | Err(dt_common::Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Deletes every segment — used when recovery salvaged nothing worth
    /// flushing.
    pub fn delete_all(env: &dyn Env) -> Result<()> {
        Self::truncate_through(env, u64::MAX)
    }

    /// Replays all intact records, in order (test convenience; the
    /// store opens via [`Wal::replay_with_report`]).
    #[cfg(test)]
    pub fn replay(env: &dyn Env) -> Result<Vec<(CellKey, Version)>> {
        Ok(Self::replay_with_report(env)?.entries)
    }

    /// Replays the longest valid prefix of the log — segments ascending —
    /// and reports what (if anything) was dropped.
    ///
    /// Corruption anywhere — a truncated tail, a CRC mismatch, or a
    /// payload that fails to decode despite a matching CRC — ends replay
    /// at the last good record instead of returning `Err`: a WAL is by
    /// definition allowed to end mid-write, and recovery must salvage
    /// every committed record before the damage. Damage stops replay
    /// *globally*, not just within one file: entries in later segments
    /// were acknowledged after the damaged ones, and replaying them over
    /// a hole would resurrect a suffix without its prefix. Only inability
    /// to read a log file itself (other than it not existing) is a real
    /// error.
    pub fn replay_with_report(env: &dyn Env) -> Result<WalRecovery> {
        let mut segments: Vec<(u64, String)> = env
            .list()
            .into_iter()
            .filter_map(|name| Some((parse_seg(&name)?, name)))
            .collect();
        segments.sort();
        let mut recovery = WalRecovery {
            next_segment: segments.last().map_or(0, |(n, _)| n + 1),
            ..WalRecovery::default()
        };
        for (_, file) in segments {
            let data = match env.read_file(&file) {
                Ok(d) => d,
                Err(dt_common::Error::NotFound(_)) => continue,
                Err(e) => return Err(e),
            };
            let clean = Self::replay_buffer(&data, &mut recovery);
            if !clean {
                break;
            }
        }
        Ok(recovery)
    }

    /// Replays one log file's bytes into `recovery`; returns `false` if
    /// the file ends in garbage (replay must stop globally).
    fn replay_buffer(data: &[u8], recovery: &mut WalRecovery) -> bool {
        let mut pos = 0usize;
        'records: while pos + 8 <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            let body_start = pos + 8;
            let body_end = match body_start.checked_add(len) {
                Some(e) if e <= data.len() => e,
                // Truncated tail — crash mid-write; stop here.
                _ => break,
            };
            let payload = &data[body_start..body_end];
            if crc32(payload) != crc {
                // Torn or corrupt record: stop replay at the last good one.
                break;
            }
            let mut p = 0usize;
            let entries_before = recovery.entries.len();
            let shadow_before = recovery.shadow.clone();
            let Ok(count) = dt_common::codec::get_uvarint(payload, &mut p) else {
                break;
            };
            for _ in 0..count {
                match decode_wal_entry(payload, &mut p) {
                    Ok(WalEntry::Data(key, version)) => recovery.entries.push((key, version)),
                    Ok(WalEntry::Shadow(key, version)) => recovery.shadow.push((key, version)),
                    // A spill or carry-forward boundary: every shadow entry
                    // appended before this marker with ts <= the boundary
                    // now lives in the memtable stream (its data copies
                    // precede the marker in this very record).
                    Ok(WalEntry::ShadowRetire(ts)) => {
                        recovery.shadow.retain(|(_, v)| v.ts > ts);
                    }
                    Err(_) => {
                        // A record is all-or-nothing: bad entry ⇒ drop the
                        // whole record and stop (its frame passed CRC, so
                        // this is either bit rot inside the checksum
                        // window or a codec bug — either way nothing after
                        // it can be trusted).
                        recovery.entries.truncate(entries_before);
                        recovery.shadow = shadow_before;
                        break 'records;
                    }
                }
            }
            recovery.records += 1;
            pos = body_end;
        }
        recovery.valid_len += pos as u64;
        recovery.dropped_bytes += (data.len() - pos) as u64;
        recovery.dropped_bytes == 0
    }
}

/// What [`Wal::replay_with_report`] salvaged.
#[derive(Debug, Default)]
pub(crate) struct WalRecovery {
    /// Entries of every intact record, in append order.
    pub entries: Vec<(CellKey, Version)>,
    /// Shadow-tier entries still live after applying every retire marker
    /// seen in replay order — what the reopened store's shadow tier
    /// rebuilds from (DESIGN.md §17).
    pub shadow: Vec<(CellKey, Version)>,
    /// Intact records replayed.
    pub records: u64,
    /// Total bytes of intact records replayed across all log files.
    pub valid_len: u64,
    /// Bytes dropped as torn/corrupt (0 for a clean log). Non-zero means
    /// the opener must clear the log before appending again (see
    /// `Store::open`), or later appends become unreachable to replay.
    pub dropped_bytes: u64,
    /// One past the highest segment number on disk: where the reopened
    /// store appends next, so recovered segments are never overwritten.
    pub next_segment: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Mutation;
    use crate::env::MemEnv;

    fn kv(ts: u64) -> (CellKey, Version) {
        (
            CellKey::new(format!("row{ts}").into_bytes(), b"q".to_vec()),
            Version {
                ts,
                mutation: Mutation::Put(vec![ts as u8]),
            },
        )
    }

    #[test]
    fn append_and_replay() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        wal.append_batch(&[kv(1), kv(2)]).unwrap();
        wal.append_batch(&[kv(3)]).unwrap();
        let replayed = Wal::replay(env.as_ref()).unwrap();
        assert_eq!(replayed, vec![kv(1), kv(2), kv(3)]);
    }

    #[test]
    fn grouped_append_is_byte_identical_to_sequential_appends() {
        let a = Arc::new(MemEnv::new());
        let b = Arc::new(MemEnv::new());
        let batches: Vec<Vec<(CellKey, Version)>> =
            vec![vec![kv(1), kv(2)], vec![kv(3)], vec![kv(4), kv(5)]];
        let wal_a = Wal::new(a.clone(), Arc::default(), 0);
        for batch in &batches {
            wal_a.append_batch(batch).unwrap();
        }
        let ops: Vec<Vec<WalEntry>> = batches
            .iter()
            .map(|b| {
                b.iter()
                    .cloned()
                    .map(|(k, v)| WalEntry::Data(k, v))
                    .collect()
            })
            .collect();
        let refs: Vec<&[WalEntry]> = ops.iter().map(Vec::as_slice).collect();
        let stats = Arc::<KvCounters>::default();
        Wal::new(b.clone(), stats.clone(), 0)
            .append_batches(&refs)
            .unwrap();
        assert_eq!(
            a.read_file(&seg_name(0)).unwrap(),
            b.read_file(&seg_name(0)).unwrap()
        );
        // The whole group cost one write op (one simulated fsync).
        assert_eq!(stats.snapshot().write_ops, 1);
    }

    #[test]
    fn torn_tail_of_grouped_append_salvages_record_prefix() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        let batches: Vec<Vec<WalEntry>> = vec![vec![kv(1)], vec![kv(2)], vec![kv(3)]]
            .into_iter()
            .map(|b| b.into_iter().map(|(k, v)| WalEntry::Data(k, v)).collect())
            .collect();
        let refs: Vec<&[WalEntry]> = batches.iter().map(Vec::as_slice).collect();
        wal.append_batches(&refs).unwrap();
        let full = env.read_file(&seg_name(0)).unwrap();
        // Tear the coalesced frame at every byte: replay must salvage
        // exactly the whole records before the cut, never a partial one.
        for cut in 0..full.len() {
            env.delete(&seg_name(0)).unwrap();
            env.append(&seg_name(0), &full[..cut]).unwrap();
            let r = Wal::replay_with_report(env.as_ref()).unwrap();
            assert!(r.records <= 3, "cut at {cut}");
            let want: Vec<(CellKey, Version)> = (1..=r.records).map(kv).collect();
            assert_eq!(r.entries, want, "cut at {cut}");
        }
    }

    fn shadow(ts: u64) -> WalEntry {
        let (k, v) = kv(ts);
        WalEntry::Shadow(k, v)
    }

    #[test]
    fn shadow_entries_replay_into_the_shadow_stream() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        let (dk, dv) = kv(1);
        wal.append_batches(&[&[WalEntry::Data(dk.clone(), dv.clone()), shadow(2)]])
            .unwrap();
        wal.append_batches(&[&[shadow(3)]]).unwrap();
        let r = Wal::replay_with_report(env.as_ref()).unwrap();
        assert_eq!(r.entries, vec![(dk, dv)]);
        assert_eq!(r.shadow.len(), 2);
        assert_eq!(r.shadow[0].1.ts, 2);
        assert_eq!(r.shadow[1].1.ts, 3);
    }

    #[test]
    fn retire_marker_drops_covered_shadow_entries_in_replay_order() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        wal.append_batches(&[&[shadow(1), shadow(2)]]).unwrap();
        // The spill record: the entries' data copies (original timestamps)
        // plus the retire marker, one atomic record.
        let (k1, v1) = kv(1);
        let (k2, v2) = kv(2);
        wal.append_batches(&[&[
            WalEntry::Data(k1.clone(), v1.clone()),
            WalEntry::Data(k2.clone(), v2.clone()),
            WalEntry::ShadowRetire(2),
        ]])
        .unwrap();
        wal.append_batches(&[&[shadow(5)]]).unwrap();
        let r = Wal::replay_with_report(env.as_ref()).unwrap();
        assert_eq!(r.entries, vec![(k1, v1), (k2, v2)]);
        assert_eq!(r.shadow.len(), 1, "post-spill shadow entry survives");
        assert_eq!(r.shadow[0].1.ts, 5);
    }

    #[test]
    fn torn_shadow_record_rolls_back_whole_record() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        wal.append_batches(&[&[shadow(1)]]).unwrap();
        wal.append_batches(&[&[shadow(2), shadow(3)]]).unwrap();
        let data = env.read_file(&seg_name(0)).unwrap();
        env.delete(&seg_name(0)).unwrap();
        env.append(&seg_name(0), &data[..data.len() - 2]).unwrap();
        let r = Wal::replay_with_report(env.as_ref()).unwrap();
        assert_eq!(r.shadow.len(), 1, "only the intact record's entry");
        assert_eq!(r.shadow[0].1.ts, 1);
        assert!(r.dropped_bytes > 0);
    }

    #[test]
    fn replay_empty_env_is_empty() {
        let env = MemEnv::new();
        assert!(Wal::replay(&env).unwrap().is_empty());
        assert_eq!(Wal::replay_with_report(&env).unwrap().next_segment, 0);
    }

    #[test]
    fn replay_spans_segments_in_order() {
        let env = Arc::new(MemEnv::new());
        Wal::new(env.clone(), Arc::default(), 0)
            .append_batch(&[kv(1)])
            .unwrap();
        Wal::new(env.clone(), Arc::default(), 2)
            .append_batch(&[kv(3)])
            .unwrap();
        Wal::new(env.clone(), Arc::default(), 1)
            .append_batch(&[kv(2)])
            .unwrap();
        let r = Wal::replay_with_report(env.as_ref()).unwrap();
        assert_eq!(r.entries, vec![kv(1), kv(2), kv(3)]);
        assert_eq!(r.next_segment, 3);
    }

    #[test]
    fn truncated_tail_is_ignored() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        wal.append_batch(&[kv(1)]).unwrap();
        wal.append_batch(&[kv(2)]).unwrap();
        // Simulate a crash mid-append by truncating the file.
        let data = env.read_file(&seg_name(0)).unwrap();
        env.delete(&seg_name(0)).unwrap();
        env.append(&seg_name(0), &data[..data.len() - 3]).unwrap();
        let replayed = Wal::replay(env.as_ref()).unwrap();
        assert_eq!(replayed, vec![kv(1)]);
    }

    #[test]
    fn corrupt_tail_is_ignored() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        wal.append_batch(&[kv(1)]).unwrap();
        wal.append_batch(&[kv(2)]).unwrap();
        let mut data = env.read_file(&seg_name(0)).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF; // flip a bit in the last record's payload
        env.delete(&seg_name(0)).unwrap();
        env.append(&seg_name(0), &data).unwrap();
        let replayed = Wal::replay(env.as_ref()).unwrap();
        assert_eq!(replayed, vec![kv(1)]);
    }

    #[test]
    fn damage_in_one_segment_stops_replay_of_later_segments() {
        // Entries in segment 1 were acknowledged after the damaged tail
        // of segment 0; replaying them over the hole would resurrect a
        // suffix without its prefix.
        let env = Arc::new(MemEnv::new());
        let wal0 = Wal::new(env.clone(), Arc::default(), 0);
        wal0.append_batch(&[kv(1)]).unwrap();
        wal0.append_batch(&[kv(2)]).unwrap();
        Wal::new(env.clone(), Arc::default(), 1)
            .append_batch(&[kv(3)])
            .unwrap();
        let data = env.read_file(&seg_name(0)).unwrap();
        env.delete(&seg_name(0)).unwrap();
        env.append(&seg_name(0), &data[..data.len() - 1]).unwrap();
        let r = Wal::replay_with_report(env.as_ref()).unwrap();
        assert_eq!(r.entries, vec![kv(1)]);
        assert!(r.dropped_bytes > 0);
        assert_eq!(r.next_segment, 2);
    }

    #[test]
    fn torn_final_record_recovers_prefix_with_report() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        wal.append_batch(&[kv(1), kv(2)]).unwrap();
        let good_len = env.len(&seg_name(0)).unwrap();
        wal.append_batch(&[kv(3)]).unwrap();
        // Tear the final record at every possible length: each must
        // recover exactly the first batch.
        let full = env.read_file(&seg_name(0)).unwrap();
        for cut in good_len as usize..full.len() {
            env.delete(&seg_name(0)).unwrap();
            env.append(&seg_name(0), &full[..cut]).unwrap();
            let r = Wal::replay_with_report(env.as_ref()).unwrap();
            assert_eq!(r.entries, vec![kv(1), kv(2)], "cut at {cut}");
            assert_eq!(r.records, 1);
            assert_eq!(r.valid_len, good_len);
            assert_eq!(r.dropped_bytes, (cut - good_len as usize) as u64);
        }
    }

    #[test]
    fn flipped_crc_byte_mid_log_stops_at_last_good_record() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 0);
        wal.append_batch(&[kv(1)]).unwrap();
        let first_len = env.len(&seg_name(0)).unwrap() as usize;
        wal.append_batch(&[kv(2)]).unwrap();
        wal.append_batch(&[kv(3)]).unwrap();
        // Flip the CRC of the *middle* record: replay keeps record 1 and
        // must not error, even though record 3 after it is intact.
        let mut data = env.read_file(&seg_name(0)).unwrap();
        data[first_len + 4] ^= 0x01; // CRC field of record 2
        env.delete(&seg_name(0)).unwrap();
        env.append(&seg_name(0), &data).unwrap();
        let r = Wal::replay_with_report(env.as_ref()).unwrap();
        assert_eq!(r.entries, vec![kv(1)]);
        assert!(r.dropped_bytes > 0);
    }

    #[test]
    fn empty_wal_file_recovers_to_nothing() {
        let env = Arc::new(MemEnv::new());
        // A crash can leave a created-but-empty log.
        env.append(&seg_name(0), b"").unwrap();
        let r = Wal::replay_with_report(env.as_ref()).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.records, 0);
        assert_eq!(r.dropped_bytes, 0);
        assert_eq!(r.next_segment, 1);
    }

    #[test]
    fn garbage_only_log_recovers_to_nothing() {
        let env = Arc::new(MemEnv::new());
        env.append(&seg_name(0), &[0xAB; 50]).unwrap();
        let r = Wal::replay_with_report(env.as_ref()).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.dropped_bytes, 50);
    }

    #[test]
    fn truncate_through_removes_only_covered_segments() {
        let env = Arc::new(MemEnv::new());
        for seg in 0..3 {
            Wal::new(env.clone(), Arc::default(), seg)
                .append_batch(&[kv(seg + 1)])
                .unwrap();
        }
        Wal::truncate_through(env.as_ref(), 1).unwrap();
        let names = env.list();
        assert!(!names.iter().any(|n| n == &seg_name(0)));
        assert!(!names.iter().any(|n| n == &seg_name(1)));
        assert!(names.iter().any(|n| n == &seg_name(2)));
        assert_eq!(Wal::replay(env.as_ref()).unwrap(), vec![kv(3)]);
        // Idempotent.
        Wal::truncate_through(env.as_ref(), 1).unwrap();
    }

    #[test]
    fn delete_all_clears_every_log_idempotently() {
        let env = Arc::new(MemEnv::new());
        let wal = Wal::new(env.clone(), Arc::default(), 4);
        wal.append_batch(&[kv(1)]).unwrap();
        Wal::delete_all(env.as_ref()).unwrap();
        Wal::delete_all(env.as_ref()).unwrap();
        assert!(Wal::replay(env.as_ref()).unwrap().is_empty());
    }
}
