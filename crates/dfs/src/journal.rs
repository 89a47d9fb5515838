//! Durable namenode metadata: edit log + checkpoint.
//!
//! Every namespace mutation is journaled to an append-only **edit log**
//! before it is applied in memory — the classic HDFS edit-log discipline.
//! Records use the same CRC framing the kvstore WAL proved out
//! (`[payload_len: u32 LE][crc32(payload): u32 LE][payload]`), so replay
//! tolerates a torn tail: a crash mid-append loses only the un-acked
//! record, never a committed one.
//!
//! After [`DfsConfig::checkpoint_interval`] journaled mutations the
//! namenode writes a **checkpoint** — a full snapshot of the namespace —
//! via temp-file + atomic rename, then truncates the edit log. Each edit
//! carries a monotone sequence number and the checkpoint records the last
//! sequence it covers, so replay after a crash *between* the rename and
//! the log truncation simply skips already-covered records; no idempotent
//! replay gymnastics needed.
//!
//! All journal I/O goes through the pluggable [`BlockStore`] metadata
//! streams, so a [`dt_common::FaultPlan`]-wrapped store injects faults
//! into journal writes exactly like block writes. Journal bytes are *not*
//! recorded in [`DfsCounters`]' byte counts — they model data-path volume
//! (the cost model's calibration input), not control-plane traffic.
//!
//! [`DfsConfig::checkpoint_interval`]: crate::DfsConfig::checkpoint_interval

use std::sync::{Arc, Mutex};

use dt_common::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use dt_common::crc32::crc32;
use dt_common::{Error, Result, RetryPolicy};

use crate::block_store::{BlockId, BlockStore};
use crate::namenode::{BlockGroup, Entry, FileMeta, NnState};
use crate::DfsCounters;

/// The append-only edit log stream.
pub const EDITS_FILE: &str = "edits.log";
/// The checkpoint stream (full namespace snapshot).
pub const CHECKPOINT_FILE: &str = "checkpoint";
/// Scratch name a checkpoint is staged under before its atomic rename.
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// One journaled namespace mutation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EditRecord {
    BeginCreate {
        path: String,
    },
    Commit {
        path: String,
        meta: FileMeta,
    },
    Abort {
        path: String,
    },
    Remove {
        path: String,
    },
    Rename {
        from: String,
        to: String,
    },
    Replace {
        path: String,
        meta: FileMeta,
    },
    Quarantine {
        path: String,
        group: usize,
        replica: BlockId,
    },
    /// A scrub pass reclaimed every quarantined replica.
    DrainQuarantine,
}

const TAG_BEGIN_CREATE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_REMOVE: u8 = 4;
const TAG_RENAME: u8 = 5;
const TAG_REPLACE: u8 = 6;
const TAG_QUARANTINE: u8 = 7;
const TAG_DRAIN_QUARANTINE: u8 = 8;

fn put_file_meta(buf: &mut Vec<u8>, meta: &FileMeta) {
    put_uvarint(buf, meta.len);
    put_uvarint(buf, meta.blocks.len() as u64);
    for group in &meta.blocks {
        put_uvarint(buf, group.len);
        put_uvarint(buf, group.crc as u64);
        put_uvarint(buf, group.replicas.len() as u64);
        for replica in &group.replicas {
            put_uvarint(buf, replica.0);
        }
    }
}

fn get_file_meta(buf: &[u8], pos: &mut usize) -> Result<FileMeta> {
    let len = get_uvarint(buf, pos)?;
    let group_count = get_uvarint(buf, pos)?;
    let mut blocks = Vec::with_capacity(group_count as usize);
    for _ in 0..group_count {
        let glen = get_uvarint(buf, pos)?;
        let crc = get_uvarint(buf, pos)? as u32;
        let replica_count = get_uvarint(buf, pos)?;
        let mut replicas = Vec::with_capacity(replica_count as usize);
        for _ in 0..replica_count {
            replicas.push(BlockId(get_uvarint(buf, pos)?));
        }
        blocks.push(BlockGroup {
            replicas,
            len: glen,
            crc,
        });
    }
    Ok(FileMeta { blocks, len })
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let bytes = get_bytes(buf, pos)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::corrupt("non-UTF-8 path in journal"))
}

impl EditRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            EditRecord::BeginCreate { path } => {
                buf.push(TAG_BEGIN_CREATE);
                put_str(buf, path);
            }
            EditRecord::Commit { path, meta } => {
                buf.push(TAG_COMMIT);
                put_str(buf, path);
                put_file_meta(buf, meta);
            }
            EditRecord::Abort { path } => {
                buf.push(TAG_ABORT);
                put_str(buf, path);
            }
            EditRecord::Remove { path } => {
                buf.push(TAG_REMOVE);
                put_str(buf, path);
            }
            EditRecord::Rename { from, to } => {
                buf.push(TAG_RENAME);
                put_str(buf, from);
                put_str(buf, to);
            }
            EditRecord::Replace { path, meta } => {
                buf.push(TAG_REPLACE);
                put_str(buf, path);
                put_file_meta(buf, meta);
            }
            EditRecord::Quarantine {
                path,
                group,
                replica,
            } => {
                buf.push(TAG_QUARANTINE);
                put_str(buf, path);
                put_uvarint(buf, *group as u64);
                put_uvarint(buf, replica.0);
            }
            EditRecord::DrainQuarantine => buf.push(TAG_DRAIN_QUARANTINE),
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<EditRecord> {
        if *pos >= buf.len() {
            return Err(Error::corrupt("journal record missing tag"));
        }
        let tag = buf[*pos];
        *pos += 1;
        Ok(match tag {
            TAG_BEGIN_CREATE => EditRecord::BeginCreate {
                path: get_str(buf, pos)?,
            },
            TAG_COMMIT => EditRecord::Commit {
                path: get_str(buf, pos)?,
                meta: get_file_meta(buf, pos)?,
            },
            TAG_ABORT => EditRecord::Abort {
                path: get_str(buf, pos)?,
            },
            TAG_REMOVE => EditRecord::Remove {
                path: get_str(buf, pos)?,
            },
            TAG_RENAME => EditRecord::Rename {
                from: get_str(buf, pos)?,
                to: get_str(buf, pos)?,
            },
            TAG_REPLACE => EditRecord::Replace {
                path: get_str(buf, pos)?,
                meta: get_file_meta(buf, pos)?,
            },
            TAG_QUARANTINE => EditRecord::Quarantine {
                path: get_str(buf, pos)?,
                group: get_uvarint(buf, pos)? as usize,
                replica: BlockId(get_uvarint(buf, pos)?),
            },
            TAG_DRAIN_QUARANTINE => EditRecord::DrainQuarantine,
            other => return Err(Error::corrupt(format!("unknown journal tag {other}"))),
        })
    }
}

struct JournalState {
    /// Sequence number the next edit record will carry (1-based).
    next_seq: u64,
    /// Edits journaled since the last checkpoint.
    edits_since_checkpoint: u64,
}

/// The namenode's durable metadata writer/reader.
pub(crate) struct Journal {
    blocks: Arc<dyn BlockStore>,
    retry: RetryPolicy,
    stats: Arc<DfsCounters>,
    checkpoint_interval: u64,
    state: Mutex<JournalState>,
}

/// What [`Journal::recover`] reconstructed.
pub(crate) struct Recovered {
    pub state: NnState,
    pub report: RecoveryReport,
}

/// Public summary of one namenode recovery pass, surfaced by
/// [`crate::Dfs::crash_and_reopen`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Paths that were still `Pending` in the journal — writers that died
    /// with the crash. Their create never committed, so recovery drops
    /// them from the namespace; their placed blocks become orphans for
    /// the next scrub pass.
    pub dropped_pending: Vec<String>,
    /// Bytes of torn/corrupt edit-log tail discarded by salvage. Non-zero
    /// means the crash landed mid-append; the salvaged state was
    /// re-checkpointed and the log reset.
    pub dropped_bytes: u64,
}

impl Journal {
    /// Opens the journal over `blocks`, replaying any persisted
    /// checkpoint + edit log into a [`Recovered`] namespace.
    ///
    /// A fresh store performs **zero** fault-surface operations here: the
    /// existence checks go through [`BlockStore::meta_list`], which is
    /// enumeration-only, so armed fault plans see the same op indices
    /// whether a `Dfs` is brand new or freshly recovered-from-empty.
    pub fn recover(
        blocks: Arc<dyn BlockStore>,
        retry: RetryPolicy,
        stats: Arc<DfsCounters>,
        checkpoint_interval: u64,
    ) -> Result<(Journal, Recovered)> {
        let journal = Journal {
            blocks,
            retry,
            stats,
            checkpoint_interval,
            state: Mutex::new(JournalState {
                next_seq: 1,
                edits_since_checkpoint: 0,
            }),
        };
        let recovered = journal.load()?;
        Ok((journal, recovered))
    }

    /// Re-runs recovery over the persisted streams, resetting this
    /// journal's counters — the "namenode restart" entry point.
    pub fn load(&self) -> Result<Recovered> {
        let names = self.blocks.meta_list();
        // A stale staged checkpoint means a crash before the atomic
        // rename: the snapshot never committed, drop it.
        if names.iter().any(|n| n == CHECKPOINT_TMP) {
            let _ = self.blocks.meta_delete(CHECKPOINT_TMP);
        }

        let mut state = NnState::default();
        let mut last_seq = 0u64;
        if names.iter().any(|n| n == CHECKPOINT_FILE) {
            let data = self
                .retry
                .run(&self.stats.retry, || self.blocks.meta_read(CHECKPOINT_FILE))?;
            last_seq = decode_checkpoint(&data, &mut state)?;
        }

        let mut max_seq = last_seq;
        let mut dropped_bytes = 0u64;
        if names.iter().any(|n| n == EDITS_FILE) {
            let data = self
                .retry
                .run(&self.stats.retry, || self.blocks.meta_read(EDITS_FILE))?;
            let mut pos = 0usize;
            while pos + 8 <= data.len() {
                let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
                let body_start = pos + 8;
                let body_end = match body_start.checked_add(len) {
                    Some(e) if e <= data.len() => e,
                    // Truncated tail — crash mid-append; stop here.
                    _ => break,
                };
                let payload = &data[body_start..body_end];
                if crc32(payload) != crc {
                    // Torn or corrupt record: salvage stops at the last
                    // good one. A journal may always end mid-write.
                    break;
                }
                let mut p = 0usize;
                let Ok(seq) = get_uvarint(payload, &mut p) else {
                    break;
                };
                let Ok(record) = EditRecord::decode(payload, &mut p) else {
                    // Frame passed CRC but the payload will not decode:
                    // bit rot inside the checksum window or a codec bug.
                    // Nothing after it can be trusted.
                    break;
                };
                if seq > last_seq {
                    // Records at or below the checkpoint's sequence are
                    // already folded into the snapshot (a crash between
                    // checkpoint rename and log truncation leaves them
                    // behind) — skip, do not re-apply.
                    state.apply(&record);
                }
                max_seq = max_seq.max(seq);
                pos = body_end;
            }
            dropped_bytes = (data.len() - pos) as u64;
        }

        // Writers that held a Pending reservation died with the crash:
        // their create never committed, so the paths simply do not exist.
        // Their placed blocks become orphans for scrub to collect.
        let dropped_pending: Vec<String> = state
            .files
            .iter()
            .filter(|(_, e)| matches!(e, Entry::Pending))
            .map(|(p, _)| p.clone())
            .collect();
        for path in &dropped_pending {
            state.files.remove(path);
        }

        {
            let mut js = self.state.lock().unwrap();
            js.next_seq = max_seq + 1;
            js.edits_since_checkpoint = 0;
        }

        if dropped_bytes > 0 {
            // The edit log ends in garbage. Future appends would land
            // behind it, unreachable to replay — so make the salvaged
            // state durable as a fresh checkpoint and clear the log,
            // mirroring the kvstore's flush-salvaged-then-reset idiom.
            self.checkpoint(&state)?;
        }

        Ok(Recovered {
            state,
            report: RecoveryReport {
                dropped_pending,
                dropped_bytes,
            },
        })
    }

    /// Durably appends one edit record. Must be called *before* the
    /// in-memory mutation it describes (write-ahead), under the namenode
    /// state lock so log order equals apply order.
    pub fn append(&self, record: &EditRecord) -> Result<()> {
        let seq = {
            let js = self.state.lock().unwrap();
            js.next_seq
        };
        let mut payload = Vec::with_capacity(64);
        put_uvarint(&mut payload, seq);
        record.encode(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        // Transient write hiccups are retried like any data write, so a
        // brief outage does not fail a metadata operation.
        self.retry.run(&self.stats.retry, || {
            self.blocks.meta_append(EDITS_FILE, &frame)
        })?;
        let mut js = self.state.lock().unwrap();
        js.next_seq += 1;
        js.edits_since_checkpoint += 1;
        Ok(())
    }

    /// `true` once enough edits accumulated that the caller should fold
    /// them into a checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        self.state.lock().unwrap().edits_since_checkpoint >= self.checkpoint_interval
    }

    /// Snapshots `state` and truncates the edit log.
    ///
    /// Crash-safe at every step: the snapshot is staged under
    /// [`CHECKPOINT_TMP`] and only becomes *the* checkpoint via atomic
    /// rename; a crash before the rename leaves a stale tmp (cleaned on
    /// recovery), a crash after the rename but before the log delete
    /// leaves already-covered records in the log (skipped via their
    /// sequence numbers on replay).
    pub fn checkpoint(&self, state: &NnState) -> Result<()> {
        let last_seq = self.state.lock().unwrap().next_seq - 1;
        let payload = encode_checkpoint(state, last_seq);
        self.retry.run(&self.stats.retry, || {
            self.blocks.meta_write(CHECKPOINT_TMP, &payload)
        })?;
        self.retry.run(&self.stats.retry, || {
            self.blocks.meta_rename(CHECKPOINT_TMP, CHECKPOINT_FILE)
        })?;
        match self.blocks.meta_delete(EDITS_FILE) {
            Ok(()) | Err(Error::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
        self.state.lock().unwrap().edits_since_checkpoint = 0;
        Ok(())
    }
}

/// Checkpoint layout: `[crc32(body): u32 LE][body]` where body is
/// `[last_seq][file count][files…][quarantine count][ids…]`, each file
/// being `[path][state byte]` + `FileMeta` when closed. A checkpoint only
/// ever appears whole (atomic rename), so unlike the edit log there is no
/// salvage: a CRC mismatch here is real damage and fails recovery.
fn encode_checkpoint(state: &NnState, last_seq: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(256);
    put_uvarint(&mut body, last_seq);
    put_uvarint(&mut body, state.files.len() as u64);
    for (path, entry) in &state.files {
        put_str(&mut body, path);
        match entry {
            Entry::Pending => body.push(0),
            Entry::Closed(meta) => {
                body.push(1);
                put_file_meta(&mut body, meta);
            }
        }
    }
    put_uvarint(&mut body, state.quarantined.len() as u64);
    for id in &state.quarantined {
        put_uvarint(&mut body, id.0);
    }
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode_checkpoint(data: &[u8], state: &mut NnState) -> Result<u64> {
    if data.len() < 4 {
        return Err(Error::corrupt("checkpoint shorter than its checksum"));
    }
    let crc = u32::from_le_bytes(data[..4].try_into().unwrap());
    let body = &data[4..];
    if crc32(body) != crc {
        return Err(Error::corrupt("checkpoint checksum mismatch"));
    }
    let mut pos = 0usize;
    let last_seq = get_uvarint(body, &mut pos)?;
    let file_count = get_uvarint(body, &mut pos)?;
    for _ in 0..file_count {
        let path = get_str(body, &mut pos)?;
        if pos >= body.len() {
            return Err(Error::corrupt("checkpoint file entry missing state byte"));
        }
        let tag = body[pos];
        pos += 1;
        let entry = match tag {
            0 => Entry::Pending,
            1 => Entry::Closed(get_file_meta(body, &mut pos)?),
            other => {
                return Err(Error::corrupt(format!(
                    "unknown checkpoint entry state {other}"
                )))
            }
        };
        state.files.insert(path, entry);
    }
    let quarantine_count = get_uvarint(body, &mut pos)?;
    for _ in 0..quarantine_count {
        state
            .quarantined
            .push(BlockId(get_uvarint(body, &mut pos)?));
    }
    Ok(last_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::MemBlockStore;

    fn fresh() -> (Journal, Arc<MemBlockStore>) {
        let store = Arc::new(MemBlockStore::new());
        let (journal, recovered) =
            Journal::recover(store.clone(), RetryPolicy::disabled(), Arc::default(), 4).unwrap();
        assert!(recovered.state.files.is_empty());
        (journal, store)
    }

    fn reopen(store: &Arc<MemBlockStore>) -> Recovered {
        let (_, recovered) =
            Journal::recover(store.clone(), RetryPolicy::disabled(), Arc::default(), 4).unwrap();
        recovered
    }

    fn meta(ids: &[u64]) -> FileMeta {
        FileMeta {
            blocks: vec![BlockGroup {
                replicas: ids.iter().map(|&i| BlockId(i)).collect(),
                len: 10,
                crc: 0xABCD,
            }],
            len: 10,
        }
    }

    #[test]
    fn edits_replay_across_reopen() {
        let (journal, store) = fresh();
        journal
            .append(&EditRecord::BeginCreate { path: "/a".into() })
            .unwrap();
        journal
            .append(&EditRecord::Commit {
                path: "/a".into(),
                meta: meta(&[1, 2]),
            })
            .unwrap();
        let recovered = reopen(&store);
        assert_eq!(recovered.state.files.len(), 1);
        let Entry::Closed(m) = &recovered.state.files["/a"] else {
            panic!("expected closed file");
        };
        assert_eq!(m.blocks[0].replicas, vec![BlockId(1), BlockId(2)]);
        assert_eq!(recovered.report.dropped_bytes, 0);
    }

    #[test]
    fn pending_without_commit_is_dropped_on_recovery() {
        let (journal, store) = fresh();
        journal
            .append(&EditRecord::BeginCreate {
                path: "/doomed".into(),
            })
            .unwrap();
        let recovered = reopen(&store);
        assert!(recovered.state.files.is_empty());
        assert_eq!(
            recovered.report.dropped_pending,
            vec!["/doomed".to_string()]
        );
    }

    #[test]
    fn torn_edit_tail_is_salvaged_and_log_reset() {
        let (journal, store) = fresh();
        journal
            .append(&EditRecord::BeginCreate { path: "/a".into() })
            .unwrap();
        journal
            .append(&EditRecord::Commit {
                path: "/a".into(),
                meta: meta(&[1]),
            })
            .unwrap();
        // Tear the log mid-record.
        let data = store.meta_read(EDITS_FILE).unwrap();
        store
            .meta_write(EDITS_FILE, &data[..data.len() - 3])
            .unwrap();
        let recovered = reopen(&store);
        // The torn Commit is gone; its BeginCreate survives alone and is
        // dropped as a dead pending writer.
        assert!(recovered.state.files.is_empty());
        assert!(recovered.report.dropped_bytes > 0);
        // Salvage rewrote the durable state: a second reopen is clean.
        let again = reopen(&store);
        assert_eq!(again.report.dropped_bytes, 0);
        assert!(again.state.files.is_empty());
    }

    #[test]
    fn checkpoint_truncates_log_and_replay_skips_covered_seqs() {
        let (journal, store) = fresh();
        let mut state = NnState::default();
        for record in [
            EditRecord::BeginCreate { path: "/a".into() },
            EditRecord::Commit {
                path: "/a".into(),
                meta: meta(&[1, 2]),
            },
            EditRecord::Quarantine {
                path: "/a".into(),
                group: 0,
                replica: BlockId(2),
            },
        ] {
            journal.append(&record).unwrap();
            state.apply(&record);
        }
        let covered_edits = store.meta_read(EDITS_FILE).unwrap();
        journal.checkpoint(&state).unwrap();
        assert!(store.meta_read(EDITS_FILE).is_err(), "log truncated");
        assert_eq!(reopen(&store).state.quarantined, vec![BlockId(2)]);

        // Crash between the checkpoint rename and the log truncation: the
        // covered records are still in the log. Replay must skip them by
        // sequence number — re-applying the Quarantine would duplicate
        // the registry entry.
        store.meta_write(EDITS_FILE, &covered_edits).unwrap();
        let recovered = reopen(&store);
        assert_eq!(recovered.state.quarantined, vec![BlockId(2)]);
        let Entry::Closed(m) = &recovered.state.files["/a"] else {
            panic!("expected closed file");
        };
        assert_eq!(m.blocks[0].replicas, vec![BlockId(1)]);
    }

    #[test]
    fn stale_checkpoint_tmp_is_cleaned() {
        let (journal, store) = fresh();
        journal
            .append(&EditRecord::BeginCreate { path: "/a".into() })
            .unwrap();
        journal
            .append(&EditRecord::Commit {
                path: "/a".into(),
                meta: meta(&[3]),
            })
            .unwrap();
        store.meta_write(CHECKPOINT_TMP, b"half a snapsh").unwrap();
        let recovered = reopen(&store);
        assert_eq!(recovered.state.files.len(), 1);
        assert!(store.meta_read(CHECKPOINT_TMP).is_err(), "tmp cleaned");
    }

    #[test]
    fn quarantine_records_survive_reopen() {
        let (journal, store) = fresh();
        journal
            .append(&EditRecord::BeginCreate { path: "/a".into() })
            .unwrap();
        journal
            .append(&EditRecord::Commit {
                path: "/a".into(),
                meta: meta(&[1, 2]),
            })
            .unwrap();
        journal
            .append(&EditRecord::Quarantine {
                path: "/a".into(),
                group: 0,
                replica: BlockId(2),
            })
            .unwrap();
        let recovered = reopen(&store);
        assert_eq!(recovered.state.quarantined, vec![BlockId(2)]);
        let Entry::Closed(m) = &recovered.state.files["/a"] else {
            panic!("expected closed file");
        };
        assert_eq!(m.blocks[0].replicas, vec![BlockId(1)]);
    }

    #[test]
    fn checkpoint_roundtrips_pending_and_quarantine() {
        let mut state = NnState::default();
        state.files.insert("/p".into(), Entry::Pending);
        state.files.insert("/c".into(), Entry::Closed(meta(&[9])));
        state.quarantined.push(BlockId(42));
        let encoded = encode_checkpoint(&state, 17);
        let mut decoded = NnState::default();
        assert_eq!(decode_checkpoint(&encoded, &mut decoded).unwrap(), 17);
        assert_eq!(decoded.files.len(), 2);
        assert!(matches!(decoded.files["/p"], Entry::Pending));
        assert_eq!(decoded.quarantined, vec![BlockId(42)]);
    }

    #[test]
    fn corrupt_checkpoint_is_fatal() {
        let mut state = NnState::default();
        state.files.insert("/c".into(), Entry::Closed(meta(&[1])));
        let mut encoded = encode_checkpoint(&state, 5);
        let n = encoded.len();
        encoded[n - 1] ^= 0x10;
        let mut decoded = NnState::default();
        assert!(decode_checkpoint(&encoded, &mut decoded)
            .unwrap_err()
            .to_string()
            .contains("checksum"));
    }
}
