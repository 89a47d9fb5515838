//! Namespace metadata: path → file → block list.
//!
//! Mirrors the HDFS namenode's role: a single metadata authority tracking
//! which blocks make up each file and whether the file has been sealed.
//! Every mutation is journaled write-ahead to the [`Journal`] (edit log +
//! checkpoint, DESIGN.md §9) *before* it is applied in memory, under the
//! same state lock, so the durable log order equals the apply order and a
//! crash at any instant loses at most the un-acked mutation.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use dt_common::{Error, Result, RetryPolicy};
use parking_lot::RwLock;

use crate::block_store::{BlockId, BlockStore};
use crate::journal::{EditRecord, Journal};

/// One logical block of a file: every replica holds the same `len` bytes
/// with checksum `crc`. The checksum enables `fsck`-style integrity
/// audits and lets repair tell healthy replicas from rotted ones.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlockGroup {
    /// Physical replicas, in placement order. Readers try them in order.
    pub replicas: Vec<BlockId>,
    pub len: u64,
    pub crc: u32,
}

impl BlockGroup {
    /// `true` iff `block` is an intact replica of this group. The length
    /// is checked before the checksum: a replica cut short or grown past
    /// the group's length is corrupt whatever its bytes.
    pub fn holds(&self, block: &[u8]) -> bool {
        block.len() as u64 == self.len && dt_common::crc32::crc32(block) == self.crc
    }
}

/// Metadata of one file: ordered block groups plus total length.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FileMeta {
    pub blocks: Vec<BlockGroup>,
    pub len: u64,
}

pub(crate) enum Entry {
    /// `create()` has been called; the writer has not committed yet.
    Pending,
    /// Sealed, immutable file.
    Closed(FileMeta),
}

/// The namenode's in-memory namespace — exactly what a checkpoint
/// snapshots and edit-log replay reconstructs.
#[derive(Default)]
pub(crate) struct NnState {
    pub files: BTreeMap<String, Entry>,
    /// Replicas readers have reported bad (CRC mismatch or I/O failure).
    /// Already removed from their block groups, they wait here for a
    /// scrub pass to reclaim the storage — the quarantine lifecycle of
    /// DESIGN.md §8. Persisted through the journal so a crashed namenode
    /// does not forget pending repairs.
    pub quarantined: Vec<BlockId>,
}

impl NnState {
    /// Applies one edit record. Replay tolerance: records were validated
    /// against the state they were journaled under, so blind application
    /// is correct; stale shapes (e.g. a quarantine for a since-removed
    /// path) degrade to no-ops rather than errors.
    pub fn apply(&mut self, record: &EditRecord) {
        match record {
            EditRecord::BeginCreate { path } => {
                self.files.insert(path.clone(), Entry::Pending);
            }
            EditRecord::Commit { path, meta } => {
                self.files.insert(path.clone(), Entry::Closed(meta.clone()));
            }
            EditRecord::Abort { path } => {
                if let Some(Entry::Pending) = self.files.get(path) {
                    self.files.remove(path);
                }
            }
            EditRecord::Remove { path } => {
                self.files.remove(path);
            }
            EditRecord::Rename { from, to } => {
                if let Some(entry) = self.files.remove(from) {
                    self.files.insert(to.clone(), entry);
                }
            }
            EditRecord::Replace { path, meta } => {
                self.files.insert(path.clone(), Entry::Closed(meta.clone()));
            }
            EditRecord::Quarantine {
                path,
                group,
                replica,
            } => {
                if let Some(Entry::Closed(meta)) = self.files.get_mut(path) {
                    if let Some(g) = meta.blocks.get_mut(*group) {
                        if g.replicas.len() > 1 && g.replicas.contains(replica) {
                            g.replicas.retain(|r| r != replica);
                            self.quarantined.push(*replica);
                        }
                    }
                }
            }
            EditRecord::DrainQuarantine => self.quarantined.clear(),
        }
    }
}

/// The namespace table, durably journaled.
pub(crate) struct NameNode {
    state: RwLock<NnState>,
    journal: Journal,
}

impl NameNode {
    /// Opens the namespace over `blocks`, replaying any persisted
    /// checkpoint and edit log. A store with no journal streams yields an
    /// empty namespace (and performs no fault-surface I/O getting there).
    pub fn recover(
        blocks: Arc<dyn BlockStore>,
        retry: RetryPolicy,
        stats: Arc<crate::DfsCounters>,
        checkpoint_interval: u64,
    ) -> Result<Self> {
        let (journal, recovered) = Journal::recover(blocks, retry, stats, checkpoint_interval)?;
        Ok(NameNode {
            state: RwLock::new(recovered.state),
            journal,
        })
    }

    /// Discards the in-memory namespace and rebuilds it from the durable
    /// journal — the "namenode restart" used by crash tests.
    pub fn reload(&self) -> Result<crate::RecoveryReport> {
        let mut state = self.state.write();
        let recovered = self.journal.load()?;
        *state = recovered.state;
        Ok(recovered.report)
    }

    /// Journals `record` and applies it to `state` — the write-ahead
    /// step every mutation funnels through. On journal failure nothing
    /// is applied and the mutation reports the error; a torn append is
    /// salvaged away at the next recovery, so an un-acked mutation can
    /// never resurface.
    fn journal_and_apply(&self, state: &mut NnState, record: EditRecord) -> Result<()> {
        self.journal.append(&record)?;
        state.apply(&record);
        if self.journal.should_checkpoint() {
            // Best-effort: the mutation is already durable in the edit
            // log; a failed checkpoint just postpones log truncation.
            let _ = self.journal.checkpoint(state);
        }
        Ok(())
    }

    /// Reserves `path` for a writer.
    pub fn begin_create(&self, path: &str) -> Result<()> {
        let mut state = self.state.write();
        if state.files.contains_key(path) {
            return Err(Error::AlreadyExists(format!("DFS path '{path}'")));
        }
        self.journal_and_apply(
            &mut state,
            EditRecord::BeginCreate {
                path: path.to_string(),
            },
        )
    }

    /// Seals a pending file with its final block list.
    pub fn commit(&self, path: &str, meta: FileMeta) -> Result<()> {
        let mut state = self.state.write();
        match state.files.get(path) {
            Some(Entry::Pending) => self.journal_and_apply(
                &mut state,
                EditRecord::Commit {
                    path: path.to_string(),
                    meta,
                },
            ),
            Some(Entry::Closed(_)) => Err(Error::internal(format!(
                "commit of already-closed file '{path}'"
            ))),
            None => Err(Error::not_found(format!("pending file '{path}'"))),
        }
    }

    /// Drops a pending reservation (writer aborted). Journaling is
    /// best-effort here: recovery drops uncommitted pendings anyway, so a
    /// failed Abort append cannot resurrect the file.
    pub fn abort(&self, path: &str) {
        let mut state = self.state.write();
        if let Some(Entry::Pending) = state.files.get(path) {
            let record = EditRecord::Abort {
                path: path.to_string(),
            };
            let _ = self.journal.append(&record);
            state.apply(&record);
        }
    }

    /// Returns the metadata of a closed file.
    pub fn get_closed(&self, path: &str) -> Result<FileMeta> {
        match self.state.read().files.get(path) {
            Some(Entry::Closed(meta)) => Ok(meta.clone()),
            Some(Entry::Pending) => {
                Err(Error::Busy(format!("file '{path}' is still being written")))
            }
            None => Err(Error::not_found(format!("DFS file '{path}'"))),
        }
    }

    /// Removes a closed file, returning its metadata so blocks can be freed.
    pub fn remove(&self, path: &str) -> Result<FileMeta> {
        let mut state = self.state.write();
        match state.files.get(path) {
            Some(Entry::Closed(meta)) => {
                let meta = meta.clone();
                self.journal_and_apply(
                    &mut state,
                    EditRecord::Remove {
                        path: path.to_string(),
                    },
                )?;
                Ok(meta)
            }
            Some(Entry::Pending) => Err(Error::Busy(format!(
                "cannot delete '{path}' while it is being written"
            ))),
            None => Err(Error::not_found(format!("DFS file '{path}'"))),
        }
    }

    /// Renames a closed file; destination must be free.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut state = self.state.write();
        if state.files.contains_key(to) {
            return Err(Error::AlreadyExists(format!("DFS path '{to}'")));
        }
        match state.files.get(from) {
            Some(Entry::Closed(_)) => self.journal_and_apply(
                &mut state,
                EditRecord::Rename {
                    from: from.to_string(),
                    to: to.to_string(),
                },
            ),
            Some(Entry::Pending) => Err(Error::Busy(format!(
                "cannot rename '{from}' while it is being written"
            ))),
            None => Err(Error::not_found(format!("DFS file '{from}'"))),
        }
    }

    /// Replaces the metadata of a closed file (post-repair block lists).
    pub fn replace(&self, path: &str, meta: FileMeta) -> Result<()> {
        let mut state = self.state.write();
        match state.files.get(path) {
            Some(Entry::Closed(_)) => self.journal_and_apply(
                &mut state,
                EditRecord::Replace {
                    path: path.to_string(),
                    meta,
                },
            ),
            Some(Entry::Pending) => Err(Error::Busy(format!(
                "cannot replace metadata of '{path}' while it is being written"
            ))),
            None => Err(Error::not_found(format!("DFS file '{path}'"))),
        }
    }

    /// Takes `replica` out of the serving set of block group
    /// `group_index` of `path` and records it as quarantined. Returns
    /// `true` iff this call removed it (a concurrent reader may have won
    /// the race, or the journal append may have failed — quarantine is
    /// best-effort; the replica stays serving and `fsck` still flags it).
    /// The *last* replica of a group is never removed — a suspect copy
    /// beats no copy.
    pub fn quarantine_replica(&self, path: &str, group_index: usize, replica: BlockId) -> bool {
        let mut state = self.state.write();
        let Some(Entry::Closed(meta)) = state.files.get(path) else {
            return false;
        };
        let Some(group) = meta.blocks.get(group_index) else {
            return false;
        };
        if group.replicas.len() <= 1 || !group.replicas.contains(&replica) {
            return false;
        }
        self.journal_and_apply(
            &mut state,
            EditRecord::Quarantine {
                path: path.to_string(),
                group: group_index,
                replica,
            },
        )
        .is_ok()
    }

    /// Number of replicas currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.state.read().quarantined.len()
    }

    /// Drains the quarantine list so a scrub pass can reclaim the blocks.
    /// The drain itself is journaled first, so a crash after the blocks
    /// are deleted cannot resurrect stale quarantine entries.
    pub fn take_quarantined(&self) -> Result<Vec<BlockId>> {
        let mut state = self.state.write();
        if state.quarantined.is_empty() {
            return Ok(Vec::new());
        }
        let drained = state.quarantined.clone();
        self.journal_and_apply(&mut state, EditRecord::DrainQuarantine)?;
        Ok(drained)
    }

    /// Number of in-flight (pending) writers.
    pub fn pending_count(&self) -> usize {
        self.state
            .read()
            .files
            .values()
            .filter(|e| matches!(e, Entry::Pending))
            .count()
    }

    /// Every block id referenced by a closed file or the quarantine
    /// registry — the live set for orphan-block accounting.
    pub fn referenced_blocks(&self) -> HashSet<BlockId> {
        let state = self.state.read();
        let mut refs: HashSet<BlockId> = state.quarantined.iter().copied().collect();
        for entry in state.files.values() {
            if let Entry::Closed(meta) = entry {
                for group in &meta.blocks {
                    refs.extend(group.replicas.iter().copied());
                }
            }
        }
        refs
    }

    /// Sorted list of closed paths with the given prefix.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.state
            .read()
            .files
            .range(prefix.to_string()..)
            .take_while(|(path, _)| path.starts_with(prefix))
            .filter(|(_, entry)| matches!(entry, Entry::Closed(_)))
            .map(|(path, _)| path.clone())
            .collect()
    }

    /// Sum of closed file lengths.
    pub fn total_bytes(&self) -> u64 {
        self.state
            .read()
            .files
            .values()
            .map(|e| match e {
                Entry::Closed(meta) => meta.len,
                Entry::Pending => 0,
            })
            .sum()
    }
}
