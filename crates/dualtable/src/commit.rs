//! The one EDIT commit (DESIGN.md §13). Every UPDATE, DELETE and
//! transactional INSERT becomes durable and visible through [`commit`]:
//! an autocommit statement, a one-store transaction, and a COMMIT that
//! spans several stores — the shards of one table, or several tables of
//! one session. Either all of it lands or none of it does.
//!
//! A commit with two or more participants first writes one **decision
//! record** to the metadata table: every participant's batch at the
//! commit timestamp T. Once that record is durable the commit has
//! happened. Each participant's batch is then written at T and the record
//! cleared. A crash in between is settled by [`redo_decisions`] whenever
//! an environment opens over existing data: it writes every left-over
//! record's batches again at their own T. A version already at T is
//! written again unchanged, and anything committed later has a higher
//! timestamp, so a left-over record never shadows a later write. DROP
//! TABLE first deletes the dropped table's share of every record
//! ([`forget`]), so a redo never reaches a later table of the same name.

use dt_common::{Error, Result};
use dt_kvstore::{decode_entry, encode_entry, CellKey, Mutation, Store, Version};

use crate::attached::{delete_cell, update_cells};
use crate::env::DualTableEnv;
use crate::presence::{
    decode_count, encode_count, presence_key, presence_qualifier, PresenceDelta,
};
use crate::store::{DualTableStore, Staged, INTENT_ROW};
use crate::union_read::PatchSet;

/// Decision records are the metadata table's rows `commit:<T>`, one cell
/// per participant: qualifier its attached table, value its versions in
/// the KV tier's own entry encoding. `commit;` is the first key past them.
const RECORDS: [&[u8]; 2] = [b"commit:", b"commit;"];

/// One store's share of a commit: the store, a transaction's pinned
/// `(generation, timestamp)` — `None` for an autocommit statement, which
/// patched the latest epoch under the `ops` lock its caller holds (read or
/// write) and cannot lose — and what it writes.
pub(crate) type Participant<'a> = (&'a DualTableStore, Option<(u64, u64)>, &'a PatchSet);

/// Indices of `stores` in store-name order — the order in which every step
/// that locks several stores takes each kind of lock, so two such steps
/// never deadlock — refusing a store named twice.
pub(crate) fn lock_order<'a>(
    stores: impl IntoIterator<Item = &'a DualTableStore>,
) -> Result<Vec<usize>> {
    let names: Vec<&str> = stores.into_iter().map(DualTableStore::name).collect();
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by_key(|&i| names[i]);
    if order.windows(2).any(|w| names[w[0]] == names[w[1]]) {
        return Err(Error::invalid("a commit spans each store once"));
    }
    Ok(order)
}

/// One participant's versions, all at T, for its attached table.
struct Batch {
    attached: Store,
    /// Whether the puts ride the delta tier (DESIGN.md §17).
    shadow: bool,
    versions: Vec<(CellKey, Version)>,
}

/// Commits `parts` — non-empty patch sets of distinct stores — as one:
///
/// 1. Every transaction participant's `ops` read lock is taken, in
///    [`lock_order`], and its inserts become staged master files under a
///    durable undo intent ([`DualTableStore::stage_insert`]).
/// 2. Every participant's MVCC state mutex is taken, in the same order,
///    and one commit timestamp T is ticked: snapshots pinned before T see
///    none of the commit, later ones all of it.
/// 3. Every check runs before anything is written: a transaction's
///    first-committer-wins check (a loss on any participant returns
///    [`dt_common::Error::Conflict`] naming that store, nothing applied),
///    and the refusal of a store in read-only degraded mode.
/// 4. With two or more participants, the decision record is written; past
///    it the commit cannot fail. Each participant's cells, presence counts
///    and intent clear are written at T as one WAL record. The record is
///    cleared once every participant's write landed. A decided participant
///    whose write still fails after its retries stays in read-only
///    degraded mode, and the record stays, until a reopen redoes it — so
///    no later write lands on a store missing decided cells.
///
/// Returns T (0 for no participants).
pub(crate) fn commit(parts: &[Participant<'_>]) -> Result<u64> {
    let order = lock_order(parts.iter().map(|p| p.0))?;
    let parts: Vec<Participant<'_>> = order.iter().map(|&i| parts[i]).collect();
    let txns = parts.iter().filter(|p| p.1.is_some());
    let _ops: Vec<_> = txns.map(|p| p.0.inner.ops.read()).collect();
    let mut staged = Vec::with_capacity(parts.len());
    let outcome = (|| {
        for &(store, pin, ours) in &parts {
            staged.push(match pin {
                Some((gen, _)) if !ours.inserts.is_empty() => {
                    Some(store.stage_insert(gen, &ours.inserts, true)?)
                }
                _ => None,
            });
        }
        decide(&parts, &staged)
    })();
    if outcome.is_err() {
        for (&(store, ..), staged) in parts.iter().zip(&staged) {
            if let Some(staged) = staged {
                store.discard_staged(staged);
            }
        }
    }
    outcome
}

/// Steps 2–4 of [`commit`]. An error means nothing was decided.
fn decide(parts: &[Participant<'_>], staged: &[Option<Staged>]) -> Result<u64> {
    let Some(env) = parts.first().map(|p| p.0.env()) else {
        return Ok(0);
    };
    let mut states: Vec<_> = parts.iter().map(|p| p.0.inner.mvcc.lock()).collect();
    let ts = env.kv.clock().tick();
    let mut batches = Vec::with_capacity(parts.len());
    for ((&(store, pin, ours), st), staged) in parts.iter().zip(&states).zip(staged) {
        if let Some((_, pin_ts)) = pin {
            let write_set: Vec<u64> = ours.rows.iter().map(|r| r.record.as_u64()).collect();
            if let Some(conflict) = st.conflict_since(pin_ts, &write_set) {
                return Err(store.conflict_error(conflict, pin_ts));
            }
        }
        batches.push(store.batch(ours, staged.as_ref(), ts)?);
    }
    let record = [RECORDS[0], format!("{ts:020}").as_bytes()].concat();
    let decided = parts.len() > 1;
    let mut landed = true;
    if decided {
        let cells = parts.iter().zip(&batches).map(|(&(store, ..), b)| {
            let table = DualTableStore::attached_name(store.name());
            (record.clone(), table.into_bytes(), encode(&b.versions))
        });
        env.meta.store()?.put_batch(cells.collect())?;
        env.health.commit_records.inc();
        for (&(store, ..), b) in parts.iter().zip(&batches) {
            let write = || b.attached.write_versions(b.versions.clone(), b.shadow);
            let retry = store.inner.config.retry;
            if retry.run(&env.health.retry, write).is_err() {
                b.attached.degrade();
                landed = false;
            }
        }
    } else {
        let b = batches.pop().expect("one participant");
        b.attached.write_versions(b.versions, b.shadow)?;
    }
    for ((&(_, _, ours), st), staged) in parts.iter().zip(&mut states).zip(staged) {
        st.note_edit_commit(ours.rows.iter().map(|r| r.record.as_u64()), ts);
        if let Some(s) = staged {
            st.commit_files(s.gen, s.ids.iter().copied(), ts);
        }
    }
    drop(states);
    // A record whose every write landed is cleared; one that could not be
    // cleared is left for the next reopen to redo and clear, which is
    // harmless (see the module docs).
    let clear = || env.meta.store()?.delete_row(&record);
    if decided && landed && clear().is_err() {
        env.health.cleanup_failures.inc();
    }
    // Budget enforcement after the locks drop: the batch is already
    // durable, so a failed spill costs nothing — the next commit retries
    // it.
    for &(store, ..) in parts {
        if let Ok(attached) = store.attached() {
            let _ = store.delta_policy().maybe_spill(&attached);
        }
    }
    Ok(ts)
}

impl DualTableStore {
    /// This store's batch for `ours` at `ts` (its state mutex held, which
    /// serializes the read-modify-write of the presence counts): data
    /// cells, the presence increments they imply — in the same WAL record,
    /// so the index can never drift from the data (see
    /// [`crate::presence`]) — and the clear of `staged`'s undo intent. The
    /// count reads see delta-tier entries too (the store merges the tier
    /// into every read), so the read-modify-write holds on both routes.
    fn batch(&self, ours: &PatchSet, staged: Option<&Staged>, ts: u64) -> Result<Batch> {
        let attached = self.writable_attached()?;
        let mut cells = Vec::new();
        let mut delta = PresenceDelta::new();
        for patch in &ours.rows {
            if patch.deleted {
                cells.push(delete_cell(patch.record));
                delta.add_delete(patch.record.file_id);
            } else {
                for (col, _) in &patch.updates {
                    delta.add_updates(patch.record.file_id, *col, 1);
                }
                cells.extend(update_cells(patch.record, &patch.updates));
            }
        }
        for ((file_id, column), n) in delta.drain() {
            let key = CellKey::new(presence_key(file_id), presence_qualifier(column));
            let current = match attached.get(&key.row, &key.qual)? {
                Some(bytes) => decode_count(&bytes)?,
                None => 0,
            };
            cells.push((key, Mutation::Put(encode_count(current + n))));
        }
        if let Some(qual) = staged.and_then(|s| s.intent.clone()) {
            cells.push((CellKey::new(INTENT_ROW.to_key(), qual), Mutation::Delete));
        }
        let at = |(key, mutation)| (key, Version { ts, mutation });
        Ok(Batch {
            shadow: self.delta_policy().enabled(),
            versions: cells.into_iter().map(at).collect(),
            attached,
        })
    }
}

/// Writes every decision record left in the metadata table again, each
/// version at its own timestamp, then clears it — recovery's first step,
/// before any table opens (so a decided transactional insert's intent is
/// cleared before the table's open would undo it). Each participant's
/// attached table is opened through the cluster: after a process restart
/// none is open yet.
pub(crate) fn redo_decisions(env: &DualTableEnv) -> Result<()> {
    let meta = env.meta.store()?;
    for row in meta.scan(Some(RECORDS[0]), Some(RECORDS[1]))? {
        let row = row?;
        for (table, _, value) in row.cells {
            let attached = env.kv.table_or_create(&String::from_utf8_lossy(&table))?;
            attached.write_versions(decode(&value)?, false)?;
        }
        meta.delete_row(&row.row)?;
    }
    Ok(())
}

/// Deletes `store`'s share of every decision record: DROP TABLE's first
/// step.
pub(crate) fn forget(env: &DualTableEnv, store: &str) -> Result<()> {
    let meta = env.meta.store()?;
    let table = DualTableStore::attached_name(store);
    for row in meta.scan(Some(RECORDS[0]), Some(RECORDS[1]))? {
        meta.delete_cell(&row?.row, table.as_bytes())?;
    }
    Ok(())
}

fn encode(versions: &[(CellKey, Version)]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (key, version) in versions {
        encode_entry(&mut buf, key, version);
    }
    buf
}

fn decode(buf: &[u8]) -> Result<Vec<(CellKey, Version)>> {
    let (mut pos, mut versions) = (0, Vec::new());
    while pos < buf.len() {
        versions.push(decode_entry(buf, &mut pos)?);
    }
    Ok(versions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_record_cell_round_trips() {
        let version = |mutation| Version { ts: 42, mutation };
        let versions = vec![
            (
                CellKey::new(*b"r", *b"q"),
                version(Mutation::Put(b"v".to_vec())),
            ),
            (CellKey::new(*b"i", *b"n"), version(Mutation::Delete)),
        ];
        let bytes = encode(&versions);
        assert_eq!(decode(&bytes).unwrap(), versions);
        assert!(decode(&bytes[..bytes.len() - 1]).is_err(), "truncated");
    }

    /// A process died between a two-table commit's decision record and
    /// its writes, one of the two tables dropped since. A new process that
    /// opens an environment over the directory, with no table open yet,
    /// redoes the record for the table still there and never brings the
    /// dropped one back.
    #[test]
    fn an_on_disk_environment_redoes_a_left_over_record_when_it_opens() {
        use crate::attached::AttachedEntry;
        use crate::config::DualTableConfig;
        use dt_common::{DataType, Schema, Value};

        let dir = std::env::temp_dir().join(format!("dt-redo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)]);
        let config = DualTableConfig::default;
        let row = |i| vec![Value::Int64(i), Value::Int64(0)];
        {
            let env = DualTableEnv::on_disk(&dir).unwrap();
            let ts = env.kv.clock().tick();
            let mut cells = Vec::new();
            for name in ["t", "u"] {
                let store = DualTableStore::create(&env, name, schema.clone(), config()).unwrap();
                store.insert_rows((0..4).map(row)).unwrap();
                let ours = PatchSet {
                    rows: vec![AttachedEntry {
                        record: store.scan_all().unwrap()[2].0,
                        deleted: false,
                        updates: vec![(1, Value::Int64(7))],
                    }],
                    inserts: Vec::new(),
                };
                let batch = store.batch(&ours, None, ts).unwrap();
                let table = DualTableStore::attached_name(name).into_bytes();
                let record = [RECORDS[0], format!("{ts:020}").as_bytes()].concat();
                cells.push((record, table, encode(&batch.versions)));
            }
            env.meta.store().unwrap().put_batch(cells).unwrap();
            let u = DualTableStore::open(&env, "u", schema.clone(), config()).unwrap();
            u.drop_table().unwrap();
        }

        let env = DualTableEnv::on_disk(&dir).unwrap();
        let meta = env.meta.store().unwrap();
        assert_eq!(
            meta.scan(Some(RECORDS[0]), Some(RECORDS[1]))
                .unwrap()
                .count(),
            0
        );
        assert!(env.kv.table(&DualTableStore::attached_name("u")).is_err());
        let t = DualTableStore::open(&env, "t", schema, config()).unwrap();
        let values: Vec<Value> = t
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r[1].clone())
            .collect();
        assert_eq!(values, [0, 0, 7, 0].map(Value::Int64));
        drop((t, meta, env));
        std::fs::remove_dir_all(&dir).ok();
    }
}
