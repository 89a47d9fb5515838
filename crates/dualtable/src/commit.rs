//! The one commit (DESIGN.md §13). Every DualTable write becomes durable
//! and visible through [`commit`]: EDIT cells, inserted master files and
//! generation swings — of an autocommit statement on one store or on every
//! shard it touches, of a COMMIT over several stores, of a rewrite job.
//! Either all of it lands or none of it does.
//!
//! Inserted rows are written as master files under the store's hidden
//! staging directory, outside every generation, so no listing sees them;
//! the commit renames each into `gen-G/part-ID`. A commit with more than
//! one durable write — one attached batch per store, one rename per file,
//! and one metadata batch for all of its generation-pointer flips — first
//! writes one **decision record** to the metadata table: every batch at the
//! commit timestamp T and every rename, with the pointer flips in the same
//! put. Once that record is durable the commit has happened. Each batch and
//! rename is then carried out and the record cleared. A crash in between
//! is settled by [`recover`] whenever an environment opens over existing
//! data: it writes every left-over record's batches again at their own T,
//! performs every listed rename whose source still exists, and then
//! deletes every staging file left — of a commit that never decided. A
//! version already at T is written again unchanged, and anything committed
//! later has a higher timestamp, so a left-over record never shadows a
//! later write. DROP TABLE first deletes the dropped table's batches from
//! every record ([`forget`]), so a redo never reaches a later table of the
//! same name.

use std::borrow::Cow;

use dt_common::{Error, Result};
use dt_kvstore::{decode_entry, encode_entry, CellKey, Mutation, Store, Version};

use crate::attached::{delete_cell, update_cells};
use crate::env::DualTableEnv;
use crate::meta::generation_cell;
use crate::mvcc::Conflict;
use crate::presence::{
    decode_count, encode_count, presence_key, presence_qualifier, PresenceDelta,
};
use crate::store::{is_staged, DualTableStore};
use crate::union_read::PatchSet;

/// Decision records are the metadata table's rows `commit:<T>`, one cell
/// per attached batch — qualifier its attached table, value its versions
/// in the KV tier's own entry encoding — and one per store with staged
/// files: qualifier [`FILES`] and the store's name, value the generation
/// they go into and their IDs, big-endian. `commit;` is the first key past
/// them.
const RECORDS: [&[u8]; 2] = [b"commit:", b"commit;"];

/// Qualifier prefix of a decision record's staged-files cells.
const FILES: &str = "files:";

/// What one store commits.
pub(crate) enum Action<'a> {
    /// EDIT patches and rows to insert: an autocommit UPDATE, DELETE or
    /// INSERT (owned), or a transaction's buffer (borrowed).
    Write(Cow<'a, PatchSet>),
    /// The generation `.0`, built aside, becomes the table.
    Swing(u64),
}

/// One store's share of a commit: the store, the `(generation, timestamp)`
/// its writer pinned — a transaction's or a rewrite job's; `None` for an
/// autocommit statement, which works at the latest epoch under the `ops`
/// lock its caller holds and cannot lose — and what it commits.
pub(crate) type Participant<'a> = (&'a DualTableStore, Option<(u64, u64)>, Action<'a>);

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

/// One autocommit statement over `stores` — one table's shards, or its one
/// store — as one commit: every store's `ops` lock is taken in
/// [`lock_order`], the write lock where `exclusive[i]` (a rewrite plan,
/// chosen before it runs: an OVERWRITE plan may still fall back to EDIT
/// under it), `action(i)` runs store `i`'s half under it, and one
/// [`commit`] lands every action. A failure before the commit leaves every
/// store as it was and deletes every generation built.
pub(crate) fn autocommit(
    stores: &[&DualTableStore],
    exclusive: &[bool],
    mut action: impl FnMut(usize) -> Result<Action<'static>>,
) -> Result<()> {
    let (mut read_locks, mut write_locks) = (Vec::new(), Vec::new());
    for i in lock_order(stores.iter().copied())? {
        let ops = &stores[i].inner.ops;
        match exclusive[i] {
            true => write_locks.push(ops.write()),
            false => read_locks.push(ops.read()),
        }
    }
    let mut parts = Vec::with_capacity(stores.len());
    let outcome = (|| {
        for (i, &store) in stores.iter().enumerate() {
            match action(i)? {
                Action::Write(ours) if ours.is_empty() => {}
                action => parts.push((store, None, action)),
            }
        }
        commit(&parts).map(drop)
    })();
    if outcome.is_err() {
        for (store, _, action) in &parts {
            if let Action::Swing(next) = action {
                store.abandon_rewrite(*next);
            }
        }
    }
    outcome
}

/// One participant's versions, all at T, for its attached table.
struct Batch {
    attached: Store,
    /// Whether the puts ride the delta tier (DESIGN.md §17).
    shadow: bool,
    versions: Vec<(CellKey, Version)>,
}

/// Commits `parts` — distinct stores — as one:
///
/// 1. Every pinned writer's `ops` read lock is taken, in [`lock_order`]
///    (a rewrite job holds its write lock itself), and every store's rows
///    to insert are written as staged master files
///    ([`DualTableStore::stage`]).
/// 2. Every participant's MVCC state mutex is taken, in the same order,
///    and one commit timestamp T is ticked: snapshots pinned before T see
///    none of the commit, later ones all of it.
/// 3. Every check runs before anything is written: a transaction's
///    first-committer-wins check over its write set, a rewrite job's check
///    that nothing committed since its pin (a loss on any participant
///    returns [`dt_common::Error::Conflict`] naming it, nothing applied),
///    and the refusal of a store in read-only degraded mode.
/// 4. With more than one durable write the decision record is written;
///    past it the commit cannot fail. Each store's cells and presence
///    counts are written at T as one WAL record, each staged file renamed
///    into its generation and the pointer flips put. The record is cleared
///    once everything landed. A decided participant whose write still
///    fails after its retries stays in read-only degraded mode, and the
///    record stays, until a reopen redoes it — so no later write lands on
///    a store missing decided cells.
///
/// Anything staged by a commit that did not decide is deleted. Returns T
/// (0 for no participants).
pub(crate) fn commit(parts: &[Participant<'_>]) -> Result<u64> {
    let order = lock_order(parts.iter().map(|p| p.0))?;
    let parts: Vec<&Participant<'_>> = order.iter().map(|&i| &parts[i]).collect();
    let pinned = parts.iter().filter(|p| p.1.is_some());
    let writers = pinned.filter(|p| matches!(p.2, Action::Write(_)));
    let _ops: Vec<_> = writers.map(|p| p.0.inner.ops.read()).collect();
    let mut staged = Vec::with_capacity(parts.len());
    let outcome = (|| {
        for &&(store, _, ref action) in &parts {
            staged.push(match action {
                Action::Write(ours) => store.stage(&ours.inserts)?,
                Action::Swing(..) => Vec::new(),
            });
        }
        decide(&parts, &staged)
    })();
    if outcome.is_err() {
        for (&&(store, ..), ids) in parts.iter().zip(&staged) {
            store.discard_staged(ids.iter().copied());
        }
    }
    outcome
}

/// Steps 2–4 of [`commit`]. An error means nothing was decided.
fn decide(parts: &[&Participant<'_>], staged: &[Vec<u32>]) -> Result<u64> {
    let Some(env) = parts.first().map(|p| p.0.env()) else {
        return Ok(0);
    };
    let mut states: Vec<_> = parts.iter().map(|p| p.0.inner.mvcc.lock()).collect();
    let ts = env.kv.clock().tick();
    // Every check before any write. Each participant's generation — the
    // one its files go into, or the one its swing replaces; an autocommit
    // EDIT has none to read — and its durable writes.
    let (mut gens, mut batches, mut files, mut cells) = (vec![], vec![], vec![], vec![]);
    for ((&&(store, pin, ref action), st), ids) in parts.iter().zip(&states).zip(staged) {
        store.writable_attached()?;
        let gen = match (pin, action) {
            (Some((gen, _)), _) => gen,
            (None, Action::Write(_)) if ids.is_empty() => 0,
            (None, _) => store.current_gen()?,
        };
        gens.push(gen);
        if let Some((_, at)) = pin {
            let conflict = match action {
                Action::Write(ours) => {
                    let write_set: Vec<u64> = ours.rows.iter().map(|r| r.record.as_u64()).collect();
                    st.conflict_since(at, &write_set)
                }
                // A swing would drop anything committed after its build's pin.
                Action::Swing(..) if st.edits_since(at) => Some(Conflict::Swing),
                Action::Swing(..) => st.conflict_since(at, &[]),
            };
            if let Some(conflict) = conflict {
                return Err(store.conflict_error(conflict, at));
            }
        }
        match action {
            Action::Write(ours) if !ours.rows.is_empty() => {
                batches.push((store, store.batch(ours, ts)?));
            }
            Action::Write(_) => {}
            &Action::Swing(next) => cells.push(generation_cell(store.name(), next)),
        }
        if !ids.is_empty() {
            files.push((store, gen, ids));
        }
    }
    let record = [RECORDS[0], format!("{ts:020}").as_bytes()].concat();
    let renames: usize = files.iter().map(|(_, _, ids)| ids.len()).sum();
    // The pointer flips are one write, in the record's put when there is one.
    let decided = batches.len() + renames + usize::from(!cells.is_empty()) > 1;
    if decided {
        for (store, b) in &batches {
            let table = DualTableStore::attached_name(store.name()).into_bytes();
            cells.push((record.clone(), table, encode(&b.versions)));
        }
        for &(store, gen, ids) in &files {
            let qual = format!("{FILES}{}", store.name()).into_bytes();
            cells.push((record.clone(), qual, encode_files(gen, ids)));
        }
    }
    if !cells.is_empty() {
        env.meta.store()?.put_batch(cells)?;
    }
    if decided {
        env.health.commit_records.inc();
    }
    // Past a decision nothing fails the commit: a write that still fails
    // after its retries leaves its store degraded and the record in place.
    let mut landed = true;
    let mut settle = |store: &DualTableStore, write: &mut dyn FnMut() -> Result<()>| {
        if !decided {
            return write();
        }
        let retry = store.inner.config.retry;
        if retry.run(&env.health.retry, write).is_err() {
            landed = false;
            if let Ok(attached) = store.attached() {
                attached.degrade();
            }
        }
        Ok(())
    };
    for (store, mut b) in batches {
        settle(store, &mut || {
            let versions = match decided {
                true => b.versions.clone(),
                false => std::mem::take(&mut b.versions),
            };
            b.attached.write_versions(versions, b.shadow)
        })?;
    }
    for &(store, gen, ids) in &files {
        for &id in ids {
            let (from, to) = (store.staging_path(id), store.file_path_at(gen, id));
            settle(store, &mut || env.dfs.rename(&from, &to))?;
        }
    }
    let mut swung = Vec::new();
    for (((&&(store, pin, ref action), st), ids), &gen) in
        parts.iter().zip(&mut states).zip(staged).zip(&gens)
    {
        match action {
            Action::Write(ours) => {
                st.note_edit_commit(ours.rows.iter().map(|r| r.record.as_u64()), ts);
                st.commit_files(gen, ids.iter().copied(), ts);
            }
            &Action::Swing(next) => {
                // The swing stamp every transaction pinned before it loses
                // to; the old generation waits for any read still pinning it.
                if st.note_swing(gen, next, ts, pin.map(|p| p.1)) {
                    env.health.generations_deferred.inc();
                }
                swung.push(store);
            }
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
    // Every swing runs under its writer's `ops` write lock.
    for store in swung {
        store.sweep(true);
    }
    // Budget enforcement after the locks drop: the batch is already
    // durable, so a failed spill costs nothing — the next commit retries
    // it.
    for &&(store, ..) in parts {
        if let Ok(attached) = store.attached() {
            let _ = store.delta_policy().maybe_spill(&attached);
        }
    }
    Ok(ts)
}

impl DualTableStore {
    /// This store's batch for `ours` at `ts` (its state mutex held, which
    /// serializes the read-modify-write of the presence counts): data
    /// cells and the presence increments they imply — in the same WAL
    /// record, so the index can never drift from the data (see
    /// [`crate::presence`]). The count reads see delta-tier entries too
    /// (the store merges the tier into every read), so the
    /// read-modify-write holds on both routes.
    fn batch(&self, ours: &PatchSet, ts: u64) -> Result<Batch> {
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
        let at = |(key, mutation)| (key, Version { ts, mutation });
        Ok(Batch {
            shadow: self.delta_policy().enabled(),
            versions: cells.into_iter().map(at).collect(),
            attached,
        })
    }
}

/// Recovery's first step, before any table opens. Carries out every
/// decision record left in the metadata table again — each attached
/// version at its own timestamp, each staged file still there renamed into
/// its generation — and clears it; each participant's attached table is
/// opened through the cluster, since after a process restart none is open
/// yet. Then deletes every staging file left — written by a commit that
/// never decided. Best effort: a staging file that will not go is
/// invisible anyway, and the next open retries it.
pub(crate) fn recover(env: &DualTableEnv) -> Result<()> {
    let meta = env.meta.store()?;
    for row in meta.scan(Some(RECORDS[0]), Some(RECORDS[1]))? {
        let row = row?;
        for (qual, _, value) in row.cells {
            let qual = String::from_utf8_lossy(&qual);
            let Some(store) = qual.strip_prefix(FILES) else {
                let attached = env.kv.table_or_create(&qual)?;
                attached.write_versions(decode(&value)?, false)?;
                continue;
            };
            let (gen, ids) = decode_files(&value)?;
            for id in ids {
                let staged = DualTableStore::master_path(store, None, id);
                if env.dfs.exists(&staged) {
                    let path = DualTableStore::master_path(store, Some(gen), id);
                    env.dfs.rename(&staged, &path)?;
                }
            }
        }
        meta.delete_row(&row.row)?;
    }
    for path in env.dfs.list("/warehouse/") {
        if is_staged(&path) && env.dfs.delete(&path).is_err() {
            env.health.cleanup_failures.inc();
        }
    }
    Ok(())
}

/// Deletes `store`'s attached batch from every decision record: DROP
/// TABLE's first step. Its renames need no forgetting: the drop deletes
/// the staged files they name, and file IDs are never reused.
pub(crate) fn forget(env: &DualTableEnv, store: &str) -> Result<()> {
    let meta = env.meta.store()?;
    let table = DualTableStore::attached_name(store);
    for row in meta.scan(Some(RECORDS[0]), Some(RECORDS[1]))? {
        meta.delete_cell(&row?.row, table.as_bytes())?;
    }
    Ok(())
}

fn encode_files(gen: u64, ids: &[u32]) -> Vec<u8> {
    let ids = ids.iter().flat_map(|id| id.to_be_bytes());
    gen.to_be_bytes().into_iter().chain(ids).collect()
}

fn decode_files(buf: &[u8]) -> Result<(u64, Vec<u32>)> {
    let bad = || Error::corrupt("decision record: bad staged-files cell");
    let (gen, ids) = buf.split_first_chunk::<8>().ok_or_else(bad)?;
    if ids.len() % 4 != 0 {
        return Err(bad());
    }
    let ids = ids
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes(c.try_into().expect("4 bytes")));
    Ok((u64::from_be_bytes(*gen), ids.collect()))
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
        let bytes = encode_files(7, &[3, 9]);
        assert_eq!(decode_files(&bytes).unwrap(), (7, vec![3, 9]));
        assert!(
            decode_files(&bytes[..bytes.len() - 1]).is_err(),
            "truncated"
        );
    }

    /// A staged file is in no generation: a snapshot pinned after an
    /// insert's files were written, before its commit, never sees them —
    /// neither before the commit renames them in nor after.
    #[test]
    fn a_snapshot_pinned_before_the_commit_never_sees_its_files() {
        use crate::config::DualTableConfig;
        use dt_common::{DataType, Schema, Value};

        let env = DualTableEnv::in_memory();
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let t = DualTableStore::create(&env, "t", schema, DualTableConfig::default()).unwrap();
        let rows = |keys: std::ops::Range<i64>| keys.map(|k| vec![Value::Int64(k)]).collect();
        t.insert_rows::<Vec<_>>(rows(0..10)).unwrap();
        let ours = PatchSet {
            rows: Vec::new(),
            inserts: rows(10..20),
        };
        let staged = t.stage(&ours.inserts).unwrap();
        assert_eq!(
            t.master_file_ids().unwrap().len(),
            1,
            "staged files unlisted"
        );
        let snap = t.begin_snapshot().unwrap();
        assert_eq!(snap.count().unwrap(), 10);
        let part = (&t, None, Action::Write(Cow::Borrowed(&ours)));
        decide(&[&part], &[staged]).unwrap();
        assert_eq!(snap.count().unwrap(), 10, "repeatable across the commit");
        drop(snap);
        assert_eq!(t.count().unwrap(), 20, "later snapshots see the insert");
    }

    /// The staging sweep deletes staged files only: a table named like the
    /// staging directory keeps every committed row across a crash.
    #[test]
    fn a_table_named_like_the_staging_directory_survives_recovery() {
        use crate::config::DualTableConfig;
        use crate::store::STAGING;
        use dt_common::{DataType, Schema, Value};

        let env = DualTableEnv::in_memory();
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let config = DualTableConfig::default;
        let t = DualTableStore::create(&env, STAGING, schema.clone(), config()).unwrap();
        t.insert_rows((0..10).map(|k| vec![Value::Int64(k)]))
            .unwrap();
        drop(t);
        env.crash_and_reopen().unwrap();
        let t = DualTableStore::open(&env, STAGING, schema, config()).unwrap();
        assert_eq!(t.count().unwrap(), 10);
    }

    /// A process died between a two-table commit's decision record and
    /// its writes — an EDIT batch on each table and a staged file of `t` —
    /// one of the two tables dropped since, beside a staged file of `t` no
    /// record names. A new process that opens an environment over the
    /// directory, with no table open yet, redoes the record for the table
    /// still there — renaming the named file into place — never brings the
    /// dropped one back, and deletes the file no commit decided.
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
                let batch = store.batch(&ours, ts).unwrap();
                let table = DualTableStore::attached_name(name).into_bytes();
                let record = [RECORDS[0], format!("{ts:020}").as_bytes()].concat();
                cells.push((record.clone(), table, encode(&batch.versions)));
                if name == "t" {
                    let named = store.stage(&[row(4), row(5)]).unwrap();
                    let qual = format!("{FILES}t").into_bytes();
                    cells.push((record, qual, encode_files(0, &named)));
                    store.stage(&[row(8)]).unwrap();
                }
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
        assert!(
            !env.dfs.list("/").iter().any(|p| is_staged(p)),
            "a staged file survived the open"
        );
        let t = DualTableStore::open(&env, "t", schema, config()).unwrap();
        let values: Vec<Value> = t
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r[1].clone())
            .collect();
        assert_eq!(values, [0, 0, 7, 0, 0, 0].map(Value::Int64));
        drop((t, meta, env));
        std::fs::remove_dir_all(&dir).ok();
    }
}
