//! Fault-injecting decorator over any [`BlockStore`].
//!
//! Consults a shared [`FaultPlan`] before every data operation. With a
//! disarmed plan ([`FaultPlan::none`]) the wrapper is a single relaxed
//! atomic load per call — behaviour is byte-identical to the wrapped
//! store.

use std::sync::Arc;

use dt_common::fault::{FaultKind, FaultPlan, IoOp};
use dt_common::Result;

use crate::block_store::{BlockId, BlockStore};

/// A [`BlockStore`] that injects the faults scheduled by a [`FaultPlan`].
pub struct FaultyBlockStore {
    inner: Arc<dyn BlockStore>,
    plan: Arc<FaultPlan>,
}

impl FaultyBlockStore {
    /// Wraps `inner`, consulting `plan` on every operation.
    pub fn new(inner: Arc<dyn BlockStore>, plan: Arc<FaultPlan>) -> Self {
        FaultyBlockStore { inner, plan }
    }

    /// The shared fault plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl BlockStore for FaultyBlockStore {
    // Torn and corrupt faults mangle a private copy: the buffer handed in
    // (or the one the store holds) may be every other replica's too.
    fn put(&self, data: Arc<Vec<u8>>) -> Result<BlockId> {
        match self.plan.on_op(IoOp::Write) {
            None => self.inner.put(data),
            Some(FaultKind::TornWrite) => {
                // A prefix of the block lands on the datanode, but the
                // client never learns its id — exactly what a crashed
                // pipeline leaves behind. The orphan is invisible (no
                // namenode reference) and only wastes space.
                let keep = self.plan.torn_prefix_len(data.len());
                let _ = self.inner.put(Arc::new(data[..keep].to_vec()));
                Err(FaultPlan::error(FaultKind::TornWrite, "block put"))
            }
            Some(FaultKind::CorruptWrite) => {
                let mut mangled = data.to_vec();
                self.plan.mangle_byte(&mut mangled);
                self.inner.put(Arc::new(mangled))
            }
            Some(kind) => Err(FaultPlan::error(kind, "block put")),
        }
    }

    fn read_block(&self, id: BlockId) -> Result<Arc<Vec<u8>>> {
        match self.plan.on_op(IoOp::Read) {
            None => self.inner.read_block(id),
            Some(FaultKind::CorruptRead) => {
                let mut mangled = self.inner.read_block(id)?.to_vec();
                self.plan.mangle_byte(&mut mangled);
                Ok(Arc::new(mangled))
            }
            Some(kind) => Err(FaultPlan::error(kind, "block read")),
        }
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        self.plan.check(IoOp::Delete, "block delete")?;
        self.inner.delete(id)
    }

    fn meta_append(&self, name: &str, data: &[u8]) -> Result<()> {
        match self.plan.on_op(IoOp::Write) {
            None => self.inner.meta_append(name, data),
            Some(FaultKind::TornWrite) => {
                // A prefix of the frame lands in the journal — exactly the
                // torn tail the replay salvage must tolerate.
                let keep = self.plan.torn_prefix_len(data.len());
                let _ = self.inner.meta_append(name, &data[..keep]);
                Err(FaultPlan::error(FaultKind::TornWrite, "meta append"))
            }
            Some(FaultKind::CorruptWrite) => {
                let mut mangled = data.to_vec();
                self.plan.mangle_byte(&mut mangled);
                self.inner.meta_append(name, &mangled)
            }
            Some(kind) => Err(FaultPlan::error(kind, "meta append")),
        }
    }

    fn meta_write(&self, name: &str, data: &[u8]) -> Result<()> {
        match self.plan.on_op(IoOp::Write) {
            None => self.inner.meta_write(name, data),
            Some(FaultKind::TornWrite) => {
                let keep = self.plan.torn_prefix_len(data.len());
                let _ = self.inner.meta_write(name, &data[..keep]);
                Err(FaultPlan::error(FaultKind::TornWrite, "meta write"))
            }
            Some(FaultKind::CorruptWrite) => {
                let mut mangled = data.to_vec();
                self.plan.mangle_byte(&mut mangled);
                self.inner.meta_write(name, &mangled)
            }
            Some(kind) => Err(FaultPlan::error(kind, "meta write")),
        }
    }

    fn meta_read(&self, name: &str) -> Result<Vec<u8>> {
        match self.plan.on_op(IoOp::Read) {
            None => self.inner.meta_read(name),
            Some(FaultKind::CorruptRead) => {
                let mut data = self.inner.meta_read(name)?;
                self.plan.mangle_byte(&mut data);
                Ok(data)
            }
            Some(kind) => Err(FaultPlan::error(kind, "meta read")),
        }
    }

    fn meta_rename(&self, from: &str, to: &str) -> Result<()> {
        // A rename is atomic: it either happens or it does not, so torn
        // and corrupting kinds degrade to a plain failed operation.
        self.plan.check(IoOp::Write, "meta rename")?;
        self.inner.meta_rename(from, to)
    }

    fn meta_delete(&self, name: &str) -> Result<()> {
        self.plan.check(IoOp::Delete, "meta delete")?;
        self.inner.meta_delete(name)
    }

    fn meta_list(&self) -> Vec<String> {
        self.inner.meta_list()
    }

    fn list_blocks(&self) -> Vec<BlockId> {
        self.inner.list_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::MemBlockStore;

    fn block(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    fn wrapped(plan: FaultPlan) -> (FaultyBlockStore, Arc<FaultPlan>) {
        let plan = Arc::new(plan);
        (
            FaultyBlockStore::new(Arc::new(MemBlockStore::new()), plan.clone()),
            plan,
        )
    }

    #[test]
    fn disarmed_is_transparent() {
        let (store, plan) = wrapped(FaultPlan::none());
        let id = store.put(block(b"payload")).unwrap();
        assert_eq!(*store.read_block(id).unwrap(), b"payload");
        store.delete(id).unwrap();
        assert_eq!(plan.injected_count(), 0);
    }

    #[test]
    fn write_error_has_no_side_effects() {
        let inner = Arc::new(MemBlockStore::new());
        let plan = Arc::new(FaultPlan::new(3).fail_at(1, FaultKind::WriteError));
        let store = FaultyBlockStore::new(inner.clone(), plan);
        assert!(store.put(block(b"x")).unwrap_err().is_injected());
        assert_eq!(inner.block_count(), 0);
        // The next put proceeds normally.
        store.put(block(b"x")).unwrap();
        assert_eq!(inner.block_count(), 1);
    }

    #[test]
    fn corrupt_read_flips_one_byte() {
        let (store, plan) = wrapped(FaultPlan::new(5).fail_at(2, FaultKind::CorruptRead));
        let id = store.put(block(b"0123456789")).unwrap();
        let bad = store.read_block(id).unwrap();
        assert_eq!(plan.injected_count(), 1);
        let diffs = b"0123456789"
            .iter()
            .zip(bad.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        // The stored block is untouched: subsequent reads are clean again.
        assert_eq!(*store.read_block(id).unwrap(), b"0123456789");
    }

    #[test]
    fn torn_write_crashes_and_sticks() {
        let plan = Arc::new(FaultPlan::new(7).fail_at(1, FaultKind::TornWrite));
        let store = FaultyBlockStore::new(Arc::new(MemBlockStore::new()), plan.clone());
        assert!(store.put(block(b"doomed block")).unwrap_err().is_injected());
        assert!(plan.is_crashed());
        // Everything fails until heal().
        assert!(store.put(block(b"next")).is_err());
        assert!(store.read_block(BlockId(0)).is_err());
        plan.heal();
        store.put(block(b"after recovery")).unwrap();
    }
}
