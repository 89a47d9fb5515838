//! Physical block storage behind the DFS namespace.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dt_common::{Error, Result};
use parking_lot::RwLock;

/// Opaque identifier of one stored block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Storage for immutable blocks plus a small mutable metadata area.
///
/// Blocks are written whole and never mutated — the datanode contract.
/// The `meta_*` family backs the namenode's durable state (edit log and
/// checkpoints): named byte streams on the same substrate, so a faulty
/// wrapper sees journal I/O exactly like block I/O.
pub trait BlockStore: Send + Sync {
    /// Stores `data` as a new block. The buffer is handed over, not
    /// copied: an in-memory store keeps it as the block, so every replica
    /// put from one buffer shares it; a disk store writes it out.
    fn put(&self, data: Arc<Vec<u8>>) -> Result<BlockId>;

    /// The whole block, as stored — the in-memory store's own buffer.
    fn read_block(&self, id: BlockId) -> Result<Arc<Vec<u8>>>;

    /// Releases a block.
    fn delete(&self, id: BlockId) -> Result<()>;

    /// Appends `data` to the named metadata stream, creating it if absent.
    fn meta_append(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Creates or fully replaces the named metadata stream.
    fn meta_write(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Reads the full contents of the named metadata stream.
    /// [`Error::not_found`] if it does not exist.
    fn meta_read(&self, name: &str) -> Result<Vec<u8>>;

    /// Atomically renames a metadata stream, replacing any existing
    /// `to` — the commit point of a checkpoint.
    fn meta_rename(&self, from: &str, to: &str) -> Result<()>;

    /// Deletes the named metadata stream. [`Error::not_found`] if absent.
    fn meta_delete(&self, name: &str) -> Result<()>;

    /// Names of all existing metadata streams. Enumeration only (a
    /// directory listing) — kept off the fault surface like other
    /// metadata-free lookups.
    fn meta_list(&self) -> Vec<String>;

    /// Ids of all stored blocks, referenced or not. Enumeration only —
    /// off the fault surface; backs orphan-block accounting.
    fn list_blocks(&self) -> Vec<BlockId>;
}

/// Heap-backed block store; the default for tests and deterministic
/// experiments.
#[derive(Default)]
pub struct MemBlockStore {
    next_id: AtomicU64,
    blocks: RwLock<HashMap<BlockId, Arc<Vec<u8>>>>,
    meta: RwLock<HashMap<String, Vec<u8>>>,
}

impl MemBlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live blocks (for leak tests).
    pub fn block_count(&self) -> usize {
        self.blocks.read().len()
    }
}

impl BlockStore for MemBlockStore {
    fn put(&self, data: Arc<Vec<u8>>) -> Result<BlockId> {
        let id = BlockId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.blocks.write().insert(id, data);
        Ok(id)
    }

    fn read_block(&self, id: BlockId) -> Result<Arc<Vec<u8>>> {
        self.blocks
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("block {id:?}")))
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        self.blocks
            .write()
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| Error::not_found(format!("block {id:?}")))
    }

    fn meta_append(&self, name: &str, data: &[u8]) -> Result<()> {
        self.meta
            .write()
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn meta_write(&self, name: &str, data: &[u8]) -> Result<()> {
        self.meta.write().insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn meta_read(&self, name: &str) -> Result<Vec<u8>> {
        self.meta
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("meta stream {name}")))
    }

    fn meta_rename(&self, from: &str, to: &str) -> Result<()> {
        let mut meta = self.meta.write();
        let data = meta
            .remove(from)
            .ok_or_else(|| Error::not_found(format!("meta stream {from}")))?;
        meta.insert(to.to_string(), data);
        Ok(())
    }

    fn meta_delete(&self, name: &str) -> Result<()> {
        self.meta
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::not_found(format!("meta stream {name}")))
    }

    fn meta_list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.meta.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn list_blocks(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.blocks.read().keys().copied().collect();
        ids.sort();
        ids
    }
}

/// Block store writing one file per block under a root directory; used by
/// benchmarks that want the OS page cache and real disk behaviour in play.
pub struct DiskBlockStore {
    root: PathBuf,
    next_id: AtomicU64,
}

impl DiskBlockStore {
    /// Creates the root directory if needed. Reopening an existing root
    /// resumes id allocation after the highest surviving block, so a
    /// recovered namenode never sees its blocks overwritten.
    pub fn new(root: PathBuf) -> Result<Self> {
        fs::create_dir_all(&root)?;
        let store = DiskBlockStore {
            root,
            next_id: AtomicU64::new(0),
        };
        let next_id = store.block_ids()?.iter().map(|id| id.0 + 1).max();
        store.next_id.store(next_id.unwrap_or(0), Ordering::Relaxed);
        Ok(store)
    }

    /// Names of the entries under the root that start with `prefix`, the
    /// prefix stripped, sorted.
    fn names(&self, prefix: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            if let Some(name) = name.to_str().and_then(|n| n.strip_prefix(prefix)) {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Ids of the stored blocks, in order: their names are fixed-width hex.
    fn block_ids(&self) -> Result<Vec<BlockId>> {
        let hex = self.names("blk_")?;
        let ids = hex.iter().filter_map(|h| u64::from_str_radix(h, 16).ok());
        Ok(ids.map(BlockId).collect())
    }

    fn path_of(&self, id: BlockId) -> PathBuf {
        self.root.join(format!("blk_{:016x}", id.0))
    }

    fn meta_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("nn_{name}"))
    }
}

impl BlockStore for DiskBlockStore {
    fn put(&self, data: Arc<Vec<u8>>) -> Result<BlockId> {
        let id = BlockId(self.next_id.fetch_add(1, Ordering::Relaxed));
        fs::write(self.path_of(id), &*data)?;
        Ok(id)
    }

    fn read_block(&self, id: BlockId) -> Result<Arc<Vec<u8>>> {
        fs::read(self.path_of(id))
            .map(Arc::new)
            .map_err(|_| Error::not_found(format!("block {id:?}")))
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        fs::remove_file(self.path_of(id)).map_err(|_| Error::not_found(format!("block {id:?}")))
    }

    fn meta_append(&self, name: &str, data: &[u8]) -> Result<()> {
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.meta_path(name))?;
        f.write_all(data)?;
        Ok(())
    }

    fn meta_write(&self, name: &str, data: &[u8]) -> Result<()> {
        fs::write(self.meta_path(name), data)?;
        Ok(())
    }

    fn meta_read(&self, name: &str) -> Result<Vec<u8>> {
        fs::read(self.meta_path(name)).map_err(|_| Error::not_found(format!("meta stream {name}")))
    }

    fn meta_rename(&self, from: &str, to: &str) -> Result<()> {
        fs::rename(self.meta_path(from), self.meta_path(to))
            .map_err(|_| Error::not_found(format!("meta stream {from}")))
    }

    fn meta_delete(&self, name: &str) -> Result<()> {
        fs::remove_file(self.meta_path(name))
            .map_err(|_| Error::not_found(format!("meta stream {name}")))
    }

    fn meta_list(&self) -> Vec<String> {
        self.names("nn_").unwrap_or_default()
    }

    fn list_blocks(&self) -> Vec<BlockId> {
        self.block_ids().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(bytes: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(bytes.to_vec())
    }

    #[test]
    fn mem_store_roundtrip_and_delete() {
        let store = MemBlockStore::new();
        let id = store.put(block(b"hello")).unwrap();
        assert_eq!(*store.read_block(id).unwrap(), b"hello");
        store.delete(id).unwrap();
        assert!(store.read_block(id).is_err());
        assert_eq!(store.block_count(), 0);
    }

    #[test]
    fn mem_store_shares_one_buffer_across_puts() {
        let store = MemBlockStore::new();
        let data = block(b"replicated");
        let a = store.put(data.clone()).unwrap();
        let b = store.put(data.clone()).unwrap();
        assert!(Arc::ptr_eq(&store.read_block(a).unwrap(), &data));
        assert!(Arc::ptr_eq(&store.read_block(b).unwrap(), &data));
        store.delete(a).unwrap();
        assert_eq!(*store.read_block(b).unwrap(), b"replicated");
    }

    #[test]
    fn ids_are_unique() {
        let store = MemBlockStore::new();
        let a = store.put(block(b"a")).unwrap();
        let b = store.put(block(b"b")).unwrap();
        assert_ne!(a, b);
    }

    fn meta_roundtrip(store: &dyn BlockStore) {
        assert!(store.meta_read("edits").is_err());
        store.meta_append("edits", b"rec1;").unwrap();
        store.meta_append("edits", b"rec2;").unwrap();
        assert_eq!(store.meta_read("edits").unwrap(), b"rec1;rec2;");
        store.meta_write("ckpt.tmp", b"snapshot").unwrap();
        store.meta_rename("ckpt.tmp", "ckpt").unwrap();
        assert!(store.meta_read("ckpt.tmp").is_err());
        assert_eq!(store.meta_read("ckpt").unwrap(), b"snapshot");
        assert_eq!(
            store.meta_list(),
            vec!["ckpt".to_string(), "edits".to_string()]
        );
        // Rename over an existing target replaces it.
        store.meta_write("ckpt.tmp", b"snapshot2").unwrap();
        store.meta_rename("ckpt.tmp", "ckpt").unwrap();
        assert_eq!(store.meta_read("ckpt").unwrap(), b"snapshot2");
        store.meta_delete("edits").unwrap();
        assert!(store.meta_delete("edits").is_err());
        assert_eq!(store.meta_list(), vec!["ckpt".to_string()]);
    }

    #[test]
    fn mem_store_meta_streams_roundtrip() {
        meta_roundtrip(&MemBlockStore::new());
    }

    #[test]
    fn disk_store_meta_streams_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dt_blkmeta_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskBlockStore::new(dir.clone()).unwrap();
        meta_roundtrip(&store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_resumes_block_ids_after_reopen() {
        let dir = std::env::temp_dir().join(format!("dt_blkresume_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = {
            let store = DiskBlockStore::new(dir.clone()).unwrap();
            store.put(block(b"first")).unwrap()
        };
        let store = DiskBlockStore::new(dir.clone()).unwrap();
        let b = store.put(block(b"second")).unwrap();
        assert!(b > a, "reopened store must not reuse live block ids");
        assert_eq!(*store.read_block(a).unwrap(), b"first");
        assert_eq!(store.list_blocks(), vec![a, b]);
        let _ = fs::remove_dir_all(&dir);
    }
}
