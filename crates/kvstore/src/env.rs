//! Storage environment for a single store: a flat namespace of files
//! (WAL segments and SSTables) with append, whole-file write, ranged read
//! and delete.
//!
//! Two implementations: [`MemEnv`] (tests, deterministic experiments —
//! also how crash-recovery is simulated: reopen a `Store` over the same
//! env) and [`DiskEnv`] (real files for benchmarks).

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

use dt_common::fault::{FaultKind, FaultPlan, IoOp};
use dt_common::{Error, Result, RetryPolicy};
use parking_lot::RwLock;

use crate::KvCounters;

/// File namespace abstraction for one store.
pub trait Env: Send + Sync {
    /// Appends bytes to a file, creating it if missing.
    fn append(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Atomically creates a file with exactly `data` (fails if it exists).
    fn write_file(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Reads `buf.len()` bytes at `offset`.
    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Reads an entire file.
    fn read_file(&self, name: &str) -> Result<Vec<u8>>;

    /// File length.
    fn len(&self, name: &str) -> Result<u64>;

    /// Sorted list of file names.
    fn list(&self) -> Vec<String>;

    /// Deletes a file.
    fn delete(&self, name: &str) -> Result<()>;
}

/// In-memory environment.
#[derive(Default)]
pub struct MemEnv {
    files: RwLock<HashMap<String, Vec<u8>>>,
}

impl MemEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Env for MemEnv {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        self.files
            .write()
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn write_file(&self, name: &str, data: &[u8]) -> Result<()> {
        let mut files = self.files.write();
        if files.contains_key(name) {
            return Err(Error::AlreadyExists(format!("env file '{name}'")));
        }
        files.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<()> {
        let files = self.files.read();
        let data = files
            .get(name)
            .ok_or_else(|| Error::not_found(format!("env file '{name}'")))?;
        let start = offset as usize;
        let end = start + buf.len();
        if end > data.len() {
            return Err(Error::corrupt(format!(
                "read [{start},{end}) beyond '{name}' of {} bytes",
                data.len()
            )));
        }
        buf.copy_from_slice(&data[start..end]);
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        self.files
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("env file '{name}'")))
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.files
            .read()
            .get(name)
            .map(|d| d.len() as u64)
            .ok_or_else(|| Error::not_found(format!("env file '{name}'")))
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<_> = self.files.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.files
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::not_found(format!("env file '{name}'")))
    }
}

/// Fault-injecting decorator over any [`Env`], consulting a shared
/// [`FaultPlan`] before each data operation (the WAL/SSTable write-path
/// seam for crash-recovery tests). Disarmed plans add one relaxed atomic
/// load per call; behaviour is otherwise identical to the wrapped env.
pub struct FaultyEnv {
    inner: Arc<dyn Env>,
    plan: Arc<FaultPlan>,
}

impl FaultyEnv {
    /// Wraps `inner`, consulting `plan` on every operation.
    pub fn new(inner: Arc<dyn Env>, plan: Arc<FaultPlan>) -> Self {
        FaultyEnv { inner, plan }
    }

    /// The shared fault plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    fn write_with_faults(
        &self,
        name: &str,
        data: &[u8],
        op_name: &str,
        write: impl Fn(&[u8]) -> Result<()>,
    ) -> Result<()> {
        match self.plan.on_op(IoOp::Write) {
            None => write(data),
            Some(FaultKind::TornWrite) => {
                // Persist a prefix, then report a crash: exactly the state
                // a power loss leaves in an append-only log or a
                // half-written SSTable.
                let keep = self.plan.torn_prefix_len(data.len());
                let _ = write(&data[..keep]);
                Err(FaultPlan::error(
                    FaultKind::TornWrite,
                    &format!("{op_name} '{name}'"),
                ))
            }
            Some(FaultKind::CorruptWrite) => {
                let mut mangled = data.to_vec();
                self.plan.mangle_byte(&mut mangled);
                write(&mangled)
            }
            Some(kind) => Err(FaultPlan::error(kind, &format!("{op_name} '{name}'"))),
        }
    }
}

impl Env for FaultyEnv {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        self.write_with_faults(name, data, "append", |bytes| self.inner.append(name, bytes))
    }

    fn write_file(&self, name: &str, data: &[u8]) -> Result<()> {
        self.write_with_faults(name, data, "write_file", |bytes| {
            self.inner.write_file(name, bytes)
        })
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<()> {
        match self.plan.on_op(IoOp::Read) {
            None => self.inner.read_at(name, offset, buf),
            Some(FaultKind::CorruptRead) => {
                self.inner.read_at(name, offset, buf)?;
                self.plan.mangle_byte(buf);
                Ok(())
            }
            Some(kind) => Err(FaultPlan::error(kind, &format!("read_at '{name}'"))),
        }
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        match self.plan.on_op(IoOp::Read) {
            None => self.inner.read_file(name),
            Some(FaultKind::CorruptRead) => {
                let mut data = self.inner.read_file(name)?;
                self.plan.mangle_byte(&mut data);
                Ok(data)
            }
            Some(kind) => Err(FaultPlan::error(kind, &format!("read_file '{name}'"))),
        }
    }

    fn len(&self, name: &str) -> Result<u64> {
        // Metadata lookups are not on the fault surface: the simulated
        // failures are data-path (disk/network), not namespace state.
        self.inner.len(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.plan.check(IoOp::Delete, &format!("delete '{name}'"))?;
        self.inner.delete(name)
    }
}

/// Retry decorator over any [`Env`]: data-path operations that fail with
/// a [transient](dt_common::ErrorClass::Transient) error are re-attempted
/// under a deterministic [`RetryPolicy`] — the single seam that gives the
/// WAL append, SSTable flush and every SSTable read the "ride out a region
/// server hiccup" behaviour an HBase client gets from
/// `hbase.client.retries.number`. Permanent and corrupt errors pass
/// through untouched, as do deletes (best-effort GC retries on the next
/// open instead). Outcomes are recorded in the shared [`KvCounters`]'
/// retry group.
pub struct RetryEnv {
    inner: Arc<dyn Env>,
    policy: RetryPolicy,
    stats: Arc<KvCounters>,
}

impl RetryEnv {
    /// Wraps `inner`, retrying transient failures per `policy`.
    pub fn new(inner: Arc<dyn Env>, policy: RetryPolicy, stats: Arc<KvCounters>) -> Self {
        RetryEnv {
            inner,
            policy,
            stats,
        }
    }
}

impl Env for RetryEnv {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        self.policy
            .run(&self.stats.retry, || self.inner.append(name, data))
    }

    fn write_file(&self, name: &str, data: &[u8]) -> Result<()> {
        self.policy
            .run(&self.stats.retry, || self.inner.write_file(name, data))
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.policy
            .run(&self.stats.retry, || self.inner.read_at(name, offset, buf))
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        self.policy
            .run(&self.stats.retry, || self.inner.read_file(name))
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.inner.len(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
}

/// Directory-backed environment.
pub struct DiskEnv {
    dir: PathBuf,
}

impl DiskEnv {
    /// Creates the directory if needed.
    pub fn new(dir: PathBuf) -> Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(DiskEnv { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Env for DiskEnv {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)?;
        Ok(())
    }

    fn write_file(&self, name: &str, data: &[u8]) -> Result<()> {
        let path = self.path(name);
        if path.exists() {
            return Err(Error::AlreadyExists(format!("env file '{name}'")));
        }
        fs::write(path, data)?;
        Ok(())
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut f = fs::File::open(self.path(name))
            .map_err(|_| Error::not_found(format!("env file '{name}'")))?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
            .map_err(|_| Error::corrupt(format!("short read from '{name}'")))?;
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        fs::read(self.path(name)).map_err(|_| Error::not_found(format!("env file '{name}'")))
    }

    fn len(&self, name: &str) -> Result<u64> {
        Ok(fs::metadata(self.path(name))
            .map_err(|_| Error::not_found(format!("env file '{name}'")))?
            .len())
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().is_file())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    fn delete(&self, name: &str) -> Result<()> {
        fs::remove_file(self.path(name)).map_err(|_| Error::not_found(format!("env file '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(env: &dyn Env) {
        env.append("wal", b"abc").unwrap();
        env.append("wal", b"def").unwrap();
        assert_eq!(env.read_file("wal").unwrap(), b"abcdef");
        assert_eq!(env.len("wal").unwrap(), 6);

        env.write_file("sst_1", b"table").unwrap();
        assert!(env.write_file("sst_1", b"dupe").is_err());
        let mut buf = vec![0u8; 3];
        env.read_at("sst_1", 1, &mut buf).unwrap();
        assert_eq!(&buf, b"abl");

        assert_eq!(env.list(), vec!["sst_1".to_string(), "wal".to_string()]);
        env.delete("wal").unwrap();
        assert!(env.read_file("wal").is_err());
        assert!(env.delete("wal").is_err());
    }

    #[test]
    fn mem_env_contract() {
        exercise(&MemEnv::new());
    }

    #[test]
    fn disk_env_contract() {
        let dir = std::env::temp_dir().join(format!("dt-kv-env-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        exercise(&DiskEnv::new(dir.clone()).unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_at_out_of_range_is_error() {
        let env = MemEnv::new();
        env.write_file("f", b"abc").unwrap();
        let mut buf = vec![0u8; 4];
        assert!(env.read_at("f", 0, &mut buf).is_err());
    }

    #[test]
    fn faulty_env_disarmed_passes_contract() {
        let plan = Arc::new(FaultPlan::none());
        exercise(&FaultyEnv::new(Arc::new(MemEnv::new()), plan.clone()));
        assert_eq!(plan.injected_count(), 0);
    }

    #[test]
    fn faulty_env_torn_append_persists_prefix() {
        let inner = Arc::new(MemEnv::new());
        let plan = Arc::new(FaultPlan::new(17).fail_at(2, FaultKind::TornWrite));
        let env = FaultyEnv::new(inner.clone(), plan.clone());
        env.append("wal", b"first record ok").unwrap();
        let err = env.append("wal", b"second record torn").unwrap_err();
        assert!(err.is_injected());
        let on_disk = inner.read_file("wal").unwrap();
        assert!(on_disk.starts_with(b"first record ok"));
        assert!(on_disk.len() < b"first record ok".len() + b"second record torn".len());
        // Crashed: even reads fail until heal.
        assert!(env.read_file("wal").is_err());
        plan.heal();
        assert!(env.read_file("wal").is_ok());
    }

    #[test]
    fn retry_env_rides_out_transient_faults() {
        let plan = Arc::new(FaultPlan::new(23));
        let faulty = Arc::new(FaultyEnv::new(Arc::new(MemEnv::new()), plan.clone()));
        let health = Arc::<KvCounters>::default();
        let env = RetryEnv::new(faulty, RetryPolicy::default(), health.clone());

        plan.fail_transient_next(FaultKind::TransientWriteError, 2);
        env.append("wal", b"record").unwrap();
        assert_eq!(env.read_file("wal").unwrap(), b"record");

        plan.fail_transient_next(FaultKind::TransientReadError, 1);
        assert_eq!(env.read_file("wal").unwrap(), b"record");

        let snap = health.snapshot().retry;
        assert_eq!(snap.retries, 3);
        assert_eq!(snap.retry_successes, 2);
        assert_eq!(snap.retry_exhausted, 0);
    }

    #[test]
    fn retry_env_passes_permanent_errors_through() {
        let plan = Arc::new(FaultPlan::new(29));
        let faulty = Arc::new(FaultyEnv::new(Arc::new(MemEnv::new()), plan.clone()));
        let health = Arc::<KvCounters>::default();
        let env = RetryEnv::new(faulty, RetryPolicy::default(), health.clone());

        plan.fail_next(FaultKind::WriteError);
        assert!(env.append("wal", b"x").unwrap_err().is_injected());
        assert_eq!(health.snapshot().retry.retries, 0, "permanent: no retry");
        // The schedule is spent: the next append goes through.
        env.append("wal", b"x").unwrap();
    }

    #[test]
    fn faulty_env_write_error_leaves_no_file() {
        let inner = Arc::new(MemEnv::new());
        let plan = Arc::new(FaultPlan::new(19).fail_at(1, FaultKind::WriteError));
        let env = FaultyEnv::new(inner.clone(), plan);
        assert!(env.write_file("sst_1", b"data").unwrap_err().is_injected());
        assert!(inner.read_file("sst_1").is_err());
        env.write_file("sst_1", b"data").unwrap();
        assert_eq!(inner.read_file("sst_1").unwrap(), b"data");
    }
}
