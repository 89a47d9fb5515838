//! Streaming, append-only file writer.

use std::sync::Arc;

use dt_common::Result;

use crate::namenode::{BlockGroup, FileMeta};
use crate::DfsInner;

/// Writes a new DFS file as a stream; the file becomes visible (and
/// immutable) only when [`DfsWriter::close`] succeeds. A dropped writer
/// aborts the file — nothing becomes visible, mimicking an HDFS client that
/// dies before `close()`.
pub struct DfsWriter {
    inner: Arc<DfsInner>,
    path: String,
    buf: Vec<u8>,
    meta: FileMeta,
    state: State,
}

#[derive(PartialEq)]
enum State {
    Open,
    Closed,
    Aborted,
}

impl DfsWriter {
    pub(crate) fn new(inner: Arc<DfsInner>, path: String) -> Self {
        DfsWriter {
            inner,
            path,
            buf: Vec::new(),
            meta: FileMeta::default(),
            state: State::Open,
        }
    }

    /// Appends bytes to the file.
    pub fn write_all(&mut self, mut data: &[u8]) -> Result<()> {
        debug_assert!(self.state == State::Open, "write after close");
        let chunk = self.inner.config().chunk_size;
        while !data.is_empty() {
            let room = chunk - self.buf.len();
            let take = room.min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.buf.len() == chunk {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// Bytes written so far.
    pub fn position(&self) -> u64 {
        self.meta.len + self.buf.len() as u64
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let crc = dt_common::crc32::crc32(&self.buf);
        // The buffer becomes the stored block and lives as long as the
        // file, so it starts empty and is trimmed here: a writer buffer
        // pre-sized to 1 MiB and kept as a much smaller block raised
        // `grid_htap`'s peak RSS by 56 %.
        let mut block = std::mem::take(&mut self.buf);
        block.shrink_to_fit();
        self.place(Arc::new(block), crc)
    }

    /// Appends `block`, whose checksum is `crc`, as the file's next block
    /// group. One buffer serves every replica: each is put from it, in
    /// replica order (replica `i` is always the `i`-th block put),
    /// retrying each placement on transient faults like an HDFS client
    /// rebuilding its pipeline. Every placement is attempted; if any
    /// still fails, the ones that landed are released and the write fails
    /// whole — a block group is never committed short.
    pub(crate) fn place(&mut self, block: Arc<Vec<u8>>, crc: u32) -> Result<()> {
        let written = block.len() as u64;
        let replication = self.inner.config().replication.max(1);
        let policy = self.inner.config().retry;
        let mut replicas = Vec::with_capacity(replication as usize);
        let mut first_err = None;
        for _ in 0..replication {
            match policy.run(&self.inner.stats().retry, || {
                self.inner.blocks().put(block.clone())
            }) {
                Ok(id) => replicas.push(id),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            for placed in replicas {
                let _ = self.inner.blocks().delete(placed);
            }
            return Err(e);
        }
        let stats = self.inner.stats();
        stats.bytes_written.add(written * replication as u64);
        stats.write_ops.add(replication as u64);
        self.meta.blocks.push(BlockGroup {
            replicas,
            len: written,
            crc,
        });
        self.meta.len += written;
        Ok(())
    }

    /// Seals the file, making it visible to readers.
    pub fn close(mut self) -> Result<()> {
        self.flush_block()?;
        let meta = std::mem::take(&mut self.meta);
        self.inner.commit_file(&self.path, meta)?;
        self.state = State::Closed;
        Ok(())
    }
}

impl Drop for DfsWriter {
    fn drop(&mut self) {
        if self.state == State::Open {
            // Abort: free any blocks already flushed, release the path.
            for group in &self.meta.blocks {
                for replica in &group.replicas {
                    let _ = self.inner.blocks().delete(*replica);
                }
            }
            self.inner.abort_file(&self.path);
            self.state = State::Aborted;
        }
    }
}
