//! Storage for the durable workload: the kernel's real filesystem in a
//! scratch directory of the working directory, and timing wrappers for
//! the `Vfs` and the checkpoint sink handed to `VerifyOptions`.
//!
//! The files live in the page cache, as on a RAM-backed filesystem, where
//! an fsync has nothing to force out: [`PageCacheFs`] is `RealFs` whose
//! syncs open the file or directory and stop there. Forcing the same
//! spill run out to a shared virtual disk took several times longer and
//! varied run to run with other tenants' I/O, which would measure the
//! disk rather than the storage layer.
//!
//! The wrappers are pure pass-throughs: they count and open a span, then
//! forward the call unchanged.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pnp_kernel::{RealFs, SnapshotError, SnapshotSink, Vfs, VfsHandle};

use crate::trace;

/// The kernel's [`RealFs`] as it behaves on a RAM-backed filesystem:
/// `sync_file` and `sync_dir` open their target, as `RealFs` does,
/// without forcing it to the device, and `rename` removes an existing
/// target first, because ext4 starts writing a file out to the device
/// when it is renamed over another (`auto_da_alloc`). Over ext4 that
/// write-out tripled the checkpointed search's time and varied with the
/// disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageCacheFs;

impl PageCacheFs {
    /// The filesystem behind a shareable handle.
    pub fn handle() -> VfsHandle {
        Arc::new(PageCacheFs)
    }
}

impl Vfs for PageCacheFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        RealFs.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        File::open(path).map(drop)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir).map(drop)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match std::fs::remove_file(to) {
            Err(error) if error.kind() != io::ErrorKind::NotFound => Err(error),
            _ => RealFs.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        RealFs.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.list(dir)
    }

    fn list_dirs(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.list_dirs(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }
}

/// Operation counts seen by a [`TimedVfs`].
#[derive(Debug, Default)]
pub struct VfsCounters {
    /// `write` calls.
    pub writes: AtomicU64,
    /// Bytes passed to `write`.
    pub write_bytes: AtomicU64,
    /// `read` calls.
    pub reads: AtomicU64,
    /// `sync_file` and `sync_dir` calls.
    pub syncs: AtomicU64,
    /// `rename` calls.
    pub renames: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// A pass-through [`Vfs`] that counts each call and records it as a
/// `vfs.*` span.
#[derive(Debug)]
pub struct TimedVfs {
    inner: VfsHandle,
    counters: Arc<VfsCounters>,
}

impl TimedVfs {
    /// Wraps `inner`; the returned counters are shared with the wrapper.
    pub fn wrap(inner: VfsHandle) -> (VfsHandle, Arc<VfsCounters>) {
        let counters = Arc::new(VfsCounters::default());
        let handle = Arc::new(TimedVfs {
            inner,
            counters: Arc::clone(&counters),
        });
        (handle, counters)
    }
}

impl Vfs for TimedVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let _span = trace::span("vfs.read");
        bump(&self.counters.reads, 1);
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let _span = trace::span("vfs.write");
        bump(&self.counters.writes, 1);
        bump(&self.counters.write_bytes, bytes.len() as u64);
        self.inner.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let _span = trace::span("vfs.sync");
        bump(&self.counters.syncs, 1);
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let _span = trace::span("vfs.sync");
        bump(&self.counters.syncs, 1);
        self.inner.sync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _span = trace::span("vfs.rename");
        bump(&self.counters.renames, 1);
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let _span = trace::span("vfs.other");
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let _span = trace::span("vfs.other");
        self.inner.list(dir)
    }

    fn list_dirs(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let _span = trace::span("vfs.other");
        self.inner.list_dirs(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        let _span = trace::span("vfs.other");
        self.inner.exists(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let _span = trace::span("vfs.other");
        self.inner.create_dir_all(dir)
    }
}

/// Counts seen by a [`TimedSink`].
#[derive(Debug, Default)]
pub struct SinkCounters {
    /// `store` calls.
    pub stores: AtomicU64,
    /// Bytes passed to `store`.
    pub bytes: AtomicU64,
}

/// A pass-through checkpoint sink that counts each store and records it
/// as a `snapshot.store` span.
pub struct TimedSink {
    inner: Box<dyn SnapshotSink>,
    counters: Arc<SinkCounters>,
}

impl TimedSink {
    /// Wraps `inner`, reporting into `counters`.
    pub fn new(inner: Box<dyn SnapshotSink>, counters: Arc<SinkCounters>) -> TimedSink {
        TimedSink { inner, counters }
    }
}

impl SnapshotSink for TimedSink {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let _span = trace::span("snapshot.store");
        bump(&self.counters.stores, 1);
        bump(&self.counters.bytes, bytes.len() as u64);
        self.inner.store(bytes)
    }
}
