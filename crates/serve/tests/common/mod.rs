//! Helpers shared by the service's integration tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh directory path under the temp dir, for a test's state; the
/// directory and everything in it is removed when the guard drops.
/// Declare the guard before whatever writes into the directory, so that
/// it drops after it.
pub struct TempDir(PathBuf);

impl TempDir {
    /// `pnp-{prefix}-{pid}-{n}` under the temp dir, not created yet.
    pub fn new(prefix: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "pnp-{prefix}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
