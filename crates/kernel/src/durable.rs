//! Double-buffered, generation-counted durable artifacts.
//!
//! A single tmp+rename file — even with full fsync discipline — has a
//! fatal window for *checkpoints*: once the rename lands, the previous
//! snapshot is gone, so corruption of the one file (or a crash that
//! loses the unsynced rename while a sweep already removed the old tmp)
//! loses all progress. Generations close that window by alternating
//! between two slots:
//!
//! * `<base>.a` / `<base>.b` — each holds one *generation envelope*:
//!   `PNPGEN02` magic, a monotonic generation counter, the payload, and
//!   a trailing [`checksum64`]. (`PNPGEN01` sealed with FNV-1a; an
//!   envelope of another version is refused by name.)
//! * A commit writes the next generation into the slot *not* holding
//!   the newest valid one, through the [`commit_replace`] discipline
//!   (tmp + `sync_file` + rename + `sync_dir`).
//! * Recovery reads both slots and rolls forward to the newest valid
//!   generation. A crash at any point of a commit therefore loses at
//!   most the generation being written — never the previous good one.
//!
//! [`GenStore`] is the store, [`GenSink`] adapts it to the kernel's
//! [`SnapshotSink`] so checkpoint flushes commit generations, and
//! [`load_latest_snapshot`] is the recovery entry point used by
//! `pnp-check --resume` and the `pnp-serve` supervisor.

use std::path::{Path, PathBuf};

use crate::rng::checksum64;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotSink};
use crate::vfs::{commit_replace, tmp_sibling, VfsHandle};

const GEN_MAGIC: &[u8; 8] = b"PNPGEN02";

/// The part of [`GEN_MAGIC`] every version shares.
const GEN_MAGIC_FAMILY: &[u8; 6] = b"PNPGEN";

/// Wraps `payload` in a generation envelope.
pub fn encode_generation(generation: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(GEN_MAGIC);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = checksum64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Unwraps a generation envelope, verifying magic (and version), length,
/// and checksum.
///
/// # Errors
///
/// Returns a description of the first structural problem — wrong magic,
/// another format version, truncation, checksum mismatch. Never panics on
/// malformed input.
pub fn decode_generation(bytes: &[u8]) -> Result<(u64, Vec<u8>), String> {
    if bytes.len() < GEN_MAGIC.len() + 8 + 8 + 8 {
        return Err("generation envelope is truncated".into());
    }
    if &bytes[..8] != GEN_MAGIC {
        if bytes.starts_with(GEN_MAGIC_FAMILY) {
            return Err(format!(
                "generation envelope version {} is not supported (this build reads {})",
                String::from_utf8_lossy(&bytes[..8]),
                String::from_utf8_lossy(GEN_MAGIC)
            ));
        }
        return Err("not a generation envelope (bad magic)".into());
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if checksum64(body) != stored {
        return Err("generation envelope checksum mismatch".into());
    }
    let generation = u64::from_le_bytes(body[8..16].try_into().unwrap());
    let len = u64::from_le_bytes(body[16..24].try_into().unwrap());
    let payload = &body[24..];
    if payload.len() as u64 != len {
        return Err(format!(
            "generation payload length mismatch: header says {len}, found {}",
            payload.len()
        ));
    }
    Ok((generation, payload.to_vec()))
}

/// What a [`GenStore::scan`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct GenScan {
    /// Valid generations, newest first (at most two).
    pub slots: Vec<(u64, Vec<u8>)>,
    /// Slot files that exist but do not decode — candidates for
    /// quarantine.
    pub corrupt: Vec<PathBuf>,
}

impl GenScan {
    /// The newest valid generation, if any.
    pub fn latest(&self) -> Option<&(u64, Vec<u8>)> {
        self.slots.first()
    }
}

/// A double-buffered generation store over a [`Vfs`].
#[derive(Debug, Clone)]
pub struct GenStore {
    vfs: VfsHandle,
    base: PathBuf,
    /// `(last committed generation, slot index it lives in)`, discovered
    /// lazily on the first commit.
    state: Option<(u64, usize)>,
}

impl GenStore {
    /// A store whose slots are `<base>.a` and `<base>.b`.
    pub fn new(vfs: VfsHandle, base: impl Into<PathBuf>) -> GenStore {
        GenStore {
            vfs,
            base: base.into(),
            state: None,
        }
    }

    /// The base path (without the slot extension).
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// The two slot paths, `.a` first.
    pub fn slot_paths(&self) -> [PathBuf; 2] {
        let slot = |ext: &str| {
            let mut p = self.base.as_os_str().to_os_string();
            p.push(ext);
            PathBuf::from(p)
        };
        [slot(".a"), slot(".b")]
    }

    /// Reads both slots and classifies them: valid generations newest
    /// first, plus any corrupt slot files.
    ///
    /// # Errors
    ///
    /// Returns the error when a slot cannot be *read* (I/O, crash);
    /// undecodable content is not an error, it lands in
    /// [`GenScan::corrupt`].
    pub fn scan(&self) -> std::io::Result<GenScan> {
        let mut scan = GenScan::default();
        for path in self.slot_paths() {
            let bytes = match self.vfs.read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            match decode_generation(&bytes) {
                Ok((generation, payload)) => scan.slots.push((generation, payload)),
                Err(_) => scan.corrupt.push(path),
            }
        }
        scan.slots.sort_by_key(|slot| std::cmp::Reverse(slot.0));
        Ok(scan)
    }

    /// Commits `payload` as the next generation, into the slot not
    /// holding the newest valid one. Returns the committed generation
    /// number.
    ///
    /// # Errors
    ///
    /// Returns the first failing filesystem operation's error. The
    /// previous good generation survives any such failure.
    pub fn commit(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let (generation, slot) = match self.state {
            Some((last, last_slot)) => (last + 1, 1 - last_slot),
            None => match self.scan()?.latest() {
                // The newest generation's slot is whichever decodes to
                // that generation; rediscover it by matching.
                Some(&(last, _)) => {
                    let paths = self.slot_paths();
                    let in_a = self
                        .vfs
                        .read(&paths[0])
                        .ok()
                        .and_then(|b| decode_generation(&b).ok())
                        .is_some_and(|(g, _)| g == last);
                    (last + 1, usize::from(in_a))
                }
                None => (1, 0),
            },
        };
        let path = &self.slot_paths()[slot];
        commit_replace(
            self.vfs.as_ref(),
            path,
            &encode_generation(generation, payload),
        )?;
        self.state = Some((generation, slot));
        Ok(generation)
    }

    /// Removes stale `.tmp` staging files left by interrupted commits.
    /// Returns how many were removed.
    pub fn sweep_tmp(&self) -> u32 {
        let mut removed = 0;
        for slot in self.slot_paths() {
            if self.vfs.remove(&tmp_sibling(&slot)).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Removes both slots and their staging files (the artifact is no
    /// longer needed). Best-effort.
    pub fn remove_all(&self) {
        for slot in self.slot_paths() {
            let _ = self.vfs.remove(&slot);
            let _ = self.vfs.remove(&tmp_sibling(&slot));
        }
    }
}

/// A [`SnapshotSink`] that commits each flush as a new generation.
#[derive(Debug, Clone)]
pub struct GenSink {
    store: GenStore,
}

impl GenSink {
    /// A sink committing snapshot generations under `base`.
    pub fn new(vfs: VfsHandle, base: impl Into<PathBuf>) -> GenSink {
        GenSink {
            store: GenStore::new(vfs, base),
        }
    }

    /// The generation committed by the most recent flush, if any.
    pub fn last_generation(&self) -> Option<u64> {
        self.store.state.map(|(generation, _)| generation)
    }
}

impl SnapshotSink for GenSink {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.store
            .commit(bytes)
            .map(|_| ())
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", self.store.base.display())))
    }
}

/// Loads the newest snapshot generation under `base` that decodes
/// cleanly, rolling back to the older slot when the newer one is
/// damaged. Returns the generation number alongside the snapshot.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] when a slot cannot be read;
/// `Ok(None)` when no valid snapshot generation exists at all.
pub fn load_latest_snapshot(
    vfs: &VfsHandle,
    base: impl AsRef<Path>,
) -> Result<Option<(u64, Snapshot)>, SnapshotError> {
    let store = GenStore::new(vfs.clone(), base.as_ref());
    let scan = store
        .scan()
        .map_err(|e| SnapshotError::Io(format!("{}: {e}", base.as_ref().display())))?;
    for (generation, payload) in &scan.slots {
        if let Ok(snapshot) = Snapshot::decode(payload) {
            return Ok(Some((*generation, snapshot)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{real_fs, FaultPlan, SimFs, Vfs};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn sim() -> (Arc<SimFs>, VfsHandle) {
        let fs = Arc::new(SimFs::new(5));
        fs.create_dir_all(&PathBuf::from("/state")).unwrap();
        let handle: VfsHandle = fs.clone();
        (fs, handle)
    }

    #[test]
    fn envelope_roundtrips_and_rejects_damage() {
        let bytes = encode_generation(42, b"payload");
        assert_eq!(
            decode_generation(&bytes).unwrap(),
            (42, b"payload".to_vec())
        );
        for len in 0..bytes.len() {
            assert!(decode_generation(&bytes[..len]).is_err(), "truncate {len}");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(decode_generation(&bad).is_err(), "bit flip at {i}");
        }
    }

    #[test]
    fn previous_envelope_version_is_refused_naming_both_versions() {
        // A `PNPGEN01` envelope as the previous format wrote it, sealed
        // with that format's FNV-1a checksum, must be refused by name.
        let mut bytes = encode_generation(3, b"payload");
        bytes[..8].copy_from_slice(b"PNPGEN01");
        let body_len = bytes.len() - 8;
        let checksum = crate::rng::fnv64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            decode_generation(&bytes).unwrap_err(),
            "generation envelope version PNPGEN01 is not supported (this build reads PNPGEN02)"
        );
    }

    #[test]
    fn commits_alternate_slots_and_generations_climb() {
        let (_fs, vfs) = sim();
        let mut store = GenStore::new(vfs.clone(), "/state/snap");
        assert_eq!(store.commit(b"one").unwrap(), 1);
        assert_eq!(store.commit(b"two").unwrap(), 2);
        assert_eq!(store.commit(b"three").unwrap(), 3);
        let scan = store.scan().unwrap();
        assert_eq!(scan.latest().unwrap(), &(3, b"three".to_vec()));
        assert_eq!(scan.slots.len(), 2, "both slots populated");
        assert_eq!(scan.slots[1], (2, b"two".to_vec()));
    }

    #[test]
    fn a_fresh_store_continues_an_existing_sequence() {
        let (_fs, vfs) = sim();
        let mut store = GenStore::new(vfs.clone(), "/state/snap");
        store.commit(b"one").unwrap();
        store.commit(b"two").unwrap();
        // A new process opens the same base and keeps counting.
        let mut reopened = GenStore::new(vfs, "/state/snap");
        assert_eq!(reopened.commit(b"three").unwrap(), 3);
        let scan = reopened.scan().unwrap();
        assert_eq!(scan.latest().unwrap(), &(3, b"three".to_vec()));
        // The slot holding generation 2 must have been preserved: the
        // new commit overwrote generation 1's slot.
        assert_eq!(scan.slots[1], (2, b"two".to_vec()));
    }

    #[test]
    fn corrupt_newer_slot_rolls_back_to_older_generation() {
        let (fs, vfs) = sim();
        let mut store = GenStore::new(vfs.clone(), "/state/snap");
        store.commit(b"one").unwrap();
        store.commit(b"two").unwrap();
        // Damage whichever slot holds generation 2.
        for path in store.slot_paths() {
            let bytes = fs.read(&path).unwrap();
            if decode_generation(&bytes).unwrap().0 == 2 {
                let mut bad = bytes;
                let mid = bad.len() / 2;
                bad[mid] ^= 0xff;
                fs.write(&path, &bad).unwrap();
            }
        }
        let scan = store.scan().unwrap();
        assert_eq!(scan.latest().unwrap(), &(1, b"one".to_vec()));
        assert_eq!(scan.corrupt.len(), 1);
    }

    #[test]
    fn crash_during_commit_never_loses_the_previous_generation() {
        // Crash at every syscall boundary of a commit, across seeds:
        // recovery must always see generation >= the pre-crash latest,
        // with that generation's exact payload.
        for ops in 0..6 {
            for seed in 0..8 {
                let fs = Arc::new(SimFs::new(seed));
                fs.create_dir_all(&PathBuf::from("/state")).unwrap();
                let vfs: VfsHandle = fs.clone();
                let mut store = GenStore::new(vfs.clone(), "/state/snap");
                store.commit(b"gen-1").unwrap();
                store.commit(b"gen-2").unwrap();
                fs.set_plan(FaultPlan::crash_after(ops));
                let result = GenStore::new(vfs.clone(), "/state/snap").commit(b"gen-3");
                if fs.crashed() {
                    fs.reboot();
                } else {
                    result.unwrap();
                }
                let store = GenStore::new(vfs, "/state/snap");
                store.sweep_tmp();
                let scan = store.scan().unwrap();
                let (generation, payload) = scan.latest().expect("a generation must survive");
                match generation {
                    2 => assert_eq!(payload, b"gen-2"),
                    3 => assert_eq!(payload, b"gen-3"),
                    other => panic!("recovered to unexpected generation {other}"),
                }
            }
        }
    }

    #[test]
    fn sweep_removes_stale_tmp_files() {
        let (fs, vfs) = sim();
        let mut store = GenStore::new(vfs.clone(), "/state/snap");
        store.commit(b"one").unwrap();
        fs.write(&PathBuf::from("/state/snap.a.tmp"), b"interrupted")
            .unwrap();
        assert_eq!(store.sweep_tmp(), 1);
        assert!(!fs.exists(&PathBuf::from("/state/snap.a.tmp")));
        store.remove_all();
        assert!(store.scan().unwrap().slots.is_empty());
    }

    #[test]
    fn gen_sink_and_latest_snapshot_roundtrip_on_the_real_fs() {
        let dir = std::env::temp_dir().join(format!("pnp_gen_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = real_fs();
        let base = dir.join("search.pnpsnap");
        let mut sink = GenSink::new(vfs.clone(), &base);
        let snap = crate::snapshot::test_snapshot();
        sink.store(&snap.encode()).unwrap();
        sink.store(&snap.encode()).unwrap();
        assert_eq!(sink.last_generation(), Some(2));
        let (generation, loaded) = load_latest_snapshot(&vfs, &base).unwrap().unwrap();
        assert_eq!(generation, 2);
        assert_eq!(loaded.tag(), snap.tag());
        std::fs::remove_dir_all(&dir).ok();
    }
}
