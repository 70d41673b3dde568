//! Versioned, self-describing binary snapshots of an interrupted safety
//! search, with their own little serializer (no external dependencies).
//!
//! A snapshot captures everything needed to resume a breadth-first safety
//! search exactly where it stopped: the search tree's parent links and
//! depths, the unexpanded frontier (with full state payloads), the visited
//! set's backend payload, cumulative statistics, and a fingerprint of the
//! compiled [`Program`] so a snapshot can never be resumed against a
//! different model.
//!
//! ## Wire format (version 4, little-endian)
//!
//! ```text
//! magic     8 B   "PNPSNAP1"
//! version   u32
//! fingerprint u64            -- program_fingerprint() of the model
//! tag       str              -- caller label (e.g. the property name)
//! backend   u8 (+ params)    -- 0 exact | 1 compact | 2 bitstate | 3 disk
//! stats     9 × u64          -- steps, max_depth, peak_frontier,
//!                               approx_memory, elapsed_ns, replay_rejected,
//!                               spilled_states, spill_bytes, merge_passes
//! parents   u64 count, entries (flag u8, parent u64, step)
//! depths    u64 count, u64 each
//! frontier  u64 count, (id u64, state) each
//! visited   backend payload  -- exact/disk: none (rebuilt by replay);
//!                               compact: hashes; bitstate: arena words
//! checksum  u64              -- checksum64 over all preceding bytes
//!
//! state     u64 word count, i32 words  -- the flat state layout
//! ```
//!
//! The version changes whenever the state layout does (version 3 is the
//! flat word layout), because the same state codec is embedded in
//! checkpoints, cluster-shipped snapshots and the out-of-core run files,
//! and whenever the checksum does (version 4 seals with the word-at-a-time
//! [`checksum64`] instead of FNV-1a). Decoding reads magic and version
//! before anything else, so an old file is refused by name, not by a
//! checksum it was never sealed with.
//!
//! The trailing checksum makes truncation and bit corruption detectable:
//! decoding verifies it before parsing, so a damaged file yields a clean
//! [`SnapshotError`], never a panic or a garbage resume. The exact
//! backend's visited payload is deliberately *not* serialized — it is the
//! heaviest structure and is fully determined by the parent links, so
//! resume rebuilds it by replaying each state's discovery step.

use std::borrow::Cow;
use std::fmt;
use std::path::PathBuf;

use crate::program::{ProcId, Program};
use crate::rng::{checksum64, fnv64};
use crate::state::{State, Step};
use crate::vfs::{commit_replace, real_fs, VfsHandle};
use crate::visited::VisitedKind;

const MAGIC: &[u8; 8] = b"PNPSNAP1";
const VERSION: u32 = 4;

/// A stable 64-bit fingerprint of a compiled [`Program`].
///
/// Computed over the program's canonical debug rendering, which covers
/// every structural detail (channels, processes, transitions, guards,
/// initial values); native functions contribute their names. Two programs
/// with the same fingerprint are structurally identical for search
/// purposes, so resuming a snapshot against a program with a different
/// fingerprint is refused.
pub fn program_fingerprint(program: &Program) -> u64 {
    fnv64(format!("{program:?}").as_bytes())
}

/// Why a snapshot could not be written, read, or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// An I/O failure while storing or loading.
    Io(String),
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The data ends before the encoded structures do.
    Truncated,
    /// The checksum does not match, or a structural invariant is broken.
    Corrupted(String),
    /// The snapshot belongs to a different program.
    FingerprintMismatch {
        /// Fingerprint of the program being resumed.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a PnP snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::Corrupted(what) => write!(f, "snapshot is corrupted: {what}"),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different program \
                 (program fingerprint {expected:#018x}, snapshot has {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Cumulative statistics carried inside a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SnapStats {
    pub steps: u64,
    pub max_depth: u64,
    pub peak_frontier: u64,
    pub approx_memory_bytes: u64,
    pub elapsed_nanos: u64,
    pub replay_rejected: u64,
    pub spilled_states: u64,
    pub spill_bytes: u64,
    pub merge_passes: u64,
}

/// The visited-set backend payload carried inside a snapshot: owned by a
/// decoded [`Snapshot`], and borrowed from the live backend where a
/// running search encodes a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum VisitedPayload<'a> {
    /// Exact sets are rebuilt by replaying the parent links.
    Exact,
    /// The compacted 64-bit hashes.
    Compact(Cow<'a, [u64]>),
    /// The bitstate arena words plus the insert count.
    Bitstate {
        arena: Cow<'a, [u64]>,
        inserted: u64,
    },
}

/// A decoded checkpoint of an interrupted safety search.
///
/// Produced by [`crate::Checker::checkpoint_to`] flushes; load one with
/// [`Snapshot::decode`] and hand it to [`crate::Checker::resume_from`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) fingerprint: u64,
    pub(crate) tag: String,
    pub(crate) kind: VisitedKind,
    pub(crate) stats: SnapStats,
    pub(crate) parents: Vec<Option<(usize, Step)>>,
    pub(crate) depths: Vec<usize>,
    pub(crate) frontier: Vec<(usize, State)>,
    pub(crate) visited: VisitedPayload<'static>,
}

impl Snapshot {
    /// The fingerprint of the program this snapshot belongs to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The caller-supplied label (e.g. the property name being checked).
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The visited-set backend the interrupted search was using.
    pub fn visited_kind(&self) -> VisitedKind {
        self.kind
    }

    /// Unique states discovered before the interruption.
    pub fn states_covered(&self) -> usize {
        self.parents.len()
    }

    /// States discovered but not yet expanded.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Whether this snapshot was taken from a search over `program`.
    pub fn matches_program(&self, program: &Program) -> bool {
        self.fingerprint == program_fingerprint(program)
    }

    /// Serializes the snapshot to its versioned binary form.
    pub fn encode(&self) -> Vec<u8> {
        let image = SearchImage {
            fingerprint: self.fingerprint,
            tag: &self.tag,
            kind: self.kind,
            stats: self.stats,
            parents: &self.parents,
            depths: &self.depths,
            visited: &self.visited,
        };
        let frontier = |row: &mut dyn FnMut(usize, &[i32])| {
            for (id, state) in &self.frontier {
                row(*id, state.words());
            }
            Ok::<(), std::convert::Infallible>(())
        };
        match image.encode(self.frontier.len(), frontier) {
            Ok(bytes) => bytes,
            Err(never) => match never {},
        }
    }

    /// Parses a snapshot from its binary form, verifying magic, version,
    /// and checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] for anything that is not a well-formed
    /// snapshot of this build's version — wrong magic, unknown version, truncation, a
    /// checksum mismatch, or internally inconsistent structures. Never
    /// panics on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(
                if bytes.starts_with(MAGIC) || MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
                    SnapshotError::Truncated
                } else {
                    SnapshotError::BadMagic
                },
            );
        }
        if &bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        // The version before the checksum: another version's file is
        // sealed with another checksum, and must be refused by name.
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if checksum64(body) != stored {
            return Err(SnapshotError::Corrupted("checksum mismatch".into()));
        }
        let mut r = Reader {
            bytes: body,
            pos: 12,
        };
        let fingerprint = r.u64()?;
        let tag = r.str()?;
        let kind = match r.u8()? {
            0 => VisitedKind::Exact,
            1 => VisitedKind::Compact,
            2 => {
                let arena_bytes = r.usize()?;
                let hashes = r.u32()?;
                VisitedKind::Bitstate {
                    arena_bytes,
                    hashes,
                }
            }
            3 => VisitedKind::DiskExact,
            other => {
                return Err(SnapshotError::Corrupted(format!(
                    "unknown visited-set backend tag {other}"
                )))
            }
        };
        let stats = SnapStats {
            steps: r.u64()?,
            max_depth: r.u64()?,
            peak_frontier: r.u64()?,
            approx_memory_bytes: r.u64()?,
            elapsed_nanos: r.u64()?,
            replay_rejected: r.u64()?,
            spilled_states: r.u64()?,
            spill_bytes: r.u64()?,
            merge_passes: r.u64()?,
        };
        let n_parents = r.usize()?;
        let mut parents = Vec::new();
        for i in 0..n_parents {
            match r.u8()? {
                0 => parents.push(None),
                1 => {
                    let id = r.usize()?;
                    if id >= i {
                        return Err(SnapshotError::Corrupted(format!(
                            "state {i} claims later/self parent {id}"
                        )));
                    }
                    let step = r.step()?;
                    parents.push(Some((id, step)));
                }
                other => {
                    return Err(SnapshotError::Corrupted(format!(
                        "bad parent flag {other} at state {i}"
                    )))
                }
            }
        }
        let n_depths = r.usize()?;
        if n_depths != n_parents {
            return Err(SnapshotError::Corrupted(format!(
                "{n_parents} parents but {n_depths} depths"
            )));
        }
        let mut depths = Vec::new();
        for _ in 0..n_depths {
            depths.push(r.usize()?);
        }
        let n_frontier = r.usize()?;
        let mut frontier = Vec::new();
        for _ in 0..n_frontier {
            let id = r.usize()?;
            if id >= n_parents {
                return Err(SnapshotError::Corrupted(format!(
                    "frontier references unknown state {id}"
                )));
            }
            let state = r.state()?;
            frontier.push((id, state));
        }
        let visited = match kind {
            VisitedKind::Exact | VisitedKind::DiskExact => VisitedPayload::Exact,
            VisitedKind::Compact => {
                let n = r.usize()?;
                let mut hashes = Vec::new();
                for _ in 0..n {
                    hashes.push(r.u64()?);
                }
                VisitedPayload::Compact(hashes.into())
            }
            VisitedKind::Bitstate { .. } => {
                let n = r.usize()?;
                let mut arena = Vec::new();
                for _ in 0..n {
                    arena.push(r.u64()?);
                }
                let inserted = r.u64()?;
                VisitedPayload::Bitstate {
                    arena: arena.into(),
                    inserted,
                }
            }
        };
        if r.pos != r.bytes.len() {
            return Err(SnapshotError::Corrupted(format!(
                "{} trailing bytes",
                r.bytes.len() - r.pos
            )));
        }
        Ok(Snapshot {
            fingerprint,
            tag,
            kind,
            stats,
            parents,
            depths,
            frontier,
            visited,
        })
    }
}

/// A search's state borrowed for encoding: what a [`Snapshot`] holds
/// except the frontier, which the encoder pulls row by row. A running
/// search encodes its checkpoints through this without copying its parent
/// links, depths, queued states or bitstate arena.
pub(crate) struct SearchImage<'a> {
    pub(crate) fingerprint: u64,
    pub(crate) tag: &'a str,
    pub(crate) kind: VisitedKind,
    pub(crate) stats: SnapStats,
    pub(crate) parents: &'a [Option<(usize, Step)>],
    pub(crate) depths: &'a [usize],
    pub(crate) visited: &'a VisitedPayload<'a>,
}

impl SearchImage<'_> {
    /// The snapshot wire format of this image and a frontier of
    /// `frontier_len` states, which `frontier` hands to its callback as
    /// (id, words) in FIFO order. A failure to produce the frontier is
    /// returned as is.
    pub(crate) fn encode<E>(
        &self,
        frontier_len: usize,
        frontier: impl FnOnce(&mut dyn FnMut(usize, &[i32])) -> Result<(), E>,
    ) -> Result<Vec<u8>, E> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u64(self.fingerprint);
        w.str(self.tag);
        match self.kind {
            VisitedKind::Exact => w.u8(0),
            VisitedKind::Compact => w.u8(1),
            VisitedKind::Bitstate {
                arena_bytes,
                hashes,
            } => {
                w.u8(2);
                w.u64(arena_bytes as u64);
                w.u32(hashes);
            }
            VisitedKind::DiskExact => w.u8(3),
        }
        w.u64(self.stats.steps);
        w.u64(self.stats.max_depth);
        w.u64(self.stats.peak_frontier);
        w.u64(self.stats.approx_memory_bytes);
        w.u64(self.stats.elapsed_nanos);
        w.u64(self.stats.replay_rejected);
        w.u64(self.stats.spilled_states);
        w.u64(self.stats.spill_bytes);
        w.u64(self.stats.merge_passes);
        w.u64(self.parents.len() as u64);
        for parent in self.parents {
            match parent {
                None => w.u8(0),
                Some((id, step)) => {
                    w.u8(1);
                    w.u64(*id as u64);
                    w.step(step);
                }
            }
        }
        w.u64(self.depths.len() as u64);
        for &d in self.depths {
            w.u64(d as u64);
        }
        w.u64(frontier_len as u64);
        let mut rows = 0;
        frontier(&mut |id, words| {
            w.u64(id as u64);
            w.words(words);
            rows += 1;
        })?;
        debug_assert_eq!(rows, frontier_len, "frontier length");
        match self.visited {
            VisitedPayload::Exact => {}
            VisitedPayload::Compact(hashes) => {
                w.u64(hashes.len() as u64);
                for &h in hashes.iter() {
                    w.u64(h);
                }
            }
            VisitedPayload::Bitstate { arena, inserted } => {
                w.u64(arena.len() as u64);
                for &word in arena.iter() {
                    w.u64(word);
                }
                w.u64(*inserted);
            }
        }
        let checksum = checksum64(&w.out);
        w.u64(checksum);
        Ok(w.out)
    }
}

/// Where checkpoint bytes go. Implementations must replace, not append:
/// each flush stores a complete snapshot superseding the previous one.
pub trait SnapshotSink {
    /// Atomically replaces the stored snapshot with `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when storing fails.
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

impl SnapshotSink for Box<dyn SnapshotSink> {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        (**self).store(bytes)
    }
}

/// A [`SnapshotSink`] that writes to a file, crash-consistently: bytes go
/// to a `.tmp` sibling, the tmp file is fsynced, renamed over the target,
/// and the parent directory is fsynced — so an interrupted flush can never
/// leave a half-written snapshot at the target path, and a completed flush
/// survives power loss (see [`commit_replace`]).
#[derive(Debug, Clone)]
pub struct FileSink {
    path: PathBuf,
    vfs: VfsHandle,
}

impl FileSink {
    /// A sink writing snapshots to `path` on the real filesystem.
    pub fn new(path: impl Into<PathBuf>) -> FileSink {
        FileSink::with_vfs(path, real_fs())
    }

    /// A sink writing snapshots to `path` through `vfs` (so the simulated
    /// filesystem can inject storage faults into checkpoint flushes).
    pub fn with_vfs(path: impl Into<PathBuf>, vfs: VfsHandle) -> FileSink {
        FileSink {
            path: path.into(),
            vfs,
        }
    }

    /// The target path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl SnapshotSink for FileSink {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        commit_replace(self.vfs.as_ref(), &self.path, bytes)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", self.path.display())))
    }
}

/// An in-memory sink: each flush replaces the buffer's contents. Keep a
/// clone of the `Rc` to read the latest snapshot back (tests, embedding).
impl SnapshotSink for std::rc::Rc<std::cell::RefCell<Vec<u8>>> {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        *self.borrow_mut() = bytes.to_vec();
        Ok(())
    }
}

/// Loads and decodes a snapshot file.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] when the file cannot be read, or any
/// decoding error for malformed contents.
pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<Snapshot, SnapshotError> {
    let path = path.as_ref();
    let bytes =
        std::fs::read(path).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
    Snapshot::decode(&bytes)
}

/// One state's encoding, in a fresh buffer.
#[cfg(test)]
pub(crate) fn encode_state(state: &State) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_words_len(state.words().len()));
    append_words(state.words(), &mut out);
    out
}

/// [`append_words`] into a caller-owned buffer, replacing its contents,
/// so a hot probe loop can reuse one allocation.
pub(crate) fn encode_words_into(words: &[i32], out: &mut Vec<u8>) {
    out.clear();
    append_words(words, out);
}

/// Appends the state codec's encoding of the state with these words (a
/// row of a row store, or a [`State`]'s words) to `out`. The out-of-core
/// run files ([`crate::extmem`]) reuse this codec, so a state has exactly
/// one byte representation across every on-disk structure.
pub(crate) fn append_words(words: &[i32], out: &mut Vec<u8>) {
    let mut w = Writer {
        out: std::mem::take(out),
    };
    w.words(words);
    *out = w.out;
}

/// The length of the encoding of a state of `words` words.
pub(crate) fn encoded_words_len(words: usize) -> usize {
    8 + 4 * words
}

/// Decodes the words of one state written by [`append_words`], appending
/// them to `out` (a row store's word vector) without building a
/// [`State`]. The whole buffer must be consumed; on error `out` is
/// unchanged.
pub(crate) fn decode_state_into(bytes: &[u8], out: &mut Vec<i32>) -> Result<(), SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    let n_words = r.usize()?;
    let len = n_words.checked_mul(4).ok_or(SnapshotError::Truncated)?;
    let body = &bytes[r.pos..];
    if body.len() < len {
        return Err(SnapshotError::Truncated);
    }
    if body.len() > len {
        return Err(SnapshotError::Corrupted(format!(
            "{} trailing bytes after state",
            body.len() - len
        )));
    }
    out.extend(
        body.chunks_exact(4)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap())),
    );
    Ok(())
}

/// Decodes one state, requiring the whole buffer to be consumed.
#[cfg(test)]
pub(crate) fn decode_state(bytes: &[u8]) -> Result<State, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    let state = r.state()?;
    if r.pos != bytes.len() {
        return Err(SnapshotError::Corrupted(format!(
            "{} trailing bytes after state",
            bytes.len() - r.pos
        )));
    }
    Ok(state)
}

// ---------------------------------------------------------------------
// The serializer
// ---------------------------------------------------------------------

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { out: Vec::new() }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn i32(&mut self, v: i32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn step(&mut self, step: &Step) {
        self.u64(step.proc.index() as u64);
        self.u64(step.trans as u64);
        match step.partner {
            None => self.u8(0),
            Some((proc, trans)) => {
                self.u8(1);
                self.u64(proc.index() as u64);
                self.u64(trans as u64);
            }
        }
    }

    fn words(&mut self, words: &[i32]) {
        self.u64(words.len() as u64);
        for &v in words {
            self.i32(v);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupted(format!("count {v} overflows")))
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupted("tag is not UTF-8".into()))
    }

    fn step(&mut self) -> Result<Step, SnapshotError> {
        let proc = ProcId::from_index(self.usize()?);
        let trans = self.usize()?;
        let partner = match self.u8()? {
            0 => None,
            1 => Some((ProcId::from_index(self.usize()?), self.usize()?)),
            other => {
                return Err(SnapshotError::Corrupted(format!(
                    "bad partner flag {other}"
                )))
            }
        };
        Ok(Step {
            proc,
            trans,
            partner,
        })
    }

    fn state(&mut self) -> Result<State, SnapshotError> {
        let n_words = self.usize()?;
        let bytes = self.take(n_words.checked_mul(4).ok_or(SnapshotError::Truncated)?)?;
        Ok(State::from_words(
            bytes
                .chunks_exact(4)
                .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
                .collect(),
        ))
    }
}

/// A small fully-populated snapshot for cross-module tests (the durable
/// generation store roundtrips real snapshot payloads through it).
#[cfg(test)]
pub(crate) fn test_snapshot() -> Snapshot {
    tests::sample_snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_snapshot() -> Snapshot {
        let state = State::from_words(vec![3, 1, -2, 1, 7, 8, -9, 0, 42].into_boxed_slice());
        let step = Step {
            proc: ProcId::from_index(0),
            trans: 1,
            partner: Some((ProcId::from_index(2), 0)),
        };
        Snapshot {
            fingerprint: 0xdead_beef_1234_5678,
            tag: "no_deadlock".into(),
            kind: VisitedKind::Bitstate {
                arena_bytes: 1024,
                hashes: 3,
            },
            stats: SnapStats {
                steps: 10,
                max_depth: 4,
                peak_frontier: 6,
                approx_memory_bytes: 4096,
                elapsed_nanos: 1_000_000,
                replay_rejected: 1,
                spilled_states: 5,
                spill_bytes: 640,
                merge_passes: 2,
            },
            parents: vec![None, Some((0, step))],
            depths: vec![0, 1],
            frontier: vec![(1, state)],
            visited: VisitedPayload::Bitstate {
                arena: vec![0b1011, 0, u64::MAX].into(),
                inserted: 2,
            },
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample_snapshot();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded.fingerprint, snap.fingerprint);
        assert_eq!(decoded.tag, snap.tag);
        assert_eq!(decoded.kind, snap.kind);
        assert_eq!(decoded.stats, snap.stats);
        assert_eq!(decoded.parents, snap.parents);
        assert_eq!(decoded.depths, snap.depths);
        assert_eq!(decoded.frontier.len(), 1);
        assert_eq!(decoded.frontier[0].0, 1);
        assert_eq!(decoded.frontier[0].1, snap.frontier[0].1);
        assert_eq!(decoded.visited, snap.visited);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(
            Snapshot::decode(b"definitely not a snapshot, sorry").err(),
            Some(SnapshotError::BadMagic)
        );
        assert!(Snapshot::decode(&[]).is_err());
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let bytes = sample_snapshot().encode();
        for len in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..len])
                .expect_err(&format!("truncation to {len} bytes must fail"));
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::Corrupted(_)
                ),
                "unexpected error at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_snapshot().encode();
        // Flip one bit in each byte: the checksum (or magic) must catch it.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn unsupported_version_is_reported() {
        let snap = sample_snapshot();
        let mut bytes = snap.encode();
        // Overwrite the version field (offset 8) and re-seal the checksum.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let checksum = checksum64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&bytes).err(),
            Some(SnapshotError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn previous_version_is_refused_by_name_not_by_checksum() {
        // A version 3 checkpoint as the previous format wrote it, sealed
        // with that format's FNV-1a checksum, must be refused by its
        // version, not reported as a checksum mismatch.
        let mut bytes = sample_snapshot().encode();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let checksum = fnv64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert_eq!(err, SnapshotError::UnsupportedVersion(3));
        assert_eq!(
            err.to_string(),
            "unsupported snapshot version 3 (this build reads 4)"
        );
    }

    #[test]
    fn file_sink_roundtrips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("pnp_snap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("search.pnpsnap");
        let mut sink = FileSink::new(&path);
        sink.store(b"old").unwrap();
        let snap = sample_snapshot();
        sink.store(&snap.encode()).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.tag, "no_deadlock");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_snapshot("/nonexistent/dir/nope.pnpsnap").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
    }
}
