//! External-memory building blocks for out-of-core search: checksummed
//! `PNPRUN03` run files on the [`Vfs`](crate::vfs::Vfs), a k-way
//! streaming merge with dedup, and a BFS frontier that spills to disk.
//!
//! ## Run file wire format (little-endian)
//!
//! ```text
//! magic     8 B   "PNPRUN03"
//! count     u64
//! entries   count × (key u64, len u64, payload bytes)
//! checksum  u64   -- checksum64 over all preceding bytes
//! ```
//!
//! Runs holding visited-set partitions are sorted by `(key, payload)`;
//! frontier chunks reuse the same envelope in insertion order. Every run
//! is written through [`commit_replace`], so a crash mid-write can never
//! leave a half-written file at a run's path, and the trailing checksum
//! turns torn prefixes and bit rot into clean [`io::ErrorKind::InvalidData`]
//! errors instead of garbage states. The trailing two magic digits are the
//! format version; they change with the state layout the payloads encode
//! or the checksum that seals them (`03` moved from FNV-1a to the
//! word-at-a-time [`checksum64`]), and a run of another version is refused
//! by name before its checksum is even computed.

use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use std::path::PathBuf;

use crate::arena::RowQueue;
use crate::rng::checksum64;
use crate::snapshot::{append_words, encoded_words_len};
use crate::state::State;
use crate::vfs::{commit_replace, VfsHandle};

pub(crate) const RUN_MAGIC: &[u8; 8] = b"PNPRUN03";

/// The part of [`RUN_MAGIC`] every version shares.
const RUN_MAGIC_FAMILY: &[u8; 6] = b"PNPRUN";

/// One record in a run file: a 64-bit sort key (a state hash for visited
/// runs, a discovery id for frontier chunks) and an opaque payload (the
/// snapshot-codec encoding of the state).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RunEntry {
    pub key: u64,
    pub payload: Vec<u8>,
}

fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("run file corrupted: {}", what.into()),
    )
}

/// Serializes entries into the checksummed `PNPRUN03` envelope.
pub(crate) fn encode_run(entries: &[RunEntry]) -> Vec<u8> {
    let payloads = entries.iter().map(|e| 16 + e.payload.len()).sum::<usize>();
    let mut out = start_run(entries.len(), payloads);
    for entry in entries {
        push_run_entry(&mut out, entry.key, entry.payload.len());
        out.extend_from_slice(&entry.payload);
    }
    seal_run(out)
}

/// A run's magic and entry count, in a buffer with room for `body` more
/// bytes of entries and the checksum.
fn start_run(count: usize, body: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + body + 8);
    out.extend_from_slice(RUN_MAGIC);
    out.extend_from_slice(&(count as u64).to_le_bytes());
    out
}

/// An entry's key and payload length; the payload follows.
fn push_run_entry(out: &mut Vec<u8>, key: u64, len: usize) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
}

/// Appends the checksum over everything before it.
fn seal_run(mut out: Vec<u8>) -> Vec<u8> {
    let checksum = checksum64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates a `PNPRUN03` run and locates its entries without copying
/// them: each entry's key and the byte range of its payload in `bytes`.
/// Magic (and version) are checked first, then the checksum over the
/// whole file, then every bound, so any truncation or bit flip is a clean
/// [`io::ErrorKind::InvalidData`] error.
pub(crate) fn index_run(bytes: &[u8]) -> io::Result<Vec<(u64, Range<usize>)>> {
    if bytes.len() < 8 + 8 + 8 {
        return Err(corrupt("shorter than the fixed envelope"));
    }
    if &bytes[..8] != RUN_MAGIC {
        if bytes.starts_with(RUN_MAGIC_FAMILY) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "run file version {} is not supported (this build reads {})",
                    String::from_utf8_lossy(&bytes[..8]),
                    String::from_utf8_lossy(RUN_MAGIC)
                ),
            ));
        }
        return Err(corrupt("bad magic"));
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if checksum64(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let count = u64::from_le_bytes(body[8..16].try_into().unwrap());
    let count = usize::try_from(count).map_err(|_| corrupt("entry count overflows"))?;
    let mut pos: usize = 16;
    let mut entries = Vec::with_capacity(count.min(body.len() / 16));
    for i in 0..count {
        let header_end = pos
            .checked_add(16)
            .filter(|&end| end <= body.len())
            .ok_or_else(|| corrupt(format!("entry {i} header out of bounds")))?;
        let key = u64::from_le_bytes(body[pos..pos + 8].try_into().unwrap());
        let len = u64::from_le_bytes(body[pos + 8..header_end].try_into().unwrap());
        let len =
            usize::try_from(len).map_err(|_| corrupt(format!("entry {i} length overflows")))?;
        let end = header_end
            .checked_add(len)
            .filter(|&end| end <= body.len())
            .ok_or_else(|| corrupt(format!("entry {i} payload out of bounds")))?;
        entries.push((key, header_end..end));
        pos = end;
    }
    if pos != body.len() {
        return Err(corrupt(format!("{} trailing bytes", body.len() - pos)));
    }
    Ok(entries)
}

/// Parses a `PNPRUN03` run into owned entries (see [`index_run`] for what
/// is verified).
pub(crate) fn decode_run(bytes: &[u8]) -> io::Result<Vec<RunEntry>> {
    Ok(index_run(bytes)?
        .into_iter()
        .map(|(key, range)| RunEntry {
            key,
            payload: bytes[range].to_vec(),
        })
        .collect())
}

/// Merges sorted runs into one sorted run via a k-way streaming heap,
/// dropping duplicate `(key, payload)` records. Inputs must each be
/// sorted by `(key, payload)`; the output is, too.
pub(crate) fn merge_runs(runs: Vec<Vec<RunEntry>>) -> Vec<RunEntry> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut iters: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heap = BinaryHeap::new();
    for (source, iter) in iters.iter_mut().enumerate() {
        if let Some(entry) = iter.next() {
            heap.push(Reverse((entry.key, entry.payload, source)));
        }
    }
    let mut out: Vec<RunEntry> = Vec::new();
    while let Some(Reverse((key, payload, source))) = heap.pop() {
        if let Some(entry) = iters[source].next() {
            heap.push(Reverse((entry.key, entry.payload, source)));
        }
        let duplicate = out
            .last()
            .is_some_and(|last| last.key == key && last.payload == payload);
        if !duplicate {
            out.push(RunEntry { key, payload });
        }
    }
    out
}

/// A FIFO BFS frontier that keeps a bounded tail in RAM and spills full
/// chunks to `PNPRUN03` files, reading them back (and deleting them) in
/// order as the search drains the queue.
///
/// Structure: `head` (rows read back or pushed to the front) → spilled
/// `chunks` (oldest first) → `tail` (the in-RAM write buffer). Both RAM
/// windows are [`RowQueue`]s, so a queued state costs its words and no
/// allocation of its own. `push_front` is infallible so budget-trip
/// rollback never touches the disk.
#[derive(Debug)]
pub(crate) struct SpillFrontier {
    vfs: VfsHandle,
    dir: PathBuf,
    head: RowQueue,
    chunks: VecDeque<u64>,
    tail: RowQueue,
    tail_bytes: usize,
    chunk_cap_bytes: usize,
    per_state_bytes: usize,
    next_chunk: u64,
    spilled_states: usize,
    spill_bytes: usize,
    /// States in the spilled chunks.
    chunked: usize,
}

impl SpillFrontier {
    /// An empty spilled frontier storing chunks under `dir` (created if
    /// missing; stale chunk files from a previous run are wiped).
    pub(crate) fn new(
        vfs: VfsHandle,
        dir: impl Into<PathBuf>,
        chunk_cap_bytes: usize,
        per_state_bytes: usize,
    ) -> io::Result<SpillFrontier> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        for path in vfs.list(&dir)? {
            if path.extension().is_some_and(|e| e == "pnprun") {
                vfs.remove(&path)?;
            }
        }
        Ok(SpillFrontier {
            vfs,
            dir,
            head: RowQueue::new(),
            chunks: VecDeque::new(),
            tail: RowQueue::new(),
            tail_bytes: 0,
            chunk_cap_bytes: chunk_cap_bytes.max(1),
            per_state_bytes: per_state_bytes.max(1),
            next_chunk: 0,
            spilled_states: 0,
            spill_bytes: 0,
            chunked: 0,
        })
    }

    fn chunk_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("frontier-{seq:08}.pnprun"))
    }

    pub(crate) fn len(&self) -> usize {
        self.head.len() + self.chunked + self.tail.len()
    }

    /// States spilled to chunk files so far (cumulative).
    pub(crate) fn spilled_states(&self) -> usize {
        self.spilled_states
    }

    /// Bytes written to chunk files so far (cumulative).
    pub(crate) fn spill_bytes(&self) -> usize {
        self.spill_bytes
    }

    /// RAM actually held by this frontier: the head/tail state buffers
    /// plus chunk bookkeeping — the spilled middle costs nothing here.
    pub(crate) fn ram_bytes(&self) -> usize {
        (self.head.len() + self.tail.len()) * self.per_state_bytes + self.chunks.len() * 16
    }

    /// Appends a state's row to the queue, flushing the tail to a chunk
    /// file once it crosses the chunk capacity. On a flush error the tail
    /// (including this state) stays in RAM, so no state is ever lost.
    pub(crate) fn push_back(&mut self, id: usize, words: &[i32], hash: u64) -> io::Result<()> {
        self.tail.push_back(id, words, hash);
        self.tail_bytes += encoded_words_len(words.len()) + 16;
        if self.tail_bytes >= self.chunk_cap_bytes {
            self.flush_tail()?;
        }
        Ok(())
    }

    /// Returns a state to the front of the queue (budget-trip rollback).
    /// Purely in-RAM, so it cannot fail.
    pub(crate) fn push_front(&mut self, id: usize, words: &[i32], hash: u64) {
        self.head.push_front(id, words, hash);
    }

    /// Pops the oldest state into `into` and returns its id, reading back
    /// (and then deleting) the oldest chunk file when the in-RAM head is
    /// exhausted. A chunk that fails to read stays on disk and in the
    /// queue, so the caller can checkpoint or retry without losing states.
    pub(crate) fn pop_front_into(&mut self, into: &mut State) -> io::Result<Option<usize>> {
        if self.head.is_empty() {
            if let Some(&seq) = self.chunks.front() {
                let path = self.chunk_path(seq);
                let bytes = self.vfs.read(&path)?;
                self.head.clear();
                if let Err(error) = load_chunk(&bytes, &mut self.head) {
                    self.head.clear();
                    return Err(error);
                }
                // Fully decoded: only now consume the chunk.
                self.chunks.pop_front();
                self.chunked -= self.head.len();
                let _ = self.vfs.remove(&path);
            } else if !self.tail.is_empty() {
                std::mem::swap(&mut self.head, &mut self.tail);
                self.tail.clear();
                self.tail_bytes = 0;
            }
        }
        Ok(self.head.pop_front_into(into))
    }

    /// Hands every queued state to `row` as (id, words), in FIFO order,
    /// for checkpoint snapshots. Non-destructive: chunks are read but not
    /// consumed.
    pub(crate) fn for_each_row(&self, row: &mut dyn FnMut(usize, &[i32])) -> io::Result<()> {
        for (id, words, _) in self.head.iter() {
            row(id, words);
        }
        let mut chunk = RowQueue::new();
        for &seq in &self.chunks {
            chunk.clear();
            load_chunk(&self.vfs.read(&self.chunk_path(seq))?, &mut chunk)?;
            for (id, words, _) in chunk.iter() {
                row(id, words);
            }
        }
        for (id, words, _) in self.tail.iter() {
            row(id, words);
        }
        Ok(())
    }

    fn flush_tail(&mut self) -> io::Result<()> {
        let count = self.tail.len();
        if count == 0 {
            return Ok(());
        }
        let mut out = start_run(count, self.tail_bytes);
        for (id, words, _) in self.tail.iter() {
            push_run_entry(&mut out, id as u64, encoded_words_len(words.len()));
            append_words(words, &mut out);
        }
        let bytes = seal_run(out);
        commit_replace(self.vfs.as_ref(), &self.chunk_path(self.next_chunk), &bytes)?;
        self.chunks.push_back(self.next_chunk);
        self.next_chunk += 1;
        self.chunked += count;
        self.spilled_states += count;
        self.spill_bytes += bytes.len();
        self.tail.clear();
        self.tail_bytes = 0;
        Ok(())
    }
}

/// Decodes a frontier chunk's entries into `rows`.
fn load_chunk(bytes: &[u8], rows: &mut RowQueue) -> io::Result<()> {
    for (key, range) in index_run(bytes)? {
        let id = usize::try_from(key).map_err(|_| corrupt("frontier id overflows"))?;
        rows.push_encoded(id, &bytes[range])
            .map_err(|e| corrupt(format!("frontier state: {e}")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fnv64;
    use crate::vfs::{SimFs, Vfs};
    use std::path::Path;
    use std::sync::Arc;

    fn entry(key: u64, payload: &[u8]) -> RunEntry {
        RunEntry {
            key,
            payload: payload.to_vec(),
        }
    }

    fn tiny_state(tag: i32) -> State {
        State::from_words(vec![tag, tag, -tag, tag].into_boxed_slice())
    }

    #[test]
    fn run_roundtrip_preserves_entries() {
        let entries = vec![entry(1, b"a"), entry(2, b""), entry(2, b"bb")];
        assert_eq!(decode_run(&encode_run(&entries)).unwrap(), entries);
        assert_eq!(decode_run(&encode_run(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn every_truncation_and_bit_flip_is_a_clean_error() {
        let bytes = encode_run(&[entry(7, b"payload"), entry(9, b"x")]);
        for len in 0..bytes.len() {
            let err = decode_run(&bytes[..len]).expect_err("truncation must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                decode_run(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn previous_run_version_is_refused_naming_both_versions() {
        // A `PNPRUN02` run as the previous format wrote it, sealed with
        // that format's FNV-1a checksum, must be refused by name: the
        // version is checked before the checksum.
        let mut bytes = encode_run(&[entry(7, b"payload")]);
        bytes[..8].copy_from_slice(b"PNPRUN02");
        let body_len = bytes.len() - 8;
        let checksum = fnv64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        let err = decode_run(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "run file version PNPRUN02 is not supported (this build reads PNPRUN03)"
        );
    }

    #[test]
    fn merge_sorts_and_dedups_across_runs() {
        let a = vec![entry(1, b"a"), entry(3, b"c"), entry(5, b"e")];
        let b = vec![entry(1, b"a"), entry(3, b"b"), entry(5, b"e")];
        let merged = merge_runs(vec![a, b]);
        assert_eq!(
            merged,
            vec![
                entry(1, b"a"),
                entry(3, b"b"),
                entry(3, b"c"),
                entry(5, b"e")
            ]
        );
        assert!(merge_runs(Vec::new()).is_empty());
    }

    /// Pushes `tiny_state(id)` onto the back of `frontier`.
    fn push(frontier: &mut SpillFrontier, id: usize) -> io::Result<()> {
        let state = tiny_state(id as i32);
        frontier.push_back(id, state.words(), state.content_hash())
    }

    /// Pops the front state, checking it is `tiny_state` of its id.
    fn pop(frontier: &mut SpillFrontier) -> Option<usize> {
        let mut into = tiny_state(0);
        let id = frontier.pop_front_into(&mut into).unwrap()?;
        assert_eq!(into, tiny_state(id as i32));
        Some(id)
    }

    #[test]
    fn spill_frontier_preserves_fifo_order_across_chunks() {
        let fs = Arc::new(SimFs::new(11));
        // A 24-byte state with a 1-byte chunk cap: every push flushes.
        let mut frontier = SpillFrontier::new(fs.clone(), Path::new("/spill"), 1, 64).unwrap();
        for i in 0..20 {
            push(&mut frontier, i).unwrap();
        }
        assert_eq!(frontier.len(), 20);
        assert!(frontier.spilled_states() > 0);
        let mut snapshot = Vec::new();
        frontier
            .for_each_row(&mut |id, words| snapshot.push((id, words.to_vec())))
            .unwrap();
        assert_eq!(snapshot.len(), 20);
        for (i, (id, words)) in snapshot.iter().enumerate() {
            assert_eq!((*id, &words[..]), (i, tiny_state(i as i32).words()));
        }
        // Rollback path: push_front must come out first.
        let state = tiny_state(99);
        frontier.push_front(99, state.words(), state.content_hash());
        let mut seen = Vec::new();
        while let Some(id) = pop(&mut frontier) {
            seen.push(id);
        }
        let expected: Vec<usize> = std::iter::once(99).chain(0..20).collect();
        assert_eq!(seen, expected);
        assert_eq!(frontier.len(), 0);
        // Consumed chunks are deleted from disk.
        assert!(fs.list(Path::new("/spill")).unwrap().is_empty());
    }

    #[test]
    fn spill_frontier_chunks_are_runs_of_encoded_states() {
        let fs = Arc::new(SimFs::new(14));
        let mut frontier = SpillFrontier::new(fs.clone(), Path::new("/spill"), 1, 64).unwrap();
        push(&mut frontier, 3).unwrap();
        let chunk = fs.read(&frontier.chunk_path(0)).unwrap();
        let entry = RunEntry {
            key: 3,
            payload: crate::snapshot::encode_state(&tiny_state(3)),
        };
        assert_eq!(chunk, encode_run(&[entry]));
        assert_eq!(frontier.spill_bytes(), chunk.len());
    }

    #[test]
    fn spill_frontier_interleaves_pushes_and_pops() {
        let fs = Arc::new(SimFs::new(12));
        let mut frontier = SpillFrontier::new(fs, Path::new("/spill"), 100, 64).unwrap();
        let mut next_push = 0usize;
        let mut next_pop = 0usize;
        for round in 0..50 {
            for _ in 0..=(round % 3) {
                push(&mut frontier, next_push).unwrap();
                next_push += 1;
            }
            if round % 2 == 0 {
                assert_eq!(pop(&mut frontier), Some(next_pop), "FIFO order broken");
                next_pop += 1;
            }
        }
        while let Some(id) = pop(&mut frontier) {
            assert_eq!(id, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push);
    }

    #[test]
    fn constructor_wipes_stale_chunks() {
        let fs = Arc::new(SimFs::new(13));
        {
            let mut old = SpillFrontier::new(fs.clone(), Path::new("/spill"), 1, 64).unwrap();
            push(&mut old, 0).unwrap();
            assert!(!fs.list(Path::new("/spill")).unwrap().is_empty());
        }
        let fresh = SpillFrontier::new(fs.clone(), Path::new("/spill"), 1, 64).unwrap();
        assert_eq!(fresh.len(), 0);
        assert!(fs.list(Path::new("/spill")).unwrap().is_empty());
    }
}
