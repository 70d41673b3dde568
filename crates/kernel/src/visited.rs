//! Visited-set backends for the safety search: exact, hash-compaction,
//! bitstate (multi-hash Bloom filter), and disk-backed exact.
//!
//! The exact backend is today's behavior: every state is stored, membership
//! is precise, and memory grows linearly with the payload size. The two
//! lossy backends trade completeness for memory, exactly as SPIN's
//! `-DCOLLAPSE`-free hash compaction and `-DBITSTATE` modes do:
//!
//! * **Compact** stores one 64-bit hash per state (~16 bytes each
//!   regardless of payload size). Two distinct states colliding on the full
//!   64-bit hash causes one of them to be treated as already visited — an
//!   *omission*, never a false alarm.
//! * **Bitstate** stores `k` bits per state in a fixed-size bit arena, so
//!   memory is *constant* no matter how many states the search reaches.
//!   Collision probability rises smoothly as the arena fills.
//!
//! Lossy backends can only ever *omit* states (a hash collision makes a new
//! state look visited). Omission can hide a violation, so a completed lossy
//! search weakens `Holds` to `HoldsApprox` with the estimated per-state
//! omission probability; and because the search's bookkeeping (parent
//! links) is hash-indexed too, any violation found under a lossy backend is
//! re-validated by exact replay before being reported.
//!
//! The fourth backend, [`DiskExactVisited`], is *exact but out-of-core*:
//! full state payloads live in hash-partitioned, write-buffered,
//! checksummed run files on a [`Vfs`](crate::vfs::Vfs), with an in-RAM
//! Bloom front so negative probes never touch the disk. Membership is
//! precise, so it never weakens a verdict — it trades I/O for RAM.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::PathBuf;

use crate::arena::{Interned, StateArena};
use crate::extmem::{decode_run, encode_run, index_run, merge_runs, RunEntry};
use crate::rng::SplitMix64;
use crate::snapshot::{append_words, encode_words_into, encoded_words_len};
use crate::state::{words_hash, State};
use crate::vfs::{commit_replace, VfsHandle};

/// Seed for the deterministic hash family used by the lossy backends.
/// Derived hashes must be stable across runs so that a resumed search
/// agrees with the snapshot it came from.
const HASH_FAMILY_SEED: u64 = 0xb175_7a7e_5eed_0001;

/// Number of on-disk partitions in [`DiskExactVisited`]. A power of two
/// so the partition index is a mask of the state's carried hash.
const DISK_PARTITIONS: usize = 16;

/// How many runs a partition accumulates before they are merge-compacted
/// into one.
const DISK_MAX_RUNS: usize = 8;

/// Which visited-set backend the safety search uses.
///
/// Selected via [`crate::SearchConfig::visited`]; the default is
/// [`VisitedKind::Exact`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VisitedKind {
    /// Store every state; precise membership (today's behavior).
    #[default]
    Exact,
    /// Store a 64-bit hash per state (SPIN-style hash compaction).
    Compact,
    /// Store `hashes` bits per state in a fixed arena of `arena_bytes`
    /// bytes (SPIN-style bitstate hashing / Bloom filter).
    Bitstate {
        /// Size of the bit arena in bytes. Rounded up to a whole number of
        /// 64-bit words; must be nonzero.
        arena_bytes: usize,
        /// Number of hash functions (bits set per state), at least 1.
        hashes: u32,
    },
    /// Store every state payload in checksummed on-disk partitions with a
    /// RAM Bloom front; precise membership with bounded RAM
    /// ([`DiskExactVisited`]).
    DiskExact,
}

impl VisitedKind {
    /// Default bitstate arena: 64 MiB (≈ 5.4 × 10⁸ bits).
    pub const DEFAULT_BITSTATE_ARENA: usize = 64 << 20;
    /// Default number of bitstate hash functions.
    pub const DEFAULT_BITSTATE_HASHES: u32 = 3;

    /// A bitstate backend with the given arena size and the default number
    /// of hash functions.
    pub fn bitstate(arena_bytes: usize) -> VisitedKind {
        VisitedKind::Bitstate {
            arena_bytes,
            hashes: VisitedKind::DEFAULT_BITSTATE_HASHES,
        }
    }

    /// Whether this backend can omit states (and therefore weakens a
    /// completed search's verdict to approximate).
    pub fn is_lossy(&self) -> bool {
        !matches!(self, VisitedKind::Exact | VisitedKind::DiskExact)
    }
}

impl fmt::Display for VisitedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VisitedKind::Exact => write!(f, "exact"),
            VisitedKind::Compact => write!(f, "hash-compact (64-bit)"),
            VisitedKind::Bitstate {
                arena_bytes,
                hashes,
            } => write!(
                f,
                "bitstate ({} KiB arena, {hashes} hashes)",
                arena_bytes / 1024
            ),
            VisitedKind::DiskExact => write!(f, "disk-exact"),
        }
    }
}

/// What an `insert_if_new` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The state was new and is now a member.
    Inserted,
    /// The state was already a member (or, for a lossy backend, collided
    /// with one); nothing was allocated and the budget is untouched.
    Duplicate,
    /// The state was new but the budget cap is reached; nothing was
    /// inserted.
    BudgetExhausted,
}

/// A set of visited states, with backend-specific precision and cost.
///
/// Implemented by [`ExactVisited`], [`CompactVisited`], [`BitstateVisited`]
/// and [`DiskExactVisited`]; the safety search is generic over this trait.
pub trait VisitedSet {
    /// Whether `state` is (believed to be) already visited. Lossy backends
    /// may return `true` for a state never inserted (a collision), never
    /// `false` for one that was.
    fn contains(&self, state: &State) -> bool;

    /// Interns `state` unless it is (believed to be) a member already.
    /// `room` says whether the state budget can take one more state;
    /// without it a new state is refused. The state is borrowed —
    /// typically a reused scratch buffer — and copied only when it is new
    /// and the backend keeps states.
    fn insert_if_new(&mut self, state: &State, room: bool) -> Insert {
        if self.contains(state) {
            return Insert::Duplicate;
        }
        if !room {
            return Insert::BudgetExhausted;
        }
        self.intern(state);
        Insert::Inserted
    }

    /// Records `state`, which is not a member yet. Called by
    /// `insert_if_new` after the probe and the budget check.
    fn intern(&mut self, state: &State);

    /// Number of states inserted.
    fn len(&self) -> usize;

    /// Whether no state has been inserted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory held by the backend, in bytes.
    fn approx_bytes(&self) -> usize;

    /// The backend's kind (and parameters).
    fn kind(&self) -> VisitedKind;

    /// Estimated probability that a *new* distinct state would collide with
    /// the current contents and be wrongly treated as visited. Zero for the
    /// exact backend.
    fn omission_probability(&self) -> f64;
}

/// The precise backend: every state is stored, as a row of a
/// [`StateArena`] whose row ids are the states' discovery indexes. One
/// probe decides membership and appends a new state.
///
/// Rows have one width, fixed by the first state inserted: every state of
/// one program has its layout's width. Inserting a new state of another
/// width panics.
pub struct ExactVisited {
    arena: StateArena,
    per_state_bytes: usize,
}

impl ExactVisited {
    /// An empty exact set; `per_state_bytes` is the caller's estimate of
    /// the full cost of one stored state (payload plus container overhead).
    pub fn new(per_state_bytes: usize) -> ExactVisited {
        ExactVisited::from_arena(StateArena::new(), per_state_bytes)
    }

    /// The set of the states in `arena`.
    pub(crate) fn from_arena(arena: StateArena, per_state_bytes: usize) -> ExactVisited {
        ExactVisited {
            arena,
            per_state_bytes,
        }
    }

    /// The stored states, by discovery index.
    pub(crate) fn arena(&self) -> &StateArena {
        &self.arena
    }
}

impl VisitedSet for ExactVisited {
    fn contains(&self, state: &State) -> bool {
        self.arena.find(state).is_some()
    }

    fn insert_if_new(&mut self, state: &State, room: bool) -> Insert {
        match self.arena.intern(state, |_| room) {
            Interned::Old(_) => Insert::Duplicate,
            Interned::New(_) => Insert::Inserted,
            Interned::Refused => Insert::BudgetExhausted,
        }
    }

    fn intern(&mut self, state: &State) {
        self.arena.intern(state, |_| true);
    }

    fn len(&self) -> usize {
        self.arena.len()
    }

    fn approx_bytes(&self) -> usize {
        self.arena.len() * self.per_state_bytes
    }

    fn kind(&self) -> VisitedKind {
        VisitedKind::Exact
    }

    fn omission_probability(&self) -> f64 {
        0.0
    }
}

/// Hash compaction: one 64-bit hash per state.
pub struct CompactVisited {
    hashes: HashSet<u64>,
    seed: u64,
}

impl CompactVisited {
    /// An empty compacted set.
    pub fn new() -> CompactVisited {
        let mut family = SplitMix64::seed_from_u64(HASH_FAMILY_SEED);
        CompactVisited {
            hashes: HashSet::new(),
            seed: family.next_u64(),
        }
    }

    /// Rebuilds the set from a snapshot payload.
    pub(crate) fn from_hashes(hashes: impl IntoIterator<Item = u64>) -> CompactVisited {
        let mut set = CompactVisited::new();
        set.hashes.extend(hashes);
        set
    }

    /// The stored hashes, for snapshotting (sorted for determinism).
    pub(crate) fn snapshot_hashes(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.hashes.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

impl Default for CompactVisited {
    fn default() -> Self {
        CompactVisited::new()
    }
}

impl VisitedSet for CompactVisited {
    fn contains(&self, state: &State) -> bool {
        self.hashes.contains(&words_hash(state.words(), self.seed))
    }

    fn intern(&mut self, state: &State) {
        self.hashes.insert(words_hash(state.words(), self.seed));
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn approx_bytes(&self) -> usize {
        // 8 bytes of hash plus ~8 bytes of HashSet overhead per entry.
        self.hashes.len() * 16
    }

    fn kind(&self) -> VisitedKind {
        VisitedKind::Compact
    }

    fn omission_probability(&self) -> f64 {
        // A new state collides if its 64-bit hash equals any of the n
        // stored ones: p ≈ n / 2^64.
        self.hashes.len() as f64 / 2f64.powi(64)
    }
}

/// Bitstate hashing: `k` bits per state in a fixed arena (Bloom filter).
pub struct BitstateVisited {
    arena: Vec<u64>,
    bits: u64,
    hashes: u32,
    inserted: usize,
    arena_bytes: usize,
    seed1: u64,
    seed2: u64,
}

impl BitstateVisited {
    /// An empty arena of (at least) `arena_bytes` bytes using `hashes` hash
    /// functions per state. The hash family is seeded from the workspace's
    /// [`SplitMix64`] so it is stable across checkpoint/resume.
    pub fn new(arena_bytes: usize, hashes: u32) -> BitstateVisited {
        let arena_bytes = arena_bytes.max(8);
        let hashes = hashes.max(1);
        let words = arena_bytes.div_ceil(8);
        let mut family = SplitMix64::seed_from_u64(HASH_FAMILY_SEED);
        // Burn the compact backend's seed so the two backends use
        // independent hash functions.
        let _compact_seed = family.next_u64();
        BitstateVisited {
            arena: vec![0u64; words],
            bits: (words as u64) * 64,
            hashes,
            inserted: 0,
            arena_bytes,
            seed1: family.next_u64(),
            seed2: family.next_u64(),
        }
    }

    /// Rebuilds the arena from a snapshot payload.
    pub(crate) fn from_arena(
        arena_bytes: usize,
        hashes: u32,
        arena: Vec<u64>,
        inserted: usize,
    ) -> BitstateVisited {
        let mut set = BitstateVisited::new(arena_bytes, hashes);
        debug_assert_eq!(set.arena.len(), arena.len());
        set.arena = arena;
        set.inserted = inserted;
        set
    }

    /// The arena words and insert count, for snapshotting.
    pub(crate) fn snapshot_arena(&self) -> (&[u64], usize) {
        (&self.arena, self.inserted)
    }

    /// The `k` bit indices for a state's words (double hashing:
    /// `h1 + i·h2`).
    fn bit_indices(&self, words: &[i32]) -> impl Iterator<Item = u64> + use<> {
        let h1 = words_hash(words, self.seed1);
        let h2 = words_hash(words, self.seed2) | 1; // odd: full period
        let bits = self.bits;
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % bits)
    }

    /// Sets the bits of the state with these words, counting it when any
    /// bit was still clear.
    fn set_bits(&mut self, words: &[i32]) {
        let mut fresh = false;
        for bit in self.bit_indices(words) {
            let word = &mut self.arena[(bit / 64) as usize];
            let mask = 1u64 << (bit % 64);
            fresh |= *word & mask == 0;
            *word |= mask;
        }
        if fresh {
            self.inserted += 1;
        }
    }
}

impl VisitedSet for BitstateVisited {
    fn contains(&self, state: &State) -> bool {
        self.bit_indices(state.words())
            .all(|bit| self.arena[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    fn intern(&mut self, state: &State) {
        self.set_bits(state.words());
    }

    fn len(&self) -> usize {
        self.inserted
    }

    fn approx_bytes(&self) -> usize {
        self.arena.len() * 8
    }

    fn kind(&self) -> VisitedKind {
        VisitedKind::Bitstate {
            arena_bytes: self.arena_bytes,
            hashes: self.hashes,
        }
    }

    fn omission_probability(&self) -> f64 {
        bloom_omission_probability(self.bits, self.hashes, self.inserted)
    }
}

/// The standard Bloom-filter false-positive estimate for `m` bits, `k`
/// hash functions, and `n` inserted elements: `(1 − e^(−k·n/m))^k`.
///
/// This is the probability that a new distinct state maps onto `k` bits
/// that are all already set — i.e. the chance it is wrongly skipped.
pub fn bloom_omission_probability(m_bits: u64, k_hashes: u32, n_inserted: usize) -> f64 {
    if n_inserted == 0 {
        return 0.0;
    }
    let m = m_bits as f64;
    let k = f64::from(k_hashes);
    let n = n_inserted as f64;
    (1.0 - (-k * n / m).exp()).powf(k)
}

/// The exact backend, out-of-core: full state payloads in checksummed
/// `PNPRUN03` partitions on a [`Vfs`](crate::vfs::Vfs), fronted in RAM by
/// a Bloom filter (negative probes are free), per-partition write
/// buffers, and a sorted 8-byte-per-state hash index over each run.
///
/// Membership is *precise*: the disk stores full payloads, so a hash
/// collision costs an extra payload comparison, never an omission. RAM
/// stays bounded by the Bloom arena + write buffers + run indexes — the
/// payloads themselves (the dominant cost of [`ExactVisited`]) live on
/// disk. Every run commits through
/// [`commit_replace`](crate::vfs::commit_replace), so a crash can never
/// leave a torn run behind.
///
/// The [`VisitedSet`] trait has no fallible methods, so I/O failures are
/// parked in a pending slot: `contains` conservatively answers "new"
/// (re-expansion is sound for an exact backend), `insert_if_new` refuses
/// to intern while an error is pending, and the explorer drains the slot
/// via [`DiskExactVisited::take_error`] and degrades gracefully (ENOSPC
/// trips the memory budget; anything else aborts the attempt as
/// transient).
pub struct DiskExactVisited {
    vfs: VfsHandle,
    dir: PathBuf,
    bloom: BitstateVisited,
    parts: Vec<DiskPartition>,
    buf_cap: usize,
    len: usize,
    spilled_states: usize,
    spill_bytes: usize,
    merge_passes: usize,
    pending: RefCell<Option<io::Error>>,
    /// Boxed, so the disk variant of `AnyVisited` stays near the others'
    /// size.
    cache: RefCell<Option<Box<CachedRun>>>,
    /// The probed state's encoding, reused across probes.
    scratch: RefCell<Vec<u8>>,
}

/// The single-run read cache: one run file's verified bytes and the
/// index of its entries, so a probe compares payloads in place.
struct CachedRun {
    part: usize,
    seq: u64,
    bytes: Vec<u8>,
    index: Vec<(u64, Range<usize>)>,
}

#[derive(Default)]
struct DiskPartition {
    /// Write buffer: state hash → the payloads of buffered states with
    /// that hash (almost always one).
    buf: HashMap<u64, Vec<Vec<u8>>>,
    buf_bytes: usize,
    runs: Vec<DiskRun>,
    next_run: u64,
}

struct DiskRun {
    seq: u64,
    /// Sorted state hashes of the run's entries: the in-RAM index that
    /// decides (by binary search) whether a probe must read the file.
    hashes: Vec<u64>,
}

impl DiskExactVisited {
    /// Default per-partition write-buffer capacity (bytes).
    pub const DEFAULT_BUF_CAP: usize = 256 << 10;
    /// Default Bloom-front arena size (bytes).
    pub const DEFAULT_BLOOM_BYTES: usize = 4 << 20;

    /// An empty disk-backed set storing runs under `dir` (created if
    /// missing; stale run files from a previous search are wiped).
    /// `buf_cap` bounds each partition's write buffer and `bloom_bytes`
    /// sizes the Bloom front.
    ///
    /// # Errors
    ///
    /// Returns the error when the directory cannot be prepared.
    pub fn new(
        vfs: VfsHandle,
        dir: impl Into<PathBuf>,
        buf_cap: usize,
        bloom_bytes: usize,
    ) -> io::Result<DiskExactVisited> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        for path in vfs.list(&dir)? {
            if path.extension().is_some_and(|e| e == "pnprun") {
                vfs.remove(&path)?;
            }
        }
        Ok(DiskExactVisited {
            vfs,
            dir,
            bloom: BitstateVisited::new(bloom_bytes, 3),
            parts: (0..DISK_PARTITIONS)
                .map(|_| DiskPartition::default())
                .collect(),
            buf_cap: buf_cap.max(1),
            len: 0,
            spilled_states: 0,
            spill_bytes: 0,
            merge_passes: 0,
            pending: RefCell::new(None),
            cache: RefCell::new(None),
            scratch: RefCell::new(Vec::new()),
        })
    }

    /// States written to run files so far (cumulative, counting rewrites
    /// by compaction once — see [`DiskExactVisited::merge_passes`]).
    pub fn spilled_states(&self) -> usize {
        self.spilled_states
    }

    /// Bytes written to run files so far (cumulative, including
    /// compaction rewrites).
    pub fn spill_bytes(&self) -> usize {
        self.spill_bytes
    }

    /// Merge-compaction passes performed so far.
    pub fn merge_passes(&self) -> usize {
        self.merge_passes
    }

    /// Zeroes the spill counters. Used after a resume rebuild, where the
    /// snapshot already carries the uninterrupted totals.
    pub(crate) fn reset_spill_counters(&mut self) {
        self.spilled_states = 0;
        self.spill_bytes = 0;
        self.merge_passes = 0;
    }

    /// Takes the first I/O error recorded by an infallible trait method
    /// since the last call. The set stays consistent after an error (a
    /// failed flush keeps its states buffered), so the caller chooses
    /// between degrading and aborting.
    pub(crate) fn take_error(&mut self) -> Option<io::Error> {
        self.pending.get_mut().take()
    }

    fn record_error(&self, error: io::Error) {
        let mut pending = self.pending.borrow_mut();
        if pending.is_none() {
            *pending = Some(error);
        }
    }

    fn run_path(&self, part: usize, seq: u64) -> PathBuf {
        self.dir.join(format!("part{part:02}-run{seq:08}.pnprun"))
    }

    /// Whether `payload` is in the run file, consulting (and refilling)
    /// the single-run read cache.
    fn probe_run(&self, part: usize, seq: u64, hash: u64, payload: &[u8]) -> io::Result<bool> {
        let mut cache = self.cache.borrow_mut();
        let cached = matches!(&*cache, Some(run) if run.part == part && run.seq == seq);
        if !cached {
            let bytes = self.vfs.read(&self.run_path(part, seq))?;
            let index = index_run(&bytes)?;
            *cache = Some(Box::new(CachedRun {
                part,
                seq,
                bytes,
                index,
            }));
        }
        let run = cache.as_ref().expect("cache just filled");
        let start = run.index.partition_point(|(key, _)| *key < hash);
        Ok(run.index[start..]
            .iter()
            .take_while(|(key, _)| *key == hash)
            .any(|(_, range)| run.bytes[range.clone()] == *payload))
    }

    /// Writes partition `part`'s buffer out as a new sorted run. On error
    /// the buffer is untouched, so no state is lost.
    fn flush_partition(&mut self, part: usize) -> io::Result<()> {
        if self.parts[part].buf.is_empty() {
            return Ok(());
        }
        let mut entries: Vec<RunEntry> = self.parts[part]
            .buf
            .iter()
            .flat_map(|(&key, payloads)| {
                payloads.iter().map(move |payload| RunEntry {
                    key,
                    payload: payload.clone(),
                })
            })
            .collect();
        // Hash-map iteration order is arbitrary; sorting makes the run
        // bytes (and thus the whole disk-op sequence) deterministic.
        entries.sort_unstable();
        let bytes = encode_run(&entries);
        let seq = self.parts[part].next_run;
        commit_replace(self.vfs.as_ref(), &self.run_path(part, seq), &bytes)?;
        let slot = &mut self.parts[part];
        slot.runs.push(DiskRun {
            seq,
            hashes: entries.iter().map(|e| e.key).collect(),
        });
        slot.next_run = seq + 1;
        slot.buf.clear();
        slot.buf_bytes = 0;
        self.spilled_states += entries.len();
        self.spill_bytes += bytes.len();
        if self.parts[part].runs.len() >= DISK_MAX_RUNS {
            self.compact(part)?;
        }
        Ok(())
    }

    /// Adds the state with these words and carried hash, known not to be
    /// a member, without probing (interning a new state, rebuilding from a
    /// snapshot, or moving an exact set out of core). A failed flush is
    /// parked like every other I/O error.
    pub(crate) fn insert_new(&mut self, words: &[i32], hash: u64) {
        self.bloom.set_bits(words);
        let part = hash as usize & (DISK_PARTITIONS - 1);
        let mut payload = Vec::with_capacity(encoded_words_len(words.len()));
        append_words(words, &mut payload);
        let slot = &mut self.parts[part];
        slot.buf_bytes += payload.len() + 24;
        slot.buf.entry(hash).or_default().push(payload);
        self.len += 1;
        if self.parts[part].buf_bytes >= self.buf_cap {
            if let Err(e) = self.flush_partition(part) {
                self.record_error(e);
            }
        }
    }

    /// Merge-compacts all of partition `part`'s runs into one. On error
    /// the old runs (files and metadata) remain authoritative.
    fn compact(&mut self, part: usize) -> io::Result<()> {
        let seqs: Vec<u64> = self.parts[part].runs.iter().map(|r| r.seq).collect();
        let mut runs = Vec::with_capacity(seqs.len());
        for &seq in &seqs {
            runs.push(decode_run(&self.vfs.read(&self.run_path(part, seq))?)?);
        }
        let merged = merge_runs(runs);
        let bytes = encode_run(&merged);
        let seq = self.parts[part].next_run;
        commit_replace(self.vfs.as_ref(), &self.run_path(part, seq), &bytes)?;
        *self.cache.get_mut() = None;
        for &old in &seqs {
            let _ = self.vfs.remove(&self.run_path(part, old));
        }
        let slot = &mut self.parts[part];
        slot.runs = vec![DiskRun {
            seq,
            hashes: merged.iter().map(|e| e.key).collect(),
        }];
        slot.next_run = seq + 1;
        self.merge_passes += 1;
        self.spill_bytes += bytes.len();
        Ok(())
    }
}

impl VisitedSet for DiskExactVisited {
    fn contains(&self, state: &State) -> bool {
        if !self.bloom.contains(state) {
            return false;
        }
        let hash = state.content_hash();
        let part = hash as usize & (DISK_PARTITIONS - 1);
        let mut payload = self.scratch.borrow_mut();
        encode_words_into(state.words(), &mut payload);
        if let Some(candidates) = self.parts[part].buf.get(&hash) {
            if candidates.contains(&*payload) {
                return true;
            }
        }
        for run in self.parts[part].runs.iter().rev() {
            if run.hashes.binary_search(&hash).is_err() {
                continue;
            }
            match self.probe_run(part, run.seq, hash, &payload) {
                Ok(true) => return true,
                Ok(false) => {}
                Err(e) => {
                    // Conservative: treat the state as new. Re-expansion
                    // is sound for an exact backend, and the explorer
                    // picks the error up before its next flush.
                    self.record_error(e);
                    return false;
                }
            }
        }
        false
    }

    /// A failed probe — or an error still pending from an earlier flush —
    /// answers [`Insert::Duplicate`] without inserting: a conservative
    /// "new" could double-count the state. The caller then drains the
    /// error with [`DiskExactVisited::take_error`].
    fn insert_if_new(&mut self, state: &State, room: bool) -> Insert {
        if self.contains(state) || self.pending.get_mut().is_some() {
            return Insert::Duplicate;
        }
        if !room {
            return Insert::BudgetExhausted;
        }
        self.intern(state);
        Insert::Inserted
    }

    fn intern(&mut self, state: &State) {
        self.insert_new(state.words(), state.content_hash());
    }

    fn len(&self) -> usize {
        self.len
    }

    fn approx_bytes(&self) -> usize {
        // Only what actually sits in RAM: the Bloom arena, the write
        // buffers, and the per-run hash indexes. Spilled payloads are
        // the disk's problem (tracked by `spill_bytes`).
        self.bloom.approx_bytes()
            + self
                .parts
                .iter()
                .map(|p| {
                    p.buf_bytes
                        + p.runs
                            .iter()
                            .map(|r| r.hashes.len() * 8 + 48)
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    fn kind(&self) -> VisitedKind {
        VisitedKind::DiskExact
    }

    fn omission_probability(&self) -> f64 {
        0.0
    }
}

/// The concrete backend held by the explorer (avoids `dyn` so snapshots can
/// extract backend payloads without downcasting).
pub(crate) enum AnyVisited {
    Exact(ExactVisited),
    Compact(CompactVisited),
    Bitstate(BitstateVisited),
    Disk(DiskExactVisited),
}

impl AnyVisited {
    pub(crate) fn new(kind: VisitedKind, per_state_bytes: usize) -> AnyVisited {
        match kind {
            VisitedKind::Exact => AnyVisited::Exact(ExactVisited::new(per_state_bytes)),
            VisitedKind::Compact => AnyVisited::Compact(CompactVisited::new()),
            VisitedKind::Bitstate {
                arena_bytes,
                hashes,
            } => AnyVisited::Bitstate(BitstateVisited::new(arena_bytes, hashes)),
            VisitedKind::DiskExact => {
                unreachable!("the disk backend is constructed by the explorer with its storage")
            }
        }
    }

    fn inner(&self) -> &dyn VisitedSet {
        match self {
            AnyVisited::Exact(s) => s,
            AnyVisited::Compact(s) => s,
            AnyVisited::Bitstate(s) => s,
            AnyVisited::Disk(s) => s,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn VisitedSet {
        match self {
            AnyVisited::Exact(s) => s,
            AnyVisited::Compact(s) => s,
            AnyVisited::Bitstate(s) => s,
            AnyVisited::Disk(s) => s,
        }
    }
}

impl VisitedSet for AnyVisited {
    fn contains(&self, state: &State) -> bool {
        self.inner().contains(state)
    }

    /// Dispatched statically: this is the search's per-successor call.
    fn insert_if_new(&mut self, state: &State, room: bool) -> Insert {
        match self {
            AnyVisited::Exact(s) => s.insert_if_new(state, room),
            AnyVisited::Compact(s) => s.insert_if_new(state, room),
            AnyVisited::Bitstate(s) => s.insert_if_new(state, room),
            AnyVisited::Disk(s) => s.insert_if_new(state, room),
        }
    }

    fn intern(&mut self, state: &State) {
        self.inner_mut().intern(state)
    }

    fn len(&self) -> usize {
        self.inner().len()
    }

    fn approx_bytes(&self) -> usize {
        self.inner().approx_bytes()
    }

    fn kind(&self) -> VisitedKind {
        self.inner().kind()
    }

    fn omission_probability(&self) -> f64 {
        self.inner().omission_probability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, Guard, ProcessBuilder, ProgramBuilder};
    use crate::state::State;
    use crate::vfs::Vfs;
    use std::sync::Arc;

    fn two_states() -> (State, State) {
        let chain = state_chain(2);
        let mut it = chain.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    }

    /// The first `n` states of an unbounded counter program (all
    /// pairwise distinct).
    fn state_chain(n: usize) -> Vec<State> {
        let mut prog = ProgramBuilder::new();
        let g = prog.global("g", 0);
        let mut p = ProcessBuilder::new("p");
        let s0 = p.location("s0");
        p.transition(
            s0,
            s0,
            Guard::always(),
            Action::assign(g, crate::expression::expr::global(g) + 1.into()),
            "bump",
        );
        prog.add_process(p).unwrap();
        let program = prog.build().unwrap();
        let mut states = vec![State::initial(&program)];
        while states.len() < n {
            let last = states.last().unwrap();
            let step = crate::state::enabled_steps(&program, last).unwrap()[0];
            states.push(
                crate::state::apply_step(&program, last, step)
                    .unwrap()
                    .state,
            );
        }
        states
    }

    #[test]
    fn state_hash_distinguishes_states_and_seeds() {
        let (a, b) = two_states();
        assert_ne!(words_hash(a.words(), 1), words_hash(b.words(), 1));
        assert_ne!(words_hash(a.words(), 1), words_hash(a.words(), 2));
        assert_eq!(words_hash(a.words(), 7), words_hash(a.words(), 7));
    }

    #[test]
    fn every_backend_remembers_inserted_states() {
        let (a, b) = two_states();
        let backends: Vec<Box<dyn VisitedSet>> = vec![
            Box::new(ExactVisited::new(128)),
            Box::new(CompactVisited::new()),
            Box::new(BitstateVisited::new(1024, 3)),
            Box::new(
                DiskExactVisited::new(
                    Arc::new(crate::vfs::SimFs::new(21)),
                    std::path::Path::new("/visited"),
                    1 << 20,
                    1024,
                )
                .unwrap(),
            ),
        ];
        for mut set in backends {
            assert!(!set.contains(&a), "{} starts empty", set.kind());
            assert_eq!(set.insert_if_new(&a, true), Insert::Inserted);
            assert!(set.contains(&a), "{} remembers inserts", set.kind());
            assert_eq!(set.insert_if_new(&a, true), Insert::Duplicate);
            assert!(!set.contains(&b), "{} distinguishes states", set.kind());
            assert_eq!(set.insert_if_new(&b, false), Insert::BudgetExhausted);
            assert!(!set.contains(&b), "{} refuses past the budget", set.kind());
            assert_eq!(set.insert_if_new(&b, true), Insert::Inserted);
            assert_eq!(set.len(), 2, "{} counts inserts", set.kind());
            assert!(set.approx_bytes() > 0);
        }
    }

    #[test]
    fn exact_backend_reports_zero_omission() {
        let (a, _) = two_states();
        let mut set = ExactVisited::new(128);
        set.insert_if_new(&a, true);
        assert_eq!(set.omission_probability(), 0.0);
        assert!(!set.kind().is_lossy());
    }

    #[test]
    fn lossy_omission_probabilities_are_small_but_positive() {
        let (a, b) = two_states();
        let mut compact = CompactVisited::new();
        compact.insert_if_new(&a, true);
        let p = compact.omission_probability();
        assert!(p > 0.0 && p < 1e-15, "compact omission {p}");

        let mut bitstate = BitstateVisited::new(1024, 3);
        bitstate.insert_if_new(&a, true);
        bitstate.insert_if_new(&b, true);
        let p = bitstate.omission_probability();
        assert!(p > 0.0 && p < 1e-3, "bitstate omission {p}");
        assert_eq!(p, bloom_omission_probability(1024 * 8, 3, 2));
    }

    #[test]
    fn bitstate_arena_is_constant_size() {
        let (a, b) = two_states();
        let mut set = BitstateVisited::new(4096, 2);
        let before = set.approx_bytes();
        set.insert_if_new(&a, true);
        set.insert_if_new(&b, true);
        assert_eq!(set.approx_bytes(), before);
        assert!(before >= 4096);
    }

    #[test]
    fn disk_exact_spills_compacts_and_stays_precise() {
        let fs = Arc::new(crate::vfs::SimFs::new(22));
        // 1-byte buffer cap: every insert flushes a single-entry run, so
        // 200 states across 16 partitions force several compactions.
        let mut set =
            DiskExactVisited::new(fs.clone(), std::path::Path::new("/visited"), 1, 4096).unwrap();
        let chain = state_chain(201);
        for state in &chain[..200] {
            assert!(!set.contains(state), "state not yet inserted");
            set.insert_if_new(state, true);
        }
        for state in &chain[..200] {
            assert!(set.contains(state), "spilled state must stay a member");
        }
        assert!(!set.contains(&chain[200]), "fresh state must look new");
        assert_eq!(set.len(), 200);
        assert!(set.spilled_states() >= 200, "{}", set.spilled_states());
        assert!(set.spill_bytes() > 0);
        assert!(set.merge_passes() >= 1, "compaction never ran");
        assert!(set.take_error().is_none());
        assert_eq!(set.omission_probability(), 0.0);
        assert!(!set.kind().is_lossy());
        // Compaction deletes superseded runs: at most DISK_MAX_RUNS
        // files per partition remain.
        let files = fs.list(std::path::Path::new("/visited")).unwrap();
        assert!(files.len() <= DISK_PARTITIONS * DISK_MAX_RUNS, "{files:?}");
    }

    #[test]
    fn disk_exact_parks_write_errors_and_keeps_states_buffered() {
        let fs = Arc::new(crate::vfs::SimFs::new(23));
        let mut set =
            DiskExactVisited::new(fs.clone(), std::path::Path::new("/visited"), 1, 4096).unwrap();
        fs.set_plan(crate::vfs::FaultPlan {
            enospc_per_mille: 1000,
            ..crate::vfs::FaultPlan::default()
        });
        let (a, b) = two_states();
        set.insert_if_new(&a, true);
        let err = set.take_error().expect("full disk must surface");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(set.take_error().is_none(), "error is taken once");
        // The failed flush kept the state buffered: membership intact.
        assert!(set.contains(&a));
        assert!(!set.contains(&b));
        assert_eq!(set.len(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The disk set agrees with a `BTreeSet` model under random
        /// inserts and probes, across many runs, 8-run compactions and
        /// read-cache misses in every partition; and a run damaged on disk
        /// makes its next miss answer "new" with a parked `InvalidData`
        /// error, never a wrong "present".
        #[test]
        fn disk_exact_agrees_with_a_set_model(
            pool in proptest::collection::vec(
                proptest::collection::vec(-4i32..5, 1..5),
                150..400,
            ),
            ops in proptest::collection::vec((0usize..10_000, 0u8..3), 300..800),
            victim in 0usize..10_000,
            flip in 0usize..100_000,
        ) {
            let states: Vec<State> = pool
                .iter()
                .map(|words| State::from_words(words.clone().into_boxed_slice()))
                .collect();
            let fs = Arc::new(crate::vfs::SimFs::new(24));
            let dir = std::path::Path::new("/visited");
            // A 1-byte buffer cap: every insert flushes a run of its own.
            let mut set = DiskExactVisited::new(fs.clone(), dir, 1, 4096).unwrap();
            let mut model = std::collections::BTreeSet::new();
            for &(pick, op) in &ops {
                let i = pick % pool.len();
                if op == 0 {
                    proptest::prop_assert_eq!(set.contains(&states[i]), model.contains(&pool[i]));
                } else {
                    let inserted = matches!(set.insert_if_new(&states[i], true), Insert::Inserted);
                    proptest::prop_assert_eq!(inserted, model.insert(pool[i].clone()));
                }
                proptest::prop_assert!(set.take_error().is_none());
            }
            proptest::prop_assert_eq!(set.len(), model.len());
            if set.len() > DISK_PARTITIONS * (DISK_MAX_RUNS - 1) {
                // Some partition must have reached DISK_MAX_RUNS runs.
                proptest::prop_assert!(set.merge_passes() >= 1);
            }

            // Damage one run file, after noting a member it holds.
            let mut runs = fs.list(dir).unwrap();
            runs.sort();
            let victim = runs.remove(victim % runs.len());
            let mut bytes = fs.read(&victim).unwrap();
            let member = decode_run(&bytes).unwrap()[0].payload.clone();
            let member = crate::snapshot::decode_state(&member).unwrap();
            let byte = flip / 8 % bytes.len();
            bytes[byte] ^= 1 << (flip % 8);
            fs.write(&victim, &bytes).unwrap();
            // Probing a member of another run first evicts the victim from
            // the read cache, so the next probe of it must read the file.
            if let Some(other) = runs.first() {
                let other = decode_run(&fs.read(other).unwrap()).unwrap()[0].payload.clone();
                let other = crate::snapshot::decode_state(&other).unwrap();
                proptest::prop_assert!(set.contains(&other));
                proptest::prop_assert!(set.take_error().is_none());
            }
            proptest::prop_assert!(!set.contains(&member), "damaged run answered present");
            let err = set.take_error().expect("the damaged run must park an error");
            proptest::prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn bloom_formula_matches_known_values() {
        assert_eq!(bloom_omission_probability(1000, 3, 0), 0.0);
        // m = 1000 bits, k = 1, n = 100: 1 − e^(−0.1) ≈ 0.09516.
        let p = bloom_omission_probability(1000, 1, 100);
        assert!((p - 0.095_162_58).abs() < 1e-6, "{p}");
        // Saturated arena: probability approaches 1.
        let p = bloom_omission_probability(64, 3, 1000);
        assert!(p > 0.99, "{p}");
    }
}
