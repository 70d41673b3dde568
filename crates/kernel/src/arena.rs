//! Fixed-width row stores for system states: an index-addressed arena of
//! interned states, and a FIFO of rows.
//!
//! Every state of one program has the same width (its layout's word
//! count), so the arena stores states as fixed-width `i32` rows, each with
//! the hash the state carried, and indexes them with an open-addressed
//! table of row ids tagged with hash bits. A state is named by its row id
//! from the moment it is interned; [`StateArena::intern`] decides with one
//! probe whether a state is present and appends it if it is not. Rows
//! live in pages of [`PAGE_ROWS`] rows, each allocated once at its full
//! size, so a growing arena adds pages and never moves (or copies) a row
//! it already holds.
//!
//! The sequential nested-DFS liveness search keeps its system states in an
//! arena, and so does the exact backend of the BFS safety search, whose
//! row ids are its state ids. [`RowQueue`] is the BFS frontier of the backends
//! that keep no states of their own (the lossy and disk ones).

use crate::snapshot::{decode_state_into, SnapshotError};
use crate::state::{state_hash, State};

/// A table slot holding no row.
const EMPTY: u64 = u64::MAX;

/// The most rows an arena holds: ids are `u32`, and a table entry whose id
/// half is `u32::MAX` is an empty slot.
pub(crate) const MAX_ROWS: usize = u32::MAX as usize;

/// Rows per page, a power of two so a row id splits into page and slot by
/// shift and mask. Small, so that a search of a few dozen states (a
/// service job) reserves little: a page of the fixed bridge is 32 KiB,
/// and 1,024-row pages raised the service benchmark's peak RSS by 7%.
const PAGE_ROWS: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 6;

/// Words a row takes before the state's words: its carried hash, low half
/// first. Kept in the row, a probe reads the hash and the words it then
/// compares from one place.
const HASH_WORDS: usize = 2;

/// Interned states of one program, addressed by dense `u32` ids in
/// interning order.
pub(crate) struct StateArena {
    /// Words per state, fixed by the first state appended.
    width: usize,
    /// The number of interned states.
    len: usize,
    /// Row `id` is row `id % PAGE_ROWS` of `pages[id / PAGE_ROWS]`: the
    /// state's hash and then its `width` words. Every page but the last
    /// is full.
    pages: Vec<Vec<i32>>,
    /// Open-addressed (linear probing) slots, a power of two in length
    /// and kept at most three quarters full. A slot holds a row id in its
    /// low half and the low 32 bits of the row's hash in its high half, so
    /// a probe passes over other rows without reading them, and the table
    /// grows without reading any row.
    table: Vec<u64>,
}

/// What [`StateArena::intern`] found.
pub(crate) enum Interned {
    /// The state was already present, with this id.
    Old(u32),
    /// The state was appended with this id.
    New(u32),
    /// The state is absent and `admit` refused it.
    Refused,
}

/// The hash bits a table entry keeps: the low half.
const TAG: u64 = 0xffff_ffff;

/// The first slot a row with this hash (or these tag bits) is probed at.
fn home(hash: u64, mask: usize) -> usize {
    (hash & TAG) as usize & mask
}

/// The carried hash at the start of a row.
fn row_hash(row: &[i32]) -> u64 {
    u64::from(row[0] as u32) | u64::from(row[1] as u32) << 32
}

impl StateArena {
    /// An empty arena. The first state appended fixes the width of every
    /// row.
    pub(crate) fn new() -> StateArena {
        StateArena {
            width: 0,
            len: 0,
            pages: Vec::new(),
            table: vec![EMPTY; 64],
        }
    }

    /// The number of interned states.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row `id`, hash included.
    fn full_row(&self, id: u32) -> &[i32] {
        let page = &self.pages[(id >> PAGE_SHIFT) as usize];
        let stride = HASH_WORDS + self.width;
        let start = (id as usize & (PAGE_ROWS - 1)) * stride;
        &page[start..start + stride]
    }

    /// The words of state `id`.
    pub(crate) fn row(&self, id: u32) -> &[i32] {
        &self.full_row(id)[HASH_WORDS..]
    }

    /// The carried hash of state `id`.
    pub(crate) fn hash(&self, id: u32) -> u64 {
        row_hash(self.full_row(id))
    }

    /// Overwrites `into` (a state of the same program) with state `id`.
    pub(crate) fn load(&self, id: u32, into: &mut State) {
        let row = self.full_row(id);
        into.load(&row[HASH_WORDS..], row_hash(row));
    }

    /// The id of `state`, if it is present.
    pub(crate) fn find(&self, state: &State) -> Option<u32> {
        self.probe(state.content_hash(), state.words()).ok()
    }

    /// The id of the row with these words and hash, or the empty table
    /// slot where it would go.
    fn probe(&self, hash: u64, words: &[i32]) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut slot = home(hash, mask);
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                return Err(slot);
            }
            if entry >> 32 == hash & TAG {
                let id = entry as u32;
                let row = self.full_row(id);
                if row_hash(row) == hash && &row[HASH_WORDS..] == words {
                    return Ok(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id of `state`. When it is absent, `admit` is asked (once,
    /// with the number of states held) whether it may be appended; the
    /// arena itself refuses past [`MAX_ROWS`].
    ///
    /// # Panics
    ///
    /// When `state` must be appended and its width differs from the
    /// first state's: a row of another width would shift every row after
    /// it.
    pub(crate) fn intern(&mut self, state: &State, admit: impl FnOnce(usize) -> bool) -> Interned {
        let hash = state.content_hash();
        let words = state.words();
        let slot = match self.probe(hash, words) {
            Ok(id) => return Interned::Old(id),
            Err(slot) => slot,
        };
        if self.len >= MAX_ROWS || !admit(self.len) {
            return Interned::Refused;
        }
        if self.len == 0 {
            self.width = words.len();
        }
        assert_eq!(
            words.len(),
            self.width,
            "every state of an arena has the same width"
        );
        let id = self.len as u32;
        self.table[slot] = (hash << 32) | u64::from(id);
        if self.len.is_multiple_of(PAGE_ROWS) {
            self.pages
                .push(Vec::with_capacity(PAGE_ROWS * (HASH_WORDS + self.width)));
        }
        let page = self.pages.last_mut().expect("a page was just ensured");
        page.extend_from_slice(&[hash as u32 as i32, (hash >> 32) as u32 as i32]);
        page.extend_from_slice(words);
        self.len += 1;
        if self.len * 4 > self.table.len() * 3 {
            self.grow();
        }
        Interned::New(id)
    }

    /// Doubles the table and re-places every entry by the hash bits it
    /// holds; no row is read.
    fn grow(&mut self) {
        let mut table = vec![EMPTY; self.table.len() * 2];
        let mask = table.len() - 1;
        for &entry in self.table.iter().filter(|&&entry| entry != EMPTY) {
            let mut slot = home(entry >> 32, mask);
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = entry;
        }
        self.table = table;
    }
}

/// Consumed rows a [`RowQueue`] keeps before it compacts.
const QUEUE_COMPACT_ROWS: usize = 1024;

/// A FIFO of fixed-width rows, each with the state's id and carried
/// hash, in three flat vectors. Popping advances a cursor; the consumed
/// prefix is dropped once it is at least half of what is held, so each
/// row is moved at most once more on average. A row pushed back to the
/// front after a pop reuses the slot the pop left.
#[derive(Debug, Default)]
pub(crate) struct RowQueue {
    /// Words per row, fixed by the first row pushed into an empty queue.
    width: usize,
    ids: Vec<usize>,
    hashes: Vec<u64>,
    words: Vec<i32>,
    /// Rows before `head` have been popped.
    head: usize,
}

impl RowQueue {
    pub(crate) fn new() -> RowQueue {
        RowQueue::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len() - self.head
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn row(&self, at: usize) -> &[i32] {
        &self.words[at * self.width..(at + 1) * self.width]
    }

    fn fix_width(&mut self, width: usize) {
        if self.ids.is_empty() {
            self.width = width;
        }
        debug_assert_eq!(width, self.width);
    }

    /// Appends a row.
    pub(crate) fn push_back(&mut self, id: usize, words: &[i32], hash: u64) {
        self.fix_width(words.len());
        self.ids.push(id);
        self.hashes.push(hash);
        self.words.extend_from_slice(words);
    }

    /// Appends a row from its snapshot-codec encoding, computing its hash.
    /// A malformed or mis-sized encoding leaves the queue unchanged.
    pub(crate) fn push_encoded(&mut self, id: usize, payload: &[u8]) -> Result<(), SnapshotError> {
        let start = self.words.len();
        decode_state_into(payload, &mut self.words)?;
        let width = self.words.len() - start;
        if !self.ids.is_empty() && width != self.width {
            self.words.truncate(start);
            return Err(SnapshotError::Corrupted(format!(
                "a {width}-word state among {}-word ones",
                self.width
            )));
        }
        self.width = width;
        self.ids.push(id);
        self.hashes.push(state_hash(&self.words[start..]));
        Ok(())
    }

    /// Puts a row back at the front (budget-trip rollback).
    pub(crate) fn push_front(&mut self, id: usize, words: &[i32], hash: u64) {
        if self.head == 0 {
            self.fix_width(words.len());
            self.ids.insert(0, id);
            self.hashes.insert(0, hash);
            self.words.splice(0..0, words.iter().copied());
            return;
        }
        debug_assert_eq!(words.len(), self.width);
        self.head -= 1;
        let at = self.head;
        self.ids[at] = id;
        self.hashes[at] = hash;
        self.words[at * self.width..(at + 1) * self.width].copy_from_slice(words);
    }

    /// Pops the oldest row into `into`, returning its id.
    pub(crate) fn pop_front_into(&mut self, into: &mut State) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        if self.head >= QUEUE_COMPACT_ROWS && self.head * 2 >= self.ids.len() {
            self.ids.drain(..self.head);
            self.hashes.drain(..self.head);
            self.words.drain(..self.head * self.width);
            self.head = 0;
        }
        let at = self.head;
        into.load(self.row(at), self.hashes[at]);
        self.head += 1;
        Some(self.ids[at])
    }

    /// The queued rows in FIFO order: id, words and hash.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[i32], u64)> + '_ {
        (self.head..self.ids.len()).map(|at| (self.ids[at], self.row(at), self.hashes[at]))
    }

    /// Empties the queue, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.hashes.clear();
        self.words.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(words: &[i32]) -> State {
        State::from_words(words.into())
    }

    #[test]
    fn interns_each_state_once_with_dense_ids() {
        let mut arena = StateArena::new();
        // Enough states to grow the table and fill several pages.
        let n = 3 * PAGE_ROWS as i32 + 5;
        for i in 0..n {
            assert!(matches!(
                arena.intern(&state(&[i, -i, 7]), |_| true),
                Interned::New(id) if id == i as u32
            ));
        }
        for i in (0..n).rev() {
            assert!(matches!(
                arena.intern(&state(&[i, -i, 7]), |_| panic!("present")),
                Interned::Old(id) if id == i as u32
            ));
        }
        assert_eq!(arena.len(), n as usize);
        assert_eq!(arena.pages.len(), 4);
        assert_eq!(arena.row(42), &[42, -42, 7]);
        let last = n as u32 - 1;
        assert_eq!(arena.row(last), &[n - 1, 1 - n, 7]);
        assert_eq!(arena.hash(last), state(arena.row(last)).content_hash());
    }

    #[test]
    fn pages_are_allocated_once_and_never_move() {
        let mut arena = StateArena::new();
        arena.intern(&state(&[0, 0]), |_| true);
        let first = arena.pages[0].as_ptr();
        for i in 1..2 * PAGE_ROWS as i32 {
            arena.intern(&state(&[i, 0]), |_| true);
        }
        assert_eq!(arena.pages[0].as_ptr(), first, "a full page moved");
        assert_eq!(arena.pages[0].len(), PAGE_ROWS * (HASH_WORDS + 2));
    }

    #[test]
    fn a_refused_state_is_not_stored() {
        let mut arena = StateArena::new();
        assert!(matches!(
            arena.intern(&state(&[1, 2]), |_| false),
            Interned::Refused
        ));
        assert_eq!(arena.len(), 0);
        assert!(matches!(
            arena.intern(&state(&[1, 2]), |_| true),
            Interned::New(0)
        ));
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn a_new_state_of_another_width_is_refused_loudly() {
        let mut arena = StateArena::new();
        arena.intern(&state(&[1, 2]), |_| true);
        arena.intern(&state(&[1, 2, 3]), |_| true);
    }

    #[test]
    fn load_restores_words_and_hash() {
        let mut arena = StateArena::new();
        let original = state(&[5, 6]);
        arena.intern(&state(&[1, 2]), |_| true);
        arena.intern(&original, |_| true);
        let mut scratch = state(&[0, 0]);
        arena.load(1, &mut scratch);
        assert_eq!(scratch, original);
        assert_eq!(scratch.content_hash(), original.content_hash());
    }

    #[test]
    fn row_queue_is_fifo_across_compactions_and_rollbacks() {
        let mut queue = RowQueue::new();
        let mut scratch = state(&[0, 0]);
        let (mut pushed, mut popped) = (0i32, 0i32);
        for round in 0..3000 {
            for _ in 0..(round % 3) {
                let s = state(&[pushed, -pushed]);
                queue.push_back(pushed as usize, s.words(), s.content_hash());
                pushed += 1;
            }
            if let Some(id) = queue.pop_front_into(&mut scratch) {
                assert_eq!(id, popped as usize);
                assert_eq!(scratch, state(&[popped, -popped]));
                if round % 7 == 0 {
                    // Rollback: the popped row goes back to the front.
                    queue.push_front(id, scratch.words(), scratch.content_hash());
                } else {
                    popped += 1;
                }
            }
        }
        assert_eq!(queue.len(), (pushed - popped) as usize);
        let ids: Vec<usize> = queue.iter().map(|(id, _, _)| id).collect();
        assert_eq!(ids, (popped as usize..pushed as usize).collect::<Vec<_>>());
        assert!(queue.ids.len() < pushed as usize, "never compacted");
    }

    #[test]
    fn row_queue_front_insert_and_decoding() {
        let mut queue = RowQueue::new();
        let (a, b) = (state(&[1, 2, 3]), state(&[4, 5, 6]));
        queue.push_front(7, a.words(), a.content_hash());
        queue
            .push_encoded(8, &crate::snapshot::encode_state(&b))
            .unwrap();
        queue.push_front(6, b.words(), b.content_hash());
        assert!(queue
            .push_encoded(9, &crate::snapshot::encode_state(&state(&[1])))
            .is_err());
        let mut scratch = state(&[0, 0, 0]);
        let mut seen = Vec::new();
        while let Some(id) = queue.pop_front_into(&mut scratch) {
            seen.push((id, scratch.clone()));
        }
        assert_eq!(seen, vec![(6, b.clone()), (7, a), (8, b)]);
        queue.clear();
        assert!(queue.is_empty());
    }
}
