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
//! An arena that knows its states' components (the layout's cut of the
//! words into processes, globals and queues) collapses once it holds
//! [`COLLAPSE_AT`] rows, as SPIN's COLLAPSE mode does: each distinct
//! component value is kept once, in one value store, and a row becomes
//! the carried hash plus one value id per component. Equal id rows mean
//! equal states, so a probe compares ids, not words. A successor interned
//! with its [`Origin`] starts from its parent's id row and looks up only
//! the components its step can write.
//!
//! The sequential nested-DFS liveness search keeps its system states in an
//! arena, and so does the exact backend of the BFS safety search, whose
//! row ids are its state ids. [`RowQueue`] is the BFS frontier of the backends
//! that keep no states of their own (the lossy and disk ones).

use crate::snapshot::{decode_state_into, SnapshotError};
use crate::state::{state_hash, words_hash, State};

/// A table slot holding no row.
const EMPTY: u64 = u64::MAX;

/// The most rows an arena holds: ids are `u32`, and a table entry whose id
/// half is `u32::MAX` is an empty slot.
pub(crate) const MAX_ROWS: usize = u32::MAX as usize;

/// Rows per page, a power of two so a row id splits into page and slot by
/// shift and mask. Small, so that a search of a few dozen states (a
/// service job) reserves little: a page of the fixed bridge's full rows
/// is 32 KiB, and 1,024-row pages raised the service benchmark's peak RSS
/// by 7%.
const PAGE_ROWS: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 6;

/// Rows an arena holds in full before it collapses them into id rows.
/// Below it a search is small (every service job is), and a value store
/// would cost it more time than its rows cost memory. A whole number of
/// pages, so every full-width page is full when the arena collapses.
const COLLAPSE_AT: usize = 16 * PAGE_ROWS;

/// Words a row takes before the state's words: its carried hash, low half
/// first. Kept in the row, a probe reads the hash and the words it then
/// compares from one place.
const HASH_WORDS: usize = 2;

/// A value id not (yet) in the value store.
const ABSENT: i32 = -1;

/// The hash bits a table entry keeps: the low half.
const TAG: u64 = 0xffff_ffff;

/// Seed of the hash of one component value.
const VALUE_SEED: u64 = 0xb175_7a7e_5eed_0002;

/// The first slot a row with this hash (or these tag bits) is probed at.
fn home(hash: u64, mask: usize) -> usize {
    (hash & TAG) as usize & mask
}

/// The carried hash at the start of a row.
fn row_hash(row: &[i32]) -> u64 {
    u64::from(row[0] as u32) | u64::from(row[1] as u32) << 32
}

/// An open-addressed (linear probing) index of dense `u32` ids, a power of
/// two in length and kept at most three quarters full. A slot holds an id
/// in its low half and the low 32 bits of the id's hash in its high half,
/// so a probe passes over other ids without reading what they name, and
/// the table grows without reading it either.
pub(crate) struct Table {
    slots: Vec<u64>,
}

impl Table {
    pub(crate) fn new() -> Table {
        Table {
            slots: vec![EMPTY; 64],
        }
    }

    /// The id with this hash that `is` accepts, or the empty slot where
    /// it would go.
    pub(crate) fn probe(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = home(hash, mask);
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return Err(slot);
            }
            if entry >> 32 == hash & TAG && is(entry as u32) {
                return Ok(entry as u32);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The empty slot an id with this hash, known to be absent, goes to.
    pub(crate) fn vacant(&self, hash: u64) -> usize {
        self.probe(hash, |_| false)
            .expect_err("a probe accepting nothing ends at an empty slot")
    }

    /// Fills `slot`, which [`Table::probe`] found empty, with `id`; `held`
    /// counts the ids then indexed.
    pub(crate) fn fill(&mut self, slot: usize, hash: u64, id: u32, held: usize) {
        self.slots[slot] = (hash << 32) | u64::from(id);
        if held * 4 > self.slots.len() * 3 {
            self.grow();
        }
    }

    /// Empties the table, keeping its size.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
    }

    /// Doubles the table and re-places every entry by the hash bits it
    /// holds.
    fn grow(&mut self) {
        let mut slots = vec![EMPTY; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for &entry in self.slots.iter().filter(|&&entry| entry != EMPTY) {
            let mut slot = home(entry >> 32, mask);
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = entry;
        }
        self.slots = slots;
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<u64>()
    }
}

/// Words a value is copied out in: [`Values::write`] copies whole
/// chunks, a fixed-size move each, rather than one variable-length copy.
const CHUNK: usize = 8;

/// Every distinct component value a collapsed arena has seen, each kept
/// once and named by a dense id. The values of all components share one
/// store: a value is a run of words, whichever component it came from.
struct Values {
    /// The values back to back, then [`CHUNK`] words of padding, so that
    /// a chunk starting inside any value is in bounds.
    words: Vec<i32>,
    /// Value `id` is `words[starts[id]..starts[id + 1]]`.
    starts: Vec<usize>,
    table: Table,
}

impl Values {
    fn new() -> Values {
        Values {
            words: vec![0; CHUNK],
            starts: vec![0],
            table: Table::new(),
        }
    }

    /// Writes value `id` at the start of `out` and returns its length.
    /// When `out` has room, whole chunks are copied: the words past the
    /// value's end are the caller's to overwrite.
    fn write(&self, id: i32, out: &mut [i32]) -> usize {
        let id = id as usize;
        let (start, end) = (self.starts[id], self.starts[id + 1]);
        let len = end - start;
        if len.next_multiple_of(CHUNK) <= out.len() {
            for at in (0..len).step_by(CHUNK) {
                let from = &self.words[start + at..start + at + CHUNK];
                let to: &mut [i32; CHUNK] = (&mut out[at..at + CHUNK])
                    .try_into()
                    .expect("a chunk is CHUNK words");
                *to = from.try_into().expect("a chunk is CHUNK words");
            }
        } else {
            out[..len].copy_from_slice(&self.words[start..end]);
        }
        len
    }

    fn get(&self, id: i32) -> &[i32] {
        let id = id as usize;
        &self.words[self.starts[id]..self.starts[id + 1]]
    }

    /// The id of `value`, or [`ABSENT`].
    fn find(&self, value: &[i32]) -> i32 {
        let hash = words_hash(value, VALUE_SEED);
        match self.table.probe(hash, |id| self.get(id as i32) == value) {
            Ok(id) => id as i32,
            Err(_) => ABSENT,
        }
    }

    /// The id of `value`, adding it when it is new.
    fn intern(&mut self, value: &[i32]) -> i32 {
        let hash = words_hash(value, VALUE_SEED);
        let slot = match self.table.probe(hash, |id| self.get(id as i32) == value) {
            Ok(id) => return id as i32,
            Err(slot) => slot,
        };
        let id = self.starts.len() - 1;
        assert!(id < MAX_ROWS, "a value store holds fewer than 2^32 values");
        self.words.truncate(self.words.len() - CHUNK);
        self.words.extend_from_slice(value);
        self.starts.push(self.words.len());
        self.words.extend_from_slice(&[0; CHUNK]);
        self.table.fill(slot, hash, id as u32, id + 1);
        id as i32
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.words.capacity() * size_of::<i32>()
            + self.starts.capacity() * size_of::<usize>()
            + self.table.heap_bytes()
    }
}

/// Where a successor comes from: its parent's id and the components the
/// step that made it can write. Every other component is the parent's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Origin<'a> {
    pub(crate) parent: u32,
    pub(crate) writes: &'a [u32],
}

/// Interned states of one program, addressed by dense `u32` ids in
/// interning order.
pub(crate) struct StateArena {
    /// Words per state, fixed by the first state appended.
    width: usize,
    /// The number of interned states.
    len: usize,
    /// Component `c` is words `bounds[c]..bounds[c + 1]` of a state; an
    /// arena of fewer than two components never collapses.
    bounds: Box<[u32]>,
    /// The component values, once the arena has collapsed.
    values: Option<Values>,
    /// Row `id` is row `id % PAGE_ROWS` of `pages[id / PAGE_ROWS]`: the
    /// state's hash and then its `width` words, or, once collapsed, one
    /// value id per component. Every page but the last is full.
    pages: Vec<Vec<i32>>,
    /// The row ids, by hash.
    table: Table,
    /// The id row of the state being interned.
    ids: Vec<i32>,
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

impl StateArena {
    /// An empty arena that keeps every row in full. The first state
    /// appended fixes the width of every row.
    pub(crate) fn new() -> StateArena {
        StateArena::with_components(&[])
    }

    /// An empty arena of states cut into components at `bounds` (where
    /// each component begins, then the states' width), which collapses
    /// once it holds [`COLLAPSE_AT`] states.
    pub(crate) fn with_components(bounds: &[u32]) -> StateArena {
        StateArena {
            width: 0,
            len: 0,
            bounds: bounds.into(),
            values: None,
            pages: Vec::new(),
            table: Table::new(),
            ids: Vec::new(),
        }
    }

    /// The number of interned states.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether [`StateArena::intern`] reads a successor's [`Origin`]: once
    /// the arena has collapsed, and at every size in debug builds, which
    /// check the origin against the state. Until then a caller need not
    /// work out the step's footprint.
    pub(crate) fn reads_origin(&self) -> bool {
        cfg!(debug_assertions) || self.values.is_some()
    }

    fn components(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Component `c`'s words of a state.
    fn component<'w>(&self, words: &'w [i32], c: usize) -> &'w [i32] {
        &words[self.bounds[c] as usize..self.bounds[c + 1] as usize]
    }

    fn stride(&self) -> usize {
        HASH_WORDS
            + match self.values {
                Some(_) => self.components(),
                None => self.width,
            }
    }

    /// Row `id`, hash included.
    fn full_row(&self, id: u32) -> &[i32] {
        let page = &self.pages[(id >> PAGE_SHIFT) as usize];
        let stride = self.stride();
        let start = (id as usize & (PAGE_ROWS - 1)) * stride;
        &page[start..start + stride]
    }

    /// The carried hash of state `id`.
    pub(crate) fn hash(&self, id: u32) -> u64 {
        row_hash(self.full_row(id))
    }

    /// Writes the words of state `id` into `out`, which is as wide.
    pub(crate) fn write_words(&self, id: u32, out: &mut [i32]) {
        let row = &self.full_row(id)[HASH_WORDS..];
        match &self.values {
            None => out.copy_from_slice(row),
            Some(values) => {
                // Components are contiguous and in order, so each one's
                // chunk overrun lands where the next ones go.
                let mut at = 0;
                for &value in row {
                    at += values.write(value, &mut out[at..]);
                }
            }
        }
    }

    /// The words of state `id`, in `buf`.
    pub(crate) fn words<'b>(&self, id: u32, buf: &'b mut Vec<i32>) -> &'b [i32] {
        buf.resize(self.width, 0);
        self.write_words(id, buf);
        buf
    }

    /// Overwrites `into` (a state of the same program) with state `id`.
    pub(crate) fn load(&self, id: u32, into: &mut State) {
        into.load_with(self.hash(id), |out| self.write_words(id, out));
    }

    /// Whether row `id` holds these words, given their hash.
    fn holds(&self, id: u32, hash: u64, words: &[i32]) -> bool {
        let row = self.full_row(id);
        if row_hash(row) != hash {
            return false;
        }
        let row = &row[HASH_WORDS..];
        match &self.values {
            None => row == words,
            Some(values) => row
                .iter()
                .enumerate()
                .all(|(c, &value)| values.get(value) == self.component(words, c)),
        }
    }

    /// The id of `state`, if it is present.
    pub(crate) fn find(&self, state: &State) -> Option<u32> {
        let (hash, words) = (state.content_hash(), state.words());
        self.table
            .probe(hash, |id| self.holds(id, hash, words))
            .ok()
    }

    /// The id of `state`. When it is absent, `admit` is asked (once,
    /// with the number of states held) whether it may be appended; the
    /// arena itself refuses past [`MAX_ROWS`]. A successor given with its
    /// `origin` looks up only the components its step writes.
    ///
    /// # Panics
    ///
    /// When `state` must be appended and its width differs from the
    /// first state's: a row of another width would shift every row after
    /// it.
    pub(crate) fn intern(
        &mut self,
        state: &State,
        origin: Option<Origin<'_>>,
        admit: impl FnOnce(usize) -> bool,
    ) -> Interned {
        let (hash, words) = (state.content_hash(), state.words());
        #[cfg(debug_assertions)]
        if let Some(origin) = origin {
            self.check_origin(origin, words);
        }
        // The empty slot the new row's id goes to, when it is known yet.
        let slot = if self.values.is_none() {
            match self.table.probe(hash, |id| self.holds(id, hash, words)) {
                Ok(id) => return Interned::Old(id),
                Err(slot) => Some(slot),
            }
        } else {
            // Components are cut at fixed offsets: check before cutting.
            assert_eq!(
                words.len(),
                self.width,
                "every state of an arena has the same width"
            );
            if self.gather_ids(words, origin) {
                let (ids, stride) = (&self.ids[..], self.stride());
                let found = self.table.probe(hash, |id| {
                    let row = self.full_row(id);
                    row_hash(row) == hash && row[HASH_WORDS..stride] == *ids
                });
                match found {
                    Ok(id) => return Interned::Old(id),
                    Err(slot) => Some(slot),
                }
            } else {
                // A component value never seen: the state is new.
                None
            }
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
        let slot = slot.unwrap_or_else(|| self.table.vacant(hash));
        let id = self.len as u32;
        let stride = self.stride();
        if self.len.is_multiple_of(PAGE_ROWS) {
            self.pages.push(Vec::with_capacity(PAGE_ROWS * stride));
        }
        let page = self.pages.last_mut().expect("a page was just ensured");
        page.extend_from_slice(&[hash as u32 as i32, (hash >> 32) as u32 as i32]);
        match &mut self.values {
            None => page.extend_from_slice(words),
            Some(values) => {
                for (c, id) in self.ids.iter_mut().enumerate() {
                    if *id == ABSENT {
                        let range = self.bounds[c] as usize..self.bounds[c + 1] as usize;
                        *id = values.intern(&words[range]);
                    }
                }
                page.extend_from_slice(&self.ids);
            }
        }
        self.len += 1;
        self.table.fill(slot, hash, id, self.len);
        if self.len == COLLAPSE_AT && self.components() > 1 {
            self.collapse();
        }
        Interned::New(id)
    }

    /// Fills `ids` with the value ids of `words`' components, from the
    /// parent's row for those `origin`'s step leaves alone; whether every
    /// value is in the store already (an [`ABSENT`] one is not).
    fn gather_ids(&mut self, words: &[i32], origin: Option<Origin<'_>>) -> bool {
        let values = self.values.as_ref().expect("a collapsed arena");
        let n = self.components();
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        let mut complete = true;
        let mut look = |c: usize| {
            let id = values.find(self.component(words, c));
            complete &= id != ABSENT;
            id
        };
        match origin {
            Some(Origin { parent, writes }) => {
                ids.extend_from_slice(&self.full_row(parent)[HASH_WORDS..HASH_WORDS + n]);
                for &c in writes {
                    let c = c as usize;
                    // A step may leave a component it can write as it
                    // was (the globals, mostly): comparing is cheaper
                    // than looking it up.
                    if values.get(ids[c]) != self.component(words, c) {
                        ids[c] = look(c);
                    }
                }
            }
            None => ids.extend((0..n).map(&mut look)),
        }
        self.ids = ids;
        complete
    }

    /// Re-encodes every (full-width) row as an id row, once. Ids and
    /// hashes stay, so the table does too.
    fn collapse(&mut self) {
        let mut values = Values::new();
        let n = self.components();
        let full = HASH_WORDS + self.width;
        for page in &mut self.pages {
            let mut ids = Vec::with_capacity(PAGE_ROWS * (HASH_WORDS + n));
            for row in page.chunks_exact(full) {
                ids.extend_from_slice(&row[..HASH_WORDS]);
                let words = &row[HASH_WORDS..];
                for c in 0..n {
                    let range = self.bounds[c] as usize..self.bounds[c + 1] as usize;
                    ids.push(values.intern(&words[range]));
                }
            }
            *page = ids;
        }
        self.values = Some(values);
    }

    /// Checks that a successor differs from its parent only inside the
    /// components its step writes.
    #[cfg(debug_assertions)]
    fn check_origin(&self, origin: Origin<'_>, words: &[i32]) {
        let mut parent = Vec::new();
        let parent = self.words(origin.parent, &mut parent);
        for c in (0..self.components()).filter(|&c| !origin.writes.contains(&(c as u32))) {
            assert_eq!(
                self.component(parent, c),
                self.component(words, c),
                "a step wrote component {c}, outside its footprint {:?}",
                origin.writes
            );
        }
    }

    /// The bytes the arena holds, capacity included.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.pages
            .iter()
            .map(|page| page.capacity() * size_of::<i32>())
            .sum::<usize>()
            + self.pages.capacity() * size_of::<Vec<i32>>()
            + self.table.heap_bytes()
            + self.values.as_ref().map_or(0, Values::heap_bytes)
            + self.ids.capacity() * size_of::<i32>()
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
                arena.intern(&state(&[i, -i, 7]), None, |_| true),
                Interned::New(id) if id == i as u32
            ));
        }
        for i in (0..n).rev() {
            assert!(matches!(
                arena.intern(&state(&[i, -i, 7]), None, |_| panic!("present")),
                Interned::Old(id) if id == i as u32
            ));
        }
        assert_eq!(arena.len(), n as usize);
        assert_eq!(arena.pages.len(), 4);
        let mut words = Vec::new();
        assert_eq!(arena.words(42, &mut words), &[42, -42, 7]);
        let last = n as u32 - 1;
        assert_eq!(arena.words(last, &mut words), &[n - 1, 1 - n, 7]);
        assert_eq!(arena.hash(last), state(&words).content_hash());
    }

    #[test]
    fn pages_are_allocated_once_and_never_move() {
        let mut arena = StateArena::new();
        arena.intern(&state(&[0, 0]), None, |_| true);
        let first = arena.pages[0].as_ptr();
        for i in 1..2 * PAGE_ROWS as i32 {
            arena.intern(&state(&[i, 0]), None, |_| true);
        }
        assert_eq!(arena.pages[0].as_ptr(), first, "a full page moved");
        assert_eq!(arena.pages[0].len(), PAGE_ROWS * (HASH_WORDS + 2));
    }

    #[test]
    fn a_refused_state_is_not_stored() {
        let mut arena = StateArena::new();
        assert!(matches!(
            arena.intern(&state(&[1, 2]), None, |_| false),
            Interned::Refused
        ));
        assert_eq!(arena.len(), 0);
        assert!(matches!(
            arena.intern(&state(&[1, 2]), None, |_| true),
            Interned::New(0)
        ));
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn a_new_state_of_another_width_is_refused_loudly() {
        let mut arena = StateArena::new();
        arena.intern(&state(&[1, 2]), None, |_| true);
        arena.intern(&state(&[1, 2, 3]), None, |_| true);
    }

    #[test]
    fn load_restores_words_and_hash() {
        let mut arena = StateArena::new();
        let original = state(&[5, 6]);
        arena.intern(&state(&[1, 2]), None, |_| true);
        arena.intern(&original, None, |_| true);
        let mut scratch = state(&[0, 0]);
        arena.load(1, &mut scratch);
        assert_eq!(scratch, original);
        assert_eq!(scratch.content_hash(), original.content_hash());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Rows under a random component layout, interned as successors
        /// of random rows (with their origin), as fresh rows, and refused,
        /// past `COLLAPSE_AT` and across pages, agree with a map model:
        /// every intern's answer, and every row's id, `find`, `load`,
        /// `hash` and expanded words.
        #[test]
        fn collapsing_arena_agrees_with_a_map_model(
            widths in proptest::collection::vec(1usize..12, 2..7),
            ops in proptest::collection::vec((0usize..1 << 20, 0u8..8, 0u64..u64::MAX), 2000..3000),
        ) {
            use crate::rng::SplitMix64;
            use std::collections::HashMap;

            let mut bounds = vec![0u32];
            for &w in &widths {
                bounds.push(bounds[bounds.len() - 1] + w as u32);
            }
            let width = bounds[widths.len()] as usize;
            let mut arena = StateArena::with_components(&bounds);
            let mut model: HashMap<Vec<i32>, u32> = HashMap::new();
            let mut rows: Vec<Vec<i32>> = Vec::new();
            for &(pick, kind, seed) in &ops {
                let mut rng = SplitMix64::seed_from_u64(seed);
                // Few values make repeats; many make new rows.
                let span = if kind % 2 == 0 { 100 } else { 3 };
                let mut value = || (rng.next_u64() % span) as i32 - (span as i32) / 2;
                let parent = (!rows.is_empty()).then(|| pick % rows.len());
                let (mut words, mut writes) = match parent {
                    Some(parent) if kind != 5 => (rows[parent].clone(), Vec::new()),
                    _ => ((0..width).map(|_| value()).collect(), Vec::new()),
                };
                if parent.is_some() && kind != 5 {
                    for _ in 0..1 + kind % 2 {
                        let c = (value() + 50).unsigned_abs() as usize % widths.len();
                        if !writes.contains(&(c as u32)) {
                            writes.push(c as u32);
                        }
                        for w in &mut words[bounds[c] as usize..bounds[c + 1] as usize] {
                            *w = value();
                        }
                    }
                }
                let origin = match parent {
                    Some(parent) if kind != 5 => Some(Origin {
                        parent: parent as u32,
                        writes: &writes,
                    }),
                    _ => None,
                };
                let known = model.get(&words).copied();
                let s = state(&words);
                if kind == 7 {
                    proptest::prop_assert_eq!(arena.find(&s), known);
                    continue;
                }
                let admit = kind != 6;
                match (arena.intern(&s, origin, |held| {
                    assert_eq!(held, rows.len());
                    admit
                }), known) {
                    (Interned::Old(id), Some(known)) => proptest::prop_assert_eq!(id, known),
                    (Interned::New(id), None) if admit => {
                        proptest::prop_assert_eq!(id as usize, rows.len());
                        model.insert(words.clone(), id);
                        rows.push(words);
                    }
                    (Interned::Refused, None) if !admit => {}
                    _ => proptest::prop_assert!(false, "intern disagrees with the model"),
                }
            }
            proptest::prop_assert_eq!(arena.len(), rows.len());
            // Enough new rows that every case collapses.
            proptest::prop_assert!(rows.len() >= COLLAPSE_AT, "{} rows", rows.len());
            proptest::prop_assert!(arena.values.is_some());
            let mut buf = Vec::new();
            let mut loaded = state(&vec![0; width]);
            for (id, words) in rows.iter().enumerate() {
                let id = id as u32;
                proptest::prop_assert_eq!(arena.words(id, &mut buf), &words[..]);
                proptest::prop_assert_eq!(arena.hash(id), state_hash(words));
                arena.load(id, &mut loaded);
                proptest::prop_assert_eq!(&loaded, &state(words));
                proptest::prop_assert_eq!(arena.find(&loaded), Some(id));
            }
        }
    }

    /// A program of the fixed bridge's shape: 16 processes of a location
    /// and 6 locals each, and 14 globals (126 words in 17 components).
    /// Each process flips between two locations, negating its first local,
    /// so the program has 2^16 states.
    fn bridge_shaped() -> crate::program::Program {
        use crate::expression::expr;
        use crate::program::{Action, Guard, ProcessBuilder, ProgramBuilder};
        let mut prog = ProgramBuilder::new();
        for g in 0..14 {
            prog.global(format!("g{g}"), g);
        }
        for p in 0..16 {
            let mut process = ProcessBuilder::new(format!("p{p}"));
            let locals = process.local_block("x", 6, p);
            let (a, b) = (process.location("a"), process.location("b"));
            let set = |v: i32| Action::assign(locals, expr::local(locals) * v.into());
            process.transition(a, b, Guard::always(), set(-1), "flip");
            process.transition(b, a, Guard::always(), set(-1), "flop");
            prog.add_process(process).unwrap();
        }
        prog.build().unwrap()
    }

    /// The collapsed arena of a bridge-sized search holds under 100
    /// bytes a state, page and table capacity included, where a full row
    /// alone took 512. State `m` is the one where the processes of the set
    /// bits of `m` have flipped; it is interned as the successor of `m`
    /// without its lowest bit, by that process's flip.
    #[test]
    fn a_collapsed_bridge_sized_arena_holds_under_100_bytes_a_state() {
        use crate::program::ProcId;
        use crate::state::{apply_step_into, Step};
        let program = bridge_shaped();
        let layout = &program.layout;
        assert_eq!((layout.words(), layout.components().len() - 1), (126, 17));
        let mut arena = StateArena::with_components(layout.components());
        let initial = State::initial(&program);
        arena.intern(&initial, None, |_| true);
        let (mut parent, mut next) = (initial.clone(), initial);
        for m in 1u32..1 << 16 {
            let step = Step {
                proc: ProcId::from_index(m.trailing_zeros() as usize),
                trans: 0,
                partner: None,
            };
            let from = m & (m - 1);
            arena.load(from, &mut parent);
            apply_step_into(&program, &parent, step, &mut next, None).unwrap();
            let footprint = layout.footprint(&program, &parent, step);
            let origin = Origin {
                parent: from,
                writes: footprint.components(),
            };
            assert!(matches!(
                arena.intern(&next, Some(origin), |_| true),
                Interned::New(id) if id == m
            ));
        }
        let per_state = arena.heap_bytes() as f64 / arena.len() as f64;
        assert!(per_state < 100.0, "{per_state:.1} B a state");
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
