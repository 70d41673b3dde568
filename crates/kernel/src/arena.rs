//! An index-addressed arena of interned system states.
//!
//! Every state of one program has the same width (its layout's word
//! count), so the arena stores states as fixed-width `i32` rows in one
//! vector, each with the hash the state carried, and indexes them with an
//! open-addressed table of `u32` row ids. A state is named by its row id
//! from the moment it is interned; [`StateArena::intern`] decides with one
//! probe whether a state is present and appends it if it is not.
//!
//! The sequential nested-DFS liveness search keeps its system states here.
//! Nothing in it is specific to liveness: a search that wants dense state
//! ids and no per-state allocation can use it as it is.

use crate::state::State;

/// A table slot holding no row id.
const EMPTY: u32 = u32::MAX;

/// The most rows an arena holds: ids are `u32`, and `u32::MAX` marks an
/// empty table slot.
pub(crate) const MAX_ROWS: usize = u32::MAX as usize;

/// Interned states of one program, addressed by dense `u32` ids in
/// interning order.
pub(crate) struct StateArena {
    width: usize,
    /// Row `id` is `words[id * width..(id + 1) * width]`.
    words: Vec<i32>,
    /// The carried hash of each row.
    hashes: Vec<u64>,
    /// Open-addressed (linear probing) row ids; a power of two in length,
    /// kept at most half full.
    table: Vec<u32>,
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
    /// An empty arena for states of `width` words.
    pub(crate) fn new(width: usize) -> StateArena {
        StateArena {
            width,
            words: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY; 64],
        }
    }

    /// The number of interned states.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The words of state `id`.
    pub(crate) fn row(&self, id: u32) -> &[i32] {
        let start = id as usize * self.width;
        &self.words[start..start + self.width]
    }

    /// Overwrites `into` (a state of the same program) with state `id`.
    pub(crate) fn load(&self, id: u32, into: &mut State) {
        into.load(self.row(id), self.hashes[id as usize]);
    }

    /// The id of `state`. When it is absent, `admit` is asked (once,
    /// with the number of states held) whether it may be appended; the
    /// arena itself refuses past [`MAX_ROWS`].
    pub(crate) fn intern(&mut self, state: &State, admit: impl FnOnce(usize) -> bool) -> Interned {
        let hash = state.content_hash();
        let words = state.words();
        debug_assert_eq!(words.len(), self.width);
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == hash && self.row(id) == words {
                return Interned::Old(id);
            }
            slot = (slot + 1) & mask;
        }
        if self.len() >= MAX_ROWS || !admit(self.len()) {
            return Interned::Refused;
        }
        let id = self.len() as u32;
        self.table[slot] = id;
        self.words.extend_from_slice(words);
        self.hashes.push(hash);
        if self.len() * 2 > self.table.len() {
            self.grow();
        }
        Interned::New(id)
    }

    /// Doubles the table and re-places every id by its stored hash; no
    /// row is compared or rehashed.
    fn grow(&mut self) {
        let mut table = vec![EMPTY; self.table.len() * 2];
        let mask = table.len() - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id as u32;
        }
        self.table = table;
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
        let mut arena = StateArena::new(3);
        // Enough states to grow the table several times.
        for i in 0..1000 {
            assert!(matches!(
                arena.intern(&state(&[i, -i, 7]), |_| true),
                Interned::New(id) if id == i as u32
            ));
        }
        for i in (0..1000).rev() {
            assert!(matches!(
                arena.intern(&state(&[i, -i, 7]), |_| panic!("present")),
                Interned::Old(id) if id == i as u32
            ));
        }
        assert_eq!(arena.len(), 1000);
        assert_eq!(arena.row(42), &[42, -42, 7]);
    }

    #[test]
    fn a_refused_state_is_not_stored() {
        let mut arena = StateArena::new(2);
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
    fn load_restores_words_and_hash() {
        let mut arena = StateArena::new(2);
        let original = state(&[5, 6]);
        arena.intern(&state(&[1, 2]), |_| true);
        arena.intern(&original, |_| true);
        let mut scratch = state(&[0, 0]);
        arena.load(1, &mut scratch);
        assert_eq!(scratch, original);
        assert_eq!(scratch.content_hash(), original.content_hash());
    }
}
