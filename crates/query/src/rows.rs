//! The insertion-ordered distinct-row store every row-keyed accumulator
//! runs on: by-table mass per source ([`crate::SourceAccumulator`]),
//! by-tuple provenance, and cross-source disjunction
//! ([`crate::AnswerSet::combined`]).
//!
//! Answers are emitted in first-seen order, so the store keeps its entries
//! in one `Vec` and finds them through a small open-addressing table of
//! entry indices. Each key is hashed exactly once, on arrival, with the
//! fixed-key SipHash of `DefaultHasher::new()` (deterministic, collision
//! resistant, no dependency); the hash is kept beside its entry so growing
//! the table never rehashes a row. A probe compares stored hashes first
//! and confirms with `==`, so values that compare equal (`Int(2)` and
//! `Float(2.0)`, which also hash alike) resolve to one entry. Keys are
//! moved in and moved out; the store never clones one.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// An insertion-ordered map from distinct keys (rows, or row-derived keys
/// such as `(row index, tuple index)`) to accumulated values.
#[derive(Debug, Clone)]
pub(crate) struct DistinctRows<K, V> {
    /// Keys with their values, in first-insertion order.
    entries: Vec<(K, V)>,
    /// The hash of each entry's key, parallel to `entries`.
    hashes: Vec<u64>,
    /// Open-addressing table with linear probing: 0 marks an empty slot,
    /// `i + 1` points at `entries[i]`. Its length is zero or a power of
    /// two, and at most half of it is occupied.
    slots: Vec<usize>,
}

impl<K, V> Default for DistinctRows<K, V> {
    fn default() -> Self {
        DistinctRows {
            entries: Vec::new(),
            hashes: Vec::new(),
            slots: Vec::new(),
        }
    }
}

/// The smallest table the store allocates.
const MIN_SLOTS: usize = 16;

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl<K: Hash + Eq, V> DistinctRows<K, V> {
    /// Empty store.
    pub(crate) fn new() -> Self {
        DistinctRows::default()
    }

    /// Whether no key was inserted.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds `key`, or appends it with `value`. Returns the key's position
    /// in insertion order and, when the key was already present, its value
    /// to update in place (the passed `key` and `value` are then dropped).
    pub(crate) fn upsert(&mut self, key: K, value: V) -> (usize, Option<&mut V>) {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = hash_of(&key);
        let mask = self.slots.len().wrapping_sub(1);
        // Truncating the hash to the table width is the point.
        let mut pos = (hash as usize) & mask;
        // At most half the table is occupied, so the probe meets an empty
        // slot within `slots.len()` steps.
        for _ in 0..self.slots.len() {
            match self.slots.get(pos).copied() {
                Some(0) => {
                    if let Some(slot) = self.slots.get_mut(pos) {
                        *slot = self.entries.len() + 1;
                    }
                    break;
                }
                Some(occupied) => {
                    let i = occupied - 1;
                    if self.hashes.get(i) == Some(&hash)
                        && self.entries.get(i).is_some_and(|(k, _)| *k == key)
                    {
                        return (i, self.entries.get_mut(i).map(|(_, v)| v));
                    }
                    pos = (pos + 1) & mask;
                }
                None => break,
            }
        }
        self.entries.push((key, value));
        self.hashes.push(hash);
        (self.entries.len() - 1, None)
    }

    /// Doubles the table (or allocates the first one) and re-slots every
    /// entry from its stored hash.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        let mask = len - 1;
        let mut slots = vec![0usize; len];
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut pos = (hash as usize) & mask;
            while let Some(slot) = slots.get_mut(pos) {
                if *slot == 0 {
                    *slot = i + 1;
                    break;
                }
                pos = (pos + 1) & mask;
            }
        }
        self.slots = slots;
    }
}

impl<K, V> DistinctRows<K, V> {
    /// The value of the entry at position `i` in insertion order.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut V> {
        self.entries.get_mut(i).map(|(_, v)| v)
    }

    /// Every entry, in first-insertion order, moved out of the store.
    pub(crate) fn into_entries(self) -> Vec<(K, V)> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udi_store::{Row, Value};

    #[test]
    fn keeps_first_insertion_order_and_one_entry_per_key() {
        let mut s: DistinctRows<u32, u32> = DistinctRows::new();
        for k in [5, 3, 5, 9, 3, 3] {
            if let (_, Some(n)) = s.upsert(k, 1) {
                *n += 1;
            }
        }
        assert_eq!(s.into_entries(), vec![(5, 2), (3, 3), (9, 1)]);
    }

    #[test]
    fn positions_are_stable_across_growth() {
        let mut s: DistinctRows<usize, ()> = DistinctRows::new();
        for k in 0..1000 {
            assert_eq!(s.upsert(k, ()).0, k);
        }
        for k in (0..1000).rev() {
            let (i, old) = s.upsert(k, ());
            assert_eq!(i, k);
            assert!(old.is_some());
        }
        assert_eq!(s.into_entries().len(), 1000);
    }

    #[test]
    fn numerically_equal_cells_share_an_entry() {
        let mut s: DistinctRows<Row, u8> = DistinctRows::new();
        s.upsert(vec![Value::Int(2), Value::Null], 0);
        let (i, old) = s.upsert(vec![Value::Float(2.0), Value::Null], 0);
        assert_eq!(i, 0);
        assert!(old.is_some());
        assert_eq!(s.upsert(vec![Value::Int(2), Value::Int(0)], 0).0, 1);
    }
}
