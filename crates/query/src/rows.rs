//! The insertion-ordered distinct-row store every row-keyed accumulator
//! runs on: by-table mass per source ([`crate::SourceAccumulator`]),
//! by-tuple provenance ([`crate::TupleAccumulator`]), and cross-source
//! disjunction ([`crate::AnswerSet::combined`]).
//!
//! Answers are emitted in first-seen order, so the store keeps its entries
//! in one `Vec` and finds them through a small open-addressing table of
//! entry indices. The order never depends on the hash. Each key is hashed
//! exactly once, on arrival, with [`RowHasher`], a fixed-key word hash (a
//! pure function of the key's bytes: no seed, no dependency); the hash is
//! kept beside its entry so growing the table never rehashes a row. A
//! probe compares stored hashes first and confirms with equality, so
//! values that compare equal (`Int(2)` and `Float(2.0)`, which also hash
//! alike) resolve to one entry, and keys whose hashes collide stay apart.
//! Keys are moved in and moved out; the store never clones one.
//!
//! A key need not hold its row. The by-reference accumulators key a tuple
//! by the `(binding, row)` that first produced it and pass
//! [`upsert_hashed`](DistinctRows::upsert_hashed) the hash of its cells
//! ([`hash_cells`]) and an equality test that reads them in place.

use std::hash::{Hash, Hasher};

use udi_store::Value;

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

/// The row hash: each written word is folded into the state by xor,
/// multiply and rotate, and [`finish`](Hasher::finish) ends with the
/// splitmix64 avalanche, because the table masks the hash down to its low
/// bits. A cell is one or two words (`Value`'s tag, then its bits or its
/// text), so a row costs a few multiplies where SipHash-1-3 ran rounds
/// per word.
#[derive(Default)]
struct RowHasher(u64);

impl RowHasher {
    /// An odd constant with well-spread bits (2^64 / φ).
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::K).rotate_left(29);
    }
}

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(<[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 8];
            padded.iter_mut().zip(tail).for_each(|(p, b)| *p = *b);
            self.mix(u64::from_le_bytes(padded));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = RowHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// The hash of a tuple read cell by cell. Cells that compare equal hash
/// alike (see `Value`'s `Hash`), so tuples that compare equal cell by cell
/// do too.
pub(crate) fn hash_cells<'v>(cells: impl IntoIterator<Item = &'v Value>) -> u64 {
    let mut h = RowHasher::default();
    for cell in cells {
        cell.hash(&mut h);
    }
    h.finish()
}

impl<K: Hash + Eq, V> DistinctRows<K, V> {
    /// Empty store.
    pub(crate) fn new() -> Self {
        DistinctRows::default()
    }

    /// Finds `key`, or appends it with `value`. Returns the key's position
    /// in insertion order and, when the key was already present, its value
    /// to update in place (the passed `key` and `value` are then dropped).
    pub(crate) fn upsert(&mut self, key: K, value: V) -> (usize, Option<&mut V>) {
        let hash = hash_of(&key);
        let found = self.probe(hash, |k| *k == key);
        self.settle(found, hash, key, value)
    }
}

impl<K, V> DistinctRows<K, V> {
    /// [`upsert`](DistinctRows::upsert) for a key that is hashed and
    /// compared through what it refers to: `hash` is the hash of the
    /// key's content and `same(k)` whether a stored key `k` has the same
    /// content. The first key of equal content stays in the store.
    pub(crate) fn upsert_hashed(
        &mut self,
        hash: u64,
        key: K,
        value: V,
        same: impl Fn(&K) -> bool,
    ) -> (usize, Option<&mut V>) {
        let found = self.probe(hash, same);
        self.settle(found, hash, key, value)
    }

    /// Looks for an entry with hash `hash` that `same` accepts. On a miss,
    /// points the empty slot the probe ended on at the entry about to be
    /// appended, and returns `None`.
    fn probe(&mut self, hash: u64, same: impl Fn(&K) -> bool) -> Option<usize> {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.reslot((self.slots.len() * 2).max(MIN_SLOTS));
        }
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
                    return None;
                }
                Some(occupied) => {
                    let i = occupied - 1;
                    if self.hashes.get(i) == Some(&hash)
                        && self.entries.get(i).is_some_and(|(k, _)| same(k))
                    {
                        return Some(i);
                    }
                    pos = (pos + 1) & mask;
                }
                None => return None,
            }
        }
        None
    }

    /// Ends an upsert: the found entry's value, or `key` and `value`
    /// appended.
    fn settle(
        &mut self,
        found: Option<usize>,
        hash: u64,
        key: K,
        value: V,
    ) -> (usize, Option<&mut V>) {
        if let Some(i) = found {
            return (i, self.entries.get_mut(i).map(|(_, v)| v));
        }
        self.entries.push((key, value));
        self.hashes.push(hash);
        (self.entries.len() - 1, None)
    }

    /// Makes room for `additional` more keys, so that inserting them
    /// reallocates neither the entries nor the table.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.hashes.reserve(additional);
        let wanted = self
            .entries
            .len()
            .saturating_add(additional)
            .saturating_mul(2)
            .checked_next_power_of_two()
            .unwrap_or(0);
        if wanted > self.slots.len() {
            self.reslot(wanted.max(MIN_SLOTS));
        }
    }

    /// Replaces the table with one of `len` slots (a power of two) and
    /// re-slots every entry from its stored hash.
    fn reslot(&mut self, len: usize) {
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

    /// A key whose every instance hashes alike, so each probe walks the
    /// whole cluster and only `==` tells keys apart.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(7);
        }
    }

    #[test]
    fn total_collision_keeps_order_entries_and_positions() {
        // 1,000 inserts over 400 keys, repeats interleaved with first
        // arrivals, through several growths of the table.
        let keys: Vec<u32> = (0..1000u32).map(|n| n * 7 % 400).collect();
        let mut first_seen: Vec<u32> = Vec::new();
        let mut s: DistinctRows<Colliding, u32> = DistinctRows::new();
        for &k in &keys {
            let (i, old) = s.upsert(Colliding(k), 1);
            match old {
                Some(count) => *count += 1,
                None => {
                    assert_eq!(i, first_seen.len());
                    first_seen.push(k);
                }
            }
        }
        // Positions survive every growth: each key still finds its entry.
        for (pos, &k) in first_seen.iter().enumerate() {
            assert_eq!(s.upsert(Colliding(k), 0).0, pos);
        }
        let entries = s.into_entries();
        assert_eq!(entries.len(), 400);
        let order: Vec<u32> = entries.iter().map(|(k, _)| k.0).collect();
        assert_eq!(order, first_seen);
        assert_eq!(entries.iter().map(|&(_, c)| c).sum::<u32>(), 1000);
    }

    #[test]
    fn reserve_keeps_positions_and_order() {
        let mut s: DistinctRows<usize, ()> = DistinctRows::new();
        s.upsert(3, ());
        s.reserve(500);
        let slots = s.slots.len();
        assert!(slots >= 1002);
        for k in 0..500 {
            s.upsert(k, ());
        }
        assert_eq!(s.slots.len(), slots, "a reserved store does not grow");
        assert_eq!(s.upsert(3, ()).0, 0);
        assert_eq!(s.upsert(0, ()).0, 1);
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
