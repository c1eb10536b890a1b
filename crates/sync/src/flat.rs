//! Flat, allocation-light containers for the synchronizers' per-node state.
//!
//! The synchronizer state that is keyed at all is keyed by pulses bounded by the
//! pulse bound `T(A)` — a node's few virtual nodes and received batches, and
//! the sets of pulses it is triggered at, has processed or may start. Sorted
//! vectors with binary search ([`FlatMap`]) and bit sets packed 64 pulses to a
//! word ([`PulseSet`]: `T/8` bytes each) beat `BTreeMap`/`BTreeSet` by a wide
//! margin on the simulation hot path, and keep the per-node memory contiguous.
//! (Per-stage state is not keyed: it lives in dense rows addressed by
//! precomputed positions, DESIGN.md §3.4.)

use std::cell::Cell;

/// A map from small `Ord + Copy` keys to values, stored as a sorted vector
/// (SmallVec-style: optimized for few entries, binary-searched lookups).
#[derive(Clone, Debug, Default)]
pub struct FlatMap<K: Ord + Copy, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> FlatMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        FlatMap { entries: Vec::new() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Inserts `value` for `key`, replacing and returning any previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value for `key`.
    pub fn remove(&mut self, key: K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Returns the value for `key`, inserting one produced by `make` if missing.
    pub fn get_mut_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Iterates over `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Iterates over the keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }

    /// Bytes of the entry buffer (its capacity, not its length).
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, V)>()
    }
}

impl<K: Ord + Copy, V: Default> FlatMap<K, V> {
    /// Returns the value for `key`, inserting a default if missing (the `entry(..)
    /// .or_default()` idiom).
    pub fn get_mut_or_default(&mut self, key: K) -> &mut V {
        self.get_mut_or_insert_with(key, V::default)
    }
}

/// A set of pulses `0 ..= bound`, one bit per pulse, with an `O(1)` amortized
/// minimum query.
///
/// Backed by `u64` words sized to the synchronizer's pulse bound; `min()` scans
/// words from a monotone hint that only ever moves right past removed pulses,
/// skipping 64 absent pulses per word.
#[derive(Clone, Debug, Default)]
pub struct PulseSet {
    words: Vec<u64>,
    count: usize,
    /// Lower bound on the smallest set pulse (a hint; never overshoots).
    first_hint: Cell<usize>,
}

impl PulseSet {
    /// Creates an empty set able to hold pulses `0 ..= bound` without resizing.
    pub fn with_bound(bound: u64) -> Self {
        let words = (bound as usize / 64) + 1;
        PulseSet { words: vec![0; words], count: 0, first_hint: Cell::new(0) }
    }

    /// Number of pulses in the set.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Inserts pulse `p`; returns `true` if it was not present. Grows if needed.
    pub fn insert(&mut self, p: u64) -> bool {
        let (w, bit) = (p as usize / 64, 1u64 << (p % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.count += 1;
        if (p as usize) < self.first_hint.get() {
            self.first_hint.set(p as usize);
        }
        true
    }

    /// Removes pulse `p`; returns `true` if it was present.
    pub fn remove(&mut self, p: u64) -> bool {
        if !self.contains(p) {
            return false;
        }
        self.words[p as usize / 64] &= !(1u64 << (p % 64));
        self.count -= 1;
        true
    }

    /// Whether pulse `p` is in the set.
    pub fn contains(&self, p: u64) -> bool {
        self.words.get(p as usize / 64).is_some_and(|w| w & (1u64 << (p % 64)) != 0)
    }

    /// The smallest pulse in the set.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let hint = self.first_hint.get();
        let mut w = hint / 64;
        // Bits below the hint are known clear; mask them off the first word.
        let mut word = self.words[w] & (!0u64 << (hint % 64));
        while word == 0 {
            w += 1;
            word = self.words[w];
        }
        let i = w * 64 + word.trailing_zeros() as usize;
        self.first_hint.set(i);
        Some(i as u64)
    }

    /// Iterates over the set pulses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    (w * 64 + bit) as u64
                })
            })
        })
    }

    /// Bytes of the bit words (their capacity, not their length).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_map_inserts_looks_up_and_removes() {
        let mut m: FlatMap<u64, &'static str> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(5, "FIVE"), Some("five"));
        assert_eq!(m.get(5), Some(&"FIVE"));
        assert_eq!(m.get(2), None);
        *m.get_mut(1).unwrap() = "ONE";
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![1, 5]);
        assert_eq!(m.remove(1), Some("ONE"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn flat_map_entry_like_access_defaults() {
        let mut m: FlatMap<(u64, u32), Vec<u64>> = FlatMap::new();
        m.get_mut_or_default((3, 1)).push(7);
        m.get_mut_or_default((3, 1)).push(8);
        assert_eq!(m.get((3, 1)), Some(&vec![7, 8]));
        let v = m.get_mut_or_insert_with((0, 0), || vec![42]);
        assert_eq!(v, &[42]);
    }

    #[test]
    fn pulse_set_tracks_minimum_through_churn() {
        let mut s = PulseSet::with_bound(10);
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        s.insert(7);
        s.insert(3);
        s.insert(5);
        assert_eq!(s.min(), Some(3));
        assert!(s.remove(3));
        assert_eq!(s.min(), Some(5));
        // Inserting below the hint must rewind it.
        s.insert(1);
        assert_eq!(s.min(), Some(1));
        assert!(!s.remove(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 7]);
        // Out-of-bound inserts grow the backing store.
        s.insert(64);
        assert!(s.contains(64));
    }

    #[test]
    fn pulse_set_packs_sixty_four_pulses_per_word() {
        assert_eq!(PulseSet::with_bound(63).heap_bytes(), 8);
        assert_eq!(PulseSet::with_bound(64).heap_bytes(), 16);
        assert_eq!(PulseSet::with_bound(2_049).heap_bytes(), 33 * 8);
    }

    #[test]
    fn pulse_set_matches_a_btree_set_oracle() {
        use std::collections::BTreeSet;
        let mut set = PulseSet::with_bound(100);
        let mut oracle = BTreeSet::new();
        let check = |set: &PulseSet, oracle: &BTreeSet<u64>, what: &str| {
            assert_eq!(set.min(), oracle.first().copied(), "{what}: min");
            assert_eq!(set.len(), oracle.len(), "{what}: len");
            assert_eq!(set.is_empty(), oracle.is_empty(), "{what}: is_empty");
            assert!(set.iter().eq(oracle.iter().copied()), "{what}: iter");
        };
        // Word edges, then past the bound (the set grows), then removals that
        // walk the minimum up across words.
        for p in [63, 64, 0, 127, 128, 100, 101, 250, 64] {
            assert_eq!(set.insert(p), oracle.insert(p), "insert {p}");
            check(&set, &oracle, &format!("after insert {p}"));
        }
        for p in [0, 0, 63, 200, 64, 100] {
            assert_eq!(set.remove(p), oracle.remove(&p), "remove {p}");
            check(&set, &oracle, &format!("after remove {p}"));
        }
        // A seeded random walk: inserts up to three times the bound, removals
        // of random pulses and of the current minimum.
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for step in 0..4_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let p = (x >> 33) % 300;
            match (x >> 20) % 4 {
                0 | 1 => assert_eq!(set.insert(p), oracle.insert(p), "step {step}"),
                2 => assert_eq!(set.remove(p), oracle.remove(&p), "step {step}"),
                _ => {
                    let min = set.min();
                    assert_eq!(min, oracle.pop_first(), "step {step}");
                    if let Some(m) = min {
                        assert!(set.remove(m));
                    }
                }
            }
            assert_eq!(set.contains(p), oracle.contains(&p), "step {step}: contains {p}");
            assert_eq!(set.min(), oracle.first().copied(), "step {step}: min");
        }
        check(&set, &oracle, "after the walk");
    }
}
