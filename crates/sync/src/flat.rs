//! Flat, allocation-light containers for the synchronizers' per-node state.
//!
//! The synchronizer state that is keyed at all is keyed by pulses bounded by the
//! pulse bound `T(A)` — a node's few virtual nodes and received batches. At those
//! sizes, sorted vectors with binary search ([`FlatMap`]) and dense bit vectors
//! ([`PulseSet`]) beat `BTreeMap`/`BTreeSet` by a wide margin on the simulation hot
//! path, and keep the per-node memory contiguous. (Per-stage state is not keyed:
//! it lives in dense rows addressed by precomputed positions, DESIGN.md §3.4.)

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
}

impl<K: Ord + Copy, V: Default> FlatMap<K, V> {
    /// Returns the value for `key`, inserting a default if missing (the `entry(..)
    /// .or_default()` idiom).
    pub fn get_mut_or_default(&mut self, key: K) -> &mut V {
        self.get_mut_or_insert_with(key, V::default)
    }
}

/// A dense set of pulses `0 ..= bound`, with an `O(1)` amortized minimum query.
///
/// Backed by a bit vector sized to the synchronizer's pulse bound; `min()` scans
/// from a monotone hint that only ever moves right past removed pulses.
#[derive(Clone, Debug, Default)]
pub struct PulseSet {
    bits: Vec<bool>,
    count: usize,
    /// Lower bound on the smallest set pulse (a hint; never overshoots).
    first_hint: Cell<usize>,
}

impl PulseSet {
    /// Creates an empty set able to hold pulses `0 ..= bound` without resizing.
    pub fn with_bound(bound: u64) -> Self {
        PulseSet { bits: vec![false; bound as usize + 1], count: 0, first_hint: Cell::new(0) }
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
        let i = p as usize;
        if i >= self.bits.len() {
            self.bits.resize(i + 1, false);
        }
        if self.bits[i] {
            return false;
        }
        self.bits[i] = true;
        self.count += 1;
        if i < self.first_hint.get() {
            self.first_hint.set(i);
        }
        true
    }

    /// Removes pulse `p`; returns `true` if it was present.
    pub fn remove(&mut self, p: u64) -> bool {
        let i = p as usize;
        if i >= self.bits.len() || !self.bits[i] {
            return false;
        }
        self.bits[i] = false;
        self.count -= 1;
        true
    }

    /// Whether pulse `p` is in the set.
    pub fn contains(&self, p: u64) -> bool {
        let i = p as usize;
        i < self.bits.len() && self.bits[i]
    }

    /// The smallest pulse in the set.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let mut i = self.first_hint.get();
        while i < self.bits.len() && !self.bits[i] {
            i += 1;
        }
        self.first_hint.set(i);
        debug_assert!(i < self.bits.len(), "count is positive so a bit must be set");
        Some(i as u64)
    }

    /// Iterates over the set pulses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i as u64)
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
}
