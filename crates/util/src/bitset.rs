//! A compact fixed-capacity bit set.
//!
//! Used throughout the workspace for rumor sets (gossiping), visited sets
//! (BFS) and informed/active bookkeeping in the simulation engine. The hot
//! operations — [`BitSet::insert`], [`BitSet::contains`],
//! [`BitSet::union_with`] — are branch-light and operate on `u64` words, so
//! joining two rumor sets of `n` rumors costs `n/64` word ORs (the paper's
//! gossip model assumes joined messages are sent in one time step; the
//! simulator still has to pay the memory traffic, so this matters for the
//! `d log n`-round gossip runs).

/// A fixed-capacity set of `usize` keys in `0..capacity`, backed by `u64`
/// words.
#[derive(Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
    /// Cached population count, maintained incrementally by `insert` /
    /// `remove` / `union_with` so `len()` is O(1).
    len: usize,
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitSet")
            .field("capacity", &self.capacity)
            .field("len", &self.len)
            .finish()
    }
}

impl BitSet {
    /// An empty set able to hold keys `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0u64; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// A set containing every key in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        s.trim_tail();
        s.len = capacity;
        s
    }

    /// Zero out the bits beyond `capacity` in the last word.
    fn trim_tail(&mut self) {
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Maximum key + 1.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently in the set. O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no key is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if every key in `0..capacity` is present.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Insert `key`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `key >= capacity`.
    #[inline]
    pub fn insert(&mut self, key: usize) -> bool {
        assert!(
            key < self.capacity,
            "key {key} out of capacity {}",
            self.capacity
        );
        let (w, b) = (key / 64, key % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Remove `key`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, key: usize) -> bool {
        assert!(
            key < self.capacity,
            "key {key} out of capacity {}",
            self.capacity
        );
        let (w, b) = (key / 64, key % 64);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= present as usize;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        if key >= self.capacity {
            return false;
        }
        let (w, b) = (key / 64, key % 64);
        self.words[w] & (1u64 << b) != 0
    }

    /// `self ← self ∪ other`. Returns the number of newly added keys.
    ///
    /// This is the gossip "join" operation from the paper's §3: a node
    /// merges every incoming message's rumor set into its own.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> usize {
        assert_eq!(
            self.capacity, other.capacity,
            "union of bit sets with different capacities"
        );
        let mut added = 0usize;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let before = a.count_ones();
            *a |= *b;
            added += (a.count_ones() - before) as usize;
        }
        self.len += added;
        added
    }

    /// True if every key of `self` is also in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Remove all keys.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
        self.len = 0;
    }

    /// Iterate over the present keys in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is `max(keys) + 1` (or 0 when empty).
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let keys: Vec<usize> = iter.into_iter().collect();
        let cap = keys.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for k in keys {
            s.insert(k);
        }
        s
    }
}

/// Ascending-order iterator over present keys.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(200);
        assert!(!s.contains(5));
        assert!(s.insert(5));
        assert!(!s.insert(5), "double insert must report not-fresh");
        assert!(s.contains(5));
        assert_eq!(s.len(), 1);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn full_has_everything_and_trimmed_tail() {
        for cap in [0usize, 1, 63, 64, 65, 130] {
            let s = BitSet::full(cap);
            assert_eq!(s.len(), cap, "cap={cap}");
            assert!(s.is_full());
            for k in 0..cap {
                assert!(s.contains(k));
            }
            // Keys beyond capacity must never appear as members.
            assert!(!s.contains(cap));
        }
    }

    #[test]
    fn union_counts_added() {
        let mut a = BitSet::new(100);
        a.insert(1);
        a.insert(50);
        let mut b = BitSet::new(100);
        b.insert(50);
        b.insert(99);
        let added = a.union_with(&b);
        assert_eq!(added, 1);
        assert_eq!(a.len(), 3);
        assert!(a.contains(99));
    }

    #[test]
    fn iter_yields_sorted_keys() {
        let mut s = BitSet::new(300);
        for k in [250, 3, 64, 65, 0, 128] {
            s.insert(k);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 64, 65, 128, 250]);
    }

    #[test]
    fn subset_and_intersection() {
        let a: BitSet = [1usize, 2, 3].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        b.insert(1);
        b.insert(3);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::full(77);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }
}
