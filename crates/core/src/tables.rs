//! Hardware-faithful lookup structures: pseudo-LRU replacement, a counting
//! Bloom filter (the paper's parallel lookup front-end), and the three
//! table organizations the schemes use — the DCS **ICSLT** (fully
//! associative, one error instance per tuple), the DCS **ACSLT**
//! (set-associative: errant pair selects the set, previous-cycle pairs fill
//! the ways) and Trident's **CET** (fully associative over EIDs).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Tree pseudo-LRU over a power-of-two (rounded up) number of slots — the
/// paper chooses pseudo-LRU to "harvest the benefit of LRU while avoiding
/// its complex hardware design" (§3.3.4).
#[derive(Debug, Clone)]
pub struct PseudoLru {
    slots: usize,
    /// One bit per internal node of the binary tree.
    bits: Vec<bool>,
}

impl PseudoLru {
    /// Create a pseudo-LRU tracker for `slots` entries.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "pseudo-LRU needs at least one slot");
        let leaves = slots.next_power_of_two();
        PseudoLru {
            slots,
            bits: vec![false; leaves.max(2) - 1],
        }
    }

    /// Number of tracked slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Mark `slot` as most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn touch(&mut self, slot: usize) {
        assert!(slot < self.slots, "slot {slot} out of range");
        let leaves = self.slots.next_power_of_two().max(2);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = slot >= mid;
            // Point the bit AWAY from the visited side.
            self.bits[node] = !go_right;
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    /// The victim slot the tree currently points at.
    pub fn victim(&self) -> usize {
        let leaves = self.slots.next_power_of_two().max(2);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = self.bits[node];
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Clamp into the valid range (non-power-of-two slot counts).
        lo.min(self.slots - 1)
    }
}

/// A counting Bloom filter with two hash functions: supports removal, so
/// the filter tracks the table contents exactly up to hash collisions.
/// Collisions surface as *false-positive* lookups — in DCS terms, an
/// unnecessary stall cycle (§3.3.5).
///
/// An item is addressed by its two counter indexes, from
/// [`indexes`](Self::indexes). A caller over a small, fixed key space
/// (DCS's error tags) computes them once per key and skips the hash on
/// every later access, as the hardware's hash logic works beside the
/// pipestage at no cost in cycles.
#[derive(Debug, Clone)]
pub struct CountingBloom {
    counters: Vec<u8>,
    mask: u64,
}

impl CountingBloom {
    /// Create a filter with `bits` counters.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is a power of two.
    pub fn new(bits: usize) -> Self {
        assert!(bits.is_power_of_two(), "bloom size must be a power of two");
        CountingBloom {
            counters: vec![0; bits],
            mask: bits as u64 - 1,
        }
    }

    /// The two counters `item` occupies: the filter's one hash definition.
    pub fn indexes<T: Hash>(&self, item: &T) -> (usize, usize) {
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        item.hash(&mut h1);
        let a = h1.finish();
        // Second hash: remix.
        let b = a
            .rotate_left(31)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        ((a & self.mask) as usize, (b & self.mask) as usize)
    }

    /// Insert the item at `(i, j)` (increments both counters,
    /// saturating).
    ///
    /// # Panics
    ///
    /// Panics if an index is not one [`indexes`](Self::indexes) returns.
    pub fn insert(&mut self, (i, j): (usize, usize)) {
        self.counters[i] = self.counters[i].saturating_add(1);
        self.counters[j] = self.counters[j].saturating_add(1);
    }

    /// Remove the item at `(i, j)`, previously inserted.
    ///
    /// # Panics
    ///
    /// Panics if an index is not one [`indexes`](Self::indexes) returns.
    pub fn remove(&mut self, (i, j): (usize, usize)) {
        self.counters[i] = self.counters[i].saturating_sub(1);
        self.counters[j] = self.counters[j].saturating_sub(1);
    }

    /// Membership test of the item at `(i, j)` (may return false
    /// positives, never false negatives for items still present).
    ///
    /// # Panics
    ///
    /// Panics if an index is not one [`indexes`](Self::indexes) returns.
    pub fn contains(&self, (i, j): (usize, usize)) -> bool {
        self.counters[i] > 0 && self.counters[j] > 0
    }
}

/// Statistics shared by the lookup tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Insertions performed.
    pub insertions: u64,
}

/// A bounded fully-associative table with pseudo-LRU replacement: the DCS
/// **ICSLT** (keyed by the full four-part tag) and Trident's **CET** (keyed
/// by the EID) are both instances of this structure.
#[derive(Debug, Clone)]
pub struct AssociativeTable<K: Eq + Hash + Clone, V: Clone> {
    capacity: usize,
    slots: Vec<Option<(K, V)>>,
    index: HashMap<K, usize>,
    lru: PseudoLru,
    stats: TableStats,
}

impl<K: Eq + Hash + Clone, V: Clone> AssociativeTable<K, V> {
    /// Create a table with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "table capacity must be nonzero");
        AssociativeTable {
            capacity,
            slots: vec![None; capacity],
            index: HashMap::with_capacity(capacity),
            lru: PseudoLru::new(capacity),
            stats: TableStats::default(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Look up a key, updating recency and hit/miss statistics.
    pub fn lookup(&mut self, key: &K) -> Option<&V> {
        match self.index.get(key) {
            Some(&slot) => {
                self.lru.touch(slot);
                self.stats.hits += 1;
                self.slots[slot].as_ref().map(|(_, v)| v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek without touching recency or statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index
            .get(key)
            .and_then(|&slot| self.slots[slot].as_ref().map(|(_, v)| v))
    }

    /// Insert (or update) an entry; returns the evicted entry, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.stats.insertions += 1;
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot] = Some((key, value));
            self.lru.touch(slot);
            return None;
        }
        // Find a free slot, or evict the pseudo-LRU victim.
        let (slot, evicted) = match self.slots.iter().position(Option::is_none) {
            Some(free) => (free, None),
            None => {
                let victim = self.lru.victim();
                let old = self.slots[victim]
                    .take()
                    .expect("full table has no empty victim");
                self.index.remove(&old.0);
                self.stats.evictions += 1;
                (victim, Some(old))
            }
        };
        self.index.insert(key.clone(), slot);
        self.slots[slot] = Some((key, value));
        self.lru.touch(slot);
        evicted
    }

    /// Lookup/eviction statistics.
    pub fn stats(&self) -> TableStats {
        self.stats
    }
}

/// The DCS **ACSLT**: a set-associative table where each tuple holds the
/// errant opcode+OWM pair once (the set key) and up to `ways`
/// previous-cycle pairs (the lines), eliminating the redundant storage of
/// recurring errant pairs (§3.3.3).
#[derive(Debug, Clone)]
pub struct SetAssociativeTable<S: Eq + Hash + Clone, W: Eq + Hash + Clone> {
    sets_capacity: usize,
    ways: usize,
    sets: AssociativeTable<S, SetEntry<W>>,
}

#[derive(Debug, Clone)]
struct SetEntry<W: Eq + Hash + Clone> {
    ways: Vec<W>,
    lru: PseudoLru,
}

impl<S: Eq + Hash + Clone, W: Eq + Hash + Clone> SetAssociativeTable<S, W> {
    /// Create a table with `sets` set tuples of `ways` lines each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        SetAssociativeTable {
            sets_capacity: sets,
            ways,
            sets: AssociativeTable::new(sets),
        }
    }

    /// Number of set tuples.
    pub fn sets(&self) -> usize {
        self.sets_capacity
    }

    /// Associativity (ways per set).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Whether `(set, way)` is present, updating recency + statistics.
    pub fn lookup(&mut self, set: &S, way: &W) -> bool {
        match self.sets.lookup(set) {
            Some(_) => {
                // Re-borrow mutably through a fresh index walk: the entry
                // exists; update way recency.
                let slot = *self.sets.index.get(set).expect("just hit");
                let entry = self.sets.slots[slot]
                    .as_mut()
                    .map(|(_, v)| v)
                    .expect("slot occupied");
                if let Some(pos) = entry.ways.iter().position(|w| w == way) {
                    entry.lru.touch(pos);
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    /// Insert a `(set, way)` association, evicting within the set (or an
    /// entire set tuple) as needed. Returns every `(set, way)` association
    /// displaced by the insertion, so callers can mirror evictions in a
    /// lookup filter.
    pub fn insert(&mut self, set: S, way: W) -> Vec<(S, W)> {
        let mut displaced: Vec<(S, W)> = Vec::new();
        let slot = match self.sets.index.get(&set) {
            Some(&s) => s,
            None => {
                if let Some((old_set, old_entry)) = self.sets.insert(
                    set.clone(),
                    SetEntry {
                        ways: Vec::with_capacity(self.ways),
                        lru: PseudoLru::new(self.ways),
                    },
                ) {
                    // A whole tuple was dropped: every way it held is gone.
                    displaced.extend(old_entry.ways.into_iter().map(|w| (old_set.clone(), w)));
                }
                *self.sets.index.get(&set).expect("just inserted")
            }
        };
        let ways = self.ways;
        let entry = self.sets.slots[slot]
            .as_mut()
            .map(|(_, v)| v)
            .expect("slot occupied");
        if let Some(pos) = entry.ways.iter().position(|w| *w == way) {
            entry.lru.touch(pos);
            return displaced;
        }
        if entry.ways.len() < ways {
            entry.ways.push(way);
            let pos = entry.ways.len() - 1;
            entry.lru.touch(pos);
        } else {
            let victim = entry.lru.victim();
            let old = std::mem::replace(&mut entry.ways[victim], way);
            displaced.push((set, old));
            entry.lru.touch(victim);
        }
        displaced
    }

    /// Lookup/eviction statistics of the set directory.
    pub fn stats(&self) -> TableStats {
        self.sets.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plru_victim_avoids_recent() {
        let mut lru = PseudoLru::new(4);
        lru.touch(0);
        lru.touch(1);
        let v = lru.victim();
        assert!(v == 2 || v == 3, "victim {v} must be an untouched slot");
        lru.touch(2);
        lru.touch(3);
        let v = lru.victim();
        assert!(v == 0 || v == 1);
    }

    #[test]
    fn plru_handles_non_power_of_two() {
        let mut lru = PseudoLru::new(5);
        for i in 0..5 {
            lru.touch(i);
            assert!(lru.victim() < 5);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plru_rejects_bad_slot() {
        PseudoLru::new(4).touch(4);
    }

    #[test]
    fn bloom_tracks_membership() {
        let mut b = CountingBloom::new(256);
        let x = b.indexes(&"x");
        assert!(!b.contains(x));
        b.insert(x);
        assert!(b.contains(x));
        b.remove(x);
        assert!(!b.contains(x));
    }

    #[test]
    fn bloom_false_positive_rate_is_low() {
        let mut b = CountingBloom::new(1024);
        for i in 0..64u32 {
            b.insert(b.indexes(&i));
        }
        let fp = (1000..3000u32).filter(|i| b.contains(b.indexes(i))).count();
        assert!(fp < 80, "false positives {fp} out of 2000");
    }

    #[test]
    fn table_lru_eviction() {
        let mut t: AssociativeTable<u32, u32> = AssociativeTable::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(t.lookup(&1), Some(&10)); // 1 becomes MRU
        let evicted = t.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)), "LRU entry 2 evicted");
        assert_eq!(t.peek(&1), Some(&10));
        assert_eq!(t.peek(&2), None);
        assert_eq!(t.peek(&3), Some(&30));
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn table_update_in_place() {
        let mut t: AssociativeTable<u32, u32> = AssociativeTable::new(2);
        t.insert(1, 10);
        assert_eq!(t.insert(1, 11), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.peek(&1), Some(&11));
    }

    #[test]
    fn table_stats_count_hits_misses() {
        let mut t: AssociativeTable<u32, ()> = AssociativeTable::new(4);
        t.insert(1, ());
        let _ = t.lookup(&1);
        let _ = t.lookup(&2);
        let s = t.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
    }

    #[test]
    fn set_assoc_basics() {
        let mut t: SetAssociativeTable<u8, u8> = SetAssociativeTable::new(2, 2);
        t.insert(1, 10);
        t.insert(1, 11);
        assert!(t.lookup(&1, &10));
        assert!(t.lookup(&1, &11));
        assert!(!t.lookup(&1, &12));
        assert!(!t.lookup(&2, &10));
        // Way eviction within set 1.
        assert!(t.lookup(&1, &10)); // 10 MRU
        t.insert(1, 12);
        assert!(t.lookup(&1, &10), "MRU way kept");
        assert!(!t.lookup(&1, &11), "LRU way evicted");
        assert!(t.lookup(&1, &12));
    }

    #[test]
    fn set_assoc_evicts_whole_sets() {
        let mut t: SetAssociativeTable<u8, u8> = SetAssociativeTable::new(2, 2);
        t.insert(1, 10);
        t.insert(2, 20);
        t.insert(3, 30); // evicts a whole set tuple
        let present = [1u8, 2, 3]
            .iter()
            .filter(|&&s| t.lookup(&s, &(s * 10)))
            .count();
        assert_eq!(present, 2);
        assert!(t.lookup(&3, &30), "new set present");
    }

    #[test]
    fn set_assoc_dedupes_errant_pairs() {
        // The whole point of the ACSLT: many ways under one set key.
        let mut t: SetAssociativeTable<u8, u32> = SetAssociativeTable::new(1, 16);
        for w in 0..16u32 {
            t.insert(7, w);
        }
        for w in 0..16u32 {
            assert!(t.lookup(&7, &w));
        }
    }
}
