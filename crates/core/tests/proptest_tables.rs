//! Randomized tests for the lookup structures: the CSLT/CET tables and the
//! counting Bloom filter must behave like their hardware contracts for
//! arbitrary access sequences.
//!
//! Formerly `proptest`-based; rewritten as seeded deterministic sweeps
//! (fixed-seed [`SplitMix64`] streams) so the workspace builds with zero
//! registry dependencies and every failure reproduces exactly.

use ntc_core::tables::{AssociativeTable, CountingBloom, PseudoLru, SetAssociativeTable};
use ntc_varmodel::rng::SplitMix64;
use std::collections::HashSet;

/// The associative table never exceeds its capacity and always retains the
/// most recent insertion.
#[test]
fn table_capacity_and_mru_retention() {
    let mut rng = SplitMix64::seed_from_u64(0x7AB1_0001);
    for case in 0..64 {
        let capacity = 1 + rng.gen_index(31);
        let n_keys = 1 + rng.gen_index(119);
        let keys: Vec<u32> = (0..n_keys).map(|_| rng.gen_index(64) as u32).collect();
        let mut t: AssociativeTable<u32, u32> = AssociativeTable::new(capacity);
        for &k in &keys {
            t.insert(k, k * 10);
            assert!(t.len() <= capacity, "case {case}");
            assert_eq!(
                t.peek(&k),
                Some(&(k * 10)),
                "case {case}: MRU entry present"
            );
        }
        let unique: HashSet<u32> = keys.iter().copied().collect();
        assert!(t.len() <= unique.len(), "case {case}");
    }
}

/// A counting Bloom filter that mirrors the table's inserts/evictions has
/// no false negatives for resident keys.
#[test]
fn bloom_mirrors_table_without_false_negatives() {
    let mut rng = SplitMix64::seed_from_u64(0x7AB1_0002);
    for case in 0..64 {
        let capacity = 1 + rng.gen_index(15);
        let n_keys = 1 + rng.gen_index(99);
        let keys: Vec<u32> = (0..n_keys).map(|_| rng.gen_index(48) as u32).collect();
        let mut t: AssociativeTable<u32, ()> = AssociativeTable::new(capacity);
        let mut bloom = CountingBloom::new(256);
        for &k in &keys {
            if t.peek(&k).is_none() {
                if let Some((evicted, ())) = t.insert(k, ()) {
                    bloom.remove(bloom.indexes(&evicted));
                }
                bloom.insert(bloom.indexes(&k));
            } else {
                let _ = t.lookup(&k);
            }
            // Every resident key must be bloom-positive.
            for probe in 0u32..48 {
                if t.peek(&probe).is_some() {
                    assert!(
                        bloom.contains(bloom.indexes(&probe)),
                        "case {case}: resident key {probe} lost"
                    );
                }
            }
        }
    }
}

/// Pseudo-LRU's victim is never the most recently touched slot (when more
/// than one slot exists).
#[test]
fn plru_victim_is_not_mru() {
    let mut rng = SplitMix64::seed_from_u64(0x7AB1_0003);
    for case in 0..64 {
        let slots = 2 + rng.gen_index(31);
        let n_touches = 1 + rng.gen_index(59);
        let mut lru = PseudoLru::new(slots);
        for _ in 0..n_touches {
            let slot = rng.gen_index(slots);
            lru.touch(slot);
            assert_ne!(
                lru.victim(),
                slot,
                "case {case}: victim must avoid the MRU slot"
            );
            assert!(lru.victim() < slots, "case {case}");
        }
    }
}

/// The set-associative table retains any (set, way) pair that was just
/// inserted, and every displaced pair it reports was really present.
#[test]
fn set_assoc_displacements_are_real() {
    let mut rng = SplitMix64::seed_from_u64(0x7AB1_0004);
    for case in 0..64 {
        let sets = 1 + rng.gen_index(7);
        let ways = 1 + rng.gen_index(7);
        let n_ops = 1 + rng.gen_index(79);
        let mut t: SetAssociativeTable<u8, u8> = SetAssociativeTable::new(sets, ways);
        let mut resident: HashSet<(u8, u8)> = HashSet::new();
        for _ in 0..n_ops {
            let s = rng.gen_index(12) as u8;
            let w = rng.gen_index(12) as u8;
            let displaced = t.insert(s, w);
            for d in &displaced {
                assert!(
                    resident.remove(d),
                    "case {case}: displaced {d:?} was resident"
                );
            }
            resident.insert((s, w));
            assert!(t.lookup(&s, &w), "case {case}: just-inserted pair resident");
            assert!(resident.len() <= sets * ways, "case {case}");
        }
        // Everything we believe resident must actually hit.
        for &(s, w) in &resident {
            assert!(
                t.lookup(&s, &w),
                "case {case}: tracked pair ({s},{w}) must hit"
            );
        }
    }
}

/// Bloom add/remove is fully reversible: after removing everything,
/// nothing ever inserted remains positive... up to counter saturation,
/// which the small insert counts here cannot reach.
#[test]
fn bloom_removal_is_complete() {
    let mut rng = SplitMix64::seed_from_u64(0x7AB1_0005);
    for case in 0..64 {
        let n_keys = rng.gen_index(40);
        let keys: Vec<u64> = (0..n_keys).map(|_| rng.gen_u64() % 1000).collect();
        let mut bloom = CountingBloom::new(512);
        for k in &keys {
            bloom.insert(bloom.indexes(k));
        }
        for k in &keys {
            bloom.remove(bloom.indexes(k));
        }
        for k in &keys {
            assert!(
                !bloom.contains(bloom.indexes(k)),
                "case {case}: key {k} should be fully removed"
            );
        }
    }
}
