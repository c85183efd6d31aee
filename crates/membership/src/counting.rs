//! The counting Bloom filter (Fan, Cao, Almeida & Broder, 1998).
//!
//! Replaces each bit with a small counter so that deletions become possible:
//! insert increments `k` counters, delete decrements them, and membership
//! asks whether all `k` are nonzero. Counters saturate at 255 and, once
//! saturated, are never decremented (the standard safety rule: decrementing
//! a saturated counter could create false negatives).

use std::hash::Hash;

use sketches_core::{
    Clear, MembershipTester, MergeSketch, SketchError, SketchResult, SpaceUsage, Update,
};
use sketches_hash::hash_item;
use sketches_hash::mix::fastrange64;

use crate::util::double_hash;

/// A counting Bloom filter with 8-bit saturating counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloomFilter {
    counters: Vec<u8>,
    k: u32,
    seed: u64,
}

impl CountingBloomFilter {
    /// Creates a filter with `slots` counters and `k` hash functions.
    ///
    /// # Errors
    /// Returns an error if `slots < 64` or `k` outside `1..=30`.
    pub fn new(slots: usize, k: u32, seed: u64) -> SketchResult<Self> {
        if slots < 64 {
            return Err(SketchError::invalid("slots", "need at least 64 counters"));
        }
        sketches_core::check_range("k", k, 1, 30)?;
        Ok(Self {
            counters: vec![0u8; slots],
            k,
            seed,
        })
    }

    #[inline]
    fn probe(&self, hash: u64, i: u32) -> usize {
        let (h1, h2) = double_hash(hash, self.seed);
        fastrange64(
            h1.wrapping_add(u64::from(i).wrapping_mul(h2)),
            self.counters.len() as u64,
        ) as usize
    }

    /// Inserts a pre-hashed key.
    pub fn insert_hash(&mut self, hash: u64) {
        for i in 0..self.k {
            let idx = self.probe(hash, i);
            self.counters[idx] = self.counters[idx].saturating_add(1);
        }
    }

    /// Removes one occurrence of a pre-hashed key.
    ///
    /// Only call for keys previously inserted; removing a never-inserted
    /// key can introduce false negatives for other keys. Saturated
    /// counters are left untouched.
    pub fn remove_hash(&mut self, hash: u64) {
        for i in 0..self.k {
            let idx = self.probe(hash, i);
            let c = self.counters[idx];
            if c > 0 && c < u8::MAX {
                self.counters[idx] = c - 1;
            }
        }
    }

    /// Tests a pre-hashed key.
    #[must_use]
    pub fn contains_hash(&self, hash: u64) -> bool {
        (0..self.k).all(|i| self.counters[self.probe(hash, i)] > 0)
    }

    /// Removes one occurrence of `item` (see [`Self::remove_hash`]).
    pub fn remove<T: Hash + ?Sized>(&mut self, item: &T) {
        self.remove_hash(hash_item(item, 0xB100_F11E));
    }

    /// Number of counter slots.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.counters.len()
    }

    /// Number of saturated (255) counters; deletions near saturation are
    /// unsafe, so production deployments monitor this.
    #[must_use]
    pub fn saturated_counters(&self) -> usize {
        self.counters.iter().filter(|&&c| c == u8::MAX).count()
    }
}

impl<T: Hash + ?Sized> Update<T> for CountingBloomFilter {
    fn update(&mut self, item: &T) {
        self.insert_hash(hash_item(item, 0xB100_F11E));
    }
}

impl<T: Hash + ?Sized> MembershipTester<T> for CountingBloomFilter {
    fn contains(&self, item: &T) -> bool {
        self.contains_hash(hash_item(item, 0xB100_F11E))
    }
}

impl Clear for CountingBloomFilter {
    fn clear(&mut self) {
        self.counters.fill(0);
    }
}

impl SpaceUsage for CountingBloomFilter {
    fn space_bytes(&self) -> usize {
        self.counters.len()
    }
}

impl MergeSketch for CountingBloomFilter {
    /// Merging adds counters slot-wise (saturating), matching the result of
    /// inserting both substreams into one filter.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.counters.len() != other.counters.len() || self.k != other.k {
            return Err(SketchError::incompatible("shape differs"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        for (a, &b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.saturating_add(b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(CountingBloomFilter::new(32, 3, 0).is_err());
        assert!(CountingBloomFilter::new(64, 0, 0).is_err());
    }

    #[test]
    fn insert_then_contains() {
        let mut f = CountingBloomFilter::new(4096, 4, 1).unwrap();
        for i in 0..500u64 {
            f.update(&i);
        }
        for i in 0..500u64 {
            assert!(f.contains(&i));
        }
    }

    #[test]
    fn delete_removes_membership() {
        let mut f = CountingBloomFilter::new(8192, 4, 2).unwrap();
        for i in 0..200u64 {
            f.update(&i);
        }
        for i in 0..100u64 {
            f.remove(&i);
        }
        // Removed keys should (almost always) be gone...
        let still: usize = (0..100u64).filter(|i| f.contains(i)).count();
        assert!(still < 5, "{still} deleted keys still present");
        // ...and remaining keys must all still be present (no false negatives).
        for i in 100..200u64 {
            assert!(f.contains(&i), "false negative after deletes for {i}");
        }
    }

    #[test]
    fn multiset_semantics() {
        let mut f = CountingBloomFilter::new(1024, 3, 3).unwrap();
        f.update("x");
        f.update("x");
        f.remove("x");
        assert!(f.contains("x"), "one copy should survive");
        f.remove("x");
        assert!(!f.contains("x"));
    }

    #[test]
    fn saturation_is_sticky() {
        let mut f = CountingBloomFilter::new(64, 1, 4).unwrap();
        for _ in 0..300 {
            f.update("hot");
        }
        assert!(f.saturated_counters() >= 1);
        // Decrements skip saturated counters, so the key stays present.
        for _ in 0..300 {
            f.remove("hot");
        }
        assert!(
            f.contains("hot"),
            "saturated counter must not be decremented"
        );
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = CountingBloomFilter::new(2048, 3, 5).unwrap();
        let mut b = CountingBloomFilter::new(2048, 3, 5).unwrap();
        a.update("only-a");
        b.update("only-b");
        b.update("shared");
        a.merge(&b).unwrap();
        assert!(a.contains("only-a"));
        assert!(a.contains("only-b"));
        assert!(a.contains("shared"));
        // After merge, removing "shared" once removes it (count 1).
        a.remove("shared");
        assert!(!a.contains("shared"));
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = CountingBloomFilter::new(128, 3, 0).unwrap();
        assert!(a
            .merge(&CountingBloomFilter::new(256, 3, 0).unwrap())
            .is_err());
        assert!(a
            .merge(&CountingBloomFilter::new(128, 2, 0).unwrap())
            .is_err());
        assert!(a
            .merge(&CountingBloomFilter::new(128, 3, 9).unwrap())
            .is_err());
    }

    #[test]
    fn clear_and_space() {
        let mut f = CountingBloomFilter::new(256, 2, 0).unwrap();
        f.update(&1u8);
        f.clear();
        assert!(!f.contains(&1u8));
        assert_eq!(f.space_bytes(), 256);
    }
}
