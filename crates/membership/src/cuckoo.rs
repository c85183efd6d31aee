//! The Cuckoo filter (Fan, Andersen, Kaminsky & Mitzenmacher, CoNEXT 2014).
//!
//! Stores a short *fingerprint* of each key in a bucketized cuckoo hash
//! table. Each key has two candidate buckets related by
//! `i₂ = i₁ ⊕ hash(fingerprint)` (partial-key cuckoo hashing), so an entry
//! can be relocated knowing only its fingerprint. Compared to Bloom
//! filters, cuckoo filters support deletion and beat Bloom space below
//! ≈3% false-positive rates — the modern comparator in experiment E7.

use std::hash::Hash;

use sketches_core::{Clear, MembershipTester, SketchError, SketchResult, SpaceUsage, Update};
use sketches_hash::hash_item;
use sketches_hash::mix::{mix64, mix64_seeded};
use sketches_hash::rng::{Rng64, SplitMix64};

/// Slots per bucket (the paper's recommended b = 4).
const BUCKET_SLOTS: usize = 4;
/// Maximum displacement chain length before declaring the filter full.
const MAX_KICKS: usize = 500;

/// A cuckoo filter with 16-bit fingerprints and 4-slot buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuckooFilter {
    /// Flattened buckets; 0 encodes an empty slot.
    slots: Vec<u16>,
    /// Number of buckets (power of two so XOR addressing stays in range).
    buckets: usize,
    seed: u64,
    len: u64,
    rng: SplitMix64,
}

impl CuckooFilter {
    /// Creates a filter with at least `capacity` slots; the bucket count is
    /// rounded up to a power of two and sized at 95% target load.
    ///
    /// # Errors
    /// Returns an error if `capacity == 0`.
    pub fn with_capacity(capacity: usize, seed: u64) -> SketchResult<Self> {
        if capacity == 0 {
            return Err(SketchError::invalid("capacity", "must be positive"));
        }
        let needed = (capacity as f64 / 0.95).ceil() as usize;
        let buckets = needed.div_ceil(BUCKET_SLOTS).next_power_of_two();
        Ok(Self {
            slots: vec![0u16; buckets * BUCKET_SLOTS],
            buckets,
            seed,
            len: 0,
            rng: SplitMix64::new(seed ^ 0xC0C0_0C0C),
        })
    }

    /// Derives the (fingerprint, primary bucket) pair for a hash.
    #[inline]
    fn fingerprint_and_index(&self, hash: u64) -> (u16, usize) {
        let h = mix64_seeded(hash, self.seed);
        // Fingerprint from the high bits, never zero (zero = empty slot).
        let fp = ((h >> 48) as u16).max(1);
        let idx = (h as usize) & (self.buckets - 1);
        (fp, idx)
    }

    /// The alternate bucket for a fingerprint (partial-key cuckoo hashing).
    #[inline]
    fn alt_index(&self, idx: usize, fp: u16) -> usize {
        (idx ^ (mix64(u64::from(fp)) as usize)) & (self.buckets - 1)
    }

    fn bucket(&self, idx: usize) -> &[u16] {
        &self.slots[idx * BUCKET_SLOTS..(idx + 1) * BUCKET_SLOTS]
    }

    fn bucket_mut(&mut self, idx: usize) -> &mut [u16] {
        &mut self.slots[idx * BUCKET_SLOTS..(idx + 1) * BUCKET_SLOTS]
    }

    fn try_place(&mut self, idx: usize, fp: u16) -> bool {
        for slot in self.bucket_mut(idx) {
            if *slot == 0 {
                *slot = fp;
                return true;
            }
        }
        false
    }

    /// Inserts a pre-hashed key.
    ///
    /// # Errors
    /// Returns [`SketchError::CapacityExceeded`] when the displacement
    /// chain exceeds the kick limit (the filter is effectively full).
    pub fn insert_hash(&mut self, hash: u64) -> SketchResult<()> {
        let (mut fp, i1) = self.fingerprint_and_index(hash);
        let i2 = self.alt_index(i1, fp);
        if self.try_place(i1, fp) || self.try_place(i2, fp) {
            self.len += 1;
            return Ok(());
        }
        // Evict: random walk between the two candidate buckets.
        let mut idx = if self.rng.next_u64() & 1 == 0 { i1 } else { i2 };
        for _ in 0..MAX_KICKS {
            let victim_slot = self.rng.gen_range(BUCKET_SLOTS as u64) as usize;
            let bucket = self.bucket_mut(idx);
            std::mem::swap(&mut fp, &mut bucket[victim_slot]);
            idx = self.alt_index(idx, fp);
            if self.try_place(idx, fp) {
                self.len += 1;
                return Ok(());
            }
        }
        Err(SketchError::CapacityExceeded {
            reason: format!("cuckoo filter full after {MAX_KICKS} displacements"),
        })
    }

    /// Inserts `item`.
    ///
    /// # Errors
    /// Returns [`SketchError::CapacityExceeded`] when full; prefer sizing
    /// via [`CuckooFilter::with_capacity`] with headroom.
    pub fn insert<T: Hash + ?Sized>(&mut self, item: &T) -> SketchResult<()> {
        self.insert_hash(hash_item(item, 0xC0CC_00F1))
    }

    /// Tests a pre-hashed key.
    #[must_use]
    pub fn contains_hash(&self, hash: u64) -> bool {
        let (fp, i1) = self.fingerprint_and_index(hash);
        let i2 = self.alt_index(i1, fp);
        self.bucket(i1).contains(&fp) || self.bucket(i2).contains(&fp)
    }

    /// Removes one copy of a pre-hashed key; returns whether a fingerprint
    /// was found and removed. Only delete keys that were inserted.
    pub fn remove_hash(&mut self, hash: u64) -> bool {
        let (fp, i1) = self.fingerprint_and_index(hash);
        let i2 = self.alt_index(i1, fp);
        for idx in [i1, i2] {
            for slot in self.bucket_mut(idx) {
                if *slot == fp {
                    *slot = 0;
                    self.len -= 1;
                    return true;
                }
            }
        }
        false
    }

    /// Removes one copy of `item` (see [`Self::remove_hash`]).
    pub fn remove<T: Hash + ?Sized>(&mut self, item: &T) -> bool {
        self.remove_hash(hash_item(item, 0xC0CC_00F1))
    }

    /// Number of fingerprints currently stored.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the filter holds no fingerprints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current load factor.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / (self.buckets * BUCKET_SLOTS) as f64
    }
}

impl<T: Hash + ?Sized> Update<T> for CuckooFilter {
    /// Inserts, silently dropping the item if the filter is full (matching
    /// the lossy semantics of the `Update` trait); use
    /// [`CuckooFilter::insert`] to observe fullness.
    fn update(&mut self, item: &T) {
        let _ = self.insert(item);
    }
}

impl<T: Hash + ?Sized> MembershipTester<T> for CuckooFilter {
    fn contains(&self, item: &T) -> bool {
        self.contains_hash(hash_item(item, 0xC0CC_00F1))
    }
}

impl Clear for CuckooFilter {
    fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
    }
}

impl SpaceUsage for CuckooFilter {
    fn space_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_capacity() {
        assert!(CuckooFilter::with_capacity(0, 0).is_err());
    }

    #[test]
    fn insert_contains_roundtrip() {
        let mut f = CuckooFilter::with_capacity(10_000, 1).unwrap();
        for i in 0..10_000u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..10_000u64 {
            assert!(f.contains(&i), "false negative {i}");
        }
        assert_eq!(f.len(), 10_000);
    }

    #[test]
    fn false_positive_rate_low() {
        let n = 50_000u64;
        let mut f = CuckooFilter::with_capacity(n as usize, 2).unwrap();
        for i in 0..n {
            f.insert(&i).unwrap();
        }
        let trials = 100_000u64;
        let fps = (n..n + trials).filter(|i| f.contains(i)).count();
        let measured = fps as f64 / trials as f64;
        // 16-bit fingerprints, 2 buckets × 4 slots → theory ≈ 8/2^16 ≈ 0.00012.
        assert!(measured < 0.001, "cuckoo fpp {measured}");
    }

    #[test]
    fn delete_works_without_false_negatives() {
        let mut f = CuckooFilter::with_capacity(5_000, 3).unwrap();
        for i in 0..2_000u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..1_000u64 {
            assert!(f.remove(&i), "failed to remove {i}");
        }
        for i in 1_000..2_000u64 {
            assert!(f.contains(&i), "false negative after delete {i}");
        }
        let still: usize = (0..1_000u64).filter(|i| f.contains(i)).count();
        assert!(still < 5, "{still} deleted keys still claimed present");
        assert_eq!(f.len(), 1_000);
    }

    #[test]
    fn duplicate_inserts_supported_within_slot_budget() {
        let mut f = CuckooFilter::with_capacity(64, 4).unwrap();
        // 2 candidate buckets × 4 slots = up to 8 copies.
        for _ in 0..8 {
            f.insert("dup").unwrap();
        }
        for _ in 0..8 {
            assert!(f.remove("dup"));
        }
        assert!(!f.contains("dup"));
    }

    #[test]
    fn fills_to_high_load_then_errors() {
        let mut f = CuckooFilter::with_capacity(1000, 5).unwrap();
        let mut inserted = 0u64;
        let mut full = false;
        for i in 0..100_000u64 {
            match f.insert(&i) {
                Ok(()) => inserted += 1,
                Err(SketchError::CapacityExceeded { .. }) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(full, "filter should eventually fill");
        assert!(
            f.load_factor() > 0.9,
            "cuckoo should reach >90% load, got {:.3}",
            f.load_factor()
        );
        assert_eq!(f.len(), inserted);
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut f = CuckooFilter::with_capacity(100, 6).unwrap();
        assert!(!f.remove("never"));
    }

    #[test]
    fn clear_and_space() {
        let mut f = CuckooFilter::with_capacity(100, 7).unwrap();
        f.insert("a").unwrap();
        f.clear();
        assert!(!f.contains("a"));
        assert!(f.is_empty());
        assert!(f.space_bytes() >= 100 * 2);
    }
}
