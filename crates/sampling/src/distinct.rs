//! Min-wise distinct sampling: a uniform sample of the *support* of the
//! stream (each distinct item equally likely), however skewed the
//! occurrence counts are.
//!
//! Keeps the `k` items with the smallest hash values — the same bottom-k
//! structure as the KMV cardinality sketch, but retaining the items
//! themselves. Duplicates hash identically, so re-occurrences are free.

use std::collections::BTreeMap;
use std::hash::Hash;

use sketches_core::{Clear, MergeSketch, SketchError, SketchResult, SpaceUsage, Update};
use sketches_hash::hash_item;
use sketches_hash::mix::mix64_seeded;

/// A bottom-k distinct sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSampler<T> {
    /// hash → item, keeping the k smallest hashes.
    mins: BTreeMap<u64, T>,
    k: usize,
    seed: u64,
}

impl<T: Hash + Eq + Clone> DistinctSampler<T> {
    /// Creates a sampler keeping `k >= 1` distinct items.
    ///
    /// # Errors
    /// Returns an error if `k == 0`.
    pub fn new(k: usize, seed: u64) -> SketchResult<Self> {
        if k == 0 {
            return Err(SketchError::invalid("k", "need k >= 1"));
        }
        Ok(Self {
            mins: BTreeMap::new(),
            k,
            seed,
        })
    }

    /// The sampled distinct items (uniform over the support).
    #[must_use]
    pub fn sample(&self) -> Vec<&T> {
        self.mins.values().collect()
    }

    /// Number of distinct items currently retained.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.mins.len()
    }

    /// Capacity `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl<T: Hash + Eq + Clone> Update<T> for DistinctSampler<T> {
    fn update(&mut self, item: &T) {
        let h = mix64_seeded(hash_item(item, 0xD157_13C7), self.seed);
        if self.mins.len() < self.k {
            self.mins.entry(h).or_insert_with(|| item.clone());
        } else {
            #[expect(
                clippy::expect_used,
                reason = "len >= k >= 1 on this branch, so the map is non-empty"
            )]
            let max_kept = *self.mins.keys().next_back().expect("non-empty");
            if h < max_kept {
                self.mins.entry(h).or_insert_with(|| item.clone());
                if self.mins.len() > self.k {
                    self.mins.remove(&max_kept);
                }
            }
        }
    }
}

impl<T> Clear for DistinctSampler<T> {
    fn clear(&mut self) {
        self.mins.clear();
    }
}

impl<T> SpaceUsage for DistinctSampler<T> {
    fn space_bytes(&self) -> usize {
        self.mins.len() * (std::mem::size_of::<T>() + std::mem::size_of::<u64>())
    }
}

impl<T: Hash + Eq + Clone> MergeSketch for DistinctSampler<T> {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.k != other.k {
            return Err(SketchError::incompatible("capacities differ"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        for (&h, item) in &other.mins {
            self.mins.entry(h).or_insert_with(|| item.clone());
        }
        while self.mins.len() > self.k {
            #[expect(
                clippy::expect_used,
                reason = "loop condition len > k >= 1 guarantees the map is non-empty"
            )]
            let max_kept = *self.mins.keys().next_back().expect("non-empty");
            self.mins.remove(&max_kept);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_does_not_bias_the_sample() {
        // Item 0 appears 10_000 times, items 1..100 once each. A uniform
        // *occurrence* sample would almost surely contain item 0; a distinct
        // sample contains it with probability k/100.
        let mut zero_in_sample = 0u32;
        let trials = 2_000u64;
        for t in 0..trials {
            let mut s = DistinctSampler::new(10, t).unwrap();
            for _ in 0..10_000 {
                s.update(&0u32);
            }
            for i in 1..100u32 {
                s.update(&i);
            }
            if s.sample().iter().any(|&&v| v == 0) {
                zero_in_sample += 1;
            }
        }
        let frac = f64::from(zero_in_sample) / trials as f64;
        assert!((frac - 0.1).abs() < 0.03, "item 0 in sample {frac:.3}");
    }

    #[test]
    fn exhaustive_below_k() {
        let mut s = DistinctSampler::new(100, 1).unwrap();
        for i in 0..50u32 {
            s.update(&i);
            s.update(&i);
        }
        assert_eq!(s.retained(), 50);
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = DistinctSampler::new(16, 2).unwrap();
        let mut b = DistinctSampler::new(16, 2).unwrap();
        let mut u = DistinctSampler::new(16, 2).unwrap();
        for i in 0..500u32 {
            a.update(&i);
            u.update(&i);
        }
        for i in 250..750u32 {
            b.update(&i);
            u.update(&i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, u);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = DistinctSampler::<u32>::new(4, 0).unwrap();
        assert!(a.merge(&DistinctSampler::new(8, 0).unwrap()).is_err());
        assert!(a.merge(&DistinctSampler::new(4, 1).unwrap()).is_err());
    }

    #[test]
    fn clear_and_space() {
        let mut s = DistinctSampler::new(4, 0).unwrap();
        s.update(&1u32);
        assert!(s.space_bytes() > 0);
        s.clear();
        assert_eq!(s.retained(), 0);
    }
}
