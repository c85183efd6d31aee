//! KMV / bottom-k distinct-count sketch (Bar-Yossef et al. 2002 lineage;
//! the basis of the Apache DataSketches "theta sketch").
//!
//! Keeps the `k` smallest distinct hash values seen. With `U_{(k)}` the
//! k-th smallest hash mapped to `(0,1)`, the estimator `(k−1)/U_{(k)}` is
//! unbiased with relative standard error `≈ 1/√(k−2)`. Unlike register
//! sketches, KMV supports *set algebra*: union (merge the sample sets) and
//! Jaccard/intersection estimation (compare membership below the common
//! threshold θ), which is what makes it the workhorse for the
//! slice-and-dice advertising analytics of experiment E8.

use std::collections::BTreeSet;
use std::hash::Hash;

use sketches_core::{
    CardinalityEstimator, Clear, MergeSketch, SketchError, SketchResult, SpaceUsage, Update,
};
use sketches_hash::hash_item;
use sketches_hash::mix::mix64_seeded;

/// A KMV (bottom-k) sketch keeping the `k` minimum hash values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmvSketch {
    k: usize,
    seed: u64,
    /// The k smallest distinct hashes seen so far (ordered).
    mins: BTreeSet<u64>,
}

impl KmvSketch {
    /// Creates a sketch keeping the `k >= 8` smallest hashes.
    ///
    /// # Errors
    /// Returns an error if `k < 8`.
    pub fn new(k: usize, seed: u64) -> SketchResult<Self> {
        if k < 8 {
            return Err(SketchError::invalid("k", "need k >= 8"));
        }
        Ok(Self {
            k,
            seed,
            mins: BTreeSet::new(),
        })
    }

    /// Absorbs a pre-hashed item.
    pub fn update_hash(&mut self, hash: u64) {
        let h = mix64_seeded(hash, self.seed);
        if self.mins.len() < self.k {
            self.mins.insert(h);
        } else {
            #[expect(
                clippy::expect_used,
                reason = "len >= k >= 1 on this branch, so the set is non-empty"
            )]
            let current_max = *self.mins.iter().next_back().expect("non-empty");
            if h < current_max && self.mins.insert(h) {
                self.mins.remove(&current_max);
            }
        }
    }

    /// The sample size parameter `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current threshold θ: the largest retained hash normalized to
    /// `(0, 1]`, or 1.0 while fewer than `k` values are held.
    #[must_use]
    pub fn theta(&self) -> f64 {
        if self.mins.len() < self.k {
            1.0
        } else {
            #[expect(
                clippy::expect_used,
                reason = "len >= k >= 1 on this branch, so the set is non-empty"
            )]
            let kth = *self.mins.iter().next_back().expect("non-empty");
            normalize(kth)
        }
    }

    /// Theoretical relative standard error `1/√(k−2)`.
    #[must_use]
    pub fn theoretical_rse(&self) -> f64 {
        1.0 / ((self.k as f64) - 2.0).sqrt()
    }

    /// Number of hashes currently retained.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.mins.len()
    }

    /// Whether `hash` (pre-mixed) is in the retained sample.
    fn contains_mixed(&self, h: u64) -> bool {
        self.mins.contains(&h)
    }
}

/// Maps a hash to `(0, 1]` (0 is excluded to keep the estimator finite).
fn normalize(h: u64) -> f64 {
    (h as f64 + 1.0) / (u64::MAX as f64 + 1.0)
}

impl<T: Hash + ?Sized> Update<T> for KmvSketch {
    fn update(&mut self, item: &T) {
        // Domain-separated from the HLL family: a KMV and an HLL built
        // with the same instance seed must not consume identical hash
        // streams (their errors would correlate in side-by-side use).
        self.update_hash(hash_item(item, 0x6B6D_755E));
    }
}

impl CardinalityEstimator for KmvSketch {
    fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            // Below k distinct values the sample is exhaustive: exact count.
            self.mins.len() as f64
        } else {
            #[expect(
                clippy::expect_used,
                reason = "len >= k >= 1 on this branch, so the set is non-empty"
            )]
            let kth = *self.mins.iter().next_back().expect("non-empty");
            (self.k as f64 - 1.0) / normalize(kth)
        }
    }
}

impl Clear for KmvSketch {
    fn clear(&mut self) {
        self.mins.clear();
    }
}

impl SpaceUsage for KmvSketch {
    fn space_bytes(&self) -> usize {
        self.mins.len() * std::mem::size_of::<u64>()
    }
}

impl MergeSketch for KmvSketch {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.k != other.k {
            return Err(SketchError::incompatible("k differs"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        for &h in &other.mins {
            self.mins.insert(h);
        }
        while self.mins.len() > self.k {
            #[expect(
                clippy::expect_used,
                reason = "loop condition len > k >= 1 guarantees the set is non-empty"
            )]
            let max = *self.mins.iter().next_back().expect("non-empty");
            self.mins.remove(&max);
        }
        Ok(())
    }
}

/// Estimates the Jaccard similarity `|A∩B| / |A∪B|` of the two sketched
/// sets, θ-sketch style: among the `k` smallest hashes of the union, count
/// how many appear in both sketches.
///
/// # Errors
/// Returns an error if the sketches are incompatible.
pub fn jaccard(a: &KmvSketch, b: &KmvSketch) -> SketchResult<f64> {
    let mut union = a.clone();
    union.merge(b)?;
    if union.mins.is_empty() {
        return Ok(0.0);
    }
    let common = union
        .mins
        .iter()
        .filter(|&&h| a.contains_mixed(h) && b.contains_mixed(h))
        .count();
    Ok(common as f64 / union.mins.len() as f64)
}

/// Estimates `|A ∩ B|` as `Jaccard · |A ∪ B|`.
///
/// # Errors
/// Returns an error if the sketches are incompatible.
pub fn intersection_estimate(a: &KmvSketch, b: &KmvSketch) -> SketchResult<f64> {
    let mut union = a.clone();
    union.merge(b)?;
    Ok(jaccard(a, b)? * union.estimate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_small_k() {
        assert!(KmvSketch::new(4, 0).is_err());
        assert!(KmvSketch::new(8, 0).is_ok());
    }

    #[test]
    fn exact_below_k() {
        let mut s = KmvSketch::new(64, 1).unwrap();
        for i in 0..40u64 {
            s.update(&i);
            s.update(&i);
        }
        assert_eq!(s.estimate(), 40.0);
        assert_eq!(s.theta(), 1.0);
    }

    #[test]
    fn estimate_within_theory() {
        let mut s = KmvSketch::new(1024, 2).unwrap();
        let n = 200_000u64;
        for i in 0..n {
            s.update(&i);
        }
        let rel = (s.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 4.0 * s.theoretical_rse(), "rel {rel:.4}");
    }

    #[test]
    fn retains_at_most_k() {
        let mut s = KmvSketch::new(16, 3).unwrap();
        for i in 0..10_000u64 {
            s.update(&i);
        }
        assert_eq!(s.retained(), 16);
        assert!(s.theta() < 1.0);
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = KmvSketch::new(128, 4).unwrap();
        let mut b = KmvSketch::new(128, 4).unwrap();
        let mut u = KmvSketch::new(128, 4).unwrap();
        for i in 0..5_000u64 {
            a.update(&i);
            u.update(&i);
        }
        for i in 2_500..7_500u64 {
            b.update(&i);
            u.update(&i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, u);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = KmvSketch::new(16, 0).unwrap();
        assert!(a.merge(&KmvSketch::new(32, 0).unwrap()).is_err());
        assert!(a.merge(&KmvSketch::new(16, 5).unwrap()).is_err());
    }

    #[test]
    fn jaccard_estimate_close() {
        // |A| = 30k, |B| = 30k, |A∩B| = 10k, |A∪B| = 50k → J = 0.2.
        let mut a = KmvSketch::new(2048, 5).unwrap();
        let mut b = KmvSketch::new(2048, 5).unwrap();
        for i in 0..30_000u64 {
            a.update(&i);
        }
        for i in 20_000..50_000u64 {
            b.update(&i);
        }
        let j = jaccard(&a, &b).unwrap();
        assert!((j - 0.2).abs() < 0.04, "jaccard {j}");
        let inter = intersection_estimate(&a, &b).unwrap();
        let rel = (inter - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.2, "intersection {inter}");
    }

    #[test]
    fn jaccard_disjoint_sets_is_near_zero() {
        let mut a = KmvSketch::new(256, 6).unwrap();
        let mut b = KmvSketch::new(256, 6).unwrap();
        for i in 0..10_000u64 {
            a.update(&i);
        }
        for i in 10_000..20_000u64 {
            b.update(&i);
        }
        assert!(jaccard(&a, &b).unwrap() < 0.02);
    }

    #[test]
    fn jaccard_identical_sets_is_one() {
        let mut a = KmvSketch::new(64, 7).unwrap();
        let mut b = KmvSketch::new(64, 7).unwrap();
        for i in 0..1_000u64 {
            a.update(&i);
            b.update(&i);
        }
        assert_eq!(jaccard(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn clear_and_space() {
        let mut s = KmvSketch::new(32, 8).unwrap();
        for i in 0..100u64 {
            s.update(&i);
        }
        assert_eq!(s.space_bytes(), 32 * 8);
        s.clear();
        assert_eq!(s.estimate(), 0.0);
        assert_eq!(s.space_bytes(), 0);
    }
}
