//! Linear Counting (Whang, Vander-Zanden & Taylor, 1990).
//!
//! Hashes each item to one of `m` bits and estimates the distinct count from
//! the fraction of bits still zero: `n̂ = −m · ln(V)` where `V` is the empty
//! fraction. Space is linear in the cardinality (hence the name) but the
//! constant is tiny, and at low *load factors* the estimator is extremely
//! accurate — which is exactly why HyperLogLog falls back to Linear Counting
//! for small cardinalities (see [`crate::hll`]).

use sketches_core::{
    CardinalityEstimator, Clear, MergeSketch, SketchError, SketchResult, SpaceUsage, Update,
};
use sketches_hash::bits::BitVec;
use sketches_hash::hash_item;
use sketches_hash::mix::{fastrange64, mix64_seeded};
use std::hash::Hash;

/// A Linear Counting sketch over `m` bits.
#[derive(Debug, Clone)]
pub struct LinearCounter {
    bits: BitVec,
    seed: u64,
}

impl LinearCounter {
    /// Creates a counter with `m` bits (`m >= 16`).
    ///
    /// # Errors
    /// Returns an error if `m < 16`.
    pub fn new(m: usize, seed: u64) -> SketchResult<Self> {
        if m < 16 {
            return Err(SketchError::invalid("m", "need at least 16 bits"));
        }
        Ok(Self {
            bits: BitVec::zeros(m),
            seed,
        })
    }

    /// Absorbs a pre-hashed item.
    #[inline]
    pub fn update_hash(&mut self, hash: u64) {
        let idx = fastrange64(mix64_seeded(hash, self.seed), self.bits.len() as u64);
        self.bits.set(idx as usize);
    }

    /// Number of bits in the table.
    #[must_use]
    pub fn num_bits(&self) -> usize {
        self.bits.len()
    }

    /// Fraction of bits still zero.
    #[must_use]
    pub fn empty_fraction(&self) -> f64 {
        1.0 - self.bits.count_ones() as f64 / self.bits.len() as f64
    }

    /// Whether the table has saturated (every bit set), at which point the
    /// estimator diverges and the result is clamped.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.bits.count_ones() == self.bits.len()
    }
}

impl<T: Hash + ?Sized> Update<T> for LinearCounter {
    fn update(&mut self, item: &T) {
        self.update_hash(hash_item(item, 0x11AC_0501));
    }
}

impl CardinalityEstimator for LinearCounter {
    fn estimate(&self) -> f64 {
        let m = self.bits.len() as f64;
        let v = self.empty_fraction();
        if v <= 0.0 {
            // Saturated: the best we can report is the coupon-collector
            // style upper bound m ln m.
            return m * m.ln();
        }
        -m * v.ln()
    }
}

impl Clear for LinearCounter {
    fn clear(&mut self) {
        self.bits.clear();
    }
}

impl SpaceUsage for LinearCounter {
    fn space_bytes(&self) -> usize {
        self.bits.space_bytes()
    }
}

impl MergeSketch for LinearCounter {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.bits.len() != other.bits.len() {
            return Err(SketchError::incompatible(format!(
                "bit-table sizes differ: {} vs {}",
                self.bits.len(),
                other.bits.len()
            )));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        self.bits.union_with(&other.bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_tiny_tables() {
        assert!(LinearCounter::new(8, 0).is_err());
        assert!(LinearCounter::new(16, 0).is_ok());
    }

    #[test]
    fn empty_estimates_zero() {
        let lc = LinearCounter::new(1024, 0).unwrap();
        assert_eq!(lc.estimate(), 0.0);
        assert_eq!(lc.empty_fraction(), 1.0);
    }

    #[test]
    fn accurate_at_moderate_load() {
        let mut lc = LinearCounter::new(1 << 16, 3).unwrap();
        let n = 20_000u64; // load factor ~0.3
        for i in 0..n {
            lc.update(&i);
        }
        let est = lc.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.02, "estimate {est} off by {rel:.4}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut lc = LinearCounter::new(4096, 5).unwrap();
        for i in 0..500u64 {
            for _ in 0..10 {
                lc.update(&i);
            }
        }
        let est = lc.estimate();
        let rel = (est - 500.0).abs() / 500.0;
        assert!(rel < 0.1, "estimate {est}");
    }

    #[test]
    fn saturation_is_clamped() {
        let mut lc = LinearCounter::new(16, 7).unwrap();
        for i in 0..10_000u64 {
            lc.update(&i);
        }
        assert!(lc.is_saturated());
        let est = lc.estimate();
        assert!(est.is_finite());
        assert!(est > 16.0);
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = LinearCounter::new(1 << 14, 9).unwrap();
        let mut b = LinearCounter::new(1 << 14, 9).unwrap();
        let mut whole = LinearCounter::new(1 << 14, 9).unwrap();
        for i in 0..2000u64 {
            a.update(&i);
            whole.update(&i);
        }
        for i in 1000..3000u64 {
            b.update(&i);
            whole.update(&i);
        }
        a.merge(&b).unwrap();
        // Identical seeds ⇒ the merged bitmap equals the union-stream bitmap
        // and so do the estimates, bit for bit.
        assert_eq!(a.estimate(), whole.estimate());
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = LinearCounter::new(64, 0).unwrap();
        let b = LinearCounter::new(128, 0).unwrap();
        assert!(a.merge(&b).is_err());
        let c = LinearCounter::new(64, 1).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut lc = LinearCounter::new(256, 2).unwrap();
        lc.update(&1u32);
        assert!(lc.estimate() > 0.0);
        lc.clear();
        assert_eq!(lc.estimate(), 0.0);
    }

    #[test]
    fn space_matches_bits() {
        let lc = LinearCounter::new(1 << 10, 0).unwrap();
        assert_eq!(lc.space_bytes(), 128);
    }
}
