//! The classic Bloom filter (Bloom, CACM 1970) and its partitioned variant.

use std::hash::Hash;

use sketches_core::{
    check_open_unit, Clear, MembershipTester, MergeSketch, SketchError, SketchResult, SpaceUsage,
    Update,
};
use sketches_hash::bits::BitVec;
use sketches_hash::hash_item;
use sketches_hash::mix::fastrange64;

use crate::util::double_hash;

/// Computes the optimal `(bits, hashes)` for `n` keys at false-positive
/// rate `fpp`: `m = −n·ln p / (ln 2)²`, `k = (m/n)·ln 2`.
fn optimal_params(n: usize, fpp: f64) -> (usize, u32) {
    let n = n.max(1) as f64;
    let ln2 = std::f64::consts::LN_2;
    let m = (-n * fpp.ln() / (ln2 * ln2)).ceil().max(64.0) as usize;
    let k = ((m as f64 / n) * ln2).round().clamp(1.0, 30.0) as u32;
    (m, k)
}

/// The classic `k`-hash Bloom filter over a single bit array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: BitVec,
    k: u32,
    seed: u64,
    items: u64,
}

impl BloomFilter {
    /// Creates a filter with an explicit number of bits and hash functions.
    ///
    /// # Errors
    /// Returns an error if `bits < 64` or `k` is outside `1..=30`.
    pub fn new(bits: usize, k: u32, seed: u64) -> SketchResult<Self> {
        if bits < 64 {
            return Err(SketchError::invalid("bits", "need at least 64 bits"));
        }
        sketches_core::check_range("k", k, 1, 30)?;
        Ok(Self {
            bits: BitVec::zeros(bits),
            k,
            seed,
            items: 0,
        })
    }

    /// Creates a filter sized for `expected_items` keys at false-positive
    /// rate `fpp` (e.g. `0.01`).
    ///
    /// # Errors
    /// Returns an error if `fpp` is not in `(0, 1)`.
    pub fn with_capacity(expected_items: usize, fpp: f64, seed: u64) -> SketchResult<Self> {
        check_open_unit("fpp", fpp, 0.0, 1.0)?;
        let (m, k) = optimal_params(expected_items, fpp);
        Self::new(m, k, seed)
    }

    /// Inserts a pre-hashed key.
    pub fn insert_hash(&mut self, hash: u64) {
        let (h1, h2) = double_hash(hash, self.seed);
        let m = self.bits.len() as u64;
        for i in 0..self.k {
            let idx = fastrange64(h1.wrapping_add(u64::from(i).wrapping_mul(h2)), m);
            self.bits.set(idx as usize);
        }
        self.items += 1;
    }

    /// Tests a pre-hashed key.
    #[must_use]
    pub fn contains_hash(&self, hash: u64) -> bool {
        let (h1, h2) = double_hash(hash, self.seed);
        let m = self.bits.len() as u64;
        (0..self.k).all(|i| {
            let idx = fastrange64(h1.wrapping_add(u64::from(i).wrapping_mul(h2)), m);
            self.bits.get(idx as usize)
        })
    }

    /// Number of bits `m`.
    #[must_use]
    pub fn num_bits(&self) -> usize {
        self.bits.len()
    }

    /// Number of hash functions `k`.
    #[must_use]
    pub fn num_hashes(&self) -> u32 {
        self.k
    }

    /// Insertions performed (an upper bound on distinct keys).
    #[must_use]
    pub fn items_inserted(&self) -> u64 {
        self.items
    }

    /// Fraction of bits set (the filter's load).
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.bits.count_ones() as f64 / self.bits.len() as f64
    }

    /// Theoretical false-positive probability after `n` insertions:
    /// `(1 − e^{−kn/m})^k`.
    #[must_use]
    pub fn theoretical_fpp(&self, n: u64) -> f64 {
        let m = self.bits.len() as f64;
        let k = f64::from(self.k);
        (1.0 - (-k * n as f64 / m).exp()).powf(k)
    }
}

impl<T: Hash + ?Sized> Update<T> for BloomFilter {
    fn update(&mut self, item: &T) {
        self.insert_hash(hash_item(item, 0xB100_F11E));
    }
}

impl<T: Hash + ?Sized> MembershipTester<T> for BloomFilter {
    fn contains(&self, item: &T) -> bool {
        self.contains_hash(hash_item(item, 0xB100_F11E))
    }
}

impl Clear for BloomFilter {
    fn clear(&mut self) {
        self.bits.clear();
        self.items = 0;
    }
}

impl SpaceUsage for BloomFilter {
    fn space_bytes(&self) -> usize {
        self.bits.space_bytes()
    }
}

impl MergeSketch for BloomFilter {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.bits.len() != other.bits.len() || self.k != other.k {
            return Err(SketchError::incompatible("shape differs"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        self.bits.union_with(&other.bits);
        self.items += other.items;
        Ok(())
    }
}

/// A partitioned Bloom filter: the bit array is split into `k` equal
/// partitions and each hash function sets one bit in its own partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedBloomFilter {
    bits: BitVec,
    k: u32,
    partition_bits: usize,
    seed: u64,
}

impl PartitionedBloomFilter {
    /// Creates a filter with `k` partitions of `partition_bits` bits each.
    ///
    /// # Errors
    /// Returns an error if `partition_bits < 8` or `k` outside `1..=30`.
    pub fn new(partition_bits: usize, k: u32, seed: u64) -> SketchResult<Self> {
        if partition_bits < 8 {
            return Err(SketchError::invalid(
                "partition_bits",
                "need at least 8 bits per partition",
            ));
        }
        sketches_core::check_range("k", k, 1, 30)?;
        Ok(Self {
            bits: BitVec::zeros(partition_bits * k as usize),
            k,
            partition_bits,
            seed,
        })
    }

    /// Inserts a pre-hashed key.
    pub fn insert_hash(&mut self, hash: u64) {
        let (h1, h2) = double_hash(hash, self.seed);
        for i in 0..self.k {
            let off = fastrange64(
                h1.wrapping_add(u64::from(i).wrapping_mul(h2)),
                self.partition_bits as u64,
            ) as usize;
            self.bits.set(i as usize * self.partition_bits + off);
        }
    }

    /// Tests a pre-hashed key.
    #[must_use]
    pub fn contains_hash(&self, hash: u64) -> bool {
        let (h1, h2) = double_hash(hash, self.seed);
        (0..self.k).all(|i| {
            let off = fastrange64(
                h1.wrapping_add(u64::from(i).wrapping_mul(h2)),
                self.partition_bits as u64,
            ) as usize;
            self.bits.get(i as usize * self.partition_bits + off)
        })
    }

    /// Total bits across all partitions.
    #[must_use]
    pub fn num_bits(&self) -> usize {
        self.bits.len()
    }
}

impl<T: Hash + ?Sized> Update<T> for PartitionedBloomFilter {
    fn update(&mut self, item: &T) {
        self.insert_hash(hash_item(item, 0xB100_F11E));
    }
}

impl<T: Hash + ?Sized> MembershipTester<T> for PartitionedBloomFilter {
    fn contains(&self, item: &T) -> bool {
        self.contains_hash(hash_item(item, 0xB100_F11E))
    }
}

impl Clear for PartitionedBloomFilter {
    fn clear(&mut self) {
        self.bits.clear();
    }
}

impl SpaceUsage for PartitionedBloomFilter {
    fn space_bytes(&self) -> usize {
        self.bits.space_bytes()
    }
}

impl MergeSketch for PartitionedBloomFilter {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.partition_bits != other.partition_bits || self.k != other.k {
            return Err(SketchError::incompatible("shape differs"));
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
    fn optimal_params_match_formulas() {
        let (m, k) = optimal_params(1000, 0.01);
        // m ≈ 9585, k ≈ 7.
        assert!((9000..10500).contains(&m), "m={m}");
        assert_eq!(k, 7);
        let (_, k) = optimal_params(1000, 0.001);
        assert_eq!(k, 10);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(BloomFilter::new(32, 3, 0).is_err());
        assert!(BloomFilter::new(64, 0, 0).is_err());
        assert!(BloomFilter::new(64, 31, 0).is_err());
        assert!(BloomFilter::with_capacity(100, 0.0, 0).is_err());
        assert!(BloomFilter::with_capacity(100, 1.0, 0).is_err());
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(5_000, 0.01, 1).unwrap();
        for i in 0..5_000u64 {
            f.update(&i);
        }
        for i in 0..5_000u64 {
            assert!(f.contains(&i), "false negative for {i}");
        }
    }

    #[test]
    fn measured_fpp_matches_theory() {
        let n = 10_000u64;
        let mut f = BloomFilter::with_capacity(n as usize, 0.01, 2).unwrap();
        for i in 0..n {
            f.update(&i);
        }
        let trials = 100_000u64;
        let fps = (n..n + trials).filter(|i| f.contains(i)).count();
        let measured = fps as f64 / trials as f64;
        let theory = f.theoretical_fpp(n);
        assert!(
            (measured - theory).abs() < 0.01,
            "measured {measured:.4} vs theory {theory:.4}"
        );
        assert!(measured < 0.02, "fpp {measured} too high for 1% target");
    }

    #[test]
    fn fill_ratio_near_half_at_design_load() {
        // At the design point the optimal filter is ~50% full.
        let n = 20_000;
        let mut f = BloomFilter::with_capacity(n, 0.01, 3).unwrap();
        for i in 0..n as u64 {
            f.update(&i);
        }
        let fill = f.fill_ratio();
        assert!((fill - 0.5).abs() < 0.03, "fill {fill}");
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = BloomFilter::new(1 << 14, 5, 4).unwrap();
        let mut b = BloomFilter::new(1 << 14, 5, 4).unwrap();
        let mut u = BloomFilter::new(1 << 14, 5, 4).unwrap();
        for i in 0..500u64 {
            a.update(&i);
            u.update(&i);
        }
        for i in 500..1000u64 {
            b.update(&i);
            u.update(&i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, u);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = BloomFilter::new(128, 3, 0).unwrap();
        assert!(a.merge(&BloomFilter::new(256, 3, 0).unwrap()).is_err());
        assert!(a.merge(&BloomFilter::new(128, 4, 0).unwrap()).is_err());
        assert!(a.merge(&BloomFilter::new(128, 3, 1).unwrap()).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(128, 2, 0).unwrap();
        f.update("x");
        assert!(f.contains("x"));
        f.clear();
        assert!(!f.contains("x"));
        assert_eq!(f.items_inserted(), 0);
    }

    #[test]
    fn partitioned_no_false_negatives() {
        let mut f = PartitionedBloomFilter::new(2048, 7, 5).unwrap();
        for i in 0..1_000u64 {
            f.update(&i);
        }
        for i in 0..1_000u64 {
            assert!(f.contains(&i));
        }
    }

    #[test]
    fn partitioned_fpp_reasonable() {
        // Same total bits as a classic filter; FPR should be in the same
        // ballpark (slightly worse).
        let n = 1_000u64;
        let mut f = PartitionedBloomFilter::new(1370, 7, 6).unwrap(); // ~9590 bits
        for i in 0..n {
            f.update(&i);
        }
        let trials = 50_000u64;
        let fps = (n..n + trials).filter(|i| f.contains(i)).count();
        let measured = fps as f64 / trials as f64;
        assert!(measured < 0.03, "partitioned fpp {measured}");
    }

    #[test]
    fn partitioned_merge_matches_union() {
        let mut a = PartitionedBloomFilter::new(512, 4, 7).unwrap();
        let mut b = PartitionedBloomFilter::new(512, 4, 7).unwrap();
        a.update(&1u32);
        b.update(&2u32);
        a.merge(&b).unwrap();
        assert!(a.contains(&1u32) && a.contains(&2u32));
        assert!(a
            .merge(&PartitionedBloomFilter::new(256, 4, 7).unwrap())
            .is_err());
    }

    #[test]
    fn space_reporting() {
        let f = BloomFilter::new(1 << 13, 5, 0).unwrap();
        assert_eq!(f.space_bytes(), 1024);
    }
}
