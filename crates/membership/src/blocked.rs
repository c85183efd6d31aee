//! The blocked Bloom filter (Putze, Sanders & Singler, 2009).
//!
//! Each key's `k` probe bits are confined to a single 64-byte block (one
//! cache line), so every operation costs exactly one memory access instead
//! of `k`. The price is a slightly higher false-positive rate because keys
//! mapped to the same block interfere more — the classic
//! throughput-vs-accuracy engineering trade-off the survey's "pushing out
//! code" section is about.

use std::hash::Hash;

use sketches_core::{
    Clear, MembershipTester, MergeSketch, SketchError, SketchResult, SpaceUsage, Update,
};
use sketches_hash::hash_item;
use sketches_hash::mix::fastrange64;

use crate::util::double_hash;

/// Words per block: 8 × u64 = 512 bits = one 64-byte cache line.
const WORDS_PER_BLOCK: usize = 8;

/// A cache-line-blocked Bloom filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedBloomFilter {
    words: Vec<u64>,
    blocks: usize,
    k: u32,
    seed: u64,
}

impl BlockedBloomFilter {
    /// Creates a filter with `blocks` 512-bit blocks and `k` probes per key.
    ///
    /// # Errors
    /// Returns an error if `blocks == 0` or `k` outside `1..=16`.
    pub fn new(blocks: usize, k: u32, seed: u64) -> SketchResult<Self> {
        if blocks == 0 {
            return Err(SketchError::invalid("blocks", "need at least one block"));
        }
        sketches_core::check_range("k", k, 1, 16)?;
        Ok(Self {
            words: vec![0u64; blocks * WORDS_PER_BLOCK],
            blocks,
            k,
            seed,
        })
    }

    /// Sizes the filter for `expected_items` at roughly `bits_per_key` bits
    /// per key (rounding the block count up).
    ///
    /// # Errors
    /// Returns an error if parameters produce zero blocks or invalid `k`.
    pub fn with_capacity(
        expected_items: usize,
        bits_per_key: usize,
        seed: u64,
    ) -> SketchResult<Self> {
        let total_bits = expected_items.max(1) * bits_per_key.max(1);
        let blocks = total_bits.div_ceil(512).max(1);
        // k ≈ bits_per_key · ln2, the classic optimum.
        let k = ((bits_per_key as f64) * std::f64::consts::LN_2)
            .round()
            .clamp(1.0, 16.0) as u32;
        Self::new(blocks, k, seed)
    }

    /// Returns (block index, probe bases): block from `h1`, within-block
    /// probes from the shared double-hash derivation (probe index starts
    /// at 1 because `h1` itself already chose the block).
    #[inline]
    fn locate(&self, hash: u64) -> (usize, u64, u64) {
        let (h1, h2) = double_hash(hash, self.seed);
        let block = fastrange64(h1, self.blocks as u64) as usize;
        (block, h1, h2)
    }

    /// Inserts a pre-hashed key.
    pub fn insert_hash(&mut self, hash: u64) {
        let (block, h1, h2) = self.locate(hash);
        let base = block * WORDS_PER_BLOCK;
        for i in 0..self.k {
            let bit = (h1.wrapping_add(u64::from(i + 1).wrapping_mul(h2)) % 512) as usize;
            self.words[base + bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Tests a pre-hashed key.
    #[must_use]
    pub fn contains_hash(&self, hash: u64) -> bool {
        let (block, h1, h2) = self.locate(hash);
        let base = block * WORDS_PER_BLOCK;
        (0..self.k).all(|i| {
            let bit = (h1.wrapping_add(u64::from(i + 1).wrapping_mul(h2)) % 512) as usize;
            self.words[base + bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Number of 512-bit blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks
    }
}

impl<T: Hash + ?Sized> Update<T> for BlockedBloomFilter {
    fn update(&mut self, item: &T) {
        self.insert_hash(hash_item(item, 0xB10C_B100));
    }
}

impl<T: Hash + ?Sized> MembershipTester<T> for BlockedBloomFilter {
    fn contains(&self, item: &T) -> bool {
        self.contains_hash(hash_item(item, 0xB10C_B100))
    }
}

impl Clear for BlockedBloomFilter {
    fn clear(&mut self) {
        self.words.fill(0);
    }
}

impl SpaceUsage for BlockedBloomFilter {
    fn space_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

impl MergeSketch for BlockedBloomFilter {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.blocks != other.blocks || self.k != other.k {
            return Err(SketchError::incompatible("shape differs"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(BlockedBloomFilter::new(0, 4, 0).is_err());
        assert!(BlockedBloomFilter::new(4, 0, 0).is_err());
        assert!(BlockedBloomFilter::new(4, 17, 0).is_err());
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BlockedBloomFilter::with_capacity(10_000, 10, 1).unwrap();
        for i in 0..10_000u64 {
            f.update(&i);
        }
        for i in 0..10_000u64 {
            assert!(f.contains(&i), "false negative {i}");
        }
    }

    #[test]
    fn fpp_reasonable_at_ten_bits_per_key() {
        let n = 20_000u64;
        let mut f = BlockedBloomFilter::with_capacity(n as usize, 10, 2).unwrap();
        for i in 0..n {
            f.update(&i);
        }
        let trials = 100_000u64;
        let fps = (n..n + trials).filter(|i| f.contains(i)).count();
        let measured = fps as f64 / trials as f64;
        // Classic filter would be ~0.9%; blocked pays a modest penalty.
        assert!(measured < 0.03, "blocked fpp {measured}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = BlockedBloomFilter::new(64, 6, 3).unwrap();
        let mut b = BlockedBloomFilter::new(64, 6, 3).unwrap();
        let mut u = BlockedBloomFilter::new(64, 6, 3).unwrap();
        for i in 0..200u64 {
            a.update(&i);
            u.update(&i);
        }
        for i in 200..400u64 {
            b.update(&i);
            u.update(&i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, u);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = BlockedBloomFilter::new(8, 4, 0).unwrap();
        assert!(a
            .merge(&BlockedBloomFilter::new(16, 4, 0).unwrap())
            .is_err());
        assert!(a.merge(&BlockedBloomFilter::new(8, 5, 0).unwrap()).is_err());
        assert!(a.merge(&BlockedBloomFilter::new(8, 4, 7).unwrap()).is_err());
    }

    #[test]
    fn clear_and_space() {
        let mut f = BlockedBloomFilter::new(16, 4, 0).unwrap();
        f.update("k");
        f.clear();
        assert!(!f.contains("k"));
        assert_eq!(f.space_bytes(), 16 * 64);
    }
}
