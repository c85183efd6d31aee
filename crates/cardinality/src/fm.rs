//! Flajolet–Martin probabilistic counting with stochastic averaging (PCSA,
//! 1983/1985).
//!
//! The first sublinear distinct counter: each item is hashed, the position
//! of its lowest set bit updates one of `m` bitmaps chosen by other hash
//! bits ("stochastic averaging"), and the estimate is
//! `(m / φ) · 2^{R̄}` where `R̄` is the mean position of the lowest *unset*
//! bit across bitmaps and `φ ≈ 0.77351` is the Flajolet–Martin magic
//! constant. Standard error is about `0.78/√m`.

use sketches_core::{
    CardinalityEstimator, Clear, MergeSketch, SketchError, SketchResult, SpaceUsage, Update,
};
use sketches_hash::bits::rho;
use sketches_hash::hash_item;
use sketches_hash::mix::mix64_seeded;
use std::hash::Hash;

/// The Flajolet–Martin correction constant φ.
const PHI: f64 = 0.77351;

/// PCSA: `m` Flajolet–Martin bitmaps with stochastic averaging.
#[derive(Debug, Clone)]
pub struct Pcsa {
    /// One 64-bit bitmap per stochastic-averaging bucket.
    bitmaps: Vec<u64>,
    /// log2 of the number of bitmaps.
    bucket_bits: u32,
    seed: u64,
}

impl Pcsa {
    /// Creates a PCSA sketch with `2^bucket_bits` bitmaps (`bucket_bits`
    /// in `1..=16`).
    ///
    /// # Errors
    /// Returns an error for `bucket_bits` outside `1..=16`.
    pub fn new(bucket_bits: u32, seed: u64) -> SketchResult<Self> {
        sketches_core::check_range("bucket_bits", bucket_bits, 1, 16)?;
        Ok(Self {
            bitmaps: vec![0u64; 1 << bucket_bits],
            bucket_bits,
            seed,
        })
    }

    /// Absorbs a pre-hashed item.
    #[inline]
    pub fn update_hash(&mut self, hash: u64) {
        let h = mix64_seeded(hash, self.seed);
        let bucket = (h >> (64 - self.bucket_bits)) as usize;
        let r = rho(h, 64 - self.bucket_bits);
        // rho is in 1..=width+1; bit positions are 0-based.
        let bit = u32::from(r - 1).min(63);
        self.bitmaps[bucket] |= 1u64 << bit;
    }

    /// Number of bitmaps.
    #[must_use]
    pub fn num_bitmaps(&self) -> usize {
        self.bitmaps.len()
    }

    /// Position of the lowest unset bit in bitmap `i` (the FM `R` value).
    fn lowest_zero(bitmap: u64) -> u32 {
        (!bitmap).trailing_zeros()
    }
}

impl<T: Hash + ?Sized> Update<T> for Pcsa {
    fn update(&mut self, item: &T) {
        self.update_hash(hash_item(item, 0xF1A7_013E));
    }
}

impl CardinalityEstimator for Pcsa {
    fn estimate(&self) -> f64 {
        let m = self.bitmaps.len() as f64;
        let mean_r: f64 = self
            .bitmaps
            .iter()
            .map(|&b| f64::from(Self::lowest_zero(b)))
            .sum::<f64>()
            / m;
        (m / PHI) * 2f64.powf(mean_r)
    }
}

impl Clear for Pcsa {
    fn clear(&mut self) {
        self.bitmaps.fill(0);
    }
}

impl SpaceUsage for Pcsa {
    fn space_bytes(&self) -> usize {
        self.bitmaps.len() * std::mem::size_of::<u64>()
    }
}

impl MergeSketch for Pcsa {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.bucket_bits != other.bucket_bits {
            return Err(SketchError::incompatible("bitmap counts differ"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        for (a, b) in self.bitmaps.iter_mut().zip(&other.bitmaps) {
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
        assert!(Pcsa::new(0, 0).is_err());
        assert!(Pcsa::new(17, 0).is_err());
        assert!(Pcsa::new(6, 0).is_ok());
    }

    #[test]
    fn lowest_zero_logic() {
        assert_eq!(Pcsa::lowest_zero(0b0), 0);
        assert_eq!(Pcsa::lowest_zero(0b1), 1);
        assert_eq!(Pcsa::lowest_zero(0b1011), 2);
        assert_eq!(Pcsa::lowest_zero(u64::MAX), 64);
    }

    #[test]
    fn estimate_within_theory() {
        // m = 256 bitmaps gives stderr ~0.78/16 ≈ 4.9%.
        let mut fm = Pcsa::new(8, 11).unwrap();
        let n = 200_000u64;
        for i in 0..n {
            fm.update(&i);
        }
        let est = fm.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.15, "estimate {est} off by {rel:.3}");
    }

    #[test]
    fn duplicates_ignored() {
        let mut a = Pcsa::new(6, 1).unwrap();
        let mut b = Pcsa::new(6, 1).unwrap();
        for i in 0..5_000u64 {
            a.update(&i);
            b.update(&i);
            b.update(&i);
            b.update(&i);
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Pcsa::new(7, 3).unwrap();
        let mut b = Pcsa::new(7, 3).unwrap();
        let mut u = Pcsa::new(7, 3).unwrap();
        for i in 0..10_000u64 {
            a.update(&i);
            u.update(&i);
        }
        for i in 5_000..15_000u64 {
            b.update(&i);
            u.update(&i);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.estimate(), u.estimate());
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = Pcsa::new(6, 0).unwrap();
        assert!(a.merge(&Pcsa::new(7, 0).unwrap()).is_err());
        assert!(a.merge(&Pcsa::new(6, 1).unwrap()).is_err());
    }

    #[test]
    fn clear_and_space() {
        let mut fm = Pcsa::new(5, 0).unwrap();
        fm.update(&1u8);
        fm.clear();
        assert_eq!(fm.bitmaps.iter().sum::<u64>(), 0);
        assert_eq!(fm.space_bytes(), 32 * 8);
    }
}
