//! The Count sketch (Charikar, Chen & Farach-Colton, ICALP 2002).
//!
//! Each of `d` rows hashes items into `w` buckets *with a ±1 sign*, and a
//! point query returns the **median** over rows of `sign(i) · counter`.
//! The estimate is unbiased with error `O(‖f‖₂/√w)` — an `L2` guarantee that
//! beats Count-Min's `L1` bound on flat (low-skew) streams, the trade-off
//! experiment E4 reproduces. The survey notes the Count sketch "was proposed
//! by academic visitors to Google" and later became the basis of sparse
//! Johnson–Lindenstrauss transforms (see `sketches-linalg`).

use std::hash::Hash;

use sketches_core::{Clear, MergeSketch, SketchError, SketchResult, SpaceUsage, Update};
use sketches_hash::family::{KWiseHash, SignHash};
use sketches_hash::hash_item;
use sketches_hash::rng::SplitMix64;

/// A Count sketch with `depth` rows of `width` signed counters.
#[derive(Debug, Clone)]
pub struct CountSketch {
    counters: Vec<i64>,
    width: usize,
    depth: usize,
    seed: u64,
    bucket_hashes: Vec<KWiseHash>,
    sign_hashes: Vec<SignHash>,
    total_weight: i64,
}

impl CountSketch {
    /// Creates a sketch with `depth` rows (odd recommended, for the median)
    /// of `width` counters.
    ///
    /// # Errors
    /// Returns an error if `width < 2` or `depth` outside `1..=32`.
    pub fn new(width: usize, depth: usize, seed: u64) -> SketchResult<Self> {
        if width < 2 {
            return Err(SketchError::invalid("width", "need width >= 2"));
        }
        sketches_core::check_range("depth", depth, 1, 32)?;
        let mut rng = SplitMix64::new(seed ^ 0xC0C7_5CE7);
        let bucket_hashes = (0..depth).map(|_| KWiseHash::random(2, &mut rng)).collect();
        let sign_hashes = (0..depth).map(|_| SignHash::random(&mut rng)).collect();
        Ok(Self {
            counters: vec![0i64; width * depth],
            width,
            depth,
            seed,
            bucket_hashes,
            sign_hashes,
            total_weight: 0,
        })
    }

    /// Adds `weight` (possibly negative — deletions are supported, this is
    /// a linear sketch) occurrences of a pre-hashed item.
    pub fn update_hash(&mut self, hash: u64, weight: i64) {
        for row in 0..self.depth {
            let bucket = self.bucket_hashes[row].hash_range(hash, self.width as u64) as usize;
            let sign = self.sign_hashes[row].sign(hash);
            self.counters[row * self.width + bucket] += sign * weight;
        }
        self.total_weight += weight;
    }

    /// Unbiased point estimate for a pre-hashed item: median over rows.
    #[must_use]
    pub fn estimate_hash(&self, hash: u64) -> i64 {
        let mut row_estimates: Vec<i64> = (0..self.depth)
            .map(|row| {
                let bucket = self.bucket_hashes[row].hash_range(hash, self.width as u64) as usize;
                self.sign_hashes[row].sign(hash) * self.counters[row * self.width + bucket]
            })
            .collect();
        sketches_core::median_i64(&mut row_estimates)
    }

    /// Adds `weight` occurrences of `item`.
    pub fn update_weighted<T: Hash + ?Sized>(&mut self, item: &T, weight: i64) {
        self.update_hash(hash_item(item, 0xC057_0311), weight);
    }

    /// Signed point estimate for `item`.
    #[must_use]
    pub fn estimate<T: Hash + ?Sized>(&self, item: &T) -> i64 {
        self.estimate_hash(hash_item(item, 0xC057_0311))
    }

    /// Per-row `(column, counter value, sign)` triples for `item` — the raw
    /// measurements behind the median-query. Used by wrappers that
    /// post-process counters (e.g. the differentially-private sketch).
    #[must_use]
    pub fn row_components<T: Hash + ?Sized>(&self, item: &T) -> Vec<(usize, i64, i64)> {
        let hash = hash_item(item, 0xC057_0311);
        (0..self.depth)
            .map(|row| {
                let col = self.bucket_hashes[row].hash_range(hash, self.width as u64) as usize;
                (
                    col,
                    self.counters[row * self.width + col],
                    self.sign_hashes[row].sign(hash),
                )
            })
            .collect()
    }

    /// Estimate of the second frequency moment `F₂ = ‖f‖₂²`: the median
    /// over rows of the row's sum of squared counters (each row is an AMS
    /// estimator).
    #[must_use]
    pub fn f2_estimate(&self) -> f64 {
        let mut row_f2: Vec<f64> = (0..self.depth)
            .map(|row| {
                self.counters[row * self.width..(row + 1) * self.width]
                    .iter()
                    .map(|&c| (c as f64) * (c as f64))
                    .sum()
            })
            .collect();
        sketches_core::median_f64(&mut row_f2)
    }

    /// Width `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Depth `d`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Net weight absorbed.
    #[must_use]
    pub fn total_weight(&self) -> i64 {
        self.total_weight
    }
}

impl<T: Hash + ?Sized> Update<T> for CountSketch {
    fn update(&mut self, item: &T) {
        self.update_weighted(item, 1);
    }
}

impl Clear for CountSketch {
    fn clear(&mut self) {
        self.counters.fill(0);
        self.total_weight = 0;
    }
}

impl SpaceUsage for CountSketch {
    fn space_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<i64>()
    }
}

impl MergeSketch for CountSketch {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.width != other.width || self.depth != other.depth {
            return Err(SketchError::incompatible("dimensions differ"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        for (a, &b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total_weight += other.total_weight;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn rejects_bad_params() {
        assert!(CountSketch::new(1, 5, 0).is_err());
        assert!(CountSketch::new(64, 0, 0).is_err());
    }

    #[test]
    fn unbiased_on_average() {
        // Estimate a mid-frequency item many times with independent seeds;
        // the mean error should be near zero (Count-Min would always be +).
        let mut errors = Vec::new();
        for seed in 0..24u64 {
            let mut cs = CountSketch::new(128, 1, seed).unwrap();
            for i in 0..2_000u32 {
                cs.update(&(i % 100));
            }
            errors.push(cs.estimate(&5u32) - 20);
        }
        let mean: f64 = errors.iter().map(|&e| e as f64).sum::<f64>() / errors.len() as f64;
        assert!(mean.abs() < 10.0, "mean error {mean} suggests bias");
    }

    #[test]
    fn accurate_for_heavy_items() {
        let mut cs = CountSketch::new(1024, 5, 1).unwrap();
        let mut exact: HashMap<u32, i64> = HashMap::new();
        for i in 0..200u32 {
            let w = i64::from(5_000 / (i + 1));
            cs.update_weighted(&i, w);
            *exact.entry(i).or_insert(0) += w;
        }
        // ‖f‖₂ ≈ sqrt(Σ w²); heaviest items should be within a few percent.
        for item in 0..5u32 {
            let truth = exact[&item];
            let est = cs.estimate(&item);
            let rel = (est - truth).abs() as f64 / truth as f64;
            assert!(rel < 0.15, "item {item}: est {est} vs {truth}");
        }
    }

    #[test]
    fn supports_deletions() {
        let mut cs = CountSketch::new(256, 5, 2).unwrap();
        cs.update_weighted(&"x", 10);
        cs.update_weighted(&"x", -10);
        cs.update_weighted(&"y", 7);
        assert_eq!(cs.estimate(&"x"), 0);
        assert_eq!(cs.estimate(&"y"), 7);
        assert_eq!(cs.total_weight(), 7);
    }

    #[test]
    fn f2_estimate_close() {
        let mut cs = CountSketch::new(2048, 7, 3).unwrap();
        let mut true_f2 = 0f64;
        for i in 0..500u32 {
            let w = i64::from(1000 / (i + 1));
            cs.update_weighted(&i, w);
            true_f2 += (w as f64) * (w as f64);
        }
        let est = cs.f2_estimate();
        let rel = (est - true_f2).abs() / true_f2;
        assert!(rel < 0.1, "F2 est {est} vs {true_f2} (rel {rel:.3})");
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = CountSketch::new(64, 5, 4).unwrap();
        let mut b = CountSketch::new(64, 5, 4).unwrap();
        let mut whole = CountSketch::new(64, 5, 4).unwrap();
        for i in 0..500u32 {
            a.update(&(i % 40));
            whole.update(&(i % 40));
            b.update(&(i % 60));
            whole.update(&(i % 60));
        }
        a.merge(&b).unwrap();
        assert_eq!(a.counters, whole.counters);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = CountSketch::new(32, 3, 0).unwrap();
        assert!(a.merge(&CountSketch::new(64, 3, 0).unwrap()).is_err());
        assert!(a.merge(&CountSketch::new(32, 4, 0).unwrap()).is_err());
        assert!(a.merge(&CountSketch::new(32, 3, 9).unwrap()).is_err());
    }

    #[test]
    fn even_depth_median_works() {
        let mut cs = CountSketch::new(128, 4, 5).unwrap();
        cs.update_weighted(&1u32, 100);
        let est = cs.estimate(&1u32);
        assert!((est - 100).abs() <= 5, "even-depth estimate {est}");
    }

    #[test]
    fn clear_and_space() {
        let mut cs = CountSketch::new(64, 3, 0).unwrap();
        cs.update(&1u8);
        cs.clear();
        assert_eq!(cs.estimate(&1u8), 0);
        assert_eq!(cs.space_bytes(), 64 * 3 * 8);
    }
}
