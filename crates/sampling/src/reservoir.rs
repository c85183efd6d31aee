//! Uniform reservoir sampling: Algorithm R (Waterman/Fan et al., via
//! Knuth) and the skip-ahead Algorithm L (Li, 1994).
//!
//! Both maintain a uniform `k`-subset of a stream of unknown length.
//! Algorithm R flips one coin per item; Algorithm L draws the *gap* until
//! the next accepted item directly, doing `O(k·(1 + log(n/k)))` work total
//! — the distinction matters at ISP line rates (§3 of the survey).

use sketches_core::{Clear, MergeSketch, SketchError, SketchResult, SpaceUsage, Update};
use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

/// Classic Algorithm R: item `t` replaces a random slot with probability
/// `k/t`.
#[derive(Debug, Clone)]
pub struct ReservoirR<T> {
    sample: Vec<T>,
    k: usize,
    seen: u64,
    rng: Xoshiro256PlusPlus,
}

impl<T: Clone> ReservoirR<T> {
    /// Creates a reservoir of capacity `k >= 1`.
    ///
    /// # Errors
    /// Returns an error if `k == 0`.
    pub fn new(k: usize, seed: u64) -> SketchResult<Self> {
        if k == 0 {
            return Err(SketchError::invalid("k", "need k >= 1"));
        }
        Ok(Self {
            sample: Vec::with_capacity(k),
            k,
            seen: 0,
            rng: Xoshiro256PlusPlus::new(seed),
        })
    }

    /// The current sample (uniform over everything seen).
    #[must_use]
    pub fn sample(&self) -> &[T] {
        &self.sample
    }

    /// Items seen so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Capacity `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl<T: Clone> Update<T> for ReservoirR<T> {
    fn update(&mut self, item: &T) {
        self.seen += 1;
        if self.sample.len() < self.k {
            self.sample.push(item.clone());
        } else {
            let j = self.rng.gen_range(self.seen);
            if (j as usize) < self.k {
                self.sample[j as usize] = item.clone();
            }
        }
    }
}

impl<T> Clear for ReservoirR<T> {
    fn clear(&mut self) {
        self.sample.clear();
        self.seen = 0;
    }
}

impl<T> SpaceUsage for ReservoirR<T> {
    fn space_bytes(&self) -> usize {
        self.k * std::mem::size_of::<T>()
    }
}

impl<T: Clone> MergeSketch for ReservoirR<T> {
    /// Merges two reservoirs into a uniform sample of the combined stream:
    /// each output slot draws from `self` or `other` proportionally to
    /// their stream sizes, sampling without replacement within each side.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.k != other.k {
            return Err(SketchError::incompatible("capacities differ"));
        }
        let total = self.seen + other.seen;
        if total == 0 {
            return Ok(());
        }
        let mut pool_a: Vec<T> = std::mem::take(&mut self.sample);
        let mut pool_b: Vec<T> = other.sample.clone();
        self.rng.shuffle(&mut pool_a);
        self.rng.shuffle(&mut pool_b);
        let mut merged = Vec::with_capacity(self.k);
        let (mut wa, mut wb) = (self.seen, other.seen);
        while merged.len() < self.k && (!pool_a.is_empty() || !pool_b.is_empty()) {
            let take_a = if pool_a.is_empty() {
                false
            } else if pool_b.is_empty() {
                true
            } else {
                self.rng.gen_range(wa + wb) < wa
            };
            if take_a {
                #[expect(
                    clippy::expect_used,
                    reason = "take_a is only chosen when pool_a is non-empty"
                )]
                merged.push(pool_a.pop().expect("non-empty"));
                wa = wa.saturating_sub(1);
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "take_a is false only when pool_b is non-empty"
                )]
                merged.push(pool_b.pop().expect("non-empty"));
                wb = wb.saturating_sub(1);
            }
        }
        self.sample = merged;
        self.seen = total;
        Ok(())
    }
}

/// Algorithm L: skip-ahead reservoir sampling. Statistically identical to
/// Algorithm R but draws the gap to the next accepted item directly.
#[derive(Debug, Clone)]
pub struct ReservoirL<T> {
    sample: Vec<T>,
    k: usize,
    seen: u64,
    /// Items to skip before the next replacement.
    skip: u64,
    /// The running `W` factor of Algorithm L.
    w: f64,
    rng: Xoshiro256PlusPlus,
}

impl<T: Clone> ReservoirL<T> {
    /// Creates a reservoir of capacity `k >= 1`.
    ///
    /// # Errors
    /// Returns an error if `k == 0`.
    pub fn new(k: usize, seed: u64) -> SketchResult<Self> {
        if k == 0 {
            return Err(SketchError::invalid("k", "need k >= 1"));
        }
        Ok(Self {
            sample: Vec::with_capacity(k),
            k,
            seen: 0,
            skip: 0,
            w: 1.0,
            rng: Xoshiro256PlusPlus::new(seed),
        })
    }

    fn draw_next_skip(&mut self) {
        // W *= U^{1/k}; skip = floor(log(U') / log(1 - W)).
        let k = self.k as f64;
        self.w *= self.rng.next_f64().max(f64::MIN_POSITIVE).powf(1.0 / k);
        let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
        self.skip = (u.ln() / (1.0 - self.w).ln()).floor().max(0.0) as u64;
    }

    /// The current sample.
    #[must_use]
    pub fn sample(&self) -> &[T] {
        &self.sample
    }

    /// Items seen so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl<T: Clone> Update<T> for ReservoirL<T> {
    fn update(&mut self, item: &T) {
        self.seen += 1;
        if self.sample.len() < self.k {
            self.sample.push(item.clone());
            if self.sample.len() == self.k {
                self.draw_next_skip();
            }
            return;
        }
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        let slot = self.rng.gen_range(self.k as u64) as usize;
        self.sample[slot] = item.clone();
        self.draw_next_skip();
    }
}

impl<T> Clear for ReservoirL<T> {
    fn clear(&mut self) {
        self.sample.clear();
        self.seen = 0;
        self.skip = 0;
        self.w = 1.0;
    }
}

impl<T> SpaceUsage for ReservoirL<T> {
    fn space_bytes(&self) -> usize {
        self.k * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_capacity() {
        assert!(ReservoirR::<u32>::new(0, 0).is_err());
        assert!(ReservoirL::<u32>::new(0, 0).is_err());
    }

    #[test]
    fn fills_then_stays_at_k() {
        let mut r = ReservoirR::new(10, 1).unwrap();
        for i in 0..5u32 {
            r.update(&i);
        }
        assert_eq!(r.sample().len(), 5);
        for i in 5..1000u32 {
            r.update(&i);
        }
        assert_eq!(r.sample().len(), 10);
        assert_eq!(r.seen(), 1000);
    }

    /// Chi-square-ish uniformity check shared by both algorithms.
    fn uniformity<T: FnMut(u64) -> Vec<u32>>(mut run: T) {
        // Sample 1 item from 0..100, 20_000 times; each value should appear
        // ~200 times.
        let mut counts = [0u32; 100];
        for trial in 0..20_000u64 {
            for v in run(trial) {
                counts[v as usize] += 1;
            }
        }
        let total: u32 = counts.iter().sum();
        let expected = f64::from(total) / 100.0;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.25, "value {v} count {c} vs expected {expected}");
        }
    }

    #[test]
    fn algorithm_r_is_uniform() {
        uniformity(|trial| {
            let mut r = ReservoirR::new(1, 1000 + trial).unwrap();
            for i in 0..100u32 {
                r.update(&i);
            }
            r.sample().to_vec()
        });
    }

    #[test]
    fn algorithm_l_is_uniform() {
        uniformity(|trial| {
            let mut r = ReservoirL::new(1, 5000 + trial).unwrap();
            for i in 0..100u32 {
                r.update(&i);
            }
            r.sample().to_vec()
        });
    }

    #[test]
    fn algorithm_l_keeps_k_items() {
        let mut r = ReservoirL::new(32, 3).unwrap();
        for i in 0..100_000u32 {
            r.update(&i);
        }
        assert_eq!(r.sample().len(), 32);
        // Late items must be able to appear (skip logic not stuck).
        assert!(
            r.sample().iter().any(|&v| v > 50_000),
            "no late-stream items sampled"
        );
    }

    #[test]
    fn merge_is_weighted_fairly() {
        // Stream A has 9x the items of stream B; merged samples should be
        // ~90% from A.
        let mut from_a = 0u32;
        let mut total = 0u32;
        for trial in 0..2_000u64 {
            let mut a = ReservoirR::new(4, 2 * trial).unwrap();
            let mut b = ReservoirR::new(4, 2 * trial + 1).unwrap();
            for i in 0..900u32 {
                a.update(&i);
            }
            for i in 900..1000u32 {
                b.update(&i);
            }
            a.merge(&b).unwrap();
            for &v in a.sample() {
                total += 1;
                if v < 900 {
                    from_a += 1;
                }
            }
        }
        let frac = f64::from(from_a) / f64::from(total);
        assert!((frac - 0.9).abs() < 0.03, "fraction from A: {frac:.3}");
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = ReservoirR::<u32>::new(4, 0).unwrap();
        let b = ReservoirR::<u32>::new(8, 0).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut r = ReservoirR::new(4, 0).unwrap();
        r.update(&1u32);
        r.clear();
        assert!(r.sample().is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn small_stream_is_exhaustive() {
        let mut r = ReservoirL::new(100, 9).unwrap();
        for i in 0..50u32 {
            r.update(&i);
        }
        let mut s = r.sample().to_vec();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<u32>>());
    }
}
