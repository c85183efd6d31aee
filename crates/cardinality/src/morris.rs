//! The Morris approximate counter (1977).
//!
//! Counts `n` events in `O(log log n)` bits by storing only the exponent of
//! the count. The counter holds a small register `x` and on each event
//! increments it with probability `(1 + 1/a)^{-x}`; the estimate is
//! `a · ((1 + 1/a)^x − 1)`, which is exactly unbiased.
//!
//! The base parameter `a` trades space for accuracy: the relative standard
//! error is roughly `1/√(2a)` while the register value only reaches
//! `log_{1+1/a}(n/a)`, so doubling `a` halves the variance at the cost of
//! ~1 extra bit. This is the accuracy/space frontier the PODS 2022 best
//! paper (Nelson–Yu, "Optimal Bounds for Approximate Counting") pinned down,
//! reproduced by experiment E20.

use sketches_core::{check_range, Clear, MergeSketch, SketchError, SketchResult, SpaceUsage};
use sketches_hash::rng::{Rng64, SplitMix64};

/// A Morris approximate counter with base parameter `a`.
#[derive(Debug, Clone)]
pub struct MorrisCounter {
    /// Base parameter: larger is more accurate but needs more bits.
    a: f64,
    /// The stored exponent register.
    register: u32,
    /// Probability of incrementing at the current register value,
    /// maintained incrementally to avoid a `powf` per event.
    increment_prob: f64,
    rng: SplitMix64,
}

impl MorrisCounter {
    /// Creates a counter with base parameter `a >= 1` and a PRNG seed.
    ///
    /// # Errors
    /// Returns an error if `a` is not finite or `< 1`.
    pub fn new(a: f64, seed: u64) -> SketchResult<Self> {
        if !a.is_finite() {
            return Err(SketchError::invalid("a", "must be finite"));
        }
        check_range("a", a, 1.0, 1e12)?;
        Ok(Self {
            a,
            register: 0,
            increment_prob: 1.0,
            rng: SplitMix64::new(seed),
        })
    }

    /// Registers one event.
    pub fn observe(&mut self) {
        if self.rng.next_f64() < self.increment_prob {
            self.register += 1;
            self.increment_prob /= 1.0 + 1.0 / self.a;
        }
    }

    /// Registers `n` events.
    pub fn observe_many(&mut self, n: u64) {
        for _ in 0..n {
            self.observe();
        }
    }

    /// Unbiased estimate of the number of events observed.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.a * ((1.0 + 1.0 / self.a).powi(self.register as i32) - 1.0)
    }

    /// Current register value (the quantity that needs storing).
    #[must_use]
    pub fn register(&self) -> u32 {
        self.register
    }

    /// Number of bits needed to store the current register value.
    #[must_use]
    pub fn register_bits(&self) -> u32 {
        32 - self.register.leading_zeros().min(31)
    }

    /// The base parameter.
    #[must_use]
    pub fn base(&self) -> f64 {
        self.a
    }

    /// Theoretical relative standard error for this base, `≈ 1/√(2a)`.
    #[must_use]
    pub fn theoretical_rse(&self) -> f64 {
        1.0 / (2.0 * self.a).sqrt()
    }
}

impl Clear for MorrisCounter {
    fn clear(&mut self) {
        self.register = 0;
        self.increment_prob = 1.0;
    }
}

impl SpaceUsage for MorrisCounter {
    fn space_bytes(&self) -> usize {
        // The information-theoretic payload is just the register; report the
        // struct for honesty about this implementation.
        std::mem::size_of::<Self>()
    }
}

impl MergeSketch for MorrisCounter {
    /// Merges by summing the two unbiased estimates and re-encoding into a
    /// register value. Unlike register-max sketches this is approximate
    /// (it preserves expectation but not the exact distribution), which is
    /// the standard practical treatment for Morris counters.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if (self.a - other.a).abs() > f64::EPSILON {
            return Err(SketchError::incompatible(format!(
                "base mismatch: {} vs {}",
                self.a, other.a
            )));
        }
        let combined = self.estimate() + other.estimate();
        // Invert estimate(): x = log_{1+1/a}(combined/a + 1), rounded to
        // nearest with an unbiasing coin flip on the fractional part.
        let exact_x = (combined / self.a + 1.0).ln() / (1.0 + 1.0 / self.a).ln();
        let floor = exact_x.floor();
        let frac = exact_x - floor;
        let x = if self.rng.next_f64() < frac {
            floor as u32 + 1
        } else {
            floor as u32
        };
        self.register = x;
        self.increment_prob = (1.0 + 1.0 / self.a).powi(-(x as i32));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_base() {
        assert!(MorrisCounter::new(0.5, 0).is_err());
        assert!(MorrisCounter::new(f64::NAN, 0).is_err());
        assert!(MorrisCounter::new(f64::INFINITY, 0).is_err());
        assert!(MorrisCounter::new(1.0, 0).is_ok());
    }

    #[test]
    fn empty_estimates_zero() {
        let c = MorrisCounter::new(16.0, 1).unwrap();
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.register(), 0);
    }

    #[test]
    fn estimate_tracks_count_within_theory() {
        // With a = 256, RSE ≈ 1/√512 ≈ 4.4%; average 32 independent
        // counters to tighten the test.
        let n = 100_000u64;
        let trials = 32;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut c = MorrisCounter::new(256.0, 1000 + t).unwrap();
            c.observe_many(n);
            sum += c.estimate();
        }
        let mean = sum / trials as f64;
        let rel = (mean - n as f64).abs() / n as f64;
        assert!(rel < 0.03, "mean estimate {mean} off by {rel:.3}");
    }

    #[test]
    fn register_grows_double_logarithmically() {
        let mut c = MorrisCounter::new(1.0, 7).unwrap();
        c.observe_many(1_000_000);
        // With a=1 the register is ~log2(n) ≈ 20, storable in ~5 bits.
        assert!(c.register() > 10 && c.register() < 30, "{}", c.register());
        assert!(c.register_bits() <= 5 + 1);
    }

    #[test]
    fn larger_base_means_lower_variance() {
        let n = 50_000u64;
        let var = |a: f64| -> f64 {
            let trials = 48;
            let mut sq = 0.0;
            for t in 0..trials {
                let mut c = MorrisCounter::new(a, 31 * t + 5).unwrap();
                c.observe_many(n);
                let rel = (c.estimate() - n as f64) / n as f64;
                sq += rel * rel;
            }
            sq / trials as f64
        };
        let v_small = var(4.0);
        let v_large = var(256.0);
        assert!(
            v_large < v_small / 4.0,
            "variance should drop sharply with base: {v_small} vs {v_large}"
        );
    }

    #[test]
    fn clear_resets() {
        let mut c = MorrisCounter::new(8.0, 3).unwrap();
        c.observe_many(1000);
        assert!(c.estimate() > 0.0);
        c.clear();
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.register(), 0);
    }

    #[test]
    fn merge_requires_same_base() {
        let mut a = MorrisCounter::new(8.0, 1).unwrap();
        let b = MorrisCounter::new(16.0, 2).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn merge_approximates_sum() {
        let trials = 48;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut a = MorrisCounter::new(128.0, 2 * t).unwrap();
            let mut b = MorrisCounter::new(128.0, 2 * t + 1).unwrap();
            a.observe_many(30_000);
            b.observe_many(50_000);
            a.merge(&b).unwrap();
            sum += a.estimate();
        }
        let mean = sum / trials as f64;
        let rel = (mean - 80_000.0).abs() / 80_000.0;
        assert!(rel < 0.05, "merged mean {mean} off by {rel:.3}");
    }

    #[test]
    fn theoretical_rse_formula() {
        let c = MorrisCounter::new(2.0, 0).unwrap();
        assert!((c.theoretical_rse() - 0.5).abs() < 1e-12);
        let c = MorrisCounter::new(50.0, 0).unwrap();
        assert!((c.theoretical_rse() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut c = MorrisCounter::new(8.0, seed).unwrap();
            c.observe_many(10_000);
            c.register()
        };
        assert_eq!(run(5), run(5));
    }
}
