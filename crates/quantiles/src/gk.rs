//! The Greenwald–Khanna quantile summary (SIGMOD 2001).
//!
//! Maintains a sorted list of tuples `(v, g, Δ)` where `g` is the gap in
//! minimum rank to the previous tuple and `Δ` bounds the rank uncertainty.
//! The invariant `g + Δ ≤ 2εn` guarantees every quantile query is answered
//! within rank error `εn` using `O((1/ε)·log(εn))` tuples.
//!
//! GK is the classic *streaming-only* summary: it has no clean merge rule
//! (this is precisely the gap the "Mergeable Summaries" line of work and
//! KLL filled, contrasted in experiment E6), so it implements
//! [`sketches_core::Update`] and [`sketches_core::QuantileSketch`] but not
//! `MergeSketch`.

use sketches_core::{
    check_open_unit, Clear, QuantileSketch, SketchError, SketchResult, SpaceUsage, Update,
};

/// One GK tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// A Greenwald–Khanna ε-approximate quantile summary.
#[derive(Debug, Clone)]
pub struct GreenwaldKhanna {
    epsilon: f64,
    tuples: Vec<Tuple>,
    n: u64,
    inserts_since_compress: u64,
}

impl GreenwaldKhanna {
    /// Creates a summary with rank-error guarantee `epsilon ∈ (0, 0.5)`.
    ///
    /// # Errors
    /// Returns an error for `epsilon` outside `(0, 0.5)`.
    pub fn new(epsilon: f64) -> SketchResult<Self> {
        check_open_unit("epsilon", epsilon, 0.0, 0.5)?;
        Ok(Self {
            epsilon,
            tuples: Vec::new(),
            n: 0,
            inserts_since_compress: 0,
        })
    }

    /// The error parameter ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of tuples currently stored.
    #[must_use]
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    fn two_eps_n(&self) -> u64 {
        (2.0 * self.epsilon * self.n as f64).floor() as u64
    }

    /// The periodic COMPRESS step: merge tuple `i` into `i+1` whenever the
    /// combined uncertainty stays within `2εn`. End tuples (min/max) are
    /// never merged away.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let threshold = self.two_eps_n();
        let mut i = self.tuples.len() - 2;
        while i >= 1 {
            let merged_weight = self.tuples[i].g + self.tuples[i + 1].g + self.tuples[i + 1].delta;
            if merged_weight <= threshold {
                self.tuples[i + 1].g += self.tuples[i].g;
                self.tuples.remove(i);
            }
            i -= 1;
        }
    }
}

impl Update<f64> for GreenwaldKhanna {
    fn update(&mut self, item: &f64) {
        let v = *item;
        self.n += 1;
        // Find the insertion position keeping tuples sorted by value.
        let pos = self.tuples.partition_point(|t| t.v < v);
        let delta = if pos == 0 || pos == self.tuples.len() {
            0 // new minimum or maximum: rank known exactly
        } else {
            self.two_eps_n().saturating_sub(1)
        };
        self.tuples.insert(pos, Tuple { v, g: 1, delta });

        self.inserts_since_compress += 1;
        if self.inserts_since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
            self.compress();
            self.inserts_since_compress = 0;
        }
    }
}

impl QuantileSketch for GreenwaldKhanna {
    #[expect(
        clippy::expect_used,
        reason = "the n == 0 case returned an error earlier, so tuples is non-empty"
    )]
    fn quantile(&self, q: f64) -> SketchResult<f64> {
        if self.n == 0 {
            return Err(SketchError::EmptySketch);
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::invalid("q", "must be in [0, 1]"));
        }
        let r = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let allowed = (self.epsilon * self.n as f64) as u64;
        let mut rmin = 0u64;
        for (i, t) in self.tuples.iter().enumerate() {
            rmin += t.g;
            if rmin + t.delta > r + allowed {
                // The previous tuple is guaranteed within εn of rank r.
                let idx = i.saturating_sub(1);
                return Ok(self.tuples[idx].v);
            }
        }
        Ok(self.tuples.last().expect("n > 0").v)
    }

    fn rank(&self, value: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut rmin = 0u64;
        let mut last_delta = 0u64;
        for t in &self.tuples {
            if t.v > value {
                break;
            }
            rmin += t.g;
            last_delta = t.delta;
        }
        // Midpoint of the [rmin, rmin + Δ] uncertainty interval.
        (rmin as f64 + last_delta as f64 / 2.0) / self.n as f64
    }

    fn count(&self) -> u64 {
        self.n
    }
}

impl Clear for GreenwaldKhanna {
    fn clear(&mut self) {
        self.tuples.clear();
        self.n = 0;
        self.inserts_since_compress = 0;
    }
}

impl SpaceUsage for GreenwaldKhanna {
    fn space_bytes(&self) -> usize {
        self.tuples.len() * std::mem::size_of::<Tuple>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

    fn check_all_quantiles(gk: &GreenwaldKhanna, sorted: &[f64], eps: f64) {
        let n = sorted.len() as f64;
        for qi in 1..20 {
            let q = f64::from(qi) / 20.0;
            let est = gk.quantile(q).unwrap();
            // Rank of the returned value must be within εn of target.
            let est_rank = sorted.partition_point(|&x| x <= est) as f64;
            let target = (q * n).ceil();
            assert!(
                (est_rank - target).abs() <= eps * n + 1.0,
                "q={q}: rank {est_rank} vs target {target} (εn = {})",
                eps * n
            );
        }
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(GreenwaldKhanna::new(0.0).is_err());
        assert!(GreenwaldKhanna::new(0.5).is_err());
        assert!(GreenwaldKhanna::new(0.01).is_ok());
    }

    #[test]
    fn sorted_input_within_epsilon() {
        let eps = 0.01;
        let mut gk = GreenwaldKhanna::new(eps).unwrap();
        let data: Vec<f64> = (0..50_000).map(f64::from).collect();
        for &x in &data {
            gk.update(&x);
        }
        check_all_quantiles(&gk, &data, eps);
    }

    #[test]
    fn reversed_input_within_epsilon() {
        let eps = 0.01;
        let mut gk = GreenwaldKhanna::new(eps).unwrap();
        let mut data: Vec<f64> = (0..30_000).map(f64::from).collect();
        for &x in data.iter().rev() {
            gk.update(&x);
        }
        data.sort_by(f64::total_cmp);
        check_all_quantiles(&gk, &data, eps);
    }

    #[test]
    fn random_input_within_epsilon() {
        let eps = 0.02;
        let mut gk = GreenwaldKhanna::new(eps).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(42);
        let mut data: Vec<f64> = (0..40_000).map(|_| rng.next_f64() * 1000.0).collect();
        for &x in &data {
            gk.update(&x);
        }
        data.sort_by(f64::total_cmp);
        check_all_quantiles(&gk, &data, eps);
    }

    #[test]
    fn space_is_sublinear() {
        let mut gk = GreenwaldKhanna::new(0.01).unwrap();
        for i in 0..100_000 {
            gk.update(&f64::from(i));
        }
        // Theory: O((1/ε) log(εn)) ≈ 100 · log2(1000) ≈ 1000 tuples.
        assert!(
            gk.num_tuples() < 5_000,
            "GK kept {} tuples for n=100k",
            gk.num_tuples()
        );
    }

    #[test]
    fn min_max_are_exact() {
        let mut gk = GreenwaldKhanna::new(0.05).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(7);
        let data: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
        for &x in &data {
            gk.update(&x);
        }
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(gk.quantile(0.0).unwrap(), min);
        assert_eq!(gk.quantile(1.0).unwrap(), max);
    }

    #[test]
    fn rank_is_consistent() {
        let mut gk = GreenwaldKhanna::new(0.01).unwrap();
        for i in 1..=10_000 {
            gk.update(&f64::from(i));
        }
        let r = gk.rank(5_000.0);
        assert!((r - 0.5).abs() < 0.02, "rank {r}");
        assert_eq!(gk.rank(0.0), 0.0);
    }

    #[test]
    fn duplicates_handled() {
        let mut gk = GreenwaldKhanna::new(0.02).unwrap();
        for _ in 0..5_000 {
            gk.update(&1.0);
        }
        for _ in 0..5_000 {
            gk.update(&2.0);
        }
        assert_eq!(gk.quantile(0.25).unwrap(), 1.0);
        assert_eq!(gk.quantile(0.9).unwrap(), 2.0);
    }

    #[test]
    fn empty_and_invalid_queries() {
        let gk = GreenwaldKhanna::new(0.1).unwrap();
        assert!(matches!(gk.quantile(0.5), Err(SketchError::EmptySketch)));
        let mut gk = GreenwaldKhanna::new(0.1).unwrap();
        gk.update(&1.0);
        assert!(gk.quantile(2.0).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut gk = GreenwaldKhanna::new(0.1).unwrap();
        gk.update(&1.0);
        gk.clear();
        assert_eq!(gk.count(), 0);
        assert_eq!(gk.num_tuples(), 0);
    }
}
