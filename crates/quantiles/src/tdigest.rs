//! The t-digest (Dunning & Ertl), the industry quantile sketch the survey
//! lists alongside KLL among the "new algorithms for the core problems".
//!
//! Clusters the input into centroids whose sizes follow a *scale function*:
//! clusters may be large in the middle of the distribution but must shrink
//! toward the tails, so extreme quantiles (p99, p999) stay sharp — the
//! relative-error motivation of the PODS 2021 best paper, examined in
//! experiment E19. This is the *merging* variant: inserts buffer and are
//! periodically merged into the centroid list in one sorted sweep.

use sketches_core::{
    Clear, MergeSketch, QuantileSketch, SketchError, SketchResult, SpaceUsage, Update,
};

/// One centroid: a weighted mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Centroid {
    /// Mean of the points merged into this centroid.
    pub mean: f64,
    /// Number of points (or total weight) merged.
    pub weight: f64,
}

/// The k₁ scale function `k(q) = (δ/2π)·asin(2q−1)` mapping quantiles to
/// cluster indices; a cluster may span at most one unit of `k`.
fn k_scale(q: f64, delta: f64) -> f64 {
    delta / (2.0 * std::f64::consts::PI) * (2.0 * q - 1.0).clamp(-1.0, 1.0).asin()
}

/// A merging t-digest with compression parameter `δ`.
#[derive(Debug, Clone)]
pub struct TDigest {
    centroids: Vec<Centroid>,
    buffer: Vec<f64>,
    delta: f64,
    buffer_cap: usize,
    n: u64,
    min: f64,
    max: f64,
}

impl TDigest {
    /// Creates a digest with compression `delta` (typical: 100–500; higher
    /// is more accurate and larger). Requires `delta >= 10`.
    ///
    /// # Errors
    /// Returns an error if `delta` is not finite or `< 10`.
    pub fn new(delta: f64) -> SketchResult<Self> {
        if !delta.is_finite() || delta < 10.0 {
            return Err(SketchError::invalid("delta", "need finite delta >= 10"));
        }
        let buffer_cap = (delta as usize) * 5;
        Ok(Self {
            centroids: Vec::new(),
            buffer: Vec::with_capacity(buffer_cap),
            delta,
            buffer_cap,
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    /// The compression parameter δ.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of centroids currently held (after flushing the buffer).
    #[must_use]
    pub fn num_centroids(&mut self) -> usize {
        self.flush();
        self.centroids.len()
    }

    /// Flushes buffered points into the centroid list.
    pub fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut incoming: Vec<Centroid> = std::mem::take(&mut self.buffer)
            .into_iter()
            .map(|v| Centroid {
                mean: v,
                weight: 1.0,
            })
            .collect();
        incoming.extend_from_slice(&self.centroids);
        self.centroids = Self::merge_centroids(incoming, self.delta);
    }

    /// The single-sweep merging algorithm: sort by mean, then greedily grow
    /// each cluster while it fits within one unit of the scale function.
    fn merge_centroids(mut all: Vec<Centroid>, delta: f64) -> Vec<Centroid> {
        if all.is_empty() {
            return all;
        }
        all.sort_by(|a, b| f64::total_cmp(&a.mean, &b.mean));
        let total: f64 = all.iter().map(|c| c.weight).sum();
        let mut out: Vec<Centroid> = Vec::new();
        let mut current = all[0];
        let mut w_done = 0.0; // weight fully emitted
        for &c in &all[1..] {
            let q0 = w_done / total;
            let q1 = (w_done + current.weight + c.weight) / total;
            if k_scale(q1, delta) - k_scale(q0, delta) <= 1.0 {
                // Absorb into the current cluster.
                let w = current.weight + c.weight;
                current.mean += (c.mean - current.mean) * c.weight / w;
                current.weight = w;
            } else {
                w_done += current.weight;
                out.push(current);
                current = c;
            }
        }
        out.push(current);
        out
    }

    /// Read-only view of the centroids (flushes first).
    pub fn centroids(&mut self) -> &[Centroid] {
        self.flush();
        &self.centroids
    }
}

impl Update<f64> for TDigest {
    fn update(&mut self, item: &f64) {
        let v = *item;
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buffer.push(v);
        if self.buffer.len() >= self.buffer_cap {
            self.flush();
        }
    }
}

impl QuantileSketch for TDigest {
    fn quantile(&self, q: f64) -> SketchResult<f64> {
        if self.n == 0 {
            return Err(SketchError::EmptySketch);
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::invalid("q", "must be in [0, 1]"));
        }
        // &self semantics: queries between flushes need the buffered
        // points folded in, but the common case (buffer already empty)
        // must not pay a clone per query.
        let flushed;
        let cs: &[Centroid] = if self.buffer.is_empty() {
            &self.centroids
        } else {
            let mut digest = self.clone();
            digest.flush();
            flushed = digest.centroids;
            &flushed
        };
        if q == 0.0 {
            return Ok(self.min);
        }
        if q == 1.0 {
            return Ok(self.max);
        }
        let total: f64 = cs.iter().map(|c| c.weight).sum();
        let target = q * total;
        // Walk cumulative midpoints and interpolate.
        let mut cum = 0.0;
        for (i, c) in cs.iter().enumerate() {
            let mid = cum + c.weight / 2.0;
            if target < mid {
                if i == 0 {
                    // Interpolate from the true minimum.
                    let frac = target / mid;
                    return Ok(self.min + frac * (c.mean - self.min));
                }
                let prev = &cs[i - 1];
                let prev_mid = cum - prev.weight / 2.0;
                let frac = (target - prev_mid) / (mid - prev_mid);
                return Ok(prev.mean + frac * (c.mean - prev.mean));
            }
            cum += c.weight;
        }
        // Beyond the last midpoint: interpolate toward the true maximum.
        #[expect(
            clippy::expect_used,
            reason = "the empty-digest case returned an error earlier, so centroids exist"
        )]
        let last = cs.last().expect("non-empty");
        let last_mid = total - last.weight / 2.0;
        let frac = ((target - last_mid) / (total - last_mid)).clamp(0.0, 1.0);
        Ok(last.mean + frac * (self.max - last.mean))
    }

    fn rank(&self, value: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if value < self.min {
            return 0.0;
        }
        if value >= self.max {
            return 1.0;
        }
        let flushed;
        let cs: &[Centroid] = if self.buffer.is_empty() {
            &self.centroids
        } else {
            let mut digest = self.clone();
            digest.flush();
            flushed = digest.centroids;
            &flushed
        };
        let total: f64 = cs.iter().map(|c| c.weight).sum();
        let mut cum = 0.0;
        for (i, c) in cs.iter().enumerate() {
            if value < c.mean {
                let (lo_val, lo_cum) = if i == 0 {
                    (self.min, 0.0)
                } else {
                    (cs[i - 1].mean, cum - cs[i - 1].weight / 2.0)
                };
                let hi_cum = cum + c.weight / 2.0;
                let frac = if c.mean > lo_val {
                    (value - lo_val) / (c.mean - lo_val)
                } else {
                    1.0
                };
                return ((lo_cum + frac * (hi_cum - lo_cum)) / total).clamp(0.0, 1.0);
            }
            cum += c.weight;
        }
        1.0
    }

    fn count(&self) -> u64 {
        self.n
    }
}

impl Clear for TDigest {
    fn clear(&mut self) {
        self.centroids.clear();
        self.buffer.clear();
        self.n = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

impl SpaceUsage for TDigest {
    fn space_bytes(&self) -> usize {
        (self.centroids.capacity() * 2 + self.buffer.capacity()) * std::mem::size_of::<f64>()
    }
}

impl MergeSketch for TDigest {
    /// Concatenate centroid lists and re-run the merging sweep.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if (self.delta - other.delta).abs() > f64::EPSILON {
            return Err(SketchError::incompatible("compression deltas differ"));
        }
        self.flush();
        let mut other = other.clone();
        other.flush();
        let mut all = std::mem::take(&mut self.centroids);
        all.extend_from_slice(&other.centroids);
        self.centroids = Self::merge_centroids(all, self.delta);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

    #[test]
    fn rejects_bad_delta() {
        assert!(TDigest::new(5.0).is_err());
        assert!(TDigest::new(f64::NAN).is_err());
        assert!(TDigest::new(100.0).is_ok());
    }

    #[test]
    fn scale_function_shape() {
        let d = 100.0;
        // Symmetric around q = 0.5, steepest at the tails.
        assert!((k_scale(0.5, d)).abs() < 1e-12);
        let tail_step = k_scale(0.01, d) - k_scale(0.001, d);
        let mid_step = k_scale(0.505, d) - k_scale(0.496, d);
        assert!(tail_step > mid_step, "tails must get finer clusters");
    }

    #[test]
    fn uniform_quantiles_accurate() {
        let mut td = TDigest::new(200.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(1);
        let mut data: Vec<f64> = (0..100_000).map(|_| rng.next_f64()).collect();
        for &x in &data {
            td.update(&x);
        }
        data.sort_by(f64::total_cmp);
        let n = data.len() as f64;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = td.quantile(q).unwrap();
            let est_rank = data.partition_point(|&x| x <= est) as f64 / n;
            assert!((est_rank - q).abs() < 0.01, "q={q}: est rank {est_rank:.4}");
        }
    }

    #[test]
    fn tail_quantiles_have_small_relative_error() {
        // Exponentially distributed data stresses the upper tail.
        let mut td = TDigest::new(300.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(2);
        let mut data: Vec<f64> = (0..200_000).map(|_| rng.exp()).collect();
        for &x in &data {
            td.update(&x);
        }
        data.sort_by(f64::total_cmp);
        for q in [0.99, 0.999, 0.9999] {
            let est = td.quantile(q).unwrap();
            let idx = ((q * data.len() as f64).ceil() as usize).min(data.len()) - 1;
            let truth = data[idx];
            let rel = (est - truth).abs() / truth;
            assert!(
                rel < 0.05,
                "q={q}: est {est:.4} vs {truth:.4} (rel {rel:.4})"
            );
        }
    }

    #[test]
    fn centroid_count_bounded_by_delta() {
        let mut td = TDigest::new(100.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(3);
        for _ in 0..500_000 {
            td.update(&rng.gauss());
        }
        let c = td.num_centroids();
        assert!(c <= 200, "{c} centroids exceeds ~2δ bound");
        assert!(c >= 30, "{c} centroids suspiciously few");
    }

    #[test]
    fn min_max_exact() {
        let mut td = TDigest::new(100.0).unwrap();
        for i in 0..10_000 {
            td.update(&f64::from(i));
        }
        assert_eq!(td.quantile(0.0).unwrap(), 0.0);
        assert_eq!(td.quantile(1.0).unwrap(), 9_999.0);
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut rng = Xoshiro256PlusPlus::new(7);
        let mut data: Vec<f64> = (0..80_000).map(|_| rng.gauss() * 10.0).collect();
        let mut parts: Vec<TDigest> = (0..8).map(|_| TDigest::new(200.0).unwrap()).collect();
        for (i, &x) in data.iter().enumerate() {
            parts[i % 8].update(&x);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p).unwrap();
        }
        assert_eq!(merged.count(), 80_000);
        data.sort_by(f64::total_cmp);
        let n = data.len() as f64;
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = merged.quantile(q).unwrap();
            let est_rank = data.partition_point(|&x| x <= est) as f64 / n;
            assert!((est_rank - q).abs() < 0.02, "q={q}: rank {est_rank:.4}");
        }
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = TDigest::new(100.0).unwrap();
        let b = TDigest::new(200.0).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn rank_roundtrip() {
        let mut td = TDigest::new(200.0).unwrap();
        for i in 0..50_000 {
            td.update(&f64::from(i));
        }
        for q in [0.2, 0.5, 0.8] {
            let v = td.quantile(q).unwrap();
            let r = td.rank(v);
            assert!((r - q).abs() < 0.02, "q={q}: rank {r:.4}");
        }
        assert_eq!(td.rank(-1.0), 0.0);
        assert_eq!(td.rank(1e9), 1.0);
    }

    #[test]
    fn weights_average_correctly() {
        // Two well-separated groups: centroid means should stay separated.
        let mut td = TDigest::new(50.0).unwrap();
        for _ in 0..1000 {
            td.update(&1.0);
        }
        for _ in 0..1000 {
            td.update(&100.0);
        }
        let med_low = td.quantile(0.25).unwrap();
        let med_high = td.quantile(0.75).unwrap();
        assert!(med_low < 10.0, "q25 {med_low}");
        assert!(med_high > 90.0, "q75 {med_high}");
    }

    #[test]
    fn empty_and_clear() {
        let td = TDigest::new(100.0).unwrap();
        assert!(matches!(td.quantile(0.5), Err(SketchError::EmptySketch)));
        let mut td = TDigest::new(100.0).unwrap();
        td.update(&1.0);
        td.clear();
        assert_eq!(td.count(), 0);
    }
}
