//! The Manku–Rajagopalan–Lindsay (MRL) quantile sketch (SIGMOD 1998),
//! which adapted the Munro–Paterson multi-pass selection algorithm (1980)
//! to a single streaming pass.
//!
//! Maintains at most one buffer of `b` sorted values per weight level, like
//! the digits of a binary counter. Incoming items fill a level-0 buffer;
//! two buffers at the same level COLLAPSE into one buffer at the next level
//! by merging and keeping alternate elements. Queries treat a level-`l`
//! element as representing `2^l` original items.

use sketches_core::{
    Clear, MergeSketch, QuantileSketch, SketchError, SketchResult, SpaceUsage, Update,
};

/// An MRL quantile sketch with buffer size `b`.
#[derive(Debug, Clone)]
pub struct MrlSketch {
    /// At most one full (sorted) buffer per level; level `l` elements weigh
    /// `2^l`.
    levels: Vec<Option<Vec<f64>>>,
    /// Partially-filled incoming buffer (weight 1, unsorted).
    staging: Vec<f64>,
    b: usize,
    n: u64,
    /// Alternating collapse offset for unbiased rank behaviour.
    toggle: bool,
    min: f64,
    max: f64,
}

impl MrlSketch {
    /// Creates a sketch with buffer size `b >= 4` (even recommended).
    ///
    /// # Errors
    /// Returns an error if `b < 4`.
    pub fn new(b: usize) -> SketchResult<Self> {
        if b < 4 {
            return Err(SketchError::invalid("b", "need buffer size >= 4"));
        }
        Ok(Self {
            levels: Vec::new(),
            staging: Vec::with_capacity(b),
            b,
            n: 0,
            toggle: false,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    /// Buffer size `b`.
    #[must_use]
    pub fn buffer_size(&self) -> usize {
        self.b
    }

    /// Total values retained.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.staging.len() + self.levels.iter().flatten().map(Vec::len).sum::<usize>()
    }

    /// COLLAPSE: merge two sorted b-buffers, keep alternate elements.
    fn collapse(&mut self, a: Vec<f64>, c: Vec<f64>) -> Vec<f64> {
        let mut merged = Vec::with_capacity(a.len() + c.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < c.len() {
            if a[i] <= c[j] {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(c[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&c[j..]);
        let offset = usize::from(self.toggle);
        self.toggle = !self.toggle;
        merged.into_iter().skip(offset).step_by(2).collect()
    }

    /// Carries a full sorted buffer into the level structure (binary-counter
    /// addition).
    fn carry(&mut self, mut buf: Vec<f64>, mut level: usize) {
        loop {
            if level >= self.levels.len() {
                self.levels.resize(level + 1, None);
            }
            match self.levels[level].take() {
                None => {
                    self.levels[level] = Some(buf);
                    return;
                }
                Some(existing) => {
                    buf = self.collapse(existing, buf);
                    level += 1;
                }
            }
        }
    }

    fn flush_staging(&mut self) {
        if self.staging.len() < self.b {
            return;
        }
        let mut buf = std::mem::replace(&mut self.staging, Vec::with_capacity(self.b));
        buf.sort_by(f64::total_cmp);
        self.carry(buf, 0);
    }

    /// All `(value, weight)` pairs currently held.
    fn weighted_items(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let staged = self.staging.iter().map(|&v| (v, 1u64));
        let levelled = self
            .levels
            .iter()
            .enumerate()
            .filter_map(|(l, buf)| buf.as_ref().map(move |b| (l, b)))
            .flat_map(|(l, buf)| buf.iter().map(move |&v| (v, 1u64 << l)));
        staged.chain(levelled)
    }
}

impl Update<f64> for MrlSketch {
    fn update(&mut self, item: &f64) {
        let v = *item;
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.staging.push(v);
        self.flush_staging();
    }
}

impl QuantileSketch for MrlSketch {
    fn quantile(&self, q: f64) -> SketchResult<f64> {
        if self.n == 0 {
            return Err(SketchError::EmptySketch);
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::invalid("q", "must be in [0, 1]"));
        }
        if q == 0.0 {
            return Ok(self.min);
        }
        if q == 1.0 {
            return Ok(self.max);
        }
        let mut items: Vec<(f64, u64)> = self.weighted_items().collect();
        items.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(v, w) in &items {
            cum += w;
            if cum >= target {
                return Ok(v);
            }
        }
        Ok(self.max)
    }

    fn rank(&self, value: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut le = 0u64;
        let mut total = 0u64;
        for (v, w) in self.weighted_items() {
            total += w;
            if v <= value {
                le += w;
            }
        }
        le as f64 / total as f64
    }

    fn count(&self) -> u64 {
        self.n
    }
}

impl Clear for MrlSketch {
    fn clear(&mut self) {
        self.levels.clear();
        self.staging.clear();
        self.n = 0;
        self.toggle = false;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

impl SpaceUsage for MrlSketch {
    fn space_bytes(&self) -> usize {
        (self.staging.capacity()
            + self
                .levels
                .iter()
                .flatten()
                .map(Vec::capacity)
                .sum::<usize>())
            * std::mem::size_of::<f64>()
    }
}

impl MergeSketch for MrlSketch {
    /// Binary-counter merge: carry every full buffer of `other` into this
    /// sketch at its own level, and re-insert `other`'s staged items.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.b != other.b {
            return Err(SketchError::incompatible("buffer sizes differ"));
        }
        for (level, buf) in other.levels.iter().enumerate() {
            if let Some(buf) = buf {
                self.carry(buf.clone(), level);
            }
        }
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &v in &other.staging {
            self.staging.push(v);
            self.flush_staging();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

    fn max_rank_error(s: &MrlSketch, sorted: &[f64]) -> f64 {
        let n = sorted.len() as f64;
        let mut worst: f64 = 0.0;
        for qi in 1..20 {
            let q = f64::from(qi) / 20.0;
            let est = s.quantile(q).unwrap();
            let est_rank = sorted.partition_point(|&x| x <= est) as f64 / n;
            worst = worst.max((est_rank - q).abs());
        }
        worst
    }

    #[test]
    fn rejects_tiny_buffers() {
        assert!(MrlSketch::new(2).is_err());
        assert!(MrlSketch::new(4).is_ok());
    }

    #[test]
    fn accuracy_on_random_data() {
        let mut s = MrlSketch::new(256).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(3);
        let mut data: Vec<f64> = (0..60_000).map(|_| rng.next_f64()).collect();
        for &x in &data {
            s.update(&x);
        }
        data.sort_by(f64::total_cmp);
        let err = max_rank_error(&s, &data);
        assert!(err < 0.05, "rank error {err:.4}");
    }

    #[test]
    fn space_grows_logarithmically() {
        let mut s = MrlSketch::new(128).unwrap();
        for i in 0..200_000 {
            s.update(&f64::from(i));
        }
        // ~ b · #levels; levels ≈ log2(n/b) ≈ 11.
        assert!(s.retained() <= 128 * 16, "retained {}", s.retained());
    }

    #[test]
    fn binary_counter_structure() {
        let mut s = MrlSketch::new(8).unwrap();
        // 3 full buffers = 24 items → levels 0 and 1 occupied (binary 11).
        for i in 0..24 {
            s.update(&f64::from(i));
        }
        let occupied: Vec<bool> = s.levels.iter().map(Option::is_some).collect();
        assert_eq!(occupied, vec![true, true]);
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut rng = Xoshiro256PlusPlus::new(13);
        let mut data: Vec<f64> = (0..40_000).map(|_| rng.next_f64() * 100.0).collect();
        let mut parts: Vec<MrlSketch> = (0..8).map(|_| MrlSketch::new(128).unwrap()).collect();
        for (i, &x) in data.iter().enumerate() {
            parts[i % 8].update(&x);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p).unwrap();
        }
        assert_eq!(merged.count(), 40_000);
        data.sort_by(f64::total_cmp);
        let err = max_rank_error(&merged, &data);
        assert!(err < 0.06, "merged rank error {err:.4}");
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = MrlSketch::new(16).unwrap();
        let b = MrlSketch::new(32).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn min_max_exact() {
        let mut s = MrlSketch::new(16).unwrap();
        for i in 0..5_000 {
            s.update(&f64::from(i));
        }
        assert_eq!(s.quantile(0.0).unwrap(), 0.0);
        assert_eq!(s.quantile(1.0).unwrap(), 4_999.0);
    }

    #[test]
    fn small_streams_are_exact() {
        let mut s = MrlSketch::new(64).unwrap();
        for i in 1..=10 {
            s.update(&f64::from(i));
        }
        // Everything still in staging → exact.
        assert_eq!(s.quantile(0.5).unwrap(), 5.0);
    }

    #[test]
    fn clear_and_empty() {
        let mut s = MrlSketch::new(8).unwrap();
        assert!(matches!(s.quantile(0.5), Err(SketchError::EmptySketch)));
        s.update(&1.0);
        s.clear();
        assert_eq!(s.count(), 0);
        assert_eq!(s.retained(), 0);
    }
}
