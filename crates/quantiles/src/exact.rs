//! Exact quantiles over a fully-stored buffer — the `O(n)` baseline every
//! experiment compares sketches against.

use sketches_core::{
    Clear, MergeSketch, QuantileSketch, SketchError, SketchResult, SpaceUsage, Update,
};

/// An exact quantile "summary" that simply stores everything.
#[derive(Debug, Clone, Default)]
pub struct ExactQuantiles {
    values: Vec<f64>,
    sorted: bool,
}

impl ExactQuantiles {
    /// Creates an empty baseline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Exact rank (number of stored values `<= value`).
    #[must_use]
    pub fn exact_rank(&mut self, value: f64) -> u64 {
        self.ensure_sorted();
        self.values.partition_point(|&x| x <= value) as u64
    }

    /// Exact `q`-quantile using the nearest-rank definition.
    ///
    /// # Errors
    /// Returns [`SketchError::EmptySketch`] when empty or an invalid-`q`
    /// error.
    pub fn exact_quantile(&mut self, q: f64) -> SketchResult<f64> {
        if self.values.is_empty() {
            return Err(SketchError::EmptySketch);
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::invalid("q", "must be in [0, 1]"));
        }
        self.ensure_sorted();
        let n = self.values.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Ok(self.values[idx])
    }
}

impl Update<f64> for ExactQuantiles {
    fn update(&mut self, item: &f64) {
        self.values.push(*item);
        self.sorted = false;
    }
}

impl QuantileSketch for ExactQuantiles {
    fn quantile(&self, q: f64) -> SketchResult<f64> {
        // The trait takes &self; clone-and-sort keeps the API uniform. The
        // inherent `exact_quantile` avoids the copy for hot paths.
        let mut copy = self.clone();
        copy.exact_quantile(q)
    }

    fn rank(&self, value: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let le = self.values.iter().filter(|&&x| x <= value).count();
        le as f64 / self.values.len() as f64
    }

    fn count(&self) -> u64 {
        self.values.len() as u64
    }
}

impl Clear for ExactQuantiles {
    fn clear(&mut self) {
        self.values.clear();
        self.sorted = false;
    }
}

impl SpaceUsage for ExactQuantiles {
    fn space_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }
}

impl MergeSketch for ExactQuantiles {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_data() {
        let mut e = ExactQuantiles::new();
        for i in 1..=100 {
            e.update(&f64::from(i));
        }
        assert_eq!(e.exact_quantile(0.5).unwrap(), 50.0);
        assert_eq!(e.exact_quantile(0.0).unwrap(), 1.0);
        assert_eq!(e.exact_quantile(1.0).unwrap(), 100.0);
        assert_eq!(e.exact_quantile(0.99).unwrap(), 99.0);
    }

    #[test]
    fn rank_fraction() {
        let mut e = ExactQuantiles::new();
        for i in 1..=10 {
            e.update(&f64::from(i));
        }
        assert_eq!(e.rank(5.0), 0.5);
        assert_eq!(e.rank(0.0), 0.0);
        assert_eq!(e.rank(10.0), 1.0);
        assert_eq!(e.exact_rank(5.5), 5);
    }

    #[test]
    fn empty_and_invalid() {
        let mut e = ExactQuantiles::new();
        assert!(matches!(
            e.exact_quantile(0.5),
            Err(SketchError::EmptySketch)
        ));
        e.update(&1.0);
        assert!(e.exact_quantile(-0.1).is_err());
        assert!(e.exact_quantile(1.1).is_err());
    }

    #[test]
    fn merge_concatenates() {
        let mut a = ExactQuantiles::new();
        let mut b = ExactQuantiles::new();
        for i in 1..=50 {
            a.update(&f64::from(i));
            b.update(&f64::from(i + 50));
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), 100);
        assert_eq!(a.exact_quantile(0.5).unwrap(), 50.0);
    }

    #[test]
    fn trait_quantile_matches_inherent() {
        let mut e = ExactQuantiles::new();
        for i in [5.0, 1.0, 3.0, 2.0, 4.0] {
            e.update(&i);
        }
        assert_eq!(
            e.quantile(0.5).unwrap(),
            e.clone().exact_quantile(0.5).unwrap()
        );
    }
}
