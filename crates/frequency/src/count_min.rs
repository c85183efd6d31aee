//! The Count-Min sketch (Cormode & Muthukrishnan, J. Algorithms 2005).
//!
//! A `d × w` grid of counters; each row hashes every item to one counter.
//! Point queries take the minimum over rows, giving estimates with one-sided
//! error: `f̂ ≥ f` always, and `f̂ ≤ f + ε·‖f‖₁` with probability `1 − δ`
//! for `w = ⌈e/ε⌉`, `d = ⌈ln(1/δ)⌉`. The survey's Twitter view-counting and
//! Apple private-telemetry examples are both Count-Min instances.
//!
//! Also provided:
//! * **conservative update** — only raise the counters that determine the
//!   current minimum, a standard industrial accuracy boost;
//! * [`CmRangeSketch`] — dyadic decomposition over an integer domain for
//!   range counts, approximate ranks, and quantiles.

use std::hash::Hash;

use sketches_core::{
    check_open_unit, Clear, FrequencyEstimator, MergeSketch, SketchError, SketchResult, SpaceUsage,
    Update,
};
use sketches_hash::hash_item;
use sketches_hash::mix::{fastrange64, mix64_seeded};

/// Per-row domain-separation constants (any fixed distinct values work).
#[inline]
fn row_seed(seed: u64, row: usize) -> u64 {
    seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(row as u64 + 1))
}

/// A Count-Min sketch with `depth` rows of `width` counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    counters: Vec<u64>,
    width: usize,
    depth: usize,
    seed: u64,
    total: u64,
}

impl CountMinSketch {
    /// Creates a sketch with explicit dimensions.
    ///
    /// # Errors
    /// Returns an error if `width < 2` or `depth` outside `1..=32`.
    pub fn new(width: usize, depth: usize, seed: u64) -> SketchResult<Self> {
        if width < 2 {
            return Err(SketchError::invalid("width", "need width >= 2"));
        }
        sketches_core::check_range("depth", depth, 1, 32)?;
        Ok(Self {
            counters: vec![0u64; width * depth],
            width,
            depth,
            seed,
            total: 0,
        })
    }

    /// Creates a sketch guaranteeing error at most `epsilon·‖f‖₁` with
    /// probability `1 − delta`: `w = ⌈e/ε⌉`, `d = ⌈ln(1/δ)⌉`.
    ///
    /// # Errors
    /// Returns an error unless `epsilon, delta ∈ (0, 1)`, or if `delta` is
    /// so small that the required depth exceeds the supported maximum of 32
    /// rows (δ < e⁻³² ≈ 1.3e-14) — the guarantee is never silently weakened.
    pub fn from_error_bounds(epsilon: f64, delta: f64, seed: u64) -> SketchResult<Self> {
        check_open_unit("epsilon", epsilon, 0.0, 1.0)?;
        check_open_unit("delta", delta, 0.0, 1.0)?;
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        if depth > 32 {
            return Err(SketchError::invalid(
                "delta",
                format!("requires depth {depth} > 32 supported rows; use delta >= 1.3e-14"),
            ));
        }
        Self::new(width, depth, seed)
    }

    #[inline]
    fn cell(&self, hash: u64, row: usize) -> usize {
        let h = mix64_seeded(hash, row_seed(self.seed, row));
        row * self.width + fastrange64(h, self.width as u64) as usize
    }

    /// Adds `weight` occurrences of a pre-hashed item.
    pub fn update_hash(&mut self, hash: u64, weight: u64) {
        for row in 0..self.depth {
            let c = self.cell(hash, row);
            self.counters[c] += weight;
        }
        self.total += weight;
    }

    /// Conservative update: raise only the counters below `min + weight`,
    /// never increasing any counter beyond what the point query needs.
    pub fn update_hash_conservative(&mut self, hash: u64, weight: u64) {
        let est = self.estimate_hash(hash);
        let target = est + weight;
        for row in 0..self.depth {
            let c = self.cell(hash, row);
            if self.counters[c] < target {
                self.counters[c] = target;
            }
        }
        self.total += weight;
    }

    /// Point query for a pre-hashed item: the minimum over rows.
    #[must_use]
    pub fn estimate_hash(&self, hash: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.counters[self.cell(hash, row)])
            .min()
            .unwrap_or(0)
    }

    /// Adds `weight` occurrences of `item`.
    pub fn update_weighted<T: Hash + ?Sized>(&mut self, item: &T, weight: u64) {
        self.update_hash(hash_item(item, 0xC033_7311), weight);
    }

    /// Conservative-update version of [`Self::update_weighted`].
    pub fn update_conservative<T: Hash + ?Sized>(&mut self, item: &T, weight: u64) {
        self.update_hash_conservative(hash_item(item, 0xC033_7311), weight);
    }

    /// Estimated inner product `⟨f, g⟩` of the two sketched frequency
    /// vectors: the minimum over rows of the row dot products.
    ///
    /// # Errors
    /// Returns an error if the sketches are incompatible.
    pub fn inner_product(&self, other: &Self) -> SketchResult<u64> {
        self.check_compatible(other)?;
        let ip = (0..self.depth)
            .map(|row| {
                let a = &self.counters[row * self.width..(row + 1) * self.width];
                let b = &other.counters[row * self.width..(row + 1) * self.width];
                // Accumulate in u128: counters near 2^32 would overflow a
                // u64 product.
                a.iter()
                    .zip(b)
                    .map(|(&x, &y)| u128::from(x) * u128::from(y))
                    .sum::<u128>()
            })
            .min()
            .unwrap_or(0);
        Ok(u64::try_from(ip).unwrap_or(u64::MAX))
    }

    fn check_compatible(&self, other: &Self) -> SketchResult<()> {
        if self.width != other.width || self.depth != other.depth {
            return Err(SketchError::incompatible("dimensions differ"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        Ok(())
    }

    /// Total weight absorbed (`‖f‖₁`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Width `w` (counters per row).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Depth `d` (number of rows).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Per-row `(column, counter value)` pairs for `item` — the raw
    /// measurements behind the min-query. Used by wrappers that
    /// post-process counters (e.g. the differentially-private sketch,
    /// which adds per-counter noise before taking the min).
    #[must_use]
    pub fn row_values<T: Hash + ?Sized>(&self, item: &T) -> Vec<(usize, u64)> {
        let hash = hash_item(item, 0xC033_7311);
        (0..self.depth)
            .map(|row| {
                let cell = self.cell(hash, row);
                (cell - row * self.width, self.counters[cell])
            })
            .collect()
    }

    /// The guaranteed error bound `(e/w)·‖f‖₁` at the current total.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        std::f64::consts::E / self.width as f64 * self.total as f64
    }
}

impl<T: Hash + ?Sized> Update<T> for CountMinSketch {
    fn update(&mut self, item: &T) {
        self.update_weighted(item, 1);
    }
}

impl<T: Hash + ?Sized> FrequencyEstimator<T> for CountMinSketch {
    fn estimate(&self, item: &T) -> u64 {
        self.estimate_hash(hash_item(item, 0xC033_7311))
    }
}

impl Clear for CountMinSketch {
    fn clear(&mut self) {
        self.counters.fill(0);
        self.total = 0;
    }
}

impl SpaceUsage for CountMinSketch {
    fn space_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u64>()
    }
}

impl MergeSketch for CountMinSketch {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        self.check_compatible(other)?;
        for (a, &b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total += other.total;
        Ok(())
    }
}

/// A dyadic Count-Min structure over the integer domain `[0, 2^domain_bits)`
/// supporting range counts, ranks, and quantiles.
///
/// Level `l` sketches the prefixes `x >> l`; a range decomposes into at most
/// `2·domain_bits` dyadic intervals, each answered by one sketch.
#[derive(Debug, Clone)]
pub struct CmRangeSketch {
    levels: Vec<CountMinSketch>,
    domain_bits: u32,
    total: u64,
}

impl CmRangeSketch {
    /// Creates a range sketch over `[0, 2^domain_bits)` with per-level
    /// Count-Min dimensions `(width, depth)`.
    ///
    /// # Errors
    /// Returns an error for `domain_bits` outside `1..=63` or bad CM
    /// dimensions.
    pub fn new(domain_bits: u32, width: usize, depth: usize, seed: u64) -> SketchResult<Self> {
        sketches_core::check_range("domain_bits", domain_bits, 1, 63)?;
        let levels = (0..=domain_bits)
            .map(|l| CountMinSketch::new(width, depth, seed ^ (u64::from(l) << 32)))
            .collect::<SketchResult<Vec<_>>>()?;
        Ok(Self {
            levels,
            domain_bits,
            total: 0,
        })
    }

    /// Adds `weight` occurrences of the value `x`.
    ///
    /// # Errors
    /// Returns an error if `x` is outside `[0, 2^domain_bits)` — silently
    /// accepting it would inflate `total` with mass that no range query
    /// can see, corrupting ranks and quantiles.
    pub fn update(&mut self, x: u64, weight: u64) -> SketchResult<()> {
        if x >= (1u64 << self.domain_bits) {
            return Err(SketchError::invalid("x", "value outside domain"));
        }
        for (l, sketch) in self.levels.iter_mut().enumerate() {
            sketch.update_weighted(&(x >> l), weight);
        }
        self.total += weight;
        Ok(())
    }

    /// Estimated total weight of values in `[lo, hi]` (inclusive).
    #[must_use]
    pub fn range_count(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        let mut sum = 0u64;
        let mut lo = lo;
        let mut hi = hi.min((1u64 << self.domain_bits) - 1);
        let mut level = 0usize;
        // Standard dyadic walk: peel misaligned endpoints, then climb.
        while lo <= hi {
            if lo & 1 == 1 {
                sum += self.levels[level].estimate(&lo);
                lo += 1;
            }
            if hi & 1 == 0 {
                sum += self.levels[level].estimate(&hi);
                if hi == 0 {
                    break;
                }
                hi -= 1;
            }
            if lo > hi {
                break;
            }
            lo >>= 1;
            hi >>= 1;
            level += 1;
        }
        sum
    }

    /// Approximate rank: estimated weight of values `<= x`.
    #[must_use]
    pub fn rank(&self, x: u64) -> u64 {
        self.range_count(0, x)
    }

    /// Approximate `q`-quantile (`q ∈ [0, 1]`) by binary search on rank.
    ///
    /// # Errors
    /// Returns [`SketchError::EmptySketch`] when nothing was absorbed, or an
    /// invalid-parameter error for `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SketchResult<u64> {
        if self.total == 0 {
            return Err(SketchError::EmptySketch);
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::invalid("q", "must be in [0, 1]"));
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let (mut lo, mut hi) = (0u64, (1u64 << self.domain_bits) - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rank(mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(lo)
    }

    /// Total weight absorbed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl SpaceUsage for CmRangeSketch {
    fn space_bytes(&self) -> usize {
        self.levels.iter().map(SpaceUsage::space_bytes).sum()
    }
}

impl MergeSketch for CmRangeSketch {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.domain_bits != other.domain_bits {
            return Err(SketchError::incompatible("domain sizes differ"));
        }
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b)?;
        }
        self.total += other.total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn rejects_bad_params() {
        assert!(CountMinSketch::new(1, 4, 0).is_err());
        assert!(CountMinSketch::new(16, 0, 0).is_err());
        assert!(CountMinSketch::new(16, 33, 0).is_err());
        assert!(CountMinSketch::from_error_bounds(0.0, 0.1, 0).is_err());
        assert!(CountMinSketch::from_error_bounds(0.1, 1.0, 0).is_err());
    }

    #[test]
    fn error_bound_sizing() {
        let cm = CountMinSketch::from_error_bounds(0.01, 0.01, 0).unwrap();
        assert!(cm.width() >= 272); // e/0.01 ≈ 271.8
        assert!(cm.depth() >= 5); // ln(100) ≈ 4.6
    }

    #[test]
    fn never_underestimates() {
        let mut cm = CountMinSketch::new(64, 4, 1).unwrap();
        let mut exact: HashMap<u32, u64> = HashMap::new();
        for i in 0..5_000u32 {
            let item = i % 200;
            cm.update(&item);
            *exact.entry(item).or_insert(0) += 1;
        }
        for (item, &truth) in &exact {
            assert!(
                FrequencyEstimator::estimate(&cm, item) >= truth,
                "underestimate for {item}"
            );
        }
    }

    #[test]
    fn error_within_epsilon_l1() {
        let mut cm = CountMinSketch::from_error_bounds(0.005, 0.01, 2).unwrap();
        let mut exact: HashMap<u32, u64> = HashMap::new();
        // Skewed stream.
        for i in 0..200u32 {
            let weight = 10_000 / u64::from(i + 1);
            cm.update_weighted(&i, weight);
            *exact.entry(i).or_insert(0) += weight;
        }
        let bound = cm.error_bound().ceil() as u64;
        let mut violations = 0;
        for (item, &truth) in &exact {
            let est = FrequencyEstimator::estimate(&cm, item);
            if est - truth > bound {
                violations += 1;
            }
        }
        // δ = 1% per item; allow a few.
        assert!(
            violations <= 4,
            "{violations} items exceeded the ε‖f‖₁ bound"
        );
    }

    #[test]
    fn conservative_update_never_worse() {
        let mut plain = CountMinSketch::new(32, 4, 3).unwrap();
        let mut cons = CountMinSketch::new(32, 4, 3).unwrap();
        let mut exact: HashMap<u32, u64> = HashMap::new();
        for i in 0..20_000u32 {
            let item = i % 500;
            plain.update(&item);
            cons.update_conservative(&item, 1);
            *exact.entry(item).or_insert(0) += 1;
        }
        let mut plain_err = 0u64;
        let mut cons_err = 0u64;
        for (item, &truth) in &exact {
            let pe = FrequencyEstimator::estimate(&plain, item);
            let ce = FrequencyEstimator::estimate(&cons, item);
            assert!(ce >= truth, "conservative underestimated");
            plain_err += pe - truth;
            cons_err += ce - truth;
        }
        assert!(
            cons_err <= plain_err,
            "conservative ({cons_err}) should not exceed plain ({plain_err})"
        );
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = CountMinSketch::new(128, 5, 4).unwrap();
        let mut b = CountMinSketch::new(128, 5, 4).unwrap();
        let mut whole = CountMinSketch::new(128, 5, 4).unwrap();
        for i in 0..1000u32 {
            a.update(&(i % 50));
            whole.update(&(i % 50));
        }
        for i in 0..1000u32 {
            b.update(&(i % 70));
            whole.update(&(i % 70));
        }
        a.merge(&b).unwrap();
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = CountMinSketch::new(32, 4, 0).unwrap();
        assert!(a.merge(&CountMinSketch::new(64, 4, 0).unwrap()).is_err());
        assert!(a.merge(&CountMinSketch::new(32, 5, 0).unwrap()).is_err());
        assert!(a.merge(&CountMinSketch::new(32, 4, 1).unwrap()).is_err());
    }

    #[test]
    fn inner_product_estimate() {
        let mut a = CountMinSketch::new(512, 5, 5).unwrap();
        let mut b = CountMinSketch::new(512, 5, 5).unwrap();
        // f = {1: 100, 2: 50}; g = {1: 10, 3: 7} → ⟨f,g⟩ = 1000.
        a.update_weighted(&1u32, 100);
        a.update_weighted(&2u32, 50);
        b.update_weighted(&1u32, 10);
        b.update_weighted(&3u32, 7);
        let ip = a.inner_product(&b).unwrap();
        assert!(ip >= 1000, "inner product never underestimates");
        assert!(ip <= 1100, "inner product {ip} too loose");
    }

    #[test]
    fn weighted_equals_repeated() {
        let mut a = CountMinSketch::new(64, 3, 6).unwrap();
        let mut b = CountMinSketch::new(64, 3, 6).unwrap();
        for _ in 0..9 {
            a.update(&42u32);
        }
        b.update_weighted(&42u32, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn clear_and_space() {
        let mut cm = CountMinSketch::new(100, 4, 0).unwrap();
        cm.update(&1u8);
        cm.clear();
        assert_eq!(FrequencyEstimator::estimate(&cm, &1u8), 0);
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.space_bytes(), 100 * 4 * 8);
    }

    // ---- dyadic range sketch ----

    #[test]
    fn range_count_accuracy() {
        let mut rs = CmRangeSketch::new(16, 2048, 5, 7).unwrap();
        // Uniform weights on 0..1000.
        for x in 0..1000u64 {
            rs.update(x, 1).unwrap();
        }
        let est = rs.range_count(100, 199);
        assert!(est >= 100, "range never underestimates");
        assert!(est <= 130, "range estimate {est} too loose");
        assert_eq!(rs.range_count(500, 499), 0, "inverted range is empty");
        assert!(
            rs.update(1 << 16, 1).is_err(),
            "out-of-domain update must be rejected"
        );
    }

    #[test]
    fn range_covers_whole_domain() {
        let mut rs = CmRangeSketch::new(10, 512, 4, 8).unwrap();
        for x in 0..500u64 {
            rs.update(x, 2).unwrap();
        }
        let est = rs.range_count(0, 1023);
        assert!(est >= 1000);
        assert!(est <= 1100);
    }

    #[test]
    fn quantiles_from_ranks() {
        let mut rs = CmRangeSketch::new(16, 4096, 5, 9).unwrap();
        for x in 0..10_000u64 {
            rs.update(x, 1).unwrap();
        }
        let median = rs.quantile(0.5).unwrap();
        assert!(
            (4_500..=5_500).contains(&median),
            "median estimate {median}"
        );
        let p99 = rs.quantile(0.99).unwrap();
        assert!((9_700..=10_000).contains(&p99), "p99 estimate {p99}");
        assert!(rs.quantile(1.5).is_err());
        assert!(CmRangeSketch::new(8, 64, 3, 0)
            .unwrap()
            .quantile(0.5)
            .is_err());
    }

    #[test]
    fn range_merge() {
        let mut a = CmRangeSketch::new(8, 256, 4, 10).unwrap();
        let mut b = CmRangeSketch::new(8, 256, 4, 10).unwrap();
        for x in 0..100u64 {
            a.update(x, 1).unwrap();
            b.update(x + 100, 1).unwrap();
        }
        a.merge(&b).unwrap();
        let est = a.range_count(0, 255);
        assert!((200..=220).contains(&est), "merged range {est}");
        assert!(a
            .merge(&CmRangeSketch::new(9, 256, 4, 10).unwrap())
            .is_err());
    }
}
