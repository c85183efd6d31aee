//! The q-digest (Shrivastava, Buragohain, Agrawal & Suri, SenSys 2004).
//!
//! Designed for sensor networks — the survey's example of a summary built
//! for *mergeability* before mergeability had a name. Values come from a
//! bounded integer domain `[0, 2^bits)` organised as a complete binary
//! tree; each node holds a count, and the digest keeps only nodes that are
//! individually heavy (`> n/k` together with parent and sibling), pushing
//! light counts toward the root. Size is `O(k·log U)` and the rank error is
//! at most `log(U)·n/k`.

use std::collections::BTreeMap;

use sketches_core::{Clear, MergeSketch, SketchError, SketchResult, SpaceUsage};

/// A q-digest over the integer domain `[0, 2^bits)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QDigest {
    /// Heap-numbered node id → count. Root is 1; the leaf for value `v` is
    /// `2^bits + v`.
    counts: BTreeMap<u64, u64>,
    bits: u32,
    k: u64,
    n: u64,
}

impl QDigest {
    /// Creates a digest over `[0, 2^bits)` with compression factor `k`
    /// (larger `k` = more space, less error).
    ///
    /// # Errors
    /// Returns an error for `bits` outside `1..=32` or `k < 4`.
    pub fn new(bits: u32, k: u64) -> SketchResult<Self> {
        sketches_core::check_range("bits", bits, 1, 32)?;
        if k < 4 {
            return Err(SketchError::invalid("k", "need k >= 4"));
        }
        Ok(Self {
            counts: BTreeMap::new(),
            bits,
            k,
            n: 0,
        })
    }

    /// Adds `weight` occurrences of value `v`.
    ///
    /// # Errors
    /// Returns an error if `v` is outside the domain.
    pub fn update(&mut self, v: u64, weight: u64) -> SketchResult<()> {
        if v >= (1u64 << self.bits) {
            return Err(SketchError::invalid("v", "value outside domain"));
        }
        if weight == 0 {
            return Ok(());
        }
        let leaf = (1u64 << self.bits) + v;
        *self.counts.entry(leaf).or_insert(0) += weight;
        self.n += weight;
        if self.counts.len() as u64 > 6 * self.k {
            self.compress();
        }
        Ok(())
    }

    /// The digest-property threshold `⌊n/k⌋`.
    fn threshold(&self) -> u64 {
        self.n / self.k
    }

    /// Compresses bottom-up: any node whose count plus sibling plus parent
    /// stays under the threshold is folded into its parent.
    pub fn compress(&mut self) {
        let threshold = self.threshold();
        if threshold == 0 {
            return;
        }
        for level in (1..=self.bits).rev() {
            let lo = 1u64 << level;
            let hi = 1u64 << (level + 1);
            let ids: Vec<u64> = self
                .counts
                .range(lo..hi)
                .map(|(&id, _)| id & !1) // left sibling representative
                .collect();
            let mut seen_pair = None;
            for left in ids {
                if seen_pair == Some(left) {
                    continue;
                }
                seen_pair = Some(left);
                let right = left | 1;
                let parent = left >> 1;
                let cl = self.counts.get(&left).copied().unwrap_or(0);
                let cr = self.counts.get(&right).copied().unwrap_or(0);
                let cp = self.counts.get(&parent).copied().unwrap_or(0);
                if cl + cr + cp < threshold {
                    if cl + cr > 0 {
                        *self.counts.entry(parent).or_insert(0) += cl + cr;
                    }
                    self.counts.remove(&left);
                    self.counts.remove(&right);
                }
            }
        }
    }

    /// Inclusive value range `[lo, hi]` covered by node `id`.
    fn node_range(&self, id: u64) -> (u64, u64) {
        let level = 63 - id.leading_zeros(); // depth of the node
        let span_bits = self.bits - level;
        let offset = id - (1u64 << level);
        let lo = offset << span_bits;
        (lo, lo + (1u64 << span_bits) - 1)
    }

    /// Approximate `q`-quantile: nodes are scanned in increasing right
    /// endpoint (deeper nodes first on ties) accumulating counts.
    ///
    /// # Errors
    /// Returns [`SketchError::EmptySketch`] when empty, or an error for `q`
    /// outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SketchResult<u64> {
        if self.n == 0 {
            return Err(SketchError::EmptySketch);
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::invalid("q", "must be in [0, 1]"));
        }
        let mut nodes: Vec<(u64, u64, u64)> = self
            .counts
            .iter()
            .map(|(&id, &c)| {
                let (lo, hi) = self.node_range(id);
                (hi, hi - lo, c) // sort by right endpoint, narrower first
            })
            .collect();
        nodes.sort_unstable();
        let target = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut cum = 0u64;
        for &(hi, _, c) in &nodes {
            cum += c;
            if cum >= target {
                return Ok(hi);
            }
        }
        Ok((1u64 << self.bits) - 1)
    }

    /// Approximate rank: fraction of mass in nodes entirely `<= value`.
    #[must_use]
    pub fn rank(&self, value: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut le = 0u64;
        for (&id, &c) in &self.counts {
            let (lo, hi) = self.node_range(id);
            if hi <= value {
                le += c;
            } else if lo <= value {
                // Node straddles the query point: apportion linearly.
                let frac = (value - lo + 1) as f64 / (hi - lo + 1) as f64;
                le += (c as f64 * frac) as u64;
            }
        }
        le as f64 / self.n as f64
    }

    /// Items absorbed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of tree nodes stored.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.counts.len()
    }

    /// Domain size exponent.
    #[must_use]
    pub fn domain_bits(&self) -> u32 {
        self.bits
    }
}

impl Clear for QDigest {
    fn clear(&mut self) {
        self.counts.clear();
        self.n = 0;
    }
}

impl SpaceUsage for QDigest {
    fn space_bytes(&self) -> usize {
        self.counts.len() * 2 * std::mem::size_of::<u64>()
    }
}

impl MergeSketch for QDigest {
    /// The SenSys merge: add node counts pointwise, then re-compress — the
    /// property that made q-digests aggregatable up a sensor-network tree.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.bits != other.bits {
            return Err(SketchError::incompatible("domain sizes differ"));
        }
        if self.k != other.k {
            return Err(SketchError::incompatible("compression factors differ"));
        }
        for (&id, &c) in &other.counts {
            *self.counts.entry(id).or_insert(0) += c;
        }
        self.n += other.n;
        self.compress();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_hash::rng::{Rng64, Xoshiro256PlusPlus};

    #[test]
    fn rejects_bad_params() {
        assert!(QDigest::new(0, 16).is_err());
        assert!(QDigest::new(33, 16).is_err());
        assert!(QDigest::new(16, 2).is_err());
    }

    #[test]
    fn rejects_out_of_domain() {
        let mut qd = QDigest::new(8, 16).unwrap();
        assert!(qd.update(256, 1).is_err());
        assert!(qd.update(255, 1).is_ok());
    }

    #[test]
    fn node_ranges() {
        let qd = QDigest::new(4, 8).unwrap(); // domain [0, 16)
        assert_eq!(qd.node_range(1), (0, 15)); // root
        assert_eq!(qd.node_range(2), (0, 7));
        assert_eq!(qd.node_range(3), (8, 15));
        assert_eq!(qd.node_range(16), (0, 0)); // first leaf
        assert_eq!(qd.node_range(31), (15, 15)); // last leaf
    }

    #[test]
    fn exact_when_uncompressed() {
        let mut qd = QDigest::new(8, 64).unwrap();
        for v in 0..100u64 {
            qd.update(v, 1).unwrap();
        }
        let median = qd.quantile(0.5).unwrap();
        assert!((45..=55).contains(&median), "median {median}");
    }

    #[test]
    fn quantiles_within_bound_on_skewed_data() {
        let mut qd = QDigest::new(16, 256).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(3);
        let mut values = Vec::new();
        for _ in 0..100_000 {
            // Skewed: squares of uniform values.
            let u = rng.next_f64();
            let v = (u * u * 65_535.0) as u64;
            qd.update(v, 1).unwrap();
            values.push(v);
        }
        qd.compress();
        values.sort_unstable();
        let n = values.len() as f64;
        // Error bound: log(U)·n/k = 16/256 · n ≈ 6.25% of ranks.
        for qi in 1..10 {
            let q = f64::from(qi) / 10.0;
            let est = qd.quantile(q).unwrap();
            let est_rank = values.partition_point(|&x| x <= est) as f64 / n;
            assert!((est_rank - q).abs() < 0.08, "q={q}: est rank {est_rank:.3}");
        }
    }

    #[test]
    fn compression_bounds_size() {
        let mut qd = QDigest::new(16, 64).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(5);
        for _ in 0..50_000 {
            qd.update(rng.gen_range(65_536), 1).unwrap();
        }
        qd.compress();
        // Size bound is O(k · log U); allow 3k·logU slack.
        let bound = (3 * 64 * 16) as usize;
        assert!(qd.num_nodes() <= bound, "{} nodes", qd.num_nodes());
    }

    #[test]
    fn weighted_updates() {
        let mut qd = QDigest::new(8, 32).unwrap();
        qd.update(10, 900).unwrap();
        qd.update(200, 100).unwrap();
        assert_eq!(qd.count(), 1000);
        let med = qd.quantile(0.5).unwrap();
        assert!(med <= 16, "median {med} should be near 10");
        let p95 = qd.quantile(0.95).unwrap();
        assert!(p95 >= 150, "p95 {p95} should be near 200");
    }

    #[test]
    fn merge_matches_union_accuracy() {
        let mut parts: Vec<QDigest> = (0..8).map(|_| QDigest::new(12, 128).unwrap()).collect();
        let mut rng = Xoshiro256PlusPlus::new(11);
        let mut values = Vec::new();
        for i in 0..80_000usize {
            let v = rng.gen_range(4096);
            parts[i % 8].update(v, 1).unwrap();
            values.push(v);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p).unwrap();
        }
        assert_eq!(merged.count(), 80_000);
        values.sort_unstable();
        let n = values.len() as f64;
        for q in [0.25, 0.5, 0.75] {
            let est = merged.quantile(q).unwrap();
            let est_rank = values.partition_point(|&x| x <= est) as f64 / n;
            assert!((est_rank - q).abs() < 0.1, "q={q}: rank {est_rank:.3}");
        }
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = QDigest::new(8, 16).unwrap();
        assert!(a.merge(&QDigest::new(9, 16).unwrap()).is_err());
        assert!(a.merge(&QDigest::new(8, 32).unwrap()).is_err());
    }

    #[test]
    fn rank_estimation() {
        let mut qd = QDigest::new(10, 128).unwrap();
        for v in 0..1024u64 {
            qd.update(v, 1).unwrap();
        }
        let r = qd.rank(511);
        assert!((r - 0.5).abs() < 0.1, "rank {r}");
    }

    #[test]
    fn empty_and_clear() {
        let mut qd = QDigest::new(8, 16).unwrap();
        assert!(matches!(qd.quantile(0.5), Err(SketchError::EmptySketch)));
        qd.update(1, 1).unwrap();
        qd.clear();
        assert_eq!(qd.count(), 0);
        assert_eq!(qd.num_nodes(), 0);
    }
}
