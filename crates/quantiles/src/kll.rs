//! The KLL quantile sketch (Karnin, Lang & Liberty, FOCS 2016).
//!
//! The survey's endpoint of the quantile lineage: a hierarchy of
//! *compactors*, one per weight level `2^l`. Items enter level 0; a full
//! level sorts itself and promotes every other item (random offset) to the
//! next level, halving its size while keeping ranks unbiased. Capacities
//! shrink geometrically (`k·c^depth`, `c = 2/3`) from the top level down,
//! which is what improves on MRL's uniform buffers and achieves optimal
//! `O((1/ε)·√log(1/δ))` space. Fully mergeable.

use sketches_core::{
    ByteReader, ByteWriter, Clear, MergeSketch, QuantileSketch, SketchError, SketchResult,
    SpaceUsage, Update,
};
use sketches_hash::rng::{Rng64, SplitMix64};

/// Capacity decay rate between adjacent compactor levels.
const C: f64 = 2.0 / 3.0;

/// A KLL sketch over `f64` values.
#[derive(Debug, Clone)]
pub struct KllSketch {
    /// `compactors[l]` holds items of weight `2^l`.
    compactors: Vec<Vec<f64>>,
    k: usize,
    n: u64,
    rng: SplitMix64,
    min: f64,
    max: f64,
}

impl KllSketch {
    /// Creates a sketch with accuracy parameter `k` (roughly, rank error
    /// `≈ 1.7/k`; `k = 200` gives ~1% error). Requires `k >= 8`.
    ///
    /// # Errors
    /// Returns an error if `k < 8`.
    pub fn new(k: usize, seed: u64) -> SketchResult<Self> {
        if k < 8 {
            return Err(SketchError::invalid("k", "need k >= 8"));
        }
        Ok(Self {
            compactors: vec![Vec::new()],
            k,
            n: 0,
            rng: SplitMix64::new(seed),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    /// The accuracy parameter `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of compactor levels.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.compactors.len()
    }

    /// Total items retained across all levels.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.compactors.iter().map(Vec::len).sum()
    }

    /// Capacity of level `l` when the sketch has `num_levels` levels:
    /// `max(⌈k·c^(H−1−l)⌉, 2)`.
    fn capacity(&self, level: usize) -> usize {
        let h = self.compactors.len();
        let depth = (h - 1 - level) as i32;
        ((self.k as f64) * C.powi(depth)).ceil().max(2.0) as usize
    }

    /// Compacts any over-full level, cascading upward.
    fn compress(&mut self) {
        let mut level = 0;
        while level < self.compactors.len() {
            if self.compactors[level].len() >= self.capacity(level) {
                if level + 1 == self.compactors.len() {
                    self.compactors.push(Vec::new());
                }
                let mut items = std::mem::take(&mut self.compactors[level]);
                items.sort_by(f64::total_cmp);
                let offset = (self.rng.next_u64() & 1) as usize;
                let promoted: Vec<f64> = items.iter().skip(offset).step_by(2).copied().collect();
                self.compactors[level + 1].extend_from_slice(&promoted);
            }
            level += 1;
        }
    }

    /// Serializes the full sketch state — parameters, counters, the RNG
    /// position, and every compactor level in order — in the workspace
    /// checkpoint layout. [`KllSketch::read_state`] inverts it exactly, and
    /// a restored sketch continues the *same* promotion coin-flip sequence
    /// because the [`SplitMix64`] state is checkpointed too.
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_usize(self.k);
        w.put_u64(self.n);
        w.put_u64(self.rng.state());
        w.put_f64(self.min);
        w.put_f64(self.max);
        w.put_usize(self.compactors.len());
        for level in &self.compactors {
            w.put_usize(level.len());
            for &v in level {
                w.put_f64(v);
            }
        }
    }

    /// Restores a sketch from [`KllSketch::write_state`] bytes.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on truncation, `k < 8`, a zero
    /// level count (the sketch always holds level 0), or level counts the
    /// buffer cannot contain.
    pub fn read_state(r: &mut ByteReader<'_>) -> SketchResult<Self> {
        let k = r.usize()?;
        if k < 8 {
            return Err(SketchError::corrupted(format!("KLL k {k} below minimum 8")));
        }
        let n = r.u64()?;
        let rng = SplitMix64::new(r.u64()?);
        let min = r.f64()?;
        let max = r.f64()?;
        let num_levels = r.array_len(8, "KLL levels")?;
        if num_levels == 0 {
            return Err(SketchError::corrupted("KLL must hold at least level 0"));
        }
        let mut compactors = Vec::with_capacity(num_levels);
        for _ in 0..num_levels {
            let len = r.array_len(8, "KLL level items")?;
            let mut level = Vec::with_capacity(len);
            for _ in 0..len {
                level.push(r.f64()?);
            }
            compactors.push(level);
        }
        Ok(Self {
            compactors,
            k,
            n,
            rng,
            min,
            max,
        })
    }

    /// All `(value, weight)` pairs currently held, unsorted.
    fn weighted_items(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.compactors
            .iter()
            .enumerate()
            .flat_map(|(l, items)| items.iter().map(move |&v| (v, 1u64 << l)))
    }
}

impl Update<f64> for KllSketch {
    fn update(&mut self, item: &f64) {
        let v = *item;
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.compactors[0].push(v);
        if self.compactors[0].len() >= self.capacity(0) {
            self.compress();
        }
    }

    /// Batched ingest that fills level 0 chunk-by-chunk instead of item-by-
    /// item. Each chunk stops exactly where the per-item path would have
    /// compacted, so the sketch consumes the *same* promotion coin flips and
    /// the resulting state is byte-identical to per-item updates — only the
    /// bookkeeping (capacity lookups, bounds checks, counter bumps) is
    /// amortized over the chunk.
    fn update_slice(&mut self, items: &[f64]) {
        let mut rest = items;
        while !rest.is_empty() {
            // Room left in level 0 before the per-item path would compact.
            let cap = self.capacity(0);
            let room = cap.saturating_sub(self.compactors[0].len()).max(1);
            let take = room.min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            for &v in chunk {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            self.n += take as u64;
            self.compactors[0].extend_from_slice(chunk);
            if self.compactors[0].len() >= self.capacity(0) {
                self.compress();
            }
            rest = tail;
        }
    }
}

impl QuantileSketch for KllSketch {
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

impl Clear for KllSketch {
    fn clear(&mut self) {
        self.compactors = vec![Vec::new()];
        self.n = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

impl SpaceUsage for KllSketch {
    fn space_bytes(&self) -> usize {
        self.compactors
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<f64>())
            .sum()
    }
}

impl MergeSketch for KllSketch {
    /// Level-wise concatenation followed by compaction — the canonical KLL
    /// merge, preserving the error guarantee.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.k != other.k {
            return Err(SketchError::incompatible(format!(
                "k differs: {} vs {}",
                self.k, other.k
            )));
        }
        while self.compactors.len() < other.compactors.len() {
            self.compactors.push(Vec::new());
        }
        for (l, items) in other.compactors.iter().enumerate() {
            self.compactors[l].extend_from_slice(items);
        }
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        // Compact until every level is within capacity (capacities shrink
        // as new levels appear, so one pass may not be enough).
        loop {
            let over =
                (0..self.compactors.len()).any(|l| self.compactors[l].len() >= self.capacity(l));
            if !over {
                break;
            }
            self.compress();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_hash::rng::Xoshiro256PlusPlus;

    fn max_rank_error(kll: &KllSketch, sorted: &[f64]) -> f64 {
        let n = sorted.len() as f64;
        let mut worst: f64 = 0.0;
        for qi in 1..40 {
            let q = f64::from(qi) / 40.0;
            let est = kll.quantile(q).unwrap();
            let est_rank = sorted.partition_point(|&x| x <= est) as f64 / n;
            worst = worst.max((est_rank - q).abs());
        }
        worst
    }

    #[test]
    fn rejects_small_k() {
        assert!(KllSketch::new(4, 0).is_err());
        assert!(KllSketch::new(8, 0).is_ok());
    }

    #[test]
    fn accuracy_on_random_data() {
        let mut kll = KllSketch::new(200, 1).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(5);
        let mut data: Vec<f64> = (0..100_000).map(|_| rng.next_f64() * 1e6).collect();
        for &x in &data {
            kll.update(&x);
        }
        data.sort_by(f64::total_cmp);
        let err = max_rank_error(&kll, &data);
        assert!(err < 0.02, "max rank error {err:.4}");
    }

    #[test]
    fn accuracy_on_sorted_and_reversed() {
        for reversed in [false, true] {
            let mut kll = KllSketch::new(200, 2).unwrap();
            let mut data: Vec<f64> = (0..50_000).map(f64::from).collect();
            if reversed {
                for &x in data.iter().rev() {
                    kll.update(&x);
                }
            } else {
                for &x in &data {
                    kll.update(&x);
                }
            }
            data.sort_by(f64::total_cmp);
            let err = max_rank_error(&kll, &data);
            assert!(err < 0.02, "reversed={reversed}: error {err:.4}");
        }
    }

    #[test]
    fn space_is_sublinear() {
        let mut kll = KllSketch::new(200, 3).unwrap();
        for i in 0..1_000_000 {
            kll.update(&f64::from(i));
        }
        assert!(
            kll.retained() < 2_000,
            "KLL retained {} items for n=1M",
            kll.retained()
        );
        assert!(kll.num_levels() > 5);
    }

    #[test]
    fn min_max_exact() {
        let mut kll = KllSketch::new(64, 4).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(9);
        let data: Vec<f64> = (0..10_000).map(|_| rng.next_f64() * 100.0 - 50.0).collect();
        for &x in &data {
            kll.update(&x);
        }
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(kll.quantile(0.0).unwrap(), min);
        assert_eq!(kll.quantile(1.0).unwrap(), max);
    }

    #[test]
    fn merge_matches_single_stream_accuracy() {
        let mut parts: Vec<KllSketch> = (0..16)
            .map(|i| KllSketch::new(200, 100 + i).unwrap())
            .collect();
        let mut rng = Xoshiro256PlusPlus::new(11);
        let mut data: Vec<f64> = (0..160_000).map(|_| rng.next_f64()).collect();
        for (i, &x) in data.iter().enumerate() {
            parts[i % 16].update(&x);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p).unwrap();
        }
        assert_eq!(merged.count(), 160_000);
        data.sort_by(f64::total_cmp);
        let err = max_rank_error(&merged, &data);
        assert!(err < 0.03, "merged rank error {err:.4}");
    }

    #[test]
    fn merge_rejects_k_mismatch() {
        let mut a = KllSketch::new(100, 0).unwrap();
        let b = KllSketch::new(200, 0).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn rank_and_quantile_are_inverse_ish() {
        let mut kll = KllSketch::new(200, 6).unwrap();
        for i in 0..50_000 {
            kll.update(&f64::from(i));
        }
        for q in [0.1, 0.5, 0.9] {
            let v = kll.quantile(q).unwrap();
            let r = kll.rank(v);
            assert!((r - q).abs() < 0.03, "q={q}: rank(quantile) = {r}");
        }
    }

    #[test]
    fn empty_and_invalid() {
        let kll = KllSketch::new(32, 0).unwrap();
        assert!(matches!(kll.quantile(0.5), Err(SketchError::EmptySketch)));
        assert_eq!(kll.rank(1.0), 0.0);
        let mut kll = KllSketch::new(32, 0).unwrap();
        kll.update(&1.0);
        assert!(kll.quantile(-0.5).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut kll = KllSketch::new(32, 0).unwrap();
        for i in 0..1000 {
            kll.update(&f64::from(i));
        }
        kll.clear();
        assert_eq!(kll.count(), 0);
        assert_eq!(kll.retained(), 0);
    }

    #[test]
    fn single_item() {
        let mut kll = KllSketch::new(8, 0).unwrap();
        kll.update(&42.0);
        assert_eq!(kll.quantile(0.5).unwrap(), 42.0);
        assert_eq!(kll.quantile(0.0).unwrap(), 42.0);
        assert_eq!(kll.quantile(1.0).unwrap(), 42.0);
    }

    fn state_bytes(kll: &KllSketch) -> Vec<u8> {
        let mut w = ByteWriter::new();
        kll.write_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn update_slice_is_byte_identical_to_per_item() {
        // The batched path must reproduce the per-item path *exactly* —
        // same compaction points, same coin flips, same serialized bytes —
        // for any way the stream is cut into slices.
        let mut rng = Xoshiro256PlusPlus::new(33);
        let data: Vec<f64> = (0..20_000).map(|_| rng.next_f64() * 1e4).collect();
        let mut per_item = KllSketch::new(64, 99).unwrap();
        for &x in &data {
            per_item.update(&x);
        }
        let expected = state_bytes(&per_item);
        // One giant slice, tiny slices, and ragged prime-sized slices.
        for chunk in [data.len(), 1, 7, 613] {
            let mut sliced = KllSketch::new(64, 99).unwrap();
            for part in data.chunks(chunk) {
                sliced.update_slice(part);
            }
            assert_eq!(state_bytes(&sliced), expected, "chunk size {chunk}");
        }
        // Interleaving the two entry points also stays exact.
        let mut mixed = KllSketch::new(64, 99).unwrap();
        for (i, part) in data.chunks(101).enumerate() {
            if i % 2 == 0 {
                mixed.update_slice(part);
            } else {
                for x in part {
                    mixed.update(x);
                }
            }
        }
        assert_eq!(state_bytes(&mixed), expected);
    }

    #[test]
    fn state_round_trips_and_resumes_identically() {
        let mut a = KllSketch::new(64, 17).unwrap();
        let mut rng = Xoshiro256PlusPlus::new(21);
        for _ in 0..5_000 {
            a.update(&(rng.next_f64() * 1e3));
        }
        let bytes = state_bytes(&a);
        let mut r = ByteReader::new(&bytes);
        let mut b = KllSketch::read_state(&mut r).unwrap();
        r.expect_end("kll state").unwrap();
        assert_eq!(state_bytes(&b), bytes, "canonical encoding");
        // The restored sketch must replay the same promotion coin flips:
        // future states stay byte-identical, not merely close.
        for _ in 0..5_000 {
            let v = rng.next_f64() * 1e3;
            a.update(&v);
            b.update(&v);
        }
        assert_eq!(state_bytes(&a), state_bytes(&b));
    }

    #[test]
    fn state_corruption_is_typed() {
        let mut kll = KllSketch::new(8, 3).unwrap();
        for i in 0..100 {
            kll.update(&f64::from(i));
        }
        let bytes = state_bytes(&kll);
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                matches!(
                    KllSketch::read_state(&mut r),
                    Err(SketchError::Corrupted { .. })
                ),
                "cut {cut}"
            );
        }
        // k below the constructor minimum is structurally rejected.
        let mut bad = bytes.clone();
        bad[0] = 1;
        let mut r = ByteReader::new(&bad);
        assert!(matches!(
            KllSketch::read_state(&mut r),
            Err(SketchError::Corrupted { .. })
        ));
        // An absurd level count cannot drive a huge allocation.
        let mut bad = bytes;
        bad[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = ByteReader::new(&bad);
        assert!(matches!(
            KllSketch::read_state(&mut r),
            Err(SketchError::Corrupted { .. })
        ));
    }
}
