//! The SF-sketch: a two-stage frequency sketch with a read/write split
//! (Yang et al., "SF-sketch: A Two-stage Sketch for Data Streams").
//!
//! One logical summary, two physical sketches:
//!
//! * the **fat** side — a plain Count-Min grid sized for *update*
//!   accuracy, which absorbs every insertion and deletion;
//! * the **slim** side — a much smaller grid maintained *incrementally*
//!   from fat-side counter changes, which is the only part worth moving:
//!   it is what [`query_view`](sketches_core::QueryView::query_view)
//!   returns, what shards merge, and what the serving layer ships.
//!
//! The insert rule is the paper's: after the fat side absorbs `w`
//! occurrences of `e`, let `n̂` be the fat point estimate of `e`; every
//! slim counter of `e` moves to `max(c, min(c + w, n̂))`. Capping at `n̂`
//! is why the slim side beats a same-size Count-Min: a colliding item can
//! only pollute a slim cell up to the *fat* estimate of the inserted item,
//! not by the full collided mass.
//!
//! **Accuracy guarantees** (one-sided bound `estimate ≥ true count`):
//!
//! * the fat side preserves it always, insertions and deletions alike
//!   (it is a plain CM grid under strict-turnstile updates);
//! * the slim side preserves it for **insert-only** streams (induction on
//!   the insert rule), and for the *deleted item itself* under deletions
//!   (its slim counters never drop below its fat estimate). A deletion can
//!   transiently push a slim cell below the count of a *colliding* item —
//!   the price of slimness; local callers needing the hard bound under
//!   deletions query the fat side, which is exactly what
//!   [`FrequencyEstimator::estimate`] does here.
//!
//! The deletion rule is guarded accordingly: after the fat side
//! decrements, each slim counter of `e` is lowered by at most `w` and
//! never below the new fat estimate `n̂`.

use std::hash::Hash;

use sketches_core::{
    ByteReader, ByteWriter, Clear, FrequencyEstimator, MergeSketch, QueryView, SketchError,
    SketchResult, SpaceUsage, Update,
};
use sketches_hash::hash_item;
use sketches_hash::mix::{fastrange64, mix64_seeded};

/// Item-hash domain of the SF-sketch (distinct from the Count-Min seed so
/// the two families never share collision patterns).
const ITEM_SEED: u64 = 0x05F5_3C17;

/// Domain separation between the fat and slim rows: the slim grid hashes
/// with `seed ^ SLIM_DOMAIN`, so its collisions are independent of the
/// fat side's.
const SLIM_DOMAIN: u64 = 0xA5A5_5A5A_0F0F_F0F0;

/// Per-row domain-separation constants (same scheme as Count-Min).
#[inline]
fn row_seed(seed: u64, row: usize) -> u64 {
    seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(row as u64 + 1))
}

/// The slim query-side half of an [`SfSketch`] — a standalone mergeable
/// frequency summary, cheap to clone and serialize.
///
/// Cut one with [`SfSketch::query_view`]; merge views from disjoint
/// substreams counter-wise (one-sidedness is preserved under merge for
/// insert-only substreams). Estimates take the minimum over rows, exactly
/// like Count-Min — but the counters were capped by fat-side estimates on
/// the way in, so at equal size the slim side is tighter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlimSketch {
    counters: Vec<u64>,
    width: usize,
    depth: usize,
    seed: u64,
    total: u64,
}

impl SlimSketch {
    #[inline]
    fn cell(&self, hash: u64, row: usize) -> usize {
        let h = mix64_seeded(hash, row_seed(self.seed, row));
        row * self.width + fastrange64(h, self.width as u64) as usize
    }

    /// Point query for a pre-hashed item (hash with the SF item domain —
    /// see [`SfSketch::slim_estimate`] for the item-level entry point).
    #[must_use]
    pub fn estimate_hash(&self, hash: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.counters[self.cell(hash, row)])
            .min()
            .unwrap_or(0)
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

    /// Total weight absorbed by the sketch this view was cut from.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    fn check_compatible(&self, other: &Self) -> SketchResult<()> {
        if self.width != other.width || self.depth != other.depth {
            return Err(SketchError::incompatible("slim dimensions differ"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("slim seeds differ"));
        }
        Ok(())
    }

    /// Serializes the view — seed, dimensions, total, counters — in the
    /// workspace checkpoint layout ([`SlimSketch::read_state`] inverts it
    /// exactly; the counter count is implied by the dimensions).
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.seed);
        w.put_u32(self.width as u32);
        w.put_u32(self.depth as u32);
        w.put_u64(self.total);
        for &c in &self.counters {
            w.put_u64(c);
        }
    }

    /// Restores a view from [`SlimSketch::write_state`] bytes.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on truncation or dimensions
    /// outside the constructible range. (Bit-level integrity is the
    /// enclosing envelope checksum's job; this validates structure.)
    pub fn read_state(r: &mut ByteReader<'_>) -> SketchResult<Self> {
        let seed = r.u64()?;
        let width = r.u32()? as usize;
        let depth = r.u32()? as usize;
        if width < 2 {
            return Err(SketchError::corrupted(format!(
                "slim width {width} below minimum 2"
            )));
        }
        if !(1..=32).contains(&depth) {
            return Err(SketchError::corrupted(format!(
                "slim depth {depth} outside 1..=32"
            )));
        }
        let total = r.u64()?;
        let mut counters = Vec::with_capacity(width * depth);
        for _ in 0..width * depth {
            counters.push(r.u64()?);
        }
        Ok(Self {
            counters,
            width,
            depth,
            seed,
            total,
        })
    }
}

impl<T: Hash + ?Sized> FrequencyEstimator<T> for SlimSketch {
    fn estimate(&self, item: &T) -> u64 {
        self.estimate_hash(hash_item(item, ITEM_SEED))
    }
}

impl MergeSketch for SlimSketch {
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        self.check_compatible(other)?;
        for (a, &b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total += other.total;
        Ok(())
    }
}

impl SpaceUsage for SlimSketch {
    fn space_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u64>()
    }
}

impl Clear for SlimSketch {
    fn clear(&mut self) {
        self.counters.fill(0);
        self.total = 0;
    }
}

/// The full two-stage sketch: fat Count-Min update side plus the slim
/// query side it maintains incrementally. See the module docs for the
/// update/delete rules and the scope of the one-sided guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SfSketch {
    fat: Vec<u64>,
    fat_width: usize,
    depth: usize,
    seed: u64,
    total: u64,
    slim: SlimSketch,
}

impl SfSketch {
    /// Creates a sketch with a `depth × fat_width` fat grid and a
    /// `depth × slim_width` slim grid.
    ///
    /// # Errors
    /// Returns an error if `fat_width < 2`, `slim_width < 2`,
    /// `slim_width > fat_width` (the slim side must actually be slim), or
    /// `depth` outside `1..=32`.
    pub fn new(fat_width: usize, slim_width: usize, depth: usize, seed: u64) -> SketchResult<Self> {
        if fat_width < 2 {
            return Err(SketchError::invalid("fat_width", "need fat_width >= 2"));
        }
        if slim_width < 2 {
            return Err(SketchError::invalid("slim_width", "need slim_width >= 2"));
        }
        if slim_width > fat_width {
            return Err(SketchError::invalid(
                "slim_width",
                "slim side must not be wider than the fat side",
            ));
        }
        sketches_core::check_range("depth", depth, 1, 32)?;
        Ok(Self {
            fat: vec![0u64; fat_width * depth],
            fat_width,
            depth,
            seed,
            total: 0,
            slim: SlimSketch {
                counters: vec![0u64; slim_width * depth],
                width: slim_width,
                depth,
                seed: seed ^ SLIM_DOMAIN,
                total: 0,
            },
        })
    }

    #[inline]
    fn fat_cell(&self, hash: u64, row: usize) -> usize {
        let h = mix64_seeded(hash, row_seed(self.seed, row));
        row * self.fat_width + fastrange64(h, self.fat_width as u64) as usize
    }

    #[inline]
    fn fat_estimate_hash(&self, hash: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.fat[self.fat_cell(hash, row)])
            .min()
            .unwrap_or(0)
    }

    /// Adds `weight` occurrences of `item`: fat side first, then the slim
    /// counters move to `max(c, min(c + weight, n̂))` where `n̂` is the
    /// post-update fat estimate.
    pub fn update_weighted<T: Hash + ?Sized>(&mut self, item: &T, weight: u64) {
        let hash = hash_item(item, ITEM_SEED);
        for row in 0..self.depth {
            let cell = self.fat_cell(hash, row);
            self.fat[cell] += weight;
        }
        self.total += weight;
        self.slim.total += weight;
        let fat_est = self.fat_estimate_hash(hash);
        for row in 0..self.depth {
            let cell = self.slim.cell(hash, row);
            let c = self.slim.counters[cell];
            let raised = (c + weight).min(fat_est);
            if raised > c {
                self.slim.counters[cell] = raised;
            }
        }
    }

    /// Removes `weight` occurrences of `item` (strict turnstile: the
    /// caller guarantees `item` was inserted at least `weight` times). The
    /// fat side decrements exactly; each slim counter of `item` is lowered
    /// by at most `weight` and never below the new fat estimate, so the
    /// deleted item's own one-sided bound survives.
    ///
    /// # Errors
    /// Returns an error when `weight` exceeds the fat estimate of `item` —
    /// a detectable strict-turnstile violation. (An overdraw within the
    /// fat overestimate is undetectable; the contract is the caller's.)
    pub fn delete_weighted<T: Hash + ?Sized>(&mut self, item: &T, weight: u64) -> SketchResult<()> {
        let hash = hash_item(item, ITEM_SEED);
        let before = self.fat_estimate_hash(hash);
        if weight > before {
            return Err(SketchError::invalid(
                "weight",
                format!("deleting {weight} but the item's recorded count is {before}"),
            ));
        }
        for row in 0..self.depth {
            let cell = self.fat_cell(hash, row);
            // Every fat cell on the item's path is >= the fat estimate
            // >= weight, so this cannot underflow.
            self.fat[cell] -= weight;
        }
        self.total -= weight;
        self.slim.total -= weight;
        let after = self.fat_estimate_hash(hash);
        for row in 0..self.depth {
            let cell = self.slim.cell(hash, row);
            let c = self.slim.counters[cell];
            if c > after {
                self.slim.counters[cell] = c.saturating_sub(weight).max(after);
            }
        }
        Ok(())
    }

    /// Point query on the **slim** side — the estimate a remote reader
    /// holding only the [`SlimSketch`] view would produce.
    #[must_use]
    pub fn slim_estimate<T: Hash + ?Sized>(&self, item: &T) -> u64 {
        self.slim.estimate_hash(hash_item(item, ITEM_SEED))
    }

    /// Total weight absorbed (`‖f‖₁`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fat width (counters per fat row).
    #[must_use]
    pub fn fat_width(&self) -> usize {
        self.fat_width
    }

    /// Slim width (counters per slim row).
    #[must_use]
    pub fn slim_width(&self) -> usize {
        self.slim.width
    }

    /// Depth `d` (rows in both grids).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Seed the sketch was constructed with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn check_compatible(&self, other: &Self) -> SketchResult<()> {
        if self.fat_width != other.fat_width
            || self.depth != other.depth
            || self.slim.width != other.slim.width
        {
            return Err(SketchError::incompatible("dimensions differ"));
        }
        if self.seed != other.seed {
            return Err(SketchError::incompatible("seeds differ"));
        }
        Ok(())
    }

    /// Serializes the full state — seed, dimensions, total, both grids —
    /// in the workspace checkpoint layout ([`SfSketch::read_state`]
    /// inverts it exactly).
    pub fn write_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.seed);
        w.put_u32(self.fat_width as u32);
        w.put_u32(self.slim.width as u32);
        w.put_u32(self.depth as u32);
        w.put_u64(self.total);
        for &c in &self.fat {
            w.put_u64(c);
        }
        for &c in &self.slim.counters {
            w.put_u64(c);
        }
    }

    /// Restores a sketch from [`SfSketch::write_state`] bytes.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on truncation or dimensions
    /// outside the constructible range.
    pub fn read_state(r: &mut ByteReader<'_>) -> SketchResult<Self> {
        let seed = r.u64()?;
        let fat_width = r.u32()? as usize;
        let slim_width = r.u32()? as usize;
        let depth = r.u32()? as usize;
        if fat_width < 2 || slim_width < 2 || slim_width > fat_width {
            return Err(SketchError::corrupted(format!(
                "SF widths (fat {fat_width}, slim {slim_width}) outside the constructible range"
            )));
        }
        if !(1..=32).contains(&depth) {
            return Err(SketchError::corrupted(format!(
                "SF depth {depth} outside 1..=32"
            )));
        }
        let total = r.u64()?;
        let mut fat = Vec::with_capacity(fat_width * depth);
        for _ in 0..fat_width * depth {
            fat.push(r.u64()?);
        }
        let mut slim_counters = Vec::with_capacity(slim_width * depth);
        for _ in 0..slim_width * depth {
            slim_counters.push(r.u64()?);
        }
        Ok(Self {
            fat,
            fat_width,
            depth,
            seed,
            total,
            slim: SlimSketch {
                counters: slim_counters,
                width: slim_width,
                depth,
                seed: seed ^ SLIM_DOMAIN,
                total,
            },
        })
    }
}

impl<T: Hash + ?Sized> Update<T> for SfSketch {
    fn update(&mut self, item: &T) {
        self.update_weighted(item, 1);
    }
}

impl<T: Hash + ?Sized> FrequencyEstimator<T> for SfSketch {
    /// The **fat**-side estimate: the local authority, preserving the
    /// one-sided bound under deletions. Remote readers use the slim view
    /// ([`SfSketch::slim_estimate`] shows what they would see).
    fn estimate(&self, item: &T) -> u64 {
        self.fat_estimate_hash(hash_item(item, ITEM_SEED))
    }
}

impl Clear for SfSketch {
    fn clear(&mut self) {
        self.fat.fill(0);
        self.total = 0;
        self.slim.clear();
    }
}

impl SpaceUsage for SfSketch {
    fn space_bytes(&self) -> usize {
        self.fat.len() * std::mem::size_of::<u64>() + self.slim.space_bytes()
    }
}

impl MergeSketch for SfSketch {
    /// Counter-wise merge of both sides. The slim merge is plain addition
    /// — identical to [`SlimSketch::merge`] — so cutting a view commutes
    /// with merging: `merge(a, b).query_view()` equals
    /// `merge(a.query_view(), b.query_view())` exactly.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        self.check_compatible(other)?;
        for (a, &b) in self.fat.iter_mut().zip(&other.fat) {
            *a += b;
        }
        self.total += other.total;
        self.slim.merge(&other.slim)
    }
}

impl QueryView for SfSketch {
    type View = SlimSketch;

    /// Cuts the slim query-side view: a clone of the incrementally
    /// maintained slim grid, `slim_width / fat_width` the size of the fat
    /// state.
    fn query_view(&self) -> SlimSketch {
        self.slim.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_min::CountMinSketch;
    use std::collections::HashMap;

    fn skewed_stream(n: u32, modulo: u32) -> Vec<u32> {
        // Zipf-ish: item i appears roughly n/(i+1) times.
        let mut out = Vec::new();
        let mut i = 0u32;
        while out.len() < n as usize {
            let item = i % modulo;
            let copies = (modulo / (item + 1)).max(1);
            for _ in 0..copies {
                out.push(item);
            }
            i += 1;
        }
        out.truncate(n as usize);
        out
    }

    fn exact(stream: &[u32]) -> HashMap<u32, u64> {
        let mut m = HashMap::new();
        for &x in stream {
            *m.entry(x).or_insert(0u64) += 1;
        }
        m
    }

    #[test]
    fn rejects_bad_params() {
        assert!(SfSketch::new(1, 2, 4, 0).is_err());
        assert!(SfSketch::new(64, 1, 4, 0).is_err());
        assert!(SfSketch::new(64, 128, 4, 0).is_err(), "slim wider than fat");
        assert!(SfSketch::new(64, 16, 0, 0).is_err());
        assert!(SfSketch::new(64, 16, 33, 0).is_err());
    }

    #[test]
    fn fat_and_slim_never_underestimate_insert_only() {
        let mut sf = SfSketch::new(1024, 64, 4, 1).unwrap();
        let stream = skewed_stream(20_000, 400);
        for &x in &stream {
            sf.update(&x);
        }
        for (item, &truth) in &exact(&stream) {
            assert!(
                FrequencyEstimator::estimate(&sf, item) >= truth,
                "fat underestimated {item}"
            );
            assert!(
                sf.slim_estimate(item) >= truth,
                "slim underestimated {item}"
            );
        }
        assert_eq!(sf.total(), 20_000);
    }

    #[test]
    fn slim_beats_same_size_count_min() {
        // The paper's core claim: at equal query-side size, the slim half
        // (backed by a fat update side) is tighter than a plain CM.
        let mut sf = SfSketch::new(2048, 64, 4, 7).unwrap();
        let mut cm = CountMinSketch::new(64, 4, 7).unwrap();
        let stream = skewed_stream(50_000, 1_000);
        for &x in &stream {
            sf.update(&x);
            cm.update(&x);
        }
        let mut slim_err = 0u64;
        let mut cm_err = 0u64;
        for (item, &truth) in &exact(&stream) {
            slim_err += sf.slim_estimate(item) - truth;
            cm_err += FrequencyEstimator::estimate(&cm, item) - truth;
        }
        assert!(
            slim_err <= cm_err,
            "slim total error {slim_err} exceeds same-size CM {cm_err}"
        );
    }

    #[test]
    fn weighted_equals_repeated() {
        let mut a = SfSketch::new(128, 16, 3, 6).unwrap();
        let mut b = SfSketch::new(128, 16, 3, 6).unwrap();
        for _ in 0..9 {
            a.update(&42u32);
        }
        b.update_weighted(&42u32, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn deletion_keeps_deleted_items_bound() {
        let mut sf = SfSketch::new(256, 32, 4, 3).unwrap();
        for i in 0..2_000u32 {
            sf.update(&(i % 100));
        }
        // Delete 15 of item 7's 20 occurrences.
        sf.delete_weighted(&7u32, 15).unwrap();
        assert_eq!(sf.total(), 1_985);
        assert!(FrequencyEstimator::estimate(&sf, &7u32) >= 5, "fat bound");
        assert!(sf.slim_estimate(&7u32) >= 5, "slim bound for deleted item");
        // Untouched items keep the fat-side bound.
        assert!(FrequencyEstimator::estimate(&sf, &8u32) >= 20);
    }

    #[test]
    fn deletion_overdraw_is_typed() {
        let mut sf = SfSketch::new(256, 32, 4, 3).unwrap();
        sf.update_weighted(&1u32, 5);
        assert!(sf.delete_weighted(&1u32, 6).is_err());
        // The failed delete left state untouched.
        assert_eq!(sf.total(), 5);
        assert_eq!(FrequencyEstimator::estimate(&sf, &1u32), 5);
        sf.delete_weighted(&1u32, 5).unwrap();
        assert_eq!(sf.total(), 0);
    }

    #[test]
    fn merge_preserves_bound_and_commutes_with_views() {
        let mut a = SfSketch::new(512, 32, 4, 9).unwrap();
        let mut b = SfSketch::new(512, 32, 4, 9).unwrap();
        let sa = skewed_stream(5_000, 200);
        let sb = skewed_stream(5_000, 300);
        for &x in &sa {
            a.update(&x);
        }
        for &x in &sb {
            b.update(&x);
        }
        let mut view_merge = a.query_view();
        view_merge.merge(&b.query_view()).unwrap();

        a.merge(&b).unwrap();
        assert_eq!(a.total(), 10_000);
        // Merging then viewing equals viewing then merging, byte for byte.
        assert_eq!(a.query_view(), view_merge);

        let mut combined = sa.clone();
        combined.extend_from_slice(&sb);
        for (item, &truth) in &exact(&combined) {
            assert!(FrequencyEstimator::estimate(&a, item) >= truth);
            assert!(a.slim_estimate(item) >= truth, "slim after merge");
        }
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = SfSketch::new(128, 16, 4, 0).unwrap();
        assert!(a.merge(&SfSketch::new(256, 16, 4, 0).unwrap()).is_err());
        assert!(a.merge(&SfSketch::new(128, 32, 4, 0).unwrap()).is_err());
        assert!(a.merge(&SfSketch::new(128, 16, 5, 0).unwrap()).is_err());
        assert!(a.merge(&SfSketch::new(128, 16, 4, 1).unwrap()).is_err());
    }

    #[test]
    fn clear_space_and_view_size() {
        let mut sf = SfSketch::new(1024, 64, 4, 0).unwrap();
        sf.update(&1u8);
        let view = sf.query_view();
        assert_eq!(view.space_bytes(), 64 * 4 * 8);
        assert_eq!(sf.space_bytes(), (1024 + 64) * 4 * 8);
        assert!(view.space_bytes() * 8 <= sf.space_bytes());
        sf.clear();
        assert_eq!(FrequencyEstimator::estimate(&sf, &1u8), 0);
        assert_eq!(sf.slim_estimate(&1u8), 0);
        assert_eq!(sf.total(), 0);
        assert_eq!(sf.query_view().total(), 0);
    }

    #[test]
    fn state_round_trips_and_corruption_is_typed() {
        let mut sf = SfSketch::new(128, 16, 3, 11).unwrap();
        for i in 0..1_000u32 {
            sf.update(&(i % 50));
        }
        sf.delete_weighted(&3u32, 4).unwrap();
        let mut w = ByteWriter::new();
        sf.write_state(&mut w);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let restored = SfSketch::read_state(&mut r).unwrap();
        assert_eq!(restored, sf);
        assert_eq!(restored.query_view(), sf.query_view());

        for cut in [0, 8, 16, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(matches!(
                SfSketch::read_state(&mut r),
                Err(SketchError::Corrupted { .. })
            ));
        }
        // Zero the fat width (bytes 8..12): structurally invalid.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&0u32.to_le_bytes());
        let mut r = ByteReader::new(&bad);
        assert!(matches!(
            SfSketch::read_state(&mut r),
            Err(SketchError::Corrupted { .. })
        ));
    }

    #[test]
    fn slim_view_round_trips() {
        let mut sf = SfSketch::new(128, 16, 3, 13).unwrap();
        for i in 0..500u32 {
            sf.update(&(i % 40));
        }
        let view = sf.query_view();
        let mut w = ByteWriter::new();
        view.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored = SlimSketch::read_state(&mut r).unwrap();
        assert_eq!(restored, view);
        assert_eq!(
            FrequencyEstimator::<u32>::estimate(&restored, &0),
            sf.slim_estimate(&0u32)
        );
        let mut r = ByteReader::new(&bytes[..bytes.len() - 2]);
        assert!(matches!(
            SlimSketch::read_state(&mut r),
            Err(SketchError::Corrupted { .. })
        ));
    }
}
