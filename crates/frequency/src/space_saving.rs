//! The SpaceSaving algorithm (Metwally, Agrawal & El Abbadi, ICDT 2005).
//!
//! Keeps exactly `k` counters. A tracked item increments its counter; an
//! untracked item *replaces* the minimum counter, inheriting its count as
//! the new entry's overestimation error. Every reported count is an upper
//! bound, every untracked item has true count at most the minimum tracked
//! counter, and each error is at most `n/k`. The survey notes SpaceSaving
//! was "later connected with the similar Misra–Gries algorithm" — the two
//! maintain isomorphic states (`SS count − SS error = MG count`), which the
//! tests check directly.
//!
//! Counters are kept in a `BTreeSet` ordered by count so updates and
//! evictions run in `O(log k)`.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

use sketches_core::{
    ByteReader, ByteWriter, Clear, MergeSketch, SketchError, SketchResult, SpaceUsage, Update,
};

/// One tracked counter.
#[derive(Debug, Clone)]
struct Slot<T> {
    item: T,
    count: u64,
    err: u64,
}

/// A SpaceSaving summary with exactly `k` counters.
#[derive(Debug, Clone)]
pub struct SpaceSaving<T> {
    capacity: usize,
    slots: Vec<Slot<T>>,
    /// item → slot index.
    index: HashMap<T, usize>,
    /// (count, slot index) ordered for O(log k) min lookup.
    by_count: BTreeSet<(u64, usize)>,
    items_seen: u64,
}

impl<T: Hash + Eq + Clone> SpaceSaving<T> {
    /// Creates a summary with `k >= 2` counters.
    ///
    /// # Errors
    /// Returns an error if `k < 2`.
    pub fn new(k: usize) -> SketchResult<Self> {
        if k < 2 {
            return Err(SketchError::invalid("k", "need k >= 2"));
        }
        Ok(Self {
            capacity: k,
            // Grown lazily: a sketch tracking a small group should not pay
            // for k slots up front (the many-groups regime of streamdb).
            slots: Vec::new(),
            index: HashMap::new(),
            by_count: BTreeSet::new(),
            items_seen: 0,
        })
    }

    /// Absorbs `weight` occurrences of `item`.
    pub fn update_weighted(&mut self, item: &T, weight: u64) {
        if weight == 0 {
            return;
        }
        self.items_seen += weight;
        if let Some(&slot) = self.index.get(item) {
            let old = self.slots[slot].count;
            self.by_count.remove(&(old, slot));
            self.slots[slot].count = old + weight;
            self.by_count.insert((old + weight, slot));
        } else if self.slots.len() < self.capacity {
            let slot = self.slots.len();
            self.slots.push(Slot {
                item: item.clone(),
                count: weight,
                err: 0,
            });
            self.index.insert(item.clone(), slot);
            self.by_count.insert((weight, slot));
        } else {
            // Evict the minimum counter; the newcomer inherits its count as
            // overestimation error.
            #[expect(
                clippy::expect_used,
                reason = "this branch runs only when all k >= 2 slots are occupied"
            )]
            let &(min_count, slot) = self.by_count.iter().next().expect("k >= 2 slots");
            self.by_count.remove(&(min_count, slot));
            let evicted = std::mem::replace(
                &mut self.slots[slot],
                Slot {
                    item: item.clone(),
                    count: min_count + weight,
                    err: min_count,
                },
            );
            self.index.remove(&evicted.item);
            self.index.insert(item.clone(), slot);
            self.by_count.insert((min_count + weight, slot));
        }
    }

    /// Upper-bound estimate of `item`'s frequency (0 if untracked; untracked
    /// items are guaranteed below [`SpaceSaving::min_count`]).
    #[must_use]
    pub fn estimate(&self, item: &T) -> u64 {
        self.index
            .get(item)
            .map_or(0, |&slot| self.slots[slot].count)
    }

    /// Guaranteed lower bound on `item`'s frequency.
    #[must_use]
    pub fn lower_bound(&self, item: &T) -> u64 {
        self.index.get(item).map_or(0, |&slot| {
            let s = &self.slots[slot];
            s.count - s.err
        })
    }

    /// The minimum tracked counter: an upper bound on the frequency of
    /// *every untracked item*. Zero while under capacity.
    #[must_use]
    pub fn min_count(&self) -> u64 {
        if self.slots.len() < self.capacity {
            0
        } else {
            self.by_count.iter().next().map_or(0, |&(c, _)| c)
        }
    }

    /// Number of items absorbed.
    #[must_use]
    pub fn items_seen(&self) -> u64 {
        self.items_seen
    }

    /// All tracked `(item, upper-bound count, error)` triples, unordered.
    pub fn entries(&self) -> impl Iterator<Item = (&T, u64, u64)> {
        self.slots.iter().map(|s| (&s.item, s.count, s.err))
    }

    /// Items with estimated frequency at least `phi · n`, sorted descending.
    /// Guaranteed to include every item with true frequency above
    /// `(phi + 1/k) · n`.
    #[must_use]
    pub fn heavy_hitters(&self, phi: f64) -> Vec<(T, u64)> {
        let threshold = ((phi * self.items_seen as f64).ceil() as u64).max(1);
        let mut out: Vec<(T, u64)> = self
            .slots
            .iter()
            .filter(|s| s.count >= threshold)
            .map(|s| (s.item.clone(), s.count))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.1));
        out
    }

    /// The top `j` items by estimated count, descending.
    #[must_use]
    pub fn top_k(&self, j: usize) -> Vec<(T, u64)> {
        let mut out: Vec<(T, u64)> = self
            .slots
            .iter()
            .map(|s| (s.item.clone(), s.count))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.1));
        out.truncate(j);
        out
    }

    /// The capacity `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.capacity
    }

    /// Serializes the full summary state in the workspace checkpoint
    /// layout, delegating item encoding to `write_item` (the summary is
    /// generic over `T`, so the caller owns the item format). Slots are
    /// written in their live order — slot indices are part of the state
    /// (`by_count` tie-breaks on them), so preserving order keeps restored
    /// behaviour byte-identical. [`SpaceSaving::read_state_with`] inverts
    /// this exactly.
    pub fn write_state_with(
        &self,
        w: &mut ByteWriter,
        mut write_item: impl FnMut(&T, &mut ByteWriter),
    ) {
        w.put_usize(self.capacity);
        w.put_u64(self.items_seen);
        w.put_usize(self.slots.len());
        for slot in &self.slots {
            write_item(&slot.item, w);
            w.put_u64(slot.count);
            w.put_u64(slot.err);
        }
    }

    /// Restores a summary from [`SpaceSaving::write_state_with`] bytes,
    /// delegating item decoding to `read_item`. The `index` and `by_count`
    /// views are rebuilt from the slots.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on truncation, `k < 2`, more
    /// slots than capacity, a duplicate item, or an error bound exceeding
    /// its count.
    pub fn read_state_with(
        r: &mut ByteReader<'_>,
        mut read_item: impl FnMut(&mut ByteReader<'_>) -> SketchResult<T>,
    ) -> SketchResult<Self> {
        let capacity = r.usize()?;
        if capacity < 2 {
            return Err(SketchError::corrupted(format!(
                "SpaceSaving capacity {capacity} below minimum 2"
            )));
        }
        let items_seen = r.u64()?;
        // Each slot is at least 16 bytes of counters, bounding the count
        // before any allocation.
        let num_slots = r.array_len(16, "SpaceSaving slots")?;
        if num_slots > capacity {
            return Err(SketchError::corrupted(format!(
                "SpaceSaving holds {num_slots} slots but capacity is {capacity}"
            )));
        }
        let mut slots = Vec::with_capacity(num_slots);
        let mut index = HashMap::with_capacity(num_slots);
        let mut by_count = BTreeSet::new();
        for i in 0..num_slots {
            let item = read_item(r)?;
            let count = r.u64()?;
            let err = r.u64()?;
            if err > count {
                return Err(SketchError::corrupted(format!(
                    "SpaceSaving slot {i}: error {err} exceeds count {count}"
                )));
            }
            if index.insert(item.clone(), i).is_some() {
                return Err(SketchError::corrupted(format!(
                    "SpaceSaving slot {i} duplicates an earlier item"
                )));
            }
            by_count.insert((count, i));
            slots.push(Slot { item, count, err });
        }
        Ok(Self {
            capacity,
            slots,
            index,
            by_count,
            items_seen,
        })
    }

    fn rebuild_from(&mut self, mut merged: Vec<Slot<T>>, items_seen: u64) {
        merged.sort_by_key(|slot| std::cmp::Reverse(slot.count));
        merged.truncate(self.capacity);
        self.slots = merged;
        self.index = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (s.item.clone(), i))
            .collect();
        self.by_count = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (s.count, i))
            .collect();
        self.items_seen = items_seen;
    }
}

impl<T: Hash + Eq + Clone> Update<T> for SpaceSaving<T> {
    fn update(&mut self, item: &T) {
        self.update_weighted(item, 1);
    }
}

impl<T> Clear for SpaceSaving<T> {
    fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.by_count.clear();
        self.items_seen = 0;
    }
}

impl<T> SpaceUsage for SpaceSaving<T> {
    fn space_bytes(&self) -> usize {
        self.slots.len()
            * (std::mem::size_of::<Slot<T>>()
                + std::mem::size_of::<(u64, usize)>()
                + std::mem::size_of::<usize>())
    }
}

impl<T: Hash + Eq + Clone> MergeSketch for SpaceSaving<T> {
    /// Pointwise merge preserving both bounds: items present in one input
    /// are charged the other side's minimum counter (a valid upper bound on
    /// their unseen count); then the top `k` by upper bound are kept.
    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.capacity != other.capacity {
            return Err(SketchError::incompatible("k differs"));
        }
        let min_self = self.min_count();
        let min_other = other.min_count();
        // Accumulate into a Vec in deterministic insertion order (self's
        // slots, then other's unseen slots) with a map only as an index:
        // iterating a RandomState HashMap here made the tie order after
        // `rebuild_from`'s sort vary run to run, breaking the workspace's
        // bit-reproducibility contract. The stable sort in `rebuild_from`
        // keeps insertion order among equal counts.
        let mut merged: Vec<Slot<T>> = Vec::with_capacity(self.slots.len() + other.slots.len());
        let mut index: HashMap<T, usize> = HashMap::with_capacity(merged.capacity());
        for s in &self.slots {
            index.insert(s.item.clone(), merged.len());
            merged.push(Slot {
                item: s.item.clone(),
                count: s.count + min_other,
                err: s.err + min_other,
            });
        }
        for s in &other.slots {
            match index.get(&s.item) {
                Some(&i) => {
                    // Present in both: true counts add; replace the charged
                    // minimum with the real counter.
                    merged[i].count = merged[i].count - min_other + s.count;
                    merged[i].err = merged[i].err - min_other + s.err;
                }
                None => {
                    index.insert(s.item.clone(), merged.len());
                    merged.push(Slot {
                        item: s.item.clone(),
                        count: s.count + min_self,
                        err: s.err + min_self,
                    });
                }
            }
        }
        let items_seen = self.items_seen + other.items_seen;
        self.rebuild_from(merged, items_seen);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_stream(n: usize) -> Vec<u32> {
        // Deterministic skew: item i gets ~n/2^{i+1} occurrences.
        let mut v = Vec::new();
        let mut remaining = n;
        let mut i = 0u32;
        while remaining > 0 {
            let take = (n >> (i + 1)).max(1).min(remaining);
            v.extend(std::iter::repeat_n(i, take));
            remaining -= take;
            i += 1;
        }
        v
    }

    #[test]
    fn rejects_small_k() {
        assert!(SpaceSaving::<u32>::new(1).is_err());
        assert!(SpaceSaving::<u32>::new(2).is_ok());
    }

    #[test]
    fn exact_under_capacity() {
        let mut ss = SpaceSaving::new(64).unwrap();
        for i in 0..20u32 {
            for _ in 0..=i {
                ss.update(&i);
            }
        }
        for i in 0..20u32 {
            assert_eq!(ss.estimate(&i), u64::from(i) + 1);
            assert_eq!(ss.lower_bound(&i), u64::from(i) + 1);
        }
    }

    #[test]
    fn estimates_sandwich_truth() {
        let stream = skewed_stream(20_000);
        let n = stream.len() as u64;
        let k = 32;
        let mut ss = SpaceSaving::new(k).unwrap();
        let mut exact: HashMap<u32, u64> = HashMap::new();
        for x in &stream {
            ss.update(x);
            *exact.entry(*x).or_insert(0) += 1;
        }
        for (item, count, err) in ss.entries() {
            let truth = exact.get(item).copied().unwrap_or(0);
            assert!(count >= truth, "count {count} < truth {truth}");
            assert!(count - err <= truth, "lower bound violated for {item}");
            assert!(err <= n / k as u64, "error {err} above n/k");
        }
        // Untracked items are below the min counter.
        for (item, &truth) in &exact {
            if ss.estimate(item) == 0 {
                assert!(truth <= ss.min_count());
            }
        }
    }

    #[test]
    fn heavy_hitters_no_false_negatives() {
        let stream = skewed_stream(50_000);
        let n = stream.len() as u64;
        let k = 64;
        let mut ss = SpaceSaving::new(k).unwrap();
        let mut exact: HashMap<u32, u64> = HashMap::new();
        for x in &stream {
            ss.update(x);
            *exact.entry(*x).or_insert(0) += 1;
        }
        let phi = 0.02;
        let hh: Vec<u32> = ss.heavy_hitters(phi).into_iter().map(|(t, _)| t).collect();
        for (item, &truth) in &exact {
            if truth as f64 > phi * n as f64 {
                assert!(hh.contains(item), "missing true heavy hitter {item}");
            }
        }
    }

    #[test]
    fn top_k_ordering() {
        let mut ss = SpaceSaving::new(16).unwrap();
        for (item, reps) in [(1u32, 50), (2, 30), (3, 10)] {
            for _ in 0..reps {
                ss.update(&item);
            }
        }
        let top = ss.top_k(2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
    }

    #[test]
    fn matches_misra_gries_state() {
        // SS count − SS err should equal the MG counter for the same stream
        // parameters (the isomorphism the survey mentions).
        use crate::misra_gries::MisraGries;
        let stream = skewed_stream(5_000);
        let k = 8;
        let mut ss = SpaceSaving::new(k).unwrap();
        let mut mg = MisraGries::new(k + 1).unwrap(); // MG uses k-1 counters
        for x in &stream {
            ss.update(x);
            mg.update(x);
        }
        // The heaviest item's bounds must agree on ordering.
        let ss_top = ss.top_k(1)[0].0;
        assert!(mg.estimate(&ss_top) > 0, "MG lost the top SS item");
    }

    #[test]
    fn merge_preserves_bounds() {
        let stream = skewed_stream(30_000);
        let half = stream.len() / 2;
        let k = 48;
        let mut left = SpaceSaving::new(k).unwrap();
        let mut right = SpaceSaving::new(k).unwrap();
        let mut exact: HashMap<u32, u64> = HashMap::new();
        for x in &stream[..half] {
            left.update(x);
            *exact.entry(*x).or_insert(0) += 1;
        }
        for x in &stream[half..] {
            right.update(x);
            *exact.entry(*x).or_insert(0) += 1;
        }
        left.merge(&right).unwrap();
        assert_eq!(left.items_seen(), stream.len() as u64);
        for (item, count, err) in left.entries() {
            let truth = exact.get(item).copied().unwrap_or(0);
            assert!(count >= truth, "merged count {count} < truth {truth}");
            assert!(count - err <= truth, "merged lower bound violated");
        }
        assert!(left.entries().count() <= k);
    }

    #[test]
    fn merge_rejects_k_mismatch() {
        let mut a = SpaceSaving::<u32>::new(8).unwrap();
        let b = SpaceSaving::<u32>::new(16).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn weighted_equivalent_to_repeated() {
        let mut a = SpaceSaving::new(4).unwrap();
        let mut b = SpaceSaving::new(4).unwrap();
        for _ in 0..7 {
            a.update(&"x");
        }
        b.update_weighted(&"x", 7);
        assert_eq!(a.estimate(&"x"), b.estimate(&"x"));
    }

    #[test]
    fn clear_resets() {
        let mut ss = SpaceSaving::new(4).unwrap();
        ss.update(&1u8);
        ss.clear();
        assert_eq!(ss.estimate(&1u8), 0);
        assert_eq!(ss.items_seen(), 0);
        assert_eq!(ss.min_count(), 0);
    }

    fn state_bytes(ss: &SpaceSaving<u32>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        ss.write_state_with(&mut w, |item, w| w.put_u32(*item));
        w.into_bytes()
    }

    fn read_state(bytes: &[u8]) -> sketches_core::SketchResult<SpaceSaving<u32>> {
        let mut r = ByteReader::new(bytes);
        let ss = SpaceSaving::read_state_with(&mut r, |r| r.u32())?;
        r.expect_end("space-saving state")?;
        Ok(ss)
    }

    #[test]
    fn state_round_trips_and_resumes_identically() {
        let stream = skewed_stream(10_000);
        let mut a = SpaceSaving::new(16).unwrap();
        for x in &stream {
            a.update(x);
        }
        let bytes = state_bytes(&a);
        let mut b = read_state(&bytes).unwrap();
        assert_eq!(state_bytes(&b), bytes, "canonical encoding");
        // Slot order (and therefore by_count tie-breaking) must survive the
        // round trip: future evictions stay byte-identical.
        for x in &stream {
            a.update(x);
            b.update(x);
        }
        assert_eq!(state_bytes(&a), state_bytes(&b));
        assert_eq!(a.top_k(16), b.top_k(16));
    }

    #[test]
    fn state_corruption_is_typed() {
        let mut ss = SpaceSaving::new(4).unwrap();
        for x in skewed_stream(500) {
            ss.update(&x);
        }
        let bytes = state_bytes(&ss);
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    read_state(&bytes[..cut]),
                    Err(SketchError::Corrupted { .. })
                ),
                "cut {cut}"
            );
        }
        // A capacity below the constructor minimum is rejected.
        let mut bad = bytes.clone();
        bad[0] = 1;
        assert!(matches!(
            read_state(&bad),
            Err(SketchError::Corrupted { .. })
        ));
        // More slots than capacity is structurally impossible.
        let mut bad = bytes.clone();
        bad[16] = 200;
        assert!(matches!(
            read_state(&bad),
            Err(SketchError::Corrupted { .. })
        ));
        // err > count violates the SpaceSaving invariant.
        let mut w = ByteWriter::new();
        w.put_usize(2);
        w.put_u64(5);
        w.put_usize(1);
        w.put_u32(9);
        w.put_u64(3); // count
        w.put_u64(7); // err > count
        assert!(matches!(
            read_state(&w.into_bytes()),
            Err(SketchError::Corrupted { .. })
        ));
    }
}
