//! The engine-level read/write split: slim query-side views of fat state.
//!
//! [`EngineView`] lifts [`sketches_core::QueryView`] from a single sketch
//! to a whole GROUP BY engine. Where a [`crate::Snapshot`] is the *fat*
//! image — every counter needed to resume ingest byte-exactly — a view
//! holds only what *answering queries* needs, per group:
//!
//! * COUNT / SUM — the scalars themselves;
//! * COUNT DISTINCT / QUANTILES — clones of the (already-small) HLL++ and
//!   KLL sketches;
//! * TOP-K — the reported `k` entries, not the SpaceSaving sketch's full
//!   counter table;
//! * FREQUENCY — the SF-sketch's slim half
//!   ([`sketches_frequency::SlimSketch`]), a `slim/fat`-width fraction of
//!   the update-side grid.
//!
//! A view cut from an engine reports **identically** to the fat engine at
//! the moment of the cut ([`EngineView::report`] = the engine's report),
//! answers frequency point queries ([`EngineView::estimate`]), merges
//! with views of disjoint substreams, and serializes into its own
//! checksummed envelope (`SKVW`, separate from the snapshot's `SKCP` —
//! a view can never be mistaken for a restorable checkpoint):
//!
//! ```text
//! +-------+---------+---------------------+-------------------+
//! | magic | version | len-prefixed payload| xxh64 checksum    |
//! | SKVW  |  u16    | u64 len + bytes     | u64 (all prior)   |
//! +-------+---------+---------------------+-------------------+
//! ```
//!
//! This is what ships: cross-shard reads merge per-shard views (the
//! concurrent engine cuts them on demand from its published snapshots),
//! and the serving layer's `/v1/view` endpoint transfers view bytes
//! instead of fat checkpoints. Checkpoints and the WAL stay fat deliberately —
//! recovery must be byte-exact, and a view cannot resume ingest.
//!
//! **Merge caveat:** merging two views that hold the *same group* (only
//! possible across distributed engines — one engine's shards route each
//! group to exactly one shard) combines TOP-K by summing the truncated
//! entry lists and re-taking the top `k`, an approximation of the fat
//! SpaceSaving merge. All other aggregates merge exactly.

use std::borrow::Borrow;
use std::collections::HashMap;

use sketches_cardinality::HyperLogLogPlusPlus;
use sketches_core::{
    ByteReader, ByteWriter, CardinalityEstimator, FrequencyEstimator, MergeSketch, QuantileSketch,
    QueryView, SketchError, SketchResult, SpaceUsage,
};
use sketches_frequency::SlimSketch;
use sketches_hash::xxhash::xxh64;
use sketches_quantiles::KllSketch;

use crate::engine::{read_spec, write_spec, AggState, SketchEngine};
use crate::query::{Aggregate, AggregateResult, QuerySpec};
use crate::sharded::ShardedEngine;
use crate::value::{read_value, write_value, Value};

/// Leading magic of every view envelope ("SKetch VieW").
const VIEW_MAGIC: &[u8; 4] = b"SKVW";

/// View-envelope format version.
const VIEW_VERSION: u16 = 1;

/// Seed of the view-envelope checksum (distinct from the snapshot's).
const VIEW_CHECKSUM_SEED: u64 = 0x5AFE_C0DE_CAFE_0002;

/// Smallest well-formed view envelope: magic (4) + version (2) + payload
/// length prefix (8) + checksum (8).
const VIEW_MIN_LEN: usize = 4 + 2 + 8 + 8;

/// Query-side state of one aggregate for one group.
#[derive(Debug, Clone)]
pub enum ViewState {
    /// Row count (exact).
    Count(u64),
    /// Field sum (exact).
    Sum(f64),
    /// Clone of the group's HLL++ sketch.
    CountDistinct(HyperLogLogPlusPlus),
    /// Clone of the group's KLL sketch.
    Quantiles(KllSketch),
    /// The reported top-`k` entries, descending — the SpaceSaving
    /// sketch's full counter table stays behind.
    TopK(Vec<(Value, u64)>),
    /// The SF-sketch's slim query side.
    Frequency(SlimSketch),
}

/// A slim, mergeable, serializable query-side view of one engine's state
/// at a moment in time. See the module docs for what it holds and ships.
#[derive(Debug, Clone)]
pub struct EngineView {
    spec: QuerySpec,
    groups: HashMap<Vec<Value>, Vec<ViewState>>,
    rows_processed: u64,
}

impl EngineView {
    /// The query spec the view answers.
    #[must_use]
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Rows the source engine had absorbed when the view was cut.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.rows_processed
    }

    /// Number of groups in the view.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// All group keys, in ascending key order.
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<Value>> {
        // lint: sorted-iteration-ok(collected then fully sorted by the key total order below)
        let mut keys: Vec<Vec<Value>> = self.groups.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Reports one group's aggregates — identical to the fat engine's
    /// [`crate::SketchEngine::report`] at the moment the view was cut
    /// (`None` if the group was never seen).
    ///
    /// # Errors
    /// Returns an error only for internal sketch query failures.
    pub fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        let Some(state) = self.groups.get(key) else {
            return Ok(None);
        };
        let results = state
            .iter()
            .map(|st| {
                Ok(match st {
                    ViewState::Count(c) => AggregateResult::Count(*c),
                    ViewState::Sum(s) => AggregateResult::Sum(*s),
                    ViewState::CountDistinct(h) => AggregateResult::CountDistinct(h.estimate()),
                    ViewState::Quantiles(q) => AggregateResult::Quantiles {
                        p50: q.quantile(0.5)?,
                        p95: q.quantile(0.95)?,
                        p99: q.quantile(0.99)?,
                    },
                    ViewState::TopK(entries) => AggregateResult::TopK(entries.clone()),
                    ViewState::Frequency(slim) => AggregateResult::Frequency {
                        total: slim.total(),
                    },
                })
            })
            .collect::<SketchResult<Vec<_>>>()?;
        Ok(Some(results))
    }

    /// Frequency point query against the slim side: the remote reader's
    /// counterpart of [`crate::SketchEngine::estimate`] (`None` if the
    /// group was never seen).
    ///
    /// # Errors
    /// Returns an error if the spec has no FREQUENCY aggregate.
    pub fn estimate(&self, key: &[Value], item: &Value) -> SketchResult<Option<u64>> {
        if !self
            .spec
            .aggregates
            .iter()
            .any(|a| matches!(a, Aggregate::Frequency { .. }))
        {
            return Err(SketchError::invalid(
                "spec",
                "query has no FREQUENCY aggregate",
            ));
        }
        let Some(state) = self.groups.get(key) else {
            return Ok(None);
        };
        for st in state {
            if let ViewState::Frequency(slim) = st {
                return Ok(Some(slim.estimate(item)));
            }
        }
        // lint: panic-ok(spec has a Frequency aggregate, so every state vector holds one; a mismatch is a construction bug)
        unreachable!("view state built from the same spec");
    }

    /// Merges another view (distributed read path: shard views union; see
    /// the module docs for the TOP-K caveat on overlapping groups).
    ///
    /// # Errors
    /// Returns an error if the specs differ or per-group sketches are
    /// incompatible.
    pub fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.spec != other.spec {
            return Err(SketchError::incompatible("view specs differ"));
        }
        // lint: sorted-iteration-ok(keyed pointwise merge: each group folds into its own entry, independent of visit order)
        for (key, other_state) in &other.groups {
            match self.groups.get_mut(key) {
                None => {
                    self.groups.insert(key.clone(), other_state.clone());
                }
                Some(state) => {
                    for ((a, b), agg) in
                        state.iter_mut().zip(other_state).zip(&self.spec.aggregates)
                    {
                        match (a, b) {
                            (ViewState::Count(x), ViewState::Count(y)) => *x += y,
                            (ViewState::Sum(x), ViewState::Sum(y)) => *x += y,
                            (ViewState::CountDistinct(x), ViewState::CountDistinct(y)) => {
                                x.merge(y)?;
                            }
                            (ViewState::Quantiles(x), ViewState::Quantiles(y)) => x.merge(y)?,
                            (ViewState::TopK(x), ViewState::TopK(y)) => {
                                let k = match agg {
                                    Aggregate::TopK { k, .. } => *k,
                                    _ => {
                                        return Err(SketchError::incompatible(
                                            "view states out of order",
                                        ));
                                    }
                                };
                                *x = merge_topk_entries(x, y, k);
                            }
                            (ViewState::Frequency(x), ViewState::Frequency(y)) => x.merge(y)?,
                            _ => {
                                return Err(SketchError::incompatible("view states out of order"));
                            }
                        }
                    }
                }
            }
        }
        self.rows_processed += other.rows_processed;
        Ok(())
    }

    /// Approximate heap bytes the view holds — the resident counterpart
    /// of [`to_view_bytes`](Self::to_view_bytes)`.len()` (the wire size).
    #[must_use]
    pub fn space_bytes(&self) -> usize {
        self.groups
            .values()
            .flat_map(|state| {
                state.iter().map(|st| match st {
                    ViewState::Count(_) | ViewState::Sum(_) => 8,
                    ViewState::CountDistinct(h) => h.space_bytes(),
                    ViewState::Quantiles(q) => q.space_bytes(),
                    ViewState::TopK(entries) => entries.len() * (std::mem::size_of::<Value>() + 8),
                    ViewState::Frequency(slim) => slim.space_bytes(),
                })
            })
            .sum()
    }

    /// Serializes the view into its checksummed `SKVW` envelope. Groups
    /// are written in ascending key order, so the encoding is canonical:
    /// equal views produce byte-identical envelopes.
    #[must_use]
    pub fn to_view_bytes(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        write_spec(&self.spec, &mut payload);
        payload.put_u64(self.rows_processed);
        // lint: sorted-iteration-ok(keys collected then fully sorted below; emission order is the sorted order)
        let mut keys: Vec<&Vec<Value>> = self.groups.keys().collect();
        keys.sort();
        payload.put_usize(keys.len());
        for key in keys {
            for v in key {
                write_value(v, &mut payload);
            }
            for st in &self.groups[key] {
                write_view_state(st, &mut payload);
            }
        }
        let mut w = ByteWriter::new();
        w.put_bytes(VIEW_MAGIC);
        w.put_u16(VIEW_VERSION);
        w.put_len_prefixed(payload.as_slice());
        let checksum = xxh64(w.as_slice(), VIEW_CHECKSUM_SEED);
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Restores a view from [`to_view_bytes`](Self::to_view_bytes)
    /// output.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on any damage: truncation, bit
    /// flips, bad magic, version skew, or structural violations (unsorted
    /// groups, invalid sketch dimensions).
    pub fn from_view_bytes(bytes: &[u8]) -> SketchResult<Self> {
        if bytes.len() < VIEW_MIN_LEN {
            return Err(SketchError::corrupted(format!(
                "view too short: {} bytes (need at least {VIEW_MIN_LEN})",
                bytes.len()
            )));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().map_err(|_| {
            // Unreachable given the length guard, but no panic paths here.
            SketchError::corrupted("view checksum tail malformed")
        })?);
        if xxh64(body, VIEW_CHECKSUM_SEED) != stored {
            return Err(SketchError::corrupted("view checksum mismatch"));
        }
        let mut r = ByteReader::new(body);
        let magic = r.bytes(4)?;
        if magic != VIEW_MAGIC {
            return Err(SketchError::corrupted(format!(
                "bad view magic {magic:?} (expected {VIEW_MAGIC:?})"
            )));
        }
        let version = r.u16()?;
        if version != VIEW_VERSION {
            return Err(SketchError::corrupted(format!(
                "unsupported view version {version} (this build reads {VIEW_VERSION})"
            )));
        }
        let payload = r.len_prefixed()?;
        r.expect_end("view envelope")?;
        let mut pr = ByteReader::new(payload);
        let spec = read_spec(&mut pr)?;
        let rows_processed = pr.u64()?;
        let num_groups = pr.array_len(1, "view groups")?;
        let key_len = spec.group_by.len();
        let mut groups = HashMap::with_capacity(num_groups);
        let mut prev_key: Option<Vec<Value>> = None;
        for _ in 0..num_groups {
            let mut key = Vec::with_capacity(key_len);
            for _ in 0..key_len {
                key.push(read_value(&mut pr)?);
            }
            if prev_key.as_ref().is_some_and(|p| *p >= key) {
                return Err(SketchError::corrupted(
                    "view groups not in strictly ascending key order",
                ));
            }
            let mut state = Vec::with_capacity(spec.aggregates.len());
            for agg in &spec.aggregates {
                state.push(read_view_state(agg, &mut pr)?);
            }
            prev_key = Some(key.clone());
            groups.insert(key, state);
        }
        pr.expect_end("view payload")?;
        Ok(Self {
            spec,
            groups,
            rows_processed,
        })
    }
}

/// Merges two truncated top-k entry lists: sum counts by item, re-sort
/// descending (ties by item order for determinism), keep `k`.
fn merge_topk_entries(a: &[(Value, u64)], b: &[(Value, u64)], k: usize) -> Vec<(Value, u64)> {
    let mut combined: Vec<(Value, u64)> = Vec::with_capacity(a.len() + b.len());
    for (item, count) in a.iter().chain(b) {
        match combined.iter_mut().find(|(i, _)| i == item) {
            Some((_, c)) => *c += count,
            None => combined.push((item.clone(), *count)),
        }
    }
    combined.sort_by(|(ia, ca), (ib, cb)| cb.cmp(ca).then_with(|| ia.cmp(ib)));
    combined.truncate(k);
    combined
}

/// Serializes one view state. No variant tag: the spec (in the same
/// payload) fixes which variant sits at each position.
fn write_view_state(st: &ViewState, w: &mut ByteWriter) {
    match st {
        ViewState::Count(c) => w.put_u64(*c),
        ViewState::Sum(s) => w.put_f64(*s),
        ViewState::CountDistinct(h) => h.write_state(w),
        ViewState::Quantiles(q) => q.write_state(w),
        ViewState::TopK(entries) => {
            w.put_usize(entries.len());
            for (item, count) in entries {
                write_value(item, w);
                w.put_u64(*count);
            }
        }
        ViewState::Frequency(slim) => slim.write_state(w),
    }
}

/// Restores one view state against the spec's aggregate at the same
/// position. Structural validation only — a view carries no engine
/// config, so parameter agreement is enforced at merge time instead.
fn read_view_state(agg: &Aggregate, r: &mut ByteReader<'_>) -> SketchResult<ViewState> {
    Ok(match agg {
        Aggregate::Count => ViewState::Count(r.u64()?),
        Aggregate::Sum { .. } => ViewState::Sum(r.f64()?),
        Aggregate::CountDistinct { .. } => {
            ViewState::CountDistinct(HyperLogLogPlusPlus::read_state(r)?)
        }
        Aggregate::Quantiles { .. } => ViewState::Quantiles(KllSketch::read_state(r)?),
        Aggregate::TopK { k, .. } => {
            let n = r.array_len(9, "top-k entries")?;
            if n > *k {
                return Err(SketchError::corrupted(format!(
                    "view top-k holds {n} entries but the query's k is {k}"
                )));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let item = read_value(r)?;
                let count = r.u64()?;
                entries.push((item, count));
            }
            ViewState::TopK(entries)
        }
        Aggregate::Frequency { .. } => ViewState::Frequency(SlimSketch::read_state(r)?),
    })
}

/// One view state cut from one fat aggregate state.
fn cut_state(st: &AggState) -> ViewState {
    match st {
        AggState::Count(c) => ViewState::Count(*c),
        AggState::Sum(s) => ViewState::Sum(*s),
        AggState::CountDistinct(h) => ViewState::CountDistinct(h.clone()),
        AggState::Quantiles(q) => ViewState::Quantiles(q.clone()),
        AggState::TopK { sketch, k } => ViewState::TopK(sketch.top_k(*k)),
        AggState::Frequency(sf) => ViewState::Frequency(sf.query_view()),
    }
}

impl QueryView for SketchEngine {
    type View = EngineView;

    /// Cuts the slim query-side view of every group.
    fn query_view(&self) -> EngineView {
        let groups = self
            .groups
            .iter()
            .map(|(key, state)| (key.clone(), state.iter().map(cut_state).collect()))
            .collect();
        EngineView {
            spec: self.spec.clone(),
            groups,
            rows_processed: self.rows_processed,
        }
    }
}

impl SketchEngine {
    /// Inherent alias of [`QueryView::query_view`] so callers need not
    /// import the trait.
    #[must_use]
    pub fn query_view(&self) -> EngineView {
        QueryView::query_view(self)
    }
}

/// Cuts and unions the views of `shards`. Routing places every group in
/// exactly one shard, so the union is exact — the merged view reports
/// identically to the shards' fat reports. O(state): callers holding
/// shards behind locks take them out first.
pub(crate) fn merged_view<S: Borrow<SketchEngine>>(shards: &[S]) -> EngineView {
    let mut shards = shards.iter().map(|s| s.borrow().query_view());
    // lint: panic-ok(sharded topologies have >= 1 shard by construction)
    let mut view = shards.next().expect("at least one shard");
    for shard_view in shards {
        // lint: panic-ok(shards share one spec by construction; a mismatch is a construction bug, not input)
        view.merge(&shard_view)
            .expect("shards share one spec by construction");
    }
    view
}

impl QueryView for ShardedEngine {
    type View = EngineView;

    /// Cuts and unions every shard's view. Shards route each group to
    /// exactly one shard, so the union is exact — the merged view reports
    /// identically to the sharded engine's fat report.
    fn query_view(&self) -> EngineView {
        merged_view(&self.shards)
    }
}

impl ShardedEngine {
    /// Inherent alias of [`QueryView::query_view`] so callers need not
    /// import the trait.
    #[must_use]
    pub fn query_view(&self) -> EngineView {
        QueryView::query_view(self)
    }
}

#[cfg(test)]
// `row!` expands to `vec![...]`, which tests also pass to slice-taking
// query methods — fine here.
#[allow(clippy::useless_vec)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::Row;

    fn spec() -> QuerySpec {
        QuerySpec::new(
            vec![0],
            vec![
                Aggregate::Count,
                Aggregate::Sum { field: 2 },
                Aggregate::CountDistinct { field: 1 },
                Aggregate::Quantiles { field: 2 },
                Aggregate::TopK { field: 1, k: 3 },
                Aggregate::Frequency { field: 1 },
            ],
        )
        .unwrap()
    }

    fn rows(n: u64, num_groups: u64) -> Vec<Row> {
        (0..n)
            .map(|i| row![i % num_groups, i % 97, (i % 1_000) as f64])
            .collect()
    }

    #[test]
    fn view_reports_identically_to_fat_engine_at_cut() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.process_batch(&rows(5_000, 13)).unwrap();
        let view = eng.query_view();
        assert_eq!(view.num_groups(), 13);
        assert_eq!(view.rows_processed(), 5_000);
        assert_eq!(view.groups().len(), 13);
        for g in 0..13u64 {
            assert_eq!(
                view.report(&row![g]).unwrap().unwrap(),
                eng.report(&row![g]).unwrap().unwrap(),
                "group {g}"
            );
        }
        assert!(view.report(&row![99u64]).unwrap().is_none());
        // Point queries answer from the slim side; one-sided on
        // insert-only streams.
        for item in 0..97u64 {
            let est = view
                .estimate(&row![0u64], &Value::U64(item))
                .unwrap()
                .unwrap();
            let fat = eng
                .estimate(&row![0u64], &Value::U64(item))
                .unwrap()
                .unwrap();
            // True per-group count of any item is ≥ 1 here; both sides
            // are one-sided upper bounds.
            assert!(est >= 1, "slim estimate missing item {item}");
            assert!(fat >= 1);
        }
    }

    #[test]
    fn view_is_slimmer_than_snapshot() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.process_batch(&rows(20_000, 8)).unwrap();
        let fat = eng.to_snapshot_bytes().len();
        let slim = eng.query_view().to_view_bytes().len();
        assert!(
            slim * 2 < fat,
            "view ({slim} bytes) not measurably slimmer than snapshot ({fat} bytes)"
        );
    }

    #[test]
    fn view_round_trips_and_corruption_is_typed() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.process_batch(&rows(3_000, 7)).unwrap();
        let view = eng.query_view();
        let bytes = view.to_view_bytes();

        let restored = EngineView::from_view_bytes(&bytes).unwrap();
        assert_eq!(restored.to_view_bytes(), bytes);
        for g in 0..7u64 {
            assert_eq!(
                restored.report(&row![g]).unwrap(),
                view.report(&row![g]).unwrap()
            );
        }

        for cut in [0usize, 5, 13, bytes.len() - 1] {
            assert!(matches!(
                EngineView::from_view_bytes(&bytes[..cut]),
                Err(SketchError::Corrupted { .. })
            ));
        }
        for i in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                matches!(
                    EngineView::from_view_bytes(&bad),
                    Err(SketchError::Corrupted { .. })
                ),
                "bit flip at byte {i} not detected"
            );
        }
        // A view is not a snapshot and vice versa: envelopes are disjoint.
        assert!(matches!(
            EngineView::from_view_bytes(&eng.to_snapshot_bytes()),
            Err(SketchError::Corrupted { .. })
        ));
        assert!(matches!(
            crate::Snapshot::from_bytes(&bytes),
            Err(SketchError::Corrupted { .. })
        ));
    }

    #[test]
    fn sharded_view_unions_shards_exactly() {
        let data = rows(8_000, 11);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&data).unwrap();

        let view = sharded.query_view();
        assert_eq!(view.num_groups(), 11);
        assert_eq!(view.rows_processed(), 8_000);
        for g in 0..11u64 {
            assert_eq!(
                view.report(&row![g]).unwrap().unwrap(),
                sharded.report(&row![g]).unwrap().unwrap(),
                "group {g}"
            );
            // Shard-routed ingest matches sequential ingest per group, so
            // the views agree too.
            assert_eq!(
                view.report(&row![g]).unwrap().unwrap(),
                seq.query_view().report(&row![g]).unwrap().unwrap(),
                "group {g} vs sequential"
            );
        }
    }

    #[test]
    fn view_merge_combines_disjoint_substreams() {
        let mut a = SketchEngine::new(spec()).unwrap();
        let mut b = SketchEngine::new(spec()).unwrap();
        a.process_batch(&rows(2_000, 5)).unwrap();
        // Distinct groups 100.. so the union is disjoint.
        let shifted: Vec<Row> = (0..2_000u64)
            .map(|i| row![100 + i % 4, i % 50, (i % 300) as f64])
            .collect();
        b.process_batch(&shifted).unwrap();

        let mut merged = a.query_view();
        merged.merge(&b.query_view()).unwrap();
        assert_eq!(merged.num_groups(), 9);
        assert_eq!(merged.rows_processed(), 4_000);
        assert_eq!(
            merged.report(&row![103u64]).unwrap(),
            b.query_view().report(&row![103u64]).unwrap()
        );

        // Overlapping groups: counts add.
        let mut overlap = a.query_view();
        overlap.merge(&a.query_view()).unwrap();
        let doubled = overlap.report(&row![0u64]).unwrap().unwrap();
        let single = a.report(&row![0u64]).unwrap().unwrap();
        match (&doubled[0], &single[0]) {
            (AggregateResult::Count(d), AggregateResult::Count(s)) => assert_eq!(*d, 2 * s),
            other => panic!("unexpected {other:?}"),
        }

        // Spec mismatch is typed.
        let other_spec =
            SketchEngine::new(QuerySpec::new(vec![0], vec![Aggregate::Count]).unwrap()).unwrap();
        assert!(merged.merge(&other_spec.query_view()).is_err());
    }
}
