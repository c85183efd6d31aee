//! The unified engine abstraction: one trait both stream engines implement.
//!
//! PR 1–3 grew [`SketchEngine`] and [`ShardedEngine`] as parallel inherent
//! APIs; every layer that wanted to work with "an engine" — the durable
//! store, the bench harness, the equivalence tests — had to be written
//! twice. [`StreamEngine`] extracts the shared surface so those layers are
//! written **once** against the trait:
//!
//! * [`crate::durable::DurableEngine`] wraps any `E: StreamEngine` and adds
//!   crash-safe persistence (checkpoint files + WAL);
//! * experiment E23 drives both engines through one generic drill;
//! * `tests/tests/stream_engine_trait.rs` runs one equivalence suite over
//!   both implementations.
//!
//! The trait also pins down the surfaces PR 4 unified:
//!
//! * `dead_letters()` returns an **owned** [`DeadLetters`] on both engines
//!   (the sharded engine aggregates per-shard buffers on the fly, so a
//!   borrowed return was never possible there);
//! * `groups()` lists keys in ascending key order on both engines (the
//!   sharded listing used to be shard-by-shard, leaking the routing hash);
//! * snapshots round-trip through `to_snapshot_bytes` /
//!   `from_snapshot_bytes` with the byte-exactness contract of
//!   [`crate::Snapshot`].
//!
//! Fault-injection arming stays *off* the trait deliberately: the two
//! engines arm at different granularities (`SketchEngine::arm_faults(inj)`
//! vs `ShardedEngine::arm_faults(shard, inj)`), and the durable layer must
//! not re-export a drill harness as part of its persistence contract.

use sketches_core::SketchResult;
use sketches_obs::{MetricsSnapshot, TraceContext};

use crate::concurrent::ConcurrentEngine;
use crate::engine::SketchEngine;
use crate::fault::{BatchError, BatchSummary, DeadLetters, FaultPolicy};
use crate::query::AggregateResult;
use crate::sharded::ShardedEngine;
use crate::value::{Row, Value};

/// The shared surface of the stream-aggregation engines.
///
/// Implementors guarantee:
///
/// * **Transactional batches** — [`process_batch`](Self::process_batch)
///   either absorbs the whole batch or leaves observable state untouched
///   (a failing row, injected fault, or contained panic rolls everything
///   back and reports a typed [`BatchError`]).
/// * **Deterministic listings** — [`groups`](Self::groups) and
///   [`flush_window`](Self::flush_window) order groups by ascending key.
/// * **Exact snapshots** — [`from_snapshot_bytes`](Self::from_snapshot_bytes)
///   of [`to_snapshot_bytes`](Self::to_snapshot_bytes) output restores an
///   engine whose future behaviour is byte-identical to the original's,
///   and every corrupted input is a typed
///   [`sketches_core::SketchError::Corrupted`].
pub trait StreamEngine: Sized {
    /// Processes a batch of rows transactionally (all-or-nothing).
    ///
    /// # Errors
    /// Returns a [`BatchError`] naming the failing row/shard/cause; the
    /// engine's observable state is unchanged.
    fn process_batch(&mut self, rows: &[Row]) -> Result<BatchSummary, BatchError>;

    /// [`process_batch`](Self::process_batch) carrying a request's
    /// [`TraceContext`]: engines that break a batch into internal stages
    /// (queue wait, apply, publish, WAL append) close a child span per
    /// stage. The default ignores the context — single-stage engines
    /// have nothing finer than the batch itself to attribute.
    ///
    /// # Errors
    /// Identical to [`process_batch`](Self::process_batch).
    fn process_batch_traced(
        &mut self,
        rows: &[Row],
        ctx: &TraceContext,
    ) -> Result<BatchSummary, BatchError> {
        let _ = ctx;
        self.process_batch(rows)
    }

    /// Reports the aggregates of one group (`None` if never seen).
    ///
    /// # Errors
    /// Returns an error only for internal sketch query failures.
    fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>>;

    /// Finishes a tumbling window: every group's report in ascending key
    /// order, then a full state reset (groups, row counter, dead letters).
    ///
    /// # Errors
    /// Propagates report errors.
    fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>>;

    /// Merges another engine's state (distributed GROUP BY).
    ///
    /// # Errors
    /// Returns an error if the two engines' specs, configs, or topologies
    /// are incompatible.
    fn merge(&mut self, other: &Self) -> SketchResult<()>;

    /// All group keys currently tracked, in ascending key order.
    fn groups(&self) -> Vec<Vec<Value>>;

    /// Number of groups currently tracked.
    fn num_groups(&self) -> usize;

    /// Rows absorbed into sketch state since construction or the last
    /// window flush.
    fn rows_processed(&self) -> u64;

    /// Total sketch memory across groups, in bytes.
    fn state_bytes(&self) -> usize;

    /// The current poison-row policy.
    fn fault_policy(&self) -> FaultPolicy;

    /// Sets the poison-row policy.
    fn set_fault_policy(&mut self, policy: FaultPolicy);

    /// The quarantined-row buffer, as an owned aggregated view.
    fn dead_letters(&self) -> DeadLetters;

    /// Cuts a telemetry snapshot: hot-path counters, point-in-time
    /// gauges, and the batch-latency histogram. Snapshots from any two
    /// engines merge exactly — counters/gauges add, histograms
    /// KLL-merge — so a sharded engine's totals equal a sequential
    /// engine's on the same stream.
    fn metrics(&self) -> MetricsSnapshot;

    /// Cuts the slim query-side view ([`crate::EngineView`]) of the
    /// current state — the read half of the read/write split
    /// ([`sketches_core::QueryView`]). The view answers
    /// [`crate::EngineView::report`] identically to [`report`](Self::report)
    /// at the moment of the cut, at a fraction of the fat state's size;
    /// it is what cross-node merges and the serving wire ship. On the
    /// concurrent engine this is cut from the latest *published* epoch.
    fn query_view(&self) -> crate::EngineView;

    /// The envelope kind [`to_snapshot_bytes`](Self::to_snapshot_bytes)
    /// produces — the typed accessor that replaces peeking at header
    /// bytes. The concurrent engine reports
    /// [`crate::SnapshotKind::Sharded`]: its snapshots are byte-identical
    /// to the sharded engine's.
    fn snapshot_kind(&self) -> crate::SnapshotKind;

    /// Serializes the engine as a checksummed snapshot envelope.
    fn to_snapshot_bytes(&self) -> Vec<u8>;

    /// Restores an engine from [`to_snapshot_bytes`](Self::to_snapshot_bytes)
    /// output.
    ///
    /// # Errors
    /// Returns [`sketches_core::SketchError::Corrupted`] on any damage or
    /// an engine-kind mismatch.
    fn from_snapshot_bytes(bytes: &[u8]) -> SketchResult<Self>;
}

impl StreamEngine for SketchEngine {
    fn process_batch(&mut self, rows: &[Row]) -> Result<BatchSummary, BatchError> {
        SketchEngine::process_batch(self, rows)
    }

    fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        SketchEngine::report(self, key)
    }

    fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        SketchEngine::flush_window(self)
    }

    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        SketchEngine::merge(self, other)
    }

    fn groups(&self) -> Vec<Vec<Value>> {
        SketchEngine::groups(self).cloned().collect()
    }

    fn num_groups(&self) -> usize {
        SketchEngine::num_groups(self)
    }

    fn rows_processed(&self) -> u64 {
        SketchEngine::rows_processed(self)
    }

    fn state_bytes(&self) -> usize {
        SketchEngine::state_bytes(self)
    }

    fn fault_policy(&self) -> FaultPolicy {
        SketchEngine::fault_policy(self)
    }

    fn set_fault_policy(&mut self, policy: FaultPolicy) {
        SketchEngine::set_fault_policy(self, policy);
    }

    fn dead_letters(&self) -> DeadLetters {
        SketchEngine::dead_letters(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        SketchEngine::metrics(self)
    }

    fn query_view(&self) -> crate::EngineView {
        SketchEngine::query_view(self)
    }

    fn snapshot_kind(&self) -> crate::SnapshotKind {
        crate::SnapshotKind::Engine
    }

    fn to_snapshot_bytes(&self) -> Vec<u8> {
        SketchEngine::to_snapshot_bytes(self)
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> SketchResult<Self> {
        SketchEngine::from_snapshot_bytes(bytes)
    }
}

impl StreamEngine for ShardedEngine {
    fn process_batch(&mut self, rows: &[Row]) -> Result<BatchSummary, BatchError> {
        ShardedEngine::process_batch(self, rows)
    }

    fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        ShardedEngine::report(self, key)
    }

    fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        ShardedEngine::flush_window(self)
    }

    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        ShardedEngine::merge(self, other)
    }

    fn groups(&self) -> Vec<Vec<Value>> {
        ShardedEngine::groups(self).cloned().collect()
    }

    fn num_groups(&self) -> usize {
        ShardedEngine::num_groups(self)
    }

    fn rows_processed(&self) -> u64 {
        ShardedEngine::rows_processed(self)
    }

    fn state_bytes(&self) -> usize {
        ShardedEngine::state_bytes(self)
    }

    fn fault_policy(&self) -> FaultPolicy {
        ShardedEngine::fault_policy(self)
    }

    fn set_fault_policy(&mut self, policy: FaultPolicy) {
        ShardedEngine::set_fault_policy(self, policy);
    }

    fn dead_letters(&self) -> DeadLetters {
        ShardedEngine::dead_letters(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        ShardedEngine::metrics(self)
    }

    fn query_view(&self) -> crate::EngineView {
        ShardedEngine::query_view(self)
    }

    fn snapshot_kind(&self) -> crate::SnapshotKind {
        crate::SnapshotKind::Sharded
    }

    fn to_snapshot_bytes(&self) -> Vec<u8> {
        ShardedEngine::to_snapshot_bytes(self)
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> SketchResult<Self> {
        ShardedEngine::from_snapshot_bytes(bytes)
    }
}

impl StreamEngine for ConcurrentEngine {
    /// Submit-and-wait: the synchronous adapter over the concurrent
    /// engine's submit/poll API. Rows are cloned into the batch (the
    /// submit API owns its rows); the returned ticket is resolved, so
    /// on return the batch is committed *and published* — generic
    /// callers (the durable layer, equivalence tests) observe the same
    /// synchronous semantics as the other engines.
    fn process_batch(&mut self, rows: &[Row]) -> Result<BatchSummary, BatchError> {
        self.submit_batch(rows.to_vec()).wait()
    }

    /// The traced form threads the context into the submit, so the
    /// coordinator and shard workers close queue-wait / apply / publish
    /// child spans under the request's root.
    fn process_batch_traced(
        &mut self,
        rows: &[Row],
        ctx: &TraceContext,
    ) -> Result<BatchSummary, BatchError> {
        self.submit_batch_traced(rows.to_vec(), ctx.clone()).wait()
    }

    fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        ConcurrentEngine::report(self, key)
    }

    fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        ConcurrentEngine::flush_window(self)
    }

    fn merge(&mut self, other: &Self) -> SketchResult<()> {
        ConcurrentEngine::merge(self, other)
    }

    fn groups(&self) -> Vec<Vec<Value>> {
        ConcurrentEngine::groups(self)
    }

    fn num_groups(&self) -> usize {
        ConcurrentEngine::num_groups(self)
    }

    fn rows_processed(&self) -> u64 {
        ConcurrentEngine::rows_processed(self)
    }

    fn state_bytes(&self) -> usize {
        ConcurrentEngine::state_bytes(self)
    }

    fn fault_policy(&self) -> FaultPolicy {
        ConcurrentEngine::fault_policy(self)
    }

    fn set_fault_policy(&mut self, policy: FaultPolicy) {
        ConcurrentEngine::set_fault_policy(self, policy);
    }

    fn dead_letters(&self) -> DeadLetters {
        ConcurrentEngine::dead_letters(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        ConcurrentEngine::metrics(self)
    }

    fn query_view(&self) -> crate::EngineView {
        ConcurrentEngine::query_view(self)
    }

    fn snapshot_kind(&self) -> crate::SnapshotKind {
        crate::SnapshotKind::Sharded
    }

    fn to_snapshot_bytes(&self) -> Vec<u8> {
        ConcurrentEngine::to_snapshot_bytes(self)
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> SketchResult<Self> {
        ConcurrentEngine::from_snapshot_bytes(bytes)
    }
}

#[cfg(test)]
// `row!` expands to `vec![...]`, which tests also pass to slice-taking
// query methods — fine here.
#[allow(clippy::useless_vec)]
mod tests {
    use super::*;
    use crate::query::{Aggregate, QuerySpec};
    use crate::row;

    fn spec() -> QuerySpec {
        QuerySpec::new(
            vec![0],
            vec![Aggregate::Count, Aggregate::CountDistinct { field: 1 }],
        )
        .unwrap()
    }

    fn data(n: u64) -> Vec<Row> {
        (0..n).map(|i| row![i % 5, i % 31]).collect()
    }

    /// Written once against the trait, executed for both engines: ingest,
    /// report, listing order, snapshot round trip.
    fn exercise<E: StreamEngine>(mut engine: E) {
        engine.process_batch(&data(1_000)).unwrap();
        assert_eq!(engine.rows_processed(), 1_000);
        assert_eq!(engine.num_groups(), 5);
        let groups = engine.groups();
        assert_eq!(groups.len(), 5);
        // Listing contract: ascending key order, on every implementation.
        for pair in groups.windows(2) {
            assert!(pair[0] < pair[1], "groups out of order: {groups:?}");
        }
        assert!(engine.report(&row![0u64]).unwrap().is_some());
        assert!(engine.report(&row![99u64]).unwrap().is_none());
        assert!(engine.state_bytes() > 0);

        // The slim view is cut from the same state: identical reports.
        let view = engine.query_view();
        assert_eq!(view.rows_processed(), 1_000);
        assert_eq!(
            view.report(&row![0u64]).unwrap(),
            engine.report(&row![0u64]).unwrap()
        );

        let bytes = engine.to_snapshot_bytes();
        // The typed accessor agrees with what the envelope actually says.
        assert_eq!(
            engine.snapshot_kind(),
            crate::Snapshot::kind_of(&bytes).unwrap()
        );
        let restored = E::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), bytes);

        let window = engine.flush_window().unwrap();
        assert_eq!(window.len(), 5);
        assert_eq!(engine.num_groups(), 0);
        assert_eq!(engine.rows_processed(), 0);
    }

    #[test]
    fn trait_surface_sequential() {
        exercise(SketchEngine::new(spec()).unwrap());
    }

    #[test]
    fn trait_surface_sharded() {
        exercise(ShardedEngine::new(spec(), 3).unwrap());
    }

    #[test]
    fn trait_surface_concurrent() {
        exercise(ConcurrentEngine::new(spec(), 3).unwrap());
    }

    #[test]
    fn trait_merge_is_generic() {
        fn merge_two<E: StreamEngine>(mut a: E, mut b: E) -> E {
            a.process_batch(&data(400)).unwrap();
            b.process_batch(&data(600)).unwrap();
            a.merge(&b).unwrap();
            assert_eq!(a.rows_processed(), 1_000);
            a
        }
        let seq = merge_two(
            SketchEngine::new(spec()).unwrap(),
            SketchEngine::new(spec()).unwrap(),
        );
        let sharded = merge_two(
            ShardedEngine::new(spec(), 2).unwrap(),
            ShardedEngine::new(spec(), 2).unwrap(),
        );
        assert_eq!(seq.num_groups(), sharded.num_groups());
    }
}
