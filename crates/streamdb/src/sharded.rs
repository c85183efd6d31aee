//! Sharded, thread-parallel GROUP BY ingest.
//!
//! The ISP-era systems the survey describes (§3) did not run one big
//! aggregation loop: Gigascope pushed GROUP BY state across processors by
//! *partitioning on the grouping key*, so every group lives in exactly one
//! partition and partitions never contend. [`ShardedEngine`] is that
//! design over [`SketchEngine`]:
//!
//! * N shards, each a complete [`SketchEngine`] with the same query spec
//!   and [`EngineConfig`] (identical sketch seeds);
//! * rows are routed by a deterministic hash of their grouping key, so a
//!   group's rows always land on the same shard, in stream order;
//! * [`process_batch`](ShardedEngine::process_batch) splits the batch into
//!   one list of row *indices* per shard and drives each shard from its
//!   own scoped worker thread — workers borrow the caller's `&[Row]`, so
//!   nothing is cloned on the ingest path.
//!
//! The batch protocol around those threads (prevalidate, partition,
//! commit-or-roll-back-all, failure attribution) and every cross-shard
//! read accessor are shared with [`crate::ConcurrentEngine`]; this file
//! is only the synchronous topology — scoped threads over `&mut` shards.
//!
//! # Consistency model
//!
//! `process_batch` takes `&mut self` and joins every worker before
//! returning, so all public reads ([`report`](ShardedEngine::report),
//! [`flush_window`](ShardedEngine::flush_window), …) observe a quiescent
//! engine: a batch is in it whole or not at all.
//!
//! Because routing is per-group and each shard applies a group's rows in
//! stream order with the same seeds as a sequential engine, every
//! per-group report is **identical** (not merely statistically close) to
//! what a single [`SketchEngine`] fed the same rows would produce.

use crossbeam::thread as cb_thread;
use sketches_core::{SketchError, SketchResult};

use crate::engine::{EngineConfig, SketchEngine};
use crate::fault::{
    panic_message, BatchCause, BatchError, BatchSummary, DeadLetters, FaultInjector, FaultPolicy,
};
use crate::query::{AggregateResult, QuerySpec};
use crate::router::{self, worker_ingest, Partition, Router, WorkerOutcome};
use crate::value::{Row, Value};

/// A sharded GROUP BY engine: N [`SketchEngine`] partitions driven in
/// parallel, with per-group results identical to a single engine.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    pub(crate) shards: Vec<SketchEngine>,
    /// Spec, poison-row policy, router dead letters and batch metrics,
    /// with the batch protocol over them.
    router: Router,
}

impl ShardedEngine {
    /// Creates a sharded engine with default sketch parameters.
    ///
    /// # Errors
    /// Returns an error if `num_shards == 0` or the spec/config produce
    /// invalid sketches.
    pub fn new(spec: QuerySpec, num_shards: usize) -> SketchResult<Self> {
        Self::with_config(spec, EngineConfig::default(), num_shards)
    }

    /// Creates a sharded engine with explicit sketch parameters.
    ///
    /// # Errors
    /// Returns an error if `num_shards == 0` or the spec/config produce
    /// invalid sketches.
    pub fn with_config(
        spec: QuerySpec,
        config: EngineConfig,
        num_shards: usize,
    ) -> SketchResult<Self> {
        Ok(Self::from_shards(fresh_shards(&spec, config, num_shards)?))
    }

    /// Wraps shards that share one spec and config (fresh construction;
    /// checkpoint restore, which has validated exactly that) — at least
    /// one, so the spec can be read off the first.
    pub(crate) fn from_shards(shards: Vec<SketchEngine>) -> Self {
        let router = Router::new(shards[0].spec.clone());
        Self { shards, router }
    }

    /// Ingests a batch of rows, driving shard 0 on the calling thread and
    /// every other shard from its own worker thread. Rows of the same group
    /// are applied in batch order.
    ///
    /// Transactional at batch granularity: on any failure — a rejected row
    /// under [`FaultPolicy::FailBatch`], an injected fault, or a worker
    /// panic (contained per worker via `catch_unwind`) — **every** shard
    /// rolls back to its pre-batch state before the error is reported, so
    /// a torn batch is never visible even though shards ingest
    /// concurrently. Under [`FaultPolicy::Quarantine`], rows too short to
    /// project a grouping key are diverted by the router itself and other
    /// poison rows by the owning shard.
    ///
    /// # Errors
    /// Returns a [`BatchError`] naming the failing row, shard, and cause;
    /// when several shards fail, the earliest failing row (then lowest
    /// shard) is reported. The engine is unchanged.
    pub fn process_batch(&mut self, rows: &[Row]) -> Result<BatchSummary, BatchError> {
        self.router.prevalidate(rows)?;
        let start = self.router.metrics.start_batch();
        let Partition { lists, quarantine } = self.router.partition(rows, self.shards.len());
        let shards = &mut self.shards;
        let scope_result = cb_thread::scope(|scope| {
            // Shard 0 runs on the calling thread, every other shard on its
            // own: one shard spawns nothing.
            let mut work = shards.iter_mut().zip(&lists);
            let first = work.next();
            let handles: Vec<_> = work
                .map(|(shard, indices)| scope.spawn(move |_| worker_ingest(shard, rows, indices)))
                .collect();
            first
                .map(|(shard, indices)| worker_ingest(shard, rows, indices))
                .into_iter()
                .chain(handles.into_iter().map(|h| {
                    h.join()
                        .unwrap_or_else(|p| WorkerOutcome::lost(panic_message(p.as_ref())))
                }))
                .collect::<Vec<WorkerOutcome>>()
        });
        let result = match scope_result {
            Ok(outcomes) => self.router.settle(outcomes, quarantine, |commit| {
                for shard in shards.iter_mut() {
                    if commit {
                        shard.commit_batch();
                    } else {
                        shard.rollback_batch();
                    }
                }
                Ok(())
            }),
            Err(payload) => {
                // The scope itself panicked (outside any worker's own
                // supervisor). Roll back whatever the workers did.
                for shard in shards.iter_mut() {
                    shard.rollback_batch();
                }
                Err(self.router.count_failure(BatchError {
                    row: None,
                    shard: None,
                    cause: BatchCause::WorkerPanic(panic_message(payload.as_ref())),
                }))
            }
        };
        self.router.metrics.finish_batch(start);
        result
    }

    /// Reports the aggregates of one group (`None` if never seen). The
    /// group lives in exactly one shard, found by re-hashing the key.
    ///
    /// # Errors
    /// Returns an error only for internal sketch query failures.
    pub fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        self.shards[router::shard_of(key, self.shards.len())].report(key)
    }

    /// Finishes a tumbling window: every group's report in ascending key
    /// order — identical to [`SketchEngine::flush_window`] on the same
    /// stream (unified surface, PR 4; the listing used to be shard by
    /// shard) — and a state reset, including quarantined dead letters,
    /// which belong to the window.
    ///
    /// # Errors
    /// Propagates report errors.
    pub fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.extend(shard.flush_window()?);
        }
        // Per-shard windows are each sorted; a full sort restores the
        // global key order the sequential engine emits.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        self.router.dead.clear();
        Ok(out)
    }

    /// Merges another sharded engine's state (distributed GROUP BY over
    /// sharded nodes). Shard counts must match: routing places each group
    /// by `hash % num_shards`, so equal counts guarantee the two engines'
    /// shards partition the key space identically.
    ///
    /// # Errors
    /// Returns an error if shard counts, specs, or configs differ.
    pub fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.shards.len() != other.shards.len() {
            return Err(SketchError::incompatible("shard counts differ"));
        }
        for (i, (a, b)) in self.shards.iter_mut().zip(&other.shards).enumerate() {
            a.merge(b)
                .map_err(|e| SketchError::incompatible(format!("shard {i}: {e}")))?;
        }
        self.router.absorb(&other.router);
        Ok(())
    }

    /// Collapses all shards into one sequential [`SketchEngine`] (for
    /// global reporting, checkpointing, or re-sharding).
    ///
    /// # Errors
    /// Propagates merge errors (impossible for shards minted by this
    /// engine, which share spec and config).
    pub fn collapse(&self) -> SketchResult<SketchEngine> {
        let mut out = SketchEngine::with_config(self.router.spec.clone(), self.shards[0].config)?;
        for shard in &self.shards {
            out.merge(shard)?;
        }
        Ok(out)
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total groups tracked across shards (groups never straddle shards).
    #[must_use]
    pub fn num_groups(&self) -> usize {
        router::num_groups(&self.shards)
    }

    /// Total rows processed across shards.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        router::rows_processed(&self.shards)
    }

    /// All group keys currently tracked, in ascending key order across
    /// **all** shards — the same deterministic listing contract as
    /// [`SketchEngine::groups`] (unified in PR 4; before that the listing
    /// was shard-by-shard, an ordering that leaked the routing hash).
    pub fn groups(&self) -> impl Iterator<Item = &Vec<Value>> {
        router::groups(&self.shards).into_iter()
    }

    /// Total sketch memory across shards.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        router::state_bytes(&self.shards)
    }

    /// Current poison-row policy.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.router.fault_policy
    }

    /// Sets the poison-row policy, mirroring it into every shard so the
    /// router and workers agree on how malformed rows are handled.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.router.set_fault_policy(policy);
        for shard in &mut self.shards {
            shard.set_fault_policy(policy);
        }
    }

    /// Arms a deterministic fault injector on one shard (test harness for
    /// torn-batch recovery; see `sketches-workloads::faults`).
    ///
    /// # Errors
    /// Returns an error if `shard` is out of range.
    pub fn arm_faults(&mut self, shard: usize, injector: FaultInjector) -> SketchResult<()> {
        let num = self.shards.len();
        let s = self
            .shards
            .get_mut(shard)
            .ok_or_else(|| SketchError::invalid("shard", format!("no shard {shard} (of {num})")))?;
        s.arm_faults(injector);
        Ok(())
    }

    /// Disarms the fault injectors on every shard, returning each armed
    /// injector with its shard index (and consumed attempt counter).
    ///
    /// Unified surface (PR 4): disarming always *returns* what was armed,
    /// matching [`SketchEngine::disarm_faults`]'s `Option` shape scaled to
    /// N shards. Callers that only want the side effect can ignore the
    /// returned `Vec`; before PR 4 this method silently dropped the
    /// injectors, so drills could not inspect attempt counters.
    pub fn disarm_faults(&mut self) -> Vec<(usize, FaultInjector)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some(injector) = shard.disarm_faults() {
                out.push((i, injector));
            }
        }
        out
    }

    /// Router-level dead letters (rows too short to route). Per-shard
    /// quarantines are aggregated by [`dead_letters`](Self::dead_letters).
    #[must_use]
    pub fn router_dead(&self) -> &DeadLetters {
        &self.router.dead
    }

    /// Aggregated dead-letter view: the router's own quarantine plus every
    /// shard's, with samples stamped with their shard index. Owned — the
    /// unified [`crate::StreamEngine`] dead-letter shape (see
    /// [`SketchEngine::dead_letters`]).
    #[must_use]
    pub fn dead_letters(&self) -> DeadLetters {
        router::dead_letters(self.router.dead.clone(), &self.shards)
    }

    /// Cuts a telemetry snapshot merged across the router and every
    /// shard: counters and gauges add, latency histograms KLL-merge
    /// (lossless — no averaged percentiles), so the totals are exactly
    /// what a sequential engine fed the same stream would report. Also
    /// exports one `shard_rows_routed{shard="i"}` gauge per shard, making
    /// routing skew directly observable.
    #[must_use]
    pub fn metrics(&self) -> sketches_obs::MetricsSnapshot {
        router::metrics(&self.router.metrics, &self.shards)
    }

    /// Enables or disables metric recording on the router and every
    /// shard (on by default).
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.router.metrics.enabled = enabled;
        for shard in &mut self.shards {
            shard.set_metrics_enabled(enabled);
        }
    }

    /// Installs the time source behind the batch-latency histograms on
    /// the router and every shard (see [`SketchEngine::set_clock`]).
    pub fn set_clock(&mut self, clock: std::sync::Arc<dyn sketches_obs::Clock>) {
        self.router.metrics.clock = clock.clone();
        for shard in &mut self.shards {
            shard.set_clock(clock.clone());
        }
    }
}

/// `num_shards` empty shards sharing one spec and config — how both
/// topologies start.
///
/// # Errors
/// Returns an error if `num_shards == 0` or the spec/config produce
/// invalid sketches.
pub(crate) fn fresh_shards(
    spec: &QuerySpec,
    config: EngineConfig,
    num_shards: usize,
) -> SketchResult<Vec<SketchEngine>> {
    if num_shards == 0 {
        return Err(SketchError::invalid(
            "num_shards",
            "need at least one shard",
        ));
    }
    (0..num_shards)
        .map(|_| SketchEngine::with_config(spec.clone(), config))
        .collect()
}

#[cfg(test)]
// `row!` expands to `vec![...]`, which tests also pass to slice-taking
// query methods — fine here.
#[allow(clippy::useless_vec)]
mod tests {
    use super::*;
    use crate::query::Aggregate;
    use crate::row;

    fn spec() -> QuerySpec {
        QuerySpec::new(
            vec![0],
            vec![
                Aggregate::Count,
                Aggregate::Sum { field: 2 },
                Aggregate::CountDistinct { field: 1 },
                Aggregate::Quantiles { field: 2 },
                Aggregate::TopK { field: 1, k: 3 },
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
    fn matches_sequential_at_every_shard_count() {
        let data = rows(20_000, 23);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let mut sharded = ShardedEngine::new(spec(), shards).unwrap();
            sharded.process_batch(&data).unwrap();
            assert_eq!(sharded.rows_processed(), seq.rows_processed());
            assert_eq!(sharded.num_groups(), seq.num_groups());
            for g in 0..23u64 {
                assert_eq!(
                    sharded.report(&row![g]).unwrap(),
                    seq.report(&row![g]).unwrap(),
                    "group {g} diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn multiple_batches_keep_group_order() {
        // Splitting the stream into many small batches must not change
        // per-group results: routing is deterministic, so a group's rows
        // stay on one shard in stream order.
        let data = rows(9_000, 11);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        for chunk in data.chunks(257) {
            sharded.process_batch(chunk).unwrap();
        }
        for g in 0..11u64 {
            assert_eq!(
                sharded.report(&row![g]).unwrap(),
                seq.report(&row![g]).unwrap()
            );
        }
    }

    #[test]
    fn short_rows_rejected_before_ingest() {
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        let mut data = rows(100, 5);
        data.push(row!["short"]);
        assert!(sharded.process_batch(&data).is_err());
        // Atomic at the batch level: nothing was ingested.
        assert_eq!(sharded.rows_processed(), 0);
    }

    #[test]
    fn aggregation_error_surfaces_from_workers() {
        let mut sharded = ShardedEngine::new(spec(), 2).unwrap();
        let mut data = rows(50, 3);
        data.push(row![0u64, 1u64, "not-a-number"]);
        assert!(sharded.process_batch(&data).is_err());
    }

    #[test]
    fn flush_window_resets_all_shards() {
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&rows(1_000, 7)).unwrap();
        let window = sharded.flush_window().unwrap();
        assert_eq!(window.len(), 7);
        assert_eq!(sharded.num_groups(), 0);
        assert_eq!(sharded.rows_processed(), 0);
    }

    #[test]
    fn merge_combines_disjoint_streams() {
        // Reference: the same split merged sequentially. (Merging is not
        // identical to one engine over the concatenated stream for KLL /
        // SpaceSaving, so the fair comparison is merge-vs-merge.)
        let data = rows(12_000, 13);
        let (left, right) = data.split_at(7_000);
        let mut a = ShardedEngine::new(spec(), 4).unwrap();
        let mut b = ShardedEngine::new(spec(), 4).unwrap();
        a.process_batch(left).unwrap();
        b.process_batch(right).unwrap();
        a.merge(&b).unwrap();

        let mut seq_a = SketchEngine::new(spec()).unwrap();
        let mut seq_b = SketchEngine::new(spec()).unwrap();
        seq_a.process_batch(left).unwrap();
        seq_b.process_batch(right).unwrap();
        seq_a.merge(&seq_b).unwrap();
        assert_eq!(a.rows_processed(), seq_a.rows_processed());
        for g in 0..13u64 {
            assert_eq!(a.report(&row![g]).unwrap(), seq_a.report(&row![g]).unwrap());
        }
    }

    #[test]
    fn merge_rejects_shard_count_mismatch() {
        let mut a = ShardedEngine::new(spec(), 2).unwrap();
        let b = ShardedEngine::new(spec(), 4).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn collapse_equals_sequential() {
        let data = rows(8_000, 17);
        let mut sharded = ShardedEngine::new(spec(), 8).unwrap();
        sharded.process_batch(&data).unwrap();
        let collapsed = sharded.collapse().unwrap();

        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        assert_eq!(collapsed.num_groups(), seq.num_groups());
        for g in 0..17u64 {
            assert_eq!(
                collapsed.report(&row![g]).unwrap(),
                seq.report(&row![g]).unwrap()
            );
        }
    }

    #[test]
    fn rejects_zero_shards_and_zero_depth() {
        assert!(ShardedEngine::new(spec(), 0).is_err());
    }

    #[test]
    fn poison_row_rolls_back_every_shard() {
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&rows(500, 7)).unwrap();
        let before = sharded.to_snapshot_bytes();

        let mut batch = rows(200, 7);
        batch.insert(60, row![0u64, 1u64, "not-a-number"]);
        let err = sharded.process_batch(&batch).unwrap_err();
        assert_eq!(err.row, Some(60));
        assert!(err.shard.is_some());
        assert!(matches!(err.cause, BatchCause::Row(_)));
        // Atomic across shards: even shards that never saw the poison row
        // rolled back their slice of the batch.
        assert_eq!(sharded.to_snapshot_bytes(), before);
        assert_eq!(sharded.rows_processed(), 500);
    }

    #[test]
    fn injected_worker_panic_is_contained_and_batch_retryable() {
        crate::fault::silence_injected_panics();
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&rows(300, 9)).unwrap();
        let before = sharded.to_snapshot_bytes();

        // The injector counts attempts from when it is armed: attempt 10
        // is the 10th row shard 2 receives from the next batch.
        sharded
            .arm_faults(
                2,
                crate::fault::FaultInjector::new().at(10, crate::fault::FaultKind::Panic),
            )
            .unwrap();
        let batch = rows(400, 9);
        let err = sharded.process_batch(&batch).unwrap_err();
        assert_eq!(err.shard, Some(2));
        assert!(matches!(err.cause, BatchCause::WorkerPanic(_)));
        assert_eq!(sharded.to_snapshot_bytes(), before);

        // Retry gets past the transient fault and converges with a
        // never-faulted engine.
        sharded.process_batch(&batch).unwrap();
        sharded.disarm_faults();
        let mut baseline = ShardedEngine::new(spec(), 4).unwrap();
        baseline.process_batch(&rows(300, 9)).unwrap();
        baseline.process_batch(&batch).unwrap();
        assert_eq!(sharded.to_snapshot_bytes(), baseline.to_snapshot_bytes());
    }

    #[test]
    fn arm_faults_rejects_bad_shard_index() {
        // One contract and one message on both sharded topologies.
        macro_rules! check {
            ($engine:ty) => {{
                let mut sharded = <$engine>::new(spec(), 2).unwrap();
                // The first out-of-range index is num_shards itself
                // (boundary), and the rejection must be a *typed* parameter
                // error naming both the requested shard and the valid range
                // — not a panic or a silent no-op on some other shard.
                for bad in [2usize, 5, usize::MAX] {
                    let err = sharded
                        .arm_faults(bad, crate::fault::FaultInjector::new())
                        .unwrap_err();
                    assert!(
                        matches!(err, SketchError::InvalidParameter { name: "shard", .. }),
                        "shard {bad}: wrong error {err:?}"
                    );
                    assert!(err.to_string().contains("(of 2)"), "shard {bad}: {err}");
                }
                // In-range shards (0 and num_shards - 1) still arm fine.
                sharded
                    .arm_faults(0, crate::fault::FaultInjector::new())
                    .unwrap();
                sharded
                    .arm_faults(1, crate::fault::FaultInjector::new())
                    .unwrap();
                let disarmed = sharded.disarm_faults();
                assert_eq!(disarmed.len(), 2);
                assert_eq!(disarmed[0].0, 0);
                assert_eq!(disarmed[1].0, 1);
            }};
        }
        check!(ShardedEngine);
        check!(crate::ConcurrentEngine);
    }

    #[test]
    fn quarantine_aggregates_router_and_shard_dead_letters() {
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.set_fault_policy(FaultPolicy::Quarantine { max_samples: 8 });
        let mut batch = rows(100, 5);
        batch.insert(3, row![7u64]); // short: router quarantines it
        batch.insert(50, row![0u64, 1u64, "bad"]); // shard quarantines it
        let summary = sharded.process_batch(&batch).unwrap();
        assert_eq!(summary.rows_ingested, 100);
        assert_eq!(summary.rows_quarantined, 2);

        let all = sharded.dead_letters();
        assert_eq!(all.count(), 2);
        assert_eq!(all.samples().len(), 2);
        let router_sample = all.samples().iter().find(|q| q.row_index == 3).unwrap();
        assert_eq!(router_sample.shard, None);
        let shard_sample = all.samples().iter().find(|q| q.row_index == 50).unwrap();
        assert!(shard_sample.shard.is_some());

        // Quarantined rows left no trace in sketch state.
        let mut clean = ShardedEngine::new(spec(), 4).unwrap();
        clean.process_batch(&rows(100, 5)).unwrap();
        for g in 0..5u64 {
            assert_eq!(
                sharded.report(&row![g]).unwrap(),
                clean.report(&row![g]).unwrap()
            );
        }

        // Dead letters are window state.
        sharded.flush_window().unwrap();
        assert!(sharded.dead_letters().is_empty());
    }

    #[test]
    fn one_shard_quarantines_short_rows_like_every_shard_count() {
        let outcome = |num_shards| {
            let mut sharded = ShardedEngine::new(spec(), num_shards).unwrap();
            sharded.set_fault_policy(FaultPolicy::Quarantine { max_samples: 8 });
            let mut batch = rows(40, 5);
            batch.insert(3, row![7u64]); // short: the router quarantines it
            batch.insert(20, row![0u64, 1u64, "bad"]); // its shard quarantines it
            let summary = sharded.process_batch(&batch).unwrap();
            let router = sharded.router_dead().samples().to_vec();
            let totals = [
                crate::metrics::names::BATCHES_COMMITTED,
                crate::metrics::names::ROWS_INGESTED,
                crate::metrics::names::ROWS_QUARANTINED,
            ]
            .map(|name| sharded.metrics().counters[name]);
            (summary, router, totals)
        };
        let (summary, router, totals) = outcome(1);
        assert_eq!((summary.rows_ingested, summary.rows_quarantined), (40, 2));
        assert_eq!(router.len(), 1);
        assert_eq!((router[0].row_index, router[0].shard), (3, None));
        assert_eq!(totals, [1, 40, 2]);
        assert_eq!(outcome(2), (summary, router, totals));
    }

    #[test]
    fn merge_error_names_the_failing_shard() {
        fn check<E: crate::StreamEngine>(build: impl Fn(EngineConfig) -> E) {
            let mut a = build(EngineConfig::default());
            let b = build(EngineConfig {
                hll_precision: 12,
                ..EngineConfig::default()
            });
            let err = a.merge(&b).unwrap_err();
            assert!(err.to_string().contains("shard 0"), "{err}");
        }
        check(|config| ShardedEngine::with_config(spec(), config, 2).unwrap());
        check(|config| crate::ConcurrentEngine::with_config(spec(), config, 2).unwrap());
    }
}
