//! The sketch-backed aggregation engine.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use sketches_cardinality::HyperLogLogPlusPlus;
use sketches_core::{
    ByteReader, ByteWriter, CardinalityEstimator, FrequencyEstimator, MergeSketch, QuantileSketch,
    SketchError, SketchResult, SpaceUsage, Update,
};
use sketches_frequency::{SfSketch, SpaceSaving};
use sketches_quantiles::KllSketch;

use crate::fault::{
    panic_message, BatchCause, BatchError, BatchSummary, DeadLetters, FaultInjector, FaultKind,
    FaultPolicy, QuarantinedRow, INJECTED_PANIC_MARKER,
};
use crate::metrics::{names, EngineMetrics};
use crate::query::{Aggregate, AggregateResult, QuerySpec};
use crate::value::{read_value, write_value, Row, Value};

/// Per-group sketch state for one aggregate.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(u64),
    Sum(f64),
    CountDistinct(HyperLogLogPlusPlus),
    Quantiles(KllSketch),
    TopK {
        sketch: SpaceSaving<Value>,
        k: usize,
    },
    Frequency(SfSketch),
}

/// Depth (rows) of both grids of every FREQUENCY SF-sketch. Fixed rather
/// than configurable: 4 rows put the collision probability per query at
/// `(1/width)^4`, and a fixed depth keeps the fat/slim widths the only
/// size knobs E27 sweeps.
pub const SF_DEPTH: usize = 4;

/// Tunable sketch parameters for the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// HLL++ precision for COUNT DISTINCT (4..=18).
    pub hll_precision: u32,
    /// KLL accuracy parameter for QUANTILES.
    pub kll_k: usize,
    /// SpaceSaving counters for TOP-K (must exceed the query's `k`).
    pub space_saving_counters: usize,
    /// Fat (update-side) width of every FREQUENCY SF-sketch.
    pub sf_fat_width: usize,
    /// Slim (query-side) width of every FREQUENCY SF-sketch — what a
    /// [`crate::EngineView`] ships per group.
    pub sf_slim_width: usize,
    /// Base PRNG seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            hll_precision: 11,
            kll_k: 128,
            space_saving_counters: 64,
            sf_fat_width: 1024,
            sf_slim_width: 64,
            seed: 0x57_DB,
        }
    }
}

/// A GROUP BY engine maintaining one set of sketches per group — the
/// "huge numbers of sketches in parallel" design of the ISP-era systems.
///
/// `Clone` is shallow with isolation: the copy shares every group's state
/// by pointer, and whichever side writes a shared group first moves to its
/// own copy of it (copy-on-write), so neither can observe the other.
#[derive(Debug, Clone)]
pub struct SketchEngine {
    pub(crate) spec: QuerySpec,
    pub(crate) config: EngineConfig,
    /// Pristine per-group state, validated at construction and cloned for
    /// each new group (cheaper and simpler than re-validating per group).
    template: Vec<AggState>,
    /// One allocation per group behind a shared pointer; every write goes
    /// through `Arc::make_mut`, so a clone, a published snapshot and an
    /// undo log are pointers into this map rather than copies of it.
    pub(crate) groups: HashMap<Vec<Value>, Arc<[AggState]>>,
    /// Reusable key-projection buffer so the hot path can look up the
    /// group by slice (`Vec<Value>: Borrow<[Value]>`) without allocating a
    /// fresh key `Vec` per row; surrendered to the map only on the first
    /// row of each new group.
    key_scratch: Vec<Value>,
    pub(crate) rows_processed: u64,
    /// What to do with malformed rows (fail the batch vs quarantine).
    fault_policy: FaultPolicy,
    /// Quarantined rows under [`FaultPolicy::Quarantine`].
    dead_letters: DeadLetters,
    /// Deterministic fault schedule, when armed by a drill.
    injector: Option<FaultInjector>,
    /// In-flight batch checkpoint: the pre-batch state of every group the
    /// batch has touched, for rollback on failure.
    checkpoint: Option<BatchCheckpoint>,
    /// Hot-path telemetry (see [`crate::metrics`]); excluded from
    /// checkpoints like the other transient state.
    pub(crate) metrics: EngineMetrics,
}

/// What one batch touched, with what a rollback puts back (`Some` = pre-batch
/// state, `None` = delete it). A commit hands it on: its keys are the delta.
pub(crate) type Touched = HashMap<Vec<Value>, Option<Arc<[AggState]>>>;

/// Incremental undo log for one in-flight batch: only groups the batch
/// touches are saved, so checkpoint cost scales with the batch's group
/// footprint rather than the whole engine. A saved state is the pre-batch
/// pointer itself when anyone else also holds it, and a private copy when
/// nobody does (see [`SketchEngine::ingest_row`]).
#[derive(Debug, Clone, Default)]
struct BatchCheckpoint {
    touched: Touched,
    rows_processed: u64,
    dead_count: u64,
    dead_samples: usize,
    /// Pre-batch metric readings, so a rollback rewinds the row-level
    /// counters and they stay exact rather than merely monotone.
    metric_rows_ingested: u64,
    metric_rows_quarantined: u64,
}

impl SketchEngine {
    /// Creates an engine for `spec` with default sketch parameters.
    ///
    /// # Errors
    /// Returns an error if the spec/config produce invalid sketches.
    pub fn new(spec: QuerySpec) -> SketchResult<Self> {
        Self::with_config(spec, EngineConfig::default())
    }

    /// Creates an engine with explicit sketch parameters.
    ///
    /// # Errors
    /// Returns an error if the config is invalid (validated eagerly by
    /// constructing a probe group).
    pub fn with_config(spec: QuerySpec, config: EngineConfig) -> SketchResult<Self> {
        let mut engine = Self {
            spec,
            config,
            template: Vec::new(),
            groups: HashMap::new(),
            key_scratch: Vec::new(),
            rows_processed: 0,
            fault_policy: FaultPolicy::default(),
            dead_letters: DeadLetters::default(),
            injector: None,
            checkpoint: None,
            metrics: EngineMetrics::new(),
        };
        engine.template = engine.fresh_state()?;
        Ok(engine)
    }

    fn fresh_state(&self) -> SketchResult<Vec<AggState>> {
        self.spec
            .aggregates
            .iter()
            .map(|agg| {
                Ok(match agg {
                    Aggregate::Count => AggState::Count(0),
                    Aggregate::Sum { .. } => AggState::Sum(0.0),
                    Aggregate::CountDistinct { .. } => AggState::CountDistinct(
                        HyperLogLogPlusPlus::new(self.config.hll_precision, self.config.seed)?,
                    ),
                    Aggregate::Quantiles { .. } => {
                        AggState::Quantiles(KllSketch::new(self.config.kll_k, self.config.seed)?)
                    }
                    Aggregate::TopK { k, .. } => {
                        if *k > self.config.space_saving_counters {
                            return Err(SketchError::invalid(
                                "k",
                                "TopK k exceeds space_saving_counters",
                            ));
                        }
                        AggState::TopK {
                            sketch: SpaceSaving::new(self.config.space_saving_counters)?,
                            k: *k,
                        }
                    }
                    Aggregate::Frequency { .. } => AggState::Frequency(SfSketch::new(
                        self.config.sf_fat_width,
                        self.config.sf_slim_width,
                        SF_DEPTH,
                        self.config.seed,
                    )?),
                })
            })
            .collect()
    }

    /// Validates one row against the query up front — arity, then the type
    /// of every numerically-aggregated field — so that by the time
    /// [`apply`](Self::apply) mutates sketch state, nothing can fail. This
    /// full validation is what makes row-level quarantine and batch
    /// rollback sound: a poison row is rejected *before* any sketch absorbs
    /// part of it.
    fn validate_row(&self, row: &Row) -> SketchResult<()> {
        if row.len() <= self.spec.max_field() {
            return Err(SketchError::invalid("row", "row shorter than query fields"));
        }
        for agg in &self.spec.aggregates {
            match agg {
                Aggregate::Sum { field } => {
                    if row[*field].as_f64().is_none() {
                        return Err(SketchError::invalid("field", "SUM over non-numeric field"));
                    }
                }
                Aggregate::Quantiles { field } => {
                    if row[*field].as_f64().is_none() {
                        return Err(SketchError::invalid(
                            "field",
                            "QUANTILES over non-numeric field",
                        ));
                    }
                }
                Aggregate::Count
                | Aggregate::CountDistinct { .. }
                | Aggregate::TopK { .. }
                | Aggregate::Frequency { .. } => {}
            }
        }
        Ok(())
    }

    /// Routes a rejected row by policy: fail (the caller rolls the batch
    /// back) or divert to the dead-letter buffer and continue.
    fn divert_or_fail(
        &mut self,
        row_index: usize,
        row: &Row,
        reason: SketchError,
    ) -> SketchResult<bool> {
        match self.fault_policy {
            FaultPolicy::FailBatch => Err(reason),
            FaultPolicy::Quarantine { .. } => {
                self.dead_letters.record(QuarantinedRow {
                    row_index,
                    shard: None,
                    reason,
                    row: row.clone(),
                });
                if self.metrics.enabled {
                    self.metrics.rows_quarantined.inc();
                }
                Ok(false)
            }
        }
    }

    /// One ingest attempt: validate, consult the fault injector, then fold
    /// the row into its group. Returns `Ok(true)` if the row landed,
    /// `Ok(false)` if it was quarantined.
    ///
    /// # Errors
    /// Returns the row's rejection reason under [`FaultPolicy::FailBatch`].
    pub(crate) fn ingest_row(&mut self, row_index: usize, row: &Row) -> SketchResult<bool> {
        if let Err(reason) = self.validate_row(row) {
            return self.divert_or_fail(row_index, row, reason);
        }
        if let Some(inj) = self.injector.as_mut() {
            // The fault counter mirrors the injector's attempt semantics:
            // a fired fault stays counted even if its batch rolls back.
            match inj.check() {
                Some(FaultKind::Error) => {
                    if self.metrics.enabled {
                        self.metrics.injected_faults.inc();
                    }
                    let reason = SketchError::invalid("fault", "injected ingest error");
                    return self.divert_or_fail(row_index, row, reason);
                }
                #[expect(
                    clippy::panic,
                    reason = "deterministic injected fault; always contained by the batch supervisor"
                )]
                Some(FaultKind::Panic) => {
                    if self.metrics.enabled {
                        self.metrics.injected_faults.inc();
                    }
                    panic!("{INJECTED_PANIC_MARKER}: injected panic at row {row_index}");
                }
                None => {}
            }
        }
        // Project the key into the reusable scratch buffer and look the
        // group up by slice: the steady state (group already known) does
        // one hash lookup and zero allocations. Only the first row of a
        // new group surrenders the scratch `Vec` to the map.
        self.key_scratch.clear();
        self.key_scratch
            .extend(self.spec.group_by.iter().map(|&i| row[i].clone()));
        // Transactional bookkeeping: the first time a batch touches a
        // group, save its pre-batch state (or note it is brand new). If
        // anyone else holds that state (a published snapshot, a clone, a
        // merged-in engine) the pointer is the undo copy and `make_mut`
        // below moves the writer off it; if nobody does, save a private
        // copy and keep writing in place. Race-free: nobody but this
        // engine's owner can reach a count-1 group, and a count that drops
        // after the test leaves the log's own reference forcing the copy.
        if let Some(cp) = &mut self.checkpoint {
            if !cp.touched.contains_key(self.key_scratch.as_slice()) {
                let live = self.groups.get(self.key_scratch.as_slice());
                let saved = live.map(|st| match Arc::strong_count(st) {
                    1 => Arc::from(&st[..]),
                    _ => Arc::clone(st),
                });
                cp.touched.insert(self.key_scratch.clone(), saved);
            }
        }
        if let Some(state) = self.groups.get_mut(self.key_scratch.as_slice()) {
            Self::apply(&self.spec, Arc::make_mut(state), row);
        } else {
            let key = std::mem::take(&mut self.key_scratch);
            let fresh = Arc::from(&self.template[..]);
            let state = self.groups.entry(key).or_insert(fresh);
            Self::apply(&self.spec, Arc::make_mut(state), row);
        }
        self.rows_processed += 1;
        if self.metrics.enabled {
            self.metrics.rows_ingested.inc();
        }
        Ok(true)
    }

    /// Processes one row.
    ///
    /// Under [`FaultPolicy::Quarantine`] a malformed row is diverted to
    /// [`dead_letters`](Self::dead_letters) and `Ok(())` is returned.
    ///
    /// # Errors
    /// Under [`FaultPolicy::FailBatch`] (the default), returns an error if
    /// the row is too short for the query or a non-numeric field is
    /// aggregated numerically — before any state is mutated.
    pub fn process(&mut self, row: &Row) -> SketchResult<()> {
        self.ingest_row(0, row).map(|_| ())
    }

    /// Starts an undo log: subsequent [`ingest_row`](Self::ingest_row)
    /// calls record the pre-batch state of every group they touch.
    pub(crate) fn begin_batch(&mut self) {
        self.checkpoint = Some(BatchCheckpoint {
            touched: HashMap::new(),
            rows_processed: self.rows_processed,
            dead_count: self.dead_letters.count(),
            dead_samples: self.dead_letters.samples().len(),
            metric_rows_ingested: self.metrics.rows_ingested.get(),
            metric_rows_quarantined: self.metrics.rows_quarantined.get(),
        });
    }

    /// Ends the undo log, keeping everything the batch ingested, and returns
    /// what it touched: moved out, so discarding it costs the drop it always did.
    pub(crate) fn commit_batch(&mut self) -> Touched {
        self.checkpoint.take().unwrap_or_default().touched
    }

    /// `clone_from` at O(touched): brings a clone of `live` taken before its
    /// last committed batch up to date, given what that batch `touched` (nothing
    /// else having changed its groups) — `live`'s pointer for every key it
    /// touched, then all the scalars.
    pub(crate) fn catch_up(&mut self, live: &Self, touched: &Touched) {
        for key in touched.keys() {
            match (live.groups.get(key), self.groups.get_mut(key)) {
                (Some(state), Some(stale)) => *stale = Arc::clone(state),
                (Some(state), None) => drop(self.groups.insert(key.clone(), Arc::clone(state))),
                (None, _) => drop(self.groups.remove(key)),
            }
        }
        self.rows_processed = live.rows_processed;
        self.fault_policy = live.fault_policy;
        self.dead_letters.clone_from(&live.dead_letters);
        self.injector.clone_from(&live.injector);
        self.metrics.clone_from(&live.metrics);
    }

    /// Restores the exact pre-batch state from the undo log: touched groups
    /// revert, groups the batch created disappear, and the row/dead-letter
    /// counters rewind.
    pub(crate) fn rollback_batch(&mut self) {
        if let Some(cp) = self.checkpoint.take() {
            // lint: sorted-iteration-ok(keyed restore: each entry overwrites its own group, independent of visit order)
            for (key, saved) in cp.touched {
                match saved {
                    Some(state) => {
                        self.groups.insert(key, state);
                    }
                    None => {
                        self.groups.remove(&key);
                    }
                }
            }
            self.rows_processed = cp.rows_processed;
            self.dead_letters
                .truncate_to(cp.dead_count, cp.dead_samples);
            self.metrics.rows_ingested.set(cp.metric_rows_ingested);
            self.metrics
                .rows_quarantined
                .set(cp.metric_rows_quarantined);
        }
    }

    /// Processes a batch of rows in order — transactionally. Either every
    /// valid row of the batch is absorbed and a [`BatchSummary`] reports
    /// what happened, or the engine's observable state is **exactly** what
    /// it was before the call: a failing row, an injected fault, or even a
    /// panic inside the ingest path (contained here via `catch_unwind`)
    /// rolls back all of the batch's partial work. A torn batch is never
    /// visible.
    ///
    /// # Errors
    /// Returns a [`BatchError`] naming the failing row and cause. The
    /// engine is unchanged.
    pub fn process_batch(&mut self, rows: &[Row]) -> Result<BatchSummary, BatchError> {
        let start = self.metrics.start_batch();
        self.begin_batch();
        let last_row = Cell::new(None::<usize>);
        // lint: panic-boundary(batch supervisor: contains ingest panics, rolls the batch back, reports a typed BatchError)
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut summary = BatchSummary::default();
            for (idx, row) in rows.iter().enumerate() {
                last_row.set(Some(idx));
                match self.ingest_row(idx, row) {
                    Ok(true) => summary.rows_ingested += 1,
                    Ok(false) => summary.rows_quarantined += 1,
                    Err(e) => {
                        return Err(BatchError {
                            row: Some(idx),
                            shard: None,
                            cause: BatchCause::Row(e),
                        });
                    }
                }
            }
            Ok(summary)
        }));
        let result = match outcome {
            Ok(Ok(summary)) => {
                self.commit_batch();
                if self.metrics.enabled {
                    self.metrics.batches_committed.inc();
                }
                Ok(summary)
            }
            Ok(Err(err)) => {
                self.rollback_batch();
                if self.metrics.enabled {
                    self.metrics.batches_rolled_back.inc();
                }
                Err(err)
            }
            Err(payload) => {
                self.rollback_batch();
                if self.metrics.enabled {
                    self.metrics.batches_rolled_back.inc();
                    self.metrics.panics_contained.inc();
                }
                Err(BatchError {
                    row: last_row.get(),
                    shard: None,
                    cause: BatchCause::WorkerPanic(panic_message(payload.as_ref())),
                })
            }
        };
        self.metrics.finish_batch(start);
        result
    }

    /// Folds one row into a group's aggregate states. Infallible by
    /// construction: [`validate_row`](Self::validate_row) has already
    /// checked arity and numeric types, and the state vector is built from
    /// the same spec.
    fn apply(spec: &QuerySpec, state: &mut [AggState], row: &Row) {
        for (agg, st) in spec.aggregates.iter().zip(state.iter_mut()) {
            match (agg, st) {
                (Aggregate::Count, AggState::Count(c)) => *c += 1,
                (Aggregate::Sum { field }, AggState::Sum(s)) => {
                    if let Some(v) = row[*field].as_f64() {
                        *s += v;
                    }
                }
                (Aggregate::CountDistinct { field }, AggState::CountDistinct(h)) => {
                    h.update(&row[*field]);
                }
                (Aggregate::Quantiles { field }, AggState::Quantiles(q)) => {
                    if let Some(v) = row[*field].as_f64() {
                        q.update(&v);
                    }
                }
                (Aggregate::TopK { field, .. }, AggState::TopK { sketch, .. }) => {
                    sketch.update(&row[*field]);
                }
                (Aggregate::Frequency { field }, AggState::Frequency(sf)) => {
                    sf.update(&row[*field]);
                }
                // The state vector is built from the same spec; a mismatch is a
                // construction bug, not input.
                _ => unreachable!("state vector built from the same spec"),
            }
        }
    }

    /// Reports the aggregates of one group (`None` if the group was never
    /// seen).
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
                    AggState::Count(c) => AggregateResult::Count(*c),
                    AggState::Sum(s) => AggregateResult::Sum(*s),
                    AggState::CountDistinct(h) => AggregateResult::CountDistinct(h.estimate()),
                    AggState::Quantiles(q) => AggregateResult::Quantiles {
                        p50: q.quantile(0.5)?,
                        p95: q.quantile(0.95)?,
                        p99: q.quantile(0.99)?,
                    },
                    AggState::TopK { sketch, k } => AggregateResult::TopK(sketch.top_k(*k)),
                    AggState::Frequency(sf) => AggregateResult::Frequency { total: sf.total() },
                })
            })
            .collect::<SketchResult<Vec<_>>>()?;
        Ok(Some(results))
    }

    /// Frequency point query: the estimated number of rows in group `key`
    /// whose FREQUENCY field held `item` (`None` if the group was never
    /// seen). Served from the **fat** side — the local authority; remote
    /// readers get the same query from a slim [`crate::EngineView`].
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
        // First FREQUENCY aggregate answers (specs wanting several fields
        // query the view, which exposes every position).
        for st in state.iter() {
            if let AggState::Frequency(sf) = st {
                return Ok(Some(sf.estimate(item)));
            }
        }
        // The spec has a Frequency aggregate, so every state vector holds one;
        // a mismatch is a construction bug.
        unreachable!("state vector built from the same spec");
    }

    /// All group keys currently tracked, in ascending key order — the
    /// listing is deterministic across runs even though the backing map is
    /// hashed.
    pub fn groups(&self) -> impl Iterator<Item = &Vec<Value>> {
        // lint: sorted-iteration-ok(collected then fully sorted by the key total order below)
        let mut keys: Vec<&Vec<Value>> = self.groups.keys().collect();
        keys.sort();
        keys.into_iter()
    }

    /// Number of groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Rows processed.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.rows_processed
    }

    /// The dead-letter buffer of quarantined rows, as an owned view.
    ///
    /// Unified surface (PR 4): both engines return an **owned**
    /// [`DeadLetters`] — the sharded engine must aggregate per-shard
    /// buffers on the fly, so the owned shape is the one both can honour,
    /// and [`crate::StreamEngine`] pins it down. (Before PR 4 this engine
    /// returned `&DeadLetters` while the sharded engine returned an owned
    /// aggregate.)
    #[must_use]
    pub fn dead_letters(&self) -> DeadLetters {
        self.dead_letters.clone()
    }

    /// The current poison-row policy.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// Sets the poison-row policy. Switching to
    /// [`FaultPolicy::Quarantine`] re-bounds the dead-letter samples to its
    /// `max_samples`.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        if let FaultPolicy::Quarantine { max_samples } = policy {
            self.dead_letters.set_max_samples(max_samples);
        }
        self.fault_policy = policy;
    }

    /// Arms a deterministic fault schedule (a drill: see [`FaultInjector`]).
    pub fn arm_faults(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Disarms the fault schedule, returning it (with its attempt counter)
    /// if one was armed.
    ///
    /// Unified surface (PR 4): disarming always *returns* what was armed —
    /// here an `Option` (one injector slot), on [`crate::ShardedEngine`] a
    /// `Vec<(shard, injector)>` (one slot per shard). Neither discards the
    /// injector silently, so drills can inspect consumed attempt counters.
    pub fn disarm_faults(&mut self) -> Option<FaultInjector> {
        self.injector.take()
    }

    /// Finishes a tumbling window: returns every group's report (in
    /// ascending key order, so downstream consumers see a stable layout)
    /// and resets the state for the next window.
    ///
    /// # Errors
    /// Propagates report errors.
    pub fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        // lint: sorted-iteration-ok(collected then fully sorted by the key total order below)
        let mut keys: Vec<Vec<Value>> = self.groups.keys().cloned().collect();
        keys.sort();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(report) = self.report(&key)? {
                out.push((key, report));
            }
        }
        self.groups.clear();
        self.rows_processed = 0;
        // A fresh window starts fresh quarantine stats too.
        self.dead_letters.clear();
        Ok(out)
    }

    /// Merges another engine's state (distributed GROUP BY: shard by row,
    /// merge per-group sketches).
    ///
    /// # Errors
    /// Returns an error if specs/configs differ.
    pub fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.spec != other.spec {
            return Err(SketchError::incompatible("query specs differ"));
        }
        if self.config != other.config {
            // Checked up front: a lazy failure mid-merge would leave this
            // engine with a mix of the two configs' groups.
            return Err(SketchError::incompatible("engine configs differ"));
        }
        // lint: sorted-iteration-ok(keyed pointwise merge: each group folds into its own entry, independent of visit order)
        for (key, other_state) in &other.groups {
            match self.groups.get_mut(key) {
                None => {
                    self.groups.insert(key.clone(), other_state.clone());
                }
                Some(state) => {
                    for (a, b) in Arc::make_mut(state).iter_mut().zip(other_state.iter()) {
                        match (a, b) {
                            (AggState::Count(x), AggState::Count(y)) => *x += y,
                            (AggState::Sum(x), AggState::Sum(y)) => *x += y,
                            (AggState::CountDistinct(x), AggState::CountDistinct(y)) => {
                                x.merge(y)?;
                            }
                            (AggState::Quantiles(x), AggState::Quantiles(y)) => x.merge(y)?,
                            (
                                AggState::TopK { sketch: x, .. },
                                AggState::TopK { sketch: y, .. },
                            ) => x.merge(y)?,
                            (AggState::Frequency(x), AggState::Frequency(y)) => x.merge(y)?,
                            _ => {
                                return Err(SketchError::incompatible(
                                    "aggregate states out of order",
                                ))
                            }
                        }
                    }
                }
            }
        }
        self.rows_processed += other.rows_processed;
        self.dead_letters.absorb(&other.dead_letters, None);
        self.metrics.absorb(&other.metrics);
        Ok(())
    }

    /// Cuts a telemetry snapshot: the hot-path counters and batch-latency
    /// histogram plus point-in-time gauges. Metrics are cumulative over
    /// the engine's lifetime — [`flush_window`](Self::flush_window) resets
    /// aggregation state, not telemetry — and are excluded from
    /// checkpoints like the rest of the transient state.
    #[must_use]
    pub fn metrics(&self) -> sketches_obs::MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.add_gauge(names::GROUPS, self.num_groups() as u64);
        snap.add_gauge(names::STATE_BYTES, self.state_bytes() as u64);
        snap
    }

    /// Enables or disables metric recording (on by default). Disabling
    /// reduces the per-row telemetry cost to one branch.
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.metrics.enabled = enabled;
    }

    /// Installs the time source behind the batch-latency histogram.
    /// Tests inject a [`sketches_obs::ManualClock`] here so every
    /// timing-derived metric is deterministic.
    pub fn set_clock(&mut self, clock: std::sync::Arc<dyn sketches_obs::Clock>) {
        self.metrics.clock = clock;
    }

    /// Serializes the engine's durable state — config, spec, row counter,
    /// and every group's sketches — as a checkpoint payload (no envelope;
    /// [`crate::Snapshot`] adds magic/version/checksum framing). Groups are
    /// written in ascending key order, so the encoding is **canonical**:
    /// re-serializing a restored engine yields byte-identical output.
    ///
    /// Transient fault state (policy, dead letters, armed injectors, any
    /// in-flight undo log) is deliberately excluded: a checkpoint captures
    /// the aggregation state, not the drill harness around it.
    pub(crate) fn write_state_payload(&self, w: &mut ByteWriter) {
        write_config(&self.config, w);
        write_spec(&self.spec, w);
        w.put_u64(self.rows_processed);
        // lint: sorted-iteration-ok(keys collected then fully sorted below; emission order is the sorted order)
        let mut keys: Vec<&Vec<Value>> = self.groups.keys().collect();
        keys.sort();
        w.put_usize(keys.len());
        for key in keys {
            for v in key {
                write_value(v, w);
            }
            let state = &self.groups[key];
            for st in state.iter() {
                write_agg_state(st, w);
            }
        }
    }

    /// Restores an engine from [`write_state_payload`](Self::write_state_payload)
    /// bytes. Structure is validated end to end: config and spec go through
    /// their normal constructors, group keys must be strictly ascending
    /// (canonical order), and every sketch's parameters must agree with the
    /// config they were allegedly built from.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on any structural violation.
    pub(crate) fn read_state_payload(r: &mut ByteReader<'_>) -> SketchResult<Self> {
        let config = read_config(r)?;
        let spec = read_spec(r)?;
        let mut engine = Self::with_config(spec, config)
            .map_err(|e| SketchError::corrupted(format!("checkpoint config rejected: {e}")))?;
        let rows_processed = r.u64()?;
        let num_groups = r.array_len(1, "engine groups")?;
        let key_len = engine.spec.group_by.len();
        let aggregates = engine.spec.aggregates.clone();
        let mut prev_key: Option<Vec<Value>> = None;
        for _ in 0..num_groups {
            let mut key = Vec::with_capacity(key_len);
            for _ in 0..key_len {
                key.push(read_value(r)?);
            }
            if prev_key.as_ref().is_some_and(|p| *p >= key) {
                return Err(SketchError::corrupted(
                    "engine groups not in strictly ascending key order",
                ));
            }
            let state = aggregates
                .iter()
                .map(|agg| read_agg_state(agg, &engine.config, r))
                .collect::<SketchResult<Arc<[AggState]>>>()?;
            prev_key = Some(key.clone());
            engine.groups.insert(key, state);
        }
        engine.rows_processed = rows_processed;
        Ok(engine)
    }

    /// Total sketch memory across groups — a function of the state alone:
    /// every aggregate is charged by what it retains, never by allocator
    /// capacity, so a live engine, a clone, a published snapshot and a
    /// restored engine holding the same state all read the same number.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.groups
            .values()
            .flat_map(|state| {
                state.iter().map(|st| match st {
                    AggState::Count(_) | AggState::Sum(_) => 8,
                    AggState::CountDistinct(h) => h.space_bytes(),
                    AggState::Quantiles(q) => q.retained() * std::mem::size_of::<f64>(),
                    AggState::TopK { sketch, .. } => sketch.space_bytes(),
                    AggState::Frequency(sf) => sf.space_bytes(),
                })
            })
            .sum()
    }
}

/// Serializes an [`EngineConfig`] (fixed-width fields, canonical).
fn write_config(config: &EngineConfig, w: &mut ByteWriter) {
    w.put_u32(config.hll_precision);
    w.put_usize(config.kll_k);
    w.put_usize(config.space_saving_counters);
    w.put_usize(config.sf_fat_width);
    w.put_usize(config.sf_slim_width);
    w.put_u64(config.seed);
}

/// Restores an [`EngineConfig`]. Range validation happens downstream, when
/// the config is fed through [`SketchEngine::with_config`].
fn read_config(r: &mut ByteReader<'_>) -> SketchResult<EngineConfig> {
    Ok(EngineConfig {
        hll_precision: r.u32()?,
        kll_k: r.usize()?,
        space_saving_counters: r.usize()?,
        sf_fat_width: r.usize()?,
        sf_slim_width: r.usize()?,
        seed: r.u64()?,
    })
}

/// Serializes a [`QuerySpec`]: grouping fields, then tagged aggregates.
pub(crate) fn write_spec(spec: &QuerySpec, w: &mut ByteWriter) {
    w.put_usize(spec.group_by.len());
    for &f in &spec.group_by {
        w.put_usize(f);
    }
    w.put_usize(spec.aggregates.len());
    for agg in &spec.aggregates {
        match agg {
            Aggregate::Count => w.put_u8(0),
            Aggregate::Sum { field } => {
                w.put_u8(1);
                w.put_usize(*field);
            }
            Aggregate::CountDistinct { field } => {
                w.put_u8(2);
                w.put_usize(*field);
            }
            Aggregate::Quantiles { field } => {
                w.put_u8(3);
                w.put_usize(*field);
            }
            Aggregate::TopK { field, k } => {
                w.put_u8(4);
                w.put_usize(*field);
                w.put_usize(*k);
            }
            Aggregate::Frequency { field } => {
                w.put_u8(5);
                w.put_usize(*field);
            }
        }
    }
}

/// Restores a [`QuerySpec`], re-running its constructor validation.
pub(crate) fn read_spec(r: &mut ByteReader<'_>) -> SketchResult<QuerySpec> {
    let num_group_by = r.array_len(8, "spec group-by fields")?;
    let mut group_by = Vec::with_capacity(num_group_by);
    for _ in 0..num_group_by {
        group_by.push(r.usize()?);
    }
    let num_aggs = r.array_len(1, "spec aggregates")?;
    let mut aggregates = Vec::with_capacity(num_aggs);
    for _ in 0..num_aggs {
        aggregates.push(match r.u8()? {
            0 => Aggregate::Count,
            1 => Aggregate::Sum { field: r.usize()? },
            2 => Aggregate::CountDistinct { field: r.usize()? },
            3 => Aggregate::Quantiles { field: r.usize()? },
            4 => Aggregate::TopK {
                field: r.usize()?,
                k: r.usize()?,
            },
            5 => Aggregate::Frequency { field: r.usize()? },
            tag => {
                return Err(SketchError::corrupted(format!(
                    "unknown aggregate tag {tag} (expected 0..=5)"
                )));
            }
        });
    }
    QuerySpec::new(group_by, aggregates)
        .map_err(|e| SketchError::corrupted(format!("checkpoint spec rejected: {e}")))
}

/// Serializes one aggregate's state. No variant tag is needed: the spec
/// (serialized in the same payload) fixes which variant sits at each
/// position.
fn write_agg_state(st: &AggState, w: &mut ByteWriter) {
    match st {
        AggState::Count(c) => w.put_u64(*c),
        AggState::Sum(s) => w.put_f64(*s),
        AggState::CountDistinct(h) => h.write_state(w),
        AggState::Quantiles(q) => q.write_state(w),
        AggState::TopK { sketch, .. } => sketch.write_state_with(w, write_value),
        AggState::Frequency(sf) => sf.write_state(w),
    }
}

/// Restores one aggregate's state against the spec's aggregate at the same
/// position, cross-validating every sketch parameter against the config it
/// was allegedly built from — a decoded sketch with the wrong precision,
/// seed, `k`, or capacity is corruption, not a different-but-valid sketch.
fn read_agg_state(
    agg: &Aggregate,
    config: &EngineConfig,
    r: &mut ByteReader<'_>,
) -> SketchResult<AggState> {
    Ok(match agg {
        Aggregate::Count => AggState::Count(r.u64()?),
        Aggregate::Sum { .. } => AggState::Sum(r.f64()?),
        Aggregate::CountDistinct { .. } => {
            let h = HyperLogLogPlusPlus::read_state(r)?;
            if h.precision() != config.hll_precision || h.seed() != config.seed {
                return Err(SketchError::corrupted(
                    "COUNT DISTINCT sketch parameters disagree with the engine config",
                ));
            }
            AggState::CountDistinct(h)
        }
        Aggregate::Quantiles { .. } => {
            let q = KllSketch::read_state(r)?;
            if q.k() != config.kll_k {
                return Err(SketchError::corrupted(
                    "QUANTILES sketch k disagrees with the engine config",
                ));
            }
            AggState::Quantiles(q)
        }
        Aggregate::TopK { k, .. } => {
            let sketch = SpaceSaving::read_state_with(r, read_value)?;
            if sketch.k() != config.space_saving_counters {
                return Err(SketchError::corrupted(
                    "TOP-K sketch capacity disagrees with the engine config",
                ));
            }
            AggState::TopK { sketch, k: *k }
        }
        Aggregate::Frequency { .. } => {
            let sf = SfSketch::read_state(r)?;
            if sf.fat_width() != config.sf_fat_width
                || sf.slim_width() != config.sf_slim_width
                || sf.depth() != SF_DEPTH
                || sf.seed() != config.seed
            {
                return Err(SketchError::corrupted(
                    "FREQUENCY sketch parameters disagree with the engine config",
                ));
            }
            AggState::Frequency(sf)
        }
    })
}

#[cfg(test)]
#[allow(
    clippy::useless_vec,
    reason = "`row!` expands to `vec![...]`, which tests also pass to slice-taking query methods"
)]
mod tests {
    use super::*;
    use crate::row;

    fn spec() -> QuerySpec {
        QuerySpec::new(
            vec![0], // GROUP BY field 0
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

    #[test]
    fn basic_group_by_pipeline() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        // Group "a": users 0..100 each with value = user index.
        for u in 0..100u64 {
            eng.process(&row!["a", u, u as f64]).unwrap();
            eng.process(&row!["a", u, u as f64]).unwrap(); // duplicate user
        }
        // Group "b": single user, 10 rows.
        for _ in 0..10 {
            eng.process(&row!["b", 7u64, 1.0f64]).unwrap();
        }
        assert_eq!(eng.num_groups(), 2);
        assert_eq!(eng.rows_processed(), 210);

        let a = eng.report(&row!["a"]).unwrap().unwrap();
        match &a[0] {
            AggregateResult::Count(c) => assert_eq!(*c, 200),
            other => panic!("unexpected {other:?}"),
        }
        match &a[1] {
            AggregateResult::Sum(s) => assert_eq!(*s, 2.0 * (0..100).sum::<u64>() as f64),
            other => panic!("unexpected {other:?}"),
        }
        match &a[2] {
            AggregateResult::CountDistinct(d) => {
                assert!((d - 100.0).abs() / 100.0 < 0.05, "distinct {d}");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &a[3] {
            AggregateResult::Quantiles { p50, p99, .. } => {
                assert!((*p50 - 50.0).abs() < 8.0, "p50 {p50}");
                assert!(*p99 > 90.0, "p99 {p99}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let b = eng.report(&row!["b"]).unwrap().unwrap();
        match &b[4] {
            AggregateResult::TopK(top) => {
                assert_eq!(top[0].0, Value::U64(7));
                assert_eq!(top[0].1, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(eng.report(&row!["zzz"]).unwrap().is_none());
    }

    #[test]
    fn frequency_aggregate_reports_and_estimates() {
        let spec = QuerySpec::new(
            vec![0],
            vec![Aggregate::Count, Aggregate::Frequency { field: 1 }],
        )
        .unwrap();
        let mut eng = SketchEngine::new(spec).unwrap();
        for i in 0..3_000u64 {
            eng.process(&row!["g", i % 100]).unwrap();
        }
        let report = eng.report(&row!["g"]).unwrap().unwrap();
        assert_eq!(report[1], AggregateResult::Frequency { total: 3_000 });
        // One-sided point query on the fat side.
        let est = eng.estimate(&row!["g"], &Value::U64(7)).unwrap().unwrap();
        assert!(est >= 30, "estimate {est} below true count 30");
        assert!(eng
            .estimate(&row!["missing"], &Value::U64(7))
            .unwrap()
            .is_none());
        // Specs without FREQUENCY reject point queries with a typed error.
        let plain =
            SketchEngine::new(QuerySpec::new(vec![0], vec![Aggregate::Count]).unwrap()).unwrap();
        assert!(plain.estimate(&row!["g"], &Value::U64(7)).is_err());
    }

    #[test]
    fn rejects_short_rows_and_bad_types() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        assert!(eng.process(&row!["a"]).is_err());
        assert!(eng.process(&row!["a", 1u64, "not-a-number"]).is_err());
    }

    #[test]
    fn many_groups_space_stays_bounded_per_group() {
        let mut eng = SketchEngine::new(
            QuerySpec::new(vec![0], vec![Aggregate::CountDistinct { field: 1 }]).unwrap(),
        )
        .unwrap();
        for g in 0..1_000u64 {
            for u in 0..50u64 {
                eng.process(&row![g, g * 1_000 + u]).unwrap();
            }
        }
        assert_eq!(eng.num_groups(), 1_000);
        let per_group = eng.state_bytes() / 1_000;
        // Sparse HLL++ with 50 items ≈ hundreds of bytes, not the 4 KiB
        // dense array (and certainly not 50 × 8-byte ids each).
        assert!(per_group < 2_048, "per-group bytes {per_group}");
    }

    #[test]
    fn merge_matches_single_engine() {
        let spec = QuerySpec::new(
            vec![0],
            vec![Aggregate::Count, Aggregate::CountDistinct { field: 1 }],
        )
        .unwrap();
        let mut whole = SketchEngine::new(spec.clone()).unwrap();
        let mut shard_a = SketchEngine::new(spec.clone()).unwrap();
        let mut shard_b = SketchEngine::new(spec).unwrap();
        for i in 0..10_000u64 {
            let r = row![i % 7, i % 1_000];
            whole.process(&r).unwrap();
            if i % 2 == 0 {
                shard_a.process(&r).unwrap();
            } else {
                shard_b.process(&r).unwrap();
            }
        }
        shard_a.merge(&shard_b).unwrap();
        assert_eq!(shard_a.rows_processed(), whole.rows_processed());
        for g in 0..7u64 {
            let merged = shard_a.report(&row![g]).unwrap().unwrap();
            let single = whole.report(&row![g]).unwrap().unwrap();
            // Counts exact-equal; distinct estimates identical because the
            // sketches share seeds.
            assert_eq!(merged[0], single[0]);
            assert_eq!(merged[1], single[1]);
        }
    }

    #[test]
    fn window_flush_resets() {
        let mut eng =
            SketchEngine::new(QuerySpec::new(vec![0], vec![Aggregate::Count]).unwrap()).unwrap();
        eng.process(&row!["x"]).unwrap();
        eng.process(&row!["y"]).unwrap();
        let window = eng.flush_window().unwrap();
        assert_eq!(window.len(), 2);
        assert_eq!(eng.num_groups(), 0);
        assert_eq!(eng.rows_processed(), 0);
    }

    #[test]
    fn merge_rejects_spec_mismatch() {
        let a = QuerySpec::new(vec![0], vec![Aggregate::Count]).unwrap();
        let b = QuerySpec::new(vec![1], vec![Aggregate::Count]).unwrap();
        let mut ea = SketchEngine::new(a).unwrap();
        let eb = SketchEngine::new(b).unwrap();
        assert!(ea.merge(&eb).is_err());
    }

    #[test]
    fn topk_k_exceeding_counters_rejected() {
        let spec = QuerySpec::new(vec![0], vec![Aggregate::TopK { field: 1, k: 1000 }]).unwrap();
        assert!(SketchEngine::new(spec).is_err());
    }

    fn fault_rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|i| row![i % 5, i % 31, (i % 100) as f64])
            .collect()
    }

    #[test]
    fn poison_row_fails_batch_and_rolls_back() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.process_batch(&fault_rows(100)).unwrap();
        let before = eng.to_snapshot_bytes();

        let mut batch = fault_rows(50);
        batch.insert(20, row![0u64, 1u64, "not-a-number"]);
        let err = eng.process_batch(&batch).unwrap_err();
        assert_eq!(err.row, Some(20));
        assert_eq!(err.shard, None);
        assert!(matches!(err.cause, BatchCause::Row(_)));
        // Torn-batch guarantee: the 20 rows ingested before the poison row
        // were rolled back — state is byte-identical to pre-batch.
        assert_eq!(eng.to_snapshot_bytes(), before);
        assert_eq!(eng.rows_processed(), 100);

        // The same batch minus the poison row lands cleanly.
        batch.remove(20);
        let summary = eng.process_batch(&batch).unwrap();
        assert_eq!(summary.rows_ingested, 50);
        assert_eq!(summary.rows_quarantined, 0);
        assert_eq!(eng.rows_processed(), 150);
    }

    #[test]
    fn quarantine_diverts_poison_rows_and_bounds_samples() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.set_fault_policy(FaultPolicy::Quarantine { max_samples: 2 });
        let mut batch = fault_rows(60);
        batch.insert(5, row![9u64]); // short
        batch.insert(25, row![0u64, 1u64, "bad"]); // non-numeric SUM field
        batch.insert(40, row![1u64, 2u64, "bad"]);
        let summary = eng.process_batch(&batch).unwrap();
        assert_eq!(summary.rows_ingested, 60);
        assert_eq!(summary.rows_quarantined, 3);
        assert_eq!(eng.dead_letters().count(), 3);
        assert_eq!(eng.dead_letters().samples().len(), 2);
        assert_eq!(eng.dead_letters().samples()[0].row_index, 5);

        // The quarantined rows left no trace in sketch state: a clean
        // engine fed only the good rows is byte-identical.
        let mut clean = SketchEngine::new(spec()).unwrap();
        clean.set_fault_policy(FaultPolicy::Quarantine { max_samples: 2 });
        clean.process_batch(&fault_rows(60)).unwrap();
        assert_eq!(eng.to_snapshot_bytes(), clean.to_snapshot_bytes());
    }

    #[test]
    fn injected_panic_is_contained_rolled_back_and_retryable() {
        crate::fault::silence_injected_panics();
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.process_batch(&fault_rows(30)).unwrap();
        let before = eng.to_snapshot_bytes();

        // The injector counts attempts from when it is armed, so attempt 7
        // is row 7 of the next batch.
        eng.arm_faults(FaultInjector::new().at(7, FaultKind::Panic));
        let batch = fault_rows(40);
        let err = eng.process_batch(&batch).unwrap_err();
        assert_eq!(err.row, Some(7));
        match &err.cause {
            BatchCause::WorkerPanic(msg) => {
                assert!(msg.contains(crate::fault::INJECTED_PANIC_MARKER), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert_eq!(eng.to_snapshot_bytes(), before);

        // The attempt counter was NOT rewound, so the retry sails past the
        // transient fault and converges with a never-faulted engine.
        eng.process_batch(&batch).unwrap();
        let mut baseline = SketchEngine::new(spec()).unwrap();
        baseline.process_batch(&fault_rows(30)).unwrap();
        baseline.process_batch(&batch).unwrap();
        eng.disarm_faults();
        assert_eq!(eng.to_snapshot_bytes(), baseline.to_snapshot_bytes());
    }

    #[test]
    fn injected_error_fails_batch_then_retry_recovers() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.arm_faults(FaultInjector::new().at(3, FaultKind::Error));
        let batch = fault_rows(10);
        let err = eng.process_batch(&batch).unwrap_err();
        assert_eq!(err.row, Some(3));
        assert_eq!(eng.rows_processed(), 0);
        eng.process_batch(&batch).unwrap();
        eng.disarm_faults();

        let mut baseline = SketchEngine::new(spec()).unwrap();
        baseline.process_batch(&batch).unwrap();
        assert_eq!(eng.to_snapshot_bytes(), baseline.to_snapshot_bytes());
    }

    #[test]
    fn injected_error_under_quarantine_is_diverted() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.set_fault_policy(FaultPolicy::Quarantine {
            max_samples: crate::fault::DEFAULT_MAX_SAMPLES,
        });
        eng.arm_faults(FaultInjector::new().at(4, FaultKind::Error));
        let summary = eng.process_batch(&fault_rows(10)).unwrap();
        assert_eq!(summary.rows_ingested, 9);
        assert_eq!(summary.rows_quarantined, 1);
        assert_eq!(eng.dead_letters().samples()[0].row_index, 4);
    }
}
