//! What the two sharded topologies share, written once.
//!
//! [`ShardedEngine`](crate::ShardedEngine) (scoped threads per batch) and
//! [`ConcurrentEngine`](crate::ConcurrentEngine) (long-lived workers,
//! published snapshots) differ only in *where the shards live*. Everything
//! else is here:
//!
//! * **The batch protocol** — [`Router`] owns the router-level state
//!   (query spec, poison-row policy, router dead letters, batch metrics)
//!   and the three protocol steps around the topology-specific middle:
//!   [`prevalidate`](Router::prevalidate) arity under
//!   [`FaultPolicy::FailBatch`], [`partition`](Router::partition) the
//!   batch into one row-index list per shard in a single pass, and — after
//!   the topology has run each list through [`worker_ingest`] on its
//!   shard — [`settle`](Router::settle): fold the outcomes, have the
//!   topology commit or roll back **all** shards, and attribute a failure
//!   to the earliest failing row.
//! * **The read side** — every accessor that spans shards is a function
//!   over a borrowed slice of them, generic in how they are held
//!   (`&[SketchEngine]` in the sharded engine, the `Arc`s a
//!   [`ReadHandle`](crate::ReadHandle) clones out of the publish slots).

use std::borrow::Borrow;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sketches_core::SketchError;
use sketches_hash::{hash_item, mix64};
use sketches_obs::MetricsSnapshot;

use crate::engine::SketchEngine;
use crate::fault::{
    panic_message, BatchCause, BatchError, BatchSummary, DeadLetters, FaultPolicy, QuarantinedRow,
};
use crate::metrics::{names, EngineMetrics};
use crate::query::QuerySpec;
use crate::value::{Row, Value};

/// Seed of the shard-routing hash. Distinct from every sketch seed so the
/// placement of groups is independent of sketch randomness.
const ROUTE_SEED: u64 = 0x0005_AAED_0C0D;

/// The shard that owns a group among `num_shards`, from an order-sensitive
/// hash of its key values — the one placement rule, so both topologies put
/// every group on the same shard for a given shard count (which is what
/// lets snapshots cross topologies).
pub(crate) fn shard_of<'a>(key: impl IntoIterator<Item = &'a Value>, num_shards: usize) -> usize {
    let mut acc = ROUTE_SEED;
    for v in key {
        acc = mix64(acc ^ hash_item(v, ROUTE_SEED));
    }
    (acc % num_shards as u64) as usize
}

/// What one shard worker did with its slice of the batch.
pub(crate) struct WorkerOutcome {
    pub(crate) ingested: usize,
    pub(crate) quarantined: usize,
    /// `Some((row, cause))` if the worker failed (its shard still holds an
    /// undo log; [`Router::settle`] decides commit vs rollback globally).
    pub(crate) failure: Option<(Option<usize>, BatchCause)>,
}

impl WorkerOutcome {
    /// The outcome standing in for a worker that never reported one (its
    /// thread panicked outside the ingest supervisor, or died).
    pub(crate) fn lost(message: String) -> Self {
        Self {
            ingested: 0,
            quarantined: 0,
            failure: Some((None, BatchCause::WorkerPanic(message))),
        }
    }
}

/// A batch split by owning shard.
pub(crate) struct Partition {
    /// Per shard, the indices of its rows in batch order.
    pub(crate) lists: Vec<Vec<usize>>,
    /// Rows too short to project a grouping key, diverted by the router
    /// under [`FaultPolicy::Quarantine`]. Staged here and recorded only by
    /// a committing [`Router::settle`] — batch atomicity covers dead
    /// letters too.
    pub(crate) quarantine: Vec<QuarantinedRow>,
}

/// Router-level state of a sharded topology and the batch protocol over
/// it. Row-level counters live in each shard; the router bumps the batch
/// counters and latency exactly once per batch (workers bypass the shards'
/// own `process_batch`, so nothing double-counts).
#[derive(Debug, Clone)]
pub(crate) struct Router {
    pub(crate) spec: QuerySpec,
    /// Poison-row policy, mirrored into every shard.
    pub(crate) fault_policy: FaultPolicy,
    /// Rows the router itself quarantined (never routable to a shard).
    pub(crate) dead: DeadLetters,
    pub(crate) metrics: EngineMetrics,
}

impl Router {
    pub(crate) fn new(spec: QuerySpec) -> Self {
        Self {
            spec,
            fault_policy: FaultPolicy::default(),
            dead: DeadLetters::default(),
            metrics: EngineMetrics::new(),
        }
    }

    /// Sets the router's half of the poison-row policy (the topology
    /// mirrors it into every shard).
    pub(crate) fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.fault_policy = policy;
        if let FaultPolicy::Quarantine { max_samples } = policy {
            self.dead.set_max_samples(max_samples);
        }
    }

    /// Folds another router's dead letters and metrics in (engine merge).
    pub(crate) fn absorb(&mut self, other: &Self) {
        self.dead.absorb(&other.dead, None);
        self.metrics.absorb(&other.metrics);
    }

    /// Counts a failed batch (and the contained panic, if that is its
    /// cause) and hands the error back for returning.
    pub(crate) fn count_failure(&mut self, err: BatchError) -> BatchError {
        if self.metrics.enabled {
            self.metrics.batches_rolled_back.inc();
            if matches!(err.cause, BatchCause::WorkerPanic(_)) {
                self.metrics.panics_contained.inc();
            }
        }
        err
    }

    /// Under [`FaultPolicy::FailBatch`] the router must project a grouping
    /// key from every row, so arity is validated for the whole batch up
    /// front — on a short row nothing is ingested at all.
    ///
    /// # Errors
    /// Names the first short row. Counted as a rollback for parity with
    /// the sequential engine, which would ingest up to it and roll back.
    pub(crate) fn prevalidate(&mut self, rows: &[Row]) -> Result<(), BatchError> {
        if !matches!(self.fault_policy, FaultPolicy::FailBatch) {
            return Ok(());
        }
        let max_field = self.spec.max_field();
        match rows.iter().position(|r| r.len() <= max_field) {
            None => Ok(()),
            Some(idx) => Err(self.count_failure(BatchError {
                row: Some(idx),
                shard: None,
                cause: BatchCause::Row(short_row()),
            })),
        }
    }

    /// Splits a batch into one row-index list per shard, in one pass.
    /// Workers get *indices* and borrow the rows, so routing clones
    /// nothing; a group's indices stay in batch order on its one shard.
    pub(crate) fn partition(&self, rows: &[Row], num_shards: usize) -> Partition {
        let max_field = self.spec.max_field();
        let mut lists: Vec<Vec<usize>> = (0..num_shards)
            .map(|_| Vec::with_capacity(rows.len() / num_shards + 1))
            .collect();
        let mut router_quarantine = Vec::new();
        for (idx, row) in rows.iter().enumerate() {
            if row.len() <= max_field {
                // `prevalidate` rejected short rows under FailBatch, so
                // reaching this branch means the policy is Quarantine.
                router_quarantine.push(QuarantinedRow {
                    row_index: idx,
                    shard: None,
                    reason: short_row(),
                    row: row.clone(),
                });
                continue;
            }
            let key = self.spec.group_by.iter().map(|&i| &row[i]);
            lists[shard_of(key, num_shards)].push(idx);
        }
        Partition {
            lists,
            quarantine: router_quarantine,
        }
    }

    /// Resolves a batch once every shard has reported (`outcomes[i]` is
    /// shard `i`'s): commit everywhere if no shard failed, roll back
    /// everywhere otherwise. `resolve(commit)` is the topology's "commit
    /// or roll back all shards"; a shard that finished its slice cleanly
    /// still rolls back if a sibling failed, so a torn batch is never
    /// visible.
    ///
    /// # Errors
    /// The earliest failing row across shards, then the lowest shard
    /// (failures without a row index sort last) — or `resolve`'s own
    /// error, passed through, when the topology could not reach every
    /// shard.
    pub(crate) fn settle(
        &mut self,
        outcomes: Vec<WorkerOutcome>,
        quarantine: Vec<QuarantinedRow>,
        resolve: impl FnOnce(bool) -> Result<(), BatchError>,
    ) -> Result<BatchSummary, BatchError> {
        let mut summary = BatchSummary::default();
        let mut failures: Vec<(usize, Option<usize>, BatchCause)> = Vec::new();
        for (shard, out) in outcomes.into_iter().enumerate() {
            summary.rows_ingested += out.ingested;
            summary.rows_quarantined += out.quarantined;
            if let Some((row, cause)) = out.failure {
                failures.push((shard, row, cause));
            }
        }
        resolve(failures.is_empty())?;
        failures.sort_by_key(|&(shard, row, _)| (row.unwrap_or(usize::MAX), shard));
        if let Some((shard, row, cause)) = failures.into_iter().next() {
            return Err(self.count_failure(BatchError {
                row,
                shard: Some(shard),
                cause,
            }));
        }
        if self.metrics.enabled {
            self.metrics.batches_committed.inc();
            self.metrics.rows_quarantined.add(quarantine.len() as u64);
        }
        summary.rows_quarantined += quarantine.len();
        for q in quarantine {
            self.dead.record(q);
        }
        Ok(summary)
    }
}

fn short_row() -> SketchError {
    SketchError::invalid("row", "row shorter than query fields")
}

/// One shard's ingest of its index list, supervised: panics inside
/// [`SketchEngine::ingest_row`] (including injected ones) are contained
/// here and reported as a [`BatchCause::WorkerPanic`], leaving the shard's
/// undo log intact so [`Router::settle`] can roll the whole batch back.
/// The list is always run to its end or its first failure — what a shard
/// attempts never depends on how a sibling fared, so fault-injector
/// attempt counters are deterministic.
pub(crate) fn worker_ingest(
    shard: &mut SketchEngine,
    rows: &[Row],
    indices: &[usize],
) -> WorkerOutcome {
    shard.begin_batch();
    let mut ingested = 0usize;
    let mut quarantined = 0usize;
    let current = Cell::new(None);
    // lint: panic-boundary(worker supervisor: contains shard panics so the batch can roll back with a typed error)
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<(), (usize, SketchError)> {
        for &idx in indices {
            current.set(Some(idx));
            match shard.ingest_row(idx, &rows[idx]) {
                Ok(true) => ingested += 1,
                Ok(false) => quarantined += 1,
                Err(e) => return Err((idx, e)),
            }
        }
        Ok(())
    }));
    let failure = match caught {
        Ok(Ok(())) => None,
        Ok(Err((idx, e))) => Some((Some(idx), BatchCause::Row(e))),
        Err(payload) => Some((
            current.get(),
            BatchCause::WorkerPanic(panic_message(payload.as_ref())),
        )),
    };
    WorkerOutcome {
        ingested,
        quarantined,
        failure,
    }
}

/// All group keys across `shards`, in ascending key order — the same
/// deterministic listing contract as [`SketchEngine::groups`].
pub(crate) fn groups<S: Borrow<SketchEngine>>(shards: &[S]) -> Vec<&Vec<Value>> {
    // lint: sorted-iteration-ok(per-shard listings collected then fully sorted by the key total order below)
    let mut keys: Vec<&Vec<Value>> = shards.iter().flat_map(|s| s.borrow().groups()).collect();
    keys.sort();
    keys
}

/// Total groups across `shards` (groups never straddle shards).
pub(crate) fn num_groups<S: Borrow<SketchEngine>>(shards: &[S]) -> usize {
    shards.iter().map(|s| s.borrow().num_groups()).sum()
}

/// Total rows processed across `shards`.
pub(crate) fn rows_processed<S: Borrow<SketchEngine>>(shards: &[S]) -> u64 {
    shards.iter().map(|s| s.borrow().rows_processed()).sum()
}

/// Total sketch memory across `shards`, in bytes.
pub(crate) fn state_bytes<S: Borrow<SketchEngine>>(shards: &[S]) -> usize {
    shards.iter().map(|s| s.borrow().state_bytes()).sum()
}

/// The aggregated dead-letter view: the router's own quarantine (`all`,
/// taken by value as the accumulator) plus every shard's, with samples
/// stamped with their shard index.
pub(crate) fn dead_letters<S: Borrow<SketchEngine>>(
    mut all: DeadLetters,
    shards: &[S],
) -> DeadLetters {
    for (i, shard) in shards.iter().enumerate() {
        all.absorb(&shard.borrow().dead_letters(), Some(i));
    }
    all
}

/// A telemetry snapshot merged across the router block and every shard:
/// counters and gauges add, latency histograms KLL-merge (lossless — no
/// averaged percentiles), so the totals are exactly what a sequential
/// engine fed the same stream would report. Also exports one
/// `shard_rows_routed{shard="i"}` gauge per shard, making routing skew
/// directly observable.
pub(crate) fn metrics<S: Borrow<SketchEngine>>(
    router: &EngineMetrics,
    shards: &[S],
) -> MetricsSnapshot {
    let mut snap = router.snapshot();
    for (i, shard) in shards.iter().enumerate() {
        let shard = shard.borrow();
        #[expect(
            clippy::expect_used,
            reason = "every obs histogram shares one fixed (k, seed), so snapshot merge cannot fail"
        )]
        snap.merge(&shard.metrics())
            .expect("obs snapshots share one KLL shape");
        snap.add_gauge(&names::shard_rows_routed(i), shard.rows_processed());
    }
    snap.add_gauge(names::SHARDS, shards.len() as u64);
    snap
}
