//! Concurrent serving: ingest and query at the same time.
//!
//! [`ShardedEngine`] parallelizes *one batch* but still stops the world
//! around it — `process_batch` takes `&mut self`, so `report()` cannot run
//! until the batch finishes. [`ConcurrentEngine`] removes that coupling
//! with the recipe of "Fast Concurrent Data Sketches" (Rinberg et al.),
//! generalized from one sketch (`sketches-concurrent`'s
//! `BufferedConcurrent`) to whole per-shard GROUP BY state: readers work
//! on immutable snapshots, each writer owns its shard, and nothing
//! dispatches between them.
//!
//! * **Long-lived shard workers.** N worker threads, each *owning* a
//!   complete [`SketchEngine`] shard for the engine's whole lifetime
//!   (not scoped per batch). A worker is a thread that runs closures on
//!   its shard, in the order they arrive — there is no command
//!   vocabulary to extend. "Hand each worker its list" and "tell every
//!   worker to commit or roll back" are both `Workers::ask`, like every
//!   other thing a worker is ever asked to do; a worker publishes, when
//!   the closure changed visible state, *before* it replies.
//! * **A lock, not a coordinator thread.** The router and the worker pool
//!   sit behind one mutex. Every submit and every mutator takes it on the
//!   calling thread and runs there — a batch runs the protocol it shares
//!   with [`ShardedEngine`]: the same prevalidation, partition into
//!   per-shard row-index lists, supervised ingest, and
//!   commit-or-roll-back-all — so per-group results stay *identical* to
//!   the sequential engine, and lock order is apply order.
//! * **Submit/poll ingest.** [`ConcurrentEngine::submit_batch`] takes
//!   `&self`, so ingest and queries interleave freely, and returns a
//!   [`BatchTicket`] once the batch has committed or rolled back;
//!   [`BatchTicket::poll`] / [`BatchTicket::wait`] hand back the same
//!   [`BatchSummary`] / [`BatchError`] the synchronous engines report,
//!   with batch-level rollback and quarantine semantics preserved.
//! * **One published snapshot per shard, with epochs.** After every
//!   committed batch (and every flush/merge) a worker publishes the table
//!   it ingests into, as an immutable `Arc<SketchEngine>`, into a shared
//!   slot and bumps the shard's epoch counter — the only object writer
//!   and readers share. Two tables per shard: the published one, and the
//!   worker's, which is the next snapshot. They share every group's state
//!   by pointer; the worker copies a group the first time a later batch
//!   writes it, never in place (see [`SketchEngine`]). A commit costs what
//!   its batch touched: the snapshot a publish replaces becomes the
//!   worker's table and, unless a reader still holds it, is brought up to
//!   date from the undo log's keys (see `publish`). Every read goes through
//!   a [`ReadHandle`]: it clones the published `Arc`s out of their slots and
//!   never touches worker state, so reads and ingest never wait on each other.
//! * **Slim views cut on demand.** [`ReadHandle::query_view`] cuts the
//!   [`EngineView`] — the read half of the read/write split — from those
//!   same published snapshots when asked, after taking the `Arc`s out of
//!   their slots, and unions the per-shard cuts (exact: every group lives
//!   in one shard). A view read pays for its own cut; a commit pays
//!   nothing for views nobody fetches.
//!
//! # Consistency model
//!
//! Reads serve the **latest published epoch**: a prefix of the submitted
//! stream. The lag is at most one batch per submitting thread — the one
//! holding the lock and those waiting for it — and is exported as the
//! `publish_lag_rows` gauge. A batch is published *before*
//! [`ConcurrentEngine::submit_batch`] returns, so every read after it
//! observes that batch. At quiescence (no submit in progress) reports are
//! **byte-identical** to a [`SketchEngine`] fed the same rows, and
//! snapshots are byte-identical to a [`ShardedEngine`] with the same
//! shard count — experiment E25 asserts both.
//!
//! # Failure model
//!
//! Worker panics during ingest are contained per batch (the shared
//! `worker_ingest` supervisor) and roll the whole batch back. If a
//! worker *thread* dies outright, or a panic escapes an operation running
//! under the lock, the engine is **poisoned**
//! ([`ConcurrentEngine::is_poisoned`]): later submits resolve to a typed
//! [`BatchError`], mutating calls become typed errors or no-ops — all
//! without taking the lock — and reads keep serving the last published
//! epoch: degraded to read-only rather than wedged.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel;
use parking_lot::{Mutex, RwLock};
use sketches_core::{SketchError, SketchResult};
use sketches_obs::{Clock, MetricsSnapshot, Stage, TraceContext};

use crate::engine::{EngineConfig, SketchEngine, Touched};
use crate::fault::{
    BatchCause, BatchError, BatchSummary, DeadLetters, FaultInjector, FaultPolicy,
    INJECTED_PANIC_MARKER,
};
use crate::metrics::names;
use crate::query::{AggregateResult, QuerySpec};
use crate::router::{self, worker_ingest, Partition, Router, WorkerOutcome};
use crate::sharded::{fresh_shards, ShardedEngine};
use crate::snapshot::{self, SnapshotKind};
use crate::value::{Row, Value};
use crate::view::{merged_view, EngineView};

/// Capacity of each worker's op channel. Ops are coarse (one per batch
/// phase), so a small buffer keeps the submitting thread from blocking on
/// hand-off without queueing meaningful work.
const WORKER_CMD_DEPTH: usize = 4;

/// What every submit and mutating call reports once the engine is
/// poisoned: a shard worker died, or a panic escaped a coordinator
/// operation (see [`ConcurrentEngine::control`]).
const POISONED: &str = "concurrent engine poisoned: a shard worker or a coordinator operation died";

fn poisoned_batch_error() -> BatchError {
    BatchError {
        row: None,
        shard: None,
        cause: BatchCause::WorkerPanic(POISONED.to_string()),
    }
}

fn poisoned_sketch_error() -> SketchError {
    SketchError::incompatible(POISONED)
}

/// Read-side state shared between the engine handle, its read handles,
/// and the workers. Everything here is either atomic or swapped under a
/// lock held only for the pointer exchange.
#[derive(Debug)]
struct Shared {
    /// Latest published snapshot per shard. The write lock is held only
    /// for an `Arc` swap, the read lock only for an `Arc` clone, so
    /// readers and publishers exchange a pointer, never sketch work.
    published: Vec<RwLock<Arc<SketchEngine>>>,
    /// Publish epoch per shard: bumped after each snapshot swap.
    epochs: Vec<AtomicU64>,
    /// Latest published copy of the coordinator's [`Router`] (dead
    /// letters, metrics, policy), refreshed after every operation.
    router: RwLock<Router>,
    /// Rows handed to `submit_batch` so far.
    rows_submitted: AtomicU64,
    /// Rows whose batch has resolved (committed *or* rolled back).
    rows_resolved: AtomicU64,
    /// Submit calls waiting for or holding the coordinator lock.
    queue_depth: AtomicU64,
    /// Snapshot publishes across all shards (commit, flush, merge).
    snapshots_published: AtomicU64,
    /// Those of them that copied the shard's whole group table.
    snapshots_copied: AtomicU64,
    /// Set when a worker dies or a panic escapes a coordinator operation.
    poisoned: AtomicBool,
}

/// What a shard worker runs: a closure over the table it owns and the
/// worker's own publish step (see [`Workers::ask`], which builds them all).
type ShardOp =
    Box<dyn FnOnce(&mut Arc<SketchEngine>, &dyn Fn(&mut Arc<SketchEngine>, Changed)) + Send>;

/// What a shard op changed of what readers see, for its worker to [`publish`]
/// before it answers: nothing (ingest under an open undo log, a rollback, a
/// setter), what one committed batch touched, or (flush, merge) any group.
enum Changed {
    No,
    Keys(Touched),
    All,
}

/// A resolved batch: the same summary/error the synchronous engines
/// report. [`ConcurrentEngine::submit_batch`] returns it once the batch
/// has committed (and published) or rolled back, so every method answers
/// at once.
#[derive(Debug)]
pub struct BatchTicket {
    result: Result<BatchSummary, BatchError>,
}

impl BatchTicket {
    /// The batch outcome, without blocking: always `Some`, and the same
    /// outcome on every call.
    pub fn poll(&mut self) -> Option<&Result<BatchSummary, BatchError>> {
        Some(&self.result)
    }

    /// The batch outcome.
    ///
    /// # Errors
    /// The batch's [`BatchError`] (poison row, injected fault, contained
    /// panic — the engine rolled back), or a `WorkerPanic` error if the
    /// engine was poisoned before or while the batch ran. The poisoned
    /// error is *indeterminate*: the batch may or may not have committed
    /// on every shard before the engine died.
    pub fn wait(self) -> Result<BatchSummary, BatchError> {
        self.result
    }

    /// The batch outcome, as [`wait`](Self::wait) returns it; never
    /// waits, so the timeout never elapses.
    ///
    /// # Errors
    /// Never `Err(self)`: the ticket is resolved when it is handed out.
    pub fn wait_timeout(
        self,
        _timeout: Duration,
    ) -> Result<Result<BatchSummary, BatchError>, Self> {
        Ok(self.result)
    }
}

/// A GROUP BY engine that serves queries *while* ingesting: long-lived
/// shard workers, a submit/poll batch API, and epoch-published immutable
/// snapshots for wait-free-style reads (see the module docs).
#[derive(Debug)]
pub struct ConcurrentEngine {
    /// The write side: every submit and mutator runs under this lock, on
    /// the calling thread (see [`control`](Self::control)). Boxed to keep
    /// the engine a handle-sized value.
    coordinator: Box<Mutex<Coordinator>>,
    /// The read side: every read accessor below delegates to it.
    reads: ReadHandle,
}

impl ConcurrentEngine {
    /// Creates a concurrent engine with default sketch parameters.
    ///
    /// # Errors
    /// Returns an error if `num_shards == 0` or the spec/config produce
    /// invalid sketches.
    pub fn new(spec: QuerySpec, num_shards: usize) -> SketchResult<Self> {
        Self::with_config(spec, EngineConfig::default(), num_shards)
    }

    /// Creates a concurrent engine with explicit sketch parameters (the
    /// same knobs as [`ShardedEngine::with_config`], so the two
    /// topologies are interchangeable).
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

    /// Assembles the engine around pre-built shards sharing one spec and
    /// config (fresh construction and snapshot restore share this path):
    /// publishes epoch-0 snapshots and spawns the workers.
    fn from_shards(shards: Vec<SketchEngine>) -> Self {
        let router = Router::new(shards[0].spec.clone());
        let shared = Arc::new(Shared {
            published: shards
                .iter()
                .map(|s| RwLock::new(Arc::new(s.clone())))
                .collect(),
            epochs: shards.iter().map(|_| AtomicU64::new(0)).collect(),
            router: RwLock::new(router.clone()),
            rows_submitted: AtomicU64::new(0),
            rows_resolved: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            snapshots_copied: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        });

        let mut workers = Workers {
            txs: Vec::with_capacity(shards.len()),
            handles: Vec::with_capacity(shards.len()),
            shared: Arc::clone(&shared),
        };
        for (shard_id, shard) in shards.into_iter().enumerate() {
            let (op_tx, op_rx) = channel::bounded::<ShardOp>(WORKER_CMD_DEPTH);
            workers.txs.push(op_tx);
            let worker_shared = Arc::clone(&shared);
            workers.handles.push(std::thread::spawn(move || {
                let poison_on_exit = Arc::clone(&worker_shared);
                // lint: panic-boundary(worker supervisor: a dying shard worker must poison the engine, not abort the process)
                let caught = catch_unwind(AssertUnwindSafe(move || {
                    worker_main(shard, shard_id, &worker_shared, &op_rx);
                }));
                if caught.is_err() {
                    poison_on_exit.poisoned.store(true, Ordering::Release);
                }
            }));
        }

        Self {
            coordinator: Box::new(Mutex::new(Coordinator { router, workers })),
            reads: ReadHandle { shared },
        }
    }

    /// Ingests a batch on the calling thread and returns its resolved
    /// ticket, **without** taking `&mut self`: ingest and queries
    /// interleave freely. Blocks until the batch has committed (and
    /// published) or rolled back, behind any submit or mutator already
    /// holding the coordinator lock.
    ///
    /// Batches are applied in lock order with the transactional
    /// semantics of [`ShardedEngine::process_batch`]: all-or-nothing,
    /// quarantine per [`FaultPolicy`], typed errors on failure.
    pub fn submit_batch(&self, rows: Vec<Row>) -> BatchTicket {
        self.submit_batch_traced(rows, TraceContext::disabled())
    }

    /// [`submit_batch`](Self::submit_batch) carrying a request's
    /// [`TraceContext`]: closes a `queue_wait` child span (submit to lock
    /// acquired) plus `engine_apply` and `publish` spans under the
    /// request's root, and records the same durations into the
    /// `stage_latency{stage=...}` histograms.
    pub fn submit_batch_traced(&self, rows: Vec<Row>, ctx: TraceContext) -> BatchTicket {
        let shared = &self.reads.shared;
        let n = rows.len() as u64;
        // One clock read before the lock, and only when someone will
        // consume it: the queue-wait stage needs the submit timestamp.
        // (An `Option` rather than a zero sentinel: a fresh
        // `sketches_obs::MonotonicClock` anchors at its first read, so a
        // legitimate reading can be 0.)
        let submitted_at = {
            let router = shared.router.read();
            if router.metrics.enabled || ctx.is_sampled() {
                Some(router.metrics.clock.now_nanos())
            } else {
                None
            }
        };
        shared.rows_submitted.fetch_add(n, Ordering::Relaxed);
        shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        let result = self
            .control(|c| {
                if let Some(submitted_at) = submitted_at {
                    let locked = c.router.metrics.clock.now_nanos();
                    if c.router.metrics.enabled {
                        c.router
                            .metrics
                            .stage_queue_wait
                            .record_nanos(locked.saturating_sub(submitted_at));
                    }
                    ctx.child(Stage::QueueWait, submitted_at, locked);
                }
                c.handle_ingest(rows, &ctx)
            })
            .unwrap_or_else(|| Err(poisoned_batch_error()));
        shared.rows_resolved.fetch_add(n, Ordering::Relaxed);
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        BatchTicket { result }
    }

    /// Whether a worker has died or a panic escaped a coordinator
    /// operation. A poisoned engine keeps serving reads from the last
    /// published epoch; every mutation resolves to a typed error.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.reads.is_poisoned()
    }

    /// A detached read handle over the published snapshots: the same
    /// read API as the engine (`report`, `groups`, metrics, snapshot
    /// bytes), but cloneable, shareable across threads, and valid even
    /// after the engine is poisoned *or dropped* — it keeps serving the
    /// last published epoch. This is the serving layer's read path.
    #[must_use]
    pub fn reader(&self) -> ReadHandle {
        self.reads.clone()
    }

    /// Drill hook: an injected panic under the coordinator lock (sudden
    /// death mid-operation, no worker shutdown), exactly what a crashing
    /// batch protocol looks like in production. The engine is poisoned
    /// before this returns; reads keep serving the last published epoch
    /// and every later mutation resolves to a typed error. Waits behind a
    /// batch that holds the lock. Pair with
    /// [`silence_injected_panics`](crate::silence_injected_panics) to keep
    /// drill output clean.
    pub fn inject_coordinator_panic(&self) {
        #[expect(
            clippy::panic,
            reason = "drill hook: deterministic injected coordinator death, contained by the control boundary which poisons the engine"
        )]
        self.control::<()>(|_| {
            panic!("{INJECTED_PANIC_MARKER}: injected coordinator crash (drill)")
        });
    }

    /// Runs `f` on the coordinator under its lock, on the calling thread,
    /// and returns what it returned: the one path behind every submit and
    /// every mutator, so lock order is apply order. The router is
    /// republished before the lock is released, so whatever `f` changed
    /// there (policy, clock, dead letters) is visible to reads and to the
    /// next submit. `None` on a poisoned engine — checked before the lock
    /// is taken and again once it is held — and when `f` panics, which
    /// poisons the engine before the lock is released.
    fn control<T>(&self, f: impl FnOnce(&mut Coordinator) -> T) -> Option<T> {
        if self.is_poisoned() {
            return None;
        }
        let mut coordinator = self.coordinator.lock();
        if self.is_poisoned() {
            return None;
        }
        // lint: panic-boundary(coordinator boundary: a panic under the lock poisons the engine instead of unwinding into the caller)
        let caught = catch_unwind(AssertUnwindSafe(|| {
            // lint: guard-scope(the lock exists to order batches and control ops; f waits only on shard workers, which never take it)
            let out = f(&mut coordinator);
            coordinator.publish_router();
            out
        }));
        if caught.is_err() {
            self.reads.shared.poisoned.store(true, Ordering::Release);
        }
        caught.ok()
    }

    /// The slim query-side view of the latest published epoch, cut on
    /// demand — see [`ReadHandle::query_view`].
    #[must_use]
    pub fn query_view(&self) -> EngineView {
        self.reads.query_view()
    }

    /// Reports the aggregates of one group from the latest published
    /// epoch (`None` if never seen there). Never blocked by in-flight
    /// ingest; lags it by at most the published-snapshot window.
    ///
    /// # Errors
    /// Returns an error only for internal sketch query failures.
    pub fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        self.reads.report(key)
    }

    /// All group keys in the latest published epoch, in ascending key
    /// order across all shards (the unified listing contract).
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<Value>> {
        self.reads.groups()
    }

    /// Groups tracked in the latest published epoch.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.reads.num_groups()
    }

    /// Rows committed into the latest published epoch.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.reads.rows_processed()
    }

    /// Sketch memory across the latest published epoch, in bytes.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.reads.state_bytes()
    }

    /// Number of shards (fixed for the engine's lifetime).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.reads.num_shards()
    }

    /// The poison-row policy of the latest published epoch.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.reads.fault_policy()
    }

    /// Sets the poison-row policy on the router and every worker (so the
    /// next submitted batch sees it). No-op on a poisoned engine, router
    /// included.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.control(move |c| {
            c.router.set_fault_policy(policy);
            c.workers
                .on_shards(move |_, s| (s.set_fault_policy(policy), Changed::No));
        });
    }

    /// Aggregated dead letters of the latest published epoch: router
    /// quarantine plus every shard's, samples stamped with their shard.
    #[must_use]
    pub fn dead_letters(&self) -> DeadLetters {
        self.reads.dead_letters()
    }

    /// Arms a deterministic fault injector on one shard worker (recovery
    /// drills; attempts count from the next batch the worker ingests).
    ///
    /// # Errors
    /// Returns an error if `shard` is out of range or the engine is
    /// poisoned.
    pub fn arm_faults(&mut self, shard: usize, injector: FaultInjector) -> SketchResult<()> {
        self.control(move |c| {
            let num = c.workers.txs.len();
            if shard >= num {
                return Err(SketchError::invalid(
                    "shard",
                    format!("no shard {shard} (of {num})"),
                ));
            }
            let arm = |s: &mut SketchEngine| (s.arm_faults(injector), Changed::No);
            let armed = c.workers.ask(shard, arm);
            c.workers.reply(armed).ok_or_else(poisoned_sketch_error)
        })
        .unwrap_or_else(|| Err(poisoned_sketch_error()))
    }

    /// Disarms the fault injectors on every shard worker, returning each
    /// armed injector with its shard index (empty on a poisoned engine).
    pub fn disarm_faults(&mut self) -> Vec<(usize, FaultInjector)> {
        self.control(|c| c.workers.on_shards(|_, s| (s.disarm_faults(), Changed::No)))
            .flatten()
            .unwrap_or_default()
            .into_iter()
            .enumerate()
            .filter_map(|(i, injector)| Some((i, injector?)))
            .collect()
    }

    /// Enables or disables metric recording on the router and every
    /// worker (on by default). No-op on a poisoned engine.
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        self.control(move |c| {
            c.router.metrics.enabled = enabled;
            c.workers
                .on_shards(move |_, s| (s.set_metrics_enabled(enabled), Changed::No));
        });
    }

    /// Installs the time source behind the batch-latency histograms on
    /// the router and every worker (the submit path reads the published
    /// router's clock for its queue-wait stamps, and sees the new one as
    /// soon as this returns). No-op on a poisoned engine.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.control(move |c| {
            c.router.metrics.clock = Arc::clone(&clock);
            c.workers
                .on_shards(move |_, s| (s.set_clock(Arc::clone(&clock)), Changed::No));
        });
    }

    /// Finishes a tumbling window against the *worker* state (every batch
    /// whose submit returned before this call is in it): every group's
    /// report in ascending key order, then a full reset, published as a
    /// new epoch.
    ///
    /// # Errors
    /// Propagates report errors, or a typed error on a poisoned engine.
    pub fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        self.control(|c| {
            let windows = c
                .workers
                .on_shards(|_, s| (s.flush_window(), Changed::All))
                .ok_or_else(poisoned_sketch_error)?;
            let mut out = Vec::new();
            for window in windows {
                out.extend(window?);
            }
            // Per-shard windows are each sorted; a full sort restores the
            // global key order the sequential engine emits.
            out.sort_by(|a, b| a.0.cmp(&b.0));
            c.router.dead.clear();
            Ok(out)
        })
        .unwrap_or_else(|| Err(poisoned_sketch_error()))
    }

    /// Merges another concurrent engine's **latest published epoch** into
    /// this one (distributed GROUP BY). Quiesce `other` first (no submit
    /// to it still running) to merge its complete state; shard counts
    /// must match, as for [`ShardedEngine::merge`].
    ///
    /// # Errors
    /// Returns an error if shard counts or specs/configs differ, or if
    /// either engine is poisoned.
    pub fn merge(&mut self, other: &Self) -> SketchResult<()> {
        if self.num_shards() != other.num_shards() {
            return Err(SketchError::incompatible("shard counts differ"));
        }
        let theirs = other.reads.published();
        let their_router = other.reads.shared.router.read().clone();
        self.control(move |c| {
            // A shard republishes only if its own merge went through.
            let merged = c
                .workers
                .on_shards(move |i, s| {
                    let result = s.merge(&theirs[i]);
                    let changed = result.as_ref().map_or(Changed::No, |()| Changed::All);
                    (result, changed)
                })
                .ok_or_else(poisoned_sketch_error)?;
            for (i, result) in merged.into_iter().enumerate() {
                result.map_err(|e| SketchError::incompatible(format!("shard {i}: {e}")))?;
            }
            c.router.absorb(&their_router);
            Ok(())
        })
        .unwrap_or_else(|| Err(poisoned_sketch_error()))
    }

    /// Cuts a telemetry snapshot from the latest published epoch: the
    /// router block plus every shard's, with the concurrent-serving
    /// gauges — `publish_epoch{shard}`, `publish_lag_rows`,
    /// `submit_queue_depth` — and the `snapshots_published_total` and
    /// `snapshots_copied_total` counters.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.reads.metrics()
    }

    /// Serializes the latest published epoch as a checksummed snapshot —
    /// **byte-identical to [`ShardedEngine::to_snapshot_bytes`]** on the
    /// same shards, so state moves freely between the two topologies.
    #[must_use]
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        self.reads.to_snapshot_bytes()
    }

    /// Restores a concurrent engine from a sharded-kind snapshot
    /// (produced by [`to_snapshot_bytes`](Self::to_snapshot_bytes) *or*
    /// by a [`ShardedEngine`] — the formats are identical).
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on any damage or if the bytes
    /// hold a sequential-engine snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> SketchResult<Self> {
        Ok(Self::from_shards(
            ShardedEngine::from_snapshot_bytes(bytes)?.shards,
        ))
    }
}

/// A cloneable, thread-safe read-only view of a [`ConcurrentEngine`]'s
/// published snapshots — the engine's whole read side, and the serving
/// layer's read path.
///
/// The handle holds only the shared publish slots, so it stays valid
/// through engine poisoning *and past engine drop*: a server can keep
/// answering queries from the last published epoch while the write path
/// is being recovered or torn down (graceful degradation to read-only).
/// No method is ever blocked by ingest — each one first clones the `Arc`s
/// it needs out of their slots, under a lock held only for the pointer
/// copy, and then reads the immutable shards with the accessors the
/// sharded engine uses on its own.
#[derive(Debug, Clone)]
pub struct ReadHandle {
    shared: Arc<Shared>,
}

impl ReadHandle {
    /// The latest published snapshot of one shard (an `Arc` clone; the
    /// slot lock is held only for the clone).
    fn published_shard(&self, shard: usize) -> Arc<SketchEngine> {
        Arc::clone(&self.shared.published[shard].read())
    }

    /// The latest published snapshot of every shard, each taken out of
    /// its slot in its own statement — whatever the caller computes over
    /// them runs under no lock.
    fn published(&self) -> Vec<Arc<SketchEngine>> {
        (0..self.num_shards())
            .map(|i| self.published_shard(i))
            .collect()
    }

    /// Whether the engine behind this handle has been poisoned (a worker
    /// died, or a panic escaped a coordinator operation) — or dropped
    /// outright, which poisons nothing but stops all publishing.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    /// Reports the aggregates of one group from the latest published
    /// epoch (`None` if never seen there).
    ///
    /// # Errors
    /// Returns an error only for internal sketch query failures.
    pub fn report(&self, key: &[Value]) -> SketchResult<Option<Vec<AggregateResult>>> {
        self.published_shard(router::shard_of(key, self.num_shards()))
            .report(key)
    }

    /// The slim query-side view of the latest published epoch: every
    /// shard's [`EngineView`] cut from its published snapshot and unioned
    /// (exact; see the module docs). Never blocked by in-flight ingest,
    /// available even after the engine is poisoned or dropped, and a
    /// fraction of the size of
    /// [`to_snapshot_bytes`](Self::to_snapshot_bytes): this is what a
    /// serving tier should ship. The cut is O(state) and paid by this
    /// call, not by the commit that published the state.
    #[must_use]
    pub fn query_view(&self) -> EngineView {
        merged_view(&self.published())
    }

    /// All group keys in the latest published epoch, in ascending key
    /// order across all shards.
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<Value>> {
        router::groups(&self.published())
            .into_iter()
            .cloned()
            .collect()
    }

    /// Groups tracked in the latest published epoch.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        router::num_groups(&self.published())
    }

    /// Rows committed into the latest published epoch.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        router::rows_processed(&self.published())
    }

    /// Sketch memory across the latest published epoch, in bytes.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        router::state_bytes(&self.published())
    }

    /// Number of shards behind this handle.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shared.published.len()
    }

    /// The poison-row policy of the latest published epoch.
    #[must_use]
    pub fn fault_policy(&self) -> FaultPolicy {
        self.shared.router.read().fault_policy
    }

    /// Aggregated dead letters of the latest published epoch: router
    /// quarantine plus every shard's, samples stamped with their shard.
    #[must_use]
    pub fn dead_letters(&self) -> DeadLetters {
        let router_dead = self.shared.router.read().dead.clone();
        router::dead_letters(router_dead, &self.published())
    }

    /// The envelope kind [`to_snapshot_bytes`](Self::to_snapshot_bytes)
    /// produces — always [`crate::SnapshotKind::Sharded`]; the typed
    /// accessor callers (e.g. `/readyz`) use instead of peeking at
    /// header bytes.
    #[must_use]
    pub fn snapshot_kind(&self) -> SnapshotKind {
        SnapshotKind::Sharded
    }

    /// Telemetry snapshot of the latest published epoch: what the sharded
    /// engine reports for the same shards, plus the concurrent-serving
    /// gauges — `publish_epoch{shard}`, `publish_lag_rows`,
    /// `submit_queue_depth` — and the `snapshots_published_total` and
    /// `snapshots_copied_total` counters.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let shared = &self.shared;
        let router_metrics = shared.router.read().metrics.clone();
        let mut snap = router::metrics(&router_metrics, &self.published());
        for (i, epoch) in shared.epochs.iter().enumerate() {
            snap.add_gauge(&names::publish_epoch(i), epoch.load(Ordering::Acquire));
        }
        snap.add_gauge(
            names::SUBMIT_QUEUE_DEPTH,
            shared.queue_depth.load(Ordering::Relaxed),
        );
        let submitted = shared.rows_submitted.load(Ordering::Relaxed);
        let resolved = shared.rows_resolved.load(Ordering::Relaxed);
        snap.add_gauge(names::PUBLISH_LAG_ROWS, submitted.saturating_sub(resolved));
        snap.add_counter(
            names::SNAPSHOTS_PUBLISHED,
            shared.snapshots_published.load(Ordering::Relaxed),
        );
        let copied = shared.snapshots_copied.load(Ordering::Relaxed);
        snap.add_counter(names::SNAPSHOTS_COPIED, copied);
        snap
    }

    /// Serializes the latest published epoch as a checksummed snapshot,
    /// encoded straight from the published shards (no copy of their
    /// state) and **byte-identical to
    /// [`ShardedEngine::to_snapshot_bytes`]** on the same shards, so state
    /// moves freely between the two topologies.
    #[must_use]
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        snapshot::encode(SnapshotKind::Sharded, &self.published())
    }
}

impl Drop for ConcurrentEngine {
    fn drop(&mut self) {
        // Every submit borrows the engine, so none is running: every batch
        // submitted before the drop has resolved. Only the workers are left.
        self.coordinator.get_mut().workers.shutdown();
    }
}

/// Publishes the worker's table, `live`, as an immutable snapshot at the
/// cost of what `changed`: `live` goes into the slot as it is, and the
/// snapshot it replaces becomes the worker's next table. After a batch
/// commit that snapshot is exactly one batch behind, so if the worker holds
/// its last reference (no reader is on it, and none can get to it: it has
/// left its slot) it takes `live`'s pointers for the batch's keys:
/// O(touched). Otherwise — a reader still on it, or [`Changed::All`] — the
/// worker copies `live`'s table, O(groups), and counts that in
/// `snapshots_copied`.
fn publish(shared: &Shared, shard_id: usize, live: &mut Arc<SketchEngine>, changed: Changed) {
    let touched = match changed {
        Changed::No => return,
        Changed::Keys(touched) => Some(touched),
        Changed::All => None,
    };
    // The write guard lives for this one statement, the swap: frees come after.
    let mut next = std::mem::replace(&mut *shared.published[shard_id].write(), Arc::clone(live));
    shared.epochs[shard_id].fetch_add(1, Ordering::Release);
    shared.snapshots_published.fetch_add(1, Ordering::Relaxed);
    match (touched, Arc::get_mut(&mut next)) {
        (Some(touched), Some(snap)) => snap.catch_up(live, &touched),
        _ => {
            shared.snapshots_copied.fetch_add(1, Ordering::Relaxed);
            next = Arc::new(SketchEngine::clone(live));
        }
    }
    *live = next;
}

/// One long-lived shard worker: owns its table for the engine's lifetime —
/// the one batches are ingested into, which is also the next snapshot it
/// publishes — and runs the ops it is sent on it, in order. Nothing else ever holds `live`
/// while an op runs, so `Arc::make_mut` in [`Workers::ask`] never copies. It
/// ends when the engine's drop drops its sender; a panic inside an op
/// unwinds into the worker's supervisor, which poisons the engine.
fn worker_main(
    shard: SketchEngine,
    shard_id: usize,
    shared: &Shared,
    ops: &channel::Receiver<ShardOp>,
) {
    let mut live = Arc::new(shard);
    let publish = |live: &mut Arc<SketchEngine>, c| publish(shared, shard_id, live, c);
    while let Ok(op) = ops.recv() {
        op(&mut live, &publish);
    }
}

/// The coordinator's side of the worker pool: the one way to have a shard
/// worker do something ([`ask`](Self::ask)) and the one way to have all of
/// them do it ([`on_shards`](Self::on_shards)).
#[derive(Debug)]
struct Workers {
    txs: Vec<channel::Sender<ShardOp>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Workers {
    /// Queues `f` on worker `i` and returns where its answer will arrive.
    /// `f` returns `(answer, changed)`; the worker publishes what changed
    /// (see [`Changed`]) **before** it sends the answer, so whoever
    /// receives it — and whoever they then resolve — already reads the new
    /// epoch. A dead worker never answers: its receiver disconnects.
    fn ask<T: Send + 'static>(
        &self,
        i: usize,
        f: impl FnOnce(&mut SketchEngine) -> (T, Changed) + Send + 'static,
    ) -> channel::Receiver<T> {
        let (reply_tx, reply_rx) = channel::bounded(1);
        let op: ShardOp = Box::new(move |live, publish| {
            let (reply, changed) = f(Arc::make_mut(live));
            publish(live, changed);
            let _ = reply_tx.send(reply);
        });
        // A failed send is a dead worker; dropping the op disconnects the
        // reply, which is how the caller finds out.
        let _ = self.txs[i].send(op);
        reply_rx
    }

    /// Waits for one [`ask`](Self::ask)ed answer. `None` — and the engine
    /// poisoned — if the worker died before or while answering.
    fn reply<T>(&self, rx: channel::Receiver<T>) -> Option<T> {
        let reply = rx.recv().ok();
        if reply.is_none() {
            self.shared.poisoned.store(true, Ordering::Release);
        }
        reply
    }

    /// Asks every worker at once — `f(i, shard)` on shard `i` — and
    /// collects the answers in shard order. `None` (engine poisoned) if
    /// any worker is dead; the live ones still ran `f`.
    fn on_shards<T: Send + 'static>(
        &self,
        f: impl Fn(usize, &mut SketchEngine) -> (T, Changed) + Send + Sync + 'static,
    ) -> Option<Vec<T>> {
        let f = Arc::new(f);
        let asked: Vec<_> = (0..self.txs.len())
            .map(|i| {
                let f = Arc::clone(&f);
                self.ask(i, move |shard| f(i, shard))
            })
            .collect();
        asked.into_iter().map(|rx| self.reply(rx)).collect()
    }

    /// Ends every worker by dropping its sender, then joins them.
    fn shutdown(&mut self) {
        self.txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The coordinator: what the engine's lock guards, serializing every
/// mutation across the worker pool. It owns the [`Router`] and runs its
/// batch protocol — the one [`ShardedEngine::process_batch`] runs — over
/// the workers. Two fields, so that a router call can take a closure over
/// the workers (disjoint borrows).
#[derive(Debug)]
struct Coordinator {
    router: Router,
    workers: Workers,
}

impl Coordinator {
    /// Publishes the router-level state (dead letters, metrics, policy)
    /// so reads see it without touching the coordinator.
    fn publish_router(&self) {
        *self.workers.shared.router.write() = self.router.clone();
    }

    fn handle_ingest(
        &mut self,
        rows: Vec<Row>,
        ctx: &TraceContext,
    ) -> Result<BatchSummary, BatchError> {
        self.router.prevalidate(&rows)?;
        let start = self.router.metrics.start_batch();
        // Stage clocking is needed when either consumer is live: the
        // aggregate stage histograms (metrics enabled) or this request's
        // trace (sampled).
        let timed = self.router.metrics.enabled || ctx.is_sampled();
        let clock = Arc::clone(&self.router.metrics.clock);
        let apply_start = if timed { clock.now_nanos() } else { 0 };
        let num = self.workers.txs.len();
        let Partition { lists, quarantine } = self.router.partition(&rows, num);
        let rows = Arc::new(rows);
        // "Run these lists on your shards": every worker gets its whole
        // index list at once. A worker that never answers — its thread
        // died before or during the batch — poisons the engine and counts
        // as a failed shard, so the batch rolls back on the survivors.
        let asked: Vec<_> = lists
            .into_iter()
            .enumerate()
            .map(|(i, indices)| {
                let rows = Arc::clone(&rows);
                self.workers
                    .ask(i, move |s| (worker_ingest(s, &rows, &indices), Changed::No))
            })
            .collect();
        let outcomes = asked
            .into_iter()
            .map(|rx| {
                self.workers
                    .reply(rx)
                    .unwrap_or_else(|| WorkerOutcome::lost("shard worker thread died".to_string()))
            })
            .collect();
        if timed {
            let apply_end = clock.now_nanos();
            if self.router.metrics.enabled {
                self.router
                    .metrics
                    .stage_engine_apply
                    .record_nanos(apply_end.saturating_sub(apply_start));
            }
            ctx.child_with(
                Stage::EngineApply,
                apply_start,
                apply_end,
                vec![
                    ("rows".to_string(), rows.len().to_string()),
                    ("shards".to_string(), num.to_string()),
                ],
            );
        }

        // "Commit or roll back all shards". The publish stage is the
        // commit round: each worker publishes before it answers. Rolled-
        // back state equals the already-published state, so a rollback
        // publishes nothing and readers never see any of the torn batch.
        let mut publish_span = None;
        let result = self.router.settle(outcomes, quarantine, |commit| {
            let publish_start = (timed && commit).then(|| clock.now_nanos());
            self.workers
                .on_shards(move |_, s| {
                    if commit {
                        ((), Changed::Keys(s.commit_batch()))
                    } else {
                        (s.rollback_batch(), Changed::No)
                    }
                })
                .ok_or_else(poisoned_batch_error)?;
            publish_span = publish_start.map(|start| (start, clock.now_nanos()));
            Ok(())
        });
        if let Some((publish_start, publish_end)) = publish_span {
            if self.router.metrics.enabled {
                self.router
                    .metrics
                    .stage_publish
                    .record_nanos(publish_end.saturating_sub(publish_start));
            }
            ctx.child(Stage::Publish, publish_start, publish_end);
        }
        self.router.metrics.finish_batch(start);
        result
    }
}

#[cfg(test)]
#[allow(
    clippy::useless_vec,
    reason = "`row!` expands to `vec![...]`, which tests also pass to slice-taking query methods"
)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
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
    fn rejects_zero_shards_and_zero_depth() {
        assert!(ConcurrentEngine::new(spec(), 0).is_err());
    }

    #[test]
    fn quiescent_reports_match_sequential_at_every_shard_count() {
        let data = rows(20_000, 23);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();
        for shards in [1usize, 2, 4] {
            let conc = ConcurrentEngine::new(spec(), shards).unwrap();
            conc.submit_batch(data.clone()).wait().unwrap();
            assert_eq!(conc.rows_processed(), seq.rows_processed());
            assert_eq!(conc.num_groups(), seq.num_groups());
            for g in 0..23u64 {
                assert_eq!(
                    conc.report(&row![g]).unwrap(),
                    seq.report(&row![g]).unwrap(),
                    "group {g} diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn quiescent_snapshot_is_byte_identical_to_sharded() {
        let data = rows(8_000, 13);
        let mut sharded = ShardedEngine::new(spec(), 4).unwrap();
        sharded.process_batch(&data).unwrap();
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(data).wait().unwrap();
        assert_eq!(conc.to_snapshot_bytes(), sharded.to_snapshot_bytes());
    }

    #[test]
    fn submitted_batches_apply_in_order_and_poll_resolves() {
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        let mut tickets: Vec<BatchTicket> = rows(9_000, 11)
            .chunks(500)
            .map(|chunk| conc.submit_batch(chunk.to_vec()))
            .collect();
        let mut pending = tickets.len();
        while pending > 0 {
            pending = 0;
            for t in &mut tickets {
                match t.poll() {
                    Some(result) => assert!(result.is_ok(), "{result:?}"),
                    None => pending += 1,
                }
            }
            std::thread::yield_now();
        }
        // Polling again after resolution returns the cached outcome.
        assert!(tickets[0].poll().unwrap().is_ok());

        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&rows(9_000, 11)).unwrap();
        for g in 0..11u64 {
            assert_eq!(
                conc.report(&row![g]).unwrap(),
                seq.report(&row![g]).unwrap()
            );
        }
    }

    #[test]
    fn wait_implies_published() {
        // The commit ack is sent only after the shard published, so a
        // resolved ticket means reads observe the batch — every time.
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        let mut expected = 0u64;
        for chunk in rows(5_000, 7).chunks(250) {
            let summary = conc.submit_batch(chunk.to_vec()).wait().unwrap();
            expected += summary.rows_ingested as u64;
            assert_eq!(conc.rows_processed(), expected);
        }
    }

    #[test]
    fn poison_row_rolls_back_and_publishes_nothing() {
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(rows(500, 7)).wait().unwrap();
        let before = conc.to_snapshot_bytes();
        let epoch_before = conc.metrics().gauges[&names::publish_epoch(0)];

        let mut batch = rows(200, 7);
        batch.insert(60, row![0u64, 1u64, "not-a-number"]);
        let err = conc.submit_batch(batch).wait().unwrap_err();
        assert_eq!(err.row, Some(60));
        assert!(err.shard.is_some());
        assert!(matches!(err.cause, BatchCause::Row(_)));
        // Rolled back and *not* republished: readers never saw any of it.
        assert_eq!(conc.to_snapshot_bytes(), before);
        assert_eq!(conc.rows_processed(), 500);
        assert_eq!(
            conc.metrics().gauges[&names::publish_epoch(0)],
            epoch_before
        );
        assert!(!conc.is_poisoned());
    }

    #[test]
    fn quarantine_policy_diverts_rows() {
        let mut conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.set_fault_policy(FaultPolicy::Quarantine { max_samples: 8 });
        assert!(matches!(
            conc.fault_policy(),
            FaultPolicy::Quarantine { max_samples: 8 }
        ));
        let mut batch = rows(100, 5);
        batch.insert(3, row![7u64]); // short: router quarantines it
        batch.insert(50, row![0u64, 1u64, "bad"]); // shard quarantines it
        let summary = conc.submit_batch(batch).wait().unwrap();
        assert_eq!(summary.rows_ingested, 100);
        assert_eq!(summary.rows_quarantined, 2);

        let all = conc.dead_letters();
        assert_eq!(all.count(), 2);
        let router_sample = all.samples().iter().find(|q| q.row_index == 3).unwrap();
        assert_eq!(router_sample.shard, None);
        let shard_sample = all.samples().iter().find(|q| q.row_index == 50).unwrap();
        assert!(shard_sample.shard.is_some());

        // Dead letters are window state.
        conc.flush_window().unwrap();
        assert!(conc.dead_letters().is_empty());
    }

    #[test]
    fn injected_worker_panic_is_contained_and_batch_retryable() {
        crate::fault::silence_injected_panics();
        let mut conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(rows(300, 9)).wait().unwrap();
        let before = conc.to_snapshot_bytes();

        conc.arm_faults(2, FaultInjector::new().at(10, FaultKind::Panic))
            .unwrap();
        let batch = rows(400, 9);
        let err = conc.submit_batch(batch.clone()).wait().unwrap_err();
        assert_eq!(err.shard, Some(2));
        assert!(matches!(err.cause, BatchCause::WorkerPanic(_)));
        assert_eq!(conc.to_snapshot_bytes(), before);
        // The panic was contained inside the batch supervisor: the worker
        // thread is alive and the engine is not poisoned.
        assert!(!conc.is_poisoned());

        // Retry gets past the transient fault and converges with a
        // never-faulted sharded engine.
        conc.submit_batch(batch.clone()).wait().unwrap();
        let disarmed = conc.disarm_faults();
        assert_eq!(disarmed.len(), 1);
        assert_eq!(disarmed[0].0, 2);
        let mut baseline = ShardedEngine::new(spec(), 4).unwrap();
        baseline.process_batch(&rows(300, 9)).unwrap();
        baseline.process_batch(&batch).unwrap();
        assert_eq!(conc.to_snapshot_bytes(), baseline.to_snapshot_bytes());
    }

    #[test]
    fn snapshot_round_trips_across_topologies() {
        let data = rows(6_000, 11);
        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.submit_batch(data.clone()).wait().unwrap();
        let bytes = conc.to_snapshot_bytes();

        // Concurrent → concurrent.
        let restored = ConcurrentEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.num_shards(), 4);
        assert_eq!(restored.to_snapshot_bytes(), bytes);

        // Concurrent → sharded and back: the formats are identical.
        let as_sharded = ShardedEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(as_sharded.to_snapshot_bytes(), bytes);
        let back = ConcurrentEngine::from_snapshot_bytes(&as_sharded.to_snapshot_bytes()).unwrap();
        for g in 0..11u64 {
            assert_eq!(
                back.report(&row![g]).unwrap(),
                conc.report(&row![g]).unwrap()
            );
        }

        // Sequential snapshots are a typed kind mismatch.
        let seq = SketchEngine::new(spec()).unwrap();
        assert!(matches!(
            ConcurrentEngine::from_snapshot_bytes(&seq.to_snapshot_bytes()),
            Err(SketchError::Corrupted { .. })
        ));
    }

    #[test]
    fn merge_combines_published_states() {
        let data = rows(12_000, 13);
        let (left, right) = data.split_at(7_000);
        let mut a = ConcurrentEngine::new(spec(), 4).unwrap();
        let b = ConcurrentEngine::new(spec(), 4).unwrap();
        a.submit_batch(left.to_vec()).wait().unwrap();
        b.submit_batch(right.to_vec()).wait().unwrap();
        a.merge(&b).unwrap();

        let mut sa = ShardedEngine::new(spec(), 4).unwrap();
        let mut sb = ShardedEngine::new(spec(), 4).unwrap();
        sa.process_batch(left).unwrap();
        sb.process_batch(right).unwrap();
        sa.merge(&sb).unwrap();
        assert_eq!(a.rows_processed(), sa.rows_processed());
        for g in 0..13u64 {
            assert_eq!(a.report(&row![g]).unwrap(), sa.report(&row![g]).unwrap());
        }

        let mismatched = ConcurrentEngine::new(spec(), 2).unwrap();
        assert!(a.merge(&mismatched).is_err());
    }

    #[test]
    fn metrics_export_concurrency_gauges() {
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        conc.submit_batch(rows(1_000, 7)).wait().unwrap();
        let snap = conc.metrics();
        assert_eq!(snap.counters[names::ROWS_INGESTED], 1_000);
        assert_eq!(snap.counters[names::BATCHES_COMMITTED], 1);
        assert_eq!(snap.counters[names::SNAPSHOTS_PUBLISHED], 3);
        assert_eq!(snap.gauges[names::SHARDS], 3);
        // Quiescent: nothing queued, nothing unresolved, every shard
        // published exactly one epoch.
        assert_eq!(snap.gauges[names::SUBMIT_QUEUE_DEPTH], 0);
        assert_eq!(snap.gauges[names::PUBLISH_LAG_ROWS], 0);
        for i in 0..3 {
            assert_eq!(snap.gauges[&names::publish_epoch(i)], 1);
        }
    }

    #[test]
    fn reads_never_block_during_ingest() {
        // Readers spin on report()/groups() while batches are in flight;
        // every read must succeed against some published prefix.
        let conc = Arc::new(ConcurrentEngine::new(spec(), 4).unwrap());
        let reader = {
            let conc = Arc::clone(&conc);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut last_rows = 0u64;
                while conc.rows_processed() < 20_000 {
                    for g in 0..7u64 {
                        assert!(conc.report(&row![g]).is_ok());
                    }
                    let now = conc.rows_processed();
                    // Published row counts are monotone: batches publish
                    // whole, in order.
                    assert!(now >= last_rows, "rows went backwards");
                    last_rows = now;
                    reads += 1;
                }
                reads
            })
        };
        for chunk in rows(20_000, 7).chunks(1_000) {
            conc.submit_batch(chunk.to_vec()).wait().unwrap();
        }
        let reads = reader.join().expect("reader thread");
        assert!(reads > 0);
    }

    #[test]
    fn killed_coordinator_resolves_waits_with_typed_error() {
        // The PR 8 regression: a coordinator dying mid-flight must not
        // hang wait() — every outstanding ticket resolves to the typed
        // poisoned error, in bounded time.
        crate::fault::silence_injected_panics();
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        conc.submit_batch(rows(2_000, 7)).wait().unwrap();
        let before = conc.rows_processed();

        conc.inject_coordinator_panic();
        // Tickets submitted around and after the kill all resolve.
        let tickets: Vec<BatchTicket> = (0..8).map(|_| conc.submit_batch(rows(100, 7))).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "a test deadline, never sketch state"
        )]
        let start = std::time::Instant::now();
        for t in tickets {
            let err = t.wait().expect_err("poisoned engine commits nothing");
            assert!(matches!(err.cause, BatchCause::WorkerPanic(_)), "{err:?}");
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "waits did not resolve in bounded time"
        );
        assert!(conc.is_poisoned());
        // Degraded, not wedged: reads keep serving the last epoch.
        assert_eq!(conc.rows_processed(), before);
        assert!(conc.report(&row![1u64]).is_ok());
    }

    #[test]
    fn wait_timeout_returns_ticket_then_outcome() {
        let conc = ConcurrentEngine::new(spec(), 2).unwrap();
        // Instant path: an already-resolved batch returns Ok immediately.
        let t = conc.submit_batch(rows(50, 3));
        std::thread::sleep(Duration::from_millis(50));
        match t.wait_timeout(Duration::from_secs(5)) {
            Ok(result) => assert!(result.is_ok(), "{result:?}"),
            Err(_) => panic!("resolved batch timed out"),
        }
        // A ticket is resolved when submit returns, so even a 1 ns timeout
        // answers with the outcome; the `Err(ticket)` arm is the signature's.
        let t = conc.submit_batch(rows(5_000, 3));
        match t.wait_timeout(Duration::from_nanos(1)) {
            Ok(result) => assert!(result.is_ok(), "{result:?}"),
            Err(ticket) => assert!(ticket.wait().is_ok()),
        }
    }

    /// Every read accessor of `$e` over the 9 groups of the stream below,
    /// rendered comparable — written once for the four holders of the
    /// same state (engine, read handle, restored and re-fed sharded
    /// engines). `state_bytes` is among them: it is a function of the
    /// state, so a live shard, a published snapshot sharing its groups
    /// and a restored copy all read the same number.
    macro_rules! reads {
        ($e:expr) => {{
            let e = &$e;
            let metrics = e.metrics();
            // What is left once the series only the concurrent topology
            // exports are set aside.
            let not_shared = |name: &String| {
                name.starts_with("publish_")
                    || name == names::SUBMIT_QUEUE_DEPTH
                    || name == names::SNAPSHOTS_PUBLISHED
                    || name == names::SNAPSHOTS_COPIED
            };
            let shared_series: Vec<(String, u64)> = metrics
                .counters
                .into_iter()
                .chain(metrics.gauges)
                .filter(|(name, _)| !not_shared(name))
                .collect();
            (
                (
                    e.num_shards(),
                    e.rows_processed(),
                    e.num_groups(),
                    e.groups()
                        .into_iter()
                        .map(|k| k.to_vec())
                        .collect::<Vec<_>>(),
                    (0..10u64)
                        .map(|g| e.report(&row![g]).unwrap())
                        .collect::<Vec<_>>(),
                    e.query_view().to_view_bytes(),
                    e.to_snapshot_bytes(),
                    e.state_bytes(),
                ),
                (e.fault_policy(), e.dead_letters(), shared_series),
            )
        }};
    }

    #[test]
    fn read_handle_survives_poisoning_and_drop() {
        crate::fault::silence_injected_panics();
        let policy = FaultPolicy::Quarantine { max_samples: 8 };
        // One poison row for the router (short) and one for a shard (bad
        // type): no clean rows, so the row totals below stay at 3 000.
        let poison = vec![row![7u64], row![0u64, 1u64, "bad"]];
        let mut conc = ConcurrentEngine::new(spec(), 4).unwrap();
        conc.set_fault_policy(policy);
        conc.submit_batch(rows(3_000, 9)).wait().unwrap();
        conc.submit_batch(poison.clone()).wait().unwrap();
        let reader = conc.reader();
        assert_eq!(reader.rows_processed(), 3_000);
        assert_eq!(reader.num_groups(), 9);
        assert_eq!(reader.num_shards(), 4);
        assert_eq!(reader.to_snapshot_bytes(), conc.to_snapshot_bytes());
        assert_eq!(
            reader.report(&row![1u64]).unwrap(),
            conc.report(&row![1u64]).unwrap()
        );

        // One read side: the engine, its handle, and a sharded engine
        // holding the same shards answer every accessor identically.
        // State accessors against a sharded engine *restored* from the
        // snapshot bytes; policy, dead letters and telemetry (which
        // snapshots deliberately exclude) against one fed the same stream.
        let (state, transient) = reads!(conc);
        assert_eq!(reads!(reader), (state.clone(), transient.clone()));
        assert_eq!(conc.state_bytes(), reader.state_bytes());
        assert_eq!(conc.metrics().gauges, reader.metrics().gauges);
        assert_eq!(conc.metrics().counters, reader.metrics().counters);
        let restored = ShardedEngine::from_snapshot_bytes(&state.6).unwrap();
        assert_eq!(reads!(restored).0, state);
        let mut twin = ShardedEngine::new(spec(), 4).unwrap();
        twin.set_fault_policy(policy);
        twin.process_batch(&rows(3_000, 9)).unwrap();
        twin.process_batch(&poison).unwrap();
        assert_eq!(reads!(twin), (state.clone(), transient.clone()));
        assert_eq!(transient.1.count(), 2);

        // Poisoned: the reader still serves the last published epoch.
        conc.inject_coordinator_panic();
        let _ = conc.submit_batch(rows(10, 3)).wait();
        assert!(reader.is_poisoned());
        assert_eq!(reader.rows_processed(), 3_000);

        // Dropped: still serving. The snapshot is byte-identical to the
        // pre-drop state, so drain-and-restart flows can verify exactness.
        let bytes_before = reader.to_snapshot_bytes();
        drop(conc);
        assert_eq!(reader.rows_processed(), 3_000);
        assert_eq!(reader.groups().len(), 9);
        assert_eq!(reader.to_snapshot_bytes(), bytes_before);
        assert!(reader.metrics().gauges[names::SHARDS] == 4);
        assert_eq!(reads!(reader).0, state);
    }

    #[test]
    fn published_views_track_epochs_and_survive_drop() {
        let data = rows(6_000, 11);
        let mut seq = SketchEngine::new(spec()).unwrap();
        seq.process_batch(&data).unwrap();

        let conc = ConcurrentEngine::new(spec(), 4).unwrap();
        let reader = conc.reader();
        // Epoch 0: empty views.
        assert_eq!(conc.query_view().rows_processed(), 0);
        conc.submit_batch(data).wait().unwrap();

        // A resolved ticket implies the slim view observes the batch too
        // (views publish in the same swap sequence as fat snapshots).
        let view = conc.query_view();
        assert_eq!(view.rows_processed(), 6_000);
        assert_eq!(view.num_groups(), 11);
        for g in 0..11u64 {
            assert_eq!(
                view.report(&row![g]).unwrap(),
                seq.report(&row![g]).unwrap(),
                "group {g} view diverged from the fat report"
            );
        }
        // The slim side is what the wire should carry: far smaller than
        // the fat snapshot of the same published epoch.
        let slim = view.to_view_bytes().len();
        let fat = conc.to_snapshot_bytes().len();
        assert!(
            slim * 2 < fat,
            "view bytes {slim} not slim against snapshot bytes {fat}"
        );

        // The read handle serves the same views, even after engine drop.
        drop(conc);
        let after = reader.query_view();
        assert_eq!(after.rows_processed(), 6_000);
        assert_eq!(
            after.report(&row![3u64]).unwrap(),
            view.report(&row![3u64]).unwrap()
        );
    }

    #[test]
    fn drop_with_unresolved_tickets_does_not_hang() {
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        let mut tickets: Vec<BatchTicket> = rows(4_000, 5)
            .chunks(200)
            .map(|chunk| conc.submit_batch(chunk.to_vec()))
            .collect();
        drop(conc);
        // Every ticket resolved before its submit returned, so dropping the
        // engine right after, unwaited, loses none of them.
        for t in &mut tickets {
            assert!(t.poll().expect("resolved by shutdown").is_ok());
        }
    }

    #[test]
    fn control_ops_are_fifo_with_ingest() {
        let mut conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let mut tickets: Vec<BatchTicket> =
            (0..8).map(|_| conc.submit_batch(rows(30, 5))).collect();
        // Runs after all 8 batches released the lock, so the window it
        // closes holds them.
        let window = conc.flush_window().unwrap();
        let counted: u64 = window
            .iter()
            .map(|(_, aggs)| match aggs[0] {
                AggregateResult::Count(c) => c,
                ref other => panic!("unexpected first aggregate {other:?}"),
            })
            .sum();
        assert_eq!(counted, 8 * 30);
        assert_eq!(conc.rows_processed(), 0);
        // And each of them resolved before the flush took the lock.
        for t in &mut tickets {
            assert!(t.poll().expect("resolved ahead of the flush").is_ok());
        }
    }

    #[test]
    fn every_mutator_on_a_dead_engine_returns_in_bounded_time() {
        crate::fault::silence_injected_panics();
        let mut conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let other = ConcurrentEngine::new(spec(), 2).unwrap();
        conc.submit_batch(rows(200, 5)).wait().unwrap();
        let policy = conc.fault_policy();
        let before = conc.to_snapshot_bytes();

        conc.inject_coordinator_panic();
        #[expect(
            clippy::disallowed_methods,
            reason = "a test deadline, never sketch state"
        )]
        let start = std::time::Instant::now();
        let incompatible = |r: SketchResult<()>| {
            assert!(matches!(r, Err(SketchError::Incompatible { .. })), "{r:?}");
        };
        incompatible(conc.flush_window().map(drop));
        incompatible(conc.merge(&other));
        incompatible(conc.arm_faults(0, FaultInjector::new()));
        assert!(conc.disarm_faults().is_empty());
        conc.set_fault_policy(FaultPolicy::Quarantine { max_samples: 3 });
        conc.set_metrics_enabled(false);
        conc.set_clock(Arc::new(sketches_obs::ManualClock::new()));
        while !conc.is_poisoned() {
            assert!(start.elapsed() < Duration::from_secs(10), "never poisoned");
            std::thread::yield_now();
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "mutators did not return in bounded time"
        );
        // The setters were no-ops, and reads serve the last epoch.
        assert_eq!(conc.fault_policy(), policy);
        assert_eq!(conc.to_snapshot_bytes(), before);
        assert!(conc.report(&row![1u64]).unwrap().is_some());
    }

    #[test]
    fn a_panicking_shard_op_poisons_and_never_hangs() {
        // A control op nobody wrote a message kind for: a closure through
        // `control`, fanned out with `on_shards`, dying on one shard.
        crate::fault::silence_injected_panics();
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        conc.submit_batch(rows(300, 9)).wait().unwrap();
        let before = conc.to_snapshot_bytes();

        let answers = conc.control(|c| {
            c.workers.on_shards(|i, shard| {
                if i == 1 {
                    panic!("{INJECTED_PANIC_MARKER}: injected shard-op panic");
                }
                (shard.num_groups(), Changed::No)
            })
        });
        assert_eq!(answers, Some(None));
        assert!(conc.is_poisoned());

        let err = conc.submit_batch(rows(50, 9)).wait().unwrap_err();
        assert!(matches!(err.cause, BatchCause::WorkerPanic(_)), "{err:?}");
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert_eq!(conc.to_snapshot_bytes(), before);
        assert!(conc.report(&row![1u64]).unwrap().is_some());
    }

    // ---- No coordinator thread: a submit runs under the coordinator lock
    // on the caller's thread. ----

    #[test]
    fn a_returned_submit_is_already_published() {
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        let mut expected = 0u64;
        for (i, chunk) in rows(900, 7).chunks(300).enumerate() {
            let mut ticket = conc.submit_batch(chunk.to_vec());
            expected += chunk.len() as u64;
            // Before any wait: the rows are readable, every shard's epoch
            // has moved, and nothing is left unresolved.
            assert_eq!(conc.rows_processed(), expected);
            let gauges = conc.metrics().gauges;
            for shard in 0..3 {
                assert_eq!(gauges[&names::publish_epoch(shard)], i as u64 + 1);
            }
            assert_eq!(gauges[names::PUBLISH_LAG_ROWS], 0);
            assert!(matches!(ticket.poll(), Some(Ok(_))));
        }
    }

    #[test]
    fn an_injected_coordinator_panic_poisons_before_it_returns() {
        crate::fault::silence_injected_panics();
        let mut conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let other = ConcurrentEngine::new(spec(), 2).unwrap();
        conc.submit_batch(rows(200, 5)).wait().unwrap();
        let policy = conc.fault_policy();
        let before = conc.to_snapshot_bytes();

        conc.inject_coordinator_panic();
        assert!(conc.is_poisoned());
        // Nobody releases the lock from here on: a call that took it would
        // hang instead of returning its typed error.
        std::mem::forget(conc.coordinator.lock());
        let err = conc.submit_batch(rows(10, 5)).wait().unwrap_err();
        assert!(matches!(err.cause, BatchCause::WorkerPanic(_)), "{err:?}");
        let incompatible = |r: SketchResult<()>| {
            assert!(matches!(r, Err(SketchError::Incompatible { .. })), "{r:?}");
        };
        incompatible(conc.flush_window().map(drop));
        incompatible(conc.merge(&other));
        incompatible(conc.arm_faults(0, FaultInjector::new()));
        assert!(conc.disarm_faults().is_empty());
        conc.set_fault_policy(FaultPolicy::Quarantine { max_samples: 3 });
        conc.set_metrics_enabled(false);
        conc.set_clock(Arc::new(sketches_obs::ManualClock::new()));
        conc.inject_coordinator_panic();

        // Router-only state included, nothing changed; the refused submit
        // left no lag behind.
        assert_eq!(conc.fault_policy(), policy);
        assert_eq!(conc.to_snapshot_bytes(), before);
        let gauges = conc.metrics().gauges;
        assert_eq!(gauges[names::PUBLISH_LAG_ROWS], 0);
        assert_eq!(gauges[names::SUBMIT_QUEUE_DEPTH], 0);
    }

    #[test]
    fn reads_never_touch_the_coordinator_lock() {
        let conc = ConcurrentEngine::new(spec(), 2).unwrap();
        conc.submit_batch(rows(120, 6)).wait().unwrap();
        let (parked_tx, parked_rx) = channel::bounded::<()>(0);
        let (release_tx, release_rx) = channel::bounded::<()>(0);
        let conc = &conc;
        std::thread::scope(|s| {
            s.spawn(move || {
                conc.control(|_| {
                    parked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
            });
            // The other thread holds the lock until these reads are done.
            parked_rx.recv().unwrap();
            assert!(conc.report(&row![1u64]).unwrap().is_some());
            assert_eq!(conc.groups().len(), 6);
            assert_eq!(conc.metrics().counters[names::ROWS_INGESTED], 120);
            assert_eq!(conc.query_view().rows_processed(), 120);
            assert!(ShardedEngine::from_snapshot_bytes(&conc.to_snapshot_bytes()).is_ok());
            release_tx.send(()).unwrap();
        });
    }

    #[test]
    fn concurrent_submitters_publish_whole_batches() {
        // 24 rows over 4 groups: every batch adds 6 to each group's COUNT,
        // so a reader seeing any other multiple saw a torn batch.
        let (threads, batches, per_batch) = (4u64, 8u64, 6u64);
        let conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut passes = 0u64;
                loop {
                    let last = done.load(Ordering::Acquire);
                    for g in 0..4u64 {
                        match conc.report(&row![g]).unwrap().as_deref() {
                            Some([AggregateResult::Count(c), ..]) => {
                                assert!(c % per_batch == 0, "torn count {c}");
                            }
                            Some(other) => panic!("unexpected report {other:?}"),
                            None => {}
                        }
                    }
                    passes += 1;
                    if last {
                        return passes;
                    }
                }
            });
            let submitters: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..batches {
                            conc.submit_batch(rows(24, 4)).wait().unwrap();
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().unwrap();
            }
            done.store(true, Ordering::Release);
            assert!(reader.join().unwrap() > 0);
        });
        assert_eq!(conc.rows_processed(), threads * batches * 24);
        for g in 0..4u64 {
            let report = conc.report(&row![g]).unwrap().unwrap();
            assert_eq!(
                report[0],
                AggregateResult::Count(threads * batches * per_batch)
            );
        }
    }

    /// Where every group's state lives, by key — the pointer-equality
    /// probe of the copy-on-write tests below.
    type Addrs = std::collections::HashMap<Vec<Value>, usize>;

    fn group_addrs<'a>(shards: impl IntoIterator<Item = &'a SketchEngine>) -> Addrs {
        shards
            .into_iter()
            .flat_map(|e| e.groups.iter())
            .map(|(key, state)| (key.clone(), Arc::as_ptr(state).cast::<u8>() as usize))
            .collect()
    }

    /// Groups of `after` whose state is not at the address `before` had it.
    fn moved(before: &Addrs, after: &Addrs) -> usize {
        after
            .iter()
            .filter(|(key, addr)| before.get(*key) != Some(*addr))
            .count()
    }

    /// A batch ending in a poison row, touching all 6 groups first.
    fn poison_batch() -> Vec<Row> {
        let mut batch = rows(18, 6);
        batch.push(row![0u64, 1u64, "not-a-number"]);
        batch
    }

    #[test]
    fn held_clone_never_changes_and_failed_batches_restore_bytes() {
        crate::fault::silence_injected_panics();
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.process_batch(&rows(60, 6)).unwrap();
        let held = eng.clone();
        let held_bytes = held.to_snapshot_bytes();

        // Committed batches on groups the clone shares.
        eng.process_batch(&rows(40, 4)).unwrap();
        eng.process_batch(&rows(20, 2)).unwrap();
        assert_eq!(held.to_snapshot_bytes(), held_bytes);

        // A poison row after rows that touched shared groups (4, 5) and
        // groups the writer already owns (0..4): all of it rolls back.
        let before = eng.to_snapshot_bytes();
        let err = eng.process_batch(&poison_batch()).unwrap_err();
        assert!(matches!(err.cause, BatchCause::Row(_)));
        assert_eq!(eng.to_snapshot_bytes(), before);
        assert_eq!(held.to_snapshot_bytes(), held_bytes);

        // The same through a contained panic, new groups included.
        eng.arm_faults(FaultInjector::new().at(15, FaultKind::Panic));
        let err = eng.process_batch(&rows(30, 8)).unwrap_err();
        assert!(matches!(err.cause, BatchCause::WorkerPanic(_)));
        eng.disarm_faults();
        assert_eq!(eng.to_snapshot_bytes(), before);
        assert_eq!(held.to_snapshot_bytes(), held_bytes);

        // The writer carries on as if it had never been cloned or failed.
        eng.process_batch(&rows(30, 8)).unwrap();
        assert_eq!(held.to_snapshot_bytes(), held_bytes);
        let mut baseline = SketchEngine::new(spec()).unwrap();
        for (n, groups) in [(60, 6), (40, 4), (20, 2), (30, 8)] {
            baseline.process_batch(&rows(n, groups)).unwrap();
        }
        assert_eq!(eng.to_snapshot_bytes(), baseline.to_snapshot_bytes());
        // And the clone is a whole engine: writing it leaves the writer be.
        let eng_bytes = eng.to_snapshot_bytes();
        let mut held = held;
        held.process_batch(&rows(12, 6)).unwrap();
        assert_ne!(held.to_snapshot_bytes(), held_bytes);
        assert_eq!(eng.to_snapshot_bytes(), eng_bytes);
    }

    #[test]
    fn a_batch_copies_exactly_the_shared_groups_it_touches() {
        let mut eng = SketchEngine::new(spec()).unwrap();
        eng.process_batch(&rows(60, 6)).unwrap();

        // Nobody else holds the groups: the undo log takes a private copy
        // and the commit leaves every group where it was.
        let at = group_addrs([&eng]);
        eng.process_batch(&rows(40, 4)).unwrap();
        assert_eq!(moved(&at, &group_addrs([&eng])), 0);

        // A clone is n pointer copies; a batch touching k of the n groups
        // moves the writer off exactly those k.
        let held = eng.clone();
        let shared = group_addrs([&held]);
        assert_eq!(moved(&shared, &group_addrs([&eng])), 0);
        eng.process_batch(&rows(40, 4)).unwrap();
        assert_eq!(moved(&shared, &group_addrs([&eng])), 4);
        assert_eq!(moved(&shared, &group_addrs([&held])), 0);
        // It owns those now, so the next batch on them copies nothing.
        let at = group_addrs([&eng]);
        eng.process_batch(&rows(40, 4)).unwrap();
        assert_eq!(moved(&at, &group_addrs([&eng])), 0);
        // A rollback puts the shared pointers back where the batch moved
        // off them (groups 4 and 5).
        eng.process_batch(&poison_batch()).unwrap_err();
        assert_eq!(moved(&shared, &group_addrs([&eng])), 4);

        // The same count through publish: epoch n+1 differs from epoch n
        // in the k groups the batch touched, and shares the other n - k.
        let conc = ConcurrentEngine::new(spec(), 2).unwrap();
        conc.submit_batch(rows(60, 6)).wait().unwrap();
        let epoch_n = conc.reads.published();
        conc.submit_batch(rows(30, 3)).wait().unwrap();
        let epoch_n1 = conc.reads.published();
        let (old, new) = (
            group_addrs(epoch_n.iter().map(|s| &**s)),
            group_addrs(epoch_n1.iter().map(|s| &**s)),
        );
        assert_eq!(new.len(), 6);
        assert_eq!(moved(&old, &new), 3);
    }

    #[test]
    fn readers_walk_groups_the_writer_is_copying_away_from() {
        // 24 rows over 4 groups: every committed batch adds 6 to each
        // group's COUNT, so any other count is a torn read.
        let per_batch = 6u64;
        let conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let reader = conc.reader();
        // Rendezvous: each batch is submitted only once the reader has
        // started another pass, so commits and walks overlap.
        let (pass_tx, pass_rx) = channel::bounded::<()>(0);
        let walker = std::thread::spawn(move || {
            let whole = |report: Option<Vec<AggregateResult>>| match report.as_deref() {
                Some([AggregateResult::Count(c), ..]) => {
                    assert!(*c > 0 && c % per_batch == 0, "torn count {c}");
                }
                Some(other) => panic!("unexpected report {other:?}"),
                None => {}
            };
            let mut passes = 0u32;
            loop {
                let last = pass_tx.send(()).is_err();
                for g in 0..4u64 {
                    whole(reader.report(&row![g]).unwrap());
                }
                let decoded = ShardedEngine::from_snapshot_bytes(&reader.to_snapshot_bytes())
                    .expect("published snapshot decodes");
                for g in 0..4u64 {
                    whole(decoded.report(&row![g]).unwrap());
                }
                passes += 1;
                if last {
                    return (passes, decoded.rows_processed());
                }
            }
        });
        for _ in 0..20 {
            pass_rx.recv().expect("walker alive");
            conc.submit_batch(rows(24, 4)).wait().unwrap();
        }
        drop(pass_rx);
        let (passes, final_rows) = walker.join().expect("walker thread");
        assert!(passes > 20);
        assert_eq!(final_rows, 20 * 4 * per_batch);
    }

    // ---- O(touched) publish: a commit brings the snapshot it replaces up
    // to date as the worker's next table; everything else copies the table,
    // counted by `snapshots_copied_total`. ----

    fn copied(conc: &ConcurrentEngine) -> u64 {
        conc.metrics().counters[names::SNAPSHOTS_COPIED]
    }

    /// `n` rows over groups `first..first + span`.
    fn rows_over(n: u64, first: u64, span: u64) -> Vec<Row> {
        (0..n)
            .map(|i| row![first + i % span, i % 13, (i % 50) as f64])
            .collect()
    }

    /// One good batch into the engine and its never-shared twin.
    fn commit(conc: &ConcurrentEngine, twin: &mut ShardedEngine, batch: Vec<Row>) {
        let ours = conc.submit_batch(batch.clone()).wait().unwrap();
        assert_eq!(ours, twin.process_batch(&batch).unwrap());
    }

    /// Every shard's published snapshot against the same shard of a
    /// `ShardedEngine` fed the same history, and every accessor over both.
    fn assert_published_equals(conc: &ConcurrentEngine, twin: &ShardedEngine, at: &str) {
        for (i, shard) in conc.reads.published().iter().enumerate() {
            assert_eq!(
                shard.to_snapshot_bytes(),
                twin.shards[i].to_snapshot_bytes(),
                "shard {i} diverged {at}"
            );
        }
        // All but one series: an injected fault stays counted when its batch
        // rolls back, and a rollback publishes nothing — readers see that
        // count with the shard's next publish.
        let ((state, mut rest), (twin_state, mut twin_rest)) = (reads!(conc), reads!(twin));
        rest.2.retain(|(name, _)| name != names::INJECTED_FAULTS);
        twin_rest
            .2
            .retain(|(name, _)| name != names::INJECTED_FAULTS);
        assert_eq!(
            (state, rest),
            (twin_state, twin_rest),
            "accessors diverged {at}"
        );
    }

    #[test]
    fn random_schedules_publish_what_a_fresh_copy_would() {
        crate::fault::silence_injected_panics();
        // A seeded schedule, the same on every run.
        let mut rng = sketches_hash::SplitMix64::new(24);
        let mut next = move |bound: u64| sketches_hash::Rng64::gen_range(&mut rng, bound);
        let steps = if cfg!(miri) { 16 } else { 120 };

        let mut conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let mut twin = ShardedEngine::new(spec(), 2).unwrap();
        // What `merge` steps fold in: groups on both sides of the live set.
        let other = ConcurrentEngine::new(spec(), 2).unwrap();
        other.submit_batch(rows_over(40, 5, 10)).wait().unwrap();
        let mut other_twin = ShardedEngine::new(spec(), 2).unwrap();
        other_twin.process_batch(&rows_over(40, 5, 10)).unwrap();

        // Snapshots a reader took and still holds, with their bytes then.
        let mut held: Vec<(Arc<SketchEngine>, Vec<u8>)> = Vec::new();
        for step in 0..steps {
            let what = next(12);
            match what {
                // Good batches are the common step, over a moving window of
                // groups so that some are new to every table and some old.
                0..=4 => {
                    let batch = rows_over(4 + next(20), next(12), 1 + next(6));
                    commit(&conc, &mut twin, batch);
                }
                5 => {
                    // Rolled back, or its last row quarantined: by policy.
                    let ours = conc.submit_batch(poison_batch()).wait();
                    assert_eq!(ours.ok(), twin.process_batch(&poison_batch()).ok());
                }
                6 => {
                    let batch = rows_over(30, next(12), 6);
                    let shard = next(2) as usize;
                    let fault = || FaultInjector::new().at(3, FaultKind::Panic);
                    conc.arm_faults(shard, fault()).unwrap();
                    twin.arm_faults(shard, fault()).unwrap();
                    let ours = conc.submit_batch(batch.clone()).wait();
                    assert_eq!(ours.ok(), twin.process_batch(&batch).ok());
                    conc.disarm_faults();
                    twin.disarm_faults();
                }
                7 => assert_eq!(conc.flush_window().unwrap(), twin.flush_window().unwrap()),
                8 => {
                    conc.merge(&other).unwrap();
                    twin.merge(&other_twin).unwrap();
                }
                9 => {
                    let policy = match next(2) {
                        0 => FaultPolicy::FailBatch,
                        _ => FaultPolicy::Quarantine { max_samples: 4 },
                    };
                    conc.set_fault_policy(policy);
                    twin.set_fault_policy(policy);
                }
                10 => held.extend(conc.reads.published().into_iter().map(|s| {
                    let bytes = s.to_snapshot_bytes();
                    (s, bytes)
                })),
                _ => {
                    if !held.is_empty() {
                        held.swap_remove(next(held.len() as u64) as usize);
                    }
                }
            }
            assert_published_equals(&conc, &twin, &format!("after step {step} (kind {what})"));
            for (snapshot, bytes) in &held {
                assert_eq!(
                    &snapshot.to_snapshot_bytes(),
                    bytes,
                    "held snapshot changed"
                );
            }
        }
        // The schedule took both publish paths.
        let published = conc.metrics().counters[names::SNAPSHOTS_PUBLISHED];
        assert!(copied(&conc) > 2 && copied(&conc) < published);
    }

    #[test]
    fn a_fresh_engine_publishes_without_copying() {
        // The epoch-0 snapshot is the first commit's next table, for a new
        // engine and a restored one alike; no reader, no copy.
        let conc = ConcurrentEngine::new(spec(), 3).unwrap();
        let mut twin = ShardedEngine::new(spec(), 3).unwrap();
        for i in 0..5 {
            commit(&conc, &mut twin, rows_over(24, i, 4));
        }
        assert_eq!(copied(&conc), 0);
        assert_eq!(conc.metrics().counters[names::SNAPSHOTS_PUBLISHED], 15);
        assert_published_equals(&conc, &twin, "after five commits");

        let bytes = conc.to_snapshot_bytes();
        let restored = ConcurrentEngine::from_snapshot_bytes(&bytes).unwrap();
        let mut twin = ShardedEngine::from_snapshot_bytes(&bytes).unwrap();
        for i in 0..3 {
            commit(&restored, &mut twin, rows_over(24, i, 4));
        }
        assert_eq!(copied(&restored), 0);
        assert_published_equals(&restored, &twin, "after a restore");
    }

    #[test]
    fn a_commit_copies_the_table_only_when_a_reader_holds_the_replaced_snapshot() {
        let conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let mut twin = ShardedEngine::new(spec(), 2).unwrap();
        // No reader holds anything: every commit reuses the snapshot it
        // replaces, the first one epoch 0's.
        for i in 0..6 {
            commit(&conc, &mut twin, rows_over(24, i, 4));
        }
        assert_eq!(copied(&conc), 0);
        assert_eq!(conc.metrics().counters[names::SNAPSHOTS_PUBLISHED], 12);

        // Holding the *published* snapshot costs one copy, at the commit
        // that replaces it — on that shard only.
        let held = conc.reads.published_shard(0);
        let held_bytes = held.to_snapshot_bytes();
        commit(&conc, &mut twin, rows_over(24, 2, 4));
        assert_eq!(copied(&conc), 1);
        commit(&conc, &mut twin, rows_over(24, 3, 4));
        assert_eq!(copied(&conc), 1);
        assert_eq!(held.to_snapshot_bytes(), held_bytes);
        // The copy restarts the cycle: nothing further is owed.
        drop(held);
        commit(&conc, &mut twin, rows_over(24, 0, 4));
        commit(&conc, &mut twin, rows_over(24, 1, 4));
        assert_eq!(copied(&conc), 1);
        assert_eq!(conc.metrics().counters[names::SNAPSHOTS_PUBLISHED], 20);
        assert_published_equals(&conc, &twin, "after the held snapshot");
    }

    #[test]
    fn a_rolled_back_batch_publishes_nothing_and_the_next_commit_reuses() {
        let conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let mut twin = ShardedEngine::new(spec(), 2).unwrap();
        for batch in [rows_over(36, 0, 6), rows_over(12, 0, 3)] {
            commit(&conc, &mut twin, batch);
        }
        let epochs = |c: &ConcurrentEngine| {
            let gauges = c.metrics().gauges;
            [0, 1].map(|i| gauges[&names::publish_epoch(i)])
        };
        let before = (epochs(&conc), conc.to_snapshot_bytes());

        // A batch that writes every group, creates groups 6..9 and then
        // fails: nothing is published, and nothing of it may leak into the
        // next publish through the worker's table.
        let mut torn = rows_over(27, 0, 9);
        torn.push(row![0u64, 1u64, "not-a-number"]);
        conc.submit_batch(torn.clone()).wait().unwrap_err();
        twin.process_batch(&torn).unwrap_err();
        assert_eq!((epochs(&conc), conc.to_snapshot_bytes()), before);

        // The next commit touches groups the second one did not: what it
        // publishes has the second commit's groups too.
        commit(&conc, &mut twin, rows_over(10, 4, 2));
        assert_eq!(conc.num_groups(), 6);
        assert_published_equals(&conc, &twin, "after the rollback");
        assert_eq!(copied(&conc), 0, "every publish reused");
    }

    #[test]
    fn new_groups_reach_the_writers_table_and_flushed_groups_stay_gone() {
        let mut conc = ConcurrentEngine::new(spec(), 2).unwrap();
        let mut twin = ShardedEngine::new(spec(), 2).unwrap();
        // Epoch 0's snapshot, from before any group existed, is the first
        // commit's next table: the second batch's new groups go into it.
        for batch in [rows_over(9, 0, 3), rows_over(9, 3, 3)] {
            commit(&conc, &mut twin, batch);
        }
        assert_eq!(copied(&conc), 0);
        assert_eq!(conc.num_groups(), 6);
        assert_published_equals(&conc, &twin, "after two commits");

        // A flush is not a batch commit: it copies, and discards the
        // replaced table with the groups it still lists.
        assert_eq!(conc.flush_window().unwrap(), twin.flush_window().unwrap());
        assert_eq!(copied(&conc), 2);
        for _ in 0..3 {
            commit(&conc, &mut twin, rows_over(8, 0, 2));
            assert_eq!(conc.groups(), vec![row![0u64], row![1u64]]);
        }
        // One copy per shard to start over, reuse from then on.
        assert_eq!(copied(&conc), 2);
        assert_published_equals(&conc, &twin, "after the flush");
    }
}
