//! A Gigascope-style mini stream-aggregation engine.
//!
//! §3 of the survey describes the ISP-era systems (Gigascope at AT&T,
//! CMON at Sprint) whose defining need was "not to build one sketch, but
//! to maintain huge numbers of sketches in parallel (i.e., to support
//! GROUP BY aggregate queries over many groups)". This crate is that
//! substrate:
//!
//! * [`value`] — a small dynamic value/row model (u64, i64, f64, string).
//! * [`query`] — the aggregate specification: GROUP BY some fields,
//!   compute {COUNT, SUM, COUNT DISTINCT, QUANTILES, TOP-K} per group.
//! * [`engine`] — [`engine::SketchEngine`]: per-group sketch state
//!   (HLL++ / KLL / SpaceSaving), with memory accounting, tumbling
//!   windows, and engine-level merge (distributed GROUP BY).
//! * [`sharded`] — [`sharded::ShardedEngine`]: thread-parallel ingest over
//!   N engine shards, routing rows by grouping-key hash; per-group results
//!   identical to the sequential engine.
//! * [`concurrent`] — [`concurrent::ConcurrentEngine`]: serve while
//!   ingesting — long-lived shard workers, a submit/poll batch API
//!   ([`concurrent::BatchTicket`]), and one epoch-published immutable
//!   snapshot per shard so reads never block behind ingest. (The batch
//!   protocol and the cross-shard read accessors these two topologies
//!   share live once, in the private `router` module.)
//! * [`exact`] — [`exact::ExactEngine`]: the same query model over exact
//!   per-group state, the baseline of experiment E16.
//! * [`fault`] — the fault model: transactional batches with typed
//!   [`fault::BatchError`]s, poison-row quarantine
//!   ([`fault::FaultPolicy`]), and a deterministic
//!   [`fault::FaultInjector`] for recovery drills.
//! * [`snapshot`] — checksummed checkpoint/restore
//!   ([`snapshot::Snapshot`]): every corruption detected as a typed error,
//!   restores byte-exact engine state.
//! * [`stream_engine`] — [`stream_engine::StreamEngine`]: the unified
//!   trait both engines implement, so durable storage, experiments, and
//!   equivalence tests are written once.
//! * [`durable`] — [`durable::DurableEngine`]: crash-safe persistence for
//!   any [`stream_engine::StreamEngine`] — atomic checkpoints, a
//!   checksummed write-ahead log, bounded checkpoint lag, and recovery
//!   that tolerates a torn tail but rejects interior corruption.
//! * [`metrics`] — hot-path telemetry ([`metrics::EngineMetrics`]):
//!   exact transactional counters plus KLL-backed latency histograms,
//!   snapshotted via [`stream_engine::StreamEngine::metrics`] and
//!   mergeable across shards without loss.
//! * [`view`] — [`view::EngineView`]: the read/write split at engine
//!   granularity. Every engine cuts a slim query-side view (truncated
//!   top-k entries, cloned small sketches, SF-sketch slim halves) that is
//!   a fraction of the fat state's size and is what cross-shard merges
//!   and the serving wire actually ship.

#![forbid(unsafe_code)]

pub mod concurrent;
pub mod durable;
pub mod engine;
pub mod exact;
pub mod fault;
pub mod metrics;
pub mod query;
mod router;
pub mod sharded;
pub mod snapshot;
pub mod stream_engine;
pub mod value;
pub mod view;

pub use concurrent::{BatchTicket, ConcurrentEngine, ReadHandle};
pub use durable::{
    CheckpointPolicy, DurableEngine, KillPoint, RecoveryReport, SIMULATED_CRASH_MARKER,
};
pub use engine::{EngineConfig, SketchEngine, SF_DEPTH};
pub use exact::ExactEngine;
pub use fault::{
    silence_injected_panics, BatchCause, BatchError, BatchSummary, DeadLetters, FaultInjector,
    FaultKind, FaultPolicy, QuarantinedRow,
};
pub use metrics::EngineMetrics;
pub use query::{Aggregate, AggregateResult, QuerySpec};
pub use sharded::ShardedEngine;
pub use sketches_obs::{
    Clock, IdGen, ManualClock, MetricsSnapshot, MonotonicClock, Sampling, Stage, Trace,
    TraceContext, TraceSink,
};
pub use snapshot::{Snapshot, SnapshotKind};
pub use stream_engine::StreamEngine;
pub use value::{Row, Value};
pub use view::{EngineView, ViewState};
