//! Telemetry wiring for the stream engines.
//!
//! [`EngineMetrics`] is the hot-path metric block: named struct fields
//! (no map lookup per row) holding the workspace's own
//! [`sketches_obs`] primitives. The engines bump row-level counters per
//! row and batch-level counters plus the batch-latency histogram once
//! per batch, always behind the `enabled` flag so the disabled cost is
//! one branch.
//!
//! # Counter exactness
//!
//! Batches are transactional, and so are the row-level counters: the
//! pre-batch readings are captured with the undo log and rewound on
//! rollback, so `rows_ingested_total` counts rows that *committed*, not
//! rows that were attempted. The one deliberate exception is
//! `injected_faults_total`, which mirrors the fault injector's attempt
//! counter — an injected fault fired even if its batch then rolled
//! back, and drills rely on the attempt counter not rewinding.
//!
//! # Merge semantics
//!
//! Every snapshot cut from these metrics merges exactly: counters and
//! gauges add, latency histograms KLL-merge (all obs histograms share
//! one fixed `(k, seed)` shape). A four-shard engine's merged snapshot
//! therefore reports byte-identical counter totals to a sequential
//! engine fed the same stream.

use std::sync::Arc;

use sketches_obs::{Clock, Counter, LatencyHistogram, MetricsSnapshot, MonotonicClock, Stage};

/// Metric-name constants shared by engines, tools, and tests, following
/// the Prometheus conventions: `_total` suffix on counters, `_seconds`
/// on duration histograms, labels inline in the name string.
pub mod names {
    /// Rows absorbed into sketch state (committed batches only).
    pub const ROWS_INGESTED: &str = "rows_ingested_total";
    /// Rows diverted to the dead-letter buffer (committed batches only).
    pub const ROWS_QUARANTINED: &str = "rows_quarantined_total";
    /// Batches that committed.
    pub const BATCHES_COMMITTED: &str = "batches_committed_total";
    /// Batches that rolled back (poison row, injected fault, or panic).
    pub const BATCHES_ROLLED_BACK: &str = "batches_rolled_back_total";
    /// Ingest panics contained by a batch supervisor.
    pub const PANICS_CONTAINED: &str = "panics_contained_total";
    /// Injected faults that fired (never rewound on rollback).
    pub const INJECTED_FAULTS: &str = "injected_faults_total";
    /// End-to-end `process_batch` latency distribution.
    pub const BATCH_LATENCY: &str = "batch_latency_seconds";
    /// Groups currently tracked (gauge).
    pub const GROUPS: &str = "groups";
    /// Sketch memory across groups, in bytes (gauge).
    pub const STATE_BYTES: &str = "state_bytes";
    /// Shard count of a sharded engine (gauge).
    pub const SHARDS: &str = "shards";
    /// WAL records appended by the durable layer.
    pub const WAL_APPENDS: &str = "wal_appends_total";
    /// WAL record bytes written by the durable layer.
    pub const WAL_BYTES_WRITTEN: &str = "wal_bytes_written_total";
    /// WAL append+fsync latency distribution.
    pub const WAL_FSYNC_SECONDS: &str = "wal_fsync_seconds";
    /// Full checkpoint-sequence latency distribution.
    pub const CHECKPOINT_SECONDS: &str = "checkpoint_seconds";
    /// Size of the most recent checkpoint snapshot, in bytes (gauge).
    pub const CHECKPOINT_BYTES_LAST: &str = "checkpoint_bytes_last";
    /// Current durable epoch (gauge).
    pub const EPOCH: &str = "epoch";
    /// Rows in the current WAL segment (gauge).
    pub const WAL_ROWS: &str = "wal_rows";
    /// Record bytes in the current WAL segment (gauge).
    pub const WAL_BYTES: &str = "wal_bytes";
    /// Records in the current WAL segment (gauge).
    pub const WAL_BATCHES: &str = "wal_batches";
    /// Successful `recover()` calls on this handle's directory.
    pub const RECOVERIES: &str = "recoveries_total";
    /// Batches replayed from the WAL during recovery.
    pub const RECOVERY_BATCHES_REPLAYED: &str = "recovery_batches_replayed_total";
    /// Rows replayed from the WAL during recovery.
    pub const RECOVERY_ROWS_REPLAYED: &str = "recovery_rows_replayed_total";
    /// Torn WAL tails truncated away during recovery.
    pub const RECOVERY_TORN_TAIL_TRUNCATIONS: &str = "recovery_torn_tail_truncations_total";
    /// Bytes of torn WAL tail truncated away during recovery.
    pub const RECOVERY_TORN_TAIL_BYTES: &str = "recovery_torn_tail_bytes_total";
    /// Damaged checkpoints skipped while falling back to an older epoch.
    pub const RECOVERY_CHECKPOINT_FALLBACKS: &str = "recovery_checkpoint_fallbacks_total";
    /// Uncommitted checkpoint temp files discarded during recovery.
    pub const RECOVERY_STRAY_TMP_DISCARDED: &str = "recovery_stray_tmp_discarded_total";
    /// Checkpoint epochs examined during recovery (1 on a clean load).
    pub const RECOVERY_EPOCHS_SCANNED: &str = "recovery_epochs_scanned_total";

    /// Submit calls to a concurrent engine waiting for or holding its
    /// coordinator lock (gauge).
    pub const SUBMIT_QUEUE_DEPTH: &str = "submit_queue_depth";
    /// Rows submitted to a concurrent engine whose batch has not resolved
    /// yet — the bound on how far published reads lag ingest (gauge).
    pub const PUBLISH_LAG_ROWS: &str = "publish_lag_rows";
    /// Shard snapshots published by a concurrent engine (commit, window
    /// flush, or merge).
    pub const SNAPSHOTS_PUBLISHED: &str = "snapshots_published_total";
    /// Those of them that copied a shard's whole table, not only what a batch touched.
    pub const SNAPSHOTS_COPIED: &str = "snapshots_copied_total";

    /// The per-shard routed-row gauge name, `shard_rows_routed{shard="i"}`.
    #[must_use]
    pub fn shard_rows_routed(shard: usize) -> String {
        format!("shard_rows_routed{{shard=\"{shard}\"}}")
    }

    /// The per-shard publish-epoch gauge name, `publish_epoch{shard="i"}`
    /// — how many snapshots the shard has published; a frozen epoch under
    /// live ingest means the shard stopped publishing.
    #[must_use]
    pub fn publish_epoch(shard: usize) -> String {
        format!("publish_epoch{{shard=\"{shard}\"}}")
    }

    /// The labelled checkpoint counter name,
    /// `checkpoints_total{cause="rows"|"bytes"|"forced"|"window"}`.
    #[must_use]
    pub fn checkpoints_total(cause: &str) -> String {
        format!("checkpoints_total{{cause=\"{cause}\"}}")
    }

    /// The per-stage latency histogram name,
    /// `stage_latency_seconds{stage="queue_wait"|"engine_apply"|...}`.
    /// The stage vocabulary is [`sketches_obs::Stage`], shared with the
    /// per-request trace spans so the aggregate view (these histograms)
    /// and the exemplar view (traces) always agree on stage names.
    #[must_use]
    pub fn stage_latency(stage: sketches_obs::Stage) -> String {
        format!("stage_latency_seconds{{stage=\"{}\"}}", stage.label())
    }
}

/// The hot-path metric block one engine (or the sharded router) owns.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Whether the owning engine bumps metrics at all. On by default;
    /// disabling reduces the per-row cost to one branch.
    pub(crate) enabled: bool,
    /// Time source for the batch-latency histogram. Binaries keep the
    /// default [`MonotonicClock`]; tests inject a
    /// [`sketches_obs::ManualClock`] so timing metrics are deterministic.
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) rows_ingested: Counter,
    pub(crate) rows_quarantined: Counter,
    pub(crate) batches_committed: Counter,
    pub(crate) batches_rolled_back: Counter,
    pub(crate) panics_contained: Counter,
    pub(crate) injected_faults: Counter,
    pub(crate) batch_latency: LatencyHistogram,
    /// Submit-to-lock-acquired wait in the concurrent engine (stays empty
    /// on engines with no coordinator lock).
    pub(crate) stage_queue_wait: LatencyHistogram,
    /// Shard-worker apply time (route + ingest + collect).
    pub(crate) stage_engine_apply: LatencyHistogram,
    /// Commit broadcast + epoch snapshot publish time.
    pub(crate) stage_publish: LatencyHistogram,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Creates an enabled metric block on the real monotonic clock.
    #[must_use]
    pub fn new() -> Self {
        Self {
            enabled: true,
            clock: Arc::new(MonotonicClock::new()),
            rows_ingested: Counter::new(),
            rows_quarantined: Counter::new(),
            batches_committed: Counter::new(),
            batches_rolled_back: Counter::new(),
            panics_contained: Counter::new(),
            injected_faults: Counter::new(),
            batch_latency: LatencyHistogram::new(),
            stage_queue_wait: LatencyHistogram::new(),
            stage_engine_apply: LatencyHistogram::new(),
            stage_publish: LatencyHistogram::new(),
        }
    }

    /// Reads the clock at batch start (`None` when disabled).
    pub(crate) fn start_batch(&self) -> Option<u64> {
        self.enabled.then(|| self.clock.now_nanos())
    }

    /// Records the batch-latency sample closing a
    /// [`start_batch`](Self::start_batch) reading.
    pub(crate) fn finish_batch(&mut self, start: Option<u64>) {
        if let Some(start) = start {
            let elapsed = self.clock.now_nanos().saturating_sub(start);
            self.batch_latency.record_nanos(elapsed);
        }
    }

    /// Folds another block's readings into this one (engine merge).
    pub(crate) fn absorb(&mut self, other: &Self) {
        self.rows_ingested.add(other.rows_ingested.get());
        self.rows_quarantined.add(other.rows_quarantined.get());
        self.batches_committed.add(other.batches_committed.get());
        self.batches_rolled_back
            .add(other.batches_rolled_back.get());
        self.panics_contained.add(other.panics_contained.get());
        self.injected_faults.add(other.injected_faults.get());
        self.batch_latency.merge(&other.batch_latency);
        self.stage_queue_wait.merge(&other.stage_queue_wait);
        self.stage_engine_apply.merge(&other.stage_engine_apply);
        self.stage_publish.merge(&other.stage_publish);
    }

    /// Cuts a snapshot. Every counter key is always emitted — zeros
    /// included — so snapshots from any two engines carry identical key
    /// sets and merged totals compare exactly.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter(names::ROWS_INGESTED, self.rows_ingested.get());
        snap.add_counter(names::ROWS_QUARANTINED, self.rows_quarantined.get());
        snap.add_counter(names::BATCHES_COMMITTED, self.batches_committed.get());
        snap.add_counter(names::BATCHES_ROLLED_BACK, self.batches_rolled_back.get());
        snap.add_counter(names::PANICS_CONTAINED, self.panics_contained.get());
        snap.add_counter(names::INJECTED_FAULTS, self.injected_faults.get());
        snap.put_histogram(names::BATCH_LATENCY, self.batch_latency.snapshot());
        snap.put_histogram(
            &names::stage_latency(Stage::QueueWait),
            self.stage_queue_wait.snapshot(),
        );
        snap.put_histogram(
            &names::stage_latency(Stage::EngineApply),
            self.stage_engine_apply.snapshot(),
        );
        snap.put_histogram(
            &names::stage_latency(Stage::Publish),
            self.stage_publish.snapshot(),
        );
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_obs::ManualClock;

    #[test]
    fn snapshot_always_emits_every_counter_key() {
        let snap = EngineMetrics::new().snapshot();
        for key in [
            names::ROWS_INGESTED,
            names::ROWS_QUARANTINED,
            names::BATCHES_COMMITTED,
            names::BATCHES_ROLLED_BACK,
            names::PANICS_CONTAINED,
            names::INJECTED_FAULTS,
        ] {
            assert_eq!(snap.counters.get(key), Some(&0), "missing {key}");
        }
        assert!(snap.histograms.contains_key(names::BATCH_LATENCY));
        for stage in [Stage::QueueWait, Stage::EngineApply, Stage::Publish] {
            assert!(
                snap.histograms.contains_key(&names::stage_latency(stage)),
                "missing stage histogram for {stage}"
            );
        }
    }

    #[test]
    fn stage_latency_names_share_the_trace_vocabulary() {
        assert_eq!(
            names::stage_latency(Stage::WalAppend),
            "stage_latency_seconds{stage=\"wal_append\"}"
        );
        assert_eq!(
            names::stage_latency(Stage::Fsync),
            "stage_latency_seconds{stage=\"fsync\"}"
        );
    }

    #[test]
    fn batch_timing_uses_the_injected_clock() {
        let mut m = EngineMetrics::new();
        let clock = Arc::new(ManualClock::new());
        m.clock = clock.clone();
        let start = m.start_batch();
        clock.advance(2_500);
        m.finish_batch(start);
        let snap = m.snapshot();
        let hist = &snap.histograms[names::BATCH_LATENCY];
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.quantile_nanos(1.0).unwrap(), 2_500.0);
    }

    #[test]
    fn disabled_block_records_nothing() {
        let mut m = EngineMetrics::new();
        m.enabled = false;
        let start = m.start_batch();
        assert!(start.is_none());
        m.finish_batch(start);
        assert_eq!(m.snapshot().histograms[names::BATCH_LATENCY].count(), 0);
    }

    #[test]
    fn absorb_adds_counters_and_merges_histograms() {
        let mut a = EngineMetrics::new();
        let mut b = EngineMetrics::new();
        a.rows_ingested.add(10);
        b.rows_ingested.add(5);
        b.batches_committed.inc();
        a.batch_latency.record_nanos(100);
        b.batch_latency.record_nanos(200);
        a.absorb(&b);
        assert_eq!(a.rows_ingested.get(), 15);
        assert_eq!(a.batches_committed.get(), 1);
        assert_eq!(a.batch_latency.count(), 2);
    }
}
