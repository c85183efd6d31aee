//! Crash-safe persistence for any [`StreamEngine`]: atomic checkpoints plus
//! a write-ahead log, behind [`DurableEngine`].
//!
//! # Durability model
//!
//! A [`DurableEngine`] owns one directory holding exactly one **epoch** of
//! state in the steady case:
//!
//! ```text
//! checkpoint-00000000000000000042.skcp   snapshot envelope (crate::snapshot)
//! wal-00000000000000000042.wal           batches committed since it
//! ```
//!
//! Every committed batch is appended to the WAL segment *after* the wrapped
//! engine absorbs it (commit-then-log: a batch the engine rejected is never
//! logged, so replay cannot re-fail). When the segment exceeds the
//! [`CheckpointPolicy`] lag bound — so many rows or so many bytes — the
//! engine checkpoints: snapshot → temp file → `fsync` → atomic rename →
//! directory `fsync` → fresh WAL segment → old epoch deleted. A crash at
//! *any* instant therefore leaves either the old epoch intact (plus its WAL
//! tail) or the new checkpoint already durable; never neither.
//!
//! [`DurableEngine::recover`] inverts this: load the newest checkpoint that
//! validates, replay its WAL segment, and resume. The WAL tail obeys one
//! rule:
//!
//! * a **torn final record** (truncated mid-append, bad trailing checksum)
//!   is expected crash damage — it is truncated away with a warning in the
//!   [`RecoveryReport`], never a panic;
//! * damage **before** the final record (bit flips, a bad sequence number,
//!   an undecodable body) cannot be produced by a crash of this writer and
//!   is rejected as [`SketchError::Corrupted`].
//!
//! The `fsync` discipline: record appends `sync_data` the segment; the
//! checkpoint temp file is `sync_all`-ed before the rename and the
//! directory is fsynced after every rename/create/delete, so the rename is
//! the single atomic commit point of an epoch.
//!
//! # Crash drills
//!
//! [`DurableEngine::arm_kill`] plants a simulated crash ([`KillPoint`]) at
//! a chosen batch: the write is skipped or half-performed exactly as a real
//! crash would leave it, the store poisons itself (all further ingest
//! refused), and the caller recovers from disk — the drill harness of
//! experiment E23 and the `durable_recovery` property tests.
//!
//! One deliberate non-guarantee: an armed [`crate::FaultInjector`] is a
//! test harness living in memory, not durable state — recovery does not
//! re-arm it, so drills combining injectors with crash kills must re-arm
//! after [`DurableEngine::recover`].

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sketches_core::codec::{ByteReader, ByteWriter};
use sketches_core::{SketchError, SketchResult};
use sketches_hash::xxhash::xxh64;
use sketches_obs::{Clock, MetricsSnapshot, MonotonicClock, Registry, Stage, TraceContext};

use crate::fault::{BatchCause, BatchError, BatchSummary, FaultPolicy};
use crate::metrics::names;
use crate::query::AggregateResult;
use crate::stream_engine::StreamEngine;
use crate::value::{read_value, write_value, Row, Value};

/// Substring present in every error raised by a simulated crash
/// ([`DurableEngine::arm_kill`]); lets drills distinguish planted kills
/// from genuine I/O failures.
pub const SIMULATED_CRASH_MARKER: &str = "streamdb-simulated-crash";

/// WAL segment magic bytes.
const WAL_MAGIC: &[u8; 4] = b"SKWL";
/// WAL format version.
const WAL_VERSION: u16 = 1;
/// Bytes of the segment header: magic + version + epoch.
const WAL_HEADER_LEN: u64 = 4 + 2 + 8;
/// Seed for the per-record xxh64 checksum (distinct from the snapshot
/// envelope seed, so a WAL record pasted into a checkpoint cannot
/// accidentally validate).
const WAL_CHECKSUM_SEED: u64 = 0x5AFE_C0DE_CAFE_0002;

/// Default checkpoint lag bound in WAL rows.
pub const DEFAULT_MAX_WAL_ROWS: u64 = 100_000;
/// Default checkpoint lag bound in WAL bytes.
pub const DEFAULT_MAX_WAL_BYTES: u64 = 16 * 1024 * 1024;

/// When a [`DurableEngine`] takes a checkpoint: after at most this many
/// rows *or* this many bytes of WAL, whichever trips first. Bounds both
/// recovery time (replay work) and disk usage between checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    max_wal_rows: u64,
    max_wal_bytes: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self {
            max_wal_rows: DEFAULT_MAX_WAL_ROWS,
            max_wal_bytes: DEFAULT_MAX_WAL_BYTES,
        }
    }
}

impl CheckpointPolicy {
    /// Creates a policy checkpointing after at most `max_wal_rows` rows or
    /// `max_wal_bytes` bytes of WAL.
    ///
    /// # Errors
    /// Both bounds must be at least 1 (a zero bound would checkpoint on
    /// every batch *before* it exists).
    pub fn new(max_wal_rows: u64, max_wal_bytes: u64) -> SketchResult<Self> {
        if max_wal_rows == 0 {
            return Err(SketchError::invalid("max_wal_rows", "must be at least 1"));
        }
        if max_wal_bytes == 0 {
            return Err(SketchError::invalid("max_wal_bytes", "must be at least 1"));
        }
        Ok(Self {
            max_wal_rows,
            max_wal_bytes,
        })
    }

    /// The row lag bound.
    #[must_use]
    pub fn max_wal_rows(&self) -> u64 {
        self.max_wal_rows
    }

    /// The byte lag bound.
    #[must_use]
    pub fn max_wal_bytes(&self) -> u64 {
        self.max_wal_bytes
    }
}

/// Where a simulated crash fires inside
/// [`DurableEngine::process_batch`]. The first three interrupt the WAL
/// append; the last three interrupt the checkpoint that batch triggers
/// (arming one *forces* a checkpoint at that batch so drills are
/// deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Crash after the engine commits the batch but before any WAL write:
    /// the batch is lost on recovery.
    BeforeWalAppend,
    /// Crash halfway through the record write: a torn WAL tail, truncated
    /// on recovery — the batch is lost.
    MidWalAppend,
    /// Crash after the record is written and fsynced: the batch survives.
    AfterWalAppend,
    /// Crash halfway through writing the checkpoint temp file: the stray
    /// `.tmp` is discarded on recovery; the batch survives via the old
    /// checkpoint plus its WAL.
    MidCheckpointTemp,
    /// Crash after the temp file is durable but before the atomic rename:
    /// same recovery as [`KillPoint::MidCheckpointTemp`].
    BeforeCheckpointRename,
    /// Crash after the rename commits the new checkpoint but before the new
    /// WAL segment exists and the old epoch is deleted: the batch survives
    /// via the new checkpoint.
    AfterCheckpointRename,
}

impl KillPoint {
    /// Whether this kill interrupts the checkpoint phase (and therefore
    /// forces a checkpoint at the armed batch).
    #[must_use]
    pub fn is_checkpoint_phase(self) -> bool {
        matches!(
            self,
            Self::MidCheckpointTemp | Self::BeforeCheckpointRename | Self::AfterCheckpointRename
        )
    }

    /// Whether a batch killed at this point is durable — i.e. present
    /// again after [`DurableEngine::recover`].
    #[must_use]
    pub fn batch_survives(self) -> bool {
        !matches!(self, Self::BeforeWalAppend | Self::MidWalAppend)
    }
}

/// What [`DurableEngine::recover`] did: which epoch it loaded, how much
/// WAL it replayed, and every non-fatal anomaly it repaired (torn tail,
/// stray temp file, missing segment).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovery loaded.
    pub epoch: u64,
    /// Committed batches replayed from the WAL segment.
    pub batches_replayed: u64,
    /// Rows replayed from the WAL segment.
    pub rows_replayed: u64,
    /// Bytes of torn WAL tail truncated away (0 for a clean shutdown).
    pub torn_tail_bytes: u64,
    /// Torn-tail truncations performed (torn headers included): the count
    /// behind the `recovery_torn_tail_truncations_total` metric.
    pub torn_tail_truncations: u64,
    /// Human-readable notes on every repaired anomaly.
    pub warnings: Vec<String>,
}

/// A crash-safe wrapper around any [`StreamEngine`]: checkpoints plus WAL
/// in one directory, with [`DurableEngine::recover`] restoring state
/// byte-exactly after a crash. See the module docs for the full model.
#[derive(Debug)]
pub struct DurableEngine<E> {
    dir: PathBuf,
    engine: E,
    policy: CheckpointPolicy,
    epoch: u64,
    wal: File,
    /// Rows appended to the current segment.
    wal_rows: u64,
    /// Record bytes appended to the current segment (header excluded).
    wal_bytes: u64,
    /// Records appended to the current segment == next record sequence.
    wal_batches: u64,
    /// Batches offered to `process_batch` over this handle's lifetime;
    /// the index `arm_kill` matches against.
    batch_counter: u64,
    kill: Option<(u64, KillPoint)>,
    poisoned: bool,
    recovery: Option<RecoveryReport>,
    /// Durability telemetry (WAL/checkpoint/recovery accounting). Batch
    /// cadence, so the dynamic string-keyed [`Registry`] is fine here.
    registry: Registry,
    /// Time source for fsync/checkpoint latency histograms and event
    /// timestamps; swappable via [`DurableEngine::set_clock`].
    clock: Arc<dyn Clock>,
}

/// Renders the checkpoint file name of an epoch (zero-padded so the
/// lexicographic order of names is the numeric order of epochs).
fn checkpoint_name(epoch: u64) -> String {
    format!("checkpoint-{epoch:020}.skcp")
}

/// Renders the WAL segment name of an epoch.
fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch:020}.wal")
}

/// Parses `name` as `{prefix}{epoch:020}{suffix}`, returning the epoch.
fn parse_epoch(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?;
    let digits = rest.strip_suffix(suffix)?;
    if digits.len() != 20 {
        return None;
    }
    digits.parse().ok()
}

/// Fsyncs a directory so a rename/create/delete inside it is durable.
fn sync_dir(dir: &Path) -> SketchResult<()> {
    let handle = File::open(dir).map_err(|e| SketchError::io("opening directory to fsync", &e))?;
    handle
        .sync_all()
        .map_err(|e| SketchError::io("fsyncing directory", &e))
}

/// The error raised when a planted [`KillPoint`] fires.
fn crash_error(point: KillPoint) -> SketchError {
    SketchError::Io {
        context: format!("{SIMULATED_CRASH_MARKER}: killed at {point:?}"),
        reason: "simulated crash".to_string(),
    }
}

/// The error every entry point returns once a persistence failure has
/// poisoned the handle.
fn poisoned_error() -> SketchError {
    SketchError::invalid(
        "engine",
        "durable store is poisoned after a persistence failure; recover() from disk",
    )
}

/// Creates (or truncates) the WAL segment at `path` for `epoch` with a
/// durable header, returning the open handle.
fn create_wal_segment(path: &Path, epoch: u64) -> SketchResult<File> {
    let mut header = ByteWriter::new();
    header.put_bytes(WAL_MAGIC);
    header.put_u16(WAL_VERSION);
    header.put_u64(epoch);
    let mut wal = File::create(path)
        .map_err(|e| SketchError::io(format!("creating {}", path.display()), &e))?;
    wal.write_all(&header.into_bytes())
        .map_err(|e| SketchError::io("writing wal header", &e))?;
    wal.sync_all()
        .map_err(|e| SketchError::io("fsyncing wal header", &e))?;
    Ok(wal)
}

/// Encodes one WAL record: `len | body | xxh64(body)`, where the body is
/// the record sequence number, the fault policy the batch ran under, and
/// the rows verbatim.
fn encode_record(seq: u64, policy: FaultPolicy, rows: &[Row]) -> Vec<u8> {
    let mut body = ByteWriter::new();
    body.put_u64(seq);
    match policy {
        FaultPolicy::FailBatch => body.put_u8(0),
        FaultPolicy::Quarantine { max_samples } => {
            body.put_u8(1);
            body.put_u64(max_samples as u64);
        }
    }
    body.put_u64(rows.len() as u64);
    for row in rows {
        body.put_u64(row.len() as u64);
        for value in row {
            write_value(value, &mut body);
        }
    }
    let body = body.into_bytes();
    let mut record = ByteWriter::new();
    record.put_u64(body.len() as u64);
    record.put_bytes(&body);
    record.put_u64(xxh64(&body, WAL_CHECKSUM_SEED));
    record.into_bytes()
}

/// Decodes a checksum-verified WAL record body.
fn decode_record(body: &[u8], expect_seq: u64) -> SketchResult<(FaultPolicy, Vec<Row>)> {
    let mut r = ByteReader::new(body);
    let seq = r.u64()?;
    if seq != expect_seq {
        return Err(SketchError::corrupted(format!(
            "wal record sequence {seq} where {expect_seq} was expected"
        )));
    }
    let policy = match r.u8()? {
        0 => FaultPolicy::FailBatch,
        1 => {
            let max = r.u64()?;
            let max_samples = usize::try_from(max)
                .map_err(|_| SketchError::corrupted("wal record quarantine bound exceeds usize"))?;
            FaultPolicy::Quarantine { max_samples }
        }
        tag => {
            return Err(SketchError::corrupted(format!(
                "unknown wal fault-policy tag {tag} (expected 0..=1)"
            )));
        }
    };
    let num_rows = r.array_len(8, "wal batch rows")?;
    let mut rows = Vec::with_capacity(num_rows);
    for _ in 0..num_rows {
        let arity = r.array_len(9, "wal row values")?;
        let mut row: Row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(read_value(&mut r)?);
        }
        rows.push(row);
    }
    r.expect_end("wal record body")?;
    Ok((policy, rows))
}

impl<E: StreamEngine> DurableEngine<E> {
    /// Creates a durable store in `dir` (created if absent) around
    /// `engine`, writing its initial checkpoint (epoch 0) and an empty WAL
    /// segment before returning.
    ///
    /// # Errors
    /// Rejects a directory that already holds checkpoint or WAL files
    /// (recover those with [`DurableEngine::recover`] instead), and
    /// propagates every I/O failure as [`SketchError::Io`].
    pub fn create(
        dir: impl Into<PathBuf>,
        engine: E,
        policy: CheckpointPolicy,
    ) -> SketchResult<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| SketchError::io(format!("creating {}", dir.display()), &e))?;
        if !list_epoch_files(&dir)?.is_empty() {
            return Err(SketchError::invalid(
                "dir",
                format!(
                    "{} already holds checkpoint/wal files; use recover()",
                    dir.display()
                ),
            ));
        }
        let mut this = Self {
            dir,
            engine,
            policy,
            epoch: 0,
            // Placeholder handle; replaced two lines down once the real
            // segment exists.
            wal: File::open("/dev/null").map_err(|e| SketchError::io("opening /dev/null", &e))?,
            wal_rows: 0,
            wal_bytes: 0,
            wal_batches: 0,
            batch_counter: 0,
            kill: None,
            poisoned: false,
            recovery: None,
            registry: Registry::new(),
            clock: Arc::new(MonotonicClock::new()),
        };
        this.write_checkpoint_file(0, None)?;
        this.wal = create_wal_segment(&this.dir.join(wal_name(0)), 0)?;
        sync_dir(&this.dir)?;
        Ok(this)
    }

    /// Recovers a durable store from `dir` with the default
    /// [`CheckpointPolicy`]. See [`DurableEngine::recover_with_policy`].
    ///
    /// # Errors
    /// As [`DurableEngine::recover_with_policy`].
    pub fn recover(dir: impl Into<PathBuf>) -> SketchResult<Self> {
        Self::recover_with_policy(dir, CheckpointPolicy::default())
    }

    /// Recovers a durable store from `dir`: discards stray temp files,
    /// loads the newest checkpoint that validates, replays its WAL segment
    /// (truncating a torn final record with a warning), and deletes
    /// superseded epochs. The [`RecoveryReport`] is retained on the handle
    /// ([`DurableEngine::recovery`]).
    ///
    /// # Errors
    /// [`SketchError::Corrupted`] when no checkpoint validates or the WAL
    /// is damaged anywhere before its final record; [`SketchError::Io`] on
    /// filesystem failures. Recovery never panics on damaged input.
    pub fn recover_with_policy(
        dir: impl Into<PathBuf>,
        policy: CheckpointPolicy,
    ) -> SketchResult<Self> {
        let dir = dir.into();
        let mut warnings = Vec::new();
        let mut stray_tmp_discarded = 0u64;
        let mut checkpoint_fallbacks = 0u64;
        let mut epochs_scanned = 0u64;

        // 1. A stray temp file is a checkpoint that never committed (crash
        //    before the rename) — discard it.
        let mut files = list_epoch_files(&dir)?;
        for stray in files.tmp.drain(..) {
            stray_tmp_discarded += 1;
            warnings.push(format!(
                "discarded uncommitted checkpoint temp file {stray}"
            ));
            let path = dir.join(&stray);
            fs::remove_file(&path)
                .map_err(|e| SketchError::io(format!("removing {}", path.display()), &e))?;
        }

        // 2. Load the newest checkpoint that validates, falling back (with
        //    a warning) past damaged ones.
        if files.checkpoints.is_empty() {
            return Err(SketchError::corrupted(format!(
                "no checkpoint files in {}",
                dir.display()
            )));
        }
        files.checkpoints.sort_unstable();
        let mut engine = None;
        let mut last_err = None;
        while let Some(epoch) = files.checkpoints.pop() {
            epochs_scanned += 1;
            let path = dir.join(checkpoint_name(epoch));
            let bytes = fs::read(&path)
                .map_err(|e| SketchError::io(format!("reading {}", path.display()), &e))?;
            match E::from_snapshot_bytes(&bytes) {
                Ok(e) => {
                    engine = Some((epoch, e));
                    break;
                }
                Err(e) => {
                    checkpoint_fallbacks += 1;
                    warnings.push(format!(
                        "checkpoint epoch {epoch} failed validation ({e}); falling back"
                    ));
                    last_err = Some(e);
                }
            }
        }
        let Some((epoch, mut engine)) = engine else {
            return Err(last_err.unwrap_or_else(|| {
                SketchError::corrupted("no checkpoint validated") // unreachable: checkpoints was non-empty
            }));
        };

        // 3. Replay this epoch's WAL segment (creating it fresh if the
        //    crash landed between the checkpoint rename and the segment
        //    create).
        let wal_path = dir.join(wal_name(epoch));
        let mut report = RecoveryReport {
            epoch,
            ..RecoveryReport::default()
        };
        if wal_path.exists() {
            replay_wal(&wal_path, epoch, &mut engine, &mut report)?;
        } else {
            warnings.push(format!(
                "wal segment for epoch {epoch} missing; starting an empty one"
            ));
            create_wal_segment(&wal_path, epoch)?;
        }

        // 4. Delete every file from other epochs (older checkpoints and
        //    their WALs are superseded; a newer WAL without a valid
        //    checkpoint cannot exist by construction).
        for other in files.checkpoints {
            let path = dir.join(checkpoint_name(other));
            fs::remove_file(&path)
                .map_err(|e| SketchError::io(format!("removing {}", path.display()), &e))?;
        }
        for other in files.wals {
            if other != epoch {
                let path = dir.join(wal_name(other));
                fs::remove_file(&path)
                    .map_err(|e| SketchError::io(format!("removing {}", path.display()), &e))?;
            }
        }
        sync_dir(&dir)?;

        let mut wal = OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| SketchError::io(format!("opening {}", wal_path.display()), &e))?;
        wal.seek(SeekFrom::End(0))
            .map_err(|e| SketchError::io("seeking wal end", &e))?;
        report.warnings.splice(0..0, warnings);

        // Surface what recovery found as counters and events, so the
        // repaired anomalies show up on a scrape, not just in the report.
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let mut registry = Registry::new();
        let now = clock.now_nanos();
        registry.counter(names::RECOVERIES).inc();
        registry
            .counter(names::RECOVERY_BATCHES_REPLAYED)
            .add(report.batches_replayed);
        registry
            .counter(names::RECOVERY_ROWS_REPLAYED)
            .add(report.rows_replayed);
        registry
            .counter(names::RECOVERY_TORN_TAIL_TRUNCATIONS)
            .add(report.torn_tail_truncations);
        registry
            .counter(names::RECOVERY_TORN_TAIL_BYTES)
            .add(report.torn_tail_bytes);
        registry
            .counter(names::RECOVERY_CHECKPOINT_FALLBACKS)
            .add(checkpoint_fallbacks);
        registry
            .counter(names::RECOVERY_STRAY_TMP_DISCARDED)
            .add(stray_tmp_discarded);
        registry
            .counter(names::RECOVERY_EPOCHS_SCANNED)
            .add(epochs_scanned);
        for warning in &report.warnings {
            registry.event(now, warning.clone());
        }

        Ok(Self {
            dir,
            engine,
            policy,
            epoch,
            wal,
            wal_rows: report.rows_replayed,
            wal_bytes: wal_segment_bytes(&wal_path)?,
            wal_batches: report.batches_replayed,
            batch_counter: 0,
            kill: None,
            poisoned: false,
            recovery: Some(report),
            registry,
            clock,
        })
    }

    /// Processes a batch with durability: the wrapped engine absorbs it,
    /// the WAL records it, and a checkpoint follows if the lag bound
    /// tripped. Empty batches are a no-op and are not logged.
    ///
    /// # Errors
    /// Engine-level failures pass through unchanged (and nothing is
    /// logged — the engine rolled back). Persistence failures (real I/O
    /// errors or a planted [`KillPoint`]) surface as
    /// [`BatchCause::Durability`] and **poison** the store: every later
    /// call fails until [`DurableEngine::recover`] rebuilds from disk.
    pub fn process_batch(&mut self, rows: &[Row]) -> Result<BatchSummary, BatchError> {
        self.process_batch_traced(rows, &TraceContext::disabled())
    }

    /// [`DurableEngine::process_batch`] with a trace context: the wrapped
    /// engine's stage spans nest under `ctx`, and the durable layer adds
    /// `wal_append`, `fsync`, and (when the lag bound trips) `checkpoint`
    /// stages — recorded into both the request's trace and the
    /// `stage_latency_seconds` histogram family.
    ///
    /// # Errors
    /// As for [`DurableEngine::process_batch`].
    pub fn process_batch_traced(
        &mut self,
        rows: &[Row],
        ctx: &TraceContext,
    ) -> Result<BatchSummary, BatchError> {
        if self.poisoned {
            return Err(durability_error(poisoned_error()));
        }
        let batch = self.batch_counter;
        self.batch_counter += 1;

        let summary = self.engine.process_batch_traced(rows, ctx)?;
        if rows.is_empty() {
            return Ok(summary);
        }

        if self.kill_fires(batch, KillPoint::BeforeWalAppend) {
            self.poisoned = true;
            return Err(durability_error(crash_error(KillPoint::BeforeWalAppend)));
        }

        let record = encode_record(self.wal_batches, self.engine.fault_policy(), rows);
        if self.kill_fires(batch, KillPoint::MidWalAppend) {
            self.poisoned = true;
            // A real torn write: half the record reaches the disk.
            let half = &record[..record.len() / 2];
            let result = self.wal.write_all(half).and_then(|()| self.wal.sync_data());
            if let Err(e) = result {
                return Err(durability_error(SketchError::io("tearing wal record", &e)));
            }
            return Err(durability_error(crash_error(KillPoint::MidWalAppend)));
        }
        let append_start = self.clock.now_nanos();
        if let Err(e) = self.wal.write_all(&record) {
            self.poisoned = true;
            return Err(durability_error(SketchError::io(
                "appending wal record",
                &e,
            )));
        }
        let append_end = self.clock.now_nanos();
        if let Err(e) = self.wal.sync_data() {
            self.poisoned = true;
            return Err(durability_error(SketchError::io("fsyncing wal record", &e)));
        }
        let sync_end = self.clock.now_nanos();
        // WAL_FSYNC_SECONDS keeps its historical meaning (append + fsync
        // combined); the stage family splits the two.
        self.registry
            .histogram(names::WAL_FSYNC_SECONDS)
            .record_nanos(sync_end.saturating_sub(append_start));
        self.registry
            .histogram(&names::stage_latency(Stage::WalAppend))
            .record_nanos(append_end.saturating_sub(append_start));
        self.registry
            .histogram(&names::stage_latency(Stage::Fsync))
            .record_nanos(sync_end.saturating_sub(append_end));
        ctx.child_with(
            Stage::WalAppend,
            append_start,
            append_end,
            vec![("bytes".to_string(), record.len().to_string())],
        );
        ctx.child(Stage::Fsync, append_end, sync_end);
        self.registry.counter(names::WAL_APPENDS).inc();
        self.registry
            .counter(names::WAL_BYTES_WRITTEN)
            .add(record.len() as u64);
        self.wal_rows += rows.len() as u64;
        self.wal_bytes += record.len() as u64;
        self.wal_batches += 1;
        if self.kill_fires(batch, KillPoint::AfterWalAppend) {
            self.poisoned = true;
            return Err(durability_error(crash_error(KillPoint::AfterWalAppend)));
        }

        let forced = matches!(self.kill, Some((b, p)) if b == batch && p.is_checkpoint_phase());
        if forced
            || self.wal_rows >= self.policy.max_wal_rows
            || self.wal_bytes >= self.policy.max_wal_bytes
        {
            let cause = if forced {
                "forced"
            } else if self.wal_rows >= self.policy.max_wal_rows {
                "rows"
            } else {
                "bytes"
            };
            let ckpt_start = self.clock.now_nanos();
            if let Err(e) = self.checkpoint_with_metrics(Some(batch), cause) {
                self.poisoned = true;
                return Err(durability_error(e));
            }
            let ckpt_end = self.clock.now_nanos();
            self.registry
                .histogram(&names::stage_latency(Stage::Checkpoint))
                .record_nanos(ckpt_end.saturating_sub(ckpt_start));
            ctx.child_with(
                Stage::Checkpoint,
                ckpt_start,
                ckpt_end,
                vec![("cause".to_string(), cause.to_string())],
            );
        }
        Ok(summary)
    }

    /// Takes a checkpoint now, regardless of the lag bound.
    ///
    /// # Errors
    /// Persistence failures poison the store, as in
    /// [`DurableEngine::process_batch`].
    pub fn checkpoint_now(&mut self) -> SketchResult<()> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        self.checkpoint_with_metrics(None, "forced")
            .inspect_err(|_| self.poisoned = true)
    }

    /// Finishes a tumbling window — the wrapped engine's
    /// [`StreamEngine::flush_window`] — then checkpoints the reset state so
    /// a crash cannot re-emit the window's groups.
    ///
    /// # Errors
    /// Report failures pass through; persistence failures poison the store.
    pub fn flush_window(&mut self) -> SketchResult<Vec<(Vec<Value>, Vec<AggregateResult>)>> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        let window = self.engine.flush_window()?;
        self.checkpoint_with_metrics(None, "window")
            .inspect_err(|_| self.poisoned = true)?;
        Ok(window)
    }

    /// Plants a simulated crash: `point` fires when batch `at_batch`
    /// (0-based over this handle's [`DurableEngine::process_batch`] calls)
    /// is processed. Checkpoint-phase points force a checkpoint at that
    /// batch. One kill at a time; arming replaces any previous one.
    pub fn arm_kill(&mut self, at_batch: u64, point: KillPoint) {
        self.kill = Some((at_batch, point));
    }

    /// Whether a persistence failure has poisoned this handle (all ingest
    /// refused until [`DurableEngine::recover`]).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The wrapped engine, for queries ([`StreamEngine::report`],
    /// [`StreamEngine::groups`], snapshots…). Mutable access is deliberately
    /// not offered: state changes that bypass the WAL would not survive
    /// recovery.
    #[must_use]
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The slim query-side view ([`crate::EngineView`]) of the wrapped
    /// engine's current state — what a serving tier ships instead of fat
    /// snapshot bytes. Durability stays fat on purpose: checkpoints and
    /// the WAL persist the write half (recovery must keep ingesting), so
    /// the view is a read-path product only and is never logged.
    #[must_use]
    pub fn query_view(&self) -> crate::EngineView {
        self.engine.query_view()
    }

    /// The current epoch (increments at every checkpoint).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rows in the current WAL segment (resets at every checkpoint; always
    /// under the policy's row bound plus one batch).
    #[must_use]
    pub fn wal_rows(&self) -> u64 {
        self.wal_rows
    }

    /// Record bytes in the current WAL segment.
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Records (committed batches) in the current WAL segment.
    #[must_use]
    pub fn wal_batches(&self) -> u64 {
        self.wal_batches
    }

    /// The checkpoint lag policy.
    #[must_use]
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// What the last [`DurableEngine::recover`] found and repaired
    /// (`None` on a handle from [`DurableEngine::create`]).
    #[must_use]
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Cuts a telemetry snapshot: the durability layer's WAL, checkpoint,
    /// and recovery accounting (with lag gauges and recovery-warning
    /// events) merged with the wrapped engine's own metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.add_gauge(names::EPOCH, self.epoch);
        snap.add_gauge(names::WAL_ROWS, self.wal_rows);
        snap.add_gauge(names::WAL_BYTES, self.wal_bytes);
        snap.add_gauge(names::WAL_BATCHES, self.wal_batches);
        #[expect(
            clippy::expect_used,
            reason = "every obs histogram shares one fixed (k, seed), so snapshot merge cannot fail"
        )]
        snap.merge(&self.engine.metrics())
            .expect("obs snapshots share one KLL shape");
        snap
    }

    /// Installs the time source behind the WAL-fsync and checkpoint
    /// latency histograms and event timestamps. Tests inject a
    /// [`sketches_obs::ManualClock`] so timing metrics are deterministic.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// True when `(batch, point)` matches the armed kill; disarms it so a
    /// kill fires exactly once.
    fn kill_fires(&mut self, batch: u64, point: KillPoint) -> bool {
        if self.kill == Some((batch, point)) {
            self.kill = None;
            true
        } else {
            false
        }
    }

    /// Writes checkpoint `epoch` atomically: temp file, `sync_all`, rename,
    /// directory fsync. `kill_batch` threads the batch index for kill
    /// matching.
    fn write_checkpoint_file(&mut self, epoch: u64, kill_batch: Option<u64>) -> SketchResult<()> {
        let bytes = self.engine.to_snapshot_bytes();
        let tmp = self.dir.join(format!("{}.tmp", checkpoint_name(epoch)));
        let fires = |this: &mut Self, point| match kill_batch {
            Some(b) => this.kill_fires(b, point),
            None => false,
        };

        let mut file = File::create(&tmp)
            .map_err(|e| SketchError::io(format!("creating {}", tmp.display()), &e))?;
        if fires(self, KillPoint::MidCheckpointTemp) {
            // A real torn checkpoint write: half the snapshot reaches disk.
            file.write_all(&bytes[..bytes.len() / 2])
                .and_then(|()| file.sync_all())
                .map_err(|e| SketchError::io("tearing checkpoint temp file", &e))?;
            return Err(crash_error(KillPoint::MidCheckpointTemp));
        }
        file.write_all(&bytes)
            .and_then(|()| file.sync_all())
            .map_err(|e| SketchError::io("writing checkpoint temp file", &e))?;
        drop(file);
        if fires(self, KillPoint::BeforeCheckpointRename) {
            return Err(crash_error(KillPoint::BeforeCheckpointRename));
        }

        let target = self.dir.join(checkpoint_name(epoch));
        fs::rename(&tmp, &target)
            .map_err(|e| SketchError::io(format!("renaming to {}", target.display()), &e))?;
        sync_dir(&self.dir)?;
        if fires(self, KillPoint::AfterCheckpointRename) {
            return Err(crash_error(KillPoint::AfterCheckpointRename));
        }
        self.registry
            .gauge(names::CHECKPOINT_BYTES_LAST)
            .set(bytes.len() as u64);
        Ok(())
    }

    /// The full checkpoint sequence: new checkpoint committed atomically,
    /// fresh WAL segment, old epoch deleted. Leaves the handle on the new
    /// epoch with zeroed lag counters.
    fn checkpoint_inner(&mut self, kill_batch: Option<u64>) -> SketchResult<()> {
        let next = self.epoch + 1;
        self.write_checkpoint_file(next, kill_batch)?;
        let wal = create_wal_segment(&self.dir.join(wal_name(next)), next)?;
        sync_dir(&self.dir)?;

        let old_checkpoint = self.dir.join(checkpoint_name(self.epoch));
        let old_wal = self.dir.join(wal_name(self.epoch));
        fs::remove_file(&old_checkpoint)
            .map_err(|e| SketchError::io(format!("removing {}", old_checkpoint.display()), &e))?;
        fs::remove_file(&old_wal)
            .map_err(|e| SketchError::io(format!("removing {}", old_wal.display()), &e))?;
        sync_dir(&self.dir)?;

        self.epoch = next;
        self.wal = wal;
        self.wal_rows = 0;
        self.wal_bytes = 0;
        self.wal_batches = 0;
        Ok(())
    }

    /// [`checkpoint_inner`](Self::checkpoint_inner) wrapped with
    /// telemetry: the duration histogram plus the cause-labelled
    /// checkpoint counter (`rows`/`bytes` lag bounds, `forced`, or
    /// `window`).
    fn checkpoint_with_metrics(
        &mut self,
        kill_batch: Option<u64>,
        cause: &str,
    ) -> SketchResult<()> {
        let start = self.clock.now_nanos();
        self.checkpoint_inner(kill_batch)?;
        let elapsed = self.clock.now_nanos().saturating_sub(start);
        self.registry
            .histogram(names::CHECKPOINT_SECONDS)
            .record_nanos(elapsed);
        self.registry
            .counter(&names::checkpoints_total(cause))
            .inc();
        Ok(())
    }
}

/// Wraps a persistence failure as a [`BatchError`].
fn durability_error(e: SketchError) -> BatchError {
    BatchError {
        row: None,
        shard: None,
        cause: BatchCause::Durability(e),
    }
}

/// The epoch-stamped files of a durable directory.
struct EpochFiles {
    checkpoints: Vec<u64>,
    wals: Vec<u64>,
    tmp: Vec<String>,
}

impl EpochFiles {
    fn is_empty(&self) -> bool {
        self.checkpoints.is_empty() && self.wals.is_empty() && self.tmp.is_empty()
    }
}

/// Scans `dir` for checkpoint/WAL/temp files (names sorted for
/// deterministic warnings).
fn list_epoch_files(dir: &Path) -> SketchResult<EpochFiles> {
    let entries =
        fs::read_dir(dir).map_err(|e| SketchError::io(format!("listing {}", dir.display()), &e))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| SketchError::io(format!("listing {}", dir.display()), &e))?;
        if let Ok(name) = entry.file_name().into_string() {
            names.push(name);
        }
    }
    names.sort_unstable();
    let mut files = EpochFiles {
        checkpoints: Vec::new(),
        wals: Vec::new(),
        tmp: Vec::new(),
    };
    for name in names {
        if name.ends_with(".tmp") {
            files.tmp.push(name);
        } else if let Some(epoch) = parse_epoch(&name, "checkpoint-", ".skcp") {
            files.checkpoints.push(epoch);
        } else if let Some(epoch) = parse_epoch(&name, "wal-", ".wal") {
            files.wals.push(epoch);
        }
    }
    Ok(files)
}

/// Record bytes (header excluded) of a WAL segment on disk.
fn wal_segment_bytes(path: &Path) -> SketchResult<u64> {
    let len = fs::metadata(path)
        .map_err(|e| SketchError::io(format!("stat {}", path.display()), &e))?
        .len();
    Ok(len.saturating_sub(WAL_HEADER_LEN))
}

/// Replays a WAL segment into `engine`, enforcing the torn-tail rule: the
/// final record may be truncated or checksum-damaged (truncate-and-warn);
/// any earlier damage is [`SketchError::Corrupted`].
fn replay_wal<E: StreamEngine>(
    path: &Path,
    epoch: u64,
    engine: &mut E,
    report: &mut RecoveryReport,
) -> SketchResult<()> {
    let bytes =
        fs::read(path).map_err(|e| SketchError::io(format!("reading {}", path.display()), &e))?;

    // A header shorter than `WAL_HEADER_LEN` can only be a crash during
    // segment creation: nothing was ever logged, so rewrite it.
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        report.warnings.push(format!(
            "wal segment for epoch {epoch} has a torn header ({} bytes); rewriting it empty",
            bytes.len()
        ));
        report.torn_tail_bytes += bytes.len() as u64;
        report.torn_tail_truncations += 1;
        create_wal_segment(path, epoch)?;
        return Ok(());
    }
    let mut r = ByteReader::new(&bytes);
    let magic = r.bytes(4)?;
    let version = r.u16()?;
    let header_epoch = r.u64()?;
    if magic != WAL_MAGIC {
        return Err(SketchError::corrupted(format!(
            "bad wal magic {magic:?} (expected {WAL_MAGIC:?})"
        )));
    }
    if version != WAL_VERSION {
        return Err(SketchError::corrupted(format!(
            "unsupported wal version {version} (expected {WAL_VERSION})"
        )));
    }
    if header_epoch != epoch {
        return Err(SketchError::corrupted(format!(
            "wal header epoch {header_epoch} does not match segment epoch {epoch}"
        )));
    }

    // Walk records tracking byte offsets so a torn tail can be truncated
    // in place.
    let mut offset = WAL_HEADER_LEN as usize;
    let mut torn = false;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 8 {
            torn = true;
            break;
        }
        let len_bytes: [u8; 8] = match bytes[offset..offset + 8].try_into() {
            Ok(a) => a,
            Err(_) => {
                torn = true; // unreachable: remaining >= 8
                break;
            }
        };
        let body_len = u64::from_le_bytes(len_bytes);
        let Ok(body_len) = usize::try_from(body_len) else {
            torn = true; // a length beyond usize consumes the rest: tail damage
            break;
        };
        let Some(total) = body_len.checked_add(16) else {
            torn = true;
            break;
        };
        if total > remaining {
            // The record claims more bytes than the file holds — a torn
            // append (or a damaged length field, which equally consumes
            // everything to EOF and is treated as tail damage).
            torn = true;
            break;
        }
        let body = &bytes[offset + 8..offset + 8 + body_len];
        let stored_sum = u64::from_le_bytes(
            match bytes[offset + 8 + body_len..offset + total].try_into() {
                Ok(a) => a,
                Err(_) => {
                    torn = true; // unreachable: total <= remaining
                    break;
                }
            },
        );
        if xxh64(body, WAL_CHECKSUM_SEED) != stored_sum {
            if offset + total == bytes.len() {
                // Checksum damage confined to the final record: torn tail.
                torn = true;
                break;
            }
            return Err(SketchError::corrupted(format!(
                "wal record {} failed its checksum with records after it",
                report.batches_replayed
            )));
        }
        let (policy, rows) = decode_record(body, report.batches_replayed)?;
        engine.set_fault_policy(policy);
        engine.process_batch(&rows).map_err(|e| {
            SketchError::corrupted(format!(
                "wal record {} failed to replay: {e}",
                report.batches_replayed
            ))
        })?;
        report.batches_replayed += 1;
        report.rows_replayed += rows.len() as u64;
        offset += total;
    }

    if torn {
        let torn_bytes = (bytes.len() - offset) as u64;
        report.torn_tail_bytes += torn_bytes;
        report.torn_tail_truncations += 1;
        report.warnings.push(format!(
            "truncated a torn wal tail of {torn_bytes} bytes after record {}",
            report.batches_replayed
        ));
        let wal = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| SketchError::io(format!("opening {}", path.display()), &e))?;
        wal.set_len(offset as u64)
            .map_err(|e| SketchError::io("truncating torn wal tail", &e))?;
        wal.sync_all()
            .map_err(|e| SketchError::io("fsyncing truncated wal", &e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SketchEngine;
    use crate::query::{Aggregate, QuerySpec};
    use crate::row;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("streamdb-durable-{}-{tag}-{n}", std::process::id()))
    }

    fn spec() -> QuerySpec {
        QuerySpec::new(vec![0], vec![Aggregate::Count, Aggregate::Sum { field: 1 }]).unwrap()
    }

    fn batch(base: u64, n: u64) -> Vec<Row> {
        (0..n).map(|i| row![(base + i) % 7, base + i]).collect()
    }

    #[test]
    fn create_then_recover_empty() {
        let dir = scratch_dir("empty");
        let durable = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        let bytes = durable.engine().to_snapshot_bytes();
        drop(durable);
        let recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().to_snapshot_bytes(), bytes);
        let report = recovered.recovery().unwrap();
        assert_eq!(report.batches_replayed, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_restores_batches() {
        let dir = scratch_dir("replay");
        let mut durable = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        durable.process_batch(&batch(0, 100)).unwrap();
        durable.process_batch(&batch(100, 50)).unwrap();
        let bytes = durable.engine().to_snapshot_bytes();
        assert_eq!(durable.wal_batches(), 2);
        drop(durable);

        let recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().to_snapshot_bytes(), bytes);
        let report = recovered.recovery().unwrap();
        assert_eq!(report.batches_replayed, 2);
        assert_eq!(report.rows_replayed, 150);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_lag_bound_rolls_epochs() {
        let dir = scratch_dir("lag");
        let policy = CheckpointPolicy::new(100, u64::MAX).unwrap();
        let mut durable =
            DurableEngine::create(&dir, SketchEngine::new(spec()).unwrap(), policy).unwrap();
        for i in 0..10 {
            durable.process_batch(&batch(i * 60, 60)).unwrap();
            assert!(
                durable.wal_rows() < 100 + 60,
                "lag bound violated: {} rows",
                durable.wal_rows()
            );
        }
        assert!(durable.epoch() > 0, "no checkpoint ever triggered");
        let bytes = durable.engine().to_snapshot_bytes();
        drop(durable);
        let recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().to_snapshot_bytes(), bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_populated_dir() {
        let dir = scratch_dir("refuse");
        let durable = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        drop(durable);
        let err = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, SketchError::InvalidParameter { name: "dir", .. }),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_before_wal_append_loses_batch_and_poisons() {
        let dir = scratch_dir("kill-before");
        let mut durable = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        durable.process_batch(&batch(0, 40)).unwrap();
        let survive_bytes = durable.engine().to_snapshot_bytes();
        durable.arm_kill(1, KillPoint::BeforeWalAppend);
        let err = durable.process_batch(&batch(40, 40)).unwrap_err();
        assert!(err.to_string().contains(SIMULATED_CRASH_MARKER), "{err}");
        assert!(durable.is_poisoned());
        // Poisoned: every further call refuses.
        assert!(durable.process_batch(&batch(0, 1)).is_err());
        drop(durable);

        let recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().to_snapshot_bytes(), survive_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_mid_wal_append_truncates_torn_tail() {
        let dir = scratch_dir("kill-mid");
        let mut durable = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        durable.process_batch(&batch(0, 40)).unwrap();
        let survive_bytes = durable.engine().to_snapshot_bytes();
        durable.arm_kill(1, KillPoint::MidWalAppend);
        durable.process_batch(&batch(40, 40)).unwrap_err();
        drop(durable);

        let recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().to_snapshot_bytes(), survive_bytes);
        let report = recovered.recovery().unwrap();
        assert!(report.torn_tail_bytes > 0);
        assert_eq!(report.batches_replayed, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_rejected() {
        let dir = scratch_dir("interior");
        let mut durable = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        durable.process_batch(&batch(0, 40)).unwrap();
        durable.process_batch(&batch(40, 40)).unwrap();
        let wal_path = dir.join(wal_name(0));
        drop(durable);
        // Flip a byte inside the FIRST record's body (interior damage).
        let mut bytes = fs::read(&wal_path).unwrap();
        let target = WAL_HEADER_LEN as usize + 12;
        bytes[target] ^= 0x40;
        fs::write(&wal_path, &bytes).unwrap();
        let err = DurableEngine::<SketchEngine>::recover(&dir).unwrap_err();
        assert!(matches!(err, SketchError::Corrupted { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn final_record_checksum_damage_is_torn_tail() {
        let dir = scratch_dir("tail-sum");
        let mut durable = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        durable.process_batch(&batch(0, 40)).unwrap();
        durable.process_batch(&batch(40, 40)).unwrap();
        let survive_bytes = {
            // Expected state: only the first batch (the second's record will
            // be damaged below).
            let mut expect = SketchEngine::new(spec()).unwrap();
            expect.process_batch(&batch(0, 40)).unwrap();
            expect.to_snapshot_bytes()
        };
        let wal_path = dir.join(wal_name(0));
        drop(durable);
        let mut bytes = fs::read(&wal_path).unwrap();
        let last = bytes.len() - 1; // trailing checksum byte of the final record
        bytes[last] ^= 0x01;
        fs::write(&wal_path, &bytes).unwrap();

        let recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().to_snapshot_bytes(), survive_bytes);
        assert!(recovered.recovery().unwrap().torn_tail_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_header_is_rewritten_empty() {
        // A crash while creating a segment leaves 0..WAL_HEADER_LEN bytes.
        for len in [0, WAL_HEADER_LEN - 1] {
            let dir = scratch_dir("torn-header");
            let durable = DurableEngine::create(
                &dir,
                SketchEngine::new(spec()).unwrap(),
                CheckpointPolicy::default(),
            )
            .unwrap();
            drop(durable);
            let wal_path = dir.join(wal_name(0));
            fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .unwrap()
                .set_len(len)
                .unwrap();

            let mut recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
            let report = recovered.recovery().unwrap();
            assert!(
                report.warnings.iter().any(|w| w.contains("torn header")),
                "{:?}",
                report.warnings
            );
            assert_eq!(report.torn_tail_truncations, 1);
            assert_eq!(report.torn_tail_bytes, len);
            assert_eq!(report.batches_replayed, 0);

            // The rewritten segment takes appends that survive a recover.
            recovered.process_batch(&batch(0, 40)).unwrap();
            let bytes = recovered.engine().to_snapshot_bytes();
            drop(recovered);
            let again = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
            assert_eq!(again.engine().to_snapshot_bytes(), bytes);
            let report = again.recovery().unwrap();
            assert_eq!(report.batches_replayed, 1);
            assert!(report.warnings.is_empty(), "{:?}", report.warnings);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn policy_bounds_validated() {
        assert!(CheckpointPolicy::new(0, 1).is_err());
        assert!(CheckpointPolicy::new(1, 0).is_err());
        let p = CheckpointPolicy::new(5, 9).unwrap();
        assert_eq!(p.max_wal_rows(), 5);
        assert_eq!(p.max_wal_bytes(), 9);
    }

    #[test]
    fn quarantine_policy_survives_replay() {
        let dir = scratch_dir("quarantine");
        let mut engine = SketchEngine::new(spec()).unwrap();
        engine.set_fault_policy(FaultPolicy::Quarantine { max_samples: 4 });
        let mut durable = DurableEngine::create(&dir, engine, CheckpointPolicy::default()).unwrap();
        // One malformed row (string where SUM needs a number) → quarantined.
        let mut rows = batch(0, 20);
        rows.push(row![3u64, "poison"]);
        let summary = durable.process_batch(&rows).unwrap();
        assert_eq!(summary.rows_quarantined, 1);
        let bytes = durable.engine().to_snapshot_bytes();
        let dead = durable.engine().dead_letters();
        drop(durable);

        let recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().to_snapshot_bytes(), bytes);
        assert_eq!(recovered.engine().dead_letters().count(), dead.count());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_window_checkpoints_reset_state() {
        let dir = scratch_dir("window");
        let mut durable = DurableEngine::create(
            &dir,
            SketchEngine::new(spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        durable.process_batch(&batch(0, 70)).unwrap();
        let window = durable.flush_window().unwrap();
        assert_eq!(window.len(), 7);
        let epoch = durable.epoch();
        assert!(epoch > 0);
        drop(durable);
        // Recovery lands on the post-window state: re-opening must not
        // re-emit the flushed groups.
        let recovered = DurableEngine::<SketchEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().num_groups(), 0);
        assert_eq!(recovered.engine().rows_processed(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_on_empty_dir_is_corrupted() {
        let dir = scratch_dir("no-files");
        fs::create_dir_all(&dir).unwrap();
        let err = DurableEngine::<SketchEngine>::recover(&dir).unwrap_err();
        assert!(matches!(err, SketchError::Corrupted { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
