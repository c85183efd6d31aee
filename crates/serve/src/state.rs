//! Shared server state: the engine backend, the published read path,
//! and the retrying ingest path with recovery reconciliation.
//!
//! Writers serialize through one mutex around the backend; readers never
//! touch that mutex — they clone a [`ReadHandle`] out of an `RwLock` and
//! query the engine's epoch-published snapshots lock-free. When the
//! durable layer recovers from a fault it builds a *new* engine, so the
//! handle is re-pointed at the fresh engine under the write lock.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sketches_obs::{Clock, MetricsSnapshot, TraceContext};
use sketches_streamdb::{
    BatchCause, BatchError, BatchSummary, ConcurrentEngine, DurableEngine, KillPoint, ReadHandle,
    Row, StreamEngine,
};

use crate::backoff::RetryPolicy;
use crate::metrics::ServerMetrics;
use crate::tracing::Tracer;

/// The engine a server fronts: in-memory only, or WAL-and-checkpoint
/// durable.
#[derive(Debug)]
pub enum Backend {
    /// Concurrent engine with no persistence (dev / benchmarks).
    Volatile(ConcurrentEngine),
    /// Durable engine over a directory. `engine` is `None` only after an
    /// unrecoverable failure (recovery itself failed), at which point the
    /// server is permanently read-only on its last published snapshots.
    /// Boxed so the enum stays small for the volatile case.
    Durable {
        /// The wrapped engine, present while healthy or recoverable.
        engine: Option<Box<DurableEngine<ConcurrentEngine>>>,
        /// The WAL/checkpoint directory, kept for in-place recovery.
        dir: PathBuf,
    },
}

/// What one `try_batch` attempt concluded.
#[derive(Debug)]
pub enum BatchOutcome {
    /// The batch committed (and is durable when the backend persists).
    Done {
        /// Ingest summary.
        summary: BatchSummary,
        /// Whether a recovery rebuilt the engine on the way (readers must
        /// be re-pointed).
        recovered: bool,
    },
    /// The batch itself was rejected (typed row error) — retrying the
    /// same bytes cannot succeed.
    Rejected(BatchError),
    /// Infrastructure hiccup; the batch did **not** commit and a retry
    /// may succeed.
    Transient {
        /// Human-readable cause.
        detail: String,
        /// Whether a recovery rebuilt the engine (readers must be
        /// re-pointed).
        recovered: bool,
    },
    /// The engine is permanently degraded; the server flips read-only.
    Poisoned(String),
}

impl Backend {
    /// Creates a durable backend rooted at `dir`.
    #[must_use]
    pub fn durable(engine: DurableEngine<ConcurrentEngine>, dir: impl Into<PathBuf>) -> Self {
        Self::Durable {
            engine: Some(Box::new(engine)),
            dir: dir.into(),
        }
    }

    /// Attempts one batch, classifying the result for the retry loop.
    ///
    /// On a durability fault the engine has poisoned itself; this method
    /// recovers **in place** from `dir` and reconciles: if the recovered
    /// row count shows the batch reached the WAL before the fault, the
    /// attempt is reported as success (retrying would double-ingest);
    /// otherwise it is transient and safe to retry.
    pub fn try_batch(&mut self, rows: &[Row], ctx: &TraceContext) -> BatchOutcome {
        match self {
            Backend::Volatile(engine) => match engine.process_batch_traced(rows, ctx) {
                Ok(summary) => BatchOutcome::Done {
                    summary,
                    recovered: false,
                },
                Err(e) => {
                    // The engine stores its poison flag before it returns
                    // the poisoned error, so the flag alone classifies it.
                    if engine.is_poisoned() {
                        BatchOutcome::Poisoned(e.to_string())
                    } else {
                        BatchOutcome::Rejected(e)
                    }
                }
            },
            Backend::Durable { engine, dir } => {
                let Some(eng) = engine.as_mut() else {
                    return BatchOutcome::Poisoned(
                        "engine lost to an earlier unrecoverable failure".to_string(),
                    );
                };
                let rows_before = eng.engine().rows_processed();
                match eng.process_batch_traced(rows, ctx) {
                    Ok(summary) => BatchOutcome::Done {
                        summary,
                        recovered: false,
                    },
                    Err(e) => match &e.cause {
                        BatchCause::Row(_) => BatchOutcome::Rejected(e),
                        BatchCause::WorkerPanic(_) => {
                            if eng.engine().is_poisoned() {
                                BatchOutcome::Poisoned(e.to_string())
                            } else {
                                BatchOutcome::Rejected(e)
                            }
                        }
                        BatchCause::Durability(_) => {
                            let policy = eng.policy();
                            // Drop the poisoned engine (releasing its WAL
                            // handle) before reopening the directory.
                            drop(engine.take());
                            match DurableEngine::<ConcurrentEngine>::recover_with_policy(
                                dir.clone(),
                                policy,
                            ) {
                                Ok(fresh) => {
                                    let rows_after = fresh.engine().rows_processed();
                                    *engine = Some(Box::new(fresh));
                                    if rows_after > rows_before {
                                        // The batch hit the WAL before the
                                        // fault; it is durable. Report
                                        // success so the caller does not
                                        // retry it into a double-ingest.
                                        BatchOutcome::Done {
                                            summary: BatchSummary {
                                                rows_ingested: (rows_after - rows_before) as usize,
                                                rows_quarantined: 0,
                                            },
                                            recovered: true,
                                        }
                                    } else {
                                        BatchOutcome::Transient {
                                            detail: e.to_string(),
                                            recovered: true,
                                        }
                                    }
                                }
                                Err(re) => BatchOutcome::Poisoned(format!(
                                    "recovery failed after durability fault ({e}): {re}"
                                )),
                            }
                        }
                    },
                }
            }
        }
    }

    /// A read handle onto the current engine (`None` once unrecoverable).
    #[must_use]
    pub fn reader(&self) -> Option<ReadHandle> {
        match self {
            Backend::Volatile(engine) => Some(engine.reader()),
            Backend::Durable { engine, .. } => engine.as_ref().map(|e| e.engine().reader()),
        }
    }

    /// Whether the backend can no longer accept writes.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        match self {
            Backend::Volatile(engine) => engine.is_poisoned(),
            Backend::Durable { engine, .. } => match engine {
                None => true,
                Some(e) => e.is_poisoned() || e.engine().is_poisoned(),
            },
        }
    }

    /// Durability-layer metrics (WAL/checkpoint counters); empty for a
    /// volatile backend.
    #[must_use]
    pub fn durability_metrics(&self) -> MetricsSnapshot {
        match self {
            Backend::Volatile(_) => MetricsSnapshot::new(),
            Backend::Durable { engine, .. } => engine
                .as_ref()
                .map_or_else(MetricsSnapshot::new, |e| e.metrics()),
        }
    }

    /// Forces a checkpoint (drain path). `Ok(false)` for a volatile
    /// backend, `Ok(true)` on a successful checkpoint.
    ///
    /// # Errors
    /// Propagates the checkpoint failure message.
    pub fn checkpoint_now(&mut self) -> Result<bool, String> {
        match self {
            Backend::Volatile(_) => Ok(false),
            Backend::Durable { engine, .. } => match engine.as_mut() {
                None => Err("engine lost to an earlier unrecoverable failure".to_string()),
                Some(e) => e.checkpoint_now().map(|()| true).map_err(|e| e.to_string()),
            },
        }
    }

    /// Drill hook: arms a simulated durability kill (durable backends
    /// only; no-op otherwise).
    pub fn arm_kill(&mut self, at_batch: u64, point: KillPoint) {
        if let Backend::Durable {
            engine: Some(e), ..
        } = self
        {
            e.arm_kill(at_batch, point);
        }
    }

    /// Drill hook: injects a coordinator panic into the wrapped
    /// concurrent engine.
    pub fn inject_coordinator_panic(&self) {
        match self {
            Backend::Volatile(engine) => engine.inject_coordinator_panic(),
            Backend::Durable { engine, .. } => {
                if let Some(e) = engine.as_ref() {
                    e.engine().inject_coordinator_panic();
                }
            }
        }
    }
}

/// How one ingest request (including retries) concluded.
#[derive(Debug)]
pub enum IngestOutcome {
    /// Committed (durably, when applicable).
    Ok {
        /// Ingest summary.
        summary: BatchSummary,
        /// Total attempts, first try included.
        attempts: u32,
    },
    /// The batch is bad; do not retry (HTTP 400).
    Rejected(BatchError),
    /// The engine is degraded read-only (HTTP 503, not retryable).
    Degraded(String),
    /// Transient overload/fault outlived the retry budget or the request
    /// deadline (HTTP 503, retryable later).
    Unavailable {
        /// Human-readable cause.
        detail: String,
        /// Total attempts made.
        attempts: u32,
    },
}

/// State shared by the accept loop and every worker.
#[derive(Debug)]
pub struct AppState {
    /// Lock-free read path; re-pointed after recovery.
    reader: RwLock<ReadHandle>,
    /// Serialized write path.
    backend: Mutex<Backend>,
    /// Set when drain starts: admission refuses, in-flight completes.
    pub draining: AtomicBool,
    /// Set when the engine poisons: server flips read-only.
    pub degraded: AtomicBool,
    /// Time source for deadlines and latency accounting.
    pub clock: Arc<dyn Clock>,
    /// Retry policy for transient ingest failures.
    pub retry: RetryPolicy,
    /// Server request/shed/latency metrics.
    pub metrics: ServerMetrics,
    /// Request-trace minting and bounded retention.
    pub tracer: Tracer,
    /// Monotone connection counter; doubles as the backoff jitter token.
    next_token: AtomicU64,
}

impl AppState {
    /// Builds shared state over a healthy backend.
    ///
    /// # Errors
    /// Returns an error if the backend is already unreadable.
    pub fn new(
        backend: Backend,
        clock: Arc<dyn Clock>,
        retry: RetryPolicy,
        tracer: Tracer,
    ) -> Result<Self, String> {
        let reader = backend
            .reader()
            .ok_or_else(|| "backend has no readable engine".to_string())?;
        Ok(Self {
            reader: RwLock::new(reader),
            backend: Mutex::new(backend),
            draining: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            clock,
            retry,
            metrics: ServerMetrics::new(),
            tracer,
            next_token: AtomicU64::new(0),
        })
    }

    /// A fresh jitter token (one per connection).
    pub fn token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }

    /// A clone of the current read handle (queries never hold the lock
    /// while touching the engine).
    #[must_use]
    pub fn reader(&self) -> ReadHandle {
        self.reader.read().clone()
    }

    /// Runs `f` with the backend locked (metrics, drill hooks, drain).
    pub fn with_backend<T>(&self, f: impl FnOnce(&mut Backend) -> T) -> T {
        let mut guard = self.backend.lock();
        // lint: guard-scope(this mutex exists to serialize engine access; callers pass short engine operations — metric cuts, drill arming, batch attempts, the drain checkpoint — and none takes another lock)
        f(&mut guard)
    }

    /// Ingests one batch with bounded, seeded-backoff retries for
    /// transient failures, giving up at `deadline_nanos` (absolute clock
    /// reading).
    pub fn ingest(
        &self,
        rows: &[Row],
        deadline_nanos: u64,
        token: u64,
        ctx: &TraceContext,
    ) -> IngestOutcome {
        let mut attempts = 0u32;
        loop {
            if self.degraded.load(Ordering::Acquire) {
                return IngestOutcome::Degraded("engine degraded; serving reads only".to_string());
            }
            attempts += 1;
            let outcome = {
                let mut backend = self.backend.lock();
                backend.try_batch(rows, ctx)
            };
            match outcome {
                BatchOutcome::Done { summary, recovered } => {
                    if recovered {
                        self.repoint_reader();
                    }
                    return IngestOutcome::Ok { summary, attempts };
                }
                BatchOutcome::Rejected(e) => return IngestOutcome::Rejected(e),
                BatchOutcome::Poisoned(msg) => {
                    self.degraded.store(true, Ordering::Release);
                    return IngestOutcome::Degraded(msg);
                }
                BatchOutcome::Transient { detail, recovered } => {
                    if recovered {
                        self.repoint_reader();
                    }
                    if !self.retry.should_retry(attempts) {
                        return IngestOutcome::Unavailable { detail, attempts };
                    }
                    let delay = self.retry.delay(token, attempts);
                    let now = self.clock.now_nanos();
                    if now.saturating_add(delay.as_nanos() as u64) >= deadline_nanos {
                        return IngestOutcome::Unavailable {
                            detail: format!(
                                "request deadline reached after {attempts} attempts: {detail}"
                            ),
                            attempts,
                        };
                    }
                    self.metrics.record_retry();
                    std::thread::sleep(delay);
                }
            }
        }
    }

    /// Re-points the read path at the (possibly rebuilt) engine.
    fn repoint_reader(&self) {
        let fresh = {
            let backend = self.backend.lock();
            backend.reader()
        };
        if let Some(handle) = fresh {
            *self.reader.write() = handle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_obs::ManualClock;
    use sketches_streamdb::{Aggregate, CheckpointPolicy, QuerySpec, Value};

    fn spec() -> QuerySpec {
        QuerySpec::new(vec![0], vec![Aggregate::Count]).unwrap()
    }

    fn rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::U64(i % 3), Value::U64(i)])
            .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sketches-serve-state-{}-{tag}", std::process::id()))
    }

    fn state(backend: Backend) -> AppState {
        AppState::new(
            backend,
            Arc::new(ManualClock::new()),
            RetryPolicy {
                base_nanos: 1_000, // keep test retries fast
                cap_nanos: 10_000,
                ..RetryPolicy::default()
            },
            Tracer::new(&crate::tracing::TraceConfig::default()),
        )
        .unwrap()
    }

    fn untraced() -> TraceContext {
        TraceContext::disabled()
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real threads + temp dirs + wall clock
    fn volatile_ingest_and_read() {
        let engine = ConcurrentEngine::new(spec(), 2).unwrap();
        let st = state(Backend::Volatile(engine));
        match st.ingest(&rows(300), u64::MAX, 0, &untraced()) {
            IngestOutcome::Ok { summary, attempts } => {
                assert_eq!(summary.rows_ingested, 300);
                assert_eq!(attempts, 1);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(st.reader().rows_processed(), 300);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real threads + temp dirs + wall clock
    fn durability_fault_retries_and_recovers_without_double_ingest() {
        let dir = temp_dir("retry");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = DurableEngine::create(
            &dir,
            ConcurrentEngine::new(spec(), 2).unwrap(),
            CheckpointPolicy::new(10_000, u64::MAX).unwrap(),
        )
        .unwrap();
        let st = state(Backend::durable(engine, &dir));

        st.ingest(&rows(100), u64::MAX, 0, &untraced());
        // Kill before the WAL append on the next batch (0-based batch 1 on
        // this handle): the batch is NOT durable, so the retry loop must
        // re-submit it exactly once.
        st.with_backend(|b| b.arm_kill(1, KillPoint::BeforeWalAppend));
        match st.ingest(&rows(50), u64::MAX, 1, &untraced()) {
            IngestOutcome::Ok { summary, attempts } => {
                assert_eq!(summary.rows_ingested, 50);
                assert!(attempts >= 2, "expected a retry, got {attempts}");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert!(st.metrics.retry_attempts_total() >= 1);
        // Reader re-pointed at the recovered engine: totals are exact.
        assert_eq!(st.reader().rows_processed(), 150);

        // Kill *after* the WAL append: the batch IS durable; the retry
        // loop must reconcile and not ingest it twice. (Recovery rebuilt
        // the handle, so its batch counter restarted; the retry above was
        // batch 0 and the next ingest is batch 1.)
        st.with_backend(|b| b.arm_kill(1, KillPoint::AfterWalAppend));
        match st.ingest(&rows(25), u64::MAX, 2, &untraced()) {
            IngestOutcome::Ok { summary, .. } => assert_eq!(summary.rows_ingested, 25),
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(st.reader().rows_processed(), 175);

        // Restart from disk: every acknowledged row is visible.
        drop(st);
        let recovered = DurableEngine::<ConcurrentEngine>::recover(&dir).unwrap();
        assert_eq!(recovered.engine().rows_processed(), 175);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real threads + temp dirs + wall clock
    fn poisoned_coordinator_degrades_to_read_only() {
        sketches_streamdb::silence_injected_panics();
        let engine = ConcurrentEngine::new(spec(), 2).unwrap();
        let st = state(Backend::Volatile(engine));
        st.ingest(&rows(90), u64::MAX, 0, &untraced());
        st.with_backend(|b| b.inject_coordinator_panic());
        // The very next ingest finds the engine poisoned.
        match st.ingest(&rows(3), u64::MAX, 1, &untraced()) {
            IngestOutcome::Degraded(_) => {}
            other => panic!("first ingest after the kill: {other:?}"),
        }
        assert!(st.degraded.load(Ordering::Acquire));
        // Reads still serve the last published epoch.
        assert!(st.reader().rows_processed() >= 90);
        // Later ingests short-circuit to Degraded.
        assert!(matches!(
            st.ingest(&rows(3), u64::MAX, 2, &untraced()),
            IngestOutcome::Degraded(_)
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real threads + temp dirs + wall clock
    fn deadline_bounds_retry_sleeps() {
        let dir = temp_dir("deadline");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = DurableEngine::create(
            &dir,
            ConcurrentEngine::new(spec(), 2).unwrap(),
            CheckpointPolicy::new(10_000, u64::MAX).unwrap(),
        )
        .unwrap();
        let st = state(Backend::durable(engine, &dir));
        // Deadline already expired: a transient failure must give up
        // without sleeping instead of burning the full retry budget.
        st.with_backend(|b| b.arm_kill(0, KillPoint::BeforeWalAppend));
        match st.ingest(&rows(10), 0, 0, &untraced()) {
            IngestOutcome::Unavailable { attempts, .. } => assert_eq!(attempts, 1),
            other => panic!("unexpected outcome: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
