//! Request-scoped tracing: hierarchical spans, deterministic sampling,
//! and a bounded ring-buffer sink for completed traces.
//!
//! The aggregate view (metrics) answers "how slow is the p99"; this
//! module answers "*why* was this request slow" — each request carries a
//! [`TraceContext`] from the socket down to the WAL, and every stage
//! closes a child [`TraceSpan`] naming where the nanoseconds went
//! (admission queue wait, engine apply, epoch publish, WAL append,
//! fsync, checkpoint). Completed traces land in a [`TraceSink`], a
//! fixed-capacity ring that evicts oldest-first and never allocates on
//! the push path after construction.
//!
//! Determinism mirrors the [`Clock`](crate::Clock) discipline: trace and
//! span identifiers come from an injected seeded [`IdGen`] (splitmix64),
//! never from ambient randomness, and head sampling ([`Sampling`]) is a
//! deterministic counter — so tests pin exact span trees with
//! [`ManualClock`](crate::ManualClock) and a fixed seed.
//!
//! ```
//! use sketches_obs::{IdGen, Stage, TraceContext};
//!
//! let mut ids = IdGen::new(7);
//! let ctx = TraceContext::root(ids.trace_id(), ids.span_id(), None);
//! ctx.child(Stage::QueueWait, 10, 25);
//! let trace = ctx.finish(Stage::Request, 0, 100, vec![]).unwrap();
//! assert_eq!(trace.spans.len(), 2);
//! assert_eq!(trace.spans[0].stage, Stage::Request);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sketches_hash::{Rng64, SplitMix64};

use crate::snapshot::json_string;

/// A 128-bit trace identifier (rendered as 32 lowercase hex digits, the
/// `traceparent` wire shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A 64-bit span identifier (rendered as 16 lowercase hex digits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Deterministic trace/span identifier generator.
///
/// Injected exactly like [`Clock`](crate::Clock): binaries seed it once
/// at startup, tests pass a fixed seed and get byte-identical
/// identifiers on every run. Identifiers are never all-zero (the
/// `traceparent` spec reserves zero to mean "absent").
#[derive(Debug, Clone)]
pub struct IdGen {
    rng: SplitMix64,
}

impl IdGen {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    fn next_nonzero(&mut self) -> u64 {
        loop {
            let v = self.rng.next_u64();
            if v != 0 {
                return v;
            }
        }
    }

    /// A fresh, non-zero trace identifier.
    pub fn trace_id(&mut self) -> TraceId {
        let hi = self.next_nonzero();
        let lo = self.next_nonzero();
        TraceId((u128::from(hi) << 64) | u128::from(lo))
    }

    /// A fresh, non-zero span identifier.
    pub fn span_id(&mut self) -> SpanId {
        SpanId(self.next_nonzero())
    }
}

/// The closed vocabulary of traced stages. Shared with the metric names
/// (`stage_latency{stage=...}`) so the aggregate histograms and the
/// per-request spans always speak the same language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The request root: socket accept to response written.
    Request,
    /// Reading and parsing the HTTP request off the socket.
    Parse,
    /// Routing and handling (everything between parse and write).
    Handle,
    /// Writing the response back to the socket.
    Write,
    /// Submit-queue wait: batch submitted to coordinator dequeue.
    QueueWait,
    /// Shard workers applying the batch (route + ingest + collect).
    EngineApply,
    /// Commit broadcast and epoch snapshot publish.
    Publish,
    /// Appending the encoded record to the WAL.
    WalAppend,
    /// Flushing the WAL append to disk.
    Fsync,
    /// Writing an atomic checkpoint (when the lag bound trips).
    Checkpoint,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::Request,
        Stage::Parse,
        Stage::Handle,
        Stage::Write,
        Stage::QueueWait,
        Stage::EngineApply,
        Stage::Publish,
        Stage::WalAppend,
        Stage::Fsync,
        Stage::Checkpoint,
    ];

    /// The stable lowercase label (metric label value and JSON field).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Parse => "parse",
            Stage::Handle => "handle",
            Stage::Write => "write",
            Stage::QueueWait => "queue_wait",
            Stage::EngineApply => "engine_apply",
            Stage::Publish => "publish",
            Stage::WalAppend => "wal_append",
            Stage::Fsync => "fsync",
            Stage::Checkpoint => "checkpoint",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Deterministic head-sampling policy: the decision is a pure function
/// of the request sequence number, so a replayed workload samples the
/// same requests every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Trace nothing (zero collection cost).
    Off,
    /// Trace request `seq` when `seq % n == 0` (`n == 0` behaves as Off).
    SampleEvery(u64),
    /// Trace every request.
    Always,
}

impl Sampling {
    /// Whether request number `seq` (0-based) is head-sampled.
    #[must_use]
    pub fn sample(self, seq: u64) -> bool {
        match self {
            Sampling::Off => false,
            Sampling::SampleEvery(n) => n != 0 && seq % n == 0,
            Sampling::Always => true,
        }
    }
}

/// A thread-safe sampling counter over a [`Sampling`] policy.
#[derive(Debug)]
pub struct Sampler {
    policy: Sampling,
    seq: AtomicU64,
}

impl Sampler {
    /// Creates a sampler with its sequence counter at zero.
    #[must_use]
    pub fn new(policy: Sampling) -> Self {
        Self {
            policy,
            seq: AtomicU64::new(0),
        }
    }

    /// The configured policy.
    #[must_use]
    pub fn policy(&self) -> Sampling {
        self.policy
    }

    /// Draws the next sequence number and returns its head decision.
    pub fn decide(&self) -> bool {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.policy.sample(seq)
    }
}

/// One completed span: a named stage with start/end clock readings and
/// key=value attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// This span's identifier.
    pub span_id: SpanId,
    /// The parent span (`None` only for a root with no remote parent).
    pub parent: Option<SpanId>,
    /// Which pipeline stage this span covers.
    pub stage: Stage,
    /// Clock reading when the stage began (nanoseconds).
    pub start_nanos: u64,
    /// Clock reading when the stage ended (nanoseconds).
    pub end_nanos: u64,
    /// Key=value annotations (row counts, routes, statuses, ...).
    pub attrs: Vec<(String, String)>,
}

impl TraceSpan {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// One completed trace: the root span first, child spans after it in
/// completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The trace identifier shared by every span.
    pub trace_id: TraceId,
    /// Root first, then children in the order their stages completed.
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// The root span.
    #[must_use]
    pub fn root(&self) -> &TraceSpan {
        // finish() always places the root span at index 0, and Trace values
        // are only built there.
        &self.spans[0]
    }

    /// End-to-end duration (the root span's duration), nanoseconds.
    #[must_use]
    pub fn duration_nanos(&self) -> u64 {
        self.root().duration_nanos()
    }

    /// Sum of the child spans' durations, nanoseconds. For a well-formed
    /// trace this never exceeds [`Trace::duration_nanos`] by more than
    /// clock-read jitter.
    #[must_use]
    pub fn child_duration_nanos(&self) -> u64 {
        self.spans[1..].iter().map(TraceSpan::duration_nanos).sum()
    }

    /// Renders the trace as one JSON object (hand-rolled, like
    /// [`crate::MetricsSnapshot::to_json`]). Keys and span order are
    /// deterministic, so a fixed clock + seed yields byte-identical output.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"trace_id\":\"{}\",", self.trace_id);
        out.push_str(&format!(
            "\"duration_nanos\":{},\"spans\":[",
            self.duration_nanos()
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"span_id\":\"{}\",\"parent\":", s.span_id));
            match s.parent {
                Some(p) => out.push_str(&format!("\"{p}\"")),
                None => out.push_str("null"),
            }
            out.push_str(&format!(
                ",\"stage\":\"{}\",\"start_nanos\":{},\"end_nanos\":{},\"attrs\":{{",
                s.stage, s.start_nanos, s.end_nanos
            ));
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// The per-request trace handle threaded from the front door down to the
/// WAL. Cloning is cheap (one `Arc`); a disabled context is a no-op at
/// every call site, so untraced requests pay only an `Option` check.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    inner: Option<Arc<ActiveTrace>>,
}

#[derive(Debug)]
struct ActiveTrace {
    trace_id: TraceId,
    root_span: SpanId,
    remote_parent: Option<SpanId>,
    state: Mutex<ActiveState>,
}

#[derive(Debug)]
struct ActiveState {
    ids: IdGen,
    children: Vec<TraceSpan>,
}

impl TraceContext {
    /// A context that collects nothing (the unsampled fast path).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Starts collecting a new trace rooted at `root_span`. Child span
    /// identifiers derive deterministically from the root identifier, so
    /// a fixed [`IdGen`] seed pins the whole tree.
    #[must_use]
    pub fn root(trace_id: TraceId, root_span: SpanId, remote_parent: Option<SpanId>) -> Self {
        Self {
            inner: Some(Arc::new(ActiveTrace {
                trace_id,
                root_span,
                remote_parent,
                state: Mutex::new(ActiveState {
                    ids: IdGen::new(root_span.0),
                    children: Vec::with_capacity(8),
                }),
            })),
        }
    }

    /// Whether this request is being collected.
    #[must_use]
    pub fn is_sampled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace identifier (when sampled).
    #[must_use]
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|t| t.trace_id)
    }

    /// The root span identifier (when sampled).
    #[must_use]
    pub fn root_span(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|t| t.root_span)
    }

    /// Closes a child span under the root. No-op when unsampled.
    pub fn child(&self, stage: Stage, start_nanos: u64, end_nanos: u64) {
        self.child_with(stage, start_nanos, end_nanos, Vec::new());
    }

    /// Closes an annotated child span under the root. No-op when
    /// unsampled.
    pub fn child_with(
        &self,
        stage: Stage,
        start_nanos: u64,
        end_nanos: u64,
        attrs: Vec<(String, String)>,
    ) {
        let Some(t) = &self.inner else { return };
        #[expect(
            clippy::expect_used,
            reason = "the trace mutex guards plain Vec pushes and an integer PRNG step; nothing inside can panic and poison it"
        )]
        let mut st = t.state.lock().expect("trace state lock");
        let span_id = st.ids.span_id();
        st.children.push(TraceSpan {
            span_id,
            parent: Some(t.root_span),
            stage,
            start_nanos,
            end_nanos,
            attrs,
        });
    }

    /// The `traceparent` header value announcing this trace
    /// (`00-<trace_id>-<root_span>-01`), when sampled.
    #[must_use]
    pub fn traceparent(&self) -> Option<String> {
        self.inner
            .as_ref()
            .map(|t| format!("00-{}-{}-01", t.trace_id, t.root_span))
    }

    /// Parses an incoming `traceparent` header: version 00, a non-zero
    /// 32-hex trace id, a non-zero 16-hex parent span id. Returns `None`
    /// (caller mints fresh ids) on any malformation.
    #[must_use]
    pub fn parse_traceparent(header: &str) -> Option<(TraceId, SpanId)> {
        let mut parts = header.trim().split('-');
        let version = parts.next()?;
        let trace_hex = parts.next()?;
        let span_hex = parts.next()?;
        let _flags = parts.next()?;
        if parts.next().is_some() || version != "00" {
            return None;
        }
        if trace_hex.len() != 32 || span_hex.len() != 16 {
            return None;
        }
        let trace = u128::from_str_radix(trace_hex, 16).ok()?;
        let span = u64::from_str_radix(span_hex, 16).ok()?;
        if trace == 0 || span == 0 {
            return None;
        }
        Some((TraceId(trace), SpanId(span)))
    }

    /// Closes the root span and assembles the completed [`Trace`]: root
    /// first, then children in completion order. Returns `None` when
    /// unsampled. Children recorded after `finish` are discarded.
    #[must_use]
    pub fn finish(
        &self,
        stage: Stage,
        start_nanos: u64,
        end_nanos: u64,
        attrs: Vec<(String, String)>,
    ) -> Option<Trace> {
        let t = self.inner.as_ref()?;
        let children = {
            #[expect(
                clippy::expect_used,
                reason = "the trace mutex guards plain Vec pushes and an integer PRNG step; nothing inside can panic and poison it"
            )]
            let mut st = t.state.lock().expect("trace state lock");
            std::mem::take(&mut st.children)
        };
        let mut spans = Vec::with_capacity(children.len() + 1);
        spans.push(TraceSpan {
            span_id: t.root_span,
            parent: t.remote_parent,
            stage,
            start_nanos,
            end_nanos,
            attrs,
        });
        spans.extend(children);
        Some(Trace {
            trace_id: t.trace_id,
            spans,
        })
    }
}

/// A bounded ring buffer of completed traces: fixed capacity, oldest
/// evicted first. Slots are allocated once at construction; `push` only
/// moves the trace into a slot, so the hot path never allocates.
#[derive(Debug)]
pub struct TraceSink {
    ring: Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug)]
struct Ring {
    slots: Vec<Option<Trace>>,
    next: usize,
    len: usize,
}

impl TraceSink {
    /// Creates a sink holding at most `capacity` traces (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Self {
            ring: Mutex::new(Ring {
                slots,
                next: 0,
                len: 0,
            }),
            capacity,
        }
    }

    /// Maximum traces retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces currently retained.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the ring mutex guards index arithmetic and slot moves only; nothing inside can panic and poison it"
    )]
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring lock").len
    }

    /// Whether the sink holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retains `trace`, evicting the oldest when full.
    pub fn push(&self, trace: Trace) {
        #[expect(
            clippy::expect_used,
            reason = "the ring mutex guards index arithmetic and slot moves only; nothing inside can panic and poison it"
        )]
        let mut r = self.ring.lock().expect("trace ring lock");
        let next = r.next;
        r.slots[next] = Some(trace);
        r.next = (next + 1) % self.capacity;
        r.len = (r.len + 1).min(self.capacity);
    }

    /// Up to `max` retained traces, newest first.
    #[must_use]
    pub fn recent(&self, max: usize) -> Vec<Trace> {
        #[expect(
            clippy::expect_used,
            reason = "the ring mutex guards index arithmetic and slot moves only; nothing inside can panic and poison it"
        )]
        // lint: lock-order-ok(the `push` under this guard is Vec::push on a local buffer, not TraceSink::push; the ring lock is taken exactly once)
        let r = self.ring.lock().expect("trace ring lock");
        let take = max.min(r.len);
        let mut out = Vec::with_capacity(take);
        for back in 1..=take {
            let idx = (r.next + self.capacity - back) % self.capacity;
            if let Some(t) = &r.slots[idx] {
                out.push(t.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idgen_is_deterministic_and_nonzero() {
        let mut a = IdGen::new(42);
        let mut b = IdGen::new(42);
        assert_eq!(a.trace_id(), b.trace_id());
        assert_eq!(a.span_id(), b.span_id());
        let mut c = IdGen::new(43);
        assert_ne!(IdGen::new(42).trace_id(), c.trace_id());
        for _ in 0..1_000 {
            assert_ne!(c.span_id().0, 0);
        }
    }

    #[test]
    fn id_display_is_fixed_width_hex() {
        assert_eq!(TraceId(1).to_string().len(), 32);
        assert_eq!(SpanId(1).to_string().len(), 16);
        assert_eq!(SpanId(0xabc).to_string(), "0000000000000abc");
    }

    #[test]
    fn sampling_policies() {
        assert!(!Sampling::Off.sample(0));
        assert!(Sampling::Always.sample(7));
        let every4 = Sampling::SampleEvery(4);
        let hits: Vec<u64> = (0..12).filter(|&s| every4.sample(s)).collect();
        assert_eq!(hits, vec![0, 4, 8]);
        assert!(!Sampling::SampleEvery(0).sample(0), "n=0 behaves as Off");
    }

    #[test]
    fn sampler_counts_deterministically() {
        let s = Sampler::new(Sampling::SampleEvery(3));
        let decisions: Vec<bool> = (0..6).map(|_| s.decide()).collect();
        assert_eq!(decisions, vec![true, false, false, true, false, false]);
    }

    #[test]
    fn traceparent_roundtrip_and_rejection() {
        let mut ids = IdGen::new(9);
        let ctx = TraceContext::root(ids.trace_id(), ids.span_id(), None);
        let header = ctx.traceparent().unwrap();
        let (tid, sid) = TraceContext::parse_traceparent(&header).unwrap();
        assert_eq!(Some(tid), ctx.trace_id());
        assert_eq!(Some(sid), ctx.root_span());

        for bad in [
            "",
            "00",
            "01-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
            "00-0123456789abcdef0123456789abcde-0123456789abcdef-01",
            "00-00000000000000000000000000000000-0123456789abcdef-01",
            "00-0123456789abcdef0123456789abcdef-0000000000000000-01",
            "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-xx",
            "00-zzzz56789abcdef0123456789abcdef0-0123456789abcdef-01",
        ] {
            assert!(
                TraceContext::parse_traceparent(bad).is_none(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn disabled_context_is_a_noop() {
        let ctx = TraceContext::disabled();
        assert!(!ctx.is_sampled());
        ctx.child(Stage::QueueWait, 0, 5);
        assert!(ctx.traceparent().is_none());
        assert!(ctx.finish(Stage::Request, 0, 10, vec![]).is_none());
    }

    #[test]
    fn finish_assembles_root_first_with_children_in_order() {
        let mut ids = IdGen::new(1);
        let remote = SpanId(0xdead);
        let ctx = TraceContext::root(ids.trace_id(), ids.span_id(), Some(remote));
        ctx.child(Stage::QueueWait, 10, 20);
        ctx.child_with(
            Stage::EngineApply,
            20,
            70,
            vec![("rows".to_string(), "5".to_string())],
        );
        let trace = ctx
            .finish(
                Stage::Request,
                0,
                100,
                vec![("route".to_string(), "ingest".to_string())],
            )
            .unwrap();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.root().stage, Stage::Request);
        assert_eq!(trace.root().parent, Some(remote));
        assert_eq!(trace.spans[1].stage, Stage::QueueWait);
        assert_eq!(trace.spans[2].stage, Stage::EngineApply);
        assert_eq!(trace.spans[1].parent, ctx.root_span());
        assert_eq!(trace.duration_nanos(), 100);
        assert_eq!(trace.child_duration_nanos(), 60);
    }

    #[test]
    fn trace_json_is_deterministic_for_a_fixed_seed() {
        let build = || {
            let mut ids = IdGen::new(0x5EED);
            let ctx = TraceContext::root(ids.trace_id(), ids.span_id(), None);
            ctx.child(Stage::WalAppend, 3, 9);
            ctx.finish(
                Stage::Request,
                0,
                12,
                vec![("status".to_string(), "200".to_string())],
            )
            .unwrap()
            .to_json()
        };
        let first = build();
        assert!(first.contains("\"stage\":\"wal_append\""));
        assert!(first.contains("\"duration_nanos\":12"));
        assert!(first.contains("\"status\":\"200\""));
        for _ in 0..20 {
            assert_eq!(build(), first, "trace JSON must be rebuild-stable");
        }
    }

    #[test]
    fn sink_is_bounded_and_evicts_oldest() {
        let sink = TraceSink::new(3);
        assert!(sink.is_empty());
        let mut ids = IdGen::new(2);
        let traces: Vec<Trace> = (0..5)
            .map(|i| {
                let ctx = TraceContext::root(ids.trace_id(), ids.span_id(), None);
                ctx.finish(Stage::Request, 0, i, vec![]).unwrap()
            })
            .collect();
        for t in &traces {
            sink.push(t.clone());
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.capacity(), 3);
        let recent = sink.recent(10);
        assert_eq!(recent.len(), 3);
        // Newest first; the two oldest were evicted.
        assert_eq!(recent[0].trace_id, traces[4].trace_id);
        assert_eq!(recent[1].trace_id, traces[3].trace_id);
        assert_eq!(recent[2].trace_id, traces[2].trace_id);
        assert_eq!(sink.recent(1).len(), 1);
    }

    #[test]
    fn stage_labels_are_stable() {
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "request",
                "parse",
                "handle",
                "write",
                "queue_wait",
                "engine_apply",
                "publish",
                "wal_append",
                "fsync",
                "checkpoint"
            ]
        );
    }
}
