//! Self-hosted observability for the sketches workspace.
//!
//! The paper's §3 thesis is that sketches earned their keep inside
//! monitoring and telemetry pipelines (Gigascope/CMON, DataSketches).
//! This crate makes that thesis executable by *dogfooding* the
//! workspace's own summaries as its telemetry backend: latency
//! distributions are held in a [KLL sketch](sketches_quantiles::KllSketch)
//! rather than fixed buckets, so per-shard histograms merge without loss
//! (the mergeable-summaries contract) and report true stream quantiles.
//!
//! Three layers:
//!
//! - **Primitives** — [`Counter`] and [`Gauge`] (relaxed atomics, `&self`
//!   updates) and [`LatencyHistogram`] (KLL-backed, `&mut` record, `&self`
//!   query). All are allocation-free on the hot path.
//! - **Time** — the [`Clock`] trait. Library crates are forbidden from
//!   ambient time reads (`clippy::disallowed_methods`); the *only* sanctioned
//!   `Instant::now` call sites in the workspace are [`Clock`]
//!   implementations in this crate. Binaries install [`MonotonicClock`];
//!   tests install [`ManualClock`] and advance it by hand, keeping every
//!   test deterministic.
//! - **Aggregation** — [`Registry`] (string-keyed metrics + a bounded
//!   event log) and [`MetricsSnapshot`], a point-in-time view that merges
//!   across shards (counters add, gauges add, histograms sketch-merge)
//!   and renders as a human table, Prometheus text exposition, or JSON.
//! - **Tracing** — [`TraceContext`]/[`TraceSpan`] carry one request's
//!   per-stage latency breakdown from the socket to the WAL; completed
//!   traces land in a bounded [`TraceSink`]. Identifiers come from an
//!   injected seeded [`IdGen`] and sampling ([`Sampling`]) is a
//!   deterministic counter, mirroring the [`Clock`] discipline.
//!
//! ```
//! use sketches_obs::{Clock, LatencyHistogram, ManualClock, Span};
//!
//! let clock = ManualClock::default();
//! let mut hist = LatencyHistogram::new();
//! {
//!     let _span = Span::start(&clock, &mut hist);
//!     clock.advance(1_500); // pretend 1.5 µs of work
//! } // drop records into the histogram
//! assert_eq!(hist.snapshot().count(), 1);
//! ```

mod clock;
mod metrics;
mod registry;
mod snapshot;
mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{Counter, Gauge, LatencyHistogram, Span, OBS_KLL_K, OBS_KLL_SEED};
pub use registry::{Event, Registry, EVENT_CAP};
pub use snapshot::{json_string, HistogramSnapshot, MetricsSnapshot};
pub use trace::{
    IdGen, Sampler, Sampling, SpanId, Stage, Trace, TraceContext, TraceId, TraceSink, TraceSpan,
};
