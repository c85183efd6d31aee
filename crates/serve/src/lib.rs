//! `sketches-serve`: a hardened, dependency-free HTTP/1.1 front door for
//! the stream-aggregation engine.
//!
//! The crate turns a [`sketches_streamdb::ConcurrentEngine`] (optionally
//! wrapped in a [`sketches_streamdb::DurableEngine`]) into a network
//! service whose failure behaviour is pinned by tests rather than hoped
//! for:
//!
//! * **Per-request deadlines** — socket read/write timeouts plus a total
//!   wall-clock budget; a request that exceeds either gets a typed `504`
//!   and its connection (and worker) is reclaimed.
//! * **Bounded admission** — a fixed worker pool fed by bounded per-worker
//!   queues; overload is shed at the accept thread with typed `429`/`503`
//!   responses carrying `Retry-After`. No queue in the crate is unbounded.
//! * **Retry with backoff** — transient durability faults are retried with
//!   seeded, jittered exponential backoff and a bounded attempt budget;
//!   recovery reconciliation guarantees an acknowledged batch is ingested
//!   exactly once.
//! * **Graceful degradation** — a poisoned engine flips the server
//!   read-only: queries keep serving the last published epoch, ingest
//!   returns `503`, `/healthz` stays green, `/readyz` goes red.
//! * **Graceful drain** — [`Server::shutdown`] stops admission, drains
//!   queued and in-flight requests, flushes a final checkpoint, and
//!   reports what it did; a restart from the same directory is byte-exact.
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /metrics` | Engine + durability + server metrics, Prometheus text (`?format=json` for one JSON object) |
//! | `GET /healthz` | Liveness: `200` while the process serves |
//! | `GET /readyz` | Readiness: `503` when draining or degraded |
//! | `GET /v1/groups` | Group keys (`?limit=N`) |
//! | `GET/POST /v1/report` | One group's aggregates (`?key=[...]` or body), or a versioned batch via `?keys=[...],[...]` / repeated `key=` |
//! | `GET /v1/view` | The slim query-side [`sketches_streamdb::EngineView`] envelope (binary) |
//! | `POST /v1/ingest` | Batch ingest `{"rows": [[...], ...]}` |
//! | `GET /v1/debug/traces` | Recent head-sampled request traces (`?count=N`), newest first |
//! | `GET /v1/debug/slow` | Recent slow-request traces, retained regardless of sampling |
//!
//! # Tracing
//!
//! Every request can carry a [`sketches_obs::TraceContext`] from the
//! socket down to the WAL: the server opens a root span (honouring an
//! incoming `traceparent` header and emitting one on the response), and
//! each stage — parse, handle, write, coordinator-lock wait, engine apply,
//! epoch publish, WAL append, fsync, checkpoint — closes a child span
//! *and* records into the shared `stage_latency_seconds{stage=...}`
//! histogram family. Head sampling ([`tracing::TraceConfig`]) bounds the
//! cost; completed traces land in fixed-capacity rings served by the
//! debug endpoints.
//!
//! Everything is plain `std` networking — no async runtime, no external
//! HTTP dependency — so the robustness properties live in ~seven small
//! modules that the workspace's concurrency lints (L6, L7, L9) fully cover.

pub mod backoff;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod state;
pub mod tracing;

pub use backoff::RetryPolicy;
pub use http::{Limits, Request, Response};
pub use json::Json;
pub use metrics::{Route, ServerMetrics};
pub use server::{DrainReport, Server, ServerConfig};
pub use sketches_obs::Sampling;
pub use state::{AppState, Backend, BatchOutcome, IngestOutcome};
pub use tracing::{RequestTrace, TraceConfig, Tracer};
