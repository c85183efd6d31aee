//! The server proper: bounded accept/worker pipeline, routing, deadlines,
//! and graceful drain.
//!
//! # Robustness invariants
//!
//! * **Bounded admission** — each worker owns a bounded handoff channel;
//!   the accept loop round-robins `try_send` across them and, when every
//!   queue is full, sheds the connection inline with a typed 429 and
//!   `Retry-After`. Nothing in the server is unbounded.
//! * **Per-request deadlines** — socket read/write timeouts plus a total
//!   wall-clock budget; exceeding either produces a typed 504 and the
//!   connection is closed, never leaked.
//! * **Recorded before visible** — a request is counted in `/metrics` and
//!   its sampled trace is in `/v1/debug/traces` before the connection is
//!   half-closed, so a client that has read a response to EOF finds it in
//!   both.
//! * **Graceful degradation** — a poisoned engine flips the server
//!   read-only: queries keep serving the last published epoch, ingest
//!   returns 503, `/healthz` stays green, `/readyz` goes red.
//! * **Graceful drain** — [`Server::shutdown`] stops admission (the accept
//!   thread, blocked in `accept()`, is woken by a connect to the bound
//!   port), drains queued and in-flight requests, flushes a final
//!   checkpoint, and reports what it did.

use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use sketches_obs::{MonotonicClock, Sampling, Stage, Trace, TraceContext};
use sketches_streamdb::{BatchError, KillPoint, ReadHandle, Row, Value};

use crate::backoff::RetryPolicy;
use crate::http::{read_request, Limits, ReadError, Request, Response};
use crate::json::{value_to_json, Json};
use crate::metrics::{Route, ServerMetrics};
use crate::state::{AppState, Backend, IngestOutcome};
use crate::tracing::{RequestTrace, TraceConfig, Tracer};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads (each fully owns one connection at a time).
    pub workers: usize,
    /// Queued connections per worker beyond the one in service.
    pub queue_depth: usize,
    /// Socket read timeout (slow or stalled clients).
    pub read_timeout: Duration,
    /// Socket write timeout (slow consumers).
    pub write_timeout: Duration,
    /// Total wall-clock budget per request; exceeded ⇒ typed 504.
    pub request_budget: Duration,
    /// Request size caps.
    pub limits: Limits,
    /// Retry policy for transient ingest failures.
    pub retry: RetryPolicy,
    /// Seconds suggested to shed clients via `Retry-After`.
    pub retry_after_secs: u64,
    /// Request tracing: sampling policy, sink capacities, slow threshold.
    pub trace: TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 2,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            request_budget: Duration::from_secs(2),
            limits: Limits::default(),
            retry: RetryPolicy::default(),
            retry_after_secs: 1,
            trace: TraceConfig::default(),
        }
    }
}

/// What a graceful drain accomplished.
#[derive(Debug)]
pub struct DrainReport {
    /// Wall time from shutdown start to full stop, nanoseconds.
    pub elapsed_nanos: u64,
    /// Whether a final checkpoint was written (`false` for volatile
    /// backends).
    pub checkpointed: bool,
    /// The checkpoint failure, if it failed.
    pub checkpoint_error: Option<String>,
    /// Requests completed over the server's lifetime, by the time the
    /// last worker exited.
    pub requests_completed: u64,
    /// Connections shed over the server's lifetime.
    pub shed_total: u64,
}

/// A running HTTP front door over a [`Backend`].
#[derive(Debug)]
pub struct Server {
    state: Arc<AppState>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    // Kept so drain can close the handoff channels (dropping the senders
    // lets each worker finish its queue, then observe disconnect and exit).
    worker_txs: Vec<Sender<TcpStream>>,
}

impl Server {
    /// Binds, spawns the worker pool and accept loop, and starts serving.
    ///
    /// # Errors
    /// Returns the bind/configuration failure.
    pub fn start(config: ServerConfig, backend: Backend) -> Result<Self, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;

        let state = Arc::new(AppState::new(
            backend,
            Arc::new(MonotonicClock::new()),
            config.retry,
            Tracer::new(&config.trace),
        )?);
        let stop = Arc::new(AtomicBool::new(false));

        let workers = config.workers.max(1);
        let mut worker_txs = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = bounded::<TcpStream>(config.queue_depth.max(1));
            worker_txs.push(tx);
            let state = Arc::clone(&state);
            let config = config.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &state, &config))
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }

        let accept_handle = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let txs = worker_txs.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &txs, &state, &stop, &config))
                .map_err(|e| format!("spawn accept loop: {e}"))?
        };

        Ok(Self {
            state,
            addr,
            stop,
            accept_handle: Some(accept_handle),
            worker_handles,
            worker_txs,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's request/shed/latency metrics.
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.state.metrics
    }

    /// A read handle onto the engine (drill verification).
    #[must_use]
    pub fn reader(&self) -> ReadHandle {
        self.state.reader()
    }

    /// Whether the server has degraded to read-only.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.state.degraded.load(Ordering::Acquire)
    }

    /// Drill hook: kills the engine coordinator (the server must degrade,
    /// not deadlock).
    pub fn inject_coordinator_panic(&self) {
        self.state.with_backend(|b| b.inject_coordinator_panic());
    }

    /// Drill hook: arms a simulated durability kill (see
    /// [`sketches_streamdb::DurableEngine::arm_kill`]).
    pub fn arm_durability_kill(&self, at_batch: u64, point: KillPoint) {
        self.state.with_backend(|b| b.arm_kill(at_batch, point));
    }

    /// Gracefully drains: stops admission, finishes queued and in-flight
    /// requests, flushes a final checkpoint, and stops all threads.
    #[must_use]
    pub fn shutdown(mut self) -> DrainReport {
        let start = self.state.clock.now_nanos();
        self.state.draining.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        wake_accept(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Close the handoff channels: workers drain their queues, then see
        // the disconnect and exit.
        self.worker_txs.clear();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        let checkpoint = self.state.with_backend(Backend::checkpoint_now);
        let (checkpointed, checkpoint_error) = match checkpoint {
            Ok(wrote) => (wrote, None),
            Err(e) => (false, Some(e)),
        };
        let requests_completed = {
            let snap = self.state.metrics.snapshot();
            snap.counters
                .iter()
                .filter(|(k, _)| k.starts_with("serve_requests_total{"))
                .map(|(_, v)| *v)
                .sum()
        };
        DrainReport {
            elapsed_nanos: self.state.clock.now_nanos().saturating_sub(start),
            checkpointed,
            checkpoint_error,
            requests_completed,
            shed_total: self.state.metrics.shed_total(),
        }
    }
}

impl Drop for Server {
    // lint: drop-ok(the flag stores plus one best-effort, time-bounded wake connect
    // whose failure is ignored; joins, locks, the final checkpoint are `shutdown`'s)
    fn drop(&mut self) {
        self.state.draining.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        // Unless `shutdown` joined it, the accept thread holds the listener.
        if self.accept_handle.is_some() {
            wake_accept(self.addr);
        }
    }
}

/// Unblocks the accept thread once `stop` is set: one best-effort connect
/// to the bound port (loopback of the same family for an unspecified IP).
fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn accept_loop(
    listener: &TcpListener,
    txs: &[Sender<TcpStream>],
    state: &AppState,
    stop: &AtomicBool,
    config: &ServerConfig,
) {
    let mut next = 0usize;
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            // The wake connect or a late arrival: dropped unanswered.
            return;
        }
        match accepted {
            Ok((stream, _)) => admit(stream, txs, &mut next, state, config),
            // EMFILE fails at once until a worker frees a descriptor: back off, don't spin.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Hands a fresh connection to a worker, or sheds it inline.
fn admit(
    stream: TcpStream,
    txs: &[Sender<TcpStream>],
    next: &mut usize,
    state: &AppState,
    config: &ServerConfig,
) {
    // Bound every write the accept thread itself performs: a dead or
    // stalled client must not wedge admission for everyone else.
    let _ = stream.set_write_timeout(Some(config.write_timeout));

    if state.draining.load(Ordering::Acquire) {
        shed(stream, state, config, 503, "draining", "server is draining");
        return;
    }

    // Round-robin try_send: one full queue falls through to the next
    // worker; only when every queue is full is the connection shed.
    let mut candidate = stream;
    for offset in 0..txs.len() {
        let idx = (*next + offset) % txs.len();
        match txs[idx].try_send(candidate) {
            Ok(()) => {
                *next = (idx + 1) % txs.len();
                return;
            }
            Err(TrySendError::Full(back)) => candidate = back,
            Err(TrySendError::Disconnected(back)) => candidate = back,
        }
    }
    shed(
        candidate,
        state,
        config,
        429,
        "overloaded",
        "all worker queues are full",
    );
}

/// Writes a typed shed response inline on the accept thread.
fn shed(
    mut stream: TcpStream,
    state: &AppState,
    config: &ServerConfig,
    status: u16,
    code: &str,
    detail: &str,
) {
    state.metrics.record_shed();
    let started = state.clock.now_nanos();
    let response = Response::error(status, code, detail).retry_after(config.retry_after_secs);
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
    // Recorded before the half-close: a client that has read the
    // response already finds it counted.
    state.metrics.record(
        Route::Accept,
        status,
        state.clock.now_nanos().saturating_sub(started),
    );
    // Short drain budget: shedding runs on the accept thread, so a
    // misbehaving client must not stall admission for long.
    finish_connection(&stream, Duration::from_millis(20));
}

/// Closes a connection without a TCP reset: half-close the write side so
/// the client observes EOF after the response, then consume whatever
/// request bytes are still in flight (bounded in bytes and by `drain`)
/// — closing a socket with unread received data makes the kernel send
/// RST, which can discard the response before the client reads it.
fn finish_connection(mut stream: &TcpStream, drain: Duration) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(drain));
    let mut sink = [0u8; 1024];
    let mut budget = 64 * 1024usize;
    while budget > 0 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

fn worker_loop(rx: &Receiver<TcpStream>, state: &AppState, config: &ServerConfig) {
    // The recv error is disconnection: drain is complete, exit cleanly.
    while let Ok(stream) = rx.recv() {
        handle_connection(stream, state, config);
    }
}

/// Serves exactly one request on `stream`, then closes it.
fn handle_connection(mut stream: TcpStream, state: &AppState, config: &ServerConfig) {
    state.metrics.enter();
    let started = state.clock.now_nanos();
    let deadline = started.saturating_add(config.request_budget.as_nanos() as u64);

    let _ = stream.set_read_timeout(Some(config.read_timeout.min(config.request_budget)));
    let _ = stream.set_write_timeout(Some(config.write_timeout.min(config.request_budget)));

    let mut trace = RequestTrace::disabled();
    let (route, response) = match read_request(&mut stream, &config.limits) {
        Ok(req) => {
            // The trace can only start once the headers are parsed (the
            // incoming `traceparent` lives there), so the parse span is
            // recorded retroactively against the connection start.
            trace = state.tracer.begin(req.header("traceparent"));
            let parse_end = state.clock.now_nanos();
            state
                .metrics
                .record_stage(Stage::Parse, parse_end.saturating_sub(started));
            trace.ctx.child(Stage::Parse, started, parse_end);

            let (route, response) = route_request(&req, state, config, deadline, &trace.ctx);
            let handle_end = state.clock.now_nanos();
            state
                .metrics
                .record_stage(Stage::Handle, handle_end.saturating_sub(parse_end));
            trace
                .ctx
                .child_with(Stage::Handle, parse_end, handle_end, vec![]);
            (route, response)
        }
        Err(ReadError::TimedOut) => (
            Route::Other,
            Response::error(504, "deadline_exceeded", "timed out reading the request"),
        ),
        Err(ReadError::TooLarge) => (
            Route::Other,
            Response::error(413, "too_large", "request exceeds configured limits"),
        ),
        Err(ReadError::Malformed(m)) => (
            Route::Other,
            Response::error(400, "malformed", &format!("unparseable request: {m}")),
        ),
        Err(ReadError::Closed) | Err(ReadError::Io(_)) => {
            // Nothing parseable arrived; close without accounting a request.
            state.metrics.exit();
            return;
        }
    };

    // The total budget wins over whatever the handler produced: a request
    // that exhausted its wall-clock allotment is a deadline failure even
    // if an answer eventually materialized.
    let response = if state.clock.now_nanos() >= deadline {
        Response::error(
            504,
            "deadline_exceeded",
            "request exceeded its total time budget",
        )
    } else {
        response
    };
    // Announce the trace so clients (and tests) can correlate responses
    // with `/v1/debug/traces` entries.
    let response = match trace.ctx.traceparent() {
        Some(tp) => response.with_header("traceparent", tp),
        None => response,
    };

    let write_start = state.clock.now_nanos();
    let _ = response.write_to(&mut stream);
    let ended = state.clock.now_nanos();
    state
        .metrics
        .record_stage(Stage::Write, ended.saturating_sub(write_start));
    trace.ctx.child(Stage::Write, write_start, ended);
    state
        .metrics
        .record(route, response.status, ended.saturating_sub(started));
    state.tracer.finish(
        &trace,
        started,
        ended,
        vec![
            ("route".to_string(), route.label().to_string()),
            ("status".to_string(), response.status.to_string()),
        ],
    );
    state.metrics.exit();
    // Only now half-close: the client sees EOF after the request is in
    // `/metrics` and its trace, if sampled, in `/v1/debug/traces`.
    finish_connection(&stream, config.read_timeout);
}

/// Dispatches a parsed request to its handler.
fn route_request(
    req: &Request,
    state: &AppState,
    config: &ServerConfig,
    deadline: u64,
    ctx: &TraceContext,
) -> (Route, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => (Route::Metrics, metrics_response(req, state)),
        ("GET", "/healthz") => (Route::Healthz, Response::json(200, "{\"status\":\"ok\"}")),
        ("GET", "/readyz") => (Route::Readyz, readyz_response(state)),
        ("GET", "/v1/groups") => (Route::Groups, groups_response(req, state)),
        ("GET" | "POST", "/v1/report") => (Route::Report, report_response(req, state)),
        ("GET", "/v1/view") => (Route::View, view_response(state)),
        ("POST", "/v1/ingest") => (
            Route::Ingest,
            ingest_response(req, state, config, deadline, ctx),
        ),
        ("GET", "/v1/debug/traces") => (Route::DebugTraces, debug_traces_response(req, state)),
        ("GET", "/v1/debug/slow") => (Route::DebugSlow, debug_slow_response(req, state)),
        (
            _,
            "/metrics" | "/healthz" | "/readyz" | "/v1/groups" | "/v1/report" | "/v1/view"
            | "/v1/ingest" | "/v1/debug/traces" | "/v1/debug/slow",
        ) => (
            Route::Other,
            Response::error(
                405,
                "method_not_allowed",
                "unsupported method for this path",
            ),
        ),
        _ => (
            Route::Other,
            Response::error(404, "not_found", "unknown path"),
        ),
    }
}

/// `/metrics`: engine + durability + server metrics, merged. The default
/// rendering is Prometheus text; `?format=json` returns the same
/// snapshot as one JSON object, and any other format is a typed 400.
fn metrics_response(req: &Request, state: &AppState) -> Response {
    let format = req.query_param("format").unwrap_or("prometheus");
    if format != "prometheus" && format != "json" {
        return Response::error(
            400,
            "bad_query",
            "format must be \"prometheus\" or \"json\"",
        );
    }
    let mut snap = state.reader().metrics();
    let durability = state.with_backend(|b| b.durability_metrics());
    let merged = snap
        .merge(&durability)
        .and_then(|()| snap.merge(&state.metrics.snapshot()));
    if let Err(e) = merged {
        return Response::error(500, "metrics_failed", &e.to_string());
    }
    if format == "json" {
        Response::json(200, snap.to_json())
    } else {
        Response::text(200, snap.to_prometheus())
    }
}

/// Default and maximum `?count=` for the debug trace endpoints.
const DEBUG_TRACES_DEFAULT: usize = 16;
const DEBUG_TRACES_MAX: usize = 256;

/// Parses the bounded `?count=` parameter shared by the debug endpoints.
fn parse_debug_count(req: &Request) -> Result<usize, Response> {
    match req.query_param("count").map(str::parse::<usize>) {
        None => Ok(DEBUG_TRACES_DEFAULT),
        Some(Ok(n)) if (1..=DEBUG_TRACES_MAX).contains(&n) => Ok(n),
        Some(_) => Err(Response::error(
            400,
            "bad_query",
            &format!("count must be an integer in 1..={DEBUG_TRACES_MAX}"),
        )),
    }
}

/// Renders a trace list endpoint body: versioned envelope, newest first.
fn traces_body(traces: &[Trace], extra: &[(String, Json)], state: &AppState) -> String {
    let sampling = match state.tracer.sampling() {
        Sampling::Off => "off".to_string(),
        Sampling::Always => "always".to_string(),
        Sampling::SampleEvery(n) => format!("every_{n}"),
    };
    let mut out = format!(
        "{{\"version\":1,\"sampling\":{},",
        crate::json::escape(&sampling)
    );
    for (k, v) in extra {
        out.push_str(&format!("{}:{},", crate::json::escape(k), v.render()));
    }
    out.push_str(&format!("\"count\":{},\"traces\":[", traces.len()));
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    out.push_str("]}");
    out
}

/// `GET /v1/debug/traces?count=N`: the most recent head-sampled traces,
/// newest first, from the bounded in-memory ring.
fn debug_traces_response(req: &Request, state: &AppState) -> Response {
    let count = match parse_debug_count(req) {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    let traces = state.tracer.recent(count);
    let extra = [(
        "capacity".to_string(),
        Json::U64(state.tracer.capacity() as u64),
    )];
    Response::json(200, traces_body(&traces, &extra, state))
}

/// `GET /v1/debug/slow?count=N`: recent slow requests (end-to-end time
/// over the configured threshold), force-retained regardless of the
/// sampling policy.
fn debug_slow_response(req: &Request, state: &AppState) -> Response {
    let count = match parse_debug_count(req) {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    let traces = state.tracer.slow_recent(count);
    let extra = [
        (
            "capacity".to_string(),
            Json::U64(state.tracer.slow_capacity() as u64),
        ),
        (
            "slow_threshold_nanos".to_string(),
            Json::U64(state.tracer.slow_threshold_nanos()),
        ),
    ];
    Response::json(200, traces_body(&traces, &extra, state))
}

fn readyz_response(state: &AppState) -> Response {
    if state.draining.load(Ordering::Acquire) {
        Response::json(503, "{\"ready\":false,\"reason\":\"draining\"}")
    } else if state.degraded.load(Ordering::Acquire) {
        Response::json(
            503,
            "{\"ready\":false,\"reason\":\"degraded: engine poisoned, serving reads only\"}",
        )
    } else {
        // The typed accessor replaces the old habit of sniffing snapshot
        // envelope headers to learn what the backend would write.
        let kind = state.reader().snapshot_kind();
        Response::json(
            200,
            format!("{{\"ready\":true,\"snapshot_kind\":\"{kind}\"}}"),
        )
    }
}

/// `/v1/view`: the slim query-side view of the latest published epoch as
/// a checksummed binary envelope — what a replica or cache fetches
/// instead of the fat snapshot.
fn view_response(state: &AppState) -> Response {
    Response::octets(200, state.reader().query_view().to_view_bytes())
}

fn groups_response(req: &Request, state: &AppState) -> Response {
    let limit = match req.query_param("limit").map(str::parse::<usize>) {
        None => usize::MAX,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            return Response::error(400, "bad_query", "limit must be a non-negative integer")
        }
    };
    let reader = state.reader();
    let groups = reader.groups();
    let total = groups.len();
    let items: Vec<Json> = groups
        .into_iter()
        .take(limit)
        .map(|key| Json::Arr(key.iter().map(value_to_json).collect()))
        .collect();
    let body = Json::Obj(vec![
        ("total".to_string(), Json::U64(total as u64)),
        ("groups".to_string(), Json::Arr(items)),
    ]);
    Response::json(200, body.render())
}

/// Converts a parsed JSON array document into a group key.
fn key_from_doc(doc: &Json, code: &str) -> Result<Vec<Value>, Response> {
    let arr = match doc.as_array() {
        Some(a) => a,
        None => return Err(Response::error(400, code, "key must be a JSON array")),
    };
    arr.iter()
        .map(|j| j.to_value().map_err(|e| Response::error(400, code, &e)))
        .collect()
}

/// Extracts the group key from `?key=<json array>` or a `{"key": [...]}`
/// body.
fn parse_key(req: &Request) -> Result<Vec<Value>, Response> {
    let doc = if let Some(raw) = req.query_param("key") {
        Json::parse(raw)
            .map_err(|e| Response::error(400, "bad_key", &format!("key is not valid JSON: {e}")))?
    } else if !req.body.is_empty() {
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| Response::error(400, "bad_body", "body is not UTF-8"))?;
        let body = Json::parse(text)
            .map_err(|e| Response::error(400, "bad_body", &format!("invalid JSON: {e}")))?;
        body.get("key")
            .cloned()
            .ok_or_else(|| Response::error(400, "bad_key", "body must carry a \"key\" field"))?
    } else {
        return Err(Response::error(
            400,
            "bad_key",
            "pass ?key=<json array> or a {\"key\": [...]} body",
        ));
    };
    key_from_doc(&doc, "bad_key")
}

/// Upper bound on keys per batched `/v1/report` request.
const MAX_REPORT_KEYS: usize = 64;

/// Splits a `keys=` list on top-level commas: commas nested inside
/// `[...]` or a quoted string belong to the key, not the list.
fn split_keys_list(raw: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, b) in raw.bytes().enumerate() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' => depth += 1,
            b']' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                out.push(&raw[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&raw[start..]);
    out
}

/// Parses one element of a `keys=` list: a JSON array is a full group
/// key; a JSON scalar is a single-field key; anything unparseable is
/// taken as a bare string key (so `keys=us,eu` works without quoting).
fn parse_key_token(token: &str) -> Result<Vec<Value>, Response> {
    let token = token.trim();
    if token.is_empty() {
        return Err(Response::error(
            400,
            "bad_keys",
            "keys list contains an empty key",
        ));
    }
    if token.starts_with('[') {
        let doc = Json::parse(token).map_err(|e| {
            Response::error(400, "bad_keys", &format!("key is not valid JSON: {e}"))
        })?;
        return key_from_doc(&doc, "bad_keys");
    }
    match Json::parse(token) {
        Ok(doc) => Ok(vec![doc
            .to_value()
            .map_err(|e| Response::error(400, "bad_keys", &e))?]),
        Err(_) => Ok(vec![Value::Str(token.to_string())]),
    }
}

/// Collects the batched key list: every `key=` parameter plus every
/// element of every `keys=` list, in request order.
fn parse_batch_keys(req: &Request) -> Result<Vec<Vec<Value>>, Response> {
    let mut keys = Vec::new();
    for (name, value) in &req.query {
        match name.as_str() {
            "key" => {
                let doc = Json::parse(value).map_err(|e| {
                    Response::error(400, "bad_key", &format!("key is not valid JSON: {e}"))
                })?;
                keys.push(key_from_doc(&doc, "bad_key")?);
            }
            "keys" => {
                for token in split_keys_list(value) {
                    keys.push(parse_key_token(token)?);
                }
            }
            _ => {}
        }
    }
    if keys.is_empty() {
        return Err(Response::error(400, "bad_keys", "keys list is empty"));
    }
    if keys.len() > MAX_REPORT_KEYS {
        return Err(Response::error(
            400,
            "bad_keys",
            &format!("too many keys: {} (limit {MAX_REPORT_KEYS})", keys.len()),
        ));
    }
    Ok(keys)
}

fn report_response(req: &Request, state: &AppState) -> Response {
    // Batched form: a `keys=` list or repeated `key=` parameters. The
    // single-key form keeps its original response shape exactly.
    if req.query_param("keys").is_some() || req.query_params("key").len() > 1 {
        return batch_report_response(req, state);
    }
    let key = match parse_key(req) {
        Ok(k) => k,
        Err(resp) => return resp,
    };
    let reader = state.reader();
    match reader.report(&key) {
        Ok(Some(aggs)) => {
            let rendered: Vec<Json> = aggs.iter().map(aggregate_to_json).collect();
            let body = Json::Obj(vec![
                (
                    "key".to_string(),
                    Json::Arr(key.iter().map(value_to_json).collect()),
                ),
                ("aggregates".to_string(), Json::Arr(rendered)),
            ]);
            Response::json(200, body.render())
        }
        Ok(None) => Response::error(404, "unknown_group", "no such group key"),
        Err(e) => Response::error(500, "query_failed", &e.to_string()),
    }
}

/// Batched `/v1/report`: one versioned array entry per requested key;
/// unknown groups report `found: false` instead of failing the batch.
fn batch_report_response(req: &Request, state: &AppState) -> Response {
    let keys = match parse_batch_keys(req) {
        Ok(k) => k,
        Err(resp) => return resp,
    };
    let reader = state.reader();
    let mut reports = Vec::with_capacity(keys.len());
    for key in keys {
        let rendered_key = Json::Arr(key.iter().map(value_to_json).collect());
        let entry = match reader.report(&key) {
            Ok(Some(aggs)) => Json::Obj(vec![
                ("key".to_string(), rendered_key),
                ("found".to_string(), Json::Bool(true)),
                (
                    "aggregates".to_string(),
                    Json::Arr(aggs.iter().map(aggregate_to_json).collect()),
                ),
            ]),
            Ok(None) => Json::Obj(vec![
                ("key".to_string(), rendered_key),
                ("found".to_string(), Json::Bool(false)),
                ("aggregates".to_string(), Json::Arr(Vec::new())),
            ]),
            Err(e) => return Response::error(500, "query_failed", &e.to_string()),
        };
        reports.push(entry);
    }
    let body = Json::Obj(vec![
        ("version".to_string(), Json::U64(1)),
        ("reports".to_string(), Json::Arr(reports)),
    ]);
    Response::json(200, body.render())
}

fn aggregate_to_json(agg: &sketches_streamdb::AggregateResult) -> Json {
    use sketches_streamdb::AggregateResult;
    match agg {
        AggregateResult::Count(n) => Json::Obj(vec![
            ("agg".to_string(), Json::Str("count".to_string())),
            ("value".to_string(), Json::U64(*n)),
        ]),
        AggregateResult::Sum(x) => Json::Obj(vec![
            ("agg".to_string(), Json::Str("sum".to_string())),
            ("value".to_string(), Json::F64(*x)),
        ]),
        AggregateResult::CountDistinct(x) => Json::Obj(vec![
            ("agg".to_string(), Json::Str("count_distinct".to_string())),
            ("value".to_string(), Json::F64(*x)),
        ]),
        AggregateResult::Quantiles { p50, p95, p99 } => Json::Obj(vec![
            ("agg".to_string(), Json::Str("quantiles".to_string())),
            ("p50".to_string(), Json::F64(*p50)),
            ("p95".to_string(), Json::F64(*p95)),
            ("p99".to_string(), Json::F64(*p99)),
        ]),
        AggregateResult::Frequency { total } => Json::Obj(vec![
            ("agg".to_string(), Json::Str("frequency".to_string())),
            ("total".to_string(), Json::U64(*total)),
        ]),
        AggregateResult::TopK(items) => Json::Obj(vec![
            ("agg".to_string(), Json::Str("top_k".to_string())),
            (
                "items".to_string(),
                Json::Arr(
                    items
                        .iter()
                        .map(|(v, n)| Json::Arr(vec![value_to_json(v), Json::U64(*n)]))
                        .collect(),
                ),
            ),
        ]),
    }
}

/// Parses an ingest body `{"rows": [[...], ...]}` into engine rows.
fn parse_rows(body: &[u8]) -> Result<Vec<Row>, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "bad_body", "body is not UTF-8"))?;
    let doc = Json::parse(text)
        .map_err(|e| Response::error(400, "bad_body", &format!("invalid JSON: {e}")))?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| Response::error(400, "bad_body", "body must carry a \"rows\" array"))?;
    rows.iter()
        .map(|row| {
            let cells = row
                .as_array()
                .ok_or_else(|| Response::error(400, "bad_row", "each row must be an array"))?;
            cells
                .iter()
                .map(|c| {
                    c.to_value()
                        .map_err(|e| Response::error(400, "bad_row", &e))
                })
                .collect()
        })
        .collect()
}

fn ingest_response(
    req: &Request,
    state: &AppState,
    config: &ServerConfig,
    deadline: u64,
    ctx: &TraceContext,
) -> Response {
    if state.draining.load(Ordering::Acquire) {
        return Response::error(503, "draining", "server is draining")
            .retry_after(config.retry_after_secs);
    }
    if state.degraded.load(Ordering::Acquire) {
        return Response::error(503, "read_only", "engine degraded; serving reads only");
    }
    let rows = match parse_rows(&req.body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    if rows.is_empty() {
        return Response::json(200, "{\"ingested\":0,\"quarantined\":0,\"attempts\":0}");
    }
    if state.clock.now_nanos() >= deadline {
        return Response::error(
            504,
            "deadline_exceeded",
            "request exceeded its total time budget",
        );
    }
    match state.ingest(&rows, deadline, state.token(), ctx) {
        IngestOutcome::Ok { summary, attempts } => Response::json(
            200,
            format!(
                "{{\"ingested\":{},\"quarantined\":{},\"attempts\":{}}}",
                summary.rows_ingested, summary.rows_quarantined, attempts
            ),
        ),
        IngestOutcome::Rejected(e) => batch_error_response(&e),
        IngestOutcome::Degraded(msg) => Response::error(503, "read_only", &msg),
        IngestOutcome::Unavailable { detail, attempts } => Response::error(
            503,
            "unavailable",
            &format!("gave up after {attempts} attempts: {detail}"),
        )
        .retry_after(config.retry_after_secs),
    }
}

fn batch_error_response(e: &BatchError) -> Response {
    let mut obj = vec![
        ("error".to_string(), Json::Str("bad_batch".to_string())),
        ("detail".to_string(), Json::Str(e.to_string())),
    ];
    if let Some(row) = e.row {
        obj.push(("row".to_string(), Json::U64(row as u64)));
    }
    if let Some(shard) = e.shard {
        obj.push(("shard".to_string(), Json::U64(shard as u64)));
    }
    Response::json(400, Json::Obj(obj).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_bounded_and_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_depth >= 1);
        assert!(c.request_budget >= c.read_timeout);
    }

    #[test]
    fn keys_list_splits_at_top_level_commas_only() {
        assert_eq!(split_keys_list("[1],[2,3],us"), vec!["[1]", "[2,3]", "us"]);
        assert_eq!(split_keys_list("[\"a,b\"],c"), vec!["[\"a,b\"]", "c"]);
        assert_eq!(split_keys_list("solo"), vec!["solo"]);
        assert_eq!(split_keys_list(""), vec![""]);
    }

    #[test]
    fn key_tokens_parse_arrays_scalars_and_bare_strings() {
        assert_eq!(
            parse_key_token("[1,\"x\"]").unwrap(),
            vec![Value::U64(1), Value::Str("x".to_string())]
        );
        assert_eq!(parse_key_token("7").unwrap(), vec![Value::U64(7)]);
        assert_eq!(
            parse_key_token("us-east").unwrap(),
            vec![Value::Str("us-east".to_string())]
        );
        assert!(parse_key_token("  ").is_err());
        assert!(parse_key_token("[1,").is_err());
    }

    #[test]
    fn batch_error_renders_row_and_shard() {
        use sketches_streamdb::BatchCause;
        let resp = batch_error_response(&BatchError {
            row: Some(3),
            shard: Some(1),
            cause: BatchCause::WorkerPanic("boom".to_string()),
        });
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"row\":3"));
        assert!(body.contains("\"shard\":1"));
        assert!(body.contains("bad_batch"));
    }
}
