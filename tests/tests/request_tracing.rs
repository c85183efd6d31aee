//! Request-tracing contract drills: a `ManualClock` pins an exact
//! multi-stage span tree from submit to fsync (byte-stable across
//! repeated rebuilds), and over real TCP the server emits a `traceparent`
//! response header, serves head-sampled and slow traces from the
//! versioned debug endpoints with typed 400s, exposes `/metrics` as JSON
//! and per-route quantile gauges, and keeps every read-side endpoint
//! alive while degraded read-only.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sketches::streamdb::{
    silence_injected_panics, Aggregate, CheckpointPolicy, ConcurrentEngine, DurableEngine, IdGen,
    ManualClock, QuerySpec, Row, Stage, Trace, TraceContext, Value,
};
use sketches_serve::{Backend, Sampling, Server, ServerConfig, TraceConfig};

fn spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
        ],
    )
    .expect("valid spec")
}

fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sketches-trace-it-{}-{tag}-{n}",
        std::process::id()
    ))
}

fn rows(seed: u64, n: u64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            vec![
                Value::U64(x % 23),
                Value::U64(x % 307),
                Value::F64((x % 1_000) as f64),
            ]
        })
        .collect()
}

/// One blocking HTTP exchange with optional extra header lines; returns
/// `(status, head, body)`.
fn exchange_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &str,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: it\r\n{extra_headers}Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) => {
                assert!(
                    raw.windows(4).any(|w| w == b"\r\n\r\n"),
                    "connection error before response head ({e})"
                );
                break;
            }
        }
    }
    let raw = String::from_utf8_lossy(&raw).to_string();
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    exchange_with(addr, method, path, "", body)
}

fn ingest_rows(addr: SocketAddr, n: u64, group_mod: u64) -> (u16, String, String) {
    let rows: Vec<String> = (0..n)
        .map(|i| format!("[{},{},{}.0]", i % group_mod, i % 17, i % 5))
        .collect();
    let body = format!("{{\"rows\":[{}]}}", rows.join(","));
    exchange(addr, "POST", "/v1/ingest", &body)
}

/// Builds a durable engine on a frozen [`ManualClock`], pushes one traced
/// batch through submit → shards → publish → WAL append → fsync, and
/// returns the finished trace plus its JSON rendering.
fn traced_span_tree(seed: u64) -> (Trace, String) {
    let dir = scratch_dir("span-tree");
    let clock = Arc::new(ManualClock::starting_at(1_000));
    let mut engine = ConcurrentEngine::new(spec(), 2).expect("engine");
    // The inner engine's clock must be installed before wrapping: the
    // durable layer exposes no mutable access to it afterwards.
    engine.set_clock(clock.clone());
    let policy = CheckpointPolicy::new(1_000_000, u64::MAX).expect("policy");
    let mut durable = DurableEngine::create(dir.clone(), engine, policy).expect("durable engine");
    durable.set_clock(clock);

    let mut ids = IdGen::new(seed);
    let ctx = TraceContext::root(ids.trace_id(), ids.span_id(), None);
    durable
        .process_batch_traced(&rows(7, 64), &ctx)
        .expect("traced batch");
    let trace = ctx
        .finish(Stage::Request, 500, 2_000, vec![])
        .expect("root context always yields a trace");
    let json = trace.to_json();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    (trace, json)
}

/// The tentpole determinism pin: with a frozen clock and a fixed id seed,
/// one durable batch yields exactly the stage spans queue_wait →
/// engine_apply → publish → wal_append → fsync, every child nests inside
/// the root with `Σ children ≤ root`, and the JSON rendering is
/// byte-identical across 20 full engine rebuilds.
#[test]
fn manual_clock_pins_an_exact_span_tree() {
    let (trace, json0) = traced_span_tree(0xABCD);
    let root = trace.root();
    assert_eq!(root.stage, Stage::Request);
    assert_eq!(root.parent, None);

    let stages: Vec<Stage> = trace.spans.iter().skip(1).map(|s| s.stage).collect();
    assert_eq!(
        stages,
        vec![
            Stage::QueueWait,
            Stage::EngineApply,
            Stage::Publish,
            Stage::WalAppend,
            Stage::Fsync,
        ],
        "stage spans must arrive in pipeline order"
    );
    for span in trace.spans.iter().skip(1) {
        assert_eq!(span.parent, Some(root.span_id), "flat tree under the root");
        assert!(
            span.start_nanos >= root.start_nanos && span.end_nanos <= root.end_nanos,
            "child [{}, {}] must nest inside root [{}, {}]",
            span.start_nanos,
            span.end_nanos,
            root.start_nanos,
            root.end_nanos
        );
    }
    assert!(
        trace.child_duration_nanos() <= trace.duration_nanos(),
        "stage time cannot exceed the root span"
    );
    let apply = &trace.spans[2];
    assert!(apply.attrs.iter().any(|(k, v)| k == "rows" && v == "64"));
    assert!(apply.attrs.iter().any(|(k, _)| k == "shards"));
    assert!(trace.spans[4].attrs.iter().any(|(k, _)| k == "bytes"));
    assert!(json0.contains("\"stage\":\"wal_append\""), "{json0}");

    for rebuild in 0..20 {
        let (_, json) = traced_span_tree(0xABCD);
        assert_eq!(json, json0, "rebuild {rebuild} diverged");
    }

    // A different id seed changes identifiers but not the tree shape.
    let (other, other_json) = traced_span_tree(0x5EED);
    assert_ne!(other_json, json0);
    assert_eq!(other.spans.len(), trace.spans.len());
}

fn traced_server(trace: TraceConfig) -> (Server, PathBuf) {
    let dir = scratch_dir("traced-server");
    let engine = ConcurrentEngine::new(spec(), 2).expect("engine");
    let policy = CheckpointPolicy::new(1_000_000, u64::MAX).expect("policy");
    let durable = DurableEngine::create(dir.clone(), engine, policy).expect("durable engine");
    let config = ServerConfig {
        trace,
        ..ServerConfig::default()
    };
    let server = Server::start(config, Backend::durable(durable, dir.clone())).expect("server");
    (server, dir)
}

/// `/v1/debug/traces` over a durable backend: every response carries a
/// `traceparent` header, the newest trace holds the full socket-to-WAL
/// stage vocabulary, the envelope is versioned, `count` is bounded with
/// typed 400s, and the method is pinned.
#[test]
fn debug_traces_serves_versioned_socket_to_wal_spans() {
    let (server, dir) = traced_server(TraceConfig {
        sampling: Sampling::Always,
        ..TraceConfig::default()
    });
    let addr = server.addr();

    let (status, head, resp) = ingest_rows(addr, 100, 4);
    assert_eq!(status, 200, "{resp}");
    assert!(
        head.contains("traceparent: 00-"),
        "sampled responses must carry a traceparent header: {head}"
    );

    let (status, _, body) = exchange(addr, "GET", "/v1/debug/traces", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\":1"), "{body}");
    assert!(body.contains("\"sampling\":\"always\""), "{body}");
    for stage in [
        "parse",
        "handle",
        "write",
        "queue_wait",
        "engine_apply",
        "publish",
        "wal_append",
        "fsync",
    ] {
        assert!(
            body.contains(&format!("\"stage\":\"{stage}\"")),
            "missing {stage} span in {body}"
        );
    }
    assert!(body.contains("\"route\":\"ingest\""), "{body}");

    // The count parameter bounds the page; junk gets a typed 400.
    let (status, _, body) = exchange(addr, "GET", "/v1/debug/traces?count=1", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"count\":1"), "{body}");
    for bad in ["count=0", "count=abc", "count=300"] {
        let (status, _, body) = exchange(addr, "GET", &format!("/v1/debug/traces?{bad}"), "");
        assert_eq!(status, 400, "{bad} must be rejected: {body}");
        assert!(body.contains("bad_query"), "{body}");
    }
    let (status, _, _) = exchange(addr, "POST", "/v1/debug/traces", "");
    assert_eq!(status, 405);

    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An incoming `traceparent` header continues the remote trace: the
/// response echoes the caller's trace id and the stored trace adopts it.
#[test]
fn traceparent_header_continues_the_remote_trace() {
    let (server, dir) = traced_server(TraceConfig {
        sampling: Sampling::Always,
        ..TraceConfig::default()
    });
    let addr = server.addr();

    let remote = "00-00000000000000000000000000abcdef-0000000000001234-01";
    let (status, head, _) = exchange_with(
        addr,
        "GET",
        "/healthz",
        &format!("traceparent: {remote}\r\n"),
        "",
    );
    assert_eq!(status, 200);
    assert!(
        head.contains("traceparent: 00-00000000000000000000000000abcdef-"),
        "response must stay on the caller's trace: {head}"
    );

    let (status, _, body) = exchange(addr, "GET", "/v1/debug/traces?count=5", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"trace_id\":\"00000000000000000000000000abcdef\""),
        "stored trace must adopt the remote id: {body}"
    );

    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/metrics?format=json` returns the same snapshot as one JSON object,
/// the Prometheus rendering now carries p50/p90/p99 gauges per latency
/// family, and an unknown format is a typed 400.
#[test]
fn metrics_format_json_and_quantile_gauges() {
    let engine = ConcurrentEngine::new(spec(), 2).expect("engine");
    let server = Server::start(ServerConfig::default(), Backend::Volatile(engine)).expect("server");
    let addr = server.addr();

    let (status, _, resp) = ingest_rows(addr, 200, 4);
    assert_eq!(status, 200, "{resp}");

    let (status, head, body) = exchange(addr, "GET", "/metrics?format=json", "");
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("application/json"), "{head}");
    assert!(
        body.starts_with('{') && body.trim_end().ends_with('}'),
        "{body}"
    );
    assert!(body.contains("serve_requests_total"), "{body}");
    assert!(body.contains("stage_latency_seconds"), "{body}");

    let (status, _, body) = exchange(addr, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("# TYPE serve_request_latency_nanos_p99 gauge"),
        "{body}"
    );
    assert!(
        body.contains("serve_request_latency_nanos_p99{route=\"ingest\"}"),
        "{body}"
    );
    assert!(
        body.contains("serve_request_latency_nanos_p50{route="),
        "{body}"
    );
    assert!(
        body.contains("stage_latency_seconds_p90{stage=\"parse\"}"),
        "{body}"
    );

    let (status, _, body) = exchange(addr, "GET", "/metrics?format=xml", "");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_query"), "{body}");

    let _ = server.shutdown();
}

/// Degradation drill: after the coordinator is poisoned the server goes
/// read-only — `/readyz` reports degraded — but the trace sinks keep
/// serving, and with a zero slow threshold the failed ingests land in
/// `/v1/debug/slow` even though head sampling would have dropped them.
#[test]
fn degraded_server_keeps_debug_endpoints_alive() {
    silence_injected_panics();
    let engine = ConcurrentEngine::new(spec(), 2).expect("engine");
    let config = ServerConfig {
        trace: TraceConfig {
            sampling: Sampling::SampleEvery(1_000_000),
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(config, Backend::Volatile(engine)).expect("server");
    let addr = server.addr();

    let (status, _, resp) = ingest_rows(addr, 60, 3);
    assert_eq!(status, 200, "{resp}");

    server.inject_coordinator_panic();
    let (status, _, resp) = ingest_rows(addr, 3, 3);
    assert_eq!(status, 503, "{resp}");
    assert!(resp.contains("read_only"), "{resp}");

    let (status, _, body) = exchange(addr, "GET", "/readyz", "");
    assert_eq!(status, 503, "readiness goes red while degraded");
    assert!(body.contains("degraded"), "{body}");

    // The slow sink force-retained the requests head sampling skipped,
    // including the 503s issued while degraded.
    let (status, _, body) = exchange(addr, "GET", "/v1/debug/slow", "");
    assert_eq!(status, 200, "slow traces must survive degradation: {body}");
    assert!(body.contains("\"version\":1"), "{body}");
    assert!(body.contains("\"slow_threshold_nanos\":0"), "{body}");
    assert!(body.contains("\"route\":\"ingest\""), "{body}");
    assert!(body.contains("\"status\":\"503\""), "{body}");

    let (status, _, body) = exchange(addr, "GET", "/v1/debug/traces", "");
    assert_eq!(
        status, 200,
        "trace listing must survive degradation: {body}"
    );
    assert!(body.contains("\"sampling\":\"every_1000000\""), "{body}");

    let _ = server.shutdown();
}
