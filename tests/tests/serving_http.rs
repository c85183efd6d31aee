//! Integration drills for the `sketches-serve` front door over real TCP:
//! the full ingest → query → metrics walkthrough, a stalled client hitting
//! the request deadline, overload shedding with a tiny worker pool, the
//! poisoned-engine read-only degradation, a graceful drain whose final
//! checkpoint restores byte-exact, and the wake that unblocks the accept
//! thread on shutdown and drop. Every exchange uses a plain blocking
//! socket client, so these tests exercise exactly what `curl` would see.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast; a panic here is the test failing"
)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use sketches::streamdb::{
    silence_injected_panics, Aggregate, CheckpointPolicy, ConcurrentEngine, DurableEngine,
    QuerySpec,
};
use sketches_integration_tests::scratch_dir;
use sketches_serve::{Backend, Limits, RetryPolicy, Server, ServerConfig};

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

fn volatile_server(config: ServerConfig) -> Server {
    let engine = ConcurrentEngine::new(spec(), 2).expect("engine");
    Server::start(config, Backend::Volatile(engine)).expect("server")
}

/// One blocking HTTP exchange. Tolerates a connection reset *after* a
/// complete response head arrived (a shed connection may be closed hard
/// once the response is written).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: it\r\nContent-Length: {}\r\n\r\n",
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

fn ingest_rows(addr: SocketAddr, n: u64, group_mod: u64) -> (u16, String) {
    let rows: Vec<String> = (0..n)
        .map(|i| format!("[{},{},{}.0]", i % group_mod, i % 17, i % 5))
        .collect();
    let body = format!("{{\"rows\":[{}]}}", rows.join(","));
    let (status, _, resp) = exchange(addr, "POST", "/v1/ingest", &body);
    (status, resp)
}

/// The curl-level walkthrough from the README: ingest, query a group,
/// list groups, scrape metrics, probe health — every response typed.
#[test]
fn walkthrough_ingest_query_groups_metrics_health() {
    let server = volatile_server(ServerConfig::default());
    let addr = server.addr();

    let (status, resp) = ingest_rows(addr, 100, 4);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"ingested\":100"), "{resp}");

    let (status, _, body) = exchange(addr, "GET", "/v1/report?key=%5B1%5D", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("{\"agg\":\"count\",\"value\":25}"), "{body}");

    let (status, _, body) = exchange(addr, "GET", "/v1/groups", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"total\":4"), "{body}");

    let (status, _, body) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("# TYPE serve_requests_total counter"),
        "{body}"
    );
    assert!(
        body.contains("serve_requests_total{route=\"ingest\",status=\"200\"} 1"),
        "{body}"
    );

    let (status, _, _) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _, _) = exchange(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);

    let (status, _, body) = exchange(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(body.contains("not_found"), "{body}");

    let (status, _, body) = exchange(addr, "POST", "/v1/ingest", "{\"rows\":");
    assert_eq!(status, 400);
    assert!(body.contains("bad_body"), "{body}");

    let _ = server.shutdown();
}

/// Like [`exchange`] but keeps the body as raw bytes (for the binary
/// `/v1/view` envelope).
fn exchange_bytes(addr: SocketAddr, method: &str, path: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let head = format!("{method} {path} HTTP/1.1\r\nHost: it\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {head:?}"));
    (status, head, raw[split + 4..].to_vec())
}

/// The read-optimized surface: batched reports (both spellings), the
/// slim binary `/v1/view` envelope, typed `bad_keys` rejections, and the
/// `snapshot_kind` field on `/readyz`.
#[test]
fn batched_report_view_endpoint_and_snapshot_kind() {
    use sketches::streamdb::EngineView;
    let server = volatile_server(ServerConfig::default());
    let addr = server.addr();

    let (status, resp) = ingest_rows(addr, 100, 4);
    assert_eq!(status, 200, "{resp}");

    // keys= list: two known groups plus one unknown, answered in order.
    let (status, _, body) = exchange(addr, "GET", "/v1/report?keys=%5B1%5D,%5B2%5D,%5B9%5D", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\":1"), "{body}");
    assert!(body.contains("\"found\":true"), "{body}");
    assert!(body.contains("\"found\":false"), "{body}");
    assert_eq!(body.matches("\"key\":").count(), 3, "{body}");
    assert!(body.contains("{\"agg\":\"count\",\"value\":25}"), "{body}");

    // Repeated key= parameters are the same batch.
    let (status, _, body) = exchange(addr, "GET", "/v1/report?key=%5B1%5D&key=%5B2%5D", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\":1"), "{body}");
    assert_eq!(body.matches("\"found\":true").count(), 2, "{body}");

    // The single-key form keeps its original response shape.
    let (status, _, body) = exchange(addr, "GET", "/v1/report?key=%5B1%5D", "");
    assert_eq!(status, 200, "{body}");
    assert!(!body.contains("\"version\""), "{body}");
    assert!(!body.contains("\"found\""), "{body}");

    // Typed 400s: empty and oversized key lists.
    let (status, _, body) = exchange(addr, "GET", "/v1/report?keys=", "");
    assert_eq!(status, 400);
    assert!(body.contains("bad_keys"), "{body}");
    let many = vec!["%5B1%5D"; 65].join(",");
    let (status, _, body) = exchange(addr, "GET", &format!("/v1/report?keys={many}"), "");
    assert_eq!(status, 400);
    assert!(body.contains("bad_keys"), "{body}");
    assert!(body.contains("65"), "{body}");

    // /v1/view ships the checksummed slim envelope — parseable, current,
    // and smaller than the fat snapshot a replica would otherwise pull.
    let (status, head, bytes) = exchange_bytes(addr, "GET", "/v1/view");
    assert_eq!(status, 200, "{head}");
    assert!(head.contains("application/octet-stream"), "{head}");
    let view = EngineView::from_view_bytes(&bytes).expect("view envelope parses");
    assert_eq!(view.rows_processed(), 100);
    let fat = server.reader().to_snapshot_bytes();
    assert!(
        bytes.len() < fat.len(),
        "view ({}) must undercut the fat snapshot ({})",
        bytes.len(),
        fat.len()
    );

    // /readyz names the checkpoint kind without parsing envelope bytes.
    let (status, _, body) = exchange(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"snapshot_kind\":\"sharded\""), "{body}");

    // Wrong method on the new path is a typed 405, not a 404.
    let (status, _, body) = exchange(addr, "POST", "/v1/view", "");
    assert_eq!(status, 405);
    assert!(body.contains("method_not_allowed"), "{body}");

    let _ = server.shutdown();
}

/// A client that connects and then stalls mid-request gets a typed 504
/// once the budget lapses — and the worker is reclaimed: the very next
/// request is served normally.
#[test]
fn stalled_client_gets_typed_504_and_worker_is_reclaimed() {
    let server = volatile_server(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(100),
        request_budget: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Head never finishes: no trailing blank line, and no further bytes.
    stalled
        .write_all(b"POST /v1/ingest HTTP/1.1\r\n")
        .expect("partial head");
    let mut raw = String::new();
    let _ = stalled.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 504"), "{raw:?}");
    assert!(raw.contains("deadline_exceeded"), "{raw:?}");

    let (status, resp) = ingest_rows(addr, 10, 2);
    assert_eq!(status, 200, "worker not reclaimed: {resp}");

    let report = server.shutdown();
    assert!(report.requests_completed >= 2);
}

/// With one worker and a depth-1 queue, a burst behind a stalled
/// connection is load-shed with a typed 429 + `Retry-After` rather than
/// queued without bound.
#[test]
fn overload_sheds_typed_429_with_retry_after() {
    let server = volatile_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_millis(400),
        request_budget: Duration::from_millis(800),
        retry_after_secs: 3,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Occupy the single worker and its queue slot with stalled
    // connections that send nothing.
    let pins: Vec<TcpStream> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("pin");
            std::thread::sleep(Duration::from_millis(30));
            s
        })
        .collect();

    let mut sheds = 0u32;
    for _ in 0..6 {
        let (status, head, body) = exchange(addr, "GET", "/healthz", "");
        assert!(
            status == 200 || status == 429,
            "unexpected status {status}: {body}"
        );
        if status == 429 {
            sheds += 1;
            assert!(head.contains("Retry-After: 3"), "{head}");
            assert!(body.contains("overloaded"), "{body}");
        }
    }
    assert!(sheds > 0, "burst behind a full queue must shed");
    drop(pins);

    let report = server.shutdown();
    assert!(report.shed_total >= u64::from(sheds));
}

/// A poisoned coordinator flips the server read-only: ingest sheds with a
/// typed 503, queries keep serving the last published epoch, liveness
/// stays green, readiness goes red.
#[test]
fn poisoned_engine_degrades_to_read_only() {
    silence_injected_panics();
    let server = volatile_server(ServerConfig::default());
    let addr = server.addr();

    let (status, resp) = ingest_rows(addr, 60, 3);
    assert_eq!(status, 200, "{resp}");

    server.inject_coordinator_panic();
    // Degradation is detected on the ingest path, by the first ingest.
    let (status, resp) = ingest_rows(addr, 3, 3);
    assert_eq!(status, 503, "{resp}");
    assert!(resp.contains("read_only"), "{resp}");
    assert!(server.is_degraded());

    let (status, _, body) = exchange(addr, "GET", "/v1/report?key=%5B1%5D", "");
    assert_eq!(status, 200, "reads must survive degradation: {body}");
    assert!(body.contains("{\"agg\":\"count\",\"value\":20}"), "{body}");

    let (status, _, _) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "liveness stays green while degraded");
    let (status, _, body) = exchange(addr, "GET", "/readyz", "");
    assert_eq!(status, 503, "readiness goes red while degraded");
    assert!(body.contains("degraded"), "{body}");

    let _ = server.shutdown();
}

/// Oversized request bodies are refused with a typed 413 before any
/// engine work happens.
#[test]
fn oversized_body_is_typed_413() {
    let server = volatile_server(ServerConfig {
        limits: Limits {
            max_body_bytes: 256,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let big = format!("{{\"rows\":[{}]}}", "[1,2,3.0],".repeat(100));
    let (status, _, body) = exchange(server.addr(), "POST", "/v1/ingest", &big);
    assert_eq!(status, 413);
    assert!(body.contains("too_large"), "{body}");
    let _ = server.shutdown();
}

/// Graceful drain: shutdown flushes a final checkpoint, and a fresh
/// recovery from the same directory restores the engine byte-exact with
/// every acknowledged row.
#[test]
fn drain_flushes_checkpoint_and_restart_is_byte_exact() {
    let dir = scratch_dir("sketches-serve-it", "drain");
    // A WAL-roll policy big enough that only the drain checkpoint runs.
    let policy = CheckpointPolicy::new(1_000_000, u64::MAX).expect("policy");
    let engine = ConcurrentEngine::new(spec(), 2).expect("engine");
    let durable = DurableEngine::create(dir.clone(), engine, policy).expect("durable engine");
    let server = Server::start(
        ServerConfig {
            retry: RetryPolicy {
                seed: 7,
                ..RetryPolicy::default()
            },
            ..ServerConfig::default()
        },
        Backend::durable(durable, dir.clone()),
    )
    .expect("server");
    let addr = server.addr();

    let mut acked = 0u64;
    for _ in 0..5 {
        let (status, resp) = ingest_rows(addr, 200, 8);
        assert_eq!(status, 200, "{resp}");
        acked += 200;
    }
    let bytes_before = server.reader().to_snapshot_bytes();

    let report = server.shutdown();
    assert!(report.checkpointed, "drain must flush a final checkpoint");
    assert_eq!(report.checkpoint_error, None);
    assert!(report.requests_completed >= 5);

    let recovered = DurableEngine::<ConcurrentEngine>::recover(&dir).expect("recover");
    assert_eq!(recovered.engine().rows_processed(), acked);
    assert_eq!(
        recovered.engine().to_snapshot_bytes(),
        bytes_before,
        "restart must restore the drained state byte-exact"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `shutdown` on its own thread and fails, instead of hanging, if it
/// has not returned within 5 s: the accept thread blocks in `accept()`, so
/// a missing wake would leave the join waiting forever.
fn shutdown_within_5s(server: Server) {
    let (tx, rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        let report = server.shutdown();
        let _ = tx.send(report.shed_total);
    });
    let shed = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown of an idle server returns within 5 s");
    drain.join().expect("the shutdown thread exits cleanly");
    assert_eq!(shed, 0, "the wake connect is not a shed");
}

#[test]
fn shutdown_wakes_an_idle_accept_thread() {
    shutdown_within_5s(volatile_server(ServerConfig::default()));
}

#[test]
fn shutdown_wakes_a_server_bound_to_the_unspecified_address() {
    let server = volatile_server(ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        ..ServerConfig::default()
    });
    assert!(server.addr().ip().is_unspecified());
    shutdown_within_5s(server);
}

/// A `Server` dropped without `shutdown` still wakes its accept thread,
/// which exits and closes the listener. The wait polls with `bind`, not
/// `connect`: a connect would itself wake a thread left blocked.
#[test]
fn dropped_server_closes_its_listener_within_2s() {
    let server = volatile_server(ServerConfig::default());
    let addr = server.addr();
    drop(server);
    let released = (0..200).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        TcpListener::bind(addr).is_ok()
    });
    assert!(released, "the listener is still bound 2 s after drop");
    let err = TcpStream::connect(addr).expect_err("nothing listens after drop");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
}
