//! E27 — the SF-sketch read/write split, measured end to end: slim
//! query-side accuracy per transferred byte on the ad-reach workload,
//! then the byte reductions the split buys on the concurrent publish
//! path and on the serving wire (slim view envelope, batched reports).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sketches::core::{FrequencyEstimator, Update};
use sketches::frequency::{CountMinSketch, SfSketch};
use sketches::streamdb::{
    Aggregate, ConcurrentEngine, EngineView, QuerySpec, Row, StreamEngine, Value,
};
use sketches_serve::{Backend, Server, ServerConfig};
use sketches_workloads::ads::AdWorkload;

use crate::{fmt_bytes, header, trow};

/// Rows in both sketch grids (fixed across the size sweep).
const DEPTH: usize = 4;

/// One blocking GET. Returns `(status, body, total_response_bytes)` —
/// the total includes the status line and headers, because the wire
/// comparison is about what actually crosses the network.
fn http_get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>, usize) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!("GET {path} HTTP/1.1\r\nHost: e27\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();
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
        .unwrap_or_else(|| panic!("no response head for {path}"));
    let head = String::from_utf8_lossy(&raw[..split]);
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {head:?}"));
    let total = raw.len();
    (status, raw[split + 4..].to_vec(), total)
}

/// E27: at equal query-side bytes the slim half of an SF-sketch beats a
/// plain Count-Min, and the read/write split ships measurably fewer
/// bytes per epoch publish and per served response than fat baselines.
#[allow(
    clippy::too_many_lines,
    reason = "one experiment, one table: the steps read top to bottom"
)]
pub fn e27() {
    header(
        "E27",
        "SF-sketch read/write split: slim side beats same-size CM per byte; publish + wire ship slim",
    );

    // ---- Part 1: accuracy per transferred byte on ad impressions. ----
    // Per-user impression counts are the heavy-tailed frequency query of
    // the reach workload; the fat update side is fixed and generous, the
    // transferred (query-side) budget sweeps.
    let mut wl = AdWorkload::new(100_000, 8, 27);
    let imps = wl.stream(400_000);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for imp in &imps {
        *truth.entry(imp.user_id).or_insert(0) += 1;
    }
    println!(
        "  {} impressions over {} distinct users; fat side fixed at {} x {DEPTH}",
        imps.len(),
        truth.len(),
        8_192
    );
    trow!("shipped bytes", "CM mean err", "slim mean err", "slim/CM");
    let mut wins = 0usize;
    let size_points = [64usize, 128, 256, 512, 1024];
    for &slim_width in &size_points {
        let mut sf = SfSketch::new(8_192, slim_width, DEPTH, 27).unwrap();
        let mut cm = CountMinSketch::new(slim_width, DEPTH, 27).unwrap();
        for imp in &imps {
            sf.update(&imp.user_id);
            cm.update(&imp.user_id);
        }
        // Both estimators are one-sided here (insert-only stream), so the
        // signed overestimate is the absolute error.
        let mut slim_err = 0.0f64;
        let mut cm_err = 0.0f64;
        for (user, &count) in &truth {
            slim_err += (sf.slim_estimate(user) - count) as f64;
            cm_err += (FrequencyEstimator::estimate(&cm, user) - count) as f64;
        }
        let n = truth.len() as f64;
        let (slim_mean, cm_mean) = (slim_err / n, cm_err / n);
        if slim_mean <= cm_mean {
            wins += 1;
        }
        trow!(
            fmt_bytes(slim_width * DEPTH * 8),
            format!("{cm_mean:.2}"),
            format!("{slim_mean:.2}"),
            format!("{:.3}", slim_mean / cm_mean.max(f64::MIN_POSITIVE))
        );
    }
    assert!(
        wins >= 3,
        "slim side must match or beat same-size CM at >= 3 of {} size points (won {wins})",
        size_points.len()
    );

    // ---- Part 2: the concurrent publish path ships slim bytes. ----
    // GROUP BY campaign with a per-group frequency sketch over users:
    // every epoch publish and cross-shard merge moves the slim view, the
    // fat snapshot stays local for durability.
    let spec = QuerySpec::new(
        vec![0],
        vec![Aggregate::Count, Aggregate::Frequency { field: 1 }],
    )
    .unwrap();
    let mut engine = ConcurrentEngine::new(spec, 4).unwrap();
    let rows: Vec<Row> = imps
        .iter()
        .take(200_000)
        .map(|i| vec![Value::U64(u64::from(i.campaign_id)), Value::U64(i.user_id)])
        .collect();
    for chunk in rows.chunks(8_192) {
        engine.process_batch(chunk).unwrap();
    }
    let reader = engine.reader();
    let fat_bytes = reader.to_snapshot_bytes().len();
    let view_bytes = reader.query_view().to_view_bytes();
    let slim_bytes = view_bytes.len();
    // The shipped envelope is self-sufficient: it restores and answers.
    let restored = EngineView::from_view_bytes(&view_bytes).unwrap();
    assert_eq!(restored.rows_processed(), rows.len() as u64);
    let probe_user = imps[0].user_id;
    let probe_key = [Value::U64(u64::from(imps[0].campaign_id))];
    let probe_truth = rows
        .iter()
        .filter(|r| r[0] == probe_key[0] && r[1] == Value::U64(probe_user))
        .count() as u64;
    let shipped_est = restored
        .estimate(&probe_key, &Value::U64(probe_user))
        .unwrap()
        .unwrap();
    assert!(
        shipped_est >= probe_truth,
        "shipped view underestimated the probe ({shipped_est} < {probe_truth})"
    );
    let publish_saved = fat_bytes.saturating_sub(slim_bytes);
    println!();
    trow!("path", "fat bytes", "slim bytes", "saved");
    trow!(
        "epoch publish",
        fmt_bytes(fat_bytes),
        fmt_bytes(slim_bytes),
        fmt_bytes(publish_saved)
    );
    assert!(
        publish_saved > 0,
        "publish path must ship fewer bytes than the fat snapshot"
    );

    // ---- Part 3: the serving wire. ----
    // The same engine behind the HTTP front door: `/v1/view` vs the fat
    // snapshot a replica would otherwise pull, and one batched
    // `/v1/report` vs per-key requests.
    let server = Server::start(ServerConfig::default(), Backend::Volatile(engine)).unwrap();
    let addr = server.addr();

    let (status, wire_view, _) = http_get(addr, "/v1/view");
    assert_eq!(status, 200);
    assert_eq!(
        wire_view.len(),
        slim_bytes,
        "wire view is the published view"
    );
    let wire_saved = fat_bytes.saturating_sub(wire_view.len());
    trow!(
        "GET /v1/view",
        fmt_bytes(fat_bytes),
        fmt_bytes(wire_view.len()),
        fmt_bytes(wire_saved)
    );
    assert!(
        wire_saved > 0,
        "the wire view must undercut shipping the fat snapshot"
    );

    let keys: Vec<String> = (0..8u32).map(|c| format!("%5B{c}%5D")).collect();
    let (status, body, batched_total) =
        http_get(addr, &format!("/v1/report?keys={}", keys.join(",")));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(body.windows(12).any(|w| w == b"\"version\":1,"));
    let mut single_total = 0usize;
    for key in &keys {
        let (status, _, total) = http_get(addr, &format!("/v1/report?key={key}"));
        assert_eq!(status, 200);
        single_total += total;
    }
    let report_saved = single_total.saturating_sub(batched_total);
    trow!(
        "batched /v1/report (8 keys)",
        fmt_bytes(single_total),
        fmt_bytes(batched_total),
        fmt_bytes(report_saved)
    );
    assert!(
        report_saved > 0,
        "one batched report must cost fewer wire bytes than {} single requests",
        keys.len()
    );
    let _ = server.shutdown();

    println!(
        "\n(The slim side rides a fat update side it never ships: capped by\n\
         fat estimates on the way in, it is tighter than a same-size CM at\n\
         every budget, and it is the only state the publish, merge, and\n\
         serving paths move.)"
    );
}
