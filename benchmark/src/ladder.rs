//! The traced run: the per-layer numbers.
//!
//! A prefix of the workload's own request list goes down the stack one
//! rung per layer — sketch kernels, `SketchEngine`, `ShardedEngine`,
//! `ConcurrentEngine`, `DurableEngine`, the server's request chain called
//! in-process, then real TCP — each rung on fresh state, single-threaded,
//! with a span around every call into a layer's public functions. The
//! rows are identical on every rung, so the difference between two rungs
//! is the upper layer's tax. Nothing here is mixed into the timed trials.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sketches_cardinality::HyperLogLogPlusPlus;
use sketches_core::Update;
use sketches_frequency::{SfSketch, SpaceSaving};
use sketches_obs::{MonotonicClock, TraceContext};
use sketches_quantiles::KllSketch;
use sketches_serve::http::read_request;
use sketches_serve::{
    AppState, Backend, IngestOutcome, Json, Limits, Response, RetryPolicy, Server, ServerConfig,
    TraceConfig, Tracer,
};
use sketches_streamdb::metrics::names as engine_names;
use sketches_streamdb::{
    Aggregate, CheckpointPolicy, ConcurrentEngine, DurableEngine, EngineConfig, Row, ShardedEngine,
    SketchEngine, Value, SF_DEPTH,
};

use sketches_workloads::{mean, percentile};

use crate::client::{request_bytes, Client};
use crate::inputs::{ingest_wire, report_wire, Drive, Inputs};
use crate::spans::Recorder;
use crate::stats::median;
use crate::trials::{
    check_ack, checkpoint_policy, clients, closed_loop, fresh_backend, open_loop, Checks, SHARDS,
};

/// One ladder pass's value of each per-layer metric.
type Metrics = BTreeMap<&'static str, f64>;

/// Offered rates of the open-loop ladder, requests a second.
const OPEN_LOOP_RATES: [(f64, &str, &str); 3] = [
    (
        20.0,
        "serve.server.openloop_p95_ms.r20",
        "serve.server.openloop_late_ms.r20",
    ),
    (
        40.0,
        "serve.server.openloop_p95_ms.r40",
        "serve.server.openloop_late_ms.r40",
    ),
    (
        80.0,
        "serve.server.openloop_p95_ms.r80",
        "serve.server.openloop_late_ms.r80",
    ),
];
/// A rate is sustained when its p95 from due time stays under this.
const OPEN_LOOP_LIMIT_MS: f64 = 50.0;

/// An ingest body into engine rows, by the public pieces the server's
/// own (private) `parse_rows` is made of.
pub fn decode_rows(body: &[u8]) -> Result<Vec<Row>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("no rows array")?;
    rows.iter()
        .map(|row| {
            let cells = row.as_array().ok_or("row is not an array")?;
            cells.iter().map(Json::to_value).collect()
        })
        .collect()
}

/// The traced run of one workload: passes of the ladder until
/// `seconds` is mostly spent (the median over passes is reported), then
/// the open-loop offered-load steps. Returns the per-layer metrics and
/// the spans of the last pass. A metric comes with the number of passes
/// its median was taken over.
pub fn run(
    inputs: &Inputs,
    seconds: f64,
    scratch: &Path,
    checks: &mut Checks,
) -> (BTreeMap<&'static str, (f64, usize)>, Recorder) {
    let prefix = inputs.shape.ladder_prefix.min(inputs.batches.len()).max(1);
    let rows = &inputs.batches[..prefix];
    let wires: Vec<Vec<u8>> = rows.iter().map(|b| ingest_wire(b)).collect();
    let ladder = Ladder {
        inputs,
        rows,
        wires: &wires,
        durable: inputs.shape.drive == Drive::ClosedLoop { durable: true },
        dir: scratch,
    };

    let started = Instant::now();
    let mut passes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let last = loop {
        let mut rec = Recorder::new();
        for (name, value) in ladder.pass(&mut rec, checks) {
            passes.entry(name).or_default().push(value);
        }
        if started.elapsed().as_secs_f64() >= seconds * 0.55 {
            break rec;
        }
    };
    let mut metrics: BTreeMap<_, _> = passes
        .iter()
        .map(|(name, values)| (*name, (median(values), values.len())))
        .collect();
    let mut steps = Metrics::new();
    ladder.open_loop_steps((seconds * 0.15).max(1.0), &mut steps, checks);
    metrics.extend(steps.into_iter().map(|(name, value)| (name, (value, 1))));
    (metrics, last)
}

struct Ladder<'a> {
    inputs: &'a Inputs,
    rows: &'a [Vec<Row>],
    wires: &'a [Vec<u8>],
    durable: bool,
    dir: &'a Path,
}

fn total_ns(rec: &Recorder, name: &str) -> f64 {
    rec.durations(name).iter().sum()
}

fn median_us(rec: &Recorder, name: &str) -> f64 {
    median(&rec.durations(name)) / 1e3
}

fn key_of(group: u64) -> [Value; 1] {
    [Value::U64(group)]
}

impl Ladder<'_> {
    /// A fresh backend of the workload's kind, preloaded.
    fn fresh_backend(&self) -> Backend {
        fresh_backend(self.inputs, self.durable.then_some(self.dir))
    }

    /// Removes what a durable backend left in the scratch directory.
    fn clean(&self) {
        let _ = std::fs::remove_dir_all(self.dir);
    }

    fn row_count(&self) -> f64 {
        self.rows.iter().map(Vec::len).sum::<usize>() as f64
    }

    fn pass(&self, rec: &mut Recorder, checks: &mut Checks) -> Metrics {
        let mut m = Metrics::new();
        let n = self.row_count();
        self.kernels(rec, &mut m);
        self.engine(rec, &mut m);
        self.sharded(rec);
        self.concurrent(rec, &mut m);
        self.durable_engine(rec, &mut m);
        let spans_before = rec.spans.len();
        let replay_s = self.replay(rec);
        let replay_spans = (rec.spans.len() - spans_before) as f64;
        let reconnects = self.tcp(rec, &mut m, checks);

        for (name, span) in [
            (
                "streamdb.engine.ns_per_row",
                "streamdb.engine.process_batch",
            ),
            (
                "streamdb.sharded.ns_per_row",
                "streamdb.sharded.process_batch",
            ),
            (
                "streamdb.concurrent.ns_per_row",
                "streamdb.concurrent.batch",
            ),
            (
                "streamdb.durable.ns_per_row",
                "streamdb.durable.process_batch",
            ),
            ("serve.json.decode_ns_per_row", "serve.json.decode_rows"),
            ("serve.state.ingest_ns_per_row", "serve.state.ingest"),
            ("serve.server.ns_per_row", "serve.server.exchange"),
        ] {
            m.insert(name, total_ns(rec, span) / n);
        }
        for (name, span) in [
            ("streamdb.engine.report_us", "streamdb.engine.report"),
            (
                "streamdb.concurrent.submit_us",
                "streamdb.concurrent.submit_batch",
            ),
            (
                "streamdb.concurrent.report_us",
                "streamdb.concurrent.report",
            ),
            ("streamdb.view.cut_us", "streamdb.view.query_view"),
            ("streamdb.view.encode_us", "streamdb.view.to_view_bytes"),
            ("serve.http.read_request_us", "serve.http.read_request"),
            ("serve.http.write_response_us", "serve.http.write_response"),
            ("serve.server.exchange_us", "serve.server.exchange"),
            (
                "serve.server.report_batch8_us",
                "serve.server.report_batch8",
            ),
        ] {
            m.insert(name, median_us(rec, span));
        }
        for (name, span) in [
            (
                "streamdb.durable.checkpoint_ms",
                "streamdb.durable.checkpoint_now",
            ),
            ("streamdb.durable.recover_ms", "streamdb.durable.recover"),
            (
                "streamdb.snapshot.encode_ms",
                "streamdb.snapshot.to_snapshot_bytes",
            ),
            (
                "streamdb.snapshot.decode_ms",
                "streamdb.snapshot.from_snapshot_bytes",
            ),
            ("serve.server.view_fetch_ms", "serve.server.view_fetch"),
        ] {
            m.insert(name, median_us(rec, span) / 1e3);
        }

        // Kernels the workload's query keeps hot, over the engine rung.
        let kernel_ns: f64 = self
            .inputs
            .spec
            .aggregates
            .iter()
            .map(|a| match a {
                Aggregate::CountDistinct { .. } => m["cardinality.hllpp.ns_per_update"],
                Aggregate::Quantiles { .. } => m["quantiles.kll.ns_per_update"],
                Aggregate::TopK { .. } => m["frequency.space_saving.ns_per_update"],
                Aggregate::Frequency { .. } => m["frequency.sf.ns_per_update"],
                Aggregate::Count | Aggregate::Sum { .. } => 0.0,
            })
            .sum();
        m.insert(
            "streamdb.engine.kernel_share",
            kernel_ns / m["streamdb.engine.ns_per_row"],
        );
        m.insert(
            "serve.json.body_bytes_per_row",
            self.wires.iter().map(Vec::len).sum::<usize>() as f64 / n,
        );

        // The server's own cost: one exchange minus the same request
        // through the same chain in-process; likewise for a report.
        let replay_us = median_us(rec, "replay.request");
        m.insert(
            "serve.server.overhead_us",
            m["serve.server.exchange_us"] - replay_us,
        );
        m.insert(
            "serve.server.report_overhead_us",
            median_us(rec, "serve.server.report") - median_us(rec, "replay.report"),
        );
        // Share of the replayed request its four child spans account for.
        let own = rec.self_ns();
        let (root_ns, root_self_ns) = rec
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "replay.request")
            .fold((0u64, 0u64), |(d, o), (s, own)| {
                (d + s.end_ns - s.start_ns, o + own)
            });
        m.insert(
            "bench.replay_span_coverage",
            1.0 - root_self_ns as f64 / root_ns as f64,
        );
        m.insert(
            "bench.span_overhead_share",
            replay_spans * Recorder::span_cost_s() / replay_s,
        );

        for (name, base, over) in [
            (
                "ratio.sharded_over_engine",
                "streamdb.engine.ns_per_row",
                "streamdb.sharded.ns_per_row",
            ),
            (
                "ratio.concurrent_over_sharded",
                "streamdb.sharded.ns_per_row",
                "streamdb.concurrent.ns_per_row",
            ),
            (
                "ratio.durable_over_concurrent",
                "streamdb.concurrent.ns_per_row",
                "streamdb.durable.ns_per_row",
            ),
            (
                "ratio.http_over_concurrent",
                "streamdb.concurrent.ns_per_row",
                "serve.server.ns_per_row",
            ),
            (
                "ratio.http_over_engine",
                "streamdb.engine.ns_per_row",
                "serve.server.ns_per_row",
            ),
        ] {
            m.insert(name, m[over] / m[base]);
        }
        m.insert("client.reconnects", reconnects as f64);
        m
    }

    /// `update_slice` of the prefix's columns into one sketch of each
    /// kind, configured as the engine configures its per-group sketches.
    fn kernels(&self, rec: &mut Recorder, m: &mut Metrics) {
        let ids: Vec<Value> = self.rows.iter().flatten().map(|r| r[1].clone()).collect();
        let measures: Vec<f64> = self
            .rows
            .iter()
            .flatten()
            .map(|r| r[2].as_f64().expect("numeric measure"))
            .collect();
        let cfg = EngineConfig::default();
        let n = ids.len() as f64;

        let mut hll = HyperLogLogPlusPlus::new(cfg.hll_precision, cfg.seed).expect("config");
        let mut kll = KllSketch::new(cfg.kll_k, cfg.seed).expect("config");
        let mut top = SpaceSaving::<Value>::new(cfg.space_saving_counters).expect("config");
        let mut sf =
            SfSketch::new(cfg.sf_fat_width, cfg.sf_slim_width, SF_DEPTH, cfg.seed).expect("config");
        rec.time("cardinality.hllpp.update_slice", None, 0, || {
            hll.update_slice(&ids);
        });
        rec.time("quantiles.kll.update_slice", None, 0, || {
            kll.update_slice(&measures);
        });
        rec.time("frequency.space_saving.update_slice", None, 0, || {
            top.update_slice(&ids);
        });
        rec.time("frequency.sf.update_slice", None, 0, || {
            sf.update_slice(&ids);
        });
        black_box((&hll, &kll, &top, &sf));
        for (name, span) in [
            (
                "cardinality.hllpp.ns_per_update",
                "cardinality.hllpp.update_slice",
            ),
            ("quantiles.kll.ns_per_update", "quantiles.kll.update_slice"),
            (
                "frequency.space_saving.ns_per_update",
                "frequency.space_saving.update_slice",
            ),
            ("frequency.sf.ns_per_update", "frequency.sf.update_slice"),
        ] {
            m.insert(name, total_ns(rec, span) / n);
        }
    }

    fn engine(&self, rec: &mut Recorder, m: &mut Metrics) {
        let mut engine = SketchEngine::new(self.inputs.spec.clone()).expect("static spec");
        for batch in &self.inputs.preload {
            engine.process_batch(batch).expect("preload");
        }
        for (i, batch) in self.rows.iter().enumerate() {
            rec.time("streamdb.engine.process_batch", None, i as u64, || {
                engine.process_batch(batch)
            })
            .expect("engine rung");
        }
        for g in &self.inputs.audit {
            let report = rec.time("streamdb.engine.report", None, g.key, || {
                engine.report(&key_of(g.key))
            });
            black_box(report.expect("engine report"));
        }
        m.insert("streamdb.engine.state_bytes", engine.state_bytes() as f64);
        m.insert("streamdb.engine.groups", engine.num_groups() as f64);
    }

    fn sharded(&self, rec: &mut Recorder) {
        let mut engine = ShardedEngine::new(self.inputs.spec.clone(), SHARDS).expect("static spec");
        for batch in &self.inputs.preload {
            engine.process_batch(batch).expect("preload");
        }
        for (i, batch) in self.rows.iter().enumerate() {
            rec.time("streamdb.sharded.process_batch", None, i as u64, || {
                engine.process_batch(batch)
            })
            .expect("sharded rung");
        }
    }

    fn preloaded_concurrent(&self) -> ConcurrentEngine {
        let engine = ConcurrentEngine::new(self.inputs.spec.clone(), SHARDS).expect("static spec");
        for batch in &self.inputs.preload {
            engine.submit_batch(batch.clone()).wait().expect("preload");
        }
        engine
    }

    /// Submit → ack on the concurrent engine, then its read side: a
    /// report, a view cut and encode, a fat snapshot there and back.
    fn concurrent(&self, rec: &mut Recorder, m: &mut Metrics) {
        let engine = self.preloaded_concurrent();
        let reader = engine.reader();
        let published =
            |e: &ConcurrentEngine| e.metrics().counters[engine_names::SNAPSHOTS_PUBLISHED];
        let published_before = published(&engine);
        let mut acked = reader.rows_processed();
        let mut lag_max = 0u64;
        for (i, batch) in self.rows.iter().enumerate() {
            let owned = batch.clone();
            let root = rec.open("streamdb.concurrent.batch", None, i as u64);
            let ticket = rec.time(
                "streamdb.concurrent.submit_batch",
                Some(root),
                i as u64,
                || engine.submit_batch(owned),
            );
            let summary = rec.time("streamdb.concurrent.wait", Some(root), i as u64, || {
                ticket.wait()
            });
            rec.close(root);
            acked += summary.expect("concurrent rung").rows_ingested as u64;
            lag_max = lag_max.max(acked.saturating_sub(reader.rows_processed()));
        }
        m.insert(
            "streamdb.concurrent.snapshots_published",
            (published(&engine) - published_before) as f64,
        );
        m.insert("streamdb.concurrent.visible_lag_rows_max", lag_max as f64);

        for g in &self.inputs.audit {
            let report = rec.time("streamdb.concurrent.report", None, g.key, || {
                reader.report(&key_of(g.key))
            });
            black_box(report.expect("concurrent report"));
        }
        for i in 0..5 {
            let view = rec.time("streamdb.view.query_view", None, i, || reader.query_view());
            let bytes = rec.time("streamdb.view.to_view_bytes", None, i, || {
                view.to_view_bytes()
            });
            m.insert("streamdb.view.bytes", bytes.len() as f64);
        }
        let snapshot = rec.time("streamdb.snapshot.to_snapshot_bytes", None, 0, || {
            engine.to_snapshot_bytes()
        });
        m.insert("streamdb.snapshot.bytes", snapshot.len() as f64);
        let restored = rec.time("streamdb.snapshot.from_snapshot_bytes", None, 0, || {
            ConcurrentEngine::from_snapshot_bytes(&snapshot)
        });
        assert_eq!(restored.expect("snapshot decode").rows_processed(), acked);
    }

    /// The durable workload checkpoints as its trial does; the volatile
    /// ones never, so their rung reads the write-ahead log's tax alone.
    fn checkpoint_policy(&self) -> CheckpointPolicy {
        if self.durable {
            checkpoint_policy()
        } else {
            CheckpointPolicy::new(u64::MAX, u64::MAX).expect("static policy")
        }
    }

    fn durable_engine(&self, rec: &mut Recorder, m: &mut Metrics) {
        self.clean();
        let policy = self.checkpoint_policy();
        let mut durable = DurableEngine::create(self.dir, self.preloaded_concurrent(), policy)
            .expect("creating the durable store");
        for (i, batch) in self.rows.iter().enumerate() {
            rec.time("streamdb.durable.process_batch", None, i as u64, || {
                durable.process_batch(batch)
            })
            .expect("durable rung");
        }
        let snapshot = durable.metrics();
        // The layer's own count at the boundary: the rung difference
        // (durable - concurrent) reads negative where the log's fsync
        // hides work the concurrent engine defers past its ack.
        let wal_ns = snapshot.histograms[engine_names::WAL_FSYNC_SECONDS].quantile_nanos(0.5);
        m.insert(
            "streamdb.durable.wal_us_per_batch",
            wal_ns.expect("one append per batch") / 1e3,
        );
        let counters = snapshot.counters;
        m.insert(
            "streamdb.durable.wal_bytes_per_row",
            counters[engine_names::WAL_BYTES_WRITTEN] as f64 / self.row_count(),
        );
        let checkpoints: u64 = counters
            .iter()
            .filter(|(name, _)| name.starts_with("checkpoints_total"))
            .map(|(_, n)| n)
            .sum();
        m.insert("streamdb.durable.checkpoints", checkpoints as f64);
        let rows = durable.engine().rows_processed();
        drop(durable);

        let recovered = rec.time("streamdb.durable.recover", None, 0, || {
            DurableEngine::<ConcurrentEngine>::recover_with_policy(self.dir, policy)
        });
        let mut recovered = recovered.expect("recover");
        assert_eq!(recovered.engine().rows_processed(), rows);
        rec.time("streamdb.durable.checkpoint_now", None, 0, || {
            recovered.checkpoint_now()
        })
        .expect("checkpoint");
        drop(recovered);
        self.clean();
    }

    /// Each request through the server's chain, called in-process: read
    /// the request, decode the rows, ingest, write the response. Returns
    /// the wall time of the whole replay.
    fn replay(&self, rec: &mut Recorder) -> f64 {
        let state = AppState::new(
            self.fresh_backend(),
            Arc::new(MonotonicClock::new()),
            RetryPolicy::default(),
            Tracer::new(&TraceConfig::default()),
        )
        .expect("healthy backend");
        let limits = Limits::default();
        let started = Instant::now();
        for (i, wire) in self.wires.iter().enumerate() {
            let i = i as u64;
            let root = rec.open("replay.request", None, i);
            let parent = Some(root);
            let request = rec.time("serve.http.read_request", parent, i, || {
                read_request(&mut &wire[..], &limits)
            });
            let request = request.expect("well-formed request");
            let rows = rec.time("serve.json.decode_rows", parent, i, || {
                decode_rows(&request.body)
            });
            let rows = rows.expect("well-formed body");
            let outcome = rec.time("serve.state.ingest", parent, i, || {
                state.ingest(&rows, u64::MAX, state.token(), &TraceContext::disabled())
            });
            let IngestOutcome::Ok { summary, attempts } = outcome else {
                panic!("replayed ingest failed: {outcome:?}");
            };
            rec.time("serve.http.write_response", parent, i, || {
                let body = format!(
                    "{{\"ingested\":{},\"quarantined\":{},\"attempts\":{attempts}}}",
                    summary.rows_ingested, summary.rows_quarantined
                );
                let mut out = Vec::with_capacity(256);
                Response::json(200, body)
                    .write_to(&mut out)
                    .expect("write to memory");
                black_box(out);
            });
            rec.close(root);
        }
        let wall_s = started.elapsed().as_secs_f64();
        drop(state);
        self.clean();
        wall_s
    }

    /// The same requests over loopback TCP from one client, then the
    /// read endpoints, then two clients for the lock they share.
    fn tcp(&self, rec: &mut Recorder, m: &mut Metrics, checks: &mut Checks) -> u64 {
        let backend = self.fresh_backend();
        let server = Server::start(ServerConfig::default(), backend).expect("server start");
        let mut client = Client::new(server.addr());
        for (i, (wire, batch)) in self.wires.iter().zip(self.rows).enumerate() {
            let reply = rec.time("serve.server.exchange", None, i as u64, || {
                client.exchange(wire)
            });
            check_ack(&reply, batch.len(), checks);
        }

        let reader = server.reader();
        let limits = Limits::default();
        let keys: Vec<u64> = self.inputs.audit.iter().map(|g| g.key).collect();
        for key in &keys {
            let wire = report_wire(&[*key]);
            let reply = rec.time("serve.server.report", None, *key, || client.exchange(&wire));
            let body = reply.map(|r| r.body).unwrap_or_default();
            checks.that(!body.is_empty(), || format!("report of group {key} failed"));
            // The same answer without the server around it.
            let root = rec.open("replay.report", None, *key);
            let request = read_request(&mut &wire[..], &limits).expect("well-formed request");
            black_box(reader.report(&key_of(*key)).expect("report"));
            let mut out = Vec::with_capacity(body.len() + 128);
            Response::json(200, String::from_utf8_lossy(&body))
                .write_to(&mut out)
                .expect("write to memory");
            black_box((request, out));
            rec.close(root);
        }
        for (i, chunk) in keys.chunks_exact(8).take(32).enumerate() {
            let wire = report_wire(chunk);
            let reply = rec.time("serve.server.report_batch8", None, i as u64, || {
                client.exchange(&wire)
            });
            checks.that(reply.is_ok_and(|r| r.status == 200), || {
                format!("batched report of {chunk:?} failed")
            });
        }
        let view_wire = request_bytes("GET", "/v1/view", b"");
        for i in 0..5 {
            let reply = rec.time("serve.server.view_fetch", None, i, || {
                client.exchange(&view_wire)
            });
            checks.that(reply.is_ok_and(|r| r.status == 200), || {
                "view fetch failed".to_string()
            });
        }
        m.insert(
            "serve.state.retry_attempts",
            server.metrics().retry_attempts_total() as f64,
        );
        let drain = server.shutdown();
        m.insert("serve.server.drain_ms", drain.elapsed_nanos as f64 / 1e6);
        m.insert("serve.server.shed_total", drain.shed_total as f64);

        // Two closed-loop clients contend for the backend lock: what the
        // median request gains over the lone client's is time spent waiting.
        let backend = self.fresh_backend();
        let server = Server::start(ServerConfig::default(), backend).expect("server start");
        let (_, exchanges) = closed_loop(server.addr(), self.wires, clients());
        let mut latency_us = Vec::with_capacity(exchanges.len());
        for (exchange, batch) in exchanges.iter().zip(self.rows) {
            check_ack(&exchange.reply, batch.len(), checks);
            latency_us.push(exchange.latency_ms * 1e3);
        }
        m.insert(
            "serve.state.lock_wait_us",
            median(&latency_us) - median_us(rec, "serve.server.exchange"),
        );
        let _ = server.shutdown();
        self.clean();
        client.reconnects
    }

    /// The offered-load ladder: the prefix, cycled, sent open-loop at
    /// each rate for `step_s` seconds to a fresh server.
    fn open_loop_steps(&self, step_s: f64, m: &mut Metrics, checks: &mut Checks) {
        let mut max_ok = 0.0;
        for (rps, p95_name, late_name) in OPEN_LOOP_RATES {
            let backend = self.fresh_backend();
            let server = Server::start(ServerConfig::default(), backend).expect("server start");
            let requests = (rps * step_s).ceil() as usize;
            let step = open_loop(server.addr(), self.wires.iter().cycle().take(requests), rps);
            let _ = server.shutdown();
            self.clean();
            for (i, exchange) in step.exchanges.iter().enumerate() {
                let rows_sent = self.rows[i % self.rows.len()].len();
                check_ack(&exchange.reply, rows_sent, checks);
            }
            let latency: Vec<f64> = step.exchanges.iter().map(|e| e.latency_ms).collect();
            let p95 = percentile(&latency, 95.0);
            // A backlog shows as sends running later at the end of the
            // step than at its start.
            let quarter = (requests / 4).max(1);
            let head = mean(&step.late_ms[..quarter]);
            let tail = mean(&step.late_ms[requests - quarter..]);
            m.insert(p95_name, p95);
            m.insert(late_name, tail);
            if p95 <= OPEN_LOOP_LIMIT_MS && tail <= head + 1.0 {
                max_ok = rps;
            }
            if rps == 40.0 {
                let worst = step.late_ms.iter().copied().fold(0.0, f64::max);
                m.insert("bench.generator_late_ms_max", worst);
            }
        }
        m.insert("serve.server.openloop_max_ok_rps", max_ok);
    }
}
