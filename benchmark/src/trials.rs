//! The timed trials. One trial replays a workload's whole fixed request
//! list against fresh state, checks every answer, and reduces its samples
//! to one value per end-to-end metric; the runner takes the median over
//! trials.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sketches_serve::{Backend, Json, Server, ServerConfig};
use sketches_streamdb::{
    AggregateResult, CheckpointPolicy, ConcurrentEngine, DurableEngine, EngineConfig, SketchEngine,
    Value,
};

use crate::client::{Client, Reply};
use crate::inputs::{report_wire, AuditGroup, Drive, Inputs, DURABLE_CHECKPOINT_ROWS};
use crate::stats::p50_p95;
use sketches_workloads::{mean, relative_error};

/// Shards of every concurrent engine: the value the server ships with.
pub const SHARDS: usize = 4;

/// Closed-loop client threads, never more than the host has cores.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Output checks and failed operations, counted against the number
/// attempted. Any failure fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading the run.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn that(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// One trial's value of every end-to-end metric it can support (a p95
/// is absent when the trial holds too few samples), and how long it took
/// to bring up fresh state.
#[derive(Debug)]
pub struct Trial {
    pub metrics: Vec<(&'static str, f64)>,
    pub prepare_s: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one group's report said, from either the library or the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub count: u64,
    pub sum: Option<f64>,
    pub distinct: f64,
    pub quantiles: [f64; 3],
}

impl Answer {
    /// Nothing answered yet; [`Answer::complete`] rejects what stays so.
    const BLANK: Self = Self {
        count: u64::MAX,
        sum: None,
        distinct: f64::NAN,
        quantiles: [f64::NAN; 3],
    };

    pub fn from_results(results: &[AggregateResult]) -> Option<Self> {
        let mut answer = Self::BLANK;
        for r in results {
            match r {
                AggregateResult::Count(n) => answer.count = *n,
                AggregateResult::Sum(x) => answer.sum = Some(*x),
                AggregateResult::CountDistinct(x) => answer.distinct = *x,
                AggregateResult::Quantiles { p50, p95, p99 } => {
                    answer.quantiles = [*p50, *p95, *p99];
                }
                AggregateResult::TopK(_) | AggregateResult::Frequency { .. } => {}
            }
        }
        answer.complete()
    }

    /// Parses the `aggregates` array of a `/v1/report` answer.
    pub fn from_json(report: &Json) -> Option<Self> {
        let mut answer = Self::BLANK;
        for agg in report.get("aggregates")?.as_array()? {
            match agg.get("agg")?.as_str()? {
                "count" => answer.count = agg.get("value")?.as_u64()?,
                "count_distinct" => answer.distinct = agg.get("value")?.as_f64()?,
                "quantiles" => {
                    for (slot, name) in answer.quantiles.iter_mut().zip(["p50", "p95", "p99"]) {
                        *slot = agg.get(name)?.as_f64()?;
                    }
                }
                _ => {}
            }
        }
        answer.complete()
    }

    fn complete(self) -> Option<Self> {
        let whole = self.count != u64::MAX
            && self.distinct.is_finite()
            && self.quantiles.iter().all(|q| q.is_finite());
        whole.then_some(self)
    }
}

/// Checks every audited group's answer against exact state and returns
/// the relative COUNT DISTINCT errors and the quantile rank errors.
pub fn audit(
    groups: &[AuditGroup],
    answers: &[Option<Answer>],
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>) {
    // Five standard errors of the HLL++ the engine is configured with.
    let precision = EngineConfig::default().hll_precision;
    let tolerance = 5.0 * 1.04 / f64::from(1u32 << precision).sqrt();
    let mut distinct_err = Vec::with_capacity(groups.len());
    let mut rank_err = Vec::with_capacity(groups.len() * 3);
    for (g, answer) in groups.iter().zip(answers) {
        let Some(a) = answer else {
            checks.that(false, || format!("group {}: no complete report", g.key));
            continue;
        };
        checks.that(a.count == g.count, || {
            format!("group {}: COUNT {} != exact {}", g.key, a.count, g.count)
        });
        if let Some(sum) = a.sum {
            checks.that((sum - g.sum).abs() <= 1e-9 * g.sum.abs(), || {
                format!("group {}: SUM {sum} != exact {}", g.key, g.sum)
            });
        }
        let err = relative_error(g.distinct as f64, a.distinct);
        checks.that(err <= tolerance, || {
            format!(
                "group {}: COUNT DISTINCT {} vs exact {} is off by {err:.4} > {tolerance:.4}",
                g.key, a.distinct, g.distinct
            )
        });
        distinct_err.push(err);
        for (estimate, q) in a.quantiles.iter().zip([0.50, 0.95, 0.99]) {
            rank_err.push(g.rank_error(*estimate, q));
        }
    }
    (distinct_err, rank_err)
}

/// The samples of one trial, reduced to the end-to-end metrics.
struct Samples {
    rows_acked: u64,
    ingest_s: f64,
    ack_ms: Vec<f64>,
    report_ms: Vec<f64>,
    report_s: f64,
    state_bytes: usize,
    groups: usize,
    distinct_err: Vec<f64>,
    rank_err: Vec<f64>,
}

impl Samples {
    fn reduce(self) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("ingest_rows_per_s", self.rows_acked as f64 / self.ingest_s),
            ("reports_per_s", self.report_ms.len() as f64 / self.report_s),
            (
                "state_bytes_per_group",
                self.state_bytes as f64 / self.groups.max(1) as f64,
            ),
        ];
        let (ack_p50, ack_p95) = p50_p95(&self.ack_ms);
        let (report_p50, report_p95) = p50_p95(&self.report_ms);
        out.push(("ingest_ack_p50_ms", ack_p50));
        out.push(("report_p50_ms", report_p50));
        out.extend(ack_p95.map(|v| ("ingest_ack_p95_ms", v)));
        out.extend(report_p95.map(|v| ("report_p95_ms", v)));
        // Means, not percentiles: where only a few audited groups are
        // heavy enough to err at all, a percentile sits on the edge
        // between the two kinds and jumps from seed to seed.
        out.push(("distinct_rel_err_mean", mean(&self.distinct_err)));
        out.push(("quantile_rank_err_mean", mean(&self.rank_err)));
        out
    }
}

/// Runs one trial of `inputs`; `scratch` is a directory the durable
/// workload may fill and must leave empty.
pub fn run_trial(inputs: &Inputs, scratch: &Path, checks: &mut Checks) -> Trial {
    match inputs.shape.drive {
        Drive::Embedded => embedded(inputs, checks),
        Drive::ClosedLoop { durable } => closed_loop_trial(inputs, durable, scratch, checks),
        Drive::Mixed { writer_rps } => mixed(inputs, writer_rps, checks),
    }
}

fn embedded(inputs: &Inputs, checks: &mut Checks) -> Trial {
    let prepare = Instant::now();
    let mut engine = SketchEngine::new(inputs.spec.clone()).expect("static spec");
    let prepare_s = prepare.elapsed().as_secs_f64();

    let mut ack_ms = Vec::with_capacity(inputs.batches.len());
    let mut rows_acked = 0u64;
    let ingest = Instant::now();
    for batch in &inputs.batches {
        let sent = Instant::now();
        let outcome = engine.process_batch(batch);
        ack_ms.push(ms(sent.elapsed()));
        let ingested = outcome.as_ref().map_or(0, |s| s.rows_ingested as u64);
        rows_acked += ingested;
        checks.that(ingested == batch.len() as u64, || {
            format!("process_batch acked {outcome:?} for {} rows", batch.len())
        });
    }
    let ingest_s = ingest.elapsed().as_secs_f64();
    checks.that(engine.rows_processed() == rows_acked, || {
        format!(
            "engine holds {} rows, acked {rows_acked}",
            engine.rows_processed()
        )
    });

    let mut report_ms = Vec::with_capacity(inputs.audit.len());
    let mut answers = Vec::with_capacity(inputs.audit.len());
    let reports = Instant::now();
    for g in &inputs.audit {
        let key = [Value::U64(g.key)];
        let asked = Instant::now();
        let report = engine.report(&key);
        report_ms.push(ms(asked.elapsed()));
        answers.push(report.ok().flatten().and_then(|r| Answer::from_results(&r)));
    }
    let report_s = reports.elapsed().as_secs_f64();
    let (distinct_err, rank_err) = audit(&inputs.audit, &answers, checks);

    let samples = Samples {
        rows_acked,
        ingest_s,
        ack_ms,
        report_ms,
        report_s,
        state_bytes: engine.state_bytes(),
        groups: engine.num_groups(),
        distinct_err,
        rank_err,
    };
    Trial {
        metrics: samples.reduce(),
        prepare_s,
    }
}

/// One request's outcome in a closed or open loop.
pub struct Exchange {
    pub latency_ms: f64,
    pub reply: std::io::Result<Reply>,
}

/// Sends `wires` from `clients` threads, client *c* taking requests *c*,
/// *c* + clients, …, each waiting for its reply before the next. Latency
/// runs from just before the connect to the last body byte. Returns the
/// wall time and the exchanges in request order.
pub fn closed_loop(addr: SocketAddr, wires: &[Vec<u8>], clients: usize) -> (f64, Vec<Exchange>) {
    let barrier = Barrier::new(clients + 1);
    let mut slots: Vec<Option<Exchange>> = wires.iter().map(|_| None).collect();
    let wall_s = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    barrier.wait();
                    let mut done = Vec::new();
                    for (i, wire) in wires.iter().enumerate().skip(c).step_by(clients) {
                        let sent = Instant::now();
                        let reply = client.exchange(wire);
                        let latency_ms = ms(sent.elapsed());
                        done.push((i, Exchange { latency_ms, reply }));
                    }
                    done
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            for (i, exchange) in h.join().expect("client thread") {
                slots[i] = Some(exchange);
            }
        }
        start.elapsed().as_secs_f64()
    });
    let exchanges = slots
        .into_iter()
        .map(|s| s.expect("every request was assigned to a client"))
        .collect();
    (wall_s, exchanges)
}

/// Checks an ingest reply: 200 and `ingested` equal to the rows sent.
/// Returns the rows acknowledged.
pub fn check_ack(reply: &std::io::Result<Reply>, rows_sent: usize, checks: &mut Checks) -> u64 {
    let ingested = reply
        .as_ref()
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| {
            let body = std::str::from_utf8(&r.body).ok()?;
            Json::parse(body).ok()?.get("ingested")?.as_u64()
        });
    checks.that(ingested == Some(rows_sent as u64), || {
        format!("ingest of {rows_sent} rows answered {reply:?}")
    });
    ingested.unwrap_or(0)
}

fn parse_report(reply: &std::io::Result<Reply>) -> Option<Json> {
    let reply = reply.as_ref().ok().filter(|r| r.status == 200)?;
    Json::parse(std::str::from_utf8(&reply.body).ok()?).ok()
}

/// Asks the server for every audited group over HTTP at quiescence and
/// audits the answers. Returns (wall seconds, latencies, errors).
fn audit_over_http(
    addr: SocketAddr,
    inputs: &Inputs,
    checks: &mut Checks,
) -> (f64, Vec<f64>, Vec<f64>, Vec<f64>) {
    let wires: Vec<Vec<u8>> = inputs.audit.iter().map(|g| report_wire(&[g.key])).collect();
    let (wall_s, exchanges) = closed_loop(addr, &wires, clients());
    let answers: Vec<Option<Answer>> = exchanges
        .iter()
        .map(|e| parse_report(&e.reply).and_then(|j| Answer::from_json(&j)))
        .collect();
    let (distinct_err, rank_err) = audit(&inputs.audit, &answers, checks);
    let latencies = exchanges.iter().map(|e| e.latency_ms).collect();
    (wall_s, latencies, distinct_err, rank_err)
}

fn concurrent_engine(inputs: &Inputs) -> ConcurrentEngine {
    ConcurrentEngine::new(inputs.spec.clone(), SHARDS).expect("static spec")
}

/// The checkpoint policy of the durable workload.
pub fn checkpoint_policy() -> CheckpointPolicy {
    CheckpointPolicy::new(DURABLE_CHECKPOINT_ROWS, u64::MAX).expect("static policy")
}

/// A fresh backend holding `inputs.preload`, durable under `dir` if one
/// is given.
pub fn fresh_backend(inputs: &Inputs, dir: Option<&Path>) -> Backend {
    let engine = concurrent_engine(inputs);
    for batch in &inputs.preload {
        let summary = engine.submit_batch(batch.clone()).wait();
        assert!(summary.is_ok(), "preload failed: {summary:?}");
    }
    let Some(dir) = dir else {
        return Backend::Volatile(engine);
    };
    let _ = std::fs::remove_dir_all(dir);
    let engine = DurableEngine::create(dir, engine, checkpoint_policy())
        .expect("creating the durable store");
    Backend::durable(engine, dir)
}

fn closed_loop_trial(inputs: &Inputs, durable: bool, dir: &Path, checks: &mut Checks) -> Trial {
    let prepare = Instant::now();
    let backend = fresh_backend(inputs, durable.then_some(dir));
    let server = Server::start(ServerConfig::default(), backend).expect("server start");
    let prepare_s = prepare.elapsed().as_secs_f64();
    let addr = server.addr();

    let (ingest_s, acks) = closed_loop(addr, &inputs.wires, clients());
    let mut rows_acked = 0u64;
    for (ack, batch) in acks.iter().zip(&inputs.batches) {
        rows_acked += check_ack(&ack.reply, batch.len(), checks);
    }
    let reader = server.reader();
    checks.that(reader.rows_processed() == rows_acked, || {
        format!(
            "server holds {} rows, acked {rows_acked}",
            reader.rows_processed()
        )
    });

    let (report_s, report_ms, distinct_err, rank_err) = audit_over_http(addr, inputs, checks);
    let samples = Samples {
        rows_acked,
        ingest_s,
        ack_ms: acks.iter().map(|a| a.latency_ms).collect(),
        report_ms,
        report_s,
        state_bytes: reader.state_bytes(),
        groups: reader.num_groups(),
        distinct_err,
        rank_err,
    };

    let drain = server.shutdown();
    checks.that(drain.checkpoint_error.is_none(), || {
        format!("drain: {:?}", drain.checkpoint_error)
    });
    if durable {
        check_recovery(inputs, dir, rows_acked, checks);
        let _ = std::fs::remove_dir_all(dir);
    }
    Trial {
        metrics: samples.reduce(),
        prepare_s,
    }
}

/// After `shutdown()`, a restart from `dir` alone must hold every acked
/// row and the exact COUNT of every audited group.
fn check_recovery(inputs: &Inputs, dir: &Path, rows_acked: u64, checks: &mut Checks) {
    match DurableEngine::<ConcurrentEngine>::recover(dir) {
        Ok(recovered) => {
            let engine = recovered.engine();
            checks.that(engine.rows_processed() == rows_acked, || {
                format!(
                    "recovered {} rows, acked {rows_acked}",
                    engine.rows_processed()
                )
            });
            for g in &inputs.audit {
                let count = engine
                    .report(&[Value::U64(g.key)])
                    .ok()
                    .flatten()
                    .and_then(|r| Answer::from_results(&r))
                    .map(|a| a.count);
                checks.that(count == Some(g.count), || {
                    format!(
                        "group {}: recovered COUNT {count:?} != exact {}",
                        g.key, g.count
                    )
                });
            }
        }
        Err(e) => checks.that(false, || format!("recover: {e}")),
    }
}

/// What the open-loop writer saw.
pub struct OpenLoop {
    /// Latency from each request's due time, in send order.
    pub exchanges: Vec<Exchange>,
    /// How late after its due time each request was sent.
    pub late_ms: Vec<f64>,
    /// From the first due time to the last reply.
    pub wall_s: f64,
}

/// Sends `wires` on a fixed schedule of `rps` requests a second from one
/// thread, one at a time: a request is sent at its due time, or at once
/// if the previous reply came after it. Latency runs from the due time,
/// so a stall is charged to every request it delays.
pub fn open_loop<'a>(
    addr: SocketAddr,
    wires: impl Iterator<Item = &'a Vec<u8>>,
    rps: f64,
) -> OpenLoop {
    let mut client = Client::new(addr);
    let mut exchanges = Vec::new();
    let mut late_ms = Vec::new();
    let start = Instant::now();
    for (i, wire) in wires.enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rps);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        late_ms.push(ms(due.elapsed()));
        let reply = client.exchange(wire);
        let latency_ms = ms(due.elapsed());
        exchanges.push(Exchange { latency_ms, reply });
    }
    OpenLoop {
        exchanges,
        late_ms,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Keys per batched `keys=` report, sent as every tenth reader request.
const BATCHED_KEYS: usize = 8;

fn mixed(inputs: &Inputs, writer_rps: f64, checks: &mut Checks) -> Trial {
    let prepare = Instant::now();
    let backend = fresh_backend(inputs, None);
    let server = Server::start(ServerConfig::default(), backend).expect("server start");
    let prepare_s = prepare.elapsed().as_secs_f64();
    let addr = server.addr();

    // The reader's requests, rendered before the clock starts.
    let keys = &inputs.query_keys;
    let reads: Vec<(Vec<u64>, Vec<u8>)> = (0..keys.len())
        .map(|i| {
            let n = if i % 10 == 9 { BATCHED_KEYS } else { 1 };
            let asked: Vec<u64> = (0..n).map(|j| keys[(i + j) % keys.len()]).collect();
            let wire = report_wire(&asked);
            (asked, wire)
        })
        .collect();

    let writer_done = AtomicBool::new(false);
    let (written, read_s, answers) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut client = Client::new(addr);
            let mut answers = Vec::new();
            let start = Instant::now();
            for (asked, wire) in reads.iter().cycle() {
                if writer_done.load(Ordering::Acquire) {
                    break;
                }
                let sent = Instant::now();
                let reply = client.exchange(wire);
                let latency_ms = ms(sent.elapsed());
                answers.push((asked, Exchange { latency_ms, reply }));
            }
            (start.elapsed().as_secs_f64(), answers)
        });
        let written = open_loop(addr, inputs.wires.iter(), writer_rps);
        writer_done.store(true, Ordering::Release);
        let (read_s, answers) = reader.join().expect("reader thread");
        (written, read_s, answers)
    });

    let mut rows_acked = 0u64;
    for (ack, batch) in written.exchanges.iter().zip(&inputs.batches) {
        rows_acked += check_ack(&ack.reply, batch.len(), checks);
    }
    let reader = server.reader();
    let held = reader.rows_processed();
    checks.that(held == inputs.preload_rows() + rows_acked, || {
        format!("server holds {held} rows, preloaded + acked {rows_acked}")
    });
    check_monotone_counts(&answers, checks);

    let (_, _, distinct_err, rank_err) = audit_over_http(addr, inputs, checks);
    let samples = Samples {
        rows_acked,
        ingest_s: written.wall_s,
        ack_ms: written.exchanges.iter().map(|a| a.latency_ms).collect(),
        report_ms: answers.iter().map(|(_, e)| e.latency_ms).collect(),
        report_s: read_s,
        state_bytes: reader.state_bytes(),
        groups: reader.num_groups(),
        distinct_err,
        rank_err,
    };
    let _ = server.shutdown();
    Trial {
        metrics: samples.reduce(),
        prepare_s,
    }
}

/// Reads beside writes see whole epochs: every report is a 200 (or a 404
/// for a group not yet seen), and a key's COUNT never goes down.
fn check_monotone_counts(answers: &[(&Vec<u64>, Exchange)], checks: &mut Checks) {
    let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for (asked, exchange) in answers {
        let counts = read_counts(asked, &exchange.reply);
        checks.that(counts.is_some(), || {
            format!("report of {asked:?} answered {:?}", exchange.reply)
        });
        for (key, count) in counts.into_iter().flatten() {
            let before = last.insert(key, count).unwrap_or(0);
            checks.that(count >= before, || {
                format!("group {key}: COUNT went from {before} to {count}")
            });
        }
    }
}

/// The `(key, COUNT)` pairs of one single or batched report reply; a
/// group the server has not seen counts zero.
fn read_counts(asked: &[u64], reply: &std::io::Result<Reply>) -> Option<Vec<(u64, u64)>> {
    let reply = reply.as_ref().ok()?;
    if let ([key], 404) = (asked, reply.status) {
        return Some(vec![(*key, 0)]);
    }
    if reply.status != 200 {
        return None;
    }
    let doc = Json::parse(std::str::from_utf8(&reply.body).ok()?).ok()?;
    let count_of = |report: &Json| match report.get("found") {
        Some(Json::Bool(false)) => Some(0),
        _ => Answer::from_json(report).map(|a| a.count),
    };
    match doc.get("reports") {
        None => Some(vec![(asked[0], count_of(&doc)?)]),
        Some(reports) => asked
            .iter()
            .zip(reports.as_array()?)
            .map(|(key, report)| Some((*key, count_of(report)?)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(body: &str) -> std::io::Result<Reply> {
        Ok(Reply {
            status: 200,
            body: body.as_bytes().to_vec(),
        })
    }

    #[test]
    fn a_wrong_ingested_count_is_a_counted_failure() {
        let mut checks = Checks::default();
        let good = ack("{\"ingested\":64,\"quarantined\":0,\"attempts\":1}");
        assert_eq!(check_ack(&good, 64, &mut checks), 64);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        let short = ack("{\"ingested\":63,\"quarantined\":1,\"attempts\":1}");
        assert_eq!(check_ack(&short, 64, &mut checks), 63);
        let refused: std::io::Result<Reply> = Ok(Reply {
            status: 503,
            body: b"{\"error\":\"unavailable\"}".to_vec(),
        });
        assert_eq!(check_ack(&refused, 64, &mut checks), 0);
        let dropped = Err(std::io::ErrorKind::ConnectionReset.into());
        assert_eq!(check_ack(&dropped, 64, &mut checks), 0);
        assert_eq!((checks.attempted, checks.failed), (4, 3));
        assert_eq!(checks.notes.len(), 3);
    }

    fn smoke_trial(workload: &str) -> (Vec<(&'static str, f64)>, Checks) {
        let inputs = Inputs::build(crate::inputs::shape(workload).unwrap(), 11, 1, 10);
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{workload}-{}", std::process::id()));
        let mut checks = Checks::default();
        let trial = run_trial(&inputs, &scratch, &mut checks);
        (trial.metrics, checks)
    }

    /// Metrics that are functions of the inputs alone, not of the clock.
    fn exact(metrics: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
        let names = [
            "state_bytes_per_group",
            "distinct_rel_err_mean",
            "quantile_rank_err_mean",
        ];
        let exact: Vec<_> = metrics
            .iter()
            .filter(|(n, _)| names.contains(n))
            .copied()
            .collect();
        assert_eq!(exact.len(), names.len());
        exact
    }

    #[test]
    fn same_seed_gives_identical_exact_metrics_and_counts() {
        let (first, first_checks) = smoke_trial("embed_groupby");
        let (second, second_checks) = smoke_trial("embed_groupby");
        assert_eq!(exact(&first), exact(&second));
        assert_eq!(first_checks.attempted, second_checks.attempted);
        assert_eq!((first_checks.failed, second_checks.failed), (0, 0));
        assert!(exact(&first).iter().all(|(_, v)| *v > 0.0));
    }

    #[test]
    fn a_durable_trial_passes_every_check_and_leaves_no_files() {
        let (metrics, checks) = smoke_trial("serve_durable_small");
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        // 64 acks + 1 row total + 26 groups x 2 checks + drain + recovery
        // (1 row total + 26 counts).
        assert_eq!(checks.attempted, 64 + 1 + 26 * 2 + 1 + 1 + 26);
        exact(&metrics);
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-serve_durable_small-{}", std::process::id()));
        assert!(!scratch.exists());
    }

    #[test]
    fn audit_flags_wrong_counts_and_wild_distinct_estimates() {
        let group = AuditGroup {
            key: 5,
            count: 4,
            sum: 10.0,
            distinct: 4,
            values: vec![1.0, 2.0, 3.0, 4.0],
        };
        let exact = Answer {
            count: 4,
            sum: Some(10.0),
            distinct: 4.0,
            quantiles: [2.0, 4.0, 4.0],
        };
        let mut checks = Checks::default();
        let (d, r) = audit(std::slice::from_ref(&group), &[Some(exact)], &mut checks);
        assert_eq!(checks.failed, 0);
        assert_eq!((d, r), (vec![0.0], vec![0.0, 0.0, 0.0]));

        let wrong = Answer {
            count: 3,
            distinct: 6.0,
            ..exact
        };
        audit(std::slice::from_ref(&group), &[Some(wrong)], &mut checks);
        assert_eq!(checks.failed, 2, "{:?}", checks.notes);
        audit(&[group], &[None], &mut checks);
        assert_eq!(checks.failed, 3);
    }

    #[test]
    fn report_answers_parse_from_both_shapes() {
        let single = Json::parse(
            "{\"key\":[7],\"aggregates\":[{\"agg\":\"count\",\"value\":3},\
             {\"agg\":\"count_distinct\",\"value\":3.0001},\
             {\"agg\":\"quantiles\",\"p50\":1.5,\"p95\":2.5,\"p99\":2.5}]}",
        )
        .unwrap();
        let a = Answer::from_json(&single).unwrap();
        assert_eq!((a.count, a.quantiles), (3, [1.5, 2.5, 2.5]));
        let body = format!(
            "{{\"version\":1,\"reports\":[{},{{\"key\":[8],\"found\":false,\"aggregates\":[]}}]}}",
            single.render()
        );
        let counts = read_counts(&[7, 8], &ack(&body));
        assert_eq!(counts, Some(vec![(7, 3), (8, 0)]));
        let missing: std::io::Result<Reply> = Ok(Reply {
            status: 404,
            body: Vec::new(),
        });
        assert_eq!(read_counts(&[9], &missing), Some(vec![(9, 0)]));
        assert_eq!(read_counts(&[9], &ack("{\"aggregates\":[]}")), None);
    }

    #[test]
    fn a_count_that_goes_down_is_a_counted_failure() {
        let report = |n: u64| {
            ack(&format!(
                "{{\"key\":[1],\"aggregates\":[{{\"agg\":\"count\",\"value\":{n}}},\
                 {{\"agg\":\"count_distinct\",\"value\":1}},\
                 {{\"agg\":\"quantiles\",\"p50\":1,\"p95\":1,\"p99\":1}}]}}"
            ))
        };
        let asked = vec![1u64];
        let answers: Vec<(&Vec<u64>, Exchange)> = [5, 9, 8]
            .into_iter()
            .map(|n| {
                let exchange = Exchange {
                    latency_ms: 1.0,
                    reply: report(n),
                };
                (&asked, exchange)
            })
            .collect();
        let mut checks = Checks::default();
        check_monotone_counts(&answers, &mut checks);
        assert_eq!(checks.failed, 1, "{:?}", checks.notes);
    }
}
