//! Stress and composition tests for the concurrent serving engine: seeded
//! multi-thread drills where readers spin on `report()` while batches
//! stream in. Readers must always be answered, published state must only
//! move forward in committed-batch steps, publish lag must stay bounded by
//! the in-flight work, and at quiescence the served state must equal the
//! sequential engine group for group and the sharded engine byte for byte.
//! The durable wrapper must compose with the concurrent engine unchanged.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sketches::streamdb::{
    Aggregate, AggregateResult, CheckpointPolicy, ConcurrentEngine, DurableEngine, FaultPolicy,
    QuerySpec, Row, ShardedEngine, SketchEngine, Value,
};
use sketches_workloads::serving::ServingWorkload;

const SHARDS: usize = 4;
const NUM_BATCHES: usize = 20;
const BATCH_ROWS: usize = 1_000;

fn spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
            Aggregate::TopK { field: 1, k: 3 },
        ],
    )
    .expect("valid spec")
}

/// Deterministic serving batches: Zipf-hot group keys, growing distinct
/// users, numeric measures — the same stream for every engine under test.
fn serving_batches(seed: u64) -> Vec<Vec<Row>> {
    let mut wl = ServingWorkload::new(500, 1.2, seed).expect("workload");
    wl.batches(NUM_BATCHES, BATCH_ROWS)
        .iter()
        .map(|b| {
            b.iter()
                .map(|e| {
                    vec![
                        Value::U64(e.group),
                        Value::U64(e.user % 10_000),
                        Value::F64(e.value),
                    ]
                })
                .collect()
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sketches-concurrent-it-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// The core stress drill: several reader threads hammer `report()`,
/// `num_groups()`, and `rows_processed()` while the writer streams every
/// batch through `wait()`. Probes must always answer, published row counts
/// must be monotone, and resolved tickets must already be visible.
#[test]
fn readers_are_always_answered_during_ingest() {
    let batches = serving_batches(11);
    let engine = ConcurrentEngine::new(spec(), SHARDS).expect("engine");
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..3u64)
            .map(|r| {
                let engine = &engine;
                let stop = &stop;
                s.spawn(move || {
                    let mut probes = 0u64;
                    let mut last_rows = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Hot and cold groups alike: every probe answers.
                        for g in [1u64, 2, 3, 250 + r, 90_000] {
                            let _ = engine.report(&[Value::U64(g)]).expect("report");
                            probes += 1;
                        }
                        let rows = engine.rows_processed();
                        assert!(
                            rows >= last_rows,
                            "published rows went backwards: {rows} < {last_rows}"
                        );
                        last_rows = rows;
                        let _ = engine.num_groups();
                    }
                    probes
                })
            })
            .collect();

        let mut expected = 0u64;
        for batch in &batches {
            let summary = engine.submit_batch(batch.clone()).wait().expect("batch");
            expected += summary.rows_ingested as u64;
            // Publish happens before the ticket resolves, so a resolved
            // wait() means readers already observe the batch.
            assert!(engine.rows_processed() >= expected);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let probes = r.join().expect("reader thread");
            assert!(probes > 0, "a reader thread never completed a probe");
        }
    });

    // Quiescence: group-for-group equality with the sequential engine,
    // byte-for-byte snapshot equality with the sharded engine.
    let mut seq = SketchEngine::new(spec()).expect("engine");
    let mut sharded = ShardedEngine::new(spec(), SHARDS).expect("engine");
    for batch in &batches {
        seq.process_batch(batch).expect("seq");
        sharded.process_batch(batch).expect("sharded");
    }
    assert_eq!(engine.num_groups(), seq.num_groups());
    for key in engine.groups() {
        assert_eq!(
            engine.report(&key).expect("conc report"),
            seq.report(&key).expect("seq report"),
            "group {key:?} diverged"
        );
    }
    assert_eq!(engine.to_snapshot_bytes(), sharded.to_snapshot_bytes());
}

/// Views are cut on demand from the published snapshots, so a view read
/// racing commits must see what every other read sees: each shard at a
/// committed-batch boundary, moving only forward. The same batch is
/// committed 20 times, so a group's COUNT in any view must be a whole
/// multiple of its COUNT in one batch (a group lives in one shard; a torn
/// or half-published shard would break the multiple), and the row total
/// never goes down. Across shards a read may straddle the one batch being
/// published — shard i has it, shard j not yet — so the *total* is pinned
/// to a whole-batch boundary only where there is one shard to read.
#[test]
fn on_demand_views_are_monotone_and_batch_atomic_per_shard() {
    let batch = serving_batches(71).swap_remove(0);
    let mut one_batch = SketchEngine::new(spec()).expect("engine");
    one_batch.process_batch(&batch).expect("seq");
    let count_of = |report: Option<Vec<AggregateResult>>| match report.as_deref() {
        Some([AggregateResult::Count(c), ..]) => *c,
        None => 0,
        other => panic!("COUNT is the first aggregate: {other:?}"),
    };
    let per_batch: Vec<(Vec<Value>, u64)> = one_batch
        .groups()
        .map(|key| {
            (
                key.clone(),
                count_of(one_batch.report(key).expect("report")),
            )
        })
        .collect();

    for shards in [1, SHARDS] {
        let engine = ConcurrentEngine::new(spec(), shards).expect("engine");
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut views = 0u64;
                let mut last_rows = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let view = engine.query_view();
                    let rows = view.rows_processed();
                    assert!(
                        rows >= last_rows,
                        "view went backwards: {rows} < {last_rows}"
                    );
                    last_rows = rows;
                    if shards == 1 {
                        assert_eq!(rows % BATCH_ROWS as u64, 0, "torn batch in a view");
                    }
                    for (key, in_one_batch) in &per_batch {
                        let seen = count_of(view.report(key).expect("view report"));
                        assert_eq!(
                            seen % in_one_batch,
                            0,
                            "group {key:?}: {seen} rows is not a whole number of batches"
                        );
                    }
                    views += 1;
                }
                views
            });
            for _ in 0..NUM_BATCHES {
                engine.submit_batch(batch.clone()).wait().expect("batch");
            }
            stop.store(true, Ordering::Relaxed);
            assert!(reader.join().expect("reader thread") > 0);
        });
        assert_eq!(
            engine.query_view().rows_processed(),
            (NUM_BATCHES * BATCH_ROWS) as u64
        );
    }
}

/// Submission before waiting: take every ticket before opening any. Each
/// submit runs its batch under the coordinator lock and returns it
/// resolved, so batches apply in submission order, every `wait` answers
/// at once, and the final state still matches the sequential run.
#[test]
fn pipelined_submission_applies_in_order() {
    let batches = serving_batches(23);
    let engine = ConcurrentEngine::new(spec(), SHARDS).expect("engine");

    let tickets: Vec<_> = batches
        .iter()
        .map(|b| engine.submit_batch(b.clone()))
        .collect();
    let mut resolved = 0u64;
    for t in tickets {
        let summary = t.wait().expect("ticket");
        resolved += summary.rows_ingested as u64;
        assert!(engine.rows_processed() >= resolved);
    }
    assert_eq!(resolved, (NUM_BATCHES * BATCH_ROWS) as u64);

    let mut seq = SketchEngine::new(spec()).expect("engine");
    for batch in &batches {
        seq.process_batch(batch).expect("seq");
    }
    for key in seq.groups() {
        assert_eq!(
            engine.report(key).expect("conc report"),
            seq.report(key).expect("seq report")
        );
    }
}

/// A failing batch rolls back without publishing: concurrent readers never
/// observe any of its rows, before, during, or after the rollback.
#[test]
fn rollback_is_invisible_to_concurrent_readers() {
    let batches = serving_batches(37);
    let engine = ConcurrentEngine::new(spec(), SHARDS).expect("engine");
    for batch in &batches[..4] {
        engine.submit_batch(batch.clone()).wait().expect("prefix");
    }
    let committed = engine.rows_processed();
    let baseline = engine.to_snapshot_bytes();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = &engine;
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = engine.report(&[Value::U64(1)]).expect("report");
                        assert_eq!(
                            engine.rows_processed(),
                            committed,
                            "a reader observed rows from a rolled-back batch"
                        );
                    }
                })
            })
            .collect();

        // Poison mid-batch: a string where the summed field must be
        // numeric fails one shard, and every shard rolls back.
        for trial in 0..5 {
            let mut poison = batches[4].clone();
            poison.insert(
                100 * (trial + 1),
                vec![
                    Value::U64(1),
                    Value::U64(2),
                    Value::Str("not-a-number".to_string()),
                ],
            );
            let err = engine.submit_batch(poison).wait().expect_err("must fail");
            assert_eq!(err.row, Some(100 * (trial + 1)));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader thread");
        }
    });
    assert_eq!(engine.to_snapshot_bytes(), baseline);
    assert!(!engine.is_poisoned());

    // The engine keeps serving writes after the rollbacks.
    engine
        .submit_batch(batches[4].clone())
        .wait()
        .expect("resume");
    assert_eq!(engine.rows_processed(), committed + BATCH_ROWS as u64);
}

/// Quarantine under live readers: poison rows divert to dead letters, the
/// batch still lands, and the quiescent state matches a sequential engine
/// running the same policy over the same stream.
#[test]
fn quarantine_under_load_matches_sequential_policy() {
    let batches = serving_batches(53);
    let policy = FaultPolicy::Quarantine { max_samples: 4 };
    let mut engine = ConcurrentEngine::new(spec(), SHARDS).expect("engine");
    engine.set_fault_policy(policy);
    let mut seq = SketchEngine::new(spec()).expect("engine");
    seq.set_fault_policy(policy);

    let poison_at = 17usize;
    let mut quarantined = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        let mut batch = batch.clone();
        if i % 3 == 0 {
            batch.insert(
                poison_at,
                vec![Value::U64(9), Value::U64(9), Value::Str("bad".to_string())],
            );
        }
        let summary = engine.submit_batch(batch.clone()).wait().expect("batch");
        let seq_summary = seq.process_batch(&batch).expect("seq");
        assert_eq!(summary, seq_summary);
        quarantined += summary.rows_quarantined as u64;
    }
    assert!(quarantined > 0, "no rows were quarantined");
    assert_eq!(engine.dead_letters().count(), seq.dead_letters().count());
    for key in seq.groups() {
        assert_eq!(
            engine.report(key).expect("conc report"),
            seq.report(key).expect("seq report")
        );
    }
}

/// `flush_window` drains the concurrent engine exactly like the
/// sequential one: same per-group rows out, empty state after, and the
/// engine keeps ingesting into the fresh window.
#[test]
fn flush_window_matches_sequential_and_resets() {
    let batches = serving_batches(71);
    let mut engine = ConcurrentEngine::new(spec(), SHARDS).expect("engine");
    let mut seq = SketchEngine::new(spec()).expect("engine");
    for batch in &batches[..6] {
        engine.submit_batch(batch.clone()).wait().expect("batch");
        seq.process_batch(batch).expect("seq");
    }
    let conc_out = engine.flush_window().expect("flush");
    let seq_out = seq.flush_window().expect("flush");
    assert_eq!(conc_out, seq_out);
    assert_eq!(engine.num_groups(), 0);
    assert_eq!(engine.rows_processed(), 0);

    // The next window starts clean on both sides.
    engine
        .submit_batch(batches[6].clone())
        .wait()
        .expect("next");
    seq.process_batch(&batches[6]).expect("next");
    for key in seq.groups() {
        assert_eq!(
            engine.report(key).expect("conc report"),
            seq.report(key).expect("seq report")
        );
    }
}

/// `DurableEngine<ConcurrentEngine>` composes through the `StreamEngine`
/// trait: checkpoints serialize the published state, recovery rebuilds a
/// live worker pool, and the recovered engine both serves and ingests.
#[test]
fn durable_wrapper_checkpoints_and_recovers_concurrent_engine() {
    let dir = scratch_dir("durable");
    let _ = std::fs::remove_dir_all(&dir);
    let batches = serving_batches(97);
    let policy = CheckpointPolicy::new(2 * BATCH_ROWS as u64, u64::MAX).expect("policy");

    let mut durable = DurableEngine::create(
        &dir,
        ConcurrentEngine::new(spec(), SHARDS).expect("engine"),
        policy,
    )
    .expect("create");
    for batch in &batches[..8] {
        durable.process_batch(batch).expect("batch");
    }
    durable.checkpoint_now().expect("checkpoint");
    let persisted = durable.engine().to_snapshot_bytes();
    drop(durable);

    let mut recovered =
        DurableEngine::<ConcurrentEngine>::recover_with_policy(&dir, policy).expect("recover");
    assert_eq!(recovered.engine().to_snapshot_bytes(), persisted);

    // The recovered engine has a live worker pool: it serves and ingests.
    let mut reference = SketchEngine::new(spec()).expect("engine");
    for batch in &batches[..8] {
        reference.process_batch(batch).expect("reference");
    }
    for batch in &batches[8..] {
        recovered.process_batch(batch).expect("resume");
        reference.process_batch(batch).expect("reference");
    }
    for key in reference.groups() {
        assert_eq!(
            recovered.engine().report(key).expect("recovered report"),
            reference.report(key).expect("reference report"),
            "group {key:?} diverged after recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot restore crosses topologies in both directions: a concurrent
/// engine restores a sharded engine's bytes (and vice versa) and the
/// restored engine serves the same reports.
#[test]
fn snapshot_restore_crosses_topologies() {
    let batches = serving_batches(113);
    let conc = ConcurrentEngine::new(spec(), SHARDS).expect("engine");
    let mut sharded = ShardedEngine::new(spec(), SHARDS).expect("engine");
    for batch in &batches[..5] {
        conc.submit_batch(batch.clone()).wait().expect("batch");
        sharded.process_batch(batch).expect("sharded");
    }

    let from_sharded = ConcurrentEngine::from_snapshot_bytes(&sharded.to_snapshot_bytes())
        .expect("restore concurrent from sharded bytes");
    let from_conc = ShardedEngine::from_snapshot_bytes(&conc.to_snapshot_bytes())
        .expect("restore sharded from concurrent bytes");
    for key in sharded.groups() {
        let want = sharded.report(key).expect("sharded report");
        assert_eq!(from_sharded.report(key).expect("restored report"), want);
        assert_eq!(from_conc.report(key).expect("restored report"), want);
    }
    assert_eq!(from_sharded.rows_processed(), conc.rows_processed());
}

/// Shutdown stress: many threads submit batches through shared ownership
/// and release their handles *before* waiting, so whichever thread drops
/// the last handle shuts the engine down while others still hold tickets.
/// Every ticket must answer within a bounded wait — batches submitted
/// before the shutdown land with their full summary, and nothing hangs or
/// leaks a thread.
#[test]
fn shutdown_with_in_flight_submissions_resolves_every_ticket() {
    use std::sync::Arc;
    use std::time::Duration;

    const THREADS: u64 = 8;
    const BATCHES_PER_THREAD: usize = 6;

    let batches = serving_batches(211);
    // 48 submissions from 8 threads contend for the coordinator lock; a
    // submit returns its ticket resolved, so the drop can only ever find
    // threads still holding tickets, never a batch half applied.
    let engine = Arc::new(
        ConcurrentEngine::with_config(spec(), sketches::streamdb::EngineConfig::default(), SHARDS)
            .expect("engine"),
    );

    let mut submitted_rows = 0u64;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let engine = Arc::clone(&engine);
        let mine: Vec<Vec<Row>> = (0..BATCHES_PER_THREAD)
            .map(|i| batches[(t as usize * BATCHES_PER_THREAD + i) % batches.len()].clone())
            .collect();
        submitted_rows += mine.iter().map(|b| b.len() as u64).sum::<u64>();
        handles.push(std::thread::spawn(move || {
            let tickets: Vec<_> = mine
                .into_iter()
                .map(|rows| engine.submit_batch(rows))
                .collect();
            // Release this thread's share of the engine *before* waiting:
            // whichever thread drops the last handle runs the engine's
            // drop-shutdown while these tickets are still unopened.
            drop(engine);
            let mut resolved = 0u64;
            for ticket in tickets {
                match ticket.wait_timeout(Duration::from_secs(10)) {
                    Ok(Ok(summary)) => resolved += summary.rows_ingested as u64,
                    Ok(Err(err)) => panic!("pre-shutdown batch failed: {err:?}"),
                    Err(_) => panic!("ticket unresolved after shutdown: would hang"),
                }
            }
            resolved
        }));
    }
    drop(engine);

    let resolved_rows: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("submitter panicked"))
        .sum();
    assert_eq!(
        resolved_rows, submitted_rows,
        "every batch submitted before shutdown must land in full"
    );
}
