//! Torn-batch recovery sweep: across 100 seeded fault plans, injected
//! errors and worker panics must (1) stay contained, (2) roll the whole
//! batch back byte-exactly, (3) report a structured `BatchError` naming
//! row/shard/cause, and (4) leave the engine able to retry to a state
//! byte-identical to a never-faulted baseline.

use sketches::streamdb::metrics::names;
use sketches::streamdb::{
    silence_injected_panics, Aggregate, BatchCause, ConcurrentEngine, FaultInjector, FaultKind,
    FaultPolicy, QuerySpec, Row, ShardedEngine, SketchEngine, StreamEngine, Value,
};
use sketches_workloads::faults::{FaultPlan, IngestFault};

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

fn rows(seed: u64, n: u64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            vec![
                Value::U64(x % 13),
                Value::U64(x % 251),
                Value::F64((x % 500) as f64),
            ]
        })
        .collect()
}

fn to_kind(f: IngestFault) -> FaultKind {
    match f {
        IngestFault::Error => FaultKind::Error,
        IngestFault::Panic => FaultKind::Panic,
    }
}

#[test]
fn hundred_seed_sequential_recovery_sweep() {
    silence_injected_panics();
    let n = 500u64;
    for seed in 0..100u64 {
        let data = rows(seed, n);
        let plan = FaultPlan::generate(seed, n, 1, 0);
        let fault = plan.faults[0];

        let mut engine = SketchEngine::new(spec()).expect("engine");
        let before = engine.to_snapshot_bytes();
        engine.arm_faults(FaultInjector::new().at(fault.attempt, to_kind(fault.fault)));

        let err = engine
            .process_batch(&data)
            .expect_err("fault must fail the batch");
        assert_eq!(err.row, Some(fault.attempt as usize), "seed {seed}");
        assert_eq!(err.shard, None, "seed {seed}");
        match (fault.fault, &err.cause) {
            (IngestFault::Error, BatchCause::Row(_)) => {}
            (IngestFault::Panic, BatchCause::WorkerPanic(msg)) => {
                assert!(
                    msg.contains("streamdb-injected-fault"),
                    "seed {seed}: {msg}"
                );
            }
            (f, c) => panic!("seed {seed}: fault {f:?} reported as {c:?}"),
        }
        assert_eq!(
            engine.to_snapshot_bytes(),
            before,
            "seed {seed}: failed batch left partial state"
        );
        assert_eq!(engine.rows_processed(), 0, "seed {seed}");

        // Retry passes the (consumed) fault and converges with a baseline.
        engine.process_batch(&data).expect("retry");
        engine.disarm_faults();
        let mut baseline = SketchEngine::new(spec()).expect("engine");
        baseline.process_batch(&data).expect("ingest");
        assert_eq!(
            engine.to_snapshot_bytes(),
            baseline.to_snapshot_bytes(),
            "seed {seed}: retry diverged from never-faulted baseline"
        );
    }
}

#[test]
fn hundred_seed_sharded_recovery_sweep() {
    silence_injected_panics();
    let n = 500u64;
    for seed in 0..100u64 {
        let data = rows(seed, n);
        let plan = FaultPlan::generate(seed ^ 0x5EED, n / 8, 1, 0);
        let fault = plan.faults[0];
        let shard = (seed % 4) as usize;

        let mut engine = ShardedEngine::new(spec(), 4).expect("engine");
        let before = engine.to_snapshot_bytes();
        engine
            .arm_faults(
                shard,
                FaultInjector::new().at(fault.attempt, to_kind(fault.fault)),
            )
            .expect("valid shard");

        let err = engine
            .process_batch(&data)
            .expect_err("fault must fail the batch");
        assert_eq!(err.shard, Some(shard), "seed {seed}");
        assert!(err.row.is_some(), "seed {seed}: fault row not attributed");
        assert_eq!(
            engine.to_snapshot_bytes(),
            before,
            "seed {seed}: some shard kept partial state"
        );
        assert_eq!(engine.rows_processed(), 0, "seed {seed}");

        engine.process_batch(&data).expect("retry");
        engine.disarm_faults();
        let mut baseline = ShardedEngine::new(spec(), 4).expect("engine");
        baseline.process_batch(&data).expect("ingest");
        assert_eq!(
            engine.to_snapshot_bytes(),
            baseline.to_snapshot_bytes(),
            "seed {seed}: retry diverged from never-faulted baseline"
        );
    }
}

#[test]
fn quarantine_count_is_exact_and_samples_bounded() {
    let n = 400u64;
    for seed in 0..20u64 {
        let mut data = rows(seed, n);
        // Sprinkle 25 poison rows (short and non-numeric alternating).
        for k in 0..25usize {
            let at = (k * 17 + seed as usize) % data.len();
            data.insert(
                at,
                if k % 2 == 0 {
                    vec![Value::U64(1)]
                } else {
                    vec![Value::U64(1), Value::U64(2), Value::Str("poison".into())]
                },
            );
        }
        let mut engine = ShardedEngine::new(spec(), 3).expect("engine");
        engine.set_fault_policy(FaultPolicy::Quarantine { max_samples: 5 });
        let summary = engine.process_batch(&data).expect("quarantine ingests");
        assert_eq!(summary.rows_quarantined, 25, "seed {seed}");
        assert_eq!(summary.rows_ingested as u64, n, "seed {seed}");

        let dead = engine.dead_letters();
        assert_eq!(dead.count(), 25, "seed {seed}: count must stay exact");
        assert!(
            dead.samples().len() <= 3 * 5 + 5,
            "seed {seed}: samples unbounded: {}",
            dead.samples().len()
        );
        // Every retained sample is a genuinely malformed row.
        for s in dead.samples() {
            assert!(
                s.row.len() < 3 || s.row[2].as_f64().is_none(),
                "seed {seed}: clean row quarantined: {:?}",
                s.row
            );
        }
    }
}

#[test]
fn sharded_merge_failure_names_the_shard_and_leaves_state_usable() {
    let mut a = ShardedEngine::new(spec(), 2).expect("engine");
    a.process_batch(&rows(1, 200)).expect("ingest");
    let before = a.to_snapshot_bytes();

    // Same shard count, different sketch seeds: shard 0's merge fails.
    let mut cfg = sketches::streamdb::EngineConfig::default();
    cfg.seed ^= 0xDEAD;
    let b = ShardedEngine::with_config(spec(), cfg, 2).expect("engine");
    let err = a.merge(&b).expect_err("incompatible merge");
    assert!(err.to_string().contains("shard 0"), "{err}");
    assert_eq!(
        a.to_snapshot_bytes(),
        before,
        "failed merge corrupted the receiver"
    );

    // Still fully usable afterwards.
    a.process_batch(&rows(2, 100))
        .expect("ingest after failed merge");
    assert_eq!(a.rows_processed(), 300);
}

/// The drill surface the two sharded topologies expose beside
/// [`StreamEngine`]: per-shard fault arming with the same shape.
trait ShardDrill: StreamEngine {
    fn build(shards: usize) -> Self;
    fn arm(&mut self, shard: usize, injector: FaultInjector);
    fn disarm(&mut self) -> Vec<(usize, FaultInjector)>;
}

macro_rules! shard_drill {
    ($engine:ty) => {
        impl ShardDrill for $engine {
            fn build(shards: usize) -> Self {
                // COUNT and SUM only: the drill counts attempts, and a
                // cheap row keeps 40 rebuilds of a 20 000-row batch quick.
                let spec =
                    QuerySpec::new(vec![0], vec![Aggregate::Count, Aggregate::Sum { field: 2 }]);
                <$engine>::new(spec.expect("valid spec"), shards).expect("engine")
            }
            fn arm(&mut self, shard: usize, injector: FaultInjector) {
                self.arm_faults(shard, injector).expect("valid shard");
            }
            fn disarm(&mut self) -> Vec<(usize, FaultInjector)> {
                self.disarm_faults()
            }
        }
    };
}
shard_drill!(ShardedEngine);
shard_drill!(ConcurrentEngine);

/// Rows each shard of a fresh engine is routed out of `data`.
fn routed<E: ShardDrill>(data: &[Row], shards: usize) -> Vec<u64> {
    let mut engine = E::build(shards);
    engine.process_batch(data).expect("clean rows");
    let gauges = engine.metrics().gauges;
    (0..shards)
        .map(|i| gauges[&names::shard_rows_routed(i)])
        .collect()
}

/// One body, both topologies: what every shard *attempted* of a failing
/// batch is a function of the batch alone. Each shard is handed its whole
/// slice up front, so a healthy shard attempts all of it and the failing
/// one stops at its poison row (validation rejects that row before the
/// injector is consulted) — however the threads interleave, on either
/// topology. Before the batch was pre-partitioned, the router fed rows one
/// by one and stopped when it noticed a hung-up worker, so the healthy
/// shards' counts depended on scheduling.
fn attempts_after_failed_batch_are_the_partition<E: ShardDrill>() -> Vec<u64> {
    const SHARDS: usize = 4;
    const POISON_AT: usize = 300;
    let clean = rows(91, 20_000);
    let mut batch = clean.clone();
    batch.insert(
        POISON_AT,
        vec![Value::U64(5), Value::U64(0), Value::Str("NaN".into())],
    );

    let mut reference: Option<Vec<u64>> = None;
    for rebuild in 0..20 {
        let mut engine = E::build(SHARDS);
        for shard in 0..SHARDS {
            engine.arm(shard, FaultInjector::new());
        }
        let err = engine.process_batch(&batch).expect_err("poison row");
        assert_eq!(err.row, Some(POISON_AT));
        let failing = err.shard.expect("a shard rejected the row");
        let attempts: Vec<u64> = engine
            .disarm()
            .into_iter()
            .map(|(_, injector)| injector.attempts())
            .collect();

        let expected = reference.get_or_insert_with(|| {
            let mut expected = routed::<E>(&clean, SHARDS);
            let before_poison = routed::<E>(&clean[..POISON_AT], SHARDS)[failing];
            assert!(before_poison < expected[failing], "poison row too late");
            expected[failing] = before_poison;
            expected
        });
        assert_eq!(&attempts, expected, "rebuild {rebuild}");
    }
    reference.expect("ran")
}

#[test]
fn failed_batch_attempts_are_deterministic_on_both_topologies() {
    let sharded = attempts_after_failed_batch_are_the_partition::<ShardedEngine>();
    let concurrent = attempts_after_failed_batch_are_the_partition::<ConcurrentEngine>();
    assert_eq!(sharded, concurrent);
}
