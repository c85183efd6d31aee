//! The `StreamEngine` equivalence suite: written ONCE against the trait,
//! executed for both implementations — plus cross-implementation checks
//! that the sequential and sharded engines answer identically through the
//! unified surface.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast; a panic here is the test failing"
)]

use sketches::streamdb::{
    Aggregate, FaultPolicy, QuerySpec, Row, ShardedEngine, SketchEngine, StreamEngine, Value,
};

fn spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
            Aggregate::TopK { field: 1, k: 4 },
        ],
    )
    .expect("valid spec")
}

fn rows(seed: u64, n: u64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            vec![
                Value::U64(x % 11),
                Value::U64(x % 257),
                Value::F64((x % 1_000) as f64),
            ]
        })
        .collect()
}

/// The generic suite: every behavioural guarantee the trait documents,
/// checked through the trait alone.
fn suite<E: StreamEngine>(mut engine: E) {
    // Transactional ingest + accounting.
    let batch = rows(7, 2_000);
    let summary = engine.process_batch(&batch).expect("clean batch");
    assert_eq!(summary.rows_ingested, 2_000);
    assert_eq!(summary.rows_quarantined, 0);
    assert_eq!(engine.rows_processed(), 2_000);
    assert_eq!(engine.num_groups(), 11);
    assert!(engine.state_bytes() > 0);

    // groups(): ascending key order, matching num_groups.
    let groups = engine.groups();
    assert_eq!(groups.len(), engine.num_groups());
    for pair in groups.windows(2) {
        assert!(pair[0] < pair[1], "listing out of order");
    }

    // report(): Some for a tracked key, None for an unseen one.
    for key in &groups {
        assert!(engine.report(key).expect("report").is_some());
    }
    assert!(engine
        .report(&[Value::U64(9_999)])
        .expect("report")
        .is_none());

    // A failing batch rolls back byte-exactly (FailBatch + poison row).
    engine.set_fault_policy(FaultPolicy::FailBatch);
    let before = engine.to_snapshot_bytes();
    let mut poisoned = rows(8, 50);
    poisoned.push(vec![Value::U64(1)]); // wrong arity
    engine.process_batch(&poisoned).expect_err("poison row");
    assert_eq!(engine.to_snapshot_bytes(), before, "rollback not exact");

    // Quarantine diverts with an exact count and an owned view.
    engine.set_fault_policy(FaultPolicy::Quarantine { max_samples: 2 });
    assert_eq!(
        engine.fault_policy(),
        FaultPolicy::Quarantine { max_samples: 2 }
    );
    engine.process_batch(&poisoned).expect("quarantine absorbs");
    let dead = engine.dead_letters();
    assert_eq!(dead.count(), 1);
    assert_eq!(dead.samples().len(), 1);

    // Snapshot round trip: byte-exact now and after further ingest.
    let bytes = engine.to_snapshot_bytes();
    let mut restored = E::from_snapshot_bytes(&bytes).expect("restore");
    assert_eq!(restored.to_snapshot_bytes(), bytes);
    let more = rows(9, 500);
    engine.process_batch(&more).expect("more");
    restored.process_batch(&more).expect("more");
    assert_eq!(engine.to_snapshot_bytes(), restored.to_snapshot_bytes());

    // Corruption of the snapshot is a typed error, never a panic.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x20;
    assert!(E::from_snapshot_bytes(&bad).is_err());

    // flush_window(): ascending keys, then a full reset.
    let window = engine.flush_window().expect("window");
    for pair in window.windows(2) {
        assert!(pair[0].0 < pair[1].0, "window out of order");
    }
    assert_eq!(engine.num_groups(), 0);
    assert_eq!(engine.rows_processed(), 0);
    assert!(engine.dead_letters().is_empty());

    // merge(): row counts add; merging is how distributed GROUP BY joins.
    let mut left = E::from_snapshot_bytes(&bytes).expect("restore");
    let right = {
        let mut r = E::from_snapshot_bytes(&bytes).expect("restore");
        r.process_batch(&rows(10, 300)).expect("ingest");
        r
    };
    let sum = left.rows_processed() + right.rows_processed();
    left.merge(&right).expect("merge");
    assert_eq!(left.rows_processed(), sum);
}

#[test]
fn trait_suite_sequential() {
    suite(SketchEngine::new(spec()).expect("engine"));
}

#[test]
fn trait_suite_sharded() {
    suite(ShardedEngine::new(spec(), 4).expect("engine"));
}

/// Cross-implementation equivalence through the trait: same stream, same
/// listings, same per-group reports.
#[test]
fn sequential_and_sharded_agree_via_trait() {
    fn ingest<E: StreamEngine>(mut engine: E) -> E {
        for seed in 0..5u64 {
            engine.process_batch(&rows(seed, 1_000)).expect("ingest");
        }
        engine
    }
    let seq = ingest(SketchEngine::new(spec()).expect("engine"));
    let sharded = ingest(ShardedEngine::new(spec(), 3).expect("engine"));

    assert_eq!(seq.rows_processed(), sharded.rows_processed());
    assert_eq!(StreamEngine::groups(&seq), StreamEngine::groups(&sharded));
    for key in StreamEngine::groups(&seq) {
        assert_eq!(
            seq.report(&key).expect("report"),
            sharded.report(&key).expect("report"),
            "group {key:?} diverged between implementations"
        );
    }
}
