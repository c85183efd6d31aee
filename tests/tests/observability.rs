//! Telemetry contract tests: the metrics a running engine exports are
//! *exact* — counter totals from a 4-shard engine are byte-identical to a
//! sequential engine fed the same stream (rollbacks included), recovery
//! surfaces its torn-tail repairs as counters, snapshot merging never
//! panics, and routing skew is visible in the per-shard gauges.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast; a panic here is the test failing"
)]

use proptest::prelude::*;
use sketches::streamdb::metrics::names;
use sketches::streamdb::{
    Aggregate, CheckpointPolicy, DurableEngine, FaultPolicy, QuerySpec, Row, ShardedEngine,
    SketchEngine, StreamEngine, Value,
};
use sketches_integration_tests::scratch_dir;
use sketches_workloads::zipf::ZipfGenerator;

fn spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .expect("valid spec")
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

/// Drives one engine through the full counter vocabulary: clean commits,
/// quarantined rows, an arity rollback, and a mid-batch type rollback.
fn drive<E: StreamEngine>(engine: &mut E) {
    for b in 0..3u64 {
        engine.process_batch(&rows(b, 500)).expect("clean batch");
    }
    // Quarantine: 10 poison rows (short and non-numeric alternating)
    // diverted, the rest ingested.
    engine.set_fault_policy(FaultPolicy::Quarantine { max_samples: 4 });
    let mut dirty = rows(77, 300);
    for k in 0..10usize {
        dirty.insert(
            (k * 31) % dirty.len(),
            if k % 2 == 0 {
                vec![Value::U64(1)]
            } else {
                vec![Value::U64(1), Value::U64(2), Value::Str("poison".into())]
            },
        );
    }
    engine.process_batch(&dirty).expect("quarantine ingests");
    // FailBatch on a short row: rolled back before (sequential: after
    // partially ingesting; sharded: at router pre-validation).
    engine.set_fault_policy(FaultPolicy::FailBatch);
    let mut short = rows(78, 200);
    short.insert(140, vec![Value::U64(9)]);
    engine.process_batch(&short).expect_err("short row fails");
    // FailBatch on a type error: arity passes the router, so the rollback
    // happens mid-ingest on both engines.
    let mut typed = rows(79, 200);
    typed.insert(
        60,
        vec![Value::U64(3), Value::U64(4), Value::Str("x".into())],
    );
    engine.process_batch(&typed).expect_err("type error fails");
    engine.process_batch(&rows(80, 500)).expect("final batch");
}

#[test]
fn sharded_counter_totals_are_byte_identical_to_sequential() {
    let mut seq = SketchEngine::new(spec()).expect("engine");
    let mut sharded = ShardedEngine::new(spec(), 4).expect("engine");
    drive(&mut seq);
    drive(&mut sharded);

    let seq_snap = seq.metrics();
    let sh_snap = sharded.metrics();
    // The whole counter map — name for name, total for total. Rollbacks
    // must have rewound the row counters on both engines for this to hold.
    assert_eq!(seq_snap.counters, sh_snap.counters);
    assert_eq!(seq_snap.counters[names::ROWS_INGESTED], 4 * 500 + 300);
    assert_eq!(seq_snap.counters[names::ROWS_QUARANTINED], 10);
    assert_eq!(seq_snap.counters[names::BATCHES_COMMITTED], 5);
    assert_eq!(seq_snap.counters[names::BATCHES_ROLLED_BACK], 2);
    assert_eq!(seq_snap.counters[names::PANICS_CONTAINED], 0);
    // Shard gauges sum to the sequential point-in-time values.
    assert_eq!(
        seq_snap.gauges[names::GROUPS],
        sh_snap.gauges[names::GROUPS]
    );
    assert_eq!(
        seq_snap.gauges[names::STATE_BYTES],
        sh_snap.gauges[names::STATE_BYTES]
    );
    assert_eq!(sh_snap.gauges[names::SHARDS], 4);
}

#[test]
fn disabling_metrics_changes_no_observable_state() {
    let mut on = SketchEngine::new(spec()).expect("engine");
    let mut off = SketchEngine::new(spec()).expect("engine");
    off.set_metrics_enabled(false);
    drive(&mut on);
    drive(&mut off);
    // Telemetry is an observer: engine state is identical with it off...
    assert_eq!(on.to_snapshot_bytes(), off.to_snapshot_bytes());
    // ...and the disabled engine reports only zeroed counters.
    assert!(off.metrics().counters.values().all(|&v| v == 0));
    assert_eq!(off.metrics().counters.len(), on.metrics().counters.len());
}

#[test]
fn torn_tail_recovery_is_counted_and_reported() {
    let dir = scratch_dir("sketches-obs", "torn");
    let mut durable = DurableEngine::create(
        &dir,
        SketchEngine::new(spec()).expect("engine"),
        CheckpointPolicy::default(),
    )
    .expect("create");
    durable.process_batch(&rows(1, 120)).expect("batch 0");
    durable.process_batch(&rows(2, 120)).expect("batch 1");
    drop(durable);

    // Tear the final WAL record, as a crash mid-append would.
    let wal = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "wal"))
        .expect("wal segment");
    let bytes = std::fs::read(&wal).expect("read wal");
    std::fs::write(&wal, &bytes[..bytes.len() - 11]).expect("tear");

    let recovered = DurableEngine::<SketchEngine>::recover(&dir).expect("recover");
    let snap = recovered.metrics();
    assert_eq!(snap.counters[names::RECOVERIES], 1);
    assert_eq!(snap.counters[names::RECOVERY_TORN_TAIL_TRUNCATIONS], 1);
    assert!(snap.counters[names::RECOVERY_TORN_TAIL_BYTES] > 0);
    assert_eq!(snap.counters[names::RECOVERY_BATCHES_REPLAYED], 1);
    assert_eq!(snap.counters[names::RECOVERY_ROWS_REPLAYED], 120);
    // The torn-tail warning rides along as an event.
    assert!(
        snap.events.iter().any(|e| e.message.contains("torn")),
        "no torn-tail event: {:?}",
        snap.events
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zipf_skew_is_visible_in_shard_routing_gauges() {
    let shards = 4usize;
    let mut zipf = ZipfGenerator::new(1_000, 1.3, 7).expect("zipf");
    let stream: Vec<Row> = (0..20_000u64)
        .map(|i| {
            vec![
                Value::U64(zipf.sample()),
                Value::U64(i % 211),
                Value::F64((i % 500) as f64),
            ]
        })
        .collect();
    let mut engine = ShardedEngine::new(spec(), shards).expect("engine");
    engine.process_batch(&stream).expect("ingest");

    let snap = engine.metrics();
    let routed: Vec<u64> = (0..shards)
        .map(|i| snap.gauges[&names::shard_rows_routed(i)])
        .collect();
    // The routing gauges are an exact decomposition of the ingest counter.
    assert_eq!(routed.iter().sum::<u64>(), 20_000);
    assert_eq!(snap.counters[names::ROWS_INGESTED], 20_000);
    let hottest = *routed.iter().max().expect("gauges");
    let coldest = *routed.iter().min().expect("gauges");
    // Hash routing still reaches every shard under Zipf keys...
    assert!(coldest > 0, "a shard went cold: {routed:?}");
    // ...but the shard that drew the head key is visibly hotter — the
    // load imbalance the gauges exist to surface. Zipf(1.3) puts ~28% of
    // the stream on the single hottest key.
    assert!(
        hottest as f64 / coldest as f64 > 1.2,
        "expected visible skew, got {routed:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot merging across random topologies and stream sizes never
    /// panics, keeps counters additive, and leaves every rendering path
    /// (table / Prometheus / JSON — all of which query histogram
    /// quantiles) total.
    #[test]
    fn prop_snapshot_merge_is_total_and_additive(
        seed in 0u64..1_000_000,
        shards_a in 1usize..5,
        shards_b in 1usize..5,
        na in 1u64..600,
        nb in 1u64..600,
    ) {
        let mut a = ShardedEngine::new(spec(), shards_a).expect("engine");
        for chunk in rows(seed, na).chunks(97) {
            a.process_batch(chunk).expect("ingest a");
        }
        let mut b = ShardedEngine::new(spec(), shards_b).expect("engine");
        for chunk in rows(seed ^ 0xABCD, nb).chunks(61) {
            b.process_batch(chunk).expect("ingest b");
        }
        let mut merged = a.metrics();
        merged.merge(&b.metrics()).expect("same histogram shape");
        prop_assert_eq!(merged.counters[names::ROWS_INGESTED], na + nb);
        let h = &merged.histograms[names::BATCH_LATENCY];
        prop_assert_eq!(
            h.count(),
            a.metrics().histograms[names::BATCH_LATENCY].count()
                + b.metrics().histograms[names::BATCH_LATENCY].count()
        );
        let table = merged.to_table();
        prop_assert!(table.contains(names::ROWS_INGESTED));
        prop_assert!(!merged.to_prometheus().is_empty());
        prop_assert!(merged.to_json().starts_with('{'));
    }
}
