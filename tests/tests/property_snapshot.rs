//! Property tests for checkpoint snapshots: round-trips are exact (bytes
//! and future behaviour), and *every* single-bit flip or truncation of a
//! snapshot is detected as a typed `Corrupted` error — never a panic,
//! never a silently-wrong engine.

use proptest::collection::vec;
use proptest::prelude::*;
use sketches::core::SketchError;
use sketches::streamdb::{
    Aggregate, EngineConfig, QuerySpec, Row, ShardedEngine, SketchEngine, Snapshot, Value,
};

fn full_spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
            Aggregate::TopK { field: 1, k: 3 },
            Aggregate::Frequency { field: 1 },
        ],
    )
    .expect("valid spec")
}

/// Small sketches keep the exhaustive corruption sweep fast.
fn tiny_config() -> EngineConfig {
    EngineConfig {
        hll_precision: 4,
        kll_k: 8,
        space_saving_counters: 4,
        sf_fat_width: 16,
        sf_slim_width: 4,
        ..EngineConfig::default()
    }
}

fn to_rows(raw: &[(u64, u16, u16)]) -> Vec<Row> {
    raw.iter()
        .map(|&(g, u, v)| {
            vec![
                Value::U64(g),
                Value::U64(u64::from(u)),
                Value::F64(f64::from(v)),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot → restore → snapshot is the identity on bytes, and the
    /// restored engine's future ingest stays byte-identical to the
    /// original's (RNG positions included).
    #[test]
    fn engine_snapshot_round_trip_is_exact(
        raw in vec((0u64..9, any::<u16>(), 0u16..1000), 0..300),
        more in vec((0u64..9, any::<u16>(), 0u16..1000), 0..100),
    ) {
        let rows = to_rows(&raw);
        let mut original = SketchEngine::new(full_spec()).expect("engine");
        original.process_batch(&rows).expect("ingest");

        let bytes = original.to_snapshot_bytes();
        let mut restored = SketchEngine::from_snapshot_bytes(&bytes).expect("restore");
        prop_assert_eq!(restored.to_snapshot_bytes(), bytes.clone());

        let future = to_rows(&more);
        original.process_batch(&future).expect("ingest");
        restored.process_batch(&future).expect("ingest");
        prop_assert_eq!(restored.to_snapshot_bytes(), original.to_snapshot_bytes());
    }

    /// The same identity for the sharded engine, topology included.
    #[test]
    fn sharded_snapshot_round_trip_is_exact(
        raw in vec((0u64..9, any::<u16>(), 0u16..1000), 0..300),
        shards in 1usize..5,
    ) {
        let rows = to_rows(&raw);
        let mut original = ShardedEngine::new(full_spec(), shards).expect("engine");
        original.process_batch(&rows).expect("ingest");

        let bytes = original.to_snapshot_bytes();
        let restored = ShardedEngine::from_snapshot_bytes(&bytes).expect("restore");
        prop_assert_eq!(restored.num_shards(), shards);
        prop_assert_eq!(restored.to_snapshot_bytes(), bytes);
    }

    /// Random multi-byte stompings of random snapshot regions are always
    /// detected (the exhaustive single-bit sweep lives below; this one
    /// covers compound damage).
    #[test]
    fn random_stompings_are_detected(
        raw in vec((0u64..9, any::<u16>(), 0u16..1000), 1..120),
        at in any::<u64>(),
        stomp in vec(any::<u8>(), 1..16),
    ) {
        let mut engine = SketchEngine::with_config(full_spec(), tiny_config()).expect("engine");
        engine.process_batch(&to_rows(&raw)).expect("ingest");
        let bytes = engine.to_snapshot_bytes();

        let pos = (at % bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        for (i, b) in stomp.iter().enumerate() {
            if pos + i < bad.len() {
                // `| 1` keeps every XOR mask nonzero, so the first stomped
                // byte always really changes.
                bad[pos + i] ^= b | 1;
            }
        }
        prop_assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SketchError::Corrupted { .. })
        ));
    }
}

/// Exhaustive single-bit-flip sweep: flipping any one bit anywhere in the
/// snapshot must yield a typed `Corrupted` error.
#[test]
fn every_single_bit_flip_is_detected() {
    let mut engine = SketchEngine::with_config(full_spec(), tiny_config()).expect("engine");
    let rows: Vec<Row> = (0..150u64)
        .map(|i| {
            vec![
                Value::U64(i % 5),
                Value::U64(i % 37),
                Value::F64((i % 100) as f64),
            ]
        })
        .collect();
    engine.process_batch(&rows).expect("ingest");
    let bytes = engine.to_snapshot_bytes();

    for i in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << bit;
            match Snapshot::from_bytes(&bad) {
                Err(SketchError::Corrupted { .. }) => {}
                other => panic!("flip of byte {i} bit {bit} not detected: {other:?}"),
            }
        }
    }
}

/// Exhaustive truncation sweep: every proper prefix of a snapshot must be
/// rejected with a typed `Corrupted` error.
#[test]
fn every_truncation_is_detected() {
    let mut engine = ShardedEngine::with_config(full_spec(), tiny_config(), 3).expect("engine");
    let rows: Vec<Row> = (0..150u64)
        .map(|i| {
            vec![
                Value::U64(i % 5),
                Value::U64(i % 37),
                Value::F64((i % 100) as f64),
            ]
        })
        .collect();
    engine.process_batch(&rows).expect("ingest");
    let bytes = engine.to_snapshot_bytes();

    for cut in 0..bytes.len() {
        match Snapshot::from_bytes(&bytes[..cut]) {
            Err(SketchError::Corrupted { .. }) => {}
            other => panic!("truncation to {cut} bytes not detected: {other:?}"),
        }
    }
}
