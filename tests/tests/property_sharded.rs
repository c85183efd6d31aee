//! Property-based tests for the sharded GROUP BY engine: any stream, any
//! shard count, any batch split must report exactly like one sequential
//! engine; and engine-level merge must be associative and commutative.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast; a panic here is the test failing"
)]

use proptest::collection::vec;
use proptest::prelude::*;
use sketches::streamdb::{Aggregate, QuerySpec, Row, ShardedEngine, SketchEngine, Value};

/// Full aggregate spec: GROUP BY field 0 over (key, user, value) rows.
fn full_spec() -> QuerySpec {
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

/// Merge-exact spec: aggregates whose merge is bit-for-bit order-free
/// (counts, integer-valued sums, register-max distinct counts). KLL and
/// SpaceSaving merges are deterministic but not order-independent, so
/// they are exercised by the equivalence property, not the algebraic one.
fn exact_spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
        ],
    )
    .expect("valid spec")
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any stream, shard count, and batch split: per-group reports and
    /// global counters equal the sequential engine's exactly.
    #[test]
    fn sharded_reports_identical_to_sequential(
        raw in vec((0u64..12, any::<u16>(), 0u16..1000), 0..400),
        shards in 1usize..9,
        chunk in 1usize..97,
    ) {
        let rows = to_rows(&raw);
        let mut seq = SketchEngine::new(full_spec()).unwrap();
        seq.process_batch(&rows).unwrap();

        let mut sharded = ShardedEngine::new(full_spec(), shards).unwrap();
        for batch in rows.chunks(chunk) {
            sharded.process_batch(batch).unwrap();
        }
        prop_assert_eq!(sharded.rows_processed(), seq.rows_processed());
        prop_assert_eq!(sharded.num_groups(), seq.num_groups());
        for key in seq.groups() {
            prop_assert_eq!(
                sharded.report(key).unwrap(),
                seq.report(key).unwrap(),
                "group {:?} diverged at {} shards", key, shards
            );
        }
    }

    /// Engine merge is commutative: a ⊕ b reports like b ⊕ a.
    #[test]
    fn engine_merge_commutative(
        raw_a in vec((0u64..8, any::<u16>(), 0u16..1000), 0..300),
        raw_b in vec((0u64..8, any::<u16>(), 0u16..1000), 0..300),
    ) {
        let (a_rows, b_rows) = (to_rows(&raw_a), to_rows(&raw_b));
        let build = |rows: &[Row]| {
            let mut e = SketchEngine::new(exact_spec()).unwrap();
            e.process_batch(rows).unwrap();
            e
        };
        let mut ab = build(&a_rows);
        ab.merge(&build(&b_rows)).unwrap();
        let mut ba = build(&b_rows);
        ba.merge(&build(&a_rows)).unwrap();
        prop_assert_eq!(ab.rows_processed(), ba.rows_processed());
        prop_assert_eq!(ab.num_groups(), ba.num_groups());
        for key in ab.groups() {
            prop_assert_eq!(ab.report(key).unwrap(), ba.report(key).unwrap());
        }
    }

    /// Engine merge is associative: (a ⊕ b) ⊕ c reports like a ⊕ (b ⊕ c).
    #[test]
    fn engine_merge_associative(
        raw_a in vec((0u64..8, any::<u16>(), 0u16..1000), 0..200),
        raw_b in vec((0u64..8, any::<u16>(), 0u16..1000), 0..200),
        raw_c in vec((0u64..8, any::<u16>(), 0u16..1000), 0..200),
    ) {
        let rows = [to_rows(&raw_a), to_rows(&raw_b), to_rows(&raw_c)];
        let build = |rows: &[Row]| {
            let mut e = SketchEngine::new(exact_spec()).unwrap();
            e.process_batch(rows).unwrap();
            e
        };
        // (a ⊕ b) ⊕ c
        let mut left = build(&rows[0]);
        left.merge(&build(&rows[1])).unwrap();
        left.merge(&build(&rows[2])).unwrap();
        // a ⊕ (b ⊕ c)
        let mut bc = build(&rows[1]);
        bc.merge(&build(&rows[2])).unwrap();
        let mut right = build(&rows[0]);
        right.merge(&bc).unwrap();
        prop_assert_eq!(left.rows_processed(), right.rows_processed());
        prop_assert_eq!(left.num_groups(), right.num_groups());
        for key in left.groups() {
            prop_assert_eq!(left.report(key).unwrap(), right.report(key).unwrap());
        }
    }

    /// Sharded merge equals merging the collapsed engines: distributing
    /// over sharded nodes then merging loses nothing.
    #[test]
    fn sharded_merge_matches_collapsed_merge(
        raw_a in vec((0u64..10, any::<u16>(), 0u16..1000), 0..300),
        raw_b in vec((0u64..10, any::<u16>(), 0u16..1000), 0..300),
        shards in 1usize..9,
    ) {
        let (a_rows, b_rows) = (to_rows(&raw_a), to_rows(&raw_b));
        let mut a = ShardedEngine::new(exact_spec(), shards).unwrap();
        let mut b = ShardedEngine::new(exact_spec(), shards).unwrap();
        a.process_batch(&a_rows).unwrap();
        b.process_batch(&b_rows).unwrap();

        let mut flat_a = a.collapse().unwrap();
        let flat_b = b.collapse().unwrap();
        a.merge(&b).unwrap();
        flat_a.merge(&flat_b).unwrap();
        prop_assert_eq!(a.rows_processed(), flat_a.rows_processed());
        prop_assert_eq!(a.num_groups(), flat_a.num_groups());
        for key in flat_a.groups() {
            prop_assert_eq!(a.report(key).unwrap(), flat_a.report(key).unwrap());
        }
    }
}
