//! Determinism regression tests for every report path audited in the
//! static-analysis sweep.
//!
//! The bug class: a report path iterating a `RandomState`-hashed map leaks
//! ambient hash order into its output, so two replicas fed the same stream
//! diverge. Every `HashMap`/`HashSet` in Rust's std gets a *different*
//! random seed per instance, so building a sketch twice in one process and
//! feeding both builds an identical, tie-heavy stream is exactly the
//! "two differently-seeded RandomState builds" scenario; each test repeats
//! the comparison across many rebuilds so a hash-order-dependent tie break
//! cannot pass by luck.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast; a panic here is the test failing"
)]

use sketches::core::{ByteWriter, MergeSketch, QueryView, Update};
use sketches::frequency::{HeavyHittersTracker, MisraGries, SfSketch};
use sketches::graph::AgmGraphSketch;
use sketches::lsh::EuclideanLshIndex;
use sketches::streamdb::{Aggregate, AggregateResult, ExactEngine, QuerySpec, SketchEngine, Value};

const REBUILDS: usize = 20;

/// A stream where many items share exact counts, so any tie broken by hash
/// order (instead of a total order) shows up as run-to-run divergence.
fn tie_heavy_stream() -> Vec<u64> {
    let mut v = Vec::new();
    for item in 0..64u64 {
        for _ in 0..(10 + (item % 4)) {
            v.push(item);
        }
    }
    v
}

#[test]
fn misra_gries_reports_are_rebuild_invariant() {
    let stream = tie_heavy_stream();
    let build_report = || {
        let mut mg = MisraGries::new(8).expect("k >= 2");
        for x in &stream {
            mg.update(x);
        }
        let entries: Vec<(u64, u64)> = mg.entries().map(|(t, c)| (*t, c)).collect();
        let hitters = mg.heavy_hitters(0.01);
        (entries, hitters)
    };
    let reference = build_report();
    for rebuild in 0..REBUILDS {
        assert_eq!(build_report(), reference, "diverged on rebuild {rebuild}");
    }
}

#[test]
fn sf_sketch_build_and_view_are_rebuild_invariant() {
    // L1 discipline: the SF-sketch takes an explicit seed and owns no
    // RandomState-hashed container, so two builds in one process (each a
    // fresh ambient-hash environment) must agree to the byte — sketch,
    // slim view, and the view's serialized form alike.
    let stream = tie_heavy_stream();
    let build = || {
        let mut sf = SfSketch::new(512, 64, 4, 17).expect("valid params");
        for x in &stream {
            sf.update(x);
        }
        let view = sf.query_view();
        let mut w = ByteWriter::new();
        view.write_state(&mut w);
        (sf, view, w.into_bytes())
    };
    let reference = build();
    for rebuild in 0..REBUILDS {
        assert_eq!(build(), reference, "diverged on rebuild {rebuild}");
    }
}

#[test]
fn misra_gries_merge_is_rebuild_invariant() {
    let stream = tie_heavy_stream();
    let half = stream.len() / 2;
    let build_merged = || {
        let mut left = MisraGries::new(8).expect("k >= 2");
        let mut right = MisraGries::new(8).expect("k >= 2");
        for x in &stream[..half] {
            left.update(x);
        }
        for x in &stream[half..] {
            right.update(x);
        }
        left.merge(&right).expect("same k");
        left.entries().map(|(t, c)| (*t, c)).collect::<Vec<_>>()
    };
    let reference = build_merged();
    for rebuild in 0..REBUILDS {
        assert_eq!(build_merged(), reference, "diverged on rebuild {rebuild}");
    }
}

#[test]
fn heavy_hitters_tracker_report_is_rebuild_invariant() {
    // Small capacity + many equal-estimate items forces the eviction and
    // report tie-breaks to run constantly.
    let stream = tie_heavy_stream();
    let build_report = || {
        let mut hh = HeavyHittersTracker::new(0.005, 12, 1024, 4, 42).expect("valid params");
        for x in &stream {
            hh.update(x);
        }
        hh.heavy_hitters()
    };
    let reference = build_report();
    for rebuild in 0..REBUILDS {
        assert_eq!(build_report(), reference, "diverged on rebuild {rebuild}");
    }
}

#[test]
fn heavy_hitters_tracker_merge_is_rebuild_invariant() {
    let stream = tie_heavy_stream();
    let half = stream.len() / 2;
    let build_merged = || {
        let mut a = HeavyHittersTracker::new(0.005, 12, 1024, 4, 42).expect("valid params");
        let mut b = HeavyHittersTracker::new(0.005, 12, 1024, 4, 42).expect("valid params");
        for x in &stream[..half] {
            a.update(x);
        }
        for x in &stream[half..] {
            b.update(x);
        }
        a.merge(&b).expect("compatible");
        a.heavy_hitters()
    };
    let reference = build_merged();
    for rebuild in 0..REBUILDS {
        assert_eq!(build_merged(), reference, "diverged on rebuild {rebuild}");
    }
}

fn engine_spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![Aggregate::Count, Aggregate::TopK { field: 1, k: 3 }],
    )
    .expect("valid spec")
}

fn engine_rows() -> Vec<Vec<Value>> {
    // 32 groups; within each group, ten distinct values with one occurrence
    // each, so every TopK truncation is a pure tie.
    let mut rows = Vec::new();
    for g in 0..32u64 {
        for v in 0..10u64 {
            rows.push(vec![Value::from(g), Value::from(v)]);
        }
    }
    rows
}

#[test]
fn sketch_engine_flush_window_is_rebuild_invariant() {
    let rows = engine_rows();
    let build_window = || {
        let mut eng = SketchEngine::new(engine_spec()).expect("valid engine");
        for row in &rows {
            eng.process(row).expect("valid row");
        }
        eng.flush_window().expect("flush")
    };
    let reference = build_window();
    // Keys come back fully sorted, so the layout itself is canonical.
    let keys: Vec<&Vec<Value>> = reference.iter().map(|(k, _)| k).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "flush_window keys must be in ascending order");
    for rebuild in 0..REBUILDS {
        assert_eq!(build_window(), reference, "diverged on rebuild {rebuild}");
    }
}

#[test]
fn sketch_engine_group_listing_is_sorted_and_stable() {
    let rows = engine_rows();
    let build_groups = || {
        let mut eng = SketchEngine::new(engine_spec()).expect("valid engine");
        for row in &rows {
            eng.process(row).expect("valid row");
        }
        eng.groups().cloned().collect::<Vec<_>>()
    };
    let reference = build_groups();
    let mut sorted = reference.clone();
    sorted.sort();
    assert_eq!(reference, sorted, "groups() must list keys in order");
    for rebuild in 0..REBUILDS {
        assert_eq!(build_groups(), reference, "diverged on rebuild {rebuild}");
    }
}

#[test]
fn exact_engine_topk_ties_are_rebuild_invariant() {
    let rows = engine_rows();
    let build_report = || {
        let mut eng = ExactEngine::new(engine_spec());
        for row in &rows {
            eng.process(row).expect("valid row");
        }
        eng.report(&[Value::from(7u64)]).expect("group exists")
    };
    let reference = build_report();
    // All ten values tie at count 1; the canonical tie-break keeps the three
    // smallest values.
    match &reference[1] {
        AggregateResult::TopK(top) => {
            let vals: Vec<&Value> = top.iter().map(|(v, _)| v).collect();
            assert_eq!(
                vals,
                vec![&Value::from(0u64), &Value::from(1u64), &Value::from(2u64)],
                "tied TopK must break toward the smallest values"
            );
        }
        other => panic!("unexpected aggregate {other:?}"),
    }
    for rebuild in 0..REBUILDS {
        assert_eq!(build_report(), reference, "diverged on rebuild {rebuild}");
    }
}

#[test]
fn lsh_nearest_breaks_distance_ties_by_id() {
    // Two points exactly 1.0 away from the query in opposite directions;
    // a huge bucket width puts everything in one bucket, so both are always
    // candidates and the distance tie must break toward the smaller id.
    for rebuild in 0..REBUILDS {
        let mut idx = EuclideanLshIndex::new(1, 2, 1, 1.0e6, 9).expect("valid params");
        idx.insert(&[1.0]).expect("dim ok");
        idx.insert(&[-1.0]).expect("dim ok");
        let (id, dist) = idx.nearest(&[0.0]).expect("dim ok").expect("candidates");
        assert_eq!(
            id, 0,
            "tie must break to the smaller id (rebuild {rebuild})"
        );
        assert!((dist - 1.0).abs() < 1e-12);
    }
}

#[test]
fn lsh_candidate_sets_iterate_in_id_order() {
    let mut idx = EuclideanLshIndex::new(2, 4, 2, 1.0e6, 3).expect("valid params");
    for i in 0..50u64 {
        let x = (i % 7) as f64;
        idx.insert(&[x, x + 1.0]).expect("dim ok");
    }
    let cands = idx.candidates(&[3.0, 4.0]).expect("dim ok");
    let listed: Vec<u64> = cands.iter().copied().collect();
    let mut sorted = listed.clone();
    sorted.sort_unstable();
    assert_eq!(
        listed, sorted,
        "candidates must iterate in ascending id order"
    );
}

#[test]
fn agm_spanning_forest_is_rebuild_invariant() {
    let build_forest = || {
        let mut g = AgmGraphSketch::new(32, 8, 16, 77).expect("valid params");
        // A deterministic graph with plenty of parallel structure: two
        // overlapping cycles plus chords.
        for i in 0..32 {
            g.insert_edge(i, (i + 1) % 32).expect("in range");
        }
        for i in 0..16 {
            g.insert_edge(i, i + 16).expect("in range");
        }
        g.spanning_forest().0
    };
    let reference = build_forest();
    for rebuild in 0..REBUILDS {
        assert_eq!(build_forest(), reference, "diverged on rebuild {rebuild}");
    }
}
