//! Failure injection: every family must refuse incompatible merges with a
//! typed error (never panic, never silently corrupt), reject invalid
//! parameters, and answer empty-state queries sanely. One consolidated
//! sweep so a regression in any crate's error discipline fails loudly.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns fail fast; a panic here is the test failing"
)]

use sketches::core::{CardinalityEstimator, MergeSketch, QuantileSketch, SketchError, Update};
use sketches::prelude::*;

/// Asserts the result is an `Incompatible` error (not Ok, not a panic).
fn expect_incompatible<T>(r: Result<T, SketchError>, what: &str) {
    match r {
        Err(SketchError::Incompatible { .. }) => {}
        Err(other) => panic!("{what}: wrong error kind: {other}"),
        Ok(_) => panic!("{what}: incompatible merge was accepted"),
    }
}

#[test]
fn incompatible_merges_are_typed_errors_everywhere() {
    // Different shapes.
    let mut hll = HyperLogLog::new(10, 0).unwrap();
    expect_incompatible(
        hll.merge(&HyperLogLog::new(11, 0).unwrap()),
        "hll precision",
    );
    // Different seeds (same shape).
    expect_incompatible(hll.merge(&HyperLogLog::new(10, 1).unwrap()), "hll seed");

    let mut cm = CountMinSketch::new(64, 4, 0).unwrap();
    expect_incompatible(
        cm.merge(&CountMinSketch::new(64, 5, 0).unwrap()),
        "cm depth",
    );
    expect_incompatible(cm.merge(&CountMinSketch::new(64, 4, 9).unwrap()), "cm seed");

    let mut kll = KllSketch::new(100, 0).unwrap();
    expect_incompatible(kll.merge(&KllSketch::new(200, 0).unwrap()), "kll k");

    let mut bloom = BloomFilter::new(128, 3, 0).unwrap();
    expect_incompatible(
        bloom.merge(&BloomFilter::new(128, 4, 0).unwrap()),
        "bloom k",
    );

    let mut td = TDigest::new(100.0).unwrap();
    expect_incompatible(td.merge(&TDigest::new(200.0).unwrap()), "tdigest delta");

    let mut kmv = KmvSketch::new(16, 0).unwrap();
    expect_incompatible(kmv.merge(&KmvSketch::new(16, 1).unwrap()), "kmv seed");

    let mut qd = QDigest::new(8, 16).unwrap();
    expect_incompatible(qd.merge(&QDigest::new(9, 16).unwrap()), "qdigest domain");

    let mut mg: MisraGries<u32> = MisraGries::new(8).unwrap();
    expect_incompatible(mg.merge(&MisraGries::new(9).unwrap()), "mg k");
}

#[test]
fn failed_merges_leave_the_receiver_usable() {
    // A rejected merge must not corrupt the receiving sketch.
    let mut hll = HyperLogLog::new(10, 0).unwrap();
    for i in 0..10_000u64 {
        hll.update(&i);
    }
    let before = hll.estimate();
    let _ = hll.merge(&HyperLogLog::new(11, 0).unwrap());
    assert_eq!(hll.estimate(), before, "failed merge changed the sketch");

    let mut kll = KllSketch::new(100, 0).unwrap();
    for i in 0..5_000 {
        kll.update(&f64::from(i));
    }
    let before = kll.quantile(0.5).unwrap();
    let _ = kll.merge(&KllSketch::new(200, 0).unwrap());
    assert_eq!(kll.quantile(0.5).unwrap(), before);
}

#[test]
fn invalid_parameters_are_rejected_not_clamped() {
    assert!(HyperLogLog::new(0, 0).is_err());
    assert!(HyperLogLog::new(99, 0).is_err());
    assert!(CountMinSketch::new(0, 4, 0).is_err());
    assert!(CountMinSketch::from_error_bounds(-0.1, 0.5, 0).is_err());
    assert!(CountMinSketch::from_error_bounds(0.1, f64::NAN, 0).is_err());
    assert!(KllSketch::new(0, 0).is_err());
    assert!(TDigest::new(-5.0).is_err());
    assert!(GreenwaldKhanna::new(0.7).is_err());
    assert!(BloomFilter::with_capacity(100, 2.0, 0).is_err());
    assert!(CuckooFilter::with_capacity(0, 0).is_err());
    assert!(QDigest::new(40, 8).is_err());
    assert!(SpaceSaving::<u32>::new(0).is_err());
}

#[test]
fn empty_sketches_answer_sanely() {
    assert_eq!(HyperLogLog::new(8, 0).unwrap().estimate(), 0.0);
    assert_eq!(KmvSketch::new(16, 0).unwrap().estimate(), 0.0);
    assert!(matches!(
        KllSketch::new(64, 0).unwrap().quantile(0.5),
        Err(SketchError::EmptySketch)
    ));
    assert!(matches!(
        TDigest::new(100.0).unwrap().quantile(0.5),
        Err(SketchError::EmptySketch)
    ));
    let ss: SpaceSaving<u32> = SpaceSaving::new(4).unwrap();
    assert_eq!(ss.top_k(3), vec![]);
    assert!(ss.heavy_hitters(0.1).is_empty());
    let mg: MisraGries<u32> = MisraGries::new(4).unwrap();
    assert_eq!(mg.estimate(&7), 0);
    use sketches::core::MembershipTester;
    assert!(!BloomFilter::new(128, 3, 0).unwrap().contains(&1u8));
}

#[test]
fn quantile_queries_validate_q() {
    let mut kll = KllSketch::new(64, 0).unwrap();
    kll.update(&1.0);
    for bad in [-0.1, 1.1, f64::NAN] {
        assert!(kll.quantile(bad).is_err(), "q = {bad} should be rejected");
    }
    let mut td = TDigest::new(100.0).unwrap();
    td.update(&1.0);
    assert!(td.quantile(2.0).is_err());
}

#[test]
fn error_messages_name_the_problem() {
    // Errors carry enough context to debug a config mistake from a log line.
    let err = HyperLogLog::new(25, 0).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("precision"), "unhelpful message: {msg}");

    let mut a = CountMinSketch::new(64, 4, 0).unwrap();
    let err = a
        .merge(&CountMinSketch::new(128, 4, 0).unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("dimensions"), "{err}");
}
