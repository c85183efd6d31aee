//! Update and estimate throughput for the cardinality sketches.

#![allow(
    clippy::unwrap_used,
    reason = "fail-fast harness: setup errors are bugs in the benchmark itself"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketches::cardinality::{HyperLogLog, HyperLogLogPlusPlus, KmvSketch, LogLog};
use sketches::core::{CardinalityEstimator, Update};
use sketches_workloads::streams::distinct_ids;

fn bench_updates(c: &mut Criterion) {
    let ids = distinct_ids(100_000, 1);
    let mut group = c.benchmark_group("cardinality_update_100k");
    group.throughput(Throughput::Elements(ids.len() as u64));

    group.bench_function(BenchmarkId::new("hll", "p12"), |b| {
        b.iter(|| {
            let mut h = HyperLogLog::new(12, 0).unwrap();
            for id in &ids {
                h.update(id);
            }
            std::hint::black_box(h.estimate())
        });
    });
    group.bench_function(BenchmarkId::new("hllpp", "p12"), |b| {
        b.iter(|| {
            let mut h = HyperLogLogPlusPlus::new(12, 0).unwrap();
            for id in &ids {
                h.update(id);
            }
            std::hint::black_box(h.estimate())
        });
    });
    group.bench_function(BenchmarkId::new("loglog", "p12"), |b| {
        b.iter(|| {
            let mut h = LogLog::new(12, 0).unwrap();
            for id in &ids {
                h.update(id);
            }
            std::hint::black_box(h.estimate())
        });
    });
    group.bench_function(BenchmarkId::new("kmv", "k1024"), |b| {
        b.iter(|| {
            let mut h = KmvSketch::new(1024, 0).unwrap();
            for id in &ids {
                h.update(id);
            }
            std::hint::black_box(h.estimate())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
