//! Merge throughput — the operation the distributed ("mergeable
//! summaries") deployments live on.

#![allow(
    clippy::unwrap_used,
    reason = "fail-fast harness: setup errors are bugs in the benchmark itself"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketches::core::{MergeSketch, Update};
use sketches::frequency::CountMinSketch;
use sketches::prelude::{HyperLogLog, KllSketch};
use sketches_workloads::streams::{distinct_ids, uniform_values};

fn bench_merges(c: &mut Criterion) {
    // Pre-build 64 shard sketches of each kind.
    let hlls: Vec<HyperLogLog> = (0..64)
        .map(|s| {
            let mut h = HyperLogLog::new(12, 1).unwrap();
            for id in distinct_ids(10_000, s) {
                h.update(&id);
            }
            h
        })
        .collect();
    let klls: Vec<KllSketch> = (0..64)
        .map(|s| {
            let mut k = KllSketch::new(200, s).unwrap();
            for v in uniform_values(10_000, 1e6, s) {
                k.update(&v);
            }
            k
        })
        .collect();
    let cms: Vec<CountMinSketch> = (0..64)
        .map(|s| {
            let mut m = CountMinSketch::new(1024, 5, 1).unwrap();
            for id in distinct_ids(10_000, s) {
                m.update(&(id % 1000));
            }
            m
        })
        .collect();

    let mut group = c.benchmark_group("merge_64_shards");
    group.throughput(Throughput::Elements(64));
    group.bench_function(BenchmarkId::new("hll", "p12"), |b| {
        b.iter(|| {
            let mut acc = hlls[0].clone();
            for h in &hlls[1..] {
                acc.merge(h).unwrap();
            }
            std::hint::black_box(acc)
        });
    });
    group.bench_function(BenchmarkId::new("kll", "k200"), |b| {
        b.iter(|| {
            let mut acc = klls[0].clone();
            for k in &klls[1..] {
                acc.merge(k).unwrap();
            }
            std::hint::black_box(acc)
        });
    });
    group.bench_function(BenchmarkId::new("count_min", "1024x5"), |b| {
        b.iter(|| {
            let mut acc = cms[0].clone();
            for m in &cms[1..] {
                acc.merge(m).unwrap();
            }
            std::hint::black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_merges);
criterion_main!(benches);
