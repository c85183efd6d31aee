//! Update and query throughput for the quantile summaries.

#![allow(
    clippy::unwrap_used,
    reason = "fail-fast harness: setup errors are bugs in the benchmark itself"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketches::core::{QuantileSketch, Update};
use sketches::quantiles::{GreenwaldKhanna, KllSketch, MrlSketch, TDigest};
use sketches_workloads::streams::uniform_values;

fn bench_updates(c: &mut Criterion) {
    let values = uniform_values(100_000, 1e6, 1);
    let mut group = c.benchmark_group("quantiles_update_100k");
    group.throughput(Throughput::Elements(values.len() as u64));

    group.bench_function(BenchmarkId::new("kll", "k200"), |b| {
        b.iter(|| {
            let mut s = KllSketch::new(200, 0).unwrap();
            for v in &values {
                s.update(v);
            }
            std::hint::black_box(s.quantile(0.5).unwrap())
        });
    });
    group.bench_function(BenchmarkId::new("tdigest", "d200"), |b| {
        b.iter(|| {
            let mut s = TDigest::new(200.0).unwrap();
            for v in &values {
                s.update(v);
            }
            std::hint::black_box(s.quantile(0.5).unwrap())
        });
    });
    group.bench_function(BenchmarkId::new("gk", "eps0.01"), |b| {
        b.iter(|| {
            let mut s = GreenwaldKhanna::new(0.01).unwrap();
            for v in &values {
                s.update(v);
            }
            std::hint::black_box(s.quantile(0.5).unwrap())
        });
    });
    group.bench_function(BenchmarkId::new("mrl", "b256"), |b| {
        b.iter(|| {
            let mut s = MrlSketch::new(256).unwrap();
            for v in &values {
                s.update(v);
            }
            std::hint::black_box(s.quantile(0.5).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
