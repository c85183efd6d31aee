//! Update and point-query throughput for the frequency sketches.

#![allow(
    clippy::unwrap_used,
    reason = "fail-fast harness: setup errors are bugs in the benchmark itself"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketches::core::{FrequencyEstimator, QueryView, Update};
use sketches::frequency::{CountMinSketch, CountSketch, MisraGries, SfSketch, SpaceSaving};
use sketches_workloads::zipf::ZipfGenerator;

fn bench_updates(c: &mut Criterion) {
    let stream = ZipfGenerator::new(100_000, 1.1, 1).unwrap().stream(100_000);
    let mut group = c.benchmark_group("frequency_update_100k_zipf1.1");
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_function(BenchmarkId::new("count_min", "512x5"), |b| {
        b.iter(|| {
            let mut s = CountMinSketch::new(512, 5, 0).unwrap();
            for x in &stream {
                s.update(x);
            }
            std::hint::black_box(FrequencyEstimator::estimate(&s, &1u64))
        });
    });
    group.bench_function(BenchmarkId::new("count_sketch", "512x5"), |b| {
        b.iter(|| {
            let mut s = CountSketch::new(512, 5, 0).unwrap();
            for x in &stream {
                s.update(x);
            }
            std::hint::black_box(s.estimate(&1u64))
        });
    });
    group.bench_function(BenchmarkId::new("misra_gries", "k512"), |b| {
        b.iter(|| {
            let mut s = MisraGries::new(512).unwrap();
            for x in &stream {
                s.update(x);
            }
            std::hint::black_box(s.estimate(&1u64))
        });
    });
    group.bench_function(BenchmarkId::new("space_saving", "k512"), |b| {
        b.iter(|| {
            let mut s = SpaceSaving::new(512).unwrap();
            for x in &stream {
                s.update(x);
            }
            std::hint::black_box(s.estimate(&1u64))
        });
    });
    group.finish();
}

fn bench_point_queries(c: &mut Criterion) {
    let stream = ZipfGenerator::new(100_000, 1.1, 1).unwrap().stream(200_000);
    let mut cm = CountMinSketch::new(2048, 5, 0).unwrap();
    for x in &stream {
        cm.update(x);
    }
    let mut group = c.benchmark_group("frequency_query");
    group.throughput(Throughput::Elements(1));
    group.bench_function("count_min_point", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            std::hint::black_box(FrequencyEstimator::estimate(&cm, &i))
        });
    });
    group.finish();
}

/// The SF-sketch's two stages: fat-side update throughput (both grids
/// maintained per insert) and slim-side point-query throughput (what a
/// remote reader holding only the shipped view pays).
fn bench_sf_sketch(c: &mut Criterion) {
    let stream = ZipfGenerator::new(100_000, 1.1, 1).unwrap().stream(100_000);
    let mut group = c.benchmark_group("sf_sketch_100k_zipf1.1");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function(BenchmarkId::new("fat_update", "2048/128x4"), |b| {
        b.iter(|| {
            let mut s = SfSketch::new(2048, 128, 4, 0).unwrap();
            for x in &stream {
                s.update(x);
            }
            std::hint::black_box(s.total())
        });
    });
    group.finish();

    let mut sf = SfSketch::new(2048, 128, 4, 0).unwrap();
    for x in &stream {
        sf.update(x);
    }
    let view = sf.query_view();
    let mut group = c.benchmark_group("sf_sketch_query");
    group.throughput(Throughput::Elements(1));
    group.bench_function("slim_view_point", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            std::hint::black_box(FrequencyEstimator::estimate(&view, &i))
        });
    });
    group.bench_function("fat_side_point", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            std::hint::black_box(FrequencyEstimator::estimate(&sf, &i))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_updates, bench_point_queries, bench_sf_sketch);
criterion_main!(benches);
