//! Insert and lookup throughput for the membership filters.

#![allow(
    clippy::unwrap_used,
    reason = "fail-fast harness: setup errors are bugs in the benchmark itself"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketches::core::{MembershipTester, Update};
use sketches::membership::{BlockedBloomFilter, BloomFilter, CuckooFilter};
use sketches_workloads::streams::distinct_ids;

fn bench_inserts(c: &mut Criterion) {
    let keys = distinct_ids(100_000, 1);
    let mut group = c.benchmark_group("membership_insert_100k");
    group.throughput(Throughput::Elements(keys.len() as u64));

    group.bench_function(BenchmarkId::new("bloom", "10bpk"), |b| {
        b.iter(|| {
            let mut f = BloomFilter::with_capacity(keys.len(), 0.01, 0).unwrap();
            for k in &keys {
                f.update(k);
            }
            std::hint::black_box(f.contains(&keys[0]))
        });
    });
    group.bench_function(BenchmarkId::new("blocked_bloom", "10bpk"), |b| {
        b.iter(|| {
            let mut f = BlockedBloomFilter::with_capacity(keys.len(), 10, 0).unwrap();
            for k in &keys {
                f.update(k);
            }
            std::hint::black_box(f.contains(&keys[0]))
        });
    });
    group.bench_function(BenchmarkId::new("cuckoo", "16bit"), |b| {
        b.iter(|| {
            let mut f = CuckooFilter::with_capacity(keys.len(), 0).unwrap();
            for k in &keys {
                f.insert(k).unwrap();
            }
            std::hint::black_box(f.contains(&keys[0]))
        });
    });
    group.finish();
}

fn bench_lookups(c: &mut Criterion) {
    let keys = distinct_ids(100_000, 1);
    let mut bloom = BloomFilter::with_capacity(keys.len(), 0.01, 0).unwrap();
    let mut blocked = BlockedBloomFilter::with_capacity(keys.len(), 10, 0).unwrap();
    for k in &keys {
        bloom.update(k);
        blocked.update(k);
    }
    let mut group = c.benchmark_group("membership_lookup");
    group.throughput(Throughput::Elements(1));
    group.bench_function("bloom_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            std::hint::black_box(bloom.contains(&keys[i]))
        });
    });
    group.bench_function("blocked_bloom_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            std::hint::black_box(blocked.contains(&keys[i]))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_inserts, bench_lookups);
criterion_main!(benches);
