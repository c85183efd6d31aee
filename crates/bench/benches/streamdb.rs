//! GROUP BY ingest throughput: sequential engine (row-at-a-time vs batch)
//! and the sharded engine across shard counts.

#![allow(
    clippy::unwrap_used,
    reason = "fail-fast harness: setup errors are bugs in the benchmark itself"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sketches::streamdb::{Aggregate, QuerySpec, Row, ShardedEngine, SketchEngine, Value};
use sketches_workloads::streams::distinct_ids;
use sketches_workloads::zipf::ZipfGenerator;

fn spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .unwrap()
}

fn zipf_rows(n: usize) -> Vec<Row> {
    let mut zipf = ZipfGenerator::new(10_000, 1.1, 7).unwrap();
    distinct_ids(n, 3)
        .into_iter()
        .map(|u| {
            vec![
                Value::U64(zipf.sample()),
                Value::U64(u % 50_000),
                Value::F64((u % 10_000) as f64),
            ]
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let rows = zipf_rows(100_000);
    let mut group = c.benchmark_group("streamdb_ingest_100k");
    group.throughput(Throughput::Elements(rows.len() as u64));

    group.bench_function(BenchmarkId::new("sequential", "process"), |b| {
        b.iter(|| {
            let mut eng = SketchEngine::new(spec()).unwrap();
            for row in &rows {
                eng.process(row).unwrap();
            }
            std::hint::black_box(eng.num_groups())
        });
    });
    group.bench_function(BenchmarkId::new("sequential", "process_batch"), |b| {
        b.iter(|| {
            let mut eng = SketchEngine::new(spec()).unwrap();
            eng.process_batch(&rows).unwrap();
            std::hint::black_box(eng.num_groups())
        });
    });
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("sharded", shards.to_string()), |b| {
            b.iter(|| {
                let mut eng = ShardedEngine::new(spec(), shards).unwrap();
                eng.process_batch(&rows).unwrap();
                std::hint::black_box(eng.num_groups())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
