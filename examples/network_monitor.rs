//! Network monitoring à la Gigascope/CMON (§3 of the survey's "massive
//! data streams" era): per-source GROUP BY aggregates over a synthetic
//! IP-flow stream, maintained as thousands of parallel sketches by the
//! `streamdb` engine, with the exact engine alongside for a memory
//! comparison.
//!
//! Run with: `cargo run --release --example network_monitor`

#![allow(
    clippy::expect_used,
    reason = "an example is a fail-fast walkthrough, not library code"
)]

use sketches::streamdb::{Aggregate, AggregateResult, ExactEngine, QuerySpec, SketchEngine, Value};
use sketches_workloads::flows::FlowWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // SELECT src_ip, COUNT(*), COUNT(DISTINCT dst_ip),
    //        QUANTILES(bytes), TOPK(dst_port, 3)
    // FROM flows GROUP BY src_ip
    let spec = QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 3 },
            Aggregate::TopK { field: 2, k: 3 },
        ],
    )?;

    let mut sketch_engine = SketchEngine::new(spec.clone())?;
    let mut exact_engine = ExactEngine::new(spec);

    let mut workload = FlowWorkload::new(50_000, 7);
    let flows = workload.stream(1_000_000);
    println!("processing {} flow records…", flows.len());

    for f in &flows {
        let row = vec![
            Value::U64(u64::from(f.src_ip)),
            Value::U64(u64::from(f.dst_ip)),
            Value::U64(u64::from(f.dst_port)),
            Value::F64(f.bytes as f64),
        ];
        sketch_engine.process(&row)?;
        exact_engine.process(&row)?;
    }

    println!(
        "\n{} groups tracked; sketch state {:.1} MiB vs exact state {:.1} MiB",
        sketch_engine.num_groups(),
        sketch_engine.state_bytes() as f64 / (1024.0 * 1024.0),
        exact_engine.state_bytes() as f64 / (1024.0 * 1024.0),
    );

    // Report the top talker (the Zipf head is src index 1 → 10.0.0.1).
    let talker = vec![Value::U64(u64::from(0x0A00_0000u32 | 1))];
    let approx = sketch_engine.report(&talker)?.expect("top talker present");
    let exact = exact_engine.report(&talker).expect("top talker present");

    println!("\n== Heaviest source 10.0.0.1 ==");
    for (what, a, e) in [
        ("flows", &approx[0], &exact[0]),
        ("distinct destinations", &approx[1], &exact[1]),
    ] {
        match (a, e) {
            (AggregateResult::Count(x), AggregateResult::Count(y)) => {
                println!("  {what:<22} sketch {x:>9}   exact {y:>9}");
            }
            (AggregateResult::CountDistinct(x), AggregateResult::CountDistinct(y)) => {
                println!("  {what:<22} sketch {x:>9.0}   exact {y:>9.0}");
            }
            _ => {}
        }
    }
    if let (
        AggregateResult::Quantiles { p50, p99, .. },
        AggregateResult::Quantiles {
            p50: ep50,
            p99: ep99,
            ..
        },
    ) = (&approx[2], &exact[2])
    {
        println!("  bytes p50              sketch {p50:>9.0}   exact {ep50:>9.0}");
        println!("  bytes p99              sketch {p99:>9.0}   exact {ep99:>9.0}");
    }
    if let (AggregateResult::TopK(a), AggregateResult::TopK(e)) = (&approx[3], &exact[3]) {
        println!(
            "  top destination ports  sketch {:?}",
            a.iter()
                .map(|(v, c)| (format!("{v:?}"), *c))
                .collect::<Vec<_>>()
        );
        println!(
            "                         exact  {:?}",
            e.iter()
                .map(|(v, c)| (format!("{v:?}"), *c))
                .collect::<Vec<_>>()
        );
    }

    // The survey's point: the same engine state can also be merged from
    // shards (distributed monitors) — demonstrate briefly.
    let mut shard_a = SketchEngine::new(sketch_engine_spec()?)?;
    let mut shard_b = SketchEngine::new(sketch_engine_spec()?)?;
    for (i, f) in flows.iter().take(100_000).enumerate() {
        let row = vec![
            Value::U64(u64::from(f.src_ip)),
            Value::U64(u64::from(f.dst_ip)),
            Value::U64(u64::from(f.dst_port)),
            Value::F64(f.bytes as f64),
        ];
        if i % 2 == 0 {
            shard_a.process(&row)?;
        } else {
            shard_b.process(&row)?;
        }
    }
    shard_a.merge(&shard_b)?;
    println!(
        "\nmerged 2 monitor shards: {} rows, {} groups — per-group sketches merged losslessly",
        shard_a.rows_processed(),
        shard_a.num_groups()
    );
    Ok(())
}

fn sketch_engine_spec() -> Result<QuerySpec, Box<dyn std::error::Error>> {
    Ok(QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 3 },
            Aggregate::TopK { field: 2, k: 3 },
        ],
    )?)
}
