//! Every metric the binary can emit, by name and unit. `BENCHMARK.json`
//! declares the same names (a test holds the two together); direction,
//! bound and the prediction each layer metric carries live in README.md.

/// End-to-end metrics: what a user of the stack sees. Every workload
/// reports every one of them with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_rows_per_s", "rows/s"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_p95_ms", "ms"),
    ("report_p50_ms", "ms"),
    ("report_p95_ms", "ms"),
    ("reports_per_s", "1/s"),
    ("state_bytes_per_group", "bytes"),
    ("distinct_rel_err_mean", "ratio"),
    ("quantile_rank_err_mean", "ratio"),
];

/// Per-layer metrics, named after the repo's modules. Every workload's
/// traced run (`--trace 1`) reports every one of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cardinality.hllpp.ns_per_update", "ns"),
    ("quantiles.kll.ns_per_update", "ns"),
    ("frequency.space_saving.ns_per_update", "ns"),
    ("frequency.sf.ns_per_update", "ns"),
    ("streamdb.engine.ns_per_row", "ns"),
    ("streamdb.engine.kernel_share", "ratio"),
    ("streamdb.engine.report_us", "us"),
    ("streamdb.engine.state_bytes", "bytes"),
    ("streamdb.engine.groups", "count"),
    ("streamdb.sharded.ns_per_row", "ns"),
    ("streamdb.concurrent.ns_per_row", "ns"),
    ("streamdb.concurrent.submit_us", "us"),
    ("streamdb.concurrent.snapshots_published", "count"),
    ("streamdb.concurrent.visible_lag_rows_max", "rows"),
    ("streamdb.concurrent.report_us", "us"),
    ("streamdb.view.cut_us", "us"),
    ("streamdb.view.encode_us", "us"),
    ("streamdb.view.bytes", "bytes"),
    ("streamdb.durable.ns_per_row", "ns"),
    ("streamdb.durable.wal_us_per_batch", "us"),
    ("streamdb.durable.wal_bytes_per_row", "bytes"),
    ("streamdb.durable.checkpoints", "count"),
    ("streamdb.durable.checkpoint_ms", "ms"),
    ("streamdb.durable.recover_ms", "ms"),
    ("streamdb.snapshot.bytes", "bytes"),
    ("streamdb.snapshot.encode_ms", "ms"),
    ("streamdb.snapshot.decode_ms", "ms"),
    ("serve.http.read_request_us", "us"),
    ("serve.http.write_response_us", "us"),
    ("serve.json.decode_ns_per_row", "ns"),
    ("serve.json.body_bytes_per_row", "bytes"),
    ("serve.state.ingest_ns_per_row", "ns"),
    ("serve.state.lock_wait_us", "us"),
    ("serve.state.retry_attempts", "count"),
    ("serve.server.ns_per_row", "ns"),
    ("serve.server.exchange_us", "us"),
    ("serve.server.overhead_us", "us"),
    ("serve.server.report_overhead_us", "us"),
    ("serve.server.report_batch8_us", "us"),
    ("serve.server.view_fetch_ms", "ms"),
    ("serve.server.drain_ms", "ms"),
    ("serve.server.shed_total", "count"),
    ("serve.server.openloop_p95_ms.r20", "ms"),
    ("serve.server.openloop_p95_ms.r40", "ms"),
    ("serve.server.openloop_p95_ms.r80", "ms"),
    ("serve.server.openloop_late_ms.r20", "ms"),
    ("serve.server.openloop_late_ms.r40", "ms"),
    ("serve.server.openloop_late_ms.r80", "ms"),
    ("serve.server.openloop_max_ok_rps", "1/s"),
    ("ratio.sharded_over_engine", "ratio"),
    ("ratio.concurrent_over_sharded", "ratio"),
    ("ratio.durable_over_concurrent", "ratio"),
    ("ratio.http_over_concurrent", "ratio"),
    ("ratio.http_over_engine", "ratio"),
    ("client.reconnects", "count"),
    ("bench.replay_span_coverage", "ratio"),
    ("bench.generator_late_ms_max", "ms"),
    ("bench.span_overhead_share", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("{name} is not a declared metric"), |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches_serve::Json;
    use std::collections::BTreeSet;

    fn declared(doc: &Json, section: &str) -> BTreeSet<(String, String)> {
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(table: &[(&str, &str)]) -> BTreeSet<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_names_equal_the_names_benchmark_json_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), emitted(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let shapes: Vec<&str> = crate::inputs::SHAPES.iter().map(|s| s.name).collect();
        assert_eq!(workloads, shapes);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
        for name in all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
