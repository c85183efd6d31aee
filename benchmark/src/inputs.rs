//! Seed → inputs. Everything a workload feeds the program — rows,
//! rendered requests, the reader's key schedule — and the exact
//! per-group reference its answers are checked against, as a pure
//! function of `(workload, seed, scale)`.

use std::collections::{HashMap, HashSet};

use sketches_serve::json::value_to_json;
use sketches_serve::Json;
use sketches_streamdb::{Aggregate, QuerySpec, Row, Value};
use sketches_workloads::{FlowWorkload, ServingWorkload};

use crate::client::request_bytes;

/// How a workload's trial drives the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Library calls on a `SketchEngine`; no threads, no sockets.
    Embedded,
    /// Closed-loop HTTP clients against a volatile or durable server.
    ClosedLoop { durable: bool },
    /// One open-loop HTTP writer at `writer_rps` beside one closed-loop
    /// reader, on a preloaded volatile server.
    Mixed { writer_rps: f64 },
}

/// The fixed shape of one workload. List lengths are what a later change
/// must never cut; `--smoke` divides them by ten.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub name: &'static str,
    pub drive: Drive,
    /// Distinct group keys the generator draws from.
    groups: u64,
    /// Tells the workloads' streams apart (see [`Inputs::build`]).
    seed_offset: u64,
    /// Rows put into fresh state before a trial is timed.
    preload_rows: usize,
    batches: usize,
    pub batch_rows: usize,
    /// Heaviest groups audited against exact state after every trial.
    audit_groups: usize,
    /// Leading requests the traced run replays down the layer ladder.
    pub ladder_prefix: usize,
}

/// Preload goes in by large batches whatever the workload's own size.
const PRELOAD_BATCH_ROWS: usize = 4096;

/// Rows between checkpoints on the durable workload: a few per trial.
pub const DURABLE_CHECKPOINT_ROWS: u64 = 8_192;

pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "embed_groupby",
        drive: Drive::Embedded,
        groups: 20_000,
        seed_offset: 0,
        preload_rows: 0,
        batches: 200,
        batch_rows: 4096,
        audit_groups: 512,
        ladder_prefix: 32,
    },
    Shape {
        name: "serve_bulk",
        drive: Drive::ClosedLoop { durable: false },
        groups: 10_000,
        seed_offset: 1,
        preload_rows: 0,
        batches: 200,
        batch_rows: 4096,
        audit_groups: 256,
        ladder_prefix: 32,
    },
    Shape {
        name: "serve_durable_small",
        drive: Drive::ClosedLoop { durable: true },
        groups: 1_000,
        seed_offset: 2,
        preload_rows: 0,
        batches: 640,
        batch_rows: 64,
        audit_groups: 256,
        ladder_prefix: 512,
    },
    Shape {
        name: "serve_mixed",
        drive: Drive::Mixed { writer_rps: 80.0 },
        groups: 10_000,
        seed_offset: 3,
        preload_rows: 24 * PRELOAD_BATCH_ROWS,
        batches: 240,
        batch_rows: 256,
        audit_groups: 256,
        ladder_prefix: 120,
    },
];

pub fn shape(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

/// Exact state of one audited group over preload + batches.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditGroup {
    pub key: u64,
    pub count: u64,
    /// `SUM(measure)` in arrival order.
    pub sum: f64,
    pub distinct: u64,
    /// Every measure, ascending.
    pub values: Vec<f64>,
}

impl AuditGroup {
    /// How far the exact rank of `estimate` lies from `q`. Equal values
    /// give the estimate a rank interval; inside it the error is zero.
    pub fn rank_error(&self, estimate: f64, q: f64) -> f64 {
        let n = self.values.len() as f64;
        let below = self.values.partition_point(|v| *v < estimate) as f64 / n;
        let up_to = self.values.partition_point(|v| *v <= estimate) as f64 / n;
        if q < below {
            below - q
        } else if q > up_to {
            q - up_to
        } else {
            0.0
        }
    }
}

#[derive(Debug, PartialEq)]
pub struct Inputs {
    pub shape: &'static Shape,
    pub spec: QuerySpec,
    /// Applied to fresh state before a trial is timed.
    pub preload: Vec<Vec<Row>>,
    /// The request list, in send order.
    pub batches: Vec<Vec<Row>>,
    /// One whole `POST /v1/ingest` per batch (none for the library path).
    pub wires: Vec<Vec<u8>>,
    /// Heaviest groups, by exact count then key.
    pub audit: Vec<AuditGroup>,
    /// The reader's key schedule (`Drive::Mixed` only), cycled.
    pub query_keys: Vec<u64>,
}

/// The serve workloads' query, as in experiments E24–E28.
fn serve_spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
        ],
    )
    .expect("static spec")
}

/// The Gigascope-style query: three kernel families hot per row.
fn embed_spec() -> QuerySpec {
    QuerySpec::new(
        vec![0],
        vec![
            Aggregate::Count,
            Aggregate::Sum { field: 2 },
            Aggregate::CountDistinct { field: 1 },
            Aggregate::Quantiles { field: 2 },
            Aggregate::TopK { field: 1, k: 10 },
        ],
    )
    .expect("static spec")
}

/// `[U64 key, U64 id, F64 measure]`, the row shape of every workload.
/// Callers add a half to integral measures: it keeps them decimals on
/// the wire, so the server decodes an F64 as the row shape says.
fn row(key: u64, id: u64, measure: f64) -> Row {
    vec![Value::U64(key), Value::U64(id), Value::F64(measure)]
}

pub fn row_parts(row: &Row) -> (u64, u64, f64) {
    match row.as_slice() {
        [Value::U64(key), Value::U64(id), Value::F64(measure)] => (*key, *id, *measure),
        other => panic!("benchmark rows are [U64, U64, F64], got {other:?}"),
    }
}

/// The body of `POST /v1/ingest` for one batch.
pub fn ingest_body(batch: &[Row]) -> Vec<u8> {
    let rows = batch
        .iter()
        .map(|r| Json::Arr(r.iter().map(value_to_json).collect()))
        .collect();
    Json::Obj(vec![("rows".to_string(), Json::Arr(rows))])
        .render()
        .into_bytes()
}

pub fn ingest_wire(batch: &[Row]) -> Vec<u8> {
    request_bytes("POST", "/v1/ingest", &ingest_body(batch))
}

/// `GET /v1/report` for one key, or the batched `keys=` form for several.
pub fn report_wire(keys: &[u64]) -> Vec<u8> {
    let list: Vec<String> = keys.iter().map(|k| format!("%5B{k}%5D")).collect();
    let param = if keys.len() == 1 { "key" } else { "keys" };
    let target = format!("/v1/report?{param}={}", list.join(","));
    request_bytes("GET", &target, b"")
}

impl Inputs {
    /// Generates trial number `trial` of the workload `shape` from
    /// `seed`; `scale` divides every list length (1 for measurement, 10
    /// for `--smoke`). Every trial draws its own stream, so the accuracy
    /// a run reports is a median over independent draws, not one draw.
    pub fn build(shape: &'static Shape, seed: u64, trial: u64, scale: usize) -> Self {
        // Injective for trial < 1_000_003 and offsets < 4: no two
        // (seed, trial, workload) triples share a stream.
        let seed = seed
            .wrapping_mul(1_000_003)
            .wrapping_add(trial)
            .wrapping_mul(4)
            .wrapping_add(shape.seed_offset);
        let cut = |n: usize| n.div_ceil(scale);
        let preload_rows = cut(shape.preload_rows);
        let total_rows = preload_rows + cut(shape.batches) * shape.batch_rows;

        let (spec, mut rows, query_keys) = match shape.drive {
            Drive::Embedded => {
                let mut flows = FlowWorkload::new(shape.groups, seed);
                let rows: Vec<Row> = (0..total_rows)
                    .map(|_| {
                        let f = flows.next_flow();
                        row(
                            u64::from(f.src_ip),
                            u64::from(f.dst_ip),
                            f.bytes as f64 + 0.5,
                        )
                    })
                    .collect();
                (embed_spec(), rows, Vec::new())
            }
            Drive::ClosedLoop { .. } | Drive::Mixed { .. } => {
                let mut serving =
                    ServingWorkload::new(shape.groups, 1.1, seed).expect("static parameters");
                let rows: Vec<Row> = (0..total_rows)
                    .map(|_| {
                        let e = serving.next_event();
                        row(e.group, e.user, e.value + 0.5)
                    })
                    .collect();
                let keys = match shape.drive {
                    Drive::Mixed { .. } => serving.query_keys(cut(4096)),
                    _ => Vec::new(),
                };
                (serve_spec(), rows, keys)
            }
        };

        let audit = exact_audit(&rows, cut(shape.audit_groups));
        let batches: Vec<Vec<Row>> = rows
            .split_off(preload_rows)
            .chunks(shape.batch_rows)
            .map(<[Row]>::to_vec)
            .collect();
        let preload = rows
            .chunks(PRELOAD_BATCH_ROWS)
            .map(<[Row]>::to_vec)
            .collect();
        let wires = match shape.drive {
            Drive::Embedded => Vec::new(),
            _ => batches.iter().map(|b| ingest_wire(b)).collect(),
        };
        Self {
            shape,
            spec,
            preload,
            batches,
            wires,
            audit,
            query_keys,
        }
    }

    pub fn preload_rows(&self) -> u64 {
        self.preload.iter().map(Vec::len).sum::<usize>() as u64
    }
}

/// Exact per-group state of `rows`, kept for the `top` heaviest groups.
fn exact_audit(rows: &[Row], top: usize) -> Vec<AuditGroup> {
    #[derive(Default)]
    struct Exact {
        sum: f64,
        ids: HashSet<u64>,
        values: Vec<f64>,
    }
    let mut groups: HashMap<u64, Exact> = HashMap::new();
    for r in rows {
        let (key, id, measure) = row_parts(r);
        let g = groups.entry(key).or_default();
        g.sum += measure;
        g.ids.insert(id);
        g.values.push(measure);
    }
    // Sorted before the cut, so HashMap iteration order never shows.
    let mut heaviest: Vec<(u64, Exact)> = groups.into_iter().collect();
    heaviest.sort_by_key(|(key, g)| (std::cmp::Reverse(g.values.len()), *key));
    heaviest.truncate(top);
    heaviest
        .into_iter()
        .map(|(key, mut g)| {
            g.values.sort_by(f64::total_cmp);
            AuditGroup {
                key,
                count: g.values.len() as u64,
                sum: g.sum,
                distinct: g.ids.len() as u64,
                values: g.values,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_request_lists() {
        for shape in &SHAPES {
            let a = Inputs::build(shape, 7, 2, 10);
            let b = Inputs::build(shape, 7, 2, 10);
            assert_eq!(a, b, "{}", shape.name);
            for other in [
                Inputs::build(shape, 8, 2, 10),
                Inputs::build(shape, 7, 3, 10),
            ] {
                assert_ne!(a.batches, other.batches, "{}", shape.name);
            }
        }
    }

    #[test]
    fn audit_is_exact_and_ordered_by_weight() {
        let inputs = Inputs::build(shape("serve_mixed").unwrap(), 3, 0, 10);
        let all: Vec<&Row> = inputs
            .preload
            .iter()
            .chain(&inputs.batches)
            .flatten()
            .collect();
        assert!(inputs.audit.windows(2).all(|w| w[0].count >= w[1].count));
        for g in &inputs.audit {
            let of_group: Vec<_> = all.iter().filter(|r| row_parts(r).0 == g.key).collect();
            assert_eq!(g.count as usize, of_group.len());
            assert_eq!(g.values.len(), of_group.len());
            assert!(g.values.windows(2).all(|w| w[0] <= w[1]));
            assert!(g.distinct <= g.count);
        }
        assert_eq!(inputs.preload_rows(), 24 * 4096 / 10 + 1);
    }

    #[test]
    fn rank_error_is_zero_inside_a_run_of_equal_values() {
        let g = AuditGroup {
            key: 1,
            count: 4,
            sum: 0.0,
            distinct: 4,
            values: vec![1.0, 2.0, 2.0, 3.0],
        };
        assert_eq!(g.rank_error(2.0, 0.5), 0.0); // ranks 0.25..=0.75
        assert_eq!(g.rank_error(2.0, 0.95), 0.95 - 0.75);
        assert_eq!(g.rank_error(3.0, 0.5), 0.25);
        assert_eq!(g.rank_error(0.0, 0.5), 0.5);
    }

    #[test]
    fn rendered_requests_decode_back_to_the_rows() {
        let inputs = Inputs::build(shape("serve_durable_small").unwrap(), 5, 0, 10);
        let body = ingest_body(&inputs.batches[0]);
        let rows = crate::ladder::decode_rows(&body).unwrap();
        assert_eq!(rows, inputs.batches[0]);
        assert!(inputs.wires[0].ends_with(&body));
        let single = String::from_utf8(report_wire(&[9])).unwrap();
        assert!(single.starts_with("GET /v1/report?key=%5B9%5D HTTP/1.1\r\n"));
        let batched = String::from_utf8(report_wire(&[1, 2])).unwrap();
        assert!(batched.starts_with("GET /v1/report?keys=%5B1%5D,%5B2%5D HTTP/1.1\r\n"));
    }
}
