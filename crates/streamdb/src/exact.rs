//! The exact-aggregation baseline engine: same query model, full state.

use std::collections::{HashMap, HashSet};

use sketches_core::{SketchError, SketchResult};

use crate::query::{Aggregate, AggregateResult, QuerySpec};
use crate::value::{Row, Value};

/// Per-group exact state for one aggregate.
#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    Sum(f64),
    CountDistinct(HashSet<Value>),
    Quantiles(Vec<f64>),
    TopK {
        counts: HashMap<Value, u64>,
        k: usize,
    },
    Frequency {
        counts: HashMap<Value, u64>,
        total: u64,
    },
}

/// The exact GROUP BY engine (the "data warehouse" of experiment E16/E8).
#[derive(Debug, Clone)]
pub struct ExactEngine {
    spec: QuerySpec,
    groups: HashMap<Vec<Value>, Vec<AggState>>,
    rows_processed: u64,
}

impl ExactEngine {
    /// Creates an exact engine for `spec`.
    #[must_use]
    pub fn new(spec: QuerySpec) -> Self {
        Self {
            spec,
            groups: HashMap::new(),
            rows_processed: 0,
        }
    }

    fn fresh_state(&self) -> Vec<AggState> {
        self.spec
            .aggregates
            .iter()
            .map(|agg| match agg {
                Aggregate::Count => AggState::Count(0),
                Aggregate::Sum { .. } => AggState::Sum(0.0),
                Aggregate::CountDistinct { .. } => AggState::CountDistinct(HashSet::new()),
                Aggregate::Quantiles { .. } => AggState::Quantiles(Vec::new()),
                Aggregate::TopK { k, .. } => AggState::TopK {
                    counts: HashMap::new(),
                    k: *k,
                },
                Aggregate::Frequency { .. } => AggState::Frequency {
                    counts: HashMap::new(),
                    total: 0,
                },
            })
            .collect()
    }

    /// Processes one row.
    ///
    /// # Errors
    /// Returns an error for short rows or non-numeric numeric aggregates.
    pub fn process(&mut self, row: &Row) -> SketchResult<()> {
        if row.len() <= self.spec.max_field() {
            return Err(SketchError::invalid("row", "row shorter than query fields"));
        }
        let key: Vec<Value> = self.spec.group_by.iter().map(|&i| row[i].clone()).collect();
        let fresh = self.fresh_state();
        let state = self.groups.entry(key).or_insert(fresh);
        for (agg, st) in self.spec.aggregates.iter().zip(state.iter_mut()) {
            match (agg, st) {
                (Aggregate::Count, AggState::Count(c)) => *c += 1,
                (Aggregate::Sum { field }, AggState::Sum(s)) => {
                    *s += row[*field].as_f64().ok_or_else(|| {
                        SketchError::invalid("field", "SUM over non-numeric field")
                    })?;
                }
                (Aggregate::CountDistinct { field }, AggState::CountDistinct(set)) => {
                    set.insert(row[*field].clone());
                }
                (Aggregate::Quantiles { field }, AggState::Quantiles(values)) => {
                    values.push(row[*field].as_f64().ok_or_else(|| {
                        SketchError::invalid("field", "QUANTILES over non-numeric field")
                    })?);
                }
                (Aggregate::TopK { field, .. }, AggState::TopK { counts, .. }) => {
                    *counts.entry(row[*field].clone()).or_insert(0) += 1;
                }
                (Aggregate::Frequency { field }, AggState::Frequency { counts, total }) => {
                    *counts.entry(row[*field].clone()).or_insert(0) += 1;
                    *total += 1;
                }
                _ => unreachable!("state built from same spec"),
            }
        }
        self.rows_processed += 1;
        Ok(())
    }

    /// Reports the aggregates of one group.
    #[must_use]
    pub fn report(&self, key: &[Value]) -> Option<Vec<AggregateResult>> {
        let state = self.groups.get(key)?;
        Some(
            state
                .iter()
                .map(|st| match st {
                    AggState::Count(c) => AggregateResult::Count(*c),
                    AggState::Sum(s) => AggregateResult::Sum(*s),
                    AggState::CountDistinct(set) => {
                        AggregateResult::CountDistinct(set.len() as f64)
                    }
                    AggState::Quantiles(values) => {
                        let mut sorted = values.clone();
                        sorted.sort_by(f64::total_cmp);
                        let q = |p: f64| -> f64 {
                            if sorted.is_empty() {
                                return f64::NAN;
                            }
                            let idx = ((p * sorted.len() as f64).ceil() as usize)
                                .clamp(1, sorted.len())
                                - 1;
                            sorted[idx]
                        };
                        AggregateResult::Quantiles {
                            p50: q(0.5),
                            p95: q(0.95),
                            p99: q(0.99),
                        }
                    }
                    AggState::TopK { counts, k } => {
                        let mut v: Vec<(Value, u64)> =
                            // lint: sorted-iteration-ok(collected then fully sorted by the (count, value) total order below)
                            counts.iter().map(|(val, &c)| (val.clone(), c)).collect();
                        // Descending count, ties by ascending value: a total
                        // order, so the truncation at k never depends on
                        // hash order.
                        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                        v.truncate(*k);
                        AggregateResult::TopK(v)
                    }
                    AggState::Frequency { total, .. } => {
                        AggregateResult::Frequency { total: *total }
                    }
                })
                .collect(),
        )
    }

    /// Exact frequency point query: how many rows in group `key` held
    /// `item` in the first FREQUENCY field (`None` if the group was never
    /// seen; 0 if the group exists but the item never appeared). The
    /// ground truth experiment E27 scores sketches against.
    #[must_use]
    pub fn estimate(&self, key: &[Value], item: &Value) -> Option<u64> {
        let state = self.groups.get(key)?;
        for st in state {
            if let AggState::Frequency { counts, .. } = st {
                return Some(counts.get(item).copied().unwrap_or(0));
            }
        }
        None
    }

    /// Number of groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Rows processed.
    #[must_use]
    pub fn rows_processed(&self) -> u64 {
        self.rows_processed
    }

    /// Approximate bytes of exact state (values stored, map overheads
    /// charged coarsely).
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        let value_bytes = |v: &Value| match v {
            Value::Str(s) => std::mem::size_of::<Value>() + s.len(),
            _ => std::mem::size_of::<Value>(),
        };
        self.groups
            .values()
            .flat_map(|state| {
                state.iter().map(move |st| match st {
                    AggState::Count(_) | AggState::Sum(_) => 8,
                    AggState::CountDistinct(set) => {
                        set.iter().map(value_bytes).sum::<usize>() + set.len() * 2
                    }
                    AggState::Quantiles(values) => values.len() * 8,
                    AggState::TopK { counts, .. } => {
                        counts.keys().map(value_bytes).sum::<usize>() + counts.len() * 10
                    }
                    AggState::Frequency { counts, .. } => {
                        counts.keys().map(value_bytes).sum::<usize>() + counts.len() * 10
                    }
                })
            })
            .sum()
    }
}

#[cfg(test)]
#[allow(
    clippy::useless_vec,
    reason = "`row!` expands to `vec![...]`, which tests also pass to slice-taking query methods"
)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn exact_results() {
        let spec = QuerySpec::new(
            vec![0],
            vec![
                Aggregate::Count,
                Aggregate::CountDistinct { field: 1 },
                Aggregate::Quantiles { field: 1 },
                Aggregate::TopK { field: 1, k: 2 },
            ],
        )
        .unwrap();
        let mut eng = ExactEngine::new(spec);
        for i in 0..100u64 {
            eng.process(&row!["g", (i % 10) as f64]).unwrap();
        }
        let r = eng.report(&row!["g"]).unwrap();
        assert_eq!(r[0], AggregateResult::Count(100));
        assert_eq!(r[1], AggregateResult::CountDistinct(10.0));
        match &r[2] {
            AggregateResult::Quantiles { p50, .. } => assert_eq!(*p50, 4.0),
            other => panic!("unexpected {other:?}"),
        }
        match &r[3] {
            AggregateResult::TopK(top) => assert_eq!(top.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn space_grows_with_distinct_values() {
        let spec = QuerySpec::new(vec![0], vec![Aggregate::CountDistinct { field: 1 }]).unwrap();
        let mut eng = ExactEngine::new(spec);
        for i in 0..10_000u64 {
            eng.process(&row![0u64, i]).unwrap();
        }
        assert!(
            eng.state_bytes() > 10_000 * 8,
            "exact engine must pay per distinct value"
        );
    }

    #[test]
    fn rejects_bad_rows() {
        let spec = QuerySpec::new(vec![0], vec![Aggregate::Sum { field: 1 }]).unwrap();
        let mut eng = ExactEngine::new(spec);
        assert!(eng.process(&row!["g"]).is_err());
        assert!(eng.process(&row!["g", "nan-string"]).is_err());
    }
}
