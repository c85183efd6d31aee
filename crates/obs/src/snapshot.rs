//! Point-in-time metric snapshots: merge across shards, render for
//! humans, Prometheus, or JSON.
//!
//! Merging follows the mergeable-summaries contract end to end: counters
//! and gauges add, and latency histograms merge their underlying KLL
//! sketches — the merged p99 is the true p99 of the combined stream, not
//! an average of per-shard p99s.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sketches_core::{MergeSketch, QuantileSketch, SketchResult};
use sketches_quantiles::KllSketch;

use crate::registry::Event;

/// The quantiles every histogram report includes.
const REPORT_QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// A mergeable copy of one latency distribution (values in nanoseconds).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    kll: KllSketch,
}

impl HistogramSnapshot {
    /// Wraps a KLL sketch of nanosecond durations.
    #[must_use]
    pub fn from_kll(kll: KllSketch) -> Self {
        Self { kll }
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.kll.count()
    }

    /// The duration (nanoseconds) at rank fraction `q`, or `None` when
    /// the histogram is empty or `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_nanos(&self, q: f64) -> Option<f64> {
        self.kll.quantile(q).ok()
    }

    /// Merges another snapshot's distribution into this one.
    ///
    /// # Errors
    /// Returns [`sketches_core::SketchError::Incompatible`] when the
    /// underlying sketches have different shapes — impossible for
    /// histograms built by this crate, which share one `(k, seed)`.
    pub fn merge(&mut self, other: &Self) -> SketchResult<()> {
        self.kll.merge(&other.kll)
    }
}

/// A point-in-time view of every metric an engine (or registry) holds.
///
/// Counter totals from disjoint shards add exactly; a 4-shard engine's
/// merged snapshot therefore carries byte-identical counter totals to a
/// sequential engine fed the same stream (tested in the integration
/// suite).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters (Prometheus `_total` convention).
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time levels; merging sums them.
    pub gauges: BTreeMap<String, u64>,
    /// Latency distributions, keyed by a `*_seconds` metric name
    /// (recorded in nanoseconds, rendered in seconds).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Recent noteworthy occurrences (recovery warnings, etc.).
    pub events: Vec<Event>,
    /// `# HELP` texts keyed by metric *family* (the name with any label
    /// block stripped). Families without an entry get a fallback derived
    /// from the name, so the exposition always carries HELP lines.
    pub help: BTreeMap<String, String>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` to counter `name` (creating it at zero).
    pub fn add_counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    /// Adds `value` to gauge `name` (creating it at zero).
    pub fn add_gauge(&mut self, name: &str, value: u64) {
        *self.gauges.entry(name.to_string()).or_insert(0) += value;
    }

    /// Installs (or replaces) histogram `name`.
    pub fn put_histogram(&mut self, name: &str, hist: HistogramSnapshot) {
        self.histograms.insert(name.to_string(), hist);
    }

    /// Appends an event.
    pub fn push_event(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Registers the `# HELP` text for metric family `base` (a metric
    /// name without its label block).
    pub fn set_help(&mut self, base: &str, text: &str) {
        self.help.insert(base.to_string(), text.to_string());
    }

    /// Merges `other` into `self`: counters and gauges add, histograms
    /// sketch-merge, events concatenate (bounded by the registry cap at
    /// the source, so growth stays small).
    ///
    /// # Errors
    /// Propagates a histogram shape mismatch; snapshots produced by this
    /// crate always share one histogram shape.
    pub fn merge(&mut self, other: &Self) -> SketchResult<()> {
        for (name, v) in &other.counters {
            self.add_counter(name, *v);
        }
        for (name, v) in &other.gauges {
            self.add_gauge(name, *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h)?,
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
        self.events.extend(other.events.iter().cloned());
        for (base, text) in &other.help {
            self.help
                .entry(base.clone())
                .or_insert_with(|| text.clone());
        }
        Ok(())
    }

    /// A fixed-width human table: one line per metric.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  counter  {name:<44} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  gauge    {name:<44} {v}");
        }
        for (name, h) in &self.histograms {
            let stats = if h.count() == 0 {
                "count=0".to_string()
            } else {
                let q = |q: f64| fmt_nanos(h.quantile_nanos(q).unwrap_or(0.0));
                format!(
                    "count={} p50={} p90={} p99={} max={}",
                    h.count(),
                    q(0.5),
                    q(0.9),
                    q(0.99),
                    q(1.0),
                )
            };
            let _ = writeln!(out, "  hist     {name:<44} {stats}");
        }
        for e in &self.events {
            let _ = writeln!(
                out,
                "  event    t+{:<42} {}",
                fmt_nanos(e.at_nanos as f64),
                e.message
            );
        }
        out
    }

    /// Prometheus text exposition format (version 0.0.4).
    ///
    /// Counters keep their `_total` names, histograms render as
    /// summaries in seconds with `quantile` labels plus a `_count`.
    /// Every metric family gets a `# HELP` line (registered via
    /// [`set_help`](Self::set_help), with a name-derived fallback) and
    /// one `# TYPE` line; label values are escaped (`\\`, `\"`, `\n`)
    /// so real scrapers parse the output.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        let mut header = |out: &mut String, name: &str, kind: &str| {
            let (base, _) = split_series(name);
            if base != last_base {
                let fallback = base.replace('_', " ");
                let text = self
                    .help
                    .get(base)
                    .map_or(fallback.as_str(), String::as_str);
                let _ = writeln!(out, "# HELP {base} {}", escape_help(text));
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_base = base.to_string();
            }
        };
        for (name, v) in &self.counters {
            header(&mut out, name, "counter");
            let _ = writeln!(out, "{} {v}", series(name, None));
        }
        for (name, v) in &self.gauges {
            header(&mut out, name, "gauge");
            let _ = writeln!(out, "{} {v}", series(name, None));
        }
        for (name, h) in &self.histograms {
            header(&mut out, name, "summary");
            let (base, labels) = split_series(name);
            for (q, label) in REPORT_QUANTILES {
                if let Some(nanos) = h.quantile_nanos(q) {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        series(name, Some(("quantile", label))),
                        nanos / 1e9
                    );
                }
            }
            let count_name = match labels {
                Some(inner) => format!("{base}_count{{{inner}}}"),
                None => format!("{base}_count"),
            };
            let _ = writeln!(out, "{} {}", series(&count_name, None), h.count());
        }
        // Point-quantile gauges (`<family>_p50/_p90/_p99`, seconds) so
        // dashboards can plot a plain series without understanding the
        // summary's quantile labels or the raw KLL. Collected into a
        // sorted map first so every gauge family gets exactly one
        // HELP/TYPE pair even when the source histograms are labeled.
        let mut point_gauges: BTreeMap<String, f64> = BTreeMap::new();
        for (name, h) in &self.histograms {
            let (base, labels) = split_series(name);
            for (q, suffix) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                if let Some(nanos) = h.quantile_nanos(q) {
                    let gauge_name = match labels {
                        Some(inner) => format!("{base}_{suffix}{{{inner}}}"),
                        None => format!("{base}_{suffix}"),
                    };
                    point_gauges.insert(gauge_name, nanos / 1e9);
                }
            }
        }
        for (name, v) in &point_gauges {
            header(&mut out, name, "gauge");
            let _ = writeln!(out, "{} {v}", series(name, None));
        }
        out
    }

    /// A single-line JSON object (hand-rolled: the workspace builds
    /// offline with no JSON crate), with histogram quantiles in nanoseconds.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_u64_map(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        push_u64_map(&mut out, &self.gauges);
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{{\"count\":{}", json_string(name), h.count());
            for (q, label) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (1.0, "max")] {
                match h.quantile_nanos(q) {
                    Some(v) => {
                        let _ = write!(out, ",\"{label}_nanos\":{v}");
                    }
                    None => {
                        let _ = write!(out, ",\"{label}_nanos\":null");
                    }
                }
            }
            out.push('}');
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_nanos\":{},\"message\":{}}}",
                e.at_nanos,
                json_string(&e.message)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Writes `"name":value` pairs for a counter/gauge map.
fn push_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", json_string(name));
    }
}

/// JSON-escapes and quotes a string (the workspace's one escaper: the
/// serving layer's JSON writer uses it too).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Splits a metric name into its family base and the raw inner label
/// block (the text between `{` and the trailing `}`), if any.
fn split_series(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(open) => {
            let rest = &name[open + 1..];
            (&name[..open], Some(rest.strip_suffix('}').unwrap_or(rest)))
        }
        None => (name, None),
    }
}

/// Renders one series line's name: base, escaped label values, and an
/// optional extra label appended inside the block (used for summary
/// `quantile` labels on possibly-labeled histogram names).
fn series(name: &str, extra: Option<(&str, &str)>) -> String {
    let (base, labels) = split_series(name);
    match (labels, extra) {
        (None, None) => base.to_string(),
        (None, Some((k, v))) => format!("{base}{{{k}=\"{}\"}}", escape_label_value(v)),
        (Some(inner), None) => format!("{base}{{{}}}", escape_label_block(inner)),
        (Some(inner), Some((k, v))) => format!(
            "{base}{{{},{k}=\"{}\"}}",
            escape_label_block(inner),
            escape_label_value(v)
        ),
    }
}

/// Escapes the label values inside one raw `k="v",k2="v2"` block. A
/// value's closing quote is recognized as a `"` followed by `,` or the
/// end of the block (metric names are produced by this workspace, which
/// never emits a `",` sequence *inside* a value).
fn escape_label_block(inner: &str) -> String {
    let chars: Vec<char> = inner.chars().collect();
    let mut out = String::with_capacity(inner.len() + 4);
    let mut i = 0;
    while i < chars.len() {
        // Copy the key and `=` verbatim.
        while i < chars.len() && chars[i] != '=' {
            out.push(chars[i]);
            i += 1;
        }
        if i < chars.len() {
            out.push('=');
            i += 1;
        }
        if i < chars.len() && chars[i] == '"' {
            out.push('"');
            i += 1;
            while i < chars.len() {
                let c = chars[i];
                if c == '"' && (i + 1 == chars.len() || chars[i + 1] == ',') {
                    out.push('"');
                    i += 1;
                    break;
                }
                push_escaped_label_char(&mut out, c);
                i += 1;
            }
        }
        if i < chars.len() && chars[i] == ',' {
            out.push(',');
            i += 1;
        }
    }
    out
}

/// Escapes one already-extracted label value.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        push_escaped_label_char(&mut out, c);
    }
    out
}

/// The label-value escapes the exposition format defines: backslash,
/// double quote, and newline.
fn push_escaped_label_char(out: &mut String, c: char) {
    match c {
        '\\' => out.push_str("\\\\"),
        '"' => out.push_str("\\\""),
        '\n' => out.push_str("\\n"),
        c => out.push(c),
    }
}

/// Escapes a `# HELP` text: backslash and newline (quotes are legal
/// there).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a nanosecond duration with an adaptive unit.
fn fmt_nanos(nanos: f64) -> String {
    if nanos >= 1e9 {
        format!("{:.2}s", nanos / 1e9)
    } else if nanos >= 1e6 {
        format!("{:.2}ms", nanos / 1e6)
    } else if nanos >= 1e3 {
        format!("{:.2}us", nanos / 1e3)
    } else {
        format!("{nanos:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LatencyHistogram;

    fn snap_with(counter: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.add_counter("rows_ingested_total", counter);
        s.add_gauge("groups", 3);
        let mut h = LatencyHistogram::new();
        for n in 0..100u64 {
            h.record_nanos(n * 1_000);
        }
        s.put_histogram("batch_latency_seconds", h.snapshot());
        s
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = snap_with(10);
        let b = snap_with(32);
        a.merge(&b).unwrap();
        assert_eq!(a.counters["rows_ingested_total"], 42);
        assert_eq!(a.gauges["groups"], 6);
        assert_eq!(a.histograms["batch_latency_seconds"].count(), 200);
    }

    #[test]
    fn merge_into_empty_clones_everything() {
        let mut a = MetricsSnapshot::new();
        a.merge(&snap_with(5)).unwrap();
        assert_eq!(a.counters["rows_ingested_total"], 5);
        assert_eq!(a.histograms["batch_latency_seconds"].count(), 100);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = snap_with(7).to_prometheus();
        assert!(text.contains("# TYPE rows_ingested_total counter"));
        assert!(text.contains("rows_ingested_total 7"));
        assert!(text.contains("# TYPE groups gauge"));
        assert!(text.contains("# TYPE batch_latency_seconds summary"));
        assert!(text.contains("batch_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("batch_latency_seconds_count 100"));
        // Point-quantile gauges ride along for dashboards.
        assert!(text.contains("# TYPE batch_latency_seconds_p50 gauge"));
        assert!(text.contains("# TYPE batch_latency_seconds_p99 gauge"));
        assert!(text.contains("batch_latency_seconds_p90 "));
    }

    #[test]
    fn prometheus_format_contract() {
        // The scraper-facing contract: every family gets HELP + TYPE,
        // label values are escaped, labeled summaries keep the quantile
        // label inside one block and `_count` on the base name.
        let mut s = MetricsSnapshot::new();
        s.add_counter("requests_total{route=\"re\"port\",status=\"200\"}", 3);
        s.set_help("requests_total", "Requests by route and status.");
        s.add_gauge("inflight", 2);
        s.add_gauge("weird{name=\"a\\b\nc\"}", 1);
        let mut h = LatencyHistogram::new();
        h.record_nanos(2_000_000_000);
        s.put_histogram("request_latency_seconds{route=\"ingest\"}", h.snapshot());
        let text = s.to_prometheus();

        assert!(text.contains("# HELP requests_total Requests by route and status.\n"));
        assert!(text.contains("# TYPE requests_total counter\n"));
        // The stray quote inside the route value is escaped.
        assert!(text.contains("requests_total{route=\"re\\\"port\",status=\"200\"} 3\n"));
        // Fallback HELP is derived from the family name.
        assert!(text.contains("# HELP inflight inflight\n"));
        assert!(text.contains("# TYPE inflight gauge\n"));
        // Backslash and newline escapes.
        assert!(text.contains("weird{name=\"a\\\\b\\nc\"} 1\n"));
        // Labeled summary: quantile joins the existing block; _count is
        // on the base name with the labels preserved.
        assert!(text.contains("request_latency_seconds{route=\"ingest\",quantile=\"0.5\"} 2\n"));
        assert!(text.contains("request_latency_seconds_count{route=\"ingest\"} 1\n"));
        // Labeled point-quantile gauges keep the source labels and get
        // one TYPE line per gauge family.
        assert!(text.contains("request_latency_seconds_p99{route=\"ingest\"} 2\n"));
        assert_eq!(
            text.matches("# TYPE request_latency_seconds_p99 gauge")
                .count(),
            1
        );
        // HELP/TYPE come once per family, in order, before its series.
        let help_idx = text.find("# HELP requests_total").unwrap();
        let type_idx = text.find("# TYPE requests_total").unwrap();
        let series_idx = text.find("requests_total{").unwrap();
        assert!(help_idx < type_idx && type_idx < series_idx);
        assert_eq!(text.matches("# TYPE requests_total").count(), 1);
    }

    #[test]
    fn prometheus_labels_share_one_type_line() {
        let mut s = MetricsSnapshot::new();
        s.add_gauge("shard_rows_routed{shard=\"0\"}", 10);
        s.add_gauge("shard_rows_routed{shard=\"1\"}", 20);
        let text = s.to_prometheus();
        assert_eq!(text.matches("# TYPE shard_rows_routed gauge").count(), 1);
        assert!(text.contains("shard_rows_routed{shard=\"0\"} 10"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut s = snap_with(1);
        s.push_event(Event {
            at_nanos: 5,
            message: "torn \"tail\"\n".to_string(),
        });
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rows_ingested_total\":1"));
        assert!(json.contains("\"count\":100"));
        assert!(json.contains("torn \\\"tail\\\"\\n"));
    }

    #[test]
    fn table_renders_every_kind() {
        let mut s = snap_with(9);
        s.push_event(Event {
            at_nanos: 1_500,
            message: "warned".to_string(),
        });
        let t = s.to_table();
        assert!(t.contains("counter"));
        assert!(t.contains("gauge"));
        assert!(t.contains("hist"));
        assert!(t.contains("warned"));
        assert!(t.contains("p99="));
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = LatencyHistogram::new().snapshot();
        assert_eq!(h.quantile_nanos(0.5), None);
        let mut s = MetricsSnapshot::new();
        s.put_histogram("h_seconds", h);
        assert!(s.to_json().contains("\"p50_nanos\":null"));
        assert!(s.to_table().contains("count=0"));
    }
}
