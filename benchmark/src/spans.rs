//! The benchmark's own spans, recorded from outside around calls into
//! each layer's public functions. Spans stay in memory and are written
//! out once, when the traced run ends.

use std::time::Instant;

use sketches_serve::Json;

/// One timed call. `parent` indexes [`Recorder::spans`]; spans of one
/// replayed request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// What recording one span costs, in seconds: the instrument's own
    /// weight, measured on an empty span so that it can be set against
    /// the work the spans wrap.
    pub fn span_cost_s() -> f64 {
        const PROBES: u32 = 10_000;
        let mut probe = Self::new();
        let start = Instant::now();
        for _ in 0..PROBES {
            probe.time("probe", None, 0, || ());
        }
        start.elapsed().as_secs_f64() / f64::from(PROBES)
    }

    /// Every span's self time: its duration minus the part its children
    /// cover (a child is clipped to its parent's interval). The recorder
    /// is single-threaded, so siblings never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let covered = s
                    .end_ns
                    .min(parent.end_ns)
                    .saturating_sub(s.start_ns.max(parent.start_ns));
                own[p] = own[p].saturating_sub(covered);
            }
        }
        own
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("start_ns".to_string(), Json::U64(s.start_ns)),
                    ("end_ns".to_string(), Json::U64(s.end_ns)),
                    ("self_ns".to_string(), Json::U64(self_ns)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("request".to_string(), Json::U64(s.request)),
                ])
            })
            .collect();
        Json::Obj(vec![("spans".to_string(), Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            span(0, 100, None),     // root: children cover 30 + 40
            span(10, 40, Some(0)),  // first sibling: child covers 5
            span(50, 90, Some(0)),  // second sibling, a leaf
            span(20, 25, Some(1)),  // nested under the first sibling
            span(95, 120, Some(0)), // overruns the root: clipped to 5
        ];
        assert_eq!(rec.self_ns(), vec![25, 25, 40, 5, 25]);
    }

    #[test]
    fn recorded_children_lie_inside_their_parent() {
        let mut rec = Recorder::new();
        let root = rec.open("root", None, 7);
        let inner = rec.time("child", Some(root), 7, || 42);
        rec.close(root);
        assert_eq!(inner, 42);
        let (r, c) = (&rec.spans[0], &rec.spans[1]);
        assert_eq!(c.parent, Some(0));
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        assert_eq!(rec.durations("child").len(), 1);
    }

    #[test]
    fn span_file_round_trips_through_the_product_parser() {
        let mut rec = Recorder::new();
        let root = rec.open("root", None, 3);
        rec.time("child", Some(root), 3, || ());
        rec.close(root);
        let parsed = Json::parse(&rec.to_json().render()).unwrap();
        let spans = parsed.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("child"));
    }
}
