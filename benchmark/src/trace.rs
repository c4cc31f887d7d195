//! Harness-side spans. The benchmark measures every layer from outside,
//! so spans are recorded here, around the calls into each crate, never
//! inside the program. They are held in memory and written when the run
//! ends (Chrome-trace JSON); with tracing off a span costs one branch.

use gesall_telemetry::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    /// The crate the spanned call lands in (`gesall-core`, …) or
    /// `harness` for the benchmark's own bookkeeping.
    pub layer: &'static str,
    /// Repetition index within the workload; -1 outside the rep loop.
    pub rep: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span with explicit bounds — used for spans synthesised
    /// from what a call *returned* (stage and round walls), and by
    /// [`Tracer::span`]. Returns `None` when tracing is off.
    pub fn add(
        &self,
        parent: Option<SpanId>,
        name: &str,
        layer: &'static str,
        rep: i32,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("no span holder panics");
        let id = spans.len() as SpanId;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            layer,
            rep,
            start_ns,
            end_ns,
        });
        Some(id)
    }

    /// Run `f` inside a span. The closure receives the span's id so it
    /// can parent further spans; the id is reserved before `f` runs, so
    /// children always carry a larger id than their parent.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        name: &str,
        layer: &'static str,
        rep: i32,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start = self.now_ns();
        let id = self.add(parent, name, layer, rep, start, start);
        let out = f(id);
        let end = self.now_ns();
        if let Some(id) = id {
            self.spans.lock().expect("no span holder panics")[id as usize].end_ns = end;
        }
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }

    /// Chrome-trace ("Trace Event Format") document: one complete (`X`)
    /// event per span, loadable in `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> Json {
        let spans = self.spans();
        let events: Vec<Json> = spans
            .iter()
            .map(|s| {
                Json::obj()
                    .field("name", s.name.as_str())
                    .field("cat", s.layer)
                    .field("ph", "X")
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", s.dur_ns() as f64 / 1e3)
                    .field("pid", 1u64)
                    .field("tid", lane(&spans, s) as u64)
                    .field(
                        "args",
                        Json::obj()
                            .field("id", s.id as u64)
                            .field(
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                            )
                            .field("workload", self.workload.as_str())
                            .field("rep", s.rep as i64)
                            .field("start_ns", s.start_ns)
                            .field("end_ns", s.end_ns),
                    )
            })
            .collect();
        Json::obj()
            .field("displayTimeUnit", "ms")
            .field("traceEvents", events)
    }
}

/// Display lane: spans below a `client:*` span (one per concurrent
/// tenant) get that client's lane so overlapping jobs do not stack.
fn lane(spans: &[Span], span: &Span) -> u32 {
    let mut cur = Some(span);
    while let Some(s) = cur {
        if s.name.starts_with("client:") {
            return s.id + 1;
        }
        cur = s.parent.map(|p| &spans[p as usize]);
    }
    0
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (overlapping children are not double-counted,
/// and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: &'static str,
    pub spans: usize,
    /// Σ span durations (a nested same-layer span counts twice; self
    /// time is the column that sums to the traced wall).
    pub wall_s: f64,
    pub self_s: f64,
    /// Self time as a share of all self time, i.e. of the traced wall
    /// covered by root spans.
    pub share: f64,
}

pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(s.layer).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += selfs[&s.id];
    }
    let total: u64 = rows.values().map(|r| r.2).sum();
    let mut out: Vec<LayerRow> = rows
        .into_iter()
        .map(|(layer, (n, wall, self_ns))| LayerRow {
            layer,
            spans: n,
            wall_s: wall as f64 / 1e9,
            self_s: self_ns as f64 / 1e9,
            share: if total > 0 {
                self_ns as f64 / total as f64
            } else {
                0.0
            },
        })
        .collect();
    out.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    out
}

/// Spans that start before or end after their parent, or end before they
/// start. A closed tree has none.
pub fn escaping_spans(spans: &[Span]) -> Vec<SpanId> {
    spans
        .iter()
        .filter(|s| {
            s.end_ns < s.start_ns
                || s.parent.is_some_and(|p| {
                    let p = &spans[p as usize];
                    s.start_ns < p.start_ns || s.end_ns > p.end_ns
                })
        })
        .map(|s| s.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            rep: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(0, None, "gesall-core", 0, 100),
            // Two overlapping children cover [10, 60); a third sticks
            // out past the parent and is clipped to [90, 100).
            span(1, Some(0), "gesall-mapreduce", 10, 50),
            span(2, Some(0), "gesall-mapreduce", 40, 60),
            span(3, Some(0), "gesall-dfs", 90, 120),
            // Grandchild only reduces its own parent's self time.
            span(4, Some(1), "gesall-dfs", 20, 30),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - 50 - 10);
        assert_eq!(st[&1], 40 - 10);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&4], 10);
        assert_eq!(escaping_spans(&spans), vec![3]);
    }

    #[test]
    fn layer_rows_sum_self_time_to_root_wall() {
        let spans = vec![
            span(0, None, "gesall-core", 0, 1_000),
            span(1, Some(0), "gesall-mapreduce", 100, 700),
            span(2, Some(1), "gesall-dfs", 200, 300),
        ];
        let rows = layer_table(&spans);
        let total: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((total - 1_000e-9).abs() < 1e-15);
        assert_eq!(rows[0].layer, "gesall-mapreduce");
        assert!((rows[0].share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let t = Tracer::new("w", true);
        let v = t.span(None, "outer", "harness", -1, |outer| {
            t.span(outer, "inner", "gesall-dfs", 0, |_| 7)
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(escaping_spans(&spans).is_empty());
        let doc = t.to_chrome_trace();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );

        let off = Tracer::new("w", false);
        assert_eq!(off.span(None, "x", "harness", 0, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
