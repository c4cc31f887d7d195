//! Span-based structured tracing of job → wave → task-attempt → phase
//! lifecycles.
//!
//! A [`Recorder`] is a cheap-to-clone handle shared by every layer of
//! the stack. Spans carry a parent id (forming the lifecycle tree),
//! start/end timestamps in milliseconds since the recorder's epoch,
//! free-form string metadata, and attached metrics (name → u64). Closed
//! spans land in an in-memory event log and, when configured, are
//! appended to a JSONL sink — one JSON object per line, streamable into
//! offline analysis.
//!
//! The disabled recorder ([`Recorder::disabled`]) is a no-op: every
//! call checks one boolean and returns, so instrumented code pays
//! effectively nothing when tracing is off — the property the
//! `telemetry_overhead` test pins down.

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::sync::Unpoisoned;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identity of one span. `0` is reserved for "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

/// What lifecycle a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole pipeline execution (many stages).
    Pipeline,
    /// One node of a pipeline stage DAG (carries `parents` metadata
    /// naming its upstream stages, and a `cached` flag when the stage's
    /// output was served from the content-addressed store). A stage
    /// that ran parents its round's job and carries the round's task
    /// counts and counter snapshot.
    Stage,
    /// One MapReduce job.
    Job,
    /// One scheduling wave (map wave, reduce wave) within a job.
    Wave,
    /// One task attempt within a wave.
    TaskAttempt,
    /// One timed phase (map / sort-spill / … / reduce) within a task.
    Phase,
    /// Anything else (DFS sweeps, external sections).
    Custom,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Pipeline => "pipeline",
            SpanKind::Stage => "stage",
            SpanKind::Job => "job",
            SpanKind::Wave => "wave",
            SpanKind::TaskAttempt => "task-attempt",
            SpanKind::Phase => "phase",
            SpanKind::Custom => "custom",
        }
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub kind: SpanKind,
    pub name: String,
    /// Milliseconds since the recorder's epoch.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Free-form string metadata (node, outcome, speculative, …).
    pub meta: Vec<(String, String)>,
    /// Attached metrics (phase nanos, record counts, …).
    pub metrics: Vec<(String, u64)>,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// The JSONL representation (one line, no trailing newline).
    pub fn to_json(&self) -> Json {
        let mut meta = Json::obj();
        for (k, v) in &self.meta {
            meta = meta.field(k, v.as_str());
        }
        let mut metrics = Json::obj();
        for (k, v) in &self.metrics {
            metrics = metrics.field(k, *v);
        }
        Json::obj()
            .field("id", self.id.0)
            .field("parent", self.parent.0)
            .field("kind", self.kind.name())
            .field("name", self.name.as_str())
            .field("start_ms", self.start_ms)
            .field("end_ms", self.end_ms)
            .field("meta", meta)
            .field("metrics", metrics)
    }
}

/// A still-open span: close it with [`Recorder::end`] (or enrich and
/// close with [`Recorder::end_with`]).
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    pub id: SpanId,
    parent: SpanId,
    kind: SpanKind,
    start_ms: f64,
}

/// One cell of the shuffle matrix: bytes moved from one map task's
/// output to one reduce partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleCell {
    pub map_task: usize,
    pub reduce_task: usize,
    pub bytes: u64,
    /// Did the bytes travel compressed (shipped by reference, decoded
    /// once at the reduce-side merge) or as raw record bytes?
    pub compressed: bool,
}

struct RecorderInner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    shuffle_cells: Mutex<Vec<ShuffleCell>>,
    registry: MetricsRegistry,
    sink: Option<Mutex<Box<dyn Write + Send>>>,
}

/// The tracing handle. Clones share state; a disabled recorder is inert.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::disabled()
    }
}

impl Recorder {
    /// An active recorder with an in-memory log only.
    pub fn new() -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                shuffle_cells: Mutex::new(Vec::new()),
                registry: MetricsRegistry::new(),
                sink: None,
            })),
        }
    }

    /// The inert recorder: every operation is a no-op.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An active recorder that additionally appends every closed span to
    /// `path` as JSON Lines.
    pub fn with_jsonl_sink(path: &std::path::Path) -> std::io::Result<Recorder> {
        let file = std::fs::File::create(path)?;
        Ok(Recorder::with_sink(Box::new(std::io::BufWriter::new(file))))
    }

    /// An active recorder writing JSONL to an arbitrary sink.
    pub fn with_sink(sink: Box<dyn Write + Send>) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                shuffle_cells: Mutex::new(Vec::new()),
                registry: MetricsRegistry::new(),
                sink: Some(Mutex::new(sink)),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Milliseconds since the recorder's epoch (0.0 when disabled).
    pub fn now_ms(&self) -> f64 {
        match &self.inner {
            Some(i) => i.epoch.elapsed().as_secs_f64() * 1e3,
            None => 0.0,
        }
    }

    /// The metrics registry attached to this recorder (a fresh detached
    /// registry when disabled, so callers need no special-casing).
    pub fn registry(&self) -> MetricsRegistry {
        match &self.inner {
            Some(i) => i.registry.clone(),
            None => MetricsRegistry::new(),
        }
    }

    /// Open a span. Returns an inert handle when disabled.
    pub fn start(&self, kind: SpanKind, name: &str, parent: SpanId) -> OpenSpan {
        let _ = name;
        match &self.inner {
            None => OpenSpan {
                id: SpanId::NONE,
                parent,
                kind,
                start_ms: 0.0,
            },
            Some(i) => OpenSpan {
                id: SpanId(i.next_id.fetch_add(1, Ordering::Relaxed)),
                parent,
                kind,
                start_ms: i.epoch.elapsed().as_secs_f64() * 1e3,
            },
        }
    }

    /// Close a span with no extra payload.
    pub fn end(&self, open: OpenSpan, name: &str) {
        self.end_with(open, name, Vec::new(), Vec::new());
    }

    /// Close a span, attaching metadata and metrics.
    pub fn end_with(
        &self,
        open: OpenSpan,
        name: &str,
        meta: Vec<(String, String)>,
        metrics: Vec<(String, u64)>,
    ) {
        let Some(i) = &self.inner else { return };
        let span = Span {
            id: open.id,
            parent: open.parent,
            kind: open.kind,
            name: name.to_string(),
            start_ms: open.start_ms,
            end_ms: i.epoch.elapsed().as_secs_f64() * 1e3,
            meta,
            metrics,
        };
        self.push(span);
    }

    /// Record a span whose start/end were measured by the caller (the
    /// engine times attempts itself to keep its hot path lock-free).
    pub fn record(&self, span: Span) {
        if self.inner.is_some() {
            self.push(span);
        }
    }

    /// Allocate an id for a caller-assembled span.
    pub fn fresh_id(&self) -> SpanId {
        match &self.inner {
            None => SpanId::NONE,
            Some(i) => SpanId(i.next_id.fetch_add(1, Ordering::Relaxed)),
        }
    }

    fn push(&self, span: Span) {
        let i = self.inner.as_ref().expect("push on disabled recorder");
        if let Some(sink) = &i.sink {
            let mut w = sink.lock().unpoisoned();
            let _ = writeln!(w, "{}", span.to_json().render());
        }
        i.spans.lock().unpoisoned().push(span);
    }

    /// Record one shuffle-matrix cell (map task → reduce partition),
    /// tagging whether the bytes travelled compressed.
    pub fn shuffle_cell(&self, map_task: usize, reduce_task: usize, bytes: u64, compressed: bool) {
        if let Some(i) = &self.inner {
            i.shuffle_cells.lock().unpoisoned().push(ShuffleCell {
                map_task,
                reduce_task,
                bytes,
                compressed,
            });
        }
    }

    /// Snapshot of all closed spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(i) => i.spans.lock().unpoisoned().clone(),
            None => Vec::new(),
        }
    }

    /// Closed spans of one kind.
    pub fn spans_of_kind(&self, kind: SpanKind) -> Vec<Span> {
        self.spans().into_iter().filter(|s| s.kind == kind).collect()
    }

    /// Snapshot of the shuffle matrix cells recorded so far.
    pub fn shuffle_cells(&self) -> Vec<ShuffleCell> {
        match &self.inner {
            Some(i) => i.shuffle_cells.lock().unpoisoned().clone(),
            None => Vec::new(),
        }
    }

    /// Flush the JSONL sink (no-op otherwise).
    pub fn flush(&self) {
        if let Some(i) = &self.inner {
            if let Some(sink) = &i.sink {
                let _ = sink.lock().unpoisoned().flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_parents_and_kinds() {
        let rec = Recorder::new();
        let job = rec.start(SpanKind::Job, "job", SpanId::NONE);
        let wave = rec.start(SpanKind::Wave, "map-wave", job.id);
        let task = rec.start(SpanKind::TaskAttempt, "map-0.0", wave.id);
        rec.end_with(
            task,
            "map-0.0",
            vec![("node".into(), "1".into())],
            vec![("records".into(), 10)],
        );
        rec.end(wave, "map-wave");
        rec.end(job, "job");
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        // Completion order: task, wave, job.
        assert_eq!(spans[0].kind, SpanKind::TaskAttempt);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, spans[2].id);
        assert_eq!(spans[2].parent, SpanId::NONE);
        assert!(spans.iter().all(|s| s.end_ms >= s.start_ms));
        assert_eq!(spans[0].metrics, vec![("records".to_string(), 10)]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        let s = rec.start(SpanKind::Job, "j", SpanId::NONE);
        rec.end(s, "j");
        rec.shuffle_cell(0, 0, 100, false);
        assert!(rec.spans().is_empty());
        assert!(rec.shuffle_cells().is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn jsonl_sink_gets_one_valid_line_per_span() {
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let rec = Recorder::with_sink(Box::new(buf.clone()));
        for i in 0..3 {
            let s = rec.start(SpanKind::Phase, "p", SpanId::NONE);
            rec.end_with(s, &format!("phase-{i}"), vec![], vec![("n".into(), i)]);
        }
        rec.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v = crate::json::Json::parse(line).expect("valid json line");
            assert_eq!(v.get("kind").unwrap().as_str(), Some("phase"));
            assert_eq!(v.get("name").unwrap().as_str(), Some(format!("phase-{i}").as_str()));
        }
    }

    #[test]
    fn shuffle_cells_accumulate() {
        let rec = Recorder::new();
        rec.shuffle_cell(0, 1, 100, true);
        rec.shuffle_cell(2, 1, 50, false);
        assert_eq!(
            rec.shuffle_cells(),
            vec![
                ShuffleCell { map_task: 0, reduce_task: 1, bytes: 100, compressed: true },
                ShuffleCell { map_task: 2, reduce_task: 1, bytes: 50, compressed: false },
            ]
        );
    }
}
