//! # gesall-telemetry
//!
//! The observability subsystem: everything the paper's in-depth
//! performance study measures, as reusable machinery.
//!
//! * [`metrics`] — a low-overhead **metrics registry**: named counters,
//!   gauges, and log-scale histograms behind atomics, addressable
//!   through labeled scopes (`job/wave/task`). The engine's job
//!   counters ([`metrics::Counters`]) are this registry's counters.
//! * [`phase`] — the six execution phases of a MapReduce round the
//!   paper's Tables 4–7 break wall-clock time into: map, sort-spill,
//!   map-merge, shuffle, reduce-merge, reduce.
//! * [`mem`] — memory-path metrics: payload **bytes actually copied**
//!   on the record path and spill-arena allocator behaviour, the gauge
//!   the zero-copy refactor (DESIGN.md §6) is measured by.
//! * [`kernel`] — bit-parallel kernel metrics: packed-BWT rank words
//!   popcounted, banded-SW hits vs full-DP fallbacks, radix sort passes
//!   (DESIGN.md §13) — proof in the counters that the fast paths ran.
//! * [`span`] — **span-based structured tracing** of job → wave →
//!   task-attempt → phase lifecycles: parent ids, start/end timestamps,
//!   attached metrics, an in-memory event log, and an optional JSONL
//!   sink for offline analysis.
//! * [`report`] — derived reports: per-phase wall-clock breakdown
//!   tables (the Table 4–7 shape), per-wave task timelines (text
//!   Gantt), shuffle-matrix bytes moved, and straggler/skew statistics
//!   (p50/p95/max task duration per phase).
//! * [`json`] — a dependency-free JSON value type, writer, and parser
//!   (the workspace has no serialisation crate, so machine-readable
//!   output is hand-assembled).
//! * [`sync`] — the shared lock poison policy: poisoned locks stay usable.
//!
//! The crate is deliberately leaf-level: it depends on nothing else in
//! the workspace, so every layer (`gesall-dfs`, `gesall-mapreduce`,
//! `gesall-core`, the binaries) can instrument itself against it.

pub mod json;
pub mod kernel;
pub mod mem;
pub mod metrics;
pub mod phase;
pub mod report;
pub mod span;
pub mod sync;

pub use json::Json;
pub use kernel::{keys as kernel_keys, KernelStats};
pub use mem::keys as mem_keys;
pub use metrics::{Counters, Histogram, MetricsRegistry};
pub use phase::Phase;
pub use report::{DurationStats, GanttRow, PhaseRow};
pub use span::{OpenSpan, Recorder, Span, SpanId, SpanKind};
pub use sync::Unpoisoned;
