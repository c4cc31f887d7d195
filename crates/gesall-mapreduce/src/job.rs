//! What a job *is*, apart from how it runs: its configuration (the
//! Hadoop parameters the paper tunes), its input splits, and the
//! attempt history and outputs it reports.

use crate::counters::Counters;
use crate::lease::SlotLease;
use gesall_telemetry::SpanId;

/// Per-job configuration (the Hadoop parameters the paper tunes).
#[derive(Debug, Clone)]
pub struct JobConfig {
    pub name: String,
    pub n_reducers: usize,
    /// Map-side sort buffer (`mapreduce.task.io.sort.mb`), in bytes here.
    pub io_sort_bytes: usize,
    /// Reduce-side merge fan-in.
    pub merge_factor: usize,
    /// Telemetry span to parent this job's trace under ([`SpanId::NONE`]
    /// = a root span). Set by drivers that trace a larger unit — e.g. a
    /// pipeline stage — so the job nests inside it.
    pub parent_span: SpanId,
    /// Container-slot lease for this job, handed in by an external
    /// capacity scheduler (gesall-jobsvc). Wave workers take a permit
    /// before each attempt and release it after, so the job never runs
    /// more than the lease's current grant concurrently — the mechanism
    /// that lets many jobs share one engine without oversubscribing the
    /// cluster. `None` (the default) leaves the job unthrottled.
    pub slot_lease: Option<SlotLease>,
    /// DFS directory the job's shuffle transit lives under: transit
    /// files go to `{namespace}/shuffle-{run}/…` instead of the default
    /// `/{name}/shuffle-{run}/…`. The job service sets `/{tenant}/{job}`
    /// here so every tenant's transit sits under one sweepable prefix.
    pub shuffle_namespace: Option<String>,
}

impl Default for JobConfig {
    fn default() -> JobConfig {
        JobConfig {
            name: "job".into(),
            n_reducers: 1,
            io_sort_bytes: 64 * 1024 * 1024,
            merge_factor: 10,
            parent_span: SpanId::NONE,
            slot_lease: None,
            shuffle_namespace: None,
        }
    }
}

/// One unit of map input: typed records plus a locality preference
/// (the node holding the logical partition's blocks).
#[derive(Debug, Clone)]
pub struct InputSplit<K, V> {
    pub label: String,
    pub preferred_node: Option<usize>,
    pub records: Vec<(K, V)>,
}

impl<K, V> InputSplit<K, V> {
    pub fn new(label: impl Into<String>, records: Vec<(K, V)>) -> InputSplit<K, V> {
        InputSplit {
            label: label.into(),
            preferred_node: None,
            records,
        }
    }

    pub fn at_node(mut self, node: usize) -> InputSplit<K, V> {
        self.preferred_node = Some(node);
        self
    }
}

/// Map task or reduce task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    Map,
    Reduce,
}

/// How one task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt's result was committed as the task's output.
    Succeeded,
    /// The attempt panicked; the task was retried (or the job aborted).
    Failed,
    /// The attempt finished but its result was discarded — it lost a
    /// speculative race, or its node died while it ran.
    Killed,
}

/// One task attempt's history record — the raw material for Fig. 7-style
/// progress plots and for fault post-mortems.
#[derive(Debug, Clone)]
pub struct TaskEvent {
    pub kind: TaskKind,
    pub task_id: usize,
    /// Attempt number within the task, starting at 0.
    pub attempt: usize,
    /// Whether this was a speculative (backup) attempt.
    pub speculative: bool,
    pub outcome: AttemptOutcome,
    /// Panic message for `Failed` attempts.
    pub error: Option<String>,
    pub node: usize,
    /// Milliseconds since job start.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Whether the task ran on its preferred (data-local) node.
    pub data_local: bool,
}

/// Everything a finished job reports.
#[derive(Debug)]
pub struct JobOutput<O> {
    /// One output per reducer (or per map task for map-only jobs): what
    /// the committed attempt's [`RecordWriter`](crate::RecordWriter) finished with.
    pub outputs: Vec<O>,
    pub counters: Counters,
    pub events: Vec<TaskEvent>,
    pub wall_ms: f64,
    pub config: JobConfig,
}

/// A job under the default [`CollectRecords`](crate::CollectRecords) format: each task's output
/// is the records it emitted.
pub type JobResult<K, V> = JobOutput<Vec<(K, V)>>;

impl<O> JobOutput<O> {
    /// Canonical attempt history: one line per attempt, sorted, with
    /// wall-clock times and node/thread placement excluded. Retries,
    /// slowdowns and speculation are decided from the
    /// [`FaultPlan`](crate::FaultPlan) and the charges it injects, so
    /// for a plan without node deaths this is byte-identical across
    /// runs and cluster shapes — the contract the seed-determinism tests
    /// assert.
    pub fn history(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{:?} task={} attempt={} speculative={} outcome={:?} error={}",
                    e.kind,
                    e.task_id,
                    e.attempt,
                    e.speculative,
                    e.outcome,
                    e.error.as_deref().unwrap_or("-"),
                )
            })
            .collect();
        lines.sort();
        lines
    }
}
