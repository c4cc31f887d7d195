//! What a job *is*, apart from how it runs: its configuration (the
//! Hadoop parameters the paper tunes), its input splits, and the
//! attempt history and outputs it reports.

use crate::counters::Counters;
use crate::lease::SlotLease;
use gesall_formats::Codec;
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
    /// Maximum attempts per task (`mapreduce.map.maxattempts` analogue).
    /// A task whose attempts all fail aborts the job.
    pub max_attempts: usize,
    /// Base delay before re-running a failed attempt; doubles per
    /// consecutive failure of the same task.
    pub retry_backoff_ms: f64,
    /// Launch backup attempts for stragglers
    /// (`mapreduce.map.speculative` analogue).
    pub speculative: bool,
    /// An attempt is a straggler once more than half of its wave has
    /// committed and it has run this multiple of the median
    /// completed-attempt runtime. The default, 2, is the break-even
    /// point: the overrun equals what the backup costs.
    pub speculative_multiplier: f64,
    /// ... but never before it has run at least this long (keeps
    /// micro-tasks from being pointlessly backed up).
    pub speculative_min_runtime_ms: f64,
    /// Telemetry span to parent this job's trace under ([`SpanId::NONE`]
    /// = a root span). Set by drivers that trace a larger unit — e.g. a
    /// pipeline round — so the job nests inside it.
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
    /// Codec map-output partitions of at least
    /// [`COMPRESS_MIN_BYTES`](crate::shuffle::COMPRESS_MIN_BYTES) travel
    /// under (the paper's Snappy setting). `None` (the default) is
    /// [`Codec::Lz`], for every record type: on an in-process DFS the
    /// bytes [`Codec::Seq`] saves on alignment records buy nothing and
    /// its encode costs twice Lz's (DESIGN.md §14). `Some(Codec::Raw)`
    /// turns compression off.
    pub shuffle_codec: Option<Codec>,
}

impl Default for JobConfig {
    fn default() -> JobConfig {
        JobConfig {
            name: "job".into(),
            n_reducers: 1,
            io_sort_bytes: 64 * 1024 * 1024,
            merge_factor: 10,
            max_attempts: 4,
            retry_backoff_ms: 10.0,
            speculative: true,
            speculative_multiplier: 2.0,
            speculative_min_runtime_ms: 25.0,
            parent_span: SpanId::NONE,
            slot_lease: None,
            shuffle_namespace: None,
            shuffle_codec: None,
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
    /// wall-clock times and node/thread placement excluded. For a given
    /// [`FaultPlan`](crate::FaultPlan) seed this is byte-identical across runs — the
    /// contract the seed-determinism test asserts.
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
