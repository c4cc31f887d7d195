//! # gesall-mapreduce
//!
//! An in-process MapReduce engine with Hadoop's performance-relevant
//! anatomy, executing real work on real threads:
//!
//! * [`task`] — `Mapper` / `Reducer` traits over typed, wire-encodable
//!   key-value records;
//! * [`shuffle`] — the map-side **sort buffer** (`io.sort.mb`) with
//!   spill-and-merge, partitioned map output, map-output
//!   compression, and the reduce-side **multipass merge** — the machinery
//!   behind the paper's Fig. 5(b), Fig. 10, and Table 7 observations;
//! * [`cluster`] — a YARN-like resource model: nodes × (vcores, memory)
//!   ⇒ container slots per node; tasks run in waves when slots are
//!   scarce;
//! * [`runtime`] — the engine and its jobs: input splits with locality
//!   preferences, the map and reduce task bodies, shuffle accounting,
//!   per-task history events (the raw material of task-progress plots,
//!   Fig. 7). A task attempt is one thread: its sort, spills, fetches
//!   and merges run on the slot worker that took it;
//! * `wave` (crate-private) — the scheduler one wave of tasks runs
//!   under: placement, retries, speculative backups, node-loss
//!   recovery. Its slot workers are the engine's only threads;
//! * [`streaming`] — the Hadoop-Streaming analogue: "external"
//!   programs stepped on the task's own thread, the first handed its
//!   input 64 KiB at a time and each later one what its predecessor
//!   wrote, with the data-transformation steps separately timed
//!   (Fig. 6a/6b);
//! * [`counters`] — job counters (records/bytes shuffled, spills, merge
//!   passes, transformation time).
//!
//! Scale note: this engine runs *mini-scale* workloads for correctness
//! and accuracy experiments. Paper-scale timing behaviour (220 GB input,
//! 15 nodes) is modelled by `gesall-sim` using the same phase structure.

pub mod cluster;
pub mod counters;
pub mod error;
pub mod fault;
mod job;
pub mod lease;
pub mod runtime;
pub mod shipping;
pub mod shuffle;
pub mod streaming;
pub mod task;
mod wave;

pub use cluster::{ClusterResources, NodeResources, TASK_MEMORY_MB, TASK_VCORES};
pub use counters::Counters;
pub use error::GesallError;
pub use fault::{FaultPlan, NodeDeath};
pub use lease::{LeasePermit, SlotLease};
pub use runtime::{
    AttemptOutcome, InputSplit, JobConfig, JobOutput, JobResult, MapReduceEngine, TaskEvent,
    TaskKind,
};
pub use shipping::ShipError;
pub use shuffle::Segment;
pub use task::{
    CollectRecords, HashPartitioner, MapContext, Mapper, OutputFormat, Partitioner, RecordWriter,
    ReduceContext, Reducer,
};

// Tracing types engine users need (`MapReduceEngine::with_recorder`).
pub use gesall_telemetry::{OpenSpan, Phase, Recorder, Span, SpanId, SpanKind};
