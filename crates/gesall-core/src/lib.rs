//! # gesall-core
//!
//! The Gesall platform (the paper's primary contribution, §3): a big-data
//! layer that runs *unmodified* genomic analysis programs over a
//! DFS + MapReduce substrate via **wrapper technology**.
//!
//! * [`storage`] — the distributed storage substrate for BAM (§3.1):
//!   chunk-aware record reading over DFS blocks (chunks may straddle
//!   block boundaries) and logical-partition upload with the custom
//!   block-placement policy.
//! * [`gdpt`] — the Genome Data Parallel Toolkit (§3.2): group
//!   partitioning (by read name), compound group partitioning (the
//!   MarkDuplicates 5′-end keys, with the map-side filter and the
//!   bloom-filter `MarkDup_opt` variant), and (overlapping) range
//!   partitioning for the variant callers.
//! * [`programs`] — external-program wrappers: the aligner posing as
//!   `bwa mem` and a `SamToBam` converter, both speaking bytes over
//!   Hadoop-Streaming-style pipes (Fig. 8).
//! * [`rounds`] — the five MapReduce rounds of the paper's pipeline
//!   (Appendix A.2), as `Mapper`/`Reducer` implementations.
//! * `stages` (crate-private) — the pipeline declared once: one row per
//!   stage (name, parents, content-key fingerprint, body). The graph,
//!   the content keys, the executor and the reports all read it.
//! * [`dag`] — stage graphs: the declaration-order check (every stage
//!   below its parents), content keys chained through ancestry;
//!   [`dag::pipeline_dag`] is the stage table's projection.
//! * [`pipeline`] — the round planner (a new MR round starts whenever the
//!   next program's partitioning requirement is incompatible), the DAG
//!   executor over the stage table, and the serial/hybrid baselines.
//! * [`diagnosis`] — the error-diagnosis toolkit (§3.4/§4.5.2):
//!   concordant/discordant sets, D-count, D-impact, logistic quality
//!   weighting — in memory, on one node.

pub mod dag;
pub mod diagnosis;
pub mod error;
pub mod gdpt;
pub mod pipeline;
pub mod programs;
pub mod rounds;
mod stages;
pub mod storage;

/// The threaded streaming harness `gesall-mapreduce` keeps as its
/// reference, compiled here so `bwa-mem | samtobam` is held to it.
#[cfg(test)]
#[path = "../../gesall-mapreduce/src/streaming/reference.rs"]
mod streaming_reference;

pub use dag::{DagError, DagSpec, StageSpec};
pub use error::PlatformError;
pub use pipeline::{
    DagRunOptions, GesallPlatform, PipelineOutput, PlatformConfig, RunOptions, StageReport,
};
