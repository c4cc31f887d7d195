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
//!   stage (name, the rows above it that feed it, and a typed value
//!   holding every setting the row's body reads, whose `Debug` text is
//!   the row's fingerprint), the root key over the run's inputs, and the
//!   content keys chained through the rows in one forward pass. The
//!   executor and the reports read it; the paper's §3.2 round rule is a
//!   test over it.
//! * [`dag`] — the DAG executor's counter names.
//! * [`pipeline`] — the DAG executor over the stage table, and the
//!   serial/hybrid baselines; a stage's output
//!   ([`pipeline::StageData`]) is stored and read in `stage_data`.
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
mod stage_data;
mod stages;
pub mod storage;

pub use error::PlatformError;
pub use pipeline::{
    DagRunOptions, GesallPlatform, PipelineOutput, PlatformConfig, RunOptions, StageReport,
};
