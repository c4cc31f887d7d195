//! # gesall-dfs
//!
//! An HDFS-like distributed block store, in-process.
//!
//! Files are split into fixed-size blocks, replicated across data nodes,
//! and located through a name node — the storage substrate under
//! Gesall's genomic data layer (paper §3.1). Two features matter to the
//! paper and are first-class here:
//!
//! 1. **Arbitrary block splitting.** A file's byte stream is cut at
//!    block-size boundaries with no knowledge of record framing, so a
//!    BAM chunk may straddle two blocks; the platform's record reader
//!    must stitch them (handled in `gesall-core`).
//! 2. **Pluggable block placement.** The default policy spreads blocks;
//!    the custom [`placement::LogicalPartitionPlacement`] pins *all*
//!    blocks of a file to one node — how Gesall guarantees a logical
//!    partition is readable locally by a wrapped single-node program.

pub mod checksum;
mod faults;
pub mod fs;
mod namespace;
pub mod placement;
mod read;
mod recovery;
mod retention;
mod store;
mod types;

pub use fs::{
    metrics_keys, BlockBacking, BlockInfo, Dfs, DfsConfig, DfsError, FailureReport, FileInfo,
    NodeStats, RangeRead, ReadAffinity, SweepReason, SweepReport,
};
pub use placement::{
    BlockPlacementPolicy, DefaultPlacement, LogicalPartitionPlacement, PinnedPlacement,
};
pub use read::{HEDGE_AFTER_MICROS, READ_DEADLINE_MS, READ_RETRIES, RETRY_BACKOFF_MS};
