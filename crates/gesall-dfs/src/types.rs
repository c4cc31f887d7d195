//! What the DFS hands its callers: errors, file and block metadata,
//! configuration, reports, and the counter names it maintains.

use gesall_formats::SharedBytes;
use std::fmt;
use std::path::PathBuf;

/// DFS error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    FileNotFound(String),
    FileExists(String),
    BlockMissing(u64),
    /// Every reachable replica of the block failed checksum
    /// verification — the data is unrecoverable, not worth retrying.
    Corrupt(u64),
    /// The per-op read deadline elapsed before any replica served.
    Timeout(String),
    /// A requested byte range falls outside the file.
    BadRange(String),
    BadPolicy(String),
    NoLiveNodes,
    /// The file is pinned (live cache-entry refcount > 0) and cannot be
    /// deleted until every pin is released. Not retryable — the caller
    /// must wait for the pin holder, not spin on the delete, or retire
    /// it with [`crate::Dfs::sweep_prefix`], which removes it at its
    /// last unpin.
    Pinned(String),
    /// Block-store I/O failed (persisting or mapping a block file), or a
    /// replica read failed transiently. Retryable.
    Io(String),
}

impl DfsError {
    /// Can a retry plausibly succeed? Transient I/O and deadline
    /// expiries are worth re-attempting; corruption with no surviving
    /// replica, missing blocks, and caller bugs are not. Shuffle-fetch
    /// retry loops key off this to avoid spinning on fatal errors.
    pub fn is_retryable(&self) -> bool {
        matches!(self, DfsError::Io(_) | DfsError::Timeout(_))
    }
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::FileNotFound(p) => write!(f, "file not found: {p}"),
            DfsError::FileExists(p) => write!(f, "file already exists: {p}"),
            DfsError::BlockMissing(b) => write!(f, "block {b} missing from all replicas"),
            DfsError::Corrupt(b) => write!(f, "block {b} corrupt on every reachable replica"),
            DfsError::Timeout(m) => write!(f, "read deadline exceeded: {m}"),
            DfsError::BadRange(m) => write!(f, "bad range: {m}"),
            DfsError::BadPolicy(m) => write!(f, "bad placement: {m}"),
            DfsError::NoLiveNodes => write!(f, "no live data nodes remain"),
            DfsError::Pinned(p) => write!(f, "file pinned by a live cache reference: {p}"),
            DfsError::Io(m) => write!(f, "block store i/o: {m}"),
        }
    }
}

impl std::error::Error for DfsError {}

/// One block replica's location and identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    pub id: u64,
    /// Byte length of this block.
    pub len: usize,
    /// Data-node indices holding replicas.
    pub nodes: Vec<usize>,
    /// XXH64 of the block payload, computed at write time and verified
    /// against every replica read ([`crate::checksum`]).
    pub checksum: u64,
}

/// Metadata of one stored file.
#[derive(Debug, Clone)]
pub struct FileInfo {
    pub path: String,
    pub len: usize,
    pub blocks: Vec<BlockInfo>,
}

impl FileInfo {
    /// The node holding the first replica of every block — `Some(node)` if
    /// a single node holds the whole file (a logical partition placed with
    /// the custom policy), `None` otherwise.
    pub fn single_home(&self) -> Option<usize> {
        let first = self.blocks.first()?.nodes.first().copied()?;
        self.blocks
            .iter()
            .all(|b| b.nodes.first() == Some(&first))
            .then_some(first)
    }
}

/// Per-data-node usage counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    pub blocks: usize,
    pub bytes: usize,
}

/// What a node failure cost the filesystem — returned by
/// [`crate::Dfs::fail_node`] so the caller (the MapReduce engine, when a
/// scheduled node death fires) can restore what survived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureReport {
    /// The node that was declared dead.
    pub node: usize,
    /// Block ids whose **last** replica lived on the dead node — their
    /// data is gone and files containing them are unreadable.
    pub blocks_lost: Vec<u64>,
    /// Block ids that survive on other nodes but now hold fewer replicas
    /// than `DfsConfig::replication` — the input of
    /// [`crate::Dfs::re_replicate_blocks`].
    pub under_replicated: Vec<u64>,
}

/// DFS configuration.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    pub n_nodes: usize,
    /// Block size in bytes (HDFS default 128 MiB; tests use KiBs).
    pub block_size: usize,
    pub replication: usize,
    /// When set, every replica is persisted to
    /// `<dir>/node-<n>/block-<id>.blk` and served from a file mapping
    /// ([`SharedBytes::map_file`]): a block read is a refcount bump on
    /// the mapping and the kernel pages bytes in on demand. `None`
    /// (the default) keeps blocks heap-resident, sharing the writer's
    /// backing allocation.
    pub block_store_dir: Option<PathBuf>,
    /// Seed for retry-backoff jitter, so fault-injection runs are
    /// reproducible end to end.
    pub seed: u64,
}

impl Default for DfsConfig {
    fn default() -> DfsConfig {
        DfsConfig {
            n_nodes: 4,
            block_size: 128 * 1024 * 1024,
            replication: 1,
            block_store_dir: None,
            seed: 0,
        }
    }
}

/// Counter names the DFS maintains on its [`gesall_telemetry::MetricsRegistry`].
pub mod metrics_keys {
    /// Payload bytes memcpy'd inside the DFS (block materialization on
    /// write, stitching a multi-block read whose blocks are not adjacent
    /// windows of one backing). Same key as the engine-side gauge so a
    /// whole-pipeline total can be assembled.
    pub const BYTES_COPIED: &str = "mem.bytes.copied";
    /// Bytes stitched together by [`crate::Dfs::read_file_range_shared`]
    /// when a requested range spans blocks that are not adjacent windows
    /// of one backing. Kept apart from [`BYTES_COPIED`]:
    /// range reads serve the shuffle-transit fetch path, whose copy
    /// volume is accounted with the transit layer (`shuffle.bytes.dfs`
    /// et al.), not with the record path's zero-copy gauge.
    pub const BYTES_COPIED_RANGE: &str = "dfs.bytes.copied.range";
    /// Replicas written (block writes × replication).
    pub const BLOCKS_WRITTEN: &str = "dfs.blocks.written";
    /// Payload bytes written across all replicas.
    pub const BYTES_WRITTEN: &str = "dfs.bytes.written";
    /// Block reads served from a live replica.
    pub const BLOCKS_READ: &str = "dfs.blocks.read";
    /// Payload bytes read.
    pub const BYTES_READ: &str = "dfs.bytes.read";
    /// Nodes declared dead via `fail_node`.
    pub const NODE_FAILURES: &str = "dfs.node.failures";
    /// Replicas created by re-replication
    /// ([`crate::Dfs::re_replicate_blocks`]).
    pub const REPLICAS_RESTORED: &str = "dfs.replicas.restored";
    /// Replicas persisted to the block store and served from a file
    /// mapping (only moves when `DfsConfig::block_store_dir` is set).
    pub const BLOCKS_MAPPED: &str = "dfs.blocks.mapped";
    /// Replicas whose payload failed checksum verification — each one
    /// is quarantined (dropped from storage and metadata) on detection.
    pub const BLOCKS_CORRUPT_DETECTED: &str = "dfs.blocks.corrupt.detected";
    /// Replicas re-created from a verified survivor after a corrupt
    /// replica was quarantined (targeted repair).
    pub const BLOCKS_CORRUPT_REPAIRED: &str = "dfs.blocks.corrupt.repaired";
    /// Replicas created by [`crate::Dfs::re_replicate_blocks`] — the
    /// incremental (per-node-index) repair path, vs the full sweep.
    pub const BLOCKS_REREPLICATED_INCREMENTAL: &str = "dfs.blocks.rereplicated.incremental";
    /// Block reads re-attempted after a transient failure.
    pub const READS_RETRIED: &str = "dfs.reads.retried";
    /// Block reads whose suspect-slow primary overran the hedge budget,
    /// so the alternate replica was read too.
    pub const READS_HEDGED: &str = "dfs.reads.hedged";
    /// Hedged reads the alternate replica won (it verified).
    pub const READS_HEDGE_WINS: &str = "dfs.reads.hedge_wins";
    /// Stale shuffle-transit files removed by [`crate::Dfs::sweep_orphans`].
    pub const ORPHANS_SWEPT: &str = "dfs.orphans.swept";
    /// Files removed by a live retention sweep ([`crate::Dfs::sweep_prefix`])
    /// when the owning job finished — the job-end transit cleanup.
    pub const RETENTION_SWEPT_COMPLETED: &str = "dfs.retention.swept.completed";
    /// Files removed by a retention sweep because the owner released
    /// them: its handle was dropped, or the service shut down.
    pub const RETENTION_SWEPT_RELEASED: &str = "dfs.retention.swept.released";
    /// Files removed by a retention sweep because the owning job was
    /// cancelled before finishing.
    pub const RETENTION_SWEPT_CANCELLED: &str = "dfs.retention.swept.cancelled";
    /// Files a retention sweep found pinned and marked instead of
    /// removing. Each goes at its last [`crate::Dfs::unpin`], and is
    /// then counted under its sweep's `dfs.retention.swept.*` key.
    pub const RETENTION_PIN_SKIPS: &str = "dfs.retention.pin_skips";
    /// Content-addressed store writes that stored a new entry.
    pub const CAS_PUTS: &str = "dfs.cas.puts";
    /// CAS lookups (get or put) that found the entry already present.
    pub const CAS_HITS: &str = "dfs.cas.hits";
    /// CAS gets that found no entry for the key.
    pub const CAS_MISSES: &str = "dfs.cas.misses";
    /// CAS puts whose payload equalled a live file's, byte for byte: the
    /// new entry's blocks window that file's backing instead of the
    /// payload's.
    pub const CAS_DEDUP_HITS: &str = "dfs.cas.dedup.hits";
    /// Gauge: bytes of the distinct allocations the block store holds
    /// ([`crate::Dfs::resident_bytes`]).
    pub const MEM_RESIDENT_BYTES: &str = "dfs.mem.resident_bytes";
}

/// Why a retention sweep ran. Picks the counter the swept files are
/// charged to, splitting what used to be one undifferentiated
/// `dfs.orphans.swept` total into per-cause retention families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepReason {
    /// The job that owned the prefix ran to the end (success or error).
    Completed,
    /// The owner released it: its handle was dropped, or the service
    /// that retained it shut down.
    Released,
    /// The owning job was cancelled.
    Cancelled,
}

impl SweepReason {
    pub(crate) fn counter_key(self) -> &'static str {
        match self {
            SweepReason::Completed => metrics_keys::RETENTION_SWEPT_COMPLETED,
            SweepReason::Released => metrics_keys::RETENTION_SWEPT_RELEASED,
            SweepReason::Cancelled => metrics_keys::RETENTION_SWEPT_CANCELLED,
        }
    }
}

/// What a retention sweep did: files removed, and files a live pin
/// kept in place. Those are marked and go at their last unpin, so a
/// sweep retires its whole prefix and nobody has to come back for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Files deleted by this sweep.
    pub swept: usize,
    /// Pinned files marked to go at their last unpin.
    pub pinned_skipped: usize,
}

/// A reader's replica-placement preference: the node the reader is
/// executing on. [`crate::Dfs::read_block_at`] serves the co-located replica
/// when one is live, falling back to the normal replica order (and all
/// of the hedging/quarantine/retry machinery) when there isn't — the
/// shuffle's "move the fetch, not the bytes" lever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadAffinity(pub Option<usize>);

impl ReadAffinity {
    /// No preference: replicas are tried in placement order.
    pub const NONE: ReadAffinity = ReadAffinity(None);

    /// Prefer replicas on `node`.
    pub fn node(node: usize) -> ReadAffinity {
        ReadAffinity(Some(node))
    }
}

/// A range read plus its locality split: how many of the bytes were
/// served by the affinity node's own replica versus shipped from
/// another node. `local_bytes + remote_bytes` counts the block slices
/// actually read for the range.
#[derive(Debug, Clone)]
pub struct RangeRead {
    pub bytes: SharedBytes,
    pub local_bytes: u64,
    pub remote_bytes: u64,
}
