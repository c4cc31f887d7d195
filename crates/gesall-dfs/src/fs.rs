//! The distributed file system: name node + data nodes + client API.

use crate::checksum::xxh64;
use crate::placement::{BlockPlacementPolicy, DefaultPlacement};
use gesall_formats::SharedBytes;
use gesall_telemetry::{Histogram, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// must wait for the pin holder, not spin on the delete.
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
/// [`Dfs::fail_node`] so the caller (typically the MapReduce engine's
/// node-death hook) can decide whether to re-replicate or re-run work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureReport {
    /// The node that was declared dead.
    pub node: usize,
    /// Block ids whose **last** replica lived on the dead node — their
    /// data is gone and files containing them are unreadable.
    pub blocks_lost: Vec<u64>,
    /// Block ids that survive on other nodes but now hold fewer replicas
    /// than `DfsConfig::replication` — candidates for [`Dfs::re_replicate`].
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
    /// How many times a failed block read is re-attempted when the
    /// failure is transient ([`DfsError::is_retryable`]). Each retry
    /// sleeps an exponentially growing, seed-jittered backoff.
    pub read_retries: usize,
    /// Base backoff before the first retry, in milliseconds; doubles
    /// per attempt with ±50% deterministic jitter from `seed`.
    pub retry_backoff_ms: u64,
    /// Per-op deadline for one `read_block` call, retries included.
    /// Exhausting it yields [`DfsError::Timeout`].
    pub read_deadline_ms: u64,
    /// Hedged-read latency budget, in microseconds. When a block has a
    /// second live replica and the primary replica's node shows a p90
    /// read latency above this budget (per-node log2 histogram), the
    /// primary read is raced against the alternate replica and the
    /// first finisher wins — the storage-layer analogue of speculative
    /// task execution.
    pub hedge_after_micros: u64,
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
            read_retries: 3,
            retry_backoff_ms: 1,
            read_deadline_ms: 10_000,
            hedge_after_micros: 5_000,
            seed: 0,
        }
    }
}

/// How a stored replica holds its payload. Either way,
/// [`Dfs::read_block`] serves a zero-copy window — the variants differ
/// only in *whose* allocation is shared: the writer's heap backing, or
/// a read-only mapping of the persisted block file.
pub enum BlockBacking {
    /// Heap-resident: shares the writer's backing allocation.
    Resident(SharedBytes),
    /// Persisted to the node's block store and served via `mmap`
    /// (heap-read fallback off-unix); dropping the last reader unmaps.
    Mapped { bytes: SharedBytes, path: PathBuf },
}

impl BlockBacking {
    fn bytes(&self) -> &SharedBytes {
        match self {
            BlockBacking::Resident(b) => b,
            BlockBacking::Mapped { bytes, .. } => bytes,
        }
    }

    fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Remove the on-disk file behind a mapped replica (the mapping
    /// itself stays valid for existing readers until they drop).
    fn unlink(&self) {
        if let BlockBacking::Mapped { path, .. } = self {
            std::fs::remove_file(path).ok();
        }
    }
}

struct DataNode {
    blocks: RwLock<HashMap<u64, BlockBacking>>,
}

struct NameNode {
    files: RwLock<HashMap<String, FileInfo>>,
}

/// A pending corrupt-on-write injection: flip a byte of the stored
/// replica whenever a write's path contains `path_contains` and the
/// block index matches. The block's metadata checksum keeps the true
/// value, so the next read of that replica detects the damage.
struct CorruptOnWrite {
    path_contains: String,
    block: usize,
    replica: usize,
}

/// Gray-failure injection state, armed by the fault harness
/// ([`Dfs::inject_corrupt_on_write`] et al.). All injections apply to
/// the client read/write paths only — the repair path reads replicas
/// directly, as a datanode-local scrubber would.
#[derive(Default)]
struct FaultState {
    corrupt_on_write: Mutex<Vec<CorruptOnWrite>>,
    /// node → remaining reads that fail with a transient error.
    flaky: Mutex<HashMap<usize, u64>>,
    /// node → injected per-read service delay (ms).
    slow: RwLock<HashMap<usize, u64>>,
}

/// The DFS handle. Cheap to clone (`Arc` inside); safe to share across
/// worker threads.
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<DfsInner>,
}

struct DfsInner {
    config: DfsConfig,
    namenode: NameNode,
    datanodes: Vec<DataNode>,
    next_block: AtomicU64,
    /// Nodes declared dead via `fail_node`. Writes avoid them; they never
    /// come back (matching the engine's permanent node-death model).
    dead: RwLock<HashSet<usize>>,
    /// Block id → owning file path. Lets quarantine, targeted repair,
    /// and incremental re-replication reach a block's metadata without
    /// scanning the whole namespace.
    locator: RwLock<HashMap<u64, String>>,
    /// Per-node index of block ids whose metadata lists that node — the
    /// inverse of `FileInfo::blocks[].nodes`. `fail_node` drains the
    /// dead node's entry and scrubs exactly those blocks instead of
    /// sweeping every file.
    node_index: Vec<RwLock<HashSet<u64>>>,
    /// Per-node replica-read service latency (µs), log2-bucketed. The
    /// hedging policy consults the primary node's p90 against
    /// [`DfsConfig::hedge_after_micros`].
    read_lat: Vec<Arc<Histogram>>,
    /// Injected gray failures (see [`FaultState`]).
    faults: FaultState,
    /// Path → live pin refcount. A pinned path refuses [`Dfs::delete`]
    /// and is skipped (not failed) by retention sweeps, so a cache
    /// entry a running stage still reads can never be swept from under
    /// it. Independent of the metadata locks below — pin state is
    /// consulted before any of them is taken.
    pins: Mutex<HashMap<String, u64>>,
    /// Block-level I/O counters (see [`metrics_keys`]).
    metrics: MetricsRegistry,
}

// Lock acquisition order, where two must be held at once:
// `locator` → `namenode.files` → `node_index` → `datanodes[n].blocks`.
// Every multi-lock path below follows it.

/// Counter names the DFS maintains on its [`MetricsRegistry`].
pub mod metrics_keys {
    /// Payload bytes memcpy'd inside the DFS (block materialization on
    /// write, multi-block concatenation on read). Same key as the
    /// engine-side gauge so a whole-pipeline total can be assembled.
    pub const BYTES_COPIED: &str = "mem.bytes.copied";
    /// Bytes stitched together by [`Dfs::read_file_range_shared`] when a
    /// requested range spans blocks. Kept apart from [`BYTES_COPIED`]:
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
    /// Replicas created by `re_replicate` sweeps.
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
    /// Replicas created by [`Dfs::re_replicate_blocks`] — the
    /// incremental (per-node-index) repair path, vs the full sweep.
    pub const BLOCKS_REREPLICATED_INCREMENTAL: &str = "dfs.blocks.rereplicated.incremental";
    /// Block reads re-attempted after a transient failure.
    pub const READS_RETRIED: &str = "dfs.reads.retried";
    /// Block reads where a hedge (second replica race) was launched
    /// because the primary exceeded its latency budget.
    pub const READS_HEDGED: &str = "dfs.reads.hedged";
    /// Hedged reads where the alternate replica finished first.
    pub const READS_HEDGE_WINS: &str = "dfs.reads.hedge_wins";
    /// Stale shuffle-transit files removed by [`Dfs::sweep_orphans`].
    pub const ORPHANS_SWEPT: &str = "dfs.orphans.swept";
    /// Files removed by a live retention sweep ([`Dfs::sweep_prefix`])
    /// when the owning job finished — the job-end transit cleanup.
    pub const RETENTION_SWEPT_COMPLETED: &str = "dfs.retention.swept.completed";
    /// Files removed by a retention sweep because the owner's TTL
    /// lapsed or its handle was dropped (retention released).
    pub const RETENTION_SWEPT_TTL: &str = "dfs.retention.swept.ttl";
    /// Files removed by a retention sweep because the owning job was
    /// cancelled before finishing.
    pub const RETENTION_SWEPT_CANCELLED: &str = "dfs.retention.swept.cancelled";
    /// Files a retention sweep *skipped* because a live pin protected
    /// them. A nonzero skip count tells the sweeper the namespace is
    /// not yet fully retired.
    pub const RETENTION_PIN_SKIPS: &str = "dfs.retention.pin_skips";
    /// Content-addressed store writes that stored a new entry.
    pub const CAS_PUTS: &str = "dfs.cas.puts";
    /// CAS lookups (get or put) that found the entry already present.
    pub const CAS_HITS: &str = "dfs.cas.hits";
    /// CAS gets that found no entry for the key.
    pub const CAS_MISSES: &str = "dfs.cas.misses";
}

/// Why a retention sweep ran. Picks the counter the swept files are
/// charged to, splitting what used to be one undifferentiated
/// `dfs.orphans.swept` total into per-cause retention families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepReason {
    /// The job that owned the prefix ran to the end (success or error).
    Completed,
    /// The owner's retention TTL lapsed, or its handle was dropped.
    Ttl,
    /// The owning job was cancelled.
    Cancelled,
}

impl SweepReason {
    fn counter_key(self) -> &'static str {
        match self {
            SweepReason::Completed => metrics_keys::RETENTION_SWEPT_COMPLETED,
            SweepReason::Ttl => metrics_keys::RETENTION_SWEPT_TTL,
            SweepReason::Cancelled => metrics_keys::RETENTION_SWEPT_CANCELLED,
        }
    }
}

/// What a retention sweep actually did: files removed, and files it had
/// to leave in place because a live pin protected them. A sweeper that
/// sees `pinned_skipped > 0` knows the prefix is not fully retired and
/// should come back after the pins release.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Files deleted by this sweep.
    pub swept: usize,
    /// Files skipped because their pin refcount was nonzero.
    pub pinned_skipped: usize,
}

impl Dfs {
    pub fn new(config: DfsConfig) -> Dfs {
        assert!(config.n_nodes > 0, "need at least one data node");
        assert!(config.block_size > 0, "block size must be positive");
        let datanodes = (0..config.n_nodes)
            .map(|_| DataNode {
                blocks: RwLock::new(HashMap::new()),
            })
            .collect();
        let metrics = MetricsRegistry::new();
        let read_lat = (0..config.n_nodes)
            .map(|n| metrics.histogram(&format!("dfs.read.latency.node{n}.micros")))
            .collect();
        let node_index = (0..config.n_nodes)
            .map(|_| RwLock::new(HashSet::new()))
            .collect();
        Dfs {
            inner: Arc::new(DfsInner {
                config,
                namenode: NameNode {
                    files: RwLock::new(HashMap::new()),
                },
                datanodes,
                next_block: AtomicU64::new(1),
                dead: RwLock::new(HashSet::new()),
                locator: RwLock::new(HashMap::new()),
                node_index,
                read_lat,
                faults: FaultState::default(),
                pins: Mutex::new(HashMap::new()),
                metrics,
            }),
        }
    }

    pub fn config(&self) -> &DfsConfig {
        &self.inner.config
    }

    /// The registry holding this filesystem's I/O counters
    /// ([`metrics_keys`]). Clones share state.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Write a borrowed payload with the default (spreading) placement.
    ///
    /// The payload is materialized **once** into a shared backing (the
    /// only copy this path charges to `mem.bytes.copied`); the stored
    /// blocks are zero-copy windows into it. Callers that already own
    /// their bytes skip even that copy with [`Dfs::write_file_shared`].
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<FileInfo, DfsError> {
        let shared = SharedBytes::copy_from_slice(data);
        self.inner
            .metrics
            .counter(metrics_keys::BYTES_COPIED)
            .add(shared.len() as u64);
        self.write_file_shared(path, shared)
    }

    /// Write an owned payload with the default placement, copying
    /// nothing: every stored block is a slice of the payload's backing.
    pub fn write_file_shared(&self, path: &str, data: SharedBytes) -> Result<FileInfo, DfsError> {
        self.write_shared_with_policy(path, data, &DefaultPlacement)
    }

    /// Zero-copy write: slice `data` into block-sized windows and hand
    /// each window to its replica homes. No payload byte is copied —
    /// all replicas of a block share one backing with the caller. This
    /// is the entry point the logical-partition uploader and the
    /// shuffle's pinned map outputs use.
    pub fn write_shared_with_policy(
        &self,
        path: &str,
        data: SharedBytes,
        policy: &dyn BlockPlacementPolicy,
    ) -> Result<FileInfo, DfsError> {
        {
            let files = self.inner.namenode.files.read();
            if files.contains_key(path) {
                return Err(DfsError::FileExists(path.to_string()));
            }
        }
        let n_nodes = self.inner.config.n_nodes;
        let replication = self.inner.config.replication;
        let dead = self.inner.dead.read().clone();
        if dead.len() >= n_nodes {
            return Err(DfsError::NoLiveNodes);
        }
        let block_size = self.inner.config.block_size;
        let mut blocks = Vec::new();
        for bi in 0..data.len().div_ceil(block_size) {
            let chunk = data.slice(bi * block_size..((bi + 1) * block_size).min(data.len()));
            let nodes = policy.place(path, bi, n_nodes, replication);
            if nodes.is_empty() || nodes.iter().any(|&n| n >= n_nodes) {
                return Err(DfsError::BadPolicy(format!(
                    "policy returned invalid nodes {nodes:?}"
                )));
            }
            let nodes = remap_around_dead(nodes, &dead, n_nodes)?;
            let id = self.inner.next_block.fetch_add(1, Ordering::Relaxed);
            let checksum = xxh64(chunk.as_slice());
            for &n in &nodes {
                self.store_replica(n, id, &chunk, checksum)?;
            }
            self.apply_corrupt_on_write(path, bi, &nodes, id);
            let m = &self.inner.metrics;
            m.counter(metrics_keys::BLOCKS_WRITTEN).add(nodes.len() as u64);
            m.counter(metrics_keys::BYTES_WRITTEN)
                .add((chunk.len() * nodes.len()) as u64);
            blocks.push(BlockInfo {
                id,
                len: chunk.len(),
                nodes,
                checksum,
            });
        }
        {
            let mut locator = self.inner.locator.write();
            for b in &blocks {
                locator.insert(b.id, path.to_string());
            }
        }
        for b in &blocks {
            for &n in &b.nodes {
                self.inner.node_index[n].write().insert(b.id);
            }
        }
        let info = FileInfo {
            path: path.to_string(),
            len: data.len(),
            blocks,
        };
        self.inner
            .namenode
            .files
            .write()
            .insert(path.to_string(), info.clone());
        Ok(info)
    }

    /// File metadata (block list + replica locations).
    pub fn stat(&self, path: &str) -> Result<FileInfo, DfsError> {
        self.inner
            .namenode
            .files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))
    }

    /// Does the file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.inner.namenode.files.read().contains_key(path)
    }

    /// Store one replica on `node`: heap-resident sharing the writer's
    /// backing, or — with a block store configured — persisted to the
    /// node's directory and re-served through a file mapping. With a
    /// block store, the block's checksum is also appended to the node's
    /// `checksums.crc` log, persisting integrity metadata alongside the
    /// blocks.
    fn store_replica(
        &self,
        node: usize,
        id: u64,
        chunk: &SharedBytes,
        checksum: u64,
    ) -> Result<(), DfsError> {
        let io = |e: std::io::Error| DfsError::Io(format!("block {id} on node {node}: {e}"));
        let backing = match &self.inner.config.block_store_dir {
            Some(dir) => {
                let node_dir = dir.join(format!("node-{node}"));
                std::fs::create_dir_all(&node_dir).map_err(io)?;
                append_checksum_record(&node_dir, id, checksum).map_err(io)?;
                let path = node_dir.join(format!("block-{id}.blk"));
                std::fs::write(&path, chunk.as_slice()).map_err(io)?;
                let bytes = SharedBytes::map_file(&path).map_err(io)?;
                self.inner.metrics.counter(metrics_keys::BLOCKS_MAPPED).add(1);
                BlockBacking::Mapped { bytes, path }
            }
            None => BlockBacking::Resident(chunk.clone()),
        };
        self.inner.datanodes[node].blocks.write().insert(id, backing);
        Ok(())
    }

    /// Read one block from any live replica. Zero-copy: the returned
    /// handle is a window onto the stored block itself (the writer's
    /// backing, or the block file's mapping when persisted).
    ///
    /// Every replica payload is verified against the block's checksum;
    /// a mismatch quarantines that replica, repairs it from a verified
    /// survivor, and falls through to the next replica — a corrupt
    /// replica never reaches the caller. Transient failures are retried
    /// up to [`DfsConfig::read_retries`] times with seeded-jitter
    /// exponential backoff under a per-op deadline, and a slow primary
    /// replica is hedged against an alternate (see
    /// [`DfsConfig::hedge_after_micros`]).
    pub fn read_block(&self, block: &BlockInfo) -> Result<SharedBytes, DfsError> {
        self.read_block_at(block, ReadAffinity::NONE)
            .map(|(bytes, _)| bytes)
    }

    /// [`Dfs::read_block`] with a replica-placement preference: when the
    /// affinity node holds a live replica it is tried first, so a
    /// reader co-located with a replica is served without crossing the
    /// network. Affinity only *reorders* replica preference — every
    /// fallback (hedging a slow preferred node, quarantine, retry,
    /// repair) behaves exactly as without it. Also returns the node
    /// that actually served the bytes, so callers can account local
    /// versus remote traffic.
    pub fn read_block_at(
        &self,
        block: &BlockInfo,
        affinity: ReadAffinity,
    ) -> Result<(SharedBytes, usize), DfsError> {
        let cfg = &self.inner.config;
        let start = Instant::now();
        let deadline = Duration::from_millis(cfg.read_deadline_ms.max(1));
        let mut attempt = 0usize;
        loop {
            match self.read_block_once(block, affinity) {
                Ok((bytes, node)) => {
                    let m = &self.inner.metrics;
                    m.counter(metrics_keys::BLOCKS_READ).add(1);
                    m.counter(metrics_keys::BYTES_READ).add(bytes.len() as u64);
                    return Ok((bytes, node));
                }
                Err(e) if e.is_retryable() && attempt < cfg.read_retries => {
                    attempt += 1;
                    self.inner
                        .metrics
                        .counter(metrics_keys::READS_RETRIED)
                        .add(1);
                    let pause =
                        backoff_with_jitter(cfg.retry_backoff_ms, attempt, cfg.seed, block.id);
                    if start.elapsed() + pause >= deadline {
                        return Err(DfsError::Timeout(format!(
                            "block {}: {} ms deadline exhausted after {attempt} retries ({e})",
                            block.id, cfg.read_deadline_ms
                        )));
                    }
                    std::thread::sleep(pause);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One pass over the block's live replicas: prefer the affinity
    /// node's replica when it exists, hedge the first-choice replica
    /// when its node looks slow, verify whatever payload is served, and
    /// classify the failure if nothing verifies. On success also
    /// returns the node that served the payload.
    fn read_block_once(
        &self,
        block: &BlockInfo,
        affinity: ReadAffinity,
    ) -> Result<(SharedBytes, usize), DfsError> {
        let mut nodes = self.live_replica_nodes(block);
        if nodes.is_empty() {
            return Err(DfsError::BlockMissing(block.id));
        }
        // Affinity is a preference, not a pin: rotate the co-located
        // replica to the front (keeping the rest in placement order for
        // fallback) and leave every other defence untouched — a slow
        // co-located replica still gets hedged against the alternate,
        // and a quarantined one simply isn't in the live list.
        if let Some(want) = affinity.0 {
            if let Some(i) = nodes.iter().position(|&n| n == want) {
                nodes[..=i].rotate_right(1);
            }
        }
        let mut transient: Option<String> = None;
        let mut saw_corrupt = false;
        let mut result: Option<(SharedBytes, usize)> = None;
        let mut next = 0usize;
        if nodes.len() > 1 && self.node_suspect_slow(nodes[0]) {
            next = 2;
            match self.hedged_read(block, nodes[0], nodes[1]) {
                (ReplicaRead::Ok(b), node) => result = Some((b, node)),
                (ReplicaRead::Corrupt, _) => saw_corrupt = true,
                (ReplicaRead::Transient(m), _) => transient = Some(m),
                (ReplicaRead::Missing, _) => {}
            }
        }
        if result.is_none() {
            for &n in &nodes[next.min(nodes.len())..] {
                match self.read_replica(n, block) {
                    ReplicaRead::Ok(b) => {
                        result = Some((b, n));
                        break;
                    }
                    ReplicaRead::Corrupt => saw_corrupt = true,
                    ReplicaRead::Transient(m) => transient = Some(m),
                    ReplicaRead::Missing => {}
                }
            }
        }
        match (result, transient) {
            (Some(served), _) => Ok(served),
            // A transient failure may clear on retry even if another
            // replica was corrupt (that one is already quarantined).
            (None, Some(msg)) => Err(DfsError::Io(msg)),
            (None, None) if saw_corrupt => Err(DfsError::Corrupt(block.id)),
            (None, None) => Err(DfsError::BlockMissing(block.id)),
        }
    }

    /// The block's replica homes per current metadata (the caller's
    /// `BlockInfo` may predate a quarantine or repair), minus dead
    /// nodes. Falls back to the caller's snapshot for deleted files.
    fn live_replica_nodes(&self, block: &BlockInfo) -> Vec<usize> {
        let fresh = {
            let locator = self.inner.locator.read();
            locator.get(&block.id).cloned()
        }
        .and_then(|path| {
            self.inner.namenode.files.read().get(&path).and_then(|info| {
                info.blocks
                    .iter()
                    .find(|b| b.id == block.id)
                    .map(|b| b.nodes.clone())
            })
        });
        let dead = self.inner.dead.read();
        fresh
            .unwrap_or_else(|| block.nodes.clone())
            .into_iter()
            .filter(|n| !dead.contains(n))
            .collect()
    }

    /// Does `node`'s read-latency history (p90) exceed the hedge budget?
    fn node_suspect_slow(&self, node: usize) -> bool {
        let h = &self.inner.read_lat[node];
        h.count() > 0 && h.quantile(0.9).unwrap_or(0) > self.inner.config.hedge_after_micros
    }

    /// Race the suspected-slow `primary` replica against `alt`:
    /// the primary runs on a helper thread; if it hasn't answered
    /// within the hedge budget, read the alternate inline and take
    /// whichever verifies first.
    fn hedged_read(&self, block: &BlockInfo, primary: usize, alt: usize) -> (ReplicaRead, usize) {
        let (tx, rx) = std::sync::mpsc::channel();
        let dfs = self.clone();
        let blk = block.clone();
        std::thread::spawn(move || {
            let _ = tx.send(dfs.read_replica(primary, &blk));
        });
        let budget = Duration::from_micros(self.inner.config.hedge_after_micros.max(1));
        match rx.recv_timeout(budget) {
            Ok(outcome) => (outcome, primary),
            Err(_) => {
                let m = &self.inner.metrics;
                m.counter(metrics_keys::READS_HEDGED).add(1);
                let alt_outcome = self.read_replica(alt, block);
                if matches!(alt_outcome, ReplicaRead::Ok(_)) {
                    m.counter(metrics_keys::READS_HEDGE_WINS).add(1);
                    return (alt_outcome, alt);
                }
                // Alternate lost too: fall back to whatever the primary
                // eventually produces (its thread always terminates).
                match rx.recv() {
                    Ok(outcome) => (outcome, primary),
                    Err(_) => (alt_outcome, alt),
                }
            }
        }
    }

    /// Serve one replica from `node`, applying injected gray failures,
    /// recording service latency, and verifying the checksum. A
    /// mismatch quarantines the replica and triggers targeted repair
    /// before reporting [`ReplicaRead::Corrupt`].
    fn read_replica(&self, node: usize, block: &BlockInfo) -> ReplicaRead {
        let start = Instant::now();
        let slow_ms = self.inner.faults.slow.read().get(&node).copied();
        if let Some(ms) = slow_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if self.take_flaky_failure(node) {
            // The failed read still cost its service time: a limping
            // node that also flakes builds latency history from its
            // first read, not once its flake budget is spent.
            self.inner.read_lat[node].record(start.elapsed().as_micros() as u64);
            return ReplicaRead::Transient(format!(
                "transient read failure on node {node} (block {})",
                block.id
            ));
        }
        let bytes = {
            let blocks = self.inner.datanodes[node].blocks.read();
            match blocks.get(&block.id) {
                Some(b) => b.bytes().clone(),
                None => return ReplicaRead::Missing,
            }
        };
        let verified = xxh64(bytes.as_slice()) == block.checksum;
        self.inner.read_lat[node].record(start.elapsed().as_micros() as u64);
        if verified {
            ReplicaRead::Ok(bytes)
        } else {
            if self.quarantine_replica(node, block.id) {
                self.repair_block(block.id);
            }
            ReplicaRead::Corrupt
        }
    }

    /// Injected flaky read: consume one scheduled failure for `node`.
    fn take_flaky_failure(&self, node: usize) -> bool {
        let mut flaky = self.inner.faults.flaky.lock();
        match flaky.get_mut(&node) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Drop a replica that failed verification: scrub it from the
    /// block's metadata and node index, then remove its storage.
    /// Returns `true` for the caller that actually removed the stored
    /// payload (concurrent detections count the corruption once).
    fn quarantine_replica(&self, node: usize, id: u64) -> bool {
        let path = self.inner.locator.read().get(&id).cloned();
        if let Some(path) = path {
            let mut files = self.inner.namenode.files.write();
            if let Some(info) = files.get_mut(&path) {
                if let Some(b) = info.blocks.iter_mut().find(|b| b.id == id) {
                    b.nodes.retain(|&n| n != node);
                }
            }
        }
        self.inner.node_index[node].write().remove(&id);
        match self.inner.datanodes[node].blocks.write().remove(&id) {
            Some(backing) => {
                backing.unlink();
                self.inner
                    .metrics
                    .counter(metrics_keys::BLOCKS_CORRUPT_DETECTED)
                    .add(1);
                true
            }
            None => false,
        }
    }

    /// Targeted repair after a quarantine: restore the block to its
    /// effective replication from a checksum-verified survivor. Counts
    /// created replicas under [`metrics_keys::BLOCKS_CORRUPT_REPAIRED`].
    fn repair_block(&self, id: u64) -> usize {
        let (live, effective) = self.live_and_effective();
        let path = self.inner.locator.read().get(&id).cloned();
        let Some(path) = path else { return 0 };
        let mut files = self.inner.namenode.files.write();
        let Some(info) = files.get_mut(&path) else { return 0 };
        let Some(b) = info.blocks.iter_mut().find(|b| b.id == id) else {
            return 0;
        };
        let (created, _) = self.restore_block_locked(b, &live, effective);
        if created > 0 {
            self.inner
                .metrics
                .counter(metrics_keys::BLOCKS_CORRUPT_REPAIRED)
                .add(created as u64);
        }
        created
    }

    /// Live nodes and the replication factor they can support.
    fn live_and_effective(&self) -> (Vec<usize>, usize) {
        let dead = self.inner.dead.read();
        let live: Vec<usize> = (0..self.inner.config.n_nodes)
            .filter(|n| !dead.contains(n))
            .collect();
        let effective = self.inner.config.replication.min(live.len());
        (live, effective)
    }

    /// Read a whole file as shared bytes. A file that fits in one block
    /// is served zero-copy (the result shares the stored block's
    /// backing); multi-block files pay one counted concatenation.
    pub fn read_file_shared(&self, path: &str) -> Result<SharedBytes, DfsError> {
        let info = self.stat(path)?;
        match info.blocks.len() {
            0 => Ok(SharedBytes::new()),
            1 => self.read_block(&info.blocks[0]),
            _ => {
                let mut out = Vec::with_capacity(info.len);
                for b in &info.blocks {
                    out.extend_from_slice(&self.read_block(b)?);
                }
                self.inner
                    .metrics
                    .counter(metrics_keys::BYTES_COPIED)
                    .add(out.len() as u64);
                Ok(SharedBytes::from_vec(out))
            }
        }
    }

    /// Read `len` bytes of a file starting at `offset`, as shared
    /// bytes. A range that stays inside one block is served zero-copy —
    /// a window onto the stored block (for DFS-transit shuffle fetches
    /// this is the common case: one partition's frames out of a map
    /// output file). Ranges spanning blocks pay one counted
    /// concatenation of just the overlapped slices.
    pub fn read_file_range_shared(
        &self,
        path: &str,
        offset: usize,
        len: usize,
    ) -> Result<SharedBytes, DfsError> {
        self.read_file_range_shared_at(path, offset, len, ReadAffinity::NONE)
            .map(|r| r.bytes)
    }

    /// [`Dfs::read_file_range_shared`] with a [`ReadAffinity`] hint:
    /// every block read in the range prefers the affinity node's
    /// replica, and the returned [`RangeRead`] splits the bytes by
    /// whether the serving replica was the affinity node (local) or any
    /// other (remote) — the shuffle's locality accounting. Without an
    /// affinity node everything counts as remote.
    pub fn read_file_range_shared_at(
        &self,
        path: &str,
        offset: usize,
        len: usize,
        affinity: ReadAffinity,
    ) -> Result<RangeRead, DfsError> {
        let info = self.stat(path)?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= info.len)
            .ok_or_else(|| {
                DfsError::BadRange(format!(
                    "range {offset}+{len} beyond {path} (len {})",
                    info.len
                ))
            })?;
        if len == 0 {
            return Ok(RangeRead {
                bytes: SharedBytes::new(),
                local_bytes: 0,
                remote_bytes: 0,
            });
        }
        // Which slice of each block does the range overlap?
        let mut parts: Vec<(&BlockInfo, usize, usize)> = Vec::new();
        let mut block_start = 0usize;
        for b in &info.blocks {
            let block_end = block_start + b.len;
            if block_end > offset && block_start < end {
                let lo = offset.max(block_start) - block_start;
                let hi = end.min(block_end) - block_start;
                parts.push((b, lo, hi));
            }
            block_start = block_end;
            if block_start >= end {
                break;
            }
        }
        let mut local_bytes = 0u64;
        let mut remote_bytes = 0u64;
        let mut tally = |served: usize, n: u64| {
            if affinity.0 == Some(served) {
                local_bytes += n;
            } else {
                remote_bytes += n;
            }
        };
        if let [(b, lo, hi)] = parts[..] {
            let (block, served) = self.read_block_at(b, affinity)?;
            tally(served, (hi - lo) as u64);
            let bytes = if lo == 0 && hi == block.len() {
                block
            } else {
                block.slice(lo..hi)
            };
            return Ok(RangeRead {
                bytes,
                local_bytes,
                remote_bytes,
            });
        }
        let mut v = Vec::with_capacity(len);
        for (b, lo, hi) in parts {
            let (block, served) = self.read_block_at(b, affinity)?;
            tally(served, (hi - lo) as u64);
            v.extend_from_slice(&block.slice(lo..hi));
        }
        debug_assert_eq!(v.len(), len);
        self.inner
            .metrics
            .counter(metrics_keys::BYTES_COPIED_RANGE)
            .add(v.len() as u64);
        Ok(RangeRead {
            bytes: SharedBytes::from_vec(v),
            local_bytes,
            remote_bytes,
        })
    }

    /// Would every block of `path` still be readable if the nodes in
    /// `excluded` disappeared? Probes actual data-node storage (not just
    /// metadata), so silently wiped replicas ([`Dfs::kill_node`]) don't
    /// count. This is the engine's reship-vs-rerun question: a map
    /// output that survives its home's death on some replica can be
    /// re-fetched instead of re-computed.
    pub fn file_available_excluding(&self, path: &str, excluded: &[usize]) -> bool {
        let Ok(info) = self.stat(path) else {
            return false;
        };
        info.blocks.iter().all(|b| {
            b.nodes.iter().any(|&n| {
                !excluded.contains(&n)
                    && !self.inner.dead.read().contains(&n)
                    && self.inner.datanodes[n].blocks.read().contains_key(&b.id)
            })
        })
    }

    /// Pin a file: while its refcount is nonzero, [`Dfs::delete`]
    /// refuses with [`DfsError::Pinned`] and retention sweeps skip it.
    /// Pins nest — each `pin` needs a matching [`Dfs::unpin`].
    pub fn pin(&self, path: &str) -> Result<(), DfsError> {
        if !self.exists(path) {
            return Err(DfsError::FileNotFound(path.to_string()));
        }
        *self.inner.pins.lock().entry(path.to_string()).or_insert(0) += 1;
        Ok(())
    }

    /// Release one pin on `path`. Releasing a path with no live pin is
    /// a no-op (pin holders may race a namespace teardown).
    pub fn unpin(&self, path: &str) {
        let mut pins = self.inner.pins.lock();
        if let Some(n) = pins.get_mut(path) {
            *n -= 1;
            if *n == 0 {
                pins.remove(path);
            }
        }
    }

    /// Current pin refcount of `path` (0 when unpinned or unknown).
    pub fn pin_count(&self, path: &str) -> u64 {
        self.inner.pins.lock().get(path).copied().unwrap_or(0)
    }

    /// Are any paths under `prefix` currently pinned?
    pub fn any_pinned(&self, prefix: &str) -> bool {
        self.inner
            .pins
            .lock()
            .keys()
            .any(|p| p.starts_with(prefix))
    }

    /// Delete a file and free its replicas. Refuses with
    /// [`DfsError::Pinned`] while the path holds a live pin.
    pub fn delete(&self, path: &str) -> Result<(), DfsError> {
        if self.pin_count(path) > 0 {
            return Err(DfsError::Pinned(path.to_string()));
        }
        let info = {
            let mut files = self.inner.namenode.files.write();
            files
                .remove(path)
                .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?
        };
        {
            let mut locator = self.inner.locator.write();
            for b in &info.blocks {
                locator.remove(&b.id);
            }
        }
        for b in &info.blocks {
            for &n in &b.nodes {
                self.inner.node_index[n].write().remove(&b.id);
                if let Some(backing) = self.inner.datanodes[n].blocks.write().remove(&b.id) {
                    backing.unlink();
                }
            }
        }
        Ok(())
    }

    /// Remove stale shuffle-transit files (`…/shuffle-<run>/…`) left
    /// behind by a crashed prior process. The engine deletes its transit
    /// prefix when a job completes, so anything still matching at
    /// platform startup is an orphan. Returns the number of files swept
    /// (counted under [`metrics_keys::ORPHANS_SWEPT`]).
    pub fn sweep_orphans(&self) -> usize {
        let stale: Vec<String> = self
            .list("")
            .into_iter()
            .filter(|p| is_shuffle_transit_path(p))
            .collect();
        let swept = self.delete_all(&stale).swept;
        if swept > 0 {
            self.inner
                .metrics
                .counter(metrics_keys::ORPHANS_SWEPT)
                .add(swept as u64);
        }
        swept
    }

    /// Live retention sweep: delete every file under `prefix`, charging
    /// the count to `reason`'s counter. Unlike the startup-only
    /// [`Dfs::sweep_orphans`], this is the runtime half of the retention
    /// policy — the engine calls it with [`SweepReason::Completed`] when
    /// a job's shuffle transit is consumed, and the job service calls it
    /// with [`SweepReason::Cancelled`] / [`SweepReason::Ttl`] when a
    /// tenant's job namespace is retired. Pinned files are skipped, not
    /// failed: the report says how many files were removed and how many
    /// a live pin protected (also counted under
    /// [`metrics_keys::RETENTION_PIN_SKIPS`]), so a retirement loop can
    /// tell "namespace empty" from "namespace still referenced".
    pub fn sweep_prefix(&self, prefix: &str, reason: SweepReason) -> SweepReport {
        let report = self.delete_all(&self.list(prefix));
        if report.swept > 0 {
            self.inner
                .metrics
                .counter(reason.counter_key())
                .add(report.swept as u64);
        }
        report
    }

    fn delete_all(&self, paths: &[String]) -> SweepReport {
        let mut report = SweepReport::default();
        for p in paths {
            match self.delete(p) {
                Ok(()) => report.swept += 1,
                Err(DfsError::Pinned(_)) => report.pinned_skipped += 1,
                Err(_) => {}
            }
        }
        if report.pinned_skipped > 0 {
            self.inner
                .metrics
                .counter(metrics_keys::RETENTION_PIN_SKIPS)
                .add(report.pinned_skipped as u64);
        }
        report
    }

    /// All paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .inner
            .namenode
            .files
            .read()
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// The canonical path of a content-addressed entry: `{root}/cas/{key}`
    /// with the key rendered as fixed-width hex, so `list("{root}/cas/")`
    /// enumerates a tenant's whole cache in key order.
    pub fn cas_path(root: &str, key: u64) -> String {
        format!("{root}/cas/{key:016x}")
    }

    /// Store `data` under content key `key` in `root`'s cache. Naturally
    /// idempotent: the path is derived from the content key, so an
    /// already-present entry means an identical payload was committed by
    /// an earlier (or racing) writer and the put degrades to a hit —
    /// `write_shared_with_policy` inserts namenode metadata last, so a
    /// visible entry is always complete. Returns the entry's path.
    pub fn cas_put(&self, root: &str, key: u64, data: SharedBytes) -> Result<String, DfsError> {
        let path = Dfs::cas_path(root, key);
        match self.write_file_shared(&path, data) {
            Ok(_) => {
                self.inner.metrics.counter(metrics_keys::CAS_PUTS).add(1);
                Ok(path)
            }
            Err(DfsError::FileExists(_)) => {
                self.inner.metrics.counter(metrics_keys::CAS_HITS).add(1);
                Ok(path)
            }
            Err(e) => Err(e),
        }
    }

    /// Fetch the entry for `key` in `root`'s cache, or `None` when the
    /// key was never committed. Hits and misses are counted under
    /// [`metrics_keys::CAS_HITS`] / [`metrics_keys::CAS_MISSES`].
    pub fn cas_get(&self, root: &str, key: u64) -> Result<Option<SharedBytes>, DfsError> {
        let path = Dfs::cas_path(root, key);
        if !self.exists(&path) {
            self.inner.metrics.counter(metrics_keys::CAS_MISSES).add(1);
            return Ok(None);
        }
        self.inner.metrics.counter(metrics_keys::CAS_HITS).add(1);
        self.read_file_shared(&path).map(Some)
    }

    /// Per-node storage counters (data-locality accounting).
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.inner
            .datanodes
            .iter()
            .map(|dn| {
                let blocks = dn.blocks.read();
                NodeStats {
                    blocks: blocks.len(),
                    bytes: blocks.values().map(|b| b.len()).sum(),
                }
            })
            .collect()
    }

    /// Drop every replica a node holds **without** telling the name node.
    ///
    /// This is the raw storage-loss primitive (a disk wipe the cluster has
    /// not noticed yet): metadata still lists the node, reads skip the
    /// missing replicas, writes still target it. For a *detected* failure
    /// with metadata scrubbing and a damage report, use [`Dfs::fail_node`].
    pub fn kill_node(&self, node: usize) {
        self.wipe_node_storage(node);
    }

    /// Drop a node's replica map, unlinking any persisted block files.
    fn wipe_node_storage(&self, node: usize) {
        let mut blocks = self.inner.datanodes[node].blocks.write();
        for backing in blocks.values() {
            backing.unlink();
        }
        blocks.clear();
    }

    /// Declare a node dead: drop its replicas, scrub it from the
    /// affected files' block locations, and exclude it from future
    /// writes.
    ///
    /// The scrub is incremental: the per-node block index names exactly
    /// the blocks whose metadata lists this node, so only their owning
    /// files are touched — no namespace-wide sweep. Returns a
    /// [`FailureReport`] listing blocks that lost their last replica
    /// and blocks that are now under-replicated. Calling it twice for
    /// the same node is a no-op reporting no further damage.
    pub fn fail_node(&self, node: usize) -> FailureReport {
        assert!(node < self.inner.config.n_nodes, "no such node: {node}");
        if !self.inner.dead.read().contains(&node) {
            self.inner.metrics.counter(metrics_keys::NODE_FAILURES).add(1);
        }
        self.inner.dead.write().insert(node);
        self.wipe_node_storage(node);
        let held: Vec<u64> = {
            let mut index = self.inner.node_index[node].write();
            index.drain().collect()
        };
        let target = self.inner.config.replication;
        let mut report = FailureReport {
            node,
            ..FailureReport::default()
        };
        let locator = self.inner.locator.read();
        let mut files = self.inner.namenode.files.write();
        for id in held {
            let Some(path) = locator.get(&id) else { continue };
            let Some(info) = files.get_mut(path) else { continue };
            let Some(b) = info.blocks.iter_mut().find(|b| b.id == id) else {
                continue;
            };
            if let Some(pos) = b.nodes.iter().position(|&n| n == node) {
                b.nodes.remove(pos);
                if b.nodes.is_empty() {
                    report.blocks_lost.push(id);
                } else if b.nodes.len() < target {
                    report.under_replicated.push(id);
                }
            }
        }
        report.blocks_lost.sort_unstable();
        report.under_replicated.sort_unstable();
        report
    }

    /// Nodes declared dead via [`Dfs::fail_node`], sorted.
    pub fn dead_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.inner.dead.read().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Has `node` been declared dead?
    pub fn is_node_dead(&self, node: usize) -> bool {
        self.inner.dead.read().contains(&node)
    }

    /// Copy surviving replicas of under-replicated blocks onto live nodes
    /// until every block reaches `min(replication, live nodes)` replicas —
    /// the name node's re-replication sweep after a failure. Targets are
    /// chosen least-loaded-first; copy sources are checksum-verified, so
    /// a corrupt replica is never propagated (it is quarantined instead).
    /// Returns the number of replicas created.
    pub fn re_replicate(&self) -> usize {
        let (live, effective) = self.live_and_effective();
        let mut created = 0usize;
        let mut files = self.inner.namenode.files.write();
        for info in files.values_mut() {
            for b in info.blocks.iter_mut() {
                let (c, dropped) = self.restore_block_locked(b, &live, effective);
                created += c;
                if dropped > 0 {
                    // Replicas re-created in place of corrupt sources
                    // found during this sweep count as repairs too.
                    self.inner
                        .metrics
                        .counter(metrics_keys::BLOCKS_CORRUPT_REPAIRED)
                        .add(c.min(dropped) as u64);
                }
            }
        }
        if created > 0 {
            self.inner
                .metrics
                .counter(metrics_keys::REPLICAS_RESTORED)
                .add(created as u64);
        }
        created
    }

    /// Incremental re-replication: restore only the given blocks (as
    /// reported by [`Dfs::fail_node`]) via the block locator, instead of
    /// sweeping the whole namespace. Returns the number of replicas
    /// created, counted under both
    /// [`metrics_keys::BLOCKS_REREPLICATED_INCREMENTAL`] and
    /// [`metrics_keys::REPLICAS_RESTORED`].
    pub fn re_replicate_blocks(&self, ids: &[u64]) -> usize {
        let (live, effective) = self.live_and_effective();
        let mut created = 0usize;
        let locator = self.inner.locator.read();
        let mut files = self.inner.namenode.files.write();
        for &id in ids {
            let Some(path) = locator.get(&id) else { continue };
            let Some(info) = files.get_mut(path) else { continue };
            let Some(b) = info.blocks.iter_mut().find(|b| b.id == id) else {
                continue;
            };
            let (c, _) = self.restore_block_locked(b, &live, effective);
            created += c;
        }
        if created > 0 {
            let m = &self.inner.metrics;
            m.counter(metrics_keys::BLOCKS_REREPLICATED_INCREMENTAL)
                .add(created as u64);
            m.counter(metrics_keys::REPLICAS_RESTORED).add(created as u64);
        }
        created
    }

    /// Bring one block (whose metadata entry the caller holds mutably,
    /// under the namenode write lock) back to `effective` replicas.
    /// Sources are checksum-verified; replicas that fail verification
    /// are dropped from storage and metadata on the spot (counted as
    /// detected corruption). Returns `(replicas created, corrupt
    /// replicas dropped)`.
    fn restore_block_locked(
        &self,
        b: &mut BlockInfo,
        live: &[usize],
        effective: usize,
    ) -> (usize, usize) {
        let mut created = 0usize;
        let mut dropped = 0usize;
        while !b.nodes.is_empty() && b.nodes.len() < effective {
            // A verified surviving replica to copy from (kill_node may
            // have silently wiped some listed homes; bit rot may have
            // silently damaged others — probe and verify them all).
            let mut payload: Option<SharedBytes> = None;
            let mut i = 0;
            while i < b.nodes.len() {
                let n = b.nodes[i];
                let candidate = self.inner.datanodes[n]
                    .blocks
                    .read()
                    .get(&b.id)
                    .map(|bb| bb.bytes().clone());
                match candidate {
                    Some(bytes) if xxh64(bytes.as_slice()) == b.checksum => {
                        payload = Some(bytes);
                        break;
                    }
                    Some(_) => {
                        // Corrupt source: quarantine it right here (we
                        // already hold the metadata lock).
                        b.nodes.remove(i);
                        self.inner.node_index[n].write().remove(&b.id);
                        if let Some(bad) = self.inner.datanodes[n].blocks.write().remove(&b.id) {
                            bad.unlink();
                        }
                        self.inner
                            .metrics
                            .counter(metrics_keys::BLOCKS_CORRUPT_DETECTED)
                            .add(1);
                        dropped += 1;
                    }
                    None => i += 1,
                }
            }
            let Some(payload) = payload else { break };
            let Some(&dst) = live
                .iter()
                .filter(|n| !b.nodes.contains(n))
                .min_by_key(|&&n| self.inner.datanodes[n].blocks.read().len())
            else {
                break;
            };
            if self.store_replica(dst, b.id, &payload, b.checksum).is_err() {
                break;
            }
            b.nodes.push(dst);
            self.inner.node_index[dst].write().insert(b.id);
            created += 1;
        }
        (created, dropped)
    }

    /// Flip a byte of the stored replica of `path`'s `block`-th block on
    /// its `replica`-th home — simulated bit rot for integrity tests.
    /// The block's metadata checksum still holds the true value, so the
    /// next read detects and repairs the damage.
    pub fn corrupt_block(&self, path: &str, block: usize, replica: usize) -> Result<(), DfsError> {
        let info = self.stat(path)?;
        let b = info.blocks.get(block).ok_or_else(|| {
            DfsError::BadRange(format!("{path} has {} blocks, not {block}", info.blocks.len()))
        })?;
        let &node = b.nodes.get(replica).ok_or_else(|| {
            DfsError::BadRange(format!(
                "block {} has {} replicas, not {replica}",
                b.id,
                b.nodes.len()
            ))
        })?;
        self.corrupt_replica_storage(node, b.id)
    }

    /// Arm a corrupt-on-write injection: any future write whose path
    /// contains `path_contains` gets the stored payload of its
    /// `block`-th block's `replica`-th home bit-flipped after the write
    /// completes. Deterministic — fires on every matching write.
    pub fn inject_corrupt_on_write(&self, path_contains: &str, block: usize, replica: usize) {
        self.inner
            .faults
            .corrupt_on_write
            .lock()
            .push(CorruptOnWrite {
                path_contains: path_contains.to_string(),
                block,
                replica,
            });
    }

    /// Arm a flaky-read injection: the next `fail_first_n` replica
    /// reads served by `node` fail with a retryable transient error.
    pub fn inject_flaky_reads(&self, node: usize, fail_first_n: u64) {
        self.inner.faults.flaky.lock().insert(node, fail_first_n);
    }

    /// Arm a slow-node injection: every replica read served by `node`
    /// sleeps `delay_ms` first — a limping-but-alive disk. Hedged reads
    /// are the intended countermeasure.
    pub fn inject_slow_node(&self, node: usize, delay_ms: u64) {
        self.inner.faults.slow.write().insert(node, delay_ms);
    }

    /// Apply any armed corrupt-on-write injections to a block just
    /// written to `nodes` as block index `bi` of `path`.
    fn apply_corrupt_on_write(&self, path: &str, bi: usize, nodes: &[usize], id: u64) {
        let plans = self.inner.faults.corrupt_on_write.lock();
        for c in plans.iter() {
            if c.block == bi && path.contains(&c.path_contains) {
                if let Some(&n) = nodes.get(c.replica) {
                    let _ = self.corrupt_replica_storage(n, id);
                }
            }
        }
    }

    /// Replace the stored payload of one replica with a bit-flipped
    /// copy (metadata untouched). Persisted backings are unlinked; the
    /// damaged copy lives heap-resident, which is all the verify path
    /// cares about.
    fn corrupt_replica_storage(&self, node: usize, id: u64) -> Result<(), DfsError> {
        let mut blocks = self.inner.datanodes[node].blocks.write();
        let Some(backing) = blocks.get(&id) else {
            return Err(DfsError::BlockMissing(id));
        };
        let mut flipped = backing.bytes().to_vec();
        match flipped.first_mut() {
            Some(b0) => *b0 ^= 0xA5,
            None => flipped.push(0xA5),
        }
        backing.unlink();
        blocks.insert(id, BlockBacking::Resident(SharedBytes::from_vec(flipped)));
        Ok(())
    }
}

/// A reader's replica-placement preference: the node the reader is
/// executing on. [`Dfs::read_block_at`] serves the co-located replica
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

/// Outcome of serving one replica.
enum ReplicaRead {
    Ok(SharedBytes),
    /// The node doesn't hold this block (wiped or never stored).
    Missing,
    /// A transient failure worth retrying elsewhere or later.
    Transient(String),
    /// Payload failed checksum verification (already quarantined).
    Corrupt,
}

/// Exponential backoff with deterministic ±50% jitter: attempt `k`
/// sleeps `base * 2^(k-1) * [0.5, 1.0)` milliseconds, where the jitter
/// fraction is a pure hash of `(seed, nonce, attempt)` so fault runs
/// replay identically.
fn backoff_with_jitter(base_ms: u64, attempt: usize, seed: u64, nonce: u64) -> Duration {
    let exp = base_ms.max(1).saturating_mul(1 << (attempt - 1).min(6)) as f64;
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(nonce.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((attempt as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let jitter = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    Duration::from_micros((exp * (0.5 + 0.5 * jitter) * 1000.0) as u64)
}

/// Does any path segment look like an engine shuffle-transit run
/// directory (`shuffle-<digits>`)?
fn is_shuffle_transit_path(path: &str) -> bool {
    path.split('/').any(|seg| {
        seg.strip_prefix("shuffle-")
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
    })
}

/// Append one `block-id checksum` record to the node's integrity log,
/// persisting checksums alongside the blocks they cover.
fn append_checksum_record(node_dir: &std::path::Path, id: u64, checksum: u64) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(node_dir.join("checksums.crc"))?;
    writeln!(f, "{id:016x} {checksum:016x}")
}

/// Substitute dead nodes in a placement with the next live node (cyclic
/// scan) not already chosen. If fewer live nodes exist than requested
/// replicas, the surplus replicas are dropped rather than doubled up.
fn remap_around_dead(
    nodes: Vec<usize>,
    dead: &HashSet<usize>,
    n_nodes: usize,
) -> Result<Vec<usize>, DfsError> {
    if dead.is_empty() {
        return Ok(nodes);
    }
    let mut out: Vec<usize> = Vec::with_capacity(nodes.len());
    for n in nodes {
        let mut cand = n;
        let mut steps = 0;
        while dead.contains(&cand) || out.contains(&cand) {
            cand = (cand + 1) % n_nodes;
            steps += 1;
            if steps > n_nodes {
                break;
            }
        }
        if steps <= n_nodes {
            out.push(cand);
        }
    }
    if out.is_empty() {
        return Err(DfsError::NoLiveNodes);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{LogicalPartitionPlacement, PinnedPlacement};

    fn small_dfs() -> Dfs {
        Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 1024,
            replication: 1,
            ..DfsConfig::default()
        })
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    /// Write `data` with both replicas' homes starting at `node`.
    fn write_pinned(dfs: &Dfs, path: &str, data: &[u8], node: usize) -> FileInfo {
        dfs.write_shared_with_policy(path, SharedBytes::copy_from_slice(data), &PinnedPlacement(node))
            .unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let dfs = small_dfs();
        let data = payload(10_000);
        let info = dfs.write_file("/a", &data).unwrap();
        assert_eq!(info.len, 10_000);
        assert_eq!(info.blocks.len(), 10); // 10 × 1 KiB blocks (last partial? 10000/1024 → 9 full + 1 partial = 10)
        assert_eq!(dfs.read_file_shared("/a").unwrap(), data);
    }

    #[test]
    fn block_splitting_sizes() {
        let dfs = small_dfs();
        let info = dfs.write_file("/b", &payload(2500)).unwrap();
        let sizes: Vec<usize> = info.blocks.iter().map(|b| b.len).collect();
        assert_eq!(sizes, vec![1024, 1024, 452]);
    }

    #[test]
    fn empty_file() {
        let dfs = small_dfs();
        let info = dfs.write_file("/empty", &[]).unwrap();
        assert!(info.blocks.is_empty());
        assert_eq!(dfs.read_file_shared("/empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn duplicate_path_rejected() {
        let dfs = small_dfs();
        dfs.write_file("/a", &payload(10)).unwrap();
        assert!(matches!(
            dfs.write_file("/a", &payload(10)),
            Err(DfsError::FileExists(_))
        ));
    }

    #[test]
    fn missing_file_errors() {
        let dfs = small_dfs();
        assert!(matches!(
            dfs.read_file_shared("/nope"),
            Err(DfsError::FileNotFound(_))
        ));
        assert!(dfs.delete("/nope").is_err());
    }

    #[test]
    fn delete_frees_replicas() {
        let dfs = small_dfs();
        dfs.write_file("/a", &payload(5000)).unwrap();
        assert!(dfs.node_stats().iter().any(|s| s.blocks > 0));
        dfs.delete("/a").unwrap();
        assert!(dfs.node_stats().iter().all(|s| s.blocks == 0));
        assert!(!dfs.exists("/a"));
    }

    #[test]
    fn default_placement_spreads_across_nodes() {
        let dfs = small_dfs();
        let info = dfs.write_file("/spread", &payload(8 * 1024)).unwrap();
        let homes: std::collections::HashSet<usize> = info
            .blocks
            .iter()
            .map(|b| b.nodes[0])
            .collect();
        assert_eq!(homes.len(), 4, "8 blocks over 4 nodes should use all");
        assert_eq!(info.single_home(), None);
    }

    #[test]
    fn logical_partition_placement_single_home() {
        let dfs = small_dfs();
        let info = dfs
            .write_shared_with_policy(
                "/part-00001",
                SharedBytes::from_vec(payload(8 * 1024)),
                &LogicalPartitionPlacement,
            )
            .unwrap();
        let home = info.single_home();
        assert!(home.is_some(), "all blocks must share one home");
        // And the stats reflect that node holding everything.
        let stats = dfs.node_stats();
        assert_eq!(stats[home.unwrap()].bytes, 8 * 1024);
    }

    #[test]
    fn replication_survives_node_loss() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(4000);
        let info = write_pinned(&dfs, "/r", &data, 0);
        assert!(info.blocks.iter().all(|b| b.nodes.len() == 2));
        dfs.kill_node(0);
        assert_eq!(dfs.read_file_shared("/r").unwrap(), data, "replica should serve");
        dfs.kill_node(1);
        assert!(matches!(
            dfs.read_file_shared("/r"),
            Err(DfsError::BlockMissing(_))
        ));
    }

    #[test]
    fn fail_node_reports_under_replicated_blocks() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(2000); // 4 blocks, replicas on nodes {0, 1}
        let info = write_pinned(&dfs, "/r", &data, 0);
        let report = dfs.fail_node(0);
        assert_eq!(report.node, 0);
        assert!(report.blocks_lost.is_empty(), "replicas survive on node 1");
        assert_eq!(report.under_replicated.len(), info.blocks.len());
        // Metadata no longer lists the dead node.
        let info = dfs.stat("/r").unwrap();
        assert!(info.blocks.iter().all(|b| b.nodes == vec![1]));
        assert_eq!(dfs.read_file_shared("/r").unwrap(), data);
        assert_eq!(dfs.dead_nodes(), vec![0]);
        assert!(dfs.is_node_dead(0) && !dfs.is_node_dead(1));
        // Failing the same node again reports no further damage.
        let again = dfs.fail_node(0);
        assert!(again.blocks_lost.is_empty() && again.under_replicated.is_empty());
    }

    #[test]
    fn fail_node_reports_lost_blocks_when_unreplicated() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 1,
            ..DfsConfig::default()
        });
        let info = write_pinned(&dfs, "/r", &payload(1500), 2);
        let report = dfs.fail_node(2);
        assert_eq!(report.blocks_lost.len(), info.blocks.len());
        assert!(report.under_replicated.is_empty());
        assert!(matches!(dfs.read_file_shared("/r"), Err(DfsError::BlockMissing(_))));
    }

    #[test]
    fn re_replicate_restores_replication_factor() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(4000);
        write_pinned(&dfs, "/r", &data, 0);
        let report = dfs.fail_node(0);
        assert!(!report.under_replicated.is_empty());
        let created = dfs.re_replicate();
        assert_eq!(created, report.under_replicated.len());
        let info = dfs.stat("/r").unwrap();
        assert!(info.blocks.iter().all(|b| b.nodes.len() == 2));
        assert!(info.blocks.iter().all(|b| !b.nodes.contains(&0)));
        // The restored replication survives losing the other original home.
        dfs.fail_node(1);
        assert_eq!(dfs.read_file_shared("/r").unwrap(), data);
        // Nothing left to do: only one live node remains, so effective
        // replication caps at 1 and a second sweep creates nothing.
        assert_eq!(dfs.re_replicate(), 0);
    }

    #[test]
    fn writes_avoid_dead_nodes() {
        let dfs = small_dfs();
        dfs.fail_node(2);
        let info = write_pinned(&dfs, "/pinned", &payload(3000), 2);
        assert!(
            info.blocks.iter().all(|b| !b.nodes.contains(&2)),
            "placement must be remapped off the dead node: {:?}",
            info.blocks
        );
        assert_eq!(dfs.read_file_shared("/pinned").unwrap(), payload(3000));
        // Spreading writes also skip the dead node.
        let info = dfs.write_file("/spread", &payload(8 * 1024)).unwrap();
        assert!(info.blocks.iter().all(|b| !b.nodes.contains(&2)));
    }

    #[test]
    fn all_nodes_dead_rejects_writes() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 512,
            replication: 1,
            ..DfsConfig::default()
        });
        dfs.fail_node(0);
        dfs.fail_node(1);
        assert!(matches!(
            dfs.write_file("/x", &payload(10)),
            Err(DfsError::NoLiveNodes)
        ));
    }

    #[test]
    fn list_by_prefix() {
        let dfs = small_dfs();
        dfs.write_file("/job/part-0", &payload(1)).unwrap();
        dfs.write_file("/job/part-1", &payload(1)).unwrap();
        dfs.write_file("/other", &payload(1)).unwrap();
        assert_eq!(
            dfs.list("/job/"),
            vec!["/job/part-0".to_string(), "/job/part-1".to_string()]
        );
        assert_eq!(dfs.list("").len(), 3);
    }

    #[test]
    fn metrics_track_block_io_and_recovery() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(1500); // 3 blocks × 2 replicas
        write_pinned(&dfs, "/m", &data, 0);
        let get = |k: &str| dfs.metrics().counter(k).get();
        assert_eq!(get(metrics_keys::BLOCKS_WRITTEN), 6);
        assert_eq!(get(metrics_keys::BYTES_WRITTEN), 3000);
        dfs.read_file_shared("/m").unwrap();
        assert_eq!(get(metrics_keys::BLOCKS_READ), 3);
        assert_eq!(get(metrics_keys::BYTES_READ), 1500);
        dfs.fail_node(0);
        dfs.fail_node(0); // second declaration is not a new failure
        assert_eq!(get(metrics_keys::NODE_FAILURES), 1);
        let created = dfs.re_replicate();
        assert!(created > 0);
        assert_eq!(get(metrics_keys::REPLICAS_RESTORED), created as u64);
    }

    #[test]
    fn shared_write_is_zero_copy() {
        let dfs = small_dfs();
        let data = SharedBytes::from_vec(payload(3000));
        let info = dfs.write_file_shared("/z", data.clone()).unwrap();
        assert_eq!(info.blocks.len(), 3);
        // Stored blocks are windows into the caller's backing, not copies.
        for b in &info.blocks {
            assert!(dfs.read_block(b).unwrap().same_backing(&data));
        }
        assert_eq!(dfs.metrics().counter(metrics_keys::BYTES_COPIED).get(), 0);
        assert_eq!(dfs.read_file_shared("/z").unwrap(), data);
    }

    #[test]
    fn single_block_shared_read_is_zero_copy() {
        let dfs = small_dfs();
        dfs.write_file("/one", &payload(800)).unwrap();
        let after_write = dfs.metrics().counter(metrics_keys::BYTES_COPIED).get();
        let block0 = dfs.read_block(&dfs.stat("/one").unwrap().blocks[0]).unwrap();
        let got = dfs.read_file_shared("/one").unwrap();
        assert_eq!(got, payload(800));
        assert!(got.same_backing(&block0), "single-block read must not copy");
        assert_eq!(
            dfs.metrics().counter(metrics_keys::BYTES_COPIED).get(),
            after_write
        );
        // Multi-block files still concatenate (and count the copy).
        dfs.write_file("/many", &payload(3000)).unwrap();
        assert_eq!(dfs.read_file_shared("/many").unwrap(), payload(3000));
    }

    #[test]
    fn concurrent_writers() {
        let dfs = small_dfs();
        std::thread::scope(|s| {
            for t in 0..8 {
                let dfs = dfs.clone();
                s.spawn(move || {
                    for i in 0..20 {
                        dfs.write_file(&format!("/t{t}/f{i}"), &payload(700)).unwrap();
                    }
                });
            }
        });
        assert_eq!(dfs.list("/t").len(), 160);
        let total: usize = dfs.node_stats().iter().map(|s| s.bytes).sum();
        assert_eq!(total, 160 * 700);
    }

    fn store_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gesall-blockstore-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn persisted_dfs(name: &str, replication: usize) -> (Dfs, PathBuf) {
        let dir = store_dir(name);
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1024,
            replication,
            block_store_dir: Some(dir.clone()),
            ..DfsConfig::default()
        });
        (dfs, dir)
    }

    /// Block-payload files (`.blk`) across all node dirs; the per-node
    /// `checksums.crc` integrity log is not payload.
    fn blk_files(dir: &PathBuf) -> usize {
        let mut n = 0;
        for node in std::fs::read_dir(dir).unwrap().flatten() {
            if node.path().is_dir() {
                n += std::fs::read_dir(node.path())
                    .unwrap()
                    .flatten()
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("blk"))
                    .count();
            }
        }
        n
    }

    #[test]
    fn persisted_blocks_roundtrip_via_mapping() {
        let (dfs, dir) = persisted_dfs("roundtrip", 1);
        let data = payload(3000);
        let info = dfs.write_file("/p", &data).unwrap();
        assert_eq!(info.blocks.len(), 3);
        assert_eq!(blk_files(&dir), 3, "one file per replica");
        assert_eq!(
            dfs.metrics().counter(metrics_keys::BLOCKS_MAPPED).get(),
            3
        );
        assert_eq!(dfs.read_file_shared("/p").unwrap(), data);
        // Two reads of the same block share the block file's mapping —
        // a refcount bump, not a re-read.
        let b0 = &dfs.stat("/p").unwrap().blocks[0];
        let r1 = dfs.read_block(b0).unwrap();
        let r2 = dfs.read_block(b0).unwrap();
        assert!(r1.is_mapped());
        assert!(r1.same_backing(&r2), "reads must share the mapping");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_unlinks_persisted_blocks() {
        let (dfs, dir) = persisted_dfs("delete", 2);
        dfs.write_file("/p", &payload(2048)).unwrap();
        assert_eq!(blk_files(&dir), 4); // 2 blocks × 2 replicas
        dfs.delete("/p").unwrap();
        assert_eq!(blk_files(&dir), 0, "delete must unlink block files");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn range_read_single_block_is_zero_copy() {
        let dfs = small_dfs();
        let data = payload(3000); // 3 × 1 KiB blocks
        dfs.write_file("/r", &data).unwrap();
        // Entirely inside block 1.
        let got = dfs.read_file_range_shared("/r", 1024 + 100, 300).unwrap();
        assert_eq!(got.as_slice(), &data[1124..1424]);
        let block1 = dfs.read_block(&dfs.stat("/r").unwrap().blocks[1]).unwrap();
        assert!(got.same_backing(&block1), "in-block range must not copy");
        // Exactly one whole block.
        let whole = dfs.read_file_range_shared("/r", 1024, 1024).unwrap();
        assert!(whole.same_backing(&block1));
        assert_eq!(whole.len(), 1024);
        // Empty range.
        assert!(dfs.read_file_range_shared("/r", 500, 0).unwrap().is_empty());
    }

    #[test]
    fn range_read_spanning_blocks_concatenates() {
        let dfs = small_dfs();
        let data = payload(3000);
        dfs.write_file("/r", &data).unwrap();
        let before = dfs
            .metrics()
            .counter(metrics_keys::BYTES_COPIED_RANGE)
            .get();
        let got = dfs.read_file_range_shared("/r", 900, 1500).unwrap();
        assert_eq!(got.as_slice(), &data[900..2400]);
        assert_eq!(
            dfs.metrics()
                .counter(metrics_keys::BYTES_COPIED_RANGE)
                .get(),
            before + 1500
        );
        // Out-of-bounds ranges error instead of truncating.
        assert!(dfs.read_file_range_shared("/r", 2999, 2).is_err());
        assert!(dfs.read_file_range_shared("/r", usize::MAX, 2).is_err());
    }

    #[test]
    fn file_availability_tracks_replicas_and_wipes() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        write_pinned(&dfs, "/f", &payload(1500), 0);
        assert!(dfs.file_available_excluding("/f", &[]));
        // Replicas live on nodes 0 and 1: losing either alone is fine,
        // losing both is not.
        assert!(dfs.file_available_excluding("/f", &[0]));
        assert!(dfs.file_available_excluding("/f", &[1]));
        assert!(!dfs.file_available_excluding("/f", &[0, 1]));
        // A silent wipe (metadata still lists the node) is detected by
        // probing storage.
        dfs.kill_node(1);
        assert!(!dfs.file_available_excluding("/f", &[0]));
        assert!(dfs.file_available_excluding("/f", &[1]));
        // Unknown files are unavailable.
        assert!(!dfs.file_available_excluding("/nope", &[]));
    }

    #[test]
    fn corrupt_replica_is_quarantined_and_repaired_on_read() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(1500); // 3 blocks × 2 replicas
        write_pinned(&dfs, "/c", &data, 0);
        // Rot the primary replica of block 1.
        dfs.corrupt_block("/c", 1, 0).unwrap();
        // Reads never see the damage...
        assert_eq!(dfs.read_file_shared("/c").unwrap(), data);
        let get = |k: &str| dfs.metrics().counter(k).get();
        // ...and the replica was quarantined and re-created elsewhere.
        assert_eq!(get(metrics_keys::BLOCKS_CORRUPT_DETECTED), 1);
        assert_eq!(get(metrics_keys::BLOCKS_CORRUPT_REPAIRED), 1);
        let info = dfs.stat("/c").unwrap();
        assert!(info.blocks.iter().all(|b| b.nodes.len() == 2));
        // The repaired replica verifies: a second full read is clean.
        assert_eq!(dfs.read_file_shared("/c").unwrap(), data);
        assert_eq!(get(metrics_keys::BLOCKS_CORRUPT_DETECTED), 1);
    }

    #[test]
    fn stale_block_info_still_reads_after_repair() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(800);
        let info = write_pinned(&dfs, "/s", &data, 0);
        let stale = info.blocks[0].clone();
        dfs.corrupt_block("/s", 0, 0).unwrap();
        dfs.read_file_shared("/s").unwrap(); // detect + repair; homes moved
        // A reader holding pre-repair metadata must still be served —
        // the read path re-resolves replica homes through the locator.
        assert_eq!(dfs.read_block(&stale).unwrap().as_slice(), &data[..]);
    }

    #[test]
    fn all_replicas_corrupt_is_a_typed_fatal_error() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        write_pinned(&dfs, "/c", &payload(600), 0);
        dfs.corrupt_block("/c", 0, 0).unwrap();
        dfs.corrupt_block("/c", 0, 1).unwrap();
        let err = dfs.read_file_shared("/c").unwrap_err();
        assert!(matches!(err, DfsError::Corrupt(_)), "got {err}");
        assert!(!err.is_retryable());
        assert_eq!(
            dfs.metrics()
                .counter(metrics_keys::BLOCKS_CORRUPT_DETECTED)
                .get(),
            2
        );
        // No survivor, so nothing could be repaired.
        assert_eq!(
            dfs.metrics()
                .counter(metrics_keys::BLOCKS_CORRUPT_REPAIRED)
                .get(),
            0
        );
    }

    #[test]
    fn flaky_reads_are_retried_with_backoff() {
        let dfs = small_dfs();
        let data = payload(700); // 1 block on one node
        let info = dfs.write_file("/f", &data).unwrap();
        let home = info.blocks[0].nodes[0];
        dfs.inject_flaky_reads(home, 2);
        assert_eq!(dfs.read_file_shared("/f").unwrap(), data);
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_RETRIED).get(), 2);
        // Once the injected failures are consumed, reads are clean.
        assert_eq!(dfs.read_file_shared("/f").unwrap(), data);
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_RETRIED).get(), 2);
    }

    #[test]
    fn retries_exhausted_is_retryable_deadline_is_timeout() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 1,
            block_size: 1024,
            replication: 1,
            read_retries: 2,
            ..DfsConfig::default()
        });
        let info = dfs.write_file("/f", &payload(100)).unwrap();
        dfs.inject_flaky_reads(0, 100);
        let err = dfs.read_block(&info.blocks[0]).unwrap_err();
        assert!(matches!(err, DfsError::Io(_)), "got {err}");
        assert!(err.is_retryable());
        // A deadline shorter than the first backoff pause times out.
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 1,
            block_size: 1024,
            replication: 1,
            retry_backoff_ms: 50,
            read_deadline_ms: 1,
            ..DfsConfig::default()
        });
        let info = dfs.write_file("/f", &payload(100)).unwrap();
        dfs.inject_flaky_reads(0, 100);
        let err = dfs.read_block(&info.blocks[0]).unwrap_err();
        assert!(matches!(err, DfsError::Timeout(_)), "got {err}");
        assert!(err.is_retryable());
    }

    #[test]
    fn slow_node_triggers_hedged_reads() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 1024,
            replication: 2,
            hedge_after_micros: 2_000,
            ..DfsConfig::default()
        });
        let data = payload(900);
        let info = write_pinned(&dfs, "/h", &data, 0);
        dfs.inject_slow_node(0, 20);
        // First read is just slow — it seeds node 0's latency history.
        assert_eq!(dfs.read_file_shared("/h").unwrap(), data);
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_HEDGED).get(), 0);
        // Subsequent reads see a suspect primary and hedge to node 1,
        // which answers within the budget and wins.
        for _ in 0..3 {
            assert_eq!(dfs.read_file_shared("/h").unwrap(), data);
        }
        let hedged = dfs.metrics().counter(metrics_keys::READS_HEDGED).get();
        let wins = dfs.metrics().counter(metrics_keys::READS_HEDGE_WINS).get();
        assert_eq!(hedged, 3);
        assert_eq!(wins, 3, "fast replica must win every race");
        assert_eq!(dfs.read_block(&info.blocks[0]).unwrap().as_slice(), &data[..]);
    }

    #[test]
    fn read_affinity_prefers_co_located_replica() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(800);
        let info = write_pinned(&dfs, "/aff", &data, 0);
        let homes = info.blocks[0].nodes.clone();
        assert_eq!(homes.len(), 2);
        // Affinity on either replica home: all bytes served locally.
        for &n in &homes {
            let r = dfs
                .read_file_range_shared_at("/aff", 0, 800, ReadAffinity::node(n))
                .unwrap();
            assert_eq!(r.bytes.as_slice(), &data[..]);
            assert_eq!((r.local_bytes, r.remote_bytes), (800, 0), "node {n}");
        }
        // Affinity on the replica-less node, or no affinity at all:
        // same bytes, all remote.
        let stranger = (0..3).find(|n| !homes.contains(n)).unwrap();
        for aff in [ReadAffinity::node(stranger), ReadAffinity::NONE] {
            let r = dfs
                .read_file_range_shared_at("/aff", 0, 800, aff)
                .unwrap();
            assert_eq!(r.bytes.as_slice(), &data[..]);
            assert_eq!((r.local_bytes, r.remote_bytes), (0, 800));
        }
    }

    #[test]
    fn read_affinity_falls_back_when_local_replica_quarantined() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(700);
        let info = write_pinned(&dfs, "/q", &data, 0);
        let homes = info.blocks[0].nodes.clone();
        // Corrupt the replica on the reader's own node: the read must
        // detect it, quarantine, and serve the survivor — correct bytes,
        // counted remote because the co-located copy was unusable.
        dfs.corrupt_block("/q", 0, 0).unwrap();
        let r = dfs
            .read_file_range_shared_at("/q", 0, 700, ReadAffinity::node(homes[0]))
            .unwrap();
        assert_eq!(r.bytes.as_slice(), &data[..]);
        assert_eq!((r.local_bytes, r.remote_bytes), (0, 700));
        assert_eq!(
            dfs.metrics()
                .counter(metrics_keys::BLOCKS_CORRUPT_DETECTED)
                .get(),
            1
        );
    }

    #[test]
    fn read_affinity_does_not_defeat_hedged_reads() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 1024,
            replication: 2,
            hedge_after_micros: 2_000,
            ..DfsConfig::default()
        });
        let data = payload(900);
        write_pinned(&dfs, "/ha", &data, 0);
        dfs.inject_slow_node(0, 20);
        // Seed node 0's latency history (affinity pointed straight at
        // the slow node, so this read is served slowly by it).
        let r = dfs
            .read_file_range_shared_at("/ha", 0, 900, ReadAffinity::node(0))
            .unwrap();
        assert_eq!(r.bytes.as_slice(), &data[..]);
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_HEDGED).get(), 0);
        // Now node 0 is suspect: even though affinity prefers it, the
        // read must hedge to node 1, which wins — affinity reorders
        // preference, it never disables the slow-node defence.
        for _ in 0..3 {
            let r = dfs
                .read_file_range_shared_at("/ha", 0, 900, ReadAffinity::node(0))
                .unwrap();
            assert_eq!(r.bytes.as_slice(), &data[..]);
            assert_eq!(
                (r.local_bytes, r.remote_bytes),
                (0, 900),
                "hedge winner is the remote replica"
            );
        }
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_HEDGED).get(), 3);
        assert_eq!(
            dfs.metrics().counter(metrics_keys::READS_HEDGE_WINS).get(),
            3,
            "fast replica must win every race"
        );
    }

    #[test]
    fn corrupt_on_write_injection_matches_path_and_block() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        dfs.inject_corrupt_on_write("map-00001", 0, 0);
        let data = payload(400);
        write_pinned(&dfs, "/j/map-00000.segs", &data, 0);
        write_pinned(&dfs, "/j/map-00001.segs", &data, 1);
        // Non-matching file is untouched end to end.
        assert_eq!(dfs.read_file_shared("/j/map-00000.segs").unwrap(), data);
        assert_eq!(
            dfs.metrics()
                .counter(metrics_keys::BLOCKS_CORRUPT_DETECTED)
                .get(),
            0
        );
        // Matching file was damaged on write, detected and healed on read.
        assert_eq!(dfs.read_file_shared("/j/map-00001.segs").unwrap(), data);
        let get = |k: &str| dfs.metrics().counter(k).get();
        assert_eq!(get(metrics_keys::BLOCKS_CORRUPT_DETECTED), 1);
        assert_eq!(get(metrics_keys::BLOCKS_CORRUPT_REPAIRED), 1);
    }

    #[test]
    fn incremental_rereplication_restores_only_reported_blocks() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(2000); // 4 blocks on nodes {0, 1}
        write_pinned(&dfs, "/r", &data, 0);
        write_pinned(&dfs, "/other", &payload(512), 2);
        let report = dfs.fail_node(0);
        assert_eq!(report.under_replicated.len(), 4);
        let created = dfs.re_replicate_blocks(&report.under_replicated);
        assert_eq!(created, 4);
        let get = |k: &str| dfs.metrics().counter(k).get();
        assert_eq!(get(metrics_keys::BLOCKS_REREPLICATED_INCREMENTAL), 4);
        assert_eq!(get(metrics_keys::REPLICAS_RESTORED), 4);
        let info = dfs.stat("/r").unwrap();
        assert!(info.blocks.iter().all(|b| b.nodes.len() == 2));
        assert!(info.blocks.iter().all(|b| !b.nodes.contains(&0)));
        assert_eq!(dfs.read_file_shared("/r").unwrap(), data);
        // A follow-up full sweep finds nothing left to do.
        assert_eq!(dfs.re_replicate(), 0);
    }

    #[test]
    fn sweep_orphans_removes_only_shuffle_transit_files() {
        let dfs = small_dfs();
        dfs.write_file("/job/shuffle-3/map-00000.segs", &payload(10)).unwrap();
        dfs.write_file("/job/shuffle-3/map-00001.segs", &payload(10)).unwrap();
        dfs.write_file("/job/part-00000", &payload(10)).unwrap();
        dfs.write_file("/job/shuffle-log", &payload(10)).unwrap(); // not digits
        assert_eq!(dfs.sweep_orphans(), 2);
        assert_eq!(
            dfs.list("/job/"),
            vec!["/job/part-00000".to_string(), "/job/shuffle-log".to_string()]
        );
        assert_eq!(dfs.metrics().counter(metrics_keys::ORPHANS_SWEPT).get(), 2);
        // Idempotent.
        assert_eq!(dfs.sweep_orphans(), 0);
    }

    #[test]
    fn rereplication_never_copies_a_corrupt_source() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(600);
        write_pinned(&dfs, "/v", &data, 0);
        // Rot node 1's replica, then lose node 0: the sweep must not
        // propagate the rotten copy. It quarantines it instead, so the
        // block has lost its last (honest) replica.
        dfs.corrupt_block("/v", 0, 1).unwrap();
        dfs.fail_node(0);
        assert_eq!(dfs.re_replicate(), 0);
        assert_eq!(
            dfs.metrics()
                .counter(metrics_keys::BLOCKS_CORRUPT_DETECTED)
                .get(),
            1
        );
        assert!(matches!(dfs.read_file_shared("/v"), Err(DfsError::BlockMissing(_))));
    }

    #[test]
    fn failure_recovery_with_persisted_store() {
        let (dfs, dir) = persisted_dfs("recover", 2);
        let data = payload(2500);
        write_pinned(&dfs, "/p", &data, 0);
        let report = dfs.fail_node(0);
        assert!(report.blocks_lost.is_empty());
        let created = dfs.re_replicate();
        assert_eq!(created, report.under_replicated.len());
        assert_eq!(dfs.read_file_shared("/p").unwrap(), data);
        // Every surviving replica is persisted somewhere on disk.
        assert_eq!(blk_files(&dir), 3 * 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pinned_file_refuses_delete_until_unpinned() {
        let dfs = small_dfs();
        dfs.write_file("/t/cas/a", &payload(100)).unwrap();
        dfs.pin("/t/cas/a").unwrap();
        dfs.pin("/t/cas/a").unwrap();
        assert_eq!(dfs.pin_count("/t/cas/a"), 2);
        assert!(matches!(dfs.delete("/t/cas/a"), Err(DfsError::Pinned(_))));
        dfs.unpin("/t/cas/a");
        assert!(matches!(dfs.delete("/t/cas/a"), Err(DfsError::Pinned(_))));
        dfs.unpin("/t/cas/a");
        assert_eq!(dfs.pin_count("/t/cas/a"), 0);
        dfs.delete("/t/cas/a").unwrap();
        // Pinning a missing path is an error; unpinning one is a no-op.
        assert!(matches!(dfs.pin("/t/cas/a"), Err(DfsError::FileNotFound(_))));
        dfs.unpin("/t/cas/a");
    }

    #[test]
    fn retention_sweep_skips_pinned_files_and_reports_them() {
        let dfs = small_dfs();
        dfs.write_file("/t/job/x", &payload(50)).unwrap();
        dfs.write_file("/t/job/y", &payload(50)).unwrap();
        dfs.write_file("/t/job/z", &payload(50)).unwrap();
        dfs.pin("/t/job/y").unwrap();
        let report = dfs.sweep_prefix("/t/job", SweepReason::Ttl);
        assert_eq!(report, SweepReport { swept: 2, pinned_skipped: 1 });
        assert!(dfs.exists("/t/job/y"), "pinned file must survive the sweep");
        assert!(dfs.any_pinned("/t/job"));
        assert_eq!(
            dfs.metrics().counter(metrics_keys::RETENTION_PIN_SKIPS).get(),
            1
        );
        assert_eq!(
            dfs.metrics()
                .counter(metrics_keys::RETENTION_SWEPT_TTL)
                .get(),
            2
        );
        dfs.unpin("/t/job/y");
        assert!(!dfs.any_pinned("/t/job"));
        let report = dfs.sweep_prefix("/t/job", SweepReason::Ttl);
        assert_eq!(report, SweepReport { swept: 1, pinned_skipped: 0 });
    }

    #[test]
    fn cas_put_is_idempotent_and_get_counts_hits() {
        let dfs = small_dfs();
        let key = 0xDEAD_BEEFu64;
        let bytes = SharedBytes::copy_from_slice(&payload(300));
        assert_eq!(dfs.cas_get("/t", key).unwrap(), None);
        let path = dfs.cas_put("/t", key, bytes.clone()).unwrap();
        assert_eq!(path, Dfs::cas_path("/t", key));
        // A second put of the same key degrades to a hit, not an error.
        let again = dfs.cas_put("/t", key, bytes.clone()).unwrap();
        assert_eq!(again, path);
        assert_eq!(
            dfs.cas_get("/t", key).unwrap().unwrap().as_slice(),
            bytes.as_slice()
        );
        let m = dfs.metrics();
        assert_eq!(m.counter(metrics_keys::CAS_PUTS).get(), 1);
        assert_eq!(m.counter(metrics_keys::CAS_MISSES).get(), 1);
        assert_eq!(m.counter(metrics_keys::CAS_HITS).get(), 2);
    }
}
