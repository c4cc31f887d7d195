//! The `Dfs` handle: construction, the write path, and `stat`. The rest
//! of its methods live beside the state they work on — `read.rs`,
//! `recovery.rs`, `retention.rs`, `faults.rs` — over the two things a
//! `Dfs` is made of: the metadata (`namespace.rs`, one lock) and the
//! bytes (`store.rs`).

use crate::checksum::xxh64;
use crate::faults::FaultState;
use crate::namespace::Namespace;
use crate::placement::{BlockPlacementPolicy, DefaultPlacement};
use crate::store::BlockStore;
use gesall_formats::SharedBytes;
use gesall_telemetry::{Histogram, MetricsRegistry, Unpoisoned};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

pub use crate::store::BlockBacking;
pub use crate::types::{
    metrics_keys, BlockInfo, DfsConfig, DfsError, FailureReport, FileInfo, NodeStats, RangeRead,
    ReadAffinity, SweepReason, SweepReport,
};

/// The DFS handle. Cheap to clone (`Arc` inside); safe to share across
/// worker threads.
#[derive(Clone)]
pub struct Dfs {
    pub(crate) inner: Arc<DfsInner>,
}

pub(crate) struct DfsInner {
    pub(crate) config: DfsConfig,
    /// All metadata, behind the one lock (`namespace.rs` says what may
    /// and may not happen under it).
    pub(crate) ns: RwLock<Namespace>,
    pub(crate) store: BlockStore,
    next_block: AtomicU64,
    /// Per-node replica-read service time (µs) as the read path charges
    /// it, log2-bucketed. The hedging policy consults the primary
    /// node's p90 against [`crate::HEDGE_AFTER_MICROS`].
    pub(crate) read_lat: Vec<Arc<Histogram>>,
    pub(crate) faults: FaultState,
    /// Block-level I/O counters (see [`metrics_keys`]).
    metrics: MetricsRegistry,
}

impl Dfs {
    pub fn new(config: DfsConfig) -> Dfs {
        assert!(config.n_nodes > 0, "need at least one data node");
        assert!(config.block_size > 0, "block size must be positive");
        let metrics = MetricsRegistry::new();
        let read_lat = (0..config.n_nodes)
            .map(|n| metrics.histogram(&format!("dfs.read.latency.node{n}.micros")))
            .collect();
        Dfs {
            inner: Arc::new(DfsInner {
                ns: RwLock::new(Namespace::new(config.n_nodes)),
                store: BlockStore::new(config.n_nodes, config.block_store_dir.clone(), metrics.clone()),
                config,
                next_block: AtomicU64::new(1),
                read_lat,
                faults: FaultState::default(),
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

    /// Add `n` to a counter; a zero leaves the counter untouched (and
    /// unregistered, if nothing has moved it yet).
    pub(crate) fn count(&self, key: &str, n: u64) {
        if n > 0 {
            self.inner.metrics.counter(key).add(n);
        }
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
    ///
    /// The file becomes visible last, insert-if-absent: of two writers
    /// racing for one path exactly one commits, and the other removes
    /// the replicas it stored and gets [`DfsError::FileExists`].
    pub fn write_shared_with_policy(
        &self,
        path: &str,
        data: SharedBytes,
        policy: &dyn BlockPlacementPolicy,
    ) -> Result<FileInfo, DfsError> {
        let checksums = self.block_checksums(&data);
        self.store_file(path, data, &checksums, policy)
    }

    /// XXH64 of each block-sized chunk of `data`: the write path's one
    /// pass over the payload.
    pub(crate) fn block_checksums(&self, data: &[u8]) -> Vec<u64> {
        data.chunks(self.inner.config.block_size).map(xxh64).collect()
    }

    /// The write path behind [`Dfs::write_shared_with_policy`], given
    /// the checksums of `data`'s blocks.
    pub(crate) fn store_file(
        &self,
        path: &str,
        data: SharedBytes,
        checksums: &[u64],
        policy: &dyn BlockPlacementPolicy,
    ) -> Result<FileInfo, DfsError> {
        let dead = {
            let ns = self.inner.ns.read().unpoisoned();
            if ns.file(path).is_some() {
                return Err(DfsError::FileExists(path.to_string()));
            }
            ns.dead().clone()
        };
        let DfsConfig { n_nodes, replication, block_size, .. } = self.inner.config;
        if dead.len() >= n_nodes {
            return Err(DfsError::NoLiveNodes);
        }
        let mut info = FileInfo { path: path.to_string(), len: data.len(), blocks: Vec::new() };
        for (bi, &checksum) in checksums.iter().enumerate() {
            let chunk = data.slice(bi * block_size..((bi + 1) * block_size).min(data.len()));
            let nodes = policy.place(path, bi, n_nodes, replication);
            if nodes.is_empty() || nodes.iter().any(|&n| n >= n_nodes) {
                return Err(DfsError::BadPolicy(format!(
                    "policy returned invalid nodes {nodes:?}"
                )));
            }
            let nodes = remap_around_dead(nodes, &dead, n_nodes)?;
            let id = self.inner.next_block.fetch_add(1, Ordering::Relaxed);
            for &n in &nodes {
                self.inner.store.put(n, id, &chunk, checksum)?;
            }
            self.apply_corrupt_on_write(path, bi, &nodes, id);
            self.count(metrics_keys::BLOCKS_WRITTEN, nodes.len() as u64);
            self.count(metrics_keys::BYTES_WRITTEN, (chunk.len() * nodes.len()) as u64);
            info.blocks.push(BlockInfo { id, len: chunk.len(), nodes, checksum });
        }
        let committed = self.inner.ns.write().unpoisoned().commit_file(info);
        committed.map_err(|lost| {
            self.inner.store.free(&lost.blocks);
            DfsError::FileExists(lost.path)
        })
    }

    /// File metadata (block list + replica locations).
    pub fn stat(&self, path: &str) -> Result<FileInfo, DfsError> {
        let ns = self.inner.ns.read().unpoisoned();
        ns.file(path).cloned().ok_or_else(|| DfsError::FileNotFound(path.to_string()))
    }

    /// Does the file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.inner.ns.read().unpoisoned().file(path).is_some()
    }

    /// Per-node storage counters (data-locality accounting). A block
    /// counts its bytes on every node holding a replica, shared backing
    /// or not; [`Dfs::resident_bytes`] counts what is allocated.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.inner.store.stats()
    }

    /// Bytes of the distinct allocations the block store holds:
    /// replicas, and files, that share one backing count it once; a
    /// mapped block counts its mapping. Also the gauge
    /// [`metrics_keys::MEM_RESIDENT_BYTES`].
    pub fn resident_bytes(&self) -> u64 {
        self.inner.store.resident_bytes()
    }

    /// Every invariant of the metadata, for tests.
    #[doc(hidden)]
    pub fn check_namespace(&self) -> Result<(), String> {
        self.inner.ns.read().unpoisoned().check()
    }
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

/// Fixtures the per-module test suites share.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::placement::PinnedPlacement;
    use std::path::PathBuf;

    pub(crate) fn small_dfs() -> Dfs {
        Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 1024,
            replication: 1,
            ..DfsConfig::default()
        })
    }

    pub(crate) fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    /// Write `data` with both replicas' homes starting at `node`.
    pub(crate) fn write_pinned(dfs: &Dfs, path: &str, data: &[u8], node: usize) -> FileInfo {
        dfs.write_shared_with_policy(path, SharedBytes::copy_from_slice(data), &PinnedPlacement(node))
            .unwrap()
    }

    fn store_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gesall-blockstore-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    pub(crate) fn persisted_dfs(name: &str, replication: usize) -> (Dfs, PathBuf) {
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
    pub(crate) fn blk_files(dir: &PathBuf) -> usize {
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
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::placement::LogicalPartitionPlacement;

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

    /// Default placement, but every writer waits in `place` — after it
    /// has seen the path free, before it commits — until all have.
    struct Rendezvous(std::sync::Barrier);

    impl BlockPlacementPolicy for Rendezvous {
        fn place(&self, path: &str, block: usize, n_nodes: usize, replication: usize) -> Vec<usize> {
            if block == 0 {
                self.0.wait();
            }
            DefaultPlacement.place(path, block, n_nodes, replication)
        }
    }

    #[test]
    fn racing_writers_of_one_path_commit_exactly_one_copy() {
        const WRITERS: usize = 6;
        let (dfs, dir) = persisted_dfs("race", 2);
        let data = SharedBytes::from_vec(payload(3000)); // 3 blocks × 2 replicas
        let gate = Rendezvous(std::sync::Barrier::new(WRITERS));
        let outcomes: Vec<Result<FileInfo, DfsError>> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| s.spawn(|| dfs.write_shared_with_policy("/race", data.clone(), &gate)))
                .collect();
            writers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (won, lost): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(|o| o.is_ok());
        assert_eq!(won.len(), 1);
        for o in &lost {
            assert_eq!(o.as_ref().unwrap_err(), &DfsError::FileExists("/race".into()));
        }
        // The committed writer's blocks are the ones the path names, and
        // one copy × replication is all that is stored, in memory and on
        // disk: the losers' replicas and block files are gone.
        let info = dfs.stat("/race").unwrap();
        assert_eq!(won[0].as_ref().unwrap().blocks, info.blocks);
        assert_eq!(dfs.read_file_shared("/race").unwrap(), data);
        let stored: usize = dfs.node_stats().iter().map(|s| s.bytes).sum();
        assert_eq!(stored, 3000 * 2);
        assert_eq!(blk_files(&dir), 3 * 2);
        for b in &info.blocks {
            for n in &b.nodes {
                assert!(dir.join(format!("node-{n}/block-{}.blk", b.id)).exists());
            }
        }
        dfs.check_namespace().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
