//! The data nodes' block storage: one replica map per node, heap-resident
//! or persisted under `DfsConfig::block_store_dir` with its checksum
//! sidecar. Knows nothing of files or placement — `namespace.rs` says
//! which replicas *should* exist; this says which bytes *do*, and how
//! many distinct allocations hold them.

use crate::types::{metrics_keys, BlockInfo, DfsError, NodeStats};
use gesall_formats::SharedBytes;
use gesall_telemetry::metrics::Gauge;
use gesall_telemetry::{MetricsRegistry, Unpoisoned};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock};

/// How a stored replica holds its payload. Either way,
/// [`crate::Dfs::read_block`] serves a zero-copy window — the variants differ
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

    /// Remove the on-disk file behind a mapped replica (the mapping
    /// itself stays valid for existing readers until they drop).
    fn unlink(&self) {
        if let BlockBacking::Mapped { path, .. } = self {
            std::fs::remove_file(path).ok();
        }
    }
}

/// The distinct allocations stored replicas window: backing id → (its
/// length, replicas naming it). Taken innermost, under a node's lock, so
/// a replica is tallied exactly while its node holds it.
#[derive(Default)]
struct Backings(HashMap<usize, (usize, usize)>);

impl Backings {
    /// Tally one more replica windowing `bytes`; returns the bytes that
    /// became resident (the backing's length if it is new, else 0).
    fn hold(&mut self, bytes: &SharedBytes) -> i64 {
        let e = self.0.entry(bytes.backing_id()).or_insert((bytes.backing_len(), 0));
        e.1 += 1;
        if e.1 == 1 { e.0 as i64 } else { 0 }
    }

    /// Drop one replica's tally; returns the (negative) bytes freed.
    fn release(&mut self, bytes: &SharedBytes) -> i64 {
        let id = bytes.backing_id();
        match self.0.get_mut(&id) {
            Some((_, refs)) if *refs > 1 => {
                *refs -= 1;
                0
            }
            Some(_) => self.0.remove(&id).map_or(0, |(len, _)| -(len as i64)),
            None => 0,
        }
    }
}

pub(crate) struct BlockStore {
    nodes: Vec<RwLock<HashMap<u64, BlockBacking>>>,
    backings: Mutex<Backings>,
    /// `dfs.mem.resident_bytes`: the sum of `backings`' lengths.
    resident: Gauge,
    dir: Option<PathBuf>,
    metrics: MetricsRegistry,
}

impl BlockStore {
    pub(crate) fn new(n_nodes: usize, dir: Option<PathBuf>, metrics: MetricsRegistry) -> BlockStore {
        let nodes = (0..n_nodes).map(|_| RwLock::new(HashMap::new())).collect();
        let resident = metrics.gauge(metrics_keys::MEM_RESIDENT_BYTES);
        BlockStore { nodes, backings: Mutex::default(), resident, dir, metrics }
    }

    /// Re-tally after a node map changed: `added` is now stored, the
    /// `dropped` replicas no longer are. Called with that node's lock held.
    fn retally<'a>(&self, added: Option<&SharedBytes>, dropped: impl IntoIterator<Item = &'a BlockBacking>) {
        let mut backings = self.backings.lock().unpoisoned();
        let mut delta = added.map_or(0, |b| backings.hold(b));
        for b in dropped {
            delta += backings.release(b.bytes());
        }
        self.resident.add(delta);
    }

    /// Bytes of the distinct allocations the stored replicas window:
    /// replicas and files sharing one backing count it once, a mapped
    /// block counts its mapping.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident.get() as u64
    }

    /// Store one replica on `node`: heap-resident sharing the writer's
    /// backing, or — with a block store configured — persisted to the
    /// node's directory and re-served through a file mapping, its
    /// checksum appended to the node's `checksums.crc` log so integrity
    /// metadata persists alongside the blocks.
    pub(crate) fn put(&self, node: usize, id: u64, chunk: &SharedBytes, checksum: u64) -> Result<(), DfsError> {
        let io = |e: std::io::Error| DfsError::Io(format!("block {id} on node {node}: {e}"));
        let backing = match &self.dir {
            Some(dir) => {
                let node_dir = dir.join(format!("node-{node}"));
                std::fs::create_dir_all(&node_dir).map_err(io)?;
                append_checksum_record(&node_dir, id, checksum).map_err(io)?;
                let path = node_dir.join(format!("block-{id}.blk"));
                std::fs::write(&path, chunk.as_slice()).map_err(io)?;
                let bytes = SharedBytes::map_file(&path).map_err(io)?;
                self.metrics.counter(metrics_keys::BLOCKS_MAPPED).add(1);
                BlockBacking::Mapped { bytes, path }
            }
            None => BlockBacking::Resident(chunk.clone()),
        };
        let mut blocks = self.nodes[node].write().unpoisoned();
        let replaced = blocks.insert(id, backing);
        self.retally(blocks.get(&id).map(BlockBacking::bytes), &replaced);
        Ok(())
    }

    /// The replica's payload, if `node` holds one. A refcount bump.
    pub(crate) fn get(&self, node: usize, id: u64) -> Option<SharedBytes> {
        self.nodes[node].read().unpoisoned().get(&id).map(|b| b.bytes().clone())
    }

    /// Drop one replica and its block file. `true` for the caller that
    /// actually removed it.
    pub(crate) fn remove(&self, node: usize, id: u64) -> bool {
        let removed = {
            let mut blocks = self.nodes[node].write().unpoisoned();
            let removed = blocks.remove(&id);
            self.retally(None, &removed);
            removed
        };
        removed.inspect(BlockBacking::unlink).is_some()
    }

    /// Drop every listed replica of `blocks` (a deleted file's, or those
    /// a write stored before losing its path to a racing writer).
    pub(crate) fn free(&self, blocks: &[BlockInfo]) {
        for b in blocks {
            for &n in &b.nodes {
                self.remove(n, b.id);
            }
        }
    }

    /// Drop everything a node holds, unlinking any persisted block files.
    pub(crate) fn wipe(&self, node: usize) {
        let mut blocks = self.nodes[node].write().unpoisoned();
        blocks.values().for_each(BlockBacking::unlink);
        self.retally(None, blocks.values());
        blocks.clear();
    }

    pub(crate) fn block_count(&self, node: usize) -> usize {
        self.nodes[node].read().unpoisoned().len()
    }

    pub(crate) fn stats(&self) -> Vec<NodeStats> {
        let stat = |n: &RwLock<HashMap<u64, BlockBacking>>| {
            let blocks = n.read().unpoisoned();
            NodeStats { blocks: blocks.len(), bytes: blocks.values().map(|b| b.bytes().len()).sum() }
        };
        self.nodes.iter().map(stat).collect()
    }

    /// Replace the stored payload of one replica with a bit-flipped
    /// copy. Persisted backings are unlinked; the damaged copy lives
    /// heap-resident, which is all the verify path cares about.
    pub(crate) fn corrupt(&self, node: usize, id: u64) -> Result<(), DfsError> {
        let mut blocks = self.nodes[node].write().unpoisoned();
        let Some(backing) = blocks.get(&id) else {
            return Err(DfsError::BlockMissing(id));
        };
        let mut flipped = backing.bytes().to_vec();
        match flipped.first_mut() {
            Some(b0) => *b0 ^= 0xA5,
            None => flipped.push(0xA5),
        }
        backing.unlink();
        let replaced = blocks.insert(id, BlockBacking::Resident(SharedBytes::from_vec(flipped)));
        self.retally(blocks.get(&id).map(BlockBacking::bytes), &replaced);
        Ok(())
    }
}

/// Append one `block-id checksum` record to the node's integrity log,
/// persisting checksums alongside the blocks they cover.
fn append_checksum_record(node_dir: &Path, id: u64, checksum: u64) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(node_dir.join("checksums.crc"))?;
    writeln!(f, "{id:016x} {checksum:016x}")
}
