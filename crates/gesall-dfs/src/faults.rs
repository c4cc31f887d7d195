//! Fault injection for the seeded harness: silent storage loss, bit rot
//! (now or on a future write), flaky and slow nodes. Injections apply
//! to the client read/write paths only — the repair path reads replicas
//! directly, as a datanode-local scrubber would.

use crate::fs::Dfs;
use crate::types::DfsError;
use gesall_telemetry::Unpoisoned;
use std::collections::HashMap;
use std::sync::{Mutex, RwLock};

/// A pending corrupt-on-write injection: flip a byte of the stored
/// replica whenever a write's path contains `path_contains` and the
/// block index matches. The block's metadata checksum keeps the true
/// value, so the next read of that replica detects the damage.
struct CorruptOnWrite {
    path_contains: String,
    block: usize,
    replica: usize,
}

/// Gray-failure injection state, armed by [`Dfs::inject_corrupt_on_write`]
/// et al.
#[derive(Default)]
pub(crate) struct FaultState {
    corrupt_on_write: Mutex<Vec<CorruptOnWrite>>,
    /// node → remaining reads that fail with a transient error.
    flaky: Mutex<HashMap<usize, u64>>,
    /// node → injected per-read service time (ms).
    slow: RwLock<HashMap<usize, u64>>,
}

impl FaultState {
    pub(crate) fn slow_ms(&self, node: usize) -> Option<u64> {
        self.slow.read().unpoisoned().get(&node).copied()
    }

    /// Injected flaky read: consume one scheduled failure for `node`.
    pub(crate) fn take_flaky_failure(&self, node: usize) -> bool {
        let mut flaky = self.flaky.lock().unpoisoned();
        match flaky.get_mut(&node) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }
}

impl Dfs {
    /// Drop every replica a node holds **without** telling the name node.
    ///
    /// This is the raw storage-loss primitive (a disk wipe the cluster has
    /// not noticed yet): metadata still lists the node, reads skip the
    /// missing replicas, writes still target it. For a *detected* failure
    /// with metadata scrubbing and a damage report, use [`Dfs::fail_node`].
    pub fn kill_node(&self, node: usize) {
        self.inner.store.wipe(node);
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
        self.inner.store.corrupt(node, b.id)
    }

    /// Arm a corrupt-on-write injection: any future write whose path
    /// contains `path_contains` gets the stored payload of its
    /// `block`-th block's `replica`-th home bit-flipped after the write
    /// completes. Deterministic — fires on every matching write.
    pub fn inject_corrupt_on_write(&self, path_contains: &str, block: usize, replica: usize) {
        self.inner.faults.corrupt_on_write.lock().unpoisoned().push(CorruptOnWrite {
            path_contains: path_contains.to_string(),
            block,
            replica,
        });
    }

    /// Arm a flaky-read injection: the next `fail_first_n` replica
    /// reads served by `node` fail with a retryable transient error.
    pub fn inject_flaky_reads(&self, node: usize, fail_first_n: u64) {
        self.inner.faults.flaky.lock().unpoisoned().insert(node, fail_first_n);
    }

    /// Arm a slow-node injection: every replica read served by `node`
    /// charges `delay_ms` of service time to the read — a
    /// limping-but-alive disk, as the read path's ledger and the node's
    /// latency histogram see it; nothing sleeps. Hedged reads are the
    /// intended countermeasure.
    pub fn inject_slow_node(&self, node: usize, delay_ms: u64) {
        self.inner.faults.slow.write().unpoisoned().insert(node, delay_ms);
    }

    /// Apply any armed corrupt-on-write injections to a block just
    /// written to `nodes` as block index `bi` of `path`.
    pub(crate) fn apply_corrupt_on_write(&self, path: &str, bi: usize, nodes: &[usize], id: u64) {
        let plans = self.inner.faults.corrupt_on_write.lock().unpoisoned();
        for c in plans.iter() {
            if c.block == bi && path.contains(&c.path_contains) {
                if let Some(&n) = nodes.get(c.replica) {
                    let _ = self.inner.store.corrupt(n, id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::testutil::*;
    use crate::fs::*;

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
}
