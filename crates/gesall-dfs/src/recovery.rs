//! Recovery: declaring a node dead, quarantining a replica that failed
//! verification, and bringing blocks back to their replication factor —
//! one block after a quarantine, or the blocks a failure reported (the
//! whole-namespace sweep is the tests' reference). Restoring a block
//! verifies and copies replicas under the namespace lock (the one
//! exception to the rule in `namespace.rs`), so two repairs of one block
//! cannot both pick the same target.

use crate::checksum::xxh64;
use crate::fs::Dfs;
use crate::namespace::Namespace;
use crate::types::{metrics_keys, FailureReport};
use gesall_telemetry::Unpoisoned;

impl Dfs {
    /// Is every block of `path` stored on some live node? Probes actual
    /// data-node storage (not just metadata), so silently wiped replicas
    /// ([`Dfs::kill_node`]) don't count. This is the engine's question
    /// after a node death: a map output the DFS can still serve is
    /// re-fetched, one it cannot is re-computed.
    pub fn file_available(&self, path: &str) -> bool {
        let ns = self.inner.ns.read().unpoisoned();
        ns.file(path).is_some_and(|info| {
            info.blocks.iter().all(|b| {
                b.nodes
                    .iter()
                    .any(|&n| !ns.dead().contains(&n) && self.inner.store.get(n, b.id).is_some())
            })
        })
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
        let (newly_dead, report) = self.inner.ns.write().unpoisoned().drop_node(node, self.inner.config.replication);
        if newly_dead {
            self.count(metrics_keys::NODE_FAILURES, 1);
        }
        self.inner.store.wipe(node);
        report
    }

    /// Nodes declared dead via [`Dfs::fail_node`], sorted.
    pub fn dead_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.inner.ns.read().unpoisoned().dead().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Has `node` been declared dead?
    pub fn is_node_dead(&self, node: usize) -> bool {
        self.inner.ns.read().unpoisoned().dead().contains(&node)
    }

    /// Drop a replica that failed verification — scrub it from the
    /// block's metadata and node index, remove its storage — and restore
    /// the block to its effective replication from a checksum-verified
    /// survivor. Of concurrent detections, the one that actually removed
    /// the stored payload counts the corruption and repairs.
    pub(crate) fn quarantine_replica(&self, node: usize, id: u64) {
        let mut ns = self.inner.ns.write().unpoisoned();
        ns.drop_replica(id, node);
        if self.inner.store.remove(node, id) {
            self.count(metrics_keys::BLOCKS_CORRUPT_DETECTED, 1);
            let live = ns.live_nodes();
            let (created, _) = self.restore_block(&mut ns, &live, id);
            self.count(metrics_keys::BLOCKS_CORRUPT_REPAIRED, created as u64);
        }
    }

    /// Copy surviving replicas of under-replicated blocks onto live nodes
    /// until every block reaches `min(replication, live nodes)` replicas —
    /// a namespace-wide sweep, the reference the incremental
    /// [`Dfs::re_replicate_blocks`] is tested against. Targets are
    /// chosen least-loaded-first; copy sources are checksum-verified, so
    /// a corrupt replica is never propagated (it is quarantined instead).
    /// Returns the number of replicas created.
    #[cfg(test)]
    pub fn re_replicate(&self) -> usize {
        let mut ns = self.inner.ns.write().unpoisoned();
        let live = ns.live_nodes();
        let mut created = 0usize;
        for id in ns.block_ids() {
            let (c, dropped) = self.restore_block(&mut ns, &live, id);
            created += c;
            // Replicas re-created in place of corrupt sources found
            // during this sweep count as repairs too.
            self.count(metrics_keys::BLOCKS_CORRUPT_REPAIRED, c.min(dropped) as u64);
        }
        self.count(metrics_keys::REPLICAS_RESTORED, created as u64);
        created
    }

    /// Incremental re-replication: restore only the given blocks (as
    /// reported by [`Dfs::fail_node`]) instead of sweeping the whole
    /// namespace. Returns the number of replicas created, counted under
    /// both [`metrics_keys::BLOCKS_REREPLICATED_INCREMENTAL`] and
    /// [`metrics_keys::REPLICAS_RESTORED`].
    pub fn re_replicate_blocks(&self, ids: &[u64]) -> usize {
        let mut ns = self.inner.ns.write().unpoisoned();
        let live = ns.live_nodes();
        let created: usize = ids.iter().map(|&id| self.restore_block(&mut ns, &live, id).0).sum();
        self.count(metrics_keys::BLOCKS_REREPLICATED_INCREMENTAL, created as u64);
        self.count(metrics_keys::REPLICAS_RESTORED, created as u64);
        created
    }

    /// Bring one block back to `min(replication, live nodes)` replicas
    /// on the `live` nodes, under the namespace write lock the caller holds. Sources are
    /// checksum-verified; replicas that fail verification are dropped
    /// from storage and metadata on the spot (counted as detected
    /// corruption). Returns `(replicas created, corrupt replicas dropped)`.
    fn restore_block(&self, ns: &mut Namespace, live: &[usize], id: u64) -> (usize, usize) {
        let store = &self.inner.store;
        let effective = self.inner.config.replication.min(live.len());
        let (mut created, mut dropped) = (0usize, 0usize);
        while let Some(b) = ns.block(id).filter(|b| !b.nodes.is_empty() && b.nodes.len() < effective) {
            // A verified surviving replica to copy from (kill_node may
            // have silently wiped some listed homes; bit rot may have
            // silently damaged others — probe and verify them all).
            let (checksum, mut holders) = (b.checksum, b.nodes.clone());
            let mut payload = None;
            for n in holders.clone() {
                match store.get(n, id) {
                    Some(bytes) if xxh64(bytes.as_slice()) == checksum => {
                        payload = Some(bytes);
                        break;
                    }
                    Some(_) => {
                        ns.drop_replica(id, n);
                        store.remove(n, id);
                        holders.retain(|&h| h != n);
                        self.count(metrics_keys::BLOCKS_CORRUPT_DETECTED, 1);
                        dropped += 1;
                    }
                    None => {}
                }
            }
            let Some(payload) = payload else { break };
            let target = live.iter().filter(|n| !holders.contains(n)).min_by_key(|&&n| store.block_count(n));
            let Some(&dst) = target else { break };
            if store.put(dst, id, &payload, checksum).is_err() {
                break;
            }
            ns.add_replica(id, dst);
            created += 1;
        }
        (created, dropped)
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::testutil::*;
    use crate::fs::*;

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
    fn file_availability_tracks_replicas_and_wipes() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 512,
            replication: 2,
            ..DfsConfig::default()
        });
        write_pinned(&dfs, "/f", &payload(1500), 0);
        write_pinned(&dfs, "/g", &payload(1500), 1);
        assert!(dfs.file_available("/f") && dfs.file_available("/g"));
        // /f's replicas live on nodes 0 and 1: losing one is fine.
        dfs.fail_node(0);
        assert!(dfs.file_available("/f") && dfs.file_available("/g"));
        // A silent wipe (metadata still lists the node) is detected by
        // probing storage: /f has no replica left, /g keeps node 2's.
        dfs.kill_node(1);
        assert!(!dfs.file_available("/f"));
        assert!(dfs.file_available("/g"));
        // Losing the last stored replica loses the file.
        dfs.fail_node(2);
        assert!(!dfs.file_available("/g"));
        // Unknown files are unavailable.
        assert!(!dfs.file_available("/nope"));
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
}
