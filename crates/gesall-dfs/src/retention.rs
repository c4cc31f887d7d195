//! Retention: pins, deletion, the sweeps that retire a namespace prefix,
//! and the content-addressed store built on write-once paths, which
//! keeps each content once.

use crate::fs::Dfs;
use crate::namespace::ContentId;
use crate::placement::{BlockPlacementPolicy, DefaultPlacement};
use crate::types::{metrics_keys, DfsError, FileInfo, SweepReason, SweepReport};
use gesall_formats::SharedBytes;
use gesall_telemetry::Unpoisoned;

impl Dfs {
    /// Pin a file: while its refcount is nonzero, [`Dfs::delete`]
    /// refuses with [`DfsError::Pinned`] and retention sweeps only mark
    /// it. Pins nest — each `pin` needs a matching [`Dfs::unpin`].
    pub fn pin(&self, path: &str) -> Result<(), DfsError> {
        self.inner.ns.write().unpoisoned().pin(path)
    }

    /// Release one pin on `path`. Releasing a path with no live pin is
    /// a no-op (pin holders may race a namespace teardown). The last
    /// unpin of a file a sweep marked removes it and frees its replicas
    /// before returning, charged to that sweep's reason.
    pub fn unpin(&self, path: &str) {
        let retired = self.inner.ns.write().unpoisoned().unpin(path);
        if let Some((info, reason)) = retired {
            self.inner.store.free(&info.blocks);
            self.count(reason.counter_key(), 1);
        }
    }

    /// Current pin refcount of `path` (0 when unpinned or unknown).
    pub fn pin_count(&self, path: &str) -> u64 {
        self.inner.ns.read().unpoisoned().pin_count(path)
    }

    /// Are any paths under `prefix` currently pinned?
    pub fn any_pinned(&self, prefix: &str) -> bool {
        self.inner.ns.read().unpoisoned().any_pinned(prefix)
    }

    /// Delete a file and free its replicas. Refuses with
    /// [`DfsError::Pinned`] while the path holds a live pin — checked
    /// under the lock that removes the file, so a `pin` that returned
    /// `Ok` keeps its file until the matching `unpin`.
    pub fn delete(&self, path: &str) -> Result<(), DfsError> {
        let info = self.inner.ns.write().unpoisoned().remove_file(path)?;
        self.inner.store.free(&info.blocks);
        Ok(())
    }

    /// Remove stale shuffle-transit files (`…/shuffle-<run>/…`) left
    /// behind by a crashed prior process. The engine deletes its transit
    /// prefix when a job completes, so anything still matching at
    /// platform startup is an orphan. Returns the number of files swept
    /// (counted under [`metrics_keys::ORPHANS_SWEPT`]).
    pub fn sweep_orphans(&self) -> usize {
        let stale = self.list("").into_iter().filter(|p| is_shuffle_transit_path(p));
        let swept = stale.filter(|p| self.delete(p).is_ok()).count();
        self.count(metrics_keys::ORPHANS_SWEPT, swept as u64);
        swept
    }

    /// Live retention sweep: retire the directory `prefix/` (a trailing
    /// `/` is optional) — never a sibling that merely shares the name's
    /// prefix — charging the files to `reason`'s counter. Unlike the
    /// startup-only [`Dfs::sweep_orphans`], this is the runtime half of
    /// the retention policy: the engine calls it with
    /// [`SweepReason::Completed`] when a job's shuffle transit is
    /// consumed, and the job service with [`SweepReason::Cancelled`] /
    /// [`SweepReason::Released`] when a tenant's job namespace is
    /// retired. Unpinned files go now; a pinned one is marked
    /// (unlink-while-open) and goes at its last [`Dfs::unpin`], counted
    /// under [`metrics_keys::RETENTION_PIN_SKIPS`] now and under
    /// `reason` then — so one sweep retires the whole directory.
    pub fn sweep_prefix(&self, prefix: &str, reason: SweepReason) -> SweepReport {
        let dir = format!("{}/", prefix.trim_end_matches('/'));
        let (removed, marked) = self.inner.ns.write().unpoisoned().retire(&dir, reason);
        for info in &removed {
            self.inner.store.free(&info.blocks);
        }
        self.count(reason.counter_key(), removed.len() as u64);
        self.count(metrics_keys::RETENTION_PIN_SKIPS, marked as u64);
        SweepReport { swept: removed.len(), pinned_skipped: marked }
    }

    /// All paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.ns.read().unpoisoned().paths(prefix)
    }

    /// The canonical path of a content-addressed entry: `{root}/cas/{key}`
    /// with the key rendered as fixed-width hex, so `list("{root}/cas/")`
    /// enumerates a tenant's whole cache in key order.
    pub fn cas_path(root: &str, key: u64) -> String {
        format!("{root}/cas/{key:016x}")
    }

    /// Store `data` under content key `key` in `root`'s cache: a
    /// [`Dfs::put_once`] at [`Dfs::cas_path`], placed by default.
    pub fn cas_put(&self, root: &str, key: u64, data: SharedBytes) -> Result<SharedBytes, DfsError> {
        self.put_once(&Dfs::cas_path(root, key), data, &DefaultPlacement).map(|(bytes, _)| bytes)
    }

    /// Write `data` at `path` once, under `policy` — the write of a path
    /// that names its content. An existing file that reads back as
    /// exactly `data` means an earlier (or racing) writer committed that
    /// content, and the put degrades to a hit ([`metrics_keys::CAS_HITS`])
    /// that writes nothing: a write commits its metadata last and
    /// insert-if-absent, so a visible file is whole and a racing put
    /// stores nothing over it. An existing file that cannot be read whole
    /// (its blocks died with a node, or fail their checksums) or holds
    /// other bytes is damaged: the put replaces it, unless it is pinned,
    /// when the put is a hit as well.
    ///
    /// Each content is kept once: when a live file already holds
    /// exactly `data`'s bytes (same length and block checksums, read
    /// back through the verifying read path, equal byte for byte), the
    /// new file's blocks are windows of its backing and `data` is not
    /// kept ([`metrics_keys::CAS_DEDUP_HITS`]). Returns the bytes the
    /// file's blocks window — `data` on a hit — and its metadata.
    pub fn put_once(&self, path: &str, data: SharedBytes, policy: &dyn BlockPlacementPolicy) -> Result<(SharedBytes, FileInfo), DfsError> {
        if let Ok(info) = self.stat(path) {
            let intact = self.read_file_shared(path).is_ok_and(|stored| stored == data);
            if intact || matches!(self.delete(path), Err(DfsError::Pinned(_))) {
                self.count(metrics_keys::CAS_HITS, 1);
                return Ok((data, info));
            }
        }
        let checksums = self.block_checksums(&data);
        let stored = self.stored_copy(ContentId::of(data.len(), checksums.iter().copied()), &data);
        let deduped = stored.is_some();
        let bytes = stored.unwrap_or(data);
        match self.store_file(path, bytes.clone(), &checksums, policy) {
            Ok(info) => {
                self.count(metrics_keys::CAS_PUTS, 1);
                self.count(metrics_keys::CAS_DEDUP_HITS, u64::from(deduped));
                Ok((bytes, info))
            }
            Err(DfsError::FileExists(_)) => {
                self.count(metrics_keys::CAS_HITS, 1);
                Ok((bytes, self.stat(path)?))
            }
            Err(e) => Err(e),
        }
    }

    /// A live file's bytes equal to `data`, as one window of its
    /// backing: the first file the content index names for `id` that
    /// reads back whole and compares equal. An unreadable, lost or
    /// different candidate is passed over. Persisted blocks are written
    /// out per replica whatever their source, so there is nothing to
    /// share, and nothing is looked up.
    fn stored_copy(&self, id: ContentId, data: &SharedBytes) -> Option<SharedBytes> {
        if data.is_empty() || self.inner.config.block_store_dir.is_some() {
            return None;
        }
        let candidates = self.inner.ns.read().unpoisoned().with_content(id);
        candidates.iter().find_map(|p| self.read_file_shared(p).ok().filter(|got| got == data))
    }

    /// Fetch the entry for `key` in `root`'s cache, or `None` when the
    /// key was never committed. Hits and misses are counted under
    /// [`metrics_keys::CAS_HITS`] / [`metrics_keys::CAS_MISSES`].
    pub fn cas_get(&self, root: &str, key: u64) -> Result<Option<SharedBytes>, DfsError> {
        let path = Dfs::cas_path(root, key);
        let hit = self.exists(&path);
        self.count(if hit { metrics_keys::CAS_HITS } else { metrics_keys::CAS_MISSES }, 1);
        hit.then(|| self.read_file_shared(&path)).transpose()
    }
}

/// Does any path segment look like an engine shuffle-transit run
/// directory (`shuffle-<digits>`)?
fn is_shuffle_transit_path(path: &str) -> bool {
    path.split('/').any(|seg| {
        seg.strip_prefix("shuffle-")
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
    })
}

#[cfg(test)]
mod tests {
    use crate::fs::testutil::*;
    use crate::fs::*;
    use gesall_formats::SharedBytes;

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
    fn delete_unlinks_persisted_blocks() {
        let (dfs, dir) = persisted_dfs("delete", 2);
        dfs.write_file("/p", &payload(2048)).unwrap();
        assert_eq!(blk_files(&dir), 4); // 2 blocks × 2 replicas
        dfs.delete("/p").unwrap();
        assert_eq!(blk_files(&dir), 0, "delete must unlink block files");
        std::fs::remove_dir_all(&dir).ok();
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
    fn retention_sweep_marks_pinned_files_and_their_last_unpin_removes_them() {
        let dfs = small_dfs();
        dfs.write_file("/t/job/x", &payload(50)).unwrap();
        dfs.write_file("/t/job/y", &payload(3000)).unwrap();
        dfs.write_file("/t/job/z", &payload(50)).unwrap();
        dfs.pin("/t/job/y").unwrap();
        dfs.pin("/t/job/y").unwrap();
        let report = dfs.sweep_prefix("/t/job", SweepReason::Released);
        assert_eq!(report, SweepReport { swept: 2, pinned_skipped: 1 });
        assert_eq!(dfs.list("/t/job"), vec!["/t/job/y".to_string()], "a pinned file outlives the sweep");
        assert_eq!(dfs.read_file_shared("/t/job/y").unwrap(), payload(3000));
        assert!(matches!(dfs.delete("/t/job/y"), Err(DfsError::Pinned(_))));
        let m = dfs.metrics();
        assert_eq!(m.counter(metrics_keys::RETENTION_PIN_SKIPS).get(), 1);
        assert_eq!(m.counter(metrics_keys::RETENTION_SWEPT_RELEASED).get(), 2);
        dfs.unpin("/t/job/y");
        assert!(dfs.exists("/t/job/y"), "one pin is still live");
        dfs.check_namespace().unwrap();
        // The last unpin removes the file and frees its replicas at once.
        dfs.unpin("/t/job/y");
        assert!(dfs.list("/t/job").is_empty());
        assert!(dfs.node_stats().iter().all(|s| s.blocks == 0));
        assert_eq!(m.counter(metrics_keys::RETENTION_SWEPT_RELEASED).get(), 3);
        dfs.check_namespace().unwrap();
    }

    #[test]
    fn a_sweep_retires_a_directory_not_the_siblings_sharing_its_name() {
        let dfs = small_dfs();
        for p in ["/ns/shuffle-1/map-0", "/ns/shuffle-12/map-0", "/a/a-job1000/x", "/a/a-job10000/x"] {
            dfs.write_file(p, &payload(10)).unwrap();
        }
        let report = dfs.sweep_prefix("/ns/shuffle-1", SweepReason::Completed);
        assert_eq!(report, SweepReport { swept: 1, pinned_skipped: 0 });
        let report = dfs.sweep_prefix("/a/a-job1000/", SweepReason::Released);
        assert_eq!(report, SweepReport { swept: 1, pinned_skipped: 0 });
        assert_eq!(dfs.list("/"), vec!["/a/a-job10000/x".to_string(), "/ns/shuffle-12/map-0".to_string()]);
    }

    #[test]
    fn cas_put_is_idempotent_and_get_counts_hits() {
        let dfs = small_dfs();
        let key = 0xDEAD_BEEFu64;
        let bytes = SharedBytes::copy_from_slice(&payload(300));
        assert_eq!(dfs.cas_get("/t", key).unwrap(), None);
        let stored = dfs.cas_put("/t", key, bytes.clone()).unwrap();
        assert!(stored.same_backing(&bytes), "a new content is stored as it was handed in");
        assert!(dfs.exists(&Dfs::cas_path("/t", key)));
        // A second put of the same key degrades to a hit, not an error.
        let again = dfs.cas_put("/t", key, bytes.clone()).unwrap();
        assert_eq!(again, bytes);
        assert_eq!(
            dfs.cas_get("/t", key).unwrap().unwrap().as_slice(),
            bytes.as_slice()
        );
        let m = dfs.metrics();
        assert_eq!(m.counter(metrics_keys::CAS_PUTS).get(), 1);
        assert_eq!(m.counter(metrics_keys::CAS_MISSES).get(), 1);
        assert_eq!(m.counter(metrics_keys::CAS_HITS).get(), 2);
    }

    #[test]
    fn racing_cas_puts_of_one_key_store_it_once() {
        const WRITERS: usize = 8;
        const ROUNDS: u64 = 32;
        let dfs = Dfs::new(DfsConfig { n_nodes: 4, block_size: 512, replication: 2, ..DfsConfig::default() });
        let data = SharedBytes::from_vec(payload(64 * 1024));
        for key in 0..ROUNDS {
            let barrier = std::sync::Barrier::new(WRITERS);
            std::thread::scope(|s| {
                for _ in 0..WRITERS {
                    s.spawn(|| {
                        barrier.wait();
                        assert_eq!(dfs.cas_put("/t", key, data.clone()).unwrap(), data);
                    });
                }
            });
            assert_eq!(dfs.cas_get("/t", key).unwrap().unwrap(), data);
        }
        let m = dfs.metrics();
        assert_eq!(m.counter(metrics_keys::CAS_PUTS).get(), ROUNDS);
        // Every losing put is a hit, plus the one `cas_get` per key.
        assert_eq!(m.counter(metrics_keys::CAS_HITS).get(), ROUNDS * (WRITERS as u64 - 1) + ROUNDS);
        let stored: usize = dfs.node_stats().iter().map(|s| s.bytes).sum();
        assert_eq!(stored, ROUNDS as usize * 64 * 1024 * 2);
        // Every key holds the one content: each later key's entry
        // windows the first's backing.
        assert_eq!(m.counter(metrics_keys::CAS_DEDUP_HITS).get(), ROUNDS - 1);
        assert_eq!(dfs.resident_bytes(), 64 * 1024);
        dfs.check_namespace().unwrap();
    }

    #[test]
    fn a_pin_that_returned_ok_keeps_its_file_until_unpin() {
        // Each round races one `delete` against three threads that pin,
        // read and unpin the file until it is gone. Whoever got `Ok`
        // from `pin` must find the file there, whole, until it unpins.
        // (A broken read is tallied, not asserted, so a failure cannot
        // leave a pin behind and spin the deleter.)
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        const PINNERS: usize = 3;
        const ROUNDS: usize = 200;
        let dfs = small_dfs();
        let data = payload(700);
        let barrier = std::sync::Barrier::new(PINNERS + 1);
        let (pinned, broken) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..PINNERS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        while dfs.pin("/h/f").is_ok() {
                            pinned.fetch_add(1, SeqCst);
                            if dfs.read_file_shared("/h/f").map_or(true, |got| got != data) {
                                broken.fetch_add(1, SeqCst);
                            }
                            dfs.unpin("/h/f");
                            std::thread::yield_now();
                        }
                        barrier.wait();
                    }
                });
            }
            for _ in 0..ROUNDS {
                dfs.write_file("/h/f", &data).unwrap();
                barrier.wait();
                while dfs.delete("/h/f") == Err(DfsError::Pinned("/h/f".into())) {
                    std::thread::yield_now();
                }
                barrier.wait();
            }
        });
        assert_eq!(broken.load(SeqCst), 0, "of {} pins that returned Ok", pinned.load(SeqCst));
        assert!(!dfs.any_pinned("/") && !dfs.exists("/h/f"));
        assert!(dfs.node_stats().iter().all(|s| s.blocks == 0));
        dfs.check_namespace().unwrap();
    }
    /// Counters a put moves.
    fn cas_counts(dfs: &Dfs) -> [u64; 3] {
        let get = |k: &str| dfs.metrics().counter(k).get();
        [get(metrics_keys::CAS_PUTS), get(metrics_keys::CAS_HITS), get(metrics_keys::CAS_DEDUP_HITS)]
    }

    #[test]
    fn put_once_places_by_its_policy_and_a_hit_writes_nothing() {
        use crate::placement::{DefaultPlacement, LogicalPartitionPlacement};
        let dfs = small_dfs();
        let path = "/t/cas/0000000000000001/part-00000";
        let data = SharedBytes::from_vec(payload(3000));
        let (stored, info) = dfs.put_once(path, data.clone(), &LogicalPartitionPlacement).unwrap();
        assert!(stored.same_backing(&data));
        assert_eq!(info.blocks.len(), 3);
        let home = info.single_home().expect("every block on one node");
        // The path is taken: whatever the bytes and the policy, the put
        // is a hit that writes nothing and hands back the caller's bytes
        // with the stored file's metadata.
        let written = dfs.metrics().counter(metrics_keys::BYTES_WRITTEN).get();
        let again = SharedBytes::from_vec(payload(3000));
        let (got, hit) = dfs.put_once(path, again.clone(), &DefaultPlacement).unwrap();
        assert!(got.same_backing(&again));
        assert_eq!((hit.single_home(), hit.len), (Some(home), 3000));
        assert_eq!(dfs.metrics().counter(metrics_keys::BYTES_WRITTEN).get(), written);
        assert_eq!(cas_counts(&dfs), [1, 1, 0]);
        dfs.check_namespace().unwrap();
    }

    #[test]
    fn a_put_replaces_a_damaged_file_unless_it_is_pinned() {
        use crate::placement::LogicalPartitionPlacement;
        let dfs = small_dfs();
        let data = SharedBytes::from_vec(payload(3000));
        let mut other = payload(3000);
        other[7] ^= 1;
        let put = |path: &str| dfs.put_once(path, data.clone(), &LogicalPartitionPlacement).unwrap();
        // Other bytes; a block that fails its checksum; every block on
        // a failed node: each is replaced by a put that writes `data`.
        dfs.write_file("/other", &other).unwrap();
        dfs.write_file("/corrupt", &data).unwrap();
        dfs.corrupt_block("/corrupt", 1, 0).unwrap();
        write_pinned(&dfs, "/lost", &data, 2);
        dfs.fail_node(2);
        for path in ["/other", "/corrupt", "/lost"] {
            let before = cas_counts(&dfs);
            let (stored, info) = put(path);
            assert!(stored.same_backing(&data), "{path}");
            assert_eq!(cas_counts(&dfs)[0], before[0] + 1, "{path}: written again");
            assert!(info.single_home().is_some_and(|n| n != 2), "{path}");
            assert_eq!(dfs.read_file_shared(path).unwrap(), data, "{path}");
        }
        // A pinned damaged file stays, and the put is a hit.
        dfs.write_file("/pinned", &other).unwrap();
        dfs.pin("/pinned").unwrap();
        let before = cas_counts(&dfs);
        put("/pinned");
        assert_eq!(cas_counts(&dfs), [before[0], before[1] + 1, before[2]]);
        assert_eq!(dfs.read_file_shared("/pinned").unwrap(), other);
        dfs.unpin("/pinned");
        dfs.check_namespace().unwrap();
    }

    #[test]
    fn a_content_already_stored_is_kept_once() {
        let dfs = Dfs::new(DfsConfig { n_nodes: 4, block_size: 1024, replication: 2, ..DfsConfig::default() });
        let first = SharedBytes::from_vec(payload(3000));
        dfs.cas_put("/t", 1, first.clone()).unwrap();
        assert_eq!(dfs.resident_bytes(), 3000, "replicas share the writer's backing");
        // The same bytes in another buffer, under another key and root:
        // the entry windows the stored backing, and the buffer goes.
        let again = SharedBytes::from_vec(payload(3000));
        let stored = dfs.cas_put("/u", 2, again.clone()).unwrap();
        assert!(stored.same_backing(&first) && !stored.same_backing(&again));
        assert_eq!(cas_counts(&dfs), [2, 0, 1]);
        assert_eq!(dfs.resident_bytes(), 3000);
        let got = dfs.cas_get("/u", 2).unwrap().unwrap();
        assert_eq!(got, again);
        assert!(got.same_backing(&first));
        assert_eq!(dfs.metrics().counter(metrics_keys::BYTES_COPIED).get(), 0);
        // A different content of the same length is stored as handed in.
        let mut other = payload(3000);
        other[2999] ^= 1;
        let other = SharedBytes::from_vec(other);
        assert!(dfs.cas_put("/t", 3, other.clone()).unwrap().same_backing(&other));
        assert_eq!(dfs.resident_bytes(), 6000);
        // The shared backing lives while any entry windows it.
        dfs.delete(&Dfs::cas_path("/t", 1)).unwrap();
        assert_eq!(dfs.resident_bytes(), 6000);
        assert_eq!(dfs.cas_get("/u", 2).unwrap().unwrap(), payload(3000));
        dfs.delete(&Dfs::cas_path("/u", 2)).unwrap();
        assert_eq!(dfs.resident_bytes(), 3000);
        dfs.check_namespace().unwrap();
    }

    #[test]
    fn an_index_entry_naming_a_different_content_is_passed_over() {
        let dfs = small_dfs();
        let data = payload(3000);
        let mut other = data.clone();
        other[1500] ^= 0xFF;
        dfs.write_file("/other", &other).unwrap();
        // The index claims `/other` holds `data` — as a digest collision would.
        let id = crate::namespace::ContentId::of(data.len(), dfs.block_checksums(&data));
        dfs.inner.ns.write().unwrap().plant_content(id, "/other");
        let put = SharedBytes::from_vec(data.clone());
        assert!(dfs.cas_put("/t", 1, put.clone()).unwrap().same_backing(&put));
        assert_eq!(cas_counts(&dfs), [1, 0, 0]);
        let got = dfs.cas_get("/t", 1).unwrap().unwrap();
        assert!(got == data && got.same_backing(&put));
        assert_eq!(dfs.read_file_shared("/other").unwrap(), other);
        let broken = dfs.check_namespace().unwrap_err();
        assert!(broken.contains("content index"), "{broken}");
    }

    #[test]
    fn a_candidate_lost_with_its_node_is_passed_over() {
        let dfs = small_dfs();
        let first = dfs.cas_put("/t", 1, SharedBytes::from_vec(payload(3000))).unwrap();
        let home = dfs.stat(&Dfs::cas_path("/t", 1)).unwrap().blocks[1].nodes[0];
        dfs.fail_node(home);
        assert!(!dfs.file_available(&Dfs::cas_path("/t", 1)));
        let put = SharedBytes::from_vec(payload(3000));
        let stored = dfs.cas_put("/t", 2, put.clone()).unwrap();
        assert!(stored.same_backing(&put) && !stored.same_backing(&first));
        assert_eq!(cas_counts(&dfs), [2, 0, 0]);
        assert_eq!(dfs.cas_get("/t", 2).unwrap().unwrap(), payload(3000));
        dfs.check_namespace().unwrap();
    }

    #[test]
    fn resident_bytes_count_each_allocation_once() {
        let dfs = Dfs::new(DfsConfig { n_nodes: 3, block_size: 1024, replication: 3, ..DfsConfig::default() });
        let data = SharedBytes::from_vec(payload(2500));
        dfs.write_file_shared("/a", data.clone()).unwrap();
        dfs.write_file_shared("/b", data.slice(100..)).unwrap();
        assert_eq!(dfs.resident_bytes(), 2500, "3 replicas of 2 files over one buffer");
        assert_eq!(dfs.metrics().gauge(metrics_keys::MEM_RESIDENT_BYTES).get(), 2500);
        dfs.write_file("/c", &payload(10)).unwrap();
        assert_eq!(dfs.resident_bytes(), 2510);
        // Bit rot replaces a replica with a damaged copy of its own.
        dfs.corrupt_block("/c", 0, 0).unwrap();
        assert_eq!(dfs.resident_bytes(), 2520);
        dfs.read_file_shared("/c").unwrap(); // quarantined, repaired from a survivor
        assert_eq!(dfs.resident_bytes(), 2510);
        dfs.delete("/a").unwrap();
        assert_eq!(dfs.resident_bytes(), 2510);
        dfs.fail_node(0);
        dfs.kill_node(1);
        assert_eq!(dfs.resident_bytes(), 2510, "node 2 still holds every block");
        dfs.sweep_prefix("/", SweepReason::Completed);
        assert_eq!(dfs.resident_bytes(), 0);
        // Persisted, each replica is its own mapping.
        let (dfs, dir) = persisted_dfs("resident", 2);
        dfs.write_file("/p", &payload(1500)).unwrap();
        assert_eq!(dfs.resident_bytes(), 2 * 1500);
        std::fs::remove_dir_all(&dir).ok();
    }
}
