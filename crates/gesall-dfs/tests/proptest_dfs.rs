//! Property-based tests of the DFS: files round-trip under any block
//! size, placement policies keep their promises, verify-on-read
//! integrity holds under arbitrary corruption, and a fault schedule
//! replays exactly.

use gesall_dfs::{
    metrics_keys, Dfs, DfsConfig, DfsError, LogicalPartitionPlacement, ReadAffinity, SweepReason,
    READ_DEADLINE_MS,
};
use gesall_formats::SharedBytes;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A read serves the file's bytes or fails — and it may fail only on a
/// file some block of which has no stored live replica left.
fn check_read(dfs: &Dfs, path: &str, want: &[u8]) -> Result<(), TestCaseError> {
    match dfs.read_file_shared(path) {
        Ok(got) => prop_assert_eq!(got.as_slice(), want, "{}", path),
        Err(e) => prop_assert!(!dfs.file_available(path), "{path} is whole, read said {e}"),
    }
    Ok(())
}

/// Everything a read sequence leaves on a filesystem's registry, one
/// line each: the `dfs.*` counters and every node's service-time
/// histogram (buckets and sum).
fn read_telemetry(dfs: &Dfs, n_nodes: usize) -> Vec<String> {
    let counters = dfs.metrics().counter_snapshot().into_iter();
    let counters = counters.filter(|(k, _)| k.starts_with("dfs.")).map(|(k, v)| format!("{k} = {v}"));
    let latency = (0..n_nodes).map(|n| {
        let h = dfs.metrics().histogram(&format!("dfs.read.latency.node{n}.micros"));
        format!("node {n} latency {:?}, sum {}", h.snapshot(), h.sum())
    });
    counters.chain(latency).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One fault schedule — flaky reads, slow nodes (some past the read
    /// deadline), corrupt replicas — armed alike on two fresh
    /// filesystems, and one single-threaded read sequence run on each:
    /// every read gives the same bytes or the same error, and the
    /// counters and latency histograms end identical. Nothing on the
    /// read path reads a clock or races a thread. Whatever the schedule,
    /// a read that succeeds serves the file's bytes.
    #[test]
    fn fault_schedules_replay_exactly(
        data in proptest::collection::vec(any::<u8>(), 1..6_000),
        block_size in 256usize..2048,
        replication in 1usize..=3,
        flaky in proptest::collection::vec(0u64..8, 4),
        slow in proptest::collection::vec(
            prop_oneof![Just(0u64), 1u64..20, READ_DEADLINE_MS..READ_DEADLINE_MS + 5_000],
            4,
        ),
        corrupt in proptest::collection::vec((0usize..1000, 0usize..3), 0..4),
        reads in proptest::collection::vec(
            (0usize..1000, 0usize..1000, proptest::option::of(0usize..4)),
            1..12,
        ),
    ) {
        const NODES: usize = 4;
        let armed = || {
            let dfs = Dfs::new(DfsConfig { n_nodes: NODES, block_size, replication, ..DfsConfig::default() });
            let info = dfs.write_file("/f", &data).unwrap();
            for &(block, replica) in &corrupt {
                let b = &info.blocks[block % info.blocks.len()];
                dfs.corrupt_block("/f", block % info.blocks.len(), replica % b.nodes.len()).unwrap();
            }
            for node in 0..NODES {
                dfs.inject_flaky_reads(node, flaky[node]);
                dfs.inject_slow_node(node, slow[node]);
            }
            dfs
        };
        let (a, b) = (armed(), armed());
        for &(off_frac, len_frac, affinity) in &reads {
            let offset = off_frac * data.len() / 1000;
            let len = len_frac * (data.len() - offset) / 1000;
            let read = |dfs: &Dfs| {
                dfs.read_file_range_shared_at("/f", offset, len, ReadAffinity(affinity))
                    .map(|r| (r.bytes.to_vec(), r.local_bytes, r.remote_bytes))
            };
            let got = read(&a);
            prop_assert_eq!(&got, &read(&b), "range {}+{} affinity {:?}", offset, len, affinity);
            if let Ok((bytes, _, _)) = &got {
                prop_assert_eq!(bytes.as_slice(), &data[offset..offset + len]);
            }
        }
        prop_assert_eq!(read_telemetry(&a, NODES), read_telemetry(&b, NODES));
        // Disarmed, only the corruption is left: a read serves the
        // file, or fails because some block has no stored replica.
        for dfs in [&a, &b] {
            for node in 0..NODES {
                dfs.inject_flaky_reads(node, 0);
                dfs.inject_slow_node(node, 0);
            }
            check_read(dfs, "/f", &data)?;
        }
    }

    #[test]
    fn files_roundtrip_under_any_block_size(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        block_size in 1usize..4096,
        n_nodes in 1usize..8,
        replication in 1usize..4,
    ) {
        let dfs = Dfs::new(DfsConfig { n_nodes, block_size, replication, ..DfsConfig::default() });
        let info = dfs.write_file("/f", &data).unwrap();
        prop_assert_eq!(info.len, data.len());
        let expected_blocks = data.len().div_ceil(block_size.max(1));
        prop_assert_eq!(info.blocks.len(), if data.is_empty() { 0 } else { expected_blocks });
        // Every block's replica count is min(replication, n_nodes).
        for b in &info.blocks {
            prop_assert_eq!(b.nodes.len(), replication.min(n_nodes));
        }
        prop_assert_eq!(dfs.read_file_shared("/f").unwrap(), data);
    }

    #[test]
    fn logical_partitions_always_single_homed(
        data in proptest::collection::vec(any::<u8>(), 1..10_000),
        block_size in 64usize..512,
        n_nodes in 1usize..10,
        path_salt in 0u32..1000,
    ) {
        let dfs = Dfs::new(DfsConfig { n_nodes, block_size, replication: 1, ..DfsConfig::default() });
        let path = format!("/part-{path_salt}");
        let info = dfs
            .write_shared_with_policy(&path, SharedBytes::from_vec(data.clone()), &LogicalPartitionPlacement)
            .unwrap();
        prop_assert!(info.single_home().is_some());
        prop_assert_eq!(dfs.read_file_shared(&path).unwrap(), data);
    }

    #[test]
    fn byte_accounting_is_exact(
        sizes in proptest::collection::vec(1usize..3000, 1..10),
        replication in 1usize..3,
    ) {
        let dfs = Dfs::new(DfsConfig { n_nodes: 4, block_size: 256, replication, ..DfsConfig::default() });
        let mut total = 0usize;
        for (i, size) in sizes.iter().enumerate() {
            let data = vec![i as u8; *size];
            dfs.write_file(&format!("/f{i}"), &data).unwrap();
            total += size * replication.min(4);
        }
        let stored: usize = dfs.node_stats().iter().map(|s| s.bytes).sum();
        prop_assert_eq!(stored, total);
    }

    /// Verify-on-read round-trips under any block size and range
    /// geometry: every range read equals the oracle slice, before and
    /// after an arbitrary replica is corrupted. A damaged replica is
    /// never served — the read heals it from a survivor instead.
    #[test]
    fn range_reads_survive_arbitrary_replica_corruption(
        data in proptest::collection::vec(any::<u8>(), 1..8_000),
        block_size in 64usize..1024,
        ranges in proptest::collection::vec((0u32..1000, 0u32..1000), 1..6),
        corrupt_at in 0u32..1000,
        corrupt_replica in 0usize..2,
    ) {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size,
            replication: 2,
            ..DfsConfig::default()
        });
        let info = dfs.write_file("/f", &data).unwrap();
        let pick = |frac: u32, n: usize| (frac as usize * n / 1000).min(n - 1);
        let block = pick(corrupt_at, info.blocks.len());
        dfs.corrupt_block("/f", block, corrupt_replica).unwrap();
        for (off_frac, len_frac) in ranges {
            let offset = pick(off_frac, data.len() + 1).min(data.len());
            let len = pick(len_frac, data.len() - offset + 1);
            let got = dfs.read_file_range_shared("/f", offset, len).unwrap();
            prop_assert_eq!(got.as_slice(), &data[offset..offset + len]);
        }
        prop_assert_eq!(dfs.read_file_shared("/f").unwrap(), data.clone());
        // Whatever was detected got repaired (a survivor always exists).
        let detected = dfs.metrics().counter(metrics_keys::BLOCKS_CORRUPT_DETECTED).get();
        let repaired = dfs.metrics().counter(metrics_keys::BLOCKS_CORRUPT_REPAIRED).get();
        prop_assert_eq!(detected, repaired);
        // And the namespace is back at full replication.
        let info = dfs.stat("/f").unwrap();
        prop_assert!(info.blocks.iter().all(|b| b.nodes.len() == 2));
    }

    /// Whatever happens to a filesystem — writes (repeats included),
    /// deletes, bit rot, silent wipes, declared node deaths, incremental
    /// re-replication, retention sweeps, pins, reads that quarantine and
    /// repair — the metadata stays consistent with itself after every
    /// step, outcomes match a path → bytes model, and every file that
    /// still has its blocks reads back byte-identical. A sweep removes
    /// the unpinned files under its prefix and marks the pinned ones,
    /// which go at their last unpin.
    #[test]
    fn namespace_invariants_hold_under_any_history(
        ops in proptest::collection::vec((0u8..16, 0usize..1000, 0usize..1000), 1..80),
        block_size in 64usize..512,
        replication in 1usize..4,
    ) {
        const NODES: usize = 5;
        let dfs = Dfs::new(DfsConfig { n_nodes: NODES, block_size, replication, ..DfsConfig::default() });
        let mut files: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut pins: BTreeMap<String, u64> = BTreeMap::new();
        let mut marked: BTreeSet<String> = BTreeSet::new();
        let mut under_replicated: Vec<u64> = Vec::new();
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let prefix = format!("/{}/", a % 2);
            let path = format!("{prefix}f{}", a % 7);
            match kind {
                0..=4 => {
                    let data: Vec<u8> = (0..b * 2).map(|i| (i * 7 + a) as u8).collect();
                    let expect = if files.contains_key(&path) {
                        Err(DfsError::FileExists(path.clone()))
                    } else if dfs.dead_nodes().len() == NODES {
                        Err(DfsError::NoLiveNodes)
                    } else {
                        Ok(data.len())
                    };
                    prop_assert_eq!(dfs.write_file(&path, &data).map(|info| info.len), expect.clone());
                    if expect.is_ok() {
                        files.insert(path, data);
                    }
                }
                5 => {
                    let deleted = dfs.delete(&path);
                    if pins.contains_key(&path) {
                        prop_assert_eq!(deleted, Err(DfsError::Pinned(path)));
                    } else if files.remove(&path).is_some() {
                        prop_assert_eq!(deleted, Ok(()));
                    } else {
                        prop_assert_eq!(deleted, Err(DfsError::FileNotFound(path)));
                    }
                }
                6 | 7 => {
                    // Bit rot on some replica of some block, if there is one.
                    if let Ok(info) = dfs.stat(&path) {
                        if let Some(blk) = info.blocks.get(b % info.blocks.len().max(1)) {
                            let _ = dfs.corrupt_block(&path, b % info.blocks.len(), a % blk.nodes.len().max(1));
                        }
                    }
                }
                8 => dfs.kill_node(b % NODES),
                9 => under_replicated.extend(dfs.fail_node(b % NODES).under_replicated),
                10 => {
                    // Ids of since-deleted files are among them: ignored.
                    dfs.re_replicate_blocks(&under_replicated);
                    under_replicated.clear();
                }
                11 => {
                    let report = dfs.sweep_prefix(&prefix, SweepReason::Released);
                    let under = |p: &&String| p.starts_with(&prefix);
                    prop_assert_eq!(report.pinned_skipped, pins.keys().filter(under).count());
                    marked.extend(pins.keys().filter(under).cloned());
                    let before = files.len();
                    files.retain(|p, _| !p.starts_with(&prefix) || pins.contains_key(p));
                    prop_assert_eq!(report.swept, before - files.len());
                }
                12..=14 => {
                    if let Some(want) = files.get(&path) {
                        check_read(&dfs, &path, want)?;
                    } else {
                        prop_assert_eq!(dfs.read_file_shared(&path).unwrap_err(), DfsError::FileNotFound(path));
                    }
                }
                _ if b % 2 == 0 => {
                    prop_assert_eq!(dfs.pin(&path).is_ok(), files.contains_key(&path));
                    if files.contains_key(&path) {
                        *pins.entry(path).or_insert(0) += 1;
                    }
                }
                _ => {
                    dfs.unpin(&path);
                    if let Some(n) = pins.get_mut(&path) {
                        *n -= 1;
                        if *n == 0 {
                            pins.remove(&path);
                            if marked.remove(&path) {
                                files.remove(&path);
                            }
                        }
                    }
                }
            }
            if let Err(broken) = dfs.check_namespace() {
                prop_assert!(false, "after step {step} {:?}: {broken}", ops[step]);
            }
        }
        prop_assert_eq!(dfs.list("/"), files.keys().cloned().collect::<Vec<_>>());
        for (path, want) in &files {
            prop_assert_eq!(dfs.pin_count(path), pins.get(path).copied().unwrap_or(0));
            check_read(&dfs, path, want)?;
        }
        dfs.check_namespace().map_err(TestCaseError::fail)?;
    }
    /// The content store keeps each content once, whatever happens
    /// around it. `cas_put` draws its payload from a small pool, so equal
    /// contents recur under other keys and roots, interleaved with
    /// deletes, sweeps, pins and node deaths. After every step each live
    /// entry reads back the bytes put under it (or fails only once its
    /// blocks are gone), the metadata — content index included — is
    /// consistent, and until a node dies the store holds no more bytes
    /// than the distinct live contents.
    #[test]
    fn cas_puts_keep_each_content_once_under_any_history(
        ops in proptest::collection::vec((0u8..10, 0usize..1000, 0usize..1000), 1..60),
        block_size in 64usize..512,
        replication in 1usize..3,
    ) {
        const NODES: usize = 4;
        let pool: Vec<Vec<u8>> = vec![
            (0..1500).map(|i| (i % 251) as u8).collect(),
            (0..1500).map(|i| (i % 241) as u8).collect(),
            (0..700).map(|i| (i * 7) as u8).collect(),
            Vec::new(),
        ];
        let dfs = Dfs::new(DfsConfig { n_nodes: NODES, block_size, replication, ..DfsConfig::default() });
        let mut files: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut pins: BTreeMap<String, u64> = BTreeMap::new();
        let mut marked: BTreeSet<String> = BTreeSet::new();
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let root = format!("/t{}", a % 2);
            let key = (b % 6) as u64;
            let path = Dfs::cas_path(&root, key);
            match kind {
                0..=3 => {
                    let data = &pool[a % pool.len()];
                    match dfs.cas_put(&root, key, SharedBytes::from_vec(data.clone())) {
                        // A hit hands the payload back. An unpinned entry
                        // holding other bytes, or unreadable since a node
                        // died, is replaced; a pinned one keeps its own.
                        Ok(bytes) => {
                            prop_assert_eq!(bytes.as_slice(), data.as_slice());
                            if !pins.contains_key(&path) {
                                files.insert(path, data.clone());
                            }
                        }
                        // With every node dead, an unpinned entry is
                        // unreadable, and the put removes it.
                        Err(e) => {
                            prop_assert_eq!(e, DfsError::NoLiveNodes);
                            if !pins.contains_key(&path) {
                                files.remove(&path);
                            }
                        }
                    }
                }
                4 => {
                    let deleted = dfs.delete(&path);
                    if pins.contains_key(&path) {
                        prop_assert_eq!(deleted, Err(DfsError::Pinned(path)));
                    } else {
                        prop_assert_eq!(deleted.is_ok(), files.remove(&path).is_some());
                    }
                }
                5 => {
                    let report = dfs.sweep_prefix(&root, SweepReason::Completed);
                    let under = |p: &&String| p.starts_with(&format!("{root}/"));
                    marked.extend(pins.keys().filter(under).cloned());
                    let before = files.len();
                    files.retain(|p, _| !under(&p) || pins.contains_key(p));
                    prop_assert_eq!(report.swept, before - files.len());
                }
                6 => {
                    prop_assert_eq!(dfs.pin(&path).is_ok(), files.contains_key(&path));
                    if files.contains_key(&path) {
                        *pins.entry(path).or_insert(0) += 1;
                    }
                }
                7 | 8 => {
                    dfs.unpin(&path);
                    if let Some(n) = pins.get_mut(&path) {
                        *n -= 1;
                        if *n == 0 {
                            pins.remove(&path);
                            if marked.remove(&path) {
                                files.remove(&path);
                            }
                        }
                    }
                }
                _ => {
                    dfs.fail_node(b % NODES);
                }
            }
            if let Err(broken) = dfs.check_namespace() {
                prop_assert!(false, "after step {step} {:?}: {broken}", ops[step]);
            }
            prop_assert_eq!(dfs.list("/"), files.keys().cloned().collect::<Vec<_>>());
            for (path, want) in &files {
                check_read(&dfs, path, want)?;
            }
            if dfs.dead_nodes().is_empty() {
                let distinct: BTreeSet<&Vec<u8>> = files.values().collect();
                let bound: usize = distinct.iter().map(|c| c.len()).sum();
                prop_assert!(
                    dfs.resident_bytes() <= bound as u64,
                    "after step {step}: {} resident, {bound} distinct", dfs.resident_bytes()
                );
            }
        }
    }
}
