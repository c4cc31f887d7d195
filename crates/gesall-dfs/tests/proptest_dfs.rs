//! Property-based tests of the DFS: files round-trip under any block
//! size, placement policies keep their promises, and verify-on-read
//! integrity holds under arbitrary corruption.

use gesall_dfs::{metrics_keys, Dfs, DfsConfig, LogicalPartitionPlacement};
use gesall_formats::SharedBytes;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
}
