//! Cluster and workload specifications (paper Table 3 and §4.1).

/// One physical disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskSpec {
    /// Sequential bandwidth in MB/s.
    pub bandwidth_mb_s: f64,
}

/// One worker node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    pub cores: usize,
    pub ghz: f64,
    pub memory_gb: f64,
    pub disks: Vec<DiskSpec>,
    pub network_gbps: f64,
}

impl NodeSpec {
    /// Aggregate disk bandwidth in MB/s.
    pub fn disk_bandwidth_total(&self) -> f64 {
        self.disks.iter().map(|d| d.bandwidth_mb_s).sum()
    }

    /// Network bandwidth in MB/s.
    pub fn network_mb_s(&self) -> f64 {
        self.network_gbps * 1000.0 / 8.0
    }
}

/// A homogeneous cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub name: String,
    pub n_nodes: usize,
    pub node: NodeSpec,
}

impl ClusterSpec {
    /// Paper Table 3, Cluster A (research): 15 data nodes, 24 cores @
    /// 2.66 GHz, 64 GB, one 3 TB disk at 140 MB/s, 1 Gbps.
    pub fn cluster_a() -> ClusterSpec {
        ClusterSpec {
            name: "Cluster A (research)".into(),
            n_nodes: 15,
            node: NodeSpec {
                cores: 24,
                ghz: 2.66,
                memory_gb: 64.0,
                disks: vec![DiskSpec {
                    bandwidth_mb_s: 140.0,
                }],
                network_gbps: 1.0,
            },
        }
    }

    /// Paper Table 3, Cluster B (NYGC production): 4 data nodes, 16
    /// cores @ 2.4 GHz (hyper-threading off), 256 GB, six 1 TB disks at
    /// 100 MB/s, 10 Gbps.
    pub fn cluster_b() -> ClusterSpec {
        ClusterSpec {
            name: "Cluster B (production)".into(),
            n_nodes: 4,
            node: NodeSpec {
                cores: 16,
                ghz: 2.4,
                memory_gb: 256.0,
                disks: vec![
                    DiskSpec {
                        bandwidth_mb_s: 100.0
                    };
                    6
                ],
                network_gbps: 10.0,
            },
        }
    }

    /// Cluster B restricted to `d` shuffle disks per node (the Table 7 /
    /// Appendix B.1 disk sweep).
    pub fn cluster_b_with_disks(d: usize) -> ClusterSpec {
        let mut c = ClusterSpec::cluster_b();
        c.node.disks = vec![
            DiskSpec {
                bandwidth_mb_s: 100.0
            };
            d.max(1)
        ];
        c
    }

    /// The single server of §2.2: 12 Intel Xeon 2.40 GHz cores, 64 GB,
    /// 7200 RPM HDD.
    pub fn single_server() -> ClusterSpec {
        ClusterSpec {
            name: "Single server".into(),
            n_nodes: 1,
            node: NodeSpec {
                cores: 12,
                ghz: 2.4,
                memory_gb: 64.0,
                disks: vec![DiskSpec {
                    bandwidth_mb_s: 120.0,
                }],
                network_gbps: 1.0,
            },
        }
    }
}

/// Whole-genome workload statistics (paper §4.1 for NA12878).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Read pairs in the sample.
    pub read_pairs: u64,
    /// Bases per read.
    pub read_len: u32,
    /// Compressed FASTQ input in GB.
    pub input_gb: f64,
    /// Aligned BAM dataset size in GB (compressed chunks).
    pub bam_gb: f64,
    /// Reference-index resident size in GB (the per-mapper load).
    pub index_gb: f64,
    /// Shuffled bytes (Snappy-compressed) for MarkDup_opt — paper §4.2:
    /// 375 GB, 1.03× input records.
    pub markdup_opt_shuffle_gb: f64,
    /// Shuffled bytes for MarkDup_reg — paper §4.2: 785 GB, 1.92×.
    pub markdup_reg_shuffle_gb: f64,
}

impl WorkloadSpec {
    /// The NA12878 64× sample: 1.24 G read pairs, 2×282 GB raw FASTQ
    /// (220 GB compressed), 2,504,895,008 reads.
    pub fn na12878() -> WorkloadSpec {
        WorkloadSpec {
            read_pairs: 1_252_447_504,
            read_len: 125,
            input_gb: 220.0,
            bam_gb: 380.0,
            index_gb: 4.3,
            markdup_opt_shuffle_gb: 375.0,
            markdup_reg_shuffle_gb: 785.0,
        }
    }

    /// Total reads.
    pub fn reads(&self) -> u64 {
        self.read_pairs * 2
    }

    /// A linearly scaled-down workload (for sweeps).
    pub fn scaled(&self, factor: f64) -> WorkloadSpec {
        WorkloadSpec {
            read_pairs: (self.read_pairs as f64 * factor) as u64,
            read_len: self.read_len,
            input_gb: self.input_gb * factor,
            bam_gb: self.bam_gb * factor,
            index_gb: self.index_gb,
            markdup_opt_shuffle_gb: self.markdup_opt_shuffle_gb * factor,
            markdup_reg_shuffle_gb: self.markdup_reg_shuffle_gb * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_parameters() {
        let a = ClusterSpec::cluster_a();
        assert_eq!(a.n_nodes, 15);
        assert_eq!(a.n_nodes * a.node.cores, 360);
        assert_eq!(a.node.disks.len(), 1);
        let b = ClusterSpec::cluster_b();
        assert_eq!(b.n_nodes, 4);
        assert_eq!(b.node.disks.len(), 6);
        assert!((b.node.network_mb_s() - 1250.0).abs() < 1e-9);
        assert_eq!(ClusterSpec::cluster_b_with_disks(2).node.disks.len(), 2);
    }

    #[test]
    fn workload_sanity() {
        let w = WorkloadSpec::na12878();
        assert_eq!(w.reads(), 2_504_895_008);
        assert!(w.markdup_reg_shuffle_gb > w.markdup_opt_shuffle_gb);
        let half = w.scaled(0.5);
        assert!((half.input_gb - 110.0).abs() < 1e-9);
        assert_eq!(half.index_gb, w.index_gb, "index size does not scale");
    }
}
