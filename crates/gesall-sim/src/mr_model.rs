//! The MapReduce phase cost model for shuffling-intensive genomic jobs
//! (Tables 4–7, Fig. 5b, Appendix B.1).
//!
//! Encoded observations from the paper:
//!
//! * **Quadratic reduce-side merge** (Appendix B.1, citing Li et al.
//!   [15]): bytes read/written during the multipass merge grow with the
//!   square of intermediate data per disk; "one disk can sustain up to
//!   100 GB of shuffled and merged data".
//! * **Map-side merge contention** (Fig. 5b): concurrent map tasks with
//!   large partitions overlap their merge phases on the shared disk.
//! * **Slow-start** (§4.2): reducers scheduled at 5% of maps completed
//!   occupy slots while waiting for map output, hurting resource
//!   efficiency; 80% restores it.
//! * **Repeated program invocation** (§4.4 factor 3): external programs
//!   called per-partition cost more than one whole-dataset call.

use crate::spec::{ClusterSpec, WorkloadSpec};

/// Reference clock all CPU-second constants are expressed at.
pub const REF_GHZ: f64 = 2.4;

/// Map-side CPU per GB of BAM scanned (decode + key extraction +
/// serialization), core-seconds at [`REF_GHZ`].
pub const MAP_CPU_S_PER_GB: f64 = 25.0;

/// Reduce-side CPU per shuffled record (merge + external program +
/// transformation), core-seconds at [`REF_GHZ`].
pub const REDUCE_CPU_S_PER_RECORD: f64 = 6.8e-5;

/// A disk sustains this much shuffled+merged data before the multipass
/// merge goes quadratic (the paper's 100 GB rule).
pub const DISK_MERGE_CAPACITY_GB: f64 = 100.0;

/// Per-container startup overhead, seconds.
pub const TASK_STARTUP_S: f64 = 2.0;

/// One shuffling MapReduce job's workload parameters.
#[derive(Debug, Clone)]
pub struct MrJobSpec {
    pub name: String,
    /// Input scanned by mappers, GB.
    pub input_gb: f64,
    /// Map-output bytes crossing the shuffle (post-compression), GB.
    pub shuffle_gb: f64,
    /// Records crossing the shuffle.
    pub shuffle_records: f64,
    /// Output written by reducers, GB.
    pub output_gb: f64,
    /// Input logical partitions (= map tasks).
    pub n_partitions: usize,
    pub mappers_per_node: usize,
    pub reducers_per_node: usize,
    /// `mapreduce.job.reduce.slowstart.completedmaps`.
    pub slowstart: f64,
    /// Extra multiplier on map+reduce CPU from invoking external
    /// programs per-partition instead of once (§4.4 factor 3; Fig. 6b
    /// ratios 1.1–1.9).
    pub invocation_overhead: f64,
    /// Map-side sort buffer, GB (2 GB is Hadoop's max, §4.2).
    pub sort_buffer_gb: f64,
}

/// Phase times of a simulated job, seconds.
#[derive(Debug, Clone, Copy)]
pub struct PhaseBreakdown {
    /// Map compute + input read + spill writes (per-wave sum).
    pub map_s: f64,
    /// Map-side merge of spills (disk-contended).
    pub map_merge_s: f64,
    /// Network shuffle + reduce-side multipass merge.
    pub shuffle_merge_s: f64,
    /// Reduce compute + output write.
    pub reduce_s: f64,
    /// End-to-end wall clock.
    pub wall_s: f64,
    /// Slot-seconds reducers spent occupied-but-idle (slow-start waste).
    pub reducer_idle_slot_s: f64,
}

/// Simulate one MR job on a cluster.
pub fn simulate_mr_job(cluster: &ClusterSpec, job: &MrJobSpec) -> PhaseBreakdown {
    let node = &cluster.node;
    let ghz_scale = node.ghz / REF_GHZ;
    let n_nodes = cluster.n_nodes as f64;
    let map_slots = (cluster.n_nodes * job.mappers_per_node).max(1) as f64;
    let reduce_slots = (cluster.n_nodes * job.reducers_per_node).max(1) as f64;
    let waves = (job.n_partitions as f64 / map_slots).ceil().max(1.0);

    // ---- Map phase -----------------------------------------------------
    let per_partition_gb = job.input_gb / job.n_partitions.max(1) as f64;
    let map_cpu_task = per_partition_gb * MAP_CPU_S_PER_GB * job.invocation_overhead / ghz_scale;
    // Concurrent mappers on a node share its disks for input.
    let node_disk = node.disk_bandwidth_total() / 1024.0; // GB/s
    let read_task = per_partition_gb / (node_disk / job.mappers_per_node.max(1) as f64);
    // Spills: output beyond the sort buffer is written once (and read
    // back in the map-side merge below).
    let per_task_output_gb = job.shuffle_gb / job.n_partitions.max(1) as f64;
    let spills = (per_task_output_gb / job.sort_buffer_gb).ceil().max(1.0);
    let spill_write_task = per_task_output_gb / (node_disk / job.mappers_per_node.max(1) as f64);
    let map_s = waves * (TASK_STARTUP_S + map_cpu_task + read_task + spill_write_task);

    // ---- Map-side merge (Fig. 5b) ---------------------------------------
    // Only multi-spill tasks re-read and re-write their output; the
    // merges of concurrent tasks overlap on the node's disks.
    let map_merge_s = if spills > 1.0 {
        let merge_io_gb_node = 2.0 * per_task_output_gb * job.mappers_per_node as f64;
        waves * merge_io_gb_node / node_disk
    } else {
        0.0
    };

    // ---- Shuffle + reduce-side merge ------------------------------------
    let node_shuffle_gb = job.shuffle_gb / n_nodes;
    let net_s = node_shuffle_gb / (node.network_mb_s() / 1024.0);
    // Shuffle overlaps the tail of the map phase.
    let overlap = ((1.0 - job.slowstart) * map_s).min(net_s);
    let net_visible_s = net_s - overlap * 0.8;
    // Initial write of fetched segments + multipass merge per disk
    // (quadratic beyond the capacity knee).
    let d = node.disks.len().max(1) as f64;
    let per_disk_gb = node_shuffle_gb / d;
    let merge_io_gb = per_disk_gb * (1.0 + per_disk_gb / DISK_MERGE_CAPACITY_GB);
    let disk_bw_gb = node.disks[0].bandwidth_mb_s / 1024.0;
    let merge_s = (per_disk_gb + 2.0 * merge_io_gb) / disk_bw_gb;
    let shuffle_merge_s = net_visible_s + merge_s;

    // ---- Reduce phase ----------------------------------------------------
    let reduce_cpu_total =
        job.shuffle_records * REDUCE_CPU_S_PER_RECORD * job.invocation_overhead / ghz_scale;
    let reduce_cpu_s = reduce_cpu_total / reduce_slots;
    let write_s = (job.output_gb / n_nodes) / node_disk;
    let reduce_s = TASK_STARTUP_S + reduce_cpu_s + write_s;

    let wall_s = map_s + map_merge_s + shuffle_merge_s + reduce_s;

    // Reducer idle slot-time: reducers occupy containers from the
    // slow-start point until maps finish, doing only fetches.
    let reducers_start = job.slowstart * (map_s + map_merge_s);
    let idle = ((map_s + map_merge_s) - reducers_start - net_s * 0.5).max(0.0);
    let reducer_idle_slot_s = idle * reduce_slots;

    PhaseBreakdown {
        map_s,
        map_merge_s,
        shuffle_merge_s,
        reduce_s,
        wall_s,
        reducer_idle_slot_s,
    }
}

/// Parallel-vs-serial metrics (the paper's §4.1 definitions).
#[derive(Debug, Clone, Copy)]
pub struct JobMetrics {
    pub wall_s: f64,
    pub speedup: f64,
    pub resource_efficiency: f64,
    pub serial_slot_s: f64,
}

/// Compute speedup / resource efficiency / serial slot time for a job.
pub fn job_metrics(
    cluster: &ClusterSpec,
    job: &MrJobSpec,
    single_node_s: f64,
) -> (PhaseBreakdown, JobMetrics) {
    let b = simulate_mr_job(cluster, job);
    let speedup = single_node_s / b.wall_s;
    // Serial slot time: every occupied slot × its occupancy, idle
    // reducers included (they hold containers from the slow-start point).
    let map_slot_s = (cluster.n_nodes * job.mappers_per_node) as f64 * (b.map_s + b.map_merge_s);
    let reduce_slot_s = (cluster.n_nodes * job.reducers_per_node) as f64
        * (b.shuffle_merge_s + b.reduce_s)
        + b.reducer_idle_slot_s;
    let serial_slot_s = map_slot_s + reduce_slot_s;
    // Cores "used" = average concurrently-occupied slots over the job —
    // this is what makes a late slow-start improve efficiency (fewer
    // idle reducer containers), the paper's Table 5 fix.
    let cores_used = (serial_slot_s / b.wall_s).max(1.0);
    (
        b,
        JobMetrics {
            wall_s: b.wall_s,
            speedup,
            resource_efficiency: speedup / cores_used,
            serial_slot_s,
        },
    )
}

// ---------------------------------------------------------------------
// Job builders for the paper's rounds
// ---------------------------------------------------------------------

/// Round 3, MarkDuplicates. `opt` selects the bloom-filter variant
/// (shuffles 1.03× input records / 375 GB vs 1.92× / 785 GB, §4.2).
pub fn markdup_job(
    workload: &WorkloadSpec,
    opt: bool,
    n_partitions: usize,
    mappers_per_node: usize,
    reducers_per_node: usize,
    slowstart: f64,
) -> MrJobSpec {
    let (shuffle_gb, record_ratio, name) = if opt {
        (workload.markdup_opt_shuffle_gb, 1.03, "MarkDup_opt")
    } else {
        (workload.markdup_reg_shuffle_gb, 1.92, "MarkDup_reg")
    };
    MrJobSpec {
        name: name.into(),
        input_gb: workload.bam_gb,
        shuffle_gb,
        shuffle_records: workload.reads() as f64 * record_ratio,
        output_gb: workload.bam_gb,
        n_partitions,
        mappers_per_node,
        reducers_per_node,
        slowstart,
        invocation_overhead: 1.35,
        sort_buffer_gb: 2.0,
    }
}

/// Round 2: AddReplaceReadGroups + CleanSam (map) → FixMateInformation
/// (reduce); shuffles the whole dataset once (no reduction).
pub fn round2_job(
    workload: &WorkloadSpec,
    n_partitions: usize,
    mappers_per_node: usize,
    reducers_per_node: usize,
) -> MrJobSpec {
    MrJobSpec {
        name: "Round2 clean+fixmate".into(),
        input_gb: workload.bam_gb,
        shuffle_gb: workload.bam_gb,
        shuffle_records: workload.reads() as f64,
        output_gb: workload.bam_gb,
        n_partitions,
        mappers_per_node,
        reducers_per_node,
        slowstart: 0.05,
        invocation_overhead: 1.3,
        sort_buffer_gb: 2.0,
    }
}

/// Round 5: HaplotypeCaller over 23 chromosome partitions — the degree-
/// of-parallelism collapse of §4.4 (90 slots available, 23 usable).
pub fn round5_wall_seconds(cluster: &ClusterSpec, workload: &WorkloadSpec) -> f64 {
    // HC CPU per read is heavy; 23 tasks regardless of slots; the
    // largest chromosome (~8% of the genome) is the straggler.
    let hc_cpu_s_per_read = 1.2e-4 / (cluster.node.ghz / REF_GHZ);
    let usable = 23.min(cluster.n_nodes * cluster.node.cores);
    let straggler_share = 0.08; // chr1 / whole genome
    let reads = workload.reads() as f64;
    let balanced = reads * hc_cpu_s_per_read / usable as f64;
    let straggler = reads * straggler_share * hc_cpu_s_per_read;
    balanced.max(straggler)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b() -> ClusterSpec {
        ClusterSpec::cluster_b()
    }

    fn w() -> WorkloadSpec {
        WorkloadSpec::na12878()
    }

    #[test]
    fn markdup_opt_faster_than_reg_like_table7() {
        let opt = simulate_mr_job(&b(), &markdup_job(&w(), true, 64, 16, 16, 0.05));
        let reg = simulate_mr_job(&b(), &markdup_job(&w(), false, 64, 16, 16, 0.05));
        assert!(
            opt.wall_s < reg.wall_s * 0.75,
            "opt {:.0}s must clearly beat reg {:.0}s",
            opt.wall_s,
            reg.wall_s
        );
        // Magnitudes: Table 7 reports opt ≈ 1.4h, reg ≈ 2.9–4.7h.
        let (opt_h, reg_h) = (opt.wall_s / 3600.0, reg.wall_s / 3600.0);
        assert!((0.7..3.0).contains(&opt_h), "{opt_h}");
        assert!((1.5..7.0).contains(&reg_h), "{reg_h}");
    }

    #[test]
    fn more_disks_help_reg_more_than_opt_like_table7() {
        let wall = |opt: bool, disks: usize| {
            simulate_mr_job(
                &ClusterSpec::cluster_b_with_disks(disks),
                &markdup_job(&w(), opt, 64, 16, 16, 0.05),
            )
            .wall_s
        };
        // Reg (196 GB/node shuffled): 1→6 disks is a large win.
        let reg_gain = wall(false, 1) / wall(false, 6);
        // Opt (94 GB/node): smaller win — nearer the capacity knee.
        let opt_gain = wall(true, 1) / wall(true, 6);
        assert!(reg_gain > 1.25, "reg gain {reg_gain}");
        assert!(opt_gain < reg_gain, "opt gain {opt_gain} < reg gain {reg_gain}");
        assert!(opt_gain > 1.0);
        // Diminishing returns: 3→6 disks helps reg less than 1→2.
        let d12 = wall(false, 1) / wall(false, 2);
        let d36 = wall(false, 3) / wall(false, 6);
        assert!(d12 > d36, "diminishing returns: {d12} vs {d36}");
    }

    #[test]
    fn quadratic_merge_beyond_disk_capacity() {
        // Past ~100 GB per disk, shuffle+merge time grows superlinearly.
        let shuffle_merge = |shuffle_gb: f64| {
            let mut job = markdup_job(&w(), true, 64, 16, 16, 0.05);
            job.shuffle_gb = shuffle_gb;
            simulate_mr_job(&ClusterSpec::cluster_b_with_disks(1), &job).shuffle_merge_s
        };
        let t200 = shuffle_merge(200.0); // 50 GB per node-disk
        let t800 = shuffle_merge(800.0); // 200 GB per node-disk
        assert!(
            t800 > 4.0 * t200 * 1.15,
            "4x data must take >4.6x time: {t800} vs {t200}"
        );
    }

    #[test]
    fn scale_up_like_table5() {
        // MarkDup_opt on Cluster A with 1..15 nodes: wall decreases,
        // efficiency low (<0.5) and roughly flat.
        let single_node_s = 14.5 * 3600.0; // gold standard (Table 7 in-house)
        let mut prev_wall = f64::INFINITY;
        let mut effs = Vec::new();
        for nodes in [1usize, 5, 10, 15] {
            let mut cluster = ClusterSpec::cluster_a();
            cluster.n_nodes = nodes;
            let job = markdup_job(&w(), true, nodes * 6, 6, 6, 0.05);
            let (_, m) = job_metrics(&cluster, &job, single_node_s);
            assert!(m.wall_s < prev_wall, "wall must shrink with nodes");
            prev_wall = m.wall_s;
            effs.push(m.resource_efficiency);
        }
        for e in &effs {
            assert!(
                (0.01..0.5).contains(e),
                "efficiency should be low (<50%), got {e}"
            );
        }
        // 15-node wall lands in the paper's ballpark (Table 5: ~4000 s).
        assert!(
            (1500.0..12000.0).contains(&prev_wall),
            "15-node MarkDup_opt wall {prev_wall}s"
        );
    }

    #[test]
    fn slowstart_reduces_idle_slot_time() {
        let early = simulate_mr_job(&b(), &markdup_job(&w(), true, 64, 16, 16, 0.05));
        let late = simulate_mr_job(&b(), &markdup_job(&w(), true, 64, 16, 16, 0.8));
        assert!(
            late.reducer_idle_slot_s < early.reducer_idle_slot_s,
            "80% slowstart must cut idle reducer time: {} vs {}",
            late.reducer_idle_slot_s,
            early.reducer_idle_slot_s
        );
    }

    #[test]
    fn partition_size_tradeoff_like_table4_and_fig5b() {
        // MarkDuplicates input-partition sweep: few huge partitions pay
        // map-side merge contention; the medium configuration wins.
        let wall = |parts: usize| {
            simulate_mr_job(
                &ClusterSpec::cluster_a(),
                &markdup_job(&w(), true, parts, 6, 6, 0.05),
            )
        };
        let huge = wall(30); // ~12.7 GB per partition: multi-spill merges
        let medium = wall(510);
        assert!(
            huge.map_merge_s > medium.map_merge_s,
            "large partitions must pay map-side merge: {} vs {}",
            huge.map_merge_s,
            medium.map_merge_s
        );
        assert!(huge.wall_s > medium.wall_s, "Table 4 round 3 shape");
    }

    #[test]
    fn round5_underutilizes_cluster_like_sec44() {
        let t = round5_wall_seconds(&ClusterSpec::cluster_a(), &w());
        // Paper: 7h14m with only 23 of 90 slots usable.
        assert!(
            (3.0..12.0).contains(&(t / 3600.0)),
            "round5 {:.1}h",
            t / 3600.0
        );
        // Doubling the cluster does not help once 23 tasks bound it.
        let mut big = ClusterSpec::cluster_a();
        big.n_nodes = 30;
        let t2 = round5_wall_seconds(&big, &w());
        assert!((t2 - t).abs() < 1.0, "chromosome count caps parallelism");
    }

    #[test]
    fn round2_is_shuffle_dominated() {
        let r2 = simulate_mr_job(&ClusterSpec::cluster_a(), &round2_job(&w(), 90, 6, 6));
        assert!(r2.shuffle_merge_s + r2.map_merge_s > 0.2 * r2.wall_s, "{r2:?}");
    }
}
