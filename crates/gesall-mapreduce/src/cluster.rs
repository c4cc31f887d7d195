//! YARN-like resource model: nodes offer (vcores, memory); tasks request
//! containers; the slots-per-node arithmetic decides how many mappers or
//! reducers run concurrently on each node — the "degree of parallelism"
//! knob the paper tunes throughout §4 (e.g. "each mapper needs 13 GB so
//! we can run 16 concurrent mappers per node").

/// The container every map and reduce task runs in: 1 vcore, 1 GiB.
/// What a node offers ([`ClusterResources::uniform`]) is therefore the
/// one place that decides how many tasks it runs at once.
pub const TASK_VCORES: usize = 1;
pub const TASK_MEMORY_MB: usize = 1024;

/// Resources of one worker node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeResources {
    pub vcores: usize,
    pub memory_mb: usize,
}

/// The cluster a job runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterResources {
    pub nodes: Vec<NodeResources>,
}

impl ClusterResources {
    /// A uniform cluster of `n` nodes.
    pub fn uniform(n: usize, vcores: usize, memory_mb: usize) -> ClusterResources {
        ClusterResources {
            nodes: vec![NodeResources { vcores, memory_mb }; n],
        }
    }

    /// Paper Table 3, Cluster A (research): 15 data nodes, 24 cores,
    /// 64 GB each.
    pub fn cluster_a() -> ClusterResources {
        ClusterResources::uniform(15, 24, 64 * 1024)
    }

    /// Paper Table 3, Cluster B (NYGC production): 4 data nodes, 16
    /// cores (hyper-threading off per §4.5.1), 256 GB each.
    pub fn cluster_b() -> ClusterResources {
        ClusterResources::uniform(4, 16, 256 * 1024)
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Container slots node `i` can host for a task demanding
    /// (`task_vcores`, `task_memory_mb`).
    pub fn slots_on(&self, node: usize, task_vcores: usize, task_memory_mb: usize) -> usize {
        let n = &self.nodes[node];
        let by_cpu = n.vcores / task_vcores.max(1);
        let by_mem = n.memory_mb / task_memory_mb.max(1);
        by_cpu.min(by_mem)
    }

    /// Total slots across the cluster for a task shape.
    pub fn total_slots(&self, task_vcores: usize, task_memory_mb: usize) -> usize {
        (0..self.nodes.len())
            .map(|i| self.slots_on(i, task_vcores, task_memory_mb))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shapes() {
        let a = ClusterResources::cluster_a();
        assert_eq!(a.n_nodes(), 15);
        // §4.2: "each mapper/reducer must be given 10GB ... 6 tasks are
        // the most we can run on one node" (memory-bound).
        assert_eq!(a.slots_on(0, 1, 10 * 1024), 6);
        assert_eq!(a.total_slots(1, 10 * 1024), 90); // "90 parallel tasks"

        let b = ClusterResources::cluster_b();
        assert_eq!(b.n_nodes(), 4);
        // §4.5.1: 13 GB per mapper ⇒ 16 concurrent mappers per node
        // (capped by 16 cores).
        assert_eq!(b.slots_on(0, 1, 13 * 1024), 16);
    }

    #[test]
    fn cpu_bound_slots() {
        let c = ClusterResources::uniform(2, 8, 1 << 20);
        assert_eq!(c.slots_on(0, 4, 1), 2); // cpu-bound
        assert_eq!(c.total_slots(4, 1), 4);
    }

    #[test]
    fn zero_demands_treated_as_one() {
        let c = ClusterResources::uniform(1, 4, 4096);
        assert_eq!(c.slots_on(0, 0, 0), 4);
    }
}
