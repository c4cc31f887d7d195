//! Deterministic fault injection for the MapReduce runtime.
//!
//! A [`FaultPlan`] describes, ahead of time, which task attempts panic,
//! which run artificially slowly, and which nodes die when. Rate-based
//! panics are derived from a pure hash of `(seed, kind, task, attempt)`,
//! so the same plan injects the same faults on every run regardless of
//! thread interleaving — the property the seed-determinism tests assert.

use crate::job::TaskKind;
use std::collections::{HashMap, HashSet};

/// A scheduled node loss: `node` dies once `after_completed_maps`
/// map-task commits have happened (0 = before the first map commits).
/// Deaths fire during map waves, under the same scheduler lock as the
/// triggering commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDeath {
    pub node: usize,
    pub after_completed_maps: usize,
}

/// A scheduled storage corruption: when a shuffle write's path contains
/// `path_contains`, flip a byte of the stored payload of its `block`-th
/// block's `replica`-th home. The block's checksum (computed before the
/// flip) stays honest, so the DFS detects the damage on first read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptBlockFault {
    pub path_contains: String,
    pub block: usize,
    pub replica: usize,
}

/// Storage-layer gray failures — lies, limps, and flakes rather than
/// clean deaths. Armed on the engine's shuffle DFS when a job starts
/// (see `MapReduceEngine::run_job`), so the whole matrix runs under the
/// same seeded, deterministic harness as task-level faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DfsFaults {
    pub corrupt_blocks: Vec<CorruptBlockFault>,
    /// `(node, fail_first_n)`: the node's next n replica reads fail
    /// with a retryable transient error.
    pub flaky_reads: Vec<(usize, u64)>,
    /// `(node, ms)`: every replica read served by the node sleeps
    /// first — hedged reads are the countermeasure under test.
    pub slow_nodes: Vec<(usize, u64)>,
}

impl DfsFaults {
    pub fn is_empty(&self) -> bool {
        self.corrupt_blocks.is_empty() && self.flaky_reads.is_empty() && self.slow_nodes.is_empty()
    }
}

/// A deterministic, seeded description of the faults to inject.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    map_panic_rate: f64,
    reduce_panic_rate: f64,
    /// Rate-based panics are only injected for attempt indices below this
    /// bound, so a task with enough retry budget always eventually
    /// succeeds (models transient faults). Explicit panics ignore it.
    panic_max_attempt: usize,
    explicit_panics: HashSet<(TaskKind, usize, usize)>,
    /// `(reduce task, attempt)` → records the attempt's writer takes
    /// before the attempt panics.
    output_cuts: HashMap<(usize, usize), u64>,
    slowdowns: HashMap<(TaskKind, usize, usize), u64>,
    node_deaths: Vec<NodeDeath>,
    dfs_faults: DfsFaults,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::seeded(0)
    }
}

impl FaultPlan {
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            map_panic_rate: 0.0,
            reduce_panic_rate: 0.0,
            panic_max_attempt: 2,
            explicit_panics: HashSet::new(),
            output_cuts: HashMap::new(),
            slowdowns: HashMap::new(),
            node_deaths: Vec::new(),
            dfs_faults: DfsFaults::default(),
        }
    }

    /// Fraction of map attempts (with attempt index below the retry
    /// safety bound) that panic.
    pub fn with_map_panic_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate));
        self.map_panic_rate = rate;
        self
    }

    /// Fraction of reduce attempts that panic.
    pub fn with_reduce_panic_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate));
        self.reduce_panic_rate = rate;
        self
    }

    /// Rate-based panics only hit attempts with index `< bound`.
    pub fn with_panic_max_attempt(mut self, bound: usize) -> FaultPlan {
        self.panic_max_attempt = bound;
        self
    }

    /// Unconditionally panic one specific attempt.
    pub fn panic_on(mut self, kind: TaskKind, task: usize, attempt: usize) -> FaultPlan {
        self.explicit_panics.insert((kind, task, attempt));
        self
    }

    /// Panic one specific reduce attempt mid-partition: after it has
    /// written `after_records` records of its output (a task that emits
    /// fewer is not cut). What the attempt's writer holds by then must
    /// never reach the task's output.
    pub fn cut_reduce_output(mut self, task: usize, attempt: usize, after_records: u64) -> FaultPlan {
        self.output_cuts.insert((task, attempt), after_records);
        self
    }

    /// Stretch one specific attempt by `ms` of injected sleep before its
    /// body runs (a straggler; speculative execution's prey).
    pub fn slow_down(mut self, kind: TaskKind, task: usize, attempt: usize, ms: u64) -> FaultPlan {
        self.slowdowns.insert((kind, task, attempt), ms);
        self
    }

    /// Schedule `node` to die once `n` map commits have happened.
    pub fn kill_node_after_maps(mut self, node: usize, n: usize) -> FaultPlan {
        self.node_deaths.push(NodeDeath {
            node,
            after_completed_maps: n,
        });
        self
    }

    pub fn node_deaths(&self) -> &[NodeDeath] {
        &self.node_deaths
    }

    /// Corrupt a stored shuffle block: any write whose path contains
    /// `path_contains` (e.g. `"map-00002"`) gets the payload of its
    /// `block`-th block's `replica`-th home bit-flipped after the write
    /// lands. Verify-on-read must detect, quarantine, and repair it.
    pub fn corrupt_block(mut self, path_contains: &str, block: usize, replica: usize) -> FaultPlan {
        self.dfs_faults.corrupt_blocks.push(CorruptBlockFault {
            path_contains: path_contains.to_string(),
            block,
            replica,
        });
        self
    }

    /// Make `node`'s next `fail_first_n` replica reads fail with a
    /// retryable transient error (a flaking disk or NIC).
    pub fn flaky_read(mut self, node: usize, fail_first_n: u64) -> FaultPlan {
        self.dfs_faults.flaky_reads.push((node, fail_first_n));
        self
    }

    /// Make every replica read served by `node` sleep `ms` first — a
    /// limping-but-alive node, the prey of hedged reads.
    pub fn slow_node(mut self, node: usize, ms: u64) -> FaultPlan {
        self.dfs_faults.slow_nodes.push((node, ms));
        self
    }

    /// The storage-layer gray failures this plan injects.
    pub fn dfs_faults(&self) -> &DfsFaults {
        &self.dfs_faults
    }

    /// Deterministic: does this attempt panic?
    pub fn should_panic(&self, kind: TaskKind, task: usize, attempt: usize) -> bool {
        if self.explicit_panics.contains(&(kind, task, attempt)) {
            return true;
        }
        let rate = match kind {
            TaskKind::Map => self.map_panic_rate,
            TaskKind::Reduce => self.reduce_panic_rate,
        };
        if rate <= 0.0 || attempt >= self.panic_max_attempt {
            return false;
        }
        let h = mix(self.seed, kind as u64, task as u64, attempt as u64);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < rate
    }

    /// Records this reduce attempt writes before it is cut, if it is.
    pub fn reduce_output_cut(&self, task: usize, attempt: usize) -> Option<u64> {
        self.output_cuts.get(&(task, attempt)).copied()
    }

    /// Injected slowdown for this attempt, if any.
    pub fn slowdown_ms(&self, kind: TaskKind, task: usize, attempt: usize) -> Option<u64> {
        self.slowdowns.get(&(kind, task, attempt)).copied()
    }

    /// The panic message injected for an attempt — deterministic, so
    /// job histories are byte-identical across runs of the same plan.
    pub fn panic_message(kind: TaskKind, task: usize, attempt: usize) -> String {
        format!("injected panic: {kind:?} task {task} attempt {attempt}")
    }

    /// The message of a [`FaultPlan::cut_reduce_output`] panic.
    pub fn cut_message(task: usize, attempt: usize, after_records: u64) -> String {
        format!("injected panic: Reduce task {task} attempt {attempt} after {after_records} records")
    }
}

/// splitmix64-style avalanche of the four fault coordinates.
fn mix(seed: u64, kind: u64, task: u64, attempt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(kind.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(task.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(attempt.wrapping_mul(0x2545_F491_4F6C_DD1D));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_zero_never_panics() {
        let p = FaultPlan::seeded(1);
        for t in 0..100 {
            assert!(!p.should_panic(TaskKind::Map, t, 0));
        }
    }

    #[test]
    fn rate_is_deterministic_and_roughly_calibrated() {
        let p = FaultPlan::seeded(42).with_map_panic_rate(0.3);
        let q = FaultPlan::seeded(42).with_map_panic_rate(0.3);
        let hits = (0..2000)
            .filter(|&t| {
                assert_eq!(
                    p.should_panic(TaskKind::Map, t, 0),
                    q.should_panic(TaskKind::Map, t, 0)
                );
                p.should_panic(TaskKind::Map, t, 0)
            })
            .count();
        assert!((400..=800).contains(&hits), "30% of 2000 ≈ 600, got {hits}");
    }

    #[test]
    fn retry_bound_shields_later_attempts() {
        let p = FaultPlan::seeded(7).with_map_panic_rate(1.0).with_panic_max_attempt(2);
        assert!(p.should_panic(TaskKind::Map, 0, 0));
        assert!(p.should_panic(TaskKind::Map, 0, 1));
        assert!(!p.should_panic(TaskKind::Map, 0, 2));
    }

    #[test]
    fn explicit_panics_ignore_bound_and_kind_rates() {
        let p = FaultPlan::seeded(7).panic_on(TaskKind::Reduce, 3, 5);
        assert!(p.should_panic(TaskKind::Reduce, 3, 5));
        assert!(!p.should_panic(TaskKind::Reduce, 3, 4));
        assert!(!p.should_panic(TaskKind::Map, 3, 5));
    }

    #[test]
    fn dfs_gray_failures_recorded() {
        let p = FaultPlan::seeded(0);
        assert!(p.dfs_faults().is_empty());
        let p = p
            .corrupt_block("map-00002", 0, 1)
            .flaky_read(1, 3)
            .slow_node(2, 25);
        let f = p.dfs_faults();
        assert!(!f.is_empty());
        assert_eq!(
            f.corrupt_blocks,
            vec![CorruptBlockFault {
                path_contains: "map-00002".to_string(),
                block: 0,
                replica: 1
            }]
        );
        assert_eq!(f.flaky_reads, vec![(1, 3)]);
        assert_eq!(f.slow_nodes, vec![(2, 25)]);
    }

    #[test]
    fn slowdowns_and_deaths_recorded() {
        let p = FaultPlan::seeded(0)
            .slow_down(TaskKind::Map, 2, 0, 250)
            .kill_node_after_maps(1, 3);
        assert_eq!(p.slowdown_ms(TaskKind::Map, 2, 0), Some(250));
        assert_eq!(p.slowdown_ms(TaskKind::Map, 2, 1), None);
        assert_eq!(
            p.node_deaths(),
            &[NodeDeath { node: 1, after_completed_maps: 3 }]
        );
    }
}
