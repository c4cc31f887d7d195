//! End-to-end gray-failure tests for the DFS-transit shuffle: silent
//! block corruption, flaky reads, and slow-but-alive nodes — the
//! storage-layer failure matrix the DFS's integrity layer exists to
//! survive. The faults are armed on the transit DFS itself, before it is
//! attached to the engine. Every scenario must finish with reduce output
//! byte-identical to the fault-free run; the counters prove the
//! machinery actually fired rather than the faults never landing.

use gesall_dfs::{metrics_keys, Dfs, DfsConfig};
use gesall_mapreduce::counters::keys;
use gesall_mapreduce::{
    ClusterResources, HashPartitioner, InputSplit, JobConfig, MapContext, MapReduceEngine, Mapper,
    ReduceContext, Reducer,
};

struct Tokenize;
impl Mapper for Tokenize {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: &u64, line: &String, ctx: &mut MapContext<'_, String, u64>) {
        for w in line.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer for Sum {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u64>, ctx: &mut ReduceContext<'_, String, u64>) {
        ctx.emit(k, vs.iter().sum());
    }
}

/// `n_splits` splits of deterministic text (same generator as the
/// fault-tolerance suite, so oracles are comparable across files).
fn word_splits(n_splits: usize, lines_per_split: usize) -> Vec<InputSplit<u64, String>> {
    let words = ["gesall", "hadoop", "yarn", "hdfs", "bwa", "gatk", "shuffle"];
    (0..n_splits)
        .map(|s| {
            let records: Vec<(u64, String)> = (0..lines_per_split)
                .map(|i| {
                    let line: Vec<&str> = (0..5)
                        .map(|j| words[(s * 31 + i * 7 + j) % words.len()])
                        .collect();
                    (i as u64, line.join(" "))
                })
                .collect();
            InputSplit::new(format!("split-{s}"), records)
        })
        .collect()
}

fn sorted_output(res: &gesall_mapreduce::JobResult<String, u64>) -> Vec<(String, u64)> {
    let mut all: Vec<(String, u64)> = res.outputs.iter().flatten().cloned().collect();
    all.sort();
    all
}

/// Three reducers and a 4 KiB sort buffer. No attempt is slowed, so no
/// backup adds reads to the counters the assertions read.
fn quick_cfg() -> JobConfig {
    JobConfig {
        n_reducers: 3,
        io_sort_bytes: 4096,
        ..JobConfig::default()
    }
}

/// A 3-node transit DFS with replication 2: one surviving verified
/// replica for every block, plus a third node to host repairs. `arm`
/// injects the scenario's storage faults before any job writes to it.
fn transit_dfs(arm: impl FnOnce(&Dfs)) -> Dfs {
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 3,
        block_size: 1 << 20,
        replication: 2,
        ..DfsConfig::default()
    });
    arm(&dfs);
    dfs
}

/// The engine every scenario runs on: one compute node, shuffling
/// through `dfs`.
fn engine_on(dfs: &Dfs) -> MapReduceEngine {
    MapReduceEngine::new(one_compute_node()).with_shuffle_dfs(dfs.clone())
}

/// Every task slot on one compute node. Map outputs are pinned to the
/// writer's node and reducers prefer the replica on their own, so with a
/// single compute node every shuffle fetch has DFS node 0 as its
/// first-choice replica (node 1 holds the second copy, node 2 hosts
/// repairs). Limping node 0 therefore puts the slow replica in front of
/// every read: the first one seeds its latency history and every later
/// one sees a suspect primary — wherever the scheduler happens to place
/// the reducers.
fn one_compute_node() -> ClusterResources {
    ClusterResources::uniform(1, 6, 6 * 1024)
}

/// The reference output, computed without the engine: the word count of
/// the splits.
fn fault_free_output(n_splits: usize) -> Vec<(String, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    for split in word_splits(n_splits, 30) {
        for (_, line) in &split.records {
            for w in line.split_whitespace() {
                *counts.entry(w.to_string()).or_insert(0u64) += 1;
            }
        }
    }
    counts.into_iter().collect()
}

#[test]
fn corrupted_replica_never_reaches_a_reducer() {
    // Map task 0's shuffle output gets its primary replica bit-flipped
    // at write time. The primary is what reducers read first, so the
    // read path must detect the damage, quarantine the replica, serve
    // the fetch from the survivor, and repair — and the reduce output
    // must equal the uncorrupted oracle byte for byte. One compute node,
    // so that holds wherever the scheduler puts the reducers: on three
    // nodes a wave whose reducers all land beside the healthy secondary
    // reads only that (read affinity) and detects nothing.
    let dfs = transit_dfs(|dfs| dfs.inject_corrupt_on_write("map-00000", 0, 0));
    let res = engine_on(&dfs)
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("a corrupt replica must never fail the job");

    assert_eq!(sorted_output(&res), fault_free_output(8));
    assert!(res.counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
    // Every read verifies, quarantines and repairs before it returns:
    // the counters are final once the job is.
    let get = |k: &str| dfs.metrics().counter(k).get();
    let detected = get(metrics_keys::BLOCKS_CORRUPT_DETECTED);
    assert!(detected >= 1, "the injected corruption must be detected on read");
    assert_eq!(
        get(metrics_keys::BLOCKS_CORRUPT_REPAIRED),
        detected,
        "every detection must be repaired from a survivor"
    );
    assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 0, "integrity is a DFS-level save");
}

#[test]
fn flaky_and_slow_nodes_still_complete_with_retries_and_hedges() {
    // Both replica homes' first six reads flake with a transient error
    // and node 0 — every fetch's first choice — charges 15 ms per read,
    // past the hedge budget; nothing sleeps.
    // The job must complete with exact output, the DFS retry loop must
    // have fired (the first read to get past node 0's flake finds node 1
    // flaking too), and node 0's latency histogram must have pushed
    // reads into hedging.
    let dfs = transit_dfs(|dfs| {
        dfs.inject_flaky_reads(0, 6);
        dfs.inject_flaky_reads(1, 6);
        dfs.inject_slow_node(0, 15);
    });
    let res = engine_on(&dfs)
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
        .expect("transient flakes and a limping node must be survivable");

    assert_eq!(sorted_output(&res), fault_free_output(12));
    let get = |k: &str| dfs.metrics().counter(k).get();
    assert!(
        get(metrics_keys::READS_RETRIED) >= 1,
        "a read that finds every replica flaking must retry with backoff"
    );
    assert!(
        get(metrics_keys::READS_HEDGED) >= 1,
        "reads against the limping node must hedge once its p90 is on record"
    );
    assert_eq!(
        get(metrics_keys::BLOCKS_CORRUPT_DETECTED),
        0,
        "flakes and stalls are not corruption"
    );
}

#[test]
fn acceptance_corrupt_slow_and_flaky_job_matches_fault_free_run() {
    // One corrupt-on-write, one slow node and flaky reads on both
    // replica homes, armed on one transit DFS. The job completes
    // with byte-identical reduce output, corruption is detected and
    // fully repaired, and hedged reads fired against the slow node —
    // which is also the one holding the corrupt replica.
    let dfs = transit_dfs(|dfs| {
        dfs.inject_corrupt_on_write("map-00000", 0, 0);
        dfs.inject_flaky_reads(0, 6);
        dfs.inject_flaky_reads(1, 6);
        dfs.inject_slow_node(0, 15);
    });
    let res = engine_on(&dfs)
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
        .expect("the combined gray-failure matrix must be survivable");

    assert_eq!(sorted_output(&res), fault_free_output(12));
    // A hedged read reads its primary to completion, so the corrupt
    // replica on the slow node is repaired before its read returns.
    let get = |k: &str| dfs.metrics().counter(k).get();
    let detected = get(metrics_keys::BLOCKS_CORRUPT_DETECTED);
    assert!(detected > 0, "dfs.blocks.corrupt.detected must be nonzero");
    assert_eq!(
        get(metrics_keys::BLOCKS_CORRUPT_REPAIRED),
        detected,
        "dfs.blocks.corrupt.repaired must equal detected"
    );
    assert!(get(metrics_keys::READS_HEDGED) > 0, "dfs.reads.hedged must be nonzero");
    assert!(res.counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
}
