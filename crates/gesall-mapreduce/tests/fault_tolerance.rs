//! End-to-end fault-tolerance tests: retries, job abort, speculative
//! execution, node loss mid-wave, and seeded determinism — the engine's
//! side of the Hadoop failure model the paper's production runs rely on.

use gesall_formats::wire::{Cursor, Wire};
use gesall_mapreduce::counters::keys;
use gesall_mapreduce::runtime::{AttemptOutcome, TaskEvent, MAX_ATTEMPTS};
use gesall_mapreduce::{
    ClusterResources, Counters, FaultPlan, GesallError, HashPartitioner, InputSplit, JobConfig,
    MapContext, MapReduceEngine, Mapper, OutputFormat, RecordWriter, ReduceContext, Reducer,
    SlotLease, TaskKind,
};
use std::cell::Cell;
use std::cmp::Ordering;
use gesall_telemetry::SpanKind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::thread::ThreadId;

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

/// `n_splits` splits of deterministic text.
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

/// Three reducers and a 4 KiB sort buffer. Speculation is always on,
/// and exact counts hold anyway: it is decided from injected charges,
/// and only a slowed attempt is ever backed up.
fn quick_cfg() -> JobConfig {
    JobConfig {
        n_reducers: 3,
        io_sort_bytes: 4096,
        ..JobConfig::default()
    }
}

/// The same job with no fault plan — the reference output.
fn fault_free_output() -> Vec<(String, u64)> {
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("fault-free job");
    sorted_output(&res)
}

#[test]
fn panicking_attempts_are_retried_until_success() {
    // Map task 2 panics on attempts 0 and 1, succeeds on attempt 2;
    // reduce task 0 panics once. Output must still be exact.
    let plan = FaultPlan::seeded(1)
        .panic_on(TaskKind::Map, 2, 0)
        .panic_on(TaskKind::Map, 2, 1)
        .panic_on(TaskKind::Reduce, 0, 0);
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("retries must rescue the job");

    assert_eq!(sorted_output(&res), fault_free_output());
    assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 3);
    // The rescued map task committed on its third attempt.
    let winner = res
        .events
        .iter()
        .find(|e| {
            e.kind == TaskKind::Map && e.task_id == 2 && e.outcome == AttemptOutcome::Succeeded
        })
        .expect("task 2 must eventually succeed");
    assert_eq!(winner.attempt, 2);
    // The failures are on the record, with the injected message.
    let failures: Vec<_> = res
        .events
        .iter()
        .filter(|e| e.outcome == AttemptOutcome::Failed)
        .collect();
    assert_eq!(failures.len(), 3);
    assert!(failures
        .iter()
        .all(|e| e.error.as_deref().unwrap_or("").contains("injected panic")));
}

#[test]
fn job_fails_after_max_attempts() {
    assert_eq!(MAX_ATTEMPTS, 4);
    let engine = |plan: FaultPlan| {
        MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096)).with_fault_plan(plan)
    };
    // Map task 1 panics on every attempt but the engine's last: the job
    // is rescued, and each retry was charged its backoff —
    // RETRY_BACKOFF_MS · 2^(k−1) after failure k — instead of waiting it.
    let last = MAX_ATTEMPTS - 1;
    let plan = (0..last).fold(FaultPlan::seeded(2), |p, a| p.panic_on(TaskKind::Map, 1, a));
    let res = engine(plan)
        .run_job(
            quick_cfg(),
            &Tokenize,
            &Sum,
            &HashPartitioner,
            word_splits(6, 20),
        )
        .expect("the last attempt rescues the task");
    let mut attempts: Vec<_> = res
        .events
        .iter()
        .filter(|e| e.kind == TaskKind::Map && e.task_id == 1)
        .collect();
    attempts.sort_by_key(|e| e.attempt);
    assert_eq!(attempts.len(), MAX_ATTEMPTS);
    assert_eq!(attempts[last].outcome, AttemptOutcome::Succeeded);
    for failed in &attempts[..last] {
        assert_eq!(failed.outcome, AttemptOutcome::Failed);
    }
    assert_eq!(res.counters.get(keys::BACKOFF_CHARGED_MS), 10 + 20 + 40);

    // One more panicking attempt than the engine makes: the job aborts
    // with a TaskFailed naming the task, after exactly MAX_ATTEMPTS.
    let plan =
        (0..=MAX_ATTEMPTS).fold(FaultPlan::seeded(2), |p, a| p.panic_on(TaskKind::Map, 1, a));
    let err = engine(plan)
        .run_job(
            quick_cfg(),
            &Tokenize,
            &Sum,
            &HashPartitioner,
            word_splits(6, 20),
        )
        .expect_err("job must abort once the task is out of attempts");
    match err {
        GesallError::TaskFailed {
            kind,
            task_id,
            attempts,
            last_error,
        } => {
            assert_eq!(kind, TaskKind::Map);
            assert_eq!(task_id, 1);
            assert_eq!(attempts, MAX_ATTEMPTS);
            assert!(last_error.contains("injected panic"), "{last_error}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
}

#[test]
fn speculative_backup_beats_slowed_original() {
    // Map task 0's first attempt is charged far past the engine's
    // straggler threshold (2× the median charge, at least 25 ms): it
    // gets one backup, which wins the race. Nothing waits out the 5 s.
    let plan = FaultPlan::seeded(3).slow_down(TaskKind::Map, 0, 0, 5_000);
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096)).with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("speculation must not corrupt the job");

    assert_eq!(sorted_output(&res), fault_free_output());
    assert_eq!(res.counters.get(keys::SPECULATIVE_LAUNCHED), 1);
    assert_eq!(res.counters.get(keys::SPECULATIVE_WASTED), 1);
    // The backup attempt committed; the slowed original was killed.
    let winner = res
        .events
        .iter()
        .find(|e| {
            e.kind == TaskKind::Map && e.task_id == 0 && e.outcome == AttemptOutcome::Succeeded
        })
        .expect("task 0 must succeed");
    assert!(winner.speculative, "the backup must win against a 5 s straggler");
    assert!(res.events.iter().any(|e| {
        e.kind == TaskKind::Map
            && e.task_id == 0
            && !e.speculative
            && e.outcome == AttemptOutcome::Killed
    }));
    assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 0);
}

#[test]
fn node_death_mid_map_wave_recovers_and_completes() {
    // Node 1 dies after 6 map commits. Its in-flight work is re-queued,
    // the committed map outputs its datanode held are re-executed after
    // the map wave, and the job still produces the exact fault-free
    // output.
    // The first six attempts run together on all six slots (two on the
    // doomed node), so two of the first six commits are pinned to node
    // 1's datanode and the death takes committed map output.
    let plan = FaultPlan::seeded(4).kill_node_after_maps(1, 6);
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
    let res = first_six_then_death(&engine, |mapper| {
        engine.run_job(quick_cfg(), mapper, &Sum, &HashPartitioner, met_splits())
    })
    .expect("two surviving nodes must finish the job");

    assert_eq!(sorted_output(&res), fault_free_output_12());
    assert_eq!(engine.dead_nodes(), vec![1]);
    assert!(
        res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS) >= 1,
        "a node with 2 slots must have committed some of the first 6 maps"
    );
    // The output equality above proves the shuffle never read lost
    // data: every map whose output died with node 1 was re-run.
}

#[test]
fn node_death_after_map_commit_reships_from_dfs_replica() {
    use gesall_dfs::{Dfs, DfsConfig};
    // Same death scenario as above, but with replication 2 on the
    // transit DFS: the engine fails node 1's datanode, the committed map
    // outputs pinned there survive on a replica, and the reducers fetch
    // them from it — zero map re-executions.
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 3,
        block_size: 1 << 20,
        replication: 2,
        ..DfsConfig::default()
    });
    // The death lands while committed output is homed on node 1 (see
    // the test above).
    let plan = FaultPlan::seeded(9).kill_node_after_maps(1, 6);
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .with_shuffle_dfs(dfs.clone())
        .with_fault_plan(plan);
    let res = first_six_then_death(&engine, |mapper| {
        engine.run_job(quick_cfg(), mapper, &Sum, &HashPartitioner, met_splits())
    })
    .expect("replicated shuffle output must survive one node death");

    assert_eq!(sorted_output(&res), fault_free_output_12());
    assert_eq!(engine.dead_nodes(), vec![1]);
    assert!(dfs.is_node_dead(1), "the engine fails the dead node's datanode");
    // Maps committed on node 1 before it died were served from a
    // replica: each committed once, never re-run.
    let homed_on_dead: Vec<usize> =
        map_commits(&res).filter(|e| e.node == 1).map(|e| e.task_id).collect();
    assert!(!homed_on_dead.is_empty(), "node 1 committed some of the first 6 maps");
    for t in homed_on_dead {
        assert_eq!(map_commits(&res).filter(|e| e.task_id == t).count(), 1, "map {t} re-ran");
    }
    assert_eq!(
        res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS),
        0,
        "with replication 2 and a single death no map output is lost"
    );
    assert!(res.counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
}

/// The job's committed map attempts.
fn map_commits<K, V>(res: &gesall_mapreduce::JobResult<K, V>) -> impl Iterator<Item = &TaskEvent> {
    res.events
        .iter()
        .filter(|e| e.kind == TaskKind::Map && e.outcome == AttemptOutcome::Succeeded)
}

#[test]
fn a_map_only_job_reruns_no_committed_map_on_node_loss() {
    // A map-only job hands its output to the driver, which places it on
    // the DFS: nothing it committed lived on the node's local disk, so a
    // node death re-runs no committed map. Only the attempts the death
    // caught on node 1 are killed, and their tasks commit on a live node.
    let plan = FaultPlan::seeded(4).kill_node_after_maps(1, 6);
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
    let res = first_six_then_death(&engine, |mapper| {
        engine.run_map_only(quick_cfg(), mapper, met_splits())
    })
    .expect("two surviving nodes must finish the job");
    let quiet = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .run_map_only(quick_cfg(), &Tokenize, word_splits(12, 30))
        .unwrap();

    assert_eq!(res.outputs, quiet.outputs);
    assert_eq!(engine.dead_nodes(), vec![1]);
    assert_eq!(res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS), 0);
    let commit_node = |t: usize| -> Vec<usize> {
        map_commits(&res).filter(|e| e.task_id == t).map(|e| e.node).collect()
    };
    let on_dead: Vec<_> = res.events.iter().filter(|e| e.node == 1).collect();
    assert!(
        on_dead.iter().any(|e| e.outcome == AttemptOutcome::Succeeded),
        "node 1 committed some of the first 6 maps: {on_dead:?}"
    );
    for e in on_dead {
        match e.outcome {
            AttemptOutcome::Succeeded => {
                assert_eq!(commit_node(e.task_id), vec![1], "{e:?} re-ran");
            }
            AttemptOutcome::Killed => {
                let node = commit_node(e.task_id);
                assert!(node.len() == 1 && node[0] != 1, "{e:?} re-committed on {node:?}");
            }
            AttemptOutcome::Failed => panic!("no attempt of this plan fails: {e:?}"),
        }
    }
}

#[test]
fn a_death_fails_the_co_located_datanode_when_nodes_outnumber_datanodes() {
    use gesall_dfs::{Dfs, DfsConfig};
    // Six one-slot engine nodes over three unreplicated datanodes:
    // engine nodes 1 and 4 share datanode 1. The six first attempts run
    // together, so node 4's death at the sixth commit fails datanode 1
    // with the outputs both nodes pinned there, and those maps re-run.
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 3,
        block_size: 1 << 20,
        replication: 1,
        ..DfsConfig::default()
    });
    let plan = FaultPlan::seeded(6).kill_node_after_maps(4, 6);
    let engine = MapReduceEngine::new(ClusterResources::uniform(6, 1, 4096))
        .with_shuffle_dfs(dfs.clone())
        .with_fault_plan(plan);
    let res = first_six_then_death(&engine, |mapper| {
        engine.run_job(quick_cfg(), mapper, &Sum, &HashPartitioner, met_splits())
    })
    .expect("five surviving nodes must finish the job");

    assert_eq!(sorted_output(&res), fault_free_output_12());
    assert_eq!(engine.dead_nodes(), vec![4]);
    assert_eq!(dfs.dead_nodes(), vec![1], "engine node 4 lives on datanode 4 % 3");
    assert!(res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS) >= 1);
}

/// `word_splits(12, 30)`, each split led by a [`MEET_KEY`] record.
fn met_splits() -> Vec<InputSplit<u64, String>> {
    let mut splits = word_splits(12, 30);
    for split in &mut splits {
        split.records.insert(0, (MEET_KEY, String::new()));
    }
    splits
}

/// Run `job` with a [`GatedTokenize`] that holds the first six map
/// attempts until all six are in flight — every slot of the node-death
/// tests' clusters busy — and every later attempt until the planned
/// death has fired. The first six commits are then those six
/// attempts', so the death takes what the doomed node committed among
/// them, whatever the thread timing.
fn first_six_then_death<R: Send>(
    engine: &MapReduceEngine,
    job: impl FnOnce(&GatedTokenize<'_>) -> R + Send,
) -> R {
    let gate = Gate::default();
    let mapper = GatedTokenize(&gate, 6);
    std::thread::scope(|s| {
        let opens = OpensOnDrop(&gate);
        let run = s.spawn(|| job(&mapper));
        wait_until(|| !engine.dead_nodes().is_empty());
        drop(opens);
        run.join().unwrap()
    })
}

/// Reference output for the 12-split job used in the node-death test.
fn fault_free_output_12() -> Vec<(String, u64)> {
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
        .expect("fault-free job");
    sorted_output(&res)
}

/// Holds every caller of [`Gate::pass`] until the gate opens, counting
/// who arrived.
#[derive(Default)]
struct Gate {
    open: AtomicBool,
    entered: AtomicUsize,
}

impl Gate {
    fn pass(&self) {
        self.entered.fetch_add(1, SeqCst);
        self.wait_open();
    }

    fn wait_open(&self) {
        while !self.open.load(SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    fn wait_entered(&self, n: usize) {
        wait_until(|| self.entered.load(SeqCst) >= n);
    }

    /// Arrive; the first `n` callers wait until all `n` have arrived (a
    /// barrier), and any later one waits at the gate.
    fn meet(&self, n: usize) {
        if self.entered.fetch_add(1, SeqCst) < n {
            self.wait_entered(n);
        } else {
            self.wait_open();
        }
    }
}

/// Opens the gate when dropped, so a failing assertion cannot leave a
/// job parked at it.
struct OpensOnDrop<'a>(&'a Gate);
impl Drop for OpensOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open.store(true, SeqCst);
    }
}

fn wait_until(cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "condition not reached in 20 s");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// [`Tokenize`], except that a record keyed [`GATE_KEY`] waits at the
/// gate, and one keyed [`MEET_KEY`] meets the given number of such
/// records ([`Gate::meet`]); both emit nothing.
struct GatedTokenize<'a>(&'a Gate, usize);
const GATE_KEY: u64 = u64::MAX;
const MEET_KEY: u64 = u64::MAX - 1;
impl Mapper for GatedTokenize<'_> {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, k: &u64, line: &String, ctx: &mut MapContext<'_, String, u64>) {
        match *k {
            GATE_KEY => self.0.pass(),
            MEET_KEY => self.0.meet(self.1),
            _ => {}
        }
        Tokenize.map(k, line, ctx);
    }
}

/// [`Sum`], except that every reduce attempt waits at the gate once its
/// partition is fetched and reduced.
struct GatedSum<'a>(&'a Gate);
impl Reducer for GatedSum<'_> {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u64>, ctx: &mut ReduceContext<'_, String, u64>) {
        Sum.reduce(k, vs, ctx);
    }
    fn finish(&self, _ctx: &mut ReduceContext<'_, String, u64>) {
        self.0.pass();
    }
}

/// Two nodes with one slot each over an unreplicated transit DFS: node
/// 1 dies, taking its datanode, at the third map commit of whichever
/// wave gets there first — never the two-map bystander's.
fn shared_engine_losing_node_1() -> MapReduceEngine {
    use gesall_dfs::{Dfs, DfsConfig};
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 2,
        block_size: 1 << 20,
        replication: 1,
        ..DfsConfig::default()
    });
    MapReduceEngine::new(ClusterResources::uniform(2, 1, 4096))
        .with_shuffle_dfs(dfs)
        .with_fault_plan(FaultPlan::seeded(5).kill_node_after_maps(1, 3))
        .with_recorder(gesall_telemetry::Recorder::new())
}

/// The bystander job's input: split 0 prefers node 1, split 1 prefers
/// node 0. With one slot per node each node's worker takes its own split
/// first, but a worker that finishes early steals the other split while
/// the other node's only slot is busy; a test that needs each split on
/// its own node holds both at a [`MEET_KEY`] record until both have
/// started.
fn bystander_splits() -> Vec<InputSplit<u64, String>> {
    let mut splits = word_splits(2, 10).into_iter();
    let s0 = splits.next().unwrap().at_node(1);
    let s1 = splits.next().unwrap().at_node(0);
    vec![s0, s1]
}

fn bystander_cfg() -> JobConfig {
    JobConfig {
        name: "bystander".into(),
        ..quick_cfg()
    }
}

/// The other job, whose map wave fires the death.
fn run_killer(engine: &MapReduceEngine) {
    let cfg = JobConfig {
        name: "killer".into(),
        ..quick_cfg()
    };
    let res = engine
        .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(4, 10))
        .expect("the job that fires the death recovers its own maps");
    assert_eq!(engine.dead_nodes(), vec![1], "the killer's third commit fires the death");
    let quiet = MapReduceEngine::new(ClusterResources::uniform(2, 1, 4096))
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(4, 10))
        .unwrap();
    assert_eq!(sorted_output(&res), sorted_output(&quiet));
}

/// Whether the bystander's first attempt of map `task` committed on
/// `node`.
fn first_map_committed_on(engine: &MapReduceEngine, task: usize, node: usize) -> bool {
    engine.recorder().spans_of_kind(SpanKind::TaskAttempt).iter().any(|sp| {
        sp.name == format!("map-{task}.0")
            && sp.meta.contains(&("outcome".into(), "Succeeded".into()))
            && sp.meta.contains(&("node".into(), node.to_string()))
    })
}

fn bystander_reference() -> Vec<(String, u64)> {
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 1, 4096));
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(2, 10))
        .unwrap();
    sorted_output(&res)
}

#[test]
fn a_death_another_job_fires_reruns_this_jobs_lost_maps_before_its_reduce_wave() {
    // The bystander's map 0 commits on node 1; its map 1 then holds the
    // map wave open at the gate while the killer runs and fires node 1's
    // death. The killer's wave re-runs only its own maps, and the DFS
    // loses the bystander's unreplicated output with the node — so the
    // bystander must find the loss itself before reducing.
    let engine = shared_engine_losing_node_1();
    let gate = Gate::default();
    let mut splits = bystander_splits();
    splits[1].records.push((GATE_KEY, String::new()));
    let res = std::thread::scope(|s| {
        let bystander = s.spawn(|| {
            engine.run_job(
                bystander_cfg(),
                &GatedTokenize(&gate, 0),
                &Sum,
                &HashPartitioner,
                splits,
            )
        });
        let opens = OpensOnDrop(&gate);
        gate.wait_entered(1);
        wait_until(|| first_map_committed_on(&engine, 0, 1));
        run_killer(&engine);
        drop(opens);
        bystander.join().unwrap()
    })
    .expect("the bystander re-runs the map it lost and completes");

    assert_eq!(sorted_output(&res), bystander_reference());
    assert_eq!(res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS), 1);
    assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 0, "no reducer read the lost map");
    let map0: Vec<_> =
        res.events.iter().filter(|e| e.kind == TaskKind::Map && e.task_id == 0).collect();
    assert_eq!(map0.len(), 2, "{map0:?}");
    assert_eq!((map0[1].attempt, map0[1].node), (1, 0), "the re-run numbers on, on the live node");
    assert_eq!(engine.recorder().shuffle_cells().len(), (4 + 2) * 3, "one matrix per job");
}

#[test]
fn a_reducer_that_finds_its_input_died_with_a_node_reruns_the_lost_map() {
    // The bystander's maps both commit, map 0 on node 1 and map 1 on node
    // 0: each map holds its node's only slot until both have started, so
    // neither worker can steal the other's split. Its first two reduce
    // attempts take both slots and hold them at the gate while the killer
    // fires node 1's death, so reducer 2 fetches after the loss: its
    // failure ends the reduce wave at once, the lost map re-runs, and the
    // reducers without a committed output run again.
    let engine = shared_engine_losing_node_1();
    let (map_barrier, gate) = (Gate::default(), Gate::default());
    let mut splits = bystander_splits();
    for split in &mut splits {
        split.records.insert(0, (MEET_KEY, String::new()));
    }
    let res = std::thread::scope(|s| {
        let bystander = s.spawn(|| {
            engine.run_job(
                bystander_cfg(),
                &GatedTokenize(&map_barrier, 2),
                &GatedSum(&gate),
                &HashPartitioner,
                splits,
            )
        });
        // The map barrier opens with the gate, for the lost map's re-run.
        let opens = (OpensOnDrop(&gate), OpensOnDrop(&map_barrier));
        gate.wait_entered(2);
        assert!(first_map_committed_on(&engine, 0, 1), "map 0 committed on node 1 before the death");
        assert!(first_map_committed_on(&engine, 1, 0), "map 1 committed on node 0 before the death");
        run_killer(&engine);
        drop(opens);
        bystander.join().unwrap()
    })
    .expect("the bystander re-runs the map it lost and completes");

    assert_eq!(sorted_output(&res), bystander_reference());
    assert_eq!(res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS), 1);
    assert_eq!(
        res.counters.get(keys::FAILED_ATTEMPTS),
        1,
        "the first fetch of the lost output ends the wave; no retry spins on it"
    );
    let map0_nodes: Vec<usize> = res
        .events
        .iter()
        .filter(|e| {
            e.kind == TaskKind::Map && e.task_id == 0 && e.outcome == AttemptOutcome::Succeeded
        })
        .map(|e| e.node)
        .collect();
    assert_eq!(map0_nodes, vec![1, 0]);
    assert_eq!(engine.recorder().shuffle_cells().len(), (4 + 2) * 3, "one matrix per job");
}

#[test]
fn acceptance_rate_panics_plus_node_death_match_fault_free_run() {
    // The PR's acceptance scenario: ~10% of map attempts panic AND one
    // node dies mid-wave; the job must complete with output identical to
    // the fault-free run and the fault counters must be non-zero.
    let plan = FaultPlan::seeded(0xFA_17).with_map_panic_rate(0.10).kill_node_after_maps(2, 5);
    // The plan is deterministic: make sure this seed actually injects at
    // least one first-attempt panic over 16 tasks.
    let planned: usize = (0..16)
        .filter(|&t| plan.should_panic(TaskKind::Map, t, 0))
        .count();
    assert!(planned >= 1, "seed must inject at least one panic");

    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(16, 30))
        .expect("retries + recovery must rescue the job");

    let fault_free = {
        let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
        let res = engine
            .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(16, 30))
            .expect("fault-free job");
        sorted_output(&res)
    };
    assert_eq!(sorted_output(&res), fault_free);
    assert!(res.counters.get(keys::FAILED_ATTEMPTS) >= planned as u64);
    assert_eq!(engine.dead_nodes(), vec![2]);
}

#[test]
fn same_seed_gives_byte_identical_histories() {
    // Panics plus a slowed map and a slowed reducer: the attempt history
    // must be byte-identical across two fresh engines. (Node deaths
    // depend on which attempts are in flight when they fire, so they
    // are excluded from this contract.)
    let run = || {
        let plan = FaultPlan::seeded(99)
            .with_map_panic_rate(0.3)
            .with_reduce_panic_rate(0.3)
            .slow_down(TaskKind::Map, 4, 0, 500)
            .slow_down(TaskKind::Reduce, 1, 1, 500);
        let engine =
            MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
        engine
            .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(10, 20))
            .expect("bounded panics must be survivable")
            .history()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    // And the history really recorded injected failures and a backup.
    assert!(first.iter().any(|l| l.contains("outcome=Failed")));
    assert!(first.iter().any(|l| l.contains("speculative=true")), "{first:?}");
}

/// An output format that renders a reducer's records to text as they
/// are emitted — the shape of a BAM partition writer — and counts the
/// writers it hands out on the attempt's bag.
struct Lines;
struct LineWriter(String);
const LINE_WRITERS: &str = "test.line.writers";

impl OutputFormat<String, u64> for Lines {
    type Output = String;
    type Writer = LineWriter;
    fn writer(&self, counters: &Counters) -> LineWriter {
        counters.add(LINE_WRITERS, 1);
        LineWriter(String::new())
    }
}

impl RecordWriter<String, u64> for LineWriter {
    type Output = String;
    fn write(&mut self, word: String, n: u64) {
        self.0.push_str(&format!("{word}\t{n}\n"));
    }
    fn finish(self) -> String {
        self.0
    }
}

#[test]
fn a_tasks_output_is_what_its_committed_attempts_writer_finished_with() {
    let engine = |plan: FaultPlan| {
        MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan)
    };
    let job = |engine: &MapReduceEngine, cfg: JobConfig| {
        engine
            .run_job_to(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30), &Lines)
            .expect("the faults are survivable")
    };
    let clean = job(&engine(FaultPlan::default()), quick_cfg());
    assert_eq!(clean.counters.get(LINE_WRITERS), 3, "one writer per reducer");

    // Reducer 1 dies after its writer took a record, reducer 0 before
    // its body ran: each retry starts a fresh writer, and nothing of the
    // cut one reaches the output.
    let plan = FaultPlan::seeded(5)
        .cut_reduce_output(1, 0, 1)
        .panic_on(TaskKind::Reduce, 0, 0);
    let written = job(&engine(plan.clone()), quick_cfg());
    assert_eq!(written.outputs, clean.outputs);
    assert_eq!(written.counters.get(keys::FAILED_ATTEMPTS), 2);
    assert_eq!(
        written.counters.get(LINE_WRITERS),
        3,
        "a failed attempt's bag — and its writer — never commits"
    );
    assert_eq!(
        written.counters.get(keys::REDUCE_OUTPUT_RECORDS),
        clean.counters.get(keys::REDUCE_OUTPUT_RECORDS)
    );
    // The attempt history is the one the record-collecting default
    // leaves under the same plan: the writer is not a second engine.
    let collected = engine(plan)
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("the faults are survivable");
    assert_eq!(written.history(), collected.history());
    let cut = FaultPlan::cut_message(1, 0, 1);
    assert!(written.history().iter().any(|l| l.contains(&cut)), "{:?}", written.history());
    let rendered: Vec<String> = collected
        .outputs
        .iter()
        .map(|out| out.iter().map(|(w, n)| format!("{w}\t{n}\n")).collect())
        .collect();
    assert_eq!(written.outputs, rendered);

    // A slowed reducer loses to its backup after running its body to
    // the end: that finished output is dropped unseen.
    let slow = FaultPlan::seeded(5).slow_down(TaskKind::Reduce, 0, 0, 5_000);
    let raced = job(&engine(slow), quick_cfg());
    assert_eq!(raced.outputs, clean.outputs);
    assert_eq!(raced.counters.get(keys::SPECULATIVE_WASTED), 1);
    assert_eq!(raced.counters.get(LINE_WRITERS), 3);
    assert!(raced.events.iter().any(|e| {
        e.kind == TaskKind::Reduce && e.task_id == 0 && e.outcome == AttemptOutcome::Killed
    }));
}

/// Comparisons of [`FusedKey`] still to panic; only
/// `a_panic_while_sorting_a_spill_fails_the_attempt_not_the_job` sets it.
static CMP_PANICS_LEFT: AtomicUsize = AtomicUsize::new(0);

/// A `u64` key whose `Ord` panics while [`CMP_PANICS_LEFT`] is nonzero,
/// the way any user key's comparison may. It keeps the default
/// `sort_prefix`, so every spill run is settled by comparison.
#[derive(Clone, PartialEq, Eq)]
struct FusedKey(u64);

impl Ord for FusedKey {
    fn cmp(&self, other: &FusedKey) -> Ordering {
        let lit = CMP_PANICS_LEFT.fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1));
        assert!(lit.is_err(), "FusedKey comparison blew its fuse");
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for FusedKey {
    fn partial_cmp(&self, other: &FusedKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Wire for FusedKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> gesall_formats::Result<FusedKey> {
        u64::decode(cur).map(FusedKey)
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

struct FusedMap;
impl Mapper for FusedMap {
    type InKey = u64;
    type InValue = u64;
    type OutKey = FusedKey;
    type OutValue = u64;
    fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, FusedKey, u64>) {
        ctx.emit(FusedKey(*k % 17), *v);
    }
}

struct FusedSum;
impl Reducer for FusedSum {
    type InKey = FusedKey;
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;
    fn reduce(&self, k: FusedKey, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
        ctx.emit(k.0, vs.iter().sum());
    }
}

/// A comparison that panics inside the spill sort is a panic of the map
/// attempt that was sorting: the attempt fails, the task is retried, and
/// a key that always panics ends the job in a typed error.
///
/// This test does not terminate at the parent commit: the sort ran on a
/// pool thread there, the panic killed that worker with the spill's slot
/// unfilled, and the map attempt waited on the slot for ever.
#[test]
fn a_panic_while_sorting_a_spill_fails_the_attempt_not_the_job() {
    let run = |panics: usize| {
        CMP_PANICS_LEFT.store(panics, SeqCst);
        let splits = (0..4u64)
            .map(|s| InputSplit::new(format!("s{s}"), (0..200).map(|i| (s * 200 + i, i)).collect()))
            .collect();
        let cfg = JobConfig {
            io_sort_bytes: 256,
            ..quick_cfg()
        };
        let res = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096))
            .run_job(cfg, &FusedMap, &FusedSum, &HashPartitioner, splits);
        CMP_PANICS_LEFT.store(0, SeqCst);
        res.map(|res| {
            let mut all: Vec<(u64, u64)> = res.outputs.iter().flatten().copied().collect();
            all.sort_unstable();
            (all, res.counters.get(keys::FAILED_ATTEMPTS))
        })
    };
    let (clean, failed) = run(0).expect("no fuse, no fault");
    assert_eq!(failed, 0);
    assert_eq!(clean.len(), 17);

    let (rescued, failed) = run(1).expect("one failed attempt is retried");
    assert_eq!(failed, 1);
    assert_eq!(rescued, clean);

    match run(usize::MAX).expect_err("a key that never compares cannot be sorted") {
        GesallError::TaskFailed {
            kind,
            attempts,
            last_error,
            ..
        } => {
            assert_eq!(kind, TaskKind::Map);
            assert_eq!(attempts, MAX_ATTEMPTS);
            assert!(last_error.contains("blew its fuse"), "{last_error}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
}

/// What [`TracedKey`] and [`TracedMap`] saw of one job.
struct ProbeLog {
    /// (map task, thread that ran its `map`).
    mapped: Vec<(u64, ThreadId)>,
    /// (map task, thread that compared two keys of its output).
    compared: Vec<(u64, ThreadId)>,
    /// Threads inside `map` or `cmp` right now, and the most there were.
    in_flight: usize,
    peak_in_flight: usize,
}

impl ProbeLog {
    const fn new() -> ProbeLog {
        ProbeLog {
            mapped: Vec::new(),
            compared: Vec::new(),
            in_flight: 0,
            peak_in_flight: 0,
        }
    }
}

static PROBE: Mutex<ProbeLog> = Mutex::new(ProbeLog::new());

thread_local! {
    /// How deep this thread is in probed user code: a `cmp` under a
    /// spill nests in the `map` whose `emit` filled the buffer.
    static PROBE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` as user code: the thread counts on the in-flight gauge while
/// it is inside, once however deep it nests.
fn in_user_code<R>(f: impl FnOnce() -> R) -> R {
    let depth = PROBE_DEPTH.get();
    PROBE_DEPTH.set(depth + 1);
    if depth == 0 {
        let mut log = PROBE.lock().unwrap();
        log.in_flight += 1;
        log.peak_in_flight = log.peak_in_flight.max(log.in_flight);
    }
    let out = f();
    if depth == 0 {
        PROBE.lock().unwrap().in_flight -= 1;
    }
    PROBE_DEPTH.set(depth);
    out
}

fn note(pick: impl FnOnce(&mut ProbeLog) -> &mut Vec<(u64, ThreadId)>, task: u64) {
    let entry = (task, std::thread::current().id());
    let mut log = PROBE.lock().unwrap();
    let seen = pick(&mut log);
    if !seen.contains(&entry) {
        seen.push(entry);
    }
}

/// A key tagged with the map task that emitted it. Default
/// `sort_prefix`: every spill run is one tie run settled by `cmp`.
#[derive(Clone, PartialEq, Eq)]
struct TracedKey {
    task: u64,
    key: u64,
}

impl Ord for TracedKey {
    fn cmp(&self, other: &TracedKey) -> Ordering {
        in_user_code(|| {
            // Two keys of one task meet only on the map side: the reduce
            // merge compares heads of different map outputs.
            if self.task == other.task {
                note(|log| &mut log.compared, self.task);
            }
            (self.key, self.task).cmp(&(other.key, other.task))
        })
    }
}

impl PartialOrd for TracedKey {
    fn partial_cmp(&self, other: &TracedKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Wire for TracedKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.task.encode(buf);
        self.key.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> gesall_formats::Result<TracedKey> {
        Ok(TracedKey {
            task: u64::decode(cur)?,
            key: u64::decode(cur)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.task.encoded_len() + self.key.encoded_len()
    }
}

/// Split `t` holds records `(t, i)`; each is emitted under task `t`'s tag.
struct TracedMap;
impl Mapper for TracedMap {
    type InKey = u64;
    type InValue = u64;
    type OutKey = TracedKey;
    type OutValue = u64;
    fn map(&self, task: &u64, i: &u64, ctx: &mut MapContext<'_, TracedKey, u64>) {
        in_user_code(|| {
            note(|log| &mut log.mapped, *task);
            ctx.emit(TracedKey { task: *task, key: i * 7919 % 101 }, *i);
        })
    }
}

struct TracedCount;
impl Reducer for TracedCount {
    type InKey = TracedKey;
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;
    fn reduce(&self, k: TracedKey, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
        ctx.emit(k.key, vs.len() as u64);
    }
}

#[test]
fn a_grown_grant_starts_parked_workers_without_waiting_for_a_release() {
    // A one-slot lease on four slots: the first task holds the only
    // permit at the gate, and the other three workers park on the
    // lease. Growing the grant must start them at once: all three enter
    // the gate while the first still holds its permit, with no release
    // and no timer to wake them.
    let gate = Gate::default();
    let lease = SlotLease::new(1);
    let mut splits = word_splits(4, 10);
    for split in &mut splits {
        split.records.insert(0, (GATE_KEY, String::new()));
    }
    let cfg = JobConfig {
        slot_lease: Some(lease.clone()),
        ..quick_cfg()
    };
    let engine = MapReduceEngine::new(ClusterResources::uniform(1, 4, 4096));
    let res = std::thread::scope(|s| {
        let job = s.spawn(|| engine.run_map_only(cfg, &GatedTokenize(&gate, 0), splits));
        let opens = OpensOnDrop(&gate);
        gate.wait_entered(1);
        assert_eq!(lease.active(), 1, "one permit, held at the gate");
        lease.set_limit(4);
        gate.wait_entered(4);
        assert_eq!(lease.active(), 4, "the first permit is still held");
        drop(opens);
        job.join().unwrap()
    })
    .expect("the grown job completes");
    assert_eq!(res.outputs.len(), 4);
    assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 0);
    assert_eq!(lease.peak_active(), 4);
}

/// The lease means what it says: everything a map attempt does to its
/// output — the spill sorts and the map-side merge — happens on the
/// thread that ran its `map`, inside the permit that thread holds, so a
/// job granted one slot has one thread in user code at a time. At the
/// parent commit the spill sorts ran on pool threads that held no
/// permit: (a) failed on every run, (b) whenever a pool worker sorted
/// while the permit holder mapped on.
#[test]
fn an_attempts_sort_and_merge_run_on_its_own_thread_inside_its_lease() {
    let run = |lease: Option<SlotLease>| {
        *PROBE.lock().unwrap() = ProbeLog::new();
        let splits = (0..6u64)
            .map(|t| InputSplit::new(format!("s{t}"), (0..600).map(|i| (t, i)).collect()))
            .collect();
        let cfg = JobConfig {
            n_reducers: 2,
            io_sort_bytes: 256,
            slot_lease: lease,
            ..quick_cfg()
        };
        let res = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096))
            .run_job(cfg, &TracedMap, &TracedCount, &HashPartitioner, splits)
            .expect("fault-free job");
        assert!(res.counters.get(keys::MAP_SPILLS) >= 6 * 4, "every map must spill");
        assert!(res.counters.get(keys::MAP_MERGE_SEGMENTS) >= 6 * 4, "and merge its spills");
        let log = PROBE.lock().unwrap();
        // (a) One attempt per task (no faults, no speculation), and every
        // comparison of a task's keys came from the thread that mapped it.
        assert_eq!(log.mapped.len(), 6, "{:?}", log.mapped);
        assert_eq!(log.compared.len(), 6, "every task's output is compared: {:?}", log.compared);
        for entry in &log.compared {
            assert!(log.mapped.contains(entry), "task {} compared on {:?}", entry.0, entry.1);
        }
        log.peak_in_flight
    };
    assert!(run(None) >= 1);
    // (b) Granted one slot of the engine's four, the job never has a
    // second thread in user code.
    let lease = SlotLease::new(1);
    assert_eq!(run(Some(lease.clone())), 1);
    assert_eq!(lease.peak_active(), 1);
}
