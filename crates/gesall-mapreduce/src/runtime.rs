//! The job driver: input splits → map wave → shuffle → reduce wave.
//!
//! Tasks execute as numbered *attempts* under `catch_unwind` isolation:
//! a panicking attempt is retried (with exponential backoff) up to
//! [`JobConfig::max_attempts`] times before the job fails. Stragglers are
//! backed up by speculative attempts, first finisher wins. Node deaths —
//! injected via [`crate::fault::FaultPlan`] — re-schedule the dead node's
//! in-flight attempts and re-run already-committed map tasks whose
//! shuffle output lived on it, exactly as Hadoop must when a slave is
//! lost mid-job (the failure model behind the paper's production-cluster
//! observations).

use crate::cluster::{ClusterResources, TASK_MEMORY_MB, TASK_VCORES};
use crate::counters::{keys, Counters};
use crate::error::{panic_message, GesallError};
use crate::fault::{FaultPlan, NodeDeath};
use crate::lease::{LeasePermit, SlotLease};
use crate::shipping;
use crate::shuffle::{reduce_merge_streamed, Segment, SortSpillBuffer};
use crate::spillpool::SpillPool;
use crate::task::{
    CollectRecords, MapContext, Mapper, OutputFormat, Partitioner, RecordWriter, ReduceContext,
    Reducer,
};
use gesall_dfs::{Dfs, DfsConfig, PinnedPlacement, ReadAffinity, SweepReason};
use gesall_formats::wire::Wire;
use gesall_formats::Codec;
use gesall_telemetry::{OpenSpan, Phase, Recorder, Span, SpanId, SpanKind};
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-task output slots: `None` until the task's winning attempt commits.
type TaskOutputs<O> = Vec<Mutex<Option<O>>>;

/// A committed map task's decision on whether its outputs survive a
/// node death: reducers re-fetch from a surviving replica instead of
/// the engine re-running the map.
type SurvivalCheck<'a> = Option<&'a (dyn Fn(usize) -> bool + Sync)>;

/// How many map-output partition fetches may run ahead of the reduce
/// merge (the bounded prefetch pipeline): the fetch of segment *n+1*
/// always overlaps the merge draining segment *n*.
const SHUFFLE_PREFETCH: usize = 2;

/// A committed map task's shuffle output: one indexed DFS file pinned to
/// the mapper's node; each reducer range-reads its partition's frame.
/// `metas` keeps the per-partition shape for shuffle-matrix recording
/// without touching the file again.
struct MapOutput {
    path: String,
    metas: Vec<SegMeta>,
}

/// Per-partition shape of a shipped map output.
struct SegMeta {
    wire_len: usize,
    compressed: bool,
    /// Record count — lets a reducer know how many nonempty source
    /// runs its merge will see *before* fetching them, which is what
    /// allows the fetch to pipeline with the merge without perturbing
    /// the multipass structure (see
    /// [`reduce_merge_streamed`](crate::shuffle::reduce_merge_streamed)).
    records: u64,
}

/// Per-job configuration (the Hadoop parameters the paper tunes).
#[derive(Debug, Clone)]
pub struct JobConfig {
    pub name: String,
    pub n_reducers: usize,
    /// Map-side sort buffer (`mapreduce.task.io.sort.mb`), in bytes here.
    pub io_sort_bytes: usize,
    /// Reduce-side merge fan-in.
    pub merge_factor: usize,
    /// Maximum attempts per task (`mapreduce.map.maxattempts` analogue).
    /// A task whose attempts all fail aborts the job.
    pub max_attempts: usize,
    /// Base delay before re-running a failed attempt; doubles per
    /// consecutive failure of the same task.
    pub retry_backoff_ms: f64,
    /// Launch backup attempts for stragglers
    /// (`mapreduce.map.speculative` analogue).
    pub speculative: bool,
    /// An attempt is a straggler once more than half of its wave has
    /// committed and it has run this multiple of the median
    /// completed-attempt runtime. The default, 2, is the break-even
    /// point: the overrun equals what the backup costs.
    pub speculative_multiplier: f64,
    /// ... but never before it has run at least this long (keeps
    /// micro-tasks from being pointlessly backed up).
    pub speculative_min_runtime_ms: f64,
    /// Telemetry span to parent this job's trace under ([`SpanId::NONE`]
    /// = a root span). Set by drivers that trace a larger unit — e.g. a
    /// pipeline round — so the job nests inside it.
    pub parent_span: SpanId,
    /// Container-slot lease for this job, handed in by an external
    /// capacity scheduler (gesall-jobsvc). Wave workers take a permit
    /// before each attempt and release it after, so the job never runs
    /// more than the lease's current grant concurrently — the mechanism
    /// that lets many jobs share one engine without oversubscribing the
    /// cluster. `None` (the default) leaves the job unthrottled.
    pub slot_lease: Option<SlotLease>,
    /// DFS directory the job's shuffle transit lives under: transit
    /// files go to `{namespace}/shuffle-{run}/…` instead of the default
    /// `/{name}/shuffle-{run}/…`. The job service sets `/{tenant}/{job}`
    /// here so every tenant's transit sits under one sweepable prefix.
    pub shuffle_namespace: Option<String>,
    /// Codec map-output partitions of at least
    /// [`COMPRESS_MIN_BYTES`](crate::shuffle::COMPRESS_MIN_BYTES) travel
    /// under (the paper's Snappy setting). `None` (the default) defers
    /// to the key-type's
    /// [`Wire::codec_hint`](gesall_formats::wire::Wire::codec_hint)
    /// (value type first, then key type), falling back to [`Codec::Lz`];
    /// `Some(Codec::Raw)` turns compression off.
    pub shuffle_codec: Option<Codec>,
}

impl Default for JobConfig {
    fn default() -> JobConfig {
        JobConfig {
            name: "job".into(),
            n_reducers: 1,
            io_sort_bytes: 64 * 1024 * 1024,
            merge_factor: 10,
            max_attempts: 4,
            retry_backoff_ms: 10.0,
            speculative: true,
            speculative_multiplier: 2.0,
            speculative_min_runtime_ms: 25.0,
            parent_span: SpanId::NONE,
            slot_lease: None,
            shuffle_namespace: None,
            shuffle_codec: None,
        }
    }
}

/// One unit of map input: typed records plus a locality preference
/// (the node holding the logical partition's blocks).
#[derive(Debug, Clone)]
pub struct InputSplit<K, V> {
    pub label: String,
    pub preferred_node: Option<usize>,
    pub records: Vec<(K, V)>,
}

impl<K, V> InputSplit<K, V> {
    pub fn new(label: impl Into<String>, records: Vec<(K, V)>) -> InputSplit<K, V> {
        InputSplit {
            label: label.into(),
            preferred_node: None,
            records,
        }
    }

    pub fn at_node(mut self, node: usize) -> InputSplit<K, V> {
        self.preferred_node = Some(node);
        self
    }
}

/// Map task or reduce task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    Map,
    Reduce,
}

/// How one task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt's result was committed as the task's output.
    Succeeded,
    /// The attempt panicked; the task was retried (or the job aborted).
    Failed,
    /// The attempt finished but its result was discarded — it lost a
    /// speculative race, or its node died while it ran.
    Killed,
}

/// One task attempt's history record — the raw material for Fig. 7-style
/// progress plots and for fault post-mortems.
#[derive(Debug, Clone)]
pub struct TaskEvent {
    pub kind: TaskKind,
    pub task_id: usize,
    /// Attempt number within the task, starting at 0.
    pub attempt: usize,
    /// Whether this was a speculative (backup) attempt.
    pub speculative: bool,
    pub outcome: AttemptOutcome,
    /// Panic message for `Failed` attempts.
    pub error: Option<String>,
    pub node: usize,
    /// Milliseconds since job start.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Whether the task ran on its preferred (data-local) node.
    pub data_local: bool,
}

/// Everything a finished job reports.
#[derive(Debug)]
pub struct JobOutput<O> {
    /// One output per reducer (or per map task for map-only jobs): what
    /// the committed attempt's [`RecordWriter`] finished with.
    pub outputs: Vec<O>,
    pub counters: Counters,
    pub events: Vec<TaskEvent>,
    pub wall_ms: f64,
    pub config: JobConfig,
}

/// A job under the default [`CollectRecords`] format: each task's output
/// is the records it emitted.
pub type JobResult<K, V> = JobOutput<Vec<(K, V)>>;

impl<O> JobOutput<O> {
    /// Canonical attempt history: one line per attempt, sorted, with
    /// wall-clock times and node/thread placement excluded. For a given
    /// [`FaultPlan`] seed this is byte-identical across runs — the
    /// contract the seed-determinism test asserts.
    pub fn history(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{:?} task={} attempt={} speculative={} outcome={:?} error={}",
                    e.kind,
                    e.task_id,
                    e.attempt,
                    e.speculative,
                    e.outcome,
                    e.error.as_deref().unwrap_or("-"),
                )
            })
            .collect();
        lines.sort();
        lines
    }
}

/// The engine: a cluster's worth of worker threads.
pub struct MapReduceEngine {
    cluster: ClusterResources,
    fault_plan: FaultPlan,
    /// Scheduled deaths not yet fired (each fires at most once per engine).
    pending_deaths: Mutex<Vec<NodeDeath>>,
    /// Nodes lost so far; a dead node schedules no further attempts, in
    /// any wave of any subsequent job on this engine.
    dead_nodes: Mutex<HashSet<usize>>,
    /// Called (outside scheduler locks) when a node dies — the DFS layer
    /// hooks re-replication in here.
    node_death_hook: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    /// Span recorder; inert by default ([`Recorder::disabled`]).
    recorder: Recorder,
    /// Engine-wide spill-encoder pool, spawned on the first shuffling job.
    spill_pool: Mutex<Option<Arc<SpillPool>>>,
    /// DFS the shuffle transits through: attached by the owner
    /// ([`MapReduceEngine::with_shuffle_dfs`]), else a private in-memory
    /// one created on the first shuffling job.
    shuffle_dfs: Mutex<Option<Dfs>>,
    /// Monotone id source for shuffle directories and attempt files, so
    /// retried/speculative attempts and repeated jobs never collide on
    /// a DFS path.
    shuffle_seq: AtomicU64,
    /// Whether the fault plan's storage-layer gray failures have been
    /// armed on the shuffle DFS (once per engine: flaky-read budgets
    /// are consumable and must not be re-armed per job).
    dfs_faults_armed: AtomicBool,
}

impl MapReduceEngine {
    pub fn new(cluster: ClusterResources) -> MapReduceEngine {
        MapReduceEngine {
            cluster,
            fault_plan: FaultPlan::default(),
            pending_deaths: Mutex::new(Vec::new()),
            dead_nodes: Mutex::new(HashSet::new()),
            node_death_hook: None,
            recorder: Recorder::disabled(),
            spill_pool: Mutex::new(None),
            shuffle_dfs: Mutex::new(None),
            shuffle_seq: AtomicU64::new(0),
            dfs_faults_armed: AtomicBool::new(false),
        }
    }

    /// The engine-wide spill-encoder pool, created lazily and shared by
    /// every map task of every job on this engine. Starts small (a
    /// quarter of the cores) and grows itself toward one thread per
    /// core (capped at 16) from observed submit-wait backpressure —
    /// map-light jobs keep a couple of threads, all-spill workloads
    /// earn more.
    pub fn spill_pool(&self) -> Arc<SpillPool> {
        self.spill_pool
            .lock()
            .get_or_insert_with(|| {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(2);
                Arc::new(SpillPool::adaptive((cores / 4).max(2), cores.min(16), 4))
            })
            .clone()
    }

    /// Route shuffle transit through `dfs`.
    pub fn with_shuffle_dfs(mut self, dfs: Dfs) -> MapReduceEngine {
        *self.shuffle_dfs.get_mut() = Some(dfs);
        self
    }

    /// The transit DFS. An engine nobody attached one to gets a private
    /// in-memory DFS with one datanode per cluster node and replication
    /// 1, so a map output lives only on its mapper's node and node loss
    /// re-runs the map, as on a cluster without replicated transit.
    fn shuffle_dfs(&self) -> Dfs {
        self.shuffle_dfs
            .lock()
            .get_or_insert_with(|| {
                Dfs::new(DfsConfig {
                    n_nodes: self.cluster.n_nodes(),
                    replication: 1,
                    ..DfsConfig::default()
                })
            })
            .clone()
    }

    /// A single-node engine with `slots` concurrent tasks.
    pub fn local(slots: usize) -> MapReduceEngine {
        MapReduceEngine::new(ClusterResources::uniform(1, slots.max(1), usize::MAX / 2))
    }

    /// Inject faults according to `plan` (panics, slowdowns, node deaths).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> MapReduceEngine {
        *self.pending_deaths.get_mut() = plan.node_deaths().to_vec();
        self.fault_plan = plan;
        self
    }

    /// Register a callback fired once per node death, after the scheduler
    /// has marked the node dead and re-queued its work.
    pub fn on_node_death(
        mut self,
        hook: impl Fn(usize) + Send + Sync + 'static,
    ) -> MapReduceEngine {
        self.node_death_hook = Some(Arc::new(hook));
        self
    }

    /// Trace jobs run on this engine through `recorder` (builder form).
    pub fn with_recorder(mut self, recorder: Recorder) -> MapReduceEngine {
        self.recorder = recorder;
        self
    }

    /// Swap the span recorder on an existing engine.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    pub fn cluster(&self) -> &ClusterResources {
        &self.cluster
    }

    /// Nodes that have died so far on this engine.
    pub fn dead_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.dead_nodes.lock().iter().copied().collect();
        v.sort_unstable();
        v
    }

    fn is_dead(&self, node: usize) -> bool {
        self.dead_nodes.lock().contains(&node)
    }

    /// Run a full map + shuffle + reduce job; each reducer's output is
    /// the records it emitted ([`CollectRecords`]).
    pub fn run_job<M, R>(
        &self,
        config: JobConfig,
        mapper: &M,
        reducer: &R,
        partitioner: &dyn Partitioner<M::OutKey>,
        splits: Vec<InputSplit<M::InKey, M::InValue>>,
    ) -> Result<JobResult<R::OutKey, R::OutValue>, GesallError>
    where
        M: Mapper,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
    {
        self.run_job_to(config, mapper, reducer, partitioner, splits, &CollectRecords)
    }

    /// [`MapReduceEngine::run_job`] with the reducers' output going
    /// through `format`: every reduce attempt emits into a fresh
    /// [`RecordWriter`], and a task's output is what its committed
    /// attempt's writer finished with.
    pub fn run_job_to<M, R, F>(
        &self,
        config: JobConfig,
        mapper: &M,
        reducer: &R,
        partitioner: &dyn Partitioner<M::OutKey>,
        splits: Vec<InputSplit<M::InKey, M::InValue>>,
        format: &F,
    ) -> Result<JobOutput<F::Output>, GesallError>
    where
        M: Mapper,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
        F: OutputFormat<R::OutKey, R::OutValue>,
    {
        let frame = JobFrame::open(&self.recorder, config);
        let (config, counters, events) = (&frame.config, &frame.counters, &frame.events);
        let (t0, job_span) = (frame.t0, frame.span.id);
        let n_maps = splits.len();
        let n_reducers = config.n_reducers.max(1);

        // ---- Map wave -------------------------------------------------
        let dfs = self.shuffle_dfs();
        let n_dfs_nodes = dfs.config().n_nodes;
        // Arm the plan's storage-layer gray failures on the transit DFS,
        // once per engine (flaky-read budgets are consumable).
        let faults = self.fault_plan.dfs_faults();
        if !faults.is_empty() && !self.dfs_faults_armed.swap(true, Ordering::SeqCst) {
            for c in &faults.corrupt_blocks {
                dfs.inject_corrupt_on_write(&c.path_contains, c.block, c.replica);
            }
            for &(node, n) in &faults.flaky_reads {
                dfs.inject_flaky_reads(node, n);
            }
            for &(node, ms) in &faults.slow_nodes {
                dfs.inject_slow_node(node, ms);
            }
        }
        // Per-run shuffle directory: the id makes repeated jobs on one
        // engine (and their retried attempts' files, below) disjoint.
        // The run counter is monotone per engine — never wall-clock
        // derived — so transit paths are stable across reruns of the
        // same seed. A namespaced job (job service tenancy) shuffles
        // under its own `/{tenant}/{job}/` prefix instead.
        let shuffle_run = self.shuffle_seq.fetch_add(1, Ordering::Relaxed);
        let shuffle_base = match &config.shuffle_namespace {
            Some(ns) => format!("{}/shuffle-{}", ns.trim_end_matches('/'), shuffle_run),
            None => format!("/{}/shuffle-{}", config.name, shuffle_run),
        };
        // Drop every shipped map output for this run, on success *and*
        // every error path — losing attempts leave orphans at unique
        // paths, so a retention prefix sweep is the only correct
        // cleanup (charged to `dfs.retention.swept.completed`).
        let cleanup_shuffle = || {
            dfs.sweep_prefix(&shuffle_base, SweepReason::Completed);
        };
        let map_outputs: Vec<Mutex<Option<MapOutput>>> =
            (0..n_maps).map(|_| Mutex::new(None)).collect();
        let prefs: Vec<Option<usize>> = splits.iter().map(|s| s.preferred_node).collect();
        // Pool busy time and backpressure are engine-wide gauges; the
        // before/after delta around the map wave is this job's share.
        // (Per-attempt bags can't carry it: a discarded speculative
        // attempt's bag is dropped, but its encoder time was real.)
        let pool = self.spill_pool();
        let pool_busy0 = pool.busy_nanos();
        let pool_waits0 = pool.submit_waits();
        let pool_grown0 = pool.workers_grown();

        // A committed map whose home node dies may still be readable
        // from a replica: probe actual datanode storage, excluding every
        // engine-dead node's co-located datanode (the DFS may not have
        // been told about the death yet — the failure hook runs after
        // eviction decisions).
        let survives = |task: usize| -> bool {
            let slot = map_outputs[task].lock();
            let Some(out) = &*slot else {
                return false;
            };
            let mut excluded: Vec<usize> = self
                .dead_nodes
                .lock()
                .iter()
                .map(|d| d % n_dfs_nodes)
                .collect();
            excluded.sort_unstable();
            excluded.dedup();
            dfs.file_available_excluding(&out.path, &excluded)
        };

        // Which codec map-output partitions travel under: the job
        // override wins, else the key-type's hint (value type first — it
        // dominates the bytes), else the LZ default.
        let shuffle_codec = config.shuffle_codec.unwrap_or_else(|| {
            <M::OutValue as Wire>::codec_hint()
                .or_else(<M::OutKey as Wire>::codec_hint)
                .unwrap_or(Codec::Lz)
        });

        let map_wave = self.run_wave(
            TaskKind::Map,
            config,
            counters,
            events,
            t0,
            job_span,
            &prefs,
            &map_outputs,
            Some(&survives),
            |task_id, _attempt, exec_node, bag| {
                let t_task = Instant::now();
                let split = &splits[task_id];
                bag.add(keys::MAP_INPUT_RECORDS, split.records.len() as u64);
                let mut buf = SortSpillBuffer::new(
                    config.io_sort_bytes,
                    n_reducers,
                    partitioner,
                    shuffle_codec,
                    pool.clone(),
                    bag.clone(),
                );
                {
                    let mut sink = |k: M::OutKey, v: M::OutValue| buf.emit(k, v);
                    let mut ctx = MapContext {
                        sink: &mut sink,
                        counters: bag,
                    };
                    for (k, v) in &split.records {
                        mapper.map(k, v, &mut ctx);
                    }
                    mapper.finish(&mut ctx);
                }
                let segments = buf.finish();
                // Map phase = task body minus the timed sub-phases. The
                // spill sort overlaps the map loop on the encoder pool,
                // so only the merge and the drain wait are subtracted —
                // SortSpill nanos (recorded by the encoders) don't come
                // out of this task's wall-clock.
                let accounted = bag.get(Phase::MapMerge.counter_key())
                    + bag.get(keys::SPILL_POOL_DRAIN_WAIT_NANOS);
                let total = t_task.elapsed().as_nanos() as u64;
                bag.add(Phase::Map.counter_key(), total.saturating_sub(accounted));
                let metas = segments
                    .iter()
                    .map(|s| SegMeta {
                        wire_len: s.wire_len(),
                        compressed: s.is_compressed(),
                        records: s.records,
                    })
                    .collect();
                // Attempt-unique path: a speculative or retried attempt
                // of the same task must never collide with (or clobber)
                // another attempt's file.
                let uid = self.shuffle_seq.fetch_add(1, Ordering::Relaxed);
                let path = format!("{shuffle_base}/map-{task_id:05}-a{uid}.segs");
                let t_ship = Instant::now();
                let pin = PinnedPlacement(exec_node % n_dfs_nodes);
                if let Err(e) = shipping::store_map_output(&dfs, &path, &segments, &pin, bag) {
                    // A panic here is an attempt failure → retry.
                    panic!("shipping map output {path} to DFS: {e}");
                }
                // Persisting the output is the map-side half of the
                // shuffle, not map compute.
                bag.add(
                    Phase::Shuffle.counter_key(),
                    t_ship.elapsed().as_nanos() as u64,
                );
                MapOutput { path, metas }
            },
        );
        counters.add(
            keys::SPILL_POOL_BUSY_NANOS,
            pool.busy_nanos().saturating_sub(pool_busy0),
        );
        counters.add(
            keys::SPILL_POOL_SUBMIT_WAITS,
            pool.submit_waits().saturating_sub(pool_waits0),
        );
        counters.add(
            keys::SPILL_POOL_WORKERS_GROWN,
            pool.workers_grown().saturating_sub(pool_grown0),
        );
        if let Err(e) = map_wave {
            cleanup_shuffle();
            return Err(e);
        }

        // ---- Shuffle + reduce wave ------------------------------------
        let map_outputs = match committed(map_outputs, "map") {
            Ok(v) => v,
            Err(e) => {
                cleanup_shuffle();
                return Err(e);
            }
        };
        // The shuffle matrix: bytes each reducer pulls from each map
        // output. Recorded once, between the waves, so retried or
        // speculative reduce attempts cannot double-count a cell.
        if self.recorder.is_enabled() {
            for (m, out) in map_outputs.iter().enumerate() {
                for (r, meta) in out.metas.iter().enumerate() {
                    self.recorder
                        .shuffle_cell(m, r, meta.wire_len as u64, meta.compressed);
                }
            }
        }
        let reduce_outputs: TaskOutputs<_> = (0..n_reducers).map(|_| Mutex::new(None)).collect();
        let reduce_prefs: Vec<Option<usize>> = vec![None; n_reducers];

        let reduce_wave = self.run_wave(
            TaskKind::Reduce,
            config,
            counters,
            events,
            t0,
            job_span,
            &reduce_prefs,
            &reduce_outputs,
            None,
            |partition, attempt, exec_node, bag| {
                let t_task = Instant::now();
                // Locality hint: the reducer's exec node, mapped onto
                // the DFS node space exactly as map outputs were
                // pinned, so a fetch prefers the co-located replica.
                let affinity = ReadAffinity::node(exec_node % n_dfs_nodes);
                // The merge must know its nonempty-run count before
                // fetching anything — the shipped metas carry it.
                let n_runs = map_outputs
                    .iter()
                    .filter(|out| out.metas[partition].records > 0)
                    .count();
                let outputs: &[MapOutput] = &map_outputs;
                let dfs = &dfs;
                // Pull this partition from every map output: a DFS range
                // read per shipped file (only this reducer's frame
                // travels). The fetcher thread runs up to
                // `SHUFFLE_PREFETCH` segments ahead of the merge; only
                // the time the merge *waits* on it is charged as shuffle
                // — overlapped fetch time is the latency the pipeline
                // hides.
                let grouped = std::thread::scope(|scope| {
                    let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Segment, String>>(
                        SHUFFLE_PREFETCH,
                    );
                    scope.spawn(move || {
                        for out in outputs {
                            // The DFS already retries transient replica
                            // failures internally; this outer loop covers
                            // whole-op failures that outlive its budget
                            // (e.g. a deadline expiry). Non-retryable
                            // errors — corrupt beyond repair, missing
                            // file — surface immediately: that's an
                            // attempt failure, and the scheduler's re-run
                            // (or reship probe) is the right recovery.
                            let mut tries = 0usize;
                            let res = loop {
                                match shipping::fetch_partition(
                                    dfs, &out.path, partition, affinity, bag,
                                ) {
                                    Ok(seg) => {
                                        bag.add(keys::SHUFFLE_BYTES_DFS, seg.wire_len() as u64);
                                        break Ok(seg);
                                    }
                                    Err(e) if e.is_retryable() && tries < 2 => {
                                        tries += 1;
                                        bag.add(keys::SHUFFLE_FETCH_RETRIES, 1);
                                    }
                                    Err(e) => {
                                        break Err(format!(
                                            "fetching partition {partition} of {}: {e}",
                                            out.path
                                        ));
                                    }
                                }
                            };
                            let failed = res.is_err();
                            // A closed channel means the merge side is
                            // done (or unwinding); either way stop.
                            if tx.send(res).is_err() || failed {
                                return;
                            }
                        }
                    });
                    let next_segment = || match rx.try_recv() {
                        Ok(res) => {
                            // Already resident: the prefetch ran ahead
                            // of the merge drain.
                            bag.add(keys::SHUFFLE_FETCH_PREFETCHED, 1);
                            Some(res.unwrap_or_else(|e| panic!("{e}")))
                        }
                        // Blocking wait: the prefetch hasn't caught up.
                        // The wait elapses inside the merge, whose own
                        // ledger attributes supplier time to the shuffle
                        // phase — no charge here.
                        Err(std::sync::mpsc::TryRecvError::Empty) => match rx.recv() {
                            Ok(res) => Some(res.unwrap_or_else(|e| panic!("{e}"))),
                            Err(_) => None,
                        },
                        Err(std::sync::mpsc::TryRecvError::Disconnected) => None,
                    };
                    reduce_merge_streamed::<M::OutKey, M::OutValue>(
                        n_runs,
                        next_segment,
                        config.merge_factor,
                        bag,
                    )
                });
                let mut writer = format.writer(bag);
                let cut = self.fault_plan.reduce_output_cut(partition, attempt);
                let mut emitted = 0u64;
                {
                    let mut sink = |k, v| {
                        if cut == Some(emitted) {
                            panic!("{}", FaultPlan::cut_message(partition, attempt, emitted));
                        }
                        emitted += 1;
                        writer.write(k, v);
                    };
                    let mut ctx = ReduceContext { sink: &mut sink };
                    for (k, vs) in grouped {
                        reducer.reduce(k, vs, &mut ctx);
                    }
                    reducer.finish(&mut ctx);
                }
                let out = writer.finish();
                bag.add(keys::REDUCE_OUTPUT_RECORDS, emitted);
                // Reduce phase = task body (the writer's work included)
                // minus shuffle + merge time.
                let accounted = bag.get(Phase::Shuffle.counter_key())
                    + bag.get(Phase::ReduceMerge.counter_key());
                let total = t_task.elapsed().as_nanos() as u64;
                bag.add(Phase::Reduce.counter_key(), total.saturating_sub(accounted));
                out
            },
        );
        if let Err(e) = reduce_wave {
            cleanup_shuffle();
            return Err(e);
        }

        let outputs = committed(reduce_outputs, "reduce");
        // Shuffle transit is consumed; free the run's DFS files whether
        // the job succeeded or not.
        cleanup_shuffle();
        let meta = vec![
            ("n_maps".into(), n_maps.to_string()),
            ("n_reducers".into(), n_reducers.to_string()),
        ];
        Ok(frame.finish(&self.recorder, outputs?, meta))
    }

    /// Run a map-only job (the paper's Round 1): each map task's emitted
    /// records come back in emission order, one output per split.
    pub fn run_map_only<M>(
        &self,
        config: JobConfig,
        mapper: &M,
        splits: Vec<InputSplit<M::InKey, M::InValue>>,
    ) -> Result<JobResult<M::OutKey, M::OutValue>, GesallError>
    where
        M: Mapper,
    {
        let frame = JobFrame::open(&self.recorder, config);
        let n_maps = splits.len();
        let outputs: TaskOutputs<Vec<(M::OutKey, M::OutValue)>> =
            (0..n_maps).map(|_| Mutex::new(None)).collect();
        let prefs: Vec<Option<usize>> = splits.iter().map(|s| s.preferred_node).collect();

        self.run_wave(
            TaskKind::Map,
            &frame.config,
            &frame.counters,
            &frame.events,
            frame.t0,
            frame.span.id,
            &prefs,
            &outputs,
            None,
            |task_id, _attempt, _exec_node, bag| {
                let t_task = Instant::now();
                let split = &splits[task_id];
                bag.add(keys::MAP_INPUT_RECORDS, split.records.len() as u64);
                let mut out = Vec::new();
                {
                    let mut sink = |k, v| out.push((k, v));
                    let mut ctx = MapContext {
                        sink: &mut sink,
                        counters: bag,
                    };
                    for (k, v) in &split.records {
                        mapper.map(k, v, &mut ctx);
                    }
                    mapper.finish(&mut ctx);
                }
                bag.add(keys::MAP_OUTPUT_RECORDS, out.len() as u64);
                // No sort/spill in a map-only job: the whole body is map.
                bag.add(Phase::Map.counter_key(), t_task.elapsed().as_nanos() as u64);
                out
            },
        )?;

        let outputs = committed(outputs, "map")?;
        let meta = vec![("n_maps".into(), n_maps.to_string())];
        Ok(frame.finish(&self.recorder, outputs, meta))
    }

    /// Execute one wave of tasks with per-node container slots, attempt
    /// retries, speculative backups, and node-loss recovery.
    #[allow(clippy::too_many_arguments)]
    fn run_wave<T, F>(
        &self,
        kind: TaskKind,
        config: &JobConfig,
        counters: &Counters,
        events: &Mutex<Vec<TaskEvent>>,
        t0: Instant,
        job_span: SpanId,
        prefs: &[Option<usize>],
        outputs: &[Mutex<Option<T>>],
        survives: SurvivalCheck<'_>,
        body: F,
    ) -> Result<(), GesallError>
    where
        T: Send,
        F: Fn(usize, usize, usize, &Counters) -> T + Send + Sync,
    {
        let n_tasks = prefs.len();
        let wave_name = match kind {
            TaskKind::Map => "map-wave",
            TaskKind::Reduce => "reduce-wave",
        };
        let wave_span = self.recorder.start(SpanKind::Wave, wave_name, job_span);
        let done: Vec<AtomicBool> = (0..n_tasks).map(|_| AtomicBool::new(false)).collect();
        let state = Mutex::new(WaveState {
            pending: (0..n_tasks)
                .map(|t| PendingTask {
                    task: t,
                    not_before: None,
                })
                .collect(),
            running: Vec::new(),
            tasks: (0..n_tasks)
                .map(|t| TaskState {
                    preferred: prefs[t],
                    failures: 0,
                    next_attempt: 0,
                    backup_launched: false,
                    home: None,
                })
                .collect(),
            remaining: n_tasks,
            completed_ms: Vec::new(),
            total_commits: 0,
            fatal: None,
        });
        // Wakes idle workers when the schedule changes (commit, requeue,
        // fatal) instead of letting them busy-poll the state mutex.
        let idle = Condvar::new();
        let wave = WaveCtx {
            engine: self,
            kind,
            config,
            counters,
            events,
            t0,
            wave_span: wave_span.id,
            state: &state,
            idle: &idle,
            done: &done,
            outputs,
            survives,
        };

        // Deaths already due (threshold 0) fire before any work starts.
        if kind == TaskKind::Map {
            let fired = {
                let mut st = state.lock();
                wave.fire_due_deaths(&mut st)
            };
            wave.notify_deaths(&fired);
        }

        let scope_result = crossbeam::thread::scope(|s| {
            let mut first_live_worker = true;
            for node in 0..self.cluster.n_nodes() {
                if self.is_dead(node) {
                    continue;
                }
                let slots = self.cluster.slots_on(node, TASK_VCORES, TASK_MEMORY_MB);
                let slots = slots.max(if first_live_worker { 1 } else { 0 });
                if slots > 0 {
                    first_live_worker = false;
                }
                for _ in 0..slots {
                    let wave = &wave;
                    let body = &body;
                    s.spawn(move |_| wave.worker_loop(node, body));
                }
            }
        });
        scope_result.map_err(|_| GesallError::Runtime("task wave worker panicked".into()))?;

        let st = state.into_inner();
        self.recorder.end_with(
            wave_span,
            wave_name,
            Vec::new(),
            vec![
                ("tasks".to_string(), n_tasks as u64),
                ("commits".to_string(), st.total_commits as u64),
            ],
        );
        if let Some(fatal) = st.fatal {
            return Err(fatal);
        }
        if st.remaining > 0 {
            return Err(GesallError::NoHealthyNodes {
                pending_tasks: st.remaining,
            });
        }
        Ok(())
    }
}

/// What every job opens first and closes last, whatever runs between:
/// its span, counter bag, event log and clock.
struct JobFrame {
    config: JobConfig,
    span: OpenSpan,
    counters: Counters,
    events: Mutex<Vec<TaskEvent>>,
    t0: Instant,
}

impl JobFrame {
    fn open(recorder: &Recorder, config: JobConfig) -> JobFrame {
        JobFrame {
            span: recorder.start(SpanKind::Job, &config.name, config.parent_span),
            config,
            counters: Counters::new(),
            events: Mutex::new(Vec::new()),
            t0: Instant::now(),
        }
    }

    /// Close the job span over `meta` and the counter snapshot and hand
    /// the job's report out, attempt events in canonical order.
    fn finish<O>(self, recorder: &Recorder, outputs: Vec<O>, meta: Vec<(String, String)>) -> JobOutput<O> {
        let mut events = self.events.into_inner();
        events.sort_by_key(|e| (e.kind == TaskKind::Reduce, e.task_id, e.attempt));
        let wall_ms = self.t0.elapsed().as_secs_f64() * 1e3;
        recorder.end_with(self.span, &self.config.name, meta, self.counters.snapshot());
        JobOutput {
            outputs,
            counters: self.counters,
            events,
            wall_ms,
            config: self.config,
        }
    }
}

/// Every task's committed output, in task order. A wave that returned
/// `Ok` has committed them all; a hole is an engine bug, reported rather
/// than unwrapped.
fn committed<T>(outputs: TaskOutputs<T>, wave: &str) -> Result<Vec<T>, GesallError> {
    let hole = || GesallError::Runtime(format!("{wave} wave ended without committed output"));
    outputs.into_iter().map(|slot| slot.into_inner().ok_or_else(hole)).collect()
}

struct PendingTask {
    task: usize,
    /// Earliest time the task may be re-attempted (retry backoff).
    not_before: Option<Instant>,
}

/// The placement decision: the index in `pending` of the task a free
/// slot on `node` should take. A ready task that prefers `node` (or has
/// no preference) always wins; a task preferring another node is taken
/// only with `allow_steal` — the worker has already sat out one idle
/// beat (delay scheduling).
fn pick_pending(
    pending: &[PendingTask],
    tasks: &[TaskState],
    node: usize,
    allow_steal: bool,
    now: Instant,
) -> Option<usize> {
    let ready = |p: &PendingTask| p.not_before.is_none_or(|nb| nb <= now);
    let local = pending.iter().position(|p| {
        ready(p) && tasks[p.task].preferred.is_none_or(|pref| pref == node)
    });
    match local {
        Some(pos) => Some(pos),
        None if allow_steal => pending.iter().position(ready),
        None => None,
    }
}

struct TaskState {
    preferred: Option<usize>,
    failures: usize,
    next_attempt: usize,
    backup_launched: bool,
    /// Node whose local disk holds the committed output (shuffle home).
    home: Option<usize>,
}

struct RunningAttempt {
    task: usize,
    attempt: usize,
    started: Instant,
    speculative: bool,
}

struct WaveState {
    pending: Vec<PendingTask>,
    running: Vec<RunningAttempt>,
    tasks: Vec<TaskState>,
    /// Tasks without a committed output.
    remaining: usize,
    /// Durations of committed attempts — the speculative baseline.
    completed_ms: Vec<f64>,
    /// Successful commits in this wave (monotone; re-runs recount).
    total_commits: usize,
    fatal: Option<GesallError>,
}

#[derive(Clone, Copy)]
struct Assignment {
    task: usize,
    attempt: usize,
    speculative: bool,
    data_local: bool,
}

enum Acquired {
    Got(Assignment),
    Idle,
    Exit,
}

/// Marker error: the job's slot lease has no free permit right now.
struct LeaseSaturated;

struct WaveCtx<'a, T> {
    engine: &'a MapReduceEngine,
    kind: TaskKind,
    config: &'a JobConfig,
    counters: &'a Counters,
    events: &'a Mutex<Vec<TaskEvent>>,
    t0: Instant,
    wave_span: SpanId,
    state: &'a Mutex<WaveState>,
    /// Notified whenever the schedule changes; see [`WaveCtx::idle_wait`].
    idle: &'a Condvar,
    done: &'a [AtomicBool],
    outputs: &'a [Mutex<Option<T>>],
    /// Probe whether a committed task's output survives a node death
    /// (the transit DFS may hold a replica); `None` means outputs live
    /// only on their home node.
    survives: SurvivalCheck<'a>,
}

impl<T> WaveCtx<'_, T> {
    fn now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    fn worker_loop<F>(&self, node: usize, body: &F)
    where
        F: Fn(usize, usize, usize, &Counters) -> T + Send + Sync,
    {
        // Delay scheduling: prefer local tasks; wait one beat before
        // stealing a remote one (or launching a backup attempt). The
        // beats are condvar waits, not sleeps: a commit or requeue
        // wakes idle workers immediately, while the timeouts remain
        // as the backstop that drives the time-based machinery
        // (retry backoff expiry, straggler detection).
        let mut allow_steal = false;
        loop {
            // The job's slot lease gates admission to *work*, not the
            // worker threads themselves: a saturated lease parks the
            // worker until a running attempt releases its permit or the
            // grant grows. Shrinking the grant therefore reclaims slots
            // preemption-free — in-flight attempts finish, new ones
            // simply don't start.
            let permit = match self.lease_permit() {
                Ok(p) => p,
                Err(LeaseSaturated) => {
                    if self.wave_over(node) {
                        break;
                    }
                    self.idle_wait(Duration::from_micros(500));
                    allow_steal = true;
                    continue;
                }
            };
            match self.acquire(node, allow_steal) {
                Acquired::Exit => break,
                Acquired::Got(a) => {
                    self.run_attempt(node, a, body);
                    allow_steal = false;
                }
                Acquired::Idle => {
                    // An idle worker holds no permit — a parked thread
                    // is not an occupied container slot.
                    drop(permit);
                    self.idle_wait(Duration::from_micros(if allow_steal { 200 } else { 500 }));
                    allow_steal = true;
                }
            }
        }
    }

    /// Take a permit on the job's slot lease (`Ok(None)` for unleased
    /// jobs, which may use every spawned worker).
    fn lease_permit(&self) -> Result<Option<LeasePermit>, LeaseSaturated> {
        match &self.config.slot_lease {
            None => Ok(None),
            Some(lease) => lease.try_acquire().map(Some).ok_or(LeaseSaturated),
        }
    }

    /// Whether this worker should exit instead of waiting for a permit.
    fn wave_over(&self, node: usize) -> bool {
        let st = self.state.lock();
        st.fatal.is_some() || st.remaining == 0 || self.engine.is_dead(node)
    }

    /// Park on the schedule-change condvar for at most `timeout`,
    /// counting how the worker came back: a notification
    /// ([`keys::SCHED_WAKEUPS`]) means the schedule changed while we
    /// slept; a timeout ([`keys::SCHED_IDLE_TIMEOUTS`]) is the old
    /// busy-poll beat, now visible in the counters.
    fn idle_wait(&self, timeout: Duration) {
        let mut st = self.state.lock();
        // Re-check under the lock — a notify between the failed acquire
        // and this wait must not be lost.
        if st.fatal.is_some() || st.remaining == 0 {
            return;
        }
        if self.idle.wait_for(&mut st, timeout).timed_out() {
            self.counters.add(keys::SCHED_IDLE_TIMEOUTS, 1);
        } else {
            self.counters.add(keys::SCHED_WAKEUPS, 1);
        }
    }

    /// Pick work for `node`. Local pending tasks first; with
    /// `allow_steal`, remote pending tasks, then speculative backups.
    fn acquire(&self, node: usize, allow_steal: bool) -> Acquired {
        let mut st = self.state.lock();
        if st.fatal.is_some() || st.remaining == 0 || self.engine.is_dead(node) {
            return Acquired::Exit;
        }
        let now = Instant::now();
        if let Some(pos) = pick_pending(&st.pending, &st.tasks, node, allow_steal, now) {
            let task = st.pending.remove(pos).task;
            let ts = &mut st.tasks[task];
            let attempt = ts.next_attempt;
            ts.next_attempt += 1;
            let data_local = ts.preferred == Some(node) || ts.preferred.is_none();
            st.running.push(RunningAttempt {
                task,
                attempt,
                started: now,
                speculative: false,
            });
            return Acquired::Got(Assignment {
                task,
                attempt,
                speculative: false,
                data_local,
            });
        }

        // A backup cannot be killed mid-body and the wave joins every
        // attempt it started, so one that loses its race costs a whole
        // task of slot time and wall clock. So it takes more than one
        // early finisher to call a task slow: most of the wave must
        // have committed (tasks differ in size), and the original must
        // have overrun the typical runtime by what the backup itself
        // would cost.
        let quorum = st.completed_ms.len() * 2 > st.tasks.len();
        if allow_steal && self.config.speculative && quorum {
            let mut sorted = st.completed_ms.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            let threshold = (self.config.speculative_multiplier * median)
                .max(self.config.speculative_min_runtime_ms);
            let straggler = st.running.iter().position(|r| {
                !r.speculative
                    && !self.done[r.task].load(Ordering::SeqCst)
                    && !st.tasks[r.task].backup_launched
                    && r.started.elapsed().as_secs_f64() * 1e3 > threshold
            });
            if let Some(pos) = straggler {
                let task = st.running[pos].task;
                let ts = &mut st.tasks[task];
                ts.backup_launched = true;
                let attempt = ts.next_attempt;
                ts.next_attempt += 1;
                let data_local = ts.preferred == Some(node) || ts.preferred.is_none();
                st.running.push(RunningAttempt {
                    task,
                    attempt,
                    started: now,
                    speculative: true,
                });
                self.counters.add(keys::SPECULATIVE_LAUNCHED, 1);
                return Acquired::Got(Assignment {
                    task,
                    attempt,
                    speculative: true,
                    data_local,
                });
            }
        }
        Acquired::Idle
    }

    fn run_attempt<F>(&self, node: usize, a: Assignment, body: &F)
    where
        F: Fn(usize, usize, usize, &Counters) -> T + Send + Sync,
    {
        let start_ms = self.now_ms();

        // Injected straggler: sleep in small beats, bailing out early if
        // the task is won by another attempt or this node dies (the
        // cancellation path for speculative losers).
        if let Some(ms) = self
            .engine
            .fault_plan
            .slowdown_ms(self.kind, a.task, a.attempt)
        {
            let deadline = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < deadline {
                if self.done[a.task].load(Ordering::SeqCst) || self.engine.is_dead(node) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        let bag = Counters::new();
        let plan = &self.engine.fault_plan;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if plan.should_panic(self.kind, a.task, a.attempt) {
                panic!("{}", FaultPlan::panic_message(self.kind, a.task, a.attempt));
            }
            body(a.task, a.attempt, node, &bag)
        }));

        let end_ms = self.now_ms();
        let mut st = self.state.lock();
        let started = st
            .running
            .iter()
            .position(|r| r.task == a.task && r.attempt == a.attempt)
            .map(|pos| st.running.remove(pos).started);
        if st.fatal.is_some() {
            return; // Job already failed; drop silently.
        }
        let event = |outcome: AttemptOutcome, error: Option<String>| TaskEvent {
            kind: self.kind,
            task_id: a.task,
            attempt: a.attempt,
            speculative: a.speculative,
            outcome,
            error,
            node,
            start_ms,
            end_ms,
            data_local: a.data_local,
        };
        // Every attempt leaves both a TaskEvent (the determinism
        // contract) and, when tracing is on, a TaskAttempt span.
        let log_event = |outcome: AttemptOutcome, error: Option<String>| {
            let e = event(outcome, error);
            self.record_attempt_span(&e, &bag);
            self.events.lock().push(e);
        };

        match result {
            Ok(value) => {
                if self.done[a.task].load(Ordering::SeqCst) {
                    // Lost the race to another attempt of the same task.
                    if st.tasks[a.task].backup_launched {
                        self.counters.add(keys::SPECULATIVE_WASTED, 1);
                    }
                    log_event(AttemptOutcome::Killed, None);
                    return;
                }
                if self.engine.is_dead(node) {
                    // The node died while this attempt ran; its local
                    // output is gone. Re-queue the task.
                    log_event(AttemptOutcome::Killed, None);
                    st.pending.push(PendingTask {
                        task: a.task,
                        not_before: None,
                    });
                    drop(st);
                    self.idle.notify_all();
                    return;
                }
                *self.outputs[a.task].lock() = Some(value);
                self.done[a.task].store(true, Ordering::SeqCst);
                st.tasks[a.task].home = Some(node);
                st.remaining -= 1;
                if let Some(started) = started {
                    st.completed_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
                st.total_commits += 1;
                self.counters.merge(&bag);
                log_event(AttemptOutcome::Succeeded, None);
                let fired = if self.kind == TaskKind::Map {
                    self.fire_due_deaths(&mut st)
                } else {
                    Vec::new()
                };
                drop(st);
                // Wake idlers: remaining may have hit zero, a death may
                // have re-queued tasks, and a fresh completion time may
                // arm the straggler detector.
                self.idle.notify_all();
                self.notify_deaths(&fired);
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if self.done[a.task].load(Ordering::SeqCst) {
                    // The task already succeeded elsewhere; this failure
                    // is moot and must not count against the task.
                    log_event(AttemptOutcome::Failed, Some(msg));
                    return;
                }
                self.counters.add(keys::FAILED_ATTEMPTS, 1);
                st.tasks[a.task].failures += 1;
                let failures = st.tasks[a.task].failures;
                log_event(AttemptOutcome::Failed, Some(msg.clone()));
                if failures >= self.config.max_attempts {
                    st.fatal = Some(GesallError::TaskFailed {
                        kind: self.kind,
                        task_id: a.task,
                        attempts: failures,
                        last_error: msg,
                    });
                } else {
                    let backoff = self.config.retry_backoff_ms
                        * (1u64 << (failures - 1).min(16)) as f64;
                    st.pending.push(PendingTask {
                        task: a.task,
                        not_before: Some(Instant::now() + Duration::from_secs_f64(backoff / 1e3)),
                    });
                }
                drop(st);
                // Wake idlers: either everyone must exit on the fatal, or
                // a retry just became schedulable (its backoff expiry is
                // covered by the wait timeout).
                self.idle.notify_all();
            }
        }
    }

    /// Emit one TaskAttempt span mirroring `e`, parented under this
    /// wave's span, with the attempt's counter bag attached as metrics.
    /// One branch on a disabled recorder, nothing else.
    fn record_attempt_span(&self, e: &TaskEvent, bag: &Counters) {
        let rec = &self.engine.recorder;
        if !rec.is_enabled() {
            return;
        }
        // Event times are relative to the job's t0; shift them into the
        // recorder's epoch so spans from many jobs share one timeline.
        let offset = rec.now_ms() - self.now_ms();
        let kind = match e.kind {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        };
        rec.registry()
            .histogram(&format!("attempt.{kind}.ms"))
            .record((e.end_ms - e.start_ms).max(0.0).round() as u64);
        let mut meta = vec![
            ("node".to_string(), e.node.to_string()),
            ("outcome".to_string(), format!("{:?}", e.outcome)),
            ("speculative".to_string(), e.speculative.to_string()),
            ("data_local".to_string(), e.data_local.to_string()),
        ];
        if let Some(err) = &e.error {
            meta.push(("error".to_string(), err.clone()));
        }
        rec.record(Span {
            id: rec.fresh_id(),
            parent: self.wave_span,
            kind: SpanKind::TaskAttempt,
            name: format!("{kind}-{}.{}", e.task_id, e.attempt),
            start_ms: e.start_ms + offset,
            end_ms: e.end_ms + offset,
            meta,
            metrics: bag.snapshot(),
        });
    }

    /// Fire scheduled deaths whose map-commit threshold has been reached.
    /// Runs under the wave lock: marks the node dead, evicts committed
    /// map outputs homed on it, and re-queues those tasks. Returns the
    /// nodes that died so the caller can notify the hook lock-free.
    fn fire_due_deaths(&self, st: &mut WaveState) -> Vec<usize> {
        let mut fired = Vec::new();
        let mut pending_deaths = self.engine.pending_deaths.lock();
        let mut i = 0;
        while i < pending_deaths.len() {
            if pending_deaths[i].after_completed_maps <= st.total_commits {
                let death = pending_deaths.remove(i);
                self.engine.dead_nodes.lock().insert(death.node);
                fired.push(death.node);
                // Completed map outputs on the dead node's disk are gone:
                // evict and re-run, as Hadoop re-runs map tasks whose
                // shuffle output was on a lost slave. A shuffling job's
                // output may survive on a transit-DFS replica — probe
                // every committed task (a later death can take the last
                // replica of a task whose home died earlier), keep the
                // survivors, and only re-run the rest.
                for task in 0..st.tasks.len() {
                    if !self.done[task].load(Ordering::SeqCst) {
                        continue;
                    }
                    let homed_here = st.tasks[task].home == Some(death.node);
                    let survives_death = match self.survives {
                        Some(check) => check(task),
                        // Map-only job: output lives only on its home.
                        None => !homed_here,
                    };
                    if survives_death {
                        if homed_here {
                            self.counters.add(keys::MAPS_RESHIPPED_FROM_DFS, 1);
                        }
                        continue;
                    }
                    *self.outputs[task].lock() = None;
                    self.done[task].store(false, Ordering::SeqCst);
                    st.tasks[task].home = None;
                    st.tasks[task].backup_launched = false;
                    st.remaining += 1;
                    st.pending.push(PendingTask {
                        task,
                        not_before: None,
                    });
                    self.counters.add(keys::MAPS_RERUN_ON_NODE_LOSS, 1);
                }
            } else {
                i += 1;
            }
        }
        fired
    }

    fn notify_deaths(&self, nodes: &[usize]) {
        if let Some(hook) = &self.engine.node_death_hook {
            for &node in nodes {
                hook(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::HashPartitioner;

    /// Word-count: the canonical smoke test.
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

    fn word_splits(n_splits: usize, lines_per: usize) -> Vec<InputSplit<u64, String>> {
        (0..n_splits)
            .map(|s| {
                let records = (0..lines_per)
                    .map(|i| {
                        (
                            i as u64,
                            format!("alpha beta w{} alpha", (s * lines_per + i) % 13),
                        )
                    })
                    .collect();
                InputSplit::new(format!("split-{s}"), records)
            })
            .collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
        let cfg = JobConfig {
            n_reducers: 4,
            io_sort_bytes: 512, // force spills
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(6, 50))
            .unwrap();
        let mut all: Vec<(String, u64)> = res.outputs.into_iter().flatten().collect();
        all.sort();
        let alpha = all.iter().find(|(k, _)| k == "alpha").unwrap();
        assert_eq!(alpha.1, 2 * 6 * 50);
        let beta = all.iter().find(|(k, _)| k == "beta").unwrap();
        assert_eq!(beta.1, 6 * 50);
        // 13 w-words + alpha + beta.
        assert_eq!(all.len(), 15);
        // Counters sane.
        assert_eq!(res.counters.get(keys::MAP_INPUT_RECORDS), 300);
        assert_eq!(res.counters.get(keys::MAP_OUTPUT_RECORDS), 1200);
        assert!(res.counters.get(keys::MAP_SPILLS) >= 6);
        assert_eq!(res.counters.get(keys::SHUFFLE_RECORDS), 1200);
        assert_eq!(res.counters.get(keys::REDUCE_OUTPUT_RECORDS), 15);
        // Events: 6 maps + 4 reduces, all first-attempt successes in a
        // fault-free run.
        assert_eq!(
            res.events.iter().filter(|e| e.kind == TaskKind::Map).count(),
            6
        );
        assert_eq!(
            res.events
                .iter()
                .filter(|e| e.kind == TaskKind::Reduce)
                .count(),
            4
        );
        assert!(res
            .events
            .iter()
            .all(|e| e.outcome == AttemptOutcome::Succeeded && e.attempt == 0));
        assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 0);
    }

    #[test]
    fn deterministic_across_runs_and_cluster_shapes() {
        let splits = || word_splits(5, 40);
        let run = |nodes: usize, slots: usize, reducers: usize| {
            let engine = MapReduceEngine::new(ClusterResources::uniform(nodes, slots, 8192));
            let cfg = JobConfig {
                n_reducers: reducers,
                io_sort_bytes: 1024,
                ..JobConfig::default()
            };
            let mut res = engine
                .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, splits())
                .unwrap()
                .outputs;
            for o in &mut res {
                o.sort();
            }
            res
        };
        let a = run(1, 1, 3);
        let b = run(4, 4, 3);
        assert_eq!(a, b, "output must not depend on physical parallelism");
    }

    #[test]
    fn map_only_preserves_order_per_split() {
        struct Identity;
        impl Mapper for Identity {
            type InKey = u64;
            type InValue = String;
            type OutKey = u64;
            type OutValue = String;
            fn map(&self, k: &u64, v: &String, ctx: &mut MapContext<'_, u64, String>) {
                ctx.emit(*k, v.clone());
            }
        }
        let engine = MapReduceEngine::local(4);
        let splits = vec![
            InputSplit::new("a", vec![(3u64, "x".to_string()), (1, "y".into())]),
            InputSplit::new("b", vec![(9u64, "z".to_string())]),
        ];
        let res = engine
            .run_map_only(JobConfig::default(), &Identity, splits)
            .unwrap();
        assert_eq!(res.outputs.len(), 2);
        assert_eq!(res.outputs[0], vec![(3, "x".to_string()), (1, "y".into())]);
        assert_eq!(res.outputs[1], vec![(9, "z".to_string())]);
    }

    #[test]
    fn locality_preference_honored_when_slots_free() {
        // The placement decision itself, no threads: four tasks, task i
        // preferring node i, every slot free (a single wave).
        let tasks: Vec<TaskState> = (0..4)
            .map(|t| TaskState {
                preferred: Some(t),
                failures: 0,
                next_attempt: 0,
                backup_launched: false,
                home: None,
            })
            .collect();
        let pending = |ids: &[usize]| -> Vec<PendingTask> {
            ids.iter()
                .map(|&task| PendingTask {
                    task,
                    not_before: None,
                })
                .collect()
        };
        let now = Instant::now();
        let all = pending(&[0, 1, 2, 3]);
        for node in 0..4 {
            // A free slot takes its node's own task, wherever it queues,
            // and stealing permission doesn't change that.
            for allow_steal in [false, true] {
                let pos = pick_pending(&all, &tasks, node, allow_steal, now);
                assert_eq!(pos.map(|p| all[p].task), Some(node));
            }
        }
        // With its local task gone a slot waits out one beat rather than
        // take a remote task, then steals the head of the queue.
        let remote_only = pending(&[1, 2, 3]);
        assert_eq!(pick_pending(&remote_only, &tasks, 0, false, now), None);
        assert_eq!(pick_pending(&remote_only, &tasks, 0, true, now), Some(0));
        // A task still inside its retry backoff is nobody's to take.
        let backing_off = vec![PendingTask {
            task: 0,
            not_before: Some(now + Duration::from_secs(60)),
        }];
        assert_eq!(pick_pending(&backing_off, &tasks, 0, true, now), None);

        // End to end, whatever the thread timing: an attempt is flagged
        // data-local exactly when it ran on its split's preferred node.
        let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 4096));
        struct Nop;
        impl Mapper for Nop {
            type InKey = u64;
            type InValue = u64;
            type OutKey = u64;
            type OutValue = u64;
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
                ctx.emit(*k, *v);
            }
        }
        let splits: Vec<InputSplit<u64, u64>> = (0..4)
            .map(|i| InputSplit::new(format!("s{i}"), vec![(i as u64, 0)]).at_node(i))
            .collect();
        let res = engine
            .run_map_only(JobConfig::default(), &Nop, splits)
            .unwrap();
        assert_eq!(res.events.len(), 4);
        for e in &res.events {
            assert_eq!(e.data_local, e.node == e.task_id, "{e:?}");
        }
    }

    #[test]
    fn reducers_fetch_most_shuffle_bytes_from_their_own_node() {
        // 2 nodes, replication 2: every segment block has a replica on
        // the reducer's node, so the read-affinity hint must serve the
        // majority of fetch bytes locally. A dropped or inverted hint
        // lands at zero — without a matching affinity every byte counts
        // as remote.
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 1 << 20,
            replication: 2,
            ..DfsConfig::default()
        });
        let engine =
            MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096)).with_shuffle_dfs(dfs);
        let cfg = JobConfig {
            n_reducers: 2,
            io_sort_bytes: 2048,
            speculative: false,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(8, 50))
            .unwrap();
        let local = res.counters.get(keys::SHUFFLE_FETCH_BYTES_LOCAL);
        let remote = res.counters.get(keys::SHUFFLE_FETCH_BYTES_REMOTE);
        assert!(local + remote > 0, "the transit fetch path must be measured");
        assert!(
            local > remote,
            "only {local} of {} fetch bytes were served by the reducer's own node",
            local + remote
        );
    }

    #[test]
    fn single_reducer_gets_everything_sorted_by_key() {
        struct KeyEcho;
        impl Mapper for KeyEcho {
            type InKey = u64;
            type InValue = u64;
            type OutKey = u64;
            type OutValue = u64;
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
                ctx.emit(*k, *v);
            }
        }
        struct CollectOrdered;
        impl Reducer for CollectOrdered {
            type InKey = u64;
            type InValue = u64;
            type OutKey = u64;
            type OutValue = u64;
            fn reduce(&self, k: u64, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
                for v in vs {
                    ctx.emit(k, v);
                }
            }
        }
        let engine = MapReduceEngine::local(3);
        let splits: Vec<InputSplit<u64, u64>> = (0..3)
            .map(|s| {
                InputSplit::new(
                    format!("s{s}"),
                    (0..100u64).rev().map(|i| (i * 7 % 50, i)).collect(),
                )
            })
            .collect();
        let cfg = JobConfig {
            n_reducers: 1,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &KeyEcho, &CollectOrdered, &HashPartitioner, splits)
            .unwrap();
        let keys: Vec<u64> = res.outputs[0].iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "reduce input must arrive key-sorted");
        assert_eq!(keys.len(), 300);
    }

    #[test]
    fn spills_run_on_the_encoder_pool() {
        let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096));
        let cfg = JobConfig {
            n_reducers: 3,
            io_sort_bytes: 512, // force many spills per task
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(5, 40))
            .unwrap();
        assert!(res.counters.get(keys::MAP_SPILLS) > 5);
        assert_eq!(
            res.counters.get(keys::SPILL_POOL_JOBS),
            res.counters.get(keys::MAP_SPILLS)
        );
        assert!(res.counters.get(keys::SPILL_POOL_BUSY_NANOS) > 0);
    }

    #[test]
    fn idle_workers_park_on_condvar_not_busy_poll() {
        // One deliberately slow map task on a cluster with spare slots:
        // the idle workers must ride the condvar (counted wakeups or
        // timed-out beats), and the straggler machinery still works on
        // top of the timeouts.
        let engine = MapReduceEngine::new(ClusterResources::uniform(1, 4, 8192))
            .with_fault_plan(FaultPlan::seeded(7).slow_down(TaskKind::Map, 0, 0, 30));
        let cfg = JobConfig {
            n_reducers: 1,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(3, 10))
            .unwrap();
        let beats = res.counters.get(keys::SCHED_IDLE_TIMEOUTS)
            + res.counters.get(keys::SCHED_WAKEUPS);
        assert!(
            beats > 0,
            "idle workers should have parked at least once while the slow task ran"
        );
    }

    #[test]
    fn private_transit_dfs_matches_attached_and_cleans_up() {
        let run = |dfs: Option<Dfs>| {
            let mut engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
            if let Some(dfs) = dfs {
                engine = engine.with_shuffle_dfs(dfs);
            }
            let cfg = JobConfig {
                n_reducers: 4,
                io_sort_bytes: 512,
                ..JobConfig::default()
            };
            let res = engine
                .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(6, 50))
                .unwrap();
            let mut outs = res.outputs;
            for o in &mut outs {
                o.sort();
            }
            // The run's shuffle files are swept once reducers consumed
            // them, on whichever DFS carried them.
            let left = engine.shuffle_dfs().list("");
            assert!(left.is_empty(), "transit files must be cleaned up: {left:?}");
            (outs, res.counters)
        };
        let attached = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1 << 20,
            replication: 2,
            ..DfsConfig::default()
        });
        let (attached_outs, attached_counters) = run(Some(attached));
        let (private_outs, private_counters) = run(None);
        assert_eq!(attached_outs, private_outs, "the transit DFS must not change results");
        assert!(private_counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
        assert_eq!(
            private_counters.get(keys::SHUFFLE_BYTES_DFS),
            private_counters.get(keys::SHUFFLE_BYTES),
            "every shuffled byte travels through the DFS"
        );
        assert_eq!(
            attached_counters.get(keys::SHUFFLE_BYTES_DFS),
            private_counters.get(keys::SHUFFLE_BYTES_DFS),
            "both move the same wire bytes"
        );
    }

    #[test]
    fn private_transit_dfs_reruns_maps_lost_with_their_node() {
        // No DFS attached: transit is unreplicated, so committed map
        // output homed on a node that dies is gone and the map re-runs.
        // (Output equality under this plan is asserted by
        // tests/fault_tolerance.rs; here, what only the crate can see.)
        // Stretch every first attempt so all six slots (two on the doomed
        // node) are mid-flight together: the first six commits then land
        // together, two of them homed on node 1.
        let mut plan = FaultPlan::seeded(4).kill_node_after_maps(1, 6);
        for t in 0..12 {
            plan = plan.slow_down(TaskKind::Map, t, 0, 40);
        }
        let engine =
            MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
        let cfg = JobConfig {
            n_reducers: 3,
            io_sort_bytes: 4096,
            retry_backoff_ms: 1.0,
            speculative: false,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
            .expect("two surviving nodes must finish the job");
        assert_eq!(engine.dead_nodes(), vec![1]);
        assert!(res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS) >= 1);
        assert_eq!(res.counters.get(keys::MAPS_RESHIPPED_FROM_DFS), 0);
        assert!(res.counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
        assert!(engine.shuffle_dfs().list("").is_empty());
    }

    #[test]
    fn attempt_bag_charges_skip_discarded_speculative_attempts() {
        // What a mapper charges on `ctx.counters()` reaches the job
        // counters once per task, even when a slowed original attempt
        // loses to its backup and is discarded after running in full.
        struct Charge;
        impl Mapper for Charge {
            type InKey = u64;
            type InValue = String;
            type OutKey = String;
            type OutValue = u64;
            fn map(&self, _k: &u64, line: &String, ctx: &mut MapContext<'_, String, u64>) {
                ctx.counters().add("test.charged", 1);
                ctx.emit(line.clone(), 1);
            }
        }
        let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096))
            .with_fault_plan(FaultPlan::seeded(3).slow_down(TaskKind::Map, 0, 0, 2_000));
        let cfg = JobConfig {
            n_reducers: 2,
            speculative_min_runtime_ms: 10.0,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Charge, &Sum, &HashPartitioner, word_splits(6, 10))
            .unwrap();
        assert!(res.counters.get(keys::SPECULATIVE_WASTED) >= 1);
        assert_eq!(res.counters.get("test.charged"), 6 * 10);
    }

    #[test]
    fn one_early_finisher_does_not_make_the_other_task_a_straggler() {
        // Two tasks, one far longer than the other (chromosome-sized
        // partitions look like this): with half the wave committed the
        // idle slot must not re-run the long task — the backup could
        // not be killed, and the wave would wait for it.
        let engine = MapReduceEngine::new(ClusterResources::uniform(2, 1, 4096))
            .with_fault_plan(FaultPlan::seeded(3).slow_down(TaskKind::Map, 0, 0, 300));
        let res = engine
            .run_job(JobConfig::default(), &Tokenize, &Sum, &HashPartitioner, word_splits(2, 10))
            .unwrap();
        assert_eq!(res.counters.get(keys::SPECULATIVE_LAUNCHED), 0);
    }

    #[test]
    fn empty_job() {
        let engine = MapReduceEngine::local(2);
        let res = engine
            .run_job(
                JobConfig::default(),
                &Tokenize,
                &Sum,
                &HashPartitioner,
                Vec::new(),
            )
            .unwrap();
        assert_eq!(res.outputs.len(), 1);
        assert!(res.outputs[0].is_empty());
    }
}
