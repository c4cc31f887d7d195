//! The engine and its jobs: open frame → map wave → shuffle matrix →
//! reduce wave → finish.
//!
//! This module holds the engine — [`MapReduceEngine`] — and the bodies
//! of a map task and a reduce task; what a job *is* ([`JobConfig`],
//! [`InputSplit`], the attempt history types) lives in `job` and is
//! re-exported here. How a wave of such tasks is
//! scheduled over the cluster's slots — attempts under `catch_unwind`,
//! retries with backoff up to [`JobConfig::max_attempts`], speculative
//! backups, node deaths injected via [`crate::fault::FaultPlan`] that
//! re-run committed map tasks whose shuffle output lived on the lost
//! node, exactly as Hadoop must when a slave is lost mid-job — is
//! the `wave` module's. A task body runs start to finish on the slot
//! worker that took the attempt: the spill sort, the map-side merge, the
//! reduce-side fetches and the multipass merge spawn no thread, so what
//! an attempt costs is charged to the slot — and the lease permit —
//! that ran it.

use crate::cluster::ClusterResources;
use crate::counters::{keys, Counters};
use crate::error::GesallError;
use crate::fault::{FaultPlan, NodeDeath};
pub use crate::job::{
    AttemptOutcome, InputSplit, JobConfig, JobOutput, JobResult, TaskEvent, TaskKind,
};
use crate::shipping;
use crate::shuffle::{reduce_merge_streamed, SortSpillBuffer};
use crate::task::{
    CollectRecords, MapContext, Mapper, OutputFormat, Partitioner, RecordWriter, ReduceContext,
    Reducer,
};
use crate::wave::{run_wave, AttemptCtx, TaskOutputs};
use gesall_dfs::{Dfs, DfsConfig, PinnedPlacement, ReadAffinity, SweepReason};
use gesall_formats::wire::Wire;
use gesall_formats::Codec;
use gesall_telemetry::{OpenSpan, Phase, Recorder, SpanKind};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// lets it fetch a run only when a pass activates it without
    /// perturbing the multipass structure (see
    /// [`reduce_merge_streamed`](crate::shuffle::reduce_merge_streamed)).
    records: u64,
}

/// The engine: a cluster's worth of worker threads.
pub struct MapReduceEngine {
    cluster: ClusterResources,
    pub(crate) fault_plan: FaultPlan,
    /// Scheduled deaths not yet fired (each fires at most once per engine).
    pub(crate) pending_deaths: Mutex<Vec<NodeDeath>>,
    /// Nodes lost so far; a dead node schedules no further attempts, in
    /// any wave of any subsequent job on this engine.
    pub(crate) dead_nodes: Mutex<HashSet<usize>>,
    /// Called (outside scheduler locks) when a node dies — the DFS layer
    /// hooks re-replication in here.
    pub(crate) node_death_hook: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    /// Span recorder; inert by default ([`Recorder::disabled`]).
    recorder: Recorder,
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
            shuffle_dfs: Mutex::new(None),
            shuffle_seq: AtomicU64::new(0),
            dfs_faults_armed: AtomicBool::new(false),
        }
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

    pub(crate) fn is_dead(&self, node: usize) -> bool {
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
        let job = self.open_shuffle(&frame.config, partitioner);
        let n_maps = splits.len();
        let outputs = (|| -> Result<Vec<F::Output>, GesallError> {
            // ---- Map wave ---------------------------------------------
            let map_outputs: TaskOutputs<MapOutput> =
                (0..n_maps).map(|_| Mutex::new(None)).collect();
            let prefs: Vec<Option<usize>> = splits.iter().map(|s| s.preferred_node).collect();
            // A committed map whose home node dies may still be readable
            // from a replica: probe actual datanode storage, excluding
            // every engine-dead node's co-located datanode (the DFS may
            // not have been told about the death yet — the failure hook
            // runs after eviction decisions).
            let survives = |task: usize| -> bool {
                let slot = map_outputs[task].lock();
                let Some(out) = &*slot else {
                    return false;
                };
                let mut excluded: Vec<usize> =
                    self.dead_nodes.lock().iter().map(|d| d % job.n_dfs_nodes).collect();
                excluded.sort_unstable();
                excluded.dedup();
                job.dfs.file_available_excluding(&out.path, &excluded)
            };
            run_wave(self, TaskKind::Map, &frame, &prefs, &map_outputs, Some(&survives), |at| {
                self.map_task(&job, mapper, &splits[at.task], at)
            })?;
            let map_outputs = committed(map_outputs, "map")?;

            // ---- Shuffle matrix ---------------------------------------
            // Bytes each reducer pulls from each map output. Recorded
            // once, between the waves, so retried or speculative reduce
            // attempts cannot double-count a cell.
            if self.recorder.is_enabled() {
                for (m, out) in map_outputs.iter().enumerate() {
                    for (r, meta) in out.metas.iter().enumerate() {
                        self.recorder
                            .shuffle_cell(m, r, meta.wire_len as u64, meta.compressed);
                    }
                }
            }

            // ---- Reduce wave ------------------------------------------
            let reduce_outputs: TaskOutputs<_> =
                (0..job.n_reducers).map(|_| Mutex::new(None)).collect();
            let no_prefs = vec![None; job.n_reducers];
            run_wave(self, TaskKind::Reduce, &frame, &no_prefs, &reduce_outputs, None, |at| {
                self.reduce_task(&job, reducer, format, &map_outputs, at)
            })?;
            committed(reduce_outputs, "reduce")
        })();
        // Drop every shipped map output for this run, whether the job
        // succeeded or not — losing attempts leave orphans at unique
        // paths, so a retention prefix sweep is the only correct cleanup
        // (charged to `dfs.retention.swept.completed`).
        job.dfs.sweep_prefix(&job.base, SweepReason::Completed);
        let meta = vec![
            ("n_maps".into(), n_maps.to_string()),
            ("n_reducers".into(), job.n_reducers.to_string()),
        ];
        Ok(frame.finish(&self.recorder, outputs?, meta))
    }

    /// Set up one job's shuffle: the transit DFS (the plan's
    /// storage-layer gray failures armed on it), this run's directory and
    /// the codec its map outputs travel under.
    fn open_shuffle<'a, K: Wire>(
        &self,
        config: &'a JobConfig,
        partitioner: &'a dyn Partitioner<K>,
    ) -> ShuffleJob<'a, K> {
        let dfs = self.shuffle_dfs();
        // Once per engine: flaky-read budgets are consumable.
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
        // engine (and their retried attempts' files) disjoint. The run
        // counter is monotone per engine — never wall-clock derived — so
        // transit paths are stable across reruns of the same seed. A
        // namespaced job (job service tenancy) shuffles under its own
        // `/{tenant}/{job}/` prefix instead.
        let run = self.shuffle_seq.fetch_add(1, Ordering::Relaxed);
        let base = match &config.shuffle_namespace {
            Some(ns) => format!("{}/shuffle-{}", ns.trim_end_matches('/'), run),
            None => format!("/{}/shuffle-{}", config.name, run),
        };
        ShuffleJob {
            config,
            n_reducers: config.n_reducers.max(1),
            partitioner,
            codec: config.shuffle_codec.unwrap_or(Codec::Lz),
            n_dfs_nodes: dfs.config().n_nodes,
            dfs,
            base,
        }
    }

    /// One map attempt: the mapper over its split into the sort buffer,
    /// the spills merged into one segment per partition, the segments
    /// shipped as one transit file pinned to the attempt's node.
    fn map_task<M: Mapper>(
        &self,
        job: &ShuffleJob<'_, M::OutKey>,
        mapper: &M,
        split: &InputSplit<M::InKey, M::InValue>,
        at: &AttemptCtx<'_>,
    ) -> MapOutput {
        let bag = at.bag;
        let t_task = Instant::now();
        let mut buf = SortSpillBuffer::new(
            job.config.io_sort_bytes,
            job.n_reducers,
            job.partitioner,
            job.codec,
            bag.clone(),
        );
        drive_mapper(mapper, split, bag, &mut |k, v| buf.emit(k, v));
        let segments = buf.finish();
        // Map phase = the body so far minus the spill sorts and the
        // merge it contains: the phases of an attempt partition its wall.
        let accounted =
            bag.get(Phase::SortSpill.counter_key()) + bag.get(Phase::MapMerge.counter_key());
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
        // Attempt-unique path: a speculative or retried attempt of the
        // same task must never collide with (or clobber) another
        // attempt's file.
        let uid = self.shuffle_seq.fetch_add(1, Ordering::Relaxed);
        let path = format!("{}/map-{:05}-a{uid}.segs", job.base, at.task);
        let t_ship = Instant::now();
        let pin = PinnedPlacement(at.node % job.n_dfs_nodes);
        if let Err(e) = shipping::store_map_output(&job.dfs, &path, &segments, &pin, bag) {
            // A panic here is an attempt failure → retry.
            panic!("shipping map output {path} to DFS: {e}");
        }
        // Persisting the output is the map-side half of the shuffle,
        // not map compute.
        bag.add(
            Phase::Shuffle.counter_key(),
            t_ship.elapsed().as_nanos() as u64,
        );
        MapOutput { path, metas }
    }

    /// One reduce attempt: this partition's frame of every map output
    /// fetched as the merge activates it, the multipass merge, the
    /// reducer over the grouped stream into a fresh [`RecordWriter`].
    fn reduce_task<R, F>(
        &self,
        job: &ShuffleJob<'_, R::InKey>,
        reducer: &R,
        format: &F,
        map_outputs: &[MapOutput],
        at: &AttemptCtx<'_>,
    ) -> F::Output
    where
        R: Reducer,
        F: OutputFormat<R::OutKey, R::OutValue>,
    {
        let (partition, bag) = (at.task, at.bag);
        let t_task = Instant::now();
        // Locality hint: the reducer's exec node, mapped onto the DFS
        // node space exactly as map outputs were pinned, so a fetch
        // prefers the co-located replica.
        let affinity = ReadAffinity::node(at.node % job.n_dfs_nodes);
        // The merge must know its nonempty-run count before fetching
        // anything — the shipped metas carry it.
        let n_runs = map_outputs
            .iter()
            .filter(|out| out.metas[partition].records > 0)
            .count();
        // The merge's supplier is the fetch: a DFS range read per
        // shipped file (only this reducer's frame travels), made when a
        // pass activates the run, its time charged to the shuffle phase
        // by the merge's own ledger.
        let mut unfetched = map_outputs.iter();
        let next_segment = || {
            let out = unfetched.next()?;
            // The DFS already retries transient replica failures
            // internally; this outer loop covers whole-op failures that
            // outlive its budget (e.g. a deadline expiry). Non-retryable
            // errors — corrupt beyond repair, missing file — surface
            // immediately: that's an attempt failure, and the
            // scheduler's re-run (or reship probe) is the right recovery.
            let mut tries = 0usize;
            loop {
                match shipping::fetch_partition(&job.dfs, &out.path, partition, affinity, bag) {
                    Ok(seg) => {
                        bag.add(keys::SHUFFLE_BYTES_DFS, seg.wire_len() as u64);
                        return Some(seg);
                    }
                    Err(e) if e.is_retryable() && tries < 2 => {
                        tries += 1;
                        bag.add(keys::SHUFFLE_FETCH_RETRIES, 1);
                    }
                    Err(e) => panic!("fetching partition {partition} of {}: {e}", out.path),
                }
            }
        };
        let grouped = reduce_merge_streamed::<R::InKey, R::InValue>(
            n_runs,
            next_segment,
            job.config.merge_factor,
            bag,
        );
        let mut writer = format.writer(bag);
        let cut = self.fault_plan.reduce_output_cut(partition, at.attempt);
        let mut emitted = 0u64;
        {
            let mut sink = |k, v| {
                if cut == Some(emitted) {
                    panic!("{}", FaultPlan::cut_message(partition, at.attempt, emitted));
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
        // Reduce phase = task body (the writer's work included) minus
        // shuffle + merge time.
        let accounted =
            bag.get(Phase::Shuffle.counter_key()) + bag.get(Phase::ReduceMerge.counter_key());
        let total = t_task.elapsed().as_nanos() as u64;
        bag.add(Phase::Reduce.counter_key(), total.saturating_sub(accounted));
        out
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

        run_wave(self, TaskKind::Map, &frame, &prefs, &outputs, None, |at| {
            let t_task = Instant::now();
            let mut out = Vec::new();
            drive_mapper(mapper, &splits[at.task], at.bag, &mut |k, v| out.push((k, v)));
            at.bag.add(keys::MAP_OUTPUT_RECORDS, out.len() as u64);
            // No sort/spill in a map-only job: the whole body is map.
            at.bag
                .add(Phase::Map.counter_key(), t_task.elapsed().as_nanos() as u64);
            out
        })?;

        let outputs = committed(outputs, "map")?;
        let meta = vec![("n_maps".into(), n_maps.to_string())];
        Ok(frame.finish(&self.recorder, outputs, meta))
    }
}

/// Run `mapper` over `split`, its emitted pairs going to `sink` and its
/// charges to the attempt's `bag`.
fn drive_mapper<M: Mapper>(
    mapper: &M,
    split: &InputSplit<M::InKey, M::InValue>,
    bag: &Counters,
    sink: &mut dyn FnMut(M::OutKey, M::OutValue),
) {
    bag.add(keys::MAP_INPUT_RECORDS, split.records.len() as u64);
    let mut ctx = MapContext { sink, counters: bag };
    for (k, v) in &split.records {
        mapper.map(k, v, &mut ctx);
    }
    mapper.finish(&mut ctx);
}

/// What every task of one shuffling job shares: the shape of its shuffle
/// and where it transits.
struct ShuffleJob<'a, K> {
    config: &'a JobConfig,
    n_reducers: usize,
    partitioner: &'a dyn Partitioner<K>,
    /// Codec map-output partitions of at least `COMPRESS_MIN_BYTES`
    /// travel under.
    codec: Codec,
    /// The transit DFS; engine node `n` is co-located with its datanode
    /// `n % n_dfs_nodes`.
    dfs: Dfs,
    n_dfs_nodes: usize,
    /// This run's transit directory.
    base: String,
}

/// What every job opens first and closes last, whatever runs between:
/// its span, counter bag, event log and clock.
pub(crate) struct JobFrame {
    pub config: JobConfig,
    pub span: OpenSpan,
    pub counters: Counters,
    pub events: Mutex<Vec<TaskEvent>>,
    pub t0: Instant,
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
    fn spill_and_multipass_merge_accounting_is_pinned() {
        // Every clock-free counter of the sort–spill–merge path, held to
        // exact values: a 512-byte sort buffer spills each map many
        // times, merge factor 2 makes six runs per reducer take several
        // passes, and the default Lz codec puts compressed and raw
        // segments on the wire. One node, so every fetch byte is local.
        let engine = MapReduceEngine::local(2);
        let cfg = JobConfig {
            n_reducers: 2,
            io_sort_bytes: 512,
            merge_factor: 2,
            speculative: false,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(6, 150))
            .unwrap();
        let pinned = |k: &str| {
            ["map.", "shuffle.", "mem.spill.", "reduce.merge."].iter().any(|p| k.starts_with(p))
                || k == keys::BYTES_COPIED
                || k == keys::REDUCE_PEAK_RESIDENT
        };
        let got: Vec<(String, u64)> =
            res.counters.snapshot().into_iter().filter(|(k, _)| pinned(k)).collect();
        let want = [
            ("map.input.records", 900),
            ("map.merge.segments", 48),
            ("map.output.bytes", 21807),
            ("map.output.records", 3600),
            ("map.spills", 48),
            ("mem.bytes.copied", 66141),
            ("mem.reduce.peak_resident", 7299),
            ("mem.spill.allocs", 20),
            ("mem.spill.reused", 12),
            ("reduce.merge.bytes", 36345),
            ("reduce.merge.passes", 8),
            ("shuffle.bytes", 720),
            ("shuffle.bytes.dfs", 720),
            ("shuffle.bytes.raw", 21807),
            ("shuffle.fetch.bytes.local", 1308),
            ("shuffle.records", 3600),
            ("shuffle.segments.compressed", 12),
            ("shuffle.ship.bytes.copied", 720),
        ];
        let want: Vec<(String, u64)> = want.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        assert_eq!(got, want);
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
