//! End-to-end drivers.
//!
//! * [`GesallPlatform`] — the parallel driver: its DAG executor walks
//!   the stage table (`stages.rs`, one row per stage) over DFS +
//!   MapReduce, resolving each row from the content-addressed store or
//!   by running its body on its parents' outputs.
//! * [`serial_pipeline`] — the GATK-best-practices single-node baseline
//!   (the gold standard of §4).
//! * [`serial_tail_from_aligned`] / [`serial_tail_from_markdup`] — the
//!   hybrid pipelines P̄ᵢ ∘ serial used to measure D-impact (§4.5.2).

use crate::dag;
use crate::error::{PlatformError, Result};
use crate::rounds::DecodePartMapper;
use crate::stage_data::{self, Stored};
use crate::stages::{self, pipeline_stages, Inputs, Resolved, Split, Stage, StageCtx};
use gesall_aligner::Aligner;
use gesall_dfs::{Dfs, LogicalPartitionPlacement, SweepReason};
use gesall_formats::fastq::ReadPair;
use gesall_formats::sam::header::ReadGroup;
use gesall_formats::sam::{SamHeader, SamRecord, SortOrder};
use gesall_formats::vcf::VariantRecord;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::Counters;
use gesall_mapreduce::lease::SlotLease;
use gesall_mapreduce::runtime::{InputSplit, JobConfig, MapReduceEngine};
use gesall_telemetry::{report, OpenSpan, PhaseRow, SpanId, SpanKind};
use gesall_tools::haplotype_caller::{call_chromosome, HaplotypeCallerConfig};
use gesall_tools::refview::RefView;
use std::sync::Arc;
use std::time::Instant;

pub use crate::stage_data::StageData;

// ---------------------------------------------------------------------
// Parallel platform driver
// ---------------------------------------------------------------------

/// Which small-variant caller round 5 wraps (paper Table 2 v1/v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerChoice {
    /// v2: HaplotypeCaller (greedy active-window segmentation).
    HaplotypeCaller,
    /// v1: UnifiedGenotyper (position-independent pileup calling).
    UnifiedGenotyper,
}

/// How round 5 partitions the genome for the HaplotypeCaller (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HcPartitioning {
    /// The production-accepted coarse scheme: one task per chromosome
    /// (23 tasks for a human genome — the §4.4 underutilization).
    Chromosome,
    /// The paper's proposed fine-grained overlapping scheme: segments of
    /// `segment_len` padded by `overlap` on both sides; reads in overlap
    /// zones are replicated; calls are emitted only from segment cores.
    FineGrained { segment_len: i64, overlap: i64 },
}

/// Platform-wide configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Logical partitions fed to the alignment round.
    pub n_round1_partitions: usize,
    /// Reducers for round 3, the MarkDuplicates shuffle (round 4 has one
    /// per chromosome plus the unmapped partition).
    pub n_reducers: usize,
    /// Use the bloom-filter MarkDup_opt variant.
    pub markdup_opt: bool,
    /// Run the base-recalibration rounds (Table 2 steps 11–12) between
    /// sort and variant calling.
    pub recalibrate: bool,
    /// Which variant caller round 5 wraps.
    pub caller: CallerChoice,
    /// Round-5 partitioning scheme for the HaplotypeCaller.
    pub hc_partitioning: HcPartitioning,
    /// Sort buffer and reduce-side merge fan-in for the MR jobs (the
    /// paper's `io.sort.mb` and merge factor).
    pub io_sort_bytes: usize,
    pub merge_factor: usize,
    pub seed: u64,
}

/// The read group every run stamps on its records — the parallel rounds
/// and the serial baselines alike.
pub(crate) fn read_group() -> ReadGroup {
    ReadGroup::new("rg1", "sample1")
}

impl Default for PlatformConfig {
    fn default() -> PlatformConfig {
        PlatformConfig {
            n_round1_partitions: 4,
            n_reducers: 4,
            markdup_opt: true,
            recalibrate: false,
            caller: CallerChoice::HaplotypeCaller,
            hc_partitioning: HcPartitioning::Chromosome,
            io_sort_bytes: 8 * 1024 * 1024,
            merge_factor: 10,
            seed: 0x6765_7361_6c6c_0001,
        }
    }
}

/// Summary of one executed round.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    pub name: String,
    pub wall_ms: f64,
    pub n_map_tasks: usize,
    pub n_reduce_tasks: usize,
    pub counters: Vec<(String, u64)>,
}

/// End-to-end output of the parallel pipeline.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Final coordinate-sorted, duplicate-marked records.
    pub records: Vec<SamRecord>,
    /// Variant calls from round 5.
    pub variants: Vec<VariantRecord>,
    pub rounds: Vec<RoundSummary>,
    /// Per-stage DAG execution report, in topological order.
    pub stages: Vec<StageReport>,
}

impl PipelineOutput {
    /// Per-round phase-breakdown rows (the paper's Tables 4–7 shape),
    /// built from each round's `phase.*.nanos` counters.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        self.rounds
            .iter()
            .map(|r| PhaseRow::from_snapshot(&r.name, r.wall_ms, &r.counters))
            .collect()
    }

    /// The rendered rounds × phases breakdown table.
    pub fn phase_table(&self) -> String {
        report::phase_table(&self.phase_rows())
    }

    /// Stages whose bodies executed this run.
    pub fn stages_run(&self) -> usize {
        self.stages.iter().filter(|s| !s.cache_hit).count()
    }

    /// Stages served from the content-addressed intermediate store.
    pub fn cache_hits(&self) -> usize {
        self.stages.iter().filter(|s| s.cache_hit).count()
    }

    /// Per-stage rows for the telemetry DAG / critical-path report: the
    /// stage's wall next to the wall of the MapReduce job it ran (0 on a
    /// hit). The difference is what the driver thread did around the job
    /// while every slot idled — the store read or write, and the pins.
    pub fn stage_rows(&self) -> Vec<report::DagStageRow> {
        self.stages
            .iter()
            .map(|s| report::DagStageRow {
                name: s.name.clone(),
                parents: s.parents.clone(),
                duration_ms: s.wall_ms,
                job_ms: self
                    .rounds
                    .iter()
                    .find(|r| r.name == s.name)
                    .map_or(0.0, |r| r.wall_ms),
                cached: s.cache_hit,
            })
            .collect()
    }

    /// The rendered stage table: stage, job and driver milliseconds with
    /// critical-path attribution.
    pub fn dag_report(&self) -> String {
        report::dag_report(&self.stage_rows())
    }

    /// A partition stage's partitions as the store holds them: its part
    /// files under `{cas_root}/cas/`.
    #[cfg(test)]
    pub(crate) fn stored_parts(&self, dfs: &Dfs, cas_root: &str, stage: &str) -> Vec<SharedBytes> {
        let key = self.stages.iter().find(|s| s.name == stage).expect(stage).key;
        match stage_data::get(dfs, cas_root, key).expect("a stored entry") {
            Stored::Parts(parts) => parts.into_iter().map(|p| p.bytes).collect(),
            Stored::Side(_) => panic!("{stage} is not a partition stage"),
        }
    }
}

/// External controls for one pipeline run, handed in by a multi-job
/// driver (gesall-jobsvc). The default runs unconstrained under the
/// classic `/pipeline` namespace — exactly the old single-caller
/// behaviour.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Container-slot lease capping the run's concurrently executing
    /// tasks (see `gesall_mapreduce::lease`). `None` = unthrottled.
    pub slot_lease: Option<SlotLease>,
    /// DFS prefix the run stages and shuffles under (e.g.
    /// `/{tenant}/{job}`); all transit and staging files land below it,
    /// so one `Dfs::sweep_prefix` call retires the whole run.
    pub namespace: Option<String>,
    /// DFS prefix for the content-addressed intermediate store
    /// (`{cas_root}/cas/{key}[/part-NNNNN]`). Defaults to the run namespace; a
    /// multi-job driver should point it at a prefix shared across the
    /// tenant's jobs (e.g. `/{tenant}`) so successive jobs hit each
    /// other's cache instead of each getting a private one.
    pub cas_root: Option<String>,
}

/// Controls for the DAG executor beyond [`RunOptions`].
#[derive(Debug, Clone)]
pub struct DagRunOptions {
    /// Read/write the content-addressed intermediate store. Off, every
    /// stage executes and its entry goes under the run's own directory.
    pub cache: bool,
    /// Per-stage invalidation salts: the named stage's content key is
    /// perturbed, forcing it — and, through key chaining, exactly its
    /// descendants — to re-execute.
    pub invalidate: Vec<(String, u64)>,
}

impl Default for DagRunOptions {
    fn default() -> DagRunOptions {
        DagRunOptions {
            cache: true,
            invalidate: Vec::new(),
        }
    }
}

/// How one DAG stage resolved.
#[derive(Debug, Clone)]
pub struct StageReport {
    pub name: String,
    /// Content key of the stage's committed output.
    pub key: u64,
    pub parents: Vec<String>,
    /// Served from the content-addressed store (the body never ran).
    pub cache_hit: bool,
    /// Resolution wall time: read-and-pin for a hit, which writes
    /// nothing; execution and the store write for a miss.
    pub wall_ms: f64,
}

/// The Gesall platform: DFS + MapReduce engine + configuration.
pub struct GesallPlatform {
    pub dfs: Dfs,
    pub engine: MapReduceEngine,
    pub config: PlatformConfig,
    run_seq: std::sync::atomic::AtomicU64,
}

impl GesallPlatform {
    /// The platform over `dfs` and `engine`. The DFS doubles as the
    /// shuffle transit store, so a node death in the engine's fault plan
    /// fails the co-located datanode and re-replicates exactly the
    /// blocks the failure under-replicated — the YARN-NodeManager-death
    /// → HDFS-re-replication coupling of a real cluster.
    pub fn new(dfs: Dfs, engine: MapReduceEngine, config: PlatformConfig) -> GesallPlatform {
        let engine = engine.with_shuffle_dfs(dfs.clone());
        // Crash sweep: shuffle-transit files are deleted by the engine
        // when a job finishes, so any still present at platform startup
        // were orphaned by a crashed prior process. Reclaim them before
        // new jobs write next to them.
        dfs.sweep_orphans();
        GesallPlatform {
            dfs,
            engine,
            config,
            run_seq: std::sync::atomic::AtomicU64::new(0),
        }
    }

    pub(crate) fn job_config(&self, opts: &RunOptions, name: &str, n_reducers: usize, parent: SpanId) -> JobConfig {
        JobConfig {
            name: name.into(),
            n_reducers,
            io_sort_bytes: self.config.io_sort_bytes,
            merge_factor: self.config.merge_factor,
            parent_span: parent,
            slot_lease: opts.slot_lease.clone(),
            shuffle_namespace: opts.namespace.clone(),
        }
    }

    /// Write an input a row builds itself (round 1's FASTQ, HC segments)
    /// as one logical partition — every block on one node — and return
    /// its input split. One backing serves both the DFS blocks and the
    /// mapper's input: placing copies nothing and reads nothing back.
    pub(crate) fn place(&self, path: &str, label: String, bytes: SharedBytes) -> Result<Split> {
        let info =
            self.dfs
                .write_shared_with_policy(path, bytes.clone(), &LogicalPartitionPlacement)?;
        Ok(self.split(label, bytes, info.single_home()))
    }

    /// The input split over a partition, preferring its `home` node.
    fn split(&self, label: String, bytes: SharedBytes, home: Option<usize>) -> Split {
        let split = InputSplit::new(label.clone(), vec![(label, bytes)]);
        match home {
            Some(node) => split.at_node(node % self.engine.cluster().n_nodes()),
            None => split,
        }
    }

    /// A stored entry as the rows below it see it: a split per part
    /// file, or the side value as it is.
    fn resolved(&self, stored: Stored) -> Resolved {
        match stored {
            Stored::Parts(parts) => Resolved::Splits(parts.into_iter().map(|p| self.split(p.path, p.bytes, p.home)).collect()),
            Stored::Side(side) => Resolved::Side(side),
        }
    }

    /// Run the full pipeline on interleaved read pairs, through the
    /// stage-DAG executor with content-addressed caching.
    pub fn run_pipeline(&self, aligner: &Aligner, pairs: Vec<ReadPair>) -> Result<PipelineOutput> {
        self.run_pipeline_with(aligner, pairs, &RunOptions::default())
    }

    /// Like [`GesallPlatform::run_pipeline`], but under external
    /// control: a capacity scheduler's slot lease caps the run's
    /// concurrent container slots, and a namespace confines every
    /// staged and shuffled byte to one sweepable DFS prefix. This is
    /// the hook gesall-jobsvc drives; `run_pipeline` is the
    /// unconstrained single-caller form. Both route through the DAG
    /// executor ([`GesallPlatform::run_pipeline_dag`]) with default
    /// cache behaviour.
    pub fn run_pipeline_with(
        &self,
        aligner: &Aligner,
        pairs: Vec<ReadPair>,
        opts: &RunOptions,
    ) -> Result<PipelineOutput> {
        self.run_pipeline_dag(aligner, pairs, opts, &DagRunOptions::default())
    }

    /// The DAG executor. Walks the stage table ([`crate::stages`]) top
    /// to bottom; each stage's output is keyed by its content hash (code
    /// version + the settings its body reads + parent keys, rooted at a
    /// hash of the read pairs and reference) and committed to the
    /// content-addressed store under `{cas_root}/cas/{key}`. A key that
    /// hits is read instead of executed (`dag.stages.cache_hit` vs
    /// `dag.stages.run`), so re-running with one changed stage
    /// re-executes exactly that stage and its descendants. A partition
    /// stage's entry is a directory of part files, one per partition,
    /// each placed whole on one node (§3.1) and read there by its
    /// consumers' tasks: hit or run, store blocks and splits share one
    /// backing, a hit writes nothing, and a stage that re-executes into
    /// stored bytes shares their backing. Every file of every entry
    /// touched is pinned until the run finishes, so a retention sweep
    /// can never delete a live intermediate out from under a dependent
    /// stage. Without a [`RunOptions::namespace`] the run's directory
    /// (`/pipeline/run{N}/`: round 1's FASTQ, HC segments, entries
    /// written with the cache off) is retired when the run ends.
    pub fn run_pipeline_dag(
        &self,
        aligner: &Aligner,
        pairs: Vec<ReadPair>,
        opts: &RunOptions,
        dag_opts: &DagRunOptions,
    ) -> Result<PipelineOutput> {
        let (mut cx, pipeline_span, pipeline_name, ns) = self.begin_run(aligner, pairs, opts);
        let cas_root = opts
            .cas_root
            .as_deref()
            .map(|c| c.trim_end_matches('/').to_string())
            .unwrap_or(ns);
        let rows = pipeline_stages(&self.config, aligner);
        let run = self
            .resolve_stages(&mut cx, &rows, &cas_root, dag_opts)
            .and_then(|(resolved, stages)| Ok((self.collect(&cx, &rows, resolved)?, stages)));
        // The run's own directory goes with it, run or failed: the
        // store's entries live under `{cas_root}/cas/`. A namespace
        // handed in is its owner's to retire.
        if opts.namespace.is_none() {
            self.dfs.sweep_prefix(&cx.base, SweepReason::Completed);
        }
        let ((records, variants), stages) = run?;
        Ok(self.finish_run(cx, pipeline_span, &pipeline_name, records, variants, stages))
    }

    /// Resolve every row of the table, from the store or by running its
    /// body, into what the rows below it consume.
    fn resolve_stages(
        &self,
        cx: &mut StageCtx<'_>,
        rows: &[Stage<'_>],
        cas_root: &str,
        dag_opts: &DagRunOptions,
    ) -> Result<(Vec<Resolved>, Vec<StageReport>)> {
        // Rejects a malformed table and a mistyped invalidation before
        // any stage resolves.
        let keys = stages::graph(rows)
            .stage_keys(stages::root_key(cx), &dag_opts.invalidate)
            .map_err(|e| PlatformError::Invariant(e.to_string()))?;

        let mut resolved: Vec<Resolved> = Vec::with_capacity(rows.len());
        let mut pinned: Vec<String> = Vec::new();
        let mut stage_reports: Vec<StageReport> = Vec::new();
        let outcome = {
            let mut walk = || -> Result<()> {
                for row in rows {
                    let name = &row.spec.name;
                    let key = keys[name.as_str()];
                    let root = if dag_opts.cache { cas_root.to_string() } else { cx.base.clone() };
                    let t0 = Instant::now();
                    let sspan = cx.recorder.start(SpanKind::Stage, name, cx.pipeline_span);
                    cx.stage_span = sspan.id;
                    let rounds_before = cx.rounds.len();
                    // An entry with a file unreadable, torn or garbled is
                    // a miss: the stage re-runs, and its put writes only
                    // the files that are not there.
                    let cached = dag_opts.cache.then(|| stage_data::get(&self.dfs, &root, key)).flatten();
                    let cache_hit = cached.is_some();
                    let stored = match cached {
                        Some(stored) => stored,
                        None => {
                            let out = row.body.run(self, cx, &Inputs::of(rows, &resolved, row)?)?;
                            stage_data::put(&self.dfs, &root, key, out)?
                        }
                    };
                    // Pinned for the rest of the run, past any retention
                    // sweep of the namespace.
                    for path in stored.files(&root, key) {
                        self.dfs.pin(&path)?;
                        pinned.push(path);
                    }
                    resolved.push(self.resolved(stored));
                    let counter = if cache_hit {
                        dag::keys::STAGES_CACHE_HIT
                    } else {
                        dag::keys::STAGES_RUN
                    };
                    // On the run's counter bag for the trace, and on the
                    // platform DFS registry so warm-rerun behaviour is
                    // observable across runs.
                    cx.counters.add(counter, 1);
                    self.dfs.metrics().counter(counter).add(1);
                    let mut meta = vec![
                        ("parents".to_string(), row.spec.parents.join(",")),
                        ("cached".to_string(), cache_hit.to_string()),
                        ("key".to_string(), format!("{key:016x}")),
                    ];
                    // A stage that ran carries its round's task counts
                    // and counter snapshot.
                    let mut metrics = Vec::new();
                    if let Some(round) = cx.rounds.get(rounds_before) {
                        meta.push(("n_map_tasks".to_string(), round.n_map_tasks.to_string()));
                        meta.push((
                            "n_reduce_tasks".to_string(),
                            round.n_reduce_tasks.to_string(),
                        ));
                        metrics = round.counters.clone();
                    }
                    cx.recorder.end_with(sspan, name, meta, metrics);
                    stage_reports.push(StageReport {
                        name: name.clone(),
                        key,
                        parents: row.spec.parents.clone(),
                        cache_hit,
                        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    });
                }
                Ok(())
            };
            walk()
        };
        // Success or failure, live pins must not outlast the run.
        for p in &pinned {
            self.dfs.unpin(p);
        }
        outcome?;
        Ok((resolved, stage_reports))
    }

    /// The run's two outputs, read off the resolved table: the calls are
    /// the last row's output, the final records its first parent's
    /// partitions — decoded by a map-only wave, one task per partition
    /// under the run's slot lease, concatenated in partition order. The
    /// wave is not a round: it leaves no [`RoundSummary`].
    fn collect(
        &self,
        cx: &StageCtx<'_>,
        rows: &[Stage<'_>],
        mut resolved: Vec<Resolved>,
    ) -> Result<(Vec<SamRecord>, Vec<VariantRecord>)> {
        let last = rows.last().expect("the stage table is never empty");
        let splits = Inputs::of(rows, &resolved, last)?.splits(0)?;
        let Some(Resolved::Side(StageData::Variants(variants))) = resolved.pop() else {
            return Err(PlatformError::Invariant(
                "the last stage did not produce variants".into(),
            ));
        };
        let job = self.engine.run_map_only(
            self.job_config(cx.opts, "final-decode", 1, cx.pipeline_span),
            &DecodePartMapper,
            splits,
        )?;
        let parts: Vec<Vec<SamRecord>> =
            job.outputs.into_iter().flatten().map(|(_, part)| part).collect();
        let mut records = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for mut part in parts {
            records.append(&mut part);
        }
        Ok((records, variants))
    }

    /// The DAG executor's test reference: a plain loop over the same
    /// rows, with no keys, no store reads and no stage spans — its jobs
    /// nest under the pipeline span, and each row's output is written
    /// under the run's directory, keyed by the row's position.
    #[cfg(test)]
    fn run_pipeline_sequential(
        &self,
        aligner: &Aligner,
        pairs: Vec<ReadPair>,
        opts: &RunOptions,
    ) -> Result<PipelineOutput> {
        let (mut cx, pipeline_span, pipeline_name, _ns) = self.begin_run(aligner, pairs, opts);
        let rows = pipeline_stages(&self.config, aligner);
        let mut resolved = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let out = row.body.run(self, &mut cx, &Inputs::of(&rows, &resolved, row)?)?;
            resolved.push(self.resolved(stage_data::put(&self.dfs, &cx.base, i as u64, out)?));
        }
        let (records, variants) = self.collect(&cx, &rows, resolved)?;
        Ok(self.finish_run(cx, pipeline_span, &pipeline_name, records, variants, Vec::new()))
    }

    /// Shared preamble for both drivers: allocate the run's DFS
    /// namespace, open the pipeline span, and snapshot the reference
    /// facts every stage needs.
    fn begin_run<'a>(
        &self,
        aligner: &Aligner,
        pairs: Vec<ReadPair>,
        opts: &'a RunOptions,
    ) -> (StageCtx<'a>, OpenSpan, String, String) {
        // Unique DFS namespace per run so one platform can host many
        // pipeline executions — a monotone per-platform counter, never
        // wall-clock derived, so paths and span names are stable across
        // reruns of the same seed.
        let run = self
            .run_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let ns = opts
            .namespace
            .as_deref()
            .map(|n| n.trim_end_matches('/').to_string())
            .unwrap_or_else(|| "/pipeline".to_string());
        let base = format!("{ns}/run{run}");
        let recorder = self.engine.recorder().clone();
        let pipeline_name = format!("{}-run{run}", ns.trim_start_matches('/').replace('/', "-"));
        let pipeline_span = recorder.start(SpanKind::Pipeline, &pipeline_name, SpanId::NONE);
        let header = aligner.index().sam_header();
        let mut sorted_header = header.clone();
        sorted_header.sort_order = SortOrder::Coordinate;
        let references: Arc<Vec<Vec<u8>>> = Arc::new(
            (0..aligner.index().n_chromosomes())
                .map(|i| aligner.index().chromosome_seq(i).to_vec())
                .collect(),
        );
        let chrom_names: Arc<Vec<String>> = Arc::new(
            (0..aligner.index().n_chromosomes())
                .map(|i| aligner.index().name(i).to_string())
                .collect(),
        );
        let cx = StageCtx {
            opts,
            pairs: Some(pairs),
            counters: Counters::new(),
            recorder,
            pipeline_span: pipeline_span.id,
            stage_span: pipeline_span.id,
            base,
            header,
            sorted_header,
            references,
            chrom_names,
            rounds: Vec::new(),
        };
        (cx, pipeline_span, pipeline_name, ns)
    }

    /// Shared postamble: close the pipeline span with the cumulative
    /// counter snapshot and assemble the output.
    fn finish_run(
        &self,
        cx: StageCtx<'_>,
        pipeline_span: OpenSpan,
        pipeline_name: &str,
        records: Vec<SamRecord>,
        variants: Vec<VariantRecord>,
        stages: Vec<StageReport>,
    ) -> PipelineOutput {
        cx.recorder.end_with(
            pipeline_span,
            pipeline_name,
            vec![("n_rounds".to_string(), cx.rounds.len().to_string())],
            cx.counters.counter_snapshot(),
        );
        cx.recorder.flush();
        PipelineOutput {
            records,
            variants,
            rounds: cx.rounds,
            stages,
        }
    }
}

/// Stable sort by site, on borrowed keys.
pub(crate) fn sort_by_site(variants: &mut [VariantRecord]) {
    fn site(v: &VariantRecord) -> (&str, i64, &str, &str) {
        (&v.chrom, v.pos, &v.ref_allele, &v.alt_allele)
    }
    variants.sort_by(|a, b| site(a).cmp(&site(b)));
}

// ---------------------------------------------------------------------
// Serial baseline and hybrid pipelines
// ---------------------------------------------------------------------

/// The GATK-best-practices single-node baseline: serial versions of every
/// step, whole dataset at once.
pub fn serial_pipeline(
    aligner: &Aligner,
    references: &[Vec<u8>],
    chrom_names: &[String],
    pairs: &[ReadPair],
    seed: u64,
) -> (Vec<SamRecord>, Vec<VariantRecord>) {
    // Step 1: alignment over the whole input as one serial stream.
    let aligned = aligner.align_pairs(pairs);
    let records: Vec<SamRecord> = aligned.into_iter().flat_map(|(a, b)| [a, b]).collect();
    serial_tail_from_aligned(aligner, references, chrom_names, records, seed)
}

/// Serial steps 3..end applied to already-aligned records — the hybrid
/// pipeline for measuring D-impact of parallel alignment (P̄₁).
pub fn serial_tail_from_aligned(
    aligner: &Aligner,
    references: &[Vec<u8>],
    chrom_names: &[String],
    mut records: Vec<SamRecord>,
    seed: u64,
) -> (Vec<SamRecord>, Vec<VariantRecord>) {
    let mut header = aligner.index().sam_header();
    gesall_tools::add_read_groups::add_or_replace_read_groups(
        &mut header,
        &mut records,
        &read_group(),
    );
    gesall_tools::clean_sam::clean_sam(&mut records, RefView::new(references));
    gesall_tools::fix_mate::fix_mate_information(&mut records);
    gesall_tools::mark_duplicates::mark_duplicates(&mut records, seed);
    serial_tail_from_markdup(references, chrom_names, records)
}

/// Serial sort + HaplotypeCaller applied to duplicate-marked records —
/// the hybrid pipeline for measuring D-impact of parallel MarkDuplicates
/// (P̄₂).
pub fn serial_tail_from_markdup(
    references: &[Vec<u8>],
    chrom_names: &[String],
    mut records: Vec<SamRecord>,
) -> (Vec<SamRecord>, Vec<VariantRecord>) {
    let mut header = SamHeader::default();
    gesall_tools::sort_sam::sort_sam(&mut header, &mut records);
    let rv = RefView::new(references);
    let hc = HaplotypeCallerConfig::default();
    let mut variants = Vec::new();
    for (ref_id, name) in chrom_names.iter().enumerate() {
        let result = call_chromosome(&records, ref_id as i32, name, rv, &hc);
        variants.extend(result.variants);
    }
    sort_by_site(&mut variants);
    (records, variants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::BamParts;
    use gesall_formats::bam;
    use gesall_telemetry::Recorder;

    #[test]
    fn config_structs_state_every_field() {
        // Exhaustive destructuring (no `..`): adding a field to either
        // config breaks this test, so every new knob gets argued for
        // where the field counts are asserted.
        let JobConfig {
            name: _,
            n_reducers: _,
            io_sort_bytes: _,
            merge_factor: _,
            parent_span: _,
            slot_lease: _,
            shuffle_namespace: _,
        } = JobConfig::default();
        let PlatformConfig {
            n_round1_partitions: _,
            n_reducers: _,
            markdup_opt: _,
            recalibrate: _,
            caller: _,
            hc_partitioning: _,
            io_sort_bytes: _,
            merge_factor: _,
            seed: _,
        } = PlatformConfig::default();
    }

    /// Partitions `f` encodes or decodes on this thread — the driver's:
    /// tasks run on the engine's workers.
    fn parts_coded_here<R>(f: impl FnOnce() -> R) -> (R, usize) {
        use crate::rounds::PARTS_CODED_HERE;
        let before = PARTS_CODED_HERE.with(|n| n.get());
        let out = f();
        (out, PARTS_CODED_HERE.with(|n| n.get()) - before)
    }

    /// 600 simulated pairs on the two-chromosome tiny genome.
    fn world() -> (Aligner, Vec<ReadPair>) {
        use gesall_aligner::{AlignerConfig, ReferenceIndex};
        use gesall_datagen::donor::DonorConfig;
        use gesall_datagen::reads::ReadSimConfig;
        use gesall_datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};

        let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
        let donor = DonorGenome::generate(&genome, &DonorConfig::default());
        let sim_cfg = ReadSimConfig {
            n_pairs: 600,
            duplicate_rate: 0.05,
            ..ReadSimConfig::default()
        };
        let (pairs, _) = ReadSimulator::new(&genome, &donor, sim_cfg).simulate();
        let chroms: Vec<(String, Vec<u8>)> = genome
            .chromosomes
            .iter()
            .map(|c| (c.name.clone(), c.seq.clone()))
            .collect();
        (
            Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default()),
            pairs,
        )
    }

    fn recalibrating_platform() -> GesallPlatform {
        platform_on(64 * 1024, MapReduceEngine::new(cluster()))
    }

    fn cluster() -> gesall_mapreduce::ClusterResources {
        gesall_mapreduce::ClusterResources::uniform(4, 2, 8192)
    }

    fn platform_on(block_size: usize, engine: MapReduceEngine) -> GesallPlatform {
        GesallPlatform::new(
            Dfs::new(gesall_dfs::DfsConfig {
                n_nodes: 4,
                block_size,
                replication: 1,
                ..Default::default()
            }),
            engine,
            PlatformConfig {
                recalibrate: true,
                ..PlatformConfig::default()
            },
        )
    }

    /// The recalibrating DAG's partition stages with their partition
    /// counts.
    fn partition_stages(p: &GesallPlatform, n_chroms: usize) -> [(&'static str, usize); 5] {
        let (n_r1, n_red) = (p.config.n_round1_partitions, p.config.n_reducers);
        [
            ("round1-align", n_r1),
            ("round2-clean-fixmate", n_r1),
            ("round3-markdup", n_red),
            ("round4-sort", n_chroms + 1),
            ("round4b-print-reads", n_chroms + 1),
        ]
    }

    fn counter_of(round: &RoundSummary, key: &str) -> u64 {
        round.counters.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
    }

    fn round_counter(out: &PipelineOutput, key: &str) -> u64 {
        out.rounds.iter().map(|r| counter_of(r, key)).sum()
    }

    #[test]
    fn dag_executor_matches_sequential_reference() {
        let (aligner, pairs) = world();
        let seq = recalibrating_platform()
            .run_pipeline_sequential(&aligner, pairs.clone(), &RunOptions::default())
            .unwrap();
        assert!(seq.stages.is_empty(), "the reference does not report stages");

        let dag = recalibrating_platform().run_pipeline(&aligner, pairs).unwrap();
        assert_eq!(dag.stages.len(), 8, "recalibrating DAG has eight stages");
        assert_eq!(dag.records, seq.records);
        assert_eq!(dag.variants, seq.variants);
        assert_eq!(
            dag.rounds.iter().map(|r| r.name.clone()).collect::<Vec<_>>(),
            seq.rounds.iter().map(|r| r.name.clone()).collect::<Vec<_>>(),
            "both drivers execute the same rounds in the same order"
        );
        // The stage report renders with critical-path attribution.
        assert!(dag.dag_report().contains("round4a-recal-table"));
        // Each row shuffles exactly where its declared §3.2 contract says:
        // a row that does not has no reduce task and moves no record.
        for row in pipeline_stages(&recalibrating_platform().config, &aligner) {
            let round = dag.rounds.iter().find(|r| r.name == row.spec.name).unwrap();
            let shuffled = counter_of(round, gesall_mapreduce::counters::keys::SHUFFLE_RECORDS);
            assert_eq!(round.n_reduce_tasks > 0, row.body.contract().1, "{}", round.name);
            assert_eq!(shuffled > 0, row.body.contract().1, "{}", round.name);
        }
    }

    #[test]
    fn only_the_rounds_that_hold_owned_records_convert_them() {
        use gesall_mapreduce::counters::keys::{WIRE_RECORDS_DECODED, WIRE_RECORDS_ENCODED};
        let (aligner, pairs) = world();
        let out = recalibrating_platform().run_pipeline(&aligner, pairs).unwrap();
        let wire = |stage: &str| {
            let round = out.rounds.iter().find(|r| r.name == stage).expect(stage);
            (counter_of(round, WIRE_RECORDS_DECODED), counter_of(round, WIRE_RECORDS_ENCODED))
        };
        // Views: rounds 2½, 3, 4 and 4½b neither decode nor encode a record.
        for stage in ["round2b-bloom", "round3-markdup", "round4-sort", "round4b-print-reads"] {
            assert_eq!(wire(stage), (0, 0), "{stage}");
        }
        // Round 2 hands its records to the tools as owned records, so it
        // converts every one both ways.
        let n = out.records.len() as u64;
        assert_eq!(wire("round2-clean-fixmate"), (n, n));
    }

    #[test]
    fn the_part_writer_writes_the_bytes_write_bam_writes() {
        use gesall_formats::sam::SamView;
        use gesall_mapreduce::task::{OutputFormat, RecordWriter};
        let (aligner, pairs) = world();
        let header = aligner.index().sam_header();
        let records: Vec<SamRecord> = aligner
            .align_pairs(&pairs)
            .into_iter()
            .flat_map(|(a, b)| [a, b])
            .collect();
        let views = bam::read_bam_views(&bam::write_bam(&header, &records), |_| {}).unwrap().1;
        let format = BamParts { header: &header };
        // Several chunks, one chunk, and the empty partition.
        for (n, several_chunks) in [(records.len(), true), (7, false), (0, false)] {
            let bag = Counters::new();
            let mut w = OutputFormat::<u64, SamView>::writer(&format, &bag);
            for v in &views[..n] {
                w.write(0u64, v.clone());
            }
            let part = RecordWriter::<u64, SamView>::finish(w);
            assert!(part == bam::write_bam(&header, &records[..n]));
            let mut walker = bam::FrameWalker::default();
            walker.push(part.clone());
            assert_eq!(walker.finish().unwrap().len() > 2, several_chunks);
            assert_eq!(bag.get(dag::keys::PARTS_ENCODED), 1);
        }
    }

    #[test]
    fn each_stage_output_is_encoded_once_placed_once_and_never_read_back() {
        use gesall_dfs::metrics_keys::BLOCKS_READ;
        let (aligner, pairs) = world();
        let recorder = Recorder::new();
        let p = platform_on(64 * 1024, MapReduceEngine::new(cluster()).with_recorder(recorder.clone()));
        let n_chroms = aligner.index().n_chromosomes();
        let (n_r1, n_red) = (p.config.n_round1_partitions, p.config.n_reducers);
        // Partitions the final-decode jobs' committed attempts decoded.
        let decoded_by_tasks = || -> u64 {
            recorder
                .spans_of_kind(SpanKind::Job)
                .iter()
                .filter(|s| s.name == "final-decode")
                .flat_map(|s| &s.metrics)
                .filter(|(k, _)| k == dag::keys::PARTS_DECODED)
                .map(|(_, v)| *v)
                .sum()
        };

        // Cold: one encode per partition of rounds 2, 3, 4 and 4b (round
        // 1's mappers emit bytes; 4b's unmapped partition is round 4's),
        // one decode per partition of the final stage — all of it by
        // committed task attempts, none on the driver thread.
        let (cold, coded_here) =
            parts_coded_here(|| p.run_pipeline(&aligner, pairs.clone()).unwrap());
        assert_eq!(cold.stages_run(), 8);
        assert_eq!(coded_here, 0, "the driver encodes and decodes no partition");
        assert_eq!(
            round_counter(&cold, dag::keys::PARTS_ENCODED) as usize,
            n_r1 + n_red + (n_chroms + 1) + n_chroms
        );
        assert_eq!(decoded_by_tasks() as usize, n_chroms + 1);
        assert_eq!(cold.rounds.len(), 8, "the decode wave is not a round");

        // The run's directory went with it; its stages' partitions are
        // what the store holds: rounds 4 and 4b carry the
        // coordinate-sorted header, and 4b's unmapped partition is round
        // 4's very bytes.
        assert!(p.dfs.list("/pipeline/run0/").is_empty());
        let parts = |stage: &str| cold.stored_parts(&p.dfs, "/pipeline", stage);
        let read = |stage: &str, i: usize| bam::read_bam(&parts(stage)[i]).unwrap();
        let mut final_records = Vec::new();
        for i in 0..=n_chroms {
            assert_eq!(read("round4-sort", i).0.sort_order, SortOrder::Coordinate);
            let (h, recs) = read("round4b-print-reads", i);
            assert_eq!(h.sort_order, SortOrder::Coordinate);
            final_records.extend(recs);
        }
        assert_eq!(final_records, cold.records);
        assert_ne!(read("round3-markdup", 0).0.sort_order, SortOrder::Coordinate);
        assert!(parts("round4-sort")[n_chroms] == parts("round4b-print-reads")[n_chroms]);

        // Warm: every stage hits; nothing is encoded, and only the
        // final stage's partitions are ever decoded.
        let (warm, coded_here) =
            parts_coded_here(|| p.run_pipeline(&aligner, pairs.clone()).unwrap());
        assert_eq!(warm.cache_hits(), 8);
        assert_eq!(coded_here, 0);
        assert_eq!(round_counter(&warm, dag::keys::PARTS_ENCODED), 0);
        assert_eq!(decoded_by_tasks() as usize, 2 * (n_chroms + 1));
        assert_eq!(warm.records, cold.records);

        // Each partition stage's entry is a directory holding its
        // partition count of part files, although rounds 2 and 4 each
        // feed two consumers; the run's own directory holds only round
        // 1's FASTQ — on a cold run stopped short of its end, when the
        // directory goes — and §3.1's reader reassembles what the store
        // holds.
        let q = platform_on(64 * 1024, MapReduceEngine::new(cluster()));
        let (out, _) = run_keeping_splits(&q, &aligner, &pairs, n_chroms);
        let in_dir = |dir: &str| q.dfs.list(&format!("{dir}/")).len();
        assert_eq!(in_dir("/pipeline/run0"), n_r1);
        assert_eq!(in_dir("/pipeline/run0/fastq"), n_r1);
        for (stage, n) in partition_stages(&q, n_chroms) {
            let key = out.stages.iter().find(|s| s.name == stage).unwrap().key;
            assert_eq!(in_dir(&Dfs::cas_path("/pipeline", key)), n, "{stage}");
        }
        let key = out.stages.iter().find(|s| s.name == "round4b-print-reads").unwrap().key;
        let stored = format!("{}/part-00000", Dfs::cas_path("/pipeline", key));
        let read_back = crate::storage::read_bam_from_dfs(&q.dfs, &stored);
        assert_eq!(read_back.unwrap().1, read("round4b-print-reads", 0).1);

        // Placing reads nothing back: the split is the bytes it was
        // handed, not a copy fetched from the blocks.
        let part = SharedBytes::from_vec(bam::write_bam(&aligner.index().sam_header(), &cold.records));
        let blocks_read = p.dfs.metrics().counter(BLOCKS_READ).get();
        let split = p.place("/probe/part-00000", "probe".into(), part.clone()).unwrap();
        assert_eq!(p.dfs.metrics().counter(BLOCKS_READ).get(), blocks_read);
        assert!(split.records[0].1.same_backing(&part));
    }

    /// One run of the DAG on `p`, handing back the input splits of
    /// every partition stage — what the next stage's mappers read. It
    /// stops short of the run-end sweep, so the run's directory stays.
    fn run_keeping_splits(
        p: &GesallPlatform,
        aligner: &Aligner,
        pairs: &[ReadPair],
        n_chroms: usize,
    ) -> (PipelineOutput, std::collections::HashMap<String, Vec<Split>>) {
        let opts = RunOptions::default();
        let (mut cx, span, name, ns) = p.begin_run(aligner, pairs.to_vec(), &opts);
        let rows = pipeline_stages(&p.config, aligner);
        let (resolved, stages) = p
            .resolve_stages(&mut cx, &rows, &ns, &DagRunOptions::default())
            .unwrap();
        let splits = partition_stages(p, n_chroms)
            .iter()
            .map(|(stage, n)| {
                let row = rows.iter().position(|r| r.spec.name == *stage).unwrap();
                let Resolved::Splits(splits) = &resolved[row] else {
                    panic!("{stage} is a partition stage");
                };
                assert_eq!(splits.len(), *n, "{stage}");
                (stage.to_string(), splits.clone())
            })
            .collect();
        let (records, variants) = p.collect(&cx, &rows, resolved).unwrap();
        (p.finish_run(cx, span, &name, records, variants, stages), splits)
    }

    #[test]
    fn a_stage_output_is_one_buffer_shared_by_store_blocks_and_splits() {
        let (aligner, pairs) = world();
        let n_chroms = aligner.index().n_chromosomes();
        // Whether a part file fits one block or spans several, reading
        // it back is one window of the stored backing, so the chain —
        // blocks, stored part, split — is held to one backing, cold and
        // warm, and the split prefers the node that holds its part.
        for block_size in [64 << 20, 64 << 10] {
            let p = platform_on(block_size, MapReduceEngine::new(cluster()));
            for (run, warm) in [("cold", false), ("warm", true)] {
                let (out, splits) = run_keeping_splits(&p, &aligner, &pairs, n_chroms);
                assert_eq!(out.cache_hits(), if warm { 8 } else { 0 });
                for (stage, splits) in &splits {
                    let stored = out.stored_parts(&p.dfs, "/pipeline", stage);
                    for (i, split) in splits.iter().enumerate() {
                        let what = format!("{block_size}-byte blocks, {run}, {stage} part {i}");
                        let (path, payload) = &split.records[0];
                        let info = p.dfs.stat(path).unwrap();
                        let block = p.dfs.read_block(&info.blocks[0]).unwrap();
                        assert!(block.same_backing(payload), "block ≠ split: {what}");
                        assert!(stored[i].same_backing(payload), "stored ≠ split: {what}");
                        assert_eq!(split.preferred_node, info.single_home(), "{what}");
                    }
                }
            }
            let copied = p.dfs.metrics().counter(gesall_dfs::metrics_keys::BYTES_COPIED).get();
            assert_eq!(copied, 0, "{block_size}-byte blocks: the DFS copied");
        }
    }

    #[test]
    fn a_hit_stage_feeds_its_consumers_where_its_parts_lie() {
        let (aligner, pairs) = world();
        let recorder = Recorder::new();
        let p = platform_on(64 * 1024, MapReduceEngine::new(cluster()).with_recorder(recorder.clone()));
        // Map attempts of the runs so far, each with its `data_local`.
        let local = || -> Vec<bool> {
            let attempts = recorder.spans_of_kind(SpanKind::TaskAttempt);
            let maps = attempts.iter().filter(|s| s.name.starts_with("map-"));
            maps.map(|s| s.meta.iter().any(|(k, v)| k == "data_local" && v == "true")).collect()
        };
        p.run_pipeline(&aligner, pairs.clone()).unwrap();
        let cold = local();
        assert!(cold.iter().all(|&l| l), "a cold run's map tasks read where their input lies");
        // Round 1 hits; round 2 onward reads its parts where the store
        // placed them.
        let salted = DagRunOptions {
            invalidate: vec![("round2-clean-fixmate".to_string(), 1)],
            ..DagRunOptions::default()
        };
        let out = p.run_pipeline_dag(&aligner, pairs, &RunOptions::default(), &salted).unwrap();
        assert_eq!((out.cache_hits(), out.stages_run()), (1, 7));
        let rerun = &local()[cold.len()..];
        assert!(!rerun.is_empty() && rerun.iter().all(|&l| l), "{rerun:?}");
    }

    #[test]
    fn a_store_entry_lost_with_its_node_is_a_miss_and_its_stage_reruns() {
        let (aligner, pairs) = world();
        let n_chroms = aligner.index().n_chromosomes();
        // A node declared dead, and one wiped silently, whose blocks the
        // metadata still lists.
        let fail: fn(&Dfs) = |dfs| drop(dfs.fail_node(0));
        let wipe: fn(&Dfs) = |dfs| dfs.kill_node(0);
        for (how, lose_node_0) in [("failed", fail), ("wiped", wipe)] {
            let p = platform_on(64 * 1024, MapReduceEngine::new(cluster()));
            let cold = p.run_pipeline(&aligner, pairs.clone()).unwrap();
            // Entries are unreplicated: the node takes every entry with a
            // block of its manifest or of a part file on it.
            lose_node_0(&p.dfs);
            let entries = cold.stages.iter().map(|s| p.dfs.list(&Dfs::cas_path("/pipeline", s.key)));
            let lost_files: Vec<String> = entries.flatten().filter(|f| !p.dfs.file_available(f)).collect();
            let lost = (cold.stages.iter())
                .filter(|s| lost_files.iter().any(|f| f.starts_with(&Dfs::cas_path("/pipeline", s.key))))
                .count();
            assert!(lost > 0, "{how}: node 0 held a block of some entry");
            let (warm, splits) = run_keeping_splits(&p, &aligner, &pairs, n_chroms);
            assert_eq!(warm.stages_run(), lost, "{how}");
            assert_eq!(warm.records, cold.records, "{how}");
            assert_eq!(warm.variants, cold.variants, "{how}");
            // The re-run's put replaces each lost part file (a wiped node
            // still takes writes; a failed one does not): the split reads
            // it on the node that now holds it.
            let lost_parts: Vec<&Split> =
                splits.values().flatten().filter(|s| lost_files.contains(&s.records[0].0)).collect();
            assert!(!lost_parts.is_empty(), "{how}: node 0 held a part file");
            for split in lost_parts {
                let info = p.dfs.stat(&split.records[0].0).unwrap();
                assert!(p.dfs.file_available(&info.path), "{how}");
                assert!(split.preferred_node.is_some() && split.preferred_node == info.single_home(), "{how}");
            }
        }
    }

    #[test]
    fn a_store_entry_of_partitions_the_earlier_lz_parse_wrote_is_still_a_hit() {
        use gesall_dfs::checksum::xxh64;
        use gesall_formats::wire::Wire;
        // 500 coordinate-sorted records in three record chunks, as the
        // codec's min-4 greedy parse wrote them, before the 8-byte one.
        let file = include_bytes!("../testdata/min4_parse_500_records.bam");
        assert_eq!(xxh64(file), 0x870c_eab4_56f2_53d8);
        let dfs = Dfs::new(gesall_dfs::DfsConfig::default());
        let part = SharedBytes::copy_from_slice(file);
        stage_data::put(&dfs, "/t", 1, StageData::Parts(vec![part.clone(), part])).unwrap();
        let Some(Stored::Parts(parts)) = stage_data::get(&dfs, "/t", 1) else {
            panic!("the entry is a miss");
        };
        assert_eq!(parts.len(), 2);
        for part in &parts {
            let (header, recs) = bam::read_bam(&part.bytes).unwrap();
            let mut wire = Vec::new();
            for r in &recs {
                r.encode(&mut wire);
            }
            assert_eq!((recs.len(), xxh64(&wire)), (500, 0xfc63_50ed_1709_38ee));
            assert!(bam::write_bam(&header, &recs) != file[..], "the parse should have moved");
        }
    }

    #[test]
    fn faulted_reduce_attempts_commit_one_writers_bytes_per_partition() {
        use gesall_mapreduce::counters::keys;
        use gesall_mapreduce::{FaultPlan, TaskKind};
        let (aligner, pairs) = world();
        let n_chroms = aligner.index().n_chromosomes();
        // Reducer 1 of every shuffling round dies mid-partition on its
        // first attempt, reducer 0's first attempt is charged past the
        // straggler threshold, so one speculative backup wins per round.
        let plan = FaultPlan::seeded(7)
            .cut_reduce_output(1, 0, 5)
            .slow_down(TaskKind::Reduce, 0, 0, 2_000);
        let clean = platform_on(64 * 1024, MapReduceEngine::new(cluster()));
        let faulted = platform_on(64 * 1024, MapReduceEngine::new(cluster()).with_fault_plan(plan));
        let want = clean.run_pipeline(&aligner, pairs.clone()).unwrap();
        let got = faulted.run_pipeline(&aligner, pairs).unwrap();
        assert_eq!(got.records, want.records);
        assert_eq!(got.variants, want.variants);
        for (stage, n) in partition_stages(&clean, n_chroms) {
            let got_parts = got.stored_parts(&faulted.dfs, "/pipeline", stage);
            let want_parts = want.stored_parts(&clean.dfs, "/pipeline", stage);
            assert_eq!(got_parts.len(), n, "{stage}");
            for (i, (g, w)) in got_parts.iter().zip(&want_parts).enumerate() {
                assert!(g == w, "{stage} part {i}");
            }
        }
        for (g, w) in got.rounds.iter().zip(&want.rounds) {
            let c = counter_of;
            assert_eq!(g.name, w.name);
            // A cut attempt's writer and a losing backup's finished
            // partition are dropped: committed encodes are the clean run's.
            assert_eq!(c(g, dag::keys::PARTS_ENCODED), c(w, dag::keys::PARTS_ENCODED), "{}", g.name);
            assert_eq!(c(g, keys::REDUCE_OUTPUT_RECORDS), c(w, keys::REDUCE_OUTPUT_RECORDS), "{}", g.name);
            if g.n_reduce_tasks > 0 {
                assert_eq!(c(g, keys::FAILED_ATTEMPTS), 1, "{}", g.name);
                assert_eq!(c(g, keys::SPECULATIVE_WASTED), 1, "{}", g.name);
            }
        }
    }
}
