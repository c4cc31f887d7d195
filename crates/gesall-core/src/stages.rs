//! The pipeline, declared once: one row per stage.
//!
//! [`pipeline_stages`] is the only place that says which stages a
//! configuration runs, what each is called, which stages feed it and
//! what its body reads. A row's [`Body`] holds every setting the body
//! reads besides its parents' outputs and the run's root inputs, which
//! [`root_key`] hashes; the body gets its settings from that value alone,
//! and the value's `Debug` text is the row's content-key fingerprint. So
//! a setting a body reads is in its key, and one it does not read is
//! not. Everything else is a reading of the table:
//! [`crate::dag::pipeline_dag`] projects it onto [`StageSpec`]s (graph,
//! content keys, reports), the executor in [`crate::pipeline`] walks it
//! top to bottom, resolves each row's declared parents and hands them to
//! the row's body **by position** ([`Inputs`]), and the final records and
//! calls are the last row's first parent and output. A body therefore
//! names no stage — not its parents, not itself.

use crate::dag::{DagSpec, StageSpec};
use crate::error::{PlatformError, Result};
use crate::gdpt::{chromosome_partition, BloomFilter, MarkDupKey, OverlappingRanges, RangeKey};
use crate::pipeline::{
    read_group, sort_by_site, CallerChoice, GesallPlatform, HcPartitioning, PlatformConfig,
    RoundSummary, RunOptions, StageData,
};
use crate::rounds::{
    fine_segment_label, BamParts, BloomBuildMapper, CallRange, PrintReadsMapper, RecalTableMapper,
    Round1Align, Round2CleanMapper, Round3MarkDupMapper, Round3MarkDupReducer, Round4SortMapper,
    Round4SortReducer, Round5Caller, SpanSource,
};
use gesall_aligner::Aligner;
use gesall_dfs::checksum::xxh64;
use gesall_formats::bam::{self, BamWriter};
use gesall_formats::fastq::{pairs_to_interleaved_bytes, split_pairs_into_partitions, ReadPair};
use gesall_formats::sam::header::ReadGroup;
use gesall_formats::sam::SamHeader;
use gesall_formats::vcf::VariantRecord;
use gesall_formats::wire;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::Counters;
use gesall_mapreduce::runtime::{AttemptOutcome, InputSplit, JobOutput, TaskKind};
use gesall_mapreduce::task::{FnPartitioner, HashPartitioner};
use gesall_telemetry::{Recorder, SpanId};
use gesall_tools::haplotype_caller::{call_range, HaplotypeCallerConfig};
use gesall_tools::recalibration::{RecalConfig, RecalTable};
use gesall_tools::unified_genotyper::{call_region, GenotyperConfig};
use std::sync::Arc;

/// A logical partition as a map task's input, preferring its home node.
pub(crate) type Split = InputSplit<String, SharedBytes>;

/// What a row's body reads besides its parents' outputs and the run's
/// root inputs — and, through its `Debug` text, what the row's content
/// key fingerprints.
#[derive(Debug)]
pub(crate) enum Body<'a> {
    /// Round 1: `bwa mem | samtobam` over `partitions` FASTQ partitions.
    Align { partitions: usize, aligner: &'a Aligner },
    /// Round 2, map-only: read groups, CleanSam and FixMate over each of
    /// round 1's partitions, which hold both mates of every pair.
    CleanFixMate { read_group: ReadGroup },
    /// Round 2½: the `MarkDup_opt` bloom filter.
    Bloom,
    /// Round 3: MarkDuplicates, behind the bloom filter when the row
    /// names one as its second parent.
    MarkDup { seed: u64, reducers: usize },
    /// Round 4: the coordinate sort, one reducer per chromosome plus the
    /// unmapped partition.
    Sort,
    /// Round 4½a: BaseRecalibrator.
    RecalTable(RecalConfig),
    /// Round 4½b: PrintReads.
    PrintReads(RecalConfig),
    /// Round 5: UnifiedGenotyper per chromosome.
    Genotype(GenotyperConfig),
    /// Round 5: HaplotypeCaller under `partitioning`.
    Haplotypes { config: HaplotypeCallerConfig, partitioning: HcPartitioning },
}

/// One row of the table.
pub(crate) struct Stage<'a> {
    pub spec: StageSpec,
    pub body: Body<'a>,
}

/// The stage table for `config` and `aligner`, in execution order. `row`
/// hands back the name it pushed, so a row can only name parents declared
/// above it.
pub(crate) fn pipeline_stages<'a>(config: &PlatformConfig, aligner: &'a Aligner) -> Vec<Stage<'a>> {
    fn row<'a>(
        rows: &mut Vec<Stage<'a>>,
        name: &'static str,
        parents: &[&'static str],
        body: Body<'a>,
    ) -> &'static str {
        let spec = StageSpec {
            config_fp: xxh64(format!("{body:?}").as_bytes()),
            ..StageSpec::new(name, parents)
        };
        rows.push(Stage { spec, body });
        name
    }
    let mut rows = Vec::new();
    let partitions = config.n_round1_partitions;
    let align = row(&mut rows, "round1-align", &[], Body::Align { partitions, aligner });
    let read_group = read_group();
    let clean = row(&mut rows, "round2-clean-fixmate", &[align], Body::CleanFixMate { read_group });
    let mut markdup_parents = vec![clean];
    if config.markdup_opt {
        markdup_parents.push(row(&mut rows, "round2b-bloom", &[clean], Body::Bloom));
    }
    let (seed, reducers) = (config.seed, config.n_reducers);
    let markdup = row(&mut rows, "round3-markdup", &markdup_parents, Body::MarkDup { seed, reducers });
    let sort = row(&mut rows, "round4-sort", &[markdup], Body::Sort);
    let tail = if config.recalibrate {
        let table = row(&mut rows, "round4a-recal-table", &[sort], Body::RecalTable(RecalConfig::default()));
        row(&mut rows, "round4b-print-reads", &[sort, table], Body::PrintReads(RecalConfig::default()))
    } else {
        sort
    };
    let (call, body) = match (config.caller, config.hc_partitioning) {
        (CallerChoice::UnifiedGenotyper, _) => {
            ("round5-unifiedgenotyper", Body::Genotype(GenotyperConfig::default()))
        }
        (CallerChoice::HaplotypeCaller, partitioning) => {
            let name = match partitioning {
                HcPartitioning::Chromosome => "round5-haplotypecaller",
                HcPartitioning::FineGrained { .. } => "round5-hc-finegrained",
            };
            let config = HaplotypeCallerConfig::default();
            (name, Body::Haplotypes { config, partitioning })
        }
    };
    row(&mut rows, call, &[tail], body);
    rows
}

/// The root content key: the run's inputs every stage chain hangs off —
/// the read pairs, the reference sequences, their names. The headers a
/// body reads are built from these.
pub(crate) fn root_key(cx: &StageCtx<'_>) -> u64 {
    let mut buf = Vec::new();
    let pairs = cx.pairs.as_deref().unwrap_or_default();
    wire::put_u64(&mut buf, xxh64(&pairs_to_interleaved_bytes(pairs)));
    for r in cx.references.iter() {
        wire::put_u64(&mut buf, xxh64(r));
    }
    for n in cx.chrom_names.iter() {
        wire::put_str(&mut buf, n);
    }
    xxh64(&buf)
}

/// The table's projection onto specs: the graph that content keys,
/// reports and validation read.
pub(crate) fn graph(rows: &[Stage<'_>]) -> DagSpec {
    DagSpec {
        stages: rows.iter().map(|row| row.spec.clone()).collect(),
    }
}

/// A resolved stage's output as the rows below it see it.
pub(crate) enum Resolved {
    /// A partition stage: a split per part file of its entry. Sibling
    /// consumers (round2b + round3, round4a + round4b) clone the same
    /// splits — the payloads are refcounted, so the clone is pointer-sized.
    Splits(Vec<Split>),
    /// A side stage's value: bloom filter, recalibration table, calls.
    Side(StageData),
}

/// What the executor hands a body: the row it is running — which names
/// the job and the summary — and the outputs of the row's
/// declared parents, in declared order.
pub(crate) struct Inputs<'a> {
    pub stage: &'a str,
    pub parents: Vec<&'a Resolved>,
}

impl<'a> Inputs<'a> {
    /// `row`'s inputs out of `resolved`, the outputs of the rows above it
    /// in table order.
    pub(crate) fn of(rows: &'a [Stage<'_>], resolved: &'a [Resolved], row: &'a Stage<'_>) -> Result<Inputs<'a>> {
        let parents = row.spec.parents.iter().map(|parent| {
            let above = rows.iter().position(|r| r.spec.name == *parent);
            above.and_then(|i| resolved.get(i)).ok_or_else(|| {
                PlatformError::Invariant(format!(
                    "stage {} names parent {parent}, which no row above it resolved",
                    row.spec.name
                ))
            })
        });
        Ok(Inputs {
            stage: &row.spec.name,
            parents: parents.collect::<Result<_>>()?,
        })
    }

    fn mismatch(&self, i: usize, want: &str) -> PlatformError {
        PlatformError::Invariant(format!("stage {}: parent {i} is not {want}", self.stage))
    }

    /// Parent `i`'s partitions, as splits.
    pub(crate) fn splits(&self, i: usize) -> Result<Vec<Split>> {
        match self.parents.get(i) {
            Some(Resolved::Splits(splits)) => Ok(splits.clone()),
            _ => Err(self.mismatch(i, "partitions")),
        }
    }

    fn bloom(&self, i: usize) -> Result<Arc<BloomFilter>> {
        match self.parents.get(i) {
            Some(Resolved::Side(StageData::Bloom(b))) => Ok(Arc::new(b.clone())),
            _ => Err(self.mismatch(i, "a bloom filter")),
        }
    }

    fn recal_table(&self, i: usize) -> Result<Arc<RecalTable>> {
        match self.parents.get(i) {
            Some(Resolved::Side(StageData::Recal(t))) => Ok(Arc::new(t.clone())),
            _ => Err(self.mismatch(i, "a recalibration table")),
        }
    }
}

/// Everything a stage body needs besides its row's [`Body`] and its
/// inputs: plumbing (the run's options and namespace, span parentage,
/// cumulative counters, the growing round-summary list) and the run's
/// root inputs — the reads, the references, their names and the headers
/// built from them.
pub(crate) struct StageCtx<'a> {
    pub opts: &'a RunOptions,
    /// The read pairs, until round 1 takes them.
    pub pairs: Option<Vec<ReadPair>>,
    pub counters: Counters,
    pub recorder: Recorder,
    pub pipeline_span: SpanId,
    /// The span the running row's job nests under: the row's Stage span
    /// in the executor, the pipeline span in the sequential reference.
    pub stage_span: SpanId,
    pub base: String,
    pub header: SamHeader,
    pub sorted_header: SamHeader,
    pub references: Arc<Vec<Vec<u8>>>,
    pub chrom_names: Arc<Vec<String>>,
    pub rounds: Vec<RoundSummary>,
}

impl StageCtx<'_> {
    /// The round epilogue: fold the pipeline-cumulative counters into
    /// the job's, append the summary (the executor closes the stage span
    /// over its task counts and counter snapshot, so the trace alone
    /// reconstructs the table), and hand back the job's outputs.
    fn close_round<O>(&mut self, name: &str, job: JobOutput<O>) -> Vec<O> {
        job.counters.merge(&self.counters);
        // Count committed tasks, not attempts: retries and speculative
        // losers also leave events, but only one attempt per task ever
        // succeeds.
        let committed = |kind: TaskKind| {
            let done = AttemptOutcome::Succeeded;
            job.events.iter().filter(|e| e.kind == kind && e.outcome == done).count()
        };
        let s = RoundSummary {
            name: name.into(),
            wall_ms: job.wall_ms,
            n_map_tasks: committed(TaskKind::Map),
            n_reduce_tasks: committed(TaskKind::Reduce),
            counters: job.counters.counter_snapshot(),
        };
        self.rounds.push(s);
        job.outputs
    }
}

/// The partitions of a map-only round whose mappers each encode their
/// own: one `(label, bytes)` pair per task.
fn mapper_parts(outputs: Vec<Vec<(String, Vec<u8>)>>) -> Result<Vec<SharedBytes>> {
    outputs
        .into_iter()
        .map(|out| match out.into_iter().next() {
            Some((_, bam_bytes)) => Ok(SharedBytes::from_vec(bam_bytes)),
            None => Err(PlatformError::Invariant(
                "a mapper of a partition round emitted no partition".into(),
            )),
        })
        .collect()
}

impl Body<'_> {
    /// Run the row's round over its parents' outputs. Its settings come
    /// from `self` alone; `cx` holds plumbing and the run's root inputs.
    pub(crate) fn run(&self, p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
        let stage = inputs.stage;
        match self {
            // Map-only over FASTQ logical partitions. The mappers emit BAM
            // bytes: they are the output partitions, already grouped by
            // name (pairs adjacent).
            Body::Align { partitions, aligner } => {
                let pairs = cx.pairs.take().ok_or_else(|| {
                    PlatformError::Invariant(format!("{stage} executed twice in one run"))
                })?;
                let parts = split_pairs_into_partitions(pairs, (*partitions).max(1));
                let mut splits = Vec::with_capacity(parts.len());
                for (i, part) in parts.iter().enumerate() {
                    let path = format!("{}/fastq/part-{i:05}", cx.base);
                    let bytes = SharedBytes::from_vec(pairs_to_interleaved_bytes(part));
                    splits.push(p.place(&path, path.clone(), bytes)?);
                }
                let r1 = p.engine.run_map_only(
                    p.job_config(cx.opts, stage, 1, cx.stage_span),
                    &Round1Align {
                        aligner,
                        counters: cx.counters.clone(),
                    },
                    splits,
                )?;
                Ok(StageData::Parts(mapper_parts(cx.close_round(stage, r1))?))
            }
            // Map-only over round 1's partitions: each mapper emits its
            // cleaned, mate-fixed partition, pairs still adjacent.
            Body::CleanFixMate { read_group } => {
                let r2 = p.engine.run_map_only(
                    p.job_config(cx.opts, stage, 1, cx.stage_span),
                    &Round2CleanMapper {
                        read_group: read_group.clone(),
                        references: cx.references.clone(),
                        header: cx.header.clone(),
                        counters: cx.counters.clone(),
                    },
                    inputs.splits(0)?,
                )?;
                Ok(StageData::Parts(mapper_parts(cx.close_round(stage, r2))?))
            }
            // The mappers emit the 5′-end keys; the driver unions them.
            Body::Bloom => {
                let rb = p.engine.run_map_only(
                    p.job_config(cx.opts, stage, 1, cx.stage_span),
                    &BloomBuildMapper {
                        counters: cx.counters.clone(),
                    },
                    inputs.splits(0)?,
                )?;
                let outputs = cx.close_round(stage, rb);
                let n_keys: usize = outputs.iter().map(Vec::len).sum();
                let mut bloom = BloomFilter::with_capacity(n_keys.max(64));
                for (_, key) in outputs.iter().flatten() {
                    if let MarkDupKey::Single(end) = key {
                        bloom.insert(end);
                    }
                }
                Ok(StageData::Bloom(bloom))
            }
            // Under the compound 5′-end shuffle.
            Body::MarkDup { seed, reducers } => {
                let (variant, bloom) = if inputs.parents.len() > 1 {
                    ("opt", Some(inputs.bloom(1)?))
                } else {
                    ("reg", None)
                };
                let r3 = p.engine.run_job_to(
                    p.job_config(cx.opts, &format!("{stage}-{variant}"), *reducers, cx.stage_span),
                    &Round3MarkDupMapper {
                        bloom,
                        counters: cx.counters.clone(),
                    },
                    &Round3MarkDupReducer {
                        seed: *seed,
                        counters: cx.counters.clone(),
                    },
                    &HashPartitioner,
                    inputs.splits(0)?,
                    &BamParts { header: &cx.header },
                )?;
                Ok(StageData::Parts(cx.close_round(stage, r3)))
            }
            Body::Sort => {
                let r4 = p.engine.run_job_to(
                    p.job_config(cx.opts, stage, cx.chrom_names.len() + 1, cx.stage_span),
                    &Round4SortMapper {
                        counters: cx.counters.clone(),
                    },
                    &Round4SortReducer,
                    &FnPartitioner::new(|k: &RangeKey, n| chromosome_partition(k, n)),
                    inputs.splits(0)?,
                    &BamParts { header: &cx.sorted_header },
                )?;
                Ok(StageData::Parts(cx.close_round(stage, r4)))
            }
            // Per-partition covariate tables, merged into the whole-dataset
            // table — the tally is distributive.
            Body::RecalTable(config) => {
                let mut splits = inputs.splits(0)?;
                splits.truncate(cx.chrom_names.len());
                let ra = p.engine.run_map_only(
                    p.job_config(cx.opts, stage, 1, cx.stage_span),
                    &RecalTableMapper {
                        references: cx.references.clone(),
                        known_sites: Arc::default(),
                        config: config.clone(),
                        counters: cx.counters.clone(),
                    },
                    splits,
                )?;
                let mut table = RecalTable::default();
                for (_, partial) in cx.close_round(stage, ra).iter().flatten() {
                    table.merge(partial);
                }
                Ok(StageData::Recal(table))
            }
            // The full partition set: recalibrated chromosome parts plus
            // round 4's unmapped partition, handed on as the bytes it
            // already is.
            Body::PrintReads(config) => {
                let mut splits = inputs.splits(0)?;
                let unmapped = splits.split_off(cx.chrom_names.len());
                let rb2 = p.engine.run_map_only(
                    p.job_config(cx.opts, stage, 1, cx.stage_span),
                    &PrintReadsMapper {
                        table: inputs.recal_table(1)?,
                        config: config.clone(),
                        header: cx.sorted_header.clone(),
                        counters: cx.counters.clone(),
                    },
                    splits,
                )?;
                let mut parts = mapper_parts(cx.close_round(stage, rb2))?;
                parts.extend(unmapped.into_iter().flat_map(|s| s.records).map(|(_, bytes)| bytes));
                Ok(StageData::Parts(parts))
            }
            Body::Genotype(config) => {
                let call: &CallRange<'_> =
                    &|recs, id, chrom, start, end, rv| call_region(recs, id, chrom, start, end, rv, config);
                call_variants(p, cx, inputs, call, HcPartitioning::Chromosome)
            }
            Body::Haplotypes { config, partitioning } => {
                let call: &CallRange<'_> = &|recs, id, chrom, start, end, rv| {
                    call_range(recs, id, chrom, start, end, rv, config).variants
                };
                call_variants(p, cx, inputs, call, *partitioning)
            }
        }
    }
}

/// Round 5: variant calling with `call` under `partitioning`. The
/// unmapped partition (index `n_chroms`) is skipped.
fn call_variants(
    p: &GesallPlatform,
    cx: &mut StageCtx<'_>,
    inputs: &Inputs<'_>,
    call: &CallRange<'_>,
    partitioning: HcPartitioning,
) -> Result<StageData> {
    let mut splits = inputs.splits(0)?;
    splits.truncate(cx.chrom_names.len());
    let span = match partitioning {
        HcPartitioning::FineGrained { segment_len, overlap } => {
            splits = cut_segments(p, cx, &splits, segment_len, overlap)?;
            SpanSource::Label
        }
        HcPartitioning::Chromosome => SpanSource::Chromosome,
    };
    let r5 = p.engine.run_map_only(
        p.job_config(cx.opts, inputs.stage, 1, cx.stage_span),
        &Round5Caller {
            references: cx.references.clone(),
            chrom_names: cx.chrom_names.clone(),
            counters: cx.counters.clone(),
            span,
            call,
        },
        splits,
    )?;
    let mut variants: Vec<VariantRecord> = cx
        .close_round(inputs.stage, r5)
        .into_iter()
        .flatten()
        .map(|(_, v)| v)
        .collect();
    sort_by_site(&mut variants);
    Ok(StageData::Variants(variants))
}

/// The §3.2 overlapping range scheme: reads overlapping a padded span
/// are replicated into that segment's partition; calls are emitted from
/// segment cores only. Cutting segments is the one stage input the
/// driver decodes.
fn cut_segments(
    p: &GesallPlatform,
    cx: &StageCtx<'_>,
    chromosomes: &[Split],
    segment_len: i64,
    overlap: i64,
) -> Result<Vec<Split>> {
    let ranges = OverlappingRanges::new(segment_len, overlap);
    let mut segments = Vec::new();
    for (ref_id, (_, part)) in chromosomes.iter().flat_map(|s| &s.records).enumerate() {
        let chrom_len = cx.references[ref_id].len() as i64;
        let (_, records) = bam::read_bam(part)?;
        if records.is_empty() {
            continue;
        }
        for seg in 0..ranges.n_segments(chrom_len) {
            let (span_s, span_e) = ranges.segment_span(seg, chrom_len);
            let core_s = seg as i64 * segment_len + 1;
            let core_e = ((seg as i64 + 1) * segment_len).min(chrom_len);
            let mut w = BamWriter::new(&cx.sorted_header);
            for r in &records {
                if r.is_mapped() && r.pos <= span_e && r.end_pos() >= span_s {
                    w.write_record(r);
                }
            }
            let label = fine_segment_label(ref_id as i32, (core_s, core_e), (span_s, span_e));
            let path = format!("{}/round5fine/{label}", cx.base);
            segments.push(p.place(&path, label, SharedBytes::from_vec(w.finish().0))?);
        }
    }
    Ok(segments)
}

/// The paper's §3.2 partitioning categories: how a row's programs need
/// their input arranged.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Partitioning {
    /// Grouped by read name.
    ByReadName,
    /// The MarkDuplicates compound 5′-end keys.
    ByDuplicateKeys,
    /// Coordinate ranges (per chromosome).
    ByRange,
    /// No requirement (works on any subset).
    Any,
}

#[cfg(test)]
impl Partitioning {
    /// Can a program with requirement `self` run directly on data
    /// arranged as `arrangement`, without a shuffle?
    pub(crate) fn satisfied_by(self, arrangement: Partitioning) -> bool {
        self == Partitioning::Any || self == arrangement
    }
}

#[cfg(test)]
impl Body<'_> {
    /// The row's §3.2 contract: the arrangement its programs need their
    /// input in, and whether its job shuffles to get it.
    pub(crate) fn contract(&self) -> (Partitioning, bool) {
        use Partitioning::*;
        match self {
            // `split_pairs_into_partitions` never splits a pair, and
            // bwa mem reads pairs.
            Body::Align { .. } => (ByReadName, false),
            // FixMate sees both mates of a pair in round 1's partitions.
            Body::CleanFixMate { .. } => (ByReadName, false),
            Body::Bloom => (Any, false),
            Body::MarkDup { .. } => (ByDuplicateKeys, true),
            Body::Sort => (ByRange, true),
            // The covariate tally is distributive: partial tables merge
            // exactly. PrintReads rewrites one record at a time.
            Body::RecalTable(_) | Body::PrintReads(_) => (Any, false),
            Body::Genotype(_) | Body::Haplotypes { .. } => (ByRange, false),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gesall_aligner::{AlignerConfig, ReferenceIndex};
    use std::collections::HashMap;

    /// The default aligner over one small chromosome. A row keys the
    /// aligner's configuration, not its index, so any index does.
    pub(crate) fn aligner() -> Aligner {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let seq: Vec<u8> = (0..2_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b"ACGT"[(x >> 62) as usize]
            })
            .collect();
        Aligner::new(ReferenceIndex::build(&[("chrT".into(), seq)]), AlignerConfig::default())
    }

    /// The 12 graph shapes: `markdup_opt` × `recalibrate` × round-5
    /// variant, in that nesting order.
    pub(crate) fn config_shapes() -> Vec<PlatformConfig> {
        let mut shapes = Vec::new();
        for markdup_opt in [true, false] {
            for recalibrate in [false, true] {
                for (caller, hc_partitioning) in [
                    (CallerChoice::UnifiedGenotyper, HcPartitioning::Chromosome),
                    (CallerChoice::HaplotypeCaller, HcPartitioning::Chromosome),
                    (
                        CallerChoice::HaplotypeCaller,
                        HcPartitioning::FineGrained { segment_len: 20_000, overlap: 2_000 },
                    ),
                ] {
                    shapes.push(PlatformConfig {
                        markdup_opt,
                        recalibrate,
                        caller,
                        hc_partitioning,
                        ..PlatformConfig::default()
                    });
                }
            }
        }
        shapes
    }

    /// What the §3.2 rule says of a row's shuffle, given how its input
    /// is arranged.
    #[derive(Debug, PartialEq, Eq)]
    enum Verdict {
        /// The row shuffles, and its programs need it.
        Required,
        /// The row shuffles into the arrangement its input already has.
        Redundant,
        /// The row's programs need an arrangement its input lacks, and it
        /// does not shuffle.
        Missing,
        /// No shuffle, and none needed.
        None,
    }

    /// The paper's rule (a new round, with a shuffle, only where the next
    /// program's requirement does not hold of the current arrangement)
    /// applied to the table: each row's verdict, in table order. A row's
    /// input is its first parent's partitions; round 1's are the FASTQ
    /// split by pair.
    fn verdicts<'r>(rows: &'r [Stage<'_>]) -> Vec<(&'r str, Verdict)> {
        let mut arranged: HashMap<&str, Partitioning> = HashMap::new();
        rows.iter()
            .map(|row| {
                let input = row.spec.parents.first().map_or(Partitioning::ByReadName, |p| arranged[p.as_str()]);
                let (requires, shuffles) = row.body.contract();
                let verdict = match (shuffles, requires.satisfied_by(input)) {
                    (true, false) => Verdict::Required,
                    (true, true) => Verdict::Redundant,
                    (false, false) => Verdict::Missing,
                    (false, true) => Verdict::None,
                };
                arranged.insert(&row.spec.name, if shuffles { requires } else { input });
                (row.spec.name.as_str(), verdict)
            })
            .collect()
    }

    #[test]
    fn the_papers_round_rule_finds_no_redundant_or_missing_shuffle_in_the_table() {
        let aligner = aligner();
        for config in config_shapes() {
            let rows = pipeline_stages(&config, &aligner);
            let verdicts = verdicts(&rows);
            let of = |stage: &str| &verdicts.iter().find(|(n, _)| *n == stage).expect(stage).1;
            // Round 1's output is already grouped by read name, so round
            // 2's FixMate needs no shuffle; the shuffles before MarkDup
            // and SortSam are the only ones, and both are needed.
            assert_eq!(of("round2-clean-fixmate"), &Verdict::None, "{config:?}");
            let shuffles: Vec<(&str, &Verdict)> =
                verdicts.iter().filter(|(_, v)| *v != Verdict::None).map(|(n, v)| (*n, v)).collect();
            assert_eq!(
                shuffles,
                [("round3-markdup", &Verdict::Required), ("round4-sort", &Verdict::Required)],
                "{config:?}"
            );
        }
    }

    #[test]
    fn partitioning_compatibility() {
        assert!(Partitioning::Any.satisfied_by(Partitioning::ByRange));
        assert!(Partitioning::ByRange.satisfied_by(Partitioning::ByRange));
        assert!(!Partitioning::ByReadName.satisfied_by(Partitioning::ByRange));
    }
}
