//! The pipeline, declared once: one row per stage.
//!
//! [`pipeline_stages`] is the only place that says which stages a
//! configuration runs, what each is called, which stages feed it and
//! what its content key fingerprints. Everything else is a reading of
//! that table: [`dag::pipeline_dag`] projects it onto [`StageSpec`]s
//! (graph, content keys, reports), the executor in [`crate::pipeline`]
//! walks it top to bottom, resolves each row's declared parents and hands
//! them to the row's body **by position** ([`Inputs`]), and the final
//! records and calls are the last row's first parent and output. A body
//! therefore names no stage — not its parents, not itself.

use crate::dag::{self, DagSpec, StageSpec};
use crate::error::{PlatformError, Result};
use crate::gdpt::{chromosome_partition, BloomFilter, MarkDupKey, OverlappingRanges, RangeKey};
use crate::pipeline::{
    read_group, sort_by_site, CallerChoice, GesallPlatform, HcPartitioning, PlatformConfig,
    RoundSummary, RunOptions, StageData,
};
use crate::rounds::{
    fine_segment_label, BamParts, BloomBuildMapper, CallRange, PrintReadsMapper, RecalTableMapper,
    Round1Align, Round2CleanMapper, Round2FixMateReducer, Round3MarkDupMapper,
    Round3MarkDupReducer, Round4SortMapper, Round4SortReducer, Round5Caller, SpanSource,
};
use gesall_aligner::Aligner;
use gesall_formats::bam::{self, BamWriter};
use gesall_formats::fastq::{pairs_to_interleaved_bytes, split_pairs_into_partitions, ReadPair};
use gesall_formats::sam::SamHeader;
use gesall_formats::vcf::VariantRecord;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::Counters;
use gesall_mapreduce::runtime::{AttemptOutcome, InputSplit, JobOutput, TaskKind};
use gesall_mapreduce::task::{FnPartitioner, HashPartitioner};
use gesall_telemetry::{Recorder, SpanId};
use gesall_tools::haplotype_caller::{call_range, HaplotypeCallerConfig};
use gesall_tools::recalibration::RecalTable;
use gesall_tools::unified_genotyper::{call_region, GenotyperConfig};
use std::sync::Arc;

/// A placed logical partition: what a partition stage's consumers map
/// over.
pub(crate) type Split = InputSplit<String, SharedBytes>;

/// A stage body: run the row's round(s) over its parents' outputs.
pub(crate) type StageBody = fn(&GesallPlatform, &mut StageCtx<'_>, &Inputs<'_>) -> Result<StageData>;

/// One row of the table.
pub(crate) struct Stage {
    pub spec: StageSpec,
    pub body: StageBody,
}

/// The stage table for `config`, in execution order. `row` hands back the
/// name it pushed, so a row can only name parents declared above it; each
/// row fingerprints only its own config slice.
pub(crate) fn pipeline_stages(config: &PlatformConfig) -> Vec<Stage> {
    fn row(
        rows: &mut Vec<Stage>,
        name: &'static str,
        parents: &[&'static str],
        config_fp: u64,
        body: StageBody,
    ) -> &'static str {
        rows.push(Stage {
            spec: StageSpec::new(name, parents).config_fp(config_fp),
            body,
        });
        name
    }
    let fp = dag::config_fingerprint;
    let align_fp = fp(&[&config.n_round1_partitions]);
    let clean_fp = fp(&[&read_group(), &config.n_reducers]);
    let markdup_fp = fp(&[&config.markdup_opt, &config.seed, &config.n_reducers]);
    let hc_fp = fp(&[&HaplotypeCallerConfig::default(), &config.hc_partitioning]);

    let mut rows = Vec::new();
    let align = row(&mut rows, "round1-align", &[], align_fp, stage_round1);
    let clean = row(&mut rows, "round2-clean-fixmate", &[align], clean_fp, stage_round2);
    let mut markdup_parents = vec![clean];
    if config.markdup_opt {
        markdup_parents.push(row(&mut rows, "round2b-bloom", &[clean], 0, stage_round2b));
    }
    let markdup = row(&mut rows, "round3-markdup", &markdup_parents, markdup_fp, stage_round3);
    let sort = row(&mut rows, "round4-sort", &[markdup], 0, stage_round4);
    let tail = if config.recalibrate {
        let table = row(&mut rows, "round4a-recal-table", &[sort], 0, stage_round4a);
        row(&mut rows, "round4b-print-reads", &[sort, table], 0, stage_round4b)
    } else {
        sort
    };
    let (call, call_fp) = match (config.caller, config.hc_partitioning) {
        (CallerChoice::UnifiedGenotyper, _) => ("round5-unifiedgenotyper", 0),
        (_, HcPartitioning::Chromosome) => ("round5-haplotypecaller", hc_fp),
        (_, HcPartitioning::FineGrained { .. }) => ("round5-hc-finegrained", hc_fp),
    };
    row(&mut rows, call, &[tail], call_fp, stage_round5);
    rows
}

/// The table's projection onto specs: the graph that content keys,
/// reports and validation read.
pub(crate) fn graph(rows: &[Stage]) -> DagSpec {
    DagSpec {
        stages: rows.iter().map(|row| row.spec.clone()).collect(),
    }
}

/// A resolved stage's output as the rows below it see it.
pub(crate) enum Resolved {
    /// A partition stage: its partitions, placed. Sibling consumers
    /// (round2b + round3, round4a + round4b) clone the same splits — the
    /// payloads are refcounted, so the clone is pointer-sized.
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
    pub(crate) fn of(rows: &'a [Stage], resolved: &'a [Resolved], row: &'a Stage) -> Result<Inputs<'a>> {
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

    /// Parent `i`'s placed partitions.
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

/// Everything a stage body needs besides its inputs: the run's external
/// input and namespace, span parentage, cumulative counters, reference
/// facts, and the growing round-summary list.
pub(crate) struct StageCtx<'a> {
    pub aligner: &'a Aligner,
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
            counters: job.counters.snapshot(),
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

/// Round 1: alignment (map-only over FASTQ logical partitions). The
/// mappers emit BAM bytes: they are the output partitions.
fn stage_round1(p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
    let pairs = cx.pairs.take().ok_or_else(|| {
        PlatformError::Invariant(format!("{} executed twice in one run", inputs.stage))
    })?;
    let parts = split_pairs_into_partitions(pairs, p.config.n_round1_partitions.max(1));
    let mut splits = Vec::with_capacity(parts.len());
    for (i, part) in parts.iter().enumerate() {
        let path = format!("{}/fastq/part-{i:05}", cx.base);
        let bytes = SharedBytes::from_vec(pairs_to_interleaved_bytes(part));
        splits.push(p.place(&path, path.clone(), bytes)?);
    }
    let r1 = p.engine.run_map_only(
        p.job_config(cx.opts, inputs.stage, 1, cx.stage_span),
        &Round1Align {
            aligner: cx.aligner,
            counters: cx.counters.clone(),
        },
        splits,
    )?;
    // Already grouped by name (pairs adjacent).
    Ok(StageData::Parts(mapper_parts(cx.close_round(inputs.stage, r1))?))
}

/// Round 2: clean (map) + fix-mate (reduce), shuffled by read name.
fn stage_round2(p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
    let splits = inputs.splits(0)?;
    let r2 = p.engine.run_job_to(
        p.job_config(cx.opts, inputs.stage, p.config.n_reducers, cx.stage_span),
        &Round2CleanMapper {
            references: cx.references.clone(),
            counters: cx.counters.clone(),
        },
        &Round2FixMateReducer {
            counters: cx.counters.clone(),
        },
        &HashPartitioner,
        splits,
        &BamParts { header: &cx.header },
    )?;
    Ok(StageData::Parts(cx.close_round(inputs.stage, r2)))
}

/// Round 2½: bloom-filter build over the cleaned parts (`MarkDup_opt`
/// only). The mappers emit the 5′-end keys; the driver unions them.
fn stage_round2b(p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
    let splits = inputs.splits(0)?;
    let rb = p.engine.run_map_only(
        p.job_config(cx.opts, inputs.stage, 1, cx.stage_span),
        &BloomBuildMapper {
            counters: cx.counters.clone(),
        },
        splits,
    )?;
    let outputs = cx.close_round(inputs.stage, rb);
    let n_keys: usize = outputs.iter().map(Vec::len).sum();
    let mut bloom = BloomFilter::with_capacity(n_keys.max(64));
    for (_, key) in outputs.iter().flatten() {
        if let MarkDupKey::Single(end) = key {
            bloom.insert(end);
        }
    }
    Ok(StageData::Bloom(bloom))
}

/// Round 3: MarkDuplicates under the compound 5′-end shuffle, behind the
/// bloom filter when the table declares one (`MarkDup_opt`).
fn stage_round3(p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
    let splits = inputs.splits(0)?;
    let (variant, bloom) = if p.config.markdup_opt {
        ("opt", Some(inputs.bloom(1)?))
    } else {
        ("reg", None)
    };
    let job_name = format!("{}-{variant}", inputs.stage);
    let r3 = p.engine.run_job_to(
        p.job_config(cx.opts, &job_name, p.config.n_reducers, cx.stage_span),
        &Round3MarkDupMapper {
            bloom,
            counters: cx.counters.clone(),
        },
        &Round3MarkDupReducer {
            seed: p.config.seed,
            counters: cx.counters.clone(),
        },
        &HashPartitioner,
        splits,
        &BamParts { header: &cx.header },
    )?;
    Ok(StageData::Parts(cx.close_round(inputs.stage, r3)))
}

/// Round 4: range-partitioned coordinate sort (one reducer per
/// chromosome plus the unmapped partition).
fn stage_round4(p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
    let splits = inputs.splits(0)?;
    let r4 = p.engine.run_job_to(
        p.job_config(cx.opts, inputs.stage, cx.chrom_names.len() + 1, cx.stage_span),
        &Round4SortMapper {
            counters: cx.counters.clone(),
        },
        &Round4SortReducer,
        &FnPartitioner::new(|k: &RangeKey, n| chromosome_partition(k, n)),
        splits,
        &BamParts { header: &cx.sorted_header },
    )?;
    Ok(StageData::Parts(cx.close_round(inputs.stage, r4)))
}

/// Round 4½a: per-partition covariate tables (BaseRecalibrator),
/// merged into the whole-dataset table — the tally is distributive.
fn stage_round4a(p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
    let mut splits = inputs.splits(0)?;
    splits.truncate(cx.chrom_names.len());
    let ra = p.engine.run_map_only(
        p.job_config(cx.opts, inputs.stage, 1, cx.stage_span),
        &RecalTableMapper {
            references: cx.references.clone(),
            known_sites: Arc::default(),
            config: Default::default(),
            counters: cx.counters.clone(),
        },
        splits,
    )?;
    let mut table = RecalTable::default();
    for (_, partial) in cx.close_round(inputs.stage, ra).iter().flatten() {
        table.merge(partial);
    }
    Ok(StageData::Recal(table))
}

/// Round 4½b: apply the merged table (PrintReads). Returns the full
/// partition set: recalibrated chromosome parts plus round 4's
/// unmapped partition, handed on as the bytes it already is.
fn stage_round4b(p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
    let mut splits = inputs.splits(0)?;
    let unmapped = splits.split_off(cx.chrom_names.len());
    let rb2 = p.engine.run_map_only(
        p.job_config(cx.opts, inputs.stage, 1, cx.stage_span),
        &PrintReadsMapper {
            table: inputs.recal_table(1)?,
            config: Default::default(),
            header: cx.sorted_header.clone(),
            counters: cx.counters.clone(),
        },
        splits,
    )?;
    let mut parts = mapper_parts(cx.close_round(inputs.stage, rb2))?;
    parts.extend(unmapped.into_iter().flat_map(|s| s.records).map(|(_, bytes)| bytes));
    Ok(StageData::Parts(parts))
}

/// Round 5: variant calling under the configured caller and
/// partitioning scheme. The unmapped partition (index `n_chroms`)
/// is skipped.
fn stage_round5(p: &GesallPlatform, cx: &mut StageCtx<'_>, inputs: &Inputs<'_>) -> Result<StageData> {
    let mut splits = inputs.splits(0)?;
    splits.truncate(cx.chrom_names.len());
    let ug_config = GenotyperConfig::default();
    let hc_config = HaplotypeCallerConfig::default();
    let ug: &CallRange<'_> =
        &|recs, id, chrom, start, end, rv| call_region(recs, id, chrom, start, end, rv, &ug_config);
    let hc: &CallRange<'_> = &|recs, id, chrom, start, end, rv| {
        call_range(recs, id, chrom, start, end, rv, &hc_config).variants
    };
    let call = match p.config.caller {
        CallerChoice::UnifiedGenotyper => ug,
        CallerChoice::HaplotypeCaller => hc,
    };
    let span = match (p.config.caller, p.config.hc_partitioning) {
        (CallerChoice::HaplotypeCaller, HcPartitioning::FineGrained { segment_len, overlap }) => {
            splits = cut_segments(p, cx, &splits, segment_len, overlap)?;
            SpanSource::Label
        }
        _ => SpanSource::Chromosome,
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
