//! The five MapReduce rounds of the paper's pipeline (Appendix A.2),
//! as `Mapper`/`Reducer` implementations over the engine.
//!
//! Every mapper's input value is a *whole logical partition* as BAM (or
//! FASTQ) bytes — faithfully modelling the wrapper reality: the framework
//! hands opaque partition bytes to a wrapped single-node program, paying
//! the record↔bytes **data transformation** cost each way (timed into the
//! counters, Fig. 6a).
//!
//! | Round | Map | Shuffle | Reduce |
//! |---|---|---|---|
//! | 1 | Bwa \| SamToBam via streaming | — (map-only) | — |
//! | 2 | AddReplaceReadGroups + CleanSam | by read name | FixMateInformation |
//! | 2½ | collect partial-matching 5′ ends | — | (bloom built by driver) |
//! | 3 | MarkDup key generation (+ filter/bloom) | compound keys | SortSam + MarkDuplicates |
//! | 4 | extract coordinates | range by chromosome | sort + index |
//! | 5 | HaplotypeCaller per chromosome | — (map-only) | — |

use crate::gdpt::{
    markdup_map_pair, BloomFilter, MarkDupKey, MarkDupRole, MarkDupValue, RangeKey,
};
use crate::pipeline::read_group;
use gesall_aligner::Aligner;
use gesall_formats::bam::{self, BamWriter};
use gesall_formats::SharedBytes;
use gesall_formats::sam::{SamHeader, SamRecord};
use gesall_formats::vcf::VariantRecord;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::streaming::StreamingHarness;
use gesall_mapreduce::task::{
    MapContext, Mapper, OutputFormat, RecordWriter, ReduceContext, Reducer,
};
use gesall_tools::clean_sam::clean_sam;
use gesall_tools::fix_mate::sync_pair;
use gesall_tools::mark_duplicates::end_key;
use gesall_tools::recalibration::RecalTable;
use gesall_tools::refview::RefView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Time a data-transformation step into the shared counters.
fn timed<T>(counters: &Counters, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    counters.add(keys::DATA_TRANSFORM_NANOS, t0.elapsed().as_nanos() as u64);
    out
}

fn decode_bam(counters: &Counters, bytes: &[u8]) -> (SamHeader, Vec<SamRecord>) {
    timed(counters, || {
        bam::read_bam(bytes).expect("partition bytes must be a valid BAM")
    })
}

// ---------------------------------------------------------------------
// Partition bytes: what the tasks of a partition round leave behind
// ---------------------------------------------------------------------

/// The output format of rounds 2–4: a reducer's output is one BAM
/// logical partition, each record encoded as the reducer emits it — the
/// paper's reducers writing through a BAM record writer. The same bytes
/// as [`bam::write_bam`] of the emitted records; the shuffle key is not
/// part of them.
pub struct BamParts<'a> {
    pub header: &'a SamHeader,
}

/// One reduce attempt's partition in the making.
pub struct BamPartWriter {
    bam: BamWriter,
    counters: Counters,
}

impl<K> OutputFormat<K, SamRecord> for BamParts<'_> {
    type Output = SharedBytes;
    type Writer = BamPartWriter;

    fn writer(&self, counters: &Counters) -> BamPartWriter {
        BamPartWriter {
            bam: BamWriter::new(self.header),
            counters: counters.clone(),
        }
    }
}

impl<K> RecordWriter<K, SamRecord> for BamPartWriter {
    type Output = SharedBytes;

    fn write(&mut self, _key: K, record: SamRecord) {
        self.bam.write_record(&record);
    }

    fn finish(self) -> SharedBytes {
        note_part(&self.counters, crate::dag::keys::PARTS_ENCODED);
        SharedBytes::from_vec(self.bam.finish().0)
    }
}

/// One partition encoded or decoded, charged to the attempt that did it
/// (so an attempt that never commits is not counted).
fn note_part(counters: &Counters, key: &'static str) {
    counters.add(key, 1);
    #[cfg(test)]
    PARTS_CODED_HERE.with(|n| n.set(n.get() + 1));
}

// ---------------------------------------------------------------------
// Round 1: alignment (map-only, Hadoop Streaming)
// ---------------------------------------------------------------------

/// Map-only aligner round: interleaved-FASTQ partition bytes in, BAM
/// partition bytes out, through the `bwa | samtobam` streaming pipeline.
pub struct Round1Align<'a> {
    pub aligner: &'a Aligner,
    pub threads_per_mapper: usize,
    pub counters: Counters,
}

impl Mapper for Round1Align<'_> {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = Vec<u8>;

    fn map(&self, label: &String, fastq_bytes: &SharedBytes, ctx: &mut MapContext<'_, String, Vec<u8>>) {
        let pipes = Counters::new();
        let harness = StreamingHarness::new(pipes.clone());
        let bwa = crate::programs::BwaMemProgram {
            aligner: self.aligner,
            threads: self.threads_per_mapper.max(1),
            counters: ctx.counters(),
        };
        let bam_bytes = harness
            .run_pipeline(&[&bwa, &crate::programs::SamToBamProgram], fastq_bytes)
            .expect("alignment streaming pipeline failed");
        // The wrapper timers stay on the pipeline-cumulative bag. The
        // pipe copies go on the attempt's own bag, so a byte count read
        // off the job counters covers committed attempts only — a
        // speculative attempt that loses its race copied for nothing.
        for key in [keys::DATA_TRANSFORM_NANOS, keys::EXTERNAL_PROGRAM_NANOS] {
            self.counters.add(key, pipes.get(key));
        }
        ctx.counters()
            .add(keys::WRAPPER_BYTES_COPIED, pipes.get(keys::WRAPPER_BYTES_COPIED));
        ctx.emit(label.clone(), bam_bytes);
    }
}

// ---------------------------------------------------------------------
// Round 2: AddReplaceReadGroups + CleanSam (map), FixMateInformation (reduce)
// ---------------------------------------------------------------------

/// Round-2 mapper: data cleaning over a BAM partition, shuffled by read
/// name.
pub struct Round2CleanMapper {
    pub references: Arc<Vec<Vec<u8>>>,
    pub counters: Counters,
}

impl Mapper for Round2CleanMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = SamRecord;

    fn map(
        &self,
        _label: &String,
        bam_bytes: &SharedBytes,
        ctx: &mut MapContext<'_, String, SamRecord>,
    ) {
        let (mut header, mut records) = decode_bam(&self.counters, bam_bytes);
        let t0 = Instant::now();
        gesall_tools::add_read_groups::add_or_replace_read_groups(
            &mut header,
            &mut records,
            &read_group(),
        );
        clean_sam(&mut records, RefView::new(&self.references));
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        for r in records {
            ctx.emit(r.name.clone(), r);
        }
    }
}

/// Round-2 reducer: both reads of a pair arrive under the same name key;
/// FixMateInformation synchronizes them.
pub struct Round2FixMateReducer {
    pub counters: Counters,
}

impl Reducer for Round2FixMateReducer {
    type InKey = String;
    type InValue = SamRecord;
    type OutKey = String;
    type OutValue = SamRecord;

    fn reduce(
        &self,
        name: String,
        mut values: Vec<SamRecord>,
        ctx: &mut ReduceContext<'_, String, SamRecord>,
    ) {
        let t0 = Instant::now();
        let primaries: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, r)| r.flags.is_primary() && r.flags.is_paired())
            .map(|(i, _)| i)
            .collect();
        if let [i, j] = primaries[..] {
            let (lo, hi) = values.split_at_mut(j.max(i));
            let (a, b) = if i < j {
                (&mut lo[i], &mut hi[0])
            } else {
                (&mut hi[0], &mut lo[j])
            };
            sync_pair(a, b);
        }
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        for r in values {
            ctx.emit(name.clone(), r);
        }
    }
}

// ---------------------------------------------------------------------
// Round 2½: bloom-filter build (MarkDup_opt prep)
// ---------------------------------------------------------------------

/// Map-only round emitting the 5′-end key of every partial-matching
/// mapped read, as the [`MarkDupKey::Single`] round 3 will look up; the
/// driver unions them into the bloom filter.
pub struct BloomBuildMapper {
    pub counters: Counters,
}

impl Mapper for BloomBuildMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = u64;
    type OutValue = MarkDupKey;

    fn map(&self, _label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, u64, MarkDupKey>) {
        let (_, records) = decode_bam(&self.counters, bam_bytes);
        let mut by_name: HashMap<&str, Vec<&SamRecord>> = HashMap::new();
        for r in &records {
            if r.flags.is_paired() && r.flags.is_primary() {
                by_name.entry(r.name.as_str()).or_default().push(r);
            }
        }
        for (_, pair) in by_name {
            if let [a, b] = pair[..] {
                let partial_mapped = match (a.is_mapped(), b.is_mapped()) {
                    (true, false) => Some(a),
                    (false, true) => Some(b),
                    _ => None,
                };
                if let Some(m) = partial_mapped {
                    ctx.emit(0, MarkDupKey::Single(end_key(m)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Round 3: MarkDuplicates (compound group partitioning)
// ---------------------------------------------------------------------

/// Round-3 mapper: input grouped by read name; emits compound keys with
/// the map-side witness filter (and optional bloom suppression).
pub struct Round3MarkDupMapper {
    /// `Some` = MarkDup_opt; `None` = MarkDup_reg.
    pub bloom: Option<Arc<BloomFilter>>,
    pub counters: Counters,
}

impl Mapper for Round3MarkDupMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = MarkDupKey;
    type OutValue = MarkDupValue;

    fn map(
        &self,
        _label: &String,
        bam_bytes: &SharedBytes,
        ctx: &mut MapContext<'_, MarkDupKey, MarkDupValue>,
    ) {
        let (_, records) = decode_bam(&self.counters, bam_bytes);
        // Pair by name in input order (map-task-local state is fine: the
        // whole partition is one map invocation). Records move from the
        // decode straight into the shuffle values — only the pairing
        // key (the name) is cloned while a read waits for its mate.
        let mut first_seen: HashMap<String, SamRecord> = HashMap::new();
        let mut witness_filter = std::collections::HashSet::new();
        let mut kvs = Vec::new();
        for r in records {
            if !r.flags.is_paired() || !r.flags.is_primary() {
                continue;
            }
            match first_seen.remove(r.name.as_str()) {
                None => {
                    first_seen.insert(r.name.clone(), r);
                }
                Some(mate) => {
                    markdup_map_pair(
                        mate,
                        r,
                        &mut witness_filter,
                        self.bloom.as_deref(),
                        &mut kvs,
                    );
                }
            }
        }
        assert!(
            first_seen.is_empty(),
            "round-3 partition violated the read-name grouping contract: {} widowed reads",
            first_seen.len()
        );
        for (k, v) in kvs {
            ctx.emit(k, v);
        }
    }
}

/// Round-3 reducer: applies MarkDuplicates criteria within each key
/// group. Random tie-breaks are seeded per key, so the outcome is
/// independent of which reducer sees the group — but *different* from
/// the serial tool's sequential RNG stream, exactly the discrepancy the
/// paper measures in Table 8.
pub struct Round3MarkDupReducer {
    pub seed: u64,
    pub counters: Counters,
}

fn key_seed(seed: u64, key: &MarkDupKey) -> u64 {
    use gesall_formats::wire::Wire;
    let bytes = key.to_wire_bytes();
    let mut h = seed ^ 0x51_7c_c1_b7_27_22_0a_95;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Reducer for Round3MarkDupReducer {
    type InKey = MarkDupKey;
    type InValue = MarkDupValue;
    type OutKey = String;
    type OutValue = SamRecord;

    fn reduce(
        &self,
        key: MarkDupKey,
        mut values: Vec<MarkDupValue>,
        ctx: &mut ReduceContext<'_, String, SamRecord>,
    ) {
        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(key_seed(self.seed, &key));
        match key {
            MarkDupKey::Pair(_, _) => {
                // Rebuild pairs by name, in arrival order.
                let mut order: Vec<String> = Vec::new();
                let mut pairs: HashMap<String, Vec<SamRecord>> = HashMap::new();
                for v in values {
                    debug_assert_eq!(v.role, MarkDupRole::PairMember);
                    let e = pairs.entry(v.record.name.clone()).or_default();
                    if e.is_empty() {
                        order.push(v.record.name.clone());
                    }
                    e.push(v.record);
                }
                let score = |pair: &Vec<SamRecord>| -> u64 {
                    pair.iter().map(|r| r.quality_sum()).sum()
                };
                let best = order
                    .iter()
                    .map(|n| score(&pairs[n]))
                    .max()
                    .expect("non-empty group");
                let ties: Vec<usize> = order
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| score(&pairs[*n]) == best)
                    .map(|(i, _)| i)
                    .collect();
                let keeper = ties[rng.gen_range(0..ties.len())];
                for (i, name) in order.iter().enumerate() {
                    let dup = i != keeper;
                    for mut r in pairs.remove(name).expect("pair present") {
                        r.flags
                            .set(gesall_formats::sam::Flags::DUPLICATE, dup);
                        ctx.emit(name.clone(), r);
                    }
                }
            }
            MarkDupKey::Single(_) => {
                let has_witness = values.iter().any(|v| v.role == MarkDupRole::Witness);
                // Partial matchings: mapped reads compete; mates follow.
                let mapped_idx: Vec<usize> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.role == MarkDupRole::PartialMapped)
                    .map(|(i, _)| i)
                    .collect();
                let keeper: Option<usize> = if has_witness || mapped_idx.is_empty() {
                    None
                } else {
                    let best = mapped_idx
                        .iter()
                        .map(|&i| values[i].record.quality_sum())
                        .max()
                        .expect("non-empty");
                    let ties: Vec<usize> = mapped_idx
                        .iter()
                        .copied()
                        .filter(|&i| values[i].record.quality_sum() == best)
                        .collect();
                    Some(ties[rng.gen_range(0..ties.len())])
                };
                let keeper_name = keeper.map(|i| values[i].record.name.clone());
                for v in values.drain(..) {
                    match v.role {
                        MarkDupRole::Witness => {} // no output
                        MarkDupRole::PartialMapped | MarkDupRole::PartialMate => {
                            let mut r = v.record;
                            let dup = keeper_name.as_deref() != Some(r.name.as_str());
                            r.flags
                                .set(gesall_formats::sam::Flags::DUPLICATE, dup);
                            ctx.emit(r.name.clone(), r);
                        }
                        other => panic!("unexpected role {other:?} under Single key"),
                    }
                }
            }
            MarkDupKey::Unplaced(_) => {
                for v in values {
                    ctx.emit(v.record.name.clone(), v.record);
                }
            }
        }
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
    }
}

// ---------------------------------------------------------------------
// Round 4: range-partitioned coordinate sort
// ---------------------------------------------------------------------

/// Round-4 mapper: extract (chromosome, position) shuffle keys.
pub struct Round4SortMapper {
    pub counters: Counters,
}

impl Mapper for Round4SortMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = RangeKey;
    type OutValue = SamRecord;

    fn map(
        &self,
        _label: &String,
        bam_bytes: &SharedBytes,
        ctx: &mut MapContext<'_, RangeKey, SamRecord>,
    ) {
        let (_, records) = decode_bam(&self.counters, bam_bytes);
        for r in records {
            ctx.emit(RangeKey::of(&r), r);
        }
    }
}

/// Round-4 reducer: records arrive key-sorted (the shuffle did the
/// sorting); pass them through, preserving order — the reducer output IS
/// the sorted chromosome partition.
pub struct Round4SortReducer;

impl Reducer for Round4SortReducer {
    type InKey = RangeKey;
    type InValue = SamRecord;
    type OutKey = RangeKey;
    type OutValue = SamRecord;

    fn reduce(
        &self,
        key: RangeKey,
        values: Vec<SamRecord>,
        ctx: &mut ReduceContext<'_, RangeKey, SamRecord>,
    ) {
        for r in values {
            ctx.emit(key, r);
        }
    }
}

// ---------------------------------------------------------------------
// Rounds 3½a/3½b: base quality score recalibration (steps 11–12)
// ---------------------------------------------------------------------

/// Pass-1 mapper: builds a partial [`RecalTable`] per partition and emits
/// it — the GDPT "group partitioning by user-defined
/// covariates" pattern (§3.2): the tally is distributive, so partial
/// tables merge exactly.
pub struct RecalTableMapper {
    pub references: Arc<Vec<Vec<u8>>>,
    /// Known variant sites (ref_id, 1-based pos) excluded from the error
    /// tally (the dbSNP role).
    pub known_sites: Arc<std::collections::HashSet<(i32, i64)>>,
    pub config: gesall_tools::recalibration::RecalConfig,
    pub counters: Counters,
}

impl Mapper for RecalTableMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = u64;
    type OutValue = RecalTable;

    fn map(&self, _label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, u64, RecalTable>) {
        let (_, records) = decode_bam(&self.counters, bam_bytes);
        let t0 = Instant::now();
        let table = gesall_tools::recalibration::base_recalibrator(
            &records,
            RefView::new(&self.references),
            &self.known_sites,
            &self.config,
        );
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        ctx.emit(0, table);
    }
}

/// Pass-2 mapper (PrintReads): rewrite base qualities from the merged
/// table; map-only, partition-parallel. Like [`Round1Align`] it emits
/// its output partition as bytes, one `(label, BAM)` pair.
pub struct PrintReadsMapper {
    pub table: Arc<RecalTable>,
    pub config: gesall_tools::recalibration::RecalConfig,
    /// Header of the partitions written (coordinate-sorted, as read).
    pub header: SamHeader,
    pub counters: Counters,
}

impl Mapper for PrintReadsMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = Vec<u8>;

    fn map(&self, label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, String, Vec<u8>>) {
        let (_, mut records) = decode_bam(&self.counters, bam_bytes);
        let t0 = Instant::now();
        gesall_tools::recalibration::print_reads(&mut records, &self.table, &self.config);
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        note_part(ctx.counters(), crate::dag::keys::PARTS_ENCODED);
        ctx.emit(label.clone(), bam::write_bam(&self.header, &records));
    }
}

/// The final stage's partitions read back as records
/// (`PipelineOutput::records`): one task per partition, one
/// `(_, records)` pair each.
pub struct DecodePartMapper;

impl Mapper for DecodePartMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = u64;
    type OutValue = Vec<SamRecord>;

    fn map(&self, _label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, u64, Vec<SamRecord>>) {
        let (_, records) = decode_bam(ctx.counters(), bam_bytes);
        note_part(ctx.counters(), crate::dag::keys::PARTS_DECODED);
        ctx.emit(0, records);
    }
}

// ---------------------------------------------------------------------
// Round 5: variant calling (map-only over range partitions)
// ---------------------------------------------------------------------

/// A small-variant caller over `[start, end]` of one chromosome:
/// `(records, ref_id, chrom, start, end, reference)` to calls.
pub type CallRange<'a> =
    dyn Fn(&[SamRecord], i32, &str, i64, i64, RefView<'_>) -> Vec<VariantRecord> + Sync + 'a;

/// Where a round-5 task learns the range it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSource {
    /// The partition is one sorted chromosome — the granularity the
    /// bioinformaticians accept (§3.2): the chromosome is its mapped
    /// reads', the range all of it.
    Chromosome,
    /// The partition is one **overlapping genome segment** of the
    /// paper's §3.2 fine-grained proposal, and the split label is its
    /// [`fine_segment_label`]: the caller walks the padded span but only
    /// calls anchored inside the core are emitted, so neighbouring
    /// segments' overlap regions deduplicate by construction.
    Label,
}

/// Inclusive 1-based `(start, end)` on one chromosome.
pub type Range = (i64, i64);

/// Encode a fine-grained segment label:
/// `ref_id:core_start:core_end:span_start:span_end`.
pub fn fine_segment_label(ref_id: i32, core: Range, span: Range) -> String {
    format!("{ref_id}:{}:{}:{}:{}", core.0, core.1, span.0, span.1)
}

impl SpanSource {
    /// `(ref_id, core, span)` of one task, or `None` when the partition
    /// has nothing to call (empty or all-unmapped).
    fn locate(
        self,
        label: &str,
        records: &[SamRecord],
        reference: RefView<'_>,
    ) -> Option<(i32, Range, Range)> {
        match self {
            SpanSource::Chromosome => {
                let ref_id = records.iter().find(|r| r.is_mapped())?.ref_id;
                debug_assert!(
                    records.iter().filter(|r| r.is_mapped()).all(|r| r.ref_id == ref_id),
                    "round-5 partition must hold a single chromosome"
                );
                let whole = (1, reference.chrom_len(ref_id) as i64);
                (whole.1 > 0).then_some((ref_id, whole, whole))
            }
            SpanSource::Label => {
                let parts: Vec<i64> = label
                    .split(':')
                    .map(|p| p.parse().expect("fine-grained segment label"))
                    .collect();
                assert_eq!(parts.len(), 5, "label {label:?}");
                Some((parts[0] as i32, (parts[1], parts[2]), (parts[3], parts[4])))
            }
        }
    }
}

/// The round-5 mapper: one sorted range partition in, variant calls
/// out — UnifiedGenotyper (v1) or HaplotypeCaller (v2) by `call`, per
/// chromosome or per overlapping segment by `span`.
pub struct Round5Caller<'a> {
    pub references: Arc<Vec<Vec<u8>>>,
    pub chrom_names: Arc<Vec<String>>,
    pub counters: Counters,
    pub span: SpanSource,
    pub call: &'a CallRange<'a>,
}

impl Mapper for Round5Caller<'_> {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = VariantRecord;

    fn map(
        &self,
        label: &String,
        bam_bytes: &SharedBytes,
        ctx: &mut MapContext<'_, String, VariantRecord>,
    ) {
        let (_, records) = decode_bam(&self.counters, bam_bytes);
        let reference = RefView::new(&self.references);
        let Some((ref_id, core, span)) = self.span.locate(label, &records, reference) else {
            return;
        };
        let chrom = &self.chrom_names[ref_id as usize];
        let t0 = Instant::now();
        let calls = (self.call)(&records, ref_id, chrom, span.0, span.1, reference);
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        for v in calls {
            if v.pos >= core.0 && v.pos <= core.1 {
                ctx.emit(chrom.clone(), v);
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Partitions [`note_part`] saw coded on this thread — how a test
    /// shows that the driver thread codes none.
    pub(crate) static PARTS_CODED_HERE: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}
