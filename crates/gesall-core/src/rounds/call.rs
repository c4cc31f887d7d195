//! Round 5: variant calling (map-only over range partitions).

use super::decode_bam;
use gesall_formats::sam::SamRecord;
use gesall_formats::vcf::VariantRecord;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::task::{MapContext, Mapper};
use gesall_tools::refview::RefView;
use std::sync::Arc;
use std::time::Instant;

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
        let (_, records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
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
