//! The five MapReduce rounds of the paper's pipeline (Appendix A.2),
//! as `Mapper`/`Reducer` implementations over the engine.
//!
//! Every mapper's input value is a *whole logical partition* as BAM (or
//! FASTQ) bytes — faithfully modelling the wrapper reality: the framework
//! hands opaque partition bytes to a wrapped single-node program, paying
//! the record↔bytes **data transformation** cost each way (timed into the
//! counters, Fig. 6a). Rounds 2½, 3, 4 and 4½b only key, route, flag or
//! requalify records, so they read them as [`SamView`]s — windows over
//! the decompressed chunks — and pay no conversion at all; the others
//! materialise [`SamRecord`]s for tools that take them (DESIGN.md
//! "Records as views").
//!
//! | Round | Map | Shuffle | Reduce |
//! |---|---|---|---|
//! | 1 | Bwa \| SamToBam via streaming | — (map-only) | — |
//! | 2 | AddReplaceReadGroups + CleanSam + FixMateInformation | — (map-only: round 1's partitions hold whole pairs) | — |
//! | 2½ | collect partial-matching 5′ ends | — | (bloom built by driver) |
//! | 3 | MarkDup key generation (+ filter/bloom) | compound keys | SortSam + MarkDuplicates |
//! | 4 | extract coordinates | range by chromosome | sort + index |
//! | 5 | HaplotypeCaller per chromosome | — (map-only) | — |

use gesall_formats::bam::{self, BamWriter};
use gesall_formats::sam::{SamHeader, SamRecord, SamView};
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::task::{MapContext, Mapper, OutputFormat, RecordWriter};
use std::time::Instant;

mod align;
mod call;
mod clean;
mod markdup;
mod recal;
#[cfg(test)]
mod reference;
mod sort;

pub use align::Round1Align;
pub use call::{fine_segment_label, CallRange, Range, Round5Caller, SpanSource};
pub use clean::Round2CleanMapper;
pub use markdup::{BloomBuildMapper, Round3MarkDupMapper, Round3MarkDupReducer};
pub use recal::{PrintReadsMapper, RecalTableMapper};
pub use sort::{Round4SortMapper, Round4SortReducer};

/// Time a data-transformation step into the shared counters.
fn timed<T>(counters: &Counters, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    counters.add(keys::DATA_TRANSFORM_NANOS, t0.elapsed().as_nanos() as u64);
    out
}

/// A partition's records materialised, the conversion timed on the
/// pipeline's `timers` and counted on the `attempt`'s bag.
fn decode_bam(timers: &Counters, attempt: &Counters, bytes: &[u8]) -> (SamHeader, Vec<SamRecord>) {
    let (header, records) = timed(timers, || {
        bam::read_bam(bytes).expect("partition bytes must be a valid BAM")
    });
    attempt.add(keys::WIRE_RECORDS_DECODED, records.len() as u64);
    (header, records)
}

/// A partition's records as views over its decompressed chunks.
fn window_bam(timers: &Counters, bytes: &[u8]) -> Vec<SamView> {
    timed(timers, || {
        bam::read_bam_views(bytes, |_| {}).expect("partition bytes must be a valid BAM").1
    })
}

// ---------------------------------------------------------------------
// Partition bytes: what the tasks of a partition round leave behind
// ---------------------------------------------------------------------

/// The output format of rounds 3 and 4: a reducer's output is one BAM
/// logical partition, each record appended as the reducer emits it — the
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

impl BamParts<'_> {
    fn part_writer(&self, counters: &Counters) -> BamPartWriter {
        BamPartWriter { bam: BamWriter::new(self.header), counters: counters.clone() }
    }
}

impl<K> OutputFormat<K, SamView> for BamParts<'_> {
    type Output = SharedBytes;
    type Writer = BamPartWriter;

    fn writer(&self, counters: &Counters) -> BamPartWriter {
        self.part_writer(counters)
    }
}

impl BamPartWriter {
    fn finish(self) -> SharedBytes {
        note_part(&self.counters, crate::dag::keys::PARTS_ENCODED);
        SharedBytes::from_vec(self.bam.finish().0)
    }
}

/// A view's bytes are already the record's encoding: appended as they
/// are, and not counted as encoded.
impl<K> RecordWriter<K, SamView> for BamPartWriter {
    type Output = SharedBytes;

    fn write(&mut self, _key: K, record: SamView) {
        self.bam.write_view(&record);
    }

    fn finish(self) -> SharedBytes {
        BamPartWriter::finish(self)
    }
}

/// One partition encoded or decoded, charged to the attempt that did it
/// (so an attempt that never commits is not counted).
fn note_part(counters: &Counters, key: &'static str) {
    counters.add(key, 1);
    #[cfg(test)]
    PARTS_CODED_HERE.with(|n| n.set(n.get() + 1));
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
        let (_, records) = decode_bam(ctx.counters(), ctx.counters(), bam_bytes);
        note_part(ctx.counters(), crate::dag::keys::PARTS_DECODED);
        ctx.emit(0, records);
    }
}

#[cfg(test)]
thread_local! {
    /// Partitions [`note_part`] saw coded on this thread — how a test
    /// shows that the driver thread codes none.
    pub(crate) static PARTS_CODED_HERE: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_timer_accumulates() {
        let c = Counters::new();
        let v: u64 = timed(&c, || (0..10_000u64).sum());
        assert_eq!(v, 49995000);
        assert!(c.get(keys::DATA_TRANSFORM_NANOS) > 0);
    }
}
