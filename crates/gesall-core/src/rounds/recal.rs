//! Rounds 4½a/4½b: base quality score recalibration (steps 11–12).

use super::{decode_bam, note_part};
use gesall_formats::bam::{self, BamWriter};
use gesall_formats::sam::SamHeader;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::task::{MapContext, Mapper};
use gesall_tools::recalibration::{QualityRewriter, RecalTable};
use gesall_tools::refview::RefView;
use std::sync::Arc;
use std::time::Instant;

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
        let (_, records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
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
/// table; map-only, partition-parallel. Like [`Round1Align`](super::Round1Align) it emits
/// its output partition as bytes, one `(label, BAM)` pair. Each record's
/// qualities are rewritten in place, in the chunk it was decompressed
/// into, and the records are written on as the bytes they then are.
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
        let t0 = Instant::now();
        let mut kernel = QualityRewriter::new(&self.table, &self.config);
        let mut external = t0.elapsed();
        let (_, views) = bam::read_bam_views(bam_bytes, |records| {
            let t = Instant::now();
            for r in records {
                kernel.rewrite(r.read_group, r.flags.is_reverse(), r.seq, r.qual);
            }
            external += t.elapsed();
        })
        .expect("partition bytes must be a valid BAM");
        self.counters.add(
            keys::DATA_TRANSFORM_NANOS,
            t0.elapsed().saturating_sub(external).as_nanos() as u64,
        );
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, external.as_nanos() as u64);
        let mut part = BamWriter::new(&self.header);
        for r in &views {
            part.write_view(r);
        }
        note_part(ctx.counters(), crate::dag::keys::PARTS_ENCODED);
        ctx.emit(label.clone(), part.finish().0);
    }
}
