//! Round 2, map-only: AddOrReplaceReadGroups, CleanSam and
//! FixMateInformation over one of round 1's partitions. Round 1 never
//! splits a pair, so each partition already holds both mates of every
//! pair — the arrangement FixMate needs — and the round shuffles nothing
//! (the paper's §3.2 rule: a new round only where the requirement does
//! not already hold).

use super::{decode_bam, note_part};
use gesall_formats::bam;
use gesall_formats::sam::header::ReadGroup;
use gesall_formats::sam::SamHeader;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::task::{MapContext, Mapper};
use gesall_tools::clean_sam::clean_sam;
use gesall_tools::fix_mate::fix_mate_information;
use gesall_tools::refview::RefView;
use std::sync::Arc;
use std::time::Instant;

/// Round-2 mapper: cleans and fixes the mates of one partition's records
/// and emits them as its own output partition, one `(label, BAM)` pair,
/// as [`super::PrintReadsMapper`] does.
pub struct Round2CleanMapper {
    /// The read group AddReplaceReadGroups stamps on every record.
    pub read_group: ReadGroup,
    pub references: Arc<Vec<Vec<u8>>>,
    /// Header of the partitions written.
    pub header: SamHeader,
    pub counters: Counters,
}

impl Mapper for Round2CleanMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = Vec<u8>;

    fn map(&self, label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, String, Vec<u8>>) {
        let (mut header, mut records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
        let t0 = Instant::now();
        gesall_tools::add_read_groups::add_or_replace_read_groups(
            &mut header,
            &mut records,
            &self.read_group,
        );
        clean_sam(&mut records, RefView::new(&self.references));
        fix_mate_information(&mut records);
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        let part = bam::write_bam(&self.header, &records);
        ctx.counters().add(keys::WIRE_RECORDS_ENCODED, records.len() as u64);
        note_part(ctx.counters(), crate::dag::keys::PARTS_ENCODED);
        ctx.emit(label.clone(), part);
    }
}
