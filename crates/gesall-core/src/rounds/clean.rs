//! Round 2: AddReplaceReadGroups + CleanSam (map), FixMateInformation
//! (reduce), shuffled by read name.

use super::decode_bam;
use gesall_formats::sam::header::ReadGroup;
use gesall_formats::sam::SamRecord;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::task::{MapContext, Mapper, ReduceContext, Reducer};
use gesall_tools::clean_sam::clean_sam;
use gesall_tools::fix_mate::sync_pair;
use gesall_tools::refview::RefView;
use std::sync::Arc;
use std::time::Instant;

/// Round-2 mapper: data cleaning over a BAM partition, shuffled by read
/// name.
pub struct Round2CleanMapper {
    /// The read group AddReplaceReadGroups stamps on every record.
    pub read_group: ReadGroup,
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
        let (mut header, mut records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
        let t0 = Instant::now();
        gesall_tools::add_read_groups::add_or_replace_read_groups(
            &mut header,
            &mut records,
            &self.read_group,
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
