//! Round 4: range-partitioned coordinate sort. The records pass through
//! as views: keyed on their coordinates, shuffled and written as the
//! bytes they arrived as.

use super::window_bam;
use crate::gdpt::RangeKey;
use gesall_formats::sam::SamView;
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::Counters;
use gesall_mapreduce::task::{MapContext, Mapper, ReduceContext, Reducer};

/// Round-4 mapper: extract (chromosome, position) shuffle keys.
pub struct Round4SortMapper {
    pub counters: Counters,
}

impl Mapper for Round4SortMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = RangeKey;
    type OutValue = SamView;

    fn map(
        &self,
        _label: &String,
        bam_bytes: &SharedBytes,
        ctx: &mut MapContext<'_, RangeKey, SamView>,
    ) {
        for r in window_bam(&self.counters, bam_bytes) {
            ctx.emit(RangeKey::at(r.coordinate_key()), r);
        }
    }
}

/// Round-4 reducer: records arrive key-sorted (the shuffle did the
/// sorting); pass them through, preserving order — the reducer output IS
/// the sorted chromosome partition.
pub struct Round4SortReducer;

impl Reducer for Round4SortReducer {
    type InKey = RangeKey;
    type InValue = SamView;
    type OutKey = RangeKey;
    type OutValue = SamView;

    fn reduce(
        &self,
        key: RangeKey,
        values: Vec<SamView>,
        ctx: &mut ReduceContext<'_, RangeKey, SamView>,
    ) {
        for r in values {
            ctx.emit(key, r);
        }
    }
}
