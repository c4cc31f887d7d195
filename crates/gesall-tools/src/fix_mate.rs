//! FixMateInformation (paper Table 2, step 5): make the mate fields of
//! the two reads of a pair consistent — needed because alignment and
//! cleaning steps can leave `PNEXT`/`RNEXT`/`TLEN`/mate flags stale.
//!
//! The program's data-access requirement is the paper's canonical
//! example of **group partitioning by read name** (§3.2): both reads of
//! a pair must be in the same partition.

use gesall_formats::sam::cigar::Cigar;
use gesall_formats::sam::{Flags, SamRecord};
use std::collections::HashMap;

/// Outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixMateStats {
    pub pairs_fixed: usize,
    /// Reads whose mate was absent from the input (violates the grouping
    /// contract; left untouched).
    pub widowed: usize,
}

/// Synchronize mate information between the primary records of each
/// pair. Input records may be in any order but must contain both reads
/// of every pair (the logical-partitioning contract).
pub fn fix_mate_information(records: &mut [SamRecord]) -> FixMateStats {
    let mut stats = FixMateStats::default();
    // Per name: how many primary reads, the first one's index, the last's.
    let mut by_name: HashMap<&str, (usize, usize, usize)> = HashMap::with_capacity(records.len() / 2);
    for (i, r) in records.iter().enumerate() {
        if r.flags.is_paired() && r.flags.is_primary() {
            let (n, _, last) = by_name.entry(r.name.as_str()).or_insert((0, i, i));
            *n += 1;
            *last = i;
        }
    }
    let mut pairs = Vec::with_capacity(by_name.len());
    for (n, first, last) in by_name.into_values() {
        if n == 2 {
            pairs.push((first, last));
        } else {
            stats.widowed += n;
        }
    }
    // In record order: mates written together stay together in memory.
    pairs.sort_unstable();
    for (i, j) in pairs {
        let (lo, hi) = records.split_at_mut(j);
        sync_pair(&mut lo[i], &mut hi[0]);
        stats.pairs_fixed += 1;
    }
    stats
}

/// Recompute every mate-dependent field of a pair from the records
/// themselves.
pub fn sync_pair(a: &mut SamRecord, b: &mut SamRecord) {
    a.flags.set(Flags::MATE_UNMAPPED, !b.is_mapped());
    b.flags.set(Flags::MATE_UNMAPPED, !a.is_mapped());
    a.flags.set(Flags::MATE_REVERSE, b.flags.is_reverse());
    b.flags.set(Flags::MATE_REVERSE, a.flags.is_reverse());

    match (a.is_mapped(), b.is_mapped()) {
        (true, true) => {
            a.mate_ref_id = b.ref_id;
            a.mate_pos = b.pos;
            b.mate_ref_id = a.ref_id;
            b.mate_pos = a.pos;
            if a.ref_id == b.ref_id {
                let left = a.pos.min(b.pos);
                let right = a.end_pos().max(b.end_pos());
                let frag = right - left + 1;
                if a.pos <= b.pos {
                    a.tlen = frag;
                    b.tlen = -frag;
                } else {
                    b.tlen = frag;
                    a.tlen = -frag;
                }
            } else {
                a.tlen = 0;
                b.tlen = 0;
                // Cross-chromosome pairs are never proper.
                a.flags.set(Flags::PROPER_PAIR, false);
                b.flags.set(Flags::PROPER_PAIR, false);
            }
        }
        (true, false) => place_unmapped_at_mate(b, a),
        (false, true) => place_unmapped_at_mate(a, b),
        (false, false) => {
            for r in [a, b] {
                r.mate_ref_id = gesall_formats::sam::record::NO_REF;
                r.mate_pos = 0;
                r.tlen = 0;
                r.flags.set(Flags::PROPER_PAIR, false);
            }
        }
    }
}

fn place_unmapped_at_mate(unmapped: &mut SamRecord, mapped: &mut SamRecord) {
    unmapped.ref_id = mapped.ref_id;
    unmapped.pos = mapped.pos;
    unmapped.cigar = Cigar::unmapped();
    unmapped.mapq = 0;
    unmapped.mate_ref_id = mapped.ref_id;
    unmapped.mate_pos = mapped.pos;
    unmapped.tlen = 0;
    mapped.mate_ref_id = mapped.ref_id;
    mapped.mate_pos = mapped.pos;
    mapped.tlen = 0;
    unmapped.flags.set(Flags::PROPER_PAIR, false);
    mapped.flags.set(Flags::PROPER_PAIR, false);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped(name: &str, ref_id: i32, pos: i64, len: u32, reverse: bool) -> SamRecord {
        let mut r = SamRecord::unmapped(name, vec![b'A'; len as usize], vec![30; len as usize]);
        r.flags = Flags(Flags::PAIRED);
        r.flags.set(Flags::REVERSE, reverse);
        r.ref_id = ref_id;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = Cigar::full_match(len);
        r
    }

    #[test]
    fn stale_fields_are_repaired() {
        let mut a = mapped("p", 0, 100, 100, false);
        let mut b = mapped("p", 0, 400, 100, true);
        // Stale garbage.
        a.mate_pos = 77;
        a.tlen = -1;
        b.mate_ref_id = 5;
        let mut recs = vec![a, b];
        let stats = fix_mate_information(&mut recs);
        assert_eq!(stats.pairs_fixed, 1);
        assert_eq!(recs[0].mate_pos, 400);
        assert_eq!(recs[1].mate_pos, 100);
        assert_eq!(recs[0].tlen, 400);
        assert_eq!(recs[1].tlen, -400);
        assert!(recs[0].flags.is_mate_reverse());
        assert!(!recs[1].flags.is_mate_reverse());
    }

    #[test]
    fn order_in_input_does_not_matter() {
        let a = mapped("p", 0, 400, 50, true);
        let b = mapped("p", 0, 100, 50, false);
        let mut recs = vec![a, b];
        fix_mate_information(&mut recs);
        // Leftmost (pos 100) gets positive tlen: 449 - 100 + 1.
        assert_eq!(recs[1].tlen, 350);
        assert_eq!(recs[0].tlen, -350);
    }

    #[test]
    fn unmapped_mate_placed() {
        let a = mapped("p", 0, 250, 100, false);
        let mut b = SamRecord::unmapped("p", vec![b'C'; 100], vec![20; 100]);
        b.flags.set(Flags::PAIRED, true);
        b.mapq = 9; // stale
        let mut recs = vec![a, b];
        fix_mate_information(&mut recs);
        assert_eq!(recs[1].pos, 250);
        assert_eq!(recs[1].ref_id, 0);
        assert_eq!(recs[1].mapq, 0);
        assert!(recs[0].flags.is_mate_unmapped());
        assert!(!recs[1].flags.is_mate_unmapped());
    }

    #[test]
    fn cross_chromosome_pair_not_proper() {
        let mut a = mapped("p", 0, 100, 50, false);
        let mut b = mapped("p", 1, 900, 50, true);
        a.flags.set(Flags::PROPER_PAIR, true);
        b.flags.set(Flags::PROPER_PAIR, true);
        let mut recs = vec![a, b];
        fix_mate_information(&mut recs);
        assert!(!recs[0].flags.is_proper_pair());
        assert_eq!(recs[0].tlen, 0);
        assert_eq!(recs[0].mate_ref_id, 1);
    }

    #[test]
    fn widowed_reads_counted_and_untouched() {
        let mut a = mapped("alone", 0, 100, 50, false);
        a.mate_pos = 123; // stale but cannot be fixed without the mate
        let mut recs = vec![a];
        let stats = fix_mate_information(&mut recs);
        assert_eq!(stats.widowed, 1);
        assert_eq!(stats.pairs_fixed, 0);
        assert_eq!(recs[0].mate_pos, 123);
    }

    #[test]
    fn secondary_records_ignored() {
        let a = mapped("p", 0, 100, 50, false);
        let b = mapped("p", 0, 300, 50, true);
        let mut sec = mapped("p", 1, 999, 50, false);
        sec.flags.set(Flags::SECONDARY, true);
        let mut recs = vec![a, sec, b];
        let stats = fix_mate_information(&mut recs);
        assert_eq!(stats.pairs_fixed, 1);
        // Secondary untouched.
        assert_eq!(recs[1].pos, 999);
        assert_eq!(recs[0].mate_pos, 300);
    }
}
