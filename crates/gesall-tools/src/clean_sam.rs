//! CleanSam (paper Table 2, step 4): fix CIGAR and mapping-quality
//! fields, and drop reads whose alignment is irreparably inconsistent
//! (e.g. spanning past a chromosome end or "overlapping two
//! chromosomes" in the paper's wording).

use crate::refview::RefView;
use gesall_formats::sam::cigar::{Cigar, CigarOp};
use gesall_formats::sam::SamRecord;

/// What CleanSam did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanStats {
    pub records_in: usize,
    /// Alignments whose reference overhang was converted to soft clip.
    pub cigars_fixed: usize,
    /// Unmapped reads whose mapq was reset to 0.
    pub mapq_fixed: usize,
    /// Records dropped as unsalvageable.
    pub dropped: usize,
}

/// Clean a record set in place (dropping bad records). Mirrors Picard's
/// CleanSam plus the chromosome-overlap removal the paper mentions.
pub fn clean_sam(records: &mut Vec<SamRecord>, reference: RefView<'_>) -> CleanStats {
    let mut stats = CleanStats {
        records_in: records.len(),
        ..CleanStats::default()
    };
    records.retain_mut(|rec| {
        if !rec.is_mapped() {
            // Unmapped reads must carry mapq 0 and no CIGAR.
            if rec.mapq != 0 {
                rec.mapq = 0;
                stats.mapq_fixed += 1;
            }
            if !rec.cigar.is_unmapped() {
                rec.cigar = Cigar::unmapped();
                stats.cigars_fixed += 1;
            }
            return true;
        }
        let chrom_len = reference.chrom_len(rec.ref_id) as i64;
        if chrom_len == 0 || rec.pos > chrom_len {
            // Mapped beyond any reference sequence: unsalvageable.
            stats.dropped += 1;
            return false;
        }
        if rec.end_pos() > chrom_len {
            // Convert the overhanging reference span into a trailing soft
            // clip (Picard's CIGAR fix).
            match clip_overhang(&rec.cigar, rec.pos, chrom_len) {
                Some(fixed) => {
                    rec.cigar = fixed;
                    stats.cigars_fixed += 1;
                }
                None => {
                    stats.dropped += 1;
                    return false;
                }
            }
        }
        true
    });
    stats
}

/// Rewrite `cigar` so the alignment's reference span ends at `chrom_len`,
/// turning the cut query bases into a trailing soft clip. Returns `None`
/// when nothing would remain aligned. The clip wraps past `u32::MAX`, as
/// `Cigar::query_len` does: the CIGAR may be hostile bytes.
fn clip_overhang(cigar: &Cigar, pos: i64, chrom_len: i64) -> Option<Cigar> {
    let budget = chrom_len - pos + 1; // reference bases available
    if budget <= 0 {
        return None;
    }
    let mut remaining = budget as u32;
    let mut ops: Vec<CigarOp> = Vec::new();
    let mut clipped_query: u32 = 0;
    let mut cutting = false;
    for op in &cigar.0 {
        if cutting {
            if op.consumes_query() {
                clipped_query = clipped_query.wrapping_add(op.len());
            }
            continue;
        }
        match *op {
            CigarOp::Match(n) => {
                if n <= remaining {
                    remaining -= n;
                    ops.push(CigarOp::Match(n));
                } else {
                    if remaining > 0 {
                        ops.push(CigarOp::Match(remaining));
                    }
                    clipped_query = clipped_query.wrapping_add(n - remaining);
                    remaining = 0;
                    cutting = true;
                }
            }
            CigarOp::Del(n) | CigarOp::Skip(n) => {
                if n <= remaining {
                    remaining -= n;
                    ops.push(*op);
                } else {
                    remaining = 0;
                    cutting = true;
                }
            }
            CigarOp::Ins(_) | CigarOp::SoftClip(_) | CigarOp::HardClip(_) => {
                ops.push(*op);
            }
        }
        if remaining == 0 && !cutting {
            cutting = true;
        }
    }
    // Drop trailing deletions exposed by the cut.
    while matches!(ops.last(), Some(CigarOp::Del(_) | CigarOp::Skip(_))) {
        ops.pop();
    }
    if clipped_query > 0 {
        // Merge with an existing trailing soft clip if the cut landed
        // right before one.
        if let Some(CigarOp::SoftClip(s)) = ops.last_mut() {
            *s = s.wrapping_add(clipped_query);
        } else {
            ops.push(CigarOp::SoftClip(clipped_query));
        }
    }
    let fixed = Cigar(ops);
    if fixed.0.iter().any(|op| matches!(op, CigarOp::Match(_))) {
        Some(fixed)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::Flags;

    fn mapped(pos: i64, cigar: &str) -> SamRecord {
        let cigar = Cigar::parse(cigar).unwrap();
        let qlen = cigar.query_len() as usize;
        let mut r = SamRecord::unmapped("r", vec![b'A'; qlen], vec![30; qlen]);
        r.flags = Flags(0);
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = cigar;
        r
    }

    fn refv(seqs: &[Vec<u8>]) -> RefView<'_> {
        RefView::new(seqs)
    }

    #[test]
    fn clean_record_untouched() {
        let seqs = vec![vec![b'A'; 1000]];
        let mut recs = vec![mapped(100, "50M")];
        let stats = clean_sam(&mut recs, refv(&seqs));
        assert_eq!(stats.cigars_fixed, 0);
        assert_eq!(stats.dropped, 0);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].cigar.to_string(), "50M");
    }

    #[test]
    fn overhang_becomes_soft_clip() {
        let seqs = vec![vec![b'A'; 120]];
        // 50M at pos 100 would span to 149 — 30 bases overhang.
        let mut recs = vec![mapped(100, "50M")];
        let stats = clean_sam(&mut recs, refv(&seqs));
        assert_eq!(stats.cigars_fixed, 1);
        assert_eq!(recs[0].cigar.to_string(), "21M29S");
        assert_eq!(recs[0].end_pos(), 120);
        recs[0].validate().unwrap();
    }

    #[test]
    fn overhang_merges_with_existing_clip() {
        let seqs = vec![vec![b'A'; 110]];
        let mut recs = vec![mapped(100, "20M5S")];
        clean_sam(&mut recs, refv(&seqs));
        assert_eq!(recs[0].cigar.to_string(), "11M14S");
        assert_eq!(recs[0].cigar.query_len(), 25);
    }

    #[test]
    fn fully_overhanging_read_dropped() {
        let seqs = vec![vec![b'A'; 100]];
        let mut recs = vec![mapped(150, "20M")];
        let stats = clean_sam(&mut recs, refv(&seqs));
        assert_eq!(stats.dropped, 1);
        assert!(recs.is_empty());
    }

    #[test]
    fn read_on_unknown_chromosome_dropped() {
        let seqs = vec![vec![b'A'; 100]];
        let mut r = mapped(10, "5M");
        r.ref_id = 7;
        let mut recs = vec![r];
        let stats = clean_sam(&mut recs, refv(&seqs));
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn unmapped_read_normalized() {
        let seqs = vec![vec![b'A'; 100]];
        let mut r = SamRecord::unmapped("u", b"ACGT".to_vec(), vec![2; 4]);
        r.mapq = 37; // bogus
        r.cigar = Cigar::parse("4M").unwrap(); // bogus
        let mut recs = vec![r];
        let stats = clean_sam(&mut recs, refv(&seqs));
        assert_eq!(stats.mapq_fixed, 1);
        assert_eq!(stats.cigars_fixed, 1);
        assert_eq!(recs[0].mapq, 0);
        assert!(recs[0].cigar.is_unmapped());
    }

    #[test]
    fn deletion_at_cut_point_trimmed() {
        let seqs = vec![vec![b'A'; 105]];
        // 10M5D10M at pos 95: M spans 95..104, D spans 105..109 overhangs.
        let mut recs = vec![mapped(95, "10M5D10M")];
        clean_sam(&mut recs, refv(&seqs));
        let t = recs[0].cigar.to_string();
        assert!(
            !t.contains('D'),
            "trailing deletion must not survive the cut: {t}"
        );
        assert!(recs[0].end_pos() <= 105);
        recs[0].validate().unwrap();
        assert_eq!(recs[0].cigar.query_len(), 20);
    }

    #[test]
    fn hostile_cigar_lengths_wrap_instead_of_panicking() {
        // Every op fits a u32 but the sums do not: a debug build used to
        // panic adding them, here and in each reader below. Release
        // bytes are the wrapped ones, as before.
        use gesall_formats::bam::BamWriter;
        use gesall_formats::sam::SamHeader;
        use gesall_formats::wire::Wire;
        use gesall_formats::FormatError;
        let seqs = vec![vec![b'A'; 1000]];
        for text in [
            "4294967295M4294967295M",
            "4294967295H4294967295S1M4294967295S4294967295H",
        ] {
            let mut forged = mapped(100, "1M");
            forged.cigar = Cigar::parse(text).unwrap();
            let rec = SamRecord::from_wire_bytes(&forged.to_wire_bytes()).unwrap();
            assert_eq!(rec.cigar.to_string(), text);
            rec.cigar.query_len();
            rec.cigar.reference_len();
            rec.end_pos();
            rec.unclipped_5p_end();
            rec.overlaps(0, 1, 1000);
            assert!(matches!(rec.validate(), Err(FormatError::Sam(_))), "{text}");
            let mut writer = BamWriter::new(&SamHeader::new(Vec::new()));
            writer.write_record(&rec);
            writer.finish();
            clean_sam(&mut vec![rec], refv(&seqs));
        }
    }
}
