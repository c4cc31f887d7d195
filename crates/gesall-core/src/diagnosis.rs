//! The error-diagnosis toolkit (paper §3.4 / §4.5.2).
//!
//! For a serial pipeline `P = O₁…O_k` and its parallel counterpart
//! `P̄ = Ō₁…Ō_k`, the toolkit computes, at any step `i`:
//!
//! * the concordant set Φ⁺ᵢ = Rᵢ ∩ R̄ᵢ and discordant set
//!   Φ⁻ᵢ = (Rᵢ ∪ R̄ᵢ) \ (Rᵢ ∩ R̄ᵢ);
//! * **D-count** = |Φ⁻ᵢ| and its quality-weighted version (a
//!   generalized-logistic weight that zeroes low-quality records:
//!   weight 0 at mapq ≤ 30, weight 1 at mapq ≥ 55);
//! * **D-impact** Ψ(P̄ᵢ): the discordance of *final variant calls* after
//!   running the serial tail from step i+1 (the hybrid pipeline) — the
//!   measure the bioinformaticians consider decisive.

use gesall_formats::quality::LogisticWeight;
use gesall_formats::sam::SamRecord;
use gesall_formats::vcf::VariantRecord;
use gesall_tools::vcf_metrics::{split_call_sets, variant_set_metrics, VariantSetMetrics};
use std::collections::HashMap;

/// The identity of one read end: (name, first-in-pair?).
pub type ReadId = (String, bool);

/// What we compare between two alignments of the same read end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentSignature {
    pub ref_id: i32,
    pub pos: i64,
    pub reverse: bool,
    pub cigar: String,
    pub duplicate: bool,
}

impl AlignmentSignature {
    pub fn of(rec: &SamRecord) -> AlignmentSignature {
        AlignmentSignature {
            ref_id: rec.ref_id,
            pos: rec.pos,
            reverse: rec.flags.is_reverse(),
            cigar: rec.cigar.to_string(),
            duplicate: rec.flags.is_duplicate(),
        }
    }
}

/// One discordant read end, with both versions' context.
#[derive(Debug, Clone)]
pub struct DiscordantRead {
    pub id: ReadId,
    pub serial: AlignmentSignature,
    pub parallel: AlignmentSignature,
    pub serial_mapq: u8,
    pub parallel_mapq: u8,
}

/// The alignment-level diff of a serial vs parallel record set.
#[derive(Debug, Clone)]
pub struct AlignmentDiff {
    /// Read ends present in both and identical.
    pub concordant: u64,
    /// Read ends that differ (the discordant set Φ⁻).
    pub discordant: Vec<DiscordantRead>,
    /// Read ends present in only one output (should be 0 for a correct
    /// platform — partitioning must not lose reads).
    pub missing: u64,
}

impl AlignmentDiff {
    /// D-count: |Φ⁻| (plus any missing reads).
    pub fn d_count(&self) -> u64 {
        self.discordant.len() as u64 + self.missing
    }

    /// Quality-weighted D-count with the paper's mapq weighting.
    pub fn weighted_d_count(&self) -> f64 {
        let w = LogisticWeight::mapq_default();
        self.discordant
            .iter()
            .map(|d| w.weight(d.serial_mapq.max(d.parallel_mapq) as f64))
            .sum::<f64>()
            + self.missing as f64
    }

    /// Weighted D-count as a percentage of total compared reads.
    pub fn weighted_d_count_pct(&self, total_reads: u64) -> f64 {
        100.0 * self.weighted_d_count() / total_reads.max(1) as f64
    }

    /// Fraction of discordant reads that are low quality in both runs
    /// (mapq < 30) — the paper's main observation about *where*
    /// discordance lives.
    pub fn low_quality_fraction(&self) -> f64 {
        if self.discordant.is_empty() {
            return 0.0;
        }
        let low = self
            .discordant
            .iter()
            .filter(|d| d.serial_mapq < 30 && d.parallel_mapq < 30)
            .count();
        low as f64 / self.discordant.len() as f64
    }
}

/// Compare two alignment outputs by read end. Secondary/supplementary
/// records are excluded (primary semantics, like the paper's diffs).
pub fn diff_alignments(serial: &[SamRecord], parallel: &[SamRecord]) -> AlignmentDiff {
    let index = |records: &[SamRecord]| -> HashMap<ReadId, (AlignmentSignature, u8)> {
        let mut m = HashMap::new();
        for r in records {
            if !r.flags.is_primary() {
                continue;
            }
            let id = (r.name.clone(), !r.flags.is_second_in_pair());
            m.insert(id, (AlignmentSignature::of(r), r.mapq));
        }
        m
    };
    let s = index(serial);
    let mut p = index(parallel);
    let mut concordant = 0u64;
    let mut discordant = Vec::new();
    let mut missing = 0u64;
    for (id, (sig_s, mapq_s)) in s {
        match p.remove(&id) {
            None => missing += 1,
            Some((sig_p, mapq_p)) => {
                if sig_s == sig_p {
                    concordant += 1;
                } else {
                    discordant.push(DiscordantRead {
                        id,
                        serial: sig_s,
                        parallel: sig_p,
                        serial_mapq: mapq_s,
                        parallel_mapq: mapq_p,
                    });
                }
            }
        }
    }
    missing += p.len() as u64;
    AlignmentDiff {
        concordant,
        discordant,
        missing,
    }
}

/// The variant-level diff: D-impact Ψ and its weighted version.
#[derive(Debug, Clone)]
pub struct VariantDiff {
    /// Calls in both sets (the serial set's records).
    pub intersection: Vec<VariantRecord>,
    pub only_serial: Vec<VariantRecord>,
    pub only_parallel: Vec<VariantRecord>,
}

impl VariantDiff {
    /// Calls in both sets.
    pub fn concordant(&self) -> usize {
        self.intersection.len()
    }

    /// D-impact: |Ψ| = discordant variant count.
    pub fn d_impact(&self) -> usize {
        self.only_serial.len() + self.only_parallel.len()
    }

    /// Quality-weighted D-impact (logistic weight over variant QUAL; the
    /// paper uses a companion weighting for variant quality scores).
    /// Folded from +0.0: `f64`'s `Sum` starts at -0.0, and a report
    /// would print an empty discordant set's impact as "-0.0".
    pub fn weighted_d_impact(&self) -> f64 {
        let w = LogisticWeight::new(30.0, 100.0);
        (self.only_serial.iter().chain(&self.only_parallel)).fold(0.0, |sum, v| sum + w.weight(v.qual))
    }

    /// Weighted D-impact as a percentage of all calls.
    pub fn weighted_d_impact_pct(&self) -> f64 {
        let total = self.concordant() + self.d_impact();
        100.0 * self.weighted_d_impact() / total.max(1) as f64
    }

    /// Quality-metric rows for (intersection, serial-only,
    /// parallel-only) — the paper's Tables 9/10.
    pub fn metric_rows(&self) -> (VariantSetMetrics, VariantSetMetrics, VariantSetMetrics) {
        (
            variant_set_metrics(&self.intersection),
            variant_set_metrics(&self.only_serial),
            variant_set_metrics(&self.only_parallel),
        )
    }
}

/// Diff two variant call sets by site identity.
pub fn diff_variants(serial: &[VariantRecord], parallel: &[VariantRecord]) -> VariantDiff {
    let split = split_call_sets(serial, parallel);
    VariantDiff {
        intersection: split.intersection,
        only_serial: split.only_a,
        only_parallel: split.only_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::{Cigar, Flags};
    use gesall_formats::vcf::Genotype;

    fn rec(name: &str, first: bool, pos: i64, mapq: u8) -> SamRecord {
        let mut r = SamRecord::unmapped(name, vec![b'A'; 50], vec![30; 50]);
        let mut f = Flags(Flags::PAIRED);
        f.set(
            if first {
                Flags::FIRST_IN_PAIR
            } else {
                Flags::SECOND_IN_PAIR
            },
            true,
        );
        r.flags = f;
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = mapq;
        r.cigar = Cigar::full_match(50);
        r
    }

    fn var(pos: i64, qual: f64) -> VariantRecord {
        VariantRecord {
            chrom: "chr1".into(),
            pos,
            ref_allele: "A".into(),
            alt_allele: "G".into(),
            qual,
            genotype: Genotype::Het,
            depth: 30,
            mapping_quality: 55.0,
            fisher_strand: 0.5,
            allele_balance: 0.5,
        }
    }

    #[test]
    fn identical_outputs_are_fully_concordant() {
        let a = vec![rec("r1", true, 100, 60), rec("r1", false, 300, 60)];
        let d = diff_alignments(&a, &a.clone());
        assert_eq!(d.concordant, 2);
        assert_eq!(d.d_count(), 0);
        assert_eq!(d.weighted_d_count(), 0.0);
    }

    #[test]
    fn position_flip_is_discordant_weighted_by_quality() {
        let serial = vec![rec("r1", true, 100, 60), rec("r2", true, 500, 10)];
        let mut parallel = serial.clone();
        parallel[0].pos = 200; // high-quality flip
        parallel[1].pos = 700; // low-quality flip
        let d = diff_alignments(&serial, &parallel);
        assert_eq!(d.d_count(), 2);
        // Only the mapq-60 flip carries weight.
        assert!((d.weighted_d_count() - 1.0).abs() < 1e-9);
        assert!((d.low_quality_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn duplicate_flag_differences_count() {
        let serial = vec![rec("r1", true, 100, 60)];
        let mut parallel = serial.clone();
        parallel[0].flags.set(Flags::DUPLICATE, true);
        let d = diff_alignments(&serial, &parallel);
        assert_eq!(d.d_count(), 1);
    }

    #[test]
    fn missing_reads_detected() {
        let serial = vec![rec("r1", true, 100, 60), rec("r2", true, 200, 60)];
        let parallel = vec![rec("r1", true, 100, 60)];
        let d = diff_alignments(&serial, &parallel);
        assert_eq!(d.missing, 1);
        assert_eq!(d.d_count(), 1);
    }

    #[test]
    fn mates_are_distinct_read_ends() {
        let serial = vec![rec("r1", true, 100, 60), rec("r1", false, 400, 60)];
        let mut parallel = serial.clone();
        parallel[1].pos = 450; // only the second end moves
        let d = diff_alignments(&serial, &parallel);
        assert_eq!(d.concordant, 1);
        assert_eq!(d.discordant.len(), 1);
        assert!(!d.discordant[0].id.1, "second-in-pair flagged");
    }

    #[test]
    fn variant_diff_and_weighting() {
        let serial = vec![var(1, 200.0), var(2, 200.0), var(3, 15.0)];
        let parallel = vec![var(1, 200.0), var(4, 200.0)];
        let d = diff_variants(&serial, &parallel);
        assert_eq!(d.concordant(), 1);
        assert_eq!(d.d_impact(), 3); // pos 2, 3 serial-only; pos 4 parallel-only
        // pos-3 call is low quality → weight ~0; two confident ones → ~2.
        let w = d.weighted_d_impact();
        assert!((w - 2.0).abs() < 0.01, "weighted {w}");
        let pct = d.weighted_d_impact_pct();
        assert!(pct > 0.0 && pct < 100.0);
    }

    #[test]
    fn metric_rows_shapes() {
        let serial = vec![var(1, 200.0), var(2, 50.0)];
        let parallel = vec![var(1, 200.0), var(9, 40.0)];
        let d = diff_variants(&serial, &parallel);
        let (inter, s_only, p_only) = d.metric_rows();
        assert_eq!(inter.n, 1);
        assert_eq!(s_only.n, 1);
        assert_eq!(p_only.n, 1);
        assert!(inter.mean_qual > s_only.mean_qual);
    }
}
