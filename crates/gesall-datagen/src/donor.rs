//! Diploid donor genomes with a ground-truth variant set.
//!
//! The donor is the "test genome" being sequenced: two haplotypes derived
//! from the reference by spiking in SNPs and small indels. The spiked
//! variants form the truth set against which called variants are scored
//! (precision/sensitivity, Appendix B.3 of the paper).

use crate::reference::ReferenceGenome;
use gesall_formats::vcf::Genotype;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One ground-truth variant in reference coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthVariant {
    pub chrom: String,
    /// 1-based reference position of the first affected base.
    pub pos: i64,
    pub ref_allele: String,
    pub alt_allele: String,
    pub genotype: Genotype,
}

/// One haplotype of one chromosome, plus the reference coordinate of each
/// haplotype base (needed to translate simulated read positions back).
#[derive(Debug, Clone)]
pub struct Haplotype {
    pub seq: Vec<u8>,
    /// `ref_pos[i]` = 0-based reference position that haplotype base `i`
    /// derives from (insertions repeat the anchor position).
    pub ref_pos: Vec<u32>,
}

/// Parameters for donor synthesis.
#[derive(Debug, Clone)]
pub struct DonorConfig {
    /// SNPs per base (human het rate ≈ 1e-3).
    pub snp_rate: f64,
    /// Indels per base (≈ 1e-4 in humans).
    pub indel_rate: f64,
    /// Maximum indel length.
    pub max_indel_len: usize,
    /// Fraction of variants that are homozygous (on both haplotypes).
    pub hom_fraction: f64,
    pub seed: u64,
}

impl Default for DonorConfig {
    fn default() -> DonorConfig {
        DonorConfig {
            snp_rate: 1e-3,
            indel_rate: 1e-4,
            max_indel_len: 8,
            hom_fraction: 0.35,
            seed: 7,
        }
    }
}

/// A diploid donor: per chromosome, two haplotypes, plus the truth set.
#[derive(Debug, Clone)]
pub struct DonorGenome {
    /// Indexed like the reference's chromosomes: `haplotypes[c] = [h0, h1]`.
    pub haplotypes: Vec<[Haplotype; 2]>,
    /// All spiked variants sorted by (chromosome index, position).
    pub truth: Vec<TruthVariant>,
}

impl DonorGenome {
    /// Derive a donor from a reference. Deterministic in `config.seed`.
    pub fn generate(reference: &ReferenceGenome, config: &DonorConfig) -> DonorGenome {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut haplotypes = Vec::new();
        let mut truth = Vec::new();

        for chrom in &reference.chromosomes {
            // Choose variant sites on the reference, far enough apart that
            // alleles never overlap (simplifies haplotype construction and
            // matches the sparse-variant regime of real genomes).
            let min_gap = config.max_indel_len + 2;
            let mut sites: Vec<Variant> = Vec::new();
            let mut pos = 1usize; // skip position 0 so indel anchors exist
            while pos + min_gap < chrom.seq.len() {
                let roll: f64 = rng.gen();
                if roll < config.snp_rate {
                    let r = chrom.seq[pos];
                    // Transitions (A<->G, C<->T) dominate real mutation
                    // spectra: bias 2:1 so called Ti/Tv lands near 2, as
                    // quality metrics expect.
                    let transition_partner = match r {
                        b'A' => b'G',
                        b'G' => b'A',
                        b'C' => b'T',
                        _ => b'C',
                    };
                    let alt = if rng.gen_bool(2.0 / 3.0) {
                        transition_partner
                    } else {
                        *b"ACGT"
                            .iter()
                            .filter(|&&c| c != r && c != transition_partner)
                            .nth(rng.gen_range(0..2))
                            .unwrap()
                    };
                    sites.push(Variant {
                        pos,
                        kind: VarKind::Snp(alt),
                        hom: rng.gen_bool(config.hom_fraction),
                    });
                    pos += min_gap;
                } else if roll < config.snp_rate + config.indel_rate {
                    let len = rng.gen_range(1..=config.max_indel_len);
                    let kind = if rng.gen_bool(0.5) {
                        let ins: Vec<u8> =
                            (0..len).map(|_| b"ACGT"[rng.gen_range(0..4usize)]).collect();
                        VarKind::Ins(ins)
                    } else {
                        VarKind::Del(len)
                    };
                    sites.push(Variant {
                        pos,
                        kind,
                        hom: rng.gen_bool(config.hom_fraction),
                    });
                    pos += min_gap;
                } else {
                    pos += 1;
                }
            }

            // Record truth entries.
            for v in &sites {
                truth.push(v.to_truth(&chrom.name, &chrom.seq));
            }

            // Het variants land on a random single haplotype.
            let hap_choice: Vec<usize> = sites.iter().map(|_| rng.gen_range(0..2)).collect();
            let h0 = apply_variants(&chrom.seq, &sites, &hap_choice, 0);
            let h1 = apply_variants(&chrom.seq, &sites, &hap_choice, 1);
            haplotypes.push([h0, h1]);
        }

        DonorGenome { haplotypes, truth }
    }
}

#[derive(Debug, Clone)]
enum VarKind {
    Snp(u8),
    Ins(Vec<u8>),
    Del(usize),
}

#[derive(Debug, Clone)]
struct Variant {
    /// 0-based reference position of the affected base (SNP) or anchor
    /// base (indel: the base *before* the inserted/deleted run).
    pos: usize,
    kind: VarKind,
    hom: bool,
}

impl Variant {
    fn to_truth(&self, chrom: &str, reference: &[u8]) -> TruthVariant {
        let genotype = if self.hom {
            Genotype::HomAlt
        } else {
            Genotype::Het
        };
        match &self.kind {
            VarKind::Snp(alt) => TruthVariant {
                chrom: chrom.to_string(),
                pos: self.pos as i64 + 1,
                ref_allele: (reference[self.pos] as char).to_string(),
                alt_allele: (*alt as char).to_string(),
                genotype,
            },
            VarKind::Ins(bases) => TruthVariant {
                chrom: chrom.to_string(),
                pos: self.pos as i64 + 1,
                ref_allele: (reference[self.pos] as char).to_string(),
                alt_allele: format!(
                    "{}{}",
                    reference[self.pos] as char,
                    String::from_utf8_lossy(bases)
                ),
                genotype,
            },
            VarKind::Del(len) => TruthVariant {
                chrom: chrom.to_string(),
                pos: self.pos as i64 + 1,
                ref_allele: String::from_utf8_lossy(&reference[self.pos..self.pos + len + 1])
                    .into_owned(),
                alt_allele: (reference[self.pos] as char).to_string(),
                genotype,
            },
        }
    }
}

fn apply_variants(
    reference: &[u8],
    sites: &[Variant],
    hap_choice: &[usize],
    hap: usize,
) -> Haplotype {
    let mut seq = Vec::with_capacity(reference.len() + 64);
    let mut ref_pos = Vec::with_capacity(reference.len() + 64);
    let mut next = 0usize;
    for (v, &choice) in sites.iter().zip(hap_choice) {
        if !v.hom && choice != hap {
            continue; // het variant on the other haplotype
        }
        // Copy reference up to (and including) the anchor/affected base.
        while next <= v.pos {
            seq.push(reference[next]);
            ref_pos.push(next as u32);
            next += 1;
        }
        match &v.kind {
            VarKind::Snp(alt) => {
                *seq.last_mut().expect("anchor base was just pushed") = *alt;
            }
            VarKind::Ins(bases) => {
                for &b in bases {
                    seq.push(b);
                    ref_pos.push(v.pos as u32); // anchored at the insertion point
                }
            }
            VarKind::Del(len) => {
                next += len; // skip deleted reference bases
            }
        }
    }
    while next < reference.len() {
        seq.push(reference[next]);
        ref_pos.push(next as u32);
        next += 1;
    }
    Haplotype { seq, ref_pos }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{GenomeConfig, ReferenceGenome};

    fn setup() -> (ReferenceGenome, DonorGenome) {
        let reference = ReferenceGenome::generate(&GenomeConfig::tiny());
        let donor = DonorGenome::generate(&reference, &DonorConfig::default());
        (reference, donor)
    }

    #[test]
    fn deterministic() {
        let reference = ReferenceGenome::generate(&GenomeConfig::tiny());
        let a = DonorGenome::generate(&reference, &DonorConfig::default());
        let b = DonorGenome::generate(&reference, &DonorConfig::default());
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.haplotypes[0][0].seq, b.haplotypes[0][0].seq);
    }

    #[test]
    fn truth_set_is_nonempty_and_sorted() {
        let (_, donor) = setup();
        assert!(
            donor.truth.len() > 20,
            "expected a decent truth set, got {}",
            donor.truth.len()
        );
        let chr1: Vec<_> = donor.truth.iter().filter(|v| v.chrom == "chr1").collect();
        assert!(chr1.windows(2).all(|w| w[0].pos < w[1].pos));
    }

    #[test]
    fn truth_ref_alleles_match_reference() {
        let (reference, donor) = setup();
        for v in &donor.truth {
            let chrom = reference.chromosome(&v.chrom).unwrap();
            let start = (v.pos - 1) as usize;
            let expect = &chrom.seq[start..start + v.ref_allele.len()];
            assert_eq!(
                v.ref_allele.as_bytes(),
                expect,
                "ref allele mismatch at {}:{}",
                v.chrom,
                v.pos
            );
        }
    }

    #[test]
    fn hom_variants_on_both_haplotypes() {
        let (reference, donor) = setup();
        // For every hom SNP, both haplotypes must carry the alt base.
        for v in donor.truth.iter().filter(|v| {
            v.genotype == Genotype::HomAlt
                && v.ref_allele.len() == 1
                && v.alt_allele.len() == 1
        }) {
            let ci = reference
                .chromosomes
                .iter()
                .position(|c| c.name == v.chrom)
                .unwrap();
            let alt = v.alt_allele.as_bytes()[0];
            for h in 0..2 {
                let hap = &donor.haplotypes[ci][h];
                let hap_i = hap
                    .ref_pos
                    .iter()
                    .position(|&p| p as i64 == v.pos - 1)
                    .unwrap();
                assert_eq!(
                    hap.seq[hap_i], alt,
                    "hom SNP at {}:{} missing on haplotype {h}",
                    v.chrom, v.pos
                );
            }
        }
    }

    #[test]
    fn het_snps_on_exactly_one_haplotype() {
        let (reference, donor) = setup();
        let mut checked = 0;
        for v in donor.truth.iter().filter(|v| {
            v.genotype == Genotype::Het && v.ref_allele.len() == 1 && v.alt_allele.len() == 1
        }) {
            let ci = reference
                .chromosomes
                .iter()
                .position(|c| c.name == v.chrom)
                .unwrap();
            let alt = v.alt_allele.as_bytes()[0];
            let carriers: usize = (0..2)
                .filter(|&h| {
                    let hap = &donor.haplotypes[ci][h];
                    let hap_i = hap
                        .ref_pos
                        .iter()
                        .position(|&p| p as i64 == v.pos - 1)
                        .unwrap();
                    hap.seq[hap_i] == alt
                })
                .count();
            assert_eq!(carriers, 1, "het SNP at {}:{}", v.chrom, v.pos);
            checked += 1;
        }
        assert!(checked > 0, "no het SNPs generated to check");
    }

    #[test]
    fn snp_spectrum_is_transition_biased() {
        // 2:1 transition bias ⇒ Ti/Tv ≈ 2, the value real call-set
        // quality metrics expect.
        let reference = ReferenceGenome::generate(&GenomeConfig {
            chromosome_lengths: vec![400_000],
            ..GenomeConfig::tiny()
        });
        let donor = DonorGenome::generate(&reference, &DonorConfig::default());
        let is_transition = |r: &str, a: &str| {
            matches!(
                (r.as_bytes()[0], a.as_bytes()[0]),
                (b'A', b'G') | (b'G', b'A') | (b'C', b'T') | (b'T', b'C')
            )
        };
        let snps: Vec<_> = donor
            .truth
            .iter()
            .filter(|v| v.ref_allele.len() == 1 && v.alt_allele.len() == 1)
            .collect();
        assert!(snps.len() > 100, "need a decent SNP sample");
        let ti = snps
            .iter()
            .filter(|v| is_transition(&v.ref_allele, &v.alt_allele))
            .count() as f64;
        let tv = snps.len() as f64 - ti;
        let titv = ti / tv;
        assert!(
            (1.4..2.8).contains(&titv),
            "Ti/Tv should be near 2, got {titv}"
        );
    }

    #[test]
    fn indels_shift_haplotype_length() {
        let (reference, donor) = setup();
        let has_indel = donor
            .truth
            .iter()
            .any(|v| v.ref_allele.len() != v.alt_allele.len());
        assert!(has_indel, "expected some indels in the truth set");
        // Haplotype length differs from reference by the net indel sum.
        for (ci, chrom) in reference.chromosomes.iter().enumerate() {
            for h in 0..2 {
                let hap = &donor.haplotypes[ci][h];
                assert_eq!(hap.seq.len(), hap.ref_pos.len());
                let diff = hap.seq.len() as i64 - chrom.seq.len() as i64;
                assert!(diff.unsigned_abs() < 1000);
            }
        }
    }

    #[test]
    fn ref_pos_is_monotone() {
        let (_, donor) = setup();
        for haps in &donor.haplotypes {
            for h in haps {
                assert!(h.ref_pos.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }
}
