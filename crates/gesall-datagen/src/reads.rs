//! Paired-end read simulation.
//!
//! Models the relevant physics of an Illumina-style sequencer:
//!
//! * fragments sampled uniformly from a random haplotype, insert size
//!   normally distributed (the distribution parallel Bwa re-estimates per
//!   batch — paper Appendix B.2);
//! * fixed-length reads from both fragment ends, the reverse read
//!   reverse-complemented;
//! * base-call errors with a position-dependent rate — read ends are lower
//!   quality (the premise of Base Recalibration, Table 2 steps 11–12);
//! * PCR duplicates: a configurable fraction of fragments are re-amplified
//!   copies of earlier fragments (what MarkDuplicates must find).

use crate::donor::DonorGenome;
use crate::reference::ReferenceGenome;
use gesall_formats::dna::reverse_complement;
use gesall_formats::fastq::{FastqRecord, ReadPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct ReadSimConfig {
    /// Number of read pairs to emit (duplicates included).
    pub n_pairs: usize,
    /// Read length in bases.
    pub read_len: usize,
    /// Mean insert (fragment) size.
    pub insert_mean: f64,
    /// Insert size standard deviation.
    pub insert_sd: f64,
    /// Base error probability at the best (central) cycle.
    pub base_error: f64,
    /// Additional error probability at the last cycle (ramps linearly
    /// from the read's midpoint).
    pub end_error_boost: f64,
    /// Fraction of pairs that are PCR duplicates of an earlier fragment.
    pub duplicate_rate: f64,
    pub seed: u64,
}

impl Default for ReadSimConfig {
    fn default() -> ReadSimConfig {
        ReadSimConfig {
            n_pairs: 10_000,
            read_len: 100,
            insert_mean: 400.0,
            insert_sd: 50.0,
            base_error: 0.001,
            end_error_boost: 0.01,
            duplicate_rate: 0.05,
            seed: 1234,
        }
    }
}

/// Where a simulated fragment truly came from — retained for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentOrigin {
    pub chrom_index: usize,
    pub haplotype: usize,
    /// 0-based reference position of the fragment's first base.
    pub ref_start: i64,
    /// Fragment (insert) length on the haplotype.
    pub insert_len: usize,
    /// `Some(original pair index)` when this pair is a PCR duplicate.
    pub duplicate_of: Option<usize>,
}

/// The simulator.
pub struct ReadSimulator<'a> {
    reference: &'a ReferenceGenome,
    donor: &'a DonorGenome,
    config: ReadSimConfig,
}

impl<'a> ReadSimulator<'a> {
    pub fn new(
        reference: &'a ReferenceGenome,
        donor: &'a DonorGenome,
        config: ReadSimConfig,
    ) -> ReadSimulator<'a> {
        assert!(
            config.read_len * 2 < config.insert_mean as usize * 2,
            "reads longer than fragments"
        );
        ReadSimulator {
            reference,
            donor,
            config,
        }
    }

    /// Run the simulation, returning the pairs and their true origins
    /// (parallel vectors).
    pub fn simulate(&self) -> (Vec<ReadPair>, Vec<FragmentOrigin>) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut pairs = Vec::with_capacity(cfg.n_pairs);
        let mut origins: Vec<FragmentOrigin> = Vec::with_capacity(cfg.n_pairs);

        // Chromosome sampling weighted by length.
        let lens: Vec<usize> = self.reference.chromosomes.iter().map(|c| c.len()).collect();
        let total_len: usize = lens.iter().sum();

        for serial in 0..cfg.n_pairs {
            let dup_source = if serial > 0 && rng.gen_bool(cfg.duplicate_rate) {
                // Re-amplify a random earlier *original* fragment.
                let k = rng.gen_range(0..origins.len());
                Some(origins[k].duplicate_of.unwrap_or(k))
            } else {
                None
            };

            let origin = match dup_source {
                Some(orig_idx) => FragmentOrigin {
                    duplicate_of: Some(orig_idx),
                    ..origins[orig_idx].clone()
                },
                None => self.sample_fragment(&mut rng, &lens, total_len),
            };

            let (r1_seq, r2_seq) = self.extract_reads(&origin);
            let name = format!(
                "sim{serial:08}_{}_{}{}",
                self.reference.chromosomes[origin.chrom_index].name,
                origin.ref_start + 1,
                if origin.duplicate_of.is_some() { "_dup" } else { "" }
            );
            let (s1, q1) = self.apply_errors(&mut rng, r1_seq);
            let (s2, q2) = self.apply_errors(&mut rng, r2_seq);
            let r1 = FastqRecord {
                name: name.clone(),
                seq: s1,
                qual: q1,
            };
            let r2 = FastqRecord {
                name,
                seq: s2,
                qual: q2,
            };
            pairs.push(ReadPair { r1, r2 });
            origins.push(origin);
        }
        (pairs, origins)
    }

    fn sample_fragment(
        &self,
        rng: &mut StdRng,
        lens: &[usize],
        total_len: usize,
    ) -> FragmentOrigin {
        let cfg = &self.config;
        loop {
            // Weighted chromosome pick.
            let mut roll = rng.gen_range(0..total_len);
            let mut chrom_index = 0;
            for (i, &l) in lens.iter().enumerate() {
                if roll < l {
                    chrom_index = i;
                    break;
                }
                roll -= l;
            }
            let haplotype = rng.gen_range(0..2usize);
            let hap = &self.donor.haplotypes[chrom_index][haplotype];
            let insert_len = (normal(rng, cfg.insert_mean, cfg.insert_sd).round() as i64)
                .max(2 * cfg.read_len as i64) as usize;
            if hap.seq.len() <= insert_len {
                continue;
            }
            let hap_start = rng.gen_range(0..hap.seq.len() - insert_len);
            let ref_start = hap.ref_pos[hap_start] as i64;
            return FragmentOrigin {
                chrom_index,
                haplotype,
                ref_start,
                insert_len,
                duplicate_of: None,
            };
        }
    }

    /// Pull the two read sequences (error-free) for a fragment. The
    /// reverse read is reverse-complemented, as sequencers emit it.
    fn extract_reads(&self, origin: &FragmentOrigin) -> (Vec<u8>, Vec<u8>) {
        let cfg = &self.config;
        let hap = &self.donor.haplotypes[origin.chrom_index][origin.haplotype];
        // Recover the haplotype start from the reference start.
        let hap_start = hap
            .ref_pos
            .partition_point(|&p| (p as i64) < origin.ref_start);
        let start = hap_start.min(hap.seq.len().saturating_sub(origin.insert_len));
        let frag = &hap.seq[start..start + origin.insert_len];
        let r1 = frag[..cfg.read_len].to_vec();
        let r2 = reverse_complement(&frag[frag.len() - cfg.read_len..]);
        (r1, r2)
    }

    /// Introduce sequencing errors and derive per-base quality scores.
    fn apply_errors(&self, rng: &mut StdRng, mut seq: Vec<u8>) -> (Vec<u8>, Vec<u8>) {
        let cfg = &self.config;
        let n = seq.len();
        let mut qual = Vec::with_capacity(n);
        for (i, base) in seq.iter_mut().enumerate() {
            // Error rate ramps up over the second half of the read.
            let ramp = if n > 1 {
                (i as f64 / (n - 1) as f64 - 0.5).max(0.0) * 2.0
            } else {
                0.0
            };
            let p_err = cfg.base_error + cfg.end_error_boost * ramp;
            let q = gesall_formats::quality::error_prob_to_phred(p_err).min(40);
            // Reported quality wobbles ±3 around the true value, so the
            // base recalibrator has systematic bias to find.
            let reported = (q as i32 + rng.gen_range(-3i32..=3)).clamp(2, 41) as u8;
            qual.push(reported);
            if rng.gen_bool(p_err) {
                let cur = *base;
                let alt = loop {
                    let c = b"ACGT"[rng.gen_range(0..4usize)];
                    if c != cur {
                        break c;
                    }
                };
                *base = alt;
            }
        }
        (seq, qual)
    }
}

/// Box–Muller standard-normal sample scaled to (mean, sd).
fn normal(rng: &mut StdRng, mean: f64, sd: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + sd * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::donor::DonorConfig;
    use crate::reference::GenomeConfig;

    fn setup(n_pairs: usize) -> (Vec<ReadPair>, Vec<FragmentOrigin>) {
        let reference = ReferenceGenome::generate(&GenomeConfig::tiny());
        let donor = DonorGenome::generate(&reference, &DonorConfig::default());
        let cfg = ReadSimConfig {
            n_pairs,
            ..ReadSimConfig::default()
        };
        let sim = ReadSimulator::new(&reference, &donor, cfg);
        sim.simulate()
    }

    #[test]
    fn emits_requested_pairs_with_valid_shapes() {
        let (pairs, origins) = setup(500);
        assert_eq!(pairs.len(), 500);
        assert_eq!(origins.len(), 500);
        for p in &pairs {
            assert_eq!(p.r1.len(), 100);
            assert_eq!(p.r2.len(), 100);
            assert_eq!(p.r1.name, p.r2.name);
            assert_eq!(p.r1.qual.len(), 100);
        }
        // Names unique across pairs.
        let mut names: Vec<&str> = pairs.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 500);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = setup(100);
        let (b, _) = setup(100);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_rate_is_respected() {
        let (_, origins) = setup(4000);
        let dups = origins.iter().filter(|o| o.duplicate_of.is_some()).count();
        let rate = dups as f64 / origins.len() as f64;
        assert!(
            (0.02..0.09).contains(&rate),
            "duplicate rate {rate} far from configured 0.05"
        );
        // duplicate_of always points at an original, never another dup.
        for o in &origins {
            if let Some(k) = o.duplicate_of {
                assert!(origins[k].duplicate_of.is_none());
            }
        }
    }

    #[test]
    fn duplicates_share_fragment_coordinates() {
        let (_, origins) = setup(2000);
        for o in &origins {
            if let Some(k) = o.duplicate_of {
                let orig = &origins[k];
                assert_eq!(o.ref_start, orig.ref_start);
                assert_eq!(o.insert_len, orig.insert_len);
                assert_eq!(o.chrom_index, orig.chrom_index);
            }
        }
    }

    #[test]
    fn reads_match_haplotype_modulo_errors() {
        let reference = ReferenceGenome::generate(&GenomeConfig::tiny());
        let donor = DonorGenome::generate(&reference, &DonorConfig::default());
        let cfg = ReadSimConfig {
            n_pairs: 200,
            base_error: 0.0,
            end_error_boost: 0.0,
            duplicate_rate: 0.0,
            ..ReadSimConfig::default()
        };
        let sim = ReadSimulator::new(&reference, &donor, cfg);
        let (pairs, origins) = sim.simulate();
        for (p, o) in pairs.iter().zip(&origins) {
            let hap = &donor.haplotypes[o.chrom_index][o.haplotype];
            let hap_start = hap.ref_pos.partition_point(|&q| (q as i64) < o.ref_start);
            let frag = &hap.seq[hap_start..hap_start + o.insert_len];
            assert_eq!(p.r1.seq, &frag[..100], "r1 mismatch");
            assert_eq!(p.r2.seq, reverse_complement(&frag[frag.len() - 100..]));
        }
    }

    #[test]
    fn insert_size_distribution_plausible() {
        let (_, origins) = setup(3000);
        let mean: f64 = origins.iter().map(|o| o.insert_len as f64).sum::<f64>()
            / origins.len() as f64;
        assert!(
            (360.0..440.0).contains(&mean),
            "insert mean {mean} far from configured 400"
        );
    }

    #[test]
    fn end_quality_is_lower_than_center() {
        let (pairs, _) = setup(1000);
        let mut center = 0f64;
        let mut tail = 0f64;
        for p in &pairs {
            center += p.r1.qual[10] as f64;
            tail += p.r1.qual[99] as f64;
        }
        assert!(
            tail / 1000.0 < center / 1000.0 - 2.0,
            "tail quality should be clearly lower (center {center}, tail {tail})"
        );
    }
}
