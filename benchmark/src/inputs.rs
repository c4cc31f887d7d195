//! Seed → inputs. The workload seed reaches `gesall-datagen` and nothing
//! else: the program under test (aligner, platform, DFS, job service)
//! keeps its own default seeds and sees only the generated genome and
//! reads, so two seeds differ in *what* is processed, never in *how*.

use gesall_aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall_datagen::donor::DonorConfig;
use gesall_datagen::reads::ReadSimConfig;
use gesall_datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall_dfs::checksum::xxh64;
use gesall_formats::fastq::{pairs_to_interleaved_bytes, ReadPair};
use gesall_tools::vcf_metrics::SiteKey;
use std::collections::HashSet;
use std::sync::Arc;

/// The seed the committed digests in `baseline.json` were taken at.
pub const DEFAULT_SEED: u64 = 20170514;

/// Input scale of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub chromosome_lengths: [usize; 2],
    /// Read pairs per read set (2 × 100 bp each).
    pub n_pairs: usize,
}

/// `wgs_hc`, `shuffle_rerun`, `storage_rw`: two chromosomes at ≈ 4.6×,
/// 5 % duplicates. (ISSUE.md prototyped 500 kb + 400 kb × 20 000 pairs;
/// the driver's per-run budget forced the cut — see README.)
pub const PIPELINE_SCALE: Scale = Scale {
    chromosome_lengths: [200_000, 150_000],
    n_pairs: 8_000,
};

/// `tenants_closed`: many tiny jobs, so per-job fixed cost dominates.
pub const TENANT_SCALE: Scale = Scale {
    chromosome_lengths: [120_000, 80_000],
    n_pairs: 800,
};

/// Independent sub-seed for one input stream (splitmix64 finaliser).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const STREAM_GENOME: u64 = 1;
const STREAM_DONOR: u64 = 2;
/// Read set `k` draws from stream `STREAM_READS + k`.
const STREAM_READS: u64 = 16;

/// Every datagen config a workload uses; the only place `seed` lands.
pub fn datagen_configs(
    seed: u64,
    scale: Scale,
    read_set: u64,
) -> (GenomeConfig, DonorConfig, ReadSimConfig) {
    (
        GenomeConfig {
            chromosome_lengths: scale.chromosome_lengths.to_vec(),
            seed: sub_seed(seed, STREAM_GENOME),
            ..GenomeConfig::default()
        },
        DonorConfig {
            seed: sub_seed(seed, STREAM_DONOR),
            ..DonorConfig::default()
        },
        ReadSimConfig {
            n_pairs: scale.n_pairs,
            duplicate_rate: 0.05,
            seed: sub_seed(seed, STREAM_READS + read_set),
            ..ReadSimConfig::default()
        },
    )
}

/// A genome, its donor, and the alignment index over it.
pub struct World {
    pub genome: ReferenceGenome,
    pub donor: DonorGenome,
    pub aligner: Arc<Aligner>,
    pub references: Vec<Vec<u8>>,
    pub chrom_names: Vec<String>,
    pub scale: Scale,
    seed: u64,
}

impl World {
    /// Datagen only (no index): what `setup` spans as `gesall-datagen`.
    pub fn generate_genome(seed: u64, scale: Scale) -> (ReferenceGenome, DonorGenome) {
        let (g, d, _) = datagen_configs(seed, scale, 0);
        let genome = ReferenceGenome::generate(&g);
        let donor = DonorGenome::generate(&genome, &d);
        (genome, donor)
    }

    /// Index build: what `setup` spans as `gesall-aligner`. The aligner
    /// keeps its own default configuration (and seed).
    pub fn with_index(
        seed: u64,
        scale: Scale,
        genome: ReferenceGenome,
        donor: DonorGenome,
    ) -> World {
        let chroms: Vec<(String, Vec<u8>)> = genome
            .chromosomes
            .iter()
            .map(|c| (c.name.clone(), c.seq.clone()))
            .collect();
        let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
        let (chrom_names, references) = chroms.into_iter().unzip();
        World {
            genome,
            donor,
            aligner: Arc::new(aligner),
            references,
            chrom_names,
            scale,
            seed,
        }
    }

    /// Read set `k` sequenced from this world's donor.
    pub fn reads(&self, read_set: u64) -> Vec<ReadPair> {
        let (_, _, r) = datagen_configs(self.seed, self.scale, read_set);
        ReadSimulator::new(&self.genome, &self.donor, r)
            .simulate()
            .0
    }

    /// The donor's spiked variants as call-set site keys.
    pub fn truth_keys(&self) -> HashSet<SiteKey> {
        self.donor
            .truth
            .iter()
            .map(|t| {
                (
                    t.chrom.clone(),
                    t.pos,
                    t.ref_allele.clone(),
                    t.alt_allele.clone(),
                )
            })
            .collect()
    }

    /// Digest of everything the program is handed: reference bases and
    /// names, then each read set.
    pub fn input_digest(&self, read_sets: &[Vec<ReadPair>]) -> u64 {
        let mut parts: Vec<u64> = Vec::new();
        for (name, seq) in self.chrom_names.iter().zip(&self.references) {
            parts.push(xxh64(name.as_bytes()));
            parts.push(xxh64(seq));
        }
        for set in read_sets {
            parts.push(xxh64(&pairs_to_interleaved_bytes(set)));
        }
        combine(&parts)
    }
}

/// Order-sensitive digest of digests.
pub fn combine(parts: &[u64]) -> u64 {
    let bytes: Vec<u8> = parts.iter().flat_map(|p| p.to_le_bytes()).collect();
    xxh64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        chromosome_lengths: [20_000, 15_000],
        n_pairs: 60,
    };

    fn digest(seed: u64) -> u64 {
        let (g, d) = World::generate_genome(seed, TINY);
        let w = World::with_index(seed, TINY, g, d);
        let sets = [w.reads(0), w.reads(1)];
        w.input_digest(&sets)
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn seed_reaches_every_datagen_config_and_read_sets_differ() {
        let (g1, d1, r1) = datagen_configs(1, TINY, 0);
        let (g2, d2, r2) = datagen_configs(2, TINY, 0);
        assert_ne!(g1.seed, g2.seed);
        assert_ne!(d1.seed, d2.seed);
        assert_ne!(r1.seed, r2.seed);
        let (_, _, r1b) = datagen_configs(1, TINY, 1);
        assert_ne!(r1.seed, r1b.seed);
        // Streams of one seed are independent of each other.
        assert_ne!(g1.seed, d1.seed);
        assert_ne!(g1.seed, r1.seed);
        // Only the seed and the scale vary; the rest is datagen's default.
        assert_eq!(g1.gc_content, GenomeConfig::default().gc_content);
        assert_eq!(d1.snp_rate, DonorConfig::default().snp_rate);
        assert_eq!(r1.read_len, ReadSimConfig::default().read_len);
    }

    #[test]
    fn workload_seed_reaches_no_program_config() {
        let (g, d) = World::generate_genome(99, TINY);
        let w = World::with_index(99, TINY, g, d);
        assert_eq!(w.aligner.config().seed, AlignerConfig::default().seed);
    }
}
