//! # gesall-datagen
//!
//! Synthetic whole-genome sequencing workloads.
//!
//! The paper evaluates on the NA12878 human sample (1.24 billion read
//! pairs, 64× coverage) which we cannot ship; this crate generates the
//! closest synthetic equivalent that exercises the same code paths:
//!
//! * [`reference`](mod@reference) — reference genomes with the genomic features the
//!   accuracy study hinges on: **centromeres** (long tandem repeats),
//!   **blacklisted** low-mappability regions, and **segmental
//!   duplications** that make reads multi-map (paper Fig. 11a shows
//!   discordant reads spiking exactly there).
//! * [`donor`] — a diploid donor genome: two haplotypes derived from the
//!   reference with ground-truth SNPs/indels spiked in (the GIAB-style
//!   truth set for precision/sensitivity in Appendix B.3).
//! * [`reads`] — a paired-end read simulator: normal insert-size
//!   distribution, position-dependent base-error/quality profile (read
//!   ends are lower quality — the premise of base recalibration), and PCR
//!   duplicates (the reason MarkDuplicates exists).

pub mod donor;
pub mod reads;
pub mod reference;

pub use donor::{DonorGenome, TruthVariant};
pub use reads::{ReadSimConfig, ReadSimulator};
pub use reference::{Chromosome, GenomeConfig, ReferenceGenome, Region};
