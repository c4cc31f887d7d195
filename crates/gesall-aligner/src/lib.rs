//! # gesall-aligner
//!
//! An FM-index based paired-end short-read aligner — the workspace's
//! from-scratch analogue of **Bwa-mem** (Li & Durbin), the first and most
//! CPU-intensive step of the paper's pipeline (Table 2 step 1: 24.5 h on a
//! single server).
//!
//! Architecture, bottom-up:
//!
//! * [`suffix`] — suffix-array construction (SA-IS, linear time);
//! * [`fm`] — BWT + checkpointed rank structure: backward search
//!   (`count`) and sampled-SA `locate`;
//! * [`sw`] — banded local alignment with traceback → CIGAR, soft clips,
//!   alignment score, edit distance;
//! * [`index`] — the reference index: concatenated chromosomes + FM-index
//!   + a per-position 19-mer uniqueness bit + coordinate translation;
//! * [`single`] — per-read alignment: seeding, candidate generation on
//!   both strands, scoring, mapping quality;
//! * [`pairing`] — per-**batch** paired-end resolution: insert-size
//!   statistics estimated from the batch itself, a step-function pair
//!   score, and seeded random tie-breaking.
//!
//! [`AlignerConfig`] holds bwa mem's user settings; search internals are constants.
//!
//! The last two items are deliberate reproductions of the Bwa behaviours
//! the paper traces parallel/serial discordance to (Appendix B.2):
//! *batch statistics change with data partitions* and *random choice among
//! equal-scoring alignments*. Partition the input differently and this
//! aligner — like real Bwa — produces slightly different output for
//! low-quality, repetitive-region mappings.

pub mod engine;
pub mod fm;
pub mod index;
pub mod pairing;
pub mod single;
pub mod suffix;
pub mod sw;

pub use engine::{Aligner, AlignerConfig};
pub use index::ReferenceIndex;
