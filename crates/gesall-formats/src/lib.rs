//! # gesall-formats
//!
//! Genomic data formats for the Gesall-RS platform.
//!
//! This crate implements every on-disk/in-flight data representation the
//! paper's pipeline touches:
//!
//! * [`fastq`] — the text format sequencers emit (read name, bases, per-base
//!   Phred quality), including the interleaved paired-read layout Gesall's
//!   Round 1 consumes.
//! * [`sam`] — the Sequence Alignment/Map record model: flags, CIGAR,
//!   mapping positions, mate information, and the derived *5′ unclipped end*
//!   attribute MarkDuplicates partitions on (paper Fig. 3).
//! * [`bam`] — a BAM-like binary container: SAM records serialized and
//!   packed into independently-compressed variable-length chunks, so chunks
//!   can straddle DFS block boundaries exactly as §3.1 of the paper requires.
//! * [`compress`] — the from-scratch LZ block codec that plays the role of
//!   BGZF/Snappy compression (map-output compression in the shuffle), and
//!   the tag-stable [`Codec`] registry segment frames name codecs by.
//! * [`seq_codec`] — the genomic sequence codec (`Codec::Seq`): 2-bit
//!   packed bases, run-length binned qualities, delta-coded positions,
//!   LZ-backstopped literals.
//! * [`bytes`] — [`SharedBytes`], the `Arc`-backed sliceable byte range
//!   the zero-copy record path is built on (DFS blocks, map-output
//!   segments, streaming pipe chunks all share backing allocations).
//! * [`vcf`] — variant-call records plus the quality annotations
//!   (MQ, DP, FS, AB) used by the error-diagnosis study (Tables 8–10).
//!
//! The container is *structurally* equivalent to BAM (variable-length
//! compressed chunks with virtual offsets) but deliberately not
//! byte-compatible with htslib; see `DESIGN.md` §18.

// `sam::text::reference` names the crate the way
// `tests/proptest_formats.rs`, which compiles the same file, does.
#[cfg(test)]
extern crate self as gesall_formats;

pub mod bam;
pub mod bytes;
pub mod compress;
pub mod dna;
pub mod error;
pub mod fasta;
pub mod fastq;
pub mod mapped;
pub mod quality;
pub mod sam;
pub mod seq_codec;
pub mod vcf;
pub mod wire;

pub use bytes::SharedBytes;
pub use compress::Codec;
pub use error::{FormatError, Result};
pub use mapped::MappedRegion;
