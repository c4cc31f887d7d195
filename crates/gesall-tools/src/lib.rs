//! # gesall-tools
//!
//! Serial reference implementations of the genome-analysis programs in
//! the paper's pipeline (Table 2). These are the "existing single-node
//! programs" that Gesall's wrapper technology runs unmodified over
//! logical partitions; they are also the gold-standard serial baseline
//! that the parallel pipeline is diffed against (Table 8).
//!
//! | Paper step | Module |
//! |---|---|
//! | 3. Add Replace Groups     | [`add_read_groups`] |
//! | 4. Clean Sam              | [`clean_sam`] |
//! | 5. Fix Mate Info          | [`fix_mate`] |
//! | 6. Mark Duplicates        | [`mark_duplicates`] |
//! | 7. Sort Sam               | [`sort_sam`] |
//! | 11–12. Base Recalibrator / Print Reads | [`recalibration`] |
//! | v1. Unified Genotyper     | [`unified_genotyper`] |
//! | v2. Haplotype Caller      | [`haplotype_caller`] |
//!
//! Plus the shared [`pileup`] substrate, a [`refview`] over reference
//! sequences, and [`vcf_metrics`] implementing the quality metrics of the
//! paper's Tables 9/10 (MQ, DP, FS, AB, Ti/Tv, Het/Hom, precision/
//! sensitivity against a truth set).

pub mod add_read_groups;
pub mod clean_sam;
pub mod fix_mate;
pub mod haplotype_caller;
pub mod mark_duplicates;
pub mod pileup;
pub mod recalibration;
pub mod refview;
pub mod sort_sam;
pub mod unified_genotyper;
pub mod vcf_metrics;

pub use refview::RefView;
