//! # gesall-sim
//!
//! A cluster performance model for MapReduce genomic workloads.
//!
//! The paper's timing results (Tables 2, 4–7; Figures 5–7, 10) were
//! measured on two physical clusters processing a 220 GB human sample —
//! neither of which is available here. This crate models those runs:
//! the clusters are parameterised by the paper's Table 3 hardware specs,
//! the workload by the NA12878 sample statistics the paper reports
//! (1.25 G read pairs, shuffle volumes of 375/785 GB for
//! MarkDup_opt/MarkDup_reg, …), and the MapReduce phase structure by the
//! same anatomy the real engine in `gesall-mapreduce` implements.
//!
//! The reproduction claim is **shape**, not absolute seconds: who wins,
//! by roughly what factor, where crossovers and saturation points fall
//! (see DESIGN.md §18). Every model component cites the paper observation
//! it encodes.
//!
//! * [`spec`] — cluster and workload parameters (Table 3, §4.1);
//! * [`bwa_model`] — Bwa thread-scaling with the read-and-parse
//!   synchronisation point and readahead effect (Fig. 5c), per-mapper
//!   index-load costs (Fig. 5a, Table 4);
//! * [`mr_model`] — map/sort-spill/merge/shuffle/reduce phase costs with
//!   disk contention and the quadratic multipass-merge rule
//!   (Fig. 5b, Tables 4–7, Appendix B.1);
//! * [`pipeline_model`] — the single-server pipeline of Table 2;
//! * [`traces`] — task-progress and disk-utilisation trace synthesis
//!   (Fig. 7, Fig. 10).

pub mod bwa_model;
pub mod mr_model;
pub mod optimizer;
pub mod pipeline_model;
pub mod spec;
pub mod traces;

pub use spec::{ClusterSpec, DiskSpec, NodeSpec, WorkloadSpec};
