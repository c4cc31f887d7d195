//! # gesall-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§4 + appendices), each returning its numbers as a value
//! whose `Display` is the report.
//!
//! Two kinds of experiments:
//!
//! * [`sim_experiments`] — paper-scale timing studies (Tables 2, 4–7;
//!   Figures 5, 6b, 7, 10) reproduced through the `gesall-sim` cost
//!   model parameterised by the paper's cluster/workload specs;
//! * [`real_experiments`] — correctness/accuracy studies (Table 8,
//!   Fig. 11, Tables 9/10, Fig. 6a) executed for real at mini scale on
//!   synthetic genomes through the full platform stack.
//!
//! Measured performance of the real engine is not this crate's job:
//! that is `benchmark/`, the benchmark of record.
//!
//! Run everything with `cargo run -p gesall-bench --release --bin
//! experiments -- all`.

pub mod real_experiments;
pub mod report;
pub mod sim_experiments;
