//! The four workloads. Each runs in a process of its own (so `VmHWM` is
//! per workload), drives the engine with 2 task slots, and uses at most
//! 2 load-generating threads.

pub mod shuffle_rerun;
pub mod storage_rw;
pub mod tenants_closed;
pub mod wgs_hc;

use crate::harness::{Harness, Outcome};
use crate::inputs::{Scale, World};
use crate::names;
use crate::stats;
use gesall_formats::fastq::ReadPair;
use std::time::Instant;

/// How often an untraced run repeats set-up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Run one workload by name.
pub fn run(h: &Harness) -> Outcome {
    let o = match h.workload {
        names::WGS_HC => wgs_hc::run(h),
        names::SHUFFLE_RERUN => shuffle_rerun::run(h),
        names::STORAGE_RW => storage_rw::run(h),
        names::TENANTS_CLOSED => tenants_closed::run(h),
        other => unreachable!("workload {other} was validated at the command line"),
    };
    h.remove_scratch();
    o
}

/// Generated inputs plus what generating them cost.
pub struct Setup {
    pub world: World,
    pub read_sets: Vec<Vec<ReadPair>>,
    /// Wall of each set-up repetition (datagen + index build).
    pub samples: Vec<f64>,
    /// `ReferenceIndex::build` alone, per repetition.
    pub index_build_s: Vec<f64>,
}

impl Setup {
    /// `setup_s`: the median repetition plus the workload's one-off
    /// priming work (`extra_s`).
    pub fn finish(&self, o: &mut Outcome, extra_s: f64) {
        let samples: Vec<f64> = self.samples.iter().map(|s| s + extra_s).collect();
        o.set_median("setup_s", samples);
        o.set("aligner.index_build_s", stats::median(&self.index_build_s));
        o.set(
            "aligner.index_heap_mb",
            self.world.aligner.index().heap_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
}

/// seed → genome, donor, index, `n_read_sets` read sets. Repeated
/// (`SETUP_REPS`; once when traced) so `setup_s` is a median; every
/// repetition must reproduce the same inputs.
pub fn setup(h: &Harness, scale: Scale, n_read_sets: u64) -> Setup {
    let reps = if h.traced() { 1 } else { SETUP_REPS };
    let mut samples = Vec::new();
    let mut index_build_s = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let (world, read_sets) = h.tracer.span(None, "setup", "harness", rep as i32, |s| {
            let (genome, donor) = h.tracer.span(
                s,
                "datagen:genome+donor",
                "gesall-datagen",
                rep as i32,
                |_| World::generate_genome(h.seed, scale),
            );
            let t_index = Instant::now();
            let world = h.tracer.span(
                s,
                "aligner:index_build",
                "gesall-aligner",
                rep as i32,
                |_| World::with_index(h.seed, scale, genome, donor),
            );
            index_build_s.push(t_index.elapsed().as_secs_f64());
            let read_sets: Vec<Vec<ReadPair>> =
                h.tracer
                    .span(s, "datagen:reads", "gesall-datagen", rep as i32, |_| {
                        (0..n_read_sets).map(|k| world.reads(k)).collect()
                    });
            (world, read_sets)
        });
        samples.push(t0.elapsed().as_secs_f64());
        digests.push(world.input_digest(&read_sets));
        last = Some((world, read_sets));
    }
    if digests.iter().any(|d| *d != digests[0]) {
        h.violation(format!(
            "seed {} generated different inputs on repeat: {digests:x?}",
            h.seed
        ));
    }
    let (world, read_sets) = last.expect("at least one set-up repetition");
    Setup {
        world,
        read_sets,
        samples,
        index_build_s,
    }
}

/// All repetitions of a workload must produce the same output digest.
pub fn same_digest(h: &Harness, what: &str, digests: &[u64]) -> u64 {
    let first = digests.first().copied().unwrap_or(0);
    if digests.iter().any(|d| *d != first) {
        h.violation(format!(
            "{what}: output digest differs across repetitions: {digests:x?}"
        ));
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_core::pipeline::PlatformConfig;
    use gesall_dfs::DfsConfig;

    /// The workload seed picks the inputs; the program under test runs
    /// with the seeds it ships with.
    #[test]
    fn program_configs_keep_their_default_seeds() {
        let default = PlatformConfig::default().seed;
        for config in [
            wgs_hc::config(),
            shuffle_rerun::config(),
            tenants_closed::config(),
        ] {
            assert_eq!(config.seed, default);
        }
        assert_eq!(
            crate::pipeline::dfs(2).config().seed,
            DfsConfig::default().seed
        );
    }
}
