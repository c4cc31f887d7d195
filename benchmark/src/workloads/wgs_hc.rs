//! `wgs_hc`: the paper's headline pipeline, cold. Each repetition builds
//! a fresh platform (empty DFS, so no cache entry exists) and runs all
//! rounds with the default configuration — HaplotypeCaller, chromosome
//! partitioning, 4 partitions / 4 reducers, DFS replication 1. The last
//! platform then serves all-cache-hit re-runs.

use super::{same_digest, setup};
use crate::harness::{Harness, Outcome, UnitSamples};
use crate::inputs::PIPELINE_SCALE;
use crate::pipeline::{self, Timed};
use crate::probes;
use crate::stats;
use gesall_core::pipeline::{GesallPlatform, PlatformConfig};
use gesall_mapreduce::Recorder;

/// One cold repetition on the reference box, for `--seconds` → reps.
const NOMINAL_REP_S: f64 = 3.4;
const DISCARDED_REPS: usize = 1;
const MIN_TIMED_REPS: usize = 3;
const WARM_RERUNS: usize = 10;

pub fn config() -> PlatformConfig {
    PlatformConfig::default()
}

pub fn run(h: &Harness) -> Outcome {
    let mut o = Outcome::default();
    let s = setup(h, PIPELINE_SCALE, 1);
    s.finish(&mut o, 0.0);
    let world = &s.world;
    let pairs = &s.read_sets[0];
    o.input_digest = world.input_digest(&s.read_sets);

    let timed_reps = h.timed_reps(NOMINAL_REP_S, MIN_TIMED_REPS);
    let mut digests = Vec::new();
    let mut units = UnitSamples::default();
    let mut last: Option<(GesallPlatform, Timed)> = None;
    let cold = |rep: usize, name: &str, recorder: Option<Recorder>| {
        let platform = pipeline::platform(config(), 1, recorder);
        let input = pairs.clone();
        let t = pipeline::timed_call(h, None, name, rep as i32, || {
            platform.run_pipeline(&world.aligner, input)
        })?;
        pipeline::check_output(h, name, &t.out, pairs.len());
        Some((platform, t))
    };
    for rep in 0..DISCARDED_REPS + timed_reps {
        // Drop the previous platform before building the next one, so
        // peak memory is one platform's, as in a cold start.
        last = None;
        let Some((platform, t)) = cold(rep, "cold", None) else {
            continue;
        };
        digests.push(pipeline::output_digest(world, &t.out));
        if rep >= DISCARDED_REPS {
            units.push(t.unit);
        }
        last = Some((platform, t));
    }
    units.commit(&mut o);

    if h.traced() {
        // The traced repetition: the program's own recorder attached.
        last = None;
        let recorder = Recorder::new();
        if let Some((platform, t)) = cold(
            DISCARDED_REPS + timed_reps,
            "cold:traced",
            Some(recorder.clone()),
        ) {
            digests.push(pipeline::output_digest(world, &t.out));
            o.set(
                "telemetry.trace_overhead_ratio",
                t.unit.wall_s / stats::median(&units.walls()),
            );
            o.set("telemetry.spans_recorded", recorder.spans().len() as f64);
            last = Some((platform, t));
        }
    }
    let Some((platform, t)) = last else {
        h.violation("no cold repetition succeeded".into());
        return o;
    };
    pipeline::core_ledger(&mut o, &t);
    o.set("variant_f1", pipeline::variant_f1(world, &t.out));

    // Warm re-runs: same inputs, same platform, every stage a cache hit.
    pipeline::warm_reruns(
        h,
        &mut o,
        world,
        &platform,
        pairs,
        WARM_RERUNS,
        &mut digests,
    );
    o.output_digest = same_digest(h, "cold and warm runs", &digests);
    o.note("pairs", pairs.len() as f64);
    o.note("timed_reps", timed_reps as f64);

    if h.traced() {
        probes::run(
            h,
            &mut o,
            &probes::Input {
                world,
                pairs,
                records: &t.out.records,
                workload_dfs: &platform.dfs,
                config: &config(),
                replication: 1,
            },
        );
    }
    o
}
