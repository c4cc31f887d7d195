//! Shared by the three workloads that run `GesallPlatform`: platform
//! construction, the timed + spanned pipeline call, output checks, and
//! the `core.*` ledger read off `PipelineOutput`.

use crate::harness::{Harness, Meter, Outcome, Unit};
use crate::inputs::{combine, World};
use crate::names::{PHASES, STAGES};
use crate::stats;
use crate::trace::SpanId;
use gesall_core::pipeline::{GesallPlatform, PipelineOutput, PlatformConfig};
use gesall_dfs::checksum::xxh64;
use gesall_dfs::{Dfs, DfsConfig};
use gesall_formats::fastq::ReadPair;
use gesall_formats::sam::text as sam_text;
use gesall_formats::vcf;
use gesall_mapreduce::{ClusterResources, MapReduceEngine, Recorder};
use gesall_tools::sort_sam::is_coordinate_sorted;
use gesall_tools::vcf_metrics::precision_sensitivity;

/// Task slots every engine in the benchmark runs with: 2 nodes × 1
/// vcore, the width of the reference box (`nproc` = 2).
pub const SLOTS: usize = 2;

pub fn dfs(replication: usize) -> Dfs {
    Dfs::new(DfsConfig {
        n_nodes: 4,
        block_size: 256 * 1024,
        replication,
        ..DfsConfig::default()
    })
}

/// A fresh platform: empty DFS, idle engine. `recorder` attaches the
/// program's own span recorder for the traced repetition.
pub fn platform(
    config: PlatformConfig,
    replication: usize,
    recorder: Option<Recorder>,
) -> GesallPlatform {
    let mut engine = MapReduceEngine::new(ClusterResources::uniform(SLOTS, 1, 8192));
    if let Some(r) = recorder {
        engine.set_recorder(r);
    }
    GesallPlatform::new(dfs(replication), engine, config)
}

/// xxh64 over the SAM text of the records, then the VCF lines.
pub fn output_digest(world: &World, out: &PipelineOutput) -> u64 {
    let header = world.aligner.index().sam_header();
    combine(&[
        xxh64(sam_text::to_text(&header, &out.records).as_bytes()),
        xxh64(vcf::to_text(&out.variants).as_bytes()),
    ])
}

/// The crate a round's MapReduce job spends its time in — the harness
/// cannot see inside the job, so the job span is charged to the layer
/// whose code the map tasks wrap: the aligner in round 1, the serial
/// tools in the map-only rounds, the engine itself in the shuffling
/// rounds.
fn job_layer(round: &str) -> &'static str {
    match round {
        "round1-align" => "gesall-aligner",
        r if r.starts_with("round5-") || r.starts_with("round4a-") || r.starts_with("round4b-") => {
            "gesall-tools"
        }
        _ => "gesall-mapreduce",
    }
}

/// One pipeline call as the harness saw it.
pub struct Timed {
    pub unit: Unit,
    pub out: PipelineOutput,
}

/// Time one pipeline call and count it as an operation. With tracing on
/// it is wrapped in a span, and child spans are synthesised from what
/// the call returned: one per DAG stage (`StageReport.wall_ms`, laid end
/// to end from the call's start — the executor walks stages serially)
/// and inside each executed stage its MapReduce job
/// (`RoundSummary.wall_ms`, right-aligned: staging precedes the job; see
/// [`job_layer`] for the layer it is charged to).
pub fn timed_call<E: std::fmt::Display>(
    h: &Harness,
    parent: Option<SpanId>,
    name: &str,
    rep: i32,
    call: impl FnOnce() -> Result<PipelineOutput, E>,
) -> Option<Timed> {
    let (result, unit, start_ns, id) = h.tracer.span(parent, name, "gesall-core", rep, |id| {
        let start_ns = h.tracer.now_ns();
        let meter = Meter::start();
        let result = call();
        (result, meter.stop(), start_ns, id)
    });
    let wall_s = unit.wall_s;
    match result {
        Ok(out) => {
            // The span tree must close: stages run inside the call, so
            // their walls plus the residual make up its wall.
            let stages_s = stage_wall_s(&out);
            h.op(stages_s <= wall_s * 1.02, || {
                format!("{name} rep {rep}: stage walls sum to {stages_s:.3} s inside a {wall_s:.3} s call")
            });
            if id.is_some() {
                let mut cursor = start_ns;
                for st in &out.stages {
                    let end = cursor + (st.wall_ms * 1e6) as u64;
                    let sid = h.tracer.add(
                        id,
                        &format!("stage:{}", st.name),
                        "gesall-core",
                        rep,
                        cursor,
                        end,
                    );
                    if let Some(r) = out
                        .rounds
                        .iter()
                        .find(|r| r.name == st.name && !st.cache_hit)
                    {
                        let job_ns = ((r.wall_ms * 1e6) as u64).min(end - cursor);
                        h.tracer.add(
                            sid,
                            &format!("job:{}", r.name),
                            job_layer(&r.name),
                            rep,
                            end - job_ns,
                            end,
                        );
                    }
                    cursor = end;
                }
            }
            Some(Timed { unit, out })
        }
        Err(e) => {
            h.op(false, || format!("{name} rep {rep}: {e}"));
            None
        }
    }
}

/// Invariants of a full pipeline output at any seed.
pub fn check_output(h: &Harness, what: &str, out: &PipelineOutput, n_pairs: usize) {
    if out.records.len() != 2 * n_pairs {
        h.violation(format!(
            "{what}: {} records for {n_pairs} pairs",
            out.records.len()
        ));
    }
    if !is_coordinate_sorted(&out.records) {
        h.violation(format!("{what}: records are not coordinate-sorted"));
    }
}

/// F1 of the call set against the donor's spiked truth set.
pub fn variant_f1(world: &World, out: &PipelineOutput) -> f64 {
    let ps = precision_sensitivity(&out.variants, &world.truth_keys());
    let denom = 2 * ps.true_positives + ps.false_positives + ps.false_negatives;
    if denom == 0 {
        return 0.0;
    }
    2.0 * ps.true_positives as f64 / denom as f64
}

fn counter(counters: &[(String, u64)], key: &str) -> u64 {
    counters
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| *v)
}

/// Σ stage walls of one run, in seconds.
pub fn stage_wall_s(out: &PipelineOutput) -> f64 {
    out.stages.iter().map(|s| s.wall_ms).sum::<f64>() / 1e3
}

/// The `core.*` ledger of one timed pipeline call: stage walls, the six
/// phases summed over rounds (task-summed, so they can exceed wall), the
/// residual the stages do not cover, and slot utilisation.
pub fn core_ledger(o: &mut Outcome, t: &Timed) {
    for stage in STAGES {
        let wall = t
            .out
            .stages
            .iter()
            .find(|s| s.name == stage)
            .map_or(0.0, |s| s.wall_ms / 1e3);
        o.set(&format!("core.stage.{stage}.wall_s"), wall);
    }
    let mut task_s = 0.0;
    for (phase, key) in PHASES {
        let s = t
            .out
            .rounds
            .iter()
            .map(|r| counter(&r.counters, key))
            .sum::<u64>() as f64
            / 1e9;
        task_s += s;
        o.set(&format!("core.phase.{phase}_s"), s);
    }
    let wall_s = t.unit.wall_s;
    let residual = (wall_s - stage_wall_s(&t.out)).max(0.0);
    o.set("core.residual_s", residual);
    o.set("core.residual_share", residual / wall_s);
    o.set("core.slot_utilisation", task_s / (wall_s * SLOTS as f64));
}

/// All-cache-hit re-runs on a platform that already ran these inputs:
/// `warm_rerun_s` and `core.warm_stage_decode_s`. Every stage must hit
/// the cache; the output digests join `digests` for the equality check.
pub fn warm_reruns(
    h: &Harness,
    o: &mut Outcome,
    world: &World,
    platform: &GesallPlatform,
    pairs: &[ReadPair],
    n: usize,
    digests: &mut Vec<u64>,
) {
    let (mut warm, mut warm_stage) = (Vec::new(), Vec::new());
    for rep in 0..n {
        let input = pairs.to_vec();
        let Some(w) = timed_call(h, None, "warm", rep as i32, || {
            platform.run_pipeline(&world.aligner, input)
        }) else {
            continue;
        };
        if w.out.cache_hits() != w.out.stages.len() {
            h.violation(format!(
                "warm rep {rep}: {} of {} stages hit the cache",
                w.out.cache_hits(),
                w.out.stages.len()
            ));
        }
        digests.push(output_digest(world, &w.out));
        warm.push(w.unit.wall_s);
        warm_stage.push(stage_wall_s(&w.out));
    }
    o.set_median("warm_rerun_s", warm);
    o.set("core.warm_stage_decode_s", stats::median(&warm_stage));
}
