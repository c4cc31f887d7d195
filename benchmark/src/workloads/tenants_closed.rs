//! `tenants_closed`: the whole stack under concurrency with tiny inputs.
//! One `JobService` (2 tenants, shares 1:1, 2 slots in total) per
//! repetition; **closed loop**, 2 client threads, one per tenant: each
//! submits a job asking 2 slots, waits for it, submits the next. Every
//! job runs the full pipeline (UnifiedGenotyper) on its own 800-pair
//! read set, so fixed per-job cost — admission, borrow / reclaim,
//! namespace sweep, staging, thread spawn — dominates and kernels barely
//! matter. Catches a single-job win that costs contention.

use super::{same_digest, setup};
use crate::harness::{Harness, Meter, Outcome, Unit, UnitSamples};
use crate::inputs::{combine, TENANT_SCALE};
use crate::pipeline;
use crate::probes;
use crate::stats;
use gesall_core::pipeline::{CallerChoice, PipelineOutput, PlatformConfig};
use gesall_jobsvc::{keys, JobOutput, JobService, JobSpec, JobSvcConfig, TenantConfig};
use gesall_mapreduce::{GesallError, Recorder};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const NOMINAL_REP_S: f64 = 3.4;
const MIN_TIMED_REPS: usize = 3;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
const JOBS_PER_TENANT: usize = 6;
const SLOTS_ASKED: usize = 2;

pub fn config() -> PlatformConfig {
    PlatformConfig {
        caller: CallerChoice::UnifiedGenotyper,
        ..PlatformConfig::default()
    }
}

/// One job as its client saw it.
struct JobSample {
    latency_ms: f64,
    queue_wait_ms: f64,
    dispatch_overhead_ms: f64,
    /// Slot in the read-set table, for digest comparison across reps.
    read_set: usize,
    digest: u64,
}

struct Round {
    /// The makespan of the round's jobs and what it cost.
    unit: Unit,
    jobs: Vec<JobSample>,
    counters: Vec<(&'static str, u64)>,
    residue_files: usize,
    dfs: gesall_dfs::Dfs,
}

fn round(
    h: &Harness,
    s: &super::Setup,
    rep: usize,
    name: &str,
    recorder: Option<Recorder>,
) -> Round {
    let rep_i = rep as i32;
    let world = &s.world;
    let svc = JobService::new(
        pipeline::platform(config(), 1, recorder),
        JobSvcConfig {
            tenants: TENANTS.iter().map(|t| TenantConfig::new(*t, 1)).collect(),
            total_slots: Some(pipeline::SLOTS),
            ..JobSvcConfig::default()
        },
    );
    let dfs = svc.platform().dfs.clone();
    let meter = Meter::start();
    let jobs: Vec<JobSample> = h.tracer.span(None, name, "harness", rep_i, |root| {
        std::thread::scope(|scope| {
            let clients: Vec<_> = TENANTS
                .iter()
                .enumerate()
                .map(|(ti, tenant)| {
                    let svc = &svc;
                    scope.spawn(move || {
                        h.tracer.span(
                            root,
                            &format!("client:{tenant}"),
                            "harness",
                            rep_i,
                            |client| {
                                (0..JOBS_PER_TENANT)
                                    .filter_map(|j| {
                                        let read_set = ti * JOBS_PER_TENANT + j;
                                        one_job(
                                            h,
                                            svc,
                                            world,
                                            tenant,
                                            &s.read_sets[read_set],
                                            read_set,
                                            client,
                                            rep_i,
                                        )
                                    })
                                    .collect::<Vec<JobSample>>()
                            },
                        )
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread does not panic"))
                .collect()
        })
    });
    let unit = meter.stop();

    let counters = [
        ("jobsvc.slots_borrowed", keys::SLOTS_BORROWED),
        ("jobsvc.slots_reclaimed", keys::SLOTS_RECLAIMED),
        ("jobsvc.jobs_completed", keys::JOBS_COMPLETED),
        ("jobsvc.jobs_failed", keys::JOBS_FAILED),
        ("jobsvc.jobs_rejected", keys::JOBS_REJECTED),
    ]
    .map(|(metric, key)| (metric, svc.metrics().counter(key).get()))
    .to_vec();
    // Every handle is dropped by now; shutting down sweeps what is left
    // under retention. Only the tenants' shared CAS may remain.
    svc.shutdown();
    let residue_files = dfs
        .list("/")
        .iter()
        .filter(|p| !p.contains("/cas/"))
        .count();
    Round {
        unit,
        jobs,
        counters,
        residue_files,
        dfs,
    }
}

#[allow(clippy::too_many_arguments)]
fn one_job(
    h: &Harness,
    svc: &JobService,
    world: &crate::inputs::World,
    tenant: &str,
    pairs: &[gesall_formats::fastq::ReadPair],
    read_set: usize,
    client: Option<crate::trace::SpanId>,
    rep: i32,
) -> Option<JobSample> {
    let input = pairs.to_vec();
    let aligner = world.aligner.clone();
    let entered: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let exited: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let (enter, exit) = (entered.clone(), exited.clone());
    let spec = JobSpec::new(format!("pipeline-{read_set}"), SLOTS_ASKED, move |ctx| {
        let _ = enter.set(Instant::now());
        let out = ctx
            .platform()
            .run_pipeline_with(&aligner, input, &ctx.run_options())
            .map_err(|e| GesallError::Runtime(e.to_string()));
        let _ = exit.set(Instant::now());
        Ok(Box::new(out?) as JobOutput)
    });
    let start_ns = h.tracer.now_ns();
    let submitted = Instant::now();
    let result = svc
        .submit(tenant, spec)
        .map_err(|e| e.to_string())
        .and_then(|handle| {
            handle.wait().map_err(|e| e.to_string())?;
            let done = Instant::now();
            let out = handle
                .take_output()
                .and_then(|o| o.downcast::<PipelineOutput>().ok())
                .ok_or("job finished without a pipeline output")?;
            Ok((done, out))
        });
    let end_ns = h.tracer.now_ns();
    let (done, out) = match result {
        Ok(ok) => ok,
        Err(e) => {
            h.op(false, || format!("rep {rep}: job {tenant}/{read_set}: {e}"));
            return None;
        }
    };
    h.ops_ok(1);
    pipeline::check_output(h, &format!("job {tenant}/{read_set}"), &out, pairs.len());
    let (entered, exited) = (*entered.get()?, *exited.get()?);
    if let Some(job) = h.tracer.add(
        client,
        &format!("job:{read_set}"),
        "gesall-jobsvc",
        rep,
        start_ns,
        end_ns,
    ) {
        let at = |t: Instant| start_ns + t.duration_since(submitted).as_nanos() as u64;
        h.tracer.add(
            Some(job),
            "closure:run_pipeline_with",
            "gesall-core",
            rep,
            at(entered),
            at(exited).min(end_ns),
        );
    }
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    Some(JobSample {
        latency_ms: ms(submitted, done),
        queue_wait_ms: ms(submitted, entered),
        dispatch_overhead_ms: ms(exited, done),
        read_set,
        digest: pipeline::output_digest(world, &out),
    })
}

pub fn run(h: &Harness) -> Outcome {
    let mut o = Outcome::default();
    let s = setup(h, TENANT_SCALE, (TENANTS.len() * JOBS_PER_TENANT) as u64);
    s.finish(&mut o, 0.0);
    o.input_digest = s.world.input_digest(&s.read_sets);

    let timed_reps = h.timed_reps(NOMINAL_REP_S, MIN_TIMED_REPS);
    let mut rounds: Vec<Round> = (0..timed_reps)
        .map(|rep| round(h, &s, rep, "round", None))
        .collect();
    let mut units = UnitSamples::default();
    for r in &rounds {
        units.push(r.unit);
    }
    units.commit(&mut o);
    if h.traced() {
        let recorder = Recorder::new();
        let traced = round(h, &s, timed_reps, "round:traced", Some(recorder.clone()));
        o.set(
            "telemetry.trace_overhead_ratio",
            traced.unit.wall_s / stats::median(&units.walls()),
        );
        o.set("telemetry.spans_recorded", recorder.spans().len() as f64);
        rounds.push(traced);
    }

    // Pooled over every repetition's jobs.
    let pooled = |f: fn(&JobSample) -> f64| -> Vec<f64> {
        rounds.iter().flat_map(|r| r.jobs.iter().map(f)).collect()
    };
    let latency = pooled(|j| j.latency_ms);
    let queue_wait = pooled(|j| j.queue_wait_ms);
    o.set("job_latency_p50_ms", stats::percentile(&latency, 50));
    o.set("job_latency_p90_ms", stats::percentile(&latency, 90));
    o.set(
        "jobsvc.queue_wait_p50_ms",
        stats::percentile(&queue_wait, 50),
    );
    o.set(
        "jobsvc.queue_wait_p90_ms",
        stats::percentile(&queue_wait, 90),
    );
    o.set(
        "jobsvc.dispatch_overhead_p50_ms",
        stats::percentile(&pooled(|j| j.dispatch_overhead_ms), 50),
    );
    o.note("job_latencies_pooled", latency.len() as f64);
    if let Some(p) = stats::highest_resolved_percentile(latency.len()) {
        o.note("job_latency_highest_resolved_percentile", p as f64);
    }
    for (metric, count) in rounds.iter().flat_map(|r| &r.counters) {
        *o.metrics.entry(metric.to_string()).or_default() += *count as f64;
    }
    let residue: usize = rounds.iter().map(|r| r.residue_files).sum();
    o.set("jobsvc.namespace_residue_files", residue as f64);

    // Output checks: every job of every round completed, none failed,
    // nothing is left outside the CAS, and job k produced the same bytes
    // in every round.
    let expected_jobs = TENANTS.len() * JOBS_PER_TENANT;
    for (rep, r) in rounds.iter().enumerate() {
        if r.jobs.len() != expected_jobs {
            h.violation(format!(
                "round {rep}: {} of {expected_jobs} jobs returned an output",
                r.jobs.len()
            ));
        }
    }
    if o.metrics["jobsvc.jobs_failed"] != 0.0 {
        h.violation(format!(
            "{} jobs failed inside the service",
            o.metrics["jobsvc.jobs_failed"]
        ));
    }
    if residue != 0 {
        h.violation(format!("{residue} files left outside cas/ after shutdown"));
    }
    let round_digests: Vec<u64> = rounds
        .iter()
        .map(|r| {
            let mut by_set: Vec<(usize, u64)> =
                r.jobs.iter().map(|j| (j.read_set, j.digest)).collect();
            by_set.sort_unstable();
            combine(&by_set.iter().map(|(_, d)| *d).collect::<Vec<u64>>())
        })
        .collect();
    o.output_digest = same_digest(h, "rounds of jobs", &round_digests);
    o.note("jobs_per_round", expected_jobs as f64);
    o.note("pairs_per_job", TENANT_SCALE.n_pairs as f64);
    o.note("timed_reps", timed_reps as f64);

    if h.traced() {
        // Layer probes run on one job's data, at the service's settings.
        let platform = pipeline::platform(config(), 1, None);
        let input = s.read_sets[0].clone();
        if let Some(t) = pipeline::timed_call(h, None, "probe:single-job", -1, || {
            platform.run_pipeline(&s.world.aligner, input)
        }) {
            pipeline::core_ledger(&mut o, &t);
            probes::run(
                h,
                &mut o,
                &probes::Input {
                    world: &s.world,
                    pairs: &s.read_sets[0],
                    records: &t.out.records,
                    workload_dfs: &rounds[rounds.len() - 1].dfs,
                    config: &config(),
                    replication: 1,
                },
            );
        }
    }
    o
}
