//! Multi-tenant job service integration tests through the `gesall`
//! facade: fairness under a flooding tenant, typed admission control,
//! fault recovery across concurrent jobs, per-job shuffle retention and
//! the per-tenant stage cache and per-job kernel counters — the
//! service-level guarantees layered over the engine.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use gesall::aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall::datagen::reads::ReadSimConfig;
use gesall::datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall::dfs::{Dfs, DfsConfig};
use gesall::formats::fastq::{split_pairs_into_partitions, ReadPair};
use gesall::jobsvc::{
    keys, JobHandle, JobOutput, JobService, JobSpec, JobStatus, JobSvcConfig, JobSvcError,
    TenantConfig,
};
use gesall::mapreduce::{
    ClusterResources, FaultPlan, GesallError, HashPartitioner, InputSplit, MapContext,
    MapReduceEngine, Mapper, ReduceContext, Reducer,
};
use gesall::platform::{GesallPlatform, PipelineOutput, PlatformConfig};
use gesall::telemetry::{KernelStats, Recorder, SpanKind};

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

struct Tokenize;
impl Mapper for Tokenize {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: &u64, line: &String, ctx: &mut MapContext<'_, String, u64>) {
        // A touch of work per record so concurrent jobs demonstrably
        // overlap in time rather than winking in and out.
        std::thread::sleep(Duration::from_micros(300));
        for w in line.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer for Sum {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u64>, ctx: &mut ReduceContext<'_, String, u64>) {
        ctx.emit(k, vs.iter().sum());
    }
}

fn word_splits(n_splits: usize, lines_per_split: usize) -> Vec<InputSplit<u64, String>> {
    let words = ["gesall", "yarn", "hdfs", "bwa", "gatk", "tenant", "lease"];
    (0..n_splits)
        .map(|s| {
            let records: Vec<(u64, String)> = (0..lines_per_split)
                .map(|i| {
                    let line: Vec<&str> = (0..5)
                        .map(|j| words[(s * 31 + i * 7 + j) % words.len()])
                        .collect();
                    (i as u64, line.join(" "))
                })
                .collect();
            InputSplit::new(format!("split-{s}"), records)
        })
        .collect()
}

fn small_dfs() -> Dfs {
    Dfs::new(DfsConfig {
        n_nodes: 4,
        block_size: 64 * 1024,
        replication: 1,
        ..DfsConfig::default()
    })
}

fn platform_with(engine: MapReduceEngine) -> GesallPlatform {
    GesallPlatform::new(small_dfs(), engine, PlatformConfig::default())
}

/// An aligner over the tiny genome and `n_pairs` simulated pairs.
fn pipeline_world(n_pairs: usize) -> (Arc<Aligner>, Vec<ReadPair>) {
    let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
    let donor = DonorGenome::generate(&genome, &Default::default());
    let (pairs, _) = ReadSimulator::new(
        &genome,
        &donor,
        ReadSimConfig {
            n_pairs,
            ..ReadSimConfig::default()
        },
    )
    .simulate();
    let chroms: Vec<(String, Vec<u8>)> = genome
        .chromosomes
        .iter()
        .map(|c| (c.name.clone(), c.seq.clone()))
        .collect();
    let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
    (Arc::new(aligner), pairs)
}

/// A pipeline job over `pairs`, waiting at `gate` (if any) before it
/// starts; its output is the [`PipelineOutput`].
fn pipeline_job(
    aligner: Arc<Aligner>,
    pairs: Vec<ReadPair>,
    gate: Option<Arc<Barrier>>,
) -> JobSpec {
    JobSpec::new("pipeline", 2, move |ctx| {
        if let Some(gate) = gate {
            gate.wait();
        }
        let out = ctx
            .platform()
            .run_pipeline_with(&aligner, pairs, &ctx.run_options())
            .map_err(|e| GesallError::Streaming(e.to_string()))?;
        Ok(Box::new(out) as JobOutput)
    })
}

fn pipeline_output(h: &JobHandle) -> PipelineOutput {
    h.wait().unwrap();
    *h.take_output().unwrap().downcast::<PipelineOutput>().unwrap()
}

fn two_tenant_service() -> JobService {
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096));
    JobService::new(
        platform_with(engine),
        JobSvcConfig {
            tenants: vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)],
            total_slots: Some(4),
        },
    )
}

fn sleepy_job(ms: u64) -> JobSpec {
    JobSpec::new("sleepy", 2, move |_ctx| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(Box::new(()) as JobOutput)
    })
}

// ---------------------------------------------------------------------
// (a) Fairness: a flooding tenant cannot starve a quiet one
// ---------------------------------------------------------------------

#[test]
fn flooding_tenant_does_not_starve_quiet_tenant() {
    let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 4096));
    let svc = JobService::new(
        platform_with(engine),
        JobSvcConfig {
            tenants: vec![TenantConfig::new("noisy", 1), TenantConfig::new("quiet", 1)],
            total_slots: Some(4),
        },
    );
    // noisy floods the queue with six 2-slot jobs (only two fit at
    // once), then quiet asks for two of its own. Noisy jobs are long
    // relative to scheduler latency so quiet's dispatch provably rides
    // the shrink/reclaim path rather than a lucky natural completion.
    let noisy: Vec<_> = (0..6)
        .map(|_| svc.submit("noisy", sleepy_job(400)).unwrap())
        .collect();
    // Each submit's pass ran before it returned, so noisy already holds
    // the whole cluster (two 2-slot jobs in flight): quiet's arrival
    // forces a shrink. Had quiet arrived while slots were free, they
    // would be fairly split and there would be nothing to reclaim.
    assert_eq!(
        noisy
            .iter()
            .filter(|h| h.status() == JobStatus::Running)
            .count(),
        2
    );
    let quiet: Vec<_> = (0..2)
        .map(|_| svc.submit("quiet", sleepy_job(50)).unwrap())
        .collect();
    for h in &quiet {
        h.wait().unwrap();
    }
    for h in &noisy {
        h.wait().unwrap();
    }

    // Structural fairness: the capacity scheduler served quiet as soon
    // as slots freed, so both quiet jobs dispatched before noisy's
    // backlog drained.
    let quiet_last = quiet.iter().filter_map(|h| h.dispatch_seq()).max().unwrap();
    let noisy_last = noisy.iter().filter_map(|h| h.dispatch_seq()).max().unwrap();
    assert!(
        quiet_last < noisy_last,
        "quiet (last dispatch #{quiet_last}) should pre-empt part of noisy's backlog (last #{noisy_last})"
    );

    // Latency fairness: quiet's p90 queue wait is bounded well below
    // the flooding tenant's.
    let m = svc.metrics();
    let quiet_p90 = m
        .histogram(&format!("{}.quiet", keys::QUEUE_WAIT_NANOS))
        .quantile(0.9)
        .expect("quiet waits recorded");
    let noisy_p90 = m
        .histogram(&format!("{}.noisy", keys::QUEUE_WAIT_NANOS))
        .quantile(0.9)
        .expect("noisy waits recorded");
    assert!(
        quiet_p90 <= noisy_p90,
        "quiet p90 wait {quiet_p90}ns should not exceed flooding tenant's {noisy_p90}ns"
    );
    // And the under-share tenant was served on reclaimed capacity.
    assert!(m.counter(keys::SLOTS_RECLAIMED).get() >= 1);
    svc.shutdown();
}

// ---------------------------------------------------------------------
// (b) Admission control: typed rejections, running jobs undisturbed
// ---------------------------------------------------------------------

#[test]
fn quota_rejections_are_typed_and_do_not_disturb_running_jobs() {
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096));
    let svc = JobService::new(
        platform_with(engine),
        JobSvcConfig {
            tenants: vec![
                TenantConfig::new("a", 1).max_queued(1).max_inflight_slots(2),
                TenantConfig::new("b", 1),
            ],
            total_slots: Some(2),
        },
    );
    // The holder reports its start, then runs until `release` sends or
    // is dropped (a failing assertion drops it while unwinding, so the
    // service's draining drop cannot hang).
    let (started_tx, started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let running = svc
        .submit(
            "a",
            JobSpec::new("holder", 2, move |_ctx| {
                let _ = started_tx.send(());
                let _ = release_rx.recv();
                Ok(Box::new(7u32) as JobOutput)
            }),
        )
        .unwrap();
    started.recv().unwrap();
    let queued = svc.submit("a", sleepy_job(1)).unwrap();

    // Queue quota (1) is full → typed rejection.
    match svc.submit("a", sleepy_job(1)) {
        Err(JobSvcError::QuotaExceeded {
            tenant,
            quota,
            limit,
        }) => {
            assert_eq!((tenant.as_str(), quota, limit), ("a", "queued-jobs", 1));
        }
        other => panic!("expected queued-jobs QuotaExceeded, got {other:?}"),
    }
    // Slot quota: asking for more than the tenant may ever hold.
    match svc.submit("b", {
        let mut s = sleepy_job(1);
        s.slots = 2;
        s
    }) {
        Ok(_) => {} // b has no slot cap; sanity: admitted fine
        Err(e) => panic!("b should admit: {e}"),
    }
    let wide = svc.submit("a", JobSpec::new("wide", 2, |_| Ok(Box::new(()) as JobOutput)));
    // a's queue is still full; drain it first so we isolate the slot quota.
    assert!(matches!(wide, Err(JobSvcError::QuotaExceeded { .. })));
    match svc.submit("ghost", sleepy_job(1)) {
        Err(JobSvcError::TenantUnknown(t)) => assert_eq!(t, "ghost"),
        other => panic!("expected TenantUnknown, got {other:?}"),
    }

    // None of the rejections disturbed admitted work.
    assert_eq!(running.status(), JobStatus::Running);
    drop(release);
    running.wait().unwrap();
    assert_eq!(
        *running.take_output().unwrap().downcast::<u32>().unwrap(),
        7
    );
    queued.wait().unwrap();
    assert!(svc.metrics().counter(keys::JOBS_REJECTED).get() >= 2);
    svc.shutdown();
}

#[test]
fn oversized_slot_request_rejected_at_admission() {
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096));
    let svc = JobService::new(
        platform_with(engine),
        JobSvcConfig {
            tenants: vec![TenantConfig::new("small", 1).max_inflight_slots(1)],
            total_slots: Some(4),
        },
    );
    match svc.submit("small", sleepy_job(1)) {
        // sleepy_job asks for 2 slots; the tenant may only ever hold 1.
        Err(JobSvcError::QuotaExceeded {
            tenant,
            quota,
            limit,
        }) => assert_eq!((tenant.as_str(), quota, limit), ("small", "inflight-slots", 1)),
        other => panic!("expected inflight-slots QuotaExceeded, got {other:?}"),
    }
    // A right-sized job sails through.
    let mut ok = sleepy_job(1);
    ok.slots = 1;
    svc.submit("small", ok).unwrap().wait().unwrap();
    svc.shutdown();
}

// ---------------------------------------------------------------------
// (c) Fault tolerance across concurrent tenants
// ---------------------------------------------------------------------

#[test]
fn node_death_during_concurrent_jobs_recovers_both() {
    // Reference output from a quiet cluster.
    let reference = {
        let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 4096));
        let cfg = gesall::mapreduce::JobConfig {
            n_reducers: 3,
            ..gesall::mapreduce::JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(8, 12))
            .unwrap();
        let mut all: Vec<(String, u64)> = res.outputs.iter().flatten().cloned().collect();
        all.sort();
        all
    };

    // Node 2 dies once it has committed 2 map tasks — while both
    // tenants' jobs are in flight on the shared engine.
    let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 4096))
        .with_fault_plan(FaultPlan::seeded(11).kill_node_after_maps(2, 2));
    let svc = JobService::new(
        platform_with(engine),
        JobSvcConfig {
            tenants: vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)],
            total_slots: Some(8),
        },
    );
    let gate = Arc::new(Barrier::new(2));
    let submit_wc = |tenant: &str| {
        let gate = gate.clone();
        svc.submit(
            tenant,
            JobSpec::new("wc", 4, move |ctx| {
                gate.wait();
                let cfg = ctx.job_config("wc", 3);
                let res = ctx.platform().engine.run_job(
                    cfg,
                    &Tokenize,
                    &Sum,
                    &HashPartitioner,
                    word_splits(8, 12),
                )?;
                let mut all: Vec<(String, u64)> =
                    res.outputs.iter().flatten().cloned().collect();
                all.sort();
                Ok(Box::new(all) as JobOutput)
            }),
        )
        .unwrap()
    };
    let ha = submit_wc("a");
    let hb = submit_wc("b");
    ha.wait().unwrap();
    hb.wait().unwrap();
    for h in [&ha, &hb] {
        let out = h
            .take_output()
            .unwrap()
            .downcast::<Vec<(String, u64)>>()
            .unwrap();
        assert_eq!(*out, reference, "job {} diverged after node death", h.id());
    }
    // The death actually happened and was survived, not avoided.
    assert!(svc
        .platform()
        .engine
        .dead_nodes()
        .contains(&2));
    svc.shutdown();
}

// ---------------------------------------------------------------------
// (d) Retention: cancelled job's namespace swept, sibling survives
// ---------------------------------------------------------------------

#[test]
fn cancelled_jobs_namespace_swept_while_siblings_transit_survives() {
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096));
    let svc = JobService::new(
        platform_with(engine),
        JobSvcConfig {
            tenants: vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)],
            total_slots: Some(4),
        },
    );
    // Each job reports once its transit is written; the sibling then
    // runs until `stop_b` sends or is dropped.
    let (written_tx, written) = mpsc::channel();
    let (stop_b, stop_rx) = mpsc::channel::<()>();

    // Victim writes shuffle-shaped transit under its namespace, then
    // spins until cancelled.
    let victim_written = written_tx.clone();
    let victim = svc
        .submit(
            "a",
            JobSpec::new("victim", 1, move |ctx| {
                ctx.dfs()
                    .write_file(
                        &format!("{}/shuffle-0/map-0.seg", ctx.namespace()),
                        b"victim transit",
                    )
                    .unwrap();
                let _ = victim_written.send(());
                while !ctx.cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ctx.checkpoint()?; // surfaces the cancellation
                Ok(Box::new(()) as JobOutput)
            }),
        )
        .unwrap();
    let sibling = svc
        .submit(
            "b",
            JobSpec::new("sibling", 1, move |ctx| {
                ctx.dfs()
                    .write_file(
                        &format!("{}/shuffle-0/map-0.seg", ctx.namespace()),
                        b"sibling transit",
                    )
                    .unwrap();
                let _ = written_tx.send(());
                let _ = stop_rx.recv();
                Ok(Box::new(()) as JobOutput)
            }),
        )
        .unwrap();

    let dfs = svc.platform().dfs.clone();
    let victim_ns = victim.namespace().to_string();
    let sibling_ns = sibling.namespace().to_string();
    written.recv().unwrap();
    written.recv().unwrap();

    assert!(victim.cancel());
    assert_eq!(victim.wait().unwrap_err(), JobSvcError::Cancelled);
    assert!(
        dfs.list(&victim_ns).is_empty(),
        "cancelled job's namespace must be swept"
    );
    assert!(
        !dfs.list(&sibling_ns).is_empty(),
        "sibling's live transit must survive the sweep"
    );
    assert!(
        dfs.metrics()
            .counter("dfs.retention.swept.cancelled")
            .get()
            >= 1
    );
    drop(stop_b);
    sibling.wait().unwrap();
    assert_eq!(svc.metrics().counter(keys::JOBS_CANCELLED).get(), 1);
    svc.shutdown();
}

// ---------------------------------------------------------------------
// (e) Stage cache: shared by a tenant's jobs, never across tenants
// ---------------------------------------------------------------------

#[test]
fn a_tenants_jobs_share_its_stage_cache_and_other_tenants_do_not() {
    let (aligner, pairs) = pipeline_world(300);
    let svc = two_tenant_service();
    // One pipeline job, waited on; its handle drops on return.
    let run = |tenant: &str| -> PipelineOutput {
        let job = pipeline_job(aligner.clone(), pairs.clone(), None);
        pipeline_output(&svc.submit(tenant, job).unwrap())
    };

    let dfs = svc.platform().dfs.clone();
    let written = || dfs.metrics().counter(gesall::dfs::metrics_keys::BYTES_WRITTEN).get();
    let cold = run("a");
    // a's second job reads every stage where a's store holds it: it
    // writes nothing, and its namespace is empty before its sweep.
    let before = written();
    let h = svc.submit("a", pipeline_job(aligner.clone(), pairs.clone(), None)).unwrap();
    let warm = pipeline_output(&h);
    assert_eq!(dfs.list(&format!("{}/", h.namespace())), Vec::<String>::new());
    drop(h);
    assert_eq!(written(), before, "a's second job wrote to the DFS");
    assert_eq!(warm.stages_run(), 0, "a's second job re-ran a stage");
    assert_eq!(warm.cache_hits(), 6);
    assert_eq!(warm.records, cold.records);
    assert_eq!(warm.variants, cold.variants);
    let other = run("b");
    assert_eq!(other.cache_hits(), 0, "b was served from a's cache");

    svc.shutdown();
    let residue: Vec<String> = dfs
        .list("/")
        .into_iter()
        .filter(|p| !p.contains("/cas/"))
        .collect();
    assert!(
        residue.is_empty(),
        "left outside the stage caches: {residue:?}"
    );
}

// ---------------------------------------------------------------------
// (f) Attribution: a job's kernel counters are its own work
// ---------------------------------------------------------------------

#[test]
fn concurrent_jobs_round1_kernel_counters_are_each_their_own() {
    // Two tenants align different reads at once (a barrier starts both
    // pipelines together, so their round 1s overlap). Each job's round-1
    // kernel counters must be exactly what the same job reports alone on
    // a fresh service, and what the aligner's counted entry point tallies
    // over that job's round-1 partitions: no other job's work, no
    // discarded attempt's.
    let (aligner, mut pairs) = pipeline_world(400);
    let inputs = [pairs.split_off(250), pairs];
    let round1_kernels = |out: &PipelineOutput| {
        let round = out.rounds.iter().find(|r| r.name == "round1-align").expect("round 1 ran");
        KernelStats::from_snapshot(&round.counters)
    };
    let alone = inputs.clone().map(|pairs| {
        let svc = two_tenant_service();
        let job = pipeline_job(aligner.clone(), pairs, None);
        let out = pipeline_output(&svc.submit("a", job).unwrap());
        svc.shutdown();
        round1_kernels(&out)
    });

    let svc = two_tenant_service();
    let gate = Arc::new(Barrier::new(2));
    let handles = [("a", &inputs[0]), ("b", &inputs[1])].map(|(tenant, pairs)| {
        let job = pipeline_job(aligner.clone(), pairs.clone(), Some(gate.clone()));
        svc.submit(tenant, job).unwrap()
    });
    let together = handles.each_ref().map(|h| round1_kernels(&pipeline_output(h)));
    svc.shutdown();

    let n_parts = PlatformConfig::default().n_round1_partitions;
    for (i, pairs) in inputs.iter().enumerate() {
        let mut tallied = KernelStats::default();
        for part in split_pairs_into_partitions(pairs.clone(), n_parts) {
            tallied += aligner.align_pairs_counted(&part, 1).1;
        }
        assert!(tallied.sw_extensions() > 0, "job {i} extended nothing");
        assert_eq!(together[i], alone[i], "job {i}: concurrent vs alone");
        assert_eq!(together[i], tallied, "job {i}: round 1 vs its partitions' tallies");
    }
    assert_ne!(alone[0], alone[1], "the two jobs align different reads");
}

// ---------------------------------------------------------------------
// Acceptance: two tenants' jobs are provably concurrent
// ---------------------------------------------------------------------

#[test]
fn two_tenants_jobs_run_concurrently_with_overlapping_spans() {
    let recorder = Recorder::new();
    let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 4096))
        .with_recorder(recorder.clone());
    let svc = JobService::new(
        platform_with(engine),
        JobSvcConfig {
            tenants: vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)],
            total_slots: Some(8),
        },
    );
    let gate = Arc::new(Barrier::new(2));
    let submit_wc = |tenant: &str, label: &'static str| {
        let gate = gate.clone();
        svc.submit(
            tenant,
            JobSpec::new(label, 4, move |ctx| {
                gate.wait();
                let cfg = ctx.job_config(label, 2);
                ctx.platform().engine.run_job(
                    cfg,
                    &Tokenize,
                    &Sum,
                    &HashPartitioner,
                    word_splits(6, 20),
                )?;
                Ok(Box::new(()) as JobOutput)
            }),
        )
        .unwrap()
    };
    let ha = submit_wc("a", "alpha");
    let hb = submit_wc("b", "beta");
    ha.wait().unwrap();
    hb.wait().unwrap();

    let jobs = recorder.spans_of_kind(SpanKind::Job);
    let alpha = jobs
        .iter()
        .find(|s| s.name.contains("alpha"))
        .expect("alpha job span");
    let beta = jobs
        .iter()
        .find(|s| s.name.contains("beta"))
        .expect("beta job span");
    let overlap_start = alpha.start_ms.max(beta.start_ms);
    let overlap_end = alpha.end_ms.min(beta.end_ms);
    assert!(
        overlap_start < overlap_end,
        "job spans must overlap: alpha [{:.1}, {:.1}] vs beta [{:.1}, {:.1}]",
        alpha.start_ms,
        alpha.end_ms,
        beta.start_ms,
        beta.end_ms
    );
    // Both tenants' engine work really went through their own leases.
    assert!(svc.metrics().counter("jobsvc.slots.granted.a").get() >= 4);
    assert!(svc.metrics().counter("jobsvc.slots.granted.b").get() >= 4);
    svc.shutdown();
}
