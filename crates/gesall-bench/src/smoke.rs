//! The `bench-smoke` experiment: a tiny end-to-end pipeline run with
//! tracing on, proving the whole telemetry path works — per-phase
//! breakdown covering all six phases, task Gantt, straggler stats,
//! shuffle matrix, and a `BENCH_smoke.json` record on disk.
//!
//! This is the CI gate for the observability subsystem: it fails if any
//! phase timing is missing, so a refactor that silently drops a phase
//! counter breaks the build, not the next perf investigation.

use crate::real_experiments::Scale;
use gesall_aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall_core::pipeline::{GesallPlatform, PlatformConfig};
use gesall_datagen::donor::DonorConfig;
use gesall_datagen::reads::ReadSimConfig;
use gesall_datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall_dfs::{Dfs, DfsConfig};
use gesall_mapreduce::{ClusterResources, MapReduceEngine, Recorder, SpanKind};
use gesall_telemetry::report::{
    critical_path, gantt, shuffle_fetch_summary, shuffle_matrix, straggler_report, GanttRow,
};
use gesall_telemetry::{mem_keys, BenchRecord, MemStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Bytes copied per shuffled record the tiny pipeline measured **before**
/// the zero-copy record path landed (owned-Vec segments, per-record map
/// clones, copying pipes and DFS reads). The gate requires at least a 2×
/// reduction against this — see DESIGN.md §6.
pub const OLD_PATH_BYTES_PER_RECORD: f64 = 4012.50;

/// The same metric measured on the zero-copy path (the recorded
/// baseline). The byte accounting is deterministic at this scale; the
/// gate allows [`REGRESSION_HEADROOM`] above it before failing.
pub const BASELINE_BYTES_PER_RECORD: f64 = 1969.55;

/// Slack multiplier over [`BASELINE_BYTES_PER_RECORD`] before the smoke
/// run is declared a memory-path regression.
pub const REGRESSION_HEADROOM: f64 = 1.15;

/// Allowed growth of the streaming reduce-merge's peak resident bytes
/// when the number of input runs doubles at a fixed `merge_factor`. The
/// bound is `merge_factor` × run size, independent of run count, so the
/// ratio should be ~1.0; the slack absorbs head-record jitter.
pub const PEAK_RESIDENT_FLATNESS: f64 = 1.25;

/// Allowed wall-clock slowdown of the gray-failure probe's faulty run
/// over its clean twin. The faults are survivable by design; what the
/// gate catches is a retry/hedge path that stalls instead of routing
/// around the damage.
pub const GRAY_FAILURE_SLOWDOWN: f64 = 1.5;

/// Absolute grace added on top of [`GRAY_FAILURE_SLOWDOWN`]: the probe
/// runs in tens of milliseconds, and the injected faults carry a
/// deterministic latency floor (one un-hedged slow read before the
/// latency histogram marks the node, plus a hedge budget per slow read
/// after) that a pure ratio cannot absorb at this scale. A broken
/// retry or hedge path stalls for its 10 s deadline and still trips
/// the gate by two orders of magnitude.
pub const GRAY_FAILURE_GRACE_MS: f64 = 250.0;

/// Allowed wall-clock for two engine jobs run *concurrently* through
/// the job service, as a multiple of the slower job's serial wall. Each
/// job's task count fits in half the cluster, so true concurrency keeps
/// the combined wall near the slower serial run; a scheduler that
/// serializes tenants lands at the *sum* of the serial walls and trips
/// the gate.
pub const JOBSVC_CONCURRENCY_SLOWDOWN: f64 = 1.8;

/// Absolute grace added on top of [`JOBSVC_CONCURRENCY_SLOWDOWN`]: the
/// probe's serial walls are tens of milliseconds, and the staggered
/// submit (tenant B waits until A is provably running so the elastic
/// borrow is deterministic) plus one dispatcher rebalance pass carry a
/// fixed cost a pure ratio cannot absorb at this scale. A serializing
/// scheduler still overshoots by the whole second job's wall.
pub const JOBSVC_CONCURRENCY_GRACE_MS: f64 = 100.0;

/// Allowed wall-clock for the warm DAG re-run as a fraction of the cold
/// pipeline wall. A warm re-run answers every stage from the
/// content-addressed cache — no alignment, no shuffle, no calling — so
/// it should cost a small fraction of the cold run; a warm wall above
/// half the cold wall means stages are re-executing instead of being
/// cache-served.
pub const DAG_WARM_RERUN_MAX_RATIO: f64 = 0.5;

/// Required fraction of shuffle-fetch bytes served by the reducer's own
/// node in the locality probe. The probe topology
/// (2 nodes, replication 2, pinned shuffle placement) keeps a replica of
/// every segment block on the reducer's node, so nearly every byte
/// should be local; requiring a majority catches a hint that is
/// dropped or inverted — without a matching affinity every byte counts
/// as remote.
pub const SHUFFLE_LOCAL_FRACTION: f64 = 0.5;

/// Maximum wire bytes through the transit DFS for the Seq-codec shuffle
/// as a fraction of its Lz twin's, on the codec probe's simulated-read
/// payload. The genomic domain codec (2-bit packed bases, grouped
/// literals, delta-coded positions) must beat the general-purpose
/// compressor by at least this margin at byte-identical reduce output.
pub const SEQ_VS_LZ_MAX_RATIO: f64 = 0.8;

/// What the multi-tenant job-service probe measured.
struct JobsvcProbe {
    serial_a_ms: f64,
    serial_b_ms: f64,
    concurrent_ms: f64,
    queue_wait_p90_nanos: u64,
    slots_borrowed: u64,
    slots_reclaimed: u64,
}

/// Run two small engine jobs twice: serially on a bare platform, then
/// concurrently as two tenants of a `JobService`. Tenant A asks for the
/// whole cluster (an elastic borrow beyond its configured half-share);
/// tenant B's arrival forces the preemption-free reclaim — lease
/// shrink, drain, harvest — before B dispatches. Gates require the
/// concurrent wall to stay near the slower serial run and the reduce
/// outputs to be byte-identical to the serial twins.
fn jobsvc_probe() -> Result<JobsvcProbe, String> {
    use gesall_jobsvc::{
        keys, JobOutput, JobService, JobSpec, JobStatus, JobSvcConfig, TenantConfig,
    };
    use gesall_mapreduce::{
        GesallError, HashPartitioner, InputSplit, JobConfig, MapContext, Mapper, ReduceContext,
        Reducer,
    };

    /// Mapper with a per-record sleep so task walls dwarf scheduler
    /// latency and the concurrency ratio is meaningful at probe scale.
    struct SleepyMod(u64);
    impl Mapper for SleepyMod {
        type InKey = u64;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
            std::thread::sleep(std::time::Duration::from_micros(400));
            ctx.emit(k % self.0, v.wrapping_add(*k));
        }
    }
    struct Sum;
    impl Reducer for Sum {
        type InKey = u64;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        fn reduce(&self, k: u64, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
            ctx.emit(k, vs.iter().fold(0u64, |a, b| a.wrapping_add(*b)));
        }
    }

    // Four splits per job on a 4-node x 2-slot cluster: each job fills
    // half the slots, so two jobs fit side by side without contention.
    let splits = || -> Vec<InputSplit<u64, u64>> {
        (0..4)
            .map(|s| {
                let records: Vec<(u64, u64)> =
                    (0..30).map(|i| ((s * 30 + i) as u64, i as u64)).collect();
                InputSplit::new(format!("s{s}"), records)
            })
            .collect()
    };
    let probe_platform = || {
        GesallPlatform::new(
            Dfs::new(DfsConfig {
                n_nodes: 4,
                block_size: 1 << 20,
                replication: 1,
                ..DfsConfig::default()
            }),
            MapReduceEngine::new(ClusterResources::uniform(4, 2, 4096)),
            PlatformConfig::default(),
        )
    };
    let cfg = |name: &str| JobConfig {
        name: name.into(),
        n_reducers: 2,
        retry_backoff_ms: 1.0,
        speculative: false,
        ..JobConfig::default()
    };
    let sorted = |res: &gesall_mapreduce::JobResult<u64, u64>| -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = res.outputs.iter().flatten().cloned().collect();
        all.sort_unstable();
        all
    };

    // Serial baseline: both jobs back to back on an unconstrained
    // platform. Distinct key moduli keep the two workloads distinct.
    let serial = probe_platform();
    let t0 = std::time::Instant::now();
    let ref_a = serial
        .engine
        .run_job(cfg("probe-a"), &SleepyMod(31), &Sum, &HashPartitioner, splits())
        .map_err(|e| format!("jobsvc probe: serial job A failed: {e}"))?;
    let serial_a_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let ref_b = serial
        .engine
        .run_job(cfg("probe-b"), &SleepyMod(53), &Sum, &HashPartitioner, splits())
        .map_err(|e| format!("jobsvc probe: serial job B failed: {e}"))?;
    let serial_b_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (ref_a, ref_b) = (sorted(&ref_a), sorted(&ref_b));

    // Concurrent twin: same jobs as two tenants of one service.
    let svc = JobService::new(
        probe_platform(),
        JobSvcConfig {
            tenants: vec![TenantConfig::new("a", 1), TenantConfig::new("b", 1)],
            ..JobSvcConfig::default()
        },
    );
    let total = svc.total_slots();
    let job = |modulus: u64| {
        let splits = splits();
        move |ctx: &gesall_jobsvc::JobCtx| -> Result<JobOutput, GesallError> {
            let res = ctx.platform().engine.run_job(
                ctx.job_config("probe", 2),
                &SleepyMod(modulus),
                &Sum,
                &HashPartitioner,
                splits,
            )?;
            Ok(Box::new(res) as JobOutput)
        }
    };
    let t2 = std::time::Instant::now();
    // A asks for every slot — granted immediately, half of it an
    // elastic borrow of B's idle entitlement.
    let ha = svc
        .submit("a", JobSpec::new("probe-a", total, job(31)))
        .map_err(|e| format!("jobsvc probe: submit A failed: {e}"))?;
    // Wait until A is provably dispatched so B's arrival always finds
    // the cluster fully granted and must trigger the reclaim path.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while ha.status() == JobStatus::Queued && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let hb = svc
        .submit("b", JobSpec::new("probe-b", total / 2, job(53)))
        .map_err(|e| format!("jobsvc probe: submit B failed: {e}"))?;
    ha.wait()
        .map_err(|e| format!("jobsvc probe: concurrent job A failed: {e}"))?;
    hb.wait()
        .map_err(|e| format!("jobsvc probe: concurrent job B failed: {e}"))?;
    let concurrent_ms = t2.elapsed().as_secs_f64() * 1e3;

    let out = |h: &gesall_jobsvc::JobHandle| -> Result<Vec<(u64, u64)>, String> {
        h.take_output()
            .and_then(|b| b.downcast::<gesall_mapreduce::JobResult<u64, u64>>().ok())
            .map(|r| sorted(&r))
            .ok_or_else(|| "jobsvc probe: job finished without a result".into())
    };
    if out(&ha)? != ref_a || out(&hb)? != ref_b {
        return Err(
            "jobsvc gate: a job's reduce output under the service differs from its \
             serial twin — namespacing or lease throttling corrupted the run"
                .into(),
        );
    }
    let m = svc.metrics();
    let probe = JobsvcProbe {
        serial_a_ms,
        serial_b_ms,
        concurrent_ms,
        queue_wait_p90_nanos: m.histogram(keys::QUEUE_WAIT_NANOS).quantile(0.9).unwrap_or(0),
        slots_borrowed: m.counter(keys::SLOTS_BORROWED).get(),
        slots_reclaimed: m.counter(keys::SLOTS_RECLAIMED).get(),
    };
    drop((ha, hb));
    svc.shutdown();
    Ok(probe)
}

/// What the seeded gray-failure probe measured.
struct GrayFailureProbe {
    clean_ms: f64,
    faulty_ms: f64,
    detected: u64,
    repaired: u64,
    hedged: u64,
    retried: u64,
}

/// Run the same small job twice — once clean, once under a seeded
/// `FaultPlan` combining one corrupt_block, one slow_node, and
/// flaky_read injections — on twin replication-2 transit DFSes, and
/// require byte-identical reduce output. The integrity and gray-failure
/// counters come off the faulty run's DFS registry.
fn gray_failure_probe() -> Result<GrayFailureProbe, String> {
    use gesall_dfs::metrics_keys;
    use gesall_mapreduce::{
        FaultPlan, HashPartitioner, InputSplit, JobConfig, MapContext, Mapper, ReduceContext,
        Reducer,
    };

    struct ModKey;
    impl Mapper for ModKey {
        type InKey = u64;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
            ctx.emit(k % 97, v.wrapping_add(*k));
        }
    }
    struct Sum;
    impl Reducer for Sum {
        type InKey = u64;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        fn reduce(&self, k: u64, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
            ctx.emit(k, vs.iter().fold(0u64, |a, b| a.wrapping_add(*b)));
        }
    }

    let splits = || -> Vec<InputSplit<u64, u64>> {
        (0..12)
            .map(|s| {
                let records: Vec<(u64, u64)> =
                    (0..40).map(|i| ((s * 40 + i) as u64, i as u64)).collect();
                InputSplit::new(format!("s{s}"), records)
            })
            .collect()
    };
    let cfg = || JobConfig {
        name: "gray-probe".into(),
        n_reducers: 3,
        io_sort_bytes: 4096,
        retry_backoff_ms: 1.0,
        speculative: false,
        ..JobConfig::default()
    };
    // Replication 2 gives every block a verified survivor; the third
    // node hosts the repair. A tightened hedge budget keeps the slow
    // node's tax per read small at probe scale.
    let probe_dfs = || {
        Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1 << 20,
            replication: 2,
            hedge_after_micros: 2_000,
            ..DfsConfig::default()
        })
    };

    let clean_dfs = probe_dfs();
    let clean_engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .with_shuffle_dfs(clean_dfs.clone());
    let t0 = std::time::Instant::now();
    let clean = clean_engine
        .run_job(cfg(), &ModKey, &Sum, &HashPartitioner, splits())
        .map_err(|e| format!("gray-failure probe: clean run failed: {e}"))?;
    let clean_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Replica 0 is the primary — the copy reads actually hit — so the
    // corruption is deterministically detected; the slow node's first
    // read seeds its latency histogram and every later read hedges.
    let plan = FaultPlan::seeded(0x6E55)
        .corrupt_block("map-00000", 0, 0)
        .flaky_read(0, 4)
        .flaky_read(1, 4)
        .slow_node(2, 12);
    let faulty_dfs = probe_dfs();
    let faulty_engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .with_shuffle_dfs(faulty_dfs.clone())
        .with_fault_plan(plan);
    let t1 = std::time::Instant::now();
    let faulty = faulty_engine
        .run_job(cfg(), &ModKey, &Sum, &HashPartitioner, splits())
        .map_err(|e| format!("gray-failure probe: faulty run failed: {e}"))?;
    let faulty_ms = t1.elapsed().as_secs_f64() * 1e3;

    let sorted = |res: &gesall_mapreduce::JobResult<u64, u64>| -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = res.outputs.iter().flatten().cloned().collect();
        all.sort_unstable();
        all
    };
    if sorted(&clean) != sorted(&faulty) {
        return Err(
            "gray-failure gate: faulty run's reduce output differs from the clean run — \
             a damaged or stale byte reached a reducer"
                .into(),
        );
    }
    let get = |k: &str| faulty_dfs.metrics().counter(k).get();
    // A detection from a hedge helper thread can land a beat after the
    // job returns; give it a bounded settle window.
    for _ in 0..200 {
        let d = get(metrics_keys::BLOCKS_CORRUPT_DETECTED);
        if d > 0 && get(metrics_keys::BLOCKS_CORRUPT_REPAIRED) == d {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    Ok(GrayFailureProbe {
        clean_ms,
        faulty_ms,
        detected: get(metrics_keys::BLOCKS_CORRUPT_DETECTED),
        repaired: get(metrics_keys::BLOCKS_CORRUPT_REPAIRED),
        hedged: get(metrics_keys::READS_HEDGED),
        retried: get(metrics_keys::READS_RETRIED),
    })
}

/// What the shuffle-locality probe measured.
struct ShuffleLocalityProbe {
    local_bytes: u64,
    remote_bytes: u64,
    prefetched: u64,
}

/// Run a small job on a 2-node replication-2 transit DFS. Pinned shuffle
/// placement plus full replication puts a copy of every segment block on
/// the reducer's node, so the read-affinity hint reducers pass must
/// serve most fetch bytes from the co-located replica.
fn shuffle_locality_probe() -> Result<ShuffleLocalityProbe, String> {
    use gesall_mapreduce::counters::keys;
    use gesall_mapreduce::{
        HashPartitioner, InputSplit, JobConfig, MapContext, Mapper, ReduceContext, Reducer,
    };

    struct ModKey;
    impl Mapper for ModKey {
        type InKey = u64;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
            ctx.emit(k % 61, v.wrapping_add(*k));
        }
    }
    struct Sum;
    impl Reducer for Sum {
        type InKey = u64;
        type InValue = u64;
        type OutKey = u64;
        type OutValue = u64;
        fn reduce(&self, k: u64, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
            ctx.emit(k, vs.iter().fold(0u64, |a, b| a.wrapping_add(*b)));
        }
    }

    let splits: Vec<InputSplit<u64, u64>> = (0..8)
        .map(|s| {
            let records: Vec<(u64, u64)> =
                (0..50).map(|i| ((s * 50 + i) as u64, i as u64)).collect();
            InputSplit::new(format!("s{s}"), records)
        })
        .collect();
    let cfg = JobConfig {
        name: "locality-probe".into(),
        n_reducers: 2,
        io_sort_bytes: 2048,
        retry_backoff_ms: 1.0,
        speculative: false,
        ..JobConfig::default()
    };
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 2,
        block_size: 1 << 20,
        replication: 2,
        ..DfsConfig::default()
    });
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096)).with_shuffle_dfs(dfs);
    let res = engine
        .run_job(cfg, &ModKey, &Sum, &HashPartitioner, splits)
        .map_err(|e| format!("shuffle-locality probe: run failed: {e}"))?;
    Ok(ShuffleLocalityProbe {
        local_bytes: res.counters.get(keys::SHUFFLE_FETCH_BYTES_LOCAL),
        remote_bytes: res.counters.get(keys::SHUFFLE_FETCH_BYTES_REMOTE),
        prefetched: res.counters.get(keys::SHUFFLE_FETCH_PREFETCHED),
    })
}

/// What the shuffle-codec probe measured.
struct ShuffleCodecProbe {
    lz_dfs_bytes: u64,
    seq_dfs_bytes: u64,
    bytes_saved: u64,
}

/// Run the same simulated-read shuffle twice — alignment-record values
/// from datagen, once with the general-purpose Lz codec forced and once
/// with the genomic Seq codec — and require byte-identical reduce
/// output. The gate compares wire bytes through the transit DFS: the
/// domain codec must shrink the shuffle, not just roundtrip.
fn shuffle_codec_probe() -> Result<ShuffleCodecProbe, String> {
    use gesall_formats::sam::SamRecord;
    use gesall_formats::Codec;
    use gesall_mapreduce::counters::keys;
    use gesall_mapreduce::{
        HashPartitioner, InputSplit, JobConfig, MapContext, Mapper, ReduceContext, Reducer,
    };

    /// Buckets alignment records by position, carrying the record whole
    /// — the payload shape of the pipeline's sort round.
    struct Bucket;
    impl Mapper for Bucket {
        type InKey = u64;
        type InValue = SamRecord;
        type OutKey = u64;
        type OutValue = SamRecord;
        fn map(&self, _k: &u64, v: &SamRecord, ctx: &mut MapContext<'_, u64, SamRecord>) {
            ctx.emit(v.pos as u64 / 256, v.clone());
        }
    }
    struct Collect;
    impl Reducer for Collect {
        type InKey = u64;
        type InValue = SamRecord;
        type OutKey = u64;
        type OutValue = SamRecord;
        fn reduce(&self, k: u64, vs: Vec<SamRecord>, ctx: &mut ReduceContext<'_, u64, SamRecord>) {
            for v in vs {
                ctx.emit(k, v);
            }
        }
    }

    // 150 bp reads (a standard Illumina length) keep the payload honest:
    // real simulated bases and noisy quality strings, wire-encoded
    // exactly as a map-output partition carries them.
    let genome = ReferenceGenome::generate(&GenomeConfig {
        chromosome_lengths: vec![30_000],
        ..GenomeConfig::default()
    });
    let donor = DonorGenome::generate(&genome, &DonorConfig::default());
    let (pairs, _) = ReadSimulator::new(
        &genome,
        &donor,
        ReadSimConfig {
            n_pairs: 400,
            read_len: 150,
            ..ReadSimConfig::default()
        },
    )
    .simulate();
    let mut recs = Vec::new();
    let mut pos = 0i64;
    for (i, p) in pairs.iter().enumerate() {
        for r in [&p.r1, &p.r2] {
            let mut rec = SamRecord::unmapped(r.name.clone(), r.seq.clone(), r.qual.clone());
            // Mostly-sorted positions, like a sorted partition payload.
            pos += (i % 7) as i64;
            rec.pos = pos;
            recs.push(rec);
        }
    }
    let splits = |recs: &[SamRecord]| -> Vec<InputSplit<u64, SamRecord>> {
        recs.chunks(200)
            .enumerate()
            .map(|(s, chunk)| {
                let records: Vec<(u64, SamRecord)> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, r)| ((s * 200 + i) as u64, r.clone()))
                    .collect();
                InputSplit::new(format!("s{s}"), records)
            })
            .collect()
    };
    let run = |codec: Codec| {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 1 << 20,
            replication: 1,
            ..DfsConfig::default()
        });
        let engine =
            MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096)).with_shuffle_dfs(dfs);
        let cfg = JobConfig {
            name: format!("codec-probe-{}", codec.name()),
            n_reducers: 2,
            io_sort_bytes: 16 * 1024,
            retry_backoff_ms: 1.0,
            speculative: false,
            shuffle_codec: Some(codec),
            ..JobConfig::default()
        };
        engine
            .run_job(cfg, &Bucket, &Collect, &HashPartitioner, splits(&recs))
            .map_err(|e| format!("shuffle-codec probe: {} run failed: {e}", codec.name()))
    };
    let lz = run(Codec::Lz)?;
    let seq = run(Codec::Seq)?;
    if lz.outputs != seq.outputs {
        return Err(
            "shuffle-codec gate: reduce output differs between the Lz and Seq shuffles — \
             a codec changed bytes, not just wire size"
                .into(),
        );
    }
    let lz_dfs_bytes = lz.counters.get(keys::SHUFFLE_BYTES_DFS);
    let seq_dfs_bytes = seq.counters.get(keys::SHUFFLE_BYTES_DFS);
    Ok(ShuffleCodecProbe {
        lz_dfs_bytes,
        seq_dfs_bytes,
        bytes_saved: lz_dfs_bytes.saturating_sub(seq_dfs_bytes),
    })
}

/// Peak decoded-side resident bytes of one streaming merge over
/// `n_runs` equal-sized sorted runs at the given fan-in — the
/// flatness-gate probe. Deterministic: same runs, same peak.
fn streaming_merge_peak(n_runs: usize, merge_factor: usize) -> u64 {
    use gesall_mapreduce::counters::{keys, Counters};
    use gesall_mapreduce::shuffle::{reduce_merge, Segment};
    let segments: Vec<Segment> = (0..n_runs as u64)
        .map(|r| {
            let mut pairs: Vec<(u64, u64)> =
                (0..512u64).map(|i| ((i * 131 + r * 17) % 1024, i)).collect();
            pairs.sort_unstable();
            Segment::from_pairs(&pairs, gesall_formats::Codec::Lz)
        })
        .collect();
    let bag = Counters::new();
    let _ = reduce_merge::<u64, u64>(segments, merge_factor, &bag);
    bag.get(keys::REDUCE_PEAK_RESIDENT)
}

/// Everything a smoke run produces.
pub struct SmokeOutcome {
    /// Human-readable report (phase table, Gantt, stragglers, shuffle).
    pub report: String,
    /// The machine-readable record appended to `BENCH_smoke.json`.
    pub record: BenchRecord,
    /// Where the record was written (None when no out dir was given).
    pub bench_path: Option<PathBuf>,
}

/// Run the tiny traced pipeline. With an `out_dir`, the bench record is
/// appended to `BENCH_smoke.json` there and the full span trace is
/// streamed to `smoke_trace.jsonl`. Errors if the pipeline fails or any
/// of the six phases recorded no time.
pub fn run_smoke(out_dir: Option<&Path>) -> Result<SmokeOutcome, String> {
    let scale = Scale::tiny();
    let genome = ReferenceGenome::generate(&GenomeConfig {
        chromosome_lengths: scale.chromosome_lengths.to_vec(),
        ..GenomeConfig::default()
    });
    let donor = DonorGenome::generate(&genome, &DonorConfig::default());
    let (pairs, _) = ReadSimulator::new(
        &genome,
        &donor,
        ReadSimConfig {
            n_pairs: scale.n_pairs,
            duplicate_rate: 0.05,
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

    let recorder = match out_dir {
        Some(dir) => Recorder::with_jsonl_sink(&dir.join("smoke_trace.jsonl"))
            .map_err(|e| format!("cannot open trace sink: {e}"))?,
        None => Recorder::new(),
    };
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 4,
        block_size: 64 * 1024,
        replication: 1,
        ..DfsConfig::default()
    });
    let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 8192))
        .with_recorder(recorder.clone());
    // A starved sort buffer and minimal merge fan-in force spills and
    // multipass merges even at this scale, so every phase shows up.
    let io_sort_bytes = 2048usize;
    let merge_factor = 2usize;
    let config = PlatformConfig {
        n_round1_partitions: scale.n_partitions,
        n_reducers: scale.n_partitions,
        io_sort_bytes,
        merge_factor,
        ..PlatformConfig::default()
    };
    let dfs_handle = dfs.clone();
    let platform = GesallPlatform::new(dfs, engine, config);
    let t0 = std::time::Instant::now();
    let out = platform
        .run_pipeline(&aligner, pairs.clone())
        .map_err(|e| format!("smoke pipeline failed: {e:?}"))?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Aggregate counters across rounds. Phase and engine counters are
    // per-job (sum); wrapper.* counters are pipeline-cumulative — they
    // are merged into every round's snapshot — so take the final value.
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for round in &out.rounds {
        for (k, v) in &round.counters {
            let slot = agg.entry(k.clone()).or_insert(0);
            if k.starts_with("wrapper.") {
                *slot = (*slot).max(*v);
            } else {
                *slot += *v;
            }
        }
    }
    // Whole-pipeline "bytes actually copied" gauge: engine-side copies
    // (summed per job) + streaming-pipe copies (pipeline-cumulative, so
    // max) + DFS/storage copies (on the DFS's own registry).
    let engine_copied = agg.get(mem_keys::BYTES_COPIED).copied().unwrap_or(0);
    let pipe_copied = agg.get("wrapper.bytes.copied").copied().unwrap_or(0);
    let dfs_copied = dfs_handle
        .metrics()
        .counter(gesall_dfs::metrics_keys::BYTES_COPIED)
        .get();
    let total_copied = engine_copied + pipe_copied + dfs_copied;
    agg.insert("mem.bytes.copied.total".into(), total_copied);
    let shuffled = agg.get("shuffle.records").copied().unwrap_or(0);
    let per_record = MemStats {
        bytes_copied: total_copied,
        ..MemStats::default()
    }
    .bytes_copied_per_record(shuffled);

    // DAG warm-rerun probe: the identical pipeline on the same platform
    // must be answered entirely from the content-addressed stage cache
    // the cold run populated, byte-identically. Runs *after* the cold
    // copy counters are captured so the (cache-served) re-run's DFS
    // reads cannot pollute the memory-path gate.
    let warm_t0 = std::time::Instant::now();
    let warm = platform
        .run_pipeline(&aligner, pairs.clone())
        .map_err(|e| format!("smoke warm re-run failed: {e:?}"))?;
    let warm_rerun_wall_nanos = warm_t0.elapsed().as_nanos() as u64;
    let dag_stage_cache_hits = warm.cache_hits();
    if warm.records != out.records || warm.variants != out.variants {
        return Err(
            "dag-cache gate: warm re-run output differs from the cold run — \
             the stage cache is serving wrong bytes"
                .into(),
        );
    }
    // Critical path through the cold run's stage DAG, from the per-stage
    // wall clocks the executor recorded.
    let (_, dag_critical_path_ms) = critical_path(&out.dag_rows());
    let dag_critical_path_nanos = (dag_critical_path_ms * 1e6) as u64;

    // Spill-overlap metric: time the background encoder pool spent
    // sorting spills, over the wall-clock of the map waves it overlapped
    // with. Any positive value proves spills ran off the map thread; at
    // real scales it approaches the fraction of map time sorting on the
    // map thread would have serialized.
    let pool_busy_nanos = agg
        .get(gesall_mapreduce::counters::keys::SPILL_POOL_BUSY_NANOS)
        .copied()
        .unwrap_or(0);
    let seg_raw = agg
        .get(gesall_mapreduce::counters::keys::SHUFFLE_SEGMENTS_RAW)
        .copied()
        .unwrap_or(0);
    let seg_compressed = agg
        .get(gesall_mapreduce::counters::keys::SHUFFLE_SEGMENTS_COMPRESSED)
        .copied()
        .unwrap_or(0);
    let map_wave_ms: f64 = recorder
        .spans_of_kind(SpanKind::Wave)
        .iter()
        .filter(|s| s.name == "map-wave")
        .map(|s| s.end_ms - s.start_ms)
        .sum();
    let spill_overlap = if map_wave_ms > 0.0 {
        (pool_busy_nanos as f64 / 1e6) / map_wave_ms
    } else {
        0.0
    };

    // DFS-transit shuffle accounting: every shuffled byte travels
    // through the DFS.
    let shuffle_dfs_bytes = agg
        .get(gesall_mapreduce::counters::keys::SHUFFLE_BYTES_DFS)
        .copied()
        .unwrap_or(0);
    let reduce_peak_resident = agg
        .get(mem_keys::REDUCE_PEAK_RESIDENT)
        .copied()
        .unwrap_or(0);
    // Flatness probe: doubling the run count at fixed fan-in must not
    // move the streaming merge's peak resident bytes.
    let peak_n = streaming_merge_peak(8, 4);
    let peak_2n = streaming_merge_peak(16, 4);
    // Gray-failure probe: seeded corruption + slow + flaky injections
    // against a clean twin of the same job.
    let gray = gray_failure_probe()?;
    // Job-service probe: the same two jobs serial vs concurrent under
    // two tenants, with a forced elastic borrow + reclaim in between.
    let jobsvc = jobsvc_probe()?;
    // Shuffle-locality probe: a pinned replication-2 topology where
    // every segment has a co-located replica.
    let locality = shuffle_locality_probe()?;
    // Shuffle-codec probe: the genomic Seq codec vs the Lz baseline on
    // the same simulated-read shuffle.
    let codec = shuffle_codec_probe()?;

    // Kernel engagement: the bit-parallel kernels (packed rank, banded
    // SW, radix spill sort) report activity counters. Their exactness
    // is pinned by per-kernel proptests and their speed is tracked by
    // the benchmark of record; here they only have to have run.
    let phase_map_nanos = agg
        .get(gesall_telemetry::Phase::Map.counter_key())
        .copied()
        .unwrap_or(0);
    let kernel_occ_words = agg
        .get(gesall_telemetry::kernel_keys::OCC_WORDS_POPCOUNTED)
        .copied()
        .unwrap_or(0);
    let kernel_banded_hits = agg
        .get(gesall_telemetry::kernel_keys::SW_BANDED_HITS)
        .copied()
        .unwrap_or(0);
    let kernel_full_fallbacks = agg
        .get(gesall_telemetry::kernel_keys::SW_FULL_FALLBACKS)
        .copied()
        .unwrap_or(0);
    let kernel_radix_passes = agg
        .get(gesall_telemetry::kernel_keys::SORT_RADIX_PASSES)
        .copied()
        .unwrap_or(0);
    let kernel_comparison_fallbacks = agg
        .get(gesall_telemetry::kernel_keys::SORT_COMPARISON_FALLBACKS)
        .copied()
        .unwrap_or(0);
    let mut record = BenchRecord::new("smoke").with_counters(agg.into_iter().collect());
    record.wall_ms = wall_ms;
    record.workload = vec![
        ("n_pairs".into(), scale.n_pairs.to_string()),
        ("genome_bp".into(), genome.total_len().to_string()),
        ("n_rounds".into(), out.rounds.len().to_string()),
        ("n_variants".into(), out.variants.len().to_string()),
        ("bytes_copied_per_record".into(), format!("{per_record:.2}")),
        ("spill_overlap".into(), format!("{spill_overlap:.4}")),
        ("shuffle_segments_raw".into(), seg_raw.to_string()),
        (
            "shuffle_segments_compressed".into(),
            seg_compressed.to_string(),
        ),
        ("shuffle_dfs_bytes".into(), shuffle_dfs_bytes.to_string()),
        (
            "reduce_peak_resident_bytes".into(),
            reduce_peak_resident.to_string(),
        ),
        ("reduce_peak_resident_8_runs".into(), peak_n.to_string()),
        ("reduce_peak_resident_16_runs".into(), peak_2n.to_string()),
        ("dfs_reads_hedged".into(), gray.hedged.to_string()),
        ("dfs_corrupt_repaired".into(), gray.repaired.to_string()),
        ("dfs_corrupt_detected".into(), gray.detected.to_string()),
        ("gray_clean_ms".into(), format!("{:.2}", gray.clean_ms)),
        ("gray_faulty_ms".into(), format!("{:.2}", gray.faulty_ms)),
        (
            "shuffle_fetch_local_bytes".into(),
            locality.local_bytes.to_string(),
        ),
        (
            "shuffle_fetch_remote_bytes".into(),
            locality.remote_bytes.to_string(),
        ),
        (
            "shuffle_fetch_prefetched".into(),
            locality.prefetched.to_string(),
        ),
        ("shuffle_lz_dfs_bytes".into(), codec.lz_dfs_bytes.to_string()),
        (
            "shuffle_seq_dfs_bytes".into(),
            codec.seq_dfs_bytes.to_string(),
        ),
        (
            "shuffle_seq_bytes_saved".into(),
            codec.bytes_saved.to_string(),
        ),
        (
            "jobsvc_queue_wait_p90_nanos".into(),
            jobsvc.queue_wait_p90_nanos.to_string(),
        ),
        (
            "jobsvc_slots_borrowed".into(),
            jobsvc.slots_borrowed.to_string(),
        ),
        (
            "jobsvc_slots_reclaimed".into(),
            jobsvc.slots_reclaimed.to_string(),
        ),
        (
            "jobsvc_serial_a_ms".into(),
            format!("{:.2}", jobsvc.serial_a_ms),
        ),
        (
            "jobsvc_serial_b_ms".into(),
            format!("{:.2}", jobsvc.serial_b_ms),
        ),
        (
            "jobsvc_concurrent_ms".into(),
            format!("{:.2}", jobsvc.concurrent_ms),
        ),
        (
            "dag_stage_cache_hits".into(),
            dag_stage_cache_hits.to_string(),
        ),
        (
            "dag_critical_path_nanos".into(),
            dag_critical_path_nanos.to_string(),
        ),
        (
            "warm_rerun_wall_nanos".into(),
            warm_rerun_wall_nanos.to_string(),
        ),
        ("phase_map_nanos".into(), phase_map_nanos.to_string()),
        (
            "kernel_occ_words_popcounted".into(),
            kernel_occ_words.to_string(),
        ),
        (
            "kernel_sw_banded_hits".into(),
            kernel_banded_hits.to_string(),
        ),
        (
            "kernel_sw_full_fallbacks".into(),
            kernel_full_fallbacks.to_string(),
        ),
        (
            "kernel_sort_radix_passes".into(),
            kernel_radix_passes.to_string(),
        ),
        (
            "kernel_sort_comparison_fallbacks".into(),
            kernel_comparison_fallbacks.to_string(),
        ),
    ];
    record.config = vec![
        ("n_partitions".into(), scale.n_partitions.to_string()),
        ("io_sort_bytes".into(), io_sort_bytes.to_string()),
        ("merge_factor".into(), merge_factor.to_string()),
    ];
    if !record.covers_all_phases() {
        return Err(format!(
            "smoke run recorded no time for phases {:?} — the decomposition is broken",
            record.missing_phases()
        ));
    }
    // Memory-path gate: the zero-copy refactor's ≥2× reduction must
    // hold, and the per-record cost must stay near the recorded
    // baseline. Both thresholds are on a deterministic byte count, so a
    // failure is a real code change, not noise.
    if per_record > OLD_PATH_BYTES_PER_RECORD / 2.0 {
        return Err(format!(
            "memory-path gate: {per_record:.2} bytes copied/record loses the 2x \
             reduction over the pre-zero-copy path ({OLD_PATH_BYTES_PER_RECORD} B/rec)"
        ));
    }
    if per_record > BASELINE_BYTES_PER_RECORD * REGRESSION_HEADROOM {
        return Err(format!(
            "memory-path gate: {per_record:.2} bytes copied/record exceeds the \
             recorded baseline {BASELINE_BYTES_PER_RECORD} B/rec by more than \
             {:.0}%",
            (REGRESSION_HEADROOM - 1.0) * 100.0
        ));
    }
    // Overlap gate: the starved sort buffer guarantees spills, so the
    // encoder pool must have done real background work.
    if spill_overlap <= 0.0 {
        return Err(format!(
            "spill-overlap gate: encoder pool recorded no busy time \
             ({pool_busy_nanos} ns over {map_wave_ms:.1} ms of map waves) — \
             spill sorts are not being accounted to the pool"
        ));
    }
    // DFS-transit gate: the platform attaches its DFS, so the shuffled
    // bytes must show up on the transit counter.
    if shuffle_dfs_bytes == 0 {
        return Err(
            "dfs-transit gate: no shuffle bytes traveled through the DFS — \
             the transit path is not wired"
                .into(),
        );
    }
    // Peak-resident flatness gate: the streaming reduce merge's memory
    // bound is merge_factor × run size, so doubling the run count at a
    // fixed fan-in must leave the peak (nearly) unchanged.
    if peak_n == 0 || (peak_2n as f64) > (peak_n as f64) * PEAK_RESIDENT_FLATNESS {
        return Err(format!(
            "peak-resident gate: doubling input runs moved the streaming \
             merge's peak from {peak_n} to {peak_2n} bytes (> {PEAK_RESIDENT_FLATNESS}x) \
             — the merge is no longer memory-bounded"
        ));
    }
    // Gray-failure gates: the seeded corruption must be detected and
    // fully repaired, the slow node must have driven reads into
    // hedging, and surviving the whole matrix must not have cost more
    // than the allowed slowdown over the clean twin.
    if gray.detected == 0 || gray.repaired != gray.detected {
        return Err(format!(
            "gray-failure gate: {} corrupt blocks detected, {} repaired — \
             every detection must be repaired from a verified survivor",
            gray.detected, gray.repaired
        ));
    }
    if gray.hedged == 0 {
        return Err(
            "gray-failure gate: no reads hedged against the injected slow node — \
             the latency histogram is not driving hedged reads"
                .into(),
        );
    }
    let gray_allowed_ms = gray.clean_ms * GRAY_FAILURE_SLOWDOWN + GRAY_FAILURE_GRACE_MS;
    if gray.faulty_ms > gray_allowed_ms {
        return Err(format!(
            "gray-failure gate: faulty run took {:.1} ms vs {:.1} ms clean \
             (allowed {GRAY_FAILURE_SLOWDOWN}x + {GRAY_FAILURE_GRACE_MS} ms = {:.1} ms) — \
             the retry/hedge path is stalling instead of routing around faults",
            gray.faulty_ms, gray.clean_ms, gray_allowed_ms
        ));
    }
    // Shuffle-locality gates: with a replica of every pinned shuffle
    // block on the reducer's node, the affinity hint must route the
    // majority of fetch bytes to the co-located copy. A dropped or
    // inverted hint lands at zero — without a matching affinity every
    // byte counts as remote.
    let fetch_total = locality.local_bytes + locality.remote_bytes;
    if fetch_total == 0 {
        return Err(
            "shuffle-locality gate: the probe recorded no fetch bytes — \
             the transit fetch path is not being measured"
                .into(),
        );
    }
    let local_fraction = locality.local_bytes as f64 / fetch_total as f64;
    if local_fraction <= SHUFFLE_LOCAL_FRACTION {
        return Err(format!(
            "shuffle-locality gate: only {:.1}% of {fetch_total} fetch bytes were \
             served by the reducer's own node (need > {:.0}%) — the read-affinity \
             hint is not steering replica selection",
            local_fraction * 100.0,
            SHUFFLE_LOCAL_FRACTION * 100.0
        ));
    }
    // Codec gate: at byte-identical reduce output, the Seq shuffle must
    // move meaningfully fewer wire bytes through the DFS than the Lz
    // twin — the domain codec has to pay for itself on alignment
    // records, not just roundtrip.
    if codec.lz_dfs_bytes == 0 || codec.seq_dfs_bytes == 0 {
        return Err(
            "codec gate: a codec-probe run shuffled zero wire bytes through the DFS — \
             the forced codec is not reaching the transit path"
                .into(),
        );
    }
    let seq_vs_lz = codec.seq_dfs_bytes as f64 / codec.lz_dfs_bytes as f64;
    if seq_vs_lz > SEQ_VS_LZ_MAX_RATIO {
        return Err(format!(
            "codec gate: the Seq shuffle moved {} wire bytes vs {} under Lz \
             ({seq_vs_lz:.2}x, need <= {SEQ_VS_LZ_MAX_RATIO}x) — the genomic codec \
             is not beating the general-purpose baseline on alignment records",
            codec.seq_dfs_bytes, codec.lz_dfs_bytes
        ));
    }
    // Job-service gates: tenant A's whole-cluster ask must have been an
    // elastic borrow (and reclaimed when B arrived), and running both
    // jobs through the service must genuinely overlap them — a
    // serializing scheduler lands near the *sum* of the serial walls.
    if jobsvc.slots_borrowed == 0 || jobsvc.slots_reclaimed == 0 {
        return Err(format!(
            "jobsvc gate: {} slots borrowed, {} reclaimed — the whole-cluster ask \
             must borrow the idle tenant's share and give it back on demand",
            jobsvc.slots_borrowed, jobsvc.slots_reclaimed
        ));
    }
    let jobsvc_allowed_ms = jobsvc.serial_a_ms.max(jobsvc.serial_b_ms)
        * JOBSVC_CONCURRENCY_SLOWDOWN
        + JOBSVC_CONCURRENCY_GRACE_MS;
    if jobsvc.concurrent_ms > jobsvc_allowed_ms {
        return Err(format!(
            "jobsvc gate: two concurrent jobs took {:.1} ms vs serial walls \
             {:.1}/{:.1} ms (allowed {JOBSVC_CONCURRENCY_SLOWDOWN}x max + \
             {JOBSVC_CONCURRENCY_GRACE_MS} ms = {:.1} ms) — the scheduler is \
             serializing tenants instead of running them side by side",
            jobsvc.concurrent_ms, jobsvc.serial_a_ms, jobsvc.serial_b_ms, jobsvc_allowed_ms
        ));
    }
    // Kernel gates: the banded SW must have answered real extensions
    // inside the band (a zeroed counter means the fast path silently
    // fell back everywhere), and the packed rank and radix sort must
    // have engaged.
    if kernel_banded_hits == 0 {
        return Err(
            "kernel gate: banded Smith-Waterman recorded zero in-band hits — \
             every extension is falling back to the full DP"
                .into(),
        );
    }
    if kernel_occ_words == 0 {
        return Err(
            "kernel gate: packed-BWT rank popcounted zero words — \
             the rank kernel is not reporting"
                .into(),
        );
    }
    if kernel_radix_passes + kernel_comparison_fallbacks == 0 {
        return Err(
            "kernel gate: the radix spill sort never engaged — \
             spill batches are not reaching the sort kernel"
                .into(),
        );
    }
    // DAG-cache gates: the warm re-run must have been answered from the
    // stage cache (every stage a hit) and must cost a small fraction of
    // the cold wall — re-executing stages on a warm cache is the
    // regression this catches.
    if dag_stage_cache_hits == 0 {
        return Err(
            "dag-cache gate: warm re-run recorded zero stage cache hits — \
             the content-addressed store is not serving"
                .into(),
        );
    }
    let warm_ms = warm_rerun_wall_nanos as f64 / 1e6;
    if warm_ms > wall_ms * DAG_WARM_RERUN_MAX_RATIO {
        return Err(format!(
            "dag-cache gate: warm re-run took {warm_ms:.1} ms vs {wall_ms:.1} ms \
             cold (allowed {DAG_WARM_RERUN_MAX_RATIO}x) — stages are re-executing \
             instead of being cache-served"
        ));
    }

    let mut text = String::new();
    text.push_str(&format!(
        "== bench-smoke: traced end-to-end pipeline ({} pairs, {} bp, {:.0} ms) ==\n\n",
        scale.n_pairs,
        genome.total_len(),
        wall_ms
    ));
    text.push_str("Per-phase breakdown (ms, summed across tasks):\n");
    text.push_str(&out.phase_table());
    text.push_str(&format!(
        "\nMemory path: {total_copied} payload bytes copied \
         (engine {engine_copied} + pipes {pipe_copied} + dfs {dfs_copied}), \
         {shuffled} shuffled records -> {per_record:.2} bytes copied/record\n"
    ));
    text.push_str(&format!(
        "Spill overlap: encoder pool busy {:.2} ms across {map_wave_ms:.2} ms \
         of map waves -> {spill_overlap:.4}x overlap; segments shipped: \
         {seg_compressed} compressed, {seg_raw} raw\n",
        pool_busy_nanos as f64 / 1e6
    ));
    text.push_str(&format!(
        "Shuffle transit: {shuffle_dfs_bytes} wire bytes through the DFS; \
         reduce merge peaked at {reduce_peak_resident} resident bytes (flatness probe: {peak_n} B @ 8 \
         runs vs {peak_2n} B @ 16 runs, fan-in 4)\n"
    ));
    text.push_str(&format!(
        "Gray failures: {} corrupt blocks detected / {} repaired, {} reads \
         hedged, {} retried; faulty twin {:.1} ms vs {:.1} ms clean\n",
        gray.detected, gray.repaired, gray.hedged, gray.retried, gray.faulty_ms, gray.clean_ms
    ));
    text.push_str(&format!(
        "Locality probe: {}",
        shuffle_fetch_summary(locality.local_bytes, locality.remote_bytes, locality.prefetched)
    ));
    text.push_str(&format!(
        "Codec twin: Seq shuffled {} wire bytes vs {} under Lz ({seq_vs_lz:.2}x, \
         {} B saved at byte-identical output)\n",
        codec.seq_dfs_bytes, codec.lz_dfs_bytes, codec.bytes_saved
    ));
    text.push_str(&format!(
        "Job service: 2 tenants concurrent {:.1} ms vs serial {:.1}/{:.1} ms; \
         {} slots borrowed, {} reclaimed, queue-wait p90 {:.2} ms\n",
        jobsvc.concurrent_ms,
        jobsvc.serial_a_ms,
        jobsvc.serial_b_ms,
        jobsvc.slots_borrowed,
        jobsvc.slots_reclaimed,
        jobsvc.queue_wait_p90_nanos as f64 / 1e6
    ));
    text.push_str(&format!(
        "Stage DAG: warm re-run {warm_ms:.1} ms vs {wall_ms:.1} ms cold, \
         {dag_stage_cache_hits} stages cache-served; critical path {:.1} ms\n",
        dag_critical_path_ms
    ));
    text.push_str(&format!(
        "Kernels: Map phase {:.1} ms; \
         {kernel_occ_words} occ words popcounted, {kernel_banded_hits} banded SW hits \
         / {kernel_full_fallbacks} full fallbacks, {kernel_radix_passes} radix passes \
         / {kernel_comparison_fallbacks} comparison fallbacks\n",
        phase_map_nanos as f64 / 1e6
    ));

    // Task timeline across the whole run, from the attempt spans.
    let mut attempts = recorder.spans_of_kind(SpanKind::TaskAttempt);
    attempts.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
    let bars: Vec<GanttRow> = attempts
        .iter()
        .map(|s| GanttRow {
            label: s.name.clone(),
            start_ms: s.start_ms,
            end_ms: s.end_ms,
        })
        .collect();
    text.push_str("\nTask attempts (all rounds, shared time axis):\n");
    text.push_str(&gantt(&bars, 60));

    let group = |prefix: &str| -> Vec<f64> {
        attempts
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.end_ms - s.start_ms)
            .collect()
    };
    text.push_str("\nStraggler / skew statistics:\n");
    text.push_str(&straggler_report(&[
        ("map".to_string(), group("map-")),
        ("reduce".to_string(), group("reduce-")),
    ]));

    text.push_str("\nShuffle matrix (bytes moved, all shuffling rounds):\n");
    text.push_str(&shuffle_matrix(&recorder.shuffle_cells()));

    let bench_path = match out_dir {
        Some(dir) => Some(
            record
                .append_to_dir(dir)
                .map_err(|e| format!("cannot write bench record: {e}"))?,
        ),
        None => None,
    };
    if let Some(p) = &bench_path {
        text.push_str(&format!("\nBench record appended to {}\n", p.display()));
    }
    Ok(SmokeOutcome {
        report: text,
        record,
        bench_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_telemetry::bench::read_bench_file;
    use gesall_telemetry::Phase;

    #[test]
    fn smoke_covers_all_phases_and_writes_valid_json() {
        let dir = std::env::temp_dir().join(format!("gesall-smoke-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let outcome = run_smoke(Some(&dir)).expect("smoke run succeeds");
        assert!(outcome.record.covers_all_phases());
        for phase in Phase::ALL {
            assert!(
                outcome.report.contains(phase.name()),
                "report lacks phase {}",
                phase.name()
            );
        }
        assert!(outcome.report.contains("Shuffle matrix"));
        assert!(outcome.report.contains("skew"));
        assert!(outcome.report.contains("Spill overlap"));
        let overlap: f64 = outcome
            .record
            .workload
            .iter()
            .find(|(k, _)| k == "spill_overlap")
            .map(|(_, v)| v.parse().unwrap())
            .expect("spill_overlap field in bench record");
        assert!(overlap > 0.0, "spill sorts must overlap map work");
        let field = |k: &str| -> u64 {
            outcome
                .record
                .workload
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.parse().unwrap())
                .unwrap_or_else(|| panic!("{k} field in bench record"))
        };
        assert!(
            field("shuffle_dfs_bytes") > 0,
            "shuffle must travel through the DFS"
        );
        assert!(field("reduce_peak_resident_bytes") > 0);
        assert!(outcome.report.contains("Shuffle transit"));
        // Gray-failure probe: the seeded faults fired and were survived.
        assert!(
            field("dfs_reads_hedged") > 0,
            "the slow node must push reads into hedging"
        );
        assert!(
            field("dfs_corrupt_repaired") > 0,
            "the injected corruption must be detected and repaired"
        );
        assert_eq!(field("dfs_corrupt_repaired"), field("dfs_corrupt_detected"));
        assert!(outcome.report.contains("Gray failures"));
        // Locality probe: the affinity hint steered the majority of
        // fetch bytes to the co-located replica.
        assert!(
            field("shuffle_fetch_local_bytes") > field("shuffle_fetch_remote_bytes"),
            "the read-affinity hint must serve most fetch bytes locally"
        );
        let _ = field("shuffle_fetch_prefetched");
        assert!(outcome.report.contains("Locality probe"));
        // Codec probe: the genomic Seq codec beat Lz on wire bytes at
        // byte-identical reduce output.
        assert!(
            field("shuffle_seq_bytes_saved") > 0,
            "the Seq codec must save wire bytes over Lz"
        );
        assert!(field("shuffle_seq_dfs_bytes") < field("shuffle_lz_dfs_bytes"));
        assert!(outcome.report.contains("Codec twin"));
        // Job-service probe: the whole-cluster ask borrowed the idle
        // tenant's share and gave it back when the second tenant arrived.
        assert!(
            field("jobsvc_slots_borrowed") > 0,
            "tenant A's whole-cluster ask must register an elastic borrow"
        );
        assert!(
            field("jobsvc_slots_reclaimed") > 0,
            "tenant B's arrival must reclaim the borrowed slots"
        );
        assert!(outcome.report.contains("Job service"));
        // DAG probe: the warm re-run was cache-served, fast, and the
        // cold run's critical path was measured.
        assert!(
            field("dag_stage_cache_hits") > 0,
            "the warm re-run must be served from the stage cache"
        );
        assert!(field("dag_critical_path_nanos") > 0);
        assert!(field("warm_rerun_wall_nanos") > 0);
        assert!(outcome.report.contains("Stage DAG"));
        // Kernel probe: the bit-parallel kernels ran.
        assert!(
            field("kernel_sw_banded_hits") > 0,
            "banded SW must answer extensions inside the band"
        );
        assert!(
            field("kernel_occ_words_popcounted") > 0,
            "packed rank must popcount words"
        );
        assert!(field("phase_map_nanos") > 0);
        assert!(outcome.report.contains("Kernels:"));
        // The record on disk round-trips through the JSON parser.
        let path = outcome.bench_path.expect("bench path written");
        let records = read_bench_file(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "smoke");
        assert!(records[0].covers_all_phases());
        assert!(records[0].wall_ms > 0.0);
        // The span trace streamed to JSONL, one parseable object per line.
        let trace = std::fs::read_to_string(dir.join("smoke_trace.jsonl")).unwrap();
        assert!(trace.lines().count() > 10);
        for line in trace.lines().take(5) {
            gesall_telemetry::Json::parse(line).expect("valid JSONL span");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
