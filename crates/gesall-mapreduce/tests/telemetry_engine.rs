//! Engine ↔ telemetry integration: the span tree a traced job emits,
//! the six-phase counter decomposition, the shuffle matrix, and the
//! overhead bound instrumentation must honor when tracing is off.

use gesall_mapreduce::{
    ClusterResources, HashPartitioner, InputSplit, JobConfig, MapContext, MapReduceEngine, Mapper,
    Phase, Recorder, ReduceContext, Reducer, SpanKind,
};

struct Tokenize;
impl Mapper for Tokenize {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: &u64, line: &String, ctx: &mut MapContext<'_, String, u64>) {
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

fn word_splits(n_splits: usize, lines_per: usize) -> Vec<InputSplit<u64, String>> {
    (0..n_splits)
        .map(|s| {
            let records = (0..lines_per)
                .map(|i| {
                    (
                        i as u64,
                        format!("alpha beta gamma w{} delta", (s * lines_per + i) % 29),
                    )
                })
                .collect();
            InputSplit::new(format!("split-{s}"), records)
        })
        .collect()
}

fn run_job(engine: &MapReduceEngine, n_splits: usize, lines: usize) -> f64 {
    let cfg = JobConfig {
        name: "telemetry-test".into(),
        n_reducers: 3,
        io_sort_bytes: 2048, // force spills so sort-spill/map-merge show up
        ..JobConfig::default()
    };
    let res = engine
        .run_job(
            cfg,
            &Tokenize,
            &Sum,
            &HashPartitioner,
            word_splits(n_splits, lines),
        )
        .expect("fault-free job must succeed");
    res.wall_ms
}

#[test]
fn traced_job_emits_full_span_tree() {
    let recorder = Recorder::new();
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096))
        .with_recorder(recorder.clone());
    run_job(&engine, 4, 30);

    let jobs = recorder.spans_of_kind(SpanKind::Job);
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].name, "telemetry-test");

    let waves = recorder.spans_of_kind(SpanKind::Wave);
    assert_eq!(waves.len(), 2, "one map wave + one reduce wave");
    assert!(waves.iter().all(|w| w.parent == jobs[0].id));
    let names: Vec<&str> = waves.iter().map(|w| w.name.as_str()).collect();
    assert!(names.contains(&"map-wave") && names.contains(&"reduce-wave"));

    let attempts = recorder.spans_of_kind(SpanKind::TaskAttempt);
    assert_eq!(attempts.len(), 7, "4 maps + 3 reduces, no retries");
    let wave_ids: Vec<_> = waves.iter().map(|w| w.id).collect();
    for a in &attempts {
        assert!(wave_ids.contains(&a.parent), "attempt parented to a wave");
        assert!(a.end_ms >= a.start_ms);
        assert!(a.meta.iter().any(|(k, v)| k == "outcome" && v == "Succeeded"));
        assert!(!a.metrics.is_empty(), "attempt carries its counter bag");
    }
}

#[test]
fn all_six_phases_are_timed() {
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096));
    let cfg = JobConfig {
        n_reducers: 3,
        io_sort_bytes: 1024,
        merge_factor: 2, // force intermediate reduce-merge passes
        ..JobConfig::default()
    };
    let res = engine
        .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(6, 40))
        .unwrap();
    for phase in Phase::ALL {
        assert!(
            res.counters.get(phase.counter_key()) > 0,
            "phase {} must accumulate nanos",
            phase.name()
        );
    }
}

#[test]
fn an_attempts_phases_partition_its_wall() {
    // Every phase timer of an attempt runs on the attempt's own thread,
    // nested inside its span, so the six of them can only sum to at most
    // the span — an inequality between nested timers, whatever the
    // machine is doing. A phase charged from a second thread that
    // overlaps the body (the spill sort, once) overshoots it.
    let recorder = Recorder::new();
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096))
        .with_recorder(recorder.clone());
    let cfg = JobConfig {
        n_reducers: 2,
        io_sort_bytes: 256,
        merge_factor: 2,
        ..JobConfig::default()
    };
    engine
        .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(4, 60))
        .unwrap();
    let metric = |a: &gesall_mapreduce::Span, key: &str| {
        a.metrics.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
    };
    let committed: Vec<_> = recorder
        .spans_of_kind(SpanKind::TaskAttempt)
        .into_iter()
        .filter(|a| a.meta.iter().any(|(k, v)| k == "outcome" && v == "Succeeded"))
        .collect();
    assert_eq!(committed.len(), 4 + 2);
    for a in &committed {
        if a.name.starts_with("map-") {
            assert!(metric(a, "map.spills") >= 4, "{}: too few spills to tell", a.name);
        }
        let phases: u64 = Phase::ALL.iter().map(|p| metric(a, p.counter_key())).sum();
        // The span is stamped in f64 milliseconds: allow 1 µs for them.
        let span_nanos = (a.end_ms - a.start_ms) * 1e6 + 1e3;
        assert!(phases > 0, "{} carries no phase time", a.name);
        assert!(
            phases as f64 <= span_nanos,
            "{}: phases sum to {phases} ns in a span of {span_nanos:.0} ns",
            a.name
        );
    }
}

#[test]
fn shuffle_matrix_covers_every_map_reduce_pair_once() {
    let recorder = Recorder::new();
    let engine = MapReduceEngine::local(2).with_recorder(recorder.clone());
    run_job(&engine, 4, 20);
    let cells = recorder.shuffle_cells();
    assert_eq!(cells.len(), 4 * 3, "one cell per (map, reduce) pair");
    let total: u64 = cells.iter().map(|c| c.bytes).sum();
    assert!(total > 0);
    // No duplicates even though tasks may retry or speculate.
    let mut pairs: Vec<(usize, usize)> =
        cells.iter().map(|c| (c.map_task, c.reduce_task)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    assert_eq!(pairs.len(), 12);
}

#[test]
fn disabled_recorder_records_nothing() {
    let engine = MapReduceEngine::local(2); // default: Recorder::disabled()
    run_job(&engine, 3, 20);
    assert!(engine.recorder().spans().is_empty());
    assert!(engine.recorder().shuffle_cells().is_empty());
    assert!(!engine.recorder().is_enabled());
}

/// The acceptance bound: tracing with a live sink must cost < 5%
/// wall-clock versus the disabled recorder. Best-of-N on both sides
/// plus a small absolute grace absorbs scheduler noise; the real signal
/// is that per-span work is O(tasks), not O(records).
#[test]
fn telemetry_overhead_under_five_percent() {
    let best = |recorder: fn() -> Recorder| -> f64 {
        (0..5)
            .map(|_| {
                let engine = MapReduceEngine::local(2).with_recorder(recorder());
                run_job(&engine, 6, 120)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let disabled = best(Recorder::disabled);
    let enabled = best(|| Recorder::with_sink(Box::new(std::io::sink())));
    assert!(
        enabled <= disabled * 1.05 + 2.0,
        "telemetry overhead too high: enabled {enabled:.2} ms vs disabled {disabled:.2} ms"
    );
}
