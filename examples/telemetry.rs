//! Tracing a MapReduce job with `gesall-telemetry`.
//!
//! ```text
//! cargo run --example telemetry
//! ```
//!
//! Runs a small word-count job with a live [`Recorder`], then derives
//! every report the subsystem offers: the span tree, the six-phase
//! breakdown, a task Gantt chart, straggler statistics, and the
//! shuffle matrix. A small pipeline run then shows the stage table:
//! each stage's wall next to its job's, i.e. what the driver thread
//! spent around the job while the task slots idled.

use gesall::mapreduce::{
    ClusterResources, HashPartitioner, InputSplit, JobConfig, MapContext, MapReduceEngine, Mapper,
    Phase, Recorder, ReduceContext, Reducer, SpanKind,
};
use gesall::telemetry::report::{gantt, phase_table, straggler_report, GanttRow, PhaseRow};
use gesall::telemetry::report::shuffle_matrix;

use gesall::aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall::datagen::reads::ReadSimConfig;
use gesall::datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall::dfs::{Dfs, DfsConfig};
use gesall::platform::{GesallPlatform, PlatformConfig};

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

fn main() {
    // 1. An enabled recorder, shared with the engine. Swap in
    //    `Recorder::with_jsonl_sink(path)` to also stream spans to disk.
    let recorder = Recorder::new();
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .with_recorder(recorder.clone());

    // 2. Run a job. The tiny sort buffer forces spills and merge passes
    //    so all six phases of the paper's decomposition show up.
    let splits: Vec<InputSplit<u64, String>> = (0..6)
        .map(|s| {
            let records = (0..200u64)
                .map(|i| (i, format!("the quick brown fox w{} jumps", (s * 37 + i) % 53)))
                .collect();
            InputSplit::new(format!("split-{s}"), records)
        })
        .collect();
    let result = engine
        .run_job(
            JobConfig {
                name: "wordcount".into(),
                n_reducers: 4,
                io_sort_bytes: 4096,
                merge_factor: 2,
                ..JobConfig::default()
            },
            &Tokenize,
            &Sum,
            &HashPartitioner,
            splits,
        )
        .expect("job runs");

    // 3. The span tree: job → waves → task attempts.
    println!("== span tree ==");
    for span in recorder.spans() {
        println!(
            "  {:<13} {:<16} parent={:<3} [{:.2} → {:.2} ms]",
            span.kind.name(),
            span.name,
            span.parent.0,
            span.start_ms,
            span.end_ms
        );
    }

    // 4. Per-phase breakdown from the job's counters (Tables 4–7 shape).
    println!("\n== six-phase breakdown ==");
    let row = PhaseRow::from_snapshot("wordcount", result.wall_ms, &result.counters.counter_snapshot());
    assert!(row.covers_all_phases(), "all six phases timed");
    print!("{}", phase_table(&[row]));
    for phase in Phase::ALL {
        println!(
            "  {:<12} {:>12} ns",
            phase.name(),
            result.counters.get(phase.counter_key())
        );
    }

    // 5. Task Gantt + straggler stats from the attempt spans.
    let attempts = recorder.spans_of_kind(SpanKind::TaskAttempt);
    let bars: Vec<GanttRow> = attempts
        .iter()
        .map(|s| GanttRow {
            label: s.name.clone(),
            start_ms: s.start_ms,
            end_ms: s.end_ms,
        })
        .collect();
    println!("\n== task timeline ==");
    print!("{}", gantt(&bars, 48));
    let durations: Vec<f64> = attempts.iter().map(|s| s.duration_ms()).collect();
    println!("\n== straggler stats ==");
    print!(
        "{}",
        straggler_report(&[("all-attempts".to_string(), durations)])
    );

    // 6. Bytes moved map → reduce.
    println!("\n== shuffle matrix ==");
    print!("{}", shuffle_matrix(&recorder.shuffle_cells()));

    // 7. The pipeline's stage table: stage wall, job wall, and the
    //    difference (resolve, commit, place — the driver's share), cold
    //    and then served from the stage cache.
    let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
    let donor = DonorGenome::generate(&genome, &Default::default());
    let reads = ReadSimConfig {
        n_pairs: 1_500,
        ..ReadSimConfig::default()
    };
    let (pairs, _) = ReadSimulator::new(&genome, &donor, reads).simulate();
    let chroms: Vec<(String, Vec<u8>)> = genome
        .chromosomes
        .iter()
        .map(|c| (c.name.clone(), c.seq.clone()))
        .collect();
    let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
    let platform = GesallPlatform::new(
        Dfs::new(DfsConfig::default()),
        MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)),
        PlatformConfig {
            recalibrate: true,
            ..PlatformConfig::default()
        },
    );
    for what in ["cold", "warm"] {
        let out = platform.run_pipeline(&aligner, pairs.clone()).expect("pipeline runs");
        println!("\n== pipeline stages, {what} ==");
        print!("{}", out.dag_report());
        let rows = out.stage_rows();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.job_ms <= r.duration_ms && r.cached == (what == "warm")));
    }
}
