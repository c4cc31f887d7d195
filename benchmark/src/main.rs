//! The benchmark of record for Gesall-RS: four workloads measured end to
//! end, and — in a separate traced run — layer by layer, from outside,
//! through each crate's public API. See `README.md` next to this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! gesall-benchmark --workload W --seed N --seconds T --trace 0|1 [--out DIR]
//! gesall-benchmark run   [--seed S] [--seconds T] [--out DIR]
//! gesall-benchmark trace [--seed S] [--seconds T] [--out DIR]
//! gesall-benchmark compare A.json B.json
//! gesall-benchmark manifest
//! ```

mod compare;
mod harness;
mod inputs;
mod names;
mod pipeline;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use gesall_telemetry::Json;
use harness::Harness;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// `run_seconds` in `BENCHMARK.json`, and the default for `--seconds`.
const RUN_SECONDS: u64 = 20;

/// Output digests at [`inputs::DEFAULT_SEED`] and the measured baseline.
const BASELINE: &str = include_str!("../baseline.json");

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_flags(flags: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        // Inside the checkout, git-ignored.
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    names::WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .ok_or_else(|| {
            let known: Vec<&str> = names::WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        })
}

/// One workload in this process: measure, check, print, write.
fn run_one(a: &Args, workload: &'static str) -> Result<ExitCode, String> {
    let started = Instant::now();
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let h = Harness::new(workload, a.seed, a.seconds, a.trace, &a.out);
    let o = workloads::run(&h);

    if a.seed == inputs::DEFAULT_SEED {
        let committed = Json::parse(BASELINE).ok().and_then(|b| {
            b.get("output_digests")?
                .get(workload)?
                .as_str()
                .map(str::to_string)
        });
        let got = format!("{:016x}", o.output_digest);
        if committed.as_deref().is_some_and(|c| c != got) {
            h.violation(format!(
                "output digest {got} at the default seed differs from the committed {committed:?}"
            ));
        }
    }
    if h.traced() {
        let spans = h.tracer.spans();
        let escaping = trace::escaping_spans(&spans);
        if !escaping.is_empty() {
            h.violation(format!(
                "span tree not closed: spans {escaping:?} outlive their parent"
            ));
        }
        let path = a.out.join(format!("trace-{workload}.json"));
        std::fs::write(&path, h.tracer.to_chrome_trace().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let wall = started.elapsed().as_secs_f64();
    report::print_human(&h, &o, wall);
    let detail = a.out.join(format!(
        "run-{workload}-{}-{}.json",
        a.seed,
        u8::from(a.trace)
    ));
    std::fs::write(&detail, report::detail_doc(&h, &o, wall).render())
        .map_err(|e| format!("{}: {e}", detail.display()))?;
    // The driver reads the last line of standard output.
    println!("{}", report::result_line(&h, &o));
    Ok(if h.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in a process of its own (peak memory is then
/// per workload), collected into `<out>/results.json`.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut all_ok = true;
    for (workload, _) in names::WORKLOADS {
        let t = Instant::now();
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out)
            .status()
            .map_err(|e| format!("spawning {workload}: {e}"))?;
        all_ok &= status.success();
        println!(
            "[{workload}] wall {:.1} s, {status}",
            t.elapsed().as_secs_f64()
        );
        let detail = a.out.join(format!(
            "run-{workload}-{}-{}.json",
            a.seed,
            u8::from(a.trace)
        ));
        let doc =
            std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
        runs.push(Json::parse(&doc).map_err(|e| format!("{}: {e}", detail.display()))?);
    }
    let total = started.elapsed().as_secs_f64();
    println!("total wall {total:.1} s for {} workloads", runs.len());
    let set = Json::obj()
        .field("seed", a.seed)
        .field("traced", a.trace)
        .field("total_wall_s", total)
        .field("runs", runs);
    let path = a.out.join("results.json");
    std::fs::write(&path, set.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The `BENCHMARK.json` this binary implements.
fn manifest() -> String {
    let metric = |m: &names::MetricDef| {
        let row = Json::obj()
            .field("name", m.name.as_str())
            .field("unit", m.unit)
            .field("better", m.better.as_str());
        match m.bound {
            Some(b) => row.field("bound", b),
            None => row,
        }
    };
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Json::from)
    .collect();
    let workloads: Vec<Json> = names::WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj().field("name", *name).field("why", *why))
        .collect();
    // One row per line, so a later correction is a readable diff.
    let rows = |items: Vec<Json>| -> String {
        let lines: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        Json::from(command).render(),
        rows(workloads),
        rows(names::end_to_end().iter().map(metric).collect()),
        rows(names::per_layer().iter().map(metric).collect()),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(a, b).map(|code| ExitCode::from(code as u8)),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("manifest") => {
            println!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => parse_flags(&argv[1..]).and_then(|a| run_all(&a)),
        Some("trace") => parse_flags(&argv[1..]).and_then(|a| run_all(&Args { trace: true, ..a })),
        _ => parse_flags(&argv).and_then(|a| {
            let name = a
                .workload
                .clone()
                .ok_or("missing --workload (or a subcommand: run, trace, compare, manifest)")?;
            run_one(&a, workload_name(&name)?)
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("gesall-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_flags(&flags(
            "--workload storage_rw --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("storage_rw"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(parse_flags(&flags("--trace 2")).is_err());
        assert!(parse_flags(&flags("--seconds 0")).is_err());
        assert!(parse_flags(&flags("--seed")).is_err());
        assert!(parse_flags(&flags("--frobnicate 1")).is_err());
        assert!(workload_name("wgs_hc").is_ok());
        assert!(workload_name("nope").is_err());
    }

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        let committed =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            Json::parse(&manifest()).expect("manifest parses"),
            committed
        );
        let Json::Obj(fields) = &committed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn baseline_records_a_digest_per_workload() {
        let b = Json::parse(BASELINE).expect("baseline.json parses");
        assert_eq!(
            b.get("default_seed").and_then(Json::as_f64),
            Some(inputs::DEFAULT_SEED as f64)
        );
        for (w, _) in names::WORKLOADS {
            let d = b
                .get("output_digests")
                .and_then(|d| d.get(w))
                .and_then(Json::as_str);
            assert!(
                d.is_some_and(|d| d.len() == 16),
                "baseline.json lacks a digest for {w}"
            );
        }
    }
}
