//! `compare A.json B.json`: for every end-to-end metric × workload, both
//! medians with quartiles, the ratio with its base, and a verdict
//! against the metric's bound. A is the base (parent), B the change.

use crate::names::{self, Better, MetricDef};
use crate::stats;
use gesall_telemetry::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread exceeds the bound and the two sides'
    /// inter-quartile ranges overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for one metric on one workload from each side's values.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (q1a, ma, q3a) = stats::quartiles(a);
    let (q1b, mb, q3b) = stats::quartiles(b);
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = ((q3a - q1a) / ma).max((q3b - q1b) / mb);
    let overlap = q1a <= q3b && q1b <= q3a;
    if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One side of the comparison, per workload.
#[derive(Debug, Default)]
struct Side {
    /// workload → end-to-end metric → per-repetition samples.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (seed, output digest).
    digests: BTreeMap<String, (f64, String)>,
    failed: f64,
}

/// Reads a run set (`results.json`: `{"runs": [...]}`, one untraced run
/// per workload) or a single run document.
fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![&doc],
    };
    let mut side = Side::default();
    for run in runs {
        if run.get("trace") == Some(&Json::Bool(true)) {
            return Err(format!(
                "{path}: end-to-end metrics come from untraced runs only"
            ));
        }
        let w = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: run without workload"))?;
        let metrics = side.values.entry(w.to_string()).or_default();
        for m in names::end_to_end() {
            let samples = run
                .get("samples")
                .and_then(|s| s.get(&m.name))
                .and_then(Json::as_arr);
            if let Some(samples) = samples {
                metrics.insert(m.name, samples.iter().filter_map(Json::as_f64).collect());
            }
        }
        side.failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(-1.0);
        let digest = run
            .get("output_digest")
            .and_then(Json::as_str)
            .unwrap_or("?");
        side.digests
            .insert(w.to_string(), (seed, digest.to_string()));
    }
    Ok(side)
}

/// Prints the table; returns the process exit code (1 when any metric
/// regressed, an output digest differs, or an operation failed).
pub fn run(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let defs: Vec<MetricDef> = names::end_to_end();
    let mut bad = 0;
    println!("base A = {path_a}\nchange B = {path_b}");
    println!(
        "{:<16} {:<12} {:>34} {:>34} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A", "bound"
    );
    for (w, am) in &a.values {
        let Some(bm) = b.values.get(w) else {
            println!("{w:<16} missing from B");
            bad += 1;
            continue;
        };
        for m in &defs {
            let (Some(va), Some(vb)) = (am.get(&m.name), bm.get(&m.name)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(va, vb, m.better, bound);
            bad += i32::from(v == Verdict::Regressed);
            let cell = |v: &[f64]| {
                let (q1, med, q3) = stats::quartiles(v);
                format!("{med:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
            };
            println!(
                "{w:<16} {:<12} {:>34} {:>34} {:>9.4} {:>5.0}%  {}",
                m.name,
                cell(va),
                cell(vb),
                stats::median(vb) / stats::median(va),
                bound * 100.0,
                v.as_str()
            );
        }
        // Same seed, same commit ⇒ same bytes.
        match (a.digests.get(w), b.digests.get(w)) {
            (Some((sa, da)), Some((sb, db))) if sa == sb => {
                println!(
                    "{w:<16} output digest at seed {sa}: {}",
                    if da == db { "identical" } else { "DIFFERS" }
                );
                bad += i32::from(da != db);
            }
            _ => println!("{w:<16} output digests not comparable (different seeds)"),
        }
    }
    println!("ops_failed: A {} B {}", a.failed, b.failed);
    if a.failed + b.failed > 0.0 {
        bad += 1;
    }
    Ok(i32::from(bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.05, 9.95];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let slightly: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&steady, &slightly, Better::Lower, 0.10),
            Verdict::Ok
        );
        // Faster is never a regression; for higher-is-better it is.
        assert_eq!(verdict(&slower, &steady, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&slower, &steady, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Spread wider than the bound with overlapping quartiles: the
        // data cannot tell, whatever the medians say.
        let noisy_a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let noisy_b = [9.0, 11.5, 13.0, 10.0, 12.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide spread but disjoint ranges is resolved.
        let far: Vec<f64> = noisy_a.iter().map(|v| v * 2.0).collect();
        assert_eq!(
            verdict(&noisy_a, &far, Better::Lower, 0.10),
            Verdict::Regressed
        );
    }
}
