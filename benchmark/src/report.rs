//! Turning one run's [`Outcome`] into what gets printed and written: the
//! by-name metric table for people, the one-line result object for the
//! driver, and the detail document `compare` reads.

use crate::harness::{Harness, Outcome};
use crate::names::{self, MetricDef};
use crate::trace;
use gesall_telemetry::Json;

/// `{"name": {"value": v, "unit": u}}` for the given definitions; a
/// metric the run did not measure reads 0 (it does not apply there).
fn metrics_json(defs: &[MetricDef], o: &Outcome) -> Json {
    defs.iter().fold(Json::obj(), |doc, m| {
        let value = o.metrics.get(&m.name).copied().unwrap_or(0.0);
        doc.field(
            &m.name,
            Json::obj().field("value", value).field("unit", m.unit),
        )
    })
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` — every end-to-end metric untraced, every per-layer
/// metric traced.
pub fn result_line(h: &Harness, o: &Outcome) -> String {
    let defs = if h.traced() {
        names::per_layer()
    } else {
        names::end_to_end()
    };
    Json::obj()
        .field("correct", h.failed() == 0)
        .field("attempted", h.attempted().max(1))
        .field("failed", h.failed())
        .field("metrics", metrics_json(&defs, o))
        .render()
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Everything about the run, for `results.json` and `compare`.
pub fn detail_doc(h: &Harness, o: &Outcome, process_wall_s: f64) -> Json {
    let all: Vec<MetricDef> = names::end_to_end()
        .into_iter()
        .chain(names::per_layer())
        .collect();
    let measured: Vec<MetricDef> = all
        .into_iter()
        .filter(|m| o.metrics.contains_key(&m.name))
        .collect();
    let samples = o.samples.iter().fold(Json::obj(), |doc, (name, values)| {
        doc.field(
            name,
            values.iter().map(|v| Json::from(*v)).collect::<Vec<Json>>(),
        )
    });
    let notes = o
        .notes
        .iter()
        .fold(Json::obj(), |doc, (k, v)| doc.field(k, *v));
    Json::obj()
        .field("workload", h.workload)
        .field("seed", h.seed)
        .field("seconds", h.seconds)
        .field("trace", h.traced())
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .field("correct", h.failed() == 0)
        .field("attempted", h.attempted())
        .field("failed", h.failed())
        .field(
            "failures",
            h.failures()
                .into_iter()
                .map(Json::from)
                .collect::<Vec<Json>>(),
        )
        .field("input_digest", hex(o.input_digest))
        .field("output_digest", hex(o.output_digest))
        .field("process_wall_s", process_wall_s)
        .field("metrics", metrics_json(&measured, o))
        .field("samples", samples)
        .field("notes", notes)
}

/// Every measured metric by name with its unit, then the operation
/// ledger — and, for traced runs, the per-layer table.
pub fn print_human(h: &Harness, o: &Outcome, process_wall_s: f64) {
    let mode = if h.traced() { "traced" } else { "untraced" };
    println!("== {} (seed {}, {mode}) ==", h.workload, h.seed);
    let print_defs = |title: &str, defs: Vec<MetricDef>| {
        println!("-- {title} --");
        for m in defs {
            if let Some(v) = o.metrics.get(&m.name) {
                let n = o
                    .samples
                    .get(&m.name)
                    .map_or(String::new(), |s| format!("  (median of n={})", s.len()));
                println!("{:<44} {:>16.6} {}{n}", m.name, v, m.unit);
            }
        }
    };
    print_defs("end-to-end", names::end_to_end());
    print_defs("per-layer", names::per_layer());
    for (k, v) in &o.notes {
        println!("note {k} = {v}");
    }
    if h.traced() {
        println!("-- traced wall by layer (self time = span minus covered children) --");
        println!(
            "{:<20} {:>6} {:>10} {:>10} {:>7}",
            "layer", "spans", "wall_s", "self_s", "share"
        );
        for r in trace::layer_table(&h.tracer.spans()) {
            println!(
                "{:<20} {:>6} {:>10.4} {:>10.4} {:>6.1}%",
                r.layer,
                r.spans,
                r.wall_s,
                r.self_s,
                r.share * 100.0
            );
        }
        if let Some(share) = o.metrics.get("core.residual_share") {
            println!(
                "core.residual_share = {:.1}% of the traced pipeline call",
                share * 100.0
            );
        }
    }
    println!(
        "input_digest {} output_digest {}",
        hex(o.input_digest),
        hex(o.output_digest)
    );
    println!(
        "ops_attempted {} ops_failed {} process_wall_s {process_wall_s:.3}",
        h.attempted(),
        h.failed()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_listed_metric() {
        for traced in [false, true] {
            let h = Harness::new("wgs_hc", 1, 10.0, traced, Path::new("."));
            let mut o = Outcome::default();
            o.set("run_wall_s", 1.25);
            let doc = Json::parse(&result_line(&h, &o)).expect("one JSON object");
            let Json::Obj(fields) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics")
            };
            let expected = if traced {
                names::per_layer()
            } else {
                names::end_to_end()
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, want);
            assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1.0));
        }
    }
}
