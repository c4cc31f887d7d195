//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root must list exactly these (a unit test compares them).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

pub const WGS_HC: &str = "wgs_hc";
pub const SHUFFLE_RERUN: &str = "shuffle_rerun";
pub const STORAGE_RW: &str = "storage_rw";
pub const TENANTS_CLOSED: &str = "tenants_closed";

/// (name, why it exists) — one line each, as `BENCHMARK.json` records it.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        WGS_HC,
        "cold five-round pipeline with HaplotypeCaller on a fresh platform: aligner and caller do most of the work, shuffle rounds about a third",
    ),
    (
        SHUFFLE_RERUN,
        "rounds 2-5 re-executed from a cached alignment with a 256 KiB sort buffer: spills, multipass merges, replicated DFS shuffle; aligner and HaplotypeCaller do nothing",
    ),
    (
        STORAGE_RW,
        "indexed-BAM ingest, full scan and seeded 500 bp region queries on a fresh on-disk DFS: the storage layer three ways, no engine, no aligner",
    ),
    (
        TENANTS_CLOSED,
        "closed loop of two tenants submitting tiny pipeline jobs to one job service: per-job fixed cost and contention dominate, kernels barely matter",
    ),
];

/// End-to-end metrics: what a user of the platform sees, defined on every
/// workload. `run_wall_s` is the workload's timed unit — cold pipeline /
/// invalidated re-run / one write+scan+query cycle / makespan of one
/// closed-loop round of jobs; `run_cpu_s` the CPU seconds that unit
/// burned (all threads); `peak_rss_mb` its peak resident set. All are
/// medians over the timed repetitions.
///
/// Every bound is the contract's maximum: the reference box is a shared
/// 2-vCPU VM whose speed shifts by 20-35 % for minutes at a time (README
/// "Noise"), and a tighter bound would reject unchanged code.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: &str, unit, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, Better::Lower)
    };
    vec![
        bounded("run_wall_s", "s", 0.25),
        bounded("run_cpu_s", "s", 0.25),
        bounded("peak_rss_mb", "MB", 0.25),
        bounded("setup_s", "s", 0.25),
    ]
}

/// The six phases of a MapReduce round (paper Tables 4-7), as metric
/// name fragments, with the counter key each is summed from.
pub const PHASES: [(&str, &str); 6] = [
    ("map", "phase.map.nanos"),
    ("sort_spill", "phase.sort-spill.nanos"),
    ("map_merge", "phase.map-merge.nanos"),
    ("shuffle", "phase.shuffle.nanos"),
    ("reduce_merge", "phase.reduce-merge.nanos"),
    ("reduce", "phase.reduce.nanos"),
];

/// Every stage name the benchmark's platform configurations make
/// `gesall_core::dag::pipeline_dag` emit.
pub const STAGES: [&str; 9] = [
    "round1-align",
    "round2-clean-fixmate",
    "round2b-bloom",
    "round3-markdup",
    "round4-sort",
    "round4a-recal-table",
    "round4b-print-reads",
    "round5-haplotypecaller",
    "round5-unifiedgenotyper",
];

pub const TOOLS: [&str; 6] = [
    "clean_sam",
    "fix_mate",
    "mark_duplicates",
    "sort_sam",
    "base_recalibrator",
    "print_reads",
];

/// Per-layer metrics, from the traced run. A metric that does not apply
/// to a workload (job-service counters on `storage_rw`, stage walls
/// where no pipeline runs) reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = vec![
        // Workload-specific user-visible numbers. ISSUE.md lists them as
        // end-to-end; the driver requires every end-to-end metric on
        // every workload, so they live here (see README "Deviations").
        def("warm_rerun_s", "s", Lower),
        def("variant_f1", "ratio", Higher),
        def("write_mb_per_s", "MB/s", Higher),
        def("scan_mb_per_s", "MB/s", Higher),
        def("region_query_p50_us", "us", Lower),
        def("job_latency_p50_ms", "ms", Lower),
        def("job_latency_p90_ms", "ms", Lower),
        // gesall-aligner
        def("aligner.index_build_s", "s", Lower),
        def("aligner.index_heap_mb", "MB", Lower),
        def("aligner.align_pairs_per_s", "pairs/s", Higher),
        def("aligner.fm_search_ns_per_base", "ns/base", Lower),
        def("aligner.sw_banded_us_per_call", "us/call", Lower),
        // gesall-formats
        def("formats.bam_write_mb_per_s", "MB/s", Higher),
        def("formats.bam_read_mb_per_s", "MB/s", Higher),
    ];
    for codec in ["lz", "seq"] {
        m.push(def(
            format!("formats.{codec}_encode_ns_per_byte"),
            "ns/byte",
            Lower,
        ));
        m.push(def(
            format!("formats.{codec}_decode_ns_per_byte"),
            "ns/byte",
            Lower,
        ));
        m.push(def(format!("formats.{codec}_ratio"), "ratio", Lower));
    }
    m.extend([
        def("formats.wire_encode_ns_per_rec", "ns/rec", Lower),
        def("formats.wire_decode_ns_per_rec", "ns/rec", Lower),
        // gesall-dfs
        def("dfs.write_mb_per_s", "MB/s", Higher),
        def("dfs.read_mb_per_s", "MB/s", Higher),
        def("dfs.range_read_p50_us", "us", Lower),
        def("dfs.cas_put_mb_per_s", "MB/s", Higher),
        def("dfs.cas_get_mb_per_s", "MB/s", Higher),
        def("dfs.bytes_copied_per_byte_read", "ratio", Lower),
        def("dfs.reads_retried", "count", Lower),
        def("dfs.reads_hedged", "count", Lower),
        // gesall-mapreduce: one Round-4 sort job over the workload's records
        def("mapreduce.sortjob_wall_s", "s", Lower),
        def("mapreduce.sortjob_recs_per_s", "recs/s", Higher),
    ]);
    for (phase, _) in PHASES {
        m.push(def(format!("mapreduce.phase.{phase}_s"), "s", Lower));
    }
    m.extend([
        def("mapreduce.spills", "count", Lower),
        def("mapreduce.merge_passes", "count", Lower),
        def("mapreduce.shuffle_wire_mb", "MB", Lower),
        def("mapreduce.shuffle_records", "count", Lower),
        def("mapreduce.bytes_copied_per_rec", "bytes/rec", Lower),
        def("mapreduce.peak_reduce_resident_mb", "MB", Lower),
        def("mapreduce.attempts_failed", "count", Lower),
        def("mapreduce.fetch_retries", "count", Lower),
    ]);
    // gesall-tools: direct serial calls
    for tool in TOOLS {
        m.push(def(format!("tools.{tool}_recs_per_s"), "recs/s", Higher));
    }
    m.extend([
        def("tools.unified_genotyper_kb_per_s", "kb/s", Higher),
        def("tools.haplotype_caller_kb_per_s", "kb/s", Higher),
    ]);
    // gesall-core: from the traced pipeline call and what it returned
    for stage in STAGES {
        m.push(def(format!("core.stage.{stage}.wall_s"), "s", Lower));
    }
    for (phase, _) in PHASES {
        m.push(def(format!("core.phase.{phase}_s"), "s", Lower));
    }
    m.extend([
        def("core.residual_s", "s", Lower),
        def("core.residual_share", "ratio", Lower),
        def("core.warm_stage_decode_s", "s", Lower),
        def("core.slot_utilisation", "ratio", Higher),
        // gesall-jobsvc
        def("jobsvc.queue_wait_p50_ms", "ms", Lower),
        def("jobsvc.queue_wait_p90_ms", "ms", Lower),
        def("jobsvc.dispatch_overhead_p50_ms", "ms", Lower),
        def("jobsvc.slots_borrowed", "count", Higher),
        def("jobsvc.slots_reclaimed", "count", Lower),
        def("jobsvc.jobs_completed", "count", Higher),
        def("jobsvc.jobs_failed", "count", Lower),
        def("jobsvc.jobs_rejected", "count", Lower),
        def("jobsvc.namespace_residue_files", "count", Lower),
        // gesall-telemetry
        def("telemetry.trace_overhead_ratio", "ratio", Lower),
        def("telemetry.spans_recorded", "count", Lower),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_telemetry::Json;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for m in &all {
            assert!(valid_name(&m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w));
            assert!(seen.insert(w.to_string()), "duplicate name {w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}: why too long");
        }
        assert!(per_layer().len() <= 128);
        for m in end_to_end() {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// (name, unit, better, bound) rows of one `BENCHMARK.json` list.
    fn rows(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_emits() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let ours = |defs: Vec<MetricDef>| -> Vec<(String, String, String, Option<f64>)> {
            defs.into_iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(rows(&doc, "end_to_end"), ours(end_to_end()));
        assert_eq!(rows(&doc, "per_layer"), ours(per_layer()));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| {
                    w.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
    }
}
