//! Derived performance reports: the paper's Table 4–7 per-phase
//! breakdowns, per-wave task timelines (text Gantt), shuffle-matrix
//! bytes moved, and straggler/skew statistics.
//!
//! Everything here is pure formatting over plain data, so each layer
//! can feed it whatever it measured without depending on the engine's
//! types.

use crate::phase::Phase;
use crate::span::ShuffleCell;

// ---------------------------------------------------------------------
// Per-phase breakdown (Tables 4–7 shape)
// ---------------------------------------------------------------------

/// One row of a phase-breakdown table: a labeled execution (a round, a
/// configuration, a job) with its wall-clock and per-phase times.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    pub label: String,
    pub wall_ms: f64,
    /// Milliseconds per phase, indexed like [`Phase::ALL`].
    pub phase_ms: [f64; 6],
}

impl PhaseRow {
    /// Build a row from a counter snapshot holding `phase.*.nanos` keys.
    pub fn from_snapshot(label: impl Into<String>, wall_ms: f64, snapshot: &[(String, u64)]) -> PhaseRow {
        PhaseRow {
            label: label.into(),
            wall_ms,
            phase_ms: crate::phase::phase_ms_from_snapshot(snapshot),
        }
    }

    /// Does every phase carry a nonzero time?
    pub fn covers_all_phases(&self) -> bool {
        self.phase_ms.iter().all(|&ms| ms > 0.0)
    }
}

fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

/// Render rows × phases as an aligned text table with a Σ (total) row.
/// Column layout follows the paper's Tables 4–7: one column per phase
/// plus wall-clock. Phase times are summed across tasks, so on a
/// parallel cluster a row's phase total legitimately exceeds its wall.
pub fn phase_table(rows: &[PhaseRow]) -> String {
    let mut headers = vec!["round".to_string()];
    headers.extend(Phase::ALL.iter().map(|p| p.name().to_string()));
    headers.push("Σ phases".to_string());
    headers.push("wall".to_string());
    let mut cells: Vec<Vec<String>> = Vec::new();
    let mut totals = [0.0f64; 6];
    let mut total_wall = 0.0;
    for row in rows {
        let mut line = vec![row.label.clone()];
        for (i, &ms) in row.phase_ms.iter().enumerate() {
            totals[i] += ms;
            line.push(fmt_ms(ms));
        }
        line.push(fmt_ms(row.phase_ms.iter().sum()));
        line.push(fmt_ms(row.wall_ms));
        total_wall += row.wall_ms;
        cells.push(line);
    }
    if rows.len() > 1 {
        let mut line = vec!["TOTAL".to_string()];
        for &t in &totals {
            line.push(fmt_ms(t));
        }
        line.push(fmt_ms(totals.iter().sum()));
        line.push(fmt_ms(total_wall));
        cells.push(line);
    }
    render_aligned(&headers, &cells)
}

// ---------------------------------------------------------------------
// Task timeline (text Gantt)
// ---------------------------------------------------------------------

/// One bar of a Gantt chart.
#[derive(Debug, Clone)]
pub struct GanttRow {
    pub label: String,
    pub start_ms: f64,
    pub end_ms: f64,
}

/// Render task bars against a shared time axis, `width` columns wide.
/// Bars are `#` runs positioned proportionally between the earliest
/// start and the latest end; each row is annotated with `[start → end]`.
pub fn gantt(rows: &[GanttRow], width: usize) -> String {
    if rows.is_empty() {
        return "(no tasks)\n".to_string();
    }
    let width = width.max(10);
    let t0 = rows.iter().map(|r| r.start_ms).fold(f64::INFINITY, f64::min);
    let t1 = rows.iter().map(|r| r.end_ms).fold(0.0f64, f64::max);
    let span = (t1 - t0).max(1e-9);
    let label_w = rows.iter().map(|r| r.label.chars().count()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "{:label_w$} |{}| window {:.1}ms\n",
        "task",
        "-".repeat(width),
        span
    ));
    for r in rows {
        let a = (((r.start_ms - t0) / span) * width as f64).floor() as usize;
        let b = (((r.end_ms - t0) / span) * width as f64).ceil() as usize;
        let a = a.min(width.saturating_sub(1));
        let b = b.clamp(a + 1, width);
        let bar: String = (0..width)
            .map(|i| if i >= a && i < b { '#' } else { ' ' })
            .collect();
        out.push_str(&format!(
            "{:label_w$} |{bar}| [{:.1} → {:.1}]\n",
            r.label, r.start_ms, r.end_ms
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Pipeline DAG: stage table + critical-path attribution
// ---------------------------------------------------------------------

/// One executed (or cache-served) stage node of a pipeline DAG, as
/// reconstructed from `SpanKind::Stage` spans or an executor's stage
/// report.
#[derive(Debug, Clone)]
pub struct DagStageRow {
    pub name: String,
    /// Names of the stages whose outputs this stage consumed.
    pub parents: Vec<String>,
    pub duration_ms: f64,
    /// Wall of the MapReduce job the stage ran, inside `duration_ms`
    /// (0 for a cache hit). The rest is the driver thread's: resolving,
    /// committing and placing the output while the task slots idle.
    pub job_ms: f64,
    /// Was the stage's output served from the content-addressed store
    /// instead of being recomputed?
    pub cached: bool,
}

/// The chain of stages that bounds the DAG's wall-clock: the
/// root-to-sink path maximizing summed stage duration. Returns the
/// stage names along the path (source first) and the path's total
/// milliseconds. Parents not present in `rows` contribute nothing;
/// a (malformed) cyclic input breaks the cycle rather than recursing
/// forever.
pub fn critical_path(rows: &[DagStageRow]) -> (Vec<String>, f64) {
    use std::collections::HashMap;
    let by_name: HashMap<&str, &DagStageRow> =
        rows.iter().map(|r| (r.name.as_str(), r)).collect();
    // cost[name] = duration + max(cost(parents)); memoized DFS with an
    // in-progress marker so a cycle terminates instead of overflowing.
    fn cost<'a>(
        name: &'a str,
        by_name: &HashMap<&'a str, &'a DagStageRow>,
        memo: &mut HashMap<&'a str, Option<f64>>,
    ) -> f64 {
        match memo.get(name) {
            Some(Some(c)) => return *c,
            Some(None) => return 0.0, // on the stack: cycle guard
            None => {}
        }
        let Some(row) = by_name.get(name) else { return 0.0 };
        memo.insert(name, None);
        let upstream = row
            .parents
            .iter()
            .map(|p| cost(p.as_str(), by_name, memo))
            .fold(0.0f64, f64::max);
        let c = row.duration_ms + upstream;
        memo.insert(name, Some(c));
        c
    }
    let mut memo = HashMap::new();
    let Some(sink) = rows
        .iter()
        .max_by(|a, b| {
            cost(a.name.as_str(), &by_name, &mut memo)
                .total_cmp(&cost(b.name.as_str(), &by_name, &mut memo))
        })
    else {
        return (Vec::new(), 0.0);
    };
    let total = cost(sink.name.as_str(), &by_name, &mut memo);
    // Walk back from the sink along the max-cost parent at each step.
    let mut path = vec![sink.name.clone()];
    let mut cur = sink;
    loop {
        let next = cur
            .parents
            .iter()
            .filter_map(|p| by_name.get(p.as_str()).copied())
            .max_by(|a, b| {
                cost(a.name.as_str(), &by_name, &mut memo)
                    .total_cmp(&cost(b.name.as_str(), &by_name, &mut memo))
            });
        match next {
            Some(p) if !path.contains(&p.name) => {
                path.push(p.name.clone());
                cur = p;
            }
            _ => break,
        }
    }
    path.reverse();
    (path, total)
}

/// Render the stage table — parents, duration, cache status, and a `*`
/// marker on critical-path stages — followed by the critical-path
/// chain and its total, the DAG analogue of the phase table.
pub fn dag_report(rows: &[DagStageRow]) -> String {
    if rows.is_empty() {
        return "(no stages recorded)\n".to_string();
    }
    let (path, total) = critical_path(rows);
    let headers = vec![
        "stage".to_string(),
        "parents".to_string(),
        "ms".to_string(),
        "job ms".to_string(),
        "driver ms".to_string(),
        "cached".to_string(),
        "crit".to_string(),
    ];
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                if r.parents.is_empty() {
                    "-".to_string()
                } else {
                    r.parents.join(",")
                },
                fmt_ms(r.duration_ms),
                fmt_ms(r.job_ms),
                fmt_ms((r.duration_ms - r.job_ms).max(0.0)),
                if r.cached { "hit" } else { "run" }.to_string(),
                if path.contains(&r.name) { "*" } else { "" }.to_string(),
            ]
        })
        .collect();
    let mut out = render_aligned(&headers, &cells);
    out.push_str(&format!(
        "critical path: {} ({} ms)\n",
        path.join(" → "),
        fmt_ms(total)
    ));
    out
}

// ---------------------------------------------------------------------
// Straggler / skew statistics
// ---------------------------------------------------------------------

/// Order statistics of a set of task durations.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationStats {
    pub n: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub max_ms: f64,
    /// max / p50 — the skew ratio straggler analysis keys on.
    pub skew: f64,
}

/// Compute stats over raw durations (exact quantiles, nearest-rank).
pub fn duration_stats(durations_ms: &[f64]) -> Option<DurationStats> {
    if durations_ms.is_empty() {
        return None;
    }
    let mut sorted = durations_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |q: f64| -> f64 {
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        sorted[idx]
    };
    let p50 = rank(0.5);
    let max = sorted[n - 1];
    Some(DurationStats {
        n,
        mean_ms: sorted.iter().sum::<f64>() / n as f64,
        p50_ms: p50,
        p95_ms: rank(0.95),
        max_ms: max,
        skew: if p50 > 0.0 { max / p50 } else { 1.0 },
    })
}

/// Render one stats row per labeled group (typically one per wave or
/// per phase): `n`, mean, p50, p95, max, and the max/p50 skew ratio.
pub fn straggler_report(groups: &[(String, Vec<f64>)]) -> String {
    let headers = vec![
        "group".to_string(),
        "tasks".to_string(),
        "mean".to_string(),
        "p50".to_string(),
        "p95".to_string(),
        "max".to_string(),
        "skew".to_string(),
    ];
    let mut cells = Vec::new();
    for (label, durs) in groups {
        let Some(s) = duration_stats(durs) else {
            continue;
        };
        cells.push(vec![
            label.clone(),
            s.n.to_string(),
            fmt_ms(s.mean_ms),
            fmt_ms(s.p50_ms),
            fmt_ms(s.p95_ms),
            fmt_ms(s.max_ms),
            format!("{:.2}×", s.skew),
        ]);
    }
    render_aligned(&headers, &cells)
}

// ---------------------------------------------------------------------
// Shuffle matrix
// ---------------------------------------------------------------------

/// Render the bytes-moved matrix (map tasks × reduce partitions) with
/// row/column totals, from recorded [`ShuffleCell`]s. Cells whose bytes
/// travelled compressed are marked `c` (mixed raw/compressed cells `~`)
/// so raw and by-reference compressed traffic can be told apart.
pub fn shuffle_matrix(cells: &[ShuffleCell]) -> String {
    if cells.is_empty() {
        return "(no shuffle traffic recorded)\n".to_string();
    }
    let n_maps = cells.iter().map(|c| c.map_task).max().unwrap_or(0) + 1;
    let n_reds = cells.iter().map(|c| c.reduce_task).max().unwrap_or(0) + 1;
    // (total bytes, of which travelled compressed)
    let mut matrix = vec![vec![(0u64, 0u64); n_reds]; n_maps];
    for c in cells {
        let cell = &mut matrix[c.map_task][c.reduce_task];
        cell.0 += c.bytes;
        if c.compressed {
            cell.1 += c.bytes;
        }
    }
    let fmt_cell = |(total, comp): (u64, u64)| -> String {
        if total == 0 || comp == 0 {
            total.to_string()
        } else if comp == total {
            format!("{total}c")
        } else {
            format!("{total}~")
        }
    };
    let mut headers = vec!["map\\reduce".to_string()];
    headers.extend((0..n_reds).map(|r| format!("r{r}")));
    headers.push("Σ".to_string());
    let mut rows = Vec::new();
    let mut col_totals = vec![0u64; n_reds];
    for (m, row) in matrix.iter().enumerate() {
        let mut line = vec![format!("m{m}")];
        for (r, &cell) in row.iter().enumerate() {
            col_totals[r] += cell.0;
            line.push(fmt_cell(cell));
        }
        line.push(row.iter().map(|c| c.0).sum::<u64>().to_string());
        rows.push(line);
    }
    let mut line = vec!["Σ".to_string()];
    for &t in &col_totals {
        line.push(t.to_string());
    }
    line.push(col_totals.iter().sum::<u64>().to_string());
    rows.push(line);
    let mut out = render_aligned(&headers, &rows);
    if cells.iter().any(|c| c.compressed) {
        out.push_str("c = travelled compressed (shipped by reference, decoded once at merge)\n");
    }
    out
}

// ---------------------------------------------------------------------
// Shared table renderer
// ---------------------------------------------------------------------

fn render_aligned(headers: &[String], rows: &[Vec<String>]) -> String {
    let n = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.chars().count());
        }
    }
    let line = |cells: &[String]| -> String {
        let mut out = String::new();
        for i in 0..n {
            let pad = widths[i] - cells[i].chars().count();
            out.push_str("| ");
            out.push_str(&cells[i]);
            out.push_str(&" ".repeat(pad + 1));
        }
        out.push('|');
        out
    };
    let mut out = line(headers);
    out.push('\n');
    let mut sep = String::new();
    for w in &widths {
        sep.push_str("|-");
        sep.push_str(&"-".repeat(w + 1));
    }
    sep.push('|');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_table_has_all_columns_and_totals() {
        let rows = vec![
            PhaseRow {
                label: "round2".into(),
                wall_ms: 100.0,
                phase_ms: [40.0, 5.0, 8.0, 12.0, 20.0, 15.0],
            },
            PhaseRow {
                label: "round4".into(),
                wall_ms: 60.0,
                phase_ms: [30.0, 2.0, 3.0, 10.0, 5.0, 10.0],
            },
        ];
        let t = phase_table(&rows);
        for p in Phase::ALL {
            assert!(t.contains(p.name()), "missing column {}", p.name());
        }
        assert!(t.contains("TOTAL"));
        assert!(t.contains("round2"));
        // Totals: map 70, sort-spill 7.0 …
        assert!(t.contains("70"), "{t}");
    }

    #[test]
    fn phase_row_from_snapshot_and_coverage() {
        let snap: Vec<(String, u64)> = Phase::ALL
            .iter()
            .map(|p| (p.counter_key().to_string(), 1_000_000u64))
            .collect();
        let row = PhaseRow::from_snapshot("x", 10.0, &snap);
        assert!(row.covers_all_phases());
        assert_eq!(row.phase_ms, [1.0; 6]);
        let partial = &snap[..3];
        assert!(!PhaseRow::from_snapshot("y", 10.0, partial).covers_all_phases());
    }

    #[test]
    fn gantt_positions_bars() {
        let rows = vec![
            GanttRow { label: "m0".into(), start_ms: 0.0, end_ms: 50.0 },
            GanttRow { label: "m1".into(), start_ms: 50.0, end_ms: 100.0 },
        ];
        let g = gantt(&rows, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        // First bar occupies the left half, second the right half.
        let bar0: &str = lines[1];
        let bar1: &str = lines[2];
        assert!(bar0.find('#').unwrap() < bar1.find('#').unwrap());
        assert_eq!(gantt(&[], 20), "(no tasks)\n");
    }

    #[test]
    fn critical_path_follows_heaviest_chain() {
        // Diamond: a → {b, c} → d, with the b side heavier.
        let rows = vec![
            DagStageRow { name: "a".into(), parents: vec![], duration_ms: 10.0, job_ms: 9.0, cached: false },
            DagStageRow { name: "b".into(), parents: vec!["a".into()], duration_ms: 50.0, job_ms: 37.5, cached: false },
            DagStageRow { name: "c".into(), parents: vec!["a".into()], duration_ms: 5.0, job_ms: 0.0, cached: true },
            DagStageRow {
                name: "d".into(),
                parents: vec!["b".into(), "c".into()],
                duration_ms: 20.0,
                job_ms: 20.0,
                cached: false,
            },
        ];
        let (path, total) = critical_path(&rows);
        assert_eq!(path, vec!["a", "b", "d"]);
        assert!((total - 80.0).abs() < 1e-9);
        let report = dag_report(&rows);
        assert!(report.contains("critical path: a → b → d"));
        assert!(report.contains("hit"), "cached stage marked: {report}");
        assert!(report.contains("run"));
        // Stage wall, job wall, and what the driver did around the job.
        let b = report.lines().find(|l| l.starts_with("| b ")).unwrap();
        let cells: Vec<&str> = b.split('|').map(str::trim).collect();
        assert_eq!(cells[3..6], ["50.0", "37.5", "12.5"], "{report}");
        assert_eq!(dag_report(&[]), "(no stages recorded)\n");
        // A malformed cyclic input terminates.
        let cyc = vec![
            DagStageRow { name: "x".into(), parents: vec!["y".into()], duration_ms: 1.0, job_ms: 0.0, cached: false },
            DagStageRow { name: "y".into(), parents: vec!["x".into()], duration_ms: 1.0, job_ms: 0.0, cached: false },
        ];
        let (_, t) = critical_path(&cyc);
        assert!(t.is_finite());
    }

    #[test]
    fn duration_stats_quantiles() {
        let durs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = duration_stats(&durs).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.skew - 2.0).abs() < 1e-9);
        assert!(duration_stats(&[]).is_none());
    }

    #[test]
    fn straggler_report_renders_groups() {
        let r = straggler_report(&[
            ("map".to_string(), vec![10.0, 12.0, 50.0]),
            ("reduce".to_string(), vec![5.0]),
            ("empty".to_string(), vec![]),
        ]);
        assert!(r.contains("map"));
        assert!(r.contains("reduce"));
        assert!(!r.contains("empty"));
        assert!(r.contains("skew"));
    }

    #[test]
    fn shuffle_matrix_totals() {
        let cells = vec![
            ShuffleCell { map_task: 0, reduce_task: 0, bytes: 10, compressed: false },
            ShuffleCell { map_task: 0, reduce_task: 1, bytes: 20, compressed: false },
            ShuffleCell { map_task: 1, reduce_task: 1, bytes: 5, compressed: false },
        ];
        let m = shuffle_matrix(&cells);
        assert!(m.contains("m0"));
        assert!(m.contains("r1"));
        assert!(m.contains("35"), "grand total present: {m}");
        assert!(!m.contains("travelled compressed"), "all-raw matrix needs no legend");
        assert_eq!(shuffle_matrix(&[]), "(no shuffle traffic recorded)\n");
    }

    #[test]
    fn shuffle_matrix_marks_compressed_cells() {
        let cells = vec![
            ShuffleCell { map_task: 0, reduce_task: 0, bytes: 10, compressed: true },
            ShuffleCell { map_task: 0, reduce_task: 1, bytes: 20, compressed: false },
            // Mixed cell: raw + compressed contributions.
            ShuffleCell { map_task: 1, reduce_task: 0, bytes: 4, compressed: true },
            ShuffleCell { map_task: 1, reduce_task: 0, bytes: 6, compressed: false },
        ];
        let m = shuffle_matrix(&cells);
        assert!(m.contains("10c"), "fully compressed cell marked: {m}");
        assert!(m.contains("20 "), "raw cell unmarked: {m}");
        assert!(m.contains("10~"), "mixed cell marked: {m}");
        assert!(m.contains("travelled compressed"), "legend present: {m}");
    }
}
