//! `storage_rw`: the `gesall-dfs` / `gesall-formats::bam` layer used
//! three ways — ingest, scan, indexed range read — so a read-path gain
//! that taxes writes (or the reverse) shows. Set-up aligns and sorts the
//! `wgs_hc` reads; each repetition opens a fresh on-disk DFS (4 nodes,
//! 256 KiB blocks, replication 2), uploads 8 copies × 4 indexed BAM
//! partitions, scans all 32 files back, then answers seeded 500 bp
//! region queries. No engine and no aligner at run time.

use super::{same_digest, setup};
use crate::harness::{Harness, Meter, Outcome, Unit, UnitSamples};
use crate::inputs::{combine, sub_seed, PIPELINE_SCALE};
use crate::probes;
use crate::stats;
use gesall_core::storage;
use gesall_dfs::checksum::xxh64;
use gesall_dfs::{Dfs, DfsConfig};
use gesall_formats::sam::{SamHeader, SamRecord};
use gesall_formats::wire::Wire;
use std::time::Instant;

const NOMINAL_REP_S: f64 = 1.25;
const DISCARDED_REPS: usize = 1;
const MIN_TIMED_REPS: usize = 5;
const COPIES: usize = 8;
const PARTITIONS: usize = 4;
const QUERIES: usize = 1_000;
const QUERY_SPAN_BP: i64 = 500;
const REPLICATION: usize = 2;
const STREAM_QUERIES: u64 = 3;

fn path(copy: usize, part: usize) -> String {
    format!("/bam/copy-{copy}/part-{part:05}")
}

/// One seeded region query: which file, and the 500 bp window.
struct Query {
    copy: usize,
    part: usize,
    ref_id: i32,
    start: i64,
}

/// Queries land where the data is: each anchors on a mapped record of
/// the partition it targets.
fn queries(seed: u64, parts: &[&[SamRecord]]) -> Vec<Query> {
    let mut x = sub_seed(seed, STREAM_QUERIES) | 1;
    let mut next = move || {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(QUERIES);
    while out.len() < QUERIES {
        let copy = next() as usize % COPIES;
        let part = next() as usize % parts.len();
        let anchor = &parts[part][next() as usize % parts[part].len()];
        if anchor.is_mapped() {
            out.push(Query {
                copy,
                part,
                ref_id: anchor.ref_id,
                start: anchor.pos,
            });
        }
    }
    out
}

struct Cycle {
    unit: Unit,
    write_s: f64,
    scan_s: f64,
    query_us: Vec<f64>,
    stored_bytes: u64,
    digest: u64,
}

fn cycle(
    h: &Harness,
    rep: usize,
    header: &SamHeader,
    parts: &[&[SamRecord]],
    qs: &[Query],
) -> (Cycle, Dfs) {
    let rep_i = rep as i32;
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 4,
        block_size: 256 * 1024,
        replication: REPLICATION,
        block_store_dir: Some(h.scratch_dir("blocks")),
        ..DfsConfig::default()
    });
    let n_records: usize = parts.iter().map(|p| p.len()).sum();
    let meter = Meter::start();
    h.tracer.span(None, "cycle", "harness", rep_i, |root| {
        let write_s = h.tracer.span(root, "write", "gesall-dfs", rep_i, |_| {
            let t = Instant::now();
            for copy in 0..COPIES {
                for (i, part) in parts.iter().enumerate() {
                    let p = path(copy, i);
                    let ok = storage::upload_indexed_bam_partition(&dfs, &p, header, part).is_ok();
                    h.op(ok, || format!("rep {rep}: upload {p} failed"));
                }
            }
            t.elapsed().as_secs_f64()
        });

        let mut scanned_copy0 = Vec::new();
        let scan_s = h.tracer.span(root, "scan", "gesall-dfs", rep_i, |_| {
            let t = Instant::now();
            for copy in 0..COPIES {
                for (i, part) in parts.iter().enumerate() {
                    let p = path(copy, i);
                    match storage::read_bam_from_dfs(&dfs, &p) {
                        Ok((_, records)) => {
                            h.op(records.len() == part.len(), || {
                                format!(
                                    "rep {rep}: scan of {p} returned {} of {} records",
                                    records.len(),
                                    part.len()
                                )
                            });
                            if copy == 0 {
                                scanned_copy0.push(records);
                            }
                        }
                        Err(e) => h.op(false, || format!("rep {rep}: scan {p}: {e}")),
                    }
                }
            }
            t.elapsed().as_secs_f64()
        });

        let mut query_us = Vec::with_capacity(qs.len());
        let mut hit_lists = Vec::with_capacity(qs.len());
        h.tracer.span(root, "queries", "gesall-dfs", rep_i, |_| {
            for q in qs {
                let t = Instant::now();
                let r = storage::read_region_from_dfs(
                    &dfs,
                    &path(q.copy, q.part),
                    q.ref_id,
                    q.start,
                    q.start + QUERY_SPAN_BP,
                );
                query_us.push(t.elapsed().as_secs_f64() * 1e6);
                match r {
                    // The anchor record itself overlaps its window.
                    Ok(hits) => {
                        h.op(!hits.is_empty(), || {
                            format!("rep {rep}: empty region {}:{}", q.ref_id, q.start)
                        });
                        hit_lists.push(hits);
                    }
                    Err(e) => h.op(false, || format!("rep {rep}: region query: {e}")),
                }
            }
        });
        let unit = meter.stop();

        // Checks and digests run after the clock stopped. Scan must
        // return every uploaded record, byte for byte.
        let records_digest = |recs: &Vec<SamRecord>| {
            xxh64(
                &recs
                    .iter()
                    .flat_map(|r| r.to_wire_bytes())
                    .collect::<Vec<u8>>(),
            )
        };
        let scanned: usize = scanned_copy0.iter().map(Vec::len).sum();
        if scanned != n_records {
            h.violation(format!(
                "rep {rep}: scanned {scanned} of {n_records} records"
            ));
        }
        let scan_digest = combine(
            &scanned_copy0
                .iter()
                .map(records_digest)
                .collect::<Vec<u64>>(),
        );
        let hits_digest = combine(&hit_lists.iter().map(records_digest).collect::<Vec<u64>>());
        let stored_bytes = (0..COPIES)
            .flat_map(|c| (0..parts.len()).map(move |i| path(c, i)))
            .map(|p| dfs.stat(&p).map_or(0, |f| f.len as u64))
            .sum();
        (
            Cycle {
                unit,
                write_s,
                scan_s,
                query_us,
                stored_bytes,
                digest: combine(&[scan_digest, hits_digest]),
            },
            dfs,
        )
    })
}

pub fn run(h: &Harness) -> Outcome {
    let mut o = Outcome::default();
    let s = setup(h, PIPELINE_SCALE, 1);
    let world = &s.world;
    let pairs = &s.read_sets[0];
    o.input_digest = world.input_digest(&s.read_sets);

    // Align and coordinate-sort once; the workload itself never aligns.
    let t_prep = Instant::now();
    let mut header = world.aligner.index().sam_header();
    let records: Vec<SamRecord> =
        h.tracer
            .span(None, "setup:align+sort", "gesall-aligner", -1, |_| {
                let mut records: Vec<SamRecord> = world
                    .aligner
                    .align_pairs_threaded(pairs, 2)
                    .into_iter()
                    .flat_map(|(a, b)| [a, b])
                    .collect();
                gesall_tools::sort_sam::sort_sam(&mut header, &mut records);
                records
            });
    s.finish(&mut o, t_prep.elapsed().as_secs_f64());
    if records.len() != 2 * pairs.len() {
        h.violation(format!(
            "aligner returned {} records for {} pairs",
            records.len(),
            pairs.len()
        ));
    }
    let parts: Vec<&[SamRecord]> = records.chunks(records.len().div_ceil(PARTITIONS)).collect();
    let qs = queries(h.seed, &parts);

    let timed_reps = h.timed_reps(NOMINAL_REP_S, MIN_TIMED_REPS);
    let mut units = UnitSamples::default();
    let (mut write_mbps, mut scan_mbps, mut query_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests = Vec::new();
    let mut last_dfs = None;
    for rep in 0..DISCARDED_REPS + timed_reps {
        // One on-disk DFS at a time: close the previous cycle's store.
        drop(last_dfs.take());
        let (c, dfs) = cycle(h, rep, &header, &parts, &qs);
        digests.push(c.digest);
        if rep >= DISCARDED_REPS {
            let mb = c.stored_bytes as f64 / 1e6;
            units.push(c.unit);
            write_mbps.push(mb / c.write_s);
            scan_mbps.push(mb / c.scan_s);
            query_us.extend(c.query_us);
            o.note("stored_mb", mb);
        }
        last_dfs = Some(dfs);
    }
    if h.traced() {
        // The storage layer has no program-side recorder to attach; the
        // traced repetition is the last timed one, under harness spans.
        let walls = units.walls();
        o.set(
            "telemetry.trace_overhead_ratio",
            walls[walls.len() - 1] / stats::median(&walls),
        );
        o.set("telemetry.spans_recorded", h.tracer.spans().len() as f64);
    }
    units.commit(&mut o);
    o.set_median("write_mb_per_s", write_mbps);
    o.set_median("scan_mb_per_s", scan_mbps);
    o.set("region_query_p50_us", stats::median(&query_us));
    if let Some(p) = stats::highest_resolved_percentile(query_us.len()) {
        o.note(
            &format!("region_query_p{p}_us"),
            stats::percentile(&query_us, p),
        );
    }
    o.note("region_queries_pooled", query_us.len() as f64);
    o.output_digest = same_digest(h, "storage cycles", &digests);
    o.note("records", records.len() as f64);
    o.note("timed_reps", timed_reps as f64);

    if h.traced() {
        let dfs = last_dfs.expect("at least one cycle ran");
        probes::run(
            h,
            &mut o,
            &probes::Input {
                world,
                pairs,
                records: &records,
                workload_dfs: &dfs,
                config: &gesall_core::PlatformConfig::default(),
                replication: REPLICATION,
            },
        );
    }
    o
}
