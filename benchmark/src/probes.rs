//! Layer probes: direct calls into each crate's public functions on the
//! traced workload's own data, after its traced repetition. Each probe
//! is wrapped in a harness span labelled with the crate it lands in, and
//! every result goes through `black_box` — a probe that reads
//! "suspiciously fast" was probably optimised away (SNIPPETS.md 1-2).
//!
//! `gesall-sim` is not on the run path and `gesall-datagen` only feeds
//! set-up, so neither has probes; `gesall-jobsvc` is measured by the
//! `tenants_closed` workload itself.

use crate::harness::{Harness, Outcome};
use crate::inputs::World;
use crate::names::{PHASES, TOOLS};
use crate::pipeline::{self, SLOTS};
use crate::stats;
use gesall_aligner::sw::{self, Band, Scoring};
use gesall_core::gdpt::{chromosome_partition, RangeKey};
use gesall_core::pipeline::PlatformConfig;
use gesall_core::rounds::{Round4SortMapper, Round4SortReducer};
use gesall_dfs::{metrics_keys, Dfs};
use gesall_formats::fastq::ReadPair;
use gesall_formats::sam::{SamHeader, SamRecord};
use gesall_formats::wire::{Cursor, Wire};
use gesall_formats::{bam, Codec, SharedBytes};
use gesall_mapreduce::counters::keys;
use gesall_mapreduce::runtime::{InputSplit, JobConfig};
use gesall_mapreduce::task::FnPartitioner;
use gesall_mapreduce::{ClusterResources, Counters, MapReduceEngine};
use gesall_tools::RefView;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// What a workload hands the probes: its inputs, the records its traced
/// repetition produced, and the DFS it ran on.
pub struct Input<'a> {
    pub world: &'a World,
    pub pairs: &'a [ReadPair],
    pub records: &'a [SamRecord],
    pub workload_dfs: &'a Dfs,
    /// The workload's platform settings (sort buffer, merge factor).
    pub config: &'a PlatformConfig,
    pub replication: usize,
}

/// Pairs the single-thread alignment probe aligns (≈ 0.4 s).
const ALIGN_PAIRS: usize = 1_500;
const FM_KMERS: usize = 10_000;
const FM_K: usize = 32;
const SW_CALLS: usize = 2_000;
const SW_PAD: usize = 24;
const SW_SLACK: usize = 16;
const DFS_FILES: usize = 8;
const RANGE_READS: usize = 2_000;
const RANGE_LEN: usize = 64 * 1024;

/// Time `f` under a span and return (seconds, result).
fn timed<R>(h: &Harness, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    h.tracer.span(None, name, layer, -1, |_| {
        let t = Instant::now();
        let r = black_box(f());
        (t.elapsed().as_secs_f64(), r)
    })
}

const MB: f64 = 1e6;

pub fn run(h: &Harness, o: &mut Outcome, input: &Input<'_>) {
    let header = input.world.aligner.index().sam_header();
    aligner(h, o, input);
    let bam_bytes = formats(h, o, input, &header);
    dfs(h, o, input, &bam_bytes);
    mapreduce(h, o, input, &header);
    tools(h, o, input);
}

fn aligner(h: &Harness, o: &mut Outcome, input: &Input<'_>) {
    let aligner = &input.world.aligner;
    let sample = &input.pairs[..input.pairs.len().min(ALIGN_PAIRS)];
    let (s, aligned) = timed(h, "aligner:align_pairs", "gesall-aligner", || {
        aligner.align_pairs(sample)
    });
    o.set("aligner.align_pairs_per_s", sample.len() as f64 / s);

    // Backward search over read 32-mers.
    let kmers: Vec<&[u8]> = input
        .pairs
        .iter()
        .flat_map(|p| [&p.r1.seq, &p.r2.seq])
        .filter(|s| s.len() >= FM_K)
        .map(|s| &s[..FM_K])
        .cycle()
        .take(FM_KMERS)
        .collect();
    let fm = aligner.index().fm();
    let (s, found) = timed(h, "aligner:fm_search", "gesall-aligner", || {
        kmers
            .iter()
            .filter(|k| black_box(fm.search(k)).is_some())
            .count()
    });
    o.set(
        "aligner.fm_search_ns_per_base",
        s * 1e9 / (kmers.len() * FM_K) as f64,
    );
    o.note("probe.fm_kmers_found", found as f64);

    // Banded Smith-Waterman: each aligned read against the reference
    // window it truly came from (its own alignment, padded both sides).
    let scoring = Scoring::default();
    let windows: Vec<(&[u8], &[u8])> = aligned
        .iter()
        .flat_map(|(a, b)| [a, b])
        .filter(|r| r.is_mapped())
        .filter_map(|r| {
            let reference = &input.world.references[r.ref_id as usize];
            let start = (r.pos as usize - 1).checked_sub(SW_PAD)?;
            let end = start + r.seq.len() + 2 * SW_PAD;
            (end <= reference.len()).then(|| (r.seq.as_slice(), &reference[start..end]))
        })
        .cycle()
        .take(SW_CALLS)
        .collect();
    if !windows.is_empty() {
        let band = Band::around_offset(SW_PAD as isize, SW_SLACK);
        let (s, aligned_calls) = timed(h, "aligner:sw_banded", "gesall-aligner", || {
            sw::with_workspace(|ws| {
                windows
                    .iter()
                    .filter(|(q, w)| {
                        black_box(sw::local_align_banded(q, w, &scoring, band, ws)).is_some()
                    })
                    .count()
            })
        });
        o.set(
            "aligner.sw_banded_us_per_call",
            s * 1e6 / windows.len() as f64,
        );
        o.note("probe.sw_calls_aligned", aligned_calls as f64);
    }
}

/// Returns the records as BAM bytes, for the DFS probes.
fn formats(h: &Harness, o: &mut Outcome, input: &Input<'_>, header: &SamHeader) -> Vec<u8> {
    let records = input.records;
    let (s, bam_bytes) = timed(h, "formats:bam_write", "gesall-formats", || {
        bam::write_bam(header, records)
    });
    o.set(
        "formats.bam_write_mb_per_s",
        bam_bytes.len() as f64 / MB / s,
    );
    let (s, read_back) = timed(h, "formats:bam_read", "gesall-formats", || {
        bam::read_bam(&bam_bytes)
    });
    o.set("formats.bam_read_mb_per_s", bam_bytes.len() as f64 / MB / s);
    h.op(
        read_back.is_ok_and(|(_, r)| r.len() == records.len()),
        || "formats probe: BAM did not round-trip every record".into(),
    );

    // The shuffle's record encoding, then each codec over that stream.
    let (s, wire) = timed(h, "formats:wire_encode", "gesall-formats", || {
        let mut buf = Vec::new();
        for r in records {
            r.encode(&mut buf);
        }
        buf
    });
    o.set(
        "formats.wire_encode_ns_per_rec",
        s * 1e9 / records.len() as f64,
    );
    let (s, decoded) = timed(h, "formats:wire_decode", "gesall-formats", || {
        let mut cur = Cursor::new(&wire);
        let mut n = 0usize;
        while !cur.is_empty() {
            match SamRecord::decode(&mut cur) {
                Ok(r) => {
                    black_box(r);
                    n += 1;
                }
                Err(_) => break,
            }
        }
        n
    });
    o.set(
        "formats.wire_decode_ns_per_rec",
        s * 1e9 / records.len() as f64,
    );
    h.op(decoded == records.len(), || {
        format!(
            "formats probe: decoded {decoded} of {} wire records",
            records.len()
        )
    });

    for codec in [Codec::Lz, Codec::Seq] {
        let name = codec.name();
        let (s, encoded) = timed(
            h,
            &format!("formats:{name}_encode"),
            "gesall-formats",
            || {
                let mut out = Vec::new();
                codec.encode_append(&wire, &mut out);
                out
            },
        );
        o.set(
            &format!("formats.{name}_encode_ns_per_byte"),
            s * 1e9 / wire.len() as f64,
        );
        o.set(
            &format!("formats.{name}_ratio"),
            encoded.len() as f64 / wire.len() as f64,
        );
        let (s, raw) = timed(
            h,
            &format!("formats:{name}_decode"),
            "gesall-formats",
            || codec.decode(&encoded),
        );
        o.set(
            &format!("formats.{name}_decode_ns_per_byte"),
            s * 1e9 / wire.len() as f64,
        );
        h.op(raw.is_ok_and(|r| r == wire), || {
            format!("formats probe: {name} did not round-trip")
        });
    }
    bam_bytes
}

fn dfs(h: &Harness, o: &mut Outcome, input: &Input<'_>, bam_bytes: &[u8]) {
    let dfs = pipeline::dfs(2);
    let payload = SharedBytes::from_vec(bam_bytes.to_vec());
    let total_mb = (DFS_FILES * payload.len()) as f64 / MB;
    let path = |i: usize| format!("/probe/file-{i}");

    let (s, written) = timed(h, "dfs:write", "gesall-dfs", || {
        (0..DFS_FILES)
            .filter(|&i| dfs.write_file_shared(&path(i), payload.clone()).is_ok())
            .count()
    });
    o.set("dfs.write_mb_per_s", total_mb / s);
    let (s, read) = timed(h, "dfs:read", "gesall-dfs", || {
        (0..DFS_FILES)
            .filter(|&i| {
                dfs.read_file_shared(&path(i))
                    .is_ok_and(|b| b.len() == payload.len())
            })
            .count()
    });
    o.set("dfs.read_mb_per_s", total_mb / s);
    h.op(written == DFS_FILES && read == DFS_FILES, || {
        format!("dfs probe: wrote {written} and read {read} of {DFS_FILES} files")
    });

    // 64 KiB range reads at seeded offsets (most span two 256 KiB blocks'
    // boundary only rarely; the p50 is the in-block, zero-copy case).
    let len = RANGE_LEN.min(payload.len());
    let span = payload.len() - len + 1;
    let mut x = crate::inputs::sub_seed(h.seed, 4) | 1;
    let mut lat_us = Vec::with_capacity(RANGE_READS);
    let (_, ok) = timed(h, "dfs:range_read", "gesall-dfs", || {
        let mut ok = 0usize;
        for _ in 0..RANGE_READS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let file = path(x as usize % DFS_FILES);
            let offset = (x >> 16) as usize % span;
            let t = Instant::now();
            let r = black_box(dfs.read_file_range_shared(&file, offset, len));
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            ok += usize::from(r.is_ok_and(|b| b.len() == len));
        }
        ok
    });
    o.set("dfs.range_read_p50_us", stats::median(&lat_us));
    h.op(ok == RANGE_READS, || {
        format!("dfs probe: {ok} of {RANGE_READS} range reads succeeded")
    });

    // Content-addressed store: distinct keys, same payload size.
    let (s, put) = timed(h, "dfs:cas_put", "gesall-dfs", || {
        (0..DFS_FILES as u64)
            .filter(|&k| dfs.cas_put("/probe", k, payload.clone()).is_ok())
            .count()
    });
    o.set("dfs.cas_put_mb_per_s", total_mb / s);
    let (s, got) = timed(h, "dfs:cas_get", "gesall-dfs", || {
        (0..DFS_FILES as u64)
            .filter(
                |&k| matches!(dfs.cas_get("/probe", k), Ok(Some(b)) if b.len() == payload.len()),
            )
            .count()
    });
    o.set("dfs.cas_get_mb_per_s", total_mb / s);
    h.op(put == DFS_FILES && got == DFS_FILES, || {
        format!("dfs probe: cas put {put}, got {got} of {DFS_FILES}")
    });

    // Waste and gray-failure counters come from the DFS the workload
    // itself ran on, not from the probe's.
    let m = input.workload_dfs.metrics();
    let c = |key: &str| m.counter(key).get() as f64;
    let bytes_read = c(metrics_keys::BYTES_READ);
    let copied = c(metrics_keys::BYTES_COPIED) + c(metrics_keys::BYTES_COPIED_RANGE);
    o.set(
        "dfs.bytes_copied_per_byte_read",
        if bytes_read > 0.0 {
            copied / bytes_read
        } else {
            0.0
        },
    );
    o.set("dfs.reads_retried", c(metrics_keys::READS_RETRIED));
    o.set("dfs.reads_hedged", c(metrics_keys::READS_HEDGED));
}

/// One `engine.run_job` of the Round-4 sort over the workload's records
/// at the workload's sort buffer, shuffling through a DFS as the
/// platform does.
fn mapreduce(h: &Harness, o: &mut Outcome, input: &Input<'_>, header: &SamHeader) {
    let n_chroms = input.world.chrom_names.len();
    let engine = MapReduceEngine::new(ClusterResources::uniform(SLOTS, 1, 8192))
        .with_shuffle_dfs(pipeline::dfs(input.replication));
    let splits: Vec<InputSplit<String, SharedBytes>> = input
        .records
        .chunks(input.records.len().div_ceil(4).max(1))
        .enumerate()
        .map(|(i, part)| {
            let bytes = SharedBytes::from_vec(bam::write_bam(header, part));
            InputSplit::new(format!("part-{i}"), vec![(format!("part-{i}"), bytes)])
        })
        .collect();
    let config = JobConfig {
        name: "probe-round4-sort".into(),
        n_reducers: n_chroms + 1,
        io_sort_bytes: input.config.io_sort_bytes,
        merge_factor: input.config.merge_factor,
        ..JobConfig::default()
    };
    let (s, result) = timed(h, "mapreduce:sort_job", "gesall-mapreduce", || {
        engine.run_job(
            config,
            &Round4SortMapper {
                counters: Counters::new(),
            },
            &Round4SortReducer,
            &FnPartitioner::new(|k: &RangeKey, n| chromosome_partition(k, n)),
            splits,
        )
    });
    let res = match result {
        Ok(res) => res,
        Err(e) => {
            h.op(false, || format!("mapreduce probe: sort job failed: {e}"));
            return;
        }
    };
    let sorted: usize = res.outputs.iter().map(Vec::len).sum();
    h.op(sorted == input.records.len(), || {
        format!(
            "mapreduce probe: sort job returned {sorted} of {} records",
            input.records.len()
        )
    });
    let c = |key: &str| res.counters.get(key) as f64;
    o.set("mapreduce.sortjob_wall_s", s);
    o.set(
        "mapreduce.sortjob_recs_per_s",
        input.records.len() as f64 / s,
    );
    for (phase, key) in PHASES {
        o.set(&format!("mapreduce.phase.{phase}_s"), c(key) / 1e9);
    }
    o.set("mapreduce.spills", c(keys::MAP_SPILLS));
    o.set("mapreduce.merge_passes", c(keys::REDUCE_MERGE_PASSES));
    o.set("mapreduce.shuffle_wire_mb", c(keys::SHUFFLE_BYTES) / MB);
    o.set("mapreduce.shuffle_records", c(keys::SHUFFLE_RECORDS));
    o.set(
        "mapreduce.bytes_copied_per_rec",
        c(keys::BYTES_COPIED) / input.records.len().max(1) as f64,
    );
    o.set(
        "mapreduce.peak_reduce_resident_mb",
        c(keys::REDUCE_PEAK_RESIDENT) / MB,
    );
    o.set("mapreduce.attempts_failed", c(keys::FAILED_ATTEMPTS));
    o.set("mapreduce.fetch_retries", c(keys::SHUFFLE_FETCH_RETRIES));
}

/// The serial tools, called directly in pipeline order on a name-grouped
/// copy of the workload's records.
fn tools(h: &Harness, o: &mut Outcome, input: &Input<'_>) {
    let world = input.world;
    let rv = RefView::new(&world.references);
    let n = input.records.len() as f64;
    let mut header = world.aligner.index().sam_header();
    let mut records = input.records.to_vec();
    gesall_tools::sort_sam::sort_by_name(&mut header, &mut records);
    let recal = gesall_tools::recalibration::RecalConfig::default();

    let mut table = None;
    for tool in TOOLS {
        let (s, ()) = timed(h, &format!("tools:{tool}"), "gesall-tools", || match tool {
            "clean_sam" => {
                black_box(gesall_tools::clean_sam::clean_sam(&mut records, rv));
            }
            "fix_mate" => {
                black_box(gesall_tools::fix_mate::fix_mate_information(&mut records));
            }
            "mark_duplicates" => {
                black_box(gesall_tools::mark_duplicates::mark_duplicates(
                    &mut records,
                    1,
                ));
            }
            "sort_sam" => gesall_tools::sort_sam::sort_sam(&mut header, &mut records),
            "base_recalibrator" => {
                table = Some(gesall_tools::recalibration::base_recalibrator(
                    &records,
                    rv,
                    &HashSet::new(),
                    &recal,
                ));
            }
            "print_reads" => {
                let table = table
                    .as_ref()
                    .expect("base_recalibrator precedes print_reads in TOOLS");
                black_box(gesall_tools::recalibration::print_reads(
                    &mut records,
                    table,
                    &recal,
                ));
            }
            other => unreachable!("no probe for tool {other}"),
        });
        o.set(&format!("tools.{tool}_recs_per_s"), n / s);
    }

    let reference_kb = world.references.iter().map(Vec::len).sum::<usize>() as f64 / 1e3;
    let ug = gesall_tools::unified_genotyper::GenotyperConfig::default();
    let (s, calls) = timed(h, "tools:unified_genotyper", "gesall-tools", || {
        gesall_tools::unified_genotyper::unified_genotyper(&records, &world.chrom_names, rv, &ug)
    });
    o.set("tools.unified_genotyper_kb_per_s", reference_kb / s);
    o.note("probe.ug_calls", calls.len() as f64);
    let hc = gesall_tools::haplotype_caller::HaplotypeCallerConfig::default();
    let (s, calls) = timed(h, "tools:haplotype_caller", "gesall-tools", || {
        world
            .chrom_names
            .iter()
            .enumerate()
            .map(|(id, name)| {
                gesall_tools::haplotype_caller::call_chromosome(&records, id as i32, name, rv, &hc)
                    .variants
                    .len()
            })
            .sum::<usize>()
    });
    o.set("tools.haplotype_caller_kb_per_s", reference_kb / s);
    o.note("probe.hc_calls", calls as f64);
}
