//! Real-execution accuracy experiments at mini scale (Table 8, Fig. 11,
//! Tables 9/10, Fig. 6a): synthetic genome in, the full platform stack
//! exercised for real, serial vs parallel outputs diffed with the
//! error-diagnosis toolkit. Each experiment returns its numbers; its
//! `Display` is the report, and the tests below pin the numbers.

use gesall_aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall_core::diagnosis::{diff_alignments, diff_variants, AlignmentDiff, VariantDiff};
use gesall_core::pipeline::{
    serial_pipeline, serial_tail_from_aligned, serial_tail_from_markdup, GesallPlatform,
    PlatformConfig,
};
use gesall_core::PipelineOutput;
use gesall_datagen::donor::DonorConfig;
use gesall_datagen::reads::ReadSimConfig;
use gesall_datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall_dfs::{Dfs, DfsConfig};
use gesall_formats::fastq::ReadPair;
use gesall_formats::sam::SamRecord;
use gesall_formats::vcf::VariantRecord;
use gesall_mapreduce::counters::keys;
use gesall_telemetry::report::render_aligned;
use gesall_mapreduce::{ClusterResources, MapReduceEngine};
use gesall_tools::vcf_metrics::{
    precision_sensitivity, PrecisionSensitivity, SiteKey, VariantSetMetrics,
};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Scale of a real-execution experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub chromosome_lengths: [usize; 2],
    pub n_pairs: usize,
    pub n_partitions: usize,
}

impl Scale {
    /// The default experiment scale: ~1.8 Mb diploid genome at ~5×.
    pub fn standard() -> Scale {
        Scale { chromosome_lengths: [1_000_000, 800_000], n_pairs: 45_000, n_partitions: 6 }
    }
}

/// Everything the accuracy experiments need, built once.
pub struct ExperimentWorld {
    pub genome: ReferenceGenome,
    pub donor: DonorGenome,
    pub pairs: Vec<ReadPair>,
    pub aligner: Aligner,
    pub references: Vec<Vec<u8>>,
    pub chrom_names: Vec<String>,
    pub config: PlatformConfig,
    // Computed outputs (filled by `run`).
    pub serial_records: Vec<SamRecord>,
    pub serial_variants: Vec<VariantRecord>,
    pub parallel: PipelineOutput,
    pub serial_aligned: Vec<SamRecord>,
    pub parallel_aligned: Vec<SamRecord>,
}

impl ExperimentWorld {
    /// Build the world and run serial + parallel pipelines.
    pub fn run(scale: Scale) -> ExperimentWorld {
        let genome = ReferenceGenome::generate(&GenomeConfig {
            chromosome_lengths: scale.chromosome_lengths.to_vec(),
            ..GenomeConfig::default()
        });
        let donor = DonorGenome::generate(&genome, &DonorConfig::default());
        let reads = ReadSimConfig { n_pairs: scale.n_pairs, duplicate_rate: 0.05, ..ReadSimConfig::default() };
        let (pairs, _) = ReadSimulator::new(&genome, &donor, reads).simulate();
        let chroms: Vec<(String, Vec<u8>)> =
            genome.chromosomes.iter().map(|c| (c.name.clone(), c.seq.clone())).collect();
        let references: Vec<Vec<u8>> = chroms.iter().map(|(_, s)| s.clone()).collect();
        let chrom_names: Vec<String> = chroms.iter().map(|(n, _)| n.clone()).collect();
        let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
        let config = PlatformConfig {
            n_round1_partitions: scale.n_partitions,
            n_reducers: scale.n_partitions,
            ..PlatformConfig::default()
        };

        // Serial pipeline (the gold standard).
        let (serial_records, serial_variants) =
            serial_pipeline(&aligner, &references, &chrom_names, &pairs, config.seed);
        // Alignment only (pre-cleaning), for the Bwa-stage diff: serial,
        // and over partitioned input as round 1 does.
        let align = |pairs: &[ReadPair]| aligner.align_pairs(pairs).into_iter().flat_map(|(a, b)| [a, b]);
        let serial_aligned: Vec<SamRecord> = align(&pairs).collect();
        let parts = gesall_formats::fastq::split_pairs_into_partitions(pairs.clone(), scale.n_partitions);
        let parallel_aligned: Vec<SamRecord> = parts.iter().flat_map(|p| align(p)).collect();

        // Full parallel platform.
        let dfs =
            Dfs::new(DfsConfig { n_nodes: 4, block_size: 256 * 1024, replication: 1, ..DfsConfig::default() });
        let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 16 * 1024));
        let platform = GesallPlatform::new(dfs, engine, config.clone());
        let parallel = platform
            .run_pipeline(&aligner, pairs.clone())
            .expect("parallel pipeline failed");

        ExperimentWorld {
            genome,
            donor,
            pairs,
            aligner,
            references,
            chrom_names,
            config,
            serial_records,
            serial_variants,
            parallel,
            serial_aligned,
            parallel_aligned,
        }
    }

    /// Truth-set site keys.
    pub fn truth_keys(&self) -> HashSet<SiteKey> {
        (self.donor.truth.iter())
            .map(|t| (t.chrom.clone(), t.pos, t.ref_allele.clone(), t.alt_allele.clone()))
            .collect()
    }
}

/// Table 8: D-count / weighted D-count / D-impact for the parallel
/// pipeline up to Bwa (P̄₁), MarkDuplicates (P̄₂), HaplotypeCaller (P̄₃).
pub struct Table8 {
    /// Read ends the serial alignment holds.
    pub total_reads: u64,
    /// P̄₁: parallel Bwa's records, and the variants of its hybrid.
    pub bwa: AlignmentDiff,
    pub bwa_impact: VariantDiff,
    /// P̄₂: the platform's sorted, dup-marked records, and their hybrid.
    pub markdup: AlignmentDiff,
    pub markdup_impact: VariantDiff,
    /// P̄₃: the fully parallel calls.
    pub hc: VariantDiff,
    /// The §3.2 HaplotypeCaller partitioning study: chr1 called whole
    /// (its active-window count) and halved mid-chromosome.
    pub fine_grained_windows: usize,
    pub fine_grained: VariantDiff,
}

pub fn table8(world: &ExperimentWorld) -> Table8 {
    let (_, hybrid1_variants) = serial_tail_from_aligned(
        &world.aligner,
        &world.references,
        &world.chrom_names,
        world.parallel_aligned.clone(),
        world.config.seed,
    );
    let (_, hybrid2_variants) = serial_tail_from_markdup(
        &world.references,
        &world.chrom_names,
        world.parallel.records.clone(),
    );
    // Chromosome-level partitioning (what the platform uses) against the
    // fine-grained positional scheme, whose cut can shift active windows.
    let (fine_grained_windows, fine_grained) = {
        use gesall_tools::haplotype_caller::{call_range, HaplotypeCallerConfig};
        use gesall_tools::refview::RefView;
        let rv = RefView::new(&world.references);
        let hc = HaplotypeCallerConfig::default();
        let len = world.references[0].len() as i64;
        let mid = len / 2;
        let recs = &world.serial_records;
        let whole = call_range(recs, 0, "chr1", 1, len, rv, &hc);
        let mut split = call_range(recs, 0, "chr1", 1, mid, rv, &hc).variants;
        split.extend(call_range(recs, 0, "chr1", mid + 1, len, rv, &hc).variants);
        split.sort_by_key(|v| (v.pos, v.ref_allele.clone()));
        split.dedup_by(|a, b| a.site_key() == b.site_key());
        (whole.windows.len(), diff_variants(&whole.variants, &split))
    };
    Table8 {
        total_reads: world.serial_aligned.len() as u64,
        bwa: diff_alignments(&world.serial_aligned, &world.parallel_aligned),
        bwa_impact: diff_variants(&world.serial_variants, &hybrid1_variants),
        markdup: diff_alignments(&world.serial_records, &world.parallel.records),
        markdup_impact: diff_variants(&world.serial_variants, &hybrid2_variants),
        hc: diff_variants(&world.serial_variants, &world.parallel.variants),
        fine_grained_windows,
        fine_grained,
    }
}

impl fmt::Display for Table8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = |stage: &str, d: &AlignmentDiff, impact: &VariantDiff| {
            vec![
                stage.into(),
                d.d_count().to_string(),
                format!("{:.1}", d.weighted_d_count()),
                format!("{:.4}", d.weighted_d_count_pct(self.total_reads)),
                impact.d_impact().to_string(),
                format!("{:.1}", impact.weighted_d_impact()),
            ]
        };
        let hc = vec![
            "Haplotype Caller".into(),
            self.hc.d_impact().to_string(),
            format!("{:.1}", self.hc.weighted_d_impact()),
            format!("{:.4}", self.hc.weighted_d_impact_pct()),
            "-".into(),
            "-".into(),
        ];
        let rows = [
            row("Bwa", &self.bwa, &self.bwa_impact),
            row("Mark Duplicates", &self.markdup, &self.markdup_impact),
            hc,
        ];
        let headers =
            ["Stage", "D count", "Weighted D count", "Weighted D count (%)", "D impact", "Weighted D impact"];
        let t = render_aligned(&headers, &rows);
        write!(
            f,
            "== Table 8: discordance of the parallel pipeline (real mini-scale run) ==\n\
             reads compared: {}; concordant variants: {}\n{t}\
             Shape check (paper): discordance concentrates in low-quality reads, so the\n\
             weighted D-count is a tiny percentage; final variant impact ~0.1%.\n\
             Low-quality fraction of Bwa discordants: {:.0}%\n\
             Fine-grained HC partitioning probe (chr1 halved mid-chromosome):\n\
               {} active windows whole-chromosome; {} concordant, {} discordant calls\n\
               vs the sequential walk — positional cuts perturb the greedy\n\
               segmentation, which is why the paper only accepts chromosome-level\n\
               partitioning for HaplotypeCaller (§3.2).\n",
            self.total_reads,
            self.hc.concordant(),
            100.0 * self.bwa.low_quality_fraction(),
            self.fine_grained_windows,
            self.fine_grained.concordant(),
            self.fine_grained.d_impact()
        )
    }
}

/// Fig 11: where do Bwa disagreements live?
pub struct Fig11 {
    /// Share of the genome that is hard to map: centromeres, blacklisted
    /// regions and segmental duplications (the paper's "anomalous and
    /// highly repetitive genome fragments", Appendix B.2).
    pub hard_genome_fraction: f64,
    /// Disagreeing read ends, and those placed in a hard region by
    /// either run.
    pub discordant: usize,
    pub in_hard: usize,
    /// Disagreeing read ends by `[serial mapq < 30][parallel mapq < 30]`.
    pub mapq_quadrants: [[usize; 2]; 2],
    /// (disagreeing, all) serial read ends by the |z| bucket of their
    /// insert size: 0-1, 1-2, 2-3, 3-4, 4+.
    pub z_buckets: [(usize, usize); 5],
}

pub fn fig11(world: &ExperimentWorld) -> Fig11 {
    let diff = diff_alignments(&world.serial_aligned, &world.parallel_aligned);
    let chromosomes = &world.genome.chromosomes;
    let hard_len: usize = (chromosomes.iter())
        .map(|c| {
            let seg_dups: usize = c.seg_dups.iter().map(|(s, d)| s.len() + d.len()).sum();
            c.centromere.len() + c.blacklist.iter().map(|r| r.len()).sum::<usize>() + seg_dups
        })
        .sum();
    let in_hard = |rec_chrom: i32, pos: i64| -> bool {
        let (Ok(chrom), Ok(p)) = (usize::try_from(rec_chrom), usize::try_from(pos - 1)) else { return false };
        chromosomes.get(chrom).is_some_and(|c| {
            c.is_hard_to_map(p) || c.seg_dups.iter().any(|(s, d)| s.contains(p) || d.contains(p))
        })
    };
    let mut mapq_quadrants = [[0usize; 2]; 2];
    for d in &diff.discordant {
        mapq_quadrants[usize::from(d.serial_mapq < 30)][usize::from(d.parallel_mapq < 30)] += 1;
    }
    // Insert sizes: plausible fragment lengths only, so outliers
    // (improper pairs) do not inflate the standard deviation.
    let inserts: Vec<f64> = world
        .serial_aligned
        .iter()
        .filter(|r| r.tlen > 0 && r.tlen < 2000)
        .map(|r| r.tlen as f64)
        .collect();
    let mean = inserts.iter().sum::<f64>() / inserts.len().max(1) as f64;
    let sd = (inserts.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
        / inserts.len().max(1) as f64)
        .sqrt()
        .max(1.0);
    let discordant_names: HashSet<&str> =
        diff.discordant.iter().map(|d| d.id.0.as_str()).collect();
    let mut z_buckets = [(0usize, 0usize); 5];
    for r in world.serial_aligned.iter().filter(|r| r.tlen > 0 && r.tlen < 2000) {
        let b = (((r.tlen as f64 - mean).abs() / sd) as usize).min(4);
        z_buckets[b].1 += 1;
        if discordant_names.contains(r.name.as_str()) {
            z_buckets[b].0 += 1;
        }
    }
    Fig11 {
        hard_genome_fraction: hard_len as f64 / world.genome.total_len() as f64,
        discordant: diff.discordant.len(),
        in_hard: (diff.discordant.iter())
            .filter(|d| in_hard(d.serial.ref_id, d.serial.pos) || in_hard(d.parallel.ref_id, d.parallel.pos))
            .count(),
        mapq_quadrants,
        z_buckets,
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hard_frac_disc = self.in_hard as f64 / self.discordant.max(1) as f64;
        let quad = self.mapq_quadrants;
        let mapq = render_aligned(
            &["", "parallel mapq >= 30", "parallel mapq < 30"],
            &[
                vec!["serial mapq >= 30".into(), quad[0][0].to_string(), quad[0][1].to_string()],
                vec!["serial mapq < 30".into(), quad[1][0].to_string(), quad[1][1].to_string()],
            ],
        );
        let rows: Vec<Vec<String>> = (self.z_buckets.iter().enumerate())
            .map(|(z, (d, n))| {
                let label = if z == 4 { "4+".into() } else { format!("{z}-{}", z + 1) };
                let rate = format!("{:.2}", 100.0 * *d as f64 / (*n).max(1) as f64);
                vec![label, n.to_string(), d.to_string(), rate]
            })
            .collect();
        let z = render_aligned(&["|z|", "pairs", "disagreeing", "rate (%)"], &rows);
        write!(
            f,
            "== Fig 11: diagnosis of Bwa serial/parallel disagreements ==\n\
             (a) hard-to-map regions cover {:.1}% of the genome but host {:.1}% of\n    \
             disagreeing reads (enrichment {:.1}x)\n\
             (b) mapq quadrants of disagreeing reads:\n{mapq}\
             (c) disagreement rate by insert-size deviation (z-score bucket):\n{z}\
             Paper shape: disagreements cluster in repetitive regions and at low mapq.\n\
             At this scale, random tie-breaks in duplicated regions dominate (insert-\n\
             size independent); the paper's insert-edge effect needs batch statistics\n\
             to differ more, i.e. paper-scale data volumes.\n",
            100.0 * self.hard_genome_fraction,
            100.0 * hard_frac_disc,
            hard_frac_disc / self.hard_genome_fraction.max(1e-9)
        )
    }
}

/// Tables 9/10: variant-quality metrics of the Intersection /
/// Serial-only / Hybrid-only sets (hybrid: parallel through
/// MarkDuplicates, serial HC), and GIAB-style precision/sensitivity of
/// both pipelines against the spiked truth set.
pub struct Table9_10 {
    pub intersection: VariantSetMetrics,
    pub serial_only: VariantSetMetrics,
    pub hybrid_only: VariantSetMetrics,
    pub serial: PrecisionSensitivity,
    pub hybrid: PrecisionSensitivity,
}

pub fn table9_10(world: &ExperimentWorld) -> Table9_10 {
    let (_, hybrid_variants) = serial_tail_from_markdup(
        &world.references,
        &world.chrom_names,
        world.parallel.records.clone(),
    );
    let (intersection, serial_only, hybrid_only) =
        diff_variants(&world.serial_variants, &hybrid_variants).metric_rows();
    let truth = world.truth_keys();
    Table9_10 {
        intersection,
        serial_only,
        hybrid_only,
        serial: precision_sensitivity(&world.serial_variants, &truth),
        hybrid: precision_sensitivity(&hybrid_variants, &truth),
    }
}

impl fmt::Display for Table9_10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sets = [
            ("Intersection", &self.intersection),
            ("Serial only", &self.serial_only),
            ("Hybrid only", &self.hybrid_only),
        ];
        let rows: Vec<Vec<String>> = (sets.iter())
            .map(|(name, m)| {
                let tenths = [m.mean_qual, m.mean_mq, m.mean_dp].map(|x| format!("{x:.1}"));
                let hundredths = [m.mean_fs, m.mean_ab, m.ti_tv, m.het_hom].map(|x| format!("{x:.2}"));
                [vec![name.to_string(), m.n.to_string()], tenths.to_vec(), hundredths.to_vec()].concat()
            })
            .collect();
        let t = render_aligned(&["Set", "N", "QUAL", "MQ", "DP", "FS", "AB", "Ti/Tv", "Het/Hom"], &rows);
        let rows: Vec<Vec<String>> = [("Serial", &self.serial), ("Hybrid", &self.hybrid)]
            .iter()
            .map(|(name, ps)| {
                let rates = [ps.precision, ps.sensitivity].map(|x| format!("{x:.4}"));
                let counts = [ps.true_positives, ps.false_positives, ps.false_negatives].map(|n| n.to_string());
                [vec![name.to_string()], rates.to_vec(), counts.to_vec()].concat()
            })
            .collect();
        let t2 = render_aligned(&["Pipeline", "Precision", "Sensitivity", "TP", "FP", "FN"], &rows);
        write!(
            f,
            "== Tables 9/10: variant-set quality metrics (real mini-scale run) ==\n{t}\n\
             Truth-set comparison (GIAB analogue):\n{t2}\
             Paper shape: the discordant sets are small and lower quality than the\n\
             intersection; serial and hybrid score identically against the truth set.\n"
        )
    }
}

/// Fig 6a: data transformation vs external-program time per round, from
/// the real platform run's counters.
pub struct Fig6a {
    /// (round, transform ms, external ms).
    pub rounds: Vec<(String, f64, f64)>,
}

pub fn fig6a(world: &ExperimentWorld) -> Fig6a {
    // The wrapper timers are cumulative over the run: each round's own
    // time is its step over the round before.
    let (mut prev_t, mut prev_e) = (0u64, 0u64);
    let rounds = (world.parallel.rounds.iter())
        .map(|r| {
            let get = |key: &str| r.counters.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v);
            let (cum_t, cum_e) = (get(keys::DATA_TRANSFORM_NANOS), get(keys::EXTERNAL_PROGRAM_NANOS));
            let dt = cum_t.saturating_sub(prev_t) as f64 / 1e6;
            let de = cum_e.saturating_sub(prev_e) as f64 / 1e6;
            (prev_t, prev_e) = (cum_t, cum_e);
            (r.name.clone(), dt, de)
        })
        .collect();
    Fig6a { rounds }
}

impl fmt::Display for Fig6a {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = (self.rounds.iter())
            .map(|(name, dt, de)| {
                let share = dt / (dt + de).max(1e-9);
                vec![name.clone(), format!("{dt:.0}"), format!("{de:.0}"), format!("{:.0}%", 100.0 * share)]
            })
            .collect();
        let t = render_aligned(&["Round", "Transform ms", "External ms", "Transform share"], &rows);
        write!(
            f,
            "== Fig 6a: data-transformation share of wrapper work (real run) ==\n{t}\
             The copy-and-convert overhead between framework records and external\n\
             program bytes is unavoidable for wrapped programs (paper: 12-49%).\n"
        )
    }
}

/// The MarkDup_reg round's spill and merge counters under one sort buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillCounts {
    pub map_spills: u64,
    pub map_merge_segments: u64,
    pub shuffle_records: u64,
    pub reduce_merge_passes: u64,
}

/// Real-engine counterparts of Fig 5b/5c: actual sort-spill-merge
/// counters under different sort-buffer sizes, and the measured thread
/// scaling of our aligner (the wrapped "Bwa").
pub struct Substrate {
    /// MarkDup_reg over four name-grouped partitions with a 256 KiB and
    /// a 16 MiB sort buffer.
    pub sort_buffers: [(&'static str, SpillCounts); 2],
    /// (threads, wall s) aligning up to 4 000 pairs.
    pub thread_scaling: Vec<(usize, f64)>,
}

pub fn substrate(world: &ExperimentWorld) -> Substrate {
    use gesall_core::rounds::{Round3MarkDupMapper, Round3MarkDupReducer};
    use gesall_formats::SharedBytes;
    use gesall_mapreduce::counters::Counters;
    use gesall_mapreduce::runtime::{InputSplit, JobConfig};
    use gesall_mapreduce::task::HashPartitioner;

    let header = world.aligner.index().sam_header();
    // Name-grouped partitions (pairs adjacent), as round 3 requires.
    let mut by_name: BTreeMap<&str, Vec<&SamRecord>> = BTreeMap::new();
    for r in &world.parallel.records {
        if r.flags.is_paired() && r.flags.is_primary() {
            by_name.entry(r.name.as_str()).or_default().push(r);
        }
    }
    let grouped: Vec<SamRecord> = by_name.into_values().flatten().cloned().collect();
    let parts: Vec<&[SamRecord]> = grouped.chunks(grouped.len().div_ceil(4).max(2)).collect();
    let buffers = [("256 KiB (tiny)", 256 * 1024usize), ("16 MiB (ample)", 16 << 20)];
    let sort_buffers = buffers.map(|(label, sort_bytes)| {
        let counters = Counters::new();
        let splits: Vec<InputSplit<String, SharedBytes>> = (parts.iter().enumerate())
            .map(|(i, p)| {
                let bytes = SharedBytes::from_vec(gesall_formats::bam::write_bam(&header, p));
                InputSplit::new(format!("p{i}"), vec![(format!("p{i}"), bytes)])
            })
            .collect();
        let res = MapReduceEngine::local(4)
            .run_job(
                JobConfig { n_reducers: 4, io_sort_bytes: sort_bytes, merge_factor: 4, ..JobConfig::default() },
                &Round3MarkDupMapper { bloom: None, counters: counters.clone() },
                &Round3MarkDupReducer { seed: 1, counters },
                &HashPartitioner,
                splits,
            )
            .expect("markdup round runs without fault injection");
        let count = |key| res.counters.get(key);
        (
            label,
            SpillCounts {
                map_spills: count(keys::MAP_SPILLS),
                map_merge_segments: count(keys::MAP_MERGE_SEGMENTS),
                shuffle_records: count(keys::SHUFFLE_RECORDS),
                reduce_merge_passes: count(keys::REDUCE_MERGE_PASSES),
            },
        )
    });
    let sample: Vec<ReadPair> = world.pairs.iter().take(4000).cloned().collect();
    let thread_scaling = [1usize, 2, 4, 8]
        .map(|threads| {
            let t0 = std::time::Instant::now();
            let r = world.aligner.align_pairs_threaded(&sample, threads);
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(&r);
            (threads, secs)
        })
        .to_vec();
    Substrate { sort_buffers, thread_scaling }
}

impl fmt::Display for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = (self.sort_buffers.iter())
            .map(|(label, c)| {
                let counts = [c.map_spills, c.map_merge_segments, c.shuffle_records, c.reduce_merge_passes];
                [vec![label.to_string()], counts.map(|n| n.to_string()).to_vec()].concat()
            })
            .collect();
        let headers =
            ["io.sort buffer", "map spills", "map merge segments", "shuffle records", "reduce merge passes"];
        let spills = render_aligned(&headers, &rows);
        let base = self.thread_scaling[0].1;
        let rows: Vec<Vec<String>> = (self.thread_scaling.iter())
            .map(|(threads, secs)| {
                vec![threads.to_string(), format!("{secs:.2}"), format!("{:.2}", base / secs)]
            })
            .collect();
        let scaling = render_aligned(&["threads", "wall (s)", "speedup"], &rows);
        write!(
            f,
            "== Substrate measurements (real engine / real aligner) ==\n\
             Fig 5b counterpart — MarkDup_reg round on the real engine:\n{spills}\
             A starved sort buffer multiplies spills and forces the map-side merge;\n\
             an ample one spills once — the mechanism behind Fig 5b's breakdown.\n\n\
             Fig 5c counterpart — measured thread scaling of the wrapped aligner\n\
             (batch barrier + serial pairing phase bound it, as with real Bwa):\n{scaling}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The tier-1 worlds: a ~100 kb genome at ~5×, round 1 over 1, 2, 4
    /// and 8 partitions.
    const PARTITIONS: [usize; 4] = [1, 2, 4, 8];

    fn world(n_partitions: usize) -> &'static ExperimentWorld {
        static WORLDS: [OnceLock<ExperimentWorld>; 4] = [const { OnceLock::new() }; 4];
        let i = PARTITIONS.iter().position(|&n| n == n_partitions).expect("a tier-1 partition count");
        WORLDS[i].get_or_init(|| {
            ExperimentWorld::run(Scale { chromosome_lengths: [60_000, 40_000], n_pairs: 2_500, n_partitions })
        })
    }

    /// Every integer a real run reports for Table 8, Fig 11 and Tables 9/10.
    #[derive(Debug, PartialEq)]
    struct Pinned {
        /// Bwa and MarkDuplicates D-counts.
        d_counts: [u64; 2],
        /// Bwa, MarkDuplicates and HaplotypeCaller D-impacts, and the
        /// concordant calls of the fully parallel pipeline.
        d_impacts: [usize; 3],
        concordant_calls: usize,
        /// Fine-grained probe: active windows, concordant, discordant.
        fine_grained: [usize; 3],
        mapq_quadrants: [[usize; 2]; 2],
        z_buckets: [(usize, usize); 5],
        /// N of Intersection, Serial only, Hybrid only.
        sets: [usize; 3],
        /// (TP, FP, FN) of the serial and the hybrid pipeline.
        truth: [(usize, usize, usize); 2],
    }

    fn pinned(t8: &Table8, f11: &Fig11, t9: &Table9_10) -> Pinned {
        let truth = |ps: &PrecisionSensitivity| (ps.true_positives, ps.false_positives, ps.false_negatives);
        Pinned {
            d_counts: [t8.bwa.d_count(), t8.markdup.d_count()],
            d_impacts: [t8.bwa_impact.d_impact(), t8.markdup_impact.d_impact(), t8.hc.d_impact()],
            concordant_calls: t8.hc.concordant(),
            fine_grained: [t8.fine_grained_windows, t8.fine_grained.concordant(), t8.fine_grained.d_impact()],
            mapq_quadrants: f11.mapq_quadrants,
            z_buckets: f11.z_buckets,
            sets: [t9.intersection.n, t9.serial_only.n, t9.hybrid_only.n],
            truth: [truth(&t9.serial), truth(&t9.hybrid)],
        }
    }

    /// Table 8's ✓: partitioning perturbs only low-quality mappings, and
    /// at chromosome granularity the final calls do not move at all.
    fn assert_table8_shape(t: &Table8) {
        assert_eq!(t.bwa.missing + t.markdup.missing, 0, "partitioning loses no read");
        assert_eq!(t.bwa.weighted_d_count(), 0.0);
        if t.bwa.d_count() > 0 {
            assert_eq!(t.bwa.low_quality_fraction(), 1.0);
        }
        let markdup_pct = t.markdup.weighted_d_count_pct(t.total_reads);
        assert!(markdup_pct < 0.1, "{markdup_pct}");
        for impact in [&t.bwa_impact, &t.markdup_impact, &t.hc] {
            assert_eq!((impact.d_impact(), impact.weighted_d_impact()), (0, 0.0));
        }
    }

    /// Fig 11's ✓: every disagreeing read lies in a hard-to-map region and
    /// has mapq < 30 in both runs. (The enrichment this makes is pinned at
    /// standard scale: hard regions cover most of a tiny genome.)
    fn assert_fig11_shape(f: &Fig11) {
        assert_eq!(f.in_hard, f.discordant);
        assert_eq!(f.mapq_quadrants, [[0, 0], [0, f.discordant]]);
    }

    /// Tables 9/10's ✓: serial and hybrid call the same set, so they score
    /// identically against the truth set.
    fn assert_table9_10_shape(t: &Table9_10) {
        assert_eq!((t.serial_only.n, t.hybrid_only.n), (0, 0));
        assert_eq!(t.serial, t.hybrid);
    }

    #[test]
    fn table8_reports_small_discordance() {
        for n in PARTITIONS {
            let t = table8(world(n));
            assert_table8_shape(&t);
            // One partition: round 1's only batch run is the serial run's.
            assert_eq!(t.bwa.d_count() == 0, n == 1, "{n} partitions");
        }
    }

    #[test]
    fn fig11_reports_enrichment() {
        for n in PARTITIONS {
            assert_fig11_shape(&fig11(world(n)));
        }
    }

    #[test]
    fn table9_10_reports_metrics() {
        for n in PARTITIONS {
            assert_table9_10_shape(&table9_10(world(n)));
        }
    }

    #[test]
    fn real_integers_are_pinned_for_one_to_eight_partitions() {
        let pins = |d_counts, quadrant, z_disagreeing: [usize; 5]| Pinned {
            d_counts,
            d_impacts: [0, 0, 0],
            concordant_calls: 18,
            fine_grained: [304, 12, 0],
            mapq_quadrants: [[0, 0], [0, quadrant]],
            z_buckets: [0, 1, 2, 3, 4].map(|b| (z_disagreeing[b], [1667, 92, 0, 1, 9][b])),
            sets: [18, 0, 0],
            truth: [(17, 1, 79); 2],
        };
        for (n, expected) in [
            (1, pins([0, 18], 0, [0, 0, 0, 0, 0])),
            (2, pins([437, 462], 437, [193, 28, 0, 0, 2])),
            (4, pins([679, 704], 679, [300, 39, 0, 0, 4])),
            (8, pins([793, 817], 793, [354, 45, 0, 0, 7])),
        ] {
            let w = world(n);
            assert_eq!(pinned(&table8(w), &fig11(w), &table9_10(w)), expected, "{n} partitions");
        }
    }

    /// The numbers EXPERIMENTS.md quotes: `Scale::standard()`, six
    /// partitions (~10 s in a release build).
    #[test]
    #[ignore = "standard scale: release CI"]
    fn real_integers_are_pinned_at_standard_scale() {
        let w = ExperimentWorld::run(Scale::standard());
        let (t8, f11, t9) = (table8(&w), fig11(&w), table9_10(&w));
        assert_table8_shape(&t8);
        assert_fig11_shape(&f11);
        assert_table9_10_shape(&t9);
        let expected = Pinned {
            d_counts: [1160, 1261],
            d_impacts: [0, 0, 0],
            concordant_calls: 758,
            fine_grained: [9322, 428, 0],
            mapq_quadrants: [[0, 0], [0, 1160]],
            z_buckets: [(396, 28527), (160, 11525), (22, 1797), (0, 106), (0, 3)],
            sets: [758, 0, 0],
            truth: [(754, 4, 1218); 2], // precision 0.9947, sensitivity 0.3824
        };
        assert_eq!(pinned(&t8, &f11, &t9), expected);
        assert_eq!(t8.total_reads, 90_000);
        // Hard-to-map regions: 11.1 % of the genome, all of the
        // disagreements, a 9.0× enrichment.
        let hard = f11.hard_genome_fraction;
        assert!((100.0 * hard - 11.1).abs() < 0.05 && (1.0 / hard - 9.0).abs() < 0.05, "{hard}");
        assert!((t9.intersection.ti_tv - 2.12).abs() < 0.005, "{}", t9.intersection.ti_tv);
    }

    #[test]
    fn fig6a_reports_transform_share() {
        let w = world(4);
        let f = fig6a(w);
        let names: Vec<&str> = f.rounds.iter().map(|(name, _, _)| name.as_str()).collect();
        let expected: Vec<&str> = w.parallel.rounds.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, expected);
        assert!(f.rounds.iter().all(|&(_, t, e)| t >= 0.0 && e >= 0.0));
        // The phenomenon: a round that converts records pays for it, and
        // round 1, whose map input is already the bytes bwa-mem reads, does not.
        let round = |name: &str| f.rounds.iter().find(|(n, _, _)| n == name).expect(name);
        assert!(round("round2-clean-fixmate").1 > 0.0);
        assert_eq!(round("round1-align").1, 0.0);
        assert!(round("round1-align").2 > 0.0);
    }

    #[test]
    fn substrate_reports_spills_and_scaling() {
        let s = substrate(world(4));
        let [(_, tiny), (_, ample)] = s.sort_buffers;
        // A starved buffer multiplies spills and forces the map-side merge;
        // an ample one spills once per map task; the shuffle is the same.
        assert!(tiny.map_spills > ample.map_spills, "{tiny:?} vs {ample:?}");
        assert!(tiny.map_merge_segments > 0);
        assert_eq!(ample.map_merge_segments, 0);
        assert_eq!(ample.map_spills, 4);
        assert_eq!(tiny.shuffle_records, ample.shuffle_records);
        let threads: Vec<usize> = s.thread_scaling.iter().map(|&(t, _)| t).collect();
        assert_eq!(threads, [1, 2, 4, 8]);
        assert!(s.thread_scaling.iter().all(|&(_, secs)| secs > 0.0));
    }
}
