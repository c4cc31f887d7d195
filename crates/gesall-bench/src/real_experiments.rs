//! Real-execution accuracy experiments at mini scale (Table 8, Fig. 11,
//! Tables 9/10, Fig. 6a): synthetic genome in, the full platform stack
//! exercised for real, serial vs parallel outputs diffed with the
//! error-diagnosis toolkit.

use crate::report::Table;
use gesall_aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall_core::diagnosis::{diff_alignments, diff_variants};
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
use gesall_mapreduce::{ClusterResources, MapReduceEngine};
use gesall_tools::vcf_metrics::{precision_sensitivity, variant_set_metrics, SiteKey};
use std::collections::HashSet;

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
        Scale {
            chromosome_lengths: [1_000_000, 800_000],
            n_pairs: 45_000,
            n_partitions: 6,
        }
    }

    /// A small scale for unit tests.
    pub fn tiny() -> Scale {
        Scale {
            chromosome_lengths: [60_000, 40_000],
            n_pairs: 2_500,
            n_partitions: 3,
        }
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
        let (pairs, _) = ReadSimulator::new(
            &genome,
            &donor,
            ReadSimConfig {
                n_pairs: scale.n_pairs,
                duplicate_rate: 0.05,
                ..ReadSimConfig::default()
            },
        )
        .simulate();
        let chroms: Vec<(String, Vec<u8>)> = genome
            .chromosomes
            .iter()
            .map(|c| (c.name.clone(), c.seq.clone()))
            .collect();
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
        // Serial alignment only (pre-cleaning), for the Bwa-stage diff.
        let serial_aligned: Vec<SamRecord> = aligner
            .align_pairs(&pairs)
            .into_iter()
            .flat_map(|(a, b)| [a, b])
            .collect();
        // Parallel alignment only: partitioned input, as Round 1 does.
        let parts =
            gesall_formats::fastq::split_pairs_into_partitions(pairs.clone(), scale.n_partitions);
        let parallel_aligned: Vec<SamRecord> = parts
            .iter()
            .flat_map(|p| {
                aligner
                    .align_pairs(p)
                    .into_iter()
                    .flat_map(|(a, b)| [a, b])
            })
            .collect();

        // Full parallel platform.
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 256 * 1024,
            replication: 1,
            ..DfsConfig::default()
        });
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
        self.donor
            .truth
            .iter()
            .map(|t| {
                (
                    t.chrom.clone(),
                    t.pos,
                    t.ref_allele.clone(),
                    t.alt_allele.clone(),
                )
            })
            .collect()
    }
}

/// Table 8: D-count / weighted D-count / D-impact for the parallel
/// pipeline up to Bwa (P̄₁), MarkDuplicates (P̄₂), HaplotypeCaller (P̄₃).
pub fn table8(world: &ExperimentWorld) -> String {
    let total_reads = world.serial_aligned.len() as u64;

    // P1: parallel Bwa.
    let bwa_diff = diff_alignments(&world.serial_aligned, &world.parallel_aligned);
    let (_, hybrid1_variants) = serial_tail_from_aligned(
        &world.aligner,
        &world.references,
        &world.chrom_names,
        world.parallel_aligned.clone(),
        world.config.seed,
    );
    let impact1 = diff_variants(&world.serial_variants, &hybrid1_variants);

    // P2: parallel pipeline through MarkDuplicates (= the platform's
    // sorted, dup-marked records), serial HC tail.
    let md_diff = diff_alignments(&world.serial_records, &world.parallel.records);
    let (_, hybrid2_variants) = serial_tail_from_markdup(
        &world.references,
        &world.chrom_names,
        world.parallel.records.clone(),
    );
    let impact2 = diff_variants(&world.serial_variants, &hybrid2_variants);

    // P3: fully parallel.
    let hc_diff = diff_variants(&world.serial_variants, &world.parallel.variants);

    let mut t = Table::new(&[
        "Stage",
        "D count",
        "Weighted D count",
        "Weighted D count (%)",
        "D impact",
        "Weighted D impact",
    ]);
    t.row(&[
        "Bwa".into(),
        bwa_diff.d_count().to_string(),
        format!("{:.1}", bwa_diff.weighted_d_count()),
        format!("{:.4}", bwa_diff.weighted_d_count_pct(total_reads)),
        impact1.d_impact().to_string(),
        format!("{:.1}", impact1.weighted_d_impact()),
    ]);
    t.row(&[
        "Mark Duplicates".into(),
        md_diff.d_count().to_string(),
        format!("{:.1}", md_diff.weighted_d_count()),
        format!("{:.4}", md_diff.weighted_d_count_pct(total_reads)),
        impact2.d_impact().to_string(),
        format!("{:.1}", impact2.weighted_d_impact()),
    ]);
    t.row(&[
        "Haplotype Caller".into(),
        hc_diff.d_impact().to_string(),
        format!("{:.1}", hc_diff.weighted_d_impact()),
        format!("{:.4}", hc_diff.weighted_d_impact_pct()),
        "-".into(),
        "-".into(),
    ]);
    // The §3.2 HaplotypeCaller partitioning study: chromosome-level
    // partitioning (what the platform uses, above) is exact here; the
    // fine-grained positional scheme shifts active windows at the cut.
    let fine_grained = {
        use gesall_core::diagnosis::diff_variants as dv;
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
        let d = dv(&whole.variants, &split);
        (whole.windows.len(), d.concordant, d.d_impact())
    };

    let concordant_variants = hc_diff.concordant;
    format!(
        "== Table 8: discordance of the parallel pipeline (real mini-scale run) ==\n\
         reads compared: {total_reads}; concordant variants: {concordant_variants}\n{}\
         Shape check (paper): discordance concentrates in low-quality reads, so the\n\
         weighted D-count is a tiny percentage; final variant impact ~0.1%.\n\
         Low-quality fraction of Bwa discordants: {:.0}%\n\
         Fine-grained HC partitioning probe (chr1 halved mid-chromosome):\n\
           {} active windows whole-chromosome; {} concordant, {} discordant calls\n\
           vs the sequential walk — positional cuts perturb the greedy\n\
           segmentation, which is why the paper only accepts chromosome-level\n\
           partitioning for HaplotypeCaller (§3.2).\n",
        t.render(),
        100.0 * bwa_diff.low_quality_fraction(),
        fine_grained.0,
        fine_grained.1,
        fine_grained.2
    )
}

/// Fig 11: where do Bwa disagreements live?
pub fn fig11(world: &ExperimentWorld) -> String {
    let diff = diff_alignments(&world.serial_aligned, &world.parallel_aligned);
    let mut out = String::from("== Fig 11: diagnosis of Bwa serial/parallel disagreements ==\n");

    // (a) Are disagreements enriched in repetitive / hard-to-map regions?
    // "Hard" = centromeres + blacklisted regions + segmental
    // duplications (the paper's "anomalous and highly repetitive genome
    // fragments", Appendix B.2).
    let hard_len: usize = world
        .genome
        .chromosomes
        .iter()
        .map(|c| {
            c.centromere.len()
                + c.blacklist.iter().map(|r| r.len()).sum::<usize>()
                + c.seg_dups
                    .iter()
                    .map(|(s, d)| s.len() + d.len())
                    .sum::<usize>()
        })
        .sum();
    let total_len = world.genome.total_len();
    let in_hard = |rec_chrom: i32, pos: i64| -> bool {
        if rec_chrom < 0 || pos < 1 {
            return false;
        }
        let p = (pos - 1) as usize;
        world
            .genome
            .chromosomes
            .get(rec_chrom as usize)
            .map(|c| {
                c.is_hard_to_map(p)
                    || c.seg_dups
                        .iter()
                        .any(|(s, d)| s.contains(p) || d.contains(p))
            })
            .unwrap_or(false)
    };
    let hard_disagreements = diff
        .discordant
        .iter()
        .filter(|d| in_hard(d.serial.ref_id, d.serial.pos) || in_hard(d.parallel.ref_id, d.parallel.pos))
        .count();
    let hard_frac_genome = hard_len as f64 / total_len as f64;
    let hard_frac_disc = hard_disagreements as f64 / diff.discordant.len().max(1) as f64;
    out.push_str(&format!(
        "(a) hard-to-map regions cover {:.1}% of the genome but host {:.1}% of\n    disagreeing reads (enrichment {:.1}x)\n",
        100.0 * hard_frac_genome,
        100.0 * hard_frac_disc,
        hard_frac_disc / hard_frac_genome.max(1e-9)
    ));

    // (b) Mapping-quality distribution of disagreeing reads.
    let mut quad = [[0usize; 2]; 2]; // [serial<30][parallel<30]
    for d in &diff.discordant {
        quad[usize::from(d.serial_mapq < 30)][usize::from(d.parallel_mapq < 30)] += 1;
    }
    let mut t = Table::new(&["", "parallel mapq >= 30", "parallel mapq < 30"]);
    t.row(&[
        "serial mapq >= 30".into(),
        quad[0][0].to_string(),
        quad[0][1].to_string(),
    ]);
    t.row(&[
        "serial mapq < 30".into(),
        quad[1][0].to_string(),
        quad[1][1].to_string(),
    ]);
    out.push_str(&format!("(b) mapq quadrants of disagreeing reads:\n{}", t.render()));

    // (c) Insert-size profile: disagreement rate by |tlen| deviation from
    // the sample mean, in sd units.
    // Restrict to plausible fragment lengths so outliers (improper
    // pairs) do not inflate the standard deviation.
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
    let mut buckets = [(0usize, 0usize); 5]; // (discordant, total) by z bucket
    for r in world.serial_aligned.iter().filter(|r| r.tlen > 0 && r.tlen < 2000) {
        let z = ((r.tlen as f64 - mean).abs() / sd) as usize;
        let b = z.min(4);
        buckets[b].1 += 1;
        if discordant_names.contains(r.name.as_str()) {
            buckets[b].0 += 1;
        }
    }
    out.push_str("(c) disagreement rate by insert-size deviation (z-score bucket):\n");
    let mut t = Table::new(&["|z|", "pairs", "disagreeing", "rate (%)"]);
    for (z, (d, n)) in buckets.iter().enumerate() {
        let label = if z == 4 { "4+".into() } else { format!("{z}-{}", z + 1) };
        t.row(&[
            label,
            n.to_string(),
            d.to_string(),
            format!("{:.2}", 100.0 * *d as f64 / (*n).max(1) as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "Paper shape: disagreements cluster in repetitive regions and at low mapq.\n\
         At this scale, random tie-breaks in duplicated regions dominate (insert-\n\
         size independent); the paper's insert-edge effect needs batch statistics\n\
         to differ more, i.e. paper-scale data volumes.\n",
    );
    out
}

/// Tables 9/10: variant-quality metrics for Intersection / Serial-only /
/// Hybrid-only sets, plus GIAB-style precision/sensitivity.
pub fn table9_10(world: &ExperimentWorld) -> String {
    // Hybrid pipeline: parallel through MarkDuplicates, serial HC.
    let (_, hybrid_variants) = serial_tail_from_markdup(
        &world.references,
        &world.chrom_names,
        world.parallel.records.clone(),
    );
    let d = diff_variants(&world.serial_variants, &hybrid_variants);
    let (inter, serial_only, hybrid_only) =
        d.metric_rows(&world.serial_variants, &hybrid_variants);

    let mut t = Table::new(&[
        "Set", "N", "QUAL", "MQ", "DP", "FS", "AB", "Ti/Tv", "Het/Hom",
    ]);
    for (name, m) in [
        ("Intersection", inter),
        ("Serial only", serial_only),
        ("Hybrid only", hybrid_only),
    ] {
        t.row(&[
            name.into(),
            m.n.to_string(),
            format!("{:.1}", m.mean_qual),
            format!("{:.1}", m.mean_mq),
            format!("{:.1}", m.mean_dp),
            format!("{:.2}", m.mean_fs),
            format!("{:.2}", m.mean_ab),
            format!("{:.2}", m.ti_tv),
            format!("{:.2}", m.het_hom),
        ]);
    }

    // Precision/sensitivity against the spiked truth set (the paper's
    // Genome-in-a-Bottle comparison).
    let truth = world.truth_keys();
    let ps_serial = precision_sensitivity(&world.serial_variants, &truth);
    let ps_hybrid = precision_sensitivity(&hybrid_variants, &truth);
    let mut t2 = Table::new(&["Pipeline", "Precision", "Sensitivity", "TP", "FP", "FN"]);
    for (name, ps) in [("Serial", ps_serial), ("Hybrid", ps_hybrid)] {
        t2.row(&[
            name.into(),
            format!("{:.4}", ps.precision),
            format!("{:.4}", ps.sensitivity),
            ps.true_positives.to_string(),
            ps.false_positives.to_string(),
            ps.false_negatives.to_string(),
        ]);
    }
    let _ = variant_set_metrics(&world.serial_variants); // keep linkage obvious
    format!(
        "== Tables 9/10: variant-set quality metrics (real mini-scale run) ==\n{}\n\
         Truth-set comparison (GIAB analogue):\n{}\
         Paper shape: the discordant sets are small and lower quality than the\n\
         intersection; serial and hybrid score identically against the truth set.\n",
        t.render(),
        t2.render()
    )
}

/// Fig 6a: data transformation vs external-program time per round, from
/// the real platform run's counters.
pub fn fig6a(world: &ExperimentWorld) -> String {
    let mut out =
        String::from("== Fig 6a: data-transformation share of wrapper work (real run) ==\n");
    let mut t = Table::new(&["Round", "Transform ms", "External ms", "Transform share"]);
    let mut prev_t = 0u64;
    let mut prev_e = 0u64;
    for r in &world.parallel.rounds {
        let get = |key: &str, snap: &[(String, u64)]| {
            snap.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or(0)
        };
        let cum_t = get("wrapper.transform.nanos", &r.counters);
        let cum_e = get("wrapper.external.nanos", &r.counters);
        let dt = cum_t.saturating_sub(prev_t) as f64 / 1e6;
        let de = cum_e.saturating_sub(prev_e) as f64 / 1e6;
        prev_t = cum_t;
        prev_e = cum_e;
        let share = dt / (dt + de).max(1e-9);
        t.row(&[
            r.name.clone(),
            format!("{dt:.0}"),
            format!("{de:.0}"),
            format!("{:.0}%", 100.0 * share),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("The copy-and-convert overhead between framework records and external\nprogram bytes is unavoidable for wrapped programs (paper: 12-49%).\n");
    out
}

/// Real-engine counterparts of Fig 5b/5c: actual sort-spill-merge
/// counters under different sort-buffer sizes, and the measured thread
/// scaling of our aligner (the wrapped "Bwa").
pub fn substrate(world: &ExperimentWorld) -> String {
    use gesall_core::rounds::{Round3MarkDupMapper, Round3MarkDupReducer};
    use gesall_mapreduce::counters::{keys, Counters};
    use gesall_mapreduce::runtime::{InputSplit, JobConfig};
    use gesall_mapreduce::task::HashPartitioner;

    let mut out = String::from("== Substrate measurements (real engine / real aligner) ==\n");

    // -- Fig 5b counterpart: sort-buffer size vs spills/merges ----------
    let header = world.aligner.index().sam_header();
    // Name-grouped partitions (pairs adjacent), as round 3 requires.
    let mut by_name: std::collections::BTreeMap<&str, Vec<&gesall_formats::sam::SamRecord>> =
        std::collections::BTreeMap::new();
    for r in &world.parallel.records {
        if r.flags.is_paired() && r.flags.is_primary() {
            by_name.entry(r.name.as_str()).or_default().push(r);
        }
    }
    let grouped: Vec<gesall_formats::sam::SamRecord> = by_name
        .into_values()
        .flatten()
        .cloned()
        .collect();
    let parts: Vec<Vec<gesall_formats::sam::SamRecord>> = grouped
        .chunks(grouped.len().div_ceil(4).max(2))
        .map(|c| c.to_vec())
        .collect();
    let mut t = Table::new(&[
        "io.sort buffer",
        "map spills",
        "map merge segments",
        "shuffle records",
        "reduce merge passes",
    ]);
    for (label, sort_bytes) in [("256 KiB (tiny)", 256 * 1024usize), ("16 MiB (ample)", 16 << 20)]
    {
        let engine = gesall_mapreduce::MapReduceEngine::local(4);
        let counters = Counters::new();
        let splits: Vec<InputSplit<String, gesall_formats::SharedBytes>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let bytes =
                    gesall_formats::SharedBytes::from_vec(gesall_formats::bam::write_bam(&header, p));
                InputSplit::new(format!("p{i}"), vec![(format!("p{i}"), bytes)])
            })
            .collect();
        let res = engine.run_job(
            JobConfig {
                n_reducers: 4,
                io_sort_bytes: sort_bytes,
                merge_factor: 4,
                ..JobConfig::default()
            },
            &Round3MarkDupMapper {
                bloom: None,
                counters: counters.clone(),
            },
            &Round3MarkDupReducer {
                seed: 1,
                counters: counters.clone(),
            },
            &HashPartitioner,
            splits,
        )
        .expect("markdup round runs without fault injection");
        t.row(&[
            label.into(),
            res.counters.get(keys::MAP_SPILLS).to_string(),
            res.counters.get(keys::MAP_MERGE_SEGMENTS).to_string(),
            res.counters.get(keys::SHUFFLE_RECORDS).to_string(),
            res.counters.get(keys::REDUCE_MERGE_PASSES).to_string(),
        ]);
    }
    out.push_str("Fig 5b counterpart — MarkDup_reg round on the real engine:\n");
    out.push_str(&t.render());
    out.push_str("A starved sort buffer multiplies spills and forces the map-side merge;\nan ample one spills once — the mechanism behind Fig 5b's breakdown.\n\n");

    // -- Fig 5c counterpart: measured aligner thread scaling -------------
    let sample: Vec<gesall_formats::fastq::ReadPair> =
        world.pairs.iter().take(4000).cloned().collect();
    let mut t = Table::new(&["threads", "wall (s)", "speedup"]);
    let mut base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let t0 = std::time::Instant::now();
        let r = world.aligner.align_pairs_threaded(&sample, threads);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(&r);
        if threads == 1 {
            base = secs;
        }
        t.row(&[
            threads.to_string(),
            format!("{secs:.2}"),
            format!("{:.2}", base / secs),
        ]);
    }
    out.push_str("Fig 5c counterpart — measured thread scaling of the wrapped aligner\n(batch barrier + serial pairing phase bound it, as with real Bwa):\n");
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn world() -> &'static ExperimentWorld {
        static WORLD: OnceLock<ExperimentWorld> = OnceLock::new();
        WORLD.get_or_init(|| ExperimentWorld::run(Scale::tiny()))
    }

    #[test]
    fn table8_reports_small_discordance() {
        let report = table8(world());
        assert!(report.contains("Bwa"));
        assert!(report.contains("Mark Duplicates"));
        assert!(report.contains("Haplotype Caller"));
    }

    #[test]
    fn fig11_reports_enrichment() {
        let report = fig11(world());
        assert!(report.contains("hard-to-map"));
        assert!(report.contains("mapq quadrants"));
        assert!(report.contains("insert-size"));
    }

    #[test]
    fn table9_10_reports_metrics() {
        let report = table9_10(world());
        assert!(report.contains("Intersection"));
        assert!(report.contains("Precision"));
    }

    #[test]
    fn substrate_reports_spills_and_scaling() {
        let report = substrate(world());
        assert!(report.contains("map spills"));
        assert!(report.contains("speedup"));
    }

    #[test]
    fn fig6a_reports_transform_share() {
        let report = fig6a(world());
        assert!(report.contains("round1-align"));
        assert!(report.contains("Transform share"));
    }
}
