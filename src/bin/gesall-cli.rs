//! `gesall-cli` — the platform as a command-line tool.
//!
//! ```text
//! gesall-cli generate  --out-dir DIR [--pairs N] [--chrom-len BP,BP] [--seed S]
//! gesall-cli align     --reference REF.fa --r1 R1.fastq --r2 R2.fastq --out OUT.bam
//! gesall-cli pipeline  --reference REF.fa --r1 R1.fastq --r2 R2.fastq --out-dir DIR
//!                      [--partitions N] [--nodes N] [--caller hc|ug] [--recalibrate]
//!                      [--trace] [--dag]
//!                      (`run` is an alias for `pipeline`)
//! gesall-cli call      --reference REF.fa --bam IN.bam --out OUT.vcf [--caller hc|ug]
//! gesall-cli diff      --serial A.bam --parallel B.bam
//! gesall-cli optimize  [--cluster a|b] [--objective wall|efficiency]
//! gesall-cli serve     [--tenants N] [--jobs N] [--pairs N] [--nodes N]
//!                      [--slots N] [--seed S]
//! ```
//!
//! Files use the workspace's own formats: FASTA references, FASTQ reads,
//! the BAM-like chunked container, and VCF-like variant text.

use gesall::aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall::datagen::donor::DonorConfig;
use gesall::datagen::reads::ReadSimConfig;
use gesall::datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall::dfs::{Dfs, DfsConfig};
use gesall::formats::{bam, fasta, fastq, vcf};
use gesall::mapreduce::{ClusterResources, MapReduceEngine};
use gesall::platform::diagnosis::diff_alignments;
use gesall::platform::pipeline::CallerChoice;
use gesall::platform::{GesallPlatform, PlatformConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage("missing subcommand");
    };
    let opts = parse_opts(rest);
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "align" => cmd_align(&opts),
        "pipeline" | "run" => cmd_pipeline(&opts),
        "call" => cmd_call(&opts),
        "diff" => cmd_diff(&opts),
        "optimize" => cmd_optimize(&opts),
        "serve" => cmd_serve(&opts),
        other => usage(&format!("unknown subcommand {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: gesall-cli <generate|align|pipeline|call|diff|optimize|serve> --flag value ...\n\
         see the module docs (src/bin/gesall-cli.rs) for flags"
    );
    exit(2);
}

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            usage(&format!("expected --flag, found {a:?}"));
        };
        // Boolean flags take no value.
        if key == "recalibrate" || key == "trace" || key == "dag" {
            opts.insert(key.to_string(), "true".into());
            continue;
        }
        let Some(v) = it.next() else {
            usage(&format!("--{key} needs a value"));
        };
        opts.insert(key.to_string(), v.clone());
    }
    opts
}

fn need<'a>(opts: &'a Opts, key: &str) -> &'a str {
    opts.get(key)
        .unwrap_or_else(|| usage(&format!("--{key} is required")))
}

fn get_num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> T {
    opts.get(key)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("--{key}: bad number {v:?}")))
        })
        .unwrap_or(default)
}

type AnyError = Box<dyn std::error::Error>;

/// Loaded reference: (name, sequence) pairs plus the sequences and
/// names split out for callers that want just one side.
type ReferenceData = (Vec<(String, Vec<u8>)>, Vec<Vec<u8>>, Vec<String>);

fn load_reference(path: &str) -> Result<ReferenceData, AnyError> {
    let text = std::fs::read_to_string(path)?;
    let recs = fasta::from_text(&text)?;
    let chroms: Vec<(String, Vec<u8>)> =
        recs.into_iter().map(|r| (r.name, r.seq)).collect();
    let seqs: Vec<Vec<u8>> = chroms.iter().map(|(_, s)| s.clone()).collect();
    let names: Vec<String> = chroms.iter().map(|(n, _)| n.clone()).collect();
    Ok((chroms, seqs, names))
}

fn load_pairs(r1: &str, r2: &str) -> Result<Vec<fastq::ReadPair>, AnyError> {
    let r1s = fastq::from_bytes(&std::fs::read(r1)?)?;
    let r2s = fastq::from_bytes(&std::fs::read(r2)?)?;
    Ok(fastq::interleave(r1s, r2s)?)
}

fn caller_choice(opts: &Opts) -> CallerChoice {
    match opts.get("caller").map(String::as_str) {
        None | Some("hc") => CallerChoice::HaplotypeCaller,
        Some("ug") => CallerChoice::UnifiedGenotyper,
        Some(other) => usage(&format!("--caller must be hc or ug, found {other:?}")),
    }
}

fn cmd_generate(opts: &Opts) -> Result<(), AnyError> {
    let out_dir = PathBuf::from(need(opts, "out-dir"));
    std::fs::create_dir_all(&out_dir)?;
    let chrom_lens: Vec<usize> = opts
        .get("chrom-len")
        .map(String::as_str)
        .unwrap_or("500000,300000")
        .split(',')
        .map(|s| s.parse().unwrap_or_else(|_| usage("--chrom-len: bad list")))
        .collect();
    let seed = get_num(opts, "seed", 42u64);
    let n_pairs = get_num(opts, "pairs", 20_000usize);

    let genome = ReferenceGenome::generate(&GenomeConfig {
        chromosome_lengths: chrom_lens,
        seed,
        ..GenomeConfig::default()
    });
    let donor = DonorGenome::generate(&genome, &DonorConfig { seed: seed ^ 7, ..DonorConfig::default() });
    let (pairs, _) = ReadSimulator::new(
        &genome,
        &donor,
        ReadSimConfig {
            n_pairs,
            seed: seed ^ 99,
            ..ReadSimConfig::default()
        },
    )
    .simulate();

    // reference.fa
    let fa: Vec<fasta::FastaRecord> = genome
        .chromosomes
        .iter()
        .map(|c| fasta::FastaRecord {
            name: c.name.clone(),
            seq: c.seq.clone(),
        })
        .collect();
    std::fs::write(out_dir.join("reference.fa"), fasta::to_text(&fa))?;
    // reads_1/2.fastq
    let r1s: Vec<fastq::FastqRecord> = pairs.iter().map(|p| p.r1.clone()).collect();
    let r2s: Vec<fastq::FastqRecord> = pairs.iter().map(|p| p.r2.clone()).collect();
    std::fs::write(out_dir.join("reads_1.fastq"), fastq::to_bytes(&r1s))?;
    std::fs::write(out_dir.join("reads_2.fastq"), fastq::to_bytes(&r2s))?;
    // truth.vcf
    let truth: Vec<vcf::VariantRecord> = donor
        .truth
        .iter()
        .map(|t| vcf::VariantRecord {
            chrom: t.chrom.clone(),
            pos: t.pos,
            ref_allele: t.ref_allele.clone(),
            alt_allele: t.alt_allele.clone(),
            qual: 100.0,
            genotype: t.genotype,
            depth: 0,
            mapping_quality: 0.0,
            fisher_strand: 0.0,
            allele_balance: 0.0,
        })
        .collect();
    std::fs::write(out_dir.join("truth.vcf"), vcf::to_text(&truth))?;
    println!(
        "wrote {}: reference.fa ({} bp), reads_1/2.fastq ({} pairs), truth.vcf ({} variants)",
        out_dir.display(),
        genome.total_len(),
        pairs.len(),
        truth.len()
    );
    Ok(())
}

fn cmd_align(opts: &Opts) -> Result<(), AnyError> {
    let (chroms, _, _) = load_reference(need(opts, "reference"))?;
    let pairs = load_pairs(need(opts, "r1"), need(opts, "r2"))?;
    eprintln!("building index over {} chromosomes...", chroms.len());
    let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
    eprintln!("aligning {} pairs...", pairs.len());
    let records: Vec<_> = aligner
        .align_pairs(&pairs)
        .into_iter()
        .flat_map(|(a, b)| [a, b])
        .collect();
    let mapped = records.iter().filter(|r| r.is_mapped()).count();
    let bytes = bam::write_bam(&aligner.index().sam_header(), &records);
    let out = need(opts, "out");
    std::fs::write(out, &bytes)?;
    println!(
        "wrote {out}: {} records ({:.1}% mapped)",
        records.len(),
        100.0 * mapped as f64 / records.len().max(1) as f64
    );
    Ok(())
}

fn cmd_pipeline(opts: &Opts) -> Result<(), AnyError> {
    let (chroms, _, _) = load_reference(need(opts, "reference"))?;
    let pairs = load_pairs(need(opts, "r1"), need(opts, "r2"))?;
    let out_dir = PathBuf::from(need(opts, "out-dir"));
    std::fs::create_dir_all(&out_dir)?;
    let nodes = get_num(opts, "nodes", 4usize);
    let partitions = get_num(opts, "partitions", nodes);

    eprintln!("building index...");
    let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
    // --trace streams the full span log (pipeline → stage → job → wave →
    // task-attempt) to out_dir/trace.jsonl for offline analysis.
    let recorder = if opts.contains_key("trace") {
        let path = out_dir.join("trace.jsonl");
        eprintln!("tracing spans to {}", path.display());
        gesall::telemetry::Recorder::with_jsonl_sink(&path)?
    } else {
        gesall::telemetry::Recorder::disabled()
    };
    let platform = GesallPlatform::new(
        Dfs::new(DfsConfig {
            n_nodes: nodes,
            block_size: 4 * 1024 * 1024,
            replication: 1,
            ..DfsConfig::default()
        }),
        MapReduceEngine::new(ClusterResources::uniform(nodes, 2, 16 * 1024))
            .with_recorder(recorder),
        PlatformConfig {
            n_round1_partitions: partitions,
            n_reducers: partitions,
            caller: caller_choice(opts),
            recalibrate: opts.contains_key("recalibrate"),
            ..PlatformConfig::default()
        },
    );
    eprintln!("running the five-round pipeline on {} pairs...", pairs.len());
    let out = platform.run_pipeline(&aligner, pairs)?;
    let bam_path = out_dir.join("aligned.sorted.bam");
    std::fs::write(
        &bam_path,
        bam::write_bam(&aligner.index().sam_header(), &out.records),
    )?;
    let vcf_path = out_dir.join("variants.vcf");
    std::fs::write(&vcf_path, vcf::to_text(&out.variants))?;
    println!(
        "wrote {} ({} records) and {} ({} variants)",
        bam_path.display(),
        out.records.len(),
        vcf_path.display(),
        out.variants.len()
    );
    println!("\nPer-phase breakdown (ms, summed across tasks):");
    print!("{}", out.phase_table());
    // Kernel activity (DESIGN.md §13): proof the bit-parallel fast paths
    // ran, and how much of the extension load the band answered.
    let mut kernel_sums: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for r in &out.rounds {
        for (key, v) in &r.counters {
            if key.starts_with("kernel.") {
                *kernel_sums.entry(key.clone()).or_insert(0) += v;
            }
        }
    }
    let kernel_snapshot: Vec<(String, u64)> = kernel_sums.into_iter().collect();
    let k = gesall::telemetry::KernelStats::from_snapshot(&kernel_snapshot);
    if k != gesall::telemetry::KernelStats::default() {
        println!(
            "Kernels: {} occ words popcounted, {} seed searches answered, {} rows located; \
             {}/{} extensions exact, {} gapless and {} reused windows, no DP ({:.0}% exact); \
             banded SW {}/{} in-band ({:.0}% hit rate); {} candidates built; \
             {} radix passes, {} comparison fallbacks",
            k.occ_words_popcounted,
            k.seed_searches_answered,
            k.seed_rows_located,
            k.sw_exact_hits,
            k.sw_extensions(),
            k.sw_gapless_hits,
            k.sw_window_reuses,
            k.exact_hit_ratio() * 100.0,
            k.sw_banded_hits,
            k.sw_banded_hits + k.sw_full_fallbacks,
            k.banded_hit_ratio() * 100.0,
            k.candidates_built,
            k.sort_radix_passes,
            k.sort_comparison_fallbacks
        );
    }
    // --dag prints the stage-graph view of the same run: per-stage
    // cache disposition and the critical path through the DAG.
    if opts.contains_key("dag") {
        println!(
            "\nStage DAG ({} run, {} served from cache):",
            out.stages_run(),
            out.cache_hits()
        );
        print!("{}", out.dag_report());
    }
    Ok(())
}

fn cmd_call(opts: &Opts) -> Result<(), AnyError> {
    let (_, seqs, names) = load_reference(need(opts, "reference"))?;
    let (_, records) = bam::read_bam(&std::fs::read(need(opts, "bam"))?)?;
    let rv = gesall::tools::refview::RefView::new(&seqs);
    let variants = match caller_choice(opts) {
        CallerChoice::UnifiedGenotyper => gesall::tools::unified_genotyper::unified_genotyper(
            &records,
            &names,
            rv,
            &gesall::tools::unified_genotyper::GenotyperConfig::default(),
        ),
        CallerChoice::HaplotypeCaller => {
            let cfg = gesall::tools::haplotype_caller::HaplotypeCallerConfig::default();
            let mut vs = Vec::new();
            for (i, name) in names.iter().enumerate() {
                vs.extend(
                    gesall::tools::haplotype_caller::call_chromosome(
                        &records, i as i32, name, rv, &cfg,
                    )
                    .variants,
                );
            }
            vs
        }
    };
    let out = need(opts, "out");
    std::fs::write(out, vcf::to_text(&variants))?;
    println!("wrote {out}: {} variants", variants.len());
    Ok(())
}

fn cmd_optimize(opts: &Opts) -> Result<(), AnyError> {
    use gesall::sim::optimizer::{optimize, Objective};
    use gesall::sim::{ClusterSpec, WorkloadSpec};
    let cluster = match opts.get("cluster").map(String::as_str) {
        None | Some("a") => ClusterSpec::cluster_a(),
        Some("b") => ClusterSpec::cluster_b(),
        Some(other) => usage(&format!("--cluster must be a or b, found {other:?}")),
    };
    let objective = match opts.get("objective").map(String::as_str) {
        None | Some("wall") => Objective::WallClock,
        Some("efficiency") => Objective::Efficiency,
        Some(other) => usage(&format!("--objective must be wall or efficiency, found {other:?}")),
    };
    let (plan, cost) = optimize(&cluster, &WorkloadSpec::na12878(), objective);
    println!("best plan for {} under {objective:?}:", cluster.name);
    println!("  alignment : {} partitions, {} mappers x {} threads per node",
        plan.align_partitions, plan.align_mappers_per_node, plan.align_threads_per_mapper);
    println!("  shuffling : {} partitions, {} tasks/node, slowstart {}, MarkDup_{}",
        plan.shuffle_partitions, plan.tasks_per_node, plan.slowstart,
        if plan.markdup_opt { "opt" } else { "reg" });
    println!("  est. cost : align {:.1}h + clean {:.1}h + markdup {:.1}h + calling {:.1}h = {:.1}h (efficiency {:.2})",
        cost.align_s / 3600.0, cost.round2_s / 3600.0, cost.markdup_s / 3600.0,
        cost.round5_s / 3600.0, cost.total_s / 3600.0, cost.efficiency);
    Ok(())
}

fn cmd_diff(opts: &Opts) -> Result<(), AnyError> {
    let read = |p: &str| -> Result<Vec<_>, AnyError> {
        Ok(bam::read_bam(&std::fs::read(Path::new(p))?)?.1)
    };
    let serial = read(need(opts, "serial"))?;
    let parallel = read(need(opts, "parallel"))?;
    let d = diff_alignments(&serial, &parallel);
    println!("concordant read ends : {}", d.concordant);
    println!("discordant (D count) : {}", d.d_count());
    println!("missing              : {}", d.missing);
    println!(
        "weighted D count     : {:.2} ({:.4}% of reads)",
        d.weighted_d_count(),
        d.weighted_d_count_pct((serial.len() as u64).max(1))
    );
    println!(
        "low-quality fraction of discordants: {:.0}%",
        100.0 * d.low_quality_fraction()
    );
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), AnyError> {
    use gesall::jobsvc::{keys, JobOutput, JobService, JobSpec, JobSvcConfig, TenantConfig};
    use gesall::mapreduce::GesallError;
    use gesall::platform::pipeline::PipelineOutput;
    use std::sync::Arc;
    use std::time::Instant;

    let n_tenants = get_num(opts, "tenants", 3usize).max(1);
    let jobs_per_tenant = get_num(opts, "jobs", 2usize).max(1);
    let n_pairs = get_num(opts, "pairs", 400usize);
    let nodes = get_num(opts, "nodes", 3usize).max(1);
    let seed = get_num(opts, "seed", 42u64);

    eprintln!("generating a shared {n_pairs}-pair workload (seed {seed})...");
    let genome = ReferenceGenome::generate(&GenomeConfig {
        chromosome_lengths: vec![120_000, 80_000],
        seed,
        ..GenomeConfig::default()
    });
    let donor = DonorGenome::generate(
        &genome,
        &DonorConfig { seed: seed ^ 7, ..DonorConfig::default() },
    );
    let (pairs, _) = ReadSimulator::new(
        &genome,
        &donor,
        ReadSimConfig { n_pairs, seed: seed ^ 99, ..ReadSimConfig::default() },
    )
    .simulate();
    let chroms: Vec<(String, Vec<u8>)> = genome
        .chromosomes
        .iter()
        .map(|c| (c.name.clone(), c.seq.clone()))
        .collect();
    let aligner = Arc::new(Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default()));

    let platform = GesallPlatform::new(
        Dfs::new(DfsConfig {
            n_nodes: nodes,
            block_size: 1024 * 1024,
            replication: 1,
            ..DfsConfig::default()
        }),
        MapReduceEngine::new(ClusterResources::uniform(nodes, 2, 8 * 1024)),
        PlatformConfig::default(),
    );

    // Tenant 1 holds a double share so the capacity split is visibly
    // uneven; everyone else competes at share 1 and borrows tenant 1's
    // idle slots elastically.
    let tenants: Vec<TenantConfig> = (0..n_tenants)
        .map(|i| TenantConfig::new(format!("t{}", i + 1), if i == 0 { 2 } else { 1 }))
        .collect();
    let slots = get_num(opts, "slots", 0usize);
    let svc = JobService::new(
        platform,
        JobSvcConfig {
            tenants,
            total_slots: (slots > 0).then_some(slots),
        },
    );
    let total = svc.total_slots();
    // Each job asks for half the cluster: with several tenants live the
    // scheduler must shrink leases back toward fair share, and with one
    // tenant live its jobs borrow the idle half.
    let want = (total / 2).max(1);
    eprintln!(
        "serving {n_tenants} tenants x {jobs_per_tenant} pipeline jobs \
         ({total} slots, {want} requested per job)..."
    );

    let t0 = Instant::now();
    // Round-robin submission so tenants contend from the first dispatch.
    let mut handles = Vec::new();
    for round in 0..jobs_per_tenant {
        for i in 0..n_tenants {
            let aligner = Arc::clone(&aligner);
            let pairs = pairs.clone();
            let spec = JobSpec::new(format!("pipeline-{round}"), want, move |ctx| {
                let out = ctx
                    .platform()
                    .run_pipeline_with(&aligner, pairs, &ctx.run_options())
                    .map_err(|e| GesallError::Streaming(e.to_string()))?;
                Ok(Box::new(out) as JobOutput)
            });
            handles.push(svc.submit(&format!("t{}", i + 1), spec)?);
        }
    }
    let n_jobs = handles.len();
    // By value: each handle drops once its output is printed, and its
    // namespace is swept then rather than at the end of the run.
    for h in handles {
        h.wait()?;
        let out = h
            .take_output()
            .and_then(|b| b.downcast::<PipelineOutput>().ok())
            .ok_or("job finished without pipeline output")?;
        println!(
            "[{}] {}: {} records, {} variants",
            h.tenant(),
            h.id(),
            out.records.len(),
            out.variants.len()
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let m = svc.metrics();
    let ms = |nanos: Option<u64>| nanos.unwrap_or(0) as f64 / 1e6;
    println!("tenant   jobs  queue-wait p50   p90");
    for i in 0..n_tenants {
        let t = format!("t{}", i + 1);
        let done = m.counter(&format!("{}.{t}", keys::JOBS_COMPLETED)).get();
        let h = m.histogram(&format!("{}.{t}", keys::QUEUE_WAIT_NANOS));
        println!(
            "{t:<8} {done:<5} {:>9.2}ms {:>9.2}ms",
            ms(h.quantile(0.5)),
            ms(h.quantile(0.9))
        );
    }
    println!(
        "slots: granted {}, borrowed {}, reclaimed {}",
        m.counter(keys::SLOTS_GRANTED).get(),
        m.counter(keys::SLOTS_BORROWED).get(),
        m.counter(keys::SLOTS_RECLAIMED).get()
    );
    println!("{n_jobs} jobs across {n_tenants} tenants in {wall_s:.2}s");
    svc.shutdown();
    Ok(())
}
