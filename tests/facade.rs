//! Workspace-level integration tests through the `gesall` facade crate:
//! the public API a downstream user sees, exercised end to end.

use gesall::aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall::datagen::donor::DonorConfig;
use gesall::datagen::reads::ReadSimConfig;
use gesall::datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall::dfs::{Dfs, DfsConfig};
use gesall::mapreduce::{ClusterResources, MapReduceEngine};
use gesall::platform::pipeline::serial_pipeline;
use gesall::platform::{GesallPlatform, PlatformConfig};

fn world(n_pairs: usize) -> (ReferenceGenome, DonorGenome, Vec<gesall::formats::fastq::ReadPair>, Aligner) {
    let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
    let donor = DonorGenome::generate(&genome, &DonorConfig::default());
    let (pairs, _) = ReadSimulator::new(
        &genome,
        &donor,
        ReadSimConfig {
            n_pairs,
            ..ReadSimConfig::default()
        },
    )
    .simulate();
    let chroms: Vec<(String, Vec<u8>)> = genome
        .chromosomes
        .iter()
        .map(|c| (c.name.clone(), c.seq.clone()))
        .collect();
    let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
    (genome, donor, pairs, aligner)
}

#[test]
fn facade_quickstart_flow() {
    let (_, _, pairs, aligner) = world(800);
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 3,
        block_size: 128 * 1024,
        replication: 1,
        ..DfsConfig::default()
    });
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 8192));
    let platform = GesallPlatform::new(dfs, engine, PlatformConfig::default());
    let out = platform.run_pipeline(&aligner, pairs.clone()).unwrap();
    assert_eq!(out.records.len(), pairs.len() * 2);
    assert_eq!(out.rounds.len(), 6);
}

#[test]
fn facade_serial_baseline_flow() {
    let (genome, _, pairs, aligner) = world(600);
    let references: Vec<Vec<u8>> = genome.chromosomes.iter().map(|c| c.seq.clone()).collect();
    let names: Vec<String> = genome.chromosomes.iter().map(|c| c.name.clone()).collect();
    let cfg = PlatformConfig::default();
    let (records, _variants) = serial_pipeline(&aligner, &references, &names, &pairs, cfg.seed);
    assert_eq!(records.len(), pairs.len() * 2);
    assert!(gesall::tools::sort_sam::is_coordinate_sorted(&records));
    // Read groups stamped by the pipeline.
    assert!(records.iter().all(|r| r.read_group == "rg1"));
}

#[test]
fn facade_sim_models_available() {
    use gesall::sim::{ClusterSpec, WorkloadSpec};
    let w = WorkloadSpec::na12878();
    let t = gesall::sim::mr_model::simulate_mr_job(
        &ClusterSpec::cluster_b(),
        &gesall::sim::mr_model::markdup_job(&w, true, 64, 16, 16, 0.05),
    );
    assert!(t.wall_s > 0.0);
    let rows = gesall::sim::pipeline_model::table2_rows(&ClusterSpec::single_server(), &w);
    assert_eq!(rows.len(), 11);
}

#[test]
fn facade_formats_interop() {
    use gesall::formats::bam;
    use gesall::formats::sam::header::ReferenceSeq;
    use gesall::formats::sam::{text, SamHeader, SamRecord};
    let header = SamHeader::new(vec![ReferenceSeq {
        name: "chrT".into(),
        len: 500,
    }]);
    let rec = SamRecord::unmapped("x", b"ACGT".to_vec(), vec![30; 4]);
    // text → records → bam → records round trip.
    let textual = text::to_text(&header, std::slice::from_ref(&rec));
    let (h2, recs) = text::from_text(&textual).unwrap();
    let bytes = bam::write_bam(&h2, &recs);
    let (h3, r3) = bam::read_bam(&bytes).unwrap();
    assert_eq!(h3, header);
    assert_eq!(r3, vec![rec]);
}
