//! The DAG executor's counter names.
//!
//! The paper executes the GATK best-practices workflow as a fixed
//! sequence of MapReduce rounds. The stage table (`stages.rs`) declares
//! that sequence, content keys and all, and
//! [`GesallPlatform::run_pipeline_dag`](crate::pipeline::GesallPlatform::run_pipeline_dag)
//! walks it; what the walk counts is named here.

/// Well-known counter names for the DAG executor. Bumped on both the
/// run's [`Counters`](gesall_mapreduce::counters::Counters) bag and the
/// platform DFS's metrics registry (the latter survives across runs, so
/// tests and the bench harness can assert warm-rerun behaviour).
pub mod keys {
    /// Stages whose body actually executed this run.
    pub const STAGES_RUN: &str = "dag.stages.run";
    /// Stages served from the content-addressed intermediate store.
    pub const STAGES_CACHE_HIT: &str = "dag.stages.cache_hit";
    /// BAM partitions encoded by a job's committed attempts: one per
    /// mapper of rounds 2 and 4b, one per reducer of rounds 3 and 4.
    pub const PARTS_ENCODED: &str = "dag.parts.encoded";
    /// Final-stage partitions decoded into `PipelineOutput::records`.
    pub const PARTS_DECODED: &str = "dag.parts.decoded";
}

#[cfg(test)]
mod tests {
    use crate::pipeline::PlatformConfig;
    use crate::stages::tests::{aligner, config_shapes};
    use crate::stages::{pipeline_stages, stage_keys};
    use crate::PlatformError;
    use gesall_aligner::Aligner;
    use gesall_dfs::checksum::xxh64;
    use std::collections::BTreeMap;

    /// `config`'s stage keys as a name → key map, the form the pins
    /// render.
    fn keys_of(
        config: &PlatformConfig,
        aligner: &Aligner,
        root: u64,
        invalidate: &[(String, u64)],
    ) -> crate::error::Result<BTreeMap<String, u64>> {
        let rows = pipeline_stages(config, aligner);
        let keys = stage_keys(&rows, root, invalidate)?;
        Ok(rows.iter().map(|r| r.name.to_string()).zip(keys).collect())
    }

    #[test]
    fn invalidating_a_stage_the_graph_lacks_is_a_typed_error() {
        let aligner = aligner();
        let base = PlatformConfig::default();
        let unknown = |ghost: &str| {
            let inv = [("round2-clean-fixmate".to_string(), 7), (ghost.to_string(), 7)];
            match keys_of(&base, &aligner, 1, &inv) {
                Err(PlatformError::Invariant(m)) => m,
                other => panic!("{ghost}: {other:?}"),
            }
        };
        assert_eq!(unknown("round4-srot"), "invalidation names unknown stage round4-srot");
        // A stage the configuration leaves out is as unknown as a typo.
        let inv = [("round4b-print-reads".to_string(), 1)];
        let recal = PlatformConfig { recalibrate: true, ..PlatformConfig::default() };
        assert!(keys_of(&recal, &aligner, 1, &inv).is_ok());
        assert_eq!(
            unknown("round4b-print-reads"),
            "invalidation names unknown stage round4b-print-reads"
        );
    }

    #[test]
    fn pipeline_dag_reflects_config_branches() {
        let aligner = aligner();
        let parents = |config: &PlatformConfig| -> Vec<(&'static str, Vec<String>)> {
            let rows = pipeline_stages(config, &aligner);
            rows.iter().map(|r| (r.name, r.parent_names(&rows))).collect()
        };
        let base = PlatformConfig::default(); // markdup_opt on, recal off
        let d = parents(&base);
        let names: Vec<&str> = d.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "round1-align",
                "round2-clean-fixmate",
                "round2b-bloom",
                "round3-markdup",
                "round4-sort",
                "round5-haplotypecaller"
            ]
        );
        let of = |d: &[(&str, Vec<String>)], stage: &str| d.iter().find(|(n, _)| *n == stage).map(|(_, p)| p.clone());
        assert_eq!(of(&d, "round3-markdup").unwrap(), vec!["round2-clean-fixmate", "round2b-bloom"]);
        let recal = PlatformConfig {
            recalibrate: true,
            markdup_opt: false,
            ..PlatformConfig::default()
        };
        let d = parents(&recal);
        assert!(of(&d, "round2b-bloom").is_none());
        assert_eq!(of(&d, "round4b-print-reads").unwrap(), vec!["round4-sort", "round4a-recal-table"]);
        assert_eq!(of(&d, "round5-haplotypecaller").unwrap(), vec!["round4b-print-reads"]);
        // Changing a setting one stage reads moves only that subgraph.
        let k_base = keys_of(&base, &aligner, 9, &[]).unwrap();
        let reseeded = PlatformConfig {
            seed: 42,
            ..PlatformConfig::default()
        };
        let k_seed = keys_of(&reseeded, &aligner, 9, &[]).unwrap();
        assert_eq!(k_base["round1-align"], k_seed["round1-align"]);
        assert_eq!(k_base["round2b-bloom"], k_seed["round2b-bloom"]);
        assert_ne!(k_base["round3-markdup"], k_seed["round3-markdup"]);
        assert_ne!(k_base["round4-sort"], k_seed["round4-sort"]);
    }

    /// `xxh64` of the rendered name → key map of each of
    /// [`config_shapes`] under `PINNED_ROOT`. Re-pinned when each row's
    /// fingerprint became the `Debug` text of what its body reads: the
    /// aligner's configuration joined round 1's key, `RecalConfig` rounds
    /// 4½a and 4½b's, and `GenotyperConfig` the UnifiedGenotyper row's —
    /// with those fingerprints substituted by the old hand-built ones,
    /// the table gives the earlier digests. Re-pinned again when round 2
    /// went map-only: its body no longer reads `n_reducers`, so
    /// `CleanFixMate`'s fingerprint lost its `reducers` field, and every
    /// key below round 1 chains through it. Re-pinned when the aligner's
    /// search internals, pairing's own `min_score` and the callers'
    /// pileup tiles became constants: round 1's and round 5's
    /// fingerprints lost those fields at unchanged values, and written
    /// back into the text they give the earlier digests. A renamed stage,
    /// a reordered parent list or a drifted fingerprint cold-starts every
    /// tenant's cache; it has to fail here first.
    const PINNED_ROOT: u64 = 0x6765_7361_6c6c;
    const PINNED_STAGE_KEY_DIGESTS: [u64; 12] = [
        14536559268252806469,
        5693517734781502154,
        433565587599675909,
        13136413297729253491,
        15973540744224766829,
        2407010505645071247,
        7541262967082638301,
        3996647222416542599,
        4982011812852876958,
        18300632200577731752,
        1531884876791743928,
        14016406992368219190,
    ];

    #[test]
    fn pipeline_stage_keys_are_pinned() {
        let aligner = aligner();
        let got: Vec<u64> = config_shapes()
            .iter()
            .map(|c| {
                let keys = keys_of(c, &aligner, PINNED_ROOT, &[]).unwrap();
                xxh64(format!("{keys:?}").as_bytes())
            })
            .collect();
        assert_eq!(got, PINNED_STAGE_KEY_DIGESTS);
    }

    /// For each of [`config_shapes`], `xxh64` of the rendered name → key
    /// maps under `PINNED_ROOT` with each of its stages in turn
    /// invalidated with salt 7, one map per line in table order. Taken
    /// on the explicit graph the table was once projected into, so the
    /// forward pass salts exactly a stage and its descendants as that
    /// graph did.
    const PINNED_SALTED_KEY_DIGESTS: [u64; 12] = [
        18443255851897630942,
        2456266661839256923,
        17102601599138404802,
        16886398306524843239,
        4384275990905660652,
        3711160439641944236,
        5054291564061063949,
        13063289494452097856,
        6304364008299597426,
        14192480568287726462,
        12546496307939387229,
        8764665215832449438,
    ];

    #[test]
    fn salted_stage_keys_are_pinned() {
        let aligner = aligner();
        let got: Vec<u64> = config_shapes()
            .iter()
            .map(|c| {
                let mut text = String::new();
                for row in pipeline_stages(c, &aligner) {
                    let keys = keys_of(c, &aligner, PINNED_ROOT, &[(row.name.to_string(), 7)]).unwrap();
                    text.push_str(&format!("{keys:?}\n"));
                }
                xxh64(text.as_bytes())
            })
            .collect();
        assert_eq!(got, PINNED_SALTED_KEY_DIGESTS);
    }
}
