//! Stage graphs: validation, order and content keys.
//!
//! The paper executes the GATK best-practices workflow as a fixed
//! sequence of MapReduce rounds; the stage table ([`crate::stages`])
//! declares that sequence and [`pipeline_dag`] projects it into the
//! explicit graph of this module. A graph's order is the one the executor
//! ([`GesallPlatform::run_pipeline_dag`](crate::pipeline::GesallPlatform::run_pipeline_dag))
//! walks: top to bottom, every stage declared below all of its parents.
//! This module
//!
//! * checks that order in one pass ([`DagSpec::topo_order`]), so a
//!   malformed graph is a typed error before any stage runs;
//! * keys every stage output by a **content hash** chained through its
//!   ancestry (stage code version, config fingerprint, parent keys,
//!   rooted at a hash of the external inputs), so a re-run with one
//!   changed stage re-executes exactly that stage and its descendants
//!   while every unchanged upstream output is served from the
//!   content-addressed store (`stage_data.rs`);
//! * lets the report attribute wall-clock to the critical path
//!   ([`gesall_telemetry::report::critical_path`]).

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use gesall_dfs::checksum::xxh64;
use gesall_formats::wire;

use crate::pipeline::PlatformConfig;
use crate::stages;
use gesall_aligner::Aligner;

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

/// One node of a stage graph: a named unit of pipeline work plus the
/// identity facts its cache key is derived from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    pub name: String,
    /// Upstream stages whose committed outputs this stage consumes.
    /// Order matters: it is part of the content key.
    pub parents: Vec<String>,
    /// Bumped whenever the stage's implementation changes observable
    /// output — the "stage code version" component of the content key.
    pub code_version: u32,
    /// Fingerprint of exactly the settings this stage's body reads (not
    /// the whole config, so e.g. changing the caller never invalidates
    /// alignment).
    pub config_fp: u64,
}

impl StageSpec {
    pub fn new(name: impl Into<String>, parents: &[&str]) -> StageSpec {
        StageSpec {
            name: name.into(),
            parents: parents.iter().map(|p| (*p).to_string()).collect(),
            code_version: 1,
            config_fp: 0,
        }
    }
}

/// A whole stage graph, in declaration order: every stage below all of
/// its parents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DagSpec {
    pub stages: Vec<StageSpec>,
}

/// Typed planning errors — every malformed graph is rejected before an
/// executor could hang on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The graph has no stages.
    Empty,
    /// Two stages share a name.
    Duplicate(String),
    /// A stage names a parent that is not declared above it: not in the
    /// graph at all, declared below it, or the stage itself. A cycle
    /// always has such an edge.
    UnknownParent { stage: String, parent: String },
    /// An invalidation names a stage that is not in the graph: a typo,
    /// or a stage the configuration leaves out. Salting nothing would
    /// serve the whole run from cache and report success.
    UnknownStage(String),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "stage graph is empty"),
            DagError::Duplicate(n) => write!(f, "duplicate stage name: {n}"),
            DagError::UnknownParent { stage, parent } => {
                write!(
                    f,
                    "stage {stage} names parent {parent}, not declared above it"
                )
            }
            DagError::UnknownStage(n) => write!(f, "invalidation names unknown stage {n}"),
        }
    }
}

impl std::error::Error for DagError {}

impl DagSpec {
    pub fn stage(&self, name: &str) -> Option<&StageSpec> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The stage names in execution order, which is declaration order:
    /// one pass that rejects an empty graph, a duplicate name, and a
    /// parent not declared above its stage — which covers every cycle
    /// and self-loop.
    pub fn topo_order(&self) -> Result<Vec<String>, DagError> {
        if self.stages.is_empty() {
            return Err(DagError::Empty);
        }
        let mut above: HashSet<&str> = HashSet::new();
        for s in &self.stages {
            if let Some(p) = s.parents.iter().find(|p| !above.contains(p.as_str())) {
                return Err(DagError::UnknownParent {
                    stage: s.name.clone(),
                    parent: p.clone(),
                });
            }
            if !above.insert(s.name.as_str()) {
                return Err(DagError::Duplicate(s.name.clone()));
            }
        }
        Ok(self.stages.iter().map(|s| s.name.clone()).collect())
    }

    /// Content keys for every stage: `xxh64` over (stage name, code
    /// version, config fingerprint, the root input key for parentless
    /// stages, and the parent keys in declared order). An entry in
    /// `invalidate` salts that stage's key — its descendants' keys shift
    /// automatically through the parent-key chain, so "invalidate one
    /// stage" re-executes exactly that stage and its descendants. An
    /// entry naming no stage of the graph is [`DagError::UnknownStage`].
    pub fn stage_keys(
        &self,
        root_key: u64,
        invalidate: &[(String, u64)],
    ) -> Result<BTreeMap<String, u64>, DagError> {
        self.topo_order()?;
        if let Some((ghost, _)) = invalidate.iter().find(|(n, _)| self.stage(n).is_none()) {
            return Err(DagError::UnknownStage(ghost.clone()));
        }
        let mut keys: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.stages {
            let mut buf = Vec::new();
            wire::put_str(&mut buf, &s.name);
            wire::put_u32(&mut buf, s.code_version);
            wire::put_u64(&mut buf, s.config_fp);
            if s.parents.is_empty() {
                wire::put_u64(&mut buf, root_key);
            }
            for p in &s.parents {
                wire::put_u64(&mut buf, keys[p]);
            }
            if let Some((_, salt)) = invalidate.iter().find(|(n, _)| *n == s.name) {
                wire::put_u64(&mut buf, *salt);
            }
            keys.insert(s.name.clone(), xxh64(&buf));
        }
        Ok(keys)
    }
}

/// The *executed* pipeline graph for `config` and `aligner` — the specs
/// of the stage table ([`crate::stages`]) that
/// [`GesallPlatform::run_pipeline_dag`](crate::pipeline::GesallPlatform::run_pipeline_dag)
/// walks, in table order. It reflects the real dataflow: the bloom build
/// and the recalibration-table build are side branches that rejoin, which
/// is what lets them be cached independently.
pub fn pipeline_dag(config: &PlatformConfig, aligner: &Aligner) -> DagSpec {
    stages::graph(&stages::pipeline_stages(config, aligner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::tests::{aligner, config_shapes};
    use proptest::prelude::*;

    fn spec(edges: &[(&str, &[&str])]) -> DagSpec {
        DagSpec {
            stages: edges
                .iter()
                .map(|(n, ps)| StageSpec::new(*n, ps))
                .collect(),
        }
    }

    #[test]
    fn topo_order_is_deterministic_and_respects_edges() {
        let d = spec(&[
            ("a", &[]),
            ("b", &["a"]),
            ("c", &["a"]),
            ("d", &["b", "c"]),
        ]);
        assert_eq!(d.topo_order().unwrap(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn malformed_graphs_are_typed_errors() {
        assert_eq!(DagSpec::default().topo_order(), Err(DagError::Empty));
        assert_eq!(
            spec(&[("a", &[]), ("a", &[])]).topo_order(),
            Err(DagError::Duplicate("a".into()))
        );
        assert_eq!(
            spec(&[("a", &["ghost"])]).topo_order(),
            Err(DagError::UnknownParent {
                stage: "a".into(),
                parent: "ghost".into()
            })
        );
        // A parent declared below its stage is as unknown as a missing
        // one, so a cycle is reported, not spun on — the self-loop too.
        let unknown = |stage: &str, parent: &str| {
            Err(DagError::UnknownParent {
                stage: stage.into(),
                parent: parent.into(),
            })
        };
        assert_eq!(
            spec(&[("a", &[]), ("c", &["b"]), ("b", &["a"])]).topo_order(),
            unknown("c", "b")
        );
        assert_eq!(
            spec(&[("a", &["b"]), ("b", &["a"]), ("c", &[])]).topo_order(),
            unknown("a", "b")
        );
        assert_eq!(spec(&[("a", &["a"])]).topo_order(), unknown("a", "a"));
    }

    #[test]
    fn stage_keys_chain_through_ancestry() {
        let d = spec(&[("a", &[]), ("b", &["a"]), ("c", &["b"])]);
        let k1 = d.stage_keys(1, &[]).unwrap();
        // Different root input: every key shifts.
        let k2 = d.stage_keys(2, &[]).unwrap();
        for n in ["a", "b", "c"] {
            assert_ne!(k1[n], k2[n], "{n} key must depend on the root input");
        }
        // Invalidating b shifts b and its descendant c, but not a.
        let k3 = d.stage_keys(1, &[("b".into(), 7)]).unwrap();
        assert_eq!(k1["a"], k3["a"]);
        assert_ne!(k1["b"], k3["b"]);
        assert_ne!(k1["c"], k3["c"]);
        // Same inputs: keys are a pure function.
        assert_eq!(k1, d.stage_keys(1, &[]).unwrap());
    }

    #[test]
    fn invalidating_a_stage_the_graph_lacks_is_a_typed_error() {
        let aligner = aligner();
        let d = spec(&[("a", &[]), ("b", &["a"])]);
        assert_eq!(
            d.stage_keys(1, &[("b".into(), 7), ("bb".into(), 7)]),
            Err(DagError::UnknownStage("bb".into()))
        );
        // A stage the configuration leaves out is as unknown as a typo.
        let no_recal = pipeline_dag(&PlatformConfig::default(), &aligner);
        let inv = [("round4b-print-reads".to_string(), 1)];
        assert!(pipeline_dag(&PlatformConfig { recalibrate: true, ..PlatformConfig::default() }, &aligner)
            .stage_keys(1, &inv)
            .is_ok());
        assert_eq!(
            no_recal.stage_keys(1, &inv),
            Err(DagError::UnknownStage("round4b-print-reads".into()))
        );
    }

    #[test]
    fn pipeline_dag_reflects_config_branches() {
        let aligner = aligner();
        let base = PlatformConfig::default(); // markdup_opt on, recal off
        let d = pipeline_dag(&base, &aligner);
        d.topo_order().unwrap();
        let names: Vec<&str> = d.stages.iter().map(|s| s.name.as_str()).collect();
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
        assert_eq!(
            d.stage("round3-markdup").unwrap().parents,
            vec!["round2-clean-fixmate", "round2b-bloom"]
        );
        let recal = PlatformConfig {
            recalibrate: true,
            markdup_opt: false,
            ..PlatformConfig::default()
        };
        let d = pipeline_dag(&recal, &aligner);
        d.topo_order().unwrap();
        assert!(d.stage("round2b-bloom").is_none());
        assert_eq!(
            d.stage("round4b-print-reads").unwrap().parents,
            vec!["round4-sort", "round4a-recal-table"]
        );
        assert_eq!(
            d.stage("round5-haplotypecaller").unwrap().parents,
            vec!["round4b-print-reads"]
        );
        // Changing a setting one stage reads moves only that subgraph.
        let k_base = pipeline_dag(&base, &aligner).stage_keys(9, &[]).unwrap();
        let reseeded = PlatformConfig {
            seed: 42,
            ..PlatformConfig::default()
        };
        let k_seed = pipeline_dag(&reseeded, &aligner).stage_keys(9, &[]).unwrap();
        assert_eq!(k_base["round1-align"], k_seed["round1-align"]);
        assert_eq!(k_base["round2b-bloom"], k_seed["round2b-bloom"]);
        assert_ne!(k_base["round3-markdup"], k_seed["round3-markdup"]);
        assert_ne!(k_base["round4-sort"], k_seed["round4-sort"]);
    }

    /// `xxh64` of the rendered `stage_keys(PINNED_ROOT, &[])` map of each
    /// of [`config_shapes`]. Re-pinned when each row's fingerprint became
    /// the `Debug` text of what its body reads: the aligner's
    /// configuration joined round 1's key, `RecalConfig` rounds 4½a and
    /// 4½b's, and `GenotyperConfig` the UnifiedGenotyper row's — with
    /// those fingerprints substituted by the old hand-built ones, the
    /// table gives the earlier digests. Re-pinned again when round 2 went
    /// map-only: its body no longer reads `n_reducers`, so
    /// `CleanFixMate`'s fingerprint lost its `reducers` field, and every
    /// key below round 1 chains through it. Re-pinned when the aligner's
    /// search internals, pairing's own `min_score` and the callers'
    /// pileup tiles became constants: round 1's and round 5's
    /// fingerprints lost those fields at unchanged values, and written
    /// back into the text they give the earlier digests. A renamed
    /// stage, a reordered parent list or a drifted fingerprint
    /// cold-starts every tenant's cache; it has to fail here first.
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
                let keys = pipeline_dag(c, &aligner).stage_keys(PINNED_ROOT, &[]).unwrap();
                xxh64(format!("{keys:?}").as_bytes())
            })
            .collect();
        assert_eq!(got, PINNED_STAGE_KEY_DIGESTS);
    }

    #[test]
    fn pipeline_rows_are_declared_in_execution_order() {
        let aligner = aligner();
        for c in config_shapes() {
            let d = pipeline_dag(&c, &aligner);
            let declared: Vec<String> = d.stages.iter().map(|s| s.name.clone()).collect();
            assert_eq!(d.topo_order().unwrap(), declared);
            for (i, s) in d.stages.iter().enumerate() {
                for p in &s.parents {
                    assert!(declared[..i].contains(p), "{}: parent {p} is not declared above it", s.name);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random acyclic graphs (parents only point at earlier stages):
        /// the topological order always places every parent first.
        #[test]
        fn prop_topo_order_respects_all_edges(
            parent_picks in proptest::collection::vec(
                proptest::collection::vec(0usize..100, 0..4), 1..20
            ),
        ) {
            let stages: Vec<StageSpec> = parent_picks
                .iter()
                .enumerate()
                .map(|(i, picks)| {
                    let mut parents: Vec<String> = picks
                        .iter()
                        .filter(|_| i > 0)
                        .map(|p| format!("s{}", p % i))
                        .collect();
                    parents.sort();
                    parents.dedup();
                    StageSpec {
                        name: format!("s{i}"),
                        parents,
                        code_version: 1,
                        config_fp: 0,
                    }
                })
                .collect();
            let d = DagSpec { stages };
            let order = d.topo_order().unwrap();
            prop_assert_eq!(order.len(), d.stages.len());
            let pos: std::collections::HashMap<&str, usize> =
                order.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
            for s in &d.stages {
                for p in &s.parents {
                    prop_assert!(
                        pos[p.as_str()] < pos[s.name.as_str()],
                        "{} must come before {}", p, s.name
                    );
                }
            }
            // Keys exist for every stage and chain deterministically.
            let keys = d.stage_keys(123, &[]).unwrap();
            prop_assert_eq!(keys.len(), d.stages.len());
        }

        /// Adding a single back edge to a chain always yields the typed
        /// error naming it, never a hang or panic.
        #[test]
        fn prop_back_edge_is_typed_unknown_parent(len in 2usize..12, from in 0usize..12, to in 0usize..12) {
            let from = from % len;
            // Target at or before the source: a backward (or self) edge.
            let to = to % (from + 1);
            let stages: Vec<StageSpec> = (0..len)
                .map(|i| {
                    let mut parents = if i == 0 { vec![] } else { vec![format!("s{}", i - 1)] };
                    if i == to {
                        parents.push(format!("s{from}"));
                    }
                    StageSpec { name: format!("s{i}"), parents, code_version: 1, config_fp: 0 }
                })
                .collect();
            let d = DagSpec { stages };
            prop_assert_eq!(
                d.topo_order(),
                Err(DagError::UnknownParent { stage: format!("s{to}"), parent: format!("s{from}") })
            );
        }
    }
}
