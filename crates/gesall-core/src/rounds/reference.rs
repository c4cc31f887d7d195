//! The owned-record rounds 2½, 3, 4 and 4½b as they were before they
//! read records as views: every record decoded into a [`SamRecord`] and
//! encoded back. The tests below run them and the production rounds
//! through the engine on the same partitions and hold the two to the
//! same bytes.
//!
//! Round 2 with a read-name shuffle: CleanSam on the map side,
//! every record shuffled by read name, FixMate on the reduce side. The
//! tests hold the map-only round to its records, and round 3 over either
//! round's partitions to the same duplicates but for quality-sum ties.

use super::markdup::key_seed;
use super::{decode_bam, note_part};
use crate::gdpt::{name_partition, BloomFilter, MarkDupKey, MarkDupRole, MarkDupValue, RangeKey};
use gesall_formats::bam;
use gesall_formats::sam::header::ReadGroup;
use gesall_formats::sam::{SamHeader, SamRecord};
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::task::{MapContext, Mapper, ReduceContext, Reducer};
use gesall_tools::clean_sam::clean_sam;
use gesall_tools::fix_mate::sync_pair;
use gesall_tools::mark_duplicates::{end_key, pair_key, EndKey};
use gesall_tools::recalibration::RecalTable;
use gesall_tools::refview::RefView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Round-2 mapper: data cleaning over a BAM partition, shuffled by read
/// name.
pub struct Round2CleanMapper {
    pub read_group: ReadGroup,
    pub references: Arc<Vec<Vec<u8>>>,
    pub counters: Counters,
}

impl Mapper for Round2CleanMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = SamRecord;

    fn map(&self, _label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, String, SamRecord>) {
        let (mut header, mut records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
        let t0 = Instant::now();
        gesall_tools::add_read_groups::add_or_replace_read_groups(&mut header, &mut records, &self.read_group);
        clean_sam(&mut records, RefView::new(&self.references));
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        for r in records {
            ctx.emit(r.name.clone(), r);
        }
    }
}

/// Round-2 reducer: both reads of a pair arrive under the same name key;
/// FixMateInformation synchronizes them.
pub struct Round2FixMateReducer {
    pub counters: Counters,
}

impl Reducer for Round2FixMateReducer {
    type InKey = String;
    type InValue = SamRecord;
    type OutKey = String;
    type OutValue = SamRecord;

    fn reduce(&self, name: String, mut values: Vec<SamRecord>, ctx: &mut ReduceContext<'_, String, SamRecord>) {
        let t0 = Instant::now();
        let primaries: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, r)| r.flags.is_primary() && r.flags.is_paired())
            .map(|(i, _)| i)
            .collect();
        if let [i, j] = primaries[..] {
            let (lo, hi) = values.split_at_mut(j.max(i));
            let (a, b) = if i < j {
                (&mut lo[i], &mut hi[0])
            } else {
                (&mut hi[0], &mut lo[j])
            };
            sync_pair(a, b);
        }
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        for r in values {
            ctx.emit(name.clone(), r);
        }
    }
}

pub struct BloomBuildMapper {
    pub counters: Counters,
}

impl Mapper for BloomBuildMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = u64;
    type OutValue = MarkDupKey;

    fn map(&self, _label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, u64, MarkDupKey>) {
        let (_, records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
        let mut by_name: HashMap<&str, Vec<&SamRecord>> = HashMap::new();
        for r in &records {
            if r.flags.is_paired() && r.flags.is_primary() {
                by_name.entry(r.name.as_str()).or_default().push(r);
            }
        }
        for (_, pair) in by_name {
            if let [a, b] = pair[..] {
                let partial_mapped = match (a.is_mapped(), b.is_mapped()) {
                    (true, false) => Some(a),
                    (false, true) => Some(b),
                    _ => None,
                };
                if let Some(m) = partial_mapped {
                    ctx.emit(0, MarkDupKey::Single(end_key(m)));
                }
            }
        }
    }
}

/// `gdpt::markdup_map_pair` over owned records.
fn markdup_map_pair(
    a: SamRecord,
    b: SamRecord,
    witness_filter: &mut std::collections::HashSet<EndKey>,
    bloom: Option<&BloomFilter>,
    out: &mut Vec<(MarkDupKey, MarkDupValue<SamRecord>)>,
) {
    match (a.is_mapped(), b.is_mapped()) {
        (true, true) => {
            let pk = pair_key(&a, &b);
            let mut witness_of = |read: &SamRecord, key: EndKey| {
                let needed = bloom.map(|bl| bl.maybe_contains(&key)).unwrap_or(true);
                (needed && witness_filter.insert(key)).then(|| {
                    (
                        MarkDupKey::Single(key),
                        MarkDupValue {
                            role: MarkDupRole::Witness,
                            record: read.clone(),
                        },
                    )
                })
            };
            let wa = witness_of(&a, end_key(&a));
            let wb = witness_of(&b, end_key(&b));
            for r in [a, b] {
                out.push((
                    MarkDupKey::Pair(pk.0, pk.1),
                    MarkDupValue {
                        role: MarkDupRole::PairMember,
                        record: r,
                    },
                ));
            }
            out.extend(wa);
            out.extend(wb);
        }
        (true, false) | (false, true) => {
            let (mapped, mate) = if a.is_mapped() { (a, b) } else { (b, a) };
            let key = end_key(&mapped);
            for (role, record) in [(MarkDupRole::PartialMapped, mapped), (MarkDupRole::PartialMate, mate)] {
                out.push((MarkDupKey::Single(key), MarkDupValue { role, record }));
            }
        }
        (false, false) => {
            let h = name_partition(&a.name, usize::MAX) as u64;
            for r in [a, b] {
                out.push((
                    MarkDupKey::Unplaced(h),
                    MarkDupValue {
                        role: MarkDupRole::Unplaced,
                        record: r,
                    },
                ));
            }
        }
    }
}

pub struct Round3MarkDupMapper {
    pub bloom: Option<Arc<BloomFilter>>,
    pub counters: Counters,
}

impl Mapper for Round3MarkDupMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = MarkDupKey;
    type OutValue = MarkDupValue<SamRecord>;

    fn map(
        &self,
        _label: &String,
        bam_bytes: &SharedBytes,
        ctx: &mut MapContext<'_, MarkDupKey, MarkDupValue<SamRecord>>,
    ) {
        let (_, records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
        let mut first_seen: HashMap<String, SamRecord> = HashMap::new();
        let mut witness_filter = std::collections::HashSet::new();
        let mut kvs = Vec::new();
        for r in records {
            if !r.flags.is_paired() || !r.flags.is_primary() {
                continue;
            }
            match first_seen.remove(r.name.as_str()) {
                None => {
                    first_seen.insert(r.name.clone(), r);
                }
                Some(mate) => {
                    markdup_map_pair(mate, r, &mut witness_filter, self.bloom.as_deref(), &mut kvs);
                }
            }
        }
        assert!(first_seen.is_empty(), "{} widowed reads", first_seen.len());
        for (k, v) in kvs {
            ctx.emit(k, v);
        }
    }
}

pub struct Round3MarkDupReducer {
    pub seed: u64,
    pub counters: Counters,
}

impl Reducer for Round3MarkDupReducer {
    type InKey = MarkDupKey;
    type InValue = MarkDupValue<SamRecord>;
    type OutKey = String;
    type OutValue = SamRecord;

    fn reduce(
        &self,
        key: MarkDupKey,
        mut values: Vec<MarkDupValue<SamRecord>>,
        ctx: &mut ReduceContext<'_, String, SamRecord>,
    ) {
        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(key_seed(self.seed, &key));
        match key {
            MarkDupKey::Pair(_, _) => {
                let mut order: Vec<String> = Vec::new();
                let mut pairs: HashMap<String, Vec<SamRecord>> = HashMap::new();
                for v in values {
                    let e = pairs.entry(v.record.name.clone()).or_default();
                    if e.is_empty() {
                        order.push(v.record.name.clone());
                    }
                    e.push(v.record);
                }
                let score = |pair: &Vec<SamRecord>| -> u64 { pair.iter().map(|r| r.quality_sum()).sum() };
                let best = order.iter().map(|n| score(&pairs[n])).max().expect("non-empty group");
                let ties: Vec<usize> = order
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| score(&pairs[*n]) == best)
                    .map(|(i, _)| i)
                    .collect();
                let keeper = ties[rng.gen_range(0..ties.len())];
                for (i, name) in order.iter().enumerate() {
                    let dup = i != keeper;
                    for mut r in pairs.remove(name).expect("pair present") {
                        r.flags.set(gesall_formats::sam::Flags::DUPLICATE, dup);
                        ctx.emit(name.clone(), r);
                    }
                }
            }
            MarkDupKey::Single(_) => {
                let has_witness = values.iter().any(|v| v.role == MarkDupRole::Witness);
                let mapped_idx: Vec<usize> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.role == MarkDupRole::PartialMapped)
                    .map(|(i, _)| i)
                    .collect();
                let keeper: Option<usize> = if has_witness || mapped_idx.is_empty() {
                    None
                } else {
                    let best = mapped_idx
                        .iter()
                        .map(|&i| values[i].record.quality_sum())
                        .max()
                        .expect("non-empty");
                    let ties: Vec<usize> = mapped_idx
                        .iter()
                        .copied()
                        .filter(|&i| values[i].record.quality_sum() == best)
                        .collect();
                    Some(ties[rng.gen_range(0..ties.len())])
                };
                let keeper_name = keeper.map(|i| values[i].record.name.clone());
                for v in values.drain(..) {
                    match v.role {
                        MarkDupRole::Witness => {}
                        MarkDupRole::PartialMapped | MarkDupRole::PartialMate => {
                            let mut r = v.record;
                            let dup = keeper_name.as_deref() != Some(r.name.as_str());
                            r.flags.set(gesall_formats::sam::Flags::DUPLICATE, dup);
                            ctx.emit(r.name.clone(), r);
                        }
                        other => panic!("unexpected role {other:?} under Single key"),
                    }
                }
            }
            MarkDupKey::Unplaced(_) => {
                for v in values {
                    ctx.emit(v.record.name.clone(), v.record);
                }
            }
        }
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
    }
}

pub struct Round4SortMapper {
    pub counters: Counters,
}

impl Mapper for Round4SortMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = RangeKey;
    type OutValue = SamRecord;

    fn map(&self, _label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, RangeKey, SamRecord>) {
        let (_, records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
        for r in records {
            ctx.emit(RangeKey::at(r.coordinate_key()), r);
        }
    }
}

pub struct Round4SortReducer;

impl Reducer for Round4SortReducer {
    type InKey = RangeKey;
    type InValue = SamRecord;
    type OutKey = RangeKey;
    type OutValue = SamRecord;

    fn reduce(&self, key: RangeKey, values: Vec<SamRecord>, ctx: &mut ReduceContext<'_, RangeKey, SamRecord>) {
        for r in values {
            ctx.emit(key, r);
        }
    }
}

pub struct PrintReadsMapper {
    pub table: Arc<RecalTable>,
    pub config: gesall_tools::recalibration::RecalConfig,
    pub header: SamHeader,
    pub counters: Counters,
}

impl Mapper for PrintReadsMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = Vec<u8>;

    fn map(&self, label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, String, Vec<u8>>) {
        let (_, mut records) = decode_bam(&self.counters, ctx.counters(), bam_bytes);
        let t0 = Instant::now();
        gesall_tools::recalibration::print_reads(&mut records, &self.table, &self.config);
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
        note_part(ctx.counters(), crate::dag::keys::PARTS_ENCODED);
        let part = bam::write_bam(&self.header, &records);
        ctx.counters().add(keys::WIRE_RECORDS_ENCODED, records.len() as u64);
        ctx.emit(label.clone(), part);
    }
}

mod tests {
    use super::*;
    use crate::gdpt::chromosome_partition;
    use crate::pipeline::{GesallPlatform, PlatformConfig};
    use crate::rounds::BamParts;
    use gesall_aligner::{Aligner, AlignerConfig, ReferenceIndex};
    use gesall_datagen::donor::DonorConfig;
    use gesall_datagen::reads::ReadSimConfig;
    use gesall_datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
    use gesall_dfs::{Dfs, DfsConfig};
    use gesall_formats::wire::Wire;
    use gesall_mapreduce::runtime::{InputSplit, JobConfig};
    use gesall_mapreduce::task::{FnPartitioner, HashPartitioner, OutputFormat, Partitioner};
    use gesall_mapreduce::{JobOutput, JobResult, MapReduceEngine};
    use gesall_tools::recalibration::{base_recalibrator, RecalConfig};
    use gesall_tools::refview::RefView;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    /// The partitions rounds 1–4 of one default pipeline run left behind
    /// (2 000 pairs, so a 128 KiB sort buffer spills), the partitions the
    /// shuffled round 2 writes from the same round-1 partitions, the
    /// whole-run recalibration table, and the bloom filter round 2½
    /// builds.
    struct Fixture {
        round1: Vec<SharedBytes>,
        round2: Vec<SharedBytes>,
        shuffled_round2: Vec<SharedBytes>,
        round3: Vec<SharedBytes>,
        round4: Vec<SharedBytes>,
        n_chroms: usize,
        references: Arc<Vec<Vec<u8>>>,
        header: SamHeader,
        sorted_header: SamHeader,
        table: Arc<RecalTable>,
        bloom: Arc<BloomFilter>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
            let donor = DonorGenome::generate(&genome, &DonorConfig::default());
            let sim = ReadSimConfig {
                n_pairs: 2_000,
                duplicate_rate: 0.05,
                ..ReadSimConfig::default()
            };
            let (pairs, _) = ReadSimulator::new(&genome, &donor, sim).simulate();
            let chroms: Vec<(String, Vec<u8>)> =
                genome.chromosomes.iter().map(|c| (c.name.clone(), c.seq.clone())).collect();
            let references: Vec<Vec<u8>> = chroms.iter().map(|(_, s)| s.clone()).collect();
            let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
            let dfs = Dfs::new(DfsConfig {
                n_nodes: 2,
                block_size: 64 * 1024,
                replication: 1,
                ..DfsConfig::default()
            });
            let p = GesallPlatform::new(dfs, MapReduceEngine::local(2), PlatformConfig::default());
            let out = p.run_pipeline(&aligner, pairs).unwrap();
            let parts = |stage: &str| out.stored_parts(&p.dfs, "/pipeline", stage);
            let (round1, round2, round3, round4) = (
                parts("round1-align"),
                parts("round2-clean-fixmate"),
                parts("round3-markdup"),
                parts("round4-sort"),
            );
            let decode = |part: &SharedBytes| bam::read_bam(part).unwrap();
            let sorted: Vec<SamRecord> = round4.iter().flat_map(|part| decode(part).1).collect();
            let table = base_recalibrator(&sorted, RefView::new(&references), &Default::default(), &RecalConfig::default());
            let keys = MapReduceEngine::local(2)
                .run_map_only(config(1), &super::super::BloomBuildMapper { counters: Counters::new() }, splits(&round2))
                .unwrap();
            let mut bloom = BloomFilter::with_capacity(64);
            for (_, key) in keys.outputs.iter().flatten() {
                if let MarkDupKey::Single(end) = key {
                    bloom.insert(end);
                }
            }
            let references = Arc::new(references);
            let header = decode(&round2[0]).0;
            let shuffled_round2 = shuffled_round2(&round1, &references, &header);
            Fixture {
                n_chroms: chroms.len(),
                references,
                header,
                sorted_header: decode(&round4[0]).0,
                round1,
                round2,
                shuffled_round2,
                round3,
                round4,
                table: Arc::new(table),
                bloom: Arc::new(bloom),
            }
        })
    }

    fn splits(parts: &[SharedBytes]) -> Vec<InputSplit<String, SharedBytes>> {
        parts
            .iter()
            .enumerate()
            .map(|(i, p)| InputSplit::new(format!("p{i}"), vec![(format!("p{i}"), p.clone())]))
            .collect()
    }

    fn engine() -> MapReduceEngine {
        MapReduceEngine::local(2)
    }

    /// The partitions round 2 wrote from `round1` when it shuffled by
    /// read name.
    fn shuffled_round2(round1: &[SharedBytes], references: &Arc<Vec<Vec<u8>>>, header: &SamHeader) -> Vec<SharedBytes> {
        let mapper = Round2CleanMapper {
            read_group: crate::pipeline::read_group(),
            references: references.clone(),
            counters: Counters::new(),
        };
        let reducer = Round2FixMateReducer { counters: Counters::new() };
        let format = BamParts { header };
        let n_reducers = PlatformConfig::default().n_reducers;
        engine()
            .run_job_to(config(n_reducers), &mapper, &reducer, &HashPartitioner, splits(round1), &format)
            .unwrap()
            .outputs
    }

    /// A 128 KiB sort buffer and merge fan-in 4: the mappers spill and
    /// the merges take more than one pass.
    fn config(n_reducers: usize) -> JobConfig {
        JobConfig {
            name: "views-vs-owned".into(),
            n_reducers,
            io_sort_bytes: 128 * 1024,
            merge_factor: 4,
            ..JobConfig::default()
        }
    }

    /// What each map task handed the sort-spill-merge: every emitted
    /// pair's wire bytes, in emission order. The segments are these
    /// pairs, stably sorted by key and encoded as they are.
    fn emitted<K: Wire, V: Wire>(out: &JobResult<K, V>) -> Vec<Vec<u8>> {
        out.outputs.iter().map(|task| task.iter().flat_map(|kv| kv.to_wire_bytes()).collect()).collect()
    }

    /// The engine's counters that follow from the map-output bytes alone.
    fn shuffle_counters<O>(out: &JobOutput<O>) -> Vec<(&'static str, u64)> {
        [
            "map.output.records",
            "map.output.bytes",
            "map.spills",
            "map.merge.segments",
            "shuffle.records",
            "shuffle.bytes",
            "shuffle.bytes.raw",
            "reduce.input.groups",
            "reduce.output.records",
            "reduce.merge.passes",
            "reduce.merge.bytes",
        ]
        .map(|k| (k, out.counters.get(k)))
        .to_vec()
    }

    fn records_in(parts: &[SharedBytes]) -> u64 {
        parts.iter().map(|p| bam::read_bam(p).unwrap().1.len() as u64).sum()
    }

    fn wire(out: &JobOutput<impl Sized>) -> (u64, u64) {
        (out.counters.get(keys::WIRE_RECORDS_DECODED), out.counters.get(keys::WIRE_RECORDS_ENCODED))
    }

    /// Runs the full job both ways and holds them to the same map output,
    /// the same shuffle and the same output partitions; returns the
    /// production and the reference job outputs.
    #[allow(clippy::too_many_arguments)]
    fn same_job<M1, R1, M2, R2, K>(
        parts: &[SharedBytes],
        n_reducers: usize,
        ours: (&M1, &R1),
        theirs: (&M2, &R2),
        partitioner: &dyn Partitioner<K>,
        header: &SamHeader,
    ) -> (JobOutput<SharedBytes>, JobOutput<SharedBytes>)
    where
        K: Wire + Ord + Clone + Send,
        M1: Mapper<InKey = String, InValue = SharedBytes, OutKey = K>,
        M2: Mapper<InKey = String, InValue = SharedBytes, OutKey = K>,
        R1: Reducer<InKey = K, InValue = M1::OutValue>,
        R2: Reducer<InKey = K, InValue = M2::OutValue>,
        for<'h> BamParts<'h>: OutputFormat<R1::OutKey, R1::OutValue, Output = SharedBytes>
            + OutputFormat<R2::OutKey, R2::OutValue, Output = SharedBytes>,
    {
        let e = engine();
        let map_ours = e.run_map_only(config(1), ours.0, splits(parts)).unwrap();
        let map_theirs = e.run_map_only(config(1), theirs.0, splits(parts)).unwrap();
        assert_eq!(emitted(&map_ours), emitted(&map_theirs), "map output");
        let format = BamParts { header };
        let ours = e.run_job_to(config(n_reducers), ours.0, ours.1, partitioner, splits(parts), &format).unwrap();
        let theirs =
            e.run_job_to(config(n_reducers), theirs.0, theirs.1, partitioner, splits(parts), &format).unwrap();
        assert!(ours.counters.get("map.spills") > parts.len() as u64, "the sort buffer must spill");
        assert_eq!(shuffle_counters(&ours), shuffle_counters(&theirs));
        assert_eq!(ours.outputs.len(), theirs.outputs.len());
        for (i, (a, b)) in ours.outputs.iter().zip(&theirs.outputs).enumerate() {
            assert!(a[..] == b[..], "output partition {i}");
        }
        (ours, theirs)
    }

    #[test]
    fn round3_on_views_shuffles_and_writes_the_owned_rounds_bytes() {
        let f = fixture();
        let n = records_in(&f.round2);
        for bloom in [Some(f.bloom.clone()), None] {
            let counters = Counters::new;
            let (ours, theirs) = same_job(
                &f.round2,
                3,
                (
                    &super::super::Round3MarkDupMapper { bloom: bloom.clone(), counters: counters() },
                    &super::super::Round3MarkDupReducer { seed: 7, counters: counters() },
                ),
                (
                    &Round3MarkDupMapper { bloom, counters: counters() },
                    &Round3MarkDupReducer { seed: 7, counters: counters() },
                ),
                &HashPartitioner,
                &f.header,
            );
            let written = ours.counters.get("reduce.output.records");
            assert_eq!(wire(&ours), (0, 0));
            assert_eq!(wire(&theirs), (n, written));
        }
    }

    #[test]
    fn round4_on_views_shuffles_and_writes_the_owned_rounds_bytes() {
        let f = fixture();
        let n = records_in(&f.round3);
        let ranges = FnPartitioner::new(|k: &RangeKey, n| chromosome_partition(k, n));
        let (ours, theirs) = same_job(
            &f.round3,
            f.n_chroms + 1,
            (
                &super::super::Round4SortMapper { counters: Counters::new() },
                &super::super::Round4SortReducer,
            ),
            (&Round4SortMapper { counters: Counters::new() }, &Round4SortReducer),
            &ranges,
            &f.sorted_header,
        );
        assert_eq!(wire(&ours), (0, 0));
        assert_eq!(wire(&theirs), (n, n));
    }

    #[test]
    fn print_reads_in_place_writes_the_owned_rounds_partitions() {
        let f = fixture();
        let n = records_in(&f.round4);
        let (ours, theirs) = (
            super::super::PrintReadsMapper {
                table: f.table.clone(),
                config: RecalConfig::default(),
                header: f.sorted_header.clone(),
                counters: Counters::new(),
            },
            PrintReadsMapper {
                table: f.table.clone(),
                config: RecalConfig::default(),
                header: f.sorted_header.clone(),
                counters: Counters::new(),
            },
        );
        let (ours, theirs) = (
            engine().run_map_only(config(1), &ours, splits(&f.round4)).unwrap(),
            engine().run_map_only(config(1), &theirs, splits(&f.round4)).unwrap(),
        );
        assert_eq!(ours.outputs, theirs.outputs);
        let rewritten = ours.outputs.iter().zip(&f.round4).filter(|(o, p)| o[0].1[..] != p[..]).count();
        assert!(rewritten > 0, "the table changes qualities");
        assert_eq!(wire(&ours), (0, 0));
        assert_eq!(wire(&theirs), (n, n));
    }

    #[test]
    fn bloom_build_on_views_emits_the_owned_rounds_keys_and_builds_its_filter() {
        let f = fixture();
        let ours = engine()
            .run_map_only(config(1), &super::super::BloomBuildMapper { counters: Counters::new() }, splits(&f.round2))
            .unwrap();
        let theirs = engine()
            .run_map_only(config(1), &BloomBuildMapper { counters: Counters::new() }, splits(&f.round2))
            .unwrap();
        let keys_of = |out: &JobResult<u64, MarkDupKey>| {
            let mut keys: Vec<MarkDupKey> = out.outputs.iter().flatten().map(|(_, k)| k.clone()).collect();
            let mut bloom = BloomFilter::with_capacity(keys.len().max(64));
            for k in &keys {
                if let MarkDupKey::Single(end) = k {
                    bloom.insert(end);
                }
            }
            keys.sort();
            (keys, bloom)
        };
        let (ours_keys, ours_bloom) = keys_of(&ours);
        assert!(!ours_keys.is_empty(), "the fixture has partial matchings");
        assert_eq!((ours_keys, ours_bloom), keys_of(&theirs));
        assert_eq!(wire(&ours), (0, 0));
        assert_eq!(wire(&theirs), (records_in(&f.round2), 0));
    }

    #[test]
    fn bloom_build_emits_the_same_keys_in_the_same_order_on_every_run() {
        let f = fixture();
        let run = || {
            let out = engine()
                .run_map_only(config(1), &super::super::BloomBuildMapper { counters: Counters::new() }, splits(&f.round2))
                .unwrap();
            emitted(&out)
        };
        let first = run();
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
    }

    /// Each partition's records, decoded.
    fn records_of(parts: &[SharedBytes]) -> Vec<Vec<SamRecord>> {
        parts.iter().map(|p| bam::read_bam(p).unwrap().1).collect()
    }

    /// A record's wire bytes: what "the same record" means below.
    fn wire_of(r: &SamRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        buf
    }

    #[test]
    fn round1_holds_each_pair_whole_in_one_partition_with_its_records_adjacent() {
        let f = fixture();
        let mut home: HashMap<String, usize> = HashMap::new();
        for (i, part) in records_of(&f.round1).iter().enumerate() {
            assert!(!part.is_empty(), "partition {i} is empty");
            for pair in part.chunks(2) {
                let [a, b] = pair else { panic!("partition {i} ends in a widowed read") };
                assert_eq!(a.name, b.name, "partition {i}: a pair's records are not adjacent");
                assert!(a.flags.is_first_in_pair() != b.flags.is_first_in_pair());
                assert!(home.insert(a.name.clone(), i).is_none(), "{} sits in two places", a.name);
            }
        }
        assert_eq!(home.len(), 2_000);
    }

    /// Every record's wire bytes, sorted: a partition set as a multiset.
    fn multiset(parts: &[SharedBytes]) -> Vec<Vec<u8>> {
        let mut all: Vec<Vec<u8>> = records_of(parts).iter().flatten().map(wire_of).collect();
        all.sort();
        all
    }

    #[test]
    fn map_only_round2_writes_the_shuffled_rounds_records_partition_by_partition() {
        let f = fixture();
        let mapper = super::super::Round2CleanMapper {
            read_group: crate::pipeline::read_group(),
            references: f.references.clone(),
            header: f.header.clone(),
            counters: Counters::new(),
        };
        let map_only = |round1: &[SharedBytes]| engine().run_map_only(config(1), &mapper, splits(round1)).unwrap();
        let ours = map_only(&f.round1);
        let n = records_in(&f.round1);
        assert_eq!(wire(&ours), (n, n));
        assert_eq!(ours.counters.get("shuffle.records"), 0);
        // The pipeline's round-2 entry is what the mappers write.
        let written: Vec<&[u8]> = ours.outputs.iter().map(|task| &task[0].1[..]).collect();
        let stored: Vec<&[u8]> = f.round2.iter().map(|p| &p[..]).collect();
        assert_eq!(written, stored);
        // The same records as the shuffled round wrote, as a multiset.
        assert_eq!(multiset(&f.round2), multiset(&f.shuffled_round2));
        // Each output partition holds exactly its input partition's
        // pairs, in the same order.
        let names = |part: &Vec<SamRecord>| part.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
        let (inputs, outputs) = (records_of(&f.round1), records_of(&f.round2));
        assert_eq!(inputs.len(), outputs.len());
        for (i, (a, b)) in inputs.iter().zip(&outputs).enumerate() {
            assert_eq!(names(a), names(b), "partition {i}");
        }
        // The aligner leaves the mate fields consistent, so FixMate has
        // nothing to do above. With every mate field stale it has: both
        // rounds restore the same records.
        let stale: Vec<SharedBytes> = records_of(&f.round1)
            .into_iter()
            .map(|mut part| {
                for r in &mut part {
                    (r.mate_ref_id, r.mate_pos, r.tlen) = (gesall_formats::sam::record::NO_REF, 0, 0);
                }
                SharedBytes::from_vec(bam::write_bam(&f.header, &part))
            })
            .collect();
        let restored: Vec<SharedBytes> =
            map_only(&stale).outputs.into_iter().map(|task| SharedBytes::from_vec(task[0].1.clone())).collect();
        assert_eq!(multiset(&restored), multiset(&shuffled_round2(&stale, &f.references, &f.header)));
        assert_eq!(multiset(&restored), multiset(&f.round2));
    }

    /// Whether MarkDuplicates picks its keeper at random, per record
    /// name: the record's pair lies in a key group whose best quality
    /// sum is tied. The groups are rebuilt here from the records.
    fn tied_names(records: &[SamRecord]) -> HashMap<String, bool> {
        let mut mates: HashMap<&str, Vec<&SamRecord>> = HashMap::new();
        for r in records.iter().filter(|r| r.flags.is_paired() && r.flags.is_primary()) {
            mates.entry(&r.name).or_default().push(r);
        }
        // Per group: each candidate's quality sum, and whether a mapped
        // pair's read shares the 5′ end (then nothing is left to pick).
        let mut groups: BTreeMap<MarkDupKey, (Vec<u64>, bool)> = BTreeMap::new();
        let mut group_of: HashMap<&str, MarkDupKey> = HashMap::new();
        for (name, pair) in &mates {
            let [a, b] = pair[..] else { panic!("{name} is not a pair") };
            let (key, score) = match (a.is_mapped(), b.is_mapped()) {
                (true, true) => {
                    for r in [a, b] {
                        groups.entry(MarkDupKey::Single(end_key(r))).or_default().1 = true;
                    }
                    let (ka, kb) = pair_key(a, b);
                    (MarkDupKey::Pair(ka, kb), a.quality_sum() + b.quality_sum())
                }
                (true, false) => (MarkDupKey::Single(end_key(a)), a.quality_sum()),
                (false, true) => (MarkDupKey::Single(end_key(b)), b.quality_sum()),
                (false, false) => continue,
            };
            groups.entry(key.clone()).or_default().0.push(score);
            group_of.insert(name, key);
        }
        group_of
            .into_iter()
            .map(|(name, key)| {
                let (scores, witnessed) = &groups[&key];
                let best = scores.iter().max().expect("a group has its own pair");
                let tied = scores.iter().filter(|s| *s == best).count() > 1;
                (name.to_string(), tied && !(*witnessed && matches!(key, MarkDupKey::Single(_))))
            })
            .collect()
    }

    /// `parts` with every base quality set to 30: each key group of
    /// equal-length reads is then a quality-sum tie.
    fn flattened(parts: &[SharedBytes], header: &SamHeader) -> Vec<SharedBytes> {
        records_of(parts)
            .into_iter()
            .map(|mut part| {
                part.iter_mut().for_each(|r| r.qual.fill(30));
                SharedBytes::from_vec(bam::write_bam(header, &part))
            })
            .collect()
    }

    #[test]
    fn round3_over_either_round2_moves_duplicate_bits_only_in_tied_groups() {
        let f = fixture();
        // The simulated qualities leave no group tied, so nothing may
        // move; flattened, ties abound and the seeded pick, which walks
        // the group in arrival order, keeps other reads.
        let flat = (flattened(&f.round2, &f.header), flattened(&f.shuffled_round2, &f.header));
        let cases = [("simulated", (&f.round2, &f.shuffled_round2)), ("flattened", (&flat.0, &flat.1))];
        for (inputs, (ours, theirs)) in cases {
            let tied = tied_names(&records_of(ours).concat());
            let n_tied = tied.values().filter(|t| **t).count();
            for bloom in [Some(f.bloom.clone()), None] {
                let run = |parts: &[SharedBytes]| {
                    let out = engine()
                        .run_job_to(
                            config(PlatformConfig::default().n_reducers),
                            &super::super::Round3MarkDupMapper { bloom: bloom.clone(), counters: Counters::new() },
                            &super::super::Round3MarkDupReducer {
                                seed: PlatformConfig::default().seed,
                                counters: Counters::new(),
                            },
                            &HashPartitioner,
                            splits(parts),
                            &BamParts { header: &f.header },
                        )
                        .unwrap();
                    let mut dup: HashMap<Vec<u8>, bool> = HashMap::new();
                    for mut r in records_of(&out.outputs).concat() {
                        let was = r.flags.is_duplicate();
                        r.flags.set(gesall_formats::sam::Flags::DUPLICATE, false);
                        assert!(dup.insert(wire_of(&r), was).is_none(), "a record came out twice");
                    }
                    dup
                };
                let (ours, theirs) = (run(ours), run(theirs));
                assert_eq!(ours.len(), theirs.len(), "{inputs}");
                let mut moved = 0;
                for (record, dup) in &ours {
                    let their_dup = theirs.get(record).expect("the same records, DUPLICATE masked");
                    if dup != their_dup {
                        let r = SamRecord::decode(&mut gesall_formats::wire::Cursor::new(record)).unwrap();
                        assert!(tied[&r.name], "{inputs}: {}'s DUPLICATE bit moved outside a tied group", r.name);
                        moved += 1;
                    }
                }
                match inputs {
                    "simulated" => assert_eq!((n_tied, moved), (0, 0)),
                    _ => assert!(moved > 0 && moved <= 2 * n_tied, "{moved} moved, {n_tied} tied"),
                }
            }
        }
    }
}
