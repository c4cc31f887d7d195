//! Shuffle codec integration: the codec map-output segments travel
//! under is a transport detail — a job's reduce output must be
//! byte-identical whether the segments ship Raw, Lz, or Seq, while the
//! DFS shuffle bytes shrink with the stronger domain codec. A job that
//! names no codec ships Lz.

use gesall_dfs::{Dfs, DfsConfig};
use gesall_formats::sam::SamRecord;
use gesall_formats::Codec;
use gesall_mapreduce::counters::keys;
use gesall_mapreduce::{
    ClusterResources, HashPartitioner, InputSplit, JobConfig, JobResult, MapContext,
    MapReduceEngine, Mapper, ReduceContext, Reducer,
};

/// Keys records by position bucket and passes the alignment record
/// through untouched — the shape of a sort/bin stage.
struct Route;
impl Mapper for Route {
    type InKey = u64;
    type InValue = SamRecord;
    type OutKey = u64;
    type OutValue = SamRecord;
    fn map(&self, _k: &u64, rec: &SamRecord, ctx: &mut MapContext<'_, u64, SamRecord>) {
        ctx.emit(rec.pos as u64 / 64, rec.clone());
    }
}

struct Collect;
impl Reducer for Collect {
    type InKey = u64;
    type InValue = SamRecord;
    type OutKey = u64;
    type OutValue = SamRecord;
    fn reduce(&self, k: u64, vs: Vec<SamRecord>, ctx: &mut ReduceContext<'_, u64, SamRecord>) {
        for v in vs {
            ctx.emit(k, v);
        }
    }
}

/// Deterministic aligned-read-shaped records: 100bp DNA, noisy quals,
/// mostly-sorted positions — the payload mix the Seq codec targets.
fn sam_splits(n_splits: usize, per_split: usize) -> Vec<InputSplit<u64, SamRecord>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n_splits)
        .map(|s| {
            let records: Vec<(u64, SamRecord)> = (0..per_split)
                .map(|i| {
                    let seq: Vec<u8> = (0..100).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
                    let qual: Vec<u8> = (0..100).map(|_| 30 + (next() % 7) as u8).collect();
                    let mut rec =
                        SamRecord::unmapped(format!("read{:05}-{:02}", i, s), seq, qual);
                    rec.pos = (s * per_split + i) as i64 * 3;
                    (i as u64, rec)
                })
                .collect();
            InputSplit::new(format!("split-{s}"), records)
        })
        .collect()
}

/// Maximum wire bytes through the transit DFS for the Seq-codec shuffle
/// as a fraction of its Lz twin's, at byte-identical reduce output.
const SEQ_VS_LZ_MAX_RATIO: f64 = 0.8;

/// The job with its codec forced, or with none named (`None`).
fn run_with(codec: Option<Codec>) -> JobResult<u64, SamRecord> {
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 3,
        block_size: 64 * 1024,
        replication: 2,
        ..DfsConfig::default()
    });
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_shuffle_dfs(dfs);
    let cfg = JobConfig {
        name: format!("codec-twin-{}", codec.map_or("default", Codec::name)),
        n_reducers: 3,
        io_sort_bytes: 64 * 1024,
        shuffle_codec: codec,
        speculative: false,
        ..JobConfig::default()
    };
    engine
        .run_job(cfg, &Route, &Collect, &HashPartitioner, sam_splits(4, 120))
        .expect("codec twin job must succeed")
}

#[test]
fn reduce_output_is_identical_across_every_shuffle_codec() {
    let raw = run_with(Some(Codec::Raw));
    let lz = run_with(Some(Codec::Lz));
    let seq = run_with(Some(Codec::Seq));

    // Byte-identical reduce output: same reducers, same keys, same
    // record order. (Scheduling is deterministic here — no speculation,
    // no faults — and the multipass merge's pass structure depends only
    // on run counts, which the codec cannot change.)
    assert_eq!(raw.outputs, lz.outputs, "Raw vs Lz reduce output diverged");
    assert_eq!(lz.outputs, seq.outputs, "Lz vs Seq reduce output diverged");
    assert!(raw.outputs.iter().flatten().count() > 0);

    // The codec override actually took: `Some(Raw)` is compression off,
    // the others compress every partition above COMPRESS_MIN_BYTES.
    assert_eq!(raw.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED), 0);
    assert!(lz.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED) > 0);
    assert!(seq.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED) > 0);

    // And the wire bytes order as the codecs' strength predicts on
    // genomic payloads: general LZ beats shipping raw, and Seq (2-bit
    // bases + grouped literals) has to pay for itself — at most
    // SEQ_VS_LZ_MAX_RATIO of the Lz twin's wire bytes, not merely fewer.
    let b = |r: &JobResult<u64, SamRecord>| r.counters.get(keys::SHUFFLE_BYTES_DFS);
    assert!(
        b(&seq) as f64 <= b(&lz) as f64 * SEQ_VS_LZ_MAX_RATIO && b(&lz) < b(&raw),
        "expected seq <= {SEQ_VS_LZ_MAX_RATIO} x lz and lz < raw, got seq={} lz={} raw={}",
        b(&seq),
        b(&lz),
        b(&raw)
    );

    // Locality accounting covered the fetches: every shuffled byte was
    // tallied as local or remote.
    for r in [&raw, &lz, &seq] {
        let local = r.counters.get(keys::SHUFFLE_FETCH_BYTES_LOCAL);
        let remote = r.counters.get(keys::SHUFFLE_FETCH_BYTES_REMOTE);
        assert!(
            local + remote >= b(r),
            "local {local} + remote {remote} must cover the fetched frames {}",
            b(r)
        );
    }
}

#[test]
fn a_job_without_an_override_ships_lz() {
    // No job override: every record type, alignment records included,
    // travels under Lz — the same bytes through the transit DFS as a
    // job that forces it.
    let default = run_with(None);
    let forced = run_with(Some(Codec::Lz));
    assert_eq!(default.outputs, forced.outputs);
    assert!(default.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED) > 0);
    assert_eq!(
        default.counters.get(keys::SHUFFLE_BYTES_DFS),
        forced.counters.get(keys::SHUFFLE_BYTES_DFS)
    );
}
