//! Shuffle codec integration: the codec a map-output segment travels
//! under is a transport detail. Every registered codec carries the same
//! sorted runs through a segment, its wire frame and the reduce-side
//! merge to identical grouped records, while the wire bytes shrink with
//! the stronger domain codec. A job ships under the engine's
//! `shuffle::SHUFFLE_CODEC`, Lz.

use gesall_formats::sam::SamRecord;
use gesall_formats::{Codec, SharedBytes};
use gesall_mapreduce::counters::keys;
use gesall_mapreduce::shuffle::{read_frame, reduce_merge_streamed, write_frame, Segment};
use gesall_mapreduce::{
    ClusterResources, Counters, HashPartitioner, InputSplit, JobConfig, MapContext,
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
        ctx.emit(bucket(rec), rec.clone());
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

fn bucket(rec: &SamRecord) -> u64 {
    rec.pos as u64 / 64
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
                    let mut rec = SamRecord::unmapped(format!("read{:05}-{:02}", i, s), seq, qual);
                    rec.pos = (s * per_split + i) as i64 * 3;
                    (i as u64, rec)
                })
                .collect();
            InputSplit::new(format!("split-{s}"), records)
        })
        .collect()
}

/// Maximum wire bytes of the Seq-coded runs as a fraction of their Lz
/// twins', at identical grouped output.
const SEQ_VS_LZ_MAX_RATIO: f64 = 0.8;

/// Every split as one sorted run, keyed as [`Route`] keys it — what a
/// map task ships for a single reducer.
fn sorted_runs() -> Vec<Vec<(u64, SamRecord)>> {
    sam_splits(4, 120)
        .into_iter()
        .map(|split| {
            let mut run: Vec<(u64, SamRecord)> = split
                .records
                .into_iter()
                .map(|(_, rec)| (bucket(&rec), rec))
                .collect();
            run.sort_by_key(|(k, _)| *k);
            run
        })
        .collect()
}

/// A reducer's merged input: each key with its records.
type Grouped = Vec<(u64, Vec<SamRecord>)>;

/// The runs coded under `codec`, framed back to back into one buffer,
/// read frame by frame and merged with fan-in 2 (a multipass merge over
/// four runs): the grouped records and the merge's shuffle counters.
fn ship_and_merge(runs: &[Vec<(u64, SamRecord)>], codec: Codec) -> (Grouped, Counters) {
    let mut wire = Vec::new();
    for run in runs {
        write_frame(&Segment::from_pairs(run, codec), &mut wire);
    }
    let wire = SharedBytes::from_vec(wire);
    let mut offset = 0;
    let next_segment = || {
        if offset == wire.len() {
            return None;
        }
        let (seg, end) = read_frame(&wire, offset).expect("a frame this test wrote must parse");
        offset = end;
        Some(seg)
    };
    let counters = Counters::new();
    let grouped = reduce_merge_streamed(runs.len(), next_segment, 2, &counters);
    assert_eq!(
        offset,
        wire.len(),
        "{}: every frame is read once",
        codec.name()
    );
    (grouped, counters)
}

#[test]
fn grouped_output_is_identical_across_every_registered_codec() {
    let runs = sorted_runs();
    let n_records: usize = runs.iter().map(Vec::len).sum();
    let shipped: Vec<(Codec, Grouped, Counters)> = Codec::registry()
        .iter()
        .map(|&codec| {
            let (grouped, counters) = ship_and_merge(&runs, codec);
            (codec, grouped, counters)
        })
        .collect();

    // Identical grouped records: same keys, same records, same order
    // within a key — the merge's pass structure depends only on run
    // counts, which the codec cannot change.
    let (_, first, _) = &shipped[0];
    assert!(
        first.windows(2).all(|w| w[0].0 < w[1].0),
        "keys come out sorted and grouped"
    );
    assert_eq!(
        first.iter().map(|(_, vs)| vs.len()).sum::<usize>(),
        n_records
    );
    for (codec, grouped, _) in &shipped[1..] {
        assert_eq!(
            grouped,
            first,
            "{} diverged from {}",
            codec.name(),
            shipped[0].0.name()
        );
    }

    // Raw ships every run uncompressed, every other codec compresses
    // them all (each run is above COMPRESS_MIN_BYTES).
    for (codec, _, counters) in &shipped {
        let compressed = counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED);
        let want = if codec.is_compressed() {
            runs.len() as u64
        } else {
            0
        };
        assert_eq!(compressed, want, "{} compressed segments", codec.name());
    }

    // The wire bytes order as the codecs' strength predicts on genomic
    // payloads: general LZ beats shipping raw, and Seq (2-bit bases +
    // grouped literals) has to pay for itself — at most
    // SEQ_VS_LZ_MAX_RATIO of the Lz twin's wire bytes, not merely fewer.
    let bytes = |want: Codec| {
        let (_, _, counters) = shipped
            .iter()
            .find(|(c, _, _)| *c == want)
            .expect("registered");
        counters.get(keys::SHUFFLE_BYTES)
    };
    let (raw, lz, seq) = (bytes(Codec::Raw), bytes(Codec::Lz), bytes(Codec::Seq));
    assert!(
        seq as f64 <= lz as f64 * SEQ_VS_LZ_MAX_RATIO && lz < raw,
        "expected seq <= {SEQ_VS_LZ_MAX_RATIO} x lz and lz < raw, got seq={seq} lz={lz} raw={raw}"
    );
}

#[test]
fn a_default_job_ships_its_partitions_compressed() {
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
    let cfg = JobConfig {
        name: "codec-default".into(),
        n_reducers: 3,
        io_sort_bytes: 64 * 1024,
        ..JobConfig::default()
    };
    let res = engine
        .run_job(cfg, &Route, &Collect, &HashPartitioner, sam_splits(4, 120))
        .expect("a fault-free job must succeed");

    assert!(res.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED) > 0);
    assert_eq!(res.outputs.iter().map(Vec::len).sum::<usize>(), 4 * 120);
    // Locality accounting covered the fetches: every shuffled byte was
    // tallied as local or remote.
    let local = res.counters.get(keys::SHUFFLE_FETCH_BYTES_LOCAL);
    let remote = res.counters.get(keys::SHUFFLE_FETCH_BYTES_REMOTE);
    let fetched = res.counters.get(keys::SHUFFLE_BYTES_DFS);
    assert!(fetched > 0);
    assert!(
        local + remote >= fetched,
        "local {local} + remote {remote} must cover the fetched frames {fetched}"
    );
}
