//! Property-based tests of the MapReduce engine's semantic invariants:
//! the output must be independent of partitioning, cluster shape, sort
//! buffer size, and which partitions travel compressed — only then can
//! the platform claim
//! "same program, parallel execution". A fault plan of panics and
//! slowdowns must replay the same attempt history on any cluster.

use gesall_formats::wire::Wire;
use gesall_formats::{Codec, SharedBytes};
use gesall_mapreduce::shuffle::{
    merge_runs, read_frame, reduce_merge_streamed, write_frame, Segment, SortSpillBuffer,
    COMPRESS_MIN_BYTES,
};
use gesall_mapreduce::counters::keys;
use gesall_mapreduce::{
    ClusterResources, Counters, FaultPlan, HashPartitioner, InputSplit, JobConfig, MapContext,
    MapReduceEngine, Mapper, Partitioner, ReduceContext, Reducer, TaskKind,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

// ---------------------------------------------------------------------
// Reference implementations the engine's kernels are pinned to. They
// live here, not in the crate: nothing but these tests may call them.

/// Binary-heap k-way merge: the order reference for [`merge_runs`]
/// (stable — ties broken by run order, then intra-run order).
fn merge_runs_heap<K: Ord, V>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<(K, V)>> =
        runs.into_iter().map(|r| r.into_iter()).collect();
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::new();
    let mut heads: Vec<Option<V>> = Vec::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        match it.next() {
            Some((k, v)) => {
                heap.push(Reverse((k, i)));
                heads.push(Some(v));
            }
            None => heads.push(None),
        }
    }
    while let Some(Reverse((k, i))) = heap.pop() {
        let v = heads[i].take().expect("head value present for popped run");
        out.push((k, v));
        if let Some((nk, nv)) = iters[i].next() {
            heap.push(Reverse((nk, i)));
            heads[i] = Some(nv);
        }
    }
    out
}

/// Materializing reduce merge: decode every segment into typed pairs up
/// front, then multipass-merge with the heap reference. The streaming
/// [`reduce_merge`] must produce byte-identical grouped output (same
/// keys, same value order) for any segment set, codec mix, and
/// `merge_factor`.
fn reduce_merge_materialized<K: Wire + Ord + Clone, V: Wire>(
    segments: Vec<Segment>,
    merge_factor: usize,
) -> Vec<(K, Vec<V>)> {
    let merge_factor = merge_factor.max(2);
    let mut runs: VecDeque<Vec<(K, V)>> = segments
        .iter()
        .filter(|s| s.records > 0)
        .map(|s| s.to_pairs())
        .collect();
    while runs.len() > merge_factor {
        let batch: Vec<Vec<(K, V)>> = (0..merge_factor)
            .map(|_| runs.pop_front().unwrap())
            .collect();
        runs.push_back(merge_runs_heap(batch));
    }
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in merge_runs_heap(runs.into_iter().collect()) {
        match out.last_mut() {
            Some((lk, vs)) if *lk == k => vs.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    out
}

/// [`reduce_merge_streamed`] with every segment handed over up front.
fn reduce_merge<K: Wire + Ord + Clone, V: Wire>(
    segments: Vec<Segment>,
    merge_factor: usize,
    counters: &Counters,
) -> Vec<(K, Vec<V>)> {
    let n_runs = segments.iter().filter(|s| s.records > 0).count();
    let mut it = segments.into_iter();
    reduce_merge_streamed(n_runs, move || it.next(), merge_factor, counters)
}

/// The `pick`-th registered codec (wrapping) — tests iterate the registry
/// rather than naming codecs, so a new entry is covered the day it lands.
fn pick_codec(pick: u8) -> Codec {
    Codec::registry()[pick as usize % Codec::registry().len()]
}

/// What a map task's sort-spill-merge must produce, in a straight line:
/// partition every emitted record, then one stable sort by key per
/// partition.
fn partition_and_sort<K: Ord + Clone, V: Clone>(
    records: &[(K, V)],
    n_partitions: usize,
    partitioner: &dyn Partitioner<K>,
) -> Vec<Vec<(K, V)>> {
    let mut parts: Vec<Vec<(K, V)>> = vec![Vec::new(); n_partitions];
    for (k, v) in records {
        parts[partitioner.partition(k, n_partitions)].push((k.clone(), v.clone()));
    }
    for part in &mut parts {
        part.sort_by(|a, b| a.0.cmp(&b.0));
    }
    parts
}

struct KeyMod(u64);
impl Mapper for KeyMod {
    type InKey = u64;
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;
    fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
        ctx.emit(k % self.0, v.wrapping_add(*k));
    }
}

struct SumAndCount;
impl Reducer for SumAndCount {
    type InKey = u64;
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;
    fn reduce(&self, k: u64, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
        ctx.emit(k, vs.iter().fold(0u64, |a, b| a.wrapping_add(*b)));
        ctx.emit(k, vs.len() as u64);
    }
}

fn run(
    records: &[(u64, u64)],
    n_splits: usize,
    nodes: usize,
    slots: usize,
    reducers: usize,
    sort_bytes: usize,
) -> Vec<(u64, u64)> {
    let engine = MapReduceEngine::new(ClusterResources::uniform(nodes, slots, 1 << 20));
    let per = records.len().div_ceil(n_splits.max(1)).max(1);
    let splits: Vec<InputSplit<u64, u64>> = records
        .chunks(per)
        .enumerate()
        .map(|(i, c)| InputSplit::new(format!("s{i}"), c.to_vec()))
        .collect();
    let cfg = JobConfig {
        n_reducers: reducers,
        io_sort_bytes: sort_bytes,
        ..JobConfig::default()
    };
    let res = engine
        .run_job(cfg, &KeyMod(17), &SumAndCount, &HashPartitioner, splits)
        .expect("fault-free job must succeed");
    let mut all: Vec<(u64, u64)> = res.outputs.into_iter().flatten().collect();
    all.sort_unstable();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn output_invariant_under_execution_shape(
        records in proptest::collection::vec((0u64..1000, 0u64..1_000_000), 1..600),
        n_splits in 1usize..8,
        nodes in 1usize..5,
        slots in 1usize..4,
        reducers in 1usize..6,
        sort_shift in 6u32..16,
    ) {
        // A partition of at least COMPRESS_MIN_BYTES ships Lz, a smaller
        // one Raw: the single-partition baseline and the many-partition
        // shapes between them take both paths.
        let baseline = run(&records, 1, 1, 1, 1, 1 << 20);
        let varied = run(&records, n_splits, nodes, slots, reducers, 1usize << sort_shift);
        prop_assert_eq!(baseline, varied);
    }

    #[test]
    fn merge_runs_equals_global_sort(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..100, any::<u64>()), 0..50),
            0..6,
        )
    ) {
        let sorted_runs: Vec<Vec<(u64, u64)>> = runs
            .into_iter()
            .map(|mut r| {
                r.sort_by_key(|(k, _)| *k);
                r
            })
            .collect();
        let mut expected: Vec<(u64, u64)> = sorted_runs.iter().flatten().cloned().collect();
        expected.sort_by_key(|(k, _)| *k); // stable: preserves run order for ties
        let merged = merge_runs(sorted_runs);
        // Key sequence identical; values per key form the same multiset.
        prop_assert_eq!(
            merged.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            expected.iter().map(|(k, _)| *k).collect::<Vec<_>>()
        );
        let mut mv: Vec<(u64, u64)> = merged;
        let mut ev = expected;
        mv.sort_unstable();
        ev.sort_unstable();
        prop_assert_eq!(mv, ev);
    }

    #[test]
    fn merge_runs_sorted_with_stable_tie_break(
        runs in proptest::collection::vec(
            proptest::collection::vec(0u64..20, 0..40),
            0..8,
        )
    ) {
        // Tag every record with its provenance (run index, position in
        // run) so stability is directly observable in the output.
        let tagged: Vec<Vec<(u64, (u64, u64))>> = runs
            .into_iter()
            .enumerate()
            .map(|(ri, mut keys)| {
                keys.sort_unstable();
                keys.into_iter()
                    .enumerate()
                    .map(|(pos, k)| (k, (ri as u64, pos as u64)))
                    .collect()
            })
            .collect();
        let total: usize = tagged.iter().map(Vec::len).sum();
        let merged = merge_runs(tagged);
        prop_assert_eq!(merged.len(), total);
        for w in merged.windows(2) {
            let (k0, (r0, p0)) = w[0];
            let (k1, (r1, p1)) = w[1];
            prop_assert!(k0 <= k1, "output must be key-sorted");
            if k0 == k1 {
                // Equal keys: earlier run wins; within one run,
                // intra-run order is preserved.
                prop_assert!(
                    r0 < r1 || (r0 == r1 && p0 < p1),
                    "tie on key {} broke stability: ({}, {}) before ({}, {})",
                    k0, r0, p0, r1, p1
                );
            }
        }
    }

    #[test]
    fn segment_roundtrip_any_pairs(
        pairs in proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..200),
        codec_pick in any::<u8>(),
    ) {
        let pairs: Vec<(String, u64)> = pairs;
        let seg = Segment::from_pairs(&pairs, pick_codec(codec_pick));
        prop_assert_eq!(seg.records, pairs.len() as u64);
        let back: Vec<(String, u64)> = seg.to_pairs();
        prop_assert_eq!(back, pairs);
    }

    #[test]
    fn zero_copy_decode_equals_owned_decode(
        pairs in proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..200),
        codec_pick in any::<u8>(),
        window in 0usize..64,
    ) {
        // Decoding through a SharedBytes window (the zero-copy fetch
        // path) must yield records byte-identical to decoding from a
        // detached owned buffer (the old path) — even when the segment
        // sits mid-backing rather than at offset zero.
        let pairs: Vec<(String, u64)> = pairs;
        let seg = Segment::from_pairs(&pairs, pick_codec(codec_pick));
        // Re-home the segment inside a larger backing, offset by
        // `window` junk bytes, as `SortSpillBuffer::finish` does.
        let mut backing = vec![0xAAu8; window];
        backing.extend_from_slice(&seg.data);
        backing.extend_from_slice(&[0x55u8; 16]);
        let shared = SharedBytes::from_vec(backing);
        let windowed = Segment {
            data: shared.slice(window..window + seg.data.len()),
            ..seg.clone()
        };
        let owned = Segment {
            data: SharedBytes::from_vec(seg.data.to_vec()),
            ..seg.clone()
        };
        prop_assert_eq!(&windowed.data, &owned.data, "segment bytes must match");
        prop_assert!(!windowed.data.same_backing(&owned.data));
        let via_window: Vec<(String, u64)> = windowed.to_pairs();
        let via_owned: Vec<(String, u64)> = owned.to_pairs();
        prop_assert_eq!(&via_window, &via_owned);
        prop_assert_eq!(via_window, pairs);
    }

    #[test]
    fn frame_roundtrip_any_offset_and_codec(
        pairs in proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..200),
        codec_pick in any::<u8>(),
        prefix in 0usize..64,
    ) {
        // A segment framed mid-buffer (arbitrary junk prefix, any
        // *registered* codec — not a hard-coded Raw/Lz pair) must read
        // back as a zero-copy window of the enclosing buffer with codec,
        // counts, and payload intact.
        let pairs: Vec<(String, u64)> = pairs;
        let seg = Segment::from_pairs(&pairs, pick_codec(codec_pick));
        let mut buf = vec![0xAAu8; prefix];
        write_frame(&seg, &mut buf);
        write_frame(&Segment::empty(), &mut buf); // trailing neighbour
        let shared = SharedBytes::from_vec(buf);
        let (back, next) = read_frame(&shared, prefix).expect("frame must parse");
        prop_assert_eq!(back.codec, seg.codec);
        prop_assert_eq!(back.records, seg.records);
        prop_assert_eq!(back.raw_len, seg.raw_len);
        prop_assert!(back.data.same_backing(&shared), "payload must window the buffer");
        let (tail, end) = read_frame(&shared, next).expect("neighbour frame must parse");
        prop_assert_eq!(tail.records, 0);
        prop_assert_eq!(end, shared.len());
        let decoded: Vec<(String, u64)> = back.to_pairs();
        prop_assert_eq!(decoded, pairs);
    }

    #[test]
    fn read_frame_of_hostile_bytes_is_ok_or_err(
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        codec_pick in any::<u8>(),
        field in any::<u64>(),
        offset in 0usize..128,
        shape in 0u8..4,
    ) {
        // Shuffle transit is untrusted bytes. Plain junk at any offset,
        // a well-tagged header whose counts and length are arbitrary (or
        // small enough to land inside the buffer), and offsets near
        // usize::MAX: each read is a segment inside the buffer or a
        // typed error, never a panic.
        let mut bytes = Vec::new();
        if shape == 1 || shape == 2 {
            let data_len = if shape == 1 { field } else { field % 128 };
            bytes.push(pick_codec(codec_pick).tag());
            for v in [field, field, data_len] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        bytes.extend_from_slice(&junk);
        let offset = match shape {
            0 => offset,
            3 => usize::MAX - offset,
            _ => 0,
        };
        let shared = SharedBytes::from_vec(bytes);
        if let Ok((seg, end)) = read_frame(&shared, offset) {
            prop_assert!(end <= shared.len());
            prop_assert_eq!(seg.data.len(), end - offset - gesall_mapreduce::shuffle::FRAME_HEADER_BYTES);
        }
    }

    #[test]
    fn fetch_partition_of_a_hostile_file_is_ok_or_err(
        n in any::<u64>(),
        ends in proptest::collection::vec(any::<u64>(), 0..6),
        small in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 0..160),
        r in 0usize..8,
    ) {
        // A stored map output whose index count and frame ends are
        // arbitrary (or small enough to point inside the file) over
        // arbitrary frame bytes: the fetch returns a segment or a typed
        // error, never a panic.
        use gesall_dfs::{Dfs, DfsConfig, ReadAffinity};
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 1,
            block_size: 64,
            replication: 1,
            ..DfsConfig::default()
        });
        let fit = |v: u64, m: u64| if small { v % m } else { v };
        let mut bytes = fit(n, 8).to_le_bytes().to_vec();
        for e in ends {
            bytes.extend_from_slice(&fit(e, 160).to_le_bytes());
        }
        bytes.extend_from_slice(&tail);
        dfs.write_file("m/hostile", &bytes).unwrap();
        let fetched = gesall_mapreduce::shipping::fetch_partition(
            &dfs,
            "m/hostile",
            r,
            ReadAffinity::NONE,
            &Counters::new(),
        );
        if let Ok(seg) = fetched {
            prop_assert!(seg.data.len() <= bytes.len());
        }
    }

    #[test]
    fn compressed_by_reference_fetch_decodes_like_owned(
        pairs in proptest::collection::vec((0u64..50, any::<u64>()), 0..200),
        codec_pick in any::<u8>(),
        prefix in 0usize..48,
    ) {
        // The by-reference shuffle contract: a segment fetched as a
        // window of a larger backing (what a reducer gets from a stored
        // map output, raw or under any registered codec) must
        // reduce-merge to exactly what an owned, detached copy of the
        // same segment produces.
        let mut pairs: Vec<(u64, u64)> = pairs;
        pairs.sort_unstable();
        let codec = pick_codec(codec_pick);
        let seg = Segment::from_pairs(&pairs, codec);
        let want_codec = if pairs.is_empty() { Codec::Raw } else { codec };
        prop_assert_eq!(seg.codec, want_codec);
        let mut buf = vec![0x11u8; prefix];
        write_frame(&seg, &mut buf);
        let shared = SharedBytes::from_vec(buf);
        let (fetched, _) = read_frame(&shared, prefix).expect("frame must parse");
        prop_assert!(fetched.data.same_backing(&shared));
        let owned = Segment {
            data: SharedBytes::from_vec(fetched.data.to_vec()),
            ..fetched.clone()
        };
        let c1 = Counters::new();
        let c2 = Counters::new();
        let by_ref = reduce_merge::<u64, u64>(vec![fetched], 4, &c1);
        let by_copy = reduce_merge::<u64, u64>(vec![owned], 4, &c2);
        prop_assert_eq!(by_ref, by_copy);
        prop_assert_eq!(c1.get("shuffle.records"), pairs.len() as u64);
    }

    #[test]
    fn checksum_verify_roundtrips_across_codecs_and_corruption(
        partitions in proptest::collection::vec(
            proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..60),
            1..5,
        ),
        codec_pick in any::<u8>(),
        block_shift in 7u32..11,
        block_frac in 0u32..1000,
        replica_frac in 0u32..1000,
    ) {
        // A stored map output — raw frames or frames under any
        // registered codec, arbitrary block sizes cutting frames
        // mid-payload — must fetch back partition-exact even after an
        // arbitrary replica of an arbitrary block is bit-flipped:
        // verify-on-read quarantines the rot, serves from the survivor,
        // and repairs, so the codec layer above never sees a damaged
        // byte.
        use gesall_dfs::{metrics_keys, DefaultPlacement, Dfs, DfsConfig, ReadAffinity};
        use gesall_mapreduce::shipping;

        let pairs: Vec<Vec<(String, u64)>> = partitions;
        let codec = pick_codec(codec_pick);
        let segments: Vec<Segment> = pairs
            .iter()
            .map(|p| Segment::from_pairs(p, codec))
            .collect();
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 1usize << block_shift,
            replication: 2,
            ..DfsConfig::default()
        });
        let counters = Counters::new();
        let path = "/job/shuffle-0/map-00000.segs";
        shipping::store_map_output(&dfs, path, &segments, &DefaultPlacement, &counters)
            .expect("store must succeed");
        let info = dfs.stat(path).expect("stored file must stat");
        let n_blocks = info.blocks.len();
        prop_assert!(n_blocks >= 1);
        let block = (block_frac as usize * n_blocks / 1000).min(n_blocks - 1);
        let n_replicas = info.blocks[block].nodes.len();
        let replica = (replica_frac as usize * n_replicas / 1000).min(n_replicas - 1);
        dfs.corrupt_block(path, block, replica).expect("corruption must land");

        for (r, expected) in pairs.iter().enumerate() {
            let seg = shipping::fetch_partition(&dfs, path, r, ReadAffinity::NONE, &counters)
                .expect("fetch must survive one corrupt replica");
            prop_assert_eq!(seg.codec, segments[r].codec, "codec tag must round-trip");
            let back: Vec<(String, u64)> = seg.to_pairs();
            prop_assert_eq!(&back, expected, "partition {} must be byte-faithful", r);
        }
        let detected = dfs.metrics().counter(metrics_keys::BLOCKS_CORRUPT_DETECTED).get();
        let repaired = dfs.metrics().counter(metrics_keys::BLOCKS_CORRUPT_REPAIRED).get();
        // The flipped replica is only detected if some fetch actually
        // read it (replica 1 homes may never serve), but any detection
        // must have been repaired in full.
        prop_assert!(detected <= 1);
        prop_assert_eq!(repaired, detected);
    }

    #[test]
    fn streaming_merge_equals_materialized_oracle(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..200, any::<u64>()), 0..80),
            0..12,
        ),
        merge_factor in 2usize..=16,
    ) {
        // The streaming reduce merge (lazy run cursors, merge_factor-
        // bounded residency) must be indistinguishable from the eager
        // materializing oracle on any mix of run sizes, codecs, and
        // fan-ins — including empty runs, singleton runs, duplicate
        // keys across runs, and run counts forcing multipass merges.
        // Every registered codec (Raw included) rotates through the
        // mix, so a new registry entry is exercised here without editing
        // the test.
        let segments: Vec<Segment> = runs
            .into_iter()
            .enumerate()
            .map(|(i, mut pairs)| {
                pairs.sort_unstable();
                Segment::from_pairs(&pairs, pick_codec(i as u8))
            })
            .collect();
        let total_records: u64 = segments.iter().map(|s| s.records).sum();
        let c_stream = Counters::new();
        let streaming =
            reduce_merge::<u64, u64>(segments.clone(), merge_factor, &c_stream);
        let materialized = reduce_merge_materialized::<u64, u64>(segments, merge_factor);
        prop_assert_eq!(streaming, materialized);
        // The streaming path keeps the shuffle accounting intact.
        prop_assert_eq!(c_stream.get("shuffle.records"), total_records);
        // The streaming path reports its residency peak whenever it
        // actually held records.
        if total_records > 0 {
            prop_assert!(c_stream.get("mem.reduce.peak_resident") > 0);
        }
    }
}

/// Slowdowns a task's first attempt may be charged: none, under the
/// speculation floor, just over it, well over it, and a straggler no
/// backup can lose to.
const SLOWDOWNS_MS: [u64; 5] = [0, 10, 30, 100, 5_000];

/// What a faulted run must reproduce on every cluster: the attempt
/// history, the speculation and backoff counters, and the output.
type Replay = (Vec<String>, [u64; 3], Vec<(u64, u64)>);

fn run_faulted(records: &[(u64, u64)], plan: &FaultPlan, nodes: usize, slots: usize) -> Replay {
    let engine = MapReduceEngine::new(ClusterResources::uniform(nodes, slots, 1 << 20))
        .with_fault_plan(plan.clone());
    let splits: Vec<InputSplit<u64, u64>> = records
        .chunks(records.len().div_ceil(6).max(1))
        .enumerate()
        .map(|(i, c)| InputSplit::new(format!("s{i}"), c.to_vec()))
        .collect();
    let cfg = JobConfig {
        n_reducers: 4,
        io_sort_bytes: 1 << 12,
        ..JobConfig::default()
    };
    let res = engine
        .run_job(cfg, &KeyMod(17), &SumAndCount, &HashPartitioner, splits)
        .expect("bounded panics must be survivable");
    let counts = [keys::SPECULATIVE_LAUNCHED, keys::SPECULATIVE_WASTED, keys::BACKOFF_CHARGED_MS]
        .map(|k| res.counters.get(k));
    let mut all: Vec<(u64, u64)> = res.outputs.iter().flatten().copied().collect();
    all.sort_unstable();
    (res.history(), counts, all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn slowdown_schedules_replay_exactly(
        records in proptest::collection::vec((0u64..1000, 0u64..1_000_000), 6..300),
        seed in any::<u64>(),
        map_pct in 0u64..40,
        reduce_pct in 0u64..40,
        map_slow in proptest::collection::vec(0usize..5, 6),
        reduce_slow in proptest::collection::vec(0usize..5, 4),
    ) {
        // Panics and slowdowns are a plan, and every decision they touch
        // (retry, backoff, backup, who wins) is computed from it: one
        // plan, one history, whatever the cluster's shape.
        let mut plan = FaultPlan::seeded(seed)
            .with_map_panic_rate(map_pct as f64 / 100.0)
            .with_reduce_panic_rate(reduce_pct as f64 / 100.0);
        for (task, &pick) in map_slow.iter().enumerate() {
            plan = plan.slow_down(TaskKind::Map, task, 0, SLOWDOWNS_MS[pick]);
        }
        for (task, &pick) in reduce_slow.iter().enumerate() {
            plan = plan.slow_down(TaskKind::Reduce, task, 0, SLOWDOWNS_MS[pick]);
        }
        let (_, _, fault_free) = run_faulted(&records, &FaultPlan::default(), 1, 1);
        let want = run_faulted(&records, &plan, 1, 1);
        prop_assert_eq!(&want.2, &fault_free);
        for (nodes, slots) in [(3, 2), (4, 4)] {
            prop_assert_eq!(&run_faulted(&records, &plan, nodes, slots), &want);
        }
    }
}

/// Allowed growth of the streaming reduce-merge's peak resident bytes
/// when the number of input runs doubles at a fixed `merge_factor`. The
/// bound is `merge_factor` × run size, independent of run count, so the
/// ratio should be ~1.0; the slack absorbs head-record jitter.
const PEAK_RESIDENT_FLATNESS: f64 = 1.25;

#[test]
fn streaming_merge_peak_resident_is_flat_in_run_count() {
    // Deterministic: same runs, same peak.
    let peak = |n_runs: u64, merge_factor: usize| -> u64 {
        let segments: Vec<Segment> = (0..n_runs)
            .map(|r| {
                let mut pairs: Vec<(u64, u64)> =
                    (0..512u64).map(|i| ((i * 131 + r * 17) % 1024, i)).collect();
                pairs.sort_unstable();
                Segment::from_pairs(&pairs, Codec::Lz)
            })
            .collect();
        let bag = Counters::new();
        let _ = reduce_merge::<u64, u64>(segments, merge_factor, &bag);
        bag.get("mem.reduce.peak_resident")
    };
    let (peak_n, peak_2n) = (peak(8, 4), peak(16, 4));
    assert!(peak_n > 0);
    assert!(
        peak_2n as f64 <= peak_n as f64 * PEAK_RESIDENT_FLATNESS,
        "doubling input runs moved the streaming merge's peak from {peak_n} to {peak_2n} bytes \
         (> {PEAK_RESIDENT_FLATNESS}x) — the merge is no longer memory-bounded"
    );
}

// ---------------------------------------------------------------------
// Spill kernels: the loser-tree merge pinned to the heap reference, and
// the whole map-side sort-spill-merge (radix spill sort on the encoder
// pool, multi-spill merge) pinned to a straight-line partition-and-sort.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loser_tree_merge_matches_heap(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..64, any::<u64>()), 0..40),
            0..14,
        ),
    ) {
        // Narrow key range forces heavy duplication, so the stable
        // tie-break (lower run index first) is exercised constantly;
        // run counts cover 1, powers of two and odd counts past 8.
        let sorted: Vec<Vec<(u64, u64)>> = runs
            .into_iter()
            .map(|mut r| { r.sort_by_key(|a| a.0); r })
            .collect();
        prop_assert_eq!(
            merge_runs::<u64, u64>(sorted.clone()),
            merge_runs_heap::<u64, u64>(sorted)
        );
    }

    #[test]
    fn loser_tree_merge_matches_heap_on_strings(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u32..40, any::<u64>()), 0..30),
            1..9,
        ),
    ) {
        // Shared-prefix string keys: the first-8-bytes sort prefix ties
        // everywhere and the Ord fallback decides.
        let sorted: Vec<Vec<(String, u64)>> = runs
            .into_iter()
            .map(|r| {
                let mut r: Vec<(String, u64)> = r
                    .into_iter()
                    .map(|(k, v)| (format!("read-{k:04}"), v))
                    .collect();
                r.sort_by(|a, b| a.0.cmp(&b.0));
                r
            })
            .collect();
        prop_assert_eq!(
            merge_runs::<String, u64>(sorted.clone()),
            merge_runs_heap::<String, u64>(sorted)
        );
    }

    #[test]
    fn sort_spill_merge_equals_partition_and_sort(
        records in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..400),
        n_partitions in 1usize..6,
        io_sort_bytes in 64usize..4096,
    ) {
        // Any emission stream and spill pattern: the segments are the
        // stable per-partition sort of what was emitted.
        let p = HashPartitioner;
        let mut buf = SortSpillBuffer::new(
            io_sort_bytes,
            n_partitions,
            &p,
            Codec::Raw,
            Counters::new(),
        );
        for &(k, v) in &records {
            buf.emit(k, v);
        }
        let got: Vec<Vec<(u64, u64)>> = buf.finish().iter().map(|s| s.to_pairs()).collect();
        prop_assert_eq!(got, partition_and_sort(&records, n_partitions, &p));
    }

    #[test]
    fn sort_spill_merge_equals_partition_and_sort_on_strings(
        records in proptest::collection::vec((0u32..200, any::<u64>()), 0..300),
        n_partitions in 1usize..5,
    ) {
        // String keys with a long shared prefix: every radix sort prefix
        // ties, so the spill sort leans entirely on its comparison
        // fallback and must still match record for record. Payloads are
        // large enough that partitions cross COMPRESS_MIN_BYTES and
        // travel compressed.
        let p = HashPartitioner;
        let keyed: Vec<(String, u64)> = records
            .into_iter()
            .map(|(k, v)| (format!("sample-0001-read-{k:06}"), v))
            .collect();
        let mut buf = SortSpillBuffer::new(
            512,
            n_partitions,
            &p,
            Codec::Lz,
            Counters::new(),
        );
        for (k, v) in keyed.iter().cloned() {
            buf.emit(k, v);
        }
        let segs = buf.finish();
        for s in &segs {
            prop_assert_eq!(s.is_compressed(), s.raw_len >= COMPRESS_MIN_BYTES);
        }
        let got: Vec<Vec<(String, u64)>> = segs.iter().map(|s| s.to_pairs()).collect();
        prop_assert_eq!(got, partition_and_sort(&keyed, n_partitions, &p));
    }
}
