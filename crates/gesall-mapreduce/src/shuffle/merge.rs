//! The reduce side of the shuffle: the loser-tree k-way merge, and the
//! streaming multipass merge a reducer runs over the segments it
//! fetches — at most `merge_factor` runs in flight, intermediate runs
//! re-encoded through the [`SpillArena`].

use super::{Segment, SpillArena};
use crate::counters::{keys, Counters};
use gesall_formats::wire::{Cursor, Wire};
use gesall_formats::SharedBytes;
use gesall_telemetry::Phase;
use std::collections::VecDeque;
use std::time::Instant;

/// A tournament (loser) tree over keyed leaves, the k-way merge kernel
/// (DESIGN.md §13): internal nodes remember the *loser* of their match,
/// so replacing the winner and finding the next one replays only the
/// leaf-to-root path — `log₂ k` comparisons per record, against the
/// binary heap's pop **and** push (each `log k`, plus the tuple moves).
/// `None` keys are +∞ (exhausted leaves); ties go to the lower leaf
/// index, which is exactly [`merge_runs`]' documented stable order.
struct LoserTree<K: Ord> {
    /// `tree[1..cap]` hold the loser leaf of each internal match;
    /// `tree[0]` holds the overall winner.
    tree: Vec<usize>,
    keys: Vec<Option<K>>,
    /// Leaf count, padded to a power of two with `None` leaves.
    cap: usize,
}

impl<K: Ord> LoserTree<K> {
    fn new(mut keys: Vec<Option<K>>) -> LoserTree<K> {
        let cap = keys.len().max(1).next_power_of_two();
        keys.resize_with(cap, || None);
        let mut lt = LoserTree {
            tree: vec![0; cap],
            keys,
            cap,
        };
        // One bottom-up pass: winners bubble up, losers park in `tree`.
        let mut winners = vec![0usize; 2 * cap];
        for i in 0..cap {
            winners[cap + i] = i;
        }
        for node in (1..cap).rev() {
            let (a, b) = (winners[2 * node], winners[2 * node + 1]);
            let (w, l) = if lt.beats(a, b) { (a, b) } else { (b, a) };
            winners[node] = w;
            lt.tree[node] = l;
        }
        lt.tree[0] = winners[1];
        lt
    }

    /// Does leaf `a` come before leaf `b`? `None` = +∞; ties → lower
    /// leaf index (run submission order — the stability contract).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.keys[a], &self.keys[b]) {
            (Some(ka), Some(kb)) => match ka.cmp(kb) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, _) => a < b && self.keys[b].is_none(),
        }
    }

    /// Current winner leaf, or `None` once every leaf is exhausted.
    fn winner(&self) -> Option<usize> {
        let w = self.tree[0];
        self.keys[w].is_some().then_some(w)
    }

    /// Swap the winner leaf's key for `next` (its run's next head) and
    /// replay its path to the root; returns the displaced key.
    fn replace_winner(&mut self, leaf: usize, next: Option<K>) -> Option<K> {
        debug_assert_eq!(leaf, self.tree[0], "only the winner may be replaced");
        let prev = std::mem::replace(&mut self.keys[leaf], next);
        let mut winner = leaf;
        let mut node = (self.cap + leaf) / 2;
        while node >= 1 {
            let loser = self.tree[node];
            if self.beats(loser, winner) {
                self.tree[node] = winner;
                winner = loser;
            }
            node /= 2;
        }
        self.tree[0] = winner;
        prev
    }
}

/// The tournament every k-way merge runs. `pull(i)` yields run `i`'s
/// next record, or `None` once the run is exhausted: it is called once
/// per run to seat the heads, then once each time run `i`'s head wins,
/// before that head goes to `sink`.
fn merge_with<K: Ord, V>(
    n_runs: usize,
    mut pull: impl FnMut(usize) -> Option<(K, V)>,
    mut sink: impl FnMut(K, V),
) {
    let (keys, mut heads): (Vec<Option<K>>, Vec<Option<V>>) =
        (0..n_runs).map(|i| pull(i).unzip()).unzip();
    let mut lt = LoserTree::new(keys);
    while let Some(i) = lt.winner() {
        let v = heads[i].take().expect("head value present for winner run");
        let next = pull(i).map(|(nk, nv)| {
            heads[i] = Some(nv);
            nk
        });
        let k = lt.replace_winner(i, next).expect("winner leaf holds a key");
        sink(k, v);
    }
}

/// Stable k-way merge of sorted runs by key (ties broken by run order,
/// then intra-run order — deterministic). Runs on the `LoserTree`
/// kernel.
pub fn merge_runs<K: Ord, V>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    merge_with(runs.len(), |i| runs[i].next(), |k, v| out.push((k, v)));
    out
}

/// Tracks the decoded-side resident bytes of a streaming merge: what is
/// charged here is materialized working memory (Lz decompress scratch,
/// the ≤ `merge_factor` head records under the heap) — the encoded run
/// storage (source segment windows, arena-recycled rewrite buffers) is
/// the engine's "disk" layer and is accounted under
/// [`keys::REDUCE_MERGE_BYTES`] instead. The peak lands on
/// [`keys::REDUCE_PEAK_RESIDENT`] and is bounded by `merge_factor` ×
/// source-run size, independent of how many runs feed the merge.
#[derive(Debug, Default)]
struct ResidentGauge {
    current: u64,
    peak: u64,
}

impl ResidentGauge {
    fn charge(&mut self, bytes: u64) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    fn release(&mut self, bytes: u64) {
        self.current = self.current.saturating_sub(bytes);
    }
}

/// One sorted run awaiting its turn in the multipass merge: either a
/// still-encoded shuffle segment or a run an earlier pass re-encoded
/// into an arena buffer (raw wire encoding, the in-process stand-in for
/// Hadoop's on-disk intermediate run files).
enum StreamRun {
    Pending(Segment),
    Rewritten { buf: Vec<u8>, records: u64 },
}

/// Where an active run cursor decodes from.
enum RunBuf {
    /// Zero-copy window of the source segment (raw codec) — shares the
    /// map output's backing or the DFS block mapping; nothing new is
    /// resident.
    Shared(SharedBytes),
    /// Owned decode buffer: an Lz segment's decompressed payload
    /// (charged on the gauge) or a rewritten run's arena buffer
    /// (storage-layer, returned to the arena on exhaustion).
    Owned { buf: Vec<u8>, charged: u64 },
}

/// A lazily-decoding cursor over one sorted run: records decode one at
/// a time from the run's byte window, so an active run holds at most
/// its head record in typed form.
struct RunCursor<K, V> {
    buf: RunBuf,
    pos: usize,
    remaining: u64,
    _pd: std::marker::PhantomData<(K, V)>,
}

impl<K: Wire + Ord + Clone, V: Wire> RunCursor<K, V> {
    /// Activate a run for merging. An Lz source decompresses once into
    /// an owned scratch (the one materialization, charged on `gauge`
    /// and timed as shuffle work — it is the deferred half of the
    /// fetch-and-decode the old path did eagerly); raw sources and
    /// rewritten runs decode in place.
    fn activate(
        run: StreamRun,
        gauge: &mut ResidentGauge,
        shuffle_nanos: &mut u64,
    ) -> RunCursor<K, V> {
        let (buf, remaining) = match run {
            StreamRun::Pending(seg) if seg.is_compressed() => {
                let t0 = Instant::now();
                let raw = seg.codec.decode(&seg.data).expect("segment payload corrupt");
                *shuffle_nanos += t0.elapsed().as_nanos() as u64;
                let charged = raw.len() as u64;
                gauge.charge(charged);
                (RunBuf::Owned { buf: raw, charged }, seg.records)
            }
            StreamRun::Pending(seg) => (RunBuf::Shared(seg.data), seg.records),
            // Storage-layer bytes, not decode scratch: nothing charged.
            StreamRun::Rewritten { buf, records } => (RunBuf::Owned { buf, charged: 0 }, records),
        };
        RunCursor {
            buf,
            pos: 0,
            remaining,
            _pd: std::marker::PhantomData,
        }
    }

    /// Decode the next record; returns the pair and its encoded size
    /// (charged on `gauge` until the caller sinks it).
    fn next(&mut self, gauge: &mut ResidentGauge) -> Option<(K, V, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let slice: &[u8] = match &self.buf {
            RunBuf::Shared(b) => b,
            RunBuf::Owned { buf, .. } => buf,
        };
        let tail = &slice[self.pos..];
        let mut cur = Cursor::new(tail);
        let k = K::decode(&mut cur).expect("run key corrupt");
        let v = V::decode(&mut cur).expect("run value corrupt");
        let consumed = (tail.len() - cur.remaining()) as u64;
        self.pos += consumed as usize;
        self.remaining -= 1;
        if self.remaining == 0 {
            assert_eq!(self.pos, slice.len(), "trailing bytes in run");
        }
        gauge.charge(consumed);
        Some((k, v, consumed))
    }

    /// Release an exhausted cursor: uncharge its scratch and return the
    /// owned buffer to the arena for the next rewrite pass.
    fn retire(&mut self, arena: &mut SpillArena, gauge: &mut ResidentGauge) {
        if let RunBuf::Owned { buf, charged } =
            std::mem::replace(&mut self.buf, RunBuf::Shared(SharedBytes::new()))
        {
            gauge.release(charged);
            arena.release(buf);
        }
    }
}

/// Stable streaming k-way merge over run cursors, identical in order to
/// [`merge_runs`] (ties break by cursor index, then intra-run order).
/// At most one head record per cursor is typed-resident at any moment:
/// a winner's head leaves the gauge before its run's next record is
/// decoded onto it, and an exhausted cursor retires at once. The
/// byte-identity proptest against the materializing heap-merge
/// reference (`tests/proptest_engine.rs`) pins the order down.
fn merge_streams<K: Wire + Ord + Clone, V: Wire>(
    mut cursors: Vec<RunCursor<K, V>>,
    arena: &mut SpillArena,
    gauge: &mut ResidentGauge,
    sink: impl FnMut(K, V),
) {
    let n_runs = cursors.len();
    let mut head_bytes = vec![0u64; n_runs];
    let pull = |i: usize| {
        gauge.release(head_bytes[i]);
        match cursors[i].next(gauge) {
            Some((k, v, sz)) => {
                head_bytes[i] = sz;
                Some((k, v))
            }
            None => {
                cursors[i].retire(arena, gauge);
                None
            }
        }
    };
    merge_with(n_runs, pull, sink);
}

/// Reduce-side shuffle + streaming multipass merge: merge one segment
/// per map task down to a single grouped stream.
///
/// The caller promises `n_runs` nonempty source runs up front (from the
/// shipped `SegMeta` record counts) and hands over a `next_segment`
/// supplier that yields every segment in map order — in the engine the
/// supplier *is* the fetch, one DFS range read per call — so a source
/// run is fetched only when a pass activates it. Runs are consumed
/// through lazy `RunCursor`s that decode one record at a time from the
/// segment's (possibly mmap-backed) byte window, so at most
/// `merge_factor` run heads — plus the output run an intermediate pass
/// is writing — are in flight at once, and reducer peak memory does not
/// grow with input size. Intermediate passes re-encode their merged run
/// through the [`SpillArena`] (raw wire encoding, counted under
/// [`keys::REDUCE_MERGE_BYTES`]) and queue it as storage-layer bytes.
/// The decoded-side peak lands on [`keys::REDUCE_PEAK_RESIDENT`]; see
/// `ResidentGauge` for what counts.
///
/// `n_runs` must be promised because the multipass queue discipline
/// (pop `merge_factor` runs from the front, append the rewritten run at
/// the back) makes equal-key output order depend on the number of
/// nonempty runs: knowing the count up front fixes the pass structure —
/// and therefore the output bytes — before any source run is pulled.
/// Empty segments are skipped as merge inputs but still accounted; any
/// left after the last nonempty run are drained at the end.
pub fn reduce_merge_streamed<K: Wire + Ord + Clone, V: Wire>(
    n_runs: usize,
    mut next_segment: impl FnMut() -> Option<Segment>,
    merge_factor: usize,
    counters: &Counters,
) -> Vec<(K, Vec<V>)> {
    let merge_factor = merge_factor.max(2);
    let t0 = Instant::now();
    // Per-segment shuffle accounting, charged as each segment arrives
    // (its decode copies happen lazily, in the merge).
    let account = |s: &Segment| {
        counters.add(keys::SHUFFLE_RECORDS, s.records);
        counters.add(keys::SHUFFLE_BYTES, s.wire_len() as u64);
        counters.add(keys::SHUFFLE_BYTES_RAW, s.raw_len as u64);
        if s.is_compressed() {
            counters.add(keys::SHUFFLE_SEGMENTS_COMPRESSED, 1);
        } else {
            counters.add(keys::SHUFFLE_SEGMENTS_RAW, 1);
        }
        // Decode into typed records, plus the decompressor's write.
        // Saturating: a fetched frame's `raw_len` is untrusted.
        let copied = s.raw_len.saturating_add(if s.is_compressed() { s.raw_len } else { 0 });
        counters.add(keys::BYTES_COPIED, copied as u64);
    };
    // The logical multipass queue: `pending` not-yet-pulled source runs
    // at the front, rewritten runs behind them. Source runs are only
    // materialized (pulled from the supplier) when a pass activates
    // them.
    let mut pending = n_runs;
    let mut rewritten: VecDeque<StreamRun> = VecDeque::new();
    // Lazy decode work (codec decode at cursor activation) and time
    // spent in the supplier (the fetch) are shuffle-phase time; both
    // accumulate here and are attributed at the end so the merge phase
    // doesn't double-count them.
    let mut shuffle_nanos = 0u64;
    let mut pull = |shuffle_nanos: &mut u64| -> StreamRun {
        loop {
            let ta = Instant::now();
            let s = next_segment().expect("supplier ended before promised run count");
            account(&s);
            *shuffle_nanos += ta.elapsed().as_nanos() as u64;
            if s.records > 0 {
                return StreamRun::Pending(s);
            }
        }
    };
    let mut arena = SpillArena::new(counters.clone());
    let mut gauge = ResidentGauge::default();
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    // Each pass activates the front `merge_factor` runs of the queue.
    // While more than that are queued the pass is intermediate: its
    // merged run is re-encoded into an arena buffer and queued at the
    // back. The final pass groups consecutive equal keys straight off
    // the stream.
    loop {
        let queued = pending + rewritten.len();
        let cursors: Vec<RunCursor<K, V>> = (0..queued.min(merge_factor))
            .map(|_| {
                let run = if pending > 0 {
                    pending -= 1;
                    pull(&mut shuffle_nanos)
                } else {
                    rewritten.pop_front().unwrap()
                };
                RunCursor::activate(run, &mut gauge, &mut shuffle_nanos)
            })
            .collect();
        if queued <= merge_factor {
            merge_streams(cursors, &mut arena, &mut gauge, |k: K, v: V| match out.last_mut() {
                Some((lk, vs)) if *lk == k => vs.push(v),
                _ => out.push((k, vec![v])),
            });
            break;
        }
        let mut run = arena.acquire(0);
        let mut records = 0u64;
        merge_streams(cursors, &mut arena, &mut gauge, |k: K, v: V| {
            k.encode(&mut run);
            v.encode(&mut run);
            records += 1;
        });
        counters.add(keys::REDUCE_MERGE_PASSES, 1);
        counters.add(keys::REDUCE_MERGE_BYTES, run.len() as u64);
        rewritten.push_back(StreamRun::Rewritten { buf: run, records });
    }
    // Trailing empty segments (after the last nonempty run) were never
    // pulled by a pass; drain them so their accounting still lands.
    {
        let ta = Instant::now();
        while let Some(s) = next_segment() {
            debug_assert_eq!(s.records, 0, "nonempty run beyond the promised count");
            account(&s);
        }
        shuffle_nanos += ta.elapsed().as_nanos() as u64;
    }
    counters.add(keys::REDUCE_INPUT_GROUPS, out.len() as u64);
    counters.add(keys::REDUCE_PEAK_RESIDENT, gauge.peak);
    counters.add(Phase::Shuffle.counter_key(), shuffle_nanos);
    counters.add(
        Phase::ReduceMerge.counter_key(),
        (t0.elapsed().as_nanos() as u64).saturating_sub(shuffle_nanos),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::SortSpillBuffer;
    use crate::task::HashPartitioner;
    use gesall_formats::Codec;

    /// The batch form of [`reduce_merge_streamed`]: every segment handed
    /// over up front.
    fn reduce_merge<K: Wire + Ord + Clone, V: Wire>(
        segments: Vec<Segment>,
        merge_factor: usize,
        counters: &Counters,
    ) -> Vec<(K, Vec<V>)> {
        let n_runs = segments.iter().filter(|s| s.records > 0).count();
        let mut it = segments.into_iter();
        reduce_merge_streamed(n_runs, move || it.next(), merge_factor, counters)
    }

    #[test]
    fn merge_runs_is_sorted_and_stable() {
        let a = vec![("a".to_string(), 1u64), ("c".into(), 2), ("e".into(), 3)];
        let b = vec![("a".to_string(), 10u64), ("b".into(), 11)];
        let merged = merge_runs(vec![a, b]);
        let keys: Vec<&str> = merged.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "a", "b", "c", "e"]);
        // Stability: run 0's "a" precedes run 1's.
        assert_eq!(merged[0].1, 1);
        assert_eq!(merged[1].1, 10);
    }

    #[test]
    fn merge_runs_empty_inputs() {
        let merged: Vec<(u64, u64)> = merge_runs(vec![]);
        assert!(merged.is_empty());
        let merged: Vec<(u64, u64)> = merge_runs(vec![vec![], vec![(1, 2)], vec![]]);
        assert_eq!(merged, vec![(1, 2)]);
    }

    #[test]
    fn reduce_merge_groups_by_key() {
        let counters = Counters::new();
        let seg1 = Segment::from_pairs(&[(1u64, 10u64), (2, 20)], Codec::Raw);
        let seg2 = Segment::from_pairs(&[(1u64, 11u64), (3, 30)], Codec::Raw);
        let grouped = reduce_merge::<u64, u64>(vec![seg1, seg2], 10, &counters);
        assert_eq!(
            grouped,
            vec![(1, vec![10, 11]), (2, vec![20]), (3, vec![30])]
        );
        assert_eq!(counters.get(keys::SHUFFLE_RECORDS), 4);
        assert_eq!(counters.get(keys::REDUCE_INPUT_GROUPS), 3);
        assert_eq!(counters.get(keys::REDUCE_MERGE_PASSES), 0);
        assert_eq!(counters.get(keys::SHUFFLE_SEGMENTS_RAW), 2);
        assert_eq!(counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED), 0);
    }

    #[test]
    fn reduce_merge_multipass_when_many_segments() {
        let counters = Counters::new();
        let segments: Vec<Segment> = (0..20u64)
            .map(|s| Segment::from_pairs(&[(s, s * 100), (s + 100, s)], Codec::Raw))
            .collect();
        let grouped = reduce_merge::<u64, u64>(segments, 4, &counters);
        assert_eq!(grouped.len(), 40);
        assert!(
            counters.get(keys::REDUCE_MERGE_PASSES) >= 4,
            "20 segments at factor 4 need multiple passes, got {}",
            counters.get(keys::REDUCE_MERGE_PASSES)
        );
        assert!(counters.get(keys::REDUCE_MERGE_BYTES) > 0);
        // Sorted overall.
        let ks: Vec<u64> = grouped.iter().map(|(k, _)| *k).collect();
        let mut sorted = ks.clone();
        sorted.sort_unstable();
        assert_eq!(ks, sorted);
    }

    #[test]
    fn fewer_segments_than_factor_means_no_extra_pass() {
        let counters = Counters::new();
        let segments: Vec<Segment> = (0..5u64)
            .map(|s| Segment::from_pairs(&[(s, s)], Codec::Raw))
            .collect();
        let _ = reduce_merge::<u64, u64>(segments, 10, &counters);
        assert_eq!(counters.get(keys::REDUCE_MERGE_PASSES), 0);
    }

    #[test]
    fn shuffle_roundtrip_compression_on_off() {
        // End-to-end sort-spill-merge → reduce fetch, with the codec on
        // and off: grouped output must be identical either way.
        let p = HashPartitioner;
        let mut outputs = Vec::new();
        for codec in [Codec::Raw, Codec::Lz] {
            let counters = Counters::new();
            let mut buf: SortSpillBuffer<'_, String, u64> =
                SortSpillBuffer::new(512, 3, &p, codec, counters.clone());
            for i in 0..400u64 {
                buf.emit(format!("key{:03}", i % 40), i);
            }
            let segs = buf.finish();
            if codec.is_compressed() {
                assert!(
                    segs.iter().any(|s| s.is_compressed()),
                    "repetitive keys above the threshold must compress"
                );
            } else {
                assert!(segs.iter().all(|s| !s.is_compressed()));
            }
            let mut grouped = Vec::new();
            for seg in segs {
                grouped.extend(reduce_merge::<String, u64>(vec![seg], 4, &counters));
            }
            grouped.sort();
            assert_eq!(counters.get(keys::SHUFFLE_RECORDS), 400);
            outputs.push(grouped);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0].len(), 40);
    }

    #[test]
    fn accounting_a_fetched_frame_with_a_hostile_raw_len_does_not_overflow() {
        // A compressed frame's `raw_len` is untrusted header bytes that
        // `read_frame` cannot check; an empty one is accounted but never
        // decoded, so the accounting itself must not overflow.
        let counters = Counters::new();
        let hostile = Segment {
            data: SharedBytes::new(),
            raw_len: usize::MAX,
            records: 0,
            codec: Codec::Lz,
        };
        let mut it = vec![hostile].into_iter();
        let grouped = reduce_merge_streamed::<u64, u64>(0, move || it.next(), 2, &counters);
        assert!(grouped.is_empty());
        assert_eq!(counters.get(keys::BYTES_COPIED), u64::MAX);
    }
}
