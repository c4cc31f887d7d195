//! The map side of the shuffle: emitted records buffer in the
//! [`SortSpillBuffer`] (`io.sort.mb`), each full buffer is bucketed by
//! partition and radix-sorted into one run per partition (a spill), and
//! `finish` merges every spill into one sorted, encoded [`Segment`] per
//! partition, through the [`SpillArena`]'s recycled scratch.

use super::{encode_pairs, merge_runs, Segment, COMPRESS_MIN_BYTES};
use crate::counters::{keys, Counters};
use crate::task::Partitioner;
use gesall_formats::wire::Wire;
use gesall_formats::{Codec, SharedBytes};
use gesall_telemetry::{kernel_keys, Phase};
use std::time::Instant;

/// Free-list cap for [`SpillArena`]: holding more released scratch
/// buffers than this drops them (counted under [`keys::SPILL_EVICTED`])
/// instead of growing the list without bound.
pub const SPILL_ARENA_MAX_FREE: usize = 8;

/// Recycled spill-scratch memory: a free-list of encode buffers so a
/// map task's merge serializes every partition through the same
/// allocation instead of growing a fresh `Vec` per partition (or, in
/// the old path, per record). [`SpillArena::acquire`] counts every
/// hand-out under [`keys::SPILL_ALLOCS`] and recycled ones under
/// [`keys::SPILL_REUSED`]. The free-list is capped: releases past
/// [`SPILL_ARENA_MAX_FREE`] drop the buffer and count under
/// [`keys::SPILL_EVICTED`], so arena memory stays bounded no matter how
/// many buffers cycle through.
pub struct SpillArena {
    free: Vec<Vec<u8>>,
    counters: Counters,
}

impl SpillArena {
    pub fn new(counters: Counters) -> SpillArena {
        SpillArena {
            free: Vec::new(),
            counters,
        }
    }

    /// Check out a cleared buffer with at least `cap` capacity,
    /// recycling a released one when available.
    pub fn acquire(&mut self, cap: usize) -> Vec<u8> {
        self.counters.add(keys::SPILL_ALLOCS, 1);
        match self.free.pop() {
            Some(mut buf) => {
                self.counters.add(keys::SPILL_REUSED, 1);
                buf.clear();
                buf.reserve(cap);
                buf
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return a buffer for the next `acquire`; dropped (and counted)
    /// when the free-list is already at capacity.
    pub fn release(&mut self, buf: Vec<u8>) {
        if self.free.len() >= SPILL_ARENA_MAX_FREE {
            self.counters.add(keys::SPILL_EVICTED, 1);
            return;
        }
        self.free.push(buf);
    }
}

/// Runs shorter than this skip the radix machinery — a stable
/// comparison sort wins outright on tiny inputs.
const RADIX_MIN_RUN: usize = 64;

/// LSD radix sort of one partition's run, stable, keyed on
/// [`Wire::sort_prefix`] (DESIGN.md §13). The permutation is computed
/// over 16-byte `(prefix, index)` items — the typed pairs move exactly
/// once, at the end — and constant prefix bytes skip their pass
/// entirely. Because `sort_prefix` is order-consistent
/// (`k₁ < k₂ ⇒ prefix(k₁) ≤ prefix(k₂)`), equal-prefix items end up
/// contiguous; each such tie run that isn't already key-ordered gets a
/// stable comparison sort, so the final order — including stability
/// across equal keys — is exactly `sort_by(key)`'s. Types that keep the
/// default prefix of 0 degenerate to one big tie run (correct, just not
/// faster). Returns (radix passes executed, comparison fallbacks).
fn radix_sort_run<K: Wire + Ord, V: Wire>(run: &mut Vec<(K, V)>) -> (u64, u64) {
    let n = run.len();
    if n <= 1 {
        return (0, 0);
    }
    if n < RADIX_MIN_RUN {
        run.sort_by(|a, b| a.0.cmp(&b.0));
        return (0, 1);
    }
    let mut items: Vec<(u64, u32)> = run
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (k.sort_prefix(), i as u32))
        .collect();
    let mut scratch: Vec<(u64, u32)> = vec![(0, 0); n];
    let mut passes = 0u64;
    for byte in 0..8 {
        let shift = byte * 8;
        let mut counts = [0usize; 256];
        for &(p, _) in &items {
            counts[((p >> shift) & 0xff) as usize] += 1;
        }
        if counts.contains(&n) {
            continue; // constant byte — this pass would be the identity
        }
        passes += 1;
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &c) in offsets.iter_mut().zip(&counts) {
            *o = acc;
            acc += c;
        }
        for &(p, i) in &items {
            let b = ((p >> shift) & 0xff) as usize;
            scratch[offsets[b]] = (p, i);
            offsets[b] += 1;
        }
        std::mem::swap(&mut items, &mut scratch);
    }
    // Move the typed pairs into prefix order (their one move).
    let mut src: Vec<Option<(K, V)>> = run.drain(..).map(Some).collect();
    run.extend(
        items
            .iter()
            .map(|&(_, i)| src[i as usize].take().expect("permutation visits each index once")),
    );
    // Settle equal-prefix tie runs with a stable comparison sort.
    let mut fallbacks = 0u64;
    let mut start = 0usize;
    while start < n {
        let prefix = items[start].0;
        let mut end = start + 1;
        while end < n && items[end].0 == prefix {
            end += 1;
        }
        if end - start > 1 && run[start..end].windows(2).any(|w| w[0].0 > w[1].0) {
            run[start..end].sort_by(|a, b| a.0.cmp(&b.0));
            fallbacks += 1;
        }
        start = end;
    }
    (passes, fallbacks)
}

/// Sort a spill batch by (partition, key) and bucket it into one sorted
/// run per partition — the work of one spill: bucket by partition with
/// a stable counting scatter, then radix-sort each run
/// ([`radix_sort_run`]); pass/fallback activity lands on the
/// `kernel.sort.*` counters.
fn sort_and_bucket<K: Wire + Ord, V: Wire>(
    batch: Vec<(usize, K, V)>,
    n_partitions: usize,
    counters: &Counters,
) -> Vec<Vec<(K, V)>> {
    let mut counts = vec![0usize; n_partitions];
    for (p, _, _) in &batch {
        counts[*p] += 1;
    }
    let mut runs: Vec<Vec<(K, V)>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (p, k, v) in batch {
        runs[p].push((k, v));
    }
    let mut passes = 0u64;
    let mut fallbacks = 0u64;
    for run in &mut runs {
        let (p, f) = radix_sort_run(run);
        passes += p;
        fallbacks += f;
    }
    if passes > 0 {
        counters.add(kernel_keys::SORT_RADIX_PASSES, passes);
    }
    if fallbacks > 0 {
        counters.add(kernel_keys::SORT_COMPARISON_FALLBACKS, fallbacks);
    }
    runs
}

/// One spill's output: a sorted run per reduce partition.
type SpillRuns<K, V> = Vec<Vec<(K, V)>>;

/// The map-side sort buffer.
pub struct SortSpillBuffer<'a, K: Wire + Ord + Clone, V: Wire> {
    io_sort_bytes: usize,
    n_partitions: usize,
    partitioner: &'a dyn Partitioner<K>,
    /// Codec partitions of at least [`COMPRESS_MIN_BYTES`] travel under
    /// ([`Codec::Raw`] = compression off).
    codec: Codec,
    current: Vec<(usize, K, V)>,
    current_bytes: usize,
    /// The sorted runs of every spill so far, in emission order.
    spills: Vec<SpillRuns<K, V>>,
    counters: Counters,
}

impl<'a, K: Wire + Ord + Clone, V: Wire> SortSpillBuffer<'a, K, V> {
    pub fn new(
        io_sort_bytes: usize,
        n_partitions: usize,
        partitioner: &'a dyn Partitioner<K>,
        codec: Codec,
        counters: Counters,
    ) -> Self {
        SortSpillBuffer {
            io_sort_bytes: io_sort_bytes.max(1),
            n_partitions: n_partitions.max(1),
            partitioner,
            codec,
            current: Vec::new(),
            current_bytes: 0,
            spills: Vec::new(),
            counters,
        }
    }

    /// Buffer one record by move; spill when full. Sizing comes from
    /// [`Wire::encoded_len`] — a closed form for every key and value the
    /// workspace shuffles; a type left on the trait's measuring default
    /// would be encoded here and again in `finish` just to be measured —
    /// so nothing is serialized (or copied) until
    /// [`SortSpillBuffer::finish`] writes the single output backing.
    pub fn emit(&mut self, key: K, value: V) {
        let sz = key.encoded_len() + value.encoded_len();
        self.current_bytes += sz;
        self.counters.add(keys::MAP_OUTPUT_BYTES, sz as u64);
        self.counters.add(keys::MAP_OUTPUT_RECORDS, 1);
        let p = self.partitioner.partition(&key, self.n_partitions);
        self.current.push((p, key, value));
        if self.current_bytes >= self.io_sort_bytes {
            self.spill();
        }
    }

    fn spill(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.current);
        self.current_bytes = 0;
        self.counters.add(keys::MAP_SPILLS, 1);
        let t0 = Instant::now();
        let runs = sort_and_bucket(batch, self.n_partitions, &self.counters);
        self.counters
            .add(Phase::SortSpill.counter_key(), t0.elapsed().as_nanos() as u64);
        self.spills.push(runs);
    }

    /// Finish the map task: spill what is buffered, then merge all
    /// spills, in emission order, into one sorted segment per partition.
    pub fn finish(mut self) -> Vec<Segment> {
        self.spill();
        let t0 = Instant::now();
        let n_spills = self.spills.len();
        if n_spills > 1 {
            self.counters
                .add(keys::MAP_MERGE_SEGMENTS, n_spills as u64);
        }
        let mut per_partition: Vec<Vec<Vec<(K, V)>>> =
            (0..self.n_partitions).map(|_| Vec::new()).collect();
        for spill in self.spills {
            for (p, run) in spill.into_iter().enumerate() {
                if !run.is_empty() {
                    per_partition[p].push(run);
                }
            }
        }
        // Serialize every partition into ONE backing buffer; the
        // returned segments are O(1) slices of it, so reduce-side
        // fetches share the allocation instead of copying. Compressed
        // partitions encode raw into an arena-recycled scratch first
        // (one real allocation per task, reused across partitions),
        // then the codec appends to the backing.
        let mut arena = SpillArena::new(self.counters.clone());
        let mut backing: Vec<u8> = Vec::new();
        let mut metas: Vec<(usize, usize, usize, u64, Codec)> = Vec::new();
        for runs in per_partition {
            let merged = if runs.len() == 1 {
                runs.into_iter().next().unwrap()
            } else {
                merge_runs(runs)
            };
            let raw_len: usize = merged
                .iter()
                .map(|(k, v)| k.encoded_len() + v.encoded_len())
                .sum();
            let start = backing.len();
            let codec = if raw_len >= COMPRESS_MIN_BYTES {
                self.codec
            } else {
                Codec::Raw
            };
            if codec.is_compressed() {
                let mut scratch = arena.acquire(raw_len);
                encode_pairs(&merged, &mut scratch);
                codec.encode_append(&scratch, &mut backing);
                arena.release(scratch);
                // Raw encode into scratch + the codec's one write to backing.
                let copied = raw_len + (backing.len() - start);
                self.counters.add(keys::BYTES_COPIED, copied as u64);
            } else {
                backing.reserve(raw_len);
                encode_pairs(&merged, &mut backing);
                self.counters.add(keys::BYTES_COPIED, raw_len as u64);
            }
            metas.push((start, backing.len(), raw_len, merged.len() as u64, codec));
        }
        let backing = SharedBytes::from_vec(backing);
        let segments: Vec<Segment> = metas
            .into_iter()
            .map(|(start, end, raw_len, records, codec)| Segment {
                data: backing.slice(start..end),
                raw_len,
                records,
                codec,
            })
            .collect();
        self.counters
            .add(Phase::MapMerge.counter_key(), t0.elapsed().as_nanos() as u64);
        segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::HashPartitioner;

    /// Reference for [`sort_and_bucket`]: one stable comparison sort by
    /// (partition, key), then a split into per-partition runs.
    fn sort_and_bucket_comparison<K: Wire + Ord, V: Wire>(
        mut batch: Vec<(usize, K, V)>,
        n_partitions: usize,
    ) -> Vec<Vec<(K, V)>> {
        batch.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut runs: Vec<Vec<(K, V)>> = (0..n_partitions).map(|_| Vec::new()).collect();
        for (p, k, v) in batch {
            runs[p].push((k, v));
        }
        runs
    }

    #[test]
    fn radix_sort_matches_comparison_reference() {
        let mut x = 99u64;
        let mut rand = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let counters = Counters::new();
        // String keys exercise the 8-byte-prefix + tie-run path; shared
        // long prefixes force comparison fallbacks past byte 8.
        let batch: Vec<(usize, String, u64)> = (0..500)
            .map(|i| {
                let p = (rand() % 3) as usize;
                let k = format!("shared-prefix-{:06}", rand() % 120);
                (p, k, i)
            })
            .collect();
        let fast = sort_and_bucket(batch.clone(), 3, &counters);
        let slow = sort_and_bucket_comparison(batch, 3);
        assert_eq!(fast, slow);
        assert!(counters.get(kernel_keys::SORT_COMPARISON_FALLBACKS) > 0);

        // u64 keys: prefix IS the key — passes run, no unsorted tie runs.
        let counters = Counters::new();
        let batch: Vec<(usize, u64, u64)> = (0..500)
            .map(|i| ((rand() % 2) as usize, rand() % 100_000, i))
            .collect();
        let fast = sort_and_bucket(batch.clone(), 2, &counters);
        let slow = sort_and_bucket_comparison(batch, 2);
        assert_eq!(fast, slow);
        assert!(counters.get(kernel_keys::SORT_RADIX_PASSES) > 0);
        assert_eq!(counters.get(kernel_keys::SORT_COMPARISON_FALLBACKS), 0);
    }

    #[test]
    fn radix_sort_run_edge_cases() {
        // Empty and singleton runs cost nothing.
        let mut run: Vec<(u64, u64)> = vec![];
        assert_eq!(radix_sort_run(&mut run), (0, 0));
        let mut run = vec![(5u64, 0u64)];
        assert_eq!(radix_sort_run(&mut run), (0, 0));
        // All-equal keys: stability preserves emission order, no
        // fallback sort is spent on an already-ordered tie run.
        let mut run: Vec<(u64, u64)> = (0..200).map(|i| (7u64, i)).collect();
        let (_, fallbacks) = radix_sort_run(&mut run);
        assert_eq!(fallbacks, 0);
        assert_eq!(run, (0..200).map(|i| (7u64, i)).collect::<Vec<_>>());
        // Signed keys cross the negative/positive boundary correctly.
        let mut run: Vec<(i64, u64)> = (0..200i64)
            .map(|i| (if i % 2 == 0 { -i } else { i }, i as u64))
            .collect();
        let mut expect = run.clone();
        radix_sort_run(&mut run);
        expect.sort_by_key(|a| a.0);
        assert_eq!(run, expect);
    }

    #[test]
    fn sort_buffer_spills_when_full() {
        let counters = Counters::new();
        let p = HashPartitioner;
        let mut buf: SortSpillBuffer<'_, u64, u64> =
            SortSpillBuffer::new(256, 2, &p, Codec::Raw, counters.clone());
        for i in 0..200u64 {
            buf.emit(i % 37, i);
        }
        let segs = buf.finish();
        assert_eq!(segs.len(), 2);
        assert!(counters.get(keys::MAP_SPILLS) > 1, "tiny buffer must spill");
        assert_eq!(counters.get(keys::MAP_OUTPUT_RECORDS), 200);
        // All records preserved, each segment sorted.
        let mut n = 0;
        for s in &segs {
            let pairs: Vec<(u64, u64)> = s.to_pairs();
            assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
            n += pairs.len();
        }
        assert_eq!(n, 200);
    }

    #[test]
    fn partitioning_respects_partitioner() {
        let counters = Counters::new();
        let p = crate::task::FnPartitioner::new(|k: &u64, n| (*k as usize) % n);
        let mut buf: SortSpillBuffer<'_, u64, String> =
            SortSpillBuffer::new(1 << 20, 3, &p, Codec::Raw, counters);
        for i in 0..60u64 {
            buf.emit(i, format!("v{i}"));
        }
        let segs = buf.finish();
        for (pi, s) in segs.iter().enumerate() {
            for (k, _) in s.to_pairs::<u64, String>() {
                assert_eq!(k as usize % 3, pi);
            }
        }
    }

    #[test]
    fn finish_partitions_share_one_backing() {
        // The zero-copy contract of the shuffle: a map task's segments
        // are windows of ONE backing, and the reduce-side fetch (a
        // segment clone) shares it — pointer identity, no payload copy.
        let counters = Counters::new();
        let p = crate::task::FnPartitioner::new(|k: &u64, n| (*k as usize) % n);
        let mut buf: SortSpillBuffer<'_, u64, u64> =
            SortSpillBuffer::new(256, 4, &p, Codec::Raw, counters);
        for i in 0..300u64 {
            buf.emit(i, i * 7);
        }
        let segs = buf.finish();
        assert_eq!(segs.len(), 4);
        for pair in segs.windows(2) {
            assert!(
                pair[0].data.same_backing(&pair[1].data),
                "partition segments must slice one backing"
            );
        }
        let fetched = segs[0].clone();
        assert!(
            fetched.data.same_backing(&segs[0].data),
            "reduce-side fetch must not copy the payload"
        );
    }

    #[test]
    fn spill_arena_recycles_buffers() {
        let counters = Counters::new();
        let mut arena = SpillArena::new(counters.clone());
        let a = arena.acquire(1024);
        arena.release(a);
        let b = arena.acquire(512);
        arena.release(b);
        let _c = arena.acquire(2048);
        assert_eq!(counters.get(keys::SPILL_ALLOCS), 3);
        assert_eq!(counters.get(keys::SPILL_REUSED), 2);
        assert_eq!(counters.get(keys::SPILL_EVICTED), 0);
    }

    #[test]
    fn spill_arena_free_list_is_capped() {
        let counters = Counters::new();
        let mut arena = SpillArena::new(counters.clone());
        let bufs: Vec<Vec<u8>> = (0..SPILL_ARENA_MAX_FREE + 3).map(|_| arena.acquire(64)).collect();
        for b in bufs {
            arena.release(b);
        }
        // The cap is held, the 3 past it dropped.
        assert_eq!(counters.get(keys::SPILL_EVICTED), 3);
        for _ in 0..SPILL_ARENA_MAX_FREE + 1 {
            let _ = arena.acquire(64);
        }
        assert_eq!(counters.get(keys::SPILL_REUSED), SPILL_ARENA_MAX_FREE as u64);
    }

    #[test]
    fn partitions_below_the_compression_threshold_travel_raw() {
        // Partition 0 gets 8 tiny records (well under COMPRESS_MIN_BYTES),
        // partition 1 gets a few KiB: only the latter earns the codec.
        let p = crate::task::FnPartitioner::new(|k: &u64, _| usize::from(*k >= 8));
        let mut buf: SortSpillBuffer<'_, u64, u64> =
            SortSpillBuffer::new(1 << 20, 2, &p, Codec::Lz, Counters::new());
        for i in 0..400u64 {
            buf.emit(i, i % 3);
        }
        let segs = buf.finish();
        assert!(segs[0].raw_len < COMPRESS_MIN_BYTES && segs[1].raw_len >= COMPRESS_MIN_BYTES);
        assert_eq!(segs[0].codec, Codec::Raw);
        assert_eq!(segs[1].codec, Codec::Lz);
    }

    #[test]
    fn sort_buffer_output_is_a_stable_sort_by_partition_then_key() {
        // Whatever the sort-buffer size — one spill, a few, one per
        // handful of records — the merged segments are exactly a stable
        // sort by (partition, key) of the emitted records: spill
        // boundaries, the map-side merge and the radix kernel must all
        // be invisible in the bytes.
        let p = HashPartitioner;
        let records: Vec<(String, u64)> =
            (0..600u64).map(|i| (format!("key{:03}", i % 53), i)).collect();
        let reference = sort_and_bucket_comparison(
            records
                .iter()
                .map(|(k, v)| (Partitioner::partition(&p, k, 3), k.clone(), *v))
                .collect(),
            3,
        );
        for codec in [Codec::Raw, Codec::Lz] {
            for (io_sort_bytes, min_spills) in [(1 << 20, 1), (2048, 2), (128, 30)] {
                let counters = Counters::new();
                let mut buf: SortSpillBuffer<'_, String, u64> =
                    SortSpillBuffer::new(io_sort_bytes, 3, &p, codec, counters.clone());
                for (k, v) in records.iter().cloned() {
                    buf.emit(k, v);
                }
                let segs = buf.finish();
                assert!(counters.get(keys::MAP_SPILLS) >= min_spills);
                let got: Vec<Vec<(String, u64)>> = segs.iter().map(|s| s.to_pairs()).collect();
                assert_eq!(got, reference, "codec {codec:?}, sort buffer {io_sort_bytes}");
                for (seg, run) in segs.iter().zip(&reference) {
                    let want = Segment::from_pairs(run, seg.codec);
                    assert_eq!(&seg.data[..], &want.data[..], "payload bytes must match");
                }
            }
        }
    }
}
