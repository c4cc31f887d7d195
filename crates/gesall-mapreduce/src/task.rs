//! Mapper / Reducer traits and their emit contexts.

use crate::counters::Counters;
use gesall_formats::wire::Wire;

/// A map function over typed records. `map` is called once per input
/// record; emitted pairs flow into the sort-spill-merge pipeline.
///
/// `map` takes its record **by reference**: the fault-tolerant runtime
/// keeps splits alive for the whole wave so that retried or speculative
/// attempts start from pristine input, and handing out references lets
/// every attempt share that one copy instead of cloning each record per
/// call. Mappers that need owned data clone exactly the fields they
/// keep. The `Clone + Sync` bounds remain for split staging.
pub trait Mapper: Send + Sync {
    type InKey: Wire + Clone + Send + Sync;
    type InValue: Wire + Clone + Send + Sync;
    type OutKey: Wire + Ord + Clone + Send;
    type OutValue: Wire + Send;

    fn map(
        &self,
        key: &Self::InKey,
        value: &Self::InValue,
        ctx: &mut MapContext<'_, Self::OutKey, Self::OutValue>,
    );

    /// Called once per input split after its last record — for batch-style
    /// mappers (e.g. a wrapped aligner) that buffer input and flush here.
    fn finish(&self, _ctx: &mut MapContext<'_, Self::OutKey, Self::OutValue>) {}
}

/// A reduce function: one call per distinct key with all its values.
pub trait Reducer: Send + Sync {
    type InKey: Wire + Ord + Clone + Send;
    type InValue: Wire + Send;
    type OutKey: Wire + Send;
    type OutValue: Wire + Send;

    fn reduce(
        &self,
        key: Self::InKey,
        values: Vec<Self::InValue>,
        ctx: &mut ReduceContext<'_, Self::OutKey, Self::OutValue>,
    );

    /// Called once per reduce task after the last key — for reducers that
    /// aggregate across keys (e.g. a wrapped MarkDuplicates that needs all
    /// reads of its partition sorted first).
    fn finish(&self, _ctx: &mut ReduceContext<'_, Self::OutKey, Self::OutValue>) {}
}

/// Sink for map output.
pub struct MapContext<'a, K, V> {
    pub(crate) sink: &'a mut dyn FnMut(K, V),
    pub(crate) counters: &'a Counters,
}

impl<K, V> MapContext<'_, K, V> {
    pub fn emit(&mut self, key: K, value: V) {
        (self.sink)(key, value);
    }

    /// The running attempt's counter bag. It merges into the job's
    /// counters only if this attempt commits, so what a mapper charges
    /// here is never inflated by a retried or discarded speculative
    /// attempt — unlike a bag the mapper owns.
    pub fn counters(&self) -> &Counters {
        self.counters
    }
}

/// Sink for reduce output: `emit` feeds the attempt's [`RecordWriter`].
pub struct ReduceContext<'a, K, V> {
    pub(crate) sink: &'a mut dyn FnMut(K, V),
}

impl<K, V> ReduceContext<'_, K, V> {
    pub fn emit(&mut self, key: K, value: V) {
        (self.sink)(key, value);
    }
}

/// Where one reduce attempt's emitted records go — Hadoop's
/// `RecordWriter`. Every attempt gets a fresh writer from the job's
/// [`OutputFormat`], and what [`RecordWriter::finish`] returns becomes
/// the task's output only if that attempt commits: a failed attempt's
/// writer is dropped mid-stream, a losing speculative attempt's
/// finished output is dropped unseen.
pub trait RecordWriter<K, V> {
    type Output;

    fn write(&mut self, key: K, value: V);

    fn finish(self) -> Self::Output;
}

/// What a job's reduce tasks leave behind — Hadoop's `OutputFormat`:
/// the factory of per-attempt [`RecordWriter`]s.
pub trait OutputFormat<K, V>: Sync {
    /// One task's output.
    type Output: Send;
    type Writer: RecordWriter<K, V, Output = Self::Output>;

    /// A fresh writer for one attempt. `counters` is that attempt's bag
    /// (merged into the job's only on commit), for writers that count
    /// what they produce.
    fn writer(&self, counters: &Counters) -> Self::Writer;
}

/// The default format: a task's output is the records it emitted, in
/// emission order.
pub struct CollectRecords;

impl<K: Send, V: Send> OutputFormat<K, V> for CollectRecords {
    type Output = Vec<(K, V)>;
    type Writer = Vec<(K, V)>;

    fn writer(&self, _counters: &Counters) -> Vec<(K, V)> {
        Vec::new()
    }
}

impl<K: Send, V: Send> RecordWriter<K, V> for Vec<(K, V)> {
    type Output = Vec<(K, V)>;

    fn write(&mut self, key: K, value: V) {
        self.push((key, value));
    }

    fn finish(self) -> Vec<(K, V)> {
        self
    }
}

/// Routes a key to one of `n` reduce partitions.
pub trait Partitioner<K>: Send + Sync {
    fn partition(&self, key: &K, n_partitions: usize) -> usize;
}

/// Default partitioner: FNV-1a over the key's wire encoding.
pub struct HashPartitioner;

impl<K: Wire> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, n_partitions: usize) -> usize {
        let bytes = key.to_wire_bytes();
        let mut h: u64 = 0xcbf29ce484222325;
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % n_partitions as u64) as usize
    }
}

/// Partition by a caller-supplied function (range partitioning et al.).
pub struct FnPartitioner<K, F: Fn(&K, usize) -> usize + Send + Sync>(
    pub F,
    pub std::marker::PhantomData<K>,
);

impl<K, F: Fn(&K, usize) -> usize + Send + Sync> FnPartitioner<K, F> {
    pub fn new(f: F) -> Self {
        FnPartitioner(f, std::marker::PhantomData)
    }
}

impl<K: Send + Sync, F: Fn(&K, usize) -> usize + Send + Sync> Partitioner<K>
    for FnPartitioner<K, F>
{
    fn partition(&self, key: &K, n_partitions: usize) -> usize {
        (self.0)(key, n_partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_in_range_and_stable() {
        let p = HashPartitioner;
        for k in 0u64..500 {
            let a = Partitioner::partition(&p, &k, 7);
            let b = Partitioner::partition(&p, &k, 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_partitioner_spreads() {
        let p = HashPartitioner;
        let mut buckets = vec![0usize; 8];
        for k in 0u64..4000 {
            buckets[Partitioner::partition(&p, &format!("key{k}"), 8)] += 1;
        }
        let min = *buckets.iter().min().unwrap();
        let max = *buckets.iter().max().unwrap();
        assert!(
            max < min * 2,
            "partitions badly skewed: {buckets:?}"
        );
    }

    #[test]
    fn fn_partitioner_delegates() {
        let p = FnPartitioner::new(|k: &u64, n| (*k as usize) % n);
        assert_eq!(p.partition(&13, 5), 3);
    }
}
