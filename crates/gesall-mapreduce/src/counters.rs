//! Job counters — the numbers the paper's analysis keeps citing
//! ("72 million more records than the input are shuffled", "1.92× the
//! input data", spill counts, merge passes).
//!
//! The bag is `gesall-telemetry`'s
//! [`MetricsRegistry`](gesall_telemetry::MetricsRegistry): every `add`
//! is an atomic increment after a name lookup, and snapshots and
//! `Debug` output are sorted by key. This module names the well-known
//! keys and re-exports the type.

pub use gesall_telemetry::Counters;

/// Well-known counter names.
pub mod keys {
    pub const MAP_INPUT_RECORDS: &str = "map.input.records";
    pub const MAP_OUTPUT_RECORDS: &str = "map.output.records";
    pub const MAP_OUTPUT_BYTES: &str = "map.output.bytes";
    pub const MAP_SPILLS: &str = "map.spills";
    pub const MAP_MERGE_SEGMENTS: &str = "map.merge.segments";
    pub const SHUFFLE_RECORDS: &str = "shuffle.records";
    pub const SHUFFLE_BYTES: &str = "shuffle.bytes";
    pub const SHUFFLE_BYTES_RAW: &str = "shuffle.bytes.raw";
    pub const REDUCE_INPUT_GROUPS: &str = "reduce.input.groups";
    pub const REDUCE_OUTPUT_RECORDS: &str = "reduce.output.records";
    pub const REDUCE_MERGE_PASSES: &str = "reduce.merge.passes";
    pub const REDUCE_MERGE_BYTES: &str = "reduce.merge.bytes";
    /// Nanoseconds spent converting between framework records and
    /// external-program bytes (the Fig. 6a overhead).
    pub const DATA_TRANSFORM_NANOS: &str = "wrapper.transform.nanos";
    /// Nanoseconds spent inside wrapped external programs.
    pub const EXTERNAL_PROGRAM_NANOS: &str = "wrapper.external.nanos";
    /// Payload bytes written into the streaming pipes: every byte a
    /// wrapped program writes, and every unused tail the harness moves
    /// to the front of a pipe (the input is handed on as slices and
    /// counts nothing). The wrapped-aligner mapper
    /// charges it through [`MapContext::counters`](crate::MapContext::counters),
    /// so — unlike the pipeline-cumulative wrapper timers — it is a
    /// per-job counter covering committed attempts only.
    pub const WRAPPER_BYTES_COPIED: &str = "wrapper.bytes.copied";
    /// Records materialised from partition bytes into owned records, and
    /// owned records encoded back into partition bytes, by a round's
    /// committed attempts: the conversions a round that reads its
    /// records as views over their bytes does not make.
    pub const WIRE_RECORDS_DECODED: &str = "wire.records.decoded";
    pub const WIRE_RECORDS_ENCODED: &str = "wire.records.encoded";
    /// Task attempts that panicked and were retried (or aborted the job).
    pub const FAILED_ATTEMPTS: &str = "fault.failed.attempts";
    /// Speculative (backup) attempts launched for stragglers.
    pub const SPECULATIVE_LAUNCHED: &str = "fault.speculative.launched";
    /// Attempts that ran in full and lost a speculative race: the
    /// killed original or the killed backup, one per launched backup.
    pub const SPECULATIVE_WASTED: &str = "fault.speculative.wasted";
    /// Milliseconds of retry backoff charged to failed tasks: a retry
    /// is queued at once, and the pause Hadoop would sit out is counted
    /// here instead.
    pub const BACKOFF_CHARGED_MS: &str = "fault.backoff.charged_ms";
    /// Committed map tasks re-executed because a node death took their
    /// shuffle output: the transit DFS could serve it from no replica.
    pub const MAPS_RERUN_ON_NODE_LOSS: &str = "fault.maps.rerun.on.node.loss";
    /// Payload bytes memcpy'd on the record path (spill encode, compress,
    /// decompress, decode, segment fetch). The honest "bytes moved"
    /// gauge the zero-copy refactor is measured by.
    pub const BYTES_COPIED: &str = gesall_telemetry::mem_keys::BYTES_COPIED;
    /// Spill-scratch buffers handed out by the arena, total.
    pub const SPILL_ALLOCS: &str = gesall_telemetry::mem_keys::SPILL_ALLOCS;
    /// Spill-scratch buffers that were recycled rather than freshly
    /// allocated.
    pub const SPILL_REUSED: &str = gesall_telemetry::mem_keys::SPILL_REUSED;
    /// Released spill-scratch buffers dropped because the arena's
    /// free-list was already at its cap.
    pub const SPILL_EVICTED: &str = gesall_telemetry::mem_keys::SPILL_EVICTED;
    /// Shuffle wire bytes reducers fetched out of DFS-transit map
    /// outputs (frames sliced from stored blocks) — every shuffled byte.
    pub const SHUFFLE_BYTES_DFS: &str = "shuffle.bytes.dfs";
    /// Payload bytes memcpy'd while assembling a map output's transit
    /// file for the DFS (the one deliberate durability copy of the
    /// DFS-transit shuffle). Tracked apart from [`BYTES_COPIED`] so the
    /// zero-copy record-path gauge keeps measuring the record path, not
    /// the transit layer's by-design write.
    pub const SHUFFLE_SHIP_BYTES_COPIED: &str = "shuffle.ship.bytes.copied";
    /// Peak decoded-side resident bytes of the streaming reduce merge:
    /// decompression scratch charged on cursor activation plus the head
    /// records under the merge heap, released as runs exhaust. Bounded
    /// by `merge_factor` × source-run size, not input size — the memory
    /// contract the streaming merge exists to provide. Summed across
    /// reducers on merge.
    pub const REDUCE_PEAK_RESIDENT: &str = gesall_telemetry::mem_keys::REDUCE_PEAK_RESIDENT;
    /// Shuffle fetches re-attempted at the engine level after a
    /// retryable DFS error survived the DFS's own internal retries —
    /// the second tier of the gray-failure defence.
    pub const SHUFFLE_FETCH_RETRIES: &str = "shuffle.fetch.retries";
    /// Shuffle fetch bytes served by a replica on the reducer's own
    /// node (the locality-aware replica selection hit its affinity).
    pub const SHUFFLE_FETCH_BYTES_LOCAL: &str = "shuffle.fetch.bytes.local";
    /// Shuffle fetch bytes shipped from another node — an affinity
    /// miss, a hedge win on the remote replica, or a reducer with no
    /// co-located replica at all.
    pub const SHUFFLE_FETCH_BYTES_REMOTE: &str = "shuffle.fetch.bytes.remote";
    /// Map-output segments that travelled the shuffle uncompressed.
    pub const SHUFFLE_SEGMENTS_RAW: &str = "shuffle.segments.raw";
    /// Map-output segments that travelled the shuffle compressed (shipped
    /// by reference, decoded once at the reduce-side merge).
    pub const SHUFFLE_SEGMENTS_COMPRESSED: &str = "shuffle.segments.compressed";
    /// Returns of an idle wave worker from its park: each one follows a
    /// change of the schedule (a task queued, a node saturated or lost,
    /// the wave over). An idle worker waits for nothing else.
    pub const SCHED_WAKEUPS: &str = "sched.wakeups";
}

#[cfg(test)]
mod tests {
    use super::*;

    // Behavior tests for the bag itself live in gesall-telemetry; this
    // checks the re-export keeps the engine-facing contract.
    #[test]
    fn reexported_counters_keep_engine_contract() {
        let c = Counters::new();
        c.add(keys::MAP_INPUT_RECORDS, 5);
        c.add(keys::MAP_INPUT_RECORDS, 2);
        c.add(keys::MAP_SPILLS, 1);
        assert_eq!(c.get(keys::MAP_INPUT_RECORDS), 7);
        let snap = c.counter_snapshot();
        let mut sorted = snap.clone();
        sorted.sort();
        assert_eq!(snap, sorted, "snapshot must be key-sorted");
        let other = Counters::new();
        other.add(keys::MAP_SPILLS, 3);
        c.merge(&other);
        assert_eq!(c.get(keys::MAP_SPILLS), 4);
    }
}
