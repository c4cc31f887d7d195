//! The six phases a MapReduce round's wall-clock time decomposes into —
//! the row/column structure of the paper's Tables 4–7.
//!
//! Instrumentation accumulates nanoseconds into per-phase counters (one
//! well-known key per phase); reports convert them to milliseconds.

/// One execution phase of a MapReduce round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// User map function (plus record decode), excluding buffer work.
    Map,
    /// Sorting + spilling the map-side sort buffer (`io.sort.mb`).
    SortSpill,
    /// Merging spill runs into the final partitioned map output.
    MapMerge,
    /// Fetching + decoding map-output segments on the reduce side.
    Shuffle,
    /// Reduce-side multipass merge (including the final merge + grouping).
    ReduceMerge,
    /// User reduce function.
    Reduce,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Map,
        Phase::SortSpill,
        Phase::MapMerge,
        Phase::Shuffle,
        Phase::ReduceMerge,
        Phase::Reduce,
    ];

    /// Short human name, as used in report columns.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::SortSpill => "sort-spill",
            Phase::MapMerge => "map-merge",
            Phase::Shuffle => "shuffle",
            Phase::ReduceMerge => "reduce-merge",
            Phase::Reduce => "reduce",
        }
    }

    /// The counter key phase time (nanoseconds) accumulates under.
    pub fn counter_key(self) -> &'static str {
        match self {
            Phase::Map => "phase.map.nanos",
            Phase::SortSpill => "phase.sort-spill.nanos",
            Phase::MapMerge => "phase.map-merge.nanos",
            Phase::Shuffle => "phase.shuffle.nanos",
            Phase::ReduceMerge => "phase.reduce-merge.nanos",
            Phase::Reduce => "phase.reduce.nanos",
        }
    }
}

/// Extract per-phase milliseconds from a counter snapshot.
pub fn phase_ms_from_snapshot(snapshot: &[(String, u64)]) -> [f64; 6] {
    let mut out = [0.0; 6];
    for (i, p) in Phase::ALL.iter().enumerate() {
        if let Some((_, v)) = snapshot.iter().find(|(k, _)| k == p.counter_key()) {
            out[i] = *v as f64 / 1e6;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_extraction() {
        let snap = vec![
            ("phase.map.nanos".to_string(), 2_000_000u64),
            ("phase.reduce.nanos".to_string(), 500_000),
            ("unrelated".to_string(), 7),
        ];
        let ms = phase_ms_from_snapshot(&snap);
        assert_eq!(ms[0], 2.0);
        assert_eq!(ms[5], 0.5);
        assert_eq!(ms[1], 0.0);
    }
}
