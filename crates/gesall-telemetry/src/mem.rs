//! Memory-path metrics: the well-known counter names every layer uses
//! to account payload bytes that are actually memcpy'd and spill-buffer
//! allocator behaviour.
//!
//! The paper's shuffle/merge findings (Tables 4–7, Fig. 5b) are about
//! where bytes move. These keys give the platform an honest
//! "bytes moved" gauge: each layer adds to [`keys::BYTES_COPIED`] at
//! every point where record payload is copied (spill encode, compress,
//! decompress, decode, block concatenation), and the zero-copy paths —
//! shared-slice segment fetch, ownership-transfer pipe chunks,
//! single-block DFS reads — add nothing. A refactor that silently
//! reintroduces a copy shows up as a per-record regression
//! (`platform::bytes_copied_per_shuffled_record_stays_on_the_zero_copy_budget`)
//! instead of as an unexplained phase slowdown.

/// Well-known memory-path counter names.
pub mod keys {
    /// Payload bytes memcpy'd on the record path.
    pub const BYTES_COPIED: &str = "mem.bytes.copied";
    /// Spill-scratch buffers handed out (arena hits + misses).
    pub const SPILL_ALLOCS: &str = "mem.spill.allocs";
    /// Spill-scratch buffers served by recycling a previously released
    /// buffer instead of allocating a fresh one.
    pub const SPILL_REUSED: &str = "mem.spill.reused";
    /// Released spill-scratch buffers dropped because the arena's
    /// free-list was already at capacity (bounded memory, not a leak).
    pub const SPILL_EVICTED: &str = "mem.spill.evicted";
    /// Peak decoded-side resident bytes of a streaming reduce-side
    /// merge: decompression scratch for the active runs plus the head
    /// records under the merge heap. Encoded run storage (zero-copy
    /// segment windows, arena-recycled rewrite buffers) is the engine's
    /// "disk" layer and is excluded. Since `Counters::merge` sums, an
    /// aggregated value is the sum of per-reducer peaks — flat in input
    /// size at a fixed reducer count and `merge_factor`.
    pub const REDUCE_PEAK_RESIDENT: &str = "mem.reduce.peak_resident";
}
