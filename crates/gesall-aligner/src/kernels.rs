//! Process-wide activity counters for the bit-parallel map-phase
//! kernels (DESIGN.md §13).
//!
//! The kernels are exact — proptests pin each to its scalar oracle — so
//! these counters exist to prove the fast paths actually ran and to
//! size the work they did. They are monotone relaxed atomics shared by
//! every index/aligner in the process; callers that need per-run
//! numbers take a [`snapshot`] before and after and subtract
//! ([`Snapshot::delta`]). Hot loops accumulate locally and flush one
//! `fetch_add` per search / extension, so the counters stay off the
//! innermost paths.

use std::sync::atomic::{AtomicU64, Ordering};

static OCC_WORDS_POPCOUNTED: AtomicU64 = AtomicU64::new(0);
static SW_EXACT_HITS: AtomicU64 = AtomicU64::new(0);
static SW_GAPLESS_HITS: AtomicU64 = AtomicU64::new(0);
static SW_BANDED_HITS: AtomicU64 = AtomicU64::new(0);
static SW_FULL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Whole `u64` words popcounted by packed-BWT rank since process start.
#[inline]
pub fn add_occ_words(n: u64) {
    if n != 0 {
        OCC_WORDS_POPCOUNTED.fetch_add(n, Ordering::Relaxed);
    }
}

/// One seed extension answered by the exact-diagonal comparison, no DP.
#[inline]
pub fn add_exact_hit() {
    SW_EXACT_HITS.fetch_add(1, Ordering::Relaxed);
}

/// One seed extension answered by the gapless-run check, no DP.
#[inline]
pub fn add_gapless_hit() {
    SW_GAPLESS_HITS.fetch_add(1, Ordering::Relaxed);
}

/// One seed extension answered inside the band.
#[inline]
pub fn add_banded_hit() {
    SW_BANDED_HITS.fetch_add(1, Ordering::Relaxed);
}

/// One seed extension the band could not prove (or could not hold) and
/// the full DP answered.
#[inline]
pub fn add_full_fallback() {
    SW_FULL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time reading of the kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub occ_words_popcounted: u64,
    pub sw_exact_hits: u64,
    pub sw_gapless_hits: u64,
    pub sw_banded_hits: u64,
    pub sw_full_fallbacks: u64,
}

impl Snapshot {
    /// Activity since `earlier` (counters are monotone, so saturating is
    /// only defensive).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            occ_words_popcounted: self
                .occ_words_popcounted
                .saturating_sub(earlier.occ_words_popcounted),
            sw_exact_hits: self.sw_exact_hits.saturating_sub(earlier.sw_exact_hits),
            sw_gapless_hits: self.sw_gapless_hits.saturating_sub(earlier.sw_gapless_hits),
            sw_banded_hits: self.sw_banded_hits.saturating_sub(earlier.sw_banded_hits),
            sw_full_fallbacks: self
                .sw_full_fallbacks
                .saturating_sub(earlier.sw_full_fallbacks),
        }
    }
}

/// Read all kernel counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        occ_words_popcounted: OCC_WORDS_POPCOUNTED.load(Ordering::Relaxed),
        sw_exact_hits: SW_EXACT_HITS.load(Ordering::Relaxed),
        sw_gapless_hits: SW_GAPLESS_HITS.load(Ordering::Relaxed),
        sw_banded_hits: SW_BANDED_HITS.load(Ordering::Relaxed),
        sw_full_fallbacks: SW_FULL_FALLBACKS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let before = snapshot();
        add_occ_words(7);
        add_occ_words(0); // no-op, avoids the atomic entirely
        add_exact_hit();
        add_gapless_hit();
        add_banded_hit();
        add_full_fallback();
        let d = snapshot().delta(&before);
        // Other tests may run concurrently, so deltas are lower-bounded.
        assert!(d.occ_words_popcounted >= 7);
        assert!(d.sw_exact_hits >= 1);
        assert!(d.sw_gapless_hits >= 1);
        assert!(d.sw_banded_hits >= 1);
        assert!(d.sw_full_fallbacks >= 1);
    }
}
