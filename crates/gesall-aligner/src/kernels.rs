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
//! innermost paths. Test builds also keep a per-thread copy, so a count
//! gate can read exactly its own thread's work while other tests run.

use std::sync::atomic::{AtomicU64, Ordering};

static OCC_WORDS_POPCOUNTED: AtomicU64 = AtomicU64::new(0);
static SEED_ROWS_LOCATED: AtomicU64 = AtomicU64::new(0);
static SEED_SEARCHES_ANSWERED: AtomicU64 = AtomicU64::new(0);
static SW_EXACT_HITS: AtomicU64 = AtomicU64::new(0);
static SW_GAPLESS_HITS: AtomicU64 = AtomicU64::new(0);
static SW_BANDED_HITS: AtomicU64 = AtomicU64::new(0);
static SW_FULL_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static SW_WINDOW_REUSES: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    static THREAD: std::cell::Cell<Snapshot> = const {
        std::cell::Cell::new(Snapshot {
            occ_words_popcounted: 0,
            seed_rows_located: 0,
            seed_searches_answered: 0,
            sw_exact_hits: 0,
            sw_gapless_hits: 0,
            sw_banded_hits: 0,
            sw_full_fallbacks: 0,
            sw_window_reuses: 0,
        })
    };
}

#[inline]
fn add(counter: &AtomicU64, n: u64, _field: fn(&mut Snapshot) -> &mut u64) {
    counter.fetch_add(n, Ordering::Relaxed);
    #[cfg(test)]
    THREAD.with(|t| {
        let mut s = t.get();
        *_field(&mut s) += n;
        t.set(s);
    });
}

/// Whole `u64` words popcounted by packed-BWT rank since process start.
#[inline]
pub fn add_occ_words(n: u64) {
    if n != 0 {
        add(&OCC_WORDS_POPCOUNTED, n, |s| &mut s.occ_words_popcounted);
    }
}

/// BWT rows LF-walked to a sampled suffix-array row by `locate`.
#[inline]
pub fn add_rows_located(n: u64) {
    if n != 0 {
        add(&SEED_ROWS_LOCATED, n, |s| &mut s.seed_rows_located);
    }
}

/// One seed whose hits were known without a backward search: the
/// anchors already located and the index's uniqueness bit settled them.
#[inline]
pub fn add_search_answered() {
    add(&SEED_SEARCHES_ANSWERED, 1, |s| &mut s.seed_searches_answered);
}

/// One seed extension answered by the exact-diagonal comparison, no DP.
#[inline]
pub fn add_exact_hit() {
    add(&SW_EXACT_HITS, 1, |s| &mut s.sw_exact_hits);
}

/// One seed extension answered by the gapless-run check, no DP.
#[inline]
pub fn add_gapless_hit() {
    add(&SW_GAPLESS_HITS, 1, |s| &mut s.sw_gapless_hits);
}

/// One seed extension answered inside the band.
#[inline]
pub fn add_banded_hit() {
    add(&SW_BANDED_HITS, 1, |s| &mut s.sw_banded_hits);
}

/// One seed extension the band could not prove (or could not hold) and
/// the full DP answered.
#[inline]
pub fn add_full_fallback() {
    add(&SW_FULL_FALLBACKS, 1, |s| &mut s.sw_full_fallbacks);
}

/// One seed extension answered by an earlier extension of a
/// byte-identical window at the same band offset, no kernel call.
#[inline]
pub fn add_window_reuse() {
    add(&SW_WINDOW_REUSES, 1, |s| &mut s.sw_window_reuses);
}

/// Point-in-time reading of the kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub occ_words_popcounted: u64,
    pub seed_rows_located: u64,
    pub seed_searches_answered: u64,
    pub sw_exact_hits: u64,
    pub sw_gapless_hits: u64,
    pub sw_banded_hits: u64,
    pub sw_full_fallbacks: u64,
    pub sw_window_reuses: u64,
}

impl Snapshot {
    /// Activity since `earlier` (counters are monotone, so saturating is
    /// only defensive).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            occ_words_popcounted: self
                .occ_words_popcounted
                .saturating_sub(earlier.occ_words_popcounted),
            seed_rows_located: self
                .seed_rows_located
                .saturating_sub(earlier.seed_rows_located),
            seed_searches_answered: self
                .seed_searches_answered
                .saturating_sub(earlier.seed_searches_answered),
            sw_exact_hits: self.sw_exact_hits.saturating_sub(earlier.sw_exact_hits),
            sw_gapless_hits: self.sw_gapless_hits.saturating_sub(earlier.sw_gapless_hits),
            sw_banded_hits: self.sw_banded_hits.saturating_sub(earlier.sw_banded_hits),
            sw_full_fallbacks: self
                .sw_full_fallbacks
                .saturating_sub(earlier.sw_full_fallbacks),
            sw_window_reuses: self
                .sw_window_reuses
                .saturating_sub(earlier.sw_window_reuses),
        }
    }

    /// Smith–Waterman kernel calls: every extension but the reused ones.
    #[cfg(test)]
    pub(crate) fn sw_calls(&self) -> u64 {
        self.sw_exact_hits + self.sw_gapless_hits + self.sw_banded_hits + self.sw_full_fallbacks
    }
}

/// Read all kernel counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        occ_words_popcounted: OCC_WORDS_POPCOUNTED.load(Ordering::Relaxed),
        seed_rows_located: SEED_ROWS_LOCATED.load(Ordering::Relaxed),
        seed_searches_answered: SEED_SEARCHES_ANSWERED.load(Ordering::Relaxed),
        sw_exact_hits: SW_EXACT_HITS.load(Ordering::Relaxed),
        sw_gapless_hits: SW_GAPLESS_HITS.load(Ordering::Relaxed),
        sw_banded_hits: SW_BANDED_HITS.load(Ordering::Relaxed),
        sw_full_fallbacks: SW_FULL_FALLBACKS.load(Ordering::Relaxed),
        sw_window_reuses: SW_WINDOW_REUSES.load(Ordering::Relaxed),
    }
}

/// This thread's share of the counters: exact where [`snapshot`] is
/// only a lower bound, because concurrent tests add to the atomics.
#[cfg(test)]
pub(crate) fn thread_snapshot() -> Snapshot {
    THREAD.with(|t| t.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let before = snapshot();
        let mine = thread_snapshot();
        add_occ_words(7);
        add_occ_words(0); // no-op, avoids the atomic entirely
        add_rows_located(3);
        add_search_answered();
        add_exact_hit();
        add_gapless_hit();
        add_banded_hit();
        add_full_fallback();
        add_window_reuse();
        let d = snapshot().delta(&before);
        // Other tests may run concurrently, so deltas are lower-bounded.
        assert!(d.occ_words_popcounted >= 7);
        assert!(d.seed_rows_located >= 3);
        assert!(d.seed_searches_answered >= 1);
        assert!(d.sw_exact_hits >= 1);
        assert!(d.sw_gapless_hits >= 1);
        assert!(d.sw_banded_hits >= 1);
        assert!(d.sw_full_fallbacks >= 1);
        assert!(d.sw_window_reuses >= 1);
        // This thread's copy is exact.
        let t = thread_snapshot().delta(&mine);
        assert_eq!(
            t,
            Snapshot {
                occ_words_popcounted: 7,
                seed_rows_located: 3,
                seed_searches_answered: 1,
                sw_exact_hits: 1,
                sw_gapless_hits: 1,
                sw_banded_hits: 1,
                sw_full_fallbacks: 1,
                sw_window_reuses: 1,
            }
        );
        assert_eq!(t.sw_calls(), 4);
    }
}
