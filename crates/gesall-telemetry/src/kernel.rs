//! Bit-parallel kernel metrics: the well-known counter names the
//! map-phase kernels (packed-BWT rank, banded Smith–Waterman, radix
//! spill sort) report their activity under.
//!
//! The kernels are exact — each is pinned to its scalar oracle by
//! proptests — so these counters exist to prove the fast path actually
//! ran (a config regression that silently falls back to the scalar path
//! shows up as a zeroed counter in the traced platform test, not as an
//! unexplained Map-phase slowdown) and to size the work the bit-tricks
//! did.
//!
//! A kernel tallies into a [`KernelStats`] its caller owns; the caller
//! hands the tally back with its result, and the task that ran it adds
//! it to its attempt's counters ([`KernelStats::add_to`]), so only a
//! committed attempt's work reaches the job.

use crate::metrics::Counters;

/// Well-known kernel counter names.
pub mod keys {
    /// Whole `u64` words popcounted by the packed-BWT `occ` rank kernel
    /// (32 BWT symbols per word; the byte-scan predecessor would have
    /// touched each symbol individually).
    pub const OCC_WORDS_POPCOUNTED: &str = "kernel.occ.words_popcounted";
    /// BWT rows LF-walked by `locate` to place seed hits in the text. A
    /// seed whose hits are all anchors the read already located walks
    /// none (repeat-aware seeding).
    pub const SEED_ROWS_LOCATED: &str = "kernel.seed.rows_located";
    /// Seeds whose hits were known without a backward search: an anchor
    /// the read already located puts the seed, or its reverse
    /// complement, at a k-mer the index marks unique (known-answer
    /// seeding).
    pub const SEED_SEARCHES_ANSWERED: &str = "kernel.seed.searches_answered";
    /// Seed extensions answered without any DP: the read equals the
    /// reference on a diagonal inside the band.
    pub const SW_EXACT_HITS: &str = "kernel.sw.exact_hits";
    /// Seed extensions answered without any DP: the read's best gapless
    /// run on a band diagonal outscores every path with a gap.
    pub const SW_GAPLESS_HITS: &str = "kernel.sw.gapless_hits";
    /// Seed extensions answered by the banded Smith–Waterman without
    /// touching a band edge (the fast path).
    pub const SW_BANDED_HITS: &str = "kernel.sw.banded_hits";
    /// Seed extensions whose banded best path touched a band edge and
    /// were re-run through the full DP for exactness.
    pub const SW_FULL_FALLBACKS: &str = "kernel.sw.full_fallbacks";
    /// Seed extensions answered without a kernel call: a byte-identical
    /// window at the same band offset was already extended for the same
    /// read and strand (copies of a repeat).
    pub const SW_WINDOW_REUSES: &str = "kernel.sw.window_reuses";
    /// Candidate alignments built, a CIGAR cloned for each: a read's
    /// search builds only those that survive its dedup and its cut to
    /// the best few.
    pub const CANDIDATES_BUILT: &str = "kernel.candidates.built";
    /// LSD radix passes executed by the spill sort (constant-byte passes
    /// are skipped and not counted).
    pub const SORT_RADIX_PASSES: &str = "kernel.sort.radix_passes";
    /// Equal-prefix runs the radix sort resolved with the comparison
    /// fallback.
    pub const SORT_COMPARISON_FALLBACKS: &str = "kernel.sort.comparison_fallbacks";
}

/// Kernel activity: the tally a kernel fills for its caller, or the
/// numbers pulled out of a counter snapshot that the CLI report prints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    pub occ_words_popcounted: u64,
    pub seed_rows_located: u64,
    pub seed_searches_answered: u64,
    pub sw_exact_hits: u64,
    pub sw_gapless_hits: u64,
    pub sw_banded_hits: u64,
    pub sw_full_fallbacks: u64,
    pub sw_window_reuses: u64,
    pub candidates_built: u64,
    pub sort_radix_passes: u64,
    pub sort_comparison_fallbacks: u64,
}

impl KernelStats {
    /// Every counter with its key.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 11] {
        [
            (keys::OCC_WORDS_POPCOUNTED, &mut self.occ_words_popcounted),
            (keys::SEED_ROWS_LOCATED, &mut self.seed_rows_located),
            (keys::SEED_SEARCHES_ANSWERED, &mut self.seed_searches_answered),
            (keys::SW_EXACT_HITS, &mut self.sw_exact_hits),
            (keys::SW_GAPLESS_HITS, &mut self.sw_gapless_hits),
            (keys::SW_BANDED_HITS, &mut self.sw_banded_hits),
            (keys::SW_FULL_FALLBACKS, &mut self.sw_full_fallbacks),
            (keys::SW_WINDOW_REUSES, &mut self.sw_window_reuses),
            (keys::CANDIDATES_BUILT, &mut self.candidates_built),
            (keys::SORT_RADIX_PASSES, &mut self.sort_radix_passes),
            (keys::SORT_COMPARISON_FALLBACKS, &mut self.sort_comparison_fallbacks),
        ]
    }

    /// Pull the kernel counters out of a snapshot.
    pub fn from_snapshot(snapshot: &[(String, u64)]) -> KernelStats {
        let mut stats = KernelStats::default();
        for (key, value) in stats.fields_mut() {
            if let Some((_, v)) = snapshot.iter().find(|(k, _)| k == key) {
                *value = *v;
            }
        }
        stats
    }

    /// Add every non-zero count to `counters` under its key.
    pub fn add_to(mut self, counters: &Counters) {
        for (key, value) in self.fields_mut() {
            if *value != 0 {
                counters.add(key, *value);
            }
        }
    }

    /// Seed extensions, however answered — reused windows included, so
    /// this counts every anchor extended.
    pub fn sw_extensions(&self) -> u64 {
        self.sw_exact_hits
            + self.sw_gapless_hits
            + self.sw_banded_hits
            + self.sw_full_fallbacks
            + self.sw_window_reuses
    }

    /// Fraction of extended anchors the exact-diagonal comparison
    /// answered (no DP).
    pub fn exact_hit_ratio(&self) -> f64 {
        ratio(self.sw_exact_hits, self.sw_extensions())
    }

    /// Fraction of the extensions that ran a DP which the band answered
    /// without fallback.
    pub fn banded_hit_ratio(&self) -> f64 {
        ratio(self.sw_banded_hits, self.sw_banded_hits + self.sw_full_fallbacks)
    }
}

impl std::ops::AddAssign for KernelStats {
    fn add_assign(&mut self, mut other: KernelStats) {
        for ((_, sum), (_, part)) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *sum += *part;
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_snapshot() {
        let snap = vec![
            ("kernel.occ.words_popcounted".to_string(), 1000u64),
            ("kernel.sw.exact_hits".to_string(), 100),
            ("kernel.sw.gapless_hits".to_string(), 60),
            ("kernel.sw.banded_hits".to_string(), 90),
            ("kernel.sw.full_fallbacks".to_string(), 10),
            ("kernel.sw.window_reuses".to_string(), 40),
            ("kernel.candidates.built".to_string(), 30),
            ("kernel.seed.rows_located".to_string(), 500),
            ("kernel.seed.searches_answered".to_string(), 70),
            ("kernel.sort.radix_passes".to_string(), 24),
            ("unrelated".to_string(), 7),
        ];
        let k = KernelStats::from_snapshot(&snap);
        assert_eq!(k.occ_words_popcounted, 1000);
        assert_eq!(k.sw_exact_hits, 100);
        assert_eq!(k.sw_gapless_hits, 60);
        assert_eq!(k.sw_banded_hits, 90);
        assert_eq!(k.sw_full_fallbacks, 10);
        assert_eq!(k.sw_window_reuses, 40);
        assert_eq!(k.candidates_built, 30);
        assert_eq!(k.seed_rows_located, 500);
        assert_eq!(k.seed_searches_answered, 70);
        assert_eq!(k.sort_radix_passes, 24);
        assert_eq!(k.sort_comparison_fallbacks, 0);
        assert_eq!(k.sw_extensions(), 300);
        assert!((k.exact_hit_ratio() - 100.0 / 300.0).abs() < 1e-12);
        assert!((k.banded_hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tallies_sum_and_add_to_counters_under_their_keys() {
        let one = KernelStats {
            occ_words_popcounted: 7,
            seed_rows_located: 3,
            seed_searches_answered: 1,
            sw_exact_hits: 1,
            sw_gapless_hits: 1,
            sw_banded_hits: 1,
            sw_full_fallbacks: 1,
            sw_window_reuses: 1,
            candidates_built: 3,
            sort_radix_passes: 0,
            sort_comparison_fallbacks: 2,
        };
        let mut sum = KernelStats::default();
        sum += one;
        sum += one;
        assert_eq!(sum.occ_words_popcounted, 14);
        assert_eq!(sum.sw_extensions(), 10);
        assert_eq!(sum.sort_comparison_fallbacks, 4);

        let counters = Counters::new();
        counters.add("unrelated", 5);
        sum.add_to(&counters);
        one.add_to(&counters);
        assert_eq!(counters.get(keys::OCC_WORDS_POPCOUNTED), 21);
        assert_eq!(counters.get(keys::SW_WINDOW_REUSES), 3);
        assert_eq!(counters.get("unrelated"), 5);
        let snapshot = counters.counter_snapshot();
        assert!(
            snapshot.iter().all(|(k, _)| k != keys::SORT_RADIX_PASSES),
            "a zero count adds no key: {snapshot:?}"
        );
        let mut three = sum;
        three += one;
        assert_eq!(KernelStats::from_snapshot(&snapshot), three);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let k = KernelStats::from_snapshot(&[]);
        assert_eq!(k, KernelStats::default());
        assert_eq!(k.exact_hit_ratio(), 0.0);
        assert_eq!(k.banded_hit_ratio(), 0.0);
    }
}
