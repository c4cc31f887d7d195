//! Property-based tests of the alignment substrate: suffix array /
//! FM-index correctness against naive reference implementations, and
//! Smith–Waterman structural invariants.

use gesall_aligner::fm::FmIndex;
use gesall_aligner::suffix::suffix_array;
use gesall_aligner::sw::{self, local_align, Band, Scoring};
use proptest::prelude::*;

fn arb_dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        min..max,
    )
}

fn naive_sa(text: &[u8]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..text.len() as u32).collect();
    idx.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    idx
}

fn naive_count(text: &[u8], pat: &[u8]) -> u64 {
    if pat.is_empty() || pat.len() > text.len() {
        return 0;
    }
    (0..=text.len() - pat.len())
        .filter(|&i| &text[i..i + pat.len()] == pat)
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn suffix_array_matches_naive(text in arb_dna(1, 400)) {
        prop_assert_eq!(suffix_array(&text), naive_sa(&text));
    }

    #[test]
    fn suffix_array_handles_low_complexity(unit in arb_dna(1, 6), reps in 1usize..80) {
        let text: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        prop_assert_eq!(suffix_array(&text), naive_sa(&text));
    }

    #[test]
    fn fm_count_matches_naive(text in arb_dna(20, 600), start in 0usize..500, len in 1usize..20) {
        let fm = FmIndex::build(&text);
        // A pattern cut from the text (guaranteed ≥1 occurrence).
        let start = start % text.len();
        let len = len.min(text.len() - start).max(1);
        let pat = &text[start..start + len];
        prop_assert_eq!(fm.count(pat), naive_count(&text, pat));
        // And a probably-absent random pattern.
        let absent = b"ACGTTGCAACGTTGCAACGTT";
        prop_assert_eq!(fm.count(absent), naive_count(&text, absent));
    }

    #[test]
    fn fm_locate_matches_naive(text in arb_dna(30, 400), start in 0usize..300, len in 4usize..16) {
        let fm = FmIndex::build(&text);
        let start = start % text.len();
        let len = len.min(text.len() - start).max(1);
        let pat = &text[start..start + len];
        let expected: Vec<u64> = (0..=text.len() - pat.len())
            .filter(|&i| &text[i..i + pat.len()] == pat)
            .map(|i| i as u64)
            .collect();
        if let Some(hits) = fm.locate(pat, 10_000) {
            prop_assert_eq!(hits, expected);
        } else {
            prop_assert!(expected.len() > 10_000);
        }
    }

    #[test]
    fn smith_waterman_invariants(query in arb_dna(5, 120), window in arb_dna(5, 160)) {
        if let Some(a) = local_align(&query, &window, &Scoring::default()) {
            // CIGAR accounts for every query base.
            prop_assert_eq!(a.cigar.query_len() as usize, query.len());
            // Score bounded by perfect match.
            prop_assert!(a.score <= query.len() as i32);
            prop_assert!(a.score > 0);
            // Alignment fits in the window.
            prop_assert!(a.ref_start + a.cigar.reference_len() as usize <= window.len());
            // Clip bookkeeping is consistent.
            prop_assert_eq!(a.cigar.leading_clip() as usize, a.query_start);
            prop_assert_eq!(a.cigar.trailing_clip() as usize, query.len() - a.query_end);
            prop_assert!(a.cigar.validate().is_ok());
        }
    }

    #[test]
    fn smith_waterman_finds_planted_exact_match(
        window in arb_dna(60, 200),
        qlen in 20usize..50,
        offset in 0usize..150,
    ) {
        let offset = offset % (window.len().saturating_sub(qlen).max(1));
        let qlen = qlen.min(window.len() - offset);
        let query = window[offset..offset + qlen].to_vec();
        let a = local_align(&query, &window, &Scoring::default()).expect("planted match");
        // An exact substring must achieve the perfect score.
        prop_assert_eq!(a.score, qlen as i32);
        prop_assert_eq!(a.edit_distance, 0);
    }
}

// ---------------------------------------------------------------------
// Bit-parallel kernel oracles (DESIGN.md §13): every kernel is pinned to
// its scalar reference on arbitrary inputs, including the band's forced
// fallbacks.

fn mutate(seq: &mut [u8], positions: &[usize]) {
    for &p in positions {
        let p = p % seq.len();
        seq[p] = match seq[p] {
            b'A' => b'C',
            b'C' => b'G',
            b'G' => b'T',
            _ => b'A',
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn occ_packed_matches_scalar(text in arb_dna(20, 900), probes in proptest::collection::vec(0usize..1000, 1..12)) {
        let fm = FmIndex::build(&text);
        let n = text.len() + 1; // BWT length includes the sentinel row
        for c in 1u8..=4 {
            // Scattered probes plus every structurally interesting row:
            // word boundaries, checkpoint boundaries, the extremes.
            let mut rows: Vec<usize> = probes.iter().map(|&p| p % (n + 1)).collect();
            rows.extend([0, 1, n.min(31), n.min(32), n.min(33), n.min(127), n.min(128), n.min(129), n]);
            for i in rows {
                let (packed, _) = fm.occ_words(c, i);
                prop_assert_eq!(packed, fm.occ_scalar(c, i), "occ(c={}, i={})", c, i);
            }
        }
    }

    #[test]
    fn banded_alignment_matches_full_dp(
        window in arb_dna(80, 250),
        qlen in 24usize..60,
        offset in 0usize..200,
        subs in proptest::collection::vec(0usize..256, 0..4),
        slack in 4usize..20,
    ) {
        let offset = offset % (window.len().saturating_sub(qlen).max(1));
        let qlen = qlen.min(window.len() - offset);
        let mut query = window[offset..offset + qlen].to_vec();
        mutate(&mut query, &subs);
        let scoring = Scoring::default();
        let full = local_align(&query, &window, &scoring);
        let banded = sw::with_workspace(|ws| {
            sw::local_align_banded(&query, &window, &scoring, Band::around_offset(offset as isize, slack), ws)
        });
        prop_assert_eq!(banded, full);
    }

    #[test]
    fn banded_matches_full_dp_across_band_crossing_indels(
        window in arb_dna(130, 250),
        qlen in 62usize..80,
        offset in 0usize..120,
        del_len in 1usize..24,
        slack in 2usize..9,
    ) {
        // A deletion wider than the slack forces the true path out of
        // the band. Exactness is guaranteed when the crossing carries at
        // least `edge_cutoff` score at the band edge: the prefix before
        // the cut is qlen/2 ≥ 31 matches, so the edge cell scores
        // ≥ 31 − gap_open − (slack−1) ≥ 31 − 6 − 8 = 17 > 16 and the
        // edge-potential trigger must fire the full-DP fallback.
        let offset = offset % (window.len().saturating_sub(qlen + del_len).max(1));
        let qlen = qlen.min(window.len() - offset - del_len);
        let cut = qlen / 2;
        let mut query = window[offset..offset + cut].to_vec();
        query.extend_from_slice(&window[offset + cut + del_len..offset + del_len + qlen]);
        let scoring = Scoring::default();
        let full = local_align(&query, &window, &scoring);
        let banded = sw::with_workspace(|ws| {
            sw::local_align_banded(&query, &window, &scoring, Band::around_offset(offset as isize, slack), ws)
        });
        prop_assert_eq!(banded, full);
    }

    #[test]
    fn banded_never_beats_full_dp_on_unrelated_sequences(
        query in arb_dna(10, 80),
        window in arb_dna(40, 200),
        offset in -30isize..120,
        slack in 1usize..16,
    ) {
        // No planted relationship: the band has no seed to justify it,
        // so exact equality is not promised (a chance hit wholly outside
        // the band is invisible to every band cell — the documented
        // residual caveat). What *is* promised: a banded miss falls back
        // to the full DP (so None implies full None), and a banded hit
        // can never score above the true optimum.
        let scoring = Scoring::default();
        let full = local_align(&query, &window, &scoring);
        let banded = sw::with_workspace(|ws| {
            sw::local_align_banded(&query, &window, &scoring, Band::around_offset(offset, slack), ws)
        });
        match (&banded, &full) {
            (None, f) => prop_assert!(f.is_none(), "banded None must mean full None"),
            (Some(b), Some(f)) => prop_assert!(b.score <= f.score),
            (Some(_), None) => prop_assert!(false, "banded found a hit the full DP missed"),
        }
    }
}
