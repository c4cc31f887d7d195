//! The banded kernel's DP-free shortcuts: a read that equals the
//! reference on a band diagonal (`exact_diagonal`), and one whose best
//! gapless run outscores every path with a gap (`gapless_run`). Each
//! answers exactly what the band's fill would have, or declines (`None`)
//! and leaves the call to the fill; the doc of each says why. Both are
//! `#[inline]`: their one caller, `local_align_banded_counted`, may sit
//! in another codegen unit, and there the kernel inlines them as it did
//! when they shared its module.

use super::{assemble, Band, LocalAlignment, Scoring, NEG};
use gesall_formats::sam::cigar::{Cigar, CigarOp};

/// The scorings both shortcuts' proofs assume: `match > 0`,
/// `mismatch < 0`, `gap_extend ≤ 0` and `gap_open + gap_extend < 0`, so
/// a diagonal step earns at most `match` and every gap run costs at
/// least `|gap_open + gap_extend|`.
fn sound(scoring: &Scoring) -> bool {
    scoring.match_score > 0
        && scoring.mismatch < 0
        && scoring.gap_extend <= 0
        && scoring.gap_open + scoring.gap_extend < 0
}

/// The read copied from the reference: if `window[d..d + m] == query` and
/// the *smallest* such `d` lies in the band, the DP's answer is `mM` at
/// `d` and no cell needs filling. Why that is exactly what the DP (band
/// or fallback) returns, given `match > 0`, `mismatch < 0`,
/// `gap_extend ≤ 0` and `gap_open + gap_extend < 0`:
///
/// 1. A path into `(i, j)` has at most `min(i, j)` diagonal steps, each
///    worth at most `match`, and every gap run costs at least
///    `|gap_open + gap_extend|`; so `H(i, j) ≤ min(i, j)·match`, and
///    `m·match` is reached only in row `m`, only by `m` matches and
///    nothing else — i.e. only at the end of a perfect diagonal.
/// 2. The fill keeps a new best only on a strict `>`, rows before
///    columns, so it ends on the first such cell: the smallest perfect
///    `d`, which is in the band, whose cells the band computes exactly
///    (a diagonal neighbour is never clamped).
/// 3. Along that diagonal `H = i·match` while `E, F ≤ H −
///    |gap_open + gap_extend|`, so every traceback step is `TB_DIAG`
///    down to row 0: no clip, no edit.
/// 4. Whether the band then answers, or an edge trigger hands the
///    extension to the full DP, 1–3 hold for both, so both return this.
///
/// A perfect diagonal *below* the band is the one case left to the DP:
/// the full DP would report it, the band another, and which of the two
/// runs is the fill's to decide.
#[inline]
pub(super) fn exact_diagonal(
    query: &[u8],
    window: &[u8],
    scoring: &Scoring,
    band: Band,
) -> Option<LocalAlignment> {
    let m = query.len();
    if !sound(scoring) || window.len() < m {
        return None;
    }
    let last = band.d_max.min((window.len() - m) as isize);
    let d = (0..=last).find(|&d| window[d as usize..d as usize + m] == *query)?;
    (d >= band.d_min).then(|| LocalAlignment {
        score: m as i32 * scoring.match_score,
        ref_start: d as usize,
        cigar: Cigar(vec![CigarOp::Match(m as u32)]),
        edit_distance: 0,
        query_start: 0,
        query_end: m,
    })
}

/// The read a substitution or so from the reference: one Kadane pass
/// (`h = max(0, h + sub)`) down each in-matrix band diagonal finds `S`,
/// the best gapless run — the first in row-then-column order — and when
/// `S > max(0, B)`, with `B = m·match + gap_open + gap_extend`, that run
/// is exactly what the band's fill returns. `B` bounds every path with
/// a gap: at most `m` diagonal steps, and a gap run costs at least
/// `|gap_open + gap_extend|` (the [`sound`] scorings). So, in the fill:
///
/// 1. `H(i, j)` is a gapless run (at most the diagonal's Kadane value
///    `K(i, j)`, which `H` never falls below) or a gapped path (`≤ B`),
///    so `H ≤ S` and only cells with `K = S` reach `S`; the fill keeps
///    the first of them, rows before columns, on its strict `>`.
/// 2. Along the run `H = K`, and on the cell before it `H = 0`:
///    anything more is a gapped path that the run would carry past `S`.
///    So `E, F ≤ H` on the run, every traceback step is `TB_DIAG`, and
///    the answer is `qs S, (qe − qs) M, (m − qe) S` with edit = the
///    run's mismatches.
/// 3. The fallback fires when the run lies on `d_min` / `d_max`, or when
///    an edge cell with `H ≥ edge_cutoff` has `H + (m − i)·match ≥ S`.
///    A gapped edge value's potential is at most `B < S`, so the second
///    fires exactly when a gapless edge value `K` would — which the
///    scan checks itself; both cases decline here.
///
/// A diagonal is dropped once `h + (m − i)·match` falls below the best
/// so far: nothing further down it, run or edge potential, can reach
/// `S` (ties are kept, they may come first). Before its scan, a diagonal
/// that is not a band edge is skipped when its equal bytes × `match`
/// fall below the best so far ([`may_reach`]): no run on it can reach
/// the best, let alone tie it, and only the edge diagonals feed
/// `edge_potential`, so those two are always scanned. The band centre
/// goes first, so the best is high early. Declines (`None`) leave the
/// call to the fill, exactly as before.
#[inline]
pub(super) fn gapless_run(
    query: &[u8],
    window: &[u8],
    scoring: &Scoring,
    band: Band,
) -> Option<LocalAlignment> {
    if !sound(scoring) {
        return None;
    }
    let (m, w) = (query.len(), window.len());
    let mat = scoring.match_score;
    let gapped_max = m as i32 * mat + scoring.gap_open + scoring.gap_extend;
    let lo = band.d_min.max(1 - m as isize);
    let hi = band.d_max.min(w as isize - 1);
    let centre = ((band.d_min + band.d_max) / 2).clamp(lo, hi);
    // The best run so far: score, last row, diagonal, the row before its
    // first (the traceback's stop) and its mismatches.
    let (mut best, mut best_i, mut best_d) = (0, 0, 0);
    let (mut best_stop, mut best_edit) = (0, 0);
    let mut edge_potential = NEG;
    for d in std::iter::once(centre).chain((lo..=hi).filter(|&d| d != centre)) {
        let edge = d == band.d_min || d == band.d_max;
        // Diagonal d starts at row q0 + 1, column w0 + 1.
        let (q0, w0) = ((-d).max(0) as usize, d.max(0) as usize);
        let n = (m - q0).min(w - w0);
        if !edge && !may_reach(&query[q0..q0 + n], &window[w0..w0 + n], best, mat) {
            continue;
        }
        let (mut h, mut stop, mut edit) = (0i32, q0, 0u32);
        let cells = query[q0..q0 + n].iter().zip(&window[w0..w0 + n]);
        for (i, (&qc, &wc)) in (q0 + 1..).zip(cells) {
            let hit = qc == wc;
            h += if hit { mat } else { scoring.mismatch };
            if h <= 0 {
                (h, stop, edit) = (0, i, 0);
            } else {
                edit += !hit as u32;
                if h > best || (h == best && (i, d) < (best_i, best_d)) {
                    (best, best_i, best_d, best_stop, best_edit) = (h, i, d, stop, edit);
                }
            }
            let rest = (m - i) as i32 * mat;
            if edge && h >= band.edge_cutoff {
                edge_potential = edge_potential.max(h + rest);
            }
            if h + rest < best {
                break;
            }
        }
    }
    if best <= gapped_max.max(0)
        || best_d == band.d_min
        || best_d == band.d_max
        || edge_potential >= best
    {
        return None;
    }
    let ops = vec![CigarOp::Match((best_i - best_stop) as u32)];
    let ref_start = (best_stop as isize + best_d) as usize;
    Some(assemble(m, ops, best_edit, best_stop, ref_start, best, best_i))
}

/// Could a gapless run on the diagonal pairing `query` with `window`
/// (equal lengths) reach `best`? Not when its equal bytes × `mat` fall
/// below it. The bytes are compared eight to a XOR'd `u64`, and the scan
/// stops as soon as the unequal bytes found prove the bound; bytes past
/// the last whole word count as equal, which keeps the bound sound.
#[inline]
fn may_reach(query: &[u8], window: &[u8], best: i32, mat: i32) -> bool {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"));
    let mut equal = query.len() as i32;
    for (q, w) in query.chunks_exact(8).zip(window.chunks_exact(8)) {
        if equal * mat < best {
            return false;
        }
        // The high bit of each byte of `x`'s nonzero bytes, summed by a
        // multiply into the top byte.
        let x = word(q) ^ word(w);
        let unequal = (((x & LOW7) + LOW7) | x) >> 7 & 0x0101_0101_0101_0101;
        equal -= (unequal.wrapping_mul(0x0101_0101_0101_0101) >> 56) as i32;
    }
    equal * mat >= best
}

/// The parent commit's gapless scan, verbatim: what the proptests hold
/// [`gapless_run`] to.
#[cfg(test)]
pub(super) mod reference {
    use super::*;

    #[inline]
    pub(crate) fn gapless_run(
        query: &[u8],
        window: &[u8],
        scoring: &Scoring,
        band: Band,
    ) -> Option<LocalAlignment> {
        if !sound(scoring) {
            return None;
        }
        let (m, w) = (query.len(), window.len());
        let mat = scoring.match_score;
        let gapped_max = m as i32 * mat + scoring.gap_open + scoring.gap_extend;
        let lo = band.d_min.max(1 - m as isize);
        let hi = band.d_max.min(w as isize - 1);
        let centre = ((band.d_min + band.d_max) / 2).clamp(lo, hi);
        // The best run so far: score, last row, diagonal, the row before its
        // first (the traceback's stop) and its mismatches.
        let (mut best, mut best_i, mut best_d) = (0, 0, 0);
        let (mut best_stop, mut best_edit) = (0, 0);
        let mut edge_potential = NEG;
        for d in std::iter::once(centre).chain((lo..=hi).filter(|&d| d != centre)) {
            let edge = d == band.d_min || d == band.d_max;
            // Diagonal d starts at row q0 + 1, column w0 + 1.
            let (q0, w0) = ((-d).max(0) as usize, d.max(0) as usize);
            let n = (m - q0).min(w - w0);
            let (mut h, mut stop, mut edit) = (0i32, q0, 0u32);
            let cells = query[q0..q0 + n].iter().zip(&window[w0..w0 + n]);
            for (i, (&qc, &wc)) in (q0 + 1..).zip(cells) {
                let hit = qc == wc;
                h += if hit { mat } else { scoring.mismatch };
                if h <= 0 {
                    (h, stop, edit) = (0, i, 0);
                } else {
                    edit += !hit as u32;
                    if h > best || (h == best && (i, d) < (best_i, best_d)) {
                        (best, best_i, best_d, best_stop, best_edit) = (h, i, d, stop, edit);
                    }
                }
                let rest = (m - i) as i32 * mat;
                if edge && h >= band.edge_cutoff {
                    edge_potential = edge_potential.max(h + rest);
                }
                if h + rest < best {
                    break;
                }
            }
        }
        if best <= gapped_max.max(0)
            || best_d == band.d_min
            || best_d == band.d_max
            || edge_potential >= best
        {
            return None;
        }
        let ops = vec![CigarOp::Match((best_i - best_stop) as u32)];
        let ref_start = (best_stop as isize + best_d) as usize;
        Some(assemble(m, ops, best_edit, best_stop, ref_start, best, best_i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn pruned_gapless_scan_is_the_parents(
            query in proptest::collection::vec(0usize..4, 1..100),
            letters in 1usize..5,
            flanks in (0usize..40, 0usize..40, any::<u64>()),
            copies in (proptest::collection::vec(any::<u16>(), 0..6), 0usize..3, 0isize..20),
            clamp in (prop_oneof![Just(0usize), 0usize..40], prop_oneof![Just(0usize), 0usize..40]),
            band in (-60isize..60, prop_oneof![Just(32isize), 0isize..80], prop_oneof![Just(16i32), 0i32..60]),
            scoring in (1i32..4, -6i32..0, -9i32..=0, -3i32..=0),
        ) {
            // The read over an alphabet of 1–4 letters (few letters: many
            // equal runs, so ties); the window is random flanks around a
            // copy of it with 0–5 substitutions, and 0–2 more copies at a
            // shift (equal runs on two diagonals), trimmed at either end
            // (the band clamped at a window edge). The band may be narrower
            // or wider than the window; the scoring is any sound one.
            let base = |x: usize| b"ACGT"[x % letters];
            let query: Vec<u8> = query.into_iter().map(base).collect();
            let (lead, trail, noise) = flanks;
            let mut window: Vec<u8> =
                (0..lead + query.len() + trail).map(|i| base((noise >> (i % 31 * 2)) as usize ^ i)).collect();
            let (subs, extra, shift) = copies;
            for k in 0..=extra {
                let at = (lead as isize + k as isize * shift).clamp(0, (window.len() - query.len()) as isize) as usize;
                window[at..at + query.len()].copy_from_slice(&query);
            }
            for s in subs {
                let i = s as usize % window.len();
                window[i] = if window[i] == b'A' { b'C' } else { b'A' };
            }
            let (front, back) = clamp;
            let window = &window[front.min(window.len() - 1)..];
            let window = &window[..window.len() - back.min(window.len() - 1)];
            let (m, w) = (query.len() as isize, window.len() as isize);
            let (d_min, width, edge_cutoff) = band;
            let d_min = d_min.clamp(-m - 5, w - 1);
            let band = Band { d_min, d_max: (d_min + width).max(1 - m), edge_cutoff };
            let (match_score, mismatch, gap_open, gap_extend) = scoring;
            let scoring = Scoring { match_score, mismatch, gap_open, gap_extend };
            if !sound(&scoring) {
                return Ok(());
            }
            prop_assert_eq!(
                gapless_run(&query, window, &scoring, band),
                reference::gapless_run(&query, window, &scoring, band),
                "{:?} over {} of {} window bytes", band, String::from_utf8_lossy(&query), window.len()
            );
        }
    }

    #[test]
    fn the_equal_byte_bound_counts_only_whole_words_and_stops_early() {
        let a = b"ACGTACGTACGTACGTAC";
        let mut b = *a;
        // 18 bytes: two whole words and a 2-byte tail, which counts as
        // equal. Three unequal bytes in the words leave a bound of 15.
        b[0] = b'T';
        b[9] = b'T';
        b[15] = b'A';
        b[17] = b'A';
        assert!(may_reach(a, &b, 15, 1));
        assert!(!may_reach(a, &b, 16, 1));
        assert!(may_reach(a, &b, 30, 2));
        assert!(!may_reach(a, &b, 31, 2));
        // Shorter than a word: every byte may be equal.
        assert!(may_reach(&a[..7], &b[..7], 7, 1));
        assert!(!may_reach(&a[..7], &b[..7], 8, 1));
    }
}
