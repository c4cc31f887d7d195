//! Smith–Waterman local alignment with affine gaps and traceback.
//!
//! Aligns a read against a small reference window around a seed hit.
//! Unaligned read ends become soft clips — which is why the 5′ *unclipped*
//! end exists as a derived attribute downstream (MarkDuplicates).
//!
//! Two engines share one [`SwWorkspace`] (reusable rolling rows +
//! traceback, so the hot path never allocates): the full DP
//! ([`local_align`]) and a **banded** variant ([`local_align_banded`])
//! that only fills the diagonal band a seed hit implies, with traceback
//! storage proportional to band×rows instead of `(m+1)×(w+1)`. The band
//! is exact-with-fallback: if the banded best path touches a band edge
//! (where out-of-band neighbors were clamped to −∞ and the full DP might
//! have done better), the extension silently re-runs through the full DP
//! — so callers always see the full-DP answer for every path the band
//! can't prove (DESIGN.md §13).

use crate::kernels;
use gesall_formats::sam::cigar::{Cigar, CigarOp};
use std::cell::RefCell;

/// Alignment scoring parameters (Bwa-mem defaults).
#[derive(Debug, Clone, Copy)]
pub struct Scoring {
    pub match_score: i32,
    pub mismatch: i32,
    /// Penalty charged once per gap (negative).
    pub gap_open: i32,
    /// Penalty per gap base (negative).
    pub gap_extend: i32,
}

impl Default for Scoring {
    fn default() -> Scoring {
        Scoring {
            match_score: 1,
            mismatch: -4,
            gap_open: -6,
            gap_extend: -1,
        }
    }
}

/// Result of a local alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAlignment {
    /// Smith–Waterman score of the aligned segment.
    pub score: i32,
    /// 0-based start of the alignment within the reference window.
    pub ref_start: usize,
    /// CIGAR covering the *whole* query: soft clips for unaligned ends.
    pub cigar: Cigar,
    /// Mismatches + inserted + deleted bases in the aligned segment.
    pub edit_distance: u32,
    /// First aligned query base (= leading soft clip length).
    pub query_start: usize,
    /// One past the last aligned query base.
    pub query_end: usize,
}

// Traceback states.
const TB_STOP: u8 = 0;
const TB_DIAG: u8 = 1;
const TB_FROM_E: u8 = 2; // H came from E (insertion run just ended)
const TB_FROM_F: u8 = 3; // H came from F (deletion run just ended)
const E_OPEN: u8 = 0; // E run opened here (came from H above)
const E_EXT: u8 = 1;
const F_OPEN: u8 = 0;
const F_EXT: u8 = 1;

const NEG: i32 = i32::MIN / 4;

/// Reusable DP scratch: rolling score rows and traceback matrices, grown
/// on demand and recycled across calls so the per-extension cost is a
/// `memset`, not a malloc. One lives per thread behind
/// [`with_workspace`]; tests and benches may hold their own.
#[derive(Default)]
pub struct SwWorkspace {
    h_prev: Vec<i32>,
    h_cur: Vec<i32>,
    e_prev: Vec<i32>,
    e_cur: Vec<i32>,
    f_cur: Vec<i32>,
    tb_h: Vec<u8>,
    tb_e: Vec<u8>,
    tb_f: Vec<u8>,
}

impl SwWorkspace {
    pub fn new() -> SwWorkspace {
        SwWorkspace::default()
    }
}

#[inline]
fn reset_i32(v: &mut Vec<i32>, len: usize, fill: i32) {
    v.clear();
    v.resize(len, fill);
}

#[inline]
fn reset_u8(v: &mut Vec<u8>, len: usize, fill: u8) {
    v.clear();
    v.resize(len, fill);
}

thread_local! {
    static WORKSPACE: RefCell<SwWorkspace> = RefCell::new(SwWorkspace::new());
}

/// Run `f` with this thread's shared [`SwWorkspace`]. Do not call
/// [`local_align`] (which borrows the same workspace) from inside `f` —
/// use [`local_align_with`] / [`local_align_banded`] on the borrowed
/// workspace instead.
pub fn with_workspace<R>(f: impl FnOnce(&mut SwWorkspace) -> R) -> R {
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

/// A diagonal band: cells `(i, j)` (1-based query row, window column)
/// with `j − i ∈ [d_min, d_max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    pub d_min: isize,
    pub d_max: isize,
    /// Noise floor for the edge-potential fallback check: band-edge
    /// cells scoring below this are ignored when deciding whether a
    /// path crossing the band could beat the banded best. On random DNA
    /// the best noise fragment over a band of ~10⁴ cells scores
    /// ≈ log₄(cells) ≈ 8, so the default of 16 sits well above noise
    /// yet far below any real alignment fragment riding the edge.
    pub edge_cutoff: i32,
}

/// See [`Band::edge_cutoff`].
pub const DEFAULT_EDGE_CUTOFF: i32 = 16;

impl Band {
    /// The band around an expected query-start offset in the window
    /// (`j ≈ i + offset` along the seed diagonal), widened by `slack`
    /// diagonals on each side for indels.
    pub fn around_offset(offset: isize, slack: usize) -> Band {
        Band {
            d_min: offset - slack as isize,
            d_max: offset + slack as isize,
            edge_cutoff: DEFAULT_EDGE_CUTOFF,
        }
    }

    fn width(&self) -> usize {
        (self.d_max - self.d_min + 1).max(0) as usize
    }
}

/// Local alignment of `query` against `window`. Returns `None` when no
/// positive-scoring alignment exists. Uses the thread's shared
/// workspace; see [`local_align_with`] to supply your own.
pub fn local_align(query: &[u8], window: &[u8], scoring: &Scoring) -> Option<LocalAlignment> {
    with_workspace(|ws| local_align_with(query, window, scoring, ws))
}

/// Shared traceback walker over whichever traceback matrices the fill
/// produced; `idx` maps a cell to its slot and `visit` observes every
/// cell on the path (the banded caller's edge detector).
#[allow(clippy::too_many_arguments)]
fn trace_path(
    query: &[u8],
    window: &[u8],
    tb_h: &[u8],
    tb_e: &[u8],
    tb_f: &[u8],
    mut idx: impl FnMut(usize, usize) -> usize,
    mut visit: impl FnMut(usize, usize),
    best_i: usize,
    best_j: usize,
) -> (Vec<CigarOp>, u32, usize, usize) {
    let mut i = best_i;
    let mut j = best_j;
    let mut ops_rev: Vec<CigarOp> = Vec::new();
    let mut edit = 0u32;
    let push = |ops: &mut Vec<CigarOp>, op: CigarOp| {
        if let (Some(last), op_n) = (ops.last_mut(), op) {
            match (last, op_n) {
                (CigarOp::Match(a), CigarOp::Match(b)) => {
                    *a += b;
                    return;
                }
                (CigarOp::Ins(a), CigarOp::Ins(b)) => {
                    *a += b;
                    return;
                }
                (CigarOp::Del(a), CigarOp::Del(b)) => {
                    *a += b;
                    return;
                }
                _ => {}
            }
        }
        ops.push(op);
    };
    // State machine over (H/E/F).
    #[derive(PartialEq)]
    enum St {
        H,
        E,
        F,
    }
    let mut st = St::H;
    loop {
        visit(i, j);
        let slot = idx(i, j);
        match st {
            St::H => match tb_h[slot] {
                TB_STOP => break,
                TB_DIAG => {
                    if query[i - 1] != window[j - 1] {
                        edit += 1;
                    }
                    push(&mut ops_rev, CigarOp::Match(1));
                    i -= 1;
                    j -= 1;
                }
                TB_FROM_E => st = St::E,
                TB_FROM_F => st = St::F,
                _ => unreachable!(),
            },
            St::E => {
                push(&mut ops_rev, CigarOp::Ins(1));
                edit += 1;
                let was_open = tb_e[slot] == E_OPEN;
                i -= 1;
                if was_open {
                    st = St::H;
                }
            }
            St::F => {
                push(&mut ops_rev, CigarOp::Del(1));
                edit += 1;
                let was_open = tb_f[slot] == F_OPEN;
                j -= 1;
                if was_open {
                    st = St::H;
                }
            }
        }
    }
    (ops_rev, edit, i, j)
}

fn assemble(
    m: usize,
    ops_rev: Vec<CigarOp>,
    edit: u32,
    stop_i: usize,
    stop_j: usize,
    best: i32,
    best_i: usize,
) -> LocalAlignment {
    let query_start = stop_i;
    let query_end = best_i;
    let ref_start = stop_j;
    let mut ops: Vec<CigarOp> = Vec::new();
    if query_start > 0 {
        ops.push(CigarOp::SoftClip(query_start as u32));
    }
    ops.extend(ops_rev.into_iter().rev());
    if query_end < m {
        ops.push(CigarOp::SoftClip((m - query_end) as u32));
    }
    LocalAlignment {
        score: best,
        ref_start,
        cigar: Cigar(ops),
        edit_distance: edit,
        query_start,
        query_end,
    }
}

/// The full DP, on a caller-supplied workspace.
pub fn local_align_with(
    query: &[u8],
    window: &[u8],
    scoring: &Scoring,
    ws: &mut SwWorkspace,
) -> Option<LocalAlignment> {
    let m = query.len();
    let w = window.len();
    if m == 0 || w == 0 {
        return None;
    }
    let cols = w + 1;
    let SwWorkspace {
        h_prev,
        h_cur,
        e_prev,
        e_cur,
        f_cur,
        tb_h,
        tb_e,
        tb_f,
    } = ws;
    reset_i32(h_prev, cols, 0);
    reset_i32(h_cur, cols, 0);
    reset_i32(e_prev, cols, NEG);
    reset_i32(e_cur, cols, NEG);
    reset_i32(f_cur, cols, NEG);
    reset_u8(tb_h, (m + 1) * cols, TB_STOP);
    reset_u8(tb_e, (m + 1) * cols, E_OPEN);
    reset_u8(tb_f, (m + 1) * cols, F_OPEN);

    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;

    for i in 1..=m {
        h_cur[0] = 0;
        f_cur[0] = NEG;
        let qi = query[i - 1];
        for j in 1..=w {
            let idx = i * cols + j;
            // E: gap in reference (insertion to the read).
            let e_open = h_prev[j] + scoring.gap_open + scoring.gap_extend;
            let e_ext = e_prev[j] + scoring.gap_extend;
            let e = if e_ext > e_open {
                tb_e[idx] = E_EXT;
                e_ext
            } else {
                tb_e[idx] = E_OPEN;
                e_open
            };
            e_cur[j] = e;
            // F: gap in query (deletion from the read).
            let f_open = h_cur[j - 1] + scoring.gap_open + scoring.gap_extend;
            let f_ext = f_cur[j - 1] + scoring.gap_extend;
            let f = if f_ext > f_open {
                tb_f[idx] = F_EXT;
                f_ext
            } else {
                tb_f[idx] = F_OPEN;
                f_open
            };
            f_cur[j] = f;
            // H.
            let sub = if qi == window[j - 1] {
                scoring.match_score
            } else {
                scoring.mismatch
            };
            let diag = h_prev[j - 1] + sub;
            let mut h = 0;
            let mut tb = TB_STOP;
            if diag > h {
                h = diag;
                tb = TB_DIAG;
            }
            if e > h {
                h = e;
                tb = TB_FROM_E;
            }
            if f > h {
                h = f;
                tb = TB_FROM_F;
            }
            h_cur[j] = h;
            tb_h[idx] = tb;
            if h > best {
                best = h;
                best_i = i;
                best_j = j;
            }
        }
        std::mem::swap(h_prev, h_cur);
        std::mem::swap(e_prev, e_cur);
        for v in f_cur.iter_mut() {
            *v = NEG;
        }
    }

    if best <= 0 {
        return None;
    }

    let (ops_rev, edit, stop_i, stop_j) = trace_path(
        query,
        window,
        tb_h,
        tb_e,
        tb_f,
        |i, j| i * cols + j,
        |_, _| {},
        best_i,
        best_j,
    );
    Some(assemble(m, ops_rev, edit, stop_i, stop_j, best, best_i))
}

/// Banded local alignment, exact-with-fallback: fills only cells with
/// `j − i` inside `band`, treating out-of-band neighbors as −∞. The
/// call transparently re-runs the full DP when the band can't prove its
/// answer: no positive cell found, the best path's traceback touches a
/// band-edge diagonal, or any edge cell scored ≥ [`Band::edge_cutoff`]
/// during the fill (a path crossing the band — e.g. an indel wider than
/// the slack — shows up as real score riding the edge even when the
/// *banded* optimum stays interior). Residual caveat: an alignment
/// wholly outside the band (a repeat elsewhere in the window, unseen by
/// every band cell) cannot be detected here; the benchmark's
/// committed output digests are the backstop for that case. Kernel
/// counters record which way each call went.
pub fn local_align_banded(
    query: &[u8],
    window: &[u8],
    scoring: &Scoring,
    band: Band,
    ws: &mut SwWorkspace,
) -> Option<LocalAlignment> {
    let m = query.len();
    let w = window.len();
    if m == 0 || w == 0 {
        return None;
    }
    let band_w = band.width();
    // A band that misses the matrix or isn't actually narrower than it
    // proves nothing worth the second pass: go straight to the full DP.
    if band_w == 0
        || band.d_max < 1 - m as isize
        || band.d_min > w as isize - 1
        || band_w >= w
    {
        kernels::add_full_fallback();
        return local_align_with(query, window, scoring, ws);
    }
    let (d_min, d_max) = (band.d_min, band.d_max);
    let SwWorkspace {
        h_prev,
        h_cur,
        e_prev,
        e_cur,
        f_cur,
        tb_h,
        tb_e,
        tb_f,
    } = ws;
    // Row slots 0..band_w hold band cells; slot band_w is a permanent −∞
    // sentinel so the `b + 1` up-neighbor read needs no branch.
    reset_i32(h_prev, band_w + 1, NEG);
    reset_i32(h_cur, band_w + 1, NEG);
    reset_i32(e_prev, band_w + 1, NEG);
    reset_i32(e_cur, band_w + 1, NEG);
    reset_i32(f_cur, band_w + 1, NEG);
    reset_u8(tb_h, (m + 1) * band_w, TB_STOP);
    reset_u8(tb_e, (m + 1) * band_w, E_OPEN);
    reset_u8(tb_f, (m + 1) * band_w, F_OPEN);

    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    // Best case any path crossing a band edge could still reach: the
    // edge cell's score plus a perfect-match continuation outside.
    let mut edge_potential = NEG;

    for i in 1..=m {
        for b in 0..band_w {
            h_cur[b] = NEG;
            e_cur[b] = NEG;
            f_cur[b] = NEG;
        }
        let jlo = (i as isize + d_min).max(1);
        let jhi = (i as isize + d_max).min(w as isize);
        if jlo <= jhi {
            let qi = query[i - 1];
            for j in jlo..=jhi {
                let b = (j - i as isize - d_min) as usize;
                let idx = i * band_w + b;
                // Up neighbor (i−1, j): band slot b+1 of the previous
                // row; the matrix's top boundary is H=0 / E=−∞.
                let (up_h, up_e) = if i == 1 {
                    (0, NEG)
                } else {
                    (h_prev[b + 1], e_prev[b + 1])
                };
                let e_open = up_h + scoring.gap_open + scoring.gap_extend;
                let e_ext = up_e + scoring.gap_extend;
                let e = if e_ext > e_open {
                    tb_e[idx] = E_EXT;
                    e_ext
                } else {
                    tb_e[idx] = E_OPEN;
                    e_open
                };
                e_cur[b] = e;
                // Left neighbor (i, j−1): band slot b−1 of this row; the
                // matrix's left boundary is H=0 / F=−∞; off-band is −∞.
                let (left_h, left_f) = if j == 1 {
                    (0, NEG)
                } else if b == 0 {
                    (NEG, NEG)
                } else {
                    (h_cur[b - 1], f_cur[b - 1])
                };
                let f_open = left_h + scoring.gap_open + scoring.gap_extend;
                let f_ext = left_f + scoring.gap_extend;
                let f = if f_ext > f_open {
                    tb_f[idx] = F_EXT;
                    f_ext
                } else {
                    tb_f[idx] = F_OPEN;
                    f_open
                };
                f_cur[b] = f;
                // Diag neighbor (i−1, j−1): same band slot b of the
                // previous row (always structurally in-band).
                let diag_h = if i == 1 || j == 1 { 0 } else { h_prev[b] };
                let sub = if qi == window[j as usize - 1] {
                    scoring.match_score
                } else {
                    scoring.mismatch
                };
                let diag = diag_h + sub;
                let mut h = 0;
                let mut tb = TB_STOP;
                if diag > h {
                    h = diag;
                    tb = TB_DIAG;
                }
                if e > h {
                    h = e;
                    tb = TB_FROM_E;
                }
                if f > h {
                    h = f;
                    tb = TB_FROM_F;
                }
                h_cur[b] = h;
                tb_h[idx] = tb;
                if h > best {
                    best = h;
                    best_i = i;
                    best_j = j as usize;
                }
                // Real score riding an edge diagonal (b==0 ⟺ d==d_min,
                // b==band_w−1 ⟺ d==d_max) may be a path crossing the
                // band; what it could still earn outside is bounded by a
                // perfect-match continuation over the remaining rows.
                // Gap-shadows of an interior optimum also reach the edge
                // (at optimum − gap cost), but their potential stays
                // below the optimum, so they don't fire this.
                if (b == 0 || b == band_w - 1) && h >= band.edge_cutoff {
                    let pot = h + (m - i) as i32 * scoring.match_score;
                    edge_potential = edge_potential.max(pot);
                }
            }
        }
        std::mem::swap(h_prev, h_cur);
        std::mem::swap(e_prev, e_cur);
    }

    if best <= 0 || edge_potential >= best {
        // Either the band found nothing positive, or a band-crossing
        // path could plausibly match or beat the banded best — both
        // mean the full matrix may hold an answer the band can't see.
        kernels::add_full_fallback();
        return local_align_with(query, window, scoring, ws);
    }

    let mut edge_touched = false;
    let (ops_rev, edit, stop_i, stop_j) = trace_path(
        query,
        window,
        tb_h,
        tb_e,
        tb_f,
        |i, j| {
            let b = (j as isize - i as isize - d_min) as usize;
            debug_assert!(b < band_w, "traceback left the band");
            i * band_w + b
        },
        |i, j| {
            let d = j as isize - i as isize;
            if d == d_min || d == d_max {
                edge_touched = true;
            }
        },
        best_i,
        best_j,
    );
    if edge_touched {
        kernels::add_full_fallback();
        return local_align_with(query, window, scoring, ws);
    }
    kernels::add_banded_hit();
    Some(assemble(m, ops_rev, edit, stop_i, stop_j, best, best_i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Scoring {
        Scoring::default()
    }

    #[test]
    fn perfect_match() {
        let q = b"ACGTACGTAC";
        let w = b"TTTACGTACGTACTTT";
        let a = local_align(q, w, &s()).unwrap();
        assert_eq!(a.score, 10);
        assert_eq!(a.ref_start, 3);
        assert_eq!(a.cigar.to_string(), "10M");
        assert_eq!(a.edit_distance, 0);
        assert_eq!(a.query_start, 0);
        assert_eq!(a.query_end, 10);
    }

    #[test]
    fn single_mismatch_in_middle() {
        let q = b"ACGTACGTACGTACGTACGT";
        let mut wv = q.to_vec();
        wv[10] = b'A'; // was C
        let a = local_align(q, &wv, &s()).unwrap();
        assert_eq!(a.cigar.to_string(), "20M");
        assert_eq!(a.edit_distance, 1);
        assert_eq!(a.score, 19 - 4);
    }

    #[test]
    fn insertion_in_read() {
        // read has 2 extra bases vs reference
        let reference = b"ACGTACGTTGCATGCAACGT";
        let mut q = reference.to_vec();
        q.splice(10..10, [b'G', b'G']);
        let a = local_align(&q, reference, &s()).unwrap();
        assert!(a.cigar.to_string().contains('I'), "cigar {}", a.cigar);
        let ins: u32 = a
            .cigar
            .0
            .iter()
            .filter_map(|op| match op {
                CigarOp::Ins(n) => Some(*n),
                _ => None,
            })
            .sum();
        // The 2-base insertion may be absorbed as clips, but the best
        // scoring path keeps both flanks: 20 matches - gap cost.
        assert_eq!(ins, 2);
        assert_eq!(a.score, 20 - 6 - 2);
    }

    #[test]
    fn deletion_from_read() {
        // Long flanks so bridging the 3-base deletion (gap cost 9) clearly
        // beats soft-clipping a whole flank.
        let reference = b"ACGTACGTTGCATGCAACGTCCATGGTTCAGGACTTACAG";
        let mut q = reference.to_vec();
        q.drain(18..21);
        let a = local_align(&q, reference, &s()).unwrap();
        let del: u32 = a
            .cigar
            .0
            .iter()
            .filter_map(|op| match op {
                CigarOp::Del(n) => Some(*n),
                _ => None,
            })
            .sum();
        assert_eq!(del, 3);
        assert_eq!(a.edit_distance, 3);
    }

    #[test]
    fn low_quality_tail_is_soft_clipped() {
        // First 30 bases match; last 10 are garbage relative to window.
        let window = b"GGATCCGGAACCTTGGAACCGGTTAACCGGAATT";
        let mut q = window[2..32].to_vec();
        q.extend_from_slice(b"CACACACACA"); // unrelated tail
        let a = local_align(&q, window, &s()).unwrap();
        assert_eq!(a.query_start, 0);
        assert!(a.query_end <= 32);
        let t = a.cigar.to_string();
        assert!(t.ends_with('S'), "expected trailing soft clip: {t}");
        assert_eq!(a.cigar.query_len() as usize, q.len());
    }

    #[test]
    fn no_alignment_for_disjoint_sequences() {
        let a = local_align(b"AAAAAAAA", b"TTTTTTTT", &s());
        // Single-base matches score 1; local alignment of A vs T text has
        // no positive cells at all.
        assert!(a.is_none());
    }

    #[test]
    fn empty_inputs() {
        assert!(local_align(b"", b"ACGT", &s()).is_none());
        assert!(local_align(b"ACGT", b"", &s()).is_none());
    }

    #[test]
    fn cigar_query_len_invariant() {
        // Whatever the alignment, the CIGAR must account for every query
        // base (softclips + M + I).
        let window = b"ACGGTTACAGGATACCATGGTTCAGGACTTACA";
        for q in [
            b"GGTTACAGGATACC".to_vec(),
            b"GGTTACAGGAAACC".to_vec(),
            b"TTTTGGTTACAGGATACC".to_vec(),
        ] {
            if let Some(a) = local_align(&q, window, &s()) {
                assert_eq!(a.cigar.query_len() as usize, q.len(), "query {:?}", q);
            }
        }
    }

    #[test]
    fn alignment_score_prefers_gap_over_many_mismatches() {
        // Reference has 1-base deletion relative to read: aligning with a
        // gap (cost 7) beats forcing 10+ mismatches.
        let reference = b"ACGTAGCCTAGGATCAGGTTACGATTACGGAT";
        let mut q = reference.to_vec();
        q.remove(15);
        let a = local_align(&q, reference, &s()).unwrap();
        assert!(a.cigar.to_string().contains('D'), "{}", a.cigar);
    }

    // ---- banded kernel ----

    fn pseudo_dna(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(x >> 33) as usize % 4]
            })
            .collect()
    }

    /// The seed-extension shape: window = read context ± margin, read cut
    /// from the middle with point errors/indels.
    fn seeded_pair(seed: u64, margin: usize, mutate: impl Fn(&mut Vec<u8>)) -> (Vec<u8>, Vec<u8>) {
        let ctx = pseudo_dna(100 + 2 * margin, seed);
        let mut read = ctx[margin..margin + 100].to_vec();
        mutate(&mut read);
        (read, ctx)
    }

    #[test]
    fn banded_equals_full_on_seeded_pairs() {
        let margin = 16;
        let band = Band::around_offset(margin as isize, margin);
        let mut ws = SwWorkspace::new();
        for seed in 0..40u64 {
            let (read, window) = seeded_pair(seed, margin, |r| {
                // A couple of point errors.
                r[10] = b"ACGT"[(seed % 4) as usize];
                r[77] = b"ACGT"[((seed + 1) % 4) as usize];
                if seed % 3 == 0 {
                    // Small deletion (3bp), well inside the band slack.
                    r.drain(40..43);
                }
                if seed % 5 == 0 {
                    // Small insertion.
                    r.splice(60..60, [b'A', b'C']);
                }
            });
            let full = local_align(&read, &window, &s());
            let banded = local_align_banded(&read, &window, &s(), band, &mut ws);
            assert_eq!(banded, full, "seed {seed}");
        }
    }

    #[test]
    fn banded_hits_are_counted() {
        let margin = 16;
        let band = Band::around_offset(margin as isize, margin);
        let mut ws = SwWorkspace::new();
        let (read, window) = seeded_pair(7, margin, |_| {});
        let before = crate::kernels::snapshot();
        let a = local_align_banded(&read, &window, &s(), band, &mut ws).unwrap();
        assert_eq!(a.score, 100);
        let delta = crate::kernels::snapshot().delta(&before);
        assert!(delta.sw_banded_hits >= 1);
    }

    #[test]
    fn band_edge_falls_back_to_full() {
        // An indel bigger than the band slack pushes the best path onto /
        // past the band edge; the fallback must hand back the full answer.
        let margin = 16;
        let band = Band::around_offset(margin as isize, 4); // slack 4 only
        let mut ws = SwWorkspace::new();
        let (read, window) = seeded_pair(11, margin, |r| {
            r.drain(30..40); // 10bp deletion > slack 4
        });
        let before = crate::kernels::snapshot();
        let full = local_align(&read, &window, &s());
        let banded = local_align_banded(&read, &window, &s(), band, &mut ws);
        assert_eq!(banded, full);
        let delta = crate::kernels::snapshot().delta(&before);
        assert!(delta.sw_full_fallbacks >= 1, "expected an edge fallback");
    }

    #[test]
    fn degenerate_bands_fall_back() {
        let mut ws = SwWorkspace::new();
        let q = b"ACGTACGTAC";
        let w = b"TTTACGTACGTACTTT";
        let full = local_align(q, w, &s());
        // Band wider than the window: full DP, same answer.
        assert_eq!(
            local_align_banded(q, w, &s(), Band::around_offset(0, 100), &mut ws),
            full
        );
        // Band entirely off-matrix: full DP, same answer.
        let off_matrix = Band {
            d_min: 500,
            d_max: 510,
            edge_cutoff: DEFAULT_EDGE_CUTOFF,
        };
        assert_eq!(local_align_banded(q, w, &s(), off_matrix, &mut ws), full);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        // A big alignment followed by a small one: stale workspace
        // contents must not leak into the second result.
        let mut ws = SwWorkspace::new();
        let big_q = pseudo_dna(200, 3);
        let big_w = pseudo_dna(300, 3);
        let _ = local_align_with(&big_q, &big_w, &s(), &mut ws);
        let a = local_align_with(b"ACGTACGTAC", b"TTTACGTACGTACTTT", &s(), &mut ws).unwrap();
        assert_eq!(a.cigar.to_string(), "10M");
        assert_eq!(a.score, 10);
        let band = Band::around_offset(3, 4);
        let b = local_align_banded(b"ACGTACGTAC", b"TTTACGTACGTACTTT", &s(), band, &mut ws).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn banded_none_matches_full_none() {
        let mut ws = SwWorkspace::new();
        let band = Band::around_offset(0, 4);
        assert!(local_align_banded(b"AAAAAAAA", b"TTTTTTTT", &s(), band, &mut ws).is_none());
        assert!(local_align_banded(b"", b"ACGT", &s(), band, &mut ws).is_none());
        assert!(local_align_banded(b"ACGT", b"", &s(), band, &mut ws).is_none());
    }
}

