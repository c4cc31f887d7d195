//! Smith–Waterman local alignment with affine gaps and traceback.
//!
//! Aligns a read against a small reference window around a seed hit.
//! Unaligned read ends become soft clips — which is why the 5′ *unclipped*
//! end exists as a derived attribute downstream (MarkDuplicates).
//!
//! Two engines share one [`SwWorkspace`] (reusable rolling rows +
//! traceback, so the hot path never allocates) and one row function
//! (`fill_row`, the only copy of the recurrence): the full DP
//! ([`local_align`]) and a **banded** variant ([`local_align_banded`])
//! that only fills the diagonal band a seed hit implies, with traceback
//! storage proportional to band×rows instead of `(m+1)×(w+1)` — and
//! fills nothing at all for a read that equals the reference on a band
//! diagonal (`exact_diagonal`) or whose best gapless run outscores every
//! path with a gap (`gapless_run`). The band is exact-with-fallback: if the
//! banded best path touches a band edge (where out-of-band neighbors
//! were clamped to −∞ and the full DP might have done better), the
//! extension silently re-runs through the full DP — so callers always
//! see the full-DP answer for every path the band can't prove
//! (DESIGN.md §13).

mod shortcut;

use gesall_formats::sam::cigar::{Cigar, CigarOp};
use gesall_telemetry::KernelStats;
use shortcut::{exact_diagonal, gapless_run};
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

// One traceback byte per cell: the H state in bits 0–1, "E extended"
// (insertion run continues upward) in bit 2, "F extended" in bit 3.
const TB_STOP: u8 = 0;
const TB_DIAG: u8 = 1;
const TB_FROM_E: u8 = 2; // H came from E (insertion run just ended)
const TB_FROM_F: u8 = 3; // H came from F (deletion run just ended)
const TB_H_MASK: u8 = 3;
const TB_E_EXT: u8 = 4;
const TB_F_EXT: u8 = 8;

const NEG: i32 = i32::MIN / 4;

/// Reusable DP scratch: rolling score rows and the traceback plane, grown
/// on demand and recycled across calls so the per-extension cost is a
/// `memset`, not a malloc. One lives per thread behind
/// [`with_workspace`]; tests and benches may hold their own.
#[derive(Default)]
pub struct SwWorkspace {
    h_prev: Vec<i32>,
    h_cur: Vec<i32>,
    e_prev: Vec<i32>,
    e_cur: Vec<i32>,
    tb: Vec<u8>,
}

impl SwWorkspace {
    pub fn new() -> SwWorkspace {
        SwWorkspace::default()
    }
}

#[inline]
fn reset<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) {
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

/// One DP row over `win.len()` consecutive cells: the recurrence is
/// written here and nowhere else, so the full DP and the band cannot
/// drift apart. Cell `k` reads `diag_h[k]`, `up_h[k]`, `up_e[k]` from
/// the previous row and its left neighbour from the cell just written
/// (`left_h` seeds the first cell; a row's first F is always −∞). Two
/// passes: the first takes each cell's diagonal and E, which need
/// nothing from the left and so vectorize; the second runs F across the
/// row. Every choice is a select, not a branch — ties resolve as in the
/// textbook order (open over extend; diag, then E, then F, each needing
/// a strict win). Returns the row's maximum H and the *first* cell that
/// reached it.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fill_row(
    scoring: &Scoring,
    qi: u8,
    win: &[u8],
    diag_h: &[i32],
    up_h: &[i32],
    up_e: &[i32],
    h_out: &mut [i32],
    e_out: &mut [i32],
    tb: &mut [u8],
    mut left_h: i32,
) -> (i32, usize) {
    let n = win.len();
    let (diag_h, up_h, up_e) = (&diag_h[..n], &up_h[..n], &up_e[..n]);
    let (h_out, e_out, tb) = (&mut h_out[..n], &mut e_out[..n], &mut tb[..n]);
    #[cfg(test)]
    reference::add_cells(n);
    let gap_first = scoring.gap_open + scoring.gap_extend;
    for k in 0..n {
        // E: gap in reference (insertion to the read).
        let e_open = up_h[k] + gap_first;
        let e_ext = up_e[k] + scoring.gap_extend;
        let e = e_open.max(e_ext);
        let sub = if qi == win[k] {
            scoring.match_score
        } else {
            scoring.mismatch
        };
        let diag = diag_h[k] + sub;
        let h = diag.max(0);
        let state = if diag > 0 { TB_DIAG } else { TB_STOP };
        let state = if e > h { TB_FROM_E } else { state };
        h_out[k] = h.max(e);
        e_out[k] = e;
        tb[k] = state | if e_ext > e_open { TB_E_EXT } else { 0 };
    }
    let mut left_f = NEG;
    let (mut row_best, mut row_best_k) = (0i32, 0usize);
    for k in 0..n {
        // F: gap in query (deletion from the read).
        let f_open = left_h + gap_first;
        let f_ext = left_f + scoring.gap_extend;
        let f = f_open.max(f_ext);
        let h = h_out[k];
        let state = if f > h { TB_FROM_F } else { tb[k] & TB_H_MASK };
        let h = h.max(f);
        h_out[k] = h;
        tb[k] = (tb[k] & !TB_H_MASK) | state | if f_ext > f_open { TB_F_EXT } else { 0 };
        row_best_k = if h > row_best { k } else { row_best_k };
        row_best = row_best.max(h);
        left_h = h;
        left_f = f;
    }
    (row_best, row_best_k)
}

/// Traceback walker over the plane the fill produced; `idx` maps a cell
/// to its slot and `visit` observes every cell on the path (the banded
/// caller's edge detector).
fn trace_path(
    query: &[u8],
    window: &[u8],
    tb: &[u8],
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
        let cell = tb[idx(i, j)];
        match st {
            St::H => match cell & TB_H_MASK {
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
                _ => st = St::F,
            },
            St::E => {
                push(&mut ops_rev, CigarOp::Ins(1));
                edit += 1;
                i -= 1;
                if cell & TB_E_EXT == 0 {
                    st = St::H;
                }
            }
            St::F => {
                push(&mut ops_rev, CigarOp::Del(1));
                edit += 1;
                j -= 1;
                if cell & TB_F_EXT == 0 {
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
        tb,
    } = ws;
    // Slot j of a row is column j; column 0 (H = 0) is never written.
    reset(h_prev, cols, 0);
    reset(h_cur, cols, 0);
    reset(e_prev, cols, NEG);
    reset(e_cur, cols, NEG);
    reset(tb, (m + 1) * cols, TB_STOP);

    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    for i in 1..=m {
        let (row_best, k) = fill_row(
            scoring,
            query[i - 1],
            window,
            &h_prev[..w],
            &h_prev[1..],
            &e_prev[1..],
            &mut h_cur[1..],
            &mut e_cur[1..],
            &mut tb[i * cols + 1..],
            0,
        );
        if row_best > best {
            best = row_best;
            best_i = i;
            best_j = k + 1;
        }
        std::mem::swap(h_prev, h_cur);
        std::mem::swap(e_prev, e_cur);
    }

    if best <= 0 {
        return None;
    }

    let (ops_rev, edit, stop_i, stop_j) = trace_path(
        query,
        window,
        tb,
        |i, j| i * cols + j,
        |_, _| {},
        best_i,
        best_j,
    );
    Some(assemble(m, ops_rev, edit, stop_i, stop_j, best, best_i))
}

/// Banded local alignment, exact-with-fallback: fills only cells with
/// `j − i` inside `band`, treating out-of-band neighbors as −∞. A read
/// that equals the window on a band diagonal is answered before any
/// fill (`shortcut::exact_diagonal`), and so is one whose best gapless
/// run outscores every path with a gap (`shortcut::gapless_run`).
/// Otherwise the call transparently re-runs the full DP when the band
/// can't prove its answer: no positive cell found, the best path's
/// traceback touches a band-edge diagonal, or any edge cell scored ≥
/// [`Band::edge_cutoff`] during the fill (a path crossing the band —
/// e.g. an indel wider than the slack — shows up as real score riding
/// the edge even when the *banded* optimum stays interior). Residual caveat: an alignment
/// wholly outside the band (a repeat elsewhere in the window, unseen by
/// every band cell) cannot be detected here; the benchmark's committed
/// output digests are the backstop for that case.
pub fn local_align_banded(
    query: &[u8],
    window: &[u8],
    scoring: &Scoring,
    band: Band,
    ws: &mut SwWorkspace,
) -> Option<LocalAlignment> {
    local_align_banded_counted(query, window, scoring, band, ws, &mut KernelStats::default())
}

/// [`local_align_banded`], tallying into `stats` which way the call went.
pub(crate) fn local_align_banded_counted(
    query: &[u8],
    window: &[u8],
    scoring: &Scoring,
    band: Band,
    ws: &mut SwWorkspace,
    stats: &mut KernelStats,
) -> Option<LocalAlignment> {
    #[cfg(test)]
    if reference::in_use() {
        return reference::local_align_banded(query, window, scoring, band);
    }
    let m = query.len();
    let w = window.len();
    if m == 0 || w == 0 {
        return None;
    }
    if let Some(exact) = exact_diagonal(query, window, scoring, band) {
        stats.sw_exact_hits += 1;
        return Some(exact);
    }
    let band_w = band.width();
    // A band that misses the matrix or isn't actually narrower than it
    // proves nothing worth the second pass: go straight to the full DP.
    if band_w == 0
        || band.d_max < 1 - m as isize
        || band.d_min > w as isize - 1
        || band_w >= w
    {
        stats.sw_full_fallbacks += 1;
        return local_align_with(query, window, scoring, ws);
    }
    if let Some(run) = gapless_run(query, window, scoring, band) {
        stats.sw_gapless_hits += 1;
        return Some(run);
    }
    let (d_min, d_max) = (band.d_min, band.d_max);
    let SwWorkspace {
        h_prev,
        h_cur,
        e_prev,
        e_cur,
        tb,
    } = ws;
    // Slot b of row i is cell (i, i + d_min + b); the up neighbour of
    // slot b is slot b + 1 of the previous row, the diagonal one slot b.
    // Slot band_w is a −∞ sentinel so the last cell's up read needs no
    // branch. Row 0 is the matrix's top boundary, H = 0 in every slot
    // (off-band ones too: row 1 has no clamped up neighbour).
    reset(h_prev, band_w + 1, 0);
    reset(h_cur, band_w + 1, NEG);
    reset(e_prev, band_w + 1, NEG);
    reset(e_cur, band_w + 1, NEG);
    reset(tb, (m + 1) * band_w, TB_STOP);

    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    // Best case any path crossing a band edge could still reach: the
    // edge cell's score plus a perfect-match continuation outside.
    let mut edge_potential = NEG;

    for i in 1..=m {
        // A row writes its in-matrix cells, the sentinel, and column 0
        // (H = 0, the diagonal neighbour of the next row's j = 1) when
        // the band covers it; the next row reads nothing else, so slots
        // left over from two rows back are never seen.
        h_cur[band_w] = NEG;
        let col0 = -(i as isize) - d_min;
        if (0..band_w as isize).contains(&col0) {
            h_cur[col0 as usize] = 0;
        }
        let jlo = (i as isize + d_min).max(1);
        let jhi = (i as isize + d_max).min(w as isize);
        if jlo <= jhi {
            let (jlo, jhi) = (jlo as usize, jhi as usize);
            let b_lo = (jlo as isize - i as isize - d_min) as usize;
            let b_hi = b_lo + (jhi - jlo);
            // Left of the row's first cell: the matrix's left boundary
            // (H = 0) at j = 1, off-band (−∞) otherwise.
            let left_h = if jlo == 1 { 0 } else { NEG };
            let (row_best, k) = fill_row(
                scoring,
                query[i - 1],
                &window[jlo - 1..jhi],
                &h_prev[b_lo..],
                &h_prev[b_lo + 1..],
                &e_prev[b_lo + 1..],
                &mut h_cur[b_lo..],
                &mut e_cur[b_lo..],
                &mut tb[i * band_w + b_lo..],
                left_h,
            );
            if row_best > best {
                best = row_best;
                best_i = i;
                best_j = jlo + k;
            }
            // Real score riding an edge diagonal (slot 0 ⟺ d == d_min,
            // slot band_w − 1 ⟺ d == d_max) may be a path crossing the
            // band; what it could still earn outside is bounded by a
            // perfect-match continuation over the remaining rows.
            // Gap-shadows of an interior optimum also reach the edge
            // (at optimum − gap cost), but their potential stays
            // below the optimum, so they don't fire this.
            for edge in [0, band_w - 1] {
                if (b_lo..=b_hi).contains(&edge) && h_cur[edge] >= band.edge_cutoff {
                    let pot = h_cur[edge] + (m - i) as i32 * scoring.match_score;
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
        stats.sw_full_fallbacks += 1;
        return local_align_with(query, window, scoring, ws);
    }

    let mut edge_touched = false;
    let (ops_rev, edit, stop_i, stop_j) = trace_path(
        query,
        window,
        tb,
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
        stats.sw_full_fallbacks += 1;
        return local_align_with(query, window, scoring, ws);
    }
    stats.sw_banded_hits += 1;
    Some(assemble(m, ops_rev, edit, stop_i, stop_j, best, best_i))
}

/// The parent commit's kernels, verbatim (plus work counters): what the
/// proptests below and `engine`'s count gate hold the code above to.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::cell::Cell;

    /// What one thread's extensions cost, whichever kernels ran them.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Work {
        /// DP cells filled (band and full).
        pub cells: u64,
        /// Calls of the reference `local_align_banded`, and how many of
        /// them [`exact_diagonal`] would have answered.
        pub extensions: u64,
        pub exact: u64,
    }

    thread_local! {
        static WORK: Cell<Work> = const { Cell::new(Work { cells: 0, extensions: 0, exact: 0 }) };
        static IN_USE: Cell<bool> = const { Cell::new(false) };
    }

    fn record(f: impl FnOnce(&mut Work)) {
        WORK.with(|w| {
            let mut work = w.get();
            f(&mut work);
            w.set(work);
        });
    }

    pub(crate) fn add_cells(n: usize) {
        record(|w| w.cells += n as u64);
    }

    pub(crate) fn in_use() -> bool {
        IN_USE.with(|u| u.get())
    }

    /// Run `f` — with this thread's [`super::local_align_banded`] calls
    /// routed to the reference if asked — and report the work under it.
    pub(crate) fn measure<R>(use_reference: bool, f: impl FnOnce() -> R) -> (R, Work) {
        IN_USE.with(|u| u.set(use_reference));
        WORK.with(|w| w.set(Work::default()));
        let r = f();
        IN_USE.with(|u| u.set(false));
        (r, WORK.with(|w| w.get()))
    }

    pub(crate) fn local_align(
        query: &[u8],
        window: &[u8],
        scoring: &Scoring,
    ) -> Option<LocalAlignment> {
        local_align_with(query, window, scoring, &mut SwWorkspace::default())
    }

    pub(crate) fn local_align_banded(
        query: &[u8],
        window: &[u8],
        scoring: &Scoring,
        band: Band,
    ) -> Option<LocalAlignment> {
        let exact = exact_diagonal(query, window, scoring, band).is_some();
        record(|w| {
            w.extensions += 1;
            w.exact += exact as u64;
        });
        local_align_banded_with(query, window, scoring, band, &mut SwWorkspace::default())
    }

    /// The parent commit's [`super::fill_row`], verbatim but for the cell
    /// counter: one pass, each cell's F from its left neighbour in
    /// registers. Ties resolve open over extend; diag, then E, then F,
    /// each needing a strict win. Returns the row's maximum H and the
    /// *first* cell that reached it.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn fill_row(
        scoring: &Scoring,
        qi: u8,
        win: &[u8],
        diag_h: &[i32],
        up_h: &[i32],
        up_e: &[i32],
        h_out: &mut [i32],
        e_out: &mut [i32],
        tb: &mut [u8],
        mut left_h: i32,
    ) -> (i32, usize) {
        let n = win.len();
        let (diag_h, up_h, up_e) = (&diag_h[..n], &up_h[..n], &up_e[..n]);
        let (h_out, e_out, tb) = (&mut h_out[..n], &mut e_out[..n], &mut tb[..n]);
        let gap_first = scoring.gap_open + scoring.gap_extend;
        let mut left_f = NEG;
        let (mut row_best, mut row_best_k) = (0i32, 0usize);
        for k in 0..n {
            // E: gap in reference (insertion to the read).
            let e_open = up_h[k] + gap_first;
            let e_ext = up_e[k] + scoring.gap_extend;
            let e = e_open.max(e_ext);
            // F: gap in query (deletion from the read).
            let f_open = left_h + gap_first;
            let f_ext = left_f + scoring.gap_extend;
            let f = f_open.max(f_ext);
            let sub = if qi == win[k] {
                scoring.match_score
            } else {
                scoring.mismatch
            };
            let diag = diag_h[k] + sub;
            let mut h = diag.max(0);
            let mut state = if diag > 0 { super::TB_DIAG } else { super::TB_STOP };
            state = if e > h { super::TB_FROM_E } else { state };
            h = h.max(e);
            state = if f > h { super::TB_FROM_F } else { state };
            h = h.max(f);
            h_out[k] = h;
            e_out[k] = e;
            tb[k] = state
                | if e_ext > e_open { super::TB_E_EXT } else { 0 }
                | if f_ext > f_open { super::TB_F_EXT } else { 0 };
            row_best_k = if h > row_best { k } else { row_best_k };
            row_best = row_best.max(h);
            left_h = h;
            left_f = f;
        }
        (row_best, row_best_k)
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

    #[derive(Default)]
    struct SwWorkspace {
        h_prev: Vec<i32>,
        h_cur: Vec<i32>,
        e_prev: Vec<i32>,
        e_cur: Vec<i32>,
        f_cur: Vec<i32>,
        tb_h: Vec<u8>,
        tb_e: Vec<u8>,
        tb_f: Vec<u8>,
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

    /// The full DP, on a caller-supplied workspace.
    fn local_align_with(
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

        add_cells(m * w);
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
    /// committed output digests are the backstop for that case.
    fn local_align_banded_with(
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
                add_cells((jhi - jlo + 1) as usize);
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
            return local_align_with(query, window, scoring, ws);
        }
        Some(assemble(m, ops_rev, edit, stop_i, stop_j, best, best_i))
    }
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

    /// `local_align_banded` on `ws`, with the cells `measure` saw filled
    /// and the tally the call returned.
    fn banded_counted(
        query: &[u8],
        window: &[u8],
        band: Band,
        ws: &mut SwWorkspace,
    ) -> (Option<LocalAlignment>, reference::Work, KernelStats) {
        let mut stats = KernelStats::default();
        let (aln, work) = reference::measure(false, || {
            local_align_banded_counted(query, window, &s(), band, ws, &mut stats)
        });
        (aln, work, stats)
    }

    #[test]
    fn each_extension_is_counted_once_by_the_path_that_answered() {
        let margin = 16;
        let band = Band::around_offset(margin as isize, margin);
        let mut ws = SwWorkspace::new();
        let (perfect, window) = seeded_pair(7, margin, |_| {});
        let (one_sub, _) = seeded_pair(7, margin, |r| r[50] = if r[50] == b'A' { b'C' } else { b'A' });
        let (a, work, stats) = banded_counted(&perfect, &window, band, &mut ws);
        let a = a.unwrap();
        assert_eq!((a.score, a.ref_start, a.cigar.to_string().as_str()), (100, margin, "100M"));
        assert_eq!(work.cells, 0, "a copied read fills no cell");
        assert_eq!(stats, KernelStats { sw_exact_hits: 1, ..KernelStats::default() });
        let (b, work, stats) = banded_counted(&one_sub, &window, band, &mut ws);
        let b = b.unwrap();
        assert_eq!((b.score, b.edit_distance), (99 - 4, 1));
        assert_eq!(work.cells, 0, "a one-substitution read fills no cell");
        assert_eq!(stats, KernelStats { sw_gapless_hits: 1, ..KernelStats::default() });
        // Two substitutions: 90 ≤ 100 − 7, a gapped path could compete,
        // so the band fills.
        let (two_subs, _) = seeded_pair(7, margin, |r| flip(r, &[30, 70]));
        let (c, work, stats) = banded_counted(&two_subs, &window, band, &mut ws);
        let c = c.unwrap();
        assert_eq!((c.score, c.edit_distance), (98 - 8, 2));
        assert!(work.cells > 0 && work.cells <= 100 * 33);
        assert_eq!(stats, KernelStats { sw_banded_hits: 1, ..KernelStats::default() });
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
        let full = local_align(&read, &window, &s());
        let (banded, _, stats) = banded_counted(&read, &window, band, &mut ws);
        assert_eq!(banded, full);
        assert_eq!(
            stats,
            KernelStats { sw_full_fallbacks: 1, ..KernelStats::default() },
            "expected one edge fallback"
        );
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

    // ---- same as the parent's kernels, on every shape of input ----

    use proptest::prelude::*;

    fn arb_dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
            min..max,
        )
    }

    fn substitute(seq: &mut [u8], positions: &[usize]) {
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

    /// Both engines, on the thread's (dirty) workspace, against the
    /// parent's code under `scoring`.
    fn same_as_parent_under(
        query: &[u8],
        window: &[u8],
        band: Band,
        scoring: &Scoring,
    ) -> Result<(), TestCaseError> {
        let banded = with_workspace(|ws| local_align_banded(query, window, scoring, band, ws));
        prop_assert_eq!(
            &banded,
            &reference::local_align_banded(query, window, scoring, band),
            "banded, {:?}",
            band
        );
        prop_assert_eq!(
            local_align(query, window, scoring),
            reference::local_align(query, window, scoring),
            "full DP"
        );
        Ok(())
    }

    /// A row fill: `fill_row`'s signature.
    type FillRow = fn(
        &Scoring,
        u8,
        &[u8],
        &[i32],
        &[i32],
        &[i32],
        &mut [i32],
        &mut [i32],
        &mut [u8],
        i32,
    ) -> (i32, usize);

    fn arb_cell() -> impl Strategy<Value = i32> {
        prop_oneof![Just(NEG), Just(0), -40i32..120]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn two_pass_rows_fill_as_the_parents_row(
            cells in proptest::collection::vec(
                (prop_oneof![Just(b'A'), Just(b'C'), Just(b'N')], arb_cell(), arb_cell(), arb_cell()),
                0..48,
            ),
            qi in prop_oneof![Just(b'A'), Just(b'C'), Just(b'N')],
            left_h in arb_cell(),
            match_score in 0i32..3,
            mismatch in -4i32..2,
            gap_open in -6i32..=0,
            gap_extend in -2i32..=0,
        ) {
            // Raw row inputs, ties everywhere: equal diag, E and F, open
            // equal to extend, −∞ neighbours. Every output — H, E, the
            // traceback byte, the row's best and its first cell — is the
            // one-pass fill's.
            let scoring = Scoring { match_score, mismatch, gap_open, gap_extend };
            let win: Vec<u8> = cells.iter().map(|c| c.0).collect();
            let diag: Vec<i32> = cells.iter().map(|c| c.1).collect();
            let up: Vec<i32> = cells.iter().map(|c| c.2).collect();
            let up_e: Vec<i32> = cells.iter().map(|c| c.3).collect();
            let fill = |f: FillRow| {
                let (mut h, mut e, mut tb) = (vec![7; win.len()], vec![7; win.len()], vec![0xF0; win.len()]);
                let best = f(&scoring, qi, &win, &diag, &up, &up_e, &mut h, &mut e, &mut tb, left_h);
                (best, h, e, tb)
            };
            prop_assert_eq!(fill(fill_row), fill(reference::fill_row));
        }
    }

    fn same_as_parent(query: &[u8], window: &[u8], band: Band) -> Result<(), TestCaseError> {
        same_as_parent_under(query, window, band, &s())
    }

    /// Smallest `d` with `window[d..d + m] == query`.
    fn smallest_perfect_diagonal(query: &[u8], window: &[u8]) -> Option<usize> {
        (0..(window.len() + 1).saturating_sub(query.len())).find(|&d| window[d..d + query.len()] == *query)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn planted_reads_align_as_in_the_parent(
            ctx in arb_dna(60, 220),
            start in 0usize..200,
            qlen in 12usize..90,
            subs in proptest::collection::vec(0usize..256, 0..5),
            left in 0usize..=16,
            right in -8isize..=16,
            slack in 0usize..20,
        ) {
            // The production shape — window = the read's locus ± margin,
            // band on the read's diagonal — with the window clamped as at
            // a chromosome end: `left`/`right` < margin, down to
            // `w == m` and (negative `right`) `w < m`.
            let qlen = qlen.min(ctx.len() - 8);
            let start = start % (ctx.len() - qlen + 1);
            let mut query = ctx[start..start + qlen].to_vec();
            substitute(&mut query, &subs);
            let lo = start.saturating_sub(left);
            let hi = (start + qlen).saturating_add_signed(right).min(ctx.len());
            same_as_parent(&query, &ctx[lo..hi], Band::around_offset((start - lo) as isize, slack))?;
        }

        #[test]
        fn near_exact_reads_align_as_in_the_parent(
            ctx in arb_dna(80, 240),
            start in 0usize..240,
            qlen in 24usize..110,
            subs in proptest::collection::vec((0u8..3, 0usize..4096), 0..=3),
            repeat in prop_oneof![
                Just(None),
                Just(None),
                (arb_dna(1, 5), 28usize..48, 1usize..=3, 0usize..110).prop_map(Some),
            ],
            left in 0usize..=20,
            right in -6isize..=20,
            jitter in -4isize..=4,
            slack in 0usize..13,
            scoring in prop_oneof![
                Just(Scoring::default()),
                Just(Scoring { match_score: 2, mismatch: -3, gap_open: -5, gap_extend: -2 }),
                Just(Scoring { match_score: 1, mismatch: -2, gap_open: -2, gap_extend: -1 }),
                Just(Scoring { match_score: 3, mismatch: -1, gap_open: -1, gap_extend: 0 }),
            ],
        ) {
            // `gapless_run`'s class: reads 0–3 substitutions from their
            // locus, some within |mismatch|/match bases of an end (where
            // a clip beats keeping the substitution), in the production
            // window shape clamped as at a chromosome end, with the band
            // centre jittered so the read's diagonal sometimes lies on
            // or beside an edge. `repeat` splices a tandem repeat into
            // the read and makes the slack a multiple of its period:
            // its stretch then also matches along both edge diagonals,
            // a run ≥ `edge_cutoff` that may or may not fire the edge
            // trigger.
            let qlen = qlen.min(ctx.len() - 8);
            let start = start % (ctx.len() - qlen + 1);
            let (mut ctx, mut slack) = (ctx, slack);
            if let Some((unit, len, k, lead)) = &repeat {
                let at = start + lead % qlen;
                ctx.splice(at..at, unit.iter().copied().cycle().take(*len));
                slack = unit.len() * k;
            }
            let mut query = ctx[start..start + qlen].to_vec();
            let reach = (scoring.mismatch.abs() / scoring.match_score) as usize + 1;
            for &(end, p) in &subs {
                let p = match end {
                    0 => p % qlen,
                    1 => p % reach,
                    _ => qlen - 1 - p % reach,
                };
                substitute(&mut query, &[p]);
            }
            let lo = start.saturating_sub(left);
            let hi = (start + qlen).saturating_add_signed(right).min(ctx.len());
            let band = Band::around_offset((start - lo) as isize + jitter, slack);
            same_as_parent_under(&query, &ctx[lo..hi], band, &scoring)?;
        }

        #[test]
        fn tandem_repeats_align_as_in_the_parent(
            unit in arb_dna(1, 17),
            flank in arb_dna(0, 12),
            qlen in 8usize..70,
            start in 0usize..64,
            window_subs in proptest::collection::vec(0usize..256, 0..3),
            shift in -24isize..48,
            slack in 0usize..12,
        ) {
            // A read cut from a period-p repeat matches the window on
            // every p-th diagonal (until a substitution in the window
            // knocks some out). The band sits `shift` off the smallest
            // perfect one: it holds that one, only a later one, or none.
            let mut window = flank.clone();
            while window.len() < 150 {
                window.extend_from_slice(&unit);
            }
            window.extend_from_slice(&flank);
            let start = flank.len() + start % (window.len() - 2 * flank.len() - qlen);
            let query = window[start..start + qlen].to_vec();
            substitute(&mut window, &window_subs);
            let first = smallest_perfect_diagonal(&query, &window).unwrap_or(start);
            same_as_parent(&query, &window, Band::around_offset(first as isize + shift, slack))?;
        }

        #[test]
        fn band_crossing_indels_align_as_in_the_parent(
            window in arb_dna(130, 250),
            qlen in 62usize..80,
            offset in 0usize..120,
            indel in 1usize..24,
            insert in proptest::collection::vec(0usize..4, 0..24),
            slack in 2usize..9,
        ) {
            // A deletion, or insertion, wider than the slack forces the
            // true path across the band edge with ≥ 31 − 6 − 8 = 17 >
            // `edge_cutoff` score on it (the `cut ≥ 21 + slack`
            // arithmetic of `proptest_aligner.rs`): the edge trigger
            // must fire exactly when the parent's did.
            let offset = offset % (window.len() - qlen - indel);
            let cut = qlen / 2;
            let mut query = window[offset..offset + cut].to_vec();
            query.extend(insert.iter().map(|&c| b"ACGT"[c]));
            query.extend_from_slice(&window[offset + cut + indel..offset + indel + qlen]);
            same_as_parent(&query, &window, Band::around_offset(offset as isize, slack))?;
        }

        #[test]
        fn unrelated_sequences_align_as_in_the_parent(
            query in arb_dna(1, 80),
            window in arb_dna(1, 200),
            offset in -30isize..120,
            slack in 0usize..16,
        ) {
            // No planted relationship, so the band may well differ from
            // the full DP (the documented residual caveat) — but never
            // from what the parent's band returned.
            same_as_parent(&query, &window, Band::around_offset(offset, slack))?;
        }

        #[test]
        fn non_acgt_bytes_align_as_in_the_parent(
            ctx in proptest::collection::vec(
                prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N'), Just(b'N'), Just(b'n'), Just(0u8), Just(0xFFu8)],
                60..200,
            ),
            start in 0usize..150,
            qlen in 10usize..60,
            subs in proptest::collection::vec(0usize..256, 0..3),
            margin in 0usize..=16,
            slack in 0usize..16,
        ) {
            // Comparison is on raw bytes: `N == N` is a match, so a read
            // with Ns can still be a perfect diagonal.
            let qlen = qlen.min(ctx.len() - 8);
            let start = start % (ctx.len() - qlen + 1);
            let mut query = ctx[start..start + qlen].to_vec();
            substitute(&mut query, &subs);
            let lo = start.saturating_sub(margin);
            let hi = (start + qlen + margin).min(ctx.len());
            same_as_parent(&query, &ctx[lo..hi], Band::around_offset((start - lo) as isize, slack))?;
        }

        #[test]
        fn any_scoring_aligns_as_in_the_parent(
            unit in arb_dna(1, 9),
            qlen in 8usize..40,
            start in 0usize..32,
            subs in proptest::collection::vec(0usize..256, 0..2),
            shift in -6isize..12,
            slack in 0usize..8,
            match_score in 0i32..3,
            mismatch in -4i32..2,
            gap_open in -6i32..=0,
            gap_extend in -2i32..=0,
        ) {
            // The shortcut's preconditions: under a scoring that breaks
            // one (free matches, rewarded mismatches, free gaps) the
            // first full-score cell need not be a perfect diagonal, and
            // the DP must be left to find it. (Gaps that *pay* are out of
            // the parent's domain — they walk its traceback up a column
            // and off the band's top-right corner — so the `gap_extend`
            // guard is checked on `exact_diagonal` directly, below.)
            let window = unit.iter().copied().cycle().take(90).collect::<Vec<u8>>();
            let start = start % (window.len() - qlen);
            let mut query = window[start..start + qlen].to_vec();
            substitute(&mut query, &subs);
            let scoring = Scoring { match_score, mismatch, gap_open, gap_extend };
            let first = smallest_perfect_diagonal(&query, &window).unwrap_or(start);
            same_as_parent_under(&query, &window, Band::around_offset(first as isize + shift, slack), &scoring)?;
        }
    }

    #[test]
    fn shortcut_declines_unless_every_precondition_holds() {
        let window = b"TTTACGTACGTACTTT";
        let query = &window[3..13];
        let band = Band::around_offset(3, 2);
        let sound = s();
        assert_eq!(exact_diagonal(query, window, &sound, band).unwrap().ref_start, 3);
        for broken in [
            Scoring { match_score: 0, ..sound },
            Scoring { mismatch: 0, ..sound },
            Scoring { gap_extend: 1, ..sound },
            Scoring { gap_open: 1, ..sound },
        ] {
            assert_eq!(exact_diagonal(query, window, &broken, band), None, "{broken:?}");
        }
        // Window shorter than the read; band beside the diagonal.
        assert_eq!(exact_diagonal(window, query, &sound, band), None);
        assert_eq!(exact_diagonal(query, window, &sound, Band::around_offset(0, 2)), None);
        assert_eq!(exact_diagonal(query, window, &sound, Band::around_offset(6, 2)), None);
    }

    #[test]
    fn perfect_diagonal_below_the_band_is_left_to_the_dp() {
        // Period-4 repeat: perfect diagonals at 2, 6, 10, …; the band
        // [9, 11] holds only the third. The parent's band answers 10,
        // the full DP would say 2 — `exact_diagonal` must not pick
        // either for itself, and with the band on [1, 3] it answers 2
        // unaided. On [9, 11] the band's own answer is a gapless run
        // (40 > 40 − 7, interior), so `gapless_run` gives it, unfilled.
        let window = b"ACGT".repeat(20);
        let query = window[2..42].to_vec();
        let late = Band::around_offset(10, 1);
        assert_eq!(exact_diagonal(&query, &window, &s(), late), None);
        let (got, work) = reference::measure(false, || {
            with_workspace(|ws| local_align_banded(&query, &window, &s(), late, ws))
        });
        assert_eq!(got, reference::local_align_banded(&query, &window, &s(), late));
        assert_eq!(got.unwrap().ref_start, 10);
        assert_eq!(work.cells, 0);
        let early = Band::around_offset(2, 1);
        let (got, work) = reference::measure(false, || {
            with_workspace(|ws| local_align_banded(&query, &window, &s(), early, ws))
        });
        assert_eq!(got, reference::local_align_banded(&query, &window, &s(), early));
        assert_eq!((got.unwrap().ref_start, work.cells), (2, 0));
    }

    /// Our banded answer, held to the parent's, and the DP cells it filled.
    fn cells_filled(query: &[u8], window: &[u8], band: Band, scoring: &Scoring) -> u64 {
        let (got, work) = reference::measure(false, || {
            with_workspace(|ws| local_align_banded(query, window, scoring, band, ws))
        });
        assert_eq!(got, reference::local_align_banded(query, window, scoring, band), "{band:?}");
        work.cells
    }

    fn flip(r: &mut [u8], at: &[usize]) {
        for &p in at {
            r[p] = if r[p] == b'A' { b'C' } else { b'A' };
        }
    }

    #[test]
    fn each_declined_premise_leaves_the_call_to_the_fill() {
        let margin = 16;
        let diag = margin as isize;
        let (read, window) = seeded_pair(3, margin, |r| flip(r, &[50]));
        let centred = Band::around_offset(diag, 4);
        // Every premise holds: 95 > 100 − 7 on an interior diagonal.
        assert!(gapless_run(&read, &window, &s(), centred).is_some());
        assert_eq!(cells_filled(&read, &window, centred, &s()), 0);
        let declined = |query: &[u8], window: &[u8], band: Band, scoring: &Scoring| {
            assert_eq!(gapless_run(query, window, scoring, band), None, "{band:?}");
            assert!(cells_filled(query, window, band, scoring) > 0, "{band:?}");
        };
        // S ≤ B: two substitutions score 90 ≤ 93.
        let (two_subs, _) = seeded_pair(3, margin, |r| flip(r, &[30, 70]));
        declined(&two_subs, &window, centred, &s());
        // The run on d_min, then on d_max.
        let on_min = Band { d_min: diag, d_max: diag + 4, edge_cutoff: DEFAULT_EDGE_CUTOFF };
        declined(&read, &window, on_min, &s());
        declined(&read, &window, Band { d_min: diag - 4, d_max: diag, ..on_min }, &s());
        // Edge trigger: the read's first 40 bases are an `AC` repeat, so
        // both edge diagonals (±2) carry a 38-base run whose potential
        // 38 + 60 reaches S = 95.
        let mut repeat_window = window.clone();
        for x in 0..40 {
            repeat_window[margin + x] = b"AC"[x % 2];
        }
        let mut repeat_read = repeat_window[margin..margin + 100].to_vec();
        flip(&mut repeat_read, &[70]);
        declined(&repeat_read, &repeat_window, Band::around_offset(diag, 2), &s());
        // Unsound scoring: a free mismatch.
        declined(&read, &window, centred, &Scoring { mismatch: 0, ..s() });
    }

    #[test]
    fn gapless_ties_break_as_the_fill_does() {
        // Period-8 window: diagonals 3, 11, 19 see the same read.
        let base = b"ACGTTGCA".iter().copied().cycle().take(130).collect::<Vec<u8>>();
        let answer = |query: &[u8], window: &[u8], band: Band| {
            assert_eq!(cells_filled(query, window, band, &s()), 0, "{band:?}");
            let a = gapless_run(query, window, &s(), band).unwrap();
            (a.score, a.ref_start, a.cigar.to_string(), a.edit_distance)
        };
        // One row: all three reach 95 in row 100. The centre (11) is
        // scanned first; the smaller d — the earlier column — wins.
        let mut query = base[3..103].to_vec();
        flip(&mut query, &[50]);
        let one_row = Band::around_offset(11, 9);
        assert_eq!(answer(&query, &base, one_row), (95, 3, "100M".into(), 1));
        // Two rows: with the window knocked out under diagonal 3's first
        // three rows and diagonal 11's last three, both score 97 — 3 in
        // row 100, 11 in row 97. The earlier row wins, larger d or not.
        let query = base[3..103].to_vec();
        let mut window = base.clone();
        flip(&mut window, &[3, 4, 5, 108, 109, 110]);
        let two_rows = Band::around_offset(7, 5);
        assert_eq!(answer(&query, &window, two_rows), (97, 11, "97M3S".into(), 0));
    }
}
