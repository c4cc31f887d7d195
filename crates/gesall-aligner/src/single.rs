//! Per-read alignment: seeding, candidate generation, mapping quality.

use crate::index::{ReferenceIndex, UNIQUE_K};
use crate::sw::{self, Band, LocalAlignment, Scoring};
use gesall_formats::dna::reverse_complement_in_place;
use gesall_formats::sam::cigar::Cigar;
use gesall_telemetry::KernelStats;
use std::cell::RefCell;

/// Stride between seed start offsets (the last window is a seed too).
pub(crate) const SEED_STRIDE: usize = 12;
/// Reference bases each side of a seed's implied window; the band's slack.
const WINDOW_MARGIN: usize = 16;
/// Candidates a read keeps over both strands, best first.
pub(crate) const MAX_CANDIDATES: usize = 16;

/// Seeding/alignment parameters for a single read: bwa mem's `-k`, `-c`,
/// `-T` and scoring.
#[derive(Debug, Clone)]
pub struct SingleConfig {
    /// Exact-match seed length.
    pub seed_len: usize,
    /// Seeds hitting more than this many locations are discarded
    /// (repeat-region bail-out — those reads end up mapq 0 or unmapped).
    pub max_seed_hits: usize,
    /// Minimum Smith–Waterman score to keep a candidate.
    pub min_score: i32,
    pub scoring: Scoring,
}

impl Default for SingleConfig {
    fn default() -> SingleConfig {
        SingleConfig {
            seed_len: 19,
            max_seed_hits: 64,
            min_score: 30,
            scoring: Scoring::default(),
        }
    }
}

/// One candidate alignment of a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Chromosome id (index into the reference dictionary).
    pub chrom: usize,
    /// 1-based leftmost mapping position.
    pub pos: i64,
    /// Mapped to the reverse strand?
    pub reverse: bool,
    /// Smith–Waterman score.
    pub score: i32,
    /// CIGAR in *aligned-strand* orientation (soft clips included).
    pub cigar: Cigar,
    /// Edit distance of the aligned segment.
    pub edit_distance: u32,
}

impl Candidate {
    /// 1-based inclusive end position on the reference.
    pub fn end_pos(&self) -> i64 {
        self.pos + self.cigar.reference_len() as i64 - 1
    }
}

/// Find candidate alignments of `seq` on both strands, best first.
pub fn find_candidates(
    index: &ReferenceIndex,
    cfg: &SingleConfig,
    seq: &[u8],
) -> Vec<Candidate> {
    find_candidates_counted(index, cfg, seq, &mut KernelStats::default())
}

/// [`find_candidates`], tallying the seeding and extension kernels' work
/// into `stats`.
///
/// *Survivors first* (DESIGN.md §13): extension records each scoring
/// anchor as a [`Found`] naming its distinct window's alignment, and the
/// dedup, the sort and the cut to [`MAX_CANDIDATES`] run on those, as
/// they ran on candidates; only the survivors clone a CIGAR.
pub(crate) fn find_candidates_counted(
    index: &ReferenceIndex,
    cfg: &SingleConfig,
    seq: &[u8],
    stats: &mut KernelStats,
) -> Vec<Candidate> {
    #[cfg(test)]
    if reference::in_use() {
        return reference::find_candidates(index, cfg, seq, stats);
    }
    SCRATCH.with(|scratch| {
        let Scratch { rc, anchors, located, extension } = &mut *scratch.borrow_mut();
        rc.clear();
        rc.extend_from_slice(seq);
        reverse_complement_in_place(rc);
        let strands = [seq, rc.as_slice()];
        gather_anchors(index, cfg, strands, anchors, located, stats);
        #[cfg(test)]
        if reference::parent_extension() {
            return reference::extend_and_keep(index, cfg, strands, anchors, stats);
        }
        extension.windows.clear();
        extension.found.clear();
        for (t, anchors) in anchors.iter().enumerate() {
            extension.extend_anchors(index, cfg, strands[t], t == 1, anchors, stats);
        }
        extension.survivors(stats)
    })
}

/// A read's search scratch, one per thread: kept between reads so a read
/// allocates only the CIGARs of its kernel answers and its candidates,
/// and bounded by the largest read's.
#[derive(Default)]
struct Scratch {
    /// The read's reverse complement.
    rc: Vec<u8>,
    /// Each strand pass's anchors, and the distinct anchors it located.
    anchors: [Vec<i64>; 2],
    located: [Vec<i64>; 2],
    extension: Extension,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A distinct window one pass extended: its place in the text, its band
/// offset, its first bytes (the cheap half of the reuse key) and the
/// kernel's answer.
struct Extended {
    gstart: usize,
    len: usize,
    off: isize,
    head: u64,
    aln: Option<LocalAlignment>,
}

/// A scoring anchor's candidate, less its CIGAR and edit distance, which
/// its window's alignment holds.
struct Found {
    chrom: usize,
    pos: i64,
    reverse: bool,
    score: i32,
    window: usize,
}

/// The anchors of both strand passes — `strands` is the read and its
/// reverse complement; an anchor is a text position where a seed hit
/// implies that strand starts — each sorted, with anchors within 8 of
/// each other collapsed (same implied alignment), into `anchors`. A seed
/// too repetitive to locate contributes none.
///
/// The anchors are the parent seed loop's, found with less work.
/// *Known-answer seeding* (DESIGN.md §13): when the seeds are
/// [`UNIQUE_K`] long and `max_seed_hits ≥ 1`, a seed first asks the
/// anchors already located, on both strands, with the index's uniqueness
/// bit. If anchor `a` of its own pass puts the seed's bytes at a unique
/// position, the seed occurs there alone: `a` is its whole answer. If
/// anchor `b` of the other pass puts the seed's reverse complement at a
/// unique position, the seed itself occurs nowhere: it has no answer.
/// Either way no backward search runs. So that both passes have anchors
/// to ask early, each pass's first seed goes first.
///
/// A seed still searched, with `n` hits, is checked against the distinct
/// anchors its pass has already located (`located`, *Repeat-aware
/// seeding*): each that puts the seed's bytes at its offset in the text
/// is an occurrence, and distinct anchors are distinct occurrences, so
/// when `n` of them verify they are the FM-index's whole answer and its
/// `n` LF walks are skipped. Otherwise the rows are located as before.
fn gather_anchors(
    index: &ReferenceIndex,
    cfg: &SingleConfig,
    strands: [&[u8]; 2],
    anchors: &mut [Vec<i64>; 2],
    located: &mut [Vec<i64>; 2],
    stats: &mut KernelStats,
) {
    anchors.iter_mut().chain(located.iter_mut()).for_each(Vec::clear);
    let (m, k) = (strands[0].len(), cfg.seed_len);
    if m < k {
        return;
    }
    // Seed offsets: 0, stride, 2*stride, ..., and always the final window;
    // every pass's first seed before any pass's others.
    let last = m - k;
    let seed_offsets = || (0..last).step_by(SEED_STRIDE).chain([last]);
    let seeds = [(0, 0), (1, 0)]
        .into_iter()
        .chain(seed_offsets().skip(1).map(|off| (0, off)))
        .chain(seed_offsets().skip(1).map(|off| (1, off)));
    let known_answers = k == UNIQUE_K && cfg.max_seed_hits >= 1;
    let (fm, text) = (index.fm(), index.text());
    for (t, off) in seeds {
        let seed = &strands[t][off..off + k];
        if seed.iter().any(|&b| !matches!(b, b'A' | b'C' | b'G' | b'T')) {
            continue;
        }
        if known_answers {
            let own = located[t].iter().find(|&&a| index.is_unique_kmer_at(a + off as i64, seed));
            if let Some(&a) = own {
                anchors[t].push(a);
                stats.seed_searches_answered += 1;
                continue;
            }
            // The seed's reverse complement, in the other pass's strand.
            let j = m - off - k;
            let mirror = &strands[1 - t][j..j + k];
            if located[1 - t].iter().any(|&b| index.is_unique_kmer_at(b + j as i64, mirror)) {
                stats.seed_searches_answered += 1;
                continue;
            }
        }
        let Some((l, r)) = fm.search_counted(seed, stats) else {
            continue;
        };
        let n = (r - l) as usize;
        if n > cfg.max_seed_hits {
            continue;
        }
        let (anchors, located) = (&mut anchors[t], &mut located[t]);
        let off = off as i64;
        let mark = anchors.len();
        if n <= located.len() {
            anchors.extend(located.iter().copied().filter(|&a| {
                usize::try_from(a + off).is_ok_and(|p| text.get(p..p + k) == Some(seed))
            }));
            if anchors.len() - mark == n {
                continue;
            }
            anchors.truncate(mark);
        }
        fm.locate_rows(l..r, stats, |hit| anchors.push(hit as i64 - off));
        located.extend_from_slice(&anchors[mark..]);
        located.sort_unstable();
        located.dedup();
    }
    for anchors in anchors {
        anchors.sort_unstable();
        anchors.dedup_by(|a, b| (*a - *b).abs() <= 8);
    }
}

/// What a read's strand passes extended: the distinct windows, and the
/// anchors that scored, which [`Extension::survivors`] cuts to the kept.
#[derive(Default)]
struct Extension {
    windows: Vec<Extended>,
    found: Vec<Found>,
}

impl Extension {
    /// Extend every anchor of one strand pass, recording in `found` each
    /// that scores. Anchors in a repeat often clamp to byte-identical windows
    /// at the same band offset; the kernel is a pure function of those (and
    /// the read and scoring), so such a window is extended once, as one of
    /// `windows`, and its alignment reused, placed at each anchor's own
    /// window start. A window is looked up among this pass's by band
    /// offset, length and first eight bytes, and confirmed by comparing its
    /// bytes.
    fn extend_anchors(
        &mut self,
        index: &ReferenceIndex,
        cfg: &SingleConfig,
        s: &[u8],
        reverse: bool,
        anchors: &[i64],
        stats: &mut KernelStats,
    ) {
        let Extension { windows, found } = self;
        let m = s.len();
        let text = index.text();
        let pass = windows.len();
        for &anchor in anchors {
            let start = anchor - WINDOW_MARGIN as i64;
            let end = anchor + m as i64 + WINDOW_MARGIN as i64;
            let anchor_probe = anchor.clamp(0, index.text_len() as i64 - 1) as usize;
            let Some((window, gstart, chrom)) =
                index.window_within_chromosome(anchor_probe, start, end)
            else {
                continue;
            };
            // Seed extension runs the banded Smith–Waterman kernel. The band
            // is centered on the read's expected diagonal inside the window —
            // the read should start `anchor - gstart` columns in
            // (≈ `WINDOW_MARGIN`, less when the window was clamped at a
            // chromosome edge) — with `WINDOW_MARGIN` diagonals of slack each
            // side; the kernel falls back to the full DP whenever the band
            // can't prove its answer, so the result is the full DP's unless
            // an alignment lies wholly outside the band (DESIGN.md §13) —
            // which is why the band offset is part of the reuse key.
            let off = (anchor - gstart as i64) as isize;
            let head = window_head(window);
            let same = |e: &Extended| {
                (e.off, e.len, e.head) == (off, window.len(), head)
                    && text[e.gstart..e.gstart + e.len] == *window
            };
            let slot = match windows[pass..].iter().position(same) {
                Some(i) => {
                    stats.sw_window_reuses += 1;
                    pass + i
                }
                None => {
                    let band = Band::around_offset(off, WINDOW_MARGIN);
                    let aln = sw::with_workspace(|ws| {
                        sw::local_align_banded_counted(s, window, &cfg.scoring, band, ws, stats)
                    });
                    windows.push(Extended { gstart, len: window.len(), off, head, aln });
                    windows.len() - 1
                }
            };
            let Some(aln) = &windows[slot].aln else {
                continue;
            };
            if aln.score < cfg.min_score {
                continue;
            }
            let global_pos = gstart + aln.ref_start;
            let (c2, local) = match index.global_to_local(global_pos) {
                Some(v) => v,
                None => continue,
            };
            debug_assert_eq!(c2, chrom);
            found.push(Found { chrom, pos: local as i64 + 1, reverse, score: aln.score, window: slot });
        }
    }

    /// The candidates the read keeps, best first: the scoring anchors
    /// deduplicated by (chrom, pos, strand), keeping the best score, and
    /// cut to [`MAX_CANDIDATES`], then built — a CIGAR cloned each.
    fn survivors(&mut self, stats: &mut KernelStats) -> Vec<Candidate> {
        let Extension { windows, found } = self;
        found.sort_by(|a, b| {
            (a.chrom, a.pos, a.reverse)
                .cmp(&(b.chrom, b.pos, b.reverse))
                .then(b.score.cmp(&a.score))
        });
        found.dedup_by(|a, b| a.chrom == b.chrom && a.pos == b.pos && a.reverse == b.reverse);
        found.sort_by(|a, b| b.score.cmp(&a.score).then(a.pos.cmp(&b.pos)));
        found.truncate(MAX_CANDIDATES);
        stats.candidates_built += found.len() as u64;
        found
            .iter()
            .map(|f| {
                let aln = windows[f.window].aln.as_ref().expect("a found anchor's window aligned");
                Candidate {
                    chrom: f.chrom,
                    pos: f.pos,
                    reverse: f.reverse,
                    score: f.score,
                    cigar: aln.cigar.clone(),
                    edit_distance: aln.edit_distance,
                }
            })
            .collect()
    }
}

/// A window's first eight bytes as a word (zero-padded when shorter).
#[inline]
fn window_head(window: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let k = window.len().min(8);
    head[..k].copy_from_slice(&window[..k]);
    u64::from_le_bytes(head)
}

/// Mapping quality from the best and second-best candidate scores, in the
/// spirit of Bwa-mem: ~6 points of mapq per score point of separation,
/// capped at 60; ties ⇒ 0.
pub fn mapping_quality(best: i32, second: Option<i32>, min_score: i32) -> u8 {
    if best <= 0 {
        return 0;
    }
    let second = second.unwrap_or(min_score - 1).max(0);
    if second >= best {
        return 0;
    }
    let q = 6 * (best - second);
    q.clamp(0, 60) as u8
}

/// The parent commit's seed loop, verbatim: every seed `locate`s its
/// hits and every anchor runs the kernel. What the proptests below and
/// `engine`'s count gate hold [`find_candidates`] to.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use gesall_formats::dna::reverse_complement;
    use std::cell::Cell;
    use std::collections::hash_map::{Entry, HashMap};

    thread_local! {
        static IN_USE: Cell<bool> = const { Cell::new(false) };
        static PARENT_EXTENSION: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn in_use() -> bool {
        IN_USE.with(|u| u.get())
    }

    /// Run `f` with this thread's [`super::find_candidates`] calls routed
    /// to the parent's loop.
    pub(crate) fn with_parent_seeding<R>(f: impl FnOnce() -> R) -> R {
        IN_USE.with(|u| u.set(true));
        let r = f();
        IN_USE.with(|u| u.set(false));
        r
    }

    pub(crate) fn parent_extension() -> bool {
        PARENT_EXTENSION.with(|u| u.get())
    }

    /// Run `f` with this thread's [`super::find_candidates`] calls
    /// extending the anchors they gather as the parent commit did: a
    /// candidate, CIGAR and all, for every scoring anchor, then the dedup
    /// and the cut.
    pub(crate) fn with_parent_extension<R>(f: impl FnOnce() -> R) -> R {
        PARENT_EXTENSION.with(|u| u.set(true));
        let r = f();
        PARENT_EXTENSION.with(|u| u.set(false));
        r
    }

    /// The parent commit's extension and cut, verbatim but for the tally
    /// of the candidates it builds.
    pub(crate) fn extend_and_keep(
        index: &ReferenceIndex,
        cfg: &SingleConfig,
        strands: [&[u8]; 2],
        anchors: &[Vec<i64>; 2],
        stats: &mut KernelStats,
    ) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::new();
        for (t, anchors) in anchors.iter().enumerate() {
            extend_anchors(index, cfg, strands[t], t == 1, anchors, &mut out, stats);
        }
        stats.candidates_built += out.len() as u64;
        // Dedup by (chrom, pos, strand), keep best score.
        out.sort_by(|a, b| {
            (a.chrom, a.pos, a.reverse)
                .cmp(&(b.chrom, b.pos, b.reverse))
                .then(b.score.cmp(&a.score))
        });
        out.dedup_by(|a, b| a.chrom == b.chrom && a.pos == b.pos && a.reverse == b.reverse);
        out.sort_by(|a, b| b.score.cmp(&a.score).then(a.pos.cmp(&b.pos)));
        out.truncate(MAX_CANDIDATES);
        out
    }


    /// Extend every anchor of one strand pass and keep the candidates that
    /// score. Anchors in a repeat often clamp to byte-identical windows at
    /// the same band offset; the kernel is a pure function of those (and
    /// the read and scoring), so such a window is extended once and its
    /// alignment reused, placed at each anchor's own window start.
    fn extend_anchors(
        index: &ReferenceIndex,
        cfg: &SingleConfig,
        s: &[u8],
        reverse: bool,
        anchors: &[i64],
        out: &mut Vec<Candidate>,
        stats: &mut KernelStats,
    ) {
        let m = s.len();
        let extend = |window: &[u8], off: isize, stats: &mut KernelStats| {
            let band = Band::around_offset(off, WINDOW_MARGIN);
            sw::with_workspace(|ws| {
                sw::local_align_banded_counted(s, window, &cfg.scoring, band, ws, stats)
            })
        };
        // Windows already extended in this pass, by (bytes, band offset):
        // hashed on the bytes, confirmed by comparing them.
        let mut extended: HashMap<(&[u8], isize), Option<LocalAlignment>> = HashMap::new();
        for &anchor in anchors {
            let start = anchor - WINDOW_MARGIN as i64;
            let end = anchor + m as i64 + WINDOW_MARGIN as i64;
            let anchor_probe = anchor.clamp(0, index.text_len() as i64 - 1) as usize;
            let Some((window, gstart, chrom)) =
                index.window_within_chromosome(anchor_probe, start, end)
            else {
                continue;
            };
            let off = (anchor - gstart as i64) as isize;
            let aln = if anchors.len() == 1 {
                extend(window, off, stats)
            } else {
                match extended.entry((window, off)) {
                    Entry::Occupied(prev) => {
                        stats.sw_window_reuses += 1;
                        prev.get().clone()
                    }
                    Entry::Vacant(slot) => slot.insert(extend(window, off, stats)).clone(),
                }
            };
            let Some(aln) = aln else {
                continue;
            };
            if aln.score < cfg.min_score {
                continue;
            }
            let global_pos = gstart + aln.ref_start;
            let (c2, local) = match index.global_to_local(global_pos) {
                Some(v) => v,
                None => continue,
            };
            debug_assert_eq!(c2, chrom);
            out.push(Candidate {
                chrom,
                pos: local as i64 + 1,
                reverse,
                score: aln.score,
                cigar: aln.cigar,
                edit_distance: aln.edit_distance,
            });
        }
    }

    /// Find candidate alignments of `seq` on both strands, best first.
    pub(crate) fn find_candidates(
        index: &ReferenceIndex,
        cfg: &SingleConfig,
        seq: &[u8],
        stats: &mut KernelStats,
    ) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::new();
        let mut anchors: Vec<i64> = Vec::new();
        let rc = reverse_complement(seq);
        for (reverse, s) in [(false, seq), (true, rc.as_slice())] {
            collect_strand_candidates(index, cfg, s, reverse, &mut anchors, &mut out, stats);
        }
        // Dedup by (chrom, pos, strand), keep best score.
        out.sort_by(|a, b| {
            (a.chrom, a.pos, a.reverse)
                .cmp(&(b.chrom, b.pos, b.reverse))
                .then(b.score.cmp(&a.score))
        });
        out.dedup_by(|a, b| a.chrom == b.chrom && a.pos == b.pos && a.reverse == b.reverse);
        out.sort_by(|a, b| b.score.cmp(&a.score).then(a.pos.cmp(&b.pos)));
        out.truncate(MAX_CANDIDATES);
        out
    }

    fn collect_strand_candidates(
        index: &ReferenceIndex,
        cfg: &SingleConfig,
        s: &[u8],
        reverse: bool,
        anchors: &mut Vec<i64>,
        out: &mut Vec<Candidate>,
        stats: &mut KernelStats,
    ) {
        let m = s.len();
        if m < cfg.seed_len {
            return;
        }
        // Seed offsets: 0, stride, 2*stride, ..., and always the final window.
        let last = m - cfg.seed_len;
        let seed_offsets = (0..last).step_by(SEED_STRIDE).chain([last]);

        // Gather implied window anchor positions (a seed too repetitive to
        // locate contributes none).
        anchors.clear();
        for off in seed_offsets {
            let seed = &s[off..off + cfg.seed_len];
            if seed.iter().any(|&b| !matches!(b, b'A' | b'C' | b'G' | b'T')) {
                continue;
            }
            index.fm().locate_each(seed, cfg.max_seed_hits, stats, |hit| {
                anchors.push(hit as i64 - off as i64)
            });
        }
        anchors.sort_unstable();
        // Collapse anchors within a small tolerance (same implied alignment).
        anchors.dedup_by(|a, b| (*a - *b).abs() <= 8);

        for &anchor in anchors.iter() {
            let start = anchor - WINDOW_MARGIN as i64;
            let end = anchor + m as i64 + WINDOW_MARGIN as i64;
            let anchor_probe = anchor.clamp(0, index.text_len() as i64 - 1) as usize;
            let Some((window, gstart, chrom)) =
                index.window_within_chromosome(anchor_probe, start, end)
            else {
                continue;
            };
            // Seed extension runs the banded Smith–Waterman kernel. The band
            // is centered on the read's expected diagonal inside the window
            // — the read should start `anchor - gstart` columns in
            // (≈ `WINDOW_MARGIN`, less when the window was clamped at a
            // chromosome edge) — with `WINDOW_MARGIN` diagonals of slack
            // each side; the kernel falls back to the full DP whenever the
            // band can't prove its answer, so the result is the full DP's.
            let aln = sw::with_workspace(|ws| {
                let off = (anchor - gstart as i64) as isize;
                let band = Band::around_offset(off, WINDOW_MARGIN);
                sw::local_align_banded_counted(s, window, &cfg.scoring, band, ws, stats)
            });
            let Some(aln) = aln else {
                continue;
            };
            if aln.score < cfg.min_score {
                continue;
            }
            let global_pos = gstart + aln.ref_start;
            let (c2, local) = match index.global_to_local(global_pos) {
                Some(v) => v,
                None => continue,
            };
            debug_assert_eq!(c2, chrom);
            out.push(Candidate {
                chrom,
                pos: local as i64 + 1,
                reverse,
                score: aln.score,
                cigar: aln.cigar,
                edit_distance: aln.edit_distance,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::dna::reverse_complement;

    fn pseudo_dna(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(x >> 33) as usize % 4]
            })
            .collect()
    }

    fn build_index() -> (ReferenceIndex, Vec<u8>, Vec<u8>) {
        let chr1 = pseudo_dna(20_000, 77);
        let chr2 = pseudo_dna(15_000, 78);
        let idx = ReferenceIndex::build(&[
            ("chr1".into(), chr1.clone()),
            ("chr2".into(), chr2.clone()),
        ]);
        (idx, chr1, chr2)
    }

    #[test]
    fn perfect_forward_read_maps_uniquely() {
        let (idx, chr1, _) = build_index();
        let read = chr1[5000..5100].to_vec();
        let cands = find_candidates(&idx, &SingleConfig::default(), &read);
        assert!(!cands.is_empty());
        let best = &cands[0];
        assert_eq!(best.chrom, 0);
        assert_eq!(best.pos, 5001);
        assert!(!best.reverse);
        assert_eq!(best.score, 100);
        assert_eq!(best.cigar.to_string(), "100M");
        // Unique → big score gap to any runner-up.
        if cands.len() > 1 {
            assert!(cands[1].score < 60);
        }
    }

    #[test]
    fn reverse_strand_read_maps() {
        let (idx, _, chr2) = build_index();
        let read = reverse_complement(&chr2[7000..7100]);
        let cands = find_candidates(&idx, &SingleConfig::default(), &read);
        let best = &cands[0];
        assert_eq!(best.chrom, 1);
        assert_eq!(best.pos, 7001);
        assert!(best.reverse);
        assert_eq!(best.score, 100);
    }

    #[test]
    fn read_with_errors_still_maps() {
        let (idx, chr1, _) = build_index();
        let mut read = chr1[9000..9100].to_vec();
        read[20] = match read[20] {
            b'A' => b'C',
            _ => b'A',
        };
        read[70] = match read[70] {
            b'G' => b'T',
            _ => b'G',
        };
        let cands = find_candidates(&idx, &SingleConfig::default(), &read);
        let best = &cands[0];
        assert_eq!(best.pos, 9001);
        assert_eq!(best.edit_distance, 2);
        assert!(best.score >= 100 - 2 * 5);
    }

    #[test]
    fn read_with_insertion_maps_with_indel_cigar() {
        let (idx, chr1, _) = build_index();
        let mut read = chr1[3000..3096].to_vec();
        read.splice(48..48, [b'A', b'C', b'G', b'T']);
        let cands = find_candidates(&idx, &SingleConfig::default(), &read);
        let best = &cands[0];
        assert_eq!(best.pos, 3001);
        let t = best.cigar.to_string();
        assert!(t.contains('I') || t.contains('S'), "cigar {t}");
    }

    #[test]
    fn duplicated_segment_yields_multiple_candidates() {
        // Build a reference where a segment appears twice.
        let mut chr = pseudo_dna(10_000, 5);
        let copy: Vec<u8> = chr[2000..2500].to_vec();
        chr.splice(7000..7500, copy.iter().copied());
        let idx = ReferenceIndex::build(&[("chr1".into(), chr.clone())]);
        let read = chr[2100..2200].to_vec();
        let cands = find_candidates(&idx, &SingleConfig::default(), &read);
        assert!(cands.len() >= 2, "expected 2 placements, got {cands:?}");
        assert_eq!(cands[0].score, cands[1].score, "equal-score tie expected");
        let positions: Vec<i64> = cands.iter().take(2).map(|c| c.pos).collect();
        assert!(positions.contains(&2101));
        assert!(positions.contains(&7101));
    }

    #[test]
    fn garbage_read_has_no_candidates() {
        let (idx, _, _) = build_index();
        // A read from a different random stream is (overwhelmingly)
        // absent; seeds won't hit, so no candidates.
        let read = pseudo_dna(100, 999_999);
        let cands = find_candidates(&idx, &SingleConfig::default(), &read);
        assert!(
            cands.iter().all(|c| c.score < 60),
            "random read should not align well: {cands:?}"
        );
    }

    #[test]
    fn mapq_behaviour() {
        assert_eq!(mapping_quality(100, None, 30), 60);
        assert_eq!(mapping_quality(100, Some(100), 30), 0); // tie
        assert_eq!(mapping_quality(100, Some(99), 30), 6);
        assert_eq!(mapping_quality(100, Some(90), 30), 60);
        assert_eq!(mapping_quality(0, None, 30), 0);
        assert_eq!(mapping_quality(50, Some(45), 30), 30);
    }

    #[test]
    fn banded_extension_matches_full_dp_on_production_windows() {
        // Reads of every shape, each drawn from a known chr1 locus: on
        // the window and band `extend_candidates` builds for an anchor
        // at that locus, the banded kernel must return what the full DP
        // returns, and that alignment must be the read's best candidate.
        let (idx, chr1, _) = build_index();
        let mut reads: Vec<(usize, Vec<u8>)> = vec![(5000, chr1[5000..5100].to_vec())];
        let mut erry = chr1[9000..9100].to_vec();
        erry[20] = match erry[20] {
            b'A' => b'C',
            _ => b'A',
        };
        reads.push((9000, erry));
        let mut indel = chr1[3000..3096].to_vec();
        indel.splice(48..48, [b'A', b'C', b'G', b'T']);
        reads.push((3000, indel));
        let mut deleted = chr1[11000..11104].to_vec();
        deleted.drain(50..54);
        reads.push((11000, deleted));
        // Clamped at the chromosome's left edge: the band offset shrinks.
        reads.push((4, chr1[4..104].to_vec()));

        let cfg = SingleConfig::default();
        for (origin, read) in &reads {
            let anchor = *origin as i64; // chr1 sits at global offset 0
            let (window, gstart, _) = idx
                .window_within_chromosome(
                    *origin,
                    anchor - WINDOW_MARGIN as i64,
                    anchor + read.len() as i64 + WINDOW_MARGIN as i64,
                )
                .unwrap();
            let band = Band::around_offset((anchor - gstart as i64) as isize, WINDOW_MARGIN);
            let banded = sw::with_workspace(|ws| {
                sw::local_align_banded(read, window, &cfg.scoring, band, ws)
            })
            .expect("read aligns at its origin");
            let full = sw::local_align(read, window, &cfg.scoring).unwrap();
            assert_eq!(banded, full, "origin {origin}");
            let best = &find_candidates(&idx, &cfg, read)[0];
            assert_eq!(
                (best.pos, best.score, &best.cigar),
                ((gstart + full.ref_start) as i64 + 1, full.score, &full.cigar),
                "origin {origin}"
            );
        }

        // Off-origin shapes still resolve: reverse strand, and a random
        // read that aligns nowhere well.
        let (_, _, chr2) = build_index();
        let rev = find_candidates(&idx, &cfg, &reverse_complement(&chr2[7000..7100]));
        assert!(rev[0].reverse && rev[0].chrom == 1 && rev[0].pos == 7001);
        assert!(find_candidates(&idx, &cfg, &pseudo_dna(100, 999_999))
            .iter()
            .all(|c| c.score < 60));
    }

    #[test]
    fn short_read_rejected() {
        let (idx, _, _) = build_index();
        let cands = find_candidates(&idx, &SingleConfig::default(), b"ACGT");
        assert!(cands.is_empty());
    }

    /// `find_candidates` on `read`, checked against the parent's loop,
    /// with the work it tallied.
    fn against_the_parent_with(
        idx: &ReferenceIndex,
        cfg: &SingleConfig,
        read: &[u8],
    ) -> (Vec<Candidate>, KernelStats) {
        let mut work = KernelStats::default();
        let ours = find_candidates_counted(idx, cfg, read, &mut work);
        assert_eq!(ours, reference::find_candidates(idx, cfg, read, &mut KernelStats::default()));
        (ours, work)
    }

    fn against_the_parent(idx: &ReferenceIndex, read: &[u8]) -> (Vec<Candidate>, KernelStats) {
        against_the_parent_with(idx, &SingleConfig::default(), read)
    }

    fn plant(chr: &mut [u8], at: usize, bases: &[u8]) {
        chr[at..at + bases.len()].copy_from_slice(bases);
    }

    #[test]
    fn a_seed_whose_known_anchors_do_not_all_verify_is_located() {
        // Seed 0 hits 1000 and 3000; seed 12 hits 1012 and 7012. Anchor
        // 1000 verifies for seed 12 and anchor 3000 does not, so seed 12
        // must be located — 2 rows + 2 rows — and every later seed
        // verifies against 1000 alone.
        let mut chr = pseudo_dna(20_000, 91);
        let read = chr[1000..1100].to_vec();
        plant(&mut chr, 3000, &read[0..19]);
        plant(&mut chr, 7012, &read[12..31]);
        let idx = ReferenceIndex::build(&[("chr1".into(), chr)]);
        let (cands, work) = against_the_parent(&idx, &read);
        assert_eq!((cands[0].pos, cands[0].score), (1001, 100));
        assert_eq!(work.seed_rows_located, 4, "the parent walks 2 + 2 + 6 × 1");
    }

    #[test]
    fn equal_windows_at_different_band_offsets_are_extended_apart() {
        // A 100 bp chromosome: anchors −16 and 16 both clamp to all of
        // it, so their windows are the same bytes, but their bands
        // ([−32, 0] and [0, 32]) see different alignments — the read's
        // 84 bp prefix on diagonal 16, its 40 bp suffix on diagonal −16
        // (copied into the chromosome at 44 and 76).
        let mut chr = pseudo_dna(100, 5);
        chr.copy_within(44..68, 76);
        let read: Vec<u8> = [&chr[16..100], &chr[68..84]].concat();
        let idx =
            ReferenceIndex::build(&[("chrC".into(), chr), ("chr2".into(), pseudo_dna(5_000, 6))]);
        let (cands, work) = against_the_parent(&idx, &read);
        let forward: Vec<(i64, i32)> = cands
            .iter()
            .filter(|c| !c.reverse && c.chrom == 0)
            .map(|c| (c.pos, c.score))
            .collect();
        assert!(forward.contains(&(17, 84)), "{forward:?}");
        assert!(
            forward.iter().any(|&(pos, score)| pos > 17 && score < 84),
            "{forward:?}"
        );
        assert_eq!(work.sw_window_reuses, 0);
    }

    #[test]
    fn an_anchor_located_by_two_seeds_verifies_once() {
        // Seeds 0 and 12 both locate anchor 1000 (with 5000 and 7000).
        // Seed 24 hits 1024 and 9024: 1000 verifies, and must count as
        // one occurrence of two, so 9000 is located — and its 36 bp
        // alignment kept.
        let mut chr = pseudo_dna(20_000, 93);
        let read = chr[1000..1100].to_vec();
        plant(&mut chr, 5000, &read[0..19]);
        plant(&mut chr, 7012, &read[12..31]);
        plant(&mut chr, 9024, &read[24..60]);
        let idx = ReferenceIndex::build(&[("chr1".into(), chr)]);
        let (cands, work) = against_the_parent(&idx, &read);
        assert!(
            cands.iter().any(|c| c.pos == 9025 && !c.reverse),
            "{cands:?}"
        );
        assert_eq!(
            work.seed_rows_located, 6,
            "seeds 0, 12 and 24 located; 36 verified against 1000 and 9000"
        );
    }

    #[test]
    fn an_exact_unique_read_searches_one_seed_per_strand_it_lies_on() {
        // 100 bp reads, 8 seeds a strand. Forward: the forward first seed
        // locates the anchor, which answers the other 15 seeds — its own
        // strand's 7, and the reverse pass's 8, whose reverse
        // complements sit at unique positions. Reverse: the forward first
        // seed finds nothing, so the reverse first seed is searched too.
        let (idx, chr1, chr2) = build_index();
        let (cands, work) = against_the_parent(&idx, &chr1[5000..5100]);
        assert_eq!((cands[0].pos, cands[0].reverse), (5001, false));
        assert_eq!((work.seed_searches_answered, work.seed_rows_located), (15, 1));
        let (cands, work) = against_the_parent(&idx, &reverse_complement(&chr2[7000..7100]));
        assert_eq!((cands[0].pos, cands[0].reverse), (7001, true));
        assert_eq!((work.seed_searches_answered, work.seed_rows_located), (14, 1));
    }

    #[test]
    fn an_anchor_verifying_at_a_repeated_kmer_does_not_answer() {
        // Seed 12's bytes sit at anchor 1000's offset, but also at 7012:
        // its bit is clear, so it is searched — two hits, one verified,
        // so both located. Every other seed is answered from 1000.
        let mut chr = pseudo_dna(20_000, 95);
        let read = chr[1000..1100].to_vec();
        plant(&mut chr, 7012, &read[12..31]);
        let idx = ReferenceIndex::build(&[("chr1".into(), chr)]);
        let (cands, work) = against_the_parent(&idx, &read);
        assert_eq!((cands[0].pos, cands[0].score), (1001, 100));
        assert_eq!((work.seed_searches_answered, work.seed_rows_located), (14, 3));
    }

    #[test]
    fn an_inverted_repeat_sends_the_other_pass_to_the_index() {
        // The reverse complement of the read's bases 40..80 is planted at
        // 5000. The forward seeds wholly inside them, and the reverse seeds
        // whose reverse complements are, lose their bits; the reverse
        // ones are searched, find the copy, and yield its alignment.
        let mut chr = pseudo_dna(20_000, 97);
        let read = chr[1000..1100].to_vec();
        plant(&mut chr, 5000, &reverse_complement(&read[40..80]));
        let idx = ReferenceIndex::build(&[("chr1".into(), chr)]);
        let (cands, work) = against_the_parent(&idx, &read);
        assert_eq!((cands[0].pos, cands[0].score), (1001, 100));
        assert!(
            cands.iter().any(|c| c.reverse && (c.pos - 5001).abs() <= 2 && c.score >= 38),
            "{cands:?}"
        );
        // Searched: forward 0, 48 and 60; reverse 24 and 36 (their
        // reverse complements are the forward bases 57..76 and 45..64).
        assert_eq!(work.seed_searches_answered, 11);
    }

    #[test]
    fn other_seed_lengths_and_no_seed_hits_answer_nothing() {
        let (idx, chr1, _) = build_index();
        let read = &chr1[5000..5100];
        for cfg in [
            SingleConfig { seed_len: 21, ..SingleConfig::default() },
            SingleConfig { max_seed_hits: 0, ..SingleConfig::default() },
        ] {
            let (_, work) = against_the_parent_with(&idx, &cfg, read);
            assert_eq!(work.seed_searches_answered, 0, "{cfg:?}");
        }
    }

    use proptest::prelude::*;

    /// Tandem-repeat periods: homopolymers up to a dozen-base unit, units
    /// either side of the seed length, and the alpha-satellite monomer.
    const PERIODS: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 19, 20, 171];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn repeat_reads_find_the_parents_candidates(
            period in 0usize..PERIODS.len(),
            copies in 1usize..80,
            lead in prop_oneof![Just(0usize), 1usize..40, 40usize..300],
            at_join in any::<bool>(),
            divergent in 0usize..3,
            max_seed_hits in prop_oneof![Just(64usize), 1usize..16],
            seed in any::<u64>(),
            reads in proptest::collection::vec((0usize..6, any::<u64>()), 6),
        ) {
            // chr1: `lead` random bases (none: the repeat starts at text
            // position 0), the repeat, and — unless the repeat runs into
            // the join and chr2 carries it on — a random tail. chr2: a
            // 300 bp segment and its copy, 0–2 bases divergent mid-copy.
            let unit = pseudo_dna(PERIODS[period], seed);
            let rep_len = copies * unit.len() + (seed >> 40) as usize % 19;
            let cont = 19 + (seed >> 48) as usize % 60;
            let tandem: Vec<u8> = unit.iter().copied().cycle().take(rep_len + cont).collect();
            let mut chr1 = pseudo_dna(lead, seed ^ 1);
            let rep_start = chr1.len();
            chr1.extend_from_slice(&tandem[..rep_len]);
            let mut chr2 = Vec::new();
            if at_join {
                chr2.extend_from_slice(&tandem[rep_len..]);
            } else {
                chr1.extend(pseudo_dna(150, seed ^ 2));
            }
            let segment = pseudo_dna(300, seed ^ 3);
            let mut copy = segment.clone();
            for k in 0..divergent {
                let i = 110 + (seed >> (8 * k)) as usize % 80;
                copy[i] = if copy[i] == b'A' { b'C' } else { b'A' };
            }
            chr2.extend(pseudo_dna(80, seed ^ 4));
            let seg_src = chr1.len() + chr2.len();
            chr2.extend_from_slice(&segment);
            chr2.extend(pseudo_dna(80, seed ^ 5));
            let seg_dst = chr1.len() + chr2.len();
            chr2.extend_from_slice(&copy);
            chr2.extend(pseudo_dna(80, seed ^ 6));
            let text = [chr1.as_slice(), chr2.as_slice()].concat();
            let idx = ReferenceIndex::build(&[("chr1".into(), chr1), ("chr2".into(), chr2)]);
            let cfg = SingleConfig { max_seed_hits, ..SingleConfig::default() };

            let rep_end = rep_start + rep_len;
            for (kind, r) in reads {
                let m = [100, 100, 76, 150][r as usize % 4];
                let at = |x: u64| (x >> 8) as usize;
                let start = match kind {
                    // Wholly inside the repeat (straddling both edges
                    // when it is shorter than the read).
                    0 => rep_start + at(r) % (rep_len.saturating_sub(m) + 1),
                    // Straddling its left edge, or its right one (the
                    // chromosome join when `at_join`).
                    1 => rep_start.saturating_sub(1 + at(r) % m),
                    2 => (rep_end + 1 + at(r) % (m - 1)).saturating_sub(m),
                    // In the segment or its copy.
                    3 => [seg_src, seg_dst][at(r) % 2] + at(r) / 2 % (300 - m),
                    // Near text position 0: negative anchors.
                    4 => at(r) % 20,
                    _ => at(r) % text.len(),
                };
                let start = start.min(text.len() - m);
                let mut read = text[start..start + m].to_vec();
                for k in 0..(r >> 32) % 3 {
                    let i = (r >> (40 + 8 * k)) as usize % m;
                    read[i] = if read[i] == b'G' { b'T' } else { b'G' };
                }
                if (r >> 60) & 1 == 1 {
                    read[(r >> 20) as usize % m] = b'N';
                }
                if (r >> 61) & 1 == 1 {
                    read = reverse_complement(&read);
                }
                prop_assert_eq!(
                    find_candidates(&idx, &cfg, &read),
                    reference::find_candidates(&idx, &cfg, &read, &mut KernelStats::default()),
                    "read kind {} at {}", kind, start
                );
            }
        }

        #[test]
        fn known_answer_seeding_finds_the_parents_candidates(
            len1 in 150usize..3_000,
            len2 in 150usize..3_000,
            inverted in any::<bool>(),
            seed in any::<u64>(),
            reads in proptest::collection::vec((0usize..4, any::<u64>()), 8),
        ) {
            // Two random chromosomes — unique almost everywhere — and,
            // sometimes, an inverted copy of 60 bases of chr1 in chr2.
            let chr1 = pseudo_dna(len1, seed);
            let mut chr2 = pseudo_dna(len2, seed ^ 1);
            if inverted {
                let from = (seed >> 8) as usize % (len1 - 60);
                let to = (seed >> 24) as usize % (len2 - 60);
                plant(&mut chr2, to, &reverse_complement(&chr1[from..from + 60]));
            }
            let text = [chr1.as_slice(), chr2.as_slice()].concat();
            let idx = ReferenceIndex::build(&[("chr1".into(), chr1), ("chr2".into(), chr2)]);
            let cfg = SingleConfig::default();
            for (kind, r) in reads {
                let m = [100, 100, 76, 150][r as usize % 4];
                let at = (r >> 8) as usize;
                let start = match kind {
                    // Across the chromosome join.
                    0 => (len1 + 1 + at % (m - 1)).saturating_sub(m),
                    // Near text position 0: negative anchors.
                    1 => at % 20,
                    _ => at % text.len(),
                };
                // Up to one indel of 1–4 bases, then 0–3 substitutions.
                let indel = (r >> 16) as usize % 5;
                let start = start.min(text.len() - m - indel);
                let mut read = text[start..start + m + indel].to_vec();
                let cut = 20 + (r >> 24) as usize % (m - 40);
                match (r >> 32) % 3 {
                    0 => read.truncate(m),
                    1 => drop(read.drain(cut..cut + indel)),
                    _ => {
                        read.truncate(m);
                        let bases = (0..indel).map(|i| b"ACGT"[(r >> (34 + 2 * i)) as usize % 4]);
                        read.splice(cut..cut, bases);
                    }
                }
                for k in 0..(r >> 42) % 4 {
                    let i = (r >> (44 + 5 * k)) as usize % read.len();
                    read[i] = if read[i] == b'G' { b'T' } else { b'G' };
                }
                if (r >> 62) & 1 == 1 {
                    let i = (r >> 3) as usize % read.len();
                    read[i] = b'N';
                }
                if (r >> 63) & 1 == 1 {
                    read = reverse_complement(&read);
                }
                prop_assert_eq!(
                    find_candidates(&idx, &cfg, &read),
                    reference::find_candidates(&idx, &cfg, &read, &mut KernelStats::default()),
                    "read kind {} at {}", kind, start
                );
            }
        }
    }
}
