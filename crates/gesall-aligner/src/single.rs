//! Per-read alignment: seeding, candidate generation, mapping quality.

use crate::index::ReferenceIndex;
use crate::sw::{self, Band, Scoring};
use gesall_formats::dna::reverse_complement;
use gesall_formats::sam::cigar::Cigar;

/// Seeding/alignment parameters for a single read.
#[derive(Debug, Clone)]
pub struct SingleConfig {
    /// Exact-match seed length.
    pub seed_len: usize,
    /// Stride between seed start offsets.
    pub seed_stride: usize,
    /// Seeds hitting more than this many locations are discarded
    /// (repeat-region bail-out — those reads end up mapq 0 or unmapped).
    pub max_seed_hits: usize,
    /// Extra reference bases on each side of the implied window.
    pub window_margin: usize,
    /// Minimum Smith–Waterman score to keep a candidate.
    pub min_score: i32,
    /// Keep at most this many candidates per strand pass.
    pub max_candidates: usize,
    pub scoring: Scoring,
}

impl Default for SingleConfig {
    fn default() -> SingleConfig {
        SingleConfig {
            seed_len: 19,
            seed_stride: 12,
            max_seed_hits: 64,
            window_margin: 16,
            min_score: 30,
            max_candidates: 16,
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
    let mut out: Vec<Candidate> = Vec::new();
    let mut anchors: Vec<i64> = Vec::new();
    let rc = reverse_complement(seq);
    for (reverse, s) in [(false, seq), (true, rc.as_slice())] {
        collect_strand_candidates(index, cfg, s, reverse, &mut anchors, &mut out);
    }
    // Dedup by (chrom, pos, strand), keep best score.
    out.sort_by(|a, b| {
        (a.chrom, a.pos, a.reverse)
            .cmp(&(b.chrom, b.pos, b.reverse))
            .then(b.score.cmp(&a.score))
    });
    out.dedup_by(|a, b| a.chrom == b.chrom && a.pos == b.pos && a.reverse == b.reverse);
    out.sort_by(|a, b| b.score.cmp(&a.score).then(a.pos.cmp(&b.pos)));
    out.truncate(cfg.max_candidates);
    out
}

fn collect_strand_candidates(
    index: &ReferenceIndex,
    cfg: &SingleConfig,
    s: &[u8],
    reverse: bool,
    anchors: &mut Vec<i64>,
    out: &mut Vec<Candidate>,
) {
    let m = s.len();
    if m < cfg.seed_len {
        return;
    }
    // Seed offsets: 0, stride, 2*stride, ..., and always the final window.
    let stride = cfg.seed_stride.max(1);
    let last = m - cfg.seed_len;
    let seed_offsets = (0..last).step_by(stride).chain([last]);

    // Gather implied window anchor positions (a seed too repetitive to
    // locate contributes none).
    anchors.clear();
    for off in seed_offsets {
        let seed = &s[off..off + cfg.seed_len];
        if seed.iter().any(|&b| !matches!(b, b'A' | b'C' | b'G' | b'T')) {
            continue;
        }
        index.fm().locate_each(seed, cfg.max_seed_hits, |hit| {
            anchors.push(hit as i64 - off as i64)
        });
    }
    anchors.sort_unstable();
    // Collapse anchors within a small tolerance (same implied alignment).
    anchors.dedup_by(|a, b| (*a - *b).abs() <= 8);

    for &anchor in anchors.iter() {
        let start = anchor - cfg.window_margin as i64;
        let end = anchor + m as i64 + cfg.window_margin as i64;
        let anchor_probe = anchor.clamp(0, index.text_len() as i64 - 1) as usize;
        let Some((window, gstart, chrom)) =
            index.window_within_chromosome(anchor_probe, start, end)
        else {
            continue;
        };
        // Seed extension runs the banded Smith–Waterman kernel. The band
        // is centered on the read's expected diagonal inside the window
        // — the read should start `anchor - gstart` columns in
        // (≈ window_margin, less when the window was clamped at a
        // chromosome edge) — with `window_margin` diagonals of slack
        // each side; the kernel falls back to the full DP whenever the
        // band can't prove its answer, so the result is the full DP's.
        let aln = sw::with_workspace(|ws| {
            let off = (anchor - gstart as i64) as isize;
            let band = Band::around_offset(off, cfg.window_margin);
            sw::local_align_banded(s, window, &cfg.scoring, band, ws)
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

#[cfg(test)]
mod tests {
    use super::*;

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
                    anchor - cfg.window_margin as i64,
                    anchor + read.len() as i64 + cfg.window_margin as i64,
                )
                .unwrap();
            let band = Band::around_offset((anchor - gstart as i64) as isize, cfg.window_margin);
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
}
