//! HaplotypeCaller (paper Table 2, step v2): small-variant calling via
//! **greedy sequential segmentation** of the genome into active windows.
//!
//! The caller walks every position of a chromosome in order, computing an
//! *activity* statistic from the reads overlapping it (mismatches,
//! indels, clip boundaries); it greedily opens an *active window* when
//! activity rises, extends it, and closes it subject to minimum/maximum
//! window-length constraints; variants are detected only **inside**
//! windows. This is exactly the data-access pattern the paper says
//! prevents naive positional partitioning (§3.2): a window's boundaries
//! depend on the sequential walk, so cutting the genome mid-walk can
//! shift windows and flip borderline calls.

use crate::pileup::{self, Pileup};
use crate::refview::RefView;
use crate::unified_genotyper::{call_region, GenotyperConfig};
use gesall_formats::sam::SamRecord;
use gesall_formats::vcf::VariantRecord;

/// Active-window segmentation parameters.
#[derive(Debug, Clone)]
pub struct HaplotypeCallerConfig {
    /// Activity level that opens a window.
    pub activity_on: f64,
    /// A window closes after this many consecutive quiet positions.
    pub quiet_gap: i64,
    /// Minimum window length (short bursts are padded to this).
    pub min_window: i64,
    /// Maximum window length (longer activity is force-split — the
    /// constraint the paper calls out).
    pub max_window: i64,
    /// Padding added around the active core.
    pub pad: i64,
    /// Pileup/genotyping parameters used inside windows.
    pub genotyper: GenotyperConfig,
}

impl Default for HaplotypeCallerConfig {
    fn default() -> HaplotypeCallerConfig {
        HaplotypeCallerConfig {
            activity_on: 0.12,
            quiet_gap: 20,
            min_window: 40,
            max_window: 300,
            pad: 10,
            genotyper: GenotyperConfig::default(),
        }
    }
}

/// One active window on a chromosome (1-based inclusive bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveWindow {
    pub start: i64,
    pub end: i64,
}

impl ActiveWindow {
    pub fn len(&self) -> i64 {
        self.end - self.start + 1
    }

    pub fn is_empty(&self) -> bool {
        self.end < self.start
    }
}

/// The sequential greedy segmentation over a stream of per-position
/// activity values.
struct WindowWalker {
    cfg_on: f64,
    quiet_gap: i64,
    min_window: i64,
    max_window: i64,
    pad: i64,
    open_start: Option<i64>,
    last_active: i64,
    windows: Vec<ActiveWindow>,
}

impl WindowWalker {
    fn new(cfg: &HaplotypeCallerConfig) -> WindowWalker {
        WindowWalker {
            cfg_on: cfg.activity_on,
            quiet_gap: cfg.quiet_gap,
            min_window: cfg.min_window,
            max_window: cfg.max_window,
            pad: cfg.pad,
            open_start: None,
            last_active: 0,
            windows: Vec::new(),
        }
    }

    fn step(&mut self, pos: i64, activity: f64) {
        let active = activity >= self.cfg_on;
        match self.open_start {
            None => {
                if active {
                    self.open_start = Some(pos);
                    self.last_active = pos;
                }
            }
            Some(start) => {
                if active {
                    self.last_active = pos;
                }
                let too_long = pos - start + 1 >= self.max_window;
                let quiet_long_enough = pos - self.last_active >= self.quiet_gap;
                if too_long || quiet_long_enough {
                    self.close(start);
                    // Forced split while still active: reopen immediately
                    // so a long active region becomes adjacent windows.
                    if too_long && active {
                        self.open_start = Some(pos + 1);
                        self.last_active = pos;
                    }
                }
            }
        }
    }

    fn close(&mut self, start: i64) {
        let mut s = start - self.pad;
        let mut e = self.last_active + self.pad;
        if e - s + 1 < self.min_window {
            let deficit = self.min_window - (e - s + 1);
            s -= deficit / 2;
            e += deficit - deficit / 2;
        }
        self.windows.push(ActiveWindow {
            start: s.max(1),
            end: e,
        });
        self.open_start = None;
    }

    fn finish(&mut self) {
        if let Some(start) = self.open_start {
            self.close(start);
        }
    }
}

/// Per-position activity from a pileup column: the fraction of evidence
/// that disagrees with the reference.
fn activity(col: &crate::pileup::PileupColumn) -> f64 {
    let depth = col.depth.max(1) as f64;
    let indel_obs: u32 = col.indels.iter().map(|(_, c)| *c).sum();
    (col.mismatches as f64 + 2.0 * indel_obs as f64 + 0.5 * col.clips as f64) / depth
}

/// Result of a HaplotypeCaller run over one chromosome.
#[derive(Debug, Clone)]
pub struct HaplotypeCallerResult {
    pub variants: Vec<VariantRecord>,
    pub windows: Vec<ActiveWindow>,
}

/// Run the caller over `[start, end]` of one chromosome. `records` must
/// be coordinate-sorted reads of that chromosome (others are ignored).
///
/// Running over sub-ranges of a chromosome is exactly the fine-grained
/// partitioning the paper analyzes: windows near the cut differ from the
/// full-chromosome walk.
pub fn call_range(
    records: &[SamRecord],
    ref_id: i32,
    chrom: &str,
    start: i64,
    end: i64,
    reference: RefView<'_>,
    cfg: &HaplotypeCallerConfig,
) -> HaplotypeCallerResult {
    assert!(start >= 1 && end >= start, "bad range");
    // Phase 1: sequential walk computing activity and segmentation.
    let mut walker = WindowWalker::new(cfg);
    for (tile_start, tile_end) in pileup::tiles(start, end) {
        let mut pileup = Pileup::build(records, ref_id, tile_start, tile_end, &cfg.genotyper.pileup);
        let ref_slice = reference.slice(ref_id, tile_start, tile_end);
        if ref_slice.len() == pileup.columns.len() {
            pileup.annotate_mismatches(ref_slice);
        }
        for (off, col) in pileup.columns.iter().enumerate() {
            if col.depth == 0 && col.indels.is_empty() && col.clips == 0 {
                walker.step(tile_start + off as i64, 0.0);
            } else {
                walker.step(tile_start + off as i64, activity(col));
            }
        }
    }
    walker.finish();
    let windows = std::mem::take(&mut walker.windows);

    // Phase 2: genotype each window from the reads that can overlap it.
    let overlapping = overlapping_reads(records, ref_id);
    let mut variants = Vec::new();
    for w in &windows {
        let w_end = w.end.min(reference.chrom_len(ref_id) as i64).min(end + cfg.pad);
        let w_start = w.start.max(1);
        if w_end < w_start {
            continue;
        }
        let calls = call_region(
            overlapping(w_start, w_end),
            ref_id,
            chrom,
            w_start,
            w_end,
            reference,
            &cfg.genotyper,
        );
        variants.extend(calls);
    }
    // Adjacent windows can overlap after padding; dedup by site.
    variants.sort_by(|a, b| {
        (a.pos, &a.ref_allele, &a.alt_allele).cmp(&(b.pos, &b.ref_allele, &b.alt_allele))
    });
    variants.dedup_by(|a, b| a.site_key() == b.site_key());
    HaplotypeCallerResult { variants, windows }
}

/// Index one chromosome's reads so that a window's pileup is built from
/// the reads that can overlap it instead of from the partition: the
/// returned `(start, end)` lookup gives a contiguous run of `records`
/// holding every read that overlaps `[start, end]`.
///
/// Why a sub-slice gives the same pileup: [`Pileup::build`] drops a
/// record that is unmapped, on another chromosome, or has
/// `end_pos() < start || pos > end` before it touches a column, and
/// visits the rest in slice order. That order matters — a column's
/// indel alleles are appended first-seen and `top_indel` keeps the
/// *last* maximum — so any contiguous sub-slice holding every
/// overlapping record yields the same columns. With `pos`
/// non-decreasing over `sel`, everything before `lo` ends before the
/// window (by the running maximum of `end_pos`: a long-deletion read
/// may end after reads that start later) and everything from `hi` on
/// starts after it. Nothing enforces `call_range`'s sorted input, so
/// unsorted input gets the whole slice: same code, the partition's cost.
fn overlapping_reads<'a>(
    records: &'a [SamRecord],
    ref_id: i32,
) -> impl Fn(i64, i64) -> &'a [SamRecord] {
    // `sel`: indices of the mapped records on the chromosome, in slice
    // order; `max_end`: the running maximum of `end_pos` over them.
    let (mut sel, mut max_end, mut sorted) = (Vec::new(), Vec::new(), true);
    let (mut last_pos, mut running) = (i64::MIN, i64::MIN);
    for (i, rec) in records.iter().enumerate() {
        if !rec.is_mapped() || rec.ref_id != ref_id {
            continue;
        }
        sorted &= rec.pos >= last_pos;
        last_pos = rec.pos;
        running = running.max(rec.end_pos());
        sel.push(i);
        max_end.push(running);
    }
    move |start, end| {
        if !sorted {
            return records;
        }
        let lo = max_end.partition_point(|&e| e < start);
        let hi = sel.partition_point(|&i| records[i].pos <= end);
        if lo >= hi {
            return &[];
        }
        &records[sel[lo]..=sel[hi - 1]]
    }
}

/// Run the caller over a whole chromosome.
pub fn call_chromosome(
    records: &[SamRecord],
    ref_id: i32,
    chrom: &str,
    reference: RefView<'_>,
    cfg: &HaplotypeCallerConfig,
) -> HaplotypeCallerResult {
    let len = reference.chrom_len(ref_id) as i64;
    if len == 0 {
        return HaplotypeCallerResult {
            variants: Vec::new(),
            windows: Vec::new(),
        };
    }
    call_range(records, ref_id, chrom, 1, len, reference, cfg)
}

/// The parent commit's `call_range`, verbatim: every window's pileup
/// built from the whole slice, variants sorted on cloned keys. The
/// proptest and the count gate below hold the code above to it.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn call_range(
        records: &[SamRecord],
        ref_id: i32,
        chrom: &str,
        start: i64,
        end: i64,
        reference: RefView<'_>,
        cfg: &HaplotypeCallerConfig,
    ) -> HaplotypeCallerResult {
        assert!(start >= 1 && end >= start, "bad range");
        // Phase 1: sequential walk computing activity and segmentation.
        let mut walker = WindowWalker::new(cfg);
        let mut tile_start = start;
        while tile_start <= end {
            let tile = pileup::tests::SMALL_TILE.with(|t| t.get()).unwrap_or(pileup::TILE);
            let tile_end = (tile_start + tile as i64 - 1).min(end);
            let mut pileup =
                Pileup::build(records, ref_id, tile_start, tile_end, &cfg.genotyper.pileup);
            let ref_slice = reference.slice(ref_id, tile_start, tile_end);
            if ref_slice.len() == pileup.columns.len() {
                pileup.annotate_mismatches(ref_slice);
            }
            for (off, col) in pileup.columns.iter().enumerate() {
                if col.depth == 0 && col.indels.is_empty() && col.clips == 0 {
                    walker.step(tile_start + off as i64, 0.0);
                } else {
                    walker.step(tile_start + off as i64, activity(col));
                }
            }
            tile_start = tile_end + 1;
        }
        walker.finish();
        let windows = std::mem::take(&mut walker.windows);

        // Phase 2: genotype inside each window only.
        let mut variants = Vec::new();
        for w in &windows {
            let w_end = w
                .end
                .min(reference.chrom_len(ref_id) as i64)
                .min(end + cfg.pad);
            let w_start = w.start.max(1);
            if w_end < w_start {
                continue;
            }
            let calls = call_region(
                records,
                ref_id,
                chrom,
                w_start,
                w_end,
                reference,
                &cfg.genotyper,
            );
            variants.extend(calls);
        }
        // Adjacent windows can overlap after padding; dedup by site.
        variants.sort_by_key(|v| (v.pos, v.ref_allele.clone(), v.alt_allele.clone()));
        variants.dedup_by(|a, b| a.site_key() == b.site_key());
        HaplotypeCallerResult { variants, windows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::{Cigar, Flags};
    use gesall_formats::vcf::Genotype;

    fn read(name: &str, pos: i64, seq: &[u8]) -> SamRecord {
        let mut r = SamRecord::unmapped(name, seq.to_vec(), vec![35; seq.len()]);
        r.flags = Flags(0);
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = Cigar::full_match(seq.len() as u32);
        r
    }

    fn reference(n: usize) -> Vec<Vec<u8>> {
        vec![(0..n).map(|i| b"ACGT"[(i * 7 + i / 9) % 4]).collect()]
    }

    #[test]
    fn window_walker_segments_bursts() {
        let cfg = HaplotypeCallerConfig::default();
        let mut w = WindowWalker::new(&cfg);
        for pos in 1..=1000 {
            let a = if (200..=230).contains(&pos) || (600..=640).contains(&pos) {
                0.5
            } else {
                0.0
            };
            w.step(pos, a);
        }
        w.finish();
        assert_eq!(w.windows.len(), 2, "windows: {:?}", w.windows);
        let w0 = w.windows[0];
        assert!(w0.start <= 200 && w0.end >= 230);
        assert!(w0.len() >= cfg.min_window);
    }

    #[test]
    fn long_activity_is_force_split() {
        let cfg = HaplotypeCallerConfig::default();
        let mut w = WindowWalker::new(&cfg);
        for pos in 1..=2000 {
            w.step(pos, if (100..=1500).contains(&pos) { 0.9 } else { 0.0 });
        }
        w.finish();
        assert!(
            w.windows.len() >= 4,
            "1400 active bases must split at max_window=300: {:?}",
            w.windows
        );
        for win in &w.windows {
            assert!(win.len() <= cfg.max_window + 2 * cfg.pad + 2);
        }
    }

    #[test]
    fn trailing_open_window_closed_at_finish() {
        let cfg = HaplotypeCallerConfig::default();
        let mut w = WindowWalker::new(&cfg);
        for pos in 1..=100 {
            w.step(pos, if pos > 90 { 1.0 } else { 0.0 });
        }
        w.finish();
        assert_eq!(w.windows.len(), 1);
    }

    #[test]
    fn calls_variant_inside_window_only() {
        let seqs = reference(2000);
        let rv = RefView::new(&seqs);
        // 12 reads carrying a hom SNP at position 501.
        let mut reads = Vec::new();
        for k in 0..12 {
            let mut s = seqs[0][480..560].to_vec();
            s[20] = match s[20] {
                b'A' => b'T',
                _ => b'A',
            };
            reads.push(read(&format!("v{k}"), 481, &s));
        }
        // Plenty of clean coverage elsewhere.
        for k in 0..12 {
            reads.push(read(&format!("c{k}"), 1001, &seqs[0][1000..1080]));
        }
        let res = call_chromosome(&reads, 0, "chr1", rv, &HaplotypeCallerConfig::default());
        assert_eq!(res.variants.len(), 1, "{:?}", res.variants);
        assert_eq!(res.variants[0].pos, 501);
        assert_eq!(res.variants[0].genotype, Genotype::HomAlt);
        // Exactly one active window, around the SNP.
        assert_eq!(res.windows.len(), 1);
        let w = res.windows[0];
        assert!(w.start <= 501 && 501 <= w.end, "window {w:?}");
    }

    #[test]
    fn clean_coverage_produces_no_windows() {
        let seqs = reference(1000);
        let rv = RefView::new(&seqs);
        let reads: Vec<SamRecord> = (0..20)
            .map(|k| read(&format!("c{k}"), 101 + (k as i64 % 5) * 37, &seqs[0][100..180]))
            .collect();
        // Adjust: reads must match reference at their positions.
        let reads: Vec<SamRecord> = reads
            .into_iter()
            .map(|mut r| {
                let s = seqs[0][(r.pos - 1) as usize..(r.pos - 1) as usize + 80].to_vec();
                r.seq = s;
                r
            })
            .collect();
        let res = call_chromosome(&reads, 0, "chr1", rv, &HaplotypeCallerConfig::default());
        assert!(res.windows.is_empty(), "windows: {:?}", res.windows);
        assert!(res.variants.is_empty());
    }

    #[test]
    fn range_partitioning_can_shift_boundary_windows() {
        // The paper's point: a positional cut mid-activity changes the
        // segmentation relative to the sequential whole-chromosome walk.
        let seqs = reference(4000);
        let rv = RefView::new(&seqs);
        let mut reads = Vec::new();
        // An active stretch straddling position 2000 (noisy bases 1960..2040).
        for k in 0..10 {
            let start = 1940 + k * 8;
            let mut s = seqs[0][start..start + 100].to_vec();
            for j in (10..90).step_by(9) {
                s[j] = match s[j] {
                    b'A' => b'C',
                    b'C' => b'G',
                    b'G' => b'T',
                    _ => b'A',
                };
            }
            reads.push(read(&format!("n{k}"), start as i64 + 1, &s));
        }
        let cfg = HaplotypeCallerConfig::default();
        let whole = call_range(&reads, 0, "chr1", 1, 4000, rv, &cfg);
        let left = call_range(&reads, 0, "chr1", 1, 2000, rv, &cfg);
        let right = call_range(&reads, 0, "chr1", 2001, 4000, rv, &cfg);
        let whole_windows = whole.windows.len();
        let split_windows = left.windows.len() + right.windows.len();
        // The cut lands inside the active region: the split run must see
        // a different segmentation (usually one extra window).
        assert!(whole_windows >= 1);
        assert!(
            split_windows != whole_windows
                || left.windows.last().map(|w| w.end) != whole.windows.first().map(|w| w.end),
            "expected boundary effects: whole={:?} left={:?} right={:?}",
            whole.windows,
            left.windows,
            right.windows
        );
    }

    // ---- same as the parent's caller, whatever the slice looks like ----

    /// `Pileup::build` loop entries `f` causes on this thread.
    fn records_piled_up<R>(f: impl FnOnce() -> R) -> (R, u64) {
        use crate::pileup::tests::RECORDS_ENTERED;
        RECORDS_ENTERED.with(|n| n.set(0));
        let out = f();
        (out, RECORDS_ENTERED.with(|n| n.get()))
    }

    fn flip(b: u8) -> u8 {
        match b {
            b'A' => b'C',
            b'C' => b'G',
            b'G' => b'T',
            _ => b'A',
        }
    }

    #[test]
    fn a_window_piles_up_its_own_reads_not_the_partition() {
        // 2 000 reads of 100 bases every 20 bases (depth 5) over a
        // 40 100-base chromosome, a homozygous SNP every 1 500 bases.
        let mut seqs = reference(40_100);
        let clean = seqs[0].clone();
        for site in (700..40_000).step_by(1_500) {
            seqs[0][site] = flip(seqs[0][site]);
        }
        let mut reads: Vec<SamRecord> = (0..2_000)
            .map(|k| {
                read(
                    &format!("r{k}"),
                    k as i64 * 20 + 1,
                    &seqs[0][k * 20..k * 20 + 100],
                )
            })
            .collect();
        // The rest of a sorted file follows, as in the benchmark's
        // probe: the next chromosome from position 1 again, then the
        // unmapped reads.
        for k in 0..200 {
            let mut other = read(&format!("o{k}"), k * 20 + 1, &clean[..100]);
            other.ref_id = 1;
            reads.push(other);
            reads.push(SamRecord::unmapped(
                format!("u{k}"),
                clean[..100].to_vec(),
                vec![35; 100],
            ));
        }
        let seqs = vec![clean];
        let rv = RefView::new(&seqs);
        let cfg = HaplotypeCallerConfig::default();
        let (ours, piled) = records_piled_up(|| call_chromosome(&reads, 0, "chr1", rv, &cfg));
        let (parents, parent_piled) =
            records_piled_up(|| reference::call_range(&reads, 0, "chr1", 1, 40_100, rv, &cfg));
        assert_eq!(ours.variants, parents.variants);
        assert_eq!(ours.windows, parents.windows);
        assert_eq!(ours.variants.len(), 27);
        let n_windows = ours.windows.len() as u64;
        assert!(n_windows >= 20, "{n_windows} windows");
        // Phase 1 is one tile over every record, on both sides.
        let phase1 = reads.len() as u64;
        let overlapping: u64 = ours
            .windows
            .iter()
            .map(|w| {
                let overlaps =
                    |r: &&SamRecord| r.ref_id == 0 && r.pos <= w.end && r.end_pos() >= w.start;
                reads.iter().filter(overlaps).count() as u64
            })
            .sum();
        assert!(
            piled - phase1 <= 2 * overlapping + n_windows,
            "{} records piled up for {overlapping} overlapping {n_windows} windows",
            piled - phase1
        );
        assert_eq!(parent_piled - phase1, n_windows * reads.len() as u64);
    }

    use proptest::prelude::*;

    /// (start, reference bases covered, planted sites carried, noise
    /// offsets, kind).
    type ReadSpec = (i64, usize, u16, Vec<usize>, usize);

    /// A read copied from the reference that carries, by the bits of
    /// `carries`, the planted SNPs (bit `i`) and indels (bit `8 + i`;
    /// bit 15 picks one of two insertion alleles, so a column can hold
    /// tied alleles whose order decides `top_indel`) it covers.
    /// `kind` 7 is on the other chromosome, 8 unmapped (position kept),
    /// 9 a duplicate, 10/11 soft-clipped left/right.
    fn planted_read(
        chrom: &[u8],
        (start, len, carries, noise, kind): ReadSpec,
        snps: &[i64],
        indels: &[(i64, bool)],
    ) -> SamRecord {
        use gesall_formats::sam::cigar::CigarOp;
        let (mut seq, mut ops, mut run) = (Vec::new(), Vec::new(), 0u32);
        let mut p = start;
        for covered in 1..=len {
            let Some(&b) = chrom.get(p as usize - 1) else {
                break;
            };
            let snp = snps.iter().position(|&s| s == p);
            seq.push(if snp.is_some_and(|i| carries >> i & 1 == 1) {
                flip(b)
            } else {
                b
            });
            run += 1;
            let indel = indels.iter().position(|&(anchor, _)| anchor == p);
            if let Some(i) = indel.filter(|i| carries >> (8 + i) & 1 == 1 && covered < len) {
                ops.push(CigarOp::Match(std::mem::take(&mut run)));
                if indels[i].1 {
                    ops.push(CigarOp::Del(3));
                    p += 3;
                } else {
                    seq.extend(if carries >> 15 == 1 { b"GT" } else { b"CA" });
                    ops.push(CigarOp::Ins(2));
                }
            }
            p += 1;
        }
        if run > 0 {
            ops.push(CigarOp::Match(run));
        }
        for n in noise {
            let at = n % seq.len();
            seq[at] = flip(seq[at]);
        }
        match kind {
            10 => {
                seq.splice(0..0, *b"TTTT");
                ops.insert(0, CigarOp::SoftClip(4));
            }
            11 => {
                seq.extend(b"TTTTT");
                ops.push(CigarOp::SoftClip(5));
            }
            _ => {}
        }
        let mut r = read("p", start, &seq);
        r.cigar = Cigar(ops);
        r.flags.set(Flags::REVERSE, carries >> 14 & 1 == 1);
        r.flags.set(Flags::UNMAPPED, kind == 8);
        r.flags.set(Flags::DUPLICATE, kind == 9);
        if kind == 7 {
            r.ref_id = 1;
        }
        r
    }

    /// A slice as `call_range` may meet it: 30–120 planted reads over a
    /// 600-base chromosome (SNPs and indel anchors on a grid of 10, so
    /// some coincide), in coordinate order with the other chromosome's
    /// and the unmapped reads interleaved; sometimes a long-deletion
    /// read; sometimes shuffled.
    fn arb_slice() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<SamRecord>)> {
        (
            proptest::collection::vec(
                (
                    1i64..560,
                    40usize..80,
                    any::<u16>(),
                    proptest::collection::vec(0usize..40, 0..2),
                    0usize..12,
                ),
                30..120,
            ),
            proptest::collection::vec((2i64..58).prop_map(|x| x * 10), 0..5),
            proptest::collection::vec(((3i64..57).prop_map(|x| x * 10), any::<bool>()), 0..3),
            proptest::option::of((1i64..60, 200u32..450)),
            proptest::option::of(any::<u64>()),
        )
            .prop_map(|(specs, snps, indels, long_deletion, shuffle)| {
                let seqs = vec![reference(600).remove(0), reference(300).remove(0)];
                let mut reads: Vec<SamRecord> = specs
                    .into_iter()
                    .map(|spec| planted_read(&seqs[0], spec, &snps, &indels))
                    .collect();
                if let Some((start, deleted)) = long_deletion {
                    // Starts early, ends (15 bases past the deletion, one
                    // of them a mismatch) where reads that start after it
                    // have long since ended: only the running maximum of
                    // `end_pos` keeps it in a late window's sub-slice.
                    let tail = (start + 14 + deleted as i64) as usize;
                    let mut seq = seqs[0][start as usize - 1..start as usize + 14].to_vec();
                    seq.extend(&seqs[0][tail..tail + 15]);
                    seq[20] = flip(seq[20]);
                    let mut r = read("long", start, &seq);
                    r.cigar = Cigar::parse(&format!("15M{deleted}D15M")).unwrap();
                    reads.push(r);
                }
                reads.sort_by_key(|r| r.pos);
                if let Some(mut state) = shuffle {
                    // The unsorted branch (or, now and then, a
                    // permutation that is still sorted).
                    for i in (1..reads.len()).rev() {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        reads.swap(i, (state >> 33) as usize % (i + 1));
                    }
                }
                (seqs, reads)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn calls_and_windows_equal_the_parents(
            slice in arb_slice(),
            lo in 1i64..200,
            hi in 400i64..=600,
            small_tiles in any::<bool>(),
        ) {
            let (seqs, reads) = slice;
            let cfg = HaplotypeCallerConfig::default();
            let small_tile = |tile| crate::pileup::tests::SMALL_TILE.with(|t| t.set(tile));
            small_tile(small_tiles.then_some(48));
            let rv = RefView::new(&seqs);
            let ours = call_range(&reads, 0, "chr1", lo, hi, rv, &cfg);
            let parents = reference::call_range(&reads, 0, "chr1", lo, hi, rv, &cfg);
            small_tile(None);
            prop_assert_eq!(ours.windows, parents.windows);
            prop_assert_eq!(ours.variants, parents.variants);
        }

        #[test]
        fn a_sub_slice_piles_up_like_the_whole_slice(
            slice in arb_slice(),
            start in 1i64..600,
            len in 0i64..60,
        ) {
            // Every column — indel alleles in first-seen order included —
            // for windows whose edges land on, just before and just after
            // read starts and ends.
            let (_, reads) = slice;
            let filter = crate::pileup::PileupFilter::default();
            let sub = overlapping_reads(&reads, 0)(start, start + len);
            prop_assert_eq!(
                format!("{:?}", Pileup::build(sub, 0, start, start + len, &filter).columns),
                format!("{:?}", Pileup::build(&reads, 0, start, start + len, &filter).columns)
            );
        }
    }
}
