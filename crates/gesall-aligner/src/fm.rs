//! FM-index: 2-bit packed BWT + word-popcount rank, backward search,
//! sampled locate.
//!
//! Alphabet: sentinel (0), A (1), C (2), G (3), T (4). Reads containing
//! `N` never reach the index — seeding skips seeds with ambiguous bases.
//!
//! The BWT is stored as a [`PackedSeq`]: 2-bit codes, 32 symbols per
//! `u64` word. The sentinel is the one "N" of the BWT string, so the
//! packer records its row out-of-band (`n_positions()[0]`) and its
//! packed slot holds code 0 — rank queries for `A` subtract it back
//! out. `occ()` — the innermost loop of every backward-search step —
//! counts whole words with XOR-splat match bits
//! ([`count_code_in_word`]'s) from a checkpoint aligned to a word
//! boundary, summed across the walk's words once (`Slots`), instead of
//! the historical byte-at-a-time scan (which survives as
//! [`FmIndex::occ_scalar`], the reference the tests compare against).
//! A search step whose two ends share a checkpoint block ranks both in
//! one walk (`occ_pair_words`, bwa's `bwt_2occ`). The sampled suffix array is a bit per BWT row
//! (is this row sampled?) with a running rank per 64-row word, over a
//! plain vec of the sampled positions in row order: each LF step of
//! `locate_row` pays one word load and a bit test, and the one hit per
//! walk a popcount — no search.
//!
//! Backward search starts from a table: the BWT row interval of every
//! [`KMER`]-mer, so a pattern's last `KMER` bases cost one lookup and
//! only the bases before them pay LF steps.

use crate::suffix::{bwt_from_sa, suffix_array};
use gesall_formats::dna::{count_code_in_word, PackedSeq};
use gesall_telemetry::KernelStats;

const ALPHABET: usize = 5;
/// Rank checkpoint spacing (rows). A multiple of 32 so every checkpoint
/// sits on a packed-word boundary and the residual scan is whole words
/// plus at most one masked partial word.
const OCC_SAMPLE: usize = 128;
const WORDS_PER_CP: usize = OCC_SAMPLE / 32;
/// SA sampling spacing (text positions).
const SA_SAMPLE: u32 = 16;
/// Length of the k-mers whose row intervals [`FmIndex`] tables: 4^8
/// `u32` starts, 256 KiB.
const KMER: usize = 8;
const _: () = assert!(2 * KMER == u16::BITS as usize, "kmer_starts rolls a k-mer in a u16");

#[inline]
fn code(b: u8) -> Option<u8> {
    match b {
        0 => Some(0),
        b'A' | b'a' => Some(1),
        b'C' | b'c' => Some(2),
        b'G' | b'g' => Some(3),
        b'T' | b't' => Some(4),
        _ => None,
    }
}

/// 2-bit code of a base, `A < C < G < T`, either case, with no branch
/// for a random base to mispredict: bits 1–2 of the byte code A 0, C 1,
/// G 3, T 2, and bit 2, set in G and T only, swaps the last two.
/// Complementing a base flips both bits of its code. Any other byte
/// gets some code; callers rule those out first.
#[inline]
pub(crate) fn base_code(b: u8) -> usize {
    ((b >> 1 & 3) ^ (b >> 2 & 1)) as usize
}

/// The FM-index over a text (no 0 bytes; sentinel added internally).
pub struct FmIndex {
    /// BWT as a 2-bit packed sequence, length `text_len + 1`. The
    /// sentinel row is the packer's single recorded "N".
    bwt: PackedSeq,
    /// BWT row holding the sentinel (cached from `bwt.n_positions()`).
    sentinel_row: u32,
    /// `c_table[c]` = number of BWT symbols strictly smaller than `c`.
    c_table: [u64; ALPHABET + 1],
    /// Rank checkpoints: counts of each 2-bit code in
    /// `bwt[0..k*OCC_SAMPLE)`, sentinel slot counted in bucket 0 (the
    /// `A` adjustment happens at query time).
    checkpoints: Vec<[u32; 4]>,
    /// Bit `r` set ⟺ BWT row `r` holds a text position that is a
    /// multiple of [`SA_SAMPLE`]; 64 rows per word.
    sampled_rows: Vec<u64>,
    /// `sampled_rank[w]` = set bits in `sampled_rows[..w]`.
    sampled_rank: Vec<u32>,
    /// The sampled text positions, in row order.
    sampled: Vec<u32>,
    /// `kmer_start[x]` = first BWT row whose suffix is ≥ the
    /// [`KMER`]-mer coded `x` (2 bits a base, first base most
    /// significant): rows `[kmer_start[x], kmer_start[x + 1])` hold the
    /// suffixes prefixed by `x`, then any of `short_rows`.
    kmer_start: Vec<u32>,
    /// Rows of the suffixes shorter than [`KMER`] bases (the text's last
    /// `KMER − 1` positions), ascending. Such a suffix sorts after every
    /// k-mer it is not a prefix of and before every one it is, so it
    /// sits at the end of the interval it falls in.
    short_rows: Vec<u32>,
    text_len: usize,
}

impl FmIndex {
    /// Build the index. `text` must contain only `ACGT` bytes.
    pub fn build(text: &[u8]) -> FmIndex {
        FmIndex::from_sa(text, &suffix_array(text))
    }

    /// Build the index from `text`'s suffix array, for a caller that
    /// needs the array for something else too.
    pub(crate) fn from_sa(text: &[u8], sa: &[u32]) -> FmIndex {
        let bwt_ascii = bwt_from_sa(text, sa);
        debug_assert!(bwt_ascii.iter().all(|&b| code(b).is_some()));
        // The sentinel is byte 0 — not ACGT — so the packer records its
        // row as the sequence's one "N" position.
        let bwt = PackedSeq::from_ascii(&bwt_ascii);
        assert_eq!(
            bwt.n_positions().len(),
            1,
            "text must be ACGT-only (exactly one sentinel in the BWT)"
        );
        let sentinel_row = bwt.n_positions()[0];

        // C table from the packed histogram: `count_bases()` returns
        // [A, C, G, T, N] and the sentinel is the single N.
        let hist = bwt.count_bases();
        let counts = [hist[4] as u64, hist[0] as u64, hist[1] as u64, hist[2] as u64, hist[3] as u64];
        let mut c_table = [0u64; ALPHABET + 1];
        for i in 0..ALPHABET {
            c_table[i + 1] = c_table[i] + counts[i];
        }

        // Word-aligned rank checkpoints over raw packed codes.
        let m = bwt.len();
        let mut checkpoints = Vec::with_capacity(m / OCC_SAMPLE + 1);
        let mut running = [0u32; 4];
        checkpoints.push(running);
        for (w, &word) in bwt.words().iter().enumerate() {
            let n = (m - w * 32).min(32);
            let valid: u64 = if n == 32 { !0 } else { (1u64 << (n * 2)) - 1 };
            for c2 in 0..4u64 {
                running[c2 as usize] += count_code_in_word(word, c2, valid);
            }
            if (w + 1) % WORDS_PER_CP == 0 && (w + 1) * 32 <= m {
                checkpoints.push(running);
            }
        }

        // Sampled SA over the extended text: row 0 is the sentinel suffix
        // (text position = text_len); row r+1 corresponds to sa[r].
        let n = text.len() as u32;
        let mut sampled_rows = vec![0u64; m.div_ceil(64)];
        let mut sampled = Vec::with_capacity(text.len() / SA_SAMPLE as usize + 1);
        for (row, pos) in std::iter::once(n).chain(sa.iter().copied()).enumerate() {
            if pos % SA_SAMPLE == 0 {
                sampled_rows[row / 64] |= 1 << (row % 64);
                sampled.push(pos);
            }
        }
        let sampled_rank = sampled_rows
            .iter()
            .scan(0u32, |before, word| {
                let rank = *before;
                *before += word.count_ones();
                Some(rank)
            })
            .collect();

        let mut fm = FmIndex {
            bwt,
            sentinel_row,
            c_table,
            checkpoints,
            sampled_rows,
            sampled_rank,
            sampled,
            kmer_start: kmer_starts(text),
            short_rows: Vec::new(),
            text_len: text.len(),
        };
        // Row 0 is the sentinel suffix (position n); LF steps from it
        // visit positions n − 1, n − 2, ... — the short suffixes.
        let mut row = 0;
        fm.short_rows = (0..text.len().min(KMER - 1))
            .map(|_| {
                row = fm.lf_words(row).0;
                row as u32
            })
            .collect();
        fm.short_rows.sort_unstable();
        fm
    }

    /// Length of the indexed text (without sentinel).
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Heap size of the index in bytes, capacity-accurate (the
    /// per-mapper index-load cost model, Fig. 5a, shouldn't be
    /// flattered by ignoring allocator reality): packed BWT words at
    /// `capacity`, checkpoint rows at `capacity`, the sampled SA — row
    /// bitmap, per-word rank and positions — and the k-mer table, each
    /// at `capacity`.
    pub fn heap_bytes(&self) -> usize {
        self.bwt.words().len().max(self.bwt.len().div_ceil(32)) * 8
            + self.bwt.n_positions().len() * 4
            + self.checkpoints.capacity() * std::mem::size_of::<[u32; 4]>()
            + self.sampled_rows.capacity() * 8
            + (self.sampled_rank.capacity() + self.sampled.capacity()) * 4
            + (self.kmer_start.capacity() + self.short_rows.capacity()) * 4
    }

    /// Alphabet code of the BWT symbol at `row`.
    #[inline]
    fn symbol_at(&self, row: usize) -> u8 {
        if row == self.sentinel_row as usize {
            0
        } else {
            self.bwt.code_at(row) + 1
        }
    }

    /// Number of occurrences of `c` in `bwt[0..i)`, plus the whole words
    /// popcounted answering it. `c` is a nonzero
    /// alphabet code; the sentinel's rank is just "is its row before
    /// `i`" and is handled by the callers that can see it (`lf_words`).
    /// Public (hidden) so the proptests can pin it to the oracle.
    #[doc(hidden)]
    #[inline]
    pub fn occ_words(&self, c: u8, i: usize) -> (u64, u32) {
        debug_assert!((1..=4).contains(&c));
        let cp = i / OCC_SAMPLE;
        let slots = self.slots(c, cp * WORDS_PER_CP, i);
        (self.rank(c, cp, i, slots), (i.div_ceil(32) - cp * WORDS_PER_CP) as u32)
    }

    /// Both ends of a backward-search step at once: the occurrences of
    /// `c` in `bwt[0..l)` and in `bwt[0..r)`, `l ≤ r`, plus the distinct
    /// words popcounted. When `l` and `r` share a checkpoint block (bwa's
    /// `bwt_2occ`) one walk from its checkpoint answers both: the words
    /// before `l`'s serve the two ends, and `l`'s partial word is read
    /// under each end's mask. Otherwise each end walks from its own
    /// checkpoint, as [`FmIndex::occ_words`] does.
    #[inline]
    fn occ_pair_words(&self, c: u8, l: usize, r: usize) -> ((u64, u64), u32) {
        debug_assert!((1..=4).contains(&c) && l <= r);
        let cp = l / OCC_SAMPLE;
        if r / OCC_SAMPLE != cp {
            let (lc, lw) = self.occ_words(c, l);
            let (rc, rw) = self.occ_words(c, r);
            return ((lc, rc), lw + rw);
        }
        let l_w = l / 32;
        let shared = self.slots(c, cp * WORDS_PER_CP, 32 * l_w);
        let lc = self.rank(c, cp, l, shared.plus(self.slots(c, l_w, l)));
        let rc = self.rank(c, cp, r, shared.plus(self.slots(c, l_w, r)));
        // Every word `r`'s walk reads, `l`'s among them.
        ((lc, rc), (r.div_ceil(32) - cp * WORDS_PER_CP) as u32)
    }

    /// The slots holding `c` in `bwt[32·from_w .. i)`: the whole words
    /// from word `from_w` up to `i`'s, then `i`'s word below `i`.
    #[inline]
    fn slots(&self, c: u8, from_w: usize, i: usize) -> Slots {
        let (c2, words) = ((c - 1) as u64, self.bwt.words());
        let mut slots = Slots::default();
        for &word in &words[from_w..i / 32] {
            slots.add(word, c2, !0);
        }
        let rem = i % 32;
        if rem != 0 {
            slots.add(words[i / 32], c2, (1u64 << (rem * 2)) - 1);
        }
        slots
    }

    /// Occurrences of `c` in `bwt[0..i)`, given `slots`, the occurrences
    /// between checkpoint `cp` and `i`.
    #[inline]
    fn rank(&self, c: u8, cp: usize, i: usize, slots: Slots) -> u64 {
        let count = self.checkpoints[cp][(c - 1) as usize] as u64 + slots.total();
        // The sentinel slot is packed as code 0 and so was absorbed into
        // the `A` bucket; subtract it back out.
        count - u64::from(c == 1 && (self.sentinel_row as usize) < i)
    }

    /// Scalar rank reference: symbol-at-a-time scan from the checkpoint.
    /// Nothing on the search path calls it; public (hidden) for the
    /// proptests pinning [`FmIndex::occ_words`] to it.
    #[doc(hidden)]
    #[inline]
    pub fn occ_scalar(&self, c: u8, i: usize) -> u64 {
        debug_assert!((1..=4).contains(&c));
        let c2 = c - 1;
        let cp = i / OCC_SAMPLE;
        let mut count = self.checkpoints[cp][c2 as usize] as u64;
        for pos in cp * OCC_SAMPLE..i {
            count += u64::from(self.bwt.code_at(pos) == c2);
        }
        if c == 1 && (self.sentinel_row as usize) < i {
            count -= 1;
        }
        count
    }

    #[inline]
    fn lf_words(&self, row: usize) -> (usize, u32) {
        let c = self.symbol_at(row);
        if c == 0 {
            // occ(sentinel, row) is 0: there is exactly one sentinel and
            // this is its row.
            return (self.c_table[0] as usize, 0);
        }
        let (count, words) = self.occ_words(c, row);
        ((self.c_table[c as usize] + count) as usize, words)
    }

    /// Backward search: the half-open BWT row interval of suffixes
    /// prefixed by `pattern`, or `None` if the pattern is absent or holds
    /// a non-ACGT byte.
    pub fn search(&self, pattern: &[u8]) -> Option<(u64, u64)> {
        self.search_counted(pattern, &mut KernelStats::default())
    }

    /// [`FmIndex::search`], tallying the words popcounted into `stats`:
    /// the pattern's last [`KMER`] bases are one table lookup, and only
    /// the bases before them are LF steps.
    pub(crate) fn search_counted(
        &self,
        pattern: &[u8],
        stats: &mut KernelStats,
    ) -> Option<(u64, u64)> {
        #[cfg(test)]
        if reference::plain_search() {
            return reference::search_counted(self, pattern, stats);
        }
        let (head, (mut l, mut r)) = match pattern.len().checked_sub(KMER) {
            None if pattern.is_empty() => return None,
            None => (pattern, (0, self.bwt.len() as u64)),
            Some(split) => {
                let (head, tail) = pattern.split_at(split);
                (head, self.kmer_interval(tail)?)
            }
        };
        let mut words = 0u64;
        let mut valid = true;
        for &b in head.iter().rev() {
            let Some(c) = code(b).filter(|&c| c != 0) else {
                valid = false;
                break;
            };
            let ((lc, rc), w) = self.occ_pair_words(c, l as usize, r as usize);
            words += w as u64;
            l = self.c_table[c as usize] + lc;
            r = self.c_table[c as usize] + rc;
            if l >= r {
                break;
            }
        }
        stats.occ_words_popcounted += words;
        (valid && l < r).then_some((l, r))
    }

    /// The row interval of the suffixes prefixed by `kmer` ([`KMER`]
    /// bases), or `None` if it holds a non-ACGT byte or occurs nowhere.
    #[inline]
    fn kmer_interval(&self, kmer: &[u8]) -> Option<(u64, u64)> {
        let x = kmer.iter().try_fold(0usize, |x, &b| {
            code(b).filter(|&c| c != 0).map(|c| x << 2 | (c - 1) as usize)
        })?;
        let l = self.kmer_start[x];
        let next = self.kmer_start.get(x + 1).map_or(self.bwt.len() as u32, |&s| s);
        let short = self.short_rows.iter().filter(|&&row| (l..next).contains(&row)).count();
        let r = next - short as u32;
        (l < r).then_some((l as u64, r as u64))
    }

    /// Number of occurrences of `pattern` in the text.
    pub fn count(&self, pattern: &[u8]) -> u64 {
        self.search(pattern).map(|(l, r)| r - l).unwrap_or(0)
    }

    /// Text position sampled for `row`, if any: the row's bit, then its
    /// rank among the set bits as the index into `sampled`.
    #[inline]
    fn sampled_pos(&self, row: usize) -> Option<u32> {
        let word = self.sampled_rows[row / 64];
        let bit = 1u64 << (row % 64);
        (word & bit != 0).then(|| {
            let rank = self.sampled_rank[row / 64] + (word & (bit - 1)).count_ones();
            self.sampled[rank as usize]
        })
    }

    /// Text position of the suffix at BWT `row`, via LF-walking to a
    /// sampled row.
    pub fn locate_row(&self, mut row: u64, stats: &mut KernelStats) -> u64 {
        let mut steps = 0u64;
        let mut words = 0u64;
        let pos = loop {
            if let Some(pos) = self.sampled_pos(row as usize) {
                break pos;
            }
            let (next, w) = self.lf_words(row as usize);
            row = next as u64;
            words += w as u64;
            steps += 1;
        };
        stats.occ_words_popcounted += words;
        let n = self.text_len as u64 + 1;
        (pos as u64 + steps) % n
    }

    /// Feed every text position where `pattern` occurs to `hit`, in BWT
    /// row order (not sorted), unless there are more than `max_hits` of
    /// them — the repeat-region bail-out, which calls `hit` for none and
    /// returns `None`.
    pub fn locate_each(
        &self,
        pattern: &[u8],
        max_hits: usize,
        stats: &mut KernelStats,
        hit: impl FnMut(u64),
    ) -> Option<()> {
        let (l, r) = self.search_counted(pattern, stats)?;
        if (r - l) as usize > max_hits {
            return None;
        }
        self.locate_rows(l..r, stats, hit);
        Some(())
    }

    /// Feed the text position of every BWT row in `rows` to `hit`, in
    /// row order, counting the rows walked.
    pub(crate) fn locate_rows(
        &self,
        rows: std::ops::Range<u64>,
        stats: &mut KernelStats,
        mut hit: impl FnMut(u64),
    ) {
        stats.seed_rows_located += rows.end - rows.start;
        rows.for_each(|row| hit(self.locate_row(row, stats)));
    }

    /// All text positions where `pattern` occurs, ascending, capped at
    /// `max_hits` as in [`FmIndex::locate_each`].
    pub fn locate(&self, pattern: &[u8], max_hits: usize) -> Option<Vec<u64>> {
        let mut hits = Vec::new();
        self.locate_each(pattern, max_hits, &mut KernelStats::default(), |pos| hits.push(pos))?;
        hits.sort_unstable();
        Some(hits)
    }
}

/// A rank walk's count of one code over the few packed words it reads,
/// added across the words once. Each word's match bits — one per 2-bit
/// slot holding the code, as [`count_code_in_word`] forms them — fold
/// into 4-bit fields, at most 2 a field a word, so up to seven words sum
/// without a carry between fields (a walk, shared prefix included,
/// reads at most [`WORDS_PER_CP`]); [`Slots::total`] then adds the fields
/// once, where a popcount per word would add them for each.
#[derive(Clone, Copy, Default)]
struct Slots(u64);

const _: () = assert!(WORDS_PER_CP <= 7, "Slots' 4-bit fields hold seven words");

impl Slots {
    #[inline]
    fn add(&mut self, word: u64, c2: u64, valid: u64) {
        const SLOT_LOW: u64 = 0x5555_5555_5555_5555;
        const PAIRS: u64 = 0x3333_3333_3333_3333;
        let x = word ^ (c2 * SLOT_LOW);
        let bits = !(x | x >> 1) & SLOT_LOW & valid;
        self.0 += (bits & PAIRS) + (bits >> 2 & PAIRS);
    }

    #[inline]
    fn plus(self, other: Slots) -> Slots {
        Slots(self.0 + other.0)
    }

    #[inline]
    fn total(self) -> u64 {
        const NIBBLES: u64 = 0x0f0f_0f0f_0f0f_0f0f;
        ((self.0 & NIBBLES) + (self.0 >> 4 & NIBBLES)).wrapping_mul(0x0101_0101_0101_0101) >> 56
    }
}

/// `kmer_start` of [`FmIndex`] for `text`, from one pass over the text:
/// each [`KMER`]-mer's count, then a running sum from row 1 (row 0 is
/// the sentinel suffix). A suffix `s` shorter than `KMER` sorts before
/// the k-mer `x` exactly when `s` ≤ `x`'s first `|s|` bases, so it
/// shifts the start of every k-mer from `s` padded with `A`s on.
fn kmer_starts(text: &[u8]) -> Vec<u32> {
    let mut counts = vec![0u32; 1 << (2 * KMER)];
    let n = text.len();
    let head = n.min(KMER - 1);
    let mut x = text[..head].iter().fold(0u16, |x, &b| x << 2 | base_code(b) as u16);
    for &b in &text[head..] {
        x = x << 2 | base_code(b) as u16;
        counts[x as usize] += 1;
    }
    let mut short_from: Vec<usize> = (1..=head)
        .map(|len| {
            let s = text[n - len..].iter().fold(0usize, |x, &b| x << 2 | base_code(b));
            s << (2 * (KMER - len))
        })
        .collect();
    short_from.sort_unstable();
    let mut shorts = short_from.into_iter().peekable();
    let mut before = 1u32;
    for (x, slot) in counts.iter_mut().enumerate() {
        while shorts.next_if_eq(&x).is_some() {
            before += 1;
        }
        let count = *slot;
        *slot = before;
        before += count;
    }
    counts
}

/// The parent commit's sampled suffix array, verbatim: `(row, text
/// position)` pairs sorted by row, probed by a branchless binary search.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static PLAIN_SEARCH: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn plain_search() -> bool {
        PLAIN_SEARCH.with(|u| u.get())
    }

    /// Run `f` with this thread's [`FmIndex::search_counted`] calls
    /// routed to the parent's search, which starts from no table.
    pub(crate) fn with_plain_search<R>(f: impl FnOnce() -> R) -> R {
        PLAIN_SEARCH.with(|u| u.set(true));
        let r = f();
        PLAIN_SEARCH.with(|u| u.set(false));
        r
    }

    /// The parent's backward search: an LF step for every base.
    pub(crate) fn search_counted(
        fm: &FmIndex,
        pattern: &[u8],
        stats: &mut KernelStats,
    ) -> Option<(u64, u64)> {
        if pattern.is_empty() {
            return None;
        }
        let mut l = 0u64;
        let mut r = fm.bwt.len() as u64;
        let mut words = 0u64;
        let mut valid = true;
        for &b in pattern.iter().rev() {
            let Some(c) = code(b).filter(|&c| c != 0) else {
                valid = false;
                break;
            };
            let (lc, lw) = fm.occ_words(c, l as usize);
            let (rc, rw) = fm.occ_words(c, r as usize);
            words += (lw + rw) as u64;
            l = fm.c_table[c as usize] + lc;
            r = fm.c_table[c as usize] + rc;
            if l >= r {
                break;
            }
        }
        stats.occ_words_popcounted += words;
        (valid && l < r).then_some((l, r))
    }

    pub(crate) fn build_sampled(text: &[u8]) -> Vec<(u32, u32)> {
        let sa = crate::suffix::reference::suffix_array(text);
        let mut sampled = Vec::new();
        let n = text.len() as u32;
        if n.is_multiple_of(SA_SAMPLE) {
            sampled.push((0u32, n));
        }
        for (r, &pos) in sa.iter().enumerate() {
            if pos % SA_SAMPLE == 0 {
                sampled.push((r as u32 + 1, pos));
            }
        }
        sampled
    }

    pub(crate) fn sampled_pos(sampled: &[(u32, u32)], row: u32) -> Option<u32> {
        if sampled.is_empty() {
            return None;
        }
        let mut lo = 0usize;
        let mut size = sampled.len();
        while size > 1 {
            let half = size / 2;
            let mid = lo + half;
            lo = if sampled[mid].0 <= row { mid } else { lo };
            size -= half;
        }
        let (r, pos) = sampled[lo];
        (r == row).then_some(pos)
    }

    /// Every BWT row of `fm` (built over `text`) answers `sampled_pos` as
    /// the parent's structure does — and so every `locate` is the parent's.
    pub(crate) fn assert_same_sampled_rows(fm: &FmIndex, text: &[u8]) {
        let parent = build_sampled(text);
        assert_eq!(fm.sampled.len(), parent.len());
        for row in 0..=text.len() {
            assert_eq!(
                fm.sampled_pos(row),
                sampled_pos(&parent, row as u32),
                "row {row} of {}",
                text.len() + 1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_find(text: &[u8], pat: &[u8]) -> Vec<u64> {
        if pat.is_empty() || pat.len() > text.len() {
            return Vec::new();
        }
        (0..=text.len() - pat.len())
            .filter(|&i| &text[i..i + pat.len()] == pat)
            .map(|i| i as u64)
            .collect()
    }

    fn pseudo_dna(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(x >> 33) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn count_matches_naive() {
        let text = pseudo_dna(5000, 3);
        let fm = FmIndex::build(&text);
        for (start, len) in [(0usize, 12usize), (100, 20), (4988, 12), (37, 8), (2500, 15)] {
            let pat = &text[start..start + len];
            assert_eq!(fm.count(pat), naive_find(&text, pat).len() as u64);
        }
        assert_eq!(fm.count(b"ACGTACGTACGTACGTACGTACGTACGTAC"), {
            naive_find(&text, b"ACGTACGTACGTACGTACGTACGTACGTAC").len() as u64
        });
    }

    #[test]
    fn locate_matches_naive() {
        let text = pseudo_dna(4000, 17);
        let fm = FmIndex::build(&text);
        for (start, len) in [(0usize, 14usize), (1234, 16), (3986, 14), (50, 10)] {
            let pat = &text[start..start + len];
            let got = fm.locate(pat, 1000).unwrap();
            assert_eq!(got, naive_find(&text, pat), "pattern at {start}+{len}");
        }
    }

    #[test]
    fn locate_in_repetitive_text() {
        // Tandem repeat: every offset of the unit matches many times.
        let text = b"ACGGT".repeat(300);
        let fm = FmIndex::build(&text);
        let pat = b"ACGGTACGGT";
        let naive = naive_find(&text, pat);
        assert!(naive.len() > 200);
        let got = fm.locate(pat, 10_000).unwrap();
        assert_eq!(got, naive);
        // Bail-out on too many hits.
        assert!(fm.locate(pat, 10).is_none());
    }

    #[test]
    fn absent_and_invalid_patterns() {
        let text = pseudo_dna(1000, 5);
        let fm = FmIndex::build(&text);
        assert_eq!(fm.count(b""), 0);
        assert_eq!(fm.count(b"ACGTN"), 0); // N never matches
        // A pattern guaranteed absent: longer than text.
        let long = pseudo_dna(2000, 6);
        assert_eq!(fm.count(&long), 0);
    }

    #[test]
    fn single_character_counts() {
        let text = b"AACCCGGGGT".to_vec();
        let fm = FmIndex::build(&text);
        assert_eq!(fm.count(b"A"), 2);
        assert_eq!(fm.count(b"C"), 3);
        assert_eq!(fm.count(b"G"), 4);
        assert_eq!(fm.count(b"T"), 1);
        assert_eq!(fm.locate(b"T", 10).unwrap(), vec![9]);
    }

    #[test]
    fn full_text_is_found_at_origin() {
        let text = pseudo_dna(500, 11);
        let fm = FmIndex::build(&text);
        assert_eq!(fm.locate(&text, 5).unwrap(), vec![0]);
    }

    #[test]
    fn packed_rank_matches_scalar_oracle() {
        // Deterministic sweep: every code at checkpoint/word-boundary
        // offsets plus a scatter of interior positions. (The randomized
        // version lives in tests/proptest_aligner.rs.)
        let text = pseudo_dna(3000, 23);
        let fm = FmIndex::build(&text);
        let m = text.len() + 1;
        let mut probes: Vec<usize> = vec![0, 1, 31, 32, 33, 127, 128, 129, m - 1, m];
        probes.extend((0..200).map(|k| (k * 7919) % (m + 1)));
        for c in 1..=4u8 {
            for &i in &probes {
                let (packed, _) = fm.occ_words(c, i);
                assert_eq!(packed, fm.occ_scalar(c, i), "occ({c}, {i})");
            }
        }
    }

    #[test]
    fn search_matches_backward_search_over_scalar_rank() {
        // The whole backward search, not just single rank queries: the
        // interval `search` returns equals the textbook recurrence run
        // on the symbol-at-a-time reference rank.
        let text = pseudo_dna(2000, 41);
        let fm = FmIndex::build(&text);
        let reference = |pat: &[u8]| -> Option<(u64, u64)> {
            let (mut l, mut r) = (0u64, fm.bwt.len() as u64);
            for &b in pat.iter().rev() {
                let c = code(b).unwrap();
                l = fm.c_table[c as usize] + fm.occ_scalar(c, l as usize);
                r = fm.c_table[c as usize] + fm.occ_scalar(c, r as usize);
                if l >= r {
                    return None;
                }
            }
            Some((l, r))
        };
        for (start, len) in [(0usize, 12usize), (700, 18), (1988, 12), (5, 9)] {
            let pat = &text[start..start + len];
            assert!(fm.search(pat).is_some());
            assert_eq!(fm.search(pat), reference(pat));
        }
        let absent = b"ACGTACGTACGTACGTACGTACGTACGTACGTACGT";
        assert_eq!(fm.search(absent), reference(absent));
    }

    #[test]
    fn rank_kernel_reports_words_popcounted() {
        let text = pseudo_dna(4000, 29);
        let fm = FmIndex::build(&text);
        // Each LF step ranks both ends. Ends in one checkpoint block share
        // a walk: the words `r`'s rank reads, `l`'s being a prefix of
        // them. Ends in two blocks each walk from their own checkpoint.
        // Returns the words so counted, the words two separate ranks
        // read, and the steps whose ends shared a block or did not.
        let derive = |pat: &[u8]| {
            let (head, start) = match pat.len().checked_sub(KMER) {
                Some(split) => (&pat[..split], fm.kmer_interval(&pat[split..]).unwrap()),
                None => (pat, (0, fm.bwt.len() as u64)),
            };
            let (mut l, mut r) = (start.0 as usize, start.1 as usize);
            let (mut words, mut unpaired, mut shared, mut apart) = (0, 0, 0, 0);
            for &b in head.iter().rev() {
                let c = code(b).unwrap();
                let (lc, lw) = fm.occ_words(c, l);
                let (rc, rw) = fm.occ_words(c, r);
                if l / OCC_SAMPLE == r / OCC_SAMPLE {
                    (words, shared) = (words + rw as u64, shared + 1);
                } else {
                    (words, apart) = (words + (lw + rw) as u64, apart + 1);
                }
                unpaired += (lw + rw) as u64;
                l = (fm.c_table[c as usize] + lc) as usize;
                r = (fm.c_table[c as usize] + rc) as usize;
            }
            (words, unpaired, shared, apart)
        };
        // 20 bases: the last KMER are a table lookup, and an 8-mer's
        // interval in 4 001 rows is a row or two, so all 12 steps share a
        // block (half the words: both ends sit in one word). 6 bases: no
        // table, so the first steps' intervals span blocks.
        for (pat, pinned) in [(&text[1000..1020], (29, 58, 12, 0)), (&text[1000..1006], (17, 22, 3, 3))] {
            let mut stats = KernelStats::default();
            let (l, r) = fm.search_counted(pat, &mut stats).unwrap();
            assert!(r > l);
            let (words, ..) = derive(pat);
            assert_eq!(derive(pat), pinned, "words, unpaired words, shared and apart steps");
            assert_eq!(stats, KernelStats { occ_words_popcounted: words, ..KernelStats::default() });
            // The parent's search stepped every base, unpaired.
            let mut plain = KernelStats::default();
            assert_eq!(reference::search_counted(&fm, pat, &mut plain), Some((l, r)));
            assert!(plain.occ_words_popcounted > words);
        }
    }

    /// The paired rank answers both ends as two [`FmIndex::occ_words`]
    /// calls do, and reads `r`'s words alone when the ends share a block.
    fn assert_pair_rank(fm: &FmIndex, c: u8, l: usize, r: usize) {
        let (lc, lw) = fm.occ_words(c, l);
        let (rc, rw) = fm.occ_words(c, r);
        let words = if l / OCC_SAMPLE == r / OCC_SAMPLE { rw } else { lw + rw };
        assert_eq!(
            fm.occ_pair_words(c, l, r),
            ((lc, rc), words),
            "occ({c}) at {l} and {r} of {} rows, sentinel at {}",
            fm.bwt.len(),
            fm.sentinel_row
        );
    }

    #[test]
    fn paired_rank_is_two_ranks_at_every_pair_of_rows() {
        // Every code at every l ≤ r (l == r included), so every word and
        // block boundary, the sentinel's row and the text's end: row
        // counts of one, inside the first word, one short of a word and
        // of a block, past one block, and past two.
        for n in [0usize, 1, 30, 31, 127, 130, 300] {
            let fm = FmIndex::build(&pseudo_dna(n, n as u64 + 7));
            let m = fm.bwt.len();
            for c in 1..=4 {
                for r in 0..=m {
                    for l in 0..=r {
                        assert_pair_rank(&fm, c, l, r);
                    }
                }
            }
        }
    }

    /// The table search answers `pat` as the parent's plain search does.
    fn assert_plain_search(fm: &FmIndex, pat: &[u8]) {
        assert_eq!(
            fm.search(pat),
            reference::search_counted(fm, pat, &mut KernelStats::default()),
            "pattern {:?}",
            String::from_utf8_lossy(pat)
        );
    }

    fn kmer_of(x: usize) -> Vec<u8> {
        (0..KMER).rev().map(|i| b"ACGT"[x >> (2 * i) & 3]).collect()
    }

    #[test]
    fn table_search_is_the_plain_search_on_every_kmer() {
        // Two chromosomes concatenated, as the reference index builds
        // them: every KMER-mer code, present or not, and every window of
        // the text — the junction's and the text end's included. Texts
        // shorter than KMER hold short suffixes only.
        for (len1, len2) in [(0usize, 0usize), (1, 2), (4, 3), (8, 0), (9, 6), (500, 300)] {
            let text = [pseudo_dna(len1, 3), pseudo_dna(len2, 4)].concat();
            let fm = FmIndex::build(&text);
            assert_eq!(fm.short_rows.len(), text.len().min(KMER - 1));
            for x in 0..1usize << (2 * KMER) {
                assert_plain_search(&fm, &kmer_of(x));
            }
            for start in 0..text.len() {
                for len in [1, KMER - 1, KMER, KMER + 1, 19] {
                    assert_plain_search(&fm, &text[start..(start + len).min(text.len())]);
                }
            }
        }
        // A repeat: every k-mer's interval is wide, and the short
        // suffixes sit inside the intervals of k-mers they prefix.
        let repeat = b"ACGGT".repeat(60);
        let fm = FmIndex::build(&repeat);
        for x in 0..1usize << (2 * KMER) {
            assert_plain_search(&fm, &kmer_of(x));
        }
    }

    #[test]
    fn sampled_rows_answer_as_the_parent_at_every_word_shape() {
        // n % 32 == 0 ⟺ the sentinel row (row 0) is itself sampled;
        // (n + 1) % 64 == 0 ⟺ the bitmap's last word is full.
        for n in [1usize, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 2047, 2048, 4096] {
            let text = pseudo_dna(n, n as u64);
            reference::assert_same_sampled_rows(&FmIndex::build(&text), &text);
        }
        let repeat = b"ACGGT".repeat(300);
        reference::assert_same_sampled_rows(&FmIndex::build(&repeat), &repeat);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sampled_rows_answer_as_the_parent(
            blocks in 0usize..10,
            extra in prop_oneof![Just(0usize), Just(32usize), Just(63usize), 1usize..64],
            seed in 0u64..u64::MAX,
            unit in 0usize..40,
        ) {
            // Length a multiple of 64, of 32 only, one short of 64 (all
            // bitmap words full), or none of these; random text, or —
            // about one case in four — a repeat of period `unit`.
            let n = (blocks * 64 + extra).max(1);
            let mut text = pseudo_dna(n, seed);
            if (1..12).contains(&unit) {
                text = text[..unit.min(n)].iter().copied().cycle().take(n).collect();
            }
            reference::assert_same_sampled_rows(&FmIndex::build(&text), &text);
        }

        #[test]
        fn paired_rank_is_two_ranks(
            n in prop_oneof![0usize..300, 300usize..5_000],
            seed in any::<u64>(),
            probes in proptest::collection::vec((any::<u64>(), 0usize..4, 0usize..400), 1..64),
        ) {
            // `l` one below, at, or one or two above a random row, a word
            // or block boundary, the sentinel's row or the text end; `r`
            // 0–399 rows past it, or the text end.
            let fm = FmIndex::build(&pseudo_dna(n, seed));
            let m = fm.bwt.len();
            for (r, kind, delta) in probes {
                let at = match kind {
                    0 => r as usize % (m + 1),
                    1 => (r as usize % (m / 32 + 1)) * 32,
                    2 => fm.sentinel_row as usize,
                    _ => m,
                };
                let l = (at + (r >> 62) as usize).saturating_sub(1).min(m);
                let end = if r >> 61 & 1 == 1 { m } else { (l + delta).min(m) };
                for c in 1..=4 {
                    assert_pair_rank(&fm, c, l, end);
                }
            }
        }

        #[test]
        fn table_search_is_the_plain_search(
            len1 in prop_oneof![Just(0usize), 1usize..12, 0usize..400],
            len2 in prop_oneof![Just(0usize), 1usize..12, 0usize..400],
            seed in 0u64..u64::MAX,
            unit in 0usize..40,
            patterns in proptest::collection::vec((0usize..5, 0usize..31, any::<u64>()), 1..48),
        ) {
            // Two chromosomes of random text or — about one case in four
            // — a repeat of period `unit`. Patterns of length 0–30: random
            // bytes from an alphabet with lower case, N and the sentinel's
            // byte; windows of the text, some lower-cased; windows across
            // the junction; windows ending at the text's end; and random
            // bases ending in the k-mer whose interval holds a short
            // suffix's row (the one just below the suffix padded with
            // `A`s) or in the padded suffix itself.
            let mut text = [pseudo_dna(len1, seed), pseudo_dna(len2, !seed)].concat();
            let n = text.len();
            if (1..12).contains(&unit) && n > 0 {
                text = text[..unit.min(n)].iter().copied().cycle().take(n).collect();
            }
            let fm = FmIndex::build(&text);
            for (kind, len, r) in patterns {
                let window = |start: usize| text[start.min(n)..(start + len).min(n)].to_vec();
                let pat = match kind {
                    0 => (0..len)
                        .map(|i| b"ACGTacgtNn\0X"[(r >> (i % 16 * 4)) as usize % 12])
                        .collect(),
                    1 => {
                        let mut pat = window(r as usize % (n + 1));
                        if r >> 63 == 1 {
                            pat.make_ascii_lowercase();
                        }
                        pat
                    }
                    2 => window(len1.saturating_sub(r as usize % (len + 1))),
                    3 => window(n.saturating_sub(len)),
                    _ => {
                        let l = (r as usize % KMER).min(n);
                        let short = text[n - l..].iter().fold(0usize, |x, &b| x << 2 | base_code(b));
                        let padded = short << (2 * (KMER - l));
                        let mut pat: Vec<u8> =
                            (0..len % 12).map(|i| b"ACGT"[(r >> (8 + 2 * i)) as usize & 3]).collect();
                        pat.extend(kmer_of(padded.saturating_sub((r >> 40) as usize & 1)));
                        pat
                    }
                };
                assert_plain_search(&fm, &pat);
            }
        }
    }

    #[test]
    fn heap_bytes_reflects_packing() {
        let text = pseudo_dna(10_000, 1);
        let fm = FmIndex::build(&text);
        let bytes = fm.heap_bytes();
        // The k-mer table is 4^KMER starts — 256 KiB whatever the text —
        // plus a row per short suffix, and it is counted ...
        let table = (1 << (2 * KMER)) * 4 + (KMER - 1) * 4;
        assert_eq!(table, 256 * 1024 + 28);
        assert!(bytes > table, "table not counted: {bytes}");
        let rest = bytes - table;
        // ... and the rest — 2-bit packing plus word-aligned checkpoints
        // plus the sampled SA (bitmap, rank, positions) — lands well
        // under one byte per text base ...
        assert!(rest < 10_000, "packed index not smaller than text? {rest}");
        // ... but every part is counted: 2 bits per row of BWT, 1 of
        // checkpoints, 1.5 of sampled-row bitmap + rank, 2 of positions.
        assert!(rest >= 10_000 * 13 / 16, "index implausibly small: {rest}");
    }
}
