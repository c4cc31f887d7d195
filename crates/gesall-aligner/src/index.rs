//! The reference index: concatenated genome + FM-index + a uniqueness
//! bit per position + coordinate translation. This is the large
//! in-memory object every alignment mapper must load (the per-mapper
//! cost that makes small logical partitions expensive in the paper's
//! Table 4 / Fig. 5a).

use crate::fm::{base_code, FmIndex};
use crate::suffix::suffix_array;
use gesall_formats::sam::header::{ReferenceSeq, SamHeader};

/// Length of the k-mers the uniqueness bit describes: the default
/// [`SingleConfig::seed_len`](crate::single::SingleConfig::seed_len).
pub(crate) const UNIQUE_K: usize = 19;

/// An immutable, shareable alignment index over a set of chromosomes.
pub struct ReferenceIndex {
    names: Vec<String>,
    /// Start offset of each chromosome within `text`.
    offsets: Vec<usize>,
    lens: Vec<usize>,
    text: Vec<u8>,
    fm: FmIndex,
    /// Bit `q` set ⟺ the [`UNIQUE_K`]-mer at text position `q` occurs
    /// exactly once in `text` and its reverse complement not at all
    /// ([`unique_kmers`]); 64 positions per word.
    unique: Vec<u64>,
}

impl ReferenceIndex {
    /// Build from (name, sequence) pairs. Sequences must be `ACGT`-only.
    pub fn build(chromosomes: &[(String, Vec<u8>)]) -> ReferenceIndex {
        let mut names = Vec::with_capacity(chromosomes.len());
        let mut offsets = Vec::with_capacity(chromosomes.len());
        let mut lens = Vec::with_capacity(chromosomes.len());
        let mut text = Vec::new();
        for (name, seq) in chromosomes {
            names.push(name.clone());
            offsets.push(text.len());
            lens.push(seq.len());
            text.extend_from_slice(seq);
        }
        let sa = suffix_array(&text);
        let fm = FmIndex::from_sa(&text, &sa);
        let unique = unique_kmers(&text, &sa);
        ReferenceIndex {
            names,
            offsets,
            lens,
            text,
            fm,
            unique,
        }
    }

    /// Is `kmer` the [`UNIQUE_K`]-mer at text position `q`, and is that
    /// position's uniqueness bit set? Then `kmer` occurs only at `q`, and
    /// its reverse complement nowhere.
    #[inline]
    pub(crate) fn is_unique_kmer_at(&self, q: i64, kmer: &[u8]) -> bool {
        debug_assert_eq!(kmer.len(), UNIQUE_K);
        // A set bit has its whole k-mer inside the text.
        usize::try_from(q).is_ok_and(|q| {
            self.unique.get(q / 64).is_some_and(|w| w >> (q % 64) & 1 == 1)
                && self.text[q..q + UNIQUE_K] == *kmer
        })
    }

    /// The FM-index for seed search.
    pub fn fm(&self) -> &FmIndex {
        &self.fm
    }

    /// Total concatenated length.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The concatenated text the FM-index was built over.
    pub(crate) fn text(&self) -> &[u8] {
        &self.text
    }

    /// Number of chromosomes.
    pub fn n_chromosomes(&self) -> usize {
        self.names.len()
    }

    /// Chromosome name by id.
    pub fn name(&self, chrom_id: usize) -> &str {
        &self.names[chrom_id]
    }

    /// Approximate resident size — models the "load the reference genome
    /// index into memory" cost from §4.2.
    pub fn heap_bytes(&self) -> usize {
        self.text.len() + self.fm.heap_bytes() + self.unique.capacity() * 8
    }

    /// SAM header describing this reference dictionary.
    pub fn sam_header(&self) -> SamHeader {
        SamHeader::new(
            self.names
                .iter()
                .zip(&self.lens)
                .map(|(name, &len)| ReferenceSeq {
                    name: name.clone(),
                    len: len as u64,
                })
                .collect(),
        )
    }

    /// Translate a global (concatenated) 0-based position to
    /// (chromosome id, 0-based local position).
    pub fn global_to_local(&self, gpos: usize) -> Option<(usize, usize)> {
        if gpos >= self.text.len() {
            return None;
        }
        // offsets is sorted; find the chromosome containing gpos.
        let idx = match self.offsets.binary_search(&gpos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Some((idx, gpos - self.offsets[idx]))
    }

    /// The full sequence of one chromosome.
    pub fn chromosome_seq(&self, chrom_id: usize) -> &[u8] {
        let start = self.offsets[chrom_id];
        &self.text[start..start + self.lens[chrom_id]]
    }

    /// A reference window `[start, end)` in global coordinates, **clamped
    /// to the chromosome containing `anchor`** — alignments must never
    /// cross chromosome boundaries (CleanSam would drop them anyway).
    /// Returns (window slice, global start of the slice, chromosome id).
    pub fn window_within_chromosome(
        &self,
        anchor: usize,
        start: i64,
        end: i64,
    ) -> Option<(&[u8], usize, usize)> {
        let (chrom, _) = self.global_to_local(anchor)?;
        let c_start = self.offsets[chrom] as i64;
        let c_end = c_start + self.lens[chrom] as i64;
        let s = start.max(c_start) as usize;
        let e = end.min(c_end) as usize;
        if s >= e {
            return None;
        }
        Some((&self.text[s..e], s, chrom))
    }
}

/// The uniqueness bit of every position of `text`, from its suffix array
/// `sa`: bit `q` is set when the [`UNIQUE_K`]-mer at `q` occurs exactly
/// once in `text` and its reverse complement does not occur at all. Seed
/// searches whose answer this settles are skipped (DESIGN.md §13,
/// *Known-answer seeding*), which holds on these premises:
/// - it describes `UNIQUE_K`-mers, so a seed of any other length must
///   not consult it;
/// - it is built over the concatenated text the FM-index indexes, so a
///   k-mer spanning a chromosome join counts exactly as the search
///   counts it;
/// - the text is upper-case `ACGT`, as the FM build asserts up to case;
///   any other text gets no bit set, and nothing is answered from it.
///
/// Each k-mer is a 2-bit code, first base most significant, so codes
/// order as their k-mers do and the codes of the positions holding a
/// whole k-mer, taken in SA order, ascend. A k-mer occurs exactly once
/// when neither SA neighbour shares its code; its reverse complement is
/// absent when that code is not in the ascending list, which one merge
/// against the sorted reverse-complement codes of those k-mers decides.
fn unique_kmers(text: &[u8], sa: &[u32]) -> Vec<u64> {
    unique_kmers_with(text, sa, sort_by_code)
}

/// `(reverse-complement code, position)` pairs of once-occurring k-mers.
type CodedPositions = Vec<(u64, u32)>;

/// [`unique_kmers`], sorting the coded positions by code with `sort`.
fn unique_kmers_with(text: &[u8], sa: &[u32], sort: fn(CodedPositions) -> CodedPositions) -> Vec<u64> {
    let n = text.len();
    let mut bits = vec![0u64; n.div_ceil(64)];
    if n < UNIQUE_K || !text.iter().all(|b| matches!(b, b'A' | b'C' | b'G' | b'T')) {
        return bits;
    }
    let mask = (1u64 << (2 * UNIQUE_K)) - 1;
    let mut code = 0u64;
    let fwd: Vec<u64> = text
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| {
            code = (code << 2 | base_code(b) as u64) & mask;
            (i + 1 >= UNIQUE_K).then_some(code)
        })
        .collect();
    // The positions holding a whole k-mer in SA order, and their codes.
    let rows: Vec<u32> = sa.iter().copied().filter(|&q| (q as usize) < fwd.len()).collect();
    let codes: Vec<u64> = rows.iter().map(|&q| fwd[q as usize]).collect();
    debug_assert!(codes.is_sorted());
    let once: CodedPositions = (0..codes.len())
        .filter(|&i| {
            (i == 0 || codes[i - 1] != codes[i]) && codes.get(i + 1) != Some(&codes[i])
        })
        .map(|i| (reverse_complement_code(codes[i]), rows[i]))
        .collect();
    // Free the text-order codes and the rows before the radix sort's
    // second buffer is allocated.
    drop((fwd, rows));
    let once = sort(once);
    let mut codes = codes.into_iter().peekable();
    for (rc, q) in once {
        while codes.next_if(|&c| c < rc).is_some() {}
        if codes.peek() != Some(&rc) {
            bits[q as usize / 64] |= 1 << (q % 64);
        }
    }
    bits
}

/// `pairs` in ascending code order, in linear time: an LSD radix sort,
/// three stable passes over 13-bit digits of the 38-bit codes. The codes
/// are distinct (each is a once-occurring k-mer's reverse complement),
/// so this is the order any sort by code gives.
fn sort_by_code(mut pairs: CodedPositions) -> CodedPositions {
    const BITS: usize = 13;
    const _: () = assert!(3 * BITS >= 2 * UNIQUE_K);
    let mut sorted = vec![(0, 0); pairs.len()];
    let mut starts = vec![0usize; 1 << BITS];
    for pass in 0..3 {
        let digit = |code: u64| (code >> (pass * BITS)) as usize & ((1 << BITS) - 1);
        starts.fill(0);
        for &(code, _) in &pairs {
            starts[digit(code)] += 1;
        }
        let mut before = 0;
        for start in &mut starts {
            (*start, before) = (before, before + *start);
        }
        for &pair in &pairs {
            let slot = &mut starts[digit(pair.0)];
            sorted[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(&mut pairs, &mut sorted);
    }
    pairs
}

/// The code of the reverse complement of the [`UNIQUE_K`]-mer coded
/// `code`: complement every base, reverse the order of the 2-bit groups.
#[inline]
fn reverse_complement_code(code: u64) -> u64 {
    const LOW: u64 = 0x5555_5555_5555_5555;
    // Reversing the word reverses the groups and the two bits inside
    // each; swap those back. The complemented unused high bits land low
    // and are shifted out.
    let r = (!code).reverse_bits();
    ((r >> 1 & LOW) | (r & LOW) << 1) >> (64 - 2 * UNIQUE_K)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> ReferenceIndex {
        ReferenceIndex::build(&[
            ("chr1".into(), b"ACGTACGTACGTACGTACGT".to_vec()),
            ("chr2".into(), b"GGGGCCCCGGGGCCCC".to_vec()),
        ])
    }

    #[test]
    fn coordinate_translation_roundtrip() {
        let idx = index();
        assert_eq!(idx.global_to_local(0), Some((0, 0)));
        assert_eq!(idx.global_to_local(19), Some((0, 19)));
        assert_eq!(idx.global_to_local(20), Some((1, 0)));
        assert_eq!(idx.global_to_local(35), Some((1, 15)));
        assert_eq!(idx.global_to_local(36), None);
        for g in 0..36 {
            let (c, p) = idx.global_to_local(g).unwrap();
            assert_eq!(idx.offsets[c] + p, g);
        }
    }

    #[test]
    fn window_clamps_to_chromosome() {
        let idx = index();
        // Anchor on chr2 near its start; requested window leaks into chr1.
        let (w, gstart, chrom) = idx.window_within_chromosome(22, 15, 30).unwrap();
        assert_eq!(chrom, 1);
        assert_eq!(gstart, 20);
        assert_eq!(w, &b"GGGGCCCCGG"[..]);
        // Window past chromosome end clamps too.
        let (w2, _, _) = idx.window_within_chromosome(34, 30, 99).unwrap();
        assert_eq!(w2.len(), 6);
        // Fully out-of-chromosome window is None.
        assert!(idx.window_within_chromosome(5, 20, 30).is_none());
    }

    #[test]
    fn header_and_names() {
        let idx = index();
        let h = idx.sam_header();
        assert_eq!(h.references.len(), 2);
        assert_eq!(h.references[1].name, "chr2");
        assert_eq!(h.references[1].len, 16);
        assert_eq!(idx.name(0), "chr1");
    }

    fn pseudo_text(len: usize, seed: u64, alphabet: &[u8]) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                alphabet[(x >> 33) as usize % alphabet.len()]
            })
            .collect()
    }

    /// The bit by brute force: every k-mer of the text counted in a map,
    /// and each position's k-mer and its reverse complement looked up.
    fn brute_force_unique(text: &[u8]) -> Vec<bool> {
        use std::collections::HashMap;
        let mut count: HashMap<&[u8], usize> = HashMap::new();
        for kmer in text.windows(UNIQUE_K) {
            *count.entry(kmer).or_default() += 1;
        }
        (0..text.len())
            .map(|q| {
                text.get(q..q + UNIQUE_K).is_some_and(|kmer| {
                    let rc = gesall_formats::dna::reverse_complement(kmer);
                    count[kmer] == 1 && !count.contains_key(rc.as_slice())
                })
            })
            .collect()
    }

    fn assert_bit_is_the_brute_force_count(chromosomes: &[Vec<u8>]) {
        let named: Vec<(String, Vec<u8>)> = chromosomes
            .iter()
            .enumerate()
            .map(|(i, seq)| (format!("chr{i}"), seq.clone()))
            .collect();
        let idx = ReferenceIndex::build(&named);
        let text = chromosomes.concat();
        let expected = brute_force_unique(&text);
        for (q, &unique) in expected.iter().enumerate() {
            assert_eq!(
                idx.unique[q / 64] >> (q % 64) & 1 == 1,
                unique,
                "position {q} of {}",
                text.len()
            );
            if let Some(kmer) = text.get(q..q + UNIQUE_K) {
                assert_eq!(idx.is_unique_kmer_at(q as i64, kmer), unique);
            }
        }
        assert_eq!(idx.unique.len(), text.len().div_ceil(64));
        assert_eq!(idx.unique, comparison_sorted_unique(&text), "the comparison sort's bits");
    }

    /// The parent commit's uniqueness bits: the pairs sorted by
    /// comparison.
    fn comparison_sorted_unique(text: &[u8]) -> Vec<u64> {
        unique_kmers_with(text, &suffix_array(text), |mut pairs| {
            pairs.sort_unstable_by_key(|&(rc, _)| rc);
            pairs
        })
    }

    #[test]
    fn the_radix_sort_sets_the_comparison_sorts_bits() {
        // Random text long enough that every 13-bit digit of the codes
        // varies; tandem repeats, whose only once-occurring k-mers are at
        // the flanks around them (a bare one has none); and two
        // chromosomes, one a tandem repeat.
        let random = pseudo_text(30_000, 41, b"ACGT");
        let tandem: Vec<u8> = pseudo_text(171, 42, b"ACGT").repeat(40);
        let edged = [pseudo_text(300, 43, b"ACGT"), tandem.clone(), pseudo_text(300, 44, b"ACGT")].concat();
        for (chromosomes, any_unique) in [
            (vec![random], true),
            (vec![tandem.clone()], false),
            (vec![edged.clone()], true),
            (vec![edged, tandem], true),
        ] {
            let named: Vec<(String, Vec<u8>)> =
                chromosomes.iter().enumerate().map(|(i, c)| (format!("chr{i}"), c.clone())).collect();
            let idx = ReferenceIndex::build(&named);
            let bits = comparison_sorted_unique(&chromosomes.concat());
            assert_eq!(bits.iter().any(|&w| w != 0), any_unique);
            assert_eq!(idx.unique, bits);
        }
        // The sort alone, on codes drawn from all 38 bits.
        let mut x = 7u64;
        let pairs: Vec<(u64, u32)> = (0..5_000u32)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 26, i)
            })
            .collect();
        let mut expected = pairs.clone();
        expected.sort_unstable_by_key(|&(code, _)| code);
        assert_eq!(sort_by_code(pairs), expected);
    }

    #[test]
    fn texts_around_one_kmer_long() {
        for len in [0, 1, 18, 19, 20, 21, 37, 38, 64, 65] {
            assert_bit_is_the_brute_force_count(&[pseudo_text(len, len as u64, b"ACGT")]);
        }
        // 19 bases: the one k-mer is unique (odd k: no k-mer is its own
        // reverse complement), so its bit is set.
        let one = pseudo_text(19, 3, b"ACGT");
        let idx = ReferenceIndex::build(&[("c".into(), one.clone())]);
        assert!(idx.is_unique_kmer_at(0, &one));
        assert!(!idx.is_unique_kmer_at(-1, &one));
        assert!(!idx.is_unique_kmer_at(1, &one));
    }

    #[test]
    fn an_inverted_repeat_clears_both_copies() {
        let mut chr = pseudo_text(2_000, 8, b"ACGT");
        let rc = gesall_formats::dna::reverse_complement(&chr[500..560]);
        chr[1500..1560].copy_from_slice(&rc);
        let idx = ReferenceIndex::build(&[("c".into(), chr.clone())]);
        for q in (500..542).chain(1500..1542) {
            assert!(!idx.is_unique_kmer_at(q as i64, &chr[q..q + UNIQUE_K]), "{q}");
        }
        assert!(idx.is_unique_kmer_at(400, &chr[400..419]));
        assert_bit_is_the_brute_force_count(&[chr]);
    }

    #[test]
    fn lower_case_text_sets_no_bit() {
        let chr = pseudo_text(500, 2, b"acgt");
        let idx = ReferenceIndex::build(&[("c".into(), chr)]);
        assert!(idx.unique.iter().all(|&w| w == 0));
    }

    #[test]
    fn reverse_complement_code_complements_and_reverses() {
        let mut x = 5u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let kmer: Vec<u8> =
                (0..UNIQUE_K).map(|i| b"ACGT"[(x >> (2 * i)) as usize % 4]).collect();
            let code = |k: &[u8]| k.iter().fold(0u64, |c, &b| c << 2 | base_code(b) as u64);
            let rc = gesall_formats::dna::reverse_complement(&kmer);
            assert_eq!(reverse_complement_code(code(&kmer)), code(&rc));
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn uniqueness_bit_is_the_brute_force_count(
            len1 in prop_oneof![Just(0usize), Just(18), Just(19), Just(20), 0usize..800],
            len2 in prop_oneof![Just(0usize), Just(19usize), 1usize..800],
            alphabet in 0usize..4,
            seed in any::<u64>(),
            plants in proptest::collection::vec((0usize..4, any::<u64>()), 0..5),
        ) {
            // Random text over ACGT, or over an alphabet that repeats
            // k-mers (AC, whose reverse complements are GT-only) or
            // repeats them and their reverse complements (AT).
            let alphabet: &[u8] = [&b"ACGT"[..], b"ACGT", b"AC", b"AT"][alphabet];
            let mut text = pseudo_text(len1 + len2, seed, alphabet);
            let n = text.len();
            for (kind, r) in plants {
                let len = 19 + (r >> 50) as usize % 40;
                if n < 2 * len {
                    continue;
                }
                let (from, to) = ((r >> 8) as usize % (n - len), (r >> 30) as usize % (n - len));
                let mut piece = match kind {
                    // The k-mers spanning the chromosome join.
                    0 if len1 >= 19 && len2 >= 19 => text[len1 - 19..len1 + 19].to_vec(),
                    _ => text[from..from + len].to_vec(),
                };
                // A planted repeat, or an inverted one.
                if kind == 1 || (kind == 0 && r & 1 == 1) {
                    piece = gesall_formats::dna::reverse_complement(&piece);
                }
                let to = to.min(n - piece.len());
                text[to..to + piece.len()].copy_from_slice(&piece);
            }
            let (chr1, chr2) = text.split_at(len1);
            assert_bit_is_the_brute_force_count(&[chr1.to_vec(), chr2.to_vec()]);
        }
    }

    #[test]
    fn fm_index_spans_both_chromosomes() {
        let idx = index();
        // "GT" occurs in chr1 many times but also across positions; just
        // verify a chr2-only pattern locates inside chr2's range.
        let hits = idx.fm().locate(b"GGGGCCCC", 10).unwrap();
        assert!(!hits.is_empty());
        for h in hits {
            let (c, _) = idx.global_to_local(h as usize).unwrap();
            assert_eq!(c, 1);
        }
    }
}
