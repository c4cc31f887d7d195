//! Nucleotide alphabet utilities.
//!
//! Sequences are stored as ASCII bytes (`A`, `C`, `G`, `T`, `N`) throughout
//! the pipeline, matching the text formats; this module provides the
//! alphabet mapping, complementation, and the 2-bit packing used by the
//! FM-index.

/// Map an ASCII base to its 2-bit code, or `None` for non-ACGT bytes.
#[inline]
pub fn ascii_code2(b: u8) -> Option<u8> {
    match b | 0x20 {
        b'a' => Some(0),
        b'c' => Some(1),
        b'g' => Some(2),
        b't' => Some(3),
        _ => None,
    }
}

/// Complement of an ASCII base byte (case preserved as upper-case).
#[inline]
pub fn complement_ascii(b: u8) -> u8 {
    match b | 0x20 {
        b'a' => b'T',
        b'c' => b'G',
        b'g' => b'C',
        b't' => b'A',
        _ => b'N',
    }
}

/// Reverse-complement an ASCII sequence in place.
pub fn reverse_complement_in_place(seq: &mut [u8]) {
    seq.reverse();
    for b in seq.iter_mut() {
        *b = complement_ascii(*b);
    }
}

/// Reverse-complement an ASCII sequence into a fresh vector.
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    let mut v = seq.to_vec();
    reverse_complement_in_place(&mut v);
    v
}

/// True when every byte is a valid (possibly ambiguous) base letter.
pub fn is_valid_sequence(seq: &[u8]) -> bool {
    seq.iter()
        .all(|&b| matches!(b | 0x20, b'a' | b'c' | b'g' | b't' | b'n'))
}

/// GC fraction of a sequence (`N`s excluded from the denominator).
/// Returns 0.0 for sequences with no called bases.
pub fn gc_content(seq: &[u8]) -> f64 {
    let mut gc = 0usize;
    let mut called = 0usize;
    for &b in seq {
        match b | 0x20 {
            b'g' | b'c' => {
                gc += 1;
                called += 1;
            }
            b'a' | b't' => called += 1,
            _ => {}
        }
    }
    if called == 0 {
        0.0
    } else {
        gc as f64 / called as f64
    }
}

/// A 2-bit packed DNA sequence. `N`s are not representable; the packer
/// records their positions separately so round-trips are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSeq {
    len: usize,
    words: Vec<u64>,
    /// Sorted positions that held `N` in the original sequence.
    n_positions: Vec<u32>,
}

impl PackedSeq {
    /// Pack an ASCII sequence. Positions holding anything other than
    /// `ACGT` are recorded as `N`.
    pub fn from_ascii(seq: &[u8]) -> PackedSeq {
        let mut words = vec![0u64; seq.len().div_ceil(32)];
        let mut n_positions = Vec::new();
        for (i, &b) in seq.iter().enumerate() {
            let code = match ascii_code2(b) {
                Some(c) => c,
                None => {
                    n_positions.push(i as u32);
                    0
                }
            };
            words[i / 32] |= (code as u64) << ((i % 32) * 2);
        }
        PackedSeq {
            len: seq.len(),
            words,
            n_positions,
        }
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 2-bit code at position `i` (`A`=0 … `T`=3). Positions that held
    /// `N` return 0 — callers that must distinguish `N` consult
    /// [`PackedSeq::n_positions`].
    #[inline]
    pub fn code_at(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        ((self.words[i / 32] >> ((i % 32) * 2)) & 0b11) as u8
    }

    /// The packed word array: 32 bases per `u64`, position `i` at bits
    /// `(i % 32) * 2 ..`. Trailing slots past `len` are zero. The raw
    /// substrate for bit-parallel kernels (XOR-splat + popcount rank).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sorted positions that held `N` in the original sequence.
    #[inline]
    pub fn n_positions(&self) -> &[u32] {
        &self.n_positions
    }

    /// Unpack the whole sequence back to ASCII: one linear pass over the
    /// packed words, then splat the recorded `N`s (each list is already
    /// sorted, so the merge is a single walk — no per-base
    /// `binary_search`).
    pub fn to_ascii(&self) -> Vec<u8> {
        const LUT: [u8; 4] = [b'A', b'C', b'G', b'T'];
        let mut out = Vec::with_capacity(self.len);
        for (w, &word) in self.words.iter().enumerate() {
            let n = (self.len - w * 32).min(32);
            for i in 0..n {
                out.push(LUT[((word >> (i * 2)) & 0b11) as usize]);
            }
        }
        for &p in &self.n_positions {
            out[p as usize] = b'N';
        }
        out
    }

    /// Per-base histogram `[A, C, G, T, N]`, counted word-at-a-time with
    /// the XOR-splat + popcount trick (the same kernel the packed-BWT
    /// rank uses): positions recorded as `N` are packed as code 0, so
    /// they are subtracted from the `A` bucket afterwards.
    pub fn count_bases(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        let mut remaining = self.len;
        for &word in &self.words {
            let n = remaining.min(32);
            remaining -= n;
            // Mask off the unused tail of the last word so its zero bits
            // don't count as `A`.
            let valid: u64 = if n == 32 { !0 } else { (1u64 << (n * 2)) - 1 };
            for code in 0..4u64 {
                counts[code as usize] += count_code_in_word(word, code, valid) as usize;
            }
        }
        counts[4] = self.n_positions.len();
        counts[0] -= self.n_positions.len();
        counts
    }
}

/// Occurrences of 2-bit `code` among the base slots selected by the
/// `valid` bit-mask of `word` (mask must cover whole 2-bit slots). The
/// bit-parallel inner step shared by [`PackedSeq::count_bases`] and the
/// FM-index packed rank: XOR makes matching slots `00`, then
/// `!(x | x >> 1)` turns exactly those into a set low bit per slot.
#[inline]
pub fn count_code_in_word(word: u64, code: u64, valid: u64) -> u32 {
    debug_assert!(code < 4);
    let x = word ^ (code * 0x5555_5555_5555_5555);
    (!(x | (x >> 1)) & 0x5555_5555_5555_5555 & valid).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_roundtrip_and_complement() {
        for (code, (c, comp)) in [(b'A', b'T'), (b'C', b'G'), (b'G', b'C'), (b'T', b'A')].into_iter().enumerate() {
            assert_eq!(ascii_code2(c), Some(code as u8));
            assert_eq!(complement_ascii(c), comp);
            assert_eq!(complement_ascii(comp), c);
        }
        assert_eq!(ascii_code2(b'x'), None);
        assert_eq!(complement_ascii(b'N'), b'N');
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(complement_ascii(b'g'), b'C');
        assert_eq!(ascii_code2(b't'), Some(3));
    }

    #[test]
    fn reverse_complement_basic() {
        assert_eq!(reverse_complement(b"ACGTN"), b"NACGT".to_vec());
        assert_eq!(reverse_complement(b""), Vec::<u8>::new());
        // Reverse complement is an involution.
        let s = b"GATTACAGATTACA";
        assert_eq!(reverse_complement(&reverse_complement(s)), s.to_vec());
    }

    #[test]
    fn validity_and_gc() {
        assert!(is_valid_sequence(b"ACGTNacgtn"));
        assert!(!is_valid_sequence(b"ACGU"));
        assert!((gc_content(b"GGCC") - 1.0).abs() < 1e-12);
        assert!((gc_content(b"GCAT") - 0.5).abs() < 1e-12);
        assert_eq!(gc_content(b"NNN"), 0.0);
    }

    #[test]
    fn packed_seq_roundtrip() {
        let s = b"ACGTNTGCAACGTNNACGT";
        let p = PackedSeq::from_ascii(s);
        assert_eq!(p.len(), s.len());
        assert_eq!(p.to_ascii(), s.to_vec());
        assert_eq!(get_ascii(&p, 4), b'N');
        assert_eq!(get_ascii(&p, 0), b'A');
    }

    /// Base at position `i` as an ASCII byte, decoded on its own.
    fn get_ascii(p: &PackedSeq, i: usize) -> u8 {
        if p.n_positions.binary_search(&(i as u32)).is_ok() {
            return b'N';
        }
        let code = (p.words[i / 32] >> ((i % 32) * 2)) & 0b11;
        [b'A', b'C', b'G', b'T'][code as usize]
    }

    #[test]
    fn packed_seq_linear_unpack_matches_per_base() {
        let s = b"ACGTNTGCAACGTNNACGTACGTACGTACGTNACGTACGTN";
        let p = PackedSeq::from_ascii(s);
        let per_base: Vec<u8> = (0..p.len()).map(|i| get_ascii(&p, i)).collect();
        assert_eq!(p.to_ascii(), per_base);
        assert_eq!(p.code_at(0), 0);
        assert_eq!(p.code_at(3), 3);
        assert_eq!(p.n_positions()[0], 4);
    }

    #[test]
    fn count_bases_histogram() {
        let s = b"AACGTNNTTT";
        let p = PackedSeq::from_ascii(s);
        assert_eq!(p.count_bases(), [2, 1, 1, 4, 2]);
        // Word-boundary stress: 100 bases, deterministic pattern + Ns.
        let long: Vec<u8> = (0..100)
            .map(|i| if i % 17 == 0 { b'N' } else { b"ACGT"[i % 4] })
            .collect();
        let p = PackedSeq::from_ascii(&long);
        let mut expect = [0usize; 5];
        for &b in &long {
            let idx = match b {
                b'A' => 0,
                b'C' => 1,
                b'G' => 2,
                b'T' => 3,
                _ => 4,
            };
            expect[idx] += 1;
        }
        assert_eq!(p.count_bases(), expect);
        assert_eq!(p.count_bases().iter().sum::<usize>(), 100);
    }

    #[test]
    fn packed_seq_long() {
        // Longer than one word to exercise word boundaries.
        let s: Vec<u8> = (0..1000)
            .map(|i| b"ACGT"[(i * 7 + i / 3) % 4])
            .collect();
        let p = PackedSeq::from_ascii(&s);
        assert_eq!(p.to_ascii(), s);
        // Two bits per base: well under one byte per base.
        assert!(p.words.len() * 8 + p.n_positions.len() * 4 < s.len());
    }
}
