//! Suffix-array construction by induced sorting (SA-IS), in linear time.
//!
//! A port of the AtCoder Library's `sa_is` (Nong, Zhang & Chan's
//! algorithm): classify every suffix as L- or S-type, place the LMS
//! suffixes in their buckets, induce the L and then the S suffixes from
//! them, name the now-sorted LMS substrings, sort the string of names by
//! recursion, and induce once more from the LMS suffixes in their final
//! order. Below `NAIVE_BELOW` symbols a comparison sort is cheaper. The
//! prefix-doubling construction this replaced survives as
//! `reference::suffix_array`, the oracle the tests hold it to.

/// Inputs shorter than this are sorted by direct suffix comparison.
const NAIVE_BELOW: usize = 10;
/// Empty slot of the suffix array under construction (ACL's `-1`).
const EMPTY: u32 = u32::MAX;

/// Build the suffix array of `text`. The text must not contain the byte
/// value 0 (reserved as an implicit terminal sentinel smaller than every
/// other byte; the sentinel itself gets index `text.len()` and is *not*
/// included in the returned array).
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    debug_assert!(
        !text.contains(&0),
        "byte 0 is reserved for the sentinel"
    );
    assert!(text.len() < EMPTY as usize, "text too long for u32 suffix offsets");
    sa_is(text, u8::MAX as usize)
}

/// A symbol the induced sort runs over: a text byte at the top level, the
/// name of an LMS substring in the recursion.
trait Symbol: Copy + Ord {
    fn rank(self) -> usize;
}

impl Symbol for u8 {
    fn rank(self) -> usize {
        self as usize
    }
}

impl Symbol for u32 {
    fn rank(self) -> usize {
        self as usize
    }
}

/// Suffix array of `s`, whose symbols rank at most `upper`.
fn sa_is<T: Symbol>(s: &[T], upper: usize) -> Vec<u32> {
    let n = s.len();
    match n {
        0 => return Vec::new(),
        1 => return vec![0],
        2 => return if s[0] < s[1] { vec![0, 1] } else { vec![1, 0] },
        _ if n < NAIVE_BELOW => {
            let mut sa: Vec<u32> = (0..n as u32).collect();
            sa.sort_by(|&a, &b| s[a as usize..].cmp(&s[b as usize..]));
            return sa;
        }
        _ => {}
    }

    // ls[i]: suffix i is S-type (smaller than suffix i + 1). The last
    // suffix is L-type: it is larger than the empty one after it.
    let mut ls = vec![false; n];
    for i in (0..n - 1).rev() {
        ls[i] = if s[i] == s[i + 1] { ls[i + 1] } else { s[i] < s[i + 1] };
    }
    // Bucket bounds: `sum_l[c]` is where symbol c's bucket (its L-type
    // suffixes first) starts, `sum_s[c]` where its S-type suffixes start.
    // An S-type symbol is below `upper`, so `c + 1` stays in range.
    let mut sum_l = vec![0u32; upper + 1];
    let mut sum_s = vec![0u32; upper + 1];
    for i in 0..n {
        if ls[i] {
            sum_l[s[i].rank() + 1] += 1;
        } else {
            sum_s[s[i].rank()] += 1;
        }
    }
    for c in 0..=upper {
        sum_s[c] += sum_l[c];
        if c < upper {
            sum_l[c + 1] += sum_s[c];
        }
    }

    // Place `lms` in its buckets, then induce the L-type suffixes left to
    // right and the S-type ones right to left.
    let mut sa = vec![EMPTY; n];
    let induce = |sa: &mut [u32], lms: &[u32]| {
        sa.fill(EMPTY);
        let mut buf = sum_s.clone();
        for &d in lms {
            let c = s[d as usize].rank();
            sa[buf[c] as usize] = d;
            buf[c] += 1;
        }
        buf.copy_from_slice(&sum_l);
        let c = s[n - 1].rank();
        sa[buf[c] as usize] = n as u32 - 1;
        buf[c] += 1;
        for i in 0..n {
            let v = sa[i];
            if v != EMPTY && v >= 1 && !ls[v as usize - 1] {
                let c = s[v as usize - 1].rank();
                sa[buf[c] as usize] = v - 1;
                buf[c] += 1;
            }
        }
        buf.copy_from_slice(&sum_l);
        for i in (0..n).rev() {
            let v = sa[i];
            if v != EMPTY && v >= 1 && ls[v as usize - 1] {
                let c = s[v as usize - 1].rank() + 1;
                buf[c] -= 1;
                sa[buf[c] as usize] = v - 1;
            }
        }
    };

    // LMS positions (an S-type suffix right after an L-type one), in text
    // order, and each one's index among them.
    let mut lms_map = vec![EMPTY; n + 1];
    let mut lms = Vec::new();
    for i in 1..n {
        if !ls[i - 1] && ls[i] {
            lms_map[i] = lms.len() as u32;
            lms.push(i as u32);
        }
    }
    let m = lms.len();
    induce(&mut sa, &lms);
    if m == 0 {
        return sa;
    }

    // The induced order sorts the LMS substrings; name them by it, equal
    // substrings sharing a name.
    let mut sorted_lms: Vec<u32> = sa
        .iter()
        .copied()
        .filter(|&v| lms_map[v as usize] != EMPTY)
        .collect();
    let substring_end = |i: usize| lms.get(lms_map[i] as usize + 1).map_or(n, |&e| e as usize);
    let mut names = vec![0u32; m];
    let mut upper_name = 0u32;
    for w in 1..m {
        let (mut l, mut r) = (sorted_lms[w - 1] as usize, sorted_lms[w] as usize);
        let (end_l, end_r) = (substring_end(l), substring_end(r));
        let same = end_l - l == end_r - r && {
            while l < end_l && s[l] == s[r] {
                l += 1;
                r += 1;
            }
            l < n && r < n && s[l] == s[r]
        };
        if !same {
            upper_name += 1;
        }
        names[lms_map[sorted_lms[w] as usize] as usize] = upper_name;
    }

    // The names in text order are a string whose suffix array orders the
    // LMS suffixes; induce the full order from them.
    for (slot, &i) in sorted_lms.iter_mut().zip(&sa_is(&names, upper_name as usize)) {
        *slot = lms[i as usize];
    }
    induce(&mut sa, &sorted_lms);
    sa
}

/// Burrows–Wheeler transform from a suffix array. The returned BWT has
/// length `n + 1` (it includes the sentinel rotation): `bwt[0]` is the
/// last character of the text (the sentinel's predecessor), and byte 0
/// marks the sentinel position itself.
pub fn bwt_from_sa(text: &[u8], sa: &[u32]) -> Vec<u8> {
    let n = text.len();
    let mut bwt = Vec::with_capacity(n + 1);
    // Row 0 of the sorted rotations is the sentinel suffix; its BWT char
    // is the text's last byte.
    bwt.push(if n == 0 { 0 } else { text[n - 1] });
    for &s in sa {
        if s == 0 {
            bwt.push(0); // sentinel
        } else {
            bwt.push(text[s as usize - 1]);
        }
    }
    bwt
}

/// The parent commit's construction, verbatim: prefix doubling with
/// `sort_unstable`, O(n log² n).
#[cfg(test)]
pub(crate) mod reference {
    /// Build the suffix array of `text`. The text must not contain the byte
    /// value 0 (reserved as an implicit terminal sentinel smaller than every
    /// other byte; the sentinel itself gets index `text.len()` and is *not*
    /// included in the returned array).
    pub fn suffix_array(text: &[u8]) -> Vec<u32> {
        let n = text.len();
        if n == 0 {
            return Vec::new();
        }
        debug_assert!(
            !text.contains(&0),
            "byte 0 is reserved for the sentinel"
        );
        // rank[i] = equivalence class of suffix i by its first k chars.
        let mut rank: Vec<u32> = text.iter().map(|&b| b as u32).collect();
        let mut sa: Vec<u32> = (0..n as u32).collect();
        let mut tmp = vec![0u32; n];
        let mut k = 1usize;

        // Key of suffix i at doubling width k: (rank[i], rank[i+k] or 0).
        let key = |rank: &[u32], i: u32, k: usize| -> (u32, u32) {
            let second = rank.get(i as usize + k).copied().unwrap_or(0);
            (rank[i as usize] + 1, second.wrapping_add(u32::from((i as usize + k) < rank.len())))
        };

        loop {
            sa.sort_unstable_by_key(|&i| key(&rank, i, k));
            // Re-rank.
            tmp[sa[0] as usize] = 1;
            for w in 1..n {
                let prev = sa[w - 1];
                let cur = sa[w];
                let bump = u32::from(key(&rank, prev, k) != key(&rank, cur, k));
                tmp[cur as usize] = tmp[prev as usize] + bump;
            }
            std::mem::swap(&mut rank, &mut tmp);
            if rank[sa[n - 1] as usize] as usize == n {
                break; // all ranks distinct
            }
            k *= 2;
            if k >= 2 * n {
                break;
            }
        }
        sa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sa(text: &[u8]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..text.len() as u32).collect();
        idx.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        idx
    }

    /// `suffix_array` against the parent's construction, and against a
    /// direct sort of the suffixes where that is cheap.
    fn check(text: &[u8]) {
        let sa = suffix_array(text);
        assert_eq!(sa, reference::suffix_array(text), "len {}", text.len());
        if text.len() < 300 {
            assert_eq!(sa, naive_sa(text), "len {}", text.len());
        }
    }

    #[test]
    fn matches_naive_on_classics() {
        for text in [
            b"banana".to_vec(),
            b"mississippi".to_vec(),
            b"AAAAAA".to_vec(),
            b"ACGTACGTACGT".to_vec(),
            b"G".to_vec(),
            b"TA".to_vec(),
            b"AT".to_vec(),
            b"GATTACAGATTACA".to_vec(),
        ] {
            assert_eq!(
                suffix_array(&text),
                naive_sa(&text),
                "failed on {:?}",
                String::from_utf8_lossy(&text)
            );
        }
    }

    #[test]
    fn empty_text() {
        assert!(suffix_array(b"").is_empty());
    }

    #[test]
    fn matches_naive_on_pseudorandom_dna() {
        let mut x = 99u64;
        let text: Vec<u8> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(x >> 33) as usize % 4]
            })
            .collect();
        assert_eq!(suffix_array(&text), naive_sa(&text));
    }

    #[test]
    fn matches_naive_on_highly_repetitive() {
        let text = b"ACGT".repeat(500);
        assert_eq!(suffix_array(&text), naive_sa(&text));
        let text2 = [b"TTAGGG".repeat(200), b"CCCTAA".repeat(200)].concat();
        assert_eq!(suffix_array(&text2), naive_sa(&text2));
    }

    #[test]
    fn one_repeated_symbol_at_every_short_length() {
        // All L-type but the last: no LMS suffix, no recursion.
        for n in 0..40 {
            check(&vec![b'G'; n]);
        }
        check(&vec![b'A'; 3000]);
    }

    #[test]
    fn bwt_roundtrip_structure() {
        let text = b"ACGTTGCAACGT";
        let sa = suffix_array(text);
        let bwt = bwt_from_sa(text, &sa);
        assert_eq!(bwt.len(), text.len() + 1);
        // Exactly one sentinel byte.
        assert_eq!(bwt.iter().filter(|&&b| b == 0).count(), 1);
        // Character multiset preserved (+ sentinel).
        let mut a = bwt.clone();
        a.retain(|&b| b != 0);
        a.sort_unstable();
        let mut b = text.to_vec();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    use proptest::prelude::*;

    fn acgt(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((0usize..4).prop_map(|i| b"ACGT"[i]), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_the_parent_on_acgt(text in acgt(0..3000)) {
            check(&text);
        }

        #[test]
        fn matches_the_parent_on_any_nonzero_bytes(
            text in proptest::collection::vec(1u8..=255, 0..3000),
        ) {
            check(&text);
        }

        #[test]
        fn matches_the_parent_on_tandem_repeats(
            unit in acgt(1..21),
            copies in 1usize..150,
            lead in acgt(0..30),
            tail in acgt(0..30),
        ) {
            let repeat = unit.iter().copied().cycle().take(unit.len() * copies);
            let text: Vec<u8> = lead.iter().copied().chain(repeat).chain(tail).collect();
            check(&text);
        }

        #[test]
        fn matches_the_parent_on_segmental_duplicates(
            base in acgt(200..2500),
            len in 50usize..1000,
            from in any::<usize>(),
            to in any::<usize>(),
            copies in 1usize..4,
        ) {
            // Copy one long segment over other places in the text, so
            // many suffixes share prefixes hundreds of bases long.
            let mut text = base;
            let len = len.min(text.len() / 2);
            let from = from % (text.len() - len);
            let segment = text[from..from + len].to_vec();
            for k in 0..copies {
                let to = to.wrapping_mul(k + 1) % (text.len() - len);
                text[to..to + len].copy_from_slice(&segment);
            }
            check(&text);
        }
    }
}
