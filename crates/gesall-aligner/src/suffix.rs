//! Suffix-array construction by prefix doubling.
//!
//! O(n log² n) worst case — far from SA-IS, but the synthetic genomes in
//! this workspace are ≤ tens of megabases, where doubling with
//! `sort_unstable` is perfectly serviceable and trivially correct
//! (see DESIGN.md §18 for the substitution note).

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

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sa(text: &[u8]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..text.len() as u32).collect();
        idx.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        idx
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
}
