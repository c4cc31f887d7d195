//! GDPT — the Genome Data Parallel Toolkit (paper §3.2).
//!
//! Encodes the logical partitioning schemes that let unmodified analysis
//! programs run correctly on subsets of a genomic dataset:
//!
//! * **Group partitioning** by read name (Bwa, FixMateInformation);
//! * **Compound group partitioning** for MarkDuplicates: the two
//!   partitioning functions over 5′-unclipped-end keys, the map-side
//!   filter, and the bloom-filter optimisation (`MarkDup_opt`);
//! * **Range partitioning** by chromosome (UnifiedGenotyper,
//!   HaplotypeCaller) and the **overlapping** fine-grained scheme.

use gesall_formats::error::{FormatError, Result as FmtResult};
use gesall_formats::sam::SamView;
use gesall_formats::wire::{Cursor, Wire};
use gesall_tools::mark_duplicates::EndKey;

// ---------------------------------------------------------------------
// Group partitioning (by read name)
// ---------------------------------------------------------------------

/// Stable hash of a read name → partition. Both reads of a pair share
/// the name, hence the partition — the §3.2 Group Partitioning contract.
pub fn name_partition(name: &str, n_partitions: usize) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % n_partitions.max(1) as u64) as usize
}

// ---------------------------------------------------------------------
// Compound group partitioning (MarkDuplicates)
// ---------------------------------------------------------------------

/// Shuffle key of the MarkDuplicates round: either the compound key of a
/// complete matching pair, the single 5′-end key for partial-matching
/// detection, or a spread key for fully-unmapped pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum MarkDupKey {
    /// Criterion 1: canonicalized (5′ end, strand) keys of both reads.
    Pair(EndKey, EndKey),
    /// Criterion 2: one read's (5′ end, strand) key.
    Single(EndKey),
    /// Both reads unmapped: pass-through, spread by name hash.
    Unplaced(u64),
}

fn encode_end(buf: &mut Vec<u8>, k: &EndKey) {
    (k.0 as i64).encode(buf);
    k.1.encode(buf);
    (k.2 as u32).encode(buf);
}

fn end_len(k: &EndKey) -> usize {
    (k.0 as i64).encoded_len() + k.1.encoded_len() + (k.2 as u32).encoded_len()
}

fn decode_end(cur: &mut Cursor<'_>) -> FmtResult<EndKey> {
    Ok((
        i64::decode(cur)? as i32,
        i64::decode(cur)?,
        u32::decode(cur)? as u8,
    ))
}

impl Wire for MarkDupKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            MarkDupKey::Pair(a, b) => {
                buf.push(0);
                encode_end(buf, a);
                encode_end(buf, b);
            }
            MarkDupKey::Single(a) => {
                buf.push(1);
                encode_end(buf, a);
            }
            MarkDupKey::Unplaced(h) => {
                buf.push(2);
                h.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            MarkDupKey::Pair(a, b) => end_len(a) + end_len(b),
            MarkDupKey::Single(a) => end_len(a),
            MarkDupKey::Unplaced(h) => h.encoded_len(),
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> FmtResult<Self> {
        let tag = u32::decode(cur)? as u8;
        Ok(match tag {
            0 => MarkDupKey::Pair(decode_end(cur)?, decode_end(cur)?),
            1 => MarkDupKey::Single(decode_end(cur)?),
            2 => MarkDupKey::Unplaced(u64::decode(cur)?),
            other => {
                return Err(FormatError::Bam(format!("bad MarkDupKey tag {other}")))
            }
        })
    }
}

/// The role a shuffled record plays at the reducer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkDupRole {
    /// A read of a complete matching pair, shuffled under the pair key.
    PairMember,
    /// The mapped read of a partial matching, shuffled under its single
    /// key.
    PartialMapped,
    /// The unmapped mate of a partial matching (travels with the mapped
    /// read so the duplicate flag can be applied to both).
    PartialMate,
    /// A complete-pair read shuffled under a single key purely as a
    /// witness for criterion 2; produces no output.
    Witness,
    /// A read of a fully-unmapped pair (pass-through).
    Unplaced,
}

/// Value envelope of the MarkDuplicates shuffle. The record is a view:
/// its bytes travel as they arrived, and a witness is a refcount bump.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkDupValue<R = SamView> {
    pub role: MarkDupRole,
    pub record: R,
}

impl<R: Wire> Wire for MarkDupValue<R> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self.role {
            MarkDupRole::PairMember => 0,
            MarkDupRole::PartialMapped => 1,
            MarkDupRole::PartialMate => 2,
            MarkDupRole::Witness => 3,
            MarkDupRole::Unplaced => 4,
        });
        self.record.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        1 + self.record.encoded_len()
    }

    fn decode(cur: &mut Cursor<'_>) -> FmtResult<Self> {
        let role = match u32::decode(cur)? as u8 {
            0 => MarkDupRole::PairMember,
            1 => MarkDupRole::PartialMapped,
            2 => MarkDupRole::PartialMate,
            3 => MarkDupRole::Witness,
            4 => MarkDupRole::Unplaced,
            other => {
                return Err(FormatError::Bam(format!("bad MarkDupRole {other}")))
            }
        };
        Ok(MarkDupValue {
            role,
            record: R::decode(cur)?,
        })
    }
}

/// A read's duplicate endpoint, as
/// [`end_key`](gesall_tools::mark_duplicates::end_key) states it.
pub(crate) fn view_end_key(r: &SamView) -> EndKey {
    (r.ref_id(), r.unclipped_5p_end(), r.strand())
}

/// Generate the shuffle records for one read pair (paper §3.2, "Parallel
/// Algorithms"). `witness_filter` is the **map-side filter**: a per-map-
/// task set ensuring only one complete-pair read is emitted per 5′
/// position. `bloom`, when present (`MarkDup_opt`), suppresses witnesses
/// for 5′ positions that no partial matching can touch.
///
/// Takes the pair **by value**: keys are computed up front and the
/// views then move into their shuffle values; a witness shares its
/// read's bytes.
pub fn markdup_map_pair(
    a: SamView,
    b: SamView,
    witness_filter: &mut std::collections::HashSet<EndKey>,
    bloom: Option<&BloomFilter>,
    out: &mut Vec<(MarkDupKey, MarkDupValue)>,
) {
    let value = |role, record| MarkDupValue { role, record };
    match (a.is_mapped(), b.is_mapped()) {
        (true, true) => {
            let (ka, kb) = (view_end_key(&a), view_end_key(&b));
            let pair = if ka <= kb { MarkDupKey::Pair(ka, kb) } else { MarkDupKey::Pair(kb, ka) };
            // Criterion-2 witnesses, decided before the moves below.
            let mut witness_of = |read: &SamView, key: EndKey| {
                let needed = bloom.map(|bl| bl.maybe_contains(&key)).unwrap_or(true);
                (needed && witness_filter.insert(key))
                    .then(|| (MarkDupKey::Single(key), value(MarkDupRole::Witness, read.clone())))
            };
            let wa = witness_of(&a, ka);
            let wb = witness_of(&b, kb);
            out.push((pair.clone(), value(MarkDupRole::PairMember, a)));
            out.push((pair, value(MarkDupRole::PairMember, b)));
            out.extend(wa);
            out.extend(wb);
        }
        (true, false) | (false, true) => {
            let (mapped, mate) = if a.is_mapped() { (a, b) } else { (b, a) };
            let key = view_end_key(&mapped);
            out.push((MarkDupKey::Single(key), value(MarkDupRole::PartialMapped, mapped)));
            out.push((MarkDupKey::Single(key), value(MarkDupRole::PartialMate, mate)));
        }
        (false, false) => {
            let h = name_partition(a.name(), usize::MAX) as u64;
            for r in [a, b] {
                out.push((MarkDupKey::Unplaced(h), value(MarkDupRole::Unplaced, r)));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bloom filter (MarkDup_opt)
// ---------------------------------------------------------------------

/// A plain bloom filter over [`EndKey`]s. Built in a preparatory MR round
/// from the 5′ positions of partial-matching reads; queried by the
/// `MarkDup_opt` mapper to skip unnecessary witness records (paper §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_hashes: u32,
}

impl BloomFilter {
    /// Size for an expected number of items at ~1% false-positive rate.
    pub fn with_capacity(expected_items: usize) -> BloomFilter {
        // ~9.6 bits/item for 1% fpr.
        let n_bits = (expected_items.max(16) * 10).next_power_of_two();
        BloomFilter {
            bits: vec![0; n_bits / 64],
            n_hashes: 7,
        }
    }

    fn hashes(&self, key: &EndKey) -> impl Iterator<Item = usize> + '_ {
        let mut h1: u64 = 0x9E3779B97F4A7C15;
        let mut h2: u64 = 0xC2B2AE3D27D4EB4F;
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(0xFF51AFD7ED558CCD);
            *h ^= *h >> 33;
        };
        mix(&mut h1, key.0 as u64);
        mix(&mut h1, key.1 as u64);
        mix(&mut h1, key.2 as u64);
        mix(&mut h2, key.2 as u64);
        mix(&mut h2, key.1 as u64);
        mix(&mut h2, key.0 as u64);
        let n_bits = self.bits.len() * 64;
        (0..self.n_hashes as u64).map(move |i| {
            (h1.wrapping_add(i.wrapping_mul(h2)) % n_bits as u64) as usize
        })
    }

    pub fn insert(&mut self, key: &EndKey) {
        let idxs: Vec<usize> = self.hashes(key).collect();
        for i in idxs {
            self.bits[i / 64] |= 1 << (i % 64);
        }
    }

    pub fn maybe_contains(&self, key: &EndKey) -> bool {
        self.hashes(key).all(|i| self.bits[i / 64] & (1 << (i % 64)) != 0)
    }
}

/// Stable byte codec so a built filter can live in the DAG stage cache
/// (`StageData::Bloom`) and be reused across pipeline runs.
impl Wire for BloomFilter {
    fn encode(&self, buf: &mut Vec<u8>) {
        gesall_formats::wire::put_u32(buf, self.n_hashes);
        gesall_formats::wire::put_varint(buf, self.bits.len() as u64);
        for w in &self.bits {
            gesall_formats::wire::put_u64(buf, *w);
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> FmtResult<Self> {
        let n_hashes = cur.get_u32()?;
        let n = cur.get_varint()? as usize;
        if n * 8 > cur.remaining() {
            return Err(FormatError::Bam(format!(
                "bloom filter claims {n} words but only {} bytes remain",
                cur.remaining()
            )));
        }
        let mut bits = Vec::with_capacity(n);
        for _ in 0..n {
            bits.push(cur.get_u64()?);
        }
        Ok(BloomFilter { bits, n_hashes })
    }

    fn encoded_len(&self) -> usize {
        4 + gesall_formats::wire::varint_len(self.bits.len() as u64) + 8 * self.bits.len()
    }
}

// ---------------------------------------------------------------------
// Range partitioning
// ---------------------------------------------------------------------

/// Shuffle key for coordinate-range rounds: orders by (chromosome,
/// position); unmapped reads sort last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RangeKey {
    pub chrom: i32,
    pub pos: i64,
}

impl RangeKey {
    /// The key of a record with this
    /// [`coordinate_key`](gesall_formats::sam::SamRecord::coordinate_key),
    /// which already sorts unmapped reads last.
    pub fn at((chrom, pos): (i32, i64)) -> RangeKey {
        RangeKey { chrom, pos }
    }
}

impl Wire for RangeKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.chrom as i64).encode(buf);
        self.pos.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        (self.chrom as i64).encoded_len() + self.pos.encoded_len()
    }

    fn decode(cur: &mut Cursor<'_>) -> FmtResult<Self> {
        Ok(RangeKey {
            chrom: i64::decode(cur)? as i32,
            pos: i64::decode(cur)?,
        })
    }
}

/// Non-overlapping chromosome partitioning (UnifiedGenotyper /
/// HaplotypeCaller coarse scheme): chromosome `c` → partition `c`;
/// unmapped reads ride in the last partition.
pub fn chromosome_partition(key: &RangeKey, n_partitions: usize) -> usize {
    if key.chrom == i32::MAX {
        n_partitions - 1
    } else {
        (key.chrom as usize).min(n_partitions - 1)
    }
}

/// The fine-grained **overlapping** range scheme for HaplotypeCaller
/// (paper §3.2): the chromosome is cut into segments of `segment_len`
/// with `overlap` bases shared between neighbours; a read goes to every
/// segment it overlaps (replication).
#[derive(Debug, Clone, Copy)]
pub struct OverlappingRanges {
    pub segment_len: i64,
    pub overlap: i64,
}

impl OverlappingRanges {
    pub fn new(segment_len: i64, overlap: i64) -> OverlappingRanges {
        assert!(segment_len > 0 && overlap >= 0 && overlap < segment_len);
        OverlappingRanges {
            segment_len,
            overlap,
        }
    }

    /// Number of segments covering a chromosome of `chrom_len` bases.
    pub fn n_segments(&self, chrom_len: i64) -> usize {
        ((chrom_len + self.segment_len - 1) / self.segment_len).max(1) as usize
    }

    /// The (1-based, inclusive) span of segment `i`, overlap included.
    pub fn segment_span(&self, i: usize, chrom_len: i64) -> (i64, i64) {
        let core_start = i as i64 * self.segment_len + 1;
        let core_end = ((i as i64 + 1) * self.segment_len).min(chrom_len);
        ((core_start - self.overlap).max(1), (core_end + self.overlap).min(chrom_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::{Cigar, Flags, SamRecord};
    use gesall_tools::mark_duplicates::end_key;

    fn view(r: &SamRecord) -> SamView {
        SamView::from_wire_bytes(&r.to_wire_bytes()).unwrap()
    }

    fn mapped(name: &str, pos: i64, reverse: bool) -> SamRecord {
        let mut r = SamRecord::unmapped(name, vec![b'A'; 100], vec![30; 100]);
        let mut f = Flags(Flags::PAIRED);
        f.set(Flags::REVERSE, reverse);
        r.flags = f;
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = Cigar::full_match(100);
        r
    }

    #[test]
    fn name_partition_pairs_together() {
        for n in [1usize, 2, 7, 90] {
            for i in 0..50 {
                let name = format!("read{i}");
                assert_eq!(name_partition(&name, n), name_partition(&name, n));
                assert!(name_partition(&name, n) < n);
            }
        }
    }

    #[test]
    fn encoded_len_is_exact_for_every_impl() {
        fn check<T: Wire>(v: T) {
            assert_eq!(v.encoded_len(), v.to_wire_bytes().len());
        }
        check(MarkDupKey::Pair((0, 1000, b'F'), (i32::MAX, i64::MAX, b'R')));
        check(MarkDupKey::Single((-1, -5, b'R')));
        check(MarkDupKey::Unplaced(u64::MAX));
        check(MarkDupKey::Unplaced(0));
        for role in [MarkDupRole::PairMember, MarkDupRole::Unplaced] {
            check(MarkDupValue {
                role,
                record: mapped("x", 5, true),
            });
            check(MarkDupValue {
                role,
                record: view(&mapped("x", 5, true)),
            });
        }
        check(RangeKey { chrom: 0, pos: 50 });
        check(RangeKey { chrom: 200, pos: 1 << 40 });
        check(RangeKey::at(SamRecord::unmapped("u", vec![], vec![]).coordinate_key()));
        let mut bloom = BloomFilter::with_capacity(64);
        bloom.insert(&(1, 1000, b'F'));
        check(bloom);
    }

    #[test]
    fn markdup_key_wire_roundtrip() {
        for key in [
            MarkDupKey::Pair((0, 1000, b'F'), (0, 1399, b'R')),
            MarkDupKey::Single((2, -5, b'R')),
            MarkDupKey::Unplaced(0xDEADBEEF),
        ] {
            let bytes = key.to_wire_bytes();
            assert_eq!(MarkDupKey::from_wire_bytes(&bytes).unwrap(), key);
        }
    }

    #[test]
    fn markdup_value_wire_roundtrip() {
        let v = MarkDupValue {
            role: MarkDupRole::PartialMate,
            record: mapped("x", 5, true),
        };
        let bytes = v.to_wire_bytes();
        assert_eq!(MarkDupValue::from_wire_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn map_pair_complete_emits_two_members_plus_witnesses() {
        let a = mapped("p", 1000, false);
        let b = mapped("p", 1300, true);
        let mut filter = std::collections::HashSet::new();
        let mut out = Vec::new();
        markdup_map_pair(view(&a), view(&b), &mut filter, None, &mut out);
        let members = out
            .iter()
            .filter(|(_, v)| v.role == MarkDupRole::PairMember)
            .count();
        let witnesses = out
            .iter()
            .filter(|(_, v)| v.role == MarkDupRole::Witness)
            .count();
        assert_eq!(members, 2);
        assert_eq!(witnesses, 2);
        // A second identical pair in the same map task emits NO new
        // witnesses (map-side filter).
        let a2 = mapped("q", 1000, false);
        let b2 = mapped("q", 1300, true);
        let before = out.len();
        markdup_map_pair(view(&a2), view(&b2), &mut filter, None, &mut out);
        let new_witnesses = out[before..]
            .iter()
            .filter(|(_, v)| v.role == MarkDupRole::Witness)
            .count();
        assert_eq!(new_witnesses, 0, "map-side filter must dedup witnesses");
    }

    #[test]
    fn map_pair_bloom_suppresses_witnesses() {
        let a = mapped("p", 1000, false);
        let b = mapped("p", 1300, true);
        // Empty bloom: no partial matchings anywhere ⇒ no witnesses.
        let bloom = BloomFilter::with_capacity(100);
        let mut filter = std::collections::HashSet::new();
        let mut out = Vec::new();
        markdup_map_pair(view(&a), view(&b), &mut filter, Some(&bloom), &mut out);
        assert_eq!(out.len(), 2, "only the two pair members: {out:?}");
        // Bloom containing a's end: one witness comes back.
        let mut bloom = BloomFilter::with_capacity(100);
        bloom.insert(&end_key(&a));
        let mut filter = std::collections::HashSet::new();
        let mut out = Vec::new();
        markdup_map_pair(view(&a), view(&b), &mut filter, Some(&bloom), &mut out);
        let witnesses = out
            .iter()
            .filter(|(_, v)| v.role == MarkDupRole::Witness)
            .count();
        assert_eq!(witnesses, 1);
    }

    #[test]
    fn map_pair_partial_and_unplaced() {
        let a = mapped("p", 1000, false);
        let mut u = SamRecord::unmapped("p", vec![b'C'; 100], vec![20; 100]);
        u.flags.set(Flags::PAIRED, true);
        let mut out = Vec::new();
        markdup_map_pair(view(&a), view(&u), &mut std::collections::HashSet::new(), None, &mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].0, MarkDupKey::Single(_)));
        assert_eq!(out[0].1.role, MarkDupRole::PartialMapped);
        assert_eq!(out[1].1.role, MarkDupRole::PartialMate);

        let u2 = u.clone();
        let mut out2 = Vec::new();
        markdup_map_pair(view(&u), view(&u2), &mut std::collections::HashSet::new(), None, &mut out2);
        assert_eq!(out2.len(), 2);
        assert!(matches!(out2[0].0, MarkDupKey::Unplaced(_)));
    }

    #[test]
    fn bloom_filter_behaviour() {
        let mut bloom = BloomFilter::with_capacity(1000);
        let keys: Vec<EndKey> = (0..500).map(|i| (0, i * 7, b'F')).collect();
        for k in &keys {
            bloom.insert(k);
        }
        for k in &keys {
            assert!(bloom.maybe_contains(k), "false negative at {k:?}");
        }
        // False positives rare.
        let fps = (0..2000)
            .filter(|i| bloom.maybe_contains(&(1, *i as i64, b'R')))
            .count();
        assert!(fps < 60, "too many false positives: {fps}");
        let set: u32 = bloom.bits.iter().map(|w| w.count_ones()).sum();
        assert!((set as f64) < 0.6 * (bloom.bits.len() * 64) as f64, "filter over-full");
    }

    #[test]
    fn range_key_ordering_and_wire() {
        let a = RangeKey { chrom: 0, pos: 50 };
        let b = RangeKey { chrom: 0, pos: 51 };
        let c = RangeKey { chrom: 1, pos: 1 };
        assert!(a < b && b < c);
        let u = RangeKey::at(SamRecord::unmapped("u", vec![], vec![]).coordinate_key());
        assert!(c < u);
        let bytes = a.to_wire_bytes();
        assert_eq!(RangeKey::from_wire_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn chromosome_partitioning() {
        let k0 = RangeKey { chrom: 0, pos: 1 };
        let k1 = RangeKey { chrom: 1, pos: 1 };
        assert_eq!(chromosome_partition(&k0, 3), 0);
        assert_eq!(chromosome_partition(&k1, 3), 1);
        let u = RangeKey {
            chrom: i32::MAX,
            pos: i64::MAX,
        };
        assert_eq!(chromosome_partition(&u, 3), 2);
    }

    #[test]
    fn overlapping_ranges() {
        let r = OverlappingRanges::new(1000, 100);
        assert_eq!(r.n_segments(3500), 4);
        assert_eq!(r.segment_span(0, 3500), (1, 1100));
        assert_eq!(r.segment_span(1, 3500), (901, 2100));
        assert_eq!(r.segment_span(3, 3500), (2901, 3500));
    }
}
