//! The SAM alignment record.

use crate::error::{FormatError, Result};
use crate::sam::cigar::Cigar;
use crate::sam::flags::Flags;
use crate::sam::view::Layout;
use crate::wire::{self, Cursor, Wire};

/// Sentinel reference id for unmapped reads (`RNAME *`).
pub const NO_REF: i32 = -1;

/// One alignment of one read. A read mapped to `m` positions has `m`
/// records sharing `name`; exactly one is primary.
///
/// Positions are 1-based (SAM convention); `pos == 0` means unavailable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamRecord {
    /// `QNAME`: read name, shared with the mate.
    pub name: String,
    /// `FLAG` bitfield.
    pub flags: Flags,
    /// `RNAME` as an index into the header's reference dictionary
    /// ([`NO_REF`] when unmapped).
    pub ref_id: i32,
    /// `POS`: 1-based leftmost mapping position (0 when unmapped).
    pub pos: i64,
    /// `MAPQ`: log-scaled probability the mapping is wrong, 0–60;
    /// 255 = unavailable.
    pub mapq: u8,
    /// `CIGAR`.
    pub cigar: Cigar,
    /// `RNEXT`: mate's reference id ([`NO_REF`] when unavailable).
    pub mate_ref_id: i32,
    /// `PNEXT`: mate's 1-based mapping position (0 when unavailable).
    pub mate_pos: i64,
    /// `TLEN`: signed observed template (fragment) length.
    pub tlen: i64,
    /// `SEQ` as ASCII bases.
    pub seq: Vec<u8>,
    /// `QUAL` as raw Phred scores.
    pub qual: Vec<u8>,
    /// `RG:Z` tag: read-group id ("" = absent).
    pub read_group: String,
    /// `AS:i` tag: alignment score from the aligner.
    pub alignment_score: i32,
    /// `NM:i` tag: edit distance to the reference.
    pub edit_distance: u32,
}

impl SamRecord {
    /// A fresh unmapped, unpaired record for the given read.
    pub fn unmapped(name: impl Into<String>, seq: Vec<u8>, qual: Vec<u8>) -> SamRecord {
        let mut flags = Flags::new();
        flags.set(Flags::UNMAPPED, true);
        SamRecord {
            name: name.into(),
            flags,
            ref_id: NO_REF,
            pos: 0,
            mapq: 0,
            cigar: Cigar::unmapped(),
            mate_ref_id: NO_REF,
            mate_pos: 0,
            tlen: 0,
            seq,
            qual,
            read_group: String::new(),
            alignment_score: 0,
            edit_distance: 0,
        }
    }

    /// True when this record represents a mapped alignment.
    pub fn is_mapped(&self) -> bool {
        !self.flags.is_unmapped()
    }

    /// 1-based inclusive reference end position of the aligned part.
    /// Wrapping, as `overlaps` is: the fields may be hostile wire bytes.
    pub fn end_pos(&self) -> i64 {
        if !self.is_mapped() {
            return 0;
        }
        self.pos
            .wrapping_add(self.cigar.reference_len() as i64)
            .wrapping_sub(1)
    }

    /// The derived **5′ unclipped end** (paper Fig. 3): for a forward-strand
    /// read this is the unclipped *start*; for a reverse-strand read the
    /// sequencer read the fragment from the other side, so the 5′ end is
    /// the unclipped *end*. MarkDuplicates keys on this value.
    pub fn unclipped_5p_end(&self) -> i64 {
        if self.flags.is_reverse() {
            self.cigar.unclipped_end(self.pos)
        } else {
            self.cigar.unclipped_start(self.pos)
        }
    }

    /// Orientation byte used in duplicate keys: `b'F'` or `b'R'`.
    pub fn strand(&self) -> u8 {
        if self.flags.is_reverse() {
            b'R'
        } else {
            b'F'
        }
    }

    /// Sum of base qualities ≥ 15, Picard's record-quality proxy for
    /// picking the representative among duplicates.
    pub fn quality_sum(&self) -> u64 {
        crate::quality::quality_sum(&self.qual, 15)
    }

    /// Whether this read overlaps the 1-based inclusive reference interval
    /// `[start, end]` on `ref_id`.
    pub fn overlaps(&self, ref_id: i32, start: i64, end: i64) -> bool {
        self.is_mapped()
            && span_overlaps(
                (self.ref_id, self.pos, self.cigar.reference_len()),
                (ref_id, start, end),
            )
    }

    /// Structural invariants: seq/qual same length; mapped records have a
    /// CIGAR whose query length matches SEQ; unmapped records carry no
    /// position.
    pub fn validate(&self) -> Result<()> {
        if self.seq.len() != self.qual.len() {
            return Err(FormatError::Sam(format!(
                "{}: seq len {} != qual len {}",
                self.name,
                self.seq.len(),
                self.qual.len()
            )));
        }
        if self.is_mapped() {
            if self.cigar.lengths_overflow() {
                return Err(FormatError::Sam(format!(
                    "{}: cigar length overflows u32 in {}",
                    self.name, self.cigar
                )));
            }
            self.cigar.validate()?;
            if self.pos <= 0 {
                return Err(FormatError::Sam(format!(
                    "{}: mapped read with pos {}",
                    self.name, self.pos
                )));
            }
            if self.ref_id < 0 {
                return Err(FormatError::Sam(format!(
                    "{}: mapped read without reference",
                    self.name
                )));
            }
            // Soft-clipped bases stay in SEQ (query_len counts them);
            // hard-clipped bases are gone from SEQ and from query_len.
            let expect = self.cigar.query_len();
            if !self.seq.is_empty() && self.seq.len() as u32 != expect {
                return Err(FormatError::Sam(format!(
                    "{}: cigar query len {} != seq len {}",
                    self.name,
                    expect,
                    self.seq.len()
                )));
            }
        }
        Ok(())
    }

    /// Coordinate sort key: unmapped reads sort last.
    pub fn coordinate_key(&self) -> (i32, i64) {
        if self.is_mapped() {
            (self.ref_id, self.pos)
        } else {
            (i32::MAX, i64::MAX)
        }
    }

    /// [`Wire::decode`] minus the allocations, for a reader that wants
    /// only the records of a region: advances `cur` past one wire record
    /// — the walk a [`SamView`](crate::sam::SamView) is built on, which
    /// validates every field as `decode` does, so it stops on exactly
    /// the bytes `decode` stops on — and returns whether that record
    /// [`overlaps`](SamRecord::overlaps) `[start, end]` on `ref_id`.
    pub fn skip_overlapping(cur: &mut Cursor<'_>, ref_id: i32, start: i64, end: i64) -> Result<bool> {
        Ok(Layout::walk(cur)?.overlaps(ref_id, start, end))
    }
}

/// Whether a mapped alignment `(ref id, pos, reference length)` overlaps
/// the 1-based inclusive region `(ref id, start, end)`. Wrapping: the
/// fields may be hostile wire bytes.
pub(crate) fn span_overlaps(aln: (i32, i64, u32), region: (i32, i64, i64)) -> bool {
    let (rec_ref, pos, reference_len) = aln;
    let (ref_id, start, end) = region;
    let end_pos = pos.wrapping_add(reference_len as i64).wrapping_sub(1);
    rec_ref == ref_id && pos <= end && end_pos >= start
}

/// A reference id as the wire carries it: biased by one so [`NO_REF`]
/// is 0.
pub(crate) fn decode_ref_id(cur: &mut Cursor<'_>) -> Result<i32> {
    Ok((u64::decode(cur)? as i64).wrapping_sub(1) as i32)
}

impl Wire for SamRecord {
    /// Fourteen fields, a byte each.
    const MIN_ENCODED_LEN: usize = 14;

    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        (self.flags.0 as u32).encode(buf);
        ((self.ref_id as i64 + 1) as u64).encode(buf);
        self.pos.encode(buf);
        (self.mapq as u32).encode(buf);
        wire::put_varint(buf, self.cigar.text_len() as u64);
        self.cigar.write_text(buf);
        ((self.mate_ref_id as i64 + 1) as u64).encode(buf);
        self.mate_pos.encode(buf);
        self.tlen.encode(buf);
        self.seq.encode(buf);
        self.qual.encode(buf);
        self.read_group.encode(buf);
        (self.alignment_score as i64).encode(buf);
        self.edit_distance.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        let cigar_text = self.cigar.text_len();
        self.name.encoded_len()
            + (self.flags.0 as u32).encoded_len()
            + ((self.ref_id as i64 + 1) as u64).encoded_len()
            + self.pos.encoded_len()
            + (self.mapq as u32).encoded_len()
            + wire::varint_len(cigar_text as u64)
            + cigar_text
            + ((self.mate_ref_id as i64 + 1) as u64).encoded_len()
            + self.mate_pos.encoded_len()
            + self.tlen.encoded_len()
            + self.seq.encoded_len()
            + self.qual.encoded_len()
            + self.read_group.encoded_len()
            + (self.alignment_score as i64).encoded_len()
            + self.edit_distance.encoded_len()
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<SamRecord> {
        let name = String::decode(cur)?;
        let flags = Flags(u32::decode(cur)? as u16);
        let ref_id = decode_ref_id(cur)?;
        let pos = i64::decode(cur)?;
        let mapq = u32::decode(cur)? as u8;
        let cigar = Cigar::parse(cur.get_str_ref()?)?;
        let mate_ref_id = decode_ref_id(cur)?;
        let mate_pos = i64::decode(cur)?;
        let tlen = i64::decode(cur)?;
        let seq = Vec::<u8>::decode(cur)?;
        let qual = Vec::<u8>::decode(cur)?;
        let read_group = String::decode(cur)?;
        let alignment_score = i64::decode(cur)? as i32;
        let edit_distance = u32::decode(cur)?;
        Ok(SamRecord {
            name,
            flags,
            ref_id,
            pos,
            mapq,
            cigar,
            mate_ref_id,
            mate_pos,
            tlen,
            seq,
            qual,
            read_group,
            alignment_score,
            edit_distance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam::cigar::CigarOp;

    pub(crate) fn mapped_record(name: &str, ref_id: i32, pos: i64, cigar: &str) -> SamRecord {
        let cigar = Cigar::parse(cigar).unwrap();
        let qlen = cigar.query_len() as usize;
        let mut r = SamRecord::unmapped(name, vec![b'A'; qlen], vec![30; qlen]);
        r.flags.set(Flags::UNMAPPED, false);
        r.ref_id = ref_id;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = cigar;
        r
    }

    #[test]
    fn wire_roundtrip() {
        let mut r = mapped_record("readX", 2, 12345, "5S90M5S");
        r.flags.set(Flags::PAIRED, true);
        r.flags.set(Flags::REVERSE, true);
        r.mate_ref_id = 2;
        r.mate_pos = 12000;
        r.tlen = -445;
        r.read_group = "rg1".into();
        r.alignment_score = 87;
        r.edit_distance = 3;
        let bytes = r.to_wire_bytes();
        assert_eq!(SamRecord::from_wire_bytes(&bytes).unwrap(), r);
        assert_eq!(r.encoded_len(), bytes.len(), "closed-form length must be exact");
    }

    #[test]
    fn wire_roundtrip_unmapped() {
        let r = SamRecord::unmapped("u1", b"ACGT".to_vec(), vec![2; 4]);
        let bytes = r.to_wire_bytes();
        let back = SamRecord::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.ref_id, NO_REF);
        assert_eq!(r.encoded_len(), bytes.len());
    }

    /// One record of every wire shape: mapped, unmapped with a `*`
    /// CIGAR, empty and present read group, soft clips, a spliced span,
    /// and fields whose varints take several bytes.
    fn record_shapes() -> Vec<SamRecord> {
        let mut clipped = mapped_record("readX", 2, 12345, "5S90M5S");
        clipped.flags.set(Flags::PAIRED, true);
        clipped.flags.set(Flags::REVERSE, true);
        clipped.mate_ref_id = 2;
        clipped.mate_pos = 12000;
        clipped.tlen = -445;
        clipped.read_group = "rg1".into();
        clipped.alignment_score = -87;
        clipped.edit_distance = 3;
        let mut wide = mapped_record(&"n".repeat(200), 70_000, 1 << 40, "150M100000N150M");
        wide.flags = Flags(0x7ff);
        wide.flags.set(Flags::UNMAPPED, false);
        wide.mapq = 255;
        wide.mate_pos = i64::MAX;
        wide.tlen = i64::MIN;
        wide.alignment_score = i32::MIN;
        wide.edit_distance = u32::MAX;
        wide.read_group = "αβγ".into();
        vec![
            mapped_record("r", 0, 100, "50M"),
            clipped,
            wide,
            SamRecord::unmapped("u1", b"ACGT".to_vec(), vec![2; 4]),
            SamRecord::unmapped("", Vec::new(), Vec::new()),
        ]
    }

    #[test]
    fn skip_stops_where_decode_stops_and_reports_overlap() {
        let shapes = record_shapes();
        let mut wire_bytes = Vec::new();
        for r in &shapes {
            r.encode(&mut wire_bytes);
        }
        let regions = [(0, 1, 99), (0, 149, 200), (2, 12_344, 12_345), (70_000, 1 << 40, 1 << 41), (NO_REF, 0, 0)];
        for (ref_id, start, end) in regions {
            let mut skip = Cursor::new(&wire_bytes);
            let mut full = Cursor::new(&wire_bytes);
            for r in &shapes {
                let hit = SamRecord::skip_overlapping(&mut skip, ref_id, start, end).unwrap();
                assert_eq!(&SamRecord::decode(&mut full).unwrap(), r);
                assert_eq!(hit, r.overlaps(ref_id, start, end), "{} in {ref_id}:{start}-{end}", r.name);
                assert_eq!(skip.remaining(), full.remaining(), "after {}", r.name);
            }
            assert!(skip.is_empty());
        }
    }

    #[test]
    fn skip_errs_on_exactly_the_bytes_decode_errs_on() {
        fn same_outcome(bytes: &[u8], what: &str) {
            let (mut skip, mut full) = (Cursor::new(bytes), Cursor::new(bytes));
            let skipped = SamRecord::skip_overlapping(&mut skip, 0, 1, 1_000);
            match (skipped, SamRecord::decode(&mut full)) {
                (Ok(hit), Ok(rec)) => {
                    assert_eq!(hit, rec.overlaps(0, 1, 1_000), "{what}");
                    assert_eq!(skip.remaining(), full.remaining(), "{what}");
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
                (a, b) => panic!("{what}: skip {a:?}, decode {:?}", b.map(|r| r.name)),
            }
        }
        for r in record_shapes() {
            let bytes = r.to_wire_bytes();
            for cut in 0..bytes.len() {
                same_outcome(&bytes[..cut], "cut");
            }
            // Every byte to every value a length, a tag, a digit, an op
            // letter or a UTF-8 continuation could be forged into.
            for at in 0..bytes.len() {
                let mut forged = bytes.clone();
                for v in [0, 1, b'*', b'0', b'9', b'M', b'X', 0x7f, 0x80, 0xbf, 0xc3, 0xff] {
                    forged[at] = v;
                    same_outcome(&forged, "forged");
                }
            }
        }
    }

    #[test]
    fn unclipped_5p_forward_vs_reverse() {
        let mut r = mapped_record("r", 0, 1000, "5S90M5S");
        assert_eq!(r.unclipped_5p_end(), 995);
        r.flags.set(Flags::REVERSE, true);
        // end = 1000 + 90 - 1 + 5 trailing clip
        assert_eq!(r.unclipped_5p_end(), 1094);
    }

    #[test]
    fn end_pos_and_overlap() {
        let r = mapped_record("r", 1, 100, "50M");
        assert_eq!(r.end_pos(), 149);
        assert!(r.overlaps(1, 149, 200));
        assert!(r.overlaps(1, 50, 100));
        assert!(!r.overlaps(1, 150, 200));
        assert!(!r.overlaps(0, 100, 200));
        let u = SamRecord::unmapped("u", vec![], vec![]);
        assert!(!u.overlaps(1, 0, i64::MAX));
    }

    #[test]
    fn coordinate_key_orders_unmapped_last() {
        let a = mapped_record("a", 0, 5, "10M");
        let b = mapped_record("b", 1, 1, "10M");
        let u = SamRecord::unmapped("u", vec![], vec![]);
        let mut v = [u.clone(), b.clone(), a.clone()];
        v.sort_by_key(|r| r.coordinate_key());
        assert_eq!(v[0].name, "a");
        assert_eq!(v[1].name, "b");
        assert_eq!(v[2].name, "u");
    }

    #[test]
    fn validate_checks_lengths() {
        let mut r = mapped_record("r", 0, 10, "10M");
        assert!(r.validate().is_ok());
        r.seq.pop();
        assert!(r.validate().is_err()); // seq/qual mismatch
        r.qual.pop();
        assert!(r.validate().is_err()); // cigar/seq mismatch
        r.cigar = Cigar(vec![CigarOp::Match(9)]);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validate_rejects_mapped_without_pos() {
        let mut r = mapped_record("r", 0, 10, "10M");
        r.pos = 0;
        assert!(r.validate().is_err());
        r.pos = 10;
        r.ref_id = NO_REF;
        assert!(r.validate().is_err());
    }

    #[test]
    fn quality_sum_threshold() {
        let mut r = mapped_record("r", 0, 10, "4M");
        r.qual = vec![10, 15, 20, 40];
        assert_eq!(r.quality_sum(), 75);
    }
}
