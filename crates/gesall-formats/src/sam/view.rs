//! A SAM record read where it lies: one wire record's bytes, windowed.
//!
//! [`SamView`] is the record type of the shuffle rounds that only key,
//! route and flag records (DESIGN.md "Records as views"). Its bytes *are*
//! [`SamRecord`](crate::sam::SamRecord)'s wire form — a window into the decompressed chunk (or
//! the shuffle segment) the record arrived in — plus what one validating
//! walk learnt of it: the fixed fields the rounds read and where the
//! variable-length ones sit. Nothing is allocated for a field; writing
//! the record is a `memcpy` of the window.

use crate::bytes::SharedBytes;
use crate::error::Result;
use crate::sam::cigar::{Cigar, CigarOp};
use crate::sam::flags::Flags;
use crate::sam::record::{decode_ref_id, span_overlaps};
use crate::wire::{Cursor, Wire};
use std::ops::Range;

/// Where one record's fields sit, and the fixed fields the rounds read,
/// as one walk over its wire bytes found them. Offsets count from the
/// record's first byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    flags: Flags,
    ref_id: i32,
    pos: i64,
    /// Reference bases the CIGAR spans (wrapping, as [`Cigar::reference_len`]).
    reference_len: u32,
    /// Clipped bases before the first and after the last aligned op.
    leading_clip: u32,
    trailing_clip: u32,
    name: Range<usize>,
    /// End of the flags varint: the record's head is `..flags_end`.
    flags_end: usize,
    seq: Range<usize>,
    qual: Range<usize>,
    read_group: Range<usize>,
    /// The whole record's length.
    pub(crate) len: usize,
}

impl Layout {
    /// Advance `cur` past one wire record, validating every field as
    /// [`SamRecord::decode`](Wire::decode) does — so it stops, and errs,
    /// on exactly the bytes `decode` does — and say where its fields are.
    #[inline]
    pub(crate) fn walk(cur: &mut Cursor<'_>) -> Result<Layout> {
        let base = cur.position();
        let at = |cur: &Cursor<'_>| cur.position() - base;
        let span = |cur: &Cursor<'_>, len: usize| at(cur) - len..at(cur);
        let n = cur.get_str_ref()?.len();
        let name = span(cur, n);
        let flags = Flags(u32::decode(cur)? as u16);
        let flags_end = at(cur);
        let ref_id = decode_ref_id(cur)?;
        let pos = i64::decode(cur)?;
        u32::decode(cur)?; // mapq
        let (mut reference_len, mut leading_clip, mut trailing_clip) = (0u32, 0u32, 0u32);
        let mut aligned = false;
        Cigar::scan(cur.get_str_ref()?, |op| match op {
            CigarOp::SoftClip(n) | CigarOp::HardClip(n) => {
                trailing_clip = trailing_clip.wrapping_add(n);
                if !aligned {
                    leading_clip = leading_clip.wrapping_add(n);
                }
            }
            op => {
                aligned = true;
                trailing_clip = 0;
                if op.consumes_reference() {
                    reference_len = reference_len.wrapping_add(op.len());
                }
            }
        })?;
        decode_ref_id(cur)?; // mate_ref_id
        i64::decode(cur)?; // mate_pos
        i64::decode(cur)?; // tlen
        let n = cur.get_bytes()?.len();
        let seq = span(cur, n);
        let n = cur.get_bytes()?.len();
        let qual = span(cur, n);
        let n = cur.get_str_ref()?.len();
        let read_group = span(cur, n);
        i64::decode(cur)?; // alignment_score
        u32::decode(cur)?; // edit_distance
        Ok(Layout {
            flags,
            ref_id,
            pos,
            reference_len,
            leading_clip,
            trailing_clip,
            name,
            flags_end,
            seq,
            qual,
            read_group,
            len: at(cur),
        })
    }

    /// [`SamRecord::overlaps`](crate::sam::SamRecord::overlaps) of the
    /// walked record.
    pub(crate) fn overlaps(&self, ref_id: i32, start: i64, end: i64) -> bool {
        !self.flags.is_unmapped()
            && span_overlaps((self.ref_id, self.pos, self.reference_len), (ref_id, start, end))
    }

    /// The record's qualities open for rewriting, given its bytes.
    pub(crate) fn qualities_mut<'a>(&self, record: &'a mut [u8]) -> QualitiesMut<'a> {
        let (head, tail) = record.split_at_mut(self.qual.start);
        let head: &'a [u8] = head;
        let (qual, tail) = tail.split_at_mut(self.qual.len());
        let tail: &'a [u8] = tail;
        let read_group = &tail[self.read_group.start - self.qual.end..self.read_group.end - self.qual.end];
        QualitiesMut {
            flags: self.flags,
            read_group: std::str::from_utf8(read_group).expect("the walk validated the read group"),
            seq: &head[self.seq.clone()],
            qual,
        }
    }
}

/// One record of a decompressed chunk with its qualities writable in
/// place — all PrintReads changes. The rest of the record is read-only:
/// its length cannot change, so the chunk's other records stay where
/// they are.
pub struct QualitiesMut<'a> {
    pub flags: Flags,
    pub read_group: &'a str,
    pub seq: &'a [u8],
    pub qual: &'a mut [u8],
}

/// A SAM record as a window over its wire bytes. See the module docs.
///
/// Cloning bumps a refcount; [`SamView::set_flag`] copies on write.
#[derive(Clone)]
pub struct SamView {
    bytes: SharedBytes,
    layout: Layout,
}

impl SamView {
    /// The view of the record `bytes` holds exactly, as `layout` found it.
    pub(crate) fn from_parts(bytes: SharedBytes, layout: Layout) -> SamView {
        debug_assert_eq!(bytes.len(), layout.len);
        SamView { bytes, layout }
    }

    /// The record's wire bytes: `SamRecord::encode` of the record they
    /// were written from.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The record's fields, as [`SamRecord::decode`](Wire::decode) of its
    /// bytes.
    pub fn to_record(&self) -> crate::sam::SamRecord {
        crate::sam::SamRecord::from_wire_bytes(&self.bytes).expect("a view's bytes were walked")
    }

    #[inline]
    fn str_at(&self, range: &Range<usize>) -> &str {
        std::str::from_utf8(&self.bytes[range.clone()]).expect("the walk validated utf-8")
    }

    /// `QNAME`.
    #[inline]
    pub fn name(&self) -> &str {
        self.str_at(&self.layout.name)
    }

    #[inline]
    pub fn flags(&self) -> Flags {
        self.layout.flags
    }

    #[inline]
    pub fn ref_id(&self) -> i32 {
        self.layout.ref_id
    }

    #[inline]
    pub fn pos(&self) -> i64 {
        self.layout.pos
    }

    /// `SEQ` as ASCII bases.
    #[inline]
    pub fn seq(&self) -> &[u8] {
        &self.bytes[self.layout.seq.clone()]
    }

    /// `QUAL` as raw Phred scores.
    #[inline]
    pub fn qual(&self) -> &[u8] {
        &self.bytes[self.layout.qual.clone()]
    }

    /// `RG:Z` ("" = absent).
    #[inline]
    pub fn read_group(&self) -> &str {
        self.str_at(&self.layout.read_group)
    }

    #[inline]
    pub fn is_mapped(&self) -> bool {
        !self.layout.flags.is_unmapped()
    }

    /// [`SamRecord::coordinate_key`](crate::sam::SamRecord::coordinate_key).
    #[inline]
    pub fn coordinate_key(&self) -> (i32, i64) {
        if self.is_mapped() {
            (self.layout.ref_id, self.layout.pos)
        } else {
            (i32::MAX, i64::MAX)
        }
    }

    /// [`SamRecord::end_pos`](crate::sam::SamRecord::end_pos).
    #[inline]
    pub fn end_pos(&self) -> i64 {
        if !self.is_mapped() {
            return 0;
        }
        self.layout
            .pos
            .wrapping_add(self.layout.reference_len as i64)
            .wrapping_sub(1)
    }

    /// [`SamRecord::unclipped_5p_end`](crate::sam::SamRecord::unclipped_5p_end).
    #[inline]
    pub fn unclipped_5p_end(&self) -> i64 {
        let l = &self.layout;
        if l.flags.is_reverse() {
            l.pos
                .wrapping_add(l.reference_len as i64)
                .wrapping_sub(1)
                .wrapping_add(l.trailing_clip as i64)
        } else {
            l.pos.wrapping_sub(l.leading_clip as i64)
        }
    }

    /// [`SamRecord::strand`](crate::sam::SamRecord::strand).
    #[inline]
    pub fn strand(&self) -> u8 {
        if self.layout.flags.is_reverse() {
            b'R'
        } else {
            b'F'
        }
    }

    /// [`SamRecord::quality_sum`](crate::sam::SamRecord::quality_sum).
    pub fn quality_sum(&self) -> u64 {
        crate::quality::quality_sum(self.qual(), 15)
    }

    /// Set or clear one flag bit. Copy on write, and only when the bit
    /// changes: the record's head (name and flags) is re-encoded in
    /// front of its unchanged tail, so the bytes stay `SamRecord::encode`
    /// of the edited record even when the flags varint changes width.
    pub fn set_flag(&mut self, bit: u16, on: bool) {
        let mut flags = self.layout.flags;
        flags.set(bit, on);
        if flags == self.layout.flags {
            return;
        }
        let l = &mut self.layout;
        let mut bytes = Vec::with_capacity(l.len + 1);
        bytes.extend_from_slice(&self.bytes[..l.name.end]);
        (flags.0 as u32).encode(&mut bytes);
        let (old_end, new_end) = (l.flags_end, bytes.len());
        bytes.extend_from_slice(&self.bytes[old_end..]);
        for r in [&mut l.seq, &mut l.qual, &mut l.read_group] {
            *r = r.start - old_end + new_end..r.end - old_end + new_end;
        }
        l.len = bytes.len();
        l.flags_end = new_end;
        l.flags = flags;
        self.bytes = SharedBytes::from_vec(bytes);
    }
}

impl PartialEq for SamView {
    fn eq(&self, other: &SamView) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for SamView {}

impl std::fmt::Debug for SamView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamView")
            .field("name", &self.name())
            .field("flags", &self.layout.flags)
            .field("ref_id", &self.layout.ref_id)
            .field("pos", &self.layout.pos)
            .field("len", &self.layout.len)
            .finish()
    }
}

impl Wire for SamView {
    /// As [`SamRecord`](crate::sam::SamRecord)'s: the bytes are the same.
    const MIN_ENCODED_LEN: usize = 14;

    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.bytes);
    }

    #[inline]
    fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// The walk, then one copy of the walked bytes.
    fn decode(cur: &mut Cursor<'_>) -> Result<SamView> {
        let bytes = cur.rest();
        let layout = Layout::walk(cur)?;
        Ok(SamView {
            bytes: SharedBytes::copy_from_slice(&bytes[..layout.len]),
            layout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam::SamRecord;

    fn record(name: &str, flags: u16, cigar: &str) -> SamRecord {
        let cigar = Cigar::parse(cigar).unwrap();
        let n = cigar.query_len() as usize;
        let mut r = SamRecord::unmapped(name, vec![b'A'; n], (0..n as u8).collect());
        r.flags = Flags(flags);
        r.ref_id = 1;
        r.pos = 1_000;
        r.cigar = cigar;
        r.read_group = "rg".into();
        r
    }

    fn view_of(r: &SamRecord) -> SamView {
        SamView::from_wire_bytes(&r.to_wire_bytes()).unwrap()
    }

    #[test]
    fn accessors_read_the_fields_the_owned_record_holds() {
        for (flags, cigar) in [(0, "3S40M2I5M4H"), (Flags::REVERSE, "2H3S40M7S"), (Flags::UNMAPPED, "*"), (0, "7S")] {
            let r = record("read/1", flags | Flags::PAIRED, cigar);
            let v = view_of(&r);
            assert_eq!(v.name(), r.name);
            assert_eq!(v.flags(), r.flags);
            assert_eq!((v.ref_id(), v.pos()), (r.ref_id, r.pos));
            assert_eq!(v.seq(), r.seq);
            assert_eq!(v.qual(), r.qual);
            assert_eq!(v.read_group(), r.read_group);
            assert_eq!(v.coordinate_key(), r.coordinate_key());
            assert_eq!(v.end_pos(), r.end_pos(), "{cigar}");
            assert_eq!(v.unclipped_5p_end(), r.unclipped_5p_end(), "{cigar}");
            assert_eq!(v.strand(), r.strand());
            assert_eq!(v.quality_sum(), r.quality_sum());
            assert_eq!(v.to_record(), r);
            assert_eq!(v.encoded_len(), r.encoded_len());
            assert_eq!(v.to_wire_bytes(), r.to_wire_bytes());
        }
    }

    #[test]
    fn set_flag_writes_what_the_owned_record_encodes_even_when_the_varint_widens() {
        // PAIRED | REVERSE is one varint byte; DUPLICATE (0x400) makes it two.
        let r = record("n", Flags::PAIRED | Flags::REVERSE, "5S20M");
        let mut v = view_of(&r);
        let before = v.as_bytes().as_ptr();
        v.set_flag(Flags::DUPLICATE, false);
        assert_eq!(v.as_bytes().as_ptr(), before, "an unchanged bit copies nothing");

        let mut dup = r.clone();
        dup.flags.set(Flags::DUPLICATE, true);
        v.set_flag(Flags::DUPLICATE, true);
        assert_eq!(r.to_wire_bytes().len() + 1, dup.to_wire_bytes().len());
        assert_eq!(v.as_bytes(), dup.to_wire_bytes());
        assert_eq!(v.flags(), dup.flags);
        assert_eq!((v.seq(), v.qual(), v.read_group()), (&dup.seq[..], &dup.qual[..], "rg"));
        assert_eq!(v.layout, view_of(&dup).layout, "the edited layout is the walk's");
        assert_eq!(v.unclipped_5p_end(), dup.unclipped_5p_end());

        // And back: two bytes narrow to one.
        v.set_flag(Flags::DUPLICATE, false);
        assert_eq!(v.as_bytes(), r.to_wire_bytes());
        assert_eq!(v.layout, view_of(&r).layout);
    }

    #[test]
    fn qualities_rewritten_in_place_are_the_records_and_nothing_else_moves() {
        let r = record("q", Flags::REVERSE, "10M");
        let mut bytes = r.to_wire_bytes();
        let layout = Layout::walk(&mut Cursor::new(&bytes)).unwrap();
        let q = layout.qualities_mut(&mut bytes);
        assert_eq!((q.flags, q.read_group, q.seq), (r.flags, "rg", &r.seq[..]));
        q.qual.iter_mut().for_each(|b| *b += 1);
        let mut want = r.clone();
        want.qual.iter_mut().for_each(|b| *b += 1);
        assert_eq!(bytes, want.to_wire_bytes());
    }
}
