//! The sort-spill-merge pipeline.
//!
//! Map side: emitted records serialize into a bounded **sort buffer**
//! (`io.sort.mb`). A full buffer is sorted by (partition, key) and
//! spilled; when the map function finishes, all spills are merged into a
//! single sorted, partitioned output (the *map-side merge* whose disk
//! contention dominates Fig. 5(b) at large partition sizes). Sort,
//! spill and merge all run on the map attempt's own thread — the ledger
//! prices the sort at under 2 % of slot time, nothing worth hiding behind
//! a second thread — so the phases of an attempt partition its wall and
//! the merged output is a function of the emitted records alone.
//!
//! Reduce side: each reducer fetches its partition's segment from every
//! map output and runs a **multipass merge** bounded by `merge_factor`
//! — the quadratic-in-data-per-disk behaviour of Li et al. \[15\] that
//! explains the paper's disk findings (Appendix B.1).
//!
//! This module holds what travels between the two sides — the
//! [`Segment`] and its wire frame; `sort` holds the map side
//! ([`SpillArena`], the radix spill sort, [`SortSpillBuffer`]) and
//! `merge` the reduce side (the loser tree, [`merge_runs`],
//! [`reduce_merge_streamed`]).

use gesall_formats::wire::{put_u64, Cursor, Wire};
use gesall_formats::{Codec, FormatError, SharedBytes};

mod merge;
mod sort;

pub use merge::{merge_runs, reduce_merge_streamed};
pub use sort::{SortSpillBuffer, SpillArena, SPILL_ARENA_MAX_FREE};

/// Compression threshold: a partition payload smaller than this travels
/// raw — the codec container + dictionary warm-up costs more than it
/// saves on tiny segments.
pub const COMPRESS_MIN_BYTES: usize = 1024;

/// The codec map-output partitions of at least [`COMPRESS_MIN_BYTES`]
/// travel under (the paper's Snappy setting), for every record type: on
/// an in-process DFS the bytes [`Codec::Seq`] saves on alignment records
/// buy nothing and its encode costs twice Lz's (DESIGN.md §14).
pub const SHUFFLE_CODEC: Codec = Codec::Lz;

/// One sorted run of encoded (key, value) records.
///
/// The payload is a [`SharedBytes`] window, so a reduce-side fetch of a
/// map output clones a reference into the map task's single output
/// backing instead of memcpy'ing the bytes (assert with
/// [`SharedBytes::same_backing`]). The codec tag travels with the
/// window: a compressed segment ships by reference end-to-end and is
/// decoded exactly once, at the reduce-side merge.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Possibly-compressed payload, shared with its siblings from the
    /// same map task.
    pub data: SharedBytes,
    /// Uncompressed payload length.
    pub raw_len: usize,
    /// Record count.
    pub records: u64,
    /// Codec [`Segment::data`] is encoded under.
    pub codec: Codec,
}

impl Segment {
    pub fn empty() -> Segment {
        Segment {
            data: SharedBytes::new(),
            raw_len: 0,
            records: 0,
            codec: Codec::Raw,
        }
    }

    /// Serialize a sorted run of typed pairs under exactly `codec` (an
    /// empty run stays raw, so zero-length segments never carry a codec
    /// container). The encode buffer is pre-sized from
    /// [`Wire::encoded_len`].
    pub fn from_pairs<K: Wire, V: Wire>(pairs: &[(K, V)], codec: Codec) -> Segment {
        let raw_len: usize = pairs
            .iter()
            .map(|(k, v)| k.encoded_len() + v.encoded_len())
            .sum();
        let mut raw = Vec::with_capacity(raw_len);
        encode_pairs(pairs, &mut raw);
        debug_assert_eq!(raw.len(), raw_len, "encoded_len must be exact");
        let codec = if raw_len == 0 { Codec::Raw } else { codec };
        let data = if codec.is_compressed() {
            let mut data = Vec::new();
            codec.encode_append(&raw, &mut data);
            data
        } else {
            raw
        };
        Segment {
            data: SharedBytes::from_vec(data),
            raw_len,
            records: pairs.len() as u64,
            codec,
        }
    }

    /// Decode back into typed pairs.
    pub fn to_pairs<K: Wire, V: Wire>(&self) -> Vec<(K, V)> {
        let raw_storage;
        let raw: &[u8] = if self.codec.is_compressed() {
            raw_storage = self.codec.decode(&self.data).expect("segment payload corrupt");
            &raw_storage
        } else {
            &self.data
        };
        let mut cur = Cursor::new(raw);
        // The count is the frame header's, untrusted: reserve no more
        // pairs than the payload can hold, as `Cursor::get_count` does.
        let fit = raw.len() / <(K, V)>::MIN_ENCODED_LEN.max(1);
        let mut out = Vec::with_capacity(usize::try_from(self.records).map_or(fit, |n| n.min(fit)));
        for _ in 0..self.records {
            let k = K::decode(&mut cur).expect("segment key corrupt");
            let v = V::decode(&mut cur).expect("segment value corrupt");
            out.push((k, v));
        }
        assert!(cur.is_empty(), "trailing bytes in segment");
        out
    }

    /// Bytes that travel over the wire for this segment.
    pub fn wire_len(&self) -> usize {
        self.data.len()
    }

    /// Does [`Segment::data`] need decoding before use?
    pub fn is_compressed(&self) -> bool {
        self.codec.is_compressed()
    }
}

/// Append the wire encoding of `pairs` to `out`.
fn encode_pairs<K: Wire, V: Wire>(pairs: &[(K, V)], out: &mut Vec<u8>) {
    for (k, v) in pairs {
        k.encode(out);
        v.encode(out);
    }
}

/// Bytes a segment frame's header occupies on the wire:
/// `[codec tag u8][records u64][raw_len u64][data_len u64]`.
pub const FRAME_HEADER_BYTES: usize = 1 + 8 + 8 + 8;

/// Append a segment's wire frame — header plus payload — to `out`.
/// This is the one place a map output's payload is memcpy'd on its way
/// into DFS; the caller accounts the copy.
pub fn write_frame(seg: &Segment, out: &mut Vec<u8>) {
    out.push(seg.codec.tag());
    put_u64(out, seg.records);
    put_u64(out, seg.raw_len as u64);
    put_u64(out, seg.data.len() as u64);
    out.extend_from_slice(&seg.data);
}

/// Parse the segment frame starting at `offset` in `bytes`, returning
/// the segment and the offset just past it. The payload is a zero-copy
/// window of `bytes` — `same_backing` holds between the returned
/// segment and the enclosing buffer, so a compressed frame read out of
/// a (possibly mmap-backed) DFS block travels onward as a refcount
/// bump.
pub fn read_frame(bytes: &SharedBytes, offset: usize) -> gesall_formats::Result<(Segment, usize)> {
    let buf: &[u8] = bytes;
    // Checked arithmetic throughout: the header is untrusted bytes, and a
    // hostile offset or length must fail here, not wrap past the buffer.
    let data_start = offset
        .checked_add(FRAME_HEADER_BYTES)
        .filter(|&end| end <= buf.len())
        .ok_or_else(|| {
            FormatError::Bam(format!(
                "truncated segment frame header at offset {offset} (buffer {} bytes)",
                buf.len()
            ))
        })?;
    let codec = Codec::from_tag(buf[offset])?;
    let mut cur = Cursor::new(&buf[offset + 1..data_start]);
    let records = cur.get_u64()?;
    let raw_len = cur.get_u64()? as usize;
    let data_len = cur.get_u64()?;
    let data_end = usize::try_from(data_len)
        .ok()
        .and_then(|len| data_start.checked_add(len))
        .filter(|&end| end <= buf.len())
        .ok_or_else(|| {
            FormatError::Bam(format!(
                "truncated segment frame payload: wanted {data_len} bytes at {data_start}, buffer {}",
                buf.len()
            ))
        })?;
    let seg = Segment {
        data: bytes.slice(data_start..data_end),
        raw_len,
        records,
        codec,
    };
    Ok((seg, data_end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_roundtrip_compressed_and_raw() {
        let pairs: Vec<(String, u64)> = (0..500)
            .map(|i| (format!("key{:04}", i % 50), i))
            .collect();
        for codec in [Codec::Raw, Codec::Lz] {
            let seg = Segment::from_pairs(&pairs, codec);
            assert_eq!(seg.records, 500);
            assert_eq!(seg.codec, codec);
            let back: Vec<(String, u64)> = seg.to_pairs();
            assert_eq!(back, pairs);
            if codec.is_compressed() {
                assert!(seg.wire_len() < seg.raw_len, "repetitive keys compress");
            }
        }
        // Empty payloads never carry a codec container.
        let seg = Segment::from_pairs::<String, u64>(&[], Codec::Lz);
        assert_eq!(seg.codec, Codec::Raw);
        assert_eq!(seg.wire_len(), 0);
    }

    #[test]
    fn frame_roundtrip_is_zero_copy() {
        let a = Segment::from_pairs(&[(1u64, 10u64), (2, 20)], Codec::Raw);
        let b = Segment::from_pairs(
            &(0..300u64).map(|i| (i % 9, i)).collect::<Vec<_>>(),
            Codec::Lz,
        );
        assert!(b.is_compressed());
        let mut wire = Vec::new();
        write_frame(&a, &mut wire);
        write_frame(&b, &mut wire);
        let wire = SharedBytes::from_vec(wire);
        let (ra, next) = read_frame(&wire, 0).unwrap();
        let (rb, end) = read_frame(&wire, next).unwrap();
        assert_eq!(end, wire.len());
        assert_eq!(ra.records, a.records);
        assert_eq!(ra.codec, Codec::Raw);
        assert_eq!(rb.codec, Codec::Lz);
        assert_eq!(rb.raw_len, b.raw_len);
        // The decoded payloads are windows of the enclosing buffer — a
        // compressed frame travels onward as a refcount bump.
        assert!(ra.data.same_backing(&wire));
        assert!(rb.data.same_backing(&wire));
        assert_eq!(ra.to_pairs::<u64, u64>(), a.to_pairs::<u64, u64>());
        assert_eq!(rb.to_pairs::<u64, u64>(), b.to_pairs::<u64, u64>());
    }

    #[test]
    fn frame_rejects_truncation_and_bad_tags() {
        let seg = Segment::from_pairs(&[(7u64, 8u64)], Codec::Raw);
        let mut wire = Vec::new();
        write_frame(&seg, &mut wire);
        // Bad codec tag.
        let mut bad = wire.clone();
        bad[0] = 0x7f;
        assert!(read_frame(&SharedBytes::from_vec(bad), 0).is_err());
        // Truncated header and truncated payload.
        let hdr = SharedBytes::from_vec(wire[..FRAME_HEADER_BYTES - 1].to_vec());
        assert!(read_frame(&hdr, 0).is_err());
        let cut = SharedBytes::from_vec(wire[..wire.len() - 1].to_vec());
        assert!(read_frame(&cut, 0).is_err());
        // Offset past the end.
        let whole = SharedBytes::from_vec(wire);
        assert!(read_frame(&whole, whole.len() + 1).is_err());
    }

    #[test]
    fn read_frame_rejects_a_payload_length_past_the_address_space() {
        // A header whose `data_len` is u64::MAX must be a typed error,
        // not an overflow on `data_start + data_len`.
        let mut wire = Vec::new();
        write_frame(&Segment::from_pairs(&[(1u64, 2u64)], Codec::Raw), &mut wire);
        wire[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&SharedBytes::from_vec(wire.clone()), 0).unwrap_err();
        assert!(err.to_string().contains("truncated segment frame payload"), "{err}");
        // Nor may an offset near usize::MAX wrap the header check.
        assert!(read_frame(&SharedBytes::from_vec(wire), usize::MAX - 3).is_err());
    }

    #[test]
    #[should_panic(expected = "segment key corrupt")]
    fn a_forged_record_count_fails_on_the_first_missing_key_not_in_the_allocator() {
        // Eight one-byte pairs (16 bytes of payload) under a header
        // claiming 2^40 records: decoding reserves what 16 bytes can hold
        // and panics — an attempt failure — when the ninth key is absent.
        let pairs: Vec<(u64, u64)> = (0..8).map(|i| (i, i)).collect();
        let mut wire = Vec::new();
        write_frame(&Segment::from_pairs(&pairs, Codec::Raw), &mut wire);
        wire[1..9].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let (seg, _) = read_frame(&SharedBytes::from_vec(wire), 0).unwrap();
        assert_eq!((seg.records, seg.wire_len()), (1 << 40, 16));
        seg.to_pairs::<u64, u64>();
    }
}
