//! Minimal byte-level encode/decode helpers shared by the BAM container,
//! the MapReduce shuffle (spill files, byte accounting), and the DFS.
//!
//! Everything is little-endian. Variable-length integers use LEB128-style
//! 7-bit groups.

use crate::error::{FormatError, Result};

/// Append a `u32` (little-endian).
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encoded length of a varint, without encoding it.
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ceil(bits/7), with 0 taking one byte.
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Append a varint (LEB128, unsigned).
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    if v < 0x80 {
        buf.push(v as u8);
        return;
    }
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append a length-prefixed byte slice (varint length).
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Append a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Cursor for decoding.
#[derive(Clone)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// The bytes not yet consumed.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(FormatError::Bam(format!(
                "truncated buffer: wanted {n} bytes, had {}",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_varint(&mut self) -> Result<u64> {
        // Most fields (flags aside) fit one byte.
        if let Some(&byte) = self.data.get(self.pos) {
            if byte < 0x80 {
                self.pos += 1;
                return Ok(byte as u64);
            }
        }
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .take(1)?
                .first()
                .expect("take(1) returned a 1-byte slice");
            if shift >= 64 {
                return Err(FormatError::Bam("varint overflow".into()));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// The element count of a sequence of `T`s. It is untrusted: one the
    /// remaining bytes cannot hold is refused here, before anything is
    /// reserved for it.
    pub fn get_count<T: Wire>(&mut self) -> Result<usize> {
        let n = self.get_varint()?;
        let fit = self.remaining() / T::MIN_ENCODED_LEN.max(1);
        usize::try_from(n).ok().filter(|&n| n <= fit).ok_or_else(|| {
            FormatError::Bam(format!(
                "sequence length {n} exceeds the remaining {} bytes",
                self.remaining()
            ))
        })
    }

    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_varint()? as usize;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the buffer.
    #[inline]
    pub fn get_str_ref(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|_| FormatError::Bam("invalid utf-8 in string field".into()))
    }

    pub fn get_str(&mut self) -> Result<String> {
        self.get_str_ref().map(str::to_owned)
    }
}

/// Calls that reached [`Wire::encoded_len`]'s measuring default — each
/// one an encode into a scratch vector that is thrown away. A process
/// counter because the callers are task threads in other crates; every
/// type this workspace ships overrides the default, and a test holds a
/// full pipeline run to zero.
#[doc(hidden)]
pub static ENCODED_LEN_BY_ENCODING: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(0);

/// Types with a stable byte encoding — used for BAM records, shuffle keys
/// and values, and spill files.
pub trait Wire: Sized {
    /// The fewest bytes any value of the type encodes to. An element
    /// count read from untrusted bytes is held to it: a `Vec<T>` never
    /// reserves for more elements than the bytes behind the count can
    /// hold.
    const MIN_ENCODED_LEN: usize = 1;

    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode one value from the cursor.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self>;

    /// Exact length `encode` would append, without touching a buffer.
    ///
    /// The default measures by encoding into a scratch vector; hot types
    /// (integers, strings, records on the shuffle path) override it with
    /// a closed form so the sort buffer can account record sizes without
    /// serializing anything (the zero-copy `emit` path).
    fn encoded_len(&self) -> usize {
        ENCODED_LEN_BY_ENCODING.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut scratch = Vec::new();
        self.encode(&mut scratch);
        scratch.len()
    }

    /// Convenience: encode to a fresh vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// A `u64` whose unsigned order is consistent with the type's `Ord`:
    /// `a < b` implies `a.sort_prefix() <= b.sort_prefix()`. The radix
    /// spill sort orders records by this prefix and only falls back to
    /// full comparison inside equal-prefix runs, so a discriminating
    /// prefix makes the sort near-linear while the default (constant 0)
    /// merely degenerates to the comparison path — never to a wrong
    /// order.
    fn sort_prefix(&self) -> u64 {
        0
    }

    /// Convenience: decode from a full buffer, requiring it be consumed.
    fn from_wire_bytes(data: &[u8]) -> Result<Self> {
        let mut cur = Cursor::new(data);
        let v = Self::decode(&mut cur)?;
        if !cur.is_empty() {
            return Err(FormatError::Bam(format!(
                "{} trailing bytes after decode",
                cur.remaining()
            )));
        }
        Ok(v)
    }
}

impl Wire for u64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    #[inline]
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        cur.get_varint()
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
    #[inline]
    fn sort_prefix(&self) -> u64 {
        *self
    }
}

impl Wire for i64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        // zigzag
        put_varint(buf, ((*self << 1) ^ (*self >> 63)) as u64);
    }
    #[inline]
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let z = cur.get_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint_len(((*self << 1) ^ (*self >> 63)) as u64)
    }
    #[inline]
    fn sort_prefix(&self) -> u64 {
        // Flip the sign bit: maps i64::MIN..=i64::MAX monotonically onto
        // 0..=u64::MAX.
        (*self as u64) ^ (1 << 63)
    }
}

impl Wire for u32 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self as u64);
    }
    #[inline]
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let v = cur.get_varint()?;
        u32::try_from(v).map_err(|_| FormatError::Bam("u32 overflow".into()))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
    #[inline]
    fn sort_prefix(&self) -> u64 {
        *self as u64
    }
}

/// First 8 bytes big-endian, zero-padded — consistent with
/// lexicographic byte order: a shorter string padded with zeros never
/// outranks one it is a prefix of.
#[inline]
fn bytes_sort_prefix(b: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = b.len().min(8);
    buf[..n].copy_from_slice(&b[..n]);
    u64::from_be_bytes(buf)
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        cur.get_str()
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
    fn sort_prefix(&self) -> u64 {
        bytes_sort_prefix(self.as_bytes())
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        Ok(cur.get_bytes()?.to_vec())
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
    fn sort_prefix(&self) -> u64 {
        bytes_sort_prefix(self)
    }
}

impl Wire for crate::bytes::SharedBytes {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        Ok(crate::bytes::SharedBytes::copy_from_slice(cur.get_bytes()?))
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

/// The empty key: a record stream whose writer needs no key.
impl Wire for () {
    const MIN_ENCODED_LEN: usize = 0;

    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_cur: &mut Cursor<'_>) -> Result<Self> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_ENCODED_LEN: usize = A::MIN_ENCODED_LEN + B::MIN_ENCODED_LEN;

    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        Ok((A::decode(cur)?, B::decode(cur)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn sort_prefix(&self) -> u64 {
        // Lexicographic tuple order starts with `A`, so `A`'s prefix
        // alone is order-consistent; `B` is resolved by the fallback.
        self.0.sort_prefix()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let n = cur.get_count::<T>()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(cur)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &vals {
            assert_eq!(cur.get_varint().unwrap(), v);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn zigzag_i64_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, -123456789] {
            let bytes = v.to_wire_bytes();
            assert_eq!(i64::from_wire_bytes(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        let s = "read/1 αβγ".to_string();
        assert_eq!(String::from_wire_bytes(&s.to_wire_bytes()).unwrap(), s);
        let b = vec![0u8, 255, 3, 7];
        assert_eq!(Vec::<u8>::from_wire_bytes(&b.to_wire_bytes()).unwrap(), b);
    }

    #[test]
    fn tuple_and_vec_roundtrip() {
        let v: Vec<(String, u64)> = vec![("a".into(), 1), ("b".into(), 2)];
        let bytes = v.to_wire_bytes();
        assert_eq!(Vec::<(String, u64)>::from_wire_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn truncation_is_an_error() {
        let s = "hello".to_string().to_wire_bytes();
        assert!(String::from_wire_bytes(&s[..s.len() - 1]).is_err());
        // Trailing garbage too.
        let mut padded = s.clone();
        padded.push(0);
        assert!(String::from_wire_bytes(&padded).is_err());
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 16383, 16384, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "varint_len({v})");
        }
    }

    #[test]
    fn encoded_len_is_exact_for_every_impl() {
        fn check<T: Wire>(v: T) {
            let bytes = v.to_wire_bytes();
            assert_eq!(v.encoded_len(), bytes.len());
        }
        check(0u64);
        check(u64::MAX);
        check(-123456789i64);
        check(i64::MIN);
        check(u32::MAX);
        check("read/1 αβγ".to_string());
        check(String::new());
        check(vec![0u8, 255, 3]);
        check(("key".to_string(), 42u64));
        check(());
        check(vec![("a".to_string(), 1u64), ("bb".to_string(), 300)]);
        check(crate::bytes::SharedBytes::copy_from_slice(&[7u8; 200]));
        let fq = |name: &str| {
            crate::fastq::FastqRecord::new(name, b"ACGTN".to_vec(), b"IIII#".to_vec())
                .unwrap()
        };
        check(fq("read/1"));
        check(crate::fastq::ReadPair::new(fq("p"), fq("p")).unwrap());
        for (pos, depth) in [(1, 0), (i64::MAX, u32::MAX), (70_000, 300)] {
            check(crate::vcf::VariantRecord {
                chrom: "chr21".into(),
                pos,
                ref_allele: "A".repeat(depth.min(200) as usize),
                alt_allele: "G".into(),
                qual: 55.5,
                genotype: crate::vcf::Genotype::HomAlt,
                depth,
                mapping_quality: 58.2,
                fisher_strand: 1.25,
                allele_balance: 0.48,
            });
        }
        assert_eq!(
            ENCODED_LEN_BY_ENCODING.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "a type in this crate measures itself by encoding"
        );
    }

    #[test]
    fn sort_prefix_is_order_consistent() {
        fn check<T: Wire + Ord + Clone + std::fmt::Debug>(mut vals: Vec<T>) {
            vals.sort();
            for w in vals.windows(2) {
                assert!(
                    w[0].sort_prefix() <= w[1].sort_prefix(),
                    "prefix order violated between {:?} and {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        check(vec![0u64, 1, 255, 256, u64::MAX, 42, 1 << 40]);
        check(vec![0i64, -1, 1, i64::MIN, i64::MAX, -255, 1 << 40]);
        check(vec![0u32, 7, u32::MAX, 300]);
        check(vec![
            String::new(),
            "a".into(),
            "ab".into(),
            "ab\0".into(),
            "abcdefghij".into(),
            "abcdefghiz".into(),
            "z".into(),
        ]);
        check(vec![
            Vec::<u8>::new(),
            vec![0],
            vec![0, 0],
            vec![255u8; 12],
            vec![1, 2, 3],
        ]);
        check(vec![(1u64, 9u64), (1, 10), (2, 0), (0, u64::MAX)]);
    }

    #[test]
    fn corrupt_vec_length_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40); // absurd element count
        assert!(Vec::<u64>::from_wire_bytes(&buf).is_err());
    }
}
