//! FASTQ — the raw sequencer output format.
//!
//! Each record is four lines:
//!
//! ```text
//! @<read name> [description]
//! <bases>
//! +
//! <Phred+33 qualities>
//! ```
//!
//! Paired-end data arrives either as two parallel files (`_1.fastq` /
//! `_2.fastq`, same read names in the same order) or as a single
//! *interleaved* file alternating mate 1 and mate 2. Gesall's alignment
//! round consumes the interleaved layout so that a logical partition always
//! contains both reads of a pair (paper §3.2, Group Partitioning).

use crate::error::{FormatError, Result};
use crate::quality::{decode_phred33, encode_phred33};
use std::io::{BufRead, Write};

/// One sequencing read: name, bases (ASCII), and raw Phred scores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read name without the leading `@`; paired reads share a name.
    pub name: String,
    /// Base calls as ASCII `ACGTN`.
    pub seq: Vec<u8>,
    /// Raw Phred scores (not ASCII-offset), one per base.
    pub qual: Vec<u8>,
}

impl FastqRecord {
    /// Construct a record, checking the seq/qual length invariant.
    pub fn new(name: impl Into<String>, seq: Vec<u8>, qual: Vec<u8>) -> Result<FastqRecord> {
        if seq.len() != qual.len() {
            return Err(FormatError::Fastq(format!(
                "sequence length {} != quality length {}",
                seq.len(),
                qual.len()
            )));
        }
        Ok(FastqRecord {
            name: name.into(),
            seq,
            qual,
        })
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True for a zero-length read.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A pair of reads from one DNA fragment: forward (`r1`) and reverse (`r2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPair {
    pub r1: FastqRecord,
    pub r2: FastqRecord,
}

impl ReadPair {
    /// Pair two records, enforcing the shared-read-name invariant.
    pub fn new(r1: FastqRecord, r2: FastqRecord) -> Result<ReadPair> {
        if r1.name != r2.name {
            return Err(FormatError::Fastq(format!(
                "paired reads have different names: {:?} vs {:?}",
                r1.name, r2.name
            )));
        }
        Ok(ReadPair { r1, r2 })
    }

    /// The shared read name.
    pub fn name(&self) -> &str {
        &self.r1.name
    }
}

impl crate::wire::Wire for FastqRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.seq.encode(buf);
        self.qual.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.name.encoded_len() + self.seq.encoded_len() + self.qual.encoded_len()
    }

    fn decode(cur: &mut crate::wire::Cursor<'_>) -> Result<Self> {
        let name = String::decode(cur)?;
        let seq = Vec::<u8>::decode(cur)?;
        let qual = Vec::<u8>::decode(cur)?;
        FastqRecord::new(name, seq, qual)
    }
}

impl crate::wire::Wire for ReadPair {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.r1.encode(buf);
        self.r2.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.r1.encoded_len() + self.r2.encoded_len()
    }

    fn decode(cur: &mut crate::wire::Cursor<'_>) -> Result<Self> {
        let r1 = FastqRecord::decode(cur)?;
        let r2 = FastqRecord::decode(cur)?;
        ReadPair::new(r1, r2)
    }
}

/// Streaming FASTQ reader over any [`BufRead`] source.
pub struct FastqReader<R: BufRead> {
    inner: R,
    line_no: u64,
    buf: String,
}

impl<R: BufRead> FastqReader<R> {
    pub fn new(inner: R) -> FastqReader<R> {
        FastqReader {
            inner,
            line_no: 0,
            buf: String::new(),
        }
    }

    fn next_line(&mut self) -> Result<Option<&str>> {
        self.buf.clear();
        let n = self.inner.read_line(&mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.line_no += 1;
        Ok(Some(self.buf.trim_end_matches(['\n', '\r'])))
    }

    /// Read the next record, or `Ok(None)` at clean end-of-file.
    pub fn read_record(&mut self) -> Result<Option<FastqRecord>> {
        let header = match self.next_line()? {
            None => return Ok(None),
            Some("") => return Ok(None),
            Some(l) => l.to_string(),
        };
        if !header.starts_with('@') {
            return Err(FormatError::Fastq(format!(
                "line {}: expected '@', found {:?}",
                self.line_no, header
            )));
        }
        // Name is the first whitespace-delimited token after '@'.
        let name = header[1..]
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_string();
        let seq = self
            .next_line()?
            .ok_or_else(|| FormatError::Fastq("truncated record: missing sequence".into()))?
            .as_bytes()
            .to_vec();
        let plus = self
            .next_line()?
            .ok_or_else(|| FormatError::Fastq("truncated record: missing '+' line".into()))?
            .to_string();
        if !plus.starts_with('+') {
            return Err(FormatError::Fastq(format!(
                "line {}: expected '+', found {:?}",
                self.line_no, plus
            )));
        }
        let qual_ascii = self
            .next_line()?
            .ok_or_else(|| FormatError::Fastq("truncated record: missing qualities".into()))?
            .as_bytes()
            .to_vec();
        let qual = decode_phred33(&qual_ascii).ok_or_else(|| {
            FormatError::Fastq(format!("line {}: invalid quality bytes", self.line_no))
        })?;
        if seq.len() != qual.len() {
            return Err(FormatError::Fastq(format!(
                "line {}: seq len {} != qual len {}",
                self.line_no,
                seq.len(),
                qual.len()
            )));
        }
        Ok(Some(FastqRecord { name, seq, qual }))
    }

    /// Drain all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<FastqRecord>> {
        let mut out = Vec::new();
        while let Some(r) = self.read_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Write one FASTQ record to `w`.
pub fn write_record<W: Write>(w: &mut W, rec: &FastqRecord) -> Result<()> {
    w.write_all(b"@")?;
    w.write_all(rec.name.as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(&rec.seq)?;
    w.write_all(b"\n+\n")?;
    w.write_all(&encode_phred33(&rec.qual))?;
    w.write_all(b"\n")?;
    Ok(())
}

/// Serialize records to an in-memory FASTQ byte buffer.
pub fn to_bytes(records: &[FastqRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in records {
        write_record(&mut buf, r).expect("writing to Vec cannot fail");
    }
    buf
}

/// Parse an in-memory FASTQ buffer.
pub fn from_bytes(data: &[u8]) -> Result<Vec<FastqRecord>> {
    FastqReader::new(data).read_all()
}

/// Merge two mate files (sorted identically by read name, as sequencers
/// emit them) into a single interleaved stream of [`ReadPair`]s — the
/// preprocessing step Gesall performs before loading logical partitions
/// into the DFS (paper §3.2, Alignment).
pub fn interleave(r1s: Vec<FastqRecord>, r2s: Vec<FastqRecord>) -> Result<Vec<ReadPair>> {
    if r1s.len() != r2s.len() {
        return Err(FormatError::Fastq(format!(
            "mate files have different record counts: {} vs {}",
            r1s.len(),
            r2s.len()
        )));
    }
    r1s.into_iter()
        .zip(r2s)
        .map(|(a, b)| ReadPair::new(a, b))
        .collect()
}

/// Serialize pairs into an interleaved FASTQ byte buffer (r1 then r2 for
/// each fragment). The inverse of [`pairs_from_interleaved_bytes`].
pub fn pairs_to_interleaved_bytes(pairs: &[ReadPair]) -> Vec<u8> {
    let mut buf = Vec::new();
    for p in pairs {
        write_record(&mut buf, &p.r1).expect("writing to Vec cannot fail");
        write_record(&mut buf, &p.r2).expect("writing to Vec cannot fail");
    }
    buf
}

/// Parse an interleaved FASTQ buffer back into pairs, verifying the
/// pairing invariant.
pub fn pairs_from_interleaved_bytes(data: &[u8]) -> Result<Vec<ReadPair>> {
    let recs = from_bytes(data)?;
    if recs.len() % 2 != 0 {
        return Err(FormatError::Fastq(format!(
            "interleaved file holds an odd number of records ({})",
            recs.len()
        )));
    }
    let mut pairs = Vec::with_capacity(recs.len() / 2);
    let mut it = recs.into_iter();
    while let (Some(a), Some(b)) = (it.next(), it.next()) {
        pairs.push(ReadPair::new(a, b)?);
    }
    Ok(pairs)
}

/// Split interleaved pairs into `n` logical partitions of (nearly) equal
/// pair counts, never splitting a pair — the logical-partitioning criterion
/// for Bwa (paper §3.2).
pub fn split_pairs_into_partitions(pairs: Vec<ReadPair>, n: usize) -> Vec<Vec<ReadPair>> {
    assert!(n > 0, "partition count must be positive");
    let total = pairs.len();
    let base = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n);
    let mut it = pairs.into_iter();
    for i in 0..n {
        let take = base + usize::from(i < extra);
        out.push(it.by_ref().take(take).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, seq: &[u8]) -> FastqRecord {
        FastqRecord::new(name, seq.to_vec(), vec![30; seq.len()]).unwrap()
    }

    #[test]
    fn roundtrip_single_record() {
        let r = rec("read/1", b"ACGTACGT");
        let bytes = to_bytes(std::slice::from_ref(&r));
        let parsed = from_bytes(&bytes).unwrap();
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn name_stops_at_whitespace() {
        let data = b"@r1 extra description\nACGT\n+\nIIII\n";
        let parsed = from_bytes(data).unwrap();
        assert_eq!(parsed[0].name, "r1");
        assert_eq!(parsed[0].qual, vec![40; 4]);
    }

    #[test]
    fn rejects_bad_marker_lines() {
        assert!(from_bytes(b"rX\nACGT\n+\nIIII\n").is_err());
        assert!(from_bytes(b"@rX\nACGT\n-\nIIII\n").is_err());
    }

    #[test]
    fn rejects_length_mismatch() {
        assert!(from_bytes(b"@rX\nACGT\n+\nIII\n").is_err());
        assert!(FastqRecord::new("x", b"AC".to_vec(), vec![1]).is_err());
    }

    #[test]
    fn truncation_detected() {
        assert!(from_bytes(b"@rX\nACGT\n").is_err());
        assert!(from_bytes(b"@rX\nACGT\n+\n").is_err());
    }

    #[test]
    fn interleave_pairs_roundtrip() {
        let r1s = vec![rec("a", b"AAAA"), rec("b", b"CCCC")];
        let r2s = vec![rec("a", b"TTTT"), rec("b", b"GGGG")];
        let pairs = interleave(r1s, r2s).unwrap();
        assert_eq!(pairs.len(), 2);
        let bytes = pairs_to_interleaved_bytes(&pairs);
        let back = pairs_from_interleaved_bytes(&bytes).unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn interleave_rejects_mismatches() {
        assert!(interleave(vec![rec("a", b"A")], vec![]).is_err());
        assert!(interleave(vec![rec("a", b"A")], vec![rec("b", b"A")]).is_err());
    }

    #[test]
    fn partition_split_never_splits_pairs() {
        let pairs: Vec<ReadPair> = (0..10)
            .map(|i| {
                let name = format!("p{i}");
                ReadPair::new(rec(&name, b"ACGT"), rec(&name, b"TTTT")).unwrap()
            })
            .collect();
        let parts = split_pairs_into_partitions(pairs.clone(), 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 10);
        // Sizes differ by at most one.
        let max = parts.iter().map(Vec::len).max().unwrap();
        let min = parts.iter().map(Vec::len).min().unwrap();
        assert!(max - min <= 1);
        // Order preserved.
        let flat: Vec<_> = parts.concat();
        assert_eq!(flat, pairs);
    }

    #[test]
    fn partition_split_more_parts_than_pairs() {
        let pairs = vec![ReadPair::new(rec("a", b"A"), rec("a", b"T")).unwrap()];
        let parts = split_pairs_into_partitions(pairs, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 1);
    }
}
