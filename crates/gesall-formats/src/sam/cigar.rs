//! CIGAR strings — per-base mapping detail including clipping.
//!
//! The 5′-unclipped-end computation in [`Cigar`] is the derived attribute
//! MarkDuplicates keys on (paper §3.2): the aligner may soft-clip
//! low-quality read ends to improve the alignment of the remainder, so two
//! reads from the same original fragment can have different `POS` values;
//! undoing the clips recovers the true fragment endpoint.

use crate::error::{FormatError, Result};
use std::fmt;

/// One CIGAR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CigarOp {
    /// Alignment match or mismatch (consumes query and reference).
    Match(u32),
    /// Insertion to the reference (consumes query only).
    Ins(u32),
    /// Deletion from the reference (consumes reference only).
    Del(u32),
    /// Soft clip: bases present in SEQ but not aligned (query only).
    SoftClip(u32),
    /// Hard clip: bases removed from SEQ entirely (consumes neither).
    HardClip(u32),
    /// Skipped reference region, e.g. introns (reference only).
    Skip(u32),
}

impl CigarOp {
    pub fn len(self) -> u32 {
        match self {
            CigarOp::Match(n)
            | CigarOp::Ins(n)
            | CigarOp::Del(n)
            | CigarOp::SoftClip(n)
            | CigarOp::HardClip(n)
            | CigarOp::Skip(n) => n,
        }
    }

    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    pub fn consumes_query(self) -> bool {
        matches!(
            self,
            CigarOp::Match(_) | CigarOp::Ins(_) | CigarOp::SoftClip(_)
        )
    }

    pub fn consumes_reference(self) -> bool {
        matches!(self, CigarOp::Match(_) | CigarOp::Del(_) | CigarOp::Skip(_))
    }

    pub fn code(self) -> u8 {
        match self {
            CigarOp::Match(_) => b'M',
            CigarOp::Ins(_) => b'I',
            CigarOp::Del(_) => b'D',
            CigarOp::SoftClip(_) => b'S',
            CigarOp::HardClip(_) => b'H',
            CigarOp::Skip(_) => b'N',
        }
    }

    pub fn with_len(code: u8, n: u32) -> Result<CigarOp> {
        Ok(match code {
            b'M' => CigarOp::Match(n),
            b'I' => CigarOp::Ins(n),
            b'D' => CigarOp::Del(n),
            b'S' => CigarOp::SoftClip(n),
            b'H' => CigarOp::HardClip(n),
            b'N' => CigarOp::Skip(n),
            other => {
                return Err(FormatError::Cigar(format!(
                    "unknown cigar op {:?}",
                    other as char
                )))
            }
        })
    }
}

/// A full CIGAR string: a sequence of operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar(pub Vec<CigarOp>);

impl Cigar {
    /// The `*` CIGAR of an unmapped read.
    pub fn unmapped() -> Cigar {
        Cigar(Vec::new())
    }

    /// A pure `<n>M` alignment.
    pub fn full_match(n: u32) -> Cigar {
        Cigar(vec![CigarOp::Match(n)])
    }

    pub fn is_unmapped(&self) -> bool {
        self.0.is_empty()
    }

    /// Parse a text CIGAR (`"3S97M"`, or `"*"` for unmapped).
    pub fn parse(s: &str) -> Result<Cigar> {
        let mut ops = Vec::new();
        Cigar::scan(s, |op| ops.push(op))?;
        Ok(Cigar(ops))
    }

    /// Walk a text CIGAR's ops in order without building the [`Cigar`]:
    /// the one statement of the grammar, so a reader that only needs a
    /// derived length accepts and rejects exactly what [`Cigar::parse`]
    /// does. `"*"` has no ops.
    pub(crate) fn scan(s: &str, mut each: impl FnMut(CigarOp)) -> Result<()> {
        if s == "*" {
            return Ok(());
        }
        let mut n: u64 = 0;
        let mut have_digit = false;
        let mut any_op = false;
        for c in s.bytes() {
            if c.is_ascii_digit() {
                n = n * 10 + (c - b'0') as u64;
                if n > u32::MAX as u64 {
                    return Err(FormatError::Cigar(format!("op length overflow in {s:?}")));
                }
                have_digit = true;
            } else {
                if !have_digit {
                    return Err(FormatError::Cigar(format!("op without length in {s:?}")));
                }
                each(CigarOp::with_len(c, n as u32)?);
                any_op = true;
                n = 0;
                have_digit = false;
            }
        }
        if have_digit {
            return Err(FormatError::Cigar(format!("trailing digits in {s:?}")));
        }
        if !any_op {
            return Err(FormatError::Cigar("empty cigar".into()));
        }
        Ok(())
    }

    /// Append the text form (`Display`) to `buf` without a `String`.
    pub fn write_text(&self, buf: &mut Vec<u8>) {
        if self.is_unmapped() {
            buf.push(b'*');
            return;
        }
        for op in &self.0 {
            crate::sam::text::push_decimal(buf, op.len().into());
            buf.push(op.code());
        }
    }

    /// Length of the text form (`Display`) without rendering it — the
    /// wire encoding stores CIGARs as text, so record-size accounting
    /// (`Wire::encoded_len`) needs this cheaply.
    pub fn text_len(&self) -> usize {
        if self.is_unmapped() {
            return 1; // "*"
        }
        self.0
            .iter()
            .map(|op| op.len().checked_ilog10().unwrap_or(0) as usize + 2)
            .sum()
    }

    /// Number of query bases the alignment covers (length of SEQ for
    /// records without hard clips). Wraps past `u32::MAX`: a parsed
    /// CIGAR may be hostile bytes ([`SamRecord::validate`] rejects it).
    ///
    /// [`SamRecord::validate`]: crate::sam::SamRecord::validate
    pub fn query_len(&self) -> u32 {
        self.len_of(CigarOp::consumes_query)
            .fold(0, u32::wrapping_add)
    }

    /// Number of reference bases the alignment spans. Wraps past
    /// `u32::MAX`, as [`Cigar::query_len`] does.
    pub fn reference_len(&self) -> u32 {
        self.len_of(CigarOp::consumes_reference)
            .fold(0, u32::wrapping_add)
    }

    /// Whether the query or the reference length exceeds `u32::MAX`.
    pub(crate) fn lengths_overflow(&self) -> bool {
        let fits = |consumes: fn(CigarOp) -> bool| {
            self.len_of(consumes)
                .try_fold(0u32, u32::checked_add)
                .is_some()
        };
        !fits(CigarOp::consumes_query) || !fits(CigarOp::consumes_reference)
    }

    fn len_of(&self, consumes: fn(CigarOp) -> bool) -> impl Iterator<Item = u32> + '_ {
        self.0
            .iter()
            .filter(move |op| consumes(**op))
            .map(|op| op.len())
    }

    /// Soft+hard clipped bases at the start of the record.
    pub fn leading_clip(&self) -> u32 {
        let mut total = 0;
        for op in &self.0 {
            match op {
                CigarOp::SoftClip(n) | CigarOp::HardClip(n) => total = n.wrapping_add(total),
                _ => break,
            }
        }
        total
    }

    /// Soft+hard clipped bases at the end of the record.
    pub fn trailing_clip(&self) -> u32 {
        let mut total = 0;
        for op in self.0.iter().rev() {
            match op {
                CigarOp::SoftClip(n) | CigarOp::HardClip(n) => total = n.wrapping_add(total),
                _ => break,
            }
        }
        total
    }

    /// The *unclipped start*: the reference position the first base of the
    /// original (unclipped) read would occupy. `pos` is the 1-based
    /// leftmost mapping position (SAM `POS`). Wrapping, as
    /// [`Cigar::reference_len`] is.
    pub fn unclipped_start(&self, pos: i64) -> i64 {
        pos.wrapping_sub(self.leading_clip() as i64)
    }

    /// The *unclipped end*: the reference position the last base of the
    /// original read would occupy. Wrapping, as [`Cigar::reference_len`]
    /// is.
    pub fn unclipped_end(&self, pos: i64) -> i64 {
        pos.wrapping_add(self.reference_len() as i64)
            .wrapping_sub(1)
            .wrapping_add(self.trailing_clip() as i64)
    }

    /// Structural validity: no zero-length ops, clips only at the ends
    /// (hard outside soft), and at least one query-consuming op.
    pub fn validate(&self) -> Result<()> {
        if self.is_unmapped() {
            return Ok(());
        }
        if self.0.iter().any(|op| op.is_empty()) {
            return Err(FormatError::Cigar("zero-length op".into()));
        }
        // Clips may appear only as a prefix/suffix.
        let is_clip = |op: &CigarOp| matches!(op, CigarOp::SoftClip(_) | CigarOp::HardClip(_));
        let core: Vec<&CigarOp> = self.0.iter().skip_while(|o| is_clip(o)).collect();
        let core: Vec<&&CigarOp> = core.iter().take_while(|o| !is_clip(o)).collect();
        let n_clips = self.0.iter().filter(|o| is_clip(o)).count();
        if core.len() + n_clips != self.0.len() {
            return Err(FormatError::Cigar(format!(
                "clips must be terminal in {self}"
            )));
        }
        if self.query_len() == 0 {
            return Err(FormatError::Cigar("no query-consuming op".into()));
        }
        Ok(())
    }
}

impl fmt::Display for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unmapped() {
            return write!(f, "*");
        }
        for op in &self.0 {
            write!(f, "{}{}", op.len(), op.code() as char)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["100M", "3S97M", "50M2I48M", "10H5S80M5S", "20M1000N30M", "*"] {
            let c = Cigar::parse(s).unwrap();
            assert_eq!(c.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cigar::parse("M").is_err());
        assert!(Cigar::parse("10").is_err());
        assert!(Cigar::parse("10X10M").is_err()); // X unsupported here
        assert!(Cigar::parse("").is_err());
        assert!(Cigar::parse("99999999999M").is_err());
    }

    #[test]
    fn lengths() {
        let c = Cigar::parse("3S50M2I10D45M2S").unwrap();
        assert_eq!(c.query_len(), 3 + 50 + 2 + 45 + 2);
        assert_eq!(c.reference_len(), 50 + 10 + 45);
        assert_eq!(c.leading_clip(), 3);
        assert_eq!(c.trailing_clip(), 2);
    }

    #[test]
    fn unclipped_ends() {
        // A 100M alignment at pos 1000 spans 1000..=1099.
        let c = Cigar::parse("100M").unwrap();
        assert_eq!(c.unclipped_start(1000), 1000);
        assert_eq!(c.unclipped_end(1000), 1099);
        // Soft clips push the unclipped ends outward.
        let c = Cigar::parse("5S90M5S").unwrap();
        assert_eq!(c.unclipped_start(1000), 995);
        assert_eq!(c.unclipped_end(1000), 1000 + 90 - 1 + 5);
        // Hard clips count too (bases existed on the fragment).
        let c = Cigar::parse("5H95M").unwrap();
        assert_eq!(c.unclipped_start(1000), 995);
    }

    #[test]
    fn unclipped_end_with_indels() {
        // Deletions extend the reference span; insertions do not.
        let c = Cigar::parse("50M10D50M").unwrap();
        assert_eq!(c.unclipped_end(100), 100 + 110 - 1);
        let c = Cigar::parse("50M10I40M").unwrap();
        assert_eq!(c.unclipped_end(100), 100 + 90 - 1);
    }

    #[test]
    fn text_len_matches_display() {
        for s in ["*", "100M", "3S50M2I10D45M2S", "1M", "9M10M99M100M", "4294967295N0M"] {
            let c = if s == "*" { Cigar::unmapped() } else { Cigar::parse(s).unwrap() };
            assert_eq!(c.text_len(), c.to_string().len(), "{s}");
            let mut text = Vec::new();
            c.write_text(&mut text);
            assert_eq!(text, c.to_string().as_bytes(), "{s}");
        }
    }

    #[test]
    fn validate_catches_internal_clips() {
        let bad = Cigar(vec![
            CigarOp::Match(10),
            CigarOp::SoftClip(5),
            CigarOp::Match(10),
        ]);
        assert!(bad.validate().is_err());
        let good = Cigar::parse("5S20M5H").unwrap();
        assert!(good.validate().is_ok());
        assert!(Cigar::unmapped().validate().is_ok());
    }

    #[test]
    fn validate_catches_zero_len() {
        let bad = Cigar(vec![CigarOp::Match(0)]);
        assert!(bad.validate().is_err());
    }
}
