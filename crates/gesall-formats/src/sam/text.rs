//! Text SAM serialization — the human-readable interchange form that the
//! "external programs" in the streaming wrapper read and write (paper
//! Fig. 8: Bwa emits text SAM into a pipe, SamToBam converts it to the
//! binary container).

use crate::error::{FormatError, Result};
use crate::quality::{MAX_PHRED, PHRED_OFFSET};
use crate::sam::cigar::Cigar;
use crate::sam::flags::Flags;
use crate::sam::header::SamHeader;
use crate::sam::record::{SamRecord, NO_REF};

/// Append `rec`'s SAM text line and its newline to `out`: integers
/// written digit by digit, qualities offset in place and the CIGAR by
/// [`Cigar::write_text`], so a record costs no allocation of its own.
/// `seq` bytes that are not UTF-8 are written as U+FFFD, as
/// `String::from_utf8_lossy` writes them, and qualities above
/// [`MAX_PHRED`] as `MAX_PHRED`.
pub fn write_record(out: &mut Vec<u8>, rec: &SamRecord, header: &SamHeader) {
    out.extend_from_slice(rec.name.as_bytes());
    out.push(b'\t');
    push_int(out, rec.flags.0.into());
    out.push(b'\t');
    out.extend_from_slice(header.reference_name(rec.ref_id).as_bytes());
    out.push(b'\t');
    push_int(out, rec.pos);
    out.push(b'\t');
    push_int(out, rec.mapq.into());
    out.push(b'\t');
    rec.cigar.write_text(out);
    out.push(b'\t');
    if rec.mate_ref_id == rec.ref_id && rec.ref_id != NO_REF {
        out.push(b'=');
    } else {
        out.extend_from_slice(header.reference_name(rec.mate_ref_id).as_bytes());
    }
    out.push(b'\t');
    push_int(out, rec.mate_pos);
    out.push(b'\t');
    push_int(out, rec.tlen);
    out.push(b'\t');
    if rec.seq.is_empty() {
        out.push(b'*');
    } else if rec.seq.is_ascii() {
        out.extend_from_slice(&rec.seq);
    } else {
        out.extend_from_slice(String::from_utf8_lossy(&rec.seq).as_bytes());
    }
    out.push(b'\t');
    if rec.qual.is_empty() {
        out.push(b'*');
    } else {
        out.extend(rec.qual.iter().map(|&q| q.min(MAX_PHRED) + PHRED_OFFSET));
    }
    if !rec.read_group.is_empty() {
        out.extend_from_slice(b"\tRG:Z:");
        out.extend_from_slice(rec.read_group.as_bytes());
    }
    out.extend_from_slice(b"\tAS:i:");
    push_int(out, rec.alignment_score.into());
    out.extend_from_slice(b"\tNM:i:");
    push_int(out, rec.edit_distance.into());
    out.push(b'\n');
}

/// Append `v` in decimal, `-` first when negative.
fn push_int(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_decimal(out, v.unsigned_abs());
}

/// Append `n` in decimal, digit by digit, with no `String`.
pub(crate) fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Parse one SAM text line into a record, resolving reference names via
/// the header. The 11 mandatory fields and then the optional tags come
/// from one pass of `split('\t')`; the qualities are decoded straight
/// into the record's vector.
pub fn line_to_record(line: &str, header: &SamHeader) -> Result<SamRecord> {
    let mut fields = line.split('\t');
    let mut mandatory = [""; 11];
    for (i, slot) in mandatory.iter_mut().enumerate() {
        *slot = fields.next().ok_or_else(|| {
            FormatError::Sam(format!("sam line has {i} fields, need 11"))
        })?;
    }
    let [name, flags, rname, pos, mapq, cigar, rnext, pnext, tlen, seq, qual] = mandatory;
    let parse_i64 = |s: &str, what: &str| -> Result<i64> {
        s.parse::<i64>()
            .map_err(|_| FormatError::Sam(format!("bad {what}: {s:?}")))
    };
    let flags = Flags(
        flags
            .parse::<u16>()
            .map_err(|_| FormatError::Sam(format!("bad flags {flags:?}")))?,
    );
    let ref_id = if rname == "*" {
        NO_REF
    } else {
        header
            .reference_id(rname)
            .ok_or_else(|| FormatError::Sam(format!("unknown reference {rname:?}")))?
            as i32
    };
    let pos = parse_i64(pos, "pos")?;
    let mapq = mapq
        .parse::<u8>()
        .map_err(|_| FormatError::Sam(format!("bad mapq {mapq:?}")))?;
    let cigar = Cigar::parse(cigar)?;
    let mate_ref_id = match rnext {
        "*" => NO_REF,
        "=" => ref_id,
        other => header
            .reference_id(other)
            .ok_or_else(|| FormatError::Sam(format!("unknown mate reference {other:?}")))?
            as i32,
    };
    let mate_pos = parse_i64(pnext, "pnext")?;
    let tlen = parse_i64(tlen, "tlen")?;
    let seq = if seq == "*" { Vec::new() } else { seq.as_bytes().to_vec() };
    let qual = if qual == "*" {
        Vec::new()
    } else if qual.bytes().all(|c| (PHRED_OFFSET..=PHRED_OFFSET + MAX_PHRED).contains(&c)) {
        qual.bytes().map(|c| c - PHRED_OFFSET).collect()
    } else {
        return Err(FormatError::Sam("invalid quality string".into()));
    };
    let mut rec = SamRecord {
        name: name.to_string(),
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
        read_group: String::new(),
        alignment_score: 0,
        edit_distance: 0,
    };
    // Optional tags.
    for tag in fields {
        if let Some(v) = tag.strip_prefix("RG:Z:") {
            rec.read_group = v.to_string();
        } else if let Some(v) = tag.strip_prefix("AS:i:") {
            rec.alignment_score = v
                .parse()
                .map_err(|_| FormatError::Sam(format!("bad AS tag {v:?}")))?;
        } else if let Some(v) = tag.strip_prefix("NM:i:") {
            rec.edit_distance = v
                .parse()
                .map_err(|_| FormatError::Sam(format!("bad NM tag {v:?}")))?;
        }
        // Unknown tags are ignored, as real parsers do.
    }
    Ok(rec)
}

/// Serialize a whole dataset (header + records) as SAM text.
pub fn to_text(header: &SamHeader, records: &[SamRecord]) -> String {
    let mut out = header.to_text().into_bytes();
    for r in records {
        write_record(&mut out, r, header);
    }
    String::from_utf8(out).expect("SAM text is UTF-8: its text fields are strings, seq is written lossily")
}

/// Parse SAM text into (header, records).
pub fn from_text(text: &str) -> Result<(SamHeader, Vec<SamRecord>)> {
    let mut header_text = String::new();
    let mut records = Vec::new();
    let mut header: Option<SamHeader> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if line.starts_with('@') {
            if header.is_some() {
                return Err(FormatError::Sam(
                    "header line after alignment records".into(),
                ));
            }
            header_text.push_str(line);
            header_text.push('\n');
        } else {
            if header.is_none() {
                header = Some(SamHeader::parse_text(&header_text)?);
            }
            records.push(line_to_record(line, header.as_ref().unwrap())?);
        }
    }
    let header = match header {
        Some(h) => h,
        None => SamHeader::parse_text(&header_text)?,
    };
    Ok((header, records))
}

/// The parent commit's formatter and parser, verbatim.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sam::header::ReferenceSeq;

    fn record_to_line(rec: &SamRecord, header: &SamHeader) -> String {
        let mut out = Vec::new();
        write_record(&mut out, rec, header);
        assert_eq!(out.pop(), Some(b'\n'));
        let line = String::from_utf8(out).unwrap();
        assert_eq!(line, reference::record_to_line(rec, header));
        line
    }

    /// [`line_to_record`], held to the parent's parser: the same record,
    /// or an error from both.
    fn parse(line: &str, header: &SamHeader) -> Result<SamRecord> {
        let ours = line_to_record(line, header);
        match (&ours, reference::line_to_record(line, header)) {
            (Ok(rec), Ok(want)) => assert_eq!(*rec, want, "{line:?}"),
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            (got, want) => panic!("{line:?}: {got:?}, the parent {want:?}"),
        }
        ours
    }

    fn header() -> SamHeader {
        SamHeader::new(vec![
            ReferenceSeq {
                name: "chr1".into(),
                len: 10_000,
            },
            ReferenceSeq {
                name: "chr2".into(),
                len: 8_000,
            },
        ])
    }

    fn record() -> SamRecord {
        let mut r = SamRecord::unmapped("r1", b"ACGTACGTAC".to_vec(), vec![35; 10]);
        r.flags = Flags(Flags::PAIRED | Flags::FIRST_IN_PAIR);
        r.ref_id = 0;
        r.pos = 100;
        r.mapq = 47;
        r.cigar = Cigar::parse("10M").unwrap();
        r.mate_ref_id = 0;
        r.mate_pos = 350;
        r.tlen = 260;
        r.read_group = "rg9".into();
        r.alignment_score = 10;
        r.edit_distance = 1;
        r
    }

    #[test]
    fn line_roundtrip() {
        let h = header();
        let r = record();
        let line = record_to_line(&r, &h);
        assert!(line.contains("\t=\t"), "same-ref mate shown as '=': {line}");
        let back = parse(&line, &h).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn cross_chromosome_mate_named_explicitly() {
        let h = header();
        let mut r = record();
        r.mate_ref_id = 1;
        let line = record_to_line(&r, &h);
        assert!(line.contains("\tchr2\t"));
        assert_eq!(parse(&line, &h).unwrap(), r);
    }

    #[test]
    fn unmapped_record_roundtrip() {
        let h = header();
        let r = SamRecord::unmapped("u", b"ACG".to_vec(), vec![2; 3]);
        let line = record_to_line(&r, &h);
        assert!(line.contains("\t*\t0\t"));
        let back = parse(&line, &h).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn dataset_roundtrip() {
        let h = header();
        let recs = vec![record(), SamRecord::unmapped("u", b"A".to_vec(), vec![3])];
        let text = to_text(&h, &recs);
        let (h2, r2) = from_text(&text).unwrap();
        assert_eq!(h2, h);
        assert_eq!(r2, recs);
    }

    #[test]
    fn rejects_unknown_reference_and_short_lines() {
        let h = header();
        assert!(parse("r\t0\tchr9\t1\t0\t1M\t*\t0\t0\tA\tI", &h).is_err());
        assert!(parse("r\t0\tchr1", &h).is_err());
    }

    #[test]
    fn unknown_tags_ignored() {
        let h = header();
        let line = "r\t0\tchr1\t5\t60\t3M\t*\t0\t0\tACG\tIII\tXX:Z:whatever\tAS:i:3";
        let r = parse(line, &h).unwrap();
        assert_eq!(r.alignment_score, 3);
    }

    #[test]
    fn awkward_records_format_and_parse_as_in_the_parent() {
        let h = header();
        let mut r = record();
        r.pos = -3;
        r.tlen = i64::MIN;
        r.mate_pos = i64::MAX;
        r.qual = vec![0, 93, 94, 255, 40, 1, 2, 3, 4, 5];
        r.read_group.clear();
        r.alignment_score = i32::MIN;
        r.edit_distance = u32::MAX;
        let line = record_to_line(&r, &h);
        assert!(line.contains("\t-9223372036854775808\t"), "{line}");
        r.qual = r.qual.iter().map(|&q| q.min(93)).collect();
        assert_eq!(parse(&line, &h).unwrap(), r);
        // Empty seq and qual; a seq that is not UTF-8 is written lossily.
        let mut u = SamRecord::unmapped("u", Vec::new(), Vec::new());
        record_to_line(&u, &h);
        u.seq = vec![b'A', 0xFF, b'C', 0xC3];
        u.qual = vec![30; 4];
        assert!(record_to_line(&u, &h).contains("\tA\u{FFFD}C\u{FFFD}\t"));
        // Reference ids past the dictionary are written as `*`.
        u.ref_id = 7;
        u.mate_ref_id = 7;
        assert!(record_to_line(&u, &h).starts_with("u\t4\t*\t0\t0\t*\t=\t"));
    }

    #[test]
    fn forged_lines_fail_where_the_parent_fails() {
        let h = header();
        let good = record_to_line(&record(), &h);
        let fields: Vec<&str> = good.split('\t').collect();
        for n in 0..fields.len() {
            // Cut to n fields, and each field replaced by garbage.
            let _ = parse(&fields[..n].join("\t"), &h);
            let edges = ["", "*", "=", "-1", "+5", "99999999999999999999", "chr2", "3Q"];
            for bad in edges.into_iter().chain(["\u{1}", " ", "!", "~", "\u{7f}", "é"]) {
                let mut forged = fields.clone();
                forged[n] = bad;
                let _ = parse(&forged.join("\t"), &h);
            }
        }
        for tail in ["\tAS:i:x", "\tNM:i:-1", "\tRG:Z:", "\t", "\tAS:i:7\tAS:i:8"] {
            let _ = parse(&format!("{good}{tail}"), &h);
        }
    }

    #[test]
    fn header_after_records_rejected() {
        let text = "@SQ\tSN:chr1\tLN:100\nr\t4\t*\t0\t0\t*\t*\t0\t0\tA\tI\n@PG\tID:x\n";
        assert!(from_text(text).is_err());
    }
}
