//! The parent commit's SAM text formatter and parser, verbatim: a
//! `String` per line built by `format!`, and a `Vec<&str>` of fields per
//! parsed line. Kept as the reference [`write_record`] and
//! [`line_to_record`] are held to — the same bytes for every record, the
//! same record or an error for every line. Written against the crate's
//! public API only, so `tests/proptest_formats.rs` compiles the same file.
//!
//! [`write_record`]: gesall_formats::sam::text::write_record
//! [`line_to_record`]: gesall_formats::sam::text::line_to_record

use gesall_formats::error::{FormatError, Result};
use gesall_formats::quality::{decode_phred33, encode_phred33};
use gesall_formats::sam::cigar::Cigar;
use gesall_formats::sam::flags::Flags;
use gesall_formats::sam::header::SamHeader;
use gesall_formats::sam::record::{SamRecord, NO_REF};

/// Serialize one record as a SAM text line (no trailing newline).
pub fn record_to_line(rec: &SamRecord, header: &SamHeader) -> String {
    let rname = header.reference_name(rec.ref_id);
    let rnext = if rec.mate_ref_id == rec.ref_id && rec.ref_id != NO_REF {
        "=".to_string()
    } else {
        header.reference_name(rec.mate_ref_id).to_string()
    };
    let seq = if rec.seq.is_empty() {
        "*".to_string()
    } else {
        String::from_utf8_lossy(&rec.seq).into_owned()
    };
    let qual = if rec.qual.is_empty() {
        "*".to_string()
    } else {
        String::from_utf8_lossy(&encode_phred33(&rec.qual)).into_owned()
    };
    let mut line = format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        rec.name,
        rec.flags.0,
        rname,
        rec.pos,
        rec.mapq,
        rec.cigar,
        rnext,
        rec.mate_pos,
        rec.tlen,
        seq,
        qual
    );
    if !rec.read_group.is_empty() {
        line.push_str(&format!("\tRG:Z:{}", rec.read_group));
    }
    line.push_str(&format!(
        "\tAS:i:{}\tNM:i:{}",
        rec.alignment_score, rec.edit_distance
    ));
    line
}

/// Parse one SAM text line into a record, resolving reference names via
/// the header.
pub fn line_to_record(line: &str, header: &SamHeader) -> Result<SamRecord> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() < 11 {
        return Err(FormatError::Sam(format!(
            "sam line has {} fields, need 11",
            fields.len()
        )));
    }
    let parse_i64 = |s: &str, what: &str| -> Result<i64> {
        s.parse::<i64>()
            .map_err(|_| FormatError::Sam(format!("bad {what}: {s:?}")))
    };
    let name = fields[0].to_string();
    let flags = Flags(
        fields[1]
            .parse::<u16>()
            .map_err(|_| FormatError::Sam(format!("bad flags {:?}", fields[1])))?,
    );
    let ref_id = if fields[2] == "*" {
        NO_REF
    } else {
        header
            .reference_id(fields[2])
            .ok_or_else(|| FormatError::Sam(format!("unknown reference {:?}", fields[2])))?
            as i32
    };
    let pos = parse_i64(fields[3], "pos")?;
    let mapq = fields[4]
        .parse::<u8>()
        .map_err(|_| FormatError::Sam(format!("bad mapq {:?}", fields[4])))?;
    let cigar = Cigar::parse(fields[5])?;
    let mate_ref_id = match fields[6] {
        "*" => NO_REF,
        "=" => ref_id,
        other => header
            .reference_id(other)
            .ok_or_else(|| FormatError::Sam(format!("unknown mate reference {other:?}")))?
            as i32,
    };
    let mate_pos = parse_i64(fields[7], "pnext")?;
    let tlen = parse_i64(fields[8], "tlen")?;
    let seq = if fields[9] == "*" {
        Vec::new()
    } else {
        fields[9].as_bytes().to_vec()
    };
    let qual = if fields[10] == "*" {
        Vec::new()
    } else {
        decode_phred33(fields[10].as_bytes())
            .ok_or_else(|| FormatError::Sam("invalid quality string".into()))?
    };
    let mut rec = SamRecord {
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
        read_group: String::new(),
        alignment_score: 0,
        edit_distance: 0,
    };
    // Optional tags.
    for tag in &fields[11..] {
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
