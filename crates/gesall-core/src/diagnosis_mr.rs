//! The error-diagnosis toolkit as **MapReduce programs** — the paper's
//! §4.5.2: "We have written MapReduce programs to compute all the
//! D count and D impact measures and their weighted versions for our
//! parallel pipeline." At paper scale the outputs being diffed are
//! hundreds of GB, so the diff itself must be a parallel job: map tags
//! each record with its pipeline of origin keyed by read end; reduce
//! compares the (at most two) signatures per key.

use crate::diagnosis::AlignmentSignature;
use gesall_formats::bam;
use gesall_formats::SharedBytes;
use gesall_formats::error::Result as FmtResult;
use gesall_formats::quality::LogisticWeight;
use gesall_formats::wire::{Cursor, Wire};
use gesall_mapreduce::runtime::{InputSplit, JobConfig, MapReduceEngine};
use gesall_mapreduce::task::{HashPartitioner, MapContext, Mapper, ReduceContext, Reducer};
use gesall_formats::sam::SamRecord;

/// Which pipeline a shuffled signature came from.
pub const TAG_SERIAL: u8 = 0;
pub const TAG_PARALLEL: u8 = 1;

/// The shuffled value: origin tag + signature + mapq.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedSignature {
    pub tag: u8,
    pub ref_id: i32,
    pub pos: i64,
    pub reverse: bool,
    pub cigar: String,
    pub duplicate: bool,
    pub mapq: u8,
}

impl TaggedSignature {
    fn of(tag: u8, rec: &SamRecord) -> TaggedSignature {
        let s = AlignmentSignature::of(rec);
        TaggedSignature {
            tag,
            ref_id: s.ref_id,
            pos: s.pos,
            reverse: s.reverse,
            cigar: s.cigar,
            duplicate: s.duplicate,
            mapq: rec.mapq,
        }
    }

    fn same_alignment(&self, other: &TaggedSignature) -> bool {
        self.ref_id == other.ref_id
            && self.pos == other.pos
            && self.reverse == other.reverse
            && self.cigar == other.cigar
            && self.duplicate == other.duplicate
    }
}

impl Wire for TaggedSignature {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.tag as u32).encode(buf);
        (self.ref_id as i64).encode(buf);
        self.pos.encode(buf);
        (self.reverse as u32).encode(buf);
        self.cigar.encode(buf);
        (self.duplicate as u32).encode(buf);
        (self.mapq as u32).encode(buf);
    }

    fn encoded_len(&self) -> usize {
        // The two bools are one byte each; a u8 can need two.
        (self.tag as u32).encoded_len()
            + (self.ref_id as i64).encoded_len()
            + self.pos.encoded_len()
            + self.cigar.encoded_len()
            + (self.mapq as u32).encoded_len()
            + 2
    }

    fn decode(cur: &mut Cursor<'_>) -> FmtResult<Self> {
        Ok(TaggedSignature {
            tag: u32::decode(cur)? as u8,
            ref_id: i64::decode(cur)? as i32,
            pos: i64::decode(cur)?,
            reverse: u32::decode(cur)? != 0,
            cigar: String::decode(cur)?,
            duplicate: u32::decode(cur)? != 0,
            mapq: u32::decode(cur)? as u8,
        })
    }
}

/// Map side: input value is a BAM partition of either pipeline's output;
/// the split label's prefix ("serial/" or "parallel/") selects the tag.
/// Emits (read-end key, tagged signature).
pub struct DiffMapper;

impl Mapper for DiffMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = String;
    type OutValue = TaggedSignature;

    fn map(
        &self,
        label: &String,
        bam_bytes: &SharedBytes,
        ctx: &mut MapContext<'_, String, TaggedSignature>,
    ) {
        let tag = if label.starts_with("serial") {
            TAG_SERIAL
        } else {
            TAG_PARALLEL
        };
        let (_, records) = bam::read_bam(bam_bytes).expect("diff input bam");
        for r in &records {
            if !r.flags.is_primary() {
                continue;
            }
            let key = format!(
                "{}/{}",
                r.name,
                if r.flags.is_second_in_pair() { 2 } else { 1 }
            );
            ctx.emit(key, TaggedSignature::of(tag, r));
        }
    }
}

/// Reduce side: per read end, compare the serial and parallel
/// signatures. Emits per-category counts plus milli-weighted discordance
/// (the logistic mapq weighting × 1000, kept integral for counters).
pub struct DiffReducer;

/// Output categories.
pub const CAT_CONCORDANT: &str = "concordant";
pub const CAT_DISCORDANT: &str = "discordant";
pub const CAT_MISSING: &str = "missing";
pub const CAT_WEIGHTED_MILLI: &str = "weighted_discordant_milli";

impl Reducer for DiffReducer {
    type InKey = String;
    type InValue = TaggedSignature;
    type OutKey = String;
    type OutValue = u64;

    fn reduce(
        &self,
        _key: String,
        values: Vec<TaggedSignature>,
        ctx: &mut ReduceContext<'_, String, u64>,
    ) {
        let serial = values.iter().find(|v| v.tag == TAG_SERIAL);
        let parallel = values.iter().find(|v| v.tag == TAG_PARALLEL);
        match (serial, parallel) {
            (Some(s), Some(p)) => {
                if s.same_alignment(p) {
                    ctx.emit(CAT_CONCORDANT.into(), 1);
                } else {
                    ctx.emit(CAT_DISCORDANT.into(), 1);
                    let w = LogisticWeight::mapq_default();
                    let weight = w.weight(s.mapq.max(p.mapq) as f64);
                    ctx.emit(CAT_WEIGHTED_MILLI.into(), (weight * 1000.0).round() as u64);
                }
            }
            _ => ctx.emit(CAT_MISSING.into(), 1),
        }
    }
}

/// The aggregated result of a parallel diff job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrDiffResult {
    pub concordant: u64,
    pub discordant: u64,
    pub missing: u64,
    /// Logistic-mapq-weighted D-count.
    pub weighted_discordant: f64,
}

/// Run the D-count diff as a MapReduce job over the two outputs,
/// partitioned for the engine.
pub fn mr_diff_alignments(
    engine: &MapReduceEngine,
    serial: &[SamRecord],
    parallel: &[SamRecord],
    n_partitions: usize,
    n_reducers: usize,
) -> MrDiffResult {
    let header = gesall_formats::sam::SamHeader::default();
    let mut splits = Vec::new();
    for (tag, records) in [("serial", serial), ("parallel", parallel)] {
        let per = records.len().div_ceil(n_partitions.max(1)).max(1);
        for (i, chunk) in records.chunks(per).enumerate() {
            let label = format!("{tag}/part-{i:05}");
            let bytes = SharedBytes::from_vec(bam::write_bam(&header, chunk));
            splits.push(InputSplit::new(label.clone(), vec![(label, bytes)]));
        }
    }
    let cfg = JobConfig {
        name: "d-count-diff".into(),
        n_reducers: n_reducers.max(1),
        ..JobConfig::default()
    };
    let res = engine
        .run_job(cfg, &DiffMapper, &DiffReducer, &HashPartitioner, splits)
        .expect("diff job runs without fault injection");
    let mut out = MrDiffResult {
        concordant: 0,
        discordant: 0,
        missing: 0,
        weighted_discordant: 0.0,
    };
    for (cat, n) in res.outputs.into_iter().flatten() {
        match cat.as_str() {
            CAT_CONCORDANT => out.concordant += n,
            CAT_DISCORDANT => out.discordant += n,
            CAT_MISSING => out.missing += n,
            CAT_WEIGHTED_MILLI => out.weighted_discordant += n as f64 / 1000.0,
            other => panic!("unknown diff category {other}"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::diff_alignments;
    use gesall_formats::sam::{Cigar, Flags};
    use gesall_mapreduce::ClusterResources;

    fn rec(name: &str, first: bool, pos: i64, mapq: u8) -> SamRecord {
        let mut r = SamRecord::unmapped(name, vec![b'A'; 20], vec![30; 20]);
        let mut f = Flags(Flags::PAIRED);
        f.set(
            if first {
                Flags::FIRST_IN_PAIR
            } else {
                Flags::SECOND_IN_PAIR
            },
            true,
        );
        r.flags = f;
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = mapq;
        r.cigar = Cigar::full_match(20);
        r
    }

    #[test]
    fn mr_diff_matches_in_memory_diff() {
        let serial: Vec<SamRecord> = (0..200)
            .flat_map(|i| {
                [
                    rec(&format!("r{i}"), true, 100 + i, 60),
                    rec(&format!("r{i}"), false, 400 + i, 60),
                ]
            })
            .collect();
        let mut parallel = serial.clone();
        // Perturb some: 10 confident flips, 10 low-quality flips, 3 missing.
        for k in 0..10 {
            parallel[k * 4].pos += 7;
        }
        for k in 0..10 {
            parallel[k * 4 + 1].pos += 3;
            parallel[k * 4 + 1].mapq = 5;
        }
        parallel.truncate(parallel.len() - 3);

        let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 8192));
        let mr = mr_diff_alignments(&engine, &serial, &parallel, 4, 3);
        let mem = diff_alignments(&serial, &parallel);
        assert_eq!(mr.discordant, mem.discordant.len() as u64);
        assert_eq!(mr.missing, mem.missing);
        assert_eq!(mr.concordant, mem.concordant);
        assert!(
            (mr.weighted_discordant - mem.weighted_d_count() + mem.missing as f64).abs() < 0.01,
            "mr {} vs mem {}",
            mr.weighted_discordant,
            mem.weighted_d_count() - mem.missing as f64
        );
    }

    #[test]
    fn tagged_signature_wire_roundtrip() {
        let r = rec("x", true, 123, 44);
        let s = TaggedSignature::of(TAG_PARALLEL, &r);
        let bytes = s.to_wire_bytes();
        assert_eq!(TaggedSignature::from_wire_bytes(&bytes).unwrap(), s);
        assert_eq!(s.encoded_len(), bytes.len());
        let wide = TaggedSignature {
            tag: 200,
            mapq: 255,
            ref_id: -1,
            ..s
        };
        assert_eq!(wide.encoded_len(), wide.to_wire_bytes().len());
    }

    #[test]
    fn identical_outputs_fully_concordant_via_mr() {
        let serial: Vec<SamRecord> =
            (0..50).map(|i| rec(&format!("a{i}"), true, i + 1, 60)).collect();
        let engine = MapReduceEngine::local(2);
        let mr = mr_diff_alignments(&engine, &serial, &serial.clone(), 2, 2);
        assert_eq!(mr.concordant, 50);
        assert_eq!(mr.discordant, 0);
        assert_eq!(mr.missing, 0);
    }
}
