//! Base quality score recalibration (paper Table 2, steps 11–12).
//!
//! The sequencer's reported base qualities are systematically biased —
//! e.g. by machine cycle (bases near read ends are worse than reported).
//! **BaseRecalibrator** tallies empirical error rates per *covariate*
//! (read group, reported quality, machine-cycle bucket, dinucleotide
//! context) by comparing aligned bases against the reference away from
//! known variant sites; **PrintReads** rewrites each base's quality to
//! the empirical value.
//!
//! GDPT-wise this is the paper's example of *group partitioning by
//! user-defined covariates* (§3.2): the tally is a distributive
//! aggregation, so the platform parallelizes pass 1 as map-side partial
//! tables merged in reducers.

use crate::refview::RefView;
use gesall_formats::quality::error_prob_to_phred;
use gesall_formats::sam::cigar::CigarOp;
use gesall_formats::sam::SamRecord;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One covariate bucket.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Covariate {
    pub read_group: String,
    pub reported_qual: u8,
    /// Machine cycle / 8 (bucketed).
    pub cycle_bucket: u8,
    /// Preceding base and current base (dinucleotide context), as called.
    pub context: [u8; 2],
}

/// Tallied observations for one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub observations: u64,
    pub errors: u64,
}

impl Tally {
    /// Empirical quality with a +1/+2 pseudo-count (Laplace) smoother.
    pub fn empirical_quality(&self) -> u8 {
        #[cfg(test)]
        tests::EMPIRICAL_QUALITY_EVALS.with(|n| n.set(n.get() + 1));
        let p = (self.errors as f64 + 1.0) / (self.observations as f64 + 2.0);
        error_prob_to_phred(p)
    }
}

/// The recalibration table: full covariates plus a coarse
/// (read group, reported quality) fallback for sparse buckets.
#[derive(Debug, Clone, Default)]
pub struct RecalTable {
    pub by_covariate: BTreeMap<Covariate, Tally>,
    pub by_reported: BTreeMap<(String, u8), Tally>,
}

impl RecalTable {
    /// Merge another table into this one (the reduce step of the
    /// parallel recalibrator).
    pub fn merge(&mut self, other: &RecalTable) {
        for (k, t) in &other.by_covariate {
            let e = self.by_covariate.entry(k.clone()).or_default();
            e.observations += t.observations;
            e.errors += t.errors;
        }
        for (k, t) in &other.by_reported {
            let e = self.by_reported.entry(k.clone()).or_default();
            e.observations += t.observations;
            e.errors += t.errors;
        }
    }
}

impl gesall_formats::wire::Wire for Covariate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.read_group.encode(buf);
        (self.reported_qual as u32).encode(buf);
        (self.cycle_bucket as u32).encode(buf);
        self.context.to_vec().encode(buf);
    }

    fn encoded_len(&self) -> usize {
        // Two bytes of context behind a one-byte length.
        self.read_group.encoded_len()
            + (self.reported_qual as u32).encoded_len()
            + (self.cycle_bucket as u32).encoded_len()
            + 3
    }

    fn decode(
        cur: &mut gesall_formats::wire::Cursor<'_>,
    ) -> gesall_formats::error::Result<Self> {
        let read_group = String::decode(cur)?;
        let reported_qual = u32::decode(cur)? as u8;
        let cycle_bucket = u32::decode(cur)? as u8;
        let ctx = Vec::<u8>::decode(cur)?;
        if ctx.len() != 2 {
            return Err(gesall_formats::FormatError::Bam(
                "covariate context must be 2 bytes".into(),
            ));
        }
        Ok(Covariate {
            read_group,
            reported_qual,
            cycle_bucket,
            context: [ctx[0], ctx[1]],
        })
    }
}

impl gesall_formats::wire::Wire for RecalTable {
    /// Two sequences, `(Covariate, (observations, errors))` then
    /// `((read group, reported quality), (observations, errors))`, each
    /// written from the map it lives in.
    fn encode(&self, buf: &mut Vec<u8>) {
        gesall_formats::wire::put_varint(buf, self.by_covariate.len() as u64);
        for (k, t) in &self.by_covariate {
            k.encode(buf);
            t.observations.encode(buf);
            t.errors.encode(buf);
        }
        gesall_formats::wire::put_varint(buf, self.by_reported.len() as u64);
        for ((rg, q), t) in &self.by_reported {
            rg.encode(buf);
            (*q as u64).encode(buf);
            t.observations.encode(buf);
            t.errors.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        use gesall_formats::wire::varint_len;
        let tally = |t: &Tally| t.observations.encoded_len() + t.errors.encoded_len();
        varint_len(self.by_covariate.len() as u64)
            + self
                .by_covariate
                .iter()
                .map(|(k, t)| k.encoded_len() + tally(t))
                .sum::<usize>()
            + varint_len(self.by_reported.len() as u64)
            + self
                .by_reported
                .iter()
                .map(|((rg, q), t)| rg.encoded_len() + (*q as u64).encoded_len() + tally(t))
                .sum::<usize>()
    }

    fn decode(
        cur: &mut gesall_formats::wire::Cursor<'_>,
    ) -> gesall_formats::error::Result<Self> {
        let fine = Vec::<(Covariate, (u64, u64))>::decode(cur)?;
        let coarse = Vec::<((String, u64), (u64, u64))>::decode(cur)?;
        let mut table = RecalTable::default();
        for (k, (observations, errors)) in fine {
            table.by_covariate.insert(
                k,
                Tally {
                    observations,
                    errors,
                },
            );
        }
        for ((rg, q), (observations, errors)) in coarse {
            table.by_reported.insert(
                (rg, q as u8),
                Tally {
                    observations,
                    errors,
                },
            );
        }
        Ok(table)
    }
}

/// Recalibration parameters.
#[derive(Debug, Clone)]
pub struct RecalConfig {
    pub min_mapq: u8,
    /// Buckets with fewer observations fall back to the coarse table.
    pub min_observations: u64,
}

impl Default for RecalConfig {
    fn default() -> RecalConfig {
        RecalConfig {
            min_mapq: 20,
            min_observations: 30,
        }
    }
}

/// Machine cycle of read index `i`, in buckets of 8.
fn cycle_bucket(i: usize, read_len: usize, reverse: bool) -> u8 {
    let cycle = if reverse { read_len - 1 - i } else { i };
    (cycle / 8).min(255) as u8
}

/// A [`Covariate`] as one integer, so that neither pass clones, compares
/// or hashes a `String` per base: [`ReadGroups`] index above reported
/// quality, cycle bucket and the two context bytes. Those are the raw
/// called bytes (lower case and `N` included), which is why the map is
/// hashed and not a dense array.
fn pack(rg: usize, reported_qual: u8, cycle_bucket: u8, prev: u8, cur: u8) -> u64 {
    (rg as u64) << 32
        | u64::from(reported_qual) << 24
        | u64::from(cycle_bucket) << 16
        | u64::from(prev) << 8
        | u64::from(cur)
}

/// Multiply-fold hasher for [`pack`]ed keys, whose varying bits are the
/// low ones (the context bytes): the 128-bit product's high half folded
/// onto its low half takes every key bit to both ends of the hash.
#[derive(Default)]
struct PackedHasher(u64);

impl Hasher for PackedHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("packed covariate keys hash through write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        let m = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PackedMap<V> = HashMap<u64, V, BuildHasherDefault<PackedHasher>>;

/// Read-group names interned, in first-seen order, to the small indices
/// [`pack`] takes, each with its coarse row: one `Row` per reported
/// quality.
#[derive(Default)]
struct ReadGroups<'a, Row> {
    names: Vec<&'a str>,
    rows: Vec<[Row; 256]>,
    last: usize,
}

impl<'a, Row: Copy + Default> ReadGroups<'a, Row> {
    /// Index of `name`. The previous answer is tried first: a partition
    /// is one read group almost always, so a record costs one string
    /// comparison and a base none.
    fn find(&mut self, name: &str) -> Option<usize> {
        if self.names.get(self.last) != Some(&name) {
            self.last = self.names.iter().position(|n| *n == name)?;
        }
        Some(self.last)
    }

    fn intern(&mut self, name: &'a str) -> usize {
        self.find(name).unwrap_or_else(|| {
            self.names.push(name);
            self.rows.push([Row::default(); 256]);
            self.last = self.names.len() - 1;
            self.last
        })
    }
}

/// Pass 1: build the table from aligned records. `known_sites` are
/// (ref_id, 1-based pos) positions to exclude (known variants must not
/// count as sequencing errors).
///
/// Bases are tallied under `pack`ed keys and the `BTreeMap`s are
/// materialised once at the end (~1.6 k covariates against ~1 M bases
/// per partition). The table stays a `BTreeMap` at rest because its
/// iteration order *is* its wire encoding.
pub fn base_recalibrator(
    records: &[SamRecord],
    reference: RefView<'_>,
    known_sites: &HashSet<(i32, i64)>,
    config: &RecalConfig,
) -> RecalTable {
    let mut groups: ReadGroups<'_, Tally> = ReadGroups::default();
    let mut fine: PackedMap<Tally> = PackedMap::default();
    for rec in records {
        if !rec.is_mapped()
            || !rec.flags.is_primary()
            || rec.flags.is_duplicate()
            || rec.mapq < config.min_mapq
        {
            continue;
        }
        let rg = groups.intern(&rec.read_group);
        let (read_len, reverse) = (rec.seq.len(), rec.flags.is_reverse());
        let mut rp = rec.pos;
        let mut qp = 0usize;
        for op in &rec.cigar.0 {
            match *op {
                CigarOp::Match(n) => {
                    for (qi, pos) in (qp..qp + n as usize).zip(rp..) {
                        if known_sites.contains(&(rec.ref_id, pos)) {
                            continue;
                        }
                        let Some(ref_base) = reference.base(rec.ref_id, pos) else {
                            continue;
                        };
                        let called = rec.seq[qi];
                        if !matches!(called, b'A' | b'C' | b'G' | b'T') {
                            continue;
                        }
                        let err = u64::from(called != ref_base);
                        let prev = if qi > 0 { rec.seq[qi - 1] } else { b'N' };
                        let q = rec.qual[qi];
                        let key = pack(rg, q, cycle_bucket(qi, read_len, reverse), prev, called);
                        let coarse = &mut groups.rows[rg][q as usize];
                        for t in [fine.entry(key).or_default(), coarse] {
                            t.observations += 1;
                            t.errors += err;
                        }
                    }
                    qp += n as usize;
                    rp += n as i64;
                }
                CigarOp::Ins(n) | CigarOp::SoftClip(n) => qp += n as usize,
                CigarOp::Del(n) | CigarOp::Skip(n) => rp += n as i64,
                CigarOp::HardClip(_) => {}
            }
        }
    }
    let mut table = RecalTable::default();
    for (key, t) in fine {
        let [.., reported_qual, cycle_bucket, prev, cur] = key.to_be_bytes();
        let cov = Covariate {
            read_group: groups.names[(key >> 32) as usize].to_string(),
            reported_qual,
            cycle_bucket,
            context: [prev, cur],
        };
        table.by_covariate.insert(cov, t);
    }
    for (name, row) in groups.names.iter().zip(&groups.rows) {
        for (q, t) in row.iter().enumerate().filter(|(_, t)| t.observations > 0) {
            table.by_reported.insert((name.to_string(), q as u8), *t);
        }
    }
    table
}

/// Pass 2 (PrintReads): rewrite base qualities from the table. Returns
/// how many base qualities changed. Each record goes through the same
/// [`QualityRewriter`] a caller holding records as bytes uses.
pub fn print_reads(records: &mut [SamRecord], table: &RecalTable, config: &RecalConfig) -> u64 {
    let mut kernel = QualityRewriter::new(table, config);
    records
        .iter_mut()
        .map(|rec| kernel.rewrite(&rec.read_group, rec.flags.is_reverse(), &rec.seq, &mut rec.qual))
        .sum()
}

/// PrintReads' per-read kernel. The finished qualities of the entries
/// with `min_observations` are worked out once, at construction — fine
/// ones under their `pack`ed key, coarse ones in a row per read group
/// — so a base is a probe, else a row lookup, else unchanged, and
/// `empirical_quality`'s `log10` runs per table entry, not per base.
pub struct QualityRewriter<'a> {
    groups: ReadGroups<'a, Option<u8>>,
    fine: PackedMap<u8>,
}

impl<'a> QualityRewriter<'a> {
    pub fn new(table: &'a RecalTable, config: &RecalConfig) -> QualityRewriter<'a> {
        let mut groups: ReadGroups<'_, Option<u8>> = ReadGroups::default();
        let mut fine: PackedMap<u8> = PackedMap::default();
        let trusted = |t: &Tally| t.observations >= config.min_observations;
        for (cov, t) in table.by_covariate.iter().filter(|(_, t)| trusted(t)) {
            let rg = groups.intern(&cov.read_group);
            let [prev, cur] = cov.context;
            let key = pack(rg, cov.reported_qual, cov.cycle_bucket, prev, cur);
            fine.insert(key, t.empirical_quality());
        }
        for ((name, q), t) in table.by_reported.iter().filter(|(_, t)| trusted(t)) {
            let rg = groups.intern(name);
            groups.rows[rg][*q as usize] = Some(t.empirical_quality());
        }
        QualityRewriter { groups, fine }
    }

    /// Rewrite one read's qualities in place: `seq` and `qual` are its
    /// `SEQ` and `QUAL`. Returns how many changed.
    pub fn rewrite(&mut self, read_group: &str, reverse: bool, seq: &[u8], qual: &mut [u8]) -> u64 {
        // A read group with no trusted entry misses both lookups on
        // every base.
        let Some(rg) = self.groups.find(read_group) else {
            return 0;
        };
        let read_len = seq.len();
        let mut changed = 0;
        let mut prev = b'N';
        for qi in 0..read_len {
            let (cur, q) = (seq[qi], qual[qi]);
            let key = pack(rg, q, cycle_bucket(qi, read_len, reverse), prev, cur);
            let fine_q = self.fine.get(&key).copied();
            let new_q = fine_q.or(self.groups.rows[rg][q as usize]).unwrap_or(q);
            if new_q != q {
                qual[qi] = new_q;
                changed += 1;
            }
            prev = cur;
        }
        changed
    }
}

/// The parent commit's two passes, verbatim: a `Covariate` (one
/// `String` clone) per base, two `String`-keyed `BTreeMap` probes and,
/// in pass 2, an `empirical_quality` per base. The proptests and the
/// count gate below hold the code above to it.
#[cfg(test)]
mod reference {
    use super::*;

    fn cycle_of(i: usize, read_len: usize, reverse: bool) -> usize {
        if reverse {
            read_len - 1 - i
        } else {
            i
        }
    }

    fn covariate(rec: &SamRecord, read_index: usize) -> Covariate {
        let cycle = cycle_of(read_index, rec.seq.len(), rec.flags.is_reverse());
        let prev = if read_index > 0 {
            rec.seq[read_index - 1]
        } else {
            b'N'
        };
        Covariate {
            read_group: rec.read_group.clone(),
            reported_qual: rec.qual[read_index],
            cycle_bucket: (cycle / 8).min(255) as u8,
            context: [prev, rec.seq[read_index]],
        }
    }

    /// Walk a record's aligned (M) bases, yielding (read index, 1-based ref
    /// position).
    fn aligned_bases(rec: &SamRecord) -> Vec<(usize, i64)> {
        let mut out = Vec::with_capacity(rec.seq.len());
        let mut rp = rec.pos;
        let mut qp = 0usize;
        for op in &rec.cigar.0 {
            match *op {
                CigarOp::Match(n) => {
                    for k in 0..n as usize {
                        out.push((qp + k, rp + k as i64));
                    }
                    qp += n as usize;
                    rp += n as i64;
                }
                CigarOp::Ins(n) | CigarOp::SoftClip(n) => qp += n as usize,
                CigarOp::Del(n) | CigarOp::Skip(n) => rp += n as i64,
                CigarOp::HardClip(_) => {}
            }
        }
        out
    }

    /// Pass 1: build the table from aligned records. `known_sites` are
    /// (ref_id, 1-based pos) positions to exclude (known variants must not
    /// count as sequencing errors).
    pub(super) fn base_recalibrator(
        records: &[SamRecord],
        reference: RefView<'_>,
        known_sites: &HashSet<(i32, i64)>,
        config: &RecalConfig,
    ) -> RecalTable {
        let mut table = RecalTable::default();
        for rec in records {
            if !rec.is_mapped()
                || !rec.flags.is_primary()
                || rec.flags.is_duplicate()
                || rec.mapq < config.min_mapq
            {
                continue;
            }
            for (qi, rp) in aligned_bases(rec) {
                if known_sites.contains(&(rec.ref_id, rp)) {
                    continue;
                }
                let Some(ref_base) = reference.base(rec.ref_id, rp) else {
                    continue;
                };
                let called = rec.seq[qi];
                if !matches!(called, b'A' | b'C' | b'G' | b'T') {
                    continue;
                }
                let err = u64::from(called != ref_base);
                let cov = covariate(rec, qi);
                let coarse = (cov.read_group.clone(), cov.reported_qual);
                let t = table.by_covariate.entry(cov).or_default();
                t.observations += 1;
                t.errors += err;
                let t = table.by_reported.entry(coarse).or_default();
                t.observations += 1;
                t.errors += err;
            }
        }
        table
    }

    /// Pass 2 (PrintReads): rewrite base qualities from the table. Returns
    /// how many base qualities changed.
    pub(super) fn print_reads(
        records: &mut [SamRecord],
        table: &RecalTable,
        config: &RecalConfig,
    ) -> u64 {
        let mut changed = 0u64;
        for rec in records.iter_mut() {
            if rec.seq.is_empty() {
                continue;
            }
            for qi in 0..rec.seq.len() {
                let cov = covariate(rec, qi);
                let fine = table.by_covariate.get(&cov);
                let new_q = match fine {
                    Some(t) if t.observations >= config.min_observations => t.empirical_quality(),
                    _ => match table
                        .by_reported
                        .get(&(cov.read_group.clone(), cov.reported_qual))
                    {
                        Some(t) if t.observations >= config.min_observations => {
                            t.empirical_quality()
                        }
                        _ => rec.qual[qi],
                    },
                };
                if new_q != rec.qual[qi] {
                    rec.qual[qi] = new_q;
                    changed += 1;
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::{Cigar, Flags};

    fn aligned(name: &str, pos: i64, seq: &[u8], qual: u8) -> SamRecord {
        let mut r = SamRecord::unmapped(name, seq.to_vec(), vec![qual; seq.len()]);
        r.flags = Flags(0);
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = Cigar::full_match(seq.len() as u32);
        r.read_group = "rg1".into();
        r
    }

    #[test]
    fn tally_empirical_quality() {
        let t = Tally {
            observations: 998,
            errors: 9,
        };
        // (9+1)/(998+2) = 0.01 → Q20.
        assert_eq!(t.empirical_quality(), 20);
        let perfect = Tally {
            observations: 100_000,
            errors: 0,
        };
        assert!(perfect.empirical_quality() >= 50);
    }

    #[test]
    fn recalibrator_counts_errors_against_reference() {
        let seqs = vec![b"ACGTACGTACGTACGT".to_vec()];
        let reference = RefView::new(&seqs);
        // Read matches reference except one base.
        let mut seq = seqs[0].clone();
        seq[5] = b'A'; // ref has C at pos 6
        let rec = aligned("r", 1, &seq, 30);
        let table = base_recalibrator(
            &[rec],
            reference,
            &HashSet::new(),
            &RecalConfig::default(),
        );
        let coarse = table.by_reported.get(&("rg1".to_string(), 30)).unwrap();
        assert_eq!(coarse.observations, 16);
        assert_eq!(coarse.errors, 1);
    }

    #[test]
    fn known_sites_excluded() {
        let seqs = vec![b"ACGTACGTACGTACGT".to_vec()];
        let reference = RefView::new(&seqs);
        let mut seq = seqs[0].clone();
        seq[5] = b'A';
        let rec = aligned("r", 1, &seq, 30);
        let mut known = HashSet::new();
        known.insert((0, 6i64)); // the mismatch site is a known variant
        let table = base_recalibrator(&[rec], reference, &known, &RecalConfig::default());
        let coarse = table.by_reported.get(&("rg1".to_string(), 30)).unwrap();
        assert_eq!(coarse.observations, 15);
        assert_eq!(coarse.errors, 0);
    }

    #[test]
    fn duplicates_and_low_mapq_skipped() {
        let seqs = vec![b"ACGTACGT".to_vec()];
        let reference = RefView::new(&seqs);
        let mut dup = aligned("d", 1, &seqs[0], 30);
        dup.flags.set(Flags::DUPLICATE, true);
        let mut low = aligned("l", 1, &seqs[0], 30);
        low.mapq = 5;
        let table = base_recalibrator(
            &[dup, low],
            reference,
            &HashSet::new(),
            &RecalConfig::default(),
        );
        assert!(table.by_reported.values().all(|t| t.observations == 0));
    }

    #[test]
    fn print_reads_corrects_overconfident_qualities() {
        // Reported Q40 but the empirical error rate is ~3%: PrintReads
        // must lower the qualities.
        let seqs = vec![(0..64).map(|i| b"ACGT"[i % 4]).collect::<Vec<u8>>()];
        let reference = RefView::new(&seqs);
        let mut records = Vec::new();
        for k in 0..50 {
            let mut seq = seqs[0].clone();
            if k % 2 == 0 {
                // one error per even read ≈ 1/64 per base... concentrate:
                seq[(k / 2) % 64] = match seq[(k / 2) % 64] {
                    b'A' => b'C',
                    _ => b'A',
                };
            }
            records.push(aligned(&format!("r{k}"), 1, &seq, 40));
        }
        let table = base_recalibrator(
            &records,
            reference,
            &HashSet::new(),
            &RecalConfig::default(),
        );
        let changed = print_reads(&mut records, &table, &RecalConfig::default());
        assert!(changed > 0);
        let q = records[0].qual[0];
        assert!(
            q < 40,
            "empirical quality should be below reported 40, got {q}"
        );
        // Error rate 25/(50*64) ≈ 0.78% → ~Q21.
        assert!((15..=30).contains(&q), "unexpected empirical q {q}");
    }

    #[test]
    fn table_merge_is_additive() {
        let seqs = vec![b"ACGTACGT".to_vec()];
        let reference = RefView::new(&seqs);
        let r1 = aligned("a", 1, &seqs[0], 30);
        let r2 = aligned("b", 1, &seqs[0], 30);
        let both = base_recalibrator(
            &[r1.clone(), r2.clone()],
            reference,
            &HashSet::new(),
            &RecalConfig::default(),
        );
        let mut merged = base_recalibrator(
            &[r1],
            reference,
            &HashSet::new(),
            &RecalConfig::default(),
        );
        merged.merge(&base_recalibrator(
            &[r2],
            reference,
            &HashSet::new(),
            &RecalConfig::default(),
        ));
        assert_eq!(merged.by_reported, both.by_reported);
        assert_eq!(merged.by_covariate, both.by_covariate);
    }

    #[test]
    fn recal_table_wire_roundtrip() {
        use gesall_formats::wire::Wire;
        let seqs = vec![b"ACGTACGTACGTACGT".to_vec()];
        let reference = RefView::new(&seqs);
        let mut seq = seqs[0].clone();
        seq[3] = b'A';
        let rec = aligned("r", 1, &seq, 30);
        let table = base_recalibrator(
            &[rec],
            reference,
            &HashSet::new(),
            &RecalConfig::default(),
        );
        assert!(!table.by_covariate.is_empty());
        let bytes = table.to_wire_bytes();
        let back = RecalTable::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back.by_covariate, table.by_covariate);
        assert_eq!(back.by_reported, table.by_reported);
        // The layout is two tuple sequences (entries cached by earlier
        // builds still decode), and the closed-form lengths are exact.
        let tally = |t: &Tally| (t.observations, t.errors);
        let fine: Vec<(Covariate, (u64, u64))> =
            table.by_covariate.iter().map(|(k, t)| (k.clone(), tally(t))).collect();
        let coarse: Vec<((String, u64), (u64, u64))> = table
            .by_reported
            .iter()
            .map(|((rg, q), t)| ((rg.clone(), *q as u64), tally(t)))
            .collect();
        assert_eq!(bytes, [fine.to_wire_bytes(), coarse.to_wire_bytes()].concat());
        assert_eq!(table.encoded_len(), bytes.len());
        assert_eq!(fine[0].0.encoded_len(), fine[0].0.to_wire_bytes().len());
    }

    #[test]
    fn cycle_bucket_accounts_for_strand() {
        assert_eq!(cycle_bucket(0, 100, false), 0);
        assert_eq!(cycle_bucket(15, 100, false), 1);
        assert_eq!(cycle_bucket(0, 100, true), 12);
        assert_eq!(cycle_bucket(99, 100, true), 0);
        assert_eq!(cycle_bucket(4000, 4001, false), 255);
    }

    // ---- same as the parent's passes, on every shape of input ----

    thread_local! {
        /// `Tally::empirical_quality` calls made on this thread.
        pub(super) static EMPIRICAL_QUALITY_EVALS: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    fn empirical_quality_evals<R>(f: impl FnOnce() -> R) -> (R, u64) {
        EMPIRICAL_QUALITY_EVALS.with(|n| n.set(0));
        let out = f();
        (out, EMPIRICAL_QUALITY_EVALS.with(|n| n.get()))
    }

    fn same_table(ours: &RecalTable, parent: &RecalTable) -> Result<(), TestCaseError> {
        use gesall_formats::wire::Wire;
        prop_assert_eq!(&ours.by_covariate, &parent.by_covariate);
        prop_assert_eq!(&ours.by_reported, &parent.by_reported);
        prop_assert_eq!(ours.to_wire_bytes(), parent.to_wire_bytes());
        Ok(())
    }

    /// Both passes against the parent's: the table of `table_reads`,
    /// then `targets` rewritten from it.
    fn same_as_parent(
        table_reads: &[SamRecord],
        targets: &[SamRecord],
        reference: RefView<'_>,
        config: &RecalConfig,
    ) -> (RecalTable, Vec<SamRecord>, u64) {
        let known = HashSet::new();
        let table = base_recalibrator(table_reads, reference, &known, config);
        let parent = reference::base_recalibrator(table_reads, reference, &known, config);
        same_table(&table, &parent).unwrap();
        let (mut ours, mut theirs) = (targets.to_vec(), targets.to_vec());
        let changed = print_reads(&mut ours, &table, config);
        assert_eq!(
            changed,
            reference::print_reads(&mut theirs, &parent, config)
        );
        assert_eq!(ours, theirs);
        (table, ours, changed)
    }

    fn noisy_reference() -> Vec<Vec<u8>> {
        vec![(0..64).map(|i| b"ACGT"[(i * 7 + i / 9) % 4]).collect()]
    }

    /// 60 reads over [`noisy_reference`], one substitution in every
    /// second read, all in read group `rg`.
    fn noisy_reads(rg: &str, seqs: &[Vec<u8>]) -> Vec<SamRecord> {
        (0..60)
            .map(|k| {
                let mut seq = seqs[0].clone();
                if k % 2 == 0 {
                    seq[(k * 7) % 64] = b'A';
                }
                let mut r = aligned(&format!("r{k}"), 1, &seq, 30 + (k % 3) as u8);
                r.flags.set(Flags::REVERSE, k % 5 == 0);
                r.read_group = rg.into();
                r
            })
            .collect()
    }

    #[test]
    fn empty_and_unseen_read_groups_recalibrate_as_in_the_parent() {
        let seqs = noisy_reference();
        let rv = RefView::new(&seqs);
        let config = RecalConfig::default();
        // The aligner's records carry `read_group == ""` (the
        // `storage_rw` probe's input).
        let unnamed = noisy_reads("", &seqs);
        let (table, _, changed) = same_as_parent(&unnamed, &unnamed, rv, &config);
        assert!(table.by_reported.keys().all(|(rg, _)| rg.is_empty()));
        assert!(changed > 0);
        // Two read groups, one of which the table never saw: its
        // records come back untouched.
        let seen = noisy_reads("lane1", &seqs);
        let mut targets = seen.clone();
        targets.extend(noisy_reads("lane2", &seqs));
        let (_, rewritten, changed) = same_as_parent(&seen, &targets, rv, &config);
        assert!(changed > 0);
        assert_eq!(rewritten[60..], targets[60..]);
    }

    #[test]
    fn print_reads_evaluates_a_quality_per_table_entry_not_per_base() {
        let seqs = noisy_reference();
        let reads = noisy_reads("rg1", &seqs);
        let config = RecalConfig::default();
        let table = base_recalibrator(&reads, RefView::new(&seqs), &HashSet::new(), &config);
        let bases: u64 = reads.iter().map(|r| r.seq.len() as u64).sum();
        let entries = (table.by_covariate.len() + table.by_reported.len()) as u64;
        assert!(entries * 4 < bases, "{entries} entries, {bases} bases");
        let (_, ours) =
            empirical_quality_evals(|| print_reads(&mut reads.clone(), &table, &config));
        let (_, parents) =
            empirical_quality_evals(|| reference::print_reads(&mut reads.clone(), &table, &config));
        assert!(ours <= entries, "{ours} evaluations for {entries} entries");
        assert_eq!(parents, bases);
    }

    use proptest::prelude::*;

    const GROUPS: [&str; 4] = ["", "lane1", "lane2", "lane3"];

    /// Bases as called (`N` and lower case included), weighted so that
    /// dinucleotide contexts repeat and reads sometimes match the
    /// reference.
    fn base(e: u8) -> u8 {
        b"AAAAACCCCGGTNacgt"[e as usize % 17]
    }

    /// A read with groups drawn from the first `n_groups` of [`GROUPS`]:
    /// any CIGAR over `M/I/D/S/H/N`, positions off both chromosome ends,
    /// reference ids with no chromosome, every filtered kind of record,
    /// qualities mostly from three values (so buckets fill) but reaching
    /// the whole `u8` range.
    fn arb_read(n_groups: usize) -> impl Strategy<Value = SamRecord> {
        (
            (0..n_groups, 0usize..10, 0u8..=60, -5i64..130, -1i32..3),
            proptest::collection::vec((0usize..8, 1u32..12), 1..6),
            proptest::collection::vec(any::<u8>(), 141),
        )
            .prop_map(|((rg, kind, mapq, pos, ref_id), ops, e)| {
                let cigar = Cigar(
                    ops.into_iter()
                        .map(|(op, n)| match op {
                            0..=2 => CigarOp::Match(n),
                            3 => CigarOp::Ins(n),
                            4 => CigarOp::Del(n),
                            5 => CigarOp::SoftClip(n),
                            6 => CigarOp::HardClip(n),
                            _ => CigarOp::Skip(n),
                        })
                        .collect(),
                );
                let len = cigar.query_len() as usize;
                let seq = e[..len].iter().map(|&e| base(e)).collect();
                let qual = e[70..70 + len]
                    .iter()
                    .map(|&e| {
                        if e < 192 {
                            [0, 30, 255][e as usize % 3]
                        } else {
                            e.wrapping_mul(7)
                        }
                    })
                    .collect();
                let mut r = SamRecord::unmapped("r", seq, qual);
                r.flags = Flags(0);
                r.flags.set(Flags::UNMAPPED, kind == 6);
                r.flags.set(Flags::SECONDARY, kind == 7);
                r.flags.set(Flags::DUPLICATE, kind == 8);
                r.flags.set(Flags::REVERSE, e[140] & 1 == 1);
                (r.ref_id, r.pos, r.mapq, r.cigar) = (ref_id, pos, mapq, cigar);
                r.read_group = GROUPS[rg].into();
                r
            })
    }

    fn arb_chroms() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 40..125), 2).prop_map(
            |chroms| {
                chroms
                    .into_iter()
                    .map(|c| c.into_iter().map(base).collect())
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn tables_equal_the_parents(
            reads in proptest::collection::vec(arb_read(3), 0..40),
            chroms in arb_chroms(),
            known in proptest::collection::vec((0i32..2, 1i64..125), 0..30),
            cut in 0usize..40,
            min_mapq in 0u8..40,
        ) {
            let rv = RefView::new(&chroms);
            let known: HashSet<(i32, i64)> = known.into_iter().collect();
            let config = RecalConfig { min_mapq, ..RecalConfig::default() };
            let parent = reference::base_recalibrator(&reads, rv, &known, &config);
            same_table(&base_recalibrator(&reads, rv, &known, &config), &parent)?;
            // Partial tables merge to the table of the concatenation.
            let (head, tail) = reads.split_at(cut.min(reads.len()));
            let mut merged = base_recalibrator(head, rv, &known, &config);
            merged.merge(&base_recalibrator(tail, rv, &known, &config));
            same_table(&merged, &parent)?;
        }

        #[test]
        fn print_reads_rewrites_as_the_parent(
            reads in proptest::collection::vec(arb_read(3), 1..40),
            strangers in proptest::collection::vec(arb_read(4), 0..10),
            chroms in arb_chroms(),
            min_observations in 0u64..12,
            coarse_dropped in 0usize..8,
        ) {
            // `min_observations` straddles the bucket counts: fine
            // buckets hold a few observations, coarse ones a few
            // (arbitrary qualities) to a few hundred.
            let config = RecalConfig { min_mapq: 0, min_observations };
            let mut table =
                base_recalibrator(&reads, RefView::new(&chroms), &HashSet::new(), &config);
            // The fields are public: a group may lack its coarse rows.
            if let Some(rg) = GROUPS.get(coarse_dropped) {
                table.by_reported.retain(|(name, _), _| name != rg);
            }
            let mut ours = [reads, strangers].concat();
            let mut theirs = ours.clone();
            let changed = print_reads(&mut ours, &table, &config);
            prop_assert_eq!(changed, reference::print_reads(&mut theirs, &table, &config));
            prop_assert_eq!(ours, theirs);
        }
    }
}
