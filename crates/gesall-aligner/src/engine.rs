//! The batch alignment engine — the `bwa mem` analogue.
//!
//! Input flows in **batches** (like Bwa's read-and-parse loop): the engine
//! finds per-read candidates, estimates insert statistics *from the
//! batch*, resolves pairs, and emits SAM records. The multi-threaded path
//! mirrors Bwa's structure — a serial read/parse step, a parallel compute
//! step over the batch, and a serial write step — which is exactly the
//! synchronisation point the paper profiles in Fig. 5(c).

use crate::index::ReferenceIndex;
use crate::pairing::{estimate_insert_stats, select_pair, PairChoice, PairConfig};
use crate::single::{find_candidates_counted, Candidate, SingleConfig};
use gesall_formats::dna::reverse_complement;
use gesall_formats::fastq::ReadPair;
use gesall_formats::sam::record::NO_REF;
use gesall_formats::sam::{Cigar, Flags, SamRecord};
use gesall_telemetry::KernelStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Full aligner configuration.
#[derive(Debug, Clone)]
pub struct AlignerConfig {
    pub single: SingleConfig,
    pub pairing: PairConfig,
    /// Pairs per batch. Batch composition is what couples output to input
    /// partitioning.
    pub batch_size: usize,
    /// Global RNG seed; per-pair streams derive from it.
    pub seed: u64,
}

impl Default for AlignerConfig {
    fn default() -> AlignerConfig {
        AlignerConfig {
            single: SingleConfig::default(),
            pairing: PairConfig::default(),
            batch_size: 2000,
            seed: 0x6573_6131,
        }
    }
}

/// The aligner: an immutable index plus configuration. Cheap to share
/// across threads by reference.
pub struct Aligner {
    index: ReferenceIndex,
    config: AlignerConfig,
}

/// The configuration, not the index: a content key that hashes this
/// text hashes the reference the index was built from on its own.
impl std::fmt::Debug for Aligner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aligner").field("config", &self.config).finish_non_exhaustive()
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Aligner {
    pub fn new(index: ReferenceIndex, config: AlignerConfig) -> Aligner {
        Aligner { index, config }
    }

    pub fn index(&self) -> &ReferenceIndex {
        &self.index
    }

    pub fn config(&self) -> &AlignerConfig {
        &self.config
    }

    /// Align pairs serially (single thread). Deterministic.
    pub fn align_pairs(&self, pairs: &[ReadPair]) -> Vec<(SamRecord, SamRecord)> {
        self.align_pairs_threaded(pairs, 1)
    }

    /// Align pairs with `threads` compute threads per batch. The output is
    /// identical for any thread count (per-pair RNG streams); what changes
    /// output is *batch composition*, i.e. input partitioning.
    pub fn align_pairs_threaded(
        &self,
        pairs: &[ReadPair],
        threads: usize,
    ) -> Vec<(SamRecord, SamRecord)> {
        self.align_pairs_counted(pairs, threads).0
    }

    /// [`Aligner::align_pairs_threaded`], with the work its kernels did:
    /// each worker tallies its own reads and the batch join sums them.
    pub fn align_pairs_counted(
        &self,
        pairs: &[ReadPair],
        threads: usize,
    ) -> (Vec<(SamRecord, SamRecord)>, KernelStats) {
        let mut out = Vec::with_capacity(pairs.len());
        let mut stats = KernelStats::default();
        for (batch_ord, batch) in pairs.chunks(self.config.batch_size.max(1)).enumerate() {
            out.extend(self.align_batch(batch, batch_ord as u64, threads, &mut stats));
        }
        (out, stats)
    }

    /// Align one batch: the `batch_ord`-th `batch_size` pairs of the
    /// input (the last batch may be shorter), whose insert statistics
    /// and RNG streams are the batch's own. Its kernels' work is added
    /// to `stats`. A caller that hands in its input one batch at a time
    /// gets what [`Aligner::align_pairs_counted`] returns for all of it.
    pub fn align_batch(
        &self,
        batch: &[ReadPair],
        batch_ord: u64,
        threads: usize,
        stats: &mut KernelStats,
    ) -> Vec<(SamRecord, SamRecord)> {
        // Phase 1 (parallel compute): per-read candidates.
        let candidates: Vec<(Vec<Candidate>, Vec<Candidate>)> = if threads <= 1 {
            batch.iter().map(|p| self.pair_candidates(p, stats)).collect()
        } else {
            let chunk = batch.len().div_ceil(threads);
            let mut results: Vec<Vec<(Vec<Candidate>, Vec<Candidate>)>> =
                Vec::with_capacity(threads);
            std::thread::scope(|s| {
                let handles: Vec<_> = batch
                    .chunks(chunk.max(1))
                    .map(|part| {
                        s.spawn(move || {
                            let mut worker = KernelStats::default();
                            let candidates = part
                                .iter()
                                .map(|p| self.pair_candidates(p, &mut worker))
                                .collect::<Vec<_>>();
                            (candidates, worker)
                        })
                    })
                    .collect();
                for h in handles {
                    let (candidates, worker) = h.join().expect("aligner worker panicked");
                    results.push(candidates);
                    *stats += worker;
                }
            });
            results.into_iter().flatten().collect()
        };

        // Phase 2 (serial): batch statistics — the data-dependent step.
        let stats = estimate_insert_stats(&candidates, &self.config.pairing);

        // Phase 3: pair resolution with per-pair RNG streams.
        let batch_seed = splitmix(self.config.seed ^ splitmix(batch_ord));
        let (pairing, min_score) = (&self.config.pairing, self.config.single.min_score);
        batch
            .iter()
            .zip(candidates)
            .enumerate()
            .map(|(i, (pair, (c1, c2)))| {
                let mut rng = StdRng::seed_from_u64(splitmix(batch_seed ^ (i as u64)));
                let choice = select_pair(&c1, &c2, &stats, pairing, min_score, &mut rng);
                self.emit_pair(pair, &choice)
            })
            .collect()
    }

    fn pair_candidates(
        &self,
        pair: &ReadPair,
        stats: &mut KernelStats,
    ) -> (Vec<Candidate>, Vec<Candidate>) {
        let cfg = &self.config.single;
        (
            find_candidates_counted(&self.index, cfg, &pair.r1.seq, stats),
            find_candidates_counted(&self.index, cfg, &pair.r2.seq, stats),
        )
    }

    /// Build the two SAM records for one resolved pair.
    fn emit_pair(&self, pair: &ReadPair, choice: &PairChoice) -> (SamRecord, SamRecord) {
        let mut rec1 = self.emit_one(
            &pair.r1.name,
            &pair.r1.seq,
            &pair.r1.qual,
            choice.c1.as_ref(),
            choice.mapq1,
            true,
        );
        let mut rec2 = self.emit_one(
            &pair.r2.name,
            &pair.r2.seq,
            &pair.r2.qual,
            choice.c2.as_ref(),
            choice.mapq2,
            false,
        );
        cross_link_mates(&mut rec1, &mut rec2, choice.proper);
        (rec1, rec2)
    }

    fn emit_one(
        &self,
        name: &str,
        seq: &[u8],
        qual: &[u8],
        cand: Option<&Candidate>,
        mapq: u8,
        first: bool,
    ) -> SamRecord {
        let mut flags = Flags(Flags::PAIRED);
        flags.set(
            if first {
                Flags::FIRST_IN_PAIR
            } else {
                Flags::SECOND_IN_PAIR
            },
            true,
        );
        match cand {
            None => {
                let mut rec = SamRecord::unmapped(name, seq.to_vec(), qual.to_vec());
                rec.flags = flags;
                rec.flags.set(Flags::UNMAPPED, true);
                rec
            }
            Some(c) => {
                // SAM convention: SEQ/QUAL are stored in forward-reference
                // orientation.
                let (s, q) = if c.reverse {
                    let mut q = qual.to_vec();
                    q.reverse();
                    (reverse_complement(seq), q)
                } else {
                    (seq.to_vec(), qual.to_vec())
                };
                flags.set(Flags::REVERSE, c.reverse);
                SamRecord {
                    name: name.to_string(),
                    flags,
                    ref_id: c.chrom as i32,
                    pos: c.pos,
                    mapq,
                    cigar: c.cigar.clone(),
                    mate_ref_id: NO_REF,
                    mate_pos: 0,
                    tlen: 0,
                    seq: s,
                    qual: q,
                    read_group: String::new(),
                    alignment_score: c.score,
                    edit_distance: c.edit_distance,
                }
            }
        }
    }
}

/// Fill a new pair's mate fields, TLEN and mate flags, and PROPER_PAIR from
/// the pairing's `proper`; an unmapped end is placed at its mate's position.
pub(crate) fn cross_link_mates(a: &mut SamRecord, b: &mut SamRecord, proper: bool) {
    let a_mapped = a.is_mapped();
    let b_mapped = b.is_mapped();
    a.flags.set(Flags::MATE_UNMAPPED, !b_mapped);
    b.flags.set(Flags::MATE_UNMAPPED, !a_mapped);
    a.flags.set(Flags::MATE_REVERSE, b.flags.is_reverse());
    b.flags.set(Flags::MATE_REVERSE, a.flags.is_reverse());
    a.flags.set(Flags::PROPER_PAIR, proper && a_mapped && b_mapped);
    b.flags.set(Flags::PROPER_PAIR, proper && a_mapped && b_mapped);

    match (a_mapped, b_mapped) {
        (true, true) => {
            a.mate_ref_id = b.ref_id;
            a.mate_pos = b.pos;
            b.mate_ref_id = a.ref_id;
            b.mate_pos = a.pos;
            if a.ref_id == b.ref_id {
                let left = a.pos.min(b.pos);
                let right = a.end_pos().max(b.end_pos());
                let frag = right - left + 1;
                let (first, second) = if a.pos <= b.pos { (a, b) } else { (b, a) };
                first.tlen = frag;
                second.tlen = -frag;
            } else {
                a.tlen = 0;
                b.tlen = 0;
            }
        }
        (true, false) => {
            // Convention: an unmapped read is *placed* at its mapped
            // mate's position (this is what makes MarkDuplicates' partial
            // matchings co-locate with complete ones).
            b.ref_id = a.ref_id;
            b.pos = a.pos;
            b.cigar = Cigar::unmapped();
            a.mate_ref_id = b.ref_id;
            a.mate_pos = b.pos;
            b.mate_ref_id = a.ref_id;
            b.mate_pos = a.pos;
            a.tlen = 0;
            b.tlen = 0;
        }
        (false, true) => {
            a.ref_id = b.ref_id;
            a.pos = b.pos;
            a.cigar = Cigar::unmapped();
            a.mate_ref_id = b.ref_id;
            a.mate_pos = b.pos;
            b.mate_ref_id = a.ref_id;
            b.mate_pos = a.pos;
            a.tlen = 0;
            b.tlen = 0;
        }
        (false, false) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_datagen::{
        donor::DonorConfig, reads::ReadSimConfig, DonorGenome, GenomeConfig, ReadSimulator,
        ReferenceGenome,
    };
    use gesall_formats::fastq::FastqRecord;

    fn build_world(
        n_pairs: usize,
    ) -> (ReferenceGenome, Vec<ReadPair>, Aligner) {
        let genome = ReferenceGenome::generate(&GenomeConfig::tiny());
        let donor = DonorGenome::generate(&genome, &DonorConfig::default());
        let simcfg = ReadSimConfig {
            n_pairs,
            duplicate_rate: 0.03,
            ..ReadSimConfig::default()
        };
        let (pairs, _) = ReadSimulator::new(&genome, &donor, simcfg).simulate();
        let chroms: Vec<(String, Vec<u8>)> = genome
            .chromosomes
            .iter()
            .map(|c| (c.name.clone(), c.seq.clone()))
            .collect();
        let index = ReferenceIndex::build(&chroms);
        let aligner = Aligner::new(index, AlignerConfig::default());
        (genome, pairs, aligner)
    }

    #[test]
    fn aligns_simulated_pairs_mostly_proper() {
        let (_, pairs, aligner) = build_world(300);
        let recs = aligner.align_pairs(&pairs);
        assert_eq!(recs.len(), 300);
        let mapped = recs
            .iter()
            .filter(|(a, b)| a.is_mapped() && b.is_mapped())
            .count();
        assert!(
            mapped as f64 > 0.95 * 300.0,
            "only {mapped}/300 pairs fully mapped"
        );
        let proper = recs
            .iter()
            .filter(|(a, _)| a.flags.is_proper_pair())
            .count();
        assert!(
            proper as f64 > 0.85 * 300.0,
            "only {proper}/300 proper pairs"
        );
        for (a, b) in &recs {
            a.validate().unwrap();
            b.validate().unwrap();
            assert!(a.flags.is_first_in_pair());
            assert!(b.flags.is_second_in_pair());
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn mapped_positions_match_simulated_origins() {
        let (genome, pairs, aligner) = build_world(200);
        let recs = aligner.align_pairs(&pairs);
        let mut close = 0;
        let mut total = 0;
        for (a, _) in &recs {
            if !a.is_mapped() || a.mapq < 30 {
                continue;
            }
            total += 1;
            // Read name encodes "sim{serial}_{chrom}_{refpos1based}".
            let parts: Vec<&str> = a.name.split('_').collect();
            let true_chrom = parts[1];
            let true_pos: i64 = parts[2].parse().unwrap();
            let rec_chrom = genome.chromosomes[a.ref_id as usize].name.clone();
            if rec_chrom == true_chrom && (a.cigar.unclipped_start(a.pos) - true_pos).abs() <= 12 {
                close += 1;
            }
        }
        assert!(total > 100);
        assert!(
            close as f64 > 0.97 * total as f64,
            "{close}/{total} confident reads at true positions"
        );
    }

    #[test]
    fn output_and_work_against_the_parent_kernels() {
        // The count gate, no clock: on simulated reads the SAM is what
        // the parent's seed loop and kernels produce — its seeding and
        // Smith–Waterman run in place of ours, and every row of the
        // sampled SA answering as its — for a fraction of their work.
        // Seeding: repeat reads locate a quarter of the rows or fewer and
        // call the kernel on 70 % of the anchors or fewer, because later
        // seeds verify against anchors already located and copies of a
        // repeat share byte-identical windows; over a third of the seeds
        // are answered without a backward search, and answering them
        // locates and extends nothing the search would not have, so rows,
        // kernel calls and reuses are what they were before any seed was
        // answered (pinned). Extension: a fifth of the parent's DP cells
        // or fewer on the parent's own calls, because two extensions in
        // five or more are reads copied from the reference and most of
        // the rest are one substitution away.
        use crate::{fm, single, sw};
        let (genome, pairs, aligner) = build_world(2000);
        let text: Vec<u8> = genome.chromosomes.iter().flat_map(|c| c.seq.iter().copied()).collect();
        fm::reference::assert_same_sampled_rows(aligner.index().fm(), &text);

        // The tally comes back with the records: other tests' work
        // cannot leak in.
        let run = |parent_seeding: bool, parent_kernels: bool| {
            let counted = || aligner.align_pairs_counted(&pairs, 1);
            let align = || sw::reference::measure(parent_kernels, counted);
            let ((sam, k), work) = if parent_seeding {
                single::reference::with_parent_seeding(align)
            } else {
                align()
            };
            (sam, work, k)
        };
        // Smith–Waterman kernel calls: every extension but the reused ones.
        let sw_calls = |k: &KernelStats| k.sw_extensions() - k.sw_window_reuses;
        let (ours, work, k) = run(false, false);
        let (seeded, seeded_work, pk) = run(true, false);
        let (parents, parent_work, _) = run(true, true);
        assert_eq!(ours, parents);
        assert_eq!(seeded, parents);
        assert_eq!(
            work.extensions + seeded_work.extensions,
            0,
            "the reference ran in our measurement"
        );

        // Seeding, on the same anchors: each is extended or reused.
        assert_eq!(sw_calls(&pk), parent_work.extensions);
        assert_eq!(pk.sw_window_reuses, 0);
        assert_eq!(sw_calls(&k) + k.sw_window_reuses, sw_calls(&pk));
        assert!(parent_work.extensions >= 2 * 2000, "{parent_work:?}");
        assert!(
            k.seed_rows_located * 4 <= pk.seed_rows_located,
            "{} rows located, the parent's loop {}",
            k.seed_rows_located,
            pk.seed_rows_located
        );
        assert!(
            sw_calls(&k) * 10 <= sw_calls(&pk) * 7,
            "{} kernel calls, the parent's loop {}",
            sw_calls(&k),
            sw_calls(&pk)
        );
        assert_eq!(
            (k.seed_rows_located, sw_calls(&k), k.sw_window_reuses),
            (8_464, 4_132, 2_954),
            "rows located, kernel calls, window reuses"
        );

        // Search from the k-mer table: the same SAM and the same located
        // rows, kernel calls and reuses as the plain backward search, for
        // 60 % of its rank words or fewer (locate's LF walks included).
        let (plain, _, pl) = fm::reference::with_plain_search(|| run(false, false));
        assert_eq!(plain, parents);
        assert_eq!(
            (pl.seed_rows_located, sw_calls(&pl), pl.sw_window_reuses),
            (k.seed_rows_located, sw_calls(&k), k.sw_window_reuses)
        );
        assert!(
            k.occ_words_popcounted * 10 <= pl.occ_words_popcounted * 6,
            "{} rank words, the plain search {}",
            k.occ_words_popcounted,
            pl.occ_words_popcounted
        );
        // Paired rank steps: a step whose ends share a checkpoint block
        // walks once. The parent commit's two walks read 753 340 words.
        assert!(k.occ_words_popcounted * 10 <= 753_340 * 9);
        assert_eq!(k.occ_words_popcounted, 521_975, "rank words");

        // Survivors first: the same SAM, anchors and kernel calls as
        // building a candidate for every scoring anchor, and a CIGAR
        // cloned only for the candidates a read keeps.
        let (built_all, _, pe) = single::reference::with_parent_extension(|| run(false, false));
        assert_eq!(built_all, parents);
        assert_eq!(
            (pe.seed_rows_located, sw_calls(&pe), pe.sw_window_reuses),
            (k.seed_rows_located, sw_calls(&k), k.sw_window_reuses)
        );
        let reads = 2 * pairs.len() as u64;
        assert!(k.candidates_built <= single::MAX_CANDIDATES as u64 * reads);
        assert_eq!((k.candidates_built, pe.candidates_built), (6_817, 7_021), "candidates built");

        // Known-answer seeding: every seed of both strands of every read
        // that is all ACGT could have been searched.
        let cfg = &aligner.config().single;
        let acgt_seeds: u64 = pairs
            .iter()
            .flat_map(|p| [&p.r1.seq, &p.r2.seq])
            .map(|seq| {
                let last = seq.len().saturating_sub(cfg.seed_len);
                (0..last)
                    .step_by(single::SEED_STRIDE)
                    .chain([last])
                    .filter(|&off| {
                        seq.get(off..off + cfg.seed_len)
                            .is_some_and(|s| s.iter().all(|b| b"ACGT".contains(b)))
                    })
                    .count() as u64
                    * 2
            })
            .sum();
        assert_eq!(pk.seed_searches_answered, 0);
        // 43 367 of this world's 64 000 seeds (68 %); 51 % of the 256 000
        // in `wgs_hc`'s 8 000 pairs.
        assert!(
            k.seed_searches_answered * 100 >= acgt_seeds * 35,
            "{} of {acgt_seeds} seed searches answered",
            k.seed_searches_answered
        );

        // Extension, on the parent's calls.
        assert!(
            parent_work.exact * 10 >= parent_work.extensions * 4,
            "exact-diagonal share under 40 %: {parent_work:?}"
        );
        let non_exact = parent_work.extensions - parent_work.exact;
        assert!(
            pk.sw_gapless_hits * 100 >= non_exact * 65,
            "{} gapless-run answers of {non_exact} non-exact extensions",
            pk.sw_gapless_hits
        );
        assert!(
            seeded_work.cells * 10 <= parent_work.cells * 2,
            "{} cells filled, the parent's kernels {}",
            seeded_work.cells,
            parent_work.cells
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only: 8 000 pairs through the reference kernels")]
    fn the_wgs_hc_world_aligns_as_under_the_parents_seeding_and_kernels() {
        // The benchmark's pipeline world: two chromosomes of 200 000 and
        // 150 000 bp with the default annotations (centromeric tandem
        // repeats, segmental duplications), 8 000 pairs, 5 % duplicates,
        // one fixed seed. Every read's candidates are the parent seed
        // loop's, and the SAM is what the parent's seeding and kernels
        // write — and what building every scoring anchor's candidate
        // writes, for the same anchors and kernel calls.
        use crate::{single, sw};
        const SEED: u64 = 20170514;
        let genome = ReferenceGenome::generate(&GenomeConfig {
            chromosome_lengths: vec![200_000, 150_000],
            seed: SEED,
            ..GenomeConfig::default()
        });
        let donor = DonorGenome::generate(&genome, &DonorConfig { seed: SEED, ..DonorConfig::default() });
        let simcfg =
            ReadSimConfig { n_pairs: 8_000, duplicate_rate: 0.05, seed: SEED, ..ReadSimConfig::default() };
        let (pairs, _) = ReadSimulator::new(&genome, &donor, simcfg).simulate();
        let chroms: Vec<(String, Vec<u8>)> =
            genome.chromosomes.iter().map(|c| (c.name.clone(), c.seq.clone())).collect();
        let aligner = Aligner::new(ReferenceIndex::build(&chroms), AlignerConfig::default());
        let (index, cfg) = (aligner.index(), &aligner.config().single);

        for seq in pairs.iter().flat_map(|p| [&p.r1.seq, &p.r2.seq]) {
            let mut work = KernelStats::default();
            let ours = single::find_candidates_counted(index, cfg, seq, &mut work);
            let parents = single::reference::find_candidates(index, cfg, seq, &mut KernelStats::default());
            assert_eq!(ours, parents, "read {}", String::from_utf8_lossy(seq));
            assert_eq!(work.candidates_built, ours.len() as u64);
            assert!(ours.len() <= single::MAX_CANDIDATES);
        }

        let (sam, k) = aligner.align_pairs_counted(&pairs, 1);
        let (parents, _) = single::reference::with_parent_seeding(|| {
            sw::reference::measure(true, || aligner.align_pairs_counted(&pairs, 1)).0
        });
        assert!(sam == parents, "round 1's records moved");
        let (built_all, pe) =
            single::reference::with_parent_extension(|| aligner.align_pairs_counted(&pairs, 1));
        assert!(built_all == sam);
        let calls = |k: &KernelStats| k.sw_extensions() - k.sw_window_reuses;
        assert_eq!(
            (pe.seed_rows_located, calls(&pe), pe.sw_window_reuses),
            (k.seed_rows_located, calls(&k), k.sw_window_reuses)
        );
        assert!(k.candidates_built < pe.candidates_built);
        eprintln!("kernel ledger {k:?}; building every candidate: {}", pe.candidates_built);
    }

    #[test]
    fn threaded_output_identical_to_serial() {
        let (_, pairs, aligner) = build_world(150);
        let a = aligner.align_pairs(&pairs);
        let b = aligner.align_pairs_threaded(&pairs, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn partitioned_input_produces_slightly_different_output() {
        // The headline nondeterminism result (paper §4.5.2): running the
        // aligner over partitions differs slightly from the serial run.
        let (_, pairs, aligner) = build_world(600);
        let serial: Vec<(SamRecord, SamRecord)> = aligner.align_pairs(&pairs);
        // Parallel: two partitions, aligned independently, concatenated.
        let (p1, p2) = pairs.split_at(300);
        let mut parallel = aligner.align_pairs(p1);
        parallel.extend(aligner.align_pairs(p2));
        assert_eq!(serial.len(), parallel.len());
        let discordant = serial
            .iter()
            .zip(&parallel)
            .filter(|(s, p)| s != p)
            .count();
        // Most records agree; the high-quality ones almost all agree.
        let frac = discordant as f64 / serial.len() as f64;
        assert!(
            frac < 0.2,
            "discordance should be a small minority, got {frac}"
        );
        let confident_discordant = serial
            .iter()
            .zip(&parallel)
            .filter(|(s, p)| s != p && s.0.mapq >= 55 && p.0.mapq >= 55 && s.0.pos != p.0.pos)
            .count();
        assert!(
            (confident_discordant as f64) < 0.01 * serial.len() as f64,
            "confident position flips should be rare: {confident_discordant}"
        );
    }

    #[test]
    fn tlen_signs_and_mate_fields() {
        let (_, pairs, aligner) = build_world(100);
        let recs = aligner.align_pairs(&pairs);
        for (a, b) in &recs {
            if a.is_mapped() && b.is_mapped() && a.ref_id == b.ref_id {
                assert_eq!(a.tlen, -b.tlen);
                assert_ne!(a.tlen, 0);
                assert_eq!(a.mate_pos, b.pos);
                assert_eq!(b.mate_pos, a.pos);
                assert_eq!(a.mate_ref_id, b.ref_id);
            }
        }
    }

    #[test]
    fn garbage_pair_is_unmapped_pair() {
        let (_, _, aligner) = build_world(1);
        // Reads that exist nowhere in the genome (pure N is skipped by
        // seeding; a random other alphabet segment also works).
        let junk = ReadPair {
            r1: FastqRecord {
                name: "junk".into(),
                seq: vec![b'N'; 100],
                qual: vec![2; 100],
            },
            r2: FastqRecord {
                name: "junk".into(),
                seq: vec![b'N'; 100],
                qual: vec![2; 100],
            },
        };
        let recs = aligner.align_pairs(&[junk]);
        assert!(!recs[0].0.is_mapped());
        assert!(!recs[0].1.is_mapped());
        assert!(recs[0].0.flags.is_mate_unmapped());
    }

    #[test]
    fn unmapped_mate_placed_at_mapped_read() {
        let (_, pairs, aligner) = build_world(40);
        // Corrupt r2 of the first pair into junk so only r1 maps.
        let mut pairs = pairs;
        pairs[0].r2.seq = vec![b'N'; 100];
        let recs = aligner.align_pairs(&pairs);
        let (a, b) = &recs[0];
        assert!(a.is_mapped());
        assert!(!b.is_mapped());
        assert_eq!(b.pos, a.pos, "unmapped mate placed at mate's position");
        assert_eq!(b.ref_id, a.ref_id);
        assert!(a.flags.is_mate_unmapped());
    }
}
