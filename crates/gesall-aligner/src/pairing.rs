//! Paired-end resolution with batch-local statistics.
//!
//! This module deliberately reproduces the two Bwa implementation
//! behaviours the paper identifies as the root cause of serial/parallel
//! discordance (Appendix B.2):
//!
//! 1. **Batch statistics** — the insert-size distribution is estimated
//!    from the current batch of reads and then used to score pair
//!    placements in that same batch. Different partitionings make
//!    different batches ⇒ slightly different (mean, sd) ⇒ pair choices
//!    near the distribution's edges can flip (Fig. 11c).
//! 2. **Random choice among equal pair scores** — common around
//!    repetitive regions, resolved by a seeded RNG whose stream position
//!    depends on where the read sits in its batch.
//!
//! How the search runs (observations needed, proper range, candidates
//! per end) is constants; [`PairConfig`] holds the prior and penalty.

use crate::single::{mapping_quality, Candidate};
use rand::rngs::StdRng;
use rand::Rng;

/// Insert-size distribution estimated from a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertStats {
    pub mean: f64,
    pub sd: f64,
    /// Number of observations behind the estimate (0 ⇒ prior used).
    pub n: usize,
}

/// Confident observations a batch needs to replace the insert prior.
const MIN_OBSERVATIONS: usize = 8;
/// Pairs within `mean ± Z_RANGE * sd` are "proper" (the step's cliff).
const Z_RANGE: f64 = 4.0;
/// Candidates per end that pairing considers, best first.
const CANDIDATE_CAP: usize = 8;

/// Pairing parameters.
#[derive(Debug, Clone)]
pub struct PairConfig {
    /// Prior (mean, sd) used when a batch yields too few observations.
    pub insert_prior: (f64, f64),
    /// Score penalty for a combo that is not a proper pair.
    pub unpaired_penalty: i32,
}

impl Default for PairConfig {
    fn default() -> PairConfig {
        PairConfig {
            insert_prior: (400.0, 100.0),
            unpaired_penalty: 17,
        }
    }
}

/// Observed fragment length of a (fwd, rev) candidate pair, if they are in
/// the proper forward/reverse orientation on the same chromosome.
pub fn observed_insert(a: &Candidate, b: &Candidate) -> Option<i64> {
    if a.chrom != b.chrom || a.reverse == b.reverse {
        return None;
    }
    let (fwd, rev) = if a.reverse { (b, a) } else { (a, b) };
    let insert = rev.end_pos() - fwd.pos + 1;
    if insert > 0 {
        Some(insert)
    } else {
        None
    }
}

/// Estimate insert statistics from the confident pairs of a batch —
/// both ends uniquely mapped (clear score gap), proper orientation,
/// sane distance.
pub fn estimate_insert_stats(
    candidates: &[(Vec<Candidate>, Vec<Candidate>)],
    cfg: &PairConfig,
) -> InsertStats {
    let mut observations: Vec<f64> = Vec::new();
    for (c1, c2) in candidates {
        let (Some(a), Some(b)) = (c1.first(), c2.first()) else {
            continue;
        };
        // Uniqueness: runner-up clearly worse on both ends.
        let unique = |cs: &[Candidate]| cs.len() == 1 || cs[0].score - cs[1].score >= 10;
        if !unique(c1) || !unique(c2) {
            continue;
        }
        if let Some(ins) = observed_insert(a, b) {
            if ins < 10_000 {
                observations.push(ins as f64);
            }
        }
    }
    if observations.len() < MIN_OBSERVATIONS {
        return InsertStats {
            mean: cfg.insert_prior.0,
            sd: cfg.insert_prior.1,
            n: 0,
        };
    }
    let (mut mean, mut sd) = mean_sd(&observations);
    // One outlier-trimming pass, as Bwa does.
    let lo = mean - 4.0 * sd;
    let hi = mean + 4.0 * sd;
    observations.retain(|&x| (lo..=hi).contains(&x));
    if observations.len() >= MIN_OBSERVATIONS {
        (mean, sd) = mean_sd(&observations);
    }
    InsertStats {
        mean,
        sd: sd.max(1.0),
        n: observations.len(),
    }
}

fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n.max(1.0);
    (mean, var.sqrt())
}

/// The outcome of pairing one read pair.
#[derive(Debug, Clone)]
pub struct PairChoice {
    /// Chosen placement of read 1 (`None` = unmapped).
    pub c1: Option<Candidate>,
    /// Chosen placement of read 2.
    pub c2: Option<Candidate>,
    /// Proper-pair flag (orientation + insert within range).
    pub proper: bool,
    pub mapq1: u8,
    pub mapq2: u8,
    /// True when an equal-score tie was broken randomly.
    pub tie_broken: bool,
}

/// Is the combo a proper pair under the batch statistics?
fn is_proper(a: &Candidate, b: &Candidate, stats: &InsertStats) -> bool {
    match observed_insert(a, b) {
        Some(ins) => {
            let dev = (ins as f64 - stats.mean).abs();
            dev <= Z_RANGE * stats.sd
        }
        None => false,
    }
}

/// Select the best joint placement for one read pair. `rng` breaks exact
/// score ties — the stream position (and hence the choice) depends on the
/// read's location within its batch. Mapping quality measures a lone
/// placement against `min_score`, bwa's `-T` (`SingleConfig::min_score`).
pub fn select_pair(
    c1: &[Candidate],
    c2: &[Candidate],
    stats: &InsertStats,
    cfg: &PairConfig,
    min_score: i32,
    rng: &mut StdRng,
) -> PairChoice {
    let c1 = &c1[..c1.len().min(CANDIDATE_CAP)];
    let c2 = &c2[..c2.len().min(CANDIDATE_CAP)];

    match (c1.is_empty(), c2.is_empty()) {
        (true, true) => {
            return PairChoice {
                c1: None,
                c2: None,
                proper: false,
                mapq1: 0,
                mapq2: 0,
                tie_broken: false,
            }
        }
        (false, true) => {
            let (chosen, mapq, tie) = pick_single(c1, min_score, rng);
            return PairChoice {
                c1: Some(chosen),
                c2: None,
                proper: false,
                mapq1: mapq,
                mapq2: 0,
                tie_broken: tie,
            };
        }
        (true, false) => {
            let (chosen, mapq, tie) = pick_single(c2, min_score, rng);
            return PairChoice {
                c1: None,
                c2: Some(chosen),
                proper: false,
                mapq1: 0,
                mapq2: mapq,
                tie_broken: tie,
            };
        }
        (false, false) => {}
    }

    // Score every combo; the pair score is a step function of the insert
    // deviation (proper ⇒ no penalty; improper ⇒ flat penalty).
    let mut best_score = i32::MIN;
    let mut best: Vec<(usize, usize, bool)> = Vec::new();
    for (i, a) in c1.iter().enumerate() {
        for (j, b) in c2.iter().enumerate() {
            let proper = is_proper(a, b, stats);
            let score = a.score + b.score - if proper { 0 } else { cfg.unpaired_penalty };
            match score.cmp(&best_score) {
                std::cmp::Ordering::Greater => {
                    best_score = score;
                    best.clear();
                    best.push((i, j, proper));
                }
                std::cmp::Ordering::Equal => best.push((i, j, proper)),
                std::cmp::Ordering::Less => {}
            }
        }
    }
    let tie_broken = best.len() > 1;
    let (i, j, proper) = best[rng.gen_range(0..best.len())];
    let chosen1 = c1[i].clone();
    let chosen2 = c2[j].clone();

    // Per-end mapq: separation between the chosen placement and the best
    // alternative placement of the same end.
    let mapq_for = |cs: &[Candidate], pick: usize| {
        let alt = cs
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != pick)
            .map(|(_, c)| c.score)
            .max();
        mapping_quality(cs[pick].score, alt, min_score)
    };
    let mut mapq1 = mapq_for(c1, i);
    let mut mapq2 = mapq_for(c2, j);
    // A proper pair lends confidence to a weak end (mate rescue effect).
    if proper {
        mapq1 = mapq1.max(mapq2.min(20));
        mapq2 = mapq2.max(mapq1.min(20));
    }
    PairChoice {
        c1: Some(chosen1),
        c2: Some(chosen2),
        proper,
        mapq1,
        mapq2,
        tie_broken,
    }
}

fn pick_single(cs: &[Candidate], min_score: i32, rng: &mut StdRng) -> (Candidate, u8, bool) {
    let top = cs[0].score;
    let ties: Vec<&Candidate> = cs.iter().filter(|c| c.score == top).collect();
    let tie = ties.len() > 1;
    let chosen = ties[rng.gen_range(0..ties.len())].clone();
    let alt = cs.iter().map(|c| c.score).filter(|&s| s < top).max();
    let mapq = if tie {
        0
    } else {
        mapping_quality(top, alt, min_score)
    };
    (chosen, mapq, tie)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::cigar::Cigar;
    use rand::SeedableRng;

    fn cand(chrom: usize, pos: i64, reverse: bool, score: i32) -> Candidate {
        Candidate {
            chrom,
            pos,
            reverse,
            score,
            cigar: Cigar::full_match(100),
            edit_distance: 0,
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn min_score() -> i32 {
        crate::single::SingleConfig::default().min_score
    }

    #[test]
    fn observed_insert_fr_orientation() {
        let f = cand(0, 1000, false, 100);
        let r = cand(0, 1301, true, 100);
        // rev end = 1301+99 = 1400 → insert 401.
        assert_eq!(observed_insert(&f, &r), Some(401));
        assert_eq!(observed_insert(&r, &f), Some(401)); // order-insensitive
        // Same strand: no insert.
        assert_eq!(observed_insert(&f, &cand(0, 1300, false, 100)), None);
        // Different chromosome: no insert.
        assert_eq!(observed_insert(&f, &cand(1, 1300, true, 100)), None);
        // Negative span: no insert.
        assert_eq!(observed_insert(&cand(0, 5000, false, 100), &cand(0, 100, true, 100)), None);
    }

    #[test]
    fn stats_fall_back_to_prior() {
        let cfg = PairConfig::default();
        let stats = estimate_insert_stats(&[], &cfg);
        assert_eq!(stats.mean, 400.0);
        assert_eq!(stats.sd, 100.0);
        assert_eq!(stats.n, 0);
    }

    #[test]
    fn stats_estimated_from_confident_pairs() {
        let cfg = PairConfig::default();
        let mut batch = Vec::new();
        for k in 0..50i64 {
            let f = cand(0, 1000 + k * 10, false, 100);
            let r = cand(0, 1000 + k * 10 + 280 + (k % 5) * 10, true, 100);
            batch.push((vec![f], vec![r]));
        }
        let stats = estimate_insert_stats(&batch, &cfg);
        assert!(stats.n >= 40);
        assert!(
            (395.0..405.0).contains(&stats.mean),
            "mean {} (insert = gap + 100 + 20 avg)",
            stats.mean
        );
    }

    #[test]
    fn ambiguous_pairs_excluded_from_stats() {
        let cfg = PairConfig::default();
        // Two near-equal candidates on end 1 ⇒ not confident.
        let batch = vec![(
            vec![cand(0, 1000, false, 100), cand(0, 5000, false, 98)],
            vec![cand(0, 1301, true, 100)],
        )];
        let stats = estimate_insert_stats(&batch, &cfg);
        assert_eq!(stats.n, 0);
    }

    #[test]
    fn proper_pair_beats_higher_single_scores_apart() {
        let cfg = PairConfig::default();
        let stats = InsertStats {
            mean: 400.0,
            sd: 50.0,
            n: 100,
        };
        // End1: one placement. End2: a proper placement scoring 90 and a
        // distant placement scoring 100.
        let c1 = vec![cand(0, 1000, false, 100)];
        let c2 = vec![
            cand(0, 900_000, true, 100),
            cand(0, 1301, true, 95),
        ];
        let choice = select_pair(&c1, &c2, &stats, &cfg, min_score(), &mut rng());
        assert!(choice.proper);
        assert_eq!(choice.c2.as_ref().unwrap().pos, 1301);
        // 100+95+0 > 100+100-17.
    }

    #[test]
    fn improper_kept_when_gap_exceeds_penalty() {
        let cfg = PairConfig::default();
        let stats = InsertStats {
            mean: 400.0,
            sd: 50.0,
            n: 100,
        };
        let c1 = vec![cand(0, 1000, false, 100)];
        let c2 = vec![
            cand(0, 900_000, true, 100),
            cand(0, 1301, true, 70),
        ];
        let choice = select_pair(&c1, &c2, &stats, &cfg, min_score(), &mut rng());
        assert!(!choice.proper);
        assert_eq!(choice.c2.as_ref().unwrap().pos, 900_000);
    }

    #[test]
    fn one_end_unmapped() {
        let cfg = PairConfig::default();
        let stats = estimate_insert_stats(&[], &cfg);
        let c1 = vec![cand(0, 1000, false, 100)];
        let choice = select_pair(&c1, &[], &stats, &cfg, min_score(), &mut rng());
        assert!(choice.c1.is_some());
        assert!(choice.c2.is_none());
        assert!(!choice.proper);
        assert_eq!(choice.mapq2, 0);
        assert!(choice.mapq1 > 0);
    }

    #[test]
    fn tie_break_depends_on_rng_stream() {
        let cfg = PairConfig::default();
        let stats = InsertStats {
            mean: 400.0,
            sd: 50.0,
            n: 100,
        };
        // Two exactly-equal combos (segmental duplication scenario).
        let c1 = vec![cand(0, 1000, false, 100), cand(0, 50_000, false, 100)];
        let c2 = vec![cand(0, 1301, true, 100), cand(0, 50_301, true, 100)];
        let mut choices = std::collections::HashSet::new();
        for seed in 0..32 {
            let mut r = StdRng::seed_from_u64(seed);
            let choice = select_pair(&c1, &c2, &stats, &cfg, min_score(), &mut r);
            assert!(choice.tie_broken);
            choices.insert(choice.c1.unwrap().pos);
        }
        assert_eq!(
            choices.len(),
            2,
            "both tie outcomes should occur across seeds"
        );
    }

    #[test]
    fn tied_singles_get_mapq_zero() {
        let c = vec![cand(0, 10, false, 80), cand(0, 999, false, 80)];
        let (_, mapq, tie) = pick_single(&c, min_score(), &mut rng());
        assert!(tie);
        assert_eq!(mapq, 0);
    }

    #[test]
    fn proper_pair_rescues_weak_end_mapq() {
        let cfg = PairConfig::default();
        let stats = InsertStats {
            mean: 400.0,
            sd: 50.0,
            n: 100,
        };
        // End2 alone is ambiguous (two similar placements) but pairing
        // disambiguates.
        let c1 = vec![cand(0, 1000, false, 100)];
        let c2 = vec![cand(0, 1301, true, 100), cand(0, 77_000, true, 99)];
        let choice = select_pair(&c1, &c2, &stats, &cfg, min_score(), &mut rng());
        assert!(choice.proper);
        assert!(choice.mapq2 >= 6);
    }
}
