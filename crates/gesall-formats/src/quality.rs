//! Phred base-quality utilities.
//!
//! A Phred score `q` encodes an error probability `10^(-q/10)`. FASTQ and
//! SAM text store qualities as ASCII with a +33 offset ("Phred+33"); the
//! in-memory representation everywhere in this workspace is the raw score
//! (0–93).

/// ASCII offset used by Phred+33 encoding.
pub const PHRED_OFFSET: u8 = 33;

/// Maximum representable Phred score in Phred+33 ASCII ('~' - '!').
pub const MAX_PHRED: u8 = 93;

/// Convert an error probability to the nearest Phred score, clamped to
/// `[0, MAX_PHRED]`. Probabilities ≤ 0 saturate at `MAX_PHRED`.
#[inline]
pub fn error_prob_to_phred(p: f64) -> u8 {
    if p <= 0.0 {
        return MAX_PHRED;
    }
    let q = -10.0 * p.log10();
    q.round().clamp(0.0, MAX_PHRED as f64) as u8
}

/// Encode raw scores as Phred+33 ASCII.
pub fn encode_phred33(quals: &[u8]) -> Vec<u8> {
    quals
        .iter()
        .map(|&q| q.min(MAX_PHRED) + PHRED_OFFSET)
        .collect()
}

/// Decode Phred+33 ASCII to raw scores. Returns `None` if any byte is
/// outside the printable Phred+33 range.
pub fn decode_phred33(ascii: &[u8]) -> Option<Vec<u8>> {
    ascii
        .iter()
        .map(|&c| {
            if (PHRED_OFFSET..=PHRED_OFFSET + MAX_PHRED).contains(&c) {
                Some(c - PHRED_OFFSET)
            } else {
                None
            }
        })
        .collect()
}

/// Sum of base qualities at or above a threshold — PicardTools'
/// MarkDuplicates uses this (threshold 15) to pick the best pair among
/// duplicates.
pub fn quality_sum(quals: &[u8], min_quality: u8) -> u64 {
    quals
        .iter()
        .filter(|&&q| q >= min_quality)
        .map(|&q| q as u64)
        .sum()
}

/// A generalized-logistic weighting function over quality scores, as used
/// by the paper's error-diagnosis toolkit (§4.5.2): weight 0 at or below
/// `lo`, weight 1 at or above `hi`, and a logistic ramp in between.
///
/// For alignment the paper instantiates it with `lo = 30`, `hi = 55`
/// (mapping quality); a second instance covers variant quality scores.
#[derive(Debug, Clone, Copy)]
pub struct LogisticWeight {
    lo: f64,
    hi: f64,
    steepness: f64,
}

impl LogisticWeight {
    /// Build a weighting function saturating at `lo` (weight 0) and `hi`
    /// (weight 1). `lo < hi` is required.
    pub fn new(lo: f64, hi: f64) -> LogisticWeight {
        assert!(lo < hi, "logistic weight needs lo < hi");
        // Choose steepness so the logistic is ~0.006 at lo and ~0.994 at
        // hi; we then clamp the tails to exactly 0 and 1.
        let steepness = 10.0 / (hi - lo);
        LogisticWeight { lo, hi, steepness }
    }

    /// The paper's mapping-quality instance: 0 below mapq 30, 1 above 55.
    pub fn mapq_default() -> LogisticWeight {
        LogisticWeight::new(30.0, 55.0)
    }

    /// Weight for a quality score `q` in `[0, 1]`.
    pub fn weight(&self, q: f64) -> f64 {
        if q <= self.lo {
            return 0.0;
        }
        if q >= self.hi {
            return 1.0;
        }
        let mid = (self.lo + self.hi) / 2.0;
        1.0 / (1.0 + (-self.steepness * (q - mid)).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phred_error_prob_roundtrip() {
        for q in [0u8, 10, 20, 30, 60, 93] {
            let p = 10f64.powf(-(q as f64) / 10.0);
            assert_eq!(error_prob_to_phred(p), q);
        }
        assert_eq!(error_prob_to_phred(0.0), MAX_PHRED);
        assert_eq!(error_prob_to_phred(1.0), 0);
    }

    #[test]
    fn phred33_encoding() {
        let raw = vec![0u8, 20, 40, 93];
        let enc = encode_phred33(&raw);
        assert_eq!(enc, vec![b'!', b'5', b'I', b'~']);
        assert_eq!(decode_phred33(&enc).unwrap(), raw);
        assert!(decode_phred33(&[0x1f]).is_none());
    }

    #[test]
    fn quality_sum_thresholded() {
        // Picard counts only bases >= 15.
        assert_eq!(quality_sum(&[10, 15, 20, 30], 15), 65);
        assert_eq!(quality_sum(&[], 15), 0);
        assert_eq!(quality_sum(&[14, 14], 15), 0);
    }

    #[test]
    fn logistic_weight_saturation() {
        let w = LogisticWeight::mapq_default();
        assert_eq!(w.weight(0.0), 0.0);
        assert_eq!(w.weight(30.0), 0.0);
        assert_eq!(w.weight(55.0), 1.0);
        assert_eq!(w.weight(60.0), 1.0);
        let mid = w.weight(42.5);
        assert!((mid - 0.5).abs() < 1e-9, "midpoint should be 0.5, was {mid}");
        // Monotone on the ramp.
        assert!(w.weight(35.0) < w.weight(45.0));
    }
}
