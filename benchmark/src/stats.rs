//! Order statistics for the harness: medians, quartiles, and the
//! "highest percentile with at least ten samples beyond it" picker the
//! choosing-metrics method asks timings to be reported with.

/// Linear-interpolated quantile of an already sorted slice (`q` in 0..=1).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// (first quartile, median, third quartile).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// Nearest-rank percentile (`p` in 1..=100) of pooled samples: the value
/// with `ceil(p/100 × n)` samples at or below it.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p as f64 / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the conventional tail percentiles that still leaves at
/// least ten samples beyond it, or `None` when even p50 does not (fewer
/// than 20 samples). A percentile with fewer samples beyond it is one or
/// two outliers, not a tail.
pub fn highest_resolved_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50].into_iter().find(|&p| {
        let at_or_below = ((p as f64 / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(at_or_below) >= 10
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        // 120 pooled job latencies: p90 leaves 12 beyond, p95 only 6.
        assert_eq!(highest_resolved_percentile(120), Some(90));
        assert_eq!(highest_resolved_percentile(20_000), Some(99));
        assert_eq!(highest_resolved_percentile(1_000), Some(99));
        assert_eq!(highest_resolved_percentile(999), Some(95));
        assert_eq!(highest_resolved_percentile(100), Some(90));
        assert_eq!(highest_resolved_percentile(99), Some(75));
        assert_eq!(highest_resolved_percentile(36), Some(50));
        assert_eq!(highest_resolved_percentile(20), Some(50));
        assert_eq!(highest_resolved_percentile(19), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }
}
