//! Small formatting helpers for the experiment reports.

/// Format seconds as `Hh MMm SSs`.
pub fn hms(seconds: f64) -> String {
    let s = seconds.round() as i64;
    let (h, rem) = (s / 3600, s % 3600);
    let (m, s) = (rem / 60, rem % 60);
    if h > 0 {
        format!("{h}h {m:02}m {s:02}s")
    } else if m > 0 {
        format!("{m}m {s:02}s")
    } else {
        format!("{s}s")
    }
}

/// Render an ASCII sparkline-ish bar chart row: label + proportional bar.
pub fn bar(label: &str, value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    format!("{label:<28} {:<width$} {value:.1}", "#".repeat(n.min(width)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hms_formats() {
        assert_eq!(hms(0.0), "0s");
        assert_eq!(hms(59.4), "59s");
        assert_eq!(hms(61.0), "1m 01s");
        assert_eq!(hms(3600.0 + 125.0), "1h 02m 05s");
        assert_eq!(hms(17_016.0), "4h 43m 36s");
    }

    #[test]
    fn bar_is_proportional() {
        let full = bar("x", 10.0, 10.0, 20);
        let half = bar("y", 5.0, 10.0, 20);
        assert_eq!(full.matches('#').count(), 20);
        assert_eq!(half.matches('#').count(), 10);
        assert_eq!(bar("z", 0.0, 0.0, 20).matches('#').count(), 0);
    }
}
