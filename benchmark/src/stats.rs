//! The two statistics every metric is made of: a nearest-rank percentile
//! within one trial, and the median over trials.

use sketches_workloads::percentile;

/// A trial must hold at least this many samples before its p95 is
/// reported: below it fewer than ten samples lie beyond the percentile.
pub const MIN_P95_SAMPLES: usize = 200;

/// `(p50, p95)` of one trial's samples, nearest-rank (the value at rank
/// `ceil(p/100 * n)`, so always one of the samples); the p95 is `None`
/// when the trial is too small to support it (see [`MIN_P95_SAMPLES`]).
pub fn p50_p95(samples: &[f64]) -> (f64, Option<f64>) {
    let p95 = (samples.len() >= MIN_P95_SAMPLES).then(|| percentile(samples, 95.0));
    (percentile(samples, 50.0), p95)
}

/// Median over trials (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no trials");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_samples() {
        let s: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(p50_p95(&s).0, 5.0);
        assert_eq!(percentile(&s, 95.0), 10.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(p50_p95(&[7.0]), (7.0, None));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let small: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(p50_p95(&small).1, None);
        let enough: Vec<f64> = (0..200).rev().map(f64::from).collect();
        assert_eq!(p50_p95(&enough), (99.0, Some(189.0)));
    }

    #[test]
    fn median_of_rounds_ignores_outliers_and_order() {
        assert_eq!(median(&[9.0, 1.0, 1000.0]), 9.0);
        assert_eq!(median(&[4.0, 2.0, 8.0, 6.0]), 5.0);
        assert_eq!(median(&[3.5]), 3.5);
    }
}
