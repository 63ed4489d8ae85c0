//! Small statistics helpers: nearest-rank percentiles, the highest
//! percentile a sample count supports, and generator lateness.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `values` (any order). `p` in `(0, 100]`;
/// an empty slice gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, so always one of the samples).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of p50/p90/p99/p99.9 with at least [`TAIL_SAMPLES`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // Per mille, so the nearest rank is exact integer arithmetic.
    [999, 990, 900, 500]
        .into_iter()
        .find(|&pm| samples - (samples * pm).div_ceil(1000) >= TAIL_SAMPLES)
        .map(|pm| pm as f64 / 10.0)
}

/// How late the generator issued a job: dispatch time minus due time,
/// zero when it went out early or on time.
pub fn lateness(due: Instant, dispatched: Instant) -> Duration {
    dispatched.saturating_duration_since(due)
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_over_unsorted_input() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn lateness_counts_only_late_dispatch() {
        let due = Instant::now();
        let late = due + Duration::from_micros(2500);
        assert_eq!(lateness(due, late), Duration::from_micros(2500));
        assert_eq!(lateness(late, due), Duration::ZERO);
        assert_eq!(lateness(due, due), Duration::ZERO);
        assert_eq!(ms(lateness(due, late)), 2.5);
    }

    #[test]
    fn ratio_guards_empty_denominators() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
