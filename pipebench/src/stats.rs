//! Summary arithmetic: medians, nearest-rank percentiles, and the rule
//! that picks which tail percentile a sample count can support.
//!
//! A failed request is recorded as an infinite latency, so it counts as
//! missing every latency percentile it falls under.

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` sorted samples lie strictly beyond the nearest-rank
/// `p`th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// One-based nearest rank of the `p`th percentile among `n` samples,
/// in integer arithmetic on tenths of a percent so that e.g. p99.9 of
/// 10 000 is exactly rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 is not supported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// The nearest-rank `p`th percentile of `samples` (any order; failures
/// as `f64::INFINITY`). `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// The `p`th percentile of latencies in ms, where a failed request
/// (recorded as infinite) counts as taking the whole `run_s` run.
pub fn latency_ms(samples_ms: &[f64], p: f64, run_s: f64) -> f64 {
    percentile(samples_ms, p).min(run_s * 1e3)
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The arithmetic mean. `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [100, 1000, 10_000, 12_345] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn failures_miss_every_percentile_they_fall_under() {
        // 95 fast successes and 5 failures: p90 is still a success,
        // p99 lands on a failure.
        let mut v = vec![1.0; 95];
        v.extend([f64::INFINITY; 5]);
        assert_eq!(percentile(&v, 90.0), 1.0);
        assert_eq!(percentile(&v, 99.0), f64::INFINITY);
        assert_eq!(latency_ms(&v, 99.0, 2.0), 2000.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
