//! Order statistics for timings: nearest-rank percentiles, and the check
//! that a reported tail percentile has at least ten samples beyond it.
//!
//! Each workload reports its tail at a fixed percentile, so a faster
//! commit is compared on the same percentile as a slower one.

use std::fmt;

/// Samples a tail percentile must leave above itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// A summary of one timing: median and tail percentile, with the sample
/// count behind them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// The percentile [`tail`](Self::tail) reports.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values` at the median and at the `tail_pct`
    /// percentile. `None` for an empty sample.
    pub fn of(values: &[f64], tail_pct: f64) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            samples: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        })
    }

    /// `Err` when fewer than [`MIN_BEYOND`] samples lie beyond the tail
    /// percentile: the sample is too small for that tail.
    pub fn check_tail(&self) -> Result<(), String> {
        let beyond = beyond(self.samples, self.tail_pct);
        if beyond < MIN_BEYOND {
            return Err(format!(
                "p{} of {} samples has {beyond} beyond it, fewer than {MIN_BEYOND}",
                self.tail_pct, self.samples
            ));
        }
        Ok(())
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {:.4}  p{} {:.4}  (n = {})",
            self.p50, self.tail_pct, self.tail, self.samples
        )
    }
}

/// The 1-based nearest rank of the `pct` percentile among `n` samples
/// (the tolerance absorbs rounding in `pct / 100 · n`).
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64) - 1e-9)
        .ceil()
        .clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile of an ascending, non-empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples strictly above the nearest-rank `pct` percentile of `n`.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// The fewest samples that leave [`MIN_BEYOND`] beyond the `pct`
/// percentile (`pct` below 100).
pub fn min_samples(pct: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, pct) >= MIN_BEYOND)
        .expect("a percentile below 100 leaves samples beyond it")
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// `num / den`, or `0.0` when nothing was counted.
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
    fn tail_check_needs_ten_samples_beyond_the_percentile() {
        let summary = |n: u32, pct| {
            let values: Vec<f64> = (1..=n).map(f64::from).collect();
            Summary::of(&values, pct).unwrap()
        };
        // p99 needs 1000 samples to leave 10 beyond it, p75 needs 40.
        assert!(summary(1000, 99.0).check_tail().is_ok());
        assert!(summary(999, 99.0).check_tail().is_err());
        assert!(summary(40, 75.0).check_tail().is_ok());
        let short = summary(39, 75.0).check_tail().unwrap_err();
        assert!(short.contains("p75 of 39 samples has 9 beyond"), "{short}");
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(75.0), 40);
        assert_eq!(min_samples(50.0), 20);
        // The percentile stays where it was asked for, whatever the count.
        assert_eq!(summary(39, 75.0).tail_pct, 75.0);
        assert_eq!(summary(5000, 75.0).tail_pct, 75.0);
    }

    #[test]
    fn summary_reports_values_and_sample_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&values, 99.0).unwrap();
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        let printed = s.to_string();
        assert!(printed.contains("n = 1000"), "{printed}");
        assert!(printed.contains("p99 990"), "{printed}");
        assert!(Summary::of(&[], 99.0).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 75.0), 3.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
