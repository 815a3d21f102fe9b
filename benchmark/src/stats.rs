//! Summaries of repeated measurements: median with min/max, and the rule for
//! which percentile a sample is large enough to support.

/// Median, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// The smallest sample.
    pub min: f64,
    /// The largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none (or one is NaN).
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples)?;
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Summary {
            n,
            median,
            min: sorted[0],
            max: sorted[n - 1],
        })
    }

    /// `(max - min) / median`: the run-to-run spread `compare` holds against
    /// a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.median)
}

fn sorted(samples: &[f64]) -> Option<Vec<f64>> {
    if samples.is_empty() || samples.iter().any(|s| s.is_nan()) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    Some(v)
}

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, but only when at least
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a p90 needs 100 samples, a
/// p99 needs 1000. Below that the tail is a handful of points and the number
/// would be noise presented as a measurement, so `None` is returned and the
/// caller prints nothing. The median is exempt — it is always reported, with
/// the sample count beside it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p), "percentile out of range");
    let sorted = sorted(samples)?;
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// The highest of p75 / p90 / p99 that `samples` supports, with its label.
pub fn highest_percentile(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99.0), ("p90", 90.0), ("p75", 75.0)]
        .into_iter()
        .find_map(|(label, p)| percentile(samples, p).map(|v| (label, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.median, s.min, s.max), (3, 2.0, 1.0, 3.0));
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.spread(), 3.0 / 2.5);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // p90 of 99 samples leaves 9 beyond it: not reported.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // p90 of 100 samples is the 90th value, with exactly 10 beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // p75 needs 40.
        assert_eq!(percentile(&ramp(39), 75.0), None);
        assert_eq!(percentile(&ramp(40), 75.0), Some(30.0));
        // The highest supported percentile wins; 33 sweep points support none.
        assert_eq!(highest_percentile(&ramp(33)), None);
        assert_eq!(highest_percentile(&ramp(40)), Some(("p75", 30.0)));
        assert_eq!(highest_percentile(&ramp(100)), Some(("p90", 90.0)));
        assert_eq!(highest_percentile(&ramp(1000)), Some(("p99", 990.0)));
    }
}
