//! Exact order statistics over the samples a run collects.
//!
//! Percentiles come from the sorted samples themselves. The repo's
//! `sciml_obs::Histogram` quantises to buckets up to 12.5 % wide, which
//! is wider than the bounds this benchmark compares against.

use crate::json::Value;

/// Median, quartiles and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn to_json(self, unit: &str) -> Value {
        Value::obj()
            .with("value", Value::Num(self.median))
            .with("unit", Value::Str(unit.into()))
            .with("q1", Value::Num(self.q1))
            .with("q3", Value::Num(self.q3))
            .with("n", Value::Num(self.n as f64))
    }
}

/// Sorts a copy of `samples` ascending. Panics on NaN: a NaN duration
/// is a harness bug, not a measurement.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` (exclusive method) give them, so
/// that the numbers agree with the driver's own spread computation.
/// `None` for an empty set.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    let quartile = |i: usize| {
        if n == 1 {
            return s[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        median,
        q1: quartile(1),
        q3: quartile(3),
    })
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at
/// least ten samples beyond it, with its value; falls back to the median
/// (`50`) when the set is too small for any of them.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    for pct in TAIL_PERCENTILES {
        // Small epsilon: 1000 × (1 − 0.99) must count as ten.
        if n * (100.0 - pct) / 100.0 + 1e-9 >= 10.0 {
            return (pct, percentile(sorted, pct));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let s = summarize(&[160.0, 10.0, 40.0, 20.0, 80.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (15.0, 40.0, 120.0));
        assert_eq!(s.n, 5);
    }

    #[test]
    fn summary_of_one_sample_and_of_none() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank_on_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let of = |n: usize| tail(&(0..n).map(|i| i as f64).collect::<Vec<_>>()).0;
        assert_eq!(of(10_000), 99.9);
        assert_eq!(of(1_000), 99.0);
        assert_eq!(of(999), 95.0);
        assert_eq!(of(200), 95.0);
        assert_eq!(of(100), 90.0);
        assert_eq!(of(40), 75.0);
        assert_eq!(of(39), 50.0);
    }
}
