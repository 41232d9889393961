//! Percentiles, the median-of-segments reducer, and the quartile spread the
//! agreement checker uses.

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; `NAN` for
/// none. Infinite samples (failed operations) sort last, so enough of them
/// make the percentile infinite rather than vanish.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A reported value: the median of its segments, with the segments kept so
/// the ledger can show what is behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduced {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub segments: Vec<f64>,
}

pub fn reduce(segments: &[f64]) -> Reduced {
    Reduced {
        value: median(segments),
        min: segments.iter().copied().fold(f64::INFINITY, f64::min),
        max: segments.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        segments: segments.to_vec(),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method): `(q1, q2, q3)`. Needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k * (n + 1) / 4 in 1-based ranks, interpolated.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn failed_operations_count_as_over_any_limit() {
        // 1000 samples, 11 of them failed: more than 1 % lie beyond p99.
        let mut samples = vec![10.0; 989];
        samples.extend([f64::INFINITY; 11]);
        assert_eq!(percentile(&samples, 0.50), 10.0);
        assert_eq!(percentile(&samples, 0.99), f64::INFINITY);
        // Ten failures are exactly the 1 % p99 tolerates.
        samples[989] = 10.0;
        assert_eq!(percentile(&samples, 0.99), 10.0);
    }

    #[test]
    fn reducer_reports_median_min_max_of_segments() {
        let r = reduce(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((r.value, r.min, r.max), (5.0, 1.0, 9.0));
        assert_eq!(r.segments, vec![5.0, 1.0, 9.0, 3.0, 7.0]);
        // One wild segment moves neither the value nor the other bound.
        let r = reduce(&[5.0, 1.0, 900.0, 3.0, 7.0]);
        assert_eq!((r.value, r.min, r.max), (5.0, 1.0, 900.0));
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        assert!((spread(&values) - 1.0).abs() < 1e-12);
    }
}
