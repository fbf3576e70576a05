//! Order statistics: nearest-rank percentiles with their sample-count
//! rule, and the quartiles the steadiness report compares runs by.

/// Samples a percentile must have beyond it before it counts as measured:
/// with fewer, the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the percentile for it to count.
    pub fn valid(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The `p`-th percentile (0 < p ≤ 100) of `values` by the nearest-rank
/// rule: the smallest sample with at least `p`% of the samples at or
/// below it. `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median as Python's `statistics.median` gives it (the mean of the
/// two middle samples for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the report's spreads match a check made in Python.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are checked against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        assert!(p90.valid());
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert!(!p99.valid(), "one sample beyond p99 of 100 is not enough");
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
    }

    #[test]
    fn percentile_rule_at_the_validity_boundary() {
        // 99 samples: p90 sits at rank ceil(89.1) = 90, leaving 9 beyond.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 9));
        assert!(!p90.valid());
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), Some(p90));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 100.0).unwrap().value, 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }
}
