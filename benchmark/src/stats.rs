//! The harness's own order statistics.

/// Sorts a copy ascending (total order; the harness never produces NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (mean of the two middle ones for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of nothing");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted values: the smallest sample with at
/// least `p` percent of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count - ((p / 100.0) * count as f64).ceil() as usize
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the driver judges spreads with that function, so `compare` must too.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need two samples");
    let m = v.len();
    std::array::from_fn(|q| {
        let i = q + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Splits `0..len` into five contiguous, near-equal index ranges.
pub fn fifths(len: usize) -> [std::ops::Range<usize>; 5] {
    std::array::from_fn(|i| (i * len / 5)..((i + 1) * len / 5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(samples_beyond(2100, 99.0), 21);
        assert_eq!(samples_beyond(100, 99.0), 1);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn fifths_cover_everything_once() {
        for len in [5, 7, 100, 2101] {
            let f = fifths(len);
            assert_eq!(f[0].start, 0);
            assert_eq!(f[4].end, len);
            for w in f.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }
}
