//! Order statistics for repeated measurements.

/// Median of the values (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// A repeated measurement as reported: median with its spread.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        Self {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: mad(values),
            n: values.len(),
        }
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it in a sample of `n` — the tail a sample of that size
/// supports (choosing-metrics §1).
pub fn highest_supported_percentile(n: usize) -> f64 {
    // (percentile, smallest sample with ten values beyond it)
    const CANDIDATES: [(f64, usize); 4] =
        [(99.99, 100_000), (99.9, 10_000), (99.0, 1_000), (90.0, 100)];
    CANDIDATES.iter().find(|(_, min_n)| n >= *min_n).map_or(50.0, |(p, _)| *p)
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Deviations from the median 3 are 2,1,0,1,6 -> median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.mad, s.n), (3.0, 1.0, 5.0, 2.0, 3));
    }

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(9_999), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(100_000), 99.99);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.9), 7);
    }
}
