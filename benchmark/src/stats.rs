//! Order statistics over latency samples.

/// Samples that must lie beyond a percentile before it is reported: a
/// tail read off fewer points is one slow request, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `p`-quantile (0 < p ≤ 1) in a sorted slice
/// of `n` samples: the smallest index with at least `p·n` samples at or
/// below it.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 1.0);
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-quantile of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), p);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Median of an unsorted slice (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        // p95 of 100 samples: index 94, five beyond — too few to report.
        assert_eq!(percentile(&v, 0.95), None);
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.95), Some(190));
        assert_eq!(rank(200, 0.95), 189);
    }

    #[test]
    fn ten_beyond_guard() {
        // 219 samples leave 10 beyond p95 (index 208); 218 leave 10 too
        // (index 207); the guard trips exactly when the count drops to 9.
        for n in 1..400usize {
            let v: Vec<usize> = (0..n).collect();
            let beyond = n - 1 - rank(n, 0.95);
            assert_eq!(
                percentile(&v, 0.95).is_some(),
                beyond >= MIN_BEYOND,
                "n={n}"
            );
        }
        let v: Vec<usize> = (0..11).collect();
        assert_eq!(percentile(&v, 0.01), Some(0));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
