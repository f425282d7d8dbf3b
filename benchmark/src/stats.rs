//! Order statistics for latency samples.

/// Sorts in place and returns the slice for the percentile helpers.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100). An empty
/// slice has no percentile; callers report such a run as failed, so 0 is
/// never mistaken for a measurement.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).max(1) - 1]
}

/// Nearest rank of the `p`-th percentile among `n` samples, `ceil(p% * n)`.
/// The epsilon keeps a product that is whole on paper (99.9% of 10 000) from
/// rounding up on a float's last bit.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0 * n as f64) - 1e-9).ceil() as usize).min(n)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(sorted(values), 50.0)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — the highest one a sample of `n` supports. `None`
/// means only the median is worth reporting.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = sorted(&mut v);
        assert_eq!(percentile(s, 50.0), 50.0);
        assert_eq!(percentile(s, 95.0), 95.0);
        assert_eq!(percentile(s, 100.0), 100.0);
        assert_eq!(percentile(s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
