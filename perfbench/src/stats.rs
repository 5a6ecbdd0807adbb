//! Order statistics shared by every metric.

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile of `xs` that still has
/// [`TAIL_BEYOND`] samples ranked above it: the sample of rank
/// `n - TAIL_BEYOND` (1-based) in ascending order. Returns
/// `(value, percentile)` with the percentile in `(0, 100)`, or `None`
/// when there are too few samples to leave ten beyond any rank.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = n - TAIL_BEYOND;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "ten samples leave none to report");
        assert_eq!(tail(&[]), None);

        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (v, p) = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!(v, 1.0, "only the minimum has ten samples above it");
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_eleventh_largest() {
        // 1000 samples in shuffled order: rank 990 is p99.0, with
        // exactly ten samples (991..=1000) beyond it.
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000 + 1) as f64).collect();
        let (v, p) = tail(&xs).expect("tail");
        assert_eq!(v, 990.0);
        assert_eq!(p, 99.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);

        // One more sample moves the rank up by one and the percentile
        // above 99.0.
        let mut more = xs.clone();
        more.push(1001.0);
        let (v, p) = tail(&more).expect("tail");
        assert_eq!(v, 991.0);
        assert!(p > 99.0 && p < 99.1);
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        // Twelve equal samples: rank 2 is the tail, ten ranks above it.
        let (v, _) = tail(&[5.0; 12]).expect("tail");
        assert_eq!(v, 5.0);
    }
}
