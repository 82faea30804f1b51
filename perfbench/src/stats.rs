//! Order statistics shared by every workload.

/// Median of a slice (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The reported latency tail: the highest percentile with at least ten
/// samples strictly beyond it, as `(percentile, value, samples beyond)`.
/// `None` below forty samples, or when ties leave no such percentile above
/// the median, since then no percentile would be a tail.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    let n = sorted.len();
    if n < 40 {
        return None;
    }
    // The sample of 1-based rank r has n - r samples after it; ties with
    // it are not beyond it, so step down until ten are.
    (n / 2 + 1..=n - 10).rev().find_map(|rank| {
        let value = sorted[rank - 1];
        let beyond = n - sorted.partition_point(|&x| x <= value);
        (beyond >= 10).then_some((100.0 * rank as f64 / n as f64, value, beyond))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0, 10)));
        let v: Vec<f64> = (1..=580).map(f64::from).collect();
        assert_eq!(tail(&v), Some((100.0 * 570.0 / 580.0, 570.0, 10)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0, 10)));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0, 10)));
        assert_eq!(tail(&v[..39]), None);
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        // Ties at the top push the tail down to the last distinct value.
        let mut v: Vec<f64> = (1..=90).map(f64::from).collect();
        v.extend(std::iter::repeat_n(95.0, 10));
        v[85..90].fill(95.0);
        assert_eq!(tail(&v), Some((85.0, 85.0, 15)));
        // Everything above the median is one repeated value: no percentile
        // above the median has ten samples strictly beyond it.
        let mut v = vec![1.0; 50];
        v.extend(std::iter::repeat_n(2.0, 50));
        assert_eq!(tail(&v), None);
    }
}
