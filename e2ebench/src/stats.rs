//! Order statistics behind every reported number.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER_PERMILLE: [u32; 4] = [500, 900, 990, 999];

/// The `q` quantile of `xs` (0 ≤ q ≤ 1), interpolating linearly between
/// order statistics (the numpy / R type-7 definition).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
///
/// # Panics
///
/// As [`quantile`].
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Smallest value of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "minimum of an empty sample");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "maximum of an empty sample");
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The highest percentile (in permille: 500, 900, 990 or 999) that leaves
/// at least ten of `n` samples beyond it, or `None` below ten samples.
///
/// A tail reported past this point would rest on fewer than ten
/// observations, so the benchmark never reports one.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| n as u64 * u64::from(1000 - p) >= 10 * 1000)
}

/// The nearest-rank quantile of `xs` at `permille`/1000: the smallest
/// sample with at least that share of the sample at or below it (the
/// usual latency percentile; it never interpolates towards an infinite
/// miss).
///
/// # Panics
///
/// As [`quantile`].
pub fn nearest_rank(xs: &[f64], permille: u32) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let rank = (u64::from(permille.min(1000)) * v.len() as u64).div_ceil(1000) as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The nearest-rank 99th percentile of `xs`, counting each of `failed`
/// requests as a miss of any limit (+∞). `None` when the sample cannot support p99 by
/// the ten-beyond rule.
pub fn p99_with_failures(xs: &[f64], failed: usize) -> Option<f64> {
    let n = xs.len() + failed;
    if tail_permille(n)? < 990 {
        return None;
    }
    let mut all = xs.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, failed));
    Some(nearest_rank(&all, 990))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.25), 25.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.75), 7.5);
    }

    #[test]
    fn extremes() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(max(&[3.0, 1.5, 2.0]), 3.0);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 990), 990.0);
        assert_eq!(nearest_rank(&xs, 500), 500.0);
        assert_eq!(nearest_rank(&[2.0], 990), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_permille(9), None);
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn p99_counts_failures_as_misses() {
        let xs = vec![1.0; 990];
        assert_eq!(p99_with_failures(&xs, 10), Some(1.0));
        assert_eq!(p99_with_failures(&xs, 20), Some(f64::INFINITY));
        assert_eq!(p99_with_failures(&xs[..900], 0), None, "too few for p99");
    }
}
