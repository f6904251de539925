//! Summary statistics: medians and nearest-rank percentiles, with the rule
//! that a percentile is only reported when at least ten samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder, in per-mille: p50, p90, p99, p99.9.
const LADDER: [u32; 4] = [500, 900, 990, 999];

/// Number of samples beyond the nearest-rank `per_mille` percentile of `n`
/// samples: the value sits at rank `ceil(p·n)`, and everything ranked after
/// it lies beyond.
pub fn beyond(n: usize, per_mille: u32) -> usize {
    let rank = (n as u64 * u64::from(per_mille)).div_ceil(1000) as usize;
    n - rank.min(n)
}

/// The highest percentile of the ladder (in per-mille) that `n` samples can
/// support, or `None` when not even the median has ten samples beyond it.
pub fn highest_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= MIN_BEYOND)
        .max()
}

/// Nearest-rank percentile of `samples` (sorted in place).
///
/// # Errors
///
/// Fails when fewer than [`MIN_BEYOND`] samples lie beyond the percentile:
/// such a figure would rest on a handful of outliers.
pub fn percentile(samples: &mut [f64], per_mille: u32) -> Result<f64, String> {
    let n = samples.len();
    if beyond(n, per_mille) < MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it, {} samples give {}",
            f64::from(per_mille) / 10.0,
            MIN_BEYOND,
            n,
            beyond(n, per_mille)
        ));
    }
    samples.sort_by(f64::total_cmp);
    let rank = (n as u64 * u64::from(per_mille)).div_ceil(1000) as usize;
    Ok(samples[rank.max(1) - 1])
}

/// Median of per-repetition values (the mean of the middle two for an even
/// count). Panics on an empty slice, which would be a bug in this crate.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(500));
        assert_eq!(highest_percentile(99), Some(500));
        assert_eq!(highest_percentile(100), Some(900));
        assert_eq!(highest_percentile(999), Some(900));
        assert_eq!(highest_percentile(1000), Some(990));
        assert_eq!(highest_percentile(10_000), Some(999));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 500), Ok(50.0));
        assert_eq!(percentile(&mut v, 900), Ok(90.0));
        assert!(percentile(&mut v, 990).is_err());
        let mut few = vec![1.0; 19];
        assert!(percentile(&mut few, 500).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
