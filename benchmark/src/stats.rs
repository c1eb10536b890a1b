//! Order statistics over timing samples: the quantile picker the end-to-end
//! latency metrics use, and the rule for which tail percentile a sample count
//! can support.

/// Tail percentiles the benchmark is willing to report, ascending.
const CANDIDATE_PERCENTILES: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples a tail percentile needs beyond it before it is worth reporting
/// (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sorts samples ascending. Timing samples are finite by construction, so
/// `total_cmp` only fixes the order of equal values.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` samples, linearly
/// interpolated between the two nearest ranks (rank `q · (n − 1)`), so the
/// median of an even count is the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// How many of `n` ascending samples lie strictly beyond the `percentile`-th
/// percentile's rank.
pub fn samples_beyond(n: usize, percentile: u32) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = f64::from(percentile) / 100.0 * (n - 1) as f64;
    n - 1 - rank.floor() as usize
}

/// The highest candidate percentile that still has [`MIN_SAMPLES_BEYOND`]
/// samples beyond it among `n`; 50 when none does (the median is always
/// reported, with its sample count beside it).
pub fn highest_supported_percentile(n: usize) -> u32 {
    CANDIDATE_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn forty_samples_support_p75_and_no_higher() {
        // rank(p75, n=40) = 29.25 → samples 30..=39 lie beyond: exactly ten.
        assert_eq!(samples_beyond(40, 75), 10);
        assert_eq!(highest_supported_percentile(40), 75);
        assert_eq!(highest_supported_percentile(37), 50);
        assert_eq!(highest_supported_percentile(101), 90);
        assert_eq!(highest_supported_percentile(2), 50);
        assert_eq!(samples_beyond(0, 50), 0);
    }
}
