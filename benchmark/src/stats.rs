//! Summaries of repeated measurements.
//!
//! Two kinds of summary, kept apart on purpose:
//!
//! - [`median`] summarizes a handful of repeats of one whole measurement
//!   (a campaign pass, a tuned training, a set-up) — the benchmark's
//!   throughput and set-up figures.
//! - [`percentile`] reads a latency distribution, and refuses any
//!   percentile that fewer than ten samples lie beyond: a p99 of 200
//!   answers, or a "p50" of one 60 s answer, is one sample's accident
//!   dressed as a statistic.

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample — both are bugs in the
/// caller, which always measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the rank,
/// naming how many samples the percentile would need.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    // Nearest rank, 1-based: the smallest k with k/n >= p/100.
    // The epsilon keeps float noise in p·n/100 from bumping an exact
    // rank up by one.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        let needed = (MIN_BEYOND as f64 * 100.0 / (100.0 - p) - 1e-9).ceil() as usize;
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; it needs at least {needed} samples"
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // One 60 s answer can give neither a p50 nor a p90.
        assert!(percentile(&[59_968.0], 50.0).is_err());
        assert!(percentile(&[59_968.0], 90.0).is_err());
        // p50 needs 20 samples, p90 100, p99 1000.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&xs, 50.0).is_err());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(10.0));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&xs, 90.0).is_err());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = percentile(&xs, 99.0).unwrap_err();
        assert!(err.contains("at least 1000 samples"), "{err}");
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Ok(990.0));
    }

    #[test]
    fn percentile_of_nothing_is_refused() {
        assert!(percentile(&[], 50.0).is_err());
    }
}
