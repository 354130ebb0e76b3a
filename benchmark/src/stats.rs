//! Order statistics for the benchmark's samples: nearest-rank percentiles
//! with a sample-support rule, and the median.

/// How many samples must lie beyond a tail percentile before it is printed.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unsupported {
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples has {} samples beyond it; {MIN_SAMPLES_BEYOND} are needed",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted`: the smallest sample with at least `p`% of the samples at or
/// below it. Refused when fewer than [`MIN_SAMPLES_BEYOND`] samples lie
/// beyond that rank: such a value is set by a handful of requests and does
/// not repeat.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, Unsupported> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || rank > n || beyond < MIN_SAMPLES_BEYOND {
        return Err(Unsupported { percentile: p, samples: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// The median of `samples` (mean of the two middle values for an even
/// count). The support rule does not apply: the median is the statistic a
/// small sample does support. Panics on an empty sample, which is a bug in
/// the phase that collected it.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sort samples ascending (they are finite timings; `total_cmp` keeps a
/// stray NaN from panicking the sort).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples = ramp(1000);
        assert_eq!(percentile(&samples, 50.0), Ok(500.0));
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        assert_eq!(percentile(&samples, 95.0), Ok(950.0));
        // 0.1% of 1000 is rank 1: the smallest sample.
        assert_eq!(percentile(&samples, 0.1), Ok(1.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        let refused = percentile(&ramp(999), 99.0).unwrap_err();
        assert_eq!(refused, Unsupported { percentile: 99.0, samples: 999, beyond: 9 });
        assert!(refused.to_string().contains("9 samples beyond"));
        // p50 of 20 samples is supported, of 19 is not.
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(100), 100.0).is_err());
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
