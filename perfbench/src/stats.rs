//! Summary statistics the benchmark reports: medians of per-pass figures
//! and the percentile rule for sample distributions.

/// Percentiles the tail rule may report, in tenths of a percent, highest
/// first: p99.9, p99, p95, p90, p75, p50.
pub const TAIL_LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (the mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A sample distribution summarised by the percentile rule: the median and
/// the highest percentile of [`TAIL_LADDER_PERMILLE`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Distribution {
    /// Number of samples.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// The reported tail as `(percentile, value)`, or `None` when even the
    /// median has fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank index of the `permille`-th per-mille in a sorted sample of
/// `len`, in integer arithmetic so that no rounding moves the rank.
fn rank_index(len: usize, permille: usize) -> usize {
    (permille * len).div_ceil(1000).clamp(1, len) - 1
}

/// Summarises `samples` by the percentile rule.
pub fn distribution(samples: &[f64]) -> Distribution {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let tail = TAIL_LADDER_PERMILLE.iter().find_map(|&permille| {
        if len == 0 {
            return None;
        }
        let index = rank_index(len, permille);
        let beyond = len - 1 - index;
        (beyond >= TAIL_MIN_BEYOND).then(|| (permille as f64 / 10.0, sorted[index]))
    });
    Distribution {
        samples: len,
        p50: median(&sorted),
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
