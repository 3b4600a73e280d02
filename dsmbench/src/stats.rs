//! Order statistics for latency samples.
//!
//! Every reported timing is a median or a percentile with at least
//! [`MIN_BEYOND`] samples beyond it; a percentile that would rest on
//! fewer samples is refused, not extrapolated.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Slices a run is cut into for [`tail`].
pub const SLICES: usize = 10;

/// Median of `values` (mean of the two middle samples for even counts).
/// Zero for an empty slice — a span that never occurred took no time.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p < 1) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((sorted.len() as f64 * p).ceil() as usize).max(1);
    (rank + MIN_BEYOND <= sorted.len()).then(|| sorted[rank - 1])
}

/// The highest of p99, p95 and p90 that [`percentile`] does not refuse.
fn highest_percentile(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    [0.99, 0.95, 0.90].iter().find_map(|&p| percentile(&v, p))
}

/// Tail latency of a run given its samples in completion order.
///
/// The run is cut into [`SLICES`] consecutive slices, each slice reports
/// its highest non-refused percentile, and the tail is the median of
/// the slice values: one noisy burst moves one slice, not the metric
/// (whole-run p99 of the daemon moved 1.7 → 3.3 ms between identical
/// runs). A run too short for any slice percentile (fewer than 100
/// samples a slice) has no percentile to report and falls back to its
/// maximum.
pub fn tail(samples: &[f64]) -> f64 {
    let per = samples.len() / SLICES;
    let slice_tails: Option<Vec<f64>> = (per > 0)
        .then(|| samples.chunks_exact(per).map(highest_percentile).collect())
        .flatten();
    match slice_tails {
        Some(t) => median(&t),
        None => samples.iter().copied().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.50), Some(500.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        // 999 samples: rank 990, nine beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
    }

    #[test]
    fn tail_is_median_of_slice_percentiles() {
        // Ten slices of 1000: slice k holds k*1000+1 ..= (k+1)*1000, so
        // its p99 is k*1000+990; the median of those is 4990|5990 → 5490.
        assert_eq!(tail(&ramp(10_000)), 5490.0);
        // A burst in one slice drags the whole-run p99 to the burst, but
        // moves the slice median by one rank only.
        let mut v = ramp(10_000);
        for x in &mut v[3000..3150] {
            *x = 1e9;
        }
        assert_eq!(tail(&v), 6490.0);
        v.sort_by(f64::total_cmp);
        assert_eq!(percentile(&v, 0.99), Some(1e9));
    }

    #[test]
    fn tail_steps_down_to_p90_then_max() {
        // 150 a slice: p99 and p95 leave fewer than ten beyond, p90 leaves 15.
        let v = ramp(1500);
        let slice_p90 = |k: usize| (k * 150 + 135) as f64;
        assert_eq!(tail(&v), (slice_p90(4) + slice_p90(5)) / 2.0);
        // 12 samples: no percentile qualifies anywhere → maximum.
        assert_eq!(tail(&ramp(12)), 12.0);
        assert_eq!(tail(&[]), 0.0);
    }
}
