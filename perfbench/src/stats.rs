//! Order statistics over wall-clock samples.

/// A percentile is reported only when at least this many samples lie beyond
/// it, so a p95 needs 200 samples.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (in `0..=1`) of `samples`, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // 1-based nearest rank: the smallest sample with at least a `p` share
    // of the samples at or below it.
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    if sorted.len() - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// `samples` rescaled to a fixed host speed. `passes[k]` is the wall time
/// of a reference pass taken right after sample k; sample k is multiplied
/// by `reference_s` over the median of the passes within `radius` samples
/// of it, so a phase in which the host runs slow scales back out.
/// Truncated to the shorter series.
pub fn at_reference_speed(
    samples: &[f64],
    passes: &[f64],
    radius: usize,
    reference_s: f64,
) -> Vec<f64> {
    let n = samples.len().min(passes.len());
    (0..n)
        .map(|k| {
            let local = &passes[k.saturating_sub(radius)..(k + radius + 1).min(n)];
            samples[k] * reference_s / median(local).expect("the window holds pass k")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_scales_out_slow_phases() {
        // The host runs at half speed for the last three samples: both the
        // work and the reference passes take twice as long.
        let samples = [1.0, 2.0, 1.0, 2.0, 4.0, 2.0];
        let passes = [0.5, 0.5, 0.5, 1.0, 1.0, 1.0];
        assert_eq!(
            at_reference_speed(&samples, &passes, 0, 0.5),
            vec![1.0, 2.0, 1.0, 1.0, 2.0, 1.0]
        );
        // A wider window takes the median of its neighbours, so one noisy
        // pass does not move its sample.
        let passes = [0.5, 0.5, 5.0, 0.5, 0.5];
        assert_eq!(at_reference_speed(&[1.0; 5], &passes, 1, 0.5), vec![1.0; 5]);
        assert_eq!(at_reference_speed(&[1.0, 1.0], &[0.5], 3, 0.5), vec![1.0]);
    }

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helper must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(200);
        assert_eq!(percentile(&s, 0.5), Some(100.0));
        assert_eq!(percentile(&s, 0.95), Some(190.0));
        assert_eq!(percentile(&ramp(1000), 0.95), Some(950.0));
        assert_eq!(percentile(&ramp(20), 0.0), Some(1.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 200 samples: rank 190 leaves exactly 10 beyond the p95.
        assert!(percentile(&ramp(200), 0.95).is_some());
        // 199 samples: rank 190 leaves 9.
        assert_eq!(percentile(&ramp(199), 0.95), None);
        // The rule applies to every percentile, the median included.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(500), 1.0), None);
    }

    #[test]
    fn degenerate_inputs_have_no_percentile() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 1.5), None);
        assert_eq!(percentile(&ramp(100), f64::NAN), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
