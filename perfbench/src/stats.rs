//! Order statistics and fits shared by every workload.

/// Fewest samples that must lie strictly beyond a reported percentile.
/// A tail percentile resting on fewer is noise and is withheld.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above it.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the percentile to report it.
    pub fn reportable(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `sorted`, which must be
/// ascending. `None` on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Sort a sample ascending (total order; NaN-free input expected).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of an unsorted sample (`NaN` when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5).map_or(f64::NAN, |p| p.value)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Mean of the middle half of a sample (ranks ⌊n/4⌋ to ⌈3n/4⌉), robust
/// to outliers without snapping to one sample the way a median does.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    mean(&s[n / 4..(3 * n).div_ceil(4)])
}

/// Split a multi-process run's wall time into a fixed cost and a cost
/// per superstep from runs at `k` and `2k` supersteps: the line through
/// the two points gives `per_step = (wall_2k − wall_k) / k` and
/// `fixed = wall_k − k·per_step`.
pub fn fixed_and_per_step(k: usize, wall_k: f64, wall_2k: f64) -> (f64, f64) {
    assert!(k > 0, "need at least one superstep");
    let per_step = (wall_2k - wall_k) / k as f64;
    (wall_k - k as f64 * per_step, per_step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&v, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert!(p90.reportable());
        assert_eq!(percentile(&v, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&v, 0.001).unwrap().value, 1.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: rank ceil(89.1) = 90 leaves only 9 above.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let p90 = percentile(&v, 0.9).unwrap();
        assert_eq!(p90.beyond, 9);
        assert!(!p90.reportable());
        // 100 samples is the smallest sample that reports p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&v, 0.9).unwrap().reportable());
        // The median of a small sample is still reportable.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(percentile(&v, 0.5).unwrap().reportable());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_and_mean_of_unsorted_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        // Middle half of 1..=8 is 3..=6.
        let v = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(interquartile_mean(&v), 4.5);
        // One wild outlier does not move it.
        assert_eq!(interquartile_mean(&[10.0, 10.0, 10.0, 1e9]), 10.0);
        // Values stuck on two polling steps average between them.
        assert_eq!(interquartile_mean(&[120.0, 120.0, 130.0, 130.0]), 125.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn fixed_and_per_step_recovers_a_synthetic_line() {
        // wall = 50 + 3·k, sampled at k = 10 and 20.
        let (fixed, step) = fixed_and_per_step(10, 80.0, 110.0);
        assert!((fixed - 50.0).abs() < 1e-12);
        assert!((step - 3.0).abs() < 1e-12);
        // No per-step cost: everything is fixed.
        assert_eq!(fixed_and_per_step(5, 42.0, 42.0), (42.0, 0.0));
        // A purely proportional cost has no intercept.
        let (fixed, step) = fixed_and_per_step(4, 8.0, 16.0);
        assert_eq!((fixed, step), (0.0, 2.0));
    }
}
