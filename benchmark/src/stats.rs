//! Aggregation rules of the benchmark, kept apart so the self-tests can pin
//! them on known vectors.

/// Sorts ascending with +inf (failed requests) last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of the best quarter of the values (at least one): the highest when
/// higher is better, else the lowest. Disturbance on a shared host is
/// one-sided - a noisy neighbour or a slow-mode instance only ever makes an
/// epoch worse - and lasts longer than an epoch, so the least disturbed
/// quarter says most about the code; two values, not one, so that a single
/// lucky epoch does not set the result.
pub fn best_quarter_mean(v: &[f64], higher_is_better: bool) -> f64 {
    let mut s = sorted(v.to_vec());
    if higher_is_better {
        s.reverse();
    }
    mean(&s[..(s.len() / 4).max(1).min(s.len())])
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(v, n=4)` gives them (the driver's spread rule), so
/// the A/A table reads the same as the driver's check. Needs two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v.to_vec());
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..4 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[i - 1] = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct)]
}

fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9 990 despite binary rounding.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, pct)
    }
}

/// The highest of the usual percentiles that still has `min_beyond` samples
/// beyond it; the median when none has.
pub fn highest_supported(n: usize, min_beyond: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= min_beyond)
        .unwrap_or(50.0)
}

/// Largest |x − median| / median over the values.
pub fn max_rel_dev(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    v.iter().map(|x| (x - m).abs() / m).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_quarter_mean_ignores_the_disturbed_epochs() {
        // Throughput of 8 epochs, five of them hit by a noisy neighbour.
        let v = [89.0, 61.0, 88.0, 55.0, 70.0, 82.0, 64.0, 58.0];
        assert_eq!(best_quarter_mean(&v, true), 88.5);
        // CPU cost: lower is better, so the two cheapest epochs.
        assert_eq!(best_quarter_mean(&[13.0, 15.5, 13.2, 14.9], false), 13.0);
        assert_eq!(best_quarter_mean(&[7.0], true), 7.0);
        assert_eq!(best_quarter_mean(&[], true), 0.0);
        // A median of the same epochs sits a quarter lower.
        assert!(median(&v) < 0.76 * best_quarter_mean(&v, true));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            [1.25, 3.5, 5.75]
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 100.0);
        assert_eq!(percentile(&s, 95.0), 190.0);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(highest_supported(200, 10), 95.0);
        assert_eq!(highest_supported(199, 10), 90.0);
        assert_eq!(highest_supported(1000, 10), 99.0);
        assert_eq!(highest_supported(999, 10), 95.0);
        assert_eq!(highest_supported(10_000, 10), 99.9);
        assert_eq!(highest_supported(15, 10), 50.0);
        // A failed request (+inf) sorts beyond every percentile.
        let with_fail = sorted(vec![1.0, f64::INFINITY, 2.0]);
        assert_eq!(with_fail[2], f64::INFINITY);
        assert_eq!(percentile(&with_fail, 50.0), 2.0);
    }

    #[test]
    fn max_rel_dev_is_relative_to_median() {
        assert!((max_rel_dev(&[90.0, 100.0, 105.0]) - 0.10).abs() < 1e-12);
    }
}
