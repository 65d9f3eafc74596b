//! Order statistics used by the report: median, quartiles, and the highest
//! percentile that still has at least ten samples beyond it.

/// Samples sorted ascending. NaNs sort last; the report never feeds them in
/// (a non-finite value fails the correctness gate first).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle samples for an even count). `None` for no
/// samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spread printed here is the spread a reader computes from the printed
/// values. `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// metric bounds are compared against.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// 1-based nearest rank of the `p`-th percentile (`0 < p <= 100`, in steps
/// of 0.1) among `n` samples, in exact integer arithmetic.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).max(1)
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`). `None` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    v.get(rank(p, v.len()) - 1).copied()
}

/// The percentiles the report may quote for a tail, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it, with its value (nearest-rank). `None` below 20 samples, where not even
/// the median has ten samples above it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    LADDER.iter().find_map(|&p| {
        // Everything after the percentile's rank lies beyond it.
        let r = rank(p, n);
        (n >= r + 10).then(|| (p, v[r - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values from Python 3: statistics.quantiles(xs, n=4).
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Some((1.0, 7.0)));
        let (q1, q3) = quartiles(&[0.5, 0.1, 0.9, 0.3, 0.7]).unwrap();
        assert!((q1 - 0.2).abs() < 1e-12 && (q3 - 0.8).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        assert_eq!(percentile(&xs, 99.0), Some(198.0));
        assert_eq!(percentile(&xs, 100.0), Some(200.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let range = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&range(19)), None);
        assert_eq!(tail_percentile(&range(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&range(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&range(200)), Some((95.0, 190.0)));
        assert_eq!(tail_percentile(&range(999)), Some((95.0, 950.0)));
        assert_eq!(tail_percentile(&range(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&range(10_000)), Some((99.9, 9990.0)));
        // Order of the input does not matter.
        let mut rev = range(100);
        rev.reverse();
        assert_eq!(tail_percentile(&rev), Some((90.0, 90.0)));
    }
}
