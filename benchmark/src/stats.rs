//! Order statistics shared by the runner and `compare`.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the sample at or below it. `q` is a fraction in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// which is what the acceptance rule is written against.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped into the sample.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the spread the
/// acceptance rule bounds.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Throughput of a run: the median over rounds of `statements / wall`.
/// A round stalled by a neighbour or a checkpoint moves one sample, not
/// the result.
pub fn median_round_throughput(rounds: &[(usize, f64)]) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|&(stmts, wall_s)| stmts as f64 / wall_s)
        .collect();
    median(&per_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 0.5 of three values rounds up to the second.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, med, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((q1, med, q3), (1.5, 4.0, 12.0));
        assert!((relative_iqr(&[16.0, 1.0, 4.0, 2.0, 8.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn round_throughput_ignores_one_stalled_round() {
        let rounds = [(100, 0.010), (100, 0.010), (100, 1.0), (100, 0.010)];
        assert!((median_round_throughput(&rounds) - 10_000.0).abs() < 1e-9);
    }
}
