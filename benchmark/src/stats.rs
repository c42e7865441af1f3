//! Order statistics used by the benchmark: nearest-rank percentiles of
//! raw samples (latencies are kept exact, never bucketed), per-window
//! percentiles, and the quartiles `--repeat` reports across runs.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it (`q` in (0, 1]).
/// `None` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Each window's nearest-rank `q`-percentile, ascending. `samples`
/// are `(window, value)` pairs with each window's samples adjacent.
pub fn window_percentiles(samples: &[(u64, u64)], q: f64) -> Vec<u64> {
    let mut per_window: Vec<u64> = samples
        .chunk_by(|a, b| a.0 == b.0)
        .map(|window| {
            let mut values: Vec<u64> = window.iter().map(|s| s.1).collect();
            values.sort_unstable();
            percentile(&values, q).expect("chunks are not empty")
        })
        .collect();
    per_window.sort_unstable();
    per_window
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` — the definition the benchmark's
/// spread check is specified in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nearest-rank percentile is, by definition, the smallest
    /// sample `x` such that at least `q·n` samples are `<= x`.
    #[test]
    fn percentile_matches_its_definition() {
        let mut samples: Vec<u64> = (0..997u64).map(|i| (i * 7_919) % 1_009).collect();
        samples.sort_unstable();
        for q in [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let need = q * samples.len() as f64;
            let expect = *samples
                .iter()
                .find(|&&x| samples.iter().filter(|&&y| y <= x).count() as f64 >= need)
                .unwrap();
            assert_eq!(percentile(&samples, q), Some(expect), "q = {q}");
        }
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[5], 0.99), Some(5));
    }

    /// Values checked against Python 3: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((q1, q3), (2.75, 8.25));
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // Two values: the exclusive method extrapolates past both ends.
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q3), (1.5, 4.5));
    }

    /// Three windows with maxima 3, 100 and 5 and medians 1, 2 and 4.
    #[test]
    fn window_percentiles_are_per_window_and_ascending() {
        let samples = [(0, 1), (0, 3), (1, 100), (1, 2), (2, 5), (2, 4)];
        assert_eq!(window_percentiles(&samples, 1.0), vec![3, 5, 100]);
        assert_eq!(window_percentiles(&samples, 0.5), vec![1, 2, 4]);
        assert!(window_percentiles(&[], 0.5).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
