//! Order statistics for the benchmark's samples.

/// The median of `xs` (mean of the middle two for even lengths).
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (its default "exclusive"
/// method), so the spreads printed here match the ones a reader
/// recomputes from the per-run values.
///
/// # Panics
/// Panics on fewer than two samples or a NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let ld = s.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *q = (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0;
    }
    out
}

/// The highest whole percentile that still has at least ten samples
/// above its nearest-rank position, with its value: `(p, value)`.
/// `None` when fewer than eleven samples exist.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let s = sorted(xs);
    // Nearest rank of percentile p is ceil(p·n/100); the samples beyond
    // it number n − rank.
    (1..100u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        // rank ceil(p·11/100) = 1 for p ≤ 9: value 1, ten beyond.
        assert_eq!(tail_percentile(&xs), Some((9, 1.0)));
        let xs: Vec<f64> = (1..=800).map(f64::from).collect();
        // p = 98 → rank 784, 16 beyond; p = 99 → rank 792, only 8.
        assert_eq!(tail_percentile(&xs), Some((98, 784.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99, 990.0)));
    }
}
