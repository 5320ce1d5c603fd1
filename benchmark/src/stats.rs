//! Order statistics and the open-loop backlog detector.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of `candidates` (ascending, e.g. `[50, 90, 99, 99.9]`)
/// that still leaves at least ten samples beyond it.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        // The slack absorbs the rounding of `100 - 99.9`.
        .rfind(|&p| n as f64 * (100.0 - p) / 100.0 + 1e-6 >= 10.0)
}

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (exclusive method), so the numbers match the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => panic!("quartiles of an empty sample"),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `true` when the number of requests in the system keeps growing over
/// an open-loop run: the in-system count, sampled at every arrival, is
/// averaged over the second and the last quarter of the arrivals; a
/// stable queue keeps the two equal, an overloaded one grows linearly
/// (ratio ≈ 7/3). Both inputs ascend, in simulated nanoseconds.
pub fn backlog_grows(arrivals: &[u64], finishes: &[u64]) -> bool {
    let n = arrivals.len();
    assert!(n >= 8, "too few arrivals to judge a backlog");
    let mut done = 0usize;
    let in_system: Vec<usize> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            while done < finishes.len() && finishes[done] <= at {
                done += 1;
            }
            i + 1 - done
        })
        .collect();
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    let q2 = mean(&in_system[n / 4..n / 2]);
    let q4 = mean(&in_system[3 * n / 4..]);
    q4 > 1.5 * q2 + 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let c = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported_percentile(10_000, &c), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000, &c), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &c), Some(90.0));
        assert_eq!(highest_supported_percentile(96, &c), Some(50.0));
        assert_eq!(highest_supported_percentile(19, &c), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 3.5).abs() < 1e-12);
        assert!((q2 - 13.5).abs() < 1e-12);
        assert!((q3 - 31.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn backlog_detector_separates_stable_from_overloaded() {
        // Arrivals every 100 ns. A stable server answers 250 ns later; an
        // overloaded one finishes one request per 160 ns.
        let arrivals: Vec<u64> = (0..4000).map(|i| i * 100).collect();
        let stable: Vec<u64> = arrivals.iter().map(|a| a + 250).collect();
        let overloaded: Vec<u64> = (0..4000).map(|i| 160 * (i + 1)).collect();
        assert!(!backlog_grows(&arrivals, &stable));
        assert!(backlog_grows(&arrivals, &overloaded));
    }
}
