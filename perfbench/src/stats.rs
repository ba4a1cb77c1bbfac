//! Order statistics for the report: the median and the tail rule.

/// A tail percentile needs at least this many samples strictly above it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail latency and the percentile it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of the samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly above `value`; at least [`TAIL_BEYOND`].
    pub beyond: usize,
    pub samples: usize,
}

/// The highest percentile that has at least [`TAIL_BEYOND`] samples beyond
/// it: the largest sample with ten or more samples strictly greater. With
/// n distinct samples that is the (n − 10)-th smallest, percentile
/// 100·(n − 10)/n. `None` when there are too few samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // Step down past ties, so every sample after `idx` is strictly larger.
    let mut idx = n - TAIL_BEYOND - 1;
    while idx > 0 && v[idx] == v[idx + 1] {
        idx -= 1;
    }
    let beyond = v.iter().filter(|&&x| x > v[idx]).count();
    (beyond >= TAIL_BEYOND).then(|| Tail {
        value: v[idx],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        beyond,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_its_percentile() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);

        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond, t.percentile), (30.0, 10, 75.0));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_steps_down_past_ties() {
        // 20 samples: 1..=8, then twelve 9s. The 10th-from-top sample is a
        // 9, but only values below 9 have ten samples beyond them.
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.extend(std::iter::repeat_n(9.0, 12));
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 8.0);
        assert_eq!(t.beyond, 12);
        assert_eq!(t.percentile, 40.0);
        // All equal: nothing lies beyond any sample.
        assert_eq!(tail(&[5.0; 30]), None);
    }
}
