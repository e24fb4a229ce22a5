//! Order statistics over wall-clock samples.

/// Median of `v` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of a sorted slice: the smallest value with
/// at least `pct`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    sorted[nearest_rank(pct, n).clamp(1, n) - 1]
}

/// 1-based nearest rank of `pct` among `n` samples. The epsilon keeps
/// products such as 99.9% of 10 000 from rounding up past an exact rank.
fn nearest_rank(pct: f64, n: usize) -> usize {
    (pct * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Percentiles a tail metric may report, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile that leaves at least ten of `n`
/// samples strictly beyond its nearest rank; `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= 10)
}

/// A latency summary: the median and the tail percentile chosen by
/// [`tail_percentile`], with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`; `None` with fewer than twenty samples.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        n: s.len(),
        p50: percentile_sorted(&s, 50.0),
        tail: tail_percentile(s.len()).map(|p| (p, percentile_sorted(&s, p))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_rule_percentile_and_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let few = summarize(&[5.0, 1.0]).unwrap();
        assert_eq!((few.p50, few.tail), (1.0, None));
        assert!(summarize(&[]).is_none());
    }
}
