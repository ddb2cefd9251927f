//! Sample summaries: percentiles under the ten-beyond rule, geometric
//! means, and span self time.

/// A percentile is printed only when at least this many samples lie
/// beyond its rank; otherwise it is refused rather than guessed.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-quantile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond the rank (so p50 needs 20
/// samples and p90 needs 100).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// p50 and p90 of a sample with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: Option<f64>,
    pub p90: Option<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 0.5),
            p90: percentile(&sorted, 0.9),
        }
    }
}

/// Arithmetic mean, `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Geometric mean of positive values, `None` for an empty sample.
pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp())
}

/// Self time of a span `[start, end)`: its duration minus the part of that
/// interval its children cover. Children are clipped to the parent, and
/// overlapping children (spans recorded on different threads) are counted
/// once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_refused_without_ten_samples_beyond_it() {
        // p90 of 99 samples has rank 90: only 9 samples beyond.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p90 of 100 samples has rank 90: exactly 10 beyond.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // p50 needs 20 samples.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        let s = Summary::of(&ramp(50));
        assert_eq!((s.n, s.p50, s.p90), (50, Some(25.0), None));
    }

    #[test]
    fn summary_sorts_its_input() {
        let mut v = ramp(200);
        v.reverse();
        let s = Summary::of(&v);
        assert_eq!(s.p50, Some(100.0));
        assert_eq!(s.p90, Some(180.0));
    }

    #[test]
    fn children_plus_self_equals_parent() {
        let parent = (100, 200);
        let children = [(110, 130), (140, 145), (160, 190)];
        let own = self_time(parent, &children);
        let child_sum: u64 = children.iter().map(|(s, e)| e - s).sum();
        assert_eq!(own + child_sum, 100);
        assert_eq!(own, 45);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children on different threads overlap on [120, 130); one
        // child starts before the parent and is clipped to it.
        let own = self_time((100, 200), &[(110, 130), (120, 150), (90, 105)]);
        assert_eq!(own, 100 - 40 - 5);
        assert_eq!(self_time((0, 10), &[(0, 10), (2, 3)]), 0);
        assert_eq!(self_time((0, 10), &[]), 10);
        assert_eq!(self_time((0, 10), &[(20, 30)]), 10);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        let g = geomean(&[1.0, 100.0]).expect("positive sample");
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
