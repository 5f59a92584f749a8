//! Order statistics shared by every workload.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it. `None` for an
/// empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A latency distribution summarised the way results report it: the
/// median, the 99th percentile and the sample count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Samples in the distribution.
    pub count: usize,
}

impl Summary {
    /// Sorts `samples` in place and summarises them; `None` when empty.
    pub fn of(samples: &mut [u64]) -> Option<Self> {
        samples.sort_unstable();
        Some(Self {
            p50: percentile(samples, 50.0)?,
            p99: percentile(samples, 99.0)?,
            count: samples.len(),
        })
    }

    /// Whether at least ten samples lie beyond the p99, the least the
    /// percentile needs to mean anything.
    pub fn p99_supported(&self) -> bool {
        self.count >= 1000
    }
}

/// Median of a small sample of measurements (mean of the middle pair for
/// an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_the_definition() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50));
        assert_eq!(percentile(&sorted, 99.0), Some(99));
        assert_eq!(percentile(&sorted, 100.0), Some(100));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // Ten samples: the p50 is the 5th, the p99 rounds up to the 10th.
        let ten: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&ten, 50.0), Some(14));
        assert_eq!(percentile(&ten, 99.0), Some(19));
    }

    #[test]
    fn summary_states_its_sample_count() {
        let mut samples: Vec<u64> = (0..2000).rev().collect();
        let s = Summary::of(&mut samples).expect("non-empty");
        assert_eq!(s.count, 2000);
        assert_eq!(s.p50, 999);
        assert_eq!(s.p99, 1979);
        assert!(s.p99_supported());
        let mut few = vec![3, 1, 2];
        let s = Summary::of(&mut few).expect("non-empty");
        assert_eq!((s.p50, s.p99, s.count), (2, 3, 3));
        assert!(!s.p99_supported());
        assert!(Summary::of(&mut []).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
