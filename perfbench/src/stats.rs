//! The shared percentile helper. Every timing the benchmark reports is a
//! median or a tail taken from a [`Summary`], so all workloads agree on
//! what "median" and "tail" mean.

/// A non-empty set of samples, sorted once.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

/// The tail of a [`Summary`]: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. `97.5`).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie above it.
    pub beyond: usize,
}

/// Samples a tail must have above it. With fewer than twice this many
/// samples no percentile above the median qualifies, and the tail is the
/// median itself.
pub const TAIL_BEYOND: usize = 10;

impl Summary {
    /// Summarises `samples`; `None` when there are none or one is NaN.
    pub fn new(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|s| s.is_nan()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary { sorted })
    }

    /// The number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The median; the mean of the two middle samples for an even count.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// The sample at quantile `q` (0 ≤ `q` ≤ 1) by nearest rank: the
    /// smallest sample with at least a share `q` of all samples at or
    /// below it.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1);
        self.sorted[rank - 1]
    }

    /// The highest percentile with at least [`TAIL_BEYOND`] samples above
    /// it, never below the median. The sample at 1-based rank `r` is the
    /// `100·r/n`-th percentile, with `n − r` samples beyond it.
    pub fn tail(&self) -> Tail {
        let n = self.sorted.len();
        let median_rank = n.div_ceil(2);
        let rank = n.saturating_sub(TAIL_BEYOND).max(median_rank);
        if rank == median_rank && n - rank < TAIL_BEYOND {
            return Tail {
                percentile: 50.0,
                value: self.median(),
                beyond: n / 2,
            };
        }
        Tail {
            percentile: 100.0 * rank as f64 / n as f64,
            value: self.sorted[rank - 1],
            beyond: n - rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::new(&[3.0, 1.0, 2.0]).unwrap().median(), 2.0);
        assert_eq!(Summary::new(&[4.0, 1.0, 3.0, 2.0]).unwrap().median(), 2.5);
        assert_eq!(Summary::new(&[7.0]).unwrap().median(), 7.0);
    }

    #[test]
    fn empty_or_nan_samples_have_no_summary() {
        assert!(Summary::new(&[]).is_none());
        assert!(Summary::new(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=400).map(f64::from).collect();
        let tail = Summary::new(&samples).unwrap().tail();
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.value, 390.0);
        assert_eq!(tail.percentile, 97.5);

        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let tail = Summary::new(&samples).unwrap().tail();
        assert_eq!(
            (tail.value, tail.percentile, tail.beyond),
            (990.0, 99.0, 10)
        );
    }

    #[test]
    fn small_sets_fall_back_to_the_median() {
        let samples: Vec<f64> = (1..=15).map(f64::from).collect();
        let summary = Summary::new(&samples).unwrap();
        let tail = summary.tail();
        assert_eq!(tail.percentile, 50.0);
        assert_eq!(tail.value, summary.median());

        // Exactly twenty samples: the median rank has ten above it.
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let tail = Summary::new(&samples).unwrap().tail();
        assert_eq!((tail.value, tail.percentile, tail.beyond), (10.0, 50.0, 10));
    }

    #[test]
    fn quantile_by_nearest_rank() {
        let samples: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        let summary = Summary::new(&samples).unwrap();
        assert_eq!(summary.quantile(0.25), 100.0);
        assert_eq!(summary.quantile(0.0), 1.0);
        assert_eq!(summary.quantile(1.0), 400.0);
        assert_eq!(Summary::new(&[3.0, 1.0, 2.0]).unwrap().quantile(0.5), 2.0);
    }
}
