//! Summaries of timing samples: the median and the tail percentile rule.

/// The percentiles a tail is reported at, highest first. The tail is the
/// highest of these with at least [`MIN_BEYOND`] samples above it.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of a sorted sample set, nearest rank.
///
/// # Panics
///
/// Panics on an empty sample set.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The highest ladder percentile that has at least [`MIN_BEYOND`]
/// samples beyond it in a set of `n`, or `None` when even the median
/// lacks them.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// A sample set reduced to its median and supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile [`Summary::tail`] is (`None`: too few samples,
    /// and `tail` repeats the maximum).
    pub tail_pct: Option<f64>,
    /// The tail value.
    pub tail: f64,
    /// Samples beyond the tail percentile.
    pub beyond: usize,
}

impl Summary {
    /// Summarizes `samples` (sorted internally); all zeros when empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                p50: 0.0,
                tail_pct: None,
                tail: 0.0,
                beyond: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pct = tail_percentile(n);
        let (tail, beyond) = match tail_pct {
            Some(p) => (percentile(&sorted, p), self::beyond(n, p)),
            None => (sorted[n - 1], 0),
        };
        Summary {
            n,
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail,
            beyond,
        }
    }

    /// How the tail was chosen, for the human-readable report.
    #[must_use]
    pub fn describe_tail(&self) -> String {
        match self.tail_pct {
            Some(p) => format!("p{p} of {} ({} beyond)", self.n, self.beyond),
            None => format!("max of {} (too few for a percentile)", self.n),
        }
    }
}

/// The median of a non-empty set: the middle value, or the mean of the
/// two middle values of an even-sized set.
///
/// # Panics
///
/// Panics on an empty set.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}
