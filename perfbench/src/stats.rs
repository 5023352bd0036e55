//! The benchmark's own statistics: medians, the tail-percentile rule, and
//! the attempted/failed tally behind `failed_frac`.

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing distribution: the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100)`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the distribution had.
    pub samples: usize,
}

/// The tail of `samples`. With `n` samples sorted ascending, the value of
/// rank `r` (1-based) has `n - r` samples beyond it, so the highest
/// qualifying rank is `n - 10` and its percentile is `100 * r / n`. `None`
/// when there are too few samples for any percentile to qualify.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail { percentile: 100.0 * rank as f64 / n as f64, value: s[rank - 1], samples: n })
}

/// Counts of attempted and failed operations (steps or updates). An
/// operation fails when it errors, yields a non-finite loss, skips its
/// update, or a correctness check covering it fails.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failed correctness check.
    pub check_failures: Vec<String>,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a correctness check over `covered` already-counted
    /// operations: on failure those operations become failed (never more
    /// than were attempted) and the check's message is kept.
    pub fn check(&mut self, ok: bool, covered: u64, what: impl Into<String>) {
        if !ok {
            self.failed = (self.failed + covered.max(1)).min(self.attempted.max(1));
            self.attempted = self.attempted.max(1);
            self.check_failures.push(what.into());
        }
    }

    /// Share of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.check_failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so sorting is exercised.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&ramp(10)), None, "ten samples leave none with ten beyond");
        let t = tail(&ramp(11)).expect("eleven samples qualify");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_qualifying_percentile() {
        let t = tail(&ramp(200)).expect("enough samples");
        // Rank 190 of 200: exactly ten samples (191..=200) lie beyond.
        assert_eq!(t.value, 190.0);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        assert_eq!(t.samples, 200);
        let beyond = ramp(200).iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tally_counts_failed_operations() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.op(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert!((t.failed_frac() - 0.25).abs() < 1e-12);
        assert!(!t.correct());
    }

    #[test]
    fn a_failing_check_fails_the_operations_it_covers() {
        let mut t = Tally::default();
        for _ in 0..10 {
            t.op(true);
        }
        assert!(t.correct());
        t.check(true, 10, "passes");
        assert!(t.correct());
        t.check(false, 2, "losses differ across thread counts");
        assert_eq!((t.attempted, t.failed), (10, 2));
        assert!((t.failed_frac() - 0.2).abs() < 1e-12);
        assert!(!t.correct());
        assert_eq!(t.check_failures, vec!["losses differ across thread counts".to_string()]);
        // A check can never fail more operations than were attempted.
        t.check(false, 50, "everything");
        assert_eq!(t.failed, 10);
    }

    #[test]
    fn a_run_with_nothing_attempted_is_not_correct() {
        let t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(!t.correct());
    }
}
