//! Access-frequency statistics for the LFU and delay-saving (DS)
//! sub-arbitrations of Section 5.2.
//!
//! The DS statistic is the *delay-saving profit* `freq_i · r_i` — "a
//! simplified form of the one used by WATCHMAN" (references \[12, 13\]):
//! evicting a frequently used, slow-to-refetch item costs the most future
//! network time, so such items are protected.

/// Running access-frequency counters over a fixed item universe.
#[derive(Debug, Clone)]
pub struct FreqTracker {
    counts: Vec<u64>,
    total: u64,
}

impl FreqTracker {
    /// Creates a tracker for `n` items with all counts zero.
    pub fn new(n: usize) -> Self {
        Self {
            counts: vec![0; n],
            total: 0,
        }
    }

    /// Number of items tracked.
    #[inline]
    pub fn n(&self) -> usize {
        self.counts.len()
    }

    /// Records one access to `item`.
    #[inline]
    pub fn record(&mut self, item: usize) {
        self.counts[item] += 1;
        self.total += 1;
    }

    /// Access count of `item`.
    #[inline]
    pub fn freq(&self, item: usize) -> u64 {
        self.counts[item]
    }

    /// Total number of recorded accesses.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Empirical access probability (0 when nothing recorded yet).
    pub fn empirical_prob(&self, item: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[item] as f64 / self.total as f64
        }
    }

    /// The delay-saving profit `freq_i · r_i` used by DS sub-arbitration.
    #[inline]
    pub fn delay_saving_profit(&self, item: usize, retrieval: f64) -> f64 {
        self.counts[item] as f64 * retrieval
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut t = FreqTracker::new(3);
        t.record(0);
        t.record(0);
        t.record(2);
        assert_eq!(t.freq(0), 2);
        assert_eq!(t.freq(1), 0);
        assert_eq!(t.freq(2), 1);
        assert_eq!(t.total(), 3);
        assert_eq!(t.n(), 3);
    }

    #[test]
    fn empirical_probabilities() {
        let mut t = FreqTracker::new(2);
        assert_eq!(t.empirical_prob(0), 0.0);
        t.record(0);
        t.record(0);
        t.record(1);
        assert!((t.empirical_prob(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn delay_saving_profit_scales_with_retrieval() {
        let mut t = FreqTracker::new(2);
        t.record(0);
        t.record(0);
        t.record(1);
        t.record(1);
        // Equal frequency: the slower item has the higher profit.
        assert!(t.delay_saving_profit(0, 9.0) > t.delay_saving_profit(1, 2.0));
    }

    #[test]
    fn reset_clears() {
        let mut t = FreqTracker::new(2);
        t.record(1);
        t.reset();
        assert_eq!(t.freq(1), 0);
        assert_eq!(t.total(), 0);
    }
}
