//! Streaming statistics: Welford mean/variance and binned means.

/// Streaming mean/variance accumulator (Welford), mergeable across
/// parallel chunks (Chan et al. parallel update).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observation (+∞ when empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel combine).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Means of `y` binned by integer values of `x` — the Figure-5 and
/// Figure-7 aggregation (average access time per viewing time / cache
/// size).
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMeans {
    lo: i64,
    bins: Vec<RunningStats>,
}

impl BinnedMeans {
    /// Bins for integer x in `[lo, hi]` inclusive.
    ///
    /// # Panics
    /// Panics when `hi < lo`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(hi >= lo, "inverted bin range");
        Self {
            lo,
            bins: vec![RunningStats::new(); (hi - lo + 1) as usize],
        }
    }

    /// Adds an observation; `x` outside the range is ignored.
    pub fn push(&mut self, x: f64, y: f64) {
        let xi = x.round() as i64;
        if xi < self.lo {
            return;
        }
        let idx = (xi - self.lo) as usize;
        if idx < self.bins.len() {
            self.bins[idx].push(y);
        }
    }

    /// The accumulator of bin `x`.
    pub fn bin(&self, x: i64) -> Option<&RunningStats> {
        if x < self.lo {
            return None;
        }
        self.bins.get((x - self.lo) as usize)
    }

    /// `(x, mean)` series over non-empty bins.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, b)| b.count() > 0)
            .map(|(i, b)| ((self.lo + i as i64) as f64, b.mean()))
            .collect()
    }

    /// Merges another binned accumulator (same shape).
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn merge(&mut self, other: &BinnedMeans) {
        assert_eq!(self.lo, other.lo, "bin ranges must match");
        assert_eq!(self.bins.len(), other.bins.len(), "bin counts must match");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn mean_and_variance() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < TOL);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < TOL);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!(s.std_err() > 0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut whole = RunningStats::new();
        xs.iter().for_each(|&x| whole.push(x));

        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);

        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < TOL);
        assert!((a.variance() - whole.variance()).abs() < 1e-7);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(3.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn binned_means_aggregate_by_x() {
        let mut b = BinnedMeans::new(1, 5);
        b.push(1.0, 10.0);
        b.push(1.0, 20.0);
        b.push(3.0, 6.0);
        b.push(99.0, 1.0); // out of range: ignored
        b.push(0.0, 1.0); // below range: ignored
        assert_eq!(b.bin(1).unwrap().count(), 2);
        assert!((b.bin(1).unwrap().mean() - 15.0).abs() < TOL);
        assert_eq!(b.series(), vec![(1.0, 15.0), (3.0, 6.0)]);
    }

    #[test]
    fn binned_merge() {
        let mut a = BinnedMeans::new(0, 3);
        let mut b = BinnedMeans::new(0, 3);
        a.push(2.0, 1.0);
        b.push(2.0, 3.0);
        a.merge(&b);
        assert!((a.bin(2).unwrap().mean() - 2.0).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "bin ranges must match")]
    fn binned_merge_shape_mismatch_panics() {
        let mut a = BinnedMeans::new(0, 3);
        let b = BinnedMeans::new(1, 4);
        a.merge(&b);
    }
}
