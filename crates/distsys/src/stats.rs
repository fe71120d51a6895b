//! Common access-time statistics shared by every simulation report.
//!
//! The single-channel and sharded systems used to report ad-hoc scalar
//! fields, which made their outputs incomparable. [`AccessStats`] is the
//! one summary every report carries (count, mean, p50, p99, extremes),
//! and [`Histogram`] is the fixed-bin stall-time histogram the per-shard
//! statistics expose.

/// Summary statistics of a set of access (stall) times.
///
/// Carried by [`ShardReport`](crate::scheduler::ShardReport), whose
/// one-shard case is the single channel, so single-channel and sharded
/// runs read off the same fields.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccessStats {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl AccessStats {
    /// Computes the summary from raw samples. Sorts `samples` in place;
    /// an empty slice yields the all-zero default.
    pub fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        // Unstable sort: equal non-NaN doubles are bit-identical, so the
        // result (and every derived statistic) matches a stable sort.
        samples.sort_unstable_by(f64::total_cmp);
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        Self {
            count: n as u64,
            mean: samples.iter().sum::<f64>() / n as f64,
            p50: rank(0.50),
            p99: rank(0.99),
            min: samples[0],
            max: samples[n - 1],
        }
    }
}

/// A fixed-boundary histogram of non-negative durations.
///
/// The first bin counts exact zeros (instant hits), the following bins
/// have the given upper edges, and one overflow bin catches the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    /// `Some(k0)` when the edges are exactly the consecutive powers of
    /// two `2^k0, 2^(k0+1), …` (the [`Histogram::stalls`] layout):
    /// [`Histogram::record`] then bins by reading the float's exponent
    /// bits instead of scanning the edge list — same bins, no scan.
    pow2: Option<i32>,
}

impl Histogram {
    /// A histogram with the given strictly increasing positive upper
    /// edges (plus the implicit zero bin and overflow bin).
    ///
    /// # Panics
    /// Panics if `edges` is empty or not strictly increasing/positive.
    pub fn with_edges(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        for w in edges.windows(2) {
            assert!(w[0] < w[1], "edges must be strictly increasing");
        }
        assert!(edges[0] > 0.0, "edges must be positive");
        let bins = edges.len() + 2; // zero bin + edge bins + overflow
        let pow2 = match edges[0].log2() {
            k0 if k0.fract() == 0.0
                && edges
                    .iter()
                    .enumerate()
                    .all(|(i, &e)| e == (k0 + i as f64).exp2()) =>
            {
                Some(k0 as i32)
            }
            _ => None,
        };
        Self {
            edges,
            counts: vec![0; bins],
            total: 0,
            sum: 0.0,
            pow2,
        }
    }

    /// The default stall-time histogram: a zero bin, power-of-two edges
    /// `1, 2, 4, …, 256`, and an overflow bin — spanning the paper's
    /// `r ∈ [1, 30]` retrievals up to heavily queued systems.
    pub fn stalls() -> Self {
        Self::with_edges((0..=8).map(|k| (1u32 << k) as f64).collect())
    }

    /// Records one non-negative observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x >= 0.0, "histogram observations must be non-negative");
        let idx = if x <= 0.0 {
            0
        } else if let Some(k0) = self.pow2 {
            // Edge `j` is `2^(k0+j)`, so the first edge `>= x` sits at
            // `j = ceil(log2 x) - k0`. For positive finite `x` the IEEE
            // exponent field gives `floor(log2 x)` directly (subnormals
            // read as a large negative that clamps to the first bin),
            // and any non-zero mantissa bumps the floor to the ceiling.
            let bits = x.to_bits();
            let floor = ((bits >> 52) & 0x7ff) as i32 - 1023;
            let k = floor + ((bits & ((1 << 52) - 1)) != 0) as i32;
            let j = (k - k0).max(0) as usize;
            if j < self.edges.len() {
                j + 1
            } else {
                self.counts.len() - 1
            }
        } else {
            match self.edges.iter().position(|&e| x <= e) {
                Some(i) => i + 1,
                None => self.counts.len() - 1,
            }
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += x;
    }

    /// Total observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Fraction of observations that were exactly zero (instant hits).
    pub fn zero_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[0] as f64 / self.total as f64
        }
    }

    /// The per-bin counts: `[zeros, (0, e₀], (e₀, e₁], …, overflow]`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The configured upper edges (excluding the zero and overflow bins).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Sum of all recorded observations.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Rebuilds a histogram from its serialised parts (`edges`, per-bin
    /// `counts` including the zero and overflow bins, and the running
    /// `sum` of observations). The total is recovered from the counts,
    /// so a round-trip through [`edges`](Self::edges),
    /// [`counts`](Self::counts) and [`sum`](Self::sum) compares equal
    /// to the original.
    ///
    /// # Panics
    /// Panics if the edges are invalid (see [`with_edges`](Self::with_edges))
    /// or `counts.len() != edges.len() + 2`.
    pub fn from_parts(edges: Vec<f64>, counts: Vec<u64>, sum: f64) -> Self {
        let mut h = Self::with_edges(edges);
        assert!(
            counts.len() == h.counts.len(),
            "histogram needs one count per bin (zero bin + edges + overflow)"
        );
        h.total = counts.iter().sum();
        h.counts = counts;
        h.sum = sum;
        h
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::stalls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_samples() {
        let mut xs = vec![4.0, 0.0, 2.0, 8.0];
        let s = AccessStats::from_samples(&mut xs);
        assert_eq!(s.count, 4);
        assert!((s.mean - 3.5).abs() < 1e-12);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 8.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 8.0);
    }

    #[test]
    fn histogram_round_trips_through_parts() {
        let mut h = Histogram::stalls();
        for x in [0.0, 0.5, 3.0, 3.0, 1000.0] {
            h.record(x);
        }
        let rebuilt = Histogram::from_parts(h.edges().to_vec(), h.counts().to_vec(), h.sum());
        assert_eq!(h, rebuilt);
        assert_eq!(rebuilt.count(), 5);
        assert_eq!(rebuilt.sum(), h.sum());
    }

    #[test]
    #[should_panic(expected = "one count per bin")]
    fn from_parts_rejects_wrong_bin_count() {
        let _ = Histogram::from_parts(vec![1.0, 2.0], vec![0, 0], 0.0);
    }

    #[test]
    fn stats_empty_is_all_zeroes() {
        let s = AccessStats::from_samples(&mut []);
        assert_eq!(s, AccessStats::default());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = AccessStats::from_samples(&mut xs);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn histogram_bins_and_zero_fraction() {
        let mut h = Histogram::with_edges(vec![1.0, 10.0]);
        h.record(0.0);
        h.record(0.5);
        h.record(5.0);
        h.record(50.0);
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.zero_fraction() - 0.25).abs() < 1e-12);
        assert!((h.mean() - 55.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn default_stall_histogram_covers_paper_range() {
        let mut h = Histogram::stalls();
        for r in 1..=30 {
            h.record(r as f64);
        }
        assert_eq!(h.count(), 30);
        assert_eq!(h.zero_fraction(), 0.0);
        // 1 | 2 | 3..4 | 5..8 | 9..16 | 17..30 — nothing overflows.
        assert_eq!(*h.counts().last().unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_edges() {
        let _ = Histogram::with_edges(vec![2.0, 1.0]);
    }

    /// The exponent-bits fast path of [`Histogram::record`] must bin
    /// exactly like the generic edge scan — including exact powers of
    /// two, values just above/below them, subnormals, and overflow.
    #[test]
    fn pow2_fast_path_matches_edge_scan() {
        let mut fast = Histogram::stalls();
        assert!(fast.pow2.is_some(), "stalls() edges are powers of two");
        // Same edges, scan path forced by a non-power edge appended
        // then compared bin-by-bin over the shared prefix? Simpler: a
        // reference histogram with identical edges but the scan forced.
        let mut scan = Histogram::stalls();
        scan.pow2 = None;
        let mut probe = vec![0.0, f64::MIN_POSITIVE / 2.0, 1e-300, 0.999];
        for k in 0..=9 {
            let e = (1u64 << k) as f64;
            probe.extend([e * (1.0 - 1e-9), e, e * (1.0 + 1e-9), e + 0.5]);
        }
        probe.extend([300.0, 1e9, f64::MAX]);
        for &x in &probe {
            fast.record(x);
            scan.record(x);
        }
        assert_eq!(fast.counts(), scan.counts());

        // Non-power-of-two edges must not engage the fast path.
        assert!(Histogram::with_edges(vec![1.0, 3.0]).pow2.is_none());
        assert!(Histogram::with_edges(vec![2.0, 8.0]).pow2.is_none());
        // Powers of two starting below one still qualify.
        assert_eq!(Histogram::with_edges(vec![0.25, 0.5, 1.0]).pow2, Some(-2));
    }
}
