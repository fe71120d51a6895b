//! Adaptive Monte-Carlo stopping: run batches until the standard error of
//! the mean reaches a target.
//!
//! The paper fixes 50,000 iterations everywhere; this module answers
//! whether that is enough and gives downstream users a precision knob
//! instead of a magic constant.

use crate::parallel::derive_seed;
use crate::stats::RunningStats;

/// Result of an adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceResult {
    /// Accumulated statistics over all batches run.
    pub stats: RunningStats,
    /// Number of batches executed.
    pub batches: u64,
    /// Whether the target precision was reached (false = hit the cap).
    pub converged: bool,
}

/// Adaptive runner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// Stop once the standard error of the mean is at or below this.
    pub target_se: f64,
    /// Iterations per batch.
    pub batch: u64,
    /// Hard cap on total iterations.
    pub max_iterations: u64,
    /// Minimum iterations before the stopping rule may fire (standard-
    /// error estimates are unreliable on tiny samples).
    pub min_iterations: u64,
}

impl Default for Convergence {
    fn default() -> Self {
        Self {
            target_se: 0.05,
            batch: 1_000,
            max_iterations: 1_000_000,
            min_iterations: 2_000,
        }
    }
}

impl Convergence {
    /// Runs `sim(batch_seed, iterations) -> RunningStats` batch by batch
    /// until the pooled standard error reaches the target or the cap is
    /// hit. Batch seeds derive from `root_seed` (stream = batch index),
    /// so the result is reproducible.
    ///
    /// # Panics
    /// Panics on a non-positive target or zero batch size.
    pub fn run(
        &self,
        root_seed: u64,
        mut sim: impl FnMut(u64, u64) -> RunningStats,
    ) -> ConvergenceResult {
        assert!(self.target_se > 0.0, "target must be positive");
        assert!(self.batch > 0, "batch size must be positive");
        let mut stats = RunningStats::new();
        let mut batches = 0u64;
        loop {
            let seed = derive_seed(root_seed, batches);
            let part = sim(seed, self.batch);
            stats.merge(&part);
            batches += 1;
            let enough = stats.count() >= self.min_iterations;
            if enough && stats.std_err() <= self.target_se {
                return ConvergenceResult {
                    stats,
                    batches,
                    converged: true,
                };
            }
            if stats.count() + self.batch > self.max_iterations {
                return ConvergenceResult {
                    stats,
                    batches,
                    converged: false,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A noisy simulation with known mean 10 and std 5.
    fn noisy(seed: u64, iters: u64) -> RunningStats {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = RunningStats::new();
        for _ in 0..iters {
            // Uniform on [10 − a, 10 + a] has std a/√3; a = 5√3.
            let a = 5.0 * 3.0_f64.sqrt();
            s.push(10.0 + rng.random_range(-a..a));
        }
        s
    }

    #[test]
    fn converges_to_the_true_mean() {
        let cfg = Convergence {
            target_se: 0.05,
            batch: 2_000,
            max_iterations: 2_000_000,
            min_iterations: 4_000,
        };
        let r = cfg.run(7, noisy);
        assert!(r.converged);
        assert!(
            (r.stats.mean() - 10.0).abs() < 0.2,
            "mean {}",
            r.stats.mean()
        );
        assert!(r.stats.std_err() <= 0.05);
        // Sample size should be near (std/se)^2 = (5/.05)^2 = 10_000... up
        // to batch granularity.
        assert!(r.stats.count() >= 10_000 && r.stats.count() <= 30_000);
    }

    #[test]
    fn cap_stops_runaway() {
        let cfg = Convergence {
            target_se: 1e-9, // unreachable
            batch: 500,
            max_iterations: 3_000,
            min_iterations: 500,
        };
        let r = cfg.run(1, noisy);
        assert!(!r.converged);
        assert!(r.stats.count() <= 3_000);
    }

    #[test]
    fn deterministic_in_root_seed() {
        let cfg = Convergence::default();
        let a = cfg.run(42, noisy);
        let b = cfg.run(42, noisy);
        assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn zero_variance_stops_immediately_after_min() {
        let cfg = Convergence {
            target_se: 0.1,
            batch: 100,
            max_iterations: 100_000,
            min_iterations: 200,
        };
        let r = cfg.run(0, |_seed, iters| {
            let mut s = RunningStats::new();
            for _ in 0..iters {
                s.push(3.0);
            }
            s
        });
        assert!(r.converged);
        assert_eq!(r.stats.count(), 200);
    }

    #[test]
    #[should_panic(expected = "target must be positive")]
    fn rejects_bad_target() {
        let _ = Convergence {
            target_se: 0.0,
            ..Convergence::default()
        }
        .run(0, noisy);
    }
}
