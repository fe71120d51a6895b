//! Independent Reference Model (IRM) request source.
//!
//! Under the IRM every request is drawn i.i.d. from a fixed popularity
//! distribution — the classic cache-analysis workload and the natural
//! *memoryless* contrast to the paper's Markov source: a prefetcher with
//! one-access look-ahead sees the same `P` at every step, so caching by
//! popularity is all there is to exploit. The Section-5 golden drives
//! the prefetch–cache client with it.

use rand::Rng;

/// An i.i.d. request source with fixed item popularities.
#[derive(Debug, Clone)]
pub struct IrmSource {
    probs: Vec<f64>,
    cumulative: Vec<f64>,
    viewing: f64,
}

impl IrmSource {
    /// Builds a source from popularity weights (normalised internally)
    /// and a constant viewing time.
    ///
    /// # Panics
    /// Panics when no weight is positive, any weight is negative/NaN, or
    /// the viewing time is invalid.
    pub fn new(weights: &[f64], viewing: f64) -> Self {
        assert!(viewing.is_finite() && viewing > 0.0, "invalid viewing time");
        let sum: f64 = weights.iter().sum();
        assert!(sum.is_finite() && sum > 0.0, "weights must sum positive");
        let mut probs = Vec::with_capacity(weights.len());
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "weight {i} invalid: {w}");
            let p = w / sum;
            probs.push(p);
            acc += p;
            cumulative.push(acc);
        }
        Self {
            probs,
            cumulative,
            viewing,
        }
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.probs.len()
    }

    /// The popularity vector — also the prefetcher's `P` at every step.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The constant viewing time.
    pub fn viewing(&self) -> f64 {
        self.viewing
    }

    /// Draws the next request.
    pub fn next_request(&self, rng: &mut impl Rng) -> usize {
        let x: f64 = rng.random_range(0.0..1.0);
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(self.probs.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_normalised() {
        let s = IrmSource::new(&[2.0, 6.0, 2.0], 5.0);
        assert!((s.probs()[1] - 0.6).abs() < 1e-12);
        assert!((s.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(s.n_items(), 3);
        assert_eq!(s.viewing(), 5.0);
    }

    #[test]
    fn sampling_matches_distribution() {
        let s = IrmSource::new(&[1.0, 3.0], 1.0);
        let mut rng = SmallRng::seed_from_u64(21);
        let trials = 40_000;
        let mut ones = 0;
        for _ in 0..trials {
            if s.next_request(&mut rng) == 1 {
                ones += 1;
            }
        }
        let f = ones as f64 / trials as f64;
        assert!((f - 0.75).abs() < 0.01, "empirical {f}");
    }

    #[test]
    fn zero_weight_items_never_drawn() {
        let s = IrmSource::new(&[0.0, 1.0, 0.0], 1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert_eq!(s.next_request(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "sum positive")]
    fn all_zero_weights_rejected() {
        let _ = IrmSource::new(&[0.0, 0.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid viewing")]
    fn bad_viewing_rejected() {
        let _ = IrmSource::new(&[1.0], 0.0);
    }
}
