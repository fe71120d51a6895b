//! Links, servers and item catalogs: where retrieval times come from.
//!
//! The paper treats the retrieval time `r_i` of each item as a known
//! resource parameter. Physically it is `latency + size / bandwidth` over
//! the link to the server holding the item; this module provides both the
//! physical composition ([`Link`] + item sizes) and the direct tabulated
//! form ([`Catalog`]), including the paper's uniform `r ∈ [1, 30]`
//! catalog.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A network link characterised by round-trip latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Fixed per-transfer latency (request round trip), time units.
    pub latency: f64,
    /// Bandwidth in bytes per time unit.
    pub bandwidth: f64,
}

impl Link {
    /// Creates a link; latency must be ≥ 0 and bandwidth > 0.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        assert!(latency.is_finite() && latency >= 0.0, "invalid latency");
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "invalid bandwidth"
        );
        Self { latency, bandwidth }
    }

    /// Time to transfer `bytes` over this link.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "negative transfer size");
        self.latency + bytes / self.bandwidth
    }
}

/// A tabulated catalog of items with explicit retrieval times.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    retrievals: Vec<f64>,
}

impl Catalog {
    /// Builds a catalog from explicit retrieval times (all positive).
    ///
    /// # Panics
    /// Panics if any retrieval time is non-positive or NaN.
    pub fn new(retrievals: Vec<f64>) -> Self {
        for (i, &r) in retrievals.iter().enumerate() {
            assert!(
                r.is_finite() && r > 0.0,
                "item {i} has invalid retrieval {r}"
            );
        }
        Self { retrievals }
    }

    /// The paper's catalog: `n` items with integer retrieval times drawn
    /// uniformly from `[r_min, r_max]` (Figures 4, 5, 7 use `[1, 30]`).
    pub fn uniform(n: usize, r_min: u32, r_max: u32, seed: u64) -> Self {
        assert!(r_min >= 1 && r_min <= r_max, "invalid retrieval range");
        let mut rng = SmallRng::seed_from_u64(seed);
        let retrievals = (0..n)
            .map(|_| rng.random_range(r_min..=r_max) as f64)
            .collect();
        Self::new(retrievals)
    }

    /// Builds a catalog from item sizes served over a link.
    pub fn from_link(link: Link, sizes: &[f64]) -> Self {
        Self::new(sizes.iter().map(|&b| link.transfer_time(b)).collect())
    }

    /// Retrieval time of every item, indexed by item id.
    pub fn retrievals(&self) -> &[f64] {
        &self.retrievals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_time() {
        let l = Link::new(2.0, 4.0);
        assert!((l.transfer_time(8.0) - 4.0).abs() < 1e-12);
        assert!((l.transfer_time(0.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn link_rejects_zero_bandwidth() {
        let _ = Link::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid latency")]
    fn link_rejects_negative_latency() {
        let _ = Link::new(-1.0, 1.0);
    }

    #[test]
    fn catalog_lookup() {
        let c = Catalog::new(vec![3.0, 7.0]);
        assert_eq!(c.retrievals(), &[3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "invalid retrieval")]
    fn catalog_rejects_zero() {
        let _ = Catalog::new(vec![1.0, 0.0]);
    }

    #[test]
    fn uniform_catalog_in_range_and_integer() {
        let c = Catalog::uniform(500, 1, 30, 11);
        assert_eq!(c.retrievals().len(), 500);
        for &r in c.retrievals() {
            assert!((1.0..=30.0).contains(&r));
            assert_eq!(r.fract(), 0.0);
        }
    }

    #[test]
    fn uniform_catalog_deterministic_by_seed() {
        let a = Catalog::uniform(50, 1, 30, 5);
        let b = Catalog::uniform(50, 1, 30, 5);
        assert_eq!(a, b);
        let c = Catalog::uniform(50, 1, 30, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn from_link_composes() {
        let c = Catalog::from_link(Link::new(1.0, 2.0), &[2.0, 6.0]);
        assert_eq!(c.retrievals(), &[2.0, 4.0]); // 1 + 2/2, 1 + 6/2
    }
}
