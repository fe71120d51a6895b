//! Property tests: cache bookkeeping under arbitrary operation sequences
//! and invariants of the integrated prefetch–cache client.

use proptest::prelude::*;
use skp_core::arbitration::SubArbitration;
use skp_core::policy::{PolicyKind, Prefetcher};
use skp_core::{PrefetchPlan, Scenario};

use cache_sim::{Cache, PrefetchCache, PrefetchCacheConfig};

/// Reference model: a plain set with capacity.
#[derive(Default)]
struct ModelCache {
    items: std::collections::BTreeSet<usize>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cache agrees with a naive set model under random
    /// insert/evict sequences that respect the preconditions.
    #[test]
    fn cache_matches_set_model(
        ops in proptest::collection::vec((0u8..2, 0usize..8), 1..60),
        capacity in 1usize..6,
    ) {
        let mut cache = Cache::new(capacity, 8);
        let mut model = ModelCache::default();
        for (op, item) in ops {
            match op {
                0 => {
                    // insert when legal
                    if !model.items.contains(&item) && model.items.len() < capacity {
                        cache.insert(item);
                        model.items.insert(item);
                    }
                }
                _ => {
                    if model.items.contains(&item) {
                        cache.evict(item);
                        model.items.remove(&item);
                    }
                }
            }
            // Invariants after every step.
            prop_assert_eq!(cache.len(), model.items.len());
            prop_assert!(cache.len() <= capacity);
            for i in 0..8 {
                prop_assert_eq!(cache.contains(i), model.items.contains(&i), "item {}", i);
            }
            let mut got: Vec<usize> = cache.items().to_vec();
            got.sort_unstable();
            let want: Vec<usize> = model.items.iter().copied().collect();
            prop_assert_eq!(got, want);
        }
    }
}

/// Invariants of the integrated client under random request streams.
mod integrated_props {
    use super::*;

    fn random_scenario(seed: &[f64], viewing: f64) -> Scenario {
        let sum: f64 = seed.iter().sum();
        let probs: Vec<f64> = seed.iter().map(|w| w / sum).collect();
        let retrievals: Vec<f64> = (0..seed.len()).map(|i| 1.0 + (i % 7) as f64).collect();
        Scenario::new(probs, retrievals, viewing).expect("valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn client_never_overflows_or_loses_items(
            weights in proptest::collection::vec(0.01f64..1.0, 6),
            requests in proptest::collection::vec(0usize..6, 1..40),
            viewing in 1.0f64..20.0,
            capacity in 1usize..5,
            solver_pick in 0u8..3,
            sub_pick in 0u8..3,
        ) {
            let policy = match solver_pick {
                0 => PolicyKind::NoPrefetch,
                1 => PolicyKind::Kp,
                _ => PolicyKind::SkpExact,
            };
            let sub = match sub_pick {
                0 => SubArbitration::None,
                1 => SubArbitration::Lfu,
                _ => SubArbitration::DelaySaving,
            };
            let s = random_scenario(&weights, viewing);
            let mut client = PrefetchCache::new(
                PrefetchCacheConfig { sub, capacity },
                6,
            );
            for &alpha in &requests {
                let plan = policy.plan_candidates(&s, &client.candidate_mask());
                let out = client.step(&s, alpha, plan);
                // Cache never exceeds capacity.
                prop_assert!(client.cache().len() <= capacity);
                // Access time is non-negative and bounded by st + max r.
                prop_assert!(out.access_time >= 0.0);
                prop_assert!(out.access_time <= out.stretch + 7.0 + 1e-9);
                // A hit is exactly a zero access time.
                prop_assert_eq!(out.hit, out.access_time == 0.0);
                // Ejections only happen alongside prefetches (pairing).
                prop_assert!(out.ejected.len() <= out.prefetched.len());
                // An ejected item stays out — unless it re-entered in the
                // same cycle (as the demand-fetched request itself, which
                // arbitration may have evicted speculatively).
                for d in &out.ejected {
                    prop_assert!(
                        !client.cache().contains(*d)
                            || out.prefetched.contains(d)
                            || *d == alpha
                    );
                }
                // The requested item ends up cached unless it can't fit at
                // all (capacity ≥ 1 means it always can).
                prop_assert!(client.cache().contains(alpha));
            }
        }

        /// Pure demand caching at capacity ≥ n is eventually all hits.
        #[test]
        fn big_cache_converges_to_hits(
            weights in proptest::collection::vec(0.01f64..1.0, 5),
            stream in proptest::collection::vec(0usize..5, 10..30),
        ) {
            let s = random_scenario(&weights, 5.0);
            let mut client = PrefetchCache::new(
                PrefetchCacheConfig {
                    sub: SubArbitration::None,
                    capacity: 5,
                },
                5,
            );
            // Seed every item once.
            for alpha in 0..5 {
                client.step(&s, alpha, PrefetchPlan::empty());
            }
            for &alpha in &stream {
                let out = client.step(&s, alpha, PrefetchPlan::empty());
                prop_assert!(out.hit, "everything fits: all hits");
            }
        }
    }
}
