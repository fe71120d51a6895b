//! Byte-addressed cache and integrated client for **unequal item sizes** —
//! the extension the paper is "currently addressing" (Section 6),
//! end-to-end: planning, size-aware arbitration
//! ([`skp_core::ext::sizes`]), demand fetches with multi-victim eviction,
//! and the same access-time accounting as the equal-size client.

use access_model::FreqTracker;
use skp_core::ext::sizes::{arbitrate_sized, SizedEntry};
use skp_core::gain::access_time_empty;
use skp_core::policy::{PolicyKind, Prefetcher};
use skp_core::Scenario;

/// A cache holding whole items with heterogeneous sizes in a byte budget.
#[derive(Debug, Clone)]
pub struct SizedCache {
    capacity: f64,
    used: f64,
    sizes: Vec<f64>,
    present: Vec<bool>,
    occupants: Vec<usize>,
}

impl SizedCache {
    /// Creates an empty cache of `capacity` bytes over items with the
    /// given sizes.
    ///
    /// # Panics
    /// Panics when the capacity or any size is non-positive or NaN.
    pub fn new(capacity: f64, sizes: Vec<f64>) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        for (i, &s) in sizes.iter().enumerate() {
            assert!(s.is_finite() && s > 0.0, "item {i} has invalid size {s}");
        }
        Self {
            capacity,
            used: 0.0,
            present: vec![false; sizes.len()],
            occupants: Vec::new(),
            sizes,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Bytes currently used.
    pub fn used(&self) -> f64 {
        self.used
    }

    /// Bytes free.
    pub fn free(&self) -> f64 {
        self.capacity - self.used
    }

    /// Whether `item` is cached.
    pub fn contains(&self, item: usize) -> bool {
        self.present[item]
    }

    /// Cached items (unspecified order).
    pub fn items(&self) -> &[usize] {
        &self.occupants
    }

    /// Inserts an item.
    ///
    /// # Panics
    /// Panics when it does not fit or is already present.
    pub fn insert(&mut self, item: usize) {
        assert!(!self.present[item], "item {item} already cached");
        assert!(
            self.sizes[item] <= self.free() + 1e-9,
            "item {item} does not fit ({} > {})",
            self.sizes[item],
            self.free()
        );
        self.present[item] = true;
        self.used += self.sizes[item];
        self.occupants.push(item);
    }

    /// Evicts an item.
    ///
    /// # Panics
    /// Panics when the item is not cached.
    pub fn evict(&mut self, item: usize) {
        assert!(self.present[item], "item {item} not cached");
        self.present[item] = false;
        self.used -= self.sizes[item];
        let pos = self
            .occupants
            .iter()
            .position(|&x| x == item)
            .expect("present implies occupant");
        self.occupants.swap_remove(pos);
    }

    fn entries(&self) -> Vec<SizedEntry> {
        self.occupants
            .iter()
            .map(|&id| SizedEntry {
                id,
                size: self.sizes[id],
            })
            .collect()
    }
}

/// Outcome of one sized-client request cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct SizedStepOutcome {
    /// Access time under the paper's timing model.
    pub access_time: f64,
    /// Served in zero time?
    pub hit: bool,
    /// Prefetched items this cycle.
    pub prefetched: Vec<usize>,
    /// Ejected items this cycle (arbitration + demand evictions).
    pub ejected: Vec<usize>,
    /// Whether a demand fetch happened.
    pub demand_fetch: bool,
}

/// Integrated prefetch–cache client over a byte-addressed cache.
#[derive(Debug, Clone)]
pub struct SizedPrefetchCache {
    cache: SizedCache,
    freq: FreqTracker,
    policy: PolicyKind,
}

impl SizedPrefetchCache {
    /// Creates an empty client that plans with `policy`.
    pub fn new(capacity_bytes: f64, sizes: Vec<f64>, policy: PolicyKind) -> Self {
        let n = sizes.len();
        Self {
            cache: SizedCache::new(capacity_bytes, sizes),
            freq: FreqTracker::new(n),
            policy,
        }
    }

    /// The underlying cache.
    pub fn cache(&self) -> &SizedCache {
        &self.cache
    }

    /// One request cycle (plan → size-aware arbitrate → serve → demand).
    pub fn step(&mut self, scenario: &Scenario, alpha: usize) -> SizedStepOutcome {
        assert_eq!(scenario.n(), self.cache.sizes.len(), "universe mismatch");
        let n = scenario.n();

        // Plan over non-cached items.
        let candidates: Vec<bool> = (0..n).map(|i| !self.cache.contains(i)).collect();
        let tentative = self.policy.plan_candidates(scenario, &candidates);
        let tentative_sized: Vec<SizedEntry> = tentative
            .items()
            .iter()
            .map(|&id| SizedEntry {
                id,
                size: self.cache.sizes[id],
            })
            .collect();

        let arb = arbitrate_sized(
            scenario,
            &tentative_sized,
            &self.cache.entries(),
            self.cache.free(),
            self.cache.capacity(),
        )
        .expect("sizes validated at construction");

        // Access time from the pre-application cache state: a kept
        // cache entry is free, anything else is Figure 2's empty-cache
        // case analysis of the executed plan.
        let cached = self.cache.contains(alpha) && !arb.eject.contains(&alpha);
        let access_time = if cached {
            0.0
        } else {
            access_time_empty(scenario, &arb.prefetch, alpha)
        };
        let hit = access_time == 0.0;
        let demand_fetch = !cached && !arb.prefetch.contains(&alpha);

        // Apply.
        let mut ejected = arb.eject.clone();
        for &d in &arb.eject {
            self.cache.evict(d);
        }
        for &f in &arb.prefetch {
            self.cache.insert(f);
        }

        // Demand fetch: evict cheapest delay-profit densities until the
        // item fits (it "must have a victim").
        if demand_fetch
            && !self.cache.contains(alpha)
            && self.cache.sizes[alpha] <= self.cache.capacity()
        {
            while self.cache.free() + 1e-9 < self.cache.sizes[alpha] {
                let victim = self
                    .cache
                    .items()
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let da = scenario.delay_profit(a) / self.cache.sizes[a];
                        let db = scenario.delay_profit(b) / self.cache.sizes[b];
                        da.total_cmp(&db)
                    })
                    .expect("cache non-empty while item does not fit");
                self.cache.evict(victim);
                ejected.push(victim);
            }
            self.cache.insert(alpha);
        }

        self.freq.record(alpha);

        SizedStepOutcome {
            access_time,
            hit,
            prefetched: arb.prefetch,
            ejected,
            demand_fetch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::new(
            vec![0.4, 0.3, 0.2, 0.1, 0.0],
            vec![6.0, 5.0, 9.0, 2.0, 5.0],
            12.0,
        )
        .unwrap()
    }

    fn sizes() -> Vec<f64> {
        vec![4.0, 2.0, 6.0, 1.0, 3.0]
    }

    #[test]
    fn cache_accounting() {
        let mut c = SizedCache::new(10.0, sizes());
        c.insert(0);
        c.insert(2);
        assert_eq!(c.used(), 10.0);
        assert_eq!(c.free(), 0.0);
        c.evict(0);
        assert_eq!(c.used(), 6.0);
        assert!(c.contains(2) && !c.contains(0));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overfull_insert_panics() {
        let mut c = SizedCache::new(5.0, sizes());
        c.insert(0);
        c.insert(1); // 4 + 2 > 5
    }

    #[test]
    fn prefetched_items_hit() {
        let mut client = SizedPrefetchCache::new(20.0, sizes(), PolicyKind::SkpExact);
        let s = scenario();
        let out = client.step(&s, 0);
        assert!(out.prefetched.contains(&0));
        assert!(out.hit);
        assert_eq!(out.access_time, 0.0);
    }

    #[test]
    fn demand_fetch_evicts_enough_bytes() {
        let mut client = SizedPrefetchCache::new(6.0, sizes(), PolicyKind::NoPrefetch);
        let s = scenario();
        // Fill with items 1 (2B) and 4 (3B): 5 of 6 bytes used.
        client.step(&s, 1);
        client.step(&s, 4);
        assert!(client.cache().contains(1) && client.cache().contains(4));
        // Demand item 2 (6B): must evict until it fits.
        let out = client.step(&s, 2);
        assert!(out.demand_fetch);
        assert!(client.cache().contains(2));
        assert!(client.cache().used() <= 6.0 + 1e-9);
        assert!(!out.ejected.is_empty());
    }

    #[test]
    fn byte_budget_never_exceeded() {
        let mut client = SizedPrefetchCache::new(7.0, sizes(), PolicyKind::SkpPaper);
        let s = scenario();
        for alpha in [0usize, 2, 1, 3, 4, 2, 0, 1, 2, 4] {
            client.step(&s, alpha);
            assert!(
                client.cache().used() <= 7.0 + 1e-9,
                "budget exceeded: {}",
                client.cache().used()
            );
        }
    }

    #[test]
    fn oversized_demand_is_served_but_not_cached() {
        let tiny_sizes = vec![100.0, 1.0];
        let s = Scenario::new(vec![0.5, 0.5], vec![5.0, 5.0], 3.0).unwrap();
        let mut client = SizedPrefetchCache::new(2.0, tiny_sizes, PolicyKind::NoPrefetch);
        let out = client.step(&s, 0);
        assert!(out.demand_fetch);
        assert!(!client.cache().contains(0));
    }

    #[test]
    fn sized_beats_nothing_on_repeats() {
        // Repeated accesses to the same working set should become hits.
        let mut client = SizedPrefetchCache::new(10.0, sizes(), PolicyKind::SkpExact);
        let s = scenario();
        let mut last_round_time = f64::INFINITY;
        for round in 0..3 {
            let mut total = 0.0;
            for alpha in [0usize, 1, 3] {
                total += client.step(&s, alpha).access_time;
            }
            if round > 0 {
                assert!(total <= last_round_time + 1e-9);
            }
            last_round_time = total;
        }
        assert_eq!(last_round_time, 0.0, "working set fits: all hits");
    }
}
