//! The integrated prefetch–cache client of Section 5: plan over non-cached
//! items, arbitrate against the cache (Figure 6), serve the request, and
//! account for the demand fetch — one `step` per request.
//!
//! This is the object the Figure-7 simulation drives with a Markov source:
//! policies `No+Pr`, `KP+Pr`, `SKP+Pr`, `SKP+Pr+LFU` and `SKP+Pr+DS` are
//! all configurations of [`PrefetchCacheConfig`].
//!
//! ```
//! use cache_sim::{PrefetchCache, PrefetchCacheConfig};
//! use skp_core::arbitration::{PlanSolver, SubArbitration};
//! use skp_core::Scenario;
//!
//! let cfg = PrefetchCacheConfig {
//!     solver: PlanSolver::SkpExact,
//!     sub: SubArbitration::DelaySaving,
//!     capacity: 2,
//! };
//! let mut client = PrefetchCache::new(cfg, 3);
//! let s = Scenario::new(vec![0.7, 0.2, 0.1], vec![4.0, 6.0, 8.0], 10.0).unwrap();
//! let out = client.step(&s, 0); // item 0 was planned: served instantly
//! assert!(out.hit && out.access_time == 0.0);
//! ```

use access_model::FreqTracker;
use skp_core::arbitration::{
    arbitrate, choose_demand_victim, CacheEntry, PlanSolver, SubArbitration,
};
use skp_core::gain::stretch_time;
use skp_core::{PrefetchPlan, Scenario};

use crate::cache::Cache;

/// Configuration of the integrated client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchCacheConfig {
    /// Planner for the tentative prefetch list `F̂` over non-cached items.
    pub solver: PlanSolver,
    /// Sub-arbitration for Pr ties (Section 5.2).
    pub sub: SubArbitration,
    /// Cache capacity in slots (equal item sizes).
    pub capacity: usize,
}

impl PrefetchCacheConfig {
    /// The paper's five Figure-7 policies, in plot order, with the SKP
    /// entries backed by the verbatim Figure-3 solver.
    pub fn figure7_policies(capacity: usize) -> [(&'static str, Self); 5] {
        Self::figure7_policies_with(capacity, PlanSolver::SkpPaper)
    }

    /// The Figure-7 policy table with a chosen solver behind the three
    /// `SKP+Pr*` entries (`SkpPaper` for strict pseudocode fidelity,
    /// `SkpExact` for the corrected bookkeeping; see `skp_core::skp`).
    pub fn figure7_policies_with(capacity: usize, skp: PlanSolver) -> [(&'static str, Self); 5] {
        [
            (
                "No+Pr",
                Self {
                    solver: PlanSolver::None,
                    sub: SubArbitration::None,
                    capacity,
                },
            ),
            (
                "KP+Pr",
                Self {
                    solver: PlanSolver::Kp,
                    sub: SubArbitration::None,
                    capacity,
                },
            ),
            (
                "SKP+Pr",
                Self {
                    solver: skp,
                    sub: SubArbitration::None,
                    capacity,
                },
            ),
            (
                "SKP+Pr+LFU",
                Self {
                    solver: skp,
                    sub: SubArbitration::Lfu,
                    capacity,
                },
            ),
            (
                "SKP+Pr+DS",
                Self {
                    solver: skp,
                    sub: SubArbitration::DelaySaving,
                    capacity,
                },
            ),
        ]
    }
}

/// Everything one request cycle did.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The access time `T` of this request under the paper's timing model.
    pub access_time: f64,
    /// Whether the request was served in zero time (cache or completed
    /// prefetch).
    pub hit: bool,
    /// Items prefetched this cycle (after arbitration), in prefetch order.
    pub prefetched: Vec<usize>,
    /// Cache items ejected by arbitration.
    pub ejected: Vec<usize>,
    /// Victim of the demand fetch, if one was needed on a full cache.
    pub demand_victim: Option<usize>,
    /// Whether the request required a demand fetch.
    pub demand_fetch: bool,
    /// Stretch time of the executed plan.
    pub stretch: f64,
    /// Retrieval time spent prefetching items that were *not* requested —
    /// the wasted network usage of Section 6.
    pub wasted_retrieval: f64,
}

/// The integrated prefetch–cache client.
#[derive(Debug, Clone)]
pub struct PrefetchCache {
    cfg: PrefetchCacheConfig,
    cache: Cache,
    freq: FreqTracker,
}

impl PrefetchCache {
    /// Creates an empty client over `n_items`.
    pub fn new(cfg: PrefetchCacheConfig, n_items: usize) -> Self {
        Self {
            cache: Cache::new(cfg.capacity, n_items),
            freq: FreqTracker::new(n_items),
            cfg,
        }
    }

    /// The underlying cache (for inspection).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The frequency statistics (for inspection).
    pub fn freq(&self) -> &FreqTracker {
        &self.freq
    }

    /// Runs one request cycle: prefetch during the viewing time encoded in
    /// `scenario`, then serve the request `alpha`.
    ///
    /// # Panics
    /// Panics when `scenario.n()` differs from the item universe or
    /// `alpha` is out of range.
    pub fn step(&mut self, scenario: &Scenario, alpha: usize) -> StepOutcome {
        assert_eq!(
            scenario.n(),
            self.cache.n_items(),
            "scenario and cache must share the item universe"
        );
        // Tentative plan over non-cached candidates with the configured
        // solver, then the shared cycle.
        let tentative = self.cfg.solver.solve(scenario, &self.candidate_mask()).plan;
        self.step_with_plan(scenario, alpha, tentative)
    }

    /// Candidate mask for planning: `true` for every non-cached item.
    pub fn candidate_mask(&self) -> Vec<bool> {
        let mut mask = Vec::new();
        self.fill_candidate_mask(&mut mask);
        mask
    }

    /// Writes [`Self::candidate_mask`] into `mask`, reusing its buffer.
    pub fn fill_candidate_mask(&self, mask: &mut Vec<bool>) {
        mask.clear();
        mask.extend((0..self.cache.n_items()).map(|i| !self.cache.contains(i)));
    }

    /// Runs one request cycle with an externally produced tentative plan
    /// (any [`skp_core::policy::Prefetcher`], not just the built-in
    /// [`PlanSolver`] kinds). The plan must cover only non-cached items;
    /// cached entries in it are ignored by arbitration pairing but waste
    /// no slots.
    ///
    /// # Panics
    /// Panics when `scenario.n()` differs from the item universe or
    /// `alpha` is out of range.
    pub fn step_with_plan(
        &mut self,
        scenario: &Scenario,
        alpha: usize,
        tentative: PrefetchPlan,
    ) -> StepOutcome {
        assert_eq!(
            scenario.n(),
            self.cache.n_items(),
            "scenario and cache must share the item universe"
        );
        assert!(alpha < scenario.n(), "request out of range");

        // Figure-6 arbitration against the cache.
        let mut entries = Vec::with_capacity(self.cache.capacity());
        self.fill_entries(&mut entries);
        let arb = arbitrate(
            scenario,
            &tentative,
            &entries,
            self.cache.free_slots(),
            self.cfg.sub,
        );

        // Access time from the pre-application cache state (Section 5
        // case analysis).
        let st = stretch_time(scenario, &arb.prefetch);
        let in_kept_cache = self.cache.contains(alpha) && !arb.eject.contains(&alpha);
        let (access_time, hit, demand_fetch) = if in_kept_cache {
            (0.0, true, false)
        } else if let Some(pos) = arb.prefetch.iter().position(|&i| i == alpha) {
            if pos + 1 == arb.prefetch.len() {
                (st, st == 0.0, false) // the stretching last item
            } else {
                (0.0, true, false) // fully prefetched prefix
            }
        } else {
            (st + scenario.retrieval(alpha), false, true)
        };

        // Apply ejections and insertions.
        for &d in &arb.eject {
            self.cache.evict(d);
        }
        for &f in &arb.prefetch {
            self.cache.insert(f);
        }

        // Demand fetch brings `alpha` into the cache, evicting a
        // minimum-Pr victim when full (it "must have a victim").
        let mut demand_victim = None;
        if demand_fetch && !self.cache.contains(alpha) {
            if self.cache.free_slots() == 0 {
                self.fill_entries(&mut entries);
                let v = choose_demand_victim(scenario, &entries, self.cfg.sub)
                    .expect("full cache has a victim");
                self.cache.evict(v);
                demand_victim = Some(v);
            }
            self.cache.insert(alpha);
        }

        // Statistics.
        self.freq.record(alpha);
        self.cache.touch(alpha);

        let wasted_retrieval = arb
            .prefetch
            .iter()
            .filter(|&&i| i != alpha)
            .map(|&i| scenario.retrieval(i))
            .sum();

        StepOutcome {
            access_time,
            hit,
            prefetched: arb.prefetch,
            ejected: arb.eject,
            demand_victim,
            demand_fetch,
            stretch: st,
            wasted_retrieval,
        }
    }

    /// The cache as the arbiter sees it, written into `entries`
    /// (cleared first).
    fn fill_entries(&self, entries: &mut Vec<CacheEntry>) {
        entries.clear();
        entries.extend(self.cache.items().iter().map(|&id| CacheEntry {
            id,
            freq: self.freq.freq(id),
        }));
    }

    /// Empties the cache and statistics (fresh run).
    pub fn reset(&mut self) {
        self.cache.flush();
        self.freq.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(viewing: f64) -> Scenario {
        Scenario::new(
            vec![0.5, 0.3, 0.1, 0.1, 0.0],
            vec![4.0, 6.0, 8.0, 2.0, 5.0],
            viewing,
        )
        .unwrap()
    }

    fn client(solver: PlanSolver, sub: SubArbitration, capacity: usize) -> PrefetchCache {
        PrefetchCache::new(
            PrefetchCacheConfig {
                solver,
                sub,
                capacity,
            },
            5,
        )
    }

    #[test]
    fn no_prefetch_demand_fills_cache() {
        let mut c = client(PlanSolver::None, SubArbitration::None, 2);
        let s = scenario(10.0);
        let o = c.step(&s, 1);
        assert!(!o.hit);
        assert!(o.demand_fetch);
        assert_eq!(o.access_time, 6.0);
        assert!(c.cache().contains(1));
        // Second access to the same item is a hit.
        let o = c.step(&s, 1);
        assert!(o.hit);
        assert_eq!(o.access_time, 0.0);
    }

    #[test]
    fn prefetched_item_is_hit() {
        let mut c = client(PlanSolver::SkpPaper, SubArbitration::None, 4);
        let s = scenario(12.0);
        // v = 12 fits items 0 and 1 (r 4+6 = 10): both should prefetch.
        let o = c.step(&s, 0);
        assert!(o.prefetched.contains(&0));
        assert!(o.hit, "outcome {o:?}");
        assert_eq!(o.access_time, 0.0);
    }

    #[test]
    fn stretching_tail_costs_stretch_time() {
        // viewing 5: plan [0 (r4), 1 (r6)] stretches by 5 if chosen.
        let mut c = client(PlanSolver::SkpExact, SubArbitration::None, 4);
        let s = scenario(5.0);
        let o = c.step(&s, 1);
        if o.prefetched.last() == Some(&1) {
            assert!((o.access_time - o.stretch).abs() < 1e-9);
        }
    }

    #[test]
    fn demand_fetch_evicts_when_full() {
        let mut c = client(PlanSolver::None, SubArbitration::None, 1);
        let s = scenario(10.0);
        c.step(&s, 4); // cache: {4} (P=0 item)
        let o = c.step(&s, 0); // miss; cache full -> evict 4
        assert_eq!(o.demand_victim, Some(4));
        assert!(c.cache().contains(0));
        assert!(!c.cache().contains(4));
    }

    #[test]
    fn miss_pays_stretch_plus_retrieval() {
        let mut c = client(PlanSolver::SkpExact, SubArbitration::None, 4);
        let s = scenario(5.0);
        let o = c.step(&s, 4); // P=0 item never prefetched
        assert!(o.demand_fetch);
        assert!((o.access_time - (o.stretch + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn cache_never_exceeds_capacity() {
        let mut c = client(PlanSolver::SkpPaper, SubArbitration::DelaySaving, 2);
        let s = scenario(15.0);
        for alpha in [0usize, 1, 2, 3, 4, 0, 2, 1] {
            c.step(&s, alpha);
            assert!(c.cache().len() <= 2);
        }
    }

    #[test]
    fn wasted_retrieval_excludes_the_request() {
        let mut c = client(PlanSolver::SkpPaper, SubArbitration::None, 4);
        let s = scenario(12.0);
        let o = c.step(&s, 0);
        let total: f64 = o.prefetched.iter().map(|&i| s.retrieval(i)).sum();
        assert!((o.wasted_retrieval - (total - 4.0)).abs() < 1e-9);
    }

    #[test]
    fn frequencies_recorded() {
        let mut c = client(PlanSolver::None, SubArbitration::None, 2);
        let s = scenario(10.0);
        c.step(&s, 3);
        c.step(&s, 3);
        c.step(&s, 1);
        assert_eq!(c.freq().freq(3), 2);
        assert_eq!(c.freq().freq(1), 1);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut c = client(PlanSolver::None, SubArbitration::None, 2);
        let s = scenario(10.0);
        c.step(&s, 1);
        c.reset();
        assert!(c.cache().is_empty());
        assert_eq!(c.freq().total(), 0);
    }

    #[test]
    fn figure7_policy_table_is_complete() {
        let pols = PrefetchCacheConfig::figure7_policies(10);
        let names: Vec<&str> = pols.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["No+Pr", "KP+Pr", "SKP+Pr", "SKP+Pr+LFU", "SKP+Pr+DS"]
        );
        assert!(pols.iter().all(|(_, c)| c.capacity == 10));
    }

    #[test]
    #[should_panic(expected = "share the item universe")]
    fn scenario_size_mismatch_panics() {
        let mut c = client(PlanSolver::None, SubArbitration::None, 2);
        let s = Scenario::new(vec![1.0], vec![1.0], 1.0).unwrap();
        c.step(&s, 0);
    }
}
