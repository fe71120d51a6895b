//! The integrated prefetch–cache client of Section 5: plan over the
//! non-cached items, arbitrate the tentative plan against the cache
//! (Figure 6), serve the request, and account for the demand fetch.
//!
//! [`PrefetchCache::round`] is that round, in buffers the caller keeps
//! ([`RoundScratch`]); the facade engine and the Figure-7 sweep both run
//! it. [`PrefetchCache::step`] serves a plan made elsewhere. The Figure-7
//! policies `No+Pr`, `KP+Pr`, `SKP+Pr`, `SKP+Pr+LFU` and `SKP+Pr+DS` are
//! a planning [`PolicyKind`] plus a [`PrefetchCacheConfig`] each
//! ([`PrefetchCacheConfig::figure7_policies`]).
//!
//! ```
//! use cache_sim::{PrefetchCache, PrefetchCacheConfig, RoundScratch};
//! use skp_core::arbitration::SubArbitration;
//! use skp_core::policy::PolicyKind;
//! use skp_core::Scenario;
//!
//! let cfg = PrefetchCacheConfig {
//!     sub: SubArbitration::DelaySaving,
//!     capacity: 2,
//! };
//! let mut client = PrefetchCache::new(cfg, 3);
//! let mut scratch = RoundScratch::default();
//! let s = Scenario::new(vec![0.7, 0.2, 0.1], vec![4.0, 6.0, 8.0], 10.0).unwrap();
//! let row = [(0, 0.7), (1, 0.2), (2, 0.1)];
//! // Item 0 was planned: served instantly.
//! let out = client.round(&PolicyKind::SkpExact, &s, &row, 0, &mut scratch);
//! assert!(out.hit && out.access_time == 0.0);
//! assert!(client.prefetched().contains(&0));
//! ```

use access_model::FreqTracker;
use skp_core::arbitration::{
    arbitrate_into, choose_demand_victim_with, Arbitration, ArbitrationScratch, CacheEntry,
    SubArbitration,
};
use skp_core::gain::{access_time_empty, stretch_time};
use skp_core::policy::{PolicyKind, Prefetcher, RowBasis};
use skp_core::skp::SolveScratch;
use skp_core::{PrefetchPlan, Scenario};

use crate::cache::Cache;

/// Configuration of the integrated client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchCacheConfig {
    /// Sub-arbitration for Pr ties (Section 5.2).
    pub sub: SubArbitration,
    /// Cache capacity in slots (equal item sizes).
    pub capacity: usize,
}

impl PrefetchCacheConfig {
    /// The paper's five Figure-7 policies, in plot order: each name with
    /// its planning policy and client configuration. `skp` plans the
    /// three `SKP+Pr*` entries ([`PolicyKind::SkpPaper`] for strict
    /// pseudocode fidelity, [`PolicyKind::SkpExact`] for the corrected
    /// bookkeeping; see `skp_core::skp`).
    pub fn figure7_policies(
        capacity: usize,
        skp: PolicyKind,
    ) -> [(&'static str, PolicyKind, Self); 5] {
        let cfg = |sub| Self { sub, capacity };
        [
            ("No+Pr", PolicyKind::NoPrefetch, cfg(SubArbitration::None)),
            ("KP+Pr", PolicyKind::Kp, cfg(SubArbitration::None)),
            ("SKP+Pr", skp, cfg(SubArbitration::None)),
            ("SKP+Pr+LFU", skp, cfg(SubArbitration::Lfu)),
            ("SKP+Pr+DS", skp, cfg(SubArbitration::DelaySaving)),
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

/// What one request cycle did, apart from its item lists: the
/// [`StepOutcome`] of [`PrefetchCache::serve`], whose executed plan and
/// ejections stay in the client ([`PrefetchCache::prefetched`],
/// [`PrefetchCache::ejected`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// [`StepOutcome::access_time`].
    pub access_time: f64,
    /// [`StepOutcome::hit`].
    pub hit: bool,
    /// [`StepOutcome::demand_victim`].
    pub demand_victim: Option<usize>,
    /// [`StepOutcome::demand_fetch`].
    pub demand_fetch: bool,
    /// [`StepOutcome::stretch`].
    pub stretch: f64,
    /// [`StepOutcome::wasted_retrieval`].
    pub wasted_retrieval: f64,
}

impl Round {
    /// The round that prefetched `items` and served `alpha`, with no
    /// demand victim: at once when `cached`, else by Figure 2's
    /// empty-cache case analysis. Uncached, it is the "prefetch only"
    /// round.
    pub fn served(s: &Scenario, items: &[usize], alpha: usize, cached: bool) -> Self {
        let access_time = if cached {
            0.0
        } else {
            access_time_empty(s, items, alpha)
        };
        Round {
            access_time,
            hit: access_time == 0.0,
            demand_victim: None,
            demand_fetch: !cached && !items.contains(&alpha),
            stretch: stretch_time(s, items),
            wasted_retrieval: items
                .iter()
                .filter(|&&i| i != alpha)
                .map(|&i| s.retrieval(i))
                .sum(),
        }
    }

    /// The full outcome, with the cycle's item lists copied in.
    pub fn outcome(self, prefetched: &[usize], ejected: &[usize]) -> StepOutcome {
        StepOutcome {
            access_time: self.access_time,
            hit: self.hit,
            prefetched: prefetched.to_vec(),
            ejected: ejected.to_vec(),
            demand_victim: self.demand_victim,
            demand_fetch: self.demand_fetch,
            stretch: self.stretch,
            wasted_retrieval: self.wasted_retrieval,
        }
    }
}

/// The integrated prefetch–cache client.
#[derive(Debug, Clone)]
pub struct PrefetchCache {
    cfg: PrefetchCacheConfig,
    cache: Cache,
    freq: FreqTracker,
    /// The cache as the arbiter sees it, rebuilt each cycle.
    entries: Vec<CacheEntry>,
    scratch: ArbitrationScratch,
    /// The last cycle's executed plan and ejections.
    arbitration: Arbitration,
}

impl PrefetchCache {
    /// Creates an empty client over `n_items`.
    pub fn new(cfg: PrefetchCacheConfig, n_items: usize) -> Self {
        Self {
            cache: Cache::new(cfg.capacity, n_items),
            freq: FreqTracker::new(n_items),
            entries: Vec::with_capacity(cfg.capacity),
            scratch: ArbitrationScratch::default(),
            arbitration: Arbitration::default(),
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

    /// Runs one request cycle: arbitrate the tentative plan against the
    /// cache, prefetch during the viewing time encoded in `scenario`,
    /// then serve the request `alpha`. The plan should cover only
    /// non-cached items ([`Self::candidate_mask`]); cached entries in it
    /// are ignored by arbitration pairing but waste no slots.
    ///
    /// # Panics
    /// Panics when `scenario.n()` differs from the item universe or
    /// `alpha` is out of range.
    pub fn step(
        &mut self,
        scenario: &Scenario,
        alpha: usize,
        tentative: PrefetchPlan,
    ) -> StepOutcome {
        self.serve(scenario, alpha, tentative.items())
            .outcome(self.prefetched(), self.ejected())
    }

    /// [`Self::step`] on a tentative plan given as its items, each listed
    /// once. The executed plan and the ejections stay in the client until
    /// the next cycle ([`Self::prefetched`], [`Self::ejected`]), so a
    /// cycle whose lists fit in the client's buffers allocates nothing.
    ///
    /// # Panics
    /// As [`Self::step`].
    pub fn serve(&mut self, scenario: &Scenario, alpha: usize, tentative: &[usize]) -> Round {
        assert_eq!(
            scenario.n(),
            self.cache.n_items(),
            "scenario and cache must share the item universe"
        );
        assert!(alpha < scenario.n(), "request out of range");

        // Figure-6 arbitration against the cache.
        fill_entries(&self.cache, &self.freq, &mut self.entries);
        arbitrate_into(
            scenario,
            tentative,
            &self.entries,
            self.cache.free_slots(),
            self.cfg.sub,
            &mut self.scratch,
            &mut self.arbitration,
        );
        let arb = &self.arbitration;

        // Served from the pre-application cache state: a kept cache
        // entry is free, anything else waits on the executed plan.
        let cached = self.cache.contains(alpha) && !arb.eject.contains(&alpha);
        let mut round = Round::served(scenario, &arb.prefetch, alpha, cached);

        // Apply ejections and insertions.
        for &d in &arb.eject {
            self.cache.evict(d);
        }
        for &f in &arb.prefetch {
            self.cache.insert(f);
        }

        // Demand fetch brings `alpha` into the cache, evicting a
        // minimum-Pr victim when full (it "must have a victim").
        if round.demand_fetch && !self.cache.contains(alpha) {
            if self.cache.free_slots() == 0 {
                fill_entries(&self.cache, &self.freq, &mut self.entries);
                let v = choose_demand_victim_with(
                    scenario,
                    &self.entries,
                    self.cfg.sub,
                    &mut self.scratch,
                )
                .expect("full cache has a victim");
                self.cache.evict(v);
                round.demand_victim = Some(v);
            }
            self.cache.insert(alpha);
        }

        // Statistics.
        self.freq.record(alpha);
        round
    }

    /// The Section-5 round: plans with `policy` over the non-cached
    /// items ([`RoundScratch::plan`]), then [`Self::serve`]s `alpha`. A
    /// round whose lists and solve fit in the buffers allocates nothing.
    ///
    /// # Panics
    /// As [`Self::serve`], and when the policy plans an item twice.
    pub fn round<P: Prefetcher + ?Sized>(
        &mut self,
        policy: &P,
        s: &Scenario,
        row: &[(usize, f64)],
        alpha: usize,
        scratch: &mut RoundScratch,
    ) -> Round {
        let items = scratch.plan(policy, s, row, alpha, Some(self));
        self.serve(s, alpha, items)
    }

    /// Items the last cycle prefetched (after arbitration), in prefetch
    /// order.
    pub fn prefetched(&self) -> &[usize] {
        &self.arbitration.prefetch
    }

    /// Cache items the last cycle's arbitration ejected.
    pub fn ejected(&self) -> &[usize] {
        &self.arbitration.eject
    }

    /// Empties the cache and statistics (fresh run).
    pub fn reset(&mut self) {
        self.cache.flush();
        self.freq.reset();
        self.arbitration.prefetch.clear();
        self.arbitration.eject.clear();
    }
}

/// The buffers a round plans in, kept by the caller between rounds.
#[derive(Debug, Clone, Default)]
pub struct RoundScratch {
    mask: Vec<bool>,
    plan: Vec<usize>,
    marks: Vec<bool>,
    solve: SolveScratch,
}

impl RoundScratch {
    /// The tentative plan of the round that requests `alpha`, over the
    /// items `client` does not hold (all of them without one). The
    /// oracle prefetches `alpha` itself; every other policy plans from
    /// `row`, the non-zero entries of `s`'s probabilities in ascending
    /// item order ([`Prefetcher::plan_row_into`]).
    ///
    /// # Panics
    /// Panics when the policy plans an item twice.
    pub fn plan<P: Prefetcher + ?Sized>(
        &mut self,
        policy: &P,
        s: &Scenario,
        row: &[(usize, f64)],
        alpha: usize,
        client: Option<&PrefetchCache>,
    ) -> &[usize] {
        let candidates = client.map(|client| {
            client.fill_candidate_mask(&mut self.mask);
            self.mask.as_slice()
        });
        self.plan.clear();
        if policy.is_oracle() {
            if candidates.is_none_or(|mask| mask.get(alpha).copied().unwrap_or(false)) {
                self.plan.push(alpha);
            }
        } else {
            let basis = RowBasis::Dense {
                scenario: s,
                candidates,
            };
            policy.plan_row_into(row, basis, &mut self.solve, &mut self.plan);
            check_planned_once(&self.plan, s.n(), &mut self.marks);
        }
        &self.plan
    }

    /// The tentative plan of the last [`Self::plan`].
    pub fn planned(&self) -> &[usize] {
        &self.plan
    }
}

/// Panics unless `plan` lists each of its items under `n` once (an item
/// past `n` fails later, in the scenario). `marks` is all `false` around it.
fn check_planned_once(plan: &[usize], n: usize, marks: &mut Vec<bool>) {
    marks.resize(n, false);
    let in_range = || plan.iter().copied().filter(|&i| i < n);
    let repeated = in_range().find(|&i| std::mem::replace(&mut marks[i], true));
    in_range().for_each(|i| marks[i] = false);
    if let Some(i) = repeated {
        panic!("a policy plans each item once, but planned item {i} twice");
    }
}

/// The cache as the arbiter sees it, written into `entries` (cleared
/// first).
fn fill_entries(cache: &Cache, freq: &FreqTracker, entries: &mut Vec<CacheEntry>) {
    entries.clear();
    entries.extend(cache.items().iter().map(|&id| CacheEntry {
        id,
        freq: freq.freq(id),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use skp_core::policy::Prefetcher;

    fn scenario(viewing: f64) -> Scenario {
        Scenario::new(
            vec![0.5, 0.3, 0.1, 0.1, 0.0],
            vec![4.0, 6.0, 8.0, 2.0, 5.0],
            viewing,
        )
        .unwrap()
    }

    fn client(sub: SubArbitration, capacity: usize) -> PrefetchCache {
        PrefetchCache::new(PrefetchCacheConfig { sub, capacity }, 5)
    }

    /// One cycle with `policy` planning over the non-cached items.
    fn step(c: &mut PrefetchCache, policy: PolicyKind, s: &Scenario, alpha: usize) -> StepOutcome {
        let plan = policy.plan_candidates(s, &c.candidate_mask());
        c.step(s, alpha, plan)
    }

    #[test]
    fn no_prefetch_demand_fills_cache() {
        let mut c = client(SubArbitration::None, 2);
        let s = scenario(10.0);
        let o = step(&mut c, PolicyKind::NoPrefetch, &s, 1);
        assert!(!o.hit);
        assert!(o.demand_fetch);
        assert_eq!(o.access_time, 6.0);
        assert!(c.cache().contains(1));
        // Second access to the same item is a hit.
        let o = step(&mut c, PolicyKind::NoPrefetch, &s, 1);
        assert!(o.hit);
        assert_eq!(o.access_time, 0.0);
    }

    #[test]
    fn prefetched_item_is_hit() {
        let mut c = client(SubArbitration::None, 4);
        let s = scenario(12.0);
        // v = 12 fits items 0 and 1 (r 4+6 = 10): both should prefetch.
        let o = step(&mut c, PolicyKind::SkpPaper, &s, 0);
        assert!(o.prefetched.contains(&0));
        assert!(o.hit, "outcome {o:?}");
        assert_eq!(o.access_time, 0.0);
    }

    #[test]
    fn stretching_tail_costs_stretch_time() {
        // viewing 5: plan [0 (r4), 1 (r6)] stretches by 5 if chosen.
        let mut c = client(SubArbitration::None, 4);
        let s = scenario(5.0);
        let o = step(&mut c, PolicyKind::SkpExact, &s, 1);
        if o.prefetched.last() == Some(&1) {
            assert!((o.access_time - o.stretch).abs() < 1e-9);
        }
    }

    #[test]
    fn demand_fetch_evicts_when_full() {
        let mut c = client(SubArbitration::None, 1);
        let s = scenario(10.0);
        step(&mut c, PolicyKind::NoPrefetch, &s, 4); // cache: {4} (P=0 item)
        let o = step(&mut c, PolicyKind::NoPrefetch, &s, 0); // miss; cache full -> evict 4
        assert_eq!(o.demand_victim, Some(4));
        assert!(c.cache().contains(0));
        assert!(!c.cache().contains(4));
    }

    #[test]
    fn miss_pays_stretch_plus_retrieval() {
        let mut c = client(SubArbitration::None, 4);
        let s = scenario(5.0);
        let o = step(&mut c, PolicyKind::SkpExact, &s, 4); // P=0 item never prefetched
        assert!(o.demand_fetch);
        assert!((o.access_time - (o.stretch + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn cache_never_exceeds_capacity() {
        let mut c = client(SubArbitration::DelaySaving, 2);
        let s = scenario(15.0);
        for alpha in [0usize, 1, 2, 3, 4, 0, 2, 1] {
            step(&mut c, PolicyKind::SkpPaper, &s, alpha);
            assert!(c.cache().len() <= 2);
        }
    }

    #[test]
    fn wasted_retrieval_excludes_the_request() {
        let mut c = client(SubArbitration::None, 4);
        let s = scenario(12.0);
        let o = step(&mut c, PolicyKind::SkpPaper, &s, 0);
        let total: f64 = o.prefetched.iter().map(|&i| s.retrieval(i)).sum();
        assert!((o.wasted_retrieval - (total - 4.0)).abs() < 1e-9);
    }

    #[test]
    fn frequencies_recorded() {
        let mut c = client(SubArbitration::None, 2);
        let s = scenario(10.0);
        step(&mut c, PolicyKind::NoPrefetch, &s, 3);
        step(&mut c, PolicyKind::NoPrefetch, &s, 3);
        step(&mut c, PolicyKind::NoPrefetch, &s, 1);
        assert_eq!(c.freq().freq(3), 2);
        assert_eq!(c.freq().freq(1), 1);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut c = client(SubArbitration::None, 2);
        let s = scenario(10.0);
        step(&mut c, PolicyKind::NoPrefetch, &s, 1);
        c.reset();
        assert!(c.cache().is_empty());
        assert_eq!(c.freq().total(), 0);
    }

    #[test]
    fn figure7_policy_table_is_complete() {
        let pols = PrefetchCacheConfig::figure7_policies(10, PolicyKind::SkpPaper);
        let names: Vec<&str> = pols.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            names,
            vec!["No+Pr", "KP+Pr", "SKP+Pr", "SKP+Pr+LFU", "SKP+Pr+DS"]
        );
        assert!(pols.iter().all(|(_, _, c)| c.capacity == 10));
        assert_eq!(pols[0].1, PolicyKind::NoPrefetch);
        assert_eq!(pols[1].1, PolicyKind::Kp);
        assert!(pols[2..].iter().all(|(_, p, _)| *p == PolicyKind::SkpPaper));
    }

    #[test]
    #[should_panic(expected = "share the item universe")]
    fn scenario_size_mismatch_panics() {
        let mut c = client(SubArbitration::None, 2);
        let s = Scenario::new(vec![1.0], vec![1.0], 1.0).unwrap();
        step(&mut c, PolicyKind::NoPrefetch, &s, 0);
    }
}
