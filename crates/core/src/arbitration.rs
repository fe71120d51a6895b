//! Prefetch–cache integration (Section 5): Pr-arbitration (Figure 6) with
//! optional LFU / delay-saving sub-arbitration.
//!
//! Under equal item sizes, each prefetched item must eject one cached item.
//! Figure 6 pairs the prefetch candidates `f ∈ F̂` (in descending delay
//! profit `P_f r_f`) with the cheapest cache victims `d` (minimum
//! `P_d r_d`), stopping at the first pair where the newcomer is worth less
//! than the victim. Among equally cheap victims, **sub-arbitration** picks
//! the one with the lowest access frequency (LFU) or the lowest
//! *delay-saving profit* `freq_d · r_d` (DS, after WATCHMAN \[12\]).
//!
//! A demand-fetched item "must have a victim and only requires the first
//! condition": [`choose_demand_victim`] picks the minimum-`P_d r_d` entry
//! with the same sub-arbitration, without comparing worth.
//!
//! ```
//! use skp_core::arbitration::{arbitrate, CacheEntry, SubArbitration};
//! use skp_core::{PrefetchPlan, Scenario};
//!
//! let s = Scenario::new(vec![0.6, 0.0, 0.4], vec![5.0, 5.0, 5.0], 20.0)?;
//! // The solver wants items 0 and 2; item 1 (delay profit 0) is cached.
//! let plan = PrefetchPlan::new(vec![0, 2])?;
//! let cache = [CacheEntry { id: 1, freq: 3 }];
//! let a = arbitrate(&s, &plan, &cache, 1, SubArbitration::DelaySaving);
//! assert_eq!(a.prefetch, vec![0, 2]); // free slot + one eviction
//! assert_eq!(a.eject, vec![1]);
//! # Ok::<(), skp_core::ModelError>(())
//! ```

use crate::plan::PrefetchPlan;
use crate::scenario::{ItemId, Scenario};

/// Tolerance for "equal `P_d r_d`" when deciding whether sub-arbitration
/// applies.
pub const PR_TIE_TOL: f64 = 1e-12;

/// How ties among equally cheap victims are broken (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SubArbitration {
    /// No sub-arbitration: the first minimal victim wins (paper's
    /// `SKP+Pr`).
    #[default]
    None,
    /// Least-frequently-used tie-break (paper's `SKP+Pr+LFU`).
    Lfu,
    /// Lowest delay-saving profit `freq · r` tie-break (paper's
    /// `SKP+Pr+DS`, the best performer in Figure 7).
    DelaySaving,
}

/// A cache entry as seen by the arbiter: the item plus the access
/// frequency statistic used by sub-arbitration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEntry {
    /// Item id.
    pub id: ItemId,
    /// Number of past accesses to the item (LFU / DS statistic).
    pub freq: u64,
}

/// The outcome of Figure 6: what to prefetch and what to eject, pairwise.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Arbitration {
    /// Items to prefetch, in the tentative plan's prefetch order.
    pub prefetch: Vec<ItemId>,
    /// Ejected cache items (`|eject| ≤ |prefetch|`; shorter when free
    /// slots absorbed part of the plan).
    pub eject: Vec<ItemId>,
}

/// Runs Figure 6's Pr-arbitration for a tentative plan `F̂` against the
/// cache.
///
/// `free_slots` is the number of unoccupied cache slots: prefetched items
/// fill free slots first (no victim needed, no worth test — an empty slot
/// has zero delay profit), and only then compete with cached items.
pub fn arbitrate(
    s: &Scenario,
    tentative: &PrefetchPlan,
    cache: &[CacheEntry],
    free_slots: usize,
    sub: SubArbitration,
) -> Arbitration {
    let mut out = Arbitration::default();
    let mut scratch = ArbitrationScratch::default();
    arbitrate_into(
        s,
        tentative.items(),
        cache,
        free_slots,
        sub,
        &mut scratch,
        &mut out,
    );
    out
}

/// The working buffers of [`arbitrate_into`] and
/// [`choose_demand_victim_with`], kept by the caller between rounds: the
/// candidates by worth, the live cache entries with their prices, and
/// the kept candidates. Each call clears and refills them.
#[derive(Debug, Clone, Default)]
pub struct ArbitrationScratch {
    by_worth: Vec<ItemId>,
    live: PricedCache,
    kept: Vec<ItemId>,
}

/// Cache entries priced once per call: `pr[i]` is `P·r` of `entries[i]`
/// and, under [`SubArbitration::DelaySaving`], `saving[i]` its
/// delay-saving profit `freq·r` (empty otherwise). The three lists stay
/// parallel: every removal is applied to all of them.
#[derive(Debug, Clone, Default)]
struct PricedCache {
    entries: Vec<CacheEntry>,
    pr: Vec<f64>,
    saving: Vec<f64>,
}

impl PricedCache {
    /// Replaces the contents with `cache`, priced under `s`.
    fn fill(&mut self, s: &Scenario, cache: &[CacheEntry], sub: SubArbitration) {
        self.entries.clear();
        self.entries.extend_from_slice(cache);
        self.pr.clear();
        self.pr.extend(cache.iter().map(|e| s.delay_profit(e.id)));
        self.saving.clear();
        if sub == SubArbitration::DelaySaving {
            self.saving
                .extend(cache.iter().map(|e| e.freq as f64 * s.retrieval(e.id)));
        }
    }

    /// Removes entry `pos`, moving the last entry into its place.
    fn swap_remove(&mut self, pos: usize) {
        self.entries.swap_remove(pos);
        self.pr.swap_remove(pos);
        if !self.saving.is_empty() {
            self.saving.swap_remove(pos);
        }
    }

    /// Index of the cheapest victim under Pr-arbitration +
    /// sub-arbitration: among the entries within [`PR_TIE_TOL`] of the
    /// minimum `P·r`, the first one, the first least frequent one, or the
    /// first with the least `freq·r`. `None` when empty.
    fn cheapest(&self, sub: SubArbitration) -> Option<usize> {
        let min_pr = self.pr.iter().copied().min_by(f64::total_cmp)?;
        let mut tied = self
            .pr
            .iter()
            .enumerate()
            .filter(|&(_, &pr)| (pr - min_pr).abs() <= PR_TIE_TOL)
            .map(|(i, _)| i);
        match sub {
            SubArbitration::None => tied.next(),
            SubArbitration::Lfu => tied.min_by_key(|&i| self.entries[i].freq),
            SubArbitration::DelaySaving => {
                tied.min_by(|&a, &b| self.saving[a].total_cmp(&self.saving[b]))
            }
        }
    }
}

/// [`arbitrate`] over a tentative plan given as its items (each listed
/// once), writing the outcome into `out` (both lists cleared first) and
/// working in `scratch`. Each cache entry is priced once per call. A
/// call whose lists fit in the buffers allocates nothing.
pub fn arbitrate_into(
    s: &Scenario,
    tentative: &[ItemId],
    cache: &[CacheEntry],
    free_slots: usize,
    sub: SubArbitration,
    scratch: &mut ArbitrationScratch,
    out: &mut Arbitration,
) {
    let ArbitrationScratch {
        by_worth,
        live,
        kept,
    } = scratch;
    // Candidates in descending delay profit P_f r_f.
    by_worth.clear();
    by_worth.extend_from_slice(tentative);
    by_worth.sort_by(|&a, &b| s.delay_profit(b).total_cmp(&s.delay_profit(a)));

    live.fill(s, cache, sub);
    kept.clear();
    out.eject.clear();
    let mut free = free_slots;

    for &f in by_worth.iter() {
        if free > 0 {
            free -= 1;
            kept.push(f);
            continue;
        }
        let Some(pos) = live.cheapest(sub) else {
            break; // no cache entries left to evict
        };
        // Figure 6: break when the newcomer is worth less than the victim.
        if s.delay_profit(f) < live.pr[pos] {
            break;
        }
        out.eject.push(live.entries[pos].id);
        live.swap_remove(pos);
        kept.push(f);
    }

    // Preserve the tentative plan's prefetch order for the kept items so
    // the stretch structure (construction 1) survives arbitration.
    out.prefetch.clear();
    out.prefetch
        .extend(tentative.iter().copied().filter(|i| kept.contains(i)));
}

/// Victim selection for a **demand-fetched** item: the minimum `P_d r_d`
/// entry (with sub-arbitration), no worth comparison. Returns `None` when
/// the cache is empty.
pub fn choose_demand_victim(
    s: &Scenario,
    cache: &[CacheEntry],
    sub: SubArbitration,
) -> Option<ItemId> {
    choose_demand_victim_with(s, cache, sub, &mut ArbitrationScratch::default())
}

/// [`choose_demand_victim`] working in `scratch`: a call whose cache fits
/// in the buffers allocates nothing.
pub fn choose_demand_victim_with(
    s: &Scenario,
    cache: &[CacheEntry],
    sub: SubArbitration,
    scratch: &mut ArbitrationScratch,
) -> Option<ItemId> {
    let live = &mut scratch.live;
    live.fill(s, cache, sub);
    live.cheapest(sub).map(|pos| live.entries[pos].id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: ItemId, freq: u64) -> CacheEntry {
        CacheEntry { id, freq }
    }

    /// Scenario with 6 items; ids 0..2 are "hot", 3..5 cold.
    fn sc() -> Scenario {
        Scenario::new(
            vec![0.4, 0.3, 0.2, 0.1, 0.0, 0.0],
            vec![10.0, 8.0, 6.0, 4.0, 5.0, 9.0],
            20.0,
        )
        .unwrap()
    }

    #[test]
    fn worthier_newcomers_evict_cheap_victims() {
        let s = sc();
        // Cache holds the two zero-probability items; prefetch plan wants
        // items 0 and 1.
        let plan = PrefetchPlan::new(vec![0, 1]).unwrap();
        let cache = [entry(4, 3), entry(5, 1)];
        let a = arbitrate(&s, &plan, &cache, 0, SubArbitration::None);
        assert_eq!(a.prefetch, vec![0, 1]);
        assert_eq!(a.eject.len(), 2);
        assert!(a.eject.contains(&4) && a.eject.contains(&5));
    }

    #[test]
    fn break_when_newcomer_cheaper_than_victim() {
        let s = sc();
        // Prefetch the cold item 3 (P r = 0.4) against a cache of hot
        // item 0 (P r = 4.0): arbitration must refuse.
        let plan = PrefetchPlan::new(vec![3]).unwrap();
        let cache = [entry(0, 5)];
        let a = arbitrate(&s, &plan, &cache, 0, SubArbitration::None);
        assert!(a.prefetch.is_empty());
        assert!(a.eject.is_empty());
    }

    #[test]
    fn free_slots_need_no_victims() {
        let s = sc();
        let plan = PrefetchPlan::new(vec![3]).unwrap();
        // Even with a hot cached item, a free slot admits the newcomer.
        let cache = [entry(0, 5)];
        let a = arbitrate(&s, &plan, &cache, 1, SubArbitration::None);
        assert_eq!(a.prefetch, vec![3]);
        assert!(a.eject.is_empty());
    }

    #[test]
    fn pairing_stops_at_first_failure() {
        let s = sc();
        // Plan wants items 2 (Pr=1.2) and 3 (Pr=0.4); cache holds items 1
        // (Pr=2.4) and 4 (Pr=0). Item 2 evicts item 4; item 3 would face
        // victim 1 (Pr 2.4 > 0.4) and must be refused.
        let plan = PrefetchPlan::new(vec![2, 3]).unwrap();
        let cache = [entry(1, 2), entry(4, 2)];
        let a = arbitrate(&s, &plan, &cache, 0, SubArbitration::None);
        assert_eq!(a.prefetch, vec![2]);
        assert_eq!(a.eject, vec![4]);
    }

    #[test]
    fn order_of_kept_items_follows_plan() {
        let s = sc();
        // Tentative order ⟨2, 0⟩ (0 is the stretch item); both admitted.
        let plan = PrefetchPlan::new(vec![2, 0]).unwrap();
        let cache = [entry(4, 0), entry(5, 0)];
        let a = arbitrate(&s, &plan, &cache, 0, SubArbitration::None);
        assert_eq!(a.prefetch, vec![2, 0], "prefetch order must be preserved");
    }

    #[test]
    fn lfu_subarbitration_breaks_pr_ties() {
        let s = sc();
        // Items 4 and 5 both have P r = 0; LFU evicts the less frequent.
        let cache = [entry(4, 9), entry(5, 2)];
        let v = choose_demand_victim(&s, &cache, SubArbitration::Lfu);
        assert_eq!(v, Some(5));
    }

    #[test]
    fn ds_subarbitration_weighs_retrieval_time() {
        let s = sc();
        // freq·r: item 4 -> 2*5 = 10, item 5 -> 2*9 = 18. DS keeps the item
        // that would cost more network time to refetch, evicting item 4.
        let cache = [entry(4, 2), entry(5, 2)];
        let v = choose_demand_victim(&s, &cache, SubArbitration::DelaySaving);
        assert_eq!(v, Some(4));

        // LFU is blind to r and just takes the first minimal frequency.
        let v = choose_demand_victim(&s, &cache, SubArbitration::Lfu);
        assert_eq!(v, Some(4)); // tie on freq, first wins
    }

    #[test]
    fn demand_victim_ignores_worth() {
        let s = sc();
        // Cache full of hot items: a demand fetch still gets a victim.
        let cache = [entry(0, 1), entry(1, 1)];
        let v = choose_demand_victim(&s, &cache, SubArbitration::None);
        assert_eq!(v, Some(1)); // P r: item0 = 4.0, item1 = 2.4 -> item 1
    }

    #[test]
    fn empty_cache_has_no_victim() {
        let s = sc();
        assert_eq!(choose_demand_victim(&s, &[], SubArbitration::None), None);
    }

    #[test]
    fn equal_worth_is_admitted() {
        // Figure 6 breaks only on strictly-less worth; equality admits.
        let s = Scenario::new(vec![0.5, 0.5], vec![4.0, 4.0], 10.0).unwrap();
        let plan = PrefetchPlan::new(vec![0]).unwrap();
        let cache = [entry(1, 1)];
        let a = arbitrate(&s, &plan, &cache, 0, SubArbitration::None);
        assert_eq!(a.prefetch, vec![0]);
        assert_eq!(a.eject, vec![1]);
    }

    #[test]
    fn plan_solver_variants_produce_plans() {
        use crate::kp;
        use crate::policy::{PolicyKind, Prefetcher};
        use crate::skp::{exact, paper, SortedView};

        let s = sc();
        let candidates = vec![true; s.n()];
        let positive = SortedView::positive(&s, Some(&candidates));
        let plan = |kind: PolicyKind| kind.plan_candidates(&s, &candidates);
        assert!(plan(PolicyKind::NoPrefetch).is_empty());
        let kp = kp::bb::solve_on_view(&s, &SortedView::with_candidates(&s, &candidates));
        assert_eq!(plan(PolicyKind::Kp), kp.plan);
        assert!(kp.plan.total_retrieval(&s) <= s.viewing() + 1e-9);
        // The KP solution is stretch-free and thus feasible for SKP, so the
        // Figure-3 solver's own accounting dominates the KP profit (its
        // *true* gain may not; see skp::exact's suffix-mass-bug test).
        let skp = paper::solve_on_view(&s, &positive);
        assert_eq!(plan(PolicyKind::SkpPaper), skp.plan);
        assert!(skp.internal_gain >= kp.profit - 1e-9);
        // The corrected solver maximises the true gain over the canonical
        // space, which contains the KP solution.
        let exact = exact::solve_on_view(&s, &positive);
        assert_eq!(plan(PolicyKind::SkpExact), exact.plan);
        assert!(exact.gain >= kp.profit - 1e-9);
        assert!(exact.gain >= skp.gain - 1e-9);
    }
}
