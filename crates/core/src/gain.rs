//! The paper's closed-form performance formulas (Sections 3 and 5):
//! stretch time, per-outcome access time, expected access time, and the
//! access-improvement functions `g*(F)` (Eq. 3) and `g(F, D)` (Eq. 9).

use crate::scenario::{ItemId, Scenario};

/// Stretch time `st(F) = max(0, Σ_{i∈F} r_i − v)` (Eq. 2): the amount by
/// which retrieving the whole plan overruns the viewing time.
pub fn stretch_time(s: &Scenario, plan: &[ItemId]) -> f64 {
    let total: f64 = plan.iter().map(|&i| s.retrieval(i)).sum();
    (total - s.viewing()).max(0.0)
}

/// Access time with an **empty cache** when `plan` was prefetched and item
/// `alpha` is actually requested (Figure 2 of the paper):
///
/// - `alpha ∈ K` (fully prefetched): `0`;
/// - `alpha = z` (the stretching last item): `st(F)`;
/// - `alpha ∉ F`: `st(F) + r_alpha` — the in-flight prefetch completes
///   before the demand fetch starts.
pub fn access_time_empty(s: &Scenario, plan: &[ItemId], alpha: ItemId) -> f64 {
    if plan.is_empty() {
        return s.retrieval(alpha);
    }
    let st = stretch_time(s, plan);
    let z = *plan.last().expect("non-empty");
    if alpha == z {
        st
    } else if plan[..plan.len() - 1].contains(&alpha) {
        0.0
    } else {
        st + s.retrieval(alpha)
    }
}

/// Expected access time with an empty cache when `plan` is prefetched:
/// `E[T*(prefetch F)] = P_z·st(F) + Σ_{i∈N\F} P_i (r_i + st(F))`.
pub fn expected_access_time_empty(s: &Scenario, plan: &[ItemId]) -> f64 {
    if plan.is_empty() {
        return s.expected_no_prefetch();
    }
    let st = stretch_time(s, plan);
    let z = *plan.last().expect("non-empty");
    let mut e = s.prob(z) * st;
    for i in 0..s.n() {
        if !plan.contains(&i) {
            e += s.prob(i) * (s.retrieval(i) + st);
        }
    }
    e
}

/// Access improvement with an empty cache (Eq. 3):
///
/// `g*(F) = Σ_{i∈F} P_i r_i − Σ_{i∈N\K} P_i · st(F)`
///
/// where `K` is the plan without its last item. When the scenario's
/// probability mass is below one (some probability rests on items outside
/// the scenario, e.g. cached items), the uncovered mass still pays the
/// stretch penalty, which the implementation accounts for via
/// [`Scenario::total_mass`]. The penalty mass is computed against mass 1
/// when the scenario is complete.
pub fn gain_empty_cache(s: &Scenario, plan: &[ItemId]) -> f64 {
    plan_gain(
        s.viewing(),
        plan.iter().map(|&i| (s.prob(i), s.retrieval(i))),
    )
}

/// [`gain_empty_cache`], bit for bit, of the plan whose items have the
/// `(P, r)` pairs `plan`, in prefetch order.
pub(crate) fn plan_gain(
    viewing: f64,
    plan: impl ExactSizeIterator<Item = (f64, f64)> + Clone,
) -> f64 {
    let k = plan.len();
    if k == 0 {
        return 0.0;
    }
    let total: f64 = plan.clone().map(|(_, r)| r).sum();
    let st = (total - viewing).max(0.0);
    let profit: f64 = plan.clone().map(|(p, r)| p * r).sum();
    if st == 0.0 {
        return profit;
    }
    let prefix_mass: f64 = plan.take(k - 1).map(|(p, _)| p).sum();
    // Σ_{i∈N\K} P_i over *all* items that might be requested, including any
    // probability mass outside this scenario (it also suffers the stretch).
    profit - penalty_mass(prefix_mass) * st
}

/// The probability mass that pays the stretch penalty: everything except
/// the fully-prefetched prefix `K`. Uses mass `1` for complete scenarios
/// and extends to reduced scenarios (mass < 1) by charging the uncovered
/// remainder too, matching the Section-5 derivation.
#[inline]
pub fn penalty_mass(prefix_mass: f64) -> f64 {
    (1.0 - prefix_mass).max(0.0)
}

/// Theorem 3: appending `z` to a non-stretching prefix `K` changes the gain
/// by `δ = P_z r_z − (1 − Σ_{i∈K} P_i) · st(K ⧺ ⟨z⟩)`.
pub fn theorem3_delta(s: &Scenario, prefix: &[ItemId], z: ItemId) -> f64 {
    let mut all: Vec<ItemId> = prefix.to_vec();
    all.push(z);
    let st = stretch_time(s, &all);
    let prefix_mass: f64 = prefix.iter().map(|&i| s.prob(i)).sum();
    s.delay_profit(z) - penalty_mass(prefix_mass) * st
}

/// Expected access time with **no prefetch** and cache contents `cache`:
/// `E[T(no prefetch)] = Σ_{i∈N\C} P_i r_i` (cache hits cost zero).
pub fn expected_no_prefetch_cached(s: &Scenario, cache: &[ItemId]) -> f64 {
    (0..s.n())
        .filter(|i| !cache.contains(i))
        .map(|i| s.delay_profit(i))
        .sum()
}

/// Access time when `plan` is prefetched, `eject` is evicted from `cache`
/// to make room, and `alpha` is requested (Section 5):
///
/// - `alpha ∈ K ∪ (C \ D)`: `0`;
/// - `alpha = z`: `st(F)`;
/// - otherwise: `st(F) + r_alpha`.
pub fn access_time_cached(
    s: &Scenario,
    plan: &[ItemId],
    cache: &[ItemId],
    eject: &[ItemId],
    alpha: ItemId,
) -> f64 {
    let st = stretch_time(s, plan);
    let in_surviving_cache = cache.contains(&alpha) && !eject.contains(&alpha);
    if in_surviving_cache {
        return 0.0;
    }
    match plan.last() {
        Some(&z) if alpha == z => st,
        _ if !plan.is_empty() && plan[..plan.len() - 1].contains(&alpha) => 0.0,
        _ => st + s.retrieval(alpha),
    }
}

/// Expected access time for the prefetch-with-ejection case of Section 5.
pub fn expected_access_time_cached(
    s: &Scenario,
    plan: &[ItemId],
    cache: &[ItemId],
    eject: &[ItemId],
) -> f64 {
    (0..s.n())
        .map(|i| s.prob(i) * access_time_cached(s, plan, cache, eject, i))
        .sum::<f64>()
        // Probability mass outside the scenario still pays the stretch when
        // the request misses everything modelled here; complete scenarios
        // (mass 1) contribute nothing through this term.
        + (1.0 - s.total_mass()).max(0.0) * stretch_time(s, plan)
}

/// Access improvement with cache interaction (Eq. 9):
///
/// `g(F, D) = g*(F) − (Σ_{i∈D} P_i r_i − Σ_{i∈C\D} P_i · st(F))`.
///
/// `plan` must be disjoint from `cache`; `eject ⊆ cache`.
pub fn gain_with_cache(s: &Scenario, plan: &[ItemId], cache: &[ItemId], eject: &[ItemId]) -> f64 {
    let st = stretch_time(s, plan);
    let eject_cost: f64 = eject.iter().map(|&i| s.delay_profit(i)).sum();
    let kept_mass: f64 = cache
        .iter()
        .filter(|i| !eject.contains(i))
        .map(|&i| s.prob(i))
        .sum();
    gain_empty_cache(s, plan) - (eject_cost - kept_mass * st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    const TOL: f64 = 1e-9;

    fn s() -> Scenario {
        // v = 10; items: (P, r) = (0.5, 8), (0.3, 6), (0.2, 9)
        Scenario::new(vec![0.5, 0.3, 0.2], vec![8.0, 6.0, 9.0], 10.0).unwrap()
    }

    #[test]
    fn stretch_zero_when_plan_fits() {
        assert_eq!(stretch_time(&s(), &[0]), 0.0); // 8 <= 10
        assert_eq!(stretch_time(&s(), &[1]), 0.0); // 6 <= 10
        assert_eq!(stretch_time(&s(), &[]), 0.0);
    }

    #[test]
    fn stretch_positive_when_overrunning() {
        // 8 + 9 = 17 > 10 -> st = 7
        assert!((stretch_time(&s(), &[0, 2]) - 7.0).abs() < TOL);
    }

    #[test]
    fn access_time_cases_of_figure_2() {
        let sc = s();
        let plan = [0usize, 2]; // K = {0}, z = 2, st = 7
                                // Case A: requested item fully prefetched.
        assert_eq!(access_time_empty(&sc, &plan, 0), 0.0);
        // Case B: requested item is the stretching item.
        assert!((access_time_empty(&sc, &plan, 2) - 7.0).abs() < TOL);
        // Case C: requested item not prefetched: st + r.
        assert!((access_time_empty(&sc, &plan, 1) - (7.0 + 6.0)).abs() < TOL);
    }

    #[test]
    fn access_time_empty_plan_is_retrieval() {
        assert_eq!(access_time_empty(&s(), &[], 1), 6.0);
    }

    #[test]
    fn expected_access_time_matches_manual_sum() {
        let sc = s();
        let plan = [0usize, 2];
        let manual: f64 = sc.prob(0) * 0.0 + sc.prob(2) * 7.0 + sc.prob(1) * (7.0 + 6.0);
        assert!((expected_access_time_empty(&sc, &plan) - manual).abs() < TOL);
    }

    #[test]
    fn gain_is_no_prefetch_minus_prefetch() {
        // The definitional identity g*(F) = E[T*(np)] − E[T*(F)] must hold
        // for every plan; check a fitting and a stretching plan.
        let sc = s();
        for plan in [vec![1usize], vec![0, 2], vec![0], vec![1, 0]] {
            let g = gain_empty_cache(&sc, &plan);
            let lhs = sc.expected_no_prefetch() - expected_access_time_empty(&sc, &plan);
            assert!(
                (g - lhs).abs() < TOL,
                "plan {plan:?}: formula {g} vs definition {lhs}"
            );
        }
    }

    #[test]
    fn gain_of_empty_plan_is_zero() {
        assert_eq!(gain_empty_cache(&s(), &[]), 0.0);
    }

    #[test]
    fn gain_of_fitting_plan_is_pure_profit() {
        let sc = s();
        // items 1 then 0: 6 + 8 = 14 > 10 stretches... use single items.
        assert!((gain_empty_cache(&sc, &[0]) - 4.0).abs() < TOL);
        assert!((gain_empty_cache(&sc, &[1]) - 1.8).abs() < TOL);
    }

    #[test]
    fn wrong_prefetch_can_have_negative_gain() {
        // Low-probability stretching item: penalty exceeds profit.
        let sc = Scenario::new(vec![0.9, 0.1], vec![1.0, 50.0], 2.0).unwrap();
        let g = gain_empty_cache(&sc, &[1]); // st = 48, profit = 5
        assert!(g < 0.0);
    }

    #[test]
    fn theorem3_matches_direct_difference() {
        let sc = s();
        // K = [1] (r = 6 < 10), z = 0 -> F = [1, 0], st = 4.
        let delta = theorem3_delta(&sc, &[1], 0);
        let direct = gain_empty_cache(&sc, &[1, 0]) - gain_empty_cache(&sc, &[1]);
        assert!((delta - direct).abs() < TOL);
    }

    #[test]
    fn theorem3_no_stretch_is_plain_profit() {
        let sc = s();
        let delta = theorem3_delta(&sc, &[], 1);
        assert!((delta - sc.delay_profit(1)).abs() < TOL);
    }

    #[test]
    fn cached_no_prefetch_skips_cache_hits() {
        let sc = s();
        let e = expected_no_prefetch_cached(&sc, &[0]);
        assert!((e - (0.3 * 6.0 + 0.2 * 9.0)).abs() < TOL);
    }

    #[test]
    fn cached_access_time_cases() {
        let sc = s();
        let cache = [1usize];
        let eject: [usize; 0] = [];
        let plan = [0usize, 2]; // st = 7
        assert_eq!(access_time_cached(&sc, &plan, &cache, &eject, 1), 0.0); // cache hit
        assert_eq!(access_time_cached(&sc, &plan, &cache, &eject, 0), 0.0); // in K
        assert!((access_time_cached(&sc, &plan, &cache, &eject, 2) - 7.0).abs() < TOL);
        // z
    }

    #[test]
    fn ejected_item_pays_full_price() {
        let sc = s();
        let cache = [1usize];
        let eject = [1usize];
        let plan = [0usize]; // fits, st = 0
        assert!((access_time_cached(&sc, &plan, &cache, &eject, 1) - 6.0).abs() < TOL);
    }

    #[test]
    fn gain_with_cache_matches_definition() {
        // g(F, D) must equal E[T(no prefetch)] − E[T(F ejects D)] for
        // complete scenarios.
        let sc = s();
        let cache = vec![1usize];
        for (plan, eject) in [
            (vec![0usize], vec![]),
            (vec![0usize], vec![1usize]),
            (vec![0, 2], vec![1usize]),
            (vec![2], vec![]),
        ] {
            let g = gain_with_cache(&sc, &plan, &cache, &eject);
            let lhs = expected_no_prefetch_cached(&sc, &cache)
                - expected_access_time_cached(&sc, &plan, &cache, &eject);
            assert!(
                (g - lhs).abs() < TOL,
                "plan {plan:?} eject {eject:?}: {g} vs {lhs}"
            );
        }
    }

    #[test]
    fn gain_with_empty_cache_reduces_to_gain_empty() {
        let sc = s();
        let plan = vec![0usize, 2];
        let g1 = gain_with_cache(&sc, &plan, &[], &[]);
        let g2 = gain_empty_cache(&sc, &plan);
        assert!((g1 - g2).abs() < TOL);
    }

    #[test]
    fn keeping_cache_items_discounts_stretch_penalty() {
        // With a stretching plan, a surviving cached item's probability does
        // not pay the stretch penalty (its access time is 0 regardless).
        let sc = s();
        let plan = vec![0usize, 2]; // st = 7
        let with_cache = gain_with_cache(&sc, &plan, &[1], &[]);
        let without = gain_empty_cache(&sc, &plan);
        // g(F, ∅) = g*(F) + Σ_{C} P st = g* + 0.3*7
        assert!((with_cache - (without + 0.3 * 7.0)).abs() < TOL);
    }
}
