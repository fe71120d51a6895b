//! Property-based tests for the model formulas, theorems and solvers.
//!
//! Scenarios are drawn to match the paper's workload ranges (`r ∈ [1,30]`,
//! `v ∈ [0,50]`, `n ≤ 10`) so that the brute-force oracle stays cheap.

use proptest::prelude::*;
use skp_core::gain::{
    expected_access_time_cached, expected_access_time_empty, expected_no_prefetch_cached,
    gain_empty_cache, gain_with_cache, stretch_time,
};
use skp_core::kp::{solve_kp, solve_kp_dp};
use skp_core::skp::{solve_exact, solve_global, solve_optimal, solve_paper, upper_bound};
use skp_core::theorems::{theorem1_holds, theorem2_holds, theorem3_holds};
use skp_core::{PrefetchPlan, Scenario};

const TOL: f64 = 1e-7;

/// Random scenario with n in [1, 10], integer retrievals in [1, 30],
/// integer viewing in [0, 50], probabilities normalised random weights.
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (1usize..=10)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(1u32..=100, n),
                proptest::collection::vec(1u32..=30, n),
                0u32..=50,
            )
        })
        .prop_map(|(weights, retrievals, v)| {
            let w: Vec<f64> = weights.iter().map(|&x| x as f64).collect();
            let r: Vec<f64> = retrievals.iter().map(|&x| x as f64).collect();
            Scenario::from_weights(w, r, v as f64).expect("valid scenario")
        })
}

/// A random admissible plan for a scenario: take a random subset in a
/// random order, then truncate at the first item that overruns (that item
/// becomes the stretching tail).
fn random_plan(s: &Scenario, picks: &[usize]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    let mut plan = Vec::new();
    let mut used = 0.0;
    for &p in picks {
        let id = p % s.n();
        if !seen.insert(id) {
            continue;
        }
        plan.push(id);
        used += s.retrieval(id);
        if used >= s.viewing() {
            break; // this item stretches (or exactly fills): stop here
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Eq. 3 is the definition g* = E[T(no prefetch)] − E[T(prefetch)].
    #[test]
    fn gain_formula_matches_definition(s in scenario_strategy(), picks in proptest::collection::vec(0usize..32, 0..8)) {
        let plan = random_plan(&s, &picks);
        let g = gain_empty_cache(&s, &plan);
        let direct = s.expected_no_prefetch() - expected_access_time_empty(&s, &plan);
        prop_assert!((g - direct).abs() < TOL, "g {} vs direct {}", g, direct);
    }

    /// Theorem 1: swapping a minimum-probability member to the tail never
    /// hurts (when admissible).
    #[test]
    fn theorem1(s in scenario_strategy(), picks in proptest::collection::vec(0usize..32, 0..8)) {
        let plan = random_plan(&s, &picks);
        prop_assert!(theorem1_holds(&s, &plan));
    }

    /// Theorem 2 / Eq. 7: the Dantzig bound dominates every plan's gain.
    #[test]
    fn theorem2(s in scenario_strategy(), picks in proptest::collection::vec(0usize..32, 0..8)) {
        let plan = random_plan(&s, &picks);
        prop_assert!(theorem2_holds(&s, &plan));
    }

    /// Theorem 3: incremental gain equals the direct difference.
    #[test]
    fn theorem3(s in scenario_strategy(), picks in proptest::collection::vec(0usize..32, 0..8), z in 0usize..32) {
        let plan = random_plan(&s, &picks);
        let z = z % s.n();
        // Use the plan as prefix K only when it does not stretch and does
        // not contain z (construction 1).
        if !plan.contains(&z) && stretch_time(&s, &plan) == 0.0 {
            let prefix_r: f64 = plan.iter().map(|&i| s.retrieval(i)).sum();
            if prefix_r < s.viewing() {
                prop_assert!(theorem3_holds(&s, &plan, z));
            }
        }
    }

    /// Solver hierarchy: optimal ≥ exact ≥ paper (in true gain), all within
    /// the Eq. 7 bound and non-negative for the oracle; the global DP
    /// equals the exhaustive oracle on these integral instances.
    #[test]
    fn solver_hierarchy(s in scenario_strategy()) {
        let paper = solve_paper(&s);
        let exact = solve_exact(&s);
        let optimal = solve_optimal(&s);
        let global = solve_global(&s).expect("integral instance");
        prop_assert!(exact.gain >= paper.gain - TOL, "exact {} < paper {}", exact.gain, paper.gain);
        prop_assert!(optimal.gain >= exact.gain - TOL, "optimal {} < exact {}", optimal.gain, exact.gain);
        prop_assert!((global.gain - optimal.gain).abs() < TOL,
            "global {} != brute {}", global.gain, optimal.gain);
        prop_assert!(optimal.gain >= -TOL);
        let ub = upper_bound(&s);
        prop_assert!(optimal.gain <= ub + TOL, "optimal {} exceeds bound {}", optimal.gain, ub);
        // Internal accounting of the exact solver is honest.
        prop_assert!((exact.internal_gain - exact.gain).abs() < TOL);
    }

    /// Every solver returns an admissible plan (construction 1).
    #[test]
    fn solver_plans_admissible(s in scenario_strategy()) {
        for sol in [solve_paper(&s), solve_exact(&s), solve_optimal(&s)] {
            prop_assert!(PrefetchPlan::admissible(sol.plan.items().to_vec(), &s).is_ok(),
                "inadmissible plan {:?}", sol.plan);
        }
    }

    /// SKP (exact) dominates KP: the knapsack solution is feasible for SKP.
    #[test]
    fn skp_dominates_kp(s in scenario_strategy()) {
        let kp = solve_kp(&s);
        let skp = solve_exact(&s);
        prop_assert!(skp.gain >= kp.profit - TOL, "skp {} < kp {}", skp.gain, kp.profit);
    }

    /// KP branch-and-bound equals the DP oracle on integral instances.
    #[test]
    fn kp_bb_equals_dp(s in scenario_strategy()) {
        let bb = solve_kp(&s);
        let dp = solve_kp_dp(&s).expect("integral instance");
        prop_assert!((bb.profit - dp.profit).abs() < TOL, "bb {} vs dp {}", bb.profit, dp.profit);
    }

    /// Both KP solvers equal a brute-force subset enumeration.
    #[test]
    fn kp_equals_subset_enumeration(s in scenario_strategy()) {
        let n = s.n();
        let mut best = 0.0_f64;
        for mask in 0u32..(1 << n) {
            let mut weight = 0.0;
            let mut profit = 0.0;
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    weight += s.retrieval(i);
                    profit += s.delay_profit(i);
                }
            }
            if weight <= s.viewing() && profit > best {
                best = profit;
            }
        }
        let bb = solve_kp(&s);
        prop_assert!((bb.profit - best).abs() < TOL, "bb {} vs brute {}", bb.profit, best);
    }

    /// KP plans never stretch.
    #[test]
    fn kp_respects_capacity(s in scenario_strategy()) {
        let kp = solve_kp(&s);
        prop_assert!(kp.plan.total_retrieval(&s) <= s.viewing() + TOL);
    }

    /// Eq. 9 identity: g(F, D) = E[T(np)] − E[T(F ejects D)], with the
    /// cache and ejections drawn at random.
    #[test]
    fn cache_gain_matches_definition(
        s in scenario_strategy(),
        cache_picks in proptest::collection::vec(0usize..32, 0..6),
        eject_sel in proptest::collection::vec(proptest::bool::ANY, 6),
        plan_picks in proptest::collection::vec(0usize..32, 0..6),
    ) {
        // Build a cache (unique ids) and an ejection subset of it.
        let mut cache: Vec<usize> = Vec::new();
        for &p in &cache_picks {
            let id = p % s.n();
            if !cache.contains(&id) {
                cache.push(id);
            }
        }
        let eject: Vec<usize> = cache
            .iter()
            .enumerate()
            .filter(|(k, _)| eject_sel.get(*k).copied().unwrap_or(false))
            .map(|(_, &id)| id)
            .collect();
        // Plan over non-cached items only.
        let raw = random_plan(&s, &plan_picks);
        let plan: Vec<usize> = raw.into_iter().filter(|i| !cache.contains(i)).collect();

        let g = gain_with_cache(&s, &plan, &cache, &eject);
        let direct = expected_no_prefetch_cached(&s, &cache)
            - expected_access_time_cached(&s, &plan, &cache, &eject);
        prop_assert!((g - direct).abs() < TOL, "g {} vs direct {}", g, direct);
    }

    /// The linear relaxation bound is tight for instances where everything
    /// fits: bound equals the full-inclusion gain.
    #[test]
    fn bound_tight_when_all_fit(s in scenario_strategy()) {
        let total_r: f64 = (0..s.n()).map(|i| s.retrieval(i)).sum();
        if total_r <= s.viewing() {
            let all: Vec<usize> = (0..s.n()).collect();
            let g = gain_empty_cache(&s, &all);
            prop_assert!((upper_bound(&s) - g).abs() < TOL);
        }
    }
}

/// Reduced-mass scenarios (Σ P < 1, the Section-5 situation where some
/// probability rests on cached items) and candidate-restricted solving.
mod reduced_mass_props {
    use super::*;
    use skp_core::skp::{brute, exact, paper, SortedView};

    /// Scenario with total mass scaled to ~0.6.
    fn reduced_scenario() -> impl Strategy<Value = Scenario> {
        (2usize..=8)
            .prop_flat_map(|n| {
                (
                    proptest::collection::vec(1u32..=100, n),
                    proptest::collection::vec(1u32..=30, n),
                    0u32..=50,
                )
            })
            .prop_map(|(weights, retrievals, v)| {
                let sum: f64 = weights.iter().map(|&x| x as f64).sum();
                let probs: Vec<f64> = weights.iter().map(|&x| 0.6 * x as f64 / sum).collect();
                let r: Vec<f64> = retrievals.iter().map(|&x| x as f64).collect();
                Scenario::new(probs, r, v as f64).expect("valid scenario")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The solver hierarchy and the global DP's exactness survive
        /// reduced probability mass (the uncovered mass pays the stretch).
        #[test]
        fn hierarchy_under_reduced_mass(s in reduced_scenario()) {
            let paper = solve_paper(&s);
            let exact = solve_exact(&s);
            let brute = solve_optimal(&s);
            let global = solve_global(&s).expect("integral instance");
            prop_assert!(exact.gain >= paper.gain - TOL);
            prop_assert!(brute.gain >= exact.gain - TOL);
            prop_assert!((global.gain - brute.gain).abs() < TOL,
                "global {} vs brute {}", global.gain, brute.gain);
            prop_assert!(brute.gain >= -TOL);
        }

        /// Candidate-restricted branch-and-bound against the restricted
        /// brute oracle, with the full scenario's mass paying penalties.
        #[test]
        fn candidate_restriction_hierarchy(
            s in reduced_scenario(),
            mask_bits in proptest::collection::vec(proptest::bool::ANY, 8),
        ) {
            let mask: Vec<bool> = (0..s.n())
                .map(|i| mask_bits.get(i).copied().unwrap_or(true))
                .collect();
            if !mask.iter().any(|&b| b) {
                return Ok(()); // no candidates: nothing to test
            }
            let positive = SortedView::positive(&s, Some(&mask));
            let paper = paper::solve_on_view(&s, &positive);
            let exact = exact::solve_on_view(&s, &positive);
            let brute = brute::solve_on_view(&s, &SortedView::with_candidates(&s, &mask));
            for sol in [&paper, &exact, &brute] {
                for &i in sol.plan.items() {
                    prop_assert!(mask[i], "mask violated by item {}", i);
                }
            }
            prop_assert!(exact.gain >= paper.gain - TOL);
            prop_assert!(brute.gain >= exact.gain - TOL);
        }
    }
}

/// Arbitration invariants under random caches.
mod arbitration_props {
    use super::*;
    use skp_core::arbitration::{arbitrate, CacheEntry, SubArbitration};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitration_invariants(
            s in scenario_strategy(),
            cache_picks in proptest::collection::vec((0usize..32, 0u64..20), 0..6),
            free in 0usize..3,
            sub_pick in 0u8..3,
        ) {
            let sub = match sub_pick {
                0 => SubArbitration::None,
                1 => SubArbitration::Lfu,
                _ => SubArbitration::DelaySaving,
            };
            let mut cache: Vec<CacheEntry> = Vec::new();
            for &(p, f) in &cache_picks {
                let id = p % s.n();
                if !cache.iter().any(|e| e.id == id) {
                    cache.push(CacheEntry { id, freq: f });
                }
            }
            let candidates: Vec<bool> =
                (0..s.n()).map(|i| !cache.iter().any(|e| e.id == i)).collect();
            let view = skp_core::skp::SortedView::positive(&s, Some(&candidates));
            let tentative = skp_core::skp::paper::solve_on_view(&s, &view).plan;
            let a = arbitrate(&s, &tentative, &cache, free, sub);

            // Ejections pair with prefetches beyond the free slots.
            prop_assert!(a.eject.len() <= a.prefetch.len());
            prop_assert!(a.prefetch.len() <= tentative.len());
            prop_assert!(a.eject.len() + free >= a.prefetch.len().min(a.eject.len() + free));
            // Every ejected item was cached; every prefetched item was in
            // the tentative plan and not cached.
            for d in &a.eject {
                prop_assert!(cache.iter().any(|e| e.id == *d));
            }
            for f_id in &a.prefetch {
                prop_assert!(tentative.contains(*f_id));
                prop_assert!(!cache.iter().any(|e| e.id == *f_id));
            }
            // No duplicates anywhere.
            let mut e = a.eject.clone();
            e.sort_unstable();
            e.dedup();
            prop_assert_eq!(e.len(), a.eject.len());
        }
    }
}

/// Figure-6 arbitration and the demand victim against a frozen copy of
/// the straightforward implementation, which prices every entry again for
/// each victim search. Prices are drawn from a few levels with nudges of
/// 0, 1e-14, 1e-13 and 5e-13 so that `P·r` ties come both exact and
/// within `PR_TIE_TOL`, and some near-ties fall outside it.
mod arbitration_reference_props {
    use super::*;
    use skp_core::arbitration::{
        arbitrate, arbitrate_into, choose_demand_victim, Arbitration, ArbitrationScratch,
        CacheEntry, SubArbitration, PR_TIE_TOL,
    };
    use skp_core::ItemId;

    fn reference_victim(s: &Scenario, cache: &[CacheEntry], sub: SubArbitration) -> Option<usize> {
        if cache.is_empty() {
            return None;
        }
        let pr = |e: &CacheEntry| s.delay_profit(e.id);
        let min_pr = cache
            .iter()
            .map(pr)
            .min_by(f64::total_cmp)
            .expect("non-empty");
        let tied = cache
            .iter()
            .enumerate()
            .filter(|(_, e)| (pr(e) - min_pr).abs() <= PR_TIE_TOL);
        match sub {
            SubArbitration::None => tied.map(|(i, _)| i).next(),
            SubArbitration::Lfu => tied.min_by_key(|(_, e)| e.freq).map(|(i, _)| i),
            SubArbitration::DelaySaving => tied
                .min_by(|(_, a), (_, b)| {
                    let da = a.freq as f64 * s.retrieval(a.id);
                    let db = b.freq as f64 * s.retrieval(b.id);
                    da.total_cmp(&db)
                })
                .map(|(i, _)| i),
        }
    }

    fn reference_arbitrate(
        s: &Scenario,
        tentative: &[ItemId],
        cache: &[CacheEntry],
        free_slots: usize,
        sub: SubArbitration,
    ) -> Arbitration {
        let mut by_worth = tentative.to_vec();
        by_worth.sort_by(|&a, &b| s.delay_profit(b).total_cmp(&s.delay_profit(a)));
        let mut live = cache.to_vec();
        let mut kept = Vec::new();
        let mut eject = Vec::new();
        let mut free = free_slots;
        for &f in &by_worth {
            if free > 0 {
                free -= 1;
                kept.push(f);
                continue;
            }
            let Some(pos) = reference_victim(s, &live, sub) else {
                break;
            };
            let d = live[pos];
            if s.delay_profit(f) < s.delay_profit(d.id) {
                break;
            }
            live.swap_remove(pos);
            kept.push(f);
            eject.push(d.id);
        }
        let prefetch = tentative
            .iter()
            .copied()
            .filter(|i| kept.contains(i))
            .collect();
        Arbitration { prefetch, eject }
    }

    const LEVELS: [f64; 3] = [0.0, 0.02, 0.05];
    const NUDGES: [f64; 4] = [0.0, 1e-14, 1e-13, 5e-13];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn arbitration_matches_the_reference(
            items in proptest::collection::vec((0usize..3, 0usize..4, 1u32..=6, 0u64..4), 1..=16),
            viewing in 0u32..=50,
            cache_picks in proptest::collection::vec(0usize..64, 0..=10),
            free in 0usize..=8,
            plan_picks in proptest::collection::vec(0usize..64, 0..=16),
            sub_pick in 0u8..3,
        ) {
            let sub = match sub_pick {
                0 => SubArbitration::None,
                1 => SubArbitration::Lfu,
                _ => SubArbitration::DelaySaving,
            };
            let probs: Vec<f64> = items.iter().map(|&(l, d, _, _)| LEVELS[l] + NUDGES[d]).collect();
            let r: Vec<f64> = items.iter().map(|&(_, _, r, _)| r as f64).collect();
            let s = Scenario::new(probs, r, viewing as f64).expect("valid scenario");
            let n = s.n();
            let mut cache: Vec<CacheEntry> = Vec::new();
            for &p in &cache_picks {
                let id = p % n;
                if !cache.iter().any(|e| e.id == id) {
                    cache.push(CacheEntry { id, freq: items[id].3 });
                }
            }
            // Distinct non-cached items in a random order; with few free
            // slots this is often longer than the cache.
            let mut tentative: Vec<ItemId> = Vec::new();
            for &p in &plan_picks {
                let id = p % n;
                if !tentative.contains(&id) && !cache.iter().any(|e| e.id == id) {
                    tentative.push(id);
                }
            }

            let want = reference_arbitrate(&s, &tentative, &cache, free, sub);
            let plan = PrefetchPlan::new(tentative.clone()).expect("distinct items");
            prop_assert_eq!(&arbitrate(&s, &plan, &cache, free, sub), &want);
            // Reused buffers holding a previous call's state.
            let mut scratch = ArbitrationScratch::default();
            let mut out = Arbitration::default();
            arbitrate_into(&s, &tentative, &cache, 0, SubArbitration::DelaySaving, &mut scratch, &mut out);
            arbitrate_into(&s, &tentative, &cache, free, sub, &mut scratch, &mut out);
            prop_assert_eq!(&out, &want);

            // The demand victim, before and after the arbitration.
            let want = reference_victim(&s, &cache, sub).map(|pos| cache[pos].id);
            prop_assert_eq!(choose_demand_victim(&s, &cache, sub), want);
            let mut after: Vec<CacheEntry> = cache
                .iter()
                .copied()
                .filter(|e| !out.eject.contains(&e.id))
                .collect();
            after.extend(out.prefetch.iter().map(|&id| CacheEntry { id, freq: items[id].3 }));
            let want = reference_victim(&s, &after, sub).map(|pos| after[pos].id);
            prop_assert_eq!(choose_demand_victim(&s, &after, sub), want);
        }
    }
}

/// The branch-and-bound solvers search only the positive-probability
/// candidates; on sparse forecasts that trimmed search must return what
/// the search over every candidate returns, bit for bit.
mod sparse_view_props {
    use super::*;
    use skp_core::skp::order::SortedView;
    use skp_core::skp::{exact, paper, SkpSolution};

    /// Up to 100 items, 1–20 of them with probability `c_i / Σc` (a sum
    /// that can round above 1), the rest zero.
    fn sparse_scenario() -> impl Strategy<Value = Scenario> {
        (1usize..=100)
            .prop_flat_map(|n| {
                (
                    Just(n),
                    proptest::collection::vec((0usize..100, 1u32..=13), 1..=20),
                    proptest::collection::vec(1u32..=30, n),
                    0u32..=300,
                )
            })
            .prop_map(|(n, weights, retrievals, v)| {
                let mut c = vec![0.0; n];
                for (pos, w) in weights {
                    c[pos % n] = w as f64;
                }
                let sum: f64 = c.iter().sum();
                let p: Vec<f64> = c.iter().map(|x| x / sum).collect();
                let r: Vec<f64> = retrievals.iter().map(|&x| x as f64).collect();
                Scenario::new(p, r, v as f64).expect("valid scenario")
            })
    }

    fn same_solution(trimmed: &SkpSolution, full: &SkpSolution) -> Result<(), TestCaseError> {
        prop_assert_eq!(trimmed.plan.items(), full.plan.items());
        prop_assert_eq!(trimmed.gain.to_bits(), full.gain.to_bits());
        prop_assert_eq!(
            trimmed.internal_gain.to_bits(),
            full.internal_gain.to_bits()
        );
        prop_assert!(
            trimmed.nodes <= full.nodes,
            "trimmed {} nodes > full {}",
            trimmed.nodes,
            full.nodes
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn trimmed_solve_matches_full_view(
            s in sparse_scenario(),
            mask_bits in proptest::collection::vec(proptest::bool::ANY, 100),
        ) {
            let mask = &mask_bits[..s.n()];
            let full = SortedView::with_candidates(&s, mask);
            let positive = SortedView::positive(&s, Some(mask));
            same_solution(&exact::solve_on_view(&s, &positive), &exact::solve_on_view(&s, &full))?;
            same_solution(&paper::solve_on_view(&s, &positive), &paper::solve_on_view(&s, &full))?;

            let full = SortedView::new(&s);
            same_solution(&solve_exact(&s), &exact::solve_on_view(&s, &full))?;
            same_solution(&solve_paper(&s), &paper::solve_on_view(&s, &full))?;
        }
    }
}
