//! Exhaustive ground-truth SKP solver.
//!
//! Enumerates every subset `S` of the candidate items and, for stretching
//! subsets, every *feasible* choice of the stretching item `z` (feasible
//! means the rest of `S` fits strictly within the viewing time, i.e.
//! `r_z > st(S)`). Among feasible `z` the gain is maximised by the smallest
//! `P_z` (the Theorem-1 argument), so only that one is evaluated.
//!
//! This searches a strictly larger space than the canonical
//! branch-and-bound: Theorem 1's swap argument ignores that the swapped
//! order must remain admissible, so when the minimum-probability item of
//! the optimal subset is too *short* to absorb the stretch (`r_z ≤ st`),
//! the optimum ends on a different item and the canonical space misses it.
//! Intended for tests and ablations; cost is `O(2^m · m)`.

use crate::gain::plan_gain;
use crate::plan::PrefetchPlan;
use crate::scenario::Scenario;
use crate::skp::order::SortedView;
use crate::skp::SkpSolution;

/// Maximum candidate count accepted by the brute-force solver.
pub const MAX_BRUTE_ITEMS: usize = 24;

/// Exhaustive SKP optimum over all items of the scenario.
///
/// # Panics
/// Panics when the scenario has more than [`MAX_BRUTE_ITEMS`] items.
pub fn solve_optimal(s: &Scenario) -> SkpSolution {
    let view = SortedView::new(s);
    solve_on_view(s, &view)
}

/// Exhaustive search over a pre-sorted view.
pub fn solve_on_view(s: &Scenario, view: &SortedView) -> SkpSolution {
    let mut best = Vec::new();
    let gain = search(s.viewing(), view, &mut best);
    let items = best.iter().map(|&j| view.id(j)).collect();
    SkpSolution {
        plan: PrefetchPlan::new(items).expect("subset items are unique"),
        gain,
        internal_gain: gain,
        nodes: 0,
    }
}

/// The exhaustive search: writes the best plan's view positions, in
/// prefetch order, into `best` (cleared first) and returns its gain
/// `g*` ([`gain_empty_cache`](crate::gain::gain_empty_cache) of the
/// plan). An empty view, or one where no plan gains, leaves `best`
/// empty.
///
/// # Panics
/// Panics when the view holds more than [`MAX_BRUTE_ITEMS`] items.
pub(crate) fn search(viewing: f64, view: &SortedView, best: &mut Vec<usize>) -> f64 {
    let m = view.m();
    assert!(
        m <= MAX_BRUTE_ITEMS,
        "brute-force SKP limited to {MAX_BRUTE_ITEMS} items, got {m}"
    );
    best.clear();
    let mut best_gain = 0.0_f64;
    let mut order: Vec<usize> = Vec::with_capacity(m);

    for mask in 1u32..(1u32 << m) {
        let mut total_r = 0.0;
        for j in 0..m {
            if mask & (1 << j) != 0 {
                total_r += view.r(j);
            }
        }
        let st = (total_r - viewing).max(0.0);

        // Pick the ordering: members in canonical order; for stretching
        // subsets the last item must be feasible (r_z > st) and, among
        // feasible ones, of minimal probability — i.e. the highest sorted
        // position with r_z > st (canonical order is P-descending).
        order.clear();
        if st == 0.0 {
            order.extend((0..m).filter(|&j| mask & (1 << j) != 0));
        } else {
            let Some(z) = (0..m)
                .rev()
                .find(|&j| mask & (1 << j) != 0 && view.r(j) > st)
            else {
                continue; // no admissible ordering for this subset
            };
            order.extend((0..m).filter(|&j| mask & (1 << j) != 0 && j != z));
            order.push(z);
        }

        let g = plan_gain(viewing, order.iter().map(|&j| (view.p(j), view.r(j))));
        if g > best_gain {
            best_gain = g;
            best.clone_from(&order);
        }
    }
    best_gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::gain_empty_cache;
    use crate::skp::{solve_exact, solve_paper};

    const TOL: f64 = 1e-9;

    fn sc(p: Vec<f64>, r: Vec<f64>, v: f64) -> Scenario {
        Scenario::new(p, r, v).unwrap()
    }

    #[test]
    fn trivial_cases() {
        let s = sc(vec![1.0], vec![2.0], 4.0);
        let sol = solve_optimal(&s);
        assert_eq!(sol.plan.items(), &[0]);
        assert!((sol.gain - 2.0).abs() < TOL);
    }

    #[test]
    fn agrees_with_exact_on_fitting_scenarios() {
        let s = sc(vec![0.5, 0.3, 0.2], vec![2.0, 3.0, 4.0], 100.0);
        let a = solve_optimal(&s);
        let b = solve_exact(&s);
        assert!((a.gain - b.gain).abs() < TOL);
        assert_eq!(a.plan.len(), 3);
    }

    #[test]
    fn dominates_both_branch_and_bound_solvers() {
        let cases = [
            sc(vec![0.5, 0.3, 0.2], vec![8.0, 6.0, 9.0], 10.0),
            sc(
                vec![0.3, 0.25, 0.2, 0.15, 0.1],
                vec![7.0, 4.0, 12.0, 2.0, 9.0],
                11.0,
            ),
            sc(
                vec![0.3, 0.3, 0.2, 0.1, 0.05, 0.05],
                vec![14.0, 5.0, 9.0, 6.0, 2.0, 30.0],
                16.0,
            ),
        ];
        for s in cases {
            let o = solve_optimal(&s);
            assert!(o.gain >= solve_exact(&s).gain - TOL);
            assert!(o.gain >= solve_paper(&s).gain - TOL);
        }
    }

    #[test]
    fn finds_non_canonical_optimum() {
        // Subset {0, 1} stretches by st = 7; the minimum-probability item 1
        // is too short to go last (r = 2 < st), so the only admissible
        // order is ⟨1, 0⟩ — outside the canonical space. Its gain
        // (0.5·10 + 0.3·2) − (1 − 0.3)·7 = 0.7 beats both singletons
        // (g({0}) = 5 − 5 = 0, g({1}) = 0.6).
        let s = sc(vec![0.5, 0.3, 0.2], vec![10.0, 2.0, 50.0], 5.0);
        let sol = solve_optimal(&s);
        assert_eq!(sol.plan.items(), &[1, 0]);
        assert!((sol.gain - 0.7).abs() < TOL);
        // ... and the canonical B&B solvers miss it:
        assert!(solve_exact(&s).gain < sol.gain - 0.05);
        assert!(solve_paper(&s).gain < sol.gain - 0.05);
    }

    #[test]
    fn returned_plan_is_admissible() {
        let s = sc(
            vec![0.25, 0.2, 0.2, 0.15, 0.1, 0.1],
            vec![4.0, 9.0, 2.0, 7.0, 3.0, 11.0],
            12.0,
        );
        let sol = solve_optimal(&s);
        assert!(PrefetchPlan::admissible(sol.plan.items().to_vec(), &s).is_ok());
        assert!((gain_empty_cache(&s, sol.plan.items()) - sol.gain).abs() < TOL);
    }

    #[test]
    fn candidates_variant_restricts() {
        let s = sc(vec![0.6, 0.4], vec![5.0, 5.0], 20.0);
        let sol = solve_on_view(&s, &SortedView::with_candidates(&s, &[false, true]));
        assert_eq!(sol.plan.items(), &[1]);
    }

    #[test]
    #[should_panic(expected = "brute-force SKP limited")]
    fn too_many_items_panics() {
        let n = MAX_BRUTE_ITEMS + 1;
        let s = Scenario::new(vec![1.0 / n as f64; n], vec![1.0; n], 5.0).unwrap();
        let _ = solve_optimal(&s);
    }
}
