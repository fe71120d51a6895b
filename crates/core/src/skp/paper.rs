//! The SKP branch-and-bound algorithm of the paper's **Figure 3**,
//! implemented verbatim (a Horowitz–Sahni-style depth-first search with
//! Dantzig bounds, extended with the stretch move of Theorem 3).
//!
//! The pseudocode's `goto`s are realised as a small state machine. One
//! fidelity note (documented in DESIGN.md §4.5): step 3 prices the stretch
//! penalty of inserting item `j` with the *suffix* mass `Σ_{i≥j} P_i`.
//! After a backtrack has excluded an earlier item `e < j`, the true
//! uncovered mass `1 − Σ_{i∈K} P_i` also contains `P_e`, so the verbatim
//! algorithm can overestimate the incremental gain on such branches. The
//! corrected bookkeeping lives in [`crate::skp::exact`]; the returned
//! [`SkpSolution::gain`] is always the true closed-form value.
//!
//! A zero-probability item has zero profit and zero suffix mass, so its
//! step-3 delta is zero and it never enters a plan. [`solve_paper`] and
//! [`crate::skp::solve_paper_candidates`] therefore search the trimmed
//! view of [`SortedView::positive`]. Step 3's "if j < n goto 2" is tested
//! against [`SortedView::candidate_count`], which counts the dropped
//! candidates too, so the search visits nodes in the full view's order,
//! breaks ties between equal-gain plans the same way and returns the same
//! plan and gains bit for bit. [`SkpSolution::nodes`] counts forward steps
//! over the positive-probability candidates only.
//!
//! The search itself needs only the viewing time and the view. The
//! `Scenario`-taking entry points wrap it and recompute the closed-form
//! gain; [`plan_on_view`] returns the plan's items alone, for a view
//! built from a sparse row ([`SortedView::from_row`]) with no scenario
//! at hand.

use crate::gain::gain_empty_cache;
use crate::plan::PrefetchPlan;
use crate::scenario::{ItemId, Scenario};
use crate::skp::bound::dantzig_residual;
use crate::skp::order::SortedView;
use crate::skp::SkpSolution;

/// Solves SKP with the verbatim Figure-3 algorithm over all items.
pub fn solve_paper(s: &Scenario) -> SkpSolution {
    let view = SortedView::positive(s, None);
    solve_on_view(s, &view)
}

/// Figure-3 solver over a pre-sorted candidate view.
pub fn solve_on_view(s: &Scenario, view: &SortedView) -> SkpSolution {
    let (best_x, best_g, nodes) = search(s.viewing(), view);
    finish(s, view, &best_x, best_g, nodes)
}

/// The items of [`solve_on_view`]'s plan, in prefetch order, for viewing
/// time `viewing`; no closed-form gain is computed.
pub fn plan_on_view(viewing: f64, view: &SortedView) -> Vec<ItemId> {
    let (best_x, _, _) = search(viewing, view);
    view.selectors_to_items(&best_x)
}

/// The Figure-3 search: the best plan's selectors over the view's
/// positions, its internal gain and the number of forward steps. An
/// empty view gives empty selectors.
fn search(viewing: f64, view: &SortedView) -> (Vec<bool>, f64, u64) {
    let m = view.m();
    let n = view.candidate_count();
    if m == 0 {
        return (Vec::new(), 0.0, 0);
    }

    // Step 1: initialisation.
    let mut best_x = vec![false; m]; // x: best item selectors
    let mut best_g = 0.0_f64; // g: gain of best solution
    let mut cur_x = vec![false; m]; // x̂: current item selectors
    let mut cur_g = 0.0_f64; // ĝ: gain of current solution
    let mut cap = viewing; // v̂: current residual capacity
    let mut j = 0usize;
    let mut nodes = 0u64;

    'step2: loop {
        // Step 2: compute the upper bound of the current branch.
        let u = dantzig_residual(view, j, cap);
        if best_g >= cur_g + u {
            // Bound cannot beat the incumbent: backtrack.
            if !backtrack(view, &mut cur_x, &mut cur_g, &mut cap, &mut j) {
                break 'step2;
            }
            continue 'step2;
        }

        // Step 3: forward steps.
        while j < m && cap > 0.0 {
            nodes += 1;
            let over = (view.r(j) - cap).max(0.0);
            // Verbatim: δ := P_j r_j − (Σ_{i=j}^{n} P_i) · max{0, r_j − v̂}.
            let delta = view.profit(j) - view.suffix_p(j) * over;
            if delta <= 0.0 {
                cur_x[j] = false;
                j += 1;
                if j < n - 1 {
                    // "if j < n then goto 2": recompute the bound.
                    continue 'step2;
                }
            } else {
                cap -= view.r(j);
                cur_g += delta;
                cur_x[j] = true;
                j += 1;
            }
        }

        // Step 4: update the best solution.
        if cur_g > best_g {
            best_g = cur_g;
            best_x.copy_from_slice(&cur_x);
        }

        // Step 5: backtrack.
        if !backtrack(view, &mut cur_x, &mut cur_g, &mut cap, &mut j) {
            break 'step2;
        }
    }

    (best_x, best_g, nodes)
}

/// Step 5 of Figure 3: remove the last inserted item. Returns `false` when
/// no inserted item remains (search exhausted).
fn backtrack(
    view: &SortedView,
    cur_x: &mut [bool],
    cur_g: &mut f64,
    cap: &mut f64,
    j: &mut usize,
) -> bool {
    let Some(k) = (0..*j).rev().find(|&k| cur_x[k]) else {
        return false;
    };
    cur_x[k] = false;
    *cap += view.r(k);
    let over = (view.r(k) - *cap).max(0.0);
    let delta = view.profit(k) - view.suffix_p(k) * over;
    *cur_g -= delta;
    *j = k + 1;
    true
}

/// Step 6: builds the [`SkpSolution`], recomputing the true closed-form
/// gain. Empty selectors (an empty view) give [`SkpSolution::empty`].
pub(crate) fn finish(
    s: &Scenario,
    view: &SortedView,
    best_x: &[bool],
    internal_gain: f64,
    nodes: u64,
) -> SkpSolution {
    if best_x.is_empty() {
        return SkpSolution::empty();
    }
    let items = view.selectors_to_items(best_x);
    let gain = gain_empty_cache(s, &items);
    SkpSolution {
        plan: PrefetchPlan::new(items).expect("selector items are unique"),
        gain,
        internal_gain,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain;
    use crate::skp::bound::upper_bound;

    const TOL: f64 = 1e-9;

    fn sc(p: Vec<f64>, r: Vec<f64>, v: f64) -> Scenario {
        Scenario::new(p, r, v).unwrap()
    }

    #[test]
    fn picks_everything_when_all_fit() {
        let s = sc(vec![0.5, 0.3, 0.2], vec![2.0, 3.0, 4.0], 100.0);
        let sol = solve_paper(&s);
        assert_eq!(sol.plan.len(), 3);
        assert!((sol.gain - s.expected_no_prefetch()).abs() < TOL);
    }

    #[test]
    fn prefers_high_probability_items() {
        // Only one of the two items fits.
        let s = sc(vec![0.8, 0.2], vec![5.0, 5.0], 5.0);
        let sol = solve_paper(&s);
        assert_eq!(sol.plan.items(), &[0]);
        assert!((sol.gain - 0.8 * 5.0).abs() < TOL);
    }

    #[test]
    fn uses_stretch_when_profitable() {
        // Item 0 fits; adding item 1 stretches by 2 but its profit
        // 0.45*6=2.7 exceeds the penalty (1-0.5)*2 = 1.0.
        let s = sc(vec![0.5, 0.45, 0.05], vec![6.0, 6.0, 1.0], 10.0);
        let sol = solve_paper(&s);
        assert!(sol.plan.contains(0) && sol.plan.contains(1));
        let g_manual = gain::gain_empty_cache(&s, sol.plan.items());
        assert!((sol.gain - g_manual).abs() < TOL);
        assert!(sol.gain > 0.5 * 6.0); // better than item 0 alone
    }

    #[test]
    fn avoids_stretch_when_penalty_dominates() {
        // Item 1 (P=0.3, r=30) would stretch by 26 while 0.4 of the mass
        // still pays the penalty: δ = 9 − 0.4·26 < 0, so it is skipped and
        // the cheap item 2 is taken instead.
        let s = sc(vec![0.6, 0.3, 0.1], vec![5.0, 30.0, 3.0], 9.0);
        let sol = solve_paper(&s);
        assert!(!sol.plan.contains(1), "plan {:?}", sol.plan);
        assert!(sol.plan.contains(0) && sol.plan.contains(2));
    }

    #[test]
    fn gain_never_negative_and_bounded() {
        // Figure-3 keeps the empty plan as incumbent, so it never returns a
        // solution its own accounting thinks is losing; the true gain must
        // also respect the Eq. 7 bound.
        let s = sc(
            vec![0.3, 0.25, 0.2, 0.15, 0.1],
            vec![7.0, 4.0, 12.0, 2.0, 9.0],
            11.0,
        );
        let sol = solve_paper(&s);
        assert!(sol.gain >= -TOL);
        assert!(sol.gain <= upper_bound(&s) + TOL);
    }

    #[test]
    fn zero_viewing_time_may_still_stretch_profitably() {
        // v = 0: any prefetch stretches. A near-certain item is still worth
        // prefetching: g = P r − st = P r − r > 0 iff ... P=1: g = 0... use
        // P = 1 for a deterministic request: g = r − r = 0, so the solver
        // is indifferent; it must not return a *negative* plan.
        let s = sc(vec![1.0], vec![5.0], 0.0);
        let sol = solve_paper(&s);
        assert!(sol.gain >= -TOL);
    }

    #[test]
    fn deterministic_request_prefetched_whole() {
        // P = (1, 0); the certain item doesn't fit fully but stretching is
        // free (penalty mass after including it... K = ∅ so penalty = 1·st,
        // profit = r): g = r − st = v. Prefetching must beat nothing.
        let s = sc(vec![1.0, 0.0], vec![8.0, 3.0], 5.0);
        let sol = solve_paper(&s);
        assert!(sol.plan.contains(0));
        assert!((sol.gain - 5.0).abs() < TOL);
    }

    #[test]
    fn plan_is_admissible_construction_1() {
        let s = sc(
            vec![0.25, 0.2, 0.2, 0.15, 0.1, 0.1],
            vec![4.0, 9.0, 2.0, 7.0, 3.0, 11.0],
            12.0,
        );
        let sol = solve_paper(&s);
        // The prefix of the returned plan must fit strictly within v.
        assert!(PrefetchPlan::admissible(sol.plan.items().to_vec(), &s).is_ok());
    }

    #[test]
    fn single_item_scenarios() {
        let s = sc(vec![1.0], vec![3.0], 10.0);
        let sol = solve_paper(&s);
        assert_eq!(sol.plan.items(), &[0]);
        assert!((sol.gain - 3.0).abs() < TOL);
    }

    #[test]
    fn empty_scenario() {
        let s = Scenario::new(vec![], vec![], 5.0).unwrap();
        let sol = solve_paper(&s);
        assert!(sol.plan.is_empty());
    }

    #[test]
    fn internal_gain_matches_true_gain_without_backtracked_exclusions() {
        // On scenarios where the greedy forward pass is optimal, the
        // verbatim bookkeeping agrees with the closed form.
        let s = sc(vec![0.5, 0.3, 0.2], vec![2.0, 3.0, 4.0], 100.0);
        let sol = solve_paper(&s);
        assert!((sol.internal_gain - sol.gain).abs() < TOL);
    }

    #[test]
    fn nodes_counted() {
        let s = sc(vec![0.5, 0.3, 0.2], vec![2.0, 3.0, 4.0], 6.0);
        let sol = solve_paper(&s);
        assert!(sol.nodes > 0);
    }
}
