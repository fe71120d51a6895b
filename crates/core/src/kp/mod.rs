//! Classic 0/1 knapsack solvers for the paper's **KP prefetch** baseline.
//!
//! KP prefetch selects items maximising `Σ P_i r_i` subject to
//! `Σ r_i ≤ v` — it never stretches past the viewing time (Section 4.4
//! calls this "the more conservative approach"). Profit of item `i` is its
//! delay profit `P_i r_i`, weight is `r_i`, capacity is `v`; the profit
//! *density* is therefore exactly `P_i`, so the canonical order of Eq. 5 is
//! also the density order required by Dantzig bounds.
//!
//! Three solvers are provided:
//! - [`solve_kp`] — Horowitz–Sahni branch-and-bound (works with real
//!   weights; used by the simulations);
//! - [`dp::solve_kp_dp`] — dynamic program over integer capacities
//!   (cross-check oracle for integral retrieval times);
//! - [`greedy_by_density`] — the linear-time greedy heuristic.

pub mod bb;
pub mod dp;

pub use bb::solve_kp;
pub use dp::solve_kp_dp;

use crate::plan::PrefetchPlan;
use crate::scenario::Scenario;
use crate::skp::order::SortedView;

/// Result of a 0/1 knapsack solver.
#[derive(Debug, Clone, PartialEq)]
pub struct KpSolution {
    /// Selected items in canonical order. As a prefetch plan this never
    /// stretches: `Σ r_i ≤ v`.
    pub plan: PrefetchPlan,
    /// Total profit `Σ_{i∈F} P_i r_i` — also the access improvement
    /// `g*(F)` of the plan, since `st(F) = 0`.
    pub profit: f64,
    /// Branch-and-bound nodes visited (0 for DP/greedy).
    pub nodes: u64,
}

impl KpSolution {
    /// The empty selection.
    pub fn empty() -> Self {
        Self {
            plan: PrefetchPlan::empty(),
            profit: 0.0,
            nodes: 0,
        }
    }
}

/// Greedy selection in density order: take each item that still fits.
/// A 1/2-approximation in general; exact when everything fits.
pub fn greedy_by_density(s: &Scenario) -> KpSolution {
    let view = SortedView::new(s);
    let mut selected = Vec::new();
    let profit = greedy(s.viewing(), &view, &mut selected);
    KpSolution {
        plan: PrefetchPlan::new(view.selectors_to_items(&selected)).expect("unique"),
        profit,
        nodes: 0,
    }
}

/// The greedy pass over `view` with capacity `viewing`: writes one
/// selector per view position into `selected` (cleared first) and
/// returns the selection's profit.
pub(crate) fn greedy(viewing: f64, view: &SortedView, selected: &mut Vec<bool>) -> f64 {
    selected.clear();
    let mut cap = viewing;
    let mut profit = 0.0;
    for j in 0..view.m() {
        let fits = view.r(j) <= cap;
        if fits {
            cap -= view.r(j);
            profit += view.profit(j);
        }
        selected.push(fits);
    }
    profit
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn greedy_takes_all_when_capacity_ample() {
        let s = Scenario::new(vec![0.5, 0.3, 0.2], vec![2.0, 3.0, 4.0], 100.0).unwrap();
        let sol = greedy_by_density(&s);
        assert_eq!(sol.plan.len(), 3);
        assert!((sol.profit - s.expected_no_prefetch()).abs() < TOL);
    }

    #[test]
    fn greedy_never_overflows() {
        let s = Scenario::new(vec![0.4, 0.3, 0.3], vec![6.0, 5.0, 4.0], 10.0).unwrap();
        let sol = greedy_by_density(&s);
        assert!(sol.plan.total_retrieval(&s) <= 10.0 + TOL);
    }

    #[test]
    fn empty_solution() {
        let e = KpSolution::empty();
        assert!(e.plan.is_empty());
        assert_eq!(e.profit, 0.0);
    }
}
