//! Canonical-order branch-and-bound with **corrected** Theorem-3
//! bookkeeping.
//!
//! Identical search to the paper's Figure 3, but the incremental gain of a
//! stretch insertion uses the true uncovered probability mass
//! `1 − Σ_{i∈K} P_i` (Theorem 3) instead of the suffix mass `Σ_{i≥j} P_i`
//! printed in the pseudocode. The two coincide until a backtrack excludes
//! an item before position `j`; from then on the verbatim rule
//! under-prices the stretch penalty. This solver is exact over the
//! canonical search space of Theorem 1 (subsets of the canonical order
//! with the minimum-probability selected item last).
//!
//! Note: the *global* SKP optimum can occasionally live outside that space
//! — when the minimum-probability item of the optimal subset cannot
//! feasibly go last (its retrieval time does not exceed the stretch), the
//! optimal order ends on a different item. Theorem 1's swap argument
//! ignores that feasibility constraint. [`crate::skp::brute`] searches the
//! full space and is the ground-truth oracle in tests; the experiments in
//! `EXPERIMENTS.md` quantify how rarely the spaces differ.
//!
//! The uncovered mass is clamped at zero, `(1 − Σ_{i∈K} P_i).max(0)`, by
//! [`crate::gain::penalty_mass`]: when the included mass rounds above
//! 1, an unclamped penalty turns negative and a zero-probability item
//! would "gain" by stretching. With the clamp a zero-probability item
//! never enters a plan, so [`solve_exact`] and the row solve of
//! `skp-exact` search the trimmed view of [`SortedView::positive`] (or
//! [`SortedView::from_row`]) and return the plan, `gain` and
//! `internal_gain` the full view would, bit for bit;
//! [`SkpSolution::nodes`] counts forward steps over the positive-probability
//! candidates only. [`solve_generalized`] searches whatever view it is
//! given and tests "if j < n goto 2" against
//! [`SortedView::candidate_count`].
//!
//! The search itself needs only the viewing time, the view, the profits,
//! `λ` and its clamped-profit and selector buffers. The
//! `Scenario`-taking entry points wrap it and recompute the closed-form
//! gain; a row solve in a [`SolveScratch`](crate::skp::SolveScratch)
//! writes the plan's items alone, for a view built from a sparse row
//! ([`SortedView::from_row`]) with no scenario at hand, in buffers the
//! caller keeps.

use crate::gain::penalty_mass;
use crate::scenario::Scenario;
use crate::skp::order::SortedView;
use crate::skp::paper::finish;
use crate::skp::{Selectors, SkpSolution};

/// Solves SKP over all items with corrected incremental bookkeeping.
pub fn solve_exact(s: &Scenario) -> SkpSolution {
    let view = SortedView::positive(s, None);
    solve_on_view(s, &view)
}

/// Corrected solver over a pre-sorted candidate view.
///
/// The stretch penalty is priced against the full uncovered mass
/// `1 − Σ_{i∈K} P_i`, where the total mass is taken as 1 even when the view
/// covers only part of it (probability outside the view also waits out the
/// stretch; see the Section-5 derivation).
pub fn solve_on_view(s: &Scenario, view: &SortedView) -> SkpSolution {
    let mut profits = Vec::new();
    write_profits(view, &mut profits);
    solve_generalized(s, view, &profits, 0.0)
}

/// Plain SKP's profits, written into `profits` (cleared first): the
/// delay profit `P·r` of each view position.
pub(crate) fn write_profits(view: &SortedView, profits: &mut Vec<f64>) {
    profits.clear();
    profits.extend((0..view.m()).map(|j| view.profit(j)));
}

/// Generalised corrected branch-and-bound used by the exact solver and the
/// extension objectives of [`crate::ext`].
///
/// Maximises `Σ_{i∈F} profit_i − (1 − Σ_{i∈K} P_i + λ) · st(F)` over the
/// canonical search space, where `profits[j]` is the value of the item at
/// sorted position `j` and `λ ≥ 0` is an extra per-unit stretch penalty
/// (the lookahead extension's shadow price for intruding into the next
/// viewing window; `λ = 0` recovers plain SKP).
///
/// Requirements for the bound to stay admissible: `profits[j] ≤ P_j·r_j`
/// element-wise (the default and every extension objective satisfy this)
/// and profits must be non-increasing in density `profits[j]/r_j` along the
/// view order — true for canonical order whenever the density is a
/// monotone transform of `P_j`.
pub fn solve_generalized(
    s: &Scenario,
    view: &SortedView,
    profits: &[f64],
    lambda: f64,
) -> SkpSolution {
    let (mut clamped, mut x) = (Vec::new(), Selectors::default());
    let (best_g, nodes) = search(s.viewing(), view, profits, lambda, &mut clamped, &mut x);
    finish(s, view, &x.best, best_g, nodes)
}

/// The corrected search: leaves the best plan's selectors over the
/// view's positions in `x.best` and returns its internal gain and the
/// number of forward steps. An empty view gives empty selectors.
/// `clamped` is working space for the bound's profits.
pub(crate) fn search(
    viewing: f64,
    view: &SortedView,
    profits: &[f64],
    lambda: f64,
    clamped: &mut Vec<f64>,
    x: &mut Selectors,
) -> (f64, u64) {
    let m = view.m();
    let n = view.candidate_count();
    assert_eq!(profits.len(), m, "one profit per candidate");
    x.reset(m);
    if m == 0 {
        return (0.0, 0);
    }

    // Suffix Dantzig bound over the generalised profits (items with
    // non-positive profit contribute nothing, so clamp at zero).
    clamped.clear();
    clamped.extend(profits.iter().map(|&p| p.max(0.0)));

    let Selectors {
        best: best_x,
        cur: cur_x,
    } = x;
    let mut best_g = 0.0_f64;
    let mut cur_g = 0.0_f64;
    let mut included_mass = 0.0_f64; // Σ_{i∈K} P_i over included items
    let mut cap = viewing;
    let mut j = 0usize;
    let mut nodes = 0u64;

    'step2: loop {
        let u = dantzig_generalized(view, clamped, j, cap);
        if best_g >= cur_g + u {
            if !backtrack(
                view,
                profits,
                cur_x,
                &mut cur_g,
                &mut included_mass,
                &mut cap,
                &mut j,
                lambda,
            ) {
                break 'step2;
            }
            continue 'step2;
        }

        while j < m && cap > 0.0 {
            nodes += 1;
            let over = (view.r(j) - cap).max(0.0);
            // Theorem 3: δ = profit_z − ((1 − Σ_{i∈K} P_i)⁺ + λ) · st.
            let delta = profits[j] - (penalty_mass(included_mass) + lambda) * over;
            if delta <= 0.0 {
                cur_x[j] = false;
                j += 1;
                // "if j < n goto 2", n counting dropped candidates too.
                if j < n - 1 {
                    continue 'step2;
                }
            } else {
                cap -= view.r(j);
                cur_g += delta;
                included_mass += view.p(j);
                cur_x[j] = true;
                j += 1;
            }
        }

        if cur_g > best_g {
            best_g = cur_g;
            best_x.copy_from_slice(cur_x);
        }

        if !backtrack(
            view,
            profits,
            cur_x,
            &mut cur_g,
            &mut included_mass,
            &mut cap,
            &mut j,
            lambda,
        ) {
            break 'step2;
        }
    }

    (best_g, nodes)
}

/// Dantzig residual bound over arbitrary (clamped non-negative) profits.
fn dantzig_generalized(view: &SortedView, profits: &[f64], start: usize, capacity: f64) -> f64 {
    if capacity <= 0.0 {
        return 0.0;
    }
    let mut cap = capacity;
    let mut u = 0.0;
    for (j, &profit) in profits
        .iter()
        .enumerate()
        .skip(start)
        .take(view.m() - start)
    {
        if view.r(j) > cap {
            return u + cap * (profit / view.r(j));
        }
        u += profit;
        cap -= view.r(j);
    }
    u
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    view: &SortedView,
    profits: &[f64],
    cur_x: &mut [bool],
    cur_g: &mut f64,
    included_mass: &mut f64,
    cap: &mut f64,
    j: &mut usize,
    lambda: f64,
) -> bool {
    let Some(k) = (0..*j).rev().find(|&k| cur_x[k]) else {
        return false;
    };
    cur_x[k] = false;
    *cap += view.r(k);
    *included_mass -= view.p(k);
    let over = (view.r(k) - *cap).max(0.0);
    let delta = profits[k] - (penalty_mass(*included_mass) + lambda) * over;
    *cur_g -= delta;
    *j = k + 1;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::gain_empty_cache;
    use crate::skp::bound::upper_bound;
    use crate::skp::solve_paper;

    const TOL: f64 = 1e-9;

    fn sc(p: Vec<f64>, r: Vec<f64>, v: f64) -> Scenario {
        Scenario::new(p, r, v).unwrap()
    }

    #[test]
    fn internal_gain_always_equals_true_gain() {
        // The corrected bookkeeping must agree with the closed form on the
        // returned plan — including branches that required backtracking.
        let cases = [
            sc(vec![0.5, 0.3, 0.2], vec![8.0, 6.0, 9.0], 10.0),
            sc(
                vec![0.3, 0.25, 0.2, 0.15, 0.1],
                vec![7.0, 4.0, 12.0, 2.0, 9.0],
                11.0,
            ),
            sc(vec![0.4, 0.3, 0.2, 0.1], vec![10.0, 10.0, 10.0, 10.0], 15.0),
        ];
        for s in cases {
            let sol = solve_exact(&s);
            assert!(
                (sol.internal_gain - sol.gain).abs() < TOL,
                "internal {} vs true {}",
                sol.internal_gain,
                sol.gain
            );
        }
    }

    #[test]
    fn uncovered_mass_is_clamped_at_zero() {
        // P = (4,3,3,3,0)/13 sums to 1.0000000000000002: once items 0–3
        // are in, an unclamped uncovered mass is negative and the
        // zero-probability item 4 "gains" by stretching past v.
        let p: Vec<f64> = [4.0, 3.0, 3.0, 3.0, 0.0].iter().map(|c| c / 13.0).collect();
        assert!(p.iter().sum::<f64>() > 1.0);
        let s = sc(p, vec![1.0, 1.0, 1.0, 1.0, 5.0], 6.0);
        let sol = solve_exact(&s);
        assert_eq!(sol.plan.items(), &[0, 1, 2, 3]);
        assert_eq!(sol.internal_gain, sol.gain);
        let view = SortedView::new(&s);
        let full = solve_on_view(&s, &view);
        assert_eq!(full.plan.items(), &[0, 1, 2, 3]);
        assert_eq!(full.internal_gain, full.gain);
    }

    #[test]
    fn matches_paper_solver_when_no_exclusions_occur() {
        // With ample capacity the greedy forward pass includes everything
        // and the two bookkeepings coincide.
        let s = sc(vec![0.5, 0.3, 0.2], vec![2.0, 3.0, 4.0], 100.0);
        let a = solve_exact(&s);
        let b = solve_paper(&s);
        assert!((a.gain - b.gain).abs() < TOL);
        assert_eq!(a.plan.items(), b.plan.items());
    }

    #[test]
    fn paper_suffix_mass_bug_reproduced() {
        // On (P, r, v) = ((.5,.3,.2), (8,6,9), 10) the verbatim Figure-3
        // rule prices item 2's stretch with suffix mass 0.2 instead of the
        // true uncovered mass 0.5 (item 1 was excluded, not included), so
        // it adds item 2 for an *internal* gain of 4.4 while the plan's
        // true gain is only 2.3; the corrected solver keeps {0} at 4.0.
        // This very mispricing is visible in the paper's own Figure 5a,
        // where SKP prefetch dips below "no prefetch" at small v.
        let s = sc(vec![0.5, 0.3, 0.2], vec![8.0, 6.0, 9.0], 10.0);
        let paper = solve_paper(&s);
        let exact = solve_exact(&s);
        assert_eq!(paper.plan.items(), &[0, 2]);
        assert!((paper.internal_gain - 4.4).abs() < TOL);
        assert!((paper.gain - 2.3).abs() < TOL);
        assert_eq!(exact.plan.items(), &[0]);
        assert!((exact.gain - 4.0).abs() < TOL);
    }

    #[test]
    fn never_worse_than_paper_solver() {
        // The corrected solver maximises the true objective over the same
        // space, so its true gain dominates the paper solver's true gain.
        let cases = [
            sc(
                vec![0.35, 0.25, 0.2, 0.1, 0.1],
                vec![9.0, 8.0, 11.0, 3.0, 2.0],
                12.0,
            ),
            sc(
                vec![0.3, 0.3, 0.2, 0.1, 0.05, 0.05],
                vec![14.0, 5.0, 9.0, 6.0, 2.0, 30.0],
                16.0,
            ),
        ];
        for s in cases {
            let a = solve_exact(&s);
            let b = solve_paper(&s);
            assert!(
                a.gain >= b.gain - TOL,
                "exact {} < paper {}",
                a.gain,
                b.gain
            );
        }
    }

    #[test]
    fn respects_upper_bound() {
        let s = sc(
            vec![0.3, 0.25, 0.2, 0.15, 0.1],
            vec![7.0, 4.0, 12.0, 2.0, 9.0],
            11.0,
        );
        let sol = solve_exact(&s);
        assert!(sol.gain <= upper_bound(&s) + TOL);
        assert!(sol.gain >= 0.0 - TOL);
    }

    #[test]
    fn empty_and_singleton() {
        let s = Scenario::new(vec![], vec![], 4.0).unwrap();
        assert!(solve_exact(&s).plan.is_empty());
        let s = sc(vec![1.0], vec![2.0], 4.0);
        assert_eq!(solve_exact(&s).plan.items(), &[0]);
    }

    #[test]
    fn gain_formula_cross_check() {
        let s = sc(
            vec![0.25, 0.2, 0.2, 0.15, 0.1, 0.1],
            vec![4.0, 9.0, 2.0, 7.0, 3.0, 11.0],
            12.0,
        );
        let sol = solve_exact(&s);
        let g = gain_empty_cache(&s, sol.plan.items());
        assert!((g - sol.gain).abs() < TOL);
    }
}
