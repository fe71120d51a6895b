//! The stretch knapsack problem (SKP) and its solvers (Section 4).
//!
//! SKP asks for the prefetch plan `F` maximising the access improvement
//! `g*(F)` of Eq. 3. It resembles a 0/1 knapsack with profit `P_i r_i`,
//! weight `r_i` and capacity `v`, except that the knapsack may *stretch*:
//! the last inserted item may overrun the capacity at a cost proportional
//! to the overrun (Eq. 2).
//!
//! Solvers provided:
//!
//! - [`solve_paper`] — the branch-and-bound of the paper's **Figure 3**,
//!   implemented verbatim (including its incremental-gain bookkeeping that
//!   prices the stretch penalty with the *suffix* probability mass
//!   `Σ_{i≥j} P_i`, which ignores items excluded by earlier backtracking);
//! - [`solve_exact`] — the same canonical-order branch-and-bound with the
//!   corrected Theorem-3 bookkeeping (`1 − Σ_{i∈K} P_i`), exact over the
//!   canonical search space of Theorem 1;
//! - [`brute::solve_optimal`] — exhaustive search over all subsets with
//!   optimal choice of the stretching item, the ground-truth oracle (the
//!   canonical space can miss optima whose minimum-probability item cannot
//!   feasibly go last; see `brute` docs);
//! - [`bound::upper_bound`] — the tight upper bound `U_g` of Eq. 7
//!   obtained from the linear relaxation (Theorem 2 / Dantzig's rule).
//!
//! All solvers sort items into the canonical order of Eq. 5 (probability
//! descending, ties by retrieval ascending) per Theorem 1. The two
//! branch-and-bound solvers sort only the positive-probability candidates
//! ([`SortedView::positive`]): a zero-probability item never enters their
//! plans. From a sparse next-access row they build that view straight
//! from the row's entries (as [`SortedView::from_row`] does); KP, the
//! greedy heuristic and brute force build their full view from the
//! row's dense probabilities. Every row solve writes the plan's items
//! into a caller buffer. A [`SolveScratch`] keeps the view and the
//! search's buffers between such solves, so a solve that fits in them
//! allocates nothing
//! ([`Prefetcher::plan_row_into`](crate::policy::Prefetcher::plan_row_into)).
//!
//! ```
//! use skp_core::{Scenario, skp};
//!
//! // P = (.5, .3, .2), r = (8, 6, 9), v = 10 — the suffix-mass-bug
//! // instance discussed in EXPERIMENTS.md.
//! let s = Scenario::new(vec![0.5, 0.3, 0.2], vec![8.0, 6.0, 9.0], 10.0)?;
//! let paper = skp::solve_paper(&s);    // verbatim Figure 3: picks {0, 2}
//! let exact = skp::solve_exact(&s);    // corrected: picks {0}
//! assert!(exact.gain > paper.gain);
//! assert!(exact.gain <= skp::upper_bound(&s) + 1e-9);
//! # Ok::<(), skp_core::ModelError>(())
//! ```

pub mod bound;
pub mod brute;
pub mod exact;
pub mod global;
pub mod order;
pub mod paper;

pub use bound::{linear_relaxation, upper_bound, LinearSolution};
pub use brute::solve_optimal;
pub use exact::solve_exact;
pub use global::{global_applicable, solve_global};
pub use order::SortedView;
pub use paper::solve_paper;

use crate::kp;
use crate::plan::PrefetchPlan;
use crate::policy::{PolicyKind, RowBasis};
use crate::scenario::ItemId;

/// Result of an SKP solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SkpSolution {
    /// The selected prefetch plan, items in canonical prefetch order
    /// (the minimum-probability item last, per Theorem 1).
    pub plan: PrefetchPlan,
    /// The true access improvement `g*(plan)` of Eq. 3, recomputed from the
    /// closed form (for [`solve_paper`] this can differ from the solver's
    /// internal incremental value; see module docs).
    pub gain: f64,
    /// The solver's internal objective value for the returned plan. Equal to
    /// [`Self::gain`] for the exact solvers; may exceed it for the verbatim
    /// Figure-3 solver on backtracked branches.
    pub internal_gain: f64,
    /// Number of branch-and-bound nodes visited (forward steps), a measure
    /// of search effort; `0` for brute force. [`solve_paper`] and
    /// [`solve_exact`] step over positive-probability candidates only.
    pub nodes: u64,
}

impl SkpSolution {
    /// An empty (do-nothing) solution with zero gain.
    pub fn empty() -> Self {
        Self {
            plan: PrefetchPlan::empty(),
            gain: 0.0,
            internal_gain: 0.0,
            nodes: 0,
        }
    }
}

/// The buffers of a row solve, kept by the caller between solves: the
/// sorted view (its entries and suffix masses), a catalog row's dense
/// probabilities, the profits and clamped profits of the corrected
/// search, and the best and current selectors. Each solve clears and
/// refills them, so results never depend on what an earlier solve left.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    view: SortedView,
    probs: Vec<f64>,
    profits: Vec<f64>,
    clamped: Vec<f64>,
    selectors: Selectors,
}

impl SolveScratch {
    /// `kind`'s plan of the sparse row `row` on `basis`, written into
    /// `plan` (cleared first) in prefetch order: the items its solver
    /// returns on the dense scenario. The two branch-and-bound SKP
    /// solvers search the row's positive candidate entries
    /// ([`SortedView::from_row`]). KP, the greedy pass and brute force
    /// search the full candidate view of [`full_probs`].
    ///
    /// # Panics
    /// As [`SortedView::from_row`], and as [`brute::solve_on_view`].
    pub(crate) fn plan(
        &mut self,
        kind: PolicyKind,
        row: &[(ItemId, f64)],
        basis: RowBasis<'_>,
        plan: &mut Vec<ItemId>,
    ) {
        let (retrievals, candidates, v) = basis.parts();
        let (view, x) = (&mut self.view, &mut self.selectors);
        let positive = |view: &mut SortedView| {
            view.refill_positive(row.iter().copied(), retrievals, candidates)
        };
        let mut full = |view: &mut SortedView| {
            view.refill_full(
                full_probs(row, basis, &mut self.probs),
                retrievals,
                candidates,
            )
        };
        match kind {
            PolicyKind::NoPrefetch | PolicyKind::Perfect => return plan.clear(),
            PolicyKind::SkpPaper => {
                positive(view);
                paper::search(v, view, x);
            }
            PolicyKind::SkpExact => {
                positive(view);
                exact::write_profits(view, &mut self.profits);
                exact::search(v, view, &self.profits, 0.0, &mut self.clamped, x);
            }
            PolicyKind::Kp => {
                full(view);
                kp::bb::search(v, view, x);
            }
            PolicyKind::KpGreedy => {
                full(view);
                kp::greedy(v, view, &mut x.best);
            }
            PolicyKind::SkpOptimal => {
                full(view);
                brute::search(v, view, plan);
                return plan.iter_mut().for_each(|j| *j = view.id(*j));
            }
        }
        view.write_items(&x.best, plan);
    }
}

/// The dense probabilities of the full candidate view of `row` on
/// `basis`: the row's entries and a zero for every other item. The zeros
/// carry the dense scenario's sign, since the canonical order puts
/// `+0.0` before `-0.0`: a dense basis's own probabilities, or a catalog
/// row added into zeros in `probs`, as `MarkovChain::row_probs` adds it
/// (`0.0 + P`).
fn full_probs<'a>(
    row: &[(ItemId, f64)],
    basis: RowBasis<'a>,
    probs: &'a mut Vec<f64>,
) -> &'a [f64] {
    match basis {
        RowBasis::Dense { scenario, .. } => scenario.probs(),
        RowBasis::Catalog { retrievals, .. } => {
            probs.clear();
            probs.resize(retrievals.len(), 0.0);
            for &(j, p) in row {
                probs[j] += p;
            }
            probs
        }
    }
}

/// The best and the current item selectors of one branch-and-bound
/// search, one per view position.
#[derive(Debug, Clone, Default)]
pub(crate) struct Selectors {
    pub(crate) best: Vec<bool>,
    pub(crate) cur: Vec<bool>,
}

impl Selectors {
    /// `m` unselected positions in each.
    pub(crate) fn reset(&mut self, m: usize) {
        for x in [&mut self.best, &mut self.cur] {
            x.clear();
            x.resize(m, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn empty_solution_is_empty() {
        let e = SkpSolution::empty();
        assert!(e.plan.is_empty());
        assert_eq!(e.gain, 0.0);
    }

    #[test]
    fn candidate_restriction_excludes_items() {
        let s = Scenario::new(vec![0.6, 0.4], vec![5.0, 5.0], 20.0).unwrap();
        let view = SortedView::positive(&s, Some(&[false, true]));
        let sol = paper::solve_on_view(&s, &view);
        assert!(!sol.plan.contains(0));
        assert!(sol.plan.contains(1));
        let sol = exact::solve_on_view(&s, &view);
        assert!(!sol.plan.contains(0));
    }

    #[test]
    fn no_candidates_gives_empty_plan() {
        let s = Scenario::new(vec![0.6, 0.4], vec![5.0, 5.0], 20.0).unwrap();
        let sol = paper::solve_on_view(&s, &SortedView::positive(&s, Some(&[false, false])));
        assert!(sol.plan.is_empty());
        assert_eq!(sol.gain, 0.0);
    }
}
