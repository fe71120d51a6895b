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
//! from the row's entries ([`SortedView::from_row`]) and return the plan's
//! items through [`paper::plan_on_view`] and [`exact::plan_on_view`].
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

use crate::plan::PrefetchPlan;
use crate::scenario::Scenario;

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

/// Convenience: solve SKP restricted to candidate items (those for which
/// `candidates[i]` is true), as required by the Section-5 integration where
/// cached items must not be prefetched again. Uses the paper's solver.
///
/// # Panics
/// Panics when `candidates.len() != s.n()`.
pub fn solve_paper_candidates(s: &Scenario, candidates: &[bool]) -> SkpSolution {
    let view = SortedView::positive(s, Some(candidates));
    paper::solve_on_view(s, &view)
}

/// [`solve_exact`] restricted to candidate items.
///
/// # Panics
/// Panics when `candidates.len() != s.n()`.
pub fn solve_exact_candidates(s: &Scenario, candidates: &[bool]) -> SkpSolution {
    let view = SortedView::positive(s, Some(candidates));
    exact::solve_on_view(s, &view)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_solution_is_empty() {
        let e = SkpSolution::empty();
        assert!(e.plan.is_empty());
        assert_eq!(e.gain, 0.0);
    }

    #[test]
    fn candidate_restriction_excludes_items() {
        let s = Scenario::new(vec![0.6, 0.4], vec![5.0, 5.0], 20.0).unwrap();
        let sol = solve_paper_candidates(&s, &[false, true]);
        assert!(!sol.plan.contains(0));
        assert!(sol.plan.contains(1));
        let sol = solve_exact_candidates(&s, &[false, true]);
        assert!(!sol.plan.contains(0));
    }

    #[test]
    fn no_candidates_gives_empty_plan() {
        let s = Scenario::new(vec![0.6, 0.4], vec![5.0, 5.0], 20.0).unwrap();
        let sol = solve_paper_candidates(&s, &[false, false]);
        assert!(sol.plan.is_empty());
        assert_eq!(sol.gain, 0.0);
    }
}
