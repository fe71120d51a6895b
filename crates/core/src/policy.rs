//! Prefetch policies: the strategies compared in the paper's evaluation
//! (Section 4.4: *no prefetch*, *KP prefetch*, *SKP prefetch*, *perfect
//! prefetch*) packaged behind one interface.

use crate::kp;
use crate::plan::PrefetchPlan;
use crate::scenario::{ItemId, Scenario};
use crate::skp;

/// A prefetch decision procedure: given the current scenario (and
/// optionally a candidate mask), produce the plan to prefetch during the
/// viewing time.
///
/// `Send + Sync` so boxed policies can be driven from parallel
/// simulation backends (the Monte-Carlo runner fans one policy out
/// across worker threads).
pub trait Prefetcher: Send + Sync {
    /// Short display name used in experiment output.
    fn name(&self) -> &str;

    /// Plan over a subset of prefetchable items (`candidates[i]` false for
    /// items that must not be prefetched, e.g. already cached ones).
    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan;

    /// Plan over all items.
    fn plan(&self, s: &Scenario) -> PrefetchPlan {
        self.plan_candidates(s, &vec![true; s.n()])
    }

    /// Plan over all items of the scenario a sparse next-access row
    /// describes: item `j` has probability `P_j` when `row` holds
    /// `(j, P_j)` and zero otherwise, retrieval time `retrievals[j]`, and
    /// the viewing time is `viewing`. Returns the plan's items in
    /// prefetch order.
    ///
    /// `row` must be merged (one entry per item) and, with `retrievals`
    /// and `viewing`, pass [`Scenario::new`]'s checks. The default builds
    /// that dense scenario and calls [`plan`](Prefetcher::plan); a
    /// policy that can plan from the row itself overrides it and must
    /// return the same items.
    ///
    /// # Panics
    /// The default panics when the dense scenario is invalid.
    fn plan_row(&self, row: &[(ItemId, f64)], retrievals: &[f64], viewing: f64) -> Vec<ItemId> {
        self.plan(&dense_scenario(row, retrievals, viewing))
            .into_items()
    }

    /// True for oracle policies whose plan depends on the *realised*
    /// request: their [`plan_candidates`](Prefetcher::plan_candidates)
    /// returns the empty plan, and drivers that know the request must
    /// consult [`PolicyKind::plan_oracle`] instead.
    fn is_oracle(&self) -> bool {
        false
    }
}

/// The four strategies of the paper's 'prefetch only' evaluation plus the
/// exact/brute solver variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Never prefetch; every access is a demand fetch.
    NoPrefetch,
    /// 0/1-knapsack selection (never stretches) — the paper's *KP prefetch*.
    Kp,
    /// Greedy density-order knapsack heuristic (not in the paper; cheap
    /// baseline for ablations).
    KpGreedy,
    /// The paper's Figure-3 SKP branch-and-bound (verbatim bookkeeping).
    SkpPaper,
    /// Canonical-space SKP with corrected Theorem-3 bookkeeping.
    SkpExact,
    /// Exhaustive SKP optimum (small `n` only) — ground truth.
    SkpOptimal,
    /// Oracle that prefetches exactly the item that will be requested.
    /// [`Prefetcher::plan_candidates`] returns the empty plan; simulators
    /// must consult [`PolicyKind::plan_oracle`] with the realised request.
    Perfect,
}

impl PolicyKind {
    /// All non-oracle solver-backed kinds.
    pub const SOLVERS: [PolicyKind; 5] = [
        PolicyKind::Kp,
        PolicyKind::KpGreedy,
        PolicyKind::SkpPaper,
        PolicyKind::SkpExact,
        PolicyKind::SkpOptimal,
    ];

    /// Oracle plan: prefetch the item that will actually be requested.
    /// Access time is then `max(0, r_α − v)`, the best any one-item
    /// prefetcher can achieve.
    pub fn plan_oracle(s: &Scenario, alpha: ItemId) -> PrefetchPlan {
        let _ = s;
        PrefetchPlan::new(vec![alpha]).expect("single item")
    }
}

impl Prefetcher for PolicyKind {
    fn name(&self) -> &str {
        match self {
            PolicyKind::NoPrefetch => "no prefetch",
            PolicyKind::Kp => "KP prefetch",
            PolicyKind::KpGreedy => "KP greedy",
            PolicyKind::SkpPaper => "SKP prefetch",
            PolicyKind::SkpExact => "SKP exact",
            PolicyKind::SkpOptimal => "SKP optimal",
            PolicyKind::Perfect => "perfect prefetch",
        }
    }

    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan {
        match self {
            PolicyKind::NoPrefetch | PolicyKind::Perfect => PrefetchPlan::empty(),
            PolicyKind::Kp => kp::bb::solve_kp_candidates(s, candidates).plan,
            PolicyKind::KpGreedy => {
                // Greedy over the candidate view.
                let view = skp::order::SortedView::with_candidates(s, candidates);
                let mut cap = s.viewing();
                let mut items = Vec::new();
                for j in 0..view.m() {
                    if view.r(j) <= cap {
                        cap -= view.r(j);
                        items.push(view.id(j));
                    }
                }
                PrefetchPlan::new(items).expect("unique")
            }
            PolicyKind::SkpPaper => skp::solve_paper_candidates(s, candidates).plan,
            PolicyKind::SkpExact => skp::solve_exact_candidates(s, candidates).plan,
            PolicyKind::SkpOptimal => skp::brute::solve_optimal_candidates(s, candidates).plan,
        }
    }

    fn plan(&self, s: &Scenario) -> PrefetchPlan {
        // The SKP solvers need no all-true mask to plan over every item.
        match self {
            PolicyKind::SkpPaper => skp::solve_paper(s).plan,
            PolicyKind::SkpExact => skp::solve_exact(s).plan,
            _ => self.plan_candidates(s, &vec![true; s.n()]),
        }
    }

    fn plan_row(&self, row: &[(ItemId, f64)], retrievals: &[f64], viewing: f64) -> Vec<ItemId> {
        // The SKP solvers search the row's positive entries only: build
        // their view from the row, with no dense scenario in between.
        let view = || skp::SortedView::from_row(row, retrievals, retrievals.len());
        match self {
            PolicyKind::SkpPaper => skp::paper::plan_on_view(viewing, &view()),
            PolicyKind::SkpExact => skp::exact::plan_on_view(viewing, &view()),
            _ => self
                .plan(&dense_scenario(row, retrievals, viewing))
                .into_items(),
        }
    }

    fn is_oracle(&self) -> bool {
        matches!(self, PolicyKind::Perfect)
    }
}

/// The dense scenario of [`Prefetcher::plan_row`]: the row's entries
/// added into a zero vector, as `MarkovChain::row_probs` builds it.
fn dense_scenario(row: &[(ItemId, f64)], retrievals: &[f64], viewing: f64) -> Scenario {
    let mut probs = vec![0.0; retrievals.len()];
    for &(j, p) in row {
        probs[j] += p;
    }
    Scenario::new(probs, retrievals.to_vec(), viewing).expect("plan_row needs a valid scenario")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::gain_empty_cache;

    fn sc() -> Scenario {
        Scenario::new(
            vec![0.3, 0.25, 0.2, 0.15, 0.1],
            vec![7.0, 4.0, 12.0, 2.0, 9.0],
            11.0,
        )
        .unwrap()
    }

    #[test]
    fn names_are_distinct() {
        let kinds = [
            PolicyKind::NoPrefetch,
            PolicyKind::Kp,
            PolicyKind::KpGreedy,
            PolicyKind::SkpPaper,
            PolicyKind::SkpExact,
            PolicyKind::SkpOptimal,
            PolicyKind::Perfect,
        ];
        let names: std::collections::HashSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn no_prefetch_plans_nothing() {
        assert!(PolicyKind::NoPrefetch.plan(&sc()).is_empty());
    }

    #[test]
    fn perfect_oracle_prefetches_the_request() {
        let p = PolicyKind::plan_oracle(&sc(), 3);
        assert_eq!(p.items(), &[3]);
        assert!(PolicyKind::Perfect.plan(&sc()).is_empty());
    }

    #[test]
    fn kp_never_stretches() {
        let s = sc();
        let p = PolicyKind::Kp.plan(&s);
        assert!(p.total_retrieval(&s) <= s.viewing() + 1e-9);
        let p = PolicyKind::KpGreedy.plan(&s);
        assert!(p.total_retrieval(&s) <= s.viewing() + 1e-9);
    }

    #[test]
    fn skp_gains_ordered_by_solver_strength() {
        let s = sc();
        let g_paper = gain_empty_cache(&s, PolicyKind::SkpPaper.plan(&s).items());
        let g_exact = gain_empty_cache(&s, PolicyKind::SkpExact.plan(&s).items());
        let g_opt = gain_empty_cache(&s, PolicyKind::SkpOptimal.plan(&s).items());
        assert!(g_exact >= g_paper - 1e-9);
        assert!(g_opt >= g_exact - 1e-9);
    }

    #[test]
    fn skp_dominates_kp_in_expectation() {
        // KP's solution is feasible for SKP, so the exact SKP gain
        // dominates the KP profit.
        let s = sc();
        let g_kp = gain_empty_cache(&s, PolicyKind::Kp.plan(&s).items());
        let g_skp = gain_empty_cache(&s, PolicyKind::SkpOptimal.plan(&s).items());
        assert!(g_skp >= g_kp - 1e-9);
    }

    #[test]
    fn candidate_mask_respected_by_all() {
        let s = sc();
        let mask = vec![true, false, true, false, true];
        for k in PolicyKind::SOLVERS {
            let p = k.plan_candidates(&s, &mask);
            assert!(
                !p.contains(1) && !p.contains(3),
                "{} violated the mask: {:?}",
                k.name(),
                p
            );
        }
    }

    #[test]
    fn plan_equals_plan_over_the_all_true_mask() {
        let s = sc();
        let all = vec![true; s.n()];
        for k in PolicyKind::SOLVERS {
            assert_eq!(k.plan(&s), k.plan_candidates(&s, &all), "{}", k.name());
        }
    }

    #[test]
    #[should_panic(expected = "candidate mask length")]
    fn masked_skp_plan_checks_mask_length() {
        let _ = PolicyKind::SkpExact.plan_candidates(&sc(), &[true]);
    }
}
