//! Prefetch policies: the strategies compared in the paper's evaluation
//! (Section 4.4: *no prefetch*, *KP prefetch*, *SKP prefetch*, *perfect
//! prefetch*) packaged behind one interface.

use crate::plan::PrefetchPlan;
use crate::scenario::{ItemId, Scenario};
use crate::skp::SolveScratch;

/// A prefetch decision procedure: given the current scenario (and
/// optionally a candidate mask), produce the plan to prefetch during the
/// viewing time.
///
/// Three methods plan. [`plan_candidates`](Prefetcher::plan_candidates)
/// is the one a policy must implement; [`plan`](Prefetcher::plan) plans
/// over every item through it, and
/// [`plan_row_into`](Prefetcher::plan_row_into) plans from a sparse row,
/// by default on the dense scenario through the other two.
/// [`PolicyKind`] turns this round: it plans every kind from the row, and
/// its `plan_candidates` hands the scenario's row to `plan_row_into`.
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

    /// Plan from a sparse next-access row into `plan` (cleared first),
    /// the items in prefetch order: item `j` has probability `P_j` when
    /// `row` holds `(j, P_j)` and zero otherwise, and `basis` gives the
    /// rest of the scenario and the candidates (see [`RowBasis`]).
    /// `scratch` holds the solve's working buffers between calls.
    ///
    /// `row` must be merged (one entry per item) and, with the basis,
    /// describe a scenario that passes [`Scenario::new`]'s checks. The
    /// default plans on the dense scenario — the basis's own, or one
    /// built from the row — through [`plan`](Prefetcher::plan) or
    /// [`plan_candidates`](Prefetcher::plan_candidates). [`PolicyKind`]
    /// overrides it and plans every kind from the row in `scratch`, so a
    /// round whose solve fits in its buffers allocates nothing.
    ///
    /// # Panics
    /// The default panics when the scenario built from a
    /// [`RowBasis::Catalog`] row is invalid.
    fn plan_row_into(
        &self,
        row: &[(ItemId, f64)],
        basis: RowBasis<'_>,
        scratch: &mut SolveScratch,
        plan: &mut Vec<ItemId>,
    ) {
        let _ = scratch;
        let dense = match basis {
            RowBasis::Catalog {
                retrievals,
                viewing,
            } => self.plan(&dense_scenario(row, retrievals, viewing)),
            RowBasis::Dense {
                scenario,
                candidates: None,
            } => self.plan(scenario),
            RowBasis::Dense {
                scenario,
                candidates: Some(mask),
            } => self.plan_candidates(scenario, mask),
        };
        plan.clear();
        plan.extend_from_slice(dense.items());
    }

    /// True for oracle policies whose plan depends on the *realised*
    /// request: their [`plan_candidates`](Prefetcher::plan_candidates)
    /// returns the empty plan, and drivers that know the request
    /// prefetch that request itself instead (the round planner,
    /// `cache_sim::RoundScratch::plan`, does).
    fn is_oracle(&self) -> bool {
        false
    }
}

/// The scenario around a sparse row handed to
/// [`Prefetcher::plan_row_into`]. A solver that can plan a
/// zero-probability item reads the zeros off a dense basis's scenario,
/// and adds a catalog row into zeros (`0.0 + P`), so `-0.0` entries
/// order as they do in the dense scenario.
#[derive(Debug, Clone, Copy)]
pub enum RowBasis<'a> {
    /// No dense scenario exists: item `j` takes `retrievals[j]`, the
    /// viewing time is `viewing`, and every item is a candidate (the
    /// population planner's per-state rows).
    Catalog {
        /// Retrieval time of every item.
        retrievals: &'a [f64],
        /// The viewing time.
        viewing: f64,
    },
    /// The dense scenario whose probabilities are the row's entries,
    /// zero elsewhere, with the candidates to plan over: `None` plans
    /// like [`Prefetcher::plan`], a mask like
    /// [`Prefetcher::plan_candidates`] (the Section-5 client's
    /// non-cached items).
    Dense {
        /// The scenario the row was taken from.
        scenario: &'a Scenario,
        /// Which items may be prefetched, when not all of them.
        candidates: Option<&'a [bool]>,
    },
}

impl<'a> RowBasis<'a> {
    /// The retrieval time of every item, the candidate mask (`None` when
    /// every item is a candidate) and the viewing time.
    pub(crate) fn parts(self) -> (&'a [f64], Option<&'a [bool]>, f64) {
        match self {
            RowBasis::Catalog {
                retrievals,
                viewing,
            } => (retrievals, None, viewing),
            RowBasis::Dense {
                scenario,
                candidates,
            } => (scenario.retrievals(), candidates, scenario.viewing()),
        }
    }
}

/// Writes the row of a dense probability vector into `row` (cleared
/// first): every entry other than `+0.0`, in ascending item order, bits
/// kept.
pub fn dense_row(probs: &[f64], row: &mut Vec<(ItemId, f64)>) {
    row.clear();
    row.extend(
        probs
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, p)| p.to_bits() != 0),
    );
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
    /// Oracle that prefetches exactly the item that will be requested,
    /// so its access time is `max(0, r_α − v)`, the best any one-item
    /// prefetcher can achieve. [`Prefetcher::plan_candidates`] returns
    /// the empty plan; simulators prefetch the realised request instead
    /// (see [`Prefetcher::is_oracle`]).
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

    /// Plans the scenario's row ([`dense_row`]) on its dense basis
    /// through [`plan_row_into`](Prefetcher::plan_row_into).
    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan {
        let mut row = Vec::new();
        dense_row(s.probs(), &mut row);
        let basis = RowBasis::Dense {
            scenario: s,
            candidates: Some(candidates),
        };
        let mut plan = Vec::new();
        self.plan_row_into(&row, basis, &mut SolveScratch::default(), &mut plan);
        PrefetchPlan::new(plan).expect("a solve plans each item once")
    }

    fn plan_row_into(
        &self,
        row: &[(ItemId, f64)],
        basis: RowBasis<'_>,
        scratch: &mut SolveScratch,
        plan: &mut Vec<ItemId>,
    ) {
        scratch.plan(*self, row, basis, plan);
    }

    fn is_oracle(&self) -> bool {
        matches!(self, PolicyKind::Perfect)
    }
}

/// The dense scenario of a [`RowBasis::Catalog`] row: the row's entries
/// added into a zero vector, as `MarkovChain::row_probs` builds it.
fn dense_scenario(row: &[(ItemId, f64)], retrievals: &[f64], viewing: f64) -> Scenario {
    let mut probs = vec![0.0; retrievals.len()];
    for &(j, p) in row {
        probs[j] += p;
    }
    Scenario::new(probs, retrievals.to_vec(), viewing).expect("a row plan needs a valid scenario")
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
        assert!(PolicyKind::Perfect.is_oracle());
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
