//! The 'prefetch only' simulation of Section 4.4 (Figures 4 and 5).
//!
//! "In the 'prefetch only' simulation the cache is used only for
//! prefetching items. Once a request is satisfied the cache is flushed
//! out. The simulation consists of running 50,000 iterations through the
//! following steps: 1) generate `n, P, r` and `v` randomly, 2) prefetch,
//! 3) generate a random request, 4) calculate access time, 5) output `v`
//! and `T`."
//!
//! [`sample_chunk`] runs those steps for a chunk of iterations, for the
//! facade engine's Monte-Carlo workload (one policy) and for
//! [`PrefetchOnlySim`] (all policies on the *same* scenario/request
//! draws: a paired comparison). Chunks fan out over threads
//! deterministically, and each policy accumulates a `v`-binned mean
//! (Figure 5) plus the first `scatter_cap` raw `(v, T)` samples (Figure
//! 4 plots 500 of them).

use cache_sim::RoundScratch;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use skp_core::gain::access_time_empty;
use skp_core::policy::{dense_row, PolicyKind, Prefetcher};
use skp_core::Scenario;

use crate::parallel::{default_threads, par_monte_carlo};
use crate::scenario_gen::ScenarioGen;
use crate::stats::{BinnedMeans, RunningStats};

/// One raw observation: viewing time and the access time that resulted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Viewing time `v` of the iteration.
    pub v: f64,
    /// Access time `T` for the policy.
    pub t: f64,
}

/// Accumulated results for one policy.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// The policy evaluated.
    pub policy: PolicyKind,
    /// Mean access time binned by integer `v` (the Figure-5 series).
    pub binned: BinnedMeans,
    /// Overall access-time statistics.
    pub overall: RunningStats,
    /// The first `scatter_cap` raw samples (the Figure-4 scatter).
    pub scatter: Vec<Sample>,
}

/// The 'prefetch only' experiment.
///
/// ```
/// use montecarlo::prefetch_only::PrefetchOnlySim;
/// use montecarlo::probgen::ProbMethod;
/// use montecarlo::scenario_gen::ScenarioGen;
/// use skp_core::policy::PolicyKind;
///
/// let sim = PrefetchOnlySim {
///     gen: ScenarioGen::paper(10, ProbMethod::skewy()),
///     iterations: 500,
///     seed: 1999,
///     threads: 1,
///     chunks: 4,
/// };
/// let results = sim.run(&[PolicyKind::NoPrefetch, PolicyKind::SkpExact], 0);
/// // SKP never loses to no-prefetch in expectation.
/// assert!(results[1].overall.mean() <= results[0].overall.mean());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PrefetchOnlySim {
    /// Scenario generator (n, ranges, probability method).
    pub gen: ScenarioGen,
    /// Number of iterations (the paper uses 50,000).
    pub iterations: u64,
    /// Root seed; the run is a pure function of it.
    pub seed: u64,
    /// Worker threads (0 = auto). Never affects results.
    pub threads: usize,
    /// Parallel chunks (0 = a fixed default of 64). The chunk count
    /// defines the derived RNG streams, so it is part of the experiment's
    /// identity: keep it fixed when comparing runs, vary `threads` freely.
    pub chunks: usize,
}

impl PrefetchOnlySim {
    /// Runs the simulation for a set of policies, keeping at most
    /// `scatter_cap` raw samples per policy.
    pub fn run(&self, policies: &[PolicyKind], scatter_cap: usize) -> Vec<PolicyResult> {
        let threads = if self.threads == 0 {
            default_threads(self.iterations as usize)
        } else {
            self.threads
        };
        // A fixed default chunk count keeps the derived RNG streams — and
        // therefore the results — independent of the machine's core count.
        let chunks = if self.chunks == 0 { 64 } else { self.chunks };
        let (v_lo, v_hi) = self.gen.v_range;
        let empty = || -> Vec<PolicyResult> {
            policies
                .iter()
                .map(|&policy| PolicyResult {
                    policy,
                    binned: BinnedMeans::new(v_lo as i64, v_hi as i64),
                    overall: RunningStats::new(),
                    scatter: Vec::new(),
                })
                .collect()
        };
        let planners: Vec<&dyn Prefetcher> = policies.iter().map(|p| p as _).collect();

        let merged = par_monte_carlo(
            self.iterations,
            chunks,
            self.seed,
            threads,
            |chunk_seed, iters| {
                let mut out = empty();
                sample_chunk(&self.gen, &planners, chunk_seed, iters, |k, s, _, t| {
                    let res = &mut out[k];
                    res.binned.push(s.viewing(), t);
                    res.overall.push(t);
                    if res.scatter.len() < scatter_cap {
                        res.scatter.push(Sample { v: s.viewing(), t });
                    }
                });
                out
            },
            |mut a, b| {
                for (pa, pb) in a.iter_mut().zip(b) {
                    pa.binned.merge(&pb.binned);
                    pa.overall.merge(&pb.overall);
                    let room = scatter_cap.saturating_sub(pa.scatter.len());
                    pa.scatter.extend(pb.scatter.into_iter().take(room));
                }
                a
            },
        );
        merged.unwrap_or_else(empty)
    }
}

/// The "prefetch only" loop of one chunk: `iters` times, generates a
/// scenario and draws its request (from a generator seeded with
/// `chunk_seed`), plans it with each policy `k` through
/// [`RoundScratch::plan`] (an oracle prefetches the request) and calls
/// `visit(k, scenario, request, T)` with the plan's empty-cache access
/// time `T`.
pub fn sample_chunk(
    gen: &ScenarioGen,
    policies: &[&dyn Prefetcher],
    chunk_seed: u64,
    iters: u64,
    mut visit: impl FnMut(usize, &Scenario, usize, f64),
) {
    let mut rng = SmallRng::seed_from_u64(chunk_seed);
    let mut row = Vec::new();
    let mut round = RoundScratch::default();
    for _ in 0..iters {
        let s = gen.generate(&mut rng);
        let alpha = ScenarioGen::draw_request(&s, &mut rng);
        dense_row(s.probs(), &mut row);
        for (k, &policy) in policies.iter().enumerate() {
            let plan = round.plan(policy, &s, &row, alpha, None);
            visit(k, &s, alpha, access_time_empty(&s, plan, alpha));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probgen::ProbMethod;

    fn sim(n: usize, method: ProbMethod, iterations: u64) -> PrefetchOnlySim {
        PrefetchOnlySim {
            gen: ScenarioGen::paper(n, method),
            iterations,
            seed: 2024,
            threads: 2,
            chunks: 4,
        }
    }

    const FIG5_POLICIES: [PolicyKind; 4] = [
        PolicyKind::NoPrefetch,
        PolicyKind::Kp,
        PolicyKind::SkpPaper,
        PolicyKind::Perfect,
    ];

    #[test]
    fn policy_ordering_matches_figure_5_skewy() {
        // Perfect < SKP ≈ KP < no prefetch in overall mean access time on
        // the skewy workload.
        let results = sim(10, ProbMethod::skewy(), 4000).run(&FIG5_POLICIES, 0);
        let mean = |k: PolicyKind| {
            results
                .iter()
                .find(|r| r.policy == k)
                .unwrap()
                .overall
                .mean()
        };
        assert!(mean(PolicyKind::Perfect) < mean(PolicyKind::SkpPaper));
        assert!(mean(PolicyKind::SkpPaper) < mean(PolicyKind::NoPrefetch));
        assert!(mean(PolicyKind::Kp) < mean(PolicyKind::NoPrefetch));
    }

    #[test]
    fn flat_workload_exact_skp_and_kp_nearly_equal() {
        // Figure 5b/d: on flat workloads SKP and KP perform almost the
        // same — true for the *corrected* solver, whose expected access
        // time provably dominates KP's.
        let results =
            sim(10, ProbMethod::flat(), 4000).run(&[PolicyKind::Kp, PolicyKind::SkpExact], 0);
        let kp = results[0].overall.mean();
        let skp = results[1].overall.mean();
        assert!(skp <= kp + 0.05, "exact SKP {skp} must not lose to KP {kp}");
        assert!(
            (skp - kp).abs() < 0.8,
            "flat: exact SKP {skp} vs KP {kp} should be close"
        );
    }

    #[test]
    fn flat_workload_paper_solver_overstretches() {
        // The verbatim Figure-3 bookkeeping underprices stretch penalties
        // once items have been excluded, which flat workloads trigger
        // constantly; its average access time falls measurably behind KP.
        // (The paper's own Figure 5a shows the same pathology at small v.)
        let results =
            sim(10, ProbMethod::flat(), 4000).run(&[PolicyKind::Kp, PolicyKind::SkpPaper], 0);
        let kp = results[0].overall.mean();
        let paper = results[1].overall.mean();
        assert!(
            paper > kp,
            "expected the verbatim solver ({paper}) to trail KP ({kp}) on flat workloads"
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let a = PrefetchOnlySim {
            threads: 1,
            ..sim(10, ProbMethod::skewy(), 500)
        }
        .run(&[PolicyKind::SkpPaper], 100);
        let b = PrefetchOnlySim {
            threads: 4,
            ..sim(10, ProbMethod::skewy(), 500)
        }
        .run(&[PolicyKind::SkpPaper], 100);
        assert_eq!(a[0].overall.count(), b[0].overall.count());
        assert!((a[0].overall.mean() - b[0].overall.mean()).abs() < 1e-12);
        assert_eq!(a[0].scatter.len(), b[0].scatter.len());
        for (x, y) in a[0].scatter.iter().zip(&b[0].scatter) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn scatter_cap_respected() {
        let results = sim(10, ProbMethod::flat(), 1000).run(&[PolicyKind::Kp], 57);
        assert_eq!(results[0].scatter.len(), 57);
    }

    #[test]
    fn kp_never_exceeds_max_retrieval() {
        // KP never stretches, so T ≤ max r (= 30) always; SKP may exceed
        // it (the Figure-4a overshoot).
        let results =
            sim(10, ProbMethod::skewy(), 3000).run(&[PolicyKind::Kp, PolicyKind::SkpPaper], 0);
        let kp = &results[0];
        assert!(kp.overall.max() <= 30.0 + 1e-9);
    }

    #[test]
    fn skp_overshoots_past_max_retrieval_on_skewy() {
        // The Figure-4a signature: some SKP points above T = 30.
        let results = sim(10, ProbMethod::skewy(), 5000).run(&[PolicyKind::SkpPaper], 0);
        assert!(
            results[0].overall.max() > 30.0,
            "expected stretch overshoot, max was {}",
            results[0].overall.max()
        );
    }

    #[test]
    fn perfect_prefetch_bounded_by_max_r_minus_v() {
        let results = sim(10, ProbMethod::flat(), 2000).run(&[PolicyKind::Perfect], 0);
        // T_perfect = max(0, r_α − v) ≤ 30.
        assert!(results[0].overall.max() <= 30.0);
        assert!(results[0].overall.min() >= 0.0);
    }

    #[test]
    fn increasing_n_increases_average_access_time() {
        // The paper: "Increasing the number of items from 10 to 25 has the
        // effect of increasing the average access time."
        let small = sim(10, ProbMethod::skewy(), 4000).run(&[PolicyKind::SkpPaper], 0);
        let large = sim(25, ProbMethod::skewy(), 4000).run(&[PolicyKind::SkpPaper], 0);
        assert!(large[0].overall.mean() > small[0].overall.mean());
    }

    #[test]
    fn zero_iterations_yield_empty_results() {
        let results = sim(10, ProbMethod::flat(), 0).run(&[PolicyKind::Kp], 10);
        assert_eq!(results[0].overall.count(), 0);
        assert!(results[0].scatter.is_empty());
    }
}
