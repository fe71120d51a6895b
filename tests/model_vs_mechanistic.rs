//! The strongest correctness check in the workspace: the paper's
//! closed-form access times (skp-core) must agree **exactly** with the
//! mechanistic discrete-event replay (distsys) on every admissible plan,
//! for every request, across random scenarios and every solver.

use montecarlo::probgen::ProbMethod;
use montecarlo::scenario_gen::ScenarioGen;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use speculative_prefetch::core::gain::{
    access_time_cached, access_time_empty, expected_access_time_empty,
};
use speculative_prefetch::core::policy::{PolicyKind, Prefetcher};
use speculative_prefetch::distsys::{run_session, Catalog, SessionConfig};
use speculative_prefetch::{PrefetchPlan, Scenario};

const TOL: f64 = 1e-9;

fn catalog_of(s: &Scenario) -> Catalog {
    Catalog::new(s.retrievals().to_vec())
}

fn assert_plan_matches(s: &Scenario, plan: &[usize], label: &str) {
    let catalog = catalog_of(s);
    for alpha in 0..s.n() {
        let formula = access_time_empty(s, plan, alpha);
        let replay = run_session(
            &catalog,
            &SessionConfig {
                viewing: s.viewing(),
                plan,
                request: alpha,
                cached: &[],
            },
        )
        .access_time;
        assert!(
            (formula - replay).abs() < TOL,
            "{label}: plan {plan:?}, request {alpha}: formula {formula} vs replay {replay}"
        );
    }
}

#[test]
fn solver_plans_match_event_replay() {
    let mut rng = SmallRng::seed_from_u64(0xD15C);
    for method in [ProbMethod::skewy(), ProbMethod::flat()] {
        let gen = ScenarioGen::paper(8, method);
        for _ in 0..300 {
            let s = gen.generate(&mut rng);
            for kind in [
                PolicyKind::Kp,
                PolicyKind::KpGreedy,
                PolicyKind::SkpPaper,
                PolicyKind::SkpExact,
                PolicyKind::SkpOptimal,
            ] {
                let plan = kind.plan(&s);
                assert_plan_matches(&s, plan.items(), kind.name());
            }
        }
    }
}

#[test]
fn oracle_plan_matches_event_replay() {
    let mut rng = SmallRng::seed_from_u64(0x0AC1E);
    let gen = ScenarioGen::paper(6, ProbMethod::skewy());
    for _ in 0..200 {
        let s = gen.generate(&mut rng);
        for alpha in 0..s.n() {
            let plan = PrefetchPlan::new(vec![alpha]).unwrap();
            let formula = access_time_empty(&s, plan.items(), alpha);
            let replay = run_session(
                &catalog_of(&s),
                &SessionConfig {
                    viewing: s.viewing(),
                    plan: plan.items(),
                    request: alpha,
                    cached: &[],
                },
            )
            .access_time;
            assert!((formula - replay).abs() < TOL);
            // The oracle's access time is exactly max(0, r_α − v).
            let direct = (s.retrieval(alpha) - s.viewing()).max(0.0);
            assert!((formula - direct).abs() < TOL);
        }
    }
}

#[test]
fn cached_access_times_match_replay() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4E);
    let gen = ScenarioGen::paper(8, ProbMethod::flat());
    for round in 0..200 {
        let s = gen.generate(&mut rng);
        // Cache items round % 3 of the universe; plan over the rest.
        let cached: Vec<usize> = (0..s.n()).filter(|i| i % 3 == round % 3).collect();
        let candidates: Vec<bool> = (0..s.n()).map(|i| !cached.contains(&i)).collect();
        let plan = PolicyKind::SkpExact.plan_candidates(&s, &candidates);
        let catalog = catalog_of(&s);
        for alpha in 0..s.n() {
            let formula = access_time_cached(&s, plan.items(), &cached, &[], alpha);
            let replay = run_session(
                &catalog,
                &SessionConfig {
                    viewing: s.viewing(),
                    plan: plan.items(),
                    request: alpha,
                    cached: &cached,
                },
            )
            .access_time;
            assert!(
                (formula - replay).abs() < TOL,
                "cached: plan {:?}, cache {cached:?}, request {alpha}: {formula} vs {replay}",
                plan.items()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random admissible plans (not just solver output) agree with the
    /// replay, and the expected access time is the probability-weighted
    /// sum of the replayed times.
    #[test]
    fn random_plans_match_replay(seed in 0u64..1_000_000, n in 2usize..9) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let gen = ScenarioGen::paper(n, ProbMethod::flat());
        let s = gen.generate(&mut rng);

        // Build a random admissible plan: shuffle, then cut at overrun.
        let order = {
            use rand::seq::SliceRandom;
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(&mut rng);
            ids
        };
        let mut plan = Vec::new();
        let mut used = 0.0;
        for id in order {
            plan.push(id);
            used += s.retrieval(id);
            if used >= s.viewing() {
                break;
            }
        }

        assert_plan_matches(&s, &plan, "random plan");

        let catalog = catalog_of(&s);
        let mut expected = 0.0;
        for alpha in 0..n {
            let t = run_session(
                &catalog,
                &SessionConfig {
                    viewing: s.viewing(),
                    plan: &plan,
                    request: alpha,
                    cached: &[],
                },
            ).access_time;
            expected += s.prob(alpha) * t;
        }
        let formula = expected_access_time_empty(&s, &plan);
        prop_assert!((expected - formula).abs() < 1e-7,
            "expected access time: replay {} vs formula {}", expected, formula);
    }
}
