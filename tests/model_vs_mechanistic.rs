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
use speculative_prefetch::distsys::{run_session, Placement, SessionConfig};
use speculative_prefetch::{PrefetchPlan, Scenario};

const TOL: f64 = 1e-9;

fn assert_plan_matches(s: &Scenario, plan: &[usize], label: &str) {
    for alpha in 0..s.n() {
        let formula = access_time_empty(s, plan, alpha);
        let replay = run_session(
            s.retrievals(),
            &SessionConfig {
                viewing: s.viewing(),
                plan,
                request: alpha,
                cached: &[],
            },
            1,
            Placement::Hash,
        );
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
                s.retrievals(),
                &SessionConfig {
                    viewing: s.viewing(),
                    plan: plan.items(),
                    request: alpha,
                    cached: &[],
                },
                1,
                Placement::Hash,
            );
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
        for alpha in 0..s.n() {
            let formula = access_time_cached(&s, plan.items(), &cached, &[], alpha);
            let replay = run_session(
                s.retrievals(),
                &SessionConfig {
                    viewing: s.viewing(),
                    plan: plan.items(),
                    request: alpha,
                    cached: &cached,
                },
                1,
                Placement::Hash,
            );
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

        let mut expected = 0.0;
        for alpha in 0..n {
            let t = run_session(
                s.retrievals(),
                &SessionConfig {
                    viewing: s.viewing(),
                    plan: &plan,
                    request: alpha,
                    cached: &[],
                },
                1,
                Placement::Hash,
            );
            expected += s.prob(alpha) * t;
        }
        let formula = expected_access_time_empty(&s, &plan);
        prop_assert!((expected - formula).abs() < 1e-7,
            "expected access time: replay {} vs formula {}", expected, formula);
    }
}

/// Every backend's single-session replay against the per-shard channel
/// model, written out inline: each shard serves its slice of the plan
/// back to back from `t = 0` in plan order, a planned request is served
/// when its own shard delivers it, and a miss queues behind only its
/// owning shard's prefetches. With one shard this is the paper's FIFO
/// channel. Plans are random subsets in random order, inadmissible ones
/// included, and the two must agree bit for bit.
#[test]
fn replay_matches_the_per_shard_closed_form_on_every_backend() {
    use rand::seq::SliceRandom;
    use rand::Rng;
    use speculative_prefetch::{Engine, Placement, ShardMap};

    let backends = [
        ("single-client", 1, Placement::Hash),
        ("multi-client:3", 1, Placement::Hash),
        ("sharded:1x1:hash", 1, Placement::Hash),
        ("sharded:2x1:range", 2, Placement::Range),
        ("sharded:3x4:hash", 3, Placement::Hash),
        (
            "sharded:4x1:hot-cold@2",
            4,
            Placement::HotCold { hot_items: 2 },
        ),
    ];
    let mut rng = SmallRng::seed_from_u64(0x5A4D);
    for (spec, shards, placement) in backends {
        let engine = Engine::builder().backend_spec(spec).build().unwrap();
        for _ in 0..60 {
            let n = rng.random_range(1..=9usize);
            let s = ScenarioGen::paper(n, ProbMethod::flat()).generate(&mut rng);
            let map = ShardMap::new(shards, n, placement);
            let mut items: Vec<usize> = (0..n).collect();
            items.shuffle(&mut rng);
            items.truncate(rng.random_range(0..=n));
            let plan = PrefetchPlan::new(items).unwrap();
            let v = s.viewing();
            for alpha in 0..n {
                let mut clock = vec![0.0_f64; shards];
                let mut done_at = None;
                for &i in plan.items() {
                    let k = map.shard_of(i);
                    clock[k] += s.retrieval(i);
                    if i == alpha {
                        done_at = Some(clock[k]);
                    }
                }
                let reference = match done_at {
                    Some(done_at) => (done_at - v).max(0.0),
                    None => v.max(clock[map.shard_of(alpha)]) + s.retrieval(alpha) - v,
                };
                let replay = engine.replay(&s, &plan, alpha);
                assert_eq!(
                    replay.to_bits(),
                    reference.to_bits(),
                    "{spec}: v {v}, plan {:?}, request {alpha}: replay {replay} vs {reference}",
                    plan.items()
                );
            }
        }
    }
}
