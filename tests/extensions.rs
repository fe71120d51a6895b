//! Integration tests for the Section-6 extension policies, exercised
//! end-to-end against the simulation substrates (not just their own
//! objectives).

use montecarlo::probgen::ProbMethod;
use montecarlo::scenario_gen::ScenarioGen;
use montecarlo::stats::RunningStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use speculative_prefetch::core::ext::lookahead::shadow_price;
use speculative_prefetch::core::ext::{NetworkAwarePolicy, StretchPenalisedPolicy};
use speculative_prefetch::core::gain::{access_time_empty, stretch_time};
use speculative_prefetch::core::policy::{PolicyKind, Prefetcher};

/// Chained sessions where stretch eats the next window: some positive λ
/// must beat λ = 0 in realised mean access time.
#[test]
fn lookahead_wins_under_stretch_intrusion() {
    let gen = ScenarioGen::paper(10, ProbMethod::skewy());
    let run = |lambda: f64| {
        let policy = StretchPenalisedPolicy::new(lambda);
        let mut rng = SmallRng::seed_from_u64(0x10A);
        let mut carry = 0.0_f64;
        let mut acc = RunningStats::new();
        for _ in 0..4_000 {
            let base = gen.generate(&mut rng);
            // Shrink the window by the previous round's stretch; keep the
            // same items.
            let s = base
                .with_viewing((base.viewing() - carry).max(0.0))
                .expect("valid viewing");
            let alpha = ScenarioGen::draw_request(&s, &mut rng);
            let plan = policy.plan(&s);
            acc.push(access_time_empty(&s, plan.items(), alpha));
            carry = stretch_time(&s, plan.items());
        }
        acc.mean()
    };
    let plain = run(0.0);
    let best_positive = [0.25, 0.5, 1.0]
        .map(run)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_positive < plain,
        "a positive shadow price ({best_positive}) should beat plain SKP ({plain}) \
         when stretch intrudes into the next window"
    );
}

/// The shadow-price estimate is consistent: charging exactly the next
/// round's marginal value never makes plans stretch *more* than plain SKP.
#[test]
fn shadow_price_is_conservative() {
    let gen = ScenarioGen::paper(8, ProbMethod::skewy());
    let mut rng = SmallRng::seed_from_u64(0x5AD);
    for _ in 0..300 {
        let s = gen.generate(&mut rng);
        let next = gen.generate(&mut rng);
        let lambda = shadow_price(&next);
        assert!(
            (0.0..=1.0).contains(&lambda),
            "shadow price is a probability"
        );
        let plain = PolicyKind::SkpExact.plan(&s);
        let careful = StretchPenalisedPolicy::new(lambda).plan(&s);
        assert!(
            stretch_time(&s, careful.items()) <= stretch_time(&s, plain.items()) + 1e-9,
            "λ > 0 must not increase stretch"
        );
    }
}

/// Network-aware sweep dominates in the (T, waste) plane: raising μ never
/// increases waste, and the realised Pareto frontier is monotone.
#[test]
fn network_aware_traces_a_monotone_frontier() {
    let gen = ScenarioGen::paper(10, ProbMethod::skewy());
    let evaluate = |mu: f64| {
        let policy = NetworkAwarePolicy::new(mu);
        let mut rng = SmallRng::seed_from_u64(0x0E7);
        let mut t = RunningStats::new();
        let mut waste = RunningStats::new();
        for _ in 0..4_000 {
            let s = gen.generate(&mut rng);
            let alpha = ScenarioGen::draw_request(&s, &mut rng);
            let plan = policy.plan(&s);
            t.push(access_time_empty(&s, plan.items(), alpha));
            waste.push(
                plan.items()
                    .iter()
                    .filter(|&&i| i != alpha)
                    .map(|&i| s.retrieval(i))
                    .sum(),
            );
        }
        (t.mean(), waste.mean())
    };
    let mut last_waste = f64::INFINITY;
    for mu in [0.0, 0.1, 0.5, 2.0] {
        let (_, w) = evaluate(mu);
        assert!(
            w <= last_waste + 1e-6,
            "waste must fall (or hold) as mu rises: {w} after {last_waste}"
        );
        last_waste = w;
    }
    // And the endpoints behave: mu = 0 matches plain SKP's time.
    let (t0, _) = evaluate(0.0);
    let (t_big, w_big) = evaluate(50.0);
    assert!(w_big < 1.0, "huge mu nearly eliminates waste, got {w_big}");
    assert!(t_big > t0, "eliminating waste costs access time");
}

/// The extension objectives never return a plan whose *objective value*
/// is negative (the empty plan is always available).
#[test]
fn extension_objectives_never_go_negative() {
    let gen = ScenarioGen::paper(10, ProbMethod::flat());
    let mut rng = SmallRng::seed_from_u64(0xBEE);
    for _ in 0..200 {
        let s = gen.generate(&mut rng);
        for lambda in [0.0, 0.5, 3.0] {
            let sol = StretchPenalisedPolicy::new(lambda).solve_candidates(&s, &vec![true; s.n()]);
            assert!(sol.internal_gain >= -1e-9);
        }
        for mu in [0.0, 0.5, 3.0] {
            let sol = NetworkAwarePolicy::new(mu).solve_candidates(&s, &vec![true; s.n()]);
            assert!(sol.internal_gain >= -1e-9);
        }
    }
}
