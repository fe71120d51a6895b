//! Facade coverage: every registry entry resolves and plans, the
//! builder validates its configuration, and each example's main path
//! runs end to end through `speculative_prefetch::{...}` items alone.

use speculative_prefetch::{
    build_backend, build_generator, build_obs, build_plan_store, build_policy, build_predictor,
    policy_aliases, policy_names, policy_specs, predictor_names, predictor_specs, register_backend,
    BackendDriver, Engine, Error, MarkovChain, MonteCarloSpec, ProbMethod, ReportSection, Scenario,
    Trace, TraceReport, Workload,
};

fn scenario() -> Scenario {
    Scenario::new(
        vec![0.40, 0.25, 0.15, 0.15, 0.05],
        vec![6.0, 5.0, 9.0, 2.0, 14.0],
        10.0,
    )
    .expect("valid scenario")
}

#[test]
fn policy_registry_enumerates_and_builds_everything() {
    let names = policy_names();
    assert!(names.len() >= 6, "registry too small: {names:?}");
    let s = scenario();
    for spec in policy_specs() {
        for name in std::iter::once(spec.name).chain(policy_aliases(spec.name)) {
            let policy = build_policy(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            let plan = policy.plan(&s);
            for &item in plan.items() {
                assert!(item < s.n(), "{name} planned an unknown item");
            }
        }
        // Parameterised entries accept an explicit parameter too.
        if !spec.params.is_empty() {
            let with_param = format!("{}:0.5", spec.name);
            assert!(build_policy(&with_param).is_ok(), "{with_param} must build");
        }
    }
}

#[test]
fn predictor_registry_enumerates_and_builds_everything() {
    assert_eq!(predictor_names().len(), predictor_specs().len());
    for spec in predictor_specs() {
        let mut p = build_predictor(spec.name, 6).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(p.n_items(), 6);
        for i in 0..12 {
            p.observe(i % 6);
        }
        let probs = p.predict(0);
        assert_eq!(probs.len(), 6);
        let mass: f64 = probs.iter().sum();
        assert!(
            (0.0..=1.0 + 1e-9).contains(&mass),
            "{}: forecast mass {mass}",
            spec.name
        );
    }
}

#[test]
fn builder_reports_unknown_names_with_suggestions() {
    let e = Engine::builder()
        .policy("skp-exactt")
        .build()
        .err()
        .expect("must fail");
    let msg = e.to_string();
    assert!(
        msg.contains("skp-exactt") && msg.contains("skp-exact"),
        "{msg}"
    );

    let e = Engine::builder()
        .predictor("markvo")
        .items(4)
        .build()
        .err()
        .expect("must fail");
    assert!(matches!(e, Error::UnknownPredictor { .. }));
}

/// The quickstart path: solver comparison plus mechanistic verification
/// of every closed form.
#[test]
fn smoke_quickstart_solver_comparison_verifies() {
    let s = scenario();
    let mut gains = Vec::new();
    for spec in ["kp", "skp-paper", "skp-exact", "skp-optimal"] {
        let engine = Engine::builder().policy(spec).build().expect("builds");
        let report = engine.verified_report(&s).expect("formula == replay");
        assert!(report.gain <= report.upper_bound + 1e-9);
        gains.push(report.gain);
    }
    // Solver hierarchy: optimal >= exact >= paper-or-kp.
    assert!(gains[3] >= gains[2] - 1e-9);
    assert!(gains[2] >= gains[1] - 1e-9);
}

/// The web-browsing path: learned predictor + cache improves with
/// experience on a Markov site.
#[test]
fn smoke_web_browsing_learning_curve_improves() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const PAGES: usize = 12;
    let site = MarkovChain::random(PAGES, 2, 4, 5, 20, 7).expect("valid site");
    let mut engine = Engine::builder()
        .policy("skp-exact")
        .predictor("depgraph:2")
        .catalog((0..PAGES).map(|i| 2.0 + (i % 7) as f64).collect())
        .cache(4)
        .build()
        .expect("builds");

    let mut rng = SmallRng::seed_from_u64(5);
    let mut phase = [0.0f64; 2];
    let mut counts = [0u64; 2];
    for session in 0..120 {
        let mut page = rng.random_range(0..PAGES);
        engine.observe(page);
        for _ in 0..15 {
            let next = site.next_state(page, &mut rng);
            let s = engine
                .scenario(page, site.viewing(page))
                .expect("forecast is a valid scenario");
            let out = engine.step(&s, next);
            let half = usize::from(session >= 60);
            phase[half] += out.access_time;
            counts[half] += 1;
            engine.observe(next);
            page = next;
        }
    }
    let (cold, warm) = (phase[0] / counts[0] as f64, phase[1] / counts[1] as f64);
    assert!(
        warm < cold,
        "learning must help: cold {cold:.2} warm {warm:.2}"
    );
}

/// The newspaper path: policy comparison on shared forecasts —
/// prefetching beats not prefetching, and the network-aware variant
/// wastes less transfer.
#[test]
fn smoke_newspaper_policy_comparison() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const ITEMS: usize = 9;
    let mut engine = Engine::builder()
        .predictor("ngram:1")
        .catalog(vec![6.0; ITEMS])
        .build()
        .expect("builds");
    let policies = [
        build_policy("no-prefetch").unwrap(),
        build_policy("skp-exact").unwrap(),
        build_policy("network-aware:0.4").unwrap(),
    ];

    // A habitual reader: mostly a fixed cycle, occasional wandering.
    let mut rng = SmallRng::seed_from_u64(11);
    let mut totals = [0.0f64; 3];
    let mut waste = [0.0f64; 3];
    let mut here = 0usize;
    engine.observe(here);
    for _ in 0..800 {
        let next = if rng.random_range(0.0..1.0) < 0.9 {
            (here + 1) % ITEMS
        } else {
            rng.random_range(0..ITEMS)
        };
        let s = engine.scenario(here, 8.0).expect("valid forecast");
        for (slot, policy) in policies.iter().enumerate() {
            let report = engine.report_plan(&s, policy.plan(&s));
            totals[slot] += report.per_request[next];
            waste[slot] += report
                .plan
                .items()
                .iter()
                .filter(|&&i| i != next)
                .map(|&i| s.retrieval(i))
                .sum::<f64>();
        }
        engine.observe(next);
        here = next;
    }
    assert!(totals[1] < totals[0], "SKP must beat no prefetch");
    assert!(waste[2] <= waste[1], "network-aware must not waste more");
}

/// The mobile-network path: a large shadow price suppresses stretch.
#[test]
fn smoke_mobile_network_lambda_suppresses_stretch() {
    let s = Scenario::new(vec![0.55, 0.45], vec![6.0, 8.0], 7.0).expect("valid");
    let report_for = |lambda: &str| {
        Engine::builder()
            .policy(lambda)
            .build()
            .unwrap()
            .run(&Workload::plan(s.clone()))
            .unwrap()
            .plan()
            .expect("plan section")
            .clone()
    };
    let plain = report_for("stretch-penalised:0");
    let priced = report_for("stretch-penalised:100");
    assert!(priced.stretch <= plain.stretch);
    assert_eq!(priced.stretch, 0.0, "a huge lambda forbids stretching");
}

/// The trace-driven path: record, persist, reload, replay under
/// competing policies through `run_trace`.
#[test]
fn smoke_trace_driven_replay_orders_policies() {
    let mut trace = Trace::new();
    for i in 0..400 {
        trace.push(i % 4, 12.0);
    }
    let path = std::env::temp_dir().join("facade_smoke.trace");
    trace.save(&path).expect("save");
    let loaded = Trace::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, trace);

    let workload = Workload::trace(loaded);
    let mut means = Vec::new();
    for spec in ["no-prefetch", "skp-exact"] {
        let mut engine = Engine::builder()
            .policy(spec)
            .predictor("ngram:1")
            .catalog(vec![5.0; 4])
            .cache(2)
            .build()
            .expect("builds");
        let run = engine.run(&workload).expect("replays");
        let report = run.trace().expect("trace section");
        assert_eq!(report.requests, 399);
        assert_eq!(run.access.count, 399);
        means.push(report.mean_access_time);
    }
    assert!(
        means[1] < means[0],
        "SKP replay must beat no-prefetch: {means:?}"
    );
}

/// The Monte-Carlo backend is deterministic in its spec and consistent
/// with the sequential backend's chunking.
#[test]
fn monte_carlo_backend_is_deterministic() {
    let spec = MonteCarloSpec {
        n_items: 8,
        method: ProbMethod::flat(),
        iterations: 300,
        seed: 1999,
    };
    let run = |threads| {
        Engine::builder()
            .policy("skp-paper")
            .backend_spec(&format!("monte-carlo:6x{threads}"))
            .build()
            .unwrap()
            .run(&Workload::monte_carlo(spec))
            .unwrap()
    };
    assert_eq!(run(1), run(4));
}

/// The oracle policy works through `step`: it prefetches the realised
/// request itself, cached or not.
#[test]
fn oracle_policy_prefetches_the_request_in_step() {
    let s = scenario();
    // Cache-less: the oracle always fetches exactly the request.
    let mut engine = Engine::builder().policy("perfect").build().unwrap();
    let out = engine.step(&s, 2);
    assert_eq!(out.prefetched, vec![2]);
    assert!(out.access_time <= (s.retrieval(2) - s.viewing()).max(0.0) + 1e-9);

    // Cached: the second access to the same item hits from the cache.
    let mut engine = Engine::builder()
        .policy("perfect")
        .items(s.n())
        .cache(2)
        .build()
        .unwrap();
    let first = engine.step(&s, 0);
    assert_eq!(first.prefetched, vec![0]);
    let again = engine.step(&s, 0);
    assert!(again.hit);
    assert!(again.prefetched.is_empty(), "cached item is not re-fetched");
}

/// `verified_report` is the empty-cache check: it must stay green on
/// an engine whose cache is warm (the replay starts empty, like the
/// closed forms).
#[test]
fn verified_report_ignores_warm_cache_state() {
    let s = scenario();
    let mut engine = Engine::builder()
        .policy("skp-exact")
        .items(s.n())
        .cache(3)
        .build()
        .unwrap();
    for alpha in [0usize, 1, 0, 2] {
        engine.step(&s, alpha); // warm the cache
    }
    assert!(!engine.cached_items().is_empty());
    let report = engine
        .verified_report(&s)
        .expect("empty-cache view verifies");
    assert!(report.gain.is_finite());
}

/// A later valid `.policy()` call overrides an earlier bad spec.
#[test]
fn builder_policy_error_is_cleared_by_later_valid_policy() {
    let engine = Engine::builder()
        .policy("not-a-policy")
        .policy("skp-exact")
        .build()
        .expect("the last valid policy wins");
    assert_eq!(engine.policy_name(), "SKP exact");
}

/// Perfect prefetch dominates every other policy under the same draws.
#[test]
fn monte_carlo_oracle_dominates() {
    let spec = MonteCarloSpec {
        n_items: 6,
        method: ProbMethod::skewy(),
        iterations: 500,
        seed: 7,
    };
    let mean_of = |policy: &str| {
        Engine::builder()
            .policy(policy)
            .build()
            .unwrap()
            .run(&Workload::monte_carlo(spec))
            .unwrap()
            .access
            .mean
    };
    let oracle = mean_of("perfect");
    let skp = mean_of("skp-exact");
    let none = mean_of("no-prefetch");
    assert!(oracle <= skp + 1e-9);
    assert!(skp <= none + 1e-9);
}

// ---------------------------------------------------------------------
// The open backend registry.
// ---------------------------------------------------------------------

/// A trivial test-only backend: every population request is served in a
/// constant time, reported through the trace section shape. It lives
/// entirely in this test — registering it and running a workload on it
/// requires no edits to `src/engine.rs` (no `match` anywhere in the
/// facade knows about it).
struct ConstantTimeDriver;

impl BackendDriver for ConstantTimeDriver {
    fn name(&self) -> &'static str {
        "constant-time"
    }

    fn spec_string(&self) -> String {
        "constant-time".to_string()
    }

    fn supports_population(&self) -> bool {
        true
    }

    fn run_population(
        &self,
        run: speculative_prefetch::PopulationRun<'_>,
    ) -> Result<
        (
            speculative_prefetch::AccessStats,
            ReportSection,
            Vec<speculative_prefetch::SimEvent>,
        ),
        Error,
    > {
        let requests = run.requests_per_client;
        let access = speculative_prefetch::AccessStats {
            count: requests,
            mean: 1.0,
            p50: 1.0,
            p99: 1.0,
            min: 1.0,
            max: 1.0,
        };
        Ok((
            access,
            ReportSection::Trace(TraceReport {
                requests,
                mean_access_time: 1.0,
                hit_rate: 0.0,
                wasted_per_request: 0.0,
            }),
            Vec::new(),
        ))
    }
}

/// Tentpole acceptance: a new backend is one registry entry, reachable
/// by its spec string through the builder and `Engine::run`, with no
/// engine edits.
#[test]
fn runtime_registered_backend_is_reachable_via_spec_string() {
    register_backend(
        "constant-time",
        "",
        "test-only: constant-time population service",
        |param| {
            if param.is_some() {
                return Err(Error::InvalidParam {
                    what: "constant-time backend",
                    detail: "takes no parameter".into(),
                });
            }
            Ok(std::sync::Arc::new(ConstantTimeDriver))
        },
    )
    .expect("fresh name registers");

    // The registry now lists it...
    assert!(speculative_prefetch::backend_names().contains(&"constant-time"));
    // ...the spec string builds it...
    let driver = build_backend("constant-time").expect("registered spec builds");
    assert_eq!(driver.name(), "constant-time");
    assert_eq!(driver.spec_string(), "constant-time");
    // ...and an engine drives a workload on it, end to end.
    let chain = MarkovChain::random(4, 1, 2, 1, 5, 3).expect("valid chain");
    let mut engine = Engine::builder()
        .backend_spec("constant-time")
        .catalog(vec![2.0; 4])
        .build()
        .expect("builds on the custom backend");
    assert_eq!(engine.backend_name(), "constant-time");
    let report = engine
        .run(&Workload::sharded(chain, 17, 1))
        .expect("custom driver runs the population");
    assert_eq!(
        report.section,
        ReportSection::Trace(TraceReport {
            requests: 17,
            mean_access_time: 1.0,
            hit_rate: 0.0,
            wasted_per_request: 0.0,
        })
    );
    // The custom driver supplies the common stats block too — RunReport
    // always carries comparable AccessStats, whatever the substrate.
    assert_eq!(report.access.count, 17);
    assert_eq!(report.access.mean, 1.0);
    // Duplicate registration is rejected, so the registry stays sane.
    assert!(register_backend("constant-time", "", "dup", |_| unreachable!()).is_err());
}

/// One name rule for all six registries (policy, predictor, backend,
/// generator, plan store, obs sink): the registry name and every
/// numeric field may carry surrounding spaces, and the padded spec
/// builds what the tight one builds.
#[test]
fn every_registry_trims_names_and_numeric_fields() {
    let canonical = |registry: &str, spec: &str| -> Result<String, Error> {
        Ok(match registry {
            "backend" => build_backend(spec)?.spec_string(),
            "generator" => build_generator(spec)?.spec_string(),
            "plan store" => build_plan_store(spec)?.spec_string(),
            "obs sink" => build_obs(spec)?.spec_string(),
            other => unreachable!("no registry '{other}'"),
        })
    };
    for (registry, padded, want) in [
        ("backend", " single-client ", "single-client"),
        ("backend", " sharded : 2 x 8 : range", "sharded:2x8:range"),
        ("backend", "multi-client: 4 ", "sharded:1x4:hash"),
        ("backend", " monte-carlo: 4 x 2", "monte-carlo:4x2"),
        ("generator", " flash : 1.2 @ 0.5", "flash:1.2@0.5"),
        ("generator", "diurnal : 24 x 0.5 ", "diurnal:24x0.5"),
        ("plan store", " memory ", "memory:8x1024"),
        ("plan store", "memory: 2 x 8 ", "memory:2x8"),
        (
            "plan store",
            " tiered : memory: 1x4 , memory:2 x8",
            "tiered:memory:1x4,memory:2x8",
        ),
        ("obs sink", " memory", "memory"),
        ("obs sink", "none ", "none"),
    ] {
        let built = canonical(registry, padded)
            .unwrap_or_else(|e| panic!("{registry} spec '{padded}': {e}"));
        assert_eq!(built, want, "{registry} spec '{padded}'");
    }
    let s = scenario();
    for (padded, tight) in [
        (" paper ", "skp-paper"),
        (" network-aware : 0.25 ", "network-aware:0.25"),
        ("two-step: 0.5", "two-step:0.5"),
    ] {
        let built = build_policy(padded).unwrap_or_else(|e| panic!("policy '{padded}': {e}"));
        let want = build_policy(tight).expect("tight policy spec");
        assert_eq!(built.name(), want.name(), "policy '{padded}'");
        assert_eq!(built.plan(&s), want.plan(&s), "policy '{padded}'");
    }
    for (padded, tight) in [
        (" ngram : 3 ", "ngram:3"),
        (" markov: 0.1", "markov:0.1"),
        (" freq ", "freq"),
    ] {
        let mut built =
            build_predictor(padded, 6).unwrap_or_else(|e| panic!("predictor '{padded}': {e}"));
        let mut want = build_predictor(tight, 6).expect("tight predictor spec");
        for item in [0, 1, 2, 0, 1, 2, 3, 0, 1, 4] {
            built.observe(item);
            want.observe(item);
        }
        assert_eq!(built.name(), want.name(), "predictor '{padded}'");
        assert_eq!(built.predict(1), want.predict(1), "predictor '{padded}'");
    }
}
