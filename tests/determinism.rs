//! Reproducibility guarantees: every randomised component of the
//! workspace is a pure function of its seed, Monte-Carlo results do not
//! depend on the thread count, and observability never changes a
//! simulated result.

use montecarlo::prefetch_cache::PrefetchCacheSim;
use montecarlo::prefetch_only::PrefetchOnlySim;
use montecarlo::probgen::ProbMethod;
use montecarlo::scenario_gen::ScenarioGen;
use montecarlo::stats::RunningStats;
use proptest::prelude::*;
use speculative_prefetch::access::MarkovChain;
use speculative_prefetch::core::policy::PolicyKind;
use speculative_prefetch::distsys::Catalog;
use speculative_prefetch::{Engine, MonteCarloSpec, Workload};

fn prefetch_only(threads: usize, chunks: usize) -> PrefetchOnlySim {
    PrefetchOnlySim {
        gen: ScenarioGen::paper(10, ProbMethod::skewy()),
        iterations: 2_000,
        seed: 77,
        threads,
        chunks,
    }
}

#[test]
fn prefetch_only_bitwise_stable_across_threads() {
    // The chunk count defines the RNG streams and must stay fixed; the
    // thread count must not matter at all.
    let runs: Vec<_> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|t| prefetch_only(t, 8).run(&[PolicyKind::SkpPaper, PolicyKind::Kp], 200))
        .collect();
    let reference = &runs[0];
    for run in &runs[1..] {
        for (a, b) in reference.iter().zip(run) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.overall.count(), b.overall.count());
            assert_eq!(a.overall.mean().to_bits(), b.overall.mean().to_bits());
            assert_eq!(a.scatter.len(), b.scatter.len());
            for (x, y) in a.scatter.iter().zip(&b.scatter) {
                assert_eq!(x.v.to_bits(), y.v.to_bits());
                assert_eq!(x.t.to_bits(), y.t.to_bits());
            }
        }
    }
}

#[test]
fn prefetch_cache_sweep_stable_across_threads() {
    let sim = |threads| PrefetchCacheSim {
        n_states: 25,
        min_fanout: 3,
        max_fanout: 6,
        requests: 800,
        threads,
        ..PrefetchCacheSim::paper(800, 5)
    };
    let a = sim(1).sweep(&[4, 12]);
    let b = sim(6).sweep(&[4, 12]);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.policy, y.policy);
        assert_eq!(x.capacity, y.capacity);
        assert_eq!(x.access.mean().to_bits(), y.access.mean().to_bits());
        assert_eq!(x.hit_rate.to_bits(), y.hit_rate.to_bits());
    }
}

/// The engine's `monte-carlo:<C>x<T>` run and the Figures 4–5 sampler
/// draw the same scenarios and requests: for each policy, the report's
/// access statistics are the `overall` statistics of a `PrefetchOnlySim`
/// with `C` chunks on that one policy, bit for bit.
#[test]
fn monte_carlo_runs_equal_the_prefetch_only_sampler() {
    let method = ProbMethod::skewy();
    let (n_items, iterations, seed, chunks) = (10, 1_500, 4242, 6);
    let bits = |s: &RunningStats| {
        (
            s.count(),
            [s.mean(), s.variance(), s.min(), s.max()].map(f64::to_bits),
        )
    };
    for (spec, kind) in [
        ("skp-paper", PolicyKind::SkpPaper),
        ("skp-exact", PolicyKind::SkpExact),
        ("kp", PolicyKind::Kp),
        ("perfect", PolicyKind::Perfect),
    ] {
        let report = Engine::builder()
            .policy(spec)
            .backend_spec(&format!("monte-carlo:{chunks}x2"))
            .build()
            .unwrap()
            .run(&Workload::monte_carlo(MonteCarloSpec {
                n_items,
                method,
                iterations,
                seed,
            }))
            .unwrap();
        let sim = PrefetchOnlySim {
            gen: ScenarioGen::paper(n_items, method),
            iterations,
            seed,
            threads: 3,
            chunks,
        };
        let overall = sim.run(&[kind], 0)[0].overall;
        let access = report.monte_carlo().expect("monte-carlo section").access;
        assert_eq!(bits(&access), bits(&overall), "{spec}");
    }
}

#[test]
fn workload_generators_pure_in_seed() {
    let a = MarkovChain::random(30, 3, 6, 1, 50, 99).unwrap();
    let b = MarkovChain::random(30, 3, 6, 1, 50, 99).unwrap();
    for i in 0..30 {
        assert_eq!(a.successors(i), b.successors(i));
    }
    assert_eq!(
        Catalog::uniform(100, 1, 30, 4),
        Catalog::uniform(100, 1, 30, 4)
    );
    assert_ne!(
        Catalog::uniform(100, 1, 30, 4),
        Catalog::uniform(100, 1, 30, 5)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observability never changes results: with obs unset, or the
    /// sink off or on, the same seed yields bit-identical reports and
    /// event logs on the sharded farm.
    #[test]
    fn observability_never_changes_results(
        shards in 1usize..=3,
        clients in 1usize..=3,
        requests in 5u64..=30,
        seed in 0u64..1_000_000,
    ) {
        let chain = MarkovChain::random(12, 2, 4, 2, 10, seed ^ 0x5eed).unwrap();
        let catalog: Vec<f64> = (0..12).map(|i| 1.0 + (i % 5) as f64).collect();
        let run = |backend_spec: &str, obs: Option<&str>| {
            let mut builder = Engine::builder()
                .policy("skp-exact")
                .catalog(catalog.clone())
                .backend_spec(backend_spec);
            if let Some(obs) = obs {
                builder = builder.obs(obs);
            }
            builder
                .build()
                .unwrap()
                .run(&Workload::sharded(chain.clone(), requests, seed).traced(true))
                .unwrap()
        };
        let spec = format!("sharded:{shards}x{clients}:hash");
        let base = run(&spec, Some("none"));
        prop_assert!(base.phases.spans.is_empty(), "no clock reads with obs off");
        let unset = run(&spec, None);
        prop_assert!(unset.phases.spans.is_empty(), "no clock reads with obs unset");
        prop_assert_eq!(&base, &unset);
        let observed = run(&spec, Some("memory"));
        prop_assert!(!observed.phases.spans.is_empty());
        // Report equality covers access/section/events (and
        // excludes phases); the event log is additionally checked
        // bit for bit.
        prop_assert_eq!(&base, &observed);
        prop_assert_eq!(base.access.mean.to_bits(), observed.access.mean.to_bits());
        prop_assert_eq!(base.events.len(), observed.events.len());
        for (a, b) in base.events.iter().zip(&observed.events) {
            prop_assert_eq!(a.at.to_bits(), b.at.to_bits());
            prop_assert_eq!(a.client, b.client);
            prop_assert_eq!(a.shard, b.shard);
            prop_assert_eq!(a.item, b.item);
            prop_assert_eq!(a.kind, b.kind);
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = prefetch_only(2, 4);
    let mut b = a;
    b.seed = 78;
    let ra = a.run(&[PolicyKind::SkpPaper], 0);
    let rb = b.run(&[PolicyKind::SkpPaper], 0);
    assert_ne!(
        ra[0].overall.mean().to_bits(),
        rb[0].overall.mean().to_bits(),
        "different seeds must explore different scenarios"
    );
}
