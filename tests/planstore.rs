//! Acceptance tests for the plan-store subsystem: a warm run (plans
//! served from any store tier) is **bit-identical** to the cold run
//! that populated it — same common stats, same section, same
//! mechanistic event log — pinned by goldens per tier and a property
//! test over random chains, policies, seeds and store specs. A warm
//! run on a retaining tier also solves nothing, which is where its
//! speed comes from: that is pinned as a count of `put` calls. Running
//! under `cfg(debug_assertions)` keeps the PR-4 cross-check alive for
//! every tier: each store-seeded plan is re-solved fresh and compared
//! on first use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use speculative_prefetch::{
    build_plan_store, parse_workload, Engine, MarkovChain, PlanSet, PlanStore, PlanStoreStats,
    RunReport, Workload,
};

const N: usize = 24;

fn catalog() -> Vec<f64> {
    (0..N).map(|i| 1.0 + (i % 9) as f64).collect()
}

fn chain(seed: u64) -> MarkovChain {
    MarkovChain::random(N, 2, 5, 4, 14, seed).expect("valid chain")
}

/// One engine per call — sharing happens only through the injected
/// store, exactly the cross-run / cross-client shape the subsystem
/// exists for.
fn run_with(store: &Arc<dyn PlanStore>, policy: &str, chain: &MarkovChain, seed: u64) -> RunReport {
    let mut engine = Engine::builder()
        .policy(policy)
        .backend_spec("sharded:3x6:hash")
        .catalog(catalog())
        .plan_store_instance(Arc::clone(store))
        .build()
        .expect("valid session");
    engine
        .run(&Workload::sharded(chain.clone(), 30, seed).traced(true))
        .expect("runs")
}

/// Golden equivalence: for every built-in tier shape, the warm run out
/// of a store populated by a cold run reports the identical
/// `RunReport` — and the warm run actually hit the store.
#[test]
fn warm_runs_are_bit_identical_to_cold_runs_on_every_tier() {
    let chain = chain(77);
    for spec in ["memory:1x4", "memory:2x32", "tiered:memory:1x4,memory:2x32"] {
        let store = build_plan_store(spec).expect("valid spec");
        let cold = run_with(&store, "skp-exact", &chain, 1999);
        let warm = run_with(&store, "skp-exact", &chain, 1999);
        assert!(!cold.events.is_empty(), "{spec}: traced run has events");
        assert_eq!(cold, warm, "{spec}: warm run diverged from cold");
        assert_eq!(cold.plan_store.hits, 0, "{spec}: cold run cannot hit");
        assert!(
            warm.plan_store.hits >= 1,
            "{spec}: warm run must be served from the store ({:?})",
            warm.plan_store
        );
    }
}

/// The `none` store opts out of reuse without changing results.
#[test]
fn the_none_store_never_hits_but_never_diverges() {
    let chain = chain(5);
    let store = build_plan_store("none").expect("valid spec");
    let cold = run_with(&store, "skp-exact", &chain, 42);
    let warm = run_with(&store, "skp-exact", &chain, 42);
    assert_eq!(cold, warm);
    // The null store counts nothing: never hits, never retains.
    assert_eq!(warm.plan_store.lookups, 0);
    assert_eq!(warm.plan_store.hits, 0);
}

/// The persistent tier: a *fresh* `file:` store instance over the same
/// directory — the restart shape — serves the warm run bit-identically.
#[test]
fn file_store_survives_a_restart_bit_exactly() {
    let dir = std::env::temp_dir().join(format!("skp-planstore-it-{}", std::process::id()));
    let spec = format!("file:{}", dir.display());
    let chain = chain(13);

    let cold_store = build_plan_store(&spec).expect("valid spec");
    let cold = run_with(&cold_store, "skp-exact", &chain, 7);
    drop(cold_store); // "restart": nothing survives but the files

    let warm_store = build_plan_store(&spec).expect("valid spec");
    let warm = run_with(&warm_store, "skp-exact", &chain, 7);
    assert_eq!(cold, warm, "plans reloaded from disk diverged");
    assert!(
        warm.plan_store.hits >= 1,
        "warm run must be served from disk ({:?})",
        warm.plan_store
    );

    std::fs::remove_dir_all(&dir).expect("scratch dir removable");
}

/// A real store that counts the plan sets written into it.
struct CountingPuts {
    inner: Arc<dyn PlanStore>,
    puts: AtomicU64,
}

impl PlanStore for CountingPuts {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn spec_string(&self) -> String {
        self.inner.spec_string()
    }

    fn get(&self, key: u64) -> Option<Arc<PlanSet>> {
        self.inner.get(key)
    }

    fn put(&self, key: u64, value: Arc<PlanSet>) {
        self.puts.fetch_add(1, Ordering::SeqCst);
        self.inner.put(key, value);
    }

    fn retains(&self) -> bool {
        self.inner.retains()
    }

    fn stats(&self) -> PlanStoreStats {
        self.inner.stats()
    }
}

/// A warm run solves nothing on every retaining tier, `file:` inside
/// `tiered:` included. The engine writes a plan set back only when the
/// run solved a state or missed the store, so a warm run that makes
/// no `put` solved no state. The population is solve-dominated (96
/// states with fan-out 20–28 under `skp-exact`), so skipping its
/// solves is the whole of the warm run's speed-up.
#[test]
fn a_warm_run_puts_nothing_on_every_retaining_tier() {
    let dir = std::env::temp_dir().join(format!("skp-planstore-puts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let chain = MarkovChain::random(96, 20, 28, 3, 8, 11).expect("valid chain");
    let workload = Workload::sharded(chain, 16, 1999).traced(true);
    let specs = [
        "none".to_string(),
        "memory:8x1024".to_string(),
        format!("file:{}", dir.join("file").display()),
        format!("tiered:memory:8x1024,file:{}", dir.join("tiered").display()),
    ];
    for spec in &specs {
        let store = Arc::new(CountingPuts {
            inner: build_plan_store(spec).expect("valid spec"),
            puts: AtomicU64::new(0),
        });
        // A fresh engine per run: reuse goes through the store alone.
        let run = || -> (RunReport, u64, u64) {
            let (puts, hits) = (store.puts.load(Ordering::SeqCst), store.stats().hits);
            let report = Engine::builder()
                .policy("skp-exact")
                .backend_spec("sharded:2x4:hash")
                .catalog((0..96).map(|i| 1.0 + (i % 17) as f64).collect())
                .plan_store_instance(Arc::clone(&store) as Arc<dyn PlanStore>)
                .build()
                .expect("valid session")
                .run(&workload)
                .expect("runs");
            let puts = store.puts.load(Ordering::SeqCst) - puts;
            (report, store.stats().hits - hits, puts)
        };
        let (cold, cold_hits, cold_puts) = run();
        let (warm, warm_hits, warm_puts) = run();
        assert!(!cold.events.is_empty(), "{spec}: traced run has events");
        assert_eq!(cold, warm, "{spec}: warm run diverged from cold");
        // `none` retains nothing, so the engine never writes to it.
        let (cold_expected, warm_expected) = if spec == "none" {
            ((0, 0), (0, 0))
        } else {
            ((0, 1), (1, 0))
        };
        assert_eq!((cold_hits, cold_puts), cold_expected, "{spec}: cold run");
        assert_eq!((warm_hits, warm_puts), warm_expected, "{spec}: warm run");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removable");
    assert!(!dir.exists(), "scratch dir must not leak");
}

/// Different seeds key different entries: warming with one seed must
/// not cross-contaminate a run with another. The key covers the chain
/// and the catalog; the guard re-checks only the spec and the catalog
/// on a hit, so these chains are kept apart by their keys alone.
#[test]
fn runs_with_different_chains_do_not_share_entries() {
    let store = build_plan_store("memory:2x32").expect("valid spec");
    let a = chain(1);
    let b = chain(2);
    let cold_a = run_with(&store, "skp-exact", &a, 9);
    let cold_b = run_with(&store, "skp-exact", &b, 9);
    assert_ne!(cold_a, cold_b, "distinct chains give distinct reports");
    assert_eq!(
        store.stats().hits,
        0,
        "different chains must not hit each other's entries"
    );
    let warm_a = run_with(&store, "skp-exact", &a, 9);
    assert_eq!(cold_a, warm_a);
    assert_eq!(store.stats().hits, 1);
}

/// A `file:` entry for `sharded.skp`'s population that no run could
/// have written — a `states` count other than the catalog's length, a
/// plan item past the catalog, an item listed twice in one plan — is a
/// miss: the run solves afresh and reports what the cold run reported.
#[test]
fn file_entries_no_population_plans_are_misses() {
    let text = include_str!("../examples/workloads/sharded.skp");
    let file = parse_workload(text).expect("parses");
    let dir = std::env::temp_dir().join(format!("skp-planstore-bad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = format!("file:{}", dir.display());
    let run = || -> RunReport {
        let store = build_plan_store(&spec).expect("valid spec");
        let (mut engine, workload) = file.instantiate(Some(store)).expect("builds");
        engine.run(&workload).expect("runs")
    };
    let cold = run();
    assert_eq!(cold.plan_store.hits, 0);
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("the cold run wrote its entry")
        .map(|e| e.expect("lists").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "plan"))
        .collect();
    assert_eq!(entries.len(), 1, "{entries:?}");
    let entry = &entries[0];
    let good = std::fs::read_to_string(entry).expect("reads");
    assert!(good.contains("\nstates 24\n"), "{good}");
    // A solved state that prefetches something: `plan <state> <item> …`.
    let line = good
        .lines()
        .find(|l| l.starts_with("plan ") && l.split(' ').count() > 2)
        .expect("some state prefetches");
    let first_item = line.split(' ').nth(2).expect("an item");
    let state = line.split(' ').nth(1).expect("a state");
    let bad_entries = [
        good.replace("\nstates 24\n", "\nstates 4000000000\n"),
        good.replace(line, &format!("plan {state} 999999")),
        good.replace(line, &format!("{line} {first_item}")),
    ];
    for bad in bad_entries {
        assert_ne!(bad, good);
        std::fs::write(entry, &bad).expect("writes");
        let warm = run();
        assert_eq!(warm.plan_store.hits, 0, "{bad}");
        assert_eq!(warm.plan_store.misses(), 1, "{bad}");
        assert_eq!(cold, warm, "{bad}");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Warm == cold holds across random chains, policies, seeds and
    /// store specs — traced, so the comparison covers the event log.
    #[test]
    fn warm_equals_cold_over_random_runs(
        states in 4usize..18,
        fanout in 1usize..4,
        chain_seed in 0u64..10_000,
        run_seed in 0u64..10_000,
        requests in 5u64..20,
        policy_pick in 0usize..3,
        store_pick in 0usize..3,
    ) {
        let max_fanout = (fanout + 1).min(states - 1).max(1);
        let min_fanout = fanout.min(max_fanout);
        let chain = MarkovChain::random(states, min_fanout, max_fanout, 2, 9, chain_seed)
            .expect("valid chain");
        let policy = ["skp-exact", "no-prefetch", "greedy"][policy_pick];
        let spec = ["memory:1x8", "memory:2x16", "tiered:memory:1x2,memory:1x16"][store_pick];
        let retrievals: Vec<f64> = (0..states).map(|i| 1.0 + (i % 6) as f64).collect();
        let store = build_plan_store(spec).expect("valid spec");
        let workload = Workload::sharded(chain, requests, run_seed).traced(true);

        let run = |store: &Arc<dyn PlanStore>| -> RunReport {
            Engine::builder()
                .policy(policy)
                .backend_spec("sharded:2x4:hash")
                .catalog(retrievals.clone())
                .plan_store_instance(Arc::clone(store))
                .build()
                .expect("valid session")
                .run(&workload)
                .expect("runs")
        };
        let cold = run(&store);
        let warm = run(&store);
        prop_assert_eq!(cold, warm);
    }
}
