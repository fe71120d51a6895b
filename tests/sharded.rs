//! Acceptance tests for the sharded backend: the `shards = 1` system
//! reproduces the `multi-client:<clients>` spelling **event for event**
//! under every placement, and
//! sharding monotonically relieves contention on a uniform workload —
//! all driven through the unified `Engine::run` / `Workload` surface.

use speculative_prefetch::{Engine, EventKind, MarkovChain, Placement, Workload};

const N: usize = 32;

fn catalog() -> Vec<f64> {
    (0..N).map(|i| 1.0 + (i % 13) as f64).collect()
}

fn engine(backend: &str, policy: &str) -> Engine {
    Engine::builder()
        .policy(policy)
        .backend_spec(backend)
        .catalog(catalog())
        .build()
        .expect("valid session")
}

/// The `multi-client:<clients>` spec and `sharded:1x<clients>:<placement>`
/// run the identical event sequence on a seeded trace: same events, same
/// order, same simulated times and the same report — for every placement
/// strategy and for a planning (not just no-prefetch) policy.
#[test]
fn one_shard_reproduces_multi_client_event_for_event() {
    let chain = MarkovChain::random(N, 3, 6, 4, 12, 21).expect("valid chain");
    let workload = Workload::sharded(chain.clone(), 30, 1999).traced(true);
    for policy in ["skp-exact", "no-prefetch"] {
        let mut legacy = Engine::builder()
            .policy(policy)
            .backend_spec("multi-client:5")
            .catalog(catalog())
            .build()
            .expect("valid session");
        let legacy_run = legacy.run(&workload).expect("multi-client alias runs");
        assert!(!legacy_run.events.is_empty());

        for placement in [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: 8 },
        ] {
            let mut sharded = engine(&format!("sharded:1x5:{placement}"), policy);
            let run = sharded.run(&workload).expect("sharded backend runs");
            // Exact event order, timestamps included.
            assert_eq!(
                legacy_run.events, run.events,
                "{policy}/{placement:?} diverged"
            );
            // And the same report: common stats and the one-shard section.
            assert_eq!(legacy_run, run, "{policy}/{placement:?}");
        }
    }
}

/// On a uniform workload, growing the shard count never raises the mean
/// stall time: each extra shard adds service capacity for a disjoint
/// part of the catalog.
#[test]
fn mean_stall_time_non_increasing_in_shards() {
    // Near-uniform workload: full fan-out, short viewing times, so the
    // single channel is heavily contended and capacity dominates.
    let chain = MarkovChain::random(N, N - 1, N - 1, 2, 6, 9).expect("valid chain");
    let workload = Workload::sharded(chain, 150, 1999);
    let mut last = f64::INFINITY;
    for shards in [1usize, 2, 4, 8] {
        let report = engine(&format!("sharded:{shards}x12:hash"), "skp-exact")
            .run(&workload)
            .expect("runs");
        assert!(
            report.access.mean <= last + 1e-9,
            "{shards} shards: mean {} rose above {}",
            report.access.mean,
            last
        );
        assert!(report.access.p99 >= report.access.p50);
        last = report.access.mean;
    }
}

/// The single-channel and sharded reports are comparable through the
/// common stats block, and the event log is internally consistent.
#[test]
fn reports_share_the_common_stats_block() {
    let chain = MarkovChain::random(N, 3, 6, 4, 12, 3).expect("valid chain");
    let mc = engine("sharded:1x4:hash", "skp-exact")
        .run(&Workload::sharded(chain.clone(), 25, 7))
        .expect("runs");
    let sh = engine("sharded:4x4:range", "skp-exact")
        .run(&Workload::sharded(chain.clone(), 25, 7))
        .expect("runs");
    // Same fields, same meaning: requests and orderings hold on both.
    assert_eq!(mc.access.count, sh.access.count);
    for stats in [&mc.access, &sh.access] {
        assert!(stats.min <= stats.p50 && stats.p50 <= stats.p99 && stats.p99 <= stats.max);
        assert!(stats.mean >= stats.min && stats.mean <= stats.max);
    }
    // Contention splits: the sharded run cannot be slower on average.
    assert!(sh.access.mean <= mc.access.mean + 1e-9);

    // Event-log consistency: requests alternate with services per client.
    let run = engine("sharded:2x3:hash", "skp-exact")
        .run(&Workload::sharded(chain, 10, 7).traced(true))
        .expect("runs");
    let report = run.sharded().expect("sharded section");
    let served = run
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Served)
        .count();
    assert_eq!(served as u64, report.requests());
    for e in &run.events {
        assert!(e.shard < 2 && e.item < N && e.client < 3);
    }
}
