//! Acceptance tests for the adversarial workload generators and the
//! fault-injection layer: each generator ships one pinned adversarial
//! expectation — the flash crowd overloads its hot shard, outage windows
//! black out job starts without losing events, the diurnal cycle
//! modulates dwell times by its pinned peak/trough ratio, and churn
//! concentrates requests on the lobby.

use speculative_prefetch::distsys::scheduler::EventKind;
use speculative_prefetch::{build_generator, Engine, RunReport, Workload};

const N: usize = 24;

fn catalog() -> Vec<f64> {
    (0..N).map(|i| 2.0 + (i % 7) as f64).collect()
}

fn run(backend_spec: &str, generator_spec: &str, requests: u64, seed: u64) -> RunReport {
    run_with_policy(backend_spec, "skp-exact", generator_spec, requests, seed)
}

/// The adversarial-load goldens measure the *substrate* under stress,
/// so they run without prefetching: the planner would otherwise absorb
/// a predictable flash crowd, and prefetch arbitration makes transfer
/// counts timing-dependent.
fn run_with_policy(
    backend_spec: &str,
    policy: &str,
    generator_spec: &str,
    requests: u64,
    seed: u64,
) -> RunReport {
    let mut engine = Engine::builder()
        .backend_spec(backend_spec)
        .policy(policy)
        .catalog(catalog())
        .build()
        .expect("valid session");
    engine
        .run(&Workload::generated(generator_spec, requests, seed).traced(true))
        .expect("runs")
}

/// Pinned flash-crowd expectation: with the hot set parked on item 0
/// (`@0` = no drift) and range placement, shard 0 absorbs the crowd —
/// it starts more jobs than any other shard, and its share of the
/// request stream is at least double its uniform-baseline share
/// (`flash:0@0`). Requests are counted from the event log, so the
/// expectation holds even where caching absorbs the repeat hits.
#[test]
fn flash_crowd_overloads_the_hot_shard() {
    let flash = run_with_policy("sharded:4x8:range", "no-prefetch", "flash:1.5@0", 80, 7);
    let uniform = run_with_policy("sharded:4x8:range", "no-prefetch", "flash:0@0", 80, 7);

    let shard0_requests = |r: &RunReport| {
        r.events
            .iter()
            .filter(|ev| ev.shard == 0 && matches!(ev.kind, EventKind::Request))
            .count()
    };
    let hot_requests = shard0_requests(&flash);
    let baseline_requests = shard0_requests(&uniform);
    assert!(
        hot_requests >= 2 * baseline_requests,
        "flash crowd sent {hot_requests} requests to shard 0 vs the uniform \
         baseline's {baseline_requests}; expected at least 2x concentration"
    );

    let flash = flash.sharded().expect("sharded section");
    let hot = &flash.shards[0];
    for other in &flash.shards[1..] {
        assert!(
            hot.jobs > other.jobs,
            "shard 0 must be the hot shard: {} vs shard {}'s {}",
            hot.jobs,
            other.shard,
            other.jobs
        );
    }
}

/// Pinned outage expectation: `faults:` and `flash:0@0` build the
/// identical uniform browsing chain, so on the same seed the faulted
/// run replays the same request stream — the outage must conserve the
/// Served event count (the run halts exactly at the request quota;
/// Request and transfer counts may drift by the handful of in-flight
/// events the displaced timing leaves queued at the stop), never start
/// a transfer inside the blackout, and surface in the shard report's
/// outage accounting.
#[test]
fn outage_windows_conserve_events_and_black_out_starts() {
    let spec = "faults:out=1@10+30";
    let faulted = run_with_policy("sharded:4x8:hash", "no-prefetch", spec, 60, 5);
    let clean = run_with_policy("sharded:4x8:hash", "no-prefetch", "flash:0@0", 60, 5);

    let count = |r: &RunReport, want: EventKind| {
        r.events.iter().filter(|ev| ev.kind == want).count() as u64
    };
    let quota = 60 * 8; // requests x clients: the exact halting point
    assert_eq!(count(&faulted, EventKind::Served), quota);
    assert_eq!(
        count(&faulted, EventKind::Served),
        count(&clean, EventKind::Served),
        "outages must conserve the Served count"
    );
    for r in [&faulted, &clean] {
        assert!(
            count(r, EventKind::Request) >= quota,
            "every quota request was issued"
        );
    }

    let mut saw_delayed_start = false;
    for ev in &faulted.events {
        if ev.shard == 1 && matches!(ev.kind, EventKind::TransferStart(_)) {
            assert!(
                !(10.0 <= ev.at && ev.at < 40.0),
                "transfer started at {} inside the shard 1 outage window [10, 40)",
                ev.at
            );
            if ev.at == 40.0 {
                saw_delayed_start = true;
            }
        }
    }

    let report = faulted.sharded().expect("sharded section");
    assert_eq!(report.shards[1].outage_time, 30.0, "window length reported");
    assert!(
        report.shards[1].outage_delay > 0.0,
        "admission delay accrues on the failed shard"
    );
    assert!(
        saw_delayed_start || report.shards[1].outage_delay > 0.0,
        "the blackout visibly displaced work"
    );
    for s in [0usize, 2, 3] {
        assert_eq!(report.shards[s].outage_time, 0.0, "shard {s} unaffected");
        assert_eq!(report.shards[s].outage_delay, 0.0, "shard {s} unaffected");
    }
}

/// Pinned diurnal expectation: the dwell-time modulation is exact —
/// with period 8, states 2 and 6 sit on the sine peak and trough, so
/// the peak/trough viewing ratio is (1 + a) / (1 - a) = 19 for
/// amplitude 0.9.
#[test]
fn diurnal_cycle_modulates_dwell_by_the_pinned_ratio() {
    let (chain, faults) = build_generator("diurnal:8x0.9")
        .expect("builds")
        .build(N, 1)
        .expect("chain");
    assert!(faults.is_none(), "diurnal injects load, not faults");
    let max = (0..N).map(|s| chain.viewing(s)).fold(f64::MIN, f64::max);
    let min = (0..N).map(|s| chain.viewing(s)).fold(f64::MAX, f64::min);
    assert!(
        (max / min - 19.0).abs() < 1e-9,
        "peak/trough dwell ratio {} != (1+0.9)/(1-0.9)",
        max / min
    );
    // The modulation reaches the substrate: a high-amplitude cycle and
    // the uniform baseline must not produce the same access profile.
    let diurnal = run("sharded:4x8:hash", "diurnal:8x0.9", 60, 3);
    let uniform = run("sharded:4x8:hash", "flash:0@0", 60, 3);
    assert_ne!(diurnal.access, uniform.access);
}

/// Pinned churn expectation: sessions funnel through the lobby (state
/// 0), whose stationary weight is leave/(join+leave) = 25% for
/// 0.3/0.1 — so the lobby item draws at least 4x the mean per-item
/// request count of the rest of the catalog.
#[test]
fn churn_concentrates_requests_on_the_lobby() {
    let report = run("sharded:4x8:hash", "churn:0.3/0.1", 80, 9);
    let mut per_item = [0u64; N];
    for ev in &report.events {
        if matches!(ev.kind, EventKind::Request) {
            per_item[ev.item] += 1;
        }
    }
    let lobby = per_item[0] as f64;
    let rest_mean = per_item[1..].iter().sum::<u64>() as f64 / (N - 1) as f64;
    assert!(
        lobby >= 4.0 * rest_mean,
        "lobby drew {lobby} requests vs a mean of {rest_mean} elsewhere"
    );
}

/// The uniform baseline really is uniform: `flash:0@0` and the
/// `faults:` chain (fault clauses aside) are row-identical, which the
/// outage-conservation test above depends on.
#[test]
fn uniform_baselines_are_row_identical() {
    let (flash, _) = build_generator("flash:0@0")
        .expect("builds")
        .build(N, 1)
        .expect("chain");
    let (faults, spec) = build_generator("faults:out=0@5+5")
        .expect("builds")
        .build(N, 1)
        .expect("chain");
    assert!(spec.is_some(), "faults: carries its spec");
    for s in 0..N {
        assert_eq!(chain_row(&flash, s), chain_row(&faults, s), "state {s}");
        assert_eq!(flash.viewing(s), faults.viewing(s), "state {s}");
    }
}

fn chain_row(chain: &speculative_prefetch::MarkovChain, s: usize) -> Vec<(usize, f64)> {
    chain.successors(s).to_vec()
}
