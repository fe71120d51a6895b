//! A steady-state Section-5 round allocates nothing, and neither
//! observability nor an inert fault plan allocates per request.
//!
//! A counting global allocator (this test binary only) counts every
//! allocation, zeroed allocation and reallocation made on the calling
//! thread. The count lives in a `const` thread-local `Cell`, so tests
//! running in parallel on other threads do not add to it.
//!
//! An engine warmed on a trace T has seen every n-gram context and
//! successor of T, and its round buffers have grown to the sizes T's
//! rounds need. A further run over T, and one over T‖T (T twice in a
//! row), then differ only in the number of rounds. If they make the same
//! number of allocations, the extra rounds of T‖T made none: what is
//! left is the run's fixed setup and report. The Figure-7 sweep point
//! runs the same round, and is pinned the same way: two runs with the
//! same warm-up, one measuring twice the requests of the other.
//!
//! The population pins compare two ways of running one workload at R
//! and at 2R requests per client. What one way allocates beyond the
//! other is its cost in allocations; if that surplus does not grow with
//! the requests, the way costs nothing per request or per event. This
//! holds `obs memory` against obs off (`none` must equal off exactly)
//! and an inert fault plan against no faults.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use distsys::scheduler::ClientWorkload;
use distsys::{FaultSpec, Placement, ShardedSim};
use montecarlo::prefetch_cache::PrefetchCacheSim;
use rand::rngs::SmallRng;
use speculative_prefetch::cache::PrefetchCacheConfig;
use speculative_prefetch::core::arbitration::SubArbitration;
use speculative_prefetch::core::policy::PolicyKind;
use speculative_prefetch::{Engine, MarkovChain, Trace, Workload};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// plain thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A walk over a 100-item catalog: from item `i` the next request is one
/// of three successors, picked by a fixed xorshift stream, so the n-gram
/// contexts repeat and the predictor forecasts rows worth prefetching.
fn walk(len: usize) -> Vec<(usize, f64)> {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut item = 0usize;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let here = item;
            item = match x % 3 {
                0 => (item + 1) % 100,
                1 => (item * 7 + 3) % 100,
                _ => (item + 37) % 100,
            };
            (here, 4.0 + (x % 5) as f64)
        })
        .collect()
}

fn trace(records: &[(usize, f64)]) -> Workload {
    let mut t = Trace::new();
    for &(item, viewing) in records {
        t.push(item, viewing);
    }
    Workload::trace(t)
}

#[test]
fn a_steady_state_trace_round_allocates_nothing() {
    let once = walk(300);
    let twice: Vec<(usize, f64)> = once.iter().chain(&once).copied().collect();
    let (t, tt) = (trace(&once), trace(&twice));
    let catalog: Vec<f64> = (0..100).map(|i| 1.0 + (i * 7 % 13) as f64).collect();
    let mut engine = Engine::builder()
        .policy("skp-exact")
        .predictor("ngram:2")
        .catalog(catalog)
        .cache(12)
        .build()
        .unwrap();

    // Warm: every context and successor of T seen, every buffer grown.
    let warm = engine.run(&tt).unwrap();
    let report = warm.trace().expect("trace section");
    assert!(report.hit_rate > 0.2, "hit rate {}", report.hit_rate);
    assert!(report.wasted_per_request > 0.0, "rounds prefetch");

    let mut reports = Vec::with_capacity(2);
    let a = allocations(|| reports.push(engine.run(&t).unwrap()));
    let b = allocations(|| reports.push(engine.run(&tt).unwrap()));
    assert_eq!(reports[1].access.count, 2 * reports[0].access.count + 1);
    assert_eq!(
        a,
        b,
        "a run over T made {a} allocations and one over T twice made {b}: \
         the {} extra rounds allocated",
        once.len()
    );
}

#[test]
fn a_steady_state_figure7_round_allocates_nothing() {
    let sim = |requests| PrefetchCacheSim {
        n_states: 40,
        min_fanout: 4,
        max_fanout: 10,
        warmup: 4_000,
        ..PrefetchCacheSim::paper(requests, 11)
    };
    let (chain, catalog) = sim(0).workload();
    for (policy, sub) in [
        (PolicyKind::NoPrefetch, SubArbitration::None),
        (PolicyKind::SkpPaper, SubArbitration::Lfu),
        (PolicyKind::SkpExact, SubArbitration::DelaySaving),
        (PolicyKind::Kp, SubArbitration::None),
        (PolicyKind::KpGreedy, SubArbitration::Lfu),
    ] {
        let cfg = PrefetchCacheConfig { sub, capacity: 8 };
        let run = |requests| {
            let mut point = None;
            let made = allocations(|| {
                point = Some(sim(requests).run_point(&chain, &catalog, "p", policy, cfg, 5));
            });
            (made, point.expect("ran"))
        };
        let (a, once) = run(500);
        let (b, twice) = run(1_000);
        assert_eq!(twice.access.count(), 2 * once.access.count());
        assert!(twice.hit_rate > 0.0, "{policy:?}: rounds hit");
        assert_eq!(
            a, b,
            "{policy:?}: a point measuring 500 requests made {a} allocations and one \
             measuring 1000 made {b}: the 500 extra rounds allocated"
        );
    }
}

/// Observability adds no allocation per event. `none` is the off
/// switch, so it allocates exactly what a session without `.obs`
/// does. `memory` records phase spans and epoch marks; its surplus over
/// off may grow only with the marks vector, not with the events.
#[test]
fn observability_allocates_nothing_per_event() {
    let chain = MarkovChain::random(48, 47, 47, 3, 8, 3).expect("valid chain");
    let run = |obs: Option<&str>, requests: u64| -> u64 {
        let mut builder = Engine::builder()
            .policy("skp-exact")
            .backend_spec("sharded:4x8:hash")
            .catalog((0..48).map(|i| 1.0 + (i % 30) as f64).collect());
        if let Some(spec) = obs {
            builder = builder.obs(spec);
        }
        let mut engine = builder.build().expect("valid session");
        let workload = Workload::sharded(chain.clone(), requests, 1999);
        engine.run(&workload).expect("runs"); // warm: plans stored
        allocations(|| drop(engine.run(&workload).expect("runs")))
    };
    let surplus = |requests: u64| {
        let off = run(None, requests);
        assert_eq!(
            run(Some("none"), requests),
            off,
            "obs 'none' allocated differently from obs unset at {requests} requests"
        );
        let memory = run(Some("memory"), requests);
        assert!(memory > off, "obs 'memory' records spans and marks");
        memory - off
    };
    let (r, r2) = (surplus(300), surplus(600));
    assert!(
        r2 <= r + 2,
        "obs 'memory' allocated {r} more than off at 300 requests per client and \
         {r2} more at 600: it allocates per event"
    );
}

/// A deterministic ring: the next request is always `state + 1`.
struct Ring;

impl ClientWorkload for Ring {
    fn viewing(&self, state: usize) -> f64 {
        2.0 + (state % 5) as f64
    }

    fn next(&self, state: usize, _rng: &mut SmallRng) -> usize {
        (state + 1) % 48
    }

    fn n_items(&self) -> usize {
        48
    }
}

/// An inert fault plan (identity scaling, no outage windows) costs a
/// fixed number of allocations per run, however long the run.
#[test]
fn an_inert_fault_plan_allocates_nothing_per_request() {
    let retrievals: Vec<f64> = (0..48).map(|i| 1.0 + (i % 7) as f64).collect();
    let inert = FaultSpec::inert();
    let run = |shards, clients, requests, faults| {
        let sim = ShardedSim {
            workload: &Ring,
            retrievals: &retrievals,
            clients,
            shards,
            placement: Placement::Hash,
            requests_per_client: requests,
            seed: 1999,
            faults,
        };
        allocations(|| drop(sim.run(&mut |_c: usize, s: usize| vec![(s + 1) % 48])))
    };
    run(1, 8, 10, Some(&inert)); // warm: any one-time setup
    for (shards, clients) in [(1, 8), (4, 8), (16, 32)] {
        let surplus = |requests| {
            let off = run(shards, clients, requests, None);
            run(shards, clients, requests, Some(&inert)) as i64 - off as i64
        };
        let (r, r2) = (surplus(200), surplus(400));
        assert_eq!(
            r, r2,
            "{shards}x{clients}: the inert plan allocated {r} more than no faults at 200 \
             requests per client and {r2} more at 400"
        );
    }
}
