//! Property tests for the discrete-event substrate: ordering laws of the
//! event queue and structural properties of session replays.

use distsys::{
    run_session, EventKind, EventQueue, FaultSpec, Placement, SessionConfig, ShardMap, ShardedSim,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Deterministic ring workload used by the sharding properties.
struct Ring {
    n: usize,
    viewing: f64,
}
impl distsys::scheduler::ClientWorkload for Ring {
    fn viewing(&self, _state: usize) -> f64 {
        self.viewing
    }
    fn next(&self, state: usize, _rng: &mut SmallRng) -> usize {
        (state + 1) % self.n
    }
    fn n_items(&self) -> usize {
        self.n
    }
}

/// Seeded random walk: the next item is drawn uniformly, so a run's
/// request stream depends on the seed.
struct Walk {
    n: usize,
}
impl distsys::scheduler::ClientWorkload for Walk {
    fn viewing(&self, state: usize) -> f64 {
        1.0 + (state % 4) as f64
    }
    fn next(&self, _state: usize, rng: &mut SmallRng) -> usize {
        rng.random_range(0..self.n)
    }
    fn n_items(&self) -> usize {
        self.n
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop in non-decreasing time order with FIFO tie-breaks.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0.0f64..1000.0, 1..50)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last_t = f64::NEG_INFINITY;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut popped = 0;
        while let Some((t, id)) = q.pop() {
            prop_assert!(t >= last_t);
            if t == last_t {
                // FIFO: insertion ids at equal times must be increasing.
                prop_assert!(seen_at_time.last().is_none_or(|&prev| id > prev));
                seen_at_time.push(id);
            } else {
                seen_at_time.clear();
                seen_at_time.push(id);
            }
            last_t = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Random interleavings of `schedule` and `pop` against a stable-sort
    /// reference, with every observer compared after every operation —
    /// right after a pop included, and after a drain. Times are `now`,
    /// `now + k`, `now + fraction`, far ahead, and `-0.0` at t = 0; pops
    /// hit the empty queue too.
    #[test]
    fn queue_interleaving_matches_sorted_reference(
        ops in proptest::collection::vec((0u8..10, 0u64..1_000_000), 1..300),
    ) {
        let mut q = EventQueue::new();
        // Pending `(time, payload)` in schedule order: the first minimum
        // by time is the FIFO tie-break's pick.
        let mut reference: Vec<(f64, u64)> = Vec::new();
        let mut now = 0.0_f64;
        let earliest = |reference: &Vec<(f64, u64)>| {
            (0..reference.len()).reduce(|best, i| {
                if reference[i].0 < reference[best].0 { i } else { best }
            })
        };
        for (step, &(kind, r)) in ops.iter().enumerate() {
            // Kind 9 drains the queue; the next operation then schedules
            // (or pops) on an empty queue.
            let pops = match kind {
                0..=2 => 1,
                9 => reference.len() + 1,
                _ => 0,
            };
            for _ in 0..pops {
                let expect = earliest(&reference).map(|i| reference.remove(i));
                let got = q.pop();
                prop_assert_eq!(
                    got.map(|(at, p)| (at.to_bits(), p)),
                    expect.map(|(at, p)| (at.to_bits(), p)),
                    "pop at step {}", step
                );
                if let Some((at, _)) = expect {
                    now = at;
                }
            }
            if pops == 0 {
                let at = match kind {
                    3 => now,
                    4 => now + (r % 5) as f64,
                    5 => now + (r % 1000) as f64 * 1e-3,
                    6 => now + 1e7 + (r % 3) as f64,
                    7 if now == 0.0 => -0.0,
                    _ => now + (r % 4) as f64 * 0.25,
                };
                let payload = step as u64;
                q.schedule(at, payload);
                reference.push((at + 0.0, payload));
            }
            prop_assert_eq!(q.now().to_bits(), now.to_bits(), "now at step {}", step);
            prop_assert_eq!(q.len(), reference.len(), "len at step {}", step);
            prop_assert_eq!(q.is_empty(), reference.is_empty(), "is_empty at step {}", step);
            prop_assert_eq!(
                q.peek_time().map(f64::to_bits),
                earliest(&reference).map(|i| reference[i].0.to_bits()),
                "peek_time at step {}", step
            );
        }
    }

    /// Session laws for random catalogs/plans:
    /// - T ≥ 0;
    /// - T = 0 iff served instantly;
    /// - monotonicity in v: more viewing time never hurts;
    /// - the miss penalty equals total plan overrun + own retrieval.
    #[test]
    fn session_laws(
        retrievals in proptest::collection::vec(1.0f64..30.0, 2..8),
        plan_picks in proptest::collection::vec(0usize..8, 0..5),
        request in 0usize..8,
        viewing in 0.0f64..60.0,
    ) {
        let n = retrievals.len();
        let mut plan: Vec<usize> = Vec::new();
        for p in plan_picks {
            let id = p % n;
            if !plan.contains(&id) {
                plan.push(id);
            }
        }
        let request = request % n;
        let cfg = SessionConfig { viewing, plan: &plan, request, cached: &[] };
        let out = run_session(&retrievals, &cfg, 1, Placement::Hash);

        prop_assert!(out >= 0.0);

        // Monotonicity in viewing time.
        let cfg2 = SessionConfig { viewing: viewing + 5.0, plan: &plan, request, cached: &[] };
        let out2 = run_session(&retrievals, &cfg2, 1, Placement::Hash);
        prop_assert!(
            out2 <= out + 1e-9,
            "more viewing time must not hurt: {} vs {}",
            out2,
            out
        );

        // Misses: T = max(plan total, v) − v + r.
        if !plan.contains(&request) {
            let total: f64 = plan.iter().map(|&i| retrievals[i]).sum();
            let expected = total.max(viewing) - viewing + retrievals[request];
            prop_assert!((out - expected).abs() < 1e-9);
        }

        // Cached requests are always free.
        let cached = [request];
        let cfg3 = SessionConfig { viewing, plan: &plan, request, cached: &cached };
        prop_assert_eq!(run_session(&retrievals, &cfg3, 1, Placement::Hash), 0.0);
    }

    /// Every catalog item maps to exactly one shard, in range and
    /// deterministically, under each placement strategy.
    #[test]
    fn placement_is_a_total_function(
        n_items in 1usize..200,
        shards in 1usize..16,
        hot in 0usize..250,
    ) {
        for placement in [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: hot },
        ] {
            let map = ShardMap::new(shards, n_items, placement);
            let mut per_shard = vec![0u64; shards];
            for item in 0..n_items {
                let s = map.shard_of(item);
                prop_assert!(s < shards, "{placement:?}: item {item} -> shard {s}");
                prop_assert_eq!(s, map.shard_of(item), "must be deterministic");
                per_shard[s] += 1;
            }
            // Exactly one shard per item: the shard counts partition
            // the catalog.
            prop_assert_eq!(per_shard.iter().sum::<u64>(), n_items as u64);
        }
    }

    /// One shard is one shared channel whatever the placement: a
    /// single-shard run under any placement gives the hash-placed run's
    /// event log (same events, same order, same times) and report, for
    /// any seed and population.
    #[test]
    fn one_shard_matches_shared_channel_event_for_event(
        seed in 0u64..1_000,
        clients in 1usize..6,
        placement_pick in 0usize..3,
    ) {
        let ring = Ring { n: 12, viewing: 4.0 };
        let retrievals: Vec<f64> = (0..12).map(|i| 1.0 + (i % 7) as f64).collect();
        let placement = [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: 4 },
        ][placement_pick];

        let mut p1 = |_c: usize, s: usize| vec![(s + 1) % 12];
        let (legacy, legacy_log) = ShardedSim {
            workload: &ring,
            retrievals: &retrievals,
            clients,
            shards: 1,
            placement: Placement::Hash,
            requests_per_client: 25,
            seed,
            faults: None,
        }
        .run_traced(&mut p1);

        let mut p2 = |_c: usize, s: usize| vec![(s + 1) % 12];
        let (sharded, sharded_log) = ShardedSim {
            workload: &ring,
            retrievals: &retrievals,
            clients,
            shards: 1,
            placement,
            requests_per_client: 25,
            seed,
            faults: None,
        }
        .run_traced(&mut p2);

        prop_assert_eq!(legacy_log, sharded_log);
        prop_assert_eq!(legacy.access, sharded.access);
        prop_assert_eq!(legacy.wasted_transfer, sharded.wasted_transfer);
        prop_assert_eq!(legacy.total_transfer, sharded.total_transfer);
        prop_assert_eq!(legacy, sharded);
    }

    /// An inert fault plan is no fault plan: over random topologies,
    /// placements and seeds, `faults: Some(&FaultSpec::inert())` gives
    /// the `faults: None` report and event log, bit for bit.
    #[test]
    fn inert_faults_match_no_faults_bit_for_bit(
        seed in 0u64..1_000_000,
        shards in 1usize..6,
        clients in 1usize..6,
        placement_pick in 0usize..3,
    ) {
        let walk = Walk { n: 16 };
        let retrievals: Vec<f64> = (0..16).map(|i| 0.5 + (i % 7) as f64).collect();
        let placement = [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: 4 },
        ][placement_pick];
        let run = |faults: Option<&FaultSpec>| {
            ShardedSim {
                workload: &walk,
                retrievals: &retrievals,
                clients,
                shards,
                placement,
                requests_per_client: 30,
                seed,
                faults,
            }
            .run_traced(&mut |_c: usize, s: usize| vec![(s + 1) % 16, (s + 7) % 16])
        };
        let (plain, plain_log) = run(None);
        let (inert, inert_log) = run(Some(&FaultSpec::inert()));
        // `Debug` prints every float's shortest round-trip form, so equal
        // renderings are equal bits.
        prop_assert_eq!(format!("{plain:?}"), format!("{inert:?}"));
        prop_assert_eq!(format!("{plain_log:?}"), format!("{inert_log:?}"));
        prop_assert!(!plain_log.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Topologies on both sides of every 64-shard word boundary (and
    /// past 128, where a `u128` mask runs out): every request is served,
    /// tracing changes nothing, and each shard's channel runs its
    /// transfers one at a time, each for exactly its item's retrieval
    /// time. Every round's plan holds an item of the highest shard that
    /// owns one, so that shard's channel must run.
    #[test]
    fn wide_topologies_serve_every_request(
        seed in 0u64..1_000_000,
        shards_pick in 0usize..8,
        clients in 1usize..24,
        placement_pick in 0usize..3,
        hot in 0usize..40,
    ) {
        const N: usize = 320;
        let shards = [63usize, 64, 65, 127, 128, 129, 200, 300][shards_pick];
        let placement = [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: hot },
        ][placement_pick];
        let map = ShardMap::new(shards, N, placement);
        let last_item = (0..N).max_by_key(|&i| map.shard_of(i)).unwrap();
        let last_shard = map.shard_of(last_item);
        let walk = Walk { n: N };
        let retrievals: Vec<f64> = (0..N).map(|i| 0.25 + (i % 9) as f64 * 0.5).collect();
        let requests_per_client = 12;
        let sim = ShardedSim {
            workload: &walk,
            retrievals: &retrievals,
            clients,
            shards,
            placement,
            requests_per_client,
            seed,
            faults: None,
        };
        let plan = |_c: usize, s: usize| {
            let mut plan = vec![(s + 1) % N, (s + 97) % N];
            plan.retain(|&i| i != last_item);
            plan.push(last_item);
            plan
        };
        let plain = sim.run(&mut { plan });
        let (traced, log) = sim.run_traced(&mut { plan });
        prop_assert_eq!(plain.requests(), requests_per_client * clients as u64);
        prop_assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        prop_assert!(plain.shards[last_shard].jobs > 0, "shard {} ran no job", last_shard);

        // Per shard: start, done, start, done, ... — each done is its
        // start's job, `r_item` later, and no start precedes the
        // previous done.
        let mut open: Vec<Option<(f64, usize, usize)>> = vec![None; shards];
        let mut free_at = vec![0.0_f64; shards];
        for ev in &log {
            match ev.kind {
                EventKind::TransferStart(_) => {
                    prop_assert!(open[ev.shard].is_none(), "overlapping start {:?}", ev);
                    prop_assert!(ev.at >= free_at[ev.shard], "start before done {:?}", ev);
                    open[ev.shard] = Some((ev.at, ev.client, ev.item));
                }
                EventKind::TransferDone(_) => {
                    let Some((start, client, item)) = open[ev.shard].take() else {
                        return Err(TestCaseError::fail(format!("done without start {ev:?}")));
                    };
                    prop_assert_eq!((client, item), (ev.client, ev.item));
                    prop_assert_eq!(ev.at.to_bits(), (start + retrievals[item]).to_bits());
                    free_at[ev.shard] = ev.at;
                }
                EventKind::Request | EventKind::Served => {}
            }
        }
    }
}
