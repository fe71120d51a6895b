//! Tests of the paper's distributed information system: many clients
//! sharing one FIFO server channel, which is
//! [`ShardedSim`](crate::scheduler::ShardedSim) with one shard.
//!
//! Every speculative prefetch one client issues queues ahead of the
//! other clients' traffic. These tests pin what that shared channel
//! measures: a perfect prefetch is free, a wrong one is wasted transfer
//! and delay, and a crowd raises everyone's access time.

mod tests {
    use crate::scheduler::{ClientWorkload, Placement, ShardReport, ShardedSim};
    use rand::rngs::SmallRng;

    /// Deterministic 2-state round-robin workload.
    struct RoundRobin {
        viewing: f64,
    }

    impl ClientWorkload for RoundRobin {
        fn viewing(&self, _state: usize) -> f64 {
            self.viewing
        }
        fn next(&self, state: usize, _rng: &mut SmallRng) -> usize {
            1 - state
        }
        fn n_items(&self) -> usize {
            2
        }
    }

    /// `clients` clients on one shared channel.
    fn sim<'a>(
        workload: &'a RoundRobin,
        retrievals: &'a [f64],
        clients: usize,
        requests: u64,
    ) -> ShardedSim<'a, RoundRobin> {
        ShardedSim {
            workload,
            retrievals,
            clients,
            shards: 1,
            placement: Placement::Hash,
            requests_per_client: requests,
            seed: 9,
            faults: None,
        }
    }

    /// Busy share of the one channel.
    fn utilisation(out: &ShardReport) -> f64 {
        out.shards[0].utilisation
    }

    #[test]
    fn single_client_perfect_prefetch_is_free() {
        // The next state is deterministic; prefetching it always hits and
        // fits in the window (r = 3 < v = 10).
        let rr = RoundRobin { viewing: 10.0 };
        let retrievals = [3.0, 3.0];
        let s = sim(&rr, &retrievals, 1, 50);
        let mut policy = |_c: usize, state: usize| vec![1 - state];
        let out = s.run(&mut policy);
        assert_eq!(out.requests(), 50);
        assert!(
            out.mean_access_time() < 1e-9,
            "mean {}",
            out.mean_access_time()
        );
        assert!(out.wasted_transfer < 1e-9);
        assert_eq!(out.access.p99, 0.0);
    }

    #[test]
    fn single_client_no_prefetch_pays_retrieval() {
        let rr = RoundRobin { viewing: 10.0 };
        let retrievals = [4.0, 4.0];
        let s = sim(&rr, &retrievals, 1, 40);
        let mut policy = |_c: usize, _state: usize| Vec::new();
        let out = s.run(&mut policy);
        assert!((out.mean_access_time() - 4.0).abs() < 1e-9);
        assert_eq!(out.wasted_transfer, 0.0);
        // Every stall is the same retrieval: the quantiles agree.
        assert!((out.access.p50 - 4.0).abs() < 1e-9);
        assert!((out.access.p99 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_prefetches_count_as_waste_and_delay() {
        // Prefetch the *current* item (never requested next): every
        // request is a miss that queues behind the useless prefetch.
        let rr = RoundRobin { viewing: 1.0 };
        let retrievals = [5.0, 5.0];
        let s = sim(&rr, &retrievals, 1, 30);
        let mut policy = |_c: usize, state: usize| vec![state];
        let out = s.run(&mut policy);
        assert!(
            out.mean_access_time() > 5.0,
            "mean {}",
            out.mean_access_time()
        );
        assert!(out.wasted_transfer > 0.0);
    }

    #[test]
    fn contention_raises_access_time() {
        // Many no-prefetch clients on one channel: service degrades
        // relative to a single client.
        let rr = RoundRobin { viewing: 2.0 };
        let retrievals = [4.0, 4.0];
        let mut none = |_c: usize, _s: usize| Vec::new();
        let solo = sim(&rr, &retrievals, 1, 40).run(&mut none);
        let mut none2 = |_c: usize, _s: usize| Vec::new();
        let crowd = sim(&rr, &retrievals, 8, 40).run(&mut none2);
        assert!(
            crowd.mean_access_time() > solo.mean_access_time() + 1.0,
            "8 clients {} vs 1 client {}",
            crowd.mean_access_time(),
            solo.mean_access_time()
        );
        assert!(utilisation(&crowd) > utilisation(&solo));
    }

    #[test]
    fn utilisation_bounded_by_one() {
        let rr = RoundRobin { viewing: 1.0 };
        let retrievals = [9.0, 9.0];
        let mut policy = |_c: usize, state: usize| vec![1 - state];
        let out = sim(&rr, &retrievals, 6, 25).run(&mut policy);
        assert!(utilisation(&out) <= 1.0 + 1e-9);
        assert!(utilisation(&out) > 0.9, "overloaded channel should be busy");
    }

    #[test]
    fn deterministic_in_seed() {
        let rr = RoundRobin { viewing: 3.0 };
        let retrievals = [2.0, 7.0];
        let mut p1 = |_c: usize, state: usize| vec![1 - state];
        let a = sim(&rr, &retrievals, 3, 30).run(&mut p1);
        let mut p2 = |_c: usize, state: usize| vec![1 - state];
        let b = sim(&rr, &retrievals, 3, 30).run(&mut p2);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_agrees_with_plain_run() {
        let rr = RoundRobin { viewing: 3.0 };
        let retrievals = [2.0, 7.0];
        let mut p1 = |_c: usize, state: usize| vec![1 - state];
        let plain = sim(&rr, &retrievals, 3, 30).run(&mut p1);
        let mut p2 = |_c: usize, state: usize| vec![1 - state];
        let (traced, log) = sim(&rr, &retrievals, 3, 30).run_traced(&mut p2);
        assert_eq!(plain, traced);
        assert!(log.iter().all(|e| e.shard == 0), "one channel, one shard");
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let rr = RoundRobin { viewing: 1.0 };
        let retrievals = [1.0, 1.0];
        let mut p = |_c: usize, _s: usize| Vec::new();
        let _ = sim(&rr, &retrievals, 0, 1).run(&mut p);
    }
}
