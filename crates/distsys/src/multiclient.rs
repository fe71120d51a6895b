//! Multi-client distributed information system — the single shared
//! channel of the paper, as the `shards = 1` special case of the
//! [sharded scheduler](crate::scheduler).
//!
//! The paper analyses a single client on a private channel. In the
//! *distributed information system* of its title, many clients share a
//! server: every speculative prefetch one client issues queues ahead of
//! other clients' traffic. This module exposes that system — a single
//! FIFO server channel (matching the paper's "prefetch completes before
//! demand fetch" discipline, extended across clients) serving a
//! population of independent Markov-browsing clients, each running its
//! own prefetch policy.
//!
//! What it measures is exactly the tension Section 6 raises: "the SKP
//! algorithm with arbitration maximises access improvement without
//! regard to the increase in network usage" — with shared capacity,
//! aggressive prefetching saturates the server and *raises* everyone's
//! access time, while the network-aware objective backs off.
//!
//! Since the sharded-core refactor, [`MultiClientSim`] has no event loop
//! of its own: it runs a [`ShardedSim`] with one shard, so the legacy
//! backend and the sharded backend are the same machine, on the same
//! [`EventQueue`](crate::engine::EventQueue). The workspace tests assert
//! they agree event for event.

use crate::faults::FaultSpec;
use crate::scheduler::{Placement, ShardReport, ShardedSim, SimEvent};
use crate::stats::AccessStats;

pub use crate::scheduler::{ClientPolicy, ClientWorkload, JobKind};

impl ClientWorkload for access_shim::Chain<'_> {
    fn viewing(&self, state: usize) -> f64 {
        self.0.viewing(state)
    }
    fn next(&self, state: usize, rng: &mut rand::rngs::SmallRng) -> usize {
        self.0.next_state(state, rng)
    }
    fn n_items(&self) -> usize {
        self.0.n_states()
    }
}

/// Thin wrapper so `distsys` does not depend on `access-model` directly:
/// the harness constructs [`access_shim::Chain`] from any Markov-like
/// source exposing the three methods.
pub mod access_shim {
    /// Borrowed Markov-like workload.
    pub struct Chain<'a>(pub &'a dyn MarkovLike);

    /// The interface the multi-client simulation needs from a chain.
    pub trait MarkovLike {
        /// Viewing time of a state.
        fn viewing(&self, state: usize) -> f64;
        /// Sample the next state.
        fn next_state(&self, state: usize, rng: &mut rand::rngs::SmallRng) -> usize;
        /// Number of states.
        fn n_states(&self) -> usize;
    }
}

/// Aggregate results of a multi-client run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClientResult {
    /// Access-time summary over all served requests (the common stats
    /// block every backend reports).
    pub access: AccessStats,
    /// Fraction of simulated time the server channel was busy.
    pub utilisation: f64,
    /// Total transfer time spent on prefetches that did not serve the
    /// round's request (wasted network usage).
    pub wasted_transfer: f64,
    /// Total transfer time spent overall.
    pub total_transfer: f64,
    /// Mean queue length sampled at job completions.
    pub mean_queue_len: f64,
}

impl MultiClientResult {
    /// Mean access time across all served requests.
    #[inline]
    pub fn mean_access_time(&self) -> f64 {
        self.access.mean
    }

    /// Requests served.
    #[inline]
    pub fn requests(&self) -> u64 {
        self.access.count
    }

    fn from_report(report: ShardReport) -> Self {
        let shard = &report.shards[0];
        Self {
            access: report.access,
            utilisation: shard.utilisation,
            wasted_transfer: report.wasted_transfer,
            total_transfer: report.total_transfer,
            mean_queue_len: shard.mean_queue_depth,
        }
    }
}

/// Configuration of a multi-client simulation on one shared channel.
pub struct MultiClientSim<'a, W: ClientWorkload> {
    /// Shared workload definition (per-state viewing and transitions).
    pub workload: &'a W,
    /// Retrieval time of each item on the shared channel.
    pub retrievals: &'a [f64],
    /// Number of clients.
    pub clients: usize,
    /// Requests to serve per client.
    pub requests_per_client: u64,
    /// Root seed.
    pub seed: u64,
    /// Optional fault injection, applied to the single shared channel
    /// (shard 0 of the underlying sharded run).
    pub faults: Option<&'a FaultSpec>,
}

impl<W: ClientWorkload> MultiClientSim<'_, W> {
    fn as_sharded(&self) -> ShardedSim<'_, W> {
        ShardedSim {
            workload: self.workload,
            retrievals: self.retrievals,
            clients: self.clients,
            shards: 1,
            placement: Placement::Hash,
            requests_per_client: self.requests_per_client,
            seed: self.seed,
            faults: self.faults,
        }
    }

    /// Runs the simulation with the given planning policy.
    ///
    /// # Panics
    /// Panics when `clients == 0` or retrieval data does not cover the
    /// workload's items.
    pub fn run(&self, policy: &mut dyn ClientPolicy) -> MultiClientResult {
        MultiClientResult::from_report(self.as_sharded().run(policy))
    }

    /// Like [`run`](Self::run), but also records the mechanistic event
    /// log, for event-for-event comparison against the sharded backend.
    pub fn run_traced(&self, policy: &mut dyn ClientPolicy) -> (MultiClientResult, Vec<SimEvent>) {
        let (report, log) = self.as_sharded().run_traced(policy);
        (MultiClientResult::from_report(report), log)
    }
}

#[cfg(test)]
mod tests {
    use super::access_shim::{Chain, MarkovLike};
    use super::*;
    use rand::rngs::SmallRng;

    /// Deterministic 2-state round-robin workload.
    struct RoundRobin {
        viewing: f64,
    }
    impl MarkovLike for RoundRobin {
        fn viewing(&self, _state: usize) -> f64 {
            self.viewing
        }
        fn next_state(&self, state: usize, _rng: &mut SmallRng) -> usize {
            1 - state
        }
        fn n_states(&self) -> usize {
            2
        }
    }

    fn sim<'a>(
        chain: &'a Chain<'a>,
        retrievals: &'a [f64],
        clients: usize,
        requests: u64,
    ) -> MultiClientSim<'a, Chain<'a>> {
        MultiClientSim {
            workload: chain,
            retrievals,
            clients,
            requests_per_client: requests,
            seed: 9,
            faults: None,
        }
    }

    #[test]
    fn single_client_perfect_prefetch_is_free() {
        // The next state is deterministic; prefetching it always hits and
        // fits in the window (r = 3 < v = 10).
        let rr = RoundRobin { viewing: 10.0 };
        let chain = Chain(&rr);
        let retrievals = [3.0, 3.0];
        let s = sim(&chain, &retrievals, 1, 50);
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
        let chain = Chain(&rr);
        let retrievals = [4.0, 4.0];
        let s = sim(&chain, &retrievals, 1, 40);
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
        let chain = Chain(&rr);
        let retrievals = [5.0, 5.0];
        let s = sim(&chain, &retrievals, 1, 30);
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
        let chain = Chain(&rr);
        let retrievals = [4.0, 4.0];
        let mut none = |_c: usize, _s: usize| Vec::new();
        let solo = sim(&chain, &retrievals, 1, 40).run(&mut none);
        let mut none2 = |_c: usize, _s: usize| Vec::new();
        let crowd = sim(&chain, &retrievals, 8, 40).run(&mut none2);
        assert!(
            crowd.mean_access_time() > solo.mean_access_time() + 1.0,
            "8 clients {} vs 1 client {}",
            crowd.mean_access_time(),
            solo.mean_access_time()
        );
        assert!(crowd.utilisation > solo.utilisation);
    }

    #[test]
    fn utilisation_bounded_by_one() {
        let rr = RoundRobin { viewing: 1.0 };
        let chain = Chain(&rr);
        let retrievals = [9.0, 9.0];
        let mut policy = |_c: usize, state: usize| vec![1 - state];
        let out = sim(&chain, &retrievals, 6, 25).run(&mut policy);
        assert!(out.utilisation <= 1.0 + 1e-9);
        assert!(out.utilisation > 0.9, "overloaded channel should be busy");
    }

    #[test]
    fn deterministic_in_seed() {
        let rr = RoundRobin { viewing: 3.0 };
        let chain = Chain(&rr);
        let retrievals = [2.0, 7.0];
        let mut p1 = |_c: usize, state: usize| vec![1 - state];
        let a = sim(&chain, &retrievals, 3, 30).run(&mut p1);
        let mut p2 = |_c: usize, state: usize| vec![1 - state];
        let b = sim(&chain, &retrievals, 3, 30).run(&mut p2);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_agrees_with_plain_run() {
        let rr = RoundRobin { viewing: 3.0 };
        let chain = Chain(&rr);
        let retrievals = [2.0, 7.0];
        let mut p1 = |_c: usize, state: usize| vec![1 - state];
        let plain = sim(&chain, &retrievals, 3, 30).run(&mut p1);
        let mut p2 = |_c: usize, state: usize| vec![1 - state];
        let (traced, log) = sim(&chain, &retrievals, 3, 30).run_traced(&mut p2);
        assert_eq!(plain, traced);
        assert!(log.iter().all(|e| e.shard == 0), "one channel, one shard");
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let rr = RoundRobin { viewing: 1.0 };
        let chain = Chain(&rr);
        let retrievals = [1.0, 1.0];
        let mut p = |_c: usize, _s: usize| Vec::new();
        let _ = sim(&chain, &retrievals, 0, 1).run(&mut p);
    }
}
