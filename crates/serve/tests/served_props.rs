//! The local ≡ `served:` half of the determinism contract on random
//! inputs: random Markov chains on random sharded farms, traced and
//! untraced, sent through one in-process daemon, come back as the
//! `RunReport` the in-process run gives — stats, section and every
//! event of the log.

use std::net::SocketAddr;
use std::sync::OnceLock;

use proptest::prelude::*;
use skp_serve::{ServeConfig, Server, ServerHandle};
use speculative_prefetch::{Engine, MarkovChain, Workload};

/// The one daemon every case posts to. It starts on first use and runs
/// until the test process exits; its plan store is shared, so a later
/// case may hit an earlier case's plans, which must not change a report.
fn daemon() -> SocketAddr {
    static DAEMON: OnceLock<ServerHandle> = OnceLock::new();
    DAEMON
        .get_or_init(|| {
            Server::bind("127.0.0.1:0", ServeConfig::default())
                .expect("bind ephemeral port")
                .spawn()
                .expect("spawn server thread")
        })
        .addr()
}

fn engine(catalog: &[f64], backend_spec: &str) -> Engine {
    Engine::builder()
        .policy("skp-exact")
        .catalog(catalog.to_vec())
        .backend_spec(backend_spec)
        .build()
        .expect("engine builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn served_run_equals_the_local_run(
        states in 2usize..20,
        fanout in 1usize..5,
        chain_seed in 0u64..u64::MAX,
        farm in (1usize..=8, 1usize..=32, 0usize..3, 0usize..20),
        requests in 1u64..16,
        seed in 0u64..u64::MAX,
        traced in proptest::bool::ANY,
    ) {
        let (shards, clients, placement, hot) = farm;
        let fanout = fanout.min(states - 1);
        let chain = MarkovChain::random(states, 1, fanout, 1, 30, chain_seed).expect("valid chain");
        let catalog: Vec<f64> = (0..states).map(|i| 0.5 + (i * 7 % 11) as f64).collect();
        let placement = match placement {
            0 => "hash".to_string(),
            1 => "range".to_string(),
            _ => format!("hot-cold@{hot}"),
        };
        let inner = format!("sharded:{shards}x{clients}:{placement}");
        let workload = Workload::sharded(chain, requests, seed).traced(traced);

        let local = engine(&catalog, &inner).run(&workload).expect("local run");
        let addr = daemon();
        let served = engine(&catalog, &format!("served:{}:{}:{inner}", addr.ip(), addr.port()))
            .run(&workload)
            .expect("served run");

        prop_assert_eq!(&served, &local, "{} traced={}", inner, traced);
        prop_assert_eq!(local.events.is_empty(), !traced, "{}", inner);
    }
}
