//! Multi-client contention experiment — the Section-6 concern at system
//! scale, driven through the facade's sharded backend with one shard.
//!
//! A population of Markov-browsing clients shares one FIFO server
//! channel. Every speculative prefetch queues ahead of other clients'
//! demand fetches, so "maximising access improvement without regard to
//! the increase in network usage" stops being free: as the population
//! grows, aggressive SKP prefetching saturates the channel while the
//! network-aware objective (μ > 0) backs off and keeps latency lower.
//!
//! Each (policy × population) cell is one `SessionBuilder` line: the
//! policy comes from the registry, the population from the backend
//! (`sharded:1x<clients>:hash`, one shared channel).
//!
//! Reported per cell: mean access time, channel utilisation, and wasted
//! transfer share.

use experiments::{print_table, Args};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use speculative_prefetch::{write_csv, Engine, MarkovChain, Workload};

const N: usize = 40;

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let requests = args.get_u64("requests", if quick { 400 } else { 4_000 });
    let seed = args.get_u64("seed", 1999);
    let out = args.out_dir();

    let chain = MarkovChain::random(N, 4, 8, 10, 60, seed ^ 0x3C).expect("valid chain");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3D);
    let retrievals: Vec<f64> = (0..N).map(|_| rng.random_range(1u32..=30) as f64).collect();

    println!("== Multi-client contention: shared FIFO channel ==");
    println!("   {N} items, v in [10,60], r in [1,30], {requests} requests/client\n");

    let policies = [
        ("none", "no-prefetch"),
        ("KP", "kp"),
        ("SKP", "skp-exact"),
        ("SKP μ=0.25", "network-aware:0.25"),
        ("SKP μ=1.0", "network-aware:1.0"),
    ];

    // One workload value for the whole grid; each cell is one
    // `SessionBuilder` line plus `Engine::run`.
    let workload = Workload::sharded(chain, requests, seed);
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for clients in [1usize, 2, 4, 8, 16] {
        for (pi, (name, spec)) in policies.iter().enumerate() {
            let mut engine = Engine::builder()
                .policy(spec)
                .backend_spec(&format!("sharded:1x{clients}:hash"))
                .catalog(retrievals.clone())
                .build()
                .expect("valid session");
            let run = engine.run(&workload).expect("backend configured");
            let r = run.sharded().expect("sharded section");
            let channel = &r.shards[0];
            let waste_share = if r.total_transfer > 0.0 {
                r.wasted_transfer / r.total_transfer
            } else {
                0.0
            };
            rows.push(vec![
                clients.to_string(),
                name.to_string(),
                format!("{:.2}", r.mean_access_time()),
                format!("{:.0}%", channel.utilisation * 100.0),
                format!("{:.0}%", waste_share * 100.0),
                format!("{:.1}", channel.mean_queue_depth),
            ]);
            csv_rows.push(vec![
                clients as f64,
                pi as f64,
                r.mean_access_time(),
                channel.utilisation,
                waste_share,
                channel.mean_queue_depth,
            ]);
        }
    }

    print_table(
        &[
            "clients",
            "policy",
            "mean T",
            "channel busy",
            "waste share",
            "queue len",
        ],
        &rows,
    );
    let path = out.join("multiclient.csv");
    write_csv(
        &path,
        &[
            "clients",
            "policy_id",
            "mean_T",
            "utilisation",
            "waste_share",
            "queue_len",
        ],
        &csv_rows,
    )
    .expect("write csv");
    println!("\n   wrote {}", path.display());
    println!("\nReading: with few clients plain SKP wins; as the channel saturates,");
    println!("network-aware prefetching (and eventually no prefetching) overtakes it —");
    println!("the trade-off policy Section 6 calls for, now visible at system scale.");
}
