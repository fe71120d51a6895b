//! Daemon request-latency bench: an in-process `skp-serve` under a
//! stream of `POST /run` wire runs, reported as the same `AccessStats`
//! percentile block the simulations use — client-observed round-trip
//! latency next to the daemon's own `/stats` view.
//!
//! `--quick` shrinks the request count for CI; `--out <path>` writes
//! the snapshot (the checked-in `BENCH_serve.json` at the repo root is
//! one such run).

use skp_serve::{ServeConfig, Server};
use speculative_prefetch::wire::render_access;
use speculative_prefetch::{http_request, AccessStats, MarkovChain, WireRun};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let iterations: usize = if quick { 20 } else { 100 };

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind daemon");
    let addr = server.local_addr().to_string();
    let handle = server.spawn().expect("spawn daemon");

    let chain = MarkovChain::random(24, 2, 4, 5, 20, 7).expect("valid chain");
    let retrievals: Vec<f64> = (0..24).map(|i| 1.0 + (i % 8) as f64).collect();
    let body = WireRun::new(
        "sharded",
        "sharded:4x16:hash",
        "skp-exact",
        &chain,
        &retrievals,
        50,
        1999,
        false,
    )
    .render();

    println!("daemon round-trip latency over {iterations} POST /run requests");
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        let resp = http_request(&addr, "POST", "/run", Some(&body)).expect("daemon reachable");
        assert_eq!(resp.status, 200, "{}", resp.body);
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let round_trip = AccessStats::from_samples(&mut samples);
    println!(
        "  client-observed: mean {:.3} ms  p50 {:.3} ms  p99 {:.3} ms",
        round_trip.mean, round_trip.p50, round_trip.p99
    );

    let stats = http_request(&addr, "GET", "/stats", None).expect("GET /stats");
    assert_eq!(stats.status, 200);
    println!("  daemon /stats: {}", stats.body);

    if let Some(path) = out {
        let snapshot = format!(
            "{{\"bench\":\"serve\",\"iterations\":{iterations},\"quick\":{quick},\
             \"round_trip_ms\":{},\"daemon_stats\":{}}}\n",
            render_access(&round_trip),
            stats.body
        );
        std::fs::write(&path, snapshot).expect("write snapshot");
        println!("snapshot written to {path}");
    }

    handle.shutdown().expect("clean shutdown");
}
