//! Fault-machinery overhead — the acceptance bench of the
//! adversarial-workload subsystem.
//!
//! **Fault injection is free when inert**, asserted on every run:
//! running the scheduler with `FaultSpec::inert()` (identity service
//! scaling, no outage windows) produces a report bit-identical to
//! running with no faults at all, and its median wall-clock overhead
//! across the grid stays within 2% (the timing gate is skipped under
//! `--quick`; the 1-sample timings are too noisy to gate on).
//!
//! `--out <path>` writes the grid as a JSON snapshot.

use distsys::{FaultSpec, Placement, ShardedSim};
use rand::rngs::SmallRng;
use speculative_prefetch::wire::{list, num};
use std::time::{Duration, Instant};

const N: usize = 48;

/// Deterministic ring workload: next item is always `state + 1`, so a
/// next-state policy prefetches perfectly and the bench exercises the
/// steady-state scheduler path without sampling noise.
struct Ring {
    n: usize,
}
impl distsys::scheduler::ClientWorkload for Ring {
    fn viewing(&self, state: usize) -> f64 {
        2.0 + (state % 5) as f64
    }
    fn next(&self, state: usize, _rng: &mut SmallRng) -> usize {
        (state + 1) % self.n
    }
    fn n_items(&self) -> usize {
        self.n
    }
}

fn sharded_report(
    shards: usize,
    clients: usize,
    requests: u64,
    faults: Option<&FaultSpec>,
) -> distsys::ShardReport {
    let ring = Ring { n: N };
    let retrievals: Vec<f64> = (0..N).map(|i| 1.0 + (i % 7) as f64).collect();
    let sim = ShardedSim {
        workload: &ring,
        retrievals: &retrievals,
        clients,
        shards,
        placement: Placement::Hash,
        requests_per_client: requests,
        seed: 1999,
        faults,
    };
    sim.run(&mut |_c: usize, s: usize| vec![(s + 1) % N])
}

/// Times the two runs interleaved — off, inert, off, inert, … — and
/// keeps each side's fastest sample: the minimum is the noise-robust
/// estimator on a shared host, and interleaving stops slow host drift
/// (frequency shifts, neighbours) from biasing one side.
fn timed_pair<R>(
    samples: usize,
    mut off: impl FnMut() -> R,
    mut inert: impl FnMut() -> R,
) -> (R, R, Duration, Duration) {
    let (off_result, inert_result) = (off(), inert()); // warm-up + results
    let (mut best_off, mut best_inert) = (Duration::MAX, Duration::MAX);
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(off());
        best_off = best_off.min(start.elapsed());
        let start = Instant::now();
        std::hint::black_box(inert());
        best_inert = best_inert.min(start.elapsed());
    }
    (off_result, inert_result, best_off, best_inert)
}

struct Cell {
    shards: usize,
    clients: usize,
    off: Duration,
    inert: Duration,
}

impl Cell {
    /// Fractional overhead of the inert fault plan over the no-faults
    /// baseline (0.02 = 2% slower; negative = noise).
    fn overhead(&self) -> f64 {
        self.inert.as_secs_f64() / self.off.as_secs_f64().max(1e-12) - 1.0
    }

    fn json(&self) -> String {
        format!(
            "{{\"shards\":{},\"clients\":{},\"off_ms\":{},\"inert_ms\":{},\
             \"inert_overhead\":{}}}",
            self.shards,
            self.clients,
            num(self.off.as_secs_f64() * 1e3),
            num(self.inert.as_secs_f64() * 1e3),
            num(self.overhead()),
        )
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite overheads"));
    xs[xs.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (requests, samples): (u64, usize) = if quick { (200, 1) } else { (3000, 11) };
    let shard_grid: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8, 16] };
    let client_grid: &[usize] = if quick { &[8] } else { &[8, 32] };

    println!("inert fault-plan overhead on the scheduler grid");
    let inert = FaultSpec::inert();
    let mut cells = Vec::new();
    for &clients in client_grid {
        for &shards in shard_grid {
            let (off_report, inert_report, off, inert_t) = timed_pair(
                samples,
                || sharded_report(shards, clients, requests, None),
                || sharded_report(shards, clients, requests, Some(&inert)),
            );
            assert_eq!(
                off_report, inert_report,
                "an inert fault plan changed results at {shards}x{clients}"
            );
            let cell = Cell {
                shards,
                clients,
                off,
                inert: inert_t,
            };
            println!(
                "  {shards:>2} shards x {clients:>2} clients: off {:>8.3} ms  inert {:>+6.2}%",
                off.as_secs_f64() * 1e3,
                cell.overhead() * 1e2,
            );
            cells.push(cell);
        }
    }
    if let Some(path) = out {
        let snapshot = format!(
            "{{\"bench\":\"generators\",\"requests_per_client\":{requests},\
             \"samples\":{samples},\"quick\":{quick},\"cells\":{}}}\n",
            list(&cells, Cell::json)
        );
        std::fs::write(&path, snapshot).expect("write snapshot");
        println!("snapshot written to {path}");
    }
    let med = median(cells.iter().map(Cell::overhead).collect());
    println!("median inert-fault overhead: {:+.2}%", med * 1e2);
    if !quick {
        assert!(
            med <= 0.02,
            "the inert fault plan exceeded its 2% overhead budget (median {:+.2}%)",
            med * 1e2
        );
    }
}
