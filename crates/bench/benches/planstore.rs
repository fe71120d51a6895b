//! Cold vs warm population runs across the plan-store tiers — the
//! wall-clock acceptance bench of the plan-store subsystem.
//!
//! The workload is solve-dominated: a 96-state chain with heavy
//! fan-out under `skp-exact`, so per-state plan solving dwarfs the
//! event simulation. Every cell runs the identical workload twice per
//! tier spec — **cold** (fresh engine, empty store) and **warm**
//! (fresh engine, sharing the store a previous run populated) —
//! asserts the two `RunReport`s are bit-identical including the event
//! log, and reports both wall-clock times and the warm speed-up. `--quick` shrinks the sweep for CI while keeping the
//! equivalence assertion; `--out <path>` writes the sweep as a JSON
//! snapshot — the checked-in `BENCH_planstore.json` at the repo root
//! is one such run.
//!
//! All `file:` state lives under one scratch directory that is removed
//! before the bench exits, so repeated runs (and CI) never inherit a
//! warm store by accident.

use speculative_prefetch::wire::{esc, list, num};
use speculative_prefetch::{build_plan_store, Engine, MarkovChain, PlanStore, RunReport, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 96;
const CLIENTS: usize = 4;

fn engine(store: &Arc<dyn PlanStore>) -> Engine {
    Engine::builder()
        .policy("skp-exact")
        .backend_spec(&format!("sharded:2x{CLIENTS}:hash"))
        .catalog((0..N).map(|i| 1.0 + (i % 17) as f64).collect())
        .plan_store_instance(Arc::clone(store))
        .build()
        .expect("valid session")
}

/// One run on a *fresh* engine sharing `store` — cross-run reuse goes
/// through the store alone, never through engine-private state.
fn run_once(store: &Arc<dyn PlanStore>, workload: &Workload) -> (RunReport, Duration) {
    let mut engine = engine(store);
    let start = Instant::now();
    let report = engine.run(workload).expect("runs");
    (report, start.elapsed())
}

struct Cell {
    spec: String,
    cold: Duration,
    warm: Duration,
    warm_hits: u64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            "{{\"store\":\"{}\",\"cold_ms\":{},\"warm_ms\":{},\"speedup\":{},\"warm_hits\":{}}}",
            esc(&self.spec),
            num(self.cold.as_secs_f64() * 1e3),
            num(self.warm.as_secs_f64() * 1e3),
            num(self.speedup()),
            self.warm_hits,
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (requests, samples): (u64, usize) = if quick { (8, 1) } else { (16, 5) };

    let root = std::env::temp_dir().join(format!("skp-plan-store-bench-{}", std::process::id()));
    let specs: Vec<String> = vec![
        "none".to_string(),
        "memory:8x1024".to_string(),
        format!("file:{}", root.join("file").display()),
        format!(
            "tiered:memory:8x1024,file:{}",
            root.join("tiered").display()
        ),
    ];

    // Solve-dominated: heavy fan-out makes each state's skp-exact solve
    // expensive relative to simulating a handful of requests.
    let chain = MarkovChain::random(N, 20, 28, 3, 8, 11).expect("valid chain");
    let workload = Workload::sharded(chain.clone(), requests, 1999);
    let traced = Workload::sharded(chain, requests, 1999).traced(true);

    println!(
        "cold vs warm population runs ({N} states, {CLIENTS} clients x {requests} requests, \
         skp-exact)"
    );
    let mut cells = Vec::new();
    for spec in &specs {
        // A wiped scratch dir makes every cold sample genuinely cold
        // for the persistent tiers; in-memory tiers get a fresh store
        // per sample anyway.
        let wipe = || {
            let _ = std::fs::remove_dir_all(&root);
        };

        // The determinism gate first: warm output is bit-identical to
        // cold, event log included.
        wipe();
        let gate = build_plan_store(spec).expect("valid spec");
        let (cold_report, _) = run_once(&gate, &traced);
        let (warm_report, _) = run_once(&gate, &traced);
        assert!(!cold_report.events.is_empty(), "{spec}: traced run");
        assert_eq!(
            cold_report, warm_report,
            "{spec}: warm run diverged from cold"
        );

        let mut cold = Duration::MAX;
        for _ in 0..samples {
            wipe();
            let store = build_plan_store(spec).expect("valid spec");
            cold = cold.min(run_once(&store, &workload).1);
        }

        wipe();
        let store = build_plan_store(spec).expect("valid spec");
        let _ = run_once(&store, &workload); // populate
        let mut warm = Duration::MAX;
        let mut warm_hits = 0;
        for _ in 0..samples {
            // Fresh engine, shared store: the cross-run reuse shape.
            let (report, t) = run_once(&store, &workload);
            warm = warm.min(t);
            warm_hits = report.plan_store.hits;
        }

        let cell = Cell {
            spec: spec.clone(),
            cold,
            warm,
            warm_hits,
        };
        println!(
            "  {:<28} cold {:>8.3} ms  warm {:>8.3} ms  ({:.2}x, {} warm hits)",
            cell.spec,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            cell.speedup(),
            cell.warm_hits,
        );
        cells.push(cell);
    }
    let _ = std::fs::remove_dir_all(&root);
    assert!(!root.exists(), "scratch dir must not leak");

    if let Some(path) = out {
        let snapshot = format!(
            "{{\"bench\":\"planstore\",\"states\":{N},\"clients\":{CLIENTS},\
             \"requests_per_client\":{requests},\"samples\":{samples},\"quick\":{quick},\
             \"cells\":{}}}\n",
            list(&cells, Cell::json)
        );
        std::fs::write(&path, snapshot).expect("write snapshot");
        println!("snapshot written to {path}");
    }

    // The acceptance claim: on solve-dominated cells every retaining
    // tier serves the warm repeat at least 2x faster than cold. The
    // `none` cell is the honest baseline (speed-up ~1) and is exempt.
    let ok = cells
        .iter()
        .filter(|c| c.spec != "none")
        .all(|c| c.speedup() >= 2.0);
    println!(
        "warm repeat >= 2x faster than cold on every retaining tier: {}",
        if ok { "yes" } else { "NO" }
    );
    if !quick {
        assert!(ok, "a retaining tier failed the 2x warm-speedup gate");
    }
}
