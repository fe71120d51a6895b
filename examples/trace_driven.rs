//! Trace-driven policy comparison — the offline workflow a production
//! user would run: record an access trace, persist it, then replay the
//! *same sequence* under different prefetch-cache policies with an
//! online-learned access model, all through one `Workload::trace` value
//! handed to `Engine::run`.
//!
//! Run with: `cargo run --release --example trace_driven`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use speculative_prefetch::{Catalog, Engine, Error, MarkovChain, Trace, Workload};

const ITEMS: usize = 40;
const REQUESTS: usize = 8_000;

fn main() -> Result<(), Error> {
    // 1. "Production": a session recorder walking a Markov site.
    let chain = MarkovChain::random(ITEMS, 3, 7, 5, 40, 424).expect("valid chain");
    let catalog = Catalog::uniform(ITEMS, 1, 30, 17);
    let mut rng = SmallRng::seed_from_u64(99);
    let mut trace = Trace::new();
    let mut state = rng.random_range(0..ITEMS);
    for _ in 0..REQUESTS {
        trace.push(state, chain.viewing(state));
        state = chain.next_state(state, &mut rng);
    }

    // 2. Persist and reload (the file is the hand-off artefact).
    let path = std::env::temp_dir().join("speculative_prefetch_demo.trace");
    trace.save(&path)?;
    let loaded = Trace::load(&path)?;
    assert_eq!(loaded, trace);
    println!(
        "Recorded {} requests over {} items -> {}\n",
        loaded.len(),
        ITEMS,
        path.display()
    );

    // 3. Replay the identical sequence under competing registry
    //    policies: one builder line per client configuration.
    let policies = [
        ("No prefetch + Pr cache", "no-prefetch"),
        ("KP + Pr cache", "kp"),
        ("SKP + Pr/DS cache", "skp-exact"),
    ];
    println!("Replay with an online order-2 n-gram model, cache of 8 slots:\n");
    println!("  policy                   mean T     p99 T    hits    wasted/req");
    let workload = Workload::trace(loaded);
    for (name, spec) in policies {
        let mut engine = Engine::builder()
            .policy(spec)
            .predictor("ngram:2")
            .catalog(catalog.retrievals().to_vec())
            .cache(8)
            .build()?;
        let run = engine.run(&workload)?;
        let report = run.trace().expect("trace section");
        println!(
            "  {name:<24} {:>6.2}   {:>6.2}   {:>5.1}%   {:>7.2}",
            report.mean_access_time,
            run.access.p99,
            report.hit_rate * 100.0,
            report.wasted_per_request
        );
    }
    std::fs::remove_file(&path).ok();

    println!("\nBecause every policy sees the identical request sequence, the");
    println!("differences are pure policy effects — the fair comparison the");
    println!("paper's Monte-Carlo design approximates with shared seeds.");
    Ok(())
}
