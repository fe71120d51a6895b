//! Web browsing with a *learned* access model, through the facade.
//!
//! The paper's model presupposes next-access probabilities; in a real web
//! client they must be learned. This example composes one
//! `SessionBuilder` session — dependency-graph predictor, SKP policy,
//! Figure-6 prefetch–cache client — and browses a synthetic 60-page site
//! whose true structure is a Markov chain the engine never sees
//! directly.
//!
//! Run with: `cargo run --release --example web_browsing`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use speculative_prefetch::{Catalog, Engine, Error, MarkovChain, Trace, Workload};

const PAGES: usize = 60;
const SESSIONS: usize = 400;
const CLICKS_PER_SESSION: usize = 25;

fn main() -> Result<(), Error> {
    let mut rng = SmallRng::seed_from_u64(2026);

    // Ground truth the client cannot see: site structure as a Markov
    // chain (each page links to 3..8 others), page weights over a
    // 56 kbit/s-ish link giving r in roughly [1, 30] time units.
    let site = MarkovChain::random(PAGES, 3, 8, 5, 60, 7).expect("valid site");
    let catalog = Catalog::uniform(PAGES, 1, 30, 13);

    // The client, composed in one place: dependency-graph predictor
    // (window 2) + SKP prefetcher + 12-slot Pr/DS cache.
    let mut engine = Engine::builder()
        .policy("skp-exact")
        .predictor("depgraph:2")
        .catalog(catalog.retrievals().to_vec())
        .cache(12)
        .build()?;

    let mut demand_total = 0.0_f64;
    let mut prefetch_total = 0.0_f64;
    let mut requests = 0u64;
    let mut hits = 0u64;
    let mut phase_means: Vec<(usize, f64)> = Vec::new();
    let mut phase_t = 0.0;
    let mut phase_n = 0u64;

    let mut recorded = Trace::new(); // the walk, replayable as a workload
    for session in 0..SESSIONS {
        let mut page = rng.random_range(0..PAGES);
        engine.observe(page);
        recorded.push(page, site.viewing(page));
        for _ in 0..CLICKS_PER_SESSION {
            let next = site.next_state(page, &mut rng);
            // What the client believes about the next click:
            let scenario = engine.scenario(page, site.viewing(page))?;

            let outcome = engine.step(&scenario, next);
            prefetch_total += outcome.access_time;
            demand_total += scenario.retrieval(next); // what no-prefetch+no-cache pays
            requests += 1;
            if outcome.hit {
                hits += 1;
            }
            phase_t += outcome.access_time;
            phase_n += 1;

            engine.observe(next);
            recorded.push(next, site.viewing(next));
            page = next;
        }
        if (session + 1) % 80 == 0 {
            phase_means.push((session + 1, phase_t / phase_n as f64));
            phase_t = 0.0;
            phase_n = 0;
        }
    }

    println!("Synthetic site: {PAGES} pages, {SESSIONS} sessions x {CLICKS_PER_SESSION} clicks");
    println!("Client: dependency-graph predictor (window 2) + SKP + Pr/DS cache (12 slots)\n");
    println!("Learning curve (mean access time per 80-session phase):");
    for (upto, mean) in &phase_means {
        let bar = "#".repeat((mean * 4.0).round() as usize);
        println!("  sessions ..{upto:>4}: {mean:>6.2}  {bar}");
    }
    println!(
        "\nOverall: mean T = {:.2} vs {:.2} with no prefetching and no cache ({}% served instantly)",
        prefetch_total / requests as f64,
        demand_total / requests as f64,
        100 * hits / requests
    );
    assert!(
        phase_means.last().expect("phases").1 < phase_means[0].1,
        "the learned model should improve with experience"
    );
    println!("\nThe first phase is cold (predictor knows nothing); later phases show");
    println!("the dependency graph feeding ever better probabilities into SKP.");

    // The recorded walk is one reproducible workload value: a fresh
    // client replays the identical click stream through Engine::run.
    let mut fresh = Engine::builder()
        .policy("skp-exact")
        .predictor("depgraph:2")
        .catalog(catalog.retrievals().to_vec())
        .cache(12)
        .build()?;
    let replay = fresh.run(&Workload::trace(recorded))?;
    let report = replay.trace().expect("trace section");
    println!(
        "\nReplayed as Workload::trace on a fresh client: {} requests, mean T {:.2},",
        report.requests, report.mean_access_time
    );
    println!(
        "p99 {:.2}, hit rate {:.0}% — the experiment is now a value, not a loop.",
        replay.access.p99,
        report.hit_rate * 100.0
    );
    Ok(())
}
