//! Prefetching on a low-bandwidth mobile link (reference [15] of the
//! paper) and the cost of stretch intrusion, through the facade.
//!
//! On a slow link, retrieval times are long relative to viewing times, so
//! plain SKP stretches aggressively — and every unit of stretch *intrudes
//! into the next viewing window*, shrinking the asset available to the
//! next prefetch round (Section 4.4). The stretch-penalised lookahead
//! extension prices that intrusion; this example chains sessions
//! mechanistically (next window = viewing − previous stretch) and sweeps
//! the shadow price λ as a registry parameter.
//!
//! Run with: `cargo run --release --example mobile_network`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use speculative_prefetch::{
    access_time_empty, stretch_time, Catalog, Engine, Error, Link, MarkovChain, Scenario, Workload,
};

const ITEMS: usize = 40;
const REQUESTS: usize = 6_000;

fn main() -> Result<(), Error> {
    // A 2G-ish link: high latency, thin bandwidth; item sizes 4..90 KB.
    let link = Link::new(2.0, 6.0);
    let sizes: Vec<f64> = (0..ITEMS)
        .map(|i| 4.0 + 86.0 * ((i * 37 % ITEMS) as f64 / ITEMS as f64))
        .collect();
    let catalog = Catalog::from_link(link, &sizes);
    let retrievals = catalog.retrievals().to_vec();

    // User behaviour: Markov browsing with short viewing times (the link
    // is slower than the user).
    let chain = MarkovChain::random(ITEMS, 3, 7, 4, 20, 11).expect("valid chain");

    println!(
        "Mobile link: latency 2.0, bandwidth 6.0 -> r in [{:.1}, {:.1}]",
        retrievals.iter().cloned().fold(f64::INFINITY, f64::min),
        retrievals.iter().cloned().fold(0.0, f64::max)
    );
    println!("{ITEMS} items, viewing 4..20, {REQUESTS} chained requests\n");
    println!("  lambda   mean T   mean stretch   mean window lost");

    let mut best: (f64, f64) = (f64::INFINITY, -1.0);
    for lambda in [0.0, 0.1, 0.3, 0.6, 1.0, 2.0, 4.0] {
        // λ is just a policy parameter in the registry spec.
        let engine = Engine::builder()
            .policy(&format!("stretch-penalised:{lambda}"))
            .build()?;
        let mut rng_run = SmallRng::seed_from_u64(8899);
        let mut state = rng_run.random_range(0..ITEMS);
        let mut carry_over = 0.0_f64; // stretch intruding into this window
        let mut total_t = 0.0;
        let mut total_st = 0.0;
        let mut total_lost = 0.0;

        for _ in 0..REQUESTS {
            // The stretch of the previous round eats into this window.
            let window = (chain.viewing(state) - carry_over).max(0.0);
            let scenario = Scenario::new(chain.row_probs(state), retrievals.clone(), window)?;
            let plan = engine.plan(&scenario);
            let alpha = chain.next_state(state, &mut rng_run);
            let st = stretch_time(&scenario, plan.items());
            total_t += access_time_empty(&scenario, plan.items(), alpha);
            total_st += st;
            total_lost += carry_over;
            carry_over = st;
            state = alpha;
        }

        let mean_t = total_t / REQUESTS as f64;
        println!(
            "  {lambda:>5.1}   {mean_t:>6.2}   {:>10.2}   {:>14.2}",
            total_st / REQUESTS as f64,
            total_lost / REQUESTS as f64
        );
        if mean_t < best.0 {
            best = (mean_t, lambda);
        }
    }

    println!(
        "\nBest shadow price on this link: λ = {} (mean T = {:.2}).",
        best.1, best.0
    );
    println!("λ = 0 is plain SKP: it wins each round on paper but donates its");
    println!("stretch to the next window; a positive λ internalises that cost,");
    println!("which is exactly the deeper-lookahead direction of Section 6.");

    // One representative round at λ*, as a unified run: the plan section
    // gives the closed forms, the common stats block the per-request
    // spread on this link.
    let mut tuned = Engine::builder()
        .policy(&format!("stretch-penalised:{}", best.1))
        .build()?;
    let s = Scenario::new(chain.row_probs(0), retrievals.clone(), chain.viewing(0))?;
    let run = tuned.run(&Workload::plan(s))?;
    let plan = run.plan().expect("plan section");
    println!(
        "\nRepresentative round at λ*: plan {:?}, gain {:.2}, stretch {:.2};",
        plan.plan.items(),
        plan.gain,
        plan.stretch
    );
    println!(
        "access times across possible requests: p50 {:.2}, worst {:.2}.",
        run.access.p50, run.access.max
    );
    Ok(())
}
