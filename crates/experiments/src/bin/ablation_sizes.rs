//! Unequal-item-sizes ablation (the paper's Section-6 "current work").
//!
//! Drives the byte-addressed prefetch–cache client
//! (`cache_sim::SizedPrefetchCache`, size-aware Pr-arbitration from
//! `skp_core::ext::sizes`) on a Markov workload whose item sizes are
//! heterogeneous (retrieval time proportional to size), and compares:
//!
//! - `none` — demand-only byte caching,
//! - `skp`  — SKP planning + size-aware arbitration,
//!
//! across byte budgets, reporting mean access time and hit rate.
use experiments::{print_table, Args};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use speculative_prefetch::{
    write_csv, MarkovChain, PolicyKind, RunningStats, Scenario, SizedPrefetchCache,
};

const N: usize = 60;

fn run(
    chain: &MarkovChain,
    sizes: &[f64],
    retrievals: &[f64],
    budget: f64,
    policy: PolicyKind,
    requests: u64,
    seed: u64,
) -> (f64, f64) {
    let mut client = SizedPrefetchCache::new(budget, sizes.to_vec(), policy);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state = rng.random_range(0..N);
    let mut acc = RunningStats::new();
    let mut hits = 0u64;
    for _ in 0..requests {
        let s = Scenario::new(
            chain.row_probs(state),
            retrievals.to_vec(),
            chain.viewing(state),
        )
        .expect("valid scenario");
        let alpha = chain.next_state(state, &mut rng);
        let out = client.step(&s, alpha);
        acc.push(out.access_time);
        if out.hit {
            hits += 1;
        }
        state = alpha;
    }
    (acc.mean(), hits as f64 / requests as f64)
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let requests = args.get_u64("requests", if quick { 4_000 } else { 30_000 });
    let seed = args.get_u64("seed", 1999);
    let out = args.out_dir();

    // Heterogeneous sizes: 1..20 "KB"; retrieval proportional (latency 1).
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5123);
    let sizes: Vec<f64> = (0..N).map(|_| rng.random_range(1u32..=20) as f64).collect();
    let retrievals: Vec<f64> = sizes.iter().map(|&s| 1.0 + s).collect();
    let total_bytes: f64 = sizes.iter().sum();
    let chain = MarkovChain::random(N, 4, 9, 5, 60, seed ^ 0xC0FF).expect("valid chain");

    println!("== Ablation: unequal item sizes (byte-addressed cache) ==");
    println!(
        "   {N} items, sizes 1-20, total {total_bytes} bytes, r = 1 + size, {requests} requests\n"
    );

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for frac in [0.05, 0.1, 0.2, 0.4, 0.8] {
        let budget = (total_bytes * frac).max(21.0);
        let (t_none, h_none) = run(
            &chain,
            &sizes,
            &retrievals,
            budget,
            PolicyKind::NoPrefetch,
            requests,
            seed,
        );
        let (t_skp, h_skp) = run(
            &chain,
            &sizes,
            &retrievals,
            budget,
            PolicyKind::SkpExact,
            requests,
            seed,
        );
        rows.push(vec![
            format!("{:.0}% ({budget:.0}B)", frac * 100.0),
            format!("{t_none:.3}"),
            format!("{:.1}%", h_none * 100.0),
            format!("{t_skp:.3}"),
            format!("{:.1}%", h_skp * 100.0),
            format!("{:+.1}%", (1.0 - t_skp / t_none) * 100.0),
        ]);
        csv_rows.push(vec![budget, t_none, h_none, t_skp, h_skp]);
    }

    print_table(
        &[
            "budget",
            "demand-only T",
            "hit",
            "SKP sized T",
            "hit",
            "T saved",
        ],
        &rows,
    );
    let path = out.join("ablation_sizes.csv");
    write_csv(
        &path,
        &["budget_bytes", "none_T", "none_hit", "skp_T", "skp_hit"],
        &csv_rows,
    )
    .expect("write csv");
    println!("\n   wrote {}", path.display());
    println!("\nReading: size-aware SKP prefetching should cut access time at every");
    println!("budget, with the biggest relative win at small-to-middling budgets.");
}
