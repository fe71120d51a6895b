//! Sequence-structure ablation: how much of the prefetch–cache win of
//! Figure 7 comes from *sequential* predictability (the Markov source)
//! rather than plain popularity skew?
//!
//! We compare the integrated client on (a) the Markov workload and (b) an
//! independent-reference-model (IRM) workload whose popularity equals the
//! Markov chain's stationary distribution — same long-run item
//! frequencies, no sequence structure. Under the IRM the prefetcher's
//! best forecast is the same popularity vector every round, so
//! prefetching adds little beyond popularity caching; under the Markov
//! source the per-state rows are sharp and prefetching pays.
use experiments::{print_table, Args};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use speculative_prefetch::{
    write_csv, IrmSource, PolicyKind, PrefetchCache, PrefetchCacheConfig, PrefetchCacheSim,
    Prefetcher, RunningStats, Scenario, SubArbitration,
};

fn run_irm(
    irm: &IrmSource,
    retrievals: &[f64],
    capacity: usize,
    policy: PolicyKind,
    requests: u64,
    seed: u64,
) -> (f64, f64) {
    let n = irm.n_items();
    let mut client = PrefetchCache::new(
        PrefetchCacheConfig {
            sub: SubArbitration::DelaySaving,
            capacity,
        },
        n,
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut acc = RunningStats::new();
    let mut hits = 0u64;
    let scenario_probs = irm.probs().to_vec();
    for _ in 0..requests {
        let s = Scenario::new(scenario_probs.clone(), retrievals.to_vec(), irm.viewing())
            .expect("valid scenario");
        let alpha = irm.next_request(&mut rng);
        let plan = policy.plan_candidates(&s, &client.candidate_mask());
        let out = client.step(&s, alpha, plan);
        acc.push(out.access_time);
        if out.hit {
            hits += 1;
        }
    }
    (acc.mean(), hits as f64 / requests as f64)
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let requests = args.get_u64("requests", if quick { 5_000 } else { 30_000 });
    let seed = args.get_u64("seed", 1999);
    let out = args.out_dir();

    // Shared catalog and chain (scaled-down Figure-7 workload).
    let sim = PrefetchCacheSim {
        n_states: 60,
        min_fanout: 6,
        max_fanout: 12,
        requests,
        skp_policy: PolicyKind::SkpExact,
        ..PrefetchCacheSim::paper(requests, seed)
    };
    let (chain, catalog) = sim.workload();
    let retrievals: Vec<f64> = (0..60)
        .map(|i| speculative_prefetch::RetrievalModel::retrieval_time(&catalog, i))
        .collect();

    // IRM with the chain's stationary popularity and its mean viewing time.
    let pi = chain.stationary(300);
    let mean_viewing: f64 = (0..60).map(|i| pi[i] * chain.viewing(i)).sum();
    let irm = IrmSource::new(&pi, mean_viewing.max(1.0));

    println!("== Ablation: Markov sequence structure vs IRM popularity ==");
    println!("   60 items, identical stationary popularity and mean viewing ({mean_viewing:.1}),");
    println!("   SKP(+Pr/DS) vs demand-only, {requests} requests, seed {seed}\n");

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for capacity in [5usize, 15, 30] {
        // Markov: take the swept points for No+Pr and SKP+Pr+DS.
        let pts = sim.sweep(&[capacity]);
        let get = |name: &str| {
            pts.iter()
                .find(|p| p.policy == name)
                .expect("swept")
                .access
                .mean()
        };
        let markov_none = get("No+Pr");
        let markov_skp = get("SKP+Pr+DS");

        let (irm_none, _) = run_irm(
            &irm,
            &retrievals,
            capacity,
            PolicyKind::NoPrefetch,
            requests,
            seed,
        );
        let (irm_skp, _) = run_irm(
            &irm,
            &retrievals,
            capacity,
            PolicyKind::SkpExact,
            requests,
            seed,
        );

        let markov_gain = (markov_none - markov_skp) / markov_none.max(1e-9);
        let irm_gain = (irm_none - irm_skp) / irm_none.max(1e-9);
        rows.push(vec![
            capacity.to_string(),
            format!("{markov_none:.2}"),
            format!("{markov_skp:.2}"),
            format!("{:.0}%", markov_gain * 100.0),
            format!("{irm_none:.2}"),
            format!("{irm_skp:.2}"),
            format!("{:.0}%", irm_gain * 100.0),
        ]);
        csv_rows.push(vec![
            capacity as f64,
            markov_none,
            markov_skp,
            irm_none,
            irm_skp,
        ]);
    }

    print_table(
        &[
            "capacity",
            "markov none",
            "markov SKP",
            "gain",
            "irm none",
            "irm SKP",
            "gain",
        ],
        &rows,
    );
    let path = out.join("ablation_irm.csv");
    write_csv(
        &path,
        &[
            "capacity",
            "markov_none",
            "markov_skp",
            "irm_none",
            "irm_skp",
        ],
        &csv_rows,
    )
    .expect("write csv");
    println!("\n   wrote {}", path.display());
    println!("\nReading: the relative prefetching gain should be much larger under the");
    println!("Markov source — sequence structure, not popularity skew, is what");
    println!("one-access-lookahead prefetching monetises.");
}
