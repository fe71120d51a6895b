//! Regenerates **Figure 7**: average access time per request against
//! cache size for the five prefetch-cache policies of Section 5.3
//! (`No+Pr`, `KP+Pr`, `SKP+Pr`, `SKP+Pr+LFU`, `SKP+Pr+DS`).
//!
//! Paper parameters: 100-state Markov source with 10–20 transitions per
//! state, per-state viewing times in `[1,100]`, retrievals in `[1,30]`,
//! 50,000 requests per point, cache size swept from 1 to 100.
//!
//! Expected shape: all curves decrease with cache size;
//! `SKP+Pr+DS ≤ SKP+Pr+LFU ≤ SKP+Pr ≤ KP+Pr ≤ No+Pr`, with sub-arbitration
//! clearly improving the result.
use experiments::{print_table, Args};
use speculative_prefetch::{ascii_plot, write_csv, CachePoint, PolicyKind, PrefetchCacheSim};

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let requests = args.get_u64("requests", if quick { 3_000 } else { 50_000 });
    let step = args.get_usize("step", if quick { 10 } else { 1 });
    let seed = args.get_u64("seed", 1999);
    let out = args.out_dir();

    let mut sim = PrefetchCacheSim::paper(requests, seed);
    // Default to the corrected solver: it reproduces the paper's ranking
    // (SKP+Pr beats KP+Pr), whereas the verbatim Figure-3 bookkeeping
    // over-stretches on the flat-ish Markov rows and falls behind KP+Pr
    // (see EXPERIMENTS.md). `--paper-solver` switches to strict fidelity.
    if args.has("paper-solver") {
        println!("   (SKP policies backed by the verbatim Figure-3 solver)");
    } else {
        sim.skp_policy = PolicyKind::SkpExact;
        println!("   (SKP policies backed by the corrected canonical solver; --paper-solver for verbatim)");
    }
    let capacities: Vec<usize> = (1..=100).step_by(step).collect();

    println!("== Figure 7: prefetch-cache performance against cache size ==");
    println!("   100-state Markov source, fan-out 10-20, v in [1,100], r in [1,30],");
    println!(
        "   {requests} requests/point, {} cache sizes, seed {seed}\n",
        capacities.len()
    );

    let points = sim.sweep(&capacities);
    // One curve per policy in legend order (the sweep's): entry `j` of
    // each is the point at `capacities[j]`.
    let curves: Vec<&[CachePoint]> = points.chunks(capacities.len()).collect();
    let names: Vec<&str> = curves.iter().map(|c| c[0].policy.as_str()).collect();

    let series_data: Vec<Vec<(f64, f64)>> = curves
        .iter()
        .map(|c| {
            c.iter()
                .map(|p| (p.capacity as f64, p.access.mean()))
                .collect()
        })
        .collect();
    let series_refs: Vec<(&str, &[(f64, f64)])> = names
        .iter()
        .zip(&series_data)
        .map(|(&n, p)| (n, p.as_slice()))
        .collect();
    let y_max = points
        .iter()
        .map(|p| p.access.mean())
        .fold(0.0, f64::max)
        .max(1.0)
        * 1.1;
    println!(
        "{}",
        ascii_plot(
            "Figure 7: access time per request vs cache size",
            &series_refs,
            72,
            20,
            (0.0, 100.0),
            (0.0, y_max)
        )
    );

    // Summary table at a few capacities.
    let samples: Vec<usize> = [10usize, 30, 50, 80, 100]
        .into_iter()
        .filter(|c| capacities.contains(c))
        .collect();
    let mut rows = Vec::new();
    for (curve, name) in curves.iter().zip(&names) {
        let mut row = vec![name.to_string()];
        for &cap in &samples {
            let p = curve.iter().find(|p| p.capacity == cap).expect("swept");
            row.push(format!("{:.2}", p.access.mean()));
        }
        let avg = curve.iter().map(|p| p.access.mean()).sum::<f64>() / curve.len() as f64;
        row.push(format!("{avg:.2}"));
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["policy".into()];
    headers.extend(samples.iter().map(|c| format!("T@{c}")));
    headers.push("avg".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
    println!();

    // CSV: capacity + a column per policy (+hit rates and waste).
    let mut csv_rows = Vec::new();
    for (j, &cap) in capacities.iter().enumerate() {
        let mut row = vec![cap as f64];
        row.extend(curves.iter().map(|c| c[j].access.mean()));
        row.extend(curves.iter().map(|c| c[j].hit_rate));
        csv_rows.push(row);
    }
    let mut headers: Vec<String> = vec!["cache_size".into()];
    headers.extend(names.iter().map(|n| format!("T_{n}")));
    headers.extend(names.iter().map(|n| format!("hit_{n}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let path = out.join("fig7.csv");
    write_csv(&path, &header_refs, &csv_rows).expect("write csv");
    println!("   wrote {}\n", path.display());

    println!("Shape checks (paper Section 5.3):");
    println!(" - every curve decreases as the cache grows");
    println!(" - SKP+Pr beats KP+Pr; sub-arbitration improves SKP+Pr;");
    println!("   SKP+Pr+DS gives the best result (paper's conclusion)");
}
