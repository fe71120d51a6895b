//! The paper's quantitative claims, encoded as scaled-down but real
//! replications of its experiments. Each test names the claim and the
//! place it is made.

use montecarlo::prefetch_cache::PrefetchCacheSim;
use montecarlo::prefetch_only::PrefetchOnlySim;
use montecarlo::probgen::ProbMethod;
use montecarlo::scenario_gen::ScenarioGen;
use montecarlo::stats::RunningStats;
use speculative_prefetch::core::policy::PolicyKind;

fn prefetch_only(n: usize, method: ProbMethod, iterations: u64) -> PrefetchOnlySim {
    PrefetchOnlySim {
        gen: ScenarioGen::paper(n, method),
        iterations,
        seed: 1999,
        threads: 0,
        chunks: 0,
    }
}

/// Section 4.4 / Figure 4a: "The negative effect of using stretch time
/// can be seen \[...\] where some points appear above T = 30 even though
/// the maximum value for r is only 30."
#[test]
fn fig4a_skp_overshoots_max_retrieval() {
    let r = prefetch_only(10, ProbMethod::skewy(), 10_000).run(&[PolicyKind::SkpPaper], 0);
    assert!(r[0].overall.max() > 30.0, "max T = {}", r[0].overall.max());
}

/// Section 4.4 / Figure 4c: KP never stretches, so T ≤ max r + 0 — and
/// the "dense triangular area above the line T = v" exists: at small v,
/// requests for heavy items always miss (r > v can never be prefetched).
#[test]
fn fig4c_kp_bounded_and_triangle_exists() {
    let r = prefetch_only(10, ProbMethod::skewy(), 10_000).run(&[PolicyKind::Kp], 10_000);
    assert!(r[0].overall.max() <= 30.0 + 1e-9);
    // Triangle: samples with small v and T > v must exist.
    let triangle = r[0]
        .scatter
        .iter()
        .filter(|s| s.v <= 20.0 && s.t > s.v)
        .count();
    assert!(
        triangle > 50,
        "expected a dense triangle above T = v at small v, found {triangle} points"
    );
}

/// Section 4.4 / Figure 5a: on the skewy workload, SKP prefetch is
/// slightly better than KP prefetch overall...
#[test]
fn fig5a_skp_beats_kp_on_skewy() {
    let r = prefetch_only(10, ProbMethod::skewy(), 20_000)
        .run(&[PolicyKind::Kp, PolicyKind::SkpPaper], 0);
    let (kp, skp) = (r[0].overall.mean(), r[1].overall.mean());
    assert!(skp < kp, "SKP {skp} should beat KP {kp} on skewy");
}

/// ... "The exception is when v is small where the SKP prefetch performs
/// worse than no prefetch." (Only the verbatim Figure-3 bookkeeping shows
/// this; it is the signature of its under-priced stretch penalty.)
#[test]
fn fig5a_small_v_exception() {
    let r = prefetch_only(10, ProbMethod::skewy(), 30_000)
        .run(&[PolicyKind::NoPrefetch, PolicyKind::SkpPaper], 0);
    let small_v_mean = |idx: usize| {
        let mut acc = montecarlo::stats::RunningStats::new();
        for v in 1..=4i64 {
            if let Some(b) = r[idx].binned.bin(v) {
                acc.merge(b);
            }
        }
        acc.mean()
    };
    let no = small_v_mean(0);
    let skp = small_v_mean(1);
    assert!(
        skp > no,
        "at v <= 4 the verbatim SKP ({skp}) should be worse than no prefetch ({no})"
    );
}

/// The corrected solver must NOT show the small-v exception: its expected
/// access time provably dominates no-prefetch for every scenario.
#[test]
fn corrected_skp_never_loses_to_no_prefetch() {
    let r = prefetch_only(10, ProbMethod::skewy(), 30_000)
        .run(&[PolicyKind::NoPrefetch, PolicyKind::SkpExact], 0);
    for v in 1..=50i64 {
        let (Some(no), Some(skp)) = (r[0].binned.bin(v), r[1].binned.bin(v)) else {
            continue;
        };
        if no.count() < 100 {
            continue; // too noisy
        }
        // Allow three standard errors of noise.
        let slack = 3.0 * (no.std_err() + skp.std_err());
        assert!(
            skp.mean() <= no.mean() + slack,
            "v = {v}: corrected SKP {} vs no prefetch {} (slack {slack})",
            skp.mean(),
            no.mean()
        );
    }
}

/// Section 4.4 / Figure 5b/d: "for which the flat method is used, the
/// performances of the SKP prefetch and the KP prefetch are almost the
/// same" (corrected solver).
#[test]
fn fig5b_flat_convergence() {
    let r = prefetch_only(10, ProbMethod::flat(), 20_000)
        .run(&[PolicyKind::Kp, PolicyKind::SkpExact], 0);
    let (kp, skp) = (r[0].overall.mean(), r[1].overall.mean());
    assert!(
        (kp - skp).abs() < 0.5,
        "flat workload: KP {kp} vs corrected SKP {skp} should nearly coincide"
    );
}

/// Section 4.4: "Increasing the number of items from 10 to 25 has the
/// effect of increasing the average access time."
#[test]
fn fig5_n25_raises_curves() {
    for method in [ProbMethod::skewy(), ProbMethod::flat()] {
        let r10 = prefetch_only(10, method, 10_000).run(&[PolicyKind::SkpPaper], 0);
        let r25 = prefetch_only(25, method, 10_000).run(&[PolicyKind::SkpPaper], 0);
        assert!(
            r25[0].overall.mean() > r10[0].overall.mean(),
            "{}: n=25 ({}) should exceed n=10 ({})",
            method.name(),
            r25[0].overall.mean(),
            r10[0].overall.mean()
        );
    }
}

/// Section 5.3 / Figure 7: "The figure confirms that SKP prefetch
/// performs better than KP prefetch. Adding sub-arbitration clearly
/// improves the result. \[...\] SKP+Pr+DS gives the best result."
#[test]
fn fig7_policy_ranking() {
    let sim = PrefetchCacheSim {
        n_states: 50,
        min_fanout: 5,
        max_fanout: 10,
        requests: 6_000,
        skp_policy: PolicyKind::SkpExact,
        ..PrefetchCacheSim::paper(6_000, 1999)
    };
    let pts = sim.sweep(&[15]);
    let mean = |name: &str| {
        pts.iter()
            .find(|p| p.policy == name)
            .expect("policy present")
            .access
            .mean()
    };
    let no = mean("No+Pr");
    let kp = mean("KP+Pr");
    let skp = mean("SKP+Pr");
    let lfu = mean("SKP+Pr+LFU");
    let ds = mean("SKP+Pr+DS");
    assert!(kp < no, "KP+Pr {kp} vs No+Pr {no}");
    assert!(skp < kp + 0.2, "SKP+Pr {skp} vs KP+Pr {kp}");
    assert!(
        lfu < skp,
        "sub-arbitration must help: LFU {lfu} vs plain {skp}"
    );
    assert!(ds <= lfu + 0.15, "DS {ds} should be the best (LFU {lfu})");
    assert!(ds < kp, "DS {ds} must clearly beat KP+Pr {kp}");
}

/// Figure 7's x-axis claim: every policy's curve decreases (weakly) as
/// the cache grows from small to large.
#[test]
fn fig7_curves_decrease_with_cache_size() {
    let sim = PrefetchCacheSim {
        n_states: 50,
        min_fanout: 5,
        max_fanout: 10,
        requests: 4_000,
        skp_policy: PolicyKind::SkpExact,
        ..PrefetchCacheSim::paper(4_000, 1999)
    };
    let pts = sim.sweep(&[5, 25, 50]);
    for name in ["No+Pr", "KP+Pr", "SKP+Pr", "SKP+Pr+LFU", "SKP+Pr+DS"] {
        let series: Vec<f64> = pts
            .iter()
            .filter(|p| p.policy == name)
            .map(|p| p.access.mean())
            .collect();
        assert_eq!(series.len(), 3);
        assert!(
            series[2] < series[0] + 0.3,
            "{name}: capacity 50 ({}) should improve on capacity 5 ({})",
            series[2],
            series[0]
        );
    }
}

/// One single-threaded 'prefetch only' run of corrected SKP on the
/// paper's skewy n = 10 workload.
fn batch(seed: u64, iters: u64) -> RunningStats {
    let sim = PrefetchOnlySim {
        gen: ScenarioGen::paper(10, ProbMethod::skewy()),
        iterations: iters,
        seed,
        threads: 1,
        chunks: 1,
    };
    sim.run(&[PolicyKind::SkpExact], 0)[0].overall
}

#[test]
fn the_papers_budget_is_past_the_knee() {
    // At the paper's 50,000 iterations the standard error of the mean
    // access time is far below any visible plot feature (< 0.05 time
    // units on a 0..25 axis).
    let stats = batch(7, 50_000);
    assert!(
        stats.std_err() < 0.05,
        "se at 50k iterations: {}",
        stats.std_err()
    );
}
