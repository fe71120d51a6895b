//! The Section-5 clients pinned bit for bit against
//! `tests/golden/section5.txt`: a small Figure-7 sweep under both SKP
//! solvers and a `PrefetchCache` stream of independent requests drawn
//! from a chain's stationary distribution (`IrmSource`). Every
//! `f64` is written as its bit pattern and each stream is folded into
//! one hash of every outcome, so any change to planning, arbitration or
//! accounting moves the file.

use std::fmt::Write;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use speculative_prefetch::{
    IrmSource, MarkovChain, PolicyKind, PrefetchCache, PrefetchCacheConfig, PrefetchCacheSim,
    Prefetcher, Scenario, SubArbitration,
};

/// Request outcomes folded into the hit count, the summed access
/// time's bits and an FNV-1a-style hash of every outcome's `Debug` text (which
/// spells each `f64` exactly).
#[derive(Default)]
struct Fold {
    hits: usize,
    total: f64,
    hash: u64,
}

impl Fold {
    fn push(&mut self, access: f64, outcome: &impl std::fmt::Debug) {
        self.hits += usize::from(access == 0.0);
        self.total += access;
        for byte in format!("{outcome:?}").bytes() {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn line(&self, label: &str) -> String {
        let (hits, total, hash) = (self.hits, self.total.to_bits(), self.hash);
        format!("{label} hits {hits} total {total:016x} hash {hash:016x}\n")
    }
}

fn sweep(out: &mut String) {
    for (label, skp) in [
        ("verbatim", PolicyKind::SkpPaper),
        ("exact", PolicyKind::SkpExact),
    ] {
        let sim = PrefetchCacheSim {
            n_states: 24,
            min_fanout: 3,
            max_fanout: 7,
            requests: 300,
            warmup: 20,
            threads: 1,
            skp_policy: skp,
            ..PrefetchCacheSim::paper(300, 1999)
        };
        writeln!(out, "sweep {label}").unwrap();
        for p in sim.sweep(&[2, 9]) {
            let stats = [
                p.access.mean(),
                p.hit_rate,
                p.wasted_per_request,
                p.stretch_per_request,
            ];
            let [mean, hit, wasted, stretch] = stats.map(f64::to_bits);
            let (policy, cap) = (&p.policy, p.capacity);
            writeln!(
                out,
                "{policy} {cap} {mean:016x} {hit:016x} {wasted:016x} {stretch:016x}"
            )
            .unwrap();
        }
    }
}

fn irm_stream(out: &mut String) {
    const N: usize = 14;
    let chain = MarkovChain::random(N, 3, 6, 2, 30, 53).unwrap();
    let pi = chain.stationary(200);
    let viewing: f64 = (0..N).map(|i| pi[i] * chain.viewing(i)).sum();
    let irm = IrmSource::new(&pi, viewing.max(1.0));
    let retrievals: Vec<f64> = (0..N).map(|i| 1.0 + (i * 7 % 23) as f64).collect();
    for (label, solver) in [
        ("none", PolicyKind::NoPrefetch),
        ("skp", PolicyKind::SkpExact),
    ] {
        let sub = SubArbitration::DelaySaving;
        let cfg = PrefetchCacheConfig { sub, capacity: 4 };
        let mut client = PrefetchCache::new(cfg, N);
        let mut rng = SmallRng::seed_from_u64(59);
        let mut fold = Fold::default();
        for _ in 0..200 {
            let s = Scenario::new(irm.probs().to_vec(), retrievals.clone(), irm.viewing()).unwrap();
            let alpha = irm.next_request(&mut rng);
            let plan = solver.plan_candidates(&s, &client.candidate_mask());
            let o = client.step(&s, alpha, plan);
            fold.push(o.access_time, &o);
        }
        out.push_str(&fold.line(&format!("irm {label}")));
    }
}

#[test]
fn section5_clients_match_their_golden() {
    let mut out = String::new();
    sweep(&mut out);
    irm_stream(&mut out);
    assert_eq!(out, include_str!("golden/section5.txt"));
}
