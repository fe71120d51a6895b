//! The prefetch-and-cache simulation of Section 5.3 (Figure 7).
//!
//! "Each curve is plotted by joining 100 points. Each point is obtained by
//! generating 50000 requests and taking the average access time. The
//! requests are generated using a 100-state Markov source. \[...\] Retrieval
//! times for items are between 1 to 30. We vary cache size from 1 to 100."
//!
//! The prefetcher is given the *true* transition row of the current state
//! as its next-access probabilities (the paper's model "presupposes some
//! knowledge about future accesses"), the state's viewing time, and the
//! catalog's retrieval times. Each request is one
//! [`PrefetchCache::round`], the facade engine's Section-5 round, on the
//! state's merged row. Sweep points (policy × cache size) are
//! independent runs fanned out over the thread pool.

use access_model::MarkovChain;
use cache_sim::{PrefetchCache, PrefetchCacheConfig, RoundScratch};
use distsys::Catalog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skp_core::policy::PolicyKind;
use skp_core::Scenario;

use crate::parallel::{default_threads, derive_seed, par_map_indexed};
use crate::stats::RunningStats;

/// One sweep point: a policy at a cache size.
#[derive(Debug, Clone)]
pub struct CachePoint {
    /// Policy display name (e.g. `SKP+Pr+DS`).
    pub policy: String,
    /// Cache capacity in slots.
    pub capacity: usize,
    /// Access-time statistics over the measured requests.
    pub access: RunningStats,
    /// Fraction of requests served in zero time.
    pub hit_rate: f64,
    /// Mean retrieval time wasted on unused prefetches per request.
    pub wasted_per_request: f64,
    /// Mean stretch time per request.
    pub stretch_per_request: f64,
}

/// The Figure-7 experiment configuration.
#[derive(Debug, Clone)]
pub struct PrefetchCacheSim {
    /// Number of Markov states (= items); the paper uses 100.
    pub n_states: usize,
    /// Minimum transitions per state (paper: 10).
    pub min_fanout: usize,
    /// Maximum transitions per state (paper: 20).
    pub max_fanout: usize,
    /// Viewing-time range (paper: 1..=100).
    pub v_range: (u32, u32),
    /// Retrieval-time range (paper: 1..=30).
    pub r_range: (u32, u32),
    /// Measured requests per point (paper: 50,000).
    pub requests: u64,
    /// Warm-up requests excluded from statistics.
    pub warmup: u64,
    /// Root seed (chain, catalog and request stream derive from it).
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Which SKP policy plans the three `SKP+Pr*` policies of
    /// [`Self::sweep`]: the verbatim Figure-3 algorithm
    /// ([`PolicyKind::SkpPaper`], the default) or the corrected
    /// canonical solver ([`PolicyKind::SkpExact`]).
    pub skp_policy: PolicyKind,
}

impl PrefetchCacheSim {
    /// The paper's Figure-7 setup with a configurable request count.
    pub fn paper(requests: u64, seed: u64) -> Self {
        Self {
            n_states: 100,
            min_fanout: 10,
            max_fanout: 20,
            v_range: (1, 100),
            r_range: (1, 30),
            requests,
            warmup: 0,
            seed,
            threads: 0,
            skp_policy: PolicyKind::SkpPaper,
        }
    }

    /// Builds the shared workload (chain + catalog) for this config.
    pub fn workload(&self) -> (MarkovChain, Catalog) {
        let chain = MarkovChain::random(
            self.n_states,
            self.min_fanout,
            self.max_fanout,
            self.v_range.0,
            self.v_range.1,
            derive_seed(self.seed, 0xC4A1),
        )
        .expect("valid chain parameters");
        let catalog = Catalog::uniform(
            self.n_states,
            self.r_range.0,
            self.r_range.1,
            derive_seed(self.seed, 0xCA7A),
        );
        (chain, catalog)
    }

    /// Runs one policy at one cache size against a workload. The rows
    /// refill one catalog scenario in place, so a steady-state request of
    /// the SKP and no-prefetch policies allocates nothing.
    pub fn run_point(
        &self,
        chain: &MarkovChain,
        catalog: &Catalog,
        policy_name: &str,
        policy: PolicyKind,
        cfg: PrefetchCacheConfig,
        point_seed: u64,
    ) -> CachePoint {
        let n = self.n_states;
        let rows = chain.merged_rows();
        let mut scenario = Scenario::new(vec![0.0; n], catalog.retrievals().to_vec(), 0.0)
            .expect("catalog retrievals are valid");
        let mut client = PrefetchCache::new(cfg, n);
        let mut scratch = RoundScratch::default();
        let mut rng = SmallRng::seed_from_u64(point_seed);
        let mut state = rng.random_range(0..n);

        let mut access = RunningStats::new();
        let mut hits = 0u64;
        let mut wasted = RunningStats::new();
        let mut stretch = RunningStats::new();

        for step in 0..(self.warmup + self.requests) {
            let row = rows.row(state);
            scenario
                .set_row(row, chain.viewing(state))
                .expect("markov row is a valid scenario");
            let alpha = chain.next_state(state, &mut rng);
            let out = client.round(&policy, &scenario, row, alpha, &mut scratch);
            if step >= self.warmup {
                access.push(out.access_time);
                if out.hit {
                    hits += 1;
                }
                wasted.push(out.wasted_retrieval);
                stretch.push(out.stretch);
            }
            state = alpha;
        }

        CachePoint {
            policy: policy_name.to_string(),
            capacity: cfg.capacity,
            access,
            hit_rate: if self.requests == 0 {
                0.0
            } else {
                hits as f64 / self.requests as f64
            },
            wasted_per_request: wasted.mean(),
            stretch_per_request: stretch.mean(),
        }
    }

    /// Full sweep: the paper's five policies across the given capacities,
    /// sharing one workload, run in parallel. Results are ordered by
    /// policy (Figure-7 legend order), then capacity.
    pub fn sweep(&self, capacities: &[usize]) -> Vec<CachePoint> {
        let (chain, catalog) = self.workload();
        let work: Vec<(&str, PolicyKind, PrefetchCacheConfig)> = capacities
            .iter()
            .flat_map(|&cap| PrefetchCacheConfig::figure7_policies(cap, self.skp_policy))
            .collect();
        let threads = if self.threads == 0 {
            default_threads(work.len())
        } else {
            self.threads
        };
        let mut points = par_map_indexed(&work, threads, |idx, &(name, policy, cfg)| {
            // The request stream is the same for every policy at a given
            // capacity index (paired comparison): derive the seed from the
            // capacity only.
            let cap_index = idx / 5;
            let seed = derive_seed(self.seed, 0x9E0 + cap_index as u64);
            let point = self.run_point(&chain, &catalog, name, policy, cfg, seed);
            (idx % 5, point)
        });
        // Order by legend position (the table's) then capacity.
        points.sort_by_key(|(legend, p)| (*legend, p.capacity));
        points.into_iter().map(|(_, p)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skp_core::arbitration::SubArbitration;

    fn small_sim() -> PrefetchCacheSim {
        PrefetchCacheSim {
            n_states: 30,
            min_fanout: 4,
            max_fanout: 8,
            v_range: (1, 60),
            r_range: (1, 30),
            requests: 1500,
            warmup: 100,
            seed: 99,
            threads: 2,
            skp_policy: PolicyKind::SkpPaper,
        }
    }

    fn cfg(sub: SubArbitration, capacity: usize) -> PrefetchCacheConfig {
        PrefetchCacheConfig { sub, capacity }
    }

    #[test]
    fn full_cache_means_everything_hits_eventually() {
        // Capacity = item count: after warm-up, every request hits
        // (demand fetches fill the cache and nothing is ever evicted).
        let sim = PrefetchCacheSim {
            warmup: 2000,
            requests: 800,
            ..small_sim()
        };
        let (chain, catalog) = sim.workload();
        let p = sim.run_point(
            &chain,
            &catalog,
            "No+Pr",
            PolicyKind::NoPrefetch,
            cfg(SubArbitration::None, 30),
            7,
        );
        assert!(
            p.access.mean() < 0.5,
            "full cache should almost always hit, mean T = {}",
            p.access.mean()
        );
        assert!(p.hit_rate > 0.95);
    }

    #[test]
    fn prefetching_beats_pure_caching() {
        let sim = small_sim();
        let (chain, catalog) = sim.workload();
        let no = sim.run_point(
            &chain,
            &catalog,
            "No+Pr",
            PolicyKind::NoPrefetch,
            cfg(SubArbitration::None, 8),
            11,
        );
        let skp = sim.run_point(
            &chain,
            &catalog,
            "SKP+Pr",
            PolicyKind::SkpPaper,
            cfg(SubArbitration::None, 8),
            11,
        );
        assert!(
            skp.access.mean() < no.access.mean(),
            "SKP+Pr {} should beat No+Pr {}",
            skp.access.mean(),
            no.access.mean()
        );
    }

    #[test]
    fn larger_cache_never_much_worse() {
        let sim = small_sim();
        let (chain, catalog) = sim.workload();
        let small = sim.run_point(
            &chain,
            &catalog,
            "SKP+Pr+DS",
            PolicyKind::SkpPaper,
            cfg(SubArbitration::DelaySaving, 3),
            5,
        );
        let large = sim.run_point(
            &chain,
            &catalog,
            "SKP+Pr+DS",
            PolicyKind::SkpPaper,
            cfg(SubArbitration::DelaySaving, 25),
            5,
        );
        assert!(
            large.access.mean() < small.access.mean() + 0.5,
            "capacity 25 ({}) should not lose to capacity 3 ({})",
            large.access.mean(),
            small.access.mean()
        );
    }

    #[test]
    fn sweep_produces_ordered_grid() {
        let sim = PrefetchCacheSim {
            requests: 150,
            warmup: 0,
            ..small_sim()
        };
        let pts = sim.sweep(&[2, 6]);
        assert_eq!(pts.len(), 10); // 5 policies × 2 capacities
        assert_eq!(pts[0].policy, "No+Pr");
        assert_eq!(pts[0].capacity, 2);
        assert_eq!(pts[1].capacity, 6);
        assert_eq!(pts[9].policy, "SKP+Pr+DS");
        for p in &pts {
            assert_eq!(p.access.count(), 150);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let sim = small_sim();
        let (chain, catalog) = sim.workload();
        let a = sim.run_point(
            &chain,
            &catalog,
            "KP+Pr",
            PolicyKind::Kp,
            cfg(SubArbitration::None, 5),
            3,
        );
        let b = sim.run_point(
            &chain,
            &catalog,
            "KP+Pr",
            PolicyKind::Kp,
            cfg(SubArbitration::None, 5),
            3,
        );
        assert_eq!(a.access.mean(), b.access.mean());
        assert_eq!(a.hit_rate, b.hit_rate);
    }

    #[test]
    fn exact_solver_reproduces_figure7_ranking() {
        // With the corrected solver, the Figure-7 ranking holds on a
        // scaled-down workload: SKP+Pr beats KP+Pr and DS sub-arbitration
        // beats plain Pr.
        let sim = PrefetchCacheSim {
            requests: 4000,
            warmup: 0,
            skp_policy: PolicyKind::SkpExact,
            ..small_sim()
        };
        let pts = sim.sweep(&[8]);
        let mean = |name: &str| {
            pts.iter()
                .find(|p| p.policy == name)
                .expect("swept")
                .access
                .mean()
        };
        assert!(mean("SKP+Pr") < mean("No+Pr"));
        assert!(mean("SKP+Pr") < mean("KP+Pr") + 0.3);
        assert!(mean("SKP+Pr+DS") < mean("SKP+Pr") + 0.05);
    }

    #[test]
    fn workload_matches_config() {
        let sim = small_sim();
        let (chain, catalog) = sim.workload();
        assert_eq!(chain.n_states(), 30);
        assert_eq!(catalog.retrievals().len(), 30);
        for i in 0..30 {
            let f = chain.successors(i).len();
            assert!((4..=8).contains(&f));
        }
    }
}
