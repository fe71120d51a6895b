//! Property tests for the sparse Section-5 round: `Engine::step_forecast`
//! (the predictor's row refilling one catalog scenario, the SKP policies
//! planning from the row) returns the `StepOutcome` of the dense public
//! pair `Engine::step(&Engine::scenario(..))`, bit for bit, for every
//! registry policy and predictor, with and without a cache; and a
//! `Workload::Trace` run reports what a replay of that dense pair gives.
//! The dense side plans through `plan_candidates`/`plan` on the dense
//! scenario, as the engine did before rounds went sparse.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use speculative_prefetch::{
    build_policy, policy_specs, predictor_specs, render_report_fields, AccessStats, Engine,
    Predictor, PrefetchPlan, Prefetcher, ReportSection, RunReport, RunningStats, Scenario,
    StepOutcome, SubArbitration, Trace, TraceReport, Workload,
};

/// A registry policy with only the dense planning methods: its
/// `plan_row_into` is the trait default, which plans on the dense
/// scenario. A built-in `PolicyKind`'s dense methods plan the scenario's
/// row through its own `plan_row_into`, so for those kinds this side
/// checks the engine's rounds, and `plan_row_props` checks the row solve
/// against dense reference solves.
struct Dense(Box<dyn Prefetcher>);

impl Prefetcher for Dense {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan {
        self.0.plan_candidates(s, candidates)
    }
    fn plan(&self, s: &Scenario) -> PrefetchPlan {
        self.0.plan(s)
    }
    fn is_oracle(&self) -> bool {
        self.0.is_oracle()
    }
}

/// A forecaster that exercises the engine's clamp: its dense vectors
/// (derived from its seed, the observation count and `current`) carry
/// `0.0`, `-0.0`, negative, NaN and infinite entries, masses above one,
/// and may be shorter or longer than the universe. It keeps the
/// default, dense-derived row.
struct Noisy {
    n: usize,
    seed: u64,
    seen: u64,
}

impl Predictor for Noisy {
    fn name(&self) -> &str {
        "noisy"
    }
    fn n_items(&self) -> usize {
        self.n
    }
    fn observe(&mut self, _item: usize) {
        self.seen += 1;
    }
    fn predict(&self, current: usize) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ (self.seen << 16) ^ current as u64);
        let len = rng.random_range(self.n.saturating_sub(1)..=self.n + 1);
        (0..len)
            .map(|_| match rng.random_range(0..10u32) {
                0 => 0.0,
                1 => -0.0,
                2 => -rng.random_range(0.0..1.0),
                3 => f64::NAN,
                4 if rng.random_bool(0.2) => f64::INFINITY,
                5 => rng.random_range(0.5..3.0),
                _ => rng.random_range(0.0..0.3),
            })
            .collect()
    }
}

/// One random case: a catalog, a trace over it and the engine shape.
struct Case {
    catalog: Vec<f64>,
    trace: Trace,
    cache: Option<usize>,
    sub: SubArbitration,
    seed: u64,
}

/// Small catalogs (the brute-force policy is exponential), integral
/// times in most cases so the global DP runs, and a sticky random walk
/// so the predictors learn contexts that repeat.
fn case(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.random_range(2..=7usize);
    let integral = rng.random_bool(0.7);
    let time = |rng: &mut SmallRng, hi: f64| {
        if integral {
            rng.random_range(1..=hi as u32) as f64
        } else {
            rng.random_range(0.5..hi)
        }
    };
    let catalog: Vec<f64> = (0..n).map(|_| time(&mut rng, 9.0)).collect();
    let mut trace = Trace::new();
    let mut item = rng.random_range(0..n);
    for _ in 0..rng.random_range(2..=40usize) {
        trace.push(item, time(&mut rng, 14.0));
        item = if rng.random_bool(0.6) {
            (item + 1) % n
        } else {
            rng.random_range(0..n)
        };
    }
    let cache = rng.random_bool(0.7).then(|| rng.random_range(1..=n));
    let sub = match rng.random_range(0..3u32) {
        0 => SubArbitration::None,
        1 => SubArbitration::Lfu,
        _ => SubArbitration::DelaySaving,
    };
    Case {
        catalog,
        trace,
        cache,
        sub,
        seed,
    }
}

/// Every predictor family with its default parameter, the n-gram
/// family at orders 1 and 3 as well, and the noisy forecaster.
fn predictors() -> Vec<Option<String>> {
    let mut specs: Vec<Option<String>> = predictor_specs()
        .iter()
        .map(|p| Some(p.name.to_string()))
        .collect();
    specs.push(Some("ngram:1".into()));
    specs.push(Some("ngram:3".into()));
    specs.push(None); // the noisy forecaster
    specs
}

/// An engine for the case; `dense` wraps the policy in [`Dense`].
fn engine(c: &Case, policy: &str, predictor: &Option<String>, dense: bool) -> Engine {
    let mut b = Engine::builder()
        .catalog(c.catalog.clone())
        .sub_arbitration(c.sub);
    b = if dense {
        b.policy_instance(Box::new(Dense(
            build_policy(policy).expect("registry policy"),
        )))
    } else {
        b.policy(policy)
    };
    b = match predictor {
        Some(spec) => b.predictor(spec),
        None => b.predictor_instance(Box::new(Noisy {
            n: c.catalog.len(),
            seed: c.seed,
            seen: 0,
        })),
    };
    if let Some(slots) = c.cache {
        b = b.cache(slots);
    }
    b.build().expect("valid engine")
}

/// A step outcome with every float as its bits.
type Bits = (
    u64,
    bool,
    Vec<usize>,
    Vec<usize>,
    Option<usize>,
    bool,
    u64,
    u64,
);

fn bits(o: &StepOutcome) -> Bits {
    (
        o.access_time.to_bits(),
        o.hit,
        o.prefetched.clone(),
        o.ejected.clone(),
        o.demand_victim,
        o.demand_fetch,
        o.stretch.to_bits(),
        o.wasted_retrieval.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round by round, `step_forecast` ≡ `step(&scenario(..))`, and the
    /// trace workload's report ≡ the dense pair's replay.
    #[test]
    fn sparse_rounds_equal_dense_rounds(seed in 0u64..u64::MAX) {
        let c = case(seed);
        let records = c.trace.records();
        for policy in policy_specs() {
            for predictor in predictors() {
                let what = format!("{} × {:?}, seed {seed}", policy.name, predictor);
                let mut sparse = engine(&c, policy.name, &predictor, false);
                let mut dense = engine(&c, policy.name, &predictor, true);
                sparse.observe(records[0].item);
                dense.observe(records[0].item);
                let (mut access, mut wasted) = (RunningStats::new(), RunningStats::new());
                let mut samples = Vec::new();
                let mut hits = 0u64;
                for w in records.windows(2) {
                    let (here, next) = (w[0], w[1]);
                    let s = dense.scenario(here.item, here.viewing).expect("valid round");
                    let want = dense.step(&s, next.item);
                    let got = sparse
                        .step_forecast(here.item, here.viewing, next.item)
                        .expect("valid round");
                    prop_assert_eq!(bits(&got), bits(&want), "{}", what);
                    prop_assert_eq!(sparse.cached_items(), dense.cached_items(), "{}", what);
                    access.push(want.access_time);
                    samples.push(want.access_time);
                    wasted.push(want.wasted_retrieval);
                    hits += u64::from(want.hit);
                    sparse.observe(next.item);
                    dense.observe(next.item);
                }

                let run = engine(&c, policy.name, &predictor, false)
                    .run(&Workload::trace(c.trace.clone()))
                    .expect("trace runs");
                let requests = (records.len() - 1) as u64;
                let replay = RunReport {
                    access: AccessStats::from_samples(&mut samples),
                    section: ReportSection::Trace(TraceReport {
                        requests,
                        mean_access_time: access.mean(),
                        hit_rate: hits as f64 / requests as f64,
                        wasted_per_request: wasted.mean(),
                    }),
                    events: Vec::new(),
                    plan_store: run.plan_store.clone(),
                    phases: Default::default(),
                };
                prop_assert_eq!(
                    render_report_fields(&run, &[]),
                    render_report_fields(&replay, &[]),
                    "{}", what
                );
                prop_assert_eq!(&run, &replay, "{}", what);
            }
        }
    }
}

/// The errors of a round match too: a missing predictor, a missing
/// catalog and a bad viewing time surface as the dense pair's errors.
#[test]
fn sparse_round_errors_equal_dense_errors() {
    let mut no_predictor = Engine::builder().catalog(vec![1.0; 3]).build().unwrap();
    let dense = no_predictor.scenario(0, 1.0).unwrap_err();
    let sparse = no_predictor.step_forecast(0, 1.0, 1).unwrap_err();
    assert_eq!(sparse.to_string(), dense.to_string());

    let mut no_catalog = Engine::builder()
        .predictor_instance(Box::new(Noisy {
            n: 3,
            seed: 1,
            seen: 0,
        }))
        .build()
        .unwrap();
    let dense = no_catalog.scenario(0, 1.0).unwrap_err();
    let sparse = no_catalog.step_forecast(0, 1.0, 1).unwrap_err();
    assert_eq!(sparse.to_string(), dense.to_string());

    let mut e = Engine::builder()
        .predictor("ngram")
        .catalog(vec![1.0; 3])
        .cache(1)
        .build()
        .unwrap();
    for viewing in [-1.0, f64::NAN, f64::INFINITY] {
        let dense = e.scenario(0, viewing).unwrap_err();
        let sparse = e.step_forecast(0, viewing, 1).unwrap_err();
        assert_eq!(sparse.to_string(), dense.to_string());
    }
    // A refused round leaves the engine usable.
    e.observe(0);
    assert!(e.step_forecast(0, 2.0, 1).is_ok());
}
