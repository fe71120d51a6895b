//! The workload-first prefetch engine: one object composing the four
//! seams of the workspace —
//!
//! 1. an **access predictor** ([`Predictor`], from `access-model`),
//! 2. a **prefetch policy** ([`Prefetcher`], resolved through the
//!    [policy registry](crate::registry)),
//! 3. a **cache** with Figure-6 arbitration (`cache-sim`), and
//! 4. a **simulation backend** (a [`BackendDriver`] resolved through
//!    the [backend registry](crate::backend)),
//!
//! and one entry point: [`Engine::run`] takes a [`Workload`] value and
//! returns a [`RunReport`] whose common [`AccessStats`] block makes any
//! two runs comparable.
//!
//! ```
//! use speculative_prefetch::{Engine, Scenario, Workload};
//!
//! let mut engine = Engine::builder().policy("skp-exact").build()?;
//! let s = Scenario::new(vec![0.5, 0.3, 0.2], vec![8.0, 6.0, 9.0], 10.0)?;
//! let report = engine.run(&Workload::plan(s))?;
//! assert!(report.plan().expect("plan section").gain > 0.0);
//! # Ok::<(), speculative_prefetch::Error>(())
//! ```

use std::sync::Arc;

use access_model::MarkovChain;
use cache_sim::{PrefetchCache, PrefetchCacheConfig, Round, RoundScratch, StepOutcome};
use distsys::scheduler::{ClientPolicy, SimEvent};
use distsys::stats::AccessStats;
use distsys::{SessionConfig, Trace};
use montecarlo::parallel::par_monte_carlo;
use montecarlo::prefetch_only::sample_chunk;
use montecarlo::scenario_gen::ScenarioGen;
use montecarlo::stats::RunningStats;
use obs::{build_obs, EpochMark, Obs, PhaseTimer};
use planstore::{
    build_plan_store, population_plan_key, MemoryStore, PlanGuard, PlanSet, PlanStore,
    PlanStoreStats,
};
use skp_core::arbitration::SubArbitration;
use skp_core::gain::{
    access_time_empty, expected_access_time_empty, gain_empty_cache, stretch_time,
};
use skp_core::policy::{dense_row, Prefetcher, RowBasis};
use skp_core::skp::{upper_bound, SolveScratch};
use skp_core::{ModelError, PrefetchPlan, Scenario};

use crate::backend::{build_backend, BackendDriver, McFanout, PopulationRun, SingleClientDriver};
use crate::error::Error;
use crate::generator::build_generator;
use crate::predictor::{build_predictor, Predictor};
use crate::registry::build_policy;
use crate::report::{PlanReport, ReportSection, RunReport, SimReport, TraceReport};
use crate::workload::{MonteCarloSpec, Workload};

/// Configures and validates an [`Engine`]. Obtained from
/// [`Engine::builder`]; every setter is chainable and infallible —
/// errors surface once, at [`build`](SessionBuilder::build).
pub struct SessionBuilder {
    policy: Option<Box<dyn Prefetcher>>,
    policy_spec: Option<String>,
    policy_spec_err: Option<Error>,
    predictor_spec: Option<String>,
    predictor: Option<Box<dyn Predictor>>,
    retrievals: Option<Vec<f64>>,
    n_items: Option<usize>,
    capacity: Option<usize>,
    sub: SubArbitration,
    driver: Option<Arc<dyn BackendDriver>>,
    backend_spec_err: Option<Error>,
    store: Option<Arc<dyn PlanStore>>,
    store_spec_err: Option<Error>,
    obs: Obs,
    obs_spec_err: Option<Error>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// A builder with the defaults: `skp-exact` policy, no predictor, no
    /// cache, single-client backend.
    pub fn new() -> Self {
        SessionBuilder {
            policy: None,
            policy_spec: None,
            policy_spec_err: None,
            predictor_spec: None,
            predictor: None,
            retrievals: None,
            n_items: None,
            capacity: None,
            sub: SubArbitration::DelaySaving,
            driver: None,
            backend_spec_err: None,
            store: None,
            store_spec_err: None,
            obs: Obs::off(),
            obs_spec_err: None,
        }
    }

    /// Selects the prefetch policy by registry spec (e.g. `"skp-exact"`,
    /// `"network-aware:0.4"`; see [`crate::registry::policy_specs`]).
    pub fn policy(mut self, spec: &str) -> Self {
        match build_policy(spec) {
            Ok(p) => {
                self.policy = Some(p);
                self.policy_spec = Some(spec.to_string());
                self.policy_spec_err = None;
            }
            Err(e) => self.policy_spec_err = Some(e),
        }
        self
    }

    /// Installs an already-built policy (for custom [`Prefetcher`]
    /// implementations outside the registry). Such a policy has no
    /// registry spec, so it cannot be shipped to a `served:` daemon.
    pub fn policy_instance(mut self, policy: Box<dyn Prefetcher>) -> Self {
        self.policy = Some(policy);
        self.policy_spec = None;
        self.policy_spec_err = None;
        self
    }

    /// Selects the access predictor by registry spec (e.g. `"ngram:2"`,
    /// `"depgraph"`; see [`crate::predictor::predictor_specs`]). The
    /// predictor is constructed at build time over the catalog's item
    /// universe.
    pub fn predictor(mut self, spec: &str) -> Self {
        self.predictor_spec = Some(spec.to_string());
        self
    }

    /// Installs an already-built predictor.
    pub fn predictor_instance(mut self, predictor: Box<dyn Predictor>) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// Sets the item catalog: one retrieval time per item. Defines the
    /// item universe for predictors, caches and trace replays.
    pub fn catalog(mut self, retrievals: Vec<f64>) -> Self {
        self.n_items = Some(retrievals.len());
        self.retrievals = Some(retrievals);
        self
    }

    /// Sets the item-universe size without retrieval times (enough for
    /// predictors and caches when scenarios are supplied externally).
    pub fn items(mut self, n: usize) -> Self {
        self.n_items = Some(n);
        self
    }

    /// Enables the integrated Section-5 prefetch–cache client with the
    /// given capacity (slots).
    pub fn cache(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the Figure-6 sub-arbitration (default: delay-saving, the
    /// paper's best performer).
    pub fn sub_arbitration(mut self, sub: SubArbitration) -> Self {
        self.sub = sub;
        self
    }

    /// Selects the simulation backend by registry spec string (e.g.
    /// `"sharded:4x16:hash"`; see
    /// [`backend_specs`](crate::backend::backend_specs)). The default is
    /// `single-client`.
    pub fn backend_spec(mut self, spec: &str) -> Self {
        match build_backend(spec) {
            Ok(d) => {
                self.driver = Some(d);
                self.backend_spec_err = None;
            }
            Err(e) => self.backend_spec_err = Some(e),
        }
        self
    }

    /// Installs an already-built backend driver (for custom
    /// [`BackendDriver`] implementations outside the registry).
    pub fn backend_driver(mut self, driver: Arc<dyn BackendDriver>) -> Self {
        self.driver = Some(driver);
        self.backend_spec_err = None;
        self
    }

    /// Selects the plan store by registry spec string (e.g.
    /// `"memory:8x4096"`, `"tiered:memory:8x4096,file:.skp-plans"`;
    /// see [`plan_store_specs`](crate::plan_store_specs)). Without
    /// this, the engine keeps a small private in-memory store, so
    /// repeat runs of the same population on one engine still re-use
    /// their plans.
    pub fn plan_store(mut self, spec: &str) -> Self {
        match build_plan_store(spec) {
            Ok(s) => {
                self.store = Some(s);
                self.store_spec_err = None;
            }
            Err(e) => self.store_spec_err = Some(e.into()),
        }
        self
    }

    /// Installs an already-built plan store. The route for *sharing*
    /// one store across engines (hand the same `Arc` to each builder):
    /// `skp-serve` uses this to warm every worker from one store.
    pub fn plan_store_instance(mut self, store: Arc<dyn PlanStore>) -> Self {
        self.store = Some(store);
        self.store_spec_err = None;
        self
    }

    /// Switches observability by registry spec string (`"memory"` on,
    /// `"none"` off; see [`obs_sink_specs`](obs::obs_sink_specs)). The
    /// default is `"none"`: the phase clock is never read, the event
    /// loop builds no probe and [`RunReport::phases`](crate::RunReport)
    /// stays empty. With `"memory"` every run records its phase spans,
    /// the scheduler's epoch marks and any fault windows there.
    /// Observability never changes results — reports and event logs
    /// are bit-identical on or off.
    pub fn obs(mut self, spec: &str) -> Self {
        match build_obs(spec) {
            Ok(o) => {
                self.obs = o;
                self.obs_spec_err = None;
            }
            Err(e) => self.obs_spec_err = Some(e.into()),
        }
        self
    }

    /// Validates the configuration and builds the engine.
    pub fn build(self) -> Result<Engine, Error> {
        if let Some(e) = self.policy_spec_err {
            return Err(e);
        }
        if let Some(e) = self.backend_spec_err {
            return Err(e);
        }
        if let Some(e) = self.store_spec_err {
            return Err(e);
        }
        if let Some(e) = self.obs_spec_err {
            return Err(e);
        }
        let (policy, policy_spec) = match self.policy {
            Some(p) => (p, self.policy_spec),
            None => (build_policy("skp-exact")?, Some("skp-exact".to_string())),
        };
        let n_items = self.n_items;
        let predictor = match (self.predictor, self.predictor_spec) {
            (Some(p), _) => Some(p),
            (None, Some(spec)) => {
                let n = n_items.ok_or(Error::MissingComponent {
                    component: "item universe (catalog(..) or items(..))",
                    needed_for: "predictor construction",
                })?;
                Some(build_predictor(&spec, n)?)
            }
            (None, None) => None,
        };
        if let (Some(p), Some(n)) = (&predictor, n_items) {
            if p.n_items() != n {
                return Err(Error::InvalidParam {
                    what: "predictor universe",
                    detail: format!(
                        "predictor covers {} items but the catalog has {n}",
                        p.n_items()
                    ),
                });
            }
        }
        let client = match self.capacity {
            None => None,
            Some(capacity) => {
                if capacity == 0 {
                    return Err(Error::InvalidParam {
                        what: "cache capacity",
                        detail: "must be at least one slot".into(),
                    });
                }
                let n = n_items.ok_or(Error::MissingComponent {
                    component: "item universe (catalog(..) or items(..))",
                    needed_for: "cache construction",
                })?;
                Some(PrefetchCache::new(
                    PrefetchCacheConfig {
                        sub: self.sub,
                        capacity,
                    },
                    n,
                ))
            }
        };
        let driver = self.driver.unwrap_or_else(|| Arc::new(SingleClientDriver));
        // The fallback store is engine-private and tiny: just enough to
        // carry the previous run's plans across repeat runs of the same
        // population on this engine (the pre-store behaviour).
        let store = self
            .store
            .unwrap_or_else(|| Arc::new(MemoryStore::new(1, 8)));
        Ok(Engine {
            policy,
            policy_spec,
            predictor,
            client,
            retrievals: self.retrievals,
            driver,
            store,
            obs: self.obs,
            forecast: None,
            row: Vec::new(),
            scratch: RoundScratch::default(),
        })
    }
}

/// The facade engine: plan, evaluate, verify, step and [`run`](Engine::run)
/// whole workloads through one coherent API. Built with
/// [`Engine::builder`].
pub struct Engine {
    policy: Box<dyn Prefetcher>,
    /// Registry spec the policy was built from (`None` for custom
    /// instances installed via `policy_instance`).
    policy_spec: Option<String>,
    predictor: Option<Box<dyn Predictor>>,
    client: Option<PrefetchCache>,
    retrievals: Option<Vec<f64>>,
    driver: Arc<dyn BackendDriver>,
    /// Cross-run (and, when shared via
    /// [`plan_store_instance`](SessionBuilder::plan_store_instance),
    /// cross-engine) store of solved population plans: registry
    /// policies are pure functions of the scenario, so the (policy
    /// spec, chain, catalog) triple — folded into a content key by
    /// [`population_plan_key`] — fully determines every per-state
    /// plan. Custom [`policy_instance`](SessionBuilder::policy_instance)
    /// policies bypass the store: they carry no registry spec to key
    /// on, and their purity cannot be vouched for.
    store: Arc<dyn PlanStore>,
    /// Observability handle every run records into. Detached
    /// (`"none"`) by default: each probe site costs one branch, the
    /// phase clock is never read, and no epoch marks are collected.
    obs: Obs,
    /// Reused state of the online step: the catalog scenario that
    /// [`step_forecast`](Engine::step_forecast) refills from each
    /// forecast, a forecast row and the round's buffers. A
    /// steady-state round allocates nothing.
    forecast: Option<Scenario>,
    row: Vec<(usize, f64)>,
    scratch: RoundScratch,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Display name of the configured policy.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Whether the configured policy is an oracle (plans per realised
    /// request; see [`Prefetcher::is_oracle`]).
    pub fn policy_is_oracle(&self) -> bool {
        self.policy.is_oracle()
    }

    /// Registry spec the policy was built from, when there is one
    /// (`None` for custom instances). Remote backends ship this spec
    /// across the wire instead of the policy object.
    pub fn policy_spec(&self) -> Option<&str> {
        self.policy_spec.as_deref()
    }

    /// Registry name of the configured backend.
    pub fn backend_name(&self) -> &'static str {
        self.driver.name()
    }

    /// Canonical spec string of the configured backend (reparses to an
    /// equivalent driver through [`build_backend`]).
    pub fn backend_spec_string(&self) -> String {
        self.driver.spec_string()
    }

    /// Canonical spec string of the configured plan store (reparses to
    /// an equivalent store through [`build_plan_store`]).
    pub fn plan_store_spec_string(&self) -> String {
        self.store.spec_string()
    }

    /// Live counters of the configured plan store (also snapshot into
    /// every [`RunReport`]).
    pub fn plan_store_stats(&self) -> PlanStoreStats {
        self.store.stats()
    }

    /// Canonical spec string of the configured observability sink
    /// (`"none"` when detached; reparses to an equivalent handle
    /// through [`build_obs`]).
    pub fn obs_spec_string(&self) -> String {
        self.obs.spec_string()
    }

    /// The cache contents, when a cache is configured.
    pub fn cached_items(&self) -> Vec<usize> {
        self.client
            .as_ref()
            .map(|c| c.cache().items().to_vec())
            .unwrap_or_default()
    }

    // -----------------------------------------------------------------
    // The workload-first entry point.
    // -----------------------------------------------------------------

    /// Runs one [`Workload`] on the configured backend and returns the
    /// unified [`RunReport`]: the common [`AccessStats`] block plus the
    /// workload/backend-specific section (and the event log when the
    /// workload asked for tracing).
    ///
    /// For [`Workload::Plan`] the common stats describe the
    /// distribution of `T(F, α)` with the realised request `α` drawn
    /// from the scenario's (normalised) probabilities — directly
    /// comparable to realised-run statistics. For
    /// [`Workload::MonteCarlo`] the quantiles require buffering one
    /// sample per iteration.
    ///
    /// This is the one entry point (the legacy per-workload methods —
    /// `report`, `run_trace`, `monte_carlo`, `multi_client`, `sharded`
    /// — were removed in 0.5).
    pub fn run(&mut self, workload: &Workload) -> Result<RunReport, Error> {
        // One branch when observability is off: the timer never reads
        // the clock, no marks are collected, `phases` stays empty.
        let mut timer = PhaseTimer::new(self.obs.enabled());
        match workload {
            Workload::Plan(w) => {
                timer.start("plan-solve");
                let report = self.plan_report(&w.scenario);
                timer.start("stat-fold");
                let access = plan_access_stats(&w.scenario, &report.per_request);
                timer.stop();
                Ok(RunReport {
                    access,
                    section: ReportSection::Plan(report),
                    events: Vec::new(),
                    plan_store: self.store.stats(),
                    phases: timer.finish(Vec::new()),
                })
            }
            Workload::Trace(w) => {
                timer.start("simulate");
                let (access, report) = self.trace_report(&w.trace)?;
                timer.stop();
                Ok(RunReport {
                    access,
                    section: ReportSection::Trace(report),
                    events: Vec::new(),
                    plan_store: self.store.stats(),
                    phases: timer.finish(Vec::new()),
                })
            }
            Workload::MonteCarlo(w) => {
                timer.start("simulate");
                let (access, report) = self.monte_carlo_report(w.spec)?;
                timer.stop();
                Ok(RunReport {
                    access,
                    section: ReportSection::MonteCarlo(report),
                    events: Vec::new(),
                    plan_store: self.store.stats(),
                    phases: timer.finish(Vec::new()),
                })
            }
            Workload::Sharded(w) => {
                let mut marks = Vec::new();
                let collect = self.obs.enabled();
                let (access, section, events) = self.population_report(
                    &w.chain,
                    w.requests_per_client,
                    w.seed,
                    w.traced,
                    workload.name(),
                    None,
                    &mut timer,
                    collect.then_some(&mut marks),
                )?;
                Ok(RunReport {
                    access,
                    section,
                    events,
                    plan_store: self.store.stats(),
                    phases: timer.finish(marks),
                })
            }
            Workload::Generated(w) => {
                // The generator synthesises the chain against the full
                // catalog; a backend that cannot run populations still
                // outranks a missing catalog (the legacy error order).
                let n_items = match self.retrievals.as_ref() {
                    Some(r) => r.len(),
                    None if !self.driver.supports_population() => {
                        return Err(Error::UnsupportedBackend {
                            operation: "generated",
                            backend: self.driver.name(),
                        });
                    }
                    None => {
                        return Err(Error::MissingComponent {
                            component: "catalog",
                            needed_for: "generated",
                        });
                    }
                };
                let (chain, faults) = build_generator(&w.spec)?.build(n_items, w.seed)?;
                let mut marks = Vec::new();
                let collect = self.obs.enabled();
                let (access, section, events) = self.population_report(
                    &chain,
                    w.requests_per_client,
                    w.seed,
                    w.traced,
                    "generated",
                    faults.as_ref(),
                    &mut timer,
                    collect.then_some(&mut marks),
                )?;
                let mut phases = timer.finish(marks);
                // Fault-window phase marks for the trace export: the
                // same materialisation the substrate derived, resolved
                // against the shard count that actually ran.
                if collect {
                    if let (Some(spec), Some(shards)) = (&faults, section_shards(&section)) {
                        phases.faults = spec
                            .materialise(shards, w.seed)
                            .windows
                            .iter()
                            .enumerate()
                            .flat_map(|(shard, windows)| {
                                windows.iter().map(move |&(start, end)| obs::FaultWindow {
                                    shard,
                                    start,
                                    end,
                                })
                            })
                            .collect();
                    }
                }
                Ok(RunReport {
                    access,
                    section,
                    events,
                    plan_store: self.store.stats(),
                    phases,
                })
            }
        }
    }

    // -----------------------------------------------------------------
    // Closed-form planning and evaluation.
    // -----------------------------------------------------------------

    /// Plans a prefetch for the scenario. With a cache configured, the
    /// plan covers only non-cached items (Section 5); otherwise all
    /// items are candidates.
    ///
    /// Oracle policies (`"perfect"`) plan against the *realised*
    /// request, which is unknown here: they return the empty plan.
    /// Drive them through [`step`](Engine::step) or a Monte-Carlo
    /// [`Workload`], which know the request.
    pub fn plan(&self, s: &Scenario) -> PrefetchPlan {
        if self.policy.is_oracle() {
            return PrefetchPlan::empty();
        }
        let mut row = Vec::new();
        dense_row(s.probs(), &mut row);
        let mut scratch = RoundScratch::default();
        // The request (0) only matters to the oracle, handled above.
        let items = scratch.plan(&*self.policy, s, &row, 0, self.client.as_ref());
        PrefetchPlan::new(items.to_vec()).expect("the round checks each item is planned once")
    }

    /// Plans and evaluates in closed form — the engine of
    /// [`Workload::Plan`].
    fn plan_report(&self, s: &Scenario) -> PlanReport {
        let plan = self.plan(s);
        self.report_plan(s, plan)
    }

    /// Evaluates a given plan in closed form (empty-cache view).
    pub fn report_plan(&self, s: &Scenario, plan: PrefetchPlan) -> PlanReport {
        let items = plan.items();
        PlanReport {
            gain: gain_empty_cache(s, items),
            stretch: stretch_time(s, items),
            expected_access_time: expected_access_time_empty(s, items),
            expected_no_prefetch: s.expected_no_prefetch(),
            upper_bound: upper_bound(s),
            per_request: (0..s.n()).map(|a| access_time_empty(s, items, a)).collect(),
            plan,
        }
    }

    /// Mechanistically replays one session on the configured backend's
    /// channel model and returns the measured access time. The engine's
    /// current cache contents (if any) serve requests in zero time.
    pub fn replay(&self, s: &Scenario, plan: &PrefetchPlan, request: usize) -> f64 {
        self.replay_with_cached(s, plan, request, &self.cached_items())
    }

    fn replay_with_cached(
        &self,
        s: &Scenario,
        plan: &PrefetchPlan,
        request: usize,
        cached: &[usize],
    ) -> f64 {
        let cfg = SessionConfig {
            viewing: s.viewing(),
            plan: plan.items(),
            request,
            cached,
        };
        self.driver.session_access_time(s.retrievals(), &cfg)
    }

    /// Plans, evaluates, and verifies the closed forms against an
    /// event-by-event replay for **every** possible request. Errors with
    /// [`Error::Mismatch`] if formula and replay ever disagree (which
    /// would indicate a model bug).
    ///
    /// Only exact on backends whose channel model is the one the closed
    /// forms describe ([`BackendDriver::closed_form_exact`]; the
    /// single-client backend).
    pub fn verified_report(&self, s: &Scenario) -> Result<PlanReport, Error> {
        if !self.driver.closed_form_exact() {
            return Err(Error::UnsupportedBackend {
                operation: "verified_report",
                backend: self.driver.name(),
            });
        }
        let report = self.plan_report(s);
        for (request, &formula) in report.per_request.iter().enumerate() {
            // The report is the empty-cache view (Eq. 3), so the replay
            // must start from an empty cache too, whatever the engine's
            // client currently holds.
            let replayed = self.replay_with_cached(s, &report.plan, request, &[]);
            if (formula - replayed).abs() > 1e-9 {
                return Err(Error::Mismatch {
                    request,
                    formula,
                    replay: replayed,
                });
            }
        }
        Ok(report)
    }

    // -----------------------------------------------------------------
    // Online stepping (predictor + cache).
    // -----------------------------------------------------------------

    /// Feeds one realised access to the predictor (no-op without one).
    pub fn observe(&mut self, item: usize) {
        if let Some(p) = &mut self.predictor {
            p.observe(item);
        }
    }

    /// Forecasts next-access probabilities from the current item.
    pub fn predict(&self, current: usize) -> Result<Vec<f64>, Error> {
        let p = self.predictor.as_ref().ok_or(Error::MissingComponent {
            component: "predictor",
            needed_for: "predict",
        })?;
        Ok(p.predict(current))
    }

    /// Builds a [`Scenario`] for the coming round: predictor forecast
    /// (clamped and normalised into a sub-distribution) over the
    /// catalog's retrieval times.
    pub fn scenario(&self, current: usize, viewing: f64) -> Result<Scenario, Error> {
        let retrievals = self.retrievals.as_ref().ok_or(Error::MissingComponent {
            component: "catalog",
            needed_for: "scenario",
        })?;
        let mut probs = self.predict(current)?;
        probs.resize(retrievals.len(), 0.0);
        for p in &mut probs {
            if !p.is_finite() || *p < 0.0 {
                *p = 0.0;
            }
        }
        let mass: f64 = probs.iter().sum();
        if mass > 1.0 {
            for p in &mut probs {
                *p /= mass;
            }
        }
        Ok(Scenario::new(probs, retrievals.clone(), viewing)?)
    }

    /// Runs one request cycle: plan with the policy, arbitrate against
    /// the cache (when configured), serve `alpha`, learn nothing — call
    /// [`observe`](Engine::observe) with the realised access to train
    /// the predictor.
    ///
    /// Without a cache this is the paper's "prefetch only" discipline:
    /// the prefetch buffer is flushed after the request.
    ///
    /// Oracle policies (`"perfect"`) prefetch exactly `alpha` here —
    /// the realised request is in hand.
    ///
    /// The cycle is the one [`step_forecast`](Engine::step_forecast)
    /// runs; this entry point hands it the scenario's own row.
    ///
    /// # Panics
    /// Panics when the scenario's universe differs from the cache's.
    pub fn step(&mut self, s: &Scenario, alpha: usize) -> StepOutcome {
        let mut row = std::mem::take(&mut self.row);
        dense_row(s.probs(), &mut row);
        let round = self.round(s, &row, alpha);
        self.row = row;
        self.outcome(round)
    }

    /// One round of the online loop, sparse: forecast from `current`,
    /// plan, arbitrate and serve `alpha`. Returns what
    /// `step(&scenario(current, viewing)?, alpha)` returns, bit for bit,
    /// with the same errors, without building a scenario: the
    /// predictor's row ([`Predictor::predict_row`]) refills one catalog
    /// scenario in place, and the SKP policies plan from the row. This is
    /// the round [`Workload::Trace`] replays.
    ///
    /// Like `step`, it learns nothing: call
    /// [`observe`](Engine::observe) with the realised access.
    pub fn step_forecast(
        &mut self,
        current: usize,
        viewing: f64,
        alpha: usize,
    ) -> Result<StepOutcome, Error> {
        let round = self.forecast_round(current, viewing, alpha)?;
        Ok(self.outcome(round))
    }

    /// [`step_forecast`](Engine::step_forecast) without the item lists:
    /// they stay in the engine's buffers, so a steady-state round
    /// allocates nothing.
    fn forecast_round(
        &mut self,
        current: usize,
        viewing: f64,
        alpha: usize,
    ) -> Result<Round, Error> {
        let retrievals = self.retrievals.as_ref().ok_or(Error::MissingComponent {
            component: "catalog",
            needed_for: "scenario",
        })?;
        if self.predictor.is_none() {
            return Err(Error::MissingComponent {
                component: "predictor",
                needed_for: "predict",
            });
        }
        let n = retrievals.len();
        // Checked once, as `scenario` checks it each round: its
        // probabilities always pass, so a bad retrieval time is the
        // first error.
        let mut s = match self.forecast.take() {
            Some(s) => s,
            None => Scenario::new(vec![0.0; n], retrievals.clone(), 0.0)?,
        };
        let mut row = std::mem::take(&mut self.row);
        self.forecast_row(current, n, &mut row);
        let round = s
            .set_row(&row, viewing)
            .map(|()| self.round(&s, &row, alpha));
        self.row = row;
        self.forecast = Some(s);
        Ok(round?)
    }

    /// The one request cycle behind [`step`](Engine::step) and
    /// [`step_forecast`](Engine::step_forecast): the Section-5 round
    /// ([`PrefetchCache::round`]), or without a cache its plan served
    /// from a flushed buffer. `row` lists `s`'s entries other than `+0.0`,
    /// ascending.
    fn round(&mut self, s: &Scenario, row: &[(usize, f64)], alpha: usize) -> Round {
        match &mut self.client {
            Some(client) => client.round(&*self.policy, s, row, alpha, &mut self.scratch),
            None => {
                let items = self.scratch.plan(&*self.policy, s, row, alpha, None);
                Round::served(s, items, alpha, false)
            }
        }
    }

    /// The full outcome of the last [`round`](Engine::round): without a
    /// cache the buffer is flushed after the request, so nothing is
    /// ejected.
    fn outcome(&self, round: Round) -> StepOutcome {
        match &self.client {
            Some(client) => round.outcome(client.prefetched(), client.ejected()),
            None => round.outcome(self.scratch.planned(), &[]),
        }
    }

    /// The predictor's forecast row for the coming round, clamped and
    /// normalised over an `n`-item catalog with the arithmetic of
    /// [`scenario`](Engine::scenario): items past the catalog dropped,
    /// non-finite and negative entries zeroed, and the row rescaled
    /// when its mass exceeds one. Summed in ascending item order, the
    /// mass has the dense sum's bits. Lists every entry other than
    /// `+0.0`, ascending.
    fn forecast_row(&self, current: usize, n: usize, row: &mut Vec<(usize, f64)>) {
        let predictor = self.predictor.as_ref().expect("checked by the caller");
        predictor.predict_row(current, row);
        row.retain_mut(|(item, p)| {
            if !p.is_finite() || *p < 0.0 {
                *p = 0.0;
            }
            *item < n && p.to_bits() != 0
        });
        let mass: f64 = row.iter().map(|&(_, p)| p).sum();
        if mass > 1.0 {
            for (_, p) in row.iter_mut() {
                *p /= mass;
            }
        }
    }

    // -----------------------------------------------------------------
    // Trace replay.
    // -----------------------------------------------------------------

    /// The engine of [`Workload::Trace`]: replays the records, returning
    /// the common stats plus the legacy report shape. Each round is one
    /// [`step_forecast`](Engine::step_forecast) round, its item lists
    /// left in the engine's buffers.
    fn trace_report(&mut self, trace: &Trace) -> Result<(AccessStats, TraceReport), Error> {
        if self.predictor.is_none() {
            return Err(Error::MissingComponent {
                component: "predictor",
                needed_for: "trace workload",
            });
        }
        if self.retrievals.is_none() {
            return Err(Error::MissingComponent {
                component: "catalog",
                needed_for: "trace workload",
            });
        }
        let records = trace.records();
        if records.len() < 2 {
            return Err(Error::InvalidParam {
                what: "trace",
                detail: "need at least two records to replay".into(),
            });
        }
        let n = self.retrievals.as_ref().expect("checked").len();
        if trace.universe() > n {
            return Err(Error::InvalidParam {
                what: "trace",
                detail: format!(
                    "trace references item {} but the catalog has {n} items",
                    trace.universe() - 1
                ),
            });
        }

        let mut access = RunningStats::new();
        let mut samples = Vec::with_capacity(records.len() - 1);
        let mut wasted = RunningStats::new();
        let mut hits = 0u64;
        self.observe(records[0].item);
        for w in records.windows(2) {
            let (here, next) = (w[0], w[1]);
            let out = self.forecast_round(here.item, here.viewing, next.item)?;
            access.push(out.access_time);
            samples.push(out.access_time);
            wasted.push(out.wasted_retrieval);
            if out.hit {
                hits += 1;
            }
            self.observe(next.item);
        }
        let requests = (records.len() - 1) as u64;
        let report = TraceReport {
            requests,
            mean_access_time: access.mean(),
            hit_rate: hits as f64 / requests as f64,
            wasted_per_request: wasted.mean(),
        };
        Ok((AccessStats::from_samples(&mut samples), report))
    }

    // -----------------------------------------------------------------
    // Monte-Carlo.
    // -----------------------------------------------------------------

    /// The engine of [`Workload::MonteCarlo`]: the sampling loop, fanned
    /// out as the backend's [`McFanout`] dictates. Every access time is
    /// buffered (one `f64` per iteration) to compute the exact common
    /// quantiles of the report's stats block.
    fn monte_carlo_report(&self, spec: MonteCarloSpec) -> Result<(AccessStats, SimReport), Error> {
        if spec.iterations == 0 {
            return Err(Error::InvalidParam {
                what: "monte-carlo iterations",
                detail: "must be positive".into(),
            });
        }
        let gen = ScenarioGen::paper(spec.n_items, spec.method);
        let policy: [&dyn Prefetcher; 1] = [&*self.policy];
        let sim = |chunk_seed: u64, iters: u64| -> (SimReport, Vec<f64>) {
            let mut access = RunningStats::new();
            let mut gain = RunningStats::new();
            // Capacity hint only — capped so an absurd `iterations`
            // value cannot abort on one huge eager allocation; the
            // buffer grows with samples actually produced.
            let mut samples = Vec::with_capacity(iters.min(1 << 20) as usize);
            sample_chunk(&gen, &policy, chunk_seed, iters, |_, s, alpha, t| {
                access.push(t);
                samples.push(t);
                gain.push(s.retrieval(alpha) - t);
            });
            (
                SimReport {
                    access,
                    gain,
                    iterations: iters,
                },
                samples,
            )
        };
        let merge = |(mut a, mut sa): (SimReport, Vec<f64>), (b, sb): (SimReport, Vec<f64>)| {
            a.access.merge(&b.access);
            a.gain.merge(&b.gain);
            a.iterations += b.iterations;
            sa.extend(sb);
            (a, sa)
        };
        let (report, mut samples) = match self.driver.monte_carlo_fanout()? {
            McFanout::Sequential => sim(spec.seed, spec.iterations),
            McFanout::Parallel { chunks, threads } => {
                par_monte_carlo(spec.iterations, chunks, spec.seed, threads, sim, merge).ok_or(
                    Error::InvalidParam {
                        what: "monte-carlo split",
                        detail: "produced no chunks".into(),
                    },
                )?
            }
        };
        Ok((AccessStats::from_samples(&mut samples), report))
    }

    // -----------------------------------------------------------------
    // Population replays.
    // -----------------------------------------------------------------

    /// The catalog, checked to cover the chain's state universe with
    /// retrieval times every per-state [`Scenario`] accepts.
    fn catalog_for(&self, chain: &MarkovChain, needed_for: &'static str) -> Result<&[f64], Error> {
        let retrievals = self.retrievals.as_ref().ok_or(Error::MissingComponent {
            component: "catalog",
            needed_for,
        })?;
        if retrievals.len() < chain.n_states() {
            return Err(Error::InvalidParam {
                what: "catalog",
                detail: format!(
                    "covers {} items but the workload has {} states",
                    retrievals.len(),
                    chain.n_states()
                ),
            });
        }
        // `Scenario::new`'s rule, checked once here so no planning round
        // can meet a bad entry.
        let bad = retrievals[..chain.n_states()]
            .iter()
            .position(|r| !r.is_finite() || *r <= 0.0);
        if let Some(index) = bad {
            return Err(Error::Model(ModelError::BadRetrievalTime {
                index,
                value: retrievals[index],
            }));
        }
        Ok(retrievals)
    }

    /// The engine of the population workloads: builds the per-round
    /// planner from this engine's policy and hands the replay to the
    /// backend driver.
    #[allow(clippy::too_many_arguments)]
    fn population_report(
        &mut self,
        chain: &MarkovChain,
        requests_per_client: u64,
        seed: u64,
        traced: bool,
        operation: &'static str,
        faults: Option<&distsys::FaultSpec>,
        timer: &mut PhaseTimer,
        marks: Option<&mut Vec<EpochMark>>,
    ) -> Result<(AccessStats, ReportSection, Vec<SimEvent>), Error> {
        timer.start("build");
        let mut solve = SolveScratch::default();
        let retrievals = match self.catalog_for(chain, operation) {
            Ok(r) => r,
            // A backend that cannot run populations at all outranks a
            // missing catalog (the legacy error order).
            Err(_) if !self.driver.supports_population() => {
                return Err(Error::UnsupportedBackend {
                    operation,
                    backend: self.driver.name(),
                });
            }
            Err(e) => return Err(e),
        };
        // Every row merged and checked once, before any lookup: a row
        // `Scenario::new` would refuse is refused here, visited or not.
        let rows = chain.merged_rows();
        for state in 0..chain.n_states() {
            Scenario::check_row(rows.row(state))?;
        }
        // Re-use previously solved plans for the same population:
        // registry policies are pure in the scenario, so the (spec,
        // chain, catalog) content key fully determines every per-state
        // plan. Custom `policy_instance` policies have no spec, and a
        // store that retains nothing (`none`) has nothing to give back:
        // no key, no store traffic.
        let n = chain.n_states();
        let catalog = &retrievals[..n];
        let spec = self.policy_spec.as_deref();
        let key = spec
            .filter(|_| self.store.retains())
            .map(|spec| population_plan_key(spec, chain, retrievals));
        let carried = key.and_then(|k| {
            let set = self.store.get(k)?;
            // The key is a non-cryptographic 64-bit hash: trust the
            // entry only after its guard echoes the live spec and
            // catalog, so a collision in either or a corrupted file
            // degrades to a miss. The guard does not echo the chain.
            if set.plans.len() == n && spec.is_some_and(|s| set.matches(s, catalog)) {
                Some(set.plans.clone())
            } else {
                None
            }
        });
        let store_hit = carried.is_some();
        let mut planner = StatePlanMemo::with_memo(
            carried.unwrap_or_else(|| vec![None; n]),
            store_hit,
            |state: usize| {
                let basis = RowBasis::Catalog {
                    retrievals: catalog,
                    viewing: chain.viewing(state),
                };
                let mut plan = Vec::new();
                self.policy
                    .plan_row_into(rows.row(state), basis, &mut solve, &mut plan);
                plan
            },
        );
        timer.start("simulate");
        let out = self.driver.run_population(PopulationRun {
            chain,
            retrievals,
            planner: &mut planner,
            requests_per_client,
            seed,
            traced,
            operation,
            faults,
            policy_spec: self.policy_spec.as_deref(),
            marks,
        });
        timer.start("plan-store-put");
        // Write back only when the run added information: a hit whose
        // rounds solved nothing new would rewrite identical bytes into
        // every tier (the `file:` tier in particular) for no gain.
        if let (Some(k), Some(spec)) = (key, spec) {
            if planner.newly_solved > 0 || !store_hit {
                self.store.put(
                    k,
                    Arc::new(PlanSet {
                        plans: planner.memo,
                        guard: PlanGuard {
                            policy_spec: spec.to_string(),
                            catalog: catalog.to_vec(),
                        },
                    }),
                );
            }
        }
        timer.stop();
        out
    }
}

/// Shard count a population report section ran on — where fault
/// windows are meaningful. Non-population sections have none.
fn section_shards(section: &ReportSection) -> Option<usize> {
    match section {
        ReportSection::Sharded(r) => Some(r.shards.len()),
        _ => None,
    }
}

/// Per-state plan memo backing every population replay.
///
/// The facade's policies are pure functions of the [`Scenario`], and a
/// population scenario depends only on the client's Markov state — not
/// on the client id or the round — so each state's plan is solved once
/// and replayed for every client and every round. A solve reads the
/// state's row from the run's merged row table
/// ([`MarkovChain::merged_rows`]) and hands it to
/// [`Prefetcher::plan_row_into`]; the SKP policies plan from the row's
/// positive entries, with no dense scenario. Steady-state rounds
/// copy the memoised plan straight into the executor's buffer
/// ([`ClientPolicy::plan_into`]): no scenario rebuild, no knapsack
/// solve, no allocation. Between runs the memo survives in the
/// engine's [`PlanStore`], keyed by population content hash.
struct StatePlanMemo<F> {
    compute: F,
    memo: Vec<Option<Vec<usize>>>,
    /// States solved by this run (as opposed to carried in from the
    /// store) — the signal for whether a write-back adds information.
    newly_solved: usize,
    /// Debug-build cross-check: states whose plans came from the store
    /// get one fresh solve on first use, asserting the stored plan
    /// still matches the live policy. Keeps the memoisation honest for
    /// every store tier; empty in release builds.
    unverified: Vec<bool>,
}

impl<F: FnMut(usize) -> Vec<usize>> StatePlanMemo<F> {
    fn with_memo(memo: Vec<Option<Vec<usize>>>, from_store: bool, compute: F) -> Self {
        let unverified = if cfg!(debug_assertions) && from_store {
            memo.iter().map(|m| m.is_some()).collect()
        } else {
            Vec::new()
        };
        Self {
            compute,
            memo,
            newly_solved: 0,
            unverified,
        }
    }

    fn cached(&mut self, state: usize) -> &[usize] {
        if self.memo[state].is_none() {
            self.memo[state] = Some((self.compute)(state));
            self.newly_solved += 1;
        } else if self.unverified.get(state).copied().unwrap_or(false) {
            self.unverified[state] = false;
            let fresh = (self.compute)(state);
            assert_eq!(
                Some(&fresh),
                self.memo[state].as_ref(),
                "stored plan for state {state} diverged from a fresh solve \
                 (corrupted store entry or impure policy)"
            );
        }
        self.memo[state].as_deref().expect("just filled")
    }
}

impl<F: FnMut(usize) -> Vec<usize>> ClientPolicy for StatePlanMemo<F> {
    fn plan(&mut self, _client: usize, state: usize) -> Vec<usize> {
        self.cached(state).to_vec()
    }

    fn plan_into(&mut self, _client: usize, state: usize, out: &mut Vec<usize>) {
        let plan = self.cached(state);
        out.extend_from_slice(plan);
    }
}

/// The common stats of a [`Workload::Plan`] run: the distribution of
/// `T(F, α)` with the realised request `α` drawn from the scenario's
/// probabilities (normalised over the candidate mass), so the block is
/// directly comparable to realised-run statistics. `count` is the
/// number of candidate requests with positive probability; quantiles
/// are probability-weighted nearest-rank.
fn plan_access_stats(s: &Scenario, per_request: &[f64]) -> AccessStats {
    let mass: f64 = (0..s.n()).map(|i| s.prob(i)).sum();
    let mut weighted: Vec<(f64, f64)> = (0..s.n())
        .filter(|&i| s.prob(i) > 0.0)
        .map(|i| (per_request[i], s.prob(i) / mass))
        .collect();
    if weighted.is_empty() {
        return AccessStats::default();
    }
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quantile = |q: f64| {
        let mut acc = 0.0;
        for &(t, p) in &weighted {
            acc += p;
            if acc >= q - 1e-12 {
                return t;
            }
        }
        weighted.last().expect("non-empty").0
    };
    AccessStats {
        count: weighted.len() as u64,
        mean: weighted.iter().map(|&(t, p)| t * p).sum(),
        p50: quantile(0.50),
        p99: quantile(0.99),
        min: weighted.first().expect("non-empty").0,
        max: weighted.last().expect("non-empty").0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::backend_specs;
    use montecarlo::probgen::ProbMethod;

    fn scenario() -> Scenario {
        Scenario::new(
            vec![0.40, 0.25, 0.15, 0.15, 0.05],
            vec![6.0, 5.0, 9.0, 2.0, 14.0],
            10.0,
        )
        .unwrap()
    }

    #[test]
    fn default_engine_plans_and_verifies() {
        let engine = Engine::builder().build().unwrap();
        let report = engine.verified_report(&scenario()).unwrap();
        assert!(report.gain > 0.0);
        assert!(report.gain <= report.upper_bound + 1e-9);
        assert_eq!(report.per_request.len(), 5);
    }

    #[test]
    fn run_plan_carries_common_stats() {
        let mut engine = Engine::builder().build().unwrap();
        let report = engine.run(&Workload::plan(scenario())).unwrap();
        let plan = report.plan().expect("plan section").clone();
        assert_eq!(report.access.count, 5);
        assert!(report.access.p99 >= report.access.p50);
        // The probabilities sum to 1 here, so the probability-weighted
        // mean is exactly the plan's expected access time — the block is
        // comparable to realised-run statistics.
        assert!((report.access.mean - plan.expected_access_time).abs() < 1e-12);
        assert!(report.events.is_empty());
    }

    #[test]
    fn plan_stats_weight_by_request_probability() {
        // probs [0.9, 0.1], per-request T [0, 100]: the weighted view
        // must report mean 10 and p50 0, not the unweighted 50/50.
        let s = Scenario::new(vec![0.9, 0.1], vec![1.0, 100.0], 0.0).unwrap();
        let stats = plan_access_stats(&s, &[0.0, 100.0]);
        assert_eq!(stats.count, 2);
        assert!((stats.mean - 10.0).abs() < 1e-12);
        assert_eq!(stats.p50, 0.0);
        assert_eq!(stats.p99, 100.0);
        assert_eq!(stats.min, 0.0);
        assert_eq!(stats.max, 100.0);
        // Zero-probability candidates are excluded from the support.
        let sub = Scenario::new(vec![0.5, 0.0], vec![1.0, 100.0], 0.0).unwrap();
        let stats = plan_access_stats(&sub, &[3.0, 100.0]);
        assert_eq!(stats.count, 1);
        assert_eq!(stats.max, 3.0);
    }

    #[test]
    fn unknown_policy_surfaces_at_build() {
        let err = Engine::builder()
            .policy("wizardry")
            .build()
            .err()
            .expect("must fail");
        assert!(matches!(err, Error::UnknownPolicy { .. }));
    }

    #[test]
    fn unknown_backend_spec_surfaces_at_build() {
        let err = Engine::builder()
            .backend_spec("warp-drive")
            .build()
            .err()
            .expect("must fail");
        assert!(matches!(err, Error::UnknownBackend { .. }));
        // A later valid spec clears the error.
        let engine = Engine::builder()
            .backend_spec("warp-drive")
            .backend_spec("sharded:2x3:range")
            .catalog(vec![1.0; 8])
            .build()
            .expect("valid spec wins");
        assert_eq!(engine.backend_name(), "sharded");
        assert_eq!(engine.backend_spec_string(), "sharded:2x3:range");
    }

    #[test]
    fn bad_plan_store_spec_surfaces_at_build() {
        let err = Engine::builder()
            .plan_store("memory:0x4")
            .build()
            .err()
            .expect("must fail");
        assert!(matches!(err, Error::InvalidParam { .. }), "{err}");
        // A later valid spec clears the error.
        let engine = Engine::builder()
            .plan_store("memory:0x4")
            .plan_store("memory:2x16")
            .build()
            .expect("valid spec wins");
        assert_eq!(engine.plan_store_spec_string(), "memory:2x16");
    }

    #[test]
    fn repeat_population_runs_hit_the_plan_store() {
        let chain = MarkovChain::random(10, 2, 4, 5, 20, 5).unwrap();
        let mut engine = Engine::builder()
            .backend_spec("multi-client:3")
            .catalog((0..10).map(|i| 2.0 + i as f64).collect())
            .plan_store("memory:2x16")
            .build()
            .unwrap();
        let workload = Workload::sharded(chain, 20, 1).traced(true);
        let cold = engine.run(&workload).unwrap();
        assert_eq!(cold.plan_store.hits, 0);
        assert_eq!(cold.plan_store.lookups, 1);
        let warm = engine.run(&workload).unwrap();
        assert_eq!(warm.plan_store.hits, 1);
        // The determinism contract extends to the store: the warm
        // report and event log are bit-identical (PartialEq ignores
        // the counters; the sections and events are compared fully).
        assert_eq!(cold, warm);
        assert!(!warm.events.is_empty());
    }

    #[test]
    fn shared_store_warms_a_fresh_engine() {
        let chain = MarkovChain::random(10, 2, 4, 5, 20, 5).unwrap();
        let store = build_plan_store("memory:2x16").unwrap();
        let catalog: Vec<f64> = (0..10).map(|i| 2.0 + i as f64).collect();
        let engine = |store: Arc<dyn PlanStore>| {
            Engine::builder()
                .backend_spec("multi-client:3")
                .catalog(catalog.clone())
                .plan_store_instance(store)
                .build()
                .unwrap()
        };
        let workload = Workload::sharded(chain, 20, 1);
        let cold = engine(store.clone()).run(&workload).unwrap();
        // A different engine, same store: served from the shared state.
        let warm = engine(store.clone()).run(&workload).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().lookups, 2);
    }

    #[test]
    fn custom_policy_instances_bypass_the_store() {
        // An instance policy has no registry spec: its purity cannot be
        // keyed, so population runs never touch the store.
        let chain = MarkovChain::random(8, 2, 4, 5, 20, 5).unwrap();
        let mut engine = Engine::builder()
            .policy_instance(build_policy("skp-exact").unwrap())
            .backend_spec("multi-client:2")
            .catalog((0..8).map(|i| 2.0 + i as f64).collect())
            .plan_store("memory:2x16")
            .build()
            .unwrap();
        let workload = Workload::sharded(chain, 10, 1);
        engine.run(&workload).unwrap();
        let report = engine.run(&workload).unwrap();
        assert_eq!(report.plan_store.lookups, 0);
        assert_eq!(report.plan_store.hits, 0);
    }

    #[test]
    fn the_public_key_is_the_engine_key() {
        // An entry put under `population_plan_key` with a matching
        // guard is a hit for `Engine::run`: the engine and the public
        // function share one key.
        let chain = MarkovChain::random(6, 2, 4, 5, 20, 3).unwrap();
        let catalog: Vec<f64> = (0..6).map(|i| 2.0 + i as f64).collect();
        let engine = |store: Arc<dyn PlanStore>| {
            Engine::builder()
                .backend_spec("multi-client:2")
                .catalog(catalog.clone())
                .plan_store_instance(store)
                .build()
                .unwrap()
        };
        let workload = Workload::sharded(chain.clone(), 10, 1);
        let solved = build_plan_store("memory:1x8").unwrap();
        let cold = engine(solved.clone()).run(&workload).unwrap();
        let key = planstore::population_plan_key("skp-exact", &chain, &catalog);
        let plans = solved
            .get(key)
            .expect("the engine wrote under the public key");
        let store = build_plan_store("memory:1x8").unwrap();
        store.put(
            key,
            Arc::new(PlanSet {
                plans: plans.plans.clone(),
                guard: PlanGuard {
                    policy_spec: "skp-exact".into(),
                    catalog: catalog.clone(),
                },
            }),
        );
        let warm = engine(store.clone()).run(&workload).unwrap();
        assert_eq!(warm.plan_store.hits, 1, "{:?}", warm.plan_store);
        assert_eq!(cold, warm);
    }

    #[test]
    fn stale_store_entries_are_ignored_not_trusted() {
        // Seed the store with a colliding key whose guard does not
        // match the live inputs: the run must treat it as a miss.
        let chain = MarkovChain::random(6, 2, 4, 5, 20, 3).unwrap();
        let catalog: Vec<f64> = (0..6).map(|i| 2.0 + i as f64).collect();
        let store = build_plan_store("memory:1x8").unwrap();
        let key = planstore::population_plan_key("skp-exact", &chain, &catalog);
        store.put(
            key,
            Arc::new(PlanSet {
                plans: vec![Some(vec![0]); 6],
                guard: PlanGuard {
                    policy_spec: "greedy".into(),
                    catalog: catalog.clone(),
                },
            }),
        );
        let mut engine = Engine::builder()
            .backend_spec("multi-client:2")
            .catalog(catalog)
            .plan_store_instance(store.clone())
            .build()
            .unwrap();
        let baseline = {
            let mut fresh = Engine::builder()
                .backend_spec("multi-client:2")
                .catalog((0..6).map(|i| 2.0 + i as f64).collect())
                .build()
                .unwrap();
            fresh.run(&Workload::sharded(chain.clone(), 10, 1)).unwrap()
        };
        let guarded = engine.run(&Workload::sharded(chain, 10, 1)).unwrap();
        assert_eq!(baseline, guarded, "stale entry must not leak into the run");
        // The mismatched entry was replaced by the freshly solved one.
        assert_eq!(store.get(key).unwrap().guard.policy_spec, "skp-exact");
    }

    #[test]
    fn predictor_without_universe_is_rejected() {
        let err = Engine::builder()
            .predictor("ngram")
            .build()
            .err()
            .expect("must fail");
        assert!(matches!(err, Error::MissingComponent { .. }));
    }

    #[test]
    fn cached_engine_steps_and_hits() {
        let mut engine = Engine::builder()
            .policy("skp-exact")
            .catalog(vec![6.0, 5.0, 9.0, 2.0, 14.0])
            .cache(3)
            .build()
            .unwrap();
        let s = scenario();
        let first = engine.step(&s, 0);
        // Item 0 is highly probable and cheap: any sensible plan takes it.
        assert!(first.prefetched.contains(&0));
        let again = engine.step(&s, 0);
        assert!(again.hit, "cached item must hit: {again:?}");
        assert!(engine.cached_items().contains(&0));
    }

    #[test]
    fn cacheless_step_is_prefetch_only() {
        let mut engine = Engine::builder().build().unwrap();
        let s = scenario();
        let out = engine.step(&s, 4); // improbable expensive item
        assert!(out.access_time > 0.0);
        assert!(out.ejected.is_empty());
    }

    #[test]
    fn predictor_scenario_learns_a_cycle() {
        let mut engine = Engine::builder()
            .predictor("ngram:1")
            .catalog(vec![3.0; 3])
            .build()
            .unwrap();
        // End the walk on item 0: the n-gram context is the stream
        // itself, so the forecast is for the successor of item 0.
        for i in 0..61 {
            engine.observe(i % 3);
        }
        let s = engine.scenario(0, 10.0).unwrap(); // current 0 -> next 1
        assert!(s.prob(1) > 0.8, "probs {:?}", s.probs());
        let plan = engine.plan(&s);
        assert!(plan.contains(1));
    }

    #[test]
    fn monte_carlo_parallel_matches_sequential_chunking() {
        let spec = MonteCarloSpec {
            n_items: 6,
            method: ProbMethod::skewy(),
            iterations: 400,
            seed: 77,
        };
        let run = |threads| {
            Engine::builder()
                .backend_spec(&format!("monte-carlo:8x{threads}"))
                .build()
                .unwrap()
                .run(&Workload::monte_carlo(spec))
                .unwrap()
        };
        let par = run(4);
        let par2 = run(1);
        assert_eq!(par, par2, "thread count must not change the result");
        let sim = par.monte_carlo().expect("monte-carlo section");
        assert_eq!(sim.iterations, 400);
        assert_eq!(par.access.count, 400);
        assert!((par.access.mean - sim.access.mean()).abs() < 1e-9);
        assert!(par.access.p99 >= par.access.p50);
    }

    #[test]
    fn multi_client_requires_population_backend_and_catalog() {
        let mut engine = Engine::builder().build().unwrap();
        let chain = MarkovChain::random(6, 2, 4, 5, 20, 3).unwrap();
        assert!(matches!(
            engine.run(&Workload::sharded(chain.clone(), 10, 1)),
            Err(Error::UnsupportedBackend { .. })
        ));

        let mut engine = Engine::builder()
            .backend_spec("multi-client:3")
            .catalog((0..6).map(|i| 2.0 + i as f64).collect())
            .build()
            .unwrap();
        let report = engine.run(&Workload::sharded(chain, 20, 1)).unwrap();
        let out = report.sharded().expect("one-shard sharded section");
        assert_eq!(out.shards.len(), 1);
        assert_eq!(out.requests(), 60);
        assert_eq!(report.access, out.access);
        assert!(out.shards[0].utilisation <= 1.0 + 1e-9);
    }

    #[test]
    fn population_runs_refuse_bad_retrieval_times() {
        let chain = MarkovChain::random(6, 2, 4, 5, 20, 3).unwrap();
        for bad in [0.0, -1.0, f64::INFINITY] {
            let mut catalog: Vec<f64> = (0..6).map(|i| 2.0 + i as f64).collect();
            catalog[4] = bad;
            let mut engine = Engine::builder()
                .backend_spec("sharded:2x3:hash")
                .catalog(catalog)
                .build()
                .unwrap();
            let err = engine
                .run(&Workload::sharded(chain.clone(), 5, 1))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Model(ModelError::BadRetrievalTime { index: 4, value })
                        if value.to_bits() == bad.to_bits()
                ),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn population_runs_refuse_rows_a_scenario_would_refuse() {
        // `MarkovChain::new` lets a row sum miss 1 by up to 1e-6, but a
        // scenario refuses any probability above 1 + 1e-9: alone, or
        // merged from a repeated successor.
        let single = vec![vec![(1, 1.0000005)], vec![(0, 1.0)]];
        let repeated = vec![vec![(1, 1.0)], vec![(0, 0.5000003), (0, 0.5000003)]];
        for (rows, state) in [(single, 1), (repeated, 0)] {
            let chain = MarkovChain::new(rows, vec![5.0, 5.0]).unwrap();
            for policy in ["skp-exact", "skp-paper", "kp"] {
                let mut engine = Engine::builder()
                    .policy(policy)
                    .backend_spec("sharded:1x2:hash")
                    .catalog(vec![3.0, 4.0])
                    .build()
                    .unwrap();
                let err = engine
                    .run(&Workload::sharded(chain.clone(), 5, 1))
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        Error::Model(ModelError::BadProbability { index, value })
                            if index == state && value > 1.0 + skp_core::EPS
                    ),
                    "{policy}: {err}"
                );
                // The refusal leaves the engine usable.
                let good = MarkovChain::new(vec![vec![(1, 1.0)], vec![(0, 1.0)]], vec![5.0; 2]);
                engine.run(&Workload::sharded(good.unwrap(), 5, 1)).unwrap();
            }
        }
    }

    #[test]
    fn sharded_backend_runs_and_reports_per_shard() {
        let chain = MarkovChain::random(12, 2, 4, 5, 20, 5).unwrap();
        let mut engine = Engine::builder()
            .backend_spec("sharded:3x4:hash")
            .catalog((0..12).map(|i| 2.0 + i as f64).collect())
            .build()
            .unwrap();
        let run = engine
            .run(&Workload::sharded(chain.clone(), 20, 1))
            .unwrap();
        let report = run.sharded().expect("sharded section");
        assert_eq!(report.requests(), 80);
        assert_eq!(report.shards.len(), 3);
        assert_eq!(run.access, report.access);
        assert!(report.access.p99 >= report.access.p50);
        // Running it on a non-population backend is a typed error.
        let mut wrong = Engine::builder().build().unwrap();
        assert!(matches!(
            wrong.run(&Workload::sharded(chain, 5, 1)),
            Err(Error::UnsupportedBackend { .. })
        ));
    }

    #[test]
    fn population_workloads_cross_run_on_either_substrate() {
        // The shared channel (`multi-client:<clients>`, an alias of
        // `sharded:1x<clients>:hash`) and a multi-shard farm run the
        // same workload and report the same section shape.
        let chain = MarkovChain::random(10, 2, 4, 5, 20, 5).unwrap();
        for (spec, shards) in [("multi-client:3", 1), ("sharded:2x3", 2)] {
            let mut engine = Engine::builder()
                .backend_spec(spec)
                .catalog((0..10).map(|i| 2.0 + i as f64).collect())
                .build()
                .unwrap();
            let report = engine
                .run(&Workload::sharded(chain.clone(), 10, 1))
                .unwrap();
            assert_eq!(report.section.name(), "sharded", "{spec}");
            assert_eq!(report.sharded().unwrap().shards.len(), shards, "{spec}");
        }
    }

    #[test]
    fn traced_population_records_events() {
        let chain = MarkovChain::random(8, 2, 4, 5, 20, 5).unwrap();
        let mut engine = Engine::builder()
            .backend_spec("multi-client:2")
            .catalog((0..8).map(|i| 2.0 + i as f64).collect())
            .build()
            .unwrap();
        let quiet = engine
            .run(&Workload::sharded(chain.clone(), 10, 1))
            .unwrap();
        assert!(quiet.events.is_empty());
        let traced = engine
            .run(&Workload::sharded(chain, 10, 1).traced(true))
            .unwrap();
        assert!(!traced.events.is_empty());
        assert_eq!(
            quiet.section, traced.section,
            "tracing must not change results"
        );
    }

    #[test]
    fn sharded_replay_uses_per_shard_channels() {
        // Range placement over 4 items, 2 shards: {0, 1} | {2, 3}.
        let s = Scenario::new(
            vec![0.25, 0.25, 0.25, 0.25],
            vec![10.0, 5.0, 10.0, 6.0],
            1.0,
        )
        .unwrap();
        let plan = PrefetchPlan::new(vec![0, 2]).unwrap();
        let sharded = Engine::builder()
            .backend_spec("sharded:2x1:range")
            .build()
            .unwrap();
        // The miss on item 1 (shard 0) queues behind item 0 only:
        // served at max(1, 10) + 5 → T = 14, not the serial-FIFO 24.
        assert!((sharded.replay(&s, &plan, 1) - 14.0).abs() < 1e-9);
        let serial = Engine::builder().build().unwrap();
        assert!((serial.replay(&s, &plan, 1) - 24.0).abs() < 1e-9);
        // One shard collapses to the serial FIFO discipline.
        let one = Engine::builder()
            .backend_spec("sharded:1x1:range")
            .build()
            .unwrap();
        // So does the `multi-client` alias: its replays are FIFO, as
        // its population runs are.
        let shared = Engine::builder()
            .backend_spec("multi-client:2")
            .build()
            .unwrap();
        assert_eq!(shared.backend_spec_string(), "sharded:1x2:hash");
        for request in 0..4 {
            let fifo = serial.replay(&s, &plan, request);
            assert!((one.replay(&s, &plan, request) - fifo).abs() < 1e-9);
            assert!((shared.replay(&s, &plan, request) - fifo).abs() < 1e-9);
        }
    }

    #[test]
    fn sharded_builder_validation() {
        for (shards, clients) in [(0usize, 3usize), (2, 0)] {
            let err = Engine::builder()
                .backend_spec(&format!("sharded:{shards}x{clients}:hash"))
                .build()
                .err()
                .expect("must fail");
            assert!(matches!(err, Error::InvalidParam { .. }));
        }
    }

    #[test]
    fn backend_specs_cover_every_builtin_variant() {
        let specs = backend_specs();
        for spec in ["single-client", "sharded:1x1:hash", "monte-carlo:1x1"] {
            let backend = build_backend(spec).unwrap();
            assert!(
                specs.iter().any(|s| s.name == backend.name()),
                "backend {} missing from specs",
                backend.name()
            );
        }
    }

    #[test]
    fn trace_replay_learns_and_hits() {
        let mut trace = Trace::new();
        for i in 0..300 {
            trace.push(i % 3, 10.0);
        }
        let mut engine = Engine::builder()
            .policy("skp-exact")
            .predictor("ngram:1")
            .catalog(vec![3.0; 3])
            .cache(2)
            .build()
            .unwrap();
        let run = engine.run(&Workload::trace(trace)).unwrap();
        let report = run.trace().expect("trace section");
        assert_eq!(report.requests, 299);
        assert!(report.hit_rate > 0.9, "hit rate {}", report.hit_rate);
        assert!(report.mean_access_time < 0.5);
        assert_eq!(run.access.count, 299);
        assert!((run.access.mean - report.mean_access_time).abs() < 1e-9);
        assert_eq!(run.access.min, 0.0, "hits are zero-time accesses");
    }

    /// A trace over `0, 1, 2, 0, …` with viewing 10 (plenty for r = 3).
    fn cyclic_trace(len: usize) -> Trace {
        let mut t = Trace::new();
        for i in 0..len {
            t.push(i % 3, 10.0);
        }
        t
    }

    fn trace_engine(policy: &str, predictor: &str, items: usize, cache: usize) -> Engine {
        Engine::builder()
            .policy(policy)
            .predictor(predictor)
            .catalog(vec![3.0; items])
            .cache(cache)
            .sub_arbitration(SubArbitration::DelaySaving)
            .build()
            .unwrap()
    }

    #[test]
    fn trace_without_prefetch_pays_every_miss() {
        // One slot on a 3-cycle: every request misses without prefetch.
        let mut engine = trace_engine("no-prefetch", "ngram:1", 3, 1);
        let run = engine.run(&Workload::trace(cyclic_trace(100))).unwrap();
        let report = run.trace().expect("trace section");
        assert!(report.hit_rate < 0.05, "hit rate {}", report.hit_rate);
        assert!((report.mean_access_time - 3.0).abs() < 0.2);
    }

    #[test]
    fn trace_catalog_may_exceed_the_trace_universe() {
        // A 10-item catalog; the trace visits 3 of them.
        let mut engine = trace_engine("skp-exact", "ngram:1", 10, 4);
        let run = engine.run(&Workload::trace(cyclic_trace(30))).unwrap();
        assert_eq!(run.trace().expect("trace section").requests, 29);
    }

    #[test]
    fn trace_replay_with_depgraph_hits() {
        let mut engine = trace_engine("skp-exact", "depgraph:1", 3, 2);
        let run = engine.run(&Workload::trace(cyclic_trace(200))).unwrap();
        let report = run.trace().expect("trace section");
        assert!(report.hit_rate > 0.8, "hit rate {}", report.hit_rate);
    }

    #[test]
    fn trace_of_one_record_is_refused() {
        let mut t = Trace::new();
        t.push(0, 1.0);
        let mut engine = trace_engine("no-prefetch", "ngram:1", 1, 1);
        let e = engine.run(&Workload::trace(t)).unwrap_err();
        assert!(
            matches!(e, Error::InvalidParam { what: "trace", .. }),
            "{e}"
        );
        assert!(e.to_string().contains("at least two records"), "{e}");
    }

    /// A custom policy that plans item 0 twice from every row.
    struct PlansTwice;

    impl Prefetcher for PlansTwice {
        fn name(&self) -> &str {
            "plans-twice"
        }
        fn plan_candidates(&self, _: &Scenario, _: &[bool]) -> PrefetchPlan {
            PrefetchPlan::empty()
        }
        fn plan_row_into(
            &self,
            _: &[(usize, f64)],
            _: RowBasis<'_>,
            _: &mut SolveScratch,
            plan: &mut Vec<usize>,
        ) {
            plan.clear();
            plan.extend([0, 0]);
        }
    }

    fn plans_twice_engine() -> Engine {
        Engine::builder()
            .policy_instance(Box::new(PlansTwice))
            .predictor("ngram:1")
            .catalog(vec![3.0; 3])
            .cache(2)
            .build()
            .unwrap()
    }

    #[test]
    #[should_panic(expected = "a policy plans each item once")]
    fn step_refuses_a_plan_that_repeats_an_item() {
        let s = Scenario::new(vec![0.5, 0.5, 0.0], vec![3.0; 3], 10.0).unwrap();
        plans_twice_engine().step(&s, 1);
    }

    #[test]
    #[should_panic(expected = "a policy plans each item once")]
    fn step_forecast_refuses_a_plan_that_repeats_an_item() {
        let mut engine = plans_twice_engine();
        engine.observe(0);
        let _ = engine.step_forecast(0, 10.0, 1);
    }

    #[test]
    fn trace_past_the_catalog_is_refused() {
        let mut engine = trace_engine("no-prefetch", "ngram:1", 1, 1);
        let e = engine.run(&Workload::trace(cyclic_trace(10))).unwrap_err();
        assert!(e.to_string().contains("references item 2"), "{e}");
    }
}
