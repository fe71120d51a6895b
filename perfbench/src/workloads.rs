//! The four closed-loop workloads. Each keeps one op outstanding and
//! derives every chain, catalog and trace from the workload seed.
//!
//! An untraced op is what a user runs: one `Engine::run` (or a fresh
//! engine plus one `Engine::run`). A traced op repeats it by calling the
//! layers' public functions in sequence, each inside a benchmark-side
//! span, and rebuilds the same `RunReport`, so both kinds of op are
//! checked against the workload's reference.

use std::cell::Cell;
use std::error::Error as StdError;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use skp_serve::{ServeConfig, Server, ServerHandle};
use speculative_prefetch::wire::Json;
use speculative_prefetch::{
    build_generator, build_plan_store, build_policy, http_request, parse_report,
    population_plan_key, render_report_fields, AccessStats, ClientPolicy, ClientWorkload, Engine,
    Error, MarkovChain, Placement, PlanGuard, PlanSet, PlanStore, PrefetchPlan, Prefetcher,
    ReportSection, RunReport, RunningStats, Scenario, ShardedSim, Trace, TraceReport, WireRun,
    Workload,
};

use crate::spans::{span, REPLAY, ROOT};

pub type Res<T> = Result<T, Box<dyn StdError>>;

/// Every workload plans with the paper's corrected SKP solver.
const POLICY: &str = "skp-exact";
/// The plan store an engine keeps when none is configured.
const PRIVATE_STORE: &str = "memory:1x8";

pub const NAMES: [&str; 4] = ["cold-plan", "sim-flash", "served-traced", "trace-cache"];

/// One workload, set up and ready to run ops. A run holds several
/// inputs, all derived from the workload seed, and op `i` uses input
/// `i % inputs`: the figures of one run average over its inputs, so runs
/// on different seeds agree.
pub trait Bench {
    /// One op on input `i` as a user runs it, with no spans.
    fn op(&mut self, i: usize) -> Res<RunReport>;
    /// The same op with every layer call inside a span.
    fn traced_op(&mut self, i: usize) -> Res<RunReport>;
    /// The report every op on each input must equal.
    fn references(&self) -> &[RunReport];
    /// Per-layer figures that come from the workload's reports, stores
    /// and daemon rather than from spans; read after the traced ops.
    fn figures(&mut self) -> Res<Vec<(&'static str, f64)>>;
}

/// Builds a workload: inputs, engines, daemon, warm-up and reference
/// runs. `tick` is called once after each input is ready.
pub fn setup(name: &str, seed: u64, tick: &mut dyn FnMut()) -> Res<Box<dyn Bench>> {
    Ok(match name {
        "cold-plan" => Box::new(ColdPlan::new(seed, tick)?),
        "sim-flash" => Box::new(SimFlash::new(seed, tick)?),
        "served-traced" => Box::new(Served::new(seed, tick)?),
        "trace-cache" => Box::new(TraceCache::new(seed, tick)?),
        other => return Err(format!("unknown workload '{other}' (one of {NAMES:?})").into()),
    })
}

/// SplitMix64: independent sub-seeds (per input, then per chain,
/// catalog, trace and simulation) of one workload seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeds of a run's inputs.
fn input_seeds(seed: u64, inputs: usize) -> impl Iterator<Item = u64> {
    (0..inputs as u64).map(move |j| sub_seed(seed, 100 + j))
}

/// Retrieval times `1..=r_max`, evenly spread over the items and
/// shuffled by the seed: every input has the same catalog mix, so the
/// seed moves which items are slow, not how slow the catalog is.
fn catalog(n: usize, r_max: u32, seed: u64) -> Vec<f64> {
    let mut r: Vec<f64> = (0..n)
        .map(|i| 1.0 + ((f64::from(r_max) - 1.0) * i as f64 / (n - 1) as f64).round())
        .collect();
    r.shuffle(&mut SmallRng::seed_from_u64(sub_seed(seed, 2)));
    r
}

/// The paper's Figure-7 chain: 100 states, fan-out 10–20, viewing 1–100.
fn fig7_chain(seed: u64) -> Res<MarkovChain> {
    Ok(MarkovChain::random(100, 10, 20, 1, 100, sub_seed(seed, 1))?)
}

/// Simulated-system figures of the sharded reference reports, averaged
/// over a run's inputs.
fn sim_figures(references: &[RunReport]) -> Vec<(&'static str, f64)> {
    let mut sums = [0.0; 5];
    for r in references.iter().filter_map(RunReport::sharded) {
        let jobs: u64 = r.shards.iter().map(|s| s.jobs).sum();
        let max_depth = r
            .shards
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0);
        // One request event per access plus one completion per transfer.
        sums[0] += (r.access.count + jobs) as f64;
        sums[1] += r.access.count as f64;
        sums[2] += r.utilisation;
        sums[3] += r.wasted_transfer / r.total_transfer;
        sums[4] += max_depth as f64;
    }
    let n = references.len() as f64;
    [
        "distsys.events",
        "distsys.accesses",
        "distsys.utilisation",
        "distsys.wasted_transfer_share",
        "distsys.max_queue_depth",
    ]
    .into_iter()
    .zip(sums.map(|x| x / n))
    .collect()
}

// ---------------------------------------------------------------------
// The population pipeline, layer by layer.
// ---------------------------------------------------------------------

/// [`ClientWorkload`] view of a Markov chain.
struct Walk<'a>(&'a MarkovChain);

impl ClientWorkload for Walk<'_> {
    fn viewing(&self, state: usize) -> f64 {
        self.0.viewing(state)
    }
    fn next(&self, state: usize, rng: &mut SmallRng) -> usize {
        self.0.next_state(state, rng)
    }
    fn n_items(&self) -> usize {
        self.0.n_states()
    }
}

/// Per-state plan table: carried in from the store, or solved on first
/// use inside a `core.solve` span, so the simulator's span holds no
/// solve of its own.
struct PlanTable<'a> {
    engine: &'a Engine,
    chain: &'a MarkovChain,
    catalog: &'a [f64],
    plans: Vec<Option<Vec<usize>>>,
    solved: usize,
}

impl ClientPolicy for PlanTable<'_> {
    fn plan(&mut self, client: usize, state: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.plan_into(client, state, &mut out);
        out
    }

    fn plan_into(&mut self, _client: usize, state: usize, out: &mut Vec<usize>) {
        if self.plans[state].is_none() {
            let plan = span("core.solve", || {
                let s = Scenario::new(
                    self.chain.row_probs(state),
                    self.catalog.to_vec(),
                    self.chain.viewing(state),
                )
                .expect("markov rows are valid scenarios");
                self.engine.plan(&s).into_items()
            });
            self.plans[state] = Some(plan);
            self.solved += 1;
        }
        out.extend_from_slice(self.plans[state].as_deref().expect("just solved"));
    }
}

/// The sharded substrate one population runs on.
#[derive(Clone, Copy)]
struct Farm {
    shards: usize,
    clients: usize,
    placement: Placement,
}

/// Lookups and hits of the plan stores the traced ops used.
#[derive(Default)]
struct StoreCounts {
    lookups: Cell<u64>,
    hits: Cell<u64>,
}

impl StoreCounts {
    fn figures(&self) -> Vec<(&'static str, f64)> {
        let (lookups, hits) = (self.lookups.get(), self.hits.get());
        vec![(
            "planstore.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        )]
    }
}

/// Plan-store lookup with the population's content key; a hit is
/// trusted only when its guard echoes the live inputs.
fn store_get(
    store: &dyn PlanStore,
    chain: &MarkovChain,
    catalog: &[f64],
    counts: &StoreCounts,
) -> (u64, Option<Vec<Option<Vec<usize>>>>) {
    let n = chain.n_states();
    let (key, carried) = span("planstore.get", || {
        let key = population_plan_key(POLICY, chain, catalog);
        let carried = store
            .get(key)
            .filter(|set| set.plans.len() == n && set.matches(POLICY, &catalog[..n]))
            .map(|set| set.plans.clone());
        (key, carried)
    });
    counts.lookups.set(counts.lookups.get() + 1);
    counts
        .hits
        .set(counts.hits.get() + u64::from(carried.is_some()));
    (key, carried)
}

fn plan_set(plans: Vec<Option<Vec<usize>>>, catalog: &[f64]) -> Arc<PlanSet> {
    Arc::new(PlanSet {
        plans,
        guard: PlanGuard {
            policy_spec: POLICY.to_string(),
            catalog: catalog.to_vec(),
        },
    })
}

fn store_put(store: &dyn PlanStore, key: u64, plans: Vec<Option<Vec<usize>>>, catalog: &[f64]) {
    span("planstore.put", || store.put(key, plan_set(plans, catalog)));
}

/// `Engine::run` of a population workload, layer by layer: store
/// lookup, simulation fed by the plan table, store write-back, report.
#[allow(clippy::too_many_arguments)]
fn population(
    engine: &Engine,
    store: &dyn PlanStore,
    counts: &StoreCounts,
    chain: &MarkovChain,
    catalog: &[f64],
    farm: Farm,
    requests_per_client: u64,
    seed: u64,
    traced: bool,
) -> RunReport {
    let n = chain.n_states();
    let (key, carried) = store_get(store, chain, catalog, counts);
    let hit = carried.is_some();
    let mut table = PlanTable {
        engine,
        chain,
        catalog: &catalog[..n],
        plans: carried.unwrap_or_else(|| vec![None; n]),
        solved: 0,
    };
    let walk = Walk(chain);
    let sim = ShardedSim {
        workload: &walk,
        retrievals: catalog,
        clients: farm.clients,
        shards: farm.shards,
        placement: farm.placement,
        requests_per_client,
        seed,
        faults: None,
    };
    let (report, events) = span("distsys.sim", || {
        if traced {
            sim.run_traced(&mut table)
        } else {
            (sim.run(&mut table), Vec::new())
        }
    });
    if table.solved > 0 || !hit {
        store_put(store, key, table.plans, &catalog[..n]);
    }
    RunReport {
        access: report.access,
        section: ReportSection::Sharded(report),
        events,
        plan_store: store.stats(),
        phases: Default::default(),
    }
}

// ---------------------------------------------------------------------
// cold-plan: a fresh engine per op, every plan solved.
// ---------------------------------------------------------------------

const COLD_INPUTS: usize = 64;
const COLD_BACKEND: &str = "sharded:4x16:hash";
const COLD_FARM: Farm = Farm {
    shards: 4,
    clients: 16,
    placement: Placement::Hash,
};
const COLD_REQUESTS: u64 = 10;

struct ColdInput {
    chain: MarkovChain,
    catalog: Vec<f64>,
    workload: Workload,
    seed: u64,
}

struct ColdPlan {
    inputs: Vec<ColdInput>,
    references: Vec<RunReport>,
    counts: StoreCounts,
}

fn cold_engine(catalog: &[f64]) -> Result<Engine, Error> {
    Engine::builder()
        .policy(POLICY)
        .catalog(catalog.to_vec())
        .backend_spec(COLD_BACKEND)
        .build()
}

impl ColdPlan {
    fn new(seed: u64, tick: &mut dyn FnMut()) -> Res<Self> {
        let mut inputs = Vec::with_capacity(COLD_INPUTS);
        let mut references = Vec::with_capacity(COLD_INPUTS);
        for s in input_seeds(seed, COLD_INPUTS) {
            let chain = fig7_chain(s)?;
            let catalog = catalog(100, 30, s);
            let seed = sub_seed(s, 3);
            let workload = Workload::sharded(chain.clone(), COLD_REQUESTS, seed);
            references.push(cold_engine(&catalog)?.run(&workload)?);
            inputs.push(ColdInput {
                chain,
                catalog,
                workload,
                seed,
            });
            tick();
        }
        Ok(ColdPlan {
            inputs,
            references,
            counts: StoreCounts::default(),
        })
    }
}

impl Bench for ColdPlan {
    fn op(&mut self, i: usize) -> Res<RunReport> {
        let input = &self.inputs[i];
        Ok(cold_engine(&input.catalog)?.run(&input.workload)?)
    }

    fn traced_op(&mut self, i: usize) -> Res<RunReport> {
        let input = &self.inputs[i];
        span(ROOT, || {
            let engine = span("engine.build", || cold_engine(&input.catalog))?;
            let store = build_plan_store(PRIVATE_STORE)?;
            Ok(population(
                &engine,
                &*store,
                &self.counts,
                &input.chain,
                &input.catalog,
                COLD_FARM,
                COLD_REQUESTS,
                input.seed,
                false,
            ))
        })
    }

    fn references(&self) -> &[RunReport] {
        &self.references
    }

    fn figures(&mut self) -> Res<Vec<(&'static str, f64)>> {
        let mut out = sim_figures(&self.references);
        out.extend(self.counts.figures());
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// sim-flash: warm engines, a generated flash crowd on a range farm.
// ---------------------------------------------------------------------

const FLASH_INPUTS: usize = 48;
const FLASH_SPEC: &str = "flash:1.2@0.5";
const FLASH_ITEMS: usize = 48;
const FLASH_BACKEND: &str = "sharded:8x256:range";
const FLASH_FARM: Farm = Farm {
    shards: 8,
    clients: 256,
    placement: Placement::Range,
};
const FLASH_REQUESTS: u64 = 200;

struct FlashInput {
    /// One engine per input, so each keeps its plans in its own store.
    engine: Engine,
    /// The traced ops' stand-in for the engine's private store.
    store: Arc<dyn PlanStore>,
    workload: Workload,
    catalog: Vec<f64>,
    seed: u64,
}

struct SimFlash {
    inputs: Vec<FlashInput>,
    references: Vec<RunReport>,
    counts: StoreCounts,
}

impl SimFlash {
    fn new(seed: u64, tick: &mut dyn FnMut()) -> Res<Self> {
        let mut bench = SimFlash {
            inputs: Vec::with_capacity(FLASH_INPUTS),
            references: Vec::with_capacity(FLASH_INPUTS),
            counts: StoreCounts::default(),
        };
        for (i, s) in input_seeds(seed, FLASH_INPUTS).enumerate() {
            let catalog = catalog(FLASH_ITEMS, 30, s);
            let seed = sub_seed(s, 3);
            let mut engine = Engine::builder()
                .policy(POLICY)
                .catalog(catalog.clone())
                .backend_spec(FLASH_BACKEND)
                .build()?;
            let workload = Workload::generated(FLASH_SPEC, FLASH_REQUESTS, seed);
            // The first run solves and stores every plan; later runs are
            // warm.
            bench.references.push(engine.run(&workload)?);
            bench.inputs.push(FlashInput {
                engine,
                store: build_plan_store(PRIVATE_STORE)?,
                workload,
                catalog,
                seed,
            });
            bench.traced_op(i)?;
            tick();
        }
        bench.counts = StoreCounts::default();
        Ok(bench)
    }
}

impl Bench for SimFlash {
    fn op(&mut self, i: usize) -> Res<RunReport> {
        let input = &mut self.inputs[i];
        Ok(input.engine.run(&input.workload)?)
    }

    fn traced_op(&mut self, i: usize) -> Res<RunReport> {
        let input = &self.inputs[i];
        span(ROOT, || {
            let (chain, _faults) = span("generator.build", || {
                build_generator(FLASH_SPEC)?.build(FLASH_ITEMS, input.seed)
            })?;
            Ok(population(
                &input.engine,
                &*input.store,
                &self.counts,
                &chain,
                &input.catalog,
                FLASH_FARM,
                FLASH_REQUESTS,
                input.seed,
                false,
            ))
        })
    }

    fn references(&self) -> &[RunReport] {
        &self.references
    }

    fn figures(&mut self) -> Res<Vec<(&'static str, f64)>> {
        let mut out = sim_figures(&self.references);
        out.extend(self.counts.figures());
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// served-traced: the served: backend against an in-process daemon.
// ---------------------------------------------------------------------

const SERVED_INPUTS: usize = 64;
const SERVED_INNER: &str = "sharded:4x16:hash";
const SERVED_FARM: Farm = COLD_FARM;
const SERVED_REQUESTS: u64 = 50;
const SERVED_WORKERS: usize = 2;

struct ServedInput {
    chain: MarkovChain,
    catalog: Vec<f64>,
    workload: Workload,
    seed: u64,
}

struct Served {
    daemon: Option<ServerHandle>,
    addr: String,
    /// The client's backend spec: `served:<daemon>:<inner>`.
    backend: String,
    inputs: Vec<ServedInput>,
    /// The daemon's shared store, as the in-process replay sees it.
    replay_store: Arc<dyn PlanStore>,
    counts: StoreCounts,
    reply_bytes: (usize, usize),
    references: Vec<RunReport>,
}

impl Served {
    fn new(seed: u64, tick: &mut dyn FnMut()) -> Res<Self> {
        let cfg = ServeConfig {
            workers: SERVED_WORKERS,
            ..ServeConfig::default()
        };
        let replay_store = build_plan_store(&cfg.plan_store)?;
        let server = Server::bind("127.0.0.1:0", cfg)?;
        let addr = server.local_addr().to_string();
        let daemon = server.spawn()?;
        let mut bench = Served {
            daemon: Some(daemon),
            backend: format!("served:{addr}:{SERVED_INNER}"),
            addr,
            inputs: Vec::with_capacity(SERVED_INPUTS),
            replay_store,
            counts: StoreCounts::default(),
            reply_bytes: (0, 0),
            references: Vec::with_capacity(SERVED_INPUTS),
        };
        for (i, s) in input_seeds(seed, SERVED_INPUTS).enumerate() {
            let chain = MarkovChain::random(24, 2, 4, 5, 20, sub_seed(s, 1))?;
            let catalog = catalog(24, 8, s);
            let seed = sub_seed(s, 3);
            let workload = Workload::sharded(chain.clone(), SERVED_REQUESTS, seed).traced(true);
            // The local ≡ served: contract: every reply must equal the
            // in-process run of the inner backend.
            bench.references.push(
                Engine::builder()
                    .policy(POLICY)
                    .catalog(catalog.clone())
                    .backend_spec(SERVED_INNER)
                    .build()?
                    .run(&workload)?,
            );
            bench.inputs.push(ServedInput {
                chain,
                catalog,
                workload,
                seed,
            });
            // Warms the daemon's store and the replay's for this input.
            bench.op(i)?;
            bench.replay(&bench.wire_run(i))?;
            tick();
        }
        bench.counts = StoreCounts::default();
        Ok(bench)
    }

    fn get(&self, path: &str) -> Res<String> {
        let resp = http_request(&self.addr, "GET", path, None)?;
        if resp.status != 200 {
            return Err(format!("GET {path}: {} {}", resp.status, resp.error_detail()).into());
        }
        Ok(resp.body)
    }

    /// A client engine for input `i`, as a user builds one per run.
    fn client(&self, i: usize) -> Result<Engine, Error> {
        Engine::builder()
            .policy(POLICY)
            .catalog(self.inputs[i].catalog.clone())
            .backend_spec(&self.backend)
            .build()
    }

    /// The body the served: backend posts for input `i`.
    fn wire_run(&self, i: usize) -> String {
        let input = &self.inputs[i];
        WireRun::new(
            "sharded",
            SERVED_INNER,
            POLICY,
            &input.chain,
            &input.catalog,
            SERVED_REQUESTS,
            input.seed,
            true,
        )
        .render()
    }

    /// The daemon's side of one `POST /run`, replayed in-process under
    /// the same op id: wire parse, engine build, the population run on
    /// the shared store, report render.
    fn replay(&self, body: &str) -> Res<()> {
        span(REPLAY, || {
            let run = span("wire.run_parse", || WireRun::parse(body))?;
            let (engine, workload) = span("engine.build", || {
                run.instantiate_with_store(Arc::clone(&self.replay_store))
            })?;
            let Workload::Sharded(w) = &workload else {
                return Err("wire run is not a sharded population".into());
            };
            let report = population(
                &engine,
                &*self.replay_store,
                &self.counts,
                &w.chain,
                &run.retrievals,
                SERVED_FARM,
                w.requests_per_client,
                w.seed,
                w.traced,
            );
            span("wire.report_render", || {
                std::hint::black_box(format!(
                    "{{\"workload\":\"{}\",\"backend\":\"{}\",\"policy\":\"{}\",{}}}",
                    run.kind,
                    engine.backend_spec_string(),
                    engine.policy_name(),
                    render_report_fields(&report, &[])
                ))
            });
            Ok(())
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.shutdown();
        }
    }
}

impl Bench for Served {
    fn op(&mut self, i: usize) -> Res<RunReport> {
        Ok(self.client(i)?.run(&self.inputs[i].workload)?)
    }

    fn traced_op(&mut self, i: usize) -> Res<RunReport> {
        let input = &self.inputs[i];
        let (report, body, reply) = span(ROOT, || -> Res<(RunReport, String, usize)> {
            // The client side of `Engine::run` on the served: backend:
            // the engine's own store lookup, then the wire round trip.
            // The client's store is fresh, so its lookup always misses;
            // it is the engine's bookkeeping and counts under `engine`,
            // which leaves the planstore figures to the daemon's side.
            span("engine.build", || self.client(i))?;
            let store = build_plan_store(PRIVATE_STORE)?;
            let key = population_plan_key(POLICY, &input.chain, &input.catalog);
            let carried = span("engine.store", || store.get(key));
            let body = span("wire.run_render", || self.wire_run(i));
            let resp = span("serve.round_trip", || {
                http_request(&self.addr, "POST", "/run", Some(&body))
            })?;
            if resp.status != 200 {
                return Err(format!("POST /run: {} {}", resp.status, resp.error_detail()).into());
            }
            let mut report = span("wire.report_parse", || parse_report(&resp.body))?;
            if carried.is_none() {
                // The remote run solved nothing locally: the engine
                // stores an all-unsolved plan table.
                let n = input.chain.n_states();
                span("engine.store", || {
                    store.put(key, plan_set(vec![None; n], &input.catalog[..n]))
                });
            }
            report.plan_store = store.stats();
            Ok((report, body, resp.body.len()))
        })?;
        self.reply_bytes.0 += reply;
        self.reply_bytes.1 += 1;
        self.replay(&body)?;
        span("serve.empty", || self.get("/version"))?;
        Ok(report)
    }

    fn references(&self) -> &[RunReport] {
        &self.references
    }

    fn figures(&mut self) -> Res<Vec<(&'static str, f64)>> {
        let stats = Json::parse(&self.get("/stats")?)?;
        let field = |path: &[&str]| -> Res<f64> {
            let mut j = &stats;
            for key in path {
                j = j
                    .get(key)
                    .ok_or_else(|| format!("/stats has no '{}'", path.join(".")))?;
            }
            Ok(j.as_f64()
                .ok_or_else(|| format!("/stats '{}' is not a number", path.join(".")))?)
        };
        let mut out = sim_figures(&self.references);
        out.extend(self.counts.figures());
        out.extend([
            (
                "wire.reply_kb",
                self.reply_bytes.0 as f64 / self.reply_bytes.1.max(1) as f64 / 1e3,
            ),
            ("serve.shed", field(&["shed"])?),
            ("serve.daemon_p50_ms", field(&["run_latency_ms", "p50"])?),
        ]);
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// trace-cache: the Section-5 client replaying a Markov-walk trace.
// ---------------------------------------------------------------------

const TRACE_INPUTS: usize = 32;
const PREDICTOR: &str = "ngram:2";
const CACHE_SLOTS: usize = 12;
const TRACE_LEN: usize = 2_000;

/// The registry policy with every solve inside a `core.solve` span, so
/// `Engine::step`'s span can exclude it.
struct SpannedPolicy(Box<dyn Prefetcher>);

impl Prefetcher for SpannedPolicy {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan {
        span("core.solve", || self.0.plan_candidates(s, candidates))
    }
    fn plan(&self, s: &Scenario) -> PrefetchPlan {
        span("core.solve", || self.0.plan(s))
    }
    fn is_oracle(&self) -> bool {
        self.0.is_oracle()
    }
}

struct TraceInput {
    catalog: Vec<f64>,
    trace: Trace,
    workload: Workload,
}

struct TraceCache {
    inputs: Vec<TraceInput>,
    references: Vec<RunReport>,
}

/// The untraced op: a fresh engine replaying the trace.
fn trace_run(input: &TraceInput) -> Res<RunReport> {
    let mut engine = Engine::builder()
        .policy(POLICY)
        .predictor(PREDICTOR)
        .catalog(input.catalog.clone())
        .cache(CACHE_SLOTS)
        .build()?;
    Ok(engine.run(&input.workload)?)
}

impl TraceCache {
    fn new(seed: u64, tick: &mut dyn FnMut()) -> Res<Self> {
        let mut inputs = Vec::with_capacity(TRACE_INPUTS);
        let mut references = Vec::with_capacity(TRACE_INPUTS);
        for s in input_seeds(seed, TRACE_INPUTS) {
            let chain = fig7_chain(s)?;
            let mut rng = SmallRng::seed_from_u64(sub_seed(s, 4));
            let mut trace = Trace::new();
            let mut state = (sub_seed(s, 5) % 100) as usize;
            for _ in 0..TRACE_LEN {
                trace.push(state, chain.viewing(state));
                state = chain.next_state(state, &mut rng);
            }
            let input = TraceInput {
                catalog: catalog(100, 30, s),
                workload: Workload::trace(trace.clone()),
                trace,
            };
            references.push(trace_run(&input)?);
            inputs.push(input);
            tick();
        }
        Ok(TraceCache { inputs, references })
    }
}

impl Bench for TraceCache {
    fn op(&mut self, i: usize) -> Res<RunReport> {
        trace_run(&self.inputs[i])
    }

    fn traced_op(&mut self, i: usize) -> Res<RunReport> {
        let input = &self.inputs[i];
        span(ROOT, || {
            let mut engine = span("engine.build", || -> Res<Engine> {
                Ok(Engine::builder()
                    .policy_instance(Box::new(SpannedPolicy(build_policy(POLICY)?)))
                    .predictor(PREDICTOR)
                    .catalog(input.catalog.clone())
                    .cache(CACHE_SLOTS)
                    .build()?)
            })?;
            // `Engine::run`'s trace replay, one call per layer.
            let records = input.trace.records();
            span("access.observe", || engine.observe(records[0].item));
            let mut access = RunningStats::new();
            let mut wasted = RunningStats::new();
            let mut samples = Vec::with_capacity(records.len() - 1);
            let mut hits = 0u64;
            for w in records.windows(2) {
                let (here, next) = (w[0], w[1]);
                let s = span("access.scenario", || {
                    engine.scenario(here.item, here.viewing)
                })?;
                let out = span("cache.step", || engine.step(&s, next.item));
                access.push(out.access_time);
                samples.push(out.access_time);
                wasted.push(out.wasted_retrieval);
                hits += u64::from(out.hit);
                span("access.observe", || engine.observe(next.item));
            }
            let requests = (records.len() - 1) as u64;
            Ok(RunReport {
                access: AccessStats::from_samples(&mut samples),
                section: ReportSection::Trace(TraceReport {
                    requests,
                    mean_access_time: access.mean(),
                    hit_rate: hits as f64 / requests as f64,
                    wasted_per_request: wasted.mean(),
                }),
                events: Vec::new(),
                plan_store: engine.plan_store_stats(),
                phases: Default::default(),
            })
        })
    }

    fn references(&self) -> &[RunReport] {
        &self.references
    }

    fn figures(&mut self) -> Res<Vec<(&'static str, f64)>> {
        let n = self.references.len() as f64;
        let (mut hit, mut wasted) = (0.0, 0.0);
        for r in &self.references {
            if let ReportSection::Trace(t) = &r.section {
                hit += t.hit_rate / n;
                wasted += t.wasted_per_request / n;
            }
        }
        Ok(vec![
            ("cache.hit_ratio", hit),
            ("cache.wasted_per_request", wasted),
        ])
    }
}
