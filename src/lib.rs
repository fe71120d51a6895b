//! # speculative-prefetch — the facade crate
//!
//! One coherent API over the workspace reproducing *"A Performance
//! Model of Speculative Prefetching in Distributed Information
//! Systems"* (Tuah, Kumar & Venkatesh, IPPS/SPDP 1999).
//!
//! The centrepiece is the workload-first [`Engine`]: compose a session
//! with the builder, then hand [`Engine::run`] a [`Workload`] value —
//! one closed-form decision, a recorded trace, a Monte-Carlo sweep or a
//! browsing population — and read back a [`RunReport`] whose common
//! [`AccessStats`] block (count/mean/p50/p99/min/max) makes any two
//! runs directly comparable. The four seams are all string-keyed
//! registries:
//!
//! 1. an **access predictor** ([`Predictor`]; [`build_predictor`]),
//! 2. a **prefetch policy** ([`Prefetcher`]; [`build_policy`]),
//! 3. a **client cache** with Figure-6 arbitration (`cache-sim`),
//! 4. a **simulation backend** ([`BackendDriver`]; [`build_backend`] —
//!    private-channel single client, sharded farm
//!    (`sharded:4x16:hash`; `multi-client:16` spells its one-shard
//!    case `sharded:1x16:hash`), parallel Monte-Carlo, a `skp-serve`
//!    daemon (`served:`), plus anything you [`register_backend`]),
//!
//! plus a fifth, orthogonal seam: a **plan store** ([`PlanStore`];
//! [`build_plan_store`]) that caches solved population plan sets
//! across runs, engines and — via `skp-serve` — across clients.
//! `SessionBuilder::plan_store("tiered:memory:8x1024,file:/var/cache/skp")`
//! selects a tier chain by spec string; warm runs are bit-identical to
//! cold ones, just faster.
//!
//! A sixth seam is **observability** ([`Obs`]; [`build_obs`]), one
//! switch: `SessionBuilder::obs("memory")` turns it on, and every run
//! then carries a wall-clock [`PhaseBreakdown`] (`build` /
//! `plan-solve` / `simulate` / `stat-fold` / `plan-store-put` spans
//! plus per-epoch scheduler marks and fault windows) in
//! [`RunReport::phases`], ready for Chrome/Perfetto export via
//! [`trace_json`] (`skp-plan run --trace-out <file>`). The default is
//! `"none"`: the phase clock is never read, the event loop builds no
//! probe, and `tests/alloc_round.rs` pins the overhead contract in
//! allocations (`none` allocates what no obs does, `memory` nothing
//! per event). Like the plan store, observability
//! never changes results — reports and event logs are bit-identical
//! with it on or off.
//!
//! ## Quickstart
//!
//! ```
//! use speculative_prefetch::{Engine, Scenario, Workload};
//!
//! // The user views the current page for 10 time units; three items
//! // could be requested next, with known probabilities and retrieval
//! // times.
//! let s = Scenario::new(vec![0.5, 0.3, 0.2], vec![8.0, 6.0, 9.0], 10.0)?;
//!
//! // Compose a session (corrected SKP solver, single-client backend)
//! // and run the closed-form plan workload.
//! let mut engine = Engine::builder().policy("skp-exact").build()?;
//! let report = engine.run(&Workload::plan(s))?;
//!
//! let plan = report.plan().expect("plan section");
//! assert!(plan.gain > 0.0 && plan.gain <= plan.upper_bound + 1e-9);
//! assert_eq!(report.access.count, 3); // the common stats block
//! # Ok::<(), speculative_prefetch::Error>(())
//! ```
//!
//! A learned, cached trace replay — predictor and policy resolved from
//! strings, the Section-5 client arbitrating every round:
//!
//! ```
//! use speculative_prefetch::{Engine, Trace, Workload};
//!
//! let mut trace = Trace::new();
//! for i in 0..300 {
//!     trace.push(i % 3, 10.0); // the user walks a cycle
//! }
//! let mut engine = Engine::builder()
//!     .policy("skp-exact")
//!     .predictor("ngram:1")
//!     .catalog(vec![3.0, 3.0, 3.0]) // retrieval time per item
//!     .cache(2)                     // slots
//!     .build()?;
//! let report = engine.run(&Workload::trace(trace))?;
//! assert!(report.trace().expect("trace section").hit_rate > 0.9);
//! # Ok::<(), speculative_prefetch::Error>(())
//! ```
//!
//! Scaling out: the same policy against a sharded server farm, the
//! catalog partitioned across per-shard FIFO channels (`1` shard is the
//! paper's single shared channel; the backend registry's
//! `multi-client:<clients>` is an alias of `sharded:1x<clients>:hash`):
//!
//! ```
//! use speculative_prefetch::{Engine, MarkovChain, Workload};
//!
//! let chain = MarkovChain::random(24, 2, 4, 5, 20, 7).expect("valid chain");
//! let mut engine = Engine::builder()
//!     .policy("skp-exact")
//!     .catalog((0..24).map(|i| 1.0 + (i % 8) as f64).collect())
//!     .backend_spec("sharded:4x8:hash") // registry spec string
//!     .build()?;
//! let report = engine.run(&Workload::sharded(chain, 50, 1999))?;
//! let sharded = report.sharded().expect("sharded section");
//! assert_eq!(sharded.shards.len(), 4);             // per-shard stats
//! assert!(report.access.p99 >= report.access.p50); // common stats block
//! # Ok::<(), speculative_prefetch::Error>(())
//! ```
//!
//! The registry seam also stretches across a socket: with a `skp-serve`
//! daemon running (see `crates/serve`), swap the backend spec for
//! `"served:127.0.0.1:7077:sharded:4x8:hash"` and the same population
//! run is serialised through the [`wire`] module, executed by the
//! daemon's worker pool and parsed back — still bit-identical to the
//! in-process run on the same seed.
//!
//! Workloads are also *files*: the [`scenario_file`] format carries
//! scenario + workload + backend + policy/predictor specs in one
//! checked-in file, and `skp-plan run <file>` (the library's
//! [`run_file`]) replays it — see `examples/workloads/`.
//!
//! Every fallible facade call returns the unified [`Error`].
//!
//! The legacy per-workload `Engine` methods (`report`, `run_trace`,
//! `monte_carlo`, `multi_client[_traced]`, `sharded[_traced]`),
//! deprecated since 0.3, were removed in 0.5 — each maps to one
//! [`Workload`] value under [`Engine::run`] and a [`RunReport`] section
//! accessor.
//!
//! The per-crate module re-exports ([`core`], [`access`], [`cache`],
//! [`distsys`], [`mc`]) remain available for power users; new code and
//! all in-tree binaries/examples use the root items only.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod engine;
pub mod error;
pub mod generator;
pub mod http;
pub mod predictor;
pub mod registry;
pub mod report;
pub mod scenario_file;
pub mod served;
pub mod trace_export;
pub mod wire;
pub mod workload;

// ---- module re-exports (advanced / legacy surface) -------------------
pub use access_model as access;
pub use cache_sim as cache;
pub use distsys;
pub use montecarlo as mc;
pub use skp_core as core;

// ---- the facade ------------------------------------------------------
pub use backend::{
    backend_names, backend_specs, build_backend, register_backend, BackendBuilder, BackendDriver,
    BackendSpec, McFanout, PopulationRun,
};
pub use engine::{Engine, SessionBuilder};
pub use error::Error;
pub use generator::{
    build_generator, generator_names, generator_specs, register_generator, GeneratorSpec,
};
pub use http::{http_request, HttpResponse};
pub use obs::{
    build_obs, obs_sink_names, obs_sink_specs, EpochMark, FaultWindow, Obs, ObsError, ObsSpec,
    PhaseBreakdown, PhaseSpan,
};
pub use planstore::{
    build_plan_store, plan_store_names, plan_store_specs, population_plan_key, register_plan_store,
    PlanGuard, PlanSet, PlanStore, PlanStoreBuilder, PlanStoreSpec, PlanStoreStats, StoreError,
    TierStats,
};
pub use predictor::{build_predictor, predictor_names, predictor_specs, Predictor, PredictorSpec};
pub use registry::{build_policy, policy_aliases, policy_names, policy_specs, PolicySpec};
pub use report::{PlanReport, ReportSection, RunReport, SimReport, TraceReport};
pub use scenario_file::{
    parse as parse_scenario_file, parse_workload, render_workload, run_file, ChainSpec, ParseError,
    ReportFormat, RunFileError, RunOverrides, ScenarioFile, WorkloadFile, WorkloadKind,
};
/// The listing row shared by all six registries (policy, predictor,
/// backend, generator, plan store, obs sink).
pub use skp_registry::Spec as RegistrySpec;
pub use trace_export::trace_json;
pub use wire::{parse_report, render_report_fields, WireRun};
pub use workload::{
    GeneratedWorkload, MonteCarloSpec, MonteCarloWorkload, PlanWorkload, PopulationWorkload,
    TraceWorkload, Workload,
};

// ---- model layer (skp-core) ------------------------------------------
pub use skp_core::arbitration::{arbitrate, CacheEntry, SubArbitration};
pub use skp_core::ext::{NetworkAwarePolicy, StretchPenalisedPolicy, TwoStepPolicy};
pub use skp_core::gain::{
    access_time_cached, access_time_empty, expected_access_time_cached, expected_access_time_empty,
    expected_no_prefetch_cached, gain_empty_cache, gain_with_cache, stretch_time,
};
pub use skp_core::kp::{greedy_by_density, solve_kp, solve_kp_dp, KpSolution};
pub use skp_core::policy::{PolicyKind, Prefetcher, RowBasis};
pub use skp_core::skp::{
    global_applicable, linear_relaxation, solve_exact, solve_global, solve_optimal, solve_paper,
    upper_bound, SkpSolution,
};
pub use skp_core::{ItemId, ModelError, PrefetchPlan, Scenario};

// ---- access prediction (access-model) --------------------------------
pub use access_model::{
    DependencyGraph, FreqTracker, IrmSource, MarkovChain, MarkovEstimator, NgramPredictor,
};

// ---- client cache (cache-sim) ----------------------------------------
pub use cache_sim::{Cache, PrefetchCache, PrefetchCacheConfig, StepOutcome};

// ---- distributed system substrate (distsys) --------------------------
pub use distsys::scheduler::{
    ClientPolicy, ClientWorkload, EventKind, Placement, ShardMap, ShardReport, ShardStats,
    ShardedSim, SimEvent,
};
pub use distsys::stats::{AccessStats, Histogram};
pub use distsys::{
    run_session, Catalog, EventQueue, FaultSpec, Link, Outage, SessionConfig, Trace,
};

// ---- experiment harness (montecarlo) ---------------------------------
pub use montecarlo::output::{ascii_plot, write_csv};
pub use montecarlo::parallel::{default_threads, derive_seed, par_map_indexed, par_monte_carlo};
pub use montecarlo::prefetch_cache::{CachePoint, PrefetchCacheSim};
pub use montecarlo::prefetch_only::{PolicyResult, PrefetchOnlySim};
pub use montecarlo::probgen::ProbMethod;
pub use montecarlo::scenario_gen::ScenarioGen;
pub use montecarlo::stats::{BinnedMeans, RunningStats};
