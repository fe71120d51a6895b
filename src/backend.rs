//! Simulation backends as registry entries.
//!
//! The substrate a workload runs on — private FIFO channel, sharded
//! server farm, parallel Monte-Carlo runner — is a
//! [`BackendDriver`] implementation behind a string-keyed registry,
//! mirroring the [policy](crate::registry) and
//! [predictor](crate::predictor) registries. Adding a backend (an async
//! event-loop driver, a load-aware placement farm) is one
//! [`register_backend`] call; the [`Engine`](crate::Engine) dispatches
//! through the trait and never matches on a backend type.
//!
//! The spec string is the one name of a backend: the engine takes it
//! through [`backend_spec`](crate::SessionBuilder::backend_spec), or a
//! built driver through
//! [`backend_driver`](crate::SessionBuilder::backend_driver). The
//! parser refuses a degenerate configuration (zero shards, zero
//! clients, a `served:` inner backend that cannot run populations), so
//! every driver it returns is valid. Spec-string grammar (see
//! [`build_backend`]):
//!
//! ```text
//! single-client
//! multi-client:<clients>          (alias of sharded:1x<clients>:hash)
//! sharded:<shards>x<clients>[:<hash|range|hot-cold@K>]
//! monte-carlo:<chunks>[x<threads>]
//! served:<host>:<port>:<inner-backend-spec>
//! ```

use std::sync::Arc;

use access_model::MarkovChain;
use distsys::scheduler::{ClientPolicy, ClientWorkload, Placement, ShardedSim, SimEvent};
use distsys::stats::AccessStats;
use distsys::{run_session, SessionConfig};
use montecarlo::parallel::default_threads;
use rand::rngs::SmallRng;
use skp_registry::{
    no_params, param_err, parse_positive, parse_topology, reject_trailing, split_spec, Registry,
    SpecError,
};

use crate::error::Error;
use crate::report::ReportSection;

/// How a backend fans Monte-Carlo iterations out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McFanout {
    /// One sequential pass seeded directly with the spec's root seed.
    Sequential,
    /// The deterministic parallel runner: `chunks` independently seeded
    /// chunks on `threads` workers (result independent of `threads`).
    Parallel {
        /// Number of chunks (≥ 1).
        chunks: usize,
        /// Worker threads (≥ 1; already resolved from 0 = auto).
        threads: usize,
    },
}

/// A chain-driven population replay handed to
/// [`BackendDriver::run_population`]: the engine supplies the workload
/// definition, catalog and per-round planner; the driver supplies the
/// substrate.
pub struct PopulationRun<'a> {
    /// The site every client browses.
    pub chain: &'a MarkovChain,
    /// Retrieval time per catalog item (covers the chain's states).
    pub retrievals: &'a [f64],
    /// Per-round planner: `(client, state) -> prefetch list`, backed by
    /// the engine's policy.
    pub planner: &'a mut dyn ClientPolicy,
    /// Requests to serve per client.
    pub requests_per_client: u64,
    /// Root seed.
    pub seed: u64,
    /// Record the full mechanistic event log.
    pub traced: bool,
    /// Name of the workload shape (`"sharded"` / `"generated"`), also
    /// used in error messages.
    pub operation: &'static str,
    /// Optional fault injection (outage windows, slow links,
    /// heterogeneous service times) the substrate applies — produced by
    /// the `faults:` workload generator. Drivers that cannot honour it
    /// (e.g. the remote `served:` backend) must refuse rather than
    /// silently run fault-free.
    pub faults: Option<&'a distsys::FaultSpec>,
    /// Registry spec of the policy behind `planner`, when the engine
    /// was configured from one (`None` for custom policy instances).
    /// Remote backends ship this spec instead of the closure.
    pub policy_spec: Option<&'a str>,
    /// When set, the sharded executors push one [`obs::EpochMark`] per
    /// scheduler epoch here — the feed for trace export. `None` when
    /// observability is off, in which case the sharded executors skip
    /// their scheduler probe entirely; drivers that do not probe
    /// (served) ignore it.
    pub marks: Option<&'a mut Vec<obs::EpochMark>>,
}

/// One simulation substrate: everything the engine needs to replay a
/// session, fan out Monte-Carlo iterations or drive a client population
/// on this backend.
///
/// Implement this trait and [`register_backend`] the constructor to add
/// a backend — the engine dispatches through the trait and needs no
/// edits.
pub trait BackendDriver: Send + Sync {
    /// Registry name of the backend family (e.g. `"sharded"`).
    fn name(&self) -> &'static str;

    /// Canonical spec string reconstructing this driver through
    /// [`build_backend`] (e.g. `"sharded:4x16:hash"`). Must be a fixed
    /// point: building from it yields a driver with the same spec
    /// string.
    fn spec_string(&self) -> String;

    /// Mechanistic access time of one session on this substrate's
    /// channel model, given each item's retrieval time. The default is
    /// the paper's private FIFO channel.
    fn session_access_time(&self, retrievals: &[f64], cfg: &SessionConfig<'_>) -> f64 {
        run_session(retrievals, cfg, 1, Placement::Hash)
    }

    /// Whether the paper's closed forms describe this substrate exactly
    /// (gates [`verified_report`](crate::Engine::verified_report)).
    fn closed_form_exact(&self) -> bool {
        false
    }

    /// How Monte-Carlo iterations fan out here, or an
    /// [`Error::UnsupportedBackend`] if this substrate cannot run them.
    fn monte_carlo_fanout(&self) -> Result<McFanout, Error> {
        Err(Error::UnsupportedBackend {
            operation: "monte-carlo workload",
            backend: self.name(),
        })
    }

    /// Whether this substrate runs population workloads. Only consulted
    /// to order configuration errors (a backend mismatch reports before
    /// a missing catalog); [`run_population`](Self::run_population) is
    /// the authority.
    fn supports_population(&self) -> bool {
        false
    }

    /// Runs a chain-driven population replay, returning the common
    /// access-time statistics (every driver must supply them — they are
    /// the comparable block of [`RunReport`](crate::RunReport)), the
    /// substrate-specific report section and the event log (empty unless
    /// `run.traced`). The default is [`Error::UnsupportedBackend`].
    fn run_population(
        &self,
        run: PopulationRun<'_>,
    ) -> Result<(AccessStats, ReportSection, Vec<SimEvent>), Error> {
        Err(Error::UnsupportedBackend {
            operation: run.operation,
            backend: self.name(),
        })
    }
}

/// [`ClientWorkload`] view of a Markov chain, shared by the population
/// backends.
struct MarkovWorkload<'a>(&'a MarkovChain);

impl ClientWorkload for MarkovWorkload<'_> {
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

// ---------------------------------------------------------------------
// Built-in drivers.
// ---------------------------------------------------------------------

/// The paper's model: one client on a private FIFO channel (the
/// engine's default backend).
pub(crate) struct SingleClientDriver;

impl BackendDriver for SingleClientDriver {
    fn name(&self) -> &'static str {
        "single-client"
    }

    fn spec_string(&self) -> String {
        "single-client".to_string()
    }

    fn closed_form_exact(&self) -> bool {
        true
    }

    fn monte_carlo_fanout(&self) -> Result<McFanout, Error> {
        Ok(McFanout::Sequential)
    }
}

/// The catalog partitioned across per-shard FIFO channels.
struct ShardedDriver {
    shards: usize,
    clients: usize,
    placement: Placement,
}

impl BackendDriver for ShardedDriver {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn spec_string(&self) -> String {
        format!(
            "sharded:{}x{}:{}",
            self.shards, self.clients, self.placement
        )
    }

    fn session_access_time(&self, retrievals: &[f64], cfg: &SessionConfig<'_>) -> f64 {
        run_session(retrievals, cfg, self.shards, self.placement)
    }

    fn supports_population(&self) -> bool {
        true
    }

    fn run_population(
        &self,
        run: PopulationRun<'_>,
    ) -> Result<(AccessStats, ReportSection, Vec<SimEvent>), Error> {
        check_request_total(run.requests_per_client, self.clients)?;
        check_clock(&run, self.clients)?;
        let workload = MarkovWorkload(run.chain);
        let sim = ShardedSim {
            workload: &workload,
            retrievals: run.retrievals,
            clients: self.clients,
            shards: self.shards,
            placement: self.placement,
            requests_per_client: run.requests_per_client,
            seed: run.seed,
            faults: run.faults,
        };
        let (report, log) = sim.run_observed(run.planner, run.marks, run.traced);
        Ok((report.access, ReportSection::Sharded(report), log))
    }
}

/// Refuses a population whose `requests_per_client × clients`
/// overflows the `u64` in which the simulator counts requests.
fn check_request_total(requests_per_client: u64, clients: usize) -> Result<(), Error> {
    #[cold]
    fn overflow(requests_per_client: u64, clients: usize) -> Error {
        Error::InvalidParam {
            what: "sharded backend",
            detail: format!(
                "{requests_per_client} requests per client times {clients} clients \
                 overflows a 64-bit request count"
            ),
        }
    }
    match requests_per_client.checked_mul(clients as u64) {
        Some(_) => Ok(()),
        None => Err(overflow(requests_per_client, clients)),
    }
}

/// Refuses a population whose simulated clock could overflow to a
/// non-finite event time, which the event queue cannot order. No event
/// of the run comes later than the last outage window's end, plus every
/// request's demand fetch and prefetches (at most one per item) at the
/// slowest retrieval time under the slowest service scaling, plus every
/// request's viewing time.
#[cold]
#[inline(never)]
fn check_clock(run: &PopulationRun<'_>, clients: usize) -> Result<(), Error> {
    let items = run.chain.n_states();
    // Checked by `check_request_total` first.
    let requests = run.requests_per_client * clients as u64;
    let retrieval = run
        .retrievals
        .iter()
        .take(items)
        .fold(0.0, |a, &r| r.max(a));
    let viewing = (0..items).map(|s| run.chain.viewing(s)).fold(0.0, f64::max);
    let (outages_end, slowdown) = run.faults.map_or((0.0, 1.0), |f| {
        let end = f.outages.iter().map(|o| o.start + o.duration);
        let slow: f64 = f.slow.iter().map(|&(_, factor)| factor).product();
        (end.fold(0.0, f64::max), slow * f.spread)
    });
    let transfers = requests as f64 * (1.0 + items as f64);
    let latest = outages_end + transfers * retrieval * slowdown + requests as f64 * viewing;
    if latest.is_finite() {
        return Ok(());
    }
    Err(Error::InvalidParam {
        what: "workload",
        detail: format!(
            "the simulated clock can overflow: {requests} requests of up to {} transfers \
             at retrieval times up to {retrieval:?}, slowed {slowdown:?} times (slow factors \
             × svc spread), with viewing times up to {viewing:?} and outages ending at \
             {outages_end:?}, add up past the largest finite time",
            items + 1
        ),
    })
}

/// Deterministic parallel Monte-Carlo runner.
struct MonteCarloDriver {
    chunks: usize,
    threads: usize,
}

impl BackendDriver for MonteCarloDriver {
    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    fn spec_string(&self) -> String {
        format!("monte-carlo:{}x{}", self.chunks, self.threads)
    }

    fn monte_carlo_fanout(&self) -> Result<McFanout, Error> {
        let chunks = self.chunks.max(1);
        let threads = if self.threads == 0 {
            default_threads(chunks)
        } else {
            self.threads
        };
        Ok(McFanout::Parallel { chunks, threads })
    }
}

// ---------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------

/// One entry of the backend listing (`skp-plan --list`).
pub use skp_registry::Spec as BackendSpec;

/// Constructor signature of a registered backend: parses the spec
/// string's parameter part (the text after the first `:`, if any).
pub type BackendBuilder = fn(Option<&str>) -> Result<Arc<dyn BackendDriver>, Error>;

/// A placement field (`hash | range | hot-cold@K`).
fn parse_placement(what: &'static str, raw: &str) -> Result<Placement, SpecError> {
    Placement::parse(raw).ok_or_else(|| {
        param_err(
            what,
            format!(
                "placement '{}' must be hash, range or hot-cold@<K>",
                raw.trim()
            ),
        )
    })
}

fn build_single_client(param: Option<&str>) -> Result<Arc<dyn BackendDriver>, Error> {
    no_params("single-client backend spec", param)?;
    Ok(Arc::new(SingleClientDriver))
}

/// `multi-client:<clients>` is a spelling of `sharded:1x<clients>:hash`:
/// the paper's many clients on one FIFO server channel.
fn build_multi_client(param: Option<&str>) -> Result<Arc<dyn BackendDriver>, Error> {
    const WHAT: &str = "multi-client backend spec";
    let clients = match param {
        None => 1,
        Some(raw) => {
            let mut parts = raw.split(':');
            let clients = parse_positive(WHAT, "client count", parts.next().unwrap_or_default())?;
            reject_trailing(WHAT, "client count", parts)?;
            clients
        }
    };
    Ok(Arc::new(ShardedDriver {
        shards: 1,
        clients,
        placement: Placement::Hash,
    }))
}

fn build_sharded(param: Option<&str>) -> Result<Arc<dyn BackendDriver>, Error> {
    const WHAT: &str = "sharded backend spec";
    let (shards, clients, placement) = match param {
        None => (1, 1, Placement::default()),
        Some(raw) => {
            let mut parts = raw.split(':');
            let (shards, clients) = parse_topology(
                WHAT,
                parts.next().unwrap_or_default(),
                "<shards>x<clients>",
                "4x16",
                ["shard count", "client count"],
            )?;
            let placement = match parts.next() {
                None => Placement::default(),
                Some(text) => parse_placement(WHAT, text)?,
            };
            reject_trailing(WHAT, "placement", parts)?;
            (shards, clients, placement)
        }
    };
    Ok(Arc::new(ShardedDriver {
        shards,
        clients,
        placement,
    }))
}

fn build_monte_carlo(param: Option<&str>) -> Result<Arc<dyn BackendDriver>, Error> {
    const WHAT: &str = "monte-carlo backend spec";
    let (chunks, threads) = match param {
        None => (8, 0),
        Some(raw) => {
            let mut parts = raw.split(':');
            let field = parts.next().unwrap_or_default();
            reject_trailing(WHAT, "chunk/thread counts", parts)?;
            match field.split_once('x') {
                None => (parse_positive(WHAT, "chunk count", field)?, 0),
                Some((c, t)) => (
                    parse_positive(WHAT, "chunk count", c)?,
                    t.trim().parse::<usize>().map_err(|_| {
                        param_err(
                            WHAT,
                            format!("thread count '{}' is not an integer (0 = auto)", t.trim()),
                        )
                    })?,
                ),
            }
        }
    };
    Ok(Arc::new(MonteCarloDriver { chunks, threads }))
}

static REGISTRY: Registry<BackendBuilder> = Registry::new(
    "backend",
    "backend spec",
    &[
        (
            BackendSpec {
                name: "single-client",
                params: "",
                summary: "one client on a private FIFO channel (the paper's model; the default)",
            },
            build_single_client,
        ),
        (
            BackendSpec {
                name: "multi-client",
                params: "clients",
                summary:
                    "population sharing one FIFO server channel (alias of sharded:1x<clients>:hash)",
            },
            build_multi_client,
        ),
        (
            BackendSpec {
                name: "sharded",
                params: "shards x clients : placement (hash|range|hot-cold@K)",
                summary: "catalog partitioned across N server shards, one FIFO channel each",
            },
            build_sharded,
        ),
        (
            BackendSpec {
                name: "monte-carlo",
                params: "chunks x threads (0 threads = auto)",
                summary: "deterministic parallel Monte-Carlo over random scenarios",
            },
            build_monte_carlo,
        ),
        // The registry seam stretched across a socket: population runs
        // are serialised, posted to a running skp-serve daemon and the
        // report parsed back — bit-identical to running the inner
        // backend in-process (pinned by crates/serve/tests).
        (
            BackendSpec {
                name: "served",
                params: "host : port : inner-backend-spec",
                summary: "ships population runs to a running skp-serve daemon \
                          (bit-identical to the inner backend in-process)",
            },
            crate::served::build_served,
        ),
    ],
);

/// Registers a backend family under `name`: `build_backend("name")` /
/// `"name:<params>"` will call `build` with the parameter part, and the
/// entry appears in [`backend_specs`] and `skp-plan --list`.
///
/// Errors with [`Error::InvalidParam`] if the name is already taken.
pub fn register_backend(
    name: &'static str,
    params: &'static str,
    summary: &'static str,
    build: BackendBuilder,
) -> Result<(), Error> {
    let spec = BackendSpec {
        name,
        params,
        summary,
    };
    Ok(REGISTRY.register(spec, build)?)
}

/// Every registered backend, in registration order — derived from the
/// registry, so `skp-plan --list` and the spec parser can never drift.
pub fn backend_specs() -> Vec<BackendSpec> {
    REGISTRY.specs()
}

/// Names of every registered backend, in registration order.
pub fn backend_names() -> Vec<&'static str> {
    REGISTRY.names()
}

/// Builds a backend driver from a spec string: a registry name with an
/// optional `:params` suffix, e.g. `"single-client"`,
/// `"multi-client:16"`, `"sharded:4x16:hash"`, `"monte-carlo:8x0"`.
pub fn build_backend(spec: &str) -> Result<Arc<dyn BackendDriver>, Error> {
    let (name, param) = split_spec(spec);
    match REGISTRY.get(name) {
        Some(build) => build(param),
        None => Err(Error::UnknownBackend {
            name: name.to_string(),
            known: backend_names(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_enum_drivers_match_registry_names() {
        for spec in ["single-client", "sharded:2x4:range", "monte-carlo:4x2"] {
            let driver = build_backend(spec).unwrap();
            assert_eq!(driver.name(), split_spec(spec).0);
            assert!(
                backend_names().contains(&driver.name()),
                "{} not registered",
                driver.name()
            );
        }
    }

    #[test]
    fn spec_strings_are_fixed_points() {
        // Each spec builds a driver whose spec string is the canonical
        // form, itself a fixed point. `multi-client:<clients>` is an
        // alias: its canonical form is `sharded:1x<clients>:hash`.
        for (spec, canonical) in [
            ("single-client", "single-client"),
            ("sharded:4x16:hot-cold@6", "sharded:4x16:hot-cold@6"),
            ("monte-carlo:8x2", "monte-carlo:8x2"),
            (
                "served:127.0.0.1:7077:sharded:8x64:hash",
                "served:127.0.0.1:7077:sharded:8x64:hash",
            ),
            (
                "served:10.0.0.9:8080:sharded:4x16:hot-cold@6",
                "served:10.0.0.9:8080:sharded:4x16:hot-cold@6",
            ),
            ("multi-client:5", "sharded:1x5:hash"),
            (
                "served:127.0.0.1:7077:multi-client:8",
                "served:127.0.0.1:7077:sharded:1x8:hash",
            ),
        ] {
            let driver = build_backend(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(driver.spec_string(), canonical);
            let again = build_backend(&driver.spec_string()).unwrap();
            assert_eq!(again.spec_string(), driver.spec_string());
        }
    }

    #[test]
    fn default_params_fill_in() {
        assert_eq!(
            build_backend("multi-client").unwrap().spec_string(),
            "sharded:1x1:hash"
        );
        assert_eq!(
            build_backend("sharded").unwrap().spec_string(),
            "sharded:1x1:hash"
        );
        assert_eq!(
            build_backend("sharded:2x8").unwrap().spec_string(),
            "sharded:2x8:hash"
        );
        assert_eq!(
            build_backend("monte-carlo").unwrap().spec_string(),
            "monte-carlo:8x0"
        );
        assert_eq!(
            build_backend("monte-carlo:4").unwrap().spec_string(),
            "monte-carlo:4x0"
        );
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(matches!(
            build_backend("warp-drive"),
            Err(Error::UnknownBackend { .. })
        ));
        for spec in [
            "single-client:3",
            "multi-client:none",
            "sharded:4",
            "sharded:4x2:diagonal",
            "monte-carlo:8xfast",
        ] {
            assert!(
                matches!(build_backend(spec), Err(Error::InvalidParam { .. })),
                "{spec} must be rejected"
            );
        }
    }

    /// The satellite contract: malformed specs produce descriptive
    /// errors that name the offending field, not a generic parse
    /// failure.
    #[test]
    fn malformed_specs_name_the_bad_field() {
        let detail = |spec: &str| match build_backend(spec) {
            Err(Error::InvalidParam { detail, .. }) => detail,
            Err(other) => panic!("{spec}: expected InvalidParam, got {other:?}"),
            Ok(_) => panic!("{spec}: expected InvalidParam, got a driver"),
        };
        // Zero counts name the field and the bound.
        assert!(detail("sharded:0x4").contains("shard count must be at least 1"));
        assert!(detail("sharded:4x0").contains("client count must be at least 1"));
        assert!(detail("multi-client:0").contains("client count must be at least 1"));
        // Missing / non-numeric fields are named too.
        assert!(detail("sharded:4x").contains("client count ''"));
        assert!(detail("sharded:4xmany").contains("client count 'many'"));
        assert!(detail("sharded:4").contains("topology '4'"));
        assert!(detail("multi-client:none").contains("client count 'none'"));
        assert!(detail("monte-carlo:8xfast").contains("thread count 'fast'"));
        assert!(detail("monte-carlo:0").contains("chunk count must be at least 1"));
        assert!(detail("sharded:4x2:diagonal").contains("placement 'diagonal'"));
        // Trailing junk after the last recognised field.
        assert!(detail("sharded:4x2:hash:junk").contains("trailing ':junk'"));
        assert!(detail("multi-client:3:junk").contains("trailing ':junk'"));
        assert!(detail("monte-carlo:8x2:junk").contains("trailing ':junk'"));
    }

    #[test]
    fn validation_catches_degenerate_topologies() {
        // The spec parser is the only way to name a backend, and it
        // refuses zero counts with a named field.
        for (shards, clients) in [(0usize, 3usize), (3, 0)] {
            assert!(matches!(
                build_backend(&format!("sharded:{shards}x{clients}:hash")),
                Err(Error::InvalidParam { .. })
            ));
        }
        assert!(build_backend("sharded:3x3").is_ok());
    }

    /// `parallel:` is not a registered backend and gets no special case:
    /// its spec fails like any unknown name, and the error lists
    /// `sharded`.
    #[test]
    fn parallel_spec_is_an_unknown_backend_naming_sharded() {
        match build_backend("parallel:4x8") {
            Err(Error::UnknownBackend { name, known }) => {
                assert_eq!(name, "parallel");
                assert!(known.contains(&"sharded"), "{known:?}");
            }
            Err(other) => panic!("expected UnknownBackend, got {other:?}"),
            Ok(_) => panic!("expected UnknownBackend, got a driver"),
        }
    }

    /// `requests × clients` past `u64::MAX` is refused before the
    /// simulator runs, on the sharded driver and on its alias.
    #[test]
    fn overflowing_request_totals_are_invalid_params() {
        let chain = access_model::MarkovChain::random(6, 1, 3, 1, 9, 5).unwrap();
        for spec in ["sharded:2x16:hash", "multi-client:16"] {
            let mut engine = crate::Engine::builder()
                .policy("skp-exact")
                .catalog(vec![2.0; 6])
                .backend_spec(spec)
                .build()
                .unwrap();
            let workload = crate::Workload::sharded(chain.clone(), 1 << 60, 7);
            match engine.run(&workload) {
                Err(Error::InvalidParam { detail, .. }) => {
                    assert!(detail.contains("overflows"), "{spec}: {detail}")
                }
                Err(other) => panic!("{spec}: expected InvalidParam, got {other:?}"),
                Ok(report) => panic!("{spec}: expected InvalidParam, got {:?}", report.access),
            }
        }
    }

    #[test]
    fn duplicate_registration_rejected() {
        let err = register_backend("single-client", "", "dup", build_single_client)
            .expect_err("must fail");
        assert!(matches!(err, Error::InvalidParam { .. }));
    }
}
