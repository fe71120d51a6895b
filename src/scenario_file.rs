//! A tiny text format for prefetching scenarios — and, as a superset,
//! full *workload files*: scenario + workload + backend + policy /
//! predictor specs in one checked-in file that `skp-plan run <file>`
//! executes, so experiments are reproducible from data instead of
//! bespoke binaries.
//!
//! The scenario core ([`parse`]):
//!
//! ```text
//! # comment
//! v 10
//! item 0.5 8 front-page
//! item 0.3 6
//! item 0.2 9 video
//! ```
//!
//! One `v <viewing>` line (anywhere) and one `item <P> <r> [label]` line
//! per candidate. Labels are optional and default to `item<k>`.
//!
//! A workload file ([`parse_workload`]) adds engine and run directives:
//!
//! ```text
//! workload sharded          # plan|trace|monte-carlo|sharded|generated (multi-client = sharded)
//! traced                    # record the mechanistic event log
//! backend sharded:4x8:hash  # backend registry spec
//! policy skp-exact          # policy registry spec
//! predictor ngram:2         # predictor registry spec
//! cache 8                   # prefetch-cache slots
//! requests 200              # requests per client (population workloads)
//! seed 1999                 # run seed
//! iterations 400            # monte-carlo iterations
//! mc-method skewy:16        # skewy[:e] | flat | zipf:<s> | dirichlet:<a>
//! chain 24 2 4 5 20 7       # states min_fanout max_fanout v_min v_max seed
//! generate flash:1.2@0.5    # workload-generator spec (generated workloads)
//! access 0 10               # one trace record (trace workloads)
//! ```
//!
//! The `item` lines double as the engine's catalog (retrieval time per
//! item); population workloads browse a `chain` over that catalog, and
//! trace workloads replay the `access` lines.

use montecarlo::probgen::ProbMethod;
use obs::PhaseSpan;
use planstore::PlanStore;
use skp_core::{ModelError, Scenario};
use std::fmt;
use std::io::Write;
use std::sync::Arc;

use crate::engine::Engine;
use crate::error::Error;
use crate::report::{ReportSection, RunReport};
use crate::trace_export::TraceRecords;
use crate::wire::write_run_document;
use crate::workload::{MonteCarloSpec, Workload};

/// A parsed scenario plus the item labels from the file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// The validated scenario.
    pub scenario: Scenario,
    /// One label per item, file order.
    pub labels: Vec<String>,
}

/// Renders the file format (inverse of [`parse`]): `parse(&f.to_string())`
/// reproduces `f`.
impl fmt::Display for ScenarioFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(&self.scenario, &self.labels))
    }
}

/// Parse errors for the scenario file format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line could not be interpreted.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The `v` line is missing.
    MissingViewing,
    /// No `item` lines present.
    NoItems,
    /// The numbers parsed but the model rejected them.
    Model(ModelError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseError::MissingViewing => write!(f, "missing 'v <viewing>' line"),
            ParseError::NoItems => write!(f, "no 'item <P> <r>' lines"),
            ParseError::Model(e) => write!(f, "invalid scenario: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ModelError> for ParseError {
    fn from(e: ModelError) -> Self {
        ParseError::Model(e)
    }
}

/// Parses the scenario file format from a string (the strict scenario
/// core: `v` and `item` lines only; see [`parse_workload`] for the full
/// workload format).
pub fn parse(text: &str) -> Result<ScenarioFile, ParseError> {
    let file = parse_lines(text, false)?;
    Ok(ScenarioFile {
        scenario: file.scenario,
        labels: file.labels,
    })
}

/// Which workload shape a workload file requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadKind {
    /// One closed-form prefetch decision on the file's scenario.
    #[default]
    Plan,
    /// Replay of the file's `access` records.
    Trace,
    /// Monte-Carlo sweep over random scenarios of the catalog's size.
    MonteCarlo,
    /// Population replay of the file's `chain` (`workload sharded`,
    /// also spelled `workload multi-client`).
    Sharded,
    /// Population replay of the file's `generate` spec (workload
    /// generator registry) over the catalog.
    Generated,
}

impl WorkloadKind {
    /// Canonical directive text (`workload <name>`).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Plan => "plan",
            WorkloadKind::Trace => "trace",
            WorkloadKind::MonteCarlo => "monte-carlo",
            WorkloadKind::Sharded => "sharded",
            WorkloadKind::Generated => "generated",
        }
    }

    /// Parses the directive text.
    pub fn parse(text: &str) -> Option<WorkloadKind> {
        match text {
            "plan" => Some(WorkloadKind::Plan),
            "trace" => Some(WorkloadKind::Trace),
            "monte-carlo" => Some(WorkloadKind::MonteCarlo),
            "sharded" | "multi-client" => Some(WorkloadKind::Sharded),
            "generated" => Some(WorkloadKind::Generated),
            _ => None,
        }
    }
}

/// The `chain` directive: parameters of
/// [`MarkovChain::random`](access_model::MarkovChain::random), so a
/// population workload's browsing site is reproducible from the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// Number of Markov states (catalog items browsed).
    pub states: usize,
    /// Minimum out-degree per state.
    pub min_fanout: usize,
    /// Maximum out-degree per state.
    pub max_fanout: usize,
    /// Minimum per-state viewing time.
    pub v_min: u32,
    /// Maximum per-state viewing time.
    pub v_max: u32,
    /// Chain construction seed.
    pub seed: u64,
}

/// A parsed workload file: the scenario core plus engine composition
/// (policy / predictor / cache / backend specs) and the workload
/// description. Produced by [`parse_workload`]; rendered back by
/// [`render_workload`] (and `Display`); built into an engine and a
/// workload by [`WorkloadFile::instantiate`]; run end to end by
/// [`run_file`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadFile {
    /// The validated scenario (doubles as the engine catalog).
    pub scenario: Scenario,
    /// One label per item, file order.
    pub labels: Vec<String>,
    /// Which workload shape to run (default: plan).
    pub kind: WorkloadKind,
    /// Record the mechanistic event log.
    pub traced: bool,
    /// Backend registry spec (default: single-client).
    pub backend: Option<String>,
    /// Plan-store registry spec (default: the engine's small private
    /// in-memory store). A file-level spec wins over any store a host
    /// (e.g. `skp-serve`) would otherwise inject.
    pub plan_store: Option<String>,
    /// Observability-sink registry spec (default: none, unless
    /// `trace_out` forces the in-process `memory` sink).
    pub obs: Option<String>,
    /// Chrome/Perfetto trace output path (`skp-plan run` writes
    /// [`trace_json`](crate::trace_json) here). Forces `traced` and —
    /// when no explicit `obs` spec is given — the `memory` sink, so
    /// the trace has phase spans and epoch marks to show.
    pub trace_out: Option<String>,
    /// Policy registry spec (default: skp-exact).
    pub policy: Option<String>,
    /// Predictor registry spec (required by trace workloads).
    pub predictor: Option<String>,
    /// Prefetch-cache slots.
    pub cache: Option<usize>,
    /// Requests per client for population workloads (default: 100).
    pub requests: Option<u64>,
    /// Run seed (default: 1999).
    pub seed: Option<u64>,
    /// Monte-Carlo iterations (default: 1000).
    pub iterations: Option<u64>,
    /// Monte-Carlo probability-generation method (default: skewy).
    pub method: Option<ProbMethod>,
    /// Browsing chain for population workloads.
    pub chain: Option<ChainSpec>,
    /// Workload-generator spec for generated workloads (the `generate`
    /// directive, e.g. `flash:1.2@0.5`).
    pub generate: Option<String>,
    /// Trace records (`access <item> <viewing>` lines, file order).
    pub accesses: Vec<(usize, f64)>,
}

/// Renders the workload-file format (inverse of [`parse_workload`]).
impl fmt::Display for WorkloadFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render_workload(self))
    }
}

fn parse_method(text: &str) -> Option<ProbMethod> {
    let (name, param) = match text.split_once(':') {
        None => (text, None),
        Some((name, raw)) => (name, Some(raw.parse::<f64>().ok()?)),
    };
    match (name, param) {
        ("skewy", None) => Some(ProbMethod::skewy()),
        ("skewy", Some(exponent)) => Some(ProbMethod::Skewy { exponent }),
        ("flat", None) => Some(ProbMethod::Flat),
        ("zipf", Some(s)) => Some(ProbMethod::Zipf { s }),
        ("dirichlet", Some(alpha)) => Some(ProbMethod::Dirichlet { alpha }),
        _ => None,
    }
}

fn render_method(method: &ProbMethod) -> String {
    match method {
        ProbMethod::Skewy { exponent } => format!("skewy:{exponent}"),
        ProbMethod::Flat => "flat".to_string(),
        ProbMethod::Zipf { s } => format!("zipf:{s}"),
        ProbMethod::Dirichlet { alpha } => format!("dirichlet:{alpha}"),
    }
}

/// Parses the full workload-file format (a superset of [`parse`]'s
/// scenario format: a plain scenario file is a `plan` workload with all
/// defaults).
pub fn parse_workload(text: &str) -> Result<WorkloadFile, ParseError> {
    parse_lines(text, true)
}

fn parse_lines(text: &str, workload: bool) -> Result<WorkloadFile, ParseError> {
    let mut viewing: Option<f64> = None;
    let mut probs = Vec::new();
    let mut retrievals = Vec::new();
    let mut labels = Vec::new();
    let mut file = WorkloadFile {
        scenario: Scenario::new(vec![1.0], vec![1.0], 0.0).expect("placeholder scenario"),
        labels: Vec::new(),
        kind: WorkloadKind::Plan,
        traced: false,
        backend: None,
        plan_store: None,
        obs: None,
        trace_out: None,
        policy: None,
        predictor: None,
        cache: None,
        requests: None,
        seed: None,
        iterations: None,
        method: None,
        chain: None,
        generate: None,
        accesses: Vec::new(),
    };
    let mut saw_kind = false;

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad = |reason: &str| ParseError::BadLine {
            line: lineno,
            reason: reason.to_string(),
        };
        let directive = parts.next();
        // One scalar token after the directive, rejecting trailing junk.
        macro_rules! one_token {
            ($what:literal) => {{
                let token = parts
                    .next()
                    .ok_or_else(|| bad(concat!("'", $what, "' needs a value")))?;
                if parts.next().is_some() {
                    return Err(bad(concat!("trailing tokens after '", $what, "'")));
                }
                token
            }};
        }
        match directive {
            Some("v") => {
                let value: f64 = one_token!("v")
                    .parse()
                    .map_err(|_| bad("'v' value is not a number"))?;
                if viewing.replace(value).is_some() {
                    return Err(bad("duplicate 'v' line"));
                }
            }
            Some("item") => {
                let p: f64 = parts
                    .next()
                    .ok_or_else(|| bad("'item' needs <P> <r>"))?
                    .parse()
                    .map_err(|_| bad("item probability is not a number"))?;
                let r: f64 = parts
                    .next()
                    .ok_or_else(|| bad("'item' needs <P> <r>"))?
                    .parse()
                    .map_err(|_| bad("item retrieval is not a number"))?;
                let label = parts
                    .next()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("item{}", probs.len()));
                if parts.next().is_some() {
                    return Err(bad("trailing tokens after item label"));
                }
                probs.push(p);
                retrievals.push(r);
                labels.push(label);
            }
            Some("workload") if workload => {
                let kind = WorkloadKind::parse(one_token!("workload")).ok_or_else(|| {
                    bad("'workload' expects plan|trace|monte-carlo|multi-client|sharded|generated")
                })?;
                if saw_kind {
                    return Err(bad("duplicate 'workload' line"));
                }
                saw_kind = true;
                file.kind = kind;
            }
            Some("traced") if workload => {
                if parts.next().is_some() {
                    return Err(bad("trailing tokens after 'traced'"));
                }
                file.traced = true;
            }
            Some("backend") if workload => {
                if file
                    .backend
                    .replace(one_token!("backend").to_string())
                    .is_some()
                {
                    return Err(bad("duplicate 'backend' line"));
                }
            }
            Some("plan-store") if workload => {
                if file
                    .plan_store
                    .replace(one_token!("plan-store").to_string())
                    .is_some()
                {
                    return Err(bad("duplicate 'plan-store' line"));
                }
            }
            Some("obs") if workload => {
                if file.obs.replace(one_token!("obs").to_string()).is_some() {
                    return Err(bad("duplicate 'obs' line"));
                }
            }
            Some("trace-out") if workload => {
                if file
                    .trace_out
                    .replace(one_token!("trace-out").to_string())
                    .is_some()
                {
                    return Err(bad("duplicate 'trace-out' line"));
                }
            }
            Some("policy") if workload => {
                if file
                    .policy
                    .replace(one_token!("policy").to_string())
                    .is_some()
                {
                    return Err(bad("duplicate 'policy' line"));
                }
            }
            Some("predictor") if workload => {
                if file
                    .predictor
                    .replace(one_token!("predictor").to_string())
                    .is_some()
                {
                    return Err(bad("duplicate 'predictor' line"));
                }
            }
            Some("cache") if workload => {
                let slots = one_token!("cache")
                    .parse()
                    .map_err(|_| bad("'cache' expects a slot count"))?;
                if file.cache.replace(slots).is_some() {
                    return Err(bad("duplicate 'cache' line"));
                }
            }
            Some("requests") if workload => {
                let n = one_token!("requests")
                    .parse()
                    .map_err(|_| bad("'requests' expects a count"))?;
                if file.requests.replace(n).is_some() {
                    return Err(bad("duplicate 'requests' line"));
                }
            }
            Some("seed") if workload => {
                let n = one_token!("seed")
                    .parse()
                    .map_err(|_| bad("'seed' expects an integer"))?;
                if file.seed.replace(n).is_some() {
                    return Err(bad("duplicate 'seed' line"));
                }
            }
            Some("iterations") if workload => {
                let n = one_token!("iterations")
                    .parse()
                    .map_err(|_| bad("'iterations' expects a count"))?;
                if file.iterations.replace(n).is_some() {
                    return Err(bad("duplicate 'iterations' line"));
                }
            }
            Some("mc-method") if workload => {
                let method = parse_method(one_token!("mc-method"))
                    .ok_or_else(|| bad("'mc-method' expects skewy[:e]|flat|zipf:s|dirichlet:a"))?;
                if file.method.replace(method).is_some() {
                    return Err(bad("duplicate 'mc-method' line"));
                }
            }
            Some("chain") if workload => {
                let mut int = |what: &str| -> Result<u64, ParseError> {
                    parts
                        .next()
                        .ok_or_else(|| {
                            bad("'chain' needs <states> <min_fanout> <max_fanout> <v_min> <v_max> <seed>")
                        })?
                        .parse()
                        .map_err(|_| bad(&format!("chain {what} is not an integer")))
                };
                let spec = ChainSpec {
                    states: int("states")? as usize,
                    min_fanout: int("min_fanout")? as usize,
                    max_fanout: int("max_fanout")? as usize,
                    v_min: int("v_min")? as u32,
                    v_max: int("v_max")? as u32,
                    seed: int("seed")?,
                };
                if parts.next().is_some() {
                    return Err(bad("trailing tokens after 'chain'"));
                }
                if file.chain.replace(spec).is_some() {
                    return Err(bad("duplicate 'chain' line"));
                }
            }
            Some("generate") if workload => {
                if file
                    .generate
                    .replace(one_token!("generate").to_string())
                    .is_some()
                {
                    return Err(bad("duplicate 'generate' line"));
                }
            }
            Some("access") if workload => {
                let item: usize = parts
                    .next()
                    .ok_or_else(|| bad("'access' needs <item> <viewing>"))?
                    .parse()
                    .map_err(|_| bad("access item is not an index"))?;
                let view: f64 = parts
                    .next()
                    .ok_or_else(|| bad("'access' needs <item> <viewing>"))?
                    .parse()
                    .map_err(|_| bad("access viewing is not a number"))?;
                if parts.next().is_some() {
                    return Err(bad("trailing tokens after 'access'"));
                }
                file.accesses.push((item, view));
            }
            Some(other) => {
                let expected = if workload {
                    "expected a scenario ('v', 'item') or workload directive \
                     ('workload', 'traced', 'backend', 'plan-store', 'obs', 'trace-out', \
                     'policy', 'predictor', 'cache', 'requests', 'seed', 'iterations', \
                     'mc-method', 'chain', 'generate', 'access')"
                } else {
                    "expected 'v' or 'item'"
                };
                return Err(bad(&format!("unknown directive '{other}' ({expected})")));
            }
            None => unreachable!("blank lines filtered"),
        }
    }

    let viewing = viewing.ok_or(ParseError::MissingViewing)?;
    if probs.is_empty() {
        return Err(ParseError::NoItems);
    }
    file.scenario = Scenario::new(probs, retrievals, viewing)?;
    file.labels = labels;
    Ok(file)
}

/// Renders a scenario back into the file format (inverse of [`parse`]).
pub fn render(s: &Scenario, labels: &[String]) -> String {
    let mut out = String::from("# speculative-prefetch scenario\n");
    out.push_str(&format!("v {}\n", s.viewing()));
    for i in 0..s.n() {
        let label = labels.get(i).cloned().unwrap_or_else(|| format!("item{i}"));
        out.push_str(&format!(
            "item {} {} {}\n",
            s.prob(i),
            s.retrieval(i),
            label
        ));
    }
    out
}

/// Renders a workload file back into the text format (inverse of
/// [`parse_workload`]).
pub fn render_workload(file: &WorkloadFile) -> String {
    let mut out = String::from("# speculative-prefetch workload\n");
    out.push_str(&format!("workload {}\n", file.kind.name()));
    if file.traced {
        out.push_str("traced\n");
    }
    if let Some(backend) = &file.backend {
        out.push_str(&format!("backend {backend}\n"));
    }
    if let Some(plan_store) = &file.plan_store {
        out.push_str(&format!("plan-store {plan_store}\n"));
    }
    if let Some(obs) = &file.obs {
        out.push_str(&format!("obs {obs}\n"));
    }
    if let Some(trace_out) = &file.trace_out {
        out.push_str(&format!("trace-out {trace_out}\n"));
    }
    if let Some(policy) = &file.policy {
        out.push_str(&format!("policy {policy}\n"));
    }
    if let Some(predictor) = &file.predictor {
        out.push_str(&format!("predictor {predictor}\n"));
    }
    if let Some(cache) = file.cache {
        out.push_str(&format!("cache {cache}\n"));
    }
    if let Some(requests) = file.requests {
        out.push_str(&format!("requests {requests}\n"));
    }
    if let Some(seed) = file.seed {
        out.push_str(&format!("seed {seed}\n"));
    }
    if let Some(iterations) = file.iterations {
        out.push_str(&format!("iterations {iterations}\n"));
    }
    if let Some(method) = &file.method {
        out.push_str(&format!("mc-method {}\n", render_method(method)));
    }
    if let Some(c) = &file.chain {
        out.push_str(&format!(
            "chain {} {} {} {} {} {}\n",
            c.states, c.min_fanout, c.max_fanout, c.v_min, c.v_max, c.seed
        ));
    }
    if let Some(spec) = &file.generate {
        out.push_str(&format!("generate {spec}\n"));
    }
    out.push_str(&format!("v {}\n", file.scenario.viewing()));
    for i in 0..file.scenario.n() {
        let label = file
            .labels
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("item{i}"));
        out.push_str(&format!(
            "item {} {} {}\n",
            file.scenario.prob(i),
            file.scenario.retrieval(i),
            label
        ));
    }
    for (item, viewing) in &file.accesses {
        out.push_str(&format!("access {item} {viewing}\n"));
    }
    out
}

impl WorkloadFile {
    /// Default run seed for files that omit `seed`.
    pub const DEFAULT_SEED: u64 = 1999;
    /// Default requests per client for files that omit `requests`.
    pub const DEFAULT_REQUESTS: u64 = 100;
    /// Default Monte-Carlo iterations for files that omit `iterations`.
    pub const DEFAULT_ITERATIONS: u64 = 1000;

    /// Builds the [`Workload`] value this file describes (constructing
    /// the browsing chain / trace where needed).
    fn workload(&self) -> Result<Workload, Error> {
        use access_model::MarkovChain;
        let workload = match self.kind {
            WorkloadKind::Plan => Workload::plan(self.scenario.clone()),
            WorkloadKind::Trace => {
                let mut trace = distsys::Trace::new();
                for &(item, viewing) in &self.accesses {
                    trace.push(item, viewing);
                }
                if trace.len() < 2 {
                    return Err(Error::InvalidParam {
                        what: "trace workload",
                        detail: "needs at least two 'access' lines".into(),
                    });
                }
                Workload::trace(trace)
            }
            WorkloadKind::MonteCarlo => Workload::monte_carlo(MonteCarloSpec {
                n_items: self.scenario.n(),
                method: self.method.unwrap_or_else(ProbMethod::skewy),
                iterations: self.iterations.unwrap_or(Self::DEFAULT_ITERATIONS),
                seed: self.seed.unwrap_or(Self::DEFAULT_SEED),
            }),
            WorkloadKind::Sharded => {
                let spec = self.chain.ok_or(Error::InvalidParam {
                    what: "population workload",
                    detail: "needs a 'chain <states> <min_fanout> <max_fanout> \
                             <v_min> <v_max> <seed>' line"
                        .into(),
                })?;
                let chain = MarkovChain::random(
                    spec.states,
                    spec.min_fanout,
                    spec.max_fanout,
                    spec.v_min,
                    spec.v_max,
                    spec.seed,
                )
                .map_err(|e| Error::InvalidParam {
                    what: "workload chain",
                    detail: e.to_string(),
                })?;
                Workload::sharded(
                    chain,
                    self.requests.unwrap_or(Self::DEFAULT_REQUESTS),
                    self.seed.unwrap_or(Self::DEFAULT_SEED),
                )
            }
            WorkloadKind::Generated => {
                let spec = self.generate.as_ref().ok_or(Error::InvalidParam {
                    what: "generated workload",
                    detail: "needs a 'generate <spec>' line (e.g. 'generate flash:1.2@0.5'; \
                             see `skp-plan --list`)"
                        .into(),
                })?;
                Workload::generated(
                    spec.clone(),
                    self.requests.unwrap_or(Self::DEFAULT_REQUESTS),
                    self.seed.unwrap_or(Self::DEFAULT_SEED),
                )
            }
        };
        // A trace-out destination needs the event log: force tracing.
        Ok(workload.traced(self.traced || self.trace_out.is_some()))
    }

    /// Builds the [`Engine`] and the [`Workload`] this file describes,
    /// in that order: the `item` lines as catalog, plus the file's
    /// policy / predictor / cache / backend / plan-store / obs specs
    /// (engine defaults where omitted). `store` is a host-supplied
    /// shared plan store (`skp-serve` passes the daemon-wide one); the
    /// file's own `plan-store` directive wins over it, so a workload
    /// that pins its store behaves identically whether run by the CLI
    /// or inside a daemon.
    pub fn instantiate(
        &self,
        store: Option<Arc<dyn PlanStore>>,
    ) -> Result<(Engine, Workload), Error> {
        let mut builder = Engine::builder().catalog(self.scenario.retrievals().to_vec());
        if let Some(policy) = &self.policy {
            builder = builder.policy(policy);
        }
        if let Some(predictor) = &self.predictor {
            builder = builder.predictor(predictor);
        }
        if let Some(cache) = self.cache {
            builder = builder.cache(cache);
        }
        if let Some(backend) = &self.backend {
            builder = builder.backend_spec(backend);
        }
        match (&self.plan_store, store) {
            (Some(spec), _) => builder = builder.plan_store(spec),
            (None, Some(store)) => builder = builder.plan_store_instance(store),
            (None, None) => {}
        }
        match (&self.obs, &self.trace_out) {
            (Some(spec), _) => builder = builder.obs(spec),
            // A trace destination without an explicit sink gets the
            // in-process one: the export needs phase spans and epoch
            // marks to show.
            (None, Some(_)) => builder = builder.obs("memory"),
            (None, None) => {}
        }
        let engine = builder.build()?;
        Ok((engine, self.workload()?))
    }
}

/// Values that replace a workload file's `plan-store`, `obs` and
/// `trace-out` directives in [`run_file`] (`skp-plan run`'s flags of
/// the same names).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOverrides {
    /// Plan-store registry spec.
    pub plan_store: Option<String>,
    /// Observability-sink registry spec.
    pub obs: Option<String>,
    /// Chrome/Perfetto trace output path.
    pub trace_out: Option<String>,
}

/// How [`run_file`] renders the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// A human-readable summary.
    Text,
    /// One JSON object: the workload, backend and policy names, then
    /// the wire report fields (the body `skp-serve` answers `POST /run`
    /// with).
    Json,
}

/// The stage of [`run_file`] that failed, with its error.
#[derive(Debug)]
pub enum RunFileError {
    /// The text is not a workload file.
    Parse(ParseError),
    /// The engine or the workload the file describes could not be built.
    Build(Error),
    /// [`Engine::run`] failed.
    Run(Error),
    /// The Chrome trace could not be written to the named path.
    Trace(String, std::io::Error),
    /// Writing the report to the output failed.
    Write(std::io::Error),
}

impl fmt::Display for RunFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunFileError::Parse(e) => e.fmt(f),
            RunFileError::Build(e) | RunFileError::Run(e) => e.fmt(f),
            RunFileError::Trace(path, e) => write!(f, "cannot write trace to {path}: {e}"),
            RunFileError::Write(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

impl std::error::Error for RunFileError {}

/// Runs a workload file end to end, as `skp-plan run` does: parses
/// `text`, applies `overrides`, builds the engine and workload
/// ([`WorkloadFile::instantiate`] without a host store), runs it,
/// writes the Chrome trace when the file or the overrides name a path,
/// and renders the report to `out`. Returns the path the trace was
/// written to, if any.
pub fn run_file(
    text: &str,
    overrides: &RunOverrides,
    format: ReportFormat,
    out: &mut dyn Write,
) -> Result<Option<String>, RunFileError> {
    let mut file = parse_workload(text).map_err(RunFileError::Parse)?;
    file.plan_store = overrides.plan_store.clone().or(file.plan_store);
    file.obs = overrides.obs.clone().or(file.obs);
    file.trace_out = overrides.trace_out.clone().or(file.trace_out);
    let (mut engine, workload) = file.instantiate(None).map_err(RunFileError::Build)?;
    let report = engine.run(&workload).map_err(RunFileError::Run)?;
    if let Some(path) = &file.trace_out {
        std::fs::write(path, timed_trace(&report))
            .map_err(|e| RunFileError::Trace(path.clone(), e))?;
    }
    match format {
        ReportFormat::Json => write_run_json(out, &file, &engine, &report),
        ReportFormat::Text => write_run_text(out, &file, &engine, &report),
    }
    .map_err(RunFileError::Write)?;
    Ok(file.trace_out)
}

/// The Chrome/Perfetto trace of `report` with one more engine span,
/// `trace-render`, timing the conversion of the report into trace
/// records — trace-only, never in the report. The records are built
/// once and rendered once; the render is not in the span.
fn timed_trace(report: &RunReport) -> String {
    let started = std::time::Instant::now();
    let mut records = TraceRecords::of(report);
    records.push_phase(PhaseSpan {
        name: "trace-render",
        seconds: started.elapsed().as_secs_f64(),
    });
    records.render()
}

fn write_run_text(
    out: &mut dyn Write,
    file: &WorkloadFile,
    engine: &Engine,
    report: &RunReport,
) -> std::io::Result<()> {
    writeln!(
        out,
        "workload {} on backend {} (policy: {})",
        file.kind.name(),
        engine.backend_spec_string(),
        engine.policy_name()
    )?;
    let a = &report.access;
    writeln!(
        out,
        "access: count {}  mean {:.4}  p50 {:.4}  p99 {:.4}  min {:.4}  max {:.4}",
        a.count, a.mean, a.p50, a.p99, a.min, a.max
    )?;
    match &report.section {
        ReportSection::Plan(r) => {
            let items: Vec<&str> = r
                .plan
                .items()
                .iter()
                .map(|&i| file.labels[i].as_str())
                .collect();
            writeln!(out, "plan: prefetch {items:?}")?;
            writeln!(
                out,
                "  gain {:.4}  stretch {:.4}  expected T {:.4}  bound {:.4}",
                r.gain, r.stretch, r.expected_access_time, r.upper_bound
            )?;
        }
        ReportSection::Trace(r) => {
            writeln!(
                out,
                "trace: {} requests  hit rate {:.1}%  wasted/request {:.4}",
                r.requests,
                r.hit_rate * 100.0,
                r.wasted_per_request
            )?;
        }
        ReportSection::MonteCarlo(r) => {
            writeln!(
                out,
                "monte-carlo: {} iterations  mean T {:.4} ± {:.4}  mean gain {:.4}",
                r.iterations,
                r.access.mean(),
                r.access.std_err(),
                r.gain.mean()
            )?;
        }
        ReportSection::Sharded(r) => {
            writeln!(
                out,
                "sharded: {} requests  mean utilisation {:.1}%  waste {:.4}/{:.4}",
                r.requests(),
                r.utilisation * 100.0,
                r.wasted_transfer,
                r.total_transfer
            )?;
            for shard in &r.shards {
                writeln!(
                    out,
                    "  shard {}: jobs {}  busy {:.1}%  queue mean {:.2} max {}",
                    shard.shard,
                    shard.jobs,
                    shard.utilisation * 100.0,
                    shard.mean_queue_depth,
                    shard.max_queue_depth
                )?;
            }
        }
    }
    if !report.events.is_empty() {
        writeln!(out, "events: {} recorded (traced)", report.events.len())?;
    }
    let ps = &report.plan_store;
    if ps.lookups > 0 {
        writeln!(
            out,
            "plan store [{}]: {} lookups  {} hits ({:.0}%)",
            engine.plan_store_spec_string(),
            ps.lookups,
            ps.hits,
            ps.hit_rate() * 100.0
        )?;
    }
    Ok(())
}

fn write_run_json(
    out: &mut dyn Write,
    file: &WorkloadFile,
    engine: &Engine,
    report: &RunReport,
) -> std::io::Result<()> {
    // The same document skp-serve answers with, from the same writer.
    let mut json = String::new();
    write_run_document(&mut json, file.kind.name(), engine, report, &file.labels);
    writeln!(out, "{json}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "# demo\nv 10\nitem 0.5 8 front\nitem 0.3 6\nitem 0.2 9 video\n";

    #[test]
    fn parses_the_sample() {
        let f = parse(SAMPLE).unwrap();
        assert_eq!(f.scenario.n(), 3);
        assert_eq!(f.scenario.viewing(), 10.0);
        assert_eq!(f.scenario.prob(0), 0.5);
        assert_eq!(f.scenario.retrieval(2), 9.0);
        assert_eq!(f.labels, vec!["front", "item1", "video"]);
    }

    #[test]
    fn roundtrips_through_render() {
        let f = parse(SAMPLE).unwrap();
        let text = render(&f.scenario, &f.labels);
        let again = parse(&text).unwrap();
        assert_eq!(again.scenario, f.scenario);
        assert_eq!(again.labels, f.labels);
    }

    #[test]
    fn missing_viewing_rejected() {
        assert_eq!(
            parse("item 1.0 2\n").unwrap_err(),
            ParseError::MissingViewing
        );
    }

    #[test]
    fn no_items_rejected() {
        assert_eq!(parse("v 5\n").unwrap_err(), ParseError::NoItems);
    }

    #[test]
    fn duplicate_viewing_rejected() {
        let e = parse("v 5\nv 6\nitem 1 1\n").unwrap_err();
        assert!(matches!(e, ParseError::BadLine { line: 2, .. }));
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = parse("v 5\nfoo 1 2\n").unwrap_err();
        assert!(matches!(e, ParseError::BadLine { line: 2, .. }));
    }

    #[test]
    fn bad_numbers_rejected() {
        assert!(matches!(
            parse("v ten\nitem 1 1\n").unwrap_err(),
            ParseError::BadLine { line: 1, .. }
        ));
        assert!(matches!(
            parse("v 5\nitem half 1\n").unwrap_err(),
            ParseError::BadLine { line: 2, .. }
        ));
    }

    #[test]
    fn model_validation_propagates() {
        // Probabilities exceeding mass one reach the model layer.
        let e = parse("v 5\nitem 0.9 1\nitem 0.9 1\n").unwrap_err();
        assert!(matches!(e, ParseError::Model(_)));
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(matches!(
            parse("v 5 extra\nitem 1 1\n").unwrap_err(),
            ParseError::BadLine { line: 1, .. }
        ));
        assert!(matches!(
            parse("v 5\nitem 1 1 label extra\n").unwrap_err(),
            ParseError::BadLine { line: 2, .. }
        ));
    }

    // ---- workload files -------------------------------------------------

    const WORKLOAD_SAMPLE: &str = "\
workload sharded
traced
backend sharded:2x4:range
plan-store memory:2x64
obs memory
policy network-aware:0.4
requests 50
seed 7
chain 3 1 2 2 8 11
v 10
item 0.5 8 front
item 0.3 6 sports
item 0.2 9 video
";

    #[test]
    fn workload_file_parses_and_roundtrips() {
        let f = parse_workload(WORKLOAD_SAMPLE).unwrap();
        assert_eq!(f.kind, WorkloadKind::Sharded);
        assert!(f.traced);
        assert_eq!(f.backend.as_deref(), Some("sharded:2x4:range"));
        assert_eq!(f.plan_store.as_deref(), Some("memory:2x64"));
        assert_eq!(f.obs.as_deref(), Some("memory"));
        assert!(f.trace_out.is_none());
        assert_eq!(f.policy.as_deref(), Some("network-aware:0.4"));
        assert_eq!(f.requests, Some(50));
        assert_eq!(f.seed, Some(7));
        assert_eq!(
            f.chain,
            Some(ChainSpec {
                states: 3,
                min_fanout: 1,
                max_fanout: 2,
                v_min: 2,
                v_max: 8,
                seed: 11,
            })
        );
        assert_eq!(f.scenario.n(), 3);
        let again = parse_workload(&f.to_string()).unwrap();
        assert_eq!(again, f);
    }

    #[test]
    fn plain_scenario_is_a_default_plan_workload() {
        let f = parse_workload(SAMPLE).unwrap();
        assert_eq!(f.kind, WorkloadKind::Plan);
        assert!(!f.traced);
        assert!(f.backend.is_none() && f.policy.is_none());
        assert!(f.accesses.is_empty());
    }

    #[test]
    fn strict_parse_rejects_workload_directives() {
        let e = parse("v 5\nitem 1 1\nworkload plan\n").unwrap_err();
        assert!(matches!(e, ParseError::BadLine { line: 3, .. }));
    }

    #[test]
    fn workload_duplicates_and_bad_values_rejected() {
        let base = "v 5\nitem 1 1\n";
        for extra in [
            "workload plan\nworkload trace\n",
            "workload warp\n",
            "backend a\nbackend b\n",
            "plan-store memory:2x8\nplan-store none\n",
            "plan-store\n",
            "plan-store memory:2x8 junk\n",
            "obs memory\nobs none\n",
            "obs\n",
            "obs memory junk\n",
            "trace-out a.json\ntrace-out b.json\n",
            "trace-out\n",
            "cache none\n",
            "chain 3 1 2 2\n",
            "mc-method cubic\n",
            "access 1\n",
            "traced yes\n",
            "generate flash:1.2@0.5\ngenerate churn:0.2/0.05\n",
            "generate\n",
            "generate flash:1.2@0.5 junk\n",
        ] {
            let text = format!("{base}{extra}");
            assert!(
                matches!(parse_workload(&text), Err(ParseError::BadLine { .. })),
                "{extra:?} must be rejected"
            );
        }
    }

    #[test]
    fn mc_method_syntax_roundtrips() {
        for (text, canonical) in [
            ("skewy", "skewy:16"),
            ("skewy:4", "skewy:4"),
            ("flat", "flat"),
            ("zipf:1.1", "zipf:1.1"),
            ("dirichlet:0.5", "dirichlet:0.5"),
        ] {
            let m = parse_method(text).unwrap_or_else(|| panic!("{text} must parse"));
            assert_eq!(render_method(&m), canonical);
            assert_eq!(parse_method(&render_method(&m)), Some(m));
        }
        assert_eq!(parse_method("zipf"), None);
        assert_eq!(parse_method("skewy:x"), None);
    }

    #[test]
    fn workload_builds_trace_and_rejects_short_traces() {
        let text = "v 5\nitem 0.5 2\nitem 0.5 3\nworkload trace\npredictor ngram:1\n\
                    access 0 5\naccess 1 5\naccess 0 5\n";
        let f = parse_workload(text).unwrap();
        let w = f.workload().unwrap();
        assert_eq!(w.name(), "trace");
        let short = parse_workload("v 5\nitem 1 1\nworkload trace\naccess 0 5\n").unwrap();
        assert!(short.workload().is_err());
    }

    #[test]
    fn generated_workload_parses_roundtrips_and_requires_a_spec() {
        let text = "v 5\nitem 0.5 2\nitem 0.5 3\nworkload generated\n\
                    generate flash:1.2@0.5\nrequests 20\nseed 3\n";
        let f = parse_workload(text).unwrap();
        assert_eq!(f.kind, WorkloadKind::Generated);
        assert_eq!(f.generate.as_deref(), Some("flash:1.2@0.5"));
        let w = f.workload().unwrap();
        assert_eq!(w.name(), "generated");
        let again = parse_workload(&f.to_string()).unwrap();
        assert_eq!(again, f);
        // Without a 'generate' line the workload cannot be built.
        let bare = parse_workload("v 5\nitem 1 1\nworkload generated\n").unwrap();
        let err = bare.workload().unwrap_err();
        assert!(err.to_string().contains("'generate <spec>'"), "{err}");
    }

    #[test]
    fn population_workload_requires_a_chain() {
        let f = parse_workload("v 5\nitem 1 1\nworkload multi-client\n").unwrap();
        assert_eq!(f.kind, WorkloadKind::Sharded, "multi-client spells sharded");
        assert!(matches!(
            f.workload(),
            Err(crate::Error::InvalidParam { .. })
        ));
    }

    /// Builds and runs a workload file's text.
    fn run(text: &str) -> RunReport {
        let (mut engine, workload) = parse_workload(text).unwrap().instantiate(None).unwrap();
        engine.run(&workload).unwrap()
    }

    #[test]
    fn execute_runs_a_plan_file_end_to_end() {
        let report = run(SAMPLE);
        let plan = report.plan().expect("plan section");
        assert!(plan.gain > 0.0);
        assert_eq!(report.access.count, 3);
    }

    #[test]
    fn execute_runs_a_sharded_file_end_to_end() {
        let report = run(WORKLOAD_SAMPLE);
        let sharded = report.sharded().expect("sharded section");
        assert_eq!(sharded.requests(), 4 * 50);
        assert!(!report.events.is_empty(), "traced file records events");
    }

    #[test]
    fn plan_store_directive_configures_the_engine() {
        let f = parse_workload(WORKLOAD_SAMPLE).unwrap();
        let engine = f.instantiate(None).unwrap().0;
        assert_eq!(engine.plan_store_spec_string(), "memory:2x64");
        // A malformed spec surfaces through instantiate.
        let mut bad = f.clone();
        bad.plan_store = Some("memory:0x4".to_string());
        assert!(matches!(
            bad.instantiate(None),
            Err(crate::Error::InvalidParam { .. })
        ));
    }

    #[test]
    fn obs_directive_configures_the_engine() {
        let f = parse_workload(WORKLOAD_SAMPLE).unwrap();
        let engine = f.instantiate(None).unwrap().0;
        assert_eq!(engine.obs_spec_string(), "memory");
        // Without a directive the engine stays unobserved.
        let mut off = f.clone();
        off.obs = None;
        assert_eq!(off.instantiate(None).unwrap().0.obs_spec_string(), "none");
        // A malformed spec surfaces through instantiate.
        let mut bad = f;
        bad.obs = Some("memory:0".to_string());
        assert!(matches!(
            bad.instantiate(None),
            Err(crate::Error::InvalidParam { .. })
        ));
    }

    #[test]
    fn trace_out_forces_tracing_and_the_memory_sink() {
        let text = "v 5\nitem 0.4 2\nitem 0.3 3\nitem 0.3 4\nworkload sharded\n\
                    chain 3 1 2 2 8 11\ntrace-out out.json\n";
        let f = parse_workload(text).unwrap();
        assert_eq!(f.trace_out.as_deref(), Some("out.json"));
        assert!(!f.traced, "the directive itself is not 'traced'");
        assert!(f.workload().unwrap().is_traced());
        assert_eq!(f.instantiate(None).unwrap().0.obs_spec_string(), "memory");
        // An explicit obs spec wins over the forced default.
        let mut off = f.clone();
        off.obs = Some("none".to_string());
        let engine = off.instantiate(None).unwrap().0;
        assert_eq!(engine.obs_spec_string(), "none");
        // And the directive round-trips.
        let again = parse_workload(&f.to_string()).unwrap();
        assert_eq!(again, f);
    }

    #[test]
    fn file_plan_store_wins_over_an_injected_store() {
        let shared = planstore::build_plan_store("memory:1x4").unwrap();
        // The file pins its own store: the host's shared one is ignored.
        let pinned = parse_workload(WORKLOAD_SAMPLE).unwrap();
        let (engine, _) = pinned.instantiate(Some(shared.clone())).unwrap();
        assert_eq!(engine.plan_store_spec_string(), "memory:2x64");
        // Without a directive, the injected store is the default.
        let mut open = pinned.clone();
        open.plan_store = None;
        let (engine, _) = open.instantiate(Some(shared)).unwrap();
        assert_eq!(engine.plan_store_spec_string(), "memory:1x4");
    }
}
