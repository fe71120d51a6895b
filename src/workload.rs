//! Workloads as data: the one input shape of
//! [`Engine::run`](crate::Engine::run).
//!
//! The paper's evaluation is a grid of *workloads* (one decision, a
//! recorded trace, a Monte-Carlo sweep, a browsing population) run
//! against one prefetch model. [`Workload`] makes each of those a plain
//! spec struct — what to simulate, for how long, under which seed, with
//! or without the mechanistic event log — so experiments are values you
//! can store, render into [workload files](crate::scenario_file) and
//! replay, instead of bespoke method calls.

use access_model::MarkovChain;
use distsys::Trace;
use montecarlo::probgen::ProbMethod;
use skp_core::Scenario;

/// Parameters of a Monte-Carlo policy evaluation over random scenarios
/// drawn with the paper's ranges (`r ∈ [1,30]`, `v ∈ [1,100]`).
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloSpec {
    /// Items per scenario.
    pub n_items: usize,
    /// Probability generation method (skewy, flat, Zipf, …).
    pub method: ProbMethod,
    /// Total iterations across all chunks.
    pub iterations: u64,
    /// Root seed; results are a pure function of the spec.
    pub seed: u64,
}

/// One closed-form prefetch decision: plan for the scenario and
/// evaluate every per-request access time (Eq. 3).
#[derive(Debug, Clone)]
pub struct PlanWorkload {
    /// The decision problem.
    pub scenario: Scenario,
    /// Record the mechanistic event log (no events exist for the
    /// closed-form path; accepted for uniformity and always empty).
    pub traced: bool,
}

/// Replay a recorded access trace: forecast, plan, arbitrate, serve and
/// learn per record. Needs an engine with a predictor and a catalog.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    /// The recorded accesses (item + viewing time per record).
    pub trace: Trace,
    /// Record the mechanistic event log (the trace path replays closed
    /// forms; accepted for uniformity and always empty).
    pub traced: bool,
}

/// Evaluate the policy over random scenarios with the paper's parameter
/// ranges.
#[derive(Debug, Clone)]
pub struct MonteCarloWorkload {
    /// Sampling parameters (items, method, iterations, seed).
    pub spec: MonteCarloSpec,
    /// Record the mechanistic event log (sampled closed forms have no
    /// events; accepted for uniformity and always empty).
    pub traced: bool,
}

/// A population of Markov-browsing clients replayed on the configured
/// substrate's channels, planning with the engine's policy.
///
/// The client count and topology come from the engine's backend; the
/// workload says what the population browses and for how long.
#[derive(Debug, Clone)]
pub struct PopulationWorkload {
    /// The site every client browses (per-state viewing + transitions).
    pub chain: MarkovChain,
    /// Requests served per client.
    pub requests_per_client: u64,
    /// Root seed; runs are a pure function of workload + backend.
    pub seed: u64,
    /// Record the full mechanistic event log in
    /// [`RunReport::events`](crate::RunReport::events).
    pub traced: bool,
}

/// A population replay whose browsing chain (and, for `faults:`, fault
/// specification) is synthesised by a registered workload generator
/// ([`build_generator`](crate::build_generator)) against the engine's
/// catalog — the adversarial counterpart of hand-written
/// [`PopulationWorkload`] chains.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    /// Generator spec string (e.g. `"flash:1.2@0.5"`,
    /// `"faults:out=1@40+20"`).
    pub spec: String,
    /// Requests served per client.
    pub requests_per_client: u64,
    /// Root seed; runs are a pure function of workload + backend.
    pub seed: u64,
    /// Record the full mechanistic event log in
    /// [`RunReport::events`](crate::RunReport::events).
    pub traced: bool,
}

/// What to simulate: the one input of [`Engine::run`](crate::Engine::run).
///
/// Population replays ([`Sharded`](Workload::Sharded) and
/// [`Generated`](Workload::Generated)) run on any population-capable
/// backend; the paper's many-clients-one-server system is the sharded
/// backend with one shard (`sharded:1x<clients>`, spelled
/// `multi-client:<clients>` in the backend registry).
#[derive(Debug, Clone)]
pub enum Workload {
    /// One closed-form prefetch decision.
    Plan(PlanWorkload),
    /// Replay of a recorded access trace.
    Trace(TraceWorkload),
    /// Monte-Carlo sweep over random scenarios.
    MonteCarlo(MonteCarloWorkload),
    /// Chain-driven population replay: clients browse one Markov site.
    Sharded(PopulationWorkload),
    /// Population replay of a generator-synthesised adversarial
    /// workload (flash crowds, diurnal load, churn, fault injection).
    Generated(GeneratedWorkload),
}

impl Workload {
    /// A closed-form plan evaluation of `scenario`.
    pub fn plan(scenario: Scenario) -> Self {
        Workload::Plan(PlanWorkload {
            scenario,
            traced: false,
        })
    }

    /// A replay of the recorded `trace`.
    pub fn trace(trace: Trace) -> Self {
        Workload::Trace(TraceWorkload {
            trace,
            traced: false,
        })
    }

    /// A Monte-Carlo sweep with the given sampling parameters.
    pub fn monte_carlo(spec: MonteCarloSpec) -> Self {
        Workload::MonteCarlo(MonteCarloWorkload {
            spec,
            traced: false,
        })
    }

    /// A sharded population replay (pair with the sharded backend).
    pub fn sharded(chain: MarkovChain, requests_per_client: u64, seed: u64) -> Self {
        Workload::Sharded(PopulationWorkload {
            chain,
            requests_per_client,
            seed,
            traced: false,
        })
    }

    /// A generator-synthesised population replay: `spec` is resolved
    /// through the workload-generator registry against the engine's
    /// catalog at run time.
    pub fn generated(spec: impl Into<String>, requests_per_client: u64, seed: u64) -> Self {
        Workload::Generated(GeneratedWorkload {
            spec: spec.into(),
            requests_per_client,
            seed,
            traced: false,
        })
    }

    /// Returns the workload with the tracing knob set: population
    /// replays record the full mechanistic event log into
    /// [`RunReport::events`](crate::RunReport::events).
    pub fn traced(mut self, traced: bool) -> Self {
        match &mut self {
            Workload::Plan(w) => w.traced = traced,
            Workload::Trace(w) => w.traced = traced,
            Workload::MonteCarlo(w) => w.traced = traced,
            Workload::Sharded(w) => w.traced = traced,
            Workload::Generated(w) => w.traced = traced,
        }
        self
    }

    /// Whether the tracing knob is set (see [`traced`](Self::traced)).
    pub fn is_traced(&self) -> bool {
        match self {
            Workload::Plan(w) => w.traced,
            Workload::Trace(w) => w.traced,
            Workload::MonteCarlo(w) => w.traced,
            Workload::Sharded(w) => w.traced,
            Workload::Generated(w) => w.traced,
        }
    }

    /// Short name of the workload shape (for output and errors).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Plan(_) => "plan",
            Workload::Trace(_) => "trace",
            Workload::MonteCarlo(_) => "monte-carlo",
            Workload::Sharded(_) => "sharded",
            Workload::Generated(_) => "generated",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_name_their_shape() {
        let s = Scenario::new(vec![1.0], vec![2.0], 3.0).unwrap();
        let chain = MarkovChain::random(4, 1, 2, 1, 5, 9).unwrap();
        let mut trace = Trace::new();
        trace.push(0, 1.0);
        trace.push(0, 1.0);
        let spec = MonteCarloSpec {
            n_items: 4,
            method: ProbMethod::flat(),
            iterations: 10,
            seed: 1,
        };
        assert_eq!(Workload::plan(s).name(), "plan");
        assert_eq!(Workload::trace(trace).name(), "trace");
        assert_eq!(Workload::monte_carlo(spec).name(), "monte-carlo");
        assert_eq!(Workload::sharded(chain, 5, 1).name(), "sharded");
        assert_eq!(
            Workload::generated("flash:1.2@0.5", 5, 1).name(),
            "generated"
        );
    }

    #[test]
    fn traced_knob_sets_every_variant() {
        let chain = MarkovChain::random(4, 1, 2, 1, 5, 9).unwrap();
        let w = Workload::sharded(chain, 5, 1).traced(true);
        match w {
            Workload::Sharded(p) => assert!(p.traced),
            _ => unreachable!(),
        }
    }
}
