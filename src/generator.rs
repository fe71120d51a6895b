//! Adversarial workload generators as registry entries.
//!
//! Every workload the engine could run before this module was a
//! well-behaved stationary chain. A [`ScenarioGen`] synthesises the
//! conditions that make speculative prefetching *hard* — skewed and
//! drifting popularity, bursty arrival rates, clients churning mid-run,
//! shards failing or degrading — as a deterministic function of the
//! catalog size and run seed, behind the same string-keyed registry
//! seam as policies, predictors, backends, plan stores and obs sinks.
//!
//! Spec-string grammar (see [`build_generator`]):
//!
//! ```text
//! flash:<zipf-s>@<drift>        Zipf popularity, hot-set centre drifts
//! diurnal:<period>x<amplitude>  sinusoidal arrival-rate modulation
//! churn:<join>/<leave>          lobby state; sessions join/leave mid-run
//! faults:<clauses>              shard outages, slow links, svc spread
//! ```
//!
//! The `faults:` parameter grammar is [`FaultSpec::parse`]'s clause
//! list (`out=<shard>@<start>+<dur>`, `slow=<shard>x<factor>`,
//! `svc=<spread>`, `;`-separated). Every generator produces an exact
//! [`MarkovChain`] (the chain is a pure function of the spec and the
//! catalog size — the run seed only drives the sampling), so a generated
//! run, faults included, is a pure function of its spec, catalog and
//! seed.

use std::f64::consts::TAU;
use std::sync::Arc;

use access_model::MarkovChain;
use distsys::FaultSpec;
use skp_registry::{param_err, Registry, SpecError};

use crate::error::Error;

/// Baseline viewing time (simulated units) of generated states — a
/// round mid-range value against the catalog's `r ∈ [1, 30]`.
const BASE_VIEWING: f64 = 5.0;

/// Viewing time of the churn generator's lobby state: a session "out of
/// the system" browses nothing for a long stretch.
const LOBBY_VIEWING: f64 = 50.0;

/// One adversarial workload generator: synthesises the browsing chain a
/// population replays (and, for `faults:`, the fault specification the
/// substrate applies).
///
/// Implement this trait and [`register_generator`] the constructor to
/// add a generator — the engine dispatches through the trait and needs
/// no edits. Note the Monte-Carlo scenario sampler is a different seam
/// ([`crate::ScenarioGen`]); this trait generates *population*
/// workloads.
pub trait ScenarioGen: Send + Sync {
    /// Registry name of the generator family (e.g. `"flash"`).
    fn name(&self) -> &'static str;

    /// Canonical spec string reconstructing this generator through
    /// [`build_generator`]. Must be a fixed point.
    fn spec_string(&self) -> String;

    /// Synthesises the workload for a catalog of `n_items` items: the
    /// browsing chain (one state per item) plus the fault specification
    /// the substrate should apply (`None` for fault-free generators).
    ///
    /// The chain must be a pure function of the spec and `n_items`;
    /// `seed` is reserved for generators that shape the chain randomly
    /// and must be used deterministically.
    fn build(&self, n_items: usize, seed: u64) -> Result<(MarkovChain, Option<FaultSpec>), Error>;
}

/// Shared guard: every builtin generator needs at least two states.
fn check_states(what: &'static str, n_items: usize) -> Result<(), Error> {
    if n_items < 2 {
        return Err(param_err(
            what,
            format!("needs a catalog of at least 2 items, got {n_items}"),
        )
        .into());
    }
    Ok(())
}

fn chain_err(what: &'static str, e: impl std::fmt::Display) -> Error {
    param_err(what, format!("generated an invalid chain: {e}")).into()
}

// ---------------------------------------------------------------------
// Built-in generators.
// ---------------------------------------------------------------------

/// `flash:<zipf-s>@<drift>` — Zipf-skewed popularity around a hot-set
/// centre that drifts across the catalog as the client browses.
///
/// From state `s`, the probability of moving to item `j` is
/// `∝ 1 / (1 + d)^zipf_s` where `d` is the circular distance from the
/// state's hot centre `round(s · drift) mod n`. `flash:0@0` is the
/// uniform chain (the baseline the pinned adversarial tests compare
/// against); larger `zipf_s` concentrates traffic, larger `drift`
/// moves the crowd faster.
struct FlashGen {
    zipf_s: f64,
    drift: f64,
}

impl ScenarioGen for FlashGen {
    fn name(&self) -> &'static str {
        "flash"
    }

    fn spec_string(&self) -> String {
        format!("flash:{}@{}", self.zipf_s, self.drift)
    }

    fn build(&self, n_items: usize, _seed: u64) -> Result<(MarkovChain, Option<FaultSpec>), Error> {
        const WHAT: &str = "flash generator";
        check_states(WHAT, n_items)?;
        let n = n_items;
        let mut transitions = Vec::with_capacity(n);
        for s in 0..n {
            let centre = ((s as f64) * self.drift).round() as usize % n;
            let mut weights: Vec<f64> = (0..n)
                .map(|j| {
                    let raw = centre.abs_diff(j);
                    let d = raw.min(n - raw) as f64;
                    (1.0 + d).powf(-self.zipf_s)
                })
                .collect();
            let sum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= sum;
            }
            transitions.push(weights.into_iter().enumerate().collect());
        }
        let chain =
            MarkovChain::new(transitions, vec![BASE_VIEWING; n]).map_err(|e| chain_err(WHAT, e))?;
        Ok((chain, None))
    }
}

/// `diurnal:<period>x<amplitude>` — a deterministic forward cycle
/// through the catalog whose viewing times swing sinusoidally: the
/// trough of each period is the flash crowd's rush hour (requests
/// arrive `1/(1 - amplitude)` times faster than the baseline), the
/// crest its dead of night.
struct DiurnalGen {
    period: f64,
    amplitude: f64,
}

impl ScenarioGen for DiurnalGen {
    fn name(&self) -> &'static str {
        "diurnal"
    }

    fn spec_string(&self) -> String {
        format!("diurnal:{}x{}", self.period, self.amplitude)
    }

    fn build(&self, n_items: usize, _seed: u64) -> Result<(MarkovChain, Option<FaultSpec>), Error> {
        const WHAT: &str = "diurnal generator";
        check_states(WHAT, n_items)?;
        let n = n_items;
        let transitions = (0..n).map(|s| vec![((s + 1) % n, 1.0)]).collect();
        let viewing = (0..n)
            .map(|s| BASE_VIEWING * (1.0 + self.amplitude * (TAU * s as f64 / self.period).sin()))
            .collect();
        let chain = MarkovChain::new(transitions, viewing).map_err(|e| chain_err(WHAT, e))?;
        Ok((chain, None))
    }
}

/// `churn:<join-rate>/<leave-rate>` — sessions joining and leaving
/// mid-run. State 0 is the *lobby*: a long-viewing parking state
/// standing in for "not browsing". Lobby sessions join (move to a
/// uniform active state) with probability `join` per round; active
/// sessions leave back to the lobby with probability `leave`, else
/// browse uniformly across the active states.
struct ChurnGen {
    join: f64,
    leave: f64,
}

impl ScenarioGen for ChurnGen {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn spec_string(&self) -> String {
        format!("churn:{}/{}", self.join, self.leave)
    }

    fn build(&self, n_items: usize, _seed: u64) -> Result<(MarkovChain, Option<FaultSpec>), Error> {
        const WHAT: &str = "churn generator";
        check_states(WHAT, n_items)?;
        let n = n_items;
        let active = n - 1;
        let mut transitions: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        // Lobby: stay with 1 - join, else a uniform active state.
        let mut lobby: Vec<(usize, f64)> = vec![(0, 1.0 - self.join)];
        lobby.extend((1..n).map(|j| (j, self.join / active as f64)));
        transitions.push(lobby);
        // Active: leave with probability `leave`, else browse uniformly.
        for _ in 1..n {
            let mut row: Vec<(usize, f64)> = vec![(0, self.leave)];
            row.extend((1..n).map(|j| (j, (1.0 - self.leave) / active as f64)));
            transitions.push(row);
        }
        let mut viewing = vec![BASE_VIEWING; n];
        viewing[0] = LOBBY_VIEWING;
        let chain = MarkovChain::new(transitions, viewing).map_err(|e| chain_err(WHAT, e))?;
        Ok((chain, None))
    }
}

/// `faults:<clauses>` — the uniform baseline chain (row-identical to
/// `flash:0@0`, so fault-free and faulted twins are comparable
/// draw-for-draw) carrying a [`FaultSpec`] for the substrate: shard
/// outage windows, degraded slow links and a seed-derived heterogeneous
/// service-time spread.
struct FaultsGen {
    spec: FaultSpec,
}

impl ScenarioGen for FaultsGen {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn spec_string(&self) -> String {
        format!("faults:{}", self.spec)
    }

    fn build(&self, n_items: usize, _seed: u64) -> Result<(MarkovChain, Option<FaultSpec>), Error> {
        const WHAT: &str = "faults generator";
        check_states(WHAT, n_items)?;
        let n = n_items;
        let uniform: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0 / n as f64)).collect();
        let chain = MarkovChain::new(vec![uniform; n], vec![BASE_VIEWING; n])
            .map_err(|e| chain_err(WHAT, e))?;
        Ok((chain, Some(self.spec.clone())))
    }
}

// ---------------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------------

/// A spec field that must be a finite number — errors name the field
/// and the offending text.
fn parse_number(what: &'static str, field: &str, raw: &str) -> Result<f64, SpecError> {
    let text = raw.trim();
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(param_err(
            what,
            format!("{field} '{text}' is not a finite number"),
        )),
    }
}

fn build_flash(param: Option<&str>) -> Result<Arc<dyn ScenarioGen>, Error> {
    const WHAT: &str = "flash generator spec";
    let (zipf_s, drift) = match param {
        None => (1.2, 0.5),
        Some(raw) => {
            let (s, d) = raw.split_once('@').ok_or_else(|| {
                param_err(
                    WHAT,
                    format!("'{}' must be '<zipf-s>@<drift>' (e.g. 1.2@0.5)", raw.trim()),
                )
            })?;
            let zipf_s = parse_number(WHAT, "zipf exponent", s)?;
            let drift = parse_number(WHAT, "drift", d)?;
            if zipf_s < 0.0 {
                return Err(
                    param_err(WHAT, format!("zipf exponent must be >= 0, got '{zipf_s}'")).into(),
                );
            }
            if drift < 0.0 {
                return Err(param_err(WHAT, format!("drift must be >= 0, got '{drift}'")).into());
            }
            (zipf_s, drift)
        }
    };
    Ok(Arc::new(FlashGen { zipf_s, drift }))
}

fn build_diurnal(param: Option<&str>) -> Result<Arc<dyn ScenarioGen>, Error> {
    const WHAT: &str = "diurnal generator spec";
    let (period, amplitude) = match param {
        None => (24.0, 0.5),
        Some(raw) => {
            let (p, a) = raw.split_once('x').ok_or_else(|| {
                param_err(
                    WHAT,
                    format!(
                        "'{}' must be '<period>x<amplitude>' (e.g. 24x0.5)",
                        raw.trim()
                    ),
                )
            })?;
            let period = parse_number(WHAT, "period", p)?;
            let amplitude = parse_number(WHAT, "amplitude", a)?;
            if period <= 0.0 {
                return Err(param_err(WHAT, format!("period must be > 0, got '{period}'")).into());
            }
            if !(0.0..1.0).contains(&amplitude) {
                return Err(param_err(
                    WHAT,
                    format!("amplitude must be in [0, 1), got '{amplitude}'"),
                )
                .into());
            }
            (period, amplitude)
        }
    };
    Ok(Arc::new(DiurnalGen { period, amplitude }))
}

fn build_churn(param: Option<&str>) -> Result<Arc<dyn ScenarioGen>, Error> {
    const WHAT: &str = "churn generator spec";
    let (join, leave) = match param {
        None => (0.2, 0.05),
        Some(raw) => {
            let (j, l) = raw.split_once('/').ok_or_else(|| {
                param_err(
                    WHAT,
                    format!(
                        "'{}' must be '<join-rate>/<leave-rate>' (e.g. 0.2/0.05)",
                        raw.trim()
                    ),
                )
            })?;
            let join = parse_number(WHAT, "join rate", j)?;
            let leave = parse_number(WHAT, "leave rate", l)?;
            for (field, v) in [("join rate", join), ("leave rate", leave)] {
                if !(0.0..=1.0).contains(&v) {
                    return Err(
                        param_err(WHAT, format!("{field} must be in [0, 1], got '{v}'")).into(),
                    );
                }
            }
            (join, leave)
        }
    };
    Ok(Arc::new(ChurnGen { join, leave }))
}

fn build_faults(param: Option<&str>) -> Result<Arc<dyn ScenarioGen>, Error> {
    const WHAT: &str = "faults generator spec";
    let text = param.unwrap_or("svc=1.5");
    let spec = FaultSpec::parse(text).map_err(|detail| param_err(WHAT, detail))?;
    Ok(Arc::new(FaultsGen { spec }))
}

// ---------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------

/// One entry of the generator listing (`skp-plan --list`).
pub use skp_registry::Spec as GeneratorSpec;

/// Constructor signature of a registered generator: parses the spec
/// string's parameter part (the text after the first `:`, if any).
pub type GeneratorBuilder = fn(Option<&str>) -> Result<Arc<dyn ScenarioGen>, Error>;

static REGISTRY: Registry<GeneratorBuilder> = Registry::new(
    "generator",
    "workload generator spec",
    &[
        (
            GeneratorSpec {
                name: "flash",
                params: "zipf-s @ drift (0@0 = uniform baseline)",
                summary: "flash crowd: Zipf-skewed popularity around a drifting hot set",
            },
            build_flash,
        ),
        (
            GeneratorSpec {
                name: "diurnal",
                params: "period x amplitude (amplitude in [0,1))",
                summary: "sinusoidal arrival-rate modulation over a forward catalog cycle",
            },
            build_diurnal,
        ),
        (
            GeneratorSpec {
                name: "churn",
                params: "join-rate / leave-rate (both in [0,1])",
                summary: "sessions joining and leaving mid-run through a long-viewing lobby",
            },
            build_churn,
        ),
        (
            GeneratorSpec {
                name: "faults",
                params: "out=<shard>@<start>+<dur>; slow=<shard>x<factor>; svc=<spread>",
                summary: "uniform baseline chain + shard outages, slow links, service spread",
            },
            build_faults,
        ),
    ],
);

/// Registers a generator family under `name`: `build_generator("name")`
/// / `"name:<params>"` will call `build` with the parameter part, and
/// the entry appears in [`generator_specs`] and `skp-plan --list`.
///
/// Errors with [`Error::InvalidParam`] if the name is already taken.
pub fn register_generator(
    name: &'static str,
    params: &'static str,
    summary: &'static str,
    build: GeneratorBuilder,
) -> Result<(), Error> {
    let spec = GeneratorSpec {
        name,
        params,
        summary,
    };
    Ok(REGISTRY.register(spec, build)?)
}

/// Every registered generator, in registration order — derived from the
/// registry, so `skp-plan --list` and the spec parser can never drift.
pub fn generator_specs() -> Vec<GeneratorSpec> {
    REGISTRY.specs()
}

/// Names of every registered generator, in registration order.
pub fn generator_names() -> Vec<&'static str> {
    REGISTRY.names()
}

/// Builds a workload generator from a spec string: a registry name with
/// an optional `:params` suffix, e.g. `"flash:1.2@0.5"`,
/// `"diurnal:24x0.5"`, `"churn:0.2/0.05"`,
/// `"faults:out=1@40+20;svc=1.2"`.
pub fn build_generator(spec: &str) -> Result<Arc<dyn ScenarioGen>, Error> {
    let (build, param) = REGISTRY.lookup(spec)?;
    build(param)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_strings_are_fixed_points() {
        for spec in [
            "flash:1.2@0.5",
            "flash:0@0",
            "diurnal:24x0.5",
            "churn:0.2/0.05",
            "faults:out=1@40+20;slow=2x1.5;svc=1.2",
            "faults:svc=1.5",
        ] {
            let g = build_generator(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(g.spec_string(), spec);
            let again = build_generator(&g.spec_string()).unwrap();
            assert_eq!(again.spec_string(), g.spec_string());
        }
    }

    #[test]
    fn default_params_fill_in() {
        assert_eq!(
            build_generator("flash").unwrap().spec_string(),
            "flash:1.2@0.5"
        );
        assert_eq!(
            build_generator("diurnal").unwrap().spec_string(),
            "diurnal:24x0.5"
        );
        assert_eq!(
            build_generator("churn").unwrap().spec_string(),
            "churn:0.2/0.05"
        );
        assert_eq!(
            build_generator("faults").unwrap().spec_string(),
            "faults:svc=1.5"
        );
    }

    #[test]
    fn malformed_specs_name_the_bad_field() {
        let detail = |spec: &str| match build_generator(spec) {
            Err(Error::InvalidParam { detail, .. }) => detail,
            Err(other) => panic!("{spec}: expected InvalidParam, got {other:?}"),
            Ok(_) => panic!("{spec}: expected InvalidParam, got a generator"),
        };
        assert!(detail("flash:1.2").contains("'<zipf-s>@<drift>'"));
        assert!(detail("flash:hot@0").contains("zipf exponent 'hot'"));
        assert!(detail("flash:-1@0").contains("zipf exponent must be >= 0"));
        assert!(detail("flash:1@-2").contains("drift must be >= 0"));
        assert!(detail("diurnal:24").contains("'<period>x<amplitude>'"));
        assert!(detail("diurnal:0x0.5").contains("period must be > 0"));
        assert!(detail("diurnal:24x1.5").contains("amplitude must be in [0, 1)"));
        assert!(detail("churn:0.2").contains("'<join-rate>/<leave-rate>'"));
        assert!(detail("churn:2/0.1").contains("join rate must be in [0, 1]"));
        assert!(detail("churn:0.2/-1").contains("leave rate must be in [0, 1]"));
        assert!(detail("faults:").contains("clause"));
        assert!(detail("faults:out=1@x+2").contains("outage start"));
        assert!(detail("warp-crowd").contains("unknown generator 'warp-crowd'"));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let err = register_generator("flash", "", "dup", build_flash).expect_err("must fail");
        assert!(matches!(err, Error::InvalidParam { .. }));
    }

    #[test]
    fn flash_zero_is_the_uniform_chain() {
        let (chain, faults) = build_generator("flash:0@0").unwrap().build(8, 1).unwrap();
        assert!(faults.is_none());
        assert_eq!(chain.n_states(), 8);
        for s in 0..8 {
            for j in 0..8 {
                assert!((chain.transition_prob(s, j) - 0.125).abs() < 1e-12);
            }
            assert_eq!(chain.viewing(s), BASE_VIEWING);
        }
    }

    #[test]
    fn faults_chain_is_row_identical_to_the_uniform_baseline() {
        let (base, _) = build_generator("flash:0@0").unwrap().build(6, 1).unwrap();
        let (faulted, spec) = build_generator("faults:out=1@40+20")
            .unwrap()
            .build(6, 1)
            .unwrap();
        let spec = spec.expect("faults generator carries a FaultSpec");
        assert_eq!(spec.to_string(), "out=1@40+20");
        for s in 0..6 {
            assert_eq!(base.row_probs(s), faulted.row_probs(s));
            assert_eq!(base.viewing(s), faulted.viewing(s));
        }
    }

    #[test]
    fn flash_hot_set_is_skewed_and_drifts() {
        let (chain, _) = build_generator("flash:2@1").unwrap().build(10, 1).unwrap();
        // Skew: the centre outweighs the far side of the ring.
        assert!(chain.transition_prob(0, 0) > 4.0 * chain.transition_prob(0, 5));
        // Drift 1: state s's hot centre is item s.
        for s in 0..10 {
            let row = chain.row_probs(s);
            let hottest = (0..10).max_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap();
            assert_eq!(hottest, s, "state {s} hot centre drifted wrong");
        }
    }

    #[test]
    fn diurnal_viewing_swings_around_the_baseline() {
        let (chain, _) = build_generator("diurnal:8x0.5")
            .unwrap()
            .build(16, 1)
            .unwrap();
        let viewings: Vec<f64> = (0..16).map(|s| chain.viewing(s)).collect();
        let min = viewings.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = viewings.iter().cloned().fold(0.0, f64::max);
        assert!(min > 0.0 && min < BASE_VIEWING, "trough {min}");
        assert!(max > BASE_VIEWING, "crest {max}");
        // Forward cycle: each state moves to the next with certainty.
        assert_eq!(chain.transition_prob(3, 4), 1.0);
        assert_eq!(chain.transition_prob(15, 0), 1.0);
    }

    #[test]
    fn churn_lobby_parks_and_releases_sessions() {
        let (chain, _) = build_generator("churn:0.2/0.05")
            .unwrap()
            .build(5, 1)
            .unwrap();
        assert_eq!(chain.viewing(0), LOBBY_VIEWING);
        assert_eq!(chain.viewing(1), BASE_VIEWING);
        // Lobby: stay with 0.8, join each of 4 active states with 0.05.
        assert!((chain.transition_prob(0, 0) - 0.8).abs() < 1e-12);
        assert!((chain.transition_prob(0, 3) - 0.05).abs() < 1e-12);
        // Active: leave with 0.05, browse each active state with 0.2375.
        assert!((chain.transition_prob(2, 0) - 0.05).abs() < 1e-12);
        assert!((chain.transition_prob(2, 4) - 0.95 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_catalogs_are_rejected_with_a_named_error() {
        for spec in ["flash", "diurnal", "churn", "faults"] {
            let err = build_generator(spec).unwrap().build(1, 1).expect_err(spec);
            match err {
                Error::InvalidParam { detail, .. } => {
                    assert!(detail.contains("at least 2 items"), "{spec}: {detail}")
                }
                other => panic!("{spec}: {other:?}"),
            }
        }
    }
}
