//! The string-keyed prefetch-policy registry.
//!
//! Every policy in the workspace — the paper's four strategies, the
//! corrected/oracle solver variants, the pseudo-polynomial global DP
//! and the Section-6 extensions — is registered here under a stable
//! name and constructible from a spec string (`"skp-exact"`,
//! `"network-aware:0.4"`). The CLI's `--solver` flag, the
//! [`SessionBuilder`](crate::engine::SessionBuilder) and experiment
//! sweeps all resolve policies through this table, so adding a policy
//! means adding one entry, not editing every consumer.

use skp_core::ext::{NetworkAwarePolicy, StretchPenalisedPolicy, TwoStepPolicy};
use skp_core::policy::{PolicyKind, Prefetcher};
use skp_core::skp::solve_global;
use skp_core::{PrefetchPlan, Scenario};
use skp_registry::{split_spec, Registry, Spec};

use crate::error::Error;

/// A policy's listing row (`params` empty when it takes no `:param`).
pub use skp_registry::Spec as PolicySpec;

/// Constructor of a registered policy, given its `:param` value.
type PolicyBuilder = fn(Option<f64>) -> Result<Box<dyn Prefetcher>, Error>;

/// The global DP packaged as a policy: exact on integral instances,
/// falling back to the canonical branch-and-bound otherwise (the DP
/// needs integer retrievals and viewing).
struct GlobalDpPolicy;

impl Prefetcher for GlobalDpPolicy {
    fn name(&self) -> &str {
        "SKP global DP"
    }

    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan {
        let all = candidates.iter().all(|&c| c);
        if all {
            if let Some(sol) = solve_global(s) {
                return sol.plan;
            }
        }
        // Candidate-restricted or non-integral: canonical exact solver.
        PolicyKind::SkpExact.plan_candidates(s, candidates)
    }
}

/// Two-step lookahead under a *persistence* forecast: the next round is
/// assumed to look like this one. [`TwoStepPolicy`] itself wants a
/// caller-supplied forecast closure; this wrapper is the sensible
/// registry default when no forecast model is wired in.
struct PersistentTwoStep {
    discount: f64,
}

impl Prefetcher for PersistentTwoStep {
    fn name(&self) -> &str {
        "SKP two-step (persistence)"
    }

    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan {
        let forecast = |_alpha: usize| s.clone();
        let mut two = TwoStepPolicy::new(forecast);
        two.discount = self.discount;
        two.plan_candidates(s, candidates)
    }
}

/// A finite, non-negative policy parameter; `expected` names it in errors.
fn non_negative(what: &'static str, expected: &str, value: f64) -> Result<f64, Error> {
    if !value.is_finite() || value < 0.0 {
        return Err(Error::InvalidParam {
            what,
            detail: format!("expected a non-negative {expected}, got {value}"),
        });
    }
    Ok(value)
}

static POLICIES: Registry<PolicyBuilder> = Registry::new(
    "policy",
    "policy spec",
    &[
        (
            PolicySpec {
                name: "no-prefetch",
                params: "",
                summary: "never prefetch; every access is a demand fetch",
            },
            |_| Ok(Box::new(PolicyKind::NoPrefetch)),
        ),
        (
            PolicySpec {
                name: "kp",
                params: "",
                summary: "0/1-knapsack selection that never stretches (paper's KP prefetch)",
            },
            |_| Ok(Box::new(PolicyKind::Kp)),
        ),
        (
            PolicySpec {
                name: "kp-greedy",
                params: "",
                summary: "greedy density-order knapsack heuristic",
            },
            |_| Ok(Box::new(PolicyKind::KpGreedy)),
        ),
        (
            PolicySpec {
                name: "skp-paper",
                params: "",
                summary: "the paper's Figure-3 SKP branch-and-bound, verbatim bookkeeping",
            },
            |_| Ok(Box::new(PolicyKind::SkpPaper)),
        ),
        (
            PolicySpec {
                name: "skp-exact",
                params: "",
                summary: "canonical-space SKP with corrected Theorem-3 bookkeeping",
            },
            |_| Ok(Box::new(PolicyKind::SkpExact)),
        ),
        (
            PolicySpec {
                name: "skp-global",
                params: "",
                summary: "pseudo-polynomial global DP on integral instances \
                          (falls back to skp-exact otherwise)",
            },
            |_| Ok(Box::new(GlobalDpPolicy)),
        ),
        (
            PolicySpec {
                name: "skp-optimal",
                params: "",
                summary: "exhaustive SKP optimum — ground truth for small n",
            },
            |_| Ok(Box::new(PolicyKind::SkpOptimal)),
        ),
        (
            PolicySpec {
                name: "perfect",
                params: "",
                summary: "oracle that prefetches exactly the realised request",
            },
            |_| Ok(Box::new(PolicyKind::Perfect)),
        ),
        (
            PolicySpec {
                name: "stretch-penalised",
                params: "shadow price lambda (default 0.5)",
                summary: "SKP with stretch intrusion priced at a shadow price lambda",
            },
            |lambda| {
                let lambda = non_negative(
                    "stretch-penalised lambda",
                    "shadow price",
                    lambda.unwrap_or(0.5),
                )?;
                Ok(Box::new(StretchPenalisedPolicy::new(lambda)))
            },
        ),
        (
            PolicySpec {
                name: "network-aware",
                params: "usage price mu (default 0.4)",
                summary: "SKP taxing expected wasted retrieval at price mu",
            },
            |mu| {
                let mu = non_negative("network-aware mu", "usage price", mu.unwrap_or(0.4))?;
                Ok(Box::new(NetworkAwarePolicy::new(mu)))
            },
        ),
        (
            PolicySpec {
                name: "two-step",
                params: "discount gamma on the next round's value (default 1)",
                summary: "two-step lookahead over a persistence forecast of the next round",
            },
            |gamma| {
                let discount = non_negative("two-step discount", "discount", gamma.unwrap_or(1.0))?;
                Ok(Box::new(PersistentTwoStep { discount }))
            },
        ),
    ],
);

/// `(alias, name)` shorthands for registered policies (`paper`, …).
const ALIASES: [(&str, &str); 10] = [
    ("none", "no-prefetch"),
    ("greedy", "kp-greedy"),
    ("paper", "skp-paper"),
    ("exact", "skp-exact"),
    ("global", "skp-global"),
    ("optimal", "skp-optimal"),
    ("oracle", "perfect"),
    ("lookahead", "stretch-penalised"),
    ("netaware", "network-aware"),
    ("twostep", "two-step"),
];

/// Every registered policy, in stable order.
pub fn policy_specs() -> Vec<PolicySpec> {
    POLICIES.specs()
}

/// Names of every registered policy, in registry order.
pub fn policy_names() -> Vec<&'static str> {
    POLICIES.names()
}

/// The aliases of the policy registered as `name`, in table order.
pub fn policy_aliases(name: &str) -> Vec<&'static str> {
    ALIASES
        .iter()
        .filter(|&&(_, target)| target == name)
        .map(|&(alias, _)| alias)
        .collect()
}

/// Builds a policy from a spec string: a registry name or alias with an
/// optional `:param` suffix, e.g. `"skp-exact"`, `"paper"`,
/// `"network-aware:0.25"`.
pub fn build_policy(spec: &str) -> Result<Box<dyn Prefetcher>, Error> {
    let (name, param) = split_spec(spec);
    let name = ALIASES
        .iter()
        .find(|&&(alias, _)| alias == name)
        .map_or(name, |&(_, target)| target);
    match POLICIES.entry(name) {
        Some((row, build)) => build(numeric_param("policy parameter", row, param)?),
        None => Err(Error::UnknownPolicy {
            name: name.to_string(),
            known: policy_names(),
        }),
    }
}

/// The `:param` of a policy or predictor spec as a number (trimmed);
/// refused when the entry's `params` is empty, `what` names a non-number.
pub(crate) fn numeric_param(
    what: &'static str,
    row: Spec,
    param: Option<&str>,
) -> Result<Option<f64>, Error> {
    match param {
        None => Ok(None),
        Some(_) if row.params.is_empty() => Err(Error::InvalidParam {
            what: row.name,
            detail: "takes no parameter".into(),
        }),
        Some(raw) => match raw.trim().parse() {
            Ok(value) => Ok(Some(value)),
            Err(_) => Err(Error::InvalidParam {
                what,
                detail: format!("'{raw}' is not a number"),
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skp_core::gain::gain_empty_cache;

    fn scenario() -> Scenario {
        Scenario::new(
            vec![0.3, 0.25, 0.2, 0.15, 0.1],
            vec![7.0, 4.0, 12.0, 2.0, 9.0],
            11.0,
        )
        .unwrap()
    }

    #[test]
    fn registry_has_at_least_six_policies() {
        assert!(policy_names().len() >= 6, "{:?}", policy_names());
    }

    #[test]
    fn every_policy_and_alias_builds_and_plans() {
        let s = scenario();
        for spec in policy_specs() {
            for name in std::iter::once(spec.name).chain(policy_aliases(spec.name)) {
                let p = build_policy(name).unwrap_or_else(|e| panic!("{name}: {e}"));
                let plan = p.plan(&s);
                assert!(
                    gain_empty_cache(&s, plan.items()).is_finite(),
                    "{name} produced a non-finite gain"
                );
            }
        }
    }

    #[test]
    fn global_dp_matches_optimal_on_integral_instances() {
        let s = scenario();
        let g_global = gain_empty_cache(&s, build_policy("skp-global").unwrap().plan(&s).items());
        let g_opt = gain_empty_cache(&s, build_policy("skp-optimal").unwrap().plan(&s).items());
        assert!((g_global - g_opt).abs() < 1e-9);
    }

    #[test]
    fn parameters_change_behaviour() {
        // A prohibitive network price suppresses all prefetching.
        let s = scenario();
        let cheap = build_policy("network-aware:0.0").unwrap().plan(&s);
        let dear = build_policy("network-aware:1e9").unwrap().plan(&s);
        assert!(dear.is_empty(), "mu = 1e9 must suppress prefetching");
        assert!(!cheap.is_empty(), "mu = 0 reduces to plain SKP");
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(matches!(
            build_policy("magic"),
            Err(Error::UnknownPolicy { .. })
        ));
        assert!(build_policy("kp:1").is_err());
        assert!(build_policy("network-aware:-2").is_err());
        assert!(build_policy("stretch-penalised:abc").is_err());
    }

    #[test]
    fn every_alias_names_a_registered_policy() {
        for (alias, name) in ALIASES {
            assert!(policy_names().contains(&name), "{alias} -> {name}");
        }
    }

    #[test]
    fn names_and_aliases_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for spec in policy_specs() {
            assert!(seen.insert(spec.name), "duplicate {}", spec.name);
            for a in policy_aliases(spec.name) {
                assert!(seen.insert(a), "duplicate alias {a}");
            }
        }
    }
}
