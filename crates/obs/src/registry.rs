//! The string-keyed obs-sink registry: spec strings to [`Obs`]
//! switch states, on the workspace's one [`Registry`]. Observability
//! is one on/off switch, so the two builtin sinks are the whole set.

use skp_registry::{no_params, Registry, Spec};

use crate::{Obs, ObsError};

/// Describes one registered obs-sink kind for listings (`skp-plan
/// --list`, `GET /registry`).
pub use skp_registry::Spec as ObsSpec;

/// Builds an [`Obs`] switch from the spec's parameter part (the text
/// after the first `:`, absent for a bare name).
pub type ObsBuilder = fn(Option<&str>) -> Result<Obs, ObsError>;

fn build_none(param: Option<&str>) -> Result<Obs, ObsError> {
    no_params("none obs spec", param)?;
    Ok(Obs::off())
}

fn build_memory(param: Option<&str>) -> Result<Obs, ObsError> {
    no_params("memory obs spec", param)?;
    Ok(Obs::on())
}

static REGISTRY: Registry<ObsBuilder> = Registry::new(
    "obs sink",
    "obs spec",
    &[
        (
            Spec {
                name: "none",
                params: "",
                summary: "observability off: no clock reads, no scheduler probe (the default)",
            },
            build_none,
        ),
        (
            Spec {
                name: "memory",
                params: "",
                summary: "observability on: phase spans, epoch marks and fault windows per run",
            },
            build_memory,
        ),
    ],
);

/// The registered obs-sink kinds, in registration order.
pub fn obs_sink_specs() -> Vec<ObsSpec> {
    REGISTRY.specs()
}

/// The registered obs-sink names, in registration order.
pub fn obs_sink_names() -> Vec<&'static str> {
    REGISTRY.names()
}

/// Builds an [`Obs`] switch from a spec string (`name` or
/// `name:params`) through the registry.
pub fn build_obs(spec: &str) -> Result<Obs, ObsError> {
    let (build, param) = REGISTRY.lookup(spec)?;
    build(param)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(spec: &str) -> String {
        build_obs(spec).expect_err("must fail").to_string()
    }

    #[test]
    fn builtin_specs_build_and_round_trip() {
        for (spec, canonical) in [("none", "none"), ("memory", "memory")] {
            let obs = build_obs(spec).expect(spec);
            assert_eq!(obs.spec_string(), canonical, "spec {spec}");
            // The canonical string is a fixed point of the registry.
            let again = build_obs(&obs.spec_string()).expect(canonical);
            assert_eq!(again.spec_string(), canonical);
        }
    }

    #[test]
    fn none_is_detached_and_memory_is_attached() {
        assert!(!build_obs("none").unwrap().enabled());
        assert!(build_obs("memory").unwrap().enabled());
    }

    #[test]
    fn unknown_sink_lists_the_known_names() {
        let msg = err("statsd:9");
        assert!(msg.contains("unknown obs sink 'statsd'"), "{msg}");
        for name in ["none", "memory"] {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }

    #[test]
    fn trailing_junk_is_rejected() {
        let msg = err("none:x");
        assert!(msg.contains("takes no parameters, got ':x'"), "{msg}");
        let msg = err("memory:4");
        assert!(msg.contains("takes no parameters, got ':4'"), "{msg}");
    }

    #[test]
    fn every_error_points_at_the_listing() {
        for spec in ["none:x", "memory:8"] {
            assert!(
                err(spec).contains("see `skp-plan --list`"),
                "{spec} error lacks the listing pointer"
            );
        }
    }
}
