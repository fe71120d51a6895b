//! The string-keyed plan-store registry: spec strings to store
//! instances, on the workspace's one [`Registry`] — builtin tiers plus
//! runtime registration.

use std::sync::Arc;

use skp_registry::{
    no_params, param_err, parse_topology, reject_trailing, split_spec, Registry, Spec,
};

use crate::file::FileStore;
use crate::tiers::{MemoryStore, NoneStore, TieredStore};
use crate::{PlanStore, StoreError};

/// Default topology of a bare `memory` spec.
const MEMORY_DEFAULT_SHARDS: usize = 8;
const MEMORY_DEFAULT_CAP: usize = 1024;

/// Describes one registered plan-store kind for listings (`skp-plan
/// --list`, `GET /registry`).
pub use skp_registry::Spec as PlanStoreSpec;

/// Builds a store from the spec's parameter part (the text after the
/// first `:`, absent for a bare name).
pub type PlanStoreBuilder = fn(Option<&str>) -> Result<Arc<dyn PlanStore>, StoreError>;

fn build_none(param: Option<&str>) -> Result<Arc<dyn PlanStore>, StoreError> {
    no_params("none plan-store spec", param)?;
    Ok(Arc::new(NoneStore))
}

fn build_memory(param: Option<&str>) -> Result<Arc<dyn PlanStore>, StoreError> {
    const WHAT: &str = "memory plan-store spec";
    let (shards, cap) = match param {
        None => (MEMORY_DEFAULT_SHARDS, MEMORY_DEFAULT_CAP),
        Some(raw) => {
            let mut parts = raw.split(':');
            let topology = parse_topology(
                WHAT,
                parts.next().unwrap_or_default(),
                "<shards>x<cap>",
                "8x1024",
                ["shards", "cap"],
            )?;
            reject_trailing(WHAT, "topology", parts)?;
            topology
        }
    };
    Ok(Arc::new(MemoryStore::new(shards, cap)))
}

fn build_file(param: Option<&str>) -> Result<Arc<dyn PlanStore>, StoreError> {
    // The whole parameter is the directory (paths may contain ':'), so
    // there is no trailing-junk check to apply here.
    match param.map(str::trim) {
        None | Some("") => Err(param_err(
            "file plan-store spec",
            "needs a directory, e.g. 'file:.skp-plans'",
        )),
        Some(dir) => Ok(Arc::new(FileStore::new(dir))),
    }
}

fn build_tiered(param: Option<&str>) -> Result<Arc<dyn PlanStore>, StoreError> {
    const WHAT: &str = "tiered plan-store spec";
    let raw = match param.map(str::trim) {
        None | Some("") => {
            return Err(param_err(
                WHAT,
                "needs a comma-separated tier chain, e.g. 'tiered:memory:1x64,file:.skp-plans'",
            ))
        }
        Some(raw) => raw,
    };
    let mut tiers = Vec::new();
    for spec in raw.split(',') {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(param_err(WHAT, format!("empty tier in the chain '{raw}'")));
        }
        if split_spec(spec).0 == "tiered" {
            return Err(param_err(
                WHAT,
                "tiers cannot nest: flatten the chain instead",
            ));
        }
        tiers.push(build_plan_store(spec)?);
    }
    Ok(Arc::new(TieredStore::new(tiers)))
}

static REGISTRY: Registry<PlanStoreBuilder> = Registry::new(
    "plan store",
    "plan store spec",
    &[
        (
            Spec {
                name: "none",
                params: "",
                summary: "null store: never hits, never retains (opts a session out of plan reuse)",
            },
            build_none,
        ),
        (
            Spec {
                name: "memory",
                params: ":SxC",
                summary: "sharded lock-striped LRU, S stripes of C entries (default 8x1024)",
            },
            build_memory,
        ),
        (
            Spec {
                name: "file",
                params: ":dir",
                summary: "persistent one-file-per-key store; plans survive restarts bit-exactly",
            },
            build_file,
        ),
        (
            Spec {
                name: "tiered",
                params: ":spec,spec,..",
                summary: "read-through/write-back chain with promotion on hit (hottest first)",
            },
            build_tiered,
        ),
    ],
);

/// Registers a plan-store kind under a new name, making it reachable
/// from every spec-string surface (`SessionBuilder::plan_store`, the
/// `plan-store` workload directive, `skp-plan run --plan-store`,
/// `skp-serve --plan-store`). Errors if the name is taken.
pub fn register_plan_store(
    name: &'static str,
    params: &'static str,
    summary: &'static str,
    build: PlanStoreBuilder,
) -> Result<(), StoreError> {
    REGISTRY.register(
        Spec {
            name,
            params,
            summary,
        },
        build,
    )
}

/// The registered plan-store kinds, in registration order.
pub fn plan_store_specs() -> Vec<PlanStoreSpec> {
    REGISTRY.specs()
}

/// The registered plan-store names, in registration order.
pub fn plan_store_names() -> Vec<&'static str> {
    REGISTRY.names()
}

/// Builds a store from a spec string (`name` or `name:params`) through
/// the registry.
pub fn build_plan_store(spec: &str) -> Result<Arc<dyn PlanStore>, StoreError> {
    let (build, param) = REGISTRY.lookup(spec)?;
    build(param)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(spec: &str) -> String {
        build_plan_store(spec).err().expect("must fail").to_string()
    }

    #[test]
    fn builtin_specs_build_and_round_trip() {
        for (spec, canonical) in [
            ("none", "none"),
            ("memory", "memory:8x1024"),
            ("memory:2x64", "memory:2x64"),
            ("file:/tmp/skp-plans", "file:/tmp/skp-plans"),
            (
                "tiered:memory:1x8,memory:2x64",
                "tiered:memory:1x8,memory:2x64",
            ),
        ] {
            let store = build_plan_store(spec).expect(spec);
            assert_eq!(store.spec_string(), canonical, "spec {spec}");
            // The canonical string is a fixed point of the registry.
            let again = build_plan_store(&store.spec_string()).expect(canonical);
            assert_eq!(again.spec_string(), canonical);
        }
    }

    #[test]
    fn unknown_store_lists_the_known_names() {
        let msg = err("quantum:9");
        assert!(msg.contains("unknown plan store 'quantum'"), "{msg}");
        for name in ["none", "memory", "file", "tiered"] {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }

    #[test]
    fn zero_capacities_are_rejected() {
        let msg = err("memory:0x5");
        assert!(msg.contains("shards must be at least 1, got '0'"), "{msg}");
        let msg = err("memory:4x0");
        assert!(msg.contains("cap must be at least 1, got '0'"), "{msg}");
    }

    #[test]
    fn non_numeric_fields_are_rejected() {
        let msg = err("memory:manyx8");
        assert!(msg.contains("'many' is not a positive integer"), "{msg}");
        let msg = err("memory:8xbig");
        assert!(msg.contains("'big' is not a positive integer"), "{msg}");
    }

    #[test]
    fn malformed_topologies_are_rejected() {
        let msg = err("memory:8");
        assert!(msg.contains("must be '<shards>x<cap>'"), "{msg}");
        let msg = err("memory:");
        assert!(msg.contains("must be '<shards>x<cap>'"), "{msg}");
    }

    #[test]
    fn trailing_junk_is_rejected() {
        let msg = err("memory:2x4:junk");
        assert!(msg.contains("trailing ':junk' after the topology"), "{msg}");
        let msg = err("none:x");
        assert!(msg.contains("takes no parameters, got ':x'"), "{msg}");
    }

    #[test]
    fn file_and_tiered_require_parameters() {
        assert!(err("file").contains("needs a directory"));
        assert!(err("file:").contains("needs a directory"));
        assert!(err("tiered").contains("needs a comma-separated tier chain"));
        assert!(err("tiered:").contains("needs a comma-separated tier chain"));
    }

    #[test]
    fn tiered_chains_reject_bad_links() {
        assert!(err("tiered:memory:1x8,,memory:2x4").contains("empty tier"));
        // The nest check reads a link's name by the registry's own rule,
        // so a padded `tiered ` link is refused too.
        for spec in [
            "tiered:memory:1x8,tiered:memory:2x4",
            "tiered:memory:1x4, tiered :memory:1x4",
        ] {
            assert!(err(spec).contains("cannot nest"), "{spec}");
        }
        // Errors inside a link surface with the link's own shape.
        assert!(err("tiered:memory:1x0").contains("cap must be at least 1"));
        assert!(err("tiered:warp").contains("unknown plan store 'warp'"));
    }

    #[test]
    fn every_error_points_at_the_listing() {
        for spec in ["memory:0x1", "memory:3", "none:x", "file", "tiered:"] {
            assert!(
                err(spec).contains("see `skp-plan --list`"),
                "{spec} error lacks the listing pointer"
            );
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let e = register_plan_store("memory", "", "dup", build_memory).expect_err("must fail");
        assert!(e.to_string().contains("already registered"));
        fn build_probe(_: Option<&str>) -> Result<Arc<dyn PlanStore>, StoreError> {
            Ok(Arc::new(NoneStore))
        }
        register_plan_store("probe-store", "", "test-only", build_probe).expect("fresh name");
        assert!(plan_store_names().contains(&"probe-store"));
        assert_eq!(build_plan_store("probe-store").unwrap().name(), "none");
    }
}
