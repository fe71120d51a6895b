//! Property tests for the scenario-file format: parse/render roundtrips
//! and robustness against arbitrary text — for the plain scenario core
//! and for full workload files over every `Workload` variant.

use proptest::prelude::*;
use speculative_prefetch::scenario_file::{
    parse, parse_workload, render, render_workload, ChainSpec, WorkloadKind,
};
use speculative_prefetch::{Placement, ProbMethod, ShardMap};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// render ∘ parse is the identity on well-formed scenarios.
    #[test]
    fn roundtrip(
        weights in proptest::collection::vec(1u32..1000, 1..12),
        retrievals in proptest::collection::vec(1u32..100, 12),
        viewing in 0u32..200,
    ) {
        let n = weights.len();
        let sum: f64 = weights.iter().map(|&w| w as f64).sum();
        let mut text = format!("v {viewing}\n");
        for i in 0..n {
            text.push_str(&format!(
                "item {} {} it{}\n",
                weights[i] as f64 / sum,
                retrievals[i],
                i
            ));
        }
        let parsed = parse(&text).expect("well-formed");
        prop_assert_eq!(parsed.scenario.n(), n);
        let rendered = render(&parsed.scenario, &parsed.labels);
        let again = parse(&rendered).expect("render emits valid files");
        prop_assert_eq!(&again.scenario, &parsed.scenario);
        prop_assert_eq!(&again.labels, &parsed.labels);
    }

    /// parse ∘ Display is the identity: a parsed file printed with the
    /// `Display` impl parses back to an equal file.
    #[test]
    fn display_roundtrip(
        weights in proptest::collection::vec(1u32..1000, 1..12),
        retrievals in proptest::collection::vec(1u32..100, 12),
        viewing in 0u32..200,
    ) {
        let n = weights.len();
        let sum: f64 = weights.iter().map(|&w| w as f64).sum();
        let mut text = format!("v {viewing}\n");
        for i in 0..n {
            text.push_str(&format!(
                "item {} {} page-{}\n",
                weights[i] as f64 / sum,
                retrievals[i],
                i
            ));
        }
        let parsed = parse(&text).expect("well-formed");
        let again = parse(&parsed.to_string()).expect("Display emits valid files");
        prop_assert_eq!(&again, &parsed);
    }

    /// Arbitrary junk never panics — it parses or returns an error.
    #[test]
    fn junk_never_panics(text in ".{0,300}") {
        let _ = parse(&text);
    }

    /// Line-oriented junk built from plausible tokens never panics either
    /// (this exercises the token paths much harder than raw junk).
    #[test]
    fn token_soup_never_panics(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("v".to_string()),
                Just("item".to_string()),
                Just("#".to_string()),
                Just("\n".to_string()),
                Just("0.5".to_string()),
                Just("-3".to_string()),
                Just("nan".to_string()),
                Just("label".to_string()),
            ],
            0..40,
        )
    ) {
        let text = tokens.join(" ");
        let _ = parse(&text);
    }

    /// Workload-file parse ∘ render is the identity over every
    /// `Workload` variant, with randomly present engine directives.
    #[test]
    fn workload_roundtrip(
        weights in proptest::collection::vec(1u32..1000, 2..10),
        retrievals in proptest::collection::vec(1u32..100, 10),
        viewing in 0u32..200,
        kind_pick in 0usize..5,
        traced in proptest::bool::ANY,
        backend_pick in 0usize..6,
        policy_pick in 0usize..3,
        predictor_present in proptest::bool::ANY,
        cache_pick in 0usize..33,
        requests_pick in 0u64..5000,
        seed_present in proptest::bool::ANY,
        seed_val in 0u64..1_000_000,
        iterations_pick in 0u64..100_000,
        method_pick in 0usize..5,
        chain_seed in 0u64..10_000,
        generate_pick in 0usize..4,
        accesses in proptest::collection::vec((0usize..10, 0u32..50), 0..20),
    ) {
        let kind = [
            WorkloadKind::Plan,
            WorkloadKind::Trace,
            WorkloadKind::MonteCarlo,
            WorkloadKind::Sharded,
            WorkloadKind::Generated,
        ][kind_pick];
        // Index 0 of each pick means "directive absent".
        let backend = [
            None,
            Some("single-client".to_string()),
            Some("multi-client:6".to_string()),
            Some("sharded:4x8:hot-cold@3".to_string()),
            Some("monte-carlo:8x0".to_string()),
            Some("sharded:2x8:range".to_string()),
        ][backend_pick]
            .clone();
        let policy = [
            None,
            Some("skp-exact".to_string()),
            Some("network-aware:0.4".to_string()),
        ][policy_pick]
            .clone();
        let predictor = predictor_present.then(|| "ngram:2".to_string());
        let cache = (cache_pick > 0).then_some(cache_pick);
        let requests = (requests_pick > 0).then_some(requests_pick);
        let seed = seed_present.then_some(seed_val);
        let iterations = (iterations_pick > 0).then_some(iterations_pick);
        let n = weights.len();
        let sum: f64 = weights.iter().map(|&w| w as f64).sum();
        let mut text = format!("workload {}\n", kind.name());
        if traced {
            text.push_str("traced\n");
        }
        for (directive, value) in [
            ("backend", &backend),
            ("policy", &policy),
            ("predictor", &predictor),
        ] {
            if let Some(v) = value {
                text.push_str(&format!("{directive} {v}\n"));
            }
        }
        for (directive, value) in [
            ("cache", cache.map(|c| c as u64)),
            ("requests", requests),
            ("seed", seed),
            ("iterations", iterations),
        ] {
            if let Some(v) = value {
                text.push_str(&format!("{directive} {v}\n"));
            }
        }
        let method = (method_pick > 0).then(|| [
            ProbMethod::skewy(),
            ProbMethod::Flat,
            ProbMethod::Zipf { s: 1.5 },
            ProbMethod::Dirichlet { alpha: 0.5 },
        ][method_pick - 1]);
        match method {
            Some(ProbMethod::Skewy { exponent }) => {
                text.push_str(&format!("mc-method skewy:{exponent}\n"));
            }
            Some(ProbMethod::Flat) => text.push_str("mc-method flat\n"),
            Some(ProbMethod::Zipf { s }) => text.push_str(&format!("mc-method zipf:{s}\n")),
            Some(ProbMethod::Dirichlet { alpha }) => {
                text.push_str(&format!("mc-method dirichlet:{alpha}\n"));
            }
            None => {}
        }
        let chain = if kind == WorkloadKind::Sharded {
            let spec = ChainSpec {
                states: n.max(2),
                min_fanout: 1,
                max_fanout: n.max(2) - 1,
                v_min: 1,
                v_max: 9,
                seed: chain_seed,
            };
            text.push_str(&format!(
                "chain {} {} {} {} {} {}\n",
                spec.states, spec.min_fanout, spec.max_fanout, spec.v_min, spec.v_max, spec.seed
            ));
            Some(spec)
        } else {
            None
        };
        let generate = matches!(kind, WorkloadKind::Generated).then(|| {
            [
                "flash:1.2@0.5",
                "diurnal:8x0.9",
                "churn:0.3/0.1",
                "faults:out=0@10+30;slow=1x2.5;svc=1.5",
            ][generate_pick]
                .to_string()
        });
        if let Some(spec) = &generate {
            text.push_str(&format!("generate {spec}\n"));
        }
        text.push_str(&format!("v {viewing}\n"));
        for i in 0..n {
            text.push_str(&format!(
                "item {} {} it{}\n",
                weights[i] as f64 / sum,
                retrievals[i],
                i
            ));
        }
        for (item, view) in &accesses {
            text.push_str(&format!("access {item} {view}\n"));
        }

        let parsed = parse_workload(&text).expect("well-formed workload file");
        prop_assert_eq!(parsed.kind, kind);
        prop_assert_eq!(parsed.traced, traced);
        prop_assert_eq!(&parsed.backend, &backend);
        prop_assert_eq!(&parsed.policy, &policy);
        prop_assert_eq!(&parsed.predictor, &predictor);
        prop_assert_eq!(parsed.cache, cache);
        prop_assert_eq!(parsed.requests, requests);
        prop_assert_eq!(parsed.seed, seed);
        prop_assert_eq!(parsed.iterations, iterations);
        prop_assert_eq!(parsed.method, method);
        prop_assert_eq!(parsed.chain, chain);
        prop_assert_eq!(&parsed.generate, &generate);
        prop_assert_eq!(parsed.accesses.len(), accesses.len());
        prop_assert_eq!(parsed.scenario.n(), n);

        // parse ∘ render is the identity on the parsed value (both the
        // free function and the Display impl).
        let rendered = render_workload(&parsed);
        let again = parse_workload(&rendered).expect("render emits valid workload files");
        prop_assert_eq!(&again, &parsed);
        let display = parse_workload(&parsed.to_string()).expect("Display emits valid files");
        prop_assert_eq!(&display, &parsed);
    }

    /// `Placement` parse ∘ Display is the identity for every strategy,
    /// including arbitrary hot-cold thresholds, and a single-shard map
    /// collapses every item onto shard 0 whatever the placement — so
    /// any spec string names a well-defined catalog partition.
    #[test]
    fn placement_roundtrips_and_single_shard_collapses(
        hot_items in 0usize..1_000_000,
        n_items in 1usize..200,
        pick in 0usize..3,
    ) {
        let placement = [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items },
        ][pick];
        let text = placement.to_string();
        prop_assert_eq!(Placement::parse(&text), Some(placement), "{}", text);
        // Whitespace-tolerant, like every other spec field.
        prop_assert_eq!(Placement::parse(&format!("  {text} ")), Some(placement));
        // One shard: the map is total and constant regardless of the
        // strategy (hot-cold thresholds beyond the catalog included).
        let map = ShardMap::new(1, n_items, placement);
        for item in 0..n_items {
            prop_assert_eq!(map.shard_of(item), 0);
        }
    }

    /// Workload-directive token soup never panics: it parses or errors.
    #[test]
    fn workload_token_soup_never_panics(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("v".to_string()),
                Just("item".to_string()),
                Just("workload".to_string()),
                Just("traced".to_string()),
                Just("backend".to_string()),
                Just("chain".to_string()),
                Just("generate".to_string()),
                Just("access".to_string()),
                Just("mc-method".to_string()),
                Just("sharded".to_string()),
                Just("\n".to_string()),
                Just("0.5".to_string()),
                Just("7".to_string()),
                Just("nan".to_string()),
            ],
            0..40,
        )
    ) {
        let text = tokens.join(" ");
        let _ = parse_workload(&text);
    }
}

/// The single-shard collapse is explicit, not accidental: with one
/// shard the partition is trivial, and every placement — `range` and
/// the `hot-cold` boundary thresholds included — maps item for item
/// exactly like `hash`.
#[test]
fn trivial_partition_matches_hash_for_every_placement() {
    let n = 40;
    let hash = ShardMap::new(1, n, Placement::Hash);
    for placement in [
        Placement::Range,
        Placement::HotCold { hot_items: 0 },
        Placement::HotCold { hot_items: 1 },
        Placement::HotCold { hot_items: n },
        Placement::HotCold {
            hot_items: usize::MAX,
        },
    ] {
        let map = ShardMap::new(1, n, placement);
        for item in 0..n {
            assert_eq!(
                map.shard_of(item),
                hash.shard_of(item),
                "{placement}: item {item} diverged from hash on the trivial partition"
            );
        }
    }
}

/// Hot-cold boundary values: the threshold is free-standing data — `@0`
/// (everything cold), a threshold equal to or beyond the catalog
/// (everything hot), and `usize::MAX` all parse, round-trip and map
/// totally; overflowing or malformed thresholds are rejected rather
/// than wrapped.
#[test]
fn hot_cold_boundary_values() {
    for hot_items in [0usize, 1, 39, 40, 41, usize::MAX] {
        let placement = Placement::HotCold { hot_items };
        let text = placement.to_string();
        assert_eq!(Placement::parse(&text), Some(placement), "{text}");
        let map = ShardMap::new(4, 40, placement);
        for item in 0..40 {
            let shard = map.shard_of(item);
            assert!(shard < 4, "{text}: item {item} -> shard {shard}");
            if item < hot_items {
                assert_eq!(shard, 0, "{text}: hot item {item} left shard 0");
            } else {
                assert!(shard >= 1, "{text}: cold item {item} on the hot shard");
            }
        }
    }
    // Beyond-usize thresholds must fail to parse, not wrap around.
    assert_eq!(
        Placement::parse("hot-cold@99999999999999999999999999"),
        None
    );
    assert_eq!(Placement::parse("hot-cold@-1"), None);
    assert_eq!(Placement::parse("hot-cold@"), None);
    assert_eq!(Placement::parse("hot-cold@3.5"), None);
}

/// Every strict prefix of every example workload file — a file cut off
/// mid-line or mid-token — parses or gives an error, never a panic; the
/// whole files parse.
#[test]
fn every_prefix_of_every_example_workload_never_panics() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/workloads");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/workloads exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "skp"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 9,
        "expected the example workloads, got {files:?}"
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable workload");
        assert!(
            parse_workload(&text).is_ok(),
            "{} must parse",
            path.display()
        );
        for i in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let _ = parse_workload(&text[..i]);
        }
    }
}
