//! End-to-end test of the `skp-plan` CLI binary: planning mode, the
//! `run <workload-file>` mode, JSON output (validated with a tiny
//! in-test JSON parser — the workspace is offline-shim only, no serde),
//! and consistency between `--list` and the backend registry.

use std::process::Command;

use speculative_prefetch::wire::Json;
use speculative_prefetch::WorkloadKind;

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_skp-plan"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_scenario(name: &str, body: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("skp_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn plans_the_demo_scenario_with_all_solvers() {
    let path = write_scenario(
        "demo.scn",
        "# demo\nv 10\nitem 0.5 8 front\nitem 0.3 6 sports\nitem 0.2 9 video\n",
    );
    let (stdout, stderr, ok) = run_cli(&[path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    // Header facts.
    assert!(stdout.contains("3 items, v = 10"));
    assert!(stdout.contains("7.6000")); // E[T no prefetch]
    assert!(stdout.contains("4.6000")); // Eq. 7 bound
                                        // Every solver section appears.
    for solver in ["[kp]", "[paper]", "[exact]", "[global]", "[optimal]"] {
        assert!(stdout.contains(solver), "missing {solver}:\n{stdout}");
    }
    // The famous divergence: paper picks front+video, exact picks front.
    assert!(stdout.contains(r#"[paper] prefetch ["front", "video"]"#));
    assert!(stdout.contains(r#"[exact] prefetch ["front"]"#));
}

#[test]
fn single_solver_selection() {
    let path = write_scenario("one.scn", "v 5\nitem 1.0 8 only\n");
    let (stdout, _, ok) = run_cli(&[path.to_str().unwrap(), "--solver", "exact"]);
    assert!(ok);
    assert!(stdout.contains("[exact]"));
    assert!(!stdout.contains("[paper]"));
    // Deterministic request: gain = v = 5.
    assert!(stdout.contains("gain 5.0000"));
}

#[test]
fn missing_file_fails_cleanly() {
    let (_, stderr, ok) = run_cli(&["/nonexistent/path.scn"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn malformed_file_reports_line() {
    let path = write_scenario("bad.scn", "v 5\nitem nope 3\n");
    let (_, stderr, ok) = run_cli(&[path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
}

#[test]
fn no_args_prints_usage() {
    let (_, stderr, ok) = run_cli(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn unknown_solver_rejected() {
    let path = write_scenario("s.scn", "v 5\nitem 1.0 2\n");
    let (_, stderr, ok) = run_cli(&[path.to_str().unwrap(), "--solver", "magic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown solver"));
}

#[test]
fn list_enumerates_policies_predictors_backends_and_plan_stores() {
    let (stdout, _, ok) = run_cli(&["--list"]);
    assert!(ok);
    assert!(stdout.contains("registered policies"));
    assert!(stdout.contains("registered predictors"));
    assert!(stdout.contains("registered backends"), "{stdout}");
    for backend in ["single-client", "multi-client", "sharded", "monte-carlo"] {
        assert!(
            stdout.contains(backend),
            "missing backend {backend}:\n{stdout}"
        );
    }
    assert!(stdout.contains("hash|range|hot-cold"));
    assert!(stdout.contains("registered plan stores"), "{stdout}");
    for store in ["none", "memory", "file", "tiered"] {
        assert!(
            stdout.contains(store),
            "missing plan store {store}:\n{stdout}"
        );
    }
    assert!(stdout.contains("registered obs sinks"), "{stdout}");
}

/// `--list`, byte for byte: every registry's rows, aliases and
/// parameter syntax in registration order.
#[test]
fn list_matches_its_golden() {
    let (stdout, stderr, ok) = run_cli(&["--list"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout, include_str!("golden/list.txt"));
}

/// Every registry seam is named by `--list`: the section headers are
/// exactly the known set, in order — a new seam that forgets to add
/// itself to `registry_sections()` fails here.
#[test]
fn list_names_every_registry() {
    let (stdout, _, ok) = run_cli(&["--list"]);
    assert!(ok);
    let headers: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with("  "))
        .collect();
    let sections: Vec<&str> = headers
        .iter()
        .map(|h| h.split(" (").next().unwrap().trim_end_matches(':'))
        .collect();
    assert_eq!(
        sections,
        [
            "registered policies",
            "registered predictors",
            "registered backends",
            "registered plan stores",
            "registered obs sinks",
            "registered workload generators",
        ],
        "--list sections drifted:\n{stdout}"
    );
}

/// Registry consistency: `--list` enumerates *exactly* the backend
/// registry (no drift between `backend_specs()` and the list
/// subcommand), and every registered backend's spec round-trips
/// through parse → `name()` → parse to a fixed point (an alias reaches
/// the fixed point of the family it spells).
#[test]
fn list_backends_match_the_registry_exactly() {
    let (stdout, _, ok) = run_cli(&["--list"]);
    assert!(ok);
    let listed: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("registered backends"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    let registry: Vec<&str> = speculative_prefetch::backend_specs()
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(listed, registry, "--list drifted from backend_specs()");

    for spec in speculative_prefetch::backend_specs() {
        // Registry name → driver → name(): the identity, except for the
        // `multi-client` alias, which builds the one-shard sharded driver.
        let family = match spec.name {
            "multi-client" => "sharded",
            name => name,
        };
        let driver = speculative_prefetch::build_backend(spec.name)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(driver.name(), family);
        // Canonical spec string → driver: a fixed point.
        let canonical = driver.spec_string();
        let again = speculative_prefetch::build_backend(&canonical)
            .unwrap_or_else(|e| panic!("{canonical}: {e}"));
        assert_eq!(again.name(), family);
        assert_eq!(again.spec_string(), canonical);
    }
}

/// Same consistency for the plan-store seam: `--list` enumerates
/// exactly `plan_store_specs()`. Bare `file` and `tiered` names do not
/// build (they need a directory / a chain), so the build →
/// `spec_string()` → build fixed point is checked on one concrete spec
/// per tier.
#[test]
fn list_plan_stores_match_the_registry_exactly() {
    let (stdout, _, ok) = run_cli(&["--list"]);
    assert!(ok);
    let listed: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("registered plan stores"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    let registry: Vec<&str> = speculative_prefetch::plan_store_specs()
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(listed, registry, "--list drifted from plan_store_specs()");

    let dir = std::env::temp_dir().join(format!("skp-cli-store-{}", std::process::id()));
    let examples = [
        "none".to_string(),
        "memory:2x64".to_string(),
        format!("file:{}", dir.display()),
        "tiered:memory:1x4,memory:1x16".to_string(),
    ];
    assert_eq!(examples.len(), registry.len(), "cover every tier");
    for (spec, entry) in examples
        .iter()
        .zip(speculative_prefetch::plan_store_specs())
    {
        let store =
            speculative_prefetch::build_plan_store(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(store.name(), entry.name);
        // Canonical spec string → store: a fixed point.
        let canonical = store.spec_string();
        let again = speculative_prefetch::build_plan_store(&canonical)
            .unwrap_or_else(|e| panic!("{canonical}: {e}"));
        assert_eq!(again.name(), entry.name);
        assert_eq!(again.spec_string(), canonical);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same consistency for the obs seam: `--list` enumerates exactly
/// `obs_sink_specs()`, and each sink's canonical spec string rebuilds
/// to itself.
#[test]
fn list_obs_sinks_match_the_registry_exactly() {
    let (stdout, _, ok) = run_cli(&["--list"]);
    assert!(ok);
    let listed: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("registered obs sinks"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    let registry: Vec<&str> = speculative_prefetch::obs_sink_specs()
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(listed, registry, "--list drifted from obs_sink_specs()");

    let examples = ["none", "memory"];
    assert_eq!(examples.len(), registry.len(), "cover every sink");
    for (spec, entry) in examples.iter().zip(speculative_prefetch::obs_sink_specs()) {
        let obs = speculative_prefetch::build_obs(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(obs.name(), entry.name);
        // Canonical spec string → sink: a fixed point.
        let canonical = obs.spec_string();
        let again = speculative_prefetch::build_obs(&canonical)
            .unwrap_or_else(|e| panic!("{canonical}: {e}"));
        assert_eq!(again.name(), entry.name);
        assert_eq!(again.spec_string(), canonical);
    }
}

/// Same consistency for the workload-generator seam: `--list`
/// enumerates exactly `generator_specs()`, every bare name builds with
/// its defaults, and the canonical spec string is a fixed point.
#[test]
fn list_generators_match_the_registry_exactly() {
    let (stdout, _, ok) = run_cli(&["--list"]);
    assert!(ok);
    let listed: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("registered workload generators"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    let registry: Vec<&str> = speculative_prefetch::generator_specs()
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(listed, registry, "--list drifted from generator_specs()");

    for spec in speculative_prefetch::generator_specs() {
        let gen = speculative_prefetch::build_generator(spec.name)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(gen.name(), spec.name);
        // Canonical spec string → generator: a fixed point.
        let canonical = gen.spec_string();
        let again = speculative_prefetch::build_generator(&canonical)
            .unwrap_or_else(|e| panic!("{canonical}: {e}"));
        assert_eq!(again.name(), spec.name);
        assert_eq!(again.spec_string(), canonical);
    }
}

/// The `served.skp.in` template only runs in CI's serve matrix; pin it
/// in tier-1 too. Instantiated the same way CI does (sed the `@ADDR@`
/// placeholder), the template must parse as the expected workload and
/// round-trip through render — so a template drift fails here, not
/// just in the smoke job.
#[test]
fn served_template_instantiates_parses_and_roundtrips() {
    let template = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/workloads/served.skp.in"
    ))
    .expect("template exists");
    assert!(template.contains("@ADDR@"), "placeholder present");
    let instantiated = template.replace("@ADDR@", "127.0.0.1:7077");
    let f = speculative_prefetch::parse_workload(&instantiated).expect("template parses");
    assert_eq!(f.kind, speculative_prefetch::WorkloadKind::Sharded);
    assert!(f.traced);
    assert_eq!(
        f.backend.as_deref(),
        Some("served:127.0.0.1:7077:sharded:4x16:hash")
    );
    assert_eq!(f.policy.as_deref(), Some("skp-exact"));
    assert_eq!(f.requests, Some(100));
    assert_eq!(f.seed, Some(1999));
    assert_eq!(f.scenario.n(), 24, "catalog matches sharded.skp");
    let again = speculative_prefetch::parse_workload(&f.to_string()).expect("render round-trips");
    assert_eq!(again, f);
}

// ---------------------------------------------------------------------
// The `run <workload-file>` mode.
// ---------------------------------------------------------------------

#[test]
fn run_executes_a_plan_workload_file() {
    let path = write_scenario(
        "wf_plan.skp",
        "workload plan\npolicy exact\nv 10\nitem 0.5 8 front\nitem 0.3 6 sports\nitem 0.2 9 video\n",
    );
    let (stdout, stderr, ok) = run_cli(&["run", path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("workload plan on backend single-client"));
    assert!(stdout.contains(r#"prefetch ["front"]"#), "{stdout}");
    assert!(stdout.contains("access: count 3"));
}

#[test]
fn run_executes_a_sharded_workload_file() {
    let path = write_scenario(
        "wf_sharded.skp",
        "workload sharded\ntraced\nbackend sharded:2x4:range\nrequests 20\nseed 7\n\
         chain 4 1 2 2 8 11\nv 5\nitem 0.25 3 a\nitem 0.25 4 b\nitem 0.25 5 c\nitem 0.25 6 d\n",
    );
    let (stdout, stderr, ok) = run_cli(&["run", path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("backend sharded:2x4:range"), "{stdout}");
    assert!(stdout.contains("sharded: 80 requests"), "{stdout}");
    assert!(stdout.contains("shard 0:") && stdout.contains("shard 1:"));
    assert!(stdout.contains("events:"), "traced file must report events");
}

/// `--trace-out` writes a Chrome/Perfetto trace next to the normal
/// report output, including the CLI's own `trace-render` span, and stdout
/// stays parseable JSON (the note goes to stderr).
#[test]
fn run_trace_out_writes_a_chrome_trace() {
    let path = write_scenario(
        "wf_trace_out.skp",
        "workload sharded\ntraced\nbackend sharded:2x4:range\nrequests 20\nseed 7\n\
         chain 4 1 2 2 8 11\nv 5\nitem 0.25 3 a\nitem 0.25 4 b\nitem 0.25 5 c\nitem 0.25 6 d\n",
    );
    let out = std::env::temp_dir().join(format!("skp-cli-trace-{}.json", std::process::id()));
    let (stdout, stderr, ok) = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--trace-out",
        out.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("trace written"), "stderr: {stderr}");
    json::check(stdout.trim()).expect("stdout stays pure JSON");
    let trace = std::fs::read_to_string(&out).expect("trace file written");
    let _ = std::fs::remove_file(&out);
    json::check(trace.trim()).expect("trace is valid JSON");
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    for track in [
        "\"engine\"",
        "\"shard 0\"",
        "\"trace-render\"",
        "\"queue depth\"",
    ] {
        assert!(trace.contains(track), "missing {track}");
    }
    assert_chrome_trace_schema(&trace);

    // The checked-in sharded example writes a schema-valid trace too.
    let example = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/workloads/sharded.skp"
    );
    let (_, stderr, ok) = run_cli(&["run", example, "--trace-out", out.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    let trace = std::fs::read_to_string(&out).expect("trace file written");
    let _ = std::fs::remove_file(&out);
    assert_chrome_trace_schema(&trace);
}

/// `--trace-out` on every checked-in example (the daemon template
/// `served.skp.in` aside) writes a schema-valid Chrome trace; each
/// population run also carries the `queue depth` counter track built
/// from the scheduler's epoch marks.
#[test]
fn every_example_writes_a_chrome_trace() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/workloads");
    let mut examples: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "skp"))
        .collect();
    examples.sort();
    assert_eq!(examples.len(), 9, "{examples:?}");
    let out = std::env::temp_dir().join(format!("skp-cli-examples-{}.json", std::process::id()));
    for path in &examples {
        let text = std::fs::read_to_string(path).expect("example readable");
        let kind = speculative_prefetch::parse_workload(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .kind;
        let (_, stderr, ok) = run_cli(&[
            "run",
            path.to_str().unwrap(),
            "--trace-out",
            out.to_str().unwrap(),
        ]);
        assert!(ok, "{}: {stderr}", path.display());
        let trace = std::fs::read_to_string(&out).expect("trace file written");
        let _ = std::fs::remove_file(&out);
        if matches!(kind, WorkloadKind::Sharded | WorkloadKind::Generated) {
            assert_chrome_trace_schema(&trace);
            assert!(
                trace.contains("\"queue depth\""),
                "{}: no queue depth track",
                path.display()
            );
        } else {
            let spans = chrome_trace_spans(&trace);
            assert!(
                spans.contains("trace-render"),
                "{}: {spans:?}",
                path.display()
            );
        }
    }
}

/// The Chrome trace schema of `--trace-out`: every record is a complete
/// M/X/C event, counter samples carry one series each, and a population
/// run decomposes into the engine's build/simulate/plan-store-put spans
/// plus the CLI's own trace-render span.
fn assert_chrome_trace_schema(text: &str) {
    let spans = chrome_trace_spans(text);
    for span in ["build", "simulate", "plan-store-put", "trace-render"] {
        assert!(
            spans.contains(span),
            "missing engine span {span}: {spans:?}"
        );
    }
}

/// Checks the record schema of a `--trace-out` file and returns the
/// names of its `X` spans.
fn chrome_trace_spans(text: &str) -> std::collections::BTreeSet<String> {
    let doc = Json::parse(text).expect("trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must not be empty");
    let mut spans = std::collections::BTreeSet::new();
    for e in events {
        let field = |key: &str| e.get(key).unwrap_or_else(|| panic!("{key} missing: {e:?}"));
        let ph = field("ph").as_str().expect("ph is a string");
        assert!(["M", "X", "C"].contains(&ph), "unexpected record {e:?}");
        for id in ["pid", "tid"] {
            assert!(
                field(id).as_u64().is_some(),
                "{id} is not an integer: {e:?}"
            );
        }
        let name = field("name").as_str().expect("name is a string");
        let args = e.get("args");
        match ph {
            "M" => {
                assert!(["process_name", "thread_name"].contains(&name), "{e:?}");
                assert!(args.and_then(|a| a.get("name")).is_some(), "{e:?}");
            }
            _ => assert!(field("ts").as_f64().is_some(), "ts is not a number: {e:?}"),
        }
        if ph == "X" {
            let dur = field("dur").as_f64().expect("dur is a number");
            assert!(dur >= 0.0, "{e:?}");
            spans.insert(name.to_string());
        }
        if ph == "C" {
            assert!(
                matches!(args, Some(Json::Obj(series)) if series.len() == 1),
                "a counter sample carries one series: {e:?}"
            );
        }
    }
    spans
}

/// `workload multi-client` / `backend multi-client:8` spell the one-shard
/// sharded run: the checked-in example prints the same JSON bytes as its
/// `workload sharded` / `backend sharded:1x8:hash` twin.
#[test]
fn multiclient_example_matches_its_one_shard_twin() {
    let example = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/workloads/multiclient.skp"
    );
    let text = std::fs::read_to_string(example).expect("example exists");
    assert!(
        text.contains("\nworkload multi-client\n") && text.contains("\nbackend multi-client:8\n")
    );
    let twin = text
        .replace("\nworkload multi-client\n", "\nworkload sharded\n")
        .replace("\nbackend multi-client:8\n", "\nbackend sharded:1x8:hash\n");
    let twin = write_scenario("multiclient_twin.skp", &twin);
    let run = |path: &str| {
        let (stdout, stderr, ok) = run_cli(&["run", path, "--format", "json"]);
        assert!(ok, "{path}: {stderr}");
        stdout
    };
    let alias = run(example);
    assert!(
        alias.contains("\"backend\":\"sharded:1x8:hash\""),
        "{alias}"
    );
    assert_eq!(alias, run(twin.to_str().unwrap()));
}

#[test]
fn run_reports_workload_file_errors() {
    let path = write_scenario(
        "wf_bad.skp",
        "workload multi-client\nv 5\nitem 1 1\n", // population without a chain
    );
    let (_, stderr, ok) = run_cli(&["run", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("chain"), "stderr: {stderr}");

    let (_, stderr, ok) = run_cli(&["run", "/nonexistent/wf.skp"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

/// `skp-plan run` exits with the code of the stage that failed: 1 for
/// reading and parsing the file, 2 for building the engine or the
/// workload it describes, 1 for the run itself.
#[test]
fn run_exit_codes_name_the_failing_stage() {
    let base = "v 5\nitem 0.5 2 a\nitem 0.5 3 b\n";
    let trace = "workload trace\npredictor ngram:1\naccess 0 5\naccess 1 5\n";
    let cases = [
        ("parse", format!("{base}bogus 1\n"), 1, "line 4"),
        (
            "policy",
            format!("{base}policy magic\n"),
            2,
            "unknown policy",
        ),
        (
            "predictor",
            format!("{base}{}", trace.replace("ngram:1", "ngram:9")),
            2,
            "ngram order",
        ),
        ("chain", format!("{base}workload sharded\n"), 2, "chain"),
        ("run", format!("{base}{trace}access 7 5\n"), 1, "item 7"),
    ];
    for (name, body, code, needle) in cases {
        let path = write_scenario(&format!("exit_{name}.skp"), &body);
        let out = Command::new(env!("CARGO_BIN_EXE_skp-plan"))
            .args(["run", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{name}: {stderr}");
        assert!(stderr.contains(needle), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: nothing reaches stdout");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_skp-plan"))
        .args(["run", "/nonexistent/exit.skp"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn an_overflowing_simulated_clock_is_a_run_stage_error() {
    // Each input alone can push an event time past the largest finite
    // double: slow links, slow links times a service spread, and a
    // retrieval time.
    let cases = [
        (
            "slow",
            "workload generated\ngenerate faults:slow=0x1e308\n",
            "2",
        ),
        (
            "svc",
            "workload generated\ngenerate faults:slow=0x1e300;svc=1e300\n",
            "2",
        ),
        (
            "retrieval",
            "workload sharded\nchain 4 1 2 2 8 11\n",
            "1e308",
        ),
    ];
    for (name, head, retrieval) in cases {
        let body = format!(
            "{head}backend sharded:2x4:hash\nv 5\nitem 0.25 {retrieval} a\nitem 0.25 3 b\n\
             item 0.25 4 c\nitem 0.25 5 d\n"
        );
        let path = write_scenario(&format!("clock_{name}.skp"), &body);
        let out = Command::new(env!("CARGO_BIN_EXE_skp-plan"))
            .args(["run", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("simulated clock"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: nothing reaches stdout");
    }
}

#[test]
fn run_json_output_parses_for_every_workload_shape() {
    let files = [
        (
            "wf_json_plan.skp",
            "workload plan\nv 10\nitem 0.5 8 fr\u{f8}nt\"q\nitem 0.5 6\n",
        ),
        (
            "wf_json_trace.skp",
            "workload trace\npredictor ngram:1\ncache 2\nv 5\nitem 0.5 3 a\nitem 0.5 4 b\n\
             access 0 5\naccess 1 5\naccess 0 5\naccess 1 5\n",
        ),
        (
            "wf_json_mc.skp",
            "workload monte-carlo\nbackend monte-carlo:4x1\niterations 50\nseed 3\n\
             mc-method flat\nv 5\nitem 0.5 3 a\nitem 0.5 4 b\n",
        ),
        (
            "wf_json_multi.skp",
            "workload multi-client\nbackend multi-client:3\nrequests 15\nchain 3 1 2 2 8 1\n\
             v 5\nitem 0.3 3 a\nitem 0.3 4 b\nitem 0.4 5 c\n",
        ),
        (
            "wf_json_sharded.skp",
            "workload sharded\nbackend sharded:2x3:hash\nrequests 15\nchain 3 1 2 2 8 1\n\
             v 5\nitem 0.3 3 a\nitem 0.3 4 b\nitem 0.4 5 c\n",
        ),
        (
            "wf_json_generated.skp",
            "workload generated\nbackend sharded:2x3:hash\ngenerate flash:1.2@0.5\n\
             requests 15\nv 5\nitem 0.3 3 a\nitem 0.3 4 b\nitem 0.4 5 c\n",
        ),
    ];
    for (name, body) in files {
        let path = write_scenario(name, body);
        let (stdout, stderr, ok) = run_cli(&["run", path.to_str().unwrap(), "--format", "json"]);
        assert!(ok, "{name} stderr: {stderr}");
        let json = stdout.trim();
        json::check(json).unwrap_or_else(|e| panic!("{name}: invalid JSON ({e}):\n{json}"));
        assert!(json.starts_with("{\"workload\":\""), "{name}: {json}");
        assert!(json.contains("\"access\":{\"count\":"), "{name}: {json}");
        assert!(json.contains("\"section\":{"), "{name}: {json}");
    }
}

/// Planning mode's `--format json` must stay valid JSON too.
#[test]
fn plan_json_output_parses() {
    let path = write_scenario(
        "json_plan.scn",
        "# demo\nv 10\nitem 0.5 8 front\nitem 0.3 6 sports\nitem 0.2 9 video\n",
    );
    let (stdout, stderr, ok) = run_cli(&[path.to_str().unwrap(), "--format", "json"]);
    assert!(ok, "stderr: {stderr}");
    let json = stdout.trim();
    json::check(json).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{json}"));
    assert!(json.contains("\"plans\":["));
}

/// A minimal recursive-descent JSON syntax checker — just enough to
/// assert the CLI's hand-rolled encoder emits well-formed JSON (the
/// workspace is offline-shim only; no serde).
mod json {
    pub fn check(text: &str) -> Result<(), String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, "true"),
            Some(b'f') => literal(b, pos, "false"),
            Some(b'n') => literal(b, pos, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            other => Err(format!("unexpected {other:?} at byte {pos}")),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(|_| ())
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // opening quote
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            if b.len() < *pos + 5
                                || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                            {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                            *pos += 5;
                        }
                        other => return Err(format!("bad escape {other:?} at byte {pos}")),
                    }
                }
                0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '{'
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {pos}"));
            }
            string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}"));
            }
            *pos += 1;
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?} at byte {pos}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '['
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', got {other:?} at byte {pos}")),
            }
        }
    }
}

/// `run examples/workloads/trace.skp --format json`, byte for byte, as
/// the dense trace replay printed it before the replay went sparse. Wire
/// version 2 changed only its `wire` member and its empty `events` block.
#[test]
fn trace_workload_json_matches_its_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/workloads/trace.skp");
    let (stdout, stderr, ok) = run_cli(&["run", path, "--format", "json"]);
    assert!(ok, "stderr: {stderr}");
    let golden = include_str!("golden/trace.json");
    assert_eq!(stdout, golden);
}

/// An n-gram order past the cap (8) is a structured workload
/// error (exit 2), not an allocation abort or a capacity panic.
#[test]
fn run_refuses_an_unbounded_ngram_order() {
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/workloads/trace.skp");
    let text = std::fs::read_to_string(trace).unwrap();
    for order in ["1000000000000", "1e300", "9"] {
        let body = text.replace("predictor ngram:1", &format!("predictor ngram:{order}"));
        assert_ne!(body, text, "the example names its predictor");
        let path = write_scenario(&format!("ngram_{order}.skp"), &body);
        let out = Command::new(env!("CARGO_BIN_EXE_skp-plan"))
            .args(["run", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "order {order}: {stderr}");
        assert!(stderr.contains("ngram order"), "order {order}: {stderr}");
        assert!(!stderr.contains("panicked"), "order {order}: {stderr}");
        assert!(
            !stderr.contains("memory allocation"),
            "order {order}: {stderr}"
        );
    }
}

/// A reader that closes the pipe early ends the output quietly: exit 0,
/// nothing on stderr. The sharded run's JSON (over 64 KiB) outgrows any
/// pipe buffer, so its write meets the closed pipe whatever the timing.
#[test]
fn closed_stdout_pipe_exits_quietly() {
    use std::process::Stdio;
    let sharded = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/workloads/sharded.skp"
    );
    for args in [vec!["--list"], vec!["run", sharded, "--format", "json"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_skp-plan"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
