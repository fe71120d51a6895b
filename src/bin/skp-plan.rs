//! `skp-plan` — command-line prefetch planner and workload runner over
//! the facade API.
//!
//! Planning mode reads a scenario file (see
//! `speculative_prefetch::scenario_file`) and prints what each policy
//! would prefetch, with gains, the Eq. 7 bound and per-item access
//! times. Run mode executes a full *workload file* (scenario, workload,
//! backend and policy/predictor specs in one file) through the
//! library's `run_file` and prints the unified `RunReport`; this binary
//! maps the stage that failed to its exit code. Policies and
//! backends are resolved through their registries, so every registered
//! spec works, including parameterised ones (`network-aware:0.4`,
//! `sharded:4x8:hash`).
//!
//! ```text
//! skp-plan <scenario-file> [--solver <policy-spec>|all] [--format text|json]
//! skp-plan run <workload-file> [--plan-store <spec>] [--obs <spec>]
//!              [--trace-out <file>] [--format text|json]
//! skp-plan --list
//! ```

use std::io::{self, Write};

use speculative_prefetch::wire::{esc, list, num};
use speculative_prefetch::{
    backend_specs, generator_specs, global_applicable, obs_sink_specs, parse_scenario_file,
    plan_store_specs, policy_aliases, policy_specs, predictor_specs, run_file, Engine, Error,
    PlanReport, RegistrySpec, ReportFormat, RunFileError, RunOverrides, Scenario, Workload,
};

fn usage() -> ! {
    eprintln!("usage: skp-plan <scenario-file> [--solver <policy>|all] [--format text|json]");
    eprintln!("       skp-plan run <workload-file> [--plan-store <spec>] [--obs <spec>]");
    eprintln!("                    [--trace-out <file>] [--format text|json]");
    eprintln!("       skp-plan --list");
    eprintln!();
    eprintln!("scenario file format:");
    eprintln!("  v 10");
    eprintln!("  item 0.5 8 front-page");
    eprintln!("  item 0.3 6");
    eprintln!();
    eprintln!("workload files add e.g. 'workload sharded', 'backend sharded:4x8:hash',");
    eprintln!("'policy skp-exact', 'chain 24 2 4 5 20 7' lines (see examples/workloads/)");
    eprintln!();
    eprintln!("policies are registry specs (see --list), e.g. 'exact' or 'network-aware:0.4'");
    std::process::exit(2);
}

/// The rows of one registry's listing: name, then summary, any aliases
/// and the `params` grammar as `params` spells it.
fn rows(
    specs: Vec<RegistrySpec>,
    aliases: fn(&str) -> Vec<&'static str>,
    params: fn(&str) -> String,
) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|spec| {
            let aliases = aliases(spec.name);
            let aliases = if aliases.is_empty() {
                String::new()
            } else {
                format!(" (aliases: {})", aliases.join(", "))
            };
            let params = if spec.params.is_empty() {
                String::new()
            } else {
                params(spec.params)
            };
            let detail = format!("{}{aliases}{params}", spec.summary);
            (spec.name.to_string(), detail)
        })
        .collect()
}

/// The `--list` output as one table: every registry contributes a
/// `(header, rows)` section and one loop prints them all, so a new
/// seam cannot format differently — or be forgotten — without editing
/// this single function.
fn registry_sections() -> Vec<(&'static str, Vec<(String, String)>)> {
    let none = |_: &str| Vec::new();
    let param = |p: &str| format!("; :param = {p}");
    let spec = |specs| rows(specs, none, |p| format!(" (params: {p})"));
    vec![
        (
            "registered policies (--solver):",
            rows(policy_specs(), policy_aliases, param),
        ),
        (
            "registered predictors (for the library's SessionBuilder):",
            rows(predictor_specs(), none, param),
        ),
        (
            "registered backends (workload files' 'backend' / SessionBuilder::backend_spec):",
            spec(backend_specs()),
        ),
        (
            "registered plan stores ('plan-store' directive / --plan-store / SessionBuilder::plan_store):",
            spec(plan_store_specs()),
        ),
        (
            "registered obs sinks ('obs' directive / --obs / SessionBuilder::obs):",
            spec(obs_sink_specs()),
        ),
        (
            "registered workload generators ('generate' directive / Workload::generated):",
            spec(generator_specs()),
        ),
    ]
}

fn print_registry(out: &mut dyn Write) -> io::Result<()> {
    for (i, (header, rows)) in registry_sections().iter().enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        writeln!(out, "{header}")?;
        for (name, detail) in rows {
            writeln!(out, "  {name:<18} {detail}")?;
        }
    }
    Ok(())
}

fn main() {
    let stdout = io::stdout();
    let mut out = io::BufWriter::new(stdout.lock());
    if let Err(e) = run(&mut out).and_then(|()| out.flush()) {
        // A reader that stops early (`skp-plan --list | head -1`) ends
        // the output, not the run.
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        fail(1, format_args!("cannot write output: {e}"));
    }
}

/// Reports `message` on stderr and exits with `code`.
fn fail(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("skp-plan: {message}");
    std::process::exit(code)
}

/// The command line's work, every report written to `out`. Errors in the
/// input exit with their code; the error returned is a failed write.
fn run(out: &mut dyn Write) -> io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        return print_registry(out);
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let format = match flag("--format").as_deref().unwrap_or("text") {
        "text" => ReportFormat::Text,
        "json" => ReportFormat::Json,
        other => fail(
            2,
            format_args!("unknown format '{other}' (expected text or json)"),
        ),
    };

    if args.first().map(String::as_str) == Some("run") {
        let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
            usage();
        };
        let overrides = RunOverrides {
            plan_store: flag("--plan-store"),
            obs: flag("--obs"),
            trace_out: flag("--trace-out"),
        };
        return match run_file(&read_file(path), &overrides, format, out) {
            Ok(trace) => {
                if let Some(trace) = trace {
                    // On stderr so `--format json` output stays parseable.
                    eprintln!("skp-plan: trace written to {trace}");
                }
                Ok(())
            }
            Err(RunFileError::Write(e)) => Err(e),
            Err(e @ RunFileError::Trace(..)) => fail(1, e),
            Err(e @ RunFileError::Build(_)) => fail(2, format_args!("{path}: {e}")),
            Err(e @ (RunFileError::Parse(_) | RunFileError::Run(_))) => {
                fail(1, format_args!("{path}: {e}"))
            }
        };
    }

    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let solver = flag("--solver").unwrap_or_else(|| "all".to_string());
    plan_scenario_file(out, path, &solver, format)
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(1, format_args!("cannot read {path}: {e}")))
}

// ---------------------------------------------------------------------
// Planning mode: solver comparison on a scenario file.
// ---------------------------------------------------------------------

fn plan_scenario_file(
    out: &mut dyn Write,
    path: &str,
    solver: &str,
    format: ReportFormat,
) -> io::Result<()> {
    let parsed = parse_scenario_file(&read_file(path))
        .unwrap_or_else(|e| fail(1, format_args!("{path}: {e}")));
    let s = parsed.scenario;
    let labels = parsed.labels;

    // Which policies to run: one registry spec, or the CLI's classic
    // comparison set.
    let specs: Vec<String> = if solver == "all" {
        let mut all = vec!["kp", "paper", "exact", "global"];
        if s.n() <= 20 {
            all.push("optimal");
        }
        all.into_iter().map(String::from).collect()
    } else {
        vec![solver.to_string()]
    };

    // The global DP falls back to the exact branch-and-bound on
    // non-integral instances, and oracle policies cannot plan without
    // the realised request; keep the CLI honest about both.
    let note_for = |spec: &str, engine: &Engine| {
        if matches!(spec, "global" | "skp-global") && !global_applicable(&s) {
            Some("DP needs integral r and v; used the exact branch-and-bound".to_string())
        } else if engine.policy_is_oracle() {
            Some(
                "oracle plans per realised request; nothing to plan ahead of time \
                 (drive it via the library's Engine::step / a monte-carlo workload)"
                    .to_string(),
            )
        } else {
            None
        }
    };

    let mut reports: Vec<(String, PlanReport, Option<String>)> = Vec::new();
    for spec in &specs {
        match Engine::builder().policy(spec).build() {
            Ok(mut engine) => {
                let note = note_for(spec, &engine);
                let run = engine
                    .run(&Workload::plan(s.clone()))
                    .expect("plan workloads are infallible on the default backend");
                let report = run.plan().expect("plan section").clone();
                reports.push((spec.clone(), report, note));
            }
            Err(Error::UnknownPolicy { name, known }) => fail(
                2,
                format_args!(
                    "unknown solver '{name}' (known: {}, or any alias; see --list)",
                    known.join(", ")
                ),
            ),
            Err(e) => fail(2, e),
        }
    }

    match format {
        ReportFormat::Json => print_plans_json(out, &s, &labels, &reports),
        ReportFormat::Text => print_plans_text(out, &s, &labels, &reports),
    }
}

fn print_plans_text(
    out: &mut dyn Write,
    s: &Scenario,
    labels: &[String],
    reports: &[(String, PlanReport, Option<String>)],
) -> io::Result<()> {
    writeln!(out, "scenario: {} items, v = {}", s.n(), s.viewing())?;
    writeln!(
        out,
        "expected access time with no prefetch: {:.4}",
        s.expected_no_prefetch()
    )?;
    let bound = reports
        .first()
        .map(|(_, r, _)| r.upper_bound)
        .unwrap_or_default();
    writeln!(out, "upper bound on any gain (Eq. 7): {bound:.4}\n")?;

    for (name, report, note) in reports {
        let items: Vec<&str> = report
            .plan
            .items()
            .iter()
            .map(|&i| labels[i].as_str())
            .collect();
        writeln!(out, "[{name}] prefetch {items:?}")?;
        writeln!(
            out,
            "  gain {:.4}  stretch {:.4}  expected T {:.4}",
            report.gain, report.stretch, report.expected_access_time,
        )?;
        write!(out, "  per-request T:")?;
        for (label, t) in labels.iter().zip(&report.per_request) {
            write!(out, " {label}={t:.2}")?;
        }
        writeln!(out)?;
        if let Some(note) = note {
            writeln!(out, "  note: {note}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn print_plans_json(
    out: &mut dyn Write,
    s: &Scenario,
    labels: &[String],
    reports: &[(String, PlanReport, Option<String>)],
) -> io::Result<()> {
    let bound = reports
        .first()
        .map(|(_, r, _)| r.upper_bound)
        .unwrap_or_default();
    let scenario = format!(
        "{{\"n\":{},\"viewing\":{},\"expected_no_prefetch\":{},\"upper_bound\":{},\"labels\":{}}}",
        s.n(),
        num(s.viewing()),
        num(s.expected_no_prefetch()),
        num(bound),
        list(labels, |l| format!("\"{}\"", esc(l))),
    );
    let plans = list(reports, |(name, r, note)| {
        let note_field = note
            .as_ref()
            .map(|n| format!(",\"note\":\"{}\"", esc(n)))
            .unwrap_or_default();
        format!(
            "{{\"solver\":\"{}\",\"items\":{},\"labels\":{},\"gain\":{},\"stretch\":{},\"expected_access_time\":{},\"per_request\":{}{note_field}}}",
            esc(name),
            list(r.plan.items(), |i| i.to_string()),
            list(r.plan.items(), |&i| format!("\"{}\"", esc(&labels[i]))),
            num(r.gain),
            num(r.stretch),
            num(r.expected_access_time),
            list(&r.per_request, |t| num(*t)),
        )
    });
    writeln!(out, "{{\"scenario\":{scenario},\"plans\":{plans}}}")
}
