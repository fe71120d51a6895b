//! `skp-plan` — command-line prefetch planner and workload runner over
//! the facade API.
//!
//! Planning mode reads a scenario file (see
//! `speculative_prefetch::scenario_file`) and prints what each policy
//! would prefetch, with gains, the Eq. 7 bound and per-item access
//! times. Run mode executes a full *workload file* (scenario, workload,
//! backend and policy/predictor specs in one file) through
//! `Engine::run` and prints the unified `RunReport`. Policies and
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

use speculative_prefetch::wire::{esc, list, num, write_report_fields};
use speculative_prefetch::{
    backend_specs, generator_specs, global_applicable, obs_sink_specs, parse_scenario_file,
    parse_workload, plan_store_specs, policy_aliases, policy_specs, predictor_specs, trace_json,
    Engine, Error, PhaseSpan, PlanReport, RegistrySpec, ReportSection, RunReport, Scenario,
    Workload, WorkloadFile,
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

/// The rows of a runtime registry's listing (backends, plan stores, obs
/// sinks, generators): name, then summary and any `params` grammar.
fn spec_rows(specs: Vec<RegistrySpec>) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|spec| {
            let params = if spec.params.is_empty() {
                String::new()
            } else {
                format!(" (params: {})", spec.params)
            };
            (spec.name.to_string(), format!("{}{params}", spec.summary))
        })
        .collect()
}

/// The rows of the policy and predictor listings: name, then summary,
/// any aliases and the meaning of the `:param` suffix.
fn param_rows(
    specs: Vec<RegistrySpec>,
    aliases: fn(&str) -> Vec<&'static str>,
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
            let param = if spec.params.is_empty() {
                String::new()
            } else {
                format!("; :param = {}", spec.params)
            };
            (
                spec.name.to_string(),
                format!("{}{aliases}{param}", spec.summary),
            )
        })
        .collect()
}

/// The `--list` output as one table: every registry contributes a
/// `(header, rows)` section and one loop prints them all, so a new
/// seam cannot format differently — or be forgotten — without editing
/// this single function.
fn registry_sections() -> Vec<(&'static str, Vec<(String, String)>)> {
    vec![
        (
            "registered policies (--solver):",
            param_rows(policy_specs(), policy_aliases),
        ),
        (
            "registered predictors (for the library's SessionBuilder):",
            param_rows(predictor_specs(), |_| Vec::new()),
        ),
        (
            "registered backends (workload files' 'backend' / SessionBuilder::backend_spec):",
            spec_rows(backend_specs()),
        ),
        (
            "registered plan stores ('plan-store' directive / --plan-store / SessionBuilder::plan_store):",
            spec_rows(plan_store_specs()),
        ),
        (
            "registered obs sinks ('obs' directive / --obs / SessionBuilder::obs):",
            spec_rows(obs_sink_specs()),
        ),
        (
            "registered workload generators ('generate' directive / Workload::generated):",
            spec_rows(generator_specs()),
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
        eprintln!("skp-plan: cannot write output: {e}");
        std::process::exit(1);
    }
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
            .map(String::as_str)
    };
    let format = flag("--format").unwrap_or("text").to_string();
    if format != "text" && format != "json" {
        eprintln!("skp-plan: unknown format '{format}' (expected text or json)");
        std::process::exit(2);
    }

    if args.first().map(String::as_str) == Some("run") {
        let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
            usage();
        };
        let plan_store = flag("--plan-store").map(String::from);
        let obs = flag("--obs").map(String::from);
        let trace_out = flag("--trace-out").map(String::from);
        return run_workload_file(
            out,
            path,
            plan_store.as_deref(),
            obs.as_deref(),
            trace_out.as_deref(),
            &format,
        );
    }

    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let solver = flag("--solver").unwrap_or("all").to_string();
    plan_scenario_file(out, path, &solver, &format)
}

fn read_file(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("skp-plan: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------
// Planning mode: solver comparison on a scenario file.
// ---------------------------------------------------------------------

fn plan_scenario_file(
    out: &mut dyn Write,
    path: &str,
    solver: &str,
    format: &str,
) -> io::Result<()> {
    let text = read_file(path);
    let parsed = match parse_scenario_file(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("skp-plan: {path}: {e}");
            std::process::exit(1);
        }
    };
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
            Err(Error::UnknownPolicy { name, known }) => {
                eprintln!(
                    "skp-plan: unknown solver '{name}' (known: {}, or any alias; see --list)",
                    known.join(", ")
                );
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("skp-plan: {e}");
                std::process::exit(2);
            }
        }
    }

    match format {
        "json" => print_plans_json(out, &s, &labels, &reports),
        _ => print_plans_text(out, &s, &labels, &reports),
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

// ---------------------------------------------------------------------
// Run mode: execute a workload file through Engine::run.
// ---------------------------------------------------------------------

fn run_workload_file(
    out: &mut dyn Write,
    path: &str,
    plan_store: Option<&str>,
    obs: Option<&str>,
    trace_out: Option<&str>,
    format: &str,
) -> io::Result<()> {
    let text = read_file(path);
    let mut file = match parse_workload(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("skp-plan: {path}: {e}");
            std::process::exit(1);
        }
    };
    // CLI flags override the matching file directives.
    if let Some(spec) = plan_store {
        file.plan_store = Some(spec.to_string());
    }
    if let Some(spec) = obs {
        file.obs = Some(spec.to_string());
    }
    if let Some(out) = trace_out {
        file.trace_out = Some(out.to_string());
    }
    let mut engine = match file.build_engine() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("skp-plan: {path}: {e}");
            std::process::exit(2);
        }
    };
    let workload = match file.workload() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("skp-plan: {path}: {e}");
            std::process::exit(2);
        }
    };
    let report = match engine.run(&workload) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("skp-plan: {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(out) = file.trace_out.as_deref() {
        write_trace(out, &report);
    }
    match format {
        "json" => print_run_json(out, &file, &engine, &report),
        _ => print_run_text(out, &file, &engine, &report),
    }
}

/// Writes the Chrome/Perfetto trace, appending skp-plan's own `wire`
/// span (the serialisation cost) — trace-only, never in the report:
/// the first render times the conversion, the second includes it.
fn write_trace(out: &str, report: &RunReport) {
    let started = std::time::Instant::now();
    let _ = trace_json(report);
    let mut timed = report.clone();
    timed.phases.spans.push(PhaseSpan {
        name: "wire",
        seconds: started.elapsed().as_secs_f64(),
    });
    if let Err(e) = std::fs::write(out, trace_json(&timed)) {
        eprintln!("skp-plan: cannot write trace to {out}: {e}");
        std::process::exit(1);
    }
    // On stderr so `--format json` output stays parseable.
    eprintln!("skp-plan: trace written to {out}");
}

fn print_run_text(
    out: &mut dyn Write,
    file: &WorkloadFile,
    engine: &Engine,
    report: &RunReport,
) -> io::Result<()> {
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

fn print_run_json(
    out: &mut dyn Write,
    file: &WorkloadFile,
    engine: &Engine,
    report: &RunReport,
) -> io::Result<()> {
    // The report body (access / section / events) is rendered by the
    // shared wire module — the same encoding skp-serve answers with, so
    // `skp-plan run --format json` and a daemon round-trip are
    // byte-comparable after stripping the metadata prefix. The prefix
    // and the body share one buffer.
    let mut json = format!(
        "{{\"workload\":\"{}\",\"backend\":\"{}\",\"policy\":\"{}\",",
        esc(file.kind.name()),
        esc(&engine.backend_spec_string()),
        esc(engine.policy_name()),
    );
    write_report_fields(&mut json, report, &file.labels);
    json.push('}');
    writeln!(out, "{json}")
}
