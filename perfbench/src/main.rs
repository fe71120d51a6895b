//! `perfbench`: the repository's layered benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Pins itself to one CPU, sets the workload up several times
//! (`setup_s` is the median), then runs closed-loop ops for `--seconds`,
//! each followed by the calibration kernel of `host.rs`. It checks every
//! op's report against the workload's reference, and prints one line per
//! metric followed by a JSON result line. Host times in the result are
//! quoted at the reference kernel time (see `host.rs`). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced ops and reports
//! the per-layer metrics, writing the spans of the first traced ops as a
//! Chrome trace under `out/` beside this package. See `README.md` beside
//! this package for the workloads and the layer → end-to-end map.

mod host;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use speculative_prefetch::{render_report_fields, RunReport};

use spans::OpTrace;
use workloads::Res;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Traced ops whose spans are written to the Chrome trace.
const KEEP_OPS: u64 = 3;
/// Where the Chrome trace goes: `out/` beside this package, whatever
/// the working directory.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES).into());
    }
    Ok(args)
}

/// Nearest-rank quantile of sorted samples (`0.0` when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// One reported metric, with the quartiles of the samples behind it
/// (absent for a single measured value).
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    quartiles: Option<(f64, f64, usize)>,
}

impl Metric {
    fn one(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            quartiles: None,
        }
    }

    /// `value` is read off the samples; the quartiles ride along.
    fn of(name: &'static str, unit: &'static str, samples: &[f64], value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            quartiles: Some((
                quantile(samples, 0.25),
                quantile(samples, 0.75),
                samples.len(),
            )),
        }
    }
}

/// FNV-1a of the reports' wire form, which renders every `f64` exactly:
/// equal digests mean bit-identical simulated outputs.
fn digest(reports: &[RunReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| render_report_fields(r, &[]).into_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// What the timed loop saw.
#[derive(Default)]
struct Loop {
    attempted: u64,
    failed: u64,
    /// Every problem makes the run incorrect; the first few are printed.
    problems: u64,
    notes: Vec<String>,
    /// Per correct untraced op, in run order: wall seconds, the
    /// calibration kernel's seconds right after it, simulated accesses.
    walls: Vec<f64>,
    kernels: Vec<f64>,
    accesses: Vec<u64>,
    traced: Vec<OpTrace>,
    /// Traced ops whose `serve` remainder came out below zero.
    negative_http: u64,
}

impl Loop {
    fn problem(&mut self, what: String) {
        self.problems += 1;
        if self.notes.len() < 5 {
            self.notes.push(what);
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }

    /// Checks one op's outcome against the reference.
    fn check(&mut self, kind: &str, out: Res<RunReport>, reference: &RunReport) -> bool {
        self.attempted += 1;
        match out {
            Ok(r) if r == *reference => true,
            Ok(r) => {
                self.fail(format!(
                    "{kind} op {}: report differs from the reference (digest {:016x} vs {:016x})",
                    self.attempted,
                    digest(std::slice::from_ref(&r)),
                    digest(std::slice::from_ref(reference))
                ));
                false
            }
            Err(e) => {
                self.fail(format!("{kind} op {}: {e}", self.attempted));
                false
            }
        }
    }
}

fn run() -> Res<()> {
    let args = parse_args()?;
    // Host cores, counted before pinning narrows what the process sees.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = host::pin_to_current_cpu()?;

    // Each set-up's time, raw and quoted at the reference kernel time
    // by the kernel runs before, during (one per input) and after it.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut scaled_setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    let mut first_digest = None;
    let mut lp = Loop::default();
    for _ in 0..SETUPS {
        // The previous set-up (and its daemon) goes before the clock starts.
        drop(bench.take());
        let mut kernels = vec![host::kernel()];
        let t = Instant::now();
        let b = workloads::setup(&args.workload, args.seed, &mut || {
            kernels.push(host::kernel())
        })?;
        // The set-up's own time, without the kernel runs inside it.
        let secs = t.elapsed().as_secs_f64() - kernels[1..].iter().sum::<f64>();
        kernels.push(host::kernel());
        setups.push(secs);
        scaled_setups.push(secs * host::KERNEL_REF_S / median(kernels));
        let d = digest(b.references());
        if *first_digest.get_or_insert(d) != d {
            lp.problem("reference report differs between set-ups".into());
        }
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let references = bench.references().to_vec();
    let inputs = references.len();
    let run_digest = first_digest.expect("at least one set-up");

    if args.trace {
        spans::enable(KEEP_OPS);
    }
    let start = Instant::now();
    for i in (0..inputs).cycle() {
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let reference = &references[i];
        let t = Instant::now();
        let out = bench.op(i);
        let wall = t.elapsed().as_secs_f64();
        if lp.check("untraced", out, reference) {
            lp.walls.push(wall);
            lp.kernels.push(host::kernel());
            lp.accesses.push(reference.access.count);
        }
        if args.trace {
            let out = bench.traced_op(i);
            let ok = lp.check("traced", out, reference);
            match spans::finish_op() {
                Ok(op) => {
                    let parts: i64 = op.layers().values().sum();
                    if parts != op.wall_ns() as i64 {
                        lp.problem(format!(
                            "layer self times add up to {parts} ns, op wall is {} ns",
                            op.wall_ns()
                        ));
                    } else if ok {
                        if op.layers().get("serve").is_some_and(|&ns| ns < 0) {
                            lp.negative_http += 1;
                        }
                        lp.traced.push(op);
                    }
                }
                Err(e) => lp.problem(e),
            }
        }
    }
    let figures: BTreeMap<&str, f64> = bench.figures()?.into_iter().collect();
    drop(bench);

    let walls = sorted(lp.walls.clone());
    // Every op quoted at the reference kernel time, in run order.
    let scaled: Vec<f64> = lp
        .walls
        .iter()
        .zip(host::scales(&lp.kernels))
        .map(|(w, s)| w * s)
        .collect();
    let n = inputs as f64;
    let sim_mean = references.iter().map(|r| r.access.mean).sum::<f64>() / n;
    let sim_p99 = references.iter().map(|r| r.access.p99).sum::<f64>() / n;
    let metrics = if args.trace {
        let m = layer_metrics(&lp, &walls, &figures);
        // `serve.http_ms` is the round trip minus the replayed daemon
        // work. Below zero, the replay no longer stands in for the
        // daemon, and the split of the served op cannot be trusted.
        if m.iter().any(|m| m.name == "serve.http_ms" && m.value < 0.0) {
            lp.problem(
                "serve.http_ms is negative: the in-process replay outlasts the round trip".into(),
            );
        }
        m
    } else {
        let ms = sorted(scaled.iter().map(|w| w * 1e3).collect());
        let rates = sorted(
            lp.accesses
                .iter()
                .zip(&scaled)
                .map(|(&a, w)| a as f64 / w)
                .collect(),
        );
        let setups = sorted(scaled_setups.clone());
        vec![
            Metric::of("p50_ms", "ms", &ms, quantile(&ms, 0.5)),
            Metric::of("p90_ms", "ms", &ms, quantile(&ms, 0.9)),
            Metric::of(
                "accesses_per_s",
                "1/s",
                &rates,
                lp.accesses.iter().sum::<u64>() as f64 / scaled.iter().sum::<f64>(),
            ),
            Metric::of("setup_s", "s", &setups, quantile(&setups, 0.5)),
            Metric::one("peak_rss_mb", "MB", peak_rss_mb()),
            Metric::one("sim_access_mean", "t_sim", sim_mean),
            Metric::one("sim_access_p99", "t_sim", sim_p99),
        ]
    };

    let ops = walls.len();
    let beyond = ops - ((0.9 * ops as f64).ceil() as usize).min(ops);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} inputs={inputs} ops={} traced_ops={} \
         nproc={} cpu={cpu} commit={} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ops,
        lp.traced.len(),
        nproc,
        git_commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    println!(
        "reference digest={run_digest:016x} accesses/op={} sim_access_mean={sim_mean} \
         sim_access_p99={sim_p99} (means over the run's inputs)",
        references.iter().map(|r| r.access.count).sum::<u64>() as f64 / n,
    );
    let raw_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    println!(
        "host time as measured: p50 {} ms, p90 {} ms, accesses/s {}, setup {} s; \
         kernel p50 {} us (the result quotes host times at {} us)",
        quantile(&raw_ms, 0.5),
        quantile(&raw_ms, 0.9),
        lp.accesses.iter().sum::<u64>() as f64 / walls.iter().sum::<f64>(),
        median(setups.clone()),
        median(lp.kernels.clone()) * 1e6,
        host::KERNEL_REF_S * 1e6,
    );
    println!(
        "fail_ratio={} ({} of {} ops failed); p90 has {beyond} samples beyond it",
        if lp.attempted == 0 {
            0.0
        } else {
            lp.failed as f64 / lp.attempted as f64
        },
        lp.failed,
        lp.attempted
    );
    if lp.negative_http > 0 {
        println!(
            "warning: serve.http_ms was negative in {} of {} traced ops",
            lp.negative_http,
            lp.traced.len()
        );
    }
    for note in &lp.notes {
        println!("problem: {note}");
    }
    if args.trace {
        print_breakdown(&lp, &walls);
        let dir = std::path::Path::new(TRACE_DIR);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}-{}.trace.json", args.workload, args.seed));
        std::fs::write(
            &path,
            spans::chrome_trace(&format!("perfbench {}", args.workload)),
        )?;
        println!(
            "chrome trace of the first {KEEP_OPS} traced ops: {}",
            path.display()
        );
    }
    for m in &metrics {
        match m.quartiles {
            Some((q1, q3, n)) => println!(
                "metric {} = {} {} (q1 {q1}, q3 {q3}, n {n})",
                m.name, m.value, m.unit
            ),
            None => println!("metric {} = {} {}", m.name, m.value, m.unit),
        }
    }

    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = lp.problems == 0 && finite && ops > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        lp.attempted.max(1),
        lp.failed,
        body.join(", ")
    );
    Ok(())
}

/// The per-layer metrics of a traced run (see `README.md`). Layers a
/// workload does not use read `0`.
fn layer_metrics(lp: &Loop, walls: &[f64], figures: &BTreeMap<&str, f64>) -> Vec<Metric> {
    let ops = &lp.traced;
    let per_op = |f: &dyn Fn(&OpTrace) -> f64| median(ops.iter().map(f).collect());
    let per_call_ns = |name: &str| {
        let calls: u64 = ops.iter().map(|o| o.calls(name)).sum();
        let ns: u64 = ops.iter().map(|o| o.self_ns(name)).sum();
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    };
    let layer_ns = |o: &OpTrace, layer: &str| o.layers().get(layer).copied().unwrap_or(0) as f64;
    let fig = |name: &str| figures.get(name).copied().unwrap_or(0.0);
    let events = fig("distsys.events");
    let other: f64 = ops.iter().map(|o| layer_ns(o, "other")).sum();
    let wall: f64 = ops.iter().map(|o| o.wall_ns() as f64).sum();
    let traced_p50 = per_op(&|o| o.wall_ns() as f64 / 1e9);
    let untraced_p50 = quantile(walls, 0.5);

    vec![
        Metric::one(
            "core.solves",
            "count",
            per_op(&|o| o.calls("core.solve") as f64),
        ),
        Metric::one(
            "core.solve_ms",
            "ms",
            per_op(&|o| o.self_ns("core.solve") as f64) / 1e6,
        ),
        Metric::one(
            "core.solve_us_per_call",
            "us",
            per_call_ns("core.solve") / 1e3,
        ),
        Metric::one("planstore.put_us", "us", per_call_ns("planstore.put") / 1e3),
        Metric::one("planstore.get_us", "us", per_call_ns("planstore.get") / 1e3),
        Metric::one(
            "planstore.lookups",
            "count",
            per_op(&|o| o.calls("planstore.get") as f64),
        ),
        Metric::one("planstore.hit_ratio", "ratio", fig("planstore.hit_ratio")),
        Metric::one(
            "distsys.sim_ms",
            "ms",
            per_op(&|o| o.self_ns("distsys.sim") as f64) / 1e6,
        ),
        Metric::one("distsys.events", "count", events),
        Metric::one(
            "distsys.ns_per_event",
            "ns",
            if events > 0.0 {
                per_call_ns("distsys.sim") / events
            } else {
                0.0
            },
        ),
        Metric::one("distsys.accesses", "count", fig("distsys.accesses")),
        Metric::one("distsys.utilisation", "ratio", fig("distsys.utilisation")),
        Metric::one(
            "distsys.wasted_transfer_share",
            "ratio",
            fig("distsys.wasted_transfer_share"),
        ),
        Metric::one(
            "distsys.max_queue_depth",
            "count",
            fig("distsys.max_queue_depth"),
        ),
        Metric::one(
            "generator.build_us",
            "us",
            per_call_ns("generator.build") / 1e3,
        ),
        Metric::one(
            "access.predicts",
            "count",
            per_op(&|o| o.calls("access.scenario") as f64),
        ),
        Metric::one(
            "access.predict_us",
            "us",
            per_call_ns("access.scenario") / 1e3,
        ),
        Metric::one(
            "cache.steps",
            "count",
            per_op(&|o| o.calls("cache.step") as f64),
        ),
        Metric::one("cache.step_us", "us", per_call_ns("cache.step") / 1e3),
        Metric::one("cache.hit_ratio", "ratio", fig("cache.hit_ratio")),
        Metric::one(
            "cache.wasted_per_request",
            "t_sim",
            fig("cache.wasted_per_request"),
        ),
        Metric::one(
            "wire.run_render_us",
            "us",
            per_call_ns("wire.run_render") / 1e3,
        ),
        Metric::one(
            "wire.run_parse_us",
            "us",
            per_call_ns("wire.run_parse") / 1e3,
        ),
        Metric::one(
            "wire.report_render_ms",
            "ms",
            per_call_ns("wire.report_render") / 1e6,
        ),
        Metric::one(
            "wire.report_parse_ms",
            "ms",
            per_call_ns("wire.report_parse") / 1e6,
        ),
        Metric::one("wire.reply_kb", "KB", fig("wire.reply_kb")),
        Metric::one(
            "serve.round_trip_ms",
            "ms",
            per_call_ns("serve.round_trip") / 1e6,
        ),
        Metric::one(
            "serve.http_ms",
            "ms",
            per_op(&|o| layer_ns(o, "serve")) / 1e6,
        ),
        Metric::one("serve.empty_rtt_us", "us", per_call_ns("serve.empty") / 1e3),
        Metric::one("serve.shed", "count", fig("serve.shed")),
        Metric::one("serve.daemon_p50_ms", "ms", fig("serve.daemon_p50_ms")),
        Metric::one("engine.build_us", "us", per_call_ns("engine.build") / 1e3),
        Metric::one(
            "engine.other_ms",
            "ms",
            per_op(&|o| layer_ns(o, "other")) / 1e6,
        ),
        Metric::one(
            "engine.attributed_share",
            "ratio",
            if wall > 0.0 { 1.0 - other / wall } else { 0.0 },
        ),
        Metric::one(
            "bench.trace_overhead",
            "ratio",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50 - 1.0
            } else {
                0.0
            },
        ),
    ]
}

/// Mean per-op time of every layer of the traced ops; the rows add up
/// to the mean traced op wall time.
fn print_breakdown(lp: &Loop, walls: &[f64]) {
    let n = lp.traced.len().max(1) as f64;
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    for op in &lp.traced {
        for (layer, ns) in op.layers() {
            *sums.entry(layer).or_default() += ns as f64 / 1e6 / n;
        }
    }
    let wall: f64 = lp
        .traced
        .iter()
        .map(|o| o.wall_ns() as f64 / 1e6)
        .sum::<f64>()
        / n;
    println!(
        "layer breakdown over {} traced ops (mean ms per op; untraced p50 {:.4} ms):",
        lp.traced.len(),
        quantile(walls, 0.5) * 1e3
    );
    for (layer, ms) in &sums {
        println!("  {layer:<10} {ms:>10.4} ms  {:>6.2}%", 100.0 * ms / wall);
    }
    println!("  {:<10} {wall:>10.4} ms  (traced op wall)", "total");
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
