//! Self-test of the benchmark: every workload in `BENCHMARK.json` runs a
//! few ops on a non-default seed, untraced and traced. Each metric the
//! file names must come back with its unit and a finite value, and no op
//! may fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use speculative_prefetch::wire::Json;

/// Not a seed any documented run uses.
const SEED: &str = "424242";

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key).unwrap_or_else(|| panic!("missing '{key}'"))
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    field(j, key).as_str().expect("a string")
}

fn run(workload: &str, trace: &str) -> Json {
    // A short run still completes a few ops on every workload.
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "0.3"])
        .args(["--trace", trace])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line is not JSON: {e}"))
}

#[test]
fn every_workload_emits_every_named_metric() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON");
    let workloads = field(&spec, "workloads").as_arr().expect("a list");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let workload = text(w, "name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let ctx = format!("{workload} --trace {trace}");
            assert_eq!(field(&result, "correct").as_bool(), Some(true), "{ctx}");
            assert_eq!(
                field(&result, "failed").as_u64(),
                Some(0),
                "{ctx}: fail_ratio is not 0"
            );
            assert!(field(&result, "attempted").as_u64() >= Some(1), "{ctx}");
            let metrics = field(&result, "metrics");
            for m in field(&spec, list).as_arr().expect("a list") {
                let name = text(m, "name");
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{ctx}: metric {name} missing"));
                assert_eq!(text(got, "unit"), text(m, "unit"), "{ctx}: unit of {name}");
                let value = field(got, "value").as_f64();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{ctx}: {name} is not finite"
                );
            }
        }
    }
}
