//! The scheduler's epoch marks and the fault windows of one real
//! observed run, pinned against `tests/golden/marks.txt`: a seeded
//! `faults:` workload on a two-shard farm under `obs memory`. Each
//! mark is written as its epoch, the bits of its simulated time, its
//! event count and its queue depth, so any change to the event loop
//! or to where marks fire moves the file. With `obs none` the same run
//! carries no marks and no windows.

use std::fmt::Write;

use speculative_prefetch::{Engine, RunReport, Workload};

fn run(obs: &str) -> RunReport {
    let mut engine = Engine::builder()
        .backend_spec("sharded:2x8:hash")
        .policy("skp-exact")
        .catalog((0..24).map(|i| 2.0 + (i % 7) as f64).collect())
        .obs(obs)
        .build()
        .expect("valid session");
    engine
        .run(&Workload::generated(
            "faults:out=0@10+30;slow=1x2.5;svc=1.5",
            100,
            1999,
        ))
        .expect("runs")
}

#[test]
fn observed_marks_and_fault_windows_match_their_golden() {
    let phases = run("memory").phases;
    let mut out = String::new();
    for m in &phases.marks {
        writeln!(
            out,
            "mark {} at {:#018x} events {} pending {}",
            m.epoch,
            m.at.to_bits(),
            m.events,
            m.pending
        )
        .unwrap();
    }
    for w in &phases.faults {
        writeln!(
            out,
            "fault shard {} start {:#018x} end {:#018x}",
            w.shard,
            w.start.to_bits(),
            w.end.to_bits()
        )
        .unwrap();
    }
    assert_eq!(out, include_str!("golden/marks.txt"));
}

#[test]
fn unobserved_run_has_no_marks() {
    let phases = run("none").phases;
    assert!(phases.marks.is_empty(), "{} marks", phases.marks.len());
    assert!(phases.faults.is_empty(), "{} windows", phases.faults.len());
}
