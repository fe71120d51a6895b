//! The reproduced figures pinned byte for byte: `fig4`, `fig5`, `fig7`
//! and `fig7 --paper-solver`, each run at `--quick` into a fresh
//! directory, must write exactly the CSVs and the stdout under
//! `tests/golden/<case>/`. The output directory in the `wrote …` lines
//! is replaced by `<out>`, so the goldens do not depend on where the
//! run wrote.
//!
//! On a mismatch the run's directory is kept, with the normalised
//! stdout beside its CSVs, and the failure names it: after an intended
//! change, copy that directory's files over the golden directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const OUT_TOKEN: &str = "<out>";

fn golden_dir(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(case)
}

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The first line at which `got` and `want` differ, for the message.
fn first_difference(got: &str, want: &str) -> String {
    let mut want_lines = want.lines();
    for (i, line) in got.lines().enumerate() {
        match want_lines.next() {
            Some(w) if w == line => {}
            w => return format!("line {}: got {line:?}, golden {w:?}", i + 1),
        }
    }
    match want_lines.next() {
        Some(w) => format!("golden continues with {w:?}"),
        None => "line endings differ".to_string(),
    }
}

fn check(case: &str, exe: &str, extra: &[&str]) {
    let out = std::env::temp_dir().join(format!("skp-goldens-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    fs::create_dir_all(&out).unwrap();

    let run = Command::new(exe)
        .arg("--quick")
        .args(extra)
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(
        run.status.success(),
        "{case} failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout)
        .unwrap()
        .replace(&out.display().to_string(), OUT_TOKEN);
    fs::write(out.join("stdout.txt"), &stdout).unwrap();

    let golden = golden_dir(case);
    let keep = |what: String| -> ! {
        panic!(
            "{case}: {what}\n  output kept in {}\n  to accept it: cp {}/* {}/",
            out.display(),
            out.display(),
            golden.display()
        )
    };
    let (got_files, want_files) = (listing(&out), listing(&golden));
    if got_files != want_files {
        keep(format!("wrote {got_files:?}, golden has {want_files:?}"));
    }
    for name in &want_files {
        let got = fs::read_to_string(out.join(name)).unwrap();
        let want = fs::read_to_string(golden.join(name)).unwrap();
        if got != want {
            keep(format!("{name} differs, {}", first_difference(&got, &want)));
        }
    }
    fs::remove_dir_all(&out).unwrap();
}

#[test]
fn fig4_matches_golden() {
    check("fig4", env!("CARGO_BIN_EXE_fig4"), &[]);
}

#[test]
fn fig5_matches_golden() {
    check("fig5", env!("CARGO_BIN_EXE_fig5"), &[]);
}

#[test]
fn fig7_matches_golden() {
    check("fig7", env!("CARGO_BIN_EXE_fig7"), &[]);
}

#[test]
fn fig7_paper_solver_matches_golden() {
    check(
        "fig7-paper",
        env!("CARGO_BIN_EXE_fig7"),
        &["--paper-solver"],
    );
}
