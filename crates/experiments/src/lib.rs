//! Shared plumbing for the experiment binaries: a tiny `--key value`
//! argument parser, output-directory handling and table printing.
//!
//! Every binary accepts:
//! - `--iters N` / `--requests N` — sample count (each defaults to the
//!   paper's 50,000);
//! - `--seed S` — root seed (default 1999, the paper's year);
//! - `--out DIR` — CSV output directory (default `results/`);
//! - `--quick` — a fast smoke-test configuration for CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::path::PathBuf;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `--key value` pairs and bare `--switch`es from `std::env`.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.flags
                            .insert(key.to_string(), iter.next().expect("peeked"));
                    }
                    _ => out.switches.push(key.to_string()),
                }
            }
        }
        out
    }

    /// Integer argument with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v}"))
            })
            .unwrap_or(default)
    }

    /// `usize` argument with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_u64(key, default as u64) as usize
    }

    /// Boolean switch.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// String argument with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Output directory (`--out`, default `results/`).
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get_str("out", "results"))
    }
}

/// Renders a fixed-width table: header + rows of formatted cells.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_key_values_and_switches() {
        let a = args("--iters 500 --quick --seed 7 --out data");
        assert_eq!(a.get_u64("iters", 1), 500);
        assert_eq!(a.get_u64("seed", 0), 7);
        assert!(a.has("quick"));
        assert!(!a.has("verbose"));
        assert_eq!(a.out_dir(), PathBuf::from("data"));
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.get_u64("iters", 50_000), 50_000);
        assert_eq!(a.out_dir(), PathBuf::from("results"));
    }

    #[test]
    fn consecutive_switches() {
        let a = args("--quick --verbose --n 25");
        assert!(a.has("quick") && a.has("verbose"));
        assert_eq!(a.get_usize("n", 0), 25);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        let a = args("--iters soon");
        let _ = a.get_u64("iters", 0);
    }
}
