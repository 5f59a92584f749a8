//! # occusense-driver
//!
//! The one harness every occusense binary is built on: the flag
//! [`Parser`] and [`Usage`] refusals ([`cli`]), the JSON [`Value`]
//! writer and reader ([`json`]), and the PASS/FAIL [`Verdict`] behind
//! every exit status and `--json` summary. DESIGN.md §15 describes the
//! conventions; the README's "Drivers" section states them for users.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod json;

pub use cli::{no_flags, CliError, Parser, Usage};
pub use json::{obj, Value};

use std::process::ExitCode;

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted sample;
/// the default value (zero) for an empty sample.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len().max(1)) - 1)
        .copied()
        .unwrap_or_default()
}

/// The outcome of a self-checking run.
#[derive(Debug)]
pub struct Verdict {
    name: &'static str,
    enabled: bool,
    failures: Vec<String>,
}

impl Verdict {
    /// A verdict printed as `"{name}: PASS …"` / `"{name}: FAIL — …"`.
    /// A run not asked to check itself (`!enabled`) reports `"off"`,
    /// but still fails on any failure it records.
    pub fn new(name: &'static str, enabled: bool) -> Self {
        Self {
            name,
            enabled,
            failures: Vec::new(),
        }
    }

    /// Records one failure.
    pub fn fail(&mut self, failure: impl Into<String>) {
        self.failures.push(failure.into());
    }

    /// Records `failure()` unless `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.fail(failure());
        }
    }

    /// `"off"`, `"pass"` or `"fail"`.
    pub fn label(&self) -> &'static str {
        match (self.enabled, self.failures.is_empty()) {
            (false, _) => "off",
            (true, true) => "pass",
            (true, false) => "fail",
        }
    }

    /// Writes the `summary` object to `path` with a trailing
    /// `"verdict"` field. A write error is reported, not fatal: the
    /// verdict still decides the exit status.
    pub fn write_summary(&self, path: &str, mut summary: Value) {
        if let Value::Object(fields) = &mut summary {
            fields.push(("verdict".to_string(), self.label().into()));
        }
        match std::fs::write(path, format!("{summary}\n")) {
            Ok(()) => eprintln!("soak summary written to {path}"),
            Err(e) => eprintln!("{}: cannot write {path}: {e}", self.name),
        }
    }

    /// Prints the verdict and returns the exit status: on a pass,
    /// `"{name}: PASS ({pass})"` (when enabled) and 0; otherwise one
    /// `"{name}: FAIL — {failure}"` line per failure on stderr and 1.
    pub fn finish(self, pass: &str) -> ExitCode {
        if self.failures.is_empty() {
            if self.enabled {
                println!("{}: PASS ({pass})", self.name);
            }
            return ExitCode::SUCCESS;
        }
        for f in &self.failures {
            eprintln!("{}: FAIL — {f}", self.name);
        }
        ExitCode::FAILURE
    }
}
