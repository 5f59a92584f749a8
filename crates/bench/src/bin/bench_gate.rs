//! Bench regression gate (CI): compares fresh `BENCH_*.json`
//! measurement runs against their committed baselines.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [<baseline2> <current2> …]
//!            [--tolerance <fraction>]
//! ```
//!
//! Paths come in `(baseline, current)` pairs so one invocation gates
//! every suite CI measured — train, wire, temporal — under a single
//! tolerance. Exits non-zero when any fresh number is non-finite (NaN
//! gate), a baseline benchmark is missing from its run, or a median
//! regressed past the tolerance (default 0.20). Also reports the
//! pooled-vs-spawn GRU-epoch speedup when both benches are present —
//! the headline number of the persistent compute pool.

use occusense_bench::gate::{compare, parse_results, speedup, BenchResult};
use occusense_driver::{CliError, Parser, Usage, Verdict};
use std::process::ExitCode;

/// The pool's headline pair in `BENCH_train.json`.
const POOLED: &str = "train/gru_epoch_pooled_t4";
const SPAWN: &str = "train/gru_epoch_spawn_t4";

fn load(path: &str) -> Result<Vec<BenchResult>, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_results(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Gates one `(baseline, current)` pair, printing the comparison
/// table. Returns the pair's failure messages (empty = pass).
fn gate_pair(
    baseline_path: &str,
    current_path: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;

    println!("=== {baseline_path} vs {current_path} ===");
    println!(
        "{:<45} {:>14} {:>14} {:>8}",
        "benchmark", "baseline ns", "current ns", "ratio"
    );
    for b in &baseline {
        let (cur, ratio) = match occusense_bench::gate::find(&current, &b.name) {
            Some(c) => (
                format!("{:.0}", c.ns_per_iter),
                format!("{:.2}x", c.ns_per_iter / b.ns_per_iter),
            ),
            None => ("missing".to_string(), "-".to_string()),
        };
        println!(
            "{:<45} {:>14.0} {:>14} {:>8}",
            b.name, b.ns_per_iter, cur, ratio
        );
    }
    if let Some(s) = speedup(&current, POOLED, SPAWN) {
        println!("pooled vs spawn GRU-epoch throughput: {s:.2}x");
    }
    Ok(compare(&baseline, &current, tolerance)
        .into_iter()
        .map(|f| format!("{baseline_path}: {f}"))
        .collect())
}

const USAGE: Usage = Usage::new(
    "bench_gate",
    "bench_gate — gate fresh BENCH_*.json runs against committed baselines

usage: bench_gate <baseline.json> <current.json> [<baseline2> <current2> …]
                  [--tolerance <fraction>]

  --tolerance F   allowed median regression, as a fraction (default 0.20)
  -h, --help      print this help",
);

/// `(tolerance, baseline/current paths)`.
fn parse_cli(p: &mut Parser) -> Result<(f64, Vec<String>), CliError> {
    let (mut tolerance, mut paths) = (0.20, Vec::new());
    let valid = |t: &f64| t.is_finite() && *t >= 0.0;
    while let Some(arg) = p.next() {
        match arg.as_str() {
            "--tolerance" => tolerance = p.value_with(&arg, |v| v.parse().ok().filter(valid))?,
            _ if !arg.starts_with('-') => paths.push(arg),
            _ => return Err(CliError::unexpected(arg)),
        }
    }
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        let pairs = "expected (baseline, current) path pairs";
        return Err(CliError::Invalid(pairs.into()));
    }
    Ok((tolerance, paths))
}

fn main() -> ExitCode {
    let (tolerance, paths) = USAGE.parse(parse_cli);
    let mut total_benchmarks = 0usize;
    let mut verdict = Verdict::new("bench_gate", true);
    for pair in paths.chunks_exact(2) {
        let failures = gate_pair(&pair[0], &pair[1], tolerance).unwrap_or_else(|e| USAGE.abort(e));
        total_benchmarks += load(&pair[0]).map_or(0, |b| b.len());
        failures.into_iter().for_each(|f| verdict.fail(f));
    }
    verdict.finish(&format!(
        "{} benchmarks across {} suites within {:.0}% of baseline",
        total_benchmarks,
        paths.len() / 2,
        tolerance * 100.0
    ))
}
