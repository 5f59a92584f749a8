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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 0.20;
    let mut paths = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t.is_finite() && t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("bench_gate: --tolerance needs a non-negative number");
                    return ExitCode::from(2);
                }
            },
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() || paths.len() % 2 != 0 {
        eprintln!(
            "usage: bench_gate <baseline.json> <current.json> \
             [<baseline2> <current2> …] [--tolerance <fraction>]"
        );
        return ExitCode::from(2);
    }

    let mut total_benchmarks = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for pair in paths.chunks_exact(2) {
        match gate_pair(&pair[0], &pair[1], tolerance) {
            Ok(pair_failures) => {
                total_benchmarks += load(&pair[0]).map_or(0, |b| b.len());
                failures.extend(pair_failures);
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if failures.is_empty() {
        println!(
            "bench_gate: PASS ({} benchmarks across {} suites within {:.0}% of baseline)",
            total_benchmarks,
            paths.len() / 2,
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_gate: FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
