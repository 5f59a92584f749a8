//! Regression gate over the criterion-shim's `BENCH_*.json` output.
//!
//! The shim writes `{"results": [{"name": …, "ns_per_iter": …,
//! "p99_ns_per_iter": …}, …]}` on measurement runs. The `bench_gate`
//! binary parses a committed baseline and a fresh run and fails when
//!
//! * a baseline benchmark is missing from the fresh run,
//! * any fresh number is non-finite or non-positive (a NaN that
//!   slipped past the in-bench `assert_finite` guards, or a truncated
//!   file), or
//! * a fresh median is slower than its baseline by more than the
//!   tolerance (default 20% — CI runners are noisy; the committed
//!   baselines themselves are refreshed manually on a quiet machine).
//!
//! Documents are read with the strict `occusense_driver::json`
//! reader: any result object it cannot fully read is an error, not a
//! skip.

use occusense_driver::json::{self, Value};

/// One benchmark measurement from a `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name, e.g. `train/gru_epoch_pooled_t4`.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// 99th-percentile nanoseconds per iteration.
    pub p99_ns_per_iter: f64,
}

/// Parses a full `BENCH_*.json` document into its results. A result
/// whose number is not a number (`NaN`, `null`) is kept as
/// [`f64::NAN`], so the gate flags it by name instead of refusing the
/// whole run. A document that is not JSON, has no `results` array, or
/// has a result without its name or a number field is an error.
pub fn parse_results(doc: &str) -> Result<Vec<BenchResult>, String> {
    let doc = json::parse(doc).map_err(|e| e.to_string())?;
    let Some(Value::Array(results)) = doc.get("results") else {
        return Err("no \"results\" array in document".into());
    };
    let field = |r: &Value, key: &str| {
        r.get(key)
            .cloned()
            .ok_or_else(|| format!("result {r} has no \"{key}\""))
    };
    let num = |r: &Value, key: &str| field(r, key).map(|v| v.as_f64().unwrap_or(f64::NAN));
    results
        .iter()
        .map(|r| {
            Ok(BenchResult {
                name: field(r, "name")?
                    .as_str()
                    .ok_or_else(|| format!("result {r}: \"name\" is not a string"))?
                    .to_string(),
                ns_per_iter: num(r, "ns_per_iter")?,
                p99_ns_per_iter: num(r, "p99_ns_per_iter")?,
            })
        })
        .collect()
}

/// Looks up a benchmark by exact name.
pub fn find<'a>(results: &'a [BenchResult], name: &str) -> Option<&'a BenchResult> {
    results.iter().find(|r| r.name == name)
}

/// Compares a fresh run against a baseline. Returns one human-readable
/// failure per violated contract; an empty vector is a pass.
pub fn compare(baseline: &[BenchResult], current: &[BenchResult], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    // Every fresh number must be a real, positive duration — this is
    // the NaN gate, and it applies to benches the baseline has not
    // heard of yet, too.
    for r in current {
        if !(r.ns_per_iter.is_finite() && r.ns_per_iter > 0.0) {
            failures.push(format!(
                "{}: median is not a positive finite duration ({})",
                r.name, r.ns_per_iter
            ));
        }
        if !(r.p99_ns_per_iter.is_finite() && r.p99_ns_per_iter > 0.0) {
            failures.push(format!(
                "{}: p99 is not a positive finite duration ({})",
                r.name, r.p99_ns_per_iter
            ));
        }
    }
    for b in baseline {
        let Some(c) = find(current, &b.name) else {
            failures.push(format!("{}: present in baseline, missing from run", b.name));
            continue;
        };
        if !(b.ns_per_iter.is_finite() && b.ns_per_iter > 0.0) {
            failures.push(format!(
                "{}: baseline median is unusable ({})",
                b.name, b.ns_per_iter
            ));
            continue;
        }
        let limit = b.ns_per_iter * (1.0 + tolerance);
        if c.ns_per_iter > limit {
            failures.push(format!(
                "{}: regressed {:.1}% over baseline ({:.0} ns vs {:.0} ns, limit {:.0}%)",
                b.name,
                (c.ns_per_iter / b.ns_per_iter - 1.0) * 100.0,
                c.ns_per_iter,
                b.ns_per_iter,
                tolerance * 100.0
            ));
        }
    }
    failures
}

/// Throughput ratio `slow/fast` between two named benchmarks (how many
/// times more iterations per second `fast` sustains), when both exist
/// with usable medians.
pub fn speedup(results: &[BenchResult], fast: &str, slow: &str) -> Option<f64> {
    let f = find(results, fast)?.ns_per_iter;
    let s = find(results, slow)?.ns_per_iter;
    (f.is_finite() && f > 0.0 && s.is_finite()).then_some(s / f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shim-format document; each number is given as JSON text.
    fn doc(entries: &[(&str, &str, &str)]) -> String {
        let num = |text: &str| json::parse(text).unwrap();
        let results = entries
            .iter()
            .map(|(n, v, p)| {
                json::obj([
                    ("name", (*n).into()),
                    ("ns_per_iter", num(v)),
                    ("p99_ns_per_iter", num(p)),
                ])
            })
            .collect();
        json::obj([("results", Value::Array(results))]).to_string()
    }

    fn results(entries: &[(&str, f64)]) -> Vec<BenchResult> {
        entries
            .iter()
            .map(|&(n, v)| BenchResult {
                name: n.to_string(),
                ns_per_iter: v,
                p99_ns_per_iter: v,
            })
            .collect()
    }

    #[test]
    fn parses_the_shim_format_round_trip() {
        let parsed = parse_results(&doc(&[
            ("train/gru_epoch_pooled_t4", "123", "456"),
            ("train/adamw_fused_step_65536", "7", "8"),
        ]))
        .unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "train/gru_epoch_pooled_t4");
        assert_eq!(parsed[0].ns_per_iter, 123.0);
        assert_eq!(parsed[1].p99_ns_per_iter, 8.0);
    }

    #[test]
    fn unparseable_numbers_become_nan_failures_not_parse_errors() {
        let parsed = parse_results(&doc(&[("a", "NaN", "1"), ("b", "null", "2")])).unwrap();
        assert!(parsed[0].ns_per_iter.is_nan());
        let failures = compare(&[], &parsed, 0.2);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains('a'), "{failures:?}");
    }

    #[test]
    fn documents_without_results_are_errors() {
        assert!(parse_results("{}").is_err());
        assert!(parse_results("").is_err());
    }

    #[test]
    fn within_tolerance_passes_beyond_fails() {
        let base = results(&[("x", 100.0)]);
        assert!(compare(&base, &results(&[("x", 119.0)]), 0.2).is_empty());
        let failures = compare(&base, &results(&[("x", 121.0)]), 0.2);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("regressed"), "{failures:?}");
    }

    #[test]
    fn missing_benchmarks_fail_extra_ones_do_not() {
        let failures = compare(&results(&[("gone", 10.0)]), &results(&[("new", 10.0)]), 0.2);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn speedup_is_slow_over_fast() {
        let r = results(&[("fast", 100.0), ("slow", 450.0)]);
        assert_eq!(speedup(&r, "fast", "slow"), Some(4.5));
        assert_eq!(speedup(&r, "fast", "absent"), None);
    }
}
