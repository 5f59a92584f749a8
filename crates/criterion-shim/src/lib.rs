//! # occusense-criterion
//!
//! A minimal, dependency-free stand-in for the subset of the
//! `criterion` benchmarking API this workspace uses. The build
//! environment has no crates.io access, so the workspace maps the
//! dependency name `criterion` onto this crate.
//!
//! Semantics:
//!
//! * Under `cargo bench`, each benchmark warms up, then runs timed
//!   batches until a fixed wall budget and reports the median
//!   iteration time to stdout.
//! * Under `cargo test` (cargo passes `--test` to `harness = false`
//!   bench targets), each benchmark body runs exactly once so the
//!   target doubles as a smoke test.
//!
//! There are no statistical comparisons against saved baselines — the
//! numbers are for reading, not for regression gating.
//!
//! When the environment variable `OCCUSENSE_BENCH_JSON` names a file,
//! measurement runs additionally write every result there as a JSON
//! document (`{"results": [{"name": …, "ns_per_iter": …,
//! "p99_ns_per_iter": …}, …]}`), rewritten after each benchmark so a
//! partial run still leaves a valid file. This is how the
//! `BENCH_*.json` baselines are produced; `ns_per_iter` is the median
//! sample, `p99_ns_per_iter` the 99th-percentile sample (tail
//! latency).

#![deny(missing_docs)]
#![deny(unsafe_code)]

use occusense_driver::{obj, percentile, Value};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Results accumulated for the optional JSON sink, process-wide (one
/// bench binary may run several `criterion_group!`s, each with its own
/// [`Criterion`]).
static JSON_RESULTS: Mutex<Vec<Value>> = Mutex::new(Vec::new());

/// Appends one measurement to the JSON sink (when enabled) and
/// rewrites the whole document, so the file is complete and valid
/// after every benchmark.
fn record_json(name: &str, ns: u64, p99: u64) {
    let path = std::env::var("OCCUSENSE_BENCH_JSON").unwrap_or_default();
    if path.is_empty() {
        return;
    }
    let mut results = JSON_RESULTS.lock().expect("bench json results poisoned");
    results.push(obj([
        ("name", name.into()),
        ("ns_per_iter", ns.into()),
        ("p99_ns_per_iter", p99.into()),
    ]));
    let doc = obj([("results", Value::Array(results.clone()))]);
    if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
        eprintln!("criterion-shim: cannot write {path}: {e}");
    }
}

/// Wall-clock budget per benchmark in measurement mode.
const MEASURE_BUDGET: Duration = Duration::from_millis(600);

/// The benchmark driver handed to every `criterion_group!` target.
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Criterion {
    /// Builds a driver from the process arguments (`--test` → run each
    /// bench once; a bare string argument filters benches by
    /// substring, as cargo's `cargo bench <filter>` does).
    pub fn from_args() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                // Harness flags cargo/libtest may pass; ignore them.
                "--bench" | "--nocapture" | "-q" | "--quiet" | "--verbose" => {}
                a if a.starts_with('-') => {}
                a => filter = Some(a.to_string()),
            }
        }
        Self { test_mode, filter }
    }

    /// Runs one standalone benchmark.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(&name.to_string(), f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl std::fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }

    fn run_one<F>(&self, name: &str, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            test_mode: self.test_mode,
            samples: Vec::new(),
        };
        f(&mut bencher);
        if self.test_mode {
            println!("test {name} ... ok");
        } else if let (Some(ns), Some(p99)) = (bencher.sample_ns(50.0), bencher.sample_ns(99.0)) {
            println!(
                "{name:<50} {:>14} ns/iter (p99 {})",
                format_thousands(ns),
                format_thousands(p99)
            );
            record_json(name, ns, p99);
        }
    }
}

/// A named collection of benchmarks sharing settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this shim sizes runs by wall
    /// budget, not by sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name);
        self.criterion.run_one(&full, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Times a closure over repeated iterations.
#[derive(Debug)]
pub struct Bencher {
    test_mode: bool,
    samples: Vec<f64>,
}

impl Bencher {
    /// Measures `f`, discarding its output (wrap inputs and outputs in
    /// `std::hint::black_box` in the closure as usual).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            let _ = f();
            return;
        }
        // Warm-up + batch-size calibration: grow the batch until one
        // batch takes ≥ ~1 ms so timer overhead stays negligible.
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                let _ = f();
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
                self.samples.push(elapsed.as_nanos() as f64 / batch as f64);
                break;
            }
            batch *= 2;
        }
        let start = Instant::now();
        while start.elapsed() < MEASURE_BUDGET {
            let t = Instant::now();
            for _ in 0..batch {
                let _ = f();
            }
            self.samples
                .push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
    }

    /// The nearest-rank percentile `p` (0–100) of the recorded
    /// samples, in nanoseconds per iteration. Note the samples are
    /// per-batch means, so this is the tail across timed batches, not
    /// across raw iterations.
    fn sample_ns(&self, p: f64) -> Option<u64> {
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.total_cmp(b));
        (!s.is_empty()).then(|| percentile(&s, p) as u64)
    }
}

fn format_thousands(mut n: u64) -> String {
    let mut parts = Vec::new();
    while n >= 1000 {
        parts.push(format!("{:03}", n % 1000));
        n /= 1000;
    }
    parts.push(n.to_string());
    parts.reverse();
    parts.join(",")
}

/// Declares a function running a list of benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_thousands_groups_digits() {
        assert_eq!(format_thousands(0), "0");
        assert_eq!(format_thousands(999), "999");
        assert_eq!(format_thousands(12_345_678), "12,345,678");
    }

    #[test]
    fn test_mode_runs_each_bench_once() {
        let mut c = Criterion {
            test_mode: true,
            filter: None,
        };
        let mut runs = 0;
        c.bench_function("once", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1);
    }

    #[test]
    fn filter_skips_non_matching_benches() {
        let mut c = Criterion {
            test_mode: true,
            filter: Some("match_me".into()),
        };
        let mut runs = 0;
        c.benchmark_group("group")
            .bench_function("other", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 0);
    }
}
