//! occubench — the occusense benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path occubench/Cargo.toml -- \
//!     --workload live|bulk|retrain --seed N --seconds S --trace 0|1
//! ```
//!
//! One load-generator process drives the public APIs of `wire`,
//! `serve`, `core`, `sim`, `nn` and `tensor::kernels`, verifies every
//! output, and prints a human-readable report followed by one JSON
//! result line (the last line of standard output). `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is a separate run that records a
//! span around every call the benchmark makes into a layer and reports
//! the per-layer metrics, writing the spans to `occubench/out/`. The
//! process exits 1 when any output fails verification and 2 on bad
//! arguments.

mod bulk;
mod fixture;
mod host;
mod hub;
mod live;
mod probes;
mod report;
mod retrain;
mod schedule;
mod serving;
mod stats;
mod trace;

use report::{Metric, ResultLine};
use std::collections::BTreeMap;
use std::io::Write;
use trace::Tracer;

const USAGE: &str =
    "usage: occubench --workload live|bulk|retrain --seed N --seconds S --trace 0|1";

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("goodput_rps", "1/s"),
    ("accuracy_mlp", "%"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of traced runs; 0 where a workload does not
/// exercise the layer.
const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.ingress_ns_per_frame", "ns"),
    ("wire.checksum_ns_per_kib", "ns"),
    ("wire.bytes_per_record", "B"),
    ("wire.client_polls_per_record", "count"),
    ("wire.client_wouldblock_ratio", "ratio"),
    ("wire.hop_rtt_p50_us", "us"),
    ("wire.frames_received", "count"),
    ("wire.records_rejected", "count"),
    ("wire.records_shed", "count"),
    ("wire.malformed_frames", "count"),
    ("serve.latency_p50_us", "us"),
    ("serve.latency_p99_us", "us"),
    ("serve.direct_rtt_p50_us", "us"),
    ("serve.direct_rtt_p99_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.deadline_flush_ratio", "ratio"),
    ("serve.inference_ns_per_record", "ns"),
    ("serve.queue_high_watermark", "count"),
    ("core.score_ns_per_record_b1", "ns"),
    ("core.score_ns_per_record_b32", "ns"),
    ("core.evaluate_s", "s"),
    ("nn.mlp_train_s", "s"),
    ("nn.gru_train_s", "s"),
    ("nn.bootstrap_train_s", "s"),
    ("nn.gru_accuracy_pct", "%"),
    ("tensor.gemm_bias_act_ns_b32", "ns"),
    ("tensor.gemm_tn_ns_b256", "ns"),
    ("tensor.gemm_bias_act_flops_per_call", "flop"),
    ("tensor.gemm_bias_act_bytes_per_call", "B"),
    ("tensor.gemm_tn_flops_per_call", "flop"),
    ("tensor.gemm_tn_bytes_per_call", "B"),
    ("sim.records_per_s", "1/s"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.retrain_s", "s"),
];

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop sensor hubs over TCP.
    Live,
    /// Closed-loop batch frames over the in-process transport.
    Bulk,
    /// Offline simulate + train + score.
    Retrain,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Live => "live",
            Workload::Bulk => "bulk",
            Workload::Retrain => "retrain",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv;
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "live" => Workload::Live,
                    "bulk" => Workload::Bulk,
                    "retrain" => Workload::Retrain,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Verification failures; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable context lines (sample counts, shapes).
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<Tracer>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the round-trip metrics with their sample count.
    pub fn set_rtt(&mut self, what: &str, rtt: stats::Summary) {
        self.set("rtt_p50_us", rtt.p50 as f64 / 1e3);
        self.set("rtt_p99_us", rtt.p99 as f64 / 1e3);
        self.note(format!(
            "rtt: {} samples, {what}{}",
            rtt.count,
            if rtt.p99_supported() {
                ""
            } else {
                " (fewer than 10 beyond the p99)"
            }
        ));
    }

    /// Folds in a serving run's verdict.
    pub fn absorb(&mut self, v: serving::Verdict) {
        self.attempted += v.attempted;
        self.failed += v.failed;
        self.failures.extend(v.failures);
    }
}

/// The generator may use at most `nproc` threads and connections.
pub fn check_generator(threads: usize, connections: usize) -> Result<(), String> {
    let nproc = host::nproc();
    if threads > nproc || connections > nproc {
        return Err(format!(
            "generator would use {threads} threads and {connections} connections on {nproc} CPUs"
        ));
    }
    Ok(())
}

/// Per-layer numbers read off the spans of a traced run and the
/// probes' computed kernel costs.
pub fn layer_times(
    tracer: &Tracer,
    payload_bytes: u64,
    kernels: &BTreeMap<&'static str, probes::KernelCost>,
    v: &mut BTreeMap<&'static str, f64>,
) {
    let t = tracer.self_times();
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    v.insert(
        "wire.encode_ns_per_frame",
        get("wire.encode").self_ns_per_span(),
    );
    let ingress = get("wire.ingress");
    if ingress.count > 0 {
        v.insert(
            "wire.ingress_ns_per_frame",
            ingress.total_ns as f64 / ingress.count as f64,
        );
    }
    if payload_bytes > 0 {
        v.insert(
            "wire.checksum_ns_per_kib",
            get("wire.checksum").self_ns as f64 / (payload_bytes as f64 / 1024.0),
        );
    }
    v.insert(
        "core.score_ns_per_record_b1",
        get("core.predict_record").self_ns_per_span(),
    );
    v.insert(
        "core.score_ns_per_record_b32",
        get("core.predict_batch32").self_ns_per_span() / 32.0,
    );
    for (span, metric, cost) in [
        (
            "tensor.gemm_bias_act",
            "tensor.gemm_bias_act_ns_b32",
            "gemm_bias_act_b32",
        ),
        ("tensor.gemm_tn", "tensor.gemm_tn_ns_b256", "gemm_tn_b256"),
    ] {
        if let Some(k) = kernels.get(cost) {
            let calls = get(span);
            let stacks = (calls.count / k.layers.max(1) as u64).max(1);
            v.insert(metric, calls.self_ns as f64 / stacks as f64);
        }
    }
    if let Some(k) = kernels.get("gemm_bias_act_b32") {
        v.insert("tensor.gemm_bias_act_flops_per_call", k.flops);
        v.insert("tensor.gemm_bias_act_bytes_per_call", k.bytes);
    }
    if let Some(k) = kernels.get("gemm_tn_b256") {
        v.insert("tensor.gemm_tn_flops_per_call", k.flops);
        v.insert("tensor.gemm_tn_bytes_per_call", k.bytes);
    }
}

fn write_spans(workload: &str, tracer: &Tracer) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.tsv"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_tsv(&mut file)?;
    file.flush()?;
    Ok(path)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("occubench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let provenance = host::Provenance::probe(args.seed);
    let name = args.workload.name();
    let run = match args.workload {
        Workload::Live => live::run(&args),
        Workload::Bulk => bulk::run(&args),
        Workload::Retrain => retrain::run(&args),
    };
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("occubench: {name}: {e}");
            std::process::exit(1);
        }
    };
    outcome.set("rss_peak_mb", host::rss_peak_mb().unwrap_or(0.0));

    if let Some(tracer) = &outcome.spans {
        match write_spans(name, tracer) {
            Ok(path) => eprintln!(
                "occubench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => outcome.failures.push(format!("writing spans: {e}")),
        }
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(metric, unit) in wanted {
        let value = match outcome.values.get(metric) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                outcome
                    .failures
                    .push(format!("{name} did not measure {metric}"));
                0.0
            }
        };
        metrics.push(Metric {
            name: metric.to_string(),
            value,
            unit: unit.to_string(),
        });
    }
    let mut line = ResultLine {
        correct: outcome.failures.is_empty(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
    };
    if ResultLine::parse(&line.to_json()).as_ref() != Ok(&line) {
        outcome
            .failures
            .push("the result line does not read back to itself".into());
        line.correct = false;
    }

    println!(
        "occubench {name} (seed {}, {} s, trace {})",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance: {}", provenance.to_json(name, args.trace));
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &line.metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted {} · failed {} · verdict {}",
        line.attempted,
        line.failed,
        if line.correct { "PASS" } else { "FAIL" }
    );
    for f in &outcome.failures {
        eprintln!("occubench: FAIL — {f}");
    }
    println!("{}", line.to_json());
    if !line.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "bulk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::Bulk);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
        assert!(parse(&["--workload", "live", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "live", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "live", "--frobnicate", "1"]).is_err());
    }

    #[test]
    fn metric_names_follow_the_benchmark_rules() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
