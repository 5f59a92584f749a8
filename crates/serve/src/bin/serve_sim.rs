//! End-to-end serving driver: replays `OfficeSimulator` scenarios as
//! concurrent live sensor streams through the `occusense-serve`
//! runtime and prints throughput, tail latency, per-queue drop
//! counters and the full metrics registry.
//!
//! ```text
//! cargo run --release -p occusense-serve --bin serve_sim -- \
//!     --sensors 6 --shards 4 --batch 32 \
//!     --policy drop-oldest --duration 600
//! ```
//!
//! With `--faults SPEC` the sensor streams are corrupted on the way in
//! (NaN bursts, amplitude spikes, dropouts, scripted worker/trainer
//! panics) and the run doubles as a fault-injection smoke test: it
//! exits non-zero unless every record is accounted for and every
//! scripted panic produced a supervised restart.

use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_serve::{
    BackpressurePolicy, CheckpointConfig, OnlineTrainingConfig, ServeConfig, ServeRuntime,
    SubmitError,
};
use occusense_sim::{simulate, FaultPlan, OfficeSimulator, ScenarioConfig};
use std::path::PathBuf;

const USAGE: &str = "serve_sim — replay simulated office sensors through the serving runtime

  --sensors N         concurrent simulated sensors (default 6)
  --shards N          worker shards (default 4)
  --batch N           most records one worker flush scores (default 32);
                      workers score whatever is queued, up to N
  --policy P          block | drop-oldest | reject-newest (default drop-oldest)
  --duration S        simulated seconds replayed per sensor (default 600)
  --capacity N        per-shard queue capacity (default 256)
  --faults SPEC       inject faults into every sensor stream and verify
                      recovery. SPEC is comma-separated kind@start[xlen]
                      with kinds nan | spike | drop | panic | trainer-panic,
                      e.g. \"nan@50x5,drop@100x20,panic@300\"
  --checkpoint-dir D  write crash-safe model checkpoints into D
  -h, --help          print this help

networked serving (the occusense-wire gateway; layered above serve, so
it ships as its own driver):

  cargo run --release -p occusense-wire --bin wire_storm -- \\
      --sensors 8 --records 5000 --transport loopback --verify

  wire_storm replays the same simulated fleets over the binary wire
  protocol instead of in-process calls. Its gateway flags mirror the
  ones above (--shards, --batch, --policy, --capacity) and
  add --transport loopback|tcp, --addr HOST:PORT, --records N,
  --wire-batch N, --outbound-policy P (slow-client handling for the
  prediction stream), --seed S and --verify (bitwise comparison of
  every wire prediction against direct in-process scoring). See
  `wire_storm --help`.";

struct Args {
    sensors: usize,
    shards: usize,
    max_batch: usize,
    policy: BackpressurePolicy,
    duration_s: f64,
    queue_capacity: usize,
    faults: FaultPlan,
    checkpoint_dir: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            sensors: 6,
            shards: 4,
            max_batch: 32,
            policy: BackpressurePolicy::DropOldest,
            duration_s: 600.0,
            queue_capacity: 256,
            faults: FaultPlan::new(),
            checkpoint_dir: None,
        }
    }
}

fn parse_value<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| format!("bad value {raw:?} for {what}: {e}"))
}

/// Parses the command line. `Err` carries a user-facing message — the
/// caller prints it with the usage text and exits non-zero; malformed
/// flags must never panic.
fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv;
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        const KNOWN: &[&str] = &[
            "--sensors",
            "--shards",
            "--batch",
            "--policy",
            "--duration",
            "--capacity",
            "--faults",
            "--checkpoint-dir",
        ];
        if !KNOWN.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag:?}"));
        }
        let raw = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--sensors" => args.sensors = parse_value(&raw, "--sensors")?,
            "--shards" => args.shards = parse_value(&raw, "--shards")?,
            "--batch" => args.max_batch = parse_value(&raw, "--batch")?,
            "--policy" => {
                args.policy = BackpressurePolicy::parse(&raw).ok_or_else(|| {
                    format!("unknown policy {raw:?} (block | drop-oldest | reject-newest)")
                })?;
            }
            "--duration" => args.duration_s = parse_value(&raw, "--duration")?,
            "--capacity" => args.queue_capacity = parse_value(&raw, "--capacity")?,
            "--faults" => {
                args.faults = FaultPlan::parse(&raw).map_err(|e| format!("bad --faults: {e}"))?;
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(raw)),
            _ => unreachable!("flag was vetted against KNOWN"),
        }
    }
    if args.sensors == 0 {
        return Err("--sensors must be >= 1".into());
    }
    if args.shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    if args.max_batch == 0 {
        return Err("--batch must be >= 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("serve_sim: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Offline bootstrap: train the paper's MLP on a quick scenario, the
    // same way EXPERIMENTS.md trains the Table IV models.
    eprintln!("training bootstrap detector…");
    let train = simulate(&ScenarioConfig::quick(1200.0, 7));
    let detector = OccupancyDetector::train(
        &train,
        &DetectorConfig {
            model: ModelKind::Mlp,
            mlp_epochs: 4,
            seed: 7,
            ..DetectorConfig::default()
        },
    );

    let mut config = ServeConfig {
        n_shards: args.shards,
        queue_capacity: args.queue_capacity,
        policy: args.policy,
        max_batch: args.max_batch,
        online: Some(OnlineTrainingConfig::default()),
        ..ServeConfig::default()
    };
    // Scripted panic sentinels only fire when supervision is armed for
    // them, so a plain run can never be crashed by record contents.
    config.supervisor.panic_on_trigger =
        args.faults.has_worker_panics() || args.faults.has_trainer_panics();
    config.checkpoint = args.checkpoint_dir.clone().map(CheckpointConfig::new);

    eprintln!(
        "serving: {} sensors → {} shards, batch ≤{}, policy {:?}, queue capacity {}",
        args.sensors, args.shards, args.max_batch, args.policy, args.queue_capacity
    );
    if !args.faults.is_empty() {
        eprintln!(
            "fault injection: {} scripted faults per sensor stream",
            args.faults.faults().len()
        );
    }
    let (runtime, predictions) = match ServeRuntime::start(detector, config) {
        Ok(started) => started,
        Err(e) => {
            eprintln!("serve_sim: {e}");
            std::process::exit(2);
        }
    };

    // One thread per sensor, each flood-replaying its own simulated
    // scenario (distinct seed ⇒ distinct occupancy schedule) as fast as
    // the runtime will take it. Labels ride along so the continual
    // trainer keeps publishing hot swaps while we serve.
    let sensors: Vec<_> = (0..args.sensors)
        .map(|i| {
            let mut client = runtime.client(&format!("sensor-{i}"));
            let scenario = ScenarioConfig::quick(args.duration_s, 100 + i as u64);
            let plan = args.faults.clone();
            std::thread::Builder::new()
                .name(format!("sensor-{i}"))
                .spawn(move || {
                    let mut sent = 0u64;
                    let mut shed = 0u64;
                    let stream = OfficeSimulator::new(scenario).stream().with_faults(plan);
                    for record in stream {
                        let label = record.occupancy();
                        match client.submit_labelled(record, label) {
                            Ok(()) => sent += 1,
                            Err(SubmitError::Rejected) => shed += 1,
                            Err(SubmitError::Shutdown) => break,
                        }
                    }
                    (client.shard(), sent, shed)
                })
                .expect("spawn sensor")
        })
        .collect();

    // Drain predictions concurrently so the output channel never backs
    // up; keep a light running tally for the final print.
    let drain = std::thread::spawn(move || {
        let (mut n, mut occupied, mut max_version) = (0u64, 0u64, 0u64);
        for p in predictions {
            n += 1;
            occupied += u64::from(p.occupied);
            max_version = max_version.max(p.model_version);
        }
        (n, occupied, max_version)
    });

    for (i, s) in sensors.into_iter().enumerate() {
        let (shard, sent, shed) = s.join().expect("sensor thread panicked");
        eprintln!("sensor-{i}: shard {shard}, submitted {sent}, shed at ingress {shed}");
    }

    let report = runtime.shutdown();
    let (predicted, occupied, max_version) = drain.join().expect("drain thread panicked");

    println!("\n=== serve_sim report ===");
    print!("{report}");
    println!(
        "predictions delivered: {predicted} ({occupied} occupied) · newest model seen v{max_version}"
    );
    println!("\n=== metrics ===\n{}", report.metrics_text);

    // In faults mode the run is a verdict, not just a demo: recovery
    // must be provable from the report or the process fails.
    if !args.faults.is_empty() {
        let mut failures = Vec::new();
        let unaccounted = report.unaccounted_records();
        if unaccounted != 0 {
            failures.push(format!("{unaccounted} records unaccounted for"));
        }
        if args.faults.has_worker_panics() && report.faults.shard_restarts.iter().sum::<u64>() == 0
        {
            failures.push("scripted worker panics produced no supervised restarts".into());
        }
        if args.faults.has_trainer_panics() && report.faults.trainer_restarts == 0 {
            failures.push("scripted trainer panics produced no supervised restarts".into());
        }
        if report.faults.uncontained_panics > 0 {
            failures.push(format!(
                "{} panics escaped supervision",
                report.faults.uncontained_panics
            ));
        }
        if failures.is_empty() {
            println!("fault-injection verdict: PASS (all records accounted, restarts observed)");
        } else {
            for f in &failures {
                eprintln!("fault-injection verdict: FAIL — {f}");
            }
            std::process::exit(1);
        }
    }
}
