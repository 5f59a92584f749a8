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
use occusense_driver::{CliError, Parser, Usage, Verdict};
use occusense_serve::{
    BackpressurePolicy, CheckpointConfig, OnlineTrainingConfig, ServeConfig, ServeRuntime,
    SubmitError,
};
use occusense_sim::{simulate, FaultPlan, OfficeSimulator, ScenarioConfig};
use std::path::PathBuf;
use std::process::ExitCode;

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

The same fleets over the binary wire protocol: `wire_storm --help`
(crate occusense-wire).";

struct Args {
    sensors: usize,
    serve: ServeConfig,
    duration_s: f64,
    faults: FaultPlan,
}

fn parse_cli(p: &mut Parser) -> Result<Args, CliError> {
    let mut args = Args {
        sensors: 6,
        serve: ServeConfig {
            n_shards: 4,
            queue_capacity: 256,
            policy: BackpressurePolicy::DropOldest,
            max_batch: 32,
            online: Some(OnlineTrainingConfig::default()),
            ..ServeConfig::default()
        },
        duration_s: 600.0,
        faults: FaultPlan::new(),
    };
    while let Some(flag) = p.next() {
        match flag.as_str() {
            "--sensors" => args.sensors = p.nonzero(&flag)?,
            "--shards" => args.serve.n_shards = p.nonzero(&flag)?,
            "--batch" => args.serve.max_batch = p.nonzero(&flag)?,
            "--policy" => args.serve.policy = p.value_with(&flag, BackpressurePolicy::parse)?,
            "--duration" => args.duration_s = p.positive(&flag)?,
            "--capacity" => args.serve.queue_capacity = p.value(&flag)?,
            "--faults" => {
                let raw: String = p.value(&flag)?;
                args.faults = FaultPlan::parse(&raw)
                    .map_err(|e| CliError::Invalid(format!("bad --faults {raw:?}: {e}")))?;
            }
            "--checkpoint-dir" => {
                args.serve.checkpoint = Some(CheckpointConfig::new(p.value::<PathBuf>(&flag)?))
            }
            _ => return Err(CliError::unexpected(flag)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let cli = Usage::new("serve_sim", USAGE);
    let args = cli.parse(parse_cli);

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

    let mut config = args.serve.clone();
    // Scripted panic sentinels only fire when supervision is armed for
    // them, so a plain run can never be crashed by record contents.
    config.supervisor.panic_on_trigger =
        args.faults.has_worker_panics() || args.faults.has_trainer_panics();

    eprintln!(
        "serving: {} sensors → {} shards, batch ≤{}, policy {:?}, queue capacity {}",
        args.sensors, config.n_shards, config.max_batch, config.policy, config.queue_capacity
    );
    if !args.faults.is_empty() {
        eprintln!(
            "fault injection: {} scripted faults per sensor stream",
            args.faults.faults().len()
        );
    }
    let (runtime, predictions) =
        ServeRuntime::start(detector, config).unwrap_or_else(|e| cli.abort(e));

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

    let mut submitted = 0u64;
    for (i, s) in sensors.into_iter().enumerate() {
        let (shard, sent, shed) = s.join().expect("sensor thread panicked");
        submitted += sent;
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
    // must be provable from the report or the process fails. The PASS
    // line names exactly the checks that ran.
    let faults = &args.faults;
    let mut verdict = Verdict::new("fault-injection verdict", !faults.is_empty());
    if faults.is_empty() {
        return verdict.finish("");
    }
    let mut checked = vec![format!("all {submitted} records accounted")];
    verdict.check(submitted > 0, || {
        "no record was submitted, so nothing was checked".into()
    });
    let unaccounted = report.unaccounted_records();
    verdict.check(unaccounted == 0, || {
        format!("{unaccounted} records unaccounted for")
    });
    if faults.has_worker_panics() {
        checked.push("worker restarts observed".into());
        verdict.check(report.faults.shard_restarts.iter().sum::<u64>() > 0, || {
            "scripted worker panics produced no supervised restarts".into()
        });
    }
    if faults.has_trainer_panics() {
        checked.push("trainer restarts observed".into());
        verdict.check(report.faults.trainer_restarts > 0, || {
            "scripted trainer panics produced no supervised restarts".into()
        });
    }
    checked.push("no panic escaped supervision".into());
    verdict.check(report.faults.uncontained_panics == 0, || {
        format!(
            "{} panics escaped supervision",
            report.faults.uncontained_panics
        )
    });
    verdict.finish(&checked.join(", "))
}
