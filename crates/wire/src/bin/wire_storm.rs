//! Multi-sensor wire load generator: replays simulated office sensor
//! fleets through the `occusense-wire` gateway over loopback or TCP
//! and (with `--verify`) proves the delivered predictions bitwise
//! identical to direct in-process scoring.
//!
//! The sensors run on the `occusense_wire::storm` engine: every sensor
//! is one non-blocking `WireClient` and `--drivers` threads each
//! sweep their share of the connections, so the sensor count is
//! bounded by memory, not OS threads, and every delivered prediction
//! also yields a round-trip latency sample.
//!
//! ```text
//! cargo run --release -p occusense-wire --bin wire_storm -- \
//!     --sensors 8 --records 5000 --transport loopback --verify
//! ```
//!
//! The verification contract: the gateway runs with online training
//! disabled (model version pinned at 1) and lossless `Block` policies
//! by default, every sensor's records come from the shared
//! `occusense_sim::fleet_stream` replay source, and every prediction
//! that comes back over the wire must satisfy
//! `proba.to_bits() == detector.predict_record(record).1.to_bits()`.
//! Every seq must resolve exactly once, as a prediction or a NACK: a
//! duplicate, a resolution of a seq never sent, a seq left unresolved,
//! any mismatch or any unaccounted record exits non-zero, naming the
//! seq — the same verdict discipline as `serve_sim --faults`.
//!
//! `--temporal` boots the stateful GRU sequence runtime instead: each
//! sensor's hidden state is carried between micro-batches on the
//! server. The `--verify` replay then rescores every sensor's
//! delivered stream with `score_stream` from a zero state — by row
//! independence of the kernels the multiplexed server must match it
//! bitwise. `--swap` hot-swaps a second temporal model mid-storm;
//! every prediction carries the version that scored it, so the replay
//! splits each sensor's stream at the version change and restarts the
//! reference state from zeros exactly where the server did.

use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_core::temporal::{TemporalConfig, TemporalDetector};
use occusense_driver::{obj, percentile, CliError, Parser, Usage, Value, Verdict};
use occusense_serve::{BackpressurePolicy, ServeConfig};
use occusense_sim::{fleet_stream, simulate, ScenarioConfig};
use occusense_wire::storm::{self, Reference, SensorPlan, StormConfig, Tally};
use occusense_wire::{
    loopback, tcp_connect, tcp_listen, Acceptor, Connection, Gateway, GatewayConfig,
    LoopbackConfig, TcpConfig, TransportError,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "wire_storm — multi-sensor load generator for the occusense wire gateway

  --sensors N           concurrent wire clients (default 8)
  --records N           records replayed per sensor (default 5000)
  --transport T         loopback | tcp (default loopback)
  --addr A              tcp listen address (default 127.0.0.1:0 = OS port)
  --shards N            worker shards (default 4)
  --batch N             most records one worker flush scores; workers
                        score whatever is queued, up to N (default 32)
  --wire-batch N        records per Batch frame; 1 = single Record
                        frames (default 16)
  --policy P            ingress backpressure: block | drop-oldest |
                        reject-newest (default block)
  --outbound-policy P   per-connection prediction queue policy
                        (default block)
  --capacity N          per-shard ingress queue capacity (default 1024)
  --seed S              fleet base seed; sensor i replays
                        fleet_stream(duration, seed, i) (default 100)
  --drivers N           client driver threads; each sweeps its share
                        of the non-blocking connections (default 1)
  --reactors N          gateway reactor threads (default 1)
  --json PATH           write a machine-readable soak summary (wall
                        time, throughput, RTT percentiles, the
                        gateway's full report)
  --temporal            serve the stateful GRU sequence model instead
                        of the per-frame MLP (per-sensor hidden state
                        carried server-side)
  --swap                hot-swap a second temporal model mid-storm,
                        once ~25% of predictions are delivered
                        (requires --temporal); state zero-resets are
                        verified through per-prediction versions
  --verify              bitwise-compare every delivered prediction
                        against direct in-process scoring and exit 1 on
                        any mismatch, lost prediction or accounting
                        residue
  -h, --help            print this help";

struct Args {
    sensors: usize,
    records: usize,
    tcp: bool,
    addr: String,
    /// Online training is off: the model only changes version at an
    /// explicit `--swap`.
    serve: ServeConfig,
    gateway: GatewayConfig,
    wire_batch: usize,
    seed: u64,
    drivers: usize,
    json: Option<String>,
    temporal: bool,
    swap: bool,
    verify: bool,
}

fn parse_cli(p: &mut Parser) -> Result<Args, CliError> {
    let mut args = Args {
        sensors: 8,
        records: 5000,
        tcp: false,
        addr: "127.0.0.1:0".to_string(),
        serve: ServeConfig {
            n_shards: 4,
            queue_capacity: 1024,
            policy: BackpressurePolicy::Block,
            max_batch: 32,
            online: None,
            ..ServeConfig::default()
        },
        gateway: GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            reactors: 1,
            ..GatewayConfig::default()
        },
        wire_batch: 16,
        seed: 100,
        drivers: 1,
        json: None,
        temporal: false,
        swap: false,
        verify: false,
    };
    let policy = BackpressurePolicy::parse;
    while let Some(flag) = p.next() {
        match flag.as_str() {
            "--verify" => args.verify = true,
            "--temporal" => args.temporal = true,
            "--swap" => args.swap = true,
            "--sensors" => args.sensors = p.nonzero(&flag)?,
            "--records" => args.records = p.nonzero(&flag)?,
            "--transport" => {
                args.tcp = p.value_with(&flag, |raw| match raw {
                    "loopback" => Some(false),
                    "tcp" => Some(true),
                    _ => None,
                })?
            }
            "--addr" => args.addr = p.value(&flag)?,
            "--shards" => args.serve.n_shards = p.value(&flag)?,
            "--batch" => args.serve.max_batch = p.nonzero(&flag)?,
            "--wire-batch" => args.wire_batch = p.nonzero(&flag)?,
            "--policy" => args.serve.policy = p.value_with(&flag, policy)?,
            "--outbound-policy" => args.gateway.outbound_policy = p.value_with(&flag, policy)?,
            "--capacity" => args.serve.queue_capacity = p.value(&flag)?,
            "--seed" => args.seed = p.value(&flag)?,
            "--drivers" => args.drivers = p.nonzero(&flag)?,
            "--reactors" => args.gateway.reactors = p.nonzero(&flag)?,
            "--json" => args.json = Some(p.value(&flag)?),
            _ => return Err(CliError::unexpected(flag)),
        }
    }
    if args.swap && !args.temporal {
        return Err(CliError::Invalid("--swap requires --temporal".into()));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let cli = Usage::new("wire_storm", USAGE);
    let args = cli.parse(parse_cli);
    let transport = if args.tcp { "tcp" } else { "loopback" };
    let model = if args.temporal { "temporal" } else { "frame" };

    // Offline bootstrap, same recipe as serve_sim. Online training is
    // disabled (`Args::serve`), the precondition for replaying wire
    // predictions bitwise against identical local models.
    let train = simulate(&ScenarioConfig::quick(1200.0, 7));
    let temporal_recipe = |seed| TemporalConfig {
        window: 8,
        stride: 2,
        hidden: 12,
        epochs: 2,
        seed,
        ..TemporalConfig::default()
    };
    // At storm scale every sensor dials in the drivers' first sweep,
    // so the handshake deadline has to cover the whole fleet's first
    // sweep, not one socket.
    let mut gateway_cfg = args.gateway;
    gateway_cfg.handshake_timeout =
        Duration::from_secs(5).max(Duration::from_millis(args.sensors as u64 * 20));
    type Connect = Box<dyn Fn() -> Result<Box<dyn Connection>, TransportError> + Sync>;
    let (acceptor, connect): (Box<dyn Acceptor>, Connect) = if args.tcp {
        let (acceptor, local) = tcp_listen(&args.addr, TcpConfig::default())
            .unwrap_or_else(|e| cli.abort(format!("cannot listen on {}: {e}", args.addr)));
        eprintln!("listening on {local}");
        let addr = local.to_string();
        (
            Box::new(acceptor),
            Box::new(move || tcp_connect(&addr, TcpConfig::default())),
        )
    } else {
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        (Box::new(acceptor), Box::new(move || connector.connect()))
    };
    let serve = args.serve.clone();
    let mut frame_model = Vec::new();
    let mut published = BTreeMap::new();
    let (gateway, swap_model) = if args.temporal {
        eprintln!("training bootstrap temporal (GRU) model…");
        let boot = TemporalDetector::train(&train, &temporal_recipe(7));
        let swap = args.swap.then(|| {
            eprintln!("training swap temporal model…");
            TemporalDetector::train(&train, &temporal_recipe(23))
        });
        published.insert(1, boot.clone());
        let gateway = Gateway::start_temporal(boot, serve, gateway_cfg, acceptor);
        (gateway, swap)
    } else {
        eprintln!("training bootstrap detector…");
        let detector = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 4,
                seed: 7,
                ..DetectorConfig::default()
            },
        );
        frame_model.push(detector.clone());
        let gateway = Gateway::start(detector, serve, gateway_cfg, acceptor);
        (gateway, None)
    };
    let gateway = gateway.unwrap_or_else(|e| cli.abort(e));

    // Replay sources are collected up front so the verify pass can
    // rescore the exact same records locally.
    let rate = ScenarioConfig::quick(1.0, 0).sample_rate_hz;
    let duration_s = args.records as f64 / rate + 1.0;
    let plans: Vec<SensorPlan> = (0..args.sensors)
        .map(|i| SensorPlan {
            tenant: String::new(),
            sensor: format!("sensor-{i}"),
            model: 0,
            records: fleet_stream(duration_s, args.seed, i as u64)
                .take(args.records)
                .collect(),
        })
        .collect();

    let started = Instant::now();
    eprintln!(
        "storming: {} sensors × {} records over {} → {} shards ({} model, ingress {:?}, outbound {:?}, wire batch {})",
        args.sensors,
        args.records,
        transport,
        args.serve.n_shards,
        model,
        args.serve.policy,
        args.gateway.outbound_policy,
        args.wire_batch
    );

    // A few driver threads sweep every sensor's non-blocking client —
    // no per-sensor OS threads, so 10k connections is just memory.
    let drivers = args.drivers.min(args.sensors);
    let config = StormConfig {
        drivers,
        wire_batch: args.wire_batch,
        window: usize::MAX,
    };
    let (runs, ()) = storm::run(plans, &config, &connect, |progress| {
        // The mid-storm hot swap: published once ~25% of the records
        // have resolved, so it lands mid-stream regardless of machine
        // speed. Replay correctness does not depend on *when* it
        // lands: every prediction carries the version that scored it,
        // and the verifier splits each sensor's stream there.
        if let Some(next) = swap_model {
            progress.wait_for(0.25, Duration::from_secs(120));
            let version = gateway.publish_temporal(next.clone());
            published.insert(version, next);
            eprintln!(
                "hot-swapped temporal model → v{version} (after {} of {} resolutions)",
                progress.resolved(),
                args.sensors * args.records
            );
        }
    });
    let report = gateway.shutdown();
    let wall = started.elapsed();

    let booking = Tally::of(&runs);
    for run in &runs {
        let t = Tally::of([run]);
        let errors = if run.errors.is_empty() {
            String::new()
        } else {
            format!(", errors: {}", run.errors.join("; "))
        };
        eprintln!(
            "{}: shard {}, sent {}, predictions {}, nacks {}{errors}",
            run.plan.sensor, run.shard, t.booked, t.predicted, t.nacked
        );
    }

    // One throughput figure for stdout and the summary: records the
    // clients sent per wall-clock second.
    let records_per_s = booking.booked as f64 / wall.as_secs_f64().max(1e-9);
    println!("\n=== wire_storm report ===");
    print!("{report}");
    println!(
        "wire wall time {wall:.2?} · {records_per_s:.0} records/s end-to-end · {} predictions delivered to clients · {} NACKs",
        booking.predicted, booking.nacked
    );
    let mut rtts: Vec<u64> = runs.iter().flat_map(|r| r.rtts.iter().copied()).collect();
    rtts.sort_unstable();
    let rtt_us = |p: f64| percentile(&rtts, p) as f64 / 1e3;
    if !rtts.is_empty() {
        println!(
            "round trip (enqueue → prediction): p50 {:.1} µs · p95 {:.1} µs · p99 {:.1} µs over {} samples",
            rtt_us(50.0),
            rtt_us(95.0),
            rtt_us(99.0),
            rtts.len()
        );
    }
    println!("\n=== metrics ===\n{}", report.metrics_text);

    let mut verdict = Verdict::new("verify verdict", args.verify);
    for run in &runs {
        run.errors
            .iter()
            .for_each(|e| verdict.fail(format!("{}: {e}", run.plan.sensor)));
    }
    if args.temporal {
        let mut by_version: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, p) in runs.iter().flat_map(|r| r.booking.predictions()) {
            *by_version.entry(p.model_version).or_default() += 1;
        }
        let counts: Vec<_> = by_version
            .iter()
            .map(|(v, n)| format!("v{v}×{n}"))
            .collect();
        eprintln!("predictions by model version: {}", counts.join(", "));
        verdict.check(!(args.swap && args.verify && by_version.len() < 2), || {
            "--swap landed after every record was scored; raise --records".to_string()
        });
    }
    if args.verify {
        let reference = if args.temporal {
            Reference::Temporal(&published)
        } else {
            Reference::Frame(&frame_model)
        };
        storm::verify(&runs, &reference, &mut verdict);
        let unaccounted = report.unaccounted_records();
        verdict.check(unaccounted == 0, || {
            format!("{unaccounted} records unaccounted for")
        });
        verdict.check(report.wire.predictions_sent == booking.predicted, || {
            format!(
                "gateway sent {} predictions but clients booked {}",
                report.wire.predictions_sent, booking.predicted
            )
        });
    }
    if let Some(path) = &args.json {
        let summary = obj([
            ("sensors", args.sensors.into()),
            ("records_per_sensor", args.records.into()),
            ("transport", transport.into()),
            ("drivers", drivers.into()),
            ("reactors", args.gateway.reactors.into()),
            ("wire_batch", args.wire_batch.into()),
            ("wall_s", Value::fixed(wall.as_secs_f64(), 3)),
            ("records_per_s", (records_per_s.round() as u64).into()),
            ("nacks", booking.nacked.into()),
            ("unaccounted", report.unaccounted_records().into()),
            (
                "rtt_us",
                obj([
                    ("p50", Value::fixed(rtt_us(50.0), 1)),
                    ("p95", Value::fixed(rtt_us(95.0), 1)),
                    ("p99", Value::fixed(rtt_us(99.0), 1)),
                    ("samples", rtts.len().into()),
                ]),
            ),
            ("booking", booking.to_json()),
            ("report", report.to_json()),
        ]);
        verdict.write_summary(path, summary);
    }
    verdict.finish(&format!(
        "{} sensors, {} records, {model} scoring bitwise identical to in-process replay, every seq resolved once, 0 unaccounted",
        args.sensors, booking.booked
    ))
}
