//! Multi-sensor wire load generator: replays simulated office sensor
//! fleets through the `occusense-wire` gateway over loopback or TCP
//! and (with `--verify`) proves the delivered predictions bitwise
//! identical to direct in-process scoring.
//!
//! Every sensor is one non-blocking [`WireClient`]; `--drivers`
//! threads each sweep their share of the connections, so the sensor
//! count is bounded by memory, not OS threads, and every delivered
//! prediction also yields a round-trip latency sample.
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
//! Any mismatch, any unaccounted record, or any lost prediction exits
//! non-zero — the same verdict discipline as `serve_sim --faults`.
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
use occusense_dataset::CsiRecord;
use occusense_driver::{obj, percentile, CliError, Parser, Usage, Value, Verdict};
use occusense_serve::{BackpressurePolicy, ServeConfig, ServeReport};
use occusense_sim::{fleet_stream, simulate, ScenarioConfig};
use occusense_wire::{
    loopback, tcp_connect, tcp_listen, Acceptor, ClientEvent, Connection, Gateway, GatewayConfig,
    LoopbackConfig, PredictionFrame, TcpConfig, TransportError, WireClient, WireError,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// Opens one client connection to the gateway, over either transport.
type Connect = Box<dyn Fn() -> Result<Box<dyn Connection>, TransportError>>;

/// What one sensor brings home.
struct SensorOutcome {
    index: usize,
    shard: u32,
    records: Vec<CsiRecord>,
    sent: u64,
    predictions: Vec<PredictionFrame>,
    nacks: u64,
    errors: Vec<String>,
}

impl SensorOutcome {
    fn new(index: usize, records: Vec<CsiRecord>) -> Self {
        Self {
            index,
            shard: 0,
            records,
            sent: 0,
            predictions: Vec::new(),
            nacks: 0,
            errors: Vec::new(),
        }
    }
}

/// One sensor inside a driver thread: a non-blocking [`WireClient`]
/// replaying its records one frame at a time. A driver sweeps
/// thousands of these — no per-sensor OS threads, which is what makes
/// the 10k-connection soak runnable.
struct Sensor {
    client: WireClient,
    outcome: SensorOutcome,
    next: usize,
    /// Enqueue instant per seq — RTT is measured from the moment the
    /// record was handed to the client.
    sent_at: Vec<Instant>,
    /// Round-trip nanoseconds, one per delivered prediction.
    rtts: Vec<u64>,
    done: bool,
}

impl Sensor {
    fn new(client: WireClient, outcome: SensorOutcome) -> Self {
        let expected = outcome.records.len();
        Self {
            client,
            outcome,
            next: 0,
            sent_at: Vec::with_capacity(expected),
            rtts: Vec::with_capacity(expected),
            done: false,
        }
    }

    fn fail(&mut self, message: String) {
        self.outcome.errors.push(message);
        self.done = true;
    }

    /// Sends the next `wire_batch` records — labelled on even sequence
    /// numbers, so both label encodings are exercised — as one
    /// `Record` frame (`wire_batch` 1) or one `Batch` frame.
    fn send_chunk(&mut self, wire_batch: usize) -> Result<(), WireError> {
        let records = &self.outcome.records;
        let end = (self.next + wire_batch.max(1)).min(records.len());
        let labelled: Vec<(CsiRecord, Option<u8>)> = records[self.next..end]
            .iter()
            .enumerate()
            .map(|(k, r)| (*r, (self.next + k).is_multiple_of(2).then(|| r.occupancy())))
            .collect();
        self.sent_at.resize(end, Instant::now());
        match labelled.as_slice() {
            [(record, label)] if wire_batch <= 1 => self.client.send(*record, *label)?,
            chunk => self.client.send_batch(chunk)?,
        };
        self.next = end;
        Ok(())
    }

    /// One sweep: keep queueing frames (and finally the `Goodbye`) for
    /// as long as each one leaves at once, pump, and take whatever
    /// events arrived. Returns whether anything moved.
    fn step(&mut self, wire_batch: usize, progress: &AtomicU64) -> bool {
        let mut moved = false;
        while self.client.is_ready() && self.client.backlog() == 0 {
            let queued = if self.next < self.outcome.records.len() {
                self.send_chunk(wire_batch)
            } else {
                self.client.finish().map(|sent| self.outcome.sent = sent)
            };
            if let Err(e) = queued {
                self.fail(format!("send: {e}"));
                return true;
            }
            moved = true;
        }
        match self.client.pump() {
            Ok(pumped) => moved |= pumped,
            Err(e) => {
                self.fail(e.to_string());
                return true;
            }
        }
        self.outcome.shard = self.client.shard();
        while let Some(event) = self.client.next_event() {
            moved = true;
            match event {
                ClientEvent::Prediction(p) => {
                    if let Some(t) = self.sent_at.get(p.seq as usize) {
                        self.rtts.push(t.elapsed().as_nanos() as u64);
                    }
                    self.outcome.predictions.push(p);
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                ClientEvent::Nack(_) => self.outcome.nacks += 1,
                ClientEvent::Goodbye(_) => self.done = true,
                ClientEvent::Closed | ClientEvent::TimedOut => {
                    self.fail("server closed before its Goodbye".to_string());
                }
            }
        }
        moved
    }
}

/// Sweeps a set of sensors until every one has finished (or the whole
/// driver stalls past the limit).
fn run_driver(
    mut sensors: Vec<Sensor>,
    wire_batch: usize,
    progress: Arc<AtomicU64>,
) -> Vec<Sensor> {
    let stall_limit = Duration::from_secs(30);
    let mut last_progress = Instant::now();
    let mut idle: u32 = 0;
    loop {
        let mut moved = false;
        let mut open = 0usize;
        for sensor in sensors.iter_mut().filter(|s| !s.done) {
            open += 1;
            moved |= sensor.step(wire_batch, &progress);
        }
        if open == 0 {
            break;
        }
        if moved {
            last_progress = Instant::now();
            idle = 0;
        } else {
            if last_progress.elapsed() > stall_limit {
                for sensor in sensors.iter_mut().filter(|s| !s.done) {
                    sensor.fail("driver stalled past the 30 s limit".to_string());
                }
                break;
            }
            idle = idle.saturating_add(1);
            if idle < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    sensors
}

/// The in-process reference the `--verify` replay scores against.
enum VerifyTarget {
    /// Stateless per-frame MLP, version pinned at 1.
    Frame(OccupancyDetector),
    /// Stateful GRU sequence models, keyed by published version —
    /// more than one entry after a `--swap`.
    Temporal(BTreeMap<u64, TemporalDetector>),
}

/// The `--verify` verdict: bitwise agreement with in-process scoring
/// plus exact accounting, per sensor and globally.
fn verify(
    outcomes: &[SensorOutcome],
    target: &VerifyTarget,
    report: &ServeReport,
    verdict: &mut Verdict,
) {
    let mut delivered_total = 0u64;
    for o in outcomes {
        delivered_total += o.predictions.len() as u64;
        let (sensor, sent, delivered) = (o.index, o.sent, o.predictions.len() as u64);
        verdict.check(sent == o.records.len() as u64, || {
            format!(
                "sensor-{sensor}: sent {sent} of {} records",
                o.records.len()
            )
        });
        verdict.check(delivered + o.nacks == sent, || {
            format!(
                "sensor-{sensor}: {sent} records sent but only {delivered} predictions + {} NACKs",
                o.nacks
            )
        });
        let expected = match target {
            VerifyTarget::Frame(detector) => frame_reference(o, detector, verdict),
            VerifyTarget::Temporal(models) => temporal_reference(o, models, verdict),
        };
        let mismatches: Vec<_> = expected
            .iter()
            .filter(|(p, occupied, proba)| {
                p.occupied != *occupied || p.proba.to_bits() != proba.to_bits()
            })
            .collect();
        for (p, occupied, proba) in mismatches.iter().take(3) {
            verdict.fail(format!(
                "sensor-{} seq {} (v{}): wire ({}, {:#018x}) != in-process ({occupied}, {:#018x})",
                o.index,
                p.seq,
                p.model_version,
                p.occupied,
                p.proba.to_bits(),
                proba.to_bits()
            ));
        }
        verdict.check(mismatches.len() <= 3, || {
            format!(
                "sensor-{}: {} bitwise mismatches total",
                o.index,
                mismatches.len()
            )
        });
    }
    let unaccounted = report.unaccounted_records();
    verdict.check(unaccounted == 0, || {
        format!("{unaccounted} records unaccounted for")
    });
    verdict.check(report.wire.predictions_sent == delivered_total, || {
        format!(
            "gateway sent {} predictions but clients received {delivered_total}",
            report.wire.predictions_sent
        )
    });
}

/// One delivered prediction with the `(occupied, proba)` in-process
/// scoring gives for it.
type Expected<'a> = (&'a PredictionFrame, u8, f64);

/// Frame-mode reference: every prediction independently rescorable,
/// and the model version must stay pinned at 1 (online training
/// disabled).
fn frame_reference<'a>(
    o: &'a SensorOutcome,
    detector: &OccupancyDetector,
    verdict: &mut Verdict,
) -> Vec<Expected<'a>> {
    let mut expected = Vec::with_capacity(o.predictions.len());
    for p in &o.predictions {
        verdict.check(p.model_version == 1, || {
            format!(
                "sensor-{} seq {}: scored by model v{} (hot swap while pinned?)",
                o.index, p.seq, p.model_version
            )
        });
        match o.records.get(p.seq as usize) {
            Some(record) => {
                let (occupied, proba) = detector.predict_record(record);
                expected.push((p, occupied, proba));
            }
            None => verdict.fail(format!("sensor-{}: unknown seq {}", o.index, p.seq)),
        }
    }
    expected
}

/// Temporal-mode reference. The server scored this sensor's records in
/// seq order, carrying hidden state and zero-resetting it at every
/// model swap — so the reference is `score_stream` (zero state) over
/// each maximal run of predictions scored by the same version. Only
/// scored records ever advanced the server's state (a NACKed record
/// never reached a worker), so replaying exactly the delivered
/// predictions reconstructs the state trajectory.
fn temporal_reference<'a>(
    o: &'a SensorOutcome,
    models: &BTreeMap<u64, TemporalDetector>,
    verdict: &mut Verdict,
) -> Vec<Expected<'a>> {
    let mut preds: Vec<&PredictionFrame> = o.predictions.iter().collect();
    preds.sort_by_key(|p| p.seq);
    let mut expected = Vec::with_capacity(preds.len());
    for run in preds.chunk_by(|a, b| a.model_version == b.model_version) {
        let version = run[0].model_version;
        if expected
            .last()
            .is_some_and(|(p, _, _): &Expected| p.model_version > version)
        {
            verdict.fail(format!(
                "sensor-{} seq {}: version went backwards to v{version}",
                o.index, run[0].seq
            ));
            break;
        }
        let records: Option<Vec<CsiRecord>> = run
            .iter()
            .map(|p| o.records.get(p.seq as usize).copied())
            .collect();
        let (Some(model), Some(records)) = (models.get(&version), records) else {
            verdict.fail(format!(
                "sensor-{}: predictions of unknown model v{version} or unknown seqs",
                o.index
            ));
            continue;
        };
        let solo = model.score_stream(&records);
        for (p, (_, proba)) in run.iter().zip(solo) {
            expected.push((p, u8::from(proba > 0.5), proba));
        }
    }
    expected
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
    // At storm scale every connection is opened before the drivers
    // start flushing Hellos, so the handshake deadline has to cover the
    // whole fleet's first sweep, not one socket.
    let mut gateway_cfg = args.gateway;
    gateway_cfg.handshake_timeout =
        Duration::from_secs(5).max(Duration::from_millis(args.sensors as u64 * 20));
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
    let (gateway, swap_model, mut target) = if args.temporal {
        eprintln!("training bootstrap temporal (GRU) model…");
        let boot = TemporalDetector::train(&train, &temporal_recipe(7));
        let swap = args.swap.then(|| {
            eprintln!("training swap temporal model…");
            TemporalDetector::train(&train, &temporal_recipe(23))
        });
        let published = BTreeMap::from([(1, boot.clone())]);
        let gateway = Gateway::start_temporal(boot, serve, gateway_cfg, acceptor);
        (gateway, swap, VerifyTarget::Temporal(published))
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
        let gateway = Gateway::start(detector.clone(), serve, gateway_cfg, acceptor);
        (gateway, None, VerifyTarget::Frame(detector))
    };
    let gateway = gateway.unwrap_or_else(|e| cli.abort(e));

    // Replay sources are collected up front so the verify pass can
    // rescore the exact same records locally.
    let rate = ScenarioConfig::quick(1.0, 0).sample_rate_hz;
    let duration_s = args.records as f64 / rate + 1.0;
    let fleets: Vec<Vec<CsiRecord>> = (0..args.sensors)
        .map(|i| {
            fleet_stream(duration_s, args.seed, i as u64)
                .take(args.records)
                .collect()
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

    // Every connection is opened up front and swept by a few driver
    // threads — no per-sensor OS threads, so 10k connections is just
    // memory.
    let progress = Arc::new(AtomicU64::new(0));
    let drivers = args.drivers.min(args.sensors).max(1);
    let mut failed: Vec<SensorOutcome> = Vec::new();
    let mut driver_sensors: Vec<Vec<Sensor>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, records) in fleets.into_iter().enumerate() {
        let outcome = SensorOutcome::new(i, records);
        let opened = connect()
            .map_err(WireError::Transport)
            .and_then(|conn| WireClient::open(conn, "", &format!("sensor-{i}")));
        match opened {
            Ok(client) => driver_sensors[i % drivers].push(Sensor::new(client, outcome)),
            Err(e) => failed.push(SensorOutcome {
                errors: vec![format!("connect: {e}")],
                ..outcome
            }),
        }
    }
    let handles: Vec<_> = driver_sensors
        .into_iter()
        .enumerate()
        .map(|(d, sensors)| {
            let wire_batch = args.wire_batch;
            let progress = Arc::clone(&progress);
            std::thread::Builder::new()
                .name(format!("storm-driver-{d}"))
                .spawn(move || run_driver(sensors, wire_batch, progress))
                .expect("spawn storm driver")
        })
        .collect();

    // The mid-storm hot swap: published once ~25% of the predictions
    // have been delivered, so it reliably lands mid-stream regardless
    // of machine speed. Replay correctness does not depend on *when*
    // the swap lands — every prediction carries the version that
    // scored it, and the verifier splits each sensor's stream there.
    if let Some(next) = swap_model {
        let total = (args.sensors * args.records) as u64;
        let trigger = (total / 4).max(1);
        let wait_deadline = Instant::now() + Duration::from_secs(120);
        while progress.load(Ordering::Relaxed) < trigger && Instant::now() < wait_deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let version = gateway.publish_temporal(next.clone());
        if let VerifyTarget::Temporal(published) = &mut target {
            published.insert(version, next);
        }
        eprintln!(
            "hot-swapped temporal model → v{version} (after {} of {total} predictions)",
            progress.load(Ordering::Relaxed)
        );
    }

    let mut rtts: Vec<u64> = Vec::new();
    let mut outcomes: Vec<SensorOutcome> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("storm driver panicked"))
        .map(|sensor| {
            rtts.extend(sensor.rtts);
            sensor.outcome
        })
        .collect();
    outcomes.append(&mut failed);
    outcomes.sort_by_key(|o| o.index);
    let report = gateway.shutdown();
    let wall = started.elapsed();

    let sent_total: u64 = outcomes.iter().map(|o| o.sent).sum();
    let delivered_total: usize = outcomes.iter().map(|o| o.predictions.len()).sum();
    let nacks_total: u64 = outcomes.iter().map(|o| o.nacks).sum();
    for o in &outcomes {
        eprintln!(
            "sensor-{}: shard {}, sent {}, predictions {}, nacks {}{}",
            o.index,
            o.shard,
            o.sent,
            o.predictions.len(),
            o.nacks,
            if o.errors.is_empty() {
                String::new()
            } else {
                format!(", errors: {}", o.errors.join("; "))
            }
        );
    }

    // One throughput figure for stdout and the summary: records the
    // clients sent per wall-clock second.
    let records_per_s = sent_total as f64 / wall.as_secs_f64().max(1e-9);
    println!("\n=== wire_storm report ===");
    print!("{report}");
    println!(
        "wire wall time {wall:.2?} · {records_per_s:.0} records/s end-to-end · {delivered_total} predictions delivered to clients · {nacks_total} NACKs"
    );
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
    for o in &outcomes {
        o.errors
            .iter()
            .for_each(|e| verdict.fail(format!("sensor-{}: {e}", o.index)));
    }
    if args.temporal {
        let mut by_version: BTreeMap<u64, u64> = BTreeMap::new();
        for p in outcomes.iter().flat_map(|o| &o.predictions) {
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
        verify(&outcomes, &target, &report, &mut verdict);
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
            ("nacks", nacks_total.into()),
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
            ("report", report.to_json()),
        ]);
        verdict.write_summary(path, summary);
    }
    verdict.finish(&format!(
        "{} sensors, {sent_total} records, {model} scoring bitwise identical to in-process replay, 0 unaccounted",
        args.sensors
    ))
}
