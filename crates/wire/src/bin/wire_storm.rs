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
use occusense_serve::{BackpressurePolicy, ServeConfig, ServeReport};
use occusense_sim::{fleet_stream, simulate, ScenarioConfig};
use occusense_wire::{
    loopback, tcp_connect, tcp_listen, ClientEvent, Connection, Gateway, GatewayConfig,
    LoopbackConfig, LoopbackConnector, PredictionFrame, TcpConfig, WireClient, WireError,
};
use std::collections::BTreeMap;
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
                        time, throughput, RTT percentiles, counters)
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

#[derive(Clone)]
struct Args {
    sensors: usize,
    records: usize,
    transport: Transport,
    addr: String,
    shards: usize,
    max_batch: usize,
    wire_batch: usize,
    policy: BackpressurePolicy,
    outbound_policy: BackpressurePolicy,
    capacity: usize,
    seed: u64,
    drivers: usize,
    reactors: usize,
    json: Option<String>,
    temporal: bool,
    swap: bool,
    verify: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Transport {
    Loopback,
    Tcp,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            sensors: 8,
            records: 5000,
            transport: Transport::Loopback,
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            max_batch: 32,
            wire_batch: 16,
            policy: BackpressurePolicy::Block,
            outbound_policy: BackpressurePolicy::Block,
            capacity: 1024,
            seed: 100,
            drivers: 1,
            reactors: 1,
            json: None,
            temporal: false,
            swap: false,
            verify: false,
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

fn parse_policy(raw: &str, what: &str) -> Result<BackpressurePolicy, String> {
    BackpressurePolicy::parse(raw)
        .ok_or_else(|| format!("unknown {what} {raw:?} (block | drop-oldest | reject-newest)"))
}

/// Parses the command line. `Err` carries a user-facing message — the
/// caller prints it with the usage text and exits 2 (the PR 2 CLI
/// convention shared with `serve_sim`); malformed flags never panic.
fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv;
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        if flag == "--verify" {
            args.verify = true;
            continue;
        }
        if flag == "--temporal" {
            args.temporal = true;
            continue;
        }
        if flag == "--swap" {
            args.swap = true;
            continue;
        }
        const KNOWN: &[&str] = &[
            "--sensors",
            "--records",
            "--transport",
            "--addr",
            "--shards",
            "--batch",
            "--wire-batch",
            "--policy",
            "--outbound-policy",
            "--capacity",
            "--seed",
            "--drivers",
            "--reactors",
            "--json",
        ];
        if !KNOWN.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag:?}"));
        }
        let raw = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--sensors" => args.sensors = parse_value(&raw, "--sensors")?,
            "--records" => args.records = parse_value(&raw, "--records")?,
            "--transport" => {
                args.transport = match raw.as_str() {
                    "loopback" => Transport::Loopback,
                    "tcp" => Transport::Tcp,
                    _ => return Err(format!("unknown transport {raw:?} (loopback | tcp)")),
                };
            }
            "--addr" => args.addr = raw,
            "--shards" => args.shards = parse_value(&raw, "--shards")?,
            "--batch" => args.max_batch = parse_value(&raw, "--batch")?,
            "--wire-batch" => args.wire_batch = parse_value(&raw, "--wire-batch")?,
            "--policy" => args.policy = parse_policy(&raw, "--policy")?,
            "--outbound-policy" => args.outbound_policy = parse_policy(&raw, "--outbound-policy")?,
            "--capacity" => args.capacity = parse_value(&raw, "--capacity")?,
            "--seed" => args.seed = parse_value(&raw, "--seed")?,
            "--drivers" => args.drivers = parse_value(&raw, "--drivers")?,
            "--reactors" => args.reactors = parse_value(&raw, "--reactors")?,
            "--json" => args.json = Some(raw),
            _ => unreachable!("flag was vetted against KNOWN"),
        }
    }
    if args.sensors == 0 {
        return Err("--sensors must be >= 1".into());
    }
    if args.records == 0 {
        return Err("--records must be >= 1".into());
    }
    if args.max_batch == 0 {
        return Err("--batch must be >= 1".into());
    }
    if args.wire_batch == 0 {
        return Err("--wire-batch must be >= 1".into());
    }
    if args.swap && !args.temporal {
        return Err("--swap requires --temporal".into());
    }
    if args.drivers == 0 {
        return Err("--drivers must be >= 1".into());
    }
    if args.reactors == 0 {
        return Err("--reactors must be >= 1".into());
    }
    Ok(args)
}

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

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
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
fn verify(outcomes: &[SensorOutcome], target: &VerifyTarget, report: &ServeReport) -> Vec<String> {
    let mut failures = Vec::new();
    let mut delivered_total = 0u64;
    for o in outcomes {
        delivered_total += o.predictions.len() as u64;
        if o.sent != o.records.len() as u64 {
            failures.push(format!(
                "sensor-{}: sent {} of {} records",
                o.index,
                o.sent,
                o.records.len()
            ));
        }
        let resolved = o.predictions.len() as u64 + o.nacks;
        if resolved != o.sent {
            failures.push(format!(
                "sensor-{}: {} records sent but only {} resolved ({} predictions + {} NACKs)",
                o.index,
                o.sent,
                resolved,
                o.predictions.len(),
                o.nacks
            ));
        }
        match target {
            VerifyTarget::Frame(detector) => verify_frame_sensor(o, detector, &mut failures),
            VerifyTarget::Temporal(models) => verify_temporal_sensor(o, models, &mut failures),
        }
    }
    let unaccounted = report.unaccounted_records();
    if unaccounted != 0 {
        failures.push(format!("{unaccounted} records unaccounted for"));
    }
    if report.wire.predictions_sent != delivered_total {
        failures.push(format!(
            "gateway sent {} predictions but clients received {}",
            report.wire.predictions_sent, delivered_total
        ));
    }
    failures
}

/// Frame-mode replay: every prediction independently rescorable, and
/// the model version must stay pinned at 1 (online training disabled).
fn verify_frame_sensor(
    o: &SensorOutcome,
    detector: &OccupancyDetector,
    failures: &mut Vec<String>,
) {
    let mut mismatches = 0usize;
    for p in &o.predictions {
        let Some(record) = o.records.get(p.seq as usize) else {
            failures.push(format!(
                "sensor-{}: prediction for unknown seq {}",
                o.index, p.seq
            ));
            continue;
        };
        let (occupied, proba) = detector.predict_record(record);
        if p.occupied != occupied || p.proba.to_bits() != proba.to_bits() {
            mismatches += 1;
            if mismatches <= 3 {
                failures.push(format!(
                    "sensor-{} seq {}: wire ({}, {:#018x}) != direct ({}, {:#018x})",
                    o.index,
                    p.seq,
                    p.occupied,
                    p.proba.to_bits(),
                    occupied,
                    proba.to_bits()
                ));
            }
        }
        if p.model_version != 1 {
            failures.push(format!(
                "sensor-{} seq {}: scored by model v{} (hot swap while pinned?)",
                o.index, p.seq, p.model_version
            ));
        }
    }
    if mismatches > 3 {
        failures.push(format!(
            "sensor-{}: {} bitwise mismatches total",
            o.index, mismatches
        ));
    }
}

/// Temporal-mode replay. The server scored this sensor's records in
/// seq order, carrying hidden state and zero-resetting it at every
/// model swap — so the reference is `score_stream` (zero state) over
/// each maximal run of predictions scored by the same version. Only
/// scored records ever advanced the server's state (a NACKed record
/// never reached a worker), so replaying exactly the delivered
/// predictions reconstructs the state trajectory.
fn verify_temporal_sensor(
    o: &SensorOutcome,
    models: &BTreeMap<u64, TemporalDetector>,
    failures: &mut Vec<String>,
) {
    let mut preds: Vec<&PredictionFrame> = o.predictions.iter().collect();
    preds.sort_by_key(|p| p.seq);
    let mut mismatches = 0usize;
    let mut last_version = 0u64;
    let mut i = 0usize;
    while i < preds.len() {
        let Some(first) = preds.get(i) else { break };
        let version = first.model_version;
        if version < last_version {
            failures.push(format!(
                "sensor-{} seq {}: version went backwards (v{last_version} → v{version})",
                o.index, first.seq
            ));
            break;
        }
        last_version = version;
        let mut j = i;
        while preds.get(j).is_some_and(|p| p.model_version == version) {
            j += 1;
        }
        let run = &preds[i..j];
        i = j;
        let Some(model) = models.get(&version) else {
            failures.push(format!(
                "sensor-{}: predictions scored by unknown model v{version}",
                o.index
            ));
            continue;
        };
        let mut records = Vec::with_capacity(run.len());
        for p in run {
            match o.records.get(p.seq as usize) {
                Some(r) => records.push(*r),
                None => failures.push(format!(
                    "sensor-{}: prediction for unknown seq {}",
                    o.index, p.seq
                )),
            }
        }
        if records.len() != run.len() {
            continue;
        }
        let solo = model.score_stream(&records);
        for (p, (_, proba)) in run.iter().zip(&solo) {
            if p.proba.to_bits() != proba.to_bits() || p.occupied != u8::from(*proba > 0.5) {
                mismatches += 1;
                if mismatches <= 3 {
                    failures.push(format!(
                        "sensor-{} seq {} (v{version}): wire ({}, {:#018x}) != replay ({}, {:#018x})",
                        o.index,
                        p.seq,
                        p.occupied,
                        p.proba.to_bits(),
                        u8::from(*proba > 0.5),
                        proba.to_bits()
                    ));
                }
            }
        }
    }
    if mismatches > 3 {
        failures.push(format!(
            "sensor-{}: {} bitwise mismatches total",
            o.index, mismatches
        ));
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wire_storm: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Offline bootstrap, same recipe as serve_sim; online training is
    // *disabled* so the serving model only changes version at an
    // explicit --swap — the precondition for replaying wire
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
    let (boot_model, swap_model, mut target) = if args.temporal {
        eprintln!("training bootstrap temporal (GRU) model…");
        let boot = TemporalDetector::train(&train, &temporal_recipe(7));
        let swap = args.swap.then(|| {
            eprintln!("training swap temporal model…");
            TemporalDetector::train(&train, &temporal_recipe(23))
        });
        let mut published = BTreeMap::new();
        published.insert(1, boot.clone());
        (
            BootModel::Temporal(boot),
            swap,
            VerifyTarget::Temporal(published),
        )
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
        (
            BootModel::Frame(detector.clone()),
            None,
            VerifyTarget::Frame(detector),
        )
    };

    let serve = ServeConfig {
        n_shards: args.shards,
        queue_capacity: args.capacity,
        policy: args.policy,
        max_batch: args.max_batch,
        online: None,
        ..ServeConfig::default()
    };
    let gateway_cfg = GatewayConfig {
        outbound_policy: args.outbound_policy,
        reactors: args.reactors,
        // At storm scale every connection is opened before the
        // drivers start flushing Hellos, so the handshake deadline has
        // to cover the whole fleet's first sweep, not one socket.
        handshake_timeout: Duration::from_secs(5)
            .max(Duration::from_millis(args.sensors as u64 * 20)),
        ..GatewayConfig::default()
    };

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
    let (acceptor, connectors): (Box<dyn occusense_wire::Acceptor>, Connectors) =
        match args.transport {
            Transport::Loopback => {
                let (acceptor, connector) = loopback(LoopbackConfig::default());
                (Box::new(acceptor), Connectors::Loopback(connector))
            }
            Transport::Tcp => {
                let (acceptor, local) = tcp_listen(&args.addr, TcpConfig::default())
                    .unwrap_or_else(|e| {
                        eprintln!("wire_storm: cannot listen on {}: {e}", args.addr);
                        std::process::exit(2);
                    });
                eprintln!("listening on {local}");
                (Box::new(acceptor), Connectors::Tcp(local.to_string()))
            }
        };
    let gateway = boot_model
        .start(serve, gateway_cfg, acceptor)
        .unwrap_or_else(|e| {
            eprintln!("wire_storm: {e}");
            std::process::exit(2);
        });

    eprintln!(
        "storming: {} sensors × {} records over {} → {} shards ({} model, ingress {:?}, outbound {:?}, wire batch {})",
        args.sensors,
        args.records,
        match args.transport {
            Transport::Loopback => "loopback",
            Transport::Tcp => "tcp",
        },
        args.shards,
        if args.temporal { "temporal" } else { "frame" },
        args.policy,
        args.outbound_policy,
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
        let opened = connectors
            .connect()
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

    println!("\n=== wire_storm report ===");
    print!("{report}");
    println!(
        "wire wall time {wall:.2?} · {:.0} records/s end-to-end · {delivered_total} predictions delivered to clients · {nacks_total} NACKs",
        sent_total as f64 / wall.as_secs_f64().max(1e-9)
    );
    rtts.sort_unstable();
    if !rtts.is_empty() {
        println!(
            "round trip (enqueue → prediction): p50 {:.1} µs · p95 {:.1} µs · p99 {:.1} µs over {} samples",
            percentile(&rtts, 50.0) as f64 / 1e3,
            percentile(&rtts, 95.0) as f64 / 1e3,
            percentile(&rtts, 99.0) as f64 / 1e3,
            rtts.len()
        );
    }
    println!("\n=== metrics ===\n{}", report.metrics_text);

    let mut failures: Vec<String> = outcomes
        .iter()
        .flat_map(|o| o.errors.iter().map(|e| format!("sensor-{}: {e}", o.index)))
        .collect();
    if args.temporal {
        let mut by_version: BTreeMap<u64, u64> = BTreeMap::new();
        for o in &outcomes {
            for p in &o.predictions {
                *by_version.entry(p.model_version).or_default() += 1;
            }
        }
        let summary: Vec<String> = by_version
            .iter()
            .map(|(v, n)| format!("v{v}×{n}"))
            .collect();
        eprintln!("predictions by model version: {}", summary.join(", "));
        if args.swap && args.verify && by_version.len() < 2 {
            failures
                .push("--swap landed after every record was scored; raise --records".to_string());
        }
    }
    if args.verify {
        failures.extend(verify(&outcomes, &target, &report));
        if failures.is_empty() {
            println!(
                "verify verdict: PASS ({} sensors, {} records, {} scoring bitwise identical to in-process replay, 0 unaccounted)",
                args.sensors,
                sent_total,
                if args.temporal { "stateful temporal" } else { "frame" }
            );
        }
    }
    if let Some(path) = &args.json {
        let verdict = if !args.verify {
            "off"
        } else if failures.is_empty() {
            "pass"
        } else {
            "fail"
        };
        let json = format!(
            concat!(
                "{{\n",
                "  \"sensors\": {},\n",
                "  \"records_per_sensor\": {},\n",
                "  \"transport\": \"{}\",\n",
                "  \"drivers\": {},\n",
                "  \"reactors\": {},\n",
                "  \"wire_batch\": {},\n",
                "  \"wall_s\": {:.3},\n",
                "  \"records_per_s\": {:.0},\n",
                "  \"decoded\": {},\n",
                "  \"ingested\": {},\n",
                "  \"rejected\": {},\n",
                "  \"shed\": {},\n",
                "  \"predictions_sent\": {},\n",
                "  \"nacks\": {},\n",
                "  \"connection_panics\": {},\n",
                "  \"unaccounted\": {},\n",
                "  \"rtt_us\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"samples\": {}}},\n",
                "  \"verdict\": \"{}\"\n",
                "}}\n"
            ),
            args.sensors,
            args.records,
            match args.transport {
                Transport::Loopback => "loopback",
                Transport::Tcp => "tcp",
            },
            args.drivers,
            args.reactors,
            args.wire_batch,
            wall.as_secs_f64(),
            report.wire.records_decoded as f64 / wall.as_secs_f64().max(1e-9),
            report.wire.records_decoded,
            report.wire.records_ingested,
            report.wire.records_rejected,
            report.wire.records_shed,
            report.wire.predictions_sent,
            nacks_total,
            report.wire.connection_panics,
            report.unaccounted_records(),
            percentile(&rtts, 50.0) as f64 / 1e3,
            percentile(&rtts, 95.0) as f64 / 1e3,
            percentile(&rtts, 99.0) as f64 / 1e3,
            rtts.len(),
            verdict
        );
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("soak summary written to {path}"),
            Err(e) => eprintln!("wire_storm: cannot write {path}: {e}"),
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("wire_storm verdict: FAIL — {f}");
        }
        std::process::exit(1);
    }
}

/// Which model family boots the gateway's serving runtime. One
/// instance exists per run, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum BootModel {
    Frame(OccupancyDetector),
    Temporal(TemporalDetector),
}

impl BootModel {
    fn start(
        self,
        serve: ServeConfig,
        config: GatewayConfig,
        acceptor: Box<dyn occusense_wire::Acceptor>,
    ) -> Result<Gateway, WireError> {
        match self {
            BootModel::Frame(d) => Gateway::start(d, serve, config, acceptor),
            BootModel::Temporal(t) => Gateway::start_temporal(t, serve, config, acceptor),
        }
    }
}

/// Per-transport connection factory.
enum Connectors {
    Loopback(LoopbackConnector),
    Tcp(String),
}

impl Connectors {
    fn connect(&self) -> Result<Box<dyn Connection>, occusense_wire::TransportError> {
        match self {
            Connectors::Loopback(c) => c.connect(),
            Connectors::Tcp(addr) => tcp_connect(addr, TcpConfig::default()),
        }
    }
}
