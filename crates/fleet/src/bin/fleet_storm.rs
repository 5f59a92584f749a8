//! Multi-tenant fleet chaos driver: boots a worker fleet through
//! [`FleetController`], storms it with per-tenant sensor traffic (one
//! tenant deliberately saturated), kills a worker process mid-storm,
//! and (with `--verify`) proves the fleet's chaos-proof accounting:
//!
//! * every sequenced record resolves **exactly once** — prediction,
//!   NACK, or re-booked as shed when its worker died;
//! * every delivered prediction is bitwise identical to in-process
//!   scoring by the tenant's own model (cross-tenant routing or a
//!   polluted-lineage load would fail this);
//! * the fleet accounting residue closes:
//!   `fleet_report.unaccounted_records() == 0` even with a worker
//!   killed mid-storm;
//! * the saturated tenant visibly sheds (admission refusals + QueueFull
//!   NACKs) while the *other* tenants' storm p99 stays within 2× of
//!   their unloaded baseline (with an absolute floor for noisy CI).
//!
//! ```text
//! cargo run --release -p occusense-fleet --bin fleet_storm -- \
//!     --tenants 3 --procs 4 --kill-one --verify --json soak.json
//! ```

use occusense_core::detector::OccupancyDetector;
use occusense_core::persist::{checkpoint_path, save_detector_atomic, QUARANTINE_SUFFIX};
use occusense_dataset::{CsiRecord, FeatureView};
use occusense_driver::{obj, percentile, CliError, Parser, Usage, Value, Verdict};
use occusense_fleet::{
    bootstrap_detector, FleetConfig, FleetController, FleetReport, PlaceError, SloBudget,
    TenantRegistry, TenantSpec,
};
use occusense_serve::{BackpressurePolicy, ServeReport};
use occusense_sim::{FleetScenario, BASELINE_SENSOR};
use occusense_wire::{
    tcp_connect, ClientEvent, NackReason, PredictionFrame, TcpConfig, WireClient, WireError,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "fleet_storm — multi-tenant chaos driver for the occusense fleet

  --tenants N           tenants to register; tenant-0 is the saturated
                        one (RejectNewest, tiny queue, half the sensor
                        budget) (default 3)
  --procs N             worker processes (default 4)
  --sensors N           sensors attempted per tenant (default 6)
  --records N           records per storm sensor (default 400)
  --baseline-records N  records per unloaded baseline sensor (default 200)
  --window N            per-sensor in-flight record window (default 32)
  --hb-ms N             worker heartbeat period, ms (default 100)
  --seed S              base seed for tenant models and record streams
                        (default 100)
  --p99-floor-ms N      absolute p99 allowance added to the 2×-baseline
                        budget, ms (default 200)
  --worker-bin PATH     fleet_worker binary (default: next to this one)
  --kill-one            SIGKILL the most-loaded worker mid-storm
  --json PATH           write a machine-readable soak summary
  --verify              enforce the full chaos contract and exit 1 on
                        any violation
  -h, --help            print this help";

struct Args {
    tenants: usize,
    /// Worker processes, heartbeat period and worker binary.
    fleet: FleetConfig,
    sensors: usize,
    records: usize,
    baseline_records: usize,
    window: usize,
    seed: u64,
    p99_floor_ms: u64,
    kill_one: bool,
    json: Option<String>,
    verify: bool,
}

fn parse_cli(p: &mut Parser) -> Result<Args, CliError> {
    let mut args = Args {
        tenants: 3,
        fleet: FleetConfig {
            // Next to this binary unless --worker-bin says otherwise.
            worker_bin: std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(|d| d.join("fleet_worker")))
                .unwrap_or_else(|| PathBuf::from("fleet_worker")),
            procs: 4,
            hb_ms: 100,
            ..FleetConfig::default()
        },
        sensors: 6,
        records: 400,
        baseline_records: 200,
        window: 32,
        seed: 100,
        p99_floor_ms: 200,
        kill_one: false,
        json: None,
        verify: false,
    };
    while let Some(flag) = p.next() {
        match flag.as_str() {
            "--kill-one" => args.kill_one = true,
            "--verify" => args.verify = true,
            "--tenants" => args.tenants = p.nonzero(&flag)?,
            "--procs" => args.fleet.procs = p.nonzero(&flag)?,
            "--sensors" => args.sensors = p.nonzero(&flag)?,
            "--records" => args.records = p.nonzero(&flag)?,
            "--baseline-records" => args.baseline_records = p.value(&flag)?,
            "--window" => args.window = p.nonzero(&flag)?,
            "--hb-ms" => args.fleet.hb_ms = p.value(&flag)?,
            "--seed" => args.seed = p.value(&flag)?,
            "--p99-floor-ms" => args.p99_floor_ms = p.value(&flag)?,
            "--worker-bin" => args.fleet.worker_bin = p.value(&flag)?,
            "--json" => args.json = Some(p.value(&flag)?),
            _ => return Err(CliError::unexpected(flag)),
        }
    }
    if args.kill_one && args.fleet.procs < 2 {
        return Err(CliError::Invalid(
            "--kill-one needs --procs >= 2 (someone must survive)".into(),
        ));
    }
    Ok(args)
}

/// How one booked record resolved. Exactly-once means every slot ends
/// in exactly one of the three resolved states.
enum Slot {
    /// Never sent (a sensor that gave up mid-stream leaves these).
    Unsent,
    /// Sent, resolution still owed — non-empty at the end means the
    /// fleet *lost* the record.
    Pending,
    /// Scored; the frame is kept for the bitwise replay.
    Pred(PredictionFrame),
    /// Refused with a QueueFull/Shutdown NACK (the load-shed lane).
    Nacked,
    /// In flight to a worker that died; re-booked as fleet shed.
    Rebooked,
}

/// What one sensor thread brings home.
struct SensorOutcome {
    tenant: usize,
    sensor: usize,
    records: Vec<CsiRecord>,
    slots: Vec<Slot>,
    /// Enqueue→prediction round trips, ns (scored records only).
    rtts: Vec<u64>,
    reconnects: u64,
    duplicates: u64,
    admission_shed: bool,
    errors: Vec<String>,
}

enum PumpEnd {
    /// Clean goodbye exchange, every booked record resolved.
    Done,
    /// The connection died; `pending` holds the unresolved bookings.
    ConnDead(String),
}

/// How long one `recv` waits before the stall clock is checked.
const RECV_WAIT: Duration = Duration::from_millis(50);

/// Drives one connection's windowed send/recv pump until either the
/// goodbye exchange completes or the connection dies. Single-threaded:
/// the client reads on every send, and the in-flight window stays far
/// below every queue capacity.
#[allow(clippy::too_many_arguments)]
fn pump(
    client: &mut WireClient,
    records: &[CsiRecord],
    next: &mut usize,
    slots: &mut [Slot],
    pending: &mut BTreeMap<u64, (usize, Instant)>,
    rtts: &mut Vec<u64>,
    duplicates: &mut u64,
    window: usize,
    progress: &AtomicU64,
) -> PumpEnd {
    let stall_limit = Duration::from_secs(15);
    let mut last_event = Instant::now();
    let mut finished = false;
    loop {
        if !finished {
            while pending.len() < window && *next < records.len() {
                let Some(record) = records.get(*next) else {
                    break;
                };
                match client.send(*record, None) {
                    Ok(seq) => {
                        pending.insert(seq, (*next, Instant::now()));
                        if let Some(slot) = slots.get_mut(*next) {
                            *slot = Slot::Pending;
                        }
                        *next += 1;
                    }
                    Err(e) => return PumpEnd::ConnDead(format!("send: {e}")),
                }
            }
            if *next >= records.len() && pending.is_empty() {
                if let Err(e) = client.finish() {
                    return PumpEnd::ConnDead(format!("goodbye: {e}"));
                }
                finished = true;
            }
        }
        match client.recv(RECV_WAIT) {
            Ok(ClientEvent::Prediction(p)) => {
                last_event = Instant::now();
                match pending.remove(&p.seq) {
                    Some((idx, t0)) => {
                        rtts.push(t0.elapsed().as_nanos() as u64);
                        if let Some(slot) = slots.get_mut(idx) {
                            *slot = Slot::Pred(p);
                        }
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                    None => *duplicates += 1,
                }
            }
            Ok(ClientEvent::Nack(n)) => {
                last_event = Instant::now();
                match n.reason {
                    NackReason::QueueFull | NackReason::Shutdown => match pending.remove(&n.seq) {
                        Some((idx, _)) => {
                            if let Some(slot) = slots.get_mut(idx) {
                                *slot = Slot::Nacked;
                            }
                            progress.fetch_add(1, Ordering::Relaxed);
                        }
                        None => *duplicates += 1,
                    },
                    reason => {
                        return PumpEnd::ConnDead(format!("fatal NACK: {reason}"));
                    }
                }
            }
            Ok(ClientEvent::Goodbye(_)) => {
                if finished && pending.is_empty() {
                    return PumpEnd::Done;
                }
                return PumpEnd::ConnDead("server goodbye with bookings open".to_string());
            }
            Ok(ClientEvent::Closed) => {
                if finished && pending.is_empty() {
                    // The goodbye exchange raced the socket close;
                    // every booking is resolved, which is what counts.
                    return PumpEnd::Done;
                }
                return PumpEnd::ConnDead("connection closed".to_string());
            }
            Ok(ClientEvent::TimedOut) => {
                if last_event.elapsed() > stall_limit {
                    return PumpEnd::ConnDead("receiver stalled past the 15 s limit".to_string());
                }
            }
            Err(e) => return PumpEnd::ConnDead(format!("receive: {e}")),
        }
    }
}

/// One sensor's whole life: place → connect → pump, re-booking
/// in-flight records as shed and re-placing onto a survivor whenever
/// the connection (or its worker) dies.
#[allow(clippy::too_many_arguments)]
fn drive_sensor(
    tenant_idx: usize,
    tenant_id: &str,
    sensor_idx: usize,
    records: Vec<CsiRecord>,
    ctrl: &Arc<Mutex<FleetController>>,
    worker_load: &Arc<Mutex<BTreeMap<String, i64>>>,
    window: usize,
    progress: &Arc<AtomicU64>,
) -> SensorOutcome {
    let sensor_name = format!("s{sensor_idx}");
    let mut outcome = SensorOutcome {
        tenant: tenant_idx,
        sensor: sensor_idx,
        slots: records.iter().map(|_| Slot::Unsent).collect(),
        records,
        rtts: Vec::new(),
        reconnects: 0,
        duplicates: 0,
        admission_shed: false,
        errors: Vec::new(),
    };
    let mut next = 0usize;
    let mut had_conn = false;
    let mut attempts = 0u32;
    let max_attempts = 40;
    loop {
        attempts += 1;
        if attempts > max_attempts {
            outcome
                .errors
                .push(format!("gave up after {max_attempts} placement attempts"));
            return outcome;
        }
        let placement = {
            let mut c = ctrl.lock().unwrap_or_else(|p| p.into_inner());
            if had_conn {
                // A dead connection usually means a dead worker; sweep
                // so the ring stops routing to it before re-placing.
                c.poll();
            }
            match c.place(tenant_id, &sensor_name) {
                Ok(p) => p,
                Err(PlaceError::Saturated { .. }) => {
                    outcome.admission_shed = true;
                    return outcome;
                }
                Err(PlaceError::NoWorkers) => {
                    drop(c);
                    std::thread::sleep(Duration::from_millis(100));
                    continue;
                }
                Err(e) => {
                    outcome.errors.push(format!("place: {e}"));
                    return outcome;
                }
            }
        };
        let conn = match tcp_connect(&placement.addr, TcpConfig::default()) {
            Ok(conn) => conn,
            Err(_) => {
                // The addr belongs to a worker that died between the
                // sweep and the dial; next attempt re-routes.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        let mut client =
            match WireClient::connect(conn, tenant_id, &sensor_name, Duration::from_secs(10)) {
                Ok(client) => client,
                Err(WireError::Refused(NackReason::Shutdown)) => {
                    // Draining gateway: retryable by contract.
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            };
        if had_conn {
            outcome.reconnects += 1;
        }
        had_conn = true;
        {
            let mut load = worker_load.lock().unwrap_or_else(|p| p.into_inner());
            *load.entry(placement.worker.clone()).or_default() += 1;
        }
        let mut pending: BTreeMap<u64, (usize, Instant)> = BTreeMap::new();
        let end = pump(
            &mut client,
            &outcome.records,
            &mut next,
            &mut outcome.slots,
            &mut pending,
            &mut outcome.rtts,
            &mut outcome.duplicates,
            window,
            progress,
        );
        {
            let mut load = worker_load.lock().unwrap_or_else(|p| p.into_inner());
            *load.entry(placement.worker.clone()).or_default() -= 1;
        }
        match end {
            PumpEnd::Done => {
                let mut c = ctrl.lock().unwrap_or_else(|p| p.into_inner());
                c.release(tenant_id, &sensor_name);
                return outcome;
            }
            PumpEnd::ConnDead(why) => {
                // Exactly-once under chaos: whatever was in flight to
                // the dead worker can never resolve there, so re-book
                // it as fleet shed and stream the rest elsewhere.
                for (_, (idx, _)) in pending {
                    if let Some(slot) = outcome.slots.get_mut(idx) {
                        *slot = Slot::Rebooked;
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                eprintln!(
                    "{tenant_id}/{sensor_name}: connection to {} lost ({why}); re-routing",
                    placement.worker
                );
            }
        }
    }
}

/// Per-tenant latency verdict inputs.
struct TenantLatency {
    baseline_p99_ns: u64,
    storm_p99_ns: u64,
}

/// The `--verify` verdict over the whole run.
#[allow(clippy::too_many_arguments)]
fn verify(
    args: &Args,
    outcomes: &[SensorOutcome],
    detectors: &[OccupancyDetector],
    report: &FleetReport,
    latencies: &BTreeMap<usize, TenantLatency>,
    polluted: &std::path::Path,
    quarantined: &std::path::Path,
    kill_happened: bool,
    verdict: &mut Verdict,
) {
    let mut shed_by_tenant: BTreeMap<usize, u64> = BTreeMap::new();
    let mut nacked_t0 = 0u64;
    let mut reconnects = 0u64;
    for o in outcomes {
        let who = format!("tenant-{}/s{}", o.tenant, o.sensor);
        for e in &o.errors {
            verdict.fail(format!("{who}: {e}"));
        }
        reconnects += o.reconnects;
        if o.admission_shed {
            *shed_by_tenant.entry(o.tenant).or_default() += 1;
            continue;
        }
        verdict.check(o.duplicates == 0, || {
            format!("{who}: {} records resolved twice", o.duplicates)
        });
        let mut unsent = 0u64;
        let mut unresolved = 0u64;
        for (idx, slot) in o.slots.iter().enumerate() {
            match slot {
                Slot::Unsent => unsent += 1,
                Slot::Pending => unresolved += 1,
                Slot::Nacked => {
                    if o.tenant == 0 {
                        nacked_t0 += 1;
                    }
                }
                Slot::Rebooked => {}
                Slot::Pred(p) => {
                    let Some(record) = o.records.get(idx) else {
                        continue;
                    };
                    let Some(detector) = detectors.get(o.tenant) else {
                        continue;
                    };
                    let (occupied, proba) = detector.predict_record(record);
                    let (wire, own) = (p.proba.to_bits(), proba.to_bits());
                    verdict.check(p.occupied == occupied && wire == own, || {
                        let o = p.occupied;
                        format!("{who} seq {idx}: wire ({o}, {wire:#018x}) != tenant model ({occupied}, {own:#018x})")
                    });
                    verdict.check(p.model_version == 1, || {
                        format!(
                            "{who} seq {idx}: scored by v{} (online training is off)",
                            p.model_version
                        )
                    });
                }
            }
        }
        verdict.check(unsent == 0, || {
            format!("{who}: {unsent} records never sent")
        });
        verdict.check(unresolved == 0, || {
            format!("{who}: {unresolved} records sent but never resolved")
        });
    }
    // The saturated tenant must actually saturate, both at admission
    // and at the ingress queue; everyone else must be untouched.
    verdict.check(shed_by_tenant.contains_key(&0), || {
        "tenant-0 had no admission-shed sensors (not saturated?)".into()
    });
    for (&tenant, &shed) in shed_by_tenant.range(1..) {
        verdict.fail(format!(
            "tenant-{tenant}: {shed} sensors refused at admission (only tenant-0 should shed)"
        ));
    }
    let rejected_t0 = report
        .tenants
        .get("tenant-0")
        .map_or(0, |r| r.records_rejected());
    verdict.check(nacked_t0 > 0 || rejected_t0 > 0, || {
        "tenant-0 produced no QueueFull sheds (queue never saturated?)".into()
    });
    let unaccounted = report.unaccounted_records();
    verdict.check(unaccounted == 0, || {
        format!("fleet residue open: {unaccounted} records unaccounted")
    });
    for (&tenant, lat) in latencies {
        let budget = (2 * lat.baseline_p99_ns).max(args.p99_floor_ms * 1_000_000);
        verdict.check(lat.storm_p99_ns <= budget, || {
            format!(
                "tenant-{tenant}: storm p99 {:.2} ms over budget {:.2} ms (baseline {:.2} ms)",
                lat.storm_p99_ns as f64 / 1e6,
                budget as f64 / 1e6,
                lat.baseline_p99_ns as f64 / 1e6
            )
        });
    }
    let (lost, clean) = (report.workers_lost, report.workers_stopped_clean);
    if args.kill_one {
        verdict.check(kill_happened, || {
            "--kill-one never fired (storm finished too fast?)".into()
        });
        verdict.check(lost == 1, || {
            format!("expected 1 lost worker, report says {lost}")
        });
        let survivors = args.fleet.procs as u64 - 1;
        verdict.check(clean == survivors, || {
            format!("expected {survivors} clean stops, report says {clean}")
        });
        verdict.check(!kill_happened || reconnects > 0, || {
            "worker killed but no sensor ever re-routed".into()
        });
    } else {
        verdict.check(lost == 0, || {
            format!("{lost} workers lost without --kill-one")
        });
    }
    verdict.check(!polluted.exists(), || {
        format!(
            "polluted lineage {} was not quarantined",
            polluted.display()
        )
    });
    verdict.check(quarantined.exists(), || {
        format!("quarantine marker {} missing", quarantined.display())
    });
}

fn main() -> ExitCode {
    let cli = Usage::new("fleet_storm", USAGE);
    let args = cli.parse(parse_cli);

    // Tenant specs: tenant-0 is the saturated one — half the sensor
    // budget (admission shed) and a tiny RejectNewest queue (QueueFull
    // shed); everyone else is lossless Block with room to spare.
    // Distinct seeds per tenant make the bitwise replay a cross-tenant
    // routing check: a record scored by the *wrong* tenant's model
    // cannot match.
    let scenario = FleetScenario::storm(args.tenants, args.sensors, args.records, args.seed);
    let mut registry = TenantRegistry::new();
    let mut detectors: Vec<OccupancyDetector> = Vec::with_capacity(args.tenants);
    let lineage_root = std::env::temp_dir().join(format!("fleet_storm-{}", std::process::id()));
    for t in 0..args.tenants {
        let tenant = format!("tenant-{t}");
        let seed = scenario.model_seed(t);
        eprintln!("training {tenant} bootstrap model (seed {seed})…");
        let detector = bootstrap_detector(seed, FeatureView::Csi);
        let dir = lineage_root.join(&tenant);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| cli.abort(format!("cannot create {}: {e}", dir.display())));
        save_detector_atomic(&checkpoint_path(&dir, 1), &detector)
            .unwrap_or_else(|e| cli.abort(format!("cannot write {tenant} checkpoint: {e}")));
        let mut spec = TenantSpec::new(&tenant, FeatureView::Csi, seed);
        spec.lineage = Some(dir);
        if scenario.is_saturated(t) {
            spec.slo = SloBudget {
                max_sensors: (args.sensors / 2).max(1),
                queue_capacity: 8,
                policy: BackpressurePolicy::RejectNewest,
                ..SloBudget::default()
            };
        }
        registry.register(spec).unwrap_or_else(|e| cli.abort(e));
        detectors.push(detector);
    }

    // Pollute tenant-0's lineage with a *newer* checkpoint of the
    // wrong architecture (env features). The worker's recovery
    // predicate must quarantine it and serve v1 — if it served the
    // polluted model instead, every tenant-0 prediction would fail the
    // bitwise replay.
    let t0_dir = lineage_root.join("tenant-0");
    let polluted_path = checkpoint_path(&t0_dir, 2);
    let quarantined_path =
        PathBuf::from(format!("{}.{QUARANTINE_SUFFIX}", polluted_path.display()));
    eprintln!("polluting tenant-0 lineage with a wrong-architecture v2 checkpoint…");
    let pollutant = bootstrap_detector(args.seed + 999, FeatureView::Env);
    save_detector_atomic(&polluted_path, &pollutant)
        .unwrap_or_else(|e| cli.abort(format!("cannot write pollutant: {e}")));

    eprintln!(
        "launching fleet: {} workers × {} tenants (worker bin {})…",
        args.fleet.procs,
        args.tenants,
        args.fleet.worker_bin.display()
    );
    let started = Instant::now();
    let controller =
        FleetController::launch(args.fleet.clone(), registry).unwrap_or_else(|e| cli.abort(e));
    let ctrl = Arc::new(Mutex::new(controller));
    let worker_load: Arc<Mutex<BTreeMap<String, i64>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let progress = Arc::new(AtomicU64::new(0));

    // Unloaded baseline: one lone sensor per non-saturated tenant,
    // same pump and window as the storm, before any load exists.
    let mut latencies: BTreeMap<usize, TenantLatency> = BTreeMap::new();
    let mut baseline_outcomes: Vec<SensorOutcome> = Vec::new();
    for t in 1..args.tenants {
        let tenant = format!("tenant-{t}");
        let records: Vec<CsiRecord> = scenario
            .baseline_stream(t, args.baseline_records)
            .take(args.baseline_records)
            .collect();
        let mut outcome = drive_sensor(
            t,
            &tenant,
            BASELINE_SENSOR as usize,
            records,
            &ctrl,
            &worker_load,
            args.window,
            &progress,
        );
        outcome.rtts.sort_unstable();
        let p99 = percentile(&outcome.rtts, 99.0);
        eprintln!(
            "{tenant} unloaded baseline: p99 {:.2} ms over {} records",
            p99 as f64 / 1e6,
            outcome.rtts.len()
        );
        latencies.insert(
            t,
            TenantLatency {
                baseline_p99_ns: p99,
                storm_p99_ns: 0,
            },
        );
        baseline_outcomes.push(outcome);
    }
    // Baseline placements were released; reset the load map so victim
    // choice reflects storm placements only.
    worker_load
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();

    eprintln!(
        "storming: {} tenants × {} sensors × {} records (window {}), tenant-0 saturated{}",
        args.tenants,
        args.sensors,
        args.records,
        args.window,
        if args.kill_one {
            ", one worker to die"
        } else {
            ""
        }
    );
    // Every sensor's replay source is materialised *before* the first
    // thread spawns: sensors must hit the fleet simultaneously, or
    // tenant-0's early sensors finish and release their admission
    // slots before the late ones even ask (no saturation), and the
    // mid-storm kill fires into an already-drained fleet.
    let storm_records: Vec<((usize, usize), Vec<CsiRecord>)> = (0..args.tenants)
        .flat_map(|t| (0..args.sensors).map(move |s| (t, s)))
        .map(|(t, s)| {
            let records = scenario
                .sensor_stream(t, s as u64)
                .take(args.records)
                .collect();
            ((t, s), records)
        })
        .collect();
    let handles: Vec<std::thread::JoinHandle<SensorOutcome>> = storm_records
        .into_iter()
        .map(|((t, s), records)| {
            let ctrl = Arc::clone(&ctrl);
            let worker_load = Arc::clone(&worker_load);
            let progress = Arc::clone(&progress);
            let window = args.window;
            std::thread::Builder::new()
                .name(format!("storm-t{t}-s{s}"))
                .spawn(move || {
                    let tenant = format!("tenant-{t}");
                    drive_sensor(
                        t,
                        &tenant,
                        s,
                        records,
                        &ctrl,
                        &worker_load,
                        window,
                        &progress,
                    )
                })
                .expect("spawn sensor thread")
        })
        .collect();

    // The chaos lever: once ~25% of the optimistic resolution total is
    // in, SIGKILL the worker carrying the most live connections — its
    // sensors must re-book their in-flight records as shed and re-place
    // onto survivors.
    let mut kill_happened = false;
    if args.kill_one {
        let optimistic = (args.tenants * args.sensors * args.records) as u64;
        let trigger = (optimistic / 4).max(1);
        let deadline = Instant::now() + Duration::from_secs(300);
        while progress.load(Ordering::Relaxed) < trigger && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let victim = {
            let load = worker_load.lock().unwrap_or_else(|p| p.into_inner());
            load.iter()
                .filter(|&(_, &n)| n > 0)
                .max_by_key(|&(_, &n)| n)
                .map(|(name, _)| name.clone())
        };
        if let Some(victim) = victim {
            let index: usize = victim
                .strip_prefix("worker-")
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            let mut c = ctrl.lock().unwrap_or_else(|p| p.into_inner());
            if c.kill_worker(index) {
                kill_happened = true;
                eprintln!(
                    "killed {victim} after {} resolutions",
                    progress.load(Ordering::Relaxed)
                );
            }
        }
        if !kill_happened {
            eprintln!("fleet_storm: no live loaded worker found to kill");
        }
    }

    let mut outcomes: Vec<SensorOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("sensor thread panicked"))
        .collect();
    outcomes.sort_by_key(|o| (o.tenant, o.sensor));

    // Storm p99 per non-saturated tenant.
    for t in 1..args.tenants {
        let mut rtts: Vec<u64> = outcomes
            .iter()
            .filter(|o| o.tenant == t)
            .flat_map(|o| o.rtts.iter().copied())
            .collect();
        rtts.sort_unstable();
        if let Some(lat) = latencies.get_mut(&t) {
            lat.storm_p99_ns = percentile(&rtts, 99.0);
        }
    }

    let controller = Arc::try_unwrap(ctrl)
        .unwrap_or_else(|_| panic!("sensor threads joined but controller still shared"))
        .into_inner()
        .unwrap_or_else(|p| p.into_inner());
    let mut report = controller.shutdown();
    let wall = started.elapsed();

    // Client-side chaos bookkeeping onto the roll-up: re-booked sheds
    // resolve their records; anything still pending is lost.
    // (`shutdown` leaves both lanes at zero for the caller to fill.)
    for slot in outcomes
        .iter()
        .chain(&baseline_outcomes)
        .flat_map(|o| &o.slots)
    {
        match slot {
            Slot::Rebooked => report.rebooked_shed += 1,
            Slot::Pending => report.unresolved_records += 1,
            _ => {}
        }
    }

    println!("\n=== fleet_storm report ===");
    print!("{report}");
    for (t, lat) in &latencies {
        println!(
            "tenant-{t} p99: baseline {:.2} ms → storm {:.2} ms",
            lat.baseline_p99_ns as f64 / 1e6,
            lat.storm_p99_ns as f64 / 1e6
        );
    }
    println!("fleet wall time {wall:.2?}");

    let mut verdict = Verdict::new("verify verdict", args.verify);
    if args.verify {
        verify(
            &args,
            &outcomes,
            &detectors,
            &report,
            &latencies,
            &polluted_path,
            &quarantined_path,
            kill_happened,
            &mut verdict,
        );
        for o in &baseline_outcomes {
            for e in &o.errors {
                verdict.fail(format!("baseline tenant-{}: {e}", o.tenant));
            }
        }
    }

    if let Some(path) = &args.json {
        let per_tenant = (0..args.tenants).map(|t| {
            let tenant = format!("tenant-{t}");
            let roll = report.tenants.get(&tenant);
            let (served, rejected, shed) = roll.map_or((0, 0, 0), |r| {
                (r.records_served(), r.records_rejected(), r.records_shed())
            });
            let reports = roll.map_or(Vec::new(), |r| {
                r.reports.iter().map(ServeReport::to_json).collect()
            });
            let (base_p99, storm_p99) = latencies
                .get(&t)
                .map_or((0, 0), |l| (l.baseline_p99_ns, l.storm_p99_ns));
            obj([
                ("tenant", tenant.into()),
                ("served", served.into()),
                ("rejected", rejected.into()),
                ("shed", shed.into()),
                ("baseline_p99_us", Value::fixed(base_p99 as f64 / 1e3, 1)),
                ("storm_p99_us", Value::fixed(storm_p99 as f64 / 1e3, 1)),
                ("saturated", (t == 0).into()),
                ("reports", Value::Array(reports)),
            ])
        });
        let summary = obj([
            ("tenants", args.tenants.into()),
            ("procs", args.fleet.procs.into()),
            ("sensors_per_tenant", args.sensors.into()),
            ("records_per_sensor", args.records.into()),
            ("kill_one", args.kill_one.into()),
            ("kill_happened", kill_happened.into()),
            ("wall_s", Value::fixed(wall.as_secs_f64(), 3)),
            ("workers_spawned", report.workers_spawned.into()),
            ("workers_stopped_clean", report.workers_stopped_clean.into()),
            ("workers_lost", report.workers_lost.into()),
            ("heartbeats", report.heartbeats.into()),
            ("placements_shed", report.placements_shed.into()),
            ("rebooked_shed", report.rebooked_shed.into()),
            ("unresolved_records", report.unresolved_records.into()),
            ("truncated_reports", report.truncated_reports.into()),
            ("unaccounted", report.unaccounted_records().into()),
            ("per_tenant", Value::Array(per_tenant.collect())),
        ]);
        verdict.write_summary(path, summary);
    }

    // Keep the quarantined pollutant around only long enough to
    // assert on it; the whole per-run temp tree goes at the end.
    let _ = std::fs::remove_dir_all(&lineage_root);

    verdict.finish(&format!(
        "{} tenants, {} workers{}, residue 0, all predictions bitwise, saturated tenant shed, p99 within budget",
        args.tenants,
        args.fleet.procs,
        if kill_happened { ", 1 killed mid-storm" } else { "" }
    ))
}
