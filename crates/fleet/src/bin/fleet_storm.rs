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
//! The sensors run on the `occusense_wire::storm` engine, swept by two
//! driver threads; this binary adds placement through the controller,
//! re-placement onto a survivor when a connection dies, and the kill.
//!
//! ```text
//! cargo run --release -p occusense-fleet --bin fleet_storm -- \
//!     --tenants 3 --procs 4 --kill-one --verify --json soak.json
//! ```

use occusense_core::detector::OccupancyDetector;
use occusense_core::persist::{checkpoint_path, save_detector_atomic, QUARANTINE_SUFFIX};
use occusense_dataset::FeatureView;
use occusense_driver::{obj, percentile, CliError, Parser, Usage, Value, Verdict};
use occusense_fleet::{
    bootstrap_detector, FleetConfig, FleetController, FleetReport, PlaceError, SloBudget,
    TenantRegistry, TenantSpec,
};
use occusense_serve::{BackpressurePolicy, ServeReport};
use occusense_sim::{FleetScenario, BASELINE_SENSOR};
use occusense_wire::storm::{
    self, Dial, Dialer, Reference, SensorPlan, SensorRun, StormConfig, Tally,
};
use occusense_wire::{tcp_connect, TcpConfig, WireClient, WireError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Mutex, MutexGuard};
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

/// Most dials one sensor gets (placements, connects and handshakes).
const MAX_DIALS: u32 = 40;

/// Driver threads sweeping the storm's sensors.
const STORM_DRIVERS: usize = 2;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Places each sensor through the controller and connects it to the
/// owning worker's gateway; a lost connection re-places the sensor
/// onto a survivor.
struct FleetDialer<'a> {
    ctrl: &'a Mutex<FleetController>,
    /// Live connections per worker: the kill picks the busiest.
    worker_load: &'a Mutex<BTreeMap<String, i64>>,
}

impl Dialer for FleetDialer<'_> {
    fn dial(&self, plan: &SensorPlan, attempt: u32) -> Dial {
        if attempt > MAX_DIALS {
            return Dial::Fail(format!("gave up after {MAX_DIALS} placement attempts"));
        }
        let placement = {
            let mut c = lock(self.ctrl);
            if attempt > 1 {
                // A dead connection usually means a dead worker; sweep
                // so the ring stops routing to it before re-placing.
                c.poll();
            }
            match c.place(&plan.tenant, &plan.sensor) {
                Ok(p) => p,
                Err(PlaceError::Saturated { .. }) => return Dial::Shed,
                Err(PlaceError::NoWorkers) => return Dial::Retry(Duration::from_millis(100)),
                Err(e) => return Dial::Fail(format!("place: {e}")),
            }
        };
        // A failed dial means the worker died between the sweep and
        // the dial; the next attempt re-routes.
        let opened = tcp_connect(&placement.addr, TcpConfig::default())
            .map_err(WireError::Transport)
            .and_then(|conn| WireClient::open(conn, &plan.tenant, &plan.sensor));
        let Ok(client) = opened else {
            return Dial::Retry(Duration::from_millis(50));
        };
        *lock(self.worker_load)
            .entry(placement.worker.clone())
            .or_default() += 1;
        Dial::Open(client, placement.worker)
    }

    fn hang_up(&self, plan: &SensorPlan, via: &str, end: Result<(), &str>) -> bool {
        *lock(self.worker_load).entry(via.to_string()).or_default() -= 1;
        match end {
            Ok(()) => {
                lock(self.ctrl).release(&plan.tenant, &plan.sensor);
                false
            }
            Err(why) => {
                // Exactly-once under chaos: whatever was in flight to
                // the dead worker can never resolve there, so it is
                // re-booked as fleet shed and the rest streams
                // elsewhere.
                eprintln!(
                    "{}: connection to {via} lost ({why}); re-routing",
                    plan.name()
                );
                true
            }
        }
    }
}

/// The p99 round trip, ns, over tenant `t`'s sensors in `runs`.
fn p99(runs: &[SensorRun], t: usize) -> u64 {
    let tenant = runs.iter().filter(|r| r.plan.model == t);
    let mut rtts: Vec<u64> = tenant.flat_map(|r| r.rtts.iter().copied()).collect();
    rtts.sort_unstable();
    percentile(&rtts, 99.0)
}

/// The `--verify` verdict over the whole run.
#[allow(clippy::too_many_arguments)]
fn verify(
    args: &Args,
    baseline: &[SensorRun],
    runs: &[SensorRun],
    detectors: &[OccupancyDetector],
    report: &FleetReport,
    latencies: &BTreeMap<usize, (u64, u64)>,
    polluted: &std::path::Path,
    quarantined: &std::path::Path,
    kill_happened: bool,
    verdict: &mut Verdict,
) {
    // Every booked seq of every sensor resolves exactly once and
    // bitwise as its own tenant's model scores it, whatever its
    // placement outcome; only a shed sensor's never-sent seqs are
    // exempt.
    for phase in [baseline, runs] {
        storm::verify(phase, &Reference::Frame(detectors), verdict);
    }
    let mut shed_by_tenant: BTreeMap<usize, u64> = BTreeMap::new();
    let mut nacked_t0 = 0u64;
    let mut reconnects = 0u64;
    for run in baseline.iter().chain(runs) {
        for e in &run.errors {
            verdict.fail(format!("{}: {e}", run.plan.name()));
        }
        reconnects += run.reconnects;
        if run.shed {
            *shed_by_tenant.entry(run.plan.model).or_default() += 1;
        }
        if run.plan.model == 0 {
            nacked_t0 += Tally::of([run]).nacked;
        }
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
    for (&tenant, &(baseline, storm)) in latencies {
        let budget = (2 * baseline).max(args.p99_floor_ms * 1_000_000);
        verdict.check(storm <= budget, || {
            format!(
                "tenant-{tenant}: storm p99 {:.2} ms over budget {:.2} ms (baseline {:.2} ms)",
                storm as f64 / 1e6,
                budget as f64 / 1e6,
                baseline as f64 / 1e6
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
    let ctrl = Mutex::new(controller);
    let worker_load = Mutex::new(BTreeMap::new());
    let dialer = FleetDialer {
        ctrl: &ctrl,
        worker_load: &worker_load,
    };
    let lone = StormConfig {
        drivers: 1,
        wire_batch: 1,
        window: args.window,
    };

    // Unloaded baseline: one lone sensor per non-saturated tenant,
    // same driver and window as the storm, before any load exists.
    let mut baseline: Vec<SensorRun> = Vec::new();
    for t in 1..args.tenants {
        let plan = SensorPlan {
            tenant: format!("tenant-{t}"),
            sensor: format!("s{BASELINE_SENSOR}"),
            model: t,
            records: scenario
                .baseline_stream(t, args.baseline_records)
                .take(args.baseline_records)
                .collect(),
        };
        baseline.append(&mut storm::run(vec![plan], &lone, &dialer, |_| ()).0);
        eprintln!(
            "tenant-{t} unloaded baseline: p99 {:.2} ms over {} records",
            p99(&baseline, t) as f64 / 1e6,
            args.baseline_records
        );
    }
    // Baseline placements were released; reset the load map so victim
    // choice reflects storm placements only.
    lock(&worker_load).clear();

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
    // Every sensor's replay source is materialised before the drivers
    // start, and every sensor dials in their first sweep: sensors must
    // hit the fleet simultaneously, or tenant-0's early sensors finish
    // and release their admission slots before the late ones even ask
    // (no saturation), and the mid-storm kill fires into an
    // already-drained fleet.
    let plans: Vec<SensorPlan> = (0..args.tenants)
        .flat_map(|t| (0..args.sensors).map(move |s| (t, s)))
        .map(|(t, s)| SensorPlan {
            tenant: format!("tenant-{t}"),
            sensor: format!("s{s}"),
            model: t,
            records: scenario
                .sensor_stream(t, s as u64)
                .take(args.records)
                .collect(),
        })
        .collect();
    let config = StormConfig {
        drivers: STORM_DRIVERS,
        ..lone
    };
    let (runs, kill_happened) = storm::run(plans, &config, &dialer, |progress| {
        // The chaos lever: once ~25% of the records have resolved,
        // SIGKILL the worker carrying the most live connections — its
        // sensors must re-book their in-flight records as shed and
        // re-place onto survivors.
        if !args.kill_one {
            return false;
        }
        progress.wait_for(0.25, Duration::from_secs(300));
        let victim = lock(&worker_load)
            .iter()
            .filter(|&(_, &n)| n > 0)
            .max_by_key(|&(_, &n)| n)
            .map(|(name, _)| name.clone());
        let killed = victim.is_some_and(|victim| {
            let index: usize = victim
                .strip_prefix("worker-")
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            let killed = lock(&ctrl).kill_worker(index);
            if killed {
                eprintln!("killed {victim} after {} resolutions", progress.resolved());
            }
            killed
        });
        if !killed {
            eprintln!("fleet_storm: no live loaded worker found to kill");
        }
        killed
    });

    // Baseline and storm p99 per non-saturated tenant.
    let latencies: BTreeMap<usize, (u64, u64)> = (1..args.tenants)
        .map(|t| (t, (p99(&baseline, t), p99(&runs, t))))
        .collect();

    let mut report = ctrl
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .shutdown();
    let wall = started.elapsed();

    // Client-side chaos bookkeeping onto the roll-up: re-booked sheds
    // resolve their records; anything still pending is lost.
    // (`shutdown` leaves both lanes at zero for the caller to fill.)
    let booking = Tally::of(baseline.iter().chain(&runs));
    report.rebooked_shed = booking.rebooked;
    report.unresolved_records = booking.unresolved;

    println!("\n=== fleet_storm report ===");
    print!("{report}");
    for (t, (baseline, storm)) in &latencies {
        println!(
            "tenant-{t} p99: baseline {:.2} ms → storm {:.2} ms",
            *baseline as f64 / 1e6,
            *storm as f64 / 1e6
        );
    }
    println!("fleet wall time {wall:.2?}");

    let mut verdict = Verdict::new("verify verdict", args.verify);
    if args.verify {
        verify(
            &args,
            &baseline,
            &runs,
            &detectors,
            &report,
            &latencies,
            &polluted_path,
            &quarantined_path,
            kill_happened,
            &mut verdict,
        );
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
            let (base_p99, storm_p99) = latencies.get(&t).copied().unwrap_or_default();
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
            ("booking", booking.to_json()),
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
