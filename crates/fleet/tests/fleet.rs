//! End-to-end fleet tests over the real `fleet_worker` binary
//! (located via `CARGO_BIN_EXE_fleet_worker`, so `cargo test` always
//! exercises the freshly built worker).

use occusense_core::detector::OccupancyDetector;
use occusense_dataset::{CsiRecord, FeatureView};
use occusense_fleet::{
    bootstrap_detector, FleetConfig, FleetController, PlaceError, SloBudget, TenantRegistry,
    TenantSpec, WorkerHandle,
};
use occusense_sim::fleet_stream;
use occusense_wire::{tcp_connect, ClientEvent, TcpConfig, WireClient};
use std::path::PathBuf;
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker"))
}

fn stream(seed: u64, sensor: u64, n: usize) -> Vec<CsiRecord> {
    // Over-provision the simulated duration; `take` trims exactly.
    fleet_stream(n as f64 / 10.0 + 5.0, seed, sensor)
        .take(n)
        .collect()
}

/// Scores `records` through a live worker gateway at `addr`, returning
/// `(occupied, proba bits)` per record in order.
fn score_over_wire(addr: &str, tenant: &str, records: &[CsiRecord]) -> Vec<(u8, u64)> {
    let conn = tcp_connect(addr, TcpConfig::default()).expect("dial worker");
    let mut client =
        WireClient::connect(conn, tenant, "itest", Duration::from_secs(10)).expect("handshake");
    for r in records {
        client.send(*r, None).expect("send");
    }
    client.finish().expect("goodbye");
    let mut preds: Vec<(u64, u8, u64)> = Vec::new();
    loop {
        match client.recv(Duration::from_millis(50)).expect("recv") {
            ClientEvent::Prediction(p) => preds.push((p.seq, p.occupied, p.proba.to_bits())),
            ClientEvent::Nack(n) => panic!("unexpected NACK: {:?}", n.reason),
            ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
            ClientEvent::TimedOut => {}
        }
    }
    preds.sort_unstable_by_key(|&(seq, _, _)| seq);
    assert_eq!(preds.len(), records.len(), "every record must be scored");
    preds.into_iter().map(|(_, o, p)| (o, p)).collect()
}

/// The full worker lifecycle over real pipes and a real socket:
/// spawn → ready → traffic → stop → per-tenant report, with the
/// report's accounting identity closed and predictions bitwise equal
/// to in-process scoring by the same bootstrap recipe.
#[test]
fn worker_round_trip_serves_and_reports() {
    let args: Vec<String> = [
        "--hb-ms",
        "50",
        "--shards",
        "2",
        "--tenant",
        "acme",
        "--features",
        "csi",
        "--seed",
        "5",
        "--policy",
        "block",
        "--capacity",
        "64",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let worker = WorkerHandle::spawn("worker-0", &worker_bin(), &args).expect("spawn worker");
    let ports = worker
        .await_ready(Duration::from_secs(120))
        .expect("worker ready");
    let addr = ports.get("acme").expect("acme gateway advertised").clone();

    let records = stream(5, 0, 40);
    let over_wire = score_over_wire(&addr, "acme", &records);
    let local: OccupancyDetector = bootstrap_detector(5, FeatureView::Csi);
    for (i, (record, &(occupied, proba_bits))) in records.iter().zip(&over_wire).enumerate() {
        let (want_occupied, want_proba) = local.predict_record(record);
        assert_eq!(occupied, want_occupied, "record {i}: occupancy differs");
        assert_eq!(
            proba_bits,
            want_proba.to_bits(),
            "record {i}: proba differs"
        );
    }

    let stopped = worker.stop(Duration::from_secs(60));
    assert!(stopped.clean, "worker must say bye and exit zero");
    assert_eq!(stopped.truncated_reports, 0);
    assert_eq!(stopped.reports.len(), 1, "one report per tenant");
    let report = &stopped.reports[0];
    assert_eq!(report.tenant, "acme");
    assert_eq!(report.records_served, records.len() as u64);
    assert_eq!(report.unaccounted_records(), 0, "accounting must close");
}

/// A killed worker leaves the ring, the survivor inherits its sensors,
/// and the shutdown roll-up records exactly one lost process — with
/// the fleet residue still closed (a SIGKILLed worker files no report,
/// but files no counters either).
#[test]
fn controller_reroutes_after_kill_and_rolls_up() {
    let mut registry = TenantRegistry::new();
    registry
        .register(TenantSpec::new("acme", FeatureView::Csi, 5))
        .expect("register");
    let config = FleetConfig {
        worker_bin: worker_bin(),
        procs: 2,
        hb_ms: 50,
        ..FleetConfig::default()
    };
    let mut ctrl = FleetController::launch(config, registry).expect("launch fleet");
    assert_eq!(ctrl.live_workers(), 2);

    let first = ctrl.place("acme", "s0").expect("place s0");
    // Placement is idempotent while the worker lives.
    assert_eq!(ctrl.place("acme", "s0").expect("re-place"), first);

    let victim: usize = first
        .worker
        .strip_prefix("worker-")
        .and_then(|n| n.parse().ok())
        .expect("worker names are worker-<index>");
    assert!(ctrl.kill_worker(victim), "victim must be live");
    assert_eq!(ctrl.live_workers(), 1);

    let second = ctrl.place("acme", "s0").expect("re-place after kill");
    assert_ne!(
        second.worker, first.worker,
        "sensor must leave the dead worker"
    );
    assert_ne!(second.addr, first.addr);

    // The survivor actually serves the re-routed sensor.
    let records = stream(5, 3, 10);
    let over_wire = score_over_wire(&second.addr, "acme", &records);
    assert_eq!(over_wire.len(), records.len());

    let report = ctrl.shutdown();
    assert_eq!(report.workers_spawned, 2);
    assert_eq!(report.workers_lost, 1);
    assert_eq!(report.workers_stopped_clean, 1);
    assert_eq!(report.unaccounted_records(), 0, "fleet residue must close");
    let acme = report.tenants.get("acme").expect("acme rolled up");
    assert_eq!(acme.records_served(), records.len() as u64);
}

/// Admission control enforces the tenant's sensor budget on concurrent
/// placements and frees the slot on release.
#[test]
fn admission_cap_refuses_then_recovers_on_release() {
    let mut registry = TenantRegistry::new();
    let mut spec = TenantSpec::new("tiny", FeatureView::Csi, 5);
    spec.slo = SloBudget {
        max_sensors: 1,
        ..SloBudget::default()
    };
    registry.register(spec).expect("register");
    let config = FleetConfig {
        worker_bin: worker_bin(),
        procs: 1,
        hb_ms: 50,
        ..FleetConfig::default()
    };
    let mut ctrl = FleetController::launch(config, registry).expect("launch fleet");

    ctrl.place("tiny", "s0").expect("first sensor fits");
    match ctrl.place("tiny", "s1") {
        Err(PlaceError::Saturated { active, cap }) => {
            assert_eq!((active, cap), (1, 1));
        }
        other => panic!("expected Saturated, got {other:?}"),
    }
    assert!(matches!(
        ctrl.place("ghost", "s0"),
        Err(PlaceError::UnknownTenant { .. })
    ));
    ctrl.release("tiny", "s0");
    ctrl.place("tiny", "s1").expect("slot freed by release");

    let report = ctrl.shutdown();
    assert_eq!(report.placements_shed, 1);
    assert_eq!(report.workers_stopped_clean, 1);
}
