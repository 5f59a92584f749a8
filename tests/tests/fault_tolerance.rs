//! Fault-tolerance integration tests: scripted worker/trainer panics,
//! corrupt and dropped input, the run-level accounting identity
//! `pushed = scored + quarantined + dropped`, and crash-safe
//! checkpoint recovery with bitwise-identical predictions.

use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_core::persist;
use occusense_core::sim::{FaultKind, FaultPlan, OfficeSimulator, ScenarioConfig};
use occusense_core::CsiRecord;
use occusense_serve::{
    BackpressurePolicy, CheckpointConfig, OnlineTrainingConfig, ServeConfig, ServeRuntime,
    SubmitError,
};
use std::path::PathBuf;

fn quick_detector(seed: u64) -> OccupancyDetector {
    let train = occusense_core::sim::simulate(&ScenarioConfig::quick(1200.0, seed));
    OccupancyDetector::train(
        &train,
        &DetectorConfig {
            model: ModelKind::Mlp,
            mlp_epochs: 2,
            seed,
            ..DetectorConfig::default()
        },
    )
}

fn trace(duration_s: f64, seed: u64) -> Vec<CsiRecord> {
    OfficeSimulator::new(ScenarioConfig::quick(duration_s, seed))
        .stream()
        .collect()
}

/// A unique, empty scratch directory for one test's checkpoints.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occusense-ft-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shard, batch size 1, lossless ingest: the configuration under
/// which fault accounting is exact to the single record.
fn precise_config() -> ServeConfig {
    let mut config = ServeConfig {
        n_shards: 1,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        max_batch: 1,
        online: None,
        ..ServeConfig::default()
    };
    config.supervisor.panic_on_trigger = true;
    config
}

/// The acceptance scenario: a scripted panic mid-run must leave a
/// restarted shard, exact accounting, and a checkpoint that restores
/// bitwise-identical predictions in a fresh runtime.
#[test]
fn worker_panic_restarts_shard_and_checkpoint_restores_bitwise() {
    const PANIC_AT: usize = 50;
    let detector = quick_detector(21);
    let ckpt_dir = scratch_dir("acceptance");
    let mut config = precise_config();
    config.checkpoint = Some(CheckpointConfig::new(&ckpt_dir));

    let records = trace(60.0, 900);
    let plan = FaultPlan::new().with(FaultKind::WorkerPanic, PANIC_AT, 1);
    let (runtime, predictions) =
        ServeRuntime::start(detector.clone(), config.clone()).expect("start");
    let mut client = runtime.client("acceptance-sensor");
    for (i, record) in records.iter().enumerate() {
        let faulted = plan.apply(i, *record).expect("plan has no dropouts");
        client.submit(faulted).expect("Block policy accepts all");
    }
    let report = runtime.shutdown();

    // Exactly one supervised restart, exactly the trigger record lost.
    assert_eq!(report.faults.shard_restarts, vec![1]);
    assert_eq!(report.faults.poisoned_records, 1);
    assert_eq!(report.faults.uncontained_panics, 0);
    assert_eq!(report.records_served, records.len() as u64 - 1);
    assert_eq!(report.unaccounted_records(), 0);
    let letter = &report.faults.dead_letters[0];
    assert_eq!(letter.seq, PANIC_AT as u64);
    assert!(
        letter.reason.contains("worker panic"),
        "reason: {}",
        letter.reason
    );
    assert!(report.faults.panics.iter().any(|p| p.contains("shard 0")));

    // Ordering and bitwise fidelity survive the restart: every scored
    // record (all but the quarantined one) matches offline inference.
    let mut expected_seq = 0u64;
    for p in predictions {
        if expected_seq == PANIC_AT as u64 {
            expected_seq += 1; // quarantined, never scored
        }
        assert_eq!(p.seq, expected_seq, "per-sensor order broke");
        let (occupied, proba) = detector.predict_record(&records[p.seq as usize]);
        assert_eq!(p.proba.to_bits(), proba.to_bits());
        assert_eq!(p.occupied, occupied);
        expected_seq += 1;
    }
    assert_eq!(expected_seq, records.len() as u64);

    // The shutdown checkpoint is the newest valid one and reloads to a
    // detector that predicts bitwise-identically…
    assert!(report.faults.checkpoints_written >= 1);
    let (version, _path, restored) = persist::load_latest(&ckpt_dir)
        .expect("scan checkpoints")
        .expect("a checkpoint was written");
    assert_eq!(version, report.model_version);
    for record in &records {
        let (_, original) = detector.predict_record(record);
        let (_, recovered) = restored.predict_record(record);
        assert_eq!(original.to_bits(), recovered.to_bits());
    }

    // …and a runtime resumed from it serves the same bits end to end.
    let (resumed, resumed_rx) = ServeRuntime::start(restored, precise_config()).expect("start");
    let mut client = resumed.client("acceptance-sensor");
    for record in &records {
        client.submit(*record).expect("Block policy accepts all");
    }
    let resumed_report = resumed.shutdown();
    assert_eq!(resumed_report.records_served, records.len() as u64);
    for p in resumed_rx {
        let (_, proba) = detector.predict_record(&records[p.seq as usize]);
        assert_eq!(p.proba.to_bits(), proba.to_bits(), "resumed run diverged");
    }

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn non_finite_and_dropped_records_stay_accounted() {
    const NAN_START: usize = 10;
    const NAN_LEN: usize = 5;
    const DROP_START: usize = 100;
    const DROP_LEN: usize = 20;
    let records = trace(120.0, 901);
    assert!(records.len() > DROP_START + DROP_LEN);
    let plan = FaultPlan::new()
        .with(FaultKind::NanCsi, NAN_START, NAN_LEN)
        .with(FaultKind::Dropout, DROP_START, DROP_LEN)
        .with(FaultKind::Spike { factor: 1e6 }, 150, 3);

    let (runtime, predictions) =
        ServeRuntime::start(quick_detector(22), precise_config()).expect("start");
    let mut client = runtime.client("noisy-sensor");
    let mut submitted = 0u64;
    for (i, record) in records.iter().enumerate() {
        if let Some(faulted) = plan.apply(i, *record) {
            client.submit(faulted).expect("Block policy accepts all");
            submitted += 1;
        }
    }
    assert_eq!(submitted, (records.len() - DROP_LEN) as u64);
    let report = runtime.shutdown();

    // NaN records quarantine (never panic), dropouts never arrive, and
    // spiked records stay scorable; nothing is lost unexplained.
    assert_eq!(report.faults.poisoned_records, NAN_LEN as u64);
    assert_eq!(report.faults.shard_restarts, vec![0]);
    assert_eq!(report.records_served, submitted - NAN_LEN as u64);
    assert_eq!(report.unaccounted_records(), 0);
    assert_eq!(report.faults.dead_letters.len(), NAN_LEN);
    assert!(report
        .faults
        .dead_letters
        .iter()
        .all(|d| d.reason.contains("non-finite")));
    assert_eq!(
        predictions.into_iter().count() as u64,
        report.records_served
    );
}

#[test]
fn trainer_panic_falls_back_to_last_snapshot_without_losing_serving() {
    let records = trace(300.0, 902);
    let plan = FaultPlan::new().with(FaultKind::TrainerPanic, 200, 1);
    let mut config = ServeConfig {
        n_shards: 1,
        queue_capacity: 128,
        policy: BackpressurePolicy::Block,
        online: Some(OnlineTrainingConfig {
            publish_every_updates: 1,
            ..OnlineTrainingConfig::default()
        }),
        ..ServeConfig::default()
    };
    config.supervisor.panic_on_trigger = true;

    let (runtime, predictions) = ServeRuntime::start(quick_detector(23), config).expect("start");
    let mut client = runtime.client("labelled-sensor");
    for (i, record) in records.iter().enumerate() {
        let faulted = plan.apply(i, *record).expect("plan has no dropouts");
        let label = faulted.occupancy();
        client
            .submit_labelled(faulted, label)
            .expect("Block policy");
    }
    let report = runtime.shutdown();

    // The trainer panicked, lost exactly that labelled record, rebuilt
    // from the published snapshot and kept going — while the inference
    // path scored every single submission.
    assert_eq!(report.faults.trainer_restarts, 1);
    assert_eq!(report.faults.trainer_poisoned, 1);
    assert_eq!(report.faults.uncontained_panics, 0);
    assert_eq!(report.records_served, records.len() as u64);
    assert_eq!(report.unaccounted_records(), 0);
    assert!(report.model_publishes >= 1);
    assert!(
        report.faults.panics.iter().any(|p| p.contains("trainer")),
        "panic log: {:?}",
        report.faults.panics
    );
    assert_eq!(
        predictions.into_iter().count() as u64,
        report.records_served
    );
}

#[test]
fn shard_past_restart_limit_fails_closed_not_silent() {
    let mut config = precise_config();
    config.queue_capacity = 16;
    config.supervisor.max_restarts_per_shard = 1;
    let records = trace(60.0, 903);
    let plan =
        FaultPlan::new()
            .with(FaultKind::WorkerPanic, 5, 1)
            .with(FaultKind::WorkerPanic, 10, 1);

    let (runtime, predictions) = ServeRuntime::start(quick_detector(24), config).expect("start");
    let mut client = runtime.client("doomed-sensor");
    let mut shut_down = false;
    let mut submitted = 0u64;
    for (i, record) in records.iter().enumerate() {
        match client.submit(plan.apply(i, *record).expect("no dropouts")) {
            Ok(()) => submitted += 1,
            Err(SubmitError::Shutdown) => {
                shut_down = true;
                break;
            }
            Err(SubmitError::Rejected) => unreachable!("Block policy never rejects"),
        }
    }
    // The worker races ahead of the producer, so the stream may end
    // before the second panic lands; keep probing with fresh records
    // until the failed shard's closed queue turns producers away.
    let mut ts = records.last().expect("non-empty trace").timestamp_s;
    while !shut_down {
        ts += 0.5;
        match client.submit(CsiRecord::new(ts, [0.01; 64], 21.0, 40.0, 0)) {
            Ok(()) => submitted += 1,
            Err(SubmitError::Shutdown) => shut_down = true,
            Err(SubmitError::Rejected) => unreachable!("Block policy never rejects"),
        }
    }

    let report = runtime.shutdown();
    // Two panics against a limit of one: the shard fails *closed* —
    // restarts recorded, producers refused, and still not one record
    // unaccounted for (the remnant is quarantined, not leaked).
    assert_eq!(report.faults.shard_restarts, vec![2]);
    assert!(report.faults.poisoned_records >= 2);
    assert_eq!(report.unaccounted_records(), 0);
    assert_eq!(
        report.shard_queues[0].pushed, submitted,
        "accepted exactly the Ok submissions"
    );
    assert_eq!(
        report.records_served + report.faults.poisoned_records,
        submitted,
        "every accepted record was scored or quarantined"
    );
    assert_eq!(
        predictions.into_iter().count() as u64,
        report.records_served
    );
}
