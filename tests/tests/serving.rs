//! Serving-runtime integration tests: backpressure accounting,
//! work-conserving batching, deterministic routing, bitwise batched
//! inference and a fixed-seed end-to-end smoke run.

use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_core::sim::{simulate, OfficeSimulator, ScenarioConfig};
use occusense_serve::{
    shard_for, BackpressurePolicy, BoundedQueue, OnlineTrainingConfig, ServeConfig, ServeRuntime,
};
use std::collections::HashMap;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

fn quick_detector(seed: u64) -> OccupancyDetector {
    let train = simulate(&ScenarioConfig::quick(1200.0, seed));
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

#[test]
fn drop_oldest_queue_accounts_for_every_record() {
    let q: BoundedQueue<u32> = BoundedQueue::new(4, BackpressurePolicy::DropOldest);
    for i in 0..10 {
        q.push(i).unwrap();
    }
    let c = q.counters();
    assert_eq!(c.pushed, 10);
    assert_eq!(c.dropped, 6);
    assert_eq!(c.rejected, 0);
    assert_eq!(c.depth, 4);
    assert_eq!(c.high_watermark, 4);
    // The four survivors are exactly the newest four, in order.
    q.close();
    let survivors: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(survivors, vec![6, 7, 8, 9]);
    assert_eq!(q.counters().popped, 4);
}

#[test]
fn reject_newest_queue_returns_the_rejected_record() {
    let q: BoundedQueue<u32> = BoundedQueue::new(3, BackpressurePolicy::RejectNewest);
    for i in 0..3 {
        q.push(i).unwrap();
    }
    for i in 3..8 {
        let err = q.push(i).unwrap_err();
        assert_eq!(err.into_inner(), i);
    }
    let c = q.counters();
    assert_eq!((c.pushed, c.rejected, c.dropped, c.depth), (3, 5, 0, 3));
}

#[test]
fn routing_is_deterministic_and_stable_across_runtimes() {
    let detector = quick_detector(11);
    let config = ServeConfig {
        n_shards: 5,
        online: None,
        ..ServeConfig::default()
    };
    let (rt_a, _rx_a) = ServeRuntime::start(detector.clone(), config.clone()).expect("start");
    let (rt_b, _rx_b) = ServeRuntime::start(detector, config).expect("start");
    let mut seen = [false; 5];
    for i in 0..64 {
        let id = format!("office-{i}/esp32");
        let shard = rt_a.client(&id).shard();
        // Same id ⇒ same shard, within a runtime and across runtimes.
        assert_eq!(shard, rt_a.client(&id).shard());
        assert_eq!(shard, rt_b.client(&id).shard());
        assert_eq!(shard, shard_for(&id, 5));
        assert!(shard < 5);
        seen[shard] = true;
    }
    // 64 distinct sensors should exercise every one of 5 shards.
    assert!(seen.iter().all(|&s| s), "a shard received no sensors");
    rt_a.shutdown();
    rt_b.shutdown();
}

#[test]
fn partial_batches_are_scored_without_a_timer() {
    let (runtime, predictions) = ServeRuntime::start(
        quick_detector(12),
        ServeConfig {
            n_shards: 1,
            // Never reached: the worker scores whatever is queued.
            max_batch: 1_000,
            online: None,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let mut client = runtime.client("lone-sensor");
    let records = simulate(&ScenarioConfig::quick(400.0, 12));
    for r in records.records().iter().take(3) {
        client.submit(*r).unwrap();
    }
    for _ in 0..3 {
        predictions
            .recv_timeout(Duration::from_secs(5))
            .expect("a partial batch waited for company");
    }
    let report = runtime.shutdown();
    assert_eq!(report.records_served, 3);
    assert!(!report.metrics_text.contains("serve.deadline_flushes"));
}

#[test]
fn batched_inference_is_bitwise_identical_to_per_record() {
    let detector = quick_detector(13);
    let (runtime, predictions) = ServeRuntime::start(
        detector.clone(),
        ServeConfig {
            n_shards: 3,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block, // lossless: every record is scored
            online: None,                      // model stays v1 for the whole run
            ..ServeConfig::default()
        },
    )
    .expect("start");

    // Several sensors per shard so batches interleave scenario clocks.
    let mut submitted: HashMap<String, Vec<_>> = HashMap::new();
    let mut handles = Vec::new();
    for i in 0..6u64 {
        let id = format!("sensor-{i}");
        let records: Vec<_> = OfficeSimulator::new(ScenarioConfig::quick(120.0, 200 + i))
            .stream()
            .collect();
        submitted.insert(id.clone(), records.clone());
        let mut client = runtime.client(&id);
        handles.push(std::thread::spawn(move || {
            for r in records {
                client.submit(r).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let total: usize = submitted.values().map(Vec::len).sum();
    let mut checked = 0;
    while checked < total {
        let p = predictions
            .recv_timeout(Duration::from_secs(10))
            .expect("runtime lost a record under Block policy");
        let record = submitted[p.sensor_id.as_ref()][p.seq as usize];
        let (occupied, proba) = detector.predict_record(&record);
        assert_eq!(p.proba.to_bits(), proba.to_bits(), "batched proba differs");
        assert_eq!(p.occupied, occupied);
        assert_eq!(p.model_version, 1);
        checked += 1;
    }

    let report = runtime.shutdown();
    assert_eq!(report.records_served, total as u64);
    assert!(report.shard_queues.iter().all(|q| q.dropped == 0));
    assert!(matches!(
        predictions.recv_timeout(Duration::from_millis(100)),
        Err(RecvTimeoutError::Disconnected)
    ));
}

#[test]
fn end_to_end_smoke_with_online_training() {
    const SENSORS: u64 = 4;
    let (runtime, predictions) = ServeRuntime::start(
        quick_detector(14),
        ServeConfig {
            n_shards: 2,
            queue_capacity: 128,
            policy: BackpressurePolicy::Block,
            online: Some(OnlineTrainingConfig::default()),
            ..ServeConfig::default()
        },
    )
    .expect("start");

    let mut handles = Vec::new();
    for i in 0..SENSORS {
        let mut client = runtime.client(&format!("smoke-{i}"));
        handles.push(std::thread::spawn(move || {
            let mut n = 0u64;
            for record in OfficeSimulator::new(ScenarioConfig::quick(150.0, 300 + i)).stream() {
                let label = record.occupancy();
                client.submit_labelled(record, label).unwrap();
                n += 1;
            }
            n
        }));
    }
    let submitted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(submitted > 0);

    let report = runtime.shutdown();
    assert_eq!(report.records_served, submitted, "Block policy is lossless");
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency_p99_ns >= report.latency_p50_ns);
    assert!(report.latency_p99_ns > 0);
    assert_eq!(report.shard_queues.len(), 2);
    assert_eq!(
        report.shard_queues.iter().map(|q| q.pushed).sum::<u64>(),
        submitted
    );
    // The trainer saw every labelled record (lossless ingest + drain
    // ordering) and published at least one hot swap.
    let trainer = report.trainer_queue.expect("online training was enabled");
    assert_eq!(trainer.popped + trainer.dropped, submitted);
    assert!(report.model_publishes >= 1);
    assert!(report.model_version > 1, "no snapshot was ever published");

    // Every accepted record came back out exactly once.
    let delivered = predictions.into_iter().count() as u64;
    assert_eq!(delivered, submitted);
}
