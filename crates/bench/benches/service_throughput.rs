//! Serving-runtime throughput: records/second through the full
//! `occusense-serve` pipeline (bounded queues → sharded workers →
//! micro-batched MLP forwards), end to end including graceful
//! shutdown. Complements `inference_latency`, which measures the bare
//! model forward without the runtime around it.

use criterion::{criterion_group, criterion_main, Criterion};
use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_core::sim::{simulate, ScenarioConfig};
use occusense_core::CsiRecord;
use occusense_serve::{BackpressurePolicy, ServeConfig, ServeRuntime};
use std::hint::black_box;

const SENSORS: usize = 4;

fn train_detector() -> OccupancyDetector {
    let ds = simulate(&ScenarioConfig::quick(1200.0, 99));
    OccupancyDetector::train(
        &ds,
        &DetectorConfig {
            model: ModelKind::Mlp,
            mlp_epochs: 2,
            max_train_samples: Some(2_000),
            ..DetectorConfig::default()
        },
    )
}

fn sensor_traces() -> Vec<Vec<CsiRecord>> {
    (0..SENSORS)
        .map(|i| {
            simulate(&ScenarioConfig::quick(120.0, 500 + i as u64))
                .records()
                .to_vec()
        })
        .collect()
}

/// One full serve cycle: boot, flood-replay every sensor concurrently,
/// drain, shut down. Returns the number of records scored so the
/// throughput figure divides out correctly.
fn serve_once(detector: &OccupancyDetector, traces: &[Vec<CsiRecord>], max_batch: usize) -> u64 {
    let (runtime, predictions) = ServeRuntime::start(
        detector.clone(),
        ServeConfig {
            n_shards: 2,
            queue_capacity: 512,
            policy: BackpressurePolicy::Block,
            max_batch,
            online: None,
            ..ServeConfig::default()
        },
    )
    .expect("start runtime");
    let handles: Vec<_> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let mut client = runtime.client(&format!("bench-{i}"));
            let trace = trace.clone();
            std::thread::spawn(move || {
                for r in trace {
                    client.submit(r).unwrap();
                }
            })
        })
        .collect();
    let drain = std::thread::spawn(move || predictions.into_iter().count());
    for h in handles {
        h.join().unwrap();
    }
    let report = runtime.shutdown();
    black_box(drain.join().unwrap());
    report.records_served
}

fn bench_service(c: &mut Criterion) {
    let detector = train_detector();
    let traces = sensor_traces();
    let per_cycle: usize = traces.iter().map(Vec::len).sum();
    eprintln!(
        "service_throughput: {SENSORS} sensors × {} records/cycle",
        per_cycle / SENSORS
    );

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    for max_batch in [1, 8, 32] {
        group.bench_function(format!("batch_{max_batch}"), |b| {
            b.iter(|| serve_once(&detector, &traces, max_batch));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
