//! Temporal-model benchmarks: the GRU sequence forward, the
//! hand-derived BPTT pass, and the stateful serving step — the three
//! hot paths added by the temporal subsystem. Every measured output is
//! asserted finite, so a measurement run fails on any NaN escaping the
//! packed kernels, not just on a panic.
//!
//! With `OCCUSENSE_BENCH_JSON=BENCH_temporal.json cargo bench --bench
//! temporal` the measurement run writes the committed baseline, median
//! and p99 per benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use occusense_core::nn::{Gru, GruWorkspace};
use occusense_core::sim::{simulate, ScenarioConfig};
use occusense_core::temporal::{TemporalConfig, TemporalDetector, TemporalWorkspace};
use occusense_core::tensor::Matrix;
use occusense_core::CsiRecord;
use occusense_serve::{BackpressurePolicy, ServeConfig, ServeRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Training-shaped problem: the default detector window over the CSI
/// feature dimension, a training-sized batch of windows.
const IN_DIM: usize = 16;
const HIDDEN: usize = 24;
const WINDOW: usize = 16;
const BATCH: usize = 64;

fn random_windows(rng: &mut StdRng) -> Vec<Matrix> {
    (0..WINDOW)
        .map(|_| Matrix::from_fn(BATCH, IN_DIM, |_, _| rng.gen_range(-1.0..1.0)))
        .collect()
}

fn bench_gru(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(41);
    let gru = Gru::new(IN_DIM, HIDDEN, &mut rng);
    let xs = random_windows(&mut rng);
    let h0 = Matrix::zeros(BATCH, HIDDEN);
    let grad_h_last = Matrix::from_fn(BATCH, HIDDEN, |_, _| rng.gen_range(-0.1..0.1));
    let mut ws = GruWorkspace::new();

    let mut group = c.benchmark_group("temporal");
    group.bench_function(format!("gru_forward_b{BATCH}_t{WINDOW}"), |b| {
        b.iter(|| {
            gru.forward_seq(&xs, &h0, &mut ws);
            let sum: f64 = ws.h_last().as_slice().iter().sum();
            assert!(sum.is_finite(), "GRU forward produced a non-finite state");
            black_box(sum)
        });
    });
    group.bench_function(format!("gru_bptt_b{BATCH}_t{WINDOW}"), |b| {
        b.iter(|| {
            gru.forward_seq(&xs, &h0, &mut ws);
            gru.backward_seq(&xs, &grad_h_last, &mut ws);
            let sum: f64 = ws.grad_w_n().as_slice().iter().sum();
            assert!(sum.is_finite(), "GRU BPTT produced a non-finite gradient");
            black_box(sum)
        });
    });
    group.finish();
}

fn train_temporal() -> TemporalDetector {
    let ds = simulate(&ScenarioConfig::quick(900.0, 99));
    TemporalDetector::train(
        &ds,
        &TemporalConfig {
            window: 8,
            stride: 4,
            hidden: HIDDEN,
            epochs: 1,
            seed: 99,
            ..TemporalConfig::default()
        },
    )
}

/// The serving hot path: one batched GRU step advancing every active
/// sensor's hidden row at once — what a temporal worker executes per
/// round of a micro-batch flush.
fn bench_serve_step(c: &mut Criterion) {
    let temporal = train_temporal();
    let records: Vec<CsiRecord> = simulate(&ScenarioConfig::quick(60.0, 7))
        .records()
        .iter()
        .copied()
        .take(32)
        .collect();
    let mut h = temporal.zero_state(records.len());
    let mut ws = TemporalWorkspace::new();
    let mut probas = Vec::new();
    let mut group = c.benchmark_group("temporal");
    group.bench_function(format!("serve_step_{}_sensors", records.len()), |b| {
        b.iter(|| {
            temporal.step_batch_into(&records, &mut h, &mut ws, &mut probas);
            assert!(
                probas.iter().all(|p| p.is_finite()),
                "stateful step produced a non-finite probability"
            );
            black_box(probas.first().copied())
        });
    });
    group.finish();
}

/// One full stateful serve cycle: boot the temporal runtime, replay
/// four concurrent sensors, drain, shut down — the end-to-end cost of
/// carrying per-sensor state through the sharded micro-batch pipeline.
fn bench_stateful_serve_cycle(c: &mut Criterion) {
    let temporal = train_temporal();
    let traces: Vec<Vec<CsiRecord>> = (0..4)
        .map(|i| {
            simulate(&ScenarioConfig::quick(60.0, 500 + i as u64))
                .records()
                .to_vec()
        })
        .collect();
    let per_cycle: usize = traces.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("temporal");
    group.sample_size(10);
    group.bench_function("stateful_serve_cycle", |b| {
        b.iter(|| {
            let (runtime, predictions) = ServeRuntime::start_temporal(
                temporal.clone(),
                ServeConfig {
                    n_shards: 2,
                    queue_capacity: 512,
                    policy: BackpressurePolicy::Block,
                    max_batch: 32,
                    online: None,
                    ..ServeConfig::default()
                },
            )
            .expect("start temporal runtime");
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
            let drain = std::thread::spawn(move || {
                predictions
                    .into_iter()
                    .inspect(|p| assert!(p.proba.is_finite(), "non-finite served probability"))
                    .count()
            });
            for h in handles {
                h.join().unwrap();
            }
            let report = runtime.shutdown();
            assert_eq!(report.unaccounted_records(), 0);
            assert_eq!(report.records_served, per_cycle as u64);
            black_box(drain.join().unwrap())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gru,
    bench_serve_step,
    bench_stateful_serve_cycle
);
criterion_main!(benches);
