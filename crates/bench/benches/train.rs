//! Training-pipeline benchmarks for the persistent compute pool
//! (DESIGN.md §12): a full GRU-training epoch (truncated BPTT through
//! [`TemporalDetector::train_with`]) under pooled and single-threaded
//! kernels, the MLP trainer's prefetched epoch under the same two
//! policies, and the fused AdamW step on its own.
//!
//! The pooled/single pair is the headline: `Parallelism::Threads`
//! dispatches row blocks to long-lived workers parked on condvars,
//! `Parallelism::Single` runs every kernel inline. Both produce
//! bitwise identical weights (asserted below before anything is
//! timed), so the entire difference is what the pool's parallelism
//! buys net of its dispatch overhead.
//!
//! With `OCCUSENSE_BENCH_JSON=BENCH_train.json cargo bench --bench
//! train` a measurement run writes the committed baseline; the
//! `bench_gate` binary compares a fresh run against it.

use criterion::{criterion_group, criterion_main, Criterion};
use occusense_core::nn::loss::BceWithLogits;
use occusense_core::nn::optim::{AdamW, Optimizer};
use occusense_core::nn::train::{TrainConfig, TrainWorkspace, Trainer};
use occusense_core::nn::Mlp;
use occusense_core::sim::{simulate, ScenarioConfig};
use occusense_core::tensor::kernels::Parallelism;
use occusense_core::{
    Dataset, FeatureView, TemporalConfig, TemporalDetector, TemporalTrainWorkspace,
};
use std::hint::black_box;

/// The kernel policies under test, in reporting order. Four-way
/// parallelism matches the serve runtime's default worker budget; the
/// pool clamps it to the machine's core count, so it never
/// oversubscribes a smaller runner.
const POLICIES: [(&str, Parallelism); 2] = [
    ("pooled_t4", Parallelism::Threads(4)),
    ("single", Parallelism::Single),
];

/// Training-shaped temporal problem: the full CSI+environment feature
/// view over the default window, sized so the recurrent GEMMs clear
/// the kernels' parallel-eligibility floor.
fn temporal_config() -> TemporalConfig {
    TemporalConfig {
        features: FeatureView::CsiEnv,
        window: 16,
        stride: 2,
        hidden: 32,
        epochs: 1,
        batch_size: 64,
        seed: 61,
        ..TemporalConfig::default()
    }
}

fn temporal_dataset() -> Dataset {
    simulate(&ScenarioConfig::quick(300.0, 61))
}

/// One GRU-training epoch end to end — window gather, forward over the
/// window, truncated BPTT, fused AdamW on all 13 parameter tensors —
/// through a pre-warmed workspace, per kernel policy.
fn bench_gru_epoch(c: &mut Criterion) {
    let ds = temporal_dataset();
    let cfg = temporal_config();

    // Determinism guard before anything is timed: every policy must
    // train the exact same model bit for bit.
    let reference = TemporalDetector::train(&ds, &cfg);
    assert!(reference.is_finite(), "reference GRU training diverged");
    for (name, par) in POLICIES {
        let mut ws = TemporalTrainWorkspace::with_parallelism(par);
        let det = TemporalDetector::train_with(&ds, &cfg, &mut ws);
        assert_eq!(
            det.gru().w_z.as_slice(),
            reference.gru().w_z.as_slice(),
            "{name}: GRU weights drifted from single-threaded"
        );
        assert_eq!(
            det.head().layers()[0].weights.as_slice(),
            reference.head().layers()[0].weights.as_slice(),
            "{name}: head weights drifted from single-threaded"
        );
    }

    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    for (name, par) in POLICIES {
        // One warm-up training outside the timer: sizes every buffer
        // and (for the pooled policy) spins up the workers, so the
        // timed region is the steady state a pretraining-scale run
        // lives in.
        let mut ws = TemporalTrainWorkspace::with_parallelism(par);
        let _ = TemporalDetector::train_with(&ds, &cfg, &mut ws);
        group.bench_function(format!("gru_epoch_{name}"), |b| {
            b.iter(|| {
                let det = TemporalDetector::train_with(black_box(&ds), &cfg, &mut ws);
                assert!(det.is_finite(), "GRU training produced non-finite weights");
                black_box(det)
            })
        });
    }
    group.finish();
}

/// One MLP-training epoch (prefetched batch gather + fused AdamW)
/// through the paper classifier, per kernel policy.
fn bench_mlp_epoch(c: &mut Criterion) {
    let ds = simulate(&ScenarioConfig::quick(512.0, 77));
    let x = FeatureView::CsiEnv.design_matrix(&ds);
    let y_col: Vec<f64> = ds.labels().iter().map(|&l| f64::from(l)).collect();
    let y = occusense_core::tensor::Matrix::col_vector(&y_col);

    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    for (name, par) in POLICIES {
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 256,
            shuffle_seed: 0,
            parallelism: par,
        });
        let mut ws = TrainWorkspace::with_parallelism(par);
        group.bench_function(format!("mlp_epoch_{name}"), |b| {
            b.iter(|| {
                let mut mlp = Mlp::paper_classifier(x.cols(), 1);
                let mut optim = AdamW::new(5e-3, 1e-4);
                let hist = trainer.fit_with(
                    &mut mlp,
                    black_box(&x),
                    black_box(&y),
                    &BceWithLogits,
                    &mut optim,
                    &mut ws,
                );
                let last = hist.last().map_or(f64::NAN, |e| e.mean_loss);
                assert!(last.is_finite(), "MLP epoch loss went non-finite");
                black_box(mlp)
            })
        });
    }
    group.finish();
}

/// The fused AdamW step in isolation: one `update` call over a
/// weight-matrix-sized tensor — the single pass over (param, grad, m,
/// v) the optimizer rewrite collapsed the four bookkeeping loops into.
fn bench_adamw_step(c: &mut Criterion) {
    const N: usize = 1 << 16;
    let mut optim = AdamW::new(5e-3, 1e-4);
    let mut param: Vec<f64> = (0..N).map(|i| (i as f64 / N as f64) - 0.5).collect();
    let grad: Vec<f64> = (0..N)
        .map(|i| ((i * 7919) % 1000) as f64 / 1e4 - 0.05)
        .collect();
    optim.update(0, &mut param, &grad);

    let mut group = c.benchmark_group("train");
    group.bench_function(format!("adamw_fused_step_{N}"), |b| {
        b.iter(|| {
            optim.update(0, black_box(&mut param), black_box(&grad));
            assert!(
                param[0].is_finite(),
                "fused AdamW produced a non-finite weight"
            );
            black_box(param[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_gru_epoch, bench_mlp_epoch, bench_adamw_step);
criterion_main!(benches);
