//! Allocation-free training-pipeline benchmarks (DESIGN.md §12): a
//! full GRU-training epoch (truncated BPTT through
//! [`TemporalDetector::train_with`]), the MLP trainer's prefetched
//! epoch, and the fused AdamW step on its own. Every kernel runs on
//! the calling thread; the `_single` suffix of the epoch rows is kept
//! so their committed baselines stay comparable.
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
use occusense_core::{
    Dataset, FeatureView, TemporalConfig, TemporalDetector, TemporalTrainWorkspace,
};
use std::hint::black_box;

/// Training-shaped temporal problem: the full CSI+environment feature
/// view over the default window.
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
/// through a pre-warmed workspace.
fn bench_gru_epoch(c: &mut Criterion) {
    let ds = temporal_dataset();
    let cfg = temporal_config();

    // One warm-up training outside the timer sizes every buffer, so
    // the timed region is the steady state a pretraining-scale run
    // lives in.
    let mut ws = TemporalTrainWorkspace::new();
    let warm = TemporalDetector::train_with(&ds, &cfg, &mut ws);
    assert!(warm.is_finite(), "warm-up GRU training diverged");

    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    group.bench_function("gru_epoch_single", |b| {
        b.iter(|| {
            let det = TemporalDetector::train_with(black_box(&ds), &cfg, &mut ws);
            assert!(det.is_finite(), "GRU training produced non-finite weights");
            black_box(det)
        })
    });
    group.finish();
}

/// One MLP-training epoch (prefetched batch gather + fused AdamW)
/// through the paper classifier.
fn bench_mlp_epoch(c: &mut Criterion) {
    let ds = simulate(&ScenarioConfig::quick(512.0, 77));
    let x = FeatureView::CsiEnv.design_matrix(&ds);
    let y_col: Vec<f64> = ds.labels().iter().map(|&l| f64::from(l)).collect();
    let y = occusense_core::tensor::Matrix::col_vector(&y_col);

    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 256,
        shuffle_seed: 0,
    });
    let mut ws = TrainWorkspace::new();
    group.bench_function("mlp_epoch_single", |b| {
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
