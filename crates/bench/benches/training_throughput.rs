//! E10 — ablation: training throughput of the paper's MLP per optimiser
//! (SGD vs Adam vs AdamW), plus the baselines' fit cost on equal data.

use criterion::{criterion_group, criterion_main, Criterion};
use occusense_core::baselines::forest::{ForestConfig, RandomForest};
use occusense_core::baselines::logreg::{LogRegConfig, LogisticRegression};
use occusense_core::nn::loss::BceWithLogits;
use occusense_core::nn::optim::{AdamW, Optimizer, Sgd};
use occusense_core::nn::train::{TrainConfig, Trainer};
use occusense_core::nn::Mlp;
use occusense_core::sim::{simulate, ScenarioConfig};
use occusense_core::tensor::Matrix;
use occusense_core::FeatureView;
use std::hint::black_box;

fn training_data(n: usize) -> (Matrix, Matrix, Vec<u8>) {
    let ds = simulate(&ScenarioConfig::quick(n as f64, 77));
    let x = FeatureView::CsiEnv.design_matrix(&ds);
    let labels = ds.labels();
    let y = Matrix::col_vector(&labels.iter().map(|&l| l as f64).collect::<Vec<_>>());
    (x, y, labels)
}

fn bench_optimisers(c: &mut Criterion) {
    let (x, y, _) = training_data(512);
    let mut group = c.benchmark_group("mlp_one_epoch_1024_samples");
    group.sample_size(10);

    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 256,
        shuffle_seed: 0,
    });
    let mut run = |name: &str, make: &dyn Fn() -> Box<dyn Optimizer>| {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut mlp = Mlp::paper_classifier(66, 1);
                let mut optim = make();
                trainer.fit(
                    &mut mlp,
                    black_box(&x),
                    black_box(&y),
                    &BceWithLogits,
                    &mut *optim,
                );
                black_box(mlp)
            })
        });
    };
    run("sgd", &|| Box::new(Sgd::new(5e-3)));
    run("sgd_momentum", &|| Box::new(Sgd::with_momentum(5e-3, 0.9)));
    run("adam", &|| Box::new(AdamW::adam(5e-3)));
    run("adamw", &|| Box::new(AdamW::new(5e-3, 1e-4)));
    group.finish();
}

fn bench_baseline_fits(c: &mut Criterion) {
    let (x, _, labels) = training_data(512);
    let yf: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
    let mut group = c.benchmark_group("baseline_fit_1024_samples");
    group.sample_size(10);
    group.bench_function("logreg", |b| {
        b.iter(|| {
            black_box(LogisticRegression::fit(
                black_box(&x),
                black_box(&labels),
                &LogRegConfig {
                    epochs: 10,
                    ..LogRegConfig::default()
                },
            ))
        })
    });
    group.bench_function("random_forest_10_trees", |b| {
        b.iter(|| {
            black_box(RandomForest::fit(
                black_box(&x),
                black_box(&yf),
                &ForestConfig {
                    n_trees: 10,
                    ..ForestConfig::default()
                },
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_optimisers, bench_baseline_fits);
criterion_main!(benches);
