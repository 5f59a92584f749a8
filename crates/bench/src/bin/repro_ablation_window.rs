//! E15 (ablation, extension) — instantaneous vs trailing-window CSI
//! features. The paper classifies single 50 ms samples; classic CSI
//! sensing aggregates short windows because motion lives in temporal
//! variance. This ablation quantifies what the paper's design leaves on
//! the table (or doesn't) under the simulator.

use occusense_bench::{pct, rule, Cli};
use occusense_core::dataset::folds::split_by_folds;
use occusense_core::dataset::windowed::WindowedView;
use occusense_core::dataset::Standardizer;
use occusense_core::nn::loss::BceWithLogits;
use occusense_core::nn::optim::AdamW;
use occusense_core::nn::train::{TrainConfig, Trainer};
use occusense_core::nn::Mlp;
use occusense_core::sampling::stratified_indices;
use occusense_core::stats::metrics::accuracy;
use occusense_core::tensor::Matrix;
use occusense_core::{Dataset, FeatureView};

/// Trains the paper MLP on a precomputed design matrix and returns
/// per-fold accuracies.
fn run(
    train: &Dataset,
    tests: &[Dataset],
    features: &dyn Fn(&Dataset) -> Matrix,
    cli: &Cli,
) -> Vec<f64> {
    let idx = stratified_indices(train, cli.train_cap, cli.seed);
    let sub: Dataset = idx.iter().map(|&i| train.records()[i]).collect();
    let x_raw = features(&sub);
    let standardizer = Standardizer::fit(&x_raw);
    let x = standardizer.transform(&x_raw);
    let y = Matrix::col_vector(&sub.labels().iter().map(|&l| l as f64).collect::<Vec<_>>());
    let mut mlp = Mlp::paper_classifier(x.cols(), cli.seed);
    let mut optim = AdamW::new(5e-3, 1e-4);
    Trainer::new(TrainConfig {
        epochs: cli.epochs,
        batch_size: 256,
        shuffle_seed: cli.seed,
    })
    .fit(&mut mlp, &x, &y, &BceWithLogits, &mut optim);

    tests
        .iter()
        .map(|fold| {
            let xf = standardizer.transform(&features(fold));
            accuracy(&fold.labels(), &mlp.predict_labels(&xf))
        })
        .collect()
}

fn main() {
    let cli = Cli::from_env();
    let ds = cli.dataset();
    let (train, tests) = split_by_folds(&ds);

    // Window of ~10 s at the simulated rate.
    let window = ((10.0 * cli.rate_hz).round() as usize).max(2);
    eprintln!("training instantaneous-feature MLP…");
    let instant = run(&train, &tests, &|d| FeatureView::Csi.design_matrix(d), &cli);
    eprintln!("training windowed-feature MLP (window = {window} samples)…");
    let windowed = run(
        &train,
        &tests,
        &|d| WindowedView::new(window).design_matrix(d),
        &cli,
    );

    println!("Ablation — instantaneous vs trailing-window CSI features (MLP)\n");
    rule(72);
    println!(
        "{:<26} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Features", "fold1", "fold2", "fold3", "fold4", "fold5"
    );
    rule(72);
    println!(
        "{:<26} {:>7}% {:>7}% {:>7}% {:>7}% {:>7}%",
        "instantaneous (paper)",
        pct(instant[0]),
        pct(instant[1]),
        pct(instant[2]),
        pct(instant[3]),
        pct(instant[4])
    );
    println!(
        "{:<26} {:>7}% {:>7}% {:>7}% {:>7}% {:>7}%",
        format!("+ window std ({window} smp)"),
        pct(windowed[0]),
        pct(windowed[1]),
        pct(windowed[2]),
        pct(windowed[3]),
        pct(windowed[4])
    );
    rule(72);
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "averages: instantaneous {}%, windowed {}%",
        pct(avg(&instant)),
        pct(avg(&windowed))
    );
}
