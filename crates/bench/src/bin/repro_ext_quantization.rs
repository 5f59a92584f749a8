//! E16 (extension) — int8 quantisation for embedded deployment.
//!
//! §IV-B quotes a 15.18 KiB model targeting a Nucleo-L432KC. An f32 copy
//! of the described architecture is an order of magnitude larger, so a
//! real deployment would compress the weights; this experiment measures
//! the accuracy cost of symmetric int8 post-training quantisation on the
//! trained occupancy MLP, next to the f64 training network and the f32
//! artifact every detector score runs through.

use occusense_bench::{pct, rule, Cli};
use occusense_core::dataset::folds::split_by_folds;
use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_core::nn::quantize::QuantizedMlp;
use occusense_core::stats::metrics::accuracy;
use occusense_core::FeatureView;

fn main() {
    let cli = Cli::from_env();
    let ds = cli.dataset();
    let (train, tests) = split_by_folds(&ds);
    let det = OccupancyDetector::train(
        &train,
        &DetectorConfig {
            model: ModelKind::Mlp,
            features: FeatureView::Csi,
            seed: cli.seed,
            max_train_samples: Some(cli.train_cap),
            mlp_epochs: cli.epochs,
            ..DetectorConfig::default()
        },
    );
    let mlp = det.mlp().expect("MLP detector");
    let q = QuantizedMlp::from_mlp(mlp);

    println!("Extension E16 — int8 quantisation of the occupancy MLP\n");
    println!("parameters:         {}", mlp.n_parameters());
    println!("f64 (training):     {:.2} KiB", mlp.size_kib(8));
    println!("f32 (served):       {:.2} KiB", mlp.size_kib(4));
    println!("int8 (this exp.):   {:.2} KiB", q.size_kib());
    println!("paper's claim:      15.18 KiB (see EXPERIMENTS.md §E8)\n");

    rule(80);
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>12}",
        "Fold", "f64 accuracy", "f32 (served)", "int8 accuracy", "int8 Δ (pp)"
    );
    rule(80);
    for (i, fold) in tests.iter().enumerate() {
        let x = det.features_of(fold);
        let truth = fold.labels();
        let full = accuracy(&truth, &mlp.predict_labels(&x));
        let served = det.evaluate(fold).accuracy();
        let quant = accuracy(&truth, &q.predict_labels(&x));
        println!(
            "{:<6} {:>13}% {:>13}% {:>13}% {:>+12.2}",
            i + 1,
            pct(full),
            pct(served),
            pct(quant),
            100.0 * (quant - full)
        );
    }
    rule(80);
    println!("(int8 inference here dequantises to f64; a microcontroller would run");
    println!(" the integer kernels directly with the same arithmetic result)");
}
