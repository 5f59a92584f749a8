//! E7 — Table V: MAE/MAPE of linear vs neural-network regression of
//! temperature (T) and humidity (H) from CSI, per test fold.

use occusense_bench::{rule, Cli};
use occusense_core::experiments::{table5, Table5Row};
use occusense_core::regressor::{EnvRegressionScores, RegressorKind};

/// Paper values: `[model][fold]` → (MAE T, MAE H, MAPE T, MAPE H); the
/// sixth entry is the reported average.
const PAPER: [[(f64, f64, f64, f64); 6]; 2] = [
    [
        (2.72, 2.47, 12.65, 7.11),
        (1.87, 1.65, 9.24, 4.86),
        (3.57, 2.84, 18.17, 8.25),
        (6.04, 6.92, 29.38, 20.51),
        (8.08, 7.51, 35.94, 25.89),
        (4.46, 4.28, 21.08, 13.32),
    ],
    [
        (1.04, 3.74, 4.18, 11.26),
        (0.56, 7.30, 2.82, 21.98),
        (0.73, 6.08, 3.72, 18.55),
        (3.88, 3.44, 18.59, 10.46),
        (3.81, 2.55, 16.94, 9.54),
        (2.39, 4.62, 9.25, 14.35),
    ],
];

fn main() {
    let cli = Cli::from_env();
    let ds = cli.dataset();
    let rows = table5(&ds, &cli.experiment_config());

    println!("Table V — MAE/MAPE of T/H regression from CSI (measured vs paper)\n");
    for row in &rows {
        let paper_idx = match row.kind {
            RegressorKind::Linear => 0,
            RegressorKind::NeuralNetwork => 1,
        };
        println!("{}", row.kind.name());
        rule(100);
        println!(
            "{:<6} {:>22} {:>22} | {:>22} {:>22}",
            "Fold", "MAE T/H measured", "MAPE T/H measured", "MAE T/H paper", "MAPE T/H paper"
        );
        rule(100);
        for (fi, s) in row.fold_scores.iter().enumerate() {
            let p = PAPER[paper_idx][fi];
            println!(
                "{:<6} {:>10.2}/{:<10.2} {:>10.2}/{:<10.2} | {:>10.2}/{:<10.2} {:>10.2}/{:<10.2}",
                fi + 1,
                s.mae_temperature,
                s.mae_humidity,
                s.mape_temperature,
                s.mape_humidity,
                p.0,
                p.1,
                p.2,
                p.3
            );
        }
        let avg = row.average();
        let p = PAPER[paper_idx][5];
        println!(
            "{:<6} {:>10.2}/{:<10.2} {:>10.2}/{:<10.2} | {:>10.2}/{:<10.2} {:>10.2}/{:<10.2}",
            "Avg.",
            avg.mae_temperature,
            avg.mae_humidity,
            avg.mape_temperature,
            avg.mape_humidity,
            p.0,
            p.1,
            p.2,
            p.3
        );
        rule(100);
        println!();
    }
    println!("Shape target: the non-linear model matches or beats OLS (in this simulator");
    println!("the win concentrates in the humidity channel). The paper's hardest folds were");
    println!("4-5 for both; measured, by highest MAE:");
    for row in &rows {
        println!(
            "  {:<18} T fold {}, H fold {}",
            row.kind.name(),
            hardest_fold(row, |s| s.mae_temperature),
            hardest_fold(row, |s| s.mae_humidity)
        );
    }
}

/// The 1-based fold with the highest MAE on one channel.
fn hardest_fold(row: &Table5Row, mae: fn(&EnvRegressionScores) -> f64) -> usize {
    let mut worst = 0;
    for (fi, s) in row.fold_scores.iter().enumerate() {
        if mae(s) > mae(&row.fold_scores[worst]) {
            worst = fi;
        }
    }
    worst + 1
}
