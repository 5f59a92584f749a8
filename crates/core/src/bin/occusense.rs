//! `occusense` — command-line interface to the WiFi-CSI occupancy
//! pipeline: simulate a campaign, train a detector, evaluate it, explain
//! it — each step persisted to plain files so the stages compose.
//!
//! ```text
//! occusense simulate --out data.csv --quick 2400 --seed 42
//! occusense train    --data data.csv --out model.txt --features csi
//! occusense evaluate --data data.csv --model model.txt
//! occusense explain  --data data.csv --model model.txt --top 10
//! ```

use occusense_core::dataset::csv;
use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_core::explain::Explanation;
use occusense_core::persist;
use occusense_core::sim::{simulate, ScenarioConfig};
use occusense_core::{Dataset, FeatureView};
use occusense_driver::{CliError, Parser, Usage};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

const USAGE: &str = "\
occusense — WiFi CSI occupancy detection (DATE 2023 reproduction)

USAGE:
  occusense simulate --out <file.csv> [--quick <secs> | --campaign] [--rate <hz>] [--seed <u64>]
  occusense train    --data <file.csv> --out <model.txt> [--features csi|env|c+e] [--epochs <n>] [--seed <u64>] [--split <0..1>]
  occusense evaluate --data <file.csv> --model <model.txt> [--split <0..1>]
  occusense explain  --data <file.csv> --model <model.txt> [--top <n>]

simulate writes a Table-I-format CSV; train fits the paper's MLP on the
first --split fraction (default 0.7) and saves it; evaluate reports the
confusion matrix on the remaining fraction; explain prints Grad-CAM
feature importance.";

/// Every flag of every subcommand; each subcommand reads its own.
struct Flags {
    out: String,
    data: String,
    model: String,
    quick: f64,
    campaign: bool,
    rate: f64,
    seed: u64,
    features: FeatureView,
    epochs: usize,
    split: f64,
    top: usize,
}

fn parse_cli(p: &mut Parser) -> Result<(String, Flags), CliError> {
    let command = p.next().unwrap_or_default();
    let required: &[&str] = match command.as_str() {
        "simulate" => &["--out"],
        "train" => &["--data", "--out"],
        "evaluate" | "explain" => &["--data", "--model"],
        "help" => return Err(CliError::Help),
        "" => return Err(CliError::Invalid("missing subcommand".into())),
        _ if command.starts_with('-') => return Err(CliError::unexpected(command)),
        _ => return Err(CliError::Invalid(format!("unknown subcommand '{command}'"))),
    };
    let mut f = Flags {
        out: String::new(),
        data: String::new(),
        model: String::new(),
        quick: 2400.0,
        campaign: false,
        rate: 2.0,
        seed: 0,
        features: FeatureView::Csi,
        epochs: 10,
        split: 0.7,
        top: 10,
    };
    let mut given = Vec::new();
    while let Some(flag) = p.next() {
        match flag.as_str() {
            "--out" => f.out = p.value(&flag)?,
            "--data" => f.data = p.value(&flag)?,
            "--model" => f.model = p.value(&flag)?,
            "--quick" => f.quick = p.value(&flag)?,
            "--campaign" => f.campaign = true,
            "--rate" => f.rate = p.value(&flag)?,
            "--seed" => f.seed = p.value(&flag)?,
            "--features" => f.features = p.value_with(&flag, feature_view)?,
            "--epochs" => f.epochs = p.value(&flag)?,
            "--split" => f.split = p.value(&flag)?,
            "--top" => f.top = p.value(&flag)?,
            _ => return Err(CliError::unexpected(flag)),
        }
        given.push(flag);
    }
    match required.iter().find(|r| !given.iter().any(|g| g == *r)) {
        Some(flag) => Err(CliError::Invalid(format!("missing required flag {flag}"))),
        None => Ok((command, f)),
    }
}

fn main() -> ExitCode {
    let (command, flags) = Usage::new("occusense", USAGE).parse(parse_cli);
    let done = match command.as_str() {
        "simulate" => cmd_simulate(&flags),
        "train" => cmd_train(&flags),
        "evaluate" => cmd_evaluate(&flags),
        _ => cmd_explain(&flags),
    };
    if let Err(msg) = done {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    csv::read_csv(BufReader::new(file)).map_err(|e| e.to_string())
}

fn split_dataset(ds: &Dataset, fraction: f64) -> (Dataset, Dataset) {
    let split = ((ds.len() as f64) * fraction).round() as usize;
    let split = split.clamp(1, ds.len().saturating_sub(1).max(1));
    (
        ds.records()[..split].iter().copied().collect(),
        ds.records()[split..].iter().copied().collect(),
    )
}

fn feature_view(raw: &str) -> Option<FeatureView> {
    match raw {
        "csi" => Some(FeatureView::Csi),
        "env" => Some(FeatureView::Env),
        "c+e" | "csi-env" => Some(FeatureView::CsiEnv),
        _ => None,
    }
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let out = &flags.out;
    let mut config = if flags.campaign {
        ScenarioConfig::turetta2022(flags.seed)
    } else {
        ScenarioConfig::quick(flags.quick, flags.seed)
    };
    config.sample_rate_hz = flags.rate;
    eprintln!(
        "simulating {} samples at {} Hz…",
        config.n_samples(),
        flags.rate
    );
    let ds = simulate(&config);
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    csv::write_csv(BufWriter::new(file), &ds).map_err(|e| e.to_string())?;
    println!("wrote {} records to {out}", ds.len());
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(&flags.data)?;
    let out = &flags.out;
    let (train, holdout) = split_dataset(&ds, flags.split);
    let config = DetectorConfig {
        model: ModelKind::Mlp,
        features: flags.features,
        seed: flags.seed,
        mlp_epochs: flags.epochs,
        ..DetectorConfig::default()
    };
    eprintln!(
        "training MLP on {} records ({} features)…",
        train.len(),
        config.features.dimension()
    );
    let detector = OccupancyDetector::train(&train, &config);
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    persist::save_detector(BufWriter::new(file), &detector).map_err(|e| e.to_string())?;
    let cm = detector.evaluate(&holdout);
    println!("saved detector to {out}");
    println!("holdout ({} records): {cm}", holdout.len());
    Ok(())
}

fn load_model(flags: &Flags) -> Result<OccupancyDetector, String> {
    let model_path = &flags.model;
    let file = File::open(model_path).map_err(|e| format!("open {model_path}: {e}"))?;
    persist::load_detector(BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(&flags.data)?;
    let detector = load_model(flags)?;
    let (_, holdout) = split_dataset(&ds, flags.split);
    let cm = detector.evaluate(&holdout);
    println!("evaluated {} records: {cm}", holdout.len());
    println!(
        "precision {:.3}  recall {:.3}  F1 {:.3}",
        cm.precision(),
        cm.recall(),
        cm.f1()
    );
    Ok(())
}

fn cmd_explain(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(&flags.data)?;
    let detector = load_model(flags)?;
    let explanation =
        Explanation::of(&detector, &ds).ok_or("detector is not explainable (not an MLP)")?;
    println!("top {} features by |Grad-CAM importance|:", flags.top);
    for idx in explanation.top_features(flags.top) {
        println!(
            "  {:>4}  {:+.5}",
            explanation.feature_names[idx], explanation.importance[idx]
        );
    }
    Ok(())
}
