//! E17 (ablation, extension) — amplitude-only vs amplitude + sanitised
//! phase. §II-A of the paper keeps "only the information contained in
//! the CSI amplitude"; this ablation measures what sanitised phase
//! (CFO/SFO removed by linear detrending) would add, and confirms that
//! *raw* phase is useless on commodity hardware.

use occusense_bench::{pct, rule, Cli};
use occusense_core::channel::phase::{sanitize, PhaseImpairments};
use occusense_core::dataset::Standardizer;
use occusense_core::nn::loss::BceWithLogits;
use occusense_core::nn::optim::AdamW;
use occusense_core::nn::train::{TrainConfig, Trainer};
use occusense_core::nn::Mlp;
use occusense_core::sim::{OfficeSimulator, ScenarioConfig};
use occusense_core::stats::metrics::accuracy;
use occusense_core::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One sample: label + three candidate feature encodings.
struct Sample {
    label: u8,
    amplitude: Vec<f64>,
    raw_phase: Vec<f64>,
    sanitized_phase: Vec<f64>,
}

fn collect(duration_s: f64, seed: u64) -> Vec<Sample> {
    let mut cfg = ScenarioConfig::quick(duration_s, seed);
    cfg.sample_rate_hz = 2.0;
    let n = cfg.n_samples();
    let mut sim = OfficeSimulator::new(cfg);
    let impairments = PhaseImpairments::commodity();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa5e);
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let record = sim.step();
        // Recompute the complex response for the stepped scene and apply
        // the phase impairments a real sniffer would add.
        let mut response = sim.scene().frequency_response();
        impairments.apply(&mut response, &mut rng);
        samples.push(Sample {
            label: record.occupancy(),
            amplitude: record.csi.to_vec(),
            raw_phase: response.iter().map(|h| h.arg()).collect(),
            sanitized_phase: sanitize(&response),
        });
    }
    samples
}

fn evaluate(
    samples: &[Sample],
    split: usize,
    encode: &dyn Fn(&Sample) -> Vec<f64>,
    epochs: usize,
    seed: u64,
) -> f64 {
    let d = encode(&samples[0]).len();
    let build = |range: &[Sample]| -> (Matrix, Vec<u8>) {
        let mut data = Vec::with_capacity(range.len() * d);
        let mut labels = Vec::with_capacity(range.len());
        for s in range {
            data.extend(encode(s));
            labels.push(s.label);
        }
        (Matrix::from_vec(range.len(), d, data), labels)
    };
    let (x_train_raw, y_train) = build(&samples[..split]);
    let (x_test_raw, y_test) = build(&samples[split..]);
    let standardizer = Standardizer::fit(&x_train_raw);
    let x_train = standardizer.transform(&x_train_raw);
    let x_test = standardizer.transform(&x_test_raw);
    let mut mlp = Mlp::paper_classifier(d, seed);
    let mut optim = AdamW::new(5e-3, 1e-4);
    let y = Matrix::col_vector(&y_train.iter().map(|&l| l as f64).collect::<Vec<_>>());
    Trainer::new(TrainConfig {
        epochs,
        batch_size: 256,
        shuffle_seed: seed,
    })
    .fit(&mut mlp, &x_train, &y, &BceWithLogits, &mut optim);
    accuracy(&y_test, &mlp.predict_labels(&x_test))
}

fn main() {
    let cli = Cli::from_env();
    eprintln!("collecting impaired complex CSI (quick scenario)…");
    let samples = collect(4800.0, cli.seed);
    let split = (samples.len() * 7) / 10;

    let concat = |a: &[f64], b: &[f64]| {
        let mut v = a.to_vec();
        v.extend_from_slice(b);
        v
    };

    println!("Ablation — what does CSI phase add over amplitude? (MLP)\n");
    rule(64);
    println!("{:<36} {:>14}", "Features", "test accuracy");
    rule(64);
    for (name, encode) in [
        (
            "amplitude only (paper)",
            Box::new(|s: &Sample| s.amplitude.clone()) as Box<dyn Fn(&Sample) -> Vec<f64>>,
        ),
        ("raw phase only", Box::new(|s: &Sample| s.raw_phase.clone())),
        (
            "sanitised phase only",
            Box::new(|s: &Sample| s.sanitized_phase.clone()),
        ),
        (
            "amplitude + sanitised phase",
            Box::new(move |s: &Sample| concat(&s.amplitude, &s.sanitized_phase)),
        ),
    ] {
        let acc = evaluate(&samples, split, &*encode, cli.epochs, cli.seed);
        println!("{:<36} {:>13}%", name, pct(acc));
    }
    rule(64);
    println!("expected shape: raw phase ≈ chance (CFO/SFO randomise it per frame);");
    println!("sanitised phase carries signal; amplitude remains the strongest single");
    println!("encoding on commodity hardware — the paper's §II-A design choice.");
}
