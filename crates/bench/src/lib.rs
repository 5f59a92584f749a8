//! # occusense-bench
//!
//! The reproduction harness: one `repro_*` binary per table/figure of the
//! paper plus Criterion micro-benchmarks (see `benches/`). Every binary
//! prints measured values side by side with the paper's reported numbers
//! so the *shape* comparison is immediate. Every binary but
//! `repro_fig2` takes the flags of [`USAGE`] (the paper's hardware
//! sampled at 20 Hz; the default campaign is simulated at 2 Hz).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod gate;

use occusense_core::experiments::ExperimentConfig;
use occusense_core::sim::{simulate, ScenarioConfig};
use occusense_core::Dataset;
pub use occusense_driver::CliError;
use occusense_driver::{Parser, Usage};

/// Usage text every `repro_*` binary prints when its flags are refused.
pub const USAGE: &str = "common flags of the occusense repro binaries

  --rate HZ          CSI sampling rate of the simulated campaign (default 2.0)
  --seed S           master scenario seed (default 0)
  --train-cap N      stratified cap on model training sets (default 40000)
  --epochs N         MLP/NN training epochs (default 10)
  -h, --help         print this help";

/// Parsed common CLI options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cli {
    /// Simulated CSI sampling rate, Hz.
    pub rate_hz: f64,
    /// Master seed.
    pub seed: u64,
    /// Stratified training-set cap.
    pub train_cap: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            rate_hz: 2.0,
            seed: 0,
            train_cap: 40_000,
            epochs: 10,
        }
    }
}

impl Cli {
    /// Parses `std::env::args()`-style arguments, or names the unknown
    /// flag, the flag missing its value, or the value that does not
    /// parse (a `--rate` must be finite and positive).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut cli = Cli::default();
        let mut p = Parser::new(args);
        while let Some(flag) = p.next() {
            match flag.as_str() {
                "--rate" => cli.rate_hz = p.positive(&flag)?,
                "--seed" => cli.seed = p.value(&flag)?,
                "--train-cap" => cli.train_cap = p.value(&flag)?,
                "--epochs" => cli.epochs = p.value(&flag)?,
                _ => return Err(CliError::unexpected(flag)),
            }
        }
        Ok(cli)
    }

    /// Parses the process arguments (skipping the binary name). On a
    /// refused command line, prints the reason and [`USAGE`] and exits
    /// with status 2.
    pub fn from_env() -> Self {
        Usage::new("occusense repro", USAGE).parse(|p| Self::parse(p))
    }

    /// The experiment configuration implied by these options.
    pub fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            seed: self.seed,
            max_train_samples: self.train_cap,
            epochs: self.epochs,
            ..ExperimentConfig::default()
        }
    }

    /// Simulates the `turetta2022` campaign at the requested rate.
    pub fn dataset(&self) -> Dataset {
        let mut cfg = ScenarioConfig::turetta2022(self.seed);
        cfg.sample_rate_hz = self.rate_hz;
        eprintln!(
            "simulating turetta2022 campaign: {:.2} Hz, seed {} ({} samples)…",
            self.rate_hz,
            self.seed,
            cfg.n_samples()
        );
        let ds = simulate(&cfg);
        eprintln!("…done ({} records)", ds.len());
        ds
    }
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats an accuracy fraction as the paper's integer percent.
pub fn pct(fraction: f64) -> String {
    format!("{:3.0}", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Cli, CliError> {
        Cli::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_flags() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli, Cli::default());
    }

    #[test]
    fn parses_all_flags() {
        let cli = parse(&[
            "--rate",
            "0.5",
            "--seed",
            "9",
            "--train-cap",
            "1000",
            "--epochs",
            "3",
        ])
        .unwrap();
        assert_eq!(cli.rate_hz, 0.5);
        assert_eq!(cli.seed, 9);
        assert_eq!(cli.train_cap, 1000);
        assert_eq!(cli.epochs, 3);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(
            parse(&["--seed", "1", "--frobnicate"]),
            Err(CliError::UnknownFlag("--frobnicate".into()))
        );
    }

    #[test]
    fn rejects_flags_missing_their_value() {
        assert_eq!(
            parse(&["--epochs"]),
            Err(CliError::MissingValue("--epochs".into()))
        );
    }

    #[test]
    fn rejects_unparsable_numbers() {
        assert_eq!(
            parse(&["--train-cap", "-3"]),
            Err(CliError::BadValue {
                flag: "--train-cap".into(),
                value: "-3".into(),
            })
        );
        assert!(matches!(
            parse(&["--rate", "fast"]),
            Err(CliError::BadValue { .. })
        ));
        // A rate must be finite and positive, or the campaign has no
        // records and every table is NaN.
        for rate in ["nan", "inf", "0", "-3"] {
            assert_eq!(
                parse(&["--rate", rate]),
                Err(CliError::BadValue {
                    flag: "--rate".into(),
                    value: rate.into(),
                }),
                "{rate}"
            );
        }
    }

    #[test]
    fn experiment_config_propagates() {
        let cli = parse(&["--train-cap", "123", "--epochs", "4"]).unwrap();
        let cfg = cli.experiment_config();
        assert_eq!(cfg.max_train_samples, 123);
        assert_eq!(cfg.epochs, 4);
    }

    #[test]
    fn pct_formats_paper_style() {
        assert_eq!(pct(0.97), " 97");
        assert_eq!(pct(1.0), "100");
    }
}
