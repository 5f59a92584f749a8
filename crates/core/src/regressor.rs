//! Humidity and temperature regression from CSI (§V-D / Table V).

use crate::sampling::stratified_subsample;
use occusense_baselines::linreg::{FitLinRegError, LinRegConfig, LinearRegression};
use occusense_dataset::{Dataset, FeatureView, Standardizer};
use occusense_nn::loss::Mse;
use occusense_nn::optim::AdamW;
use occusense_nn::train::{TrainConfig, Trainer};
use occusense_nn::Mlp;
use occusense_stats::metrics::{mae, mape};
use occusense_tensor::Matrix;

/// Which regression family to fit (the two column groups of Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RegressorKind {
    /// Ordinary least squares.
    Linear,
    /// The paper's MLP backbone with two regression heads.
    #[default]
    NeuralNetwork,
}

impl RegressorKind {
    /// Table-header name.
    pub fn name(&self) -> &'static str {
        match self {
            RegressorKind::Linear => "Linear Regressor",
            RegressorKind::NeuralNetwork => "Neural Network",
        }
    }
}

/// Regressor hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressorConfig {
    /// Model family.
    pub kind: RegressorKind,
    /// Seed.
    pub seed: u64,
    /// Stratified training-set cap.
    pub max_train_samples: Option<usize>,
    /// NN: epochs.
    pub epochs: usize,
    /// NN: batch size.
    pub batch_size: usize,
    /// NN: learning rate.
    pub learning_rate: f64,
    /// NN: decoupled weight decay.
    pub weight_decay: f64,
    /// Linear: ridge stabiliser.
    pub linreg: LinRegConfig,
}

impl Default for RegressorConfig {
    fn default() -> Self {
        Self {
            kind: RegressorKind::NeuralNetwork,
            seed: 0,
            max_train_samples: Some(50_000),
            epochs: 10,
            batch_size: 256,
            learning_rate: 5e-3,
            weight_decay: 1e-4,
            linreg: LinRegConfig::default(),
        }
    }
}

/// Predicted environment values for a batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnvPrediction {
    /// Predicted temperatures, °C.
    pub temperature_c: Vec<f64>,
    /// Predicted relative humidities, %.
    pub humidity_pct: Vec<f64>,
}

/// MAE and MAPE of temperature and humidity over one evaluation set —
/// one cell group of Table V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvRegressionScores {
    /// Temperature MAE, °C.
    pub mae_temperature: f64,
    /// Humidity MAE, %.
    pub mae_humidity: f64,
    /// Temperature MAPE, %.
    pub mape_temperature: f64,
    /// Humidity MAPE, %.
    pub mape_humidity: f64,
}

#[derive(Debug, Clone, PartialEq)]
enum FittedRegressor {
    Linear {
        temperature: LinearRegression,
        humidity: LinearRegression,
    },
    Network {
        mlp: Mlp,
        target_standardizer: Standardizer,
    },
}

/// A trained CSI → (temperature, humidity) regressor.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvRegressor {
    standardizer: Standardizer,
    model: FittedRegressor,
}

impl EnvRegressor {
    /// Trains the regressor on CSI features of the training set.
    ///
    /// # Errors
    ///
    /// Returns [`FitLinRegError`] if the OLS fit fails (rank-deficient
    /// design even after ridge stabilisation).
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn train(train: &Dataset, config: &RegressorConfig) -> Result<Self, FitLinRegError> {
        assert!(!train.is_empty(), "regressor: empty training set");
        let sub = match config.max_train_samples {
            Some(max) => stratified_subsample(train, max, config.seed),
            None => train.clone(),
        };
        let x_raw = FeatureView::Csi.design_matrix(&sub);
        let standardizer = Standardizer::fit(&x_raw);
        let x = standardizer.transform(&x_raw);
        let temps = sub.temperatures();
        let hums = sub.humidities();

        let model = match config.kind {
            RegressorKind::Linear => FittedRegressor::Linear {
                temperature: LinearRegression::fit(&x, &temps, &config.linreg)?,
                humidity: LinearRegression::fit(&x, &hums, &config.linreg)?,
            },
            RegressorKind::NeuralNetwork => {
                // Standardise targets too: temperatures ~20 and humidity
                // ~40 would otherwise dwarf the loss scale.
                let mut y = Matrix::zeros(sub.len(), 2);
                for (r, (t, h)) in temps.iter().zip(&hums).enumerate() {
                    y[(r, 0)] = *t;
                    y[(r, 1)] = *h;
                }
                let target_standardizer = Standardizer::fit(&y);
                let y_std = target_standardizer.transform(&y);
                let mut mlp = Mlp::paper_regressor(x.cols(), 2, config.seed);
                let mut optim = AdamW::new(config.learning_rate, config.weight_decay);
                Trainer::new(TrainConfig {
                    epochs: config.epochs,
                    batch_size: config.batch_size,
                    shuffle_seed: config.seed,
                })
                .fit(&mut mlp, &x, &y_std, &Mse, &mut optim);
                FittedRegressor::Network {
                    mlp,
                    target_standardizer,
                }
            }
        };
        Ok(Self {
            standardizer,
            model,
        })
    }

    /// Predicts temperature and humidity for every record.
    pub fn predict(&self, dataset: &Dataset) -> EnvPrediction {
        let x = self
            .standardizer
            .transform(&FeatureView::Csi.design_matrix(dataset));
        match &self.model {
            FittedRegressor::Linear {
                temperature,
                humidity,
            } => EnvPrediction {
                temperature_c: temperature.predict(&x),
                humidity_pct: humidity.predict(&x),
            },
            FittedRegressor::Network {
                mlp,
                target_standardizer,
            } => {
                let out = mlp.predict(&x);
                let means = target_standardizer.means();
                let stds = target_standardizer.stds();
                let unscale = |v: f64, c: usize| v * stds[c].max(1e-12) + means[c];
                EnvPrediction {
                    temperature_c: out.col(0).into_iter().map(|v| unscale(v, 0)).collect(),
                    humidity_pct: out.col(1).into_iter().map(|v| unscale(v, 1)).collect(),
                }
            }
        }
    }

    /// Evaluates MAE/MAPE (Eq. 2–3) against the dataset's sensor ground
    /// truth — one Table V cell group.
    pub fn evaluate(&self, dataset: &Dataset) -> EnvRegressionScores {
        let pred = self.predict(dataset);
        let temps = dataset.temperatures();
        let hums = dataset.humidities();
        EnvRegressionScores {
            mae_temperature: mae(&temps, &pred.temperature_c),
            mae_humidity: mae(&hums, &pred.humidity_pct),
            mape_temperature: mape(&temps, &pred.temperature_c),
            mape_humidity: mape(&hums, &pred.humidity_pct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_sim::{simulate, ScenarioConfig};

    fn quick_split() -> (Dataset, Dataset) {
        let ds = simulate(&ScenarioConfig::quick(1600.0, 33));
        let split = (ds.len() * 7) / 10;
        (
            ds.records()[..split].iter().copied().collect(),
            ds.records()[split..].iter().copied().collect(),
        )
    }

    #[test]
    fn both_regressors_fit_and_produce_finite_scores() {
        let (train, test) = quick_split();
        for kind in [RegressorKind::Linear, RegressorKind::NeuralNetwork] {
            let cfg = RegressorConfig {
                kind,
                epochs: 5,
                ..RegressorConfig::default()
            };
            let model = EnvRegressor::train(&train, &cfg).expect("fit");
            let scores = model.evaluate(&test);
            for v in [
                scores.mae_temperature,
                scores.mae_humidity,
                scores.mape_temperature,
                scores.mape_humidity,
            ] {
                assert!(v.is_finite() && v >= 0.0, "{kind:?}: {v}");
            }
            // Sanity: predictions are in physically plausible ranges.
            let pred = model.predict(&test);
            assert_eq!(pred.temperature_c.len(), test.len());
            for t in &pred.temperature_c {
                assert!((-10.0..60.0).contains(t), "temperature {t}");
            }
        }
    }

    #[test]
    fn regressor_beats_trivial_baseline_on_training_data() {
        // In-sample the NN must beat predicting the global mean.
        let (train, _) = quick_split();
        let cfg = RegressorConfig {
            epochs: 8,
            ..RegressorConfig::default()
        };
        let model = EnvRegressor::train(&train, &cfg).expect("fit");
        let scores = model.evaluate(&train);
        let temps = train.temperatures();
        let mean_t = temps.iter().sum::<f64>() / temps.len() as f64;
        let baseline = mae(&temps, &vec![mean_t; temps.len()]);
        assert!(
            scores.mae_temperature < baseline,
            "NN {} vs mean baseline {}",
            scores.mae_temperature,
            baseline
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (train, test) = quick_split();
        let cfg = RegressorConfig {
            epochs: 2,
            ..RegressorConfig::default()
        };
        let a = EnvRegressor::train(&train, &cfg).unwrap().predict(&test);
        let b = EnvRegressor::train(&train, &cfg).unwrap().predict(&test);
        assert_eq!(a, b);
    }

    #[test]
    fn kind_names_match_table5_headers() {
        assert_eq!(RegressorKind::Linear.name(), "Linear Regressor");
        assert_eq!(RegressorKind::NeuralNetwork.name(), "Neural Network");
    }
}
