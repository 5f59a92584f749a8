//! The occupancy detector: the paper's §IV-B model plus its baselines,
//! behind one train/predict/evaluate interface.

use crate::sampling::stratified_subsample;
use occusense_baselines::forest::{ForestConfig, RandomForest};
use occusense_baselines::logreg::{LogRegConfig, LogisticRegression};
use occusense_dataset::{CsiRecord, Dataset, FeatureView, Standardizer};
use occusense_nn::loss::BceWithLogits;
use occusense_nn::optim::AdamW;
use occusense_nn::train::{TrainConfig, Trainer};
use occusense_nn::{CompiledMlp, CompiledWorkspace, Mlp};
use occusense_stats::metrics::ConfusionMatrix;
use occusense_tensor::Matrix;

/// Which model family the detector trains (the three columns groups of
/// Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    /// The paper's lightweight MLP (§IV-B).
    #[default]
    Mlp,
    /// Linear baseline.
    LogisticRegression,
    /// Non-linear ensemble baseline.
    RandomForest,
}

impl ModelKind {
    /// Table-header name as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::LogisticRegression => "Logistic Regressor",
            ModelKind::RandomForest => "Random Forest",
            ModelKind::Mlp => "MLP",
        }
    }

    /// All models of Table IV, in paper column order.
    pub const TABLE4: [ModelKind; 3] = [
        ModelKind::LogisticRegression,
        ModelKind::RandomForest,
        ModelKind::Mlp,
    ];
}

/// Detector hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Model family.
    pub model: ModelKind,
    /// Feature subset the model sees.
    pub features: FeatureView,
    /// Master seed (weight init, shuffling, bootstrap).
    pub seed: u64,
    /// Stratified cap on the training set (`None` = use everything).
    /// See EXPERIMENTS.md: the paper trains on 3.7 M rows on a GPU; this
    /// reproduction trains on a stratified subsample.
    pub max_train_samples: Option<usize>,
    /// MLP: epochs (paper: 10).
    pub mlp_epochs: usize,
    /// MLP: mini-batch size.
    pub mlp_batch_size: usize,
    /// MLP: learning rate (paper: 5e-3).
    pub mlp_learning_rate: f64,
    /// MLP: decoupled weight decay (the paper's \[23\] strategy).
    pub mlp_weight_decay: f64,
    /// Logistic-regression hyper-parameters.
    pub logreg: LogRegConfig,
    /// Random-forest hyper-parameters.
    pub forest: ForestConfig,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Mlp,
            features: FeatureView::Csi,
            seed: 0,
            max_train_samples: Some(50_000),
            mlp_epochs: 10,
            mlp_batch_size: 256,
            mlp_learning_rate: 5e-3,
            mlp_weight_decay: 1e-4,
            logreg: LogRegConfig::default(),
            forest: ForestConfig::default(),
        }
    }
}

/// The fitted model behind a detector.
#[derive(Debug, Clone, PartialEq)]
enum FittedModel {
    /// The trained `f64` network (persistence, Grad-CAM, continual
    /// training) and the `f32` artifact compiled from it, which every
    /// score runs through.
    Mlp {
        net: Mlp,
        served: CompiledMlp,
    },
    LogReg(LogisticRegression),
    Forest(RandomForest),
}

/// A trained occupancy detector, never retrained across folds (§V-B).
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyDetector {
    features: FeatureView,
    standardizer: Standardizer,
    model: FittedModel,
}

/// Reusable buffers for repeated batch scoring — the serve worker's hot
/// path. Holds the design matrix and the compiled forward's `f32`
/// buffers so a steady stream of batches is scored without heap
/// allocations (assert via [`ScoreWorkspace::reallocs`]).
#[derive(Debug, Clone, Default)]
pub struct ScoreWorkspace {
    x: Matrix,
    forward: CompiledWorkspace,
}

impl ScoreWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffer-growth events since creation (design matrix and
    /// `f32` forward buffers alike); flat across batches ⇒ steady-state
    /// scoring is allocation-free.
    pub fn reallocs(&self) -> u64 {
        self.forward.reallocs()
    }
}

thread_local! {
    /// Per-thread workspace (plus a score buffer) behind the
    /// convenience scoring APIs [`OccupancyDetector::predict_proba`]
    /// and [`OccupancyDetector::predict_record`], so callers that
    /// don't manage a [`ScoreWorkspace`] themselves still score
    /// allocation-free in the steady state.
    static LOCAL_SCORE_WS: std::cell::RefCell<(ScoreWorkspace, Vec<f64>)> =
        std::cell::RefCell::new((ScoreWorkspace::new(), Vec::new()));
}

impl OccupancyDetector {
    /// Trains a detector on the training dataset.
    ///
    /// Features are extracted per `config.features`, standardised with
    /// training statistics (applied unchanged at test time) and the model
    /// is fit on a stratified subsample of at most
    /// `config.max_train_samples` records.
    ///
    /// # Panics
    ///
    /// Panics if the training dataset is empty.
    pub fn train(train: &Dataset, config: &DetectorConfig) -> Self {
        assert!(!train.is_empty(), "detector: empty training set");
        let sub = match config.max_train_samples {
            Some(max) => stratified_subsample(train, max, config.seed),
            None => train.clone(),
        };
        let x_raw = config.features.design_matrix(&sub);
        let standardizer = Standardizer::fit(&x_raw);
        let x = standardizer.transform(&x_raw);
        let labels = sub.labels();

        let model = match config.model {
            ModelKind::LogisticRegression => {
                let cfg = LogRegConfig {
                    seed: config.seed,
                    ..config.logreg
                };
                FittedModel::LogReg(LogisticRegression::fit(&x, &labels, &cfg))
            }
            ModelKind::RandomForest => {
                let cfg = ForestConfig {
                    seed: config.seed,
                    ..config.forest
                };
                let y: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
                FittedModel::Forest(RandomForest::fit(&x, &y, &cfg))
            }
            ModelKind::Mlp => {
                let mut mlp = Mlp::paper_classifier(config.features.dimension(), config.seed);
                let mut optim = AdamW::new(config.mlp_learning_rate, config.mlp_weight_decay);
                let trainer = Trainer::new(TrainConfig {
                    epochs: config.mlp_epochs,
                    batch_size: config.mlp_batch_size,
                    shuffle_seed: config.seed,
                });
                let y = Matrix::col_vector(&labels.iter().map(|&l| l as f64).collect::<Vec<_>>());
                trainer.fit(&mut mlp, &x, &y, &BceWithLogits, &mut optim);
                FittedModel::Mlp {
                    served: mlp.compile(),
                    net: mlp,
                }
            }
        };

        Self {
            features: config.features,
            standardizer,
            model,
        }
    }

    /// Reassembles an MLP-backed detector from persisted parts (see
    /// [`crate::persist`]) or from a continual learner's weights,
    /// compiling the serving artifact once.
    pub fn from_parts(features: FeatureView, standardizer: Standardizer, mlp: Mlp) -> Self {
        Self {
            features,
            standardizer,
            model: FittedModel::Mlp {
                served: mlp.compile(),
                net: mlp,
            },
        }
    }

    /// The feature view the detector was trained with.
    pub fn features(&self) -> FeatureView {
        self.features
    }

    /// The train-time standardizer (needed for persistence).
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// The trained MLP, if this detector is MLP-backed (used by Grad-CAM).
    pub fn mlp(&self) -> Option<&Mlp> {
        match &self.model {
            FittedModel::Mlp { net, .. } => Some(net),
            _ => None,
        }
    }

    /// Standardised design matrix of a dataset under this detector's
    /// feature view (exposed for the explainability pipeline).
    pub fn features_of(&self, dataset: &Dataset) -> Matrix {
        self.standardizer
            .transform(&self.features.design_matrix(dataset))
    }

    /// Positive-class probabilities for every record of a dataset.
    ///
    /// Runs on a thread-local [`ScoreWorkspace`], so repeated calls on
    /// the same thread are allocation-free in the steady state apart
    /// from the returned vector.
    pub fn predict_proba(&self, dataset: &Dataset) -> Vec<f64> {
        let mut out = Vec::with_capacity(dataset.len());
        LOCAL_SCORE_WS.with(|ws| {
            let (ws, _) = &mut *ws.borrow_mut();
            self.predict_proba_slice_into(dataset.records(), ws, &mut out);
        });
        out
    }

    /// Positive-class probabilities for a slice of records, written
    /// into `out` through a caller-owned [`ScoreWorkspace`] — the
    /// allocation-free batch-scoring path the serve workers run on.
    ///
    /// An MLP scores through its compiled `f32` artifact: the
    /// standardised `f64` features are cast to `f32` once, before the
    /// first layer. Probabilities are bitwise identical to
    /// [`predict_proba`](Self::predict_proba) over a dataset of the
    /// same records, and (element for element) to
    /// [`predict_record`](Self::predict_record) — batching never
    /// changes a score.
    // lint:no_alloc
    pub fn predict_proba_slice_into(
        &self,
        records: &[CsiRecord],
        ws: &mut ScoreWorkspace,
        out: &mut Vec<f64>,
    ) {
        if self.features.design_matrix_rows_into(records, &mut ws.x) {
            ws.forward.note_grow();
        }
        self.standardizer.transform_inplace(&mut ws.x);
        match &self.model {
            FittedModel::Mlp { served, .. } => {
                served.predict_proba_into(&ws.x, &mut ws.forward, out)
            }
            FittedModel::LogReg(m) => {
                out.clear();
                // lint:allow(alloc, reason = "baseline model path: LogReg scoring is not the serve hot path and returns a fresh Vec internally anyway")
                out.extend(m.predict_proba(&ws.x));
            }
            FittedModel::Forest(m) => {
                out.clear();
                // lint:allow(alloc, reason = "baseline model path: random-forest scoring is not the serve hot path and returns a fresh Vec internally anyway")
                out.extend(m.predict(&ws.x));
            }
        }
    }
    // lint:end_no_alloc

    /// Binary occupancy predictions for every record.
    pub fn predict(&self, dataset: &Dataset) -> Vec<u8> {
        self.predict_proba(dataset)
            .into_iter()
            .map(|p| u8::from(p > 0.5))
            .collect()
    }

    /// Online single-record prediction `(label, confidence)` — the
    /// real-time deployment path the paper targets (Nucleo-class
    /// devices). Scores through the thread-local [`ScoreWorkspace`]
    /// (allocation-free in the steady state); by the kernels' batch
    /// invariance the confidence is bitwise identical to the same
    /// record scored inside any batch.
    pub fn predict_record(&self, record: &CsiRecord) -> (u8, f64) {
        LOCAL_SCORE_WS.with(|ws| {
            let (ws, out) = &mut *ws.borrow_mut();
            self.predict_proba_slice_into(std::slice::from_ref(record), ws, out);
            let p = out[0];
            (u8::from(p > 0.5), p)
        })
    }

    /// Confusion matrix of the detector over a labelled dataset.
    pub fn evaluate(&self, dataset: &Dataset) -> ConfusionMatrix {
        ConfusionMatrix::from_labels(&dataset.labels(), &self.predict(dataset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_sim::{simulate, ScenarioConfig};

    fn quick_split() -> (Dataset, Dataset) {
        let ds = simulate(&ScenarioConfig::quick(1600.0, 21));
        let split = (ds.len() * 7) / 10;
        (
            ds.records()[..split].iter().copied().collect(),
            ds.records()[split..].iter().copied().collect(),
        )
    }

    #[test]
    fn all_three_models_beat_chance_on_csi() {
        let (train, test) = quick_split();
        for model in ModelKind::TABLE4 {
            let cfg = DetectorConfig {
                model,
                features: FeatureView::Csi,
                mlp_epochs: 5,
                // The quick scenario is ~100× smaller than the full
                // campaign, so SGD gets far fewer updates per epoch;
                // give logreg a proportionally longer schedule.
                logreg: LogRegConfig {
                    epochs: 300,
                    learning_rate: 1.0,
                    ..LogRegConfig::default()
                },
                forest: ForestConfig {
                    n_trees: 10,
                    ..ForestConfig::default()
                },
                ..DetectorConfig::default()
            };
            let det = OccupancyDetector::train(&train, &cfg);
            let acc = det.evaluate(&test).accuracy();
            assert!(acc > 0.6, "{model:?}: accuracy {acc}");
        }
    }

    #[test]
    fn predict_record_matches_batch_path() {
        let (train, test) = quick_split();
        let det = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::LogisticRegression,
                ..DetectorConfig::default()
            },
        );
        let batch = det.predict_proba(&test);
        for (r, &pb) in test.iter().zip(&batch).take(20) {
            let (_, p) = det.predict_record(r);
            assert!((p - pb).abs() < 1e-12);
        }
    }

    #[test]
    fn mlp_accessor_only_for_mlp() {
        let (train, _) = quick_split();
        let mlp_det = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                mlp_epochs: 1,
                ..DetectorConfig::default()
            },
        );
        assert!(mlp_det.mlp().is_some());
        let lr_det = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::LogisticRegression,
                ..DetectorConfig::default()
            },
        );
        assert!(lr_det.mlp().is_none());
    }

    #[test]
    fn training_is_deterministic() {
        let (train, test) = quick_split();
        let cfg = DetectorConfig {
            model: ModelKind::Mlp,
            mlp_epochs: 2,
            ..DetectorConfig::default()
        };
        let a = OccupancyDetector::train(&train, &cfg);
        let b = OccupancyDetector::train(&train, &cfg);
        assert_eq!(a.predict_proba(&test), b.predict_proba(&test));
    }

    #[test]
    fn feature_views_produce_correct_dimensions() {
        let (train, _) = quick_split();
        for view in [FeatureView::Csi, FeatureView::Env, FeatureView::CsiEnv] {
            let det = OccupancyDetector::train(
                &train,
                &DetectorConfig {
                    model: ModelKind::LogisticRegression,
                    features: view,
                    ..DetectorConfig::default()
                },
            );
            assert_eq!(det.features_of(&train).cols(), view.dimension());
        }
    }

    #[test]
    fn slice_scoring_matches_dataset_path_and_is_allocation_free() {
        let (train, test) = quick_split();
        let det = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 1,
                ..DetectorConfig::default()
            },
        );
        let want = det.predict_proba(&test);
        let mut ws = ScoreWorkspace::new();
        let mut got = Vec::new();
        det.predict_proba_slice_into(test.records(), &mut ws, &mut got);
        assert_eq!(got, want, "slice path diverged from dataset path");
        // Steady state: re-scoring batches no larger than the warm-up
        // batch never grows a buffer — the serve worker's hot loop.
        let warm = ws.reallocs();
        for chunk in test.records().chunks(64).take(10) {
            det.predict_proba_slice_into(chunk, &mut ws, &mut got);
        }
        det.predict_proba_slice_into(test.records(), &mut ws, &mut got);
        assert_eq!(got, want);
        assert_eq!(ws.reallocs(), warm, "steady-state scoring grew a buffer");
        // The count covers the f32 forward buffers: a fresh workspace
        // warmed on one record must count their growth to a batch (the
        // design matrix accounts for one event, the f32 input, pack and
        // layer-output buffers for the rest).
        let mut ws = ScoreWorkspace::new();
        det.predict_proba_slice_into(&test.records()[..1], &mut ws, &mut got);
        let single = ws.reallocs();
        let mut grown = Vec::with_capacity(64);
        det.predict_proba_slice_into(&test.records()[..64], &mut ws, &mut grown);
        assert!(
            ws.reallocs() > single + 1,
            "f32 buffer growth went uncounted"
        );
    }

    #[test]
    fn served_scores_stay_close_to_the_f64_network() {
        // Scores run through the f32 artifact; the f64 training network
        // it was compiled from must agree to well within any decision
        // margin on simulated records.
        let (train, test) = quick_split();
        let det = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                mlp_epochs: 3,
                ..DetectorConfig::default()
            },
        );
        let f64_proba = det
            .mlp()
            .expect("MLP")
            .predict_proba(&det.features_of(&test));
        let served = det.predict_proba(&test);
        for (i, (s, w)) in served.iter().zip(&f64_proba).enumerate() {
            assert!((s - w).abs() <= 1e-5, "record {i}: f32 {s} vs f64 {w}");
        }
    }

    #[test]
    fn model_names_match_paper() {
        assert_eq!(ModelKind::Mlp.name(), "MLP");
        assert_eq!(ModelKind::RandomForest.name(), "Random Forest");
        assert_eq!(ModelKind::LogisticRegression.name(), "Logistic Regressor");
    }
}
