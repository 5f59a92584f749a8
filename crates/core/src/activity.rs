//! Activity recognition from CSI — the paper's §VI future work:
//! "design an ML model that simultaneously performs occupancy detection
//! and activity recognition".
//!
//! The recogniser is the same MLP backbone as the occupancy detector,
//! with a four-way softmax head over the room-level activity classes
//! (empty / seated / standing / walking). Because the occupancy label is
//! `class != Empty`, one model does both tasks at once.

use crate::sampling::stratified_indices;
use occusense_dataset::{Dataset, FeatureView, Standardizer};
use occusense_nn::loss::SoftmaxCrossEntropy;
use occusense_nn::optim::AdamW;
use occusense_nn::train::{TrainConfig, Trainer};
use occusense_nn::Mlp;
use occusense_sim::occupants::ActivityClass;
use occusense_stats::metrics::MultiConfusion;

/// Hyper-parameters of the activity recogniser.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityConfig {
    /// Feature subset (the paper's future work would use CSI).
    pub features: FeatureView,
    /// Master seed.
    pub seed: u64,
    /// Stratified cap on the training set (stratified by *occupancy*,
    /// which keeps the empty/occupied balance; activity classes within
    /// the occupied side follow their natural frequencies).
    pub max_train_samples: Option<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Decoupled weight decay.
    pub weight_decay: f64,
}

impl Default for ActivityConfig {
    fn default() -> Self {
        Self {
            features: FeatureView::Csi,
            seed: 0,
            max_train_samples: Some(50_000),
            epochs: 10,
            batch_size: 256,
            learning_rate: 5e-3,
            weight_decay: 1e-4,
        }
    }
}

/// A trained four-way activity recogniser.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityRecognizer {
    features: FeatureView,
    standardizer: Standardizer,
    mlp: Mlp,
}

impl ActivityRecognizer {
    /// Trains the recogniser on records and their parallel activity
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or label count mismatches.
    pub fn train(train: &Dataset, labels: &[ActivityClass], config: &ActivityConfig) -> Self {
        assert!(!train.is_empty(), "activity: empty training set");
        assert_eq!(train.len(), labels.len(), "activity: label count mismatch");

        let indices = match config.max_train_samples {
            Some(max) => stratified_indices(train, max, config.seed),
            None => (0..train.len()).collect(),
        };
        let sub: Dataset = indices.iter().map(|&i| train.records()[i]).collect();
        let sub_labels: Vec<usize> = indices.iter().map(|&i| labels[i].label()).collect();

        let x_raw = config.features.design_matrix(&sub);
        let standardizer = Standardizer::fit(&x_raw);
        let x = standardizer.transform(&x_raw);
        let y = SoftmaxCrossEntropy::one_hot(&sub_labels, ActivityClass::COUNT);

        let mut mlp = Mlp::paper_regressor(
            config.features.dimension(),
            ActivityClass::COUNT,
            config.seed,
        );
        let mut optim = AdamW::new(config.learning_rate, config.weight_decay);
        Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            shuffle_seed: config.seed,
        })
        .fit(&mut mlp, &x, &y, &SoftmaxCrossEntropy, &mut optim);

        Self {
            features: config.features,
            standardizer,
            mlp,
        }
    }

    /// Predicted activity class per record.
    pub fn predict(&self, dataset: &Dataset) -> Vec<ActivityClass> {
        let x = self
            .standardizer
            .transform(&self.features.design_matrix(dataset));
        SoftmaxCrossEntropy::argmax(&self.mlp.predict(&x))
            .into_iter()
            .map(|l| ActivityClass::ALL[l])
            .collect()
    }

    /// Multi-class confusion matrix against ground-truth labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != dataset.len()`.
    pub fn evaluate(&self, dataset: &Dataset, labels: &[ActivityClass]) -> MultiConfusion {
        assert_eq!(
            dataset.len(),
            labels.len(),
            "activity: label count mismatch"
        );
        let pred: Vec<usize> = self.predict(dataset).iter().map(|c| c.label()).collect();
        let truth: Vec<usize> = labels.iter().map(|c| c.label()).collect();
        MultiConfusion::from_labels(ActivityClass::COUNT, &truth, &pred)
    }

    /// The occupancy view of the activity predictions
    /// (`class != Empty`) — "simultaneously performs occupancy detection".
    pub fn predict_occupancy(&self, dataset: &Dataset) -> Vec<u8> {
        self.predict(dataset)
            .into_iter()
            .map(|c| u8::from(c != ActivityClass::Empty))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_sim::{simulate_annotated, ScenarioConfig};
    use occusense_stats::metrics::accuracy;

    fn annotated_split() -> (Dataset, Vec<ActivityClass>, Dataset, Vec<ActivityClass>) {
        let (ds, labels) = simulate_annotated(&ScenarioConfig::quick(2400.0, 61));
        let split = (ds.len() * 7) / 10;
        (
            ds.records()[..split].iter().copied().collect(),
            labels[..split].to_vec(),
            ds.records()[split..].iter().copied().collect(),
            labels[split..].to_vec(),
        )
    }

    #[test]
    fn recognizer_beats_chance() {
        let (train, train_labels, test, test_labels) = annotated_split();
        let model = ActivityRecognizer::train(
            &train,
            &train_labels,
            &ActivityConfig {
                epochs: 5,
                ..ActivityConfig::default()
            },
        );
        let cm = model.evaluate(&test, &test_labels);
        // Four classes: chance is far below 0.5; empty-vs-rest alone gets
        // us well above it.
        assert!(cm.accuracy() > 0.5, "activity accuracy {}", cm.accuracy());
        assert_eq!(cm.n_classes(), 4);
    }

    #[test]
    fn occupancy_view_matches_binary_task() {
        let (train, train_labels, test, _) = annotated_split();
        let model = ActivityRecognizer::train(
            &train,
            &train_labels,
            &ActivityConfig {
                epochs: 5,
                ..ActivityConfig::default()
            },
        );
        let occ_pred = model.predict_occupancy(&test);
        let occ_true = test.labels();
        let acc = accuracy(&occ_true, &occ_pred);
        assert!(acc > 0.8, "occupancy-from-activity accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let (train, train_labels, test, _) = annotated_split();
        let cfg = ActivityConfig {
            epochs: 2,
            ..ActivityConfig::default()
        };
        let a = ActivityRecognizer::train(&train, &train_labels, &cfg).predict(&test);
        let b = ActivityRecognizer::train(&train, &train_labels, &cfg).predict(&test);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn train_validates_label_length() {
        let (train, _, _, _) = annotated_split();
        ActivityRecognizer::train(&train, &[], &ActivityConfig::default());
    }
}
