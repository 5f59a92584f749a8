//! Occupant counting from CSI — a natural extension of the paper's
//! binary task, following the crowd-counting line of its references
//! \[3, 12\]. The simulator's ground truth (Table II tracks simultaneous
//! head counts) makes the task directly trainable.

use crate::sampling::stratified_indices;
use occusense_dataset::{Dataset, FeatureView, Standardizer};
use occusense_nn::loss::SoftmaxCrossEntropy;
use occusense_nn::optim::AdamW;
use occusense_nn::train::{TrainConfig, Trainer};
use occusense_nn::Mlp;
use occusense_stats::metrics::MultiConfusion;

/// Head counts at or above this value share the top class (Table II's
/// last column aggregates "four or more").
pub const MAX_COUNT_CLASS: usize = 4;

/// Number of count classes (0, 1, 2, 3, 4+).
pub const N_COUNT_CLASSES: usize = MAX_COUNT_CLASS + 1;

/// Hyper-parameters of the occupant counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CountingConfig {
    /// Feature subset.
    pub features: FeatureView,
    /// Master seed.
    pub seed: u64,
    /// Stratified cap on the training set.
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

impl Default for CountingConfig {
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

/// Counting evaluation: classification view plus count-error view.
#[derive(Debug, Clone, PartialEq)]
pub struct CountingScores {
    /// 5-class confusion matrix (0, 1, 2, 3, 4+).
    pub confusion: MultiConfusion,
    /// Mean absolute count error (treating 4+ as 4).
    pub count_mae: f64,
    /// Accuracy of the derived binary occupancy label.
    pub occupancy_accuracy: f64,
}

/// A trained CSI → head-count classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyCounter {
    features: FeatureView,
    standardizer: Standardizer,
    mlp: Mlp,
}

impl OccupancyCounter {
    /// Class label for a raw head count.
    pub fn count_class(occupant_count: u8) -> usize {
        (occupant_count as usize).min(MAX_COUNT_CLASS)
    }

    /// Trains the counter on a dataset (ground truth comes from each
    /// record's `occupant_count`).
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn train(train: &Dataset, config: &CountingConfig) -> Self {
        assert!(!train.is_empty(), "counter: empty training set");
        let indices = match config.max_train_samples {
            Some(max) => stratified_indices(train, max, config.seed),
            None => (0..train.len()).collect(),
        };
        let sub: Dataset = indices.iter().map(|&i| train.records()[i]).collect();
        let labels: Vec<usize> = sub
            .iter()
            .map(|r| Self::count_class(r.occupant_count))
            .collect();

        let x_raw = config.features.design_matrix(&sub);
        let standardizer = Standardizer::fit(&x_raw);
        let x = standardizer.transform(&x_raw);
        let y = SoftmaxCrossEntropy::one_hot(&labels, N_COUNT_CLASSES);

        let mut mlp =
            Mlp::paper_regressor(config.features.dimension(), N_COUNT_CLASSES, config.seed);
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

    /// Predicted count class (0–4, where 4 means "4 or more") per record.
    pub fn predict(&self, dataset: &Dataset) -> Vec<usize> {
        let x = self
            .standardizer
            .transform(&self.features.design_matrix(dataset));
        SoftmaxCrossEntropy::argmax(&self.mlp.predict(&x))
    }

    /// Evaluates against the dataset's head-count ground truth.
    pub fn evaluate(&self, dataset: &Dataset) -> CountingScores {
        let pred = self.predict(dataset);
        let truth: Vec<usize> = dataset
            .iter()
            .map(|r| Self::count_class(r.occupant_count))
            .collect();
        let confusion = MultiConfusion::from_labels(N_COUNT_CLASSES, &truth, &pred);
        let count_mae = truth
            .iter()
            .zip(&pred)
            .map(|(&t, &p)| (t as f64 - p as f64).abs())
            .sum::<f64>()
            / truth.len().max(1) as f64;
        let occ_correct = truth
            .iter()
            .zip(&pred)
            .filter(|(&t, &p)| (t > 0) == (p > 0))
            .count();
        CountingScores {
            confusion,
            count_mae,
            occupancy_accuracy: occ_correct as f64 / truth.len().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_sim::{simulate, ScenarioConfig};

    fn split() -> (Dataset, Dataset) {
        // The quick scenario's second subject only enters at 75 % of the
        // window, so a 90/10 split is needed for the training fold to
        // contain every count class.
        let ds = simulate(&ScenarioConfig::quick(2400.0, 71));
        let split = (ds.len() * 9) / 10;
        (
            ds.records()[..split].iter().copied().collect(),
            ds.records()[split..].iter().copied().collect(),
        )
    }

    #[test]
    fn count_class_caps_at_four() {
        assert_eq!(OccupancyCounter::count_class(0), 0);
        assert_eq!(OccupancyCounter::count_class(3), 3);
        assert_eq!(OccupancyCounter::count_class(4), 4);
        assert_eq!(OccupancyCounter::count_class(6), 4);
    }

    #[test]
    fn counter_learns_the_quick_scenario() {
        // quick(): empty → one person → two people; counting should
        // recover all three regimes much better than chance.
        let (train, test) = split();
        let counter = OccupancyCounter::train(
            &train,
            &CountingConfig {
                epochs: 6,
                ..CountingConfig::default()
            },
        );
        // In-sample: all three regimes must be separable.
        let in_sample = counter.evaluate(&train);
        assert!(
            in_sample.confusion.accuracy() > 0.7,
            "{}",
            in_sample.confusion
        );
        // Held-out tail (two occupants): the exact count generalises.
        let scores = counter.evaluate(&test);
        assert!(scores.count_mae < 1.0, "count MAE {}", scores.count_mae);
        assert!(scores.occupancy_accuracy > 0.8);
    }

    #[test]
    fn counting_subsumes_occupancy() {
        let (train, test) = split();
        let counter = OccupancyCounter::train(
            &train,
            &CountingConfig {
                epochs: 6,
                ..CountingConfig::default()
            },
        );
        let scores = counter.evaluate(&test);
        // Occupancy accuracy is at least the exact-count accuracy.
        assert!(scores.occupancy_accuracy >= scores.confusion.accuracy() - 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let (train, test) = split();
        let cfg = CountingConfig {
            epochs: 2,
            ..CountingConfig::default()
        };
        assert_eq!(
            OccupancyCounter::train(&train, &cfg).predict(&test),
            OccupancyCounter::train(&train, &cfg).predict(&test)
        );
    }
}
