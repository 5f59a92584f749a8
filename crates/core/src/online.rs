//! Online (continual) training — §V-B's argument for preferring the MLP
//! over the random forest: "an MLP model can be trained continuously.
//! There is no need to use the whole dataset again but only new data,
//! which can also arrive in real-time, thus doing online training."
//!
//! [`OnlineDetector`] wraps a trained MLP detector with a persistent
//! AdamW state and a small replay buffer: each labelled record streams
//! in, is first *predicted* (prequential evaluation — test-then-train)
//! and then used for a gradient step once a mini-batch accumulates.

use crate::detector::OccupancyDetector;
use occusense_dataset::CsiRecord;
use occusense_nn::loss::BceWithLogits;
use occusense_nn::optim::AdamW;
use occusense_nn::train::{TrainConfig, TrainWorkspace, Trainer};
use occusense_nn::{CompiledMlp, CompiledWorkspace, Mlp};
use occusense_tensor::Matrix;

/// Configuration of the online learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Gradient step size for the streaming updates (usually smaller
    /// than the offline rate to avoid catastrophic drift).
    pub learning_rate: f64,
    /// Decoupled weight decay.
    pub weight_decay: f64,
    /// Records accumulated before each gradient step.
    pub batch_size: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            learning_rate: 1e-3,
            weight_decay: 1e-4,
            batch_size: 64,
        }
    }
}

/// An MLP occupancy detector that keeps learning from a labelled stream.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    features: occusense_dataset::FeatureView,
    standardizer: occusense_dataset::Standardizer,
    mlp: Mlp,
    /// The `f32` artifact of `mlp`, recompiled in place after every
    /// gradient step: predictions run through it, exactly as they do
    /// on a [`snapshot_detector`](Self::snapshot_detector).
    served: CompiledMlp,
    optimizer: AdamW,
    trainer: Trainer,
    buffer_x: Vec<f64>,
    buffer_y: Vec<f64>,
    /// Reused gradient-step buffers and the compiled forward's scoring
    /// buffers: once warm, a prediction or streaming update performs
    /// no heap allocations.
    ws: TrainWorkspace,
    serve_ws: CompiledWorkspace,
    xb: Matrix,
    yb: Matrix,
    xrow: Matrix,
    proba: Vec<f64>,
    config: OnlineConfig,
    updates: u64,
}

impl OnlineDetector {
    /// Wraps an offline-trained MLP detector for streaming updates.
    ///
    /// The feature standardiser is frozen at its offline statistics —
    /// online re-estimation would silently shift every input.
    ///
    /// Returns `None` if the detector is not MLP-backed.
    pub fn from_detector(detector: &OccupancyDetector, config: OnlineConfig) -> Option<Self> {
        let mlp = detector.mlp()?.clone();
        Some(Self {
            features: detector.features(),
            standardizer: detector.standardizer().clone(),
            served: mlp.compile(),
            mlp,
            optimizer: AdamW::new(config.learning_rate, config.weight_decay),
            trainer: Trainer::new(TrainConfig {
                epochs: 1,
                batch_size: config.batch_size,
                shuffle_seed: 0,
            }),
            buffer_x: Vec::new(),
            buffer_y: Vec::new(),
            ws: TrainWorkspace::new(),
            serve_ws: CompiledWorkspace::new(),
            xb: Matrix::default(),
            yb: Matrix::default(),
            xrow: Matrix::default(),
            proba: Vec::new(),
            config,
            updates: 0,
        })
    }

    /// Number of gradient steps taken so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Number of buffer-growth events across the learner's warm
    /// workspace (scoring and gradient-step buffers alike); flat across
    /// observations ⇒ the steady-state continual-training loop is
    /// allocation-free.
    pub fn reallocs(&self) -> u64 {
        self.ws.reallocs() + self.serve_ws.reallocs()
    }

    /// Predicts the occupancy of one record `(label, confidence)`
    /// through the compiled artifact of the current weights — bitwise
    /// the score a [`snapshot_detector`](Self::snapshot_detector) taken
    /// now gives, and allocation-free in the steady state.
    // lint:no_alloc
    pub fn predict_record(&mut self, record: &CsiRecord) -> (u8, f64) {
        let d = self.features.dimension();
        if self.xrow.ensure_shape(1, d) {
            self.serve_ws.note_grow();
        }
        self.features.extract_into(record, self.xrow.row_mut(0));
        self.standardizer
            .transform_row_inplace(self.xrow.row_mut(0));
        self.served
            .predict_proba_into(&self.xrow, &mut self.serve_ws, &mut self.proba);
        let p = self.proba[0];
        (u8::from(p > 0.5), p)
    }

    /// Prequential step: predicts the record, then absorbs its ground-
    /// truth label into the replay buffer (taking a gradient step once
    /// the buffer holds a full batch). Returns the prediction made
    /// *before* learning from the record.
    pub fn observe(&mut self, record: &CsiRecord, label: u8) -> (u8, f64) {
        let prediction = self.predict_record(record);
        // `xrow` still holds this record's standardised features, so
        // the replay buffer fills by copy, not re-extraction.
        let d = self.features.dimension();
        if self.buffer_x.capacity() < self.buffer_x.len() + d
            || self.buffer_y.capacity() == self.buffer_y.len()
        {
            self.ws.mlp_workspace_mut().scratch_mut().note_grow();
        }
        // lint:allow(alloc, reason = "replay-buffer growth is one-time (capacity is retained across batch drains) and counted via note_grow above")
        self.buffer_x.extend_from_slice(self.xrow.row(0));
        // lint:allow(alloc, reason = "replay-buffer growth is one-time (capacity is retained across batch drains) and counted via note_grow above")
        self.buffer_y.push(label as f64);
        if self.buffer_y.len() >= self.config.batch_size {
            let n = self.buffer_y.len();
            if self.xb.ensure_shape(n, d) {
                self.ws.mlp_workspace_mut().scratch_mut().note_grow();
            }
            self.xb.as_mut_slice().copy_from_slice(&self.buffer_x);
            if self.yb.ensure_shape(n, 1) {
                self.ws.mlp_workspace_mut().scratch_mut().note_grow();
            }
            self.yb.as_mut_slice().copy_from_slice(&self.buffer_y);
            self.buffer_x.clear();
            self.buffer_y.clear();
            self.trainer.train_batch_with(
                &mut self.mlp,
                &self.xb,
                &self.yb,
                &BceWithLogits,
                &mut self.optimizer,
                &mut self.ws,
            );
            self.served.recompile(&self.mlp);
            self.updates += 1;
        }
        prediction
    }
    // lint:end_no_alloc

    /// The current (continually trained) network.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The feature view inherited from the offline detector.
    pub fn features(&self) -> occusense_dataset::FeatureView {
        self.features
    }

    /// Freezes the current weights into a standalone detector — the
    /// hot-swap publication path of the serving runtime: the trainer
    /// thread keeps learning on `self` while workers score against
    /// immutable snapshots taken here.
    pub fn snapshot_detector(&self) -> OccupancyDetector {
        OccupancyDetector::from_parts(self.features, self.standardizer.clone(), self.mlp.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorConfig, ModelKind};
    use occusense_dataset::Dataset;
    use occusense_sim::{simulate, ScenarioConfig};

    fn quick_split(duration_s: f64, seed: u64) -> (Dataset, Dataset) {
        let ds = simulate(&ScenarioConfig::quick(duration_s, seed));
        let split = (ds.len() * 7) / 10;
        (
            ds.records()[..split].iter().copied().collect(),
            ds.records()[split..].iter().copied().collect(),
        )
    }

    fn trained_online() -> (OnlineDetector, occusense_dataset::Dataset) {
        let (train, test) = quick_split(1600.0, 91);
        let det = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 3,
                ..DetectorConfig::default()
            },
        );
        (
            OnlineDetector::from_detector(&det, OnlineConfig::default()).expect("MLP"),
            test,
        )
    }

    #[test]
    fn wraps_only_mlp_detectors() {
        let (train, _) = quick_split(600.0, 92);
        let rf = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::RandomForest,
                ..DetectorConfig::default()
            },
        );
        assert!(OnlineDetector::from_detector(&rf, OnlineConfig::default()).is_none());
    }

    #[test]
    fn observe_predicts_before_learning() {
        let (mut online, test) = trained_online();
        let frozen_pred = online.predict_record(&test.records()[0]);
        let observed = online.observe(&test.records()[0], test.records()[0].occupancy());
        assert_eq!(frozen_pred, observed);
    }

    #[test]
    fn gradient_steps_fire_per_batch() {
        let (mut online, test) = trained_online();
        let batch = OnlineConfig::default().batch_size;
        for r in test.records().iter().take(batch - 1) {
            online.observe(r, r.occupancy());
        }
        assert_eq!(online.updates(), 0);
        online.observe(
            &test.records()[batch - 1],
            test.records()[batch - 1].occupancy(),
        );
        assert_eq!(online.updates(), 1);
    }

    #[test]
    fn online_updates_change_the_network() {
        let (mut online, test) = trained_online();
        let before = online.mlp().clone();
        for r in test.records().iter().take(200) {
            online.observe(r, r.occupancy());
        }
        assert!(online.updates() > 0);
        assert_ne!(*online.mlp(), before);
    }

    #[test]
    fn snapshot_detector_freezes_current_weights() {
        let (mut online, test) = trained_online();
        let snap = online.snapshot_detector();
        // The snapshot agrees with the live detector at capture time…
        for r in test.records().iter().take(10) {
            assert_eq!(snap.predict_record(r), online.predict_record(r));
        }
        // …and stays frozen while the live detector keeps learning.
        for r in test.records() {
            online.observe(r, r.occupancy());
        }
        assert!(online.updates() > 0);
        let fresh = online.snapshot_detector();
        assert_ne!(snap.mlp(), fresh.mlp(), "snapshot tracked live weights");
        let drifted = test
            .records()
            .iter()
            .take(50)
            .any(|r| snap.predict_record(r).1 != online.predict_record(r).1);
        assert!(drifted, "online updates left the snapshot identical");
    }

    #[test]
    fn continual_training_is_allocation_free_after_warmup() {
        // The serve trainer thread holds one OnlineDetector for the
        // whole run: after the first couple of gradient steps have
        // sized every buffer, the predict→buffer→train-batch loop must
        // never grow one again.
        let (mut online, test) = trained_online();
        let batch = OnlineConfig::default().batch_size;
        for r in test.records().iter().take(2 * batch) {
            online.observe(r, r.occupancy());
        }
        assert_eq!(online.updates(), 2);
        let warm = online.reallocs();
        for r in test.records().iter().skip(2 * batch).take(4 * batch) {
            online.observe(r, r.occupancy());
        }
        assert_eq!(online.updates(), 6);
        assert_eq!(
            online.reallocs(),
            warm,
            "steady-state continual training grew a buffer"
        );
    }

    #[test]
    fn prequential_accuracy_stays_high_on_stream() {
        let (mut online, test) = trained_online();
        let mut correct = 0usize;
        for r in test.records() {
            let (pred, _) = online.observe(r, r.occupancy());
            correct += usize::from(pred == r.occupancy());
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.85, "prequential accuracy {acc}");
    }
}
