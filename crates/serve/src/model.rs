//! Versioned hot model swap.
//!
//! The trainer thread keeps learning on its own
//! [`OnlineDetector`](occusense_core::online::OnlineDetector) and periodically publishes an immutable
//! snapshot here; workers re-read the slot between batches, so a
//! swap never interrupts an in-flight batch and the inference path
//! never blocks on training. The slot is a single `RwLock<Arc<_>>`
//! touched once per *batch* (not per record), so contention is
//! negligible at any realistic batch size.
//!
//! A snapshot serves either the per-frame detector or the temporal
//! (GRU) sequence model — [`ServedModel`]. A runtime is booted in one
//! mode and stays there: the frame trainer only publishes frame
//! snapshots, and temporal swaps go through
//! [`ModelHandle::publish_temporal`]. Workers detect the (impossible
//! by construction, but cheap to check) kind flip defensively and
//! quarantine rather than score against mismatched state.

use occusense_core::detector::OccupancyDetector;
use occusense_core::temporal::TemporalDetector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// What a snapshot scores with: the paper's per-frame MLP pipeline or
/// the stateful GRU sequence model.
///
/// The variants differ in size (the GRU carries packed gate weights),
/// but exactly one instance lives inside each `Arc`'d snapshot — the
/// enum is never stored in bulk, so boxing would only add a pointer
/// chase to the scoring hot path.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ServedModel {
    /// Stateless per-record scoring ([`OccupancyDetector`]).
    Frame(OccupancyDetector),
    /// Stateful per-sensor sequence scoring ([`TemporalDetector`]);
    /// workers carry one hidden row per sensor across batches.
    Temporal(TemporalDetector),
}

/// An immutable, versioned model the workers score against.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Monotone publication number (the boot model is version 1).
    pub version: u64,
    /// The frozen model.
    pub model: ServedModel,
}

impl ModelSnapshot {
    /// The frame detector, when this snapshot serves one.
    pub fn frame(&self) -> Option<&OccupancyDetector> {
        match &self.model {
            ServedModel::Frame(d) => Some(d),
            ServedModel::Temporal(_) => None,
        }
    }

    /// The temporal detector, when this snapshot serves one.
    pub fn temporal(&self) -> Option<&TemporalDetector> {
        match &self.model {
            ServedModel::Temporal(t) => Some(t),
            ServedModel::Frame(_) => None,
        }
    }
}

/// The swap point between the trainer and the worker shards.
#[derive(Debug)]
pub struct ModelHandle {
    slot: RwLock<Arc<ModelSnapshot>>,
    next_version: AtomicU64,
}

impl ModelHandle {
    /// Installs the boot frame model as version 1.
    pub fn new(detector: OccupancyDetector) -> Self {
        Self::boot(ServedModel::Frame(detector))
    }

    /// Installs the boot temporal model as version 1.
    pub fn new_temporal(detector: TemporalDetector) -> Self {
        Self::boot(ServedModel::Temporal(detector))
    }

    fn boot(model: ServedModel) -> Self {
        Self {
            slot: RwLock::new(Arc::new(ModelSnapshot { version: 1, model })),
            next_version: AtomicU64::new(2),
        }
    }

    /// The currently published snapshot (cheap: one `Arc` clone under a
    /// read lock).
    pub fn current(&self) -> Arc<ModelSnapshot> {
        // lint:allow(panic, reason = "poison propagation: the write side only swaps an Arc, but a poisoned slot still signals a publisher panic worth surfacing")
        Arc::clone(&self.slot.read().expect("model slot poisoned"))
    }

    /// The version of the currently published snapshot.
    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// Publishes a new frame model, returning its version.
    pub fn publish(&self, detector: OccupancyDetector) -> u64 {
        self.swap(ServedModel::Frame(detector))
    }

    /// Publishes a new temporal model, returning its version. Workers
    /// zero-reset every sensor's hidden state the first time they score
    /// it against the new version.
    pub fn publish_temporal(&self, detector: TemporalDetector) -> u64 {
        self.swap(ServedModel::Temporal(detector))
    }

    fn swap(&self, model: ServedModel) -> u64 {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let snapshot = Arc::new(ModelSnapshot { version, model });
        // lint:allow(panic, reason = "poison propagation: the write side only swaps an Arc, but a poisoned slot still signals a publisher panic worth surfacing")
        *self.slot.write().expect("model slot poisoned") = snapshot;
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_core::detector::{DetectorConfig, ModelKind};
    use occusense_core::temporal::TemporalConfig;
    use occusense_sim::{simulate, ScenarioConfig};

    fn tiny_detector(seed: u64) -> OccupancyDetector {
        let ds = simulate(&ScenarioConfig::quick(400.0, seed));
        OccupancyDetector::train(
            &ds,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 1,
                seed,
                ..DetectorConfig::default()
            },
        )
    }

    #[test]
    fn publish_bumps_version_and_swaps_atomically() {
        let handle = ModelHandle::new(tiny_detector(1));
        assert_eq!(handle.version(), 1);
        let before = handle.current();
        let v2 = handle.publish(tiny_detector(2));
        assert_eq!(v2, 2);
        assert_eq!(handle.version(), 2);
        // Workers holding the old Arc keep a consistent model.
        assert_eq!(before.version, 1);
        assert_eq!(handle.publish(tiny_detector(3)), 3);
    }

    #[test]
    fn temporal_snapshots_expose_the_right_kind() {
        let ds = simulate(&ScenarioConfig::quick(600.0, 5));
        let temporal = TemporalDetector::train(
            &ds,
            &TemporalConfig {
                window: 8,
                stride: 4,
                hidden: 8,
                epochs: 1,
                ..TemporalConfig::default()
            },
        );
        let handle = ModelHandle::new_temporal(temporal.clone());
        let snap = handle.current();
        assert_eq!(snap.version, 1);
        assert!(snap.temporal().is_some());
        assert!(snap.frame().is_none());
        assert_eq!(handle.publish_temporal(temporal), 2);
        assert_eq!(handle.version(), 2);
        let frame = ModelHandle::new(tiny_detector(9)).current();
        assert!(frame.frame().is_some());
        assert!(frame.temporal().is_none());
    }
}
