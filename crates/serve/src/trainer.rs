//! The trainer thread: continual learning feeding hot swaps, under
//! the same panic supervision as the worker shards.
//!
//! Labelled records teed off the inference path land in a bounded
//! `DropOldest` queue consumed here by an
//! [`OnlineDetector`] — the
//! paper's §V-B continual-training argument made operational. Every
//! `publish_every_updates` gradient steps the current weights are
//! frozen into a snapshot and published to the workers' model handle;
//! every `every_publishes` publications the snapshot is also persisted
//! as a crash-safe checkpoint (`occusense_core::persist`).
//!
//! On a panic the trainer falls back to the **last good snapshot**:
//! the learner is rebuilt from the currently published model, the
//! record being observed is counted as poisoned, and consumption
//! resumes. Inference never notices — workers keep scoring against
//! the published snapshot throughout.

use crate::metrics::Counter;
use crate::model::ModelHandle;
use crate::queue::BoundedQueue;
use crate::supervisor::{panic_message, CheckpointConfig, SupervisorState};
use occusense_core::online::{OnlineConfig, OnlineDetector};
use occusense_core::persist;
use occusense_dataset::CsiRecord;
use occusense_sim::stream::is_trainer_panic_trigger;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A ground-truth-labelled record for continual training.
#[derive(Debug, Clone)]
pub struct LabelledRecord {
    /// The record.
    pub record: CsiRecord,
    /// Its binary occupancy label.
    pub label: u8,
}

/// Everything the trainer thread needs.
pub(crate) struct TrainerContext {
    pub queue: Arc<BoundedQueue<LabelledRecord>>,
    pub model: Arc<ModelHandle>,
    pub online: OnlineDetector,
    pub online_config: OnlineConfig,
    pub publish_every_updates: u64,
    pub checkpoint: Option<CheckpointConfig>,
    pub observed: Arc<Counter>,
    /// Buffer-growth events in the learner's workspace *after* the
    /// warm-up gradient steps — the continual-training loop holds one
    /// warm workspace for the whole run, so this must stay zero.
    pub steady_reallocs: Arc<Counter>,
    pub publishes: Arc<Counter>,
    pub restarts: Arc<Counter>,
    pub checkpoints: Arc<Counter>,
    pub checkpoint_failures: Arc<Counter>,
    pub supervision: Arc<SupervisorState>,
    pub max_restarts: u64,
    pub panic_on_trigger: bool,
}

/// The supervised trainer loop: drains until the queue is closed and
/// empty, surviving up to `max_restarts` panics by rebuilding the
/// learner from the last published snapshot. Past the limit continual
/// training is abandoned for the run — the last snapshot keeps
/// serving, which is the safe direction to fail.
pub(crate) fn run(mut ctx: TrainerContext) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| train_loop(&mut ctx))) {
            Ok(()) => return,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let restarts = ctx.supervision.record_trainer_panic(&message);
                ctx.restarts.inc();
                if restarts > ctx.max_restarts {
                    return;
                }
                // Fall back to the last good snapshot. The trainer only
                // runs on frame runtimes and publishes MLP-backed
                // models, so the rebuild cannot fail; the guard keeps a
                // logic error from looping forever.
                let snapshot = ctx.model.current();
                match snapshot
                    .frame()
                    .and_then(|d| OnlineDetector::from_detector(d, ctx.online_config))
                {
                    Some(online) => ctx.online = online,
                    None => return,
                }
            }
        }
    }
}

/// One supervised span of the drain loop (the unwind-protected region).
fn train_loop(ctx: &mut TrainerContext) {
    // The rebuilt learner restarts its update count at zero, so the
    // publish cadence is tracked per span.
    let mut published_at_update = 0u64;
    // Realloc watermark, armed once two gradient steps have sized the
    // warm workspace. Any growth past it is a steady-state allocation
    // and counted — the metric the allocation-free contract asserts on.
    let mut realloc_watermark: Option<u64> = None;
    while let Some(labelled) = ctx.queue.pop() {
        if ctx.panic_on_trigger && is_trainer_panic_trigger(&labelled.record) {
            // lint:allow(panic, reason = "fault injection: this panic IS the feature under test; it exercises the supervisor's restart path")
            panic!("fault injection: scripted trainer panic trigger");
        }
        ctx.online.observe(&labelled.record, labelled.label);
        ctx.observed.inc();
        let updates = ctx.online.updates();
        if updates >= 2 {
            let reallocs = ctx.online.reallocs();
            match realloc_watermark {
                None => realloc_watermark = Some(reallocs),
                Some(mark) if reallocs > mark => {
                    ctx.steady_reallocs.add(reallocs - mark);
                    realloc_watermark = Some(reallocs);
                }
                Some(_) => {}
            }
        }
        if updates >= published_at_update + ctx.publish_every_updates {
            publish(ctx);
            published_at_update = updates;
        }
    }
    if ctx.online.updates() > published_at_update {
        publish(ctx);
    }
}

/// Publishes the current weights and, on the configured cadence,
/// persists them as a crash-safe checkpoint. Checkpoint failures are
/// counted and logged, never allowed to take the trainer down.
fn publish(ctx: &TrainerContext) {
    let detector = ctx.online.snapshot_detector();
    let version = ctx.model.publish(detector.clone());
    ctx.publishes.inc();
    let Some(cfg) = &ctx.checkpoint else { return };
    if !ctx
        .publishes
        .get()
        .is_multiple_of(cfg.every_publishes.max(1))
    {
        return;
    }
    let path = persist::checkpoint_path(&cfg.dir, version);
    match persist::save_detector_atomic(&path, &detector) {
        Ok(()) => {
            ctx.checkpoints.inc();
            let _ = persist::prune_checkpoints(&cfg.dir, cfg.keep);
        }
        Err(e) => {
            ctx.checkpoint_failures.inc();
            ctx.supervision
                .log_panic(format!("checkpoint v{version} failed: {e}"));
        }
    }
}
