//! # occusense-serve — streaming inference runtime
//!
//! Turns the offline detector pipeline into a live service, entirely on
//! std threads (no async runtime):
//!
//! ```text
//!  sensors ──▶ bounded shard queues ──▶ worker threads ──▶ predictions
//!  (clients)   (Block / DropOldest /    (take what is queued,
//!               RejectNewest, exact      one batched MLP
//!               drop counters)           forward each)
//!                                           │ labelled records
//!                                           ▼
//!                                      trainer thread ──▶ hot model
//!                                      (OnlineDetector)    swap (v2, v3…)
//! ```
//!
//! * **Backpressure** — every ingestion queue is bounded with a
//!   configurable full-queue policy and exact per-queue counters
//!   ([`queue`]).
//! * **Sharding** — sensors are FNV-1a hash-routed to a fixed worker
//!   shard ([`routing`]), so per-sensor ordering is preserved and the
//!   hot path shares no locks across shards.
//! * **Work-conserving batching** — each worker takes whatever is
//!   queued, up to `max_batch`, the moment it is free ([`worker`]) and
//!   scores it with a single batched forward pass, bitwise identical
//!   to per-record scoring. Batch size follows load; no timer.
//! * **Hot swap** — a trainer thread learns continually from labelled
//!   records and publishes versioned snapshots workers pick up between
//!   batches ([`model`]).
//! * **Stateful sequence scoring** — a runtime booted with
//!   [`ServeRuntime::start_temporal`] serves the GRU sequence model:
//!   each sensor's hidden row is carried between batches in a
//!   per-shard [`state`] table, the current timestep of all sensors in
//!   a batch advances in *one* batched GRU step (bitwise identical to
//!   solo stepping, by row independence of the kernels), states
//!   zero-reset on hot swap and are evicted on disconnect — all under
//!   the same accounting identity.
//! * **Observability** — counters, gauges and log-bucketed latency
//!   histograms with p50/p95/p99, rendered as plain text ([`metrics`]).
//! * **Fault tolerance** — workers and the trainer run under panic
//!   supervision ([`supervisor`]): a panicking shard quarantines the
//!   in-flight batch into a bounded dead-letter buffer and restarts on
//!   the same queue, the trainer falls back to the last published
//!   snapshot, and the run-level accounting identity
//!   `pushed = scored + quarantined + dropped` is checked by
//!   [`ServeReport::unaccounted_records`].
//! * **Crash-safe checkpoints** — published models are persisted
//!   atomically with a checksum footer (`occusense_core::persist`), so
//!   a restarted runtime resumes from the newest valid checkpoint with
//!   bitwise-identical predictions.
//!
//! [`ServeRuntime::start`] boots the whole topology;
//! [`ServeRuntime::shutdown`] drains it gracefully and returns a
//! [`ServeReport`]. See `src/bin/serve_sim.rs` for an end-to-end driver
//! replaying simulated office scenarios as concurrent sensor streams,
//! including a `--faults` mode that injects NaN bursts, spikes,
//! dropouts and scripted panics.
//!
//! [`ServeReport::unaccounted_records`]: runtime::ServeReport::unaccounted_records

#![deny(unsafe_code)]

pub mod metrics;
pub mod model;
pub mod queue;
pub mod report;
pub mod routing;
pub mod runtime;
pub mod state;
pub mod supervisor;
pub mod trainer;
pub mod worker;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use model::{ModelHandle, ModelSnapshot, ServedModel};
pub use queue::{
    BackpressurePolicy, BoundedQueue, PopResult, PushError, QueueCounters, TryPushError,
};
pub use report::ReportParseError;
pub use routing::{shard_for, try_shard_for, ZeroShardsError};
pub use runtime::{
    wire_stats, OnlineTrainingConfig, SensorClient, ServeConfig, ServeError, ServeReport,
    ServeRuntime, SubmitError, WireCounters,
};
pub use state::{SensorState, StateTable};
pub use supervisor::{CheckpointConfig, DeadLetter, FaultReport, SupervisorConfig};
pub use trainer::LabelledRecord;
pub use worker::{Prediction, PredictionSink};
