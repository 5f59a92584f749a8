//! Assembly of the serving pipeline:
//! `SensorClient → shard queue → supervised worker (drain queue →
//! batched forward) → prediction sink`, with a side path
//! `labelled records → trainer queue → OnlineDetector → hot swap`
//! and a fault-tolerance layer (supervised restarts, dead-letter
//! quarantine, crash-safe checkpoints) around all of it.

use crate::metrics::MetricsRegistry;
use crate::model::{ModelHandle, ServedModel};
use crate::queue::{BackpressurePolicy, BoundedQueue, PushError, QueueCounters, TryPushError};
use crate::routing::shard_for;
use crate::state::StateTable;
use crate::supervisor::{
    panic_message, CheckpointConfig, FaultReport, SupervisorConfig, SupervisorState,
};
use crate::trainer::{self, LabelledRecord, TrainerContext};
use crate::worker::{self, Job, Prediction, PredictionSink, WorkerContext, WorkerMetrics};
use occusense_core::detector::OccupancyDetector;
use occusense_core::online::{OnlineConfig, OnlineDetector};
use occusense_core::persist;
use occusense_core::temporal::TemporalDetector;
use occusense_dataset::CsiRecord;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Continual-training settings (enables the trainer thread).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineTrainingConfig {
    /// Hyper-parameters of the streaming learner.
    pub online: OnlineConfig,
    /// Gradient steps between snapshot publications.
    pub publish_every_updates: u64,
    /// Capacity of the labelled-record queue (always `DropOldest`: the
    /// trainer must never backpressure the inference path).
    pub queue_capacity: usize,
}

impl Default for OnlineTrainingConfig {
    fn default() -> Self {
        Self {
            online: OnlineConfig::default(),
            publish_every_updates: 2,
            queue_capacity: 4096,
        }
    }
}

/// Runtime topology and policies.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The tenant this runtime serves. A fleet controller labels each
    /// runtime with its tenant so reports roll up per tenant; the
    /// empty string is the default (untenanted) namespace.
    pub tenant: String,
    /// Worker shards (threads); sensors are hash-routed across them.
    pub n_shards: usize,
    /// Capacity of each shard's ingestion queue.
    pub queue_capacity: usize,
    /// Full-queue behaviour of the ingestion queues.
    pub policy: BackpressurePolicy,
    /// Most records one worker flush scores. Workers take whatever is
    /// queued up to this many, so batches are only this large when a
    /// shard is behind.
    pub max_batch: usize,
    /// `Some` enables continual training + hot model swap.
    pub online: Option<OnlineTrainingConfig>,
    /// Panic supervision and quarantine knobs.
    pub supervisor: SupervisorConfig,
    /// `Some` enables periodic + on-shutdown crash-safe checkpoints.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            tenant: String::new(),
            n_shards: 4,
            queue_capacity: 1024,
            policy: BackpressurePolicy::DropOldest,
            max_batch: 32,
            online: Some(OnlineTrainingConfig::default()),
            supervisor: SupervisorConfig::default(),
            checkpoint: None,
        }
    }
}

/// Why [`ServeRuntime::start`] refused a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// `n_shards` was zero.
    ZeroShards,
    /// `max_batch` was zero.
    ZeroBatch,
    /// Online training was requested for a detector that is not
    /// MLP-backed (only the MLP supports the paper's continual-
    /// training path).
    OnlineRequiresMlp,
    /// Online training was requested for a temporal (GRU) model; the
    /// continual trainer only supports the per-frame path, so temporal
    /// runtimes must start with `online: None` and swap via
    /// [`ServeRuntime::publish_temporal`].
    OnlineUnsupportedForTemporal,
    /// The checkpoint directory could not be created.
    CheckpointDir(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ZeroShards => write!(f, "serve: n_shards must be positive"),
            ServeError::ZeroBatch => write!(f, "serve: max_batch must be positive"),
            ServeError::OnlineRequiresMlp => {
                write!(f, "serve: online training requires an MLP-backed detector")
            }
            ServeError::OnlineUnsupportedForTemporal => {
                write!(
                    f,
                    "serve: online training is not supported for temporal models; start with online: None"
                )
            }
            ServeError::CheckpointDir(e) => {
                write!(f, "serve: cannot create checkpoint directory: {e}")
            }
        }
    }
}

impl Error for ServeError {}

/// Why a submission did not enter the runtime. (`CsiRecord` is `Copy`,
/// so the caller still holds the record and can retry or shed it
/// knowingly.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The shard queue was full under `RejectNewest`.
    Rejected,
    /// The runtime is shutting down (or this record's shard failed
    /// permanently and closed its queue).
    Shutdown,
}

/// A per-sensor ingestion handle (cheap, movable into the sensor's
/// thread; sequence numbers are per-handle).
#[derive(Debug)]
pub struct SensorClient {
    sensor_id: Arc<str>,
    shard: usize,
    queue: Arc<BoundedQueue<Job>>,
    seq: u64,
}

impl SensorClient {
    /// The shard this sensor's records are routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Submits an unlabelled record for scoring.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&mut self, record: CsiRecord) -> Result<(), SubmitError> {
        self.submit_inner(record, None)
    }

    /// Submits a record whose ground-truth label is known; after being
    /// scored it also feeds the continual trainer (when enabled).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit_labelled(&mut self, record: CsiRecord, label: u8) -> Result<(), SubmitError> {
        self.submit_inner(record, Some(label))
    }

    /// Submits a record under a caller-assigned sequence number,
    /// leaving this handle's own counter untouched.
    ///
    /// This is the ingestion path of the `occusense-wire` gateway: a
    /// network client numbers its records at the sensor, and those
    /// numbers must survive rejections verbatim — a NACKed record and
    /// the prediction of its successor carry *consecutive client*
    /// sequence numbers, which the per-handle counter (which only
    /// advances on accepted records) could not provide.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit_sequenced(
        &mut self,
        seq: u64,
        record: CsiRecord,
        label: Option<u8>,
    ) -> Result<(), SubmitError> {
        match self.queue.push(self.job(seq, record, label)) {
            Ok(()) => Ok(()),
            Err(PushError::Rejected(_)) => Err(SubmitError::Rejected),
            Err(PushError::Closed(_)) => Err(SubmitError::Shutdown),
        }
    }

    /// [`submit_sequenced`](Self::submit_sequenced) that never parks.
    /// This is the gateway reactor's ingestion path: one thread serving
    /// many connections must pause the one whose shard is full, not
    /// park.
    ///
    /// # Errors
    ///
    /// The shard queue's [`TryPushError`] (the record stays with the
    /// caller — `CsiRecord` is `Copy`): `Full` (a `Block` queue at
    /// capacity — nothing was submitted or counted; retry later),
    /// `Rejected` (`RejectNewest`, counted) or `Closed` (shutdown, or
    /// the shard failed closed).
    pub fn try_submit_sequenced(
        &mut self,
        seq: u64,
        record: CsiRecord,
        label: Option<u8>,
    ) -> Result<(), TryPushError<()>> {
        self.queue
            .try_push(self.job(seq, record, label))
            .map_err(|e| match e {
                TryPushError::Full(_) => TryPushError::Full(()),
                TryPushError::Rejected(_) => TryPushError::Rejected(()),
                TryPushError::Closed(_) => TryPushError::Closed(()),
            })
    }

    fn job(&self, seq: u64, record: CsiRecord, label: Option<u8>) -> Job {
        Job {
            sensor_id: Arc::clone(&self.sensor_id),
            seq,
            record,
            label,
            enqueued_at: Instant::now(),
        }
    }

    fn submit_inner(&mut self, record: CsiRecord, label: Option<u8>) -> Result<(), SubmitError> {
        let seq = self.seq;
        self.submit_sequenced(seq, record, label).inspect(|()| {
            self.seq += 1;
        })
    }
}

/// Metric names the `occusense-wire` gateway increments on the shared
/// [`MetricsRegistry`]; [`ServeRuntime::shutdown`] mirrors them into
/// [`ServeReport::wire`] and the transport fields of
/// [`FaultReport`], which is how transport-level losses enter the
/// accounting identity without `occusense-serve` depending on the
/// (higher-layer) wire crate.
pub mod wire_stats {
    /// Connections the gateway accepted (post-handshake).
    pub const CONNECTIONS: &str = "wire.connections";
    /// Frames received from clients (any type, post-decode).
    pub const FRAMES_RECEIVED: &str = "wire.frames_received";
    /// Records decoded out of `Record` + `Batch` frames.
    pub const RECORDS_DECODED: &str = "wire.records_decoded";
    /// Decoded records accepted into a shard queue.
    pub const RECORDS_INGESTED: &str = "wire.records_ingested";
    /// Decoded records refused by `RejectNewest` (NACK `queue-full`).
    pub const RECORDS_REJECTED: &str = "wire.records_rejected";
    /// Decoded records shed because the runtime was shutting down or
    /// the shard failed closed (NACK `shutdown`).
    pub const RECORDS_SHED: &str = "wire.records_shed";
    /// Frames that failed to decode (the connection closes after one).
    pub const MALFORMED_FRAMES: &str = "wire.malformed_frames";
    /// Predictions routed towards a connected client's outbound queue.
    pub const PREDICTIONS_ROUTED: &str = "wire.predictions_routed";
    /// Predictions actually written to a client connection.
    pub const PREDICTIONS_SENT: &str = "wire.predictions_sent";
    /// Predictions whose sensor had no live connection (client gone).
    pub const PREDICTIONS_UNROUTED: &str = "wire.predictions_unrouted";
    /// Handshake deadlines missed plus sends abandoned at the write
    /// timeout (mirrored into `FaultReport::transport_timeouts`).
    pub const TRANSPORT_TIMEOUTS: &str = "wire.transport_timeouts";
    /// Connections whose handler panicked and was contained (the
    /// connection fails closed; the gateway keeps serving). Mirrored
    /// into `FaultReport::connection_panics`.
    pub const CONNECTION_PANICS: &str = "wire.connection_panics";
    /// Gateway locks recovered from poisoning (a panicking holder left
    /// the lock; the state was still consistent and service continued).
    pub const LOCK_RECOVERIES: &str = "wire.lock_recoveries";
    /// Gateway threads (accept loop, reactors) whose join at shutdown
    /// surfaced a panic. The panic was already contained —
    /// the thread is gone either way — but a non-zero count means some
    /// traffic window went unserved.
    pub const THREAD_PANICS: &str = "wire.thread_panics";
}

/// Transport-boundary counters of one run, all zero unless an
/// `occusense-wire` gateway fed the runtime. The wire identity checked
/// by [`ServeReport::unaccounted_records`]:
/// `records_decoded = records_ingested + records_rejected + records_shed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireCounters {
    /// Connections accepted (post-handshake).
    pub connections: u64,
    /// Frames received from clients.
    pub frames_received: u64,
    /// Records decoded out of record/batch frames.
    pub records_decoded: u64,
    /// Records accepted into shard queues.
    pub records_ingested: u64,
    /// Records refused under `RejectNewest` (NACKed back).
    pub records_rejected: u64,
    /// Records shed at shutdown / on failed shards (NACKed back).
    pub records_shed: u64,
    /// Frames that failed to decode.
    pub malformed_frames: u64,
    /// Predictions routed towards connected clients.
    pub predictions_routed: u64,
    /// Predictions delivered to clients.
    pub predictions_sent: u64,
    /// Predictions that found no live connection.
    pub predictions_unrouted: u64,
    /// Connection handlers that panicked and were contained (their
    /// in-flight records were re-counted as shed so the wire identity
    /// still closes).
    pub connection_panics: u64,
    /// Gateway locks recovered after a poisoning panic.
    pub lock_recoveries: u64,
    /// Gateway threads whose shutdown join surfaced a panic.
    pub thread_panics: u64,
}

impl WireCounters {
    /// Whether any wire traffic touched this run.
    pub fn any_traffic(&self) -> bool {
        self.connections > 0 || self.frames_received > 0 || self.records_decoded > 0
    }
}

/// End-of-run summary (also carries the full metrics text).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// The tenant this runtime served ([`ServeConfig::tenant`]); the
    /// fleet controller rolls reports up under this label.
    pub tenant: String,
    /// Wall time from runtime start to shutdown completion.
    pub elapsed: Duration,
    /// Records scored across all shards.
    pub records_served: u64,
    /// Records per second of wall time.
    pub throughput_rps: f64,
    /// Median ingest→scored latency, nanoseconds.
    pub latency_p50_ns: u64,
    /// 95th-percentile latency, nanoseconds.
    pub latency_p95_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub latency_p99_ns: u64,
    /// Final counters of each shard's ingestion queue.
    pub shard_queues: Vec<QueueCounters>,
    /// Final counters of the trainer queue, when online training ran.
    pub trainer_queue: Option<QueueCounters>,
    /// Version of the model serving at shutdown (1 = never swapped).
    pub model_version: u64,
    /// Snapshot publications performed by the trainer.
    pub model_publishes: u64,
    /// The fault-tolerance outcome: restarts, quarantine, checkpoints.
    pub faults: FaultReport,
    /// Transport-boundary counters (all zero for in-process runs).
    pub wire: WireCounters,
    /// The rendered metrics registry at shutdown.
    pub metrics_text: String,
}

impl ServeReport {
    /// The accounting residue of the run. Zero means every record the
    /// queues accepted is explained: scored, quarantined to the
    /// dead-letter buffer, or shed by the backpressure policy
    /// (`pushed = scored + quarantined + dropped`). Non-zero means the
    /// runtime *lost* records — the failure mode this PR exists to
    /// make impossible, so tests and the `serve_sim --faults` smoke
    /// assert on it.
    ///
    /// When an `occusense-wire` gateway fed the run, the identity
    /// extends across the transport boundary: every record *decoded*
    /// off the wire must be ingested, NACKed back (`RejectNewest`
    /// rejection) or shed at shutdown —
    /// `decoded = ingested + rejected + shed` — so a record cannot
    /// vanish between the socket and a shard queue either. Both
    /// residues are summed; in-process runs contribute zero wire
    /// residue.
    pub fn unaccounted_records(&self) -> i64 {
        let pushed: u64 = self.shard_queues.iter().map(|q| q.pushed).sum();
        let dropped: u64 = self.shard_queues.iter().map(|q| q.dropped).sum();
        let depth: u64 = self.shard_queues.iter().map(|q| q.depth).sum();
        let queue_residue = pushed as i64
            - (self.records_served + self.faults.poisoned_records + dropped + depth) as i64;
        let w = &self.wire;
        let wire_residue = w.records_decoded as i64
            - (w.records_ingested + w.records_rejected + w.records_shed) as i64;
        queue_residue + wire_residue
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.tenant.is_empty() {
            writeln!(f, "tenant: {}", self.tenant)?;
        }
        writeln!(
            f,
            "served {} records in {:.2?} — {:.0} records/s",
            self.records_served, self.elapsed, self.throughput_rps
        )?;
        writeln!(
            f,
            "latency p50 {:.1} µs · p95 {:.1} µs · p99 {:.1} µs",
            self.latency_p50_ns as f64 / 1e3,
            self.latency_p95_ns as f64 / 1e3,
            self.latency_p99_ns as f64 / 1e3
        )?;
        for (i, q) in self.shard_queues.iter().enumerate() {
            writeln!(
                f,
                "shard {i}: pushed {} dropped {} rejected {} high-watermark {} restarts {}",
                q.pushed,
                q.dropped,
                q.rejected,
                q.high_watermark,
                self.faults.shard_restarts.get(i).copied().unwrap_or(0)
            )?;
        }
        if let Some(t) = &self.trainer_queue {
            writeln!(
                f,
                "trainer: consumed {} dropped {} · {} snapshot publishes · serving v{} · restarts {}",
                t.popped,
                t.dropped,
                self.model_publishes,
                self.model_version,
                self.faults.trainer_restarts
            )?;
        }
        let fr = &self.faults;
        if fr.poisoned_records > 0 || fr.uncontained_panics > 0 || !fr.panics.is_empty() {
            writeln!(
                f,
                "faults: {} poisoned records (dead-letter {} held, {} evicted) · {} supervised panics · {} uncontained",
                fr.poisoned_records,
                fr.dead_letters.len(),
                fr.dead_letters_evicted,
                fr.panics.len(),
                fr.uncontained_panics
            )?;
        }
        if fr.checkpoints_written > 0 || fr.checkpoint_failures > 0 {
            writeln!(
                f,
                "checkpoints: {} written, {} failed",
                fr.checkpoints_written, fr.checkpoint_failures
            )?;
        }
        if self.wire.any_traffic() {
            let w = &self.wire;
            writeln!(
                f,
                "wire: {} connections · {} frames · {} records decoded ({} ingested, {} nacked, {} shed, {} malformed frames)",
                w.connections,
                w.frames_received,
                w.records_decoded,
                w.records_ingested,
                w.records_rejected,
                w.records_shed,
                w.malformed_frames
            )?;
            writeln!(
                f,
                "wire: {} predictions routed, {} delivered, {} unrouted · {} transport timeouts",
                w.predictions_routed,
                w.predictions_sent,
                w.predictions_unrouted,
                fr.transport_timeouts
            )?;
            if w.connection_panics > 0 || w.lock_recoveries > 0 || w.thread_panics > 0 {
                writeln!(
                    f,
                    "wire: {} connection panics contained · {} lock recoveries · {} thread panics",
                    w.connection_panics, w.lock_recoveries, w.thread_panics
                )?;
            }
        }
        writeln!(f, "unaccounted records: {}", self.unaccounted_records())?;
        Ok(())
    }
}

/// The running service: supervised worker shards, optional trainer,
/// live metrics, dead-letter quarantine and crash-safe checkpoints.
///
/// Dropping the runtime without calling [`shutdown`](Self::shutdown)
/// also drains and joins every thread (so tests and panics never leak
/// threads), but `shutdown` is the intended path since it returns the
/// [`ServeReport`].
#[derive(Debug)]
pub struct ServeRuntime {
    shards: Vec<Arc<BoundedQueue<Job>>>,
    workers: Vec<JoinHandle<()>>,
    trainer_queue: Option<Arc<BoundedQueue<LabelledRecord>>>,
    trainer: Option<JoinHandle<()>>,
    model: Arc<ModelHandle>,
    states: Option<Arc<StateTable>>,
    metrics: Arc<MetricsRegistry>,
    supervision: Arc<SupervisorState>,
    checkpoint: Option<CheckpointConfig>,
    tenant: String,
    uncontained_panics: Mutex<Vec<String>>,
    started_at: Instant,
    stopped: AtomicBool,
}

impl ServeRuntime {
    /// Boots the runtime around an offline-trained detector and
    /// returns it together with the channel scored records arrive on.
    /// (A caller that wants predictions delivered elsewhere installs
    /// its own sink with [`start_with_sink`](Self::start_with_sink).)
    ///
    /// # Errors
    ///
    /// [`ServeError::ZeroShards`] / [`ServeError::ZeroBatch`] for an
    /// empty topology or batch size,
    /// [`ServeError::OnlineRequiresMlp`] when online training is
    /// requested for a non-MLP detector, and
    /// [`ServeError::CheckpointDir`] when the checkpoint directory
    /// cannot be created.
    pub fn start(
        detector: OccupancyDetector,
        config: ServeConfig,
    ) -> Result<(Self, mpsc::Receiver<Prediction>), ServeError> {
        Self::boot(ServedModel::Frame(detector), config)
    }

    /// Boots the runtime around a temporal (GRU) sequence model:
    /// workers keep one hidden row per sensor in a shared
    /// [`StateTable`] and score each batch as batched GRU steps.
    /// Swap models with [`publish_temporal`](Self::publish_temporal),
    /// drop a disconnected sensor's state with
    /// [`evict_sensor`](Self::evict_sensor).
    ///
    /// # Errors
    ///
    /// [`ServeError::ZeroShards`] / [`ServeError::ZeroBatch`] for an
    /// empty topology or batch size and
    /// [`ServeError::OnlineUnsupportedForTemporal`] when `config`
    /// enables the (frame-only) continual trainer.
    pub fn start_temporal(
        detector: TemporalDetector,
        config: ServeConfig,
    ) -> Result<(Self, mpsc::Receiver<Prediction>), ServeError> {
        Self::boot(ServedModel::Temporal(detector), config)
    }

    /// Both channel-fed boots: the channel's sender is the sink.
    fn boot(
        model: ServedModel,
        config: ServeConfig,
    ) -> Result<(Self, mpsc::Receiver<Prediction>), ServeError> {
        let (tx, rx) = mpsc::channel();
        let runtime = Self::start_with_sink(model, config, |_| Arc::new(tx))?;
        Ok((runtime, rx))
    }

    /// Boots the runtime around `boot_model` with every worker handing
    /// its flushes to the sink `make_sink` returns. `make_sink` runs
    /// once, before any worker starts, and sees the runtime's metrics
    /// registry so the sink can count into it.
    ///
    /// # Errors
    ///
    /// As [`start`](Self::start) and
    /// [`start_temporal`](Self::start_temporal), per model kind.
    pub fn start_with_sink(
        boot_model: ServedModel,
        config: ServeConfig,
        make_sink: impl FnOnce(&MetricsRegistry) -> Arc<dyn PredictionSink>,
    ) -> Result<Self, ServeError> {
        if config.n_shards == 0 {
            return Err(ServeError::ZeroShards);
        }
        if config.max_batch == 0 {
            return Err(ServeError::ZeroBatch);
        }
        // Validate the whole configuration before spawning anything,
        // so a refused start never leaks threads.
        let online = match (config.online, &boot_model) {
            (Some(online_cfg), ServedModel::Frame(detector)) => Some((
                online_cfg,
                OnlineDetector::from_detector(detector, online_cfg.online)
                    .ok_or(ServeError::OnlineRequiresMlp)?,
            )),
            (Some(_), ServedModel::Temporal(_)) => {
                return Err(ServeError::OnlineUnsupportedForTemporal)
            }
            (None, _) => None,
        };
        if let Some(ckpt) = &config.checkpoint {
            std::fs::create_dir_all(&ckpt.dir)
                .map_err(|e| ServeError::CheckpointDir(e.to_string()))?;
        }
        let states = match &boot_model {
            ServedModel::Temporal(_) => Some(Arc::new(StateTable::new(config.n_shards))),
            ServedModel::Frame(_) => None,
        };

        let metrics = Arc::new(MetricsRegistry::new());
        let supervision = Arc::new(SupervisorState::new(config.n_shards, &config.supervisor));
        let model = Arc::new(match boot_model {
            ServedModel::Frame(d) => ModelHandle::new(d),
            ServedModel::Temporal(t) => ModelHandle::new_temporal(t),
        });
        let sink = make_sink(&metrics);

        let trainer_queue = config.online.map(|online_cfg| {
            Arc::new(BoundedQueue::new(
                online_cfg.queue_capacity,
                BackpressurePolicy::DropOldest,
            ))
        });

        let worker_metrics = WorkerMetrics {
            records: metrics.counter("serve.records"),
            batches: metrics.counter("serve.batches"),
            restarts: metrics.counter("serve.restarts"),
            poisoned: metrics.counter("serve.poisoned_records"),
            state_resets: metrics.counter("serve.state_resets"),
            latency_ns: metrics.histogram("serve.latency_ns"),
            batch_size: metrics.histogram("serve.batch_size"),
            inference_ns: metrics.histogram("serve.inference_ns"),
        };

        let mut shards = Vec::with_capacity(config.n_shards);
        let mut workers = Vec::with_capacity(config.n_shards);
        for shard in 0..config.n_shards {
            let queue = Arc::new(BoundedQueue::new(config.queue_capacity, config.policy));
            shards.push(Arc::clone(&queue));
            let ctx = WorkerContext {
                shard,
                queue,
                model: Arc::clone(&model),
                max_batch: config.max_batch,
                sink: Arc::clone(&sink),
                trainer_queue: trainer_queue.clone(),
                metrics: worker_metrics.clone(),
                supervision: Arc::clone(&supervision),
                max_restarts: config.supervisor.max_restarts_per_shard,
                panic_on_trigger: config.supervisor.panic_on_trigger,
                states: states.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{shard}"))
                    .spawn(move || worker::run(ctx))
                    // lint:allow(panic, reason = "startup-only: thread spawn failure is unrecoverable resource exhaustion, before any record is accepted")
                    .expect("spawn worker"),
            );
        }

        let trainer = online.map(|(online_cfg, online)| {
            let ctx = TrainerContext {
                // lint:allow(panic, reason = "startup-only invariant: trainer_queue is Some exactly when online is Some, established a few lines above")
                queue: Arc::clone(trainer_queue.as_ref().expect("trainer queue")),
                model: Arc::clone(&model),
                online,
                online_config: online_cfg.online,
                publish_every_updates: online_cfg.publish_every_updates.max(1),
                checkpoint: config.checkpoint.clone(),
                observed: metrics.counter("trainer.observed"),
                steady_reallocs: metrics.counter("trainer.steady_reallocs"),
                publishes: metrics.counter("trainer.publishes"),
                restarts: metrics.counter("trainer.restarts"),
                checkpoints: metrics.counter("serve.checkpoints"),
                checkpoint_failures: metrics.counter("serve.checkpoint_failures"),
                supervision: Arc::clone(&supervision),
                max_restarts: config.supervisor.max_trainer_restarts,
                panic_on_trigger: config.supervisor.panic_on_trigger,
            };
            std::thread::Builder::new()
                .name("serve-trainer".into())
                .spawn(move || trainer::run(ctx))
                // lint:allow(panic, reason = "startup-only: thread spawn failure is unrecoverable resource exhaustion, before any record is accepted")
                .expect("spawn trainer")
        });

        Ok(Self {
            shards,
            workers,
            trainer_queue,
            trainer,
            model,
            states,
            metrics,
            supervision,
            checkpoint: config.checkpoint,
            tenant: config.tenant,
            uncontained_panics: Mutex::new(Vec::new()),
            started_at: Instant::now(),
            stopped: AtomicBool::new(false),
        })
    }

    /// An ingestion handle for one sensor; records submitted through it
    /// are hash-routed to a fixed shard.
    pub fn client(&self, sensor_id: &str) -> SensorClient {
        let shard = shard_for(sensor_id, self.shards.len());
        SensorClient {
            sensor_id: Arc::from(sensor_id),
            shard,
            // lint:allow(index, reason = "shard is shard_for(sensor_id) % shards.len(), in range by construction")
            queue: Arc::clone(&self.shards[shard]),
            seq: 0,
        }
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The tenant label this runtime was configured with
    /// ([`ServeConfig::tenant`]; empty = the default namespace).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The version of the currently serving model.
    pub fn model_version(&self) -> u64 {
        self.model.version()
    }

    /// A clone of the currently serving frame detector — what a
    /// checkpoint written this instant would contain. `None` on a
    /// temporal runtime.
    pub fn current_detector(&self) -> Option<OccupancyDetector> {
        self.model.current().frame().cloned()
    }

    /// A clone of the currently serving temporal detector; `None` on a
    /// frame runtime.
    pub fn current_temporal(&self) -> Option<TemporalDetector> {
        self.model.current().temporal().cloned()
    }

    /// Hot-swaps the serving temporal model and returns the new
    /// version. Every sensor's hidden state is zero-reset the first
    /// time its shard scores against the new snapshot (counted in the
    /// `serve.state_resets` metric) — old activations are meaningless
    /// under new weights, so each sensor's sequence restarts cleanly.
    ///
    /// Only meaningful on a runtime booted with
    /// [`start_temporal`](Self::start_temporal); on a frame runtime
    /// the workers quarantine rather than score against the mismatched
    /// snapshot.
    pub fn publish_temporal(&self, detector: TemporalDetector) -> u64 {
        self.model.publish_temporal(detector)
    }

    /// Drops `sensor_id`'s carried hidden state (the disconnect path —
    /// the wire gateway calls this when a sensor's last connection
    /// closes). Returns whether a state existed; always `false` on a
    /// frame runtime. A sensor that reappears after eviction restarts
    /// from a zero state, exactly like a brand-new sensor.
    pub fn evict_sensor(&self, sensor_id: &str) -> bool {
        let Some(states) = &self.states else {
            return false;
        };
        let evicted = states.evict(shard_for(sensor_id, self.shards.len()), sensor_id);
        if evicted {
            self.metrics.counter("serve.state_evictions").inc();
        }
        evicted
    }

    /// Number of sensors currently holding temporal hidden state
    /// (always 0 on a frame runtime).
    pub fn active_sensor_states(&self) -> usize {
        self.states.as_ref().map_or(0, |s| s.active_sensors())
    }

    /// Live counters of every shard queue, in shard order.
    pub fn shard_counters(&self) -> Vec<QueueCounters> {
        self.shards.iter().map(|q| q.counters()).collect()
    }

    /// Live supervised-restart count of every shard, in shard order.
    pub fn shard_restarts(&self) -> Vec<u64> {
        self.supervision.shard_restarts()
    }

    /// Renders the metrics registry after refreshing the queue-depth
    /// gauges — the runtime's live observability surface.
    pub fn metrics_snapshot(&self) -> String {
        for (i, q) in self.shards.iter().enumerate() {
            let c = q.counters();
            self.metrics
                .gauge(&format!("shard.{i}.depth"))
                .set(c.depth as i64);
            self.metrics
                .gauge(&format!("shard.{i}.dropped"))
                .set(c.dropped as i64);
            self.metrics
                .gauge(&format!("shard.{i}.rejected"))
                .set(c.rejected as i64);
            self.metrics
                .gauge(&format!("shard.{i}.high_watermark"))
                .set(c.high_watermark as i64);
        }
        for (i, restarts) in self.supervision.shard_restarts().iter().enumerate() {
            self.metrics
                .gauge(&format!("shard.{i}.restarts"))
                .set(*restarts as i64);
        }
        self.metrics
            .gauge("supervisor.dead_letter_depth")
            .set(self.supervision.dead_letter.depth() as i64);
        self.metrics
            .gauge("supervisor.dead_letter_total")
            .set(self.supervision.dead_letter.total() as i64);
        if let Some(t) = &self.trainer_queue {
            let c = t.counters();
            self.metrics
                .gauge("trainer.queue_depth")
                .set(c.depth as i64);
            self.metrics
                .gauge("trainer.queue_dropped")
                .set(c.dropped as i64);
        }
        self.metrics
            .gauge("model.version")
            .set(self.model.version() as i64);
        if let Some(states) = &self.states {
            self.metrics
                .gauge("serve.active_sensor_states")
                .set(states.active_sensors() as i64);
        }
        self.metrics.render()
    }

    /// Graceful drain: closes ingestion, lets every worker flush its
    /// remaining batch, stops the trainer after it has consumed what
    /// the workers teed off, joins all threads (inspecting every join
    /// for escaped panics), writes the final checkpoint, and reports.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_threads();
        let elapsed = self.started_at.elapsed();
        let latency = self.metrics.histogram("serve.latency_ns");
        let records_served = self.metrics.counter("serve.records").get();
        let uncontained = self
            .uncontained_panics
            .lock()
            // lint:allow(panic, reason = "poison propagation: shutdown-path bookkeeping; a poisoned join log means the report is already untrustworthy")
            .expect("join log poisoned")
            .clone();
        let faults = FaultReport {
            shard_restarts: self.supervision.shard_restarts(),
            trainer_restarts: self.supervision.trainer_restarts(),
            poisoned_records: self.metrics.counter("serve.poisoned_records").get(),
            trainer_poisoned: self.supervision.trainer_poisoned(),
            dead_letters_evicted: self.supervision.dead_letter.evicted(),
            dead_letters: self.supervision.dead_letter.snapshot(),
            panics: {
                let mut all = self.supervision.panic_log();
                all.extend(uncontained.iter().cloned());
                all
            },
            uncontained_panics: uncontained.len() as u64,
            checkpoints_written: self.metrics.counter("serve.checkpoints").get(),
            checkpoint_failures: self.metrics.counter("serve.checkpoint_failures").get(),
            transport_rejections: self.metrics.counter(wire_stats::RECORDS_REJECTED).get(),
            transport_timeouts: self.metrics.counter(wire_stats::TRANSPORT_TIMEOUTS).get(),
            connection_panics: self.metrics.counter(wire_stats::CONNECTION_PANICS).get(),
        };
        let wire = WireCounters {
            connections: self.metrics.counter(wire_stats::CONNECTIONS).get(),
            frames_received: self.metrics.counter(wire_stats::FRAMES_RECEIVED).get(),
            records_decoded: self.metrics.counter(wire_stats::RECORDS_DECODED).get(),
            records_ingested: self.metrics.counter(wire_stats::RECORDS_INGESTED).get(),
            records_rejected: self.metrics.counter(wire_stats::RECORDS_REJECTED).get(),
            records_shed: self.metrics.counter(wire_stats::RECORDS_SHED).get(),
            malformed_frames: self.metrics.counter(wire_stats::MALFORMED_FRAMES).get(),
            predictions_routed: self.metrics.counter(wire_stats::PREDICTIONS_ROUTED).get(),
            predictions_sent: self.metrics.counter(wire_stats::PREDICTIONS_SENT).get(),
            predictions_unrouted: self.metrics.counter(wire_stats::PREDICTIONS_UNROUTED).get(),
            connection_panics: self.metrics.counter(wire_stats::CONNECTION_PANICS).get(),
            lock_recoveries: self.metrics.counter(wire_stats::LOCK_RECOVERIES).get(),
            thread_panics: self.metrics.counter(wire_stats::THREAD_PANICS).get(),
        };
        ServeReport {
            tenant: self.tenant.clone(),
            elapsed,
            records_served,
            throughput_rps: records_served as f64 / elapsed.as_secs_f64().max(1e-9),
            latency_p50_ns: latency.p50(),
            latency_p95_ns: latency.p95(),
            latency_p99_ns: latency.p99(),
            shard_queues: self.shard_counters(),
            trainer_queue: self.trainer_queue.as_ref().map(|q| q.counters()),
            model_version: self.model.version(),
            model_publishes: self.metrics.counter("trainer.publishes").get(),
            faults,
            wire,
            metrics_text: self.metrics_snapshot(),
        }
    }

    fn stop_threads(&mut self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        // 1. Stop ingestion; workers drain their queues, flush partial
        //    batches and exit. Join results are inspected: a panic that
        //    escaped supervision must surface, never be discarded.
        for q in &self.shards {
            q.close();
        }
        let workers = std::mem::take(&mut self.workers);
        for (shard, w) in workers.into_iter().enumerate() {
            if let Err(payload) = w.join() {
                self.record_uncontained(format!(
                    "worker {shard} died uncontained: {}",
                    panic_message(payload.as_ref())
                ));
            }
        }
        // 2. Only then stop the trainer, so every labelled record the
        //    workers teed off is still consumed before the final
        //    snapshot publication.
        if let Some(q) = &self.trainer_queue {
            q.close();
        }
        if let Some(t) = self.trainer.take() {
            if let Err(payload) = t.join() {
                self.record_uncontained(format!(
                    "trainer died uncontained: {}",
                    panic_message(payload.as_ref())
                ));
            }
        }
        // 3. Final on-shutdown checkpoint of whatever is serving now —
        //    after the trainer's last publish, so a restarted runtime
        //    resumes from exactly this model. Frame and temporal
        //    snapshots use distinct checkpoint families
        //    (`detector-v*` / `temporal-v*`), both checksummed and
        //    written atomically.
        if let Some(cfg) = &self.checkpoint {
            let snapshot = self.model.current();
            let outcome = match &snapshot.model {
                ServedModel::Frame(detector) => persist::save_detector_atomic(
                    &persist::checkpoint_path(&cfg.dir, snapshot.version),
                    detector,
                )
                .map(|()| persist::prune_checkpoints(&cfg.dir, cfg.keep)),
                ServedModel::Temporal(temporal) => persist::save_temporal_atomic(
                    &persist::temporal_checkpoint_path(&cfg.dir, snapshot.version),
                    temporal,
                )
                .map(|()| persist::prune_temporal_checkpoints(&cfg.dir, cfg.keep)),
            };
            match outcome {
                Ok(_pruned) => {
                    self.metrics.counter("serve.checkpoints").inc();
                }
                Err(e) => {
                    self.metrics.counter("serve.checkpoint_failures").inc();
                    self.supervision.log_panic(format!(
                        "final checkpoint v{} failed: {e}",
                        snapshot.version
                    ));
                }
            }
        }
    }

    fn record_uncontained(&self, message: String) {
        self.uncontained_panics
            .lock()
            // lint:allow(panic, reason = "poison propagation: shutdown-path bookkeeping; a poisoned join log means the report is already untrustworthy")
            .expect("join log poisoned")
            .push(message);
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_core::detector::{DetectorConfig, ModelKind};
    use occusense_core::temporal::{TemporalConfig, TemporalDetector};
    use occusense_sim::{simulate, ScenarioConfig};
    use std::collections::BTreeMap;

    fn tiny_temporal(seed: u64) -> (TemporalDetector, occusense_dataset::Dataset) {
        let ds = simulate(&ScenarioConfig::quick(600.0, seed));
        let temporal = TemporalDetector::train(
            &ds,
            &TemporalConfig {
                window: 8,
                stride: 4,
                hidden: 8,
                epochs: 1,
                seed,
                ..TemporalConfig::default()
            },
        );
        (temporal, ds)
    }

    fn temporal_config() -> ServeConfig {
        ServeConfig {
            n_shards: 2,
            policy: BackpressurePolicy::Block,
            online: None,
            max_batch: 8,
            ..ServeConfig::default()
        }
    }

    fn recv_n(rx: &mpsc::Receiver<Prediction>, n: usize) -> Vec<Prediction> {
        (0..n)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(20))
                    .expect("prediction within the deadline")
            })
            .collect()
    }

    #[test]
    fn empty_topology_or_batch_size_is_refused() {
        let (temporal, _) = tiny_temporal(29);
        for (config, want) in [
            (
                ServeConfig {
                    n_shards: 0,
                    ..temporal_config()
                },
                ServeError::ZeroShards,
            ),
            (
                ServeConfig {
                    max_batch: 0,
                    ..temporal_config()
                },
                ServeError::ZeroBatch,
            ),
        ] {
            let got = ServeRuntime::start_temporal(temporal.clone(), config).err();
            assert_eq!(got, Some(want));
        }
    }

    #[test]
    fn temporal_serving_matches_solo_streams_bitwise() {
        let (temporal, ds) = tiny_temporal(31);
        let per = 60usize;
        let streams: Vec<&[CsiRecord]> = (0..3)
            .map(|i| &ds.records()[i * per..(i + 1) * per])
            .collect();
        let (rt, rx) = ServeRuntime::start_temporal(temporal.clone(), temporal_config()).unwrap();
        let mut clients: Vec<SensorClient> =
            (0..3).map(|i| rt.client(&format!("sensor-{i}"))).collect();
        // Interleave the three sensors record-by-record so flushes mix
        // them into shared batches — the invariant under test is that
        // this multiplexing is bitwise invisible.
        for r in 0..per {
            for (client, stream) in clients.iter_mut().zip(&streams) {
                client.submit(stream[r]).unwrap();
            }
        }
        let report = rt.shutdown();
        assert_eq!(report.unaccounted_records(), 0);
        assert_eq!(report.records_served, (3 * per) as u64);
        let mut by_sensor: BTreeMap<String, Vec<Prediction>> = BTreeMap::new();
        for p in rx.iter() {
            by_sensor
                .entry(p.sensor_id.to_string())
                .or_default()
                .push(p);
        }
        for (i, stream) in streams.iter().enumerate() {
            let mut got = by_sensor.remove(&format!("sensor-{i}")).unwrap();
            got.sort_by_key(|p| p.seq);
            let expected = temporal.score_stream(stream);
            assert_eq!(got.len(), expected.len());
            for (p, (_, solo)) in got.iter().zip(&expected) {
                assert_eq!(
                    p.proba.to_bits(),
                    solo.to_bits(),
                    "sensor {i} seq {}: batched != solo",
                    p.seq
                );
                assert_eq!(p.model_version, 1);
            }
        }
    }

    #[test]
    fn hot_swap_zero_resets_state_and_stamps_versions() {
        let (t1, ds) = tiny_temporal(41);
        let (t2, _) = tiny_temporal(43);
        let records = &ds.records()[..100];
        let (rt, rx) = ServeRuntime::start_temporal(t1.clone(), temporal_config()).unwrap();
        let mut client = rt.client("sensor-a");
        for r in &records[..50] {
            client.submit(*r).unwrap();
        }
        let mut got = recv_n(&rx, 50);
        assert_eq!(rt.metrics().counter("serve.state_resets").get(), 0);
        assert_eq!(rt.publish_temporal(t2.clone()), 2);
        for r in &records[50..] {
            client.submit(*r).unwrap();
        }
        got.extend(recv_n(&rx, 50));
        assert_eq!(
            rt.metrics().counter("serve.state_resets").get(),
            1,
            "exactly one zero reset at the first post-swap flush"
        );
        let report = rt.shutdown();
        assert_eq!(report.unaccounted_records(), 0);
        got.sort_by_key(|p| p.seq);
        // Before the swap: v1 from a zero state. After: v2 from a
        // fresh zero state — the old hidden row must not leak through.
        let before = t1.score_stream(&records[..50]);
        let after = t2.score_stream(&records[50..]);
        for (p, (_, solo)) in got.iter().take(50).zip(&before) {
            assert_eq!(p.model_version, 1);
            assert_eq!(p.proba.to_bits(), solo.to_bits(), "pre-swap seq {}", p.seq);
        }
        for (p, (_, solo)) in got.iter().skip(50).zip(&after) {
            assert_eq!(p.model_version, 2);
            assert_eq!(p.proba.to_bits(), solo.to_bits(), "post-swap seq {}", p.seq);
        }
    }

    #[test]
    fn evicting_a_sensor_restarts_its_stream_from_zero() {
        let (temporal, ds) = tiny_temporal(37);
        let records = &ds.records()[..120];
        let (rt, rx) = ServeRuntime::start_temporal(temporal.clone(), temporal_config()).unwrap();
        let mut client = rt.client("sensor-a");
        for r in &records[..60] {
            client.submit(*r).unwrap();
        }
        let mut got = recv_n(&rx, 60);
        assert_eq!(rt.active_sensor_states(), 1);
        assert!(rt.evict_sensor("sensor-a"));
        assert!(!rt.evict_sensor("sensor-a"), "second evict finds nothing");
        assert_eq!(rt.active_sensor_states(), 0);
        assert_eq!(rt.metrics().counter("serve.state_evictions").get(), 1);
        for r in &records[60..] {
            client.submit(*r).unwrap();
        }
        got.extend(recv_n(&rx, 60));
        let report = rt.shutdown();
        assert_eq!(report.unaccounted_records(), 0);
        got.sort_by_key(|p| p.seq);
        let first = temporal.score_stream(&records[..60]);
        let second = temporal.score_stream(&records[60..]);
        for (p, (_, solo)) in got.iter().take(60).zip(&first) {
            assert_eq!(p.proba.to_bits(), solo.to_bits(), "pre-evict seq {}", p.seq);
        }
        for (p, (_, solo)) in got.iter().skip(60).zip(&second) {
            assert_eq!(
                p.proba.to_bits(),
                solo.to_bits(),
                "post-evict seq {} must restart from zero state",
                p.seq
            );
        }
    }

    #[test]
    fn start_temporal_refuses_online_training() {
        let (temporal, _) = tiny_temporal(29);
        match ServeRuntime::start_temporal(temporal, ServeConfig::default()) {
            Err(ServeError::OnlineUnsupportedForTemporal) => {}
            Ok(_) => panic!("online training must be refused for temporal models"),
            Err(other) => panic!("wrong refusal: {other}"),
        }
    }

    #[test]
    fn continual_training_loop_is_allocation_free_after_warmup() {
        // The trainer thread holds one warm OnlineDetector workspace
        // for the whole run; once two gradient steps have sized it,
        // the observe→train-batch loop must never grow a buffer again.
        let ds = simulate(&ScenarioConfig::quick(1600.0, 47));
        let frame = OccupancyDetector::train(
            &ds,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 1,
                ..DetectorConfig::default()
            },
        );
        let config = ServeConfig {
            n_shards: 1,
            ..ServeConfig::default()
        };
        let batch = OnlineTrainingConfig::default().online.batch_size;
        let (rt, rx) = ServeRuntime::start(frame, config).unwrap();
        let steady_reallocs = rt.metrics().counter("trainer.steady_reallocs");
        let observed = rt.metrics().counter("trainer.observed");
        let mut client = rt.client("sensor-a");
        for r in ds.records().iter().take(8 * batch) {
            client.submit_labelled(*r, r.occupancy()).unwrap();
        }
        let report = rt.shutdown();
        drop(rx);
        assert_eq!(report.unaccounted_records(), 0);
        // Every labelled record reached the trainer (capacity 4096 >>
        // what we submitted), so 8 full batches trained: warm-up (2
        // updates) plus six steady-state gradient steps.
        assert_eq!(observed.get(), (8 * batch) as u64);
        assert!(report.model_publishes >= 3, "trainer barely ran");
        assert_eq!(
            steady_reallocs.get(),
            0,
            "continual training grew a buffer after warm-up"
        );
    }

    #[test]
    fn temporal_publish_on_frame_runtime_quarantines_cleanly() {
        let ds = simulate(&ScenarioConfig::quick(400.0, 11));
        let frame = OccupancyDetector::train(
            &ds,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 1,
                ..DetectorConfig::default()
            },
        );
        let (temporal, _) = tiny_temporal(13);
        let config = ServeConfig {
            online: None,
            ..temporal_config()
        };
        let (rt, _rx) = ServeRuntime::start(frame, config).unwrap();
        rt.publish_temporal(temporal);
        let mut client = rt.client("sensor-a");
        for r in &ds.records()[..10] {
            client.submit(*r).unwrap();
        }
        let report = rt.shutdown();
        // A frame runtime has no state table: the mismatched batches
        // are quarantined, never scored — and still fully accounted.
        assert_eq!(report.records_served, 0);
        assert_eq!(report.faults.poisoned_records, 10);
        assert_eq!(report.unaccounted_records(), 0);
    }

    #[test]
    fn temporal_shutdown_checkpoint_resumes_bitwise() {
        let (temporal, ds) = tiny_temporal(47);
        let dir = std::env::temp_dir().join(format!(
            "occusense-serve-temporal-ckpt-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            checkpoint: Some(CheckpointConfig::new(&dir)),
            ..temporal_config()
        };
        let (rt, _rx) = ServeRuntime::start_temporal(temporal.clone(), config).unwrap();
        let mut client = rt.client("sensor-a");
        for r in &ds.records()[..20] {
            client.submit(*r).unwrap();
        }
        let report = rt.shutdown();
        assert_eq!(report.faults.checkpoints_written, 1);
        let (version, _path, loaded) = persist::load_latest_temporal(&dir)
            .unwrap()
            .expect("a temporal checkpoint");
        assert_eq!(version, 1);
        assert_eq!(loaded, temporal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
