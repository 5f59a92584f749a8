//! The worker shard: dequeue whatever is queued → one batched
//! forward, supervised against panics.
//!
//! Batching is work-conserving: the worker parks until at least one
//! job is queued, takes everything waiting (up to `max_batch`) under
//! one queue lock, scores it, and repeats. Batch size follows load —
//! one record when the shard is idle, `max_batch` when it is behind —
//! and no record ever waits for company, so the loop needs no timer.
//!
//! Each worker owns its queue end and scores against an immutable
//! model snapshot re-read *between* batches (never mid-batch), so the
//! inference path shares no locks with other shards and a hot swap is
//! a single `Arc` re-read away.
//!
//! The batch loop runs under `catch_unwind`: a panic while scoring
//! quarantines the in-flight batch into the dead-letter buffer, bumps
//! the shard's restart counter and resumes the loop on the *same*
//! queue — per-sensor ordering and the queue's exact counters survive
//! the fault. Past `max_restarts_per_shard` the shard fails closed:
//! it closes its queue (producers see `SubmitError::Shutdown`) and
//! quarantines the remnant so every accepted record stays accounted.

use crate::metrics::{Counter, Histogram};
use crate::model::{ModelHandle, ServedModel};
use crate::queue::BoundedQueue;
use crate::state::{SensorState, StateTable};
use crate::supervisor::{is_scorable, panic_message, SupervisorState};
use crate::trainer::LabelledRecord;
use occusense_core::detector::ScoreWorkspace;
use occusense_core::temporal::{TemporalDetector, TemporalWorkspace};
use occusense_core::tensor::Matrix;
use occusense_dataset::CsiRecord;
use occusense_sim::stream::is_worker_panic_trigger;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One record travelling through the runtime.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub sensor_id: Arc<str>,
    pub seq: u64,
    pub record: CsiRecord,
    pub label: Option<u8>,
    pub enqueued_at: Instant,
}

/// The scored output for one ingested record.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The sensor the record came from.
    pub sensor_id: Arc<str>,
    /// Per-sensor ingestion sequence number (0-based).
    pub seq: u64,
    /// The record's scenario timestamp.
    pub timestamp_s: f64,
    /// Predicted binary occupancy.
    pub occupied: u8,
    /// Positive-class probability.
    pub proba: f64,
    /// Version of the model snapshot that scored the record.
    pub model_version: u64,
    /// Queue + batching + inference time, ingest to scored.
    pub latency: Duration,
}

/// Where workers hand their scored predictions: one
/// [`deliver`](Self::deliver) call per flush, from the scoring thread
/// itself, so no thread hop sits between a score and its consumer.
///
/// The runtime's own channel face is the [`mpsc::Sender`] impl; the
/// wire gateway installs a sink that pushes each sensor's run straight
/// into its connection's outbound queue.
pub trait PredictionSink: Send + Sync {
    /// Takes one flush's predictions in scoring order. The worker
    /// reuses the vector's capacity, so implementations drain it
    /// rather than keep it. A sink may park (e.g. on a full `Block`
    /// queue); that stalls only the calling shard.
    fn deliver(&self, batch: &mut Vec<Prediction>);
}

impl PredictionSink for mpsc::Sender<Prediction> {
    fn deliver(&self, batch: &mut Vec<Prediction>) {
        for p in batch.drain(..) {
            // A dropped receiver means the caller does not want
            // predictions; serving (and metrics) continue regardless.
            // lint:allow(swallow, reason = "send fails only when the receiver is dropped, which is the caller opting out of predictions; records/latency metrics still account the work")
            let _ = self.send(p);
        }
    }
}

/// Shared instruments every worker updates lock-free.
#[derive(Debug, Clone)]
pub(crate) struct WorkerMetrics {
    pub records: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub restarts: Arc<Counter>,
    pub poisoned: Arc<Counter>,
    pub state_resets: Arc<Counter>,
    pub latency_ns: Arc<Histogram>,
    pub batch_size: Arc<Histogram>,
    pub inference_ns: Arc<Histogram>,
}

/// Everything one worker thread needs.
pub(crate) struct WorkerContext {
    pub shard: usize,
    pub queue: Arc<BoundedQueue<Job>>,
    pub model: Arc<ModelHandle>,
    /// Most jobs one flush scores.
    pub max_batch: usize,
    pub sink: Arc<dyn PredictionSink>,
    pub trainer_queue: Option<Arc<BoundedQueue<LabelledRecord>>>,
    pub metrics: WorkerMetrics,
    pub supervision: Arc<SupervisorState>,
    pub max_restarts: u64,
    pub panic_on_trigger: bool,
    /// `Some` when the runtime serves a temporal model: this shard's
    /// per-sensor hidden rows live in here.
    pub states: Option<Arc<StateTable>>,
}

/// Per-worker reusable scoring buffers: the record gather, the design
/// matrix, the MLP forward workspace, the probability vector and the
/// outgoing predictions all keep their capacity across flushes, so a
/// steady stream of batches is scored and fanned out without heap
/// allocations.
struct ScoreBuffers {
    records: Vec<CsiRecord>,
    probas: Vec<f64>,
    predictions: Vec<Prediction>,
    ws: ScoreWorkspace,
    temporal: Option<TemporalBuffers>,
}

/// Reusable scratch of the temporal (stateful GRU) scoring path: the
/// per-round record gather, batch-position map, hidden-row matrix and
/// the GRU/head workspaces all keep their capacity across flushes.
struct TemporalBuffers {
    ws: TemporalWorkspace,
    /// Hidden rows of the sensors active in the current round.
    h: Matrix,
    /// Current-round records, one per active sensor.
    records: Vec<CsiRecord>,
    /// `positions[r]` = index into the flush batch of round-row `r`.
    positions: Vec<usize>,
    /// Presence probabilities of the current round's rows.
    step_probas: Vec<f64>,
}

impl ScoreBuffers {
    fn new(ctx: &WorkerContext) -> Self {
        Self {
            records: Vec::new(),
            probas: Vec::new(),
            predictions: Vec::new(),
            ws: ScoreWorkspace::new(),
            temporal: ctx.states.as_ref().map(|_| TemporalBuffers {
                ws: TemporalWorkspace::new(),
                h: Matrix::zeros(0, 0),
                records: Vec::new(),
                positions: Vec::new(),
                step_probas: Vec::new(),
            }),
        }
    }
}

impl WorkerContext {
    fn quarantine(&self, jobs: Vec<Job>, reason: &str) {
        let n = self.supervision.quarantine(self.shard, jobs, reason);
        self.metrics.poisoned.add(n);
    }
}

/// The supervision loop around the batch-scoring loop. Runs until the
/// queue is closed and drained, surviving up to `max_restarts` panics.
pub(crate) fn run(ctx: WorkerContext) {
    // The batch lives *outside* the unwind boundary: jobs move from the
    // queue straight into `in_flight` and leave it only once scored, so
    // a panic anywhere between the pop and the fan-out cannot lose a
    // record. Its capacity is recycled across flushes.
    let in_flight: RefCell<Vec<Job>> = RefCell::new(Vec::new());
    // Scoring buffers also live outside the unwind boundary: a restart
    // keeps the warmed capacity (every flush overwrites them whole, so
    // no stale state can leak across a panic).
    let buffers = RefCell::new(ScoreBuffers::new(&ctx));
    loop {
        match catch_unwind(AssertUnwindSafe(|| batch_loop(&ctx, &in_flight, &buffers))) {
            Ok(()) => return, // queue closed and fully drained
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let batch = std::mem::take(&mut *in_flight.borrow_mut());
                if !batch.is_empty() {
                    ctx.quarantine(batch, &format!("worker panic: {message}"));
                }
                let restarts = ctx.supervision.record_shard_panic(ctx.shard, &message);
                ctx.metrics.restarts.inc();
                if restarts > ctx.max_restarts {
                    fail_shard(&ctx);
                    return;
                }
                // Respawn: next iteration re-enters the batch loop on
                // the same queue.
            }
        }
    }
}

/// Permanent failure past the restart limit: stop ingestion and
/// quarantine everything still queued, so the accounting identity
/// `pushed = scored + quarantined + dropped` holds even here.
fn fail_shard(ctx: &WorkerContext) {
    ctx.queue.close();
    let mut remnant = Vec::new();
    while ctx.queue.pop_batch(usize::MAX, &mut remnant) {}
    if !remnant.is_empty() {
        ctx.quarantine(remnant, "shard failed: restart limit exceeded");
    }
}

/// The batch-scoring loop (the unwind-protected region): take
/// whatever is queued, score it, repeat until the queue is closed and
/// drained.
fn batch_loop(ctx: &WorkerContext, in_flight: &RefCell<Vec<Job>>, buffers: &RefCell<ScoreBuffers>) {
    while ctx
        .queue
        .pop_batch(ctx.max_batch, &mut in_flight.borrow_mut())
    {
        flush(ctx, in_flight, buffers);
    }
}

/// Scores the batch parked in `in_flight` with a single batched
/// forward pass and fans the results out — one `deliver` to the
/// prediction sink, and (labelled records only) the trainer queue. Non-finite records
/// are split out and quarantined first — a clean batch is scored in
/// place, with no allocation. The batch stays parked until the
/// forward pass succeeds, so the supervisor can quarantine it if the
/// pass panics.
fn flush(ctx: &WorkerContext, in_flight: &RefCell<Vec<Job>>, buffers: &RefCell<ScoreBuffers>) {
    let poisoned: Vec<Job> = in_flight
        .borrow_mut()
        .extract_if(.., |job| !is_scorable(&job.record))
        .collect();
    if !poisoned.is_empty() {
        ctx.quarantine(poisoned, "non-finite input record");
    }
    if in_flight.borrow().is_empty() {
        return;
    }

    let snapshot = ctx.model.current();
    let infer_start = Instant::now();
    match &snapshot.model {
        ServedModel::Frame(detector) => {
            // lint:no_alloc
            {
                let batch = in_flight.borrow();
                if ctx.panic_on_trigger && batch.iter().any(|j| is_worker_panic_trigger(&j.record))
                {
                    // lint:allow(panic, reason = "fault injection: this panic IS the feature under test; it exercises the supervisor's restart path")
                    panic!("fault injection: scripted worker panic trigger");
                }
                // One batched forward through the worker's reusable
                // buffers: records are scored in arrival order (each
                // output row depends only on its own input row, so
                // ordering cannot change scores) and steady-state
                // flushes allocate nothing.
                let ScoreBuffers {
                    records,
                    probas,
                    ws,
                    ..
                } = &mut *buffers.borrow_mut();
                records.clear();
                // lint:allow(alloc, reason = "extend into a cleared reusable buffer: capacity is retained across flushes, so steady state does not allocate")
                records.extend(batch.iter().map(|job| job.record));
                detector.predict_proba_slice_into(records, ws, probas);
            }
            // lint:end_no_alloc
        }
        ServedModel::Temporal(temporal) => {
            let scored = score_temporal(
                ctx,
                temporal,
                snapshot.version,
                &in_flight.borrow(),
                &mut buffers.borrow_mut(),
            );
            if !scored {
                // A temporal snapshot reached a worker without a state
                // table — a frame-mode runtime was handed a temporal
                // publish. Quarantining keeps the accounting identity
                // exact rather than scoring with fabricated state.
                let batch = std::mem::take(&mut *in_flight.borrow_mut());
                ctx.quarantine(batch, "temporal snapshot on a runtime without sensor state");
                return;
            }
        }
    }
    ctx.metrics
        .inference_ns
        .record(infer_start.elapsed().as_nanos() as u64);
    ctx.metrics.batches.inc();

    // The forward pass succeeded: the batch is no longer at risk, so
    // it drains out of `in_flight` (keeping the buffer's capacity).
    let mut batch = in_flight.borrow_mut();
    let scored = batch.len() as u64;
    ctx.metrics.batch_size.record(scored);
    let scored_at = Instant::now();
    // lint:no_alloc
    {
        let ScoreBuffers {
            probas,
            predictions,
            ..
        } = &mut *buffers.borrow_mut();
        predictions.clear();
        for (job, &proba) in batch.drain(..).zip(probas.iter()) {
            let latency = scored_at.duration_since(job.enqueued_at);
            ctx.metrics.latency_ns.record(latency.as_nanos() as u64);
            if let (Some(trainer), Some(label)) = (&ctx.trainer_queue, job.label) {
                // lint:allow-region(alloc, reason = "a bounded queue's VecDeque is preallocated to its capacity, so this push never grows it")
                // The trainer queue sheds (DropOldest) rather than ever
                // stalling the inference path; losses show in its counters.
                // lint:allow(swallow, reason = "shedding is the contract: DropOldest records every loss in the trainer queue's dropped counter, which the report surfaces")
                let _ = trainer.push(LabelledRecord {
                    record: job.record,
                    label,
                });
                // lint:end-region(alloc)
            }
            // lint:allow(alloc, reason = "push into a cleared reusable buffer: capacity is retained across flushes, so steady state does not allocate")
            predictions.push(Prediction {
                sensor_id: job.sensor_id,
                seq: job.seq,
                timestamp_s: job.record.timestamp_s,
                occupied: u8::from(proba > 0.5),
                proba,
                model_version: snapshot.version,
                latency,
            });
        }
        ctx.metrics.records.add(scored);
        ctx.sink.deliver(predictions);
    }
    // lint:end_no_alloc
}

/// Stateful sequence scoring of one batch: records are grouped
/// per sensor (arrival order preserved within a sensor) and replayed
/// in *rounds* — round `r` takes each active sensor's `r`-th record,
/// gathers those sensors' hidden rows out of the shard's state table,
/// advances them all with **one** batched GRU step, and scatters the
/// updated rows back. Row independence of the kernels makes the
/// batched step bitwise identical to stepping each sensor alone, so
/// multiplexing sensors into shared batches never changes a score.
///
/// State lifecycle per the [`StateTable`] docs: first sight of a
/// sensor creates a zero row; a snapshot version (or hidden width)
/// mismatch zero-resets it — counted in `state_resets`, and visible to
/// replay verifiers through each prediction's `model_version`.
///
/// Fills `buffers.probas` aligned with `batch` (position
/// `i` = job `i`'s presence probability), so the caller's fan-out is
/// shared with the frame path. Returns `false` when the worker has no
/// state table (frame-mode runtime handed a temporal snapshot).
fn score_temporal(
    ctx: &WorkerContext,
    temporal: &TemporalDetector,
    version: u64,
    batch: &[Job],
    buffers: &mut ScoreBuffers,
) -> bool {
    let Some(table) = &ctx.states else {
        return false;
    };
    let ScoreBuffers {
        probas,
        temporal: bufs,
        ..
    } = buffers;
    let Some(bufs) = bufs else {
        return false;
    };
    let hidden = temporal.hidden_dim();
    probas.clear();
    probas.resize(batch.len(), 0.0);

    // Per-sensor batch positions, arrival order preserved within each
    // sensor (the queue is FIFO, so this is ascending client seq).
    let mut groups: BTreeMap<&Arc<str>, Vec<usize>> = BTreeMap::new();
    for (pos, job) in batch.iter().enumerate() {
        groups.entry(&job.sensor_id).or_default().push(pos);
    }

    // One state-lock hold per flush. `lock_shard` only returns `None`
    // for an out-of-range shard index, which `ctx.shard` never is.
    let Some((mut states, wiped)) = table.lock_shard(ctx.shard) else {
        return false;
    };
    if wiped > 0 {
        // A predecessor panicked mid-flush; the shard map was cleared
        // and every sensor on it restarts from zeros.
        ctx.metrics.state_resets.add(wiped as u64);
    }
    for sensor in groups.keys() {
        let state = states
            .entry(Arc::clone(sensor))
            .or_insert_with(|| SensorState {
                h: vec![0.0; hidden],
                model_version: version,
            });
        if state.model_version != version || state.h.len() != hidden {
            // Hot swap: hidden activations of the old weights mean
            // nothing under the new ones — restart the sequence.
            state.h.clear();
            state.h.resize(hidden, 0.0);
            state.model_version = version;
            ctx.metrics.state_resets.inc();
        }
    }

    let rounds = groups.values().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        bufs.records.clear();
        bufs.positions.clear();
        for positions in groups.values() {
            if let Some(&pos) = positions.get(round) {
                if let Some(job) = batch.get(pos) {
                    bufs.records.push(job.record);
                    bufs.positions.push(pos);
                }
            }
        }
        bufs.h.ensure_shape(bufs.records.len(), hidden);
        for (r, &pos) in bufs.positions.iter().enumerate() {
            if let Some(state) = batch
                .get(pos)
                .and_then(|job| states.get(job.sensor_id.as_ref()))
            {
                bufs.h.row_mut(r).copy_from_slice(&state.h);
            }
        }
        temporal.step_batch_into(
            &bufs.records,
            &mut bufs.h,
            &mut bufs.ws,
            &mut bufs.step_probas,
        );
        for (r, &pos) in bufs.positions.iter().enumerate() {
            if let Some(state) = batch
                .get(pos)
                .and_then(|job| states.get_mut(job.sensor_id.as_ref()))
            {
                state.h.copy_from_slice(bufs.h.row(r));
            }
            if let (Some(slot), Some(&p)) = (probas.get_mut(pos), bufs.step_probas.get(r)) {
                *slot = p;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::queue::BackpressurePolicy;
    use crate::supervisor::SupervisorConfig;
    use occusense_core::temporal::TemporalConfig;
    use occusense_sim::{simulate, ScenarioConfig};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    const SENSORS: usize = 3;
    const PER_SENSOR: usize = 12;
    const MAX_BATCH: usize = 8;

    /// A small trained GRU and one record stream per sensor.
    fn fixture() -> &'static (TemporalDetector, Vec<Vec<CsiRecord>>) {
        static FIXTURE: OnceLock<(TemporalDetector, Vec<Vec<CsiRecord>>)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let ds = simulate(&ScenarioConfig::quick(600.0, 31));
            let temporal = TemporalDetector::train(
                &ds,
                &TemporalConfig {
                    window: 8,
                    stride: 4,
                    hidden: 8,
                    epochs: 1,
                    seed: 31,
                    ..TemporalConfig::default()
                },
            );
            let streams = ds
                .records()
                .chunks(PER_SENSOR)
                .take(SENSORS)
                .map(<[CsiRecord]>::to_vec)
                .collect();
            (temporal, streams)
        })
    }

    fn temporal_worker(temporal: &TemporalDetector) -> (WorkerContext, mpsc::Receiver<Prediction>) {
        let registry = MetricsRegistry::new();
        let (out, rx) = mpsc::channel();
        let ctx = WorkerContext {
            shard: 0,
            queue: Arc::new(BoundedQueue::new(1, BackpressurePolicy::Block)),
            model: Arc::new(ModelHandle::new_temporal(temporal.clone())),
            max_batch: MAX_BATCH,
            sink: Arc::new(out),
            trainer_queue: None,
            metrics: WorkerMetrics {
                records: registry.counter("records"),
                batches: registry.counter("batches"),
                restarts: registry.counter("restarts"),
                poisoned: registry.counter("poisoned"),
                state_resets: registry.counter("state_resets"),
                latency_ns: registry.histogram("latency_ns"),
                batch_size: registry.histogram("batch_size"),
                inference_ns: registry.histogram("inference_ns"),
            },
            supervision: Arc::new(SupervisorState::new(1, &SupervisorConfig::default())),
            max_restarts: 0,
            panic_on_trigger: false,
            states: Some(Arc::new(StateTable::new(1))),
        };
        (ctx, rx)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Work-conserving batching makes flush boundaries depend on
        /// load. Any interleaving of the sensor streams, cut into any
        /// consecutive chunks of 1..=max_batch jobs, must score every
        /// record and leave every hidden row bitwise equal to stepping
        /// each sensor alone.
        #[test]
        fn batch_boundaries_never_change_a_temporal_score(
            keys in prop::collection::vec(0u64..1_000, SENSORS * PER_SENSOR),
            chunks in prop::collection::vec(1usize..=MAX_BATCH, SENSORS * PER_SENSOR),
        ) {
            let (temporal, streams) = fixture();
            let sensors: Vec<Arc<str>> = (0..SENSORS).map(|i| Arc::from(format!("s{i}"))).collect();
            // Random keys order the sensor labels into an interleaving;
            // each sensor's own records stay in stream order.
            let mut order: Vec<usize> = (0..SENSORS * PER_SENSOR).collect();
            order.sort_by_key(|&i| keys[i]);
            let mut next = [0usize; SENSORS];
            let mut jobs = order.iter().map(|&i| {
                let sensor = i % SENSORS;
                let seq = next[sensor];
                next[sensor] += 1;
                Job {
                    sensor_id: Arc::clone(&sensors[sensor]),
                    seq: seq as u64,
                    record: streams[sensor][seq],
                    label: None,
                    enqueued_at: Instant::now(),
                }
            });

            let (ctx, rx) = temporal_worker(temporal);
            let in_flight = RefCell::new(Vec::new());
            let buffers = RefCell::new(ScoreBuffers::new(&ctx));
            for &size in &chunks {
                in_flight.borrow_mut().extend(jobs.by_ref().take(size));
                if in_flight.borrow().is_empty() {
                    break;
                }
                flush(&ctx, &in_flight, &buffers);
                prop_assert!(in_flight.borrow().is_empty());
            }

            let mut got: Vec<Vec<Prediction>> = vec![Vec::new(); SENSORS];
            for p in rx.try_iter() {
                let sensor = sensors.iter().position(|s| *s == p.sensor_id).unwrap();
                got[sensor].push(p);
            }
            let Some(table) = &ctx.states else { unreachable!() };
            let (states, wiped) = table.lock_shard(0).unwrap();
            prop_assert_eq!(wiped, 0);
            for (sensor, stream) in streams.iter().enumerate() {
                let solo = temporal.score_stream(stream);
                prop_assert_eq!(got[sensor].len(), solo.len());
                for (k, (p, (_, proba))) in got[sensor].iter().zip(&solo).enumerate() {
                    prop_assert_eq!(p.seq, k as u64);
                    prop_assert_eq!(p.proba.to_bits(), proba.to_bits());
                }
                let mut h = temporal.zero_state(1);
                let mut ws = TemporalWorkspace::new();
                let mut probas = Vec::new();
                for r in stream {
                    temporal.step_batch_into(std::slice::from_ref(r), &mut h, &mut ws, &mut probas);
                }
                let carried = &states[sensors[sensor].as_ref()].h;
                let carried: Vec<u64> = carried.iter().map(|v| v.to_bits()).collect();
                let alone: Vec<u64> = h.row(0).iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(carried, alone);
            }
        }
    }
}
