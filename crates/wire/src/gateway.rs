//! The gateway: N concurrent sensor connections feeding one
//! [`ServeRuntime`], predictions streaming back.
//!
//! # Threading model (DESIGN.md §10 has the diagram)
//!
//! * one **accept loop** pulls connections off the [`Acceptor`], flips
//!   each into its non-blocking [`PollConn`](crate::transport::PollConn)
//!   face and hands it round-robin to a reactor;
//! * a small pool of **reactor threads** ([`GatewayConfig::reactors`],
//!   default 1) owns every connection outright: each sweep retries
//!   stalled control frames, batch-pops the outbound queue into a
//!   per-connection write ring flushed with vectored writes, then
//!   reads and parses inbound bytes — `Record`/`Batch` records are
//!   decoded *zero-copy* out of the receive buffer
//!   ([`crate::codec::BatchView`]) and submitted through a
//!   [`SensorClient`] under the *client's* sequence numbers
//!   ([`SensorClient::try_submit_sequenced`]), so NACKs and
//!   predictions correlate at the sensor. A reactor never parks: a
//!   full shard queue pauses only that connection's ingress. A panic
//!   inside one connection's handler is contained to that connection
//!   (`wire.connection_panics`); its in-flight records are re-counted
//!   as shed so the accounting identity still closes;
//! * the runtime's **serve workers** deliver their own predictions:
//!   the gateway installs a [`PredictionSink`] through which each
//!   worker resolves a flush's same-sensor runs in the registry and
//!   pushes each run into the owning connection's outbound queue with
//!   one [`BoundedQueue::push_many`] — no thread hop on the way back;
//! * the bounded per-connection outbound queue is the slow-client
//!   boundary: its [`BackpressurePolicy`] decides whether a sensor
//!   that stops reading stalls its own shard's worker (`Block`), loses
//!   its oldest predictions (`DropOldest`) or its newest
//!   (`RejectNewest`).
//!
//! # Accounting
//!
//! The gateway increments the [`wire_stats`] counters on the runtime's
//! own [`MetricsRegistry`];
//! [`ServeRuntime::shutdown`] mirrors them into
//! [`ServeReport::wire`](occusense_serve::ServeReport) and
//! `FaultReport::{transport_rejections, transport_timeouts,
//! connection_panics}`, and `ServeReport::unaccounted_records()`
//! extends the serve identity across the wire:
//! `decoded = ingested + rejected + shed`. A record that made it off
//! the socket cannot vanish — it is scored, NACKed back, or counted
//! as shed (including records stranded by a contained connection
//! panic).

use crate::codec::{Frame, PredictionFrame};
use crate::frame::DEFAULT_MAX_PAYLOAD;
use crate::reactor::{reactor_loop, Injector, ReactorCtx};
use crate::transport::{Accepted, Acceptor};
use crate::WireError;
use occusense_core::detector::OccupancyDetector;
use occusense_core::temporal::TemporalDetector;
use occusense_serve::{
    wire_stats, BackpressurePolicy, BoundedQueue, Counter, MetricsRegistry, Prediction,
    PredictionSink, SensorClient, ServeConfig, ServeReport, ServeRuntime, ServedModel,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Gateway tuning knobs (transport-level knobs — timeouts, frame-size
/// ceilings — live on the transport configs instead).
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// How long a fresh connection may take to present its `Hello`
    /// before it is dropped (counted as a transport timeout).
    pub handshake_timeout: Duration,
    /// Capacity of each connection's outbound prediction queue.
    pub outbound_capacity: usize,
    /// Slow-client policy of the outbound queues. `DropOldest` (the
    /// default) keeps a stalled sensor from ever stalling scoring;
    /// `Block` is lossless and right for cooperative clients that
    /// always drain (e.g. `wire_storm --verify`): a client that stops
    /// reading parks only its own shard's worker on its full queue,
    /// and once that shard's ingest queue fills, only the connections
    /// routed to it pause their ingress. The reactor never parks, so
    /// sensors on other shards keep being served.
    pub outbound_policy: BackpressurePolicy,
    /// After a client's `Goodbye`, how long a connection may go
    /// without *progress* (new predictions delivered or shed) before
    /// the reactor gives up on draining its in-flight predictions.
    pub drain_grace: Duration,
    /// Number of reactor threads connections are sharded across.
    /// Values `< 1` are treated as 1.
    pub reactors: usize,
    /// Largest frame payload a connection's receive buffer will grow
    /// to hold; oversize frames are refused as malformed.
    pub max_payload: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            handshake_timeout: Duration::from_secs(5),
            outbound_capacity: 1024,
            outbound_policy: BackpressurePolicy::DropOldest,
            drain_grace: Duration::from_secs(2),
            reactors: 1,
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Outbound queues of the live connections, keyed by sensor id. The
/// prediction sink resolves each run of predictions through this map;
/// a reactor registers a connection's queue after its handshake and
/// deregisters it before closing.
pub(crate) type Registry = Arc<Mutex<BTreeMap<String, Arc<BoundedQueue<Frame>>>>>;

/// `wire_stats` counter handles shared by every gateway thread.
#[derive(Clone)]
pub(crate) struct GatewayCounters {
    pub(crate) connections: Arc<Counter>,
    pub(crate) frames_received: Arc<Counter>,
    pub(crate) records_decoded: Arc<Counter>,
    pub(crate) records_ingested: Arc<Counter>,
    pub(crate) records_rejected: Arc<Counter>,
    pub(crate) records_shed: Arc<Counter>,
    pub(crate) malformed_frames: Arc<Counter>,
    pub(crate) predictions_routed: Arc<Counter>,
    pub(crate) predictions_sent: Arc<Counter>,
    pub(crate) predictions_unrouted: Arc<Counter>,
    pub(crate) transport_timeouts: Arc<Counter>,
    pub(crate) connection_panics: Arc<Counter>,
    pub(crate) lock_recoveries: Arc<Counter>,
    pub(crate) thread_panics: Arc<Counter>,
}

impl GatewayCounters {
    pub(crate) fn new(m: &MetricsRegistry) -> Self {
        Self {
            connections: m.counter(wire_stats::CONNECTIONS),
            frames_received: m.counter(wire_stats::FRAMES_RECEIVED),
            records_decoded: m.counter(wire_stats::RECORDS_DECODED),
            records_ingested: m.counter(wire_stats::RECORDS_INGESTED),
            records_rejected: m.counter(wire_stats::RECORDS_REJECTED),
            records_shed: m.counter(wire_stats::RECORDS_SHED),
            malformed_frames: m.counter(wire_stats::MALFORMED_FRAMES),
            predictions_routed: m.counter(wire_stats::PREDICTIONS_ROUTED),
            predictions_sent: m.counter(wire_stats::PREDICTIONS_SENT),
            predictions_unrouted: m.counter(wire_stats::PREDICTIONS_UNROUTED),
            transport_timeouts: m.counter(wire_stats::TRANSPORT_TIMEOUTS),
            connection_panics: m.counter(wire_stats::CONNECTION_PANICS),
            lock_recoveries: m.counter(wire_stats::LOCK_RECOVERIES),
            thread_panics: m.counter(wire_stats::THREAD_PANICS),
        }
    }
}

/// Joins a gateway thread, *counting* a panic surfaced by the join
/// instead of discarding it. The panic was already terminal for the
/// thread — what must not vanish is the evidence, so it lands in
/// `wire.thread_panics` and the shutdown report.
fn join_counted(handle: JoinHandle<()>, thread_panics: &Counter) {
    if handle.join().is_err() {
        thread_panics.inc();
    }
}

/// Locks the registry, *recovering* from poison instead of
/// propagating it. A thread that panicked while holding the lock can
/// only have left the map between two valid states (one `BTreeMap`
/// insert/remove/lookup, each atomic from the reader's view), so
/// continuing to route against it is safe — and strictly better than
/// escalating one connection's panic into a gateway-wide crash.
/// Recoveries are counted so the report shows the near-miss.
pub(crate) fn lock_registry<'a>(
    registry: &'a Registry,
    counters: &GatewayCounters,
) -> MutexGuard<'a, BTreeMap<String, Arc<BoundedQueue<Frame>>>> {
    match registry.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            counters.lock_recoveries.inc();
            poisoned.into_inner()
        }
    }
}

/// The running gateway. [`shutdown`](Self::shutdown) drains
/// everything and returns the runtime's [`ServeReport`], whose
/// [`wire`](occusense_serve::ServeReport) section carries the
/// transport counters.
pub struct Gateway {
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    registry: Registry,
    runtime: Option<Arc<ServeRuntime>>,
    accept: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    counters: GatewayCounters,
}

impl Gateway {
    /// Boots a [`ServeRuntime`] around `detector` and starts accepting
    /// sensor connections from `acceptor`.
    ///
    /// # Errors
    ///
    /// [`WireError::Serve`] when the runtime refuses its
    /// configuration.
    pub fn start(
        detector: OccupancyDetector,
        serve: ServeConfig,
        config: GatewayConfig,
        acceptor: Box<dyn Acceptor>,
    ) -> Result<Self, WireError> {
        Self::boot(ServedModel::Frame(detector), serve, config, acceptor)
    }

    /// Boots a *stateful temporal* [`ServeRuntime`] around the GRU
    /// sequence `detector` and starts accepting sensor connections.
    ///
    /// Each connected sensor's hidden state is carried between
    /// micro-batches; when a sensor's last connection closes, its
    /// state is evicted, so a later reconnect restarts the sequence
    /// from zeros. A reconnect that *replaces* a live connection under
    /// the same sensor id keeps the state (the stale connection's
    /// deregistration is a no-op by the ptr-eq rule).
    ///
    /// # Errors
    ///
    /// [`WireError::Serve`] when the runtime refuses its configuration
    /// (e.g. online training requested — unsupported for temporal
    /// models).
    pub fn start_temporal(
        detector: TemporalDetector,
        serve: ServeConfig,
        config: GatewayConfig,
        acceptor: Box<dyn Acceptor>,
    ) -> Result<Self, WireError> {
        Self::boot(ServedModel::Temporal(detector), serve, config, acceptor)
    }

    /// The transport topology shared by both boot modes: a runtime
    /// whose workers deliver through a [`RouteSink`], the reactor pool
    /// and the accept loop.
    fn boot(
        model: ServedModel,
        serve: ServeConfig,
        config: GatewayConfig,
        acceptor: Box<dyn Acceptor>,
    ) -> Result<Self, WireError> {
        let registry: Registry = Arc::new(Mutex::new(BTreeMap::new()));
        let runtime = ServeRuntime::start_with_sink(model, serve, |metrics| {
            Arc::new(RouteSink {
                registry: Arc::clone(&registry),
                counters: GatewayCounters::new(metrics),
            })
        })
        .map_err(WireError::Serve)?;
        let runtime = Arc::new(runtime);
        let counters = GatewayCounters::new(runtime.metrics());
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));

        let ctx = ReactorCtx {
            runtime: Arc::clone(&runtime),
            registry: Arc::clone(&registry),
            config,
            counters,
            stop: Arc::clone(&stop),
            draining: Arc::clone(&draining),
        };
        let pool = config.reactors.max(1);
        let mut injectors = Vec::with_capacity(pool);
        let mut reactors = Vec::with_capacity(pool);
        for i in 0..pool {
            let injector = Arc::new(Injector::new());
            let handle = {
                let injector = Arc::clone(&injector);
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("wire-reactor-{i}"))
                    .spawn(move || reactor_loop(injector, ctx))
                    // lint:allow(panic, reason = "startup-only: thread spawn failure is unrecoverable resource exhaustion, before any connection is accepted")
                    .expect("spawn reactor")
            };
            injectors.push(injector);
            reactors.push(handle);
        }

        let accept = {
            let stop = Arc::clone(&stop);
            let counters = ctx.counters.clone();
            std::thread::Builder::new()
                .name("wire-accept".into())
                .spawn(move || accept_loop(acceptor, stop, injectors, counters))
                // lint:allow(panic, reason = "startup-only: thread spawn failure is unrecoverable resource exhaustion, before any connection is accepted")
                .expect("spawn acceptor")
        };

        Ok(Self {
            stop,
            draining,
            registry,
            runtime: Some(runtime),
            accept: Some(accept),
            reactors,
            counters: ctx.counters,
        })
    }

    /// Enters drain-and-handoff mode: live connections keep being
    /// served to completion, but every *new* handshake is refused with
    /// a `Shutdown` NACK (retryable — the sensor should reconnect to
    /// another worker). Returns the sensor ids with a live route at
    /// the moment of the snapshot, which is exactly the set a fleet
    /// controller must re-route before calling
    /// [`shutdown`](Self::shutdown) on this gateway. Idempotent.
    pub fn drain(&self) -> Vec<String> {
        self.draining.store(true, Ordering::SeqCst);
        lock_registry(&self.registry, &self.counters)
            .keys()
            .cloned()
            .collect()
    }

    /// Whether [`drain`](Self::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// A direct in-process ingestion handle on the underlying runtime
    /// (used by drivers that mix wire and local traffic).
    pub fn local_client(&self, sensor_id: &str) -> Option<SensorClient> {
        self.runtime.as_ref().map(|rt| rt.client(sensor_id))
    }

    /// Live model version of the underlying runtime.
    pub fn model_version(&self) -> u64 {
        self.runtime.as_ref().map_or(0, |rt| rt.model_version())
    }

    /// The tenant the underlying runtime serves (empty = untenanted);
    /// handshakes claiming a different tenant are refused.
    pub fn tenant(&self) -> String {
        self.runtime
            .as_ref()
            .map_or_else(String::new, |rt| rt.tenant().to_string())
    }

    /// Hot-swaps the serving temporal model on a runtime booted with
    /// [`Gateway::start_temporal`]; every sensor's carried state is
    /// zero-reset at its first post-swap batch. Returns the new
    /// version. On a frame-mode runtime the workers quarantine rather
    /// than mis-score (see `occusense_serve`).
    pub fn publish_temporal(&self, detector: TemporalDetector) -> u64 {
        self.runtime
            .as_ref()
            .map_or(0, |rt| rt.publish_temporal(detector))
    }

    /// Number of sensors currently holding temporal sequence state
    /// (always 0 on a frame-mode runtime).
    pub fn active_sensor_states(&self) -> usize {
        self.runtime
            .as_ref()
            .map_or(0, |rt| rt.active_sensor_states())
    }

    /// Stops accepting, drains every connection and the runtime, and
    /// returns the final report (wire counters included).
    pub fn shutdown(mut self) -> ServeReport {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // A panicking accept loop already stopped accepting; the
            // runtime report below still accounts every record.
            join_counted(h, &self.counters.thread_panics);
        }
        // The reactors wind every connection down (bounded by
        // `drain_grace` per phase) and then exit.
        for h in self.reactors.drain(..) {
            join_counted(h, &self.counters.thread_panics);
        }
        let runtime = self
            .runtime
            .take()
            .and_then(|rt| Arc::try_unwrap(rt).ok())
            // lint:allow(panic, reason = "invariant: the accept loop and every reactor joined above, so this is the last Arc; failure means a leaked thread and no truthful report exists")
            .expect("gateway runtime still shared after joining all threads");
        runtime.shutdown()
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            join_counted(h, &self.counters.thread_panics);
        }
        for h in self.reactors.drain(..) {
            join_counted(h, &self.counters.thread_panics);
        }
        // Dropping the runtime Arc joins the serve threads (its Drop).
        self.runtime.take();
    }
}

fn accept_loop(
    mut acceptor: Box<dyn Acceptor>,
    stop: Arc<AtomicBool>,
    injectors: Vec<Arc<Injector>>,
    counters: GatewayCounters,
) {
    let mut next: usize = 0;
    // SeqCst to match the shutdown store: the flag is the only
    // handshake between `shutdown()` and this loop, so its load must
    // synchronise with the store rather than trail it arbitrarily.
    while !stop.load(Ordering::SeqCst) {
        match acceptor.accept() {
            Ok(Accepted::Connection(conn)) => match conn.into_poll() {
                Ok(io) => {
                    if let Some(injector) = injectors.get(next % injectors.len().max(1)) {
                        injector.push(io);
                    }
                    next = next.wrapping_add(1);
                }
                // The socket died between accept and non-blocking
                // setup — same bucket as a pre-handshake drop.
                Err(_) => counters.transport_timeouts.inc(),
            },
            Ok(Accepted::TimedOut) => continue,
            Ok(Accepted::Closed) => break,
            Err(_) => break,
        }
    }
}

/// The gateway's [`PredictionSink`]: a serve worker hands it each
/// flush, and it pushes every prediction straight into its sensor's
/// outbound queue.
struct RouteSink {
    registry: Registry,
    counters: GatewayCounters,
}

impl PredictionSink for RouteSink {
    fn deliver(&self, batch: &mut Vec<Prediction>) {
        let mut rest = batch.as_slice();
        while let Some(first) = rest.first() {
            let run = rest
                .iter()
                .take_while(|p| p.sensor_id == first.sensor_id)
                .count();
            let (same, tail) = rest.split_at(run);
            rest = tail;
            // One lookup per same-sensor run. The guard is a temporary,
            // so the registry lock is released before the queue push.
            let queue = lock_registry(&self.registry, &self.counters)
                .get(first.sensor_id.as_ref())
                .cloned();
            let Some(queue) = queue else {
                self.counters.predictions_unrouted.add(run as u64);
                continue;
            };
            self.counters.predictions_routed.add(run as u64);
            // A full `RejectNewest` queue or a closed (disconnecting)
            // queue loses frames; `predictions_routed − predictions_sent`
            // makes the loss visible in the report.
            queue.push_many(same.iter().map(|p| {
                Frame::Prediction(PredictionFrame {
                    seq: p.seq,
                    timestamp_s: p.timestamp_s,
                    occupied: p.occupied,
                    proba: p.proba,
                    model_version: p.model_version,
                    latency_ns: p.latency.as_nanos() as u64,
                })
            }));
        }
        batch.clear();
    }
}

pub(crate) fn register(
    registry: &Registry,
    sensor_id: &str,
    queue: &Arc<BoundedQueue<Frame>>,
    counters: &GatewayCounters,
) {
    lock_registry(registry, counters).insert(sensor_id.to_string(), Arc::clone(queue));
}

/// Removes this connection's registry entry — only if it still points
/// at *our* queue. A reconnect under the same sensor id replaces the
/// entry; the stale connection must not tear down its successor's
/// route. Returns whether the entry was removed — `true` means this
/// was the sensor's last live route, which is the eviction signal for
/// its temporal sequence state.
pub(crate) fn deregister(
    registry: &Registry,
    sensor_id: &str,
    queue: &Arc<BoundedQueue<Frame>>,
    counters: &GatewayCounters,
) -> bool {
    let mut guard = lock_registry(registry, counters);
    if guard.get(sensor_id).is_some_and(|q| Arc::ptr_eq(q, queue)) {
        guard.remove(sensor_id);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{
        loopback, Connection, LoopbackConfig, PollConn, PollRead, PollWrite, TransportError,
    };
    use crate::{ClientEvent, WireClient};
    use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
    use occusense_core::sim::{simulate, ScenarioConfig};
    use std::io::IoSlice;

    fn quick_detector() -> OccupancyDetector {
        let train = simulate(&ScenarioConfig::quick(200.0, 11));
        OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 1,
                seed: 11,
                ..DetectorConfig::default()
            },
        )
    }

    /// A connection whose poll face panics on first read — the
    /// injected fault for the containment regression test.
    struct PanicConn;

    struct PanicPoll;

    impl PollConn for PanicPoll {
        fn poll_read(&mut self, _buf: &mut [u8]) -> Result<PollRead, TransportError> {
            panic!("injected connection panic");
        }
        fn poll_write(&mut self, _bufs: &[IoSlice<'_>]) -> Result<PollWrite, TransportError> {
            Ok(PollWrite::WouldBlock)
        }
        fn peer(&self) -> String {
            "panic-poll".into()
        }
    }

    impl Connection for PanicConn {
        fn into_poll(self: Box<Self>) -> Result<Box<dyn PollConn>, TransportError> {
            Ok(Box::new(PanicPoll))
        }
        fn peer(&self) -> String {
            "panic-conn".into()
        }
    }

    /// Yields one poisoned connection, then delegates to the real
    /// loopback acceptor.
    struct PanicFirstAcceptor {
        injected: bool,
        inner: Box<dyn Acceptor>,
    }

    impl Acceptor for PanicFirstAcceptor {
        fn accept(&mut self) -> Result<Accepted, TransportError> {
            if !self.injected {
                self.injected = true;
                return Ok(Accepted::Connection(Box::new(PanicConn)));
            }
            self.inner.accept()
        }
    }

    /// Regression (issue 7): a panicking connection handler used to
    /// poison the shared registry lock and crash every other
    /// connection's thread through `.expect("connection registry
    /// poisoned")`. The reactor must contain the panic to the one
    /// connection, keep serving its siblings, and still close the
    /// accounting identity.
    #[test]
    fn one_panicking_connection_does_not_cascade() {
        const RECORDS: usize = 40;
        let detector = quick_detector();
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        let gateway = Gateway::start(
            detector,
            occusense_serve::ServeConfig {
                online: None,
                ..occusense_serve::ServeConfig::default()
            },
            GatewayConfig {
                outbound_policy: BackpressurePolicy::Block,
                ..GatewayConfig::default()
            },
            Box::new(PanicFirstAcceptor {
                injected: false,
                inner: Box::new(acceptor),
            }),
        )
        .expect("gateway");

        // The healthy sensor connects *after* the poisoned connection
        // is already inside the reactor.
        let conn = connector.connect().expect("connect");
        let mut client =
            WireClient::connect(conn, "", "survivor", Duration::from_secs(5)).expect("handshake");
        let records: Vec<_> = simulate(&ScenarioConfig::quick(30.0, 3))
            .records()
            .iter()
            .copied()
            .take(RECORDS)
            .collect();
        assert_eq!(records.len(), RECORDS, "scenario must yield enough records");
        for r in &records {
            client.send(*r, None).expect("send");
        }
        client.finish().expect("finish");
        let mut preds = 0;
        loop {
            match client.recv(Duration::from_millis(50)).expect("receive") {
                ClientEvent::Prediction(_) => preds += 1,
                ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
                ClientEvent::TimedOut => continue,
                other => panic!("unexpected event {other:?}"),
            }
        }
        drop(client);
        let report = gateway.shutdown();

        assert_eq!(preds, RECORDS, "the healthy sensor must be fully served");
        assert_eq!(
            report.wire.connection_panics, 1,
            "the panic must be counted"
        );
        assert_eq!(report.faults.connection_panics, 1);
        assert_eq!(
            report.wire.connections, 1,
            "the poisoned connection died before its handshake"
        );
        assert_eq!(report.unaccounted_records(), 0);
        assert_eq!(
            report.wire.thread_panics, 0,
            "a contained connection panic must not read as a gateway thread panic"
        );
    }

    /// `join_counted` is the only way gateway threads are joined: a
    /// panicking thread increments `wire.thread_panics` instead of the
    /// old `let _ = handle.join()` silently discarding the evidence,
    /// and a clean thread leaves the counter untouched.
    #[test]
    fn join_counted_counts_panics_and_only_panics() {
        let metrics = MetricsRegistry::new();
        let counters = GatewayCounters::new(&metrics);

        join_counted(std::thread::spawn(|| {}), &counters.thread_panics);
        assert_eq!(counters.thread_panics.get(), 0, "clean join must not count");

        join_counted(
            std::thread::spawn(|| panic!("injected thread panic")),
            &counters.thread_panics,
        );
        assert_eq!(
            counters.thread_panics.get(),
            1,
            "a panicking join must land in the counter"
        );
    }

    /// The registry lock itself recovers from poison: a thread that
    /// panics while holding it must not take down registration,
    /// deregistration or routing — and each recovery is counted.
    #[test]
    fn registry_lock_recovers_from_poison() {
        let metrics = MetricsRegistry::new();
        let counters = GatewayCounters::new(&metrics);
        let registry: Registry = Arc::new(Mutex::new(BTreeMap::new()));

        let queue = Arc::new(BoundedQueue::<Frame>::new(4, BackpressurePolicy::Block));
        register(&registry, "before", &queue, &counters);

        // Poison the lock.
        let poisoner = Arc::clone(&registry);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock");
            panic!("poison the registry");
        })
        .join();
        assert!(registry.is_poisoned(), "the lock must actually be poisoned");

        // Every registry operation still works, against the pre-panic
        // contents.
        let queue2 = Arc::new(BoundedQueue::<Frame>::new(4, BackpressurePolicy::Block));
        register(&registry, "after", &queue2, &counters);
        assert!(lock_registry(&registry, &counters).contains_key("before"));
        assert!(lock_registry(&registry, &counters).contains_key("after"));
        assert!(deregister(&registry, "before", &queue, &counters));
        assert!(
            !deregister(&registry, "after", &queue, &counters),
            "ptr-eq rule must still hold under a recovered lock"
        );
        assert!(counters.lock_recoveries.get() >= 4);
    }
}
