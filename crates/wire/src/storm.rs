//! The storm engine both load drivers (`wire_storm`, `fleet_storm`)
//! run on.
//!
//! * [`Booking`]: one slot per record a sensor replays, keyed by its
//!   position in the sensor's stream (its *seq*). A second resolution
//!   of a seq, a resolution of a seq never sent, and a seq still
//!   pending at the end are each a failure naming the seq, so
//!   exactly-once is checked per record, not inferred from totals.
//! * [`run`]: a few driver threads sweep non-blocking [`WireClient`]s,
//!   one per sensor, within a per-sensor in-flight window. A [`Dialer`]
//!   opens each connection and decides whether a lost one fails the
//!   sensor or re-books its in-flight seqs as shed and dials again. The
//!   caller's thread meanwhile acts on the shared [`Progress`] (a hot
//!   swap, a worker kill).
//! * [`verify`]: every delivered prediction equals in-process scoring
//!   bit for bit, against the sensor's frame model or, for the GRU,
//!   through `score_stream` from zero state over each same-version run.

use crate::client::{ClientEvent, WireClient};
use crate::codec::{NackReason, PredictionFrame};
use crate::transport::{Connection, TransportError};
use crate::WireError;
use occusense_core::detector::OccupancyDetector;
use occusense_core::temporal::TemporalDetector;
use occusense_dataset::CsiRecord;
use occusense_driver::{obj, Value, Verdict};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a connection may go without moving before it counts as
/// lost.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Idle sweeps a driver spin-yields before it sleeps [`IDLE_SLEEP`].
const SPIN_SWEEPS: u32 = 64;
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Most problems one sensor's failure lines cite before a total.
const CITED: usize = 5;

/// How one record stands.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    /// Not sent yet.
    Unsent,
    /// Sent; its resolution is still owed.
    Pending,
    /// Scored; the frame is kept for the bitwise replay.
    Pred(PredictionFrame),
    /// Refused with a per-record NACK (the load-shed lane).
    Nacked,
    /// In flight on a connection that died; re-booked as shed.
    Rebooked,
}

/// One way a booking failed to close exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Resolved a second time.
    Duplicate(u64),
    /// Resolved but never sent.
    Unknown(u64),
    /// Sent but never resolved.
    Unresolved(u64),
    /// Never sent (exempt for a sensor refused at admission).
    Unsent(u64),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Duplicate(seq) => write!(f, "seq {seq} resolved twice"),
            Fault::Unknown(seq) => write!(f, "seq {seq} resolved but never sent"),
            Fault::Unresolved(seq) => write!(f, "seq {seq} sent but never resolved"),
            Fault::Unsent(seq) => write!(f, "seq {seq} never sent"),
        }
    }
}

/// One sensor's per-seq booking table.
#[derive(Debug, Clone)]
pub struct Booking {
    slots: Vec<Slot>,
    /// Duplicate and unknown resolutions, in arrival order.
    stray: Vec<Fault>,
}

impl Booking {
    /// A table of `records` unsent slots.
    fn new(records: usize) -> Self {
        Self {
            slots: vec![Slot::Unsent; records],
            stray: Vec::new(),
        }
    }

    /// Marks an unsent `seq` pending.
    fn book(&mut self, seq: u64) {
        if let Some(slot) = self.slot_mut(seq).filter(|s| **s == Slot::Unsent) {
            *slot = Slot::Pending;
        }
    }

    /// Resolves `seq` as predicted (`Some`) or NACKed (`None`). Returns
    /// whether a pending seq resolved; otherwise the resolution is
    /// booked as a duplicate or an unknown seq.
    fn resolve(&mut self, seq: u64, prediction: Option<PredictionFrame>) -> bool {
        match self.slot_mut(seq) {
            Some(slot @ Slot::Pending) => {
                *slot = prediction.map_or(Slot::Nacked, Slot::Pred);
                return true;
            }
            Some(Slot::Unsent) | None => self.stray.push(Fault::Unknown(seq)),
            Some(_) => self.stray.push(Fault::Duplicate(seq)),
        }
        false
    }

    /// Re-books every pending seq as shed; returns how many.
    fn rebook_pending(&mut self) -> u64 {
        let pending = self.slots.iter_mut().filter(|s| **s == Slot::Pending);
        pending.map(|slot| *slot = Slot::Rebooked).count() as u64
    }

    /// The delivered predictions with their seqs, in seq order.
    pub fn predictions(&self) -> impl Iterator<Item = (u64, &PredictionFrame)> {
        self.slots.iter().zip(0..).filter_map(|(s, seq)| match s {
            Slot::Pred(p) => Some((seq, p)),
            _ => None,
        })
    }

    /// Every fault: duplicate and unknown resolutions in arrival
    /// order, then pending and (unless `exempt_unsent`) unsent seqs in
    /// seq order.
    fn faults(&self, exempt_unsent: bool) -> Vec<Fault> {
        let open = self
            .slots
            .iter()
            .zip(0..)
            .filter_map(|(slot, seq)| match slot {
                Slot::Pending => Some(Fault::Unresolved(seq)),
                Slot::Unsent if !exempt_unsent => Some(Fault::Unsent(seq)),
                _ => None,
            });
        self.stray.iter().copied().chain(open).collect()
    }

    fn slot_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        usize::try_from(seq)
            .ok()
            .and_then(|i| self.slots.get_mut(i))
    }
}

/// Booking totals; the `booking` block of both storm summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Seqs sent at least once.
    pub booked: u64,
    /// Seqs resolved by a prediction.
    pub predicted: u64,
    /// Seqs resolved by a NACK.
    pub nacked: u64,
    /// Seqs re-booked as shed after their connection died.
    pub rebooked: u64,
    /// Second resolutions of one seq.
    pub duplicates: u64,
    /// Resolutions of seqs never sent.
    pub unknown: u64,
    /// Seqs sent but still pending.
    pub unresolved: u64,
}

impl Tally {
    /// The totals over every run's booking.
    pub fn of<'a>(runs: impl IntoIterator<Item = &'a SensorRun>) -> Self {
        let mut t = Self::default();
        for booking in runs.into_iter().map(|r| &r.booking) {
            for fault in &booking.stray {
                match fault {
                    Fault::Duplicate(_) => t.duplicates += 1,
                    _ => t.unknown += 1,
                }
            }
            for slot in &booking.slots {
                match slot {
                    Slot::Unsent => continue,
                    Slot::Pending => t.unresolved += 1,
                    Slot::Pred(_) => t.predicted += 1,
                    Slot::Nacked => t.nacked += 1,
                    Slot::Rebooked => t.rebooked += 1,
                }
                t.booked += 1;
            }
        }
        t
    }

    /// The `booking` object of a storm's `--json` summary.
    pub fn to_json(&self) -> Value {
        obj([
            ("booked", self.booked.into()),
            ("predicted", self.predicted.into()),
            ("nacked", self.nacked.into()),
            ("rebooked", self.rebooked.into()),
            ("duplicates", self.duplicates.into()),
            ("unknown", self.unknown.into()),
            ("unresolved", self.unresolved.into()),
        ])
    }
}

/// One sensor to replay.
#[derive(Debug, Clone)]
pub struct SensorPlan {
    /// The tenant its `Hello` claims (empty: the default namespace).
    pub tenant: String,
    /// Its sensor id.
    pub sensor: String,
    /// Its model's index in [`Reference::Frame`] (the fleet's tenant).
    pub model: usize,
    /// The records it replays: seq `k` is `records[k]`.
    pub records: Vec<CsiRecord>,
}

impl SensorPlan {
    /// `tenant/sensor`, or the bare sensor id in the default tenant.
    pub fn name(&self) -> String {
        match self.tenant.as_str() {
            "" => self.sensor.clone(),
            tenant => format!("{tenant}/{}", self.sensor),
        }
    }
}

/// What one sensor brings home.
#[derive(Debug)]
pub struct SensorRun {
    /// The plan it ran.
    pub plan: SensorPlan,
    /// How every seq resolved.
    pub booking: Booking,
    /// Send → prediction round trips in ns, one per predicted seq.
    pub rtts: Vec<u64>,
    /// The shard its last connection was routed to.
    pub shard: u32,
    /// Connections opened after the first.
    pub reconnects: u64,
    /// Refused at admission: its never-sent seqs are exempt.
    pub shed: bool,
    /// Connection and dial failures.
    pub errors: Vec<String>,
}

/// The answer to one [`Dialer::dial`].
pub enum Dial {
    /// A connection (its handshake may still be in flight) and what it
    /// goes through (a worker name), handed back to
    /// [`Dialer::hang_up`].
    Open(WireClient, String),
    /// Nothing to connect to yet; dial again after this long.
    Retry(Duration),
    /// Refused at admission: the sensor sends nothing more.
    Shed,
    /// Give up on the sensor.
    Fail(String),
}

/// Opens sensor connections and hears how they end. Runs on the driver
/// threads, so a slow dial holds up that thread's other sensors.
pub trait Dialer: Sync {
    /// Opens a connection for `plan`; `attempt` counts from 1.
    fn dial(&self, plan: &SensorPlan, attempt: u32) -> Dial;

    /// The connection through `via` ended: `Ok` after the gateway's
    /// `Goodbye`, `Err` with the reason when it was lost. `true`
    /// re-books its pending seqs as shed and dials again; `false`
    /// leaves them pending and fails the sensor.
    fn hang_up(&self, plan: &SensorPlan, via: &str, end: Result<(), &str>) -> bool;
}

/// A connect function is a dialer that opens each sensor's one
/// connection; a lost connection fails the sensor.
impl<F> Dialer for F
where
    F: Fn() -> Result<Box<dyn Connection>, TransportError> + Sync,
{
    fn dial(&self, plan: &SensorPlan, _attempt: u32) -> Dial {
        let opened = self()
            .map_err(WireError::Transport)
            .and_then(|conn| WireClient::open(conn, &plan.tenant, &plan.sensor));
        match opened {
            Ok(client) => Dial::Open(client, String::new()),
            Err(e) => Dial::Fail(format!("connect: {e}")),
        }
    }

    fn hang_up(&self, _plan: &SensorPlan, _via: &str, _end: Result<(), &str>) -> bool {
        false
    }
}

/// How a storm is driven.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Driver threads; sensor `i` is swept by driver `i % drivers`.
    pub drivers: usize,
    /// Records per frame: 1 sends `Record` frames, more `Batch` frames.
    pub wire_batch: usize,
    /// Most seqs a sensor keeps in flight.
    pub window: usize,
}

/// Resolution progress, shared by the drivers and [`run`]'s control
/// closure.
#[derive(Debug)]
pub struct Progress {
    resolved: AtomicU64,
    total: u64,
    live_drivers: AtomicUsize,
}

impl Progress {
    /// Seqs resolved so far (predicted, NACKed or re-booked).
    pub fn resolved(&self) -> u64 {
        self.resolved.load(Ordering::Relaxed)
    }

    /// Waits until `fraction` of all records has resolved, every
    /// driver has finished, or `timeout` has passed; returns the
    /// resolved count.
    pub fn wait_for(&self, fraction: f64, timeout: Duration) -> u64 {
        let target = ((self.total as f64 * fraction) as u64).max(1);
        let deadline = Instant::now() + timeout;
        while self.resolved() < target
            && self.live_drivers.load(Ordering::Relaxed) > 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.resolved()
    }
}

/// Where a sensor's connection stands.
enum Link {
    /// Dial at (or after) this instant.
    Idle(Instant),
    /// Streaming; the connection's seq 0 is the sensor's seq `base`.
    Open {
        client: WireClient,
        via: String,
        base: u64,
    },
    /// Finished, shed or failed.
    Done,
}

/// One sensor inside a driver thread.
struct Sensor {
    run: SensorRun,
    link: Link,
    /// Seqs sent so far, over every connection.
    next: usize,
    /// Pending seqs on the current connection.
    in_flight: usize,
    sent_at: Vec<Instant>,
    dials: u32,
    opened: bool,
    last_moved: Instant,
}

/// What one pass over an open connection did.
enum Pulse {
    Idle,
    Moved,
    /// The gateway's `Goodbye` arrived.
    Goodbye,
}

impl Sensor {
    fn new(plan: SensorPlan) -> Self {
        let n = plan.records.len();
        Self {
            run: SensorRun {
                booking: Booking::new(n),
                plan,
                rtts: Vec::with_capacity(n),
                shard: 0,
                reconnects: 0,
                shed: false,
                errors: Vec::new(),
            },
            link: Link::Idle(Instant::now()),
            next: 0,
            in_flight: 0,
            sent_at: Vec::with_capacity(n),
            dials: 0,
            opened: false,
            last_moved: Instant::now(),
        }
    }

    /// One sweep over this sensor: dial when due, then stream. Returns
    /// whether anything moved.
    fn step(&mut self, config: &StormConfig, dialer: &dyn Dialer, progress: &Progress) -> bool {
        let (mut client, via, base) = match std::mem::replace(&mut self.link, Link::Done) {
            Link::Done => return false,
            Link::Idle(at) if Instant::now() < at => {
                self.link = Link::Idle(at);
                return false;
            }
            Link::Idle(_) => {
                self.dials += 1;
                match dialer.dial(&self.run.plan, self.dials) {
                    Dial::Open(client, via) => {
                        self.run.reconnects += u64::from(self.opened);
                        self.opened = true;
                        self.last_moved = Instant::now();
                        (client, via, self.next as u64)
                    }
                    Dial::Retry(wait) => {
                        self.link = Link::Idle(Instant::now() + wait);
                        return false;
                    }
                    Dial::Shed => {
                        self.run.shed = true;
                        return true;
                    }
                    Dial::Fail(why) => {
                        self.run.errors.push(why);
                        return true;
                    }
                }
            }
            Link::Open { client, via, base } => (client, via, base),
        };
        let end = match self.stream(&mut client, base, config, progress) {
            Ok(Pulse::Goodbye) => Ok(()),
            Ok(Pulse::Idle) if self.last_moved.elapsed() > STALL_LIMIT => Err(format!(
                "stalled past the {} s limit",
                STALL_LIMIT.as_secs()
            )),
            Ok(pulse) => {
                self.link = Link::Open { client, via, base };
                return matches!(pulse, Pulse::Moved);
            }
            Err(why) => Err(why),
        };
        drop(client);
        let lost = end.as_ref().map(|_| ()).map_err(String::as_str);
        match (dialer.hang_up(&self.run.plan, &via, lost), end) {
            (_, Ok(())) => {}
            (true, Err(_)) => {
                let rebooked = self.run.booking.rebook_pending();
                progress.resolved.fetch_add(rebooked, Ordering::Relaxed);
                self.in_flight = 0;
                self.link = Link::Idle(Instant::now());
            }
            (false, Err(why)) => self.run.errors.push(why),
        }
        true
    }

    /// Sends while the transport takes frames and the window has room
    /// (then the `Goodbye`), pumps, and books every event. `Err` when
    /// the connection is lost.
    fn stream(
        &mut self,
        client: &mut WireClient,
        base: u64,
        config: &StormConfig,
        progress: &Progress,
    ) -> Result<Pulse, String> {
        let records = &self.run.plan.records;
        let mut moved = false;
        while client.is_ready() && client.backlog() == 0 {
            if self.next >= records.len() {
                client.finish().map_err(|e| format!("goodbye: {e}"))?;
                moved = true;
                break;
            }
            let room = config
                .wire_batch
                .max(1)
                .min(config.window.saturating_sub(self.in_flight));
            let end = records.len().min(self.next + room);
            if end == self.next {
                break;
            }
            // Labelled on even seqs, so both label encodings cross the
            // wire.
            let chunk: Vec<(CsiRecord, Option<u8>)> = (self.next..end)
                .zip(records.get(self.next..end).unwrap_or_default())
                .map(|(seq, r)| (*r, seq.is_multiple_of(2).then(|| r.occupancy())))
                .collect();
            match chunk.as_slice() {
                [(record, label)] if config.wire_batch <= 1 => client.send(*record, *label),
                chunk => client.send_batch(chunk),
            }
            .map_err(|e| format!("send: {e}"))?;
            self.sent_at.resize(end, Instant::now());
            (self.next..end).for_each(|seq| self.run.booking.book(seq as u64));
            self.in_flight += end - self.next;
            self.next = end;
            moved = true;
        }
        moved |= client.pump().map_err(|e| e.to_string())?;
        self.run.shard = client.shard();
        let mut pulse = if moved { Pulse::Moved } else { Pulse::Idle };
        while let Some(event) = client.next_event() {
            let (seq, prediction) = match event {
                ClientEvent::Prediction(p) => (p.seq, Some(p)),
                ClientEvent::Nack(n)
                    if matches!(n.reason, NackReason::QueueFull | NackReason::Shutdown) =>
                {
                    (n.seq, None)
                }
                ClientEvent::Nack(n) => return Err(format!("fatal NACK: {}", n.reason)),
                ClientEvent::Goodbye(_) => {
                    pulse = Pulse::Goodbye;
                    continue;
                }
                ClientEvent::Closed | ClientEvent::TimedOut => {
                    return Err("server closed before its Goodbye".to_string());
                }
            };
            if let Pulse::Idle = pulse {
                pulse = Pulse::Moved;
            }
            let seq = base.saturating_add(seq);
            let sent_at = usize::try_from(seq).ok().and_then(|i| self.sent_at.get(i));
            let rtt = sent_at
                .filter(|_| prediction.is_some())
                .map(Instant::elapsed);
            if self.run.booking.resolve(seq, prediction) {
                self.in_flight = self.in_flight.saturating_sub(1);
                progress.resolved.fetch_add(1, Ordering::Relaxed);
                self.run.rtts.extend(rtt.map(|t| t.as_nanos() as u64));
            }
        }
        if !matches!(pulse, Pulse::Idle) {
            self.last_moved = Instant::now();
        }
        Ok(pulse)
    }
}

/// Sweeps `sensors` until every one is done.
fn sweep(
    mut sensors: Vec<Sensor>,
    config: &StormConfig,
    dialer: &dyn Dialer,
    progress: &Progress,
) -> Vec<SensorRun> {
    let mut idle = 0u32;
    while sensors.iter().any(|s| !matches!(s.link, Link::Done)) {
        let mut moved = false;
        for sensor in &mut sensors {
            moved |= sensor.step(config, dialer, progress);
        }
        idle = if moved { 0 } else { idle.saturating_add(1) };
        if idle == 0 {
            continue;
        } else if idle < SPIN_SWEEPS {
            std::thread::yield_now();
        } else {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    progress.live_drivers.fetch_sub(1, Ordering::Relaxed);
    sensors.into_iter().map(|s| s.run).collect()
}

/// Replays every plan through `config.drivers` sweeping threads while
/// `control` runs on the calling thread with the shared [`Progress`].
/// Returns every sensor's run in plan order, and `control`'s result. A
/// panic on a driver thread (a dialer's, say) resumes on the caller.
pub fn run<R>(
    plans: Vec<SensorPlan>,
    config: &StormConfig,
    dialer: &dyn Dialer,
    control: impl FnOnce(&Progress) -> R,
) -> (Vec<SensorRun>, R) {
    let drivers = config.drivers.clamp(1, plans.len().max(1));
    let progress = Progress {
        resolved: AtomicU64::new(0),
        total: plans.iter().map(|p| p.records.len() as u64).sum(),
        live_drivers: AtomicUsize::new(drivers),
    };
    let mut shares: Vec<Vec<Sensor>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, plan) in plans.into_iter().enumerate() {
        if let Some(share) = shares.get_mut(i % drivers) {
            share.push(Sensor::new(plan));
        }
    }
    let (shares, out) = std::thread::scope(|scope| {
        let progress = &progress;
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| scope.spawn(move || sweep(share, config, dialer, progress)))
            .collect();
        let out = control(progress);
        let shares: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .map(Vec::into_iter)
            .collect();
        (shares, out)
    });
    // Undo the deal: plan `i` is the next run of share `i % drivers`.
    let mut shares = shares;
    let runs = (0..)
        .map_while(|i| shares.get_mut(i % drivers).and_then(Iterator::next))
        .collect();
    (runs, out)
}

/// The in-process models a storm's predictions are replayed against.
pub enum Reference<'a> {
    /// Stateless per-frame models indexed by [`SensorPlan::model`];
    /// online training is off, so every prediction carries version 1.
    Frame(&'a [OccupancyDetector]),
    /// Stateful GRU models by published version.
    Temporal(&'a BTreeMap<u64, TemporalDetector>),
}

/// Fails `verdict` on every booking fault (a shed sensor's never-sent
/// seqs excepted) and every delivered prediction that differs from
/// in-process scoring in one bit, citing the seq: each sensor's first
/// few problems, then their total.
pub fn verify(runs: &[SensorRun], reference: &Reference<'_>, verdict: &mut Verdict) {
    for run in runs {
        let mut problems: Vec<String> = run
            .booking
            .faults(run.shed)
            .iter()
            .map(Fault::to_string)
            .collect();
        let preds: Vec<(u64, &PredictionFrame)> = run.booking.predictions().collect();
        let record = |seq: u64| {
            usize::try_from(seq)
                .ok()
                .and_then(|i| run.plan.records.get(i))
        };
        // (seq, wire frame, in-process occupied, in-process proba).
        let mut expected: Vec<(u64, &PredictionFrame, u8, f64)> = Vec::new();
        match reference {
            Reference::Frame(models) => {
                let model = models.get(run.plan.model);
                for &(seq, p) in &preds {
                    if p.model_version != 1 {
                        let v = p.model_version;
                        problems.push(format!(
                            "seq {seq}: scored by v{v} (online training is off)"
                        ));
                    }
                    if let Some((m, r)) = model.zip(record(seq)) {
                        let (occupied, proba) = m.predict_record(r);
                        expected.push((seq, p, occupied, proba));
                    }
                }
                if model.is_none() {
                    problems.push(format!("no frame model {}", run.plan.model));
                }
            }
            // The server scored this sensor's records in seq order,
            // carrying hidden state and zero-resetting it at every
            // swap; only scored records advanced it. So the reference
            // is `score_stream` from zero over each maximal run of
            // predictions scored by one version.
            Reference::Temporal(models) => {
                let mut newest = 0;
                for same in preds.chunk_by(|a, b| a.1.model_version == b.1.model_version) {
                    let Some(&(first, p)) = same.first() else {
                        continue;
                    };
                    let version = p.model_version;
                    let Some(model) = models.get(&version).filter(|_| version >= newest) else {
                        problems.push(format!("seq {first}: scored by v{version} after v{newest}"));
                        break;
                    };
                    newest = version;
                    let stream: Vec<CsiRecord> = same
                        .iter()
                        .filter_map(|&(seq, _)| record(seq).copied())
                        .collect();
                    for (&(seq, p), (_, proba)) in same.iter().zip(model.score_stream(&stream)) {
                        expected.push((seq, p, u8::from(proba > 0.5), proba));
                    }
                }
            }
        }
        for (seq, p, occupied, proba) in expected {
            let (wire, own) = (p.proba.to_bits(), proba.to_bits());
            if p.occupied != occupied || wire != own {
                let (v, o) = (p.model_version, p.occupied);
                problems.push(format!(
                    "seq {seq} (v{v}): wire ({o}, {wire:#018x}) != in-process ({occupied}, {own:#018x})"
                ));
            }
        }
        let who = run.plan.name();
        for problem in problems.iter().take(CITED) {
            verdict.fail(format!("{who}: {problem}"));
        }
        verdict.check(problems.len() <= CITED, || {
            format!("{who}: {} problems in total", problems.len())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{loopback, Gateway, GatewayConfig, LoopbackConfig};
    use occusense_core::detector::{DetectorConfig, ModelKind};
    use occusense_core::temporal::TemporalConfig;
    use occusense_serve::{BackpressurePolicy, ServeConfig};
    use occusense_sim::{fleet_stream, simulate, ScenarioConfig};

    fn prediction(seq: u64) -> PredictionFrame {
        PredictionFrame {
            seq,
            timestamp_s: 0.0,
            occupied: 1,
            proba: 0.75,
            model_version: 1,
            latency_ns: 1,
        }
    }

    #[test]
    fn a_scripted_stream_names_the_duplicate_the_unknown_and_the_missing_seq() {
        let mut booking = Booking::new(6);
        for seq in 0..4 {
            booking.book(seq);
        }
        assert!(booking.resolve(0, Some(prediction(0))));
        assert!(booking.resolve(1, Some(prediction(1))));
        // seq 1 delivered twice; seq 2 never resolved; seq 3 NACKed;
        // a prediction for seq 5, never sent (4 and 5 are unsent).
        assert!(!booking.resolve(1, Some(prediction(1))));
        assert!(booking.resolve(3, None));
        assert!(!booking.resolve(5, Some(prediction(5))));
        // Beyond the table entirely.
        assert!(!booking.resolve(99, None));

        let faults = booking.faults(true);
        assert_eq!(
            faults,
            [
                Fault::Duplicate(1),
                Fault::Unknown(5),
                Fault::Unknown(99),
                Fault::Unresolved(2)
            ]
        );
        let named: Vec<String> = faults.iter().map(Fault::to_string).collect();
        assert_eq!(named[0], "seq 1 resolved twice");
        assert_eq!(named[1], "seq 5 resolved but never sent");
        assert_eq!(named[3], "seq 2 sent but never resolved");
        // Without the admission exemption the unsent seqs fail too.
        assert_eq!(
            booking.faults(false)[4..],
            [Fault::Unsent(4), Fault::Unsent(5)]
        );

        let mut run = SensorRun {
            plan: SensorPlan {
                tenant: "acme".into(),
                sensor: "s0".into(),
                model: 0,
                records: fleet_stream(2.0, 100, 0).take(6).collect(),
            },
            booking,
            rtts: Vec::new(),
            shard: 0,
            reconnects: 0,
            shed: false,
            errors: Vec::new(),
        };
        assert_eq!(
            Tally::of([&run]),
            Tally {
                booked: 4,
                predicted: 2,
                nacked: 1,
                rebooked: 0,
                duplicates: 1,
                unknown: 2,
                unresolved: 1,
            }
        );

        // The verifier turns every fault into a failure.
        let mut verdict = Verdict::new("verify", true);
        verify(
            std::slice::from_ref(&run),
            &Reference::Temporal(&BTreeMap::new()),
            &mut verdict,
        );
        assert_eq!(verdict.label(), "fail");

        // A dead connection's pending seqs re-book as shed.
        assert_eq!(run.booking.rebook_pending(), 1);
        assert_eq!(run.booking.slots[2], Slot::Rebooked);
        assert_eq!(run.booking.faults(true).len(), 3);
    }

    fn configs() -> (ServeConfig, GatewayConfig) {
        (
            ServeConfig {
                online: None,
                policy: BackpressurePolicy::Block,
                ..ServeConfig::default()
            },
            GatewayConfig {
                outbound_policy: BackpressurePolicy::Block,
                ..GatewayConfig::default()
            },
        )
    }

    fn plans(sensors: u64, records: usize) -> Vec<SensorPlan> {
        let rate = ScenarioConfig::quick(1.0, 0).sample_rate_hz;
        (0..sensors)
            .map(|i| SensorPlan {
                tenant: String::new(),
                sensor: format!("sensor-{i}"),
                model: 0,
                records: fleet_stream(records as f64 / rate + 1.0, 100, i)
                    .take(records)
                    .collect(),
            })
            .collect()
    }

    /// Every seq booked once and resolved once, and the verifier passes.
    fn assert_closed(runs: &[SensorRun], reference: &Reference<'_>, records: u64) {
        for run in runs {
            assert!(run.errors.is_empty(), "{:?}", run.errors);
            assert_eq!(run.booking.faults(false), []);
        }
        let tally = Tally::of(runs);
        assert_eq!(tally.booked, records);
        assert_eq!(tally.predicted, records);
        assert_eq!(
            (tally.duplicates, tally.unknown, tally.unresolved),
            (0, 0, 0)
        );
        let mut verdict = Verdict::new("verify", true);
        verify(runs, reference, &mut verdict);
        assert_eq!(verdict.label(), "pass");
    }

    #[test]
    fn the_sweep_driver_replays_frame_sensors_bitwise_over_loopback() {
        let train = simulate(&ScenarioConfig::quick(300.0, 7));
        let detector = OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 2,
                seed: 7,
                ..DetectorConfig::default()
            },
        );
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        let (serve, gateway) = configs();
        let gateway = Gateway::start(detector.clone(), serve, gateway, Box::new(acceptor)).unwrap();
        let config = StormConfig {
            drivers: 2,
            wire_batch: 8,
            window: 16,
        };
        let (runs, ()) = run(plans(3, 60), &config, &move || connector.connect(), |_| ());
        let report = gateway.shutdown();
        assert_closed(&runs, &Reference::Frame(&[detector]), 180);
        assert_eq!(report.unaccounted_records(), 0);
        assert_eq!(report.wire.predictions_sent, 180);
    }

    #[test]
    fn the_sweep_driver_replays_temporal_sensors_across_a_hot_swap() {
        let train = simulate(&ScenarioConfig::quick(600.0, 9));
        let temporal = TemporalDetector::train(
            &train,
            &TemporalConfig {
                window: 8,
                stride: 4,
                hidden: 8,
                epochs: 1,
                seed: 9,
                ..TemporalConfig::default()
            },
        );
        // Single records and a small window keep every sensor streaming
        // past the swap. The swap republishes the same weights: the
        // server still zero-resets every sensor's state there, so the
        // replay must split each stream at the version change to match.
        let config = StormConfig {
            drivers: 1,
            wire_batch: 1,
            window: 2,
        };
        // A swap that a descheduled control thread publishes only after
        // the storm is over still verifies, but splits nothing: retry
        // until one lands mid-stream.
        let mut split = None;
        for _ in 0..5 {
            let (acceptor, connector) = loopback(LoopbackConfig::default());
            let (serve, gateway) = configs();
            let gateway =
                Gateway::start_temporal(temporal.clone(), serve, gateway, Box::new(acceptor))
                    .unwrap();
            let mut published = BTreeMap::from([(1, temporal.clone())]);
            let (runs, ()) = run(
                plans(2, 300),
                &config,
                &move || connector.connect(),
                |progress| {
                    progress.wait_for(0.25, Duration::from_secs(60));
                    let version = gateway.publish_temporal(temporal.clone());
                    published.insert(version, temporal.clone());
                },
            );
            let report = gateway.shutdown();
            assert_closed(&runs, &Reference::Temporal(&published), 600);
            assert_eq!(report.unaccounted_records(), 0);
            let swapped_mid_stream = runs.iter().any(|run| {
                let mut versions = run.booking.predictions().map(|(_, p)| p.model_version);
                versions.next() == Some(1) && versions.any(|v| v == 2)
            });
            if swapped_mid_stream {
                split = Some((runs, published));
                break;
            }
        }
        let (runs, published) = split.expect("the swap never landed mid-stream in 5 storms");
        // Replaying a swapped stream as one unbroken version must fail.
        let merged: Vec<SensorRun> = runs
            .iter()
            .map(|run| {
                let mut booking = Booking::new(run.booking.slots.len());
                for (seq, p) in run.booking.predictions() {
                    booking.book(seq);
                    booking.resolve(
                        seq,
                        Some(PredictionFrame {
                            model_version: 1,
                            ..*p
                        }),
                    );
                }
                SensorRun {
                    plan: run.plan.clone(),
                    booking,
                    rtts: Vec::new(),
                    shard: 0,
                    reconnects: 0,
                    shed: false,
                    errors: Vec::new(),
                }
            })
            .collect();
        let mut verdict = Verdict::new("verify", true);
        verify(&merged, &Reference::Temporal(&published), &mut verdict);
        assert_eq!(verdict.label(), "fail");
    }
}
