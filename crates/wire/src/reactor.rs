//! The readiness reactor: every sensor connection multiplexed onto a
//! small pool of event-loop threads instead of two threads per
//! connection.
//!
//! # Why a scanning loop and not epoll
//!
//! The workspace forbids `unsafe` (`#![deny(unsafe_code)]`) and the
//! zero-dependency contract rules out an event-queue crate, so the
//! reactor is a *level-triggered scanning* loop: each sweep polls every
//! connection's non-blocking [`PollConn`] face, and an adaptive
//! park/backoff (yield → 50 µs → 500 µs) keeps an idle fleet from
//! burning a core. For the fleet sizes the paper's deployment story
//! implies (thousands of cheap sensors at tens of frames per second) a
//! sweep over all connections is cheap next to the decode work itself,
//! and the design keeps the hot path free of syscall-multiplexer state.
//!
//! # Buffer lifetime rules (the zero-copy contract)
//!
//! * Each connection owns one [`FrameBuffer`]: bytes land in it
//!   straight off `poll_read`, frames are *peeked* (header + checksum
//!   verified in place), payloads are decoded **borrowed from the
//!   buffer** — `Batch` frames go through
//!   [`BatchView`](crate::codec::BatchView), so records flow into
//!   [`SensorClient::try_submit_sequenced`] without the per-frame `Vec`
//!   the blocking path used to build — and only then is the frame
//!   consumed.
//! * A frame is consumed exactly once; a mid-batch backpressure pause
//!   leaves the frame in the buffer and remembers how many records were
//!   already submitted (`batch_done`), so resumption never re-submits.
//!   Both pauses resume there: a NACK waiting for outbound room, and a
//!   record whose shard queue is `Block`-full (`held` — already counted
//!   as decoded, so the retry does not count it again). The reactor
//!   never parks on a queue: a serve worker may itself be parked on
//!   this reactor's outbound queue, and the two would wait on each
//!   other.
//! * Outbound frames are batch-popped into a fixed write ring — never
//!   more than the ring has room for — and flushed with vectored writes
//!   (two `IoSlice`s when the ring wraps); a prediction counts as
//!   *delivered* only when its last byte left the ring.
//!
//! # Accounting under containment
//!
//! Each connection's sweep runs under `catch_unwind`. A panicking
//! connection fails **closed**: its registry route is removed (the
//! lock recovers from poisoning — see
//! [`gateway`](crate::gateway)), its in-flight records (decoded but not
//! yet counted ingested/rejected/shed) are re-counted as shed, and
//! `wire.connection_panics` records the event — so the extended
//! accounting identity `decoded = ingested + rejected + shed` still
//! closes and the rest of the fleet keeps serving.

use crate::codec::{self, DecodeError, Frame, Goodbye, HelloAck, NackFrame, NackReason};
use crate::codec::{BatchView, PROTOCOL_VERSION};
use crate::frame::{checksum_of, decode_header, Encoder, FrameHeader, HEADER_BYTES};
use crate::gateway::GatewayConfig;
use crate::gateway::{deregister, register, GatewayCounters, Registry};
use crate::transport::{PollConn, PollRead, PollWrite};
use occusense_serve::{BoundedQueue, PopResult, SensorClient, ServeRuntime, TryPushError};
use std::collections::VecDeque;
use std::io::IoSlice;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Frame-type bytes the reactor dispatches on (see `codec::Frame`).
const FT_RECORD: u8 = 3;
const FT_BATCH: u8 = 4;
const FT_GOODBYE: u8 = 7;

/// Initial per-connection receive buffer; grows geometrically up to
/// `HEADER_BYTES + max_payload` only when a frame actually needs it,
/// so an idle 10 k-connection fleet costs ~40 MB, not ~10 GB.
const INITIAL_RECV_BYTES: usize = 4096;

/// Fixed capacity of each connection's outbound write ring. Gateway
/// frames are small (a `Prediction` is 58 wire bytes), so one ring
/// batches hundreds of frames per vectored write.
const WRITE_RING_BYTES: usize = 16 * 1024;

/// Wire size of the largest frame a gateway sends (a `Prediction`:
/// 41 payload bytes). A batch pop takes at most as many frames as the
/// ring has room for at this size, so popped frames always fit.
const MAX_SENT_FRAME_BYTES: usize = HEADER_BYTES + 41;

/// Per-connection fairness bounds: how many reads / fill-flush rounds
/// one connection may consume in a single sweep.
const MAX_READS_PER_SWEEP: usize = 4;
const MAX_WRITE_ROUNDS_PER_SWEEP: usize = 8;

/// Incremental frame accumulator: raw bytes in, verified frames out,
/// with the payload **borrowed from the buffer** (no per-frame copy).
///
/// The read-side loop is: [`spare_mut`](Self::spare_mut) →
/// fill from the transport → [`commit`](Self::commit) →
/// [`peek`](Self::peek) / process / [`consume`](Self::consume) until
/// `peek` reports it needs more bytes. The buffer starts small and
/// grows geometrically, capped at `HEADER_BYTES + max_payload`, so a
/// frame larger than the cap is refused (via
/// [`DecodeError::Oversize`]) before it can make the buffer grow.
///
/// Shared by the gateway's reactor and `wire_storm`'s multiplexed
/// client drivers.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_payload: usize,
}

impl FrameBuffer {
    /// A fresh buffer accepting payloads up to `max_payload` bytes.
    pub fn new(max_payload: usize) -> Self {
        let cap = (HEADER_BYTES + max_payload).min(INITIAL_RECV_BYTES.max(HEADER_BYTES + 1));
        Self {
            buf: vec![0; cap],
            start: 0,
            end: 0,
            max_payload,
        }
    }

    /// Unconsumed bytes currently buffered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer holds no unconsumed bytes (an EOF here is a
    /// clean close; an EOF with `!is_empty()` is a truncated frame).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The writable tail for the next transport read. Compacts (and,
    /// when a frame genuinely needs more room, grows — geometrically,
    /// capped at `HEADER_BYTES + max_payload`) so the returned slice is
    /// non-empty unless an oversize frame is pending, which `peek`
    /// refuses anyway.
    pub fn spare_mut(&mut self) -> &mut [u8] {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let cap = HEADER_BYTES + self.max_payload;
                let target = (self.buf.len() * 2).min(cap);
                if target > self.buf.len() {
                    self.buf.resize(target, 0);
                }
            }
        }
        self.buf.get_mut(self.end..).unwrap_or(&mut [])
    }

    /// Records that `n` bytes were written into
    /// [`spare_mut`](Self::spare_mut).
    pub fn commit(&mut self, n: usize) {
        self.end = (self.end + n).min(self.buf.len());
    }

    // lint:no_alloc
    /// Verifies and exposes the next complete frame without copying:
    /// header decoded, length bounded, checksum checked, payload
    /// returned as a borrow of the internal buffer. `Ok(None)` means
    /// "read more bytes and retry".
    ///
    /// # Errors
    ///
    /// Any framing [`DecodeError`] — bad magic/version/flags, an
    /// oversize declaration (refused before buffering the payload), or
    /// a checksum mismatch. All of them desynchronise the stream and
    /// are fatal for the connection.
    pub fn peek(&self) -> Result<Option<(FrameHeader, &[u8])>, DecodeError> {
        let avail = self.buf.get(self.start..self.end).unwrap_or_default();
        if avail.len() < HEADER_BYTES {
            return Ok(None);
        }
        let header = decode_header(avail)?;
        if header.payload_len > self.max_payload {
            return Err(DecodeError::Oversize {
                len: header.payload_len,
                max: self.max_payload,
            });
        }
        let total = HEADER_BYTES + header.payload_len;
        let Some(frame_bytes) = avail.get(..total) else {
            return Ok(None);
        };
        let payload = frame_bytes.get(HEADER_BYTES..).unwrap_or_default();
        let computed = checksum_of(header.frame_type, payload);
        if computed != header.checksum {
            return Err(DecodeError::ChecksumMismatch {
                expected: header.checksum,
                computed,
            });
        }
        Ok(Some((header, payload)))
    }

    /// Consumes the frame last returned by [`peek`](Self::peek):
    /// advances past its header plus `payload_len` bytes.
    pub fn consume(&mut self, payload_len: usize) {
        self.start = (self.start + HEADER_BYTES + payload_len).min(self.end);
    }
    // lint:end_no_alloc
}

/// Fixed-capacity outbound byte ring: frames are encoded in, bytes are
/// flushed out with vectored writes (two [`IoSlice`]s when wrapped).
/// Prediction completion marks let the reactor count a prediction as
/// delivered exactly when its last byte leaves the ring.
#[derive(Debug)]
struct WriteRing {
    buf: Box<[u8]>,
    head: usize,
    len: usize,
    scratch: Vec<u8>,
    /// Cumulative bytes ever queued / ever flushed.
    queued: u64,
    flushed: u64,
    /// `queued` offsets at which a `Prediction` frame completes.
    pred_marks: VecDeque<u64>,
}

impl WriteRing {
    fn new(capacity: usize) -> Self {
        Self {
            buf: vec![0; capacity.max(HEADER_BYTES + 64)].into_boxed_slice(),
            head: 0,
            len: 0,
            scratch: Vec::with_capacity(HEADER_BYTES + 64),
            queued: 0,
            flushed: 0,
            pred_marks: VecDeque::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes that can be queued before the next flush.
    fn free(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Encodes `frame` into the ring. `false` means "no space — retry
    /// after a flush". A frame that refuses to encode (protocol bound
    /// exceeded — impossible for gateway-originated frames) is dropped
    /// and reported as consumed.
    fn push_frame(&mut self, encoder: &mut Encoder, frame: &Frame) -> bool {
        self.scratch.clear();
        if encoder.encode_into(frame, &mut self.scratch).is_err() {
            return true;
        }
        let n = self.scratch.len();
        let cap = self.buf.len();
        if n > cap - self.len {
            return false;
        }
        let tail = (self.head + self.len) % cap;
        let first = n.min(cap - tail);
        let (a, b) = self.scratch.split_at(first);
        if let Some(dst) = self.buf.get_mut(tail..tail + first) {
            dst.copy_from_slice(a);
        }
        if !b.is_empty() {
            if let Some(dst) = self.buf.get_mut(..b.len()) {
                dst.copy_from_slice(b);
            }
        }
        self.len += n;
        self.queued += n as u64;
        if matches!(frame, Frame::Prediction(_)) {
            self.pred_marks.push_back(self.queued);
        }
        true
    }

    /// The ring's unflushed bytes as one or two I/O slices for a
    /// vectored write.
    fn slices(&self) -> ([IoSlice<'_>; 2], usize) {
        let cap = self.buf.len();
        let end = self.head + self.len;
        if end <= cap {
            let a = self.buf.get(self.head..end).unwrap_or_default();
            ([IoSlice::new(a), IoSlice::new(&[])], 1)
        } else {
            let a = self.buf.get(self.head..).unwrap_or_default();
            let b = self.buf.get(..end - cap).unwrap_or_default();
            ([IoSlice::new(a), IoSlice::new(b)], 2)
        }
    }

    /// Marks `n` bytes as flushed; returns how many predictions
    /// completed (their final byte left the ring).
    fn advance(&mut self, n: usize) -> u64 {
        let n = n.min(self.len);
        self.head = (self.head + n) % self.buf.len();
        self.len -= n;
        self.flushed += n as u64;
        let mut completed = 0;
        while self
            .pred_marks
            .front()
            .is_some_and(|&mark| mark <= self.flushed)
        {
            self.pred_marks.pop_front();
            completed += 1;
        }
        completed
    }
}

/// Everything a reactor thread needs, cloned per reactor.
#[derive(Clone)]
pub(crate) struct ReactorCtx {
    pub(crate) runtime: Arc<ServeRuntime>,
    pub(crate) registry: Registry,
    pub(crate) config: GatewayConfig,
    pub(crate) counters: GatewayCounters,
    pub(crate) stop: Arc<AtomicBool>,
    /// Drain-and-handoff mode: live connections keep serving, but new
    /// handshakes are refused with a `Shutdown` NACK so a fleet
    /// controller can re-route sensors before shutting this worker
    /// down.
    pub(crate) draining: Arc<AtomicBool>,
}

/// Hand-off point between the accept loop and one reactor thread.
pub(crate) struct Injector {
    incoming: Mutex<Vec<Box<dyn PollConn>>>,
}

impl Injector {
    pub(crate) fn new() -> Self {
        Self {
            incoming: Mutex::new(Vec::new()),
        }
    }

    /// Queues a freshly accepted connection for the owning reactor.
    pub(crate) fn push(&self, conn: Box<dyn PollConn>) {
        // The lock only guards a Vec of boxed handles; a panic cannot
        // leave it half-mutated, so recovery is sound.
        self.incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(conn);
    }

    fn drain(&self) -> Vec<Box<dyn PollConn>> {
        let mut guard = self.incoming.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *guard)
    }
}

/// Lifecycle of one multiplexed connection — mirrors the blocking
/// gateway's reader-thread control flow, state-machine-ified.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Post-accept, pre-handshake: only a `Hello` is legal; `deadline`
    /// is the handshake timeout.
    Hello { deadline: Instant },
    /// Handshake done: records ingest, predictions flow back.
    Active,
    /// Client said `Goodbye`: wait (with progress-based grace) for
    /// every in-flight prediction to resolve before answering.
    Draining {
        resolved: u64,
        last_progress: Instant,
    },
    /// A terminal control frame (server `Goodbye`, or a refusal NACK)
    /// is waiting for outbound-queue space under the `Block` policy.
    Parting { since: Instant },
    /// Route deregistered, queue closed: flush the remnants, then
    /// finalize.
    Closing { since: Instant },
}

/// One connection's reactor-side state.
struct Conn {
    io: Box<dyn PollConn>,
    inbuf: FrameBuffer,
    out: WriteRing,
    encoder: Encoder,
    phase: Phase,
    sensor_id: String,
    client: Option<SensorClient>,
    outbound: Option<Arc<BoundedQueue<Frame>>>,
    /// The outbound queue reported `Closed`: it is drained for good.
    outbound_done: bool,
    /// Frames popped from the outbound queue that did not fit the
    /// ring, in order (empty, and unallocated, in practice: pops are
    /// sized to the ring's room).
    staged: VecDeque<Frame>,
    /// Control frame awaiting outbound-queue space (`Block` full).
    /// While set, ingress is paused — the reactor-side face of the
    /// backpressure a blocking push used to exert on the reader thread.
    pending: Option<Frame>,
    /// Records of the *front* `Batch` frame already submitted (resume
    /// point after a mid-batch pause).
    batch_done: usize,
    /// The record at the resume point found its shard queue
    /// `Block`-full. It is already counted decoded (and in
    /// `unaccounted`); while set, ingress is paused and each sweep
    /// retries that record.
    held: bool,
    ingested: u64,
    delivered: u64,
    /// Records decoded but not yet counted ingested/rejected/shed —
    /// the panic-containment residue re-counted as shed.
    unaccounted: u64,
    read_eof: bool,
    dead: bool,
    stop_seen: bool,
}

impl Conn {
    fn new(io: Box<dyn PollConn>, ctx: &ReactorCtx) -> Self {
        Self {
            io,
            inbuf: FrameBuffer::new(ctx.config.max_payload),
            out: WriteRing::new(WRITE_RING_BYTES),
            encoder: Encoder::new(),
            phase: Phase::Hello {
                deadline: Instant::now() + ctx.config.handshake_timeout,
            },
            sensor_id: String::new(),
            client: None,
            outbound: None,
            outbound_done: false,
            staged: VecDeque::new(),
            pending: None,
            batch_done: 0,
            held: false,
            ingested: 0,
            delivered: 0,
            unaccounted: 0,
            read_eof: false,
            dead: false,
            stop_seen: false,
        }
    }
}

fn nack(seq: u64, reason: NackReason) -> Frame {
    Frame::Nack(NackFrame { seq, reason })
}

/// Offers a frame to the outbound queue without ever parking. Returns
/// the frame back only under `Block` with a full queue; rejections and
/// drops are counted by the queue itself (exactly as the blocking
/// gateway's `push` did) and closed queues swallow the frame silently.
fn offer(outbound: &Option<Arc<BoundedQueue<Frame>>>, frame: Frame) -> Option<Frame> {
    let Some(queue) = outbound else {
        return None;
    };
    match queue.try_push(frame) {
        Ok(()) => None,
        Err(TryPushError::Full(frame)) => Some(frame),
        Err(TryPushError::Rejected(_) | TryPushError::Closed(_)) => None,
    }
}

/// Removes the connection's route (ptr-eq rule — a reconnect's newer
/// route survives), evicting the sensor's carried temporal state when
/// this was its last live route, then closes the queue and enters
/// `Closing` to flush the remnants.
fn close_now(conn: &mut Conn, ctx: &ReactorCtx) {
    if let Some(queue) = &conn.outbound {
        if deregister(&ctx.registry, &conn.sensor_id, queue, &ctx.counters) {
            ctx.runtime.evict_sensor(&conn.sensor_id);
        }
        queue.close();
    }
    conn.pending = None;
    conn.phase = Phase::Closing {
        since: Instant::now(),
    };
}

/// Sends a terminal control frame through the outbound queue (so it
/// stays FIFO behind anything already queued) and closes. A `Block`-full
/// queue stashes it in `pending` and enters `Parting` to retry.
fn part(conn: &mut Conn, ctx: &ReactorCtx, frame: Frame) {
    match offer(&conn.outbound, frame) {
        None => close_now(conn, ctx),
        Some(frame) => {
            conn.pending = Some(frame);
            conn.phase = Phase::Parting {
                since: Instant::now(),
            };
        }
    }
}

/// Final teardown — idempotent with `close_now` (the ptr-eq deregister
/// is a no-op the second time). Records decoded but never resolved — a
/// held record, or a panic's residue — are re-counted as shed, so
/// `decoded = ingested + rejected + shed` closes.
fn finalize(conn: &mut Conn, ctx: &ReactorCtx) {
    if conn.unaccounted > 0 {
        ctx.counters.records_shed.add(conn.unaccounted);
        conn.unaccounted = 0;
    }
    if let Some(queue) = conn.outbound.take() {
        if deregister(&ctx.registry, &conn.sensor_id, &queue, &ctx.counters) {
            ctx.runtime.evict_sensor(&conn.sensor_id);
        }
        queue.close();
    }
}

/// Fails a panicked connection closed: the panic is counted and
/// [`finalize`] re-counts its unresolved records as shed and removes
/// the route, so the rest of the fleet keeps serving.
fn contain_panic(conn: &mut Conn, ctx: &ReactorCtx) {
    ctx.counters.connection_panics.inc();
    finalize(conn, ctx);
}

/// What submitting one decoded record left the connection to do.
//
// `Nack` carries a small control frame, never a Record/Batch — boxing
// it would buy nothing but an allocation on the backpressure path.
#[allow(clippy::large_enum_variant)]
enum Ingest {
    /// Resolved: ingested, or NACKed into the outbound queue.
    Done,
    /// Resolved with a NACK that found the outbound queue `Block`-full:
    /// stash it as pending and pause ingress.
    Nack(Frame),
    /// The shard queue is `Block`-full: the record is held (not
    /// resolved) and must be retried later.
    Held,
}

/// Submits one decoded record under the client's sequence number,
/// without ever parking. Refusals become NACKs through the outbound
/// queue. A retry of a `held` record is not counted decoded again.
#[allow(clippy::too_many_arguments)]
fn ingest_one(
    ctx: &ReactorCtx,
    client: &mut Option<SensorClient>,
    outbound: &Option<Arc<BoundedQueue<Frame>>>,
    ingested: &mut u64,
    unaccounted: &mut u64,
    held: &mut bool,
    seq: u64,
    record: occusense_dataset::CsiRecord,
    label: Option<u8>,
) -> Ingest {
    let Some(client) = client.as_mut() else {
        return Ingest::Done;
    };
    if !*held {
        ctx.counters.records_decoded.inc();
        // `unaccounted` covers the window between "decoded" and
        // "outcome counted": a panic inside submit, or a close while
        // the record is held, re-counts it as shed.
        *unaccounted += 1;
    }
    let reason = match client.try_submit_sequenced(seq, record, label) {
        Err(TryPushError::Full(_)) => {
            *held = true;
            return Ingest::Held;
        }
        Ok(()) => {
            ctx.counters.records_ingested.inc();
            *held = false;
            *unaccounted -= 1;
            *ingested += 1;
            return Ingest::Done;
        }
        Err(TryPushError::Rejected(_)) => {
            ctx.counters.records_rejected.inc();
            NackReason::QueueFull
        }
        Err(TryPushError::Closed(_)) => {
            ctx.counters.records_shed.inc();
            NackReason::Shutdown
        }
    };
    *held = false;
    *unaccounted -= 1;
    match offer(outbound, nack(seq, reason)) {
        None => Ingest::Done,
        Some(frame) => Ingest::Nack(frame),
    }
}

/// What processing the front frame decided (computed under the
/// payload borrow, applied after it ends).
//
// The `Pause` variant's stashed `Frame` is always a small control
// frame (NACK/HelloAck), never a Record/Batch — boxing it would buy
// nothing but an allocation on the backpressure path.
#[allow(clippy::large_enum_variant)]
enum Outcome {
    /// Not a complete frame yet — read more.
    NeedBytes,
    /// Frame fully handled: consume `0` bytes of payload… (len).
    Done(usize),
    /// A valid `Hello` during the handshake.
    Hello(usize, codec::Hello),
    /// First frame was not a `Hello` (handshake failure).
    NotHello,
    /// Client `Goodbye`: begin the drain.
    Drain(usize),
    /// A decoded-but-illegal frame (client sent a server-role frame or
    /// a second `Hello`): refuse and close.
    Unsupported(usize),
    /// The envelope names another protocol version: the peer speaks a
    /// different wire revision, not a corrupt one.
    StaleVersion,
    /// The stream is desynchronised or a payload refused to decode.
    Malformed,
    /// Backpressure pause: `(payload_len, frame, consume)` — stash the
    /// frame as pending; consume only when the input frame finished.
    Pause(usize, Frame, bool),
    /// A record is held on a full shard queue: keep the frame and
    /// retry at the resume point.
    Held,
}

/// Refuses a connection that has not completed its handshake: no
/// outbound queue exists yet, so the NACK goes straight into the
/// (empty) write ring, then the connection closes.
fn refuse_handshake(conn: &mut Conn, ctx: &ReactorCtx, reason: NackReason) {
    let _ = conn.out.push_frame(&mut conn.encoder, &nack(0, reason));
    close_now(conn, ctx);
}

/// Completes the handshake: version check, tenant gate, runtime
/// client, outbound queue registration, `HelloAck`.
fn handshake(conn: &mut Conn, ctx: &ReactorCtx, hello: codec::Hello) {
    ctx.counters.frames_received.inc();
    if hello.protocol != PROTOCOL_VERSION {
        refuse_handshake(conn, ctx, NackReason::Unsupported);
        return;
    }
    // Tenant gate: a runtime labelled with a tenant serves only
    // sensors claiming that tenant — a mis-routed sensor must never
    // be scored by (or train) another tenant's model. The untenanted
    // default namespace (empty label) enforces nothing.
    let expected = ctx.runtime.tenant();
    if !expected.is_empty() && hello.tenant != expected {
        refuse_handshake(conn, ctx, NackReason::Unsupported);
        return;
    }
    // Drain-and-handoff: refuse *new* sensors while live ones finish,
    // with the retryable `Shutdown` reason so the fleet controller
    // re-routes them to a surviving worker.
    if ctx.draining.load(Ordering::SeqCst) {
        refuse_handshake(conn, ctx, NackReason::Shutdown);
        return;
    }
    ctx.counters.connections.inc();
    let client = ctx.runtime.client(&hello.sensor_id);
    let shard = client.shard() as u32;
    let queue = Arc::new(BoundedQueue::new(
        ctx.config.outbound_capacity.max(1),
        ctx.config.outbound_policy,
    ));
    register(&ctx.registry, &hello.sensor_id, &queue, &ctx.counters);
    // Fresh queue with capacity ≥ 1: cannot be Full.
    // lint:allow(swallow, reason = "infallible by construction: the queue was created two statements up with capacity max(1) and no other handle exists yet")
    let _ = queue.try_push(Frame::HelloAck(HelloAck {
        protocol: PROTOCOL_VERSION,
        shard,
    }));
    conn.sensor_id = hello.sensor_id;
    conn.client = Some(client);
    conn.outbound = Some(queue);
    conn.phase = Phase::Active;
}

/// Drains every complete frame currently buffered. Stops on phase
/// change, a backpressure pause, or when more bytes are needed.
fn parse_frames(conn: &mut Conn, ctx: &ReactorCtx) {
    loop {
        if conn.dead || conn.pending.is_some() {
            return;
        }
        let hello_phase = match conn.phase {
            Phase::Hello { .. } => true,
            Phase::Active => false,
            _ => return,
        };
        let outcome = {
            let Conn {
                inbuf,
                client,
                outbound,
                batch_done,
                held,
                ingested,
                unaccounted,
                ..
            } = conn;
            match inbuf.peek() {
                Ok(None) => Outcome::NeedBytes,
                Err(DecodeError::UnsupportedVersion { .. }) => Outcome::StaleVersion,
                Err(_) => Outcome::Malformed,
                Ok(Some((header, payload))) if hello_phase => {
                    match codec::decode_payload(header.frame_type, payload) {
                        Ok(Frame::Hello(h)) => Outcome::Hello(header.payload_len, h),
                        Ok(_) => Outcome::NotHello,
                        Err(_) => Outcome::Malformed,
                    }
                }
                Ok(Some((header, payload))) => match header.frame_type {
                    FT_BATCH => match BatchView::parse(payload) {
                        Err(_) => Outcome::Malformed,
                        Ok(view) => {
                            if *batch_done == 0 && !*held {
                                ctx.counters.frames_received.inc();
                            }
                            let mut paused = None;
                            for (seq, record, label) in view.records().skip(*batch_done) {
                                match ingest_one(
                                    ctx,
                                    client,
                                    outbound,
                                    ingested,
                                    unaccounted,
                                    held,
                                    seq,
                                    record,
                                    label,
                                ) {
                                    Ingest::Done => *batch_done += 1,
                                    Ingest::Nack(frame) => {
                                        *batch_done += 1;
                                        paused =
                                            Some(Outcome::Pause(header.payload_len, frame, false));
                                        break;
                                    }
                                    Ingest::Held => {
                                        paused = Some(Outcome::Held);
                                        break;
                                    }
                                }
                            }
                            // A mid-batch pause keeps the frame:
                            // `batch_done` is the resume point.
                            paused.unwrap_or_else(|| {
                                *batch_done = 0;
                                Outcome::Done(header.payload_len)
                            })
                        }
                    },
                    FT_RECORD => match codec::decode_payload(FT_RECORD, payload) {
                        Ok(Frame::Record(r)) => {
                            if !*held {
                                ctx.counters.frames_received.inc();
                            }
                            match ingest_one(
                                ctx,
                                client,
                                outbound,
                                ingested,
                                unaccounted,
                                held,
                                r.seq,
                                r.record,
                                r.label,
                            ) {
                                Ingest::Done => Outcome::Done(header.payload_len),
                                // The record is already resolved: the
                                // frame must be consumed with the NACK
                                // pending, or it would resubmit.
                                Ingest::Nack(frame) => {
                                    Outcome::Pause(header.payload_len, frame, true)
                                }
                                Ingest::Held => Outcome::Held,
                            }
                        }
                        _ => Outcome::Malformed,
                    },
                    FT_GOODBYE => match codec::decode_payload(FT_GOODBYE, payload) {
                        Ok(_) => {
                            ctx.counters.frames_received.inc();
                            Outcome::Drain(header.payload_len)
                        }
                        Err(_) => Outcome::Malformed,
                    },
                    other => match codec::decode_payload(other, payload) {
                        Ok(_) => {
                            ctx.counters.frames_received.inc();
                            Outcome::Unsupported(header.payload_len)
                        }
                        Err(_) => Outcome::Malformed,
                    },
                },
            }
        };
        match outcome {
            Outcome::NeedBytes => return,
            Outcome::Done(len) => conn.inbuf.consume(len),
            Outcome::Hello(len, hello) => {
                conn.inbuf.consume(len);
                handshake(conn, ctx, hello);
            }
            Outcome::NotHello => {
                // Mirrors the blocking gateway: a failed handshake of
                // any flavour lands in `transport_timeouts`.
                ctx.counters.transport_timeouts.inc();
                conn.dead = true;
                return;
            }
            Outcome::Drain(len) => {
                conn.inbuf.consume(len);
                conn.phase = Phase::Draining {
                    resolved: 0,
                    last_progress: Instant::now(),
                };
                return;
            }
            Outcome::Unsupported(len) => {
                conn.inbuf.consume(len);
                part(conn, ctx, nack(0, NackReason::Unsupported));
                return;
            }
            Outcome::StaleVersion => {
                // Refused from the header alone, like a `Hello` whose
                // protocol field disagrees: the peer hears why.
                if hello_phase {
                    refuse_handshake(conn, ctx, NackReason::Unsupported);
                } else {
                    part(conn, ctx, nack(0, NackReason::Unsupported));
                }
                return;
            }
            Outcome::Malformed => {
                if hello_phase {
                    ctx.counters.transport_timeouts.inc();
                    conn.dead = true;
                } else {
                    ctx.counters.malformed_frames.inc();
                    part(conn, ctx, nack(0, NackReason::Malformed));
                }
                return;
            }
            Outcome::Pause(len, frame, consume) => {
                if consume {
                    conn.inbuf.consume(len);
                }
                conn.pending = Some(frame);
                return;
            }
            Outcome::Held => return,
        }
    }
}

/// Reads as many bytes as the socket will give (bounded per sweep) and
/// parses them. Returns whether anything moved.
fn pump_read(conn: &mut Conn, ctx: &ReactorCtx) -> bool {
    // Leftover complete frames from the previous sweep (e.g. after a
    // backpressure pause lifted) parse without any new bytes.
    let was_held = conn.held;
    parse_frames(conn, ctx);
    let mut progress = was_held && !conn.held;
    for _ in 0..MAX_READS_PER_SWEEP {
        if conn.dead || conn.pending.is_some() || conn.held {
            break;
        }
        if !matches!(conn.phase, Phase::Hello { .. } | Phase::Active) {
            break;
        }
        let result = {
            let spare = conn.inbuf.spare_mut();
            if spare.is_empty() {
                break;
            }
            conn.io.poll_read(spare)
        };
        match result {
            Ok(PollRead::Data(n)) => {
                conn.inbuf.commit(n);
                progress = true;
                parse_frames(conn, ctx);
            }
            Ok(PollRead::WouldBlock) => break,
            Ok(PollRead::Eof) => {
                conn.read_eof = true;
                break;
            }
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    progress
}

/// Moves frames into the write ring: leftovers first, then one batch
/// pop into the reactor's reusable `popped` buffer, sized to the ring's
/// room. Returns whether anything moved.
fn fill_ring(conn: &mut Conn, popped: &mut Vec<Frame>) -> bool {
    let mut progress = false;
    while let Some(frame) = conn.staged.pop_front() {
        // A frame larger than the whole ring can never be delivered;
        // dropping it beats wedging the connection. (Cannot happen with
        // real protocol frames: a Prediction/NACK/Goodbye is far under
        // 16 KiB.)
        if !conn.out.push_frame(&mut conn.encoder, &frame) && !conn.out.is_empty() {
            conn.staged.push_front(frame);
            return progress;
        }
        progress = true;
    }
    let room = conn.out.free() / MAX_SENT_FRAME_BYTES;
    let Some(queue) = &conn.outbound else {
        return progress;
    };
    if conn.outbound_done || room == 0 {
        return progress;
    }
    popped.clear();
    match queue.try_pop_batch(room, popped) {
        PopResult::Popped(_) => {}
        PopResult::Empty => return progress,
        PopResult::Closed => {
            conn.outbound_done = true;
            return progress;
        }
    }
    for frame in popped.drain(..) {
        if !conn.staged.is_empty() || !conn.out.push_frame(&mut conn.encoder, &frame) {
            conn.staged.push_back(frame);
        }
    }
    true
}

/// Moves frames outbound queue → write ring → socket. Returns whether
/// anything moved.
fn pump_write(conn: &mut Conn, ctx: &ReactorCtx, popped: &mut Vec<Frame>) -> bool {
    let mut progress = false;
    for _ in 0..MAX_WRITE_ROUNDS_PER_SWEEP {
        progress |= fill_ring(conn, popped);
        if conn.out.is_empty() {
            return progress;
        }
        let (slices, n) = conn.out.slices();
        let io_slices = match slices.get(..n) {
            Some(s) => s,
            None => &slices,
        };
        let result = conn.io.poll_write(io_slices);
        match result {
            Ok(PollWrite::Wrote(k)) => {
                let delivered = conn.out.advance(k);
                conn.delivered += delivered;
                ctx.counters.predictions_sent.add(delivered);
                progress = true;
            }
            Ok(PollWrite::WouldBlock) => return progress,
            Err(_) => {
                conn.dead = true;
                return progress;
            }
        }
    }
    progress
}

/// One scheduling sweep over a connection: retry pending control
/// frames, write, read, then advance the lifecycle phase. Returns
/// `(progress, done)`; `done` means the slot can be dropped.
fn pump(
    conn: &mut Conn,
    ctx: &ReactorCtx,
    stopping: bool,
    popped: &mut Vec<Frame>,
) -> (bool, bool) {
    let mut progress = false;
    if stopping && !conn.stop_seen {
        conn.stop_seen = true;
        match conn.phase {
            Phase::Hello { .. } => {
                ctx.counters.transport_timeouts.inc();
                conn.dead = true;
            }
            Phase::Active => close_now(conn, ctx),
            _ => {}
        }
    }
    if let Some(frame) = conn.pending.take() {
        match offer(&conn.outbound, frame) {
            None => progress = true,
            Some(frame) => conn.pending = Some(frame),
        }
    }
    if !conn.dead {
        progress |= pump_write(conn, ctx, popped);
    }
    if !conn.dead && conn.pending.is_none() {
        progress |= pump_read(conn, ctx);
    }
    let now = Instant::now();
    match conn.phase {
        Phase::Hello { deadline } => {
            if conn.read_eof || now >= deadline {
                ctx.counters.transport_timeouts.inc();
                conn.dead = true;
            }
        }
        Phase::Active => {
            // A held record still has frames behind it to ingest.
            if conn.read_eof && !conn.held {
                close_now(conn, ctx);
            }
        }
        Phase::Draining {
            resolved,
            last_progress,
        } => {
            let queue_counters = conn
                .outbound
                .as_ref()
                .map(|q| q.counters())
                .unwrap_or_default();
            let now_resolved = conn.delivered + queue_counters.dropped + queue_counters.rejected;
            if now_resolved >= conn.ingested {
                let goodbye = Frame::Goodbye(Goodbye {
                    count: conn.delivered,
                });
                part(conn, ctx, goodbye);
            } else if now_resolved != resolved {
                conn.phase = Phase::Draining {
                    resolved: now_resolved,
                    last_progress: now,
                };
            } else if now.duration_since(last_progress) > ctx.config.drain_grace {
                let goodbye = Frame::Goodbye(Goodbye {
                    count: conn.delivered,
                });
                part(conn, ctx, goodbye);
            }
        }
        Phase::Parting { since } => {
            if conn.pending.is_none() {
                close_now(conn, ctx);
            } else if now.duration_since(since) > ctx.config.drain_grace {
                conn.pending = None;
                close_now(conn, ctx);
            }
        }
        Phase::Closing { since } => {
            let flushed = conn.out.is_empty()
                && conn.staged.is_empty()
                && (conn.outbound.is_none() || conn.outbound_done);
            if conn.dead || flushed || now.duration_since(since) > ctx.config.drain_grace {
                finalize(conn, ctx);
                return (progress, true);
            }
        }
    }
    if conn.dead {
        finalize(conn, ctx);
        return (progress, true);
    }
    (progress, false)
}

/// Adaptive park: spin-yield while traffic is hot, back off to short
/// sleeps as the reactor idles.
fn park(idle_sweeps: u32) {
    if idle_sweeps < 32 {
        std::thread::yield_now();
    } else if idle_sweeps < 256 {
        std::thread::sleep(Duration::from_micros(50));
    } else {
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// The reactor body: adopt injected connections, sweep every live one,
/// contain panics per connection, park when idle. Exits once a stop is
/// requested and every connection has wound down.
pub(crate) fn reactor_loop(injector: Arc<Injector>, ctx: ReactorCtx) {
    let mut conns: Vec<Conn> = Vec::new();
    // Outbound batch-pop buffer shared by every connection's sweep.
    let mut popped: Vec<Frame> = Vec::new();
    let mut idle_sweeps: u32 = 0;
    loop {
        let stopping = ctx.stop.load(Ordering::SeqCst);
        for io in injector.drain() {
            conns.push(Conn::new(io, &ctx));
        }
        let mut progress = false;
        conns.retain_mut(|conn| {
            match catch_unwind(AssertUnwindSafe(|| pump(conn, &ctx, stopping, &mut popped))) {
                Ok((moved, done)) => {
                    progress |= moved;
                    !done
                }
                Err(_) => {
                    // The connection's own panic must not take down
                    // its siblings; containment itself is also fused.
                    let _ = catch_unwind(AssertUnwindSafe(|| contain_panic(conn, &ctx)));
                    false
                }
            }
        });
        if stopping && conns.is_empty() {
            break;
        }
        if progress {
            idle_sweeps = 0;
        } else {
            idle_sweeps = idle_sweeps.saturating_add(1);
        }
        park(idle_sweeps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Hello, PredictionFrame};
    use crate::frame::DEFAULT_MAX_PAYLOAD;

    fn frame_bytes(frame: &Frame) -> Vec<u8> {
        Encoder::default().encode(frame).expect("encode")
    }

    #[test]
    fn frame_buffer_grows_compacts_and_parses_across_fragments() {
        let hello = Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "buffer-test".into(),
            tenant: String::new(),
        });
        let bytes = frame_bytes(&hello);
        let mut buf = FrameBuffer::new(1 << 16);

        // Feed the frame one byte at a time: peek must stay Ok(None)
        // until the last byte lands.
        for (i, b) in bytes.iter().enumerate() {
            assert!(
                buf.peek().expect("no error on prefix").is_none(),
                "byte {i}: incomplete frame must not parse"
            );
            let spare = buf.spare_mut();
            assert!(!spare.is_empty());
            if let Some(slot) = spare.first_mut() {
                *slot = *b;
            }
            buf.commit(1);
        }
        let (header, payload) = buf
            .peek()
            .expect("complete frame decodes")
            .expect("frame present");
        assert_eq!(header.frame_type, 1);
        assert_eq!(payload.len(), header.payload_len);
        let payload_len = header.payload_len;
        buf.consume(payload_len);
        assert!(buf.is_empty());

        // After consuming, the next write may reuse the front (reset /
        // compaction) — feed two frames back to back and drain both.
        let two: Vec<u8> = [bytes.as_slice(), bytes.as_slice()].concat();
        let mut fed = 0;
        while fed < two.len() {
            let spare = buf.spare_mut();
            let n = spare.len().min(two.len() - fed);
            assert!(n > 0, "buffer must always offer spare room under cap");
            if let Some(dst) = spare.get_mut(..n) {
                dst.copy_from_slice(&two[fed..fed + n]);
            }
            buf.commit(n);
            fed += n;
        }
        for _ in 0..2 {
            let (h, _) = buf.peek().expect("decodes").expect("present");
            let len = h.payload_len;
            buf.consume(len);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn frame_buffer_starts_small_and_caps_at_max_payload() {
        let mut buf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
        // 10k idle connections must not cost 10 GB: the initial
        // allocation is a few KiB, not HEADER + max_payload.
        assert!(buf.spare_mut().len() <= INITIAL_RECV_BYTES);
        let tiny = FrameBuffer::new(8);
        assert!(tiny.max_payload == 8);
    }

    #[test]
    fn write_ring_wraps_and_counts_predictions_on_flush_boundary() {
        let mut encoder = Encoder::default();
        let pred = Frame::Prediction(PredictionFrame {
            seq: 1,
            timestamp_s: 2.0,
            occupied: 1,
            proba: 0.75,
            model_version: 1,
            latency_ns: 10,
        });
        let pred_len = frame_bytes(&pred).len();
        // Room for two predictions plus change, so the third push
        // wraps or refuses depending on drain progress.
        let mut ring = WriteRing::new(pred_len * 2 + 8);
        assert!(ring.push_frame(&mut encoder, &pred));
        assert!(ring.push_frame(&mut encoder, &pred));
        assert!(
            !ring.push_frame(&mut encoder, &pred),
            "a full ring must refuse, not overwrite"
        );

        // Partial flush: the first prediction only counts once its
        // *last* byte leaves.
        assert_eq!(ring.advance(pred_len - 1), 0);
        assert_eq!(ring.advance(1), 1);
        // Now there is room again — the refused frame fits (wrapped).
        assert!(ring.push_frame(&mut encoder, &pred));
        let (slices, n) = ring.slices();
        let queued: usize = slices.iter().take(n).map(|s| s.len()).sum();
        assert_eq!(queued, pred_len * 2);
        assert_eq!(ring.advance(queued), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn write_ring_drops_unencodable_frames_as_consumed() {
        let mut encoder = Encoder::default();
        let oversized = Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "x".repeat(MAX_SENSOR_ID_BYTES_PLUS_ONE),
            tenant: String::new(),
        });
        let mut ring = WriteRing::new(1024);
        // Returning true (consumed) keeps the pump from re-staging a
        // frame that can never encode.
        assert!(ring.push_frame(&mut encoder, &oversized));
        assert!(ring.is_empty());
    }

    const MAX_SENSOR_ID_BYTES_PLUS_ONE: usize = crate::codec::MAX_SENSOR_ID_BYTES + 1;

    /// Batch pops are sized by `MAX_SENT_FRAME_BYTES`: every frame the
    /// gateway sends must fit in it, or a pop could overfill the ring.
    #[test]
    fn every_sent_frame_fits_the_pop_sizing_bound() {
        let sent = [
            Frame::HelloAck(HelloAck {
                protocol: PROTOCOL_VERSION,
                shard: u32::MAX,
            }),
            Frame::Prediction(PredictionFrame {
                seq: u64::MAX,
                timestamp_s: f64::MAX,
                occupied: 1,
                proba: 1.0,
                model_version: u64::MAX,
                latency_ns: u64::MAX,
            }),
            nack(u64::MAX, NackReason::Malformed),
            Frame::Goodbye(Goodbye { count: u64::MAX }),
        ];
        let sizes: Vec<usize> = sent.iter().map(|f| frame_bytes(f).len()).collect();
        assert_eq!(sizes.iter().max(), Some(&MAX_SENT_FRAME_BYTES));
    }
}
