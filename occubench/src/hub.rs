//! The client side of one site-hub connection, driven without blocking
//! over the wire crate's `PollConn` face with its `Encoder` and
//! `FrameBuffer`. Every prediction that comes back is checked bitwise
//! against the replay pool's `predict_record` reference.

use crate::fixture::Pool;
use crate::trace::{SpanId, Tracer, NO_REQUEST};
use occusense_wire::{
    decode_payload, BatchFrame, Encoder, Frame, FrameBuffer, Goodbye, Hello, PollConn, PollRead,
    PollWrite, RecordFrame, DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION,
};
use std::io::IoSlice;
use std::time::{Duration, Instant};

/// Bytes of sent frames kept per hub for the reactor-ingress replay
/// probe.
const SAMPLE_BYTES: usize = 4 << 20;

/// Sequence numbers tracked at once: a record still unanswered this many
/// records later fails the run, and per-record state stays this size
/// however long the run.
const RING: u64 = 1 << 17;

/// How long an idle sweep sleeps.
pub const TICK: Duration = Duration::from_micros(100);

/// Counters of one hub connection.
#[derive(Debug, Clone, Copy, Default)]
pub struct HubStats {
    /// Predictions received and verified (bitwise equal to the reference).
    pub verified: u64,
    /// Predictions whose score differed from the reference.
    pub mismatches: u64,
    /// Predictions for a sequence number already answered or never sent.
    pub unexpected: u64,
    /// NACKs received.
    pub nacks: u64,
    /// Verified predictions whose label matched the ground truth.
    pub label_hits: u64,
    /// `poll_read` + `poll_write` calls.
    pub polls: u64,
    /// Poll calls that moved bytes.
    pub useful_polls: u64,
    /// Bytes written to the connection.
    pub bytes_written: u64,
    /// Frames encoded.
    pub frames: u64,
}

/// One site hub: a connection forwarding many sensors' records.
pub struct Hub {
    /// Sensor id presented in the handshake.
    pub id: String,
    /// Shard the gateway assigned (`HelloAck.shard`).
    pub shard: u32,
    io: Box<dyn PollConn>,
    inbuf: FrameBuffer,
    out: Vec<u8>,
    out_pos: usize,
    encoder: Encoder,
    pool_offset: usize,
    /// Next sequence number to send; equals records sent so far.
    pub next_seq: u64,
    /// Per sequence number modulo `RING`: when the record counts as
    /// sent, ns since the run's epoch (its due time in an open loop).
    sent_at_ns: Vec<u64>,
    /// Per sequence number modulo `RING`: answered yet.
    answered: Vec<bool>,
    /// Counters.
    pub stats: HubStats,
    /// Round trips of verified predictions, ns, in arrival order; the
    /// caller takes them after each measured stretch.
    pub rtts: Vec<u64>,
    /// The first frames this hub sent, byte for byte (traced runs only).
    pub sample_frames: Vec<Vec<u8>>,
    sample_bytes: usize,
    goodbye_sent: bool,
    /// The gateway answered our `Goodbye` with its own.
    pub done: bool,
    /// Transport or protocol errors; any entry fails the run.
    pub errors: Vec<String>,
}

impl Hub {
    /// Sends `Hello` and waits for the `HelloAck`.
    ///
    /// # Errors
    ///
    /// On a refusal NACK, a transport error or no answer within
    /// `timeout`.
    pub fn handshake(
        mut io: Box<dyn PollConn>,
        id: &str,
        pool_offset: usize,
        timeout: Duration,
    ) -> Result<Self, String> {
        let mut encoder = Encoder::new();
        let hello = encoder
            .encode(&Frame::Hello(Hello {
                protocol: PROTOCOL_VERSION,
                sensor_id: id.to_string(),
                tenant: String::new(),
            }))
            .map_err(|e| format!("{id}: encode hello: {e}"))?;
        let deadline = Instant::now() + timeout;
        let mut written = 0;
        let mut inbuf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
        loop {
            if Instant::now() > deadline {
                return Err(format!("{id}: no HelloAck within {timeout:?}"));
            }
            if written < hello.len() {
                match io.poll_write(&[IoSlice::new(&hello[written..])]) {
                    Ok(PollWrite::Wrote(n)) => written += n,
                    Ok(PollWrite::WouldBlock) => {}
                    Err(e) => return Err(format!("{id}: write hello: {e}")),
                }
            }
            let read = io.poll_read(inbuf.spare_mut());
            match read {
                Ok(PollRead::Data(n)) => inbuf.commit(n),
                Ok(PollRead::WouldBlock) => std::thread::sleep(TICK),
                Ok(PollRead::Eof) => return Err(format!("{id}: closed during handshake")),
                Err(e) => return Err(format!("{id}: read: {e}")),
            }
            let (frame, len) = match inbuf.peek() {
                Ok(None) => continue,
                Ok(Some((header, payload))) => (
                    decode_payload(header.frame_type, payload),
                    header.payload_len,
                ),
                Err(e) => return Err(format!("{id}: handshake decode: {e}")),
            };
            inbuf.consume(len);
            return match frame {
                Ok(Frame::HelloAck(ack)) => Ok(Self {
                    id: id.to_string(),
                    shard: ack.shard,
                    io,
                    inbuf,
                    out: Vec::with_capacity(1 << 16),
                    out_pos: 0,
                    encoder,
                    pool_offset,
                    next_seq: 0,
                    sent_at_ns: vec![0; RING as usize],
                    answered: vec![true; RING as usize],
                    stats: HubStats::default(),
                    rtts: Vec::new(),
                    sample_frames: Vec::new(),
                    sample_bytes: 0,
                    goodbye_sent: false,
                    done: false,
                    errors: Vec::new(),
                }),
                Ok(Frame::Nack(n)) => Err(format!("{id}: handshake refused: {}", n.reason)),
                Ok(other) => Err(format!(
                    "{id}: expected HelloAck, got {}",
                    other.type_name()
                )),
                Err(e) => Err(format!("{id}: handshake payload: {e}")),
            };
        }
    }

    /// Starts tracking the record about to get sequence number
    /// `next_seq`.
    fn track(&mut self, sent_at_ns: u64) {
        let slot = (self.next_seq % RING) as usize;
        if !self.answered[slot] {
            self.errors.push(format!(
                "{}: seq {} still unanswered {RING} records later",
                self.id,
                self.next_seq - RING
            ));
            self.done = true;
        }
        self.sent_at_ns[slot] = sent_at_ns;
        self.answered[slot] = false;
        self.next_seq += 1;
    }

    /// Marks `seq` answered; false when it was never sent, is too old
    /// to track, or was answered before.
    fn answer(&mut self, seq: u64) -> bool {
        if seq >= self.next_seq || self.next_seq - seq > RING {
            return false;
        }
        let slot = &mut self.answered[(seq % RING) as usize];
        !std::mem::replace(slot, true)
    }

    /// Records sent but neither predicted nor NACKed yet.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.stats.verified - self.stats.mismatches - self.stats.nacks
    }

    /// Whether queued bytes are still waiting for the connection.
    pub fn has_pending_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn encode(&mut self, frame: &Frame, tracer: &mut Tracer, parent: SpanId, request: u64) {
        let span = tracer.begin("wire.encode", parent, request);
        let start = self.out.len();
        let result = self.encoder.encode_into(frame, &mut self.out);
        tracer.end(span);
        match result {
            Ok(()) => {
                self.stats.frames += 1;
                let frame = &self.out[start..];
                if tracer.enabled() && self.sample_bytes + frame.len() <= SAMPLE_BYTES {
                    self.sample_bytes += frame.len();
                    self.sample_frames.push(frame.to_vec());
                }
            }
            Err(e) => self.errors.push(format!("{}: encode: {e}", self.id)),
        }
    }

    /// Queues the next record as one `Record` frame, counting it as
    /// sent at `sent_at_ns`.
    pub fn queue_record(
        &mut self,
        pool: &Pool,
        sent_at_ns: u64,
        tracer: &mut Tracer,
        parent: SpanId,
    ) {
        let seq = self.next_seq;
        let frame = Frame::Record(RecordFrame {
            seq,
            label: None,
            record: pool.record(self.pool_offset, seq),
        });
        self.encode(&frame, tracer, parent, seq);
        self.track(sent_at_ns);
    }

    /// Queues the next `n` records as one `Batch` frame.
    pub fn queue_batch(
        &mut self,
        pool: &Pool,
        n: usize,
        sent_at_ns: u64,
        tracer: &mut Tracer,
        parent: SpanId,
    ) {
        let first = self.next_seq;
        let records = (first..first + n as u64)
            .map(|seq| (pool.record(self.pool_offset, seq), None))
            .collect();
        let frame = Frame::Batch(BatchFrame {
            first_seq: first,
            records,
        });
        self.encode(&frame, tracer, parent, first);
        for _ in 0..n {
            self.track(sent_at_ns);
        }
    }

    /// Queues the client `Goodbye` once; the gateway answers with its
    /// own after delivering everything in flight.
    pub fn queue_goodbye(&mut self, tracer: &mut Tracer, parent: SpanId) {
        if !self.goodbye_sent {
            let count = self.next_seq;
            self.encode(
                &Frame::Goodbye(Goodbye { count }),
                tracer,
                parent,
                NO_REQUEST,
            );
            self.goodbye_sent = true;
        }
    }

    /// Writes queued bytes until the connection would block. Returns
    /// whether any byte moved.
    pub fn flush(&mut self, tracer: &mut Tracer, parent: SpanId) -> bool {
        let mut moved = false;
        while self.out_pos < self.out.len() {
            self.stats.polls += 1;
            let span = tracer.begin("wire.poll_write", parent, NO_REQUEST);
            let wrote = self
                .io
                .poll_write(&[IoSlice::new(&self.out[self.out_pos..])]);
            tracer.end(span);
            match wrote {
                Ok(PollWrite::Wrote(n)) => {
                    self.stats.useful_polls += 1;
                    self.stats.bytes_written += n as u64;
                    self.out_pos += n;
                    moved = true;
                }
                Ok(PollWrite::WouldBlock) => break,
                Err(e) => {
                    self.errors.push(format!("{}: write: {e}", self.id));
                    self.done = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        moved
    }

    /// Reads and verifies whatever arrived. `epoch` anchors the
    /// `sent_at` times. Returns whether any byte moved.
    pub fn receive(
        &mut self,
        pool: &Pool,
        epoch: Instant,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> bool {
        let mut moved = false;
        while !self.done {
            self.stats.polls += 1;
            let span = tracer.begin("wire.poll_read", parent, NO_REQUEST);
            let read = self.io.poll_read(self.inbuf.spare_mut());
            tracer.end(span);
            let now_ns = epoch.elapsed().as_nanos() as u64;
            match read {
                Ok(PollRead::Data(n)) => {
                    self.stats.useful_polls += 1;
                    self.inbuf.commit(n);
                    moved = true;
                    self.parse(pool, now_ns, tracer, parent);
                }
                Ok(PollRead::WouldBlock) => break,
                Ok(PollRead::Eof) => {
                    self.errors
                        .push(format!("{}: gateway closed before its Goodbye", self.id));
                    self.done = true;
                }
                Err(e) => {
                    self.errors.push(format!("{}: read: {e}", self.id));
                    self.done = true;
                }
            }
        }
        moved
    }

    fn parse(&mut self, pool: &Pool, now_ns: u64, tracer: &mut Tracer, parent: SpanId) {
        loop {
            let span = tracer.begin("wire.parse", parent, NO_REQUEST);
            let (decoded, len) = match self.inbuf.peek() {
                Ok(None) => {
                    tracer.end(span);
                    return;
                }
                Ok(Some((header, payload))) => (
                    decode_payload(header.frame_type, payload),
                    header.payload_len,
                ),
                Err(e) => {
                    tracer.end(span);
                    self.errors.push(format!("{}: decode: {e}", self.id));
                    self.done = true;
                    return;
                }
            };
            self.inbuf.consume(len);
            tracer.end(span);
            match decoded {
                Ok(Frame::Prediction(p)) => self.check(pool, p, now_ns),
                Ok(Frame::Nack(n)) => {
                    if self.answer(n.seq) {
                        self.stats.nacks += 1;
                    } else {
                        self.stats.unexpected += 1;
                    }
                }
                Ok(Frame::Goodbye(_)) => {
                    self.done = true;
                    return;
                }
                Ok(other) => {
                    self.errors.push(format!(
                        "{}: unexpected {} frame",
                        self.id,
                        other.type_name()
                    ));
                    self.done = true;
                    return;
                }
                Err(e) => {
                    self.errors.push(format!("{}: payload: {e}", self.id));
                    self.done = true;
                    return;
                }
            }
        }
    }

    fn check(&mut self, pool: &Pool, p: occusense_wire::PredictionFrame, now_ns: u64) {
        let seq = p.seq;
        if !self.answer(seq) {
            self.stats.unexpected += 1;
            return;
        }
        let (occupied, proba) = pool.expected(self.pool_offset, seq);
        if p.occupied != occupied || p.proba.to_bits() != proba.to_bits() || p.model_version != 1 {
            self.stats.mismatches += 1;
            if self.stats.mismatches <= 3 {
                self.errors.push(format!(
                    "{} seq {seq}: wire ({}, {:#018x}, v{}) != predict_record ({occupied}, {:#018x})",
                    self.id,
                    p.occupied,
                    p.proba.to_bits(),
                    p.model_version,
                    proba.to_bits()
                ));
            }
            return;
        }
        self.stats.verified += 1;
        if occupied == pool.label(self.pool_offset, seq) {
            self.stats.label_hits += 1;
        }
        let sent = self.sent_at_ns[(seq % RING) as usize];
        self.rtts.push(now_ns.saturating_sub(sent));
    }
}

/// Says `Goodbye` on every hub and waits for the gateway's answers.
pub fn close_all(hubs: &mut [Hub], pool: &Pool, epoch: Instant) -> Result<(), String> {
    let mut tracer = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    for hub in hubs.iter_mut() {
        hub.queue_goodbye(&mut tracer, SpanId::NONE);
    }
    while !hubs.iter().all(|h| h.done) {
        if Instant::now() > deadline {
            return Err("no Goodbye from the gateway within 10 s".into());
        }
        let mut moved = false;
        for hub in hubs.iter_mut() {
            moved |= hub.flush(&mut tracer, SpanId::NONE);
            moved |= hub.receive(pool, epoch, &mut tracer, SpanId::NONE);
        }
        if !moved {
            std::thread::sleep(TICK);
        }
    }
    Ok(())
}
