//! The sensor-side client: one non-blocking connection to a gateway.
//!
//! A [`WireClient`] is the client-side mirror of the gateway's reactor
//! connections: a small state machine (`AwaitAck → Streaming →
//! Draining`) over the transport's [`PollConn`] face, built on the
//! same [`Encoder`] and [`FrameBuffer`]. `send`, `send_batch` and
//! `finish` encode into an outbound buffer and pump once;
//! [`pump`](WireClient::pump) flushes whatever the transport accepts,
//! then reads whatever arrived into the client's own event queue.
//! Because every pump reads as well as writes, one thread can stream
//! records and collect predictions on the same connection without
//! deadlocking against a gateway whose lossless (`Block`) outbound
//! queue is full.
//!
//! A driver thread can sweep thousands of clients with `pump` +
//! [`next_event`](WireClient::next_event); the storm engine
//! ([`storm::run`](crate::storm::run)), which both load drivers run on,
//! does. [`connect`](WireClient::connect) and [`recv`](WireClient::recv)
//! are the blocking conveniences for tests, benches and one-sensor
//! tools.

use crate::codec::{
    decode_payload, BatchFrame, Frame, Goodbye, Hello, NackFrame, PredictionFrame, RecordFrame,
    MAX_BATCH_RECORDS, PROTOCOL_VERSION,
};
use crate::frame::{Encoder, DEFAULT_MAX_PAYLOAD};
use crate::reactor::FrameBuffer;
use crate::transport::{Connection, PollConn, PollRead, PollWrite, TransportError};
use crate::WireError;
use occusense_dataset::CsiRecord;
use std::collections::VecDeque;
use std::io::IoSlice;
use std::time::{Duration, Instant};

/// Idle rounds a blocking call spin-yields before it starts sleeping:
/// a round trip on an idle gateway is tens of microseconds, so the
/// first wait is almost always answered while still spinning.
const SPIN_ROUNDS: u32 = 256;

/// Sleep between idle rounds once spinning stops.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// Where a connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `Hello` queued; waiting for the gateway's `HelloAck`.
    AwaitAck,
    /// Streaming `Record`/`Batch` frames.
    Streaming,
    /// `Goodbye` queued; collecting what the gateway still owes.
    Draining,
    /// The gateway said goodbye, closed, or the connection failed.
    Closed,
}

/// One server→client event.
#[derive(Debug)]
pub enum ClientEvent {
    /// A scored record.
    Prediction(PredictionFrame),
    /// An explicit per-record refusal.
    Nack(NackFrame),
    /// The gateway's end-of-stream (predictions delivered count).
    Goodbye(u64),
    /// [`WireClient::recv`] saw nothing before its timeout.
    TimedOut,
    /// The gateway closed the connection.
    Closed,
}

/// One sensor connection: numbers every record with a strictly
/// increasing per-connection sequence, singles and batches alike, so
/// seq `k` always names the `k`-th record sent on this connection.
pub struct WireClient {
    io: Box<dyn PollConn>,
    inbuf: FrameBuffer,
    /// Encoded frames not yet accepted by the transport, from
    /// `out_pos` on.
    out: Vec<u8>,
    out_pos: usize,
    encoder: Encoder,
    phase: Phase,
    shard: u32,
    sent: u64,
    events: VecDeque<ClientEvent>,
}

impl WireClient {
    /// Queues the `Hello` (with a tenant claim; the empty tenant is the
    /// default namespace) and returns at once: the handshake completes
    /// in later [`pump`](Self::pump)s, after which
    /// [`is_ready`](Self::is_ready) holds.
    ///
    /// # Errors
    ///
    /// [`WireError::Transport`] when the connection cannot switch to
    /// its non-blocking face or the `Hello` refuses to encode (an
    /// oversize id) — in that case no byte has moved.
    pub fn open(
        conn: Box<dyn Connection>,
        tenant: &str,
        sensor_id: &str,
    ) -> Result<Self, WireError> {
        let io = conn.into_poll().map_err(WireError::Transport)?;
        let mut client = Self {
            io,
            inbuf: FrameBuffer::new(DEFAULT_MAX_PAYLOAD),
            out: Vec::new(),
            out_pos: 0,
            encoder: Encoder::new(),
            phase: Phase::AwaitAck,
            shard: 0,
            sent: 0,
            events: VecDeque::new(),
        };
        client.queue(&Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: sensor_id.to_string(),
            tenant: tenant.to_string(),
        }))?;
        Ok(client)
    }

    /// [`open`](Self::open), then waits up to `handshake_timeout` for
    /// the gateway's answer.
    ///
    /// # Errors
    ///
    /// [`WireError::Refused`] when the gateway answers with a NACK
    /// (protocol or tenant mismatch, draining gateway);
    /// [`WireError::HandshakeTimeout`] when nothing answers in time;
    /// [`WireError::Protocol`] when the gateway closes instead;
    /// [`WireError::Transport`] on connection failures.
    pub fn connect(
        conn: Box<dyn Connection>,
        tenant: &str,
        sensor_id: &str,
        handshake_timeout: Duration,
    ) -> Result<Self, WireError> {
        let mut client = Self::open(conn, tenant, sensor_id)?;
        let deadline = Instant::now() + handshake_timeout;
        if !client.wait(deadline, |c| c.phase != Phase::AwaitAck)? {
            return Err(WireError::HandshakeTimeout);
        }
        if client.phase == Phase::Closed {
            return Err(WireError::Protocol(
                "gateway closed during handshake".to_string(),
            ));
        }
        Ok(client)
    }

    /// Whether the handshake is done and [`finish`](Self::finish) has
    /// not been called: `send` is legal.
    pub fn is_ready(&self) -> bool {
        self.phase == Phase::Streaming
    }

    /// The worker shard the gateway routed this sensor to (valid once
    /// [`is_ready`](Self::is_ready)).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Encoded bytes the transport has not accepted yet. A driver that
    /// sends only at zero backlog keeps one frame in flight per client.
    pub fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Sends one record; returns the sequence number it carried.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] before the handshake or after `finish`;
    /// any pump error — all fatal for the connection.
    pub fn send(&mut self, record: CsiRecord, label: Option<u8>) -> Result<u64, WireError> {
        self.ensure_ready()?;
        let seq = self.sent;
        self.queue(&Frame::Record(RecordFrame { seq, label, record }))?;
        self.sent += 1;
        self.pump()?;
        Ok(seq)
    }

    /// Sends a run of records as one or more `Batch` frames (chunked
    /// at [`MAX_BATCH_RECORDS`]); returns the first sequence number.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send).
    pub fn send_batch(&mut self, records: &[(CsiRecord, Option<u8>)]) -> Result<u64, WireError> {
        self.ensure_ready()?;
        let first = self.sent;
        for chunk in records.chunks(MAX_BATCH_RECORDS.max(1)) {
            self.queue(&Frame::Batch(BatchFrame {
                first_seq: self.sent,
                records: chunk.to_vec(),
            }))?;
            self.sent += chunk.len() as u64;
        }
        self.pump()?;
        Ok(first)
    }

    /// Queues the orderly end-of-stream (`Goodbye` with the sent
    /// count); returns how many records were sent. Predictions still
    /// owed keep arriving through [`pump`](Self::pump) until the
    /// gateway's own `Goodbye`.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send).
    pub fn finish(&mut self) -> Result<u64, WireError> {
        self.ensure_ready()?;
        self.queue(&Frame::Goodbye(Goodbye { count: self.sent }))?;
        self.phase = Phase::Draining;
        self.pump()?;
        Ok(self.sent)
    }

    /// The next event already read off the connection, if any. Never
    /// touches the transport.
    pub fn next_event(&mut self) -> Option<ClientEvent> {
        self.events.pop_front()
    }

    /// Waits up to `timeout` for the next event, pumping meanwhile;
    /// [`ClientEvent::TimedOut`] when none arrived. Once the connection
    /// is over and every event has been taken, returns
    /// [`ClientEvent::Closed`].
    ///
    /// # Errors
    ///
    /// Any pump error — fatal for the connection.
    pub fn recv(&mut self, timeout: Duration) -> Result<ClientEvent, WireError> {
        self.wait(Instant::now() + timeout, |c| {
            !c.events.is_empty() || c.phase == Phase::Closed
        })?;
        Ok(self.events.pop_front().unwrap_or(match self.phase {
            Phase::Closed => ClientEvent::Closed,
            _ => ClientEvent::TimedOut,
        }))
    }

    /// One non-blocking sweep: flush pending bytes, then read and parse
    /// everything that arrived, queueing events. Returns whether any
    /// byte moved.
    ///
    /// # Errors
    ///
    /// [`WireError::Refused`] when the gateway NACKs the handshake;
    /// [`WireError::Transport`] on I/O failure or a corrupt stream;
    /// [`WireError::Protocol`] when the gateway sends a client-role
    /// frame. All are fatal: the client is closed afterwards.
    pub fn pump(&mut self) -> Result<bool, WireError> {
        if self.phase == Phase::Closed {
            return Ok(false);
        }
        let pumped = self
            .flush()
            .and_then(|wrote| self.fill().map(|read| read || wrote));
        if pumped.is_err() {
            self.phase = Phase::Closed;
        }
        pumped
    }

    fn ensure_ready(&self) -> Result<(), WireError> {
        match self.phase {
            Phase::Streaming => Ok(()),
            Phase::AwaitAck => Err(WireError::Protocol(
                "send before the handshake completed".to_string(),
            )),
            Phase::Draining | Phase::Closed => Err(WireError::Protocol(
                "send after the stream ended".to_string(),
            )),
        }
    }

    /// Appends `frame`'s wire image to the outbound buffer (untouched
    /// when it refuses to encode).
    fn queue(&mut self, frame: &Frame) -> Result<(), WireError> {
        if self.out_pos > 0 && self.out_pos * 2 >= self.out.len() {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        self.encoder
            .encode_into(frame, &mut self.out)
            .map_err(|e| WireError::Transport(e.into()))
    }

    /// Writes as much of the outbound buffer as the transport takes.
    fn flush(&mut self) -> Result<bool, WireError> {
        let mut wrote = false;
        while let Some(pending) = self.out.get(self.out_pos..).filter(|p| !p.is_empty()) {
            match self
                .io
                .poll_write(&[IoSlice::new(pending)])
                .map_err(WireError::Transport)?
            {
                PollWrite::Wrote(n) => {
                    self.out_pos += n;
                    wrote = true;
                }
                PollWrite::WouldBlock => break,
            }
        }
        if self.out_pos >= self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(wrote)
    }

    /// Reads until the transport runs dry, parsing as bytes land.
    fn fill(&mut self) -> Result<bool, WireError> {
        let mut read = false;
        while self.phase != Phase::Closed {
            let spare = self.inbuf.spare_mut();
            if spare.is_empty() {
                break;
            }
            match self.io.poll_read(spare).map_err(WireError::Transport)? {
                PollRead::Data(n) => {
                    self.inbuf.commit(n);
                    read = true;
                    self.parse()?;
                }
                PollRead::WouldBlock => break,
                PollRead::Eof => {
                    if !self.inbuf.is_empty() {
                        return Err(WireError::Transport(TransportError::Disconnected {
                            context: "eof inside a frame",
                        }));
                    }
                    self.phase = Phase::Closed;
                    self.events.push_back(ClientEvent::Closed);
                    read = true;
                }
            }
        }
        Ok(read)
    }

    /// Decodes every complete frame buffered inbound.
    fn parse(&mut self) -> Result<(), WireError> {
        while self.phase != Phase::Closed {
            let decoded = match self.inbuf.peek() {
                Ok(None) => break,
                Ok(Some((header, payload))) => {
                    decode_payload(header.frame_type, payload).map(|f| (f, header.payload_len))
                }
                Err(e) => Err(e),
            };
            let (frame, len) = decoded.map_err(|e| WireError::Transport(e.into()))?;
            self.inbuf.consume(len);
            match frame {
                Frame::HelloAck(ack) if self.phase == Phase::AwaitAck => {
                    self.shard = ack.shard;
                    self.phase = Phase::Streaming;
                }
                Frame::Nack(n) if self.phase == Phase::AwaitAck => {
                    return Err(WireError::Refused(n.reason));
                }
                Frame::Prediction(p) => self.events.push_back(ClientEvent::Prediction(p)),
                Frame::Nack(n) => self.events.push_back(ClientEvent::Nack(n)),
                Frame::Goodbye(g) => {
                    self.events.push_back(ClientEvent::Goodbye(g.count));
                    self.phase = Phase::Closed;
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected {} frame from the gateway",
                        other.type_name()
                    )))
                }
            }
        }
        Ok(())
    }

    /// Pumps until `done` holds or `deadline` passes, spin-yielding and
    /// then sleeping while nothing moves. Returns whether `done` held.
    fn wait(&mut self, deadline: Instant, done: impl Fn(&Self) -> bool) -> Result<bool, WireError> {
        let mut idle = 0u32;
        loop {
            if done(self) {
                return Ok(true);
            }
            if self.pump()? {
                idle = 0;
                continue;
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            if idle < SPIN_ROUNDS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
            idle = idle.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{EncodeError, HelloAck, NackReason, MAX_SENSOR_ID_BYTES};
    use crate::transport::{loopback, Accepted, Acceptor, LoopbackConfig};

    /// A client connection plus the raw gateway-side poll face.
    fn pair() -> (Box<dyn Connection>, Box<dyn PollConn>) {
        let (mut acceptor, connector) = loopback(LoopbackConfig::default());
        let client = connector.connect().unwrap();
        let Accepted::Connection(server) = acceptor.accept().unwrap() else {
            panic!("no connection");
        };
        (client, server.into_poll().unwrap())
    }

    /// Plays the gateway's side by hand: writes `frames` whole.
    fn serve(io: &mut dyn PollConn, frames: &[Frame]) {
        let mut bytes = Vec::new();
        for f in frames {
            Encoder::new().encode_into(f, &mut bytes).unwrap();
        }
        let mut offset = 0;
        while offset < bytes.len() {
            if let PollWrite::Wrote(n) = io.poll_write(&[IoSlice::new(&bytes[offset..])]).unwrap() {
                offset += n;
            }
        }
    }

    fn record() -> CsiRecord {
        CsiRecord::new(1.5, [0.03; 64], 21.0, 40.0, 1)
    }

    const ACK: Frame = Frame::HelloAck(HelloAck {
        protocol: PROTOCOL_VERSION,
        shard: 3,
    });

    #[test]
    fn oversize_hello_is_refused_before_any_byte_moves() {
        let (conn, mut server) = pair();
        let oversize = "x".repeat(MAX_SENSOR_ID_BYTES + 1);
        assert!(matches!(
            WireClient::open(conn, "", &oversize),
            Err(WireError::Transport(TransportError::Encode(
                EncodeError::SensorIdTooLong { .. }
            )))
        ));
        // The refused client is gone; its peer sees a clean close with
        // not one byte ahead of it.
        let mut scratch = [0u8; 64];
        assert_eq!(server.poll_read(&mut scratch).unwrap(), PollRead::Eof);
    }

    #[test]
    fn handshake_stream_and_goodbye_surface_as_events() {
        let (conn, mut server) = pair();
        let mut client = WireClient::open(conn, "acme", "s0").unwrap();
        assert!(!client.is_ready());
        assert!(matches!(
            client.send(record(), None),
            Err(WireError::Protocol(_))
        ));
        serve(server.as_mut(), &[ACK]);
        assert!(matches!(
            client.recv(Duration::from_millis(10)).unwrap(),
            ClientEvent::TimedOut
        ));
        assert!(client.is_ready());
        assert_eq!(client.shard(), 3);

        assert_eq!(client.send(record(), Some(1)).unwrap(), 0);
        assert_eq!(client.finish().unwrap(), 1);
        assert!(!client.is_ready(), "no sends after finish");
        let prediction = PredictionFrame {
            seq: 0,
            timestamp_s: 0.0,
            occupied: 1,
            proba: 0.9,
            model_version: 1,
            latency_ns: 5,
        };
        serve(
            server.as_mut(),
            &[
                Frame::Prediction(prediction),
                Frame::Goodbye(Goodbye { count: 1 }),
            ],
        );
        let wait = Duration::from_secs(5);
        assert!(
            matches!(client.recv(wait).unwrap(), ClientEvent::Prediction(p) if p == prediction)
        );
        assert!(matches!(
            client.recv(wait).unwrap(),
            ClientEvent::Goodbye(1)
        ));
        assert!(matches!(client.recv(wait).unwrap(), ClientEvent::Closed));
        assert_eq!(client.backlog(), 0, "Hello, Record and Goodbye all left");
    }

    #[test]
    fn refusals_timeouts_and_role_violations_are_typed() {
        let (conn, mut server) = pair();
        serve(
            server.as_mut(),
            &[Frame::Nack(NackFrame {
                seq: 0,
                reason: NackReason::Shutdown,
            })],
        );
        assert!(matches!(
            WireClient::connect(conn, "", "s0", Duration::from_secs(5)),
            Err(WireError::Refused(NackReason::Shutdown))
        ));

        let (conn, _server) = pair();
        assert!(matches!(
            WireClient::connect(conn, "", "s0", Duration::from_millis(20)),
            Err(WireError::HandshakeTimeout)
        ));

        let (conn, mut server) = pair();
        serve(server.as_mut(), &[ACK]);
        let mut client = WireClient::connect(conn, "", "s0", Duration::from_secs(5)).unwrap();
        serve(server.as_mut(), &[ACK]);
        assert!(matches!(
            client.recv(Duration::from_secs(5)),
            Err(WireError::Protocol(_))
        ));
        assert!(
            matches!(client.recv(Duration::ZERO).unwrap(), ClientEvent::Closed),
            "a protocol violation closes the client"
        );
    }
}
