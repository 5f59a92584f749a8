//! # occusense-wire — binary CSI wire protocol and network gateway
//!
//! The transport boundary the paper's deployment story implies: many
//! cheap sensor nodes (Nexmon sniffers on Raspberry Pis) streaming
//! 64-subcarrier CSI frames to one detector service. Until this crate,
//! every record entered [`occusense_serve::ServeRuntime`] through an
//! in-process call; now records travel as versioned, checksummed
//! little-endian frames over a real connection:
//!
//! ```text
//!  sensor node                  gateway reactor ─────────────────────┐
//!  WireClient ──Record/Batch──▶ frame parser ──try_submit_sequenced─▶│
//!   (send/pump)                     │ (NACK on rejection)       Serve│
//!  WireClient ◀─Prediction──── write ring ◀── outbound queue ◀─worker┘
//!   (event queue) ◀─Nack──        (bounded, slow-client    Runtime
//!                                  policy; workers push)
//! ```
//!
//! * [`codec`] — the payload byte layout: bit-exact `f64`s (via
//!   [`f64::to_bits`]), canonical encodings, typed [`DecodeError`]s,
//!   no panicking paths (enforced by occusense-lint).
//! * [`frame`] — the envelope: magic, version, length prefix, XXH64
//!   checksum of the payload seeded with the frame type.
//! * [`transport`] — [`Connection`]/[`Acceptor`] over an in-process
//!   loopback (deterministic tests/benches) or std-only TCP, each
//!   driven through its non-blocking [`PollConn`] face.
//! * [`gateway`] — N concurrent sensor connections feeding one
//!   `ServeRuntime`; backpressure surfaces to clients as NACK frames,
//!   and every transport-level loss lands in
//!   `ServeReport::unaccounted_records()`'s extended identity.
//! * [`client`] — the sensor-side [`WireClient`]: one non-blocking
//!   connection that sends, pumps and queues server events, with a
//!   blocking `connect`/`recv` for tests and benches.
//! * [`storm`] — the load-driver engine: a per-seq booking table per
//!   sensor, a non-blocking sweep driver over many clients, and the
//!   bitwise verifier against in-process scoring.
//!
//! The `wire_storm` binary (and `occusense-fleet`'s `fleet_storm`)
//! replays simulated sensor fleets through that engine, over either
//! transport, and self-verifies every delivered prediction bitwise
//! against direct in-process scoring.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod codec;
pub mod frame;
pub mod gateway;
pub mod pipe;
pub mod reactor;
pub mod storm;
pub mod transport;

pub use client::{ClientEvent, WireClient};
pub use codec::{
    decode_payload, BatchFrame, BatchRecords, BatchView, DecodeError, EncodeError, Frame, Goodbye,
    Hello, HelloAck, NackFrame, NackReason, PredictionFrame, RecordFrame, MAX_BATCH_RECORDS,
    MAX_SENSOR_ID_BYTES, MAX_TENANT_ID_BYTES, PROTOCOL_VERSION, RECORD_BYTES,
};
pub use frame::{
    checksum_of, decode_frame, decode_header, Encoder, FrameHeader, DEFAULT_MAX_PAYLOAD,
    HEADER_BYTES, MAGIC,
};
pub use gateway::{Gateway, GatewayConfig};
pub use reactor::FrameBuffer;
pub use transport::{
    loopback, tcp_connect, tcp_listen, Accepted, Acceptor, Connection, LoopbackAcceptor,
    LoopbackConfig, LoopbackConnector, PollConn, PollRead, PollWrite, TcpAcceptor, TcpConfig,
    TcpConn, TransportError,
};

use std::error::Error;
use std::fmt;

/// Why a wire-level operation failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying serving runtime refused its configuration.
    Serve(occusense_serve::ServeError),
    /// The connection failed (I/O, decode, encode, disconnect).
    Transport(TransportError),
    /// The gateway refused the handshake with this NACK reason.
    Refused(NackReason),
    /// No `HelloAck` within the handshake deadline.
    HandshakeTimeout,
    /// The peer sent a frame its role never sends.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Serve(e) => write!(f, "wire: {e}"),
            WireError::Transport(e) => write!(f, "wire: {e}"),
            WireError::Refused(reason) => write!(f, "wire: handshake refused ({reason})"),
            WireError::HandshakeTimeout => write!(f, "wire: handshake timed out"),
            WireError::Protocol(msg) => write!(f, "wire protocol violation: {msg}"),
        }
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
    use occusense_serve::{BackpressurePolicy, ServeConfig};
    use occusense_sim::{fleet_stream, simulate, ScenarioConfig};
    use std::io::IoSlice;
    use std::time::Duration;

    const WAIT: Duration = Duration::from_millis(50);

    /// Collects predictions until the gateway's `Goodbye`, checking its
    /// delivered count.
    fn collect_until_goodbye(client: &mut WireClient) -> Vec<PredictionFrame> {
        let mut preds = Vec::new();
        loop {
            match client.recv(WAIT).unwrap() {
                ClientEvent::Prediction(p) => preds.push(p),
                ClientEvent::Goodbye(delivered) => {
                    assert_eq!(delivered as usize, preds.len());
                    return preds;
                }
                ClientEvent::TimedOut => continue,
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    fn bootstrap_detector() -> OccupancyDetector {
        let train = simulate(&ScenarioConfig::quick(300.0, 7));
        OccupancyDetector::train(
            &train,
            &DetectorConfig {
                model: ModelKind::Mlp,
                mlp_epochs: 2,
                seed: 7,
                ..DetectorConfig::default()
            },
        )
    }

    #[test]
    fn one_sensor_end_to_end_over_loopback() {
        let detector = bootstrap_detector();
        let direct = detector.clone();
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        let gateway = Gateway::start(
            detector,
            ServeConfig {
                online: None,
                policy: BackpressurePolicy::Block,
                ..ServeConfig::default()
            },
            GatewayConfig {
                outbound_policy: BackpressurePolicy::Block,
                ..GatewayConfig::default()
            },
            Box::new(acceptor),
        )
        .unwrap();

        let conn = connector.connect().unwrap();
        let mut client = WireClient::connect(conn, "", "sensor-a", Duration::from_secs(5)).unwrap();
        let records: Vec<_> = fleet_stream(25.0, 100, 0).collect();
        for r in &records {
            client.send(*r, None).unwrap();
        }
        let sent = client.finish().unwrap();
        assert_eq!(sent as usize, records.len());
        let mut preds = collect_until_goodbye(&mut client);
        drop(client);
        let report = gateway.shutdown();

        assert_eq!(preds.len(), records.len());
        preds.sort_by_key(|p| p.seq);
        for (i, p) in preds.iter().enumerate() {
            assert_eq!(p.seq, i as u64);
            let (occupied, proba) = direct.predict_record(&records[i]);
            assert_eq!(p.occupied, occupied);
            assert_eq!(p.proba.to_bits(), proba.to_bits(), "record {i}");
        }
        assert_eq!(report.unaccounted_records(), 0);
        assert_eq!(report.wire.records_decoded, records.len() as u64);
        assert_eq!(report.wire.records_ingested, records.len() as u64);
        assert_eq!(report.wire.predictions_sent, records.len() as u64);
    }

    #[test]
    fn temporal_sensor_scores_bitwise_and_evicts_state_on_disconnect() {
        use occusense_core::temporal::{TemporalConfig, TemporalDetector};
        use std::time::Instant;

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
        let direct = temporal.clone();
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        let gateway = Gateway::start_temporal(
            temporal,
            ServeConfig {
                online: None,
                policy: BackpressurePolicy::Block,
                ..ServeConfig::default()
            },
            GatewayConfig {
                outbound_policy: BackpressurePolicy::Block,
                ..GatewayConfig::default()
            },
            Box::new(acceptor),
        )
        .unwrap();

        let conn = connector.connect().unwrap();
        let mut client = WireClient::connect(conn, "", "sensor-a", Duration::from_secs(5)).unwrap();
        let records: Vec<_> = fleet_stream(25.0, 100, 0).collect();
        for r in &records {
            client.send(*r, None).unwrap();
        }
        let sent = client.finish().unwrap();
        assert_eq!(sent as usize, records.len());
        let mut preds = collect_until_goodbye(&mut client);
        drop(client);

        // The reader thread deregisters and evicts asynchronously
        // after answering the Goodbye; give it a bounded moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while gateway.active_sensor_states() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            gateway.active_sensor_states(),
            0,
            "disconnect must evict the sensor's sequence state"
        );
        let report = gateway.shutdown();

        // Wire-delivered sequence scores are bitwise the zero-state
        // replay of the same stream.
        assert_eq!(preds.len(), records.len());
        preds.sort_by_key(|p| p.seq);
        let solo = direct.score_stream(&records);
        for (i, (p, (_, proba))) in preds.iter().zip(&solo).enumerate() {
            assert_eq!(p.seq, i as u64);
            assert_eq!(p.model_version, 1);
            assert_eq!(p.proba.to_bits(), proba.to_bits(), "record {i}");
            assert_eq!(p.occupied, u8::from(*proba > 0.5), "record {i}");
        }
        assert_eq!(report.unaccounted_records(), 0);
        assert_eq!(report.wire.records_ingested, records.len() as u64);
        assert_eq!(report.wire.predictions_sent, records.len() as u64);
    }

    /// Writes all of `bytes` through a raw poll face.
    fn write_all(io: &mut dyn PollConn, bytes: &[u8]) {
        let mut offset = 0;
        while offset < bytes.len() {
            if let PollWrite::Wrote(n) = io.poll_write(&[IoSlice::new(&bytes[offset..])]).unwrap() {
                offset += n;
            }
        }
    }

    /// Reads the next frame off a raw poll face; `None` once the
    /// gateway has closed the connection.
    fn read_frame(io: &mut dyn PollConn, inbuf: &mut FrameBuffer) -> Option<Frame> {
        loop {
            if let Some((header, payload)) = inbuf.peek().unwrap() {
                let frame = decode_payload(header.frame_type, payload).unwrap();
                inbuf.consume(header.payload_len);
                return Some(frame);
            }
            match io.poll_read(inbuf.spare_mut()).unwrap() {
                PollRead::Data(n) => inbuf.commit(n),
                PollRead::WouldBlock => std::thread::sleep(Duration::from_millis(1)),
                PollRead::Eof => return None,
            }
        }
    }

    /// `frame` as a protocol-version-1 peer sends it: the same payload
    /// under the version-1 envelope (version byte 1, FNV-1a-64 over
    /// the type byte followed by the payload).
    fn v1_envelope(frame: &Frame) -> Vec<u8> {
        use occusense_core::hash::{fnv1a64, fnv1a64_extend};
        let mut bytes = Encoder::new().encode(frame).unwrap();
        bytes[4] = 1;
        let sum = fnv1a64_extend(fnv1a64(&[bytes[5]]), &bytes[HEADER_BYTES..]);
        bytes[12..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn stale_protocol_version_is_refused_as_unsupported_and_nothing_is_scored() {
        let detector = bootstrap_detector();
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        let gateway = Gateway::start(
            detector,
            ServeConfig {
                online: None,
                ..ServeConfig::default()
            },
            GatewayConfig::default(),
            Box::new(acceptor),
        )
        .unwrap();
        let unsupported = Frame::Nack(NackFrame {
            seq: 0,
            reason: NackReason::Unsupported,
        });
        let record = *simulate(&ScenarioConfig::quick(1.0, 3))
            .records()
            .first()
            .unwrap();

        // A version-1 peer's Hello: refused from its header, then closed.
        let mut io = connector.connect().unwrap().into_poll().unwrap();
        write_all(
            &mut *io,
            &v1_envelope(&Frame::Hello(Hello {
                protocol: 1,
                sensor_id: "stale-hello".into(),
                tenant: String::new(),
            })),
        );
        let mut inbuf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
        assert_eq!(read_frame(&mut *io, &mut inbuf), Some(unsupported.clone()));
        assert_eq!(read_frame(&mut *io, &mut inbuf), None);

        // A current handshake followed by a version-1 Record: the
        // record is refused unscored and the connection closed.
        let mut io = connector.connect().unwrap().into_poll().unwrap();
        let hello = Encoder::new()
            .encode(&Frame::Hello(Hello {
                protocol: PROTOCOL_VERSION,
                sensor_id: "stale-record".into(),
                tenant: String::new(),
            }))
            .unwrap();
        write_all(&mut *io, &hello);
        let mut inbuf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
        assert!(matches!(
            read_frame(&mut *io, &mut inbuf),
            Some(Frame::HelloAck(_))
        ));
        write_all(
            &mut *io,
            &v1_envelope(&Frame::Record(RecordFrame {
                seq: 0,
                label: None,
                record,
            })),
        );
        assert_eq!(read_frame(&mut *io, &mut inbuf), Some(unsupported));
        assert_eq!(read_frame(&mut *io, &mut inbuf), None);

        let report = gateway.shutdown();
        assert_eq!(report.wire.records_ingested, 0);
        assert_eq!(report.wire.predictions_sent, 0);
        assert_eq!(report.wire.malformed_frames, 0);
        assert_eq!(report.unaccounted_records(), 0);
    }

    #[test]
    fn protocol_mismatch_is_refused_with_a_nack() {
        let detector = bootstrap_detector();
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        let gateway = Gateway::start(
            detector,
            ServeConfig {
                online: None,
                ..ServeConfig::default()
            },
            GatewayConfig::default(),
            Box::new(acceptor),
        )
        .unwrap();
        // A raw poll face: the client refuses to speak a foreign
        // protocol version, so the bad Hello is hand-encoded.
        let mut io = connector.connect().unwrap().into_poll().unwrap();
        let hello = Encoder::new()
            .encode(&Frame::Hello(Hello {
                protocol: 99,
                sensor_id: "bad".into(),
                tenant: String::new(),
            }))
            .unwrap();
        write_all(&mut *io, &hello);
        let mut inbuf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
        let refusal = read_frame(&mut *io, &mut inbuf).expect("closed without a NACK");
        assert_eq!(
            refusal,
            Frame::Nack(NackFrame {
                seq: 0,
                reason: NackReason::Unsupported,
            })
        );
        let report = gateway.shutdown();
        assert_eq!(report.wire.connections, 0);
        assert_eq!(report.unaccounted_records(), 0);
    }

    #[test]
    fn tenant_gate_refuses_mismatched_claims_and_admits_matching_ones() {
        let detector = bootstrap_detector();
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        let gateway = Gateway::start(
            detector,
            ServeConfig {
                tenant: "acme".into(),
                online: None,
                policy: BackpressurePolicy::Block,
                ..ServeConfig::default()
            },
            GatewayConfig {
                outbound_policy: BackpressurePolicy::Block,
                ..GatewayConfig::default()
            },
            Box::new(acceptor),
        )
        .unwrap();
        assert_eq!(gateway.tenant(), "acme");

        // Wrong tenant: refused before the connection is counted.
        let conn = connector.connect().unwrap();
        match WireClient::connect(conn, "globex", "sensor-a", Duration::from_secs(5)) {
            Err(WireError::Refused(NackReason::Unsupported)) => {}
            Err(other) => panic!("mismatched tenant gave {other:?}"),
            Ok(_) => panic!("mismatched tenant was admitted"),
        }
        // No tenant claim at all is a mismatch too.
        let conn = connector.connect().unwrap();
        match WireClient::connect(conn, "", "sensor-a", Duration::from_secs(5)) {
            Err(WireError::Refused(NackReason::Unsupported)) => {}
            Err(other) => panic!("missing tenant gave {other:?}"),
            Ok(_) => panic!("missing tenant was admitted"),
        }

        // The right tenant serves normally.
        let conn = connector.connect().unwrap();
        let mut client =
            WireClient::connect(conn, "acme", "sensor-a", Duration::from_secs(5)).unwrap();
        let records: Vec<_> = fleet_stream(25.0, 20, 0).collect();
        for r in &records {
            client.send(*r, None).unwrap();
        }
        assert_eq!(client.finish().unwrap() as usize, records.len());
        let preds = collect_until_goodbye(&mut client).len();
        drop(client);

        let report = gateway.shutdown();
        assert_eq!(report.tenant, "acme");
        assert_eq!(report.wire.connections, 1, "refusals are never counted");
        assert_eq!(preds, records.len());
        assert_eq!(report.unaccounted_records(), 0);
    }

    #[test]
    fn drain_refuses_new_handshakes_but_keeps_live_connections_serving() {
        let detector = bootstrap_detector();
        let (acceptor, connector) = loopback(LoopbackConfig::default());
        let gateway = Gateway::start(
            detector,
            ServeConfig {
                online: None,
                policy: BackpressurePolicy::Block,
                ..ServeConfig::default()
            },
            GatewayConfig {
                outbound_policy: BackpressurePolicy::Block,
                ..GatewayConfig::default()
            },
            Box::new(acceptor),
        )
        .unwrap();

        let conn = connector.connect().unwrap();
        let mut client =
            WireClient::connect(conn, "", "sensor-live", Duration::from_secs(5)).unwrap();
        let records: Vec<_> = fleet_stream(25.0, 30, 0).collect();
        for r in records.iter().take(10) {
            client.send(*r, None).unwrap();
        }

        // Drain mid-stream: the snapshot names the live sensor, and new
        // handshakes are refused with a retryable Shutdown NACK.
        assert!(!gateway.is_draining());
        let live = gateway.drain();
        assert!(gateway.is_draining());
        assert_eq!(live, vec!["sensor-live".to_string()]);
        let late = connector.connect().unwrap();
        match WireClient::connect(late, "", "sensor-late", Duration::from_secs(5)) {
            Err(WireError::Refused(NackReason::Shutdown)) => {}
            Err(other) => panic!("post-drain handshake gave {other:?}"),
            Ok(_) => panic!("post-drain handshake was admitted"),
        }

        // The live connection still serves every remaining record.
        for r in records.iter().skip(10) {
            client.send(*r, None).unwrap();
        }
        assert_eq!(client.finish().unwrap() as usize, records.len());
        let preds = collect_until_goodbye(&mut client).len();
        drop(client);

        let report = gateway.shutdown();
        assert_eq!(preds, records.len());
        assert_eq!(report.wire.connections, 1);
        assert_eq!(report.unaccounted_records(), 0);
    }
}
