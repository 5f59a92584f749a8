//! Wire-layer integration tests: multi-sensor loopback soak with
//! bitwise verification against in-process scoring, NACK accounting
//! under `RejectNewest` backpressure, a TCP-localhost gateway round
//! trip, byte-level framing against a live gateway, the one-thread
//! no-deadlock property of the client, and shard isolation when a
//! client stops reading. These are the
//! executable form of the wire contract: the network boundary adds
//! latency, never drift — and every record that crosses it is
//! accounted for in `ServeReport`.

use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_serve::{shard_for, BackpressurePolicy, ServeConfig};
use occusense_sim::{fleet_stream, simulate, ScenarioConfig};
use occusense_wire::{
    decode_payload, loopback, tcp_connect, tcp_listen, ClientEvent, Encoder, Frame, FrameBuffer,
    Gateway, GatewayConfig, Goodbye, Hello, LoopbackConfig, NackReason, PollConn, PollRead,
    PollWrite, PredictionFrame, RecordFrame, TcpConfig, WireClient, DEFAULT_MAX_PAYLOAD, MAGIC,
    PROTOCOL_VERSION,
};
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long one `recv` waits before the caller loops.
const WAIT: Duration = Duration::from_millis(50);

fn quick_detector() -> OccupancyDetector {
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

/// Pinned-model gateway config: online training disabled so wire
/// predictions can be compared bitwise against a local clone.
fn pinned(policy: BackpressurePolicy, capacity: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        online: None,
        policy,
        queue_capacity: capacity,
        max_batch,
        ..ServeConfig::default()
    }
}

/// Drains a finished client until the gateway's Goodbye (or Closed),
/// collecting predictions and NACK count.
fn drain(client: &mut WireClient) -> (Vec<PredictionFrame>, u64) {
    let mut preds = Vec::new();
    let mut nacks = 0;
    loop {
        match client.recv(WAIT).expect("receive") {
            ClientEvent::Prediction(p) => preds.push(p),
            ClientEvent::Nack(_) => nacks += 1,
            ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
            ClientEvent::TimedOut => continue,
        }
    }
    (preds, nacks)
}

#[test]
fn loopback_soak_is_bitwise_identical_to_direct_scoring() {
    const SENSORS: usize = 4;
    const RECORDS: usize = 200;
    let detector = quick_detector();
    let direct = detector.clone();
    let (acceptor, connector) = loopback(LoopbackConfig::default());
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::Block, 1024, 32),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let handles: Vec<_> = (0..SENSORS)
        .map(|i| {
            let conn = connector.connect().expect("connect");
            std::thread::spawn(move || {
                let records: Vec<_> = fleet_stream(110.0, 500, i as u64).take(RECORDS).collect();
                let mut client =
                    WireClient::connect(conn, "", &format!("s{i}"), Duration::from_secs(5))
                        .expect("handshake");
                // Mix singles and batches on the same connection.
                let labelled: Vec<_> = records.iter().map(|r| (*r, Some(r.occupancy()))).collect();
                let (head, tail) = labelled.split_at(RECORDS / 2);
                for (r, l) in head {
                    client.send(*r, *l).expect("send");
                }
                client.send_batch(tail).expect("send batch");
                let sent = client.finish().expect("finish");
                let (preds, nacks) = drain(&mut client);
                (records, sent, preds, nacks)
            })
        })
        .collect();

    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("sensor"))
        .collect();
    let report = gateway.shutdown();

    for (records, sent, mut preds, nacks) in outcomes {
        assert_eq!(sent as usize, RECORDS);
        assert_eq!(nacks, 0, "Block policy must never NACK");
        assert_eq!(preds.len(), RECORDS, "every record must come back scored");
        preds.sort_by_key(|p| p.seq);
        for (i, p) in preds.iter().enumerate() {
            assert_eq!(p.seq, i as u64);
            let (occupied, proba) = direct.predict_record(&records[i]);
            assert_eq!(p.occupied, occupied, "seq {i}");
            assert_eq!(
                p.proba.to_bits(),
                proba.to_bits(),
                "seq {i}: the wire must add latency, never drift"
            );
        }
    }
    assert_eq!(report.unaccounted_records(), 0);
    assert_eq!(report.wire.connections, SENSORS as u64);
    assert_eq!(report.wire.records_decoded, (SENSORS * RECORDS) as u64);
    assert_eq!(report.wire.records_ingested, (SENSORS * RECORDS) as u64);
    assert_eq!(report.wire.records_rejected, 0);
    assert_eq!(report.faults.transport_rejections, 0);
}

#[test]
fn reject_newest_surfaces_as_nacks_and_stays_accounted() {
    const RECORDS: usize = 300;
    let detector = quick_detector();
    let (acceptor, connector) = loopback(LoopbackConfig::default());
    // Capacity-1 ingress under RejectNewest, with a slow micro-batch
    // deadline so the queue drains far slower than the loopback
    // delivers: rejections are essentially guaranteed, and every one
    // must come back as a QueueFull NACK carrying the refused seq.
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::RejectNewest, 1, 1),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let conn = connector.connect().expect("connect");
    let mut client =
        WireClient::connect(conn, "", "burst", Duration::from_secs(5)).expect("handshake");
    let records: Vec<_> = fleet_stream(160.0, 900, 0).take(RECORDS).collect();
    for r in &records {
        client.send(*r, None).expect("send");
    }
    let sent = client.finish().expect("finish");
    assert_eq!(sent as usize, RECORDS);

    let mut preds = Vec::new();
    let mut nack_seqs = Vec::new();
    loop {
        match client.recv(WAIT).expect("receive") {
            ClientEvent::Prediction(p) => preds.push(p),
            ClientEvent::Nack(n) => {
                assert_eq!(n.reason, NackReason::QueueFull);
                nack_seqs.push(n.seq);
            }
            ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
            ClientEvent::TimedOut => continue,
        }
    }
    let report = gateway.shutdown();

    // Every sent record resolved exactly once: a prediction or a NACK.
    assert_eq!(preds.len() + nack_seqs.len(), RECORDS);
    let mut resolved: Vec<u64> = preds
        .iter()
        .map(|p| p.seq)
        .chain(nack_seqs.iter().copied())
        .collect();
    resolved.sort_unstable();
    assert_eq!(resolved, (0..RECORDS as u64).collect::<Vec<_>>());

    // The transport loss is visible in the report, and the extended
    // accounting identity still closes to zero.
    assert_eq!(report.wire.records_rejected, nack_seqs.len() as u64);
    assert_eq!(report.faults.transport_rejections, nack_seqs.len() as u64);
    assert_eq!(
        report.wire.records_ingested + report.wire.records_rejected,
        RECORDS as u64
    );
    assert_eq!(report.unaccounted_records(), 0);
}

#[test]
fn tcp_gateway_round_trips_bitwise_over_localhost() {
    const RECORDS: usize = 100;
    let detector = quick_detector();
    let direct = detector.clone();
    let (acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).expect("listen");
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::Block, 1024, 32),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let conn = tcp_connect(&addr.to_string(), TcpConfig::default()).expect("connect");
    let mut client =
        WireClient::connect(conn, "", "tcp-sensor", Duration::from_secs(5)).expect("handshake");
    let records: Vec<_> = fleet_stream(60.0, 777, 0).take(RECORDS).collect();
    let labelled: Vec<_> = records.iter().map(|r| (*r, None)).collect();
    client.send_batch(&labelled).expect("send batch");
    let sent = client.finish().expect("finish");
    assert_eq!(sent as usize, RECORDS);
    let (mut preds, nacks) = drain(&mut client);
    let report = gateway.shutdown();

    assert_eq!(nacks, 0);
    assert_eq!(preds.len(), RECORDS);
    preds.sort_by_key(|p| p.seq);
    for (i, p) in preds.iter().enumerate() {
        let (occupied, proba) = direct.predict_record(&records[i]);
        assert_eq!(p.occupied, occupied);
        assert_eq!(p.proba.to_bits(), proba.to_bits(), "seq {i}");
    }
    assert_eq!(report.unaccounted_records(), 0);
    assert_eq!(report.wire.records_decoded, RECORDS as u64);
    assert_eq!(report.wire.predictions_sent, RECORDS as u64);
}

/// Reactor soak under slow-client backpressure: a tiny `Block`
/// outbound queue and a client that naps between pumps force the
/// reactor through its ingress-pause path (it must never park on the
/// queue it alone drains), while capacity-1 `RejectNewest` ingress
/// guarantees a mixture of predictions and NACKs. Every submitted seq
/// must resolve exactly once — as a prediction or a QueueFull NACK —
/// and the extended accounting identity must close.
#[test]
fn slow_client_soak_resolves_every_seq_exactly_once() {
    const SENSORS: usize = 3;
    const RECORDS: usize = 150;
    let detector = quick_detector();
    let (acceptor, connector) = loopback(LoopbackConfig::default());
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::RejectNewest, 1, 1),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            outbound_capacity: 4,
            reactors: 2,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let handles: Vec<_> = (0..SENSORS)
        .map(|i| {
            let conn = connector.connect().expect("connect");
            std::thread::spawn(move || {
                let mut client =
                    WireClient::connect(conn, "", &format!("slow{i}"), Duration::from_secs(5))
                        .expect("handshake");
                let records: Vec<_> = fleet_stream(120.0, 40 + i as u64, i as u64)
                    .take(RECORDS)
                    .collect();
                // The whole stream goes out in one burst, so the
                // gateway parses records far faster than the 4-deep
                // outbound queue drains; the client then naps between
                // pumps, so the gateway must pause this connection's
                // ingress instead of stalling its whole reactor.
                for r in &records {
                    client.send(*r, None).expect("send");
                }
                let sent = client.finish().expect("finish");
                let mut pred_seqs = Vec::new();
                let mut nack_seqs = Vec::new();
                loop {
                    match client.recv(WAIT).expect("receive") {
                        ClientEvent::Prediction(p) => {
                            pred_seqs.push(p.seq);
                            if pred_seqs.len() % 8 == 0 {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                        }
                        ClientEvent::Nack(n) => {
                            assert_eq!(n.reason, NackReason::QueueFull);
                            nack_seqs.push(n.seq);
                        }
                        ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
                        ClientEvent::TimedOut => continue,
                    }
                }
                (sent, pred_seqs, nack_seqs)
            })
        })
        .collect();

    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("sensor"))
        .collect();
    let report = gateway.shutdown();

    for (sent, pred_seqs, nack_seqs) in outcomes {
        assert_eq!(sent as usize, RECORDS);
        let mut resolved: Vec<u64> = pred_seqs.iter().chain(nack_seqs.iter()).copied().collect();
        resolved.sort_unstable();
        assert_eq!(
            resolved,
            (0..RECORDS as u64).collect::<Vec<_>>(),
            "every seq must resolve exactly once (prediction xor NACK)"
        );
    }
    assert_eq!(report.wire.connections, SENSORS as u64);
    assert_eq!(
        report.wire.records_decoded,
        (SENSORS * RECORDS) as u64,
        "pause/resume must neither drop nor double-decode"
    );
    assert_eq!(report.unaccounted_records(), 0);
}

/// One client thread, no reader thread: capacity-1 `RejectNewest`
/// ingress turns most records into QueueFull NACKs, which the reactor
/// pushes through a 4-deep `Block` outbound queue. The client sends
/// far more records than the pipe ring, the gateway's write ring and
/// that queue can hold, and only calls `recv` after `finish`. A client
/// that could not read while its writes were stuck would deadlock
/// here: the full queue pauses the gateway's ingress, so the client's
/// bytes stop draining. The client's pumps read every NACK and
/// prediction into its event queue instead.
#[test]
fn one_thread_client_never_deadlocks_against_a_full_block_queue() {
    const RECORDS: usize = 2000;
    let detector = quick_detector();
    let (acceptor, connector) = loopback(LoopbackConfig {
        pipe_capacity: 4096,
        ..LoopbackConfig::default()
    });
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::RejectNewest, 1, 1),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            outbound_capacity: 4,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let conn = connector.connect().expect("connect");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client =
            WireClient::connect(conn, "", "one-thread", Duration::from_secs(5)).expect("handshake");
        let records: Vec<_> = fleet_stream(1200.0, 31, 0).take(RECORDS).collect();
        assert_eq!(records.len(), RECORDS);
        for r in &records {
            client.send(*r, None).expect("send");
        }
        assert_eq!(client.finish().expect("finish") as usize, RECORDS);
        let mut resolved = Vec::new();
        loop {
            match client.recv(WAIT).expect("receive") {
                ClientEvent::Prediction(p) => resolved.push(p.seq),
                ClientEvent::Nack(n) => {
                    assert_eq!(n.reason, NackReason::QueueFull);
                    resolved.push(n.seq);
                }
                ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
                ClientEvent::TimedOut => continue,
            }
        }
        // The receiver only vanishes once the watchdog has failed the test.
        let _ = done_tx.send(resolved);
    });
    // A deadlock must fail the test, not hang it.
    let mut resolved = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the one-thread client deadlocked (or panicked)");
    let report = gateway.shutdown();

    resolved.sort_unstable();
    assert_eq!(
        resolved,
        (0..RECORDS as u64).collect::<Vec<_>>(),
        "every seq must resolve exactly once (prediction xor NACK)"
    );
    assert_eq!(report.unaccounted_records(), 0);
}

/// Writes what the non-blocking `io` accepts of `bytes[*off..]`;
/// returns whether anything moved.
fn poll_send(io: &mut dyn PollConn, bytes: &[u8], off: &mut usize) -> bool {
    let mut moved = false;
    while *off < bytes.len() {
        match io
            .poll_write(&[IoSlice::new(&bytes[*off..])])
            .expect("write")
        {
            PollWrite::Wrote(n) => {
                *off += n;
                moved = true;
            }
            PollWrite::WouldBlock => break,
        }
    }
    moved
}

/// Reads what the non-blocking `io` has into `inbuf` and decodes every
/// complete frame; `None` once the peer closed.
fn poll_frames(io: &mut dyn PollConn, inbuf: &mut FrameBuffer) -> Option<Vec<Frame>> {
    let mut frames = Vec::new();
    loop {
        while let Some((header, payload)) = inbuf.peek().expect("well-formed gateway frames") {
            frames.push(decode_payload(header.frame_type, payload).expect("decode"));
            let len = header.payload_len;
            inbuf.consume(len);
        }
        match io.poll_read(inbuf.spare_mut()).expect("read") {
            PollRead::Data(n) => inbuf.commit(n),
            PollRead::WouldBlock => return Some(frames),
            PollRead::Eof => return (!frames.is_empty()).then_some(frames),
        }
    }
}

/// Regression: a client that stops reading may stall only its own
/// shard. Under `Block` ingest and outbound policies with tiny queues,
/// connection A (shard 0) floods records and reads nothing, so its
/// predictions back up through the socket, the write ring and its
/// outbound queue into shard 0's worker, and then shard 0's ingest
/// queue fills. Connection B (shard 1, same reactor) must still get
/// every prediction, bitwise, within the deadline. Before worker-side
/// delivery, a single router thread parked on A's full queue and
/// starved every other sensor. Then A reads everything, and the
/// accounting closes.
#[test]
fn a_stalled_reader_stalls_only_its_own_shard() {
    const A_RECORDS: usize = 2000;
    const B_RECORDS: usize = 200;
    let detector = quick_detector();
    let direct = detector.clone();
    let (acceptor, connector) = loopback(LoopbackConfig {
        pipe_capacity: 4096,
        ..LoopbackConfig::default()
    });
    let gateway = Gateway::start(
        detector,
        ServeConfig {
            n_shards: 2,
            ..pinned(BackpressurePolicy::Block, 16, 32)
        },
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            outbound_capacity: 16,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");
    let on_shard = |shard| {
        (0..)
            .map(|i| format!("hol-{i}"))
            .find(|id| shard_for(id, 2) == shard)
            .expect("some id hashes to every shard")
    };
    let (a_id, b_id) = (on_shard(0), on_shard(1));

    // A: handshake, then flood until the transport pushes back.
    let mut encoder = Encoder::default();
    let mut a = connector
        .connect()
        .expect("connect")
        .into_poll()
        .expect("poll face");
    let mut a_in = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
    let hello = encoder
        .encode(&Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: a_id,
            tenant: String::new(),
        }))
        .expect("encode");
    let mut off = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut acked = false;
    while !acked {
        assert!(Instant::now() < deadline, "A's handshake timed out");
        poll_send(a.as_mut(), &hello, &mut off);
        let frames = poll_frames(a.as_mut(), &mut a_in).expect("A open");
        acked = frames.iter().any(|f| matches!(f, Frame::HelloAck(_)));
        std::thread::sleep(Duration::from_millis(1));
    }
    let a_records: Vec<_> = fleet_stream(1200.0, 17, 0).take(A_RECORDS).collect();
    assert_eq!(a_records.len(), A_RECORDS);
    let mut flood = Vec::new();
    for (seq, r) in a_records.iter().enumerate() {
        let frame = Frame::Record(RecordFrame {
            seq: seq as u64,
            label: None,
            record: *r,
        });
        encoder.encode_into(&frame, &mut flood).expect("encode");
    }
    let mut flooded = 0;
    let mut idle_since = Instant::now();
    while idle_since.elapsed() < Duration::from_millis(200) {
        if poll_send(a.as_mut(), &flood, &mut flooded) {
            idle_since = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // B, on the other shard, is served in full while A is stalled.
    let conn = connector.connect().expect("connect");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client =
            WireClient::connect(conn, "", &b_id, Duration::from_secs(5)).expect("handshake");
        let records: Vec<_> = fleet_stream(120.0, 23, 1).take(B_RECORDS).collect();
        for r in &records {
            client.send(*r, None).expect("send");
        }
        client.finish().expect("finish");
        // The receiver only vanishes once the watchdog has failed the test.
        let _ = done_tx.send((records, drain(&mut client)));
    });
    let Ok((b_records, (mut b_preds, b_nacks))) = done_rx.recv_timeout(Duration::from_secs(30))
    else {
        // The gateway is wedged; dropping it would hang on its joins.
        std::mem::forget(gateway);
        panic!("B was starved by A's stalled shard");
    };
    assert_eq!(b_nacks, 0, "Block ingest never NACKs");
    assert_eq!(b_preds.len(), B_RECORDS, "B must be served in full");
    b_preds.sort_by_key(|p| p.seq);
    for (p, r) in b_preds.iter().zip(&b_records) {
        let (occupied, proba) = direct.predict_record(r);
        assert_eq!((p.occupied, p.proba.to_bits()), (occupied, proba.to_bits()));
    }
    assert!(
        flooded < flood.len(),
        "A's flood must have been pushed back, or the scenario never stalled shard 0"
    );

    // A now sends the rest, reads everything, and says goodbye.
    let mut a_preds: Vec<PredictionFrame> = Vec::new();
    let mut goodbye = Vec::new();
    let mut said_goodbye = 0;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "A was never fully served");
        poll_send(a.as_mut(), &flood, &mut flooded);
        if flooded == flood.len() && goodbye.is_empty() {
            goodbye = encoder
                .encode(&Frame::Goodbye(Goodbye {
                    count: A_RECORDS as u64,
                }))
                .expect("encode");
        }
        poll_send(a.as_mut(), &goodbye, &mut said_goodbye);
        let Some(frames) = poll_frames(a.as_mut(), &mut a_in) else {
            break;
        };
        let mut done = false;
        for frame in frames {
            match frame {
                Frame::Prediction(p) => a_preds.push(p),
                Frame::Goodbye(_) => done = true,
                other => panic!("A got an unexpected frame: {other:?}"),
            }
        }
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(a);
    let report = gateway.shutdown();

    assert_eq!(a_preds.len(), A_RECORDS, "A must be served in full");
    a_preds.sort_by_key(|p| p.seq);
    for (i, (p, r)) in a_preds.iter().zip(&a_records).enumerate() {
        assert_eq!(p.seq, i as u64);
        let (occupied, proba) = direct.predict_record(r);
        assert_eq!((p.occupied, p.proba.to_bits()), (occupied, proba.to_bits()));
    }
    assert_eq!(report.wire.records_decoded, (A_RECORDS + B_RECORDS) as u64);
    assert_eq!(report.wire.predictions_sent, (A_RECORDS + B_RECORDS) as u64);
    assert_eq!(report.unaccounted_records(), 0);
}

/// Reads the next frame off a blocking socket, reassembling in `inbuf`;
/// `None` on EOF.
fn read_frame(raw: &mut TcpStream, inbuf: &mut FrameBuffer) -> Option<Frame> {
    loop {
        if let Some((header, payload)) = inbuf.peek().expect("well-formed gateway frames") {
            let frame = decode_payload(header.frame_type, payload).expect("decode");
            inbuf.consume(header.payload_len);
            return Some(frame);
        }
        match raw.read(inbuf.spare_mut()).expect("socket read") {
            0 => return None,
            n => inbuf.commit(n),
        }
    }
}

/// Byte-level framing against a live TCP gateway: a `Hello` and a
/// `Record` dribbled one byte per write still reassemble and score
/// bitwise; a header declaring a payload above the gateway's
/// `max_payload` is refused from the header alone — a `Malformed`
/// NACK, then a close — and counted in `malformed_frames`.
#[test]
fn tcp_gateway_reassembles_dribbled_bytes_and_refuses_oversize_headers() {
    let detector = quick_detector();
    let direct = detector.clone();
    let (acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).expect("listen");
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::Block, 1024, 32),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            max_payload: 4096,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let record = fleet_stream(10.0, 5, 0).next().expect("one record");
    let mut encoder = Encoder::new();
    let mut bytes = Vec::new();
    encoder
        .encode_into(
            &Frame::Hello(Hello {
                protocol: PROTOCOL_VERSION,
                sensor_id: "dribble".into(),
                tenant: String::new(),
            }),
            &mut bytes,
        )
        .expect("encode hello");
    encoder
        .encode_into(
            &Frame::Record(RecordFrame {
                seq: 0,
                label: None,
                record,
            }),
            &mut bytes,
        )
        .expect("encode record");
    for b in &bytes {
        raw.write_all(std::slice::from_ref(b)).expect("dribble");
    }
    let mut inbuf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
    assert!(matches!(
        read_frame(&mut raw, &mut inbuf),
        Some(Frame::HelloAck(_))
    ));
    let Some(Frame::Prediction(p)) = read_frame(&mut raw, &mut inbuf) else {
        panic!("expected the dribbled record's prediction");
    };
    assert_eq!(p.seq, 0);
    assert_eq!(
        p.proba.to_bits(),
        direct.predict_record(&record).1.to_bits()
    );

    // A Record header declaring 1 MiB; only the header is ever sent.
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.push(PROTOCOL_VERSION);
    header.push(3);
    header.extend_from_slice(&0u16.to_le_bytes());
    header.extend_from_slice(&(1u32 << 20).to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes());
    raw.write_all(&header).expect("oversize header");
    match read_frame(&mut raw, &mut inbuf) {
        Some(Frame::Nack(n)) => assert_eq!(n.reason, NackReason::Malformed),
        other => panic!("expected a Malformed NACK, got {other:?}"),
    }
    assert!(
        read_frame(&mut raw, &mut inbuf).is_none(),
        "the gateway closes after refusing"
    );
    drop(raw);
    let report = gateway.shutdown();
    assert_eq!(report.wire.malformed_frames, 1);
    assert_eq!(report.wire.records_decoded, 1);
    assert_eq!(report.unaccounted_records(), 0);
}
